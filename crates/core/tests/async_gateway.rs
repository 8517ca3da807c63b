//! The async gateway's headline demo plus wire-level end-to-end checks.
//!
//! The 10k test is the acceptance demo for waker-based delivery: ten
//! thousand requests held in flight simultaneously from **at most four
//! OS threads** — main (driving a [`LocalPool`] of 10 000
//! `RequestHandle` futures), two serving workers, and one shutdown
//! trigger. Under the old one-parked-thread-per-`wait()` delivery this
//! topology was impossible; with notification cells the in-flight cost
//! is memory, not threads. Every response must stay bit-identical to
//! submission-order `run_batch`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use raella_core::compiler::SharedCompileCache;
use raella_core::gateway::{Gateway, GatewayClient, LocalPool};
use raella_core::server::{Admission, RaellaServer};
use raella_core::RaellaConfig;
use raella_nn::graph::Graph;
use raella_nn::synth::SynthLayer;
use raella_nn::tensor::Tensor;

/// The smallest interesting model: gap → 2→3 linear, so each request is
/// microseconds of compute and the test exercises delivery, not math.
fn tiny_graph() -> Graph {
    let mut g = Graph::new();
    let input = g.input();
    let gap = g.global_avg_pool(input);
    let fc = g.linear(gap, SynthLayer::linear(2, 3, 7).build());
    g.set_output(fc);
    g
}

fn tiny_cfg() -> RaellaConfig {
    RaellaConfig {
        crossbar_rows: 64,
        crossbar_cols: 64,
        search_vectors: 2,
        ..RaellaConfig::default()
    }
}

fn tiny_image(seed: u8) -> Tensor<u8> {
    Tensor::from_vec(
        vec![seed, seed.wrapping_mul(31).wrapping_add(5)],
        &[2, 1, 1],
    )
    .expect("consistent image")
}

#[test]
fn ten_thousand_in_flight_from_four_threads_stay_bit_identical() {
    const IN_FLIGHT: usize = 10_000;
    const IMAGES: usize = 3;

    // Oversized batches plus a 30 s latency budget park the workers: the
    // lane can't fill a batch and the budget won't expire while we
    // submit, so all 10k requests are genuinely in flight at once.
    // Release is the shutdown drain, which serves every accepted
    // request.
    let server = RaellaServer::builder()
        .model(&tiny_graph(), &tiny_cfg())
        .compile_cache(SharedCompileCache::new())
        .workers(2)
        .max_batch(16 * 1024)
        .latency_budget_ticks(30_000_000)
        .build()
        .expect("tiny server builds");
    assert_eq!(server.worker_count(), 2, "thread budget: 2 workers");

    let images: Vec<Tensor<u8>> = (0..IMAGES as u8).map(tiny_image).collect();
    let expect = server.model(0).run_batch(&images).expect("baseline runs");
    let expect = expect.outputs();

    let mut handles = Vec::with_capacity(IN_FLIGHT);
    for i in 0..IN_FLIGHT {
        handles.push(
            server
                .submit(0, images[i % IMAGES].clone(), Admission::Block)
                .expect("unbounded submit admits"),
        );
    }
    assert_eq!(
        server.pending(),
        IN_FLIGHT,
        "all {IN_FLIGHT} requests must be in flight simultaneously"
    );

    // One future per request, all driven by this thread. Results land in
    // a shared slot table (single-threaded pool → Rc, no locks).
    let results: Rc<RefCell<Vec<Option<Vec<u8>>>>> =
        Rc::new(RefCell::new((0..IN_FLIGHT).map(|_| None).collect()));
    let mut pool = LocalPool::new();
    for (i, handle) in handles.into_iter().enumerate() {
        let results = Rc::clone(&results);
        pool.spawn(async move {
            let resp = handle.await.expect("drained request resolves");
            results.borrow_mut()[i] = Some(resp.output().as_slice().to_vec());
        });
    }
    assert_eq!(pool.pending(), IN_FLIGHT);

    // Thread 4 triggers the drain while the pool races it: completions
    // may land before, during, or after each future's first poll, and
    // every interleaving must resolve.
    std::thread::scope(|scope| {
        scope.spawn(|| server.shutdown());
        pool.run();
    });

    let results = results.borrow();
    for (i, got) in results.iter().enumerate() {
        let got = got.as_ref().expect("future {i} resolved");
        assert_eq!(
            got.as_slice(),
            expect[i % IMAGES].as_slice(),
            "request {i} must be bit-identical to submission-order run_batch"
        );
    }
}

#[test]
fn gateway_round_trips_pipelined_connections_bit_identically() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 50;
    const IMAGES: usize = 3;

    let server = Arc::new(
        RaellaServer::builder()
            .model(&tiny_graph(), &tiny_cfg())
            .compile_cache(SharedCompileCache::new())
            .workers(2)
            .max_batch(8)
            .latency_budget_ticks(0)
            .build()
            .expect("tiny server builds"),
    );
    let gateway = Gateway::builder(Arc::clone(&server))
        .io_threads(2)
        .bind("127.0.0.1:0")
        .expect("gateway binds");

    let images: Vec<Tensor<u8>> = (0..IMAGES as u8).map(tiny_image).collect();
    let expect = server.model(0).run_batch(&images).expect("baseline runs");
    let expect = expect.outputs();

    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let addr = gateway.local_addr();
            let images = &images;
            let expect = &expect;
            scope.spawn(move || {
                let mut client = GatewayClient::connect(addr).expect("client connects");
                // Pipeline the whole burst before reading anything —
                // responses may come back out of order; the tag matches
                // them up.
                for i in 0..PER_CLIENT {
                    let tag = (client_id * PER_CLIENT + i) as u64;
                    client
                        .send(tag, 0, &images[i % IMAGES])
                        .expect("request frame sends");
                }
                let mut got = HashMap::new();
                for _ in 0..PER_CLIENT {
                    let resp = client.recv().expect("response frame arrives");
                    got.insert(resp.tag, resp.result);
                }
                assert_eq!(got.len(), PER_CLIENT, "client {client_id} tags unique");
                for i in 0..PER_CLIENT {
                    let tag = (client_id * PER_CLIENT + i) as u64;
                    let ok = got[&tag]
                        .as_ref()
                        .unwrap_or_else(|e| panic!("client {client_id} tag {tag}: {e}"));
                    assert_eq!(
                        ok.output.as_slice(),
                        expect[i % IMAGES].as_slice(),
                        "client {client_id} tag {tag} bytes over the wire"
                    );
                }
            });
        }
    });

    let metrics = server.metrics();
    assert_eq!(metrics.accepted() as usize, CLIENTS * PER_CLIENT);
    assert_eq!(metrics.rejected(), 0, "unbounded queue never rejects");

    gateway.shutdown();
    server.shutdown();
}
