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
//!
//! The socket front end is unix-only, and so is this suite.

#![cfg(unix)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::rc::Rc;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use raella_core::compiler::SharedCompileCache;
use raella_core::gateway::{
    decode_response, encode_request, next_frame, Gateway, GatewayClient, LocalPool,
    WRITE_HIGH_WATER,
};
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

/// A model whose output is its input image (a 1×1 max pool): every
/// response carries the whole image back, so a few hundred requests fill
/// the socket buffers with no compute to wait on.
fn echo_graph() -> Graph {
    let mut g = Graph::new();
    let input = g.input();
    let echo = g.max_pool(input, 1, 1);
    g.set_output(echo);
    g
}

/// 64 KiB images for [`echo_graph`].
fn echo_image(seed: u8) -> Tensor<u8> {
    let data = (0..16 * 64 * 64)
        .map(|i: usize| (i as u8).wrapping_mul(seed | 1).wrapping_add(seed))
        .collect();
    Tensor::from_vec(data, &[16, 64, 64]).expect("consistent image")
}

/// Request frames queued on a nonblocking connection, tagged in order.
struct RoundSender {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests queued so far (the next tag).
    encoded: usize,
}

impl RoundSender {
    /// Queues one request per tag, cycling through `images`.
    fn queue(&mut self, tags: std::ops::Range<usize>, images: &[Tensor<u8>]) {
        if self.flushed() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        for tag in tags {
            encode_request(&mut self.wbuf, tag as u64, 0, &images[tag % images.len()]);
            self.encoded += 1;
        }
    }

    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    /// Writes what the socket takes now.
    fn flush(&mut self) {
        while !self.flushed() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("request write failed: {e}"),
            }
        }
    }
}

#[test]
fn a_client_that_never_reads_stops_being_read_at_the_write_high_water_mark() {
    const SENT: usize = 400;
    const ROUND: usize = 16;
    const IMAGES: usize = 3;
    /// How long admissions must stand still to count as a plateau.
    const STILL: Duration = Duration::from_secs(1);
    const DEADLINE: Duration = Duration::from_secs(120);

    let server = Arc::new(
        RaellaServer::builder()
            .model(&echo_graph(), &tiny_cfg())
            .compile_cache(SharedCompileCache::new())
            .workers(1)
            .latency_budget_ticks(0)
            .build()
            .expect("echo server builds"),
    );
    let gateway = Gateway::builder(Arc::clone(&server))
        .io_threads(1)
        .bind("127.0.0.1:0")
        .expect("gateway binds");
    let images: Vec<Tensor<u8>> = (0..IMAGES as u8).map(echo_image).collect();
    let expect = server.model(0).run_batch(&images).expect("baseline runs");
    let expect = expect.outputs();
    let response_bytes = expect[0].as_slice().len();
    assert!(
        SENT * response_bytes > 16 * WRITE_HIGH_WATER,
        "the responses must dwarf the high-water mark"
    );

    let stream = TcpStream::connect(gateway.local_addr()).expect("connects");
    stream.set_nonblocking(true).expect("nonblocking client");
    let mut sender = RoundSender {
        stream,
        wbuf: Vec::new(),
        wpos: 0,
        encoded: 0,
    };
    let next_round = |sender: &mut RoundSender| {
        let tags = sender.encoded..(sender.encoded + ROUND).min(SENT);
        sender.queue(tags, &images);
    };

    // Send a round at a time, each once the last is admitted and
    // served, and read nothing: the responses back up until the gateway
    // stops reading, and then admissions stand still.
    let start = Instant::now();
    let mut seen = (u64::MAX, u64::MAX);
    let mut still_since = Instant::now();
    let plateau = loop {
        assert!(start.elapsed() < DEADLINE, "no plateau within {DEADLINE:?}");
        let metrics = server.metrics();
        let now = (metrics.accepted(), metrics.served()[0]);
        if now != seen {
            seen = now;
            still_since = Instant::now();
        } else if still_since.elapsed() >= STILL {
            break now.0 as usize;
        }
        let encoded = sender.encoded as u64;
        if sender.flushed() && now == (encoded, encoded) {
            if sender.encoded == SENT {
                break SENT;
            }
            next_round(&mut sender);
        }
        sender.flush();
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(
        plateau < SENT,
        "admissions must stall below the {SENT} requests sent, not reach {plateau}"
    );

    // Now read: every response arrives, bit-identical, and the stalled
    // and remaining requests go through.
    let mut rbuf = Vec::new();
    let mut chunk = vec![0u8; 256 * 1024];
    let mut answered = vec![false; SENT];
    let mut count = 0;
    while count < SENT {
        assert!(
            start.elapsed() < DEADLINE,
            "{count} of {SENT} answered within {DEADLINE:?}"
        );
        if sender.flushed() && sender.encoded < SENT {
            next_round(&mut sender);
        }
        sender.flush();
        match sender.stream.read(&mut chunk) {
            Ok(0) => panic!("gateway closed the connection"),
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("response read failed: {e}"),
        }
        let mut used = 0;
        while let Some((len, payload)) = next_frame(&rbuf[used..]).expect("well-formed frame") {
            let resp = decode_response(&rbuf[used..][payload]).expect("decodable response");
            let tag = resp.tag as usize;
            let ok = resp
                .result
                .unwrap_or_else(|e| panic!("tag {tag} refused: {e}"));
            assert!(
                !std::mem::replace(&mut answered[tag], true),
                "tag {tag} twice"
            );
            assert_eq!(
                ok.output.as_slice(),
                expect[tag % IMAGES].as_slice(),
                "tag {tag} bytes over the wire"
            );
            count += 1;
            used += len;
        }
        rbuf.drain(..used);
    }
    assert_eq!(server.metrics().accepted() as usize, SENT);

    gateway.shutdown();
    server.shutdown();
}

#[test]
fn shutdown_wakes_io_threads_waiting_on_idle_connections() {
    /// Generous for a debug build on a loaded host: the IO threads' wait
    /// has no timeout, so only the wake pipe can end it.
    const BOUND: Duration = Duration::from_secs(10);

    let server = Arc::new(
        RaellaServer::builder()
            .model(&tiny_graph(), &tiny_cfg())
            .compile_cache(SharedCompileCache::new())
            .workers(1)
            .latency_budget_ticks(0)
            .build()
            .expect("tiny server builds"),
    );
    let gateway = Gateway::builder(Arc::clone(&server))
        .io_threads(2)
        .bind("127.0.0.1:0")
        .expect("gateway binds");
    let mut clients: Vec<GatewayClient> = (0..4)
        .map(|_| GatewayClient::connect(gateway.local_addr()).expect("client connects"))
        .collect();
    // One round trip per connection: each is accepted and owned by an
    // IO thread before the traffic stops.
    for (tag, client) in clients.iter_mut().enumerate() {
        client.send(tag as u64, 0, &tiny_image(1)).expect("sends");
        client.recv().expect("answered").result.expect("served");
    }
    std::thread::sleep(Duration::from_millis(50));

    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        gateway.shutdown();
        done_tx.send(()).expect("test waits for the shutdown");
    });
    done_rx
        .recv_timeout(BOUND)
        .unwrap_or_else(|e| panic!("Gateway::shutdown did not return within {BOUND:?}: {e}"));
    for client in &mut clients {
        let err = client.recv().expect_err("connection dropped at shutdown");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    }
    server.shutdown();
}
