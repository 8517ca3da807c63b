//! Open-loop load generation against the async `Gateway`.
//!
//! Builds a tiny synth model behind a `RaellaServer` (2 workers), fronts
//! it with a `Gateway` (2 IO threads), then offers bursts of 1k / 5k /
//! 10k requests — the whole level up front, regardless of completions
//! (open loop) — from a single-threaded client pumping 50 nonblocking
//! connections. Every response is asserted bit-identical to
//! submission-order `run_batch` before it counts, and each level prints
//! its completed req/s plus p50/p99 end-to-end latency. A level that has
//! not fully completed within `LEVEL_DEADLINE` (15 s) fails the run, on
//! any core count.
//!
//! The model is deliberately microscopic: this example measures request
//! *delivery* at depth — wire framing, waker-based completion fan-in,
//! IO-thread multiplexing — not crossbar math (servebench's
//! `gateway_tiny` workload measures the same stack under Poisson load).
//!
//! ```sh
//! cargo run --release --example gateway
//! ```

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use raella::core::gateway::{decode_response, encode_request, next_frame};
use raella::prelude::*;

const LEVELS: [usize; 3] = [1_000, 5_000, 10_000];
const CONNECTIONS: usize = 50;
const IMAGES: usize = 3;
/// Hard per-level deadline: a wedged pump or a delivery regression fails
/// loudly, not silently.
const LEVEL_DEADLINE: Duration = Duration::from_secs(15);

fn tiny_graph() -> Graph {
    let mut g = Graph::new();
    let input = g.input();
    let gap = g.global_avg_pool(input);
    let fc = g.linear(gap, SynthLayer::linear(2, 3, 7).build());
    g.set_output(fc);
    g
}

fn tiny_image(seed: u8) -> Tensor<u8> {
    Tensor::from_vec(
        vec![seed, seed.wrapping_mul(31).wrapping_add(5)],
        &[2, 1, 1],
    )
    .expect("consistent image")
}

/// One load connection: pre-encoded request bytes drain out as the
/// socket accepts them (frame send boundaries timestamped per tag),
/// response bytes drain in and decode as frames complete.
struct LoadConn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    /// (offset in `wbuf` where a frame ends, its tag) — popped as `wpos`
    /// passes each boundary to timestamp the send.
    boundaries: VecDeque<(usize, usize)>,
    rbuf: Vec<u8>,
}

struct LevelRecord {
    requests_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx]
}

/// Offers `level` requests across `CONNECTIONS` sockets and pumps until
/// every response is back, asserting bit-identity along the way.
fn run_level(
    addr: std::net::SocketAddr,
    level: usize,
    images: &[Tensor<u8>],
    expect: &[Tensor<u8>],
) -> LevelRecord {
    let mut conns: Vec<LoadConn> = (0..CONNECTIONS)
        .map(|_| {
            let stream = TcpStream::connect(addr).expect("load connection connects");
            stream.set_nonblocking(true).expect("nonblocking client");
            let _ = stream.set_nodelay(true);
            LoadConn {
                stream,
                wbuf: Vec::new(),
                wpos: 0,
                boundaries: VecDeque::new(),
                rbuf: Vec::new(),
            }
        })
        .collect();

    // The whole level is offered up front: request i rides connection
    // i % CONNECTIONS with tag i.
    for i in 0..level {
        let conn = &mut conns[i % CONNECTIONS];
        encode_request(&mut conn.wbuf, i as u64, 0, &images[i % IMAGES]);
        conn.boundaries.push_back((conn.wbuf.len(), i));
    }

    let mut sent_at: Vec<Option<Instant>> = vec![None; level];
    let mut latency_us: Vec<u64> = Vec::with_capacity(level);
    let mut completed = 0usize;
    let mut tmp = [0u8; 16 * 1024];
    let t0 = Instant::now();
    while completed < level {
        assert!(
            t0.elapsed() < LEVEL_DEADLINE,
            "level {level}: only {completed} responses within {LEVEL_DEADLINE:?}"
        );
        let mut progress = false;
        for conn in conns.iter_mut() {
            // Drain outgoing frames.
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => panic!("gateway closed a load connection"),
                    Ok(n) => {
                        conn.wpos += n;
                        progress = true;
                        let now = Instant::now();
                        while let Some(&(end, tag)) = conn.boundaries.front() {
                            if end > conn.wpos {
                                break;
                            }
                            sent_at[tag] = Some(now);
                            conn.boundaries.pop_front();
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => panic!("load connection write failed: {e}"),
                }
            }
            // Drain incoming frames.
            loop {
                match conn.stream.read(&mut tmp) {
                    Ok(0) => panic!("gateway closed a load connection mid-level"),
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&tmp[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => panic!("load connection read failed: {e}"),
                }
            }
            while let Some((used, payload)) = next_frame(&conn.rbuf).expect("well-formed frame") {
                let resp = decode_response(&conn.rbuf[payload]).expect("decodable response");
                let tag = resp.tag as usize;
                let ok = resp
                    .result
                    .unwrap_or_else(|e| panic!("request {tag} rejected: {e}"));
                assert_eq!(
                    ok.output.as_slice(),
                    expect[tag % IMAGES].as_slice(),
                    "request {tag} must be bit-identical to run_batch over the wire"
                );
                let sent = sent_at[tag].expect("response implies the request was sent");
                latency_us.push(sent.elapsed().as_micros() as u64);
                completed += 1;
                conn.rbuf.drain(..used);
            }
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();

    latency_us.sort_unstable();
    LevelRecord {
        requests_per_sec: completed as f64 / elapsed,
        p50_us: percentile(&latency_us, 50.0),
        p99_us: percentile(&latency_us, 99.0),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = RaellaConfig {
        crossbar_rows: 64,
        crossbar_cols: 64,
        search_vectors: 2,
        ..RaellaConfig::default()
    };
    let server = Arc::new(
        RaellaServer::builder()
            .model(&tiny_graph(), &cfg)
            .compile_cache(SharedCompileCache::new())
            .workers(2)
            .max_batch(64)
            .latency_budget_ticks(200)
            .build()?,
    );
    let gateway = Gateway::builder(Arc::clone(&server))
        .io_threads(2)
        .bind("127.0.0.1:0")?;
    println!(
        "gateway on {} — 2 IO threads fronting {} workers",
        gateway.local_addr(),
        server.worker_count()
    );

    let images: Vec<Tensor<u8>> = (0..IMAGES as u8).map(tiny_image).collect();
    let expect = server.model(0).run_batch(&images)?;
    let expect = expect.outputs();

    for level in LEVELS {
        let record = run_level(gateway.local_addr(), level, &images, expect);
        println!(
            "{level:>6} in flight over {CONNECTIONS} connections: {:>9.1} req/s, latency p50 {} µs p99 {} µs",
            record.requests_per_sec, record.p50_us, record.p99_us
        );
    }

    let metrics = server.metrics();
    let offered: usize = LEVELS.iter().sum();
    assert_eq!(
        metrics.accepted() as usize,
        offered,
        "every offered request was admitted (unbounded queue)"
    );
    assert_eq!(metrics.rejected(), 0);
    println!(
        "totals: {} accepted, queue high water {}",
        metrics.accepted(),
        metrics.queue_depth_high_water()
    );

    gateway.shutdown();
    server.shutdown();
    Ok(())
}
