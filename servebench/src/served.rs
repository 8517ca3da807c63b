//! `serve_resnet18` and `gateway_tiny`: seeded open-loop load through the
//! socket gateway into a one-worker server.
//!
//! One generator thread drives one loopback connection. Request `i` is due
//! at a seeded arrival time; the generator writes every request as it falls
//! due, whatever is still outstanding, and times each request from its due
//! time to its decoded response, so a stall shows in every request queued
//! behind it. Arrivals are Poisson with stratified gaps (see [`schedule`]):
//! the window holds exactly `rate × seconds` requests.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use raella_core::gateway::{decode_response, encode_request, next_frame, WireOk};
use raella_core::{CompiledModel, EnergyBreakdown, RunStats, ServerMetrics, ShardPlan};
use raella_nn::graph::{argmax, ValueArena};
use raella_nn::rng::SynthRng;
use raella_nn::tensor::Tensor;

use crate::stack::{self, Stack};
use crate::trace::{self, Tracer};
use crate::{median, percentile, sorted, Args, Metrics, Tally};

/// `serve_resnet18`: offered rate and latency limit. At 12 req/s the one
/// worker is ~40% busy, recalibration included: higher rates made the
/// latency percentiles swing by more than their bound from run to run on
/// a 2-core host. Every request carries its own seeded image.
const RESNET_RATE: f64 = 12.0;
const RESNET_LIMIT_MS: f64 = 100.0;
const RESNET_SHARDS: usize = 2;
const RESNET_WATCHDOG: u64 = 10;
/// How long the generator sleeps when idle: short against each workload's
/// latencies, long enough not to steal a core from the server.
const RESNET_POLL: Duration = Duration::from_micros(200);
const TINY_POLL: Duration = Duration::from_micros(50);
/// `gateway_tiny`: offered rate, latency limit, and distinct images.
const TINY_RATE: f64 = 8000.0;
const TINY_LIMIT_MS: f64 = 2.0;
const TINY_IMAGES: usize = 1024;
/// The tiny stack sets up in about a millisecond, and its set-up time
/// follows the host's speed phases: a median of 31 set-ups (tens of ms)
/// read 0.55 or 0.95 ms depending on the phase it fell in, and two ten-run
/// sets' medians differed by 60%. A thousand (about a second) span phases.
const TINY_SETUPS: usize = 1000;
/// Closed-loop requests sent before the window (untimed, unchecked).
const RESNET_WARMUP: usize = 2;
const TINY_WARMUP: usize = 200;
/// Responses still missing this long after the window count as failed.
const DRAIN: Duration = Duration::from_secs(10);
/// Traced responses also replayed through a sharded plan.
const SHARD_SAMPLES: usize = 16;
/// `gateway_tiny` responses whose pricing is timed (keeps the span file
/// small at thousands of requests per second).
const METER_SAMPLES: usize = 4096;

/// Seeded arrivals: due time (ns from the window start) and image index.
struct Schedule {
    due_ns: Vec<u64>,
    image: Vec<usize>,
}

/// Seeded arrivals for `rate × seconds` requests. The interarrival gaps are
/// the exponential distribution's quantiles at `(k + ½)/n`, scaled to fill
/// the window, in a seeded random order: every seed offers exactly the same
/// gap distribution and the seed decides where the bursts fall. Request `i`
/// carries image `i` when there are exactly as many images as requests,
/// else a seeded draw.
fn schedule(seed: u64, rate: f64, seconds: f64, images: usize) -> Schedule {
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut rng = SynthRng::new(seed ^ 0x0A11_1DE5);
    let mut gaps: Vec<f64> = (0..n)
        .map(|k| -(1.0 - (k as f64 + 0.5) / n as f64).ln())
        .collect();
    for i in (1..n).rev() {
        let j = rng.uniform_int(0, i as i64 + 1) as usize;
        gaps.swap(i, j);
    }
    let scale = seconds * 1e9 / gaps.iter().sum::<f64>();
    let mut t = 0.0;
    let due_ns = gaps
        .iter()
        .map(|gap| {
            let due = t as u64;
            t += gap * scale;
            due
        })
        .collect();
    let image = if images == n {
        (0..n).collect()
    } else {
        (0..n)
            .map(|_| rng.uniform_int(0, images as i64) as usize)
            .collect()
    };
    Schedule { due_ns, image }
}

/// Never sent / never answered.
const NEVER: u64 = u64::MAX;

/// What the generator saw in one window.
struct Run {
    window_ns: u64,
    /// Send time of each request (ns from the window start).
    sent_ns: Vec<u64>,
    /// Time each response was decoded.
    done_ns: Vec<u64>,
    responses: Vec<Option<Result<WireOk, String>>>,
    bytes_sent: u64,
    before: ServerMetrics,
    after: ServerMetrics,
}

/// Sends `warmup` requests one at a time on their own connection.
fn warm_up(stack: &Stack, image: &Tensor<u8>, warmup: usize) -> Result<(), String> {
    let mut client = raella_core::GatewayClient::connect(stack.gateway.local_addr())
        .map_err(|e| format!("warm-up connect failed: {e}"))?;
    for tag in 0..warmup as u64 {
        client
            .send(tag, 0, image)
            .map_err(|e| format!("warm-up send failed: {e}"))?;
        let resp = client
            .recv()
            .map_err(|e| format!("warm-up recv failed: {e}"))?;
        resp.result
            .map_err(|e| format!("warm-up request refused: {e}"))?;
    }
    Ok(())
}

/// Shortest sleep worth asking the timer for.
const MIN_SLEEP_NS: u64 = 60_000;

/// `write_all` on a nonblocking socket: the gateway always reads, so a
/// full send buffer drains within moments.
fn write_all(stream: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(k) => buf = &buf[k..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::yield_now();
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Drives one open-loop window. Spans `submit`, `send`, `recv` and `decode`
/// go to `tracer` when one is given.
fn drive(
    stack: &Stack,
    plan: &Schedule,
    images: &[Tensor<u8>],
    seconds: f64,
    poll: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Result<Run, String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let mut stream =
        TcpStream::connect(stack.gateway.local_addr()).map_err(|e| io("connect", e))?;
    stream.set_nodelay(true).map_err(|e| io("nodelay", e))?;
    stream
        .set_nonblocking(true)
        .map_err(|e| io("nonblocking", e))?;
    let poll_ns = poll.as_nanos() as u64;
    let n = plan.due_ns.len();
    let window_ns = (seconds * 1e9) as u64;
    let deadline_ns = window_ns + DRAIN.as_nanos() as u64;
    let mut run = Run {
        window_ns,
        sent_ns: vec![NEVER; n],
        done_ns: vec![NEVER; n],
        responses: vec![None; n],
        bytes_sent: 0,
        before: stack.server.metrics(),
        after: stack.server.metrics(),
    };
    let mut wbuf = Vec::new();
    let mut rbuf = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0usize;
    let mut answered = 0usize;
    let start = Instant::now();
    let clock = |start: Instant| start.elapsed().as_nanos() as u64;
    loop {
        let now = clock(start);
        if next < n && plan.due_ns[next] <= now {
            let first = next;
            while next < n && plan.due_ns[next] <= now {
                let t0 = tracer.as_ref().map(|t| t.now());
                encode_request(&mut wbuf, next as u64, 0, &images[plan.image[next]]);
                if let (Some(t), Some(t0)) = (tracer.as_deref_mut(), t0) {
                    let t1 = t.now();
                    t.push(next as u64, "submit", t0, t1);
                }
                next += 1;
            }
            let t0 = tracer.as_ref().map(|t| t.now());
            write_all(&mut stream, &wbuf).map_err(|e| io("send", e))?;
            if let (Some(t), Some(t0)) = (tracer.as_deref_mut(), t0) {
                let t1 = t.now();
                t.push(first as u64, "send", t0, t1);
            }
            let sent = clock(start);
            run.sent_ns[first..next].fill(sent);
            run.bytes_sent += wbuf.len() as u64;
            wbuf.clear();
        }
        // Drain whatever responses have arrived.
        let mut progressed = false;
        loop {
            let t0 = tracer.as_ref().map(|t| t.now());
            match stream.read(&mut chunk) {
                Ok(0) => return Err("the gateway closed the connection".into()),
                Ok(k) => {
                    if let (Some(t), Some(t0)) = (tracer.as_deref_mut(), t0) {
                        let t1 = t.now();
                        t.push(NEVER, "recv", t0, t1);
                    }
                    rbuf.extend_from_slice(&chunk[..k]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io("recv", e)),
            }
        }
        let mut used = 0;
        while let Some((len, payload)) = next_frame(&rbuf[used..])? {
            let t0 = tracer.as_ref().map(|t| t.now());
            let resp = decode_response(&rbuf[used..][payload])?;
            let done = clock(start);
            let tag = resp.tag as usize;
            if let (Some(t), Some(t0)) = (tracer.as_deref_mut(), t0) {
                let t1 = t.now();
                t.push(resp.tag, "decode", t0, t1);
            }
            if tag >= n || run.responses[tag].is_some() {
                return Err(format!("unexpected response tag {tag}"));
            }
            run.done_ns[tag] = done;
            run.responses[tag] = Some(resp.result);
            answered += 1;
            used += len;
        }
        rbuf.drain(..used);
        let now = clock(start);
        if answered == n || now >= deadline_ns {
            break;
        }
        // Nothing arrived: sleep until the next request falls due, or one
        // poll interval. Below the timer's resolution, spin instead.
        if !progressed {
            let wait = plan
                .due_ns
                .get(next)
                .map_or(poll_ns, |&due| due.saturating_sub(now).min(poll_ns));
            if wait >= MIN_SLEEP_NS {
                std::thread::sleep(Duration::from_nanos(wait));
            } else {
                std::thread::yield_now();
            }
        }
    }
    run.after = stack.server.metrics();
    Ok(run)
}

/// One checked response: the replayed counters and energy behind it.
struct Checked {
    stats: RunStats,
    energy: EnergyBreakdown,
    predicted: usize,
}

/// Counts every response against `check`, which returns the replayed
/// counters of a served response or a description of the mismatch.
fn check_run(
    run: &Run,
    tally: &mut Tally,
    mut check: impl FnMut(usize, &WireOk) -> Result<Checked, String>,
) -> Vec<Option<Checked>> {
    tally.attempted += run.responses.len() as u64;
    run.responses
        .iter()
        .enumerate()
        .map(|(i, resp)| match resp {
            None => {
                tally.fail(|| format!("request {i}: no response"));
                None
            }
            Some(Err(msg)) => {
                tally.fail(|| format!("request {i}: error frame: {msg}"));
                None
            }
            Some(Ok(ok)) => match check(i, ok) {
                Ok(checked) => Some(checked),
                Err(msg) => {
                    tally.fail(|| format!("request {i}: {msg}"));
                    None
                }
            },
        })
        .collect()
}

/// Latencies (ms, due → decoded) of the correct responses.
fn latencies_ms(run: &Run, plan: &Schedule, checked: &[Option<Checked>]) -> Vec<f64> {
    sorted(
        checked
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(i, _)| (run.done_ns[i] - plan.due_ns[i]) as f64 / 1e6)
            .collect(),
    )
}

/// The end-to-end metrics of one window.
fn end_to_end(
    m: &mut Metrics,
    run: &Run,
    plan: &Schedule,
    checked: &[Option<Checked>],
    truth: &[usize],
    limit_ms: f64,
) {
    let n = checked.len() as f64;
    let lat = latencies_ms(run, plan, checked);
    let in_window = checked
        .iter()
        .zip(&run.done_ns)
        .filter(|(c, &done)| c.is_some() && done <= run.window_ns)
        .count();
    let rate = in_window as f64 / (run.window_ns as f64 / 1e9);
    let good = checked
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            c.is_some() && (run.done_ns[*i] - plan.due_ns[*i]) as f64 / 1e6 <= limit_ms
        })
        .count();
    let ok: Vec<&Checked> = checked.iter().flatten().collect();
    let served = ok.len().max(1) as f64;
    let agree = checked
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            c.as_ref()
                .is_some_and(|c| c.predicted == truth[plan.image[*i]])
        })
        .count();
    m.set("requests_per_s", rate, "req/s");
    m.set("images_per_s", rate, "images/s");
    m.set("latency_p50_ms", percentile(&lat, 50.0), "ms");
    m.set("latency_p90_ms", percentile(&lat, 90.0), "ms");
    m.set("latency_p99_ms", percentile(&lat, 99.0), "ms");
    m.set("goodput_frac", good as f64 / n, "ratio");
    m.set("top1_agreement", agree as f64 / n, "ratio");
    m.set(
        "sim_pj_per_image",
        ok.iter().map(|c| c.energy.total_pj()).sum::<f64>() / served,
        "pJ",
    );
    m.set(
        "sim_adc_converts_per_image",
        ok.iter()
            .map(|c| c.stats.events.adc_converts as f64)
            .sum::<f64>()
            / served,
        "count",
    );
}

/// Generator validity: lag behind the schedule, and requests due in the
/// window but unanswered when it closed.
fn loadgen(run: &Run, plan: &Schedule) -> (f64, f64, usize) {
    let lag = sorted(
        run.sent_ns
            .iter()
            .zip(&plan.due_ns)
            .filter(|(&s, _)| s != NEVER)
            .map(|(&s, &d)| (s - d) as f64 / 1e6)
            .collect(),
    );
    let backlog = plan
        .due_ns
        .iter()
        .zip(&run.done_ns)
        .filter(|(&due, &done)| due <= run.window_ns && done > run.window_ns)
        .count();
    (percentile(&lag, 50.0), percentile(&lag, 99.0), backlog)
}

/// Per-layer metrics of the server, policy, gateway and generator, from
/// one traced window.
fn stage_metrics(
    m: &mut Metrics,
    run: &Run,
    plan: &Schedule,
    checked: &[Option<Checked>],
    tracer: &Tracer,
) {
    let ok: Vec<(usize, &WireOk)> = run
        .responses
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match (r, &checked[i]) {
            (Some(Ok(ok)), Some(_)) => Some((i, ok)),
            _ => None,
        })
        .collect();
    let queue = sorted(ok.iter().map(|(_, w)| w.queue_ticks as f64 / 1e3).collect());
    let compute = sorted(
        ok.iter()
            .map(|(_, w)| w.compute_ticks as f64 / 1e3)
            .collect(),
    );
    let wire = sorted(
        ok.iter()
            .map(|(i, w)| {
                (run.done_ns[*i] - run.sent_ns[*i]) as f64 / 1e6
                    - (w.queue_ticks + w.compute_ticks) as f64 / 1e3
            })
            .collect(),
    );
    m.set("server.queue_ms.p50", percentile(&queue, 50.0), "ms");
    m.set("server.queue_ms.p90", percentile(&queue, 90.0), "ms");
    m.set("server.compute_ms.p50", percentile(&compute, 50.0), "ms");
    m.set("server.compute_ms.p90", percentile(&compute, 90.0), "ms");
    let busy = run.after.worker_busy_ticks() - run.before.worker_busy_ticks();
    m.set(
        "server.worker_busy_frac",
        busy as f64 * 1e3 / run.window_ns as f64,
        "ratio",
    );
    m.set(
        "server.queue_depth_high_water",
        run.after.queue_depth_high_water() as f64,
        "count",
    );
    m.set("server.rejected", run.after.rejected() as f64, "count");
    let recals = run.after.recalibrations() - run.before.recalibrations();
    let pause = run.after.recalibration_pause_ticks() - run.before.recalibration_pause_ticks();
    m.set("policy.recalibrations", recals as f64, "count");
    m.set(
        "policy.recal_pause_ms.mean",
        if recals == 0 {
            0.0
        } else {
            pause as f64 / recals as f64 / 1e3
        },
        "ms",
    );
    m.set(
        "policy.requests_per_recal",
        ok.len() as f64 / recals.max(1) as f64,
        "count",
    );
    m.set("gateway.wire_ms.p50", percentile(&wire, 50.0), "ms");
    m.set("gateway.wire_ms.p90", percentile(&wire, 90.0), "ms");
    let n = run.responses.len() as f64;
    let (encode_ns, _) = tracer.total("submit");
    let (decode_ns, decoded) = tracer.total("decode");
    m.set("gateway.encode_ns_per_request", encode_ns as f64 / n, "ns");
    m.set(
        "gateway.decode_ns_per_response",
        decode_ns as f64 / decoded.max(1) as f64,
        "ns",
    );
    m.set(
        "gateway.bytes_per_request",
        run.bytes_sent as f64 / n,
        "bytes",
    );
    let errors = run
        .responses
        .iter()
        .filter(|r| matches!(r, Some(Err(_))))
        .count();
    m.set("gateway.error_frames", errors as f64, "count");
    let (lag50, lag99, backlog) = loadgen(run, plan);
    m.set("loadgen.lag_ms.p50", lag50, "ms");
    m.set("loadgen.lag_ms.p99", lag99, "ms");
    m.set("loadgen.backlog_end", backlog as f64, "count");
}

/// Warns when the generator fell behind its schedule or left a backlog: the
/// run then measured an overloaded system, not the offered rate.
fn warn_if_invalid(run: &Run, plan: &Schedule) {
    let (_, lag99, backlog) = loadgen(run, plan);
    if lag99 > 10.0 || backlog > 10.max(plan.due_ns.len() / 20) {
        eprintln!(
            "servebench: WARNING: run invalid (generator lag p99 {lag99:.2} ms, \
             backlog at window end {backlog})"
        );
    }
}

/// Integer-reference top-1 class of each image.
fn truth(graph: &raella_nn::graph::Graph, images: &[Tensor<u8>]) -> Result<Vec<usize>, String> {
    images
        .iter()
        .map(|im| {
            graph
                .run_reference(im)
                .map(|out| argmax(out.as_slice()))
                .map_err(|e| format!("integer reference failed: {e}"))
        })
        .collect()
}

/// One driven window, with its spans when it was traced.
type Window = (Run, Option<Tracer>);

/// Length of one timed window: traced runs split the time in two halves.
fn window_seconds(args: &Args) -> f64 {
    if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    }
}

/// Runs the untimed and timed windows for one served workload. With
/// tracing, the window splits into an untraced half and a traced half on
/// the same schedule; otherwise one untraced window.
fn windows(
    args: &Args,
    stack: &Stack,
    images: &[Tensor<u8>],
    rate: f64,
    poll: Duration,
) -> Result<(Schedule, Vec<Window>), String> {
    let seconds = window_seconds(args);
    let plan = schedule(args.seed, rate, seconds, images.len());
    let mut runs = vec![(drive(stack, &plan, images, seconds, poll, None)?, None)];
    if args.trace {
        let mut tracer = Tracer::new();
        let run = drive(stack, &plan, images, seconds, poll, Some(&mut tracer))?;
        runs.push((run, Some(tracer)));
    }
    Ok((plan, runs))
}

pub fn run_resnet(args: &Args, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    let mini = stack::resnet();
    let cfg = stack::aged_cfg();
    let stack = stack::timed_setup(
        m,
        5,
        || stack::serve(&mini.graph, &cfg, RESNET_SHARDS, RESNET_WATCHDOG),
        |old| old.shutdown(),
    )?;
    let base = stack.server.model(0);
    let live_plan = stack
        .server
        .shard_plan(0)
        .ok_or("the server is not sharded")?;
    let requests = (RESNET_RATE * window_seconds(args)).round() as u64;
    let images: Vec<Tensor<u8>> = (0..requests.max(1))
        .map(|i| mini.sample_image(args.seed.wrapping_mul(1_000_003).wrapping_add(i)))
        .collect();
    let truth = truth(&mini.graph, &images)?;
    warm_up(&stack, &images[0], RESNET_WARMUP)?;
    let windows = windows(args, &stack, &images, RESNET_RATE, RESNET_POLL);
    stack.shutdown();
    let (plan, runs) = windows?;

    // Offline replay, after the timed windows: every response from its
    // wire (generation, age) via reprogram(generation).run_image_at_age.
    let exec = base
        .graph()
        .plan()
        .map_err(|e| format!("plan failed: {e}"))?;
    let mut reprogram_ms = Vec::new();
    let mut replays: Vec<(u64, CompiledModel)> = Vec::new();
    let mut meter = Tracer::enabled(args.trace);
    let mut layer_stats = vec![RunStats::default(); base.matrix_layer_count()];
    let mut shard_ns = (0u64, 0u64);
    let mut tile_imbalance = Vec::new();
    let mut arena = ValueArena::new();
    let mut results = Vec::with_capacity(runs.len());
    for (run, mut tracer) in runs {
        let mut shard_samples = 0usize;
        let checked = check_run(&run, tally, |i, ok| {
            if !replays.iter().any(|(g, _)| *g == ok.generation) {
                let t0 = meter.now();
                let model = base
                    .reprogram(ok.generation)
                    .map_err(|e| format!("reprogram failed: {e}"))?;
                let t1 = meter.now();
                meter.push(ok.generation, "reprogram", t0, t1);
                reprogram_ms.push((t1 - t0) as f64 / 1e6);
                replays.push((ok.generation, model));
            }
            let model = &replays
                .iter()
                .find(|(g, _)| *g == ok.generation)
                .expect("replay model built above")
                .1;
            let image = &images[plan.image[i]];
            let (out, stats) = model
                .run_image_at_age(image, ok.age)
                .map_err(|e| format!("replay failed: {e}"))?;
            let t0 = meter.now();
            let energy = model.energy_breakdown(&stats);
            let t1 = meter.now();
            meter.push(i as u64, "energy_breakdown", t0, t1);
            if out.as_slice() != ok.output.as_slice()
                || argmax(out.as_slice()) != ok.predicted as usize
                || stats.vectors != ok.vectors
                || stats.events.macs != ok.macs
                || energy != ok.energy
            {
                return Err(format!(
                    "replay at generation {} age {} differs from the served response",
                    ok.generation, ok.age
                ));
            }
            if let Some(tracer) = tracer.as_mut() {
                let (t_out, t_stats, image_trace) =
                    trace::run_traced(tracer, model, &exec, &mut arena, image, ok.age)?;
                if t_out != out || t_stats != stats {
                    return Err("traced walk differs from run_image_at_age".into());
                }
                for (acc, s) in layer_stats.iter_mut().zip(&image_trace.layer_stats) {
                    acc.merge(s);
                }
                tracer.push_image(i as u64, &image_trace);
                if shard_samples < SHARD_SAMPLES {
                    shard_samples += 1;
                    let sharded =
                        ShardPlan::place(model, live_plan.tiles(), *live_plan.tile_spec())
                            .map_err(|e| format!("shard placement failed: {e}"))?;
                    let t0 = tracer.now();
                    let (s_out, tiles) = sharded
                        .run_image_in_at_age(model, image, &mut arena, false, ok.age)
                        .map_err(|e| format!("sharded replay failed: {e}"))?;
                    let t1 = tracer.now();
                    tracer.push(i as u64, "shard_run", t0, t1);
                    let (u_out, _) = model
                        .run_image_in_at_age(image, &mut arena, false, ok.age)
                        .map_err(|e| format!("unsharded replay failed: {e}"))?;
                    let t2 = tracer.now();
                    if s_out != out || u_out != out {
                        return Err("sharded replay differs from the served response".into());
                    }
                    shard_ns.0 += t1 - t0;
                    shard_ns.1 += t2 - t1;
                    let macs: Vec<f64> = tiles.iter().map(|t| t.events.macs as f64).collect();
                    let mean = macs.iter().sum::<f64>() / macs.len() as f64;
                    tile_imbalance.push(macs.iter().copied().fold(0.0, f64::max) / mean);
                }
            }
            Ok(Checked {
                stats,
                energy,
                predicted: ok.predicted as usize,
            })
        });
        results.push((run, tracer, checked));
    }

    let traced = if args.trace { results.pop() } else { None };
    let (plain, _, plain_checked) = results.first().ok_or("no untraced window")?;
    end_to_end(m, plain, &plan, plain_checked, &truth, RESNET_LIMIT_MS);
    warn_if_invalid(plain, &plan);
    served_energy(m, plain_checked, &meter);
    m.set("compiler.reprogram_ms", median(reprogram_ms), "ms");
    if let Some((run, Some(mut tracer), checked)) = traced {
        stage_metrics(m, &run, &plan, &checked, &tracer);
        trace::engine_metrics(m, &tracer, &base, &layer_stats)?;
        m.set("shard.tile_imbalance", median(tile_imbalance), "ratio");
        m.set(
            "shard.overhead_frac",
            shard_ns.0 as f64 / shard_ns.1.max(1) as f64 - 1.0,
            "ratio",
        );
        overhead(m, plain, plain_checked, &run, &checked, &plan);
        tracer.spans.extend(meter.spans.iter().copied());
        crate::write_trace(&tracer, args)?;
    }
    m.set("peak_rss_mb", crate::peak_rss_mb()?, "MB");
    Ok(())
}

/// Served energy metrics: ADC share of the served energy, and the cost of
/// pricing one request's counters.
fn served_energy(m: &mut Metrics, checked: &[Option<Checked>], meter: &Tracer) {
    let mut total = EnergyBreakdown::default();
    for c in checked.iter().flatten() {
        total = total.add(&c.energy);
    }
    m.set("energy.adc_fraction", total.adc_fraction(), "ratio");
    let (ns, calls) = meter.total("energy_breakdown");
    m.set(
        "energy.meter_ns_per_request",
        ns as f64 / calls.max(1) as f64,
        "ns",
    );
}

/// `trace.overhead_frac`: the traced window's median latency against the
/// untraced window's, on the same schedule.
fn overhead(
    m: &mut Metrics,
    plain: &Run,
    plain_checked: &[Option<Checked>],
    traced: &Run,
    traced_checked: &[Option<Checked>],
    plan: &Schedule,
) {
    let p = percentile(&latencies_ms(plain, plan, plain_checked), 50.0);
    let t = percentile(&latencies_ms(traced, plan, traced_checked), 50.0);
    m.set("trace.overhead_frac", t / p - 1.0, "ratio");
}

pub fn run_tiny(args: &Args, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    let graph = stack::tiny_graph();
    let cfg = stack::tiny_cfg();
    let stack = stack::timed_setup(
        m,
        TINY_SETUPS,
        || stack::serve(&graph, &cfg, 0, 0),
        |old| old.shutdown(),
    )?;
    let model = stack.server.model(0);
    let mut rng = SynthRng::new(args.seed ^ 0x71_4E);
    let images: Vec<Tensor<u8>> = (0..TINY_IMAGES)
        .map(|_| stack::tiny_image(&mut rng))
        .collect();
    let truth = truth(&graph, &images)?;

    // Expected bytes from run_batch; expected counters from per-image
    // runs, which must merge to run_batch's counters exactly.
    let batch = model
        .run_batch(&images)
        .map_err(|e| format!("run_batch failed: {e}"))?;
    let mut expect = Vec::with_capacity(TINY_IMAGES);
    let mut merged = RunStats::default();
    for image in &images {
        let (out, stats) = model
            .run_image(image)
            .map_err(|e| format!("run_image failed: {e}"))?;
        merged.merge(&stats);
        expect.push((out, stats, model.energy_breakdown(&stats)));
    }
    let batch_matches = batch.stats() == &merged
        && batch
            .outputs()
            .iter()
            .zip(&expect)
            .all(|(b, (o, _, _))| b == o);
    if !batch_matches {
        return Err("run_batch differs from per-image runs".into());
    }

    warm_up(&stack, &images[0], TINY_WARMUP)?;
    let windows = windows(args, &stack, &images, TINY_RATE, TINY_POLL);
    stack.shutdown();
    let (plan, runs) = windows?;
    let mut results = Vec::with_capacity(runs.len());
    let mut meter = Tracer::enabled(args.trace);
    for (run, tracer) in runs {
        let checked = check_run(&run, tally, |i, ok| {
            let (out, stats, energy) = &expect[plan.image[i]];
            let t0 = meter.now();
            let priced = model.energy_breakdown(stats);
            let t1 = meter.now();
            if i < METER_SAMPLES {
                meter.push(i as u64, "energy_breakdown", t0, t1);
            }
            if ok.output.as_slice() != out.as_slice()
                || ok.predicted as usize != argmax(out.as_slice())
                || ok.vectors != stats.vectors
                || ok.macs != stats.events.macs
                || ok.energy != *energy
                || priced != *energy
            {
                return Err("served response differs from run_batch".into());
            }
            Ok(Checked {
                stats: *stats,
                energy: *energy,
                predicted: ok.predicted as usize,
            })
        });
        results.push((run, tracer, checked));
    }

    let traced = if args.trace { results.pop() } else { None };
    let (plain, _, plain_checked) = results.first().ok_or("no untraced window")?;
    end_to_end(m, plain, &plan, plain_checked, &truth, TINY_LIMIT_MS);
    warn_if_invalid(plain, &plan);
    served_energy(m, plain_checked, &meter);
    if let Some((run, Some(mut tracer), checked)) = traced {
        // The engine profile of the one-layer model: every image walked
        // through the timing engine, checked against run_image.
        let exec = model
            .graph()
            .plan()
            .map_err(|e| format!("plan failed: {e}"))?;
        let mut arena = ValueArena::new();
        let mut layer_stats = vec![RunStats::default(); model.matrix_layer_count()];
        for round in 0..50u64 {
            for (i, image) in images.iter().enumerate() {
                let (out, stats, image_trace) =
                    trace::run_traced(&tracer, &model, &exec, &mut arena, image, 0)?;
                if out != expect[i].0 || stats != expect[i].1 {
                    return Err("traced walk differs from run_image".into());
                }
                for (acc, s) in layer_stats.iter_mut().zip(&image_trace.layer_stats) {
                    acc.merge(s);
                }
                tracer.push_image(round * TINY_IMAGES as u64 + i as u64, &image_trace);
            }
        }
        stage_metrics(m, &run, &plan, &checked, &tracer);
        trace::engine_metrics(m, &tracer, &model, &layer_stats)?;
        overhead(m, plain, plain_checked, &run, &checked, &plan);
        tracer.spans.extend(meter.spans.iter().copied());
        crate::write_trace(&tracer, args)?;
    }
    m.set("peak_rss_mb", crate::peak_rss_mb()?, "MB");
    Ok(())
}
