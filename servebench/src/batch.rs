//! `batch_resnet18`: a closed loop of whole images through a compiled model
//! on one thread, on an ideal device, with no server in the way.
//!
//! One thread, not two image workers: both of the program's parallel paths
//! split work into static halves, so a two-worker call runs at the speed of
//! the more contended core. On a shared 2-core host that swung two-worker
//! throughput by up to a quarter between runs (see `README.md`).
//!
//! Speed is normalised to the host's speed of the moment: runs' wall-clock
//! medians differed by 40% on a shared host. Every image is timed on the
//! process's CPU clock (time spent descheduled or stolen by the hypervisor
//! is not the program's; every thread counts, so work moved onto other
//! threads still shows), right after a [`Calibration`] run that measures
//! the host's speed of the moment, and scaled by it (see
//! [`CALIBRATION_EXPONENT`]).

use std::time::Instant;

use raella_core::{CompiledModel, RunStats};
use raella_nn::graph::{argmax, ValueArena};
use raella_nn::tensor::Tensor;

use crate::calibrate::{process_cpu_ms, Calibration, REF_CALIBRATION_MS};
use crate::trace::{self, Tracer};
use crate::{median, percentile, sorted, stack, Args, Metrics, Tally};

/// Distinct images per run.
const IMAGES: usize = 192;
/// An image slower than this (wall clock) misses the goodput limit.
const LIMIT_MS: f64 = 50.0;
/// How far image times are scaled by the host's speed: 1 divides by the
/// calibration fully, 0 leaves raw CPU time. Within a run the calibration
/// tracks the image, but in the host's busiest regimes it slows far more
/// than the image does. Over ten-run sets, exponent 1 spread 0.02–0.07
/// within a set but moved 29% between a mixed and a busy regime. Exponent
/// 0 spread 0.12–0.14. Exponent 0.5 (the geometric mean of the raw and the
/// fully scaled rate) spread 0.07–0.08 and moved 11%.
const CALIBRATION_EXPONENT: f64 = 0.5;

/// Per-image timings of one timed window, in loop order.
struct Window {
    /// Wall-clock latency of each image.
    latencies_ms: Vec<f64>,
    /// Process CPU time of each image.
    cpu_ms: Vec<f64>,
    /// Process CPU time of the calibration run just before each image.
    calibration_ms: Vec<f64>,
    within_limit: u64,
}

impl Window {
    /// Each image's CPU time scaled towards the reference host speed by
    /// `(REF_CALIBRATION_MS / calibration) ^ CALIBRATION_EXPONENT`.
    fn normalised_ms(&self) -> Vec<f64> {
        self.cpu_ms
            .iter()
            .zip(&self.calibration_ms)
            .map(|(cpu, cal)| cpu * (REF_CALIBRATION_MS / cal).powf(CALIBRATION_EXPONENT))
            .collect()
    }

    /// Images per second of normalised time.
    fn images_per_s(&self) -> f64 {
        1e3 * self.cpu_ms.len() as f64 / self.normalised_ms().iter().sum::<f64>()
    }

    fn normalised_p50_ms(&self) -> f64 {
        median(self.normalised_ms())
    }
}

/// The seeded image set, its reference pass (outputs and counters), and
/// the share of images whose class matches the integer reference.
struct Reference {
    images: Vec<Tensor<u8>>,
    outputs: Vec<Tensor<u8>>,
    stats: Vec<RunStats>,
    agreement: f64,
}

/// The reference pass runs before the window through `run_image`, which
/// fans each layer's vectors across threads; the timed loop runs serially.
/// Equal outputs and counters therefore also check thread-count invariance.
fn reference(model: &CompiledModel, seed: u64) -> Result<Reference, String> {
    let mini = stack::resnet();
    let images: Vec<Tensor<u8>> = (0..IMAGES as u64)
        .map(|i| mini.sample_image(seed.wrapping_mul(1_000_003).wrapping_add(i)))
        .collect();
    let mut outputs = Vec::with_capacity(IMAGES);
    let mut stats = Vec::with_capacity(IMAGES);
    let mut agree = 0usize;
    for image in &images {
        let (out, s) = model
            .run_image(image)
            .map_err(|e| format!("reference run failed: {e}"))?;
        let truth = mini
            .graph
            .run_reference(image)
            .map_err(|e| format!("integer reference failed: {e}"))?;
        agree += usize::from(argmax(out.as_slice()) == argmax(truth.as_slice()));
        outputs.push(out);
        stats.push(s);
    }
    Ok(Reference {
        images,
        outputs,
        stats,
        agreement: agree as f64 / IMAGES as f64,
    })
}

/// Closed loop over the image set for `seconds`, each image preceded by a
/// calibration run. With a tracer, every image walks through the timing
/// engine instead of `CompiledModel::run_image_in`; either way each image's
/// output and counters must equal the reference pass.
fn window(
    model: &CompiledModel,
    r: &Reference,
    seconds: f64,
    mut traced: Option<(&mut Tracer, &mut [RunStats])>,
    tally: &mut Tally,
) -> Result<Window, String> {
    let plan = model
        .graph()
        .plan()
        .map_err(|e| format!("plan failed: {e}"))?;
    let mut arena = ValueArena::new();
    let mut calibration = Calibration::new();
    let mut w = Window {
        latencies_ms: Vec::new(),
        cpu_ms: Vec::new(),
        calibration_ms: Vec::new(),
        within_limit: 0,
    };
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let image = &r.images[i];
        w.calibration_ms.push(calibration.time_ms());
        let cpu_start = process_cpu_ms();
        let t = Instant::now();
        let result = match traced.as_mut() {
            None => model
                .run_image_in(image, &mut arena, false)
                .map_err(|e| format!("image {i} failed: {e}")),
            Some((tracer, layer_stats)) => trace::run_traced(
                tracer, model, &plan, &mut arena, image, 0,
            )
            .map(|(out, stats, image_trace)| {
                for (acc, s) in layer_stats.iter_mut().zip(&image_trace.layer_stats) {
                    acc.merge(s);
                }
                tracer.push_image(i as u64, &image_trace);
                (out, stats)
            }),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        w.cpu_ms.push(process_cpu_ms() - cpu_start);
        tally.attempted += 1;
        match result {
            Ok((out, stats)) if out == r.outputs[i] && stats == r.stats[i] => {
                w.within_limit += u64::from(ms <= LIMIT_MS);
            }
            Ok(_) => tally.fail(|| format!("image {i}: output or counters differ from run_image")),
            Err(e) => tally.fail(|| e),
        }
        w.latencies_ms.push(ms);
        i = (i + 1) % IMAGES;
    }
    eprintln!(
        "servebench: calibration median {:.3} ms CPU (reference {REF_CALIBRATION_MS} ms); \
         unnormalised {:.2} images per CPU second",
        median(w.calibration_ms.clone()),
        1e3 * w.cpu_ms.len() as f64 / w.cpu_ms.iter().sum::<f64>()
    );
    Ok(w)
}

pub fn run(args: &Args, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    let mini = stack::resnet();
    let cfg = stack::ideal_cfg();
    let model = stack::timed_setup(m, 5, || stack::compile(&mini.graph, &cfg), drop)?;
    let r = reference(&model, args.seed)?;

    let w = if args.trace {
        let plain = window(&model, &r, args.seconds / 2.0, None, tally)?;
        let mut tracer = Tracer::new();
        let mut layer_stats = vec![RunStats::default(); model.matrix_layer_count()];
        let traced = window(
            &model,
            &r,
            args.seconds / 2.0,
            Some((&mut tracer, &mut layer_stats)),
            tally,
        )?;
        trace::engine_metrics(m, &tracer, &model, &layer_stats)?;
        m.set(
            "trace.overhead_frac",
            plain.images_per_s() / traced.images_per_s() - 1.0,
            "ratio",
        );
        // The meter's cost: pricing one image's counters.
        for stats in &r.stats {
            let t0 = tracer.now();
            std::hint::black_box(model.energy_breakdown(stats));
            let t1 = tracer.now();
            tracer.push(0, "energy_breakdown", t0, t1);
        }
        let (meter_ns, priced) = tracer.total("energy_breakdown");
        m.set(
            "energy.meter_ns_per_request",
            meter_ns as f64 / priced as f64,
            "ns",
        );
        crate::write_trace(&tracer, args)?;
        plain
    } else {
        window(&model, &r, args.seconds, None, tally)?
    };

    let mut total = RunStats::default();
    r.stats.iter().for_each(|s| total.merge(s));
    let energy = model.energy_breakdown(&total);
    let lat = sorted(w.latencies_ms.clone());
    let rate = w.images_per_s();
    m.set("images_per_s", rate, "images/s");
    m.set("requests_per_s", rate, "req/s");
    m.set("latency_p50_ms", w.normalised_p50_ms(), "ms");
    m.set("latency_p90_ms", percentile(&lat, 90.0), "ms");
    m.set("latency_p99_ms", percentile(&lat, 99.0), "ms");
    m.set(
        "goodput_frac",
        w.within_limit as f64 / w.latencies_ms.len() as f64,
        "ratio",
    );
    m.set("top1_agreement", r.agreement, "ratio");
    m.set("sim_pj_per_image", energy.total_pj() / IMAGES as f64, "pJ");
    m.set(
        "sim_adc_converts_per_image",
        total.events.adc_converts as f64 / IMAGES as f64,
        "count",
    );
    m.set("energy.adc_fraction", energy.adc_fraction(), "ratio");
    m.set("peak_rss_mb", crate::peak_rss_mb()?, "MB");
    Ok(())
}
