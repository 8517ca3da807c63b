//! Spans recorded from the benchmark's own calls into the program, and the
//! per-layer engine profile built on them.
//!
//! Nothing here reaches inside the program: [`TimingEngine`] is an ordinary
//! [`MatVecEngine`] that serves each matrix-layer call of a graph walk with
//! the public `engine::run_batch_at_age` kernel and times it. Spans are kept
//! in memory and written once, when the run ends.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use raella_core::engine::run_batch_at_age;
use raella_core::{CompiledLayer, CompiledModel, RunStats};
use raella_nn::graph::ValueArena;
use raella_nn::layers::MatVecEngine;
use raella_nn::matrix::{Act, MatrixLayer};
use raella_nn::tensor::Tensor;

use crate::Metrics;

/// No parent / no layer.
const NONE: u32 = u32::MAX;

/// One timed interval. Spans of one request or image share `id`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub kind: &'static str,
    /// Matrix-layer index for `layer` spans.
    pub layer: u32,
    /// Index of the enclosing span in the same [`Tracer`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store; timestamps are nanoseconds since `epoch`. A
/// disabled tracer still tells time but keeps no spans.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::enabled(true)
    }

    pub fn enabled(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Records a root span and returns its index.
    pub fn push(&mut self, id: u64, kind: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        if !self.enabled {
            return NONE;
        }
        self.spans.push(Span {
            id,
            kind,
            layer: NONE,
            parent: NONE,
            start_ns,
            end_ns,
        });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Records one traced image: an `image` span with one `layer` child per
    /// matrix-layer call.
    pub fn push_image(&mut self, id: u64, image: &ImageTrace) {
        let parent = self.push(id, "image", image.start_ns, image.end_ns);
        if parent == NONE {
            return;
        }
        for &(layer, start_ns, end_ns) in &image.calls {
            self.spans.push(Span {
                id,
                kind: "layer",
                layer,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Total duration and count of every span of `kind`.
    pub fn total(&self, kind: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
    }

    /// Self time of every span: its duration minus the time its children
    /// cover (children of one span never overlap here).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for span in &self.spans {
            if span.parent != NONE {
                own[span.parent as usize] -= span.ns();
            }
        }
        own
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let layer = if s.layer == NONE {
                "null".to_string()
            } else {
                s.layer.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"id\":{},\"kind\":\"{}\",\"layer\":{layer},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.kind, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One image walked through a [`TimingEngine`]: its span, one
/// `(layer, start, end)` per matrix-layer call, and per-layer counters.
pub struct ImageTrace {
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: Vec<(u32, u64, u64)>,
    pub layer_stats: Vec<RunStats>,
}

/// Serves a graph walk's matrix-layer calls from a compiled model's layers
/// through the public serial kernel, exactly as the model's own planned
/// engine does with vector-level parallelism off, timing every call.
struct TimingEngine<'a> {
    tracer: &'a Tracer,
    layers: &'a [Arc<CompiledLayer>],
    noise_seed: u64,
    base_age: u64,
    next_vector: u64,
    calls: Vec<(u32, u64, u64)>,
    layer_stats: Vec<RunStats>,
}

impl MatVecEngine for TimingEngine<'_> {
    fn layer_outputs(&mut self, layer: &MatrixLayer, inputs: &[Act]) -> Vec<u8> {
        let node = self.calls.len();
        let compiled = &self.layers[node];
        let start = self.tracer.now();
        let out = run_batch_at_age(
            compiled,
            inputs,
            &mut self.layer_stats[node],
            self.noise_seed,
            self.next_vector,
            self.base_age,
        );
        let end = self.tracer.now();
        self.calls
            .push((u32::try_from(node).expect("few layers"), start, end));
        self.next_vector += (inputs.len() / layer.filter_len()) as u64;
        out
    }
}

/// The noise-stream seed a compiled model derives from its configuration.
/// The program keeps the derivation private; every traced image is
/// compared bit for bit with the model's own run, so a wrong seed fails the
/// run instead of timing a different computation.
pub fn noise_seed(model: &CompiledModel) -> u64 {
    model.config().seed ^ 0xE61E
}

/// A traced walk: the output, the whole-image counters and the trace.
pub type Traced = (Tensor<u8>, RunStats, ImageTrace);

/// Walks `image` through `model` at device `age` with every matrix-layer
/// call timed.
pub fn run_traced(
    tracer: &Tracer,
    model: &CompiledModel,
    plan: &raella_nn::graph::ExecPlan,
    arena: &mut ValueArena,
    image: &Tensor<u8>,
    age: u64,
) -> Result<Traced, String> {
    let layers = model.compiled_layers();
    let mut engine = TimingEngine {
        tracer,
        layers,
        noise_seed: noise_seed(model),
        base_age: age,
        next_vector: 0,
        calls: Vec::with_capacity(layers.len()),
        layer_stats: vec![RunStats::default(); layers.len()],
    };
    let start_ns = tracer.now();
    let out = model
        .graph()
        .run_planned(plan, image, &mut engine, arena)
        .map_err(|e| format!("traced image failed: {e}"))?;
    let end_ns = tracer.now();
    let mut stats = RunStats::default();
    for s in &engine.layer_stats {
        stats.merge(s);
    }
    let trace = ImageTrace {
        start_ns,
        end_ns,
        calls: engine.calls,
        layer_stats: engine.layer_stats,
    };
    Ok((out, stats, trace))
}

/// Per-layer metric name stem: `l<index>_<compiled layer name>`.
pub fn layer_key(index: usize, name: &str) -> String {
    format!("l{index}_{name}")
}

/// Every per-layer metric of one model's layers, zeroed. A run fills in the
/// layers its workload executes; a zero means the layer is not on that
/// workload's path.
pub fn declare_layers(m: &mut Metrics, names: &[String]) {
    for (i, name) in names.iter().enumerate() {
        let key = layer_key(i, name);
        m.set(format!("engine.{key}.ns_per_vector"), 0.0, "ns");
        m.set(format!("engine.{key}.mmac_per_s"), 0.0, "Mmac/s");
        m.set(format!("engine.{key}.busy_share"), 0.0, "ratio");
        m.set(format!("energy.{key}.pj_per_vector"), 0.0, "pJ");
    }
}

/// Engine and graph metrics from every `image`/`layer` span in `tracer`.
/// `layer_stats` holds the traced images' counters merged per layer.
///
/// # Errors
///
/// Fails when the layer busy shares and the digital remainder do not
/// account for the traced image time.
pub fn engine_metrics(
    m: &mut Metrics,
    tracer: &Tracer,
    model: &CompiledModel,
    layer_stats: &[RunStats],
) -> Result<(), String> {
    let (image_ns, images) = tracer.total("image");
    if images == 0 || image_ns == 0 {
        return Err("no traced images".into());
    }
    let mut layer_ns = vec![0u64; layer_stats.len()];
    for s in tracer.spans.iter().filter(|s| s.kind == "layer") {
        layer_ns[s.layer as usize] += s.ns();
    }
    let own = tracer.self_ns();
    let digital_ns: u64 = tracer
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.kind == "image")
        .map(|(_, ns)| ns)
        .sum();
    let meter = model.energy_meter();
    let mut total = RunStats::default();
    let mut share_sum = 0.0;
    for (i, (compiled, stats)) in model.compiled_layers().iter().zip(layer_stats).enumerate() {
        let key = layer_key(i, compiled.name());
        let ns = layer_ns[i] as f64;
        let vectors = stats.vectors.max(1) as f64;
        let share = ns / image_ns as f64;
        share_sum += share;
        m.set(format!("engine.{key}.ns_per_vector"), ns / vectors, "ns");
        m.set(
            format!("engine.{key}.mmac_per_s"),
            stats.events.macs as f64 / ns.max(1.0) * 1e3,
            "Mmac/s",
        );
        m.set(format!("engine.{key}.busy_share"), share, "ratio");
        m.set(
            format!("energy.{key}.pj_per_vector"),
            meter.breakdown(&stats.meter_events()).total_pj() / vectors,
            "pJ",
        );
        total.merge(stats);
    }
    let digital_share = digital_ns as f64 / image_ns as f64;
    if (share_sum + digital_share - 1.0).abs() > 1e-9 {
        return Err(format!(
            "layer shares {share_sum} + digital {digital_share} do not account for the image time"
        ));
    }
    let vectors = total.vectors.max(1) as f64;
    m.set("engine.matrix_share", share_sum, "ratio");
    m.set(
        "graph.digital_ns_per_image",
        digital_ns as f64 / images as f64,
        "ns",
    );
    m.set(
        "engine.adc_converts_per_vector",
        total.events.adc_converts as f64 / vectors,
        "count",
    );
    m.set(
        "engine.spec_failure_rate",
        total.spec_failure_rate(),
        "ratio",
    );
    m.set(
        "engine.recovery_converts_per_vector",
        total.recovery_converts as f64 / vectors,
        "count",
    );
    m.set(
        "engine.converts_per_column",
        total.converts_per_column(),
        "count",
    );
    Ok(())
}
