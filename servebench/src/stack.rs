//! The models, device configurations and serving stacks the workloads run,
//! and the timed set-up shared by all of them.

use std::sync::Arc;
use std::time::Instant;

use raella_core::{
    CompiledModel, DeviceLifetime, Gateway, RaellaConfig, RaellaServer, SharedCompileCache,
};
use raella_nn::graph::Graph;
use raella_nn::models::mini::{mini_resnet18, MiniModel};
use raella_nn::synth::SynthLayer;
use raella_nn::tensor::Tensor;

use crate::{median, Metrics};

/// The served model: mini ResNet18 at a fixed seed.
pub fn resnet() -> MiniModel {
    mini_resnet18(0xBE)
}

/// The paper's configuration on an ideal (noiseless, ageless) device.
pub fn ideal_cfg() -> RaellaConfig {
    RaellaConfig::default()
}

/// An aging device: static read noise, programming error at every write,
/// and read noise that grows with served vectors (962 per mini ResNet18
/// image). The watchdog's worst-layer error crosses the 0.09 budget after
/// roughly 77k served vectors, so it trips every ~80 requests: three times
/// in a 20 s run at the offered rate.
pub fn aged_cfg() -> RaellaConfig {
    RaellaConfig::default()
        .with_noise(0.01)
        .with_lifetime(DeviceLifetime::new(0.02, 0.0012, 10_000))
}

/// The tiny `gap → linear(2→3)` model of the gateway example: one vector
/// through one layer per request.
pub fn tiny_graph() -> Graph {
    let mut g = Graph::new();
    let input = g.input();
    let gap = g.global_avg_pool(input);
    let fc = g.linear(gap, SynthLayer::linear(2, 3, 7).build());
    g.set_output(fc);
    g
}

pub fn tiny_cfg() -> RaellaConfig {
    RaellaConfig {
        crossbar_rows: 64,
        crossbar_cols: 64,
        search_vectors: 2,
        ..RaellaConfig::default()
    }
}

pub fn tiny_image(rng: &mut raella_nn::rng::SynthRng) -> Tensor<u8> {
    let data = (0..2).map(|_| rng.uniform_int(0, 256) as u8).collect();
    Tensor::from_vec(data, &[2, 1, 1]).expect("2×1×1 image")
}

/// Matrix-layer names of a graph, in execution order.
pub fn layer_names(graph: &Graph) -> Vec<String> {
    graph
        .matrix_layers()
        .iter()
        .map(|l| l.name().to_string())
        .collect()
}

/// One built system plus what its set-up cost.
pub struct Built<T> {
    pub value: T,
    pub compile_s: f64,
    pub cache_misses: u64,
}

/// Compiles `graph` through a fresh compile cache (the full Algorithm 1
/// slicing search for every layer).
pub fn compile(graph: &Graph, cfg: &RaellaConfig) -> Result<Built<CompiledModel>, String> {
    let cache = SharedCompileCache::new();
    let start = Instant::now();
    let model = CompiledModel::compile_with_cache(graph, cfg, &cache)
        .map_err(|e| format!("compile failed: {e}"))?;
    Ok(Built {
        value: model,
        compile_s: start.elapsed().as_secs_f64(),
        cache_misses: cache.misses(),
    })
}

/// A gateway with one IO thread in front of a one-worker server.
pub struct Stack {
    pub server: Arc<RaellaServer>,
    pub gateway: Gateway,
}

impl Stack {
    pub fn shutdown(&self) {
        self.gateway.shutdown();
        self.server.shutdown();
    }
}

/// Compiles through a fresh cache, builds the server on that cache (so the
/// server's own compile is all hits), and binds the gateway on loopback.
/// `shards` 0 serves unsharded; `watchdog` 0 disables the watchdog.
pub fn serve(
    graph: &Graph,
    cfg: &RaellaConfig,
    shards: usize,
    watchdog: u64,
) -> Result<Built<Stack>, String> {
    let cache = SharedCompileCache::new();
    let start = Instant::now();
    CompiledModel::compile_with_cache(graph, cfg, &cache)
        .map_err(|e| format!("compile failed: {e}"))?;
    let compile_s = start.elapsed().as_secs_f64();
    let cache_misses = cache.misses();
    let server = RaellaServer::builder()
        .model(graph, cfg)
        .compile_cache(cache)
        .workers(1)
        .max_batch(8)
        .latency_budget_ticks(0)
        .shards(shards)
        .watchdog_interval(watchdog)
        .build()
        .map_err(|e| format!("server build failed: {e}"))?;
    let server = Arc::new(server);
    let gateway = Gateway::builder(Arc::clone(&server))
        .io_threads(1)
        .bind("127.0.0.1:0")
        .map_err(|e| format!("gateway bind failed: {e}"))?;
    Ok(Built {
        value: Stack { server, gateway },
        compile_s,
        cache_misses,
    })
}

/// Runs `build` `repeats` times, discarding all but the last system, and
/// records `setup_s` (median wall time of one set-up) plus the compiler
/// metrics.
pub fn timed_setup<T>(
    m: &mut Metrics,
    repeats: usize,
    mut build: impl FnMut() -> Result<Built<T>, String>,
    mut discard: impl FnMut(T),
) -> Result<T, String> {
    let mut setup = Vec::with_capacity(repeats);
    let mut compile = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        if let Some(old) = last.take() {
            discard(old);
        }
        let start = Instant::now();
        let built = build()?;
        setup.push(start.elapsed().as_secs_f64());
        compile.push(built.compile_s);
        m.set("compiler.cache_misses", built.cache_misses as f64, "count");
        last = Some(built.value);
    }
    m.set("setup_s", median(setup), "s");
    m.set("compiler.compile_s", median(compile), "s");
    Ok(last.expect("at least one set-up"))
}
