//! Row-level interlayer dataflow simulation (paper Fig. 11, §5.5).
//!
//! RAELLA inherits ISAAC's pipelined dataflow: layers run concurrently on
//! parallel tiles; a tile produces one row of its layer's output tensor at
//! a time, consuming input rows from the previous tile in the same order.
//! This module simulates that schedule at row granularity:
//!
//! * a layer can produce output row `y` once its producer has finished the
//!   input rows the convolution window needs (`y·stride + k − 1 − pad`);
//! * producing one row takes `ceil(out_w / toeplitz) × cycles × cycle_ns ×
//!   planes / replicas`;
//! * a producer's row is freed once every consumer row needing it is done.
//!
//! From the schedule we read the pipeline fill latency, the end-to-end
//! single-inference latency, the steady-state interval (which must agree
//! with the analytic bottleneck in [`crate::eval`] — cross-checked in
//! tests), and the peak eDRAM row-buffer occupancy per layer, validating
//! the paper's 64 kB tile buffer sizing (§5.3).
//!
//! The simulation treats the layer list as a producer→consumer chain; for
//! branchy networks (Inception) this is the longest-path approximation.

use serde::{Deserialize, Serialize};

use raella_nn::models::shapes::{DnnShape, LayerKind, LayerSpec};

use crate::mapping::LayerMapping;
use crate::spec::AccelSpec;

/// Per-layer schedule results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSchedule {
    /// Layer name.
    pub name: String,
    /// Output rows produced per inference.
    pub rows: usize,
    /// Time to produce one output row (ns), after replication.
    pub row_time_ns: f64,
    /// Completion time of the layer's first output row (ns).
    pub first_row_done_ns: f64,
    /// Completion time of the layer's last output row (ns).
    pub last_row_done_ns: f64,
    /// Peak bytes of this layer's *output* buffered before consumption.
    pub peak_buffer_bytes: usize,
}

/// Whole-pipeline simulation results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Time until the last layer finishes its first output row (ns).
    pub fill_latency_ns: f64,
    /// End-to-end latency of one inference (ns).
    pub total_latency_ns: f64,
    /// Steady-state initiation interval between inferences (ns) — the
    /// slowest layer's total row time.
    pub steady_interval_ns: f64,
    /// Largest single-layer output buffer requirement (bytes).
    pub peak_buffer_bytes: usize,
    /// Per-layer schedules.
    pub layers: Vec<LayerSchedule>,
}

/// Simulates the row pipeline for a network on an architecture, given the
/// per-layer replication from [`crate::eval::evaluate_dnn`] (pass all-ones
/// for an unreplicated pipeline).
///
/// # Panics
///
/// Panics if `replicas.len() != net.layers.len()` or the network is empty.
pub fn simulate(spec: &AccelSpec, net: &DnnShape, replicas: &[usize]) -> PipelineReport {
    assert_eq!(
        replicas.len(),
        net.layers.len(),
        "one replica count per layer"
    );
    assert!(!net.layers.is_empty(), "empty network");

    let last = net.layers.len() - 1;
    let row_times: Vec<f64> = net
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| row_time_ns(spec, l, i == last, replicas[i].max(1)))
        .collect();

    // finish[l][y]: completion time of layer l's output row y.
    let mut finish: Vec<Vec<f64>> = Vec::with_capacity(net.layers.len());
    for (i, layer) in net.layers.iter().enumerate() {
        let rows = layer.out_h.max(1);
        let mut times = vec![0.0f64; rows];
        for y in 0..rows {
            let ready = if i == 0 {
                0.0
            } else {
                let prev_rows = net.layers[i - 1].out_h.max(1);
                let need = required_input_row(layer, y, prev_rows);
                finish[i - 1][need]
            };
            let prev_self = if y == 0 { 0.0 } else { times[y - 1] };
            times[y] = ready.max(prev_self) + row_times[i];
        }
        finish.push(times);
    }

    // Buffer occupancy of layer i's output (consumed by layer i+1).
    let mut schedules = Vec::with_capacity(net.layers.len());
    let mut peak_all = 0usize;
    for (i, layer) in net.layers.iter().enumerate() {
        let rows = layer.out_h.max(1);
        let row_bytes = layer.out_c * layer.out_w;
        let peak = if i + 1 < net.layers.len() {
            let consumer = &net.layers[i + 1];
            peak_occupancy(layer, consumer, &finish[i], &finish[i + 1]) * row_bytes
        } else {
            row_bytes // the last layer streams out
        };
        peak_all = peak_all.max(peak);
        schedules.push(LayerSchedule {
            name: layer.name.clone(),
            rows,
            row_time_ns: row_times[i],
            first_row_done_ns: finish[i][0],
            last_row_done_ns: finish[i][rows - 1],
            peak_buffer_bytes: peak,
        });
    }

    let steady = net
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| l.out_h.max(1) as f64 * row_times[i])
        .fold(0.0f64, f64::max);

    PipelineReport {
        fill_latency_ns: finish[last][0],
        total_latency_ns: finish[last][net.layers[last].out_h.max(1) - 1],
        steady_interval_ns: steady,
        peak_buffer_bytes: peak_all,
        layers: schedules,
    }
}

/// Time to produce one output row (all `out_w` positions) of a layer.
fn row_time_ns(spec: &AccelSpec, layer: &LayerSpec, is_last: bool, replicas: usize) -> f64 {
    let m = LayerMapping::map(spec, layer, is_last);
    let positions = layer.out_w.max(1).div_ceil(m.toeplitz_copies) as f64;
    let planes = spec.signed_passes(layer) as f64;
    positions * spec.cycles_per_psum_set as f64 * spec.cycle_ns * planes / replicas as f64
}

/// The producer row a consumer needs before computing its output row `y`
/// ("same" padding assumed). The shape tables omit pooling layers, so the
/// consumer's input height can differ from the producer's output height;
/// requirements are rescaled by the actual height ratio.
fn required_input_row(consumer: &LayerSpec, y: usize, producer_rows: usize) -> usize {
    match consumer.kind {
        LayerKind::Linear => producer_rows - 1, // needs the whole input
        _ => {
            let pad = consumer.k / 2;
            let need = (y * consumer.stride + consumer.k - 1).saturating_sub(pad);
            let in_rows = (consumer.out_h * consumer.stride).max(1);
            (need * producer_rows)
                .div_ceil(in_rows)
                .min(producer_rows - 1)
        }
    }
}

/// Peak number of producer rows simultaneously alive.
fn peak_occupancy(
    producer: &LayerSpec,
    consumer: &LayerSpec,
    produce: &[f64],
    consume: &[f64],
) -> usize {
    let prows = producer.out_h.max(1);
    let crows = consumer.out_h.max(1);
    // Free time of producer row r: when the last consumer row needing it
    // completes.
    let mut events: Vec<(f64, i64)> = Vec::with_capacity(prows * 2);
    // Window start of consumer row y, in producer-row coordinates.
    let window_start = |y: usize| -> usize {
        let pad = consumer.k / 2;
        let start = (y * consumer.stride).saturating_sub(pad);
        let in_rows = (consumer.out_h * consumer.stride).max(1);
        (start * prows) / in_rows
    };
    for (r, &produced_at) in produce.iter().enumerate().take(prows) {
        // Row r dies once the last consumer row whose window begins at or
        // before r has completed.
        let last_user = match consumer.kind {
            LayerKind::Linear => crows - 1,
            _ => (0..crows)
                .rev()
                .find(|&y| window_start(y) <= r)
                .unwrap_or(0),
        };
        events.push((produced_at, 1));
        events.push((consume[last_user], -1));
    }
    events.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite times")
            .then(b.1.cmp(&a.1))
    });
    let mut alive = 0i64;
    let mut peak = 0i64;
    for (_, delta) in events {
        alive += delta;
        peak = peak.max(alive);
    }
    peak.max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_dnn;
    use raella_nn::models::shapes;

    fn chain_net() -> DnnShape {
        // A clean conv chain (no branches): use ResNet18's spine.
        shapes::resnet18()
    }

    #[test]
    fn steady_interval_matches_analytic_bottleneck() {
        let spec = AccelSpec::raella();
        let net = chain_net();
        let eval = evaluate_dnn(&spec, &net);
        let report = simulate(&spec, &net, &eval.replicas);
        let ratio = report.steady_interval_ns / eval.interval_ns;
        assert!(
            (0.8..1.3).contains(&ratio),
            "pipeline {} vs analytic {} (ratio {ratio})",
            report.steady_interval_ns,
            eval.interval_ns
        );
    }

    #[test]
    fn fill_latency_precedes_total_latency() {
        let spec = AccelSpec::raella();
        let net = chain_net();
        let replicas = vec![1; net.layers.len()];
        let report = simulate(&spec, &net, &replicas);
        assert!(report.fill_latency_ns > 0.0);
        // Last layer is the 1-row fc, so fill == total there; the conv
        // before it must show a real ramp.
        assert!(report.total_latency_ns >= report.fill_latency_ns);
        let spine = &report.layers[report.layers.len() - 2];
        assert!(spine.last_row_done_ns > spine.first_row_done_ns);
        assert!(report.total_latency_ns >= report.steady_interval_ns);
    }

    #[test]
    fn row_buffers_fit_the_64kb_tile_edram() {
        // §5.3: 64 kB eDRAM per tile holds the inter-layer row windows.
        let spec = AccelSpec::raella();
        let net = chain_net();
        let eval = evaluate_dnn(&spec, &net);
        let report = simulate(&spec, &net, &eval.replicas);
        assert!(
            report.peak_buffer_bytes <= 64 * 1024,
            "peak buffer {} bytes exceeds 64 kB",
            report.peak_buffer_bytes
        );
    }

    #[test]
    fn replication_speeds_rows_proportionally() {
        let spec = AccelSpec::raella();
        let net = chain_net();
        let ones = vec![1; net.layers.len()];
        let mut fours = ones.clone();
        for r in fours.iter_mut() {
            *r = 4;
        }
        let base = simulate(&spec, &net, &ones);
        let fast = simulate(&spec, &net, &fours);
        let ratio = base.steady_interval_ns / fast.steady_interval_ns;
        assert!((3.5..4.5).contains(&ratio), "speedup {ratio}");
    }

    #[test]
    fn rows_complete_in_order_and_dependencies_hold() {
        let spec = AccelSpec::raella();
        let net = chain_net();
        let replicas = vec![1; net.layers.len()];
        let report = simulate(&spec, &net, &replicas);
        for l in &report.layers {
            assert!(l.first_row_done_ns <= l.last_row_done_ns, "{}", l.name);
            assert!(l.row_time_ns > 0.0);
        }
        // Downstream layers cannot finish their first row before upstream.
        for w in report.layers.windows(2) {
            assert!(
                w[1].first_row_done_ns > w[0].first_row_done_ns,
                "{} before {}",
                w[1].name,
                w[0].name
            );
        }
    }

    #[test]
    fn bert_pipeline_runs_with_linear_layers() {
        let spec = AccelSpec::raella();
        let net = shapes::bert_large_ff();
        let replicas = vec![1; net.layers.len()];
        let report = simulate(&spec, &net, &replicas);
        // Linear layers serialize (each needs its whole input).
        assert!(report.total_latency_ns > 0.0);
        assert_eq!(report.layers[0].rows, 1);
    }

    #[test]
    #[should_panic(expected = "one replica count per layer")]
    fn replica_length_is_validated() {
        let spec = AccelSpec::raella();
        let net = chain_net();
        simulate(&spec, &net, &[1, 2]);
    }
}
