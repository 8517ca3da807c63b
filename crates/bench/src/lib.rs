//! Experiment harness utilities for the RAELLA reproduction.
//!
//! Every table and figure in the paper's evaluation has a bench target in
//! `benches/` (run with `cargo bench`, or a single one with
//! `cargo bench --bench fig12_efficiency_throughput`). The experiment
//! benches are `harness = false` binaries that recompute the paper's
//! rows/series from this repository's models and print them beside what
//! the paper reports. `gate` is the simulator's own perf gate: it times the
//! engine, model, server and shard paths and asserts each bound.

/// Prints a report header with the paper reference.
pub fn header(experiment: &str, paper_says: &str) {
    println!();
    println!("================================================================");
    println!("{experiment}");
    println!("paper: {paper_says}");
    println!("================================================================");
}

/// Prints an aligned table: a header row and data rows.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// An ASCII histogram bar scaled to `max_width` characters.
pub fn bar(fraction: f64, max_width: usize) -> String {
    let n = (fraction.clamp(0.0, 1.0) * max_width as f64).round() as usize;
    "#".repeat(n)
}

/// Formats a ratio like `x3.94`.
pub fn ratio(r: f64) -> String {
    format!("x{r:.2}")
}

/// Formats a percentage like `98.0%`.
pub fn pct(p: f64) -> String {
    format!("{:.1}%", 100.0 * p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(0.5, 10), "#####");
        assert_eq!(bar(2.0, 4), "####");
        assert_eq!(bar(-1.0, 4), "");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(3.9441), "x3.94");
        assert_eq!(pct(0.9802), "98.0%");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn table_rejects_ragged_rows() {
        table(&["a", "b"], &[vec!["x".into()]]);
    }
}
