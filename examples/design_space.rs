//! Design-space exploration: sweep ADC resolution and the error budget and
//! watch the fidelity/efficiency tradeoff the Titanium Law (paper Table 2)
//! describes.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use raella::prelude::*;
use raella::xbar::adc::AdcSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layer = SynthLayer::conv(57, 16, 3, 0xDE51).build(); // 513-row filters
    let prices = ComponentPrices::cmos_32nm();

    println!("--- ADC resolution sweep (error budget 0.09) ---");
    println!(
        "{:>5}  {:>12}  {:>12}  {:>14}  {:>12}",
        "ADC", "slicing", "mean |err|", "converts/col", "pJ/column-set"
    );
    for bits in [5u8, 6, 7, 8, 9] {
        let cfg = RaellaConfig {
            adc: AdcSpec::new(bits, true),
            search_vectors: 3,
            ..RaellaConfig::default()
        };
        let compiled = CompiledLayer::compile(&layer, &cfg)?;
        let report = compiled.check_fidelity_at_age(&layer, 5, 0)?;
        let converts_per_column = report.stats.converts_per_column();
        println!(
            "{:>4}b  {:>12}  {:>12.4}  {:>14.2}  {:>12.2}",
            bits,
            compiled.weight_slicing().to_string(),
            report.mean_abs_error,
            converts_per_column,
            converts_per_column * prices.adc_convert_pj(bits),
        );
    }
    println!(
        "\nBelow 7b the range is too small — saturation forces narrow slices\n\
         and recovery; above 7b each convert costs exponentially more for\n\
         fidelity the reshaped column sums no longer need. 7b is the knee,\n\
         which is exactly where the paper puts RAELLA's ADC."
    );

    println!("\n--- error budget sweep (7b ADC) ---");
    println!(
        "{:>8}  {:>12}  {:>8}  {:>12}",
        "budget", "slicing", "columns", "mean |err|"
    );
    for budget in [0.0, 0.03, 0.09, 0.5, 2.0] {
        let cfg = RaellaConfig {
            error_budget: budget,
            search_vectors: 3,
            ..RaellaConfig::default()
        };
        let compiled = CompiledLayer::compile(&layer, &cfg)?;
        let report = compiled.check_fidelity_at_age(&layer, 5, 0)?;
        println!(
            "{:>8.2}  {:>12}  {:>8}  {:>12.4}",
            budget,
            compiled.weight_slicing().to_string(),
            compiled.total_columns(),
            report.mean_abs_error,
        );
    }
    println!(
        "\nLooser budgets buy denser storage (fewer columns/ADC converts);\n\
         the paper's 0.09 keeps errors near one LSB per eleven outputs."
    );
    Ok(())
}
