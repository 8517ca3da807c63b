//! Compile-once contract: [`CompiledLayer::compile`] encodes the slicing it
//! searched from the search's own centers and programming-error draws, and
//! the result must be exactly what a from-scratch
//! [`CompiledLayer::with_slicing`] of that slicing builds, with the
//! search's error recorded. Checked for every mini_resnet18 matrix layer on
//! an ideal device, on the served aged device, under a programming sigma
//! that moves levels, and under Table 4's Zero+Offset (whose search assumes
//! Center+Offset).

use raella_core::adaptive::find_best_slicing;
use raella_core::{CompiledLayer, DeviceLifetime, RaellaConfig};
use raella_nn::models::mini::mini_resnet18;

fn configs() -> [(&'static str, RaellaConfig); 4] {
    [
        ("default", RaellaConfig::default()),
        (
            "aged",
            RaellaConfig::default()
                .with_noise(0.01)
                .with_lifetime(DeviceLifetime::new(0.02, 0.0012, 10_000)),
        ),
        (
            "sigma 0.6",
            RaellaConfig::default().with_lifetime(DeviceLifetime::new(0.6, 0.0, 0)),
        ),
        ("zero_offset", RaellaConfig::default().zero_offset()),
    ]
}

#[test]
fn compile_equals_with_slicing_on_the_searched_slicing() {
    let model = mini_resnet18(0xBE);
    for (name, cfg) in configs() {
        let search_cfg = RaellaConfig {
            encoding: cfg.search_encoding.unwrap_or(cfg.encoding),
            ..cfg.clone()
        };
        for layer in model.graph.matrix_layers() {
            let at = format!("{name}, {}", layer.name());
            let found = find_best_slicing(layer, &search_cfg).expect("search runs");
            let compiled = CompiledLayer::compile(layer, &cfg).expect("compiles");
            let fresh = CompiledLayer::with_slicing(layer, found.slicing.clone(), &cfg)
                .expect("searched slicing is valid");
            assert_eq!(compiled.search_error(), Some(found.error), "{at}");
            assert_eq!(fresh.search_error(), None, "{at}");
            assert_eq!(compiled.name(), fresh.name(), "{at}");
            assert_eq!(compiled.filters(), fresh.filters(), "{at}");
            assert_eq!(compiled.filter_len(), fresh.filter_len(), "{at}");
            assert_eq!(compiled.weight_slicing(), fresh.weight_slicing(), "{at}");
            assert_eq!(compiled.groups(), fresh.groups(), "{at}");
            assert_eq!(compiled.quant(), fresh.quant(), "{at}");
            assert_eq!(compiled.signed_inputs(), fresh.signed_inputs(), "{at}");
            assert_eq!(compiled.config(), fresh.config(), "{at}");
            // The kernel's packed panels are private; a reprogram at the
            // same generation packs them afresh from equal groups, so this
            // pins them to the packing `with_slicing` builds.
            let generation = cfg.lifetime.generation;
            let repacked = compiled.reprogram(layer, generation).expect("reprograms");
            assert_eq!(repacked, compiled, "{at}");
        }
    }
}
