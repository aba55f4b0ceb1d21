//! Exact work counts of the instantiable setup: how many template pairs
//! Algorithm 1 walks, how many of them are distinct under translation,
//! and how many integrals one extraction actually evaluates.
//!
//! Counts repeat exactly, so a change that silently evaluates more pairs
//! fails here without any timing. This file holds a single test: the
//! registry counter is process-global, and no other test in this binary
//! may move it while the deltas are read.

use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::{pair_integrals_metric, PairPlan, TemplateIndex};
use bemcap_core::extraction::Parallelism;
use bemcap_core::metrics::Registry;
use bemcap_core::Extractor;
use bemcap_geom::structures::{self, BusParams};

/// The counter as the `metrics` op exposes it: by name, from the global
/// registry.
fn pair_integrals_total() -> u64 {
    Registry::global()
        .snapshot()
        .into_iter()
        .find(|s| s.name == "bemcap_pair_integrals_total")
        .map_or(0, |s| s.value)
}

#[test]
fn bus_pair_counts_and_one_evaluation_per_distinct_key() {
    // Register the counter up front, so every read below sees the live cell.
    pair_integrals_metric();
    // (side, templates M, distinct keys) for the default bus side × side.
    for (side, m, distinct) in [(4, 144, 6_096), (8, 480, 29_868)] {
        let geo = structures::bus_crossing(side, side, BusParams::default());
        let index = TemplateIndex::new(&instantiate(&geo, &InstantiateConfig::default()).unwrap());
        assert_eq!(index.template_count(), m, "bus {side}x{side}");
        let plan = PairPlan::new(&index);
        assert_eq!(plan.pairs(), m * (m + 1) / 2, "bus {side}x{side}: pairs walked");
        assert_eq!(plan.distinct(), distinct, "bus {side}x{side}: distinct keys");

        // Every setup mode evaluates each distinct key exactly once.
        for parallelism in
            [Parallelism::Sequential, Parallelism::Threads(2), Parallelism::MessagePassing(3)]
        {
            let before = pair_integrals_total();
            Extractor::new().parallelism(parallelism).extract(&geo).expect("extraction");
            let evaluated = pair_integrals_total() - before;
            assert_eq!(
                evaluated, distinct as u64,
                "bus {side}x{side}, {parallelism:?}: integrals evaluated"
            );
        }
    }
}
