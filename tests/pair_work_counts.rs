//! Exact work counts of the setup: how many template pairs Algorithm 1
//! walks, how many of them are distinct under translation, mirroring and
//! axis permutation, and how many integrals one extraction actually
//! evaluates — for the instantiable basis and for the dense
//! piecewise-constant reference, which runs the same pair plan on one
//! flat template per panel, and for the FMM and pFFT near fields, which
//! look their pairs up in the same distinct-key table (with keys
//! canonical under translation and mirroring only).
//!
//! Counts repeat exactly, so a change that silently evaluates more pairs
//! fails here without any timing. This file holds a single test: the
//! registry counter is process-global, and no other test in this binary
//! may move it while the deltas are read.

use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::{
    pair_integrals_metric, BasisFunction, BasisSet, PairPlan, Template, TemplateIndex,
};
use bemcap_core::extraction::Parallelism;
use bemcap_core::metrics::Registry;
use bemcap_core::{Extractor, Method};
use bemcap_fmm::{FmmConfig, FmmOperator};
use bemcap_geom::structures::{self, BusParams};
use bemcap_geom::{Geometry, Mesh};
use bemcap_pfft::{PfftConfig, PfftOperator};

/// The counter as the `metrics` op exposes it: by name, from the global
/// registry.
fn pair_integrals_total() -> u64 {
    Registry::global()
        .snapshot()
        .into_iter()
        .find(|s| s.name == "bemcap_pair_integrals_total")
        .map_or(0, |s| s.value)
}

/// The template index `method` assembles `geo` from: the instantiated
/// basis, or one flat template per panel of the 8-division mesh.
fn index_of(method: Method, geo: &Geometry) -> TemplateIndex {
    let set = match method {
        Method::InstantiableBasis => instantiate(geo, &InstantiateConfig::default()).unwrap(),
        _ => BasisSet::new(
            Mesh::uniform(geo, 8)
                .panels()
                .iter()
                .map(|mp| BasisFunction::new(mp.conductor, vec![Template::flat(mp.panel)]))
                .collect(),
        ),
    };
    TemplateIndex::new(&set)
}

#[test]
fn bus_pair_counts_and_one_evaluation_per_distinct_key() {
    // Register the counter up front, so every read below sees the live cell.
    pair_integrals_metric();
    // (method, side, templates M, distinct canonical keys) for the
    // default bus side × side.
    for (method, side, m, distinct) in [
        (Method::InstantiableBasis, 4, 144, 850),
        (Method::InstantiableBasis, 8, 480, 3_520),
        (Method::PwcDense, 4, 272, 4_776),
        (Method::PwcDense, 8, 544, 18_336),
    ] {
        let what = format!("{method:?} bus {side}x{side}");
        let geo = structures::bus_crossing(side, side, BusParams::default());
        let index = index_of(method, &geo);
        assert_eq!(index.template_count(), m, "{what}");
        let plan = PairPlan::new(&index);
        assert_eq!(plan.pairs(), m * (m + 1) / 2, "{what}: pairs walked");
        assert_eq!(plan.distinct(), distinct, "{what}: distinct keys");

        // Every setup mode evaluates each distinct key exactly once.
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
            let before = pair_integrals_total();
            let extractor = Extractor::new().method(method).mesh_divisions(8);
            extractor.parallelism(parallelism).extract(&geo).expect("extraction");
            let evaluated = pair_integrals_total() - before;
            assert_eq!(evaluated, distinct as u64, "{what}, {parallelism:?}: integrals evaluated");
        }
    }
    // The near fields of the two Krylov methods: one evaluation per
    // distinct near key, far fewer than the near entries they fill.
    let geo = structures::bus_crossing(4, 4, BusParams::default());
    let mesh = Mesh::uniform(&geo, 8);
    let fmm = FmmOperator::new(&mesh, geo.eps_rel(), FmmConfig::default()).expect("FMM");
    let pfft = PfftOperator::new(&mesh, geo.eps_rel(), PfftConfig::default()).expect("pFFT");
    // (method, near density, near entries, distinct near keys) for the
    // default bus 4×4.
    for (method, density, pinned_entries, distinct) in [
        (Method::PwcFmm, fmm.near_density(), 44_368, 5_472),
        (Method::PwcPfft, pfft.near_density(), 14_914, 2_046),
    ] {
        let entries = (density * mesh.panel_count() as f64).round() as u64;
        assert_eq!(entries, pinned_entries, "{method:?}: near entries");
        let before = pair_integrals_total();
        Extractor::new().method(method).mesh_divisions(8).extract(&geo).expect("extraction");
        let evaluated = pair_integrals_total() - before;
        assert_eq!(evaluated, distinct, "{method:?}: near integrals evaluated");
        assert!(distinct < entries, "{method:?}: {distinct} keys for {entries} near entries");
    }
}
