//! Property-based tests of the full-chip windowing invariants
//! (partition → per-window extraction → stitch → incremental ECO):
//!
//! * with a halo covering the whole chip, the stitched matrix is
//!   **bit-identical** to the monolithic extraction for any window grid;
//! * pool size and window count never change a bit of the stitched
//!   matrix;
//! * a moderate halo keeps the stitched matrix close to the monolithic
//!   answer (the windowing approximation error is bounded);
//! * re-extraction after an empty diff reuses every window and returns
//!   bit-identical results without running a single job;
//! * an ECO touching one net re-extracts exactly the windows whose halo
//!   sees the change, and the incremental result is bit-identical to a
//!   from-scratch extraction of the revision;
//! * a run's window-cache counters are exactly what it did to the cache,
//!   evictions included.

use std::sync::Arc;

use bemcap_core::chip::{ChipCapacitance, ChipExtractor, WindowCache};
use bemcap_core::{CacheStats, Extractor};
use bemcap_geom::structures::{self, BusParams};
use bemcap_geom::{Conductor, Geometry, GeometryDiff, Point3};
use proptest::prelude::*;

fn bus(m: usize, n: usize) -> Geometry {
    structures::bus_crossing(m, n, BusParams::default())
}

/// A halo no window's neighborhood can outgrow: the chip's bounding-box
/// diameter. Every window then sees every conductor.
fn chip_diameter(geo: &Geometry) -> f64 {
    let (lo, hi) = geo.bounds();
    (hi.x - lo.x).abs() + (hi.y - lo.y).abs()
}

/// Rebuilds `geo` with the named conductor translated by `d`.
fn nudge(geo: &Geometry, name: &str, d: Point3) -> Geometry {
    let conductors = geo
        .conductors()
        .iter()
        .map(|c| {
            if c.name() != name {
                return c.clone();
            }
            let mut nc = Conductor::new(c.name());
            for b in c.boxes() {
                nc.push_box(b.translated(d));
            }
            nc
        })
        .collect();
    Geometry::new(conductors).with_eps_rel(geo.eps_rel())
}

fn assert_chip_bits_equal(a: &ChipCapacitance, b: &ChipCapacitance, context: &str) {
    assert_eq!(a.dim(), b.dim(), "{context}: dimension");
    assert_eq!(a.names(), b.names(), "{context}: names");
    assert_eq!(a.matrix().nnz(), b.matrix().nnz(), "{context}: sparsity pattern");
    for ((ia, ja, va), (ib, jb, vb)) in a.matrix().iter().zip(b.matrix().iter()) {
        assert_eq!((ia, ja), (ib, jb), "{context}: entry order");
        assert_eq!(va.to_bits(), vb.to_bits(), "{context}: C({ia},{ja}) {va} vs {vb}");
    }
}

proptest! {
    /// Any window grid with a chip-covering halo gives every window the
    /// complete geometry, so the stitched sparse matrix must equal the
    /// monolithic dense one bit for bit — the windowing machinery can
    /// only ever drop *far* coupling, never corrupt near coupling.
    #[test]
    fn chip_with_covering_halo_is_bitwise_monolithic(
        nx in 1usize..4,
        ny in 1usize..3,
        m in 2usize..4,
    ) {
        let geo = bus(m, 2);
        let chip = ChipExtractor::new(Extractor::new())
            .windows(nx, ny)
            .halo(chip_diameter(&geo));
        let full = chip.extract(&geo).expect("chip extraction");
        let mono = Extractor::new().extract(&geo).expect("monolithic extraction");
        let c = mono.capacitance();
        prop_assert_eq!(full.capacitance().dim(), c.dim());
        for i in 0..c.dim() {
            for j in 0..c.dim() {
                prop_assert_eq!(
                    full.capacitance().get(i, j).to_bits(),
                    c.get(i, j).to_bits(),
                    "windows={}x{} entry ({},{})", nx, ny, i, j
                );
            }
        }
    }

    /// The stitched matrix is a pure function of (geometry, partition,
    /// solver config): worker-pool size must never change a bit, whatever
    /// the grid. (The CI matrix re-runs this whole suite under
    /// BEMCAP_POOL=1 and 4, covering the env-driven default pool too.)
    #[test]
    fn pool_size_never_changes_stitched_bits(
        workers in 2usize..5,
        nx in 1usize..4,
        ny in 1usize..3,
    ) {
        let geo = bus(2, 2);
        let halo = 2.0e-6;
        let one = ChipExtractor::new(Extractor::new()).windows(nx, ny).halo(halo).workers(1);
        let many = ChipExtractor::new(Extractor::new()).windows(nx, ny).halo(halo).workers(workers);
        let a = one.extract(&geo).expect("single worker");
        let b = many.extract(&geo).expect("worker pool");
        assert_chip_bits_equal(
            a.capacitance(),
            b.capacitance(),
            &format!("workers 1 vs {workers}, grid {nx}x{ny}"),
        );
        prop_assert_eq!(a.report().extracted, b.report().extracted);
    }
}

/// A moderate halo (one pitch beyond the neighbors) keeps the windowed
/// self-capacitances within a few percent of the monolithic ones: the
/// geodesic-neighborhood claim behind windowed extraction. Couplings
/// between nets sharing a window match to the same band.
#[test]
fn moderate_halo_tracks_monolithic_within_tolerance() {
    let geo = bus(3, 3);
    let chip = ChipExtractor::new(Extractor::new()).windows(2, 2).halo(2.0e-6);
    let full = chip.extract(&geo).expect("chip extraction");
    let mono = Extractor::new().extract(&geo).expect("monolithic extraction");
    let c = mono.capacitance();
    for i in 0..c.dim() {
        let (got, want) = (full.capacitance().get(i, i), c.get(i, i));
        let rel = (got - want).abs() / want.abs();
        assert!(rel < 0.05, "diagonal {i}: {got:e} vs {want:e} (rel {rel:.3})");
    }
    // Stored couplings (nets sharing a window) track the dense answer.
    let scale = full.capacitance().matrix().max_abs();
    for (i, j, v) in full.capacitance().matrix().iter() {
        if i != j {
            assert!(
                (v - c.get(i, j)).abs() / scale < 0.05,
                "coupling ({i},{j}): {v:e} vs {:e}",
                c.get(i, j)
            );
        }
    }
}

/// An empty diff is the ECO identity: nothing re-extracts, every window
/// is a cache hit, and the matrix is bit-identical.
#[test]
fn empty_diff_reuses_every_window_bit_identically() {
    let geo = bus(3, 2);
    let chip = ChipExtractor::new(Extractor::new()).windows(2, 2).halo(2.0e-6);
    let first = chip.extract(&geo).expect("cold run");
    assert!(first.report().extracted > 0, "cold run extracts");

    let diff = GeometryDiff::between(&geo, &geo.clone());
    assert!(diff.is_empty());
    let again = chip.reextract(&geo, &diff).expect("no-op reextraction");
    let r = again.report();
    assert_eq!(r.touched, Some(0), "empty diff touches no window");
    assert_eq!(r.extracted, 0, "no window re-extracts");
    assert_eq!(r.reused, first.report().extracted + first.report().reused);
    assert_eq!(r.window_cache.hits, r.reused, "reuse is exactly the cache hits");
    assert_eq!(r.busy_seconds, 0.0, "no job ran");
    assert_chip_bits_equal(first.capacitance(), again.capacitance(), "no-op ECO");
}

/// An ECO nudging one edge net re-extracts exactly the windows whose
/// halo intersects the change — asserted through the per-run window
/// cache counters — and the incrementally stitched matrix is
/// bit-identical to a from-scratch extraction of the revision.
#[test]
fn eco_reextracts_only_touched_windows_and_matches_from_scratch() {
    let geo = bus(3, 3);
    let halo = 1.0e-6;
    let chip = ChipExtractor::new(Extractor::new()).windows(2, 2).halo(halo);
    chip.extract(&geo).expect("warm the window cache");

    // Nudge the first lower-layer wire (at the chip's y edge) upward:
    // its xy footprint is unchanged, so only the windows whose halo
    // reaches that edge see different content.
    let revised = nudge(&geo, "mx0", Point3::new(0.0, 0.0, 0.02e-6));
    let diff = GeometryDiff::between(&geo, &revised);
    assert_eq!(diff.changed_names(), ["mx0".to_string()]);

    let eco = chip.reextract(&revised, &diff).expect("incremental reextraction");
    let r = eco.report();
    assert!(r.extracted > 0, "the change must re-extract something");
    assert!(r.extracted < r.windows, "an edge ECO must not re-extract the whole chip");
    assert_eq!(r.touched, Some(r.extracted), "touched set = re-extracted set");
    assert_eq!(r.window_cache.misses, r.extracted, "misses are exactly the re-runs");
    assert_eq!(r.window_cache.hits, r.reused, "hits are exactly the reuses");

    // From scratch, cold caches: the incremental path may not change bits.
    let scratch = ChipExtractor::new(Extractor::new())
        .windows(2, 2)
        .halo(halo)
        .extract(&revised)
        .expect("from-scratch extraction of the revision");
    assert_eq!(scratch.report().extracted, scratch.report().windows, "scratch run is cold");
    assert_chip_bits_equal(eco.capacitance(), scratch.capacitance(), "incremental vs scratch");
}

/// `ChipReport::window_cache` is the run's own share of the window
/// cache's lifetime counters: over a cold extract plus an ECO on a cache
/// bounded to one result per shard, the two reports sum to the cache's
/// lifetime delta on all four counters.
#[test]
fn run_window_counters_sum_to_the_cache_lifetime_delta() {
    let geo = bus(3, 3);
    let cache = Arc::new(WindowCache::with_max_bytes(1));
    let chip = ChipExtractor::new(Extractor::new())
        .windows(3, 3)
        .halo(1.0e-6)
        .window_cache(Arc::clone(&cache));
    let before = cache.lifetime();
    let cold = chip.extract(&geo).expect("cold extraction");
    let revised = nudge(&geo, "mx0", Point3::new(0.0, 0.0, 0.02e-6));
    let diff = GeometryDiff::between(&geo, &revised);
    let eco = chip.reextract(&revised, &diff).expect("incremental reextraction");
    let after = cache.lifetime();

    let mut runs = cold.report().window_cache;
    runs.absorb(eco.report().window_cache);
    let delta = CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        inserted_bytes: after.inserted_bytes - before.inserted_bytes,
    };
    assert_eq!(runs, delta);
    assert!(delta.evictions > 0, "a one-result-per-shard bound must evict: {delta:?}");
    assert!(delta.hits > 0, "the ECO must reuse a window: {delta:?}");
}
