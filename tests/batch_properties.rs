//! Property-based tests of the batch extraction invariants: for random
//! geometry families and pool sizes,
//!
//! * results come back in input order whatever the pool size;
//! * the shared pair-integral cache never changes a result bit;
//! * every returned capacitance matrix is symmetric, has positive
//!   diagonal, negative couplings, and is diagonally dominant (positive
//!   row sums — capacitance to infinity).

use std::sync::Arc;

use bemcap_core::cache::{TemplateCache, ENTRY_BYTES};
use bemcap_core::{BatchExtractor, Extractor};
use bemcap_geom::structures::{self, CrossingParams};
use proptest::prelude::*;

fn crossing(h: f64) -> bemcap_geom::Geometry {
    structures::crossing_wires(CrossingParams { separation: h, ..Default::default() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One random family (three separations, shuffled magnitudes) through
    /// a random pool size, cached — checked against the uncached
    /// single-worker run and the physical matrix invariants.
    #[test]
    fn batch_order_cache_and_matrix_invariants(
        h1 in 0.3..1.5f64,
        h2 in 0.3..1.5f64,
        h3 in 0.3..1.5f64,
        workers in 1usize..6,
    ) {
        let params: Vec<f64> = [h1, h2, h3].iter().map(|h| h * 1e-6).collect();
        let cached = BatchExtractor::new(Extractor::new())
            .workers(workers)
            .extract_family(&params, crossing)
            .expect("cached batch");
        // Order: the i-th result is the i-th parameter, not scheduler order.
        let got: Vec<f64> =
            cached.points().iter().map(|p| p.parameter.expect("family parameter")).collect();
        prop_assert_eq!(&got, &params, "workers={}", workers);

        // Cache off, single worker: the reference execution. Must be
        // bit-identical to the cached, pooled run.
        let reference = BatchExtractor::new(Extractor::new())
            .workers(1)
            .cache(false)
            .extract_family(&params, crossing)
            .expect("reference batch");
        for (a, b) in cached.points().iter().zip(reference.points()) {
            prop_assert_eq!(
                a.extraction.capacitance().matrix().as_slice(),
                b.extraction.capacitance().matrix().as_slice(),
                "workers={} job={}", workers, a.job.index
            );
        }

        // Cache accounting invariants: the default per-run cache is
        // unbounded, so nothing ever gets evicted, every miss inserts
        // exactly one entry, and the report aggregates the per-job
        // counters; the human-readable report surfaces hit rate and
        // evictions.
        let total = cached.report().cache;
        prop_assert_eq!(total.evictions, 0, "unbounded cache must not evict");
        prop_assert_eq!(total.inserted_bytes, total.misses * ENTRY_BYTES);
        let summed = cached.points().iter().fold((0, 0), |(e, b), p| {
            (e + p.job.cache.evictions, b + p.job.cache.inserted_bytes)
        });
        prop_assert_eq!((total.evictions, total.inserted_bytes), summed);
        let shown = format!("{}", cached.report());
        prop_assert!(shown.contains("% hit rate"), "display shows hit rate: {}", shown);
        prop_assert!(shown.contains("evictions"), "display shows evictions: {}", shown);
        prop_assert!(shown.contains("queue wait"), "display shows queue wait: {}", shown);

        // Execution-core accounting: a private per-run executor gets the
        // batch as one submission of one queue task per job, any worker
        // taking the next; it never rejects.
        let exec = cached.report().exec;
        prop_assert_eq!(exec.submitted, 1);
        prop_assert_eq!(exec.jobs, params.len());
        prop_assert_eq!(exec.rejected, 0, "per-run executor must never reject");
        prop_assert!(cached.points().iter().all(|p| p.job.worker < workers));
        prop_assert!(exec.queue_seconds >= 0.0);

        // Matrix invariants on every returned point.
        for p in cached.points() {
            let c = p.extraction.capacitance();
            prop_assert!(c.asymmetry() < 1e-6, "asymmetry {}", c.asymmetry());
            for i in 0..c.dim() {
                prop_assert!(c.get(i, i) > 0.0, "diagonal {i}");
                let mut row_sum = 0.0;
                for j in 0..c.dim() {
                    if i != j {
                        prop_assert!(c.get(i, j) < 0.0, "coupling ({i},{j}) = {}", c.get(i, j));
                    }
                    row_sum += c.get(i, j);
                }
                // Diagonal dominance: self capacitance outweighs the
                // couplings (the grounded-at-infinity row sum).
                prop_assert!(row_sum > 0.0, "row {i} sum {row_sum}");
            }
        }
    }

    /// Duplicated parameters: later identical jobs must be pure cache
    /// hits, and still bit-identical to their first occurrence.
    #[test]
    fn duplicate_jobs_are_full_hits(h in 0.35..1.4f64, workers in 1usize..4) {
        let h = h * 1e-6;
        let params = [h, h];
        let result = BatchExtractor::new(Extractor::new())
            .workers(workers)
            .extract_family(&params, crossing)
            .expect("batch");
        let a = result.points()[0].extraction.capacitance().matrix();
        let b = result.points()[1].extraction.capacitance().matrix();
        prop_assert_eq!(a.as_slice(), b.as_slice());
        // With one worker the second job sees everything the first
        // computed; with more workers the jobs may race, so only demand
        // hits when sequential.
        if workers == 1 {
            let stats = result.points()[1].job.cache;
            prop_assert!(stats.misses == 0, "expected pure hits, got {:?}", stats);
        }
    }

    /// A memory-bounded shared cache under random pressure: the bound
    /// holds, evictions are observed (and counted consistently), and the
    /// results stay bit-identical to the uncached reference — eviction
    /// can cost recomputation, never correctness.
    #[test]
    fn bounded_cache_respects_bound_and_never_changes_results(
        h1 in 0.3..1.5f64,
        h2 in 0.3..1.5f64,
        h3 in 0.3..1.5f64,
        h4 in 0.3..1.5f64,
        workers in 1usize..5,
        cap_entries in 24usize..96,
    ) {
        let params: Vec<f64> = [h1, h2, h3, h4].iter().map(|h| h * 1e-6).collect();
        let cache = Arc::new(TemplateCache::with_max_bytes(cap_entries * ENTRY_BYTES));
        let bounded = BatchExtractor::new(Extractor::new())
            .workers(workers)
            .shared_cache(Arc::clone(&cache))
            .extract_family(&params, crossing)
            .expect("bounded batch");
        let reference = BatchExtractor::new(Extractor::new())
            .workers(1)
            .cache(false)
            .extract_family(&params, crossing)
            .expect("reference batch");
        for (a, b) in bounded.points().iter().zip(reference.points()) {
            prop_assert_eq!(
                a.extraction.capacitance().matrix().as_slice(),
                b.extraction.capacitance().matrix().as_slice(),
                "workers={} cap={}", workers, cap_entries
            );
        }
        let bound = cache.max_bytes().expect("bounded cache");
        prop_assert!(cache.resident_bytes() <= bound,
            "resident {} over bound {}", cache.resident_bytes(), bound);
        // Four crossing-wire jobs need well over 96 distinct pair
        // integrals: a bound this small must evict.
        prop_assert!(bounded.report().cache.evictions > 0,
            "no evictions at cap {} entries", cap_entries);
        prop_assert_eq!(cache.lifetime().evictions, bounded.report().cache.evictions);
    }
}
