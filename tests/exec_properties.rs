//! Property-based tests of the shared execution core
//! (`bemcap_core::exec`): for random families, pool sizes and queue
//! depths,
//!
//! * executor and direct single-shot extraction are **bit-identical**
//!   (CI re-runs this under `BEMCAP_POOL=1,4`);
//! * a full admission queue returns a structured `Busy` rejection, a
//!   submission larger than the whole depth an `OverDepth` one, and the
//!   run never deadlocks — every admitted ticket resolves;
//! * a failing job fails only its own outcome.

use std::sync::Arc;

use bemcap_core::exec::{ExecConfig, Executor, Ticket};
use bemcap_core::{CoreError, Extractor, JobOutcome, TemplateCache};
use bemcap_geom::structures::{self, BusParams, CrossingParams};
use bemcap_geom::Geometry;
use proptest::prelude::*;

fn crossing(h: f64) -> Geometry {
    structures::crossing_wires(CrossingParams { separation: h, ..Default::default() })
}

fn matrix_of(outcomes: &[JobOutcome], idx: usize) -> Vec<f64> {
    let (extraction, _) = outcomes[idx].result.as_ref().expect("job ok");
    extraction.capacitance().matrix().as_slice().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One random 3-point family through an executor with a random pool
    /// size and queue depth, sharing one cache, vs direct extraction:
    /// bit-identical, in input order.
    #[test]
    fn any_pool_size_and_queue_depth_matches_direct_extraction(
        h1 in 0.3..1.5f64,
        h2 in 0.3..1.5f64,
        h3 in 0.3..1.5f64,
        workers in 1usize..5,
        depth in 3usize..64,
    ) {
        let hs: Vec<f64> = [h1, h2, h3].iter().map(|h| h * 1e-6).collect();
        let ex = Extractor::new();
        let exec = Executor::new(ExecConfig { workers, queue_depth: depth });
        let cache = Arc::new(TemplateCache::unbounded());
        let tickets: Vec<Ticket> = hs
            .iter()
            .map(|&h| {
                exec.submit(&ex, Some(Arc::clone(&cache)), vec![crossing(h)])
                    .expect("depth >= jobs admits everything")
            })
            .collect();
        for (h, t) in hs.iter().zip(tickets) {
            let direct = ex.extract(&crossing(*h)).expect("direct");
            prop_assert_eq!(
                matrix_of(&t.wait(), 0),
                direct.capacitance().matrix().as_slice().to_vec(),
                "{} workers, depth {}: differs from direct at h={}", workers, depth, h
            );
        }
        prop_assert_eq!(exec.stats().jobs, hs.len());
    }

    /// Storm a tiny queue: admitted submissions all resolve correctly
    /// (no deadlock — the test finishing is the assertion), rejections
    /// are structured `Busy` values with the configured depth, and
    /// accounting adds up.
    #[test]
    fn full_queue_rejects_with_busy_and_every_ticket_resolves(
        depth in 1usize..3,
    ) {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: depth });
        let ex = Extractor::new();
        // A moderately slow job shape so the single worker stays behind
        // the submission loop.
        let geo = structures::bus_crossing(2, 2, BusParams::default());
        let mut tickets = Vec::new();
        let mut busy = 0usize;
        for _ in 0..24 {
            match exec.submit(&ex, None, vec![geo.clone()]) {
                Ok(t) => tickets.push(t),
                Err(CoreError::Busy { queued, depth: d }) => {
                    prop_assert_eq!(d, depth);
                    prop_assert!(queued <= depth);
                    busy += 1;
                }
                Err(other) => prop_assert!(false, "unexpected error {:?}", other),
            }
        }
        // 24 instant submissions against a depth-1..2 queue of slow jobs:
        // the queue must have been full at least once.
        prop_assert!(busy > 0, "no Busy seen: depth={}", depth);
        // One job more than the whole depth is never admissible, whatever
        // the queue holds: a distinct refusal, not a retryable Busy.
        match exec.submit(&ex, None, vec![geo.clone(); depth + 1]) {
            Err(CoreError::OverDepth { jobs, depth: d }) => {
                prop_assert_eq!((jobs, d), (depth + 1, depth));
            }
            other => prop_assert!(false, "expected OverDepth, got {:?}", other.map(drop)),
        }
        let admitted = tickets.len();
        let reference = ex.extract(&geo).expect("direct");
        for t in tickets {
            prop_assert_eq!(
                matrix_of(&t.wait(), 0),
                reference.capacitance().matrix().as_slice().to_vec()
            );
        }
        let stats = exec.stats();
        prop_assert_eq!(stats.rejected, busy + 1);
        prop_assert_eq!(stats.submitted, admitted);
        prop_assert_eq!(stats.jobs, admitted);
    }

    /// A bad geometry sandwiched between good submissions (same config,
    /// same cache): only its own submission fails, and the good ones stay
    /// bit-identical to direct extraction.
    #[test]
    fn failing_submission_is_isolated(
        h1 in 0.3..1.5f64,
        h2 in 0.3..1.5f64,
    ) {
        let (h1, h2) = (h1 * 1e-6, h2 * 1e-6);
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 8 });
        let ex = Extractor::new();
        let cache = Arc::new(TemplateCache::unbounded());
        let good1 =
            exec.submit(&ex, Some(Arc::clone(&cache)), vec![crossing(h1)]).expect("good1");
        let bad = exec
            .submit(&ex, Some(Arc::clone(&cache)), vec![Geometry::new(vec![])])
            .expect("bad admitted");
        let good2 =
            exec.submit(&ex, Some(Arc::clone(&cache)), vec![crossing(h2)]).expect("good2");
        let (s1, sb, s2) = (good1.wait(), bad.wait(), good2.wait());
        match &sb[0].result {
            Err(CoreError::EmptyGeometry) => {}
            other => prop_assert!(false, "expected EmptyGeometry, got {:?}", other),
        }
        for (h, sub) in [(h1, &s1), (h2, &s2)] {
            let direct = ex.extract(&crossing(h)).expect("direct");
            prop_assert_eq!(
                matrix_of(sub, 0),
                direct.capacitance().matrix().as_slice().to_vec()
            );
        }
    }
}

/// The `BEMCAP_POOL`-sized default executor (what default batch runs,
/// parameter sweeps included, use, and what CI's pool matrix varies):
/// results must be bit-identical to direct extraction at whatever size
/// the environment picked.
#[test]
fn default_sized_executor_matches_direct_extraction() {
    let exec = Executor::new(ExecConfig::default());
    let ex = Extractor::new();
    let hs = [0.4e-6, 0.7e-6, 1.0e-6, 1.3e-6];
    let tickets: Vec<Ticket> =
        hs.iter().map(|&h| exec.submit(&ex, None, vec![crossing(h)]).expect("admitted")).collect();
    for (h, t) in hs.iter().zip(tickets) {
        let direct = ex.extract(&crossing(*h)).expect("direct");
        assert_eq!(
            matrix_of(&t.wait(), 0),
            direct.capacitance().matrix().as_slice().to_vec(),
            "h={h}"
        );
    }
    let stats = exec.stats();
    assert_eq!(stats.jobs, hs.len());
    assert_eq!(stats.rejected, 0);
}

/// A multi-job submission (the wire `batch` op's shape) is admitted
/// together and runs one queue task per job: results come back in input
/// order, each with its own queue wait, bit-identical to single shots.
#[test]
fn multi_job_submission_matches_singles() {
    let exec = Executor::new(ExecConfig { workers: 2, queue_depth: 16 });
    let ex = Extractor::new();
    let hs = [0.5e-6, 0.8e-6, 1.1e-6];
    let outcomes = exec
        .submit(
            &ex,
            Some(Arc::new(TemplateCache::unbounded())),
            hs.iter().map(|&h| crossing(h)).collect(),
        )
        .expect("admitted")
        .wait();
    assert_eq!(outcomes.len(), hs.len());
    assert!(outcomes.iter().all(|o| o.queue_seconds >= 0.0 && o.worker < 2));
    let stats = exec.stats();
    assert_eq!((stats.submitted, stats.jobs), (1, hs.len()));
    for (i, h) in hs.iter().enumerate() {
        let direct = ex.extract(&crossing(*h)).expect("direct");
        assert_eq!(
            matrix_of(&outcomes, i),
            direct.capacitance().matrix().as_slice().to_vec(),
            "index {i}"
        );
    }
}
