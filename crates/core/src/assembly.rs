//! System setup: filling P and Φ from the template index.
//!
//! Algorithm 1's k-loop exists once, in the crate-private driver behind
//! every function here and behind the dense piecewise-constant reference
//! ([`crate::solver::DensePwcSolver`], one flat template per panel): the
//! triangle is walked once into a [`PairPlan`] of distinct
//! symmetry-canonical pair keys, each key's value is obtained once
//! (probed in a [`TemplateCache`] when one is given), and P is
//! accumulated from those values in k order by
//! [`PairPlan::accumulate`]. The two [`Parallelism`] modes differ only
//! in who evaluates which slice of the distinct list:
//!
//! * [`assemble_sequential`] — one thread evaluates the whole list, the
//!   D = 1 reference;
//! * [`assemble_threaded`] — the shared-memory flow of Fig. 4: workers
//!   take equal chunks of the list from a shared counter until none is
//!   left (self-scheduled, so a worker the host slows takes fewer).
//!
//! The distributed-memory flow of Figs. 5–6 (contiguous slices, values
//! gathered to rank 0) is modelled, not executed: the paper itself ran
//! its MPI ranks on one machine, and `bemcap_par::Schedule::Gathered`
//! replays that flow on [`measure_chunk_costs_best_of`]'s costs.
//!
//! A value depends only on its key and the accumulation order is fixed,
//! so both modes, with or without a cache, yield bit-identical P.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use bemcap_basis::{template_moment, BasisSet, PairPlan, TemplateIndex};
use bemcap_geom::EPS0;
use bemcap_linalg::Matrix;
use bemcap_par::pool::{self, WorkerTiming};
use bemcap_par::{partition_ranges, self_scheduled_chunks};
use bemcap_quad::galerkin::GalerkinEngine;

use crate::cache::TemplateCache;
use crate::extraction::Parallelism;
use crate::report::CacheStats;

/// Output of one assembly run.
#[derive(Debug, Clone)]
pub struct Assembly {
    /// The N×N system matrix P (scaled by 1/(4πε)).
    pub p: Matrix,
    /// The N×n right-hand side Φ.
    pub phi: Matrix,
    /// Wall-clock seconds of the setup step.
    pub seconds: f64,
}

/// Scale factor 1/(4πε) for a medium of relative permittivity `eps_rel`.
pub(crate) fn kernel_scale(eps_rel: f64) -> f64 {
    1.0 / (4.0 * std::f64::consts::PI * eps_rel * EPS0)
}

/// Builds Φ ∈ R^{N×n}: Φ_{ik} = ∫ψ_i ds when ψ_i lives on conductor k.
pub fn assemble_phi(eng: &GalerkinEngine, set: &BasisSet, n_cond: usize) -> Matrix {
    let n = set.basis_count();
    let mut phi = Matrix::zeros(n, n_cond);
    for (bi, f) in set.functions().iter().enumerate() {
        let moment: f64 = f.templates.iter().map(|t| template_moment(eng, t)).sum();
        phi.set(bi, f.conductor, moment);
    }
    phi
}

/// Sequential Algorithm 1 (D = 1).
pub fn assemble_sequential(
    eng: &GalerkinEngine,
    index: &TemplateIndex,
    set: &BasisSet,
    n_cond: usize,
    eps_rel: f64,
) -> Assembly {
    assemble(eng, index, set, n_cond, eps_rel, Parallelism::Sequential, None).0
}

/// Shared-memory Algorithm 1 (Fig. 4) on `threads` workers,
/// bit-identical to [`assemble_sequential`]. Returns per-worker timings
/// alongside the assembly.
pub fn assemble_threaded(
    eng: &GalerkinEngine,
    index: &TemplateIndex,
    set: &BasisSet,
    n_cond: usize,
    eps_rel: f64,
    threads: usize,
) -> (Assembly, Vec<WorkerTiming>) {
    let (asm, timings, _) =
        assemble(eng, index, set, n_cond, eps_rel, Parallelism::Threads(threads), None);
    (asm, timings)
}

/// Algorithm 1 in `parallelism`'s mode, with every distinct pair key
/// probed once in `cache` when given. Returns the assembly, one timing
/// per worker, and the summed cache counters of every worker.
pub(crate) fn assemble(
    eng: &GalerkinEngine,
    index: &TemplateIndex,
    set: &BasisSet,
    n_cond: usize,
    eps_rel: f64,
    parallelism: Parallelism,
    cache: Option<&TemplateCache>,
) -> (Assembly, Vec<WorkerTiming>, CacheStats) {
    let start = Instant::now();
    let plan = PairPlan::new(index);
    let (values, stats, timings) = evaluate_in_mode(parallelism, plan.distinct(), |range| {
        values_through(&plan, eng, cache, range)
    });
    let p = plan.accumulate(&values, kernel_scale(eps_rel));
    let phi = assemble_phi(eng, set, n_cond);
    (Assembly { p, phi, seconds: start.elapsed().as_secs_f64() }, timings, stats)
}

/// The one [`Parallelism`] dispatch of the setup step: `slice` evaluates
/// the values of one contiguous range of `0..total`, and the modes differ
/// only in who runs which range (one thread or [`self_scheduled`]
/// threads). Returns all `total` values in index order, the summed
/// counters, and one timing per worker.
fn evaluate_in_mode(
    parallelism: Parallelism,
    total: usize,
    slice: impl Fn(Range<usize>) -> (Vec<f64>, CacheStats) + Sync,
) -> (Vec<f64>, CacheStats, Vec<WorkerTiming>) {
    let (parts, timings) = match parallelism {
        Parallelism::Sequential | Parallelism::Threads(1) => {
            pool::run_partitioned(1, total, |_, r| slice(r))
        }
        Parallelism::Threads(t) => self_scheduled(t, total, slice),
    };
    // The first part is kept rather than copied, so a single block (one
    // thread) costs no second buffer.
    let mut parts = parts.into_iter();
    let (mut values, mut stats) = parts.next().unwrap_or_default();
    values.reserve_exact(total - values.len());
    for (part, part_stats) in parts {
        values.extend(part);
        stats.absorb(part_stats);
    }
    (values, stats, timings)
}

/// Fig. 4's workers on `threads` threads, each taking the next of the
/// [`self_scheduled_chunks`] of `0..total` until none is left: a worker
/// the host slows takes fewer chunks instead of holding up the others.
/// Returns the chunks' parts in index order and one timing per worker.
fn self_scheduled(
    threads: usize,
    total: usize,
    slice: impl Fn(Range<usize>) -> (Vec<f64>, CacheStats) + Sync,
) -> (Vec<(Vec<f64>, CacheStats)>, Vec<WorkerTiming>) {
    let chunks = self_scheduled_chunks(total, threads);
    let next = AtomicUsize::new(0);
    let (taken, timings) = pool::run_partitioned(threads, threads, |_, _| {
        let take = || {
            let c = next.fetch_add(1, Ordering::Relaxed);
            chunks.get(c).map(|range| (c, slice(range.clone())))
        };
        std::iter::from_fn(take).collect::<Vec<_>>()
    });
    let mut parts: Vec<_> = taken.into_iter().flatten().collect();
    parts.sort_unstable_by_key(|&(c, _)| c);
    (parts.into_iter().map(|(_, part)| part).collect(), timings)
}

/// The values of the distinct keys in `range`, each obtained through
/// `cache` when given, with the counters of those probes.
fn values_through(
    plan: &PairPlan<'_>,
    eng: &GalerkinEngine,
    cache: Option<&TemplateCache>,
    range: Range<usize>,
) -> (Vec<f64>, CacheStats) {
    let mut stats = CacheStats::default();
    let values = plan.values(eng, range, |key, eval| match cache {
        Some(c) => {
            let (v, lookup) = c.get_or_compute(*key, eval);
            stats.absorb(lookup);
            v
        }
        None => eval(),
    });
    (values, stats)
}

/// Measures per-chunk task costs of the k-loop for the machine simulator:
/// the distinct pair keys of the plan are split into `chunks` blocks and
/// each block's evaluation wall time is recorded. These are the *measured*
/// inputs to Table 3 / Fig. 8. The sweep runs `reps` times and each
/// chunk keeps its *minimum* time — the standard defense against
/// scheduler interference on a shared host, which otherwise inflates a few
/// chunks by orders of magnitude and corrupts the balance statistics.
pub fn measure_chunk_costs_best_of(
    eng: &GalerkinEngine,
    index: &TemplateIndex,
    chunks: usize,
    reps: usize,
) -> Vec<f64> {
    let plan = PairPlan::new(index);
    let ranges = partition_ranges(plan.distinct(), chunks.max(1));
    let mut best = vec![f64::INFINITY; ranges.len()];
    for _ in 0..reps.max(1) {
        for (slot, range) in best.iter_mut().zip(&ranges) {
            let t = Instant::now();
            std::hint::black_box(plan.values(eng, range.clone(), |_, eval| eval()));
            *slot = slot.min(t.elapsed().as_secs_f64());
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
    use bemcap_geom::structures::{self, CrossingParams};

    fn setup() -> (GalerkinEngine, BasisSet, TemplateIndex, usize) {
        let geo = structures::crossing_wires(CrossingParams::default());
        let set = instantiate(&geo, &InstantiateConfig::default()).unwrap();
        let index = TemplateIndex::new(&set);
        (GalerkinEngine::default(), set, index, geo.conductor_count())
    }

    #[test]
    fn threaded_matches_sequential() {
        let (eng, set, index, nc) = setup();
        let seq = assemble_sequential(&eng, &index, &set, nc, 1.0);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [2, 3, 5] {
            let (par, timings) = assemble_threaded(&eng, &index, &set, nc, 1.0, threads);
            assert_eq!(timings.len(), threads);
            assert_eq!(bits(&seq.p), bits(&par.p), "threads={threads}");
            assert_eq!(seq.phi, par.phi);
        }
    }

    #[test]
    fn p_is_symmetric_and_positive_diagonal() {
        let (eng, set, index, nc) = setup();
        let a = assemble_sequential(&eng, &index, &set, nc, 1.0);
        assert!(a.p.is_symmetric(1e-9));
        for i in 0..a.p.dim() {
            assert!(a.p.get(i, i) > 0.0, "diagonal {i}");
        }
    }

    #[test]
    fn phi_lives_on_the_right_conductors() {
        let (eng, set, _, nc) = setup();
        let phi = assemble_phi(&eng, &set, nc);
        for (bi, f) in set.functions().iter().enumerate() {
            for k in 0..nc {
                if k == f.conductor {
                    assert!(phi.get(bi, k) != 0.0);
                } else {
                    assert_eq!(phi.get(bi, k), 0.0);
                }
            }
        }
    }

    #[test]
    fn chunk_costs_cover_all_work() {
        let (eng, _, index, _) = setup();
        let costs = measure_chunk_costs_best_of(&eng, &index, 16, 1);
        assert_eq!(costs.len(), 16);
        assert!(costs.iter().all(|&c| c >= 0.0));
        assert!(costs.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn eps_scaling_is_linear() {
        let (eng, set, index, nc) = setup();
        let a1 = assemble_sequential(&eng, &index, &set, nc, 1.0);
        let a2 = assemble_sequential(&eng, &index, &set, nc, 2.0);
        // P scales as 1/ε.
        let scaled = &a2.p * 2.0;
        assert!((&a1.p - &scaled).max_abs() < 1e-9 * a1.p.max_abs());
    }
}
