//! System setup: filling P and Φ from the template index.
//!
//! Every shared-memory assembly runs Algorithm 1's k-loop as one
//! [`PairPlan`]: the triangle is walked once into distinct
//! translation-canonical pair keys, each key is evaluated once, and P is
//! accumulated from those values in k order.
//!
//! * [`assemble_sequential`] — one thread, the D = 1 reference;
//! * [`assemble_threaded`] — the shared-memory flow of Fig. 4: the
//!   distinct keys are split across workers; the accumulation is the
//!   sequential one, so the result is bit-identical to it;
//! * [`assemble_distributed`] — the message-passing flow of Figs. 5–6:
//!   every rank builds an N×N_d partial matrix over its contiguous column
//!   range (adjacent ranks share a boundary column), sends it to rank 0,
//!   which shifts and adds. It agrees with the others up to addition
//!   order.

use std::time::Instant;

use bemcap_basis::{pair_integral, template_moment, BasisSet, PairPlan, TemplateIndex};
use bemcap_geom::EPS0;
use bemcap_linalg::Matrix;
use bemcap_par::{k_to_ij, partition_ranges, pool, triangle_size, Universe};
use bemcap_quad::galerkin::GalerkinEngine;

use crate::cache::{TemplateCache, ENTRY_BYTES};
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
    assemble_cached(eng, index, set, n_cond, eps_rel, None).0
}

/// Sequential Algorithm 1 with every distinct pair key probed once in
/// `cache` (when given) before it is evaluated. A hit returns the bits the
/// evaluation would produce, so the assembly is bit-identical to
/// [`assemble_sequential`] whatever the cache holds.
pub(crate) fn assemble_cached(
    eng: &GalerkinEngine,
    index: &TemplateIndex,
    set: &BasisSet,
    n_cond: usize,
    eps_rel: f64,
    cache: Option<&TemplateCache>,
) -> (Assembly, CacheStats) {
    let start = Instant::now();
    let plan = PairPlan::new(index);
    let mut stats = CacheStats::default();
    let values = plan.values(eng, 0..plan.distinct(), |key, eval| match cache {
        Some(c) => {
            let (v, lookup) = c.get_or_compute(*key, eval);
            if lookup.hit {
                stats.hits += 1;
            } else {
                stats.misses += 1;
                stats.inserted_bytes += ENTRY_BYTES;
            }
            stats.evictions += lookup.evicted;
            v
        }
        None => eval(),
    });
    let p = plan.accumulate(&values, kernel_scale(eps_rel));
    let phi = assemble_phi(eng, set, n_cond);
    (Assembly { p, phi, seconds: start.elapsed().as_secs_f64() }, stats)
}

/// Shared-memory Algorithm 1 (Fig. 4): `threads` workers evaluate the
/// static partition of the distinct pair keys, then P is accumulated in k
/// order — bit-identical to [`assemble_sequential`]. Returns per-worker
/// timings alongside the assembly.
pub fn assemble_threaded(
    eng: &GalerkinEngine,
    index: &TemplateIndex,
    set: &BasisSet,
    n_cond: usize,
    eps_rel: f64,
    threads: usize,
) -> (Assembly, Vec<pool::WorkerTiming>) {
    let start = Instant::now();
    let plan = PairPlan::new(index);
    let (values, timings) = plan.evaluate(eng, threads);
    let p = plan.accumulate(&values, kernel_scale(eps_rel));
    let phi = assemble_phi(eng, set, n_cond);
    (Assembly { p, phi, seconds: start.elapsed().as_secs_f64() }, timings)
}

/// Distributed-memory Algorithm 1 (Figs. 5–6) on the in-process
/// message-passing runtime.
///
/// Rank 0 accumulates its own partition directly into P; every other rank
/// builds an `N × N_d` partial matrix over its contiguous basis-column
/// range (the upper-triangle representatives only — labels are monotone in
/// the template index, so l_i ≤ l_j for every computed entry), serializes
/// it, and sends it to rank 0, which shifts it to the right columns, adds,
/// and finally mirrors the upper triangle into the full symmetric P.
pub fn assemble_distributed(
    eng: &GalerkinEngine,
    index: &TemplateIndex,
    set: &BasisSet,
    n_cond: usize,
    eps_rel: f64,
    ranks: usize,
) -> Assembly {
    let start = Instant::now();
    let scale = kernel_scale(eps_rel);
    let n = index.basis_count();
    let total_k = triangle_size(index.template_count());
    let ranges = partition_ranges(total_k, ranks);
    // Each rank returns (col_offset, partial N×Nd buffer); rank 0 returns
    // its accumulated upper-triangle matrix directly.
    let results = Universe::run(ranks, |comm| {
        let range = ranges[comm.rank()].clone();
        // Column range of this partition in basis indices.
        let (col_lo, col_hi) = if range.is_empty() {
            (0usize, 0usize)
        } else {
            let (_, j_first) = k_to_ij(range.start);
            let (_, j_last) = k_to_ij(range.end - 1);
            (index.label(j_first), index.label(j_last))
        };
        let nd = if range.is_empty() { 0 } else { col_hi - col_lo + 1 };
        let mut partial = Matrix::zeros(n, nd.max(1));
        for k in range.clone() {
            let (i, j) = k_to_ij(k);
            let (li, lj) = (index.label(i), index.label(j));
            let v = scale * pair_integral(eng, index.template(i), index.template(j));
            // Upper-triangle representative accumulation (li ≤ lj).
            let col = lj - col_lo;
            if i == j {
                partial.add_to(li, col, v);
            } else if li == lj {
                partial.add_to(li, col, 2.0 * v);
            } else {
                partial.add_to(li, col, v);
            }
        }
        if comm.rank() == 0 {
            // Rank 0 keeps its partial locally and receives the others.
            let mut upper = Matrix::zeros(n, n);
            add_shifted(&mut upper, &partial, col_lo, nd);
            for src in 1..comm.size() {
                let header = comm.recv_f64s(src).expect("header from worker rank");
                let (off, cols) = (header[0] as usize, header[1] as usize);
                let data = comm.recv_f64s(src).expect("partial matrix from worker rank");
                let m = Matrix::from_vec(n, cols.max(1), data).expect("partial matrix shape");
                add_shifted(&mut upper, &m, off, cols);
            }
            Some(upper)
        } else {
            comm.send_f64s(0, &[col_lo as f64, nd as f64]).expect("header to rank 0");
            comm.send_f64s(0, partial.as_slice()).expect("partial to rank 0");
            None
        }
    });
    let mut upper = results.into_iter().next().flatten().expect("rank 0 returns the matrix");
    // Mirror the strict upper triangle.
    for i in 0..n {
        for j in (i + 1)..n {
            let v = upper.get(i, j);
            upper.set(j, i, v);
        }
    }
    let phi = assemble_phi(eng, set, n_cond);
    Assembly { p: upper, phi, seconds: start.elapsed().as_secs_f64() }
}

fn add_shifted(dest: &mut Matrix, partial: &Matrix, col_offset: usize, cols: usize) {
    for i in 0..dest.rows() {
        for c in 0..cols {
            let v = partial.get(i, c);
            if v != 0.0 {
                dest.add_to(i, col_offset + c, v);
            }
        }
    }
}

/// Measures per-chunk task costs of the k-loop for the machine simulator:
/// the distinct pair keys of the plan are split into `chunks` blocks and
/// each block's evaluation wall time is recorded. These are the *measured*
/// inputs to Table 3 / Fig. 8.
pub fn measure_chunk_costs(eng: &GalerkinEngine, index: &TemplateIndex, chunks: usize) -> Vec<f64> {
    measure_chunk_costs_best_of(eng, index, chunks, 1)
}

/// Like [`measure_chunk_costs`] but repeats the sweep `reps` times and
/// keeps each chunk's *minimum* time — the standard defense against
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
    fn distributed_matches_sequential() {
        let (eng, set, index, nc) = setup();
        let seq = assemble_sequential(&eng, &index, &set, nc, 1.0);
        for ranks in [1, 2, 4] {
            let dist = assemble_distributed(&eng, &index, &set, nc, 1.0, ranks);
            let diff = (&seq.p - &dist.p).max_abs();
            assert!(diff < 1e-9 * seq.p.max_abs(), "ranks={ranks}: diff {diff}");
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
        let costs = measure_chunk_costs(&eng, &index, 16);
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
