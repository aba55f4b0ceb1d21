//! The system-solving step and the piecewise-constant dense reference.

use std::ops::Range;
use std::time::Instant;

use bemcap_geom::{Geometry, Mesh, EPS0};
use bemcap_linalg::{LuFactor, Matrix};
use bemcap_par::{k_to_ij, triangle_size};
use bemcap_quad::galerkin::{GalerkinEngine, PanelShape};

use crate::assembly::evaluate_in_mode;
use crate::error::CoreError;
use crate::extraction::Parallelism;
use crate::report::CacheStats;

/// Solves P ρ = Φ by LU (the "standard direct method" of §3) and forms
/// C = Φᵀ ρ. Returns (C, solve seconds).
///
/// # Errors
///
/// * [`CoreError::Linalg`] if P is singular or shapes mismatch.
pub fn solve_capacitance(p: Matrix, phi: &Matrix) -> Result<(Matrix, f64), CoreError> {
    let start = Instant::now();
    let lu = LuFactor::new(p)?;
    let rho = lu.solve_matrix(phi)?;
    let c = phi.transpose().matmul(&rho)?;
    Ok((c, start.elapsed().as_secs_f64()))
}

/// Dense piecewise-constant Galerkin reference solver: assembles the full
/// panel matrix with exact closed forms and solves directly. Exact up to
/// discretization error; O(N²) memory, so only for modest meshes.
///
/// The O(N²) upper-triangle fill runs through the same [`Parallelism`]
/// dispatch as the Algorithm-1 drivers ([`crate::assembly`]): each worker
/// or rank evaluates one contiguous range of the flat triangle index `k`,
/// and the values are scattered in k order, so every mode and worker
/// count is **bit-identical** to the serial double loop — every entry is
/// an independent closed-form evaluation of the same inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct DensePwcSolver;

impl DensePwcSolver {
    /// Extracts the capacitance matrix of `geo` discretized by `mesh`,
    /// assembling on one thread.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Linalg`] if the panel matrix is singular.
    pub fn solve(&self, geo: &Geometry, mesh: &Mesh) -> Result<Matrix, CoreError> {
        let (p, phi) = self.assemble_system(geo, mesh, 1);
        let (c, _) = solve_capacitance(p, &phi)?;
        Ok(c)
    }

    /// The system-setup step alone on `workers` threads: assembles the
    /// dense panel matrix `P` (bit-identical to the serial loop at any
    /// worker count) and the conductor incidence matrix `Φ`.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn assemble_system(&self, geo: &Geometry, mesh: &Mesh, workers: usize) -> (Matrix, Matrix) {
        let (p, phi, _) = self.assemble_in_mode(geo, mesh, Parallelism::Threads(workers));
        (p, phi)
    }

    /// [`DensePwcSolver::assemble_system`] in `parallelism`'s mode; also
    /// returns the number of workers or ranks that ran. The backend layer
    /// prepares here and solves later.
    pub(crate) fn assemble_in_mode(
        &self,
        geo: &Geometry,
        mesh: &Mesh,
        parallelism: Parallelism,
    ) -> (Matrix, Matrix, usize) {
        let eng = GalerkinEngine::default();
        let scale = 1.0 / (4.0 * std::f64::consts::PI * geo.eps());
        let n = mesh.panel_count();
        let panels = mesh.panels();
        // Fills one contiguous range of the flat upper-triangle index with
        // closed-form pair integrals. The (i, j) coordinates advance
        // incrementally — one sqrt-based [`k_to_ij`] per range instead of
        // two per entry.
        let fill = |range: Range<usize>| {
            let mut vals = Vec::with_capacity(range.len());
            let (mut i, mut j) = k_to_ij(range.start);
            for _ in range {
                vals.push(
                    scale
                        * eng.panel_pair(
                            &panels[i].panel,
                            PanelShape::Flat,
                            &panels[j].panel,
                            PanelShape::Flat,
                        ),
                );
                (i, j) = next_ij(i, j);
            }
            (vals, CacheStats::default())
        };
        let (values, _, timings) = evaluate_in_mode(parallelism, triangle_size(n), fill);
        let mut p = Matrix::zeros(n, n);
        let (mut i, mut j) = (0, 0);
        for v in values {
            p.set(i, j, v);
            p.set(j, i, v);
            (i, j) = next_ij(i, j);
        }
        let n_cond = geo.conductor_count();
        let mut phi = Matrix::zeros(n, n_cond);
        for (i, mp) in mesh.panels().iter().enumerate() {
            phi.set(i, mp.conductor, mp.panel.area());
        }
        (p, phi, timings.len())
    }
}

/// The upper-triangle coordinates after (i, j) in flat k order.
fn next_ij(i: usize, j: usize) -> (usize, usize) {
    if i < j {
        (i + 1, j)
    } else {
        (0, j + 1)
    }
}

/// Convenience: the ideal parallel-plate estimate ε A / d, used in tests
/// and examples as a sanity scale.
pub fn ideal_plate_capacitance(area: f64, gap: f64, eps_rel: f64) -> f64 {
    eps_rel * EPS0 * area / gap
}

#[cfg(test)]
mod tests {
    use super::*;
    use bemcap_geom::structures;

    #[test]
    fn dense_pwc_parallel_plates() {
        let w = 1.0e-6;
        let d = 0.2e-6;
        let geo = structures::parallel_plates(w, w, d);
        let mesh = Mesh::uniform(&geo, 8);
        let c = DensePwcSolver.solve(&geo, &mesh).unwrap();
        let ideal = ideal_plate_capacitance(w * w, d, 1.0);
        let coupling = -c.get(0, 1);
        assert!(coupling > ideal && coupling < 3.0 * ideal, "coupling {coupling} vs {ideal}");
        assert!(c.is_symmetric(5e-2));
    }

    #[test]
    fn dense_pwc_agrees_with_fmm() {
        let geo = structures::crossing_wires(structures::CrossingParams::default());
        let mesh = Mesh::uniform(&geo, 8);
        let dense = DensePwcSolver.solve(&geo, &mesh).unwrap();
        let fmm = bemcap_fmm::FmmSolver::default().solve(&geo, &mesh).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let a = dense.get(i, j);
                let b = fmm.capacitance.get(i, j);
                assert!(
                    (a - b).abs() < 2e-2 * a.abs().max(b.abs()),
                    "({i},{j}): dense {a} vs fmm {b}"
                );
            }
        }
    }

    #[test]
    fn parallel_dense_assembly_is_bit_identical_to_serial() {
        let geo = structures::crossing_wires(structures::CrossingParams::default());
        let mesh = Mesh::uniform(&geo, 6);
        let serial = DensePwcSolver.assemble_system(&geo, &mesh, 1);
        for workers in [2, 3, 5] {
            let parallel = DensePwcSolver.assemble_system(&geo, &mesh, workers);
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn solve_capacitance_shapes() {
        // A tiny synthetic SPD system.
        let p = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 3.0]]).unwrap();
        let phi = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]).unwrap();
        let (c, secs) = solve_capacitance(p, &phi).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert!(secs >= 0.0);
        // C = Φᵀ P⁻¹ Φ is symmetric for symmetric P.
        assert!(c.is_symmetric(1e-12));
    }

    #[test]
    fn singular_p_reported() {
        let p = Matrix::zeros(2, 2);
        let phi = Matrix::identity(2);
        assert!(matches!(solve_capacitance(p, &phi), Err(CoreError::Linalg(_))));
    }
}
