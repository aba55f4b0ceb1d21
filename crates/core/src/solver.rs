//! The system-solving step and the piecewise-constant dense reference:
//! LU for the instantiable P ([`solve_capacitance`]), blocked in-place
//! Cholesky for the dense piecewise-constant P
//! ([`solve_dense_capacitance`], through [`LuFactor::new`]).

use std::time::Instant;

use bemcap_basis::{BasisFunction, BasisSet, Template, TemplateIndex};
use bemcap_geom::{Geometry, Mesh, MeshPanel, EPS0};
use bemcap_linalg::{LuFactor, Matrix};
use bemcap_quad::galerkin::GalerkinEngine;

use crate::assembly::assemble;
use crate::error::CoreError;
use crate::extraction::Parallelism;

/// Solves P ρ = Φ by LU (the "standard direct method" of §3) and forms
/// C = Φᵀ ρ. Returns (C, solve seconds). The instantiable P is indefinite
/// at nominal geometry, so its solve stays here; the dense P goes through
/// [`solve_dense_capacitance`].
///
/// # Errors
///
/// * [`CoreError::Linalg`] if P is singular or shapes mismatch.
pub fn solve_capacitance(p: Matrix, phi: &Matrix) -> Result<(Matrix, f64), CoreError> {
    let start = Instant::now();
    let c = capacitance(&LuFactor::pivoted(p)?, phi)?;
    Ok((c, start.elapsed().as_secs_f64()))
}

/// Solves the dense piecewise-constant P ρ = Φ and forms C = Φᵀ ρ by
/// [`LuFactor::new`]: a blocked Cholesky factor of P, made in place.
///
/// A P that is singular to working precision (a pivot at or below 1.5e-8
/// of its diagonal: coincident panels where a conductor is spelled as
/// abutting or overlapping boxes) comes back from the Cholesky attempt
/// rebuilt from its untouched upper triangle, and LU finishes the solve.
/// P is bit-symmetric by construction, so that LU sees exactly the
/// assembled P and gives C bit-identical to [`solve_capacitance`]. Each
/// fallback increments `bemcap_direct_not_spd_total`.
///
/// # Errors
///
/// * [`CoreError::Linalg`] if P is singular or shapes mismatch.
pub fn solve_dense_capacitance(p: Matrix, phi: &Matrix) -> Result<Matrix, CoreError> {
    let factor = LuFactor::new(p)?;
    if !factor.is_cholesky() {
        crate::metrics::metrics().direct_not_spd.inc();
    }
    capacitance(&factor, phi)
}

/// C = Φᵀ P⁻¹ Φ from a factor of P.
fn capacitance(factor: &LuFactor, phi: &Matrix) -> Result<Matrix, CoreError> {
    let rho = factor.solve_matrix(phi)?;
    Ok(phi.transpose().matmul(&rho)?)
}

/// Dense piecewise-constant Galerkin reference solver: assembles the full
/// panel matrix with exact closed forms and solves it by
/// [`solve_dense_capacitance`]. Exact up to
/// discretization error; O(N²) memory, so only for modest meshes.
///
/// The fill is Algorithm 1 on a basis of one flat template per panel:
/// the labels are the identity, so the [`PairPlan`](bemcap_basis::PairPlan)
/// of [`crate::assembly`] evaluates each distinct panel pair — up to
/// translation and mirroring — once, on the exact default engine and
/// without a cache, and scatters the values in k order. Every
/// [`Parallelism`] mode and worker count is therefore **bit-identical** to
/// the serial fill.
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
        solve_dense_capacitance(p, &phi)
    }

    /// The system-setup step alone on `workers` threads: assembles the
    /// dense panel matrix `P` (bit-identical to the serial fill at any
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
        let flat =
            |mp: &MeshPanel| BasisFunction::new(mp.conductor, vec![Template::flat(mp.panel)]);
        let set = BasisSet::new(mesh.panels().iter().map(flat).collect());
        let index = TemplateIndex::new(&set);
        let eng = GalerkinEngine::default();
        let n_cond = geo.conductor_count();
        let (asm, timings, _) =
            assemble(&eng, &index, &set, n_cond, geo.eps_rel(), parallelism, None);
        (asm.p, asm.phi, timings.len())
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
    use bemcap_linalg::LinalgError;
    use bemcap_quad::galerkin::PanelShape;

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
    fn planned_dense_fill_matches_the_direct_closed_form() {
        let eng = GalerkinEngine::default();
        let crossing = structures::crossing_wires(structures::CrossingParams::default());
        let bus = structures::bus_crossing(3, 3, structures::BusParams::default());
        for geo in [crossing, bus] {
            let mesh = Mesh::uniform(&geo, 8);
            let (planned, phi) = DensePwcSolver.assemble_system(&geo, &mesh, 1);
            // The direct fill: every panel pair i ≤ j, evaluated where it
            // sits, mirrored into the lower triangle.
            let panels = mesh.panels();
            let scale = 1.0 / (4.0 * std::f64::consts::PI * geo.eps());
            let mut direct = Matrix::zeros(panels.len(), panels.len());
            for (j, b) in panels.iter().enumerate() {
                for (i, a) in panels[..=j].iter().enumerate() {
                    let v = eng.panel_pair(&a.panel, PanelShape::Flat, &b.panel, PanelShape::Flat);
                    direct.set(i, j, scale * v);
                    direct.set(j, i, scale * v);
                }
            }
            for (got, want) in planned.as_slice().iter().zip(direct.as_slice()) {
                assert!((got - want).abs() <= 1e-7 * want.abs(), "P entry {got} vs {want}");
            }
            let (c_planned, _) = solve_capacitance(planned, &phi).unwrap();
            let (c_direct, _) = solve_capacitance(direct, &phi).unwrap();
            let worst = (&c_planned - &c_direct).max_abs();
            assert!(worst <= 1e-10 * c_direct.max_abs(), "C moved by {worst:e}");
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

    #[test]
    fn dense_solve_falls_back_to_lu_and_reports_a_singular_p() {
        let phi = Matrix::identity(2);
        let p = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 3.0]]).unwrap();
        let (lu, _) = solve_capacitance(p.clone(), &phi).unwrap();
        let chol = solve_dense_capacitance(p, &phi).unwrap();
        assert!((&chol - &lu).max_abs() <= 1e-15 * lu.max_abs());
        let singular = solve_dense_capacitance(Matrix::zeros(2, 2), &phi);
        assert!(matches!(singular, Err(CoreError::Linalg(LinalgError::Singular { .. }))));
    }
}
