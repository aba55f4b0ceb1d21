//! FASTCAP-style capacitance extraction: multipole matvec + Krylov solve, plus
//! the reference-refinement loop of §6.

use std::time::Instant;

use bemcap_geom::{Geometry, Mesh};
use bemcap_linalg::{gmres_grouped, DiagonalPrecond, KrylovConfig, KrylovStats, Matrix};

use crate::error::FmmError;
use crate::operator::{FmmConfig, FmmOperator, MatvecTimings};

/// The multipole-accelerated solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmmSolver {
    /// Operator tuning.
    pub config: FmmConfig,
    /// Relative residual tolerance per right-hand side.
    pub tol: f64,
    /// Krylov window length ([`KrylovConfig::restart`]): the directions
    /// one right-hand side builds before its window restarts; twice as
    /// many are recycled across the conductors.
    pub restart: usize,
    /// Cap on matvecs per right-hand side.
    pub max_iters: usize,
}

impl Default for FmmSolver {
    fn default() -> Self {
        FmmSolver { config: FmmConfig::default(), tol: 1e-6, restart: 40, max_iters: 600 }
    }
}

/// Solution record of one extraction.
#[derive(Debug, Clone)]
pub struct FmmSolution {
    /// The n×n short-circuit capacitance matrix (F).
    pub capacitance: Matrix,
    /// Panels in the discretization.
    pub panel_count: usize,
    /// Total matvecs across all right-hand sides.
    pub total_matvecs: usize,
    /// Seconds building the operator (system setup).
    pub setup_seconds: f64,
    /// Seconds in the Krylov solves (system solving).
    pub solve_seconds: f64,
    /// Operator memory footprint in bytes.
    pub memory_bytes: usize,
    /// Cumulative matvec phase timings.
    pub matvec_timings: MatvecTimings,
}

impl FmmSolver {
    /// The iterative-solver caps as a [`KrylovConfig`].
    pub fn krylov_config(&self) -> KrylovConfig {
        KrylovConfig { tol: self.tol, restart: self.restart, max_iters: self.max_iters }
    }

    /// Extracts the capacitance matrix of `geo` discretized by `mesh`:
    /// builds the operator, then runs [`FmmSolver::solve_prepared`] under
    /// the operator's Jacobi (diagonal) preconditioner.
    ///
    /// # Errors
    ///
    /// * [`FmmError::EmptyMesh`] for empty meshes;
    /// * [`FmmError::Solve`] if the Krylov solve fails to converge.
    pub fn solve(&self, geo: &Geometry, mesh: &Mesh) -> Result<FmmSolution, FmmError> {
        let t0 = Instant::now();
        let op = FmmOperator::new(mesh, geo.eps_rel(), self.config)?;
        let setup_seconds = t0.elapsed().as_secs_f64();
        let pre = DiagonalPrecond::new(op.inv_diag().to_vec());
        let t1 = Instant::now();
        let (capacitance, stats) = self.solve_prepared(&op, mesh, geo.conductor_count(), &pre)?;
        let solve_seconds = t1.elapsed().as_secs_f64();
        Ok(FmmSolution {
            capacitance,
            panel_count: mesh.panel_count(),
            total_matvecs: stats.matvecs,
            setup_seconds,
            solve_seconds,
            memory_bytes: op.memory_bytes(),
            matvec_timings: op.timings(),
        })
    }

    /// The solve step on an already-built operator — one conductor RHS per
    /// solve, over one recycled Krylov space, through the shared
    /// [`gmres_grouped`] driver (`bemcap_linalg`) under the Jacobi
    /// preconditioner `pre` (built from [`FmmOperator::inv_diag`]). Lets
    /// callers that prepared the operator themselves (the `bemcap-core`
    /// backend layer) reuse it instead of rebuilding.
    ///
    /// # Errors
    ///
    /// * [`FmmError::Solve`] if the Krylov solve fails to converge or
    ///   shapes mismatch.
    pub fn solve_prepared(
        &self,
        op: &FmmOperator,
        mesh: &Mesh,
        n_cond: usize,
        pre: &DiagonalPrecond,
    ) -> Result<(Matrix, KrylovStats), FmmError> {
        // Galerkin RHS: ∫ψ_i φ ds = A_i on conductor k, 0 elsewhere;
        // C_lk = Σ_{i on l} A_i ρ_i — the grouped quadratic form.
        let conductor_of: Vec<usize> = mesh.panels().iter().map(|p| p.conductor).collect();
        let (c, stats) =
            gmres_grouped(op, pre, op.areas(), &conductor_of, n_cond, &self.krylov_config())?;
        Ok((c, stats))
    }

    /// The §6 reference loop: starting from `mesh`, refine the
    /// discretization by 10 % per iteration until every capacitance entry
    /// changes by less than `rel_tol` (the paper uses 0.1 %), then return
    /// the last solution.
    ///
    /// # Errors
    ///
    /// * solver errors, or [`FmmError::NoRefinementConvergence`] if the
    ///   loop hits `max_refinements`.
    pub fn reference(
        &self,
        geo: &Geometry,
        mut mesh: Mesh,
        rel_tol: f64,
        max_refinements: usize,
    ) -> Result<FmmSolution, FmmError> {
        let mut prev = self.solve(geo, &mesh)?;
        let mut last_change = f64::INFINITY;
        for _ in 0..max_refinements {
            mesh = mesh.refined(geo, 1.1);
            let next = self.solve(geo, &mesh)?;
            last_change = max_rel_change(&prev.capacitance, &next.capacitance);
            prev = next;
            if last_change < rel_tol {
                return Ok(prev);
            }
        }
        Err(FmmError::NoRefinementConvergence { iterations: max_refinements, last_change })
    }
}

/// Largest relative entry change between two same-shape matrices, measured
/// against the largest magnitude in `b`.
fn max_rel_change(a: &Matrix, b: &Matrix) -> f64 {
    let scale = b.max_abs().max(f64::MIN_POSITIVE);
    let mut worst = 0.0_f64;
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            worst = worst.max((a.get(i, j) - b.get(i, j)).abs() / scale);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use bemcap_geom::{structures, EPS0};

    #[test]
    fn parallel_plate_capacitance() {
        // 1 µm plates at 0.2 µm gap: C ≈ ε₀ A/d = 44.3 aF plus fringe
        // (substantially more for w/d = 5).
        let w = 1.0e-6;
        let d = 0.2e-6;
        let geo = structures::parallel_plates(w, w, d);
        let mesh = bemcap_geom::Mesh::uniform(&geo, 10);
        let sol = FmmSolver::default().solve(&geo, &mesh).unwrap();
        let ideal = EPS0 * w * w / d;
        let c01 = -sol.capacitance.get(0, 1);
        assert!(c01 > ideal, "coupling {c01} should exceed ideal {ideal} (fringe)");
        assert!(c01 < 3.0 * ideal, "coupling {c01} vs ideal {ideal}");
        // Symmetry of the capacitance matrix.
        assert!(sol.capacitance.is_symmetric(5e-2));
        // Diagonal positive, off-diagonal negative.
        assert!(sol.capacitance.get(0, 0) > 0.0);
        assert!(sol.capacitance.get(0, 1) < 0.0);
    }

    #[test]
    fn unit_square_plate_self_capacitance() {
        // Classic validation: an isolated unit square plate has
        // C ≈ 0.367 · 4πε₀ ≈ 40.8 pF (literature 0.3667–0.368).
        let geo = structures::single_plate(1.0);
        let mesh = bemcap_geom::Mesh::uniform(&geo, 12);
        let sol = FmmSolver::default().solve(&geo, &mesh).unwrap();
        let c = sol.capacitance.get(0, 0);
        let expect = 0.3667 * 4.0 * std::f64::consts::PI * EPS0;
        // Thin-box plate (two faces + rim) at moderate mesh: a few percent.
        assert!((c - expect).abs() / expect < 0.1, "unit plate C = {c}, literature {expect}");
    }

    #[test]
    fn cube_self_capacitance() {
        // C_cube ≈ 0.6607 · 4πε₀ a.
        let geo = structures::cube(1.0);
        let mesh = bemcap_geom::Mesh::uniform(&geo, 8);
        let sol = FmmSolver::default().solve(&geo, &mesh).unwrap();
        let c = sol.capacitance.get(0, 0);
        let expect = 0.6607 * 4.0 * std::f64::consts::PI * EPS0;
        assert!((c - expect).abs() / expect < 0.08, "cube C = {c}, expect {expect}");
    }

    #[test]
    fn refinement_reference_converges_loosely() {
        let geo = structures::parallel_plates(1.0e-6, 1.0e-6, 0.3e-6);
        let mesh = bemcap_geom::Mesh::uniform(&geo, 4);
        // Loose tolerance so the test stays fast.
        let sol = FmmSolver::default().reference(&geo, mesh, 0.05, 12).unwrap();
        assert!(sol.capacitance.get(0, 0) > 0.0);
    }

    #[test]
    fn refinement_failure_reported() {
        let geo = structures::parallel_plates(1.0e-6, 1.0e-6, 0.3e-6);
        let mesh = bemcap_geom::Mesh::uniform(&geo, 3);
        let err = FmmSolver::default().reference(&geo, mesh, 1e-9, 1);
        assert!(matches!(err, Err(FmmError::NoRefinementConvergence { .. })));
    }
}
