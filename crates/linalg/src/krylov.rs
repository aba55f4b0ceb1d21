//! The Krylov subspace solver (restarted, right-preconditioned GMRES).
//!
//! It powers the FASTCAP-style baselines: multipole- and FFT-accelerated
//! solvers replace the dense matrix by a fast approximate matvec operator
//! and iterate. The paper's §1 observes that precisely this structure — a
//! large residual vector shared across compute nodes every iteration — is
//! what ruins their parallel scalability; we reproduce that structure
//! faithfully via the [`LinearOperator`] abstraction.
//!
//! The Arnoldi orthogonalization and solution-update loops run on the
//! chunked [`crate::kernels`] `dot`/`axpy`/`norm2` (via the crate-root
//! re-exports), so every GMRES iteration gets the multi-accumulator
//! reductions without this module knowing about blocking.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::{axpy, dot, norm2};

/// Abstract matrix-vector product, the interface between GMRES and the
/// FMM/pFFT backends.
pub trait LinearOperator {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `y = A x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `x.len() != dim()` or
    /// `y.len() != dim()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// Jacobi (diagonal) preconditioning from a stored inverse diagonal —
/// the one preconditioner, applied on the right of GMRES. The FMM and
/// pFFT operators supply their exact system diagonal's inverse.
#[derive(Debug, Clone)]
pub struct DiagonalPrecond {
    inv_diag: Vec<f64>,
}

impl DiagonalPrecond {
    /// Wraps an already-inverted diagonal (`inv_diag[i] = 1/A_ii`).
    pub fn new(inv_diag: Vec<f64>) -> DiagonalPrecond {
        DiagonalPrecond { inv_diag }
    }

    /// Computes `y = M⁻¹ x`.
    ///
    /// # Panics
    ///
    /// Panics when `x` or `y` is longer than the stored diagonal.
    pub fn apply_inv(&self, x: &[f64], y: &mut [f64]) {
        for i in 0..x.len() {
            y[i] = x[i] * self.inv_diag[i];
        }
    }
}

/// Iterative-solver caps shared by every Krylov-backed backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KrylovConfig {
    /// Relative residual tolerance ‖b − Ax‖/‖b‖.
    pub tol: f64,
    /// GMRES restart length.
    pub restart: usize,
    /// Cap on total matvecs per right-hand side.
    pub max_iters: usize,
}

impl Default for KrylovConfig {
    fn default() -> KrylovConfig {
        KrylovConfig { tol: 1e-6, restart: 40, max_iters: 600 }
    }
}

/// Statistics returned by the Krylov solvers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KrylovStats {
    /// Matrix-vector products performed (the iteration count).
    pub matvecs: usize,
    /// Times the GMRES Arnoldi basis was discarded and rebuilt (0 when
    /// convergence happened inside the first restart cycle).
    pub restarts: usize,
    /// Final relative residual ‖b − Ax‖/‖b‖.
    pub residual: f64,
}

impl KrylovStats {
    /// Accumulates another solve's counters into this one (residual keeps
    /// the worst of the two — the number that bounds every solution).
    pub fn absorb(&mut self, other: KrylovStats) {
        self.matvecs += other.matvecs;
        self.restarts += other.restarts;
        self.residual = self.residual.max(other.residual);
    }
}

impl std::fmt::Display for KrylovStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} iterations ({} restarts), residual {:.2e}",
            self.matvecs, self.restarts, self.residual
        )
    }
}

/// Restarted, right-preconditioned GMRES(m) under Jacobi preconditioning
/// — the one Krylov driver behind every iterative backend (FMM and pFFT
/// both solve through here).
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `b.len() != op.dim()`;
/// * [`LinalgError::NoConvergence`] if the residual has not dropped below
///   `cfg.tol` after `cfg.max_iters` total inner iterations.
pub fn gmres_with(
    op: &dyn LinearOperator,
    pre: &DiagonalPrecond,
    b: &[f64],
    cfg: &KrylovConfig,
) -> Result<(Vec<f64>, KrylovStats), LinalgError> {
    let n = op.dim();
    let (tol, max_iters) = (cfg.tol, cfg.max_iters);
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "gmres",
            detail: format!("rhs length {} != {n}", b.len()),
        });
    }
    let m = cfg.restart.max(1).min(n.max(1));
    let bnorm = norm2(b);
    if bnorm == 0.0 {
        return Ok((vec![0.0; n], KrylovStats::default()));
    }
    let mut x = vec![0.0; n];
    let mut matvecs = 0;
    let mut cycles = 0usize;
    let mut scratch = vec![0.0; n];
    let mut precond = vec![0.0; n];
    loop {
        // r = b - A x
        op.apply(&x, &mut scratch);
        matvecs += 1;
        let mut r: Vec<f64> = b.iter().zip(&scratch).map(|(bi, ai)| bi - ai).collect();
        let beta = norm2(&r);
        let restarts = cycles.saturating_sub(1);
        if beta / bnorm < tol {
            return Ok((x, KrylovStats { matvecs, restarts, residual: beta / bnorm }));
        }
        if matvecs >= max_iters {
            return Err(LinalgError::NoConvergence { iterations: matvecs, residual: beta / bnorm });
        }
        for ri in &mut r {
            *ri /= beta;
        }
        // Arnoldi with right preconditioning: K_j = span{ A M^-1 v }.
        let mut v: Vec<Vec<f64>> = vec![r];
        let mut h = vec![vec![0.0; m]; m + 1]; // h[i][j]
        let mut cs = vec![0.0; m];
        let mut sn = vec![0.0; m];
        let mut g = vec![0.0; m + 1];
        g[0] = beta;
        let mut j_done = 0;
        for j in 0..m {
            pre.apply_inv(&v[j], &mut precond);
            op.apply(&precond, &mut scratch);
            matvecs += 1;
            let mut w = scratch.clone();
            // Modified Gram-Schmidt.
            for (i, vi) in v.iter().enumerate() {
                let hij = dot(&w, vi);
                h[i][j] = hij;
                axpy(-hij, vi, &mut w);
            }
            let hj1 = norm2(&w);
            h[j + 1][j] = hj1;
            // Apply previous Givens rotations to column j.
            for i in 0..j {
                let t = cs[i] * h[i][j] + sn[i] * h[i + 1][j];
                h[i + 1][j] = -sn[i] * h[i][j] + cs[i] * h[i + 1][j];
                h[i][j] = t;
            }
            // New rotation to annihilate h[j+1][j].
            let denom = (h[j][j] * h[j][j] + hj1 * hj1).sqrt();
            if denom == 0.0 {
                cs[j] = 1.0;
                sn[j] = 0.0;
            } else {
                cs[j] = h[j][j] / denom;
                sn[j] = hj1 / denom;
            }
            h[j][j] = cs[j] * h[j][j] + sn[j] * h[j + 1][j];
            h[j + 1][j] = 0.0;
            g[j + 1] = -sn[j] * g[j];
            g[j] *= cs[j];
            j_done = j + 1;
            let rel = g[j + 1].abs() / bnorm;
            if hj1 == 0.0 || rel < tol || matvecs >= max_iters {
                break;
            }
            for wi in &mut w {
                *wi /= hj1;
            }
            v.push(w);
        }
        // Solve the small triangular system for the update coefficients.
        let k = j_done;
        let mut y = vec![0.0; k];
        for i in (0..k).rev() {
            let mut acc = g[i];
            for l in (i + 1)..k {
                acc -= h[i][l] * y[l];
            }
            y[i] = acc / h[i][i];
        }
        // x += M^-1 (V y)
        let mut update = vec![0.0; n];
        for (l, yl) in y.iter().enumerate() {
            axpy(*yl, &v[l], &mut update);
        }
        pre.apply_inv(&update, &mut precond);
        axpy(1.0, &precond, &mut x);
        cycles += 1;
        // Outer loop re-checks the true residual.
    }
}

/// The shared multi-right-hand-side capacitance driver: one preconditioned
/// GMRES solve per group (conductor), accumulating the grouped quadratic
/// form `C[g][k] = Σ_{i: group_of[i]=g} w_i x^{(k)}_i` where `x^{(k)}`
/// solves `A x = b^{(k)}` with `b^{(k)}_i = w_i [group_of[i] = k]`.
///
/// This is exactly the solve loop the FASTCAP-style baselines used to
/// duplicate: `w` are the Galerkin panel areas, groups are conductors, and
/// the result is the short-circuit capacitance matrix. Stats are
/// aggregated across all right-hand sides (matvecs and restarts summed,
/// residual the worst observed).
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `weights`/`group_of` do not
///   match `op.dim()` or a group index is out of range;
/// * any GMRES failure ([`LinalgError::NoConvergence`]).
pub fn gmres_grouped(
    op: &dyn LinearOperator,
    pre: &DiagonalPrecond,
    weights: &[f64],
    group_of: &[usize],
    groups: usize,
    cfg: &KrylovConfig,
) -> Result<(Matrix, KrylovStats), LinalgError> {
    let n = op.dim();
    if weights.len() != n || group_of.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "gmres_grouped",
            detail: format!("weights {} / groups {} != {n}", weights.len(), group_of.len()),
        });
    }
    if let Some(&bad) = group_of.iter().find(|&&g| g >= groups) {
        return Err(LinalgError::DimensionMismatch {
            op: "gmres_grouped",
            detail: format!("group index {bad} out of range 0..{groups}"),
        });
    }
    let mut c = Matrix::zeros(groups, groups);
    let mut stats = KrylovStats::default();
    for k in 0..groups {
        let rhs: Vec<f64> =
            weights.iter().zip(group_of).map(|(&w, &g)| if g == k { w } else { 0.0 }).collect();
        let (x, s) = gmres_with(op, pre, &rhs, cfg)?;
        stats.absorb(s);
        for (i, &g) in group_of.iter().enumerate() {
            c.add_to(g, k, weights[i] * x[i]);
        }
    }
    Ok((c, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dense matrix viewed as a [`LinearOperator`].
    struct DenseOperator {
        a: Matrix,
    }

    impl DenseOperator {
        fn new(a: Matrix) -> Result<DenseOperator, LinalgError> {
            if a.rows() != a.cols() {
                return Err(LinalgError::DimensionMismatch {
                    op: "dense_operator",
                    detail: format!("{}x{}", a.rows(), a.cols()),
                });
            }
            Ok(DenseOperator { a })
        }
    }

    impl LinearOperator for DenseOperator {
        fn dim(&self) -> usize {
            self.a.rows()
        }

        fn apply(&self, x: &[f64], y: &mut [f64]) {
            y.copy_from_slice(&self.a.matvec(x));
        }
    }

    fn spd(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                4.0 + i as f64 * 0.1
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs().powi(2))
            }
        })
    }

    /// Jacobi preconditioning from `a`'s own diagonal.
    fn jacobi(a: &Matrix) -> DiagonalPrecond {
        DiagonalPrecond::new((0..a.rows()).map(|i| 1.0 / a.get(i, i)).collect())
    }

    fn cfg(restart: usize, tol: f64, max_iters: usize) -> KrylovConfig {
        KrylovConfig { tol, restart, max_iters }
    }

    #[test]
    fn stats_display_iterations_restarts_and_residual() {
        let s = KrylovStats { matvecs: 42, restarts: 3, residual: 1.5e-8 };
        assert_eq!(format!("{s}"), "42 iterations (3 restarts), residual 1.50e-8");
    }

    #[test]
    fn gmres_solves_spd() {
        let n = 30;
        let a = spd(n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let b = a.matvec(&x_true);
        let pre = jacobi(&a);
        let op = DenseOperator::new(a).unwrap();
        let (x, stats) = gmres_with(&op, &pre, &b, &cfg(20, 1e-12, 500)).unwrap();
        assert!(stats.residual < 1e-12);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8);
        }
    }

    #[test]
    fn gmres_nonsymmetric() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[0.1, 3.0, -1.0], &[0.0, 0.5, 4.0]]).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let op = DenseOperator::new(a.clone()).unwrap();
        let (x, _) = gmres_with(&op, &jacobi(&a), &b, &cfg(3, 1e-13, 200)).unwrap();
        let ax = a.matvec(&x);
        for (ai, bi) in ax.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn gmres_with_restart_smaller_than_dim() {
        let n = 25;
        let a = spd(n);
        let b = vec![1.0; n];
        let pre = jacobi(&a);
        let op = DenseOperator::new(a).unwrap();
        let (x, stats) = gmres_with(&op, &pre, &b, &cfg(5, 1e-10, 2000)).unwrap();
        assert!(stats.residual < 1e-10);
        assert!(!x.iter().any(|v| v.is_nan()));
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = Matrix::identity(4);
        let pre = jacobi(&a);
        let op = DenseOperator::new(a).unwrap();
        let (x, stats) = gmres_with(&op, &pre, &[0.0; 4], &cfg(4, 1e-12, 10)).unwrap();
        assert_eq!(x, vec![0.0; 4]);
        assert_eq!(stats.matvecs, 0);
    }

    #[test]
    fn no_convergence_reported() {
        let a = spd(20);
        let pre = jacobi(&a);
        let op = DenseOperator::new(a).unwrap();
        let err = gmres_with(&op, &pre, &[1.0; 20], &cfg(2, 1e-30, 3));
        assert!(matches!(err, Err(LinalgError::NoConvergence { .. })));
    }

    #[test]
    fn dimension_checked() {
        let a = Matrix::identity(3);
        let pre = jacobi(&a);
        let op = DenseOperator::new(a).unwrap();
        assert!(gmres_with(&op, &pre, &[1.0; 2], &cfg(2, 1e-10, 10)).is_err());
        assert!(DenseOperator::new(Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn restarts_are_counted() {
        let n = 25;
        let a = spd(n);
        let b = vec![1.0; n];
        let pre = jacobi(&a);
        let op = DenseOperator::new(a).unwrap();
        // A restart length far below the dimension forces several cycles.
        let (_, tight) = gmres_with(&op, &pre, &b, &cfg(3, 1e-12, 2000)).unwrap();
        assert!(tight.restarts > 0, "restart 3 on n=25 must cycle: {tight:?}");
        // Full-length GMRES converges inside the first cycle.
        let (_, full) = gmres_with(&op, &pre, &b, &cfg(n, 1e-12, 2000)).unwrap();
        assert_eq!(full.restarts, 0, "{full:?}");
    }

    #[test]
    fn grouped_driver_matches_the_hand_rolled_loop() {
        // 8 unknowns in 2 groups with unit-ish weights: the grouped driver
        // must produce exactly the per-RHS loop it replaces.
        let n = 8;
        let a = spd(n);
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + 0.1 * i as f64).collect();
        let group_of = [0, 0, 1, 1, 0, 1, 0, 1];
        let pre = jacobi(&a);
        let op = DenseOperator::new(a).unwrap();
        let cfg = cfg(8, 1e-12, 500);
        let (c, stats) = gmres_grouped(&op, &pre, &weights, &group_of, 2, &cfg).unwrap();
        let mut want = Matrix::zeros(2, 2);
        let mut matvecs = 0;
        for k in 0..2 {
            let rhs: Vec<f64> = weights
                .iter()
                .zip(&group_of)
                .map(|(&w, &g)| if g == k { w } else { 0.0 })
                .collect();
            let (x, s) = gmres_with(&op, &pre, &rhs, &cfg).unwrap();
            matvecs += s.matvecs;
            for (i, &g) in group_of.iter().enumerate() {
                want.add_to(g, k, weights[i] * x[i]);
            }
        }
        assert_eq!(c.as_slice(), want.as_slice());
        assert_eq!(stats.matvecs, matvecs);
        // Symmetric operator, symmetric grouping: C is symmetric to solver
        // tolerance.
        assert!(c.is_symmetric(1e-9));
    }

    #[test]
    fn grouped_driver_checks_shapes() {
        let a = Matrix::identity(3);
        let pre = jacobi(&a);
        let op = DenseOperator::new(a).unwrap();
        let cfg = KrylovConfig::default();
        assert!(gmres_grouped(&op, &pre, &[1.0; 2], &[0, 0, 0], 1, &cfg).is_err());
        assert!(gmres_grouped(&op, &pre, &[1.0; 3], &[0, 2, 0], 2, &cfg).is_err());
    }
}
