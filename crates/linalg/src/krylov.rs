//! The Krylov subspace solver: right-preconditioned GCR over one space of
//! directions recycled across the right-hand sides.
//!
//! It powers the FASTCAP-style baselines: multipole- and FFT-accelerated
//! solvers replace the dense matrix by a fast approximate matvec operator
//! and iterate. The paper's §1 observes that precisely this structure — a
//! large residual vector shared across compute nodes every iteration — is
//! what ruins their parallel scalability; we reproduce that structure
//! faithfully via the [`LinearOperator`] abstraction.
//!
//! FASTCAP (Nabors & White, IEEE TCAD 10(11), 1991) solves each
//! conductor's right-hand side from zero. [`gmres_grouped`] instead keeps
//! each direction `z` it builds together with its image `w = A z`, the
//! images orthonormal, as in Parks et al., "Recycling Krylov subspaces
//! for sequences of linear systems" (SIAM J. Sci. Comput. 28(5), 2006):
//! a new right-hand side is first projected onto the kept images, at no
//! matvec cost, and only the remainder is iterated on. The kept space is
//! capped from [`KrylovConfig::restart`]: a window of at most `restart`
//! directions for the current right-hand side, cleared when full, plus
//! at most `2 × restart` recycled directions: the first ones that earlier
//! right-hand sides' final windows supply.
//!
//! The orthogonalization and update loops run on the chunked
//! [`crate::kernels`] `dot`/`axpy`/`norm2` (via the crate-root
//! re-exports), so every iteration gets the multi-accumulator reductions
//! without this module knowing about blocking.

use crate::error::LinalgError;
use crate::kernels::scale;
use crate::matrix::Matrix;
use crate::{axpy, dot, norm2};

/// Abstract matrix-vector product, the interface between the Krylov
/// driver and the FMM/pFFT backends.
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
/// the one preconditioner, applied on the right. The FMM and pFFT
/// operators supply their exact system diagonal's inverse.
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
    /// Window length: the directions one right-hand side may build before
    /// its window restarts. Twice as many are recycled across right-hand
    /// sides.
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
    /// Matrix-vector products performed (the iteration count), including
    /// the one true-residual check per accepted right-hand side.
    pub matvecs: usize,
    /// Times a right-hand side's window of directions filled and was
    /// cleared (0 when every solve fit in one window).
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

/// One kept direction: `z` in solution space and its image `w = A z`,
/// scaled to `‖w‖ = 1` and orthogonal to every other kept image.
struct Direction {
    z: Vec<f64>,
    w: Vec<f64>,
}

/// Removes from `r` its components along the kept images and adds the
/// matching multiples of their directions to `x`, so `r = b − A x` stays
/// true (up to rounding).
fn project<'a>(kept: impl Iterator<Item = &'a Direction>, r: &mut [f64], x: &mut [f64]) {
    for d in kept {
        let a = dot(r, &d.w);
        axpy(-a, &d.w, r);
        axpy(a, &d.z, x);
    }
}

/// Solves `A x = b` by right-preconditioned GCR: projects `b` onto the
/// `recycled` images, then adds directions to a window of at most `m`,
/// each orthogonalized against every kept image by one modified
/// Gram–Schmidt pass. Returns `x`, the last window and the counters.
fn gcr(
    op: &dyn LinearOperator,
    pre: &DiagonalPrecond,
    b: &[f64],
    recycled: &[Direction],
    m: usize,
    cfg: &KrylovConfig,
) -> Result<(Vec<f64>, Vec<Direction>, KrylovStats), LinalgError> {
    let n = b.len();
    let mut x = vec![0.0; n];
    let mut window: Vec<Direction> = Vec::with_capacity(m);
    let mut stats = KrylovStats::default();
    let bnorm = norm2(b);
    if bnorm == 0.0 {
        return Ok((x, window, stats));
    }
    let mut r = b.to_vec();
    project(recycled.iter(), &mut r, &mut x);
    loop {
        let mut rel = norm2(&r) / bnorm;
        if rel < cfg.tol {
            // The updated residual drifts from b − Ax by rounding; accept
            // a solve only on the true one.
            op.apply(&x, &mut r);
            stats.matvecs += 1;
            for (ri, bi) in r.iter_mut().zip(b) {
                *ri = bi - *ri;
            }
            rel = norm2(&r) / bnorm;
            if rel < cfg.tol {
                stats.residual = rel;
                return Ok((x, window, stats));
            }
            project(recycled.iter().chain(&window), &mut r, &mut x);
        }
        if stats.matvecs >= cfg.max_iters {
            return Err(LinalgError::NoConvergence { iterations: stats.matvecs, residual: rel });
        }
        if window.len() == m {
            window.clear();
            stats.restarts += 1;
        }
        let mut z = vec![0.0; n];
        pre.apply_inv(&r, &mut z);
        let mut w = vec![0.0; n];
        op.apply(&z, &mut w);
        stats.matvecs += 1;
        let image = norm2(&w);
        for d in recycled.iter().chain(&window) {
            let h = dot(&w, &d.w);
            // Both axpys in one sweep: `w` and `z` stay paired.
            for (((wi, zi), dw), dz) in w.iter_mut().zip(&mut z).zip(&d.w).zip(&d.z) {
                *wi -= h * dw;
                *zi -= h * dz;
            }
        }
        let norm = norm2(&w);
        // Breakdown: A z lies in the kept span (or is not finite), so no
        // step can lower the residual.
        if !(norm > f64::EPSILON * image && norm.is_finite()) {
            return Err(LinalgError::NoConvergence { iterations: stats.matvecs, residual: rel });
        }
        scale(1.0 / norm, &mut w);
        scale(1.0 / norm, &mut z);
        let a = dot(&r, &w);
        axpy(-a, &w, &mut r);
        axpy(a, &z, &mut x);
        window.push(Direction { z, w });
    }
}

/// The shared multi-right-hand-side capacitance driver: one
/// preconditioned GCR solve per group (conductor) over a recycled space,
/// accumulating the grouped quadratic form
/// `C[g][k] = Σ_{i: group_of[i]=g} w_i x^{(k)}_i` where `x^{(k)}` solves
/// `A x = b^{(k)}` with `b^{(k)}_i = w_i [group_of[i] = k]`.
///
/// This is exactly the solve loop the FASTCAP-style baselines share: `w`
/// are the Galerkin panel areas, groups are conductors, and the result is
/// the short-circuit capacitance matrix. Each group's final window of
/// directions joins the recycled ones until they number
/// `2 × cfg.restart`; later windows are dropped (keeping the oldest beat
/// keeping the newest on bus 8×8: 607 against 714 matvecs). Stats are
/// aggregated across all right-hand sides (matvecs and restarts summed,
/// residual the worst observed); `cfg.max_iters` caps each right-hand
/// side's matvecs.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `weights`/`group_of` do not
///   match `op.dim()` or a group index is out of range;
/// * [`LinalgError::NoConvergence`] if a right-hand side's residual has
///   not dropped below `cfg.tol` after `cfg.max_iters` matvecs, or a new
///   direction breaks down (its image lies in the kept span).
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
    let m = cfg.restart.clamp(1, n.max(1));
    let mut recycled = Vec::with_capacity(2 * m);
    let mut c = Matrix::zeros(groups, groups);
    let mut stats = KrylovStats::default();
    for k in 0..groups {
        let rhs: Vec<f64> =
            weights.iter().zip(group_of).map(|(&w, &g)| if g == k { w } else { 0.0 }).collect();
        let (x, window, s) = gcr(op, pre, &rhs, &recycled, m, cfg)?;
        stats.absorb(s);
        recycled.extend(window.into_iter().take(2 * m - recycled.len()));
        for (i, &g) in group_of.iter().enumerate() {
            c.add_to(g, k, weights[i] * x[i]);
        }
    }
    Ok((c, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LuFactor;

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

    /// A nonsymmetric, diagonally dominant operator.
    fn nonsymmetric(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Equal => 3.0 + (i % 5) as f64 * 0.3,
            std::cmp::Ordering::Less => 0.9 / (1.0 + (j - i) as f64),
            std::cmp::Ordering::Greater => -0.4 / (1.0 + (i - j) as f64).powi(2),
        })
    }

    /// Jacobi preconditioning from `a`'s own diagonal.
    fn jacobi(a: &Matrix) -> DiagonalPrecond {
        DiagonalPrecond::new((0..a.rows()).map(|i| 1.0 / a.get(i, i)).collect())
    }

    fn cfg(restart: usize, tol: f64, max_iters: usize) -> KrylovConfig {
        KrylovConfig { tol, restart, max_iters }
    }

    /// The grouped quadratic form of `a` by a direct solve per group.
    fn direct(a: &Matrix, weights: &[f64], group_of: &[usize], groups: usize) -> Matrix {
        let lu = LuFactor::new(a.clone()).unwrap();
        let mut c = Matrix::zeros(groups, groups);
        for k in 0..groups {
            let rhs: Vec<f64> =
                weights.iter().zip(group_of).map(|(&w, &g)| if g == k { w } else { 0.0 }).collect();
            let x = lu.solve_vec(&rhs).unwrap();
            for (i, &g) in group_of.iter().enumerate() {
                c.add_to(g, k, weights[i] * x[i]);
            }
        }
        c
    }

    /// Largest entry of `c − want` relative to the largest of `want`.
    fn rel_diff(c: &Matrix, want: &Matrix) -> f64 {
        let (c, want) = (c.as_slice(), want.as_slice());
        let diff = c.iter().zip(want).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        diff / want.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    /// `n` unknowns dealt round-robin into `groups` groups, with weights
    /// around 1.
    fn grouping(n: usize, groups: usize) -> (Vec<f64>, Vec<usize>) {
        ((0..n).map(|i| 1.0 + 0.1 * (i % 7) as f64).collect(), (0..n).map(|i| i % groups).collect())
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
        let (weights, group_of) = grouping(n, 4);
        let op = DenseOperator::new(a.clone()).unwrap();
        let (c, stats) =
            gmres_grouped(&op, &jacobi(&a), &weights, &group_of, 4, &cfg(20, 1e-12, 500)).unwrap();
        assert!(stats.residual < 1e-12, "{stats:?}");
        assert!(rel_diff(&c, &direct(&a, &weights, &group_of, 4)) < 1e-10);
        assert!(c.is_symmetric(1e-10 * c.get(0, 0)));
    }

    #[test]
    fn gmres_nonsymmetric() {
        let n = 24;
        let a = nonsymmetric(n);
        let (weights, group_of) = grouping(n, 3);
        let tol = 1e-8;
        let op = DenseOperator::new(a.clone()).unwrap();
        let (c, stats) =
            gmres_grouped(&op, &jacobi(&a), &weights, &group_of, 3, &cfg(10, tol, 500)).unwrap();
        assert!(stats.residual < tol, "{stats:?}");
        assert!(rel_diff(&c, &direct(&a, &weights, &group_of, 3)) < tol);
    }

    #[test]
    fn gmres_with_restart_smaller_than_dim() {
        let n = 25;
        let a = spd(n);
        let (weights, group_of) = grouping(n, 2);
        let op = DenseOperator::new(a.clone()).unwrap();
        let (c, stats) =
            gmres_grouped(&op, &jacobi(&a), &weights, &group_of, 2, &cfg(2, 1e-10, 2000)).unwrap();
        assert!(stats.residual < 1e-10, "{stats:?}");
        assert!(rel_diff(&c, &direct(&a, &weights, &group_of, 2)) < 1e-8);
    }

    #[test]
    fn rhs_inside_the_kept_space_costs_one_matvec() {
        // Two groups with the same right-hand side: the second is the
        // first's projection onto the recycled images, so only the
        // true-residual check applies the operator.
        let n = 12;
        let a = nonsymmetric(n);
        let op = DenseOperator::new(a.clone()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let cfg = cfg(n, 1e-10, 100);
        let mut recycled = Vec::new();
        let (x, window, first) = gcr(&op, &jacobi(&a), &b, &recycled, n, &cfg).unwrap();
        assert!(first.matvecs > 1, "{first:?}");
        recycled.extend(window);
        let (again, _, second) = gcr(&op, &jacobi(&a), &b, &recycled, n, &cfg).unwrap();
        assert_eq!(second.matvecs, 1, "{second:?}");
        assert!(second.residual < 1e-10);
        for (u, v) in again.iter().zip(&x) {
            assert!((u - v).abs() < 1e-9 * v.abs().max(1.0));
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        // Group 1 has zero weight everywhere: a zero column, no matvecs.
        let a = spd(6);
        let op = DenseOperator::new(a.clone()).unwrap();
        let weights = [1.0, 0.0, 2.0, 0.0, 1.5, 0.0];
        let group_of = [0, 1, 0, 1, 0, 1];
        let pre = jacobi(&a);
        let (c, both) =
            gmres_grouped(&op, &pre, &weights, &group_of, 2, &cfg(6, 1e-12, 50)).unwrap();
        assert_eq!((c.get(0, 1), c.get(1, 1), c.get(1, 0)), (0.0, 0.0, 0.0));
        let (_, alone) =
            gmres_grouped(&op, &pre, &weights, &[0, 0, 0, 0, 0, 0], 1, &cfg(6, 1e-12, 50)).unwrap();
        assert_eq!(both.matvecs, alone.matvecs);
    }

    #[test]
    fn breakdown_is_an_error_not_nan() {
        // A singular operator whose range misses the right-hand side: the
        // first image is zero.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]).unwrap();
        let op = DenseOperator::new(a).unwrap();
        let pre = DiagonalPrecond::new(vec![1.0, 1.0]);
        let err = gmres_grouped(&op, &pre, &[1.0, 1.0], &[1, 0], 2, &cfg(4, 1e-10, 50));
        assert!(matches!(err, Err(LinalgError::NoConvergence { iterations: 1, .. })), "{err:?}");
    }

    #[test]
    fn no_convergence_reported() {
        let a = spd(20);
        let op = DenseOperator::new(a.clone()).unwrap();
        let err = gmres_grouped(&op, &jacobi(&a), &[1.0; 20], &[0; 20], 1, &cfg(2, 1e-30, 3));
        assert!(matches!(err, Err(LinalgError::NoConvergence { iterations: 3, .. })), "{err:?}");
    }

    #[test]
    fn dimension_checked() {
        let a = Matrix::identity(3);
        let pre = jacobi(&a);
        let op = DenseOperator::new(a).unwrap();
        let cfg = cfg(2, 1e-10, 10);
        assert!(gmres_grouped(&op, &pre, &[1.0; 2], &[0, 0], 1, &cfg).is_err());
        assert!(DenseOperator::new(Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn restarts_are_counted() {
        let n = 25;
        let a = spd(n);
        let pre = jacobi(&a);
        let op = DenseOperator::new(a).unwrap();
        let one = |restart| {
            gmres_grouped(&op, &pre, &[1.0; 25], &[0; 25], 1, &cfg(restart, 1e-12, 2000)).unwrap().1
        };
        // A window far below the dimension overflows.
        let tight = one(3);
        assert!(tight.restarts > 0, "window 3 on n=25 must restart: {tight:?}");
        // A full-length window never does, nor does one past the
        // dimension (a wire `restart` is clamped before anything is
        // allocated for it).
        let full = one(n);
        assert_eq!(full.restarts, 0, "{full:?}");
        assert_eq!(one(usize::MAX), full);
    }

    #[test]
    fn grouped_driver_matches_the_hand_rolled_loop() {
        // 8 unknowns in 2 groups with unit-ish weights: the recycled
        // driver must agree with a direct solve per group.
        let n = 8;
        let a = spd(n);
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + 0.1 * i as f64).collect();
        let group_of = [0, 0, 1, 1, 0, 1, 0, 1];
        let op = DenseOperator::new(a.clone()).unwrap();
        let (c, stats) =
            gmres_grouped(&op, &jacobi(&a), &weights, &group_of, 2, &cfg(8, 1e-12, 500)).unwrap();
        assert!(stats.residual < 1e-12, "{stats:?}");
        assert!(rel_diff(&c, &direct(&a, &weights, &group_of, 2)) < 1e-11);
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
