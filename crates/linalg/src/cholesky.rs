//! Blocked, in-place Cholesky factorization for symmetric positive-definite
//! systems.
//!
//! The dense piecewise-constant Galerkin P is symmetric positive definite
//! for well-posed geometries, so Cholesky is its direct solver:
//! [`crate::LuFactor::new`] tries it first on any bit-symmetric matrix. The
//! factorization is right-looking and blocked: each step factors a
//! 64-column diagonal block and the panel below it row by row on
//! [`kernels::dot`], then subtracts the panel's outer product from the
//! trailing lower triangle on the [`kernels::gemm_strided`] micro-kernel,
//! in 128-row tiles. Measured on the dense P of bus 20×20 (N = 1 360, one
//! thread on a shared 2-core x86-64 box, five runs), it factors in
//! 0.15–0.21 s, where the unblocked triple loop takes 0.66–0.82 s and
//! [`crate::LuFactor`] 0.48–0.53 s. Most of the gain is the blocking, not
//! the halved flop count: the trailing update runs on the gemm
//! micro-kernel instead of one dot per entry.
//!
//! The factor overwrites its input's lower triangle and diagonal and never
//! writes the strict upper triangle, so a refused factorization of a
//! symmetric input hands it back intact (see [`Refused`]).

use crate::error::LinalgError;
use crate::kernels;
use crate::matrix::Matrix;

/// Columns per step: the width of the diagonal block and of the copied
/// panel.
const PANEL: usize = 64;

/// Rows per tile of the trailing update.
const TILE: usize = 128;

/// Smallest accepted pivot, relative to its input diagonal entry. Below
/// √ε a pivot has lost half its digits to cancellation: the matrix is
/// singular to working precision (two coincident panels give ≈ 1e-16),
/// so it is refused like a negative pivot. The dense P of every
/// well-posed structure measured keeps its pivots above 4e-2 of the
/// diagonal.
const PIVOT_FLOOR: f64 = 1.5e-8;

/// A Cholesky factor `A = L Lᵀ`, stored in the factorized matrix itself:
/// L in the lower triangle and diagonal, the input's untouched entries in
/// the strict upper triangle.
///
/// ```
/// use bemcap_linalg::{CholeskyFactor, Matrix};
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let ch = CholeskyFactor::new(a).map_err(|refused| refused.error)?;
/// let x = ch.solve_vec(&[6.0, 5.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), bemcap_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    l: Matrix,
}

/// A matrix [`CholeskyFactor::new`] refused, handed back with the reason.
///
/// On [`LinalgError::NotPositiveDefinite`] the strict upper triangle is
/// copied into the lower one and the saved diagonal put back, so a
/// bit-symmetric input comes back bit for bit and can go on to another
/// factorization; any other input comes back symmetrized from its upper
/// triangle. The other refusals hand the input back untouched.
#[derive(Debug)]
pub struct Refused {
    /// Why the factorization was refused.
    pub error: LinalgError,
    /// The input matrix, as described above.
    pub matrix: Matrix,
}

impl CholeskyFactor {
    /// Factorizes a symmetric positive-definite matrix in place, consuming
    /// it.
    ///
    /// `a` must be symmetric in both triangles: the factorization reads
    /// and writes only the lower triangle and the diagonal, but a refusal
    /// rebuilds the lower triangle from the upper one (see [`Refused`]).
    ///
    /// # Errors
    ///
    /// [`Refused`], carrying `a` back, with
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square;
    /// * [`LinalgError::NotFinite`] on non-finite input;
    /// * [`LinalgError::NotPositiveDefinite`] when a diagonal pivot is NaN
    ///   or not above 1.5e-8 of its input diagonal (not positive, or
    ///   singular to working precision).
    pub fn new(mut a: Matrix) -> Result<CholeskyFactor, Refused> {
        if a.rows() != a.cols() {
            let detail = format!("{}x{}", a.rows(), a.cols());
            let error = LinalgError::DimensionMismatch { op: "cholesky", detail };
            return Err(Refused { error, matrix: a });
        }
        if !a.is_finite() {
            return Err(Refused { error: LinalgError::NotFinite, matrix: a });
        }
        debug_assert!(a.is_symmetric(0.0), "cholesky: input is not symmetric");
        let n = a.rows();
        let diag: Vec<f64> = (0..n).map(|i| a.get(i, i)).collect();
        let d = a.as_mut_slice();
        match factor_in_place(d, n, &diag) {
            Ok(()) => Ok(CholeskyFactor { l: a }),
            Err(index) => {
                for i in 0..n {
                    for j in 0..i {
                        d[i * n + j] = d[j * n + i];
                    }
                    d[i * n + i] = diag[i];
                }
                Err(Refused { error: LinalgError::NotPositiveDefinite { index }, matrix: a })
            }
        }
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// `L[i, i]`.
    pub(crate) fn l_diag(&self, i: usize) -> f64 {
        self.l.get(i, i)
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky_solve",
                detail: format!("rhs length {} != {n}", b.len()),
            });
        }
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        Ok(x)
    }

    /// Solves `A X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.rows() != dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky_solve_matrix",
                detail: format!("rhs rows {} != {n}", b.rows()),
            });
        }
        // Each column of B becomes a contiguous row of Bᵀ.
        let mut xt = b.transpose();
        for x in xt.as_mut_slice().chunks_exact_mut(n.max(1)) {
            self.solve_in_place(x);
        }
        Ok(xt.transpose())
    }

    /// `x ← A⁻¹ x` by two sweeps over the rows of L: forward `L y = x` as
    /// row·prefix dots, backward `Lᵀ x = y` as one axpy of each row of L
    /// into the unsolved prefix.
    fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.dim();
        let l = self.l.as_slice();
        for i in 0..n {
            let (head, tail) = x.split_at_mut(i);
            tail[0] = (tail[0] - kernels::dot(&l[i * n..i * n + i], head)) / l[i * n + i];
        }
        for i in (0..n).rev() {
            let (head, tail) = x.split_at_mut(i);
            tail[0] /= l[i * n + i];
            kernels::axpy(-tail[0], &l[i * n..i * n + i], head);
        }
    }
}

/// Overwrites the lower triangle and diagonal of the row-major `n × n`
/// matrix `d` (input diagonal `diag`) with its Cholesky factor; returns
/// the index of the first pivot that is not above the floor.
fn factor_in_place(d: &mut [f64], n: usize, diag: &[f64]) -> Result<(), usize> {
    // The step's panel L21 copied twice: negated by rows (the gemm A)
    // and transposed (the gemm B), so the update is C += (−L21)·L21ᵀ.
    let mut neg = Vec::new();
    let mut tr = Vec::new();
    for k in (0..n).step_by(PANEL) {
        let kend = (k + PANEL).min(n);
        // Diagonal block and panel, one row at a time: row i's entries
        // left of column j are final before column j.
        for i in k..n {
            for j in k..(i + 1).min(kend) {
                let s = kernels::dot(&d[i * n + k..i * n + j], &d[j * n + k..j * n + j]);
                let acc = d[i * n + j] - s;
                if i == j {
                    if acc <= PIVOT_FLOOR * diag[i] || acc.is_nan() {
                        return Err(i);
                    }
                    d[i * n + i] = acc.sqrt();
                } else {
                    d[i * n + j] = acc / d[j * n + j];
                }
            }
        }
        let (nb, m) = (kend - k, n - kend);
        if m == 0 {
            break;
        }
        neg.clear();
        tr.clear();
        tr.resize(nb * m, 0.0);
        for (r, row) in d[kend * n..].chunks_exact(n).enumerate() {
            for (p, &v) in row[k..kend].iter().enumerate() {
                neg.push(-v);
                tr[p * m + r] = v;
            }
        }
        // Trailing update A22 −= L21·L21ᵀ on the lower triangle only.
        for ib in (kend..n).step_by(TILE) {
            let ie = (ib + TILE).min(n);
            // Tiles left of the diagonal tile.
            let (a, c) = (&neg[(ib - kend) * nb..], &mut d[ib * n + kend..]);
            kernels::gemm_strided(ie - ib, nb, ib - kend, a, nb, &tr, m, c, n);
            // The diagonal tile in 4-row strips: a rectangle left of the
            // strip's own 4×4 triangle, then that triangle entry by entry.
            for r in (ib..ie).step_by(4) {
                let re = (r + 4).min(ie);
                let a = &neg[(r - kend) * nb..];
                let b = &tr[ib - kend..];
                kernels::gemm_strided(re - r, nb, r - ib, a, nb, b, m, &mut d[r * n + ib..], n);
                for i in r..re {
                    for j in r..=i {
                        let row = &neg[(i - kend) * nb..(i - kend + 1) * nb];
                        d[i * n + j] += kernels::dot(row, &d[j * n + k..j * n + kend]);
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook triple loop: L alone, or the first failing pivot.
    fn reference(a: &Matrix) -> Result<Matrix, usize> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut acc = a.get(i, j);
                for k in 0..j {
                    acc -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if acc <= 0.0 {
                        return Err(i);
                    }
                    l.set(i, i, acc.sqrt());
                } else {
                    l.set(i, j, acc / l.get(j, j));
                }
            }
        }
        Ok(l)
    }

    /// A deterministic SPD matrix: a kernel-like decaying off-diagonal
    /// plus a dominant diagonal, bit-symmetric by construction.
    fn spd(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let (lo, hi) = (i.min(j), i.max(j));
            let v = 1.0 / (1.0 + (hi - lo) as f64) + ((lo * 31 + hi * 17) % 13) as f64 * 1e-3;
            if i == j {
                v + 2.0
            } else {
                v
            }
        })
    }

    fn bits(m: &Matrix, keep: impl Fn(usize, usize) -> bool) -> Vec<u64> {
        let n = m.cols();
        (0..m.rows() * n)
            .filter(|k| keep(k / n, k % n))
            .map(|k| m.as_slice()[k].to_bits())
            .collect()
    }

    #[test]
    fn factor_and_solve() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap();
        let ch = CholeskyFactor::new(a.clone()).unwrap();
        // Known factor: L = [[5,0,0],[3,3,0],[-1,1,3]]
        assert!((ch.l.get(0, 0) - 5.0).abs() < 1e-12);
        assert!((ch.l.get(1, 0) - 3.0).abs() < 1e-12);
        assert!((ch.l.get(2, 2) - 3.0).abs() < 1e-12);
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = ch.solve_vec(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn blocked_factor_matches_the_triple_loop_across_block_edges() {
        for n in [1, 2, 63, 64, 65, 95, 96, 97, 127, 128, 129, 191, 300] {
            let a = spd(n);
            let want = reference(&a).unwrap();
            let ch = CholeskyFactor::new(a.clone()).unwrap();
            let scale = want.max_abs();
            for i in 0..n {
                for j in 0..=i {
                    let (got, want) = (ch.l.get(i, j), want.get(i, j));
                    assert!(
                        (got - want).abs() <= 1e-12 * scale,
                        "n={n} L[{i},{j}]: {got} vs {want}"
                    );
                }
            }
            assert_eq!(bits(&ch.l, |i, j| j > i), bits(&a, |i, j| j > i), "n={n}: upper written");
        }
    }

    #[test]
    fn a_refused_factor_hands_the_input_back() {
        for (n, bad) in [(2, 1), (97, 40), (300, 250)] {
            let mut a = spd(n);
            // A strongly coupled pair makes row `bad` indefinite.
            a.set(bad, bad - 1, 10.0);
            a.set(bad - 1, bad, 10.0);
            let want = reference(&a).unwrap_err();
            let refused = CholeskyFactor::new(a.clone()).unwrap_err();
            assert_eq!(refused.error, LinalgError::NotPositiveDefinite { index: want }, "n={n}");
            assert_eq!(bits(&refused.matrix, |_, _| true), bits(&a, |_, _| true), "n={n}");
        }
    }

    #[test]
    fn a_pivot_below_the_floor_is_refused() {
        // Row 40 repeats row 39 up to a 1e-12 nudge of its diagonal: SPD
        // in exact arithmetic, singular to working precision.
        let mut a = spd(97);
        for j in 0..97 {
            let v = a.get(39, j);
            a.set(40, j, v);
            a.set(j, 40, v);
        }
        a.set(40, 40, a.get(39, 39) * (1.0 + 1e-12));
        let refused = CholeskyFactor::new(a.clone()).unwrap_err();
        assert_eq!(refused.error, LinalgError::NotPositiveDefinite { index: 40 });
        assert_eq!(bits(&refused.matrix, |_, _| true), bits(&a, |_, _| true));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let refused = CholeskyFactor::new(a).unwrap_err();
        assert!(matches!(refused.error, LinalgError::NotPositiveDefinite { index: 1 }));
    }

    #[test]
    fn rejects_non_square_and_nan() {
        let refused = CholeskyFactor::new(Matrix::zeros(2, 3)).unwrap_err();
        assert!(matches!(refused.error, LinalgError::DimensionMismatch { .. }));
        assert_eq!(refused.matrix, Matrix::zeros(2, 3));
        let mut a = Matrix::identity(2);
        a.set(1, 1, f64::NAN);
        assert!(matches!(CholeskyFactor::new(a).unwrap_err().error, LinalgError::NotFinite));
    }

    #[test]
    fn matrix_rhs() {
        for n in [4, 130] {
            let a = spd(n);
            let xt = Matrix::from_fn(n, 3, |i, j| (i + 2 * j) as f64);
            let b = a.matmul(&xt).unwrap();
            let ch = CholeskyFactor::new(a).unwrap();
            let x = ch.solve_matrix(&b).unwrap();
            for i in 0..n {
                for j in 0..3 {
                    assert!((x.get(i, j) - xt.get(i, j)).abs() < 1e-9 * n as f64, "n={n}");
                }
            }
        }
    }

    #[test]
    fn empty_and_mismatched_rhs() {
        let ch = CholeskyFactor::new(Matrix::zeros(0, 0)).unwrap();
        assert_eq!(ch.solve_matrix(&Matrix::zeros(0, 2)).unwrap(), Matrix::zeros(0, 2));
        let ch = CholeskyFactor::new(Matrix::identity(3)).unwrap();
        assert!(ch.solve_vec(&[1.0, 2.0]).is_err());
        assert!(ch.solve_matrix(&Matrix::zeros(2, 2)).is_err());
    }
}
