//! The direct factor: blocked Cholesky for a symmetric positive-definite
//! matrix, LU with partial pivoting otherwise.
//!
//! This is the "standard direct method" of the paper's §3: with instantiable
//! basis functions the system is small (N in the hundreds), so Gaussian
//! elimination is cheap and — unlike approximated Krylov matvecs — maps onto
//! highly optimized dense kernels.

use crate::cholesky::{CholeskyFactor, Refused};
use crate::error::LinalgError;
use crate::matrix::Matrix;

/// A direct factorization of a square matrix: `A = L Lᵀ` (blocked
/// Cholesky) when [`LuFactor::new`] finds `A` bit-symmetric and positive
/// definite, `P A = L U` with partial (row) pivoting otherwise.
///
/// ```
/// use bemcap_linalg::{LuFactor, Matrix};
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 1.0]])?;
/// let lu = LuFactor::new(a)?;
/// let x = lu.solve_vec(&[2.0, 4.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), bemcap_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor(Factor);

#[derive(Debug, Clone)]
enum Factor {
    Cholesky(CholeskyFactor),
    Pivoted {
        /// Packed L (unit lower, below diagonal) and U (upper incl. diagonal).
        lu: Matrix,
        /// Row permutation: `perm[i]` is the original row now in position `i`.
        perm: Vec<usize>,
        /// Sign of the permutation (for determinants).
        perm_sign: f64,
    },
}

impl LuFactor {
    /// Factorizes a square matrix, consuming it. A bit-symmetric `a` is
    /// tried by [`CholeskyFactor::new`] first; when Cholesky refuses it
    /// (not positive definite to working precision), `a` comes back
    /// intact and [`LuFactor::pivoted`] factors it, as it does any
    /// unsymmetric `a`.
    ///
    /// # Errors
    ///
    /// As [`LuFactor::pivoted`].
    pub fn new(a: Matrix) -> Result<LuFactor, LinalgError> {
        if !is_bit_symmetric(&a) {
            return LuFactor::pivoted(a);
        }
        match CholeskyFactor::new(a) {
            Ok(ch) => Ok(LuFactor(Factor::Cholesky(ch))),
            Err(Refused { error: LinalgError::NotPositiveDefinite { .. }, matrix }) => {
                LuFactor::pivoted(matrix)
            }
            Err(refused) => Err(refused.error),
        }
    }

    /// Factorizes a square matrix by LU with partial pivoting alone,
    /// consuming it.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square;
    /// * [`LinalgError::NotFinite`] if `a` has non-finite entries;
    /// * [`LinalgError::Singular`] when a pivot column is exactly zero.
    pub fn pivoted(a: Matrix) -> Result<LuFactor, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "lu",
                detail: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NotFinite);
        }
        let n = a.rows();
        let mut lu = a;
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        // Work on the raw row-major buffer with slice operations so the
        // rank-1 update inner loop vectorizes — the "optimized linear
        // algebra" the paper's direct-solve argument leans on.
        let data = lu.as_mut_slice();
        let mut pivot_row = vec![0.0f64; n];
        for k in 0..n {
            // Partial pivoting: choose the largest |entry| in column k.
            let mut piv = k;
            let mut max = data[k * n + k].abs();
            for i in (k + 1)..n {
                let v = data[i * n + k].abs();
                if v > max {
                    max = v;
                    piv = i;
                }
            }
            if max == 0.0 {
                return Err(LinalgError::Singular { index: k });
            }
            if piv != k {
                for j in 0..n {
                    data.swap(k * n + j, piv * n + j);
                }
                perm.swap(k, piv);
                perm_sign = -perm_sign;
            }
            let pivot = data[k * n + k];
            // Snapshot the pivot row's trailing segment once; the update
            // loop then touches disjoint rows only.
            pivot_row[k + 1..n].copy_from_slice(&data[k * n + k + 1..(k + 1) * n]);
            for i in (k + 1)..n {
                let m = data[i * n + k] / pivot;
                data[i * n + k] = m;
                if m != 0.0 {
                    let row = &mut data[i * n + k + 1..(i + 1) * n];
                    let prow = &pivot_row[k + 1..n];
                    // r − m·p ≡ r + (−m)·p bit for bit (negation is
                    // exact), so the chunked elementwise axpy changes
                    // nothing but speed.
                    crate::kernels::axpy(-m, prow, row);
                }
            }
        }
        Ok(LuFactor(Factor::Pivoted { lu, perm, perm_sign }))
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        match &self.0 {
            Factor::Cholesky(ch) => ch.dim(),
            Factor::Pivoted { lu, .. } => lu.rows(),
        }
    }

    /// `true` when the factor is the Cholesky `A = L Lᵀ`.
    pub fn is_cholesky(&self) -> bool {
        matches!(self.0, Factor::Cholesky(_))
    }

    /// Solves `A x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let (lu, perm) = match &self.0 {
            Factor::Cholesky(ch) => return ch.solve_vec(b),
            Factor::Pivoted { lu, perm, .. } => (lu, perm),
        };
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_solve",
                detail: format!("rhs length {} != {n}", b.len()),
            });
        }
        // Apply permutation.
        let mut x: Vec<f64> = perm.iter().map(|&p| b[p]).collect();
        // Both substitution sweeps are row·x dot products over the already
        // solved prefix/suffix; the chunked kernel reduction vectorizes
        // them (reassociated, deterministic — see `kernels` module docs).
        // Forward substitution with unit lower triangle.
        for i in 1..n {
            let row = lu.row(i);
            let (head, tail) = x.split_at_mut(i);
            tail[0] -= crate::kernels::dot(&row[..i], head);
        }
        // Back substitution with upper triangle.
        for i in (0..n).rev() {
            let row = lu.row(i);
            let (head, tail) = x.split_at_mut(i + 1);
            head[i] = (head[i] - crate::kernels::dot(&row[i + 1..], tail)) / row[i];
        }
        Ok(x)
    }

    /// Solves `A X = B` for a matrix right-hand side (column by column
    /// for LU).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.rows() != dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        if let Factor::Cholesky(ch) = &self.0 {
            return ch.solve_matrix(b);
        }
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_solve_matrix",
                detail: format!("rhs rows {} != {n}", b.rows()),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve_vec(&col)?;
            for i in 0..n {
                out.set(i, j, x[i]);
            }
        }
        Ok(out)
    }

    /// U's diagonal and the permutation sign. For Cholesky, U is that of
    /// the unpivoted LU `A = (L D⁻¹)(D Lᵀ)`, `D = diag(L)`: `U[i, i]` is
    /// `L[i, i]²`.
    fn pivots(&self) -> (Vec<f64>, f64) {
        match &self.0 {
            Factor::Cholesky(ch) => ((0..ch.dim()).map(|i| ch.l_diag(i).powi(2)).collect(), 1.0),
            Factor::Pivoted { lu, perm_sign, .. } => {
                ((0..lu.rows()).map(|i| lu.get(i, i)).collect(), *perm_sign)
            }
        }
    }

    /// Determinant of the factorized matrix.
    pub fn det(&self) -> f64 {
        let (pivots, sign) = self.pivots();
        pivots.iter().fold(sign, |d, p| d * p)
    }

    /// Magnitude of the smallest pivot relative to the largest — a cheap
    /// conditioning indicator.
    pub fn pivot_ratio(&self) -> f64 {
        let (pivots, _) = self.pivots();
        let lo = pivots.iter().fold(f64::INFINITY, |m, p| m.min(p.abs()));
        let hi = pivots.iter().fold(0.0_f64, |m, p| m.max(p.abs()));
        lo / hi
    }
}

/// `true` when `a` is square and each entry has its mirror's bits: the
/// input [`CholeskyFactor::new`] reads in full from either triangle.
fn is_bit_symmetric(a: &Matrix) -> bool {
    a.rows() == a.cols()
        && (0..a.rows()).all(|i| (0..i).all(|j| a.get(i, j).to_bits() == a.get(j, i).to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        // [2 1; 1 3] x = [3; 5] -> x = [4/5, 7/5]
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let lu = LuFactor::new(a).unwrap();
        let x = lu.solve_vec(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-14);
        assert!((x[1] - 1.4).abs() < 1e-14);
    }

    #[test]
    fn symmetric_input_tries_cholesky_first() {
        let spd = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let ch = LuFactor::new(spd.clone()).unwrap();
        assert!(ch.is_cholesky());
        assert!((ch.det() - 8.0).abs() < 1e-12);
        assert!((ch.pivot_ratio() - 0.5).abs() < 1e-12);
        assert!(!LuFactor::pivoted(spd).unwrap().is_cholesky());
        // An indefinite or unsymmetric input goes to LU, bit for bit as
        // `pivoted` factors it.
        let indefinite = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let unsymmetric = Matrix::from_rows(&[&[4.0, 2.0], &[2.5, 3.0]]).unwrap();
        for a in [indefinite, unsymmetric] {
            let (new, pivoted) = (LuFactor::new(a.clone()).unwrap(), LuFactor::pivoted(a).unwrap());
            assert!(!new.is_cholesky());
            assert_eq!(
                new.solve_vec(&[1.0, 0.3]).unwrap(),
                pivoted.solve_vec(&[1.0, 0.3]).unwrap()
            );
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = LuFactor::new(a).unwrap();
        let x = lu.solve_vec(&[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn determinant() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let lu = LuFactor::new(a).unwrap();
        assert!((lu.det() + 2.0).abs() < 1e-12);
        // Permutation sign accounted for.
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((LuFactor::new(b).unwrap().det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(LuFactor::new(a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(LuFactor::new(Matrix::zeros(2, 3)).is_err());
        let mut a = Matrix::identity(2);
        a.set(0, 1, f64::NAN);
        assert!(matches!(LuFactor::new(a), Err(LinalgError::NotFinite)));
    }

    #[test]
    fn matrix_rhs_round_trip() {
        let a =
            Matrix::from_fn(
                5,
                5,
                |i, j| if i == j { 10.0 } else { 1.0 / (1.0 + i as f64 + j as f64) },
            );
        let x_true = Matrix::from_fn(5, 3, |i, j| (i + j) as f64 + 0.5);
        let b = a.matmul(&x_true).unwrap();
        let lu = LuFactor::new(a).unwrap();
        let x = lu.solve_matrix(&b).unwrap();
        for i in 0..5 {
            for j in 0..3 {
                assert!((x.get(i, j) - x_true.get(i, j)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn random_round_trip_large() {
        // Deterministic pseudo-random well-conditioned system.
        let n = 40;
        let a = Matrix::from_fn(n, n, |i, j| {
            let v = (((i * 733 + j * 97) % 199) as f64 / 199.0) - 0.5;
            if i == j {
                v + n as f64
            } else {
                v
            }
        });
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.matvec(&x_true);
        let lu = LuFactor::new(a).unwrap();
        let x = lu.solve_vec(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
        assert!(lu.pivot_ratio() > 0.0);
    }

    #[test]
    fn rhs_length_checked() {
        let lu = LuFactor::new(Matrix::identity(3)).unwrap();
        assert!(lu.solve_vec(&[1.0, 2.0]).is_err());
        assert!(lu.solve_matrix(&Matrix::zeros(2, 2)).is_err());
    }
}
