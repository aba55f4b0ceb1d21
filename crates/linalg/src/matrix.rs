//! Row-major dense matrices.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

use crate::error::LinalgError;
use crate::kernels;

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// This is the system-matrix container for the whole workspace: the paper's
/// P (N×N), the right-hand side Φ (N×n) and the capacitance matrix C (n×n)
/// are all `Matrix` values.
///
/// ```
/// use bemcap_linalg::Matrix;
/// let mut m = Matrix::zeros(2, 3);
/// m.set(1, 2, 5.0);
/// assert_eq!(m.get(1, 2), 5.0);
/// assert_eq!(m.transpose().get(2, 1), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if rows have unequal
    /// lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Matrix, LinalgError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::DimensionMismatch {
                op: "from_rows",
                detail: "empty input".into(),
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    detail: format!("row {i} has {} entries, expected {cols}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Creates a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Wraps an existing buffer (row-major).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the buffer length is not
    /// `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Matrix, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_vec",
                detail: format!("buffer {} != {rows}x{cols}", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Side length of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn dim(&self) -> usize {
        assert_eq!(self.rows, self.cols, "dim() requires a square matrix");
        self.rows
    }

    /// Entry (i, j).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of range");
        self.data[i * self.cols + j]
    }

    /// Sets entry (i, j).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of range");
        self.data[i * self.cols + j] = v;
    }

    /// Adds `v` to entry (i, j).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of range");
        self.data[i * self.cols + j] += v;
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col {j} out of range");
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The underlying row-major buffer, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec: length mismatch (x.len()={}, cols={})",
            x.len(),
            self.cols
        );
        let mut y = vec![0.0; self.rows];
        kernels::gemv(self.rows, self.cols, &self.data, x, &mut y);
        y
    }

    /// Matrix-matrix product using the cache-blocked kernel.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on incompatible shapes.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                detail: format!("{}x{} * {}x{}", self.rows, self.cols, other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        kernels::gemm(self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data);
        Ok(out)
    }

    /// Scales every entry in place (elementwise kernel, bit-identical to
    /// the scalar loop).
    pub fn scale(&mut self, s: f64) {
        kernels::scale(s, &mut self.data);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// `true` when the matrix is square and symmetric to relative
    /// tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let scale = self.max_abs().max(f64::MIN_POSITIVE);
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol * scale {
                    return false;
                }
            }
        }
        true
    }

    /// `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Estimated heap memory of the matrix payload in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "matrix {}x{}", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                write!(f, "{:>12.4e} ", self.get(i, j))?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "...")?;
        }
        Ok(())
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add: shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add_assign: shape mismatch");
        // `1.0 * b == b` exactly in IEEE, so axpy keeps the merge
        // bit-identical to the old elementwise loop — the threaded
        // assembly's serial-vs-parallel pin depends on that.
        crate::kernels::axpy(1.0, &rhs.data, &mut self.data);
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub: shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale(s);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn from_rows_errors() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
    }

    #[test]
    fn identity_and_matmul() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        let sq = m.matmul(&m).unwrap();
        assert_eq!(sq.get(0, 0), 7.0);
        assert_eq!(sq.get(1, 1), 22.0);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let ns = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]).unwrap();
        assert!(s.is_symmetric(1e-14));
        assert!(!ns.is_symmetric(1e-14));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1e-14));
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert_eq!((&a + &b).row(0), &[4.0, 6.0]);
        assert_eq!((&b - &a).row(0), &[2.0, 2.0]);
        assert_eq!((&a * 2.0).row(0), &[2.0, 4.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.row(0), &[4.0, 6.0]);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn finiteness_and_memory() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.is_finite());
        m.set(0, 0, f64::NAN);
        assert!(!m.is_finite());
        assert_eq!(m.memory_bytes(), 4 * 8);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Matrix::zeros(10, 10)).is_empty());
    }
}
