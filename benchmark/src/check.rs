//! Correctness of returned capacitance matrices: physical invariants,
//! deviation from a reference solve, and bit identity.

use bemcap_linalg::{Matrix, SparseMatrix};

/// Relative asymmetry a monolithic solve may show (the exact matrix is
/// symmetric; solvers reach ~1e-16).
pub const SYMMETRY_TOL: f64 = 1e-9;

/// Entries below this share of their row's diagonal are below what the
/// methods resolve at the benchmark's discretizations: they are left out
/// of [`max_rel_err`] and may carry either sign. Measured on the jittered
/// buses: at a 1 % floor the instantiable basis reads 0.31-0.66 off the
/// dense reference (all of it third-neighbour couplings) and the gate
/// would be blind, at 5 % it reads 0.08-0.09 on every seed tried; the
/// coarse dense mesh of bus 20x20 gives second-neighbour couplings of the
/// wrong sign at 1.8 % of the diagonal.
const RESOLVED_FLOOR: f64 = 0.05;

/// A square matrix whose entries may be absent: a stitched chip matrix
/// stores a coupling only where two nets share a window.
pub trait Entries {
    fn dim(&self) -> usize;
    fn entry(&self, i: usize, j: usize) -> Option<f64>;
}

impl Entries for Matrix {
    fn dim(&self) -> usize {
        self.rows()
    }

    fn entry(&self, i: usize, j: usize) -> Option<f64> {
        Some(self.get(i, j))
    }
}

impl Entries for SparseMatrix {
    fn dim(&self) -> usize {
        self.rows()
    }

    fn entry(&self, i: usize, j: usize) -> Option<f64> {
        let (cols, values) = self.row(i);
        cols.binary_search(&j).ok().map(|at| values[at])
    }
}

/// Checks a short-circuit capacitance matrix over its stored entries:
/// finite, symmetric within `symmetry_tol` of its largest entry wherever
/// both (i,j) and (j,i) are stored, positive diagonal, and — beyond
/// [`RESOLVED_FLOOR`] of the diagonal — non-positive off-diagonals and
/// non-negative row sums.
pub fn invariants(c: &impl Entries, symmetry_tol: f64) -> Result<(), String> {
    let n = c.dim();
    if n == 0 {
        return Err("matrix is empty".into());
    }
    let stored = |i| (0..n).filter_map(move |j| c.entry(i, j).map(|v| (j, v)));
    if (0..n).flat_map(stored).any(|(_, v)| !v.is_finite()) {
        return Err("matrix has a non-finite entry".into());
    }
    let scale = (0..n).flat_map(stored).fold(0.0_f64, |m, (_, v)| m.max(v.abs()));
    for i in 0..n {
        let diag = c.entry(i, i).unwrap_or(0.0);
        if diag <= 0.0 {
            return Err(format!("diagonal {i} is {diag:e}, not positive"));
        }
        let mut row_sum = 0.0;
        for (j, v) in stored(i) {
            row_sum += v;
            if i != j && v > RESOLVED_FLOOR * diag {
                return Err(format!("off-diagonal ({i},{j}) is {v:e}, positive"));
            }
            if let Some(mirror) = c.entry(j, i).filter(|m| (v - m).abs() > symmetry_tol * scale) {
                return Err(format!("asymmetric at ({i},{j}): {v:e} vs {mirror:e}"));
            }
        }
        if row_sum < -RESOLVED_FLOOR * diag {
            return Err(format!("row {i} sums to {row_sum:e}, negative"));
        }
    }
    Ok(())
}

/// Worst relative deviation of `got`'s stored entries from `reference`,
/// over the diagonal and the couplings that reach [`RESOLVED_FLOOR`] of
/// their row's diagonal.
pub fn max_rel_err(got: &impl Entries, reference: &Matrix) -> f64 {
    assert_eq!((got.dim(), got.dim()), (reference.rows(), reference.cols()), "shape mismatch");
    let mut worst = 0.0_f64;
    for i in 0..reference.rows() {
        let floor = RESOLVED_FLOOR * reference.get(i, i).abs();
        for j in 0..reference.cols() {
            let want = reference.get(i, j);
            if let Some(v) = got.entry(i, j).filter(|_| i == j || want.abs() >= floor) {
                worst = worst.max((v - want).abs() / want.abs());
            }
        }
    }
    worst
}

/// Worst deviation of `got`'s stored entries from `reference` as a share
/// of their row's reference diagonal — how `tests/chip_properties.rs`
/// judges a stitched chip matrix: a window extracts each coupling among a
/// subset of the wires, so a small coupling may be far off in relative
/// terms while the row it belongs to is not.
pub fn max_scaled_err(got: &impl Entries, reference: &Matrix) -> f64 {
    assert_eq!((got.dim(), got.dim()), (reference.rows(), reference.cols()), "shape mismatch");
    let mut worst = 0.0_f64;
    for i in 0..reference.rows() {
        for j in 0..reference.cols() {
            if let Some(v) = got.entry(i, j) {
                worst = worst.max((v - reference.get(i, j)).abs() / reference.get(i, i).abs());
            }
        }
    }
    worst
}

/// Bit-for-bit equality (`==` would let `0.0 == -0.0` and reject NaN).
pub fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> Matrix {
        Matrix::from_rows(&[&[2.0, -0.5], &[-0.5, 1.0]]).expect("2x2")
    }

    #[test]
    fn invariants_accept_a_capacitance_matrix_and_name_each_violation() {
        assert_eq!(invariants(&good(), SYMMETRY_TOL), Ok(()));
        let cases: [(&[&[f64]], &str); 4] = [
            (&[&[2.0, -0.5], &[-0.4, 1.0]], "asymmetric"),
            (&[&[-2.0, -0.5], &[-0.5, 1.0]], "not positive"),
            (&[&[2.0, 0.5], &[0.5, 1.0]], "positive"),
            (&[&[2.0, -3.0], &[-3.0, 4.0]], "negative"),
        ];
        for (rows, what) in cases {
            let err = invariants(&Matrix::from_rows(rows).expect("2x2"), SYMMETRY_TOL).unwrap_err();
            assert!(err.contains(what), "{err}");
        }
        let nan = Matrix::from_rows(&[&[f64::NAN]]).expect("1x1");
        assert!(invariants(&nan, SYMMETRY_TOL).is_err());
    }

    #[test]
    fn absent_entries_are_neither_compared_nor_mirrored() {
        // (0,1) is stored, (1,0) is not: two nets that share one window only.
        let chip = SparseMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, -0.5), (1, 1, 1.0)]);
        assert_eq!(invariants(&chip, SYMMETRY_TOL), Ok(()));
        assert_eq!(max_rel_err(&chip, &good()), 0.0);
        let off = SparseMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 2.0), (0, 1, -0.4), (1, 0, -0.5), (1, 1, 1.0)],
        );
        assert!(invariants(&off, SYMMETRY_TOL).unwrap_err().contains("asymmetric"));
        assert!((max_rel_err(&off, &good()) - 0.2).abs() < 1e-12);
        // 0.1 off on a row whose diagonal is 2.
        assert!((max_scaled_err(&off, &good()) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn rel_err_covers_diagonal_and_resolved_couplings_only() {
        let reference =
            Matrix::from_rows(&[&[1.0, -0.5, -0.01], &[-0.5, 1.0, -0.2], &[-0.01, -0.2, 1.0]])
                .expect("3x3");
        let mut got = reference.clone();
        got.set(0, 2, -0.02); // below the floor: ignored
        assert_eq!(max_rel_err(&got, &reference), 0.0);
        got.set(1, 2, -0.21);
        assert!((max_rel_err(&got, &reference) - 0.05).abs() < 1e-12);
        got.set(0, 0, 1.2);
        assert!((max_rel_err(&got, &reference) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn bit_identity_is_stricter_than_equality() {
        assert!(bit_identical(&[1.0, f64::NAN], &[1.0, f64::NAN]));
        assert!(!bit_identical(&[0.0], &[-0.0]));
        assert!(!bit_identical(&[1.0], &[1.0, 2.0]));
    }
}
