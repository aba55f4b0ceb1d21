//! The independent iteration index of Algorithm 1.
//!
//! The template matrix P̃ ∈ R^{M×M} is symmetric; only its upper triangle
//! (including the diagonal) is computed. Algorithm 1 iterates a flat index
//! `k ∈ [0, M(M+1)/2)` that is converted to matrix coordinates (i, j) with
//! the closed form
//!
//! ```text
//! j = ⌊(−1 + √(1 + 8k)) / 2⌋ ,   i = k − j(j+1)/2 ,   i ≤ j
//! ```
//!
//! so the work can be split into D contiguous ranges with no shared state.

use std::ops::Range;

/// Number of entries in the upper triangle (with diagonal) of an `m × m`
/// matrix: `m(m+1)/2` — the `K` of Algorithm 1.
pub fn triangle_size(m: usize) -> usize {
    m * (m + 1) / 2
}

/// Converts the flat upper-triangle index `k` to coordinates `(i, j)` with
/// `i ≤ j`, enumerating column by column: (0,0), (0,1), (1,1), (0,2), …
///
/// Uses the paper's closed form with an integer correction step so the
/// result is exact for every representable `k` (the floating-point square
/// root alone can be off by one near perfect squares).
pub fn k_to_ij(k: usize) -> (usize, usize) {
    let mut j = ((-1.0 + (1.0 + 8.0 * k as f64).sqrt()) / 2.0) as usize;
    // Correct any off-by-one from floating-point rounding.
    while triangle_size(j + 1) <= k {
        j += 1;
    }
    while triangle_size(j) > k {
        j -= 1;
    }
    let i = k - triangle_size(j);
    (i, j)
}

/// Inverse of [`k_to_ij`].
///
/// # Panics
///
/// Panics if `i > j`.
pub fn ij_to_k(i: usize, j: usize) -> usize {
    assert!(i <= j, "upper-triangle coordinates require i <= j");
    triangle_size(j) + i
}

/// Splits `[0, total)` into `d` contiguous ranges as Algorithm 1 does:
/// the first `d − 1` ranges have exactly `⌊total/d⌋` elements and the last
/// takes the remainder.
///
/// # Panics
///
/// Panics if `d == 0`.
pub fn partition_ranges(total: usize, d: usize) -> Vec<Range<usize>> {
    assert!(d > 0, "need at least one partition");
    let base = total / d;
    let mut out = Vec::with_capacity(d);
    let mut start = 0;
    for node in 0..d {
        let len = if node + 1 == d { total - start } else { base };
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Chunks of a self-scheduled region per thread.
const CHUNKS_PER_THREAD: usize = 16;

/// The chunks a self-scheduled region of `threads` threads takes one at a
/// time: `[0, total)` split into `CHUNKS_PER_THREAD · threads` contiguous
/// ranges, so a thread the host slows takes fewer chunks instead of
/// holding up the others.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn self_scheduled_chunks(total: usize, threads: usize) -> Vec<Range<usize>> {
    partition_ranges(total, CHUNKS_PER_THREAD * threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn enumeration_order() {
        let expected = [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2), (0, 3)];
        for (k, &ij) in expected.iter().enumerate() {
            assert_eq!(k_to_ij(k), ij, "k={k}");
        }
    }

    #[test]
    fn round_trip_small() {
        for k in 0..triangle_size(100) {
            let (i, j) = k_to_ij(k);
            assert!(i <= j);
            assert_eq!(ij_to_k(i, j), k);
        }
    }

    #[test]
    fn round_trip_large_indices() {
        // Near-perfect-square ks where the float sqrt is error-prone.
        for &m in &[1_000_000usize, 1_048_576, 33_554_431] {
            for delta in 0..3 {
                let k = triangle_size(m) + delta;
                let (i, j) = k_to_ij(k);
                assert_eq!(ij_to_k(i, j), k, "k={k}");
            }
        }
    }

    #[test]
    fn partition_covers_exactly() {
        for total in [0usize, 1, 10, 55, 1000, 1001] {
            for d in 1..=12 {
                let parts = partition_ranges(total, d);
                assert_eq!(parts.len(), d);
                let mut cursor = 0;
                for p in &parts {
                    assert_eq!(p.start, cursor);
                    cursor = p.end;
                }
                assert_eq!(cursor, total);
                // First d-1 parts equal-sized.
                for p in &parts[..d - 1] {
                    assert_eq!(p.len(), total / d);
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_partitions_panic() {
        let _ = partition_ranges(10, 0);
    }

    #[test]
    #[should_panic]
    fn ij_to_k_checks_triangle() {
        let _ = ij_to_k(3, 2);
    }

    proptest! {
        #[test]
        fn prop_bijection(k in 0usize..200_000_000) {
            let (i, j) = k_to_ij(k);
            prop_assert!(i <= j);
            prop_assert_eq!(ij_to_k(i, j), k);
        }

        #[test]
        fn prop_partition_is_exact_cover(total in 0usize..100_000, d in 1usize..64) {
            let parts = partition_ranges(total, d);
            let sum: usize = parts.iter().map(|p| p.len()).sum();
            prop_assert_eq!(sum, total);
            prop_assert!(parts.windows(2).all(|w| w[0].end == w[1].start));
        }

        #[test]
        fn prop_k_enumerates_every_cell(m in 1usize..60) {
            // Every (i, j) with i <= j < m is hit exactly once.
            let mut seen = vec![false; m * m];
            for k in 0..triangle_size(m) {
                let (i, j) = k_to_ij(k);
                prop_assert!(j < m);
                let flat = i * m + j;
                prop_assert!(!seen[flat], "duplicate ({i},{j})");
                seen[flat] = true;
            }
            let count = seen.iter().filter(|&&s| s).count();
            prop_assert_eq!(count, triangle_size(m));
        }
    }
}
