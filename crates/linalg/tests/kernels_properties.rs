//! Property tests for the blocked compute kernels.
//!
//! The blocked kernels in `bemcap_linalg::kernels` change accumulation
//! order relative to the textbook loops in `kernels::naive`. These tests
//! pin the contract: blocked and naive agree within **1e-12 relative
//! tolerance** at arbitrary sizes — including remainder lanes, sizes that
//! are not multiples of `LANES`, `BLOCK`, or the gemv column panel — and
//! elementwise kernels (`axpy`) are **bit-identical** to the scalar loop.
//! The strided `gemm_strided` is bit-identical to the dense `gemm` on a
//! copied tile and writes nothing outside its tile.
//!
//! The vendored proptest stub generates numeric scalars only, so vector
//! and matrix contents come from a deterministic splitmix64 generator
//! seeded by the proptest-drawn size/seed pair.

use bemcap_linalg::kernels::{self, naive};
use proptest::prelude::*;

/// Deterministic pseudo-random vector in [-1, 1) from a splitmix64 walk.
fn vector(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

/// `|blocked − reference| ≤ 1e-12 · scale`, where `scale` is the sum of
/// absolute products — the natural magnitude of the reduction, robust to
/// cancellation in the signed result.
fn close(blocked: f64, reference: f64, scale: f64) -> bool {
    (blocked - reference).abs() <= 1e-12 * scale.max(f64::MIN_POSITIVE)
}

proptest! {
    #[test]
    fn dot_blocked_matches_naive(n in 0usize..2200, seed in 0u64..1u64 << 32) {
        let a = vector(n, seed);
        let b = vector(n, seed ^ 0xabcdef);
        let blocked = kernels::dot(&a, &b);
        let reference = naive::dot(&a, &b);
        let scale: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        prop_assert!(close(blocked, reference, scale), "n={}: {} vs {}", n, blocked, reference);
    }

    #[test]
    fn axpy_blocked_is_bit_identical(n in 0usize..1500, seed in 0u64..1u64 << 32) {
        let alpha = vector(1, seed ^ 0x5eed)[0] * 3.0;
        let x = vector(n, seed);
        let mut y_blocked = vector(n, seed ^ 0x1234);
        let mut y_naive = y_blocked.clone();
        kernels::axpy(alpha, &x, &mut y_blocked);
        naive::axpy(alpha, &x, &mut y_naive);
        for (i, (p, q)) in y_blocked.iter().zip(&y_naive).enumerate() {
            prop_assert_eq!(p.to_bits(), q.to_bits(), "n={} slot {}", n, i);
        }
    }

    #[test]
    fn gemv_blocked_matches_naive(m in 1usize..40, n in 0usize..1400, seed in 0u64..1u64 << 32) {
        let a = vector(m * n, seed);
        let x = vector(n, seed ^ 0x77);
        let mut y_blocked = vec![0.0; m];
        let mut y_naive = vec![0.0; m];
        kernels::gemv(m, n, &a, &x, &mut y_blocked);
        naive::gemv(m, n, &a, &x, &mut y_naive);
        for (i, (p, q)) in y_blocked.iter().zip(&y_naive).enumerate() {
            let row = &a[i * n..(i + 1) * n];
            let scale: f64 = row.iter().zip(&x).map(|(u, v)| (u * v).abs()).sum();
            prop_assert!(close(*p, *q, scale), "({},{}) row {}: {} vs {}", m, n, i, p, q);
        }
    }

    #[test]
    fn gemm_blocked_matches_naive(m in 1usize..24, k in 1usize..96, n in 1usize..24, seed in 0u64..1u64 << 32) {
        let a = vector(m * k, seed);
        let b = vector(k * n, seed ^ 0x88);
        // Nonzero initial C: gemm accumulates, so the contract covers
        // the += semantics too.
        let mut c_blocked = vector(m * n, seed ^ 0x99);
        let mut c_naive = c_blocked.clone();
        kernels::gemm(m, k, n, &a, &b, &mut c_blocked);
        naive::gemm(m, k, n, &a, &b, &mut c_naive);
        for (slot, (p, q)) in c_blocked.iter().zip(&c_naive).enumerate() {
            let (i, j) = (slot / n, slot % n);
            let scale: f64 =
                (0..k).map(|p_| (a[i * k + p_] * b[p_ * n + j]).abs()).sum::<f64>() + q.abs();
            prop_assert!(
                close(*p, *q, scale),
                "({},{},{}) slot {}: {} vs {}", m, k, n, slot, p, q
            );
        }
    }

    #[test]
    fn gemm_strided_tile_is_bit_identical_to_dense_gemm(
        m in 1usize..70,
        k in 1usize..80,
        n in 1usize..70,
        pad in 0usize..9,
        seed in 0u64..1u64 << 32,
    ) {
        // Every operand is an interior tile of a larger row-major buffer:
        // `pad` spare rows and columns on each side.
        let (lda, ldb, ldc) = (k + 2 * pad, n + 2 * pad + 1, n + 2 * pad + 3);
        let big_a = vector((m + 2 * pad) * lda, seed);
        let big_b = vector((k + 2 * pad) * ldb, seed ^ 0x88);
        let mut big_c = vector((m + 2 * pad) * ldc, seed ^ 0x99);
        let before = big_c.clone();
        let at = |i: usize, j: usize, ld: usize| (i + pad) * ld + j + pad;
        let tile = |buf: &[f64], rows: usize, cols: usize, ld: usize| -> Vec<f64> {
            (0..rows * cols).map(|t| buf[at(t / cols, t % cols, ld)]).collect()
        };
        let (a, b) = (tile(&big_a, m, k, lda), tile(&big_b, k, n, ldb));
        let mut c = tile(&big_c, m, n, ldc);
        kernels::gemm(m, k, n, &a, &b, &mut c);
        kernels::gemm_strided(
            m,
            k,
            n,
            &big_a[at(0, 0, lda)..],
            lda,
            &big_b[at(0, 0, ldb)..],
            ldb,
            &mut big_c[at(0, 0, ldc)..],
            ldc,
        );
        for (slot, (got, was)) in big_c.iter().zip(&before).enumerate() {
            let (i, j) = (slot / ldc, slot % ldc);
            let inside = (pad..pad + m).contains(&i) && (pad..pad + n).contains(&j);
            let want = if inside { c[(i - pad) * n + j - pad] } else { *was };
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "({},{},{}) pad {} entry ({},{}) inside={}", m, k, n, pad, i, j, inside
            );
        }
    }

    #[test]
    fn spmv_blocked_matches_naive(rows in 1usize..60, width in 0usize..24, seed in 0u64..1u64 << 32) {
        // A banded CSR whose row widths straddle the LANES boundary.
        let cols = rows;
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut raw = vector(rows * width.max(1), seed ^ 0xAA).into_iter();
        let mut values = Vec::new();
        for i in 0..rows {
            let w = (i * 7 + width) % (width + 1);
            for d in 0..w {
                col_idx.push((i + d) % cols);
                values.push(raw.next().unwrap_or(0.5));
            }
            row_ptr.push(col_idx.len());
        }
        let x = vector(cols, seed ^ 0xBB);
        let mut y_blocked = vec![0.0; rows];
        let mut y_naive = vec![0.0; rows];
        kernels::spmv(&row_ptr, &col_idx, &values, &x, &mut y_blocked);
        naive::spmv(&row_ptr, &col_idx, &values, &x, &mut y_naive);
        for (i, (p, q)) in y_blocked.iter().zip(&y_naive).enumerate() {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            let scale: f64 =
                col_idx[lo..hi].iter().zip(&values[lo..hi]).map(|(&j, v)| (v * x[j]).abs()).sum();
            prop_assert!(close(*p, *q, scale), "row {}: {} vs {}", i, p, q);
        }
    }

    #[test]
    fn pair_dot_blocked_matches_naive(len in 0usize..500, seed in 0u64..1u64 << 32) {
        let x = vector(257, seed ^ 0xCC);
        let vals = vector(len, seed ^ 0xDD);
        let pairs: Vec<(u32, f64)> =
            vals.iter().enumerate().map(|(t, &v)| (((t * 31 + 7) % 257) as u32, v)).collect();
        let blocked = kernels::pair_dot(&pairs, &x);
        let reference = naive::pair_dot(&pairs, &x);
        let scale: f64 = pairs.iter().map(|&(j, v)| (v * x[j as usize]).abs()).sum();
        prop_assert!(close(blocked, reference, scale), "len={}: {} vs {}", len, blocked, reference);
    }
}
