//! Portable blocked compute kernels — the workspace's innermost loops.
//!
//! Every flop-bound path in the workspace (GMRES dot/axpy, dense and
//! sparse matvec, `gemm` behind `Matrix::matmul` and the blocked
//! Cholesky's trailing update, the pFFT precorrection and the FMM near
//! field) funnels through this module. The kernels are
//! plain safe Rust shaped so LLVM can vectorize them: reductions carry
//! [`LANES`] **independent partial accumulators** (breaking the serial
//! add chain that forbids SIMD on strict IEEE semantics), matrices are
//! walked in cache-sized panels, and the `gemm` inner loop is a 4×4
//! register tile. With FMA contraction enabled (`-C target-cpu=native`)
//! the accumulator updates fuse; without it they still vectorize.
//!
//! # Accumulation order
//!
//! Chunked reductions sum in a *different, but still deterministic*,
//! order than the textbook left-to-right loop: same inputs always give
//! the same bits, but the bits differ from [`naive`]'s by O(ε) rounding.
//! Callers that pin bit-identity across runs (batch, daemon, chip) are
//! unaffected — both runs go through the same kernel — but committed
//! fixtures generated before the rewire may move within their tolerance
//! bands. The [`naive`] submodule keeps the reference implementations:
//! property tests pin blocked-vs-naive agreement at 1e-12 relative
//! tolerance, and exact bit equality where a kernel promises it
//! ([`axpy`], [`scale`]).

/// Independent partial accumulators per reduction (and the chunk width
/// walked per iteration). Eight f64 lanes fill one AVX-512 register or
/// two AVX2 registers, and give enough independent add chains to hide
/// the floating-point add latency; on narrower ISAs the pattern still
/// buys instruction-level parallelism.
pub const LANES: usize = 8;

/// Cache block edge (in elements) for [`gemm`]. 64×64 f64 tiles are
/// 32 KiB — comfortably inside a typical L1d.
pub const BLOCK: usize = 64;

/// Column-panel width for [`gemv`]: an 8 KiB slice of `x` that stays
/// L1-resident while every row's partial dot streams over it.
pub const GEMV_COLS: usize = 1024;

/// Reference (scalar, left-to-right) implementations of every blocked
/// kernel. These are the semantics the blocked kernels approximate to
/// O(ε); the `kernels_properties` suite holds the two within 1e-12
/// relative tolerance on arbitrary shapes, including remainder lanes.
pub mod naive {
    /// Left-to-right dot product.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(
            a.len(),
            b.len(),
            "dot: length mismatch (a.len()={}, b.len()={})",
            a.len(),
            b.len()
        );
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// `y += alpha * x`, element at a time.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            x.len(),
            y.len(),
            "axpy: length mismatch (x.len()={}, y.len()={})",
            x.len(),
            y.len()
        );
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    /// `y = A x` with one accumulator per row (row-major `A`).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with `m`, `n`.
    pub fn gemv(m: usize, n: usize, a: &[f64], x: &[f64], y: &mut [f64]) {
        super::check_gemv(m, n, a, x, y);
        for (row, yi) in a.chunks_exact(n.max(1)).zip(y.iter_mut()) {
            let mut acc = 0.0;
            for (aij, xj) in row.iter().zip(x) {
                acc += aij * xj;
            }
            *yi = acc;
        }
    }

    /// `C += A B` with textbook triple loops (row-major).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with `m`, `k`, `n`.
    pub fn gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
        super::check_gemm(m, k, n, a, b, c);
        for i in 0..m {
            for p in 0..k {
                let aip = a[i * k + p];
                let brow = &b[p * n..(p + 1) * n];
                let crow = &mut c[i * n..(i + 1) * n];
                for (cij, bpj) in crow.iter_mut().zip(brow) {
                    *cij += aip * bpj;
                }
            }
        }
    }

    /// `y = A x` for CSR `A`, one left-to-right accumulator per row.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent CSR buffers (see [`super::spmv`]).
    pub fn spmv(row_ptr: &[usize], col_idx: &[usize], values: &[f64], x: &[f64], y: &mut [f64]) {
        super::check_spmv(row_ptr, col_idx, values, y);
        for (i, yi) in y.iter_mut().enumerate() {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            let mut acc = 0.0;
            for (j, v) in col_idx[lo..hi].iter().zip(&values[lo..hi]) {
                acc += v * x[*j];
            }
            *yi = acc;
        }
    }

    /// Gathered dot over `(index, value)` pairs, left to right.
    pub fn pair_dot(pairs: &[(u32, f64)], x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for &(j, v) in pairs {
            acc += v * x[j as usize];
        }
        acc
    }
}

#[inline]
fn check_gemv(m: usize, n: usize, a: &[f64], x: &[f64], y: &[f64]) {
    assert_eq!(a.len(), m * n, "gemv: matrix buffer is {} elements, expected {m}x{n}", a.len());
    assert_eq!(x.len(), n, "gemv: x length mismatch (x.len()={}, cols={n})", x.len());
    assert_eq!(y.len(), m, "gemv: y length mismatch (y.len()={}, rows={m})", y.len());
}

#[inline]
fn check_gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &[f64]) {
    assert_eq!(a.len(), m * k, "gemm: A buffer is {} elements, expected {m}x{k}", a.len());
    assert_eq!(b.len(), k * n, "gemm: B buffer is {} elements, expected {k}x{n}", b.len());
    assert_eq!(c.len(), m * n, "gemm: C buffer is {} elements, expected {m}x{n}", c.len());
}

#[inline]
fn check_spmv(row_ptr: &[usize], col_idx: &[usize], values: &[f64], y: &[f64]) {
    assert_eq!(
        row_ptr.len(),
        y.len() + 1,
        "spmv: row_ptr length mismatch (row_ptr.len()={}, rows={})",
        row_ptr.len(),
        y.len()
    );
    assert_eq!(
        col_idx.len(),
        values.len(),
        "spmv: col_idx/values length mismatch ({} vs {})",
        col_idx.len(),
        values.len()
    );
}

/// Reduces [`LANES`] partial accumulators pairwise — the one fixed
/// reduction order every chunked kernel shares.
#[inline(always)]
fn reduce(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Chunked dot product with [`LANES`] independent partial accumulators.
///
/// Deterministic, but the accumulation order differs from
/// [`naive::dot`]'s by design (see the module docs).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch (a.len()={}, b.len()={})", a.len(), b.len());
    dot_unchecked(a, b)
}

/// [`dot`] minus the length check, for callers that slice both inputs
/// from one loop bound (the blocked `gemv` panels).
#[inline(always)]
fn dot_unchecked(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let chunks = a.len() / LANES * LANES;
    for (ca, cb) in a[..chunks].chunks_exact(LANES).zip(b[..chunks].chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0;
    for (x, y) in a[chunks..].iter().zip(&b[chunks..]) {
        tail += x * y;
    }
    reduce(acc) + tail
}

/// Euclidean norm via the chunked [`dot`].
pub fn norm2(v: &[f64]) -> f64 {
    dot_unchecked(v, v).sqrt()
}

/// `y += alpha * x`.
///
/// **Bit-identity promise:** every `y[i]` is updated by exactly
/// `y[i] + alpha * x[i]` — there is no cross-element accumulation, so
/// the result is bit-identical to [`naive::axpy`] at every length.
///
/// Deliberately NOT hand-chunked: an elementwise update has no serial
/// dependency chain, so LLVM already vectorizes the plain zip loop at
/// full width — measured on the LU elimination pattern, manual
/// `LANES`-chunking made this ~65 % *slower* (worse tail handling,
/// blocked unrolling). Chunked accumulators only pay for reductions,
/// where strict IEEE ordering is what forbids vectorization.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(
        x.len(),
        y.len(),
        "axpy: length mismatch (x.len()={}, y.len()={})",
        x.len(),
        y.len()
    );
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `v *= alpha`, chunked. Elementwise, so bit-identical to the scalar
/// loop at every length (same promise as [`axpy`]).
#[inline]
pub fn scale(alpha: f64, v: &mut [f64]) {
    for vi in v {
        *vi *= alpha;
    }
}

/// Cache-blocked `y = A x` for row-major `A` (`m × n`).
///
/// Columns are walked in [`GEMV_COLS`]-wide panels so the active slice
/// of `x` stays L1-resident, and each row×panel partial product runs
/// through the chunked [`dot`] (so the reduction vectorizes). Panel
/// partials accumulate into `y` in ascending panel order —
/// deterministic, order differs from [`naive::gemv`].
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `n`.
pub fn gemv(m: usize, n: usize, a: &[f64], x: &[f64], y: &mut [f64]) {
    check_gemv(m, n, a, x, y);
    y.fill(0.0);
    if n == 0 {
        return;
    }
    for jb in (0..n).step_by(GEMV_COLS) {
        let jm = (jb + GEMV_COLS).min(n);
        let xp = &x[jb..jm];
        for (i, yi) in y.iter_mut().enumerate() {
            *yi += dot_unchecked(&a[i * n + jb..i * n + jm], xp);
        }
    }
}

/// `C += A B`, cache-blocked with a 4×4 register micro-kernel
/// (row-major, `A: m×k`, `B: k×n`, all three dense).
///
/// [`gemm_strided`] with every row stride equal to its row length:
/// bit-identical to it on the same entries.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    check_gemm(m, k, n, a, b, c);
    gemm_strided(m, k, n, a, k, b, n, c, n);
}

/// `C += A B` on row-major operands with row strides `lda`, `ldb`,
/// `ldc`: `A[i, p]` is `a[i * lda + p]`, and likewise for `B` and `C`.
/// A tile of a larger matrix is updated in place by passing the slice
/// from its first entry and the matrix's row length as the stride; no
/// entry of `c` outside the `m × n` tile is written.
///
/// The [`BLOCK`]-edge outer tiling is the classic three-loop cache
/// blocking; inside a tile, full 4×4 sub-tiles of `C` accumulate in
/// sixteen locals over the whole `p` range (one store per entry per
/// tile instead of one per `p`), and edge rows/columns fall back to a
/// scalar loop in the same `p` order. Deterministic; accumulation
/// order differs from [`naive::gemm`].
///
/// # Panics
///
/// Panics if a stride is shorter than its row or a slice is too short
/// for its last row.
#[allow(clippy::too_many_arguments)]
pub fn gemm_strided(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    check_strided("A", m, k, a, lda);
    check_strided("B", k, n, b, ldb);
    check_strided("C", m, n, c, ldc);
    const MR: usize = 4;
    const NR: usize = 4;
    for ib in (0..m).step_by(BLOCK) {
        let im = (ib + BLOCK).min(m);
        for pb in (0..k).step_by(BLOCK) {
            let pm = (pb + BLOCK).min(k);
            for jb in (0..n).step_by(BLOCK) {
                let jm = (jb + BLOCK).min(n);
                // Full 4×4 register tiles of the (ib..im) × (jb..jm)
                // block.
                let i_full = ib + (im - ib) / MR * MR;
                let j_full = jb + (jm - jb) / NR * NR;
                let mut i = ib;
                while i < i_full {
                    let mut j = jb;
                    while j < j_full {
                        let mut acc = [[0.0f64; NR]; MR];
                        for p in pb..pm {
                            let bq = &b[p * ldb + j..p * ldb + j + NR];
                            for (r, accr) in acc.iter_mut().enumerate() {
                                let aip = a[(i + r) * lda + p];
                                for (s, slot) in accr.iter_mut().enumerate() {
                                    *slot += aip * bq[s];
                                }
                            }
                        }
                        for (r, accr) in acc.iter().enumerate() {
                            let crow = &mut c[(i + r) * ldc + j..(i + r) * ldc + j + NR];
                            for (cij, v) in crow.iter_mut().zip(accr) {
                                *cij += v;
                            }
                        }
                        j += NR;
                    }
                    // Right edge of the block: columns j_full..jm.
                    for r in 0..MR {
                        edge_row(lda, ldb, ldc, a, b, c, i + r, pb, pm, j_full, jm);
                    }
                    i += MR;
                }
                // Bottom edge of the block: rows i_full..im, all columns.
                for ie in i_full..im {
                    edge_row(lda, ldb, ldc, a, b, c, ie, pb, pm, jb, jm);
                }
            }
        }
    }
}

#[inline]
fn check_strided(name: &str, rows: usize, cols: usize, buf: &[f64], ld: usize) {
    assert!(ld >= cols, "gemm: {name} stride {ld} is shorter than its {cols} columns");
    if rows > 0 && cols > 0 {
        let need = (rows - 1) * ld + cols;
        assert!(
            buf.len() >= need,
            "gemm: {name} buffer is {} elements, a {rows}x{cols} tile at stride {ld} needs {need}",
            buf.len()
        );
    }
}

/// Scalar tail of [`gemm_strided`]:
/// `C[i, jb..jm] += A[i, pb..pm] B[pb..pm, jb..jm]` with a per-entry
/// accumulator over the same `p` order the micro-kernel uses.
#[inline]
#[allow(clippy::too_many_arguments)]
fn edge_row(
    lda: usize,
    ldb: usize,
    ldc: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    i: usize,
    pb: usize,
    pm: usize,
    jb: usize,
    jm: usize,
) {
    if jb == jm {
        return;
    }
    for j in jb..jm {
        let mut acc = 0.0;
        for p in pb..pm {
            acc += a[i * lda + p] * b[p * ldb + j];
        }
        c[i * ldc + j] += acc;
    }
}

/// Blocked CSR `y = A x`: each row's gathered products accumulate into
/// [`LANES`] independent partials. Deterministic; accumulation order
/// differs from [`naive::spmv`].
///
/// # Panics
///
/// Panics when `row_ptr.len() != y.len() + 1` or
/// `col_idx.len() != values.len()`; out-of-range column indices panic
/// via slice indexing.
pub fn spmv(row_ptr: &[usize], col_idx: &[usize], values: &[f64], x: &[f64], y: &mut [f64]) {
    check_spmv(row_ptr, col_idx, values, y);
    for (i, yi) in y.iter_mut().enumerate() {
        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
        *yi = gather_dot(&col_idx[lo..hi], &values[lo..hi], x);
    }
}

/// Chunked gathered dot: `Σ values[t] * x[col_idx[t]]` with [`LANES`]
/// partial accumulators (the per-row kernel of [`spmv`]).
#[inline]
pub fn gather_dot(col_idx: &[usize], values: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(col_idx.len(), values.len());
    let mut acc = [0.0f64; LANES];
    let chunks = col_idx.len() / LANES * LANES;
    for (cj, cv) in col_idx[..chunks].chunks_exact(LANES).zip(values[..chunks].chunks_exact(LANES))
    {
        for l in 0..LANES {
            acc[l] += cv[l] * x[cj[l]];
        }
    }
    let mut tail = 0.0;
    for (j, v) in col_idx[chunks..].iter().zip(&values[chunks..]) {
        tail += v * x[*j];
    }
    reduce(acc) + tail
}

/// Chunked gathered dot over `(index, value)` pairs — the FMM
/// near-field and pFFT precorrection row kernel. Deterministic;
/// accumulation order differs from [`naive::pair_dot`].
#[inline]
pub fn pair_dot(pairs: &[(u32, f64)], x: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let chunks = pairs.len() / LANES * LANES;
    for quad in pairs[..chunks].chunks_exact(LANES) {
        for (l, &(j, v)) in quad.iter().enumerate() {
            acc[l] += v * x[j as usize];
        }
    }
    let mut tail = 0.0;
    for &(j, v) in &pairs[chunks..] {
        tail += v * x[j as usize];
    }
    reduce(acc) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random vector (splitmix64 → [-1, 1)).
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

    #[test]
    fn dot_matches_naive_across_remainders() {
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1000] {
            let a = vector(n, 1);
            let b = vector(n, 2);
            let blocked = dot(&a, &b);
            let reference = naive::dot(&a, &b);
            let scale: f64 =
                a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum::<f64>().max(f64::MIN_POSITIVE);
            assert!(
                (blocked - reference).abs() <= 1e-12 * scale,
                "n={n}: {blocked} vs {reference}"
            );
        }
    }

    #[test]
    fn axpy_is_bit_identical_to_naive() {
        for n in [0, 1, 3, 4, 5, 17, 64, 129] {
            let x = vector(n, 3);
            let mut y1 = vector(n, 4);
            let mut y2 = y1.clone();
            axpy(0.37, &x, &mut y1);
            naive::axpy(0.37, &x, &mut y2);
            for (a, b) in y1.iter().zip(&y2) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn gemv_matches_naive_across_panel_boundaries() {
        for (m, n) in [(1, 1), (3, 5), (7, 1023), (5, 1024), (4, 1025), (2, 2100)] {
            let a = vector(m * n, 5);
            let x = vector(n, 6);
            let mut y1 = vec![0.0; m];
            let mut y2 = vec![0.0; m];
            gemv(m, n, &a, &x, &mut y1);
            naive::gemv(m, n, &a, &x, &mut y2);
            for (i, (p, q)) in y1.iter().zip(&y2).enumerate() {
                assert!((p - q).abs() <= 1e-12 * n as f64, "({m},{n}) row {i}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn gemv_overwrites_stale_output() {
        let mut y = vec![7.0, 7.0];
        gemv(2, 2, &[1.0, 0.0, 0.0, 1.0], &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![3.0, 4.0]);
        // Degenerate shapes: n == 0 must still zero y.
        let mut y0 = vec![5.0];
        gemv(1, 0, &[], &[], &mut y0);
        assert_eq!(y0, vec![0.0]);
    }

    #[test]
    fn gemm_matches_naive_across_tile_edges() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 4, 4), (63, 64, 65), (70, 70, 70)] {
            let a = vector(m * k, 7);
            let b = vector(k * n, 8);
            let mut c1 = vector(m * n, 9);
            let mut c2 = c1.clone();
            gemm(m, k, n, &a, &b, &mut c1);
            naive::gemm(m, k, n, &a, &b, &mut c2);
            for (i, (p, q)) in c1.iter().zip(&c2).enumerate() {
                assert!((p - q).abs() <= 1e-12 * k as f64, "({m},{k},{n}) slot {i}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn gemm_accumulates() {
        let mut c = vec![10.0];
        gemm(1, 1, 1, &[1.0], &[2.0], &mut c);
        assert_eq!(c, vec![12.0]);
    }

    #[test]
    fn spmv_matches_naive_with_remainder_rows() {
        // A small banded CSR, rows of width 0..=6.
        let rows: usize = 9;
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..rows {
            for j in i.saturating_sub(3)..(i + 3).min(rows) {
                col_idx.push(j);
                values.push(((i * 7 + j * 3) % 11) as f64 - 5.0);
            }
            row_ptr.push(col_idx.len());
        }
        let x = vector(rows, 10);
        let mut y1 = vec![0.0; rows];
        let mut y2 = vec![0.0; rows];
        spmv(&row_ptr, &col_idx, &values, &x, &mut y1);
        naive::spmv(&row_ptr, &col_idx, &values, &x, &mut y2);
        for (p, q) in y1.iter().zip(&y2) {
            assert!((p - q).abs() <= 1e-12, "{p} vs {q}");
        }
    }

    #[test]
    fn pair_dot_matches_naive() {
        let x = vector(40, 11);
        for len in [0, 1, 3, 4, 5, 9, 37] {
            let pairs: Vec<(u32, f64)> =
                (0..len).map(|t| ((t * 7 % 40) as u32, (t as f64 * 0.3).sin())).collect();
            let blocked = pair_dot(&pairs, &x);
            let reference = naive::pair_dot(&pairs, &x);
            assert!((blocked - reference).abs() <= 1e-12, "len={len}: {blocked} vs {reference}");
        }
    }

    #[test]
    fn norm2_and_scale() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        let mut v = vec![1.0, -2.0, 3.0];
        scale(2.0, &mut v);
        assert_eq!(v, vec![2.0, -4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch (a.len()=1, b.len()=2)")]
    fn dot_names_both_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "axpy: length mismatch (x.len()=3, y.len()=1)")]
    fn axpy_names_both_lengths() {
        axpy(1.0, &[1.0, 2.0, 3.0], &mut [0.0]);
    }

    #[test]
    #[should_panic(expected = "gemv: x length mismatch (x.len()=2, cols=3)")]
    fn gemv_names_both_lengths() {
        let mut y = vec![0.0; 2];
        gemv(2, 3, &[0.0; 6], &[0.0; 2], &mut y);
    }
}
