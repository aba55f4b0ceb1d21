//! From-scratch FFTs: planned radix-2 Cooley–Tukey transforms, a real-input
//! transform built on the half-length complex one, and the pruned,
//! real-input 3-D convolution the pFFT matvec runs ([`Convolver`]).

use std::f64::consts::PI;
use std::ops::{Add, Mul, Sub};

/// A complex number (we own the whole numeric stack — no external crates).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Creates a complex number.
    pub const fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// e^{iθ}.
    pub fn cis(theta: f64) -> Complex {
        Complex { re: theta.cos(), im: theta.sin() }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Complex {
        Complex { re: self.re, im: -self.im }
    }

    /// Multiplication by i.
    fn times_i(self) -> Complex {
        Complex { re: -self.im, im: self.re }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        (self.re * self.re + self.im * self.im).sqrt()
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }
}

/// A planned radix-2 complex FFT of one length: the bit-reversal
/// permutation and the twiddle factors are computed once, not per call.
#[derive(Debug, Clone)]
pub struct FftPlan {
    /// `rev[i]`: the bit reversal of `i`.
    rev: Vec<usize>,
    /// e^{-2πik/n} for k < n/2.
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Plans the transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> FftPlan {
        assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
        let bits = n.trailing_zeros();
        let rev = (0..n)
            .map(|i| if bits == 0 { 0 } else { i.reverse_bits() >> (usize::BITS - bits) })
            .collect();
        let twiddles = (0..n / 2).map(|k| Complex::cis(-2.0 * PI * k as f64 / n as f64)).collect();
        FftPlan { rev, twiddles }
    }

    /// Transform length.
    fn len(&self) -> usize {
        self.rev.len()
    }

    /// In-place forward transform, `X_k = Σ x_j e^{-2πijk/n}`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn forward(&self, data: &mut [Complex]) {
        self.run::<false>(data, 1);
    }

    /// In-place *unnormalised* inverse transform, `x_j = Σ X_k e^{+2πijk/n}`
    /// (n × the true inverse).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub(crate) fn inverse(&self, data: &mut [Complex]) {
        self.run::<true>(data, 1);
    }

    /// [`FftPlan::forward`] of every column of `data`, read as n rows of
    /// `row` contiguous values: the butterflies combine whole rows, so
    /// strided columns transform without a gather, each with exactly the
    /// arithmetic of its own 1-D transform.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not n·`row`.
    pub(crate) fn forward_rows(&self, data: &mut [Complex], row: usize) {
        self.run::<false>(data, row);
    }

    /// [`FftPlan::inverse`] of every column, as in [`FftPlan::forward_rows`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not n·`row`.
    pub(crate) fn inverse_rows(&self, data: &mut [Complex], row: usize) {
        self.run::<true>(data, row);
    }

    fn run<const INVERSE: bool>(&self, data: &mut [Complex], row: usize) {
        let n = self.len();
        assert_eq!(data.len(), n * row, "buffer length differs from the planned FFT length");
        for (i, &j) in self.rev.iter().enumerate() {
            if j > i && row == 1 {
                data.swap(i, j);
            } else if j > i {
                let (head, tail) = data.split_at_mut(j * row);
                head[i * row..][..row].swap_with_slice(&mut tail[..row]);
            }
        }
        let mut half = 1;
        while half < n {
            let twiddles = self.twiddles.iter().step_by(n / (2 * half));
            for block in data.chunks_exact_mut(2 * half * row) {
                let (lo, hi) = block.split_at_mut(half * row);
                if row == 1 {
                    // One transform: one butterfly per twiddle, no row loop.
                    for ((a, b), &w) in lo.iter_mut().zip(hi).zip(twiddles.clone()) {
                        butterfly::<INVERSE>(a, b, w);
                    }
                    continue;
                }
                let rows = lo.chunks_exact_mut(row).zip(hi.chunks_exact_mut(row));
                for ((lo, hi), &w) in rows.zip(twiddles.clone()) {
                    for (a, b) in lo.iter_mut().zip(hi) {
                        butterfly::<INVERSE>(a, b, w);
                    }
                }
            }
            half *= 2;
        }
    }
}

/// The radix-2 butterfly `(a, b) ← (a + w·b, a − w·b)`, with w̄ for the
/// inverse.
#[inline(always)]
fn butterfly<const INVERSE: bool>(a: &mut Complex, b: &mut Complex, w: Complex) {
    let t = *b * if INVERSE { w.conj() } else { w };
    *b = *a - t;
    *a = *a + t;
}

/// A planned FFT of a real signal of even length n through a complex FFT of
/// length n/2: the even samples ride in the real part, the odd ones in the
/// imaginary part, and one split pass separates the two spectra. Only the
/// `n/2 + 1` non-redundant bins are kept (the rest are their conjugates).
#[derive(Debug, Clone)]
pub(crate) struct RealFftPlan {
    half: FftPlan,
    /// e^{-2πik/n} for k ≤ n/4.
    split: Vec<Complex>,
}

impl RealFftPlan {
    /// Plans the real transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two of at least 2.
    pub(crate) fn new(n: usize) -> RealFftPlan {
        assert!(n >= 2 && n.is_power_of_two(), "real FFT length must be a power of two ≥ 2");
        let split = (0..=n / 4).map(|k| Complex::cis(-2.0 * PI * k as f64 / n as f64)).collect();
        RealFftPlan { half: FftPlan::new(n / 2), split }
    }

    /// Spectrum bins kept, `n/2 + 1`.
    pub(crate) fn bins(&self) -> usize {
        self.half.len() + 1
    }

    /// Forward transform of `input` zero-padded to length n: writes bins
    /// `0..=n/2` of its spectrum to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `input` is longer than n or `out` is not `n/2 + 1` long.
    pub(crate) fn forward(&self, input: &[f64], out: &mut [Complex]) {
        let m = self.half.len();
        assert!(input.len() <= 2 * m, "real FFT input longer than the planned length");
        assert_eq!(out.len(), m + 1, "real FFT output must hold n/2 + 1 bins");
        let (packed, _) = out.split_at_mut(m);
        let mut pairs = input.chunks(2);
        for z in packed.iter_mut() {
            *z = match pairs.next() {
                Some([even, odd]) => Complex::new(*even, *odd),
                Some([even]) => Complex::new(*even, 0.0),
                _ => Complex::ZERO,
            };
        }
        self.half.forward(packed);
        // Split Z = FFT(even + i·odd) into X_k = E_k + W^k O_k, pairing k
        // with m − k so each bin is read once.
        let z0 = out[0];
        out[0] = Complex::new(z0.re + z0.im, 0.0);
        out[m] = Complex::new(z0.re - z0.im, 0.0);
        for k in 1..=m / 2 {
            let (a, b) = (out[k], out[m - k].conj());
            let even = (a + b) * 0.5;
            let odd = self.split[k] * ((b - a) * 0.5).times_i();
            out[k] = even + odd;
            out[m - k] = (even - odd).conj();
        }
    }

    /// Unnormalised inverse of [`RealFftPlan::forward`]: from bins
    /// `0..=n/2` (Hermitian symmetry supplies the rest) writes the first
    /// `out.len()` samples of n × the real signal. `spec` is used as
    /// workspace and left overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is not `n/2 + 1` long or `out` is longer than n.
    pub(crate) fn inverse(&self, spec: &mut [Complex], out: &mut [f64]) {
        let m = self.half.len();
        assert_eq!(spec.len(), m + 1, "real FFT spectrum must hold n/2 + 1 bins");
        assert!(out.len() <= 2 * m, "real FFT output longer than the planned length");
        // Rebuild 2·Z_k = (X_k + X̄_{m−k}) + i·W̄^k (X_k − X̄_{m−k}).
        let (x0, xm) = (spec[0], spec[m].conj());
        spec[0] = (x0 + xm) + (x0 - xm).times_i();
        for k in 1..=m / 2 {
            let (a, b) = (spec[k], spec[m - k].conj());
            let sum = a + b;
            let diff = (self.split[k].conj() * (a - b)).times_i();
            spec[k] = sum + diff;
            spec[m - k] = (sum - diff).conj();
        }
        let packed = &mut spec[..m];
        self.half.inverse(packed);
        for (pair, z) in out.chunks_mut(2).zip(packed.iter()) {
            pair[0] = z.re;
            if let Some(odd) = pair.get_mut(1) {
                *odd = z.im;
            }
        }
    }
}

/// Aperiodic 3-D convolution of a real field with a fixed, even, real
/// kernel, on a zero-padded row-major grid (z fastest).
///
/// The field lives in the logical box `dims` of the padded `fft_dims` grid;
/// the padding (`fft_dims ≥ 2·dims − 1` per axis) keeps the circular
/// convolution from wrapping. One convolution is a real-input transform
/// along z, complex transforms along y and x, a multiply by the kernel's
/// real half-spectrum, and the inverse passes — and every pass skips the
/// lines that are known zero on input or never read on output:
///
/// * forward z and y run only over lines that start inside the box;
/// * inverse y and z compute only the lines that end inside the box.
///
/// An even kernel (`G(−r) = G(r)` under wrap-around) has a real spectrum,
/// so only `p0·p1·(p2/2 + 1)` real numbers are stored for it; the 1/(p0·p1·p2)
/// inverse normalisation is folded in.
#[derive(Debug, Clone)]
pub struct Convolver {
    dims: [usize; 3],
    fft_dims: [usize; 3],
    x: FftPlan,
    y: FftPlan,
    z: RealFftPlan,
    kernel_hat: Vec<f64>,
}

impl Convolver {
    /// Plans the convolution and transforms `kernel`, the sampled kernel on
    /// the whole padded grid (`kernel[flat(i, j, k)] = G(signed offsets)`).
    ///
    /// # Panics
    ///
    /// Panics if `fft_dims` are not powers of two (z at least 2), a `dims`
    /// axis exceeds its padded size, or `kernel` is not the padded size.
    pub fn new(dims: [usize; 3], fft_dims: [usize; 3], kernel: &[f64]) -> Convolver {
        let [p0, p1, p2] = fft_dims;
        assert!(dims.iter().zip(&fft_dims).all(|(d, p)| d <= p), "box exceeds the padded grid");
        assert_eq!(kernel.len(), p0 * p1 * p2, "kernel must cover the padded grid");
        let mut conv = Convolver {
            dims,
            fft_dims,
            x: FftPlan::new(p0),
            y: FftPlan::new(p1),
            z: RealFftPlan::new(p2),
            kernel_hat: Vec::new(),
        };
        let mut spec = vec![Complex::ZERO; conv.spectrum_len()];
        conv.forward_zy(kernel, &mut spec, fft_dims);
        conv.x.forward_rows(&mut spec, p1 * conv.z.bins());
        let scale = 1.0 / (p0 * p1 * p2) as f64;
        // The imaginary part is rounding noise of an even kernel.
        conv.kernel_hat = spec.iter().map(|c| c.re * scale).collect();
        conv
    }

    /// Complex workspace length [`Convolver::convolve`] needs,
    /// `p0·p1·(p2/2 + 1)`.
    pub fn spectrum_len(&self) -> usize {
        self.fft_dims[0] * self.fft_dims[1] * self.z.bins()
    }

    /// Bytes held by the kernel half-spectrum.
    pub fn memory_bytes(&self) -> usize {
        self.kernel_hat.len() * 8
    }

    /// Replaces the box values of `field` (padded layout, values outside
    /// the box are ignored and left as they are) with their aperiodic
    /// convolution with the kernel, `φ_i = Σ_j q_j G(i − j)` over the box.
    ///
    /// # Panics
    ///
    /// Panics if `field` is not the padded size or `spec` is not
    /// [`Convolver::spectrum_len`] long.
    pub fn convolve(&self, field: &mut [f64], spec: &mut [Complex]) {
        let [d0, d1, d2] = self.dims;
        let [p0, p1, p2] = self.fft_dims;
        assert_eq!(field.len(), p0 * p1 * p2, "field must cover the padded grid");
        assert_eq!(spec.len(), self.spectrum_len(), "spectrum workspace length");
        let h = self.z.bins();
        let plane = p1 * h;
        self.forward_zy(field, spec, self.dims);
        // x over every column, the spectral multiply, and back.
        self.x.forward_rows(spec, plane);
        for (c, k) in spec.iter_mut().zip(&self.kernel_hat) {
            *c = *c * *k;
        }
        self.x.inverse_rows(spec, plane);
        // Inverse y on the box's x-slabs, inverse z on the box's lines.
        for (i, slab) in spec.chunks_exact_mut(plane).take(d0).enumerate() {
            self.y.inverse_rows(slab, h);
            for (j, line) in slab.chunks_exact_mut(h).take(d1).enumerate() {
                self.z.inverse(line, &mut field[(i * p1 + j) * p2..][..d2]);
            }
        }
    }

    /// Forward z (real-to-complex) and y passes of the part of `field`
    /// inside `bounds`: a line that starts outside it is all zeros, so it
    /// is filled with zeros rather than transformed.
    fn forward_zy(&self, field: &[f64], spec: &mut [Complex], bounds: [usize; 3]) {
        let [b0, b1, b2] = bounds;
        let [_, p1, p2] = self.fft_dims;
        let h = self.z.bins();
        let plane = p1 * h;
        for (i, slab) in spec.chunks_exact_mut(plane).enumerate() {
            if i >= b0 {
                slab.fill(Complex::ZERO);
                continue;
            }
            let (lines, pad) = slab.split_at_mut(b1 * h);
            for (j, line) in lines.chunks_exact_mut(h).enumerate() {
                self.z.forward(&field[(i * p1 + j) * p2..][..b2], line);
            }
            pad.fill(Complex::ZERO);
            self.y.forward_rows(slab, h);
        }
    }
}

/// In-place forward FFT.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft_inplace(data: &mut [Complex]) {
    FftPlan::new(data.len()).forward(data);
}

/// In-place inverse FFT (normalized by 1/n).
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn ifft_inplace(data: &mut [Complex]) {
    FftPlan::new(data.len()).inverse(data);
    let n = data.len() as f64;
    for v in data.iter_mut() {
        *v = *v * (1.0 / n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive DFT (O(n²)) — the test reference.
    fn dft_reference(data: &[Complex]) -> Vec<Complex> {
        let n = data.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, x) in data.iter().enumerate() {
                    acc = acc + *x * Complex::cis(-2.0 * PI * (k * j) as f64 / n as f64);
                }
                acc
            })
            .collect()
    }

    fn signal(n: usize) -> Vec<Complex> {
        (0..n).map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos())).collect()
    }

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.7).sin() + 0.25 * (i as f64 * 1.9).cos()).collect()
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let mut x = signal(n);
            let reference = dft_reference(&x);
            fft_inplace(&mut x);
            for (a, b) in x.iter().zip(&reference) {
                assert!((*a - *b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn round_trip() {
        let orig = signal(64);
        let mut x = orig.clone();
        fft_inplace(&mut x);
        ifft_inplace(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn parseval() {
        let x = signal(256);
        let mut f = x.clone();
        fft_inplace(&mut f);
        let t: f64 = x.iter().map(|v| v.abs().powi(2)).sum();
        let s: f64 = f.iter().map(|v| v.abs().powi(2)).sum::<f64>() / 256.0;
        assert!((t - s).abs() < 1e-9 * t);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_panics() {
        let mut x = signal(12);
        fft_inplace(&mut x);
    }

    /// Full complex 3-D transform of a row-major `nx × ny × nz` grid from
    /// the strided row passes, forward or unnormalised inverse.
    fn fft3(data: &mut [Complex], [nx, ny, nz]: [usize; 3], inverse: bool) {
        let (x, y, z) = (FftPlan::new(nx), FftPlan::new(ny), FftPlan::new(nz));
        let pass = |plan: &FftPlan, d: &mut [Complex], row: usize| {
            if inverse {
                plan.inverse_rows(d, row)
            } else {
                plan.forward_rows(d, row)
            }
        };
        pass(&x, data, ny * nz);
        for slab in data.chunks_exact_mut(ny * nz) {
            pass(&y, slab, nz);
        }
        for line in data.chunks_exact_mut(nz) {
            pass(&z, line, 1);
        }
    }

    #[test]
    fn three_dimensional_round_trip() {
        let dims = [4, 8, 2];
        let n = dims.iter().product::<usize>();
        let orig: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, (i % 3) as f64)).collect();
        let mut x = orig.clone();
        fft3(&mut x, dims, false);
        // The DC bin is the plain sum.
        let sum = orig.iter().fold(Complex::ZERO, |acc, v| acc + *v);
        assert!((x[0] - sum).abs() < 1e-10);
        fft3(&mut x, dims, true);
        for (a, b) in x.iter().zip(&orig) {
            assert!((*a * (1.0 / n as f64) - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn real_fft_is_the_half_complex_spectrum() {
        for n in (2..=8).map(|e| 1usize << e) {
            let x = real_signal(n);
            let mut full: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
            fft_inplace(&mut full);
            let plan = RealFftPlan::new(n);
            let mut half = vec![Complex::ZERO; plan.bins()];
            plan.forward(&x, &mut half);
            assert_eq!(half.len(), n / 2 + 1);
            let scale = x.iter().map(|v| v.abs()).sum::<f64>();
            for (k, (a, b)) in half.iter().zip(&full).enumerate() {
                assert!((*a - *b).abs() < 1e-14 * scale, "n={n} bin {k}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn real_fft_round_trips() {
        for n in (2..=8).map(|e| 1usize << e) {
            let x = real_signal(n);
            let plan = RealFftPlan::new(n);
            let mut spec = vec![Complex::ZERO; plan.bins()];
            plan.forward(&x, &mut spec);
            let mut back = vec![0.0; n];
            plan.inverse(&mut spec, &mut back);
            for (a, b) in back.iter().zip(&x) {
                assert!((a / n as f64 - b).abs() < 1e-13, "n={n}");
            }
        }
    }

    #[test]
    fn real_fft_zero_pads_short_input_and_truncates_output() {
        let plan = RealFftPlan::new(16);
        let x = real_signal(5);
        let mut padded = x.clone();
        padded.resize(16, 0.0);
        let (mut a, mut b) = (vec![Complex::ZERO; 9], vec![Complex::ZERO; 9]);
        plan.forward(&x, &mut a);
        plan.forward(&padded, &mut b);
        assert_eq!(a, b);
        let mut back = vec![0.0; 5];
        plan.inverse(&mut a, &mut back);
        for (r, v) in back.iter().zip(&x) {
            assert!((r / 16.0 - v).abs() < 1e-14);
        }
    }

    /// An even test kernel on wrapped offsets, finite at the origin.
    fn kernel_at(o: [isize; 3]) -> f64 {
        let r2 = (o[0] * o[0] + 2 * o[1] * o[1] + 3 * o[2] * o[2]) as f64;
        1.0 / (1.0 + r2.sqrt())
    }

    fn signed(i: usize, n: usize) -> isize {
        if i <= n / 2 {
            i as isize
        } else {
            i as isize - n as isize
        }
    }

    #[test]
    fn pruned_convolution_matches_brute_force() {
        let dims = [5usize, 3, 4];
        let fft_dims = dims.map(|d| (2 * d).next_power_of_two());
        let [p0, p1, p2] = fft_dims;
        let flat = |i: usize, j: usize, k: usize| (i * p1 + j) * p2 + k;
        let mut kernel = vec![0.0; p0 * p1 * p2];
        for i in 0..p0 {
            for j in 0..p1 {
                for k in 0..p2 {
                    kernel[flat(i, j, k)] =
                        kernel_at([signed(i, p0), signed(j, p1), signed(k, p2)]);
                }
            }
        }
        let conv = Convolver::new(dims, fft_dims, &kernel);
        // Garbage outside the box must be ignored and left alone.
        let mut field = vec![7.0; p0 * p1 * p2];
        let mut q = Vec::new();
        for i in 0..dims[0] {
            for j in 0..dims[1] {
                for k in 0..dims[2] {
                    let v = ((i * 7 + j * 3 + k * 5) % 11) as f64 - 5.0;
                    field[flat(i, j, k)] = v;
                    q.push(([i, j, k], v));
                }
            }
        }
        let mut spec = vec![Complex::ZERO; conv.spectrum_len()];
        conv.convolve(&mut field, &mut spec);
        let mut worst: f64 = 0.0;
        let mut norm: f64 = 0.0;
        for &([i, j, k], _) in &q {
            let brute: f64 = q
                .iter()
                .map(|&(s, v)| {
                    let o = [
                        i as isize - s[0] as isize,
                        j as isize - s[1] as isize,
                        k as isize - s[2] as isize,
                    ];
                    v * kernel_at(o)
                })
                .sum();
            worst = worst.max((field[flat(i, j, k)] - brute).abs());
            norm = norm.max(brute.abs());
        }
        assert!(worst < 1e-12 * norm, "max error {worst} against max |φ| {norm}");
        for i in 0..p0 {
            for j in 0..p1 {
                for k in 0..p2 {
                    if i >= dims[0] || j >= dims[1] || k >= dims[2] {
                        assert_eq!(field[flat(i, j, k)], 7.0);
                    }
                }
            }
        }
    }

    #[test]
    fn convolution_theorem_1d() {
        // Circular convolution via FFT equals direct circular convolution.
        let n = 16;
        let a = signal(n);
        let b: Vec<Complex> = (0..n).map(|i| Complex::new((i * i % 7) as f64, 0.0)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        fft_inplace(&mut fa);
        fft_inplace(&mut fb);
        let mut prod: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x * *y).collect();
        ifft_inplace(&mut prod);
        for k in 0..n {
            let mut direct = Complex::ZERO;
            for j in 0..n {
                direct = direct + a[j] * b[(k + n - j) % n];
            }
            assert!((prod[k] - direct).abs() < 1e-9);
        }
    }
}
