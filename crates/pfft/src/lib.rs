//! # bemcap-pfft — precorrected-FFT piecewise-constant BEM baseline
//!
//! The Phillips–White precorrected-FFT method \[6\], the second baseline the
//! paper's Fig. 8 compares against (parallel version: Aluru et al. \[1\]).
//! The approximated matvec:
//!
//! 1. **project** panel charges onto a uniform grid (trilinear stencils);
//! 2. **convolve** with the sampled 1/r kernel via 3-D FFT — one
//!    real-input transform that skips the zero padding, a multiply by the
//!    kernel's real half-spectrum, and the matching inverse;
//! 3. **interpolate** grid potentials back to panel centers;
//! 4. **precorrect**: for nearby pairs, subtract the (inaccurate)
//!    grid-mediated term and add the exact closed-form Galerkin integral.
//!
//! The FFT itself ([`fft`]) is written from scratch: radix-2 Cooley–Tukey
//! on plans built once per operator (bit-reversal and twiddle tables), a
//! real-input transform along the contiguous axis, and the pruned 3-D
//! convolution [`fft::Convolver`].
//! The parallel cost model ([`parallel`]) expresses the FFT's all-to-all
//! transposes — the structural reason the parallel pFFT efficiency
//! collapses to ~42 % at 8 nodes in Fig. 8.
//!
//! ```
//! use bemcap_pfft::fft::{fft_inplace, ifft_inplace, Complex};
//!
//! let mut data: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
//! let orig = data.clone();
//! fft_inplace(&mut data);
//! ifft_inplace(&mut data);
//! for (a, b) in data.iter().zip(&orig) {
//!     assert!((a.re - b.re).abs() < 1e-12);
//! }
//! ```

pub mod error;
pub mod fft;
pub mod grid;
pub mod operator;
pub mod parallel;

pub use error::PfftError;
pub use operator::{solve_prepared, PfftConfig, PfftOperator};
