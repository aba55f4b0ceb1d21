//! The arch template profile and its h-dependent parameter laws.
//!
//! Fig. 2 decomposes the charge induced on a wire by a crossing wire into a
//! constant *flat* shape plus two *arch* shapes located at the edges of the
//! crossing footprint. We model the arch profile as a normalized Gaussian
//! bump
//!
//! ```text
//! A(u) = exp(−(u − c)² / (2 b²))
//! ```
//!
//! whose width `b(h)` and support extension `e(h)` scale with the wire
//! separation h. The scaling coefficients are extracted from fine
//! piecewise-constant solutions of the elementary crossing problem by
//! [`crate::calibrate`]; [`ArchLaws::default`] carries the values fitted by
//! that machinery on the Fig. 1 configuration.

pub use bemcap_quad::template::ArchShape;

/// The h-dependent parameter laws of the arch templates:
/// `b(h) = width_coeff · h`, `e(h) = ext_coeff · h`.
///
/// The linear-in-h scaling follows from the scale invariance of the
/// Laplace problem: the elementary crossing configuration at separation
/// `λh` is the `λ`-dilation of the one at `h`, so every extracted length
/// scales linearly. Calibration only needs to determine the two
/// dimensionless coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchLaws {
    /// b(h) = `width_coeff` · h.
    pub width_coeff: f64,
    /// Support half-length e(h) = `ext_coeff` · h (the "extension length" +
    /// "ingrowing length" of Fig. 2, symmetric in our model).
    pub ext_coeff: f64,
}

impl ArchLaws {
    /// Gaussian width at separation `h`.
    pub fn width(&self, h: f64) -> f64 {
        self.width_coeff * h
    }

    /// Support half-length at separation `h`.
    pub fn extension(&self, h: f64) -> f64 {
        self.ext_coeff * h
    }
}

impl Default for ArchLaws {
    /// Coefficients fitted by `calibrate::calibrate_crossing` on the
    /// Fig. 1 crossing at h ≈ w (the typical interconnect regime; the
    /// calibrate module's tests re-derive and cross-check these numbers).
    /// At fixed wire width the measured ratios drift mildly with h
    /// (width/h from ~1.5 at h = 0.6 w down to ~0.7 at h = 1.6 w) because
    /// only h, not the footprint, is dilated; the h ≈ w fit is the
    /// operating point of the bus and interconnect workloads.
    fn default() -> Self {
        ArchLaws { width_coeff: 1.0, ext_coeff: 3.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_peak_and_symmetry() {
        let a = ArchShape { center: 2.0, width: 0.5 };
        assert_eq!(a.eval(2.0), 1.0);
        assert!((a.eval(1.5) - a.eval(2.5)).abs() < 1e-15);
        assert!(a.eval(2.0) > a.eval(2.4));
    }

    #[test]
    fn decays_to_zero() {
        let a = ArchShape { center: 0.0, width: 1.0 };
        assert!(a.eval(6.0) < 1e-7);
    }

    #[test]
    fn full_integral_matches_gaussian() {
        let a = ArchShape { center: 0.0, width: 2.0 };
        assert!((a.full_integral() - 2.0 * (2.0 * std::f64::consts::PI).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn laws_scale_linearly() {
        let laws = ArchLaws { width_coeff: 0.5, ext_coeff: 2.0 };
        assert_eq!(laws.width(2.0), 1.0);
        assert_eq!(laws.extension(3.0), 6.0);
        // Scale invariance: doubling h doubles every length.
        assert_eq!(laws.width(2.0) * 2.0, laws.width(4.0));
    }

    #[test]
    fn display() {
        let a = ArchShape { center: 1.0, width: 0.5 };
        assert!(format!("{a}").contains("arch"));
    }
}
