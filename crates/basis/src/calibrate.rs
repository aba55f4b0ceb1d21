//! Extraction of arch-template parameters from elementary problems.
//!
//! This is the Fig. 2 machinery: solve the elementary crossing-wire
//! problem (Fig. 1) with a *fine piecewise-constant* discretization,
//! look at the induced charge density along the target wire's top face,
//! subtract the flat footprint plateau, and measure the width and
//! extension of the remaining arch-shaped tail. Repeating at several
//! separations h and fitting the (scale-invariance-mandated) linear laws
//! produces the [`ArchLaws`] used by instantiation.
//!
//! The piecewise-constant solve here is a deliberately small, self-
//! contained collocation solver — the production-grade Galerkin/FMM/pFFT
//! solvers live in their own crates.

use bemcap_geom::structures::{crossing_wires, CrossingParams};
use bemcap_geom::{Axis, Mesh};
use bemcap_linalg::{LuFactor, Matrix};
use bemcap_quad::galerkin::GalerkinEngine;

use crate::arch::ArchLaws;
use crate::error::BasisError;

/// Measured arch metrics at one separation h.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSample {
    /// Wire separation.
    pub h: f64,
    /// Gaussian-equivalent width (second moment) of the arch tail.
    pub width: f64,
    /// Extension length: distance from the footprint edge where the tail
    /// falls below 5 % of its peak.
    pub extension: f64,
    /// Peak of the tail relative to the flat plateau level.
    pub peak_ratio: f64,
}

/// Solves the elementary crossing problem with a fine piecewise-constant
/// collocation discretization and extracts the arch metrics.
///
/// `divisions` controls the mesh: the longest wire edge is split into that
/// many panels.
///
/// # Errors
///
/// * [`BasisError::Calibration`] if the mesh is too coarse to resolve the
///   footprint or the dense solve fails.
pub fn calibrate_crossing(
    params: CrossingParams,
    divisions: usize,
) -> Result<CalibrationSample, BasisError> {
    let geo = crossing_wires(params);
    let mesh = Mesh::uniform(&geo, divisions);
    let n = mesh.panel_count();
    let eng = GalerkinEngine::default();
    // Collocation system: potential at panel centers from unit densities.
    let mut a = Matrix::zeros(n, n);
    for (i, pi) in mesh.panels().iter().enumerate() {
        let target = pi.panel.center();
        for (j, pj) in mesh.panels().iter().enumerate() {
            a.set(i, j, eng.potential_at(&pj.panel, target));
        }
    }
    // Target (conductor 0) grounded, source (conductor 1) at 1.
    let rhs: Vec<f64> =
        mesh.panels().iter().map(|p| if p.conductor == 1 { 1.0 } else { 0.0 }).collect();
    let lu = LuFactor::pivoted(a)
        .map_err(|e| BasisError::Calibration { detail: format!("dense solve: {e}") })?;
    let q = lu
        .solve_vec(&rhs)
        .map_err(|e| BasisError::Calibration { detail: format!("dense solve: {e}") })?;
    // Charge density profile along the target top face (z = 0 plane),
    // averaged across the wire width.
    let mut profile: Vec<(f64, f64)> = Vec::new();
    for (p, &density) in mesh.panels().iter().zip(&q) {
        if p.conductor == 0 && p.panel.normal() == Axis::Z && p.panel.w().abs() < 1e-12 {
            let c = p.panel.center();
            profile.push((c.x, density.abs()));
        }
    }
    if profile.is_empty() {
        return Err(BasisError::Calibration { detail: "no top-face panels found".into() });
    }
    // Average duplicates at the same x (different y rows).
    profile.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut xs: Vec<f64> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    for (x, v) in profile {
        if let Some(last) = xs.last() {
            if (x - last).abs() < 1e-12 {
                let n = vals.len();
                vals[n - 1] = 0.5 * (vals[n - 1] + v);
                continue;
            }
        }
        xs.push(x);
        vals.push(v);
    }
    analyze_profile(&xs, &vals, params.width, params.separation)
}

/// Extracts the arch metrics from a density profile `vals(xs)`:
/// flat plateau at the footprint center, Gaussian-equivalent width and
/// 5 %-decay extension of the tail beyond the footprint edge.
pub fn analyze_profile(
    xs: &[f64],
    vals: &[f64],
    footprint_width: f64,
    h: f64,
) -> Result<CalibrationSample, BasisError> {
    let edge = footprint_width / 2.0;
    let interior: Vec<f64> = xs
        .iter()
        .zip(vals)
        .filter(|(x, _)| x.abs() < 0.35 * footprint_width)
        .map(|(_, v)| *v)
        .collect();
    if interior.is_empty() {
        return Err(BasisError::Calibration {
            detail: "mesh too coarse: no panels inside the footprint".into(),
        });
    }
    let flat = interior.iter().sum::<f64>() / interior.len() as f64;
    // The source wire's far arms induce a slowly varying background charge
    // along the whole target; the arch is the *excess* above it. Estimate
    // the background from the outermost 15 % of samples on each side.
    let span = xs.last().expect("non-empty profile") - xs[0];
    let far: Vec<f64> = xs
        .iter()
        .zip(vals)
        .filter(|(x, _)| (**x - xs[0]).min(xs.last().unwrap() - **x) < 0.15 * span)
        .map(|(_, v)| *v)
        .collect();
    let baseline = if far.is_empty() { 0.0 } else { far.iter().sum::<f64>() / far.len() as f64 };
    // Tail beyond the +x footprint edge, background-subtracted.
    let tail: Vec<(f64, f64)> = xs
        .iter()
        .zip(vals)
        .filter(|(x, _)| **x > edge)
        .map(|(x, v)| (*x - edge, (*v - baseline).max(0.0)))
        .collect();
    if tail.len() < 4 {
        return Err(BasisError::Calibration {
            detail: "mesh too coarse: no tail panels beyond the footprint".into(),
        });
    }
    let peak = tail.iter().map(|(_, v)| *v).fold(0.0_f64, f64::max);
    if peak <= 0.0 || flat <= 0.0 {
        return Err(BasisError::Calibration { detail: "degenerate charge profile".into() });
    }
    // Extension: where the tail first drops below 5 % of its peak.
    let extension = tail
        .iter()
        .find(|(_, v)| *v < 0.05 * peak)
        .map(|(d, _)| *d)
        .unwrap_or_else(|| tail.last().expect("tail non-empty").0);
    // Gaussian-equivalent width from the tail's second moment about the
    // edge, truncated at the extension cut: the physical profile decays
    // with a slow power-law far tail that must not inflate the bump-scale
    // estimate.
    let near: Vec<&(f64, f64)> = tail.iter().filter(|(d, _)| *d <= extension).collect();
    let m0: f64 = near.iter().map(|(_, v)| v).sum();
    let m2: f64 = near.iter().map(|(d, v)| d * d * v).sum();
    let width = (m2 / m0).sqrt();
    Ok(CalibrationSample { h, width, extension, peak_ratio: peak / flat })
}

/// Fits the linear laws `b(h) = c_w·h`, `e(h) = c_e·h` through the origin
/// from several calibration samples (least squares).
///
/// # Errors
///
/// * [`BasisError::Calibration`] if `samples` is empty.
pub fn fit_laws(samples: &[CalibrationSample]) -> Result<ArchLaws, BasisError> {
    if samples.is_empty() {
        return Err(BasisError::Calibration { detail: "no samples to fit".into() });
    }
    let shh: f64 = samples.iter().map(|s| s.h * s.h).sum();
    let swh: f64 = samples.iter().map(|s| s.width * s.h).sum();
    let seh: f64 = samples.iter().map(|s| s.extension * s.h).sum();
    Ok(ArchLaws { width_coeff: swh / shh, ext_coeff: seh / shh })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_synthetic_gaussian_tail() {
        // Synthetic profile: plateau 1.0 inside |x|<0.5, Gaussian tail with
        // width 0.2 beyond the edges.
        let mut xs = Vec::new();
        let mut vals = Vec::new();
        for i in 0..400 {
            let x = -4.0 + i as f64 * 0.02;
            xs.push(x);
            let v = if x.abs() < 0.5 {
                1.0
            } else {
                0.8 * (-0.5 * ((x.abs() - 0.5) / 0.2).powi(2)).exp()
            };
            vals.push(v);
        }
        let s = analyze_profile(&xs, &vals, 1.0, 0.3).unwrap();
        assert!((s.width - 0.2).abs() < 0.05, "width {}", s.width);
        assert!(s.extension > 2.0 * 0.2 && s.extension < 4.0 * 0.2, "ext {}", s.extension);
        assert!((s.peak_ratio - 0.8).abs() < 0.1);
    }

    #[test]
    fn fit_laws_linear() {
        let samples = vec![
            CalibrationSample { h: 1.0, width: 0.5, extension: 2.0, peak_ratio: 1.0 },
            CalibrationSample { h: 2.0, width: 1.0, extension: 4.0, peak_ratio: 1.0 },
        ];
        let laws = fit_laws(&samples).unwrap();
        assert!((laws.width_coeff - 0.5).abs() < 1e-12);
        assert!((laws.ext_coeff - 2.0).abs() < 1e-12);
        assert!(fit_laws(&[]).is_err());
    }

    #[test]
    fn calibration_on_default_crossing() {
        // Moderate mesh: enough to resolve the footprint, cheap enough for
        // a unit test.
        let params = CrossingParams::default();
        let s = calibrate_crossing(params, 24).unwrap();
        assert!(s.width > 0.0 && s.width.is_finite());
        assert!(s.extension > 0.0 && s.extension.is_finite());
        assert!(s.peak_ratio > 0.0);
        // Lengths are on the scale of the separation (h = 0.5 µm here):
        // the default ArchLaws coefficients were fitted this way.
        let wc = s.width / s.h;
        let ec = s.extension / s.h;
        assert!((0.3..=3.0).contains(&wc), "width coeff {wc}");
        assert!((1.0..=7.0).contains(&ec), "ext coeff {ec}");
    }

    #[test]
    fn errors_on_garbage_profiles() {
        assert!(analyze_profile(&[], &[], 1.0, 0.1).is_err());
        // All mass inside the footprint: no tail.
        let xs = vec![-0.1, 0.0, 0.1];
        let vals = vec![1.0, 1.0, 1.0];
        assert!(analyze_profile(&xs, &vals, 1.0, 0.1).is_err());
    }
}
