//! # bemcap-quad — quadrature and analytic 1/r integrals
//!
//! The integration engine behind the system-setup step. With instantiable
//! basis functions the setup step is >95 % of total runtime (paper §3), and
//! every matrix entry is a Galerkin integral of the electrostatic kernel
//! 1/(4πε‖r−r′‖) over a pair of axis-aligned rectangles, optionally weighted
//! by 1-D template shapes (paper §4, equations (6)–(7)).
//!
//! This crate provides:
//!
//! * [`gauss`] — Gauss–Legendre rules of arbitrary order;
//! * [`analytic`] — closed forms: the 8-term 2-D collocation primitive, the
//!   1-D line primitive, and the 16-corner 4-D Galerkin primitive for
//!   parallel rectangles (the "more than 100 terms" expression of §4.1,
//!   derived and property-tested against nested quadrature);
//! * [`galerkin`] — the dispatching engine implementing the
//!   dimension-reduction strategy of §4.1 (use the cheapest expression the
//!   separation distance allows);
//! * `numint` (tests only) — brute-force nested quadrature, the reference
//!   the closed forms are tested against;
//! * [`template`] — flat and arch templates and
//!   [`PairKey`](template::PairKey), the translation- and
//!   mirror-canonical identity of a template pair, with its
//!   axis-permutation canonical form;
//! * [`distinct`] — the one table of distinct pair keys, under the basis
//!   pair plan and the FMM and pFFT near fields alike.
//!
//! ```
//! use bemcap_geom::{Axis, Panel};
//! use bemcap_quad::galerkin::{GalerkinEngine, PanelShape};
//!
//! let a = Panel::new(Axis::Z, 0.0, (0.0, 1.0), (0.0, 1.0))?;
//! let b = Panel::new(Axis::Z, 2.0, (0.0, 1.0), (0.0, 1.0))?;
//! let eng = GalerkinEngine::default();
//! let val = eng.panel_pair(&a, PanelShape::Flat, &b, PanelShape::Flat);
//! // Two unit plates 2 apart: integral ≈ area²/distance = 0.5, reduced a
//! // few percent by the finite plate extent.
//! assert!((val - 0.5).abs() / 0.5 < 0.1);
//! assert!(val < 0.5);
//! # Ok::<(), bemcap_geom::GeomError>(())
//! ```

pub mod analytic;
pub mod distinct;
pub mod galerkin;
pub mod gauss;
#[cfg(test)]
mod numint;
pub mod template;

pub use galerkin::{GalerkinConfig, GalerkinEngine, PanelShape};
pub use gauss::GaussRule;

/// 1/(4π): the kernel prefactor before dividing by the permittivity.
pub const INV_4PI: f64 = 1.0 / (4.0 * std::f64::consts::PI);
