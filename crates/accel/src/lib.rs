//! # bemcap-accel — integration acceleration techniques (§4.2)
//!
//! With instantiable basis functions the system-setup step dominates, so
//! accelerating the per-entry integrals directly accelerates the solver.
//! This crate implements the paper's four techniques, all evaluating the
//! 2-D analytic expression f₂D of equation (13) (the collocation integral
//! of a rectangle):
//!
//! 1. [`table6d`] — **direct tabulation** of the definite integral on a
//!    parameter grid with multilinear interpolation (§4.2.1);
//! 2. [`table3d`] — **tabulation of the indefinite integral** (3
//!    parameters) with 4-corner evaluation (§4.2.2) — cheaper table, but
//!    ill-conditioned by cancellation, exactly as the paper warns;
//! 3. [`fastmath`] — **tabulation of expensive subroutines**: IEEE-754
//!    mantissa-indexed `log` and a zero-order-hold `atan` (§4.2.3) — the
//!    technique the paper selects for its implementation;
//! 4. [`rational`] — **rational fitting**: a multivariable rational
//!    function trained by constrained linear least squares, our stand-in
//!    for STINS \[2\] (§4.2.4, see DESIGN.md §3).
//!
//! All four implement [`Integrator2d`] next to the exact
//! [`AnalyticIntegrator`] baseline, so the Table 1 harness can time them
//! interchangeably.
//!
//! ```
//! use bemcap_accel::{AnalyticIntegrator, Integrator2d, RectQuery};
//! use bemcap_accel::fastmath::FastMathIntegrator;
//!
//! let q = RectQuery { x0: 0.0, x1: 1.0, y0: 0.0, y1: 1.0, z: 0.5, px: 0.5, py: 0.5 };
//! let exact = AnalyticIntegrator.eval(&q);
//! let fast = FastMathIntegrator::new().eval(&q);
//! assert!((fast - exact).abs() / exact < 0.01); // 1 % error tolerance
//! ```

pub mod error;
pub mod fastmath;
pub mod rational;
pub mod table3d;
pub mod table6d;
pub mod technique;

pub use error::AccelError;
pub use technique::{AnalyticIntegrator, Integrator2d, RectQuery};
