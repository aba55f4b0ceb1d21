//! # bemcap-fmm — multipole-accelerated piecewise-constant BEM baseline
//!
//! The FASTCAP \[4\] stand-in: a piecewise-constant Galerkin BEM whose
//! matrix-vector product is accelerated by an octree of Cartesian
//! multipole expansions (monopole + dipole + quadrupole) with a
//! Barnes–Hut-style multipole acceptance test, wrapped in a Krylov solver.
//! Near-field interactions use the exact closed-form Galerkin integrals.
//!
//! This reproduces the *structure* that matters to the paper's argument:
//! an O(N log N) approximated matvec with heavy data dependency (tree
//! levels, shared residual vectors) that is cheap sequentially but
//! parallelizes poorly (§1, Fig. 8). See DESIGN.md §3 for the substitution
//! note (Cartesian expansions instead of FastCap's spherical harmonics —
//! same complexity class, same accuracy knob).
//!
//! ```
//! use bemcap_geom::{structures, Mesh};
//! use bemcap_fmm::solver::FmmSolver;
//!
//! let geo = structures::parallel_plates(1e-6, 1e-6, 0.2e-6);
//! let mesh = Mesh::uniform(&geo, 6);
//! let result = FmmSolver::default().solve(&geo, &mesh)?;
//! assert_eq!(result.capacitance.rows(), 2);
//! assert!(result.capacitance.get(0, 0) > 0.0);
//! # Ok::<(), bemcap_fmm::FmmError>(())
//! ```

pub mod error;
pub mod multipole;
pub mod octree;
pub mod operator;
pub mod parallel;
pub mod solver;

pub use error::FmmError;
pub use multipole::Moments;
pub use octree::Octree;
pub use operator::{FmmConfig, FmmOperator};
pub use solver::{FmmSolution, FmmSolver};
