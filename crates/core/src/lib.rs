//! # bemcap-core — the capacitance extraction solver
//!
//! The user-facing layer of the workspace: build a [`Geometry`], pick a
//! [`Method`], get a capacitance matrix.
//!
//! * [`Method::InstantiableBasis`] — the paper's solver: instantiable
//!   basis functions, Algorithm 1 matrix filling (sequential or
//!   threaded), pivoted LU solve of the small indefinite P;
//! * [`Method::PwcDense`] — piecewise-constant Galerkin with a dense
//!   blocked-Cholesky solve (small problems, exact reference);
//! * [`Method::PwcFmm`] — the FASTCAP-style multipole baseline;
//! * [`Method::PwcPfft`] — the precorrected-FFT baseline; both iterate
//!   on one Krylov space recycled across the conductors.
//!
//! For families of similar structures (sweeps, multi-net corners), the
//! [`batch`] module schedules many extractions across a worker pool and
//! shares pair integrals between them — see [`BatchExtractor`], whose
//! [`BatchExtractor::extract_family`] runs a parameter sweep.
//! [`BatchExtractor`] is the one client of the shared execution core
//! ([`exec::Executor`]) — batch runs, chip window misses and the
//! `bemcap-serve` daemon's jobs all go through it: a bounded work queue
//! with admission control ([`CoreError::Busy`] backpressure) that admits
//! a submission's jobs together and runs each job as its own task on the
//! next idle worker.
//!
//! ```
//! use bemcap_core::{Extractor, Method};
//! use bemcap_geom::structures::{self, CrossingParams};
//!
//! let geo = structures::crossing_wires(CrossingParams::default());
//! let extraction = Extractor::new().method(Method::InstantiableBasis).extract(&geo)?;
//! let c = extraction.capacitance();
//! assert_eq!(c.dim(), 2);
//! assert!(c.get(0, 0) > 0.0 && c.get(0, 1) < 0.0);
//! # Ok::<(), bemcap_core::CoreError>(())
//! ```

pub mod assembly;
pub mod backend;
pub mod batch;
pub mod cache;
pub mod chip;
pub mod error;
pub mod exec;
pub mod extraction;
pub mod metrics;
pub mod report;
pub mod solver;

pub use batch::{BatchExtractor, BatchJob, BatchPoint, BatchResult};
pub use cache::TemplateCache;
pub use chip::{
    ChipCapacitance, ChipExtraction, ChipExtractor, ChipReport, WindowCache, WindowKey,
    WindowResult,
};
pub use error::CoreError;
pub use exec::{ExecConfig, Executor, JobOutcome, Ticket};
pub use extraction::{CapacitanceMatrix, Extraction, Extractor, Method};
pub use report::{BatchReport, CacheStats, ExecStats, ExtractionReport, JobReport};

// The typed solver configurations, re-exported so downstream layers
// (`bemcap-serve`, benches, applications) configure solvers without
// depending on the solver crates directly.
pub use bemcap_fmm::FmmConfig;
pub use bemcap_geom::Geometry;
pub use bemcap_linalg::{KrylovConfig, KrylovStats};
pub use bemcap_pfft::PfftConfig;
