//! # bemcap — parallel boundary element method for capacitance extraction
//!
//! Facade crate re-exporting the full `bemcap` workspace: a reproduction of
//! Hsiao & Daniel, *"A Highly Scalable Parallel Boundary Element Method for
//! Capacitance Extraction"*, DAC 2011.
//!
//! The headline idea: use **instantiable basis functions** (a compact
//! representation built from flat and arch templates) so the BEM system is
//! tiny, the dense direct solve is negligible, and >95 % of the runtime is
//! the *embarrassingly parallel* matrix-filling step — which scales to ~90 %
//! parallel efficiency where multipole- and FFT-accelerated solvers saturate
//! near 8 cores.
//!
//! ## Quickstart
//!
//! ```
//! use bemcap::prelude::*;
//!
//! // The 24×24 crossing-bus example of the paper, shrunk to 4×4 for the test.
//! let geo = structures::bus_crossing(4, 4, structures::BusParams::default());
//! let extraction = Extractor::new()
//!     .method(Method::InstantiableBasis)
//!     .extract(&geo)?;
//! let c = extraction.capacitance();
//! assert_eq!(c.dim(), 8);            // 8 conductors
//! assert!(c.get(0, 0) > 0.0);        // self capacitance positive
//! assert!(c.get(0, 1) < 0.0);        // coupling capacitance negative
//! # Ok::<(), bemcap::core::CoreError>(())
//! ```
//!
//! See the `examples/` directory for the paper's workloads and the
//! `scoreboard` bin of the `bemcap-bench` crate, which reruns every table
//! and figure claim of the paper and prints one verdict per claim.

pub use bemcap_accel as accel;
pub use bemcap_basis as basis;
pub use bemcap_core as core;
pub use bemcap_fmm as fmm;
pub use bemcap_geom as geom;
pub use bemcap_linalg as linalg;
pub use bemcap_par as par;
pub use bemcap_pfft as pfft;
pub use bemcap_quad as quad;
pub use bemcap_router as router;
pub use bemcap_serve as serve;

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use bemcap_core::{
        BatchExtractor, BatchJob, BatchPoint, BatchReport, BatchResult, CacheStats,
        CapacitanceMatrix, ChipCapacitance, ChipExtraction, ChipExtractor, ChipReport, ExecConfig,
        ExecStats, Executor, Extraction, ExtractionReport, Extractor, FmmConfig, JobReport,
        KrylovConfig, KrylovStats, Method, PfftConfig, TemplateCache, WindowCache,
    };
    pub use bemcap_geom::{
        structures, Box3, Conductor, Geometry, GeometryDiff, Layout, Mesh, Panel, Partition,
        PartitionConfig, Point3, Rect, Window,
    };
    pub use bemcap_linalg::SparseMatrix;
    pub use bemcap_router::{Router, RouterConfig};
    pub use bemcap_serve::{
        ChipOptions, ChipReply, Client, ExtractOptions, ServeError, Server, ServerConfig,
    };
}
