//! The public extraction API: [`Extractor`] → [`Extraction`].

use bemcap_basis::instantiate::InstantiateConfig;
use bemcap_fmm::FmmConfig;
use bemcap_geom::{Geometry, Mesh};
use bemcap_linalg::{KrylovConfig, Matrix};
use bemcap_pfft::PfftConfig;
use bemcap_quad::galerkin::{GalerkinConfig, GalerkinEngine};

use crate::backend::{Prepared, DEFAULT_AUTO_BUDGET};
use crate::cache::TemplateCache;
use crate::error::CoreError;
use crate::report::{CacheStats, ExtractionReport};

/// Which solver to run. The declaration order is the method's word in
/// [`Extractor::config_digest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The paper's method: instantiable basis functions + direct solve.
    InstantiableBasis,
    /// Piecewise-constant Galerkin, dense direct solve (exact reference
    /// for small problems).
    PwcDense,
    /// Piecewise-constant Galerkin with the multipole-accelerated matvec
    /// (the FASTCAP-style baseline).
    PwcFmm,
    /// Piecewise-constant Galerkin with the precorrected-FFT matvec.
    PwcPfft,
    /// Pick a piecewise-constant method per geometry from the panel
    /// count and the configured memory budget
    /// ([`Extractor::auto_memory_budget`]); see
    /// [`Extractor::resolved_method`] for the policy.
    Auto,
}

impl Method {
    /// Every method, in declaration order.
    const ALL: [Method; 5] = [
        Method::InstantiableBasis,
        Method::PwcDense,
        Method::PwcFmm,
        Method::PwcPfft,
        Method::Auto,
    ];

    /// The method's name in extraction reports and on the wire (`auto`
    /// resolves before a report is written, so reports never carry it).
    pub fn name(self) -> &'static str {
        match self {
            Method::InstantiableBasis => "instantiable",
            Method::PwcDense => "pwc-dense",
            Method::PwcFmm => "pwc-fmm",
            Method::PwcPfft => "pwc-pfft",
            Method::Auto => "auto",
        }
    }

    /// The method named `name` ([`Method::name`]'s inverse).
    pub fn from_name(name: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// How the setup step executes (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Single thread.
    Sequential,
    /// Shared-memory threads (Fig. 4).
    Threads(usize),
}

/// The extraction front end (builder style).
///
/// ```
/// use bemcap_core::{Extractor, Method};
/// use bemcap_geom::structures;
///
/// let geo = structures::parallel_plates(1e-6, 1e-6, 0.2e-6);
/// let out = Extractor::new()
///     .method(Method::PwcDense)
///     .mesh_divisions(6)
///     .extract(&geo)?;
/// assert!(out.capacitance().get(0, 1) < 0.0);
/// # Ok::<(), bemcap_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Extractor {
    pub(crate) method: Method,
    pub(crate) parallelism: Parallelism,
    accelerated: bool,
    pub(crate) instantiate_cfg: InstantiateConfig,
    galerkin_cfg: GalerkinConfig,
    pub(crate) mesh_divisions: usize,
    pub(crate) fmm_cfg: FmmConfig,
    pub(crate) pfft_cfg: PfftConfig,
    pub(crate) krylov_cfg: KrylovConfig,
    pub(crate) auto_budget: usize,
}

impl Default for Extractor {
    fn default() -> Self {
        Extractor::new()
    }
}

impl Extractor {
    /// An extractor with the paper's defaults: instantiable basis,
    /// sequential setup, exact primitives.
    pub fn new() -> Extractor {
        Extractor {
            method: Method::InstantiableBasis,
            parallelism: Parallelism::Sequential,
            accelerated: false,
            instantiate_cfg: InstantiateConfig::default(),
            galerkin_cfg: GalerkinConfig::default(),
            mesh_divisions: 8,
            fmm_cfg: FmmConfig::default(),
            pfft_cfg: PfftConfig::default(),
            krylov_cfg: KrylovConfig::default(),
            auto_budget: DEFAULT_AUTO_BUDGET,
        }
    }

    /// Selects the solver backend.
    pub fn method(mut self, method: Method) -> Extractor {
        self.method = method;
        self
    }

    /// Selects the setup-step execution mode: the Algorithm-1 fill of the
    /// instantiable method and the dense piecewise-constant fill (also
    /// when [`Method::Auto`] picks dense). The iterative backends ignore
    /// it.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Extractor {
        self.parallelism = parallelism;
        self
    }

    /// Enables the §4.2.3 integration acceleration (tabulated `log` and
    /// `atan` primitives). Only [`Method::InstantiableBasis`] reads it:
    /// the dense, FMM and pFFT methods build on `GalerkinEngine::default()`.
    pub fn accelerated(mut self, on: bool) -> Extractor {
        self.accelerated = on;
        self
    }

    /// Overrides the basis instantiation configuration.
    pub fn instantiate_config(mut self, cfg: InstantiateConfig) -> Extractor {
        self.instantiate_cfg = cfg;
        self
    }

    /// Overrides the integration engine configuration. Like
    /// [`Extractor::accelerated`], it moves only
    /// [`Method::InstantiableBasis`]: the dense, FMM and pFFT methods build
    /// on `GalerkinEngine::default()`.
    pub fn galerkin_config(mut self, cfg: GalerkinConfig) -> Extractor {
        self.galerkin_cfg = cfg;
        self
    }

    /// Mesh resolution for the piecewise-constant backends.
    pub fn mesh_divisions(mut self, divisions: usize) -> Extractor {
        self.mesh_divisions = divisions;
        self
    }

    /// Tunes the multipole operator ([`Method::PwcFmm`] and the FMM arm
    /// of [`Method::Auto`]): opening angle and octree leaf size.
    pub fn fmm_config(mut self, cfg: FmmConfig) -> Extractor {
        self.fmm_cfg = cfg;
        self
    }

    /// Tunes the precorrected-FFT operator ([`Method::PwcPfft`] and the
    /// pFFT arm of [`Method::Auto`]): grid spacing, near-stencil radius,
    /// grid cap.
    pub fn pfft_config(mut self, cfg: PfftConfig) -> Extractor {
        self.pfft_cfg = cfg;
        self
    }

    /// Sets the iterative caps (tolerance, window length, matvec cap)
    /// shared by the Krylov-backed backends.
    pub fn krylov_config(mut self, cfg: KrylovConfig) -> Extractor {
        self.krylov_cfg = cfg;
        self
    }

    /// Sets the [`Method::Auto`] memory budget in bytes (default
    /// [`DEFAULT_AUTO_BUDGET`]).
    pub fn auto_memory_budget(mut self, bytes: usize) -> Extractor {
        self.auto_budget = bytes;
        self
    }

    fn engine(&self) -> GalerkinEngine {
        let eng = GalerkinEngine::new(self.galerkin_cfg);
        if self.accelerated {
            eng.with_primitives(
                bemcap_accel::fastmath::fast_double_primitive,
                bemcap_accel::fastmath::fast_quad_primitive,
            )
            .with_triple_primitive(bemcap_accel::fastmath::fast_triple_primitive)
        } else {
            eng
        }
    }

    pub(crate) fn is_accelerated(&self) -> bool {
        self.accelerated
    }

    /// The [`Method`] that will actually run on `geo`: the configured one,
    /// with [`Method::Auto`] resolved by its policy: **dense** when the
    /// mesh has at most [`crate::backend::DENSE_AUTO_PANEL_CAP`] panels
    /// and the N×N system fits the [`Extractor::auto_memory_budget`],
    /// else **pFFT** when its grid fits the budget, else **FMM**.
    /// Deterministic per geometry and configuration; it sizes the mesh
    /// and grid but computes no integrals.
    pub fn resolved_method(&self, geo: &Geometry) -> Method {
        match self.method {
            Method::Auto => self.resolve_auto(geo, &Mesh::uniform(geo, self.mesh_divisions)),
            m => m,
        }
    }

    /// Bit-exact identity of the full solver configuration, including the
    /// active method's own knobs. Two extractors with equal digests
    /// produce bit-identical results on the same geometry, which is what
    /// licenses the router to send their requests to the same replica
    /// (`bemcap_router`'s `routing_key`) and the chip extractor to reuse
    /// a cached window result ([`crate::chip::WindowKey`]) (`f64` fields
    /// compare by bit pattern, so even `-0.0` vs `0.0` keeps configs
    /// apart); extractors differing in any behavior-affecting knob — a
    /// pFFT grid spacing, an FMM tolerance — never share a digest. Knobs
    /// of methods that will not run are left out, so they never split
    /// otherwise-identical configurations.
    pub fn config_digest(&self) -> Vec<u64> {
        let g = &self.galerkin_cfg;
        let ic = &self.instantiate_cfg;
        let parallelism = match self.parallelism {
            Parallelism::Sequential => 0,
            Parallelism::Threads(n) => (1 << 32) | n as u64,
        };
        let mut words = vec![
            self.method as u64,
            parallelism,
            u64::from(self.accelerated),
            self.mesh_divisions as u64,
            ic.laws.width_coeff.to_bits(),
            ic.laws.ext_coeff.to_bits(),
            ic.max_segment_aspect.to_bits(),
            ic.max_gap_ratio.to_bits(),
            g.far_ratio.to_bits(),
            g.mid_ratio.to_bits(),
            g.near_order as u64,
            g.mid_order as u64,
            g.touch_subdiv as u64,
            g.shape_order as u64,
        ];
        let fmm = [self.fmm_cfg.theta.to_bits(), self.fmm_cfg.leaf_size as u64];
        let pfft = [
            self.pfft_cfg.spacing_factor.to_bits(),
            self.pfft_cfg.near_cells as u64,
            self.pfft_cfg.max_grid_points as u64,
        ];
        let krylov = [
            self.krylov_cfg.tol.to_bits(),
            self.krylov_cfg.restart as u64,
            self.krylov_cfg.max_iters as u64,
            1, // the retired preconditioner word (Jacobi): affinity and window keys use it
        ];
        // Auto's resolution is geometry-dependent, so every candidate's
        // knobs take part: two Auto extractors share a digest only when
        // they would resolve identically on *any* geometry.
        let tail: &[&[u64]] = match self.method {
            Method::InstantiableBasis | Method::PwcDense => &[],
            Method::PwcFmm => &[&fmm, &krylov],
            Method::PwcPfft => &[&pfft, &krylov],
            Method::Auto => &[&[self.auto_budget as u64], &fmm, &pfft, &krylov],
        };
        words.extend(tail.concat());
        words
    }

    /// Runs the extraction: prepares the resolved method's system, times
    /// its setup and solve steps, and reports what actually ran (resolved
    /// method name, real worker count, Krylov stats for the iterative
    /// methods).
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyGeometry`] for conductor-less geometries;
    /// * solver errors ([`CoreError::Basis`], [`CoreError::Linalg`],
    ///   [`CoreError::Fmm`], [`CoreError::Pfft`]).
    pub fn extract(&self, geo: &Geometry) -> Result<Extraction, CoreError> {
        Ok(self.extract_with(None, geo)?.0)
    }

    /// [`Extractor::extract`] with the pair integrals probed in `cache`
    /// when given; also returns the job's cache counters. The executor
    /// runs every job through here, so a job is bit-identical to
    /// `extract` with or without the cache.
    pub(crate) fn extract_with(
        &self,
        cache: Option<&TemplateCache>,
        geo: &Geometry,
    ) -> Result<(Extraction, CacheStats), CoreError> {
        if geo.conductor_count() == 0 {
            return Err(CoreError::EmptyGeometry);
        }
        let engine = &self.engine();
        let names: Vec<String> = geo.conductors().iter().map(|c| c.name().to_string()).collect();
        let t = std::time::Instant::now();
        let Prepared { method, n, m_templates, workers, memory, cache: cache_stats, system } = {
            let _span = crate::metrics::Span::enter(crate::metrics::metrics().extract_setup_nanos);
            self.prepare(engine, geo, cache)?
        };
        let setup_seconds = t.elapsed().as_secs_f64();
        let t = std::time::Instant::now();
        let (c, krylov) = {
            let _span = crate::metrics::Span::enter(crate::metrics::metrics().extract_solve_nanos);
            system.solve()?
        };
        let solve_seconds = t.elapsed().as_secs_f64();
        crate::metrics::metrics().extractions.inc();
        let extraction = Extraction {
            capacitance: CapacitanceMatrix { names, c },
            report: ExtractionReport {
                method: method.name().to_string(),
                n,
                m_templates,
                workers,
                setup_seconds,
                solve_seconds,
                memory_bytes: memory,
                krylov,
            },
        };
        Ok((extraction, cache_stats))
    }
}

/// A labeled n×n short-circuit capacitance matrix (F).
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitanceMatrix {
    names: Vec<String>,
    c: Matrix,
}

impl CapacitanceMatrix {
    /// Number of conductors.
    pub fn dim(&self) -> usize {
        self.c.rows()
    }

    /// Entry C_ij (self capacitance on the diagonal, negative coupling off
    /// it).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.c.get(i, j)
    }

    /// Conductor net names, in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.c
    }

    /// Largest relative asymmetry |C_ij − C_ji| / max|C| — a solver
    /// quality indicator (the exact matrix is symmetric).
    pub fn asymmetry(&self) -> f64 {
        let scale = self.c.max_abs().max(f64::MIN_POSITIVE);
        let mut worst = 0.0_f64;
        for i in 0..self.c.rows() {
            for j in (i + 1)..self.c.cols() {
                worst = worst.max((self.c.get(i, j) - self.c.get(j, i)).abs() / scale);
            }
        }
        worst
    }
}

impl std::fmt::Display for CapacitanceMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "capacitance matrix ({} conductors, farad):", self.dim())?;
        for i in 0..self.dim() {
            write!(f, "  {:>8}", self.names[i])?;
            for j in 0..self.dim() {
                write!(f, " {:>12.4e}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The result of one extraction: the capacitance matrix plus the
/// performance report.
#[derive(Debug, Clone)]
pub struct Extraction {
    capacitance: CapacitanceMatrix,
    report: ExtractionReport,
}

impl Extraction {
    /// The capacitance matrix.
    pub fn capacitance(&self) -> &CapacitanceMatrix {
        &self.capacitance
    }

    /// The performance report.
    pub fn report(&self) -> &ExtractionReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bemcap_geom::structures::{self, CrossingParams};

    #[test]
    fn method_names_round_trip() {
        let names: Vec<_> = Method::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names, ["instantiable", "pwc-dense", "pwc-fmm", "pwc-pfft", "auto"]);
        for m in Method::ALL {
            assert_eq!(Method::from_name(m.name()), Some(m));
        }
        assert_eq!(Method::from_name("fastcap"), None);
    }

    #[test]
    fn instantiable_extraction_end_to_end() {
        let geo = structures::crossing_wires(CrossingParams::default());
        let out = Extractor::new().extract(&geo).unwrap();
        let c = out.capacitance();
        assert_eq!(c.dim(), 2);
        assert!(c.get(0, 0) > 0.0);
        assert!(c.get(1, 1) > 0.0);
        assert!(c.get(0, 1) < 0.0);
        assert!(c.asymmetry() < 1e-6, "asymmetry {}", c.asymmetry());
        assert_eq!(c.names()[0], "target");
        let r = out.report();
        assert_eq!(r.method, "instantiable");
        assert!(r.m_templates.unwrap() >= r.n);
    }

    #[test]
    fn instantiable_matches_pwc_reference_loosely() {
        // The headline accuracy claim: the compact basis reproduces the
        // finely discretized reference within a few percent (2.8 % in the
        // paper's Table 2 — our basis is a reimplementation, so we accept
        // a looser band; the scoreboard bin grades it at the paper's size).
        let geo = structures::crossing_wires(CrossingParams::default());
        let inst = Extractor::new().extract(&geo).unwrap();
        let reference =
            Extractor::new().method(Method::PwcDense).mesh_divisions(16).extract(&geo).unwrap();
        let ci = -inst.capacitance().get(0, 1);
        let cr = -reference.capacitance().get(0, 1);
        let rel = (ci - cr).abs() / cr;
        assert!(rel < 0.25, "coupling {ci} vs reference {cr} (rel {rel:.3})");
    }

    #[test]
    fn all_parallel_modes_agree() {
        let geo = structures::crossing_wires(CrossingParams::default());
        let seq = Extractor::new().extract(&geo).unwrap();
        let thr = Extractor::new().parallelism(Parallelism::Threads(3)).extract(&geo).unwrap();
        let bits = |e: &Extraction| {
            e.capacitance().matrix().as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&thr), bits(&seq));
        assert_eq!(thr.report().workers, 3);
    }

    #[test]
    fn dense_fill_honours_parallelism() {
        let geo = structures::crossing_wires(CrossingParams::default());
        let dense = || Extractor::new().method(Method::PwcDense).mesh_divisions(6);
        let seq = dense().extract(&geo).unwrap();
        let thr = dense().parallelism(Parallelism::Threads(3)).extract(&geo).unwrap();
        let bits = |e: &Extraction| {
            e.capacitance().matrix().as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&thr), bits(&seq));
        assert_eq!(seq.report().workers, 1);
        assert_eq!(thr.report().workers, 3);
    }

    #[test]
    fn accelerated_engine_is_close_to_exact() {
        let geo = structures::crossing_wires(CrossingParams::default());
        let exact = Extractor::new().extract(&geo).unwrap();
        let fast = Extractor::new().accelerated(true).extract(&geo).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let a = exact.capacitance().get(i, j);
                let b = fast.capacitance().get(i, j);
                assert!((a - b).abs() < 0.01 * a.abs().max(b.abs()), "({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn setup_dominates_runtime() {
        // The paper's §3 premise: >95 % of runtime in setup. On tiny
        // examples the ratio is noisy, so require a clear majority.
        let geo = structures::bus_crossing(2, 2, structures::BusParams::default());
        let out = Extractor::new().extract(&geo).unwrap();
        assert!(
            out.report().setup_fraction() > 0.8,
            "setup fraction {}",
            out.report().setup_fraction()
        );
    }

    #[test]
    fn empty_geometry_error() {
        let geo = Geometry::new(vec![]);
        assert!(matches!(Extractor::new().extract(&geo), Err(CoreError::EmptyGeometry)));
    }

    #[test]
    fn display_formats() {
        let geo = structures::crossing_wires(CrossingParams::default());
        let out = Extractor::new().extract(&geo).unwrap();
        let s = format!("{}", out.capacitance());
        assert!(s.contains("target") && s.contains("source"));
    }
}
