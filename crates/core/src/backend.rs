//! The pluggable solver-backend layer: one [`Backend`] trait, four
//! implementations, and the [`Method::Auto`] resolution policy.
//!
//! The paper's headline evidence (Fig. 8, Tables 1–3) is a *comparison*
//! between the instantiable-basis method and the FASTCAP-style multipole
//! and precorrected-FFT baselines, so every method is a first-class
//! citizen here: each one is a [`Backend`] with a typed configuration, a
//! `prepare`/`solve` split that mirrors the paper's system-setup vs
//! system-solving phases, honest per-phase timing and memory accounting,
//! and a stable contribution to the solver-configuration digest that the
//! execution core ([`crate::exec::Executor`]) coalesces on.
//!
//! * [`InstantiableBackend`] — the paper's method: instantiate templates,
//!   fill P and Φ (Algorithm 1, sequential/threaded/message-passing),
//!   dense LU solve;
//! * [`DensePwcBackend`] — piecewise-constant Galerkin, dense assembly
//!   (Algorithm 1 on one flat template per panel) in the extractor's
//!   [`Parallelism`] mode, direct solve;
//! * [`FmmBackend`] — multipole-accelerated matvec + preconditioned GMRES
//!   through the shared `bemcap_linalg::gmres_grouped` driver;
//! * [`PfftBackend`] — precorrected-FFT matvec + the same driver; the
//!   operator is constructed exactly once and solved on directly;
//! * [`AutoBackend`] — picks one of the piecewise-constant backends from
//!   the panel count and a memory budget (see [`AutoBackend::resolve`]).
//!
//! The iterative backends share [`bemcap_linalg::KrylovConfig`] caps and a
//! [`bemcap_linalg::PrecondKind`] choice (identity / diagonal /
//! block-Jacobi); the concrete [`Preconditioner`] is built at prepare
//! time from the operator's exact entries.

use std::fmt;

use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::TemplateIndex;
use bemcap_fmm::{FmmConfig, FmmOperator, FmmSolver};
use bemcap_geom::{Geometry, Mesh};
use bemcap_linalg::{
    BlockJacobiPrecond, DiagonalPrecond, IdentityPrecond, KrylovConfig, KrylovStats, Matrix,
    PrecondKind, Preconditioner,
};
use bemcap_pfft::grid::Grid;
use bemcap_pfft::{PfftConfig, PfftOperator};
use bemcap_quad::galerkin::{GalerkinEngine, PanelShape};

use crate::assembly;
use crate::cache::TemplateCache;
use crate::error::CoreError;
use crate::extraction::{Method, Parallelism};
use crate::report::CacheStats;
use crate::solver::{solve_capacitance, DensePwcSolver};

/// Most panels [`AutoBackend`] hands to the dense direct solver: beyond
/// this, the O(N²) matrix and O(N³) solve stop being the fast path even
/// when they fit the memory budget.
pub const DENSE_AUTO_PANEL_CAP: usize = 2048;

/// Default [`AutoBackend`] memory budget (256 MiB).
pub const DEFAULT_AUTO_BUDGET: usize = 256 << 20;

/// What a backend's solve step produces.
#[derive(Debug)]
pub struct SolveOutput {
    /// The n×n short-circuit capacitance matrix (F).
    pub capacitance: Matrix,
    /// Krylov counters for iterative backends (`None` for direct solves).
    pub krylov: Option<KrylovStats>,
}

/// One solver backend: a typed configuration that can set up a solver
/// state for a geometry ([`Backend::prepare`]) and fold itself into the
/// coalescing-safe configuration digest ([`Backend::digest`]).
///
/// [`crate::Extractor::extract`] is a thin driver over this trait: it
/// resolves the [`Method`] to a backend, times `prepare`, times
/// [`PreparedSystem::solve`], and assembles the
/// [`crate::ExtractionReport`] from the prepared system's accounting.
/// Executor jobs run the same driver with their shared cache.
pub trait Backend: fmt::Debug {
    /// Appends this backend's full typed configuration to the solver
    /// digest, word by word (`f64` fields as raw bits). Two extractors
    /// whose digests differ can never coalesce into one micro-batch, so
    /// every behavior-affecting knob must land here.
    fn digest(&self, words: &mut Vec<u64>);

    /// The system-setup step: build everything the solve needs (basis
    /// instantiation + assembly, or mesh + operator + preconditioner).
    /// A backend that evaluates template-pair integrals probes each
    /// distinct one in `cache` when given; the others ignore it.
    ///
    /// # Errors
    ///
    /// Backend-specific construction failures ([`CoreError::Basis`],
    /// [`CoreError::Fmm`], [`CoreError::Pfft`], [`CoreError::Linalg`]).
    fn prepare(
        &self,
        engine: &GalerkinEngine,
        geo: &Geometry,
        cache: Option<&TemplateCache>,
    ) -> Result<Box<dyn PreparedSystem>, CoreError>;
}

/// A solver state produced by [`Backend::prepare`]: self-describing
/// (dimension, workers, memory) and consumable by one solve.
pub trait PreparedSystem {
    /// The report/wire name of the backend that actually ran
    /// ("instantiable", "pwc-dense", "pwc-fmm", "pwc-pfft").
    fn method_name(&self) -> &'static str;

    /// System dimension N (basis functions or panels).
    fn n(&self) -> usize;

    /// Template count M (instantiable backend only).
    fn m_templates(&self) -> Option<usize> {
        None
    }

    /// Workers the setup step actually used.
    fn workers(&self) -> usize {
        1
    }

    /// Estimated solver memory in bytes (system matrix or operator).
    fn memory_bytes(&self) -> usize;

    /// Pair-integral cache counters of the setup step (all zero for a
    /// backend that does not use the cache).
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// The system-solving step.
    ///
    /// # Errors
    ///
    /// [`CoreError::Linalg`] (direct solves), [`CoreError::Fmm`] /
    /// [`CoreError::Pfft`] (Krylov failures).
    fn solve(self: Box<Self>) -> Result<SolveOutput, CoreError>;
}

fn krylov_digest(krylov: &KrylovConfig, precond: PrecondKind, words: &mut Vec<u64>) {
    words.push(krylov.tol.to_bits());
    words.push(krylov.restart as u64);
    words.push(krylov.max_iters as u64);
    words.push(match precond {
        PrecondKind::Identity => 0,
        PrecondKind::Diagonal => 1,
        PrecondKind::BlockJacobi { block } => (2 << 32) | block as u64,
    });
}

/// Builds the concrete [`Preconditioner`] an iterative backend asked for.
/// Diagonal uses the operator's own exact inverse diagonal (bit-identical
/// to the historical built-in preconditioning); block-Jacobi factors the
/// exact closed-form diagonal blocks of the panel system.
fn build_preconditioner(
    kind: PrecondKind,
    mesh: &Mesh,
    eps_rel: f64,
    inv_diag: &[f64],
) -> Result<Box<dyn Preconditioner>, CoreError> {
    match kind {
        PrecondKind::Identity => Ok(Box::new(IdentityPrecond)),
        PrecondKind::Diagonal => Ok(Box::new(DiagonalPrecond::new(inv_diag.to_vec()))),
        PrecondKind::BlockJacobi { block } => {
            let block = block.max(1);
            let eng = GalerkinEngine::default();
            let scale = assembly::kernel_scale(eps_rel);
            let panels = mesh.panels();
            let n = panels.len();
            let mut blocks = Vec::with_capacity(n.div_ceil(block));
            let mut start = 0;
            while start < n {
                let b = block.min(n - start);
                blocks.push(Matrix::from_fn(b, b, |i, j| {
                    scale
                        * eng.panel_pair(
                            &panels[start + i].panel,
                            PanelShape::Flat,
                            &panels[start + j].panel,
                            PanelShape::Flat,
                        )
                }));
                start += b;
            }
            Ok(Box::new(BlockJacobiPrecond::new(blocks)?))
        }
    }
}

/// A direct-solve system: P and Φ assembled, LU pending. Shared by the
/// instantiable and dense-PWC backends.
struct PreparedDirect {
    name: &'static str,
    n: usize,
    m_templates: Option<usize>,
    workers: usize,
    memory: usize,
    cache: CacheStats,
    p: Matrix,
    phi: Matrix,
}

impl PreparedSystem for PreparedDirect {
    fn method_name(&self) -> &'static str {
        self.name
    }

    fn n(&self) -> usize {
        self.n
    }

    fn m_templates(&self) -> Option<usize> {
        self.m_templates
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn memory_bytes(&self) -> usize {
        self.memory
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache
    }

    fn solve(self: Box<Self>) -> Result<SolveOutput, CoreError> {
        let (c, _) = solve_capacitance(self.p, &self.phi)?;
        Ok(SolveOutput { capacitance: c, krylov: None })
    }
}

/// The paper's method: instantiable basis functions + direct solve.
#[derive(Debug, Clone, Copy)]
pub struct InstantiableBackend {
    /// Basis instantiation configuration.
    pub instantiate: InstantiateConfig,
    /// How the Algorithm-1 setup step executes.
    pub parallelism: Parallelism,
}

impl Backend for InstantiableBackend {
    fn digest(&self, _words: &mut Vec<u64>) {
        // Fully covered by the common digest words (instantiation laws,
        // quadrature settings, parallelism).
    }

    fn prepare(
        &self,
        engine: &GalerkinEngine,
        geo: &Geometry,
        cache: Option<&TemplateCache>,
    ) -> Result<Box<dyn PreparedSystem>, CoreError> {
        let set = instantiate(geo, &self.instantiate)?;
        let index = TemplateIndex::new(&set);
        let (asm, timings, stats) = assembly::assemble(
            engine,
            &index,
            &set,
            geo.conductor_count(),
            geo.eps_rel(),
            self.parallelism,
            cache,
        );
        Ok(Box::new(PreparedDirect {
            name: "instantiable",
            n: index.basis_count(),
            m_templates: Some(index.template_count()),
            workers: timings.len(),
            memory: asm.p.memory_bytes() + asm.phi.memory_bytes(),
            cache: stats,
            p: asm.p,
            phi: asm.phi,
        }))
    }
}

/// Piecewise-constant Galerkin with a dense direct solve — the exact
/// reference for small problems. The fill runs in the extractor's
/// [`Parallelism`] mode and reports the worker count it actually used.
#[derive(Debug, Clone, Copy)]
pub struct DensePwcBackend {
    /// Mesh resolution (uniform divisions per box edge).
    pub mesh_divisions: usize,
    /// How the dense fill executes.
    pub parallelism: Parallelism,
}

impl DensePwcBackend {
    /// [`Backend::prepare`] on an already-built mesh (how
    /// [`AutoBackend`] hands over the mesh it sized during resolution).
    fn prepare_on(&self, geo: &Geometry, mesh: Mesh) -> Result<Box<dyn PreparedSystem>, CoreError> {
        let (p, phi, workers) = DensePwcSolver.assemble_in_mode(geo, &mesh, self.parallelism);
        Ok(Box::new(PreparedDirect {
            name: "pwc-dense",
            n: mesh.panel_count(),
            m_templates: None,
            workers,
            memory: p.memory_bytes() + phi.memory_bytes(),
            cache: CacheStats::default(),
            p,
            phi,
        }))
    }
}

impl Backend for DensePwcBackend {
    fn digest(&self, _words: &mut Vec<u64>) {
        // Fully covered by the common digest words (mesh divisions,
        // parallelism).
    }

    fn prepare(
        &self,
        _engine: &GalerkinEngine,
        geo: &Geometry,
        _cache: Option<&TemplateCache>,
    ) -> Result<Box<dyn PreparedSystem>, CoreError> {
        self.prepare_on(geo, Mesh::uniform(geo, self.mesh_divisions))
    }
}

struct PreparedFmm {
    op: FmmOperator,
    mesh: Mesh,
    n_cond: usize,
    solver: FmmSolver,
    pre: Box<dyn Preconditioner>,
}

impl PreparedSystem for PreparedFmm {
    fn method_name(&self) -> &'static str {
        "pwc-fmm"
    }

    fn n(&self) -> usize {
        self.mesh.panel_count()
    }

    fn memory_bytes(&self) -> usize {
        self.op.memory_bytes()
    }

    fn solve(self: Box<Self>) -> Result<SolveOutput, CoreError> {
        let (c, stats) =
            self.solver.solve_prepared(&self.op, &self.mesh, self.n_cond, &*self.pre)?;
        Ok(SolveOutput { capacitance: c, krylov: Some(stats) })
    }
}

/// The FASTCAP-style baseline: multipole-accelerated matvec wrapped in
/// preconditioned GMRES.
#[derive(Debug, Clone, Copy)]
pub struct FmmBackend {
    /// Mesh resolution (uniform divisions per box edge).
    pub mesh_divisions: usize,
    /// Multipole operator tuning (opening angle, leaf size).
    pub config: FmmConfig,
    /// Iterative caps (tolerance, restart, max iterations).
    pub krylov: KrylovConfig,
    /// Which preconditioner to build at prepare time.
    pub precond: PrecondKind,
}

impl FmmBackend {
    fn prepare_on(&self, geo: &Geometry, mesh: Mesh) -> Result<Box<dyn PreparedSystem>, CoreError> {
        let op = FmmOperator::new(&mesh, geo.eps_rel(), self.config).map_err(CoreError::Fmm)?;
        let pre = build_preconditioner(self.precond, &mesh, geo.eps_rel(), op.inv_diag())?;
        let solver = FmmSolver {
            config: self.config,
            tol: self.krylov.tol,
            restart: self.krylov.restart,
            max_iters: self.krylov.max_iters,
        };
        Ok(Box::new(PreparedFmm { op, mesh, n_cond: geo.conductor_count(), solver, pre }))
    }
}

impl Backend for FmmBackend {
    fn digest(&self, words: &mut Vec<u64>) {
        words.push(self.config.theta.to_bits());
        words.push(self.config.leaf_size as u64);
        krylov_digest(&self.krylov, self.precond, words);
    }

    fn prepare(
        &self,
        _engine: &GalerkinEngine,
        geo: &Geometry,
        _cache: Option<&TemplateCache>,
    ) -> Result<Box<dyn PreparedSystem>, CoreError> {
        self.prepare_on(geo, Mesh::uniform(geo, self.mesh_divisions))
    }
}

struct PreparedPfft {
    op: PfftOperator,
    mesh: Mesh,
    n_cond: usize,
    krylov: KrylovConfig,
    pre: Box<dyn Preconditioner>,
}

impl PreparedSystem for PreparedPfft {
    fn method_name(&self) -> &'static str {
        "pwc-pfft"
    }

    fn n(&self) -> usize {
        self.mesh.panel_count()
    }

    fn memory_bytes(&self) -> usize {
        self.op.memory_bytes()
    }

    fn solve(self: Box<Self>) -> Result<SolveOutput, CoreError> {
        let (c, stats) = bemcap_pfft::solve_prepared(
            &self.op,
            &self.mesh,
            self.n_cond,
            &*self.pre,
            &self.krylov,
        )?;
        Ok(SolveOutput { capacitance: c, krylov: Some(stats) })
    }
}

/// The precorrected-FFT baseline. The operator is built exactly once at
/// prepare time and the solve runs on that same operator — setup and
/// solve timings are the honest per-phase costs.
#[derive(Debug, Clone, Copy)]
pub struct PfftBackend {
    /// Mesh resolution (uniform divisions per box edge).
    pub mesh_divisions: usize,
    /// pFFT operator tuning (grid spacing, near stencil, grid cap).
    pub config: PfftConfig,
    /// Iterative caps (tolerance, restart, max iterations).
    pub krylov: KrylovConfig,
    /// Which preconditioner to build at prepare time.
    pub precond: PrecondKind,
}

impl PfftBackend {
    fn prepare_on(&self, geo: &Geometry, mesh: Mesh) -> Result<Box<dyn PreparedSystem>, CoreError> {
        let op = PfftOperator::new(&mesh, geo.eps_rel(), self.config).map_err(CoreError::Pfft)?;
        let pre = build_preconditioner(self.precond, &mesh, geo.eps_rel(), op.inv_diag())?;
        Ok(Box::new(PreparedPfft {
            op,
            mesh,
            n_cond: geo.conductor_count(),
            krylov: self.krylov,
            pre,
        }))
    }
}

impl Backend for PfftBackend {
    fn digest(&self, words: &mut Vec<u64>) {
        words.push(self.config.spacing_factor.to_bits());
        words.push(self.config.near_cells as u64);
        words.push(self.config.max_grid_points as u64);
        krylov_digest(&self.krylov, self.precond, words);
    }

    fn prepare(
        &self,
        _engine: &GalerkinEngine,
        geo: &Geometry,
        _cache: Option<&TemplateCache>,
    ) -> Result<Box<dyn PreparedSystem>, CoreError> {
        self.prepare_on(geo, Mesh::uniform(geo, self.mesh_divisions))
    }
}

/// [`Method::Auto`]: picks a piecewise-constant backend per geometry from
/// the panel count and a memory budget. The paper's instantiable method
/// stays an explicit choice (its accuracy model differs from the mesh
/// discretization family, so it is not silently substituted).
#[derive(Debug, Clone, Copy)]
pub struct AutoBackend {
    /// Mesh resolution the candidates would run at.
    pub mesh_divisions: usize,
    /// Solver memory budget in bytes ([`DEFAULT_AUTO_BUDGET`] by default).
    pub memory_budget: usize,
    /// FMM tuning, if FMM is picked.
    pub fmm: FmmConfig,
    /// pFFT tuning, if pFFT is picked.
    pub pfft: PfftConfig,
    /// Iterative caps for either iterative candidate.
    pub krylov: KrylovConfig,
    /// Preconditioner for either iterative candidate.
    pub precond: PrecondKind,
    /// How the dense fill executes, if dense is picked.
    pub parallelism: Parallelism,
}

impl AutoBackend {
    /// The resolution policy, deterministic per geometry:
    ///
    /// 1. **Dense** when the panel count is at most
    ///    [`DENSE_AUTO_PANEL_CAP`] *and* the full N×N system plus Φ fits
    ///    the budget — exact and direct, the fast path for small meshes.
    /// 2. Otherwise **pFFT** when its grid kernel, FFT workspace, and
    ///    stencils fit the budget (near-field precorrection excluded from
    ///    the estimate; it scales with the same mesh).
    /// 3. Otherwise **FMM**, the lowest-memory fallback.
    pub fn resolve(&self, geo: &Geometry) -> Method {
        self.resolve_on(geo, &Mesh::uniform(geo, self.mesh_divisions))
    }

    /// [`AutoBackend::resolve`] on an already-built mesh, so prepare can
    /// size, resolve, and hand the one mesh to the chosen backend.
    fn resolve_on(&self, geo: &Geometry, mesh: &Mesh) -> Method {
        let n = mesh.panel_count();
        let dense_bytes = n * n * 8 + n * geo.conductor_count() * 8;
        if n <= DENSE_AUTO_PANEL_CAP && dense_bytes <= self.memory_budget {
            return Method::PwcDense;
        }
        if let Ok(grid) = Grid::fit(mesh, self.pfft.spacing_factor, self.pfft.max_grid_points) {
            // Sampled kernel + one FFT field, 16 bytes/complex each, plus
            // the 8-point trilinear stencils.
            let pfft_bytes = grid.fft_points() * 32 + n * 8 * 16;
            if pfft_bytes <= self.memory_budget {
                return Method::PwcPfft;
            }
        }
        Method::PwcFmm
    }
}

impl Backend for AutoBackend {
    fn digest(&self, words: &mut Vec<u64>) {
        // Resolution is geometry-dependent, so every candidate's full
        // configuration participates: two Auto extractors may only
        // coalesce when they would resolve identically on *any* geometry.
        words.push(self.memory_budget as u64);
        words.push(self.fmm.theta.to_bits());
        words.push(self.fmm.leaf_size as u64);
        words.push(self.pfft.spacing_factor.to_bits());
        words.push(self.pfft.near_cells as u64);
        words.push(self.pfft.max_grid_points as u64);
        krylov_digest(&self.krylov, self.precond, words);
    }

    fn prepare(
        &self,
        _engine: &GalerkinEngine,
        geo: &Geometry,
        _cache: Option<&TemplateCache>,
    ) -> Result<Box<dyn PreparedSystem>, CoreError> {
        // Size the mesh once: resolution reads it, the chosen backend
        // consumes it.
        let mesh = Mesh::uniform(geo, self.mesh_divisions);
        match self.resolve_on(geo, &mesh) {
            Method::PwcDense => DensePwcBackend {
                mesh_divisions: self.mesh_divisions,
                parallelism: self.parallelism,
            }
            .prepare_on(geo, mesh),
            Method::PwcPfft => PfftBackend {
                mesh_divisions: self.mesh_divisions,
                config: self.pfft,
                krylov: self.krylov,
                precond: self.precond,
            }
            .prepare_on(geo, mesh),
            _ => FmmBackend {
                mesh_divisions: self.mesh_divisions,
                config: self.fmm,
                krylov: self.krylov,
                precond: self.precond,
            }
            .prepare_on(geo, mesh),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extraction::Extractor;
    use bemcap_geom::structures::{self, CrossingParams};

    fn auto_backend(budget: usize) -> AutoBackend {
        AutoBackend {
            mesh_divisions: 8,
            memory_budget: budget,
            fmm: FmmConfig::default(),
            pfft: PfftConfig::default(),
            krylov: KrylovConfig::default(),
            precond: PrecondKind::default(),
            parallelism: Parallelism::Sequential,
        }
    }

    #[test]
    fn auto_resolves_by_panel_count_and_budget() {
        let geo = structures::crossing_wires(CrossingParams::default());
        // A small crossing pair fits the dense cap comfortably.
        assert_eq!(auto_backend(DEFAULT_AUTO_BUDGET).resolve(&geo), Method::PwcDense);
        // A mesh past the dense panel cap falls through to pFFT when the
        // budget allows its grid (resolution only sizes meshes and grids,
        // it never computes integrals, so a big mesh stays cheap here).
        let fine = AutoBackend { mesh_divisions: 64, ..auto_backend(usize::MAX) };
        assert!(
            Mesh::uniform(&geo, 64).panel_count() > DENSE_AUTO_PANEL_CAP,
            "test premise: mesh must exceed the dense cap"
        );
        assert_eq!(fine.resolve(&geo), Method::PwcPfft);
        // Starve everything: FMM is the floor.
        assert_eq!(AutoBackend { mesh_divisions: 64, ..auto_backend(1) }.resolve(&geo), {
            Method::PwcFmm
        });
        assert_eq!(auto_backend(1).resolve(&geo), Method::PwcFmm);
    }

    #[test]
    fn auto_extraction_matches_its_resolved_backend_bit_for_bit() {
        let geo = structures::crossing_wires(CrossingParams::default());
        let auto = Extractor::new().method(Method::Auto).mesh_divisions(6);
        assert_eq!(auto.resolved_method(&geo), Method::PwcDense);
        let via_auto = auto.extract(&geo).expect("auto");
        let direct =
            Extractor::new().method(Method::PwcDense).mesh_divisions(6).extract(&geo).expect("d");
        assert_eq!(
            via_auto.capacitance().matrix().as_slice(),
            direct.capacitance().matrix().as_slice()
        );
        assert_eq!(via_auto.report().method, "pwc-dense");
    }

    #[test]
    fn preconditioner_kinds_all_converge_to_the_same_physics() {
        let geo = structures::crossing_wires(CrossingParams::default());
        for method in [Method::PwcFmm, Method::PwcPfft] {
            let reference =
                Extractor::new().method(method).mesh_divisions(5).extract(&geo).expect("diagonal");
            for kind in [PrecondKind::Identity, PrecondKind::BlockJacobi { block: 8 }] {
                let out = Extractor::new()
                    .method(method)
                    .mesh_divisions(5)
                    .preconditioner(kind)
                    .extract(&geo)
                    .expect("preconditioned");
                let a = reference.capacitance();
                let b = out.capacitance();
                let scale = a.matrix().max_abs();
                for i in 0..a.dim() {
                    for j in 0..a.dim() {
                        assert!(
                            (a.get(i, j) - b.get(i, j)).abs() < 1e-5 * scale,
                            "{method:?}/{kind:?} ({i},{j})"
                        );
                    }
                }
                let stats = out.report().krylov.expect("iterative backend reports stats");
                assert!(stats.iterations > 0);
                assert!(stats.residual < 1e-6);
            }
        }
    }
}
