//! The one solver dispatch: [`crate::Extractor`] matches on the resolved
//! [`Method`] once, prepares that method's system, and solves it.
//!
//! The paper's headline evidence (Fig. 8, Tables 1–3) is a *comparison*
//! between the instantiable-basis method and the FASTCAP-style multipole
//! and precorrected-FFT baselines, so every method runs through the same
//! `prepare`/`solve` split that mirrors the paper's system-setup vs
//! system-solving phases, with honest per-phase timing and memory
//! accounting:
//!
//! * [`Method::InstantiableBasis`] — instantiate templates, fill P and Φ
//!   (Algorithm 1, sequential or threaded), LU solve of the
//!   (indefinite) P;
//! * [`Method::PwcDense`] — piecewise-constant Galerkin, dense assembly
//!   (Algorithm 1 on one flat template per panel) in the extractor's
//!   [`crate::extraction::Parallelism`] mode, blocked Cholesky solve
//!   (LU when P is singular to working precision);
//! * [`Method::PwcFmm`] — multipole-accelerated matvec + preconditioned
//!   GCR through the shared `bemcap_linalg::gmres_grouped` driver, one
//!   Krylov space recycled across the conductors;
//! * [`Method::PwcPfft`] — precorrected-FFT matvec + the same driver; the
//!   operator is constructed exactly once and solved on directly;
//! * [`Method::Auto`] — one of the piecewise-constant methods, picked
//!   from the panel count and a memory budget (see
//!   [`crate::Extractor::resolved_method`]).
//!
//! The iterative methods share [`bemcap_linalg::KrylovConfig`] caps and
//! one preconditioner: Jacobi from the operator's exact diagonal.

use bemcap_basis::instantiate::instantiate;
use bemcap_basis::TemplateIndex;
use bemcap_fmm::{FmmOperator, FmmSolver};
use bemcap_geom::{Geometry, Mesh};
use bemcap_linalg::{DiagonalPrecond, KrylovConfig, KrylovStats, Matrix};
use bemcap_pfft::grid::Grid;
use bemcap_pfft::PfftOperator;
use bemcap_quad::galerkin::GalerkinEngine;

use crate::assembly;
use crate::cache::TemplateCache;
use crate::error::CoreError;
use crate::extraction::{Extractor, Method};
use crate::report::CacheStats;
use crate::solver::{solve_capacitance, solve_dense_capacitance, DensePwcSolver};

/// Most panels [`Method::Auto`] hands to the dense direct solver: beyond
/// this, the O(N²) matrix and O(N³) solve stop being the fast path even
/// when they fit the memory budget.
pub const DENSE_AUTO_PANEL_CAP: usize = 2048;

/// Default [`Method::Auto`] memory budget (256 MiB).
pub const DEFAULT_AUTO_BUDGET: usize = 256 << 20;

/// The system-setup step's result: the method that actually ran, its
/// accounting, and the system its solve consumes.
pub(crate) struct Prepared {
    /// The resolved method (never [`Method::Auto`]).
    pub(crate) method: Method,
    /// System dimension N (basis functions or panels).
    pub(crate) n: usize,
    /// Template count M (instantiable method only).
    pub(crate) m_templates: Option<usize>,
    /// Workers the setup step actually used.
    pub(crate) workers: usize,
    /// Estimated solver memory in bytes (system matrices or operator).
    pub(crate) memory: usize,
    /// Pair-integral cache counters of the setup step.
    pub(crate) cache: CacheStats,
    pub(crate) system: System,
}

/// A prepared system, consumable by one solve.
pub(crate) enum System {
    /// The instantiable P and Φ assembled, LU pending.
    Direct { p: Matrix, phi: Matrix },
    /// The dense piecewise-constant P and Φ assembled, Cholesky pending.
    Dense { p: Matrix, phi: Matrix },
    /// The multipole operator, its Krylov caps and Jacobi preconditioner.
    Fmm { op: FmmOperator, solver: FmmSolver, mesh: Mesh, n_cond: usize, pre: DiagonalPrecond },
    /// The precorrected-FFT operator, its Krylov caps and Jacobi
    /// preconditioner.
    Pfft {
        op: Box<PfftOperator>,
        krylov: KrylovConfig,
        mesh: Mesh,
        n_cond: usize,
        pre: DiagonalPrecond,
    },
}

impl System {
    /// The system-solving step: the n×n short-circuit capacitance matrix
    /// (F) plus Krylov counters for the iterative methods.
    ///
    /// # Errors
    ///
    /// [`CoreError::Linalg`] (direct solves), [`CoreError::Fmm`] /
    /// [`CoreError::Pfft`] (Krylov failures).
    pub(crate) fn solve(self) -> Result<(Matrix, Option<KrylovStats>), CoreError> {
        match self {
            System::Direct { p, phi } => Ok((solve_capacitance(p, &phi)?.0, None)),
            System::Dense { p, phi } => Ok((solve_dense_capacitance(p, &phi)?, None)),
            System::Fmm { op, solver, mesh, n_cond, pre } => {
                let (c, stats) = solver.solve_prepared(&op, &mesh, n_cond, &pre)?;
                Ok((c, Some(stats)))
            }
            System::Pfft { op, krylov, mesh, n_cond, pre } => {
                let (c, stats) = bemcap_pfft::solve_prepared(&op, &mesh, n_cond, &pre, &krylov)?;
                Ok((c, Some(stats)))
            }
        }
    }
}

impl Extractor {
    /// The system-setup step of the configured method: basis
    /// instantiation + assembly, or mesh + operator + preconditioner. The
    /// instantiable method probes each distinct pair integral in `cache`
    /// when given; the others ignore it.
    ///
    /// # Errors
    ///
    /// [`CoreError::Basis`], [`CoreError::Fmm`], [`CoreError::Pfft`]
    /// construction failures.
    pub(crate) fn prepare(
        &self,
        engine: &GalerkinEngine,
        geo: &Geometry,
        cache: Option<&TemplateCache>,
    ) -> Result<Prepared, CoreError> {
        if self.method == Method::InstantiableBasis {
            let set = instantiate(geo, &self.instantiate_cfg)?;
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
            return Ok(Prepared {
                method: self.method,
                n: index.basis_count(),
                m_templates: Some(index.template_count()),
                workers: timings.len(),
                memory: asm.p.memory_bytes() + asm.phi.memory_bytes(),
                cache: stats,
                system: System::Direct { p: asm.p, phi: asm.phi },
            });
        }
        // Size the mesh once: Auto resolution reads it, the chosen
        // method consumes it.
        let mesh = Mesh::uniform(geo, self.mesh_divisions);
        let method =
            if self.method == Method::Auto { self.resolve_auto(geo, &mesh) } else { self.method };
        let (n, n_cond, eps_rel) = (mesh.panel_count(), geo.conductor_count(), geo.eps_rel());
        let (workers, memory, system) = match method {
            Method::PwcDense => {
                let (p, phi, workers) =
                    DensePwcSolver.assemble_in_mode(geo, &mesh, self.parallelism);
                (workers, p.memory_bytes() + phi.memory_bytes(), System::Dense { p, phi })
            }
            Method::PwcFmm => {
                let op = FmmOperator::new(&mesh, eps_rel, self.fmm_cfg)?;
                let pre = DiagonalPrecond::new(op.inv_diag().to_vec());
                let solver = FmmSolver {
                    config: self.fmm_cfg,
                    tol: self.krylov_cfg.tol,
                    restart: self.krylov_cfg.restart,
                    max_iters: self.krylov_cfg.max_iters,
                };
                (1, op.memory_bytes(), System::Fmm { op, solver, mesh, n_cond, pre })
            }
            Method::PwcPfft => {
                let op = Box::new(PfftOperator::new(&mesh, eps_rel, self.pfft_cfg)?);
                let pre = DiagonalPrecond::new(op.inv_diag().to_vec());
                let krylov = self.krylov_cfg;
                (1, op.memory_bytes(), System::Pfft { op, krylov, mesh, n_cond, pre })
            }
            Method::InstantiableBasis | Method::Auto => unreachable!("resolved to a mesh method"),
        };
        Ok(Prepared {
            method,
            n,
            m_templates: None,
            workers,
            memory,
            cache: CacheStats::default(),
            system,
        })
    }

    /// The [`Method::Auto`] policy on `geo`'s `mesh`, deterministic per
    /// geometry and configuration:
    ///
    /// 1. **Dense** when the panel count is at most
    ///    [`DENSE_AUTO_PANEL_CAP`] *and* the full N×N system plus Φ fits
    ///    the budget — exact and direct, the fast path for small meshes.
    /// 2. Otherwise **pFFT** when its grid kernel, FFT workspace, and
    ///    stencils fit the budget (near-field precorrection excluded from
    ///    the estimate; it scales with the same mesh).
    /// 3. Otherwise **FMM**, the lowest-memory fallback.
    ///
    /// The paper's instantiable method stays an explicit choice (its
    /// accuracy model differs from the mesh discretization family, so it
    /// is not silently substituted).
    pub(crate) fn resolve_auto(&self, geo: &Geometry, mesh: &Mesh) -> Method {
        let n = mesh.panel_count();
        let dense_bytes = n * n * 8 + n * geo.conductor_count() * 8;
        if n <= DENSE_AUTO_PANEL_CAP && dense_bytes <= self.auto_budget {
            return Method::PwcDense;
        }
        let pfft = &self.pfft_cfg;
        if let Ok(grid) = Grid::fit(mesh, pfft.spacing_factor, pfft.max_grid_points) {
            // Sampled kernel + one FFT field, 16 bytes/complex each, plus
            // the 8-point trilinear stencils.
            let pfft_bytes = grid.fft_points() * 32 + n * 8 * 16;
            if pfft_bytes <= self.auto_budget {
                return Method::PwcPfft;
            }
        }
        Method::PwcFmm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bemcap_geom::structures::{self, CrossingParams};

    #[test]
    fn auto_resolves_by_panel_count_and_budget() {
        let geo = structures::crossing_wires(CrossingParams::default());
        let auto = |divisions, budget| {
            Extractor::new()
                .method(Method::Auto)
                .mesh_divisions(divisions)
                .auto_memory_budget(budget)
                .resolved_method(&geo)
        };
        // A small crossing pair fits the dense cap comfortably.
        assert_eq!(auto(8, DEFAULT_AUTO_BUDGET), Method::PwcDense);
        // A mesh past the dense panel cap falls through to pFFT when the
        // budget allows its grid (resolution only sizes meshes and grids,
        // it never computes integrals, so a big mesh stays cheap here).
        assert!(
            Mesh::uniform(&geo, 64).panel_count() > DENSE_AUTO_PANEL_CAP,
            "test premise: mesh must exceed the dense cap"
        );
        assert_eq!(auto(64, usize::MAX), Method::PwcPfft);
        // Starve everything: FMM is the floor.
        assert_eq!(auto(64, 1), Method::PwcFmm);
        assert_eq!(auto(8, 1), Method::PwcFmm);
        // An explicit method resolves to itself.
        let explicit = Extractor::new().method(Method::PwcPfft).auto_memory_budget(1);
        assert_eq!(explicit.resolved_method(&geo), Method::PwcPfft);
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

    /// The one Krylov path, pinned exactly: Jacobi-preconditioned GCR
    /// iteration counts over the recycled space on nominal buses at 8
    /// divisions.
    #[test]
    fn krylov_iteration_counts_are_pinned() {
        for (rows, cols, fmm, pfft) in [(2, 2, 60, 61), (3, 3, 84, 86)] {
            let geo = structures::bus_crossing(rows, cols, structures::BusParams::default());
            for (method, want) in [(Method::PwcFmm, fmm), (Method::PwcPfft, pfft)] {
                let out = Extractor::new().method(method).mesh_divisions(8).extract(&geo).unwrap();
                let stats = out.report().krylov.expect("iterative method reports stats");
                assert_eq!(stats.matvecs, want, "bus {rows}x{cols} {method:?}");
            }
        }
    }
}
