//! The precorrected-FFT matrix-vector product and capacitance solve.
//!
//! The precorrection rows hold, per near pair, the exact Galerkin integral
//! minus its grid-mediated part. The exact integrals are evaluated once
//! per distinct pair key ([`bemcap_quad::distinct::PairValues`]): on a
//! regular mesh most near pairs are translated or mirrored copies of a few
//! thousand. The grid-mediated part depends on where each panel sits in
//! its cell, so it is computed for every pair.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

use bemcap_geom::{Mesh, Point3, EPS0};
use bemcap_linalg::{
    gmres_grouped, kernels, DiagonalPrecond, KrylovConfig, KrylovStats, LinearOperator, Matrix,
};
use bemcap_par::trace::pair_integrals_metric;
use bemcap_quad::distinct::PairValues;
use bemcap_quad::galerkin::GalerkinEngine;

use crate::error::PfftError;
use crate::fft::{Complex, Convolver};
use crate::grid::Grid;

/// pFFT tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfftConfig {
    /// Grid spacing as a multiple of the mean panel edge.
    pub spacing_factor: f64,
    /// Chebyshev cell radius of the precorrected near zone; at least 1
    /// (see [`PfftOperator::new`]). A radius past the grid's extent costs
    /// no more than one that just covers it.
    pub near_cells: usize,
    /// Hard cap on padded grid points.
    pub max_grid_points: usize,
}

impl Default for PfftConfig {
    fn default() -> Self {
        PfftConfig { spacing_factor: 1.0, near_cells: 2, max_grid_points: 1 << 24 }
    }
}

/// Cumulative matvec phase timings (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PfftTimings {
    /// Projection + interpolation.
    pub project: f64,
    /// The grid convolution: the pruned real-input forward 3-D FFT, the
    /// multiply by the kernel's real half-spectrum, and the pruned inverse.
    pub fft: f64,
    /// Precorrection sparse product.
    pub precorrect: f64,
    /// Matvecs performed.
    pub count: usize,
}

/// The precorrected-FFT Galerkin operator (scaled by 1/(4πε)).
pub struct PfftOperator {
    grid: Grid,
    conv: Convolver,
    work: RefCell<Workspace>,
    stencils: Vec<[(usize, f64); 8]>,
    areas: Vec<f64>,
    /// Near rows: (column, exact − grid-mediated), the precorrection.
    near: Vec<Vec<(u32, f64)>>,
    inv_diag: Vec<f64>,
    scale: f64,
    timings: std::cell::Cell<PfftTimings>,
}

/// Per-matvec buffers, kept between applies.
struct Workspace {
    /// The real grid field (padded layout): charges in, potentials out.
    field: Vec<f64>,
    /// The half-spectrum the convolution runs in.
    spec: Vec<Complex>,
}

impl std::fmt::Debug for PfftOperator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PfftOperator")
            .field("n", &self.areas.len())
            .field("grid", &self.grid.fft_dims)
            .finish()
    }
}

impl PfftOperator {
    /// Builds the operator.
    ///
    /// # Errors
    ///
    /// * [`PfftError::EmptyMesh`] / [`PfftError::BadGrid`] from grid
    ///   construction;
    /// * [`PfftError::BadGrid`] for `near_cells == 0`: the sampled kernel
    ///   sets G(0) = 0, which is exact only when every pair whose
    ///   stencils can meet is precorrected.
    pub fn new(mesh: &Mesh, eps_rel: f64, cfg: PfftConfig) -> Result<PfftOperator, PfftError> {
        if cfg.near_cells == 0 {
            return Err(PfftError::BadGrid { detail: "near_cells must be at least 1".into() });
        }
        let grid = Grid::fit(mesh, cfg.spacing_factor, cfg.max_grid_points)?;
        let panels = mesh.panels();
        let n = panels.len();
        let scale = 1.0 / (4.0 * std::f64::consts::PI * eps_rel * EPS0);
        let eng = GalerkinEngine::default();
        // Sampled kernel on the padded (circulant) grid.
        let [px, py, pz] = grid.fft_dims;
        let mut kernel = vec![0.0; grid.fft_points()];
        for i in 0..px {
            let dx = signed_offset(i, px) as f64 * grid.h;
            for j in 0..py {
                let dy = signed_offset(j, py) as f64 * grid.h;
                for k in 0..pz {
                    let dz = signed_offset(k, pz) as f64 * grid.h;
                    let r = (dx * dx + dy * dy + dz * dz).sqrt();
                    // G(0) = 0: every pair whose stencils can meet is in
                    // the precorrected near zone, where this choice cancels
                    // exactly.
                    kernel[grid.flat(i, j, k)] = if r > 0.0 { 1.0 / r } else { 0.0 };
                }
            }
        }
        // Stencils.
        let centers: Vec<Point3> = panels.iter().map(|p| p.panel.center()).collect();
        let stencils: Vec<[(usize, f64); 8]> = centers.iter().map(|c| grid.stencil(*c)).collect();
        let areas: Vec<f64> = panels.iter().map(|p| p.panel.area()).collect();
        // Near zone via cell buckets.
        let mut buckets: HashMap<[usize; 3], Vec<usize>> = HashMap::new();
        for (pi, c) in centers.iter().enumerate() {
            buckets.entry(grid.cell_of(*c)).or_default().push(pi);
        }
        let mut values = PairValues::new(&eng, scale, panels.iter().map(|p| &p.panel));
        let mut near = vec![Vec::new(); n];
        let mut inv_diag = vec![0.0; n];
        // Cell indices run over 0..=dims−2, so no offset past that reaches
        // a bucket: clamping the radius per axis visits the same non-empty
        // buckets in the same order, whatever `near_cells` asks for.
        let [rx, ry, rz] = grid.dims.map(|d| cfg.near_cells.min(d - 2) as isize);
        for (pi, c) in centers.iter().enumerate() {
            let cell = grid.cell_of(*c);
            for ox in -rx..=rx {
                for oy in -ry..=ry {
                    for oz in -rz..=rz {
                        let nc =
                            [cell[0] as isize + ox, cell[1] as isize + oy, cell[2] as isize + oz];
                        if nc.iter().any(|&v| v < 0) {
                            continue;
                        }
                        let key = [nc[0] as usize, nc[1] as usize, nc[2] as usize];
                        let Some(list) = buckets.get(&key) else { continue };
                        // A stencil's base node is its panel's cell, so
                        // corner a of pi and corner b of any pj here are
                        // bits(a) − bits(b) − o nodes apart. |offset| <
                        // dims ≤ fft_dims/2, so the wrapped sample is G at
                        // exactly that offset.
                        let mut g = [[0.0; 8]; 8];
                        for (a, row) in g.iter_mut().enumerate() {
                            for (b, v) in row.iter_mut().enumerate() {
                                let wrap = |axis: usize, o: isize| {
                                    let d = ((a >> axis) & 1) as isize - ((b >> axis) & 1) as isize;
                                    (d - o).rem_euclid(grid.fft_dims[axis] as isize) as usize
                                };
                                *v = kernel[grid.flat(wrap(0, ox), wrap(1, oy), wrap(2, oz))];
                            }
                        }
                        for &pj in list {
                            let exact = values.get(pi, pj);
                            // Grid-mediated contribution for the same pair.
                            let mut mediated = 0.0;
                            for (&(_, wa), row) in stencils[pi].iter().zip(&g) {
                                for (&(_, wb), &gab) in stencils[pj].iter().zip(row) {
                                    mediated += wa * wb * gab;
                                }
                            }
                            mediated *= scale * areas[pi] * areas[pj];
                            near[pi].push((pj as u32, exact - mediated));
                            if pi == pj {
                                inv_diag[pi] = 1.0 / exact;
                            }
                        }
                    }
                }
            }
        }
        pair_integrals_metric().add(values.evaluated() as u64);
        // The key table goes before the convolver's spectrum is allocated.
        drop(values);
        let conv = Convolver::new(grid.dims, grid.fft_dims, &kernel);
        let work = Workspace {
            field: vec![0.0; grid.fft_points()],
            spec: vec![Complex::ZERO; conv.spectrum_len()],
        };
        Ok(PfftOperator {
            grid,
            conv,
            work: RefCell::new(work),
            stencils,
            areas,
            near,
            inv_diag,
            scale,
            timings: std::cell::Cell::new(PfftTimings::default()),
        })
    }

    /// Panel areas.
    pub fn areas(&self) -> &[f64] {
        &self.areas
    }

    /// Inverse of the exact system diagonal — what the solver's Jacobi
    /// preconditioner is built from.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }

    /// The grid (shape input for the parallel cost model).
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Cumulative matvec timings.
    pub fn timings(&self) -> PfftTimings {
        self.timings.get()
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        let near: usize = self.near.iter().map(Vec::len).sum();
        self.grid_memory_bytes() + near * std::mem::size_of::<(u32, f64)>()
    }

    /// Average number of precorrected near entries per target row.
    pub fn near_density(&self) -> f64 {
        self.near.iter().map(Vec::len).sum::<usize>() as f64 / self.near.len() as f64
    }

    /// The grid part of [`PfftOperator::memory_bytes`]: the kernel
    /// half-spectrum, the convolution workspace and the stencils.
    fn grid_memory_bytes(&self) -> usize {
        let work = self.work.borrow();
        self.conv.memory_bytes()
            + work.spec.len() * 16
            + work.field.len() * 8
            + self.stencils.len() * 8 * 16
    }
}

fn signed_offset(i: usize, n: usize) -> isize {
    if i <= n / 2 {
        i as isize
    } else {
        i as isize - n as isize
    }
}

impl LinearOperator for PfftOperator {
    fn dim(&self) -> usize {
        self.areas.len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim());
        assert_eq!(y.len(), self.dim());
        let mut t = self.timings.get();
        let mut work = self.work.borrow_mut();
        let Workspace { field, spec } = &mut *work;
        let t0 = Instant::now();
        // Project charges q_j = x_j A_j onto the grid.
        field.fill(0.0);
        for (j, st) in self.stencils.iter().enumerate() {
            let q = x[j] * self.areas[j];
            for &(flat, w) in st {
                field[flat] += q * w;
            }
        }
        let t1 = Instant::now();
        t.project += (t1 - t0).as_secs_f64();
        self.conv.convolve(field, spec);
        let t2 = Instant::now();
        t.fft += (t2 - t1).as_secs_f64();
        // Interpolate potentials and apply the Galerkin weights. The
        // 8-point gather sums pairwise — four independent products per
        // level, the same shape as the blocked kernels' reductions.
        for (i, st) in self.stencils.iter().enumerate() {
            let g = |s: usize| st[s].1 * field[st[s].0];
            let phi = ((g(0) + g(1)) + (g(2) + g(3))) + ((g(4) + g(5)) + (g(6) + g(7)));
            y[i] = self.scale * self.areas[i] * phi;
        }
        let t3 = Instant::now();
        t.project += (t3 - t2).as_secs_f64();
        // Precorrection: each near row is a gathered sparse dot through
        // the chunked pair kernel.
        for (yi, row) in y.iter_mut().zip(&self.near) {
            *yi += kernels::pair_dot(row, x);
        }
        t.precorrect += t3.elapsed().as_secs_f64();
        t.count += 1;
        self.timings.set(t);
    }
}

/// The solve step on an already-built operator — one conductor RHS per
/// solve, over one recycled Krylov space, through the shared
/// [`gmres_grouped`] driver (`bemcap_linalg`) under the Jacobi
/// preconditioner `pre` (built from [`PfftOperator::inv_diag`]). The
/// `bemcap-core` backend layer prepares the operator once and solves
/// here, so construction is never duplicated.
///
/// # Errors
///
/// Propagates Krylov errors ([`PfftError::Solve`]).
pub fn solve_prepared(
    op: &PfftOperator,
    mesh: &Mesh,
    n_cond: usize,
    pre: &DiagonalPrecond,
    krylov: &KrylovConfig,
) -> Result<(Matrix, KrylovStats), PfftError> {
    let conductor_of: Vec<usize> = mesh.panels().iter().map(|p| p.conductor).collect();
    let (c, stats) = gmres_grouped(op, pre, op.areas(), &conductor_of, n_cond, krylov)?;
    Ok((c, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bemcap_geom::structures;
    use bemcap_quad::galerkin::PanelShape;

    fn dense_reference(mesh: &Mesh) -> Matrix {
        let eng = GalerkinEngine::default();
        let scale = 1.0 / (4.0 * std::f64::consts::PI * EPS0);
        let n = mesh.panel_count();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a.set(
                    i,
                    j,
                    scale
                        * eng.panel_pair(
                            &mesh.panels()[i].panel,
                            PanelShape::Flat,
                            &mesh.panels()[j].panel,
                            PanelShape::Flat,
                        ),
                );
            }
        }
        a
    }

    #[test]
    fn matvec_matches_dense() {
        let geo = structures::parallel_plates(1.0e-6, 1.0e-6, 0.3e-6);
        let mesh = Mesh::uniform(&geo, 5);
        let op = PfftOperator::new(&mesh, 1.0, PfftConfig::default()).unwrap();
        let dense = dense_reference(&mesh);
        let n = mesh.panel_count();
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64 - 3.0) * 1e-7).collect();
        let mut y = vec![0.0; n];
        op.apply(&x, &mut y);
        let y_ref = dense.matvec(&x);
        let norm: f64 = y_ref.iter().map(|v| v * v).sum::<f64>().sqrt();
        let err: f64 = y.iter().zip(&y_ref).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        assert!(err / norm < 3e-2, "relative matvec error {}", err / norm);
        assert_eq!(op.timings().count, 1);
    }

    #[test]
    fn capacitance_agrees_with_physics() {
        let w = 1.0e-6;
        let d = 0.25e-6;
        let geo = structures::parallel_plates(w, w, d);
        let mesh = Mesh::uniform(&geo, 8);
        let op = PfftOperator::new(&mesh, geo.eps_rel(), PfftConfig::default()).unwrap();
        let pre = DiagonalPrecond::new(op.inv_diag().to_vec());
        let krylov = KrylovConfig::default();
        let (c, _) = solve_prepared(&op, &mesh, geo.conductor_count(), &pre, &krylov).unwrap();
        let ideal = EPS0 * w * w / d;
        let c01 = -c.get(0, 1);
        assert!(c01 > ideal && c01 < 3.0 * ideal, "coupling {c01} vs ideal {ideal}");
        assert!(c.get(0, 0) > 0.0);
    }

    #[test]
    fn memory_reported() {
        let geo = structures::cube(1.0);
        let mesh = Mesh::uniform(&geo, 4);
        let op = PfftOperator::new(&mesh, 1.0, PfftConfig::default()).unwrap();
        assert!(op.memory_bytes() > 0);
    }

    #[test]
    fn near_memory_counts_sixteen_bytes_per_entry() {
        // A `(u32, f64)` entry is padded to 16 bytes, not 4 + 8.
        let mesh = Mesh::uniform(&structures::cube(1.0), 4);
        let op = PfftOperator::new(&mesh, 1.0, PfftConfig::default()).unwrap();
        let entries: usize = op.near.iter().map(Vec::len).sum();
        assert!(entries > 0);
        assert_eq!(op.memory_bytes() - op.grid_memory_bytes(), entries * 16);
    }

    #[test]
    fn grid_memory_within_auto_estimate() {
        // `Method::Auto` sizes pFFT as fft_points·32 + n·128 bytes, near
        // field excluded; the half-spectrum layout must stay inside it.
        for (geo, div) in
            [(structures::cube(1.0), 4), (structures::parallel_plates(1.0, 1.0, 0.3), 5)]
        {
            let mesh = Mesh::uniform(&geo, div);
            let op = PfftOperator::new(&mesh, 1.0, PfftConfig::default()).unwrap();
            let estimate = op.grid().fft_points() * 32 + mesh.panel_count() * 128;
            assert!(op.grid_memory_bytes() <= estimate, "{} > {estimate}", op.grid_memory_bytes());
            assert!(op.memory_bytes() > op.grid_memory_bytes());
        }
    }

    #[test]
    fn gmres_matvec_count_pinned() {
        // An operator or solver change that moves the product or the
        // iteration moves this count.
        let geo = structures::bus_crossing(2, 2, structures::BusParams::default());
        let mesh = Mesh::uniform(&geo, 3);
        let op = PfftOperator::new(&mesh, geo.eps_rel(), PfftConfig::default()).unwrap();
        assert_eq!(op.grid().dims, [8, 8, 5]);
        let pre = DiagonalPrecond::new(op.inv_diag().to_vec());
        let krylov = KrylovConfig { tol: 1e-6, restart: 30, max_iters: 2000 };
        let (_, stats) = solve_prepared(&op, &mesh, geo.conductor_count(), &pre, &krylov).unwrap();
        assert_eq!(stats.matvecs, 43);
    }

    #[test]
    fn near_zone_must_cover_touching_stencils() {
        let mesh = Mesh::uniform(&structures::cube(1.0), 4);
        let cfg = PfftConfig { near_cells: 0, ..PfftConfig::default() };
        assert!(matches!(PfftOperator::new(&mesh, 1.0, cfg), Err(PfftError::BadGrid { .. })));
    }

    #[test]
    fn near_radius_past_the_grid_costs_what_covering_it_does() {
        // 10⁶ would mean 8·10¹⁸ bucket probes per panel unclamped.
        let geo = structures::bus_crossing(2, 2, structures::BusParams::default());
        let mesh = Mesh::uniform(&geo, 3);
        let build = |near_cells| {
            let cfg = PfftConfig { near_cells, ..PfftConfig::default() };
            PfftOperator::new(&mesh, geo.eps_rel(), cfg).unwrap()
        };
        let covering = build(8);
        assert_eq!(covering.grid().dims.iter().max(), Some(&8));
        let huge = build(1_000_000);
        let bits = |op: &PfftOperator| -> Vec<Vec<(u32, u64)>> {
            op.near.iter().map(|row| row.iter().map(|&(j, v)| (j, v.to_bits())).collect()).collect()
        };
        assert_eq!(bits(&huge), bits(&covering));
        let krylov = KrylovConfig { tol: 1e-6, restart: 30, max_iters: 2000 };
        let solve = |op: &PfftOperator| {
            let pre = DiagonalPrecond::new(op.inv_diag().to_vec());
            let (c, _) = solve_prepared(op, &mesh, geo.conductor_count(), &pre, &krylov).unwrap();
            c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        };
        assert_eq!(solve(&huge), solve(&covering));
    }

    #[test]
    fn an_exact_translate_has_bit_identical_near_rows_and_diagonal() {
        // A unit cube meshed into quarter panels and a shift of short
        // dyadic fractions: the translate and its grid (spacing 0.25) are
        // exact, so every near pair keeps its key, its value and its
        // grid-mediated part.
        let geo = structures::cube(1.0);
        let moved = structures::translated(&geo, Point3::new(0.75, -2.5, 4.0));
        let build =
            |geo| PfftOperator::new(&Mesh::uniform(geo, 4), 1.0, PfftConfig::default()).unwrap();
        let (op, twin) = (build(&geo), build(&moved));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let rows = |op: &PfftOperator| -> Vec<Vec<(u32, u64)>> {
            op.near.iter().map(|row| row.iter().map(|&(j, v)| (j, v.to_bits())).collect()).collect()
        };
        assert_eq!(rows(&op), rows(&twin));
        assert_eq!(bits(op.inv_diag()), bits(twin.inv_diag()));
    }

    #[test]
    fn signed_offset_wraps() {
        assert_eq!(signed_offset(0, 8), 0);
        assert_eq!(signed_offset(4, 8), 4);
        assert_eq!(signed_offset(5, 8), -3);
        assert_eq!(signed_offset(7, 8), -1);
    }
}
