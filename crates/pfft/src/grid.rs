//! The uniform projection grid and trilinear stencils.

use bemcap_geom::{Mesh, Point3};

use crate::error::PfftError;

/// A uniform grid covering the mesh bounding box, with power-of-two FFT
/// padding (×2 per axis for aperiodic convolution).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// Grid origin (node \[0,0,0\] position).
    pub origin: Point3,
    /// Grid spacing.
    pub h: f64,
    /// Logical node counts per axis (covering the geometry).
    pub dims: [usize; 3],
    /// Padded FFT dimensions (powers of two, ≥ 2×dims).
    pub fft_dims: [usize; 3],
}

impl Grid {
    /// Builds a grid whose spacing is `spacing_factor ×` the mean panel
    /// edge length.
    ///
    /// # Errors
    ///
    /// * [`PfftError::EmptyMesh`] for empty meshes;
    /// * [`PfftError::BadGrid`] if the padded grid would exceed
    ///   `max_points`.
    pub fn fit(mesh: &Mesh, spacing_factor: f64, max_points: usize) -> Result<Grid, PfftError> {
        let panels = mesh.panels();
        if panels.is_empty() {
            return Err(PfftError::EmptyMesh);
        }
        let mean_edge =
            panels.iter().map(|p| 0.5 * (p.panel.u_len() + p.panel.v_len())).sum::<f64>()
                / panels.len() as f64;
        let h = mean_edge * spacing_factor;
        let mut lo = panels[0].panel.center();
        let mut hi = lo;
        for p in panels {
            let (blo, bhi) = p.panel.bounds();
            lo = lo.min(blo);
            hi = hi.max(bhi);
        }
        // One cell margin all round.
        let origin = lo - Point3::new(h, h, h);
        let span = hi - lo;
        let dims = [
            ((span.x / h).ceil() as usize + 3).max(2),
            ((span.y / h).ceil() as usize + 3).max(2),
            ((span.z / h).ceil() as usize + 3).max(2),
        ];
        let fft_dims = [
            (2 * dims[0]).next_power_of_two(),
            (2 * dims[1]).next_power_of_two(),
            (2 * dims[2]).next_power_of_two(),
        ];
        let total = fft_dims[0] * fft_dims[1] * fft_dims[2];
        if total > max_points {
            return Err(PfftError::BadGrid {
                detail: format!("padded grid {total} points exceeds cap {max_points}"),
            });
        }
        Ok(Grid { origin, h, dims, fft_dims })
    }

    /// Number of padded FFT points.
    pub fn fft_points(&self) -> usize {
        self.fft_dims[0] * self.fft_dims[1] * self.fft_dims[2]
    }

    /// Flat index into the padded array.
    pub fn flat(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.fft_dims[1] + j) * self.fft_dims[2] + k
    }

    /// Integer cell coordinates of a point (clamped into the logical box).
    pub fn cell_of(&self, p: Point3) -> [usize; 3] {
        let rel = p - self.origin;
        [
            ((rel.x / self.h).floor().max(0.0) as usize).min(self.dims[0] - 2),
            ((rel.y / self.h).floor().max(0.0) as usize).min(self.dims[1] - 2),
            ((rel.z / self.h).floor().max(0.0) as usize).min(self.dims[2] - 2),
        ]
    }

    /// Trilinear stencil of a point: 8 (flat index, weight) pairs summing
    /// to 1.
    pub fn stencil(&self, p: Point3) -> [(usize, f64); 8] {
        let base = self.cell_of(p);
        let rel = p - self.origin;
        let fx = ((rel.x / self.h) - base[0] as f64).clamp(0.0, 1.0);
        let fy = ((rel.y / self.h) - base[1] as f64).clamp(0.0, 1.0);
        let fz = ((rel.z / self.h) - base[2] as f64).clamp(0.0, 1.0);
        let mut out = [(0usize, 0.0f64); 8];
        for (c, slot) in out.iter_mut().enumerate() {
            let dx = c & 1;
            let dy = (c >> 1) & 1;
            let dz = (c >> 2) & 1;
            let w = (if dx == 1 { fx } else { 1.0 - fx })
                * (if dy == 1 { fy } else { 1.0 - fy })
                * (if dz == 1 { fz } else { 1.0 - fz });
            *slot = (self.flat(base[0] + dx, base[1] + dy, base[2] + dz), w);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bemcap_geom::structures;

    fn grid() -> (Mesh, Grid) {
        let geo = structures::parallel_plates(1.0, 1.0, 0.3);
        let mesh = Mesh::uniform(&geo, 4);
        let g = Grid::fit(&mesh, 1.0, 1 << 24).unwrap();
        (mesh, g)
    }

    #[test]
    fn covers_geometry() {
        let (mesh, g) = grid();
        for p in mesh.panels() {
            let c = p.panel.center();
            let cell = g.cell_of(c);
            for d in 0..3 {
                assert!(cell[d] + 1 < g.dims[d], "cell {cell:?} outside dims {:?}", g.dims);
            }
        }
    }

    #[test]
    fn fft_dims_are_padded_powers_of_two() {
        let (_, g) = grid();
        for d in 0..3 {
            assert!(g.fft_dims[d].is_power_of_two());
            assert!(g.fft_dims[d] >= 2 * g.dims[d]);
        }
        assert_eq!(g.fft_points(), g.fft_dims.iter().product::<usize>());
    }

    #[test]
    fn stencil_weights_sum_to_one() {
        let (mesh, g) = grid();
        for p in mesh.panels().iter().take(20) {
            let st = g.stencil(p.panel.center());
            let sum: f64 = st.iter().map(|(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-12);
            for (idx, w) in st {
                assert!(idx < g.fft_points());
                assert!((0.0..=1.0).contains(&w));
            }
        }
    }

    #[test]
    fn stencil_interpolates_linear_fields_exactly() {
        let (_, g) = grid();
        // A linear function sampled on grid nodes is reproduced exactly by
        // trilinear interpolation.
        let f = |p: Point3| 2.0 * p.x - 3.0 * p.y + 0.5 * p.z + 1.0;
        let probe = g.origin + Point3::new(1.37 * g.h, 2.61 * g.h, 0.83 * g.h);
        let st = g.stencil(probe);
        let mut val = 0.0;
        for (flat, w) in st {
            // Invert the flat index to node coordinates.
            let k = flat % g.fft_dims[2];
            let j = (flat / g.fft_dims[2]) % g.fft_dims[1];
            let i = flat / (g.fft_dims[1] * g.fft_dims[2]);
            let node = g.origin + Point3::new(i as f64 * g.h, j as f64 * g.h, k as f64 * g.h);
            val += w * f(node);
        }
        assert!((val - f(probe)).abs() < 1e-10);
    }

    #[test]
    fn grid_cap_enforced() {
        let geo = structures::parallel_plates(1.0, 1.0, 0.3);
        let mesh = Mesh::uniform(&geo, 16);
        assert!(matches!(Grid::fit(&mesh, 0.05, 1 << 10), Err(PfftError::BadGrid { .. })));
    }
}
