//! Full-chip layouts: spatial indexing, overlapping-window partitioning,
//! and geometry diffs for incremental (ECO) re-extraction.
//!
//! The paper's divide-and-conquer premise pays off at full-chip scale:
//! a layout with many nets is cut into an `nx × ny` grid of **windows**,
//! each window is extracted as a self-contained problem, and the
//! per-window capacitance blocks are stitched into one sparse chip-level
//! matrix. Two geometric facts make that sound:
//!
//! * every conductor is **owned** by exactly one window — the window
//!   whose core tile contains the conductor's bounding-box center — so
//!   stitched matrix rows never collide;
//! * each window also carries the **neighborhood** of its core: every
//!   conductor intersecting the core tile expanded by a `halo` margin.
//!   The halo bounds the electrostatic context a window sees, the same
//!   role the geodesic neighborhood plays for surface operators — and
//!   like those, the neighbor sets are precomputed into one flat index
//!   buffer with per-window ranges.
//!
//! [`GeometryDiff`] compares two revisions of a layout by net name; a
//! partition maps the changed regions to the windows whose halo they
//! intersect, which is exactly the set an incremental re-extraction must
//! redo.
//!
//! ```
//! use bemcap_geom::layout::{Layout, PartitionConfig};
//! use bemcap_geom::structures::{self, BusParams};
//!
//! let geo = structures::bus_crossing(4, 4, BusParams::default());
//! let layout = Layout::new(geo)?;
//! let part = layout.partition(&PartitionConfig { nx: 2, ny: 2, halo: 3.0e-6 })?;
//! assert_eq!(part.window_count(), 4);
//! // Every conductor is owned exactly once.
//! let owned: usize = part.windows().iter().map(|w| w.owned().len()).sum();
//! assert_eq!(owned, layout.conductor_count());
//! # Ok::<(), bemcap_geom::GeomError>(())
//! ```

use crate::conductor::{Conductor, Geometry};
use crate::error::GeomError;
use crate::structures::DEFAULT_SCALE;
use crate::vec3::Point3;

/// A closed axis-aligned rectangle in the layout (xy) plane.
///
/// Windows partition the chip in x and y only — interconnect stacks are
/// thin in z, so the grid follows the routing plane and every window
/// spans the full layer stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower x bound.
    pub x0: f64,
    /// Lower y bound.
    pub y0: f64,
    /// Upper x bound.
    pub x1: f64,
    /// Upper y bound.
    pub y1: f64,
}

impl Rect {
    fn of_bounds(lo: Point3, hi: Point3) -> Rect {
        Rect { x0: lo.x, y0: lo.y, x1: hi.x, y1: hi.y }
    }

    /// Closed-interval intersection test (shared edges count as overlap).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// This rectangle grown by `margin` on every side.
    pub fn expanded(&self, margin: f64) -> Rect {
        Rect {
            x0: self.x0 - margin,
            y0: self.y0 - margin,
            x1: self.x1 + margin,
            y1: self.y1 + margin,
        }
    }
}

/// Uniform-grid spatial index over conductor bounding rectangles.
///
/// Cells hold the indices of every conductor whose xy bounds overlap the
/// cell; a query gathers candidates from the covered cells and filters
/// them against the exact rectangle. Resolution scales with √n so both
/// build and query stay near-linear for Manhattan layouts.
#[derive(Debug, Clone)]
struct SpatialIndex {
    origin: (f64, f64),
    cell: (f64, f64),
    grid: (usize, usize),
    cells: Vec<Vec<usize>>,
}

impl SpatialIndex {
    fn new(chip: &Rect, rects: &[Rect]) -> SpatialIndex {
        let side = (rects.len() as f64).sqrt().ceil() as usize;
        let grid = (side.max(1), side.max(1));
        let cell = (
            ((chip.x1 - chip.x0) / grid.0 as f64).max(f64::MIN_POSITIVE),
            ((chip.y1 - chip.y0) / grid.1 as f64).max(f64::MIN_POSITIVE),
        );
        let mut index = SpatialIndex {
            origin: (chip.x0, chip.y0),
            cell,
            grid,
            cells: vec![Vec::new(); grid.0 * grid.1],
        };
        for (ci, r) in rects.iter().enumerate() {
            let (ix0, iy0) = index.cell_of(r.x0, r.y0);
            let (ix1, iy1) = index.cell_of(r.x1, r.y1);
            for iy in iy0..=iy1 {
                for ix in ix0..=ix1 {
                    index.cells[iy * grid.0 + ix].push(ci);
                }
            }
        }
        index
    }

    fn cell_of(&self, x: f64, y: f64) -> (usize, usize) {
        let ix = ((x - self.origin.0) / self.cell.0).floor();
        let iy = ((y - self.origin.1) / self.cell.1).floor();
        ((ix.max(0.0) as usize).min(self.grid.0 - 1), (iy.max(0.0) as usize).min(self.grid.1 - 1))
    }

    /// Sorted, deduplicated candidate indices for a query rectangle.
    fn query(&self, r: &Rect) -> Vec<usize> {
        let (ix0, iy0) = self.cell_of(r.x0, r.y0);
        let (ix1, iy1) = self.cell_of(r.x1, r.y1);
        let mut out = Vec::new();
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                out.extend_from_slice(&self.cells[iy * self.grid.0 + ix]);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A validated full-chip layout: a [`Geometry`] plus precomputed
/// per-conductor bounds and a conductor spatial index.
///
/// Construction rejects geometries the windowing machinery cannot
/// handle: no conductors, a conductor with no boxes, or duplicate net
/// names (diffs and stitching are keyed by name).
#[derive(Debug, Clone)]
pub struct Layout {
    geometry: Geometry,
    bounds: (Point3, Point3),
    conductor_rects: Vec<Rect>,
    index: SpatialIndex,
}

impl Layout {
    /// Wraps and validates a geometry.
    pub fn new(geometry: Geometry) -> Result<Layout, GeomError> {
        if geometry.conductor_count() == 0 {
            return Err(GeomError::Layout { detail: "layout has no conductors".into() });
        }
        let mut names: Vec<&str> = Vec::with_capacity(geometry.conductor_count());
        for c in geometry.conductors() {
            if c.boxes().is_empty() {
                return Err(GeomError::Layout {
                    detail: format!("conductor {} has no boxes", c.name()),
                });
            }
            names.push(c.name());
        }
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(GeomError::Layout { detail: format!("duplicate net name {}", w[0]) });
        }
        let bounds = geometry.bounds();
        let conductor_rects: Vec<Rect> = geometry
            .conductors()
            .iter()
            .map(|c| {
                let (lo, hi) = conductor_bounds(c);
                Rect::of_bounds(lo, hi)
            })
            .collect();
        let chip = Rect::of_bounds(bounds.0, bounds.1);
        let index = SpatialIndex::new(&chip, &conductor_rects);
        Ok(Layout { geometry, bounds, conductor_rects, index })
    }

    /// The wrapped geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Number of conductors.
    pub fn conductor_count(&self) -> usize {
        self.geometry.conductor_count()
    }

    /// Net names in conductor order.
    pub fn names(&self) -> Vec<&str> {
        self.geometry.conductors().iter().map(Conductor::name).collect()
    }

    /// Chip bounding box as (min, max) corners.
    pub fn bounds(&self) -> (Point3, Point3) {
        self.bounds
    }

    /// The xy bounding rectangle of conductor `ci`.
    pub fn conductor_rect(&self, ci: usize) -> Rect {
        self.conductor_rects[ci]
    }

    /// Sorted indices of conductors whose xy bounds intersect `region`.
    pub fn conductors_in(&self, region: &Rect) -> Vec<usize> {
        self.index
            .query(region)
            .into_iter()
            .filter(|&ci| self.conductor_rects[ci].intersects(region))
            .collect()
    }

    /// Cuts the layout into overlapping windows.
    pub fn partition(&self, cfg: &PartitionConfig) -> Result<Partition, GeomError> {
        cfg.validate()?;
        let chip = Rect::of_bounds(self.bounds.0, self.bounds.1);
        let step = (
            ((chip.x1 - chip.x0) / cfg.nx as f64).max(0.0),
            ((chip.y1 - chip.y0) / cfg.ny as f64).max(0.0),
        );
        // Assign each conductor to the core tile holding its center.
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); cfg.nx * cfg.ny];
        for (ci, r) in self.conductor_rects.iter().enumerate() {
            let cx = 0.5 * (r.x0 + r.x1);
            let cy = 0.5 * (r.y0 + r.y1);
            let ix = tile_of(cx, chip.x0, step.0, cfg.nx);
            let iy = tile_of(cy, chip.y0, step.1, cfg.ny);
            owned[iy * cfg.nx + ix].push(ci);
        }
        let mut windows = Vec::with_capacity(cfg.nx * cfg.ny);
        let mut neighbor_buf = Vec::new();
        let mut neighbor_ranges = Vec::with_capacity(cfg.nx * cfg.ny);
        for iy in 0..cfg.ny {
            for ix in 0..cfg.nx {
                let w = iy * cfg.nx + ix;
                let core = Rect {
                    x0: chip.x0 + ix as f64 * step.0,
                    y0: chip.y0 + iy as f64 * step.1,
                    x1: if ix + 1 == cfg.nx { chip.x1 } else { chip.x0 + (ix + 1) as f64 * step.0 },
                    y1: if iy + 1 == cfg.ny { chip.y1 } else { chip.y0 + (iy + 1) as f64 * step.1 },
                };
                let halo = core.expanded(cfg.halo);
                let members = self.conductors_in(&halo);
                let start = neighbor_buf.len();
                neighbor_buf.extend(members.iter().copied().filter(|ci| !owned[w].contains(ci)));
                neighbor_ranges.push((start, neighbor_buf.len()));
                windows.push(Window {
                    index: w,
                    ix,
                    iy,
                    core,
                    halo,
                    owned: owned[w].clone(),
                    members,
                });
            }
        }
        Ok(Partition { config: *cfg, windows, neighbor_buf, neighbor_ranges })
    }
}

/// Bounding box of a conductor's boxes as (min, max) corners.
fn conductor_bounds(c: &Conductor) -> (Point3, Point3) {
    let mut it = c.boxes().iter();
    let first = it.next().expect("validated conductors have boxes");
    let mut lo = first.min();
    let mut hi = first.max();
    for b in it {
        lo = lo.min(b.min());
        hi = hi.max(b.max());
    }
    (lo, hi)
}

/// Tile index of coordinate `v` along one axis (ties and degenerate
/// extents land in the lower tile — ownership must be unambiguous).
fn tile_of(v: f64, origin: f64, step: f64, tiles: usize) -> usize {
    if step <= 0.0 {
        return 0;
    }
    (((v - origin) / step).floor().max(0.0) as usize).min(tiles - 1)
}

/// Most windows a [`PartitionConfig`] may ask for. The partition
/// allocates per-window state up front, so an unchecked `nx·ny` from the
/// wire could ask for terabytes, an allocation failure that aborts the
/// process.
const MAX_WINDOWS: usize = 1 << 16;

/// How to cut a layout into windows: an `nx × ny` grid of at most 2¹⁶
/// windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Window grid columns (x direction).
    pub nx: usize,
    /// Window grid rows (y direction).
    pub ny: usize,
    /// Neighborhood margin added around each core tile, in layout units.
    pub halo: f64,
}

impl Default for PartitionConfig {
    /// 2×2 windows with a 2 µm halo — two default wire pitches of the
    /// paper's bus structures on either side of every window.
    fn default() -> PartitionConfig {
        PartitionConfig { nx: 2, ny: 2, halo: 2.0 * DEFAULT_SCALE }
    }
}

impl PartitionConfig {
    fn validate(&self) -> Result<(), GeomError> {
        if self.nx == 0 || self.ny == 0 {
            return Err(GeomError::Layout {
                detail: format!("partition grid {}x{} must be at least 1x1", self.nx, self.ny),
            });
        }
        if self.nx.checked_mul(self.ny).is_none_or(|windows| windows > MAX_WINDOWS) {
            return Err(GeomError::Layout {
                detail: format!(
                    "partition grid {}x{} exceeds {MAX_WINDOWS} windows",
                    self.nx, self.ny
                ),
            });
        }
        if !self.halo.is_finite() || self.halo < 0.0 {
            return Err(GeomError::Layout {
                detail: format!("halo {} must be finite and non-negative", self.halo),
            });
        }
        Ok(())
    }
}

/// One window of a [`Partition`]: a core tile, its halo, and the
/// conductors it owns and sees.
#[derive(Debug, Clone)]
pub struct Window {
    index: usize,
    ix: usize,
    iy: usize,
    core: Rect,
    halo: Rect,
    owned: Vec<usize>,
    members: Vec<usize>,
}

impl Window {
    /// Position of this window in the partition's window list.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Grid coordinates `(ix, iy)` of the core tile.
    pub fn grid_pos(&self) -> (usize, usize) {
        (self.ix, self.iy)
    }

    /// The core tile rectangle.
    pub fn core(&self) -> Rect {
        self.core
    }

    /// The halo-expanded rectangle the window actually extracts.
    pub fn halo(&self) -> Rect {
        self.halo
    }

    /// Conductors owned by this window (their matrix rows come from
    /// here), as sorted global conductor indices.
    pub fn owned(&self) -> &[usize] {
        &self.owned
    }

    /// All conductors the window extracts — owned plus neighborhood —
    /// as sorted global conductor indices. This ordering defines the
    /// conductor order of [`Window::geometry`].
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The self-contained extraction geometry of this window: member
    /// conductors in [`Window::members`] order, same dielectric.
    pub fn geometry(&self, layout: &Layout) -> Geometry {
        let conductors =
            self.members.iter().map(|&ci| layout.geometry().conductors()[ci].clone()).collect();
        Geometry::new(conductors).with_eps_rel(layout.geometry().eps_rel())
    }
}

/// An overlapping-window partition of a [`Layout`].
///
/// Holds the window list plus the precomputed neighborhood buffer: all
/// windows' neighbor conductor indices live in one flat `Vec` addressed
/// by per-window ranges (the geodesic-neighborhood layout, applied to
/// chip windows).
#[derive(Debug, Clone)]
pub struct Partition {
    config: PartitionConfig,
    windows: Vec<Window>,
    neighbor_buf: Vec<usize>,
    neighbor_ranges: Vec<(usize, usize)>,
}

impl Partition {
    /// The configuration that produced this partition.
    pub fn config(&self) -> &PartitionConfig {
        &self.config
    }

    /// Number of windows (`nx × ny`).
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// The windows in row-major grid order.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// Neighborhood of window `w`: member conductors it does *not* own,
    /// as sorted global indices from the flat precomputed buffer.
    pub fn neighbors(&self, w: usize) -> &[usize] {
        let (lo, hi) = self.neighbor_ranges[w];
        &self.neighbor_buf[lo..hi]
    }

    /// Sorted indices of windows whose halo intersects the diff — the
    /// exact re-extraction set of an incremental (ECO) run. A dielectric
    /// change touches every window.
    pub fn windows_touched(&self, diff: &GeometryDiff) -> Vec<usize> {
        if diff.eps_changed() {
            return (0..self.windows.len()).collect();
        }
        self.windows
            .iter()
            .filter(|w| diff.regions().iter().any(|r| w.halo.intersects(r)))
            .map(|w| w.index)
            .collect()
    }
}

/// The difference between two revisions of a layout, keyed by net name.
///
/// A conductor counts as changed when it was added, removed, or any box
/// coordinate differs **bitwise** — the same exactness standard the
/// window cache uses, so a diff is empty exactly when re-extraction
/// would reuse every window.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometryDiff {
    changed: Vec<String>,
    regions: Vec<Rect>,
    eps_changed: bool,
}

impl GeometryDiff {
    /// Diffs two geometries.
    pub fn between(old: &Geometry, new: &Geometry) -> GeometryDiff {
        let mut changed: Vec<String> = Vec::new();
        let mut regions = Vec::new();
        for c in old.conductors() {
            match new.conductors().iter().find(|n| n.name() == c.name()) {
                None => {
                    changed.push(c.name().to_string());
                    regions.extend(footprint(c));
                }
                Some(n) if !same_boxes(c, n) => {
                    // Both revisions' footprints are affected regions.
                    changed.push(c.name().to_string());
                    regions.extend(footprint(c));
                    regions.extend(footprint(n));
                }
                Some(_) => {}
            }
        }
        for n in new.conductors() {
            if !old.conductors().iter().any(|c| c.name() == n.name()) {
                changed.push(n.name().to_string());
                regions.extend(footprint(n));
            }
        }
        changed.sort_unstable();
        changed.dedup();
        let eps_changed = old.eps_rel().to_bits() != new.eps_rel().to_bits();
        GeometryDiff { changed, regions, eps_changed }
    }

    /// Whether the two revisions are identical (to the bit).
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && !self.eps_changed
    }

    /// Sorted names of added, removed, or modified nets.
    pub fn changed_names(&self) -> &[String] {
        &self.changed
    }

    /// The xy bounding rectangles of every changed footprint (old and
    /// new positions of moved nets both appear).
    pub fn regions(&self) -> &[Rect] {
        &self.regions
    }

    /// Whether the dielectric constant changed.
    pub fn eps_changed(&self) -> bool {
        self.eps_changed
    }
}

/// The xy bounding rectangle of a conductor's footprint, if it has one.
fn footprint(c: &Conductor) -> Option<Rect> {
    if c.boxes().is_empty() {
        return None;
    }
    let (lo, hi) = conductor_bounds(c);
    Some(Rect::of_bounds(lo, hi))
}

/// Bitwise box-list equality.
fn same_boxes(a: &Conductor, b: &Conductor) -> bool {
    a.boxes().len() == b.boxes().len()
        && a.boxes().iter().zip(b.boxes()).all(|(x, y)| {
            let (xl, xh, yl, yh) = (x.min(), x.max(), y.min(), y.max());
            [xl.x, xl.y, xl.z, xh.x, xh.y, xh.z]
                .iter()
                .zip([yl.x, yl.y, yl.z, yh.x, yh.y, yh.z].iter())
                .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxes::Box3;
    use crate::structures::{self, BusParams};

    fn bus() -> Geometry {
        structures::bus_crossing(4, 4, BusParams::default())
    }

    #[test]
    fn layout_validation() {
        assert!(matches!(Layout::new(Geometry::new(vec![])), Err(GeomError::Layout { .. })));
        assert!(matches!(
            Layout::new(Geometry::new(vec![Conductor::new("a")])),
            Err(GeomError::Layout { .. })
        ));
        let b = Box3::from_bounds((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)).unwrap();
        let dup =
            Geometry::new(vec![Conductor::new("a").with_box(b), Conductor::new("a").with_box(b)]);
        assert!(matches!(Layout::new(dup), Err(GeomError::Layout { .. })));
        assert!(Layout::new(bus()).is_ok());
    }

    #[test]
    fn partition_owns_each_conductor_once() {
        let layout = Layout::new(bus()).unwrap();
        for cfg in [
            PartitionConfig::default(),
            PartitionConfig { nx: 3, ny: 2, halo: 1.0e-6 },
            PartitionConfig { nx: 1, ny: 1, halo: 0.0 },
        ] {
            let part = layout.partition(&cfg).unwrap();
            assert_eq!(part.window_count(), cfg.nx * cfg.ny);
            let mut seen = vec![0usize; layout.conductor_count()];
            for w in part.windows() {
                for &ci in w.owned() {
                    seen[ci] += 1;
                }
                // Owned ⊆ members, both sorted.
                assert!(w.owned().iter().all(|ci| w.members().contains(ci)));
                assert!(w.members().windows(2).all(|p| p[0] < p[1]));
                // The flat neighbor buffer is members minus owned.
                let expect: Vec<usize> =
                    w.members().iter().copied().filter(|ci| !w.owned().contains(ci)).collect();
                assert_eq!(part.neighbors(w.index()), &expect[..]);
            }
            assert!(seen.iter().all(|&n| n == 1), "ownership not a partition: {seen:?}");
        }
    }

    #[test]
    fn single_window_sees_whole_layout() {
        let layout = Layout::new(bus()).unwrap();
        let part = layout.partition(&PartitionConfig { nx: 1, ny: 1, halo: 0.0 }).unwrap();
        let w = &part.windows()[0];
        let all: Vec<usize> = (0..layout.conductor_count()).collect();
        assert_eq!(w.members(), &all[..]);
        assert_eq!(w.owned(), &all[..]);
        assert_eq!(w.geometry(&layout), *layout.geometry());
    }

    #[test]
    fn halo_grows_membership() {
        let layout = Layout::new(bus()).unwrap();
        let tight = layout.partition(&PartitionConfig { nx: 2, ny: 2, halo: 0.0 }).unwrap();
        let wide = layout.partition(&PartitionConfig { nx: 2, ny: 2, halo: 50.0e-6 }).unwrap();
        for (t, w) in tight.windows().iter().zip(wide.windows()) {
            assert!(t.members().len() <= w.members().len());
            // A halo larger than the chip sees everything.
            assert_eq!(w.members().len(), layout.conductor_count());
        }
    }

    #[test]
    fn spatial_index_matches_brute_force() {
        let layout = Layout::new(bus()).unwrap();
        let (lo, hi) = layout.bounds();
        let probe = Rect { x0: lo.x, y0: lo.y, x1: 0.5 * (lo.x + hi.x), y1: 0.5 * (lo.y + hi.y) };
        let got = layout.conductors_in(&probe);
        let want: Vec<usize> = (0..layout.conductor_count())
            .filter(|&ci| layout.conductor_rect(ci).intersects(&probe))
            .collect();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn diff_empty_on_identical_geometries() {
        let g = bus();
        let d = GeometryDiff::between(&g, &g.clone());
        assert!(d.is_empty());
        assert!(d.changed_names().is_empty() && d.regions().is_empty());
        let layout = Layout::new(g).unwrap();
        let part = layout.partition(&PartitionConfig::default()).unwrap();
        assert!(part.windows_touched(&d).is_empty());
    }

    #[test]
    fn diff_finds_moved_added_removed_nets() {
        let b0 = Box3::from_bounds((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)).unwrap();
        let b1 = Box3::from_bounds((5.0, 6.0), (0.0, 1.0), (0.0, 1.0)).unwrap();
        let old = Geometry::new(vec![
            Conductor::new("keep").with_box(b0),
            Conductor::new("move").with_box(b0),
            Conductor::new("gone").with_box(b1),
        ]);
        let new = Geometry::new(vec![
            Conductor::new("keep").with_box(b0),
            Conductor::new("move").with_box(b1),
            Conductor::new("fresh").with_box(b0),
        ]);
        let d = GeometryDiff::between(&old, &new);
        assert_eq!(d.changed_names(), ["fresh", "gone", "move"]);
        // move contributes both footprints, gone and fresh one each.
        assert_eq!(d.regions().len(), 4);
        assert!(!d.eps_changed());
    }

    #[test]
    fn eps_change_touches_every_window() {
        let g = bus();
        let d = GeometryDiff::between(&g, &g.clone().with_eps_rel(3.9));
        assert!(d.eps_changed() && !d.is_empty());
        let layout = Layout::new(g).unwrap();
        let part = layout.partition(&PartitionConfig::default()).unwrap();
        assert_eq!(part.windows_touched(&d), vec![0, 1, 2, 3]);
    }

    #[test]
    fn local_change_touches_local_windows() {
        let g = bus();
        let layout = Layout::new(g.clone()).unwrap();
        let part = layout.partition(&PartitionConfig { nx: 2, ny: 2, halo: 0.5e-6 }).unwrap();
        // Nudge the conductor owned by the first window whose footprint
        // is farthest from the chip center: some window must stay clean.
        let (lo, hi) = layout.bounds();
        let corner = Rect { x0: lo.x, y0: lo.y, x1: lo.x, y1: lo.y };
        let near_corner = (0..layout.conductor_count())
            .min_by(|&a, &b| {
                let da = layout.conductor_rect(a).x0 - corner.x0
                    + (layout.conductor_rect(a).y0 - corner.y0);
                let db = layout.conductor_rect(b).x0 - corner.x0
                    + (layout.conductor_rect(b).y0 - corner.y0);
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        let mut conductors = g.conductors().to_vec();
        let name = conductors[near_corner].name().to_string();
        let shifted: Vec<Box3> = conductors[near_corner]
            .boxes()
            .iter()
            .map(|b| b.translated(Point3::new(0.0, 0.0, 0.05e-6)))
            .collect();
        let mut c = Conductor::new(name);
        for b in shifted {
            c.push_box(b);
        }
        conductors[near_corner] = c;
        let new = Geometry::new(conductors).with_eps_rel(g.eps_rel());
        let d = GeometryDiff::between(&g, &new);
        assert_eq!(d.changed_names().len(), 1);
        let touched = part.windows_touched(&d);
        assert!(!touched.is_empty());
        assert!(
            touched.len() < part.window_count(),
            "a corner nudge must leave some window untouched: {touched:?} \
             (chip {lo:?}..{hi:?})"
        );
    }

    #[test]
    fn partition_config_validation() {
        let layout = Layout::new(bus()).unwrap();
        assert!(layout.partition(&PartitionConfig { nx: 0, ny: 1, halo: 0.0 }).is_err());
        assert!(layout.partition(&PartitionConfig { nx: 1, ny: 1, halo: -1.0 }).is_err());
        assert!(layout.partition(&PartitionConfig { nx: 1, ny: 1, halo: f64::NAN }).is_err());
        // Refused before anything is allocated (10¹² windows would be ≈24 TB).
        for (nx, ny) in [(1_000_000, 1_000_000), (usize::MAX, 2), (MAX_WINDOWS + 1, 1)] {
            let cfg = PartitionConfig { nx, ny, halo: 0.0 };
            assert!(matches!(layout.partition(&cfg), Err(GeomError::Layout { .. })), "{nx}x{ny}");
        }
        assert!(layout.partition(&PartitionConfig { nx: 256, ny: 256, halo: 0.0 }).is_ok());
    }
}
