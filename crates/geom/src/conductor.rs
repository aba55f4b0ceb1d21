//! Conductors and complete extraction geometries.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::boxes::Box3;
use crate::panel::Panel;
use crate::vec3::Point3;
use crate::EPS0;

/// A named conductor: a union of axis-aligned boxes held at one potential.
///
/// ```
/// use bemcap_geom::{Box3, Conductor, Point3};
/// let wire = Conductor::new("net0")
///     .with_box(Box3::new(Point3::ZERO, Point3::new(10.0, 1.0, 1.0))?);
/// assert_eq!(wire.name(), "net0");
/// # Ok::<(), bemcap_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conductor {
    name: String,
    boxes: Vec<Box3>,
}

impl Conductor {
    /// Creates an empty conductor with the given net name.
    pub fn new(name: impl Into<String>) -> Conductor {
        Conductor { name: name.into(), boxes: Vec::new() }
    }

    /// Builder-style: adds a box and returns the conductor.
    pub fn with_box(mut self, b: Box3) -> Conductor {
        self.boxes.push(b);
        self
    }

    /// Adds a box.
    pub fn push_box(&mut self, b: Box3) {
        self.boxes.push(b);
    }

    /// Net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The boxes making up this conductor.
    pub fn boxes(&self) -> &[Box3] {
        &self.boxes
    }

    /// All boundary faces of all boxes.
    ///
    /// Faces internal to the union (where two boxes abut) are *not* removed;
    /// the generators in [`crate::structures`] produce non-abutting boxes so
    /// this simple union is exact for every structure in the evaluation.
    pub fn faces(&self) -> Vec<Panel> {
        self.boxes.iter().flat_map(Box3::faces).collect()
    }

    /// Total surface area of all faces.
    pub fn surface_area(&self) -> f64 {
        self.boxes.iter().map(Box3::surface_area).sum()
    }

    /// Centroid of the box centers, weighted by volume.
    pub fn center(&self) -> Point3 {
        let vol: f64 = self.boxes.iter().map(Box3::volume).sum();
        let mut c = Point3::ZERO;
        for b in &self.boxes {
            c += b.center() * (b.volume() / vol);
        }
        c
    }
}

impl fmt::Display for Conductor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conductor {} ({} boxes)", self.name, self.boxes.len())
    }
}

/// A complete capacitance-extraction problem geometry: a set of conductors
/// embedded in a uniform dielectric, as assumed by the paper (§2.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Geometry {
    conductors: Vec<Conductor>,
    /// Relative permittivity of the uniform embedding medium.
    eps_rel: f64,
}

impl Geometry {
    /// Creates a geometry in vacuum (ε_r = 1).
    pub fn new(mut conductors: Vec<Conductor>) -> Geometry {
        // Conductors are built one box at a time, and a vector's first
        // allocation holds four: trim the spare slots a geometry would
        // otherwise carry for as long as it lives.
        for c in &mut conductors {
            c.boxes.shrink_to_fit();
        }
        Geometry { conductors, eps_rel: 1.0 }
    }

    /// Builder-style: sets the relative permittivity of the medium.
    pub fn with_eps_rel(mut self, eps_rel: f64) -> Geometry {
        self.eps_rel = eps_rel;
        self
    }

    /// The conductors.
    pub fn conductors(&self) -> &[Conductor] {
        &self.conductors
    }

    /// Number of conductors (the `n` of the n×n capacitance matrix).
    pub fn conductor_count(&self) -> usize {
        self.conductors.len()
    }

    /// Relative permittivity of the medium.
    pub fn eps_rel(&self) -> f64 {
        self.eps_rel
    }

    /// Absolute permittivity ε = ε_r · ε₀ (F/m).
    pub fn eps(&self) -> f64 {
        self.eps_rel * EPS0
    }

    /// All faces of all conductors, with the owning conductor index.
    pub fn faces_with_conductor(&self) -> Vec<(usize, Panel)> {
        let mut out = Vec::new();
        for (ci, c) in self.conductors.iter().enumerate() {
            for f in c.faces() {
                out.push((ci, f));
            }
        }
        out
    }

    /// Overall bounding box of the geometry as (min, max) corners.
    ///
    /// # Panics
    ///
    /// Panics if the geometry contains no boxes.
    pub fn bounds(&self) -> (Point3, Point3) {
        let mut it = self.conductors.iter().flat_map(|c| c.boxes().iter());
        let first = it.next().expect("geometry must contain at least one box");
        let mut lo = first.min();
        let mut hi = first.max();
        for b in it {
            lo = lo.min(b.min());
            hi = hi.max(b.max());
        }
        (lo, hi)
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "geometry with {} conductors, eps_r = {}", self.conductors.len(), self.eps_rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_wires() -> Geometry {
        let a = Conductor::new("a")
            .with_box(Box3::from_bounds((0.0, 10.0), (0.0, 1.0), (0.0, 1.0)).unwrap());
        let b = Conductor::new("b")
            .with_box(Box3::from_bounds((0.0, 1.0), (-5.0, 5.0), (2.0, 3.0)).unwrap());
        Geometry::new(vec![a, b])
    }

    #[test]
    fn conductor_faces() {
        let g = two_wires();
        assert_eq!(g.conductor_count(), 2);
        assert_eq!(g.conductors()[0].faces().len(), 6);
        let pairs = g.faces_with_conductor();
        assert_eq!(pairs.len(), 12);
        assert_eq!(pairs.iter().filter(|(c, _)| *c == 0).count(), 6);
    }

    #[test]
    fn geometries_hold_no_spare_box_slots() {
        let g = two_wires();
        assert!(g.conductors().iter().all(|c| c.boxes.capacity() == c.boxes.len()));
    }

    #[test]
    fn eps_scaling() {
        let g = two_wires().with_eps_rel(3.9);
        assert!((g.eps() - 3.9 * EPS0).abs() < 1e-25);
    }

    #[test]
    fn bounds_cover_everything() {
        let g = two_wires();
        let (lo, hi) = g.bounds();
        assert_eq!(lo, Point3::new(0.0, -5.0, 0.0));
        assert_eq!(hi, Point3::new(10.0, 5.0, 3.0));
    }

    #[test]
    fn centers() {
        let c = Conductor::new("c")
            .with_box(Box3::from_bounds((0.0, 2.0), (0.0, 2.0), (0.0, 2.0)).unwrap());
        assert_eq!(c.center(), Point3::new(1.0, 1.0, 1.0));
        assert_eq!(c.surface_area(), 24.0);
    }
}
