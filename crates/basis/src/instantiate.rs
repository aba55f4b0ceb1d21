//! Automatic instantiation of basis functions from a Manhattan geometry.
//!
//! Per §2.2: *face basis functions* are placed by default on every
//! rectangular conductor surface (long faces are segmented for accuracy),
//! and *induced basis functions* are instantiated in the neighborhood of
//! wire crossings — a flat template over the crossing footprint plus a
//! pair of arch templates at the footprint edges, with parameters taken
//! from the h-dependent laws of [`crate::arch`].

use bemcap_geom::{Axis, Geometry, Panel};
use bemcap_quad::galerkin::ShapeDir;

use crate::arch::{ArchLaws, ArchShape};
use crate::basisfn::{BasisFunction, BasisSet};
use crate::error::BasisError;
use crate::template::Template;

/// Controls for the instantiation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstantiateConfig {
    /// Arch parameter laws (calibrated from the elementary problem).
    pub laws: ArchLaws,
    /// Faces longer than `max_segment_aspect ×` the owning box's
    /// cross-section scale are split into segments, each its own face
    /// basis function. The paper places one face function per rectangular
    /// surface; a large default keeps that behavior except on extremely
    /// long wires, where conditioning benefits from a few segments.
    pub max_segment_aspect: f64,
    /// Crossings with separation h larger than this multiple of the
    /// footprint size get no induced basis functions (their interaction is
    /// smooth enough for the face functions alone).
    pub max_gap_ratio: f64,
}

impl Default for InstantiateConfig {
    fn default() -> Self {
        InstantiateConfig {
            laws: ArchLaws::default(),
            max_segment_aspect: 25.0,
            max_gap_ratio: 3.0,
        }
    }
}

/// A detected crossing between two conductor boxes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Crossing {
    /// Axis along which the boxes face each other.
    axis: Axis,
    /// Separation h between the facing faces.
    gap: f64,
    /// Footprint overlap in the tangent (u, v) coordinates of `axis`.
    overlap_u: (f64, f64),
    overlap_v: (f64, f64),
    /// Facing face of the lower box (w, owning conductor, face panel).
    lower_face: (usize, Panel),
    /// Facing face of the upper box.
    upper_face: (usize, Panel),
}

/// Builds the full basis set for a geometry, in the order it is built:
/// conductors in input order, each box's faces by axis, segment by
/// segment, then the induced functions in crossing order. The setup's
/// load balance does not depend on this order; the pair plan
/// ([`crate::PairPlan`]) deals its distinct keys so that any slice costs
/// about the same.
///
/// # Errors
///
/// * [`BasisError::EmptyGeometry`] when the geometry has no conductors.
pub fn instantiate(geo: &Geometry, cfg: &InstantiateConfig) -> Result<BasisSet, BasisError> {
    if geo.conductor_count() == 0 {
        return Err(BasisError::EmptyGeometry);
    }
    let mut functions = Vec::new();
    // --- Face basis functions (flat, segmented). ---
    // Segment length keys on the owning box's cross-section scale (its
    // middle extent), not the face's own short side: a thin side face of a
    // wide wire should be segmented like its top face, not 10× finer.
    for (ci, c) in geo.conductors().iter().enumerate() {
        for b in c.boxes() {
            let mut ext = [
                b.extent(bemcap_geom::Axis::X),
                b.extent(bemcap_geom::Axis::Y),
                b.extent(bemcap_geom::Axis::Z),
            ];
            ext.sort_by(f64::total_cmp);
            let char_len = ext[1]; // middle extent = cross-section scale
            for face in b.faces() {
                for seg in segment_face(&face, cfg.max_segment_aspect * char_len) {
                    functions.push(BasisFunction::new(ci, vec![Template::flat(seg)]));
                }
            }
        }
    }
    // --- Induced basis functions at crossings. ---
    for crossing in detect_crossings(geo) {
        // Proximity is judged against the *smaller* footprint extent: two
        // long parallel wires have a huge shared span but only couple
        // strongly when the gap is small relative to their cross-section.
        let size = (crossing.overlap_u.1 - crossing.overlap_u.0)
            .min(crossing.overlap_v.1 - crossing.overlap_v.0);
        if crossing.gap > cfg.max_gap_ratio * size {
            continue;
        }
        for &(cond, face) in [&crossing.lower_face, &crossing.upper_face] {
            add_induced(&mut functions, cond, &face, &crossing, cfg);
        }
    }
    // Different crossings can instantiate bit-identical induced functions
    // (e.g. several parallel neighbors inducing on the same side face);
    // duplicates make P exactly singular, so keep the first of each.
    dedup_functions(&mut functions);
    Ok(BasisSet::new(functions))
}

/// Removes exactly-duplicate basis functions (same conductor, same
/// templates bit for bit), keeping first occurrences and order.
fn dedup_functions(functions: &mut Vec<BasisFunction>) {
    use crate::template::TemplateKey;
    use std::collections::HashSet;
    let mut seen: HashSet<(usize, Vec<TemplateKey>)> = HashSet::new();
    functions.retain(|f| {
        let keys: Vec<TemplateKey> = f.templates.iter().map(Template::key).collect();
        seen.insert((f.conductor, keys))
    });
}

/// Splits a face into segments no longer than `max_len` along its long
/// direction.
fn segment_face(face: &Panel, max_len: f64) -> Vec<Panel> {
    let (lu, lv) = (face.u_len(), face.v_len());
    let (nu, nv) = if lu >= lv {
        (((lu / max_len).ceil() as usize).max(1), 1)
    } else {
        (1, ((lv / max_len).ceil() as usize).max(1))
    };
    face.subdivide(nu, nv)
}

/// Finds all facing-with-overlap box pairs across different conductors.
fn detect_crossings(geo: &Geometry) -> Vec<Crossing> {
    let mut boxes = Vec::new();
    for (ci, c) in geo.conductors().iter().enumerate() {
        for b in c.boxes() {
            boxes.push((ci, *b));
        }
    }
    let mut out = Vec::new();
    for a in 0..boxes.len() {
        for b in (a + 1)..boxes.len() {
            let (ca, ba) = boxes[a];
            let (cb, bb) = boxes[b];
            if ca == cb {
                continue;
            }
            for axis in Axis::ALL {
                let (ua, va) = axis.tangents();
                let ou = overlap_1d(
                    (ba.min().component(ua), ba.max().component(ua)),
                    (bb.min().component(ua), bb.max().component(ua)),
                );
                let ov = overlap_1d(
                    (ba.min().component(va), ba.max().component(va)),
                    (bb.min().component(va), bb.max().component(va)),
                );
                let (Some(ou), Some(ov)) = (ou, ov) else { continue };
                // Facing: disjoint along `axis` with a positive gap.
                let (lo, hi) = if ba.max().component(axis) <= bb.min().component(axis) {
                    ((ca, ba), (cb, bb))
                } else if bb.max().component(axis) <= ba.min().component(axis) {
                    ((cb, bb), (ca, ba))
                } else {
                    continue;
                };
                let gap = hi.1.min().component(axis) - lo.1.max().component(axis);
                if gap <= 0.0 {
                    continue;
                }
                // The facing faces: high face of the lower box, low face of
                // the upper box.
                let lower_panel = face_of(&lo.1, axis, true);
                let upper_panel = face_of(&hi.1, axis, false);
                out.push(Crossing {
                    axis,
                    gap,
                    overlap_u: ou,
                    overlap_v: ov,
                    lower_face: (lo.0, lower_panel),
                    upper_face: (hi.0, upper_panel),
                });
            }
        }
    }
    out
}

fn overlap_1d(a: (f64, f64), b: (f64, f64)) -> Option<(f64, f64)> {
    let lo = a.0.max(b.0);
    let hi = a.1.min(b.1);
    (hi > lo).then_some((lo, hi))
}

fn face_of(b: &bemcap_geom::Box3, axis: Axis, high: bool) -> Panel {
    let (ua, va) = axis.tangents();
    let w = if high { b.max().component(axis) } else { b.min().component(axis) };
    Panel::new(
        axis,
        w,
        (b.min().component(ua), b.max().component(ua)),
        (b.min().component(va), b.max().component(va)),
    )
    .expect("box faces are non-degenerate")
}

/// Adds the induced basis functions for one facing face of a crossing:
/// one flat-footprint function and one two-arch function.
fn add_induced(
    functions: &mut Vec<BasisFunction>,
    cond: usize,
    face: &Panel,
    crossing: &Crossing,
    cfg: &InstantiateConfig,
) {
    let h = crossing.gap;
    // Variation runs along the face's long direction (the wire axis).
    let along_u = face.u_len() >= face.v_len();
    let (wire_range, cross_range, footprint_wire, footprint_cross) = if along_u {
        (face.u_range(), face.v_range(), crossing.overlap_u, crossing.overlap_v)
    } else {
        (face.v_range(), face.u_range(), crossing.overlap_v, crossing.overlap_u)
    };
    // Clip the footprint to the face (it may extend past segmented faces).
    let Some(fw) = overlap_1d(wire_range, footprint_wire) else { return };
    let Some(fc) = overlap_1d(cross_range, footprint_cross) else { return };
    // Induced basis functions belong to wire *intersections* (§2.2): the
    // footprint must be compact along the wire. Long skinny footprints are
    // lateral parallel runs, whose smooth coupling the face functions
    // already represent.
    if fw.1 - fw.0 > 3.0 * (fc.1 - fc.0) {
        return;
    }
    let dir = if along_u { ShapeDir::U } else { ShapeDir::V };
    let mk_panel = |wire: (f64, f64), cross: (f64, f64)| {
        let (u, v) = if along_u { (wire, cross) } else { (cross, wire) };
        Panel::new(face.normal(), face.w(), u, v).ok()
    };
    // Flat footprint template.
    if let Some(p) = mk_panel(fw, fc) {
        functions.push(BasisFunction::new(cond, vec![Template::flat(p)]));
    }
    // Two arch templates at the footprint edges along the wire.
    let b = cfg.laws.width(h);
    let e = cfg.laws.extension(h);
    let mut arch_templates = Vec::new();
    for center in [fw.0, fw.1] {
        let support = overlap_1d(wire_range, (center - e, center + e));
        let Some(support) = support else { continue };
        if support.1 - support.0 < 1e-6 * e {
            continue;
        }
        if let Some(p) = mk_panel(support, fc) {
            arch_templates.push(Template::arch(p, dir, ArchShape { center, width: b }));
        }
    }
    if !arch_templates.is_empty() {
        functions.push(BasisFunction::new(cond, arch_templates));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::TemplateKind;
    use bemcap_geom::structures::{self, BusParams, CrossingParams};

    #[test]
    fn empty_geometry_rejected() {
        let geo = Geometry::new(vec![]);
        assert!(matches!(
            instantiate(&geo, &InstantiateConfig::default()),
            Err(BasisError::EmptyGeometry)
        ));
    }

    #[test]
    fn crossing_pair_gets_induced_functions() {
        let geo = structures::crossing_wires(CrossingParams::default());
        let set = instantiate(&geo, &InstantiateConfig::default()).unwrap();
        // 2 boxes × 6 faces (some segmented) + induced.
        let arch_count = set
            .functions()
            .iter()
            .flat_map(|f| &f.templates)
            .filter(|t| matches!(t.kind, TemplateKind::Arch { .. }))
            .count();
        assert!(arch_count >= 4, "expected arches on both facing faces, got {arch_count}");
        // M/N ratio in the paper's 1.2–3 range... at least > 1.
        assert!(set.template_count() > set.basis_count());
        // Every basis function belongs to a valid conductor.
        for f in set.functions() {
            assert!(f.conductor < 2);
        }
    }

    #[test]
    fn parallel_plates_have_no_arches() {
        // Plates fully overlap: a "crossing" is detected but the footprint
        // edges coincide with the face edges; arch supports still exist.
        // What must hold: no panics, flat face functions present.
        let geo = structures::parallel_plates(1.0, 1.0, 0.2);
        let set = instantiate(&geo, &InstantiateConfig::default()).unwrap();
        assert!(set.basis_count() >= 12);
    }

    #[test]
    fn bus_crossing_counts_scale() {
        let p = BusParams::default();
        let small =
            instantiate(&structures::bus_crossing(2, 2, p), &InstantiateConfig::default()).unwrap();
        let big =
            instantiate(&structures::bus_crossing(4, 4, p), &InstantiateConfig::default()).unwrap();
        // 4 wires → 4 crossings; 8 wires → 16 crossings: superlinear growth
        // of induced functions, linear growth of face functions.
        assert!(big.basis_count() > 2 * small.basis_count());
        let ratio = big.template_count() as f64 / big.basis_count() as f64;
        assert!((1.0..=3.0).contains(&ratio), "M/N = {ratio}");
    }

    #[test]
    fn far_separated_wires_get_no_induced() {
        let mut p = CrossingParams::default();
        p.separation = 100.0 * p.width; // far beyond max_gap_ratio
        let geo = structures::crossing_wires(p);
        let set = instantiate(&geo, &InstantiateConfig::default()).unwrap();
        let arch_count = set
            .functions()
            .iter()
            .flat_map(|f| &f.templates)
            .filter(|t| matches!(t.kind, TemplateKind::Arch { .. }))
            .count();
        assert_eq!(arch_count, 0);
    }

    #[test]
    fn segmentation_respects_aspect() {
        let face = Panel::new(Axis::Z, 0.0, (0.0, 20.0), (0.0, 1.0)).unwrap();
        let segs = segment_face(&face, 6.0);
        assert_eq!(segs.len(), 4); // ceil(20 / 6)
        let total: f64 = segs.iter().map(Panel::area).sum();
        assert!((total - face.area()).abs() < 1e-12);
        // Square face: one segment.
        let sq = Panel::new(Axis::Z, 0.0, (0.0, 1.0), (0.0, 1.0)).unwrap();
        assert_eq!(segment_face(&sq, 6.0).len(), 1);
    }

    #[test]
    fn overlap_helper() {
        assert_eq!(overlap_1d((0.0, 2.0), (1.0, 3.0)), Some((1.0, 2.0)));
        assert_eq!(overlap_1d((0.0, 1.0), (1.0, 2.0)), None);
        assert_eq!(overlap_1d((0.0, 1.0), (2.0, 3.0)), None);
    }

    #[test]
    fn detect_crossings_finds_the_z_facing_pair() {
        let geo = structures::crossing_wires(CrossingParams::default());
        let crossings = detect_crossings(&geo);
        assert_eq!(crossings.len(), 1);
        let c = crossings[0];
        assert_eq!(c.axis, Axis::Z);
        assert!((c.gap - CrossingParams::default().separation).abs() < 1e-18);
        // Footprint is the width×width square at the origin.
        let w = CrossingParams::default().width;
        assert!((c.overlap_u.1 - c.overlap_u.0 - w).abs() < 1e-15);
        assert!((c.overlap_v.1 - c.overlap_v.0 - w).abs() < 1e-15);
    }
}
