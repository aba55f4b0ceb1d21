//! Templates: the atomic shapes of instantiable basis functions, and the
//! translation-canonical identity of a template pair.
//!
//! A pair integral depends only on the two templates' shapes and their
//! relative position, never on where the pair sits in space. [`PairKey`]
//! captures exactly that: both shapes plus b's offset from a's lower
//! corner, every length rounded to a fixed 2⁻⁶⁰ m grid. The pair's value
//! is evaluated from the key alone ([`pair_integral`]), so a key is a
//! complete, reusable unit of setup work: every translated copy of a pair
//! — across one structure's regular placements or across requests —
//! shares one evaluation, bit for bit.

use bemcap_geom::{Axis, Panel, Point3};
use bemcap_quad::galerkin::{GalerkinEngine, PanelShape, ShapeDir};

use crate::arch::ArchShape;

/// The shape carried by a template on its support panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TemplateKind {
    /// Constant 1 (face basis functions and flat templates).
    Flat,
    /// An arch profile varying along `dir`.
    Arch {
        /// The in-plane direction of variation.
        dir: ShapeDir,
        /// The bump profile.
        shape: ArchShape,
    },
}

/// A template: a support rectangle plus a shape — the `T_i` of
/// equation (5). Templates from different basis functions may overlap;
/// that is a deliberate feature of instantiable bases (§4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Template {
    /// The support rectangle.
    pub panel: Panel,
    /// The shape on the support.
    pub kind: TemplateKind,
}

impl Template {
    /// A flat template on `panel`.
    pub fn flat(panel: Panel) -> Template {
        Template { panel, kind: TemplateKind::Flat }
    }

    /// An arch template on `panel` varying along `dir`.
    pub fn arch(panel: Panel, dir: ShapeDir, shape: ArchShape) -> Template {
        Template { panel, kind: TemplateKind::Arch { dir, shape } }
    }

    /// The exact identity key of this template: two templates share a key
    /// iff their support panels and shapes are **bit-identical**, at the
    /// same absolute placement. The instantiation pass uses keys to drop
    /// duplicate induced functions; pair integrals are identified by the
    /// translation-canonical [`PairKey`] instead.
    pub fn key(&self) -> TemplateKey {
        let p = &self.panel;
        let mut k = [0u64; 9];
        k[0] = p.normal().index() as u64;
        k[1] = p.w().to_bits();
        k[2] = p.u_range().0.to_bits();
        k[3] = p.u_range().1.to_bits();
        k[4] = p.v_range().0.to_bits();
        k[5] = p.v_range().1.to_bits();
        match &self.kind {
            TemplateKind::Flat => {}
            TemplateKind::Arch { dir, shape } => {
                k[6] = 1 + matches!(dir, ShapeDir::V) as u64;
                k[7] = shape.center.to_bits();
                k[8] = shape.width.to_bits();
            }
        }
        TemplateKey(k)
    }

    /// Runs `f` with this template's weight expressed as a
    /// [`PanelShape`] borrowing a stack-local closure.
    pub fn with_shape<R>(&self, f: impl FnOnce(PanelShape<'_>) -> R) -> R {
        match &self.kind {
            TemplateKind::Flat => f(PanelShape::Flat),
            TemplateKind::Arch { dir, shape } => {
                let arch = *shape;
                let closure = move |u: f64| arch.eval(u);
                f(PanelShape::Shaped { dir: *dir, shape: &closure })
            }
        }
    }
}

/// The bit-level identity of a [`Template`] — hashable and cheap to copy.
/// See [`Template::key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TemplateKey([u64; 9]);

/// Number of `u64` words in a [`PairKey`].
pub const PAIR_KEY_WORDS: usize = 12;

/// 2⁶⁰: lengths are stored as their (rounded) count of 2⁻⁶⁰ m quanta. A
/// power of two, so scaling by it and back is exact.
const QUANTA_PER_METER: f64 = (1u64 << 60) as f64;

/// A length as its bits on the quantum grid: the rounded quantum count as
/// an `f64` (exact below 2⁵³ quanta, ≈7.8 mm; beyond that the value is its
/// own coarser grid), `-0` folded into `+0`.
fn quantise(len: f64) -> u64 {
    ((len * QUANTA_PER_METER).round() + 0.0).to_bits()
}

/// The length a [`quantise`]d word stands for.
fn dequantise(word: u64) -> f64 {
    f64::from_bits(word) / QUANTA_PER_METER
}

/// One template in translation-free form: its tag (normal index in bits
/// 0–1, shape in bits 2–3: 0 flat, 1 arch along u, 2 arch along v), its
/// quantised shape words (u and v extents, arch centre relative to the
/// panel's lower corner, arch width), and the absolute lower corner the
/// pair offset is measured between.
///
/// The arch width is quantised too although no translation moves it: the
/// instantiation pass derives it from a difference of absolute
/// coordinates (the crossing gap), whose last bits do move.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CanonicalTemplate {
    tag: u64,
    shape: [u64; 4],
    corner: Point3,
}

impl CanonicalTemplate {
    pub(crate) fn of(t: &Template) -> CanonicalTemplate {
        let p = &t.panel;
        let (u0, v0) = (p.u_range().0, p.v_range().0);
        let (kind, centre, width) = match &t.kind {
            TemplateKind::Flat => (0, 0, 0),
            TemplateKind::Arch { dir: ShapeDir::U, shape } => {
                (1, quantise(shape.center - u0), quantise(shape.width))
            }
            TemplateKind::Arch { dir: ShapeDir::V, shape } => {
                (2, quantise(shape.center - v0), quantise(shape.width))
            }
        };
        CanonicalTemplate {
            tag: p.normal().index() as u64 | kind << 2,
            shape: [quantise(p.u_len()), quantise(p.v_len()), centre, width],
            corner: p.point_at(u0, v0),
        }
    }

    /// Rebuilds the template from its tag and shape words with its lower
    /// corner at `corner`.
    fn rebuild(tag: u64, shape: &[u64], corner: Point3) -> Template {
        let normal = Axis::from_index((tag & 3) as usize);
        let (ua, va) = normal.tangents();
        let (u0, v0) = (corner.component(ua), corner.component(va));
        let panel = Panel::new(
            normal,
            corner.component(normal),
            (u0, u0 + dequantise(shape[0])),
            (v0, v0 + dequantise(shape[1])),
        )
        .expect("a pair key holds extents of at least one quantum");
        let arch =
            |lo: f64| ArchShape { center: lo + dequantise(shape[2]), width: dequantise(shape[3]) };
        match tag >> 2 {
            0 => Template::flat(panel),
            1 => Template::arch(panel, ShapeDir::U, arch(u0)),
            _ => Template::arch(panel, ShapeDir::V, arch(v0)),
        }
    }
}

/// The translation-canonical identity of an ordered template pair (a, b):
/// both templates' normals, shapes, extents and arch parameters, plus b's
/// offset from a's lower corner — every length quantised to a 2⁻⁶⁰ m
/// grid. Translating both templates by a multiple of the quantum (with
/// every moved coordinate exact in `f64`) leaves the key unchanged; any
/// other translation can move a word by about one quantum.
///
/// The order is part of the identity and is not symmetrised: swapping
/// the roles changes which panel carries the outer quadrature.
///
/// Word layout: `[tags, a.u_len, a.v_len, a.centre, a.width, b.u_len,
/// b.v_len, b.centre, b.width, dx, dy, dz]`, tags = a's tag | b's tag << 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairKey([u64; PAIR_KEY_WORDS]);

impl PairKey {
    /// The key of the ordered pair (a, b).
    pub fn new(a: &Template, b: &Template) -> PairKey {
        PairKey::of(&CanonicalTemplate::of(a), &CanonicalTemplate::of(b))
    }

    pub(crate) fn of(a: &CanonicalTemplate, b: &CanonicalTemplate) -> PairKey {
        let d = b.corner - a.corner;
        let (sa, sb) = (a.shape, b.shape);
        PairKey([
            a.tag | b.tag << 8,
            sa[0],
            sa[1],
            sa[2],
            sa[3],
            sb[0],
            sb[1],
            sb[2],
            sb[3],
            quantise(d.x),
            quantise(d.y),
            quantise(d.z),
        ])
    }

    /// The raw words, in the order [`From<[u64; PAIR_KEY_WORDS]>`]
    /// consumes them — the serialization seam for cache snapshots.
    pub fn words(&self) -> [u64; PAIR_KEY_WORDS] {
        self.0
    }

    /// The two templates the key stands for, with a's lower corner at the
    /// origin.
    fn templates(&self) -> (Template, Template) {
        let w = &self.0;
        let offset = Point3::new(dequantise(w[9]), dequantise(w[10]), dequantise(w[11]));
        (
            CanonicalTemplate::rebuild(w[0] & 0xff, &w[1..5], Point3::ZERO),
            CanonicalTemplate::rebuild(w[0] >> 8, &w[5..9], offset),
        )
    }

    /// The raw Galerkin integral of the pair, evaluated on the templates
    /// rebuilt from the key — a pure function of the key's words.
    pub(crate) fn integral(&self, eng: &GalerkinEngine) -> f64 {
        let (a, b) = self.templates();
        a.with_shape(|sa| b.with_shape(|sb| eng.panel_pair(&a.panel, sa, &b.panel, sb)))
    }
}

impl From<[u64; PAIR_KEY_WORDS]> for PairKey {
    /// Rebuilds a key from its raw words — cache snapshot restore and
    /// synthetic identities for cache tests. Only keys made by
    /// [`PairKey::new`] are ever evaluated.
    fn from(words: [u64; PAIR_KEY_WORDS]) -> PairKey {
        PairKey(words)
    }
}

/// The Galerkin integral of a template pair (equation (5) entry, raw
/// kernel — the caller divides by 4πε), evaluated from the pair's
/// [`PairKey`], so every translated copy of the pair gets the same bits.
pub fn pair_integral(eng: &GalerkinEngine, a: &Template, b: &Template) -> f64 {
    PairKey::new(a, b).integral(eng)
}

/// ∫ template over its support — the template's contribution to the
/// right-hand side Φ (equation (2) with φ ≡ 1 on the conductor).
pub fn template_moment(eng: &GalerkinEngine, t: &Template) -> f64 {
    t.with_shape(|s| eng.weighted_area(&t.panel, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bemcap_geom::Axis;
    use bemcap_quad::analytic;

    fn panel(w: f64) -> Panel {
        Panel::new(Axis::Z, w, (0.0, 1.0), (0.0, 1.0)).unwrap()
    }

    #[test]
    fn flat_pair_matches_closed_form() {
        let eng = GalerkinEngine::default();
        let a = Template::flat(panel(0.0));
        let b = Template::flat(panel(1.5));
        let got = pair_integral(&eng, &a, &b);
        let expect =
            analytic::galerkin_parallel((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), 1.5);
        assert!((got - expect).abs() < 1e-13 * expect);
    }

    #[test]
    fn flat_moment_is_area() {
        let eng = GalerkinEngine::default();
        let t = Template::flat(panel(0.0));
        assert!((template_moment(&eng, &t) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn arch_moment_matches_gaussian_integral() {
        let eng = GalerkinEngine::default();
        // Wide support so the full Gaussian mass is captured.
        let p = Panel::new(Axis::Z, 0.0, (-5.0, 5.0), (0.0, 2.0)).unwrap();
        let shape = ArchShape { center: 0.0, width: 0.5 };
        let t = Template::arch(p, ShapeDir::U, shape);
        let m = template_moment(&eng, &t);
        // The default shape_order quadrature is coarse for a narrow bump on
        // a wide panel; expect agreement to a few percent.
        let expect = shape.full_integral() * 2.0;
        assert!((m - expect).abs() < 0.1 * expect, "{m} vs {expect}");
    }

    #[test]
    fn pair_integral_symmetric() {
        let eng = GalerkinEngine::default();
        let a = Template::flat(panel(0.0));
        let shape = ArchShape { center: 0.5, width: 0.3 };
        let b = Template::arch(panel(0.7), ShapeDir::U, shape);
        let ab = pair_integral(&eng, &a, &b);
        let ba = pair_integral(&eng, &b, &a);
        assert!((ab - ba).abs() < 1e-9 * ab.abs(), "{ab} vs {ba}");
        assert!(ab > 0.0);
    }

    #[test]
    fn keys_separate_distinct_templates() {
        let shape = ArchShape { center: 0.5, width: 0.3 };
        let flat = Template::flat(panel(0.0));
        let same = Template::flat(panel(0.0));
        let moved = Template::flat(panel(1.0));
        let arch_u = Template::arch(panel(0.0), ShapeDir::U, shape);
        let arch_v = Template::arch(panel(0.0), ShapeDir::V, shape);
        let arch_wide =
            Template::arch(panel(0.0), ShapeDir::U, ArchShape { center: 0.5, width: 0.4 });
        assert_eq!(flat.key(), same.key());
        assert_ne!(flat.key(), moved.key());
        assert_ne!(flat.key(), arch_u.key());
        assert_ne!(arch_u.key(), arch_v.key());
        assert_ne!(arch_u.key(), arch_wide.key());
    }

    /// `t` moved by `(dx, dy, dz)` (arch centres move with their panel).
    fn shifted(t: &Template, d: Point3) -> Template {
        let p = &t.panel;
        let (ua, va) = p.normal().tangents();
        let (du, dv) = (d.component(ua), d.component(va));
        let (u, v) = (p.u_range(), p.v_range());
        let panel = Panel::new(
            p.normal(),
            p.w() + d.component(p.normal()),
            (u.0 + du, u.1 + du),
            (v.0 + dv, v.1 + dv),
        )
        .unwrap();
        match t.kind {
            TemplateKind::Flat => Template::flat(panel),
            TemplateKind::Arch { dir, shape } => {
                let along = if dir == ShapeDir::U { du } else { dv };
                Template::arch(panel, dir, ArchShape { center: shape.center + along, ..shape })
            }
        }
    }

    #[test]
    fn pair_keys_ignore_translation_but_not_order_or_shape() {
        let shape = ArchShape { center: 0.5, width: 0.3 };
        let a = Template::flat(panel(0.0));
        let b = Template::arch(panel(0.75), ShapeDir::U, shape);
        // Dyadic coordinates and shifts keep every sum exact, so the key is.
        let d = Point3::new(0.25, -1.5, 3.0);
        let key = PairKey::new(&a, &b);
        assert_eq!(key, PairKey::new(&shifted(&a, d), &shifted(&b, d)));
        assert_ne!(key, PairKey::new(&b, &a), "roles are part of the identity");
        assert_ne!(key, PairKey::new(&a, &shifted(&b, d)), "relative offset is");
        let wider = Template::arch(panel(0.75), ShapeDir::U, ArchShape { width: 0.4, ..shape });
        assert_ne!(key, PairKey::new(&a, &wider));
        let along_v = Template::arch(panel(0.75), ShapeDir::V, shape);
        assert_ne!(key, PairKey::new(&a, &along_v));
        assert_eq!(PairKey::from(key.words()), key);
    }

    #[test]
    fn key_evaluation_matches_the_absolute_pair() {
        let eng = GalerkinEngine::default();
        let shape = ArchShape { center: 0.4, width: 0.3 };
        let a = Template::arch(panel(0.0), ShapeDir::V, shape);
        let b = Template::flat(Panel::new(Axis::X, 1.2, (0.1, 0.9), (0.3, 1.4)).unwrap());
        for (s, t) in [(&a, &b), (&b, &a), (&a, &a)] {
            let direct =
                s.with_shape(|ss| t.with_shape(|st| eng.panel_pair(&s.panel, ss, &t.panel, st)));
            let keyed = pair_integral(&eng, s, t);
            assert!((keyed - direct).abs() <= 1e-12 * direct.abs(), "{keyed} vs {direct}");
        }
    }

    #[test]
    fn keys_distinguish_normal_axis() {
        // Same (w, u, v) ranges on different normals are different panels.
        let a = Template::flat(Panel::new(Axis::Z, 0.0, (0.0, 1.0), (0.0, 1.0)).unwrap());
        let b = Template::flat(Panel::new(Axis::X, 0.0, (0.0, 1.0), (0.0, 1.0)).unwrap());
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn arch_self_term_positive_finite() {
        let eng = GalerkinEngine::default();
        let shape = ArchShape { center: 0.5, width: 0.2 };
        let t = Template::arch(panel(0.0), ShapeDir::U, shape);
        let v = pair_integral(&eng, &t, &t);
        assert!(v.is_finite() && v > 0.0, "self term {v}");
    }
}
