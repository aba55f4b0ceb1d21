//! Templates: the atomic shapes of instantiable basis functions, and the
//! symmetry-canonical identity of a template pair.
//!
//! A pair integral depends only on the two templates' shapes and their
//! relative position, never on where the pair sits in space, and the
//! Laplace kernel does not change when space is mirrored about a plane
//! normal to an axis. [`PairKey`] captures exactly that: both shapes plus
//! b's offset from a's lower corner, every length rounded to a fixed
//! 2⁻⁶⁰ m grid, with the pair mirrored along each axis into one fixed
//! orientation. The pair's value is evaluated from the key alone
//! ([`pair_integral`]), so a key is a complete, reusable unit of setup
//! work: every translated or mirrored copy of a pair — across one
//! structure's regular placements, across the near field of a
//! piecewise-constant mesh (one flat template per panel), or across
//! requests — shares one evaluation, bit for bit. Relabelling the axes is
//! an isometry too: [`PairKey::canonical`] merges the six axis-permuted
//! images of a pair, so the x and y layers of a crossing bus share their
//! pairs. [`crate::distinct`] finds the distinct keys of a set of pairs.

use bemcap_geom::{Axis, Panel, Point3};

use crate::galerkin::{GalerkinEngine, PanelShape, ShapeDir};

/// A concrete arch profile on a template support: the normalized
/// Gaussian bump A(u) = exp(−(u − c)² / (2 b²)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchShape {
    /// Center of the bump, in absolute in-plane coordinates.
    pub center: f64,
    /// Gaussian width b.
    pub width: f64,
}

impl ArchShape {
    /// Evaluates the (unit-peak) profile at coordinate `u`.
    #[inline]
    pub fn eval(&self, u: f64) -> f64 {
        let t = (u - self.center) / self.width;
        (-0.5 * t * t).exp()
    }

    /// ∫ A(u) du over (−∞, ∞) — a useful normalization reference
    /// (= b·√(2π)).
    pub fn full_integral(&self) -> f64 {
        self.width * (2.0 * std::f64::consts::PI).sqrt()
    }
}

impl std::fmt::Display for ArchShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "arch(c={:.4e}, b={:.4e})", self.center, self.width)
    }
}

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
    /// symmetry-canonical [`PairKey`] instead.
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

/// 2⁵²: adding and then subtracting it (with the sign of the operand)
/// rounds an `f64` of smaller magnitude to an integer, ties to even.
const ROUNDER: f64 = (1u64 << 52) as f64;

/// A length as its count of quanta, rounded to an integer, ties to even
/// (exact below 2⁵³ quanta, ≈7.8 mm; beyond that the value is its own
/// coarser grid). The rounding is odd-symmetric: −len gives the negated
/// count.
///
/// It rounds by adding and subtracting [`ROUNDER`] rather than through
/// `f64::round`, which baseline x86-64 lowers to a libm call: a key takes
/// six of these, and the plan computes two keys per pair it walks.
#[inline]
fn quanta(len: f64) -> f64 {
    let count = len * QUANTA_PER_METER;
    if count.abs() < ROUNDER {
        let shift = ROUNDER.copysign(count);
        (count + shift) - shift
    } else {
        count
    }
}

/// A [`quanta`] count as a key word: its bits, `-0` folded into `+0`.
#[inline]
fn word(count: f64) -> u64 {
    (count + 0.0).to_bits()
}

/// A length as its word on the quantum grid.
fn quantise(len: f64) -> u64 {
    word(quanta(len))
}

/// The length a [`quantise`]d word stands for.
fn dequantise(word: u64) -> f64 {
    f64::from_bits(word) / QUANTA_PER_METER
}

/// A point's x, y and z, indexable by axis.
fn xyz(p: Point3) -> [f64; 3] {
    [p.x, p.y, p.z]
}

/// One template in translation-free form: its tag (normal index in bits
/// 0–1, shape in bits 2–3: 0 flat, 1 arch along u, 2 arch along v), its
/// quantised shape words (u and v extents, arch centre relative to the
/// panel's lower edge, arch width), and the absolute lower and upper
/// corners the pair offsets are measured between. For the mirror step of
/// [`PairKey`] it also keeps the arch centre measured from the upper edge
/// — the lower-edge word of its mirror image — and the axis the arch
/// varies along.
///
/// The arch width is quantised too although no translation moves it: the
/// instantiation pass derives it from a difference of absolute
/// coordinates (the crossing gap), whose last bits do move.
#[derive(Debug, Clone, Copy)]
pub struct CanonicalTemplate {
    tag: u64,
    shape: [u64; 4],
    /// The lower and upper corners' x, y and z.
    lower: [f64; 3],
    upper: [f64; 3],
    mirrored_centre: u64,
    /// The index of the axis an arch varies along; 3 when flat.
    arch_axis: usize,
}

impl CanonicalTemplate {
    /// The translation-free form of `t`.
    pub fn of(t: &Template) -> CanonicalTemplate {
        let p = &t.panel;
        let (ua, va) = p.normal().tangents();
        let ((u0, u1), (v0, v1)) = (p.u_range(), p.v_range());
        let (kind, centre, mirrored_centre, width, arch_axis) = match &t.kind {
            TemplateKind::Flat => (0, 0, 0, 0, 3),
            TemplateKind::Arch { dir: ShapeDir::U, shape } => (
                1,
                quantise(shape.center - u0),
                quantise(u1 - shape.center),
                quantise(shape.width),
                ua.index(),
            ),
            TemplateKind::Arch { dir: ShapeDir::V, shape } => (
                2,
                quantise(shape.center - v0),
                quantise(v1 - shape.center),
                quantise(shape.width),
                va.index(),
            ),
        };
        CanonicalTemplate {
            tag: p.normal().index() as u64 | kind << 2,
            shape: [quantise(p.u_len()), quantise(p.v_len()), centre, width],
            lower: xyz(p.point_at(u0, v0)),
            upper: xyz(p.point_at(u1, v1)),
            mirrored_centre,
            arch_axis,
        }
    }

    /// The arch-centre word, measured from the upper edge when `mirrored`
    /// (the word of the template's mirror image along the arch's axis).
    #[inline]
    fn centre(&self, mirrored: bool) -> u64 {
        if mirrored {
            self.mirrored_centre
        } else {
            self.shape[2]
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

/// The symmetry-canonical identity of an ordered template pair (a, b):
/// both templates' normals, shapes, extents and arch parameters, plus b's
/// offset from a's lower corner — every length quantised to a 2⁻⁶⁰ m
/// grid — in one fixed mirror orientation.
///
/// *Translation.* Translating both templates by a multiple of the quantum
/// (with every moved coordinate exact in `f64`) leaves the key unchanged;
/// any other translation can move a word by about one quantum.
///
/// *Reflection.* Mirroring both templates about a plane normal to axis k
/// turns b's lower-corner offset d = b.lower − a.lower into
/// d′ = a.upper − b.upper, and the lower-edge centre c of an arch varying
/// along k into its upper-edge centre c′ = upper − c. The key measures
/// both orientations from the absolute coordinates and keeps, per axis,
/// the one with the larger quantised offset — the one where b's centre
/// lies at or beyond a's, since d − d′ is twice the centre offset. When
/// the two offsets quantise equal, the orientation with the smaller
/// (a, b) arch-centre words wins. Rounding is odd-symmetric, so mirror
/// images — about any plane, exact like the translations above — share
/// one key. Flipping the quantised words instead (d′ = −(d + e_b − e_a),
/// c′ = e − c) would not: the rounding of a difference is not the
/// difference of the roundings, and on a µm bus that splits mirror images
/// whose lengths fall on different sides of a half quantum.
///
/// *Axis permutation* is left to [`PairKey::canonical`], which the basis
/// pair plan applies once per distinct key; the near fields do without.
///
/// The order is part of the identity and is not symmetrised: for
/// perpendicular, shaped and touching pairs, swapping the roles changes
/// which panel carries the outer quadrature, and so the value by more than
/// rounding.
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

    /// The key of the ordered pair (a, b) from their canonical forms —
    /// what a walk over many pairs of the same templates calls.
    #[inline]
    pub fn of(a: &CanonicalTemplate, b: &CanonicalTemplate) -> PairKey {
        let (offset, [ma, mb]) = orient(a, b);
        let (sa, sb) = (a.shape, b.shape);
        PairKey([
            a.tag | b.tag << 8,
            sa[0],
            sa[1],
            a.centre(ma),
            sa[3],
            sb[0],
            sb[1],
            b.centre(mb),
            sb[3],
            offset[0],
            offset[1],
            offset[2],
        ])
    }

    /// The key of the pair's class under the six permutations of the
    /// axes: the least, word by word, of the key's six relabellings (see
    /// `relabelled`). A crossing bus whose layers run along x and y thus
    /// evaluates each x↔y image of a pair once.
    ///
    /// The first word, `tags`, ranks b's tag above a's and a tag's shape
    /// above its normal, so the least relabellings send b's normal to x.
    /// Of those two, one even and one odd, an arch of b keeps or takes
    /// the U shape under exactly one; with b flat, a's arch decides the
    /// same way, and with a flat too, a's new normal. Only a flat pair on
    /// parallel panels ties on `tags`; then the whole words decide.
    pub fn canonical(&self) -> PairKey {
        let (ta, tb) = (self.0[0] & 0xff, self.0[0] >> 8);
        let (na, nb) = ((ta & 3) as usize, (tb & 3) as usize);
        // σ(k) = k − nb and σ(k) = nb − k, both sending b's normal to x.
        let even = [(3 - nb) % 3, (4 - nb) % 3, (5 - nb) % 3];
        let odd = [nb, (nb + 2) % 3, (nb + 1) % 3];
        let words = match (tb >> 2, ta >> 2) {
            (1, _) | (0, 1) => self.relabelled(even),
            (2, _) | (0, 2) => self.relabelled(odd),
            _ if na != nb => self.relabelled(if even[na] < odd[na] { even } else { odd }),
            _ => self.relabelled(even).min(self.relabelled(odd)),
        };
        PairKey(words)
    }

    /// The words with axis k relabelled `to[k]`: b's offsets move to their
    /// new axes and both normals are relabelled; an odd permutation also
    /// swaps each panel's u and v extents and arch direction, as it
    /// reverses every (u, v) frame. No word is recomputed, so this is the
    /// key of an isometric image of the pair: each axis's mirror
    /// orientation depends on that axis's words alone.
    fn relabelled(&self, to: [usize; 3]) -> [u64; PAIR_KEY_WORDS] {
        let w = &self.0;
        let odd = to[1] != (to[0] + 1) % 3;
        let tag = |t: u64| {
            let shape = if odd && t >> 2 > 0 { 3 - (t >> 2) } else { t >> 2 };
            to[(t & 3) as usize] as u64 | shape << 2
        };
        let (u, v) = if odd { (2, 1) } else { (1, 2) };
        let tags = tag(w[0] & 0xff) | tag(w[0] >> 8) << 8;
        let mut key = [tags, w[u], w[v], w[3], w[4], w[u + 4], w[v + 4], w[7], w[8], 0, 0, 0];
        for (k, &offset) in w[9..].iter().enumerate() {
            key[9 + to[k]] = offset;
        }
        key
    }

    /// The raw words, in the order [`From<[u64; PAIR_KEY_WORDS]>`]
    /// consumes them — the serialization seam for cache snapshots.
    #[inline]
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
    pub fn integral(&self, eng: &GalerkinEngine) -> f64 {
        let (a, b) = self.templates();
        a.with_shape(|sa| b.with_shape(|sb| eng.panel_pair(&a.panel, sa, &b.panel, sb)))
    }
}

/// The canonical mirror orientation of the pair (a, b) (see [`PairKey`]):
/// b's offset words along x, y and z, and whether a's and b's arch centres
/// are measured from the upper edge.
#[inline]
fn orient(a: &CanonicalTemplate, b: &CanonicalTemplate) -> ([u64; 3], [bool; 2]) {
    let mut offset = [0; 3];
    let mut mirrored = [false; 2];
    for (k, word_k) in offset.iter_mut().enumerate() {
        let here = quanta(b.lower[k] - a.lower[k]);
        let there = quanta(a.upper[k] - b.upper[k]);
        // Mirroring along k moves only the centres of arches varying along k.
        let turned = [mirrored[0] || a.arch_axis == k, mirrored[1] || b.arch_axis == k];
        let centres = |[ma, mb]: [bool; 2]| (a.centre(ma), b.centre(mb));
        let flip = here < there || here == there && centres(turned) < centres(mirrored);
        *word_k = word(if flip { there } else { here });
        if flip {
            mirrored = turned;
        }
    }
    (offset, mirrored)
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
/// [`PairKey`], so every translated or mirrored copy of the pair gets the
/// same bits.
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
    use crate::analytic;

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
    fn quantise_rounds_ties_to_even_and_is_odd_symmetric() {
        let quantum = 1.0 / QUANTA_PER_METER;
        for quanta in [0.0, 0.3, 0.5, 1.5, 2.5, 7.49, 1e6 + 0.5, 4.2e15, 9.1e15, 3.0e18] {
            let len = quanta * quantum;
            let want = (len * QUANTA_PER_METER).round_ties_even();
            assert_eq!(f64::from_bits(quantise(len)), want, "{quanta} quanta");
            assert_eq!(f64::from_bits(quantise(-len)), -want + 0.0, "-{quanta} quanta");
        }
        assert_eq!(quantise(-0.0), quantise(0.0));
        assert_eq!(quantise(1.2e-6), quantise(1.2e-6 + 0.1 * quantum));
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

    /// `t` mirrored about the plane normal to `axis` at coordinate
    /// `plane` (arch centres mirror with their panel; the arch direction
    /// stays).
    fn mirrored(t: &Template, axis: Axis, plane: f64) -> Template {
        let p = &t.panel;
        let flip = |r: (f64, f64)| (2.0 * plane - r.1, 2.0 * plane - r.0);
        let (ua, va) = p.normal().tangents();
        let (mut w, mut u, mut v) = (p.w(), p.u_range(), p.v_range());
        match axis {
            a if a == p.normal() => w = 2.0 * plane - w,
            a if a == ua => u = flip(u),
            _ => v = flip(v),
        }
        let panel = Panel::new(p.normal(), w, u, v).unwrap();
        match t.kind {
            TemplateKind::Flat => Template::flat(panel),
            TemplateKind::Arch { dir, shape } => {
                let along = if dir == ShapeDir::U { ua } else { va };
                let center = if along == axis { 2.0 * plane - shape.center } else { shape.center };
                Template::arch(panel, dir, ArchShape { center, ..shape })
            }
        }
    }

    #[test]
    fn pair_keys_ignore_mirroring_about_every_axis() {
        let eng = GalerkinEngine::default();
        let shape = ArchShape { center: 0.375, width: 0.3 };
        let on = |normal: Axis, w: f64, u0: f64, v0: f64, eu: f64| {
            Panel::new(normal, w, (u0, u0 + eu), (v0, v0 + 0.5)).unwrap()
        };
        let kinds = |p: Panel| {
            let (u0, v0) = (p.u_range().0, p.v_range().0);
            [
                Template::flat(p),
                Template::arch(p, ShapeDir::U, ArchShape { center: u0 + shape.center, ..shape }),
                Template::arch(p, ShapeDir::V, ArchShape { center: v0 + shape.center, ..shape }),
            ]
        };
        // b sits off a's centre along z and x but level with it along y
        // (both span y ∈ [0.25, 0.75]): y is a zero-offset tie axis, where
        // only the arch-centre words decide the orientation.
        let a_panel = on(Axis::Z, 0.0, 0.0, 0.25, 1.0);
        let b_panels = [on(Axis::Z, 0.75, 1.25, 0.25, 0.75), on(Axis::X, 2.5, 0.25, -1.0, 1.5)];
        for a in kinds(a_panel) {
            for b in b_panels.iter().flat_map(|&p| kinds(p)) {
                let key = PairKey::new(&a, &b);
                let value = pair_integral(&eng, &a, &b);
                assert_ne!(key, PairKey::new(&b, &a), "roles stay part of the identity");
                for axis in Axis::ALL {
                    let (ma, mb) = (mirrored(&a, axis, 0.625), mirrored(&b, axis, 0.625));
                    assert_eq!(key, PairKey::new(&ma, &mb), "{a:?}, {b:?} along {axis:?}");
                    let moved = pair_integral(&eng, &ma, &mb);
                    assert!((moved - value).abs() <= 1e-12 * value, "{value} vs {moved}");
                }
            }
        }
    }

    #[test]
    fn canonical_is_the_least_of_the_six_relabellings() {
        let permutations = [[0, 1, 2], [1, 2, 0], [2, 0, 1], [1, 0, 2], [0, 2, 1], [2, 1, 0]];
        let shape = ArchShape { center: 0.375, width: 0.3 };
        let templates = |normal: usize, at: f64| {
            let p = Panel::new(Axis::from_index(normal), at, (at, at + 1.0), (0.25, 0.75)).unwrap();
            let arch = |lo: f64| ArchShape { center: lo + shape.center, ..shape };
            [
                Template::flat(p),
                Template::arch(p, ShapeDir::U, arch(at)),
                Template::arch(p, ShapeDir::V, arch(0.25)),
            ]
        };
        let all: Vec<Template> =
            (0..3).flat_map(|n| [0.0, 0.5, 1.25].map(|at| templates(n, at))).flatten().collect();
        for a in &all {
            for b in &all {
                let key = PairKey::new(a, b);
                let least = permutations.map(|to| key.relabelled(to)).into_iter().min();
                assert_eq!(Some(key.canonical().words()), least, "{a:?}, {b:?}");
                for to in permutations {
                    assert_eq!(PairKey(key.relabelled(to)).canonical(), key.canonical());
                }
            }
        }
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
