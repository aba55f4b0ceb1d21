//! Translation, mirror and axis-permutation invariance of the pair
//! integrals: a pair's value depends on its shapes and relative position
//! only, up to mirroring about a plane normal to an axis and relabelling
//! the axes, so translated structures reuse each other's cached integrals
//! and extract to the same matrix, mirror images of a pair share one key,
//! and axis-permuted images share one canonical key.

use std::sync::Arc;

use bemcap_basis::arch::ArchShape;
use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::{
    pair_integral, BasisFunction, BasisSet, PairKey, PairPlan, Template, TemplateIndex,
    TemplateKind,
};
use bemcap_core::assembly::assemble_phi;
use bemcap_core::batch::{BatchExtractor, BatchJob, BatchPoint};
use bemcap_core::solver::solve_capacitance;
use bemcap_core::{Extractor, TemplateCache};
use bemcap_geom::structures::{self, BusParams};
use bemcap_geom::{Axis, Box3, Conductor, Geometry, Panel, Point3};
use bemcap_linalg::Matrix;
use bemcap_quad::galerkin::{GalerkinEngine, ShapeDir};
use proptest::prelude::*;

/// A template with lower corner `corner`, in-plane extents `(eu, ev)` and
/// `kind` 0 (flat), 1 (arch along u) or 2 (arch along v).
fn template(normal: usize, kind: usize, corner: Point3, eu: f64, ev: f64) -> Template {
    let normal = Axis::from_index(normal);
    let (ua, va) = normal.tangents();
    let (u0, v0) = (corner.component(ua), corner.component(va));
    let panel =
        Panel::new(normal, corner.component(normal), (u0, u0 + eu), (v0, v0 + ev)).expect("panel");
    let arch = |lo: f64, len: f64| ArchShape { center: lo + 0.375 * len, width: 0.3e-6 };
    match kind {
        0 => Template::flat(panel),
        1 => Template::arch(panel, ShapeDir::U, arch(u0, eu)),
        _ => Template::arch(panel, ShapeDir::V, arch(v0, ev)),
    }
}

/// `t` mirrored about the plane normal to `axis` at coordinate `plane`
/// (an arch centre mirrors with its panel; the arch direction stays).
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
    let panel = Panel::new(p.normal(), w, u, v).expect("panel");
    match t.kind {
        TemplateKind::Flat => Template::flat(panel),
        TemplateKind::Arch { dir, shape } => {
            let along = if dir == ShapeDir::U { ua } else { va };
            let center = if along == axis { 2.0 * plane - shape.center } else { shape.center };
            Template::arch(panel, dir, ArchShape { center, ..shape })
        }
    }
}

/// The centre of `t`'s support along `axis`.
fn centre(t: &Template, axis: Axis) -> f64 {
    let p = &t.panel;
    let range = match axis {
        a if a == p.normal() => return p.w(),
        a if a == p.normal().tangents().0 => p.u_range(),
        _ => p.v_range(),
    };
    0.5 * (range.0 + range.1)
}

/// The six permutations of the axes, each as the new indices of x, y and z.
const PERMUTATIONS: [[usize; 3]; 6] =
    [[0, 1, 2], [1, 2, 0], [2, 0, 1], [1, 0, 2], [0, 2, 1], [2, 1, 0]];

/// `t` with its axes relabelled, axis k becoming axis `to[k]` (an arch
/// keeps its centre and varies along the image of its axis).
fn permuted(t: &Template, to: [usize; 3]) -> Template {
    let p = &t.panel;
    let (ua, va) = p.normal().tangents();
    let mut range = [(0.0, 0.0); 3];
    range[to[p.normal().index()]] = (p.w(), p.w());
    range[to[ua.index()]] = p.u_range();
    range[to[va.index()]] = p.v_range();
    let normal = Axis::from_index(to[p.normal().index()]);
    let (nu, nv) = normal.tangents();
    let panel =
        Panel::new(normal, range[normal.index()].0, range[nu.index()], range[nv.index()]).unwrap();
    match t.kind {
        TemplateKind::Flat => Template::flat(panel),
        TemplateKind::Arch { dir, shape } => {
            let along = if dir == ShapeDir::U { ua } else { va };
            let dir = if to[along.index()] == nu.index() { ShapeDir::U } else { ShapeDir::V };
            Template::arch(panel, dir, shape)
        }
    }
}

/// Nanometre-lattice coordinates on the 2⁻³⁰ m grid: sums with shifts on
/// the 2⁻⁶⁰ m quantum grid stay exact in `f64`.
fn lattice(units: i64) -> f64 {
    units as f64 * (-30f64).exp2()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An arbitrary translation of both templates moves the integral by
    /// rounding only.
    #[test]
    fn translating_both_templates_keeps_the_integral(
        na in 0usize..3, ka in 0usize..3, nb in 0usize..3, kb in 0usize..3,
        ax in -2.0..2.0f64, ay in -2.0..2.0f64, az in -2.0..2.0f64,
        bx in -2.0..2.0f64, by in -2.0..2.0f64, bz in -2.0..2.0f64,
        eu in 0.3..2.0f64, ev in 0.3..2.0f64,
        tx in -40.0..40.0f64, ty in -40.0..40.0f64, tz in -40.0..40.0f64,
    ) {
        let eng = GalerkinEngine::default();
        let um = |x: f64, y: f64, z: f64| Point3::new(x * 1e-6, y * 1e-6, z * 1e-6);
        let (a0, b0, t) = (um(ax, ay, az), um(bx, by, bz), um(tx, ty, tz));
        let pair = |shift: Point3| {
            let a = template(na, ka, a0 + shift, eu * 1e-6, ev * 1e-6);
            let b = template(nb, kb, b0 + shift, ev * 1e-6, eu * 1e-6);
            pair_integral(&eng, &a, &b)
        };
        let (here, moved) = (pair(Point3::ZERO), pair(t));
        prop_assert!(here.is_finite() && here > 0.0, "{here}");
        prop_assert!((moved - here).abs() <= 1e-12 * here, "{here} moved to {moved}");
    }

    /// A translation by a multiple of the quantum that keeps every
    /// coordinate exact leaves the key — hence the value — unchanged.
    #[test]
    fn quantum_multiple_shifts_keep_the_key(
        na in 0usize..3, ka in 0usize..3, nb in 0usize..3, kb in 0usize..3,
        ax in -2000i64..2000, ay in -2000i64..2000, az in -2000i64..2000,
        bx in -2000i64..2000, by in -2000i64..2000, bz in -2000i64..2000,
        eu in 300i64..2000, ev in 300i64..2000,
        tx in -(1i64 << 42)..(1i64 << 42), ty in -(1i64 << 42)..(1i64 << 42),
        tz in -(1i64 << 42)..(1i64 << 42),
    ) {
        let quantum = (-60f64).exp2();
        let t = Point3::new(tx as f64 * quantum, ty as f64 * quantum, tz as f64 * quantum);
        let corner = |x, y, z| Point3::new(lattice(x), lattice(y), lattice(z));
        let (a0, b0) = (corner(ax, ay, az), corner(bx, by, bz));
        let key = |shift: Point3| {
            let a = template(na, ka, a0 + shift, lattice(eu), lattice(ev));
            let b = template(nb, kb, b0 + shift, lattice(ev), lattice(eu));
            PairKey::new(&a, &b)
        };
        prop_assert_eq!(key(Point3::ZERO), key(t));
    }

    /// Mirroring both templates about a plane normal to any axis keeps the
    /// key — hence the value. With `tie` < 3, b's centre is moved level
    /// with a's along that axis, where only the arch-centre words decide
    /// the key's orientation.
    #[test]
    fn mirroring_both_templates_keeps_the_key(
        na in 0usize..3, ka in 0usize..3, nb in 0usize..3, kb in 0usize..3,
        ax in -2000i64..2000, ay in -2000i64..2000, az in -2000i64..2000,
        bx in -2000i64..2000, by in -2000i64..2000, bz in -2000i64..2000,
        eu in 300i64..2000, ev in 300i64..2000,
        normal in 0usize..3, plane in -4000i64..4000, tie in 0usize..4,
    ) {
        let eng = GalerkinEngine::default();
        let corner = |x, y, z| Point3::new(lattice(x), lattice(y), lattice(z));
        let a = template(na, ka, corner(ax, ay, az), lattice(eu), lattice(ev));
        let b_at = |b0: Point3| template(nb, kb, b0, lattice(ev), lattice(eu));
        let mut b0 = corner(bx, by, bz);
        if tie < 3 {
            let axis = Axis::from_index(tie);
            let level = centre(&a, axis) - centre(&b_at(b0), axis);
            b0 = b0.with_component(axis, b0.component(axis) + level);
        }
        let b = b_at(b0);
        let (axis, plane) = (Axis::from_index(normal), lattice(plane));
        let (ma, mb) = (mirrored(&a, axis, plane), mirrored(&b, axis, plane));
        prop_assert_eq!(PairKey::new(&a, &b), PairKey::new(&ma, &mb));
        let (here, moved) = (pair_integral(&eng, &a, &b), pair_integral(&eng, &ma, &mb));
        prop_assert!(here.is_finite() && here > 0.0, "{here}");
        prop_assert!((moved - here).abs() <= 1e-12 * here, "{here} moved to {moved}");
    }

    /// Relabelling the axes of both templates, then mirroring and
    /// translating them on the lattice, keeps the pair's canonical key,
    /// and the canonical key evaluates to the pair's integral: every
    /// axis-permuted image of a pair shares one value.
    #[test]
    fn permuting_the_axes_keeps_the_canonical_key(
        na in 0usize..3, ka in 0usize..3, nb in 0usize..3, kb in 0usize..3,
        ax in -2000i64..2000, ay in -2000i64..2000, az in -2000i64..2000,
        bx in -2000i64..2000, by in -2000i64..2000, bz in -2000i64..2000,
        eu in 300i64..2000, ev in 300i64..2000,
        perm in 0usize..6, normal in 0usize..3, plane in -4000i64..4000,
        tx in -4000i64..4000, ty in -4000i64..4000, tz in -4000i64..4000,
    ) {
        let eng = GalerkinEngine::default();
        let corner = |x, y, z| Point3::new(lattice(x), lattice(y), lattice(z));
        let pair = |shift: Point3| {
            let a = template(na, ka, corner(ax, ay, az) + shift, lattice(eu), lattice(ev));
            (a, template(nb, kb, corner(bx, by, bz) + shift, lattice(ev), lattice(eu)))
        };
        let ((a, b), (sa, sb)) = (pair(Point3::ZERO), pair(corner(tx, ty, tz)));
        let (axis, plane) = (Axis::from_index(normal), lattice(plane));
        let image = |t: &Template| mirrored(&permuted(t, PERMUTATIONS[perm]), axis, plane);
        let (ia, ib) = (image(&sa), image(&sb));
        let key = PairKey::new(&a, &b).canonical();
        prop_assert_eq!(key, PairKey::new(&ia, &ib).canonical());
        let (here, moved) = (pair_integral(&eng, &a, &b), pair_integral(&eng, &ia, &ib));
        let canonical = key.integral(&eng);
        prop_assert!(here.is_finite() && here > 0.0, "{here}");
        for value in [moved, canonical] {
            prop_assert!((value - here).abs() <= 1e-9 * here, "{here} vs {value}");
        }
    }
}

/// Extracts `first`, then `second`, through one shared cache; checks that
/// the second evaluates nothing (every key a hit on the first's entries)
/// and returns both capacitance matrices.
fn second_is_all_cache_hits(first: Geometry, second: Geometry) -> (Matrix, Matrix) {
    let cache = Arc::new(TemplateCache::unbounded());
    let batch = BatchExtractor::new(Extractor::new()).workers(1).shared_cache(Arc::clone(&cache));
    let run = |geo| {
        let result = batch.extract_all(&[BatchJob::new("bus", geo)]).expect("extraction");
        result.points()[0].clone()
    };
    let first = run(first);
    assert!(first.job.cache.misses > 0 && first.job.cache.hits == 0, "{:?}", first.job.cache);
    let second = run(second);
    assert_eq!(second.job.cache.misses, 0, "{:?}", second.job.cache);
    assert_eq!(second.job.cache.hits, first.job.cache.misses);
    let c = |p: &BatchPoint| p.extraction.capacitance().matrix().clone();
    (c(&first), c(&second))
}

/// Bus 3×3, then the same bus moved by (0.37, −1.21, 0.05) µm, through
/// one shared cache: every pair of the moved bus is a translated repeat,
/// so its extraction evaluates nothing and reproduces the first.
#[test]
fn a_translated_bus_is_all_cache_hits() {
    let bus = structures::bus_crossing(3, 3, BusParams::default());
    let moved = structures::translated(&bus, Point3::new(0.37e-6, -1.21e-6, 0.05e-6));
    let (a, b) = second_is_all_cache_hits(bus, moved);
    let scale = a.max_abs();
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!((x - y).abs() <= 1e-12 * scale, "{x} vs {y}");
    }
}

/// Bus 3×2's basis, then the same basis with x and y swapped, template
/// for template in the same order, assembled through one shared cache:
/// every pair of the swapped basis is an axis-permuted image of a pair of
/// the first, so its plan evaluates nothing and reproduces the first's C.
///
/// The basis is swapped rather than the geometry: `instantiate` orders a
/// box's faces by axis, so the swapped geometry's templates come in
/// another order, and on bus 3×2 the walk then visits a few same-box
/// x/y face pairs with their roles reversed, whose keys are their own.
#[test]
fn a_rotated_bus_is_all_cache_hits() {
    let bus = structures::bus_crossing(3, 2, BusParams::default());
    let set = instantiate(&bus, &InstantiateConfig::default()).expect("basis");
    let swap = |f: &BasisFunction| {
        let templates = f.templates.iter().map(|t| permuted(t, [1, 0, 2])).collect();
        BasisFunction::new(f.conductor, templates)
    };
    let swapped = BasisSet::new(set.functions().iter().map(swap).collect());
    let (eng, cache) = (GalerkinEngine::default(), TemplateCache::unbounded());
    let extract = |set: &BasisSet| {
        let index = TemplateIndex::new(set);
        let plan = PairPlan::new(&index);
        let mut misses = 0;
        let values = plan.values(&eng, 0..plan.distinct(), |key, eval| {
            let (value, stats) = cache.get_or_compute(*key, eval);
            misses += stats.misses;
            value
        });
        let phi = assemble_phi(&eng, set, bus.conductor_count());
        let (c, _) = solve_capacitance(plan.accumulate(&values, 1.0), &phi).expect("solve");
        (c, misses)
    };
    let (first, misses) = extract(&set);
    assert!(misses > 0);
    let (second, misses) = extract(&swapped);
    assert_eq!(misses, 0, "the swapped basis evaluated {misses} pairs");
    let scale = first.max_abs();
    for (x, y) in first.as_slice().iter().zip(second.as_slice()) {
        assert!((x - y).abs() <= 1e-12 * scale, "{x} vs {y}");
    }
}

/// Bus 8×8, then the same *geometry* with x and y swapped, through one
/// shared cache: `instantiate` emits the swapped bus in its own geometric
/// order, and every pair its walk meets is an axis-permuted image of a
/// pair whose key the first walk cached, so its extraction evaluates
/// nothing and equals a cold extraction of the swapped bus to the bit.
///
/// The walk meets 64 of the swapped bus's pairs with their roles
/// reversed; on bus 8×8 each reversed key is also a key of the first walk,
/// so it hits, and C moves from the first by the role asymmetry of the
/// shaped-pair quadrature alone (≈7·10⁻⁵ of max|C|).
#[test]
fn a_rotated_geometry_is_all_cache_hits() {
    let bus = structures::bus_crossing(8, 8, BusParams::default());
    let swap = |p: Point3| Point3::new(p.y, p.x, p.z);
    let conductors = bus.conductors().iter().map(|c| {
        let boxes = c.boxes().iter().map(|b| Box3::new(swap(b.min()), swap(b.max())).unwrap());
        boxes.fold(Conductor::new(c.name()), Conductor::with_box)
    });
    let rotated = Geometry::new(conductors.collect()).with_eps_rel(bus.eps_rel());
    let cold = Extractor::new().extract(&rotated).expect("extraction");
    let (a, b) = second_is_all_cache_hits(bus, rotated);
    assert_eq!(&b, cold.capacitance().matrix());
    let scale = a.max_abs();
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!((x - y).abs() <= 1e-4 * scale, "{x} vs {y}");
    }
}
