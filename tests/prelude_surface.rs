//! Integration coverage of the `bemcap::prelude` surface: everything here
//! goes through the facade's glob import, the way an application would,
//! and runs [`Extractor`] with every [`Method`] variant on one small
//! geometry.

use bemcap::prelude::*;

/// All five solver backends, with the report name each produces on the
/// elementary crossing-wire problem (`Auto` resolves to the dense
/// reference at this size — the report names what actually ran).
const METHODS: [(Method, &str); 5] = [
    (Method::InstantiableBasis, "instantiable"),
    (Method::PwcDense, "pwc-dense"),
    (Method::PwcFmm, "pwc-fmm"),
    (Method::PwcPfft, "pwc-pfft"),
    (Method::Auto, "pwc-dense"),
];

#[test]
fn every_method_variant_extracts_the_crossing_pair() {
    let geo = structures::crossing_wires(structures::CrossingParams::default());
    let dense_coupling = {
        let out = Extractor::new().method(Method::PwcDense).extract(&geo).expect("dense");
        -out.capacitance().get(0, 1)
    };
    assert!(dense_coupling > 0.0);

    for (method, name) in METHODS {
        let extraction: Extraction = Extractor::new()
            .method(method)
            .mesh_divisions(8)
            .extract(&geo)
            .unwrap_or_else(|e| panic!("{name}: {e}"));

        let c: &CapacitanceMatrix = extraction.capacitance();
        assert_eq!(c.dim(), geo.conductor_count(), "{name}: one row per conductor");
        for i in 0..c.dim() {
            assert!(c.get(i, i) > 0.0, "{name}: self capacitance ({i},{i})");
            for j in 0..c.dim() {
                if i != j {
                    assert!(c.get(i, j) < 0.0, "{name}: coupling ({i},{j})");
                }
            }
        }

        // Same physics across backends: couplings agree with the dense
        // reference (loose band — the instantiable basis is a different
        // discretization philosophy, cf. tests/solver_cross_validation.rs).
        let coupling = -c.get(0, 1);
        assert!(
            (coupling - dense_coupling).abs() / dense_coupling < 0.3,
            "{name}: coupling {coupling} vs dense {dense_coupling}"
        );

        // The report is part of the prelude-visible Extraction API, and
        // names the backend that actually ran.
        let r = extraction.report();
        assert_eq!(r.method, name, "{method:?}: report method name");
        assert!(r.setup_seconds >= 0.0 && r.solve_seconds >= 0.0, "{name}: timings");
        assert!(r.n > 0, "{name}: system dimension");
        assert!(r.workers >= 1, "{name}: worker count");
    }
}

#[test]
fn typed_backend_configs_compose_through_the_prelude() {
    // The whole typed-config surface is reachable from one glob import.
    let geo = structures::crossing_wires(structures::CrossingParams::default());
    let extraction = Extractor::new()
        .method(Method::PwcFmm)
        .mesh_divisions(5)
        .fmm_config(FmmConfig { theta: 0.4, leaf_size: 10 })
        .pfft_config(PfftConfig::default())
        .krylov_config(KrylovConfig { tol: 1e-7, restart: 30, max_iters: 500 })
        .auto_memory_budget(128 << 20)
        .extract(&geo)
        .expect("typed-config extraction");
    let report: &ExtractionReport = extraction.report();
    let stats: KrylovStats = report.krylov.expect("iterative backend reports solver stats");
    assert!(stats.matvecs > 0);
    assert!(stats.residual < 1e-7);
}

#[test]
fn prelude_geometry_types_compose() {
    // Build a geometry by hand from the prelude's types rather than a
    // generator: two unit plates face to face.
    let lower = Conductor::new("lower").with_box(
        Box3::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1e-6, 1e-6, 0.1e-6)).expect("box"),
    );
    let upper = Conductor::new("upper").with_box(
        Box3::new(Point3::new(0.0, 0.0, 0.3e-6), Point3::new(1e-6, 1e-6, 0.4e-6)).expect("box"),
    );
    let geo = Geometry::new(vec![lower, upper]);
    assert_eq!(geo.conductor_count(), 2);

    let mesh = Mesh::uniform(&geo, 6);
    assert!(mesh.panel_count() > 0);

    let out = Extractor::new().method(Method::PwcDense).mesh_divisions(6).extract(&geo);
    let out = out.expect("hand-built geometry extracts");
    assert!(out.capacitance().get(0, 1) < 0.0);
}

#[test]
fn panel_type_is_usable_through_the_prelude() {
    // `Panel` is exported for users who drive the quadrature layer
    // directly; construct one and sanity-check its area.
    let p = Panel::new(bemcap::geom::Axis::Z, 0.0, (0.0, 2.0), (0.0, 3.0)).expect("panel");
    assert!((p.area() - 6.0).abs() < 1e-12);
}
