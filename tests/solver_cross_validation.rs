//! Cross-solver validation: four independent solver stacks (instantiable
//! basis, dense PWC, multipole, precorrected FFT) must agree on the same
//! physics.

use bemcap_core::solver::DensePwcSolver;
use bemcap_core::{BatchExtractor, Extractor, Method};
use bemcap_fmm::FmmSolver;
use bemcap_geom::structures::{self, CrossingParams};
use bemcap_geom::{Geometry, Mesh, EPS0};
use bemcap_linalg::DiagonalPrecond;
use bemcap_pfft::{PfftConfig, PfftOperator};

#[test]
fn four_solvers_agree_on_crossing_wires() {
    let geo = structures::crossing_wires(CrossingParams::default());
    let mesh = Mesh::uniform(&geo, 8);

    let dense = DensePwcSolver.solve(&geo, &mesh).expect("dense");
    let fmm = FmmSolver::default().solve(&geo, &mesh).expect("fmm").capacitance;
    let op = PfftOperator::new(&mesh, geo.eps_rel(), PfftConfig::default()).expect("pfft operator");
    let pre = DiagonalPrecond::new(op.inv_diag().to_vec());
    let (pfft, _) =
        bemcap_pfft::solve_prepared(&op, &mesh, geo.conductor_count(), &pre, &Default::default())
            .expect("pfft");
    let inst = Extractor::new()
        .method(Method::InstantiableBasis)
        .extract(&geo)
        .expect("instantiable")
        .capacitance()
        .matrix()
        .clone();

    // Accelerated solvers vs the dense exact discretization: tight.
    for (name, c) in [("fmm", &fmm), ("pfft", &pfft)] {
        for i in 0..2 {
            for j in 0..2 {
                let a = dense.get(i, j);
                let b = c.get(i, j);
                assert!((a - b).abs() < 3e-2 * a.abs(), "{name} ({i},{j}): {b} vs dense {a}");
            }
        }
    }
    // The compact instantiable basis vs the same-physics reference:
    // looser (different discretization philosophy), but the coupling term
    // must be in the same few-percent-to-tens-of-percent band the paper
    // reports for coarse template sets.
    let ci = -inst.get(0, 1);
    let cd = -dense.get(0, 1);
    assert!((ci - cd).abs() / cd < 0.3, "instantiable coupling {ci} vs dense {cd}");
}

#[test]
fn capacitance_matrix_properties_hold_everywhere() {
    // Physical invariants: symmetric, positive diagonal, negative
    // off-diagonal, diagonally dominant (sum of each row ≥ 0 for a
    // complete system grounded at infinity).
    let geo = structures::bus_crossing(3, 3, structures::BusParams::default());
    let out = Extractor::new().extract(&geo).expect("extraction");
    let c = out.capacitance();
    let n = c.dim();
    assert_eq!(n, 6);
    for i in 0..n {
        assert!(c.get(i, i) > 0.0, "diagonal {i}");
        let mut row_sum = 0.0;
        for j in 0..n {
            if i != j {
                assert!(c.get(i, j) < 0.0, "off-diagonal ({i},{j}) = {}", c.get(i, j));
            }
            row_sum += c.get(i, j);
        }
        assert!(row_sum > 0.0, "row {i} sum {row_sum} (capacitance to infinity)");
    }
    assert!(c.asymmetry() < 1e-6);
}

#[test]
fn parallel_plate_scaling_laws() {
    // C grows ~linearly with area and ~inversely with gap; check both
    // trends with the instantiable solver.
    let c_of = |w: f64, gap: f64| {
        let geo = structures::parallel_plates(w, w, gap);
        let out = Extractor::new().method(Method::PwcDense).mesh_divisions(8).extract(&geo);
        -out.expect("extraction").capacitance().get(0, 1)
    };
    let base = c_of(1.0e-6, 0.2e-6);
    let wide = c_of(2.0e-6, 0.2e-6); // 4x area
    let tight = c_of(1.0e-6, 0.1e-6); // half gap
    assert!(wide > 2.5 * base, "area scaling: {wide} vs {base}");
    assert!(tight > 1.5 * base, "gap scaling: {tight} vs {base}");
    // And the ideal-plate floor.
    assert!(base > EPS0 * 1.0e-12 / 0.2e-6);
}

/// The h-family used by the batch-vs-single cross-validations.
fn crossing_family(hs: &[f64]) -> Vec<Geometry> {
    hs.iter()
        .map(|&h| {
            structures::crossing_wires(CrossingParams { separation: h, ..Default::default() })
        })
        .collect()
}

#[test]
fn batch_is_bit_identical_to_single_for_direct_solvers() {
    // The batch engine re-states the sequential assembly loop (shared
    // engine, optional cache): for the direct-solve paths the result must
    // be the *same bits* as one-at-a-time extraction, at any pool size,
    // cache on or off.
    let hs = [0.4e-6, 0.7e-6, 1.0e-6];
    let geos = crossing_family(&hs);
    // `Auto` resolves to the dense direct solver at this size, so it
    // belongs in the bit-identity class.
    for method in [Method::InstantiableBasis, Method::PwcDense, Method::Auto] {
        let ex = Extractor::new().method(method).mesh_divisions(6);
        let singles: Vec<_> =
            geos.iter().map(|g| ex.extract(g).expect("single extraction")).collect();
        for workers in [1, 3] {
            for cache in [false, true] {
                let result = BatchExtractor::new(ex.clone())
                    .workers(workers)
                    .cache(cache)
                    .extract_geometries(geos.clone())
                    .expect("batch extraction");
                for (single, point) in singles.iter().zip(result.points()) {
                    assert_eq!(
                        single.capacitance().matrix().as_slice(),
                        point.extraction.capacitance().matrix().as_slice(),
                        "{method:?} workers={workers} cache={cache} job {}",
                        point.job.index,
                    );
                }
            }
        }
    }
}

#[test]
fn batch_is_tolerance_bounded_for_iterative_solvers() {
    // FMM and pFFT go through Krylov solves; batch runs them through the
    // unchanged one-at-a-time path, so agreement should still be far
    // inside the solver tolerance — but the contract we pin is the
    // tolerance bound, not bit-identity.
    let hs = [0.5e-6, 0.9e-6];
    let geos = crossing_family(&hs);
    for method in [Method::PwcFmm, Method::PwcPfft] {
        let ex = Extractor::new().method(method).mesh_divisions(6);
        let singles: Vec<_> =
            geos.iter().map(|g| ex.extract(g).expect("single extraction")).collect();
        let result = BatchExtractor::new(ex.clone())
            .workers(2)
            .extract_geometries(geos.clone())
            .expect("batch extraction");
        for (single, point) in singles.iter().zip(result.points()) {
            let a = single.capacitance();
            let b = point.extraction.capacitance();
            let scale = a.matrix().max_abs();
            for i in 0..a.dim() {
                for j in 0..a.dim() {
                    assert!(
                        (a.get(i, j) - b.get(i, j)).abs() < 1e-6 * scale,
                        "{method:?} job {} entry ({i},{j}): {} vs {}",
                        point.job.index,
                        a.get(i, j),
                        b.get(i, j),
                    );
                }
            }
        }
    }
}

#[test]
fn krylov_caps_steer_the_unified_path() {
    // The typed iterative config is honored end to end: a looser
    // tolerance stops earlier (fewer iterations, larger residual bound),
    // and both runs stay inside their own reported residual.
    use bemcap_core::KrylovConfig;
    let geo = structures::crossing_wires(CrossingParams::default());
    for method in [Method::PwcFmm, Method::PwcPfft] {
        let run = |tol: f64| {
            Extractor::new()
                .method(method)
                .mesh_divisions(6)
                .krylov_config(KrylovConfig { tol, ..Default::default() })
                .extract(&geo)
                .expect("extraction")
        };
        let loose = run(1e-3);
        let tight = run(1e-9);
        let (ls, ts) =
            (loose.report().krylov.expect("stats"), tight.report().krylov.expect("stats"));
        assert!(
            ls.matvecs < ts.matvecs,
            "{method:?}: loose {} vs tight {}",
            ls.matvecs,
            ts.matvecs
        );
        assert!(ls.residual < 1e-3 && ts.residual < 1e-9, "{method:?}: {ls:?} {ts:?}");
        // Same physics either way, inside the loose tolerance band.
        let scale = tight.capacitance().matrix().max_abs();
        for i in 0..2 {
            for j in 0..2 {
                let d = (loose.capacitance().get(i, j) - tight.capacitance().get(i, j)).abs();
                assert!(d < 1e-2 * scale, "{method:?} ({i},{j})");
            }
        }
    }
}

#[test]
fn eps_rel_scales_capacitance_linearly() {
    let geo = structures::crossing_wires(CrossingParams::default());
    let geo_hi = geo.clone().with_eps_rel(3.9);
    let c1 = Extractor::new().extract(&geo).expect("eps 1").capacitance().get(0, 0);
    let c39 = Extractor::new().extract(&geo_hi).expect("eps 3.9").capacitance().get(0, 0);
    assert!((c39 / c1 - 3.9).abs() < 1e-6, "ratio {}", c39 / c1);
}
