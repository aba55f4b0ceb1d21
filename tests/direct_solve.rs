//! The dense arm's direct solve: blocked Cholesky on P, and LU on the
//! restored P when a conductor's spelling makes P singular.
//!
//! A conductor spelled as two abutting boxes, or as two boxes that overlap
//! by a whole number of panels, keeps the faces inside the union, so P
//! has coincident panels and is singular to working precision: Cholesky
//! refuses it. Those spellings must still extract, with C bit-identical to
//! the LU solve of the same P and one count on
//! `bemcap_direct_not_spd_total` each. The one-box spelling, and an
//! overlap whose panels do not coincide, stay on Cholesky within
//! round-off of LU. A two-net short extracts too.

use std::sync::Mutex;

use bemcap_core::metrics::metrics;
use bemcap_core::solver::{solve_capacitance, DensePwcSolver};
use bemcap_core::{Extractor, Method};
use bemcap_geom::{Box3, Conductor, Geometry, Mesh};
use bemcap_linalg::Matrix;

/// Panel edge 0.25 µm: the longest face edge is 2 µm.
const DIVISIONS: usize = 8;
const UM: f64 = 1e-6;

/// The not-SPD counter is process-global; tests that extract hold this
/// so a concurrent fallback cannot move another test's delta.
static COUNTER: Mutex<()> = Mutex::new(());

fn wire(x: (f64, f64), y: (f64, f64)) -> Box3 {
    Box3::from_bounds((x.0 * UM, x.1 * UM), (y.0 * UM, y.1 * UM), (0.0, 0.5 * UM)).unwrap()
}

/// Conductor `a` spelled by `boxes` next to a one-box neighbour `b`.
fn pair(boxes: &[Box3]) -> Geometry {
    let a = boxes.iter().fold(Conductor::new("a"), |c, &bx| c.with_box(bx));
    let b = Conductor::new("b").with_box(wire((0.0, 2.0), (1.0, 1.5)));
    Geometry::new(vec![a, b])
}

fn one_box() -> Geometry {
    pair(&[wire((0.0, 2.0), (0.0, 0.5))])
}

fn abutting() -> Geometry {
    pair(&[wire((0.0, 1.0), (0.0, 0.5)), wire((1.0, 2.0), (0.0, 0.5))])
}

/// Both boxes are 1.5 µm long, so their panels coincide on the 1 µm they
/// share.
fn overlapping() -> Geometry {
    pair(&[wire((0.0, 1.5), (0.0, 0.5)), wire((0.5, 2.0), (0.0, 0.5))])
}

/// Both boxes are 1.4 µm long, six panels of 0.233 µm each: the shared
/// span's panels are offset, and P stays positive definite.
fn offset_overlap() -> Geometry {
    pair(&[wire((0.0, 1.4), (0.0, 0.5)), wire((0.6, 2.0), (0.0, 0.5))])
}

/// Two nets whose boxes overlap: an electrical short.
fn short() -> Geometry {
    let a = Conductor::new("a").with_box(wire((0.0, 1.2), (0.0, 0.5)));
    let b = Conductor::new("b").with_box(wire((0.8, 2.0), (0.2, 0.7)));
    Geometry::new(vec![a, b])
}

/// C from `Method::PwcDense` and the not-SPD counter's movement.
fn extract_dense(geo: &Geometry) -> (Matrix, u64) {
    let before = metrics().direct_not_spd.get();
    let extraction =
        Extractor::new().method(Method::PwcDense).mesh_divisions(DIVISIONS).extract(geo).unwrap();
    (extraction.capacitance().matrix().clone(), metrics().direct_not_spd.get() - before)
}

/// C from LU with partial pivoting on the same assembled P.
fn lu_reference(geo: &Geometry) -> Matrix {
    let mesh = Mesh::uniform(geo, DIVISIONS);
    let (p, phi) = DensePwcSolver.assemble_system(geo, &mesh, 1);
    solve_capacitance(p, &phi).unwrap().0
}

fn bits(c: &Matrix) -> Vec<u64> {
    c.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn indefinite_spellings_fall_back_to_lu_bit_for_bit() {
    let _guard = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    for (name, geo) in [("abutting", abutting()), ("overlapping", overlapping())] {
        let (c, moved) = extract_dense(&geo);
        assert_eq!(moved, 1, "{name}: not-SPD counter");
        assert_eq!(bits(&c), bits(&lu_reference(&geo)), "{name}: C differs from LU on the same P");
    }
}

#[test]
fn definite_spellings_stay_on_cholesky() {
    let _guard = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    for (name, geo) in [("one box", one_box()), ("offset overlap", offset_overlap())] {
        let (c, moved) = extract_dense(&geo);
        assert_eq!(moved, 0, "{name}: not-SPD counter");
        let lu = lu_reference(&geo);
        let worst = (&c - &lu).max_abs();
        assert!(worst <= 1e-12 * lu.max_abs(), "{name}: C moved {worst:e} from LU");
    }
}

#[test]
fn a_two_net_short_extracts() {
    let _guard = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let (c, _) = extract_dense(&short());
    assert!(c.is_finite() && c.get(0, 0) > 0.0 && c.get(1, 1) > 0.0, "{c:?}");
}
