//! Golden-reference regression tests: three canonical geometries with
//! committed capacitance matrices under `tests/golden/`, checked against
//! all four solver backends with per-method tolerances.
//!
//! The fixtures pin the *physics* of the repository: any change that
//! shifts a capacitance matrix beyond the tolerance band of its method —
//! a quadrature regression, a broken template law, a solver sign slip —
//! fails here even if every internal consistency test still passes.
//!
//! The committed values are the dense piecewise-constant Galerkin solve
//! ([`Method::PwcDense`]) at `REFERENCE_DIVISIONS`, the exact reference
//! discretization of the workspace. Regenerate after an *intentional*
//! physics change with:
//!
//! ```text
//! cargo test --release --test golden_reference -- --ignored --nocapture
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use bemcap_core::{Extractor, Method};
use bemcap_geom::structures::{self, BusParams, CrossingParams};
use bemcap_geom::Geometry;

/// Mesh divisions of the committed dense reference.
const REFERENCE_DIVISIONS: usize = 8;

/// A committed golden capacitance matrix.
struct Golden {
    names: Vec<String>,
    /// Row-major n×n entries in farad.
    c: Vec<f64>,
}

impl Golden {
    fn dim(&self) -> usize {
        self.names.len()
    }

    fn get(&self, i: usize, j: usize) -> f64 {
        self.c[i * self.dim() + j]
    }

    fn max_abs(&self) -> f64 {
        self.c.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }
}

/// The three canonical geometries (kept deliberately small so all four
/// backends run in seconds).
fn cases() -> Vec<(&'static str, Geometry)> {
    vec![
        ("plate_pair", structures::parallel_plates(1.0e-6, 1.0e-6, 0.2e-6)),
        ("crossing_wires", structures::crossing_wires(CrossingParams::default())),
        // 2 wires along x crossing 1 wire along y: the smallest multi-net
        // bus with distinct self/coupling structure.
        ("bus3", structures::bus_crossing(2, 1, BusParams::default())),
    ]
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

fn load_golden(name: &str) -> Golden {
    let path = fixture_path(name);
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    let mut names: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut conductors = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("conductors") => {
                conductors = parts.next().expect("conductor count").parse().expect("count")
            }
            Some("names") => names = parts.map(str::to_string).collect(),
            Some("row") => {
                rows.push(parts.map(|v| v.parse::<f64>().expect("matrix entry")).collect())
            }
            other => panic!("unrecognized golden line {other:?} in {name}"),
        }
    }
    assert_eq!(names.len(), conductors, "{name}: names vs conductor count");
    assert_eq!(rows.len(), conductors, "{name}: row count");
    assert!(rows.iter().all(|r| r.len() == conductors), "{name}: ragged matrix");
    Golden { names, c: rows.concat() }
}

fn reference_extractor() -> Extractor {
    Extractor::new().method(Method::PwcDense).mesh_divisions(REFERENCE_DIVISIONS)
}

/// Per-method relative tolerance against the dense golden matrix, scaled
/// by the matrix's largest entry.
///
/// * `PwcDense` regenerates the committed values: machine-precision band
///   (loose enough to survive benign float reassociation in refactors);
/// * `Auto` resolves to `PwcDense` for every golden geometry (they are
///   all far below the dense panel cap), so it inherits the dense band;
/// * `PwcFmm` / `PwcPfft` share the discretization but truncate the
///   far-field: a few percent;
/// * `InstantiableBasis` is a different (compact) discretization
///   philosophy: the band reflects the coarse template sets of small
///   structures, as in the paper's accuracy discussion.
fn tolerance(method: Method) -> f64 {
    // Measured worst deviations at generation time (see the regenerate
    // test's output): fmm ≤ 5.4e-4, pfft ≤ 7.6e-3, instantiable ≤ 1.1e-2;
    // each band leaves an order-of-magnitude margin.
    match method {
        Method::PwcDense | Method::Auto => 1e-9,
        Method::PwcFmm => 1e-2,
        Method::PwcPfft => 5e-2,
        Method::InstantiableBasis => 0.1,
    }
}

fn extractor_for(method: Method) -> Extractor {
    match method {
        Method::InstantiableBasis => Extractor::new(),
        m => Extractor::new().method(m).mesh_divisions(REFERENCE_DIVISIONS),
    }
}

const ALL_METHODS: [Method; 5] =
    [Method::PwcDense, Method::PwcFmm, Method::PwcPfft, Method::InstantiableBasis, Method::Auto];

fn check_case(name: &str) {
    let (_, geo) = cases().into_iter().find(|(n, _)| *n == name).expect("known case");
    let golden = load_golden(name);
    let scale = golden.max_abs();
    for method in ALL_METHODS {
        let extractor = extractor_for(method);
        if method == Method::Auto {
            // The tolerance premise: every golden geometry is small
            // enough that Auto's policy lands on the dense reference.
            assert_eq!(extractor.resolved_method(&geo), Method::PwcDense, "{name}: auto policy");
        }
        let out = extractor.extract(&geo).expect("extraction");
        let c = out.capacitance();
        assert_eq!(c.dim(), golden.dim(), "{name}/{method:?}: dimension");
        assert_eq!(c.names(), &golden.names[..], "{name}/{method:?}: conductor names");
        // Solver-stats contract: iterative backends report Krylov
        // counters, direct solves (and Auto resolving to one) do not.
        match method {
            Method::PwcFmm | Method::PwcPfft => {
                let stats = out.report().krylov.expect("iterative backends report krylov stats");
                assert!(stats.matvecs > 0, "{name}/{method:?}");
            }
            _ => assert!(out.report().krylov.is_none(), "{name}/{method:?}"),
        }
        let tol = tolerance(method);
        for i in 0..c.dim() {
            for j in 0..c.dim() {
                let got = c.get(i, j);
                let want = golden.get(i, j);
                assert!(
                    (got - want).abs() <= tol * scale,
                    "{name}/{method:?} entry ({i},{j}): got {got:e}, golden {want:e} \
                     (rel {:.3e}, tol {tol:.0e})",
                    (got - want).abs() / scale,
                );
            }
        }
        // Physics invariants must hold for every method, not just
        // closeness to the fixture. Direct solves are symmetric to
        // round-off; the Krylov-based baselines only to their residual
        // tolerance.
        let max_asym = match method {
            Method::PwcDense | Method::InstantiableBasis | Method::Auto => 1e-6,
            Method::PwcFmm | Method::PwcPfft => 1e-3,
        };
        assert!(c.asymmetry() < max_asym, "{name}/{method:?}: asymmetry {}", c.asymmetry());
        for i in 0..c.dim() {
            assert!(c.get(i, i) > 0.0, "{name}/{method:?}: diagonal {i}");
        }
    }
}

#[test]
fn golden_plate_pair() {
    check_case("plate_pair");
}

#[test]
fn golden_crossing_wires() {
    check_case("crossing_wires");
}

#[test]
fn golden_bus3() {
    check_case("bus3");
}

/// Rewrites the fixtures from the dense reference solver and prints each
/// method's worst deviation (run with `--nocapture` to read them). Ignored
/// in normal runs — regenerating is an explicit, reviewed act.
#[test]
#[ignore = "rewrites tests/golden/ in place; run after intentional physics changes"]
fn regenerate_golden_fixtures() {
    for (name, geo) in cases() {
        let out = reference_extractor().extract(&geo).expect("reference extraction");
        let c = out.capacitance();
        let mut text = String::new();
        let _ = writeln!(text, "# golden capacitance matrix — {name} (farad)");
        let _ =
            writeln!(text, "# reference: Method::PwcDense, mesh_divisions = {REFERENCE_DIVISIONS}");
        let _ = writeln!(
            text,
            "# regenerate: cargo test --release --test golden_reference -- --ignored --nocapture"
        );
        let _ = writeln!(text, "conductors {}", c.dim());
        let _ = writeln!(text, "names {}", c.names().join(" "));
        for i in 0..c.dim() {
            let row: Vec<String> = (0..c.dim()).map(|j| format!("{:?}", c.get(i, j))).collect();
            let _ = writeln!(text, "row {}", row.join(" "));
        }
        let path = fixture_path(name);
        fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        fs::write(&path, text).expect("write fixture");
        eprintln!("wrote {}", path.display());
        // Report each method's deviation so tolerances stay data-driven.
        let scale = c.matrix().max_abs();
        for method in ALL_METHODS {
            let got = extractor_for(method).extract(&geo).expect("extraction");
            let mut worst = 0.0_f64;
            for i in 0..c.dim() {
                for j in 0..c.dim() {
                    worst = worst.max((got.capacitance().get(i, j) - c.get(i, j)).abs() / scale);
                }
            }
            eprintln!(
                "  {method:?}: worst rel deviation {worst:.3e} (tol {:.0e})",
                tolerance(method)
            );
        }
    }
}
