//! Golden full-chip fixtures: three small multi-net layouts with
//! committed *sparse* chip capacitance matrices under `tests/golden/`,
//! checked through the windowed extraction path — in-process
//! ([`ChipExtractor`]) and over the wire (the daemon's v4 `chip` op) —
//! for the dense reference, the precorrected-FFT baseline, and the
//! `auto` policy.
//!
//! The fixtures pin the *stitched* physics: the partition, the halo
//! neighborhoods, the owned-row stitching, and the sparsity pattern
//! itself (which nets share a window is part of the contract). The
//! committed values are the dense piecewise-constant reference
//! ([`Method::PwcDense`]) at `REFERENCE_DIVISIONS`. Regenerate after an
//! intentional physics or partitioning change with:
//!
//! ```text
//! cargo test --release --test chip_golden -- --ignored --nocapture
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use bemcap_core::chip::{ChipCapacitance, ChipExtraction, ChipExtractor};
use bemcap_core::{Extractor, Method};
use bemcap_geom::structures::{self, BusParams};
use bemcap_geom::{Box3, Conductor, Geometry};
use bemcap_serve::{ChipOptions, ExtractOptions, Server, ServerConfig};

/// Mesh divisions of the committed dense reference (the workspace-wide
/// reference discretization, as in `tests/golden_reference.rs`).
const REFERENCE_DIVISIONS: usize = 8;

/// One golden chip case: a layout plus its partition configuration.
struct ChipCase {
    name: &'static str,
    geo: Geometry,
    nx: usize,
    ny: usize,
    halo: f64,
}

/// Two clusters of posts far apart: with a 2×1 grid and a small halo the
/// clusters never share a window, so the chip matrix is genuinely sparse
/// (cross-cluster entries are structurally absent).
fn far_clusters() -> Geometry {
    let post = |name: &str, x0: f64| {
        Conductor::new(name).with_box(
            Box3::from_bounds((x0, x0 + 1.0e-6), (0.0, 1.0e-6), (0.0, 1.0e-6)).expect("valid post"),
        )
    };
    Geometry::new(vec![post("a", 0.0), post("b", 2.0e-6), post("c", 20.0e-6), post("d", 22.0e-6)])
}

fn cases() -> Vec<ChipCase> {
    vec![
        ChipCase {
            name: "chip_bus4",
            geo: structures::bus_crossing(2, 2, BusParams::default()),
            nx: 2,
            ny: 2,
            halo: 2.0e-6,
        },
        ChipCase {
            name: "chip_bus6",
            geo: structures::bus_crossing(3, 3, BusParams::default()),
            nx: 2,
            ny: 2,
            halo: 2.0e-6,
        },
        ChipCase { name: "chip_clusters", geo: far_clusters(), nx: 2, ny: 1, halo: 2.0e-6 },
    ]
}

/// A committed golden sparse chip matrix.
struct Golden {
    names: Vec<String>,
    nx: usize,
    ny: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Golden {
    fn max_abs(&self) -> f64 {
        self.entries.iter().fold(0.0_f64, |m, &(_, _, v)| m.max(v.abs()))
    }

    fn get(&self, i: usize, j: usize) -> f64 {
        self.entries
            .binary_search_by_key(&(i, j), |&(ei, ej, _)| (ei, ej))
            .map_or(0.0, |at| self.entries[at].2)
    }
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

fn load_golden(name: &str) -> Golden {
    let path = fixture_path(name);
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden chip fixture {}: {e}", path.display()));
    let mut names: Vec<String> = Vec::new();
    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    let (mut conductors, mut nnz) = (0usize, 0usize);
    let (mut nx, mut ny) = (0usize, 0usize);
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
            Some("windows") => {
                nx = parts.next().expect("nx").parse().expect("nx");
                ny = parts.next().expect("ny").parse().expect("ny");
            }
            Some("nnz") => nnz = parts.next().expect("nnz").parse().expect("nnz"),
            Some("entry") => {
                let i: usize = parts.next().expect("row").parse().expect("row");
                let j: usize = parts.next().expect("col").parse().expect("col");
                let v: f64 = parts.next().expect("value").parse().expect("value");
                entries.push((i, j, v));
            }
            other => panic!("unrecognized golden line {other:?} in {name}"),
        }
    }
    assert_eq!(names.len(), conductors, "{name}: names vs conductor count");
    assert_eq!(entries.len(), nnz, "{name}: entry count vs nnz");
    assert!(entries.windows(2).all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1)), "{name}: order");
    Golden { names, nx, ny, entries }
}

/// Per-method tolerance bands, mirroring `tests/golden_reference.rs`
/// (auto resolves to the dense reference for every window here — the
/// subproblems are far below its dense panel cap).
fn tolerance(method: Method) -> f64 {
    match method {
        Method::PwcDense | Method::Auto => 1e-9,
        Method::PwcPfft => 5e-2,
        Method::PwcFmm => 1e-2,
        Method::InstantiableBasis => 0.1,
    }
}

fn extractor_for(method: Method) -> Extractor {
    Extractor::new().method(method).mesh_divisions(REFERENCE_DIVISIONS)
}

/// The methods the chip fixtures cover: the dense reference, the
/// precorrected-FFT baseline, and the auto policy.
const CHIP_METHODS: [Method; 3] = [Method::PwcDense, Method::PwcPfft, Method::Auto];

fn chip_for(case: &ChipCase, method: Method) -> ChipExtractor {
    ChipExtractor::new(extractor_for(method)).windows(case.nx, case.ny).halo(case.halo)
}

fn check_against_golden(
    golden: &Golden,
    names: &[String],
    entries: &[(usize, usize, f64)],
    method: Method,
    context: &str,
) {
    assert_eq!(names, &golden.names[..], "{context}: conductor names");
    // The sparsity pattern is part of the contract: which net pairs share
    // a window depends only on the partition, never on the solver.
    let pattern: Vec<(usize, usize)> = entries.iter().map(|&(i, j, _)| (i, j)).collect();
    let golden_pattern: Vec<(usize, usize)> =
        golden.entries.iter().map(|&(i, j, _)| (i, j)).collect();
    assert_eq!(pattern, golden_pattern, "{context}: sparsity pattern");
    let tol = tolerance(method);
    let scale = golden.max_abs();
    for &(i, j, got) in entries {
        let want = golden.get(i, j);
        assert!(
            (got - want).abs() <= tol * scale,
            "{context} entry ({i},{j}): got {got:e}, golden {want:e} (rel {:.3e}, tol {tol:.0e})",
            (got - want).abs() / scale,
        );
    }
}

fn chip_entries(c: &ChipCapacitance) -> Vec<(usize, usize, f64)> {
    c.matrix().iter().collect()
}

/// The in-process extractions of case `index` of [`cases`], one per
/// [`CHIP_METHODS`] entry in that order. Each case is computed once and
/// shared by its in-process test and the wire test.
fn in_process(index: usize) -> &'static [ChipExtraction] {
    static EXTRACTIONS: [OnceLock<Vec<ChipExtraction>>; 3] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    EXTRACTIONS[index].get_or_init(|| {
        let case = &cases()[index];
        CHIP_METHODS
            .iter()
            .map(|&method| chip_for(case, method).extract(&case.geo).expect("chip extraction"))
            .collect()
    })
}

fn check_case_in_process(name: &str) {
    let index = cases().iter().position(|c| c.name == name).expect("known case");
    let case = &cases()[index];
    let golden = load_golden(name);
    assert_eq!((golden.nx, golden.ny), (case.nx, case.ny), "{name}: fixture grid");
    for (method, full) in CHIP_METHODS.into_iter().zip(in_process(index)) {
        let c = full.capacitance();
        check_against_golden(
            &golden,
            c.names(),
            &chip_entries(c),
            method,
            &format!("{name}/{method:?}"),
        );
        for i in 0..c.dim() {
            assert!(c.get(i, i) > 0.0, "{name}/{method:?}: diagonal {i}");
        }
    }
}

#[test]
fn golden_chip_bus4() {
    check_case_in_process("chip_bus4");
}

#[test]
fn golden_chip_bus6() {
    check_case_in_process("chip_bus6");
}

#[test]
fn golden_chip_clusters() {
    check_case_in_process("chip_clusters");
}

/// The far-cluster layout must be *structurally* sparse: no committed
/// entry couples the two clusters, and the matrix is half empty.
#[test]
fn golden_clusters_fixture_is_structurally_sparse() {
    let golden = load_golden("chip_clusters");
    let cluster = |i: usize| usize::from(i >= 2); // a,b = 0 — c,d = 1
    assert!(golden.entries.iter().all(|&(i, j, _)| cluster(i) == cluster(j)));
    assert_eq!(golden.entries.len(), 8, "two dense 2x2 blocks");
}

/// Every golden case and method through the daemon's `chip` op: the wire
/// result must be bit-identical to the in-process extraction of the same
/// configuration (shared executor, process caches, and serialization may
/// not change a bit) and therefore also inside the fixture band.
#[test]
fn golden_chips_over_the_wire_match_in_process_bits() {
    let server = Server::bind(ServerConfig { addr: "127.0.0.1:0".into(), ..Default::default() })
        .expect("bind loopback")
        .spawn()
        .expect("spawn daemon");
    let mut client = bemcap_serve::Client::connect(server.addr()).expect("connect");
    client.ping().expect("v4 daemon");
    for (index, case) in cases().into_iter().enumerate() {
        let golden = load_golden(case.name);
        for (slot, method) in CHIP_METHODS.into_iter().enumerate() {
            let context = format!("{}/{method:?}/wire", case.name);
            let reply = client
                .chip(
                    &case.geo,
                    &ChipOptions {
                        extract: ExtractOptions {
                            method,
                            mesh_divisions: Some(REFERENCE_DIVISIONS),
                            ..Default::default()
                        },
                        nx: case.nx,
                        ny: case.ny,
                        halo: Some(case.halo),
                    },
                )
                .expect("chip over the wire");
            let local = &in_process(index)[slot];
            let c = local.capacitance();
            assert_eq!(reply.windows, local.report().windows, "{context}: window count");
            assert_eq!(reply.nnz(), c.matrix().nnz(), "{context}: nnz");
            for ((wi, wj, wv), (li, lj, lv)) in reply.entries.iter().zip(c.matrix().iter()) {
                assert_eq!((*wi, *wj), (li, lj), "{context}: entry order");
                assert_eq!(wv.to_bits(), lv.to_bits(), "{context}: C({li},{lj}) {wv} vs {lv}");
            }
            check_against_golden(&golden, &reply.names, &reply.entries, method, &context);
        }
    }
    // A repeated request is answered from the daemon's window cache.
    let case = &cases()[0];
    let reply = client
        .chip(
            &case.geo,
            &ChipOptions {
                extract: ExtractOptions {
                    method: Method::PwcDense,
                    mesh_divisions: Some(REFERENCE_DIVISIONS),
                    ..Default::default()
                },
                nx: case.nx,
                ny: case.ny,
                halo: Some(case.halo),
            },
        )
        .expect("warm chip request");
    assert_eq!(reply.extracted, 0, "second identical request reuses every window");
    assert_eq!(reply.reused, reply.windows);
    client.shutdown().expect("shutdown");
    server.join().expect("clean daemon exit");
}

/// Rewrites the chip fixtures from the dense reference and prints each
/// method's worst deviation. Ignored in normal runs — regenerating is an
/// explicit, reviewed act.
#[test]
#[ignore = "rewrites tests/golden/chip_*.txt in place; run after intentional changes"]
fn regenerate_chip_fixtures() {
    for case in cases() {
        let full = chip_for(&case, Method::PwcDense).extract(&case.geo).expect("reference chip");
        let c = full.capacitance();
        let mut text = String::new();
        let _ = writeln!(text, "# golden chip capacitance — {} (farad, sparse entries)", case.name);
        let _ = writeln!(
            text,
            "# reference: Method::PwcDense, mesh_divisions = {REFERENCE_DIVISIONS}, \
             windows {}x{}, halo {:?}",
            case.nx, case.ny, case.halo
        );
        let _ = writeln!(
            text,
            "# regenerate: cargo test --release --test chip_golden -- --ignored --nocapture"
        );
        let _ = writeln!(text, "conductors {}", c.dim());
        let _ = writeln!(text, "names {}", c.names().join(" "));
        let _ = writeln!(text, "windows {} {}", case.nx, case.ny);
        let _ = writeln!(text, "nnz {}", c.matrix().nnz());
        for (i, j, v) in c.matrix().iter() {
            let _ = writeln!(text, "entry {i} {j} {v:?}");
        }
        let path = fixture_path(case.name);
        fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        fs::write(&path, text).expect("write fixture");
        eprintln!("wrote {}", path.display());
        let scale = c.matrix().max_abs();
        for method in CHIP_METHODS {
            let got = chip_for(&case, method).extract(&case.geo).expect("chip extraction");
            let mut worst = 0.0_f64;
            for (i, j, v) in got.capacitance().matrix().iter() {
                worst = worst.max((v - c.get(i, j)).abs() / scale);
            }
            eprintln!(
                "  {method:?}: worst rel deviation {worst:.3e} (tol {:.0e})",
                tolerance(method)
            );
        }
    }
}
