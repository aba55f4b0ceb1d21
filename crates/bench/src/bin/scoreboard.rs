//! The paper scoreboard: every claim of the paper's evaluation (Tables
//! 1–3, Figs. 2 and 8) and the repo's §4.1 ablation claim, rerun at the
//! paper's sizes, each with one verdict: `reproduced`, `deviates
//! (<measured>)` or `not attempted (<reason>)`.
//!
//! Run with `cargo run --release -p bemcap-bench --bin scoreboard`. Each
//! runner prints its artifact's detail block, then the verdicts follow as
//! a Markdown table. A claim restated in words is flagged `paraphrase`.
//!
//! Table 3 and Fig. 8's "this work" curves replay measured costs on the
//! machine simulator, so their rows are labelled `model`. When the model's
//! D=2 setup speedup is more than 10 % off the measured `Threads(2)`
//! speedup of the same bus, every claim the model carries deviates.

use std::fmt;
use std::time::Instant;

use bemcap_accel::technique::{sample_queries, Integrator2d};
use bemcap_accel::{fastmath::FastMathIntegrator, rational::RationalFit, table6d::DirectTable};
use bemcap_accel::{table3d::IndefiniteTable, technique::AnalyticIntegrator};
use bemcap_basis::calibrate::{calibrate_crossing, fit_laws};
use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::{PairPlan, TemplateIndex};
use bemcap_core::assembly::{self, Assembly};
use bemcap_core::solver::solve_capacitance;
use bemcap_core::{ExtractionReport, Extractor, Method};
use bemcap_fmm::parallel::{efficiency_curve as fmm_curve, FmmCostModel};
use bemcap_fmm::{FmmConfig, FmmOperator, FmmSolver, Octree};
use bemcap_geom::structures::{self, CrossingParams, TransistorParams};
use bemcap_geom::Mesh;
use bemcap_linalg::{LinearOperator, Matrix};
use bemcap_par::{CommModel, MachineSim, Schedule};
use bemcap_pfft::parallel::{efficiency_curve as pfft_curve, PfftCostModel};
use bemcap_pfft::{PfftConfig, PfftOperator};
use bemcap_quad::galerkin::{GalerkinConfig, GalerkinEngine};

/// What a measured value must satisfy for its claim to count as reproduced.
#[derive(Debug, Clone, Copy)]
enum Cmp {
    AtLeast(f64),
    AtMost(f64),
}

/// One claim: where it is made, what it says, and the test of the number
/// its runner measures.
struct Claim {
    id: &'static str,
    section: &'static str,
    paper: &'static str,
    measure: &'static str,
    cmp: Cmp,
    paraphrase: bool,
}

use Cmp::{AtLeast, AtMost};

const CLAIMS: [Claim; 11] = [
    Claim {
        id: "t1-faster",
        section: "Table 1",
        paper: "all 4 techniques beat analytic: 136/240/128/224 vs 280 ns",
        measure: "slowest speedup over analytic",
        cmp: AtLeast(1.0),
        paraphrase: false,
    },
    Claim {
        id: "t1-fastest",
        section: "Table 1",
        paper: "fast-math (128 ns) is the fastest",
        measure: "fast-math speedup / best other",
        cmp: AtLeast(1.0),
        paraphrase: false,
    },
    Claim {
        id: "t2-speedup",
        section: "Table 2",
        paper: "accel. instantiable 6.2× faster than FASTCAP",
        measure: "FASTCAP total / accel. total",
        cmp: AtLeast(6.2),
        paraphrase: false,
    },
    Claim {
        id: "t2-accel",
        section: "Table 2",
        paper: "setup 94.1 → 50.7 ms (1.86×)",
        measure: "setup w/o / w/ accel.",
        cmp: AtLeast(1.86),
        paraphrase: false,
    },
    Claim {
        id: "t2-error",
        section: "Table 2",
        paper: "2.8 % error vs the refined reference",
        measure: "worst instantiable coupling error %",
        cmp: AtMost(2.8),
        paraphrase: false,
    },
    Claim {
        id: "t2-memory",
        section: "Table 2",
        paper: "0.8–2.5 MB vs FASTCAP's 24 MB",
        measure: "instantiable MB",
        cmp: AtMost(2.5),
        paraphrase: false,
    },
    Claim {
        id: "t3-shared",
        section: "Table 3",
        paper: "91 % at 4 shared-memory nodes, bus 24×24",
        measure: "model efficiency % at D=4",
        cmp: AtLeast(91.0),
        paraphrase: false,
    },
    Claim {
        id: "t3-dist",
        section: "Table 3",
        paper: "89 % at 10 distributed nodes, bus 24×24",
        measure: "model efficiency % at D=10",
        cmp: AtLeast(89.0),
        paraphrase: false,
    },
    Claim {
        id: "f8-order",
        section: "Fig. 8",
        paper: "at 8: this work > FMM (65 %) > pFFT (42 %)",
        measure: "min(this work / FMM, FMM / pFFT)",
        cmp: AtLeast(1.0),
        paraphrase: false,
    },
    Claim {
        id: "f2-linear",
        section: "Fig. 2",
        paper: "arch width b and extension e linear in h",
        measure: "max/min of b/h and of e/h",
        cmp: AtMost(1.25),
        paraphrase: true,
    },
    Claim {
        id: "abl-default",
        section: "§4.1 (repo)",
        paper: "default engine within 1 % of tight",
        measure: "coupling error % vs tight",
        cmp: AtMost(1.0),
        paraphrase: false,
    },
];

/// What a runner found for one claim.
#[derive(Debug)]
enum Outcome {
    /// The value the claim's test compares, and how to print it.
    Measured(f64, String),
    /// The simulator missed the measured speedup by this many percent.
    ModelOff(f64),
    NotAttempted(String),
}

fn verdict(cmp: Cmp, outcome: &Outcome) -> String {
    let holds = |v: f64| match cmp {
        AtLeast(bound) => v >= bound,
        AtMost(bound) => v <= bound,
    };
    match outcome {
        Outcome::Measured(value, _) if holds(*value) => "reproduced".into(),
        Outcome::Measured(_, shown) => format!("deviates ({shown})"),
        Outcome::ModelOff(percent) => format!("deviates (model off by {percent:.0} %)"),
        Outcome::NotAttempted(reason) => format!("not attempted ({reason})"),
    }
}

type Run = Result<Vec<Outcome>, String>;

fn why(e: impl fmt::Display) -> String {
    e.to_string()
}

/// Seconds of the fastest of `reps` calls of `f`.
fn best_seconds<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Per-phase seconds of the fastest of `reps` applies of `op`, each read
/// as the difference of the operator's cumulative `phases` counters.
fn fastest_apply(op: &dyn LinearOperator, reps: usize, phases: impl Fn() -> [f64; 3]) -> [f64; 3] {
    let x = vec![1.0; op.dim()];
    let mut y = vec![0.0; op.dim()];
    let mut best = [f64::INFINITY; 3];
    for _ in 0..reps {
        let before = phases();
        op.apply(&x, &mut y);
        let after = phases();
        let split: [f64; 3] = std::array::from_fn(|i| after[i] - before[i]);
        if split.iter().sum::<f64>() < best.iter().sum::<f64>() {
            best = split;
        }
    }
    best
}

/// Worst off-diagonal deviation of `c` from `reference`, in percent of
/// the largest reference coupling.
fn coupling_error(c: &Matrix, reference: &Matrix) -> f64 {
    let n = c.rows();
    let off = || (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).filter(|(i, j)| i != j);
    let worst = off().map(|(i, j)| (c.get(i, j) - reference.get(i, j)).abs()).fold(0.0, f64::max);
    100.0 * worst / off().map(|(i, j)| reference.get(i, j).abs()).fold(0.0, f64::max)
}

fn table1() -> Run {
    let queries = sample_queries(2000, 42);
    let techniques: [Box<dyn Integrator2d>; 5] = [
        Box::new(AnalyticIntegrator),
        Box::new(DirectTable::table1_default().map_err(why)?),
        Box::new(IndefiniteTable::table1_default().map_err(why)?),
        Box::new(FastMathIntegrator::new()),
        Box::new(RationalFit::table1_default().map_err(why)?),
    ];
    println!("Table 1: 2-D integral techniques on 2000 queries (paper: 280/136/240/128/224 ns)");
    let exact: Vec<f64> = queries.iter().map(|q| techniques[0].eval(q)).collect();
    let mut ns = Vec::new();
    for (i, t) in techniques.iter().enumerate() {
        let seconds = best_seconds(20, || queries.iter().map(|q| t.eval(q)).sum::<f64>());
        ns.push(seconds * 1e9 / queries.len() as f64);
        let errors =
            queries.iter().zip(&exact).map(|(q, e)| (t.eval(q) - e).abs() / e.abs().max(0.1));
        let err = 100.0 * errors.fold(0.0, f64::max);
        let speedup = ns[0] / ns[i];
        let name = t.name();
        let bytes = t.memory_bytes();
        println!("  {i} {name:<30} {:>5.0} ns {speedup:>5.2}× {bytes:>8} B {err:>5.2} %", ns[i]);
    }
    // Speedups over analytic of techniques 1–4; fast-math is index 2.
    let s: Vec<f64> = ns[1..].iter().map(|t| ns[0] / t).collect();
    let named = |i: usize| format!("{} {:.2}×", techniques[i + 1].name(), s[i]);
    let slow: Vec<String> = (0..4).filter(|&i| s[i] < 1.0).map(named).collect();
    let best_other = [s[0], s[1], s[3]].into_iter().fold(0.0, f64::max);
    let fastest = format!("{} vs best other {best_other:.2}×", named(2));
    Ok(vec![
        Outcome::Measured(s.iter().cloned().fold(f64::INFINITY, f64::min), slow.join(", ")),
        Outcome::Measured(s[2] / best_other, fastest),
    ])
}

/// Divisions of Table 2's FASTCAP-style row, the finest row it grades.
const FASTCAP_DIVISIONS: usize = 12;

/// One method's Table 2 measurements.
struct Table2Row {
    /// Best setup seconds of three runs.
    setup: f64,
    /// Best total seconds of three runs.
    total: f64,
    mb: f64,
    /// Worst coupling error, % of the largest reference coupling.
    err: f64,
}

fn table2() -> Run {
    let geo = structures::transistor_interconnect(TransistorParams::default());
    // The §6 reference: refine the finest graded mesh until C moves < 0.1 %.
    let finest = Mesh::uniform(&geo, FASTCAP_DIVISIONS);
    let graded = finest.panel_count();
    let reference = FmmSolver::default().reference(&geo, finest, 0.001, 30).map_err(why)?;
    let panels = reference.panel_count;
    println!("\nTable 2: transistor interconnect, graded rows ≤ {graded} panels");
    println!("  reference: {panels} panels, §6 loop (10 % refinement steps until C moves < 0.1 %)");
    let fastcap = Extractor::new().method(Method::PwcFmm).mesh_divisions(FASTCAP_DIVISIONS);
    let rows = [
        ("FASTCAP-style", fastcap),
        ("instantiable", Extractor::new()),
        ("instantiable + accel.", Extractor::new().accelerated(true)),
    ];
    let mut measured = Vec::new();
    for (label, extractor) in rows {
        let runs: Result<Vec<_>, _> = (0..3).map(|_| extractor.extract(&geo)).collect();
        let runs = runs.map_err(why)?;
        let best = |f: fn(&ExtractionReport) -> f64| {
            runs.iter().map(|o| f(o.report())).fold(f64::INFINITY, f64::min)
        };
        let out = &runs[0];
        let row = Table2Row {
            setup: best(|r| r.setup_seconds),
            total: best(|r| r.total_seconds()),
            mb: out.report().memory_bytes as f64 / 1e6,
            err: coupling_error(out.capacitance().matrix(), &reference.capacitance),
        };
        let setup_ms = row.setup * 1e3;
        let total_ms = row.total * 1e3;
        let mb = row.mb;
        println!("  {label:<21} setup {setup_ms:>6.2} ms, total {total_ms:>6.2} ms, {mb:.3} MB");
        println!("  {:<21} {:.2} % coupling error vs reference", "", row.err);
        measured.push(row);
    }
    let [fastcap, unaccel, accel] = [&measured[0], &measured[1], &measured[2]];
    let speedup = fastcap.total / accel.total;
    let ratio = unaccel.setup / accel.setup;
    let err = unaccel.err.max(accel.err);
    let memory = format!("{:.3} MB vs FASTCAP-style {:.3} MB", accel.mb, fastcap.mb);
    Ok(vec![
        Outcome::Measured(speedup, format!("{speedup:.1}×")),
        Outcome::Measured(ratio, format!("{ratio:.2}×")),
        Outcome::Measured(err, format!("{err:.2} %")),
        Outcome::Measured(accel.mb, memory),
    ])
}

/// Bus side of Table 3 and of Fig. 8's "this work" curves.
const BUS: usize = 24;

/// The measured inputs of the setup model on the `BUS`×`BUS` bus.
struct BusModel {
    costs: Vec<f64>,
    distinct: usize,
    /// Setup seconds outside the pair evaluation (instantiate, walk, Φ…).
    serial: f64,
    /// Seconds of the LU factor and solve of the assembled P.
    solve: f64,
    /// Measured `Threads(2)` setup speedup.
    measured_d2: f64,
}

/// One timed setup of the bus.
struct Leg {
    seconds: f64,
    /// Seconds of worker 0's pair evaluation.
    evaluation: f64,
    asm: Assembly,
    index: TemplateIndex,
}

impl BusModel {
    fn measure() -> Result<BusModel, String> {
        let geo = structures::bus_crossing(BUS, BUS, structures::BusParams::default());
        let eng = GalerkinEngine::default();
        let setup = |threads| -> Result<Leg, String> {
            let t = Instant::now();
            let set = instantiate(&geo, &InstantiateConfig::default()).map_err(why)?;
            let index = TemplateIndex::new(&set);
            let (nc, eps) = (geo.conductor_count(), geo.eps_rel());
            let (asm, workers) = assembly::assemble_threaded(&eng, &index, &set, nc, eps, threads);
            let seconds = t.elapsed().as_secs_f64();
            Ok(Leg { seconds, evaluation: workers[0].seconds, asm, index })
        };
        // Best of five interleaved legs; the fastest sequential one also
        // gives the serial share, P and the index the costs are taken on.
        let mut fastest = setup(1)?;
        let mut threaded = setup(2)?.seconds;
        for _ in 1..5 {
            threaded = threaded.min(setup(2)?.seconds);
            let leg = setup(1)?;
            if leg.seconds < fastest.seconds {
                fastest = leg;
            }
        }
        let Leg { seconds: sequential, evaluation, asm, index } = fastest;
        Ok(BusModel {
            costs: assembly::measure_chunk_costs_best_of(&eng, &index, 7680, 2),
            distinct: PairPlan::new(&index).distinct(),
            serial: sequential - evaluation,
            solve: solve_capacitance(asm.p, &asm.phi).map_err(why)?.1,
            measured_d2: sequential / threaded,
        })
    }

    /// Model makespan at `d` nodes, shared memory self-scheduling its
    /// chunks, distributed memory gathering its value slices.
    fn makespan(&self, d: usize, shared: bool, with_solve: bool) -> f64 {
        let (comm, schedule) = match shared {
            true => (CommModel::shared_memory(), Schedule::SelfScheduled),
            false => (CommModel::cluster(), Schedule::Gathered),
        };
        let solve = if with_solve { self.solve } else { 0.0 };
        let sim = MachineSim::new(d, comm);
        sim.simulate_setup(schedule, &self.costs, self.distinct, self.serial, solve).makespan
    }

    fn efficiency(&self, d: usize, shared: bool) -> f64 {
        self.makespan(1, shared, true) / (d as f64 * self.makespan(d, shared, true))
    }

    /// The model's D=2 setup speedup, and its distance in percent from
    /// the measured one.
    fn check(&self) -> (f64, f64) {
        let model = self.makespan(1, true, false) / self.makespan(2, true, false);
        (model, 100.0 * (model / self.measured_d2 - 1.0).abs())
    }

    /// `value` as a model outcome: `ModelOff` when the model missed by
    /// more than 10 %.
    fn outcome(&self, value: f64, shown: String) -> Outcome {
        match self.check().1 {
            off if off > 10.0 => Outcome::ModelOff(off),
            _ => Outcome::Measured(value, shown),
        }
    }
}

fn table3(bus: &BusModel) -> Run {
    let work = bus.costs.iter().sum::<f64>();
    let distinct = bus.distinct;
    println!("\nTable 3: bus {BUS}×{BUS}, {distinct} distinct pairs; setup {work:.2} s of pair");
    println!(
        "  evaluation + {:.2} s serial; then {:.2} s serial LU factor and solve",
        bus.serial, bus.solve
    );
    let (model, off) = bus.check();
    let measured = bus.measured_d2;
    println!("  Threads(2) setup speedup {measured:.2}×, model {model:.2}× (off by {off:.1} %)");
    for (shared, ds) in [(true, &[1, 2, 4][..]), (false, &[1, 2, 4, 8, 10])] {
        let label = if shared { "shared" } else { "distributed" };
        for &d in ds {
            let t = bus.makespan(d, shared, true);
            let eff = 100.0 * bus.efficiency(d, shared);
            println!("  model {label:<11} D={d:<2} {t:>7.3} s {eff:>5.1} % efficiency");
        }
    }
    let shared = 100.0 * bus.efficiency(4, true);
    let dist = 100.0 * bus.efficiency(10, false);
    Ok(vec![
        bus.outcome(shared, format!("{shared:.0} %")),
        bus.outcome(dist, format!("{dist:.0} %")),
    ])
}

const PROCESSORS: [usize; 6] = [1, 2, 4, 6, 8, 10];

/// Mesh divisions of the 2×2 bus the Fig. 8 baselines run on, as in
/// their original papers.
const BASELINE_DIVISIONS: usize = 10;

fn fig8(bus: &BusModel) -> Run {
    let geo = structures::bus_crossing(2, 2, structures::BusParams::default());
    let mesh = Mesh::uniform(&geo, BASELINE_DIVISIONS);
    let np = mesh.panel_count();
    // Setup is the fastest of several extractions, and the fastest of
    // several probe matvecs on the same mesh gives the per-phase costs.
    const PROBES: usize = 9;
    let extract = |method| -> Result<(f64, usize), String> {
        let extractor = Extractor::new().method(method).mesh_divisions(BASELINE_DIVISIONS);
        let (mut setup, mut iterations) = (f64::INFINITY, 1);
        for _ in 0..PROBES {
            let report = extractor.extract(&geo).map_err(why)?.report().clone();
            setup = setup.min(report.setup_seconds);
            iterations = report.krylov.map_or(1, |k| k.matvecs.max(1));
        }
        Ok((setup, iterations))
    };
    let (fmm_setup, iterations) = extract(Method::PwcFmm)?;
    let op = FmmOperator::new(&mesh, 1.0, FmmConfig::default()).map_err(why)?;
    let [upward, far, near] = fastest_apply(&op, PROBES, || {
        let t = op.timings();
        [t.upward, t.far, t.near]
    });
    let n = np as f64;
    let tree_build =
        best_seconds(3, || Octree::build(mesh.panels(), FmmConfig::default().leaf_size));
    let fmm_costs = FmmCostModel {
        upward_per_node: upward / op.tree().len() as f64,
        eval_per_target: (far + near) / n,
        n: np,
        iterations,
        // [7] parallelizes the near-field precomputation; the tree build,
        // timed on its own on the same mesh, stays serial.
        serial_setup: tree_build,
        parallel_setup: (fmm_setup - tree_build).max(0.0),
    };
    let fmm = fmm_curve(op.tree(), &fmm_costs, CommModel::cluster(), &PROCESSORS);
    let (setup, iterations) = extract(Method::PwcPfft)?;
    let op = PfftOperator::new(&mesh, 1.0, PfftConfig::default()).map_err(why)?;
    let [project, fft, precorrect] = fastest_apply(&op, PROBES, || {
        let t = op.timings();
        [t.project, t.fft, t.precorrect]
    });
    let grid = op.grid().fft_points();
    let near = np * 30;
    let pfft_costs = PfftCostModel {
        project_per_panel: project / n,
        fft_per_point: fft / grid as f64,
        precorrect_per_entry: precorrect / near as f64,
        n: np,
        grid_points: grid,
        near_entries: near,
        iterations,
        serial_setup: setup,
    };
    let pfft = pfft_curve(&pfft_costs, CommModel::cluster(), &PROCESSORS);
    println!("\nFig. 8: parallel efficiency %, this work on bus {BUS}×{BUS}, baselines on bus 2×2");
    println!(
        "  FMM [7] setup {:.2} ms, of it the tree build {:.2} ms serial",
        1e3 * fmm_setup,
        1e3 * tree_build
    );
    println!("        procs  this work shared  this work distributed  FMM [7]  pFFT [1]");
    let row = |i: usize| {
        let d = PROCESSORS[i];
        [bus.efficiency(d, true), bus.efficiency(d, false), fmm[i].1, pfft[i].1].map(|e| 100.0 * e)
    };
    for (i, d) in PROCESSORS.into_iter().enumerate() {
        let [a, b, c, e] = row(i);
        println!("  model {d:>5} {a:>17.1} {b:>22.1} {c:>8.1} {e:>9.1}");
    }
    let [shared, dist, fmm8, pfft8] = row(4); // 8 processors
    let margin = (shared.min(dist) / fmm8).min(fmm8 / pfft8);
    let shown = format!("this work {shared:.0}/{dist:.0} %, FMM {fmm8:.0} %, pFFT {pfft8:.0} %");
    Ok(vec![bus.outcome(margin, shown)])
}

fn fig2() -> Run {
    let base = CrossingParams::default();
    let calibrate = |h| calibrate_crossing(CrossingParams { separation: h, ..base }, 24);
    let samples = [0.5e-6, 0.6e-6, 1.0e-6, 1.6e-6].map(calibrate);
    let samples: Vec<_> = samples.into_iter().collect::<Result<_, _>>().map_err(why)?;
    println!("\nFig. 2: arch metrics of the crossing pair, 24 divisions");
    let b: Vec<f64> = samples.iter().map(|s| s.width / s.h).collect();
    let e: Vec<f64> = samples.iter().map(|s| s.extension / s.h).collect();
    for (i, s) in samples.iter().enumerate() {
        println!("  h = {:.2} µm: b/h = {:.2}, e/h = {:.2}", s.h * 1e6, b[i], e[i]);
    }
    let laws = fit_laws(&samples).map_err(why)?;
    println!("  fitted laws: b(h) = {:.3}·h, e(h) = {:.3}·h", laws.width_coeff, laws.ext_coeff);
    // Largest over smallest of each ratio: 1 when the law is exactly linear.
    let spread = |r: &[f64]| {
        r.iter().cloned().fold(0.0, f64::max) / r.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    let shown = format!("b/h {:.2}→{:.2}, e/h {:.2}→{:.2}", b[0], b[3], e[0], e[3]);
    Ok(vec![Outcome::Measured(spread(&b).max(spread(&e)), shown)])
}

fn ablation() -> Run {
    let geo = structures::crossing_wires(CrossingParams::default());
    let tight = GalerkinConfig {
        far_ratio: 30.0,
        mid_ratio: 10.0,
        near_order: 10,
        mid_order: 6,
        touch_subdiv: 4,
        shape_order: 10,
    };
    let extract = |cfg| Extractor::new().galerkin_config(cfg).extract(&geo).map_err(why);
    let reference = extract(tight)?;
    let default = extract(GalerkinConfig::default())?;
    let err = coupling_error(default.capacitance().matrix(), reference.capacitance().matrix());
    let [t_tight, t_default] =
        [tight, GalerkinConfig::default()].map(|cfg| 1e3 * best_seconds(3, || extract(cfg)));
    println!("\n§4.1 ablation on the crossing pair (repo claim)");
    println!("  tight engine {t_tight:.3} ms, default {t_default:.3} ms, {err:.3} % off tight");
    Ok(vec![Outcome::Measured(err, format!("{err:.2} %"))])
}

/// Runs `runner`, pairing its outcomes with `ids` in order; a runner that
/// fails leaves each of its claims not attempted.
fn run(ids: &[&'static str], runner: impl FnOnce() -> Run) -> Vec<(&'static str, Outcome)> {
    match runner() {
        Ok(outcomes) => ids.iter().copied().zip(outcomes).collect(),
        Err(reason) => ids.iter().map(|&id| (id, Outcome::NotAttempted(reason.clone()))).collect(),
    }
}

fn main() {
    let mut outcomes = run(&["t1-faster", "t1-fastest"], table1);
    outcomes.extend(run(&["t2-speedup", "t2-accel", "t2-error", "t2-memory"], table2));
    let bus = &BusModel::measure();
    let with_bus =
        |runner: fn(&BusModel) -> Run| move || bus.as_ref().map_err(Clone::clone).and_then(runner);
    outcomes.extend(run(&["t3-shared", "t3-dist"], with_bus(table3)));
    outcomes.extend(run(&["f8-order"], with_bus(fig8)));
    outcomes.extend(run(&["f2-linear"], fig2));
    outcomes.extend(run(&["abl-default"], ablation));

    println!("\n| claim | section | paper | test | verdict |\n|---|---|---|---|---|");
    for c in &CLAIMS {
        let outcome = outcomes.iter().find(|(id, _)| *id == c.id).map(|(_, o)| o);
        let verdict = outcome.map_or("not attempted (no runner)".into(), |o| verdict(c.cmp, o));
        let cmp = match c.cmp {
            AtLeast(bound) => format!("≥ {bound}"),
            AtMost(bound) => format!("≤ {bound}"),
        };
        let section = format!("{}{}", c.section, if c.paraphrase { " (paraphrase)" } else { "" });
        println!("| `{}` | {section} | {} | {} {cmp} | {verdict} |", c.id, c.paper, c.measure);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_table_is_well_formed() {
        for (i, c) in CLAIMS.iter().enumerate() {
            assert!(CLAIMS[..i].iter().all(|o| o.id != c.id), "duplicate id {}", c.id);
            assert!(!c.section.is_empty() && !c.paper.is_empty(), "{}", c.id);
            assert!(!c.measure.is_empty(), "{} names no measured quantity", c.id);
            let (AtLeast(bound) | AtMost(bound)) = c.cmp;
            assert!(bound.is_finite(), "{}", c.id);
        }
    }

    #[test]
    fn verdicts_follow_the_measurement() {
        let m = |v: f64| Outcome::Measured(v, format!("{v}×"));
        assert_eq!(verdict(AtLeast(6.2), &m(12.2)), "reproduced");
        assert_eq!(verdict(AtLeast(1.86), &m(1.41)), "deviates (1.41×)");
        assert_eq!(verdict(AtMost(2.8), &m(0.4)), "reproduced");
        assert_eq!(verdict(AtMost(2.8), &m(3.0)), "deviates (3×)");
        assert_eq!(verdict(AtLeast(1.0), &m(1.0)), "reproduced");
        let off = Outcome::ModelOff(12.4);
        assert_eq!(verdict(AtLeast(91.0), &off), "deviates (model off by 12 %)");
        let skipped = Outcome::NotAttempted("no LU".into());
        assert_eq!(verdict(AtMost(1.0), &skipped), "not attempted (no LU)");
    }
}
