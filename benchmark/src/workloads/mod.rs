//! The six workloads and what they share: the run context, the outcome
//! record, the set-up and timed-window helpers, and seeded geometry.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use bemcap_basis::{pair_integral, TemplateIndex};
use bemcap_core::{Extraction, ExtractionReport};
use bemcap_geom::structures::{self, BusParams};
use bemcap_geom::{Geometry, Mesh, Point3};
use bemcap_linalg::{kernels, Matrix};
use bemcap_quad::galerkin::GalerkinEngine;

use crate::check;
use crate::rng::Rng;
use crate::spans::{self, Recorder};
use crate::spec::{self, Workload};
use crate::stats;

mod bus_inst;
mod chip_eco;
mod dense_lu;
mod krylov_mid;
mod serve;

/// Times the set-up is repeated; `setup_s` is the median repetition.
const SETUP_REPS: usize = 3;

/// Seeded jitter of the conductor thickness (±3 %). With the seeded
/// offset of [`placed`] it gives every seed its own wire frames and cache
/// keys while panel and template counts — the work per operation — stay
/// put. Width, pitch and layer gap are left at the paper's values: a ±3 %
/// jitter of those lands about one small bus in twelve on an
/// ill-conditioned instantiable system (self-capacitances off by more
/// than 100 %, some negative; see README.md), and a workload must not
/// fail by the luck of its seed.
const JITTER: f64 = 0.03;

/// Largest seeded offset per axis.
const OFFSET: f64 = 0.5e-6;

/// One invocation: a workload, a seed, a window and a mode.
pub struct Ctx {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny sizes, for the unit test that runs every workload.
    pub smoke: bool,
    /// Process start, where `setup_s` begins.
    pub started: Instant,
    /// Where span files go.
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn rng(&self, stream: &str) -> Rng {
        Rng::new(self.seed, stream)
    }

    /// `regular`, or `smoke` under `--smoke`.
    pub fn size<T>(&self, regular: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            regular
        }
    }
}

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind the timing metrics.
    pub samples: BTreeMap<&'static str, usize>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, and what a reader should know beside the
    /// numbers (tail percentile, where the spans went).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a timing metric as the median of `samples`; returns it.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) -> f64 {
        let median = stats::median(samples);
        self.set(name, median);
        self.samples.insert(name, samples.len());
        median
    }

    /// Counts one checked operation; a failure keeps its reason.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(format!("{what}: {why}"));
            }
        }
    }

    /// Fails the run for a reason that is not one operation's.
    pub fn fail(&mut self, why: String) {
        self.check("run", Err(why));
    }

    /// `max_rel_err` and its gate against the workload's tolerance.
    pub fn set_rel_err(&mut self, ctx: &Ctx, err: f64) {
        self.set("max_rel_err", err);
        let tolerance = ctx.workload.tolerance;
        self.check(
            "reference",
            if err <= tolerance {
                Ok(())
            } else {
                Err(format!("max_rel_err {err:e} exceeds {tolerance:e}"))
            },
        );
    }

    /// Closes the record: `failed_share` from the counts.
    pub fn finish(mut self) -> Outcome {
        self.set("failed_share", self.failed as f64 / self.attempted.max(1) as f64);
        self
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let outcome = match ctx.workload.name {
        spec::BUS_INST => bus_inst::run(ctx),
        spec::DENSE_LU => dense_lu::run(ctx),
        spec::KRYLOV_MID => krylov_mid::run(ctx),
        spec::CHIP_ECO => chip_eco::run(ctx),
        spec::SERVE_WARM => serve::run(ctx, serve::Mode::Warm),
        spec::SERVE_COLD => serve::run(ctx, serve::Mode::Cold),
        other => unreachable!("unknown workload {other}"),
    };
    outcome.finish()
}

/// Runs `build` [`SETUP_REPS`] times and keeps the last state; returns
/// `setup_s`: process start to the first build, plus the median build.
/// `build` covers input generation, engine and server construction and
/// the untimed warm-up operation.
fn set_up<T>(ctx: &Ctx, mut build: impl FnMut() -> T) -> (f64, T) {
    let before = ctx.started.elapsed().as_secs_f64();
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..ctx.size(SETUP_REPS, 1) {
        // Drop the previous repetition first: servers release their ports
        // and threads, and peak memory is that of one set-up.
        drop(state.take());
        let t = Instant::now();
        state = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (before + stats::median(&times), state.expect("SETUP_REPS > 0"))
}

/// The timed window: open until `seconds` have passed since it began.
/// An operation in flight when it closes runs to completion.
struct Window {
    began: Instant,
    seconds: f64,
}

impl Window {
    fn begin(seconds: f64) -> Window {
        Window { began: Instant::now(), seconds }
    }

    fn open(&self) -> bool {
        self.began.elapsed().as_secs_f64() < self.seconds
    }
}

/// Times one call.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// The end-to-end metrics every workload reports, from its op times.
/// `ops_per_s` is completed operations over the time spent in them, so a
/// workload's second leg does not dilute it.
fn set_op_metrics(out: &mut Outcome, setup_s: f64, op_times: &[f64]) {
    out.set("setup_s", setup_s);
    out.set_median("op_p50_s", op_times);
    out.set("ops_per_s", op_times.len() as f64 / op_times.iter().sum::<f64>());
    note_tail(out, op_times);
}

/// Notes, beside the median, the highest percentile the sample supports.
fn note_tail(out: &mut Outcome, op_times: &[f64]) {
    if let Some((pct, value)) = stats::highest_supported_percentile(op_times) {
        out.notes.push(format!("op time p{pct} {value:.6} s over {} samples", op_times.len()));
    }
}

/// Peak resident set of this process in MiB (`VmHWM`). Read when the
/// timed window closes, before verification allocates its references.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// Moves `geo` by a seeded offset within ±[`OFFSET`] per axis.
fn placed(rng: &mut Rng, geo: &Geometry) -> Geometry {
    let mut offset = || OFFSET * (2.0 * rng.unit() - 1.0);
    structures::translated(geo, Point3::new(offset(), offset(), offset()))
}

/// The m×n crossing bus of Fig. 7 with seeded thickness and position.
fn jittered_bus(rng: &mut Rng, m: usize, n: usize) -> Geometry {
    let p = BusParams::default();
    let bus = structures::bus_crossing(
        m,
        n,
        BusParams { thickness: p.thickness * rng.jitter(JITTER), ..p },
    );
    placed(rng, &bus)
}

/// A row-major reply matrix as a [`Matrix`].
fn matrix_of(rows: &[Vec<f64>]) -> Matrix {
    Matrix::from_fn(rows.len(), rows.len(), |i, j| rows[i][j])
}

/// Share of a traced op no layer span may leave uncovered.
const ROOT_SELF_LIMIT: f64 = 0.05;

/// Closes a traced run: writes the spans, reports `trace.overhead_share`
/// (traced op time over the interleaved untraced op time, minus one) and
/// fails the run when the root spans' own self time — op time no layer
/// span covers — exceeds [`ROOT_SELF_LIMIT`] of the traced op time.
fn finish_trace(ctx: &Ctx, out: &mut Outcome, rec: &Recorder, untraced_op_times: &[f64]) {
    let path = ctx.out_dir.join(format!("trace-{}-{}.jsonl", ctx.workload.name, ctx.seed));
    let written = std::fs::create_dir_all(&ctx.out_dir).and_then(|()| rec.write_jsonl(&path));
    if let Err(e) = written {
        out.fail(format!("cannot write {}: {e}", path.display()));
    }
    let traced = rec.durations("op");
    out.set(
        "trace.overhead_share",
        stats::median(&traced) / stats::median(untraced_op_times) - 1.0,
    );
    out.samples.insert("trace.overhead_share", traced.len());
    let (self_ns, total_ns) = rec
        .spans()
        .iter()
        .zip(spans::self_times_ns(rec.spans()))
        .filter(|(s, _)| s.parent.is_none())
        .fold((0, 0), |(a, b), (s, self_ns)| (a + self_ns, b + s.duration_ns()));
    let uncovered = self_ns as f64 / total_ns.max(1) as f64;
    out.notes.push(format!("spans: {} (root self share {uncovered:.4})", path.display()));
    if uncovered > ROOT_SELF_LIMIT {
        out.fail(format!("root spans' self time is {uncovered:.3} of the traced ops"));
    }
}

/// `Extractor::new()`'s mesh resolution for the piecewise-constant
/// backends, which the rebuilt extractions must mesh at too; if the
/// default moves, their bit-identity check fails and says so.
const MESH_DIVISIONS: usize = 8;

/// Checks every result of a deterministic extraction: the invariants
/// (direct solves are symmetric to [`check::SYMMETRY_TOL`], iterative
/// ones only to their own accuracy), identity between repeats, and — for
/// the traced run — that the extraction rebuilt from public calls is
/// `Extractor::extract`'s, bit for bit. Returns the first result.
fn verify_repeats(
    out: &mut Outcome,
    ops: &[(f64, Extraction)],
    traced: &[Matrix],
    symmetry_tol: f64,
) -> Matrix {
    let first = ops[0].1.capacitance().matrix().clone();
    let same = |c: &Matrix, what: &str| {
        check::bit_identical(c.as_slice(), first.as_slice())
            .then_some(())
            .ok_or_else(|| what.to_string())
    };
    for (_, extraction) in ops {
        let c = extraction.capacitance().matrix();
        out.check(
            "op",
            check::invariants(c, symmetry_tol)
                .and_then(|()| same(c, "result differs between repeats")),
        );
    }
    for c in traced {
        out.check("traced op", same(c, "rebuilt extraction differs from Extractor::extract"));
    }
    first
}

/// `core.backend.*`: the prepare/solve split the extraction reports of
/// the untraced ops carry, summed over the extractions one op makes.
fn report_metrics(out: &mut Outcome, legs: &[&[(f64, Extraction)]]) {
    let per_op = |part: fn(&ExtractionReport) -> f64| -> Vec<f64> {
        (0..legs[0].len()).map(|k| legs.iter().map(|leg| part(leg[k].1.report())).sum()).collect()
    };
    out.set_median("core.backend.prepare_s", &per_op(|r| r.setup_seconds));
    out.set_median("core.backend.solve_s", &per_op(|r| r.solve_seconds));
}

/// Seconds for the full upper triangle of template-pair integrals, in
/// the order Algorithm 1 walks it.
fn pair_triangle_s(eng: &GalerkinEngine, index: &TemplateIndex) -> f64 {
    let (seconds, sum) = timed(|| {
        let mut sum = 0.0;
        for j in 0..index.template_count() {
            for i in 0..=j {
                sum += pair_integral(eng, index.template(i), index.template(j));
            }
        }
        sum
    });
    black_box(sum);
    seconds
}

fn mesh_metrics(out: &mut Outcome, rec: &Recorder, mesh: &Mesh) {
    out.set_median("geom.mesh.build_s", &rec.durations("geom.mesh.build"));
    out.set("geom.mesh.panels", mesh.panel_count() as f64);
}

/// `linalg.kernels.*`: the reduction and the update at the workload's
/// own vector length.
fn kernel_metrics(out: &mut Outcome, n: usize) {
    const ELEMENTS: usize = 1 << 24;
    let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 1e-3).collect();
    let mut y = vec![0.5; n];
    let reps = ELEMENTS / n.max(1) + 1;
    let (dot_s, sum) =
        timed(|| (0..reps).map(|_| kernels::dot(black_box(&x), black_box(&y))).sum::<f64>());
    black_box(sum);
    let (axpy_s, ()) = timed(|| {
        for _ in 0..reps {
            kernels::axpy(black_box(1e-9), black_box(&x), black_box(&mut y));
        }
    });
    black_box(&y);
    out.set("linalg.kernels.dot_ns_per_elem", dot_s * 1e9 / (reps * n) as f64);
    out.set("linalg.kernels.axpy_ns_per_elem", axpy_s * 1e9 / (reps * n) as f64);
}
