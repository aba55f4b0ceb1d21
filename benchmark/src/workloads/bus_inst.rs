//! `bus_inst`: the paper's method on the Table 3 / Fig. 8 crossing bus.
//!
//! One op is `Extractor::new().method(InstantiableBasis).extract` at
//! `Parallelism::Sequential`; each op is followed by the same extraction
//! at `Threads(2)`, the leg behind `par_speedup` (interleaved, so drift
//! of the box hits both legs alike).

use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::TemplateIndex;
use bemcap_core::assembly::{assemble_phi, assemble_sequential, assemble_threaded};
use bemcap_core::extraction::Parallelism;
use bemcap_core::{Extraction, Extractor, Method};
use bemcap_geom::Geometry;
use bemcap_linalg::{LuFactor, Matrix};
use bemcap_par::pool;
use bemcap_quad::galerkin::GalerkinEngine;

use super::{
    finish_trace, jittered_bus, pair_triangle_s, peak_rss_mb, report_metrics, set_op_metrics,
    set_up, timed, verify_repeats, Ctx, Outcome, Window,
};
use crate::check;
use crate::spans::Recorder;
use crate::stats;

const THREADS: usize = 2;

struct Inputs {
    geo: Geometry,
    seq: Extractor,
    par: Extractor,
}

fn build(ctx: &Ctx) -> Inputs {
    let side = ctx.size(8, 2);
    let inputs = Inputs {
        geo: jittered_bus(&mut ctx.rng("bus_inst"), side, side),
        seq: Extractor::new().method(Method::InstantiableBasis),
        par: Extractor::new()
            .method(Method::InstantiableBasis)
            .parallelism(Parallelism::Threads(THREADS)),
    };
    // Warm-up op, both legs.
    inputs.seq.extract(&inputs.geo).expect("warm-up extraction");
    inputs.par.extract(&inputs.geo).expect("warm-up extraction");
    inputs
}

/// The extraction rebuilt from the layers' public calls, one span each.
/// `threads == 1` is the sequential op, otherwise the threaded leg.
fn traced_extract(rec: &mut Recorder, op_id: u64, geo: &Geometry, threads: usize) -> Matrix {
    let eng = GalerkinEngine::default();
    let root = rec.begin_op(op_id, if threads == 1 { "op" } else { "leg" });
    let set = rec
        .span("basis.instantiate", || instantiate(geo, &InstantiateConfig::default()))
        .expect("instantiate");
    let index = rec.span("basis.condense.index", || TemplateIndex::new(&set));
    let n_cond = geo.conductor_count();
    let asm = if threads == 1 {
        rec.span("core.assembly.sequential", || {
            assemble_sequential(&eng, &index, &set, n_cond, geo.eps_rel())
        })
    } else {
        let id = rec.enter("core.assembly.threaded");
        let (asm, workers) = assemble_threaded(&eng, &index, &set, n_cond, geo.eps_rel(), threads);
        let began = rec.spans()[id].start_ns;
        for w in &workers {
            rec.record("core.assembly.worker", began, began + (w.seconds * 1e9) as u64);
        }
        rec.exit(id);
        asm
    };
    let lu = rec.span("linalg.lu.factor", || LuFactor::new(asm.p)).expect("LU");
    let rho = rec.span("linalg.lu.solve", || lu.solve_matrix(&asm.phi)).expect("LU solve");
    let c = rec.span("linalg.matrix.matmul", || asm.phi.transpose().matmul(&rho)).expect("C");
    rec.exit(root);
    c
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, inp) = set_up(ctx, || build(ctx));

    let mut rec = Recorder::new();
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    let (mut traced_seq, mut traced_par) = (Vec::new(), Vec::new());
    let window = Window::begin(ctx.seconds);
    while window.open() {
        for (extractor, threads, plain, traced) in [
            (&inp.seq, 1, &mut seq, &mut traced_seq),
            (&inp.par, THREADS, &mut par, &mut traced_par),
        ] {
            match timed(|| extractor.extract(&inp.geo)) {
                (t, Ok(extraction)) => plain.push((t, extraction)),
                (_, Err(e)) => out.check("extract", Err(e.to_string())),
            }
            if ctx.trace {
                traced.push(traced_extract(&mut rec, traced.len() as u64, &inp.geo, threads));
            }
        }
    }
    let rss = peak_rss_mb();
    if seq.is_empty() || par.is_empty() {
        out.fail("no extraction completed".into());
        return out;
    }

    let seq_times: Vec<f64> = seq.iter().map(|r| r.0).collect();
    let par_times: Vec<f64> = par.iter().map(|r| r.0).collect();
    set_op_metrics(&mut out, setup_s, &seq_times);
    out.set("peak_rss_mb", rss);
    out.set("par_speedup", stats::median(&seq_times) / stats::median(&par_times));
    out.samples.insert("par_speedup", par_times.len());

    // Verification, after the window: every result of both legs, the
    // threaded leg against the sequential one (they differ by addition
    // order only), then the dense reference.
    let first = verify_repeats(&mut out, &seq, &traced_seq, check::SYMMETRY_TOL);
    let err = check::max_rel_err(
        &verify_repeats(&mut out, &par, &traced_par, check::SYMMETRY_TOL),
        &first,
    );
    out.check(
        "threaded leg",
        (err <= 1e-9).then_some(()).ok_or_else(|| format!("{err:e} off the sequential result")),
    );
    let reference =
        Extractor::new().method(Method::PwcDense).extract(&inp.geo).expect("dense reference");
    out.set_rel_err(ctx, check::max_rel_err(&first, reference.capacitance().matrix()));

    if ctx.trace {
        trace_metrics(ctx, &mut out, &rec, &inp, &seq);
    }
    out
}

/// Per-layer metrics: span medians of the rebuilt extraction, the
/// layers' own reports, and three micro-measurements on this geometry.
fn trace_metrics(
    ctx: &Ctx,
    out: &mut Outcome,
    rec: &Recorder,
    inp: &Inputs,
    seq: &[(f64, Extraction)],
) {
    finish_trace(ctx, out, rec, &seq.iter().map(|r| r.0).collect::<Vec<_>>());

    let eng = GalerkinEngine::default();
    let set = instantiate(&inp.geo, &InstantiateConfig::default()).expect("instantiate");
    let index = TemplateIndex::new(&set);
    let m = index.template_count();
    out.set("basis.instantiate.templates", m as f64);
    out.set("basis.instantiate.basis_fns", index.basis_count() as f64);
    out.set_median("basis.instantiate.s", &rec.durations("basis.instantiate"));
    out.set_median("basis.condense.index_s", &rec.durations("basis.condense.index"));

    let pairs = m * (m + 1) / 2;
    let pairs_s = stats::median(&[0; 3].map(|_| pair_triangle_s(&eng, &index)));
    out.set("quad.galerkin.pairs", pairs as f64);
    out.set("quad.galerkin.template_pair_ns", pairs_s * 1e9 / pairs as f64);
    let phi_s = stats::median(
        &(0..5)
            .map(|_| timed(|| assemble_phi(&eng, &set, inp.geo.conductor_count())).0)
            .collect::<Vec<_>>(),
    );
    let sequential_s =
        out.set_median("core.assembly.sequential_s", &rec.durations("core.assembly.sequential"));
    out.set("core.assembly.phi_s", phi_s);
    out.set("core.assembly.condense_s", sequential_s - pairs_s - phi_s);

    let workers = rec.durations("core.assembly.worker");
    let busy_max: Vec<f64> =
        workers.chunks(THREADS).map(|w| w.iter().copied().fold(0.0, f64::max)).collect();
    let imbalance: Vec<f64> = workers
        .chunks(THREADS)
        .map(|w| w.iter().copied().fold(0.0, f64::max) / (w.iter().sum::<f64>() / w.len() as f64))
        .collect();
    let threaded_s =
        out.set_median("core.assembly.threaded_s", &rec.durations("core.assembly.threaded"));
    let busy_max_s = out.set_median("core.assembly.worker_busy_max_s", &busy_max);
    out.set("core.assembly.merge_s", threaded_s - busy_max_s - phi_s);
    out.set_median("core.assembly.imbalance", &imbalance);
    let spawn_join: Vec<f64> =
        (0..20).map(|_| timed(|| pool::run_partitioned(THREADS, THREADS, |_, _| ())).0).collect();
    out.set_median("par.pool.spawn_join_s", &spawn_join);

    report_metrics(out, &[seq]);
}
