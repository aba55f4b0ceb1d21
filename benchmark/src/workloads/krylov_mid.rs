//! `krylov_mid`: the Fig. 8 baselines on one mesh.
//!
//! One op is a `PwcFmm` extract then a `PwcPfft` extract of bus 8×8
//! (N = 544): operator build and apply, `linalg::krylov`, and the
//! dot/axpy/spmv kernels; no LU and no templates.

use bemcap_core::{Extractor, KrylovConfig, Method};
use bemcap_fmm::{FmmConfig, FmmOperator, FmmSolver};
use bemcap_geom::{Geometry, Mesh};
use bemcap_linalg::{DiagonalPrecond, Matrix};
use bemcap_pfft::{PfftConfig, PfftOperator};

use super::{
    finish_trace, jittered_bus, kernel_metrics, mesh_metrics, peak_rss_mb, report_metrics,
    set_op_metrics, set_up, timed, verify_repeats, Ctx, Outcome, Window, MESH_DIVISIONS,
};
use crate::check;
use crate::spans::Recorder;

struct Inputs {
    geo: Geometry,
    fmm: Extractor,
    pfft: Extractor,
}

fn build(ctx: &Ctx) -> Inputs {
    let side = ctx.size(8, 2);
    let inputs = Inputs {
        geo: jittered_bus(&mut ctx.rng("krylov_mid"), side, side),
        fmm: Extractor::new().method(Method::PwcFmm),
        pfft: Extractor::new().method(Method::PwcPfft),
    };
    inputs.fmm.extract(&inputs.geo).expect("warm-up extraction");
    inputs.pfft.extract(&inputs.geo).expect("warm-up extraction");
    inputs
}

/// What one operator reports about one traced solve.
struct Solve {
    c: Matrix,
    iterations: usize,
    /// Seconds per operator apply, from the operator's own phase timings.
    apply_s: f64,
    /// Share of apply time in the phase the metric names (FMM near field,
    /// pFFT transforms).
    phase_share: f64,
    /// Solve time outside the operator: GMRES and the kernels under it.
    krylov_self_s: f64,
}

/// Both extractions rebuilt from public calls, with the extractor's
/// defaults: mesh, operator, Jacobi preconditioner from the operator's
/// diagonal, then the grouped GMRES solve on that operator.
fn traced_op(rec: &mut Recorder, op_id: u64, geo: &Geometry) -> (Solve, Solve) {
    let krylov = KrylovConfig::default();
    let n_cond = geo.conductor_count();
    let root = rec.begin_op(op_id, "op");

    let mesh = rec.span("geom.mesh.build", || Mesh::uniform(geo, MESH_DIVISIONS));
    let op = rec
        .span("fmm.operator.build", || FmmOperator::new(&mesh, geo.eps_rel(), FmmConfig::default()))
        .expect("FMM operator");
    let pre = DiagonalPrecond::new(op.inv_diag().to_vec());
    let solver = FmmSolver {
        config: FmmConfig::default(),
        tol: krylov.tol,
        restart: krylov.restart,
        max_iters: krylov.max_iters,
    };
    let (solve_s, solved) =
        timed(|| rec.span("fmm.solve", || solver.solve_prepared(&op, &mesh, n_cond, &pre)));
    let (c, stats) = solved.expect("FMM solve");
    let t = op.timings();
    let applies_s = t.upward + t.far + t.near;
    let fmm = Solve {
        c,
        iterations: stats.matvecs,
        apply_s: applies_s / t.count as f64,
        phase_share: t.near / applies_s,
        krylov_self_s: solve_s - applies_s,
    };

    let mesh = rec.span("geom.mesh.build", || Mesh::uniform(geo, MESH_DIVISIONS));
    let op = rec
        .span("pfft.operator.build", || {
            PfftOperator::new(&mesh, geo.eps_rel(), PfftConfig::default())
        })
        .expect("pFFT operator");
    let pre = DiagonalPrecond::new(op.inv_diag().to_vec());
    let (solve_s, solved) = timed(|| {
        rec.span("pfft.solve", || bemcap_pfft::solve_prepared(&op, &mesh, n_cond, &pre, &krylov))
    });
    let (c, stats) = solved.expect("pFFT solve");
    let t = op.timings();
    let applies_s = t.project + t.fft + t.precorrect;
    let pfft = Solve {
        c,
        iterations: stats.matvecs,
        apply_s: applies_s / t.count as f64,
        phase_share: t.fft / applies_s,
        krylov_self_s: solve_s - applies_s,
    };
    rec.exit(root);
    (fmm, pfft)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, inp) = set_up(ctx, || build(ctx));

    let mut rec = Recorder::new();
    let (mut fmm, mut pfft) = (Vec::new(), Vec::new());
    let mut traced: Vec<(Solve, Solve)> = Vec::new();
    let window = Window::begin(ctx.seconds);
    while window.open() {
        match (timed(|| inp.fmm.extract(&inp.geo)), timed(|| inp.pfft.extract(&inp.geo))) {
            ((tf, Ok(f)), (tp, Ok(p))) => {
                fmm.push((tf, f));
                pfft.push((tp, p));
            }
            ((_, f), (_, p)) => {
                let why = f.err().or(p.err()).expect("one extraction failed");
                out.check("extract", Err(why.to_string()));
            }
        }
        if ctx.trace {
            traced.push(traced_op(&mut rec, traced.len() as u64, &inp.geo));
        }
    }
    let rss = peak_rss_mb();
    if fmm.is_empty() {
        out.fail("no op completed".into());
        return out;
    }
    let op_times: Vec<f64> = fmm.iter().zip(&pfft).map(|(f, p)| f.0 + p.0).collect();
    set_op_metrics(&mut out, setup_s, &op_times);
    out.set("peak_rss_mb", rss);

    // Verification: both against the dense direct solve of the same mesh.
    let reference =
        Extractor::new().method(Method::PwcDense).extract(&inp.geo).expect("dense reference");
    let reference = reference.capacitance().matrix();
    let traced_fmm: Vec<Matrix> = traced.iter().map(|t| t.0.c.clone()).collect();
    let traced_pfft: Vec<Matrix> = traced.iter().map(|t| t.1.c.clone()).collect();
    let err_fmm = check::max_rel_err(
        &verify_repeats(&mut out, &fmm, &traced_fmm, ctx.workload.tolerance),
        reference,
    );
    let err_pfft = check::max_rel_err(
        &verify_repeats(&mut out, &pfft, &traced_pfft, ctx.workload.tolerance),
        reference,
    );
    out.set_rel_err(ctx, err_fmm.max(err_pfft));

    if ctx.trace {
        finish_trace(ctx, &mut out, &rec, &op_times);
        let mesh = Mesh::uniform(&inp.geo, MESH_DIVISIONS);
        mesh_metrics(&mut out, &rec, &mesh);
        kernel_metrics(&mut out, mesh.panel_count());
        report_metrics(&mut out, &[&fmm, &pfft]);
        let of =
            |f: &dyn Fn(&(Solve, Solve)) -> f64| -> Vec<f64> { traced.iter().map(f).collect() };
        out.set_median("fmm.operator.build_s", &rec.durations("fmm.operator.build"));
        out.set_median("fmm.operator.apply_s", &of(&|t| t.0.apply_s));
        out.set_median("fmm.operator.near_share", &of(&|t| t.0.phase_share));
        out.set("fmm.solve.iterations", traced[0].0.iterations as f64);
        out.set_median("pfft.operator.build_s", &rec.durations("pfft.operator.build"));
        out.set_median("pfft.operator.apply_s", &of(&|t| t.1.apply_s));
        out.set_median("pfft.operator.fft_share", &of(&|t| t.1.phase_share));
        out.set("pfft.solve.iterations", traced[0].1.iterations as f64);
        out.set(
            "linalg.krylov.iterations",
            (traced[0].0.iterations + traced[0].1.iterations) as f64,
        );
        out.set_median("linalg.krylov.self_s", &of(&|t| t.0.krylov_self_s + t.1.krylov_self_s));
    }
    out
}
