//! `dense_lu`: dense piecewise-constant extraction, the workload of the
//! O(N³) factorization.
//!
//! One op is `Method::PwcDense` extract of bus 20×20 at the default mesh
//! divisions (N = 1360): `core::solver` dense fill, then `linalg::lu`.

use bemcap_core::solver::DensePwcSolver;
use bemcap_core::{Extraction, Extractor, KrylovConfig, Method};
use bemcap_geom::{Geometry, Mesh};
use bemcap_linalg::{LuFactor, Matrix};
use bemcap_par::{k_to_ij, triangle_size};
use bemcap_quad::galerkin::{GalerkinEngine, PanelShape};

use super::{
    finish_trace, jittered_bus, kernel_metrics, mesh_metrics, peak_rss_mb, report_metrics,
    set_op_metrics, set_up, timed, verify_repeats, Ctx, Outcome, Window, MESH_DIVISIONS,
};
use crate::check;
use crate::spans::Recorder;

/// Pair integrals timed for `quad.galerkin.panel_pair_ns`: an even stride
/// through the mesh's upper triangle, near and far pairs in proportion.
const PAIR_SAMPLE: usize = 100_000;

fn build(ctx: &Ctx) -> (Geometry, Extractor) {
    let side = ctx.size(20, 3);
    let geo = jittered_bus(&mut ctx.rng("dense_lu"), side, side);
    let extractor = Extractor::new().method(Method::PwcDense);
    extractor.extract(&geo).expect("warm-up extraction");
    (geo, extractor)
}

/// The extraction rebuilt from public calls: mesh, dense assembly, then
/// `solve_capacitance` opened up into its LU factor, solve and C = ΦᵀP⁻¹Φ.
fn traced_extract(rec: &mut Recorder, op_id: u64, geo: &Geometry) -> Matrix {
    let root = rec.begin_op(op_id, "op");
    let mesh = rec.span("geom.mesh.build", || Mesh::uniform(geo, MESH_DIVISIONS));
    let (p, phi) =
        rec.span("core.solver.dense_assemble", || DensePwcSolver.assemble_system(geo, &mesh, 1));
    let solve = rec.enter("core.solver.solve_capacitance");
    let lu = rec.span("linalg.lu.factor", || LuFactor::new(p)).expect("LU");
    let rho = rec.span("linalg.lu.solve", || lu.solve_matrix(&phi)).expect("LU solve");
    let c = rec.span("linalg.matrix.matmul", || phi.transpose().matmul(&rho)).expect("C");
    rec.exit(solve);
    rec.exit(root);
    c
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, (geo, extractor)) = set_up(ctx, || build(ctx));

    let mut rec = Recorder::new();
    let mut ops: Vec<(f64, Extraction)> = Vec::new();
    let mut traced: Vec<Matrix> = Vec::new();
    let window = Window::begin(ctx.seconds);
    while window.open() {
        match timed(|| extractor.extract(&geo)) {
            (t, Ok(extraction)) => ops.push((t, extraction)),
            (_, Err(e)) => out.check("extract", Err(e.to_string())),
        }
        if ctx.trace {
            traced.push(traced_extract(&mut rec, traced.len() as u64, &geo));
        }
    }
    let rss = peak_rss_mb();
    if ops.is_empty() {
        out.fail("no extraction completed".into());
        return out;
    }
    let op_times: Vec<f64> = ops.iter().map(|r| r.0).collect();
    set_op_metrics(&mut out, setup_s, &op_times);
    out.set("peak_rss_mb", rss);

    // Verification: an independent solver on the same mesh.
    let first = verify_repeats(&mut out, &ops, &traced, check::SYMMETRY_TOL);
    let tight = KrylovConfig { tol: 1e-8, ..KrylovConfig::default() };
    let reference = Extractor::new()
        .method(Method::PwcFmm)
        .krylov_config(tight)
        .extract(&geo)
        .expect("FMM reference");
    out.set_rel_err(ctx, check::max_rel_err(&first, reference.capacitance().matrix()));

    if ctx.trace {
        finish_trace(ctx, &mut out, &rec, &op_times);
        let mesh = Mesh::uniform(&geo, MESH_DIVISIONS);
        let n = mesh.panel_count();
        mesh_metrics(&mut out, &rec, &mesh);
        report_metrics(&mut out, &[&ops]);
        out.set_median(
            "core.solver.dense_assemble_s",
            &rec.durations("core.solver.dense_assemble"),
        );
        out.set_median(
            "core.solver.solve_capacitance_s",
            &rec.durations("core.solver.solve_capacitance"),
        );
        let factor_s = out.set_median("linalg.lu.factor_s", &rec.durations("linalg.lu.factor"));
        out.set_median("linalg.lu.solve_s", &rec.durations("linalg.lu.solve"));
        // Computed, not counted: 2N³/3 flops of an LU over the measured time.
        out.set("linalg.lu.factor_gflops", 2.0 * (n as f64).powi(3) / 3.0 / factor_s * 1e-9);
        kernel_metrics(&mut out, n);

        let eng = GalerkinEngine::default();
        let panels = mesh.panels();
        let total = triangle_size(n);
        let stride = (total / PAIR_SAMPLE).max(1);
        let (pairs_s, sum) = timed(|| {
            let mut sum = 0.0;
            for k in (0..total).step_by(stride) {
                let (i, j) = k_to_ij(k);
                sum += eng.panel_pair(
                    &panels[i].panel,
                    PanelShape::Flat,
                    &panels[j].panel,
                    PanelShape::Flat,
                );
            }
            sum
        });
        std::hint::black_box(sum);
        out.set("quad.galerkin.panel_pair_ns", pairs_s * 1e9 / total.div_ceil(stride) as f64);
    }
    out
}
