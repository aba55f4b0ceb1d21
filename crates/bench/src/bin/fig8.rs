//! Fig. 8: parallel efficiency vs number of processors (1–10) for
//!
//! * this work, shared-memory execution ("OpenMP");
//! * this work, distributed-memory execution ("MPI");
//! * the parallel fast-multipole baseline \[7\];
//! * the parallel precorrected-FFT baseline \[1\].
//!
//! All four curves come from *measured* single-thread phase costs replayed
//! on the deterministic machine simulator; the baselines run on the
//! cluster communication model of their original papers' era, this work's
//! curves on both models (see DESIGN.md §3).
//!
//! Paper reference: this work ≈ 91 % (OpenMP, 4) and 89 % (MPI, 10);
//! parallel FMM 65 % at 8; parallel pFFT 42 % at 8.
//!
//! Usage: `fig8 [bus_size]` (default 12 for this work's curves; the
//! baselines use a 2×2 bus with medium discretization, as their original
//! papers did).

use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::TemplateIndex;
use bemcap_core::{assembly, Extractor, Method};
use bemcap_fmm::parallel::{efficiency_curve as fmm_curve, FmmCostModel};
use bemcap_fmm::{FmmConfig, FmmOperator};
use bemcap_geom::{structures, Mesh};
use bemcap_par::{CommModel, MachineSim};
use bemcap_pfft::parallel::{efficiency_curve as pfft_curve, PfftCostModel};
use bemcap_pfft::{PfftConfig, PfftOperator};
use bemcap_quad::galerkin::GalerkinEngine;

const DS: [usize; 6] = [1, 2, 4, 6, 8, 10];

/// Baseline mesh resolution (as in \[1\]/\[7\]: a 2×2 bus, medium mesh).
const BASELINE_DIVISIONS: usize = 10;

fn main() {
    let size: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(12);

    // ---- this work: measured chunk costs on the size×size bus ----
    eprintln!("measuring this work's setup costs ({size}x{size} bus)...");
    let geo = structures::bus_crossing(size, size, structures::BusParams::default());
    let set = instantiate(&geo, &InstantiateConfig::default()).expect("basis");
    let index = TemplateIndex::new(&set);
    let eng = GalerkinEngine::default();
    let costs = assembly::measure_chunk_costs_best_of(&eng, &index, 8192, 2);
    let n = index.basis_count();
    let this_work = |comm: CommModel, partial: usize| -> Vec<(usize, f64)> {
        let t1 = MachineSim::new(1, comm).simulate_setup(&costs, 0, 5e-3, 5e-3).makespan;
        DS.iter()
            .map(|&d| {
                let r = MachineSim::new(d, comm).simulate_setup(
                    &costs,
                    if d > 1 { partial } else { 0 },
                    5e-3,
                    5e-3,
                );
                (d, r.efficiency(t1))
            })
            .collect()
    };
    let openmp = this_work(CommModel::shared_memory(), 0);
    let mpi = this_work(CommModel::cluster(), n * n * 8);

    // ---- baselines: 2×2 bus, medium discretization (as in [1]/[7]),
    // both driven through the unified backend path (`Extractor`), which
    // reports the honest setup/solve split and the Krylov iteration
    // counts the cost models replay ----
    eprintln!("measuring multipole baseline costs (2x2 bus)...");
    let geo2 = structures::bus_crossing(2, 2, structures::BusParams::default());
    let mesh2 = Mesh::uniform(&geo2, BASELINE_DIVISIONS);
    let fmm_out = Extractor::new()
        .method(Method::PwcFmm)
        .mesh_divisions(BASELINE_DIVISIONS)
        .extract(&geo2)
        .expect("fmm extraction");
    eprintln!("  {}", fmm_out.report());
    let fmm_setup = fmm_out.report().setup_seconds;
    let iterations = fmm_out.report().krylov.expect("fmm is iterative").iterations.max(1);
    // [7] parallelizes the near-field precomputation; the tree build
    // (~10 % of construction) stays serial. The shape (octree) and the
    // per-phase matvec costs come from a probe operator on the same mesh
    // (the extractor's internal operator is not exposed); several probe
    // matvecs keep the per-phase averages stable.
    let (fmm_serial, fmm_parallel) = (0.1 * fmm_setup, 0.9 * fmm_setup);
    let op = FmmOperator::new(&mesh2, 1.0, FmmConfig::default()).expect("fmm operator");
    {
        use bemcap_linalg::LinearOperator;
        let x = vec![1.0; mesh2.panel_count()];
        let mut y = vec![0.0; mesh2.panel_count()];
        for _ in 0..4 {
            op.apply(&x, &mut y);
        }
    }
    let times = op.timings();
    let fmm_costs = FmmCostModel {
        upward_per_node: times.upward / (times.count.max(1) * op.tree().len()) as f64,
        eval_per_target: (times.far + times.near)
            / (times.count.max(1) * mesh2.panel_count()) as f64,
        n: mesh2.panel_count(),
        iterations,
        serial_setup: fmm_serial,
        parallel_setup: fmm_parallel,
    };
    let fmm = fmm_curve(op.tree(), &fmm_costs, CommModel::cluster(), &DS);

    eprintln!("measuring pFFT baseline costs (2x2 bus)...");
    let pfft_out = Extractor::new()
        .method(Method::PwcPfft)
        .mesh_divisions(BASELINE_DIVISIONS)
        .extract(&geo2)
        .expect("pfft extraction");
    eprintln!("  {}", pfft_out.report());
    let pop = PfftOperator::new(&mesh2, 1.0, PfftConfig::default()).expect("pfft operator");
    let np = mesh2.panel_count();
    // Several probe matvecs to populate stable per-phase timings.
    {
        use bemcap_linalg::LinearOperator;
        let x = vec![1.0; np];
        let mut y = vec![0.0; np];
        for _ in 0..4 {
            pop.apply(&x, &mut y);
        }
    }
    let pt = pop.timings();
    let near_entries: usize = (np as f64 * 30.0) as usize;
    let pfft_costs = PfftCostModel {
        project_per_panel: pt.project / (pt.count.max(1) * np) as f64,
        fft_per_point: pt.fft / (pt.count.max(1) * pop.grid().fft_points()) as f64,
        precorrect_per_entry: pt.precorrect / (pt.count.max(1) * near_entries) as f64,
        n: np,
        grid_points: pop.grid().fft_points(),
        near_entries,
        iterations: pfft_out.report().krylov.expect("pfft is iterative").iterations.max(1),
        serial_setup: pfft_out.report().setup_seconds,
    };
    let pfft = pfft_curve(&pfft_costs, CommModel::cluster(), &DS);

    // ---- print the figure as a table ----
    println!("\nFig. 8: parallel efficiency (%) vs number of processors\n");
    println!(
        "{:>6} {:>16} {:>16} {:>20} {:>22}",
        "procs", "this work OpenMP", "this work MPI", "parallel FMM [7]", "parallel pFFT [1]"
    );
    for (i, &d) in DS.iter().enumerate() {
        println!(
            "{d:>6} {:>15.1}% {:>15.1}% {:>19.1}% {:>21.1}%",
            100.0 * openmp[i].1,
            100.0 * mpi[i].1,
            100.0 * fmm[i].1,
            100.0 * pfft[i].1
        );
    }
    println!("\npaper reference at 8–10 procs: this work ≈ 89–91 %, FMM 65 %, pFFT 42 %");
    bemcap_bench::write_record(
        "fig8",
        &serde_json::json!({
            "bus": size,
            "processors": DS,
            "openmp": openmp.iter().map(|p| p.1).collect::<Vec<_>>(),
            "mpi": mpi.iter().map(|p| p.1).collect::<Vec<_>>(),
            "fmm": fmm.iter().map(|p| p.1).collect::<Vec<_>>(),
            "pfft": pfft.iter().map(|p| p.1).collect::<Vec<_>>(),
        }),
    );
}
