//! Cross-crate consistency of the parallel machinery: every execution
//! mode of Algorithm 1 produces the same system, the index math agrees
//! between crates, and the simulated machine reproduces the analytic
//! Amdahl limits.

use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::{PairPlan, TemplateIndex};
use bemcap_core::assembly;
use bemcap_geom::structures;
use bemcap_par::{k_to_ij, triangle_size, CommModel, MachineSim, Phase, Schedule};
use bemcap_quad::galerkin::GalerkinEngine;

#[test]
fn all_assembly_modes_bitwise_close() {
    let geo = structures::bus_crossing(2, 3, structures::BusParams::default());
    let set = instantiate(&geo, &InstantiateConfig::default()).expect("basis");
    let index = TemplateIndex::new(&set);
    let eng = GalerkinEngine::default();
    let nc = geo.conductor_count();
    let seq = assembly::assemble_sequential(&eng, &index, &set, nc, 1.0);
    let bits =
        |p: &bemcap_linalg::Matrix| p.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for workers in [2, 3, 5] {
        let (thr, timings) = assembly::assemble_threaded(&eng, &index, &set, nc, 1.0, workers);
        assert_eq!(timings.len(), workers);
        assert_eq!(bits(&thr.p), bits(&seq.p), "threads={workers}");
    }
}

#[test]
fn labels_are_monotone_so_distributed_columns_work() {
    // Labels are nondecreasing in template order, so every upper-triangle
    // pair (i ≤ j) lands in P's upper triangle (l_i ≤ l_j): the paper's
    // per-rank partial matrices (Fig. 5) span contiguous column ranges.
    // The assembly does not depend on it, since the accumulation writes
    // both triangles of P from the pair values.
    let geo = structures::bus_crossing(3, 3, structures::BusParams::default());
    let set = instantiate(&geo, &InstantiateConfig::default()).expect("basis");
    let index = TemplateIndex::new(&set);
    for t in 1..index.template_count() {
        assert!(index.label(t - 1) <= index.label(t));
    }
    // And the k-loop covers the full triangle.
    let m = index.template_count();
    let last = triangle_size(m) - 1;
    assert_eq!(k_to_ij(last), (m - 1, m - 1));
}

#[test]
fn machine_sim_matches_amdahl_closed_form() {
    for d in [2usize, 4, 8] {
        for serial_frac in [0.05, 0.2] {
            let total = 10.0;
            let serial = serial_frac * total;
            let parallel = total - serial;
            let phases1 = [
                Phase::Serial { seconds: serial },
                Phase::Parallel { costs_per_node: vec![parallel] },
            ];
            let t1 = MachineSim::new(1, CommModel::shared_memory()).simulate(&phases1).makespan;
            let phases_d = [
                Phase::Serial { seconds: serial },
                Phase::Parallel { costs_per_node: vec![parallel / d as f64; d] },
            ];
            let rd = MachineSim::new(d, CommModel::shared_memory()).simulate(&phases_d);
            let expect = 1.0 / (serial_frac + (1.0 - serial_frac) / d as f64);
            assert!(
                (rd.speedup(t1) - expect).abs() < 1e-9,
                "d={d} f={serial_frac}: {} vs {expect}",
                rd.speedup(t1)
            );
        }
    }
}

#[test]
fn measured_chunk_costs_drive_high_efficiency() {
    // End-to-end Table 3 pipeline on a small bus: measure chunk costs,
    // simulate D nodes, and require the paper's qualitative result —
    // high efficiency for the embarrassingly parallel setup.
    let geo = structures::bus_crossing(4, 4, structures::BusParams::default());
    let set = instantiate(&geo, &InstantiateConfig::default()).expect("basis");
    let index = TemplateIndex::new(&set);
    let eng = GalerkinEngine::default();
    // Best of three sweeps: one preempted chunk would otherwise pose as
    // imbalance (this test shares the host with the rest of the suite).
    let costs = assembly::measure_chunk_costs_best_of(&eng, &index, 512, 3);
    let distinct = PairPlan::new(&index).distinct();
    // Ranks gather their contiguous slices over the cluster; threads
    // self-schedule chunks in shared memory.
    let schedules = [
        (Schedule::Gathered, CommModel::cluster()),
        (Schedule::SelfScheduled, CommModel::shared_memory()),
    ];
    for (schedule, comm) in schedules {
        let simulate =
            |d| MachineSim::new(d, comm).simulate_setup(schedule, &costs, distinct, 0.0, 0.0);
        let t1 = simulate(1).makespan;
        // Thresholds are loose because this small bus has few entries and
        // the costs are measured in a debug build on a shared host:
        // partition granularity and timer noise dominate at high D.
        for (d, floor) in [(2usize, 0.75), (4, 0.65), (8, 0.5), (10, 0.45)] {
            let eff = simulate(d).efficiency(t1);
            assert!(eff > floor, "{schedule:?} d={d}: efficiency {eff}");
        }
    }
}
