//! Table 3: time/speedup/efficiency of the setup step on the crossing-bus
//! workload — shared-memory (D = 1, 2, 4) and distributed-memory
//! (D = 1, 2, 4, 8, 10) — using measured per-chunk integral costs replayed
//! on the deterministic machine simulator (DESIGN.md §3: this host has one
//! core, so wall-clock multi-core numbers are not measurable directly; the
//! simulator consumes only *measured* quantities).
//!
//! Paper reference (24×24 bus): shared 40.5/21.7/11.1 s (91 % at 4);
//! distributed 44.1/22.7/12.3/6.04/4.95 s (89 % at 10).
//!
//! Usage: `table3 [bus_size]` (default 12; pass 24 for the paper's size).

use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::TemplateIndex;
use bemcap_core::assembly;
use bemcap_geom::structures;
use bemcap_par::trace::balance_of_partition;
use bemcap_par::{CommModel, MachineSim};
use bemcap_quad::galerkin::GalerkinEngine;

fn main() {
    let size: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(12);
    let geo = structures::bus_crossing(size, size, structures::BusParams::default());
    let set = instantiate(&geo, &InstantiateConfig::default()).expect("basis");
    let index = TemplateIndex::new(&set);
    let eng = GalerkinEngine::default();
    let k_total = index.template_count() * (index.template_count() + 1) / 2;
    println!(
        "Table 3: {size}x{size} bus — N = {}, M = {}, K = {k_total}\n",
        index.basis_count(),
        index.template_count()
    );

    eprintln!("measuring per-chunk integral costs (single thread)...");
    let chunks = 8192.min(k_total.max(1));
    let costs = assembly::measure_chunk_costs_best_of(&eng, &index, chunks, 2);
    let work: f64 = costs.iter().sum();
    eprintln!("total setup work: {:.2} s over {chunks} chunks\n", work);

    // Serial sections measured from the real pipeline: Φ assembly + LU
    // solve, plus input generation.
    let t = std::time::Instant::now();
    let asm = assembly::assemble_phi(&eng, &set, geo.conductor_count());
    let phi_seconds = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let p = {
        // Small synthetic SPD stand-in of the same size for solve timing.
        let n = index.basis_count();
        bemcap_linalg::Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else {
                1.0 / (1.0 + (i + j) as f64)
            }
        })
    };
    let lu = bemcap_linalg::LuFactor::new(p).expect("lu");
    let _ = lu.solve_matrix(&asm).expect("solve");
    let solve_seconds = t.elapsed().as_secs_f64();
    let n = index.basis_count();
    let partial_bytes = n * n * 8;

    // Full run phase list: serial Φ assembly + template broadcast, the
    // partitioned k-loop, the partial-matrix gather, then the dense solve.
    // The paper's solve runs on "multithreaded linear algebra libraries"
    // (§3), so it is modeled as a parallel phase at 75 % efficiency rather
    // than a serial section.
    let phases = |d: usize, comm: CommModel| -> Vec<bemcap_par::Phase> {
        use bemcap_par::Phase;
        let ranges = bemcap_par::partition_ranges(costs.len(), d);
        let node_costs: Vec<f64> = ranges.iter().map(|r| costs[r.clone()].iter().sum()).collect();
        let mut bytes = vec![if d > 1 { partial_bytes } else { 0 }; d];
        bytes[0] = 0;
        let _ = comm;
        vec![
            Phase::Serial { seconds: phi_seconds },
            Phase::Broadcast { bytes: 1024 },
            Phase::Parallel { costs_per_node: node_costs },
            Phase::GatherTo0 { bytes_per_node: bytes },
            Phase::Barrier,
            Phase::Parallel {
                costs_per_node: if d == 1 {
                    vec![solve_seconds]
                } else {
                    vec![solve_seconds / (0.75 * d as f64); d]
                },
            },
        ]
    };
    let mut records = Vec::new();
    for (label, comm, ds) in [
        ("Shared-memory system", CommModel::shared_memory(), vec![1usize, 2, 4]),
        ("Dist.-memory system", CommModel::cluster(), vec![1usize, 2, 4, 8, 10]),
    ] {
        println!("{label}:");
        println!("{:>6} {:>10} {:>9} {:>6} {:>11}", "nodes", "time", "speedup", "eff", "imbalance");
        let t1 = MachineSim::new(1, comm).simulate(&phases(1, comm)).makespan;
        for &d in &ds {
            let r = MachineSim::new(d, comm).simulate(&phases(d, comm));
            let bal = balance_of_partition(&costs, d);
            println!(
                "{d:>6} {:>9.3}s {:>8.2}x {:>5.1}% {:>11.3}",
                r.makespan,
                r.speedup(t1),
                100.0 * r.efficiency(t1),
                bal.imbalance
            );
            records.push(serde_json::json!({
                "system": label,
                "nodes": d,
                "seconds": r.makespan,
                "speedup": r.speedup(t1),
                "efficiency": r.efficiency(t1),
                "imbalance": bal.imbalance,
            }));
        }
        println!();
    }
    bemcap_bench::write_record(
        "table3",
        &serde_json::json!({
            "bus": size,
            "n_basis": index.basis_count(),
            "m_templates": index.template_count(),
            "setup_work_seconds": work,
            "rows": records,
        }),
    );
}
