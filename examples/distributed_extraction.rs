//! The distributed-memory flow of Figs. 5–6, shown explicitly: each rank
//! evaluates its contiguous slice of the distinct pair-key list, ranks
//! 1…r−1 send their values to rank 0 over the message-passing runtime, and
//! rank 0 accumulates P exactly as the sequential assembly does (the
//! printed diff is 0). The simulated parallel machine then projects the
//! measured costs onto a 10-node cluster — how the Table 3
//! distributed-memory column is produced.
//!
//! Run with: `cargo run --release --example distributed_extraction`

use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::TemplateIndex;
use bemcap_core::assembly;
use bemcap_geom::structures;
use bemcap_par::{CommModel, MachineSim};
use bemcap_quad::galerkin::GalerkinEngine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let geo = structures::bus_crossing(6, 6, structures::BusParams::default());
    let set = instantiate(&geo, &InstantiateConfig::default())?;
    let index = TemplateIndex::new(&set);
    let eng = GalerkinEngine::default();
    let n_cond = geo.conductor_count();
    println!(
        "6x6 bus: N = {}, M = {}, K = M(M+1)/2 = {}\n",
        index.basis_count(),
        index.template_count(),
        index.template_count() * (index.template_count() + 1) / 2
    );

    // Real message-passing execution with 3 in-process ranks.
    let seq = assembly::assemble_sequential(&eng, &index, &set, n_cond, geo.eps_rel());
    let dist = assembly::assemble_distributed(&eng, &index, &set, n_cond, geo.eps_rel(), 3);
    let diff = (&seq.p - &dist.p).max_abs() / seq.p.max_abs();
    println!("3-rank message-passing assembly matches sequential: max rel diff {diff:.2e}");

    // Measured per-chunk costs → simulated 1..10-node distributed machine.
    let costs = assembly::measure_chunk_costs_best_of(&eng, &index, 512, 1);
    let n = index.basis_count();
    let partial_bytes = n * n * 8; // the paper's per-node partial matrix, an upper bound
    let serial = 0.02 * costs.iter().sum::<f64>(); // parse+allocate+solve share
    let t1 = MachineSim::new(1, CommModel::cluster())
        .simulate_setup(&costs, 0, serial / 2.0, serial / 2.0)
        .makespan;
    println!("\nsimulated distributed-memory scaling (cluster comm model):");
    println!("{:>6} {:>10} {:>9} {:>6}", "nodes", "time", "speedup", "eff");
    for d in [1usize, 2, 4, 8, 10] {
        let r = MachineSim::new(d, CommModel::cluster()).simulate_setup(
            &costs,
            partial_bytes,
            serial / 2.0,
            serial / 2.0,
        );
        println!(
            "{d:>6} {:>9.4}s {:>8.2}x {:>5.1}%",
            r.makespan,
            r.speedup(t1),
            100.0 * r.efficiency(t1)
        );
    }
    Ok(())
}
