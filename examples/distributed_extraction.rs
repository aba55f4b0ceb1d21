//! The distributed-memory flow of Figs. 5–6 as the simulated parallel
//! machine replays it: each node evaluates its contiguous slice of the
//! distinct pair-key list, and nodes 1…D−1 send their values to node 0,
//! charged 8 B per value on a cluster link. The measured per-chunk costs
//! of the bus's pair evaluation are projected onto 1–10 nodes — the
//! model behind the distributed-memory rows of the `scoreboard` bin's
//! Table 3 (`cargo run --release -p bemcap-bench --bin scoreboard`).
//!
//! Run with: `cargo run --release --example distributed_extraction`

use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::{PairPlan, TemplateIndex};
use bemcap_core::assembly;
use bemcap_geom::structures;
use bemcap_par::{CommModel, MachineSim, Schedule};
use bemcap_quad::galerkin::GalerkinEngine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let geo = structures::bus_crossing(6, 6, structures::BusParams::default());
    let set = instantiate(&geo, &InstantiateConfig::default())?;
    let index = TemplateIndex::new(&set);
    let eng = GalerkinEngine::default();
    println!(
        "6x6 bus: N = {}, M = {}, K = M(M+1)/2 = {}\n",
        index.basis_count(),
        index.template_count(),
        index.template_count() * (index.template_count() + 1) / 2
    );

    // Measured per-chunk costs → simulated 1..10-node distributed machine.
    let costs = assembly::measure_chunk_costs_best_of(&eng, &index, 512, 1);
    let distinct = PairPlan::new(&index).distinct();
    let serial = 0.02 * costs.iter().sum::<f64>(); // parse+allocate+solve share
    let simulate = |d| {
        MachineSim::new(d, CommModel::cluster()).simulate_setup(
            Schedule::Gathered,
            &costs,
            distinct,
            serial / 2.0,
            serial / 2.0,
        )
    };
    let t1 = simulate(1).makespan;
    println!("simulated distributed-memory scaling (cluster comm model):");
    println!("{:>6} {:>10} {:>9} {:>6}", "nodes", "time", "speedup", "eff");
    for d in [1usize, 2, 4, 8, 10] {
        let r = simulate(d);
        println!(
            "{d:>6} {:>9.4}s {:>8.2}x {:>5.1}%",
            r.makespan,
            r.speedup(t1),
            100.0 * r.efficiency(t1)
        );
    }
    Ok(())
}
