//! The crossing-bus workload of Table 3 / Fig. 8, at a configurable size
//! (default 8×8 so the example runs in seconds; pass `24` for the paper's
//! 24×24).
//!
//! Extracts the bus capacitance with the instantiable-basis solver using
//! sequential and threaded setup, and prints the timing comparison.
//!
//! Run with: `cargo run --release --example bus_crossing [size]`

use bemcap::prelude::*;
use bemcap_core::extraction::Parallelism;
use bemcap_core::Method;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let size: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let geo = structures::bus_crossing(size, size, structures::BusParams::default());
    println!("{size}x{size} crossing bus: {} conductors\n", geo.conductor_count());

    let base = Extractor::new().method(Method::InstantiableBasis);
    let runs = [("sequential", Parallelism::Sequential), ("2 threads", Parallelism::Threads(2))];
    let mut first: Option<Extraction> = None;
    for (label, par) in runs {
        let out = base.clone().parallelism(par).extract(&geo)?;
        let r = out.report();
        println!(
            "{label:>10}:  N = {:4}  M = {:4}  setup {:8.3} ms  solve {:6.3} ms",
            r.n,
            r.m_templates.unwrap_or(0),
            r.setup_seconds * 1e3,
            r.solve_seconds * 1e3,
        );
        // Capacitance must be identical across execution modes.
        match &first {
            Some(f) => {
                let (c00, f00) = (out.capacitance().get(0, 0), f.capacitance().get(0, 0));
                assert!((c00 - f00).abs() < 1e-9 * f00.abs(), "parallel modes disagree");
            }
            None => first = Some(out),
        }
    }

    // A peek at the sequential run's matrix: nearest-neighbor coupling on
    // the lower layer and cross-layer coupling.
    let out = first.expect("the sequential run");
    let c = out.capacitance();
    println!("\nself capacitance of wire mx0: {:.4e} F", c.get(0, 0));
    println!("lateral coupling mx0-mx1:     {:.4e} F", c.get(0, 1));
    println!("cross-layer coupling mx0-my0: {:.4e} F", c.get(0, size));
    println!("matrix asymmetry: {:.2e}", c.asymmetry());
    Ok(())
}
