//! Coupling capacitance vs wire separation h on the Fig. 1 crossing pair:
//! the engineering curve behind the paper's h-parameterized arch templates
//! (§2.2, Fig. 2's a(h), b(h) laws), produced as a batch family run
//! (`BatchExtractor::extract_family` + `BatchResult::entry_curve`).
//!
//! Run with: `cargo run --release --example coupling_sweep`

use bemcap_core::{BatchExtractor, Extractor};
use bemcap_geom::structures::{self, CrossingParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hs: Vec<f64> = (1..=8).map(|i| 0.25e-6 * i as f64).collect();
    let family = BatchExtractor::new(Extractor::new()).extract_family(&hs, |h| {
        structures::crossing_wires(CrossingParams { separation: h, ..Default::default() })
    })?;
    let curve = family.entry_curve(0, 1);
    println!("crossing-wire coupling capacitance vs separation h\n");
    println!("{:>10} {:>14} {:>10}", "h (µm)", "C01 (aF)", "");
    let max = curve.iter().map(|(_, c)| c.abs()).fold(0.0_f64, f64::max);
    for (h, c) in &curve {
        let bar = "#".repeat((c.abs() / max * 40.0) as usize);
        println!("{:>10.2} {:>14.2} {bar}", h * 1e6, c.abs() * 1e18);
    }
    // The coupling must decay monotonically and slower than 1/h
    // (fringing): check the logarithmic slope.
    let slope = ((curve[7].1 / curve[0].1).abs()).ln() / (hs[7] / hs[0]).ln();
    println!("\nlog-log slope over the sweep: {slope:.2} (plate model would be −1)");
    Ok(())
}
