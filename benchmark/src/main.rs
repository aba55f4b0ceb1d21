//! The repo benchmark: six workloads, nine end-to-end metrics, a
//! per-layer ledger and a traced run. See README.md beside Cargo.toml.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! benchmark run   [--seed N] [--seconds S] [--runs K] [--out FILE]   every workload, untraced
//! benchmark trace [--seed N] [--seconds S] [--out FILE]              every workload, traced
//! benchmark compare A B     verdict per workload x end-to-end metric
//! benchmark baseline SET --commit C   the set's summary, as kept in baseline.json
//! benchmark list [--json]   the metric table (or BENCHMARK.json)
//! ```

mod check;
mod compare;
mod record;
mod rng;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use workloads::Ctx;

/// Where span files and run sets go unless `--out` says otherwise;
/// `.gitignore` names it.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]\n\
                     \x20      benchmark run|trace [--seed N] [--seconds S] [--runs K] [--out FILE]\n\
                     \x20      benchmark compare A B\n\
                     \x20      benchmark baseline SET --commit C\n\
                     \x20      benchmark list [--json]";

/// `--flag value` pairs and bare switches after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().position(|a| a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("bad value '{raw}' for {flag}")),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.0.iter().any(|a| a == switch)
    }
}

/// One workload in this process: the form the driver invokes.
fn single(flags: &Flags, started: Instant) -> Result<ExitCode, String> {
    let name = flags.value("--workload").ok_or("--workload needs a name")?;
    let workload = spec::workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seconds: f64 = flags.parsed("--seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let ctx = Ctx {
        workload,
        seed: flags.parsed("--seed", 1)?,
        seconds,
        trace: match flags.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
        },
        smoke: flags.has("--smoke"),
        started,
        out_dir: PathBuf::from(OUT_DIR),
    };
    // The default pool is pinned so a caller's environment cannot change
    // what is measured; nothing has read it yet and no thread runs.
    std::env::set_var("BEMCAP_POOL", "1");
    let record = record::Record::new(&ctx, workloads::run(&ctx));
    println!("record {}", record.to_json());
    println!("{}", record.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => record::run_all(&Flags(args.split_off(1)), false),
        Some("trace") => record::run_all(&Flags(args.split_off(1)), true),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.to_string()),
        },
        Some("baseline") => match &args[1..] {
            [set, flag, commit] if flag == "--commit" => compare::baseline(set.as_ref(), commit),
            _ => Err(USAGE.to_string()),
        },
        Some("list") => {
            if args.iter().any(|a| a == "--json") {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&spec::benchmark_json()).expect("serializes")
                );
            } else {
                spec::print_list();
            }
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") && flag != "--help" => single(&Flags(args), started),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("benchmark: {msg}");
        ExitCode::from(2)
    })
}
