//! The record of one run, its two printed forms, and the `run`/`trace`
//! subcommands that collect records from fresh child processes.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde_json::{json, Value};

use crate::spec::{self, Metric};
use crate::workloads::{Ctx, Outcome};
use crate::{stats, Flags, OUT_DIR};

/// One run as written to a run set (one JSON object per line).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub nproc: usize,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub samples: BTreeMap<String, usize>,
    pub notes: Vec<String>,
}

/// The metrics a run in this mode must report.
fn required(trace: bool) -> Vec<&'static Metric> {
    if trace {
        spec::traced().collect()
    } else {
        spec::END_TO_END.iter().collect()
    }
}

impl Record {
    /// Closes a run: checks that the outcome holds every metric the mode
    /// declares for this workload, finite, and none declared elsewhere.
    pub fn new(ctx: &Ctx, outcome: Outcome) -> Record {
        let workload = ctx.workload.name;
        let mut notes = outcome.notes;
        let mut complete = true;
        for m in required(ctx.trace).into_iter().filter(|m| m.applies_to(workload)) {
            if !outcome.metrics.get(m.name).is_some_and(|v| v.is_finite()) {
                complete = false;
                notes.push(format!("metric {} is missing or not finite", m.name));
            }
        }
        for name in outcome.metrics.keys() {
            let declared =
                spec::END_TO_END.iter().chain(&spec::PER_LAYER).find(|m| m.name == *name);
            if !declared.is_some_and(|m| m.applies_to(workload)) {
                complete = false;
                notes.push(format!("metric {name} is not declared on {workload}"));
            }
        }
        Record {
            workload: workload.to_string(),
            seed: ctx.seed,
            seconds: ctx.seconds,
            trace: ctx.trace,
            smoke: ctx.smoke,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            correct: complete && outcome.failed == 0 && outcome.attempted > 0,
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics: outcome.metrics.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            samples: outcome.samples.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            notes,
        }
    }

    pub fn to_json(&self) -> String {
        let v = json!({
            "workload": self.workload.as_str(),
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "smoke": self.smoke,
            "nproc": self.nproc,
            "pool": 1,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(self.metrics.iter().map(|(k, v)| (k.clone(), Value::from(*v))).collect()),
            "samples": Value::Object(self.samples.iter().map(|(k, v)| (k.clone(), Value::from(*v))).collect()),
            "notes": Value::Array(self.notes.iter().map(Value::from).collect())
        });
        serde_json::to_string(&v).expect("serializes")
    }

    pub fn from_json(line: &str) -> Result<Record, String> {
        let v = serde_json::from_str(line).map_err(|e| format!("bad record: {e}"))?;
        let field = |name: &str| v.get(name).ok_or_else(|| format!("record lacks '{name}'"));
        let number =
            |name: &str| field(name)?.as_f64().ok_or_else(|| format!("'{name}' is not a number"));
        let boolean =
            |name: &str| field(name)?.as_bool().ok_or_else(|| format!("'{name}' is not a boolean"));
        let map = |name: &str| -> Result<BTreeMap<String, f64>, String> {
            match field(name)? {
                Value::Object(entries) => entries
                    .iter()
                    .map(|(k, x)| {
                        Ok((k.clone(), x.as_f64().ok_or_else(|| format!("'{k}' is not a number"))?))
                    })
                    .collect(),
                _ => Err(format!("'{name}' is not an object")),
            }
        };
        Ok(Record {
            workload: field("workload")?.as_str().ok_or("'workload' is not a string")?.to_string(),
            seed: number("seed")? as u64,
            seconds: number("seconds")?,
            trace: boolean("trace")?,
            smoke: boolean("smoke")?,
            nproc: number("nproc")? as usize,
            correct: boolean("correct")?,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            metrics: map("metrics")?,
            samples: map("samples")?.into_iter().map(|(k, x)| (k, x as usize)).collect(),
            notes: field("notes")?
                .as_array()
                .ok_or("'notes' is not an array")?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
        })
    }

    /// The last line of a run's standard output, in the driver's shape:
    /// exactly the metrics `BENCHMARK.json` declares for the mode. Its
    /// schema is flat, so a traced metric this workload does not measure
    /// reads 0 there (the record itself leaves it out).
    pub fn contract_line(&self) -> String {
        let declared: Vec<&Metric> =
            if self.trace { spec::traced().collect() } else { spec::gated().collect() };
        let metrics = declared
            .into_iter()
            .map(|m| {
                let value = self.metrics.get(m.name).copied().unwrap_or(0.0);
                (m.name.to_string(), json!({ "value": value, "unit": m.unit }))
            })
            .collect();
        let v = json!({
            "correct": self.correct,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics)
        });
        serde_json::to_string(&v).expect("serializes")
    }
}

/// Reads a run set: one record per line.
pub fn read_set(path: &std::path::Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines().filter(|l| !l.trim().is_empty()).map(Record::from_json).collect()
}

/// `benchmark run` / `benchmark trace`: every workload, each run in a
/// fresh child process (a re-exec of this binary in the driver's form),
/// so caches, pools, the metrics registry and peak RSS start clean.
/// `--runs K` makes K rounds over the workloads with seeds N, N+1, ...;
/// records are appended to `--out`.
pub fn run_all(flags: &Flags, trace: bool) -> Result<ExitCode, String> {
    let seed: u64 = flags.parsed("--seed", 1)?;
    let seconds: f64 = flags.parsed("--seconds", spec::RUN_SECONDS as f64)?;
    let runs: u64 = flags.parsed("--runs", 1)?;
    let mode = if trace { "trace" } else { "run" };
    let out = flags
        .value("--out")
        .map_or_else(|| PathBuf::from(OUT_DIR).join(format!("{mode}-{seed}.jsonl")), PathBuf::from);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut records = Vec::new();
    for round in 0..runs {
        for w in &spec::WORKLOADS {
            let mut child = Command::new(&exe);
            child.args(["--workload", w.name, "--seed", &(seed + round).to_string()]).args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]);
            if flags.has("--smoke") {
                child.arg("--smoke");
            }
            let output =
                child.output().map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout
                .lines()
                .find_map(|l| l.strip_prefix("record "))
                .ok_or_else(|| format!("{} printed no record (exit {})", w.name, output.status))?;
            let record = Record::from_json(line)?;
            writeln!(file, "{line}").map_err(|e| format!("{}: {e}", out.display()))?;
            println!(
                "{:<11} seed {:<4} {} ({} ops, {} failed)",
                record.workload,
                record.seed,
                if record.correct { "ok" } else { "INCORRECT" },
                record.attempted,
                record.failed
            );
            for note in &record.notes {
                println!("    {note}");
            }
            records.push(record);
        }
    }
    print_summary(&records, trace);
    println!("\nrecords appended to {}", out.display());
    Ok(if records.iter().all(|r| r.correct) { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Median of every metric over the runs just made, per workload.
fn print_summary(records: &[Record], trace: bool) {
    for w in &spec::WORKLOADS {
        let of: Vec<&Record> = records.iter().filter(|r| r.workload == w.name).collect();
        println!("\n{} ({} runs)", w.name, of.len());
        for m in required(trace).into_iter().filter(|m| m.applies_to(w.name)) {
            let values: Vec<f64> =
                of.iter().filter_map(|r| r.metrics.get(m.name).copied()).collect();
            if values.is_empty() {
                continue;
            }
            let samples = of.iter().filter_map(|r| r.samples.get(m.name)).min();
            let beside = samples.map_or(String::new(), |n| format!("  (>= {n} samples per run)"));
            println!("  {:<34} {:>14.6} {}{beside}", m.name, stats::median(&values), m.unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Every workload at `--smoke` size, untraced and traced: the run is
    /// correct, which includes that every metric the mode declares for the
    /// workload is there and finite and none declared elsewhere is, and the
    /// driver's line carries exactly the declared names.
    #[test]
    fn smoke_runs_emit_every_declared_metric() {
        let began = Instant::now();
        for workload in &spec::WORKLOADS {
            for trace in [false, true] {
                let ctx = Ctx {
                    workload,
                    seed: 3,
                    seconds: 0.05,
                    trace,
                    smoke: true,
                    started: Instant::now(),
                    out_dir: PathBuf::from(OUT_DIR).join("smoke"),
                };
                let record = Record::new(&ctx, crate::workloads::run(&ctx));
                assert!(record.correct, "{} trace={trace}: {:?}", workload.name, record.notes);
                let line =
                    serde_json::from_str(&record.contract_line()).expect("contract line parses");
                let Some(Value::Object(metrics)) = line.get("metrics") else {
                    panic!("no metrics object")
                };
                let declared: Vec<&str> = if trace {
                    spec::traced().map(|m| m.name).collect()
                } else {
                    spec::gated().map(|m| m.name).collect()
                };
                assert_eq!(metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), declared);
                if !trace {
                    assert!(metrics
                        .iter()
                        .all(|(_, m)| m["value"].as_f64().is_some_and(|v| v > 0.0)));
                }
            }
        }
        assert!(began.elapsed().as_secs_f64() < 30.0, "smoke sizes have grown");
    }

    #[test]
    fn records_round_trip_through_json() {
        let record = Record {
            workload: "bus_inst".into(),
            seed: 7,
            seconds: 0.25,
            trace: true,
            smoke: true,
            nproc: 2,
            correct: false,
            attempted: 12,
            failed: 1,
            metrics: [
                ("op_p50_s".to_string(), 0.123456789),
                ("quad.galerkin.pairs".to_string(), 55.0),
            ]
            .into(),
            samples: [("op_p50_s".to_string(), 9)].into(),
            notes: vec!["reference: \"quoted\" reason".into()],
        };
        assert_eq!(Record::from_json(&record.to_json()), Ok(record));
    }
}
