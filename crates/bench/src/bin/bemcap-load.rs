//! `bemcap-load` — load generator for the `bemcapd` extraction daemon.
//!
//! Replays a mixed scenario family — an h-sweep, per-net width corners,
//! and multi-net buses — from N concurrent clients and reports per-pass
//! throughput and latency percentiles. Pass 0 runs against a cold daemon
//! cache; later passes hit the warmed process-lifetime `TemplateCache`,
//! so the cold→warm latency drop is the serving-side measurement of the
//! paper's reusable-setup economics.
//!
//! With `--overload`, the generator switches to an open-loop overload
//! scenario instead: more concurrent clients than the daemon has queue
//! slots fire identical-configuration requests back to back, and the
//! run reports the `busy` rejection fraction and the latency
//! percentiles of the admitted requests.
//!
//! It drives a running daemon (or a `bemcaprd` front tier), named by
//! `--addr`; the daemon keeps its own worker, queue and cache settings:
//!
//! ```text
//! cargo run --release -p bemcap-bench --bin bemcap-load -- \
//!     --addr HOST:PORT [--clients N] [--passes N]
//!     [--overload] [--requests N] [--metrics] [--shutdown]
//! ```
//!
//! `--metrics` scrapes the daemon's v5 `metrics` op before and after the
//! run and prints each counter's delta plus the final Prometheus text
//! exposition — the greppable proof that the instrumentation moved.
//!
//! It drives the CI serving smokes: release binaries over real sockets,
//! a router included via `--addr`. Timed serving numbers, the router
//! tier's affinity and relay cost among them, come from the benchmark's
//! `serve_*` workloads (`benchmark/README.md`).

use std::process::ExitCode;
use std::time::Instant;

use bemcap_geom::structures::{self, BusParams, CrossingParams};
use bemcap_geom::Geometry;
use bemcap_serve::{Client, ExtractOptions, MetricsReply, ServeError};

/// Formats seconds adaptively (ns/µs/ms/s).
fn fmt_seconds(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.0} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

const USAGE: &str = "usage: bemcap-load --addr HOST:PORT [--clients N] [--passes N] \
                     [--overload] [--requests N] [--metrics] [--shutdown]";

struct Args {
    addr: String,
    clients: usize,
    passes: usize,
    overload: bool,
    requests: usize,
    metrics: bool,
    shutdown: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            addr: String::new(),
            clients: 4,
            passes: 2,
            overload: false,
            requests: 40,
            metrics: false,
            shutdown: false,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value\n{USAGE}"));
        let positive = |name: &str, raw: String| {
            raw.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{name} needs a positive integer\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--clients" => args.clients = positive("--clients", value("--clients")?)?,
            "--passes" => args.passes = positive("--passes", value("--passes")?)?,
            "--overload" => args.overload = true,
            "--requests" => args.requests = positive("--requests", value("--requests")?)?,
            "--metrics" => args.metrics = true,
            "--shutdown" => args.shutdown = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    if args.addr.is_empty() {
        return Err(format!("--addr is required\n{USAGE}"));
    }
    Ok(args)
}

/// The mixed scenario family: one h-sweep, one per-net width-corner
/// enumeration, and a handful of multi-net buses — the three workload
/// shapes a production extraction service sees, interleaved.
fn scenarios() -> Vec<(String, Geometry)> {
    let mut out = Vec::new();
    // Sweep family: crossing wires over separation.
    for i in 0..6 {
        let h = 0.3e-6 + 0.2e-6 * i as f64;
        out.push((
            format!("sweep/h={h:.1e}"),
            structures::crossing_wires(CrossingParams { separation: h, ..Default::default() }),
        ));
    }
    // Corner family: a 2×2 bus with the wire width at process corners.
    for (name, factor) in [("slow", 0.93), ("nominal", 1.0), ("fast", 1.07)] {
        let p = BusParams::default();
        out.push((
            format!("corner/{name}"),
            structures::bus_crossing(2, 2, BusParams { width: p.width * factor, ..p }),
        ));
    }
    // Multi-net buses of growing size.
    for (m, n) in [(2, 2), (2, 3), (3, 3)] {
        out.push((format!("bus/{m}x{n}"), structures::bus_crossing(m, n, BusParams::default())));
    }
    out
}

#[derive(Default)]
struct PassStats {
    latencies: Vec<f64>,
    hits: usize,
    misses: usize,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn run_pass(
    addr: &str,
    clients: usize,
    family: &[(String, Geometry)],
) -> Result<(PassStats, f64), String> {
    let start = Instant::now();
    let results: Vec<Result<PassStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || -> Result<PassStats, String> {
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("client {c}: connect: {e}"))?;
                    let mut stats = PassStats::default();
                    // Offset the start point per client so the mix hits
                    // the daemon in interleaved order, like real traffic.
                    for k in 0..family.len() {
                        let (name, geo) = &family[(c + k) % family.len()];
                        let t = Instant::now();
                        let reply = client
                            .extract(geo, &ExtractOptions::default())
                            .map_err(|e| format!("client {c}: {name}: {e}"))?;
                        stats.latencies.push(t.elapsed().as_secs_f64());
                        stats.hits += reply.cache.hits;
                        stats.misses += reply.cache.misses;
                    }
                    Ok(stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut total = PassStats::default();
    for r in results {
        let s = r?;
        total.latencies.extend(s.latencies);
        total.hits += s.hits;
        total.misses += s.misses;
    }
    Ok((total, wall))
}

fn print_pass_header() {
    println!(
        "{:<8} {:>10} {:>12} {:>10} {:>10} {:>10} {:>9}",
        "pass", "req/s", "mean", "p50", "p95", "p99", "hit rate"
    );
}

/// Prints one row of the standard pass table; returns the pass's mean
/// latency in seconds.
fn print_pass_row(pass: usize, stats: &PassStats, wall: f64) -> f64 {
    let mut sorted = stats.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    let lookups = stats.hits + stats.misses;
    let hit_rate = if lookups == 0 { 0.0 } else { 100.0 * stats.hits as f64 / lookups as f64 };
    let label = if pass == 0 { "0 (cold)".to_string() } else { format!("{pass} (warm)") };
    println!(
        "{label:<8} {:>10.1} {:>12} {:>10} {:>10} {:>10} {hit_rate:>8.1}%",
        sorted.len() as f64 / wall,
        fmt_seconds(mean),
        fmt_seconds(percentile(&sorted, 0.50)),
        fmt_seconds(percentile(&sorted, 0.95)),
        fmt_seconds(percentile(&sorted, 0.99)),
    );
    mean
}

/// Prints the warm-vs-cold mean speedup when there is a warm pass.
fn print_warm_speedup(means: &[f64]) {
    if means.len() > 1 {
        let warm = means[1..].iter().sum::<f64>() / (means.len() - 1) as f64;
        println!(
            "warm-cache speedup: {:.2}x (cold mean {} -> warm mean {})",
            means[0] / warm,
            fmt_seconds(means[0]),
            fmt_seconds(warm)
        );
    }
}

/// Outcome of one open-loop overload storm.
#[derive(Default)]
struct OverloadStats {
    /// Latencies of admitted (ok) requests, seconds.
    ok_latencies: Vec<f64>,
    /// Structured `busy` rejections.
    busy: usize,
    /// Sum of admitted requests' daemon-side queue wait.
    queue_seconds: f64,
    /// Wall seconds of the whole storm.
    wall: f64,
}

impl OverloadStats {
    fn ok(&self) -> usize {
        self.ok_latencies.len()
    }

    fn total(&self) -> usize {
        self.ok() + self.busy
    }

    fn ok_per_second(&self) -> f64 {
        if self.wall == 0.0 {
            return 0.0;
        }
        self.ok() as f64 / self.wall
    }
}

/// Fires `requests` back-to-back extract requests from each of `clients`
/// concurrent connections — no pacing, no retry — and tallies admitted
/// vs `busy` outcomes. Every non-`busy` error is fatal: under overload
/// the daemon must answer each request with a result or a structured
/// rejection, never hang or drop.
fn run_overload(addr: &str, clients: usize, requests: usize) -> Result<OverloadStats, String> {
    let geo = structures::crossing_wires(CrossingParams::default());
    let start = Instant::now();
    let results: Vec<Result<OverloadStats, String>> = std::thread::scope(|scope| {
        let geo = &geo;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || -> Result<OverloadStats, String> {
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("client {c}: connect: {e}"))?;
                    let mut stats = OverloadStats::default();
                    for k in 0..requests {
                        let t = Instant::now();
                        match client.extract(geo, &ExtractOptions::default()) {
                            Ok(reply) => {
                                stats.ok_latencies.push(t.elapsed().as_secs_f64());
                                stats.queue_seconds += reply.queue_seconds;
                            }
                            Err(ServeError::Remote { code, .. }) if code == "busy" => {
                                stats.busy += 1;
                            }
                            Err(e) => return Err(format!("client {c} request {k}: {e}")),
                        }
                    }
                    Ok(stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut total = OverloadStats { wall: start.elapsed().as_secs_f64(), ..Default::default() };
    for r in results {
        let s = r?;
        total.ok_latencies.extend(s.ok_latencies);
        total.busy += s.busy;
        total.queue_seconds += s.queue_seconds;
    }
    Ok(total)
}

fn print_overload(label: &str, stats: &OverloadStats) {
    let mut sorted = stats.ok_latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let (p50, p99) = if sorted.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&sorted, 0.50), percentile(&sorted, 0.99))
    };
    println!(
        "{label}: {} ok ({:.1} req/s), busy rejections: {} ({:.1} % of {}), \
         p50 {} p99 {}, mean queue wait {}",
        stats.ok(),
        stats.ok_per_second(),
        stats.busy,
        100.0 * stats.busy as f64 / stats.total().max(1) as f64,
        stats.total(),
        fmt_seconds(p50),
        fmt_seconds(p99),
        fmt_seconds(stats.queue_seconds / stats.ok().max(1) as f64),
    );
}

/// The `--overload` scenario: an open-loop storm against a small queue.
fn overload_main(args: &Args) -> Result<(), String> {
    let addr = &args.addr;
    println!(
        "bemcap-load: overload storm: {} clients x {} requests against {addr}",
        args.clients, args.requests
    );
    let stats = run_overload(addr, args.clients, args.requests)?;
    print_overload("overload", &stats);
    if args.shutdown {
        let mut client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
        client.shutdown().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Prints each counter's movement over the run, then the full scrape —
/// output a CI job can grep both for metric names and for motion.
fn print_metrics_delta(before: &MetricsReply, after: &MetricsReply) {
    println!("daemon metrics (counter deltas over this run):");
    for (name, value) in &after.counters {
        let was = before.counter(name).unwrap_or(0);
        println!("  {name} {was} -> {value} (+{})", value.saturating_sub(was));
    }
    // Derived per-extraction phase costs, so kernel-level wins show up in
    // the daemon report.
    let delta = |name: &str| {
        after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0))
    };
    let extractions = delta("bemcap_extractions_total");
    if extractions > 0 {
        let setup = delta("bemcap_extract_setup_nanos_total");
        let solve = delta("bemcap_extract_solve_nanos_total");
        println!("derived per-extraction costs ({extractions} extractions this run):");
        println!("  setup_nanos_per_extraction {}", setup / extractions);
        println!("  solve_nanos_per_extraction {}", solve / extractions);
    }
    println!("daemon metrics exposition:");
    print!("{}", after.text);
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.overload {
        if args.metrics {
            eprintln!("bemcap-load: note: --metrics is ignored with --overload");
        }
        return match overload_main(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bemcap-load: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let addr = &args.addr;
    // Scrape before any traffic so the final report can print exact
    // per-run deltas — the registry is process-lifetime, so the daemon's
    // counters may start well above zero.
    let metrics_before = if args.metrics {
        match Client::connect(addr.as_str()).and_then(|mut c| c.metrics()) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("bemcap-load: metrics scrape failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let family = scenarios();
    println!(
        "bemcap-load: {} clients x {} scenarios x {} passes against {}",
        args.clients,
        family.len(),
        args.passes,
        addr
    );
    print_pass_header();
    let mut pass_stats = Vec::new();
    for pass in 0..args.passes {
        let (stats, wall) = match run_pass(addr, args.clients, &family) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("bemcap-load: {e}");
                return ExitCode::FAILURE;
            }
        };
        pass_stats.push(print_pass_row(pass, &stats, wall));
    }
    print_warm_speedup(&pass_stats);

    // Daemon-side totals, then optional clean shutdown.
    let report_and_stop = |stop: bool| -> Result<(), String> {
        let mut client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
        match client.stats() {
            Ok(stats) => {
                println!(
                    "daemon: {} requests over {} connections, cache {} ({} entries, \
                     {} KiB resident)",
                    stats.requests,
                    stats.connections,
                    stats.cache,
                    stats.cache_entries,
                    stats.cache_resident_bytes >> 10,
                );
                println!("daemon executor: {} (queue depth {})", stats.exec, stats.queue_depth);
            }
            // A front tier refuses per-daemon `stats`; report its
            // routing view instead, so `--addr <router>` just works.
            Err(ServeError::Remote { ref code, .. }) if code == "bad-request" => {
                let rs = client.route_stats().map_err(|e| e.to_string())?;
                println!(
                    "router: proxied {}, failovers {}, upstream errors {}, healthy {}/{}",
                    rs.proxied,
                    rs.failovers,
                    rs.upstream_errors,
                    rs.healthy,
                    rs.replicas.len()
                );
            }
            Err(e) => return Err(e.to_string()),
        }
        if let Some(before) = &metrics_before {
            let after = client.metrics().map_err(|e| e.to_string())?;
            print_metrics_delta(before, &after);
        }
        if stop {
            client.shutdown().map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    if let Err(e) = report_and_stop(args.shutdown) {
        eprintln!("bemcap-load: final stats: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_seconds(3.2e-7), "320 ns");
        assert_eq!(fmt_seconds(3.2e-5), "32.00 µs");
        assert_eq!(fmt_seconds(3.2e-2), "32.00 ms");
        assert_eq!(fmt_seconds(3.2), "3.20 s");
    }

    #[test]
    fn addr_is_required_and_daemon_knobs_are_gone() {
        let parse = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--clients", "2"]).err().unwrap().starts_with("--addr is required"));
        let args = parse(&["--addr", "127.0.0.1:45454", "--passes", "3"]).unwrap();
        assert_eq!((args.addr.as_str(), args.passes), ("127.0.0.1:45454", 3));
        for knob in ["--workers", "--cache-mb", "--queue"] {
            assert!(parse(&["--addr", "a:1", knob, "2"]).err().unwrap().contains("unknown flag"));
        }
    }
}
