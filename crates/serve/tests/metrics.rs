//! End-to-end tests of the v5 `metrics` op: counters must stay monotonic
//! while scrapes race live traffic, and — once the daemon quiesces —
//! reconcile exactly with the daemon's own `stats`/`chip` reports.
//!
//! The metrics registry is process-lifetime and shared by every
//! extractor in the process, so these tests (a) assert on *deltas*
//! between a before and an after scrape, never on absolute values, and
//! (b) serialize on one lock so no two of them interleave traffic into
//! the shared counters. This file is its own test binary, so no other
//! test process shares the registry.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use bemcap_geom::structures::{self, BusParams, CrossingParams};
use bemcap_serve::{ChipOptions, Client, ExtractOptions, MetricsReply, Server, ServerConfig};

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests sharing the process-global registry. An earlier
/// panicking test poisons the mutex but leaves the registry perfectly
/// usable, so recover the guard instead of cascading the failure.
fn serialize() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn counter(m: &MetricsReply, name: &str) -> u64 {
    m.counter(name).unwrap_or_else(|| panic!("scrape is missing counter {name}"))
}

/// Drives a mixed extract + chip workload against a fresh daemon while
/// two scraper connections hammer the `metrics` op, then checks the
/// quiesced counters against the daemon's own accounting.
fn scrapes_race_traffic_then_reconcile(workers: usize) {
    let _guard = serialize();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        ..ServerConfig::default()
    })
    .expect("bind daemon")
    .spawn()
    .expect("spawn daemon");
    let addr = server.addr().to_string();

    let mut probe = Client::connect(addr.as_str()).expect("probe connect");
    let before = probe.metrics().expect("scrape before traffic");

    let stop = AtomicBool::new(false);
    let (extracts, chip_extracted, chip_reused) = std::thread::scope(|scope| {
        let addr = addr.as_str();
        let stop = &stop;
        // Two scrapers race the traffic; every counter they observe must
        // be non-decreasing across their own scrape sequence.
        let scrapers: Vec<_> = (0..2)
            .map(|s| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("scraper connect");
                    let mut last: Vec<(String, u64)> = Vec::new();
                    let mut scrapes = 0_u64;
                    while !stop.load(Ordering::Relaxed) {
                        let m = client.metrics().expect("scrape under traffic");
                        for (name, value) in &m.counters {
                            let prev = m_lookup(&last, name);
                            assert!(
                                prev <= *value,
                                "scraper {s}: counter {name} went backwards: {prev} -> {value}"
                            );
                        }
                        last = m.counters;
                        scrapes += 1;
                    }
                    scrapes
                })
            })
            .collect();
        let traffic = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("traffic connect");
            let geo = structures::crossing_wires(CrossingParams::default());
            let chip_geo = structures::bus_crossing(2, 2, BusParams::default());
            let extracts = 6;
            for _ in 0..extracts {
                client.extract(&geo, &ExtractOptions::default()).expect("extract");
            }
            // Same layout twice: the second pass reuses cached windows,
            // so both arms of the extracted/reused split get traffic.
            let cold = client.chip(&chip_geo, &ChipOptions::default()).expect("cold chip");
            let warm = client.chip(&chip_geo, &ChipOptions::default()).expect("warm chip");
            assert!(warm.reused > 0, "second chip pass must reuse windows");
            (extracts, cold.extracted + warm.extracted, cold.reused + warm.reused)
        });
        let totals = traffic.join().expect("traffic thread");
        stop.store(true, Ordering::Relaxed);
        for s in scrapers {
            assert!(s.join().expect("scraper thread") > 0, "scraper never scraped");
        }
        totals
    });

    // Quiesced: registry deltas reconcile with the daemon's reports.
    let after = probe.metrics().expect("scrape after traffic");
    let stats = probe.stats().expect("daemon stats");
    let delta = |name: &str| counter(&after, name) - counter(&before, name);

    // Template cache: hits + misses == lookups, and both match the
    // daemon's lifetime cache stats (this daemon owns the only active
    // template cache in the process while the lock is held).
    assert_eq!(delta("bemcap_template_cache_hits_total"), stats.cache.hits as u64);
    assert_eq!(delta("bemcap_template_cache_misses_total"), stats.cache.misses as u64);
    assert_eq!(
        delta("bemcap_template_cache_hits_total") + delta("bemcap_template_cache_misses_total"),
        stats.cache.lookups() as u64
    );

    // Window cache and the chip windows triple.
    assert_eq!(delta("bemcap_window_cache_hits_total"), stats.window_cache.hits as u64);
    assert_eq!(delta("bemcap_window_cache_misses_total"), stats.window_cache.misses as u64);
    assert_eq!(
        delta("bemcap_chip_windows_extracted_total") + delta("bemcap_chip_windows_reused_total"),
        delta("bemcap_chip_windows_total")
    );
    assert_eq!(delta("bemcap_chip_windows_extracted_total"), chip_extracted as u64);
    assert_eq!(delta("bemcap_chip_windows_reused_total"), chip_reused as u64);

    // Executor: every admitted submission and job of this run went
    // through this daemon's shared executor.
    assert_eq!(delta("bemcap_exec_submitted_total"), stats.exec.submitted as u64);
    assert_eq!(delta("bemcap_exec_rejected_total"), stats.exec.rejected as u64);
    assert_eq!(delta("bemcap_exec_jobs_total"), stats.exec.jobs as u64);

    // Solve-phase instrumentation moved: at least one extraction per
    // wire request, and nonzero solve time for the batch of them.
    assert!(delta("bemcap_extractions_total") >= extracts as u64);
    assert!(delta("bemcap_extract_solve_nanos_total") > 0);

    probe.shutdown().expect("shutdown");
    server.join().expect("daemon exit");
}

fn m_lookup(samples: &[(String, u64)], name: &str) -> u64 {
    samples.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
}

#[test]
fn metrics_reconcile_with_a_single_worker() {
    scrapes_race_traffic_then_reconcile(1);
}

#[test]
fn metrics_reconcile_with_a_worker_pool() {
    scrapes_race_traffic_then_reconcile(4);
}

#[test]
fn idle_scrape_exposes_the_full_counter_set_and_gauges() {
    let _guard = serialize();
    let server =
        Server::bind(ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() })
            .expect("bind daemon")
            .spawn()
            .expect("spawn daemon");
    let mut client = Client::connect(server.addr()).expect("connect");
    let m = client.metrics().expect("idle scrape");
    // Every core counter is present (at whatever the process has
    // accumulated) before this daemon serves any extraction.
    for name in [
        "bemcap_extractions_total",
        "bemcap_exec_submitted_total",
        "bemcap_template_cache_hits_total",
        "bemcap_window_cache_misses_total",
        "bemcap_chip_windows_total",
    ] {
        assert!(m.counter(name).is_some(), "missing counter {name}\n{}", m.text);
    }
    for name in [
        "bemcap_daemon_uptime_seconds",
        "bemcap_exec_queued_jobs",
        "bemcap_template_cache_resident_bytes",
        "bemcap_window_cache_entries",
    ] {
        assert!(m.gauge(name).is_some(), "missing gauge {name}\n{}", m.text);
    }
    // The text exposition carries one HELP/TYPE pair per sample line.
    let samples = m.text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()).count();
    assert_eq!(samples, m.counters.len() + m.gauges.len());
    client.shutdown().expect("shutdown");
    server.join().expect("daemon exit");
}
