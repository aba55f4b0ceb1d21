//! The process-lifetime metrics layer.
//!
//! [`Metric`] / [`Registry`] / [`Span`] are a lightweight observability
//! substrate: monotonic counters and point-in-time gauges over a single
//! `AtomicU64` each, registered once in a process-lifetime [`Registry`]
//! and scraped as a Prometheus-style text exposition or a structured
//! snapshot. The hot path costs one relaxed atomic add and never
//! allocates; registration (cold, once per metric name) leaks one small
//! allocation so handles are `&'static` and free to copy into any
//! thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What a [`Metric`] measures, mirroring the two Prometheus families the
/// text exposition can express.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing over the process lifetime
    /// (increment-only; resets only with the process).
    Counter,
    /// A point-in-time value, overwritten at will — typically set right
    /// before a scrape from whatever owns the instantaneous state.
    Gauge,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One named metric: a `u64` cell plus its exposition metadata.
///
/// Handles are `&'static` (see [`Registry::counter`] /
/// [`Registry::gauge`]), so hot paths copy a pointer once at startup and
/// then pay exactly one relaxed atomic RMW per event — no locks, no
/// allocation, no branching on whether a sink is attached.
#[derive(Debug)]
pub struct Metric {
    name: &'static str,
    help: &'static str,
    kind: MetricKind,
    value: AtomicU64,
}

impl Metric {
    /// Metric name as registered (Prometheus conventions: counters end
    /// in `_total`, time accumulators name their unit).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line human description, emitted as the `# HELP` line.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Counter or gauge.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// Adds `delta` (counters; also usable for gauge adjustments).
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the value (gauges: the instantaneous state).
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// One metric's state at scrape time (see [`Registry::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSample {
    /// Metric name as registered.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Value at the moment of the snapshot.
    pub value: u64,
}

/// A set of registered [`Metric`]s, scrapable as a whole.
///
/// Almost every caller wants [`Registry::global`] — the process-lifetime
/// registry every subsystem registers into, which a daemon scrape or a
/// `--metrics` dump renders in one call. Separate registries exist only
/// so tests can exercise rendering hermetically.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<Vec<&'static Metric>>,
}

impl Registry {
    /// An empty registry (tests; production code uses
    /// [`Registry::global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-lifetime registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Registers (or finds) a monotonic counter named `name`.
    ///
    /// Registration is idempotent: the first call for a name leaks one
    /// [`Metric`] into the process lifetime and later calls return the
    /// same handle, so concurrent initialization from several subsystems
    /// is safe and double-counting is impossible.
    pub fn counter(&self, name: &'static str, help: &'static str) -> &'static Metric {
        self.register(name, help, MetricKind::Counter)
    }

    /// Registers (or finds) a gauge named `name` (see
    /// [`Registry::counter`] for idempotence).
    pub fn gauge(&self, name: &'static str, help: &'static str) -> &'static Metric {
        self.register(name, help, MetricKind::Gauge)
    }

    fn register(
        &self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
    ) -> &'static Metric {
        let mut metrics = self.metrics.lock().expect("metric registry poisoned");
        if let Some(existing) = metrics.iter().find(|m| m.name == name) {
            debug_assert_eq!(existing.kind, kind, "metric '{name}' re-registered as another kind");
            return existing;
        }
        let metric: &'static Metric =
            Box::leak(Box::new(Metric { name, help, kind, value: AtomicU64::new(0) }));
        metrics.push(metric);
        metric
    }

    /// Every registered metric with its current value, sorted by name
    /// (deterministic scrape order regardless of registration order).
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let metrics = self.metrics.lock().expect("metric registry poisoned");
        let mut samples: Vec<MetricSample> = metrics
            .iter()
            .map(|m| MetricSample { name: m.name, help: m.help, kind: m.kind, value: m.get() })
            .collect();
        samples.sort_by_key(|s| s.name);
        samples
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` / `name value`, one family per metric).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for s in self.snapshot() {
            out.push_str("# HELP ");
            out.push_str(s.name);
            out.push(' ');
            out.push_str(s.help);
            out.push_str("\n# TYPE ");
            out.push_str(s.name);
            out.push(' ');
            out.push_str(s.kind.as_str());
            out.push('\n');
            out.push_str(s.name);
            out.push(' ');
            out.push_str(&s.value.to_string());
            out.push('\n');
        }
        out
    }
}

/// The registry counter `bemcap_pair_integrals_total`: template-pair
/// integrals actually evaluated, one per distinct pair key no cache
/// answered. Registered here, below every layer that evaluates them — the
/// basis pair plan and the FMM and pFFT near fields — so all three count
/// into one cell.
pub fn pair_integrals_metric() -> &'static Metric {
    static METRIC: OnceLock<&'static Metric> = OnceLock::new();
    METRIC.get_or_init(|| {
        Registry::global().counter(
            "bemcap_pair_integrals_total",
            "Template-pair integrals evaluated (one per distinct pair key no cache answered).",
        )
    })
}

/// A timing scope: accumulates its wall-clock duration, in nanoseconds,
/// into a counter when dropped.
///
/// ```
/// use bemcap_par::trace::{Registry, Span};
///
/// let nanos = Registry::global()
///     .counter("doc_phase_nanos_total", "Nanoseconds spent in the documented phase.");
/// {
///     let _span = Span::enter(nanos);
///     // ... the measured phase ...
/// }
/// assert!(nanos.get() > 0);
/// ```
#[must_use = "a span accumulates time when dropped; binding it to _ ends it immediately"]
pub struct Span<'a> {
    metric: &'a Metric,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Starts timing; the elapsed nanoseconds land in `metric` on drop.
    pub fn enter(metric: &'a Metric) -> Span<'a> {
        Span { metric, start: Instant::now() }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        // u64 nanoseconds overflow after ~584 years of accumulated time;
        // saturate rather than wrap if a clock misbehaves that badly.
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.metric.add(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_registration_is_idempotent() {
        let registry = Registry::new();
        let a = registry.counter("test_events_total", "Events seen.");
        let again = registry.counter("test_events_total", "Events seen.");
        assert!(std::ptr::eq(a, again), "same name must yield the same handle");
        a.inc();
        again.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(registry.snapshot().len(), 1, "no duplicate registration");
    }

    #[test]
    fn gauges_overwrite() {
        let registry = Registry::new();
        let g = registry.gauge("test_resident", "Resident things.");
        g.set(42);
        g.set(7);
        assert_eq!(g.get(), 7);
        assert_eq!(g.kind(), MetricKind::Gauge);
    }

    #[test]
    fn spans_accumulate_elapsed_nanos() {
        let registry = Registry::new();
        let nanos = registry.counter("test_phase_nanos_total", "Phase time.");
        {
            let _span = Span::enter(nanos);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let first = nanos.get();
        assert!(first >= 2_000_000, "slept 2ms but recorded {first}ns");
        {
            let _span = Span::enter(nanos);
        }
        assert!(nanos.get() >= first, "spans only ever add");
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_well_formed() {
        let registry = Registry::new();
        registry.counter("test_b_total", "Second alphabetically.").add(3);
        registry.gauge("test_a_resident", "First alphabetically.").set(9);
        let text = registry.render_prometheus();
        let expected = "# HELP test_a_resident First alphabetically.\n\
                        # TYPE test_a_resident gauge\n\
                        test_a_resident 9\n\
                        # HELP test_b_total Second alphabetically.\n\
                        # TYPE test_b_total counter\n\
                        test_b_total 3\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let m = Registry::global().counter("test_global_probe_total", "Probe.");
        let again = Registry::global().counter("test_global_probe_total", "Probe.");
        assert!(std::ptr::eq(m, again));
    }

    #[test]
    fn snapshot_reflects_current_values() {
        let registry = Registry::new();
        let c = registry.counter("test_snap_total", "Snapshot probe.");
        c.add(11);
        let s = &registry.snapshot()[0];
        assert_eq!((s.name, s.kind, s.value), ("test_snap_total", MetricKind::Counter, 11));
        assert_eq!(s.help, "Snapshot probe.");
    }
}
