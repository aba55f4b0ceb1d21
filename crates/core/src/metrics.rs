//! Process-lifetime metrics of the extraction core.
//!
//! One [`CoreMetrics`] struct holds `&'static` handles to every counter
//! the hot layers increment — executor admission, template-cache and
//! window-cache traffic, chip windowing, the per-extraction
//! prepare/solve phases, and the dense solve's LU fallback — all
//! registered once in [`bemcap_par::trace::Registry::global`]. The
//! handles are resolved lazily on first use ([`metrics()`]), so a process
//! that never scrapes still pays only one relaxed atomic add per counted
//! event and nothing at startup.
//!
//! Counters here are **process-global**: every `TemplateCache`,
//! `Executor`, or `ChipExtractor` instance feeds the same cells. That is
//! the point — a daemon has exactly one of each and wants lifetime
//! totals; tools with several instances (tests, benches) read *deltas*
//! around the region of interest. Instance-scoped numbers stay available
//! through the existing [`crate::CacheStats`] / [`crate::ExecStats`] /
//! [`crate::ChipReport`] structs, and the two views reconcile: for a
//! quiesced process the global counter movement equals the sum of the
//! per-instance stats of the work that ran.
//!
//! Gauges (resident bytes, queue occupancy) are *not* updated from the
//! hot path — whoever serves a scrape sets them from the instantaneous
//! state it owns (see `bemcap-serve`'s `metrics` op). That keeps gauges
//! honest when instances come and go, and keeps instance destructors off
//! the metrics path entirely.

use std::sync::OnceLock;

// Re-exported so downstream layers (`bemcap-serve`, benches) register
// their own metrics and render scrapes without a direct `bemcap-par`
// dependency.
pub use bemcap_par::trace::{Metric, MetricKind, MetricSample, Registry, Span};

/// `&'static` handles to every counter the core increments.
///
/// Field names mirror the metric names without the `bemcap_` prefix.
#[derive(Debug)]
pub struct CoreMetrics {
    /// Submissions admitted by any executor (rejections count
    /// separately, mirroring [`crate::ExecStats`]).
    pub exec_submitted: &'static Metric,
    /// Submissions refused at admission (`Busy` or `OverDepth`).
    pub exec_rejected: &'static Metric,
    /// Jobs run to completion by workers.
    pub exec_jobs: &'static Metric,
    /// Total nanoseconds jobs spent waiting in admission queues.
    pub exec_queue_wait_nanos: &'static Metric,
    /// Template-cache lookups that hit.
    pub template_cache_hits: &'static Metric,
    /// Template-cache lookups that missed (each miss inserts one entry).
    pub template_cache_misses: &'static Metric,
    /// Template-cache entries evicted under the memory bound.
    pub template_cache_evictions: &'static Metric,
    /// Template-pair integrals evaluated: one per distinct pair key of an
    /// assembly that no cache answered, and one per distinct near-field
    /// key of an FMM or pFFT operator (registered in `bemcap-par`, below
    /// the basis pair plan and both near fields, which share one
    /// distinct-key table).
    pub pair_integrals: &'static Metric,
    /// Window-cache lookups that hit.
    pub window_cache_hits: &'static Metric,
    /// Window-cache lookups that missed.
    pub window_cache_misses: &'static Metric,
    /// Window-cache entries evicted under the memory bound.
    pub window_cache_evictions: &'static Metric,
    /// Bytes inserted into window caches over the process lifetime.
    pub window_cache_inserted_bytes: &'static Metric,
    /// Windows processed by chip extractions (extracted + reused).
    pub chip_windows: &'static Metric,
    /// Windows actually extracted (window-cache misses).
    pub chip_windows_extracted: &'static Metric,
    /// Windows reused from a window cache (window-cache hits).
    pub chip_windows_reused: &'static Metric,
    /// Nanoseconds spent stitching window results into chip matrices.
    pub chip_stitch_nanos: &'static Metric,
    /// Single-structure extractions completed.
    pub extractions: &'static Metric,
    /// Nanoseconds spent in backend `prepare` (Galerkin assembly, accel
    /// table setup) across all extractions.
    pub extract_setup_nanos: &'static Metric,
    /// Nanoseconds spent in backend `solve` across all extractions.
    pub extract_solve_nanos: &'static Metric,
    /// Dense solves whose P refused Cholesky (a pivot not above 1.5e-8
    /// of its diagonal, or NaN) and were finished by LU on the restored P.
    pub direct_not_spd: &'static Metric,
}

/// The core's metric handles, registered on first call.
pub fn metrics() -> &'static CoreMetrics {
    static METRICS: OnceLock<CoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        CoreMetrics {
            exec_submitted: r.counter(
                "bemcap_exec_submitted_total",
                "Submissions admitted by the executor (rejections counted separately).",
            ),
            exec_rejected: r.counter(
                "bemcap_exec_rejected_total",
                "Submissions refused at admission (busy, or more jobs than the queue depth).",
            ),
            exec_jobs: r.counter("bemcap_exec_jobs_total", "Jobs run to completion by workers."),
            exec_queue_wait_nanos: r.counter(
                "bemcap_exec_queue_wait_nanos_total",
                "Nanoseconds jobs spent waiting in the admission queue.",
            ),
            template_cache_hits: r.counter(
                "bemcap_template_cache_hits_total",
                "Pair-integral template cache lookups that hit.",
            ),
            template_cache_misses: r.counter(
                "bemcap_template_cache_misses_total",
                "Pair-integral template cache lookups that missed.",
            ),
            template_cache_evictions: r.counter(
                "bemcap_template_cache_evictions_total",
                "Template cache entries evicted under the memory bound.",
            ),
            pair_integrals: bemcap_basis::pair_integrals_metric(),
            window_cache_hits: r
                .counter("bemcap_window_cache_hits_total", "Window cache lookups that hit."),
            window_cache_misses: r
                .counter("bemcap_window_cache_misses_total", "Window cache lookups that missed."),
            window_cache_evictions: r.counter(
                "bemcap_window_cache_evictions_total",
                "Window cache entries evicted under the memory bound.",
            ),
            window_cache_inserted_bytes: r.counter(
                "bemcap_window_cache_inserted_bytes_total",
                "Bytes inserted into window caches.",
            ),
            chip_windows: r.counter(
                "bemcap_chip_windows_total",
                "Windows processed by chip extractions (extracted + reused).",
            ),
            chip_windows_extracted: r.counter(
                "bemcap_chip_windows_extracted_total",
                "Chip windows actually extracted (window-cache misses).",
            ),
            chip_windows_reused: r.counter(
                "bemcap_chip_windows_reused_total",
                "Chip windows reused from the window cache.",
            ),
            chip_stitch_nanos: r.counter(
                "bemcap_chip_stitch_nanos_total",
                "Nanoseconds spent stitching window results into chip matrices.",
            ),
            extractions: r
                .counter("bemcap_extractions_total", "Single-structure extractions completed."),
            extract_setup_nanos: r.counter(
                "bemcap_extract_setup_nanos_total",
                "Nanoseconds spent in backend prepare (assembly, accel setup).",
            ),
            extract_solve_nanos: r
                .counter("bemcap_extract_solve_nanos_total", "Nanoseconds spent in backend solve."),
            direct_not_spd: r.counter(
                "bemcap_direct_not_spd_total",
                "Dense solves whose P was not positive definite and fell back to LU.",
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_registered_once() {
        let a = metrics();
        let b = metrics();
        assert!(std::ptr::eq(a, b));
        assert!(std::ptr::eq(a.exec_jobs, b.exec_jobs));
        // The global registry exposes the core names exactly once.
        let names: Vec<_> = Registry::global()
            .snapshot()
            .into_iter()
            .filter(|s| s.name == "bemcap_exec_jobs_total")
            .collect();
        assert_eq!(names.len(), 1);
    }

    #[test]
    fn counter_movement_is_visible_in_the_global_registry() {
        let before = metrics().extractions.get();
        metrics().extractions.inc();
        let sample = Registry::global()
            .snapshot()
            .into_iter()
            .find(|s| s.name == "bemcap_extractions_total")
            .expect("registered");
        assert!(sample.value > before);
    }
}
