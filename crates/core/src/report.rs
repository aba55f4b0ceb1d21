//! Extraction performance records (the raw material of Tables 2 and 3).

use bemcap_linalg::KrylovStats;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Performance record of one extraction run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtractionReport {
    /// Method name ("instantiable", "pwc-dense", "pwc-fmm", "pwc-pfft").
    /// `Method::Auto` reports the name of the backend it resolved to.
    pub method: String,
    /// System dimension N (basis functions or panels).
    pub n: usize,
    /// Template count M (instantiable method only).
    pub m_templates: Option<usize>,
    /// Workers used in the setup step.
    pub workers: usize,
    /// Seconds in the system setup step.
    pub setup_seconds: f64,
    /// Seconds in the system solving step.
    pub solve_seconds: f64,
    /// Estimated peak solver memory in bytes (system matrix + solver
    /// workspace or operator storage).
    pub memory_bytes: usize,
    /// Krylov counters for iterative backends, aggregated over every
    /// right-hand side (one solve per conductor); `None` for direct
    /// solves.
    pub krylov: Option<KrylovStats>,
}

impl ExtractionReport {
    /// Total runtime.
    pub fn total_seconds(&self) -> f64 {
        self.setup_seconds + self.solve_seconds
    }

    /// Fraction of runtime spent in setup — the paper's ">95 %" claim for
    /// instantiable bases (§3).
    pub fn setup_fraction(&self) -> f64 {
        if self.total_seconds() == 0.0 {
            return 0.0;
        }
        self.setup_seconds / self.total_seconds()
    }
}

impl fmt::Display for ExtractionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: N={}", self.method, self.n)?;
        if let Some(m) = self.m_templates {
            write!(f, " (M={m} templates)")?;
        }
        write!(
            f,
            ", {} workers, setup {:.3} s ({:.0} %), solve {:.3} s, {:.1} MiB",
            self.workers,
            self.setup_seconds,
            100.0 * self.setup_fraction(),
            self.solve_seconds,
            self.memory_bytes as f64 / (1 << 20) as f64
        )?;
        if let Some(k) = &self.krylov {
            write!(f, ", krylov {k}")?;
        }
        Ok(())
    }
}

/// Pair-integral cache counters: lookups served from the shared cache
/// (`hits`) vs computed by the Galerkin engine (`misses`), plus the
/// eviction and byte traffic of a memory-bounded
/// [`crate::cache::TemplateCache`].
///
/// Only the instantiable-basis path of a caching batch run touches the
/// cache; every other configuration reports all-zero stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that fell through to the integration engine.
    pub misses: usize,
    /// Entries evicted to keep the cache inside its memory bound
    /// (always 0 for unbounded caches).
    pub evictions: usize,
    /// Approximate bytes inserted into the cache
    /// ([`crate::cache::ENTRY_BYTES`] per miss).
    pub inserted_bytes: usize,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> usize {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups() as f64
    }

    /// Accumulates another job's counters into this one.
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.inserted_bytes += other.inserted_bytes;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} lookups, {:.1} % hit rate, {} evictions",
            self.lookups(),
            100.0 * self.hit_rate(),
            self.evictions
        )
    }
}

/// Execution-core counters: how submissions and their jobs moved through
/// the [`crate::exec::Executor`]'s admission queue.
///
/// Surfaces in three places, mirroring [`CacheStats`]: per batch run in
/// [`BatchReport::exec`], per chip run in [`crate::chip::ChipReport`]'s
/// queue wait, and per daemon lifetime through the `bemcap-serve` `stats`
/// op.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ExecStats {
    /// Submissions admitted into the queue.
    pub submitted: usize,
    /// Submissions refused at admission: with
    /// [`crate::error::CoreError::Busy`] because the queue had no room for
    /// them, or with [`crate::error::CoreError::OverDepth`] because they
    /// held more jobs than its whole depth.
    pub rejected: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Total seconds jobs spent waiting in the queue before they
    /// started.
    pub queue_seconds: f64,
}

impl ExecStats {
    /// Mean seconds a job waited in the queue (0 when idle).
    pub fn mean_queue_seconds(&self) -> f64 {
        if self.jobs == 0 {
            return 0.0;
        }
        self.queue_seconds / self.jobs as f64
    }

    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: ExecStats) {
        self.submitted += other.submitted;
        self.rejected += other.rejected;
        self.jobs += other.jobs;
        self.queue_seconds += other.queue_seconds;
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} submitted ({} rejected), {} jobs, mean queue wait {:.1} ms",
            self.submitted,
            self.rejected,
            self.jobs,
            1e3 * self.mean_queue_seconds()
        )
    }
}

/// Performance record of one job inside a batch extraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// Job index in the batch input order.
    pub index: usize,
    /// Scheduler worker that ran the job.
    pub worker: usize,
    /// Wall-clock seconds of the whole job (setup + solve).
    pub seconds: f64,
    /// Seconds the job waited in the executor queue before it started.
    pub queue_seconds: f64,
    /// Pair-integral cache counters for this job.
    pub cache: CacheStats,
}

/// Performance record of a whole batch extraction run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Number of jobs.
    pub jobs: usize,
    /// Worker threads of the executor the jobs ran on (0 when the batch
    /// had no jobs, so nothing ran).
    pub workers: usize,
    /// Whether the shared pair-integral cache was enabled.
    pub cache_enabled: bool,
    /// Wall-clock seconds of the whole batch (scheduling included).
    pub wall_seconds: f64,
    /// Sum of per-job seconds — the work the pool actually absorbed.
    pub busy_seconds: f64,
    /// Aggregated cache counters across all jobs.
    pub cache: CacheStats,
    /// Execution-core counters of this run (admission, queue wait).
    pub exec: ExecStats,
}

impl BatchReport {
    /// Busy time over pool capacity — 1.0 means perfectly packed workers.
    pub fn parallel_efficiency(&self) -> f64 {
        if self.wall_seconds == 0.0 || self.workers == 0 {
            return 0.0;
        }
        self.busy_seconds / (self.workers as f64 * self.wall_seconds)
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs on {} workers in {:.3} s ({:.0} % efficiency); cache {}: {}; \
             mean queue wait {:.1} ms",
            self.jobs,
            self.workers,
            self.wall_seconds,
            100.0 * self.parallel_efficiency(),
            if self.cache_enabled { "on" } else { "off" },
            self.cache,
            1e3 * self.exec.mean_queue_seconds()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions() {
        let r = ExtractionReport {
            method: "instantiable".into(),
            n: 100,
            m_templates: Some(150),
            workers: 1,
            setup_seconds: 9.5,
            solve_seconds: 0.5,
            memory_bytes: 80_000,
            krylov: None,
        };
        assert!((r.total_seconds() - 10.0).abs() < 1e-12);
        assert!((r.setup_fraction() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn zero_total_is_safe() {
        let r = ExtractionReport {
            method: "x".into(),
            n: 0,
            m_templates: None,
            workers: 1,
            setup_seconds: 0.0,
            solve_seconds: 0.0,
            memory_bytes: 0,
            krylov: None,
        };
        assert_eq!(r.setup_fraction(), 0.0);
    }

    #[test]
    fn serializes() {
        let r = ExtractionReport {
            method: "pwc-fmm".into(),
            n: 10,
            m_templates: None,
            workers: 2,
            setup_seconds: 1.0,
            solve_seconds: 2.0,
            memory_bytes: 42,
            krylov: Some(KrylovStats { matvecs: 80, restarts: 1, residual: 4.2e-7 }),
        };
        // serde round trip through the derived impls (format-agnostic).
        let cloned = r.clone();
        assert_eq!(r, cloned);
    }

    #[test]
    fn extraction_report_display_shows_split_and_krylov() {
        let mut r = ExtractionReport {
            method: "pwc-pfft".into(),
            n: 640,
            m_templates: None,
            workers: 1,
            setup_seconds: 0.8,
            solve_seconds: 0.2,
            memory_bytes: 3 << 20,
            krylov: Some(KrylovStats { matvecs: 123, restarts: 2, residual: 7.5e-7 }),
        };
        let s = format!("{r}");
        assert!(s.contains("pwc-pfft") && s.contains("N=640"), "{s}");
        assert!(s.contains("setup 0.800 s (80 %)") && s.contains("solve 0.200 s"), "{s}");
        assert!(s.contains("123 iterations (2 restarts)") && s.contains("7.50e-7"), "{s}");
        r.krylov = None;
        r.m_templates = Some(900);
        r.method = "instantiable".into();
        let s = format!("{r}");
        assert!(!s.contains("krylov"), "{s}");
        assert!(s.contains("(M=900 templates)"), "{s}");
    }

    #[test]
    fn cache_stats_rates_and_absorb() {
        let mut total = CacheStats::default();
        assert_eq!(total.hit_rate(), 0.0);
        total.absorb(CacheStats { hits: 3, misses: 1, evictions: 2, inserted_bytes: 192 });
        total.absorb(CacheStats { hits: 1, misses: 3, evictions: 1, inserted_bytes: 576 });
        assert_eq!(total.lookups(), 8);
        assert!((total.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(total.evictions, 3);
        assert_eq!(total.inserted_bytes, 768);
    }

    #[test]
    fn exec_stats_ratios_absorb_and_display() {
        let mut total = ExecStats::default();
        assert_eq!(total.mean_queue_seconds(), 0.0);
        total.absorb(ExecStats { submitted: 4, rejected: 1, jobs: 5, queue_seconds: 0.02 });
        total.absorb(ExecStats { submitted: 2, rejected: 0, jobs: 2, queue_seconds: 0.01 });
        assert_eq!((total.submitted, total.rejected, total.jobs), (6, 1, 7));
        assert!((total.mean_queue_seconds() - 0.03 / 7.0).abs() < 1e-12);
        let s = format!("{total}");
        assert!(s.contains("6 submitted") && s.contains("1 rejected"), "{s}");
        assert!(s.contains("7 jobs") && s.contains("mean queue wait 4.3 ms"), "{s}");
    }

    #[test]
    fn batch_efficiency() {
        let r = BatchReport {
            jobs: 8,
            workers: 4,
            cache_enabled: true,
            wall_seconds: 2.0,
            busy_seconds: 6.0,
            cache: CacheStats { hits: 10, misses: 30, ..CacheStats::default() },
            exec: ExecStats::default(),
        };
        assert!((r.parallel_efficiency() - 0.75).abs() < 1e-12);
        let idle = BatchReport { wall_seconds: 0.0, ..r };
        assert_eq!(idle.parallel_efficiency(), 0.0);
    }

    #[test]
    fn batch_report_display_shows_hit_rate_evictions_and_queue_wait() {
        let r = BatchReport {
            jobs: 8,
            workers: 4,
            cache_enabled: true,
            wall_seconds: 2.0,
            busy_seconds: 6.0,
            cache: CacheStats { hits: 30, misses: 10, evictions: 5, inserted_bytes: 1920 },
            exec: ExecStats { submitted: 8, rejected: 0, jobs: 8, queue_seconds: 0.0125 },
        };
        let s = format!("{r}");
        assert!(s.contains("75.0 % hit rate"), "{s}");
        assert!(s.contains("5 evictions"), "{s}");
        assert!(s.contains("8 jobs") && s.contains("cache on"), "{s}");
        // 12.5 ms total over 8 jobs: the one-line summary shows the
        // per-job mean, not the sum.
        assert!(s.contains("mean queue wait 1.6 ms"), "{s}");
        let off = BatchReport { cache_enabled: false, ..r };
        assert!(format!("{off}").contains("cache off"));
    }
}
