//! Batched multi-net extraction: one solver configuration over a family
//! of geometries.
//!
//! The paper's economics (conf_dac_HsiaoD11) are that instantiable basis
//! functions make per-structure setup cheap — cheap enough that the
//! natural unit of work is not one geometry but a *family* of similar
//! geometries (a parameter sweep, a bus with many nets, a corner
//! enumeration). [`BatchExtractor`] packages that unit as a thin client
//! of the shared execution core ([`crate::exec::Executor`]):
//!
//! * jobs are submitted to the executor's bounded work queue and results
//!   always come back in **input order**, whatever the pool size —
//!   scheduling can never reorder or change a result;
//! * the batch goes in as one submission whose jobs are admitted
//!   together and each run as its own queue task, so any idle worker
//!   takes the next job;
//! * with caching enabled (the default), pair integrals are shared across
//!   jobs through a [`bemcap_basis::PairKey`]-keyed
//!   [`crate::cache::TemplateCache`]: families that keep part of the
//!   geometry fixed or merely move it (every sweep does) skip the
//!   integrals of the unchanged template pairs entirely. A cache hit returns the very f64
//!   a recomputation would produce, so cached and uncached runs yield
//!   **bit-identical** capacitance matrices. By default each run gets a
//!   private unbounded cache; [`BatchExtractor::shared_cache`] plugs in a
//!   process-lifetime (optionally memory-bounded) cache instead, which is
//!   how the `bemcap-serve` daemon keeps integrals warm across requests;
//! * per-job timings and cache counters come back as
//!   [`JobReport`]s under a whole-run [`BatchReport`], which now also
//!   carries the run's executor counters ([`crate::report::ExecStats`]:
//!   queue wait, rejections).
//!
//! By default each run spins up a private executor sized so admission
//! never rejects; [`BatchExtractor::executor`] instead runs the batch as
//! one client among many of a shared, admission-controlled executor (the
//! daemon's configuration), where [`CoreError::Busy`] backpressure
//! applies to the whole batch at once.
//! [`BatchExtractor`] is the executor's only client: chip extraction runs
//! its window misses through one, and the daemon builds one per request.
//!
//! A parameter sweep is [`BatchExtractor::extract_family`] followed by
//! [`BatchResult::entry_curve`].
//!
//! ```
//! use bemcap_core::batch::BatchExtractor;
//! use bemcap_core::Extractor;
//! use bemcap_geom::structures::{self, CrossingParams};
//!
//! let batch = BatchExtractor::new(Extractor::new()).workers(1);
//! let hs = [0.4e-6, 0.8e-6];
//! let result = batch.extract_family(&hs, |h| {
//!     structures::crossing_wires(CrossingParams { separation: h, ..Default::default() })
//! })?;
//! assert_eq!(result.points().len(), 2);
//! assert!(result.report().cache.hits > 0); // the fixed wire recurs
//! # Ok::<(), bemcap_core::CoreError>(())
//! ```

use std::sync::Arc;
use std::time::Instant;

use bemcap_geom::Geometry;

use crate::cache::TemplateCache;
use crate::error::CoreError;
use crate::exec::{default_pool_size, ExecConfig, Executor, JobOutcome};
use crate::extraction::{Extraction, Extractor};
use crate::report::{BatchReport, CacheStats, ExecStats, JobReport};

/// One unit of batch work: a geometry with a label and an optional swept
/// parameter value.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Human-readable job label (net name, corner name, "h=0.4e-6", ...).
    pub label: String,
    /// The swept parameter value for family jobs; `None` for ad-hoc jobs.
    pub parameter: Option<f64>,
    /// The geometry to extract.
    pub geometry: Geometry,
}

impl BatchJob {
    /// A job with no parameter annotation.
    pub fn new(label: impl Into<String>, geometry: Geometry) -> BatchJob {
        BatchJob { label: label.into(), parameter: None, geometry }
    }

    /// Attaches the swept parameter value (reported back in results and
    /// error contexts).
    #[must_use]
    pub fn with_parameter(mut self, parameter: f64) -> BatchJob {
        self.parameter = Some(parameter);
        self
    }
}

/// One completed job: its extraction plus the per-job scheduling record.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// The job label, as submitted.
    pub label: String,
    /// The swept parameter value, if the job had one.
    pub parameter: Option<f64>,
    /// The extraction result.
    pub extraction: Extraction,
    /// Scheduling and cache record of this job.
    pub job: JobReport,
}

/// All results of a batch run, in input order, plus the run-level report.
#[derive(Debug, Clone)]
pub struct BatchResult {
    points: Vec<BatchPoint>,
    report: BatchReport,
}

impl BatchResult {
    /// The per-job results, in input order.
    pub fn points(&self) -> &[BatchPoint] {
        &self.points
    }

    /// The run-level report (wall time, pool, aggregated cache counters).
    pub fn report(&self) -> &BatchReport {
        &self.report
    }

    /// One capacitance entry across the batch as `(parameter, C_ij)`
    /// pairs — the plottable curve of a family run. Jobs without a
    /// parameter annotation are skipped.
    pub fn entry_curve(&self, i: usize, j: usize) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter_map(|p| Some((p.parameter?, p.extraction.capacitance().get(i, j))))
            .collect()
    }
}

/// Batch extraction front end: an [`Extractor`] configuration applied to
/// many geometries through the shared execution core, with job-level
/// parallelism and cross-job caching.
///
/// The cross-job cache applies to every instantiable extractor. One that
/// asks for within-job parallelism ([`Extractor::parallelism`]) keeps it:
/// each job's setup runs on its own workers or ranks, and each of them
/// probes the shared cache. Every job is bit-identical to
/// [`Extractor::extract`] of the same geometry.
#[derive(Debug, Clone)]
pub struct BatchExtractor {
    extractor: Extractor,
    workers: Option<usize>,
    cache: CacheChoice,
    executor: Option<Arc<Executor>>,
}

/// Which pair-integral cache a batch run uses.
#[derive(Debug, Clone)]
enum CacheChoice {
    /// No caching: every integral is computed.
    Off,
    /// A fresh unbounded [`TemplateCache`] per run (the default).
    PerRun,
    /// A caller-owned, typically process-lifetime cache shared across
    /// runs (and across threads — the daemon's configuration).
    Shared(Arc<TemplateCache>),
}

impl BatchExtractor {
    /// A batch front end over the given extractor configuration, with
    /// caching enabled and the pool size taken from `BEMCAP_POOL` (or 1).
    pub fn new(extractor: Extractor) -> BatchExtractor {
        BatchExtractor { extractor, workers: None, cache: CacheChoice::PerRun, executor: None }
    }

    /// Pins the scheduler pool size (of the private per-run executor;
    /// ignored when [`BatchExtractor::executor`] supplies a shared one).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn workers(mut self, n: usize) -> BatchExtractor {
        assert!(n > 0, "batch pool needs at least one worker");
        self.workers = Some(n);
        self
    }

    /// Enables or disables the shared pair-integral cache. Results are
    /// bit-identical either way; only the work (and the reported cache
    /// counters) changes. Enabling restores the default per-run cache,
    /// discarding any [`BatchExtractor::shared_cache`] choice.
    #[must_use]
    pub fn cache(mut self, on: bool) -> BatchExtractor {
        self.cache = if on { CacheChoice::PerRun } else { CacheChoice::Off };
        self
    }

    /// Uses a caller-owned [`TemplateCache`] instead of a fresh per-run
    /// one, so pair integrals survive across batch runs for the lifetime
    /// of the cache — the configuration behind the `bemcap-serve` daemon.
    /// Results stay bit-identical whatever the cache's bound or prior
    /// contents; only the hit/miss/eviction counters change.
    #[must_use]
    pub fn shared_cache(mut self, cache: Arc<TemplateCache>) -> BatchExtractor {
        self.cache = CacheChoice::Shared(cache);
        self
    }

    /// Runs this batch on a caller-owned, typically process-lifetime
    /// [`Executor`] instead of a private per-run one. The executor's own
    /// pool size applies (the [`BatchExtractor::workers`] setting is
    /// ignored) and so does its admission control: when its queue has no
    /// room for every job of the batch, [`BatchExtractor::extract_all`]
    /// returns [`CoreError::Busy`] (or [`CoreError::OverDepth`] when the
    /// batch has more jobs than its whole depth) and none of them runs.
    #[must_use]
    pub fn executor(mut self, executor: Arc<Executor>) -> BatchExtractor {
        self.executor = Some(executor);
        self
    }

    /// The extractor configuration every job runs under.
    pub(crate) fn extractor(&self) -> &Extractor {
        &self.extractor
    }

    /// The pool size this batch will run with.
    pub fn effective_workers(&self) -> usize {
        match &self.executor {
            Some(exec) => exec.config().workers,
            None => self.workers.unwrap_or_else(default_pool_size),
        }
    }

    /// Runs every job and returns the results in input order.
    ///
    /// All jobs are attempted; if any fail, the error of the **lowest
    /// failing index** is returned (deterministic under any pool size),
    /// wrapped in [`CoreError::BatchJob`] with the job's index and
    /// parameter.
    ///
    /// # Errors
    ///
    /// [`CoreError::BatchJob`] around the first failing job's error;
    /// [`CoreError::Busy`] or [`CoreError::OverDepth`] when a shared
    /// executor ([`BatchExtractor::executor`]) refuses the batch (no job
    /// ran).
    pub fn extract_all(&self, jobs: &[BatchJob]) -> Result<BatchResult, CoreError> {
        self.run(jobs.to_vec())
    }

    /// The one multi-geometry path: runs the jobs as one executor
    /// submission and folds their outcomes into a [`BatchResult`], or
    /// into the lowest failing job's [`CoreError::BatchJob`].
    fn run(&self, jobs: Vec<BatchJob>) -> Result<BatchResult, CoreError> {
        let cache: Option<Arc<TemplateCache>> = match &self.cache {
            CacheChoice::Off => None,
            CacheChoice::PerRun => Some(Arc::new(TemplateCache::unbounded())),
            CacheChoice::Shared(c) => Some(Arc::clone(c)),
        };
        let start = Instant::now();
        let (tags, geometries): (Vec<_>, Vec<_>) =
            jobs.into_iter().map(|job| ((job.label, job.parameter), job.geometry)).unzip();
        let outcomes = self.submit(cache.clone(), geometries)?;
        let jobs = outcomes.len();
        let mut points = Vec::with_capacity(jobs);
        let (mut busy_seconds, mut total_cache) = (0.0, CacheStats::default());
        let mut exec = ExecStats { submitted: usize::from(jobs > 0), jobs, ..ExecStats::default() };
        for (index, ((label, parameter), outcome)) in tags.into_iter().zip(outcomes).enumerate() {
            exec.queue_seconds += outcome.queue_seconds;
            let (extraction, cache) = outcome.result.map_err(|source| CoreError::BatchJob {
                index,
                parameter,
                source: Box::new(source),
            })?;
            busy_seconds += outcome.seconds;
            total_cache.absorb(cache);
            let job = JobReport {
                index,
                worker: outcome.worker,
                seconds: outcome.seconds,
                queue_seconds: outcome.queue_seconds,
                cache,
            };
            points.push(BatchPoint { label, parameter, extraction, job });
        }
        Ok(BatchResult {
            points,
            report: BatchReport {
                jobs,
                workers: if jobs == 0 { 0 } else { self.effective_workers() },
                cache_enabled: cache.is_some(),
                wall_seconds: start.elapsed().as_secs_f64(),
                busy_seconds,
                cache: total_cache,
                exec,
            },
        })
    }

    /// Runs one job per geometry as one submission, on the shared executor
    /// or else on a private one sized so admission never rejects.
    fn submit(
        &self,
        cache: Option<Arc<TemplateCache>>,
        geometries: Vec<Geometry>,
    ) -> Result<Vec<JobOutcome>, CoreError> {
        if geometries.is_empty() {
            return Ok(Vec::new());
        }
        let private;
        let exec = match &self.executor {
            Some(exec) => exec.as_ref(),
            None => {
                let queue_depth = geometries.len();
                private =
                    Executor::new(ExecConfig { workers: self.effective_workers(), queue_depth });
                &private
            }
        };
        Ok(exec.submit(&self.extractor, cache, geometries)?.wait())
    }

    /// Runs the batch over `build(p)` for every parameter in `params` —
    /// a parameter sweep, with results in `params` order.
    ///
    /// # Errors
    ///
    /// [`CoreError::BatchJob`] around the first failing job's error, with
    /// the parameter value attached.
    pub fn extract_family(
        &self,
        params: &[f64],
        mut build: impl FnMut(f64) -> Geometry,
    ) -> Result<BatchResult, CoreError> {
        let jobs: Vec<BatchJob> = params
            .iter()
            .map(|&p| BatchJob::new(format!("param={p:e}"), build(p)).with_parameter(p))
            .collect();
        self.run(jobs)
    }

    /// Runs the batch over plain geometries, labeled by index.
    ///
    /// # Errors
    ///
    /// [`CoreError::BatchJob`] around the first failing job's error.
    pub fn extract_geometries(
        &self,
        geometries: impl IntoIterator<Item = Geometry>,
    ) -> Result<BatchResult, CoreError> {
        let jobs: Vec<BatchJob> = geometries
            .into_iter()
            .enumerate()
            .map(|(i, g)| BatchJob::new(format!("job{i}"), g))
            .collect();
        self.run(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ENTRY_BYTES;
    use crate::extraction::Method;
    use bemcap_geom::structures::{self, CrossingParams};

    fn family(hs: &[f64]) -> Vec<BatchJob> {
        hs.iter()
            .map(|&h| {
                BatchJob::new(
                    format!("h={h}"),
                    structures::crossing_wires(CrossingParams {
                        separation: h,
                        ..Default::default()
                    }),
                )
                .with_parameter(h)
            })
            .collect()
    }

    #[test]
    fn batch_matches_single_extraction_bit_for_bit() {
        let ex = Extractor::new();
        let jobs = family(&[0.4e-6, 0.7e-6, 1.1e-6]);
        let batch = BatchExtractor::new(ex.clone()).workers(2);
        let result = batch.extract_all(&jobs).expect("batch");
        assert_eq!(result.points().len(), 3);
        for (job, point) in jobs.iter().zip(result.points()) {
            let single = ex.extract(&job.geometry).expect("single");
            let a = single.capacitance().matrix();
            let b = point.extraction.capacitance().matrix();
            assert_eq!(a.as_slice(), b.as_slice(), "job {}", point.label);
        }
    }

    #[test]
    fn cache_on_off_identical_and_hits_counted() {
        use crate::extraction::Parallelism;
        let jobs = family(&[0.5e-6, 0.5e-6, 0.9e-6]);
        let bits = |e: &Extraction| {
            e.capacitance().matrix().as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        // Every setup mode probes the shared cache.
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
            let ex = Extractor::new().parallelism(parallelism);
            // One worker: jobs run in order, so job 1 (a duplicate of job
            // 0) must be answered entirely from the cache. With more
            // workers the duplicate jobs could race and legitimately both
            // miss.
            let run = |cache: bool| {
                let batch = BatchExtractor::new(ex.clone()).workers(1).cache(cache);
                batch.extract_all(&jobs).expect("batch")
            };
            let (cached, uncached) = (run(true), run(false));
            for ((job, a), b) in jobs.iter().zip(cached.points()).zip(uncached.points()) {
                let single = ex.extract(&job.geometry).expect("single");
                assert_eq!(bits(&a.extraction), bits(&single), "{parallelism:?}");
                assert_eq!(bits(&b.extraction), bits(&single), "{parallelism:?}");
            }
            // Jobs 0 and 1 are identical geometries: job 1 must be all hits.
            assert!(cached.points()[1].job.cache.hit_rate() > 0.99, "{parallelism:?}");
            assert_eq!(uncached.report().cache, CacheStats::default());
            assert!(cached.report().cache.hits > 0);
        }
    }

    #[test]
    fn pool_size_cannot_change_results() {
        let jobs = family(&[0.4e-6, 0.6e-6, 0.8e-6, 1.0e-6, 1.2e-6]);
        let one = BatchExtractor::new(Extractor::new()).workers(1).extract_all(&jobs).expect("w1");
        for w in [2, 3, 5, 8] {
            let many =
                BatchExtractor::new(Extractor::new()).workers(w).extract_all(&jobs).expect("wn");
            for (a, b) in one.points().iter().zip(many.points()) {
                assert_eq!(a.parameter, b.parameter, "workers={w}");
                assert_eq!(
                    a.extraction.capacitance().matrix().as_slice(),
                    b.extraction.capacitance().matrix().as_slice(),
                    "workers={w}"
                );
            }
        }
    }

    #[test]
    fn failing_job_reports_index_and_parameter() {
        let mut jobs = family(&[0.4e-6, 0.8e-6]);
        jobs.insert(1, BatchJob::new("empty", Geometry::new(vec![])).with_parameter(42.0));
        let err = BatchExtractor::new(Extractor::new()).extract_all(&jobs).unwrap_err();
        match err {
            CoreError::BatchJob { index, parameter, source } => {
                assert_eq!(index, 1);
                assert_eq!(parameter, Some(42.0));
                assert!(matches!(*source, CoreError::EmptyGeometry));
            }
            other => panic!("expected BatchJob error, got {other:?}"),
        }
    }

    #[test]
    fn lowest_failing_index_wins_at_any_pool_size() {
        let mut jobs = family(&[0.4e-6, 0.8e-6, 1.2e-6]);
        jobs.insert(1, BatchJob::new("bad1", Geometry::new(vec![])));
        jobs.push(BatchJob::new("bad2", Geometry::new(vec![])));
        for w in [1, 2, 4] {
            let err =
                BatchExtractor::new(Extractor::new()).workers(w).extract_all(&jobs).unwrap_err();
            match err {
                CoreError::BatchJob { index, .. } => assert_eq!(index, 1, "workers={w}"),
                other => panic!("expected BatchJob error, got {other:?}"),
            }
        }
    }

    #[test]
    fn report_accounts_for_all_jobs() {
        let jobs = family(&[0.4e-6, 0.8e-6, 1.2e-6]);
        let result =
            BatchExtractor::new(Extractor::new()).workers(2).extract_all(&jobs).expect("batch");
        let r = result.report();
        assert_eq!(r.jobs, 3);
        assert_eq!(r.workers, 2);
        assert!(r.cache_enabled);
        assert!(r.wall_seconds > 0.0);
        assert!(r.busy_seconds > 0.0);
        let summed: usize = result.points().iter().map(|p| p.job.cache.lookups()).sum();
        assert_eq!(r.cache.lookups(), summed);
        // Executor accounting: the batch is one submission of 3 jobs.
        assert_eq!(r.exec.submitted, 1);
        assert_eq!(r.exec.jobs, 3);
        assert_eq!(r.exec.rejected, 0);
        for (i, p) in result.points().iter().enumerate() {
            assert_eq!(p.job.index, i);
            assert!(p.job.worker < 2);
            assert!(p.job.seconds >= 0.0);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let result = BatchExtractor::new(Extractor::new()).extract_all(&[]).expect("empty");
        assert!(result.points().is_empty());
        assert_eq!(result.report().jobs, 0);
    }

    #[test]
    fn coupling_decreases_with_separation() {
        let hs = [0.4e-6, 0.8e-6, 1.6e-6];
        let result = BatchExtractor::new(Extractor::new())
            .extract_family(&hs, |h| {
                structures::crossing_wires(CrossingParams { separation: h, ..Default::default() })
            })
            .expect("family");
        let curve = result.entry_curve(0, 1);
        assert_eq!(curve.iter().map(|p| p.0).collect::<Vec<_>>(), hs);
        // Coupling magnitude decreases monotonically with h.
        for w in curve.windows(2) {
            assert!(w[0].1.abs() > w[1].1.abs(), "coupling must fall with h: {curve:?}");
        }
    }

    #[test]
    fn entry_curve_skips_unparameterized_jobs() {
        let mut jobs = family(&[0.4e-6, 0.8e-6]);
        jobs.push(BatchJob::new("extra", structures::crossing_wires(CrossingParams::default())));
        let result = BatchExtractor::new(Extractor::new()).extract_all(&jobs).expect("batch");
        let curve = result.entry_curve(0, 1);
        assert_eq!(curve.len(), 2);
        assert!(curve[0].1.abs() > curve[1].1.abs(), "coupling falls with h");
    }

    #[test]
    fn within_job_parallelism_is_honored_and_bit_identical() {
        // An extractor that asked for threaded setup keeps it inside the
        // batch: the job runs extract()'s own driver (same accumulation
        // order), so results match extract() bit for bit.
        use crate::extraction::Parallelism;
        let ex = Extractor::new().parallelism(Parallelism::Threads(2));
        let jobs = family(&[0.5e-6, 0.9e-6]);
        let result = BatchExtractor::new(ex.clone()).extract_all(&jobs).expect("batch");
        for (job, point) in jobs.iter().zip(result.points()) {
            let single = ex.extract(&job.geometry).expect("single");
            assert_eq!(
                single.capacitance().matrix().as_slice(),
                point.extraction.capacitance().matrix().as_slice()
            );
            assert_eq!(point.extraction.report().workers, 2);
        }
        // The threaded setup probes the shared cache too.
        assert!(result.report().cache.lookups() > 0);
    }

    #[test]
    fn mesh_methods_run_through_batch() {
        let jobs = family(&[0.5e-6]);
        let result = BatchExtractor::new(Extractor::new().method(Method::PwcDense))
            .extract_all(&jobs)
            .expect("dense batch");
        assert_eq!(result.points()[0].extraction.report().method, "pwc-dense");
        assert_eq!(result.report().cache, CacheStats::default());
    }

    #[test]
    fn default_pool_size_is_positive() {
        assert!(default_pool_size() >= 1);
    }

    #[test]
    fn shared_cache_warms_across_runs() {
        let cache = Arc::new(TemplateCache::unbounded());
        let jobs = family(&[0.6e-6, 1.0e-6]);
        let batch =
            BatchExtractor::new(Extractor::new()).workers(1).shared_cache(Arc::clone(&cache));
        let cold = batch.extract_all(&jobs).expect("cold run");
        let warm = batch.extract_all(&jobs).expect("warm run");
        // Identical geometries, process-lifetime cache: the second run is
        // answered entirely from the cache...
        assert_eq!(warm.report().cache.misses, 0, "warm run must be all hits");
        assert!(cold.report().cache.misses > 0);
        // ...and bit-identical to the cold one.
        for (a, b) in cold.points().iter().zip(warm.points()) {
            assert_eq!(
                a.extraction.capacitance().matrix().as_slice(),
                b.extraction.capacitance().matrix().as_slice()
            );
        }
        assert!(!cache.is_empty());
        assert_eq!(cache.lifetime().lookups(), cold.report().cache.lookups() * 2);
    }

    #[test]
    fn bounded_shared_cache_evicts_but_results_are_unchanged() {
        // A bound far below the family's working set: evictions must
        // happen, the bound must hold, and every matrix must still be
        // bit-identical to the uncached run.
        let jobs = family(&[0.4e-6, 0.55e-6, 0.7e-6, 0.85e-6, 1.0e-6]);
        let cache = Arc::new(TemplateCache::with_max_bytes(64 * ENTRY_BYTES));
        let bounded = BatchExtractor::new(Extractor::new())
            .workers(1)
            .shared_cache(Arc::clone(&cache))
            .extract_all(&jobs)
            .expect("bounded run");
        let reference = BatchExtractor::new(Extractor::new())
            .workers(1)
            .cache(false)
            .extract_all(&jobs)
            .expect("reference");
        for (a, b) in bounded.points().iter().zip(reference.points()) {
            assert_eq!(
                a.extraction.capacitance().matrix().as_slice(),
                b.extraction.capacitance().matrix().as_slice(),
                "eviction changed a result at job {}",
                a.label
            );
        }
        assert!(bounded.report().cache.evictions > 0, "bound this small must evict");
        assert!(cache.resident_bytes() <= cache.max_bytes().expect("bounded"));
        assert_eq!(
            bounded.report().cache.inserted_bytes,
            bounded.report().cache.misses * ENTRY_BYTES
        );
    }

    #[test]
    fn batch_runs_as_a_client_of_a_shared_executor() {
        let exec = Arc::new(Executor::new(ExecConfig { workers: 2, queue_depth: 32 }));
        let jobs = family(&[0.4e-6, 0.7e-6, 1.1e-6]);
        let on_shared = BatchExtractor::new(Extractor::new())
            .executor(Arc::clone(&exec))
            .extract_all(&jobs)
            .expect("shared-executor batch");
        let private =
            BatchExtractor::new(Extractor::new()).workers(1).extract_all(&jobs).expect("private");
        assert_eq!(on_shared.report().workers, 2, "workers come from the executor");
        for (a, b) in on_shared.points().iter().zip(private.points()) {
            assert_eq!(
                a.extraction.capacitance().matrix().as_slice(),
                b.extraction.capacitance().matrix().as_slice()
            );
        }
        // The run is visible in the executor's lifetime counters.
        let stats = exec.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.jobs, 3);
    }

    #[test]
    fn shared_executor_admission_control_applies_to_batch() {
        // With the worker held and one job waiting, four jobs fit the
        // depth-4 queue but not its free room: the batch is refused whole
        // and none of its jobs runs. A per-job admission would
        // deterministically admit three of them.
        let exec = Arc::new(Executor::new(ExecConfig { workers: 1, queue_depth: 4 }));
        let cache = Arc::new(TemplateCache::unbounded());
        let batch = BatchExtractor::new(Extractor::new())
            .executor(Arc::clone(&exec))
            .shared_cache(Arc::clone(&cache));
        let gate = exec.block_workers();
        let filler = structures::crossing_wires(CrossingParams::default());
        let filler = exec.submit(&Extractor::new(), None, vec![filler]).expect("room for one");
        let err = batch
            .extract_all(&family(&[0.4e-6, 0.6e-6, 0.8e-6, 1.0e-6]))
            .map(|_| ())
            .expect_err("4 jobs never fit the 3 free slots");
        assert!(matches!(err, CoreError::Busy { queued: 1, depth: 4 }), "{err:?}");
        // Five jobs can never fit the depth: over-depth, not busy.
        let err = batch
            .extract_all(&family(&[0.4e-6, 0.6e-6, 0.8e-6, 1.0e-6, 1.2e-6]))
            .map(|_| ())
            .expect_err("5 jobs never fit a depth-4 queue");
        assert!(matches!(err, CoreError::OverDepth { jobs: 5, depth: 4 }), "{err:?}");
        gate.release();
        assert!(filler.wait()[0].result.is_ok());
        exec.drain();
        assert_eq!(exec.stats().jobs, 1, "a refused batch ran jobs");
        assert!(cache.is_empty(), "a refused batch filled the shared cache");
    }
}
