//! The shared execution core: one admission-controlled work-queue
//! executor that batch extraction (parameter sweeps included), chip
//! extraction and the `bemcap-serve` daemon all run on.
//!
//! Before this module, only a single [`crate::batch::BatchExtractor`]
//! run shared a worker pool; every other entry point (each daemon
//! request, each sweep) built its own private execution path.
//! [`Executor`] is the single path, and the job (one geometry) is its
//! only unit of work:
//!
//! * **group admission** — at most [`ExecConfig::queue_depth`] jobs
//!   wait at once. A submission's jobs are admitted together or refused
//!   together with [`CoreError::Busy`] *before* any of them is queued:
//!   overload degrades into structured rejections that ran nothing, never
//!   into unbounded thread or queue growth. A submission with more jobs
//!   than the whole depth is refused with [`CoreError::OverDepth`]
//!   instead, since no retry could admit it.
//! * **one task per job** — every admitted job is its own queue task, and
//!   any idle worker takes the next one (the self-scheduling of the
//!   paper's Algorithm 1), so the jobs of one submission spread over the
//!   free workers and a fast job never waits behind a slow one while
//!   another worker is free. Jobs are computed by the same
//!   bit-deterministic code path as [`Extractor::extract`], whichever
//!   worker runs them; the [`Ticket`] hands the outcomes back in input
//!   order.
//! * **isolation** — a failing (or panicking) job fails only its own
//!   outcome; the worker and every other job carry on.
//!
//! [`crate::batch::BatchExtractor`] is the executor's one client: batch
//! extraction, chip extraction (its window misses) and the daemon all
//! submit through it, on a private per-run executor by default (sized so
//! admission never rejects) or on a shared one — the daemon's
//! process-lifetime executor, installed with
//! [`crate::batch::BatchExtractor::executor`].

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use bemcap_geom::Geometry;
use bemcap_par::WorkQueue;

use crate::cache::TemplateCache;
use crate::error::CoreError;
use crate::extraction::{Extraction, Extractor};
use crate::metrics::metrics;
use crate::report::{CacheStats, ExecStats};

/// Name of the environment variable that sets the default pool size
/// (`BEMCAP_POOL=4`). CI runs the test suite under several values so
/// scheduler nondeterminism cannot hide behind a fixed default.
pub const POOL_ENV: &str = "BEMCAP_POOL";

/// Name of the environment variable that sets the default admission
/// queue depth (`BEMCAP_QUEUE=64`).
pub const QUEUE_ENV: &str = "BEMCAP_QUEUE";

/// Default admission queue depth when `BEMCAP_QUEUE` is unset: deep
/// enough that interactive traffic never sees `busy`, small enough that
/// a runaway client cannot queue unbounded work.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// The positive integer in environment variable `name`, if set to one.
fn env_count(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse::<usize>().ok()).filter(|&n| n > 0)
}

/// The default worker pool size: `BEMCAP_POOL` when set to a positive
/// integer, 1 otherwise.
pub fn default_pool_size() -> usize {
    env_count(POOL_ENV).unwrap_or(1)
}

/// The default admission queue depth: `BEMCAP_QUEUE` when set to a
/// positive integer, [`DEFAULT_QUEUE_DEPTH`] otherwise.
pub fn default_queue_depth() -> usize {
    env_count(QUEUE_ENV).unwrap_or(DEFAULT_QUEUE_DEPTH)
}

/// Configuration of an [`Executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads draining the queue (extraction parallelism).
    pub workers: usize,
    /// Most jobs allowed to wait at once; submissions beyond it are
    /// refused with [`CoreError::Busy`], and one carrying more jobs than
    /// the whole depth with [`CoreError::OverDepth`].
    pub queue_depth: usize,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig { workers: default_pool_size(), queue_depth: default_queue_depth() }
    }
}

/// The result of one job, in its submission's input order.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The extraction and its cache counters, or what went wrong. A
    /// failure here affected only this job.
    pub result: Result<(Extraction, CacheStats), CoreError>,
    /// Wall-clock seconds of this job on its worker.
    pub seconds: f64,
    /// Seconds this job waited between admission and its start.
    pub queue_seconds: f64,
    /// Executor worker that ran the job.
    pub worker: usize,
}

/// A handle on an admitted submission; [`Ticket::wait`] blocks until the
/// executor has run every job and returns their outcomes.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<(usize, JobOutcome)>,
    jobs: usize,
}

impl Ticket {
    /// Blocks until every job of the submission has run, and returns
    /// their outcomes in input order.
    ///
    /// # Panics
    ///
    /// Panics if an executor worker died mid-job (a bug: jobs report
    /// failures, panics included, as values).
    pub fn wait(self) -> Vec<JobOutcome> {
        // Each job answers once; the channel closes early only if a worker
        // died holding its sender.
        let mut outcomes: Vec<(usize, JobOutcome)> = self.rx.iter().take(self.jobs).collect();
        assert_eq!(outcomes.len(), self.jobs, "executor worker died before answering its job");
        outcomes.sort_unstable_by_key(|&(index, _)| index);
        outcomes.into_iter().map(|(_, outcome)| outcome).collect()
    }
}

#[derive(Default)]
struct Shared {
    /// Jobs admitted but not yet started — the quantity admission
    /// control bounds.
    waiting: AtomicUsize,
    running: AtomicUsize,
    submitted: AtomicUsize,
    rejected: AtomicUsize,
    jobs_run: AtomicUsize,
    queue_wait_nanos: AtomicU64,
}

/// The shared execution core. See the module docs for the contract.
pub struct Executor {
    cfg: ExecConfig,
    shared: Arc<Shared>,
    queue: WorkQueue,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("config", &self.cfg)
            .field("queued_jobs", &self.queued_jobs())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Executor {
    /// Starts the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `queue_depth` is 0.
    pub fn new(cfg: ExecConfig) -> Executor {
        assert!(cfg.queue_depth > 0, "executor needs a queue depth of at least one job");
        Executor { cfg, shared: Arc::default(), queue: WorkQueue::new(cfg.workers) }
    }

    /// The configuration the executor runs with.
    pub fn config(&self) -> ExecConfig {
        self.cfg
    }

    /// Jobs admitted but not yet started.
    pub fn queued_jobs(&self) -> usize {
        self.shared.waiting.load(Ordering::SeqCst)
    }

    /// Jobs currently executing on workers.
    pub fn running_jobs(&self) -> usize {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// Lifetime counters since construction.
    pub fn stats(&self) -> ExecStats {
        let s = &self.shared;
        ExecStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            jobs: s.jobs_run.load(Ordering::Relaxed),
            queue_seconds: s.queue_wait_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }

    /// Submits one job per geometry to run under `extractor` with the
    /// given pair-integral cache (`None` = caching off). Returns
    /// immediately with a [`Ticket`]; each job runs as its own queue task
    /// on the next idle worker.
    ///
    /// # Errors
    ///
    /// [`CoreError::OverDepth`] when there are more jobs than
    /// [`ExecConfig::queue_depth`]; [`CoreError::Busy`] when admitting
    /// them would push the number of waiting jobs past it. None of the
    /// jobs is queued or executed in either case.
    pub fn submit(
        &self,
        extractor: &Extractor,
        cache: Option<Arc<TemplateCache>>,
        geometries: Vec<Geometry>,
    ) -> Result<Ticket, CoreError> {
        let (n, depth) = (geometries.len(), self.cfg.queue_depth);
        let admit = |w: usize| (w + n <= depth).then_some(w + n);
        if let Err(queued) =
            self.shared.waiting.fetch_update(Ordering::SeqCst, Ordering::SeqCst, admit)
        {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            metrics().exec_rejected.inc();
            return Err(if n > depth {
                CoreError::OverDepth { jobs: n, depth }
            } else {
                CoreError::Busy { queued, depth }
            });
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        metrics().exec_submitted.inc();
        let (tx, rx) = mpsc::channel();
        let extractor = Arc::new(extractor.clone());
        let enqueued = Instant::now();
        for (index, geometry) in geometries.into_iter().enumerate() {
            let (shared, extractor) = (Arc::clone(&self.shared), Arc::clone(&extractor));
            let (cache, tx) = (cache.clone(), tx.clone());
            self.queue.push(move |worker| {
                let outcome = shared.run(&extractor, cache.as_deref(), &geometry, enqueued, worker);
                // A submitter that dropped its ticket just loses the answer.
                let _ = tx.send((index, outcome));
            });
        }
        Ok(Ticket { rx, jobs: n })
    }
}

impl Shared {
    /// Executes one job on `worker`. It counts as *waiting* (against the
    /// admission bound, and in `queued_jobs`) until this starts, and as
    /// *running* only while it executes.
    fn run(
        &self,
        extractor: &Extractor,
        cache: Option<&TemplateCache>,
        geometry: &Geometry,
        enqueued: Instant,
        worker: usize,
    ) -> JobOutcome {
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        self.running.fetch_add(1, Ordering::SeqCst);
        let queue_seconds = enqueued.elapsed().as_secs_f64();
        self.queue_wait_nanos.fetch_add((queue_seconds * 1e9) as u64, Ordering::Relaxed);
        metrics().exec_queue_wait_nanos.add((queue_seconds * 1e9) as u64);
        if extractor.is_accelerated() {
            // Build the §4.2.3 tables before the first job is billed for them.
            bemcap_accel::fastmath::warm_tables();
        }
        let t = Instant::now();
        // A panicking job answers with its own outcome; the worker
        // carries on.
        let result =
            panic::catch_unwind(AssertUnwindSafe(|| extractor.extract_with(cache, geometry)))
                .unwrap_or_else(|payload| {
                    Err(CoreError::JobPanicked(panic_message(payload.as_ref())))
                });
        let seconds = t.elapsed().as_secs_f64();
        self.jobs_run.fetch_add(1, Ordering::Relaxed);
        metrics().exec_jobs.inc();
        self.running.fetch_sub(1, Ordering::SeqCst);
        JobOutcome { result, seconds, queue_seconds, worker }
    }
}

/// The message a panic was raised with, when it carries one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => (*s).to_string(),
        (_, Some(s)) => s.clone(),
        _ => "non-string panic payload".to_string(),
    }
}

/// Test handles on the worker pool, bypassing admission.
#[cfg(test)]
impl Executor {
    /// Occupies every worker until [`Gate::release`], so later
    /// submissions deterministically pile up in the queue.
    pub(crate) fn block_workers(&self) -> Gate {
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let workers = self.cfg.workers;
        let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
        for _ in 0..workers {
            let started_tx = started_tx.clone();
            let release_rx = Arc::clone(&release_rx);
            self.queue.push(move |_| {
                started_tx.send(()).expect("test alive");
                // All blockers share the release channel: one message
                // per blocker frees them.
                let _ = release_rx.lock().expect("gate").recv();
            });
        }
        for _ in 0..workers {
            started_rx.recv().expect("blocker started");
        }
        Gate { tx: release_tx, workers }
    }

    /// Blocks until every task queued so far has finished. Exact for a
    /// one-worker executor, whose queue runs in FIFO order.
    pub(crate) fn drain(&self) {
        let (tx, rx) = mpsc::channel::<()>();
        self.queue.push(move |_| tx.send(()).expect("test alive"));
        rx.recv().expect("drain marker ran");
    }
}

/// The release handle of [`Executor::block_workers`].
#[cfg(test)]
pub(crate) struct Gate {
    tx: mpsc::Sender<()>,
    workers: usize,
}

#[cfg(test)]
impl Gate {
    /// Frees every blocked worker.
    pub(crate) fn release(self) {
        for _ in 0..self.workers {
            let _ = self.tx.send(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extraction::Method;
    use bemcap_geom::structures::{self, CrossingParams};

    fn crossing(h: f64) -> Geometry {
        structures::crossing_wires(CrossingParams { separation: h, ..Default::default() })
    }

    fn matrix(outcome: &JobOutcome) -> &[f64] {
        let (extraction, _) = outcome.result.as_ref().expect("job ok");
        extraction.capacitance().matrix().as_slice()
    }

    #[test]
    fn single_submission_matches_direct_extraction_bit_for_bit() {
        let exec = Executor::new(ExecConfig { workers: 2, queue_depth: 8 });
        let ex = Extractor::new();
        let geo = crossing(0.6e-6);
        let ticket = exec
            .submit(&ex, Some(Arc::new(TemplateCache::unbounded())), vec![geo.clone()])
            .expect("admitted");
        let outcomes = ticket.wait();
        assert_eq!(outcomes.len(), 1);
        let (_, stats) = outcomes[0].result.as_ref().expect("job ok");
        let direct = ex.extract(&geo).expect("direct");
        assert_eq!(matrix(&outcomes[0]), direct.capacitance().matrix().as_slice());
        assert!(stats.misses > 0);
    }

    #[test]
    fn empty_submission_resolves_immediately() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 1 });
        let outcomes = exec.submit(&Extractor::new(), None, vec![]).expect("empty ok").wait();
        assert!(outcomes.is_empty());
        assert_eq!(exec.queued_jobs(), 0);
    }

    #[test]
    fn full_queue_returns_busy_and_never_deadlocks() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 2 });
        let gate = exec.block_workers();
        let ex = Extractor::new();
        let t1 = exec.submit(&ex, None, vec![crossing(0.4e-6)]).expect("slot 1");
        let t2 = exec.submit(&ex, None, vec![crossing(0.5e-6)]).expect("slot 2");
        assert_eq!(exec.queued_jobs(), 2);
        match exec.submit(&ex, None, vec![crossing(0.6e-6)]) {
            Err(CoreError::Busy { queued, depth }) => {
                assert_eq!((queued, depth), (2, 2));
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        // A multi-job submission that fits the depth but not the
        // remaining room is also refused atomically — no partial
        // admission.
        match exec.submit(&ex, None, vec![crossing(0.7e-6), crossing(0.8e-6)]) {
            Err(CoreError::Busy { queued: 2, depth: 2 }) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        // One larger than the whole depth is never admissible: it is
        // refused as over-depth, not busy.
        match exec.submit(&ex, None, vec![crossing(0.7e-6), crossing(0.8e-6), crossing(0.9e-6)]) {
            Err(CoreError::OverDepth { jobs: 3, depth: 2 }) => {}
            other => panic!("expected OverDepth, got {other:?}"),
        }
        assert_eq!(exec.queued_jobs(), 2);
        gate.release();
        let a = t1.wait();
        let b = t2.wait();
        assert!(a[0].result.is_ok() && b[0].result.is_ok());
        let stats = exec.stats();
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.submitted, 2);
        assert_eq!(exec.queued_jobs(), 0);
    }

    #[test]
    fn failing_submission_queued_between_healthy_ones_fails_alone() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 16 });
        let gate = exec.block_workers();
        let ex = Extractor::new();
        let good1 = exec.submit(&ex, None, vec![crossing(0.5e-6)]).expect("good1");
        let bad = exec.submit(&ex, None, vec![Geometry::new(vec![])]).expect("bad admitted");
        let good2 = exec.submit(&ex, None, vec![crossing(0.9e-6)]).expect("good2");
        assert_eq!(exec.queued_jobs(), 3);
        gate.release();
        let (s1, sb, s2) = (good1.wait(), bad.wait(), good2.wait());
        assert!(s1[0].result.is_ok());
        assert!(matches!(sb[0].result, Err(CoreError::EmptyGeometry)), "{:?}", sb[0].result);
        let direct = ex.extract(&crossing(0.9e-6)).expect("direct");
        assert_eq!(matrix(&s2[0]), direct.capacitance().matrix().as_slice());
        let stats = exec.stats();
        assert_eq!((stats.submitted, stats.jobs), (3, 3));
        assert!(stats.queue_seconds > 0.0);
    }

    #[test]
    fn a_slow_and_a_fast_submission_run_on_different_workers() {
        let exec = Executor::new(ExecConfig { workers: 2, queue_depth: 8 });
        let gate = exec.block_workers();
        let ex = Extractor::new();
        let bus = structures::bus_crossing(4, 4, structures::BusParams::default());
        let slow = exec.submit(&ex, None, vec![bus]).expect("slow");
        let fast = exec.submit(&ex, None, vec![crossing(0.5e-6)]).expect("fast");
        gate.release();
        let (a, b) = (slow.wait(), fast.wait());
        assert!(a[0].result.is_ok() && b[0].result.is_ok());
        assert_ne!(
            a[0].worker, b[0].worker,
            "the fast submission waited behind the slow one on a single worker"
        );
    }

    #[test]
    fn the_jobs_of_one_submission_spread_over_idle_workers() {
        let exec = Executor::new(ExecConfig { workers: 2, queue_depth: 8 });
        let gate = exec.block_workers();
        let ex = Extractor::new();
        let bus = structures::bus_crossing(4, 4, structures::BusParams::default());
        let ticket = exec.submit(&ex, None, vec![bus, crossing(0.5e-6)]).expect("admitted");
        gate.release();
        let outcomes = ticket.wait();
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        assert_ne!(
            outcomes[0].worker, outcomes[1].worker,
            "the fast job waited behind the slow one of its own submission"
        );
        // Each job carries its own queue wait.
        assert!(outcomes.iter().all(|o| o.queue_seconds > 0.0));
    }

    #[test]
    fn multi_job_submission_keeps_input_order_and_reports_failure_index() {
        let exec = Executor::new(ExecConfig { workers: 2, queue_depth: 8 });
        let ex = Extractor::new();
        let empty = || Geometry::new(vec![]);
        let jobs = vec![crossing(0.4e-6), empty(), crossing(0.8e-6), empty()];
        let outcomes = exec.submit(&ex, None, jobs).expect("admitted").wait();
        assert_eq!(outcomes.len(), 4);
        for (i, h) in [(0, 0.4e-6), (2, 0.8e-6)] {
            let direct = ex.extract(&crossing(h)).expect("direct");
            assert_eq!(matrix(&outcomes[i]), direct.capacitance().matrix().as_slice(), "job {i}");
        }
        for i in [1, 3] {
            assert!(matches!(outcomes[i].result, Err(CoreError::EmptyGeometry)), "job {i}");
        }
    }

    #[test]
    fn panicking_job_is_contained_and_the_worker_serves_on() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 128 });
        // A zero leaf size still asserts inside `Octree::build`.
        let fmm = crate::FmmConfig { leaf_size: 0, ..Default::default() };
        let bad = Extractor::new().method(Method::PwcFmm).mesh_divisions(2).fmm_config(fmm);
        let bad = exec.submit(&bad, None, vec![crossing(0.5e-6)]).expect("admitted");
        let ex = Extractor::new();
        let healthy: Vec<Ticket> = (0..100)
            .map(|i| exec.submit(&ex, None, vec![crossing((0.4 + 0.01 * i as f64) * 1e-6)]))
            .collect::<Result<_, _>>()
            .expect("admitted");
        match &bad.wait()[0].result {
            Err(CoreError::JobPanicked(message)) => assert!(!message.is_empty()),
            other => panic!("expected a contained panic, got {other:?}"),
        }
        for ticket in healthy {
            assert!(ticket.wait()[0].result.is_ok());
        }
        assert_eq!((exec.running_jobs(), exec.queued_jobs()), (0, 0));
        assert_eq!(exec.stats().jobs, 101);
    }

    #[test]
    fn default_queue_depth_is_positive() {
        assert!(default_queue_depth() >= 1);
    }
}
