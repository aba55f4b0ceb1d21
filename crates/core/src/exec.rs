//! The shared execution core: one admission-controlled work-queue
//! executor that batch extraction (parameter sweeps included), chip
//! extraction and the `bemcap-serve` daemon all run on.
//!
//! Before this module, only a single [`crate::batch::BatchExtractor`]
//! run shared a worker pool; every other entry point (each daemon
//! request, each sweep) built its own private execution path.
//! [`Executor`] is the single path:
//!
//! * **bounded admission** — at most [`ExecConfig::queue_depth`] jobs
//!   wait at once. A submission that would exceed the bound is refused
//!   with [`CoreError::Busy`] *before* any work happens: overload
//!   degrades into structured rejections, never into unbounded thread or
//!   queue growth.
//! * **one task per submission** — an admitted submission becomes one
//!   queue task that builds its Galerkin engine, runs the submission's
//!   jobs in input order and answers its [`Ticket`]. Any idle worker
//!   takes the next task, so a fast submission never waits behind a slow
//!   one while another worker is free. Jobs are computed by the same
//!   bit-deterministic code path as [`Extractor::extract`], whichever
//!   worker runs them.
//! * **isolation** — a failing (or panicking) job fails only its own
//!   submission; the worker and every other submission carry on.
//!
//! Batch and chip extraction submit through one fan-out: a private
//! per-run executor by default (sized so admission never rejects), or a
//! shared one ([`crate::batch::BatchExtractor::executor`]); the daemon
//! owns one process-lifetime executor and enqueues every wire request on
//! it.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use bemcap_par::WorkQueue;

use crate::batch::{default_pool_size, BatchJob};
use crate::cache::TemplateCache;
use crate::error::CoreError;
use crate::extraction::{Extraction, Extractor};
use crate::metrics::metrics;
use crate::report::{CacheStats, ExecStats};

/// Name of the environment variable that sets the default admission
/// queue depth (`BEMCAP_QUEUE=64`).
pub const QUEUE_ENV: &str = "BEMCAP_QUEUE";

/// Default admission queue depth when `BEMCAP_QUEUE` is unset: deep
/// enough that interactive traffic never sees `busy`, small enough that
/// a runaway client cannot queue unbounded work.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// The default admission queue depth: `BEMCAP_QUEUE` when set to a
/// positive integer, [`DEFAULT_QUEUE_DEPTH`] otherwise.
pub fn default_queue_depth() -> usize {
    std::env::var(QUEUE_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_QUEUE_DEPTH)
}

/// Configuration of an [`Executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads draining the queue (extraction parallelism).
    pub workers: usize,
    /// Most jobs allowed to wait at once; submissions beyond it are
    /// refused with [`CoreError::Busy`]. A submission carrying more jobs
    /// than the whole depth can never be admitted.
    pub queue_depth: usize,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig { workers: default_pool_size(), queue_depth: default_queue_depth() }
    }
}

/// One result of a submission's job, in the submission's input order.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The extraction and its cache counters, or what went wrong. A
    /// failure here affected only this job's submission.
    pub result: Result<(Extraction, CacheStats), CoreError>,
    /// Wall-clock seconds of this job on its worker.
    pub seconds: f64,
    /// Executor worker that ran the job.
    pub worker: usize,
}

/// Everything a completed submission gets back from the executor.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Per-job outcomes, in the submission's input order.
    pub outcomes: Vec<JobOutcome>,
    /// Seconds this submission waited between admission and the start of
    /// its processing.
    pub queue_seconds: f64,
}

impl Submission {
    /// Index and error of the lowest-index failing job, if any.
    pub fn first_failure(&self) -> Option<(usize, &CoreError)> {
        self.outcomes.iter().enumerate().find_map(|(i, o)| o.result.as_ref().err().map(|e| (i, e)))
    }
}

/// A handle on an admitted submission; [`Ticket::wait`] blocks until the
/// executor has run every job and returns their results.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Submission>,
}

impl Ticket {
    /// Blocks until the submission completes.
    ///
    /// # Panics
    ///
    /// Panics if the executor's worker died mid-job (a bug: jobs report
    /// failures as values, they do not panic).
    pub fn wait(self) -> Submission {
        self.rx.recv().expect("executor worker died before answering its submission")
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

    /// Submits `jobs` to run under `extractor` with the given
    /// pair-integral cache (`None` = caching off). Returns immediately
    /// with a [`Ticket`]; the submission runs as one queue task on the
    /// next idle worker.
    ///
    /// An empty submission is answered immediately without taking a
    /// queue slot.
    ///
    /// # Errors
    ///
    /// [`CoreError::Busy`] when admitting the jobs would push the number
    /// of waiting jobs past [`ExecConfig::queue_depth`]. Nothing is
    /// queued or executed in that case.
    pub fn submit(
        &self,
        extractor: &Extractor,
        cache: Option<Arc<TemplateCache>>,
        jobs: Vec<BatchJob>,
    ) -> Result<Ticket, CoreError> {
        let (tx, rx) = mpsc::channel();
        let (n, depth) = (jobs.len(), self.cfg.queue_depth);
        let admit = |w: usize| (w + n <= depth).then_some(w + n);
        if let Err(queued) =
            self.shared.waiting.fetch_update(Ordering::SeqCst, Ordering::SeqCst, admit)
        {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            metrics().exec_rejected.inc();
            return Err(CoreError::Busy { queued, depth });
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        metrics().exec_submitted.inc();
        if n == 0 {
            let _ = tx.send(Submission { outcomes: Vec::new(), queue_seconds: 0.0 });
            return Ok(Ticket { rx });
        }
        let shared = Arc::clone(&self.shared);
        let extractor = extractor.clone();
        let enqueued = Instant::now();
        self.queue.push(move |worker| {
            // A submitter that dropped its ticket just loses the answer.
            let _ = tx.send(shared.run(&extractor, cache.as_deref(), &jobs, enqueued, worker));
        });
        Ok(Ticket { rx })
    }
}

/// One [`fan_out`] run: every job's outcome in input order, the run's
/// executor counters, and the worker count of its executor (0 for no jobs).
pub(crate) struct FanOut {
    pub(crate) outcomes: Vec<JobOutcome>,
    pub(crate) stats: ExecStats,
    pub(crate) workers: usize,
}

/// Runs `jobs` under `extractor` and `cache`: the submission policy of
/// batch and chip extraction. On a `shared` executor every job is its own
/// submission, so admission is per job and jobs spread over its workers
/// alongside other clients' work. Otherwise a private executor of
/// `workers` threads, sized so admission never rejects, gets the jobs as
/// contiguous chunks of the Algorithm-1 static share (`⌈jobs / workers⌉`
/// each, one submission per chunk), so each worker builds one engine.
///
/// # Errors
///
/// [`CoreError::Busy`] when the shared executor refuses a submission;
/// already-admitted jobs still run, but their outcomes are dropped.
pub(crate) fn fan_out(
    shared: Option<&Executor>,
    workers: usize,
    extractor: &Extractor,
    cache: Option<Arc<TemplateCache>>,
    jobs: Vec<BatchJob>,
) -> Result<FanOut, CoreError> {
    let n = jobs.len();
    if n == 0 {
        return Ok(FanOut { outcomes: Vec::new(), stats: ExecStats::default(), workers: 0 });
    }
    let private;
    let (exec, chunk) = match shared {
        Some(exec) => (exec, 1),
        None => {
            private = Executor::new(ExecConfig { workers, queue_depth: n });
            (&private, n.div_ceil(workers))
        }
    };
    let mut jobs = jobs.into_iter();
    let tickets: Vec<Ticket> = (0..n.div_ceil(chunk))
        .map(|_| exec.submit(extractor, cache.clone(), jobs.by_ref().take(chunk).collect()))
        .collect::<Result<_, _>>()?;
    let mut outcomes = Vec::with_capacity(n);
    let mut stats = ExecStats::default();
    for ticket in tickets {
        let sub = ticket.wait();
        stats.submitted += 1;
        stats.jobs += sub.outcomes.len();
        stats.queue_seconds += sub.queue_seconds;
        outcomes.extend(sub.outcomes);
    }
    Ok(FanOut { outcomes, stats, workers: exec.config().workers })
}

impl Shared {
    /// Executes one submission on `worker`: build its engine, run its
    /// jobs in input order, and collect their outcomes.
    ///
    /// Accounting stays per job: a job counts as *waiting* (against the
    /// admission bound, and in `queued_jobs`) until the worker actually
    /// starts it, and as *running* only while it executes — so the
    /// not-yet-started jobs of a multi-job submission still hold their
    /// queue slots.
    fn run(
        &self,
        extractor: &Extractor,
        cache: Option<&TemplateCache>,
        jobs: &[BatchJob],
        enqueued: Instant,
        worker: usize,
    ) -> Submission {
        let queue_seconds = enqueued.elapsed().as_secs_f64();
        self.queue_wait_nanos.fetch_add((queue_seconds * 1e9) as u64, Ordering::Relaxed);
        metrics().exec_queue_wait_nanos.add((queue_seconds * 1e9) as u64);
        if extractor.is_accelerated() {
            // Build the §4.2.3 tables before the first job is billed for them.
            bemcap_accel::fastmath::warm_tables();
        }
        let engine = extractor.engine();
        let mut outcomes = Vec::with_capacity(jobs.len());
        for job in jobs {
            self.waiting.fetch_sub(1, Ordering::SeqCst);
            self.running.fetch_add(1, Ordering::SeqCst);
            let t = Instant::now();
            // A panicking job answers its own submission; the worker
            // carries on.
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                extractor.extract_with(&engine, cache, &job.geometry)
            }))
            .unwrap_or_else(|payload| Err(CoreError::JobPanicked(panic_message(payload.as_ref()))));
            let seconds = t.elapsed().as_secs_f64();
            self.jobs_run.fetch_add(1, Ordering::Relaxed);
            metrics().exec_jobs.inc();
            self.running.fetch_sub(1, Ordering::SeqCst);
            outcomes.push(JobOutcome { result, seconds, worker });
        }
        Submission { outcomes, queue_seconds }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extraction::Method;
    use bemcap_geom::structures::{self, CrossingParams};
    use bemcap_geom::Geometry;
    use std::sync::mpsc::channel;
    use std::sync::Mutex;

    fn crossing(h: f64) -> Geometry {
        structures::crossing_wires(CrossingParams { separation: h, ..Default::default() })
    }

    fn job(h: f64) -> BatchJob {
        BatchJob::new(format!("h={h}"), crossing(h))
    }

    /// Occupies every worker of `exec` until the returned sender fires,
    /// so subsequent submissions deterministically pile up in the queue.
    fn block_workers(exec: &Executor) -> mpsc::Sender<()> {
        let (release_tx, release_rx) = channel::<()>();
        let (started_tx, started_rx) = channel::<()>();
        let workers = exec.config().workers;
        let release_rx = Arc::new(Mutex::new(release_rx));
        for _ in 0..workers {
            let started_tx = started_tx.clone();
            let release_rx = Arc::clone(&release_rx);
            exec.queue.push(move |_| {
                started_tx.send(()).expect("test alive");
                // All blockers share the release channel: one message
                // per blocker frees them.
                let _ = release_rx.lock().expect("gate").recv();
            });
        }
        for _ in 0..workers {
            started_rx.recv().expect("blocker started");
        }
        release_tx
    }

    fn release(workers: usize, tx: &mpsc::Sender<()>) {
        for _ in 0..workers {
            let _ = tx.send(());
        }
    }

    #[test]
    fn single_submission_matches_direct_extraction_bit_for_bit() {
        let exec = Executor::new(ExecConfig { workers: 2, queue_depth: 8 });
        let ex = Extractor::new();
        let geo = crossing(0.6e-6);
        let ticket = exec
            .submit(&ex, Some(Arc::new(TemplateCache::unbounded())), vec![job(0.6e-6)])
            .expect("admitted");
        let sub = ticket.wait();
        assert_eq!(sub.outcomes.len(), 1);
        let (extraction, stats) = sub.outcomes[0].result.as_ref().expect("job ok");
        let direct = ex.extract(&geo).expect("direct");
        assert_eq!(
            extraction.capacitance().matrix().as_slice(),
            direct.capacitance().matrix().as_slice()
        );
        assert!(stats.misses > 0);
        assert!(sub.first_failure().is_none());
    }

    #[test]
    fn empty_submission_resolves_immediately() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 1 });
        let sub = exec.submit(&Extractor::new(), None, vec![]).expect("empty ok").wait();
        assert!(sub.outcomes.is_empty());
        assert_eq!(exec.queued_jobs(), 0);
    }

    #[test]
    fn full_queue_returns_busy_and_never_deadlocks() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 2 });
        let gate = block_workers(&exec);
        let ex = Extractor::new();
        let t1 = exec.submit(&ex, None, vec![job(0.4e-6)]).expect("slot 1");
        let t2 = exec.submit(&ex, None, vec![job(0.5e-6)]).expect("slot 2");
        assert_eq!(exec.queued_jobs(), 2);
        match exec.submit(&ex, None, vec![job(0.6e-6)]) {
            Err(CoreError::Busy { queued, depth }) => {
                assert_eq!((queued, depth), (2, 2));
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        // A multi-job submission larger than the remaining room is also
        // refused atomically — no partial admission.
        match exec.submit(&ex, None, vec![job(0.7e-6), job(0.8e-6), job(0.9e-6)]) {
            Err(CoreError::Busy { .. }) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        release(1, &gate);
        let a = t1.wait();
        let b = t2.wait();
        assert!(a.outcomes[0].result.is_ok() && b.outcomes[0].result.is_ok());
        let stats = exec.stats();
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.submitted, 2);
        assert_eq!(exec.queued_jobs(), 0);
    }

    #[test]
    fn failing_submission_queued_between_healthy_ones_fails_alone() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 16 });
        let gate = block_workers(&exec);
        let ex = Extractor::new();
        let good1 = exec.submit(&ex, None, vec![job(0.5e-6)]).expect("good1");
        let bad = exec
            .submit(&ex, None, vec![BatchJob::new("empty", Geometry::new(vec![]))])
            .expect("bad admitted");
        let good2 = exec.submit(&ex, None, vec![job(0.9e-6)]).expect("good2");
        assert_eq!(exec.queued_jobs(), 3);
        release(1, &gate);
        let (s1, sb, s2) = (good1.wait(), bad.wait(), good2.wait());
        assert!(s1.outcomes[0].result.is_ok());
        assert!(s2.outcomes[0].result.is_ok());
        match sb.first_failure() {
            Some((0, CoreError::EmptyGeometry)) => {}
            other => panic!("expected EmptyGeometry at index 0, got {other:?}"),
        }
        let direct = ex.extract(&crossing(0.9e-6)).expect("direct");
        let (extraction, _) = s2.outcomes[0].result.as_ref().expect("ok");
        assert_eq!(
            extraction.capacitance().matrix().as_slice(),
            direct.capacitance().matrix().as_slice()
        );
        let stats = exec.stats();
        assert_eq!((stats.submitted, stats.jobs), (3, 3));
        assert!(stats.queue_seconds > 0.0);
    }

    #[test]
    fn a_slow_and_a_fast_submission_run_on_different_workers() {
        let exec = Executor::new(ExecConfig { workers: 2, queue_depth: 8 });
        let gate = block_workers(&exec);
        let ex = Extractor::new();
        let bus = structures::bus_crossing(4, 4, structures::BusParams::default());
        let slow = exec.submit(&ex, None, vec![BatchJob::new("bus 4x4", bus)]).expect("slow");
        let fast = exec.submit(&ex, None, vec![job(0.5e-6)]).expect("fast");
        release(2, &gate);
        let (a, b) = (slow.wait(), fast.wait());
        assert!(a.first_failure().is_none() && b.first_failure().is_none());
        assert_ne!(
            a.outcomes[0].worker, b.outcomes[0].worker,
            "the fast submission waited behind the slow one on a single worker"
        );
    }

    #[test]
    fn multi_job_submission_keeps_input_order_and_reports_failure_index() {
        let exec = Executor::new(ExecConfig { workers: 2, queue_depth: 8 });
        let ex = Extractor::new();
        let jobs = vec![
            job(0.4e-6),
            BatchJob::new("empty", Geometry::new(vec![])),
            job(0.8e-6),
            BatchJob::new("empty2", Geometry::new(vec![])),
        ];
        let sub = exec.submit(&ex, None, jobs).expect("admitted").wait();
        assert_eq!(sub.outcomes.len(), 4);
        assert!(sub.outcomes[0].result.is_ok());
        assert!(sub.outcomes[2].result.is_ok());
        match sub.first_failure() {
            Some((1, CoreError::EmptyGeometry)) => {}
            other => panic!("expected lowest failing index 1, got {other:?}"),
        }
    }

    #[test]
    fn panicking_job_is_contained_and_the_worker_serves_on() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 128 });
        // A zero leaf size still asserts inside `Octree::build`.
        let fmm = crate::FmmConfig { leaf_size: 0, ..Default::default() };
        let bad = Extractor::new().method(Method::PwcFmm).mesh_divisions(2).fmm_config(fmm);
        let bad = exec.submit(&bad, None, vec![job(0.5e-6)]).expect("admitted");
        let ex = Extractor::new();
        let healthy: Vec<Ticket> = (0..100)
            .map(|i| exec.submit(&ex, None, vec![job((0.4 + 0.01 * i as f64) * 1e-6)]))
            .collect::<Result<_, _>>()
            .expect("admitted");
        match bad.wait().first_failure() {
            Some((0, CoreError::JobPanicked(message))) => assert!(!message.is_empty()),
            other => panic!("expected a contained panic, got {other:?}"),
        }
        for ticket in healthy {
            assert!(ticket.wait().first_failure().is_none());
        }
        assert_eq!((exec.running_jobs(), exec.queued_jobs()), (0, 0));
        assert_eq!(exec.stats().jobs, 101);
    }

    #[test]
    fn default_queue_depth_is_positive() {
        assert!(default_queue_depth() >= 1);
    }
}
