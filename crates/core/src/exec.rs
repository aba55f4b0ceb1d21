//! The shared execution core: one admission-controlled, coalescing
//! work-queue executor that batch extraction (parameter sweeps
//! included), chip extraction and the `bemcap-serve` daemon all run on.
//!
//! The paper's economics (conf_dac_HsiaoD11) say throughput comes from
//! amortizing engine and template work across many similar structures.
//! Before this module, only a single [`crate::batch::BatchExtractor`]
//! run exploited that; every other entry point (each daemon request,
//! each sweep) built its own private execution path. [`Executor`] is the
//! single path:
//!
//! * **bounded admission** — at most [`ExecConfig::queue_depth`] jobs
//!   wait at once. A submission that would exceed the bound is refused
//!   with [`CoreError::Busy`] *before* any work happens: overload
//!   degrades into structured rejections, never into unbounded thread or
//!   queue growth.
//! * **request coalescing** — waiting submissions whose solver
//!   configuration is bit-identical (and whose pair-integral cache is
//!   the same instance) are merged into one **micro-batch** that shares
//!   a single Galerkin engine, pre-warmed accel tables, and cache
//!   locality. Results are demultiplexed back to each submitter in
//!   input order. Coalescing never changes a bit: jobs are computed
//!   independently by the same code path whether or not they share a
//!   micro-batch, so coalesced, uncoalesced, and single-shot runs are
//!   bit-identical.
//! * **isolation** — a failing job fails only its own submission; other
//!   submissions in the same micro-batch complete normally.
//!
//! Batch and chip extraction submit through one fan-out: a private
//! per-run executor by default (sized so admission never rejects), or a
//! shared one ([`crate::batch::BatchExtractor::executor`]); the daemon
//! owns one process-lifetime executor and enqueues every wire request on
//! it.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
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

/// Default coalescing window: the most jobs one micro-batch may absorb.
pub const DEFAULT_COALESCE_LIMIT: usize = 16;

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
    /// Most jobs one micro-batch may hold; `1` disables coalescing.
    pub coalesce_limit: usize,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            workers: default_pool_size(),
            queue_depth: default_queue_depth(),
            coalesce_limit: DEFAULT_COALESCE_LIMIT,
        }
    }
}

/// Coalescing identity: submissions may share a micro-batch only when
/// the full solver configuration digest — common knobs plus the active
/// backend's typed config ([`Extractor::config_digest`]) — is
/// bit-identical and they use the same cache instance (pointer identity;
/// `0` = caching off). Differing backend configs therefore cannot share
/// a micro-batch *by construction*.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CoalesceKey {
    config: Vec<u64>,
    cache: usize,
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
    /// Whether this submission joined an already-waiting micro-batch
    /// (`false` for the submission that opened the micro-batch).
    pub coalesced: bool,
    /// Sequence number of the micro-batch that ran this submission
    /// (equal across coalesced submissions; `0` for empty submissions,
    /// which never reach the queue).
    pub micro_batch: u64,
    /// Total jobs in that micro-batch, across all its submissions.
    pub micro_batch_jobs: usize,
}

impl Submission {
    /// Index and error of the lowest-index failing job, if any.
    pub fn first_failure(&self) -> Option<(usize, &CoreError)> {
        self.outcomes.iter().enumerate().find_map(|(i, o)| o.result.as_ref().err().map(|e| (i, e)))
    }
}

/// A handle on an admitted submission; [`Ticket::wait`] blocks until the
/// executor has run every job and returns the demultiplexed results.
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

struct PendingSubmission {
    jobs: Vec<BatchJob>,
    tx: mpsc::Sender<Submission>,
    enqueued: Instant,
    coalesced: bool,
}

struct MicroBatch {
    extractor: Extractor,
    cache: Option<Arc<TemplateCache>>,
    key: CoalesceKey,
    jobs: usize,
    submissions: Vec<PendingSubmission>,
}

#[derive(Default)]
struct Pending {
    /// Jobs admitted but not yet started — the quantity admission
    /// control bounds.
    waiting_jobs: usize,
    /// The still-joinable micro-batch per coalescing identity.
    open: HashMap<CoalesceKey, u64>,
    /// Every queued-but-not-started micro-batch by sequence number.
    batches: HashMap<u64, MicroBatch>,
}

struct Shared {
    cfg: ExecConfig,
    pending: Mutex<Pending>,
    running: AtomicUsize,
    seq: AtomicU64,
    submitted: AtomicUsize,
    rejected: AtomicUsize,
    coalesced: AtomicUsize,
    micro_batches: AtomicUsize,
    jobs_run: AtomicUsize,
    queue_wait_nanos: AtomicU64,
}

/// The shared execution core. See the module docs for the contract.
pub struct Executor {
    shared: Arc<Shared>,
    queue: WorkQueue,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("config", &self.shared.cfg)
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
    /// Panics if any of `workers`, `queue_depth`, or `coalesce_limit`
    /// is 0.
    pub fn new(cfg: ExecConfig) -> Executor {
        assert!(cfg.queue_depth > 0, "executor needs a queue depth of at least one job");
        assert!(cfg.coalesce_limit > 0, "coalesce limit must be at least 1 (1 = off)");
        Executor { shared: Arc::new(Shared::new(cfg)), queue: WorkQueue::new(cfg.workers) }
    }

    /// The configuration the executor runs with.
    pub fn config(&self) -> ExecConfig {
        self.shared.cfg
    }

    /// Jobs admitted but not yet started.
    pub fn queued_jobs(&self) -> usize {
        self.shared.pending().waiting_jobs
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
            coalesced: s.coalesced.load(Ordering::Relaxed),
            micro_batches: s.micro_batches.load(Ordering::Relaxed),
            jobs: s.jobs_run.load(Ordering::Relaxed),
            queue_seconds: s.queue_wait_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }

    /// Submits `jobs` to run under `extractor` with the given
    /// pair-integral cache (`None` = caching off). Returns immediately
    /// with a [`Ticket`]; the jobs run on the executor's workers, merged
    /// into a waiting micro-batch when one with the same configuration
    /// and cache has room.
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
        if jobs.is_empty() {
            self.shared.submitted.fetch_add(1, Ordering::Relaxed);
            metrics().exec_submitted.inc();
            let _ = tx.send(Submission {
                outcomes: Vec::new(),
                queue_seconds: 0.0,
                coalesced: false,
                micro_batch: 0,
                micro_batch_jobs: 0,
            });
            return Ok(Ticket { rx });
        }
        let n = jobs.len();
        let key = CoalesceKey {
            config: extractor.config_digest(),
            cache: cache.as_ref().map_or(0, |c| Arc::as_ptr(c) as usize),
        };
        let cfg = self.shared.cfg;
        let mut pending = self.shared.pending();
        if pending.waiting_jobs + n > cfg.queue_depth {
            let queued = pending.waiting_jobs;
            drop(pending);
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            metrics().exec_rejected.inc();
            return Err(CoreError::Busy { queued, depth: cfg.queue_depth });
        }
        pending.waiting_jobs += n;
        let sub = PendingSubmission { jobs, tx, enqueued: Instant::now(), coalesced: false };
        // Join a waiting micro-batch with the same identity and room.
        if cfg.coalesce_limit > 1 {
            if let Some(&seq) = pending.open.get(&key) {
                let batch = pending.batches.get_mut(&seq).expect("open micro-batch is queued");
                if batch.jobs + n <= cfg.coalesce_limit {
                    batch.jobs += n;
                    batch.submissions.push(PendingSubmission { coalesced: true, ..sub });
                    if batch.jobs >= cfg.coalesce_limit {
                        pending.open.remove(&key);
                    }
                    drop(pending);
                    self.shared.submitted.fetch_add(1, Ordering::Relaxed);
                    self.shared.coalesced.fetch_add(1, Ordering::Relaxed);
                    metrics().exec_submitted.inc();
                    metrics().exec_coalesced.inc();
                    return Ok(Ticket { rx });
                }
            }
        }
        // Open a new micro-batch and queue its task.
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed) + 1;
        pending.batches.insert(
            seq,
            MicroBatch {
                extractor: extractor.clone(),
                cache,
                key: key.clone(),
                jobs: n,
                submissions: vec![sub],
            },
        );
        if cfg.coalesce_limit > 1 && n < cfg.coalesce_limit {
            pending.open.insert(key, seq);
        }
        drop(pending);
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        metrics().exec_submitted.inc();
        let shared = Arc::clone(&self.shared);
        self.queue.push(move |worker| run_micro_batch(&shared, seq, worker));
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
/// submission, so admission is per job and jobs coalesce freely with
/// other clients' work. Otherwise a private executor of `workers`
/// threads, sized so admission never rejects, gets the jobs as contiguous
/// chunks of the Algorithm-1 static share (`⌈jobs / workers⌉` each, one
/// micro-batch per chunk), so engine builds are amortized
/// deterministically rather than left to the coalescing race.
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
            let chunk = n.div_ceil(workers);
            private = Executor::new(ExecConfig { workers, queue_depth: n, coalesce_limit: chunk });
            (&private, chunk)
        }
    };
    let mut jobs = jobs.into_iter();
    let tickets: Vec<Ticket> = (0..n.div_ceil(chunk))
        .map(|_| exec.submit(extractor, cache.clone(), jobs.by_ref().take(chunk).collect()))
        .collect::<Result<_, _>>()?;
    let mut outcomes = Vec::with_capacity(n);
    let mut stats = ExecStats::default();
    let mut micro_batches: Vec<u64> = Vec::new();
    for ticket in tickets {
        let sub = ticket.wait();
        stats.submitted += 1;
        stats.jobs += sub.outcomes.len();
        stats.queue_seconds += sub.queue_seconds;
        stats.coalesced += usize::from(sub.coalesced);
        if !micro_batches.contains(&sub.micro_batch) {
            micro_batches.push(sub.micro_batch);
        }
        outcomes.extend(sub.outcomes);
    }
    stats.micro_batches = micro_batches.len();
    Ok(FanOut { outcomes, stats, workers: exec.config().workers })
}

impl Shared {
    /// The queue state. Every critical section leaves it consistent, so a
    /// lock poisoned by a panicking thread is recovered, not propagated.
    fn pending(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn new(cfg: ExecConfig) -> Shared {
        Shared {
            cfg,
            pending: Mutex::new(Pending::default()),
            running: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            submitted: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            coalesced: AtomicUsize::new(0),
            micro_batches: AtomicUsize::new(0),
            jobs_run: AtomicUsize::new(0),
            queue_wait_nanos: AtomicU64::new(0),
        }
    }
}

/// Executes one micro-batch on a worker: seal it (no further coalescing),
/// build the one shared engine, run every submission's jobs in input
/// order, and demultiplex the results.
///
/// Accounting stays per job, not per micro-batch: a job counts as
/// *waiting* (against the admission bound, and in `queued_jobs`) until
/// the worker actually starts it, and as *running* only while it
/// executes — so queued batch-mates of the job currently running are
/// still visible as waiting work and still hold their queue slots.
fn run_micro_batch(shared: &Arc<Shared>, seq: u64, worker: usize) {
    let batch = {
        let mut pending = shared.pending();
        let batch = pending.batches.remove(&seq).expect("queued micro-batch exists");
        if pending.open.get(&batch.key) == Some(&seq) {
            pending.open.remove(&batch.key);
        }
        batch
    };
    shared.micro_batches.fetch_add(1, Ordering::Relaxed);
    metrics().exec_micro_batches.inc();
    if batch.extractor.is_accelerated() {
        // Build the §4.2.3 tables before the first job is billed for them.
        bemcap_accel::fastmath::warm_tables();
    }
    let engine = batch.extractor.engine();
    let total_jobs = batch.jobs;
    for sub in batch.submissions {
        let queue_seconds = sub.enqueued.elapsed().as_secs_f64();
        shared.queue_wait_nanos.fetch_add((queue_seconds * 1e9) as u64, Ordering::Relaxed);
        metrics().exec_queue_wait_nanos.add((queue_seconds * 1e9) as u64);
        let mut outcomes = Vec::with_capacity(sub.jobs.len());
        for job in &sub.jobs {
            shared.pending().waiting_jobs -= 1;
            shared.running.fetch_add(1, Ordering::SeqCst);
            let t = Instant::now();
            // A panicking job answers its own submission; the worker and
            // the rest of the micro-batch carry on.
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                batch.extractor.extract_with(&engine, batch.cache.as_deref(), &job.geometry)
            }))
            .unwrap_or_else(|payload| Err(CoreError::JobPanicked(panic_message(payload.as_ref()))));
            let seconds = t.elapsed().as_secs_f64();
            shared.jobs_run.fetch_add(1, Ordering::Relaxed);
            metrics().exec_jobs.inc();
            shared.running.fetch_sub(1, Ordering::SeqCst);
            outcomes.push(JobOutcome { result, seconds, worker });
        }
        // A submitter that dropped its ticket just loses the answer.
        let _ = sub.tx.send(Submission {
            outcomes,
            queue_seconds,
            coalesced: sub.coalesced,
            micro_batch: seq,
            micro_batch_jobs: total_jobs,
        });
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
        let exec = Executor::new(ExecConfig { workers: 2, queue_depth: 8, coalesce_limit: 4 });
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
        assert_eq!(sub.micro_batch_jobs, 1);
    }

    #[test]
    fn empty_submission_resolves_immediately() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 1, coalesce_limit: 1 });
        let sub = exec.submit(&Extractor::new(), None, vec![]).expect("empty ok").wait();
        assert!(sub.outcomes.is_empty());
        assert_eq!(exec.queued_jobs(), 0);
    }

    #[test]
    fn full_queue_returns_busy_and_never_deadlocks() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 2, coalesce_limit: 1 });
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
    fn waiting_same_config_submissions_coalesce_and_match_direct() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 16, coalesce_limit: 8 });
        let gate = block_workers(&exec);
        let ex = Extractor::new();
        let cache = Arc::new(TemplateCache::unbounded());
        let hs = [0.4e-6, 0.7e-6, 1.1e-6];
        let tickets: Vec<Ticket> = hs
            .iter()
            .map(|&h| exec.submit(&ex, Some(Arc::clone(&cache)), vec![job(h)]).expect("admitted"))
            .collect();
        release(1, &gate);
        let subs: Vec<Submission> = tickets.into_iter().map(Ticket::wait).collect();
        // One micro-batch ran all three submissions.
        assert_eq!(subs[0].micro_batch, subs[1].micro_batch);
        assert_eq!(subs[1].micro_batch, subs[2].micro_batch);
        assert!(!subs[0].coalesced && subs[1].coalesced && subs[2].coalesced);
        assert_eq!(subs[0].micro_batch_jobs, 3);
        for (h, sub) in hs.iter().zip(&subs) {
            let (extraction, _) = sub.outcomes[0].result.as_ref().expect("job ok");
            let direct = ex.extract(&crossing(*h)).expect("direct");
            assert_eq!(
                extraction.capacitance().matrix().as_slice(),
                direct.capacitance().matrix().as_slice(),
                "h={h}"
            );
        }
        let stats = exec.stats();
        assert_eq!(stats.micro_batches, 1);
        assert_eq!(stats.coalesced, 2);
        assert_eq!(stats.jobs, 3);
        assert!(stats.queue_seconds > 0.0);
    }

    #[test]
    fn different_configs_or_caches_never_share_a_micro_batch() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 16, coalesce_limit: 8 });
        let gate = block_workers(&exec);
        let a = Extractor::new();
        let b = Extractor::new().mesh_divisions(5); // different config bits
        let cache1 = Arc::new(TemplateCache::unbounded());
        let cache2 = Arc::new(TemplateCache::unbounded());
        let t1 = exec.submit(&a, Some(Arc::clone(&cache1)), vec![job(0.5e-6)]).expect("a1");
        let t2 = exec.submit(&b, Some(Arc::clone(&cache1)), vec![job(0.5e-6)]).expect("b");
        let t3 = exec.submit(&a, Some(Arc::clone(&cache2)), vec![job(0.5e-6)]).expect("a2");
        release(1, &gate);
        let (s1, s2, s3) = (t1.wait(), t2.wait(), t3.wait());
        assert_ne!(s1.micro_batch, s2.micro_batch, "different config must split");
        assert_ne!(s1.micro_batch, s3.micro_batch, "different cache must split");
        assert_eq!(exec.stats().micro_batches, 3);
        assert_eq!(exec.stats().coalesced, 0);
    }

    #[test]
    fn coalesce_limit_caps_micro_batch_size() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 16, coalesce_limit: 2 });
        let gate = block_workers(&exec);
        let ex = Extractor::new();
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| exec.submit(&ex, None, vec![job(0.4e-6 + 0.1e-6 * f64::from(i))]).expect("ok"))
            .collect();
        release(1, &gate);
        let subs: Vec<Submission> = tickets.into_iter().map(Ticket::wait).collect();
        assert_eq!(subs[0].micro_batch, subs[1].micro_batch);
        assert_eq!(subs[2].micro_batch, subs[3].micro_batch);
        assert_ne!(subs[0].micro_batch, subs[2].micro_batch);
        for sub in &subs {
            assert_eq!(sub.micro_batch_jobs, 2);
        }
        assert_eq!(exec.stats().micro_batches, 2);
    }

    #[test]
    fn backend_config_differences_never_coalesce_but_equal_configs_do() {
        use bemcap_linalg::KrylovConfig;
        // Same method, same geometry, deliberately concurrent: only the
        // *backend* configuration differs. Tiny mesh keeps the jobs cheap.
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 16, coalesce_limit: 16 });
        let gate = block_workers(&exec);
        let base = Extractor::new().method(Method::PwcPfft).mesh_divisions(3);
        let spacing = base
            .clone()
            .pfft_config(bemcap_pfft::PfftConfig { spacing_factor: 1.3, ..Default::default() });
        let tol = base.clone().krylov_config(KrylovConfig { tol: 1e-8, ..Default::default() });
        let twin = base.clone();
        let tickets: Vec<Ticket> = [&base, &spacing, &tol, &twin]
            .iter()
            .map(|ex| exec.submit(ex, None, vec![job(0.5e-6)]).expect("admitted"))
            .collect();
        release(1, &gate);
        let subs: Vec<Submission> = tickets.into_iter().map(Ticket::wait).collect();
        // The two tweaked configs each ran their own micro-batch...
        assert_ne!(subs[0].micro_batch, subs[1].micro_batch, "pfft spacing must split");
        assert_ne!(subs[0].micro_batch, subs[2].micro_batch, "krylov tol must split");
        // ...while the bit-identical twin coalesced with the base.
        assert_eq!(subs[0].micro_batch, subs[3].micro_batch, "equal configs must coalesce");
        assert!(subs[3].coalesced);
        assert_eq!(exec.stats().micro_batches, 3);
        assert_eq!(exec.stats().coalesced, 1);
        for sub in &subs {
            assert!(sub.first_failure().is_none());
        }
    }

    #[test]
    fn coalescing_disabled_runs_every_submission_alone() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 16, coalesce_limit: 1 });
        let gate = block_workers(&exec);
        let ex = Extractor::new();
        let t1 = exec.submit(&ex, None, vec![job(0.5e-6)]).expect("1");
        let t2 = exec.submit(&ex, None, vec![job(0.5e-6)]).expect("2");
        release(1, &gate);
        let (s1, s2) = (t1.wait(), t2.wait());
        assert_ne!(s1.micro_batch, s2.micro_batch);
        assert_eq!(exec.stats().coalesced, 0);
    }

    #[test]
    fn failing_job_in_a_coalesced_micro_batch_fails_only_its_submitter() {
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 16, coalesce_limit: 8 });
        let gate = block_workers(&exec);
        let ex = Extractor::new();
        let good1 = exec.submit(&ex, None, vec![job(0.5e-6)]).expect("good1");
        let bad = exec
            .submit(&ex, None, vec![BatchJob::new("empty", Geometry::new(vec![]))])
            .expect("bad admitted");
        let good2 = exec.submit(&ex, None, vec![job(0.9e-6)]).expect("good2");
        release(1, &gate);
        let (s1, sb, s2) = (good1.wait(), bad.wait(), good2.wait());
        // All three shared a micro-batch...
        assert_eq!(s1.micro_batch, sb.micro_batch);
        assert_eq!(sb.micro_batch, s2.micro_batch);
        // ...but only the bad submission failed.
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
    }

    #[test]
    fn multi_job_submission_keeps_input_order_and_reports_failure_index() {
        let exec = Executor::new(ExecConfig { workers: 2, queue_depth: 8, coalesce_limit: 1 });
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
        let exec = Executor::new(ExecConfig { workers: 1, queue_depth: 128, coalesce_limit: 1 });
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
