//! The `bemcapd` daemon: an extraction service on the shared connection
//! skeleton ([`crate::listener`]).
//!
//! One OS thread per connection reads newline-delimited JSON requests
//! (see [`crate::protocol`]) and answers in order — but connection
//! threads only **parse, enqueue, and respond**. Extraction itself runs
//! on the daemon's process-lifetime [`Executor`]
//! (`bemcap_core::exec`), shared by every connection:
//!
//! * CPU concurrency is bounded by the executor's worker pool, not the
//!   connection count;
//! * at most [`ExecConfig::queue_depth`] jobs wait at once — beyond
//!   that, requests get a structured `busy` error immediately instead of
//!   piling up (`--queue`, env `BEMCAP_QUEUE`), and a request with more
//!   jobs than the whole depth a `bad-request`, since no retry can fit it;
//! * each request is one [`BatchExtractor`] run (a `chip` request's
//!   through its [`ChipExtractor`]) whose jobs (one geometry each) are
//!   admitted together — a `busy` reply means nothing ran — and each job
//!   is its own queue task, run by the next idle worker.
//!
//! All connections also share one process-lifetime [`TemplateCache`], so
//! the pair integrals a request computes stay warm for every later
//! request — the serving-side payoff of the paper's instantiable-basis
//! economics: per-structure setup is cheap, and what little there is
//! gets amortized across the daemon's lifetime instead of one process
//! run.
//!
//! Robustness rules (tested in `tests/serve_daemon.rs`): malformed JSON,
//! bad requests, geometry errors, and extraction failures all produce a
//! structured `{"ok":false,...}` response on the same connection — the
//! daemon never panics on input and never drops a connection silently
//! while the peer is still there. Oversized, non-UTF-8, blank and
//! truncated frames are handled by the skeleton's framing rules, with
//! [`ServerConfig::max_frame_bytes`] as the cap.
//!
//! Shutdown: the `shutdown` op triggers the skeleton's
//! [`Shutdown`] handle. Idle connections are released at once, in-flight
//! requests finish and are answered, and [`Server::run`] returns after
//! joining every connection thread.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bemcap_core::batch::{BatchExtractor, BatchResult};
use bemcap_core::cache::TemplateCache;
use bemcap_core::chip::{ChipExtractor, WindowCache};
use bemcap_core::exec::{ExecConfig, Executor};
use bemcap_core::metrics::{metrics as core_metrics, Registry};
use bemcap_core::CoreError;
use bemcap_geom::io::parse_geometry;
use bemcap_geom::Geometry;

use crate::listener::{Listener, Shutdown};
use crate::protocol::{
    self, build_extractor, codes, error_response, ok_response, ChipReply, DaemonStats,
    ExtractOptions, ExtractReply, MetricsReply, PingReply, Request, ShutdownReply, SnapshotReply,
    Value, PROTOCOL_VERSION,
};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Memory bound of the shared [`TemplateCache`] in bytes
    /// (`None` = unbounded). Default 64 MiB.
    pub cache_max_bytes: Option<usize>,
    /// Worker pool size of the shared executor all requests run on.
    /// Default: `BEMCAP_POOL` or 1.
    pub workers: usize,
    /// Largest accepted request frame in bytes. Default 8 MiB.
    pub max_frame_bytes: usize,
    /// Admission queue depth of the shared executor: the most jobs that
    /// may wait at once before requests are refused with a `busy` error
    /// (or, for a request with more jobs than the depth, `bad-request`).
    /// Default: `BEMCAP_QUEUE` or 256.
    pub queue_depth: usize,
    /// Memory bound of the shared per-window result cache that makes
    /// `chip` re-extraction incremental (`None` = unbounded).
    /// Default 64 MiB.
    pub window_cache_max_bytes: Option<usize>,
    /// Pair-integral cache snapshot to load at bind time (v6 warm
    /// restart; written by an earlier daemon's `snapshot` op). `None`
    /// (the default) starts cold. Entries beyond the configured cache
    /// bound are skipped, never force-evicted.
    pub cache_restore: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let ExecConfig { workers, queue_depth } = ExecConfig::default();
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            cache_max_bytes: Some(64 << 20),
            workers,
            max_frame_bytes: 8 << 20,
            queue_depth,
            window_cache_max_bytes: Some(64 << 20),
            cache_restore: None,
        }
    }
}

struct ServerState {
    cfg: ServerConfig,
    cache: Arc<TemplateCache>,
    window_cache: Arc<WindowCache>,
    executor: Arc<Executor>,
    shutdown: Shutdown,
    requests: AtomicU64,
    started: Instant,
}

impl ServerState {
    fn new(cfg: ServerConfig, shutdown: Shutdown) -> ServerState {
        let executor =
            Executor::new(ExecConfig { workers: cfg.workers, queue_depth: cfg.queue_depth });
        ServerState {
            cache: Arc::new(
                cfg.cache_max_bytes
                    .map_or_else(TemplateCache::unbounded, TemplateCache::with_max_bytes),
            ),
            window_cache: Arc::new(
                cfg.window_cache_max_bytes
                    .map_or_else(WindowCache::unbounded, WindowCache::with_max_bytes),
            ),
            executor: Arc::new(executor),
            cfg,
            shutdown,
            requests: AtomicU64::new(0),
            started: Instant::now(),
        }
    }
}

/// A bound, not-yet-running daemon. [`Server::bind`] → [`Server::run`]
/// (blocking) or [`Server::spawn`] (background thread, for tests and
/// embedded use).
pub struct Server {
    listener: Listener,
    state: Arc<ServerState>,
    restored: Option<usize>,
}

impl Server {
    /// Binds the listener, builds the process-lifetime cache, and starts
    /// the shared executor every request will run on. Also pre-builds
    /// the §4.2.3 accel tables so no request is ever billed for them.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for a zero worker count or queue
    /// depth; any socket error from bind.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        for (invalid, why) in [
            (cfg.workers == 0, "daemon needs at least one extraction worker"),
            (cfg.queue_depth == 0, "daemon needs a queue depth of at least one job"),
        ] {
            if invalid {
                return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
            }
        }
        let listener = Listener::bind(cfg.addr.as_str())?;
        bemcap_accel::fastmath::warm_tables();
        let state = ServerState::new(cfg, listener.shutdown());
        let restored = match &state.cfg.cache_restore {
            None => None,
            Some(path) => {
                let restore = || state.cache.restore_from(BufReader::new(File::open(path)?));
                Some(restore().map_err(|e| {
                    io::Error::new(e.kind(), format!("cache restore '{}': {e}", path.display()))
                })?)
            }
        };
        Ok(Server { listener, state: Arc::new(state), restored })
    }

    /// Entries admitted from the [`ServerConfig::cache_restore`]
    /// snapshot at bind time (`None` when no restore was configured).
    pub fn restored_cache_entries(&self) -> Option<usize> {
        self.restored
    }

    /// The address actually bound (resolves port 0).
    ///
    /// # Errors
    ///
    /// Any socket error from `local_addr`.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The daemon's shared pair-integral cache.
    pub fn cache(&self) -> Arc<TemplateCache> {
        Arc::clone(&self.state.cache)
    }

    /// Serves until a `shutdown` request arrives, then joins every
    /// connection thread and returns.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop socket errors (per-connection errors are handled
    /// per connection).
    pub fn run(self) -> io::Result<()> {
        let state = self.state;
        let max_frame_bytes = state.cfg.max_frame_bytes;
        self.listener.run(max_frame_bytes, move |line| dispatch(&state, line).into_bytes())
    }

    /// Runs the daemon on a background thread; the returned handle knows
    /// the bound address and joins on [`ServerHandle::join`].
    ///
    /// # Errors
    ///
    /// Any socket error from `local_addr`.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let cache = self.cache();
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle { addr, cache, thread })
    }
}

/// A daemon running on a background thread (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    cache: Arc<TemplateCache>,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address to connect clients to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's shared pair-integral cache.
    pub fn cache(&self) -> Arc<TemplateCache> {
        Arc::clone(&self.cache)
    }

    /// Waits for the daemon to shut down (send the `shutdown` op first).
    ///
    /// # Errors
    ///
    /// The daemon's exit status; panics if the daemon thread panicked.
    pub fn join(self) -> io::Result<()> {
        self.thread.join().expect("daemon thread panicked")
    }
}

/// Handles one request line and returns the response line. Never panics
/// on any input; every failure maps to a structured error response.
fn dispatch(state: &ServerState, line: &str) -> String {
    state.requests.fetch_add(1, Ordering::Relaxed);
    let request = match protocol::decode_request(line) {
        Ok(request) => request,
        // Echo the id when the decoder recovered one (it is None only
        // when the frame never parsed far enough to have an id).
        Err(e) => return error_response(e.id, e.code, &e.message),
    };
    let id = request.id();
    let result = match request {
        Request::Ping { .. } => {
            let version = env!("CARGO_PKG_VERSION").into();
            Ok(PingReply { proto: PROTOCOL_VERSION, version, router: false }.encode())
        }
        Request::Stats { .. } => Ok(daemon_stats(state).encode()),
        Request::Metrics { .. } => Ok(metrics_scrape(state).encode()),
        Request::RouteStats { .. } => Err(DispatchError {
            code: codes::BAD_REQUEST,
            message: "route_stats is answered by the bemcaprd front tier; \
                      a daemon serves stats and metrics"
                .into(),
        }),
        Request::Snapshot { path, .. } => snapshot_cache(state, &path),
        Request::Shutdown { .. } => {
            state.shutdown.trigger();
            Ok(ShutdownReply.encode())
        }
        Request::Extract { geometry, options, .. } => extract(state, &geometry, options),
        Request::Batch { geometries, options, .. } => batch(state, &geometries, options),
        Request::Chip { geometry, options, nx, ny, halo, .. } => {
            chip(state, &geometry, options, nx, ny, halo)
        }
    };
    match result {
        Ok(result) => ok_response(id, result),
        Err(e) => error_response(id, e.code, &e.message),
    }
}

#[derive(Debug)]
struct DispatchError {
    code: &'static str,
    message: String,
}

/// The `stats` result, read from the live state.
fn daemon_stats(state: &ServerState) -> DaemonStats {
    let (cache, windows, exec) = (&state.cache, &state.window_cache, &state.executor);
    DaemonStats {
        cache: cache.lifetime(),
        cache_entries: cache.len(),
        cache_resident_bytes: cache.resident_bytes(),
        cache_max_bytes: cache.max_bytes(),
        uptime_seconds: state.started.elapsed().as_secs_f64(),
        requests: state.requests.load(Ordering::Relaxed),
        connections: state.shutdown.accepted(),
        workers: state.cfg.workers,
        queue_depth: state.cfg.queue_depth,
        queued: exec.queued_jobs(),
        running: exec.running_jobs(),
        exec: exec.stats(),
        window_cache: windows.lifetime(),
        window_cache_entries: windows.len(),
        window_cache_resident_bytes: windows.resident_bytes(),
        window_cache_max_bytes: windows.max_bytes(),
    }
}

/// Builds the v5 `metrics` result: refreshes the daemon gauges from the
/// live state, then scrapes the global registry.
///
/// Counters are incremented by the hot layers themselves
/// (`bemcap_core::metrics`); gauges describe *instantaneous* state the
/// daemon owns — cache residency, queue occupancy, uptime — so they are
/// written only here, at scrape time, from the live `ServerState`. That
/// keeps every scrape honest (no stale values from instances that no
/// longer exist) and keeps gauge updates entirely off the request hot
/// path.
fn metrics_scrape(state: &ServerState) -> MetricsReply {
    // Touch the core handles so a scrape of an idle daemon still exposes
    // every counter (at zero) instead of a set that grows as code paths
    // first run.
    let _ = core_metrics();
    let (cache, windows, exec) = (&state.cache, &state.window_cache, &state.executor);
    let gauges = [
        (
            "bemcap_daemon_uptime_seconds",
            "Whole seconds since the daemon started.",
            state.started.elapsed().as_secs(),
        ),
        (
            "bemcap_daemon_requests",
            "Requests handled since start (all ops).",
            state.requests.load(Ordering::Relaxed),
        ),
        (
            "bemcap_daemon_connections",
            "Connections accepted since start.",
            state.shutdown.accepted(),
        ),
        (
            "bemcap_exec_queued_jobs",
            "Jobs waiting in the admission queue right now.",
            exec.queued_jobs() as u64,
        ),
        (
            "bemcap_exec_running_jobs",
            "Jobs executing on workers right now.",
            exec.running_jobs() as u64,
        ),
        (
            "bemcap_template_cache_entries",
            "Resident pair-integral cache entries right now.",
            cache.len() as u64,
        ),
        (
            "bemcap_template_cache_resident_bytes",
            "Approximate resident pair-integral cache bytes right now.",
            cache.resident_bytes() as u64,
        ),
        (
            "bemcap_window_cache_entries",
            "Resident window-cache results right now.",
            windows.len() as u64,
        ),
        (
            "bemcap_window_cache_resident_bytes",
            "Approximate resident window-cache bytes right now.",
            windows.resident_bytes() as u64,
        ),
    ];
    for (name, help, value) in gauges {
        Registry::global().gauge(name, help).set(value);
    }
    MetricsReply::from_registry(Registry::global())
}

/// Writes the daemon's pair-integral cache to `path` (v6 `snapshot` op)
/// and reports what landed on disk. Any filesystem failure maps to a
/// structured `bad-request` (the path came from the request) so the
/// connection survives a bad mount or a full disk.
fn snapshot_cache(state: &ServerState, path: &str) -> Result<Value, DispatchError> {
    let write = || -> io::Result<(usize, u64)> {
        let mut w = BufWriter::new(File::create(path)?);
        let entries = state.cache.snapshot_to(&mut w)?;
        w.flush()?;
        Ok((entries, std::fs::metadata(path)?.len()))
    };
    let (entries, bytes) = write().map_err(|e| DispatchError {
        code: codes::BAD_REQUEST,
        message: format!("cannot write cache snapshot to '{path}': {e}"),
    })?;
    Ok(SnapshotReply { path: path.to_string(), entries, bytes }.encode())
}

/// Parses one embedded geometry, labeling errors with the job index for
/// multi-geometry frames.
fn parse_job(text: &str, index: Option<usize>) -> Result<Geometry, DispatchError> {
    parse_geometry(text).map_err(|e| DispatchError {
        code: codes::GEOMETRY,
        message: match index {
            Some(i) => format!("geometry {i}: {e}"),
            None => e.to_string(),
        },
    })
}

/// Runs one job per geometry as one batch on the daemon's shared
/// executor and pair-integral cache, admitted together.
fn run_jobs(
    state: &ServerState,
    options: &ExtractOptions,
    geometries: Vec<Geometry>,
) -> Result<BatchResult, CoreError> {
    BatchExtractor::new(build_extractor(options))
        .executor(Arc::clone(&state.executor))
        .shared_cache(Arc::clone(&state.cache))
        .extract_geometries(geometries)
}

fn extract(
    state: &ServerState,
    geometry: &str,
    options: ExtractOptions,
) -> Result<Value, DispatchError> {
    let geo = parse_job(geometry, None)?;
    let run = run_jobs(state, &options, vec![geo]).map_err(|e| core_error(e, false))?;
    let point = &run.points()[0];
    Ok(ExtractReply::encode(&point.extraction, &point.job.cache, point.job.queue_seconds))
}

fn batch(
    state: &ServerState,
    geometries: &[String],
    options: ExtractOptions,
) -> Result<Value, DispatchError> {
    let geos: Vec<Geometry> = geometries
        .iter()
        .enumerate()
        .map(|(i, text)| parse_job(text, Some(i)))
        .collect::<Result<_, _>>()?;
    let run = run_jobs(state, &options, geos).map_err(|e| core_error(e, true))?;
    Ok(ExtractReply::encode_batch(run.points()))
}

/// Runs a full-chip windowed extraction (v4 `chip` op) on the daemon's
/// shared executor, reusing its process-lifetime window and
/// pair-integral caches — so an unchanged layout re-requested later (an
/// ECO flow over the wire) reuses every untouched window.
fn chip(
    state: &ServerState,
    geometry: &str,
    options: ExtractOptions,
    nx: usize,
    ny: usize,
    halo: Option<f64>,
) -> Result<Value, DispatchError> {
    let geo = parse_job(geometry, None)?;
    let mut chip = ChipExtractor::new(build_extractor(&options))
        .windows(nx, ny)
        .executor(Arc::clone(&state.executor))
        .window_cache(Arc::clone(&state.window_cache))
        .shared_cache(Arc::clone(&state.cache));
    if let Some(h) = halo {
        chip = chip.halo(h);
    }
    let full = chip.extract(&geo).map_err(|e| core_error(e, false))?;
    Ok(ChipReply::encode(&full))
}

/// The reply to a refused or failed request. A failed job arrives
/// wrapped in `CoreError::BatchJob` (a chip window's in `ChipWindow`),
/// and the code is its root error's: `busy` when the executor had no
/// room for the jobs, `bad-request` when they can never fit its queue,
/// `geometry` for an unusable layout, `internal` for a contained panic
/// of a job (a daemon bug rather than a fault of the request), and
/// `extraction` otherwise. A `BatchJob` message is its root error's,
/// prefixed with `geometry {index}: ` when `name_geometry` (a `batch`
/// frame); any other error keeps its own message.
fn core_error(e: CoreError, name_geometry: bool) -> DispatchError {
    let root = match &e {
        CoreError::BatchJob { source, .. } | CoreError::ChipWindow { source, .. } => {
            source.as_ref()
        }
        e => e,
    };
    let code = match root {
        CoreError::Busy { .. } => codes::BUSY,
        CoreError::OverDepth { .. } => codes::BAD_REQUEST,
        CoreError::Geometry(_) => codes::GEOMETRY,
        CoreError::JobPanicked(_) => codes::INTERNAL,
        _ => codes::EXTRACTION,
    };
    let message = match &e {
        CoreError::BatchJob { index, source, .. } if name_geometry => {
            format!("geometry {index}: {source}")
        }
        CoreError::BatchJob { source, .. } => source.to_string(),
        e => e.to_string(),
    };
    DispatchError { code, message }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contained_panics_answer_internal() {
        let panic = || Box::new(CoreError::JobPanicked("boom".into()));
        let job = |source| CoreError::BatchJob { index: 1, parameter: None, source };
        // A batch frame names the failing geometry; an extract does not.
        let e = core_error(job(panic()), true);
        assert_eq!(
            (e.code, e.message.as_str()),
            (codes::INTERNAL, "geometry 1: job panicked: boom")
        );
        let e = core_error(job(panic()), false);
        assert_eq!((e.code, e.message.as_str()), (codes::INTERNAL, "job panicked: boom"));
        let e = core_error(job(Box::new(CoreError::EmptyGeometry)), true);
        assert_eq!(e.code, codes::EXTRACTION);
        let e = core_error(CoreError::ChipWindow { window: 3, source: panic() }, false);
        assert_eq!(
            (e.code, e.message.as_str()),
            (codes::INTERNAL, "chip window 3 failed: job panicked: boom")
        );
        assert_eq!(core_error(CoreError::EmptyGeometry, false).code, codes::EXTRACTION);
        assert_eq!(core_error(CoreError::Busy { queued: 2, depth: 2 }, true).code, codes::BUSY);
        let e = core_error(CoreError::OverDepth { jobs: 3, depth: 2 }, true);
        assert_eq!(
            (e.code, e.message.as_str()),
            (codes::BAD_REQUEST, "3 jobs can never fit queue depth 2")
        );
    }

    fn reply(state: &ServerState, line: &str) -> Value {
        serde_json::from_str(&dispatch(state, line)).unwrap()
    }

    fn test_state() -> ServerState {
        let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
        ServerState::new(cfg, Listener::bind("127.0.0.1:0").expect("bind loopback").shutdown())
    }

    #[test]
    fn dispatch_ping_stats_and_errors() {
        let state = test_state();
        let v = serde_json::from_str(&dispatch(&state, r#"{"op":"ping","id":5}"#)).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true));
        assert_eq!(v["id"].as_u64(), Some(5));
        assert_eq!(v["result"]["proto"].as_u64(), Some(PROTOCOL_VERSION));

        let v = serde_json::from_str(&dispatch(&state, "certainly not json")).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(false));
        assert_eq!(v["error"]["code"].as_str(), Some(codes::PARSE));

        let v = serde_json::from_str(&dispatch(&state, r#"{"op":"fly"}"#)).unwrap();
        assert_eq!(v["error"]["code"].as_str(), Some(codes::BAD_REQUEST));

        let v = serde_json::from_str(&dispatch(&state, r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(v["result"]["requests"].as_u64(), Some(4));
        assert_eq!(v["result"]["cache_entries"].as_u64(), Some(0));
        // The executor-queue section is always present.
        assert_eq!(v["result"]["queue"]["queued"].as_u64(), Some(0));
        assert!(v["result"]["queue"]["depth"].as_u64().unwrap() >= 1);
        assert_eq!(v["result"]["exec"]["rejected"].as_u64(), Some(0));
    }

    #[test]
    fn dispatch_extract_and_geometry_error() {
        let state = test_state();
        let line = r#"{"op":"extract","id":1,"geometry":"conductor a\nbox 0 0 0 1e-6 1e-6 1e-6\nconductor b\nbox 0 0 2e-6 1e-6 1e-6 3e-6\n"}"#;
        let v = serde_json::from_str(&dispatch(&state, line)).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
        let result = &v["result"];
        assert_eq!(result["names"][0].as_str(), Some("a"));
        assert_eq!(result["matrix"].as_array().unwrap().len(), 2);
        assert!(result["matrix"][0][0].as_f64().unwrap() > 0.0);
        assert!(result["matrix"][0][1].as_f64().unwrap() < 0.0);
        assert_eq!(result["report"]["method"].as_str(), Some("instantiable"));
        assert!(!state.cache.is_empty(), "extraction must warm the daemon cache");

        let v = serde_json::from_str(&dispatch(
            &state,
            r#"{"op":"extract","id":2,"geometry":"box 0 0 0 1 1 1\n"}"#,
        ))
        .unwrap();
        assert_eq!(v["error"]["code"].as_str(), Some(codes::GEOMETRY));
        assert_eq!(v["id"].as_u64(), Some(2));

        // A conductor-less description is rejected at the geometry layer.
        let v = serde_json::from_str(&dispatch(
            &state,
            r#"{"op":"extract","geometry":"eps_rel 1.0\n"}"#,
        ))
        .unwrap();
        assert_eq!(v["error"]["code"].as_str(), Some(codes::GEOMETRY));
    }

    #[test]
    fn dispatch_batch_runs_and_reports_failing_index() {
        let state = test_state();
        let a =
            "conductor a\\nbox 0 0 0 1e-6 1e-6 1e-6\\nconductor b\\nbox 0 0 2e-6 1e-6 1e-6 3e-6\\n";
        let line = format!(r#"{{"op":"batch","id":4,"geometries":["{a}","{a}"]}}"#);
        let v = serde_json::from_str(&dispatch(&state, &line)).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
        let results = v["result"]["results"].as_array().unwrap();
        assert_eq!(results.len(), 2);
        // Identical geometries in one frame: both matrices bit-identical.
        assert_eq!(
            serde_json::to_string(&results[0]["matrix"]).unwrap(),
            serde_json::to_string(&results[1]["matrix"]).unwrap()
        );
        assert!(v["result"]["exec"]["queue_seconds"].as_f64().is_some(), "{v:?}");

        // A bad geometry fails the frame with its index in the message.
        let line = format!(r#"{{"op":"batch","id":5,"geometries":["{a}","broken"]}}"#);
        let v = serde_json::from_str(&dispatch(&state, &line)).unwrap();
        assert_eq!(v["error"]["code"].as_str(), Some(codes::GEOMETRY));
        assert!(v["error"]["message"].as_str().unwrap().contains("geometry 1"), "{v:?}");

        // An empty frame is answered with an empty results array.
        let v =
            serde_json::from_str(&dispatch(&state, r#"{"op":"batch","geometries":[]}"#)).unwrap();
        assert_eq!(v["result"]["results"].as_array().unwrap().len(), 0);
    }

    #[test]
    fn dispatch_chip_extracts_and_reuses_windows() {
        let state = test_state();
        let geo = "conductor a\\nbox 0 0 0 1e-6 1e-6 1e-6\\nconductor b\\nbox 4e-6 0 0 5e-6 1e-6 1e-6\\nconductor c\\nbox 0 4e-6 0 1e-6 5e-6 1e-6\\n";
        let line =
            format!(r#"{{"op":"chip","id":7,"geometry":"{geo}","windows":[2,2],"halo":2e-6}}"#);
        let v = serde_json::from_str(&dispatch(&state, &line)).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
        let result = &v["result"];
        assert_eq!(result["dim"].as_u64(), Some(3));
        assert_eq!(result["names"].as_array().unwrap().len(), 3);
        let entries = result["entries"].as_array().unwrap();
        assert_eq!(entries.len() as u64, result["report"]["nnz"].as_u64().unwrap());
        assert!(entries.iter().all(|e| e.as_array().unwrap().len() == 3));
        // Diagonal entries are positive self-capacitances.
        let diag: Vec<f64> = entries
            .iter()
            .map(|e| e.as_array().unwrap())
            .filter(|e| e[0].as_u64() == e[1].as_u64())
            .map(|e| e[2].as_f64().unwrap())
            .collect();
        assert_eq!(diag.len(), 3);
        assert!(diag.iter().all(|&d| d > 0.0), "{diag:?}");
        let windows = result["report"]["windows"].as_u64().unwrap();
        assert_eq!(result["report"]["extracted"].as_u64(), Some(windows));

        // The same frame again: the daemon's window cache answers it.
        let v = serde_json::from_str(&dispatch(&state, &line)).unwrap();
        assert_eq!(v["result"]["report"]["extracted"].as_u64(), Some(0), "{v:?}");
        assert_eq!(v["result"]["report"]["reused"].as_u64(), Some(windows));

        // Stats now expose the resident window cache.
        let v = serde_json::from_str(&dispatch(&state, r#"{"op":"stats"}"#)).unwrap();
        assert!(v["result"]["window_cache_entries"].as_u64().unwrap() >= 1);
        assert!(v["result"]["window_cache"]["hits"].as_u64().unwrap() >= 1);

        // Bad geometry and bad partition map to the geometry code.
        let v = serde_json::from_str(&dispatch(&state, r#"{"op":"chip","geometry":"broken"}"#))
            .unwrap();
        assert_eq!(v["error"]["code"].as_str(), Some(codes::GEOMETRY));
    }

    /// A daemon state with one worker and the given queue depth.
    fn state_with_depth(queue_depth: usize) -> ServerState {
        let cfg = ServerConfig { workers: 1, queue_depth, ..ServerConfig::default() };
        ServerState::new(cfg, Listener::bind("127.0.0.1:0").expect("bind").shutdown())
    }

    /// A `batch` frame of `n` copies of a two-cube geometry.
    fn batch_of(n: usize) -> String {
        let geo = "\"conductor a\\nbox 0 0 0 1e-6 1e-6 1e-6\\nconductor b\\nbox 0 0 2e-6 1e-6 1e-6 3e-6\\n\"";
        format!(r#"{{"op":"batch","id":9,"geometries":[{}]}}"#, vec![geo; n].join(","))
    }

    /// A `chip` frame whose 2×2 grid has four non-empty windows.
    const CORNERS_CHIP: &str = r#"{"op":"chip","geometry":"conductor a\nbox 0 0 0 1e-6 1e-6 1e-6\nconductor b\nbox 4e-6 0 0 5e-6 1e-6 1e-6\nconductor c\nbox 0 4e-6 0 1e-6 5e-6 1e-6\nconductor d\nbox 4e-6 4e-6 0 5e-6 5e-6 1e-6\n","windows":[2,2],"halo":1e-6}"#;

    #[test]
    fn busy_executor_maps_to_the_busy_code() {
        // Three slow jobs go straight to the executor: the one worker
        // runs the first while two wait, so a request whose four jobs
        // fit the depth-4 queue finds no room until the third starts.
        let state = state_with_depth(4);
        let slow = bemcap_geom::structures::bus_crossing(3, 3, Default::default());
        let held = state
            .executor
            .submit(&bemcap_core::Extractor::new(), None, vec![slow; 3])
            .expect("admitted");
        while state.executor.running_jobs() == 0 {
            std::thread::yield_now();
        }
        let v = reply(&state, &batch_of(4));
        assert_eq!(v["ok"].as_bool(), Some(false));
        assert_eq!(v["error"]["code"].as_str(), Some(codes::BUSY), "{v:?}");
        assert_eq!(v["id"].as_u64(), Some(9));
        // A chip whose four non-empty windows fit the depth but not the
        // room is refused whole: nothing ran, so nothing reached the cache.
        let v = reply(&state, CORNERS_CHIP);
        assert_eq!(v["error"]["code"].as_str(), Some(codes::BUSY), "{v:?}");
        assert!(held.wait().iter().all(|o| o.result.is_ok()));
        assert_eq!(state.executor.stats().jobs, 3, "a refused request ran jobs");
        assert!(state.cache.is_empty(), "a refused request filled the shared cache");
    }

    #[test]
    fn over_depth_requests_are_bad_requests_not_busy() {
        // Four jobs can never fit a depth-3 queue, however idle: retrying
        // cannot help, so the reply is not the retryable busy code.
        let state = state_with_depth(3);
        let v = reply(&state, &batch_of(4));
        assert_eq!(v["error"]["code"].as_str(), Some(codes::BAD_REQUEST), "{v:?}");
        let message = v["error"]["message"].as_str().unwrap();
        assert!(message.contains("4 jobs") && message.contains("depth 3"), "{message}");
        assert_eq!(v["id"].as_u64(), Some(9));
        let v = reply(&state, CORNERS_CHIP);
        assert_eq!(v["error"]["code"].as_str(), Some(codes::BAD_REQUEST), "{v:?}");
        assert_eq!(state.executor.stats().jobs, 0);
        assert!(state.cache.is_empty());
        // A frame that fits is served.
        assert_eq!(reply(&state, &batch_of(3))["ok"].as_bool(), Some(true));
    }

    #[test]
    fn a_failing_batch_geometry_is_named_with_its_root_code() {
        // Geometry 1 parses, but its pFFT grid exceeds the request's cap
        // while geometry 0's fits: the extraction fails for it alone.
        let state = test_state();
        let line = r#"{"op":"batch","id":6,"method":"pwc-pfft","mesh_divisions":2,
            "pfft":{"spacing_factor":1,"near_cells":2,"max_grid_points":4096},
            "geometries":["conductor a\nbox 0 0 0 1e-6 1e-6 1e-6\n",
            "conductor a\nbox 0 0 0 1e-6 1e-6 1e-6\nconductor b\nbox 1e-5 0 0 1.1e-5 1e-6 1e-6\n"]}"#;
        let v = reply(&state, line);
        assert_eq!(v["error"]["code"].as_str(), Some(codes::EXTRACTION), "{v:?}");
        let message = v["error"]["message"].as_str().unwrap();
        assert!(message.starts_with("geometry 1: pfft solver failed: bad grid"), "{message}");
    }

    #[test]
    fn replies_carry_each_jobs_own_cache_counters_and_queue_wait() {
        let state = test_state();
        let geo =
            r#"conductor a\nbox 0 0 0 1e-6 1e-6 1e-6\nconductor b\nbox 0 0 2e-6 1e-6 1e-6 3e-6\n"#;
        let waited = || state.executor.stats().queue_seconds;
        fn cache(v: &Value) -> &Value {
            &v["cache"]
        }
        let queue = |v: &Value| v["exec"]["queue_seconds"].as_f64().unwrap();
        // extract: the job's own counters and its own wait.
        let before = waited();
        let first = reply(&state, &format!(r#"{{"op":"extract","geometry":"{geo}"}}"#));
        assert!((queue(&first["result"]) - (waited() - before)).abs() < 1e-8, "{first:?}");
        let second = reply(&state, &format!(r#"{{"op":"extract","geometry":"{geo}"}}"#));
        let lookups = |c: &Value| c["hits"].as_u64().unwrap() + c["misses"].as_u64().unwrap();
        assert!(cache(&first["result"])["misses"].as_u64().unwrap() > 0);
        assert_eq!(cache(&second["result"])["misses"].as_u64(), Some(0), "{second:?}");
        assert_eq!(
            cache(&second["result"])["hits"].as_u64(),
            Some(lookups(cache(&first["result"])))
        );
        // batch: a fresh state, so job 0 misses and its twin job 1 hits;
        // the shared record is the first job's wait, and the second job
        // waited at least that plus the first job's run.
        let state = test_state();
        let waited = || state.executor.stats().queue_seconds;
        let v = reply(&state, &format!(r#"{{"op":"batch","geometries":["{geo}","{geo}"]}}"#));
        let results = v["result"]["results"].as_array().unwrap();
        let (c0, c1) = (cache(&results[0]), cache(&results[1]));
        assert!(c0["misses"].as_u64().unwrap() > 0, "{v:?}");
        assert_eq!(c1["misses"].as_u64(), Some(0), "{v:?}");
        assert_eq!(c1["hits"].as_u64(), Some(lookups(c0)));
        let first_wait = queue(&v["result"]);
        let run0: f64 = ["setup_seconds", "solve_seconds"]
            .iter()
            .map(|&k| results[0]["report"][k].as_f64().unwrap())
            .sum();
        assert!(waited() - first_wait >= first_wait + run0 - 1e-8, "{v:?}");
    }

    #[test]
    fn dispatch_metrics_scrapes_the_registry() {
        let state = test_state();
        let v = serde_json::from_str(&dispatch(&state, r#"{"op":"metrics","id":3}"#)).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
        assert_eq!(v["id"].as_u64(), Some(3));
        let text = v["result"]["text"].as_str().unwrap();
        // Core counters are registered even on an idle daemon, and the
        // exposition is well-formed HELP/TYPE/sample triples.
        assert!(text.contains("# TYPE bemcap_extractions_total counter"), "{text}");
        assert!(text.contains("# TYPE bemcap_daemon_uptime_seconds gauge"), "{text}");
        for chunk in text.split("# HELP ").skip(1) {
            assert!(chunk.contains("# TYPE "), "sample without TYPE line: {chunk}");
        }
        let before = v["result"]["counters"]["bemcap_extractions_total"].as_u64().unwrap();
        assert_eq!(v["result"]["gauges"]["bemcap_template_cache_entries"].as_u64(), Some(0));

        // Traffic moves the counters; residency shows up in the gauges.
        let geo = r#"{"op":"extract","id":4,"geometry":"conductor a\nbox 0 0 0 1e-6 1e-6 1e-6\nconductor b\nbox 0 0 2e-6 1e-6 1e-6 3e-6\n"}"#;
        let v = serde_json::from_str(&dispatch(&state, geo)).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
        let v = serde_json::from_str(&dispatch(&state, r#"{"op":"metrics","id":5}"#)).unwrap();
        let after = v["result"]["counters"]["bemcap_extractions_total"].as_u64().unwrap();
        assert!(after > before, "extraction counter did not move: {before} -> {after}");
        assert!(v["result"]["gauges"]["bemcap_template_cache_entries"].as_u64().unwrap() > 0);
    }

    #[test]
    fn dispatch_snapshot_writes_a_restorable_file() {
        let state = test_state();
        let geo = r#"{"op":"extract","id":1,"geometry":"conductor a\nbox 0 0 0 1e-6 1e-6 1e-6\nconductor b\nbox 0 0 2e-6 1e-6 1e-6 3e-6\n"}"#;
        let v = serde_json::from_str(&dispatch(&state, geo)).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
        let warm = state.cache.len();
        assert!(warm > 0);

        let path = std::env::temp_dir().join(format!("bemcapd-snap-test-{}", std::process::id()));
        let line = format!(r#"{{"op":"snapshot","id":2,"path":"{}"}}"#, path.display());
        let v = serde_json::from_str(&dispatch(&state, &line)).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
        assert_eq!(v["result"]["entries"].as_u64(), Some(warm as u64));
        assert!(v["result"]["bytes"].as_u64().unwrap() > 0);

        // The file restores into a fresh cache with the same residency.
        let fresh = TemplateCache::unbounded();
        let file = std::fs::File::open(&path).unwrap();
        assert_eq!(fresh.restore_from(io::BufReader::new(file)).unwrap(), warm);
        assert_eq!(fresh.len(), warm);
        let _ = std::fs::remove_file(&path);

        // An unwritable path is a structured error, not a dead thread.
        let v = serde_json::from_str(&dispatch(
            &state,
            r#"{"op":"snapshot","id":3,"path":"/nonexistent-dir/snap"}"#,
        ))
        .unwrap();
        assert_eq!(v["error"]["code"].as_str(), Some(codes::BAD_REQUEST), "{v:?}");

        // Plain daemons refuse the router-only stats op.
        let v = serde_json::from_str(&dispatch(&state, r#"{"op":"route_stats"}"#)).unwrap();
        assert_eq!(v["error"]["code"].as_str(), Some(codes::BAD_REQUEST));
        assert!(v["error"]["message"].as_str().unwrap().contains("bemcaprd"), "{v:?}");
    }

    #[test]
    fn shutdown_flips_the_flag() {
        let state = test_state();
        assert!(!state.shutdown.is_triggered());
        let v = serde_json::from_str(&dispatch(&state, r#"{"op":"shutdown"}"#)).unwrap();
        assert_eq!(v["result"]["stopping"].as_bool(), Some(true));
        assert!(state.shutdown.is_triggered());
    }
}
