//! The `bemcaprd` front tier: a TCP listener that speaks the daemon
//! wire protocol and proxies payload ops to backend replicas.
//!
//! Connection handling is `bemcapd`'s own: both tiers run on the shared
//! skeleton [`bemcap_serve::listener`] (thread per connection, size-capped
//! framing, wake-up shutdown), so a client cannot tell the tiers apart
//! by transport behavior. What differs is dispatch:
//!
//! * `extract` / `batch` / `chip` — compute the routing key
//!   ([`crate::balance::routing_key`]), walk replicas in rendezvous
//!   preference order, and relay the client's frame **verbatim**. A
//!   complete response line — success *or* structured error like
//!   `busy` — is final and relayed untouched; only connection-level
//!   failures (dial, timeout, mid-response EOF) fail over to the next
//!   replica. When every replica fails at the transport level the
//!   client gets the v6 `upstream` error.
//! * `ping`, `metrics`, `route_stats`, `shutdown` — answered by the
//!   router itself (`ping` carries `"router": true` so tooling can tell
//!   the tiers apart).
//! * `stats`, `snapshot` — refused with `bad-request`: both describe
//!   one daemon's private state, so they must be addressed to a replica
//!   directly.
//!
//! A background health checker pings every replica each interval;
//! [`RouterConfig::eject_after`] consecutive failures eject a replica
//! from routing (its shard fails over with minimal remap), and the
//! first succeeding check re-admits it.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bemcap_core::metrics::{Metric, Registry};
use bemcap_serve::protocol::{
    self, codes, error_response, ok_response, MetricsReply, PingReply, ReplicaStats, Request,
    RouteStatsReply, ShutdownReply, PROTOCOL_VERSION,
};
use bemcap_serve::{Client, Listener, ServeError, Shutdown};

use crate::balance::{routing_key, Balancer};
use crate::replica::Replica;

/// Configuration of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks a free port (see [`Router::local_addr`]).
    pub addr: String,
    /// Backend `bemcapd` addresses. At least one is required; the order
    /// is the identity order `route_stats` reports.
    pub replicas: Vec<String>,
    /// Largest accepted request frame in bytes. Default 8 MiB,
    /// matching the daemon.
    pub max_frame_bytes: usize,
    /// Bound on dialing a replica (also the health checker's IO
    /// timeout). Default 1 s.
    pub connect_timeout: Duration,
    /// Bound on waiting for a replica's response to a forwarded frame
    /// (`None` = unbounded). Default 5 min — extraction frames
    /// legitimately run long, but a wedged replica must not pin a
    /// client forever.
    pub io_timeout: Option<Duration>,
    /// Health-check period. Default 1 s.
    pub health_interval: Duration,
    /// Consecutive failed health checks that eject a replica. Default 3.
    pub eject_after: u32,
    /// Idle connections pooled per replica. Default 4.
    pub pool_per_replica: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            replicas: Vec::new(),
            max_frame_bytes: 8 << 20,
            connect_timeout: Duration::from_secs(1),
            io_timeout: Some(Duration::from_secs(300)),
            health_interval: Duration::from_secs(1),
            eject_after: 3,
            pool_per_replica: 4,
        }
    }
}

struct RouterState {
    cfg: RouterConfig,
    replicas: Vec<Replica>,
    balancer: Balancer,
    shutdown: Shutdown,
    requests: AtomicU64,
    proxied: AtomicU64,
    failovers: AtomicU64,
    upstream_errors: AtomicU64,
    ejections: AtomicU64,
    readmissions: AtomicU64,
    started: Instant,
}

impl RouterState {
    fn new(cfg: RouterConfig, shutdown: Shutdown) -> RouterState {
        RouterState {
            balancer: Balancer::new(&cfg.replicas),
            replicas: cfg
                .replicas
                .iter()
                .map(|a| Replica::new(a.clone(), cfg.pool_per_replica))
                .collect(),
            cfg,
            shutdown,
            requests: AtomicU64::new(0),
            proxied: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            upstream_errors: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    fn healthy_count(&self) -> usize {
        self.replicas.iter().filter(|r| r.is_healthy()).count()
    }
}

/// Router-level counters in the global metrics registry. The registry
/// is process-wide, so these aggregate across router instances in one
/// process (tests, the benchmark's `serve_*` workloads); the per-instance numbers
/// live in `route_stats`.
struct RouterMetrics {
    requests: &'static Metric,
    proxied: &'static Metric,
    failovers: &'static Metric,
    upstream_errors: &'static Metric,
    ejections: &'static Metric,
    readmissions: &'static Metric,
    replicas: &'static Metric,
    healthy_replicas: &'static Metric,
}

fn router_metrics() -> &'static RouterMetrics {
    static METRICS: OnceLock<RouterMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        RouterMetrics {
            requests: r
                .counter("bemcap_router_requests_total", "Requests the front tier accepted."),
            proxied: r.counter(
                "bemcap_router_proxied_total",
                "Payload requests answered by a replica through the front tier.",
            ),
            failovers: r.counter(
                "bemcap_router_failovers_total",
                "Replica attempts abandoned for connection-level failures.",
            ),
            upstream_errors: r.counter(
                "bemcap_router_upstream_errors_total",
                "Requests that exhausted every replica (answered with the upstream code).",
            ),
            ejections: r.counter(
                "bemcap_router_ejections_total",
                "Replicas ejected after consecutive health-check failures.",
            ),
            readmissions: r.counter(
                "bemcap_router_readmissions_total",
                "Ejected replicas re-admitted after a passing health check.",
            ),
            replicas: r.gauge("bemcap_router_replicas", "Configured backend replicas."),
            healthy_replicas: r
                .gauge("bemcap_router_healthy_replicas", "Replicas currently routable."),
        }
    })
}

/// A bound, not-yet-running front tier. [`Router::bind`] →
/// [`Router::run`] (blocking) or [`Router::spawn`] (background thread).
pub struct Router {
    listener: Listener,
    state: Arc<RouterState>,
}

impl Router {
    /// Binds the listener and builds the replica table. Replicas are
    /// presumed healthy until the first health-check interval says
    /// otherwise, so traffic flows immediately after bind.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for an empty replica set or a
    /// zero ejection threshold; any socket error from bind.
    pub fn bind(cfg: RouterConfig) -> io::Result<Router> {
        for (invalid, why) in [
            (cfg.replicas.is_empty(), "router needs at least one replica address"),
            (cfg.eject_after == 0, "ejection threshold must be at least one failed check"),
        ] {
            if invalid {
                return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
            }
        }
        let listener = Listener::bind(cfg.addr.as_str())?;
        let state = Arc::new(RouterState::new(cfg, listener.shutdown()));
        Ok(Router { listener, state })
    }

    /// The address actually bound (resolves port 0).
    ///
    /// # Errors
    ///
    /// Any socket error from `local_addr`.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` request arrives, then joins the health
    /// checker and every connection thread. Shutting down the router
    /// never shuts down the replicas — they keep their warm caches.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop socket errors.
    pub fn run(self) -> io::Result<()> {
        let health = {
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || health_loop(&state))
        };
        let state = self.state;
        let max_frame_bytes = state.cfg.max_frame_bytes;
        let served = self.listener.run(max_frame_bytes, move |line| dispatch(&state, line));
        // `run` triggers the shutdown handle on every exit path, which
        // also ends the health checker's wait.
        let _ = health.join();
        served
    }

    /// Runs the router on a background thread.
    ///
    /// # Errors
    ///
    /// Any socket error from `local_addr`.
    pub fn spawn(self) -> io::Result<RouterHandle> {
        let addr = self.local_addr()?;
        let thread = std::thread::spawn(move || self.run());
        Ok(RouterHandle { addr, thread })
    }
}

/// A router running on a background thread (see [`Router::spawn`]).
pub struct RouterHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl RouterHandle {
    /// The bound address to connect clients to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the router to shut down (send the `shutdown` op first).
    ///
    /// # Errors
    ///
    /// The router's exit status; panics if the router thread panicked.
    pub fn join(self) -> io::Result<()> {
        self.thread.join().expect("router thread panicked")
    }
}

/// Pings every replica once per interval, ejecting after
/// [`RouterConfig::eject_after`] consecutive failures and re-admitting
/// on the first success. Waits on the shutdown handle between rounds, so
/// a shutdown ends the loop at once rather than after the interval.
fn health_loop(state: &RouterState) {
    let eject_after = u64::from(state.cfg.eject_after);
    loop {
        for replica in &state.replicas {
            if state.shutdown.is_triggered() {
                return;
            }
            if check_replica(replica, &state.cfg) {
                if replica.record_check_success() {
                    state.readmissions.fetch_add(1, Ordering::Relaxed);
                    router_metrics().readmissions.inc();
                }
            } else if replica.record_check_failure(eject_after) {
                state.ejections.fetch_add(1, Ordering::Relaxed);
                router_metrics().ejections.inc();
            }
        }
        if state.shutdown.wait_timeout(state.cfg.health_interval) {
            return;
        }
    }
}

/// One health probe: dial with the connect timeout, bound the exchange
/// with the same timeout, and require a protocol-compatible `ping`.
fn check_replica(replica: &Replica, cfg: &RouterConfig) -> bool {
    let probe = || -> Result<(), ServeError> {
        let mut client = Client::connect_with_timeout(replica.addr(), cfg.connect_timeout)?;
        client.set_io_timeout(Some(cfg.connect_timeout))?;
        client.ping()
    };
    probe().is_ok()
}

/// Handles one request line. Payload ops forward the *original* line so
/// the replica sees the client's exact frame; control ops are answered
/// locally. Always returns a complete response line (no newline).
fn dispatch(state: &RouterState, line: &str) -> Vec<u8> {
    state.requests.fetch_add(1, Ordering::Relaxed);
    router_metrics().requests.inc();
    let request = match protocol::decode_request(line) {
        Ok(request) => request,
        Err(e) => return error_response(e.id, e.code, &e.message).into_bytes(),
    };
    let id = request.id();
    if let Some(key) = routing_key(&request) {
        return forward_payload(state, key, line.as_bytes(), id);
    }
    let refuse = |message: &str| error_response(id, codes::BAD_REQUEST, message);
    match request {
        Request::Ping { .. } => {
            let version = env!("CARGO_PKG_VERSION").into();
            ok_response(id, PingReply { proto: PROTOCOL_VERSION, version, router: true }.encode())
        }
        Request::Metrics { .. } => ok_response(id, metrics_scrape(state).encode()),
        Request::RouteStats { .. } => ok_response(id, route_stats(state).encode()),
        Request::Shutdown { .. } => {
            state.shutdown.trigger();
            ok_response(id, ShutdownReply.encode())
        }
        Request::Stats { .. } => refuse(
            "stats describes one daemon's private state; \
             ask a replica directly or use route_stats here",
        ),
        Request::Snapshot { .. } => refuse(
            "snapshot writes one daemon's cache to its filesystem; \
             address the replica directly",
        ),
        Request::Extract { .. } | Request::Batch { .. } | Request::Chip { .. } => {
            unreachable!("payload ops always have a routing key")
        }
    }
    .into_bytes()
}

/// Relays a payload frame along the rendezvous preference order:
/// healthy replicas first (affinity shard leading), ejected ones as a
/// last resort — a just-died replica may not be ejected yet, and a
/// just-revived one may not be re-admitted yet, so neither state is
/// trusted absolutely. Any complete response line is final; only
/// connection-level failures move on.
fn forward_payload(state: &RouterState, key: u64, line: &[u8], id: Option<u64>) -> Vec<u8> {
    let order = state.balancer.ranked(key);
    let (healthy, ejected): (Vec<usize>, Vec<usize>) =
        order.into_iter().partition(|&i| state.replicas[i].is_healthy());
    let mut attempts = 0u64;
    let mut last: Option<(String, ServeError)> = None;
    for index in healthy.into_iter().chain(ejected) {
        let replica = &state.replicas[index];
        attempts += 1;
        match replica.forward(line, state.cfg.connect_timeout, state.cfg.io_timeout) {
            Ok(response) => {
                state.proxied.fetch_add(1, Ordering::Relaxed);
                router_metrics().proxied.inc();
                if attempts > 1 {
                    state.failovers.fetch_add(attempts - 1, Ordering::Relaxed);
                    router_metrics().failovers.add(attempts - 1);
                }
                return response;
            }
            Err(e) => last = Some((replica.addr().to_string(), e)),
        }
    }
    if attempts > 1 {
        state.failovers.fetch_add(attempts - 1, Ordering::Relaxed);
        router_metrics().failovers.add(attempts - 1);
    }
    state.upstream_errors.fetch_add(1, Ordering::Relaxed);
    router_metrics().upstream_errors.inc();
    let detail = last
        .map(|(addr, e)| format!("last attempt ({addr}): {e}"))
        .unwrap_or_else(|| "no replicas configured".to_string());
    error_response(
        id,
        codes::UPSTREAM,
        &format!("no replica reachable after {attempts} attempts; {detail}"),
    )
    .into_bytes()
}

/// The v6 `route_stats` result, read from the live state.
fn route_stats(state: &RouterState) -> RouteStatsReply {
    let count = |n: &AtomicU64| n.load(Ordering::Relaxed);
    RouteStatsReply {
        replicas: state
            .replicas
            .iter()
            .map(|r| ReplicaStats {
                addr: r.addr().to_string(),
                healthy: r.is_healthy(),
                consecutive_failures: r.failure_streak(),
                requests: r.request_count(),
                errors: r.error_count(),
                pooled: r.pooled(),
            })
            .collect(),
        healthy: state.healthy_count(),
        proxied: count(&state.proxied),
        failovers: count(&state.failovers),
        upstream_errors: count(&state.upstream_errors),
        ejections: count(&state.ejections),
        readmissions: count(&state.readmissions),
        uptime_seconds: state.started.elapsed().as_secs_f64(),
        requests: count(&state.requests),
    }
}

/// Builds the `metrics` result: refreshes the router gauges, then
/// snapshots the global registry (shared with any in-process daemons —
/// the registry is process-wide by design).
fn metrics_scrape(state: &RouterState) -> MetricsReply {
    let m = router_metrics();
    m.replicas.set(state.replicas.len() as u64);
    m.healthy_replicas.set(state.healthy_count() as u64);
    MetricsReply::from_registry(Registry::global())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn test_state(replicas: Vec<String>) -> RouterState {
        let cfg = RouterConfig {
            replicas,
            connect_timeout: Duration::from_millis(200),
            ..RouterConfig::default()
        };
        RouterState::new(cfg, Listener::bind("127.0.0.1:0").expect("bind loopback").shutdown())
    }

    /// A port with nothing listening on it (bound once, then released).
    fn dead_addr() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    }

    fn parse(bytes: &[u8]) -> Value {
        serde_json::from_str(std::str::from_utf8(bytes).unwrap()).unwrap()
    }

    #[test]
    fn router_answers_control_ops_itself() {
        let state = test_state(vec![dead_addr()]);
        let v: Value = parse(&dispatch(&state, r#"{"op":"ping","id":1}"#));
        assert_eq!(v["ok"].as_bool(), Some(true));
        assert_eq!(v["result"]["proto"].as_u64(), Some(PROTOCOL_VERSION));
        assert_eq!(v["result"]["router"].as_bool(), Some(true));

        let v: Value = parse(&dispatch(&state, r#"{"op":"route_stats","id":2}"#));
        assert_eq!(v["ok"].as_bool(), Some(true));
        assert_eq!(v["result"]["replicas"].as_array().unwrap().len(), 1);
        assert_eq!(v["result"]["healthy"].as_u64(), Some(1));

        // Per-daemon ops are refused with an explanation, not proxied.
        for line in [r#"{"op":"stats","id":3}"#, r#"{"op":"snapshot","id":4,"path":"x"}"#] {
            let v: Value = parse(&dispatch(&state, line));
            assert_eq!(v["error"]["code"].as_str(), Some(codes::BAD_REQUEST), "{line}");
        }

        let v: Value = parse(&dispatch(&state, "not json"));
        assert_eq!(v["error"]["code"].as_str(), Some(codes::PARSE));
    }

    #[test]
    fn unreachable_replicas_yield_the_upstream_code() {
        let state = test_state(vec![dead_addr(), dead_addr()]);
        let line = r#"{"op":"extract","id":9,"geometry":"conductor a\nbox 0 0 0 1 1 1\n"}"#;
        let v: Value = parse(&dispatch(&state, line));
        assert_eq!(v["ok"].as_bool(), Some(false));
        assert_eq!(v["error"]["code"].as_str(), Some(codes::UPSTREAM), "{v:?}");
        assert_eq!(v["id"].as_u64(), Some(9), "upstream errors echo the id");
        assert!(v["error"]["message"].as_str().unwrap().contains("2 attempts"), "{v:?}");
        assert_eq!(state.upstream_errors.load(Ordering::Relaxed), 1);
        assert_eq!(state.proxied.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn bind_rejects_an_empty_replica_set() {
        let err = Router::bind(RouterConfig::default()).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = Router::bind(RouterConfig {
            replicas: vec!["127.0.0.1:1".into()],
            eject_after: 0,
            ..RouterConfig::default()
        })
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn shutdown_flips_the_flag_without_touching_replicas() {
        let state = test_state(vec![dead_addr()]);
        let v: Value = parse(&dispatch(&state, r#"{"op":"shutdown"}"#));
        assert_eq!(v["result"]["stopping"].as_bool(), Some(true));
        assert!(state.shutdown.is_triggered());
        // No replica traffic was generated by the shutdown.
        assert_eq!(state.replicas[0].request_count(), 0);
    }
}
