//! Wire-shape pins: one in-process `bemcapd` and one `bemcaprd` in front
//! of it are driven through all nine ops, and every response frame's
//! recursive key list — each key with the JSON kind of its value, in
//! emission order — must equal the literal recorded here.
//!
//! The literals are the frames the daemon and router emitted before the
//! response codecs moved into `bemcap_serve::protocol`; any change to a
//! field name, its order, or its kind fails this test. Values (timings,
//! counters) are free to differ between runs and are not compared.
//!
//! Arrays contribute the shape of their first element (`path[]`). The
//! `counters`/`gauges` maps of the `metrics` result hold metric names as
//! keys — data, not schema — so they are recorded as objects and not
//! descended into.

use bemcap_core::Method;
use bemcap_geom::io::write_geometry;
use bemcap_geom::structures::{self, BusParams, CrossingParams};
use bemcap_router::{Router, RouterConfig};
use bemcap_serve::protocol::{encode_request, ExtractOptions, Request, Value};
use bemcap_serve::{Client, Server, ServerConfig};

/// Objects whose keys are data (metric names), not schema.
const MAPS: [&str; 2] = ["counters", "gauges"];

fn kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Number(_) => "number",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

fn walk(v: &Value, path: &str, out: &mut Vec<String>) {
    match v {
        Value::Object(entries) => {
            for (key, child) in entries {
                let at = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                out.push(format!("{at}:{}", kind(child)));
                if !MAPS.contains(&key.as_str()) {
                    walk(child, &at, out);
                }
            }
        }
        Value::Array(items) => {
            if let Some(first) = items.first() {
                let at = format!("{path}[]");
                out.push(format!("{at}:{}", kind(first)));
                walk(first, &at, out);
            }
        }
        _ => {}
    }
}

/// Sends `request` and checks the response frame's shape against `want`.
fn check(client: &mut Client, label: &str, request: &Request, want: &[&str]) {
    let response = client.send_raw(&encode_request(request)).expect(label);
    let mut got = Vec::new();
    walk(&response, "", &mut got);
    assert_eq!(got, want, "{label}: response shape changed; got\n{got:#?}");
}

const EXTRACT: &[&str] = &[
    "id:number",
    "ok:bool",
    "result:object",
    "result.names:array",
    "result.names[]:string",
    "result.matrix:array",
    "result.matrix[]:array",
    "result.matrix[][]:number",
    "result.report:object",
    "result.report.method:string",
    "result.report.n:number",
    "result.report.m_templates:number",
    "result.report.workers:number",
    "result.report.setup_seconds:number",
    "result.report.solve_seconds:number",
    "result.report.memory_bytes:number",
    "result.report.solver:null",
    "result.cache:object",
    "result.cache.hits:number",
    "result.cache.misses:number",
    "result.cache.evictions:number",
    "result.cache.inserted_bytes:number",
    "result.cache.hit_rate:number",
    "result.exec:object",
    "result.exec.queue_seconds:number",
];

const KRYLOV_EXTRACT: &[&str] = &[
    "id:number",
    "ok:bool",
    "result:object",
    "result.names:array",
    "result.names[]:string",
    "result.matrix:array",
    "result.matrix[]:array",
    "result.matrix[][]:number",
    "result.report:object",
    "result.report.method:string",
    "result.report.n:number",
    "result.report.m_templates:null",
    "result.report.workers:number",
    "result.report.setup_seconds:number",
    "result.report.solve_seconds:number",
    "result.report.memory_bytes:number",
    "result.report.solver:object",
    "result.report.solver.iterations:number",
    "result.report.solver.restarts:number",
    "result.report.solver.residual:number",
    "result.cache:object",
    "result.cache.hits:number",
    "result.cache.misses:number",
    "result.cache.evictions:number",
    "result.cache.inserted_bytes:number",
    "result.cache.hit_rate:number",
    "result.exec:object",
    "result.exec.queue_seconds:number",
];

const BATCH: &[&str] = &[
    "id:number",
    "ok:bool",
    "result:object",
    "result.results:array",
    "result.results[]:object",
    "result.results[].names:array",
    "result.results[].names[]:string",
    "result.results[].matrix:array",
    "result.results[].matrix[]:array",
    "result.results[].matrix[][]:number",
    "result.results[].report:object",
    "result.results[].report.method:string",
    "result.results[].report.n:number",
    "result.results[].report.m_templates:number",
    "result.results[].report.workers:number",
    "result.results[].report.setup_seconds:number",
    "result.results[].report.solve_seconds:number",
    "result.results[].report.memory_bytes:number",
    "result.results[].report.solver:null",
    "result.results[].cache:object",
    "result.results[].cache.hits:number",
    "result.results[].cache.misses:number",
    "result.results[].cache.evictions:number",
    "result.results[].cache.inserted_bytes:number",
    "result.results[].cache.hit_rate:number",
    "result.exec:object",
    "result.exec.queue_seconds:number",
];

const EMPTY_BATCH: &[&str] = &["id:number", "ok:bool", "result:object", "result.results:array"];

const CHIP: &[&str] = &[
    "id:number",
    "ok:bool",
    "result:object",
    "result.names:array",
    "result.names[]:string",
    "result.dim:number",
    "result.entries:array",
    "result.entries[]:array",
    "result.entries[][]:number",
    "result.report:object",
    "result.report.windows:number",
    "result.report.extracted:number",
    "result.report.reused:number",
    "result.report.nnz:number",
    "result.report.workers:number",
    "result.report.wall_seconds:number",
    "result.report.busy_seconds:number",
    "result.report.queue_seconds:number",
    "result.cache:object",
    "result.cache.hits:number",
    "result.cache.misses:number",
    "result.cache.evictions:number",
    "result.cache.inserted_bytes:number",
    "result.cache.hit_rate:number",
    "result.window_cache:object",
    "result.window_cache.hits:number",
    "result.window_cache.misses:number",
    "result.window_cache.evictions:number",
    "result.window_cache.inserted_bytes:number",
    "result.window_cache.hit_rate:number",
];

const METRICS: &[&str] = &[
    "id:number",
    "ok:bool",
    "result:object",
    "result.text:string",
    "result.counters:object",
    "result.gauges:object",
];

const PING: &[&str] = &[
    "id:number",
    "ok:bool",
    "result:object",
    "result.pong:bool",
    "result.proto:number",
    "result.version:string",
];

const STATS: &[&str] = &[
    "id:number",
    "ok:bool",
    "result:object",
    "result.cache:object",
    "result.cache.hits:number",
    "result.cache.misses:number",
    "result.cache.evictions:number",
    "result.cache.inserted_bytes:number",
    "result.cache.hit_rate:number",
    "result.cache_entries:number",
    "result.cache_resident_bytes:number",
    "result.cache_max_bytes:number",
    "result.window_cache:object",
    "result.window_cache.hits:number",
    "result.window_cache.misses:number",
    "result.window_cache.evictions:number",
    "result.window_cache.inserted_bytes:number",
    "result.window_cache.hit_rate:number",
    "result.window_cache_entries:number",
    "result.window_cache_resident_bytes:number",
    "result.window_cache_max_bytes:number",
    "result.uptime_seconds:number",
    "result.requests:number",
    "result.connections:number",
    "result.workers:number",
    "result.queue:object",
    "result.queue.depth:number",
    "result.queue.queued:number",
    "result.queue.running:number",
    "result.exec:object",
    "result.exec.submitted:number",
    "result.exec.rejected:number",
    "result.exec.jobs:number",
    "result.exec.queue_seconds:number",
];

const SNAPSHOT: &[&str] = &[
    "id:number",
    "ok:bool",
    "result:object",
    "result.path:string",
    "result.entries:number",
    "result.bytes:number",
];

const ERROR: &[&str] =
    &["id:number", "ok:bool", "error:object", "error.code:string", "error.message:string"];

const ROUTER_PING: &[&str] = &[
    "id:number",
    "ok:bool",
    "result:object",
    "result.pong:bool",
    "result.proto:number",
    "result.version:string",
    "result.router:bool",
];

const ROUTE_STATS: &[&str] = &[
    "id:number",
    "ok:bool",
    "result:object",
    "result.replicas:array",
    "result.replicas[]:object",
    "result.replicas[].addr:string",
    "result.replicas[].healthy:bool",
    "result.replicas[].consecutive_failures:number",
    "result.replicas[].requests:number",
    "result.replicas[].errors:number",
    "result.replicas[].pooled:number",
    "result.healthy:number",
    "result.proxied:number",
    "result.failovers:number",
    "result.upstream_errors:number",
    "result.ejections:number",
    "result.readmissions:number",
    "result.uptime_seconds:number",
    "result.requests:number",
];

const SHUTDOWN: &[&str] = &["id:number", "ok:bool", "result:object", "result.stopping:bool"];

#[test]
fn every_response_shape_is_pinned() {
    let daemon = Server::bind(ServerConfig { workers: 1, ..ServerConfig::default() })
        .expect("bind daemon")
        .spawn()
        .expect("spawn daemon");
    let router = Router::bind(RouterConfig {
        replicas: vec![daemon.addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("bind router")
    .spawn()
    .expect("spawn router");
    let mut direct = Client::connect(daemon.addr()).expect("connect daemon");
    let mut routed = Client::connect(router.addr()).expect("connect router");

    let crossing = write_geometry(&structures::crossing_wires(CrossingParams::default()));
    let longer = write_geometry(&structures::crossing_wires(CrossingParams {
        length: 1.1 * CrossingParams::default().length,
        ..CrossingParams::default()
    }));
    let bus = write_geometry(&structures::bus_crossing(2, 2, BusParams::default()));
    let options = ExtractOptions::default();
    let snapshot = std::env::temp_dir().join(format!("wire-shapes-{}.snap", std::process::id()));

    let extract = Request::Extract { id: Some(1), geometry: crossing.clone(), options };
    let krylov = Request::Extract {
        id: Some(11),
        geometry: crossing.clone(),
        options: ExtractOptions { method: Method::PwcFmm, mesh_divisions: Some(4), ..options },
    };
    let batch = Request::Batch { id: Some(2), geometries: vec![crossing, longer], options };
    let empty_batch = Request::Batch { id: Some(3), geometries: Vec::new(), options };
    let chip = Request::Chip { id: Some(4), geometry: bus, options, nx: 2, ny: 2, halo: None };
    let ping = Request::Ping { id: Some(5) };
    let stats = Request::Stats { id: Some(6) };
    let snap = Request::Snapshot { id: Some(7), path: snapshot.display().to_string() };
    let route_stats = Request::RouteStats { id: Some(8) };
    let metrics = Request::Metrics { id: Some(9) };
    let shutdown = Request::Shutdown { id: Some(10) };

    for (tier, client) in [("daemon", &mut direct), ("router", &mut routed)] {
        check(client, &format!("{tier} extract"), &extract, EXTRACT);
        check(client, &format!("{tier} krylov extract"), &krylov, KRYLOV_EXTRACT);
        check(client, &format!("{tier} batch"), &batch, BATCH);
        check(client, &format!("{tier} empty batch"), &empty_batch, EMPTY_BATCH);
        check(client, &format!("{tier} chip"), &chip, CHIP);
        check(client, &format!("{tier} metrics"), &metrics, METRICS);
    }
    check(&mut direct, "daemon ping", &ping, PING);
    check(&mut direct, "daemon stats", &stats, STATS);
    check(&mut direct, "daemon snapshot", &snap, SNAPSHOT);
    check(&mut direct, "daemon route_stats", &route_stats, ERROR);
    check(&mut routed, "router ping", &ping, ROUTER_PING);
    check(&mut routed, "router route_stats", &route_stats, ROUTE_STATS);
    check(&mut routed, "router stats", &stats, ERROR);
    check(&mut routed, "router snapshot", &snap, ERROR);
    let _ = std::fs::remove_file(&snapshot);

    // The typed client decodes every reply shape both tiers emit.
    for client in [&mut direct, &mut routed] {
        client.ping().expect("typed ping");
        client.metrics().expect("typed metrics");
    }
    direct.stats().expect("typed stats");
    routed.route_stats().expect("typed route_stats");

    check(&mut routed, "router shutdown", &shutdown, SHUTDOWN);
    router.join().expect("router exit");
    check(&mut direct, "daemon shutdown", &shutdown, SHUTDOWN);
    daemon.join().expect("daemon exit");
}
