//! Socket-free tests of the response codecs in `bemcap_serve::protocol`.
//!
//! * The `extract`, `batch` and `chip` results decode to the very bits
//!   of the engine output they were encoded from.
//! * Every control reply survives `decode(encode(x)) == x` through the
//!   wire text.
//! * A hostile-reply corpus: every decoder, fed a mutated copy of a valid
//!   reply (each field removed, each field given the wrong JSON kind, a
//!   non-object result, shape mismatches, bad chip triplets), answers
//!   with `ServeError::Protocol` — never a panic — unless the removed
//!   field is one v7 itself sends as null or may leave out.

use bemcap_core::batch::BatchPoint;
use bemcap_core::{
    CacheStats, ChipExtraction, ChipExtractor, ExecStats, Extraction, Extractor, JobReport, Method,
};
use bemcap_geom::structures::{self, BusParams, CrossingParams};
use bemcap_serve::protocol::{
    open_response, ChipReply, DaemonStats, ExtractReply, MetricsReply, PingReply, ReplicaStats,
    RouteStatsReply, ShutdownReply, SnapshotReply, Value, WireError,
};
use bemcap_serve::ServeError;

/// `v` as a peer would see it: serialized to a frame and parsed back.
fn through_text(v: Value) -> Value {
    serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap()
}

fn crossing() -> bemcap_geom::Geometry {
    structures::crossing_wires(CrossingParams::default())
}

fn extraction(method: Method) -> Extraction {
    Extractor::new().method(method).mesh_divisions(4).extract(&crossing()).expect("extract")
}

fn chip_extraction() -> ChipExtraction {
    let geo = structures::bus_crossing(2, 2, BusParams::default());
    ChipExtractor::new(Extractor::new()).windows(2, 2).extract(&geo).expect("chip")
}

/// A queue wait that is not a short decimal, so a lossy codec shows.
const QUEUE_SECONDS: f64 = 0.1 + 0.2;

/// One batch job's result as the batch front end hands it to the codec.
fn point(extraction: Extraction, cache: CacheStats, queue_seconds: f64) -> BatchPoint {
    let job = JobReport { index: 0, worker: 0, seconds: 1.0, queue_seconds, cache };
    BatchPoint { label: "job".into(), parameter: None, extraction, job }
}

const CACHE: CacheStats = CacheStats { hits: 9, misses: 4, evictions: 1, inserted_bytes: 768 };

fn assert_extraction_bits(reply: &ExtractReply, want: &Extraction, cache: &CacheStats) {
    let c = want.capacitance();
    let r = want.report();
    assert_eq!(reply.names, c.names());
    assert_eq!(reply.dim(), c.dim());
    for i in 0..c.dim() {
        for j in 0..c.dim() {
            assert_eq!(reply.get(i, j).to_bits(), c.get(i, j).to_bits(), "C({i},{j})");
        }
    }
    assert_eq!((reply.method.as_str(), reply.n), (r.method.as_str(), r.n));
    assert_eq!((reply.m_templates, reply.workers), (r.m_templates, r.workers));
    assert_eq!(reply.setup_seconds.to_bits(), r.setup_seconds.to_bits());
    assert_eq!(reply.solve_seconds.to_bits(), r.solve_seconds.to_bits());
    assert_eq!(reply.memory_bytes, r.memory_bytes);
    assert_eq!(reply.solver, r.krylov);
    assert_eq!(reply.cache, *cache);
}

#[test]
fn extract_and_batch_results_decode_to_the_engine_bits() {
    let direct = extraction(Method::InstantiableBasis);
    let krylov = extraction(Method::PwcFmm);
    assert!(krylov.report().krylov.is_some(), "the FMM report carries solver counters");
    for want in [&direct, &krylov] {
        let v = through_text(ExtractReply::encode(want, &CACHE, QUEUE_SECONDS));
        let reply = ExtractReply::decode(&v).expect("decode");
        assert_extraction_bits(&reply, want, &CACHE);
        assert_eq!(reply.queue_seconds.to_bits(), QUEUE_SECONDS.to_bits());
    }

    // The shared executor record holds the wait until the frame's first
    // job started.
    let jobs = [
        point(direct, CacheStats::default(), QUEUE_SECONDS + 1.0),
        point(krylov, CACHE, QUEUE_SECONDS),
    ];
    let v = through_text(ExtractReply::encode_batch(&jobs));
    let replies = ExtractReply::decode_batch(&v).expect("batch");
    assert_eq!(replies.len(), 2);
    for (reply, want) in replies.iter().zip(&jobs) {
        assert_extraction_bits(reply, &want.extraction, &want.job.cache);
        assert_eq!(reply.queue_seconds.to_bits(), QUEUE_SECONDS.to_bits(), "shared exec record");
    }

    // An empty frame never reaches the queue: no executor record.
    let v = through_text(ExtractReply::encode_batch(&[]));
    assert!(v.get("exec").is_none());
    let replies = ExtractReply::decode_batch(&v).expect("empty");
    assert!(replies.is_empty());
}

#[test]
fn chip_result_decodes_to_the_engine_bits() {
    let full = chip_extraction();
    let reply = ChipReply::decode(&through_text(ChipReply::encode(&full))).expect("decode");
    let c = full.capacitance();
    let r = full.report();
    assert_eq!((reply.names.as_slice(), reply.dim), (c.names(), c.dim()));
    let want: Vec<(usize, usize, f64)> = c.matrix().iter().collect();
    assert_eq!(reply.nnz(), want.len());
    for (&(i, j, got), &(wi, wj, w)) in reply.entries.iter().zip(&want) {
        assert_eq!((i, j, got.to_bits()), (wi, wj, w.to_bits()));
    }
    assert_eq!((reply.windows, reply.extracted), (r.windows, r.extracted));
    assert_eq!((reply.reused, reply.workers), (r.reused, r.workers));
    assert_eq!(reply.wall_seconds.to_bits(), r.wall_seconds.to_bits());
    assert_eq!(reply.busy_seconds.to_bits(), r.busy_seconds.to_bits());
    assert_eq!(reply.queue_seconds.to_bits(), r.queue_seconds.to_bits());
    assert_eq!((reply.cache, reply.window_cache), (r.template_cache, r.window_cache));
}

fn stats_sample() -> DaemonStats {
    DaemonStats {
        cache: CACHE,
        cache_entries: 12,
        cache_resident_bytes: 2304,
        cache_max_bytes: Some(64 << 20),
        uptime_seconds: 1.0 / 3.0,
        requests: 41,
        connections: 3,
        workers: 2,
        queue_depth: 256,
        queued: 1,
        running: 2,
        exec: ExecStats { submitted: 9, rejected: 1, jobs: 11, queue_seconds: 0.125 },
        window_cache: CacheStats { hits: 2, misses: 4, evictions: 0, inserted_bytes: 1200 },
        window_cache_entries: 4,
        window_cache_resident_bytes: 1200,
        window_cache_max_bytes: None,
    }
}

fn route_stats_sample() -> RouteStatsReply {
    let replica = |addr: &str, healthy| ReplicaStats {
        addr: addr.into(),
        healthy,
        consecutive_failures: u64::from(!healthy) * 3,
        requests: 17,
        errors: 2,
        pooled: 1,
    };
    RouteStatsReply {
        replicas: vec![replica("127.0.0.1:4545", true), replica("127.0.0.1:4546", false)],
        healthy: 1,
        proxied: 30,
        failovers: 2,
        upstream_errors: 1,
        ejections: 1,
        readmissions: 0,
        uptime_seconds: 12.5e-3,
        requests: 35,
    }
}

fn metrics_sample() -> MetricsReply {
    MetricsReply {
        text: "# HELP a_total A.\n# TYPE a_total counter\na_total 3\n".into(),
        counters: vec![("a_total".into(), 3), ("b_total".into(), 1 << 40)],
        gauges: vec![("c".into(), 0)],
    }
}

fn ping_sample(router: bool) -> PingReply {
    PingReply { proto: 6, version: "0.1.0".into(), router }
}

fn snapshot_sample() -> SnapshotReply {
    SnapshotReply { path: "/var/tmp/warm.snap".into(), entries: 1311, bytes: 202_248 }
}

#[test]
fn control_replies_round_trip_through_the_wire_text() {
    let stats = stats_sample();
    assert_eq!(DaemonStats::decode(&through_text(stats.encode())).unwrap(), stats);
    let bounded = DaemonStats { window_cache_max_bytes: Some(1 << 20), ..stats };
    assert_eq!(DaemonStats::decode(&through_text(bounded.encode())).unwrap(), bounded);

    let routes = route_stats_sample();
    assert_eq!(RouteStatsReply::decode(&through_text(routes.encode())).unwrap(), routes);

    let metrics = metrics_sample();
    assert_eq!(MetricsReply::decode(&through_text(metrics.encode())).unwrap(), metrics);
    assert_eq!((metrics.counter("b_total"), metrics.gauge("c")), (Some(1 << 40), Some(0)));

    for pong in [ping_sample(false), ping_sample(true)] {
        assert_eq!(PingReply::decode(&through_text(pong.encode())).unwrap(), pong);
    }
    // A daemon's pong carries no `router` field at all.
    assert!(ping_sample(false).encode().get("router").is_none());

    let snapshot = snapshot_sample();
    assert_eq!(SnapshotReply::decode(&through_text(snapshot.encode())).unwrap(), snapshot);
    assert_eq!(
        ShutdownReply::decode(&through_text(ShutdownReply.encode())).unwrap(),
        ShutdownReply
    );
}

type Decoder = fn(&Value) -> Result<(), WireError>;

/// One reply shape of the corpus: a valid encoded sample, its decoder,
/// and the paths whose removal the decoder tolerates: fields v8 sends as
/// null or may leave out, and metric-map entries.
struct Shape {
    name: &'static str,
    sample: Value,
    decode: Decoder,
    optional: &'static [&'static str],
}

/// Derived fields: emitted for readers of the raw frame, recomputed from
/// the counters by a client, so no decoder reads them.
const DERIVED: [&str; 1] = ["hit_rate"];

fn shapes() -> Vec<Shape> {
    let job = point(extraction(Method::PwcFmm), CACHE, QUEUE_SECONDS);
    vec![
        Shape {
            name: "extract",
            sample: ExtractReply::encode(&job.extraction, &job.job.cache, QUEUE_SECONDS),
            decode: |v| ExtractReply::decode(v).map(drop),
            optional: &["report.m_templates", "report.solver"],
        },
        Shape {
            name: "batch",
            sample: ExtractReply::encode_batch(std::slice::from_ref(&job)),
            decode: |v| ExtractReply::decode_batch(v).map(drop),
            optional: &["results[].report.m_templates", "results[].report.solver"],
        },
        Shape {
            name: "chip",
            sample: ChipReply::encode(&chip_extraction()),
            decode: |v| ChipReply::decode(v).map(drop),
            optional: &[],
        },
        Shape {
            name: "stats",
            sample: stats_sample().encode(),
            decode: |v| DaemonStats::decode(v).map(drop),
            optional: &["cache_max_bytes", "window_cache_max_bytes"],
        },
        Shape {
            name: "route_stats",
            sample: route_stats_sample().encode(),
            decode: |v| RouteStatsReply::decode(v).map(drop),
            optional: &[],
        },
        Shape {
            name: "metrics",
            sample: metrics_sample().encode(),
            decode: |v| MetricsReply::decode(v).map(drop),
            optional: &["counters.a_total", "counters.b_total", "gauges.c"],
        },
        Shape {
            name: "ping",
            sample: ping_sample(true).encode(),
            decode: |v| PingReply::decode(v).map(drop),
            optional: &["router"],
        },
        Shape {
            name: "snapshot",
            sample: snapshot_sample().encode(),
            decode: |v| SnapshotReply::decode(v).map(drop),
            optional: &[],
        },
        Shape {
            name: "shutdown",
            sample: ShutdownReply.encode(),
            decode: |v| ShutdownReply::decode(v).map(drop),
            optional: &[],
        },
    ]
}

/// A value of a different JSON kind than `v`.
fn retyped(v: &Value) -> Value {
    match v {
        Value::Null | Value::Number(_) | Value::Object(_) | Value::Array(_) => {
            Value::String("x".into())
        }
        Value::Bool(_) | Value::String(_) => Value::Number(1.0),
    }
}

/// Every single-field mutation of `v`: `(path, removed, mutated copy)`.
/// Object fields are removed or retyped; arrays have their first element
/// retyped; both recurse.
fn mutations(v: &Value, path: &str) -> Vec<(String, bool, Value)> {
    let mut out = Vec::new();
    match v {
        Value::Object(entries) => {
            for (k, (key, child)) in entries.iter().enumerate() {
                let at = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                let with = |child: Value| {
                    let mut copy = entries.clone();
                    copy[k].1 = child;
                    Value::Object(copy)
                };
                let mut removed = entries.clone();
                removed.remove(k);
                out.push((at.clone(), true, Value::Object(removed)));
                out.push((at.clone(), false, with(retyped(child))));
                for (sub, gone, edited) in mutations(child, &at) {
                    out.push((sub, gone, with(edited)));
                }
            }
        }
        Value::Array(items) if !items.is_empty() => {
            let at = format!("{path}[]");
            let with = |first: Value| {
                let mut copy = items.clone();
                copy[0] = first;
                Value::Array(copy)
            };
            out.push((at.clone(), false, with(retyped(&items[0]))));
            for (sub, gone, edited) in mutations(&items[0], &at) {
                out.push((sub, gone, with(edited)));
            }
        }
        _ => {}
    }
    out
}

fn assert_protocol_error(result: Result<(), WireError>, context: &str) {
    match result.map_err(ServeError::from) {
        Err(ServeError::Protocol(_)) => {}
        other => panic!("{context}: expected a protocol error, got {other:?}"),
    }
}

#[test]
fn hostile_replies_are_protocol_errors_never_panics() {
    for shape in shapes() {
        let name = shape.name;
        (shape.decode)(&shape.sample).unwrap_or_else(|e| panic!("{name}: valid sample: {e:?}"));
        for bad in
            [Value::Null, Value::Number(3.0), Value::String("{}".into()), Value::Array(vec![])]
        {
            assert_protocol_error((shape.decode)(&bad), &format!("{name}: result {bad:?}"));
        }
        let mut checked = 0;
        for (path, removed, mutated) in mutations(&shape.sample, "") {
            let leaf = path.rsplit('.').next().unwrap_or(&path);
            let result = (shape.decode)(&mutated);
            if DERIVED.contains(&leaf) {
                continue;
            }
            if removed && shape.optional.contains(&path.as_str()) {
                result.unwrap_or_else(|e| panic!("{name}: optional '{path}' removed: {e:?}"));
            } else {
                let what = if removed { "removed" } else { "retyped" };
                assert_protocol_error(result, &format!("{name}: '{path}' {what}"));
                checked += 1;
            }
        }
        assert!(checked >= 2, "{name}: only {checked} mutations checked");
    }
}

/// Decodes `sample` after `edit`, expecting a protocol error.
fn assert_rejects(sample: &Value, decode: Decoder, context: &str, edit: impl FnOnce(&mut Value)) {
    let mut v = sample.clone();
    edit(&mut v);
    assert_protocol_error(decode(&v), context);
}

/// The field `key` of an object, mutably.
fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Object(entries) => &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1,
        other => panic!("not an object: {other:?}"),
    }
}

fn items(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Array(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

#[test]
fn shape_mismatches_are_protocol_errors() {
    let extract: Decoder = |v| ExtractReply::decode(v).map(drop);
    let sample =
        ExtractReply::encode(&extraction(Method::InstantiableBasis), &CACHE, QUEUE_SECONDS);
    assert_rejects(&sample, extract, "a name too few", |v| {
        items(field(v, "names")).pop();
    });
    assert_rejects(&sample, extract, "an extra row", |v| {
        let rows = items(field(v, "matrix"));
        rows.push(rows[0].clone());
    });
    assert_rejects(&sample, extract, "a short row", |v| {
        items(&mut items(field(v, "matrix"))[1]).pop();
    });
    assert_rejects(&sample, extract, "a report without workers", |v| {
        let Value::Object(report) = field(v, "report") else { unreachable!() };
        report.retain(|(k, _)| k != "workers");
    });

    let chip: Decoder = |v| ChipReply::decode(v).map(drop);
    let sample = ChipReply::encode(&chip_extraction());
    let dim = sample.get("dim").and_then(Value::as_f64).unwrap();
    let bad_entries: [(&str, Value); 6] = [
        ("a pair", serde_json::json!([0, 0])),
        ("a quadruple", serde_json::json!([0, 0, 1.0, 2])),
        ("a row past dim", serde_json::json!([dim, 0, 1.0])),
        ("a column past dim", serde_json::json!([0, dim, 1.0])),
        ("a fractional index", serde_json::json!([0.5, 0, 1.0])),
        ("a negative index", serde_json::json!([0, (-1), 1.0])),
    ];
    for (what, entry) in bad_entries {
        assert_rejects(&sample, chip, &format!("chip entry: {what}"), |v| {
            items(field(v, "entries"))[0] = entry;
        });
    }
    assert_rejects(&sample, chip, "a name too many", |v| {
        items(field(v, "names")).push(Value::String("extra".into()));
    });
    assert_rejects(&sample, chip, "an nnz that miscounts", |v| {
        items(field(v, "entries")).pop();
    });
}

#[test]
fn hostile_response_envelopes_are_protocol_errors() {
    let result = serde_json::json!({ "stopping": true });
    let frame =
        |ok: Value, id: Value| serde_json::json!({ "id": id, "ok": ok, "result": result.clone() });
    let good = frame(Value::Bool(true), Value::Number(4.0));
    assert_eq!(open_response(good.clone(), Some(4)).unwrap(), result);
    assert_eq!(open_response(good.clone(), None).unwrap(), result);

    let hostile = [
        ("not an object", Value::Array(vec![good.clone()])),
        ("no 'ok'", serde_json::json!({ "id": 4, "result": result.clone() })),
        ("'ok' not a boolean", frame(Value::String("yes".into()), Value::Number(4.0))),
        ("id mismatch", frame(Value::Bool(true), Value::Number(5.0))),
        ("id missing", frame(Value::Bool(true), Value::Null)),
        ("no 'result'", serde_json::json!({ "id": 4, "ok": true })),
    ];
    for (what, response) in hostile {
        match open_response(response, Some(4)) {
            Err(ServeError::Protocol(_)) => {}
            other => panic!("{what}: expected a protocol error, got {other:?}"),
        }
    }

    // Error frames are the peer's verdict, with defaults for a bare one.
    let err = serde_json::json!({ "id": 4, "ok": false, "error": serde_json::json!({ "code": "busy", "message": "m" }) });
    match open_response(err, Some(4)) {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!((code.as_str(), message.as_str()), ("busy", "m"))
        }
        other => panic!("expected the remote error, got {other:?}"),
    }
    match open_response(serde_json::json!({ "ok": false, "error": 7 }), None) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, "unknown"),
        other => panic!("expected a remote error, got {other:?}"),
    }
}
