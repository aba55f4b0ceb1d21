//! The `bemcapd` wire protocol: newline-delimited JSON frames.
//!
//! One request per line, one response per line, in order, over a plain
//! TCP stream — trivially scriptable (`nc`, shell, any language with a
//! socket and a JSON parser) and cheap to parse with the vendored
//! `serde_json` stub. The full field reference lives in
//! `docs/WIRE_PROTOCOL.md`; this module is the single implementation of
//! encode and decode, used by both the daemon and the client library so
//! the two cannot drift.
//!
//! Requests carry geometry in the `bemcap_geom::io` text format (embedded
//! as one JSON string). Responses carry capacitance matrices as `f64`
//! arrays serialized with Rust's shortest-round-trip formatting, so a
//! value decoded by the client is **bit-identical** to the `f64` the
//! engine produced — the property behind the daemon's determinism tests.

use bemcap_core::metrics::{MetricKind, Registry};
use bemcap_core::{
    CacheStats, ExecStats, Extractor, FmmConfig, KrylovConfig, Method, PfftConfig, PrecondKind,
    SolverStats,
};
use serde_json::{json, Value};

/// Protocol revision, reported by the `ping` op. Bump on any change to
/// the frame shapes. Version 2 added the `batch` op, the `busy` error
/// code, the per-request `exec` record, and the executor-queue `stats`
/// fields — all additive, so version-1 frames still decode. Note the
/// version-1 client library's `ping` probe enforced exact equality and
/// therefore refuses a v2 daemon; from v2 on, clients accept any daemon
/// speaking at least their own version.
///
/// Version 3 (additive): `extract`/`batch` accept the `auto` method and
/// typed backend configuration fields (`fmm`, `pfft`, `krylov`,
/// `precond`, `auto_budget`); result `report`s carry `workers` and, for
/// iterative backends, a `solver` record (iterations, restarts,
/// residual). Version-2 frames still decode unchanged.
///
/// Version 4 (additive): the `chip` op — full-chip windowed extraction.
/// A `chip` request carries one geometry, the shared solver-option
/// fields, an optional `windows` `[nx, ny]` grid (default `[2, 2]`) and
/// an optional `halo` margin; the result is a *sparse* chip matrix
/// (`entries` triplets instead of a dense `matrix`), a windowing
/// `report`, and the daemon's window-cache counters. The daemon `stats`
/// response gains a `window_cache` section. Version-3 frames still
/// decode unchanged; pre-v4 daemons answer `chip` with a `bad-request`
/// error, so clients fail loudly instead of degrading.
///
/// Version 5 (additive): the `metrics` op — a scrape of the daemon's
/// process-lifetime observability counters. The result carries the
/// Prometheus text exposition (`text`) plus the same samples as
/// structured JSON (`counters` / `gauges` objects mapping metric name
/// to value). Also adds the `internal` error code for daemon-side
/// invariant violations that previously killed the connection thread.
/// Version-4 frames still decode unchanged; pre-v5 daemons answer
/// `metrics` with a `bad-request` error.
///
/// Version 6 (additive): the front-tier revision. Adds the `snapshot`
/// op (the daemon writes its pair-integral cache to a file the
/// `--cache-restore` flag reads back at the next start), the
/// `route_stats` op (answered by the `bemcaprd` router with replica
/// health and shard distribution; plain daemons answer `bad-request`),
/// and the `upstream` error code (the router exhausted every replica
/// for a request — connection-level failures only, structured backend
/// errors always pass through verbatim). Version-5 frames still decode
/// unchanged; pre-v6 daemons answer `snapshot` with a `bad-request`
/// error, so deploy tooling fails loudly instead of skipping the warm
/// handoff silently.
pub const PROTOCOL_VERSION: u64 = 6;

/// Machine-readable error codes of structured error responses.
pub mod codes {
    /// The request line is not valid JSON.
    pub const PARSE: &str = "parse";
    /// The request line is valid JSON but not a valid request (unknown
    /// op, missing or mistyped field).
    pub const BAD_REQUEST: &str = "bad-request";
    /// The embedded geometry failed to parse or is degenerate.
    pub const GEOMETRY: &str = "geometry";
    /// The extraction itself failed.
    pub const EXTRACTION: &str = "extraction";
    /// The request frame exceeded the daemon's size limit.
    pub const OVERSIZED: &str = "oversized";
    /// The request frame is not valid UTF-8.
    pub const UTF8: &str = "utf8";
    /// The daemon's execution queue is full; nothing was executed.
    /// Retry later (structured backpressure, not a failure of the
    /// request itself).
    pub const BUSY: &str = "busy";
    /// A daemon-side invariant broke while building the response (v5).
    /// The request was well-formed; the failure is a daemon bug worth
    /// reporting — but it stays a structured response, never a dropped
    /// connection.
    pub const INTERNAL: &str = "internal";
    /// The router could not reach any replica for this request (v6):
    /// every connection attempt failed at the transport level. Only the
    /// `bemcaprd` front tier emits it — a structured error produced *by*
    /// a replica (`busy`, `geometry`, ...) is relayed verbatim, never
    /// rewritten into this code.
    pub const UPSTREAM: &str = "upstream";
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Extract the capacitance matrix of one geometry.
    Extract {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<u64>,
        /// Geometry in the `bemcap_geom::io` text format.
        geometry: String,
        /// Solver configuration.
        options: ExtractOptions,
    },
    /// Extract many geometries under one solver configuration in a
    /// single frame — they run as one executor submission (one
    /// micro-batch), amortizing engine setup and queue slots.
    Batch {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<u64>,
        /// Geometries in the `bemcap_geom::io` text format, answered in
        /// this order.
        geometries: Vec<String>,
        /// Solver configuration, shared by every geometry in the frame.
        options: ExtractOptions,
    },
    /// Full-chip windowed extraction (v4): partition the geometry into
    /// an overlapping window grid, extract every window on the daemon's
    /// shared executor (reusing its process-lifetime window cache), and
    /// answer with the stitched sparse chip matrix.
    Chip {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<u64>,
        /// Geometry in the `bemcap_geom::io` text format.
        geometry: String,
        /// Solver configuration, shared by every window.
        options: ExtractOptions,
        /// Window grid columns (wire field `windows: [nx, ny]`).
        nx: usize,
        /// Window grid rows.
        ny: usize,
        /// Halo margin around each core tile in layout units
        /// (`None` = the partitioner's default).
        halo: Option<f64>,
    },
    /// Liveness / version probe.
    Ping {
        /// Echoed correlation id.
        id: Option<u64>,
    },
    /// Daemon-level statistics (cache residency, lifetime counters).
    Stats {
        /// Echoed correlation id.
        id: Option<u64>,
    },
    /// Write the daemon's pair-integral cache to a file (v6) in the
    /// versioned text format of `bemcap_core::cache` — the warm-restart
    /// seam: a later daemon started with `--cache-restore <path>` begins
    /// life with these entries resident.
    Snapshot {
        /// Echoed correlation id.
        id: Option<u64>,
        /// Daemon-side filesystem path to write (created or truncated).
        path: String,
    },
    /// Router-level statistics (v6): replica health, per-replica
    /// request/error counts, failover and ejection counters. Answered
    /// by the `bemcaprd` front tier; a plain daemon answers
    /// `bad-request`, which is how clients tell the two apart.
    RouteStats {
        /// Echoed correlation id.
        id: Option<u64>,
    },
    /// Scrape of the process-lifetime observability metrics (v5):
    /// Prometheus text exposition plus structured counter/gauge maps.
    Metrics {
        /// Echoed correlation id.
        id: Option<u64>,
    },
    /// Ask the daemon to stop accepting connections and exit cleanly.
    Shutdown {
        /// Echoed correlation id.
        id: Option<u64>,
    },
}

/// Solver configuration of an `extract` request. Every field has a
/// server-side default, so `{"op":"extract","geometry":"..."}` is a
/// complete request. The typed backend fields (v3) are optional and
/// additive: `None` means "the extractor's default", exactly as if the
/// field were absent from the frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtractOptions {
    /// Solver backend (default [`Method::InstantiableBasis`]).
    pub method: Method,
    /// §4.2.3 tabulated-primitive acceleration (default off).
    pub accelerated: bool,
    /// Mesh resolution for the piecewise-constant backends
    /// (`None` = the extractor's default).
    pub mesh_divisions: Option<usize>,
    /// Multipole operator tuning (v3).
    pub fmm: Option<FmmConfig>,
    /// Precorrected-FFT operator tuning (v3).
    pub pfft: Option<PfftConfig>,
    /// Iterative caps shared by the Krylov backends (v3).
    pub krylov: Option<KrylovConfig>,
    /// Preconditioner choice for the Krylov backends (v3).
    pub precond: Option<PrecondKind>,
    /// `auto` method memory budget in bytes (v3).
    pub auto_budget: Option<usize>,
}

impl Default for ExtractOptions {
    fn default() -> ExtractOptions {
        ExtractOptions {
            method: Method::InstantiableBasis,
            accelerated: false,
            mesh_divisions: None,
            fmm: None,
            pfft: None,
            krylov: None,
            precond: None,
            auto_budget: None,
        }
    }
}

/// Builds the extractor a request's solver options describe, including
/// the v3 typed backend configurations. Unset fields keep the
/// extractor's defaults, so a v2 frame builds exactly the extractor it
/// always did. The daemon uses it to execute requests; the `bemcaprd`
/// router uses it to compute the same `config_digest` the daemon would,
/// which is what makes digest-affinity routing line up with the
/// backend's coalescing and cache identity.
pub fn build_extractor(options: &ExtractOptions) -> Extractor {
    let mut extractor = Extractor::new().method(options.method).accelerated(options.accelerated);
    if let Some(d) = options.mesh_divisions {
        extractor = extractor.mesh_divisions(d);
    }
    if let Some(f) = options.fmm {
        extractor = extractor.fmm_config(f);
    }
    if let Some(p) = options.pfft {
        extractor = extractor.pfft_config(p);
    }
    if let Some(k) = options.krylov {
        extractor = extractor.krylov_config(k);
    }
    if let Some(p) = options.precond {
        extractor = extractor.preconditioner(p);
    }
    if let Some(b) = options.auto_budget {
        extractor = extractor.auto_memory_budget(b);
    }
    extractor
}

/// A request decode failure, carrying the error code the daemon should
/// answer with and the request id when it was recoverable (so error
/// responses can still echo it for client-side correlation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// The request's correlation id, when it could be parsed before the
    /// error (always `None` for [`codes::PARSE`] failures).
    pub id: Option<u64>,
}

impl WireError {
    fn bad(message: impl Into<String>) -> WireError {
        WireError { code: codes::BAD_REQUEST, message: message.into(), id: None }
    }

    fn with_id(mut self, id: Option<u64>) -> WireError {
        self.id = id;
        self
    }
}

/// The wire name of a [`Method`] (matches the `method` strings of
/// extraction reports; `auto` resolves server-side, so reports never
/// carry it back).
pub fn method_name(method: Method) -> &'static str {
    match method {
        Method::InstantiableBasis => "instantiable",
        Method::PwcDense => "pwc-dense",
        Method::PwcFmm => "pwc-fmm",
        Method::PwcPfft => "pwc-pfft",
        Method::Auto => "auto",
    }
}

/// Parses a wire method name.
pub fn parse_method(name: &str) -> Option<Method> {
    match name {
        "instantiable" => Some(Method::InstantiableBasis),
        "pwc-dense" => Some(Method::PwcDense),
        "pwc-fmm" => Some(Method::PwcFmm),
        "pwc-pfft" => Some(Method::PwcPfft),
        "auto" => Some(Method::Auto),
        _ => None,
    }
}

fn id_of(v: &Value) -> Result<Option<u64>, WireError> {
    match v.get("id") {
        None => Ok(None),
        Some(Value::Null) => Ok(None),
        Some(id) => id
            .as_u64()
            .map(Some)
            .ok_or_else(|| WireError::bad("'id' must be a non-negative integer")),
    }
}

/// Decodes one request line. Unknown top-level fields are ignored for
/// forward compatibility; unknown ops and mistyped fields are errors.
///
/// # Errors
///
/// [`WireError`] with code [`codes::PARSE`] for invalid JSON,
/// [`codes::BAD_REQUEST`] for a well-formed but invalid request.
pub fn decode_request(line: &str) -> Result<Request, WireError> {
    let v = serde_json::from_str(line).map_err(|e| WireError {
        code: codes::PARSE,
        message: e.to_string(),
        id: None,
    })?;
    let id = id_of(&v)?;
    decode_op(&v, id).map_err(|e| e.with_id(id))
}

fn decode_op(v: &Value, id: Option<u64>) -> Result<Request, WireError> {
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| WireError::bad("request needs a string 'op' field"))?;
    match op {
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats { id }),
        "metrics" => Ok(Request::Metrics { id }),
        "route_stats" => Ok(Request::RouteStats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "snapshot" => {
            let path = v
                .get("path")
                .and_then(Value::as_str)
                .filter(|p| !p.is_empty())
                .ok_or_else(|| WireError::bad("'snapshot' needs a non-empty string 'path' field"))?
                .to_string();
            Ok(Request::Snapshot { id, path })
        }
        "extract" => {
            let geometry = v
                .get("geometry")
                .and_then(Value::as_str)
                .ok_or_else(|| WireError::bad("'extract' needs a string 'geometry' field"))?
                .to_string();
            Ok(Request::Extract { id, geometry, options: decode_options(v)? })
        }
        "batch" => {
            let entries = v
                .get("geometries")
                .and_then(Value::as_array)
                .ok_or_else(|| WireError::bad("'batch' needs a 'geometries' array field"))?;
            let geometries: Vec<String> = entries
                .iter()
                .map(|g| g.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or_else(|| WireError::bad("'geometries' entries must be strings"))?;
            Ok(Request::Batch { id, geometries, options: decode_options(v)? })
        }
        "chip" => {
            let geometry = v
                .get("geometry")
                .and_then(Value::as_str)
                .ok_or_else(|| WireError::bad("'chip' needs a string 'geometry' field"))?
                .to_string();
            let (nx, ny) = decode_window_grid(v)?;
            let halo =
                match v.get("halo").filter(|h| !h.is_null()) {
                    None => None,
                    Some(h) => Some(h.as_f64().filter(|x| x.is_finite() && *x >= 0.0).ok_or_else(
                        || WireError::bad("'halo' must be a finite non-negative number"),
                    )?),
                };
            Ok(Request::Chip { id, geometry, options: decode_options(v)?, nx, ny, halo })
        }
        other => Err(WireError::bad(format!(
            "unknown op '{other}' (expected extract, batch, chip, ping, stats, \
             metrics, route_stats, snapshot or shutdown)"
        ))),
    }
}

/// Decodes a `chip` request's optional `windows: [nx, ny]` field
/// (default `[2, 2]`, matching the engine's default partition).
fn decode_window_grid(v: &Value) -> Result<(usize, usize), WireError> {
    let Some(w) = v.get("windows").filter(|w| !w.is_null()) else {
        return Ok((2, 2));
    };
    let entries = w
        .as_array()
        .filter(|entries| entries.len() == 2)
        .ok_or_else(|| WireError::bad("'windows' must be a two-entry [nx, ny] array"))?;
    let grid: Vec<usize> = entries
        .iter()
        .map(|n| n.as_u64().filter(|&n| n > 0).map(|n| n as usize))
        .collect::<Option<_>>()
        .ok_or_else(|| WireError::bad("'windows' entries must be positive integers"))?;
    Ok((grid[0], grid[1]))
}

fn obj_f64(v: &Value, ctx: &str, name: &str) -> Result<f64, WireError> {
    v.get(name)
        .and_then(Value::as_f64)
        .ok_or_else(|| WireError::bad(format!("'{ctx}' needs a number '{name}' field")))
}

fn obj_uint(v: &Value, ctx: &str, name: &str) -> Result<usize, WireError> {
    v.get(name)
        .and_then(Value::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| WireError::bad(format!("'{ctx}' needs a non-negative integer '{name}'")))
}

/// Decodes the shared solver-option fields of `extract` and `batch`
/// requests. Optional fields: absent and null both mean "use the
/// default" (the encoder emits null for unset options).
fn decode_options(v: &Value) -> Result<ExtractOptions, WireError> {
    let mut options = ExtractOptions::default();
    if let Some(m) = v.get("method").filter(|m| !m.is_null()) {
        let name = m.as_str().ok_or_else(|| WireError::bad("'method' must be a string"))?;
        options.method = parse_method(name).ok_or_else(|| {
            WireError::bad(format!(
                "unknown method '{name}' \
                 (expected instantiable, pwc-dense, pwc-fmm, pwc-pfft or auto)"
            ))
        })?;
    }
    if let Some(a) = v.get("accelerated").filter(|a| !a.is_null()) {
        options.accelerated =
            a.as_bool().ok_or_else(|| WireError::bad("'accelerated' must be a boolean"))?;
    }
    if let Some(d) = v.get("mesh_divisions").filter(|d| !d.is_null()) {
        let n = d
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or_else(|| WireError::bad("'mesh_divisions' must be a positive integer"))?;
        options.mesh_divisions = Some(n as usize);
    }
    if let Some(f) = v.get("fmm").filter(|f| !f.is_null()) {
        options.fmm = Some(FmmConfig {
            theta: obj_f64(f, "fmm", "theta")?,
            leaf_size: obj_uint(f, "fmm", "leaf_size")?,
        });
    }
    if let Some(p) = v.get("pfft").filter(|p| !p.is_null()) {
        options.pfft = Some(PfftConfig {
            spacing_factor: obj_f64(p, "pfft", "spacing_factor")?,
            near_cells: obj_uint(p, "pfft", "near_cells")?,
            max_grid_points: obj_uint(p, "pfft", "max_grid_points")?,
        });
    }
    if let Some(k) = v.get("krylov").filter(|k| !k.is_null()) {
        options.krylov = Some(KrylovConfig {
            tol: obj_f64(k, "krylov", "tol")?,
            restart: obj_uint(k, "krylov", "restart")?,
            max_iters: obj_uint(k, "krylov", "max_iters")?,
        });
    }
    if let Some(p) = v.get("precond").filter(|p| !p.is_null()) {
        options.precond = Some(match p {
            Value::String(s) if s == "identity" => PrecondKind::Identity,
            Value::String(s) if s == "diagonal" => PrecondKind::Diagonal,
            obj => match obj.get("block_jacobi").and_then(Value::as_u64) {
                Some(block) if block > 0 => PrecondKind::BlockJacobi { block: block as usize },
                _ => {
                    return Err(WireError::bad(
                        "'precond' must be \"identity\", \"diagonal\" \
                         or {\"block_jacobi\": <positive block size>}",
                    ))
                }
            },
        });
    }
    if let Some(b) = v.get("auto_budget").filter(|b| !b.is_null()) {
        let bytes = b
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or_else(|| WireError::bad("'auto_budget' must be a positive byte count"))?;
        options.auto_budget = Some(bytes as usize);
    }
    Ok(options)
}

fn precond_value(precond: Option<PrecondKind>) -> Value {
    match precond {
        None => Value::Null,
        Some(PrecondKind::Identity) => Value::String("identity".into()),
        Some(PrecondKind::Diagonal) => Value::String("diagonal".into()),
        Some(PrecondKind::BlockJacobi { block }) => json!({ "block_jacobi": block }),
    }
}

/// Appends the v3 typed backend option fields to an encoded request
/// object (null when unset, mirroring the decoder's "absent = default").
fn push_backend_options(v: &mut Value, options: &ExtractOptions) {
    let Value::Object(entries) = v else { return };
    entries.push((
        "fmm".into(),
        options.fmm.map_or(Value::Null, |f| json!({ "theta": f.theta, "leaf_size": f.leaf_size })),
    ));
    entries.push((
        "pfft".into(),
        options.pfft.map_or(Value::Null, |p| {
            json!({
                "spacing_factor": p.spacing_factor,
                "near_cells": p.near_cells,
                "max_grid_points": p.max_grid_points,
            })
        }),
    ));
    entries.push((
        "krylov".into(),
        options.krylov.map_or(
            Value::Null,
            |k| json!({ "tol": k.tol, "restart": k.restart, "max_iters": k.max_iters }),
        ),
    ));
    entries.push(("precond".into(), precond_value(options.precond)));
    entries.push(("auto_budget".into(), options.auto_budget.map_or(Value::Null, |b| json!(b))));
}

/// Encodes a request as one frame line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    let v = match req {
        Request::Ping { id } => json!({ "op": "ping", "id": *id }),
        Request::Stats { id } => json!({ "op": "stats", "id": *id }),
        Request::Metrics { id } => json!({ "op": "metrics", "id": *id }),
        Request::RouteStats { id } => json!({ "op": "route_stats", "id": *id }),
        Request::Shutdown { id } => json!({ "op": "shutdown", "id": *id }),
        Request::Snapshot { id, path } => {
            json!({ "op": "snapshot", "id": *id, "path": path.as_str() })
        }
        Request::Extract { id, geometry, options } => {
            let mut v = json!({
                "op": "extract",
                "id": *id,
                "geometry": geometry.as_str(),
                "method": method_name(options.method),
                "accelerated": options.accelerated,
                "mesh_divisions": options.mesh_divisions,
            });
            push_backend_options(&mut v, options);
            v
        }
        Request::Batch { id, geometries, options } => {
            let mut v = json!({
                "op": "batch",
                "id": *id,
                "geometries": Value::Array(
                    geometries.iter().map(|g| Value::String(g.clone())).collect()
                ),
                "method": method_name(options.method),
                "accelerated": options.accelerated,
                "mesh_divisions": options.mesh_divisions,
            });
            push_backend_options(&mut v, options);
            v
        }
        Request::Chip { id, geometry, options, nx, ny, halo } => {
            let mut v = json!({
                "op": "chip",
                "id": *id,
                "geometry": geometry.as_str(),
                "windows": Value::Array(vec![
                    Value::Number(*nx as f64),
                    Value::Number(*ny as f64),
                ]),
                "halo": halo.map_or(Value::Null, Value::Number),
                "method": method_name(options.method),
                "accelerated": options.accelerated,
                "mesh_divisions": options.mesh_divisions,
            });
            push_backend_options(&mut v, options);
            v
        }
    };
    serde_json::to_string(&v).expect("stub serializer is infallible")
}

fn id_value(id: Option<u64>) -> Value {
    id.map_or(Value::Null, |n| Value::Number(n as f64))
}

/// Encodes a success response frame around `result`.
pub fn ok_response(id: Option<u64>, result: Value) -> String {
    let v = json!({ "id": id_value(id), "ok": true, "result": result });
    serde_json::to_string(&v).expect("stub serializer is infallible")
}

/// Encodes a structured error response frame.
pub fn error_response(id: Option<u64>, code: &str, message: &str) -> String {
    let v = json!({
        "id": id_value(id),
        "ok": false,
        "error": json!({ "code": code, "message": message }),
    });
    serde_json::to_string(&v).expect("stub serializer is infallible")
}

/// Serializes cache counters for a response body.
pub fn cache_stats_value(stats: &CacheStats) -> Value {
    json!({
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "inserted_bytes": stats.inserted_bytes,
        "hit_rate": stats.hit_rate(),
    })
}

/// Decodes cache counters from a response body.
///
/// # Errors
///
/// [`WireError`] with [`codes::BAD_REQUEST`] when a field is missing or
/// mistyped.
pub fn cache_stats_from_value(v: &Value) -> Result<CacheStats, WireError> {
    let field = |name: &str| {
        v.get(name)
            .and_then(Value::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| WireError::bad(format!("cache stats missing '{name}'")))
    };
    Ok(CacheStats {
        hits: field("hits")?,
        misses: field("misses")?,
        evictions: field("evictions")?,
        inserted_bytes: field("inserted_bytes")?,
    })
}

/// Serializes iterative-solver counters for a response `report` (v3).
pub fn solver_stats_value(stats: &SolverStats) -> Value {
    json!({
        "iterations": stats.iterations,
        "restarts": stats.restarts,
        "residual": stats.residual,
    })
}

/// Decodes iterative-solver counters from a response `report`.
///
/// # Errors
///
/// [`WireError`] with [`codes::BAD_REQUEST`] when a field is missing or
/// mistyped.
pub fn solver_stats_from_value(v: &Value) -> Result<SolverStats, WireError> {
    Ok(SolverStats {
        iterations: obj_uint(v, "solver", "iterations")?,
        restarts: obj_uint(v, "solver", "restarts")?,
        residual: obj_f64(v, "solver", "residual")?,
    })
}

/// The v5 `metrics` result: the whole global registry as the Prometheus
/// text exposition plus structured counter and gauge maps.
pub fn metrics_value() -> Value {
    let registry = Registry::global();
    let mut counters: Vec<(String, Value)> = Vec::new();
    let mut gauges: Vec<(String, Value)> = Vec::new();
    for s in registry.snapshot() {
        let pair = (s.name.to_string(), Value::Number(s.value as f64));
        match s.kind {
            MetricKind::Counter => counters.push(pair),
            MetricKind::Gauge => gauges.push(pair),
        }
    }
    json!({
        "text": registry.render_prometheus(),
        "counters": Value::Object(counters),
        "gauges": Value::Object(gauges),
    })
}

/// Serializes executor counters for a response body.
pub fn exec_stats_value(stats: &ExecStats) -> Value {
    json!({
        "submitted": stats.submitted,
        "rejected": stats.rejected,
        "coalesced": stats.coalesced,
        "micro_batches": stats.micro_batches,
        "jobs": stats.jobs,
        "queue_seconds": stats.queue_seconds,
        "coalescing_ratio": stats.coalescing_ratio(),
    })
}

/// Decodes executor counters from a response body.
///
/// # Errors
///
/// [`WireError`] with [`codes::BAD_REQUEST`] when a field is missing or
/// mistyped.
pub fn exec_stats_from_value(v: &Value) -> Result<ExecStats, WireError> {
    let field = |name: &str| {
        v.get(name)
            .and_then(Value::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| WireError::bad(format!("exec stats missing '{name}'")))
    };
    Ok(ExecStats {
        submitted: field("submitted")?,
        rejected: field("rejected")?,
        coalesced: field("coalesced")?,
        micro_batches: field("micro_batches")?,
        jobs: field("jobs")?,
        queue_seconds: v
            .get("queue_seconds")
            .and_then(Value::as_f64)
            .ok_or_else(|| WireError::bad("exec stats missing 'queue_seconds'"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Ping { id: Some(7) },
            Request::Stats { id: None },
            Request::Metrics { id: Some(11) },
            Request::Metrics { id: None },
            Request::RouteStats { id: Some(12) },
            Request::RouteStats { id: None },
            Request::Snapshot { id: Some(13), path: "/tmp/cache.snap".into() },
            Request::Snapshot { id: None, path: "relative/path.snap".into() },
            Request::Shutdown { id: Some(0) },
            Request::Extract {
                id: Some(3),
                geometry: "conductor a\nbox 0 0 0 1 1 1\n".into(),
                options: ExtractOptions {
                    method: Method::PwcDense,
                    accelerated: true,
                    mesh_divisions: Some(6),
                    ..Default::default()
                },
            },
            Request::Extract {
                id: Some(8),
                geometry: "conductor a\nbox 0 0 0 1 1 1\n".into(),
                options: ExtractOptions {
                    method: Method::Auto,
                    mesh_divisions: Some(5),
                    fmm: Some(FmmConfig { theta: 0.3, leaf_size: 9 }),
                    pfft: Some(PfftConfig {
                        spacing_factor: 1.25,
                        near_cells: 3,
                        max_grid_points: 1 << 20,
                    }),
                    krylov: Some(KrylovConfig { tol: 1e-8, restart: 25, max_iters: 900 }),
                    precond: Some(PrecondKind::BlockJacobi { block: 12 }),
                    auto_budget: Some(64 << 20),
                    ..Default::default()
                },
            },
            Request::Batch {
                id: Some(4),
                geometries: vec![
                    "conductor a\nbox 0 0 0 1 1 1\n".into(),
                    "conductor b\nbox 0 0 0 2 2 2\n".into(),
                ],
                options: ExtractOptions {
                    method: Method::PwcPfft,
                    krylov: Some(KrylovConfig { tol: 1e-7, restart: 30, max_iters: 500 }),
                    precond: Some(PrecondKind::Identity),
                    ..Default::default()
                },
            },
            Request::Batch {
                id: Some(5),
                geometries: vec!["conductor a\nbox 0 0 0 1 1 1\n".into()],
                options: ExtractOptions::default(),
            },
            Request::Chip {
                id: Some(6),
                geometry: "conductor a\nbox 0 0 0 1 1 1\n".into(),
                options: ExtractOptions { method: Method::PwcDense, ..Default::default() },
                nx: 3,
                ny: 2,
                halo: Some(2.5e-6),
            },
            Request::Chip {
                id: None,
                geometry: "conductor a\nbox 0 0 0 1 1 1\n".into(),
                options: ExtractOptions::default(),
                nx: 2,
                ny: 2,
                halo: None,
            },
        ];
        for req in reqs {
            let line = encode_request(&req);
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert_eq!(decode_request(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn backend_config_f64_fields_round_trip_bit_exactly() {
        // Coalescing safety across the wire depends on decoded configs
        // being the very f64s the client sent.
        let tol = f64::from_bits(1.0e-7_f64.to_bits() + 1);
        let req = Request::Extract {
            id: Some(1),
            geometry: "g".into(),
            options: ExtractOptions {
                method: Method::PwcFmm,
                fmm: Some(FmmConfig { theta: 0.45000000000000007, leaf_size: 12 }),
                krylov: Some(KrylovConfig { tol, restart: 40, max_iters: 600 }),
                ..Default::default()
            },
        };
        match decode_request(&encode_request(&req)).unwrap() {
            Request::Extract { options, .. } => {
                assert_eq!(options.fmm.unwrap().theta.to_bits(), 0.45000000000000007_f64.to_bits());
                assert_eq!(options.krylov.unwrap().tol.to_bits(), tol.to_bits());
            }
            other => panic!("expected extract, got {other:?}"),
        }
    }

    #[test]
    fn bad_backend_config_fields_are_rejected() {
        let bad = [
            r#"{"op":"extract","geometry":"g","fmm":{"theta":"x","leaf_size":2}}"#,
            r#"{"op":"extract","geometry":"g","fmm":{"theta":0.4}}"#,
            r#"{"op":"extract","geometry":"g","pfft":{"spacing_factor":1.0}}"#,
            r#"{"op":"extract","geometry":"g","krylov":{"tol":1e-6,"restart":40}}"#,
            r#"{"op":"extract","geometry":"g","precond":"magic"}"#,
            r#"{"op":"extract","geometry":"g","precond":{"block_jacobi":0}}"#,
            r#"{"op":"extract","geometry":"g","auto_budget":0}"#,
            r#"{"op":"extract","geometry":"g","method":"auto","auto_budget":-5}"#,
        ];
        for line in bad {
            assert_eq!(decode_request(line).unwrap_err().code, codes::BAD_REQUEST, "{line}");
        }
    }

    #[test]
    fn solver_stats_round_trip() {
        let stats = SolverStats { iterations: 120, restarts: 2, residual: 3.5e-7 };
        let v = solver_stats_value(&stats);
        assert_eq!(solver_stats_from_value(&v).unwrap(), stats);
        assert!(solver_stats_from_value(&json!({ "iterations": 1 })).is_err());
    }

    #[test]
    fn minimal_extract_request_uses_defaults() {
        let req = decode_request(r#"{"op":"extract","geometry":"conductor a\nbox 0 0 0 1 1 1\n"}"#)
            .unwrap();
        match req {
            Request::Extract { id, options, .. } => {
                assert_eq!(id, None);
                assert_eq!(options, ExtractOptions::default());
            }
            other => panic!("expected extract, got {other:?}"),
        }
    }

    #[test]
    fn unknown_top_level_fields_are_ignored() {
        let req = decode_request(r#"{"op":"ping","id":1,"future_field":[1,2]}"#).unwrap();
        assert_eq!(req, Request::Ping { id: Some(1) });
    }

    #[test]
    fn decode_errors_carry_codes() {
        assert_eq!(decode_request("not json").unwrap_err().code, codes::PARSE);
        assert_eq!(decode_request("{}").unwrap_err().code, codes::BAD_REQUEST);
        assert_eq!(decode_request(r#"{"op":"launch"}"#).unwrap_err().code, codes::BAD_REQUEST);
        assert_eq!(decode_request(r#"{"op":"extract"}"#).unwrap_err().code, codes::BAD_REQUEST);
        assert_eq!(
            decode_request(r#"{"op":"extract","geometry":"x","method":"magic"}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
        assert_eq!(
            decode_request(r#"{"op":"extract","geometry":"x","mesh_divisions":0}"#)
                .unwrap_err()
                .code,
            codes::BAD_REQUEST
        );
        assert_eq!(
            decode_request(r#"{"op":"ping","id":-1}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
        assert_eq!(
            decode_request(r#"{"op":"ping","id":1.5}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
    }

    #[test]
    fn bad_request_errors_keep_the_recoverable_id() {
        let e = decode_request(r#"{"op":"extract","id":9,"geometry":"g","method":"magic"}"#)
            .unwrap_err();
        assert_eq!((e.code, e.id), (codes::BAD_REQUEST, Some(9)));
        let e = decode_request(r#"{"op":"fly","id":3}"#).unwrap_err();
        assert_eq!(e.id, Some(3));
        // Parse failures never have an id; a bad id field cannot echo it.
        assert_eq!(decode_request("not json").unwrap_err().id, None);
        assert_eq!(decode_request(r#"{"op":"ping","id":-1}"#).unwrap_err().id, None);
    }

    #[test]
    fn snapshot_requests_need_a_path() {
        let bad = [
            r#"{"op":"snapshot"}"#,
            r#"{"op":"snapshot","path":7}"#,
            r#"{"op":"snapshot","path":null}"#,
            r#"{"op":"snapshot","path":""}"#,
        ];
        for line in bad {
            assert_eq!(decode_request(line).unwrap_err().code, codes::BAD_REQUEST, "{line}");
        }
        match decode_request(r#"{"op":"snapshot","id":2,"path":"warm.snap"}"#).unwrap() {
            Request::Snapshot { id, path } => {
                assert_eq!((id, path.as_str()), (Some(2), "warm.snap"));
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
    }

    #[test]
    fn build_extractor_digest_tracks_the_options() {
        // The router keys its shard choice on this digest; it must move
        // with any option that changes the solver configuration and be
        // identical for identical options.
        let base = ExtractOptions::default();
        let a = build_extractor(&base).config_digest();
        assert_eq!(a, build_extractor(&base).config_digest());
        let accel = ExtractOptions { accelerated: true, ..base };
        assert_ne!(a, build_extractor(&accel).config_digest());
        let meshed = ExtractOptions { method: Method::PwcDense, mesh_divisions: Some(6), ..base };
        assert_ne!(a, build_extractor(&meshed).config_digest());
    }

    #[test]
    fn null_id_is_accepted() {
        assert_eq!(
            decode_request(r#"{"op":"ping","id":null}"#).unwrap(),
            Request::Ping { id: None }
        );
    }

    #[test]
    fn null_optional_fields_mean_defaults() {
        // The encoder emits null for unset options; the decoder must
        // treat that exactly like an absent field.
        let line = r#"{"op":"extract","geometry":"g","method":null,"accelerated":null,"mesh_divisions":null}"#;
        match decode_request(line).unwrap() {
            Request::Extract { options, .. } => assert_eq!(options, ExtractOptions::default()),
            other => panic!("expected extract, got {other:?}"),
        }
    }

    #[test]
    fn method_names_round_trip() {
        for m in [
            Method::InstantiableBasis,
            Method::PwcDense,
            Method::PwcFmm,
            Method::PwcPfft,
            Method::Auto,
        ] {
            assert_eq!(parse_method(method_name(m)), Some(m));
        }
        assert_eq!(parse_method("fastcap"), None);
    }

    #[test]
    fn responses_are_single_lines_with_echoed_id() {
        let ok = ok_response(Some(9), json!({ "pong": true }));
        let v = serde_json::from_str(&ok).unwrap();
        assert_eq!(v["id"].as_u64(), Some(9));
        assert_eq!(v["ok"].as_bool(), Some(true));
        assert_eq!(v["result"]["pong"].as_bool(), Some(true));

        let err = error_response(None, codes::OVERSIZED, "frame too large");
        let v = serde_json::from_str(&err).unwrap();
        assert!(v["id"].is_null());
        assert_eq!(v["ok"].as_bool(), Some(false));
        assert_eq!(v["error"]["code"].as_str(), Some(codes::OVERSIZED));
        assert!(!ok.contains('\n') && !err.contains('\n'));
    }

    #[test]
    fn batch_requests_decode_and_reject_bad_shapes() {
        let req = decode_request(r#"{"op":"batch","geometries":["g1","g2"],"method":"pwc-dense"}"#)
            .unwrap();
        match req {
            Request::Batch { id, geometries, options } => {
                assert_eq!(id, None);
                assert_eq!(geometries, vec!["g1".to_string(), "g2".to_string()]);
                assert_eq!(options.method, Method::PwcDense);
            }
            other => panic!("expected batch, got {other:?}"),
        }
        // An empty list is well-formed (the daemon answers with an empty
        // results array).
        match decode_request(r#"{"op":"batch","geometries":[]}"#).unwrap() {
            Request::Batch { geometries, .. } => assert!(geometries.is_empty()),
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(decode_request(r#"{"op":"batch"}"#).unwrap_err().code, codes::BAD_REQUEST);
        assert_eq!(
            decode_request(r#"{"op":"batch","geometries":"g1"}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
        assert_eq!(
            decode_request(r#"{"op":"batch","geometries":[1,2]}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
        assert_eq!(
            decode_request(r#"{"op":"batch","geometries":["g"],"method":"magic"}"#)
                .unwrap_err()
                .code,
            codes::BAD_REQUEST
        );
    }

    #[test]
    fn chip_requests_decode_with_defaults_and_reject_bad_shapes() {
        // Minimal frame: default 2×2 grid, default halo, default options.
        match decode_request(r#"{"op":"chip","geometry":"g"}"#).unwrap() {
            Request::Chip { nx, ny, halo, options, .. } => {
                assert_eq!((nx, ny), (2, 2));
                assert_eq!(halo, None);
                assert_eq!(options, ExtractOptions::default());
            }
            other => panic!("expected chip, got {other:?}"),
        }
        // Null windows and halo mean the defaults, like every optional.
        match decode_request(r#"{"op":"chip","geometry":"g","windows":null,"halo":null}"#).unwrap()
        {
            Request::Chip { nx, ny, halo, .. } => {
                assert_eq!((nx, ny, halo), (2, 2, None));
            }
            other => panic!("expected chip, got {other:?}"),
        }
        let bad = [
            r#"{"op":"chip"}"#,
            r#"{"op":"chip","geometry":"g","windows":[2]}"#,
            r#"{"op":"chip","geometry":"g","windows":[2,2,2]}"#,
            r#"{"op":"chip","geometry":"g","windows":[0,2]}"#,
            r#"{"op":"chip","geometry":"g","windows":"2x2"}"#,
            r#"{"op":"chip","geometry":"g","windows":[2,"2"]}"#,
            r#"{"op":"chip","geometry":"g","halo":-1.0}"#,
            r#"{"op":"chip","geometry":"g","halo":"wide"}"#,
            r#"{"op":"chip","geometry":"g","method":"magic"}"#,
        ];
        for line in bad {
            assert_eq!(decode_request(line).unwrap_err().code, codes::BAD_REQUEST, "{line}");
        }
    }

    #[test]
    fn exec_stats_round_trip() {
        let stats = ExecStats {
            submitted: 9,
            rejected: 2,
            coalesced: 4,
            micro_batches: 5,
            jobs: 9,
            queue_seconds: 0.25,
        };
        let v = exec_stats_value(&stats);
        assert_eq!(exec_stats_from_value(&v).unwrap(), stats);
        assert!((v["coalescing_ratio"].as_f64().unwrap() - 9.0 / 5.0).abs() < 1e-12);
        assert!(exec_stats_from_value(&json!({ "submitted": 1 })).is_err());
    }

    #[test]
    fn cache_stats_round_trip() {
        let stats = CacheStats { hits: 10, misses: 4, evictions: 2, inserted_bytes: 768 };
        let v = cache_stats_value(&stats);
        assert_eq!(cache_stats_from_value(&v).unwrap(), stats);
        assert!((v["hit_rate"].as_f64().unwrap() - 10.0 / 14.0).abs() < 1e-12);
        assert!(cache_stats_from_value(&json!({ "hits": 1 })).is_err());
    }
}
