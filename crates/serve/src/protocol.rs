//! The `bemcapd` wire protocol: newline-delimited JSON frames.
//!
//! One request per line, one response per line, in order, over a plain
//! TCP stream — trivially scriptable (`nc`, shell, any language with a
//! socket and a JSON parser) and cheap to parse with the vendored
//! `serde_json` stub. The full field reference lives in
//! `docs/WIRE_PROTOCOL.md`; this module is the single implementation of
//! encode and decode for every frame, requests and responses alike. The
//! daemon, the `bemcaprd` router and the client library all go through
//! it, so the three cannot drift.
//!
//! Each response shape has one encoder and one decoder, side by side.
//! The `extract`, `batch` and `chip` results are encoded straight from
//! the engine's [`Extraction`] / [`ChipExtraction`] and decode into
//! [`ExtractReply`] / [`ChipReply`]. The control replies
//! ([`PingReply`], [`DaemonStats`], [`SnapshotReply`],
//! [`RouteStatsReply`], [`MetricsReply`], [`ShutdownReply`]) encode from
//! and decode to the same struct. Decoders fail with a [`WireError`],
//! which a client surfaces as [`ServeError::Protocol`].
//!
//! Requests carry geometry in the `bemcap_geom::io` text format (embedded
//! as one JSON string). Responses carry capacitance matrices as `f64`
//! arrays serialized with Rust's shortest-round-trip formatting, so a
//! value decoded by the client is **bit-identical** to the `f64` the
//! engine produced — the property behind the daemon's determinism tests.

use bemcap_core::batch::BatchPoint;
use bemcap_core::metrics::{MetricKind, Registry};
use bemcap_core::{
    CacheStats, ChipExtraction, ExecStats, Extraction, Extractor, FmmConfig, KrylovConfig,
    KrylovStats, Method, PfftConfig,
};
use serde_json::json;
/// The JSON value tree every frame is built from and parsed into.
pub use serde_json::Value;

use crate::error::ServeError;

/// Protocol revision, reported by the `ping` op. Bump on any change to
/// the frame shapes. Revisions v2–v6 are additive — v2 `batch`, v3
/// typed backend options, v4 `chip`, v5 `metrics`, v6 `snapshot`,
/// `route_stats` and the front tier; v7 removes the `precond` option
/// (a non-null value is refused); v8 removes the request-coalescing
/// fields from `exec` records and `stats`. Clients accept any daemon
/// speaking at least their own version, and the reply decoders read v8
/// replies only. The revision history is in `docs/WIRE_PROTOCOL.md`.
pub const PROTOCOL_VERSION: u64 = 8;

/// Largest `krylov.max_iters` a request may ask for: above every budget
/// the solvers use (default 600), and a bound on one job's matvecs.
pub const MAX_KRYLOV_ITERS: usize = 10_000;

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
    /// single frame — they go in as one executor submission, admitted all
    /// or nothing, and each runs as its own job on the next idle worker.
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

impl Request {
    /// The client-chosen correlation id, echoed in the response.
    pub fn id(&self) -> Option<u64> {
        match self {
            Request::Extract { id, .. }
            | Request::Batch { id, .. }
            | Request::Chip { id, .. }
            | Request::Ping { id }
            | Request::Stats { id }
            | Request::Snapshot { id, .. }
            | Request::RouteStats { id }
            | Request::Metrics { id }
            | Request::Shutdown { id } => *id,
        }
    }
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
    /// §4.2.3 tabulated-primitive acceleration (default off). Only the
    /// instantiable method reads it ([`Extractor::accelerated`]).
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
/// backend's cache identity.
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
    if let Some(b) = options.auto_budget {
        extractor = extractor.auto_memory_budget(b);
    }
    extractor
}

/// A decode failure. For a request it carries the error code the daemon
/// should answer with and the request id when it was recoverable (so
/// error responses can still echo it for client-side correlation). For a
/// reply only the message matters: the client surfaces it as
/// [`ServeError::Protocol`].
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

/// A JSON field's value type, read by [`req`] and [`opt`] — the field
/// readers every decoder in this module shares.
trait Field<'a>: Sized {
    /// The expected kind, for error messages.
    const WHAT: &'static str;
    fn read(v: &'a Value) -> Option<Self>;
}

macro_rules! field {
    ($($t:ty: $what:literal => $read:expr;)*) => {$(
        impl<'a> Field<'a> for $t {
            const WHAT: &'static str = $what;
            fn read(v: &'a Value) -> Option<$t> {
                $read(v)
            }
        }
    )*};
}

field! {
    u64: "a non-negative integer" => Value::as_u64;
    usize: "a non-negative integer" => |v: &Value| v.as_u64().map(|n| n as usize);
    f64: "a number" => Value::as_f64;
    bool: "a boolean" => Value::as_bool;
    &'a str: "a string" => Value::as_str;
    &'a [Value]: "an array" => Value::as_array;
    &'a Value: "an object" => |v: &'a Value| matches!(v, Value::Object(_)).then_some(v);
}

/// Reads the required field `name` of the object `v` (called `ctx` in
/// error messages).
fn req<'a, T: Field<'a>>(v: &'a Value, ctx: &str, name: &str) -> Result<T, WireError> {
    opt(v, ctx, name)?.ok_or_else(|| needs::<T>(ctx, name))
}

/// Reads the optional field `name` of the object `v`: absent and null
/// both mean `None`, any other value must have the field's type.
fn opt<'a, T: Field<'a>>(v: &'a Value, ctx: &str, name: &str) -> Result<Option<T>, WireError> {
    match v.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => T::read(x).map(Some).ok_or_else(|| needs::<T>(ctx, name)),
    }
}

fn needs<'a, T: Field<'a>>(ctx: &str, name: &str) -> WireError {
    WireError::bad(format!("'{ctx}' needs {} '{name}' field", T::WHAT))
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
    let id = opt(&v, "request", "id")?;
    decode_op(&v, id).map_err(|e| e.with_id(id))
}

fn decode_op(v: &Value, id: Option<u64>) -> Result<Request, WireError> {
    match req::<&str>(v, "request", "op")? {
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
            let geometry = req::<&str>(v, "extract", "geometry")?.to_string();
            Ok(Request::Extract { id, geometry, options: decode_options(v)? })
        }
        "batch" => {
            let geometries: Vec<String> = req::<&[Value]>(v, "batch", "geometries")?
                .iter()
                .map(|g| g.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or_else(|| WireError::bad("'geometries' entries must be strings"))?;
            Ok(Request::Batch { id, geometries, options: decode_options(v)? })
        }
        "chip" => {
            let geometry = req::<&str>(v, "chip", "geometry")?.to_string();
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

/// Decodes the shared solver-option fields of `extract` and `batch`
/// requests. Optional fields: absent and null both mean "use the
/// default" (the encoder emits null for unset options).
fn decode_options(v: &Value) -> Result<ExtractOptions, WireError> {
    let mut options = ExtractOptions::default();
    if let Some(m) = v.get("method").filter(|m| !m.is_null()) {
        let name = m.as_str().ok_or_else(|| WireError::bad("'method' must be a string"))?;
        options.method = Method::from_name(name).ok_or_else(|| {
            WireError::bad(format!(
                "unknown method '{name}' \
                 (expected instantiable, pwc-dense, pwc-fmm, pwc-pfft or auto)"
            ))
        })?;
    }
    options.accelerated = opt(v, "request", "accelerated")?.unwrap_or(false);
    if let Some(d) = v.get("mesh_divisions").filter(|d| !d.is_null()) {
        let n = d
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or_else(|| WireError::bad("'mesh_divisions' must be a positive integer"))?;
        options.mesh_divisions = Some(n as usize);
    }
    // Operator knobs are range-checked here: a zero leaf size would
    // panic inside an executor worker, a zero spacing would solve on NaN,
    // a zero near zone would solve to a silently wrong C, and a raised
    // grid cap would let a fine spacing allocate a grid of any size (an
    // out-of-memory kill no `catch_unwind` contains).
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if let Some(f) = v.get("fmm").filter(|f| !f.is_null()) {
        let (theta, leaf_size) = (req(f, "fmm", "theta")?, req(f, "fmm", "leaf_size")?);
        if !positive(theta) || leaf_size == 0 {
            return Err(WireError::bad("'fmm' needs a positive 'theta' and 'leaf_size'"));
        }
        options.fmm = Some(FmmConfig { theta, leaf_size });
    }
    if let Some(p) = v.get("pfft").filter(|p| !p.is_null()) {
        let (spacing_factor, near_cells) =
            (req(p, "pfft", "spacing_factor")?, req(p, "pfft", "near_cells")?);
        if !positive(spacing_factor) || near_cells == 0 {
            return Err(WireError::bad(
                "'pfft' needs a positive 'spacing_factor' and 'near_cells'",
            ));
        }
        let max_grid_points = req(p, "pfft", "max_grid_points")?;
        let cap = PfftConfig::default().max_grid_points;
        if max_grid_points > cap {
            return Err(WireError::bad(format!("'pfft' 'max_grid_points' may not exceed {cap}")));
        }
        options.pfft = Some(PfftConfig { spacing_factor, near_cells, max_grid_points });
    }
    // A `tol` of 1 or more is met at the Krylov driver's first residual
    // check, which answers an all-zero C; one of 0 or less never is, so
    // the job would hold its worker for all `max_iters` matvecs.
    if let Some(k) = v.get("krylov").filter(|k| !k.is_null()) {
        let krylov = KrylovConfig {
            tol: req(k, "krylov", "tol")?,
            restart: req(k, "krylov", "restart")?,
            max_iters: req(k, "krylov", "max_iters")?,
        };
        if !(krylov.tol > 0.0 && krylov.tol < 1.0) || krylov.max_iters > MAX_KRYLOV_ITERS {
            return Err(WireError::bad(format!(
                "'krylov' needs a 'tol' in (0, 1) and a 'max_iters' of at most {MAX_KRYLOV_ITERS}"
            )));
        }
        options.krylov = Some(krylov);
    }
    // v7 removed the option; a client that sets it must not be solved
    // silently under Jacobi.
    if v.get("precond").is_some_and(|p| !p.is_null()) {
        return Err(WireError::bad("'precond' was removed in protocol v7 (Jacobi is fixed)"));
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

/// Appends the shared solver-option fields to an encoded request object
/// (null when unset, mirroring the decoder's "absent = default").
fn push_options(v: &mut Value, options: &ExtractOptions) {
    push(v, "method", json!(options.method.name()));
    push(v, "accelerated", json!(options.accelerated));
    push(v, "mesh_divisions", json!(options.mesh_divisions));
    let fmm = options.fmm.map(|f| json!({ "theta": f.theta, "leaf_size": f.leaf_size }));
    push(v, "fmm", json!(fmm));
    let pfft = options.pfft.map(|p| {
        json!({
            "spacing_factor": p.spacing_factor,
            "near_cells": p.near_cells,
            "max_grid_points": p.max_grid_points,
        })
    });
    push(v, "pfft", json!(pfft));
    let krylov = options
        .krylov
        .map(|k| json!({ "tol": k.tol, "restart": k.restart, "max_iters": k.max_iters }));
    push(v, "krylov", json!(krylov));
    push(v, "auto_budget", json!(options.auto_budget));
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
            let mut v = json!({ "op": "extract", "id": *id, "geometry": geometry.as_str() });
            push_options(&mut v, options);
            v
        }
        Request::Batch { id, geometries, options } => {
            let mut v = json!({ "op": "batch", "id": *id, "geometries": geometries.as_slice() });
            push_options(&mut v, options);
            v
        }
        Request::Chip { id, geometry, options, nx, ny, halo } => {
            let mut v = json!({
                "op": "chip",
                "id": *id,
                "geometry": geometry.as_str(),
                "windows": json!([*nx, *ny]),
                "halo": *halo,
            });
            push_options(&mut v, options);
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

/// Opens a parsed response frame: the `result` of a success frame, which
/// must echo `id` when the request carried one. An error frame becomes
/// [`ServeError::Remote`], anything else [`ServeError::Protocol`].
pub fn open_response(response: Value, id: Option<u64>) -> Result<Value, ServeError> {
    if !req::<bool>(&response, "response", "ok")? {
        let text = |name: &str| {
            response
                .get("error")
                .and_then(|e| e.get(name))
                .and_then(Value::as_str)
                .map(String::from)
        };
        return Err(ServeError::Remote {
            code: text("code").unwrap_or_else(|| "unknown".into()),
            message: text("message")
                .unwrap_or_else(|| "daemon reported an error without a message".into()),
        });
    }
    // Success responses must echo the request id; error responses may
    // carry null (the daemon cannot always recover an id from a
    // malformed frame).
    if let Some(want) = id {
        let got = response.get("id").and_then(Value::as_u64);
        if got != Some(want) {
            return Err(ServeError::Protocol(format!(
                "response id {got:?} does not match request {want}"
            )));
        }
    }
    // Move the result subtree out of the owned response — an extract
    // result holds the full matrix, not worth cloning.
    match response {
        Value::Object(entries) => {
            entries.into_iter().find_map(|(k, v)| (k == "result").then_some(v))
        }
        _ => None,
    }
    .ok_or_else(|| ServeError::Protocol("ok response missing 'result'".into()))
}

/// Appends `key: value` to an encoded object.
fn push(v: &mut Value, key: &str, value: Value) {
    if let Value::Object(entries) = v {
        entries.push((key.into(), value));
    }
}

/// Reads a `names` array of conductor net names.
fn names(v: &Value, ctx: &str) -> Result<Vec<String>, WireError> {
    req::<&[Value]>(v, ctx, "names")?
        .iter()
        .map(|n| n.as_str().map(String::from))
        .collect::<Option<_>>()
        .ok_or_else(|| WireError::bad("non-string conductor name"))
}

fn cache_stats_value(stats: &CacheStats) -> Value {
    json!({
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "inserted_bytes": stats.inserted_bytes,
        "hit_rate": stats.hit_rate(),
    })
}

fn cache_stats_from_value(v: &Value) -> Result<CacheStats, WireError> {
    Ok(CacheStats {
        hits: req(v, "cache", "hits")?,
        misses: req(v, "cache", "misses")?,
        evictions: req(v, "cache", "evictions")?,
        inserted_bytes: req(v, "cache", "inserted_bytes")?,
    })
}

fn solver_stats_value(stats: &KrylovStats) -> Value {
    json!({
        "iterations": stats.matvecs,
        "restarts": stats.restarts,
        "residual": stats.residual,
    })
}

fn solver_stats_from_value(v: &Value) -> Result<KrylovStats, WireError> {
    Ok(KrylovStats {
        matvecs: req(v, "solver", "iterations")?,
        restarts: req(v, "solver", "restarts")?,
        residual: req(v, "solver", "residual")?,
    })
}

fn exec_stats_value(stats: &ExecStats) -> Value {
    json!({
        "submitted": stats.submitted,
        "rejected": stats.rejected,
        "jobs": stats.jobs,
        "queue_seconds": stats.queue_seconds,
    })
}

fn exec_stats_from_value(v: &Value) -> Result<ExecStats, WireError> {
    Ok(ExecStats {
        submitted: req(v, "exec", "submitted")?,
        rejected: req(v, "exec", "rejected")?,
        jobs: req(v, "exec", "jobs")?,
        queue_seconds: req(v, "exec", "queue_seconds")?,
    })
}

/// A decoded `extract` result, or one entry of a `batch` result.
#[derive(Debug, Clone)]
pub struct ExtractReply {
    /// Conductor net names, in matrix index order.
    pub names: Vec<String>,
    /// Row-major capacitance matrix (farad), bit-identical to the
    /// daemon-side computation.
    pub matrix: Vec<Vec<f64>>,
    /// Solver backend that ran ("instantiable", "pwc-dense", ...) — for
    /// `auto` requests, the backend the daemon resolved to.
    pub method: String,
    /// System dimension N.
    pub n: usize,
    /// Template count M (instantiable method only).
    pub m_templates: Option<usize>,
    /// Workers the daemon's setup step used.
    pub workers: usize,
    /// Daemon-side setup seconds.
    pub setup_seconds: f64,
    /// Daemon-side solve seconds.
    pub solve_seconds: f64,
    /// Daemon-side estimate of peak solver memory in bytes.
    pub memory_bytes: usize,
    /// Iterative-solver counters (iterations, restarts, residual) for
    /// Krylov backends; `None` for direct solves.
    pub solver: Option<KrylovStats>,
    /// Pair-integral cache counters of this request.
    pub cache: CacheStats,
    /// Seconds the request waited in the daemon's admission queue before
    /// its processing started (for a `batch` frame, until its first job
    /// started).
    pub queue_seconds: f64,
}

impl ExtractReply {
    /// Entry C_ij; panics on out-of-range indices.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.matrix[i][j]
    }

    /// Number of conductors.
    pub fn dim(&self) -> usize {
        self.matrix.len()
    }

    /// Encodes an `extract` result straight from the engine's output: the
    /// extraction, its cache counters, and the seconds its job waited in
    /// the executor queue.
    pub fn encode(extraction: &Extraction, cache: &CacheStats, queue_seconds: f64) -> Value {
        let mut result = extraction_value(extraction, cache);
        push(&mut result, "exec", exec_value(queue_seconds));
        result
    }

    /// Encodes a `batch` result: one entry per job in input order, then
    /// the executor record they share, holding the seconds until the
    /// frame's first job started (absent for an empty frame, which never
    /// reaches the queue).
    pub fn encode_batch(points: &[BatchPoint]) -> Value {
        let entries =
            points.iter().map(|p| extraction_value(&p.extraction, &p.job.cache)).collect();
        let mut result = json!({ "results": Value::Array(entries) });
        if let Some(queue_seconds) = points.iter().map(|p| p.job.queue_seconds).reduce(f64::min) {
            push(&mut result, "exec", exec_value(queue_seconds));
        }
        result
    }

    /// Decodes an `extract` result; fails on a missing or mistyped field
    /// (only `m_templates` and `solver` may be null) or a matrix whose
    /// shape does not match the names.
    pub fn decode(v: &Value) -> Result<ExtractReply, WireError> {
        decode_extraction(v, req(v, "extract", "exec")?)
    }

    /// Decodes a `batch` result into one reply per entry, each carrying
    /// the frame's shared executor record; fails as
    /// [`ExtractReply::decode`] does, for any entry. Only an empty frame
    /// may omit the executor record.
    pub fn decode_batch(v: &Value) -> Result<Vec<Self>, WireError> {
        let exec = opt(v, "batch", "exec")?;
        req::<&[Value]>(v, "batch", "results")?
            .iter()
            .map(|entry| {
                decode_extraction(entry, exec.ok_or_else(|| needs::<&Value>("batch", "exec"))?)
            })
            .collect()
    }
}

/// One job's extraction as a result object (the `extract` result without
/// its `exec` record, or one `batch` entry).
fn extraction_value(extraction: &Extraction, cache: &CacheStats) -> Value {
    let c = extraction.capacitance();
    let report = extraction.report();
    let matrix: Vec<Value> = (0..c.dim())
        .map(|i| Value::Array((0..c.dim()).map(|j| Value::Number(c.get(i, j))).collect()))
        .collect();
    json!({
        "names": c.names().to_vec(),
        "matrix": Value::Array(matrix),
        "report": json!({
            "method": report.method.as_str(),
            "n": report.n,
            "m_templates": report.m_templates,
            "workers": report.workers,
            "setup_seconds": report.setup_seconds,
            "solve_seconds": report.solve_seconds,
            "memory_bytes": report.memory_bytes,
            "solver": report.krylov.as_ref().map_or(Value::Null, solver_stats_value),
        }),
        "cache": cache_stats_value(cache),
    })
}

/// The executor record of `extract` and `batch` results.
fn exec_value(queue_seconds: f64) -> Value {
    json!({ "queue_seconds": queue_seconds })
}

fn decode_extraction(v: &Value, exec: &Value) -> Result<ExtractReply, WireError> {
    let report: &Value = req(v, "extract", "report")?;
    let names = names(v, "extract")?;
    let matrix: Vec<Vec<f64>> = req::<&[Value]>(v, "extract", "matrix")?
        .iter()
        .map(|row| row.as_array()?.iter().map(Value::as_f64).collect())
        .collect::<Option<_>>()
        .ok_or_else(|| WireError::bad("matrix rows must be arrays of numbers"))?;
    if matrix.len() != names.len() || matrix.iter().any(|r| r.len() != names.len()) {
        return Err(WireError::bad("matrix shape does not match conductor names"));
    }
    Ok(ExtractReply {
        names,
        matrix,
        method: req::<&str>(report, "report", "method")?.to_string(),
        n: req(report, "report", "n")?,
        m_templates: opt(report, "report", "m_templates")?,
        workers: req(report, "report", "workers")?,
        setup_seconds: req(report, "report", "setup_seconds")?,
        solve_seconds: req(report, "report", "solve_seconds")?,
        memory_bytes: req(report, "report", "memory_bytes")?,
        solver: opt(report, "report", "solver")?.map(solver_stats_from_value).transpose()?,
        cache: cache_stats_from_value(req(v, "extract", "cache")?)?,
        queue_seconds: req(exec, "exec", "queue_seconds")?,
    })
}

/// A decoded `chip` result: the stitched sparse chip capacitance
/// matrix plus the daemon-side windowing report.
#[derive(Debug, Clone)]
pub struct ChipReply {
    /// Conductor net names, in matrix index order.
    pub names: Vec<String>,
    /// Matrix dimension (number of conductors).
    pub dim: usize,
    /// Stored sparse entries `(i, j, c_ij)` in row-major order,
    /// bit-identical to the daemon-side computation.
    pub entries: Vec<(usize, usize, f64)>,
    /// Windows in the daemon's partition.
    pub windows: usize,
    /// Windows extracted for this request (window-cache misses).
    pub extracted: usize,
    /// Windows reused from the daemon's window cache.
    pub reused: usize,
    /// Worker threads the windows ran on.
    pub workers: usize,
    /// Daemon-side wall-clock seconds of the chip extraction.
    pub wall_seconds: f64,
    /// Sum of the per-window job seconds on the daemon.
    pub busy_seconds: f64,
    /// Seconds the window jobs waited in the daemon's queue, summed over
    /// the jobs.
    pub queue_seconds: f64,
    /// Pair-integral cache counters aggregated over extracted windows.
    pub cache: CacheStats,
    /// Window-cache counters of this request (hits = reused windows).
    pub window_cache: CacheStats,
}

impl ChipReply {
    /// Entry C_ij in farad; `0.0` for net pairs sharing no window.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.entries
            .binary_search_by_key(&(i, j), |&(ei, ej, _)| (ei, ej))
            .map_or(0.0, |at| self.entries[at].2)
    }

    /// Stored entries (the sparse matrix's nonzero pattern size).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Encodes a `chip` result straight from the engine's output.
    pub fn encode(full: &ChipExtraction) -> Value {
        let c = full.capacitance();
        let report = full.report();
        let entries: Vec<Value> = c.matrix().iter().map(|(i, j, v)| json!([i, j, v])).collect();
        json!({
            "names": c.names().to_vec(),
            "dim": c.dim(),
            "entries": Value::Array(entries),
            "report": json!({
                "windows": report.windows,
                "extracted": report.extracted,
                "reused": report.reused,
                "nnz": report.nnz,
                "workers": report.workers,
                "wall_seconds": report.wall_seconds,
                "busy_seconds": report.busy_seconds,
                "queue_seconds": report.queue_seconds,
            }),
            "cache": cache_stats_value(&report.template_cache),
            "window_cache": cache_stats_value(&report.window_cache),
        })
    }

    /// Decodes a `chip` result, sorting the entries by `(i, j)` so
    /// [`ChipReply::get`] can binary-search them. Fails on a missing or
    /// mistyped field, names that do not match `dim`, an entry that is not
    /// an `[i, j, value]` triplet with indices below `dim`, or a
    /// `report.nnz` that does not count the entries.
    pub fn decode(v: &Value) -> Result<ChipReply, WireError> {
        let names = names(v, "chip")?;
        let dim: usize = req(v, "chip", "dim")?;
        if dim != names.len() {
            return Err(WireError::bad("chip dimension does not match conductor names"));
        }
        let mut entries = req::<&[Value]>(v, "chip", "entries")?
            .iter()
            .map(|e| {
                let triplet = e.as_array().and_then(|t| <&[Value; 3]>::try_from(t).ok());
                match triplet.map(|[i, j, c]| (i.as_u64(), j.as_u64(), c.as_f64())) {
                    Some((Some(i), Some(j), Some(c))) if i < dim as u64 && j < dim as u64 => {
                        Ok((i as usize, j as usize, c))
                    }
                    _ => Err(WireError::bad(
                        "chip entries must be [i, j, value] triplets with indices below 'dim'",
                    )),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        entries.sort_by_key(|&(i, j, _)| (i, j));
        let report: &Value = req(v, "chip", "report")?;
        if req::<usize>(report, "report", "nnz")? != entries.len() {
            return Err(WireError::bad("chip report 'nnz' does not count the entries"));
        }
        Ok(ChipReply {
            names,
            dim,
            entries,
            windows: req(report, "report", "windows")?,
            extracted: req(report, "report", "extracted")?,
            reused: req(report, "report", "reused")?,
            workers: req(report, "report", "workers")?,
            wall_seconds: req(report, "report", "wall_seconds")?,
            busy_seconds: req(report, "report", "busy_seconds")?,
            queue_seconds: req(report, "report", "queue_seconds")?,
            cache: cache_stats_from_value(req(v, "chip", "cache")?)?,
            window_cache: cache_stats_from_value(req(v, "chip", "window_cache")?)?,
        })
    }
}

/// A `ping` result: liveness plus the peer's protocol revision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PingReply {
    /// The peer's [`PROTOCOL_VERSION`].
    pub proto: u64,
    /// The peer's crate version.
    pub version: String,
    /// Whether the peer is the `bemcaprd` front tier rather than a daemon.
    pub router: bool,
}

impl PingReply {
    /// Encodes the result; `router` appears on the wire only when set.
    pub fn encode(&self) -> Value {
        let mut v = json!({ "pong": true, "proto": self.proto, "version": self.version.as_str() });
        if self.router {
            push(&mut v, "router", Value::Bool(true));
        }
        v
    }

    /// Decodes the result; fails on a missing or mistyped field, or
    /// `pong` not true. Only `router` may be absent (a daemon omits it).
    pub fn decode(v: &Value) -> Result<PingReply, WireError> {
        if !req::<bool>(v, "ping", "pong")? {
            return Err(WireError::bad("'ping' answered without 'pong': true"));
        }
        Ok(PingReply {
            proto: req(v, "ping", "proto")?,
            version: req::<&str>(v, "ping", "version")?.to_string(),
            router: opt(v, "ping", "router")?.unwrap_or(false),
        })
    }
}

/// A `stats` result: the daemon's caches, traffic and executor.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonStats {
    /// Lifetime cache counters across all connections.
    pub cache: CacheStats,
    /// Resident cache entries right now.
    pub cache_entries: usize,
    /// Approximate resident cache bytes right now.
    pub cache_resident_bytes: usize,
    /// Configured cache bound (`None` = unbounded).
    pub cache_max_bytes: Option<usize>,
    /// Seconds since the daemon started.
    pub uptime_seconds: f64,
    /// Requests handled since start (all ops, all connections).
    pub requests: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// Worker pool size of the daemon's shared executor.
    pub workers: usize,
    /// Admission queue depth (most jobs that may wait at once).
    pub queue_depth: usize,
    /// Jobs waiting in the queue right now.
    pub queued: usize,
    /// Jobs executing on workers right now.
    pub running: usize,
    /// Lifetime executor counters (admission, rejections, queue wait).
    pub exec: ExecStats,
    /// Lifetime window-cache counters of the `chip` op.
    pub window_cache: CacheStats,
    /// Resident window-cache entries right now.
    pub window_cache_entries: usize,
    /// Approximate resident window-cache bytes right now.
    pub window_cache_resident_bytes: usize,
    /// Configured window-cache bound (`None` = unbounded).
    pub window_cache_max_bytes: Option<usize>,
}

impl DaemonStats {
    /// Encodes the result.
    pub fn encode(&self) -> Value {
        json!({
            "cache": cache_stats_value(&self.cache),
            "cache_entries": self.cache_entries,
            "cache_resident_bytes": self.cache_resident_bytes,
            "cache_max_bytes": self.cache_max_bytes,
            "window_cache": cache_stats_value(&self.window_cache),
            "window_cache_entries": self.window_cache_entries,
            "window_cache_resident_bytes": self.window_cache_resident_bytes,
            "window_cache_max_bytes": self.window_cache_max_bytes,
            "uptime_seconds": self.uptime_seconds,
            "requests": self.requests,
            "connections": self.connections,
            "workers": self.workers,
            "queue": json!({
                "depth": self.queue_depth,
                "queued": self.queued,
                "running": self.running,
            }),
            "exec": exec_stats_value(&self.exec),
        })
    }

    /// Decodes the result; fails on a missing or mistyped field. Only
    /// the two `*_max_bytes` bounds may be null (unbounded).
    pub fn decode(v: &Value) -> Result<DaemonStats, WireError> {
        let queue: &Value = req(v, "stats", "queue")?;
        Ok(DaemonStats {
            cache: cache_stats_from_value(req(v, "stats", "cache")?)?,
            cache_entries: req(v, "stats", "cache_entries")?,
            cache_resident_bytes: req(v, "stats", "cache_resident_bytes")?,
            cache_max_bytes: opt(v, "stats", "cache_max_bytes")?,
            uptime_seconds: req(v, "stats", "uptime_seconds")?,
            requests: req(v, "stats", "requests")?,
            connections: req(v, "stats", "connections")?,
            workers: req(v, "stats", "workers")?,
            queue_depth: req(queue, "queue", "depth")?,
            queued: req(queue, "queue", "queued")?,
            running: req(queue, "queue", "running")?,
            exec: exec_stats_from_value(req(v, "stats", "exec")?)?,
            window_cache: cache_stats_from_value(req(v, "stats", "window_cache")?)?,
            window_cache_entries: req(v, "stats", "window_cache_entries")?,
            window_cache_resident_bytes: req(v, "stats", "window_cache_resident_bytes")?,
            window_cache_max_bytes: opt(v, "stats", "window_cache_max_bytes")?,
        })
    }
}

/// A `snapshot` result (protocol v6): what the daemon wrote to its
/// filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotReply {
    /// Daemon-side path the snapshot landed at (echoed from the request).
    pub path: String,
    /// Pair-integral cache entries serialized.
    pub entries: usize,
    /// Snapshot file size in bytes.
    pub bytes: u64,
}

impl SnapshotReply {
    /// Encodes the result.
    pub fn encode(&self) -> Value {
        json!({ "path": self.path.as_str(), "entries": self.entries, "bytes": self.bytes })
    }

    /// Decodes the result; fails on a missing or mistyped field.
    pub fn decode(v: &Value) -> Result<SnapshotReply, WireError> {
        Ok(SnapshotReply {
            path: req::<&str>(v, "snapshot", "path")?.to_string(),
            entries: req(v, "snapshot", "entries")?,
            bytes: req(v, "snapshot", "bytes")?,
        })
    }
}

/// One replica's row in a `route_stats` result (protocol v6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStats {
    /// The replica's daemon address as the router dials it.
    pub addr: String,
    /// Whether the router currently routes to this replica.
    pub healthy: bool,
    /// Consecutive health-check failures (resets to 0 on any success).
    pub consecutive_failures: u64,
    /// Requests the router sent to this replica since start.
    pub requests: u64,
    /// Connection-level failures talking to this replica since start
    /// (structured backend errors are *not* counted — they are answers).
    pub errors: u64,
    /// Idle connections to this replica in the router's pool right now.
    pub pooled: usize,
}

impl ReplicaStats {
    fn encode(&self) -> Value {
        json!({
            "addr": self.addr.as_str(),
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "requests": self.requests,
            "errors": self.errors,
            "pooled": self.pooled,
        })
    }

    fn decode(v: &Value) -> Result<ReplicaStats, WireError> {
        Ok(ReplicaStats {
            addr: req::<&str>(v, "replica", "addr")?.to_string(),
            healthy: req(v, "replica", "healthy")?,
            consecutive_failures: req(v, "replica", "consecutive_failures")?,
            requests: req(v, "replica", "requests")?,
            errors: req(v, "replica", "errors")?,
            pooled: req(v, "replica", "pooled")?,
        })
    }
}

/// A `route_stats` result (protocol v6) from the `bemcaprd` front tier.
/// A plain daemon answers the op with `bad-request`, so a successful
/// decode also tells the caller it is talking to a router.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteStatsReply {
    /// Per-replica health and traffic counters, in configuration order.
    pub replicas: Vec<ReplicaStats>,
    /// Replicas currently routable.
    pub healthy: usize,
    /// Payload requests proxied to replicas since start.
    pub proxied: u64,
    /// Requests retried on another replica after a connection-level
    /// failure.
    pub failovers: u64,
    /// Requests answered with the `upstream` error (every replica
    /// unreachable).
    pub upstream_errors: u64,
    /// Health-check ejections since start.
    pub ejections: u64,
    /// Re-admissions of previously ejected replicas since start.
    pub readmissions: u64,
    /// Seconds since the router started.
    pub uptime_seconds: f64,
    /// Requests the router accepted since start (all ops).
    pub requests: u64,
}

impl RouteStatsReply {
    /// Encodes the result.
    pub fn encode(&self) -> Value {
        json!({
            "replicas": Value::Array(self.replicas.iter().map(ReplicaStats::encode).collect()),
            "healthy": self.healthy,
            "proxied": self.proxied,
            "failovers": self.failovers,
            "upstream_errors": self.upstream_errors,
            "ejections": self.ejections,
            "readmissions": self.readmissions,
            "uptime_seconds": self.uptime_seconds,
            "requests": self.requests,
        })
    }

    /// Decodes the result; fails on a missing or mistyped field.
    pub fn decode(v: &Value) -> Result<RouteStatsReply, WireError> {
        Ok(RouteStatsReply {
            replicas: req::<&[Value]>(v, "route_stats", "replicas")?
                .iter()
                .map(ReplicaStats::decode)
                .collect::<Result<_, _>>()?,
            healthy: req(v, "route_stats", "healthy")?,
            proxied: req(v, "route_stats", "proxied")?,
            failovers: req(v, "route_stats", "failovers")?,
            upstream_errors: req(v, "route_stats", "upstream_errors")?,
            ejections: req(v, "route_stats", "ejections")?,
            readmissions: req(v, "route_stats", "readmissions")?,
            uptime_seconds: req(v, "route_stats", "uptime_seconds")?,
            requests: req(v, "route_stats", "requests")?,
        })
    }
}

/// A `metrics` result (protocol v5): one scrape of the process-lifetime
/// observability registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReply {
    /// Prometheus-style text exposition — ready to serve to a scraper
    /// or dump to a log verbatim.
    pub text: String,
    /// Monotonic counters as `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges as `(name, value)`, sorted by name.
    pub gauges: Vec<(String, u64)>,
}

impl MetricsReply {
    /// Scrapes `registry`: its samples split into counters and gauges,
    /// then its text exposition.
    pub fn from_registry(registry: &Registry) -> MetricsReply {
        let (mut counters, mut gauges) = (Vec::new(), Vec::new());
        for s in registry.snapshot() {
            let sample = (s.name.to_string(), s.value);
            match s.kind {
                MetricKind::Counter => counters.push(sample),
                MetricKind::Gauge => gauges.push(sample),
            }
        }
        MetricsReply { text: registry.render_prometheus(), counters, gauges }
    }

    /// Value of the counter `name`, or `None` if the daemon did not
    /// expose it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find_map(|(n, v)| (n == name).then_some(*v))
    }

    /// Value of the gauge `name`, or `None` if the daemon did not
    /// expose it.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find_map(|(n, v)| (n == name).then_some(*v))
    }

    /// Encodes the result; the samples become `name: value` objects.
    pub fn encode(&self) -> Value {
        let map = |samples: &[(String, u64)]| {
            Value::Object(samples.iter().map(|(n, v)| (n.clone(), json!(*v))).collect())
        };
        json!({
            "text": self.text.as_str(),
            "counters": map(&self.counters),
            "gauges": map(&self.gauges),
        })
    }

    /// Decodes the result; fails on a missing or mistyped field or sample.
    pub fn decode(v: &Value) -> Result<MetricsReply, WireError> {
        let samples = |field: &str| match v.get(field) {
            Some(Value::Object(entries)) => entries
                .iter()
                .map(|(name, n)| {
                    let bad =
                        || WireError::bad(format!("non-integer metric '{name}' in '{field}'"));
                    n.as_u64().map(|n| (name.clone(), n)).ok_or_else(bad)
                })
                .collect(),
            _ => Err(needs::<&Value>("metrics", field)),
        };
        Ok(MetricsReply {
            text: req::<&str>(v, "metrics", "text")?.to_string(),
            counters: samples("counters")?,
            gauges: samples("gauges")?,
        })
    }
}

/// The `shutdown` result: the peer acknowledges it is stopping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReply;

impl ShutdownReply {
    /// Encodes the result.
    pub fn encode(&self) -> Value {
        json!({ "stopping": true })
    }

    /// Decodes the result; fails unless `stopping` is true.
    pub fn decode(v: &Value) -> Result<ShutdownReply, WireError> {
        if req::<bool>(v, "shutdown", "stopping")? {
            Ok(ShutdownReply)
        } else {
            Err(WireError::bad("daemon did not acknowledge shutdown"))
        }
    }
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
        // Digest affinity across the wire depends on decoded configs
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
            r#"{"op":"extract","geometry":"g","krylov":{"tol":2,"restart":40,"max_iters":600}}"#,
            r#"{"op":"extract","geometry":"g","krylov":{"tol":1,"restart":40,"max_iters":600}}"#,
            r#"{"op":"extract","geometry":"g","krylov":{"tol":0,"restart":40,"max_iters":600}}"#,
            r#"{"op":"extract","geometry":"g","krylov":{"tol":-1e-6,"restart":40,"max_iters":600}}"#,
            r#"{"op":"extract","geometry":"g","krylov":{"tol":1e999,"restart":40,"max_iters":600}}"#,
            r#"{"op":"extract","geometry":"g","krylov":{"tol":1e-6,"restart":40,"max_iters":10001}}"#,
            r#"{"op":"extract","geometry":"g","krylov":{"tol":0,"restart":40,"max_iters":18446744073709551615}}"#,
            r#"{"op":"extract","geometry":"g","fmm":{"theta":0.45,"leaf_size":0}}"#,
            r#"{"op":"extract","geometry":"g","fmm":{"theta":0,"leaf_size":12}}"#,
            r#"{"op":"extract","geometry":"g","fmm":{"theta":-1,"leaf_size":12}}"#,
            r#"{"op":"extract","geometry":"g","fmm":{"theta":1e999,"leaf_size":12}}"#,
            r#"{"op":"extract","geometry":"g","pfft":{"spacing_factor":0,"near_cells":2,"max_grid_points":4096}}"#,
            r#"{"op":"extract","geometry":"g","pfft":{"spacing_factor":-1,"near_cells":2,"max_grid_points":4096}}"#,
            r#"{"op":"extract","geometry":"g","pfft":{"spacing_factor":1,"near_cells":0,"max_grid_points":4096}}"#,
            r#"{"op":"extract","geometry":"g","pfft":{"spacing_factor":0.01,"near_cells":2,"max_grid_points":16777217}}"#,
            r#"{"op":"extract","geometry":"g","precond":"diagonal"}"#,
            r#"{"op":"extract","geometry":"g","precond":{"block_jacobi":8}}"#,
            r#"{"op":"extract","geometry":"g","auto_budget":0}"#,
            r#"{"op":"extract","geometry":"g","method":"auto","auto_budget":-5}"#,
        ];
        for line in bad {
            assert_eq!(decode_request(line).unwrap_err().code, codes::BAD_REQUEST, "{line}");
        }
        let at_cap = r#"{"op":"extract","geometry":"g","pfft":{"spacing_factor":1,"near_cells":2,"max_grid_points":16777216}}"#;
        assert!(decode_request(at_cap).is_ok(), "the default cap itself is allowed");
        let at_cap = r#"{"op":"extract","geometry":"g","krylov":{"tol":0.999,"restart":40,"max_iters":10000}}"#;
        assert!(decode_request(at_cap).is_ok(), "the iteration bound itself is allowed");
    }

    #[test]
    fn solver_stats_round_trip() {
        let stats = KrylovStats { matvecs: 120, restarts: 2, residual: 3.5e-7 };
        let v = solver_stats_value(&stats);
        assert_eq!(v["iterations"].as_u64(), Some(120), "the wire key stays `iterations`");
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
        let stats = ExecStats { submitted: 9, rejected: 2, jobs: 9, queue_seconds: 0.25 };
        let v = exec_stats_value(&stats);
        assert_eq!(exec_stats_from_value(&v).unwrap(), stats);
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
