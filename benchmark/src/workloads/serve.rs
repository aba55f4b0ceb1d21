//! `serve_warm` and `serve_cold`: the whole stack over the wire.
//!
//! Two client threads, closed loop (the callers are extraction flows
//! that wait for each reply), through an in-process `bemcaprd` to two
//! in-process `bemcapd` replicas of one worker each. One op is one wire
//! request.
//!
//! * warm — passes over a fixed seeded family (per 12 calls 10 `extract`:
//!   a 6-point h-sweep, 3 width corners, a bus 3×3; one `batch` of the
//!   sweep; one `chip` of bus 4×4 in 2×2 windows) against 64 MiB caches
//!   a cold pass has filled: codec, framing, queue, cache reads, relay;
//! * cold — passes over the bus sizes m×n, m, n ∈ {2,3,4}, every request
//!   a never-seen seeded bus, against 1 MiB caches: cache inserts and
//!   evictions, compute-bound latency.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use bemcap_core::metrics::Registry;
use bemcap_core::{ChipExtractor, Extractor};
use bemcap_geom::io::{parse_geometry, write_geometry};
use bemcap_geom::structures::{self, BusParams, CrossingParams};
use bemcap_geom::Geometry;
use bemcap_linalg::SparseMatrix;
use bemcap_router::{routing_key, Balancer, Router, RouterConfig, RouterHandle};
use bemcap_serve::protocol::{
    build_extractor, decode_request, encode_request, ok_response, Request,
};
use serde_json::Value;

use bemcap_serve::{
    ChipOptions, ChipReply, Client, ExtractOptions, ExtractReply, Server, ServerConfig,
    ServerHandle,
};

use super::{
    jittered_bus, matrix_of, note_tail, peak_rss_mb, placed, set_up, timed, Ctx, Outcome, Window,
    JITTER,
};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::spec;
use crate::{check, stats};

const CLIENTS: usize = 2;
const REPLICAS: usize = 2;

/// In-process references computed for the bit-identity check: every call
/// of the warm family, an even stride through the cold stream.
const MAX_REFERENCES: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Warm,
    Cold,
}

impl Mode {
    fn cache_bytes(self) -> usize {
        match self {
            Mode::Warm => 64 << 20,
            Mode::Cold => 1 << 20,
        }
    }

    /// Fewest timed requests in a run, however short the window.
    fn min_requests(self, ctx: &Ctx) -> usize {
        match self {
            Mode::Warm => ctx.size(1000, stats::P95_MIN_SAMPLES),
            Mode::Cold => stats::P95_MIN_SAMPLES,
        }
    }
}

/// One wire request and the geometry it carries.
enum Call {
    Extract(Geometry),
    Batch(Vec<Geometry>),
    Chip(Geometry),
}

enum Reply {
    Extract(ExtractReply),
    Batch(Vec<ExtractReply>),
    Chip(ChipReply),
}

impl Call {
    fn geometries(&self) -> &[Geometry] {
        match self {
            Call::Extract(g) | Call::Chip(g) => std::slice::from_ref(g),
            Call::Batch(gs) => gs,
        }
    }

    fn send(&self, client: &mut Client) -> Result<Reply, String> {
        let options = ExtractOptions::default();
        match self {
            Call::Extract(g) => client.extract(g, &options).map(Reply::Extract),
            Call::Batch(gs) => client.extract_batch(gs, &options).map(Reply::Batch),
            Call::Chip(g) => client.chip(g, &ChipOptions::default()).map(Reply::Chip),
        }
        .map_err(|e| e.to_string())
    }

    /// [`Call::send`] under spans: the geometry text, then the round trip
    /// (`batch` writes its texts inside the client, so it is one span).
    fn send_traced(&self, client: &mut Client, rec: &mut Recorder) -> Result<Reply, String> {
        let options = ExtractOptions::default();
        match self {
            Call::Extract(g) => {
                let text = rec.span("geom.io.write", || write_geometry(g));
                rec.span("serve.client.roundtrip", || client.extract_text(&text, &options))
                    .map(Reply::Extract)
            }
            Call::Batch(gs) => rec
                .span("serve.client.roundtrip", || client.extract_batch(gs, &options))
                .map(Reply::Batch),
            Call::Chip(g) => {
                let text = rec.span("geom.io.write", || write_geometry(g));
                rec.span("serve.client.roundtrip", || {
                    client.chip_text(&text, &ChipOptions::default())
                })
                .map(Reply::Chip)
            }
        }
        .map_err(|e| e.to_string())
    }

    /// The frame the client sends, for the codec and routing measurements.
    fn request(&self) -> Request {
        let (id, options) = (Some(1), ExtractOptions::default());
        match self {
            Call::Extract(g) => Request::Extract { id, geometry: write_geometry(g), options },
            Call::Batch(gs) => {
                Request::Batch { id, geometries: gs.iter().map(write_geometry).collect(), options }
            }
            Call::Chip(g) => {
                let c = ChipOptions::default();
                Request::Chip {
                    id,
                    geometry: write_geometry(g),
                    options,
                    nx: c.nx,
                    ny: c.ny,
                    halo: c.halo,
                }
            }
        }
    }

    /// Checks a reply: the invariants of every matrix in it and, when
    /// `compare`, bit identity with the in-process extraction.
    fn verify(&self, reply: &Reply, compare: bool) -> Result<(), String> {
        let options = ExtractOptions::default();
        match (self, reply) {
            (Call::Extract(g), Reply::Extract(r)) => verify_extract(g, r, compare),
            (Call::Batch(gs), Reply::Batch(rs)) if gs.len() == rs.len() => {
                gs.iter().zip(rs).try_for_each(|(g, r)| verify_extract(g, r, compare))
            }
            (Call::Chip(g), Reply::Chip(r)) => {
                let got = SparseMatrix::from_triplets(r.dim, r.dim, &r.entries);
                let tol = spec::workload(spec::CHIP_ECO).expect("declared").tolerance;
                check::invariants(&got, tol)?;
                if !compare {
                    return Ok(());
                }
                let c = ChipOptions::default();
                let want = ChipExtractor::new(build_extractor(&options))
                    .windows(c.nx, c.ny)
                    .extract(g)
                    .map_err(|e| format!("in-process chip extraction: {e}"))?;
                let want: Vec<_> = want.capacitance().matrix().iter().collect();
                let same = want.len() == r.entries.len()
                    && want
                        .iter()
                        .zip(&r.entries)
                        .all(|(a, b)| (a.0, a.1, a.2.to_bits()) == (b.0, b.1, b.2.to_bits()));
                same.then_some(())
                    .ok_or_else(|| "chip reply differs from the in-process extraction".into())
            }
            _ => Err("reply does not match the request".into()),
        }
    }
}

fn verify_extract(geo: &Geometry, reply: &ExtractReply, compare: bool) -> Result<(), String> {
    let got = matrix_of(&reply.matrix);
    check::invariants(&got, check::SYMMETRY_TOL)?;
    if !compare {
        return Ok(());
    }
    let want = Extractor::new().extract(geo).map_err(|e| format!("in-process extraction: {e}"))?;
    let want = want.capacitance().matrix();
    if check::bit_identical(got.as_slice(), want.as_slice()) {
        Ok(())
    } else {
        Err(format!("reply is {:e} off the in-process extraction", check::max_rel_err(&got, want)))
    }
}

/// Seeded variants of every shape in a family. A pass keeps the mix of
/// the shapes; the variants give the router enough distinct keys that how
/// the seed happens to shard them moves the load balance by little.
const VARIANTS: usize = 4;

/// The warm family: per variant 10 `extract` (a 6-point h-sweep, three
/// width corners, a bus 3×3), one `batch` of the sweep and one `chip` of
/// bus 4×4; thickness and position seeded.
fn warm_family(rng: &mut Rng) -> Vec<Arc<Call>> {
    let mut calls = Vec::new();
    for _ in 0..VARIANTS {
        let crossing = CrossingParams::default();
        let crossing =
            CrossingParams { thickness: crossing.thickness * rng.jitter(JITTER), ..crossing };
        let sweep: Vec<Geometry> = (0..6)
            .map(|i| {
                let separation = 0.3e-6 + 0.2e-6 * f64::from(i);
                placed(rng, &structures::crossing_wires(CrossingParams { separation, ..crossing }))
            })
            .collect();
        let nominal = BusParams::default();
        let corners = [0.93, 1.0, 1.07].map(|f| {
            placed(
                rng,
                &structures::bus_crossing(2, 2, BusParams { width: nominal.width * f, ..nominal }),
            )
        });
        calls.extend(sweep.iter().cloned().map(Call::Extract));
        calls.extend(corners.map(Call::Extract));
        calls.push(Call::Extract(jittered_bus(rng, 3, 3)));
        calls.push(Call::Batch(sweep));
        calls.push(Call::Chip(jittered_bus(rng, 4, 4)));
    }
    calls.into_iter().map(Arc::new).collect()
}

/// Where a client's next call comes from: passes over a list of shapes,
/// each pass in a fresh seeded order, so every pass is the same work.
struct Source {
    rng: Rng,
    order: Vec<usize>,
    shapes: Shapes,
}

enum Shapes {
    /// A fixed family, the same calls every pass.
    Family(Vec<Arc<Call>>),
    /// Bus sizes; every call is a never-seen bus of the size drawn.
    Sizes(Vec<(usize, usize)>),
}

impl Source {
    fn pass_len(&self) -> usize {
        match &self.shapes {
            Shapes::Family(calls) => calls.len(),
            Shapes::Sizes(sizes) => sizes.len(),
        }
    }

    fn next(&mut self) -> Arc<Call> {
        if self.order.is_empty() {
            self.order = (0..self.pass_len()).collect();
            self.rng.shuffle(&mut self.order);
        }
        let at = self.order.pop().expect("refilled");
        match &self.shapes {
            Shapes::Family(calls) => Arc::clone(&calls[at]),
            Shapes::Sizes(sizes) => {
                Arc::new(Call::Extract(jittered_bus(&mut self.rng, sizes[at].0, sizes[at].1)))
            }
        }
    }
}

fn source(ctx: &Ctx, mode: Mode, client: usize) -> Source {
    let shapes = match mode {
        Mode::Warm => Shapes::Family(warm_family(&mut ctx.rng("serve_warm/family"))),
        Mode::Cold => {
            let (lo, hi) = ctx.size((2, 4), (1, 1));
            Shapes::Sizes((lo..=hi).flat_map(|m| (lo..=hi).map(move |n| (m, n))).collect())
        }
    };
    Source {
        rng: ctx.rng(&format!("{}/client{client}", ctx.workload.name)),
        order: Vec::new(),
        shapes,
    }
}

/// Two daemons behind a router, and the clients connected to it. Dropping
/// it shuts everything down and joins every thread.
struct Stack {
    replicas: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    clients: Vec<(Client, Source)>,
}

impl Stack {
    fn replica_addrs(&self) -> Vec<String> {
        self.replicas.iter().map(|r| r.addr().to_string()).collect()
    }

    fn router_addr(&self) -> String {
        self.router.as_ref().expect("running").addr().to_string()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.clients.clear();
        let stop = |addr: String| {
            if let Ok(mut c) = Client::connect(addr.as_str()) {
                let _ = c.shutdown();
            }
        };
        if let Some(router) = self.router.take() {
            stop(router.addr().to_string());
            let _ = router.join();
        }
        for replica in self.replicas.drain(..) {
            stop(replica.addr().to_string());
            let _ = replica.join();
        }
    }
}

/// Set-up: bind and spawn the daemons and the router, connect the
/// clients, then the untimed warm-up: one pass per client (for the warm
/// family the cold pass that fills the caches).
fn build(ctx: &Ctx, mode: Mode) -> Stack {
    let replicas: Vec<ServerHandle> = (0..REPLICAS)
        .map(|_| {
            Server::bind(ServerConfig {
                cache_max_bytes: Some(mode.cache_bytes()),
                workers: 1,
                ..Default::default()
            })
            .and_then(Server::spawn)
            .expect("daemon starts")
        })
        .collect();
    let mut stack = Stack { replicas, router: None, clients: Vec::new() };
    let router =
        Router::bind(RouterConfig { replicas: stack.replica_addrs(), ..Default::default() })
            .and_then(Router::spawn)
            .expect("router starts");
    stack.router = Some(router);
    for c in 0..CLIENTS {
        let client = Client::connect(stack.router_addr().as_str()).expect("client connects");
        stack.clients.push((client, source(ctx, mode, c)));
    }
    for (client, source) in &mut stack.clients {
        for _ in 0..source.pass_len() {
            source.next().send(client).expect("warm-up request");
        }
    }
    stack
}

/// What is kept of every reply: enough to account for it and to tell it
/// from another reply to the same call. The replies themselves are kept
/// only the first time a client sees a call, so that what the benchmark
/// holds does not grow into the `peak_rss_mb` it reports.
struct Digest {
    /// FNV-1a over the bit patterns of every matrix entry.
    bits: u64,
    /// Executor jobs the request made: a batch is one per geometry, a chip
    /// one per window it had to extract.
    jobs: u64,
    /// Seconds the daemon reports inside the solver (`extract` only).
    compute_s: Option<f64>,
}

impl Digest {
    fn of(reply: &Reply) -> Digest {
        let mut bits = 0xcbf2_9ce4_8422_2325_u64;
        let mut fold = |v: f64| bits = (bits ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        let mut fold_matrix = |r: &ExtractReply| r.matrix.iter().flatten().for_each(|&v| fold(v));
        let (jobs, compute_s) = match reply {
            Reply::Extract(r) => {
                fold_matrix(r);
                (1, Some(r.setup_seconds + r.solve_seconds))
            }
            Reply::Batch(rs) => {
                rs.iter().for_each(&mut fold_matrix);
                (rs.len() as u64, None)
            }
            Reply::Chip(r) => {
                r.entries.iter().for_each(|e| fold(e.2));
                (r.extracted as u64, None)
            }
        };
        Digest { bits, jobs, compute_s }
    }
}

/// One timed request as its client saw it.
struct Sample {
    call: Arc<Call>,
    latency: f64,
    traced: bool,
    outcome: Result<Digest, String>,
    /// The reply, the first time this client made this call (boxed: most
    /// samples hold none).
    reply: Option<Box<Reply>>,
}

/// A client's closed loop: the next request goes out when the previous
/// reply is in. In a traced run every other request runs under spans.
fn client_loop(
    client: &mut Client,
    source: &mut Source,
    window: &Window,
    min_requests: usize,
    mut rec: Option<&mut Recorder>,
    index: usize,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut seen = HashSet::new();
    while window.open() || samples.len() < min_requests {
        let call = source.next();
        let traced = rec.is_some() && samples.len() % 2 == 1;
        let (latency, reply) = match rec.as_deref_mut().filter(|_| traced) {
            Some(rec) => {
                let root = rec.begin_op((samples.len() * CLIENTS + index) as u64, "op");
                let out = timed(|| call.send_traced(client, rec));
                rec.exit(root);
                out
            }
            None => timed(|| call.send(client)),
        };
        let outcome = reply.as_ref().map(Digest::of).map_err(String::clone);
        let reply = reply.ok().filter(|_| seen.insert(Arc::as_ptr(&call))).map(Box::new);
        samples.push(Sample { call, latency, traced, outcome, reply });
    }
    samples
}

/// Values of the named counters in the global registry (the daemons and
/// the router run in this process, so its registry is theirs).
fn counters(names: &[&str]) -> Vec<u64> {
    let snapshot = Registry::global().snapshot();
    names.iter().map(|n| snapshot.iter().find(|s| s.name == *n).map_or(0, |s| s.value)).collect()
}

const COUNTERS: [&str; 11] = [
    "bemcap_router_requests_total",
    "bemcap_exec_jobs_total",
    "bemcap_extractions_total",
    "bemcap_template_cache_hits_total",
    "bemcap_template_cache_misses_total",
    "bemcap_template_cache_evictions_total",
    "bemcap_exec_submitted_total",
    "bemcap_exec_micro_batches_total",
    "bemcap_exec_coalesced_total",
    "bemcap_exec_rejected_total",
    "bemcap_exec_queue_wait_nanos_total",
];

pub fn run(ctx: &Ctx, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, mut stack) = set_up(ctx, || build(ctx, mode));
    let mut probe = Client::connect(stack.router_addr().as_str()).expect("probe connects");
    let forwards = |probe: &mut Client| {
        let stats = probe.route_stats().expect("route_stats");
        (stats.replicas.iter().map(|r| r.requests).collect::<Vec<u64>>(), stats.failovers)
    };

    // The timed window. Nothing but the clients' requests crosses the
    // router inside it, so the counter deltas below are theirs alone.
    let epoch = Instant::now();
    let mut recorders: Vec<Recorder> = (0..CLIENTS).map(|_| Recorder::with_epoch(epoch)).collect();
    let routed_before = forwards(&mut probe);
    let before = counters(&COUNTERS);
    let min_requests = mode.min_requests(ctx).div_ceil(CLIENTS);
    let window = Window::begin(ctx.seconds);
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = stack
            .clients
            .iter_mut()
            .zip(&mut recorders)
            .enumerate()
            .map(|(index, ((client, source), rec))| {
                let window = &window;
                let rec = ctx.trace.then_some(rec);
                scope.spawn(move || client_loop(client, source, window, min_requests, rec, index))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = window.began.elapsed().as_secs_f64();
    let after = counters(&COUNTERS);
    let routed_after = forwards(&mut probe);
    let rss = peak_rss_mb();
    let delta = |i: usize| after[i] - before[i];

    let samples: Vec<&Sample> = per_client.iter().flatten().collect();
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency).collect();
    out.set("setup_s", setup_s);
    out.set_median("op_p50_s", &latencies);
    note_tail(&mut out, &latencies);
    if let Some(p95) = stats::p95(&latencies) {
        out.set("op_p95_s", p95);
        out.samples.insert("op_p95_s", latencies.len());
    }
    out.set("ops_per_s", samples.len() as f64 / wall);
    out.set("peak_rss_mb", rss);

    // Verification. A kept reply must meet the invariants and, when its
    // call has an in-process reference (one per call, on the first reply),
    // match it bit for bit; every other reply must be the same bits as the
    // kept one, whichever replica, pass or client it came through.
    let mut distinct: Vec<*const Call> = samples.iter().map(|s| Arc::as_ptr(&s.call)).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let stride = distinct.len().div_ceil(MAX_REFERENCES);
    let referenced =
        |p: &*const Call| distinct.binary_search(p).expect("listed").is_multiple_of(stride);
    let mut first: HashMap<*const Call, u64> = HashMap::new();
    let mut jobs = 0;
    for s in samples
        .iter()
        .filter(|s| s.reply.is_some())
        .chain(samples.iter().filter(|s| s.reply.is_none()))
    {
        let key = Arc::as_ptr(&s.call);
        let checked = s.outcome.as_ref().map_err(String::clone).and_then(|digest| {
            jobs += digest.jobs;
            if let Some(reply) = &s.reply {
                s.call.verify(reply, referenced(&key) && !first.contains_key(&key))?;
            }
            (*first.entry(key).or_insert(digest.bits) == digest.bits)
                .then_some(())
                .ok_or_else(|| "two replies to one call differ".to_string())
        });
        out.check("request", checked);
    }
    // The reference is bit identity: 0 when every reply passed, else 1
    // (the failing requests' notes say by how much).
    out.set_rel_err(ctx, if out.failed == 0 { 0.0 } else { 1.0 });

    // Op accounting: what the program counted must be what was sent.
    let sent = samples.len() as u64;
    for (what, counted, expected) in [
        ("bemcap_router_requests_total", delta(0), sent),
        ("bemcap_exec_jobs_total", delta(1), jobs),
        ("bemcap_extractions_total", delta(2), jobs),
    ] {
        if counted != expected {
            out.fail(format!(
                "{what} moved by {counted} over the window, the ops sent make {expected}"
            ));
        }
    }

    if ctx.trace {
        let mut rec = Recorder::with_epoch(epoch);
        recorders.into_iter().for_each(|r| rec.absorb(r));
        let untraced: Vec<f64> = samples.iter().filter(|s| !s.traced).map(|s| s.latency).collect();
        super::finish_trace(ctx, &mut out, &rec, &untraced);
        out.set("core.cache.hit_ratio", delta(3) as f64 / (delta(3) + delta(4)).max(1) as f64);
        out.set("core.cache.evictions", delta(5) as f64);
        let resident: usize = stack.replicas.iter().map(|r| r.cache().resident_bytes()).sum();
        out.set("core.cache.resident_mb", resident as f64 / f64::from(1 << 20));
        out.set("core.exec.queue_wait_s", delta(10) as f64 * 1e-9 / delta(1).max(1) as f64);
        out.set("core.exec.jobs_per_micro_batch", delta(1) as f64 / delta(7).max(1) as f64);
        out.set("core.exec.coalesced_share", delta(8) as f64 / delta(6).max(1) as f64);
        out.set("core.exec.rejected", delta(9) as f64);
        out.set("router.failovers", (routed_after.1 - routed_before.1) as f64);

        // Digest affinity: the replica each request should have reached,
        // against where the router's own counts say they went.
        let balancer = Balancer::new(&stack.replica_addrs());
        let mut keys: HashMap<*const Call, usize> = HashMap::new();
        let mut predicted = [0u64; REPLICAS];
        for s in &samples {
            let shard = *keys.entry(Arc::as_ptr(&s.call)).or_insert_with(|| {
                balancer
                    .pick(routing_key(&s.call.request()).expect("payload op"))
                    .expect("replicas")
            });
            predicted[shard] += 1;
        }
        let matched: u64 =
            (0..REPLICAS).map(|i| predicted[i].min(routed_after.0[i] - routed_before.0[i])).sum();
        out.set("router.balance.affinity_share", matched as f64 / sent as f64);

        let overheads: Vec<f64> = samples
            .iter()
            .filter(|s| !s.traced)
            .filter_map(|s| Some(s.latency - s.outcome.as_ref().ok()?.compute_s?))
            .collect();
        out.set_median("serve.server.overhead_s", &overheads);
        let calls: Vec<Arc<Call>> = {
            let mut seen = HashMap::new();
            samples
                .iter()
                .filter(|s| seen.insert(Arc::as_ptr(&s.call), ()).is_none())
                .map(|s| Arc::clone(&s.call))
                .collect()
        };
        layer_metrics(&mut out, &stack, &calls[..calls.len().min(MAX_REFERENCES)]);
    }
    drop(probe);
    out
}

/// Micro-measurements on the workload's own requests: the geometry text
/// format, the wire codec, routing-key hashing, and the relay hop.
fn layer_metrics(out: &mut Outcome, stack: &Stack, calls: &[Arc<Call>]) {
    const REPS: usize = 20;
    let mean = |total_s: f64, n: usize| total_s / (n * REPS) as f64;
    let repeat = |f: &mut dyn FnMut()| timed(|| (0..REPS).for_each(|_| f())).0;

    let geos: Vec<&Geometry> = calls.iter().flat_map(|c| c.geometries()).collect();
    let texts: Vec<String> = geos.iter().map(|g| write_geometry(g)).collect();
    let write_s =
        repeat(&mut || geos.iter().for_each(|g| drop(std::hint::black_box(write_geometry(g)))));
    let parse_s =
        repeat(&mut || texts.iter().for_each(|t| drop(std::hint::black_box(parse_geometry(t)))));
    out.set("geom.io.write_s", mean(write_s, geos.len()));
    out.set("geom.io.parse_s", mean(parse_s, texts.len()));
    out.set(
        "geom.io.bytes",
        texts.iter().map(String::len).sum::<usize>() as f64 / texts.len() as f64,
    );

    let requests: Vec<Request> = calls.iter().map(|c| c.request()).collect();
    let lines: Vec<String> = requests.iter().map(encode_request).collect();
    let encode_s =
        repeat(&mut || requests.iter().for_each(|r| drop(std::hint::black_box(encode_request(r)))));
    let decode_s =
        repeat(&mut || lines.iter().for_each(|l| drop(std::hint::black_box(decode_request(l)))));
    let key_s = repeat(&mut || {
        requests.iter().for_each(|r| {
            std::hint::black_box(routing_key(r));
        })
    });
    out.set("serve.protocol.encode_request_s", mean(encode_s, requests.len()));
    out.set("serve.protocol.decode_request_s", mean(decode_s, lines.len()));
    out.set("router.balance.routing_key_ns", mean(key_s, requests.len()) * 1e9);
    out.set(
        "serve.wire.request_bytes",
        lines.iter().map(String::len).sum::<usize>() as f64 / lines.len() as f64,
    );

    // One result body per request for the response codec, then the relay
    // hop: the workload's smallest request straight to one replica and
    // through the router, alternating. It alone fits even the 1 MiB caches,
    // so after the first exchange both paths answer from a warm cache and
    // the difference is the hop.
    let mut direct = Client::connect(stack.replica_addrs()[0].as_str()).expect("direct connects");
    let mut routed = Client::connect(stack.router_addr().as_str()).expect("routed connects");
    let results: Vec<Value> = lines
        .iter()
        .map(|l| {
            direct.send_raw(l).expect("direct request").get("result").cloned().expect("ok reply")
        })
        .collect();
    let smallest = lines.iter().min_by_key(|l| l.len()).expect("a request");
    routed.send_raw(smallest).expect("routed request");
    direct.send_raw(smallest).expect("direct request");
    let (mut direct_s, mut routed_s) = (Vec::new(), Vec::new());
    for _ in 0..10 * REPS {
        direct_s.push(timed(|| direct.send_raw(smallest).expect("direct request")).0);
        routed_s.push(timed(|| routed.send_raw(smallest).expect("routed request")).0);
    }
    out.set("router.relay.overhead_s", stats::median(&routed_s) - stats::median(&direct_s));
    out.samples.insert("router.relay.overhead_s", routed_s.len());

    let responses: Vec<String> = results.iter().map(|r| ok_response(Some(1), r.clone())).collect();
    let respond_s = repeat(&mut || {
        results.iter().for_each(|r| drop(std::hint::black_box(ok_response(Some(1), r.clone()))));
    });
    out.set("serve.protocol.encode_response_s", mean(respond_s, results.len()));
    out.set(
        "serve.wire.response_bytes",
        responses.iter().map(String::len).sum::<usize>() as f64 / responses.len() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first frames client 0 would send: geometry text and order.
    fn frames(seed: u64, mode: Mode) -> Vec<String> {
        let name = if mode == Mode::Warm { spec::SERVE_WARM } else { spec::SERVE_COLD };
        let ctx = Ctx {
            workload: spec::workload(name).expect("declared"),
            seed,
            seconds: 1.0,
            trace: false,
            smoke: false,
            started: Instant::now(),
            out_dir: std::path::PathBuf::new(),
        };
        let mut source = source(&ctx, mode, 0);
        (0..60).map(|_| encode_request(&source.next().request())).collect()
    }

    #[test]
    fn same_seed_same_frames_in_the_same_order_and_another_seed_differs() {
        for mode in [Mode::Warm, Mode::Cold] {
            assert_eq!(frames(5, mode), frames(5, mode));
            assert_ne!(frames(5, mode), frames(6, mode));
            let mut sorted = (frames(5, mode), frames(6, mode));
            sorted.0.sort();
            sorted.1.sort();
            assert_ne!(
                sorted.0, sorted.1,
                "seeds must differ in the geometry text, not only in order"
            );
        }
    }

    #[test]
    fn every_pass_is_the_same_mix() {
        let kinds = |frames: &[String]| {
            let count = |op: &str| {
                frames.iter().filter(|f| f.contains(&format!("\"op\":\"{op}\""))).count()
            };
            (count("extract"), count("batch"), count("chip"))
        };
        let warm = frames(9, Mode::Warm);
        assert_eq!(kinds(&warm[..48]), (40, 4, 4));
        let cold = frames(9, Mode::Cold);
        let sizes = |pass: &[String]| {
            let mut s: Vec<usize> = pass.iter().map(|f| f.matches("conductor ").count()).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes(&cold[..9]), [4, 5, 5, 6, 6, 6, 7, 7, 8]);
        assert_eq!(sizes(&cold[..9]), sizes(&cold[9..18]));
    }
}
