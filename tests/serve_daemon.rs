//! End-to-end tests of the `bemcapd` daemon: concurrent clients get
//! results **bit-identical** to in-process extraction (cache cold or
//! warm, any `BEMCAP_POOL`), malformed input of every kind gets a
//! structured JSON error instead of a panic or a dropped connection, the
//! memory-bounded cache evicts under pressure without changing a bit,
//! and shutdown is clean.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use bemcap::prelude::*;
use bemcap_serve::{ServeError, ServerHandle};

mod common;
use common::wait_until;

/// The golden-fixture geometries of `tests/golden/` (same constructors
/// as `tests/golden_reference.rs`).
fn golden_geometries() -> Vec<(&'static str, Geometry)> {
    use structures::{BusParams, CrossingParams};
    vec![
        ("plate_pair", structures::parallel_plates(1.0e-6, 1.0e-6, 0.2e-6)),
        ("crossing_wires", structures::crossing_wires(CrossingParams::default())),
        ("bus3", structures::bus_crossing(2, 1, BusParams::default())),
    ]
}

fn spawn_server(cfg: ServerConfig) -> ServerHandle {
    Server::bind(cfg).expect("bind loopback").spawn().expect("spawn daemon")
}

fn default_server() -> ServerHandle {
    spawn_server(ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() })
}

fn assert_bit_identical(reply: &bemcap_serve::ExtractReply, local: &Extraction, context: &str) {
    let c = local.capacitance();
    assert_eq!(reply.dim(), c.dim(), "{context}: dimension");
    assert_eq!(reply.names, c.names(), "{context}: names");
    for i in 0..c.dim() {
        for j in 0..c.dim() {
            assert_eq!(
                reply.get(i, j).to_bits(),
                c.get(i, j).to_bits(),
                "{context}: C({i},{j}) {} vs {}",
                reply.get(i, j),
                c.get(i, j)
            );
        }
    }
}

#[test]
fn concurrent_clients_bit_identical_to_in_process_cold_and_warm() {
    let server = default_server();
    let addr = server.addr();
    const CLIENTS: usize = 4;
    let geometries = Arc::new(golden_geometries());
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let geometries = Arc::clone(&geometries);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.ping().expect("ping");
                // Two passes: the first may be cold, the second hits a
                // cache warmed by up to CLIENTS threads — results must be
                // bit-identical either way.
                for pass in 0..2 {
                    for (name, geo) in geometries.iter() {
                        let reply = client
                            .extract(geo, &ExtractOptions::default())
                            .expect("daemon extraction");
                        let local = Extractor::new().extract(geo).expect("local extraction");
                        assert_bit_identical(
                            &reply,
                            &local,
                            &format!("client {t} pass {pass} {name}"),
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let mut client = Client::connect(addr).expect("connect for stats");
    let stats = client.stats().expect("stats");
    assert!(stats.cache.hits > 0, "warm passes must hit the shared cache");
    assert!(stats.cache_entries > 0);
    // 4 clients × 2 passes × 3 extracts, + pings + this stats request.
    assert!(stats.requests >= (CLIENTS * 2 * 3) as u64);
    client.shutdown().expect("shutdown");
    server.join().expect("clean daemon exit");
}

#[test]
fn wire_batch_op_is_bit_identical_to_single_shot() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let geometries: Vec<Geometry> = golden_geometries().into_iter().map(|(_, geo)| geo).collect();
    let replies =
        client.extract_batch(&geometries, &ExtractOptions::default()).expect("batch over the wire");
    assert_eq!(replies.len(), geometries.len());
    for (i, (reply, geo)) in replies.iter().zip(&geometries).enumerate() {
        // Bit-identical to in-process extraction...
        let local = Extractor::new().extract(geo).expect("local extraction");
        assert_bit_identical(reply, &local, &format!("batch entry {i}"));
        // ...and to the single-shot wire op.
        let single = client.extract(geo, &ExtractOptions::default()).expect("single");
        for r in 0..reply.dim() {
            for c in 0..reply.dim() {
                assert_eq!(reply.get(r, c).to_bits(), single.get(r, c).to_bits());
            }
        }
    }
    // An empty batch frame is fine.
    let empty = client.extract_batch(&[], &ExtractOptions::default()).expect("empty batch");
    assert!(empty.is_empty());
    // A frame with a failing geometry reports its index and fails whole.
    let mut with_bad = geometries.clone();
    with_bad.insert(1, Geometry::new(vec![]));
    match client.extract_batch(&with_bad, &ExtractOptions::default()) {
        // An empty geometry is caught at the parse stage (`geometry`
        // code); either stage must name the failing index.
        Err(ServeError::Remote { code, message }) => {
            assert!(code == "geometry" || code == "extraction", "{code}: {message}");
            assert!(message.contains("geometry 1"), "{message}");
        }
        other => panic!("expected remote error, got {other:?}"),
    }
    client.shutdown().expect("shutdown");
    server.join().expect("clean daemon exit");
}

#[test]
fn overloaded_daemon_answers_busy_and_recovers() {
    // One worker, one queue slot: the third concurrent request must be
    // refused with a structured `busy` error.
    let server = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let slow_geo = structures::bus_crossing(3, 3, structures::BusParams::default());
    let wait_geo = structures::crossing_wires(structures::CrossingParams::default());

    // Connect every client up front, so nothing but the requests
    // themselves happens inside the worker-busy window: the slow job
    // must still be running when the second request arrives.
    let mut slow_client = Client::connect(addr).expect("slow client connect");
    let mut queued_client = Client::connect(addr).expect("queued client connect");
    let mut probe = Client::connect(addr).expect("probe connect");

    // Occupy the worker with a long extraction on its own connection.
    let slow = {
        let geo = slow_geo.clone();
        std::thread::spawn(move || {
            slow_client.extract(&geo, &ExtractOptions::default()).expect("slow extraction succeeds")
        })
    };
    wait_until("the slow job is running", || probe.stats().expect("stats").running >= 1);

    // Fill the single queue slot from the second (already-open)
    // connection.
    let queued = {
        let geo = wait_geo.clone();
        std::thread::spawn(move || {
            queued_client
                .extract(&geo, &ExtractOptions::default())
                .expect("queued extraction succeeds")
        })
    };
    wait_until("the second job is queued", || probe.stats().expect("stats").queued >= 1);

    // Worker busy + queue full: the probe's extraction must be refused
    // immediately with the busy code, not block.
    match probe.extract(&wait_geo, &ExtractOptions::default()) {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!(code, "busy");
            assert!(message.contains("queue depth 1"), "{message}");
        }
        other => panic!("expected busy rejection, got {other:?}"),
    }

    // Both in-flight requests finish normally and bit-identically.
    let slow_reply = slow.join().expect("slow thread");
    let queued_reply = queued.join().expect("queued thread");
    assert_bit_identical(
        &slow_reply,
        &Extractor::new().extract(&slow_geo).expect("local slow"),
        "slow request",
    );
    assert_bit_identical(
        &queued_reply,
        &Extractor::new().extract(&wait_geo).expect("local queued"),
        "queued request",
    );

    // The rejection shows up in the daemon's executor counters, and the
    // daemon keeps serving afterwards.
    let stats = probe.stats().expect("stats after storm");
    assert!(stats.exec.rejected >= 1, "rejection must be counted: {:?}", stats.exec);
    assert_eq!(stats.queue_depth, 1);
    let after = probe.extract(&wait_geo, &ExtractOptions::default()).expect("daemon recovered");
    assert!(after.dim() > 0);
    probe.shutdown().expect("shutdown");
    server.join().expect("clean daemon exit");
}

#[test]
fn non_default_methods_run_through_the_daemon() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let geo = structures::crossing_wires(structures::CrossingParams::default());
    let options =
        ExtractOptions { method: Method::PwcDense, mesh_divisions: Some(4), ..Default::default() };
    let reply = client.extract(&geo, &options).expect("pwc-dense over the wire");
    let local =
        Extractor::new().method(Method::PwcDense).mesh_divisions(4).extract(&geo).expect("local");
    assert_eq!(reply.method, "pwc-dense");
    assert_bit_identical(&reply, &local, "pwc-dense");
    client.shutdown().expect("shutdown");
    server.join().expect("clean daemon exit");
}

#[test]
fn every_method_variant_with_typed_configs_is_bit_identical_via_the_daemon() {
    // All five Method variants — including Auto and non-default typed
    // backend configs — through the daemon, each bit-identical to the
    // in-process extraction built from the same knobs; iterative
    // backends' solver stats round-trip alongside.
    let server = default_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let geo = structures::crossing_wires(structures::CrossingParams::default());

    let fmm = FmmConfig { theta: 0.35, leaf_size: 10 };
    let pfft = PfftConfig { spacing_factor: 1.1, ..Default::default() };
    let krylov = KrylovConfig { tol: 1e-7, restart: 30, max_iters: 500 };
    let cases: Vec<(ExtractOptions, Extractor, &str, bool)> = vec![
        (ExtractOptions::default(), Extractor::new(), "instantiable", false),
        (
            ExtractOptions {
                method: Method::PwcDense,
                mesh_divisions: Some(5),
                ..Default::default()
            },
            Extractor::new().method(Method::PwcDense).mesh_divisions(5),
            "pwc-dense",
            false,
        ),
        (
            ExtractOptions {
                method: Method::PwcFmm,
                mesh_divisions: Some(5),
                fmm: Some(fmm),
                krylov: Some(krylov),
                ..Default::default()
            },
            Extractor::new()
                .method(Method::PwcFmm)
                .mesh_divisions(5)
                .fmm_config(fmm)
                .krylov_config(krylov),
            "pwc-fmm",
            true,
        ),
        (
            ExtractOptions {
                method: Method::PwcPfft,
                mesh_divisions: Some(5),
                pfft: Some(pfft),
                krylov: Some(krylov),
                ..Default::default()
            },
            Extractor::new()
                .method(Method::PwcPfft)
                .mesh_divisions(5)
                .pfft_config(pfft)
                .krylov_config(krylov),
            "pwc-pfft",
            true,
        ),
        (
            ExtractOptions {
                method: Method::Auto,
                mesh_divisions: Some(5),
                auto_budget: Some(64 << 20),
                ..Default::default()
            },
            Extractor::new().method(Method::Auto).mesh_divisions(5).auto_memory_budget(64 << 20),
            "pwc-dense", // Auto resolves to dense at this size
            false,
        ),
    ];
    for (options, local_extractor, want_method, iterative) in cases {
        let reply = client.extract(&geo, &options).expect("daemon extraction");
        let local = local_extractor.extract(&geo).expect("local extraction");
        assert_eq!(reply.method, want_method);
        assert_eq!(reply.method, local.report().method, "{want_method}: resolved names agree");
        assert_bit_identical(&reply, &local, want_method);
        assert_eq!(reply.workers, local.report().workers, "{want_method}: workers");
        if iterative {
            let wire = reply.solver.expect("iterative backends report solver stats");
            let here = local.report().krylov.expect("local stats");
            assert_eq!(
                (wire.matvecs, wire.restarts, wire.residual.to_bits()),
                (here.matvecs, here.restarts, here.residual.to_bits()),
                "{want_method}: solver stats round-trip bit-exactly"
            );
            assert!(wire.residual < krylov.tol);
        } else {
            assert!(reply.solver.is_none(), "{want_method}: direct solves carry no solver stats");
        }
    }
    client.shutdown().expect("shutdown");
    server.join().expect("clean daemon exit");
}

#[test]
fn warm_requests_are_pure_cache_hits() {
    // One worker per request makes the second identical request's
    // hit-set deterministic: everything is resident, zero misses.
    let server = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let geo = structures::crossing_wires(structures::CrossingParams::default());
    let cold = client.extract(&geo, &ExtractOptions::default()).expect("cold");
    let warm = client.extract(&geo, &ExtractOptions::default()).expect("warm");
    assert!(cold.cache.misses > 0, "first request computes");
    assert_eq!(warm.cache.misses, 0, "second identical request is all hits: {:?}", warm.cache);
    assert_eq!(warm.cache.hits, cold.cache.lookups());
    for i in 0..warm.dim() {
        for j in 0..warm.dim() {
            assert_eq!(warm.get(i, j).to_bits(), cold.get(i, j).to_bits());
        }
    }
    client.shutdown().expect("shutdown");
    server.join().expect("clean daemon exit");
}

#[test]
fn bounded_cache_evicts_under_pressure_without_changing_results() {
    use bemcap_core::cache::ENTRY_BYTES;
    // ~48 entries of budget vs a family needing far more.
    let server = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_max_bytes: Some(48 * ENTRY_BYTES),
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut evictions = 0;
    for i in 0..4 {
        let sep = (4 + i) as f64 * 0.2e-6;
        let geo = structures::crossing_wires(structures::CrossingParams {
            separation: sep,
            ..Default::default()
        });
        let reply = client.extract(&geo, &ExtractOptions::default()).expect("extract");
        let local = Extractor::new().extract(&geo).expect("local");
        assert_bit_identical(&reply, &local, &format!("bounded sep={sep:e}"));
        evictions += reply.cache.evictions;
    }
    let stats = client.stats().expect("stats");
    assert!(evictions > 0, "a 48-entry bound must evict on this family");
    assert_eq!(stats.cache.evictions, evictions, "daemon counters match per-request sums");
    let bound = stats.cache_max_bytes.expect("bounded cache");
    assert!(stats.cache_resident_bytes <= bound, "{} > {bound}", stats.cache_resident_bytes);
    client.shutdown().expect("shutdown");
    server.join().expect("clean daemon exit");
}

#[test]
fn malformed_requests_get_structured_errors_and_the_connection_survives() {
    let server = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_frame_bytes: 64 << 10,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");

    // Invalid JSON.
    let v = client.send_raw("this is not json").expect("response");
    assert_eq!(v["ok"].as_bool(), Some(false));
    assert_eq!(v["error"]["code"].as_str(), Some("parse"));

    // Valid JSON, invalid request: the recoverable id is still echoed.
    let v = client.send_raw(r#"{"op":"selfdestruct","id":5}"#).expect("response");
    assert_eq!(v["error"]["code"].as_str(), Some("bad-request"));
    assert_eq!(v["id"].as_u64(), Some(5));

    // Bad geometry (also checks id echo on errors).
    let v = client
        .send_raw(r#"{"op":"extract","id":77,"geometry":"box 0 0 0 1 1 1\n"}"#)
        .expect("response");
    assert_eq!(v["error"]["code"].as_str(), Some("geometry"));
    assert_eq!(v["id"].as_u64(), Some(77));
    assert!(v["error"]["message"].as_str().unwrap().contains("line 1"));

    // Degenerate box: caught by the geometry layer, not a panic.
    let v = client
        .send_raw(r#"{"op":"extract","geometry":"conductor a\nbox 0 0 0 0 1 1\n"}"#)
        .expect("response");
    assert_eq!(v["error"]["code"].as_str(), Some("geometry"));

    // Oversized frame: drained and answered, not buffered or dropped.
    let big = format!(r#"{{"op":"extract","geometry":"{}"}}"#, "x".repeat(80 << 10));
    let v = client.send_raw(&big).expect("response");
    assert_eq!(v["error"]["code"].as_str(), Some("oversized"));

    // The same connection still works after every error.
    client.ping().expect("connection survives malformed traffic");

    // Remote errors surface as ServeError::Remote through typed calls.
    match client.extract_text("nonsense\n", &ExtractOptions::default()) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, "geometry"),
        other => panic!("expected remote geometry error, got {other:?}"),
    }
    client.ping().expect("still alive");

    client.shutdown().expect("shutdown");
    server.join().expect("clean daemon exit");
}

#[test]
fn hostile_operator_config_is_refused_and_the_single_worker_survives() {
    // A zero FMM leaf size used to reach `Octree::build` and kill the
    // daemon's only executor worker, wedging every later request.
    let server = spawn_server(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut client = Client::connect(server.addr()).expect("connect");
    client.set_io_timeout(Some(std::time::Duration::from_secs(30))).expect("timeout");
    let v = client
        .send_raw(
            r#"{"op":"extract","id":1,"geometry":"conductor a\nbox 0 0 0 1 1 1\n","method":"pwc-fmm","fmm":{"theta":0.45,"leaf_size":0}}"#,
        )
        .expect("response");
    assert_eq!(v["error"]["code"].as_str(), Some("bad-request"), "{v:?}");
    let geo = structures::crossing_wires(structures::CrossingParams::default());
    let reply = client.extract(&geo, &ExtractOptions::default()).expect("healthy extract");
    assert_bit_identical(&reply, &Extractor::new().extract(&geo).expect("local"), "after");
    client.shutdown().expect("shutdown");
    server.join().expect("clean daemon exit");
}

#[test]
fn typed_options_against_a_pre_v3_daemon_fail_instead_of_silently_downgrading() {
    use std::net::TcpListener;
    // A canned v2-style daemon: answers one extract with a report that
    // lacks the v3 `workers` marker (a real v2 daemon ignores the typed
    // fields entirely and solves under its own defaults).
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake daemon");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        for _ in 0..2 {
            line.clear();
            if reader.read_line(&mut line).expect("read") == 0 {
                return;
            }
            let id: u64 = line
                .split("\"id\":")
                .nth(1)
                .and_then(|s| s.trim_start().split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|s| s.parse().ok())
                .expect("request id");
            let response = format!(
                "{{\"id\":{id},\"ok\":true,\"result\":{{\"names\":[\"a\"],\"matrix\":[[1.0]],\
                 \"report\":{{\"method\":\"instantiable\",\"n\":4,\"m_templates\":null,\
                 \"setup_seconds\":0.1,\"solve_seconds\":0.1,\"memory_bytes\":128}},\
                 \"cache\":{{\"hits\":0,\"misses\":1,\"evictions\":0,\"inserted_bytes\":192,\
                 \"hit_rate\":0.0}},\"exec\":{{\"queue_seconds\":0.0}}}}}}\n"
            );
            (&stream).write_all(response.as_bytes()).expect("write");
        }
    });
    let mut client = Client::connect(addr).expect("connect");
    let geo = structures::crossing_wires(structures::CrossingParams::default());
    // Replies decode as v8 only, so the v2-shaped report is refused with
    // or without typed backend options: nothing is filled in by default.
    let typed = ExtractOptions {
        krylov: Some(KrylovConfig { tol: 1e-9, ..Default::default() }),
        ..Default::default()
    };
    for options in [typed, ExtractOptions::default()] {
        match client.extract(&geo, &options) {
            Err(ServeError::Protocol(msg)) => assert!(msg.contains("workers"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
    drop(client);
    fake.join().expect("fake daemon thread");
}

#[test]
fn bad_utf8_gets_a_structured_error() {
    let server = default_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect raw");
    stream.write_all(b"\xff\xfe{\"op\":\"ping\"}\n").expect("write bad utf8");
    stream.flush().expect("flush");
    let mut line = String::new();
    BufReader::new(stream.try_clone().expect("clone")).read_line(&mut line).expect("read");
    assert!(line.contains("\"ok\":false") && line.contains("utf8"), "got: {line}");
    // Same raw connection keeps working.
    stream.write_all(b"{\"op\":\"ping\"}\n").expect("write ping");
    let mut line2 = String::new();
    BufReader::new(stream).read_line(&mut line2).expect("read");
    assert!(line2.contains("\"pong\":true"), "got: {line2}");

    let mut client = Client::connect(server.addr()).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("clean daemon exit");
}

#[test]
fn truncated_frames_do_not_kill_the_daemon() {
    let server = default_server();
    {
        // A frame cut off mid-line, then the peer vanishes.
        let mut stream = TcpStream::connect(server.addr()).expect("connect raw");
        stream.write_all(b"{\"op\":\"ext").expect("write partial");
        stream.flush().expect("flush");
    } // dropped: connection closed with an incomplete frame
    {
        // An empty connection (open, close, no bytes).
        let _ = TcpStream::connect(server.addr()).expect("connect raw");
    }
    let mut client = Client::connect(server.addr()).expect("connect after truncation");
    client.ping().expect("daemon alive after truncated frames");
    client.shutdown().expect("shutdown");
    server.join().expect("clean daemon exit");
}

#[test]
fn blank_lines_are_ignored() {
    let server = default_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect raw");
    stream.write_all(b"\n\r\n{\"op\":\"ping\"}\n").expect("write");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read");
    assert!(line.contains("\"pong\":true"), "got: {line}");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("clean daemon exit");
}
