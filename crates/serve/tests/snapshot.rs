//! End-to-end tests of the v6 cache snapshot/restore cycle and the
//! client's IO-timeout plumbing.

use std::time::Duration;

use bemcap_geom::structures::{self, CrossingParams};
use bemcap_serve::{Client, ExtractOptions, ServeError, Server, ServerConfig};

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bemcap-snap-e2e-{tag}-{}", std::process::id()))
}

/// Warm daemon A, snapshot its pair-integral cache, cold-start daemon B
/// from the file: B's first request must hit the restored entries and
/// produce the exact bits A computed.
#[test]
fn a_snapshot_warm_starts_a_second_daemon() {
    let geo = structures::crossing_wires(CrossingParams::default());
    let options = ExtractOptions::default();
    let path = temp_path("warmstart");

    let a = Server::bind(ServerConfig { addr: "127.0.0.1:0".into(), ..Default::default() })
        .expect("bind daemon A")
        .spawn()
        .expect("spawn daemon A");
    let mut client = Client::connect(a.addr()).expect("connect A");
    let cold = client.extract(&geo, &options).expect("cold extract");
    assert!(cold.cache.misses > 0, "cold run must populate the cache");
    let snap = client.snapshot(path.to_str().unwrap()).expect("snapshot");
    assert!(snap.entries > 0, "warm cache snapshots entries");
    assert!(snap.bytes > 0);
    client.shutdown().expect("shutdown A");
    a.join().expect("A exit");

    let b = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_restore: Some(path.clone()),
        ..Default::default()
    })
    .expect("bind daemon B");
    assert_eq!(b.restored_cache_entries(), Some(snap.entries), "B restored A's entries");
    let b = b.spawn().expect("spawn daemon B");
    let mut client = Client::connect(b.addr()).expect("connect B");
    let warm = client.extract(&geo, &options).expect("warm extract");
    assert_eq!(warm.cache.misses, 0, "every template lookup hits the restored cache");
    assert!(warm.cache.hits > 0);
    let cold_bits: Vec<u64> = cold.matrix.iter().flatten().map(|v| v.to_bits()).collect();
    let warm_bits: Vec<u64> = warm.matrix.iter().flatten().map(|v| v.to_bits()).collect();
    assert_eq!(warm_bits, cold_bits, "restored-cache result diverged bitwise");
    client.shutdown().expect("shutdown B");
    b.join().expect("B exit");
    std::fs::remove_file(&path).ok();
}

/// A corrupt snapshot must fail daemon startup loudly, not limp along
/// with half a cache.
#[test]
fn a_truncated_snapshot_fails_startup() {
    let path = temp_path("corrupt");
    std::fs::write(&path, "bemcap-template-cache v4 3\ndeadbeef\n").expect("write corrupt file");
    let err = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_restore: Some(path.clone()),
        ..Default::default()
    })
    .map(|_| ())
    .expect_err("corrupt snapshot must fail bind");
    assert!(err.to_string().contains("cache restore"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// Daemon startup from a snapshot of the older `version`, one entry of
/// `words` words: the bind error.
fn bind_from_old_snapshot(version: &str, words: usize) -> String {
    let path = temp_path(version);
    let words = vec!["1"; words].join(" ");
    let text = format!("bemcap-template-cache {version} 1\n{words}\n");
    std::fs::write(&path, text).expect("write old snapshot");
    let err = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_restore: Some(path.clone()),
        ..Default::default()
    })
    .map(|_| ())
    .expect_err("an old snapshot must fail bind");
    std::fs::remove_file(&path).ok();
    err.to_string()
}

/// A v1 snapshot keys absolute template placements; its values are not
/// what the canonical evaluation computes, so restoring it would break
/// cached ≡ uncached. Startup refuses it.
#[test]
fn a_v1_snapshot_fails_startup() {
    let err = bind_from_old_snapshot("v1", 19);
    assert!(err.contains("version"), "{err}");
}

/// A v2 snapshot keys pairs in the translation-only orientation: a
/// mirrored pair stored there is not the representative the current keys
/// evaluate. Startup refuses it.
#[test]
fn a_v2_snapshot_fails_startup() {
    let err = bind_from_old_snapshot("v2", 13);
    assert!(err.contains("version"), "{err}");
}

/// A v3 snapshot keys pairs canonical under translation and mirroring
/// only: an axis-permuted pair stored there is not the representative the
/// current keys evaluate. Startup refuses it.
#[test]
fn a_v3_snapshot_fails_startup() {
    let err = bind_from_old_snapshot("v3", 13);
    assert!(err.contains("version"), "{err}");
}

/// `set_io_timeout` bounds a read against a peer that never answers;
/// `connect_with_timeout` bounds the dial itself.
#[test]
fn io_timeouts_bound_a_mute_peer() {
    // A listener that accepts and then stays silent forever.
    let mute = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = mute.local_addr().unwrap();
    let keep: std::thread::JoinHandle<Vec<std::net::TcpStream>> = std::thread::spawn(move || {
        // Hold the accepted sockets open so the client blocks on read,
        // not on EOF.
        (0..1).filter_map(|_| mute.accept().ok().map(|(s, _)| s)).collect()
    });

    let mut client =
        Client::connect_with_timeout(addr, Duration::from_millis(500)).expect("connect");
    client.set_io_timeout(Some(Duration::from_millis(100))).expect("set timeout");
    let start = std::time::Instant::now();
    match client.ping() {
        Err(ServeError::Io(_)) | Err(ServeError::Protocol(_)) => {}
        other => panic!("mute peer must time the ping out, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "timeout did not bound the read: {:?}",
        start.elapsed()
    );
    drop(keep.join().expect("accept thread"));
}
