//! `bemcapd` — the bemcap extraction daemon.
//!
//! Binds a TCP port, keeps the Galerkin engine's accel tables and a
//! memory-bounded pair-integral cache warm for its whole lifetime, and
//! answers newline-delimited JSON requests (`docs/WIRE_PROTOCOL.md`).
//!
//! ```text
//! bemcapd [--addr HOST:PORT] [--cache-mb N | --cache-unbounded]
//!         [--workers N] [--queue N] [--max-frame-mb N]
//!         [--cache-restore PATH]
//! ```
//!
//! Defaults: `--addr 127.0.0.1:0` (a free port, printed at startup),
//! 64 MiB cache, `BEMCAP_POOL` (or 1) workers, `BEMCAP_QUEUE` (or 256)
//! admission-queue slots, 8 MiB frames.
//! `--cache-restore` warm-starts the pair-integral cache from a
//! snapshot written by the v6 `snapshot` op (a bad or truncated file
//! fails startup loudly). Nonsense values (zero, non-numeric) are
//! rejected with the usage message. Exits 0 after a `shutdown` request
//! drains.

use std::process::ExitCode;

use bemcap_serve::{Server, ServerConfig};

const USAGE: &str = "usage: bemcapd [--addr HOST:PORT] [--cache-mb N | --cache-unbounded] \
                     [--workers N] [--queue N] [--max-frame-mb N] \
                     [--cache-restore PATH]\n\
                     env fallbacks: BEMCAP_POOL (workers), BEMCAP_QUEUE (queue depth)";

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value\n{USAGE}"));
        let positive = |name: &str, raw: String| {
            raw.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{name} needs a positive integer\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--cache-mb" => {
                let mb: usize = value("--cache-mb")?
                    .parse()
                    .map_err(|e| format!("bad --cache-mb: {e}\n{USAGE}"))?;
                cfg.cache_max_bytes = Some(mb << 20);
            }
            "--cache-unbounded" => cfg.cache_max_bytes = None,
            "--workers" => cfg.workers = positive("--workers", value("--workers")?)?,
            "--queue" => cfg.queue_depth = positive("--queue", value("--queue")?)?,
            "--max-frame-mb" => {
                cfg.max_frame_bytes = positive("--max-frame-mb", value("--max-frame-mb")?)? << 20;
            }
            "--cache-restore" => {
                cfg.cache_restore = Some(value("--cache-restore")?.into());
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    Ok(cfg)
}

fn fmt_mib(bytes: usize) -> String {
    format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let cache_desc = cfg.cache_max_bytes.map_or("unbounded".to_string(), fmt_mib);
    let frame_desc = fmt_mib(cfg.max_frame_bytes);
    let workers = cfg.workers;
    let queue = cfg.queue_depth;
    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bemcapd: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(count) = server.restored_cache_entries() {
        println!("bemcapd: restored {count} cache entries from snapshot");
    }
    match server.local_addr() {
        Ok(addr) => {
            // The startup line is part of the interface: scripts (and the
            // CI smoke job) scrape the bound address from it.
            println!(
                "bemcapd listening on {addr} (workers={workers}, queue={queue}, \
                 cache={cache_desc}, frame<={frame_desc})"
            );
        }
        Err(e) => {
            eprintln!("bemcapd: cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => {
            println!("bemcapd: shutdown complete");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bemcapd: fatal: {e}");
            ExitCode::FAILURE
        }
    }
}
