//! # bemcap-serve — the long-running extraction service
//!
//! The paper's instantiable-basis economics (conf_dac_HsiaoD11) make
//! per-structure setup cheap and the pair-integral work *reusable*: two
//! structures sharing a template pair share the integral, bit for bit.
//! A one-shot CLI throws that reuse away at every process exit. This
//! crate keeps the engine resident:
//!
//! * [`Server`] / the `bemcapd` binary — a daemon on the [`listener`]
//!   skeleton it shares with the `bemcaprd` front tier (thread per
//!   connection, no async runtime) speaking a newline-delimited JSON
//!   protocol. Extraction runs on one shared, admission-controlled
//!   [`bemcap_core::exec::Executor`]: connection threads only parse,
//!   enqueue, and respond; a request's jobs (one per geometry or chip
//!   window) are admitted together, so overload degrades into structured
//!   `busy` rejections that ran nothing; each job is one queue task on
//!   the next idle worker. One process-lifetime, memory-bounded
//!   [`bemcap_core::TemplateCache`] is shared across every request;
//! * [`Client`] — the matching blocking client library (single
//!   [`Client::extract`] and many-geometry [`Client::extract_batch`]);
//! * [`protocol`] — the single encode/decode implementation of every
//!   request and response frame, used by the daemon, the client and the
//!   `bemcaprd` router alike (reference: `docs/WIRE_PROTOCOL.md`).
//!
//! Results over the wire are **bit-identical** to in-process extraction:
//! matrices serialize with Rust's shortest-round-trip `f64` formatting,
//! and the shared cache only ever returns the exact bits a recomputation
//! would produce, whatever its bound or eviction history.
//!
//! ## Quickstart
//!
//! ```text
//! $ cargo run --release -p bemcap-serve --bin bemcapd -- --addr 127.0.0.1:4545
//! bemcapd listening on 127.0.0.1:4545 (workers=1, queue=256, cache=64.0 MiB, frame<=8.0 MiB)
//! ```
//!
//! ```no_run
//! use bemcap_serve::{Client, ExtractOptions};
//! use bemcap_geom::structures::{self, CrossingParams};
//!
//! let mut client = Client::connect("127.0.0.1:4545")?;
//! client.ping()?;
//! let geo = structures::crossing_wires(CrossingParams::default());
//! let reply = client.extract(&geo, &ExtractOptions::default())?;
//! println!("C01 = {:e} F (cache {})", reply.get(0, 1), reply.cache);
//! # Ok::<(), bemcap_serve::ServeError>(())
//! ```

pub mod client;
pub mod error;
pub mod listener;
pub mod protocol;
pub mod server;

pub use client::{
    ChipOptions, ChipReply, Client, DaemonStats, ExtractReply, MetricsReply, ReplicaStats,
    RouteStatsReply, SnapshotReply,
};
pub use error::ServeError;
pub use listener::{Listener, Shutdown};
pub use protocol::ExtractOptions;
pub use server::{Server, ServerConfig, ServerHandle};
