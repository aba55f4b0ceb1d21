//! # bemcap-router — the sharding front tier (`bemcaprd`)
//!
//! One `bemcapd` daemon turns the paper's instantiable-basis reuse
//! (conf_dac_HsiaoD11) into a warm, process-lifetime cache. This crate
//! scales that out: a front-tier proxy that speaks the *same*
//! newline-delimited JSON protocol and shards payload requests across N
//! daemon replicas so every replica's cache stays warm for *its* slice
//! of the workload instead of all replicas cooling each other's.
//!
//! * [`balance`] — routing keys (solver config digest folded with a
//!   geometry content hash) and rendezvous hashing onto the replica
//!   set: repeats hit the same warm replica; losing a replica remaps
//!   only its own share.
//! * [`replica`] — per-replica health state, lifetime counters, and a
//!   bounded pool of [`bemcap_serve::Client`] connections; frames are
//!   relayed **verbatim** so routed results stay bit-identical to
//!   direct-to-daemon results by construction.
//! * [`server`] — the [`Router`] listener: thread-per-connection
//!   dispatch, a background health checker with consecutive-failure
//!   ejection and first-success re-admission, connection-level failover
//!   down the rendezvous order, and the v6 `route_stats` surface.
//!
//! ## Quickstart
//!
//! ```text
//! $ bemcapd --addr 127.0.0.1:4545 &
//! $ bemcapd --addr 127.0.0.1:4546 &
//! $ bemcaprd --addr 127.0.0.1:4500 \
//!       --replica 127.0.0.1:4545 --replica 127.0.0.1:4546
//! bemcaprd listening on 127.0.0.1:4500 (replicas=2, eject-after=3, pool=4)
//! ```
//!
//! Clients connect to the router exactly as they would to a daemon —
//! [`bemcap_serve::Client`] works unchanged; `route_stats` (and `ping`'s
//! `"router": true`) are the only tells.

pub mod balance;
pub mod replica;
pub mod server;

pub use balance::{routing_key, Balancer};
pub use replica::Replica;
pub use server::{Router, RouterConfig, RouterHandle};
