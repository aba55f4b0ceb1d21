//! # bemcap-par — parallel execution substrate
//!
//! Everything the paper's §3/§5 need to run Algorithm 1:
//!
//! * [`partition`] — the independent index `k` over the upper triangle of
//!   P̃, its closed-form conversion to (i, j), and the balanced static
//!   partition into D ranges;
//! * [`pool`] — shared-memory execution (the OpenMP analogue of Fig. 4)
//!   with crossbeam scoped threads and private per-thread accumulation;
//! * [`machine`] — a **deterministic parallel-machine simulator**: replays
//!   measured task costs on D virtual nodes with a latency+bandwidth
//!   communication model, producing the speedup/efficiency numbers of
//!   Table 3 and Fig. 8 on hosts with fewer physical cores (DESIGN.md §3).
//!   It is also the distributed-memory flow of Figs. 5–6: the paper
//!   "simulates the distributed memory behavior ... through MPI" on one
//!   machine, and [`Schedule::Gathered`] models those ranks;
//! * [`queue`] — a long-lived FIFO work queue over a fixed worker pool,
//!   the substrate of `bemcap-core`'s admission-controlled executor (the
//!   scoped pool forks and joins per region; the queue stays alive for a
//!   daemon's lifetime);
//! * [`trace`] — the process-lifetime metrics layer: atomic counter/gauge
//!   [`trace::Metric`]s in a global [`trace::Registry`] and
//!   [`trace::Span`] timing scopes, scrapable as a Prometheus-style
//!   text exposition.
//!
//! ```
//! use bemcap_par::partition::{k_to_ij, triangle_size};
//!
//! let m = 5;
//! let total = triangle_size(m);
//! assert_eq!(total, 15);
//! let (i, j) = k_to_ij(total - 1);
//! assert_eq!((i, j), (m - 1, m - 1)); // last k maps to the last diagonal
//! ```

pub mod machine;
pub mod partition;
pub mod pool;
pub mod queue;
pub mod trace;

pub use machine::{CommModel, MachineSim, Phase, Schedule, SimReport};
pub use partition::{ij_to_k, k_to_ij, partition_ranges, self_scheduled_chunks, triangle_size};
pub use queue::WorkQueue;
pub use trace::{Metric, MetricKind, MetricSample, Registry, Span};
