//! Deterministic parallel-machine simulator.
//!
//! The paper's scaling numbers (Table 3, Fig. 8) were measured on 4- and
//! 10-core machines. This host may have fewer physical cores, so wall-clock
//! speedups are not measurable directly; instead we *replay measured task
//! costs* on a simulated machine (DESIGN.md §3):
//!
//! * every task's cost is a real, measured single-thread duration;
//! * D virtual nodes execute their assigned tasks back to back;
//! * communication is charged with a latency + bandwidth (α–β) model on
//!   the byte counts the algorithm moves (8 B per gathered value);
//! * barriers and serial sections model the algorithms' dependency
//!   structure (tree levels for FMM, transposes for FFT, the final gather
//!   of pair values for Algorithm 1).
//!
//! Because every input is measured and the schedule is deterministic, the
//! resulting speedup/efficiency reflect the *algorithms'* scalability —
//! load balance, serial fraction, communication volume — rather than the
//! host's core count.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::partition::{partition_ranges, self_scheduled_chunks};

/// α–β communication cost model: a message of `b` bytes costs
/// `latency + b · inv_bandwidth` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommModel {
    /// Per-message latency α in seconds.
    pub latency: f64,
    /// Inverse bandwidth β in seconds per byte.
    pub inv_bandwidth: f64,
}

impl CommModel {
    /// A shared-memory-like model: sub-microsecond latency, tens of GB/s.
    pub fn shared_memory() -> CommModel {
        CommModel { latency: 2.0e-7, inv_bandwidth: 1.0 / 20.0e9 }
    }

    /// A commodity-cluster model: ~10 µs latency, ~1 GB/s links — the
    /// regime of the 1996/2001 baselines of Fig. 8.
    pub fn cluster() -> CommModel {
        CommModel { latency: 1.0e-5, inv_bandwidth: 1.0 / 1.0e9 }
    }

    /// Cost of one point-to-point message of `bytes`.
    pub fn message_cost(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 * self.inv_bandwidth
    }
}

/// One step of a simulated parallel program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Phase {
    /// Every node runs independently; `costs_per_node[d]` seconds on node d.
    Parallel {
        /// Per-node compute seconds (length must equal the node count).
        costs_per_node: Vec<f64>,
    },
    /// All nodes wait for the slowest.
    Barrier,
    /// A single node (node 0) works while the others idle.
    Serial {
        /// Seconds of serial work.
        seconds: f64,
    },
    /// Every node exchanges `bytes` with every other node (dense
    /// all-to-all, e.g. an FFT transpose or Krylov residual exchange).
    AllToAll {
        /// Bytes per pairwise message.
        bytes: usize,
    },
    /// Node 0 sends `bytes` to every other node (tree broadcast).
    Broadcast {
        /// Bytes broadcast.
        bytes: usize,
    },
    /// Every node sends its payload to node 0, which receives serially —
    /// the value gather of Figs. 5–6.
    GatherTo0 {
        /// Bytes sent by each node (length must equal the node count;
        /// entry 0 is ignored).
        bytes_per_node: Vec<usize>,
    },
}

/// Result of simulating a phase list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Number of simulated nodes.
    pub nodes: usize,
    /// Simulated makespan in seconds.
    pub makespan: f64,
    /// Total compute seconds summed over nodes (work).
    pub total_work: f64,
    /// Seconds attributed to communication on the critical path.
    pub comm_seconds: f64,
}

impl SimReport {
    /// Speedup with respect to a single-node time `t1`.
    pub fn speedup(&self, t1: f64) -> f64 {
        t1 / self.makespan
    }

    /// Parallel efficiency with respect to a single-node time `t1`.
    pub fn efficiency(&self, t1: f64) -> f64 {
        self.speedup(t1) / self.nodes as f64
    }
}

/// The simulated machine: D nodes plus a communication model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineSim {
    nodes: usize,
    comm: CommModel,
}

impl MachineSim {
    /// Creates a machine with `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: usize, comm: CommModel) -> MachineSim {
        assert!(nodes > 0, "machine needs at least one node");
        MachineSim { nodes, comm }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The communication model.
    pub fn comm(&self) -> CommModel {
        self.comm
    }

    /// Executes the phases and reports the makespan.
    ///
    /// # Panics
    ///
    /// Panics if a per-node vector's length differs from the node count.
    pub fn simulate(&self, phases: &[Phase]) -> SimReport {
        let d = self.nodes;
        let mut clock = vec![0.0f64; d];
        let mut total_work = 0.0;
        let mut comm_seconds = 0.0;
        for phase in phases {
            match phase {
                Phase::Parallel { costs_per_node } => {
                    assert_eq!(costs_per_node.len(), d, "per-node cost vector length");
                    for (c, cost) in clock.iter_mut().zip(costs_per_node) {
                        *c += cost;
                        total_work += cost;
                    }
                }
                Phase::Barrier => {
                    let max = clock.iter().cloned().fold(0.0, f64::max);
                    clock.fill(max);
                }
                Phase::Serial { seconds } => {
                    let max = clock.iter().cloned().fold(0.0, f64::max);
                    clock.fill(max);
                    clock[0] += seconds;
                    total_work += seconds;
                    // Later phases that need all nodes will re-sync; a
                    // serial region implicitly holds the others at the sync
                    // point.
                    let max = clock.iter().cloned().fold(0.0, f64::max);
                    clock.fill(max);
                }
                Phase::AllToAll { bytes } => {
                    if d > 1 {
                        let before = clock.iter().cloned().fold(0.0, f64::max);
                        let cost = (d - 1) as f64 * self.comm.message_cost(*bytes);
                        clock.fill(before + cost);
                        comm_seconds += cost;
                    }
                }
                Phase::Broadcast { bytes } => {
                    if d > 1 {
                        let before = clock.iter().cloned().fold(0.0, f64::max);
                        let hops = (d as f64).log2().ceil();
                        let cost = hops * self.comm.message_cost(*bytes);
                        clock.fill(before + cost);
                        comm_seconds += cost;
                    }
                }
                Phase::GatherTo0 { bytes_per_node } => {
                    assert_eq!(bytes_per_node.len(), d, "per-node byte vector length");
                    // Node 0 drains the senders in arrival order; each
                    // transfer serializes on the receiver's link.
                    let mut t0 = clock[0];
                    let mut arrivals: Vec<(f64, usize)> =
                        (1..d).map(|s| (clock[s] + self.comm.latency, bytes_per_node[s])).collect();
                    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
                    let before = t0;
                    for (arrival, bytes) in arrivals {
                        t0 = t0.max(arrival) + bytes as f64 * self.comm.inv_bandwidth;
                    }
                    comm_seconds += t0 - before;
                    clock[0] = t0;
                }
            }
        }
        let makespan = clock.iter().cloned().fold(0.0, f64::max);
        SimReport { nodes: d, makespan, total_work, comm_seconds }
    }

    /// Algorithm 1's setup step on this machine: `serial_pre`, the
    /// evaluation of the `distinct` pair-key list split as `schedule`
    /// splits it, then `serial_post`. `task_costs` are the measured
    /// seconds of equal consecutive slices of that list (the slices of
    /// `assembly::measure_chunk_costs_best_of`); a node's share of a
    /// slice costs its share of the slice's values.
    pub fn simulate_setup(
        &self,
        schedule: Schedule,
        task_costs: &[f64],
        distinct: usize,
        serial_pre: f64,
        serial_post: f64,
    ) -> SimReport {
        let tasks = partition_ranges(distinct, task_costs.len().max(1));
        let cost_of = |r: &Range<usize>| -> f64 {
            tasks
                .iter()
                .zip(task_costs)
                .filter(|(t, _)| !t.is_empty())
                .map(|(t, c)| {
                    let overlap = r.end.min(t.end).saturating_sub(r.start.max(t.start));
                    c * overlap as f64 / t.len() as f64
                })
                .sum()
        };
        let d = self.nodes;
        let (costs, bytes) = match schedule {
            Schedule::Gathered => {
                let slices = partition_ranges(distinct, d);
                let bytes = slices.iter().enumerate().map(|(n, r)| (n > 0) as usize * 8 * r.len());
                (slices.iter().map(cost_of).collect(), bytes.collect())
            }
            Schedule::SelfScheduled => {
                let mut clock = vec![0.0f64; d];
                for chunk in self_scheduled_chunks(distinct, d) {
                    let idle = (0..d).min_by(|&a, &b| clock[a].total_cmp(&clock[b]));
                    clock[idle.unwrap_or(0)] += cost_of(&chunk);
                }
                (clock, vec![0; d])
            }
        };
        self.simulate(&[
            Phase::Serial { seconds: serial_pre },
            Phase::Broadcast { bytes: 1024 }, // template definitions
            Phase::Parallel { costs_per_node: costs },
            Phase::GatherTo0 { bytes_per_node: bytes },
            Phase::Serial { seconds: serial_post },
        ])
    }
}

/// Who evaluates which slice of the distinct pair-key list in
/// [`MachineSim::simulate_setup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Distributed memory (the MPI flow of Figs. 5–6, modelled only
    /// here): node d evaluates the d-th contiguous slice, and nodes
    /// 1…D−1 send 8 B per value to node 0.
    Gathered,
    /// Shared memory (`assemble_threaded`): the
    /// [`self_scheduled_chunks`] of the list, each taken by the first node
    /// to fall idle; the values stay in shared memory.
    SelfScheduled,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(d: usize) -> MachineSim {
        MachineSim::new(d, CommModel::shared_memory())
    }

    #[test]
    fn perfect_parallel_work_scales_linearly() {
        let costs = vec![1.0; 8];
        let r1 = machine(1).simulate(&[Phase::Parallel { costs_per_node: vec![8.0] }]);
        let r8 = machine(8).simulate(&[Phase::Parallel { costs_per_node: costs }]);
        assert_eq!(r1.makespan, 8.0);
        assert_eq!(r8.makespan, 1.0);
        assert!((r8.efficiency(r1.makespan) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_waits_for_slowest() {
        let r = machine(3).simulate(&[
            Phase::Parallel { costs_per_node: vec![1.0, 5.0, 2.0] },
            Phase::Barrier,
            Phase::Parallel { costs_per_node: vec![1.0, 1.0, 1.0] },
        ]);
        assert_eq!(r.makespan, 6.0);
    }

    #[test]
    fn serial_section_amdahl() {
        // 10 % serial fraction: Amdahl limit at D=10 is 1/(0.1+0.9/10)=5.26
        let d = 10;
        let serial = 1.0;
        let parallel = 9.0;
        let t1 = machine(1)
            .simulate(&[
                Phase::Serial { seconds: serial },
                Phase::Parallel { costs_per_node: vec![parallel] },
            ])
            .makespan;
        let rd = machine(d).simulate(&[
            Phase::Serial { seconds: serial },
            Phase::Parallel { costs_per_node: vec![parallel / d as f64; d] },
        ]);
        assert!((rd.speedup(t1) - 10.0 / 1.9).abs() < 1e-9);
    }

    #[test]
    fn comm_phases_charge_time() {
        let m = MachineSim::new(4, CommModel::cluster());
        let r = m.simulate(&[Phase::AllToAll { bytes: 1_000_000 }]);
        // 3 messages × (10 µs + 1 ms) each.
        assert!((r.makespan - 3.0 * (1.0e-5 + 1.0e-3)).abs() < 1e-9);
        assert!(r.comm_seconds > 0.0);
        let rb = m.simulate(&[Phase::Broadcast { bytes: 1_000_000 }]);
        assert!((rb.makespan - 2.0 * (1.0e-5 + 1.0e-3)).abs() < 1e-9);
    }

    #[test]
    fn gather_serializes_on_root() {
        let m = MachineSim::new(3, CommModel::cluster());
        let r = m.simulate(&[
            Phase::Parallel { costs_per_node: vec![0.0, 1.0, 1.0] },
            Phase::GatherTo0 { bytes_per_node: vec![0, 1_000_000, 1_000_000] },
        ]);
        // Root waits for the 1 s arrivals, then drains 2 MB at 1 GB/s.
        assert!(r.makespan >= 1.0 + 2.0e-3 - 1e-9, "{}", r.makespan);
    }

    #[test]
    fn single_node_has_no_comm() {
        let r = machine(1)
            .simulate(&[Phase::AllToAll { bytes: 1 << 20 }, Phase::Broadcast { bytes: 1 << 20 }]);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.comm_seconds, 0.0);
    }

    #[test]
    fn setup_simulation_high_efficiency() {
        // Algorithm 1 on uniform task costs: efficiency should be ≈ 1 up to
        // the tiny serial and gather overheads — the paper's ~90 %.
        // 0.1 s of parallel work, 0.2 % serial: eff@10 ≈ 0.98 (Amdahl).
        let tasks = vec![1e-5; 10_000];
        let values = 100_000;
        for schedule in [Schedule::Gathered, Schedule::SelfScheduled] {
            let t1 = machine(1).simulate_setup(schedule, &tasks, values, 1e-4, 1e-4).makespan;
            for d in [2, 4, 8, 10] {
                let r = machine(d).simulate_setup(schedule, &tasks, values, 1e-4, 1e-4);
                let eff = r.efficiency(t1);
                assert!(eff > 0.9 && eff <= 1.0, "{schedule:?} d={d}: eff={eff}");
            }
        }
    }

    #[test]
    fn gathered_setup_charges_eight_bytes_per_value() {
        // No compute: the makespan is the broadcast plus node 1's slice of
        // 500 000 values (4 MB at 1 GB/s) arriving after one latency.
        let m = MachineSim::new(2, CommModel::cluster());
        let r = m.simulate_setup(Schedule::Gathered, &[0.0; 8], 1_000_000, 0.0, 0.0);
        let expect = CommModel::cluster().message_cost(1024) + 1.0e-5 + 4.0e-3;
        assert!((r.makespan - expect).abs() < 1e-12, "{}", r.makespan);
    }

    #[test]
    fn self_scheduling_absorbs_skew() {
        // All the cost in the first quarter of the list: the static split
        // leaves one of four nodes with everything, the chunks spread it.
        let mut tasks = vec![0.0; 64];
        tasks[..16].fill(1.0);
        let m = machine(4);
        let gathered = m.simulate_setup(Schedule::Gathered, &tasks, 6400, 0.0, 0.0);
        let scheduled = m.simulate_setup(Schedule::SelfScheduled, &tasks, 6400, 0.0, 0.0);
        assert!((gathered.makespan - 16.0).abs() < 1e-3, "{}", gathered.makespan);
        assert!((scheduled.makespan - 4.0).abs() < 1e-3, "{}", scheduled.makespan);
    }

    #[test]
    #[should_panic]
    fn wrong_cost_vector_length_panics() {
        let _ = machine(2).simulate(&[Phase::Parallel { costs_per_node: vec![1.0] }]);
    }
}
