//! Shared-memory parallel execution (the OpenMP analogue, Fig. 4).
//!
//! The paper's shared-memory flow: the main thread allocates P, spawns
//! D − 1 worker threads, each thread computes the P̃ entries of its
//! partition in *private* memory and merges the result; threads then join
//! back into the main thread. [`run_partitioned`] reproduces exactly that
//! structure with crossbeam scoped threads: workers return private values
//! that the caller merges, so there is no locking on the hot path.

use std::time::Instant;

use crate::partition::partition_ranges;

/// Per-worker timing of one parallel region. Which indices a worker
/// processed is not recorded here: a caller that needs them returns them
/// from the worker body.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTiming {
    /// Worker index (0 = the main thread's share).
    pub worker: usize,
    /// Wall-clock seconds spent inside the worker body.
    pub seconds: f64,
}

/// Runs `work` over `[0, total)` split into `threads` contiguous ranges
/// (Algorithm 1's partition), each on its own scoped thread; returns the
/// workers' private results plus per-worker timings, in worker order.
///
/// The closure receives `(worker_index, range)` and must accumulate into
/// private state it returns — mirroring Fig. 4 where each thread writes a
/// private copy before the merge.
///
/// # Panics
///
/// Panics if `threads == 0` or if any worker panics.
pub fn run_partitioned<T, F>(threads: usize, total: usize, work: F) -> (Vec<T>, Vec<WorkerTiming>)
where
    T: Send,
    F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let ranges = partition_ranges(total, threads);
    if threads == 1 {
        // Sequential fast path: no thread machinery at all.
        let start = Instant::now();
        let out = work(0, ranges[0].clone());
        let t = WorkerTiming { worker: 0, seconds: start.elapsed().as_secs_f64() };
        return (vec![out], vec![t]);
    }
    let mut slots: Vec<Option<(T, WorkerTiming)>> = Vec::new();
    for _ in 0..threads {
        slots.push(None);
    }
    crossbeam::thread::scope(|scope| {
        let work = &work;
        for (w, (slot, range)) in slots.iter_mut().zip(ranges.iter().cloned()).enumerate() {
            scope.spawn(move |_| {
                let start = Instant::now();
                let out = work(w, range);
                let timing = WorkerTiming { worker: w, seconds: start.elapsed().as_secs_f64() };
                *slot = Some((out, timing));
            });
        }
    })
    .expect("worker thread panicked");
    let mut results = Vec::with_capacity(threads);
    let mut timings = Vec::with_capacity(threads);
    for slot in slots {
        let (r, t) = slot.expect("every worker fills its slot");
        results.push(r);
        timings.push(t);
    }
    (results, timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_partition_correctly() {
        let total = 10_000;
        for threads in [1, 2, 3, 7] {
            let (parts, timings) = run_partitioned(threads, total, |_, range| range);
            let sum: u64 = parts.iter().flat_map(Clone::clone).map(|k| k as u64).sum();
            assert_eq!(sum, (total as u64 - 1) * total as u64 / 2, "threads={threads}");
            assert_eq!(timings.len(), threads);
            // The workers' ranges tile [0, total) in worker order.
            assert_eq!(parts[0].start, 0);
            assert!(parts.windows(2).all(|w| w[0].end == w[1].start), "threads={threads}");
            assert_eq!(parts.last().unwrap().end, total);
        }
    }

    #[test]
    fn workers_have_private_state() {
        // Each worker returns its own vector — no cross-talk.
        let (parts, _) = run_partitioned(4, 100, |w, range| (w, range.len()));
        let ids: Vec<usize> = parts.iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let total: usize = parts.iter().map(|p| p.1).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn empty_work_is_fine() {
        let (parts, _) = run_partitioned(3, 0, |_, range| range.len());
        assert_eq!(parts, vec![0, 0, 0]);
    }

    #[test]
    #[should_panic]
    fn zero_threads_panics() {
        let _ = run_partitioned(0, 10, |_, _| ());
    }
}
