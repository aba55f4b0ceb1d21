//! A long-lived work queue over OS worker threads — the substrate of
//! `bemcap-core`'s execution subsystem.
//!
//! [`run_partitioned`](crate::pool::run_partitioned) is *scoped*: it
//! spawns workers for one parallel region and joins them before
//! returning, which is exactly Algorithm 1's fork/join shape but useless
//! for a daemon that must keep one bounded pool alive across requests. [`WorkQueue`] is the
//! persistent counterpart: a fixed set of worker threads popping boxed
//! tasks from one FIFO queue, with
//!
//! * **strict FIFO dispatch** — tasks start in push order (completion
//!   order depends on task durations, so consumers that need ordered
//!   results demultiplex through their own channels);
//! * **worker identity** — each task receives the index of the worker
//!   running it, for the same per-worker accounting the scoped pool
//!   reports;
//! * **clean teardown** — dropping the queue closes it, lets queued tasks
//!   drain, and joins every worker.
//!
//! The queue itself is unbounded: admission control (rejecting work when
//! too much is waiting) is a policy question that lives in
//! `bemcap-core::exec`, which tracks waiting work and refuses submissions
//! before they ever reach this queue.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce(usize) + Send + 'static>;

struct State {
    tasks: VecDeque<Task>,
    open: bool,
}

struct Shared {
    state: Mutex<State>,
    ready: Condvar,
}

/// A fixed pool of worker threads draining one FIFO task queue. See the
/// module docs for the contract.
pub struct WorkQueue {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkQueue")
            .field("workers", &self.workers.len())
            .field("queued", &self.queued())
            .finish()
    }
}

impl WorkQueue {
    /// Starts `workers` threads waiting on an empty queue.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> WorkQueue {
        assert!(workers > 0, "work queue needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(State { tasks: VecDeque::new(), open: true }),
            ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, w))
            })
            .collect();
        WorkQueue { shared, workers: handles }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Number of tasks pushed but not yet started.
    pub fn queued(&self) -> usize {
        self.shared.state.lock().expect("work queue poisoned").tasks.len()
    }

    /// Appends a task to the queue; some worker will eventually run it
    /// with its worker index. Tasks must not panic: a panicking task
    /// kills its worker thread (and panics the eventual [`WorkQueue`]
    /// drop), it does not poison the queue for other tasks.
    pub fn push(&self, task: impl FnOnce(usize) + Send + 'static) {
        let mut state = self.shared.state.lock().expect("work queue poisoned");
        assert!(state.open, "push on a closed work queue");
        state.tasks.push_back(Box::new(task));
        drop(state);
        self.shared.ready.notify_one();
    }
}

impl Drop for WorkQueue {
    /// Closes the queue, lets already-queued tasks drain, and joins every
    /// worker.
    fn drop(&mut self) {
        if let Ok(mut state) = self.shared.state.lock() {
            state.open = false;
        }
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            handle.join().expect("work queue worker panicked");
        }
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        let task = {
            let mut state = shared.state.lock().expect("work queue poisoned");
            loop {
                if let Some(task) = state.tasks.pop_front() {
                    break task;
                }
                if !state.open {
                    return;
                }
                state = shared.ready.wait(state).expect("work queue poisoned");
            }
        };
        task(worker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn tasks_run_and_drain_on_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        let queue = WorkQueue::new(3);
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            queue.push(move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(queue); // joins after draining
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn single_worker_runs_in_fifo_order() {
        let queue = WorkQueue::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..20 {
            let tx = tx.clone();
            queue.push(move |_| tx.send(i).expect("receiver alive"));
        }
        let got: Vec<i32> = (0..20).map(|_| rx.recv().expect("task ran")).collect();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn workers_report_their_index() {
        let queue = WorkQueue::new(4);
        assert_eq!(queue.worker_count(), 4);
        let (tx, rx) = mpsc::channel();
        for _ in 0..40 {
            let tx = tx.clone();
            queue.push(move |w| tx.send(w).expect("receiver alive"));
        }
        for _ in 0..40 {
            assert!(rx.recv().expect("task ran") < 4);
        }
    }

    #[test]
    fn queued_counts_waiting_tasks() {
        let queue = WorkQueue::new(1);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel();
        queue.push(move |_| {
            started_tx.send(()).expect("main alive");
            block_rx.recv().expect("released");
        });
        started_rx.recv().expect("first task started");
        // The worker is occupied: everything pushed now must wait.
        for _ in 0..5 {
            queue.push(|_| {});
        }
        assert_eq!(queue.queued(), 5);
        block_tx.send(()).expect("worker alive");
        drop(queue);
    }

    #[test]
    #[should_panic]
    fn zero_workers_panics() {
        let _ = WorkQueue::new(0);
    }
}
