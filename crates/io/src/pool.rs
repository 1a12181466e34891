//! A small worker pool: run M `'static` tasks on at most N owned
//! threads.
//!
//! [`WorkerPool::run_detached`] starts the tasks and returns a
//! [`DetachedTasks`] join handle at once. Its one user is
//! [`MultiFileSource`](crate::MultiFileSource), kept only for the
//! ledger's `io.multifile_read` probe; no product path spawns the pool.
//!
//! Tasks are claimed in index order from a shared atomic cursor, so the
//! first `workers` tasks start immediately. Worker panics surface from
//! [`DetachedTasks::join`].

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A bounded thread-count task runner. Cheap to construct — threads only
/// exist until the tasks of a [`WorkerPool::run_detached`] call finish.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    workers: usize,
}

/// Task slots: each worker claims the next unclaimed index and runs
/// that task.
struct TaskQueue<F> {
    slots: Vec<Mutex<Option<F>>>,
    next: AtomicUsize,
}

impl<F> TaskQueue<F> {
    fn new(tasks: Vec<F>) -> TaskQueue<F> {
        TaskQueue {
            slots: tasks.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            next: AtomicUsize::new(0),
        }
    }

    fn claim(&self) -> Option<F> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = self.slots.get(i)?;
        let task = slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("task slot claimed twice");
        Some(task)
    }
}

impl WorkerPool {
    /// A pool running at most `workers` tasks concurrently (clamped ≥ 1).
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// Starts `tasks` on at most `workers` *owned* threads and returns
    /// immediately. Tasks must be `'static`; results flow through
    /// whatever channels the tasks carry. Call [`DetachedTasks::join`]
    /// to wait and surface panics, or drop the handle to let the threads
    /// finish (or exit) on their own.
    pub fn run_detached<F>(&self, tasks: Vec<F>) -> DetachedTasks
    where
        F: FnOnce() + Send + 'static,
    {
        let threads = self.workers.min(tasks.len());
        let queue = Arc::new(TaskQueue::new(tasks));
        let handles = (0..threads)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    while let Some(task) = queue.claim() {
                        task();
                    }
                })
            })
            .collect();
        DetachedTasks { handles }
    }
}

/// Join handle for [`WorkerPool::run_detached`]. Dropping it detaches
/// the threads — they run (or exit, once their channels disconnect) on
/// their own.
#[derive(Debug)]
pub struct DetachedTasks {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl DetachedTasks {
    /// Waits for every detached worker.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic after all threads have stopped.
    pub fn join(self) {
        let mut panic = None;
        for h in self.handles {
            if let Err(p) = h.join() {
                panic.get_or_insert(p);
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_never_exceeds_the_worker_cap() {
        let cap = 3usize;
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..50)
            .map(|_| {
                let live = Arc::clone(&live);
                let peak = Arc::clone(&peak);
                move || {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        WorkerPool::new(cap).run_detached(tasks).join();
        let seen = peak.load(Ordering::SeqCst);
        assert!(seen <= cap, "peak concurrency {seen} > cap {cap}");
        assert!(seen >= 2, "pool should actually run in parallel");
    }

    #[test]
    fn zero_workers_clamp_to_one() {
        let ran = Arc::new(AtomicUsize::new(0));
        let task = {
            let ran = Arc::clone(&ran);
            move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }
        };
        WorkerPool::new(0).run_detached(vec![task]).join();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn detached_tasks_run_and_join() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(3);
        let tasks: Vec<_> = (0..20)
            .map(|_| {
                let counter = Arc::clone(&counter);
                move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        pool.run_detached(tasks).join();
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    #[should_panic(expected = "detached boom")]
    fn detached_panics_surface_on_join() {
        WorkerPool::new(1)
            .run_detached(vec![|| panic!("detached boom")])
            .join();
    }
}
