//! Shared-queue thread pool and its order-preserving parallel map.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Claims each worker makes in a [`ThreadPool::map`] of many items: the
/// items are claimed in runs of `max(1, n / (workers · CLAIMS_PER_WORKER))`.
const CLAIMS_PER_WORKER: usize = 16;

/// A scoped thread pool over a shared work queue.
///
/// Workers claim runs of consecutive items from an atomic counter, so
/// load balances when items have uneven cost (a concurrency-8
/// simulation takes ~8× a concurrency-1 run). A run is
/// `max(1, n / (workers · 16))` items long: a map of a few dozen whole
/// simulations claims them one at a time, while a map of 5000 small
/// sessions touches the counter about sixteen times per worker instead
/// of once per item. Results land in their input slot, preserving order.
///
/// The threads are spawned per call: scoped threads let closures borrow
/// from the caller without `'static` bounds. That costs about 60 µs a
/// call at two workers on a 2-vCPU host (median of an empty map over 13
/// items), so a map with several workers pays only when its items take
/// longer than that together; one worker runs inline and spawns nothing.
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// Pool with an explicit worker count (minimum 1).
    pub fn new(workers: usize) -> Self {
        ThreadPool {
            workers: workers.max(1),
        }
    }

    /// Pool sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool { workers: n }
    }

    /// Number of worker threads this pool will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Order-preserving parallel map over a slice. With one worker (or
    /// one item) `f` runs inline on the calling thread.
    ///
    /// Each claimed run is written into its own stretch of one result
    /// vector, which becomes the returned `Vec` in place.
    ///
    /// Panics in `f` are propagated to the caller after all workers stop
    /// (no deadlock, no lost panic).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        if workers == 1 {
            return items.iter().map(f).collect();
        }

        let run = run_len(n, workers);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        // One lock per run, taken once by the worker that claims it, so
        // never contended: it only hands that worker the run's slots.
        let runs: Vec<Mutex<&mut [Option<R>]>> = slots.chunks_mut(run).map(Mutex::new).collect();
        let next = AtomicUsize::new(0);
        let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let r = next.fetch_add(1, Ordering::Relaxed);
                    let Some(run_slots) = runs.get(r) else {
                        break;
                    };
                    let mut run_slots = run_slots.lock();
                    let run_items = &items[r * run..];
                    let filled = catch_unwind(AssertUnwindSafe(|| {
                        for (slot, item) in run_slots.iter_mut().zip(run_items) {
                            *slot = Some(f(item));
                        }
                    }));
                    if let Err(p) = filled {
                        *panic_payload.lock() = Some(p);
                        // Drain remaining work so peers exit promptly.
                        next.store(runs.len(), Ordering::Relaxed);
                        break;
                    }
                });
            }
        });

        if let Some(p) = panic_payload.into_inner() {
            resume_unwind(p);
        }
        slots
            .into_iter()
            .map(|s| s.expect("worker left a result slot empty"))
            .collect()
    }
}

/// Items per claim when `workers` workers map `n` items.
fn run_len(n: usize, workers: usize) -> usize {
    (n / (workers * CLAIMS_PER_WORKER)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let out: Vec<i32> = ThreadPool::new(4).map(&[] as &[i32], |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_order() {
        let xs: Vec<usize> = (0..1000).collect();
        let out = ThreadPool::new(8).map(&xs, |&x| x * 2);
        assert_eq!(out, xs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_fallback() {
        let xs = vec![1, 2, 3];
        assert_eq!(ThreadPool::new(1).map(&xs, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn more_workers_than_items() {
        let xs = vec![5];
        assert_eq!(ThreadPool::new(16).map(&xs, |&x| x * x), vec![25]);
    }

    #[test]
    fn borrows_environment() {
        let offset = 100;
        let xs = vec![1, 2, 3];
        let out = ThreadPool::new(2).map(&xs, |&x| x + offset);
        assert_eq!(out, vec![101, 102, 103]);
    }

    #[test]
    fn panics_propagate() {
        // 64 items are claimed one at a time; 1000 in runs of fifteen,
        // and item 487 is the eighth of its run.
        assert_eq!(run_len(1000, 4), 15);
        for (n, bad) in [(64u32, 13u32), (1000, 487)] {
            let xs: Vec<u32> = (0..n).collect();
            let payload = std::panic::catch_unwind(|| {
                ThreadPool::new(4).map(&xs, |&x| {
                    if x == bad {
                        panic!("deliberate test panic at item {x}");
                    }
                    x
                })
            })
            .expect_err("the panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("deliberate test panic at item {bad}").as_str())
            );
        }
    }

    #[test]
    fn pool_worker_counts() {
        assert_eq!(ThreadPool::new(0).workers(), 1);
        assert_eq!(ThreadPool::new(5).workers(), 5);
        assert!(ThreadPool::with_available_parallelism().workers() >= 1);
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still all complete, claimed
        // in runs of several items.
        let xs: Vec<u64> = (0..2048).collect();
        assert!(run_len(xs.len(), 4) > 1);
        let out = ThreadPool::new(4).map(&xs, |&x| {
            let mut acc = 0u64;
            for i in 0..((x % 97) * 1000) {
                acc = acc.wrapping_add(i);
            }
            (x, acc)
        });
        assert_eq!(out.len(), xs.len());
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }
}
