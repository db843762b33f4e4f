//! Shared-queue thread pool and order-preserving parallel maps.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// A scoped thread pool over a shared work queue.
///
/// Workers pull indices from an atomic counter, so load balances naturally
/// when items have uneven cost (a concurrency-8 simulation takes ~8× a
/// concurrency-1 run). Results land in their input slot, preserving order.
///
/// The pool is created per call — thread spawn cost is negligible next to
/// the simulations being run, and scoped threads let closures borrow from
/// the caller without `'static` bounds.
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

    /// Order-preserving parallel map over a slice.
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

        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let slots = Mutex::new(&mut slots);
        let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                        Ok(r) => {
                            slots.lock()[i] = Some(r);
                        }
                        Err(p) => {
                            *panic_payload.lock() = Some(p);
                            // Drain remaining work so peers exit promptly.
                            next.store(n, Ordering::Relaxed);
                            break;
                        }
                    }
                });
            }
        });

        if let Some(p) = panic_payload.into_inner() {
            resume_unwind(p);
        }
        slots
            .into_inner()
            .iter_mut()
            .map(|s| s.take().expect("worker left a result slot empty"))
            .collect()
    }
}

/// Order-preserving parallel map with `workers` threads.
///
/// Convenience wrapper over [`ThreadPool::map`].
pub fn par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    ThreadPool::new(workers).map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(4, &[] as &[i32], |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_order() {
        let xs: Vec<usize> = (0..1000).collect();
        let out = par_map(8, &xs, |&x| x * 2);
        assert_eq!(out, xs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_fallback() {
        let xs = vec![1, 2, 3];
        assert_eq!(par_map(1, &xs, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn more_workers_than_items() {
        let xs = vec![5];
        assert_eq!(par_map(16, &xs, |&x| x * x), vec![25]);
    }

    #[test]
    fn borrows_environment() {
        let offset = 100;
        let xs = vec![1, 2, 3];
        let out = par_map(2, &xs, |&x| x + offset);
        assert_eq!(out, vec![101, 102, 103]);
    }

    #[test]
    #[should_panic(expected = "deliberate test panic")]
    fn panics_propagate() {
        let xs: Vec<u32> = (0..64).collect();
        let _ = par_map(4, &xs, |&x| {
            if x == 13 {
                panic!("deliberate test panic");
            }
            x
        });
    }

    #[test]
    fn pool_worker_counts() {
        assert_eq!(ThreadPool::new(0).workers(), 1);
        assert_eq!(ThreadPool::new(5).workers(), 5);
        assert!(ThreadPool::with_available_parallelism().workers() >= 1);
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still all complete.
        let xs: Vec<u64> = (0..32).collect();
        let out = par_map(4, &xs, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            (x, acc)
        });
        assert_eq!(out.len(), 32);
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }
}
