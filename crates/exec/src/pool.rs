//! The executor: an order-preserving parallel map that runs on its caller
//! plus parked process-wide helper threads.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, MutexGuard, PoisonError};

use parking_lot::Mutex;

/// Claims each worker makes in a [`ThreadPool::map`] of many items: the
/// items are claimed in runs of `max(1, n / (workers · CLAIMS_PER_WORKER))`.
const CLAIMS_PER_WORKER: usize = 16;

/// A width for order-preserving parallel maps over a shared work queue.
///
/// Workers claim runs of consecutive items from an atomic counter, so
/// load balances when items have uneven cost (a concurrency-8
/// simulation takes ~8× a concurrency-1 run). A run is
/// `max(1, n / (workers · 16))` items long: a map of a few dozen whole
/// simulations claims them one at a time, while a map of 5000 small
/// sessions touches the counter about sixteen times per worker instead
/// of once per item. Results land in their input slot, preserving order.
///
/// A pool owns no threads: `new` spawns nothing and dropping it does
/// nothing. The calling thread of a map is its last worker, and the map
/// offers its claim loop to up to `min(workers, n) − 1` helper threads
/// that the whole process shares. A helper is spawned the first time a
/// map asks for more helpers than exist, then parks between maps, so a
/// process holds as many helpers as its widest map has asked for and no
/// map spawns a thread once they exist. Concurrent maps (a server's
/// request threads, tests running in parallel) each queue their own job
/// and share the helpers; a job that no helper reaches finishes on its
/// caller, so a map nested inside `f` cannot deadlock. One worker (or
/// one item) runs inline and queues nothing.
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

    /// Number of workers (the caller included) a map will use.
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
    /// (no deadlock, no lost panic); the helpers survive them.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_init(items, || (), |(), item| f(item))
    }

    /// [`ThreadPool::map`] with scratch state: each claimed run of items
    /// starts from a fresh `init()`, and `f` takes it with every item of
    /// the run, so storage can be reused from item to item. Which items
    /// share a state depends on the worker count, so `f`'s results must
    /// not depend on what an earlier item left in it.
    pub fn map_init<T, S, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        if workers == 1 {
            let mut state = init();
            return items.iter().map(|item| f(&mut state, item)).collect();
        }

        let run = run_len(n, workers);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        // One lock per run, taken once by the worker that claims it, so
        // never contended: it only hands that worker the run's slots.
        let runs: Vec<Mutex<&mut [Option<R>]>> = slots.chunks_mut(run).map(Mutex::new).collect();
        let next = AtomicUsize::new(0);
        let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        share(
            &|| loop {
                let r = next.fetch_add(1, Ordering::Relaxed);
                let Some(run_slots) = runs.get(r) else {
                    break;
                };
                let mut run_slots = run_slots.lock();
                let run_items = &items[r * run..];
                let filled = catch_unwind(AssertUnwindSafe(|| {
                    let mut state = init();
                    for (slot, item) in run_slots.iter_mut().zip(run_items) {
                        *slot = Some(f(&mut state, item));
                    }
                }));
                if let Err(p) = filled {
                    *panic_payload.lock() = Some(p);
                    // Drain remaining work so peers exit promptly.
                    next.store(runs.len(), Ordering::Relaxed);
                    break;
                }
            },
            workers - 1,
        );

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

/// Runs `work` on the calling thread while up to `seats` helpers join
/// it, and returns once every helper that joined has left.
fn share(work: &(dyn Fn() + Sync), seats: usize) {
    // SAFETY: only the lifetime changes. A helper reaches `erased` only
    // through the job queued below, after taking one of its seats under
    // the queue lock. Dropping `_job` takes every seat away under that
    // lock and then waits until each helper that took one has returned
    // from `work`. `_job` is a local that is never moved out, so it drops
    // before `share` returns, by unwinding too, and `*work` outlives this
    // call: no helper calls `erased` after the borrow ends.
    let erased: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(work) };
    let mut queue = lock();
    let id = queue.next_id;
    queue.next_id += 1;
    queue.jobs.push(Job {
        id,
        work: erased,
        seats,
        inside: 0,
        closed: false,
    });
    let wake = seats.min(queue.idle);
    let spawn = seats.saturating_sub(queue.helpers);
    queue.helpers += spawn;
    drop(queue);
    let _job = Posted { id };

    for _ in 0..wake {
        POSTED.notify_one();
    }
    for _ in 0..spawn {
        // Never joined: a helper lives as long as the process and never
        // unwinds, since `map`'s claim loop catches every panic of `f`.
        std::thread::Builder::new()
            .name("sss-exec helper".into())
            .spawn(serve)
            .expect("the executor spawns a helper thread");
    }
    work();
}

/// The jobs queued for the helpers, shared by every map in the process.
static QUEUE: std::sync::Mutex<Queue> = std::sync::Mutex::new(Queue {
    jobs: Vec::new(),
    next_id: 0,
    helpers: 0,
    idle: 0,
});
/// Idle helpers wait here for a job with a free seat.
static POSTED: Condvar = Condvar::new();
/// A caller waits here for the helpers of its closed job to leave.
static LEFT: Condvar = Condvar::new();

/// The queue. Nothing panics while holding it and every update leaves it
/// consistent, so a poisoned lock is taken as it is.
fn lock() -> MutexGuard<'static, Queue> {
    QUEUE.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Queue {
    /// Jobs in the order they were posted; a closed one stays until its
    /// last helper leaves.
    jobs: Vec<Job>,
    next_id: u64,
    /// Helpers spawned so far; they never exit.
    helpers: usize,
    /// Helpers parked on `POSTED`.
    idle: usize,
}

impl Queue {
    fn job(&mut self, id: u64) -> &mut Job {
        self.jobs
            .iter_mut()
            .find(|job| job.id == id)
            .expect("a job stays queued until its last helper leaves")
    }
}

/// One map's claim loop as its helpers see it.
struct Job {
    id: u64,
    work: &'static (dyn Fn() + Sync),
    /// Helpers that may still join.
    seats: usize,
    /// Helpers running `work` now.
    inside: usize,
    /// The caller is done with `work`: no seat is left, and it waits for
    /// `inside` to reach 0.
    closed: bool,
}

/// A queued job, closed on drop: no helper joins it after, and the drop
/// returns once every helper that joined has left.
struct Posted {
    id: u64,
}

impl Drop for Posted {
    fn drop(&mut self) {
        let mut queue = lock();
        let job = queue.job(self.id);
        job.seats = 0;
        job.closed = true;
        while queue.job(self.id).inside > 0 {
            queue = LEFT.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
        queue.jobs.retain(|job| job.id != self.id);
    }
}

/// A helper's life: join the oldest job with a free seat, run its claim
/// loop until no run is left, leave, and park while no job has a seat.
fn serve() {
    let mut queue = lock();
    loop {
        let Some(job) = queue.jobs.iter_mut().find(|job| job.seats > 0) else {
            queue.idle += 1;
            queue = POSTED.wait(queue).unwrap_or_else(PoisonError::into_inner);
            queue.idle -= 1;
            continue;
        };
        job.seats -= 1;
        job.inside += 1;
        let (id, work) = (job.id, job.work);
        drop(queue);
        work();
        queue = lock();
        let job = queue.job(id);
        job.inside -= 1;
        if job.closed && job.inside == 0 {
            LEFT.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn empty_input() {
        let out: Vec<i32> = ThreadPool::new(4).map(&[] as &[i32], |_| unreachable!());
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
        // One item runs inline on the caller.
        let caller = std::thread::current().id();
        let ran_on = ThreadPool::new(16).map(&xs, |_| std::thread::current().id());
        assert_eq!(ran_on, vec![caller]);
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

    /// `map_init` returns what `map` does, and each claimed run of items
    /// carries one state from `init` through its items in order: at 1, 2
    /// and 8 workers, on empty maps, maps claimed one item at a time and
    /// maps claimed in runs of several.
    #[test]
    fn map_init_carries_one_state_through_each_run() {
        for workers in [1, 2, 8] {
            let pool = ThreadPool::new(workers);
            for n in [0usize, 1, 7, 100, 2000] {
                let items: Vec<usize> = (0..n).collect();
                let inits = AtomicUsize::new(0);
                let init = || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::new()
                };
                // Each item reports its own image and how many items its
                // state has seen, itself included.
                let out = pool.map_init(&items, init, |seen: &mut Vec<usize>, &x| {
                    seen.push(x);
                    (x * 3, seen.len())
                });
                let images: Vec<usize> = out.iter().map(|&(y, _)| y).collect();
                assert_eq!(images, pool.map(&items, |&x| x * 3));
                for pair in out.windows(2) {
                    let (before, after) = (pair[0].1, pair[1].1);
                    assert!(
                        after == 1 || after == before + 1,
                        "{workers} workers, {n} items"
                    );
                }
                let runs = out.iter().filter(|&&(_, seen)| seen == 1).count();
                assert_eq!(inits.load(Ordering::Relaxed), runs);
                let want = match workers.min(n) {
                    0 => 0,
                    1 => 1,
                    w => n.div_ceil(run_len(n, w)),
                };
                assert_eq!(runs, want, "{workers} workers, {n} items");
            }
        }
    }

    #[test]
    fn a_map_nested_inside_f_completes() {
        let outer: Vec<u64> = (0..24).collect();
        let inner: Vec<u64> = (0..100).collect();
        let pool = ThreadPool::new(4);
        let nested = pool.map(&outer, |&x| {
            pool.map(&inner, |&y| x * 1000 + y).into_iter().sum::<u64>()
        });
        let seq: Vec<u64> = outer
            .iter()
            .map(|&x| inner.iter().map(|&y| x * 1000 + y).sum())
            .collect();
        assert_eq!(nested, seq);
    }

    #[test]
    fn maps_from_four_threads_at_once_equal_the_sequential_map() {
        let f = |x: &u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let xs: Vec<u64> = (0..3000).collect();
        let seq: Vec<u64> = xs.iter().map(f).collect();
        let shared = ThreadPool::new(3);
        let start = Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (xs, seq, shared, start) = (&xs, &seq, &shared, &start);
                scope.spawn(move || {
                    let own = ThreadPool::new(2 + t);
                    start.wait();
                    for _ in 0..20 {
                        assert_eq!(&shared.map(xs, f), seq);
                        assert_eq!(&own.map(xs, f), seq);
                    }
                });
            }
        });
    }

    /// A two-item, two-worker map whose items each wait, at most 30 s,
    /// until two distinct threads have run `f`: the caller claims one
    /// item and blocks in it, so the map completes in time only if a
    /// helper joined and ran the other. Each item then panics, saying
    /// whether it saw two threads, if `panic` is set. Returns whether
    /// both items saw two threads.
    fn map_joined_by_a_helper(pool: &ThreadPool, panic: bool) -> bool {
        let seen: std::sync::Mutex<HashSet<ThreadId>> = Default::default();
        let both = Condvar::new();
        let met = pool.map(&[0u8, 1], |_| {
            let mut threads = seen.lock().expect("no test thread panics holding it");
            threads.insert(std::thread::current().id());
            both.notify_all();
            let (threads, wait) = both
                .wait_timeout_while(threads, Duration::from_secs(30), |t| t.len() < 2)
                .expect("no test thread panics holding it");
            let met = !wait.timed_out();
            drop(threads);
            if panic {
                panic!("deliberate test panic, rendezvous met: {met}");
            }
            met
        });
        met == [true, true]
    }

    /// Waits, at most 30 s, until every helper spawned so far is parked,
    /// so that a map posted next is joined only by a helper it wakes.
    fn every_helper_parked() -> bool {
        for _ in 0..30_000 {
            let queue = lock();
            if queue.idle == queue.helpers {
                return true;
            }
            drop(queue);
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    #[test]
    fn a_parked_helper_wakes_to_join_a_two_worker_map() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.map(&[1u8, 2], |&x| x * 3), [3, 6]);
        assert!(every_helper_parked());
        assert!(map_joined_by_a_helper(&pool, false));
    }

    #[test]
    fn helpers_survive_a_panicking_map_and_serve_the_next() {
        let pool = ThreadPool::new(2);
        // Both items panic, the helper's included, after the rendezvous.
        let payload = std::panic::catch_unwind(|| map_joined_by_a_helper(&pool, true))
            .expect_err("the panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("deliberate test panic, rendezvous met: true")
        );
        assert!(every_helper_parked());
        assert!(map_joined_by_a_helper(&pool, false));
    }
}
