//! The executor's helper threads are process-wide: a map spawns only the
//! helpers the process lacks, up to the widest map's `min(workers, n) − 1`,
//! and every later map reuses them. The count is read from the kernel, so
//! this binary holds one test and no other test's maps share its process.
#![cfg(target_os = "linux")]

use sss_exec::ThreadPool;

/// Threads of this process, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("the status names its thread count")
        .trim()
        .parse()
        .expect("the thread count is a number")
}

#[test]
fn maps_spawn_only_the_helpers_the_process_lacks() {
    let items: Vec<u64> = (0..64).collect();
    let square = |&x: &u64| x * x;
    let squares: Vec<u64> = items.iter().map(square).collect();

    let before = threads();
    assert_eq!(ThreadPool::new(2).map(&items, square), squares);
    assert_eq!(threads(), before + 1, "a two-worker map brings one helper");
    assert_eq!(ThreadPool::new(2).map(&items, square), squares);
    assert_eq!(threads(), before + 1, "a second two-worker map adds none");
    assert_eq!(ThreadPool::new(4).map(&items, square), squares);
    assert_eq!(threads(), before + 3, "a four-worker map adds exactly two");

    let pool = ThreadPool::new(4);
    let sums = pool.map(&items, |&x| {
        pool.map(&items, |&y| x * y).iter().sum::<u64>()
    });
    let total: u64 = items.iter().sum();
    assert_eq!(sums, items.iter().map(|&x| x * total).collect::<Vec<_>>());
    assert_eq!(threads(), before + 3, "a nested map adds none");
}
