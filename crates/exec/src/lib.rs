//! Deterministic parallel experiment executor.
//!
//! The paper's evaluation is a parameter sweep: 24 experiment
//! configurations (Table 2) × repeat seeds, each an independent simulation.
//! This crate runs such sweeps across threads while keeping results
//! **bitwise reproducible**: work items carry their index, results return
//! in input order, and [`SeedSequence`] derives statistically-independent
//! RNG seeds per item so the assignment of items to threads cannot change
//! any outcome.
//!
//! Built on an atomic work counter and a few parked helper threads rather
//! than a work-stealing framework. A map runs on its calling thread, and
//! process-wide helpers, spawned once and parked between maps, join it,
//! so a map spawns no thread. The maps range from a few dozen whole
//! simulations (a few microseconds to seconds each) to thousands of fleet
//! sessions (about a microsecond each), so workers claim consecutive items
//! in runs sized to the map (see [`ThreadPool`]): one at a time for the
//! coarse maps, dozens at a time for the fine ones. A simple shared-queue
//! pool then keeps the scheduling easy to reason about.
//!
//! ```
//! use sss_exec::{SeedSequence, ThreadPool};
//!
//! let seeds = SeedSequence::new(42);
//! let configs: Vec<(usize, u64)> = (0..8).map(|i| (i, seeds.seed(i as u64))).collect();
//! let results = ThreadPool::new(4).map(&configs, |&(i, seed)| (i, seed % 7));
//! assert_eq!(results.len(), 8);
//! assert_eq!(results[3].0, 3); // order preserved
//! ```

pub mod poll;
mod pool;
mod seed;

pub use pool::ThreadPool;
pub use seed::SeedSequence;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Parallel map equals sequential map regardless of worker count,
        /// from one-item claims to runs of dozens of items.
        #[test]
        fn pool_map_matches_seq(xs in proptest::collection::vec(-1000i64..1000, 0..2000),
                               workers in 1usize..8) {
            let f = |x: &i64| x.wrapping_mul(31).wrapping_add(7);
            let par = ThreadPool::new(workers).map(&xs, f);
            let seq: Vec<i64> = xs.iter().map(f).collect();
            prop_assert_eq!(par, seq);
        }

        /// Seed sequences are deterministic and collision-free over small
        /// index ranges.
        #[test]
        fn seeds_deterministic_and_distinct(key in any::<u64>()) {
            let a = SeedSequence::new(key);
            let b = SeedSequence::new(key);
            let mut seen = std::collections::HashSet::new();
            for i in 0..256u64 {
                prop_assert_eq!(a.seed(i), b.seed(i));
                prop_assert!(seen.insert(a.seed(i)), "collision at index {}", i);
            }
        }
    }
}
