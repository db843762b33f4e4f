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
//! Built directly on `std::thread::scope` and an atomic work counter rather
//! than a work-stealing framework: the workloads are coarse (whole
//! simulations, milliseconds to seconds each), so a simple shared-queue
//! pool is optimal and the scheduling stays easy to reason about.
//!
//! ```
//! use sss_exec::{par_map, SeedSequence};
//!
//! let seeds = SeedSequence::new(42);
//! let configs: Vec<(usize, u64)> = (0..8).map(|i| (i, seeds.seed(i as u64))).collect();
//! let results = par_map(4, &configs, |&(i, seed)| (i, seed % 7));
//! assert_eq!(results.len(), 8);
//! assert_eq!(results[3].0, 3); // order preserved
//! ```

pub mod poll;
mod pool;
mod seed;

pub use pool::{par_map, ThreadPool};
pub use seed::SeedSequence;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Parallel map equals sequential map regardless of worker count.
        #[test]
        fn par_map_matches_seq(xs in proptest::collection::vec(-1000i64..1000, 0..64),
                               workers in 1usize..8) {
            let f = |x: &i64| x.wrapping_mul(31).wrapping_add(7);
            let par = par_map(workers, &xs, f);
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
