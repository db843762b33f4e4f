//! Parameter sweeps over the experiment grid (Table 2), run in parallel
//! with deterministic per-cell seeds.

use serde::{Deserialize, Serialize};

use sss_exec::{SeedSequence, ThreadPool};
use sss_netsim::SimConfig;
use sss_units::Bytes;

use crate::experiment::{Experiment, ExperimentResult, SpawnStrategy};

/// Specification of a full sweep: the cross product of concurrency levels
/// and parallel-flow counts, each repeated `repeats` times with distinct
/// derived seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Base network configuration.
    pub config: SimConfig,
    /// Experiment duration in seconds.
    pub duration_s: u32,
    /// Concurrency levels (clients per second), e.g. `1..=8`.
    pub concurrency: Vec<u32>,
    /// Parallel-flow counts, e.g. `[2, 4, 8]`.
    pub parallel_flows: Vec<u32>,
    /// Volume per client.
    pub bytes_per_client: Bytes,
    /// Spawning strategy.
    pub strategy: SpawnStrategy,
    /// Spawn jitter in seconds.
    pub start_jitter: f64,
    /// Repetitions per cell (distinct seeds).
    pub repeats: u32,
    /// Master seed.
    pub seed: u64,
}

impl SweepSpec {
    /// The paper's Table 2 grid: concurrency 1–8 × P ∈ {2, 4, 8} ×
    /// 0.5 GB × 10 s — "Total experiments: 24" per strategy.
    pub fn paper_grid(strategy: SpawnStrategy, repeats: u32, seed: u64) -> Self {
        SweepSpec {
            config: SimConfig::paper_testbed(),
            duration_s: 10,
            concurrency: (1..=8).collect(),
            parallel_flows: vec![2, 4, 8],
            bytes_per_client: Bytes::from_gb(0.5),
            strategy,
            start_jitter: 0.002,
            repeats,
            seed,
        }
    }

    /// A miniature grid for tests: fast yet congested.
    pub fn small_grid(strategy: SpawnStrategy, seed: u64) -> Self {
        SweepSpec {
            config: SimConfig::small_test(),
            duration_s: 2,
            concurrency: vec![1, 4],
            parallel_flows: vec![2],
            bytes_per_client: Bytes::from_mb(2.0),
            strategy,
            start_jitter: 0.001,
            repeats: 1,
            seed,
        }
    }

    /// Number of experiment cells (excluding repeats).
    pub fn cells(&self) -> usize {
        self.concurrency.len() * self.parallel_flows.len()
    }

    /// Materialize every (cell × repeat) experiment with derived seeds.
    pub fn experiments(&self) -> Vec<Experiment> {
        let seeds = SeedSequence::new(self.seed);
        let mut out = Vec::with_capacity(self.cells() * self.repeats as usize);
        let mut idx = 0u64;
        for &p in &self.parallel_flows {
            for &c in &self.concurrency {
                for _ in 0..self.repeats {
                    out.push(Experiment {
                        config: self.config,
                        duration_s: self.duration_s,
                        concurrency: c,
                        parallel_flows: p,
                        bytes_per_client: self.bytes_per_client,
                        strategy: self.strategy,
                        start_jitter: self.start_jitter,
                        seed: seeds.seed(idx),
                    });
                    idx += 1;
                }
            }
        }
        out
    }
}

/// One aggregated point of a sweep: a (concurrency, parallel) cell with
/// its repeats folded in.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Clients per second.
    pub concurrency: u32,
    /// Parallel flows per client.
    pub parallel_flows: u32,
    /// Mean measured utilization across repeats (fraction of capacity).
    pub utilization: f64,
    /// Worst transfer time across all repeats, seconds.
    pub worst_transfer_s: f64,
    /// Mean transfer time across all transfers of all repeats, seconds.
    pub mean_transfer_s: f64,
    /// P99 transfer time across pooled transfers, seconds.
    pub p99_transfer_s: f64,
    /// Pooled per-transfer times (for CDF plots), seconds.
    pub samples: Vec<f64>,
    /// The cell's experiment, as its first repeat ran it (the repeats
    /// differ only in their seeds).
    pub experiment: Experiment,
}

impl SweepPoint {
    /// Streaming Speed Score of this cell: worst over theoretical.
    pub fn sss(&self) -> f64 {
        let theo = self.experiment.theoretical_transfer_time();
        self.worst_transfer_s / theo.as_secs()
    }
}

/// Run the sweep on `pool`, aggregating repeats per cell. Results arrive
/// sorted by (parallel_flows, concurrency) and do not depend on the
/// worker count: each experiment's seed derives from its position.
pub fn sweep(spec: &SweepSpec, pool: &ThreadPool) -> Vec<SweepPoint> {
    let experiments = spec.experiments();
    let results = pool.map(&experiments, Experiment::run);
    aggregate(spec, &results)
}

/// Fold raw experiment results (in [`SweepSpec::experiments`] order) into
/// per-cell [`SweepPoint`]s.
///
/// Exposed so callers that schedule the experiments themselves — the
/// scenario suite runs many sweeps' experiments through one shared thread
/// pool — reuse the same aggregation as [`sweep`].
pub fn aggregate(spec: &SweepSpec, results: &[ExperimentResult]) -> Vec<SweepPoint> {
    let mut points = Vec::with_capacity(spec.cells());
    let repeats = spec.repeats as usize;
    for chunk in results.chunks(repeats) {
        let experiment = chunk[0].experiment;
        let mut samples = Vec::new();
        let mut worst: f64 = 0.0;
        let mut util_sum = 0.0;
        for r in chunk {
            samples.extend(r.transfer_times());
            if let Some(w) = r.worst_transfer_time() {
                worst = worst.max(w.as_secs());
            }
            util_sum += r.utilization().value();
        }
        let mean = if samples.is_empty() {
            f64::NAN
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        let p99 = sss_stats::Ecdf::from_samples(samples.clone())
            .map(|e| e.quantile(0.99))
            .unwrap_or(f64::NAN);
        points.push(SweepPoint {
            concurrency: experiment.concurrency,
            parallel_flows: experiment.parallel_flows,
            utilization: util_sum / chunk.len() as f64,
            worst_transfer_s: worst,
            mean_transfer_s: mean,
            p99_transfer_s: p99,
            samples,
            experiment,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_is_24_cells() {
        let spec = SweepSpec::paper_grid(SpawnStrategy::Simultaneous, 1, 42);
        assert_eq!(spec.cells(), 24);
        assert_eq!(spec.experiments().len(), 24);
        let spec3 = SweepSpec::paper_grid(SpawnStrategy::Simultaneous, 3, 42);
        assert_eq!(spec3.experiments().len(), 72);
    }

    #[test]
    fn experiment_seeds_are_distinct() {
        let spec = SweepSpec::paper_grid(SpawnStrategy::Simultaneous, 2, 1);
        let seeds: std::collections::HashSet<u64> =
            spec.experiments().iter().map(|e| e.seed).collect();
        assert_eq!(seeds.len(), 48);
    }

    #[test]
    fn small_sweep_runs_and_orders_points() {
        let spec = SweepSpec::small_grid(SpawnStrategy::Scheduled, 3);
        let points = sweep(&spec, &ThreadPool::new(2));
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].concurrency, 1);
        assert_eq!(points[1].concurrency, 4);
        // Higher concurrency → higher utilization.
        assert!(points[1].utilization > points[0].utilization);
        for p in &points {
            assert!(p.worst_transfer_s > 0.0);
            assert!(p.sss() >= 1.0);
            assert!(!p.samples.is_empty());
        }
    }

    #[test]
    fn sweep_deterministic_across_worker_counts() {
        let spec = SweepSpec::small_grid(SpawnStrategy::Simultaneous, 9);
        let a = sweep(&spec, &ThreadPool::new(1));
        let b = sweep(&spec, &ThreadPool::new(4));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.samples, y.samples);
            assert_eq!(x.worst_transfer_s, y.worst_transfer_s);
        }
    }
}
