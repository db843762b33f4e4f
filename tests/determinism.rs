//! Reproducibility guarantees across the whole stack: identical seeds
//! yield identical results regardless of thread count; different seeds
//! genuinely differ.

use stream_score::prelude::*;

fn spec(seed: u64) -> SweepSpec {
    SweepSpec {
        config: SimConfig::small_test(),
        duration_s: 2,
        concurrency: vec![2, 6],
        parallel_flows: vec![2, 4],
        bytes_per_client: Bytes::from_mb(4.0),
        strategy: SpawnStrategy::Simultaneous,
        start_jitter: 0.002,
        repeats: 2,
        seed,
    }
}

#[test]
fn sweep_identical_across_worker_counts() {
    let a = sweep(&spec(11), &ThreadPool::new(1));
    let b = sweep(&spec(11), &ThreadPool::new(4));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.concurrency, y.concurrency);
        assert_eq!(x.parallel_flows, y.parallel_flows);
        assert_eq!(
            x.samples, y.samples,
            "per-transfer times must be bit-identical"
        );
        assert_eq!(x.worst_transfer_s, y.worst_transfer_s);
        assert_eq!(x.utilization, y.utilization);
    }
}

#[test]
fn different_seeds_differ() {
    let a = sweep(&spec(11), &ThreadPool::new(2));
    let b = sweep(&spec(12), &ThreadPool::new(2));
    // Jitter differs → at least one cell's samples differ.
    let any_diff = a.iter().zip(&b).any(|(x, y)| x.samples != y.samples);
    assert!(any_diff, "distinct seeds should perturb transfer times");
}

#[test]
fn simulator_runs_are_pure() {
    let run = || {
        let mut sim = Simulator::new(SimConfig::small_test(), 4);
        for c in 0..4 {
            sim.add_flow(FlowSpec::new(
                c,
                Bytes::from_mb(3.0),
                SimTime::from_millis(c as u64 * 100),
            ));
        }
        sim.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.flows, b.flows);
    assert_eq!(a.events, b.events);
    assert_eq!(a.bottleneck, b.bottleneck);
    assert_eq!(a.delivered, b.delivered);
}

#[test]
fn monte_carlo_and_bootstrap_are_seeded() {
    use stream_score::core::montecarlo::{MonteCarloOutcome, TransferEfficiencyDistribution};
    use stream_score::stats::bootstrap_ci;

    let params = ModelParams::builder()
        .data_unit(Bytes::from_gb(1.0))
        .intensity(ComputeIntensity::from_tflop_per_gb(5.0))
        .local_rate(FlopRate::from_tflops(10.0))
        .remote_rate(FlopRate::from_tflops(50.0))
        .bandwidth(Rate::from_gbps(25.0))
        .alpha(Ratio::new(0.7))
        .build()
        .unwrap();
    let d = TransferEfficiencyDistribution::Uniform { lo: 0.3, hi: 0.9 };
    assert_eq!(
        MonteCarloOutcome::run(&params, d, 1000, 99),
        MonteCarloOutcome::run(&params, d, 1000, 99)
    );

    let xs: Vec<f64> = (0..100).map(|i| (i % 13) as f64).collect();
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    assert_eq!(
        bootstrap_ci(&xs, mean, 0.95, 300, 5),
        bootstrap_ci(&xs, mean, 0.95, 300, 5)
    );
}
