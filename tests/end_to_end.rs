//! End-to-end integration: measurement → congestion curve → model →
//! decision, across crate boundaries, at test-friendly scale.

use stream_score::core::congestion::CongestionCurve;
use stream_score::prelude::*;

/// A miniature Figure 2(a)-style sweep on the small test network.
fn mini_sweep(strategy: SpawnStrategy) -> Vec<stream_score::loadgen::SweepPoint> {
    let spec = SweepSpec {
        config: SimConfig::small_test(),
        duration_s: 2,
        concurrency: vec![1, 4, 8],
        parallel_flows: vec![4],
        bytes_per_client: Bytes::from_mb(8.0),
        strategy,
        start_jitter: 0.001,
        repeats: 1,
        seed: 77,
    };
    sweep(&spec, &ThreadPool::new(2))
}

#[test]
fn measured_curve_feeds_tier_analysis() {
    // Measure congestion on the simulated network.
    let points = mini_sweep(SpawnStrategy::Simultaneous);
    let curve =
        CongestionCurve::from_points(points.iter().map(|p| (p.utilization, p.sss())).collect())
            .expect("sweep yields curve");

    // Apply it to a workload on the same class of link.
    let params = ModelParams::builder()
        .data_unit(Bytes::from_mb(50.0))
        .intensity(ComputeIntensity::from_tflop_per_gb(17.0))
        .local_rate(FlopRate::from_tflops(10.0))
        .remote_rate(FlopRate::from_tflops(340.0))
        .bandwidth(Rate::from_gbps(1.0))
        .alpha(Ratio::new(0.8))
        .build()
        .unwrap();
    let util =
        params.required_stream_rate().as_bytes_per_sec() / params.bandwidth.as_bytes_per_sec();
    let sss = curve.sss_at(util);
    assert!(sss.value() >= 1.0);

    let report = TierReport::evaluate(&params, sss, Tier::NearRealTime).unwrap();
    // The pipeline must produce an internally-consistent report.
    assert!(report.worst_transfer.as_secs() > 0.0);
    assert_eq!(
        report.feasible,
        report.worst_t_pct.as_secs() <= 10.0,
        "feasibility flag must match the budget comparison"
    );
}

#[test]
fn congestion_monotonically_degrades_worst_case() {
    let points = mini_sweep(SpawnStrategy::Simultaneous);
    // Higher concurrency cells must not have smaller worst-case times
    // than the singleton cell (they contain strictly more contention).
    let lone = points.iter().find(|p| p.concurrency == 1).unwrap();
    let crowd = points.iter().find(|p| p.concurrency == 8).unwrap();
    assert!(
        crowd.worst_transfer_s > lone.worst_transfer_s,
        "8-way batch {} should beat solo {}",
        crowd.worst_transfer_s,
        lone.worst_transfer_s
    );
}

#[test]
fn reserved_scheduling_tames_the_tail() {
    let batch = mini_sweep(SpawnStrategy::Simultaneous);
    let reserved = mini_sweep(SpawnStrategy::Reserved);
    let batch_worst = batch.iter().map(|p| p.worst_transfer_s).fold(0.0, f64::max);
    let reserved_worst = reserved
        .iter()
        .map(|p| p.worst_transfer_s)
        .fold(0.0, f64::max);
    assert!(
        reserved_worst < batch_worst,
        "reserved {reserved_worst} must beat simultaneous {batch_worst}"
    );
}

#[test]
fn paper_scenarios_decide_sanely() {
    // Table 3 row 2 is the canonical infeasibility example.
    let liquid = Scenario::by_id("lcls-liquid-scattering").unwrap();
    assert_eq!(decide(&liquid.params).decision, Decision::Infeasible);

    // Coherent scattering streams happily with a 34× remote machine.
    let coherent = Scenario::by_id("lcls-coherent-scattering").unwrap();
    let verdict = decide(&coherent.params);
    assert_eq!(verdict.decision, Decision::RemoteStream);
    assert!(verdict.gain.value() > 1.0);

    // LHC raw rates stay local, by a huge margin.
    let lhc = Scenario::by_id("lhc-raw-trigger").unwrap();
    assert_eq!(decide(&lhc.params).decision, Decision::Infeasible);
}

#[test]
fn streaming_speed_score_roundtrip() {
    // Build an SSS from a mini-sweep worst case and check the model's
    // worst-case T_pct uses it coherently.
    let points = mini_sweep(SpawnStrategy::Simultaneous);
    let worst = points
        .iter()
        .map(|p| p.worst_transfer_s)
        .fold(0.0, f64::max);
    let sss = StreamingSpeedScore::from_measurement(
        TimeDelta::from_secs(worst),
        Bytes::from_mb(8.0),
        Rate::from_gbps(1.0),
    )
    .expect("worst >= theoretical");
    assert!(sss.score().value() >= 1.0);

    let params = ModelParams::builder()
        .data_unit(Bytes::from_mb(8.0))
        .intensity(ComputeIntensity::from_tflop_per_gb(1.0))
        .local_rate(FlopRate::from_tflops(1.0))
        .remote_rate(FlopRate::from_tflops(10.0))
        .bandwidth(Rate::from_gbps(1.0))
        .alpha(Ratio::new(0.9))
        .build()
        .unwrap();
    let m = CompletionModel::new(params);
    let worst_pct = m.t_pct_worst_case(sss.score());
    // Worst case must dominate the average case whenever SSS ≥ 1/α.
    assert!(worst_pct.as_secs() >= m.t_pct().as_secs() * 0.9);
}
