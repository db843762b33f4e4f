//! Every concrete number the paper states, asserted in one place.
//!
//! These are the fixed points of the reproduction: arithmetic identities
//! (which must match exactly) and measured anchors (which must land in
//! the right regime).

use stream_score::prelude::*;

// --- §4.1: the theoretical transfer-time floor ---

#[test]
fn theoretical_time_for_half_gb_at_25gbps_is_160ms() {
    let t = Bytes::from_gb(0.5) / Rate::from_gbps(25.0);
    assert!((t.as_secs() - 0.16).abs() < 1e-12);
}

#[test]
fn observed_5s_maximum_is_sss_31() {
    // "observed maximum transfer times exceed five seconds" → SSS > 31.
    let sss = StreamingSpeedScore::from_measurement(
        TimeDelta::from_secs(5.0),
        Bytes::from_gb(0.5),
        Rate::from_gbps(25.0),
    )
    .unwrap();
    assert!((sss.score().value() - 31.25).abs() < 1e-9);
}

// --- Table 2: the experiment grid ---

#[test]
fn table2_has_24_experiments() {
    let spec = SweepSpec::paper_grid(SpawnStrategy::Simultaneous, 1, 0);
    assert_eq!(spec.cells(), 24);
    assert_eq!(spec.duration_s, 10);
    assert_eq!(spec.concurrency, (1..=8).collect::<Vec<_>>());
    assert_eq!(spec.parallel_flows, vec![2, 4, 8]);
    assert_eq!(spec.bytes_per_client, Bytes::from_gb(0.5));
}

#[test]
fn table1_testbed_constants() {
    let cfg = SimConfig::paper_testbed();
    assert!((cfg.bottleneck.rate.as_gbps() - 25.0).abs() < 1e-9);
    // RTT 16 ms (paper's ping) plus sub-0.1 ms LAN hops.
    assert!((cfg.base_rtt().as_millis() - 16.0).abs() < 0.2);
    assert_eq!(cfg.tcp.mss, 8_948); // MTU 9000 jumbo frames
}

// --- Table 3: LCLS-II workflows ---

#[test]
fn table3_coherent_scattering_34tf_per_2gb() {
    let s = Scenario::by_id("lcls-coherent-scattering").unwrap();
    let work = s.params.intensity * s.params.data_unit;
    assert!((work.as_tflop() - 34.0).abs() < 1e-9);
    assert!((s.params.required_stream_rate().as_gigabytes_per_sec() - 2.0).abs() < 1e-12);
}

#[test]
fn table3_liquid_scattering_20tf_per_4gb_is_32gbps() {
    let s = Scenario::by_id("lcls-liquid-scattering").unwrap();
    let work = s.params.intensity * s.params.data_unit;
    assert!((work.as_tflop() - 20.0).abs() < 1e-9);
    // "Obviously 4 GB/s (32 Gbps) would be unfeasible because it is
    // higher than our link capacity of 25 Gbps."
    assert!((s.params.required_stream_rate().as_gbps() - 32.0).abs() < 1e-9);
    assert_eq!(decide(&s.params).decision, Decision::Infeasible);
}

// --- §5: the case-study arithmetic ---

#[test]
fn coherent_scattering_at_64pct_with_1_2s_worst_leaves_8_8s() {
    // The paper's own numbers: a 1.2 s worst-case stream against the
    // 10 s Tier-2 budget leaves 8.8 s for analysis.
    let s = Scenario::by_id("lcls-coherent-scattering").unwrap();
    // 1.2 s on the 0.64 s theoretical time of 2 GB at 25 Gbps.
    let sss = Ratio::new(1.2 / 0.64);
    let report = TierReport::evaluate(&s.params, sss, Tier::NearRealTime).unwrap();
    assert!((report.worst_transfer.as_secs() - 1.2).abs() < 1e-9);
    assert!((report.compute_budget.as_secs() - 8.8).abs() < 1e-9);
    assert!(report.feasible);
}

#[test]
fn liquid_scattering_reduced_at_96pct_with_6s_worst_leaves_4s() {
    let s = Scenario::by_id("lcls-liquid-scattering-reduced").unwrap();
    // 96% utilization of 25 Gbps by a 3 GB unit: theoretical 0.96 s.
    let util =
        s.params.required_stream_rate().as_bytes_per_sec() / s.params.bandwidth.as_bytes_per_sec();
    assert!((util - 0.96).abs() < 1e-9);
    let sss = Ratio::new(6.0 / 0.96);
    let report = TierReport::evaluate(&s.params, sss, Tier::NearRealTime).unwrap();
    assert!((report.worst_transfer.as_secs() - 6.0).abs() < 1e-9);
    assert!((report.compute_budget.as_secs() - 4.0).abs() < 1e-9);
}

// --- §2.2 science-driver magnitudes ---

#[test]
fn lhc_rates_dwarf_any_wan() {
    // 40 TB/s against a 1 Tbps link: 320× over capacity.
    let demand = Rate::from_terabytes_per_sec(40.0);
    let wan = Rate::from_tbps(1.0);
    assert!((demand.as_bytes_per_sec() / wan.as_bytes_per_sec() - 320.0).abs() < 1e-9);
}

#[test]
fn deleria_event_stream_reduction() {
    // "producing a 240 MB/s event stream ... a data reduction of 97.5%"
    // from the 40 Gbps (5 GB/s... the published figures give 9.6 GB/s
    // raw for 240 MB/s at 97.5%) — assert the reduction arithmetic.
    let reduced = Rate::from_megabytes_per_sec(240.0);
    let raw = reduced / (1.0 - 0.975);
    assert!((raw.as_gigabytes_per_sec() - 9.6).abs() < 1e-9);
}

// --- Figure 4 workload geometry ---

#[test]
fn aps_scan_is_1440_frames_of_8mb() {
    let scan = FrameSource::aps_scan(TimeDelta::from_secs(0.033));
    assert_eq!(scan.n_frames, 1440);
    assert!((scan.frame_bytes.as_b() - 8_388_608.0).abs() < 1.0);
    // ~12.1 decimal GB of pixels (paper rounds to 12.6 GB with overhead).
    assert!((scan.total_bytes().as_gb() - 12.0795).abs() < 1e-3);
}

// --- measured anchors (miniature scale, must land in the regime) ---

#[test]
fn measured_headline_reduction_is_around_97pct() {
    let scan = FrameSource::aps_scan(TimeDelta::from_secs(0.033));
    let path = presets::aps_to_alcf();
    let steady = BandwidthTrace::steady(path.wan.bandwidth);
    let stream = EventStreamingPipeline::new(scan, path.wan, steady.clone()).run();
    let files = EventFileBasedPipeline::new(scan, 1440, path, steady).run();
    let reduction = 1.0 - stream.completion.as_secs() / files.completion.as_secs();
    assert!(
        (0.90..0.99).contains(&reduction),
        "headline reduction {reduction} out of the ~97% regime"
    );
}

#[test]
fn measured_worst_case_at_64pct_offered_is_around_1_2s() {
    // The §5 anchor measured live: 4 clients/s × 0.5 GB (64% offered) on
    // the simulated testbed, short horizon for test speed.
    let exp = Experiment {
        config: SimConfig::paper_testbed(),
        duration_s: 2,
        concurrency: 4,
        parallel_flows: 8,
        bytes_per_client: Bytes::from_gb(0.5),
        strategy: SpawnStrategy::Simultaneous,
        start_jitter: 0.002,
        seed: 42,
    };
    let worst = exp.run().worst_transfer_time().unwrap().as_secs();
    assert!(
        (0.6..2.5).contains(&worst),
        "worst at 64% should sit near the paper's 1.2 s, got {worst}"
    );
}
