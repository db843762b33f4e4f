//! Miniature reproductions of each figure's qualitative *shape*, kept
//! fast enough for CI.

use stream_score::iosim::theta_estimate;
use stream_score::prelude::*;

fn mini_experiment(concurrency: u32, strategy: SpawnStrategy) -> ExperimentResult {
    Experiment {
        config: SimConfig::small_test(),
        duration_s: 2,
        concurrency,
        parallel_flows: 4,
        bytes_per_client: Bytes::from_mb(8.0),
        strategy,
        start_jitter: 0.001,
        seed: 5,
    }
    .run()
}

#[test]
fn fig2a_shape_nonlinear_growth_with_load() {
    // Worst transfer time grows faster than linearly across the load axis
    // once the link saturates (8 MB/s per client on a 125 MB/s link:
    // c=16 is 102% offered load).
    let low = mini_experiment(2, SpawnStrategy::Simultaneous);
    let high = mini_experiment(16, SpawnStrategy::Simultaneous);
    let low_worst = low.worst_transfer_time().unwrap().as_secs();
    let high_worst = high.worst_transfer_time().unwrap().as_secs();
    // 8× the load must cost much more than 8× the worst-case time is NOT
    // guaranteed in general, but well past the knee it exceeds linear.
    assert!(
        high_worst > 8.0 * low_worst,
        "non-linear growth expected: {low_worst} → {high_worst}"
    );
}

#[test]
fn fig2b_shape_scheduling_stays_flat() {
    let lo = mini_experiment(1, SpawnStrategy::Reserved);
    let hi = mini_experiment(16, SpawnStrategy::Reserved);
    let lo_worst = lo.worst_transfer_time().unwrap().as_secs();
    let hi_worst = hi.worst_transfer_time().unwrap().as_secs();
    assert!(
        hi_worst < 2.5 * lo_worst,
        "reserved slots must stay flat: {lo_worst} → {hi_worst}"
    );
}

#[test]
fn fig3_shape_long_tail_under_congestion() {
    let result = mini_experiment(16, SpawnStrategy::Simultaneous);
    let tail = result.tail().expect("transfers complete");
    // P99 well above the median: the long tail of Figure 3.
    assert!(
        tail.tail_inflation() > 1.5,
        "expected a long tail, P99/P50 = {}",
        tail.tail_inflation()
    );
    // And the worst case dominates the mean by a clear margin.
    assert!(tail.max > 1.5 * tail.mean);
}

#[test]
fn fig4_shape_streaming_vs_files() {
    let scan = FrameSource::new(144, Bytes::from_mb(8.0), TimeDelta::from_millis(33.0));
    let path = presets::aps_to_alcf();
    let steady = BandwidthTrace::steady(path.wan.bandwidth);
    let stream = EventStreamingPipeline::new(scan, path.wan, steady.clone()).run();
    let one = EventFileBasedPipeline::new(scan, 1, path, steady.clone()).run();
    let many = EventFileBasedPipeline::new(scan, 144, path, steady).run();

    // Ordering: streaming < aggregated file < per-frame files.
    assert!(stream.completion < one.completion);
    assert!(one.completion < many.completion);
    // The small-file penalty is severe (>2× the aggregated case).
    assert!(many.completion.as_secs() > 2.0 * one.completion.as_secs());
}

#[test]
fn fig4_theta_grows_with_file_count() {
    let scan = FrameSource::new(144, Bytes::from_mb(8.0), TimeDelta::from_millis(33.0));
    let path = presets::aps_to_alcf();
    let steady = BandwidthTrace::steady(path.wan.bandwidth);
    let wire = scan.total_bytes() / path.wan.bandwidth;
    let theta_1 = theta_estimate(
        EventFileBasedPipeline::new(scan, 1, path, steady.clone())
            .run()
            .post_acquisition_lag,
        wire,
    )
    .unwrap();
    let theta_144 = theta_estimate(
        EventFileBasedPipeline::new(scan, 144, path, steady)
            .run()
            .post_acquisition_lag,
        wire,
    )
    .unwrap();
    assert!(theta_1.value() >= 1.0);
    assert!(
        theta_144.value() > 3.0 * theta_1.value(),
        "θ must explode with file count: {} vs {}",
        theta_1.value(),
        theta_144.value()
    );
}

#[test]
fn headline_order_of_magnitude_inflation() {
    // At heavy overload the worst-case SSS exceeds 10 — the abstract's
    // "over an order of magnitude" claim, at miniature scale.
    let result = mini_experiment(32, SpawnStrategy::Simultaneous);
    let sss = result.streaming_speed_score().unwrap();
    assert!(
        sss.value() > 10.0,
        "expected >10× inflation at 2× overload, got {}",
        sss.value()
    );
}
