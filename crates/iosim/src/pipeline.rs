//! The outcome of moving one scan to the remote facility: what both
//! movement pipelines in [`crate::event`] return, at either fidelity.

use serde::{Deserialize, Serialize};
use sss_units::TimeDelta;

use crate::workload::FrameSource;

/// Outcome of moving one scan to the remote facility.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MovementResult {
    /// When the last byte was available for remote processing, measured
    /// from acquisition start.
    pub completion: TimeDelta,
    /// `completion` minus the acquisition duration: how long remote
    /// processing had to wait after the instrument finished.
    pub post_acquisition_lag: TimeDelta,
}

impl MovementResult {
    /// The outcome of moving `source`'s scan: the last byte available
    /// `completion` seconds after acquisition start. The lag behind the
    /// end of acquisition clamps at zero.
    pub(crate) fn new(source: &FrameSource, completion: f64) -> Self {
        MovementResult {
            completion: TimeDelta::from_secs(completion),
            post_acquisition_lag: TimeDelta::from_secs(
                (completion - source.acquisition_duration().as_secs()).max(0.0),
            ),
        }
    }
}

/// A run's result and every unit instant its per-unit callback saw, in
/// order: how the tests read the instants the product discards.
#[cfg(test)]
pub(crate) fn with_units(
    run: impl FnOnce(&mut dyn FnMut(f64)) -> MovementResult,
) -> (MovementResult, Vec<f64>) {
    let mut units = Vec::new();
    let result = run(&mut |t| units.push(t));
    (result, units)
}

/// Figure 4's shape on the calibrated APS→ALCF presets, over a constant
/// WAN: the steady trace at the profile's bandwidth.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventFileBasedPipeline, EventStreamingPipeline};
    use crate::profile::{presets, PathProfile, WanProfile};
    use sss_sim::BandwidthTrace;
    use sss_units::Rate;

    fn fast_scan() -> FrameSource {
        FrameSource::aps_scan(TimeDelta::from_secs(0.033))
    }

    fn slow_scan() -> FrameSource {
        FrameSource::aps_scan(TimeDelta::from_secs(0.33))
    }

    fn streamed(src: FrameSource, wan: WanProfile) -> MovementResult {
        EventStreamingPipeline::new(src, wan, BandwidthTrace::steady(wan.bandwidth)).run()
    }

    fn staged(src: FrameSource, files: u32, path: PathProfile) -> MovementResult {
        EventFileBasedPipeline::new(src, files, path, BandwidthTrace::steady(path.wan.bandwidth))
            .run()
    }

    #[test]
    fn streaming_is_acquisition_bound_on_fast_network() {
        let r = streamed(fast_scan(), presets::aps_alcf_wan());
        let acq = fast_scan().acquisition_duration().as_secs();
        assert!(r.completion.as_secs() >= acq);
        // Lag is one frame's wire time + overheads: well under a second.
        assert!(
            r.post_acquisition_lag.as_secs() < 0.5,
            "stream lag {}",
            r.post_acquisition_lag
        );
    }

    #[test]
    fn small_files_pay_severe_penalty() {
        let stream = streamed(fast_scan(), presets::aps_alcf_wan());
        let f1440 = staged(fast_scan(), 1440, presets::aps_to_alcf());
        // 1,440 files × ~0.9 s fixed cost is catastrophically slower.
        assert!(f1440.completion.as_secs() > 10.0 * stream.completion.as_secs());
    }

    #[test]
    fn figure4_ordering_fast_rate() {
        let stream = streamed(fast_scan(), presets::aps_alcf_wan());
        let by_files: Vec<f64> = [1u32, 10, 144, 1440]
            .iter()
            .map(|&f| {
                staged(fast_scan(), f, presets::aps_to_alcf())
                    .completion
                    .as_secs()
            })
            .collect();
        // Streaming beats everything.
        for (i, t) in by_files.iter().enumerate() {
            assert!(
                stream.completion.as_secs() < *t,
                "file case {i} beat streaming"
            );
        }
        // Metadata/startup-dominated cases degrade with file count.
        assert!(by_files[3] > by_files[2], "1440 worse than 144");
        assert!(by_files[2] > by_files[1], "144 worse than 10");
    }

    #[test]
    fn aggregated_files_competitive_at_slow_rate() {
        // Paper: "file-based methods remain competitive at lower data
        // rates or with large aggregated files".
        let stream = streamed(slow_scan(), presets::aps_alcf_wan());
        let f10 = staged(slow_scan(), 10, presets::aps_to_alcf());
        let ratio = f10.completion.as_secs() / stream.completion.as_secs();
        assert!(
            ratio < 1.05,
            "10-file case should be within 5% at slow rate, got {ratio}"
        );
    }

    #[test]
    fn headline_97_percent_reduction_at_high_rate() {
        // §1/§6: "streaming can achieve up to 97% lower end-to-end
        // completion time than file-based methods under high data rates".
        let stream = streamed(fast_scan(), presets::aps_alcf_wan());
        let files = staged(fast_scan(), 1440, presets::aps_to_alcf());
        let reduction = 1.0 - stream.completion.as_secs() / files.completion.as_secs();
        assert!(
            reduction > 0.9,
            "reduction {reduction} should be in the ~97% regime"
        );
    }

    #[test]
    fn dtn_concurrency_helps_small_files() {
        let mut path = presets::aps_to_alcf();
        let serial = staged(fast_scan(), 144, path);
        path.dtn.concurrency = 4;
        let parallel = staged(fast_scan(), 144, path);
        assert!(parallel.completion.as_secs() < serial.completion.as_secs());
    }

    #[test]
    fn slow_wan_pushes_streaming_past_acquisition() {
        let mut wan = presets::aps_alcf_wan();
        // 100 MB/s network vs 254 MB/s generation: transfer-bound.
        wan.bandwidth = Rate::from_megabytes_per_sec(100.0);
        let r = streamed(fast_scan(), wan);
        let wire = (fast_scan().total_bytes() / wan.bandwidth).as_secs();
        assert!(r.completion.as_secs() >= wire);
    }

    #[test]
    fn unit_availability_is_monotone() {
        let path = presets::aps_to_alcf();
        let steady = BandwidthTrace::steady(path.wan.bandwidth);
        let (_, files) = with_units(|u| {
            EventFileBasedPipeline::new(fast_scan(), 10, path, steady.clone()).run_with(u)
        });
        for w in files.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        let wan = presets::aps_alcf_wan();
        let (_, frames) = with_units(|u| {
            EventStreamingPipeline::new(fast_scan(), wan, BandwidthTrace::steady(wan.bandwidth))
                .run_with(u)
        });
        for w in frames.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }
}
