//! Parallel-file-system and DTN staging pipeline simulator.
//!
//! Substitutes for the paper's APS→ALCF measurement (Figure 4): moving one
//! tomography scan (1,440 frames of 2048×2048 16-bit pixels ≈ 12.1 GB)
//! from the APS *Voyager* GPFS file system to the ALCF *Eagle* Lustre file
//! system, either by **streaming** frames as they are produced or by the
//! **file-based** path (write locally → DTN transfer → write remotely),
//! with the scan aggregated into 1, 10, 144 or 1,440 files.
//!
//! The file-based penalties in the measurement come from per-file fixed
//! costs — metadata operations on both file systems, the transfer tool's
//! per-file startup/checksum work — and from aggregation wait (a file can
//! only move once its last frame is written). The pipeline model has
//! exactly those terms, each overlappable stage computed with busy-until
//! recurrences over a WAN [`BandwidthTrace`](sss_sim::BandwidthTrace), so
//! the figure's *shape* (streaming ≈ acquisition-bound; small-file case
//! catastrophically slower; large aggregates competitive at low rates)
//! emerges from the same mechanics as on the real systems. A constant-rate
//! WAN is the steady trace at its bandwidth.
//!
//! ```
//! use sss_iosim::{presets, EventFileBasedPipeline, EventStreamingPipeline, FrameSource};
//! use sss_sim::BandwidthTrace;
//! use sss_units::TimeDelta;
//!
//! let scan = FrameSource::aps_scan(TimeDelta::from_secs(0.033));
//! let path = presets::aps_to_alcf();
//! let steady = BandwidthTrace::steady(path.wan.bandwidth);
//! let stream = EventStreamingPipeline::new(scan, path.wan, steady.clone()).run();
//! let files = EventFileBasedPipeline::new(scan, 1440, path, steady).run();
//! // Streaming finishes essentially with acquisition; 1,440 small files
//! // pay ~a second of fixed cost each.
//! assert!(stream.completion < files.completion);
//! ```

mod event;
mod fluid;
mod pipeline;
mod profile;
mod workload;

pub use event::{EventFileBasedPipeline, EventStreamingPipeline};
pub use pipeline::MovementResult;
pub use profile::{presets, DtnProfile, PathProfile, PfsProfile, WanProfile};
pub use workload::FrameSource;

use sss_units::{Ratio, TimeDelta};

/// Estimate the paper's I/O-overhead coefficient θ (Eq. 7) from a measured
/// file-based movement: `θ = (T_IO + T_transfer) / T_transfer`, where the
/// numerator is the file path's post-acquisition lag (everything after the
/// last frame exists is transfer + I/O) and the denominator is the pure
/// wire time of the same bytes.
///
/// Returns `None` when `t_transfer` is non-positive.
pub fn theta_estimate(file_lag: TimeDelta, t_transfer: TimeDelta) -> Option<Ratio> {
    if t_transfer.as_secs() <= 0.0 {
        return None;
    }
    Some(file_lag / t_transfer)
}

#[cfg(test)]
mod theta_tests {
    use super::*;

    #[test]
    fn theta_of_pure_transfer_is_one() {
        let t = theta_estimate(TimeDelta::from_secs(2.0), TimeDelta::from_secs(2.0)).unwrap();
        assert!((t.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn theta_grows_with_io() {
        let t = theta_estimate(TimeDelta::from_secs(6.0), TimeDelta::from_secs(2.0)).unwrap();
        assert!((t.value() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn theta_rejects_zero_transfer() {
        assert!(theta_estimate(TimeDelta::from_secs(1.0), TimeDelta::ZERO).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sss_sim::BandwidthTrace;
    use sss_units::{Bytes, Rate};

    fn any_source(period_ms: f64, frames: u32) -> FrameSource {
        FrameSource::new(
            frames,
            Bytes::from_mb(8.0),
            TimeDelta::from_millis(period_ms),
        )
    }

    fn streamed(src: FrameSource, wan: WanProfile) -> MovementResult {
        EventStreamingPipeline::new(src, wan, BandwidthTrace::steady(wan.bandwidth)).run()
    }

    fn staged(src: FrameSource, files: u32, path: PathProfile) -> MovementResult {
        EventFileBasedPipeline::new(src, files, path, BandwidthTrace::steady(path.wan.bandwidth))
            .run()
    }

    proptest! {
        /// File movement never completes before acquisition ends.
        #[test]
        fn file_completion_after_acquisition(files in 1u32..64, period in 1.0f64..50.0) {
            let src = any_source(period, 128);
            let r = staged(src, files, presets::aps_to_alcf());
            prop_assert!(r.completion.as_secs() >= src.acquisition_duration().as_secs() - 1e-9);
        }

        /// Streaming completion is acquisition-bound when the network is
        /// fast enough, and never precedes acquisition.
        #[test]
        fn stream_completion_after_acquisition(period in 1.0f64..50.0) {
            let src = any_source(period, 128);
            let r = streamed(src, presets::aps_alcf_wan());
            prop_assert!(r.completion.as_secs() >= src.acquisition_duration().as_secs() - 1e-9);
        }

        /// With per-file overheads present, streaming beats file-based
        /// movement for any aggregation.
        #[test]
        fn streaming_dominates(files in 1u32..64, period in 1.0f64..40.0) {
            let src = any_source(period, 96);
            let s = streamed(src, presets::aps_alcf_wan());
            let f = staged(src, files, presets::aps_to_alcf());
            prop_assert!(s.completion.as_secs() <= f.completion.as_secs() + 1e-9);
        }

        /// Completion is monotone in the DTN per-file overhead.
        #[test]
        fn monotone_in_overhead(files in 1u32..32, extra_ms in 0.0f64..2000.0) {
            let src = any_source(5.0, 64);
            let base = presets::aps_to_alcf();
            let mut slow = base;
            slow.dtn.startup_per_file =
                base.dtn.startup_per_file + TimeDelta::from_millis(extra_ms);
            let a = staged(src, files, base);
            let b = staged(src, files, slow);
            prop_assert!(b.completion.as_secs() >= a.completion.as_secs() - 1e-9);
        }

        /// θ estimated from any file run is ≥ 1 (I/O can only add time).
        #[test]
        fn theta_at_least_one(files in 1u32..64) {
            let src = any_source(10.0, 64);
            let f = staged(src, files, presets::aps_to_alcf());
            let wire = src.total_bytes() / Rate::from_gigabytes_per_sec(12.5);
            let theta = theta_estimate(f.post_acquisition_lag, wire).unwrap();
            prop_assert!(theta.value() >= 1.0 - 1e-9);
        }

        /// Fluid-vs-exact parity, file path: the closed-form writer +
        /// traced DTN is exact for **any** geometry, aggregation,
        /// concurrency and random trace (zero-rate slots included) —
        /// completion and every per-file instant within 1e-9 relative.
        #[test]
        fn fluid_file_pipeline_matches_event_on_random_traces(
            frames in 1u32..96,
            period in 1.0f64..60.0,
            files_raw in 1u32..32,
            concurrency in 1u32..5,
            segs in proptest::collection::vec((0.05f64..3.0, 0u32..4), 0..10),
        ) {
            let files = files_raw.min(frames);
            let src = any_source(period, frames);
            let mut path = presets::aps_to_alcf();
            path.dtn.concurrency = concurrency;
            let base = path.wan.bandwidth.as_gbps();
            let mut segments = vec![(0.0, path.wan.bandwidth)];
            let mut t = 0.0;
            for (dur, level) in segs {
                t += dur;
                segments.push((t, Rate::from_gbps(base * level as f64 / 4.0)));
            }
            t += 1.0;
            segments.push((t, path.wan.bandwidth));
            let trace = sss_sim::BandwidthTrace::from_segments(&segments).unwrap();

            let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(b.abs()).max(1e-12);
            let pipe = EventFileBasedPipeline::new(src, files, path, trace);
            let (exact, exact_units) = pipeline::with_units(|u| pipe.run_with(u));
            let (fluid, fluid_units) = pipeline::with_units(|u| pipe.run_fluid_with(u));
            prop_assert!(
                rel(fluid.completion.as_secs(), exact.completion.as_secs()) <= 1e-9,
                "completion: fluid {} vs exact {}", fluid.completion, exact.completion
            );
            for (f, e) in fluid_units.iter().zip(&exact_units) {
                prop_assert!(rel(*f, *e) <= 1e-9, "file instant {f} vs {e}");
            }
        }

        /// Fluid-vs-exact parity, streaming path: on burst sources (the
        /// replay regime, which satisfies the Hybrid exactness condition)
        /// the fluid completion matches the per-frame chain within 1e-9
        /// for random traces; on arrival-gated sources it stays a lower
        /// envelope — never completing before the event simulator minus
        /// float slack.
        #[test]
        fn fluid_streaming_parity_on_random_traces(
            frames in 1u32..96,
            segs in proptest::collection::vec((0.05f64..3.0, 1u32..4), 0..10),
            period in 1.0f64..60.0,
        ) {
            let mut wan = presets::aps_alcf_wan();
            wan.per_message_overhead = TimeDelta::ZERO;
            let mut segments = vec![(0.0, wan.bandwidth)];
            let mut t = 0.0;
            for (dur, level) in segs {
                t += dur;
                segments.push((t, Rate::from_gbps(wan.bandwidth.as_gbps() * level as f64 / 4.0)));
            }
            t += 1.0;
            segments.push((t, wan.bandwidth));
            let trace = sss_sim::BandwidthTrace::from_segments(&segments).unwrap();
            let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(b.abs()).max(1e-12);

            // Burst production: provably exact.
            let burst = FrameSource::new(frames, Bytes::from_mb(8.0), TimeDelta::from_secs(1e-9));
            let pipe = EventStreamingPipeline::new(burst, wan, trace.clone());
            prop_assert!(pipe.fluid_is_exact());
            let exact = pipe.run().completion.as_secs();
            let fluid = pipe.run_fluid().completion.as_secs();
            prop_assert!(rel(fluid, exact) <= 1e-9, "burst: fluid {fluid} vs exact {exact}");

            // Arrival-gated production: fluid arrivals are a lower
            // envelope of the frame steps, so the fluid stream can only
            // finish later (modulo float slack).
            let gated = any_source(period, frames);
            let pipe = EventStreamingPipeline::new(gated, wan, trace);
            let exact = pipe.run().completion.as_secs();
            let fluid = pipe.run_fluid().completion.as_secs();
            prop_assert!(
                fluid >= exact - exact.abs() * 1e-9,
                "gated: fluid {fluid} finished before exact {exact}"
            );
        }
    }
}
