//! The Figure 4 scenario as a library consumer would run it: move one
//! APS tomography scan to ALCF by streaming and by file-based staging at
//! several aggregation levels, then estimate the θ coefficient each
//! file-based variant implies for the completion-time model.
//!
//! ```text
//! cargo run --example aps_tomography
//! ```

use stream_score::iosim::theta_estimate;
use stream_score::prelude::*;

fn main() {
    let path = presets::aps_to_alcf();
    // A constant-rate WAN is the steady trace at its bandwidth.
    let steady = BandwidthTrace::steady(path.wan.bandwidth);
    for (label, period_s) in [
        ("fast acquisition (0.033 s/frame)", 0.033),
        ("slow acquisition (0.33 s/frame)", 0.33),
    ] {
        let scan = FrameSource::aps_scan(TimeDelta::from_secs(period_s));
        println!(
            "\n=== {label}: {:.1} GB over {:.1} s ===",
            scan.total_bytes().as_gb(),
            scan.acquisition_duration().as_secs()
        );

        let stream = EventStreamingPipeline::new(scan, path.wan, steady.clone()).run();
        println!(
            "memory streaming : complete {:8.1} s  (lag after acquisition {:6.2} s)",
            stream.completion.as_secs(),
            stream.post_acquisition_lag.as_secs()
        );

        let wire = scan.total_bytes() / path.wan.bandwidth;
        for files in [1u32, 10, 144, 1440] {
            let r = EventFileBasedPipeline::new(scan, files, path, steady.clone()).run();
            let theta = theta_estimate(r.post_acquisition_lag, wire)
                .map(|t| t.value())
                .unwrap_or(f64::NAN);
            println!(
                "file-based {files:>5}f : complete {:8.1} s  (lag {:6.1} s, θ ≈ {theta:6.1})",
                r.completion.as_secs(),
                r.post_acquisition_lag.as_secs(),
            );
        }

        let worst = EventFileBasedPipeline::new(scan, 1440, path, steady.clone()).run();
        println!(
            "streaming cuts completion by {:.1}% vs the 1,440-file workflow",
            (1.0 - stream.completion.as_secs() / worst.completion.as_secs()) * 100.0
        );
    }
}
