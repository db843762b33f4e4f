//! E-X3 — verify the abstract's two headline numbers:
//!
//! 1. "streaming can achieve up to 97% lower end-to-end completion time
//!    than file-based methods under high data rates" (from Figure 4), and
//! 2. "worst-case congestion can increase transfer times by over an order
//!    of magnitude" (from Figure 2(a) vs the 0.16 s theoretical time).

use sss_iosim::{presets, EventFileBasedPipeline, EventStreamingPipeline, FrameSource};
use sss_loadgen::SpawnStrategy;
use sss_report::Table;
use sss_sim::BandwidthTrace;
use sss_units::TimeDelta;

use crate::context::Context;

pub(crate) fn run(ctx: &Context) {
    let mut table =
        Table::new(["claim", "paper", "measured here", "holds?"]).with_title("Headline claims");

    // Claim 1: completion-time reduction at the high frame rate.
    let scan = FrameSource::aps_scan(TimeDelta::from_secs(0.033));
    let path = presets::aps_to_alcf();
    let steady = BandwidthTrace::steady(path.wan.bandwidth);
    let stream = EventStreamingPipeline::new(scan, path.wan, steady.clone()).run();
    let files = EventFileBasedPipeline::new(scan, 1440, path, steady).run();
    let reduction = 1.0 - stream.completion.as_secs() / files.completion.as_secs();
    table.row([
        "streaming vs file-based completion reduction (high rate)".to_string(),
        "up to 97%".to_string(),
        format!("{:.1}%", reduction * 100.0),
        (reduction > 0.9).to_string(),
    ]);

    // Claim 2: worst-case congestion inflation.
    let points = ctx.grid(SpawnStrategy::Simultaneous);
    let worst_sss = points.iter().map(|p| p.sss()).fold(0.0f64, f64::max);
    table.row([
        "worst-case transfer inflation over theoretical".to_string(),
        ">10× (5 s vs 0.16 s ≈ 31×)".to_string(),
        format!("{worst_sss:.0}×"),
        (worst_sss > 10.0).to_string(),
    ]);

    println!("{}", table.to_text());
    sss_report::write_json(
        &ctx.out("headline.json"),
        &serde_json::json!({
            "fig4_reduction": reduction,
            "worst_sss": worst_sss,
        }),
    )
    .expect("write headline.json");
}
