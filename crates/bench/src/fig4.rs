//! E-F4 — regenerate Figure 4: streaming vs file-based movement of one
//! APS scan (1,440 × 2048×2048×2 B frames) from the Voyager GPFS to the
//! Eagle Lustre file system, at 0.033 s/frame and 0.33 s/frame, with the
//! scan aggregated into 1 / 10 / 144 / 1,440 files.
//!
//! Expected shape (paper): streaming tracks acquisition and wins at high
//! frame rates; the 1,440-small-file case suffers severe metadata/startup
//! penalties; large aggregates are competitive at the low rate.

use sss_iosim::{
    presets, theta_estimate, EventFileBasedPipeline, EventStreamingPipeline, FrameSource,
};
use sss_report::{CsvWriter, Table};
use sss_sim::BandwidthTrace;
use sss_units::TimeDelta;

use crate::context::{fmt_s, Context};

pub(crate) fn run(ctx: &Context) {
    let mut csv = CsvWriter::new([
        "period_s",
        "method",
        "files",
        "completion_s",
        "post_acquisition_lag_s",
        "theta_estimate",
    ]);

    let path = presets::aps_to_alcf();
    let steady = BandwidthTrace::steady(path.wan.bandwidth);
    for (label, period) in [("0.033 s/frame", 0.033), ("0.33 s/frame", 0.33)] {
        let scan = FrameSource::aps_scan(TimeDelta::from_secs(period));
        let acquisition = scan.acquisition_duration();
        let wire = scan.total_bytes() / path.wan.bandwidth;

        let mut table = Table::new(["method", "completion", "lag after acquisition", "θ est."])
            .with_title(format!(
                "Figure 4 @ {label}: APS scan ({:.1} GB, acquisition {})",
                scan.total_bytes().as_gb(),
                fmt_s(acquisition.as_secs())
            ));

        let stream = EventStreamingPipeline::new(scan, path.wan, steady.clone()).run();
        table.row([
            "memory streaming".to_string(),
            fmt_s(stream.completion.as_secs()),
            fmt_s(stream.post_acquisition_lag.as_secs()),
            "1.0 (by construction)".to_string(),
        ]);
        csv.row([
            period.to_string(),
            "streaming".into(),
            "0".into(),
            stream.completion.as_secs().to_string(),
            stream.post_acquisition_lag.as_secs().to_string(),
            "1.0".into(),
        ]);

        let mut file_completions = Vec::new();
        for files in [1u32, 10, 144, 1440] {
            let r = EventFileBasedPipeline::new(scan, files, path, steady.clone()).run();
            let theta = theta_estimate(r.post_acquisition_lag, wire)
                .map(|t| format!("{:.1}", t.value()))
                .unwrap_or_else(|| "-".into());
            table.row([
                format!("file-based, {files} file(s)"),
                fmt_s(r.completion.as_secs()),
                fmt_s(r.post_acquisition_lag.as_secs()),
                theta.clone(),
            ]);
            csv.row([
                period.to_string(),
                "file".into(),
                files.to_string(),
                r.completion.as_secs().to_string(),
                r.post_acquisition_lag.as_secs().to_string(),
                theta,
            ]);
            file_completions.push((files, r.completion.as_secs()));
        }
        println!("{}", table.to_text());

        let worst = file_completions
            .iter()
            .map(|(_, t)| *t)
            .fold(0.0f64, f64::max);
        println!(
            "streaming reduction vs worst file-based case: {:.1}%\n",
            (1.0 - stream.completion.as_secs() / worst) * 100.0
        );
    }

    let path = ctx.out("fig4.csv");
    csv.write_to(&path).expect("write fig4.csv");
    eprintln!("wrote {}", path.display());
}
