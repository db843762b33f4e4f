//! E-F2a — regenerate Figure 2(a): maximum transfer time vs network load
//! for 0.5 GB transfers with P = 2, 4, 8 parallel TCP flows under
//! simultaneous batch spawning.
//!
//! Expected shape (paper): flat and sub-second at low utilization,
//! 2–3 s in the moderate regime, non-linear growth past ~90%.

use sss_loadgen::SpawnStrategy;
use sss_report::{AsciiPlot, CsvWriter, Scale, Table};

use crate::context::{congestion_curve, fmt_s, p_series, Context};

pub(crate) fn run(ctx: &Context) {
    let points = ctx.grid(SpawnStrategy::Simultaneous);

    let mut table = Table::new([
        "P",
        "concurrency",
        "offered",
        "measured util",
        "worst",
        "mean",
        "p99",
        "SSS",
    ])
    .with_title("Figure 2(a): max transfer time vs load, simultaneous batches");
    let mut csv = CsvWriter::new([
        "parallel_flows",
        "concurrency",
        "offered_load",
        "utilization",
        "worst_s",
        "mean_s",
        "p99_s",
        "sss",
    ]);
    for p in points {
        let offered = p.experiment.offered_load().value();
        table.row([
            p.parallel_flows.to_string(),
            p.concurrency.to_string(),
            format!("{:.0}%", offered * 100.0),
            format!("{:.1}%", p.utilization * 100.0),
            fmt_s(p.worst_transfer_s),
            fmt_s(p.mean_transfer_s),
            fmt_s(p.p99_transfer_s),
            format!("{:.1}", p.sss()),
        ]);
        csv.row_f64([
            p.parallel_flows as f64,
            p.concurrency as f64,
            offered,
            p.utilization,
            p.worst_transfer_s,
            p.mean_transfer_s,
            p.p99_transfer_s,
            p.sss(),
        ]);
    }

    println!("{}", table.to_text());
    let mut plot = AsciiPlot::new("max transfer time (s, log) vs utilization (%)", 64, 16)
        .labels("utilization %", "worst transfer s")
        .scales(Scale::Linear, Scale::Log);
    for s in p_series(points, |p| p.utilization * 100.0) {
        plot = plot.series(s);
    }
    println!("{}", plot.render());

    let curve = congestion_curve(points);
    println!(
        "interpolated SSS at 64% utilization: {:.2} (case-study input)",
        curve.sss_at(0.64).value()
    );
    println!(
        "interpolated SSS at 96% utilization: {:.2}",
        curve.sss_at(0.96).value()
    );

    let path = ctx.out("fig2a.csv");
    csv.write_to(&path).expect("write fig2a.csv");
    sss_report::write_json(&ctx.out("fig2a_curve.json"), &curve.points().to_vec())
        .expect("write curve json");
    eprintln!("wrote {}", path.display());
}
