//! E-F2b — regenerate Figure 2(b): maximum transfer time vs load when
//! every transfer is scheduled into a reserved time slot.
//!
//! Expected shape (paper): steady ~0.2 s transfers, maximum comfortably
//! within the 1-second budget at every load level.

use sss_loadgen::SpawnStrategy;
use sss_report::{AsciiPlot, CsvWriter, Scale, Table};

use crate::context::{fmt_s, p_series, Context};

pub(crate) fn run(ctx: &Context) {
    let points = ctx.grid(SpawnStrategy::Reserved);

    let mut table = Table::new(["P", "concurrency", "offered", "worst", "mean", "SSS"])
        .with_title("Figure 2(b): max transfer time vs load, scheduled batches");
    let mut csv = CsvWriter::new([
        "parallel_flows",
        "concurrency",
        "offered_load",
        "utilization",
        "worst_s",
        "mean_s",
        "sss",
    ]);
    let mut max_worst = 0.0f64;
    for p in points {
        let offered = p.experiment.offered_load().value();
        max_worst = max_worst.max(p.worst_transfer_s);
        table.row([
            p.parallel_flows.to_string(),
            p.concurrency.to_string(),
            format!("{:.0}%", offered * 100.0),
            fmt_s(p.worst_transfer_s),
            fmt_s(p.mean_transfer_s),
            format!("{:.1}", p.sss()),
        ]);
        csv.row_f64([
            p.parallel_flows as f64,
            p.concurrency as f64,
            offered,
            p.utilization,
            p.worst_transfer_s,
            p.mean_transfer_s,
            p.sss(),
        ]);
    }

    println!("{}", table.to_text());
    let mut plot = AsciiPlot::new("max transfer time (s) vs offered load (%)", 64, 12)
        .labels("offered load %", "worst transfer s")
        .scales(Scale::Linear, Scale::Linear);
    for s in p_series(points, |p| p.experiment.offered_load().value() * 100.0) {
        plot = plot.series(s);
    }
    println!("{}", plot.render());
    println!(
        "worst scheduled transfer across the whole grid: {} (paper: within the 1 s budget)",
        fmt_s(max_worst)
    );

    let path = ctx.out("fig2b.csv");
    csv.write_to(&path).expect("write fig2b.csv");
    eprintln!("wrote {}", path.display());
}
