//! E-F3 — regenerate Figure 3: the cumulative probability distribution of
//! per-transfer completion times, pooled across the Figure 2(a) sweep.
//!
//! Expected shape (paper): long-tailed, with non-linear increases at the
//! P90 and P99 levels.

use sss_loadgen::SpawnStrategy;
use sss_report::{AsciiPlot, CsvWriter, Scale, Series, Table};
use sss_stats::{Ecdf, TailMetrics};

use crate::context::{fmt_s, Context};

pub(crate) fn run(ctx: &Context) {
    eprintln!("running Figure 3 (pooled transfer-time CDF)...");
    let points = ctx.grid(SpawnStrategy::Simultaneous);
    let samples: Vec<f64> = points
        .iter()
        .flat_map(|p| p.samples.iter().copied())
        .collect();
    let ecdf = Ecdf::from_samples(samples.clone()).expect("sweep produced transfers");
    let tail = TailMetrics::from_samples(&samples).expect("non-empty");

    let mut table = Table::new(["statistic", "value"])
        .with_title("Figure 3: distribution of total transfer time (all experiments)");
    table.row(["transfers", &tail.count.to_string()]);
    table.row(["mean", &fmt_s(tail.mean)]);
    table.row(["P50", &fmt_s(tail.p50)]);
    table.row(["P90", &fmt_s(tail.p90)]);
    table.row(["P99", &fmt_s(tail.p99)]);
    table.row(["max (T_worst)", &fmt_s(tail.max)]);
    table.row([
        "P99/P50 tail inflation",
        &format!("{:.1}×", tail.tail_inflation()),
    ]);
    println!("{}", table.to_text());

    let curve = ecdf.curve();
    let plot = AsciiPlot::new("cumulative probability vs transfer time (s, log)", 64, 16)
        .labels("transfer time s", "P(T <= t)")
        .scales(Scale::Log, Scale::Linear)
        .series(Series::new("CDF", '*', curve.clone()));
    println!("{}", plot.render());

    let mut csv = CsvWriter::new(["transfer_s", "cumulative_probability"]);
    for (x, f) in &curve {
        csv.row_f64([*x, *f]);
    }
    let path = ctx.out("fig3.csv");
    csv.write_to(&path).expect("write fig3.csv");
    sss_report::write_json(&ctx.out("fig3_tail.json"), &tail).expect("write tail json");
    eprintln!("wrote {}", path.display());
}
