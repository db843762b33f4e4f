//! E-X1 — ablation: how wrong is the "computing continuum" approximation
//! (Eq. 2, `d_total ≈ d_prop`) that §3 critiques?
//!
//! For every cell of the Figure 2(a) sweep, compare three predictions of
//! the worst transfer time against the simulated measurement:
//! propagation-only (Eq. 2), the textbook best case (Eq. 1 with empty
//! queues), and the queueing-aware M/M/1 reference.

use sss_core::{ContinuumApproximation, DelayDecomposition, MM1Reference};
use sss_loadgen::SpawnStrategy;
use sss_report::{CsvWriter, Table};
use sss_units::TimeDelta;

use crate::context::{fmt_s, Context};

pub(crate) fn run(ctx: &Context) {
    let points = ctx.grid(SpawnStrategy::Simultaneous);
    let mm1 = MM1Reference;

    let mut table = Table::new([
        "util",
        "measured worst",
        "Eq.2 d_prop",
        "Eq.2 error",
        "best-case Eq.1",
        "M/M/1 mean est",
    ])
    .with_title("Continuum-approximation ablation (P = 8 series)");
    let mut csv = CsvWriter::new([
        "utilization",
        "measured_worst_s",
        "prop_only_s",
        "prop_relative_error",
        "best_case_s",
        "mm1_mean_s",
    ]);

    for p in points.iter().filter(|p| p.parallel_flows == 8) {
        let exp = &p.experiment;
        let cfg = &exp.config;
        let prop = ContinuumApproximation::new(cfg.base_rtt() / 2.0);
        let best = DelayDecomposition::best_case(
            exp.bytes_per_client,
            cfg.bottleneck.rate,
            cfg.base_rtt() / 2.0,
        );
        let measured = TimeDelta::from_secs(p.worst_transfer_s);
        let mm1_mean = best.total().as_secs() * mm1.inflation(p.utilization.min(0.999));
        table.row([
            format!("{:.0}%", p.utilization * 100.0),
            fmt_s(p.worst_transfer_s),
            fmt_s(prop.total().as_secs()),
            format!("{:.1}%", prop.relative_error(measured) * 100.0),
            fmt_s(best.total().as_secs()),
            fmt_s(mm1_mean),
        ]);
        csv.row_f64([
            p.utilization,
            p.worst_transfer_s,
            prop.total().as_secs(),
            prop.relative_error(measured),
            best.total().as_secs(),
            mm1_mean,
        ]);
    }

    println!("{}", table.to_text());
    println!(
        "Eq. 2 (propagation-only) underestimates worst-case completion by >99% under \
         congestion — the paper's argument for modeling queues and losses."
    );
    let path = ctx.out("ablation_continuum.csv");
    csv.write_to(&path).expect("write ablation csv");
    eprintln!("wrote {}", path.display());
}
