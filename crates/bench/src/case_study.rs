//! E-CS — regenerate the Section 5 case study: LCLS-II workflows (Table 3)
//! evaluated against the latency tiers, with worst-case transfer times
//! taken from the measured congestion curve (Figure 2(a)), not hard-coded
//! from the paper.
//!
//! Paper anchor points: at 64% utilization the worst-case streaming time
//! for the 2 GB/s coherent-scattering unit is ~1.2 s (leaving 8.8 s of
//! the Tier-2 budget); 4 GB/s liquid scattering is infeasible outright;
//! reduced to 3 GB/s (96% utilization) the worst case is ~6 s, leaving
//! only ~4 s.

use sss_core::{decide, Decision, Scenario, Tier, TierReport};
use sss_loadgen::SpawnStrategy;
use sss_report::{CsvWriter, Table};
use sss_units::Ratio;

use crate::context::{batch_worst_curve, fmt_s, Context};

pub(crate) fn run(ctx: &Context) {
    // §5 reads worst-case streaming times for "one second of data"
    // directly off Figure 2(a): the concurrency cell offering the same
    // utilization IS a second's worth of data in flight.
    let worst_curve = batch_worst_curve(ctx.grid(SpawnStrategy::Simultaneous));

    let mut table = Table::new([
        "workflow",
        "utilization",
        "SSS (measured)",
        "worst transfer",
        "tier budget left",
        "verdict",
    ])
    .with_title("Section 5 case study (worst-case inputs from the measured curve)");
    let mut csv = CsvWriter::new([
        "scenario",
        "utilization",
        "sss",
        "worst_transfer_s",
        "compute_budget_s",
        "feasible",
    ]);

    for scenario in [
        Scenario::by_id("lcls-coherent-scattering").expect("registered"),
        Scenario::by_id("lcls-liquid-scattering").expect("registered"),
        Scenario::by_id("lcls-liquid-scattering-reduced").expect("registered"),
    ] {
        let p = &scenario.params;
        let verdict = decide(p);
        let util = p.required_stream_rate().as_bytes_per_sec() / p.bandwidth.as_bytes_per_sec();

        if verdict.decision == Decision::Infeasible {
            table.row([
                scenario.name.to_string(),
                format!("{:.0}%", util * 100.0),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                format!(
                    "INFEASIBLE: needs {}, link {}",
                    verdict.required_rate, verdict.effective_rate
                ),
            ]);
            csv.row([
                scenario.id.to_string(),
                util.to_string(),
                "".into(),
                "".into(),
                "".into(),
                "false".into(),
            ]);
            continue;
        }

        // Worst-case time to move one second of data at this utilization,
        // read off the measured curve; expressed as an SSS against the
        // unit's theoretical time for the tier evaluation.
        let worst_s = worst_curve.at(util);
        let t_theoretical = (p.data_unit / p.bandwidth).as_secs();
        let sss = Ratio::new((worst_s / t_theoretical).max(1.0));
        let report = TierReport::evaluate(p, sss, Tier::NearRealTime).expect("tier 2 has a budget");
        table.row([
            scenario.name.to_string(),
            format!("{:.0}%", util * 100.0),
            format!("{:.2}", sss.value()),
            fmt_s(report.worst_transfer.as_secs()),
            fmt_s(report.compute_budget.as_secs()),
            if report.feasible {
                format!(
                    "Tier 2 OK; needs ≥{:.1} TFLOPS remote",
                    report
                        .required_remote_rate
                        .map(|r| r.as_tflops())
                        .unwrap_or(f64::NAN)
                )
            } else {
                "Tier 2 MISSED (worst case)".to_string()
            },
        ]);
        csv.row([
            scenario.id.to_string(),
            util.to_string(),
            sss.value().to_string(),
            report.worst_transfer.as_secs().to_string(),
            report.compute_budget.as_secs().to_string(),
            report.feasible.to_string(),
        ]);
    }

    println!("{}", table.to_text());
    println!(
        "paper anchors: 64% → 1.2 s worst case (8.8 s left); 96% → 6 s (4 s left); \
         4 GB/s infeasible on 25 Gbps"
    );

    let path = ctx.out("case_study.csv");
    csv.write_to(&path).expect("write case_study.csv");
    eprintln!("wrote {}", path.display());
}
