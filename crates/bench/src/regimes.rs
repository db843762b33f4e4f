//! E-X2 — operational regime maps: where does streaming win?
//!
//! Contribution (1) promises to "identify operational regimes where
//! streaming is beneficial"; this renders the (α, r) decision plane for
//! each bundled scenario, plus the analytic break-even boundaries.

use sss_core::{BreakEven, Decision, RegimeMap, Scenario};
use sss_report::{CsvWriter, Table};

use crate::context::Context;

fn cell_char(d: Decision) -> char {
    match d {
        Decision::RemoteStream => 'S',
        Decision::Local => 'L',
        Decision::Infeasible => '!',
    }
}

pub(crate) fn run(ctx: &Context) {
    let mut be_table = Table::new(["scenario", "r*", "α*", "θ_max", "Bw_min"])
        .with_title("Analytic break-even boundaries per scenario");
    let mut csv = CsvWriter::new(["scenario", "alpha", "r", "decision"]);

    for scenario in Scenario::all() {
        let be = BreakEven::of(&scenario.params);
        be_table.row([
            scenario.id.to_string(),
            be.r_star
                .map(|r| format!("{:.2}", r.value()))
                .unwrap_or_else(|| "unreachable".into()),
            be.alpha_star
                .map(|a| format!("{:.3}", a.value()))
                .unwrap_or_else(|| "-".into()),
            be.theta_max
                .map(|t| format!("{:.2}", t.value()))
                .unwrap_or_else(|| "-".into()),
            be.bw_min
                .map(|b| format!("{b}"))
                .unwrap_or_else(|| "-".into()),
        ]);

        let map = RegimeMap::compute(&scenario.params, (0.05, 1.0), (0.2, 50.0), 24, 12);
        println!(
            "regime map for {} (rows: r {:.1}..{:.1} log, cols: α 0.05..1.0); \
             S=stream, L=local, !=infeasible",
            scenario.id, 0.2, 50.0
        );
        // Print with r descending so "more remote compute" is up.
        for (ri, row) in map.cells.iter().enumerate().rev() {
            let line: String = row.iter().map(|d| cell_char(*d)).collect();
            println!("  r={:>6.2} |{line}|", map.rs[ri]);
            for (ai, d) in row.iter().enumerate() {
                csv.row([
                    scenario.id.to_string(),
                    map.alphas[ai].to_string(),
                    map.rs[ri].to_string(),
                    format!("{d:?}"),
                ]);
            }
        }
        println!(
            "  streaming wins in {:.0}% of the sampled plane\n",
            map.stream_fraction() * 100.0
        );
    }

    println!("{}", be_table.to_text());
    let path = ctx.out("regimes.csv");
    csv.write_to(&path).expect("write regimes.csv");
    eprintln!("wrote {}", path.display());
}
