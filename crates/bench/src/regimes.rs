//! E-X2 — operational regime maps: where does streaming win?
//!
//! Contribution (1) promises to "identify operational regimes where
//! streaming is beneficial"; this renders the (α, r) decision plane for
//! each bundled scenario, plus the analytic break-even boundaries. Each
//! plane is a 24 × 24 frontier map over `alpha × remote_tflops`, the
//! remote rate spanning 0.2× to 50× the scenario's local rate, so r =
//! remote / local labels its rows.

use sss_core::{BreakEven, Decision, Scenario};
use sss_loadgen::{Axis, FrontierJob, FrontierSpec};
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

        let local = scenario.params.local_rate.as_tflops();
        let x = Axis::parse("alpha:0.05:1").expect("alpha axis");
        let y = Axis::parse(&format!(
            "remote_tflops:{}:{}:log",
            0.2 * local,
            50.0 * local
        ))
        .expect("remote rate axis");
        let job =
            FrontierJob::new(scenario.params, FrontierSpec::new(x, y)).expect("valid regime map");
        let map = job.run(&ctx.pool);
        let slice = &map.slices[0];
        println!(
            "regime map for {} (rows: r {:.1}..{:.1} log, cols: α 0.05..1.0); \
             S=stream, L=local, !=infeasible",
            scenario.id, 0.2, 50.0
        );
        // Print with r descending so "more remote compute" is up.
        for (row, y) in slice.cells.iter().zip(&slice.ys).rev() {
            let r = y / local;
            let line: String = row.iter().map(|c| cell_char(c.decision)).collect();
            println!("  r={r:>6.2} |{line}|");
            for cell in row {
                csv.row([
                    scenario.id.to_string(),
                    cell.x.to_string(),
                    r.to_string(),
                    format!("{:?}", cell.decision),
                ]);
            }
        }
        println!(
            "  streaming wins in {:.0}% of the sampled plane\n",
            slice.stream_fraction * 100.0
        );
    }

    println!("{}", be_table.to_text());
    let path = ctx.out("regimes.csv");
    csv.write_to(&path).expect("write regimes.csv");
    eprintln!("wrote {}", path.display());
}
