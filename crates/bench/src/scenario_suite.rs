//! E-X4 — the full facility-scenario matrix: every registered scenario
//! through model + netsim + iosim in parallel, rendered as a summary
//! table and persisted as CSV + JSON under `results/`.
//!
//! Honors `SSS_SEED` and `SSS_QUICK` like the other regenerators.

use sss_loadgen::{suite_csv, summary_table, ScenarioSuite, SuiteConfig};
use sss_report::write_json;

use crate::context::Context;

pub(crate) fn run(ctx: &Context) {
    let config = if ctx.quick {
        SuiteConfig::quick(ctx.seed)
    } else {
        SuiteConfig::standard(ctx.seed)
    };
    let suite = ScenarioSuite::bundled(config).expect("bundled SuiteConfig is valid");
    eprintln!(
        "evaluating {} scenarios × {} congestion levels on {} workers...",
        suite.scenarios().len(),
        suite.config().congestion_levels.len(),
        ctx.pool.workers()
    );
    let evaluations = suite.run(&ctx.pool);

    let table = summary_table(&evaluations);
    println!("{}", table.to_text());

    let md = ctx.out("scenario_suite.md");
    std::fs::write(&md, table.to_markdown()).expect("write scenario_suite.md");
    let csv = ctx.out("scenario_suite.csv");
    suite_csv(&evaluations)
        .write_to(&csv)
        .expect("write scenario_suite.csv");
    let json = ctx.out("scenario_suite.json");
    write_json(&json, &evaluations).expect("write scenario_suite.json");
    eprintln!(
        "wrote {}, {} and {}",
        md.display(),
        csv.display(),
        json.display()
    );
}
