//! E-X6 — break-even frontier maps for every registered facility:
//! WAN bandwidth × data volume, resolved by coarse grid plus adaptive
//! bisection, persisted per facility as `results/frontier_<id>.{csv,json}`
//! plus a cross-facility summary.
//!
//! Honors `SSS_SEED` and `SSS_QUICK` like the other regenerators.

use sss_core::Scenario;
use sss_loadgen::{frontier_csv, Axis, FrontierJob, FrontierSpec};
use sss_report::{write_json, CsvWriter, Table};

use crate::context::Context;

pub(crate) fn run(ctx: &Context) {
    let resolution = if ctx.quick { 12 } else { 24 };
    let scenarios = Scenario::all();
    eprintln!(
        "mapping {} facility frontiers at resolution {resolution} on {} workers...",
        scenarios.len(),
        ctx.pool.workers()
    );

    let mut table = Table::new([
        "scenario", "stream%", "local%", "infeas%", "boundary", "evals", "dense", "saved",
    ])
    .with_title("Break-even frontiers: WAN bandwidth × data volume, per facility");
    let mut summary = CsvWriter::new([
        "scenario",
        "stream_fraction",
        "boundary_points",
        "evaluations",
        "dense_grid_equivalent",
        "savings_factor",
    ]);

    for scenario in &scenarios {
        // Bandwidth from 1 Gbps to 1 Tbps; data volume spanning 0.05× to
        // 20× the facility's own unit — every map crosses its feasibility
        // diagonal and, where one exists, the local/remote boundary.
        let unit_gb = scenario.params.data_unit.as_gb();
        let x = Axis::parse("wan_gbps:1:1000:log").expect("bandwidth axis");
        let y = Axis::parse(&format!(
            "data_gb:{}:{}:log",
            unit_gb * 0.05,
            unit_gb * 20.0
        ))
        .expect("data axis");
        let mut spec = FrontierSpec::new(x, y);
        spec.resolution = resolution;
        spec.seed = ctx.seed;
        let job = FrontierJob::new(scenario.params, spec).expect("valid frontier job");
        let map = job.run(&ctx.pool);

        let csv_path = ctx.out(&format!("frontier_{}.csv", scenario.id));
        frontier_csv(&map)
            .write_to(&csv_path)
            .unwrap_or_else(|e| panic!("write {}: {e}", csv_path.display()));
        let json_path = ctx.out(&format!("frontier_{}.json", scenario.id));
        write_json(&json_path, &map)
            .unwrap_or_else(|e| panic!("write {}: {e}", json_path.display()));

        let slice = &map.slices[0];
        let total = (resolution * resolution) as f64;
        let frac = |d: sss_core::Decision| {
            slice
                .cells
                .iter()
                .flatten()
                .filter(|c| c.decision == d)
                .count() as f64
                / total
        };
        table.row([
            scenario.id.clone(),
            format!("{:.1}", slice.stream_fraction * 100.0),
            format!("{:.1}", frac(sss_core::Decision::Local) * 100.0),
            format!("{:.1}", frac(sss_core::Decision::Infeasible) * 100.0),
            slice.boundary.len().to_string(),
            map.evaluations.to_string(),
            map.dense_grid_equivalent.to_string(),
            format!("{:.0}×", map.savings_factor()),
        ]);
        summary.row([
            scenario.id.clone(),
            format!("{}", slice.stream_fraction),
            slice.boundary.len().to_string(),
            map.evaluations.to_string(),
            map.dense_grid_equivalent.to_string(),
            format!("{}", map.savings_factor()),
        ]);
    }

    println!("{}", table.to_text());
    let summary_path = ctx.out("frontier_summary.csv");
    summary
        .write_to(&summary_path)
        .expect("write frontier_summary.csv");
    eprintln!(
        "wrote frontier_<id>.csv/.json for {} facilities and {}",
        scenarios.len(),
        summary_path.display()
    );
}
