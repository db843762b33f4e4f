//! E-X6 — the model-error ground truth: every registered scenario
//! replayed through the per-frame simulator under all four WAN trace
//! shapes, compared against the closed-form model, and persisted as
//! `results/sim_validation.{csv,json,md}` — now with a fidelity column:
//! every cell is replayed through both the exact (per-frame) and
//! the fluid (closed-form rate integration) integrators, their parity is
//! gated on the per-shape tolerances `sss-sim` exports, and the bench
//! reports each fidelity's median cells/sec over repeated timed runs
//! (with the min–max) plus the fluid-over-exact speedup of the medians.
//!
//! Honors `SSS_SEED` and `SSS_QUICK` like the other regenerators.

use std::time::Instant;

use serde::Serialize;
use sss_exec::ThreadPool;
use sss_loadgen::{
    replay_fidelity_csv, replay_summary_table, replay_table, ReplayConfig, ReplayReport,
    SessionReplay, STEADY_TOLERANCE,
};
use sss_report::write_json;
use sss_sim::{fluid_tolerance, Fidelity, TraceShape};
use sss_stats::Ecdf;

use crate::context::Context;

/// Timed one-worker replays per fidelity; the throughput figures are
/// their median and range.
const TIMED_RUNS: usize = 5;

/// Everything the JSON artifact records: both replay matrices plus the
/// measured throughput of each integrator.
#[derive(Debug, Clone, Serialize)]
struct SimValidationArtifact {
    exact: ReplayReport,
    fluid: ReplayReport,
    throughput: Vec<FidelityThroughput>,
    fluid_speedup: f64,
}

/// One fidelity's measured replay throughput over [`TIMED_RUNS`] runs.
#[derive(Debug, Clone, Serialize)]
struct FidelityThroughput {
    fidelity: Fidelity,
    frames: u32,
    cells: usize,
    runs: usize,
    /// Median over the runs; the speedup is the ratio of two medians.
    cells_per_sec: f64,
    cells_per_sec_min: f64,
    cells_per_sec_max: f64,
}

/// Time [`TIMED_RUNS`] one-worker replays of `config`. One worker on
/// purpose: a wider pool would blur the per-integrator cost the speedup
/// figure is about.
fn timed_replays(config: ReplayConfig) -> FidelityThroughput {
    let replay = SessionReplay::bundled(config.clone()).expect("bundled ReplayConfig is valid");
    let mut cells = 0;
    let rates: Vec<f64> = (0..TIMED_RUNS)
        .map(|_| {
            #[expect(
                clippy::disallowed_methods,
                reason = "bench measures real elapsed time by design"
            )]
            let start = Instant::now();
            let report = replay.run(&ThreadPool::new(1));
            let elapsed_s = start.elapsed().as_secs_f64().max(1e-9);
            cells = report.records.len();
            cells as f64 / elapsed_s
        })
        .collect();
    let rates = Ecdf::from_samples(&rates).expect("timed runs yield finite rates");
    FidelityThroughput {
        fidelity: config.fidelity,
        frames: config.frames,
        cells,
        runs: TIMED_RUNS,
        cells_per_sec: rates.median(),
        cells_per_sec_min: rates.min(),
        cells_per_sec_max: rates.max(),
    }
}

/// `median (min-max)` cells/sec, rounded to whole cells.
fn rate_range(tp: &FidelityThroughput) -> String {
    format!(
        "{:.0} ({:.0}-{:.0})",
        tp.cells_per_sec, tp.cells_per_sec_min, tp.cells_per_sec_max
    )
}

pub(crate) fn run(ctx: &Context) {
    let config = if ctx.quick {
        ReplayConfig::quick(ctx.seed)
    } else {
        ReplayConfig::standard(ctx.seed)
    };
    let replay = SessionReplay::bundled(config.clone()).expect("bundled ReplayConfig is valid");
    eprintln!(
        "replaying {} scenarios x {} trace shapes on {} workers (exact + fluid)...",
        replay.scenarios().len(),
        replay.config().shapes.len(),
        ctx.pool.workers()
    );
    let exact = replay.run(&ctx.pool);
    let fluid = SessionReplay::bundled(config.clone().with_fidelity(Fidelity::Fluid))
        .expect("bundled ReplayConfig is valid")
        .run(&ctx.pool);

    println!("{}", replay_table(&exact).to_text());
    println!("{}", replay_summary_table(&exact).to_text());

    let steady = exact
        .shape_summary(TraceShape::Steady)
        .expect("steady shape replayed");
    assert!(
        steady.max_rel_err <= STEADY_TOLERANCE,
        "steady-trace replay drifted {} from the closed form (tolerance {STEADY_TOLERANCE})",
        steady.max_rel_err
    );

    // Fluid parity gate: every cell within the per-shape tolerance the
    // library exports — the same constants the test suites assert.
    let mut max_parity = 0.0f64;
    for (e, f) in exact.records.iter().zip(&fluid.records) {
        let rel = (f.sim_t_pct_s - e.sim_t_pct_s).abs() / e.sim_t_pct_s.abs().max(1e-12);
        max_parity = max_parity.max(rel);
        assert!(
            rel <= fluid_tolerance(e.shape),
            "{} under {}: fluid drifted {rel:.3e} from exact (tolerance {:.0e})",
            e.scenario_id,
            e.shape,
            fluid_tolerance(e.shape)
        );
    }
    println!("fluid parity: max |fluid - exact| / exact = {max_parity:.2e} (per-shape gates held)");

    // Throughput: the same matrix at a deliberately high frame count,
    // where the fluid integrator pays O(trace segments) per cell and the
    // exact one a few steps per segment and binade its backlogged chains
    // cross. Quick mode halves the frame count. Both
    // fidelities get the same statistic, so the speedup compares like
    // with like.
    let bench_frames = if ctx.quick { 2048 } else { 4096 };
    let mut bench_config = config.clone();
    bench_config.frames = bench_frames;
    bench_config.files = 16.min(bench_frames);
    let exact_tp = timed_replays(bench_config.clone());
    let fluid_tp = timed_replays(bench_config.with_fidelity(Fidelity::Fluid));
    let speedup = fluid_tp.cells_per_sec / exact_tp.cells_per_sec;
    let throughput_line = format!(
        "throughput at {bench_frames} frames/cell, median (min-max) of {TIMED_RUNS} runs: \
         exact {} cells/s, fluid {} cells/s",
        rate_range(&exact_tp),
        rate_range(&fluid_tp)
    );
    println!("{throughput_line}");
    println!("fluid fast path speedup: {speedup:.1}x median cells/sec over the exact integrator");

    let md = ctx.out("sim_validation.md");
    std::fs::write(
        &md,
        format!(
            "{}{}\nfluid parity max rel err: {max_parity:.2e}\n\n{throughput_line} \
             ({speedup:.1}x)\n",
            replay_table(&exact).to_markdown(),
            replay_summary_table(&exact).to_markdown(),
        ),
    )
    .expect("write sim_validation.md");
    let csv = ctx.out("sim_validation.csv");
    replay_fidelity_csv(&[(Fidelity::Exact, &exact), (Fidelity::Fluid, &fluid)])
        .write_to(&csv)
        .expect("write sim_validation.csv");
    let json = ctx.out("sim_validation.json");
    let artifact = SimValidationArtifact {
        exact,
        fluid,
        throughput: vec![exact_tp, fluid_tp],
        fluid_speedup: speedup,
    };
    write_json(&json, &artifact).expect("write sim_validation.json");
    eprintln!(
        "wrote {}, {} and {} (overall decision agreement {:.1}%)",
        md.display(),
        csv.display(),
        json.display(),
        artifact.exact.overall_agreement() * 100.0
    );
}
