//! E-X6 — the model-error ground truth: every registered scenario
//! replayed through the per-frame simulator under all four WAN trace
//! shapes, compared against the closed-form model, and persisted as
//! `results/sim_validation.{csv,json,md}` — with a fidelity column:
//! every cell is replayed through both the exact (per-frame) and
//! the fluid (closed-form rate integration) integrators, and their parity
//! is gated on the per-shape tolerances `sss-sim` exports.
//!
//! Honors `SSS_SEED` and `SSS_QUICK` like the other regenerators.

use serde::Serialize;
use sss_loadgen::{
    replay_fidelity_csv, replay_summary_table, replay_table, ReplayConfig, ReplayReport,
    SessionReplay, STEADY_TOLERANCE,
};
use sss_report::write_json;
use sss_sim::{fluid_tolerance, Fidelity, TraceShape};

use crate::context::Context;

/// Everything the JSON artifact records: both replay matrices.
#[derive(Debug, Clone, Serialize)]
struct SimValidationArtifact {
    exact: ReplayReport,
    fluid: ReplayReport,
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
    let fluid = SessionReplay::bundled(config.with_fidelity(Fidelity::Fluid))
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

    let md = ctx.out("sim_validation.md");
    std::fs::write(
        &md,
        format!(
            "{}{}\nfluid parity max rel err: {max_parity:.2e}\n",
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
    let artifact = SimValidationArtifact { exact, fluid };
    write_json(&json, &artifact).expect("write sim_validation.json");
    eprintln!(
        "wrote {}, {} and {} (overall decision agreement {:.1}%)",
        md.display(),
        csv.display(),
        json.display(),
        artifact.exact.overall_agreement() * 100.0
    );
}
