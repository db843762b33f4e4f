//! E-X7 — decisions under contention: the full scenario catalog
//! sharing one WAN backbone and one DTN slot queue, swept over offered
//! load × trace shape × admission policy in the fluid fast path, with
//! exact-integrator spot checks riding the same differential tolerances
//! as `sim_validation`. Persists per-scenario mispredict rates and
//! slowdown tails as `results/fleet_contention.{csv,json,md}`.
//!
//! Honors `SSS_SEED` and `SSS_QUICK` like the other regenerators.

use serde::Serialize;
use sss_exec::ThreadPool;
use sss_loadgen::{
    fleet_scenario_csv, fleet_summary_table, AdmissionPolicy, FleetConfig, FleetReport, FleetSim,
};
use sss_report::write_json;
use sss_sim::{fluid_tolerance, Fidelity, TraceShape};

use crate::context::Context;

/// Offered loads (Erlangs) swept per (shape × policy) cell.
const LOADS: &[f64] = &[2.0, 4.0, 8.0];

/// Everything the JSON artifact records: one full report per cell plus
/// the spot-check drift actually measured.
#[derive(Debug, Clone, Serialize)]
struct FleetContentionArtifact {
    cells: Vec<FleetReport>,
    spot_checks: Vec<SpotCheck>,
}

/// One fluid-vs-exact differential replay of a whole fleet cell.
#[derive(Debug, Clone, Serialize)]
struct SpotCheck {
    load: f64,
    shape: TraceShape,
    policy: AdmissionPolicy,
    max_rel_err: f64,
    tolerance: f64,
}

fn run_cell(config: FleetConfig, pool: &ThreadPool) -> FleetReport {
    FleetSim::bundled(config)
        .expect("bundled FleetConfig is valid")
        .run(pool)
        .expect("fleet cell replays")
}

/// Replay one cell through the exact integrator and hold every
/// session's contended movement to the per-shape parity tolerance —
/// the fleet-level form of `sim_validation`'s differential gate.
fn spot_check(config: &FleetConfig, fluid: &FleetReport, pool: &ThreadPool) -> SpotCheck {
    let exact = run_cell(config.clone().with_fidelity(Fidelity::Exact), pool);
    let tolerance = fluid_tolerance(config.shape);
    let mut max_rel_err = 0.0f64;
    for (f, e) in fluid.records.iter().zip(&exact.records) {
        let rel = (f.movement_s - e.movement_s).abs() / e.movement_s.abs().max(1e-12);
        max_rel_err = max_rel_err.max(rel);
        assert!(
            rel <= tolerance,
            "session {} ({}) under {}: fluid movement drifted {rel:.3e} from exact \
             (tolerance {tolerance:.0e})",
            f.session,
            f.scenario_id,
            config.shape
        );
    }
    SpotCheck {
        load: config.load,
        shape: config.shape,
        policy: config.policy,
        max_rel_err,
        tolerance,
    }
}

pub(crate) fn run(ctx: &Context) {
    let base = if ctx.quick {
        FleetConfig::quick(ctx.seed)
    } else {
        FleetConfig::standard(ctx.seed)
    };
    let pool = &ctx.pool;
    eprintln!(
        "sweeping {} sessions x {} loads x {} shapes x {} policies on {} workers (fluid)...",
        base.sessions,
        LOADS.len(),
        TraceShape::ALL.len(),
        AdmissionPolicy::ALL.len(),
        pool.workers()
    );

    let mut cells = Vec::new();
    let mut spot_checks = Vec::new();
    for (li, &load) in LOADS.iter().enumerate() {
        for &shape in &TraceShape::ALL {
            for &policy in &AdmissionPolicy::ALL {
                let config = base
                    .clone()
                    .with_load(load)
                    .with_shape(shape)
                    .with_policy(policy);
                let report = run_cell(config.clone(), pool);
                // One differential spot check per (shape × policy) at
                // the middle load: every shape's tolerance gets
                // exercised without doubling the whole sweep.
                if li == LOADS.len() / 2 {
                    spot_checks.push(spot_check(&config, &report, pool));
                }
                cells.push(report);
            }
        }
    }

    println!("{}", fleet_summary_table(&cells).to_text());
    let max_drift = spot_checks.iter().fold(0.0f64, |m, s| m.max(s.max_rel_err));
    println!(
        "differential spot checks: {} cells fluid-vs-exact, max movement rel err {max_drift:.2e} \
         (per-shape gates held)",
        spot_checks.len()
    );

    let md = ctx.out("fleet_contention.md");
    std::fs::write(
        &md,
        format!(
            "{}\nfluid-vs-exact spot checks: {} cells, max movement rel err {max_drift:.2e}\n",
            fleet_summary_table(&cells).to_markdown(),
            spot_checks.len(),
        ),
    )
    .expect("write fleet_contention.md");
    let csv = ctx.out("fleet_contention.csv");
    fleet_scenario_csv(&cells)
        .write_to(&csv)
        .expect("write fleet_contention.csv");
    let json = ctx.out("fleet_contention.json");
    let artifact = FleetContentionArtifact { cells, spot_checks };
    write_json(&json, &artifact).expect("write fleet_contention.json");
    eprintln!(
        "wrote {}, {} and {} ({} cells)",
        md.display(),
        csv.display(),
        json.display(),
        artifact.cells.len()
    );
}
