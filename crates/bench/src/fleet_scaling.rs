//! E-X8 — fleet advancement at scale: wall-clock throughput of a whole
//! fleet run (the plan's dip draws, the allocation integrator's
//! water-filling level tracker and event calendar over one clear trace
//! layout per scenario, and the per-session movement replays), swept
//! over fleet size × trace shape × admission policy. Clipped sessions
//! sit at floor caps, so a bursty cell schedules few breakpoint events
//! beyond one arrival, admission and drain per session, and its time is
//! mostly per-session work.
//! Persists `results/fleet_scaling.{csv,json,md}`.
//!
//! Honors `SSS_SEED` and `SSS_QUICK` like the other regenerators; quick
//! mode drops the largest fleet.

use std::time::Instant;

use serde::Serialize;
use sss_exec::ThreadPool;
use sss_loadgen::{AdmissionPolicy, FleetConfig, FleetSim};
use sss_report::{write_json, CsvWriter, Table};
use sss_sim::TraceShape;
use sss_units::Rate;

use crate::context::Context;

/// Fleet sizes swept (sessions). Quick mode keeps the 1000-session cell
/// so CI still exercises a deep admission queue.
fn fleet_sizes(quick: bool) -> &'static [u32] {
    if quick {
        &[50, 200, 1000]
    } else {
        &[50, 200, 1000, 5000]
    }
}

/// Shapes exercised: the constant backbone and the bursty one with the
/// most trace breakpoints.
const SHAPES: [TraceShape; 2] = [TraceShape::Steady, TraceShape::Bursty];

/// One timed (sessions × shape × policy) cell.
#[derive(Debug, Clone, Serialize)]
struct Cell {
    sessions: u32,
    shape: TraceShape,
    policy: AdmissionPolicy,
    slots: u32,
    elapsed_s: f64,
    sessions_per_s: f64,
    events: u64,
    events_per_s: f64,
    makespan_s: f64,
}

/// Size the DTN slot pool with the fleet so large fleets keep both a
/// contended backbone and a deep admission queue.
fn slots_for(sessions: u32) -> u32 {
    (sessions / 8).clamp(4, 128)
}

fn cell_config(
    sessions: u32,
    shape: TraceShape,
    policy: AdmissionPolicy,
    seed: u64,
) -> FleetConfig {
    let slots = slots_for(sessions);
    FleetConfig {
        sessions,
        // Heavily oversubscribed: arrivals outpace the slot pool, so the
        // admission queue stays deep.
        load: slots as f64 * 4.0,
        slots,
        wan: Rate::from_gbps(40.0),
        ..FleetConfig::standard(seed)
    }
    .with_shape(shape)
    .with_policy(policy)
}

/// Replay one cell, timed end to end (planning, the allocation
/// integrator, the movement replays and the aggregation — everything
/// `POST /fleet` would pay).
fn run_cell(config: &FleetConfig, pool: &ThreadPool) -> Cell {
    let sim = FleetSim::bundled(config.clone()).expect("bundled FleetConfig is valid");
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock measurement of the integrator itself; never feeds simulation state"
    )]
    let started = Instant::now();
    let report = sim.run(pool).expect("fleet cell replays");
    let elapsed_s = started.elapsed().as_secs_f64().max(1e-9);
    Cell {
        sessions: config.sessions,
        shape: config.shape,
        policy: config.policy,
        slots: config.slots,
        elapsed_s,
        sessions_per_s: f64::from(config.sessions) / elapsed_s,
        events: report.events,
        events_per_s: report.events as f64 / elapsed_s,
        makespan_s: report.makespan_s,
    }
}

pub(crate) fn run(ctx: &Context) {
    let sizes = fleet_sizes(ctx.quick);
    eprintln!(
        "sweeping {} fleet sizes x {} shapes x {} policies on {} workers...",
        sizes.len(),
        SHAPES.len(),
        AdmissionPolicy::ALL.len(),
        ctx.pool.workers()
    );

    let mut cells = Vec::new();
    for &sessions in sizes {
        for &shape in &SHAPES {
            for &policy in &AdmissionPolicy::ALL {
                let config = cell_config(sessions, shape, policy, ctx.seed);
                cells.push(run_cell(&config, &ctx.pool));
            }
        }
    }

    let mut table = Table::new([
        "sessions", "shape", "policy", "slots", "wall s", "sess/s", "events", "events/s",
    ])
    .with_title("Fleet advancement: incremental allocation integrator throughput");
    for c in &cells {
        table.row([
            c.sessions.to_string(),
            c.shape.to_string(),
            c.policy.to_string(),
            c.slots.to_string(),
            format!("{:.4}", c.elapsed_s),
            format!("{:.0}", c.sessions_per_s),
            c.events.to_string(),
            format!("{:.0}", c.events_per_s),
        ]);
    }
    println!("{}", table.to_text());

    let mut csv = CsvWriter::new([
        "sessions",
        "shape",
        "policy",
        "slots",
        "elapsed_s",
        "sessions_per_s",
        "events",
        "events_per_s",
        "makespan_s",
    ]);
    for c in &cells {
        csv.row([
            c.sessions.to_string(),
            c.shape.to_string(),
            c.policy.to_string(),
            c.slots.to_string(),
            format!("{}", c.elapsed_s),
            format!("{}", c.sessions_per_s),
            c.events.to_string(),
            format!("{}", c.events_per_s),
            format!("{}", c.makespan_s),
        ]);
    }
    let csv_path = ctx.out("fleet_scaling.csv");
    csv.write_to(&csv_path).expect("write fleet_scaling.csv");
    let json_path = ctx.out("fleet_scaling.json");
    write_json(&json_path, &cells).expect("write fleet_scaling.json");
    let md_path = ctx.out("fleet_scaling.md");
    std::fs::write(&md_path, table.to_markdown()).expect("write fleet_scaling.md");
    eprintln!(
        "wrote {}, {} and {} ({} cells)",
        csv_path.display(),
        json_path.display(),
        md_path.display(),
        cells.len()
    );
}
