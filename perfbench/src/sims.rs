//! The timed workloads, `fleet_bursty` and `simulate_exact`: repeated
//! whole runs of the fleet simulator and the exact session replay on a
//! pool of `nproc` workers.

use std::time::Instant;

use sss_exec::ThreadPool;
use sss_loadgen::{
    AdmissionPolicy, FleetConfig, FleetReport, FleetSim, ReplayConfig, ReplayReport, SessionReplay,
    STEADY_TOLERANCE,
};
use sss_sim::{fluid_tolerance, Fidelity, TraceShape};
use sss_units::Rate;

use crate::stats::{median, peak_rss_mb, time_s};
use crate::{nproc, Metric, Outcome};

/// Constructions (sim + pool) per set-up round; `setup_s` is the median
/// round's seconds per construction.
const SETUPS_PER_ROUND: usize = 50;
/// Timed repetitions per run, at the least.
const MIN_REPS: usize = 3;

pub const FLEET_SESSIONS: u32 = 5000;
pub const FLEET_SLOTS: u32 = 128;

/// `fleet_scaling`'s 5000-session bursty FIFO cell.
pub fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        sessions: FLEET_SESSIONS,
        load: 512.0,
        shape: TraceShape::Bursty,
        policy: AdmissionPolicy::Fifo,
        slots: FLEET_SLOTS,
        wan: Rate::from_gbps(40.0),
        frames: 16,
        fidelity: Fidelity::Fluid,
        ..FleetConfig::standard(seed)
    }
}

pub const REPLAY_FRAMES: u32 = 65_536;

/// Every catalog scenario under all four shapes, per-frame exact.
pub fn replay_config(seed: u64) -> ReplayConfig {
    ReplayConfig {
        frames: REPLAY_FRAMES,
        files: 16,
        shapes: TraceShape::ALL.to_vec(),
        fidelity: Fidelity::Exact,
        ..ReplayConfig::standard(seed)
    }
}

/// Output checks of one fleet report; the list of what failed.
pub fn fleet_faults(report: &FleetReport) -> Vec<String> {
    let mut faults = Vec::new();
    if report.records.len() != FLEET_SESSIONS as usize {
        faults.push(format!("{} records", report.records.len()));
    }
    if report.peak_active > FLEET_SLOTS {
        faults.push(format!("peak_active {}", report.peak_active));
    }
    let floor = 1.0 - fluid_tolerance(TraceShape::Bursty);
    if let Some(r) = report.records.iter().find(|r| r.slowdown < floor) {
        faults.push(format!("session {} slowdown {}", r.session, r.slowdown));
    }
    faults
}

/// Output checks of one replay report: steady cells match the closed form.
pub fn replay_faults(report: &ReplayReport) -> Vec<String> {
    report
        .records
        .iter()
        .filter(|r| r.shape == TraceShape::Steady && r.t_pct_rel_err > STEADY_TOLERANCE)
        .map(|r| format!("{} steady rel err {}", r.scenario_id, r.t_pct_rel_err))
        .collect()
}

/// Alternate a set-up round (`build` called [`SETUPS_PER_ROUND`] times)
/// with one timed `run` of the last thing built, for at least `seconds`
/// and [`MIN_REPS`] repetitions. Spreading the set-ups across the run
/// samples the same host conditions the repetitions see. Each report is
/// checked, and every repetition must serialize to the first one's bytes.
fn measure<S, R: serde::Serialize>(
    seconds: f64,
    mut build: impl FnMut() -> S,
    run: impl Fn(&S) -> R,
    faults: impl Fn(&R) -> Vec<String>,
) -> Outcome {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut failed = 0;
    let mut notes = Vec::new();
    let mut first: Option<String> = None;
    let mut rss = f64::NAN;
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let mut built = None;
        let ((), secs) = time_s(|| {
            for _ in 0..SETUPS_PER_ROUND {
                built = Some(build());
            }
        });
        setups.push(secs / SETUPS_PER_ROUND as f64);
        let built = built.expect("SETUPS_PER_ROUND > 0");
        let (report, wall) = time_s(|| run(&built));
        walls.push(wall);
        let mut found = faults(&report);
        let bytes = serde_json::to_string(&report).expect("reports serialize");
        match &first {
            None => first = Some(bytes),
            Some(f) if *f != bytes => {
                found.push("report bytes differ from the first repetition".into())
            }
            Some(_) => {}
        }
        if !found.is_empty() {
            failed += 1;
            notes.push(format!("repetition {}: {}", walls.len(), found.join("; ")));
        }
        // Read after the first repetition: later ones only add allocator
        // churn that differs from run to run, and how many there are
        // depends on the host's speed.
        if walls.len() == 1 {
            rss = peak_rss_mb();
        }
    }
    let attempted = walls.len() as u64;
    notes.push(format!(
        "{attempted} repetitions, wall_s min {:.4} max {:.4}; error_frac {}",
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        failed as f64 / attempted as f64
    ));
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric::new("wall_s", "s", median(&walls)),
            Metric::new("setup_s", "s", median(&setups)),
            Metric::new("peak_rss_mb", "MiB", rss),
        ],
        notes,
    }
}

pub fn fleet(seed: u64, seconds: f64) -> Outcome {
    measure(
        seconds,
        || {
            let sim = FleetSim::bundled(fleet_config(seed)).expect("the fleet cell is valid");
            (sim, ThreadPool::new(nproc()))
        },
        |(sim, pool)| sim.run(pool).expect("the fleet cell replays"),
        fleet_faults,
    )
}

pub fn simulate(seed: u64, seconds: f64) -> Outcome {
    measure(
        seconds,
        || {
            let replay = SessionReplay::bundled(replay_config(seed)).expect("the replay is valid");
            (replay, ThreadPool::new(nproc()))
        },
        |(replay, pool)| replay.run(pool),
        replay_faults,
    )
}
