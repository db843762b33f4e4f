//! Integration tests for the trace-driven session-replay validator: the
//! `stream-score simulate` CLI, determinism across worker counts, and
//! the acceptance contract (all catalog scenarios × ≥3 trace shapes,
//! steady agreement within the documented tolerance).

use std::process::Command;

use stream_score::loadgen::{ReplayConfig, SessionReplay, STEADY_TOLERANCE};
use stream_score::prelude::*;
use stream_score::sim::TraceShape;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stream-score"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

// Keep the CLI suite fast: small frame splits.
const SIMULATE_QUICK: &[&str] = &["simulate", "--frames", "16", "--files", "4"];

#[test]
fn simulate_covers_the_catalog_under_four_traces() {
    let (ok, stdout, stderr) = run(SIMULATE_QUICK);
    assert!(ok, "{stderr}");
    for scenario in Scenario::all() {
        assert!(stdout.contains(&scenario.id), "missing {}", scenario.id);
    }
    for shape in ["steady", "diurnal", "bursty", "outage"] {
        assert!(stdout.contains(shape), "missing trace {shape}");
    }
    assert!(stdout.contains("decision agreement"), "{stdout}");
    assert!(stdout.contains("13 scenarios x 4 traces"), "{stdout}");
}

#[test]
fn simulate_parallel_and_sequential_agree() {
    let mut seq: Vec<&str> = SIMULATE_QUICK.to_vec();
    seq.extend_from_slice(&["--workers", "1"]);
    let mut par: Vec<&str> = SIMULATE_QUICK.to_vec();
    par.extend_from_slice(&["--workers", "8"]);
    let (ok_a, stdout_a, _) = run(&seq);
    let (ok_b, stdout_b, _) = run(&par);
    assert!(ok_a && ok_b);
    assert_eq!(stdout_a, stdout_b, "replay output must be bit-identical");
}

#[test]
fn simulate_csv_and_md_formats() {
    let mut csv: Vec<&str> = SIMULATE_QUICK.to_vec();
    csv.extend_from_slice(&["--scenario", "lcls2", "--format", "csv"]);
    let (ok, stdout, _) = run(&csv);
    assert!(ok);
    assert!(stdout.starts_with("scenario,trace,"), "{stdout}");
    assert_eq!(stdout.lines().count(), 1 + 4, "header + one row per shape");

    let mut md: Vec<&str> = SIMULATE_QUICK.to_vec();
    md.extend_from_slice(&["--scenario", "lcls2", "--format", "md"]);
    let (ok, stdout, _) = run(&md);
    assert!(ok);
    assert!(stdout.contains("| scenario |"), "{stdout}");
}

/// The exact replay at the benchmark's 65,536 frames a cell, where most
/// frames fit in one trace segment, byte for byte against committed
/// output. The quick 16-frame replay in `results/sim_validation.csv`
/// crosses a breakpoint on nearly every send, so it cannot pin the
/// in-segment path of the send chain.
#[test]
fn exact_replay_at_65536_frames_matches_the_golden_csv() {
    for (seed, golden) in [
        ("1", include_str!("golden/simulate_65536_seed1.csv")),
        ("42", include_str!("golden/simulate_65536_seed42.csv")),
    ] {
        let (ok, stdout, stderr) = run(&[
            "simulate", "--frames", "65536", "--files", "16", "--format", "csv", "--seed", seed,
        ]);
        assert!(ok, "{stderr}");
        assert_eq!(stdout, golden, "seed {seed}");
    }
}

#[test]
fn simulate_rejects_bad_inputs() {
    let (ok, _, stderr) = run(&["simulate", "--shapes", "tsunami"]);
    assert!(!ok);
    assert!(stderr.contains("unknown trace shape"), "{stderr}");

    let (ok, _, stderr) = run(&["simulate", "--frames", "0"]);
    assert!(!ok);
    assert!(stderr.contains("files <= frames"), "{stderr}");

    let (ok, _, stderr) = run(&["simulate", "--mode", "sequential", "--workers", "2"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown flag --mode for simulate"),
        "{stderr}"
    );

    let (ok, _, stderr) = run(&["simulate", "--scenario", "atlantis"]);
    assert!(!ok);
    assert!(stderr.contains("unknown scenario"), "{stderr}");

    let (ok, _, stderr) = run(&["simulate", "--workers", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--workers must be >= 1"), "{stderr}");
}

#[test]
fn library_replay_meets_the_acceptance_contract() {
    // The acceptance criteria in one place: every catalog scenario under
    // >= 3 trace shapes, steady within the documented tolerance, and
    // byte-identical parallel replay.
    let replay = SessionReplay::bundled(ReplayConfig::quick(42)).unwrap();
    let report = replay.run(&ThreadPool::new(8));
    assert_eq!(report, replay.run(&ThreadPool::new(1)));

    let scenarios = Scenario::all().len();
    let shapes = replay.config().shapes.len();
    assert!(scenarios >= 13, "catalog shrank to {scenarios}");
    assert!(shapes >= 3, "need >= 3 trace shapes, got {shapes}");
    assert_eq!(report.records.len(), scenarios * shapes);

    let steady = report.shape_summary(TraceShape::Steady).unwrap();
    assert!(steady.max_rel_err <= STEADY_TOLERANCE);
    assert_eq!(steady.agreement, 1.0);

    // The degraded shapes must expose real model error somewhere — the
    // whole point of the ground truth.
    let worst = report
        .shapes
        .iter()
        .map(|s| s.max_rel_err)
        .fold(0.0, f64::max);
    assert!(worst > 0.05, "no shape stressed the model (worst {worst})");
}
