//! The fluid fast path's differential acceptance harness.
//!
//! Replays **all** catalog scenarios under **all four** bundled trace
//! shapes through both movement integrators — the exact per-frame event
//! pipelines and the closed-form fluid fast path — and holds every cell
//! to the per-shape parity tolerances `sss-sim` exports
//! ([`fluid_tolerance`]): ≤ 1e-9 relative on steady traces, the
//! documented bounds on diurnal/bursty/outage. The same constants gate
//! the CLI's `--check` and the `sim_validation` bench, so this suite,
//! the command line, and CI all fail on the same numbers.
//!
//! Also the negative-path CLI contract for the new flags: unknown
//! `--fidelity` values and degenerate `--check` tolerances (0, NaN,
//! negative, infinite) must fail with a clear message, not a panic.

use std::process::Command;

use stream_score::loadgen::{ReplayConfig, SessionReplay};
use stream_score::prelude::*;
use stream_score::sim::{fluid_tolerance, Fidelity, TraceShape};

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

/// Quick replay config: full catalog x all four shapes, small frames.
fn harness_config(fidelity: Fidelity) -> ReplayConfig {
    ReplayConfig::quick(42).with_fidelity(fidelity)
}

#[test]
fn every_catalog_cell_holds_fluid_parity_within_the_exported_tolerances() {
    let exact = SessionReplay::bundled(harness_config(Fidelity::Exact))
        .unwrap()
        .run_sequential();
    let fluid = SessionReplay::bundled(harness_config(Fidelity::Fluid))
        .unwrap()
        .run_sequential();

    let scenarios = Scenario::all().len();
    assert!(scenarios >= 13, "catalog shrank to {scenarios}");
    assert_eq!(exact.records.len(), scenarios * TraceShape::ALL.len());
    assert_eq!(exact.records.len(), fluid.records.len());

    for (e, f) in exact.records.iter().zip(&fluid.records) {
        assert_eq!((&e.scenario_id, e.shape), (&f.scenario_id, f.shape));
        let tol = fluid_tolerance(e.shape);
        // Streaming column: simulated T_pct (movement + remote compute).
        let rel = (f.sim_t_pct_s - e.sim_t_pct_s).abs() / e.sim_t_pct_s.abs().max(1e-12);
        assert!(
            rel <= tol,
            "{} under {}: fluid T_pct {} vs exact {} — rel err {rel:.3e} above {tol:.0e}",
            e.scenario_id,
            e.shape,
            f.sim_t_pct_s,
            e.sim_t_pct_s
        );
        // Staged (file-based) column: the fluid DTN arithmetic is exact
        // in every regime, so it gets the steady tolerance everywhere.
        let file_rel = (f.sim_file_completion_s - e.sim_file_completion_s).abs()
            / e.sim_file_completion_s.abs().max(1e-12);
        assert!(
            file_rel <= 1e-9,
            "{} under {}: staged fluid {} vs exact {} — rel err {file_rel:.3e}",
            e.scenario_id,
            e.shape,
            f.sim_file_completion_s,
            e.sim_file_completion_s
        );
    }
}

#[test]
fn parity_holds_at_standard_frame_counts_on_the_steady_shape() {
    // A denser frame split exercises the integrators where they differ
    // most (the exact pipeline's cost and float error both grow with
    // frames); steady keeps it fast.
    let mut config = ReplayConfig::standard(42);
    config.shapes = vec![TraceShape::Steady];
    let exact = SessionReplay::bundled(config.clone())
        .unwrap()
        .run_sequential();
    let fluid = SessionReplay::bundled(config.with_fidelity(Fidelity::Fluid))
        .unwrap()
        .run_sequential();
    for (e, f) in exact.records.iter().zip(&fluid.records) {
        let rel = (f.sim_t_pct_s - e.sim_t_pct_s).abs() / e.sim_t_pct_s.abs().max(1e-12);
        assert!(
            rel <= fluid_tolerance(TraceShape::Steady),
            "{}: rel err {rel:.3e} at 64 frames",
            e.scenario_id
        );
    }
}

#[test]
fn decisions_agree_between_fidelities_across_the_catalog() {
    // The catalog sits well off the stream/local frontier, so a
    // sub-tolerance completion nudge must never flip a verdict.
    let exact = SessionReplay::bundled(harness_config(Fidelity::Exact))
        .unwrap()
        .run_sequential();
    let fluid = SessionReplay::bundled(harness_config(Fidelity::Fluid))
        .unwrap()
        .run_sequential();
    for (e, f) in exact.records.iter().zip(&fluid.records) {
        assert_eq!(
            e.sim_decision, f.sim_decision,
            "{} under {}: decision flipped between fidelities",
            e.scenario_id, e.shape
        );
        assert_eq!(e.agree, f.agree);
    }
}

// ---- CLI surface -----------------------------------------------------

const QUICK: &[&str] = &["simulate", "--frames", "16", "--files", "4"];

#[test]
fn cli_accepts_every_fidelity_and_fluid_output_matches_exact_tables() {
    for fidelity in ["exact", "fluid"] {
        let mut args = QUICK.to_vec();
        args.extend_from_slice(&["--scenario", "lcls2", "--fidelity", fidelity]);
        let (ok, stdout, stderr) = run(&args);
        assert!(ok, "--fidelity {fidelity}: {stderr}");
        assert!(stdout.contains("decision agreement"), "{stdout}");
    }
}

#[test]
fn cli_check_gates_fluid_parity_on_the_library_tolerances() {
    let mut args = QUICK.to_vec();
    args.extend_from_slice(&["--fidelity", "fluid", "--check", "true"]);
    let (ok, stdout, stderr) = run(&args);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("check passed"), "{stdout}");
    assert!(stdout.contains("fluid parity passed"), "{stdout}");
}

#[test]
fn cli_rejects_unknown_fidelity_with_the_known_values_named() {
    for bad in ["telepathy", "hybrid"] {
        let (ok, _, stderr) = run(&["simulate", "--fidelity", bad]);
        assert!(!ok, "--fidelity {bad} was accepted");
        assert!(stderr.contains("unknown fidelity"), "{stderr}");
        assert!(
            stderr.contains("known fidelities: exact, fluid"),
            "the error must name the valid values: {stderr}"
        );
    }
}

#[test]
fn cli_rejects_degenerate_check_tolerances_with_a_clear_message() {
    for bad in ["0", "0.0", "NaN", "-1e-6", "inf"] {
        let (ok, _, stderr) = run(&[
            "simulate",
            "--check",
            "true",
            "--tolerance",
            bad,
            "--shapes",
            "steady",
        ]);
        assert!(!ok, "--tolerance {bad} must be rejected");
        assert!(
            stderr.contains("--tolerance must be a positive finite number"),
            "--tolerance {bad}: {stderr}"
        );
    }

    let (ok, _, stderr) = run(&["simulate", "--check", "true", "--tolerance", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("expected a number"), "{stderr}");

    // --tolerance without --check is an error, not silently ignored.
    let (ok, _, stderr) = run(&["simulate", "--tolerance", "1e-6"]);
    assert!(!ok);
    assert!(
        stderr.contains("--tolerance only affects --check"),
        "{stderr}"
    );
}

#[test]
fn cli_fluid_replay_is_bit_identical_across_worker_counts() {
    let mut one = QUICK.to_vec();
    one.extend_from_slice(&["--fidelity", "fluid", "--workers", "1"]);
    let mut eight = QUICK.to_vec();
    eight.extend_from_slice(&["--fidelity", "fluid", "--workers", "8"]);
    let (ok_a, stdout_a, _) = run(&one);
    let (ok_b, stdout_b, _) = run(&eight);
    assert!(ok_a && ok_b);
    assert_eq!(stdout_a, stdout_b, "fluid replay must be deterministic");
}
