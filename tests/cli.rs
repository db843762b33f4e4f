//! Integration tests for the `stream-score` CLI binary.

use std::process::Command;

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

const DECIDE_ARGS: &[&str] = &[
    "decide",
    "--data",
    "2GB",
    "--intensity",
    "17TF/GB",
    "--local",
    "10TF",
    "--remote",
    "340TF",
    "--bw",
    "25Gbps",
    "--alpha",
    "0.8",
];

#[test]
fn decide_streams_the_table3_workload() {
    let (ok, stdout, _) = run(DECIDE_ARGS);
    assert!(ok);
    assert!(stdout.contains("RemoteStream"), "{stdout}");
    assert!(stdout.contains("T_pct"), "{stdout}");
    assert!(stdout.contains("break-even"), "{stdout}");
    assert!(stdout.contains("biggest lever"), "{stdout}");
}

#[test]
fn decide_flags_infeasible_liquid_scattering() {
    let (ok, stdout, _) = run(&[
        "decide",
        "--data",
        "4GB",
        "--intensity",
        "5TF/GB",
        "--local",
        "10TF",
        "--remote",
        "200TF",
        "--bw",
        "25Gbps",
        "--alpha",
        "1.0",
    ]);
    assert!(ok);
    assert!(stdout.contains("Infeasible"), "{stdout}");
}

#[test]
fn decide_honors_theta() {
    // θ = 6 pushes the remote path past T_local = 3.4 s.
    let mut args: Vec<&str> = DECIDE_ARGS.to_vec();
    args.extend_from_slice(&["--theta", "6.0"]);
    let (ok, stdout, _) = run(&args);
    assert!(ok);
    assert!(stdout.contains("decision: Local"), "{stdout}");
}

#[test]
fn tiers_reports_all_three() {
    let mut args: Vec<&str> = DECIDE_ARGS.to_vec();
    args[0] = "tiers";
    args.extend_from_slice(&["--sss", "7.5"]);
    let (ok, stdout, _) = run(&args);
    assert!(ok);
    assert!(stdout.contains("Tier 1"));
    assert!(stdout.contains("Tier 2"));
    assert!(stdout.contains("Tier 3"));
    assert!(stdout.contains("missed"));
    assert!(stdout.contains("OK"));
}

// Keep the CLI suite fast: one congestion level, one-second probes.
const SCENARIOS_QUICK: &[&str] = &["scenarios", "--levels", "1", "--seconds", "1"];

#[test]
fn scenarios_lists_the_bundled_facilities() {
    let (ok, stdout, _) = run(SCENARIOS_QUICK);
    assert!(ok);
    for id in [
        "lcls-coherent-scattering",
        "lcls-liquid-scattering",
        "aps-tomography",
        "deleria-frib",
        "lhc-raw-trigger",
        "aps-u-ptychography",
        "diii-d-between-shot",
        "cryoem-s3df",
        "ska-low-pathfinder",
        "climate-checkpoint-stream",
        "lhc-hlt-stream",
        "dune-protodune-stream",
    ] {
        assert!(stdout.contains(id), "missing {id} in:\n{stdout}");
    }
    // The suite renders the measured summary table after the catalog.
    assert!(stdout.contains("SSS"), "{stdout}");
    assert!(stdout.contains("util%"), "{stdout}");
}

#[test]
fn scenarios_parallel_and_sequential_agree() {
    let mut seq: Vec<&str> = SCENARIOS_QUICK.to_vec();
    seq.extend_from_slice(&["--workers", "1"]);
    let (ok_a, stdout_a, _) = run(SCENARIOS_QUICK);
    let (ok_b, stdout_b, _) = run(&seq);
    assert!(ok_a && ok_b);
    assert_eq!(stdout_a, stdout_b, "parallel output must be bit-identical");
}

#[test]
fn scenarios_markdown_format() {
    let mut args: Vec<&str> = SCENARIOS_QUICK.to_vec();
    args.extend_from_slice(&["--format", "md"]);
    let (ok, stdout, _) = run(&args);
    assert!(ok);
    assert!(stdout.contains("| scenario |"), "{stdout}");
}

#[test]
fn scenarios_rejects_bad_depth() {
    let (ok, _, stderr) = run(&["scenarios", "--depth", "bottomless"]);
    assert!(!ok);
    assert!(stderr.contains("unknown depth"), "{stderr}");
}

/// Retired selectors and typos are rejected by name instead of silently
/// running the default path.
#[test]
fn unknown_flags_are_rejected() {
    for (args, flag) in [
        (
            &["serve", "--frontend", "threaded"] as &[&str],
            "--frontend",
        ),
        (&["scenarios", "--engine", "scalar"], "--engine"),
        (&["fleet", "--engine", "reference"], "--engine"),
        (&["loadtest", "--frontend", "reactor"], "--frontend"),
        (&["loadtest", "--concurrency", "8"], "--concurrency"),
        (&["scenarios", "--chunk", "1"], "--chunk"),
        (&["scenarios", "--mode", "sequential"], "--mode"),
        (&["serve", "--read-buf", "1"], "--read-buf"),
        (&["serve", "--write-buf", "1"], "--write-buf"),
        (&["simulate", "--check", "true"], "--check"),
        (&["simulate", "--tolerance", "1e-6"], "--tolerance"),
        (&["fleet", "--check", "true"], "--check"),
        (
            &[
                "frontier",
                "--scenario",
                "lcls2",
                "--x",
                "wan_gbps:1:400",
                "--y",
                "data_gb:1:10",
                "--chunk",
                "1",
            ],
            "--chunk",
        ),
        (
            &[
                "frontier",
                "--scenario",
                "lcls2",
                "--x",
                "wan_gbps:1:400",
                "--y",
                "data_gb:1:10",
                "--mode",
                "sequential",
            ],
            "--mode",
        ),
    ] {
        let (ok, _, stderr) = run(args);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains(&format!("unknown flag {flag} for {}", args[0])),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn misspelled_flag_gets_a_suggestion() {
    let (ok, _, stderr) = run(&["fleet", "--sesions", "5"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown flag --sesions for fleet — did you mean --sessions?"),
        "{stderr}"
    );
    let mut args: Vec<&str> = DECIDE_ARGS.to_vec();
    args.extend_from_slice(&["--bogus-flag", "1"]);
    let (ok, _, stderr) = run(&args);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --bogus-flag"), "{stderr}");
}

#[test]
fn command_help_prints_usage_and_succeeds() {
    for args in [
        &["decide", "--help"] as &[&str],
        &["fleet", "-h"],
        &["serve", "--port", "0", "--help"],
    ] {
        let (ok, stdout, stderr) = run(args);
        assert!(ok, "{args:?}: {stderr}");
        assert!(stdout.contains("USAGE"), "{args:?}: {stdout}");
    }
}

#[test]
fn scenarios_filters_to_one_facility() {
    let mut args: Vec<&str> = SCENARIOS_QUICK.to_vec();
    args.extend_from_slice(&["--scenario", "frib"]);
    let (ok, stdout, stderr) = run(&args);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("deleria-frib"), "{stdout}");
    assert!(!stdout.contains("lcls-coherent-scattering"), "{stdout}");
}

#[test]
fn scenario_typos_get_a_suggestion() {
    let mut args: Vec<&str> = SCENARIOS_QUICK.to_vec();
    args.extend_from_slice(&["--scenario", "deleria-frab"]);
    let (ok, _, stderr) = run(&args);
    assert!(!ok);
    assert!(
        stderr.contains("did you mean \"deleria-frib\"?"),
        "{stderr}"
    );

    let (ok, _, stderr) = run(&[
        "frontier",
        "--scenario",
        "lcls3",
        "--x",
        "wan_gbps:1:400",
        "--y",
        "data_gb:1:10",
    ]);
    assert!(!ok);
    assert!(stderr.contains("did you mean \"lcls\"?"), "{stderr}");
}

const FRONTIER_QUICK: &[&str] = &[
    "frontier",
    "--scenario",
    "lcls2",
    "--x",
    "wan_gbps:1:400",
    "--y",
    "data_gb:0.5:50",
    "--resolution",
    "10",
];

#[test]
fn frontier_maps_a_scenario_with_aliases() {
    let (ok, stdout, stderr) = run(FRONTIER_QUICK);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("lcls-coherent-scattering"), "{stdout}");
    assert!(stdout.contains("wan_gbps"), "{stdout}");
    assert!(stdout.contains("boundary points"), "{stdout}");
    assert!(stdout.contains("remote-stream"), "{stdout}");
}

#[test]
fn frontier_parallel_and_sequential_agree() {
    let mut seq: Vec<&str> = FRONTIER_QUICK.to_vec();
    seq.extend_from_slice(&["--workers", "1"]);
    let mut par: Vec<&str> = FRONTIER_QUICK.to_vec();
    par.extend_from_slice(&["--workers", "8"]);
    let (ok_a, stdout_a, _) = run(&seq);
    let (ok_b, stdout_b, _) = run(&par);
    assert!(ok_a && ok_b);
    assert_eq!(stdout_a, stdout_b, "frontier output must be bit-identical");
}

#[test]
fn frontier_csv_format_lists_cells_and_boundary() {
    let mut args: Vec<&str> = FRONTIER_QUICK.to_vec();
    args.extend_from_slice(&["--format", "csv"]);
    let (ok, stdout, _) = run(&args);
    assert!(ok);
    assert!(stdout.contains("z,x,y,decision,gain,p_remote"), "{stdout}");
    assert!(
        stdout.contains("z,x,y,axis,lower,upper,width,evals"),
        "{stdout}"
    );
}

#[test]
fn frontier_rejects_bad_axes_and_scenarios() {
    let (ok, _, stderr) = run(&[
        "frontier",
        "--scenario",
        "lcls2",
        "--x",
        "parsecs:1:2",
        "--y",
        "data_gb:1:10",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown axis"), "{stderr}");

    let (ok, _, stderr) = run(&[
        "frontier",
        "--scenario",
        "atlantis",
        "--x",
        "wan_gbps:1:400",
        "--y",
        "data_gb:1:10",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown scenario"), "{stderr}");

    let (ok, _, stderr) = run(&["frontier", "--scenario", "lcls2", "--y", "data_gb:1:10"]);
    assert!(!ok);
    assert!(stderr.contains("missing --x"), "{stderr}");
}

#[test]
fn workers_zero_rejected_everywhere() {
    for args in [
        &[
            "scenarios",
            "--levels",
            "1",
            "--seconds",
            "1",
            "--workers",
            "0",
        ] as &[&str],
        &[
            "loadtest",
            "--clients",
            "1",
            "--requests",
            "1",
            "--workers",
            "0",
        ],
        &["serve", "--port", "0", "--workers", "0"],
        &[
            "frontier",
            "--scenario",
            "lcls2",
            "--x",
            "wan_gbps:1:400",
            "--y",
            "data_gb:1:10",
            "--workers",
            "0",
        ],
    ] {
        let (ok, _, stderr) = run(args);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains("--workers must be >= 1"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn missing_flags_fail_with_usage() {
    let (ok, _, stderr) = run(&["decide", "--data", "2GB"]);
    assert!(!ok);
    assert!(stderr.contains("missing --intensity"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn bad_units_fail_gracefully() {
    let mut args: Vec<&str> = DECIDE_ARGS.to_vec();
    args[2] = "2 parsecs";
    let (ok, _, stderr) = run(&args);
    assert!(!ok);
    assert!(stderr.contains("cannot parse"), "{stderr}");
}

#[test]
fn positional_junk_names_the_offender() {
    let (ok, _, stderr) = run(&["decide", "oops", "--data", "2GB"]);
    assert!(!ok);
    assert!(stderr.contains("expected a flag"), "{stderr}");
    assert!(stderr.contains("\"oops\""), "{stderr}");
}

#[test]
fn flag_missing_value_names_the_flag() {
    let (ok, _, stderr) = run(&["decide", "--data"]);
    assert!(!ok);
    assert!(stderr.contains("--data is missing its value"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn duplicate_flag_names_the_flag() {
    let mut args: Vec<&str> = DECIDE_ARGS.to_vec();
    args.extend_from_slice(&["--data", "3GB"]);
    let (ok, _, stderr) = run(&args);
    assert!(!ok);
    assert!(stderr.contains("--data given more than once"), "{stderr}");
}

#[test]
fn loadtest_self_serves_when_no_addr_given() {
    let (ok, stdout, stderr) = run(&[
        "loadtest",
        "--clients",
        "2",
        "--requests",
        "10",
        "--distinct",
        "4",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("serving in-process"), "{stdout}");
    assert!(stdout.contains("req/s"), "{stdout}");
    assert!(stdout.contains("mean latency"), "{stdout}");
    assert!(
        stdout.contains("held 2 of 2 connections open simultaneously"),
        "{stdout}"
    );
}

#[test]
fn loadtest_rejects_server_flags_with_addr() {
    let (ok, _, stderr) = run(&["loadtest", "--addr", "127.0.0.1:1", "--workers", "4"]);
    assert!(!ok);
    assert!(stderr.contains("conflicts with --addr"), "{stderr}");
}

#[test]
fn unknown_command_fails() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn help_succeeds() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn plan_reports_headroom_when_feasible() {
    let mut args: Vec<&str> = DECIDE_ARGS.to_vec();
    args[0] = "plan";
    args.extend_from_slice(&["--tier", "2"]);
    let (ok, stdout, _) = run(&args);
    assert!(ok);
    assert!(stdout.contains("already feasible"), "{stdout}");
    assert!(stdout.contains("headroom"), "{stdout}");
}

#[test]
fn plan_prescribes_compute_for_starved_workload() {
    let (ok, stdout, _) = run(&[
        "plan",
        "--data",
        "2GB",
        "--intensity",
        "17TF/GB",
        "--local",
        "10TF",
        "--remote",
        "1TF",
        "--bw",
        "25Gbps",
        "--alpha",
        "0.8",
        "--tier",
        "2",
    ]);
    assert!(ok);
    assert!(stdout.contains("NOT feasible"), "{stdout}");
    assert!(stdout.contains("grow remote compute"), "{stdout}");
}

/// `plan`'s default curve is the committed `results/fig2a_curve.json`,
/// compiled in: its output equals, byte for byte, a run that reads that
/// file through `--curve`, at every tier.
#[test]
fn plan_defaults_to_the_committed_curve() {
    let curve = concat!(env!("CARGO_MANIFEST_DIR"), "/results/fig2a_curve.json");
    for tier in ["1", "2", "3"] {
        let mut args: Vec<&str> = DECIDE_ARGS.to_vec();
        args[0] = "plan";
        args.extend_from_slice(&["--tier", tier]);
        let (ok, default, stderr) = run(&args);
        assert!(ok, "tier {tier}: {stderr}");
        args.extend_from_slice(&["--curve", curve]);
        let (ok, read, stderr) = run(&args);
        assert!(ok, "tier {tier}: {stderr}");
        assert_eq!(default, read, "tier {tier}");
    }
}

#[test]
fn plan_rejects_bad_tier() {
    let mut args: Vec<&str> = DECIDE_ARGS.to_vec();
    args[0] = "plan";
    args.extend_from_slice(&["--tier", "9"]);
    let (ok, _, stderr) = run(&args);
    assert!(!ok);
    assert!(stderr.contains("unknown tier"), "{stderr}");
}

#[test]
fn sss_below_one_rejected() {
    let mut args: Vec<&str> = DECIDE_ARGS.to_vec();
    args[0] = "tiers";
    args.extend_from_slice(&["--sss", "0.5"]);
    let (ok, _, stderr) = run(&args);
    assert!(!ok);
    assert!(stderr.contains("must be >= 1"), "{stderr}");
}
