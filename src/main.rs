//! The `stream-score` command-line advisor and service launcher.
//!
//! ```text
//! stream-score decide --data 2GB --intensity 17TF/GB --local 10TF \
//!                     --remote 340TF --bw 25Gbps --alpha 0.8 [--theta 1.5]
//! stream-score scenarios            # evaluate every bundled facility scenario
//! stream-score simulate             # trace-driven replay vs the closed-form model
//! stream-score fleet --load 8       # multi-tenant fleet under WAN/DTN contention
//! stream-score frontier --scenario lcls2 --x wan_gbps:1:400 --y data_tb:0.1:100
//! stream-score probe [--seconds 3]  # mini congestion sweep on the testbed model
//! stream-score tiers --data 2GB --intensity 17TF/GB --local 10TF \
//!                    --remote 340TF --bw 25Gbps --alpha 0.8 --sss 7.5
//! stream-score serve --port 8080    # long-running HTTP/JSON decision service
//! stream-score loadtest --clients 8 # closed-loop load from one event loop
//! ```
//!
//! Arguments use the same notations as the paper (`2GB`, `25Gbps`,
//! `34TF`, `17TF/GB`); parsing lives in `sss-units`.

use std::collections::HashMap;
use std::process::ExitCode;

use stream_score::core::frontier::{AlphaJitter, Axis, FrontierMap, FrontierSpec};
use stream_score::core::nearest_within;
use stream_score::core::planner::plan_for_tier;
use stream_score::core::sensitivity::Sensitivity;
use stream_score::loadgen::{
    boundary_csv, fleet_csv, fleet_scenario_table, fleet_table, frontier_csv, frontier_table,
    loadtest_table, replay_csv, replay_summary_table, replay_table, run_http_load, AdmissionPolicy,
    FleetConfig, FleetSim, FrontierJob, HttpLoadSpec, ReplayConfig, SessionReplay,
    STEADY_TOLERANCE,
};
use stream_score::prelude::*;
use stream_score::report::CharGrid;
use stream_score::server::{Server, ServerConfig};
use stream_score::sim::{fluid_tolerance, Fidelity, TraceShape};

fn usage() -> &'static str {
    "stream-score — to stream or not to stream?\n\
     \n\
     USAGE:\n\
       stream-score decide    --data <SIZE> --intensity <C> --local <RATE>\n\
                              --remote <RATE> --bw <RATE> --alpha <RATIO> [--theta <RATIO>]\n\
       stream-score tiers     (same flags as decide) --sss <RATIO>\n\
       stream-score plan      (same flags as decide) --tier <1|2|3>\n\
                              [--curve results/fig2a_curve.json]\n\
       stream-score scenarios [--scenario <ID>] [--depth quick|full]\n\
                              [--mode parallel|sequential] [--workers <N>]\n\
                              [--levels 1,4,8] [--seconds <N>]\n\
                              [--seed <N>] [--format text|md]\n\
       stream-score simulate  [--scenario <ID>] [--shapes steady,diurnal,bursty,outage]\n\
                              [--frames <N>] [--files <N>] [--seed <N>]\n\
                              [--fidelity exact|fluid]\n\
                              [--mode parallel|sequential] [--workers <N>]\n\
                              [--format text|md|csv] [--check true] [--tolerance <T>]\n\
       stream-score fleet     [--scenario <ID>] [--sessions <N>] [--load <L>]\n\
                              [--policy fifo|fair-share|priority] [--slots <N>]\n\
                              [--wan <RATE>] [--shape steady|diurnal|bursty|outage]\n\
                              [--frames <N>] [--seed <N>] [--fidelity exact|fluid]\n\
                              [--mode parallel|sequential] [--workers <N>]\n\
                              [--format text|md|csv] [--check true]\n\
       stream-score frontier  --scenario <ID> | (same flags as decide)\n\
                              --x <AXIS:LO:HI[:log]> --y <AXIS:LO:HI[:log]>\n\
                              [--z <AXIS:LO:HI[:log]> --slices <N>]\n\
                              [--resolution <N>] [--tolerance <T>]\n\
                              [--mode parallel|sequential] [--workers <N>]\n\
                              [--jitter-sd <SD> --jitter-samples <N>] [--seed <N>]\n\
                              [--format text|md|csv]\n\
       stream-score probe     [--seconds <N>] [--concurrency <N>]\n\
       stream-score serve     [--port <N>] [--workers <N>]\n\
                              [--cache-capacity <N>] [--batch-max <N>] [--fleet-cap <N>]\n\
                              [--max-conns <N>] [--idle-ticks <N>] [--tick-ms <N>]\n\
                              [--read-buf <BYTES>] [--write-buf <BYTES>]\n\
       stream-score loadtest  [--addr <HOST:PORT>] [--clients <N>] [--requests <N>]\n\
                              [--distinct <N>] [--seed <N>]\n\
                              [--workers <N>] [--cache-capacity <N>] [--format text|md]\n\
       stream-score help | <COMMAND> --help\n\
     \n\
     EXAMPLES:\n\
       stream-score decide --data 2GB --intensity 17TF/GB --local 10TF \\\n\
                           --remote 340TF --bw 25Gbps --alpha 0.8\n\
       stream-score tiers  --data 2GB --intensity 17TF/GB --local 10TF \\\n\
                           --remote 340TF --bw 25Gbps --alpha 0.8 --sss 7.5\n\
       stream-score frontier --scenario lcls2 --x wan_gbps:1:400 --y data_tb:0.1:100\n\
       stream-score simulate --scenario lcls2 --shapes steady,outage\n\
       stream-score fleet    --load 8 --policy priority --wan 40Gbps\n\
       stream-score loadtest --clients 8000 --requests 2\n"
}

type Flags = HashMap<String, String>;

/// The seven model-parameter flags of `decide`, shared by every command
/// that takes an explicit workload.
const PARAM_FLAGS: &[&str] = &[
    "data",
    "intensity",
    "local",
    "remote",
    "bw",
    "alpha",
    "theta",
];

/// One subcommand: its handler and every flag it accepts.
struct Command {
    name: &'static str,
    run: fn(&Flags) -> Result<(), String>,
    /// Whether the command also takes [`PARAM_FLAGS`].
    params: bool,
    flags: &'static [&'static str],
}

impl Command {
    fn accepted(&self) -> impl Iterator<Item = &'static str> + '_ {
        let params: &'static [&'static str] = if self.params { PARAM_FLAGS } else { &[] };
        params.iter().chain(self.flags).copied()
    }
}

/// Every subcommand and the flags it accepts. Flags are checked against
/// this table before dispatch, so a misspelled or retired flag is an
/// error instead of a silently ignored default.
const COMMANDS: &[Command] = &[
    Command {
        name: "decide",
        run: cmd_decide,
        params: true,
        flags: &[],
    },
    Command {
        name: "tiers",
        run: cmd_tiers,
        params: true,
        flags: &["sss"],
    },
    Command {
        name: "plan",
        run: cmd_plan,
        params: true,
        flags: &["tier", "curve"],
    },
    Command {
        name: "scenarios",
        run: cmd_scenarios,
        params: false,
        flags: &[
            "scenario", "depth", "mode", "workers", "levels", "seconds", "seed", "format",
        ],
    },
    Command {
        name: "simulate",
        run: cmd_simulate,
        params: false,
        flags: &[
            "scenario",
            "shapes",
            "frames",
            "files",
            "seed",
            "fidelity",
            "mode",
            "workers",
            "format",
            "check",
            "tolerance",
        ],
    },
    Command {
        name: "fleet",
        run: cmd_fleet,
        params: false,
        flags: &[
            "scenario", "sessions", "load", "policy", "slots", "wan", "shape", "frames", "seed",
            "fidelity", "mode", "workers", "format", "check",
        ],
    },
    Command {
        name: "frontier",
        run: cmd_frontier,
        params: true,
        flags: &[
            "scenario",
            "x",
            "y",
            "z",
            "slices",
            "resolution",
            "tolerance",
            "mode",
            "workers",
            "jitter-sd",
            "jitter-samples",
            "seed",
            "format",
        ],
    },
    Command {
        name: "probe",
        run: cmd_probe,
        params: false,
        flags: &["seconds", "concurrency"],
    },
    Command {
        name: "serve",
        run: cmd_serve,
        params: false,
        flags: &[
            "port",
            "workers",
            "cache-capacity",
            "batch-max",
            "fleet-cap",
            "max-conns",
            "idle-ticks",
            "tick-ms",
            "read-buf",
            "write-buf",
        ],
    },
    Command {
        name: "loadtest",
        run: cmd_loadtest,
        params: false,
        flags: &[
            "addr",
            "clients",
            "requests",
            "distinct",
            "seed",
            "workers",
            "cache-capacity",
            "format",
        ],
    },
];

/// Parse `--key value` pairs for `command`, naming the offending flag on
/// malformed, duplicated or unknown input (with a did-you-mean for near
/// misses).
fn parse_flags(command: &Command, args: &[String]) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            return Err(format!("expected a flag (--key value), got {:?}", args[i]));
        };
        if key.is_empty() {
            return Err("expected a flag name after \"--\"".into());
        }
        if !command.accepted().any(|flag| flag == key) {
            let hint = nearest_within(key, command.accepted(), 2)
                .map(|near| format!(" — did you mean --{near}?"))
                .unwrap_or_default();
            return Err(format!("unknown flag --{key} for {}{hint}", command.name));
        }
        let Some(value) = args.get(i + 1) else {
            return Err(format!("flag --{key} is missing its value"));
        };
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("flag --{key} given more than once"));
        }
        i += 2;
    }
    Ok(flags)
}

fn params_from_flags(flags: &Flags) -> Result<ModelParams, String> {
    let get = |key: &str| -> Result<String, String> {
        flags
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing --{key}"))
    };

    let data: Bytes = get("data")?.parse().map_err(|e| format!("{e}"))?;
    let intensity: ComputeIntensity = get("intensity")?.parse().map_err(|e| format!("{e}"))?;
    let local: FlopRate = get("local")?.parse().map_err(|e| format!("{e}"))?;
    let remote: FlopRate = get("remote")?.parse().map_err(|e| format!("{e}"))?;
    let bw: Rate = get("bw")?.parse().map_err(|e| format!("{e}"))?;
    let alpha: Ratio = get("alpha")?.parse().map_err(|e| format!("{e}"))?;
    let theta: Ratio = match flags.get("theta") {
        Some(t) => t.parse().map_err(|e| format!("{e}"))?,
        None => Ratio::ONE,
    };
    ModelParams::builder()
        .data_unit(data)
        .intensity(intensity)
        .local_rate(local)
        .remote_rate(remote)
        .bandwidth(bw)
        .alpha(alpha)
        .theta(theta)
        .build()
        .map_err(|e| e.to_string())
}

fn cmd_decide(flags: &Flags) -> Result<(), String> {
    let params = params_from_flags(flags)?;
    let model = CompletionModel::new(params);
    let report = decide(&params);

    println!("T_local    = {}", model.t_local());
    println!(
        "T_transfer = {}  (α·Bw = {})",
        model.t_transfer(),
        params.effective_rate()
    );
    println!(
        "T_remote   = {}  (r = {:.2})",
        model.t_remote(),
        params.r().value()
    );
    println!("T_IO       = {}  (θ = {})", model.t_io(), params.theta);
    println!("T_pct      = {}", model.t_pct());
    println!("\ndecision: {:?}", report.decision);
    for r in &report.reasons {
        println!("  - {r}");
    }

    if report.decision != Decision::Infeasible {
        let be = BreakEven::of(&params);
        println!("\nbreak-even boundaries:");
        println!(
            "  r*     = {}",
            be.r_star
                .map(|r| format!("{:.3}", r.value()))
                .unwrap_or("unreachable (transfer exceeds T_local)".into())
        );
        println!(
            "  α*     = {}",
            be.alpha_star
                .map(|a| format!("{:.3}", a.value()))
                .unwrap_or("n/a".into())
        );
        println!(
            "  θ_max  = {}",
            be.theta_max
                .map(|t| format!("{:.3}", t.value()))
                .unwrap_or("n/a".into())
        );
        println!(
            "  Bw_min = {}",
            be.bw_min.map(|b| b.to_string()).unwrap_or("n/a".into())
        );
        let s = Sensitivity::of(&params);
        println!(
            "\nsensitivities (elasticity of T_pct): α {:.2}  r {:.2}  θ {:.2} → biggest lever: {}",
            s.e_alpha,
            s.e_r,
            s.e_theta,
            s.dominant()
        );
    }
    Ok(())
}

fn cmd_tiers(flags: &Flags) -> Result<(), String> {
    let params = params_from_flags(flags)?;
    let sss: Ratio = flags
        .get("sss")
        .ok_or("missing --sss (expected worst-case inflation, e.g. 7.5)")?
        .parse()
        .map_err(|e| format!("{e}"))?;
    if sss.value() < 1.0 {
        return Err(format!("--sss must be >= 1, got {}", sss.value()));
    }
    println!("worst-case tier feasibility at SSS = {}:", sss.value());
    for tier in [Tier::RealTime, Tier::NearRealTime, Tier::QuasiRealTime] {
        let t = TierReport::evaluate(&params, sss, tier).expect("budgeted tier");
        println!(
            "  {tier}: worst transfer {} → T_pct {} → {}",
            t.worst_transfer,
            t.worst_t_pct,
            if t.feasible { "OK" } else { "missed" }
        );
    }
    Ok(())
}

fn cmd_plan(flags: &Flags) -> Result<(), String> {
    let params = params_from_flags(flags)?;
    let tier = match flags.get("tier").map(String::as_str) {
        Some("1") => Tier::RealTime,
        Some("2") | None => Tier::NearRealTime,
        Some("3") => Tier::QuasiRealTime,
        Some(other) => return Err(format!("unknown tier {other:?} (use 1, 2 or 3)")),
    };
    // Congestion curve: a measured fig2a_curve.json, or the bundled
    // seed-42 measurement of the simulated 25 Gbps testbed.
    let curve = match flags.get("curve") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let points: Vec<(f64, f64)> =
                serde_json::from_str(&text).map_err(|e| format!("bad curve {path}: {e}"))?;
            CongestionCurve::from_points(points)
                .ok_or_else(|| format!("{path} is not a valid congestion curve"))?
        }
        None => CongestionCurve::from_points(vec![
            // Seed-42 measurement of the simulated testbed (fig2a),
            // monotone envelope over the P ∈ {2,4,8} series.
            (0.16, 2.4),
            (0.32, 4.3),
            (0.47, 7.0),
            (0.62, 7.6),
            (0.74, 14.9),
            (0.87, 15.0),
            (0.92, 31.8),
            (0.94, 58.6),
        ])
        .expect("bundled curve valid"),
    };

    let plan = plan_for_tier(&params, &curve, tier).expect("budgeted tier");
    println!("target: {tier}");
    println!("worst-case T_pct now: {}", plan.current_worst_t_pct);
    if plan.already_feasible {
        println!("already feasible, worst case.");
        if let Some(bw) = plan.min_bandwidth {
            println!("headroom: the tier would still hold with the link cut to {bw}");
        }
    } else {
        println!("NOT feasible at the current operating point. To fix it:");
        match plan.min_remote_rate {
            Some(r) => println!("  - grow remote compute to ≥ {r} (network unchanged), or"),
            None => {
                println!("  - no remote compute rate suffices (transfer alone blows the budget)")
            }
        }
        match plan.min_bandwidth {
            Some(bw) => println!("  - grow the link to ≥ {bw} (compute unchanged)"),
            None => println!("  - no link up to 100× the current one suffices"),
        }
    }
    Ok(())
}

fn cmd_scenarios(flags: &Flags) -> Result<(), String> {
    let mut config = match flags.get("depth").map(String::as_str) {
        Some("full") => SuiteConfig::standard(42),
        Some("quick") | None => SuiteConfig::quick(42),
        Some(other) => return Err(format!("unknown depth {other:?} (use quick or full)")),
    };
    if let Some(levels) = flags.get("levels") {
        config.congestion_levels = levels
            .split(',')
            .map(|s| s.trim().parse().map_err(|_| format!("bad level {s:?}")))
            .collect::<Result<Vec<u32>, String>>()?;
    }
    if let Some(s) = flags.get("seconds") {
        config.duration_s = s.parse().map_err(|_| format!("bad --seconds {s}"))?;
    }
    if let Some(s) = flags.get("seed") {
        config.seed = s.parse().map_err(|_| format!("bad --seed {s}"))?;
    }
    config.validate()?;

    // Reject a bad --format before spending minutes on the suite.
    let markdown = match flags.get("format").map(String::as_str) {
        Some("md") => true,
        Some("text") | None => false,
        Some(other) => return Err(format!("unknown format {other:?} (use text or md)")),
    };

    let suite = match flags.get("scenario") {
        Some(query) => {
            let scenario = Scenario::resolve(query)?;
            ScenarioSuite::new(vec![scenario], config)
        }
        None => ScenarioSuite::bundled(config),
    }?;
    let evaluations = match flags.get("mode").map(String::as_str) {
        Some("sequential") => {
            if flags.contains_key("workers") {
                return Err("--workers conflicts with --mode sequential".into());
            }
            suite.run_sequential()
        }
        Some("parallel") | None => {
            let pool = match parse_workers(flags)? {
                Some(n) => ThreadPool::new(n),
                None => ThreadPool::with_available_parallelism(),
            };
            suite.run(&pool)
        }
        Some(other) => {
            return Err(format!(
                "unknown mode {other:?} (use parallel or sequential)"
            ))
        }
    };

    for e in &evaluations {
        let s = &e.scenario;
        println!("{} [{}]", s.name, s.id);
        println!("  provenance: {}", s.provenance);
        println!("  target: {}", s.tier);
        println!(
            "  decision: {:?} (gain {:.2}×)",
            e.decision.decision,
            e.decision.gain.value()
        );
        println!();
    }

    let table = summary_table(&evaluations);
    if markdown {
        print!("{}", table.to_markdown());
    } else {
        print!("{}", table.to_text());
    }
    Ok(())
}

/// `stream-score simulate`: replay scenarios through the event-driven
/// simulator under time-varying WAN traces and report how far (and where)
/// the closed-form model drifts from the simulated ground truth.
fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let mut config = ReplayConfig::standard(42);
    if let Some(shapes) = flags.get("shapes") {
        config.shapes = shapes
            .split(',')
            .map(|s| TraceShape::parse(s.trim()))
            .collect::<Result<Vec<TraceShape>, String>>()?;
    }
    config.frames = flag_or(flags, "frames", config.frames)?;
    config.files = flag_or(flags, "files", config.files)?;
    config.seed = flag_or(flags, "seed", config.seed)?;
    if let Some(raw) = flags.get("fidelity") {
        config.fidelity = Fidelity::parse(raw)?;
    }
    config.validate()?;

    let format = flags.get("format").map(String::as_str);
    if !matches!(format, Some("md") | Some("csv") | Some("text") | None) {
        return Err(format!(
            "unknown format {:?} (use text, md or csv)",
            format.unwrap_or_default()
        ));
    }
    let check = match flags.get("check").map(String::as_str) {
        Some("true") => true,
        Some("false") | None => false,
        Some(other) => return Err(format!("bad --check {other:?} (use true or false)")),
    };
    // An explicit steady-check tolerance must be a usable number: zero,
    // negative, NaN or infinite tolerances would make the gate pass (or
    // fail) vacuously, so they are rejected up front with the offending
    // value named.
    let steady_tolerance = match flags.get("tolerance") {
        Some(raw) => {
            if !check {
                return Err("--tolerance only affects --check; pass --check true".into());
            }
            let t: f64 = raw
                .parse()
                .map_err(|_| format!("bad --tolerance {raw:?} (expected a number)"))?;
            if !(t.is_finite() && t > 0.0) {
                return Err(format!(
                    "--tolerance must be a positive finite number, got {raw:?}"
                ));
            }
            t
        }
        None => STEADY_TOLERANCE,
    };

    let replay = match flags.get("scenario") {
        Some(query) => SessionReplay::new(vec![Scenario::resolve(query)?], config),
        None => SessionReplay::bundled(config),
    }?;
    let report = match flags.get("mode").map(String::as_str) {
        Some("sequential") => {
            if flags.contains_key("workers") {
                return Err("--workers conflicts with --mode sequential".into());
            }
            replay.run_sequential()
        }
        Some("parallel") | None => {
            let pool = match parse_workers(flags)? {
                Some(n) => ThreadPool::new(n),
                None => ThreadPool::with_available_parallelism(),
            };
            replay.run(&pool)
        }
        Some(other) => {
            return Err(format!(
                "unknown mode {other:?} (use parallel or sequential)"
            ))
        }
    };

    match format {
        Some("csv") => print!("{}", replay_csv(&report).as_str()),
        _ => {
            let cells = replay_table(&report);
            let shapes = replay_summary_table(&report);
            if format == Some("md") {
                print!("{}", cells.to_markdown());
                print!("{}", shapes.to_markdown());
            } else {
                print!("{}", cells.to_text());
                print!("{}", shapes.to_text());
            }
            println!(
                "decision agreement {:.1}% over {} cells ({} scenarios x {} traces)",
                report.overall_agreement() * 100.0,
                report.records.len(),
                replay.scenarios().len(),
                replay.config().shapes.len(),
            );
        }
    }

    if check {
        let steady = report
            .shape_summary(TraceShape::Steady)
            .ok_or("--check needs the steady shape in --shapes")?;
        if steady.max_rel_err > steady_tolerance {
            return Err(format!(
                "steady-trace replay drifted {} from the closed form (tolerance {})",
                steady.max_rel_err, steady_tolerance
            ));
        }
        if steady.agreement < 1.0 {
            return Err(format!(
                "steady-trace replay disagrees with the model on {:.1}% of scenarios",
                (1.0 - steady.agreement) * 100.0
            ));
        }
        // Under the fluid fidelity the check also gates the fast path
        // itself: replay the same cells through the exact integrator and
        // hold every cell to the per-shape tolerance the library exports
        // (the same constants the test suites use).
        let mut fluid_max_rel = None;
        if replay.config().fidelity == Fidelity::Fluid {
            let exact = SessionReplay::new(
                replay.scenarios().to_vec(),
                replay.config().clone().with_fidelity(Fidelity::Exact),
            )?
            .run_sequential();
            let mut max_rel = 0.0f64;
            for (f, e) in report.records.iter().zip(&exact.records) {
                let rel = (f.sim_t_pct_s - e.sim_t_pct_s).abs() / e.sim_t_pct_s.abs().max(1e-12);
                max_rel = max_rel.max(rel);
                let tol = fluid_tolerance(e.shape);
                if rel > tol {
                    return Err(format!(
                        "{} under {}: fluid T_pct {} drifted {rel:.3e} from the exact \
                         integrator's {} (per-shape tolerance {tol:.0e})",
                        f.scenario_id, f.shape, f.sim_t_pct_s, e.sim_t_pct_s
                    ));
                }
            }
            fluid_max_rel = Some(max_rel);
        }
        // The confirmation is human-facing chatter; never append it to
        // machine-readable CSV output.
        if format != Some("csv") {
            println!(
                "check passed: steady max err {:.2e} <= {steady_tolerance:.0e}, agreement 100%",
                steady.max_rel_err
            );
            if let Some(max_rel) = fluid_max_rel {
                println!(
                    "fluid parity passed: max |fluid - exact| / exact = {max_rel:.2e} \
                     within the per-shape tolerances"
                );
            }
        }
    }
    Ok(())
}

fn cmd_fleet(flags: &Flags) -> Result<(), String> {
    let mut config = FleetConfig::standard(42);
    config.sessions = flag_or(flags, "sessions", config.sessions)?;
    config.load = flag_or(flags, "load", config.load)?;
    config.slots = flag_or(flags, "slots", config.slots)?;
    config.frames = flag_or(flags, "frames", config.frames)?;
    config.seed = flag_or(flags, "seed", config.seed)?;
    config.wan = flag_or(flags, "wan", config.wan)?;
    if let Some(raw) = flags.get("shape") {
        config.shape = TraceShape::parse(raw)?;
    }
    if let Some(raw) = flags.get("policy") {
        config.policy = AdmissionPolicy::parse(raw)?;
    }
    if let Some(raw) = flags.get("fidelity") {
        config.fidelity = Fidelity::parse(raw)?;
    }
    config.validate()?;

    let format = flags.get("format").map(String::as_str);
    if !matches!(format, Some("md") | Some("csv") | Some("text") | None) {
        return Err(format!(
            "unknown format {:?} (use text, md or csv)",
            format.unwrap_or_default()
        ));
    }
    let check = match flags.get("check").map(String::as_str) {
        Some("true") => true,
        Some("false") | None => false,
        Some(other) => return Err(format!("bad --check {other:?} (use true or false)")),
    };

    let fleet = match flags.get("scenario") {
        Some(query) => FleetSim::new(vec![Scenario::resolve(query)?], config.clone()),
        None => FleetSim::bundled(config.clone()),
    }?;
    let report = match flags.get("mode").map(String::as_str) {
        Some("sequential") => {
            if flags.contains_key("workers") {
                return Err("--workers conflicts with --mode sequential".into());
            }
            fleet.run_sequential()?
        }
        Some("parallel") | None => {
            let pool = match parse_workers(flags)? {
                Some(n) => ThreadPool::new(n),
                None => ThreadPool::with_available_parallelism(),
            };
            fleet.run(&pool)?
        }
        Some(other) => {
            return Err(format!(
                "unknown mode {other:?} (use parallel or sequential)"
            ))
        }
    };

    match format {
        Some("csv") => print!("{}", fleet_csv(std::slice::from_ref(&report)).as_str()),
        _ => {
            let sessions = fleet_table(&report);
            let scenarios = fleet_scenario_table(&report);
            if format == Some("md") {
                print!("{}", sessions.to_markdown());
                print!("{}", scenarios.to_markdown());
            } else {
                print!("{}", sessions.to_text());
                print!("{}", scenarios.to_text());
            }
            println!(
                "mispredict rate {:.1}% over {} sessions (peak {} of {} slots); \
                 slowdown P50 {:.2}x P90 {:.2}x P99 {:.2}x; makespan {:.1}s",
                report.overall.mispredict_rate * 100.0,
                report.records.len(),
                report.peak_active,
                config.slots,
                report.slowdown_p50,
                report.slowdown_p90,
                report.slowdown_p99,
                report.makespan_s,
            );
        }
    }

    if check {
        // Differential gate: replay the same fleet through the *other*
        // movement integrator and hold every session's contended movement
        // to the per-shape tolerance the library exports. The allocation
        // integrator (and hence queue waits) is shared, so movement is
        // the only number that can drift.
        let counterpart = if config.fidelity == Fidelity::Exact {
            Fidelity::Fluid
        } else {
            Fidelity::Exact
        };
        let other = match flags.get("scenario") {
            Some(query) => FleetSim::new(
                vec![Scenario::resolve(query)?],
                config.clone().with_fidelity(counterpart),
            ),
            None => FleetSim::bundled(config.clone().with_fidelity(counterpart)),
        }?
        .run_sequential()?;
        let tol = fluid_tolerance(config.shape);
        let mut max_rel = 0.0f64;
        for (a, b) in report.records.iter().zip(&other.records) {
            let rel = (a.movement_s - b.movement_s).abs() / b.movement_s.abs().max(1e-12);
            max_rel = max_rel.max(rel);
            if rel > tol {
                return Err(format!(
                    "session {} ({}): {} movement {} drifted {rel:.3e} from the {} \
                     integrator's {} (per-shape tolerance {tol:.0e})",
                    a.session,
                    a.scenario_id,
                    config.fidelity,
                    a.movement_s,
                    counterpart,
                    b.movement_s
                ));
            }
        }
        if format != Some("csv") {
            println!(
                "check passed: max |{} - {}| / {} movement = {max_rel:.2e} <= {tol:.0e}",
                config.fidelity, counterpart, counterpart
            );
        }
    }
    Ok(())
}

/// Glyph for one frontier cell.
fn decision_glyph(d: Decision) -> char {
    match d {
        Decision::RemoteStream => 'S',
        Decision::Local => 'L',
        Decision::Infeasible => '.',
    }
}

fn cmd_frontier(flags: &Flags) -> Result<(), String> {
    // Base operating point: a registered scenario, or explicit flags.
    let base = match flags.get("scenario") {
        Some(query) => {
            for conflicting in [
                "data",
                "intensity",
                "local",
                "remote",
                "bw",
                "alpha",
                "theta",
            ] {
                if flags.contains_key(conflicting) {
                    return Err(format!("--{conflicting} conflicts with --scenario"));
                }
            }
            let scenario = Scenario::resolve(query)?;
            println!("scenario: {} [{}]", scenario.name, scenario.id);
            scenario.params
        }
        None => params_from_flags(flags)?,
    };

    let x = Axis::parse(
        flags
            .get("x")
            .ok_or("missing --x (e.g. --x wan_gbps:1:400)")?,
    )?;
    let y = Axis::parse(
        flags
            .get("y")
            .ok_or("missing --y (e.g. --y data_tb:0.1:100)")?,
    )?;
    let mut spec = FrontierSpec::new(x, y);
    spec.z = flags.get("z").map(|s| Axis::parse(s)).transpose()?;
    if spec.z.is_none() && flags.contains_key("slices") {
        return Err("--slices needs --z (slices cut along the z axis)".into());
    }
    spec.resolution = flag_or(flags, "resolution", 24usize)?;
    spec.tolerance = flag_or(flags, "tolerance", 1e-3f64)?;
    spec.slices = flag_or(flags, "slices", 3usize)?;
    spec.seed = flag_or(flags, "seed", 42u64)?;
    if let Some(sd) = flags.get("jitter-sd") {
        spec.jitter = Some(AlphaJitter {
            sd: sd.parse().map_err(|_| format!("bad --jitter-sd {sd:?}"))?,
            samples: flag_or(flags, "jitter-samples", 200usize)?,
        });
    } else if flags.contains_key("jitter-samples") {
        return Err("--jitter-samples needs --jitter-sd".into());
    } else if flags.contains_key("seed") {
        return Err("--seed only affects --jitter-sd sampling; set both or neither".into());
    }

    let job = FrontierJob::new(base, spec)?;
    let map = match flags.get("mode").map(String::as_str) {
        Some("sequential") => {
            if flags.contains_key("workers") {
                return Err("--workers conflicts with --mode sequential".into());
            }
            job.run_sequential()
        }
        Some("parallel") | None => {
            let pool = match parse_workers(flags)? {
                Some(n) => ThreadPool::new(n),
                None => ThreadPool::with_available_parallelism(),
            };
            job.run(&pool)
        }
        Some(other) => {
            return Err(format!(
                "unknown mode {other:?} (use parallel or sequential)"
            ))
        }
    };

    match flags.get("format").map(String::as_str) {
        Some("csv") => {
            print!("{}", frontier_csv(&map).as_str());
            print!("{}", boundary_csv(&map).as_str());
        }
        format @ (Some("md") | Some("text") | None) => {
            print_frontier(&map);
            let table = frontier_table(&map);
            if format == Some("md") {
                print!("{}", table.to_markdown());
            } else {
                print!("{}", table.to_text());
            }
            println!(
                "{} boundary points, {} model evaluations (dense grid at this tolerance: {}, \
                 {:.0}× saved)",
                map.slices.iter().map(|s| s.boundary.len()).sum::<usize>(),
                map.evaluations,
                map.dense_grid_equivalent,
                map.savings_factor()
            );
        }
        Some(other) => return Err(format!("unknown format {other:?} (use text, md or csv)")),
    }
    Ok(())
}

/// Render each slice of the map as an ASCII decision grid.
fn print_frontier(map: &FrontierMap) {
    for slice in &map.slices {
        if let (Some(axis), Some(z)) = (&map.spec.z, slice.z) {
            println!("--- {} = {z:.4} ---", axis.name);
        }
        let mut grid = CharGrid::new(
            map.spec.x.name.clone(),
            map.spec.y.name.clone(),
            (map.spec.x.lo, map.spec.x.hi),
            (map.spec.y.lo, map.spec.y.hi),
        );
        for row in &slice.cells {
            grid.push_row(
                row.iter()
                    .map(|c| decision_glyph(c.decision))
                    .collect::<String>(),
            );
        }
        grid.with_legend("S remote-stream   L local   . infeasible");
        println!("{}", grid.to_text());
        if slice.boundary.is_empty() {
            let uniform = slice.cells[0][0].decision;
            println!(
                "note: the whole window is {uniform:?} — the break-even curve lies outside \
                 these axis ranges. Widen --x/--y (for data-volume axes the feasibility \
                 diagonal sits at Bw = 8·S_gb/α Gbps)."
            );
        }
    }
}

fn cmd_probe(flags: &Flags) -> Result<(), String> {
    let seconds: u32 = flags
        .get("seconds")
        .map(|s| s.parse().map_err(|_| format!("bad --seconds {s}")))
        .transpose()?
        .unwrap_or(3);
    let concurrency: u32 = flags
        .get("concurrency")
        .map(|s| s.parse().map_err(|_| format!("bad --concurrency {s}")))
        .transpose()?
        .unwrap_or(8);
    if seconds == 0 || concurrency == 0 {
        return Err("--seconds and --concurrency must be positive".into());
    }
    println!(
        "probing: {concurrency} clients/s × {seconds} s of 0.5 GB transfers on the \
         simulated 25 Gbps testbed..."
    );
    for c in 1..=concurrency {
        let exp = Experiment {
            config: SimConfig::paper_testbed(),
            duration_s: seconds,
            concurrency: c,
            parallel_flows: 8,
            bytes_per_client: Bytes::from_gb(0.5),
            strategy: SpawnStrategy::Simultaneous,
            start_jitter: 0.002,
            seed: 42,
        };
        let r = exp.run();
        println!(
            "  c={c}: utilization {:5.1}%  worst {:6.2} s  SSS {:5.1}",
            r.utilization().as_percent(),
            r.worst_transfer_time()
                .map(|t| t.as_secs())
                .unwrap_or(f64::NAN),
            r.streaming_speed_score()
                .map(|s| s.value())
                .unwrap_or(f64::NAN),
        );
    }
    Ok(())
}

/// Parse the optional `--workers` flag, rejecting 0 up front: a pool with
/// zero workers cannot make progress, and silently clamping would make
/// `--workers 0` lie about the parallelism used. Shared by `scenarios`,
/// `loadtest`, `serve` and `frontier`.
fn parse_workers(flags: &Flags) -> Result<Option<usize>, String> {
    match flags.get("workers") {
        Some(raw) => {
            let n: usize = raw.parse().map_err(|_| format!("bad --workers {raw:?}"))?;
            if n == 0 {
                return Err("--workers must be >= 1 (a pool with zero workers cannot run)".into());
            }
            Ok(Some(n))
        }
        None => Ok(None),
    }
}

/// Parse an optional numeric flag with a default.
fn flag_or<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        Some(raw) => raw.parse().map_err(|_| format!("bad --{key} {raw:?}")),
        None => Ok(default),
    }
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        port: flag_or(flags, "port", 8080u16)?,
        workers: parse_workers(flags)?.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }),
        cache_capacity: flag_or(flags, "cache-capacity", 4096usize)?,
        max_batch: flag_or(flags, "batch-max", 32usize)?,
        fleet_session_cap: flag_or(flags, "fleet-cap", defaults.fleet_session_cap)?,
        max_connections: flag_or(flags, "max-conns", defaults.max_connections)?,
        idle_timeout_ticks: flag_or(flags, "idle-ticks", defaults.idle_timeout_ticks)?,
        tick_ms: flag_or(flags, "tick-ms", defaults.tick_ms)?,
        read_buffer: flag_or(flags, "read-buf", defaults.read_buffer)?,
        write_buffer: flag_or(flags, "write-buf", defaults.write_buffer)?,
    };
    if config.max_batch == 0 {
        return Err("--batch-max must be positive".into());
    }
    if config.fleet_session_cap == 0 {
        return Err("--fleet-cap must be positive".into());
    }
    if config.max_connections == 0 {
        return Err("--max-conns must be positive".into());
    }
    if config.tick_ms == 0 {
        return Err("--tick-ms must be positive".into());
    }
    if config.read_buffer == 0 || config.write_buffer == 0 {
        return Err("--read-buf and --write-buf must be positive".into());
    }
    let server =
        Server::bind(config).map_err(|e| format!("cannot bind port {}: {e}", config.port))?;
    println!(
        "serving on http://{} ({} workers, cache capacity {}, batches up to {}, \
         fleet cap {} sessions, up to {} connections)",
        server.local_addr(),
        config.workers,
        config.cache_capacity,
        config.max_batch,
        config.fleet_session_cap,
        config.max_connections
    );
    println!(
        "endpoints: POST /decide, POST /tiers, POST /frontier, POST /simulate, \
         POST /fleet, GET /scenarios, GET /healthz"
    );
    server.run().map_err(|e| format!("server failed: {e}"))
}

fn cmd_loadtest(flags: &Flags) -> Result<(), String> {
    let markdown = match flags.get("format").map(String::as_str) {
        Some("md") => true,
        Some("text") | None => false,
        Some(other) => return Err(format!("unknown format {other:?} (use text or md)")),
    };
    let connections = flag_or(flags, "clients", 4usize)?;
    let requests_per_conn = flag_or(flags, "requests", 100usize)?;
    let distinct_workloads = flag_or(flags, "distinct", 8usize)?;
    let seed = flag_or(flags, "seed", 42u64)?;

    // With --addr, drive an already-running server; without, spin one up
    // in-process on an OS-assigned port for a self-contained benchmark.
    let (addr, served) = match flags.get("addr") {
        Some(addr) => {
            for local in ["workers", "cache-capacity"] {
                if flags.contains_key(local) {
                    return Err(format!(
                        "--{local} configures the in-process server and conflicts with --addr"
                    ));
                }
            }
            (addr.clone(), None)
        }
        None => {
            let config = ServerConfig {
                port: 0,
                cache_capacity: flag_or(flags, "cache-capacity", 4096usize)?,
                workers: parse_workers(flags)?.unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                }),
                ..ServerConfig::default()
            };
            let server = Server::bind(config).map_err(|e| format!("cannot bind: {e}"))?;
            let addr = server.local_addr().to_string();
            let handle = server.spawn();
            println!("no --addr given: serving in-process on {addr} for this run");
            (addr, Some(handle))
        }
    };

    let outcome = run_http_load(&HttpLoadSpec {
        addr,
        connections,
        requests_per_conn,
        distinct_workloads,
        seed,
    });
    if let Some(handle) = served {
        handle.shutdown();
    }
    let report = outcome?;

    let table = loadtest_table(&report);
    if markdown {
        print!("{}", table.to_markdown());
    } else {
        print!("{}", table.to_text());
    }
    println!(
        "held {} of {} connections open simultaneously; mean latency {:.3} ms \
         over {} requests ({} errors)",
        report.opened,
        report.spec.connections,
        report.summary.mean() * 1e3,
        report.ok + report.errors,
        report.errors
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("error: unknown command {name:?}\n");
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    if args[1..]
        .iter()
        .any(|arg| matches!(arg.as_str(), "--help" | "-h"))
    {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let flags = match parse_flags(command, &args[1..]) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("malformed flags: {e}\n");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match (command.run)(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The usage text and the flag table cannot drift apart: every
    /// accepted flag is documented, and every documented flag is
    /// accepted by some command.
    #[test]
    fn usage_documents_exactly_the_accepted_flags() {
        let text = usage();
        for command in COMMANDS {
            assert!(text.contains(&format!("stream-score {}", command.name)));
            for flag in command.accepted() {
                assert!(
                    text.contains(&format!("--{flag} ")),
                    "usage is missing --{flag} of {}",
                    command.name
                );
            }
        }
        for word in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
            if let Some(flag) = word.strip_prefix("--").filter(|f| !f.is_empty()) {
                assert!(
                    flag == "help" || COMMANDS.iter().any(|c| c.accepted().any(|f| f == flag)),
                    "usage documents --{flag}, which no command accepts"
                );
            }
        }
    }
}
