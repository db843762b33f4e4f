//! Regenerate the paper's tables and figures in one process.
//!
//! `cargo run --release -p sss-bench -- [artifact …]` runs the named
//! regenerators in the order given; with no names it runs every one.
//! Each module regenerates one artifact of the paper's evaluation (its
//! doc says which) by running the simulators at the published parameters
//! and rendering the series the paper reports, as terminal tables and
//! plots plus CSV/JSON under `results/`. No regenerator reads a clock:
//! every file a run writes is simulation output, and the same knobs
//! write the same bytes. Timing lives in `perfbench/`. The regenerators
//! share one [`Context`]: Figure 2(a), Figure 3, the headline, the case
//! study and the continuum ablation read one simultaneous-batch sweep,
//! run once.
//!
//! Environment knobs, each optional and read once:
//! * `SSS_SEED` — master seed (default 42).
//! * `SSS_REPEATS` — repeats per sweep cell (default 1, at least 1).
//! * `SSS_QUICK=1` — shrink grids about tenfold for a fast smoke pass.
//! * `SSS_RESULTS_DIR` — output directory (default `results/`).
//!
//! A knob set to an invalid value panics, naming the variable and its
//! value. The simulations run on a pool sized to the machine's available
//! parallelism; their output does not depend on it.

mod context;

mod ablation_continuum;
mod ablation_tcp;
mod case_study;
mod fig2a;
mod fig2b;
mod fig3;
mod fig4;
mod fleet_contention;
mod frontier_map;
mod headline;
mod regimes;
mod scenario_suite;
mod sim_validation;
mod tables;

use context::Context;

/// A regenerator by name.
type Artifact = (&'static str, fn(&Context));

/// Every regenerator, in the order a run with no names takes them.
const ARTIFACTS: [Artifact; 14] = [
    ("tables", tables::run),
    ("fig2a", fig2a::run),
    ("fig2b", fig2b::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("case_study", case_study::run),
    ("regimes", regimes::run),
    ("ablation_continuum", ablation_continuum::run),
    ("ablation_tcp", ablation_tcp::run),
    ("headline", headline::run),
    ("scenario_suite", scenario_suite::run),
    ("frontier_map", frontier_map::run),
    ("sim_validation", sim_validation::run),
    ("fleet_contention", fleet_contention::run),
];

/// The regenerators `names` asks for, in that order, or every one when
/// `names` is empty. An unknown name is an error naming it and the known
/// ones, so nothing runs.
fn select(names: &[String]) -> Result<Vec<Artifact>, String> {
    if names.is_empty() {
        return Ok(ARTIFACTS.to_vec());
    }
    names
        .iter()
        .map(|wanted| {
            ARTIFACTS
                .into_iter()
                .find(|(name, _)| name == wanted)
                .ok_or_else(|| {
                    let known: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
                    format!("unknown artifact {wanted:?}; known: {}", known.join(", "))
                })
        })
        .collect()
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let artifacts = select(&names).unwrap_or_else(|e| {
        eprintln!("sss-bench: {e}");
        std::process::exit(2);
    });
    let ctx = Context::from_env();
    for (name, run) in artifacts {
        println!("\n=== {name} ===");
        run(&ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(artifacts: &[Artifact]) -> Vec<&'static str> {
        artifacts.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn no_names_run_every_artifact_in_table_order() {
        let all = select(&[]).expect("no names select the default run");
        assert_eq!(names(&all), names(&ARTIFACTS));
    }

    #[test]
    fn named_artifacts_run_in_the_order_given() {
        let wanted = ["fleet_contention", "fig3", "fig2a"].map(String::from);
        let chosen = select(&wanted).expect("known names");
        assert_eq!(names(&chosen), wanted);
    }

    #[test]
    fn an_unknown_name_selects_nothing_and_lists_the_known_ones() {
        let err = select(&["fig2a".into(), "fig9".into()]).expect_err("fig9 is unknown");
        assert!(
            err.starts_with("unknown artifact \"fig9\"; known: "),
            "{err}"
        );
        for (name, _) in ARTIFACTS {
            assert!(err.contains(name), "{err} misses {name}");
        }
    }
}
