//! Run every regenerator in sequence, leaving all artifacts in
//! `results/`: tables, fig2a, fig2b, fig3, fig4, case_study, regimes,
//! ablation_continuum, ablation_tcp, headline, scenario_suite,
//! frontier_map, sim_validation, fleet_contention and fleet_scaling,
//! each launched as its own process from this binary's directory. No
//! sweep is shared between them: every binary that needs the Figure 2
//! grid runs it again.

use std::process::Command;

fn main() {
    let bins = [
        "tables",
        "fig2a",
        "fig2b",
        "fig3",
        "fig4",
        "case_study",
        "regimes",
        "ablation_continuum",
        "ablation_tcp",
        "headline",
        "scenario_suite",
        "frontier_map",
        "sim_validation",
        "fleet_contention",
        "fleet_scaling",
    ];
    let exe = std::env::current_exe().expect("own path");
    let bin_dir = exe.parent().expect("bin dir");
    for bin in bins {
        println!("\n=== {bin} ===");
        let path = bin_dir.join(bin);
        let status = Command::new(&path)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()));
        assert!(status.success(), "{bin} failed with {status}");
    }
    println!("\nall artifacts regenerated under results/");
}
