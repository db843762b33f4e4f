//! iperf3-style congestion workload orchestration over [`sss_netsim`].
//!
//! Reproduces the paper's measurement methodology (§4): an orchestrator
//! spawns `concurrency` clients per second for `duration` seconds, each
//! transferring a fixed volume over `P` parallel TCP flows into one
//! server, under two spawning strategies:
//!
//! * [`SpawnStrategy::Simultaneous`] — all of a second's clients start at
//!   the top of the second, creating the instantaneous congestion spikes
//!   of Figure 2(a);
//! * [`SpawnStrategy::Scheduled`] — clients are spaced evenly within the
//!   second, modeling reserved/scheduled transfers as in Figure 2(b).
//!
//! Each client's transfer time spans from its spawn instant to the
//! completion of its **last** parallel flow (iperf3 reports the session,
//! not per-flow, time). The maximum across clients is the worst-case
//! `T_worst` the Streaming Speed Score needs.
//!
//! The same closed-loop discipline also drives the real `sss-server`
//! decision service over HTTP: [`HttpLoadSpec`]/[`run_http_load`] hold a
//! set of keep-alive connections open from one nonblocking event loop and
//! measure request throughput, per-request latency tails and the
//! connection ceiling actually reached — from a handful of sockets up to
//! thousands.
//!
//! # Example
//!
//! One congested second on the simulated testbed:
//!
//! ```
//! use sss_loadgen::{Experiment, SpawnStrategy};
//! use sss_netsim::SimConfig;
//! use sss_units::Bytes;
//!
//! let result = Experiment {
//!     config: SimConfig::small_test(),
//!     duration_s: 1,
//!     concurrency: 2,
//!     parallel_flows: 2,
//!     bytes_per_client: Bytes::from_mb(1.0),
//!     strategy: SpawnStrategy::Simultaneous,
//!     start_jitter: 0.002,
//!     seed: 42,
//! }
//! .run();
//! assert!(result.utilization().value() > 0.0);
//! assert!(result.worst_transfer_time().is_some());
//! ```

mod experiment;
mod fleet;
mod frontier;
mod httpload;
mod replay;
mod suite;
mod sweep;

pub use experiment::{ClientRecord, Experiment, ExperimentResult, SpawnStrategy};
pub use fleet::{
    fleet_csv, fleet_scenario_csv, fleet_scenario_table, fleet_summary_table, fleet_table,
    AdmissionPolicy, FleetConfig, FleetRecord, FleetReport, FleetSim, ScenarioContention,
};
pub use frontier::{boundary_csv, frontier_csv, frontier_table, FrontierJob};
pub use httpload::{loadtest_table, run_http_load, HttpLoadReport, HttpLoadSpec};
pub use replay::{
    replay_csv, replay_fidelity_csv, replay_summary_table, replay_table, ReplayConfig,
    ReplayRecord, ReplayReport, SessionReplay, ShapeSummary, STEADY_TOLERANCE,
};
pub use suite::{
    suite_csv, summary_table, CongestionPoint, IoSummary, ScenarioEvaluation, ScenarioSuite,
    SuiteConfig,
};
pub use sweep::{aggregate, sweep, SweepPoint, SweepSpec};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sss_netsim::SimConfig;
    use sss_units::Bytes;

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 8, ..Default::default()
        })]

        /// Every spawned client appears exactly once in the result, with a
        /// positive completion time when finished.
        #[test]
        fn client_accounting(concurrency in 1u32..4, duration in 1u32..3,
                             parallel in 1u32..4, seed in any::<u64>()) {
            let exp = Experiment {
                config: SimConfig::small_test(),
                duration_s: duration,
                concurrency,
                parallel_flows: parallel,
                bytes_per_client: Bytes::from_mb(1.0),
                strategy: SpawnStrategy::Scheduled,
                start_jitter: 0.0,
                seed,
            };
            let result = exp.run();
            prop_assert_eq!(result.clients.len() as u32, concurrency * duration);
            for c in &result.clients {
                if let Some(t) = c.transfer_time() {
                    prop_assert!(t.as_secs() > 0.0);
                }
            }
        }

        /// Fluid-vs-exact replay parity over random replay geometry:
        /// for any catalog scenario, seed, and frame/file split, every
        /// (scenario × shape) cell's simulated `T_pct` agrees within the
        /// exported per-shape tolerance, the staged column agrees to
        /// 1e-9, and the decision is bit-equal everywhere off the
        /// frontier band (where a sub-tolerance nudge could legitimately
        /// flip a strict comparison).
        #[test]
        fn fluid_replay_parity_on_random_geometry(
            seed in any::<u64>(),
            frames in 4u32..48,
            files_div in 1u32..5,
            scenario_pick in any::<usize>(),
        ) {
            use sss_core::{decide_batch, Scenario};
            use sss_sim::{fluid_tolerance, Fidelity, TraceShape};

            let all = Scenario::all();
            let scenario = all[scenario_pick % all.len()].clone();
            let t_local = decide_batch(&[scenario.params])[0].t_local.as_secs();

            let base = ReplayConfig {
                frames,
                files: (frames / files_div).max(1),
                shapes: TraceShape::ALL.to_vec(),
                seed,
                fidelity: Fidelity::Exact,
            };
            let scenarios = vec![scenario];
            let exact = SessionReplay::new(scenarios.clone(), base.clone())
                .unwrap()
                .run_sequential();
            let fluid = SessionReplay::new(
                scenarios,
                base.with_fidelity(Fidelity::Fluid),
            )
            .unwrap()
            .run_sequential();

            for (e, f) in exact.records.iter().zip(&fluid.records) {
                let tol = fluid_tolerance(e.shape);
                let scale = e.sim_t_pct_s.abs().max(1e-12);
                let rel = (f.sim_t_pct_s - e.sim_t_pct_s).abs() / scale;
                prop_assert!(
                    rel <= tol,
                    "{}/{}: fluid T_pct rel err {} above tolerance {}",
                    e.scenario_id, e.shape, rel, tol
                );
                let file_rel = (f.sim_file_completion_s - e.sim_file_completion_s).abs()
                    / e.sim_file_completion_s.abs().max(1e-12);
                prop_assert!(
                    file_rel <= 1e-9,
                    "{}/{}: staged fluid rel err {}",
                    e.scenario_id, e.shape, file_rel
                );
                // Off the frontier band the decision must be bit-equal:
                // feasibility inputs are identical, and a T_pct shift
                // bounded by tol·T_pct cannot cross a gap wider than
                // twice that.
                let off_frontier = (e.sim_t_pct_s - t_local).abs() > 2.0 * tol * scale;
                if off_frontier {
                    prop_assert_eq!(
                        e.sim_decision, f.sim_decision,
                        "{}/{}: decision flipped off the frontier band",
                        e.scenario_id, e.shape
                    );
                }
            }
        }

        /// Fleet makespan is monotone non-decreasing in offered load
        /// under FIFO — in the strong, seed-stable sense: appending
        /// sessions to the same arrival stream (the first `n` arrivals,
        /// scenarios and trace seeds are position-derived, hence
        /// identical) can only delay existing work, never speed it up.
        #[test]
        fn fifo_makespan_monotone_in_offered_sessions(
            seed in any::<u64>(),
            n in 2u32..14,
            extra in 1u32..14,
            load in 1.0f64..12.0,
        ) {
            let run = |sessions: u32| {
                let mut config = FleetConfig::quick(seed).with_load(load);
                config.sessions = sessions;
                config.slots = 2;
                FleetSim::bundled(config)
                    .unwrap()
                    .run_sequential()
                    .unwrap()
            };
            let small = run(n);
            let big = run(n + extra);
            prop_assert_eq!(small.records.len() as u32, n);
            // The shared arrival prefix is bit-identical.
            for (a, b) in small.records.iter().zip(&big.records) {
                prop_assert_eq!(a.session, b.session);
                prop_assert!(a.arrival_s == b.arrival_s);
                prop_assert_eq!(a.scenario_id.clone(), b.scenario_id.clone());
            }
            prop_assert!(
                small.makespan_s <= big.makespan_s * (1.0 + 1e-9) + 1e-9,
                "makespan shrank: {} sessions -> {}, {} sessions -> {}",
                n, small.makespan_s, n + extra, big.makespan_s
            );
        }
    }
}
