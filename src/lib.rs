//! # stream-score
//!
//! A quantitative framework for deciding whether time-sensitive scientific
//! workloads should process data **locally** at the instrument, or ship it
//! to remote HPC by **streaming** or **file-based staging** — a full
//! reproduction of *"To Stream or Not to Stream: Towards A Quantitative
//! Model for Remote HPC Processing Decisions"* (SC Workshops '25).
//!
//! ## What's inside
//!
//! | crate | role |
//! |---|---|
//! | [`sss_core`] | the decision model: `T_pct` (Eq. 3–10), Streaming Speed Score (Eq. 11), break-even boundaries, latency tiers, tier planning |
//! | [`sss_sim`] | the shared discrete-event kernel: clocks, deterministic event queue, time-varying WAN bandwidth traces |
//! | [`sss_netsim`] | packet-level network simulator (TCP CUBIC/Reno + SACK + HyStart, drop-tail queues) standing in for the paper's 25 Gbps testbed |
//! | [`sss_loadgen`] | iperf3-style congestion workload orchestration (Table 2's grid, batch vs scheduled spawning), the trace-driven `SessionReplay` model validator, and break-even frontier and regime maps (`FrontierJob`) |
//! | [`sss_iosim`] | PFS + DTN staging pipelines vs memory streaming (Figure 4's APS→ALCF scenario), as per-frame recurrences over a WAN bandwidth trace (a constant-rate WAN is the steady trace) |
//! | [`sss_stats`] | tail-latency statistics: Welford summary, ECDF, the P50/P90/P99/max digest, bootstrap CIs, rate series |
//! | [`sss_exec`] | deterministic parallel sweep executor |
//! | [`sss_units`] | typed quantities (GB vs Gb/s vs TFLOPS confusion is a compile error) |
//! | [`sss_report`] | tables, ASCII plots, CSV/JSON |
//! | [`sss_server`] | long-running HTTP/JSON decision service: request batching + memoized decision cache |
//!
//! ## Quickstart
//!
//! ```
//! use stream_score::prelude::*;
//!
//! // An LCLS-II-like workload: 2 GB produced per second, 17 TFLOP of
//! // analysis per GB, a 25 Gbps link at 80% efficiency.
//! let params = ModelParams::builder()
//!     .data_unit(Bytes::from_gb(2.0))
//!     .intensity(ComputeIntensity::from_tflop_per_gb(17.0))
//!     .local_rate(FlopRate::from_tflops(10.0))
//!     .remote_rate(FlopRate::from_tflops(340.0))
//!     .bandwidth(Rate::from_gbps(25.0))
//!     .alpha(Ratio::new(0.8))
//!     .build()
//!     .unwrap();
//!
//! let report = decide(&params);
//! assert_eq!(report.decision, Decision::RemoteStream);
//! println!("{}: gain {:.1}x", report.reasons[0], report.gain.value());
//! ```
//!
//! Every table and figure of the paper regenerates in one process with
//! `cargo run --release -p sss-bench` (or `-- fig2a case_study …` for a
//! subset): one module per artifact in `crates/bench/src/`, each module
//! doc naming what it reproduces, all writing under `results/`.

pub use sss_core as core;
pub use sss_exec as exec;
pub use sss_iosim as iosim;
pub use sss_loadgen as loadgen;
pub use sss_netsim as netsim;
pub use sss_report as report;
pub use sss_server as server;
pub use sss_sim as sim;
pub use sss_stats as stats;
pub use sss_units as units;

/// One-stop imports for the common workflow: build parameters, evaluate
/// the model, run the simulators.
pub mod prelude {
    pub use sss_core::{
        decide, decide_batch, BreakEven, CompletionModel, CongestionCurve, Decision,
        DecisionReport, ModelParams, Scenario, ScenarioSpec, StreamingSpeedScore, Tier, TierReport,
    };
    pub use sss_exec::ThreadPool;
    pub use sss_iosim::{
        presets, EventFileBasedPipeline, EventStreamingPipeline, FrameSource, MovementResult,
    };
    pub use sss_loadgen::{
        frontier_csv, frontier_table, replay_table, run_http_load, summary_table, sweep, Axis,
        Experiment, ExperimentResult, FrontierJob, FrontierMap, FrontierSpec, HttpLoadSpec,
        ReplayConfig, ReplayReport, ScenarioEvaluation, ScenarioSuite, SessionReplay,
        SpawnStrategy, SuiteConfig, SweepSpec,
    };
    pub use sss_netsim::{FlowSpec, SimConfig, SimTime, Simulator};
    pub use sss_server::{Server, ServerConfig};
    pub use sss_sim::{BandwidthTrace, EventQueue, TraceShape};
    pub use sss_stats::{Ecdf, Summary, TailMetrics};
    pub use sss_units::{Bytes, ComputeIntensity, FlopRate, Flops, Rate, Ratio, TimeDelta};
}
