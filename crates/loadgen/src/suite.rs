//! The facility-scenario suite: fan every registered scenario out across
//! the decision model, the packet-level network simulator and the staging
//! I/O simulator, in parallel on one shared thread pool.
//!
//! For each [`Scenario`] the suite produces a [`ScenarioEvaluation`]:
//!
//! * **model** — the analytic [`DecisionReport`] (Eq. 3–10);
//! * **netsim** — a congestion probe on a link shaped like the scenario's
//!   (same geometry as the paper's testbed, scaled to the scenario's
//!   bandwidth), swept over the configured concurrency levels through the
//!   [`SweepSpec`]/[`aggregate`](crate::sweep::aggregate) machinery;
//! * **iosim** — the scenario's data unit pushed through the streaming
//!   and file-based movement pipelines, yielding a measured θ estimate.
//!
//! Every cell's seed derives deterministically from the suite seed via
//! [`SeedSequence`], so [`ScenarioSuite::run`] returns bit-identical
//! results on any number of workers — the determinism suite asserts
//! exactly that.

use serde::{Deserialize, Serialize};

use sss_core::{decide_batch, DecisionReport, ModelParams, Scenario};
use sss_exec::{SeedSequence, ThreadPool};
use sss_iosim::{
    presets, theta_estimate, EventFileBasedPipeline, EventStreamingPipeline, FrameSource,
};
use sss_netsim::{LinkConfig, Qdisc, SimConfig, TcpConfig};
use sss_report::{CsvWriter, Table};
use sss_sim::BandwidthTrace;
use sss_units::{Bytes, Rate, TimeDelta};

use crate::experiment::{Experiment, SpawnStrategy};
use crate::sweep::{aggregate, SweepPoint, SweepSpec};

/// How the suite exercises each scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteConfig {
    /// Congestion levels: clients spawned per second on the scenario link.
    pub congestion_levels: Vec<u32>,
    /// Netsim probe duration per level, in seconds.
    pub duration_s: u32,
    /// Parallel TCP flows per client.
    pub parallel_flows: u32,
    /// Target wire time of one probe transfer; per-client volume is
    /// `bandwidth × probe_wire_time`, clamped to the probe bounds below so
    /// a 1 Tbps scenario stays simulable and a 10 Gbps one stays measurable.
    pub probe_wire_time: TimeDelta,
    /// Lower bound on the per-client probe volume.
    pub probe_floor: Bytes,
    /// Upper bound on the per-client probe volume.
    pub probe_ceiling: Bytes,
    /// Frames the scenario's data unit is split into for the I/O pipelines.
    pub frames: u32,
    /// File count for the file-based movement path.
    pub files: u32,
    /// Master seed; per-cell seeds derive from it.
    pub seed: u64,
}

impl SuiteConfig {
    /// Fast settings for interactive use and tests: two congestion levels,
    /// one-second probes, small transfer volumes.
    pub fn quick(seed: u64) -> Self {
        SuiteConfig {
            congestion_levels: vec![1, 4],
            duration_s: 1,
            parallel_flows: 4,
            probe_wire_time: TimeDelta::from_millis(20.0),
            probe_floor: Bytes::from_mb(2.0),
            probe_ceiling: Bytes::from_mb(64.0),
            frames: 32,
            files: 8,
            seed,
        }
    }

    /// The full matrix: three congestion levels, longer probes, finer I/O
    /// pipelines. This is what `stream-score scenarios --depth full` and
    /// the `scenario_suite` regenerator run.
    pub fn standard(seed: u64) -> Self {
        SuiteConfig {
            congestion_levels: vec![1, 4, 8],
            duration_s: 2,
            parallel_flows: 8,
            probe_wire_time: TimeDelta::from_millis(50.0),
            probe_floor: Bytes::from_mb(4.0),
            probe_ceiling: Bytes::from_mb(256.0),
            frames: 64,
            files: 16,
            seed,
        }
    }

    /// Validate the knobs the simulators would otherwise panic on.
    pub fn validate(&self) -> Result<(), String> {
        if self.congestion_levels.is_empty() || self.congestion_levels.contains(&0) {
            return Err("congestion levels must be non-empty and positive".into());
        }
        if self.duration_s == 0 || self.parallel_flows == 0 {
            return Err("duration and parallel flows must be positive".into());
        }
        if self.frames == 0 || self.files == 0 || self.files > self.frames {
            return Err("need 1 <= files <= frames".into());
        }
        if self.probe_wire_time.as_secs() <= 0.0 {
            return Err("probe wire time must be positive".into());
        }
        if self.probe_floor.as_b() <= 0.0 || self.probe_ceiling < self.probe_floor {
            return Err("probe bounds must satisfy 0 < floor <= ceiling".into());
        }
        Ok(())
    }

    /// Per-client probe volume for a scenario link.
    fn probe_bytes(&self, bandwidth: Rate) -> Bytes {
        let target = bandwidth * self.probe_wire_time;
        if target < self.probe_floor {
            self.probe_floor
        } else if target > self.probe_ceiling {
            self.probe_ceiling
        } else {
            target
        }
    }
}

/// One congestion level's netsim measurement on the scenario link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CongestionPoint {
    /// Clients per second.
    pub concurrency: u32,
    /// Measured bottleneck utilization (fraction of capacity).
    pub utilization: f64,
    /// Worst session transfer time, seconds.
    pub worst_transfer_s: f64,
    /// Streaming Speed Score of the cell (Eq. 11).
    pub sss: f64,
}

/// The scenario's data unit through both movement pipelines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IoSummary {
    /// Streaming-pipeline completion, seconds from acquisition start.
    pub streaming_completion_s: f64,
    /// File-based-pipeline completion, seconds.
    pub file_completion_s: f64,
    /// `1 − streaming/file`: the fraction of movement time streaming saves.
    pub streaming_reduction: f64,
    /// θ estimated from the file path's post-acquisition lag (Eq. 7);
    /// `None` when the wire time degenerates.
    pub theta_estimate: Option<f64>,
}

/// Everything the suite learned about one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioEvaluation {
    /// The scenario evaluated.
    pub scenario: Scenario,
    /// Analytic verdict from the decision model.
    pub decision: DecisionReport,
    /// Netsim congestion probe, one point per configured level.
    pub congestion: Vec<CongestionPoint>,
    /// I/O-pipeline comparison.
    pub io: IoSummary,
}

/// A set of scenarios plus the probing configuration to run them under.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSuite {
    scenarios: Vec<Scenario>,
    config: SuiteConfig,
}

impl ScenarioSuite {
    /// Suite over an explicit scenario list.
    ///
    /// # Errors
    /// Fails on an invalid [`SuiteConfig`] — callers on request paths
    /// turn this into a 4xx/5xx instead of panicking the connection.
    pub fn new(scenarios: Vec<Scenario>, config: SuiteConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(ScenarioSuite { scenarios, config })
    }

    /// Suite over every scenario in [`Scenario::registry`].
    ///
    /// # Errors
    /// Fails on an invalid [`SuiteConfig`].
    pub fn bundled(config: SuiteConfig) -> Result<Self, String> {
        Self::new(Scenario::all(), config)
    }

    /// The scenarios this suite evaluates.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The probing configuration.
    pub fn config(&self) -> &SuiteConfig {
        &self.config
    }

    /// Netsim configuration for a scenario: the paper testbed's geometry
    /// (16 ms RTT, jumbo frames, one-BDP bottleneck buffer) scaled to the
    /// scenario's link bandwidth.
    pub fn sim_config_for(scenario: &Scenario) -> SimConfig {
        let rate = scenario.params.bandwidth;
        let one_way = TimeDelta::from_millis(8.0);
        let bdp = rate * TimeDelta::from_millis(16.0);
        let access_buffer = Bytes::from_b(bdp.as_b().max(Bytes::from_mb(8.0).as_b()));
        SimConfig {
            access: LinkConfig {
                rate,
                prop_delay: TimeDelta::from_micros(50.0),
                buffer: access_buffer,
                qdisc: Qdisc::DropTail,
            },
            bottleneck: LinkConfig {
                rate,
                prop_delay: one_way,
                buffer: bdp,
                qdisc: Qdisc::DropTail,
            },
            ack_delay: one_way,
            tcp: TcpConfig::for_bdp(bdp),
            max_sim_time: TimeDelta::from_secs(120.0),
            counter_bin: TimeDelta::from_millis(100.0),
        }
    }

    /// The congestion-probe sweep for scenario `index`, with its seed
    /// derived from the suite seed.
    fn sweep_spec(&self, index: usize) -> SweepSpec {
        let scenario = &self.scenarios[index];
        SweepSpec {
            config: Self::sim_config_for(scenario),
            duration_s: self.config.duration_s,
            concurrency: self.config.congestion_levels.clone(),
            parallel_flows: vec![self.config.parallel_flows],
            bytes_per_client: self.config.probe_bytes(scenario.params.bandwidth),
            strategy: SpawnStrategy::Simultaneous,
            start_jitter: 0.002,
            repeats: 1,
            seed: SeedSequence::new(self.config.seed).seed(index as u64),
        }
    }

    /// I/O-pipeline analysis of one scenario over a steady WAN at its
    /// effective rate (deterministic — no RNG involved). The
    /// decision-model side is evaluated separately, for the whole suite
    /// at once.
    fn analyze_io(scenario: &Scenario, config: &SuiteConfig) -> IoSummary {
        // The scenario's data unit as a frame stream at its production
        // cadence: `frames` frames per second, sized to S_unit.
        let frames = config.frames;
        let frame_bytes = Bytes::from_b(scenario.params.data_unit.as_b() / frames as f64);
        let period = TimeDelta::from_secs(1.0 / frames as f64);
        let source = FrameSource::new(frames, frame_bytes, period);

        let mut wan = presets::aps_alcf_wan();
        wan.bandwidth = scenario.params.effective_rate();
        let mut path = presets::aps_to_alcf();
        path.wan = wan;

        let steady = BandwidthTrace::steady(wan.bandwidth);
        let streaming = EventStreamingPipeline::new(source, wan, steady.clone()).run();
        let files = EventFileBasedPipeline::new(source, config.files, path, steady).run();

        let wire = source.total_bytes() / scenario.params.effective_rate();
        IoSummary {
            streaming_completion_s: streaming.completion.as_secs(),
            file_completion_s: files.completion.as_secs(),
            streaming_reduction: 1.0 - streaming.completion.as_secs() / files.completion.as_secs(),
            theta_estimate: theta_estimate(files.post_acquisition_lag, wire).map(|t| t.value()),
        }
    }

    /// Evaluate the whole suite on `pool`, fanning the netsim probes of
    /// every (scenario × congestion level) cell and the per-scenario I/O
    /// analyses across the pool's workers; the decision model runs on the
    /// calling thread. Every worker count returns the same bytes: seeds
    /// are position-derived, so scheduling cannot perturb them.
    pub fn run(&self, pool: &ThreadPool) -> Vec<ScenarioEvaluation> {
        let specs: Vec<SweepSpec> = (0..self.scenarios.len())
            .map(|i| self.sweep_spec(i))
            .collect();
        let per_spec: Vec<Vec<Experiment>> = specs.iter().map(|s| s.experiments()).collect();
        let experiments: Vec<Experiment> = per_spec.iter().flatten().copied().collect();

        let results = pool.map(&experiments, Experiment::run);
        let params: Vec<ModelParams> = self.scenarios.iter().map(|s| s.params).collect();
        let decisions = decide_batch(&params);
        let ios = pool.map(&self.scenarios, |s| Self::analyze_io(s, &self.config));

        let mut evaluations = Vec::with_capacity(self.scenarios.len());
        let mut offset = 0;
        for ((((scenario, spec), batch), decision), io) in self
            .scenarios
            .iter()
            .zip(&specs)
            .zip(&per_spec)
            .zip(decisions)
            .zip(ios)
        {
            let n = batch.len();
            let points = aggregate(spec, &results[offset..offset + n]);
            offset += n;
            evaluations.push(ScenarioEvaluation {
                scenario: scenario.clone(),
                decision,
                congestion: points.iter().map(CongestionPoint::from_sweep).collect(),
                io,
            });
        }
        debug_assert_eq!(offset, results.len());
        evaluations
    }
}

impl CongestionPoint {
    /// Distill a [`SweepPoint`] into the suite's compact record.
    pub fn from_sweep(p: &SweepPoint) -> Self {
        CongestionPoint {
            concurrency: p.concurrency,
            utilization: p.utilization,
            worst_transfer_s: p.worst_transfer_s,
            sss: p.sss(),
        }
    }
}

/// One row per scenario: decision, demanded vs available rate, measured
/// congestion inflation at the heaviest probed level, and the I/O verdict.
pub fn summary_table(evaluations: &[ScenarioEvaluation]) -> Table {
    let mut table = Table::new([
        "scenario", "tier", "decision", "gain", "req Gbps", "eff Gbps", "util%", "SSS", "stream s",
        "file s", "θ̂",
    ])
    .with_title("Facility scenario suite (congestion column: heaviest probed level)");
    for e in evaluations {
        let worst = e.congestion.iter().max_by_key(|c| c.concurrency);
        table.row([
            e.scenario.id.clone(),
            format!("{:?}", e.scenario.tier),
            format!("{:?}", e.decision.decision),
            format!("{:.2}×", e.decision.gain.value()),
            format!("{:.1}", e.decision.required_rate.as_gbps()),
            format!("{:.1}", e.decision.effective_rate.as_gbps()),
            worst.map_or("-".into(), |w| format!("{:.1}", w.utilization * 100.0)),
            worst.map_or("-".into(), |w| format!("{:.1}", w.sss)),
            format!("{:.2}", e.io.streaming_completion_s),
            format!("{:.2}", e.io.file_completion_s),
            e.io.theta_estimate
                .map_or("-".into(), |t| format!("{t:.2}")),
        ]);
    }
    table
}

/// The full evaluation matrix as CSV: one row per (scenario, congestion
/// level) cell.
pub fn suite_csv(evaluations: &[ScenarioEvaluation]) -> CsvWriter {
    let mut csv = CsvWriter::new([
        "scenario",
        "decision",
        "gain",
        "concurrency",
        "utilization",
        "worst_transfer_s",
        "sss",
        "streaming_completion_s",
        "file_completion_s",
        "theta_estimate",
    ]);
    for e in evaluations {
        for c in &e.congestion {
            csv.row([
                e.scenario.id.clone(),
                format!("{:?}", e.decision.decision),
                format!("{}", e.decision.gain.value()),
                format!("{}", c.concurrency),
                format!("{}", c.utilization),
                format!("{}", c.worst_transfer_s),
                format!("{}", c.sss),
                format!("{}", e.io.streaming_completion_s),
                format!("{}", e.io.file_completion_s),
                format!("{}", e.io.theta_estimate.unwrap_or(f64::NAN)),
            ]);
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SuiteConfig {
        SuiteConfig {
            congestion_levels: vec![1, 2],
            duration_s: 1,
            parallel_flows: 2,
            probe_wire_time: TimeDelta::from_millis(5.0),
            probe_floor: Bytes::from_mb(1.0),
            probe_ceiling: Bytes::from_mb(8.0),
            frames: 8,
            files: 4,
            seed: 42,
        }
    }

    fn two_scenarios() -> Vec<Scenario> {
        vec![
            Scenario::by_id("lcls-coherent-scattering").unwrap(),
            Scenario::by_id("diii-d-between-shot").unwrap(),
        ]
    }

    #[test]
    fn suite_evaluates_every_scenario_and_level() {
        let suite = ScenarioSuite::new(two_scenarios(), tiny_config()).unwrap();
        let evals = suite.run(&ThreadPool::new(4));
        assert_eq!(evals.len(), 2);
        for e in &evals {
            assert_eq!(e.congestion.len(), 2);
            assert!(e.io.streaming_completion_s > 0.0);
            assert!(e.io.file_completion_s >= e.io.streaming_completion_s);
            for c in &e.congestion {
                assert!(c.worst_transfer_s > 0.0);
                assert!(c.sss >= 1.0, "SSS {} < 1 breaks Eq. 11", c.sss);
            }
        }
    }

    #[test]
    fn parallel_and_sequential_are_bit_identical() {
        let suite = ScenarioSuite::new(two_scenarios(), tiny_config()).unwrap();
        let par = suite.run(&ThreadPool::new(4));
        let seq = suite.run(&ThreadPool::new(1));
        assert_eq!(par, seq);
    }

    /// Every suite verdict is the point-wise `decide` report, whatever
    /// the pool.
    #[test]
    fn decisions_match_decide() {
        let suite = ScenarioSuite::new(two_scenarios(), tiny_config()).unwrap();
        let sequential = suite.run(&ThreadPool::new(1));
        for (evaluation, scenario) in sequential.iter().zip(suite.scenarios()) {
            assert_eq!(evaluation.decision, sss_core::decide(&scenario.params));
        }
        assert_eq!(suite.run(&ThreadPool::new(4)), sequential);
    }

    #[test]
    fn probe_volume_clamped() {
        let cfg = tiny_config();
        // 1 Tbps × 5 ms = 625 MB → ceiling.
        assert_eq!(cfg.probe_bytes(Rate::from_tbps(1.0)), Bytes::from_mb(8.0));
        // 1 Gbps × 5 ms = 625 kB → floor.
        assert_eq!(cfg.probe_bytes(Rate::from_gbps(1.0)), Bytes::from_mb(1.0));
        // 25 Gbps × 5 ms ≈ 15.6 MB → also ceiling.
        assert_eq!(cfg.probe_bytes(Rate::from_gbps(25.0)), Bytes::from_mb(8.0));
    }

    #[test]
    fn sim_config_scales_to_scenario_bandwidth() {
        let s = Scenario::by_id("deleria-frib").unwrap();
        let cfg = ScenarioSuite::sim_config_for(&s);
        assert!((cfg.bottleneck.rate.as_gbps() - 100.0).abs() < 1e-9);
        cfg.validate().unwrap();
        let lhc = Scenario::by_id("lhc-raw-trigger").unwrap();
        ScenarioSuite::sim_config_for(&lhc).validate().unwrap();
    }

    #[test]
    fn summary_table_has_one_row_per_scenario() {
        let suite = ScenarioSuite::new(two_scenarios(), tiny_config()).unwrap();
        let evals = suite.run(&ThreadPool::new(1));
        let table = summary_table(&evals);
        assert_eq!(table.len(), evals.len());
        let text = table.to_text();
        assert!(text.contains("lcls-coherent-scattering"), "{text}");
        let csv = suite_csv(&evals);
        assert_eq!(csv.as_str().lines().count(), 1 + 2 * 2);
    }

    #[test]
    fn zero_level_rejected() {
        let mut cfg = tiny_config();
        cfg.congestion_levels = vec![0];
        let err = ScenarioSuite::new(two_scenarios(), cfg).unwrap_err();
        assert!(err.contains("congestion"), "{err}");
    }
}
