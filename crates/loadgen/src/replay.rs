//! Trace-driven session replay: the model-error ground truth.
//!
//! The closed-form completion model (Eq. 3–10) treats the network as a
//! constant effective rate `α·Bw`. [`SessionReplay`] replays every
//! catalog scenario through the per-frame movement simulator under a
//! set of WAN [`TraceShape`]s — steady, diurnal, bursty, scheduled
//! outage — and compares the simulated completion time and the simulated
//! decision against [`CompletionModel`]/[`verdict`], producing
//! per-scenario **relative error** and **decision agreement** reports.
//!
//! ## What one replay cell simulates
//!
//! The model's `T_pct = θ·S/(α·Bw) + C·S/R_remote` assumes the data unit
//! exists at `t = 0`, moves sequentially, then is processed. The replay
//! mirrors those semantics so that the *only* difference is the network:
//!
//! * the unit is split into [`ReplayConfig::frames`] frames produced in
//!   a near-instant burst (1 ns cadence — the closed form has no
//!   production timeline);
//! * frames move through [`EventStreamingPipeline`] over a trace whose
//!   base rate is `α·Bw/θ` — the scenario's θ inflates every byte's
//!   movement cost, implemented by deflating the trace — with zero
//!   framing overhead and zero RTT;
//! * remote compute (`C·S/R_remote`, a network-free term the closed form
//!   gets exactly right) is added after the last byte lands.
//!
//! Under a **steady** trace the simulated transfer is the same division
//! the model performs, so the relative error is bounded by the burst
//! cadence (`frames` ns against a transfer of `≥ milliseconds`): the
//! documented steady tolerance is [`STEADY_TOLERANCE`] = 1e-6. Under the
//! degraded shapes the error is the real, quantified gap between the
//! closed form and a network that changes mid-transfer.
//!
//! The staged column (`sim_file_completion_s`) moves the same frames over
//! the same trace through [`EventFileBasedPipeline`]: [`ReplayConfig::files`]
//! files on the preset PFS and DTN substrate, with the session's WAN. Its
//! writer stage never reads the trace, so it runs once per scenario
//! ([`EventFileBasedPipeline::closes`]), and each cell only delivers
//! those closes over its own trace ([`EventFileBasedPipeline::deliver`]).
//!
//! The simulated **decision** re-runs the model's verdict with simulated
//! inputs: feasibility against the trace's mean effective rate over the
//! nominal horizon, and the simulated `T_pct` against the analytic
//! `T_local` (the local path has no network, so its closed form is
//! exact). Scenarios fan out across the [`ThreadPool`], one task per
//! scenario running its cells in shape order with position-derived
//! seeds, so replays are byte-identical across worker counts.
//!
//! ## Fidelity
//!
//! [`ReplayConfig::fidelity`] selects the movement integrator. The burst
//! production (1 ns cadence) and zero-overhead WAN place every replay
//! cell in the regime where the fluid fast path is provably exact (see
//! `sss_iosim`'s fluid module), so [`Fidelity::Fluid`] reproduces the
//! exact records within the per-shape tolerances exported by
//! [`sss_sim::fluid_tolerance`]. Both cost about `O(trace segments)` per
//! cell: the fluid path integrates each segment in closed form, and the
//! exact chain, whose burst source keeps it backlogged, jumps each run of
//! sends inside one segment and one binade in closed form
//! ([`BandwidthTrace::send_chain`]) instead of stepping frame by frame.

use serde::{Deserialize, Serialize};

use sss_core::{verdict, CompletionModel, Decision, ModelParams, Scenario, Verdict};
use sss_exec::{SeedSequence, ThreadPool};
use sss_iosim::{presets, EventFileBasedPipeline, EventStreamingPipeline, FrameSource, WanProfile};
use sss_report::{CsvWriter, Table};
use sss_sim::{BandwidthTrace, Dips, Fidelity, TraceShape};
use sss_units::{Bytes, Rate, TimeDelta};

/// Documented steady-state tolerance: with a constant trace the replay
/// must agree with the closed-form `T_pct` within this relative error
/// (see the module docs for the burst-cadence bound behind it).
pub const STEADY_TOLERANCE: f64 = 1e-6;

/// Cadence of the near-instant production burst (seconds per frame).
const BURST_PERIOD_S: f64 = 1e-9;

/// One scenario's data unit as a replay cell moves it (module docs):
/// `S` bytes burst out at [`BURST_PERIOD_S`] cadence onto a zero-overhead
/// WAN whose trace has base rate `α·Bw/θ` over the nominal movement time
/// `θ·S/(α·Bw)`. [`FleetSim`](crate::FleetSim) moves each of its
/// sessions through this type too, so an uncontended fleet session is a
/// replay cell by construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Session {
    /// The scenario's I/O-overhead coefficient θ.
    pub(crate) theta: f64,
    /// The data unit `S`, bytes.
    pub(crate) s_bytes: f64,
    /// The θ-deflated trace base rate `α·Bw/θ`.
    pub(crate) base: Rate,
    /// The nominal movement time `θ·S/(α·Bw)`, seconds: every trace
    /// shape's characteristic horizon.
    pub(crate) horizon: f64,
}

impl Session {
    /// The session of a scenario with parameters `params`.
    pub(crate) fn new(params: &ModelParams) -> Self {
        let s_bytes = params.data_unit.as_b();
        let theta = params.theta.value();
        let effective = params.effective_rate().as_bytes_per_sec();
        Session {
            theta,
            s_bytes,
            base: Rate::from_bytes_per_sec(effective / theta),
            horizon: theta * s_bytes / effective,
        }
    }

    /// The session's solo WAN trace of `shape`, laid out from `dips`.
    pub(crate) fn trace(&self, shape: TraceShape, dips: &Dips) -> BandwidthTrace {
        shape.lay_out(self.base, self.horizon, dips)
    }

    /// The unit as `frames` frames, burst out at [`BURST_PERIOD_S`]
    /// cadence.
    fn source(&self, frames: u32) -> FrameSource {
        FrameSource::new(
            frames,
            Bytes::from_b(self.s_bytes / frames as f64),
            TimeDelta::from_secs(BURST_PERIOD_S),
        )
    }

    /// The streaming pipeline moving the unit as `frames` frames over
    /// `trace`.
    pub(crate) fn stream(&self, frames: u32, trace: BandwidthTrace) -> EventStreamingPipeline {
        let source = self.source(frames);
        // Zero-overhead WAN: the closed form has no framing or RTT terms,
        // so none may leak into the comparison.
        let wan = WanProfile {
            bandwidth: self.base,
            rtt: TimeDelta::ZERO,
            per_message_overhead: TimeDelta::ZERO,
        };
        EventStreamingPipeline::new(source, wan, trace)
    }
}

/// How the replay exercises each scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Frames the data unit is split into for the movement pipelines.
    pub frames: u32,
    /// File count for the staged (file-based) replay column.
    pub files: u32,
    /// The WAN trace shapes each scenario replays under.
    pub shapes: Vec<TraceShape>,
    /// Master seed; per-cell seeds derive from it by position.
    pub seed: u64,
    /// Which movement integrator the pipelines use: per-frame
    /// recurrences ([`Fidelity::Exact`]) or closed-form piecewise-constant
    /// rate integration ([`Fidelity::Fluid`]). Every replay cell's burst
    /// source satisfies the fluid exactness condition, so the two agree
    /// up to float re-association.
    pub fidelity: Fidelity,
}

impl ReplayConfig {
    /// The full validation matrix: 64-frame units, 16-file staging, all
    /// four bundled shapes.
    pub fn standard(seed: u64) -> Self {
        ReplayConfig {
            frames: 64,
            files: 16,
            shapes: TraceShape::ALL.to_vec(),
            seed,
            fidelity: Fidelity::Exact,
        }
    }

    /// Fast settings for interactive use, tests and `SSS_QUICK` runs.
    pub fn quick(seed: u64) -> Self {
        ReplayConfig {
            frames: 16,
            files: 4,
            shapes: TraceShape::ALL.to_vec(),
            seed,
            fidelity: Fidelity::Exact,
        }
    }

    /// The same configuration with a different movement [`Fidelity`].
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Validate the knobs the pipelines would otherwise panic on.
    pub fn validate(&self) -> Result<(), String> {
        if self.frames == 0 || self.files == 0 || self.files > self.frames {
            return Err("need 1 <= files <= frames".into());
        }
        if self.frames > 65_536 {
            return Err(format!(
                "frames {} exceeds the replay cap of 65536",
                self.frames
            ));
        }
        if self.shapes.is_empty() {
            return Err("need at least one trace shape".into());
        }
        Ok(())
    }
}

/// One (scenario × trace shape) replay outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayRecord {
    /// The scenario replayed.
    pub scenario_id: String,
    /// The WAN trace shape it replayed under.
    pub shape: TraceShape,
    /// Mean effective rate of the traced WAN over the nominal transfer
    /// horizon, in Gbps (θ-undeflated, comparable to `α·Bw`).
    pub mean_effective_gbps: f64,
    /// The closed form's movement time `θ·S/(α·Bw)`, seconds.
    pub model_transfer_s: f64,
    /// Simulated movement time over the traced WAN, seconds.
    pub sim_transfer_s: f64,
    /// The closed form's `T_pct` (Eq. 10), seconds.
    pub model_t_pct_s: f64,
    /// Simulated `T_pct`: traced movement + remote compute, seconds.
    pub sim_t_pct_s: f64,
    /// `|sim − model| / model` on `T_pct`.
    pub t_pct_rel_err: f64,
    /// Staged (file-based) movement completion over the same trace,
    /// seconds — the file-based pipeline the θ coefficient abstracts.
    pub sim_file_completion_s: f64,
    /// The verdict the closed-form model reaches.
    pub model_decision: Decision,
    /// The verdict re-derived from simulated inputs.
    pub sim_decision: Decision,
    /// Whether the two verdicts agree.
    pub agree: bool,
}

/// Per-shape aggregate across the replayed scenarios.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShapeSummary {
    /// The trace shape summarized.
    pub shape: TraceShape,
    /// Largest `T_pct` relative error across scenarios.
    pub max_rel_err: f64,
    /// Mean `T_pct` relative error across scenarios.
    pub mean_rel_err: f64,
    /// Fraction of scenarios whose sim and model decisions agree.
    pub agreement: f64,
}

/// Everything one replay run learned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// One record per (scenario × shape) cell, scenario-major.
    pub records: Vec<ReplayRecord>,
    /// Per-shape aggregates.
    pub shapes: Vec<ShapeSummary>,
}

impl ReplayReport {
    /// The summary for `shape`, if it was replayed.
    pub fn shape_summary(&self, shape: TraceShape) -> Option<&ShapeSummary> {
        self.shapes.iter().find(|s| s.shape == shape)
    }

    /// Overall decision-agreement fraction across every cell.
    pub fn overall_agreement(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.records.iter().filter(|r| r.agree).count() as f64 / self.records.len() as f64
    }
}

/// A set of scenarios plus the replay configuration to run them under.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReplay {
    scenarios: Vec<Scenario>,
    config: ReplayConfig,
}

impl SessionReplay {
    /// Replay over an explicit scenario list.
    ///
    /// # Errors
    /// Fails on an invalid [`ReplayConfig`] — `/simulate` turns this into
    /// a 400 instead of panicking the connection.
    pub fn new(scenarios: Vec<Scenario>, config: ReplayConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(SessionReplay { scenarios, config })
    }

    /// Replay over every scenario in [`Scenario::registry`].
    ///
    /// # Errors
    /// Fails on an invalid [`ReplayConfig`].
    pub fn bundled(config: ReplayConfig) -> Result<Self, String> {
        Self::new(Scenario::all(), config)
    }

    /// The scenarios this replay evaluates.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The replay configuration.
    pub fn config(&self) -> &ReplayConfig {
        &self.config
    }

    /// Replay every (scenario × shape) cell on `pool`, in one fan-out
    /// over the scenarios: each task runs its scenario's staged writer
    /// stage once (it reads no trace, so every shape of a scenario shares
    /// its file closes), then the scenario's cells in shape order, each
    /// the trace, the streaming chain and the staged delivery over that
    /// trace. The records concatenate scenario-major. Every worker count
    /// returns the same bytes: each cell's output depends only on its
    /// position (seeds are position-derived), so scheduling cannot
    /// perturb it.
    pub fn run(&self, pool: &ThreadPool) -> ReplayReport {
        // The model side of every comparison: one verdict per catalog
        // scenario, on the calling thread.
        let verdicts: Vec<Verdict> = self.scenarios.iter().map(|s| verdict(&s.params)).collect();

        // Scenario-major cell order, each cell's seed derived from its
        // position — what makes replays agree across worker counts.
        let seeds = SeedSequence::new(self.config.seed);
        let shapes = &self.config.shapes;
        let local = presets::aps_to_alcf().local;
        let indices: Vec<usize> = (0..self.scenarios.len()).collect();
        let per_scenario = pool.map(&indices, |&si| {
            let scenario = &self.scenarios[si];
            let closes = EventFileBasedPipeline::closes(
                &Session::new(&scenario.params).source(self.config.frames),
                self.config.files,
                &local,
                self.config.fidelity,
            );
            shapes
                .iter()
                .enumerate()
                .map(|(hi, &shape)| {
                    let seed = seeds.seed((si * shapes.len() + hi) as u64);
                    self.evaluate_cell(scenario, &verdicts[si], &closes, shape, seed)
                })
                .collect::<Vec<_>>()
        });
        let records: Vec<ReplayRecord> = per_scenario.into_iter().flatten().collect();

        let shapes = shapes
            .iter()
            .map(|&shape| summarize_shape(&records, shape))
            .collect();
        ReplayReport { records, shapes }
    }

    /// Replay one scenario under one trace shape, delivering the
    /// scenario's staged files from their `closes`.
    fn evaluate_cell(
        &self,
        scenario: &Scenario,
        model: &Verdict,
        closes: &[f64],
        shape: TraceShape,
        seed: u64,
    ) -> ReplayRecord {
        let p = &scenario.params;
        let model_eval = CompletionModel::new(*p);
        let session = Session::new(p);
        let trace = session.trace(shape, &shape.draw(seed));
        // The trace's mean effective rate over the nominal horizon
        // (θ-undeflated, comparable to α·Bw), read before the streaming
        // pipeline takes the trace.
        let mean_effective = session.theta * trace.mean_rate(session.horizon);
        let stream = session.stream(self.config.frames, trace);
        let sim_transfer = stream
            .run_fidelity(self.config.fidelity)
            .completion
            .as_secs();

        // Remote compute has no network in it; the closed form is exact
        // there, so the simulated T_pct reuses it (sequential, as Eq. 10).
        let t_remote = model_eval.t_remote().as_secs();
        let sim_t_pct = sim_transfer + t_remote;
        let model_t_pct = model.t_pct.as_secs();
        let t_pct_rel_err = (sim_t_pct - model_t_pct).abs() / model_t_pct.abs().max(1e-12);

        // The staged column: the same unit's closed files delivered over
        // the same trace, which the streaming pipeline hands on (preset
        // PFS/DTN substrate, the session's WAN in place of its link).
        let mut path = presets::aps_to_alcf();
        path.wan = stream.wan;
        let sim_file_completion_s =
            EventFileBasedPipeline::new(stream.source, self.config.files, path, stream.trace)
                .deliver(closes)
                .completion
                .as_secs();

        // The simulated verdict: the model's own decision rule fed with
        // simulated inputs. Feasibility uses the trace's mean effective
        // rate; the time comparison uses the simulated T_pct against the
        // analytic T_local (no network on the local path).
        let required = p.required_stream_rate().as_bytes_per_sec();
        let t_local = model.t_local.as_secs();
        let sim_decision = if required > mean_effective {
            Decision::Infeasible
        } else if sim_t_pct < t_local {
            Decision::RemoteStream
        } else {
            Decision::Local
        };

        ReplayRecord {
            scenario_id: scenario.id.clone(),
            shape,
            mean_effective_gbps: Rate::from_bytes_per_sec(mean_effective).as_gbps(),
            model_transfer_s: model_eval.t_transfer().as_secs() + model_eval.t_io().as_secs(),
            sim_transfer_s: sim_transfer,
            model_t_pct_s: model_t_pct,
            sim_t_pct_s: sim_t_pct,
            t_pct_rel_err,
            sim_file_completion_s,
            model_decision: model.decision,
            sim_decision,
            agree: model.decision == sim_decision,
        }
    }
}

fn summarize_shape(records: &[ReplayRecord], shape: TraceShape) -> ShapeSummary {
    let of_shape: Vec<&ReplayRecord> = records.iter().filter(|r| r.shape == shape).collect();
    let n = of_shape.len().max(1) as f64;
    ShapeSummary {
        shape,
        max_rel_err: of_shape.iter().map(|r| r.t_pct_rel_err).fold(0.0, f64::max),
        mean_rel_err: of_shape.iter().map(|r| r.t_pct_rel_err).sum::<f64>() / n,
        agreement: of_shape.iter().filter(|r| r.agree).count() as f64 / n,
    }
}

/// One row per replay cell: model vs simulated completion and decisions.
pub fn replay_table(report: &ReplayReport) -> Table {
    let mut table = Table::new([
        "scenario",
        "trace",
        "eff Gbps",
        "model T_pct",
        "sim T_pct",
        "err%",
        "model",
        "sim",
        "agree",
    ])
    .with_title("Model vs trace-driven session replay");
    for r in &report.records {
        table.row([
            r.scenario_id.clone(),
            r.shape.label().to_string(),
            format!("{:.1}", r.mean_effective_gbps),
            format!("{:.4}s", r.model_t_pct_s),
            format!("{:.4}s", r.sim_t_pct_s),
            format!("{:.3}", r.t_pct_rel_err * 100.0),
            format!("{:?}", r.model_decision),
            format!("{:?}", r.sim_decision),
            if r.agree { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table
}

/// One row per trace shape: error and agreement aggregates.
pub fn replay_summary_table(report: &ReplayReport) -> Table {
    let mut table = Table::new(["trace", "max err%", "mean err%", "agreement%"])
        .with_title("Per-shape model error across the catalog");
    for s in &report.shapes {
        table.row([
            s.shape.label().to_string(),
            format!("{:.4}", s.max_rel_err * 100.0),
            format!("{:.4}", s.mean_rel_err * 100.0),
            format!("{:.1}", s.agreement * 100.0),
        ]);
    }
    table
}

/// The replay matrix of several fidelity runs as one CSV: a `fidelity`
/// column first, then one row per (scenario, shape) cell of each run.
/// This is what `sim_validation` persists so exact and fluid records
/// land side by side in the same artifact.
pub fn replay_fidelity_csv(runs: &[(Fidelity, &ReplayReport)]) -> CsvWriter {
    let mut csv = CsvWriter::new([
        "fidelity",
        "scenario",
        "trace",
        "mean_effective_gbps",
        "model_t_pct_s",
        "sim_t_pct_s",
        "t_pct_rel_err",
        "sim_file_completion_s",
        "model_decision",
        "sim_decision",
        "agree",
    ]);
    for (fidelity, report) in runs {
        for r in &report.records {
            csv.row([
                fidelity.label().to_string(),
                r.scenario_id.clone(),
                r.shape.label().to_string(),
                format!("{}", r.mean_effective_gbps),
                format!("{}", r.model_t_pct_s),
                format!("{}", r.sim_t_pct_s),
                format!("{}", r.t_pct_rel_err),
                format!("{}", r.sim_file_completion_s),
                format!("{:?}", r.model_decision),
                format!("{:?}", r.sim_decision),
                format!("{}", r.agree),
            ]);
        }
    }
    csv
}

/// The full replay matrix as CSV: one row per (scenario, shape) cell.
pub fn replay_csv(report: &ReplayReport) -> CsvWriter {
    let mut csv = CsvWriter::new([
        "scenario",
        "trace",
        "mean_effective_gbps",
        "model_transfer_s",
        "sim_transfer_s",
        "model_t_pct_s",
        "sim_t_pct_s",
        "t_pct_rel_err",
        "sim_file_completion_s",
        "model_decision",
        "sim_decision",
        "agree",
    ]);
    for r in &report.records {
        csv.row([
            r.scenario_id.clone(),
            r.shape.label().to_string(),
            format!("{}", r.mean_effective_gbps),
            format!("{}", r.model_transfer_s),
            format!("{}", r.sim_transfer_s),
            format!("{}", r.model_t_pct_s),
            format!("{}", r.sim_t_pct_s),
            format!("{}", r.t_pct_rel_err),
            format!("{}", r.sim_file_completion_s),
            format!("{:?}", r.model_decision),
            format!("{:?}", r.sim_decision),
            format!("{}", r.agree),
        ]);
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_sim::fluid_tolerance;

    fn two_scenarios() -> Vec<Scenario> {
        vec![
            Scenario::by_id("lcls-coherent-scattering").unwrap(),
            Scenario::by_id("climate-checkpoint-stream").unwrap(), // θ = 2.5
        ]
    }

    #[test]
    fn steady_replay_matches_the_closed_form() {
        let replay = SessionReplay::bundled(ReplayConfig::quick(42)).unwrap();
        let report = replay.run(&ThreadPool::new(1));
        let steady = report.shape_summary(TraceShape::Steady).unwrap();
        assert!(
            steady.max_rel_err <= STEADY_TOLERANCE,
            "steady error {} above the documented tolerance",
            steady.max_rel_err
        );
        assert_eq!(
            steady.agreement, 1.0,
            "steady replay must reproduce every model decision"
        );
    }

    #[test]
    fn replay_covers_every_cell() {
        let config = ReplayConfig::quick(7);
        let replay = SessionReplay::new(two_scenarios(), config.clone()).unwrap();
        let report = replay.run(&ThreadPool::new(1));
        assert_eq!(report.records.len(), 2 * config.shapes.len());
        assert_eq!(report.shapes.len(), config.shapes.len());
        for r in &report.records {
            assert!(r.sim_t_pct_s > 0.0);
            assert!(r.t_pct_rel_err.is_finite());
            assert!(r.sim_file_completion_s > 0.0);
        }
    }

    #[test]
    fn parallel_and_sequential_are_bit_identical() {
        let replay = SessionReplay::new(two_scenarios(), ReplayConfig::quick(42)).unwrap();
        let par = replay.run(&ThreadPool::new(4));
        let seq = replay.run(&ThreadPool::new(1));
        assert_eq!(par, seq);
    }

    #[test]
    fn degraded_traces_never_beat_the_model() {
        // The bundled shapes only remove bandwidth, so the simulated
        // transfer is never faster than the closed form's.
        let replay = SessionReplay::bundled(ReplayConfig::quick(42)).unwrap();
        for r in replay.run(&ThreadPool::new(1)).records {
            assert!(
                r.sim_transfer_s >= r.model_transfer_s * (1.0 - 1e-9),
                "{} under {}: sim {} beat model {}",
                r.scenario_id,
                r.shape,
                r.sim_transfer_s,
                r.model_transfer_s
            );
        }
    }

    #[test]
    fn outage_inflates_error_beyond_steady() {
        let replay = SessionReplay::bundled(ReplayConfig::quick(42)).unwrap();
        let report = replay.run(&ThreadPool::new(1));
        let steady = report.shape_summary(TraceShape::Steady).unwrap();
        let outage = report.shape_summary(TraceShape::Outage).unwrap();
        assert!(
            outage.max_rel_err > steady.max_rel_err.max(0.01),
            "a 35%-of-horizon outage must visibly break the closed form \
             (outage {} vs steady {})",
            outage.max_rel_err,
            steady.max_rel_err
        );
    }

    #[test]
    fn seed_changes_only_bursty_cells() {
        let scenarios = two_scenarios();
        let a = SessionReplay::new(scenarios.clone(), ReplayConfig::quick(1))
            .unwrap()
            .run(&ThreadPool::new(1));
        let b = SessionReplay::new(scenarios, ReplayConfig::quick(2))
            .unwrap()
            .run(&ThreadPool::new(1));
        for (ra, rb) in a.records.iter().zip(&b.records) {
            if ra.shape == TraceShape::Bursty {
                continue; // dip placement is seeded and may differ
            }
            assert_eq!(
                ra, rb,
                "{}/{} should not depend on the seed",
                ra.scenario_id, ra.shape
            );
        }
    }

    #[test]
    fn tables_and_csv_cover_all_cells() {
        let replay = SessionReplay::new(two_scenarios(), ReplayConfig::quick(42)).unwrap();
        let report = replay.run(&ThreadPool::new(1));
        assert_eq!(replay_table(&report).len(), report.records.len());
        assert_eq!(replay_summary_table(&report).len(), report.shapes.len());
        let csv = replay_csv(&report);
        assert_eq!(csv.as_str().lines().count(), 1 + report.records.len());
        assert!(csv.as_str().contains("lcls-coherent-scattering"));
    }

    #[test]
    fn fidelity_csv_stacks_runs_with_a_label_column() {
        let exact = SessionReplay::new(two_scenarios(), ReplayConfig::quick(42))
            .unwrap()
            .run(&ThreadPool::new(1));
        let fluid = SessionReplay::new(
            two_scenarios(),
            ReplayConfig::quick(42).with_fidelity(Fidelity::Fluid),
        )
        .unwrap()
        .run(&ThreadPool::new(1));
        let csv = replay_fidelity_csv(&[(Fidelity::Exact, &exact), (Fidelity::Fluid, &fluid)]);
        let text = csv.as_str();
        assert_eq!(
            text.lines().count(),
            1 + exact.records.len() + fluid.records.len()
        );
        assert!(text.lines().nth(1).unwrap().starts_with("exact,"));
        assert!(text
            .lines()
            .nth(1 + exact.records.len())
            .unwrap()
            .starts_with("fluid,"));
    }

    #[test]
    fn report_serde_round_trip() {
        let replay = SessionReplay::new(two_scenarios(), ReplayConfig::quick(42)).unwrap();
        let report = replay.run(&ThreadPool::new(1));
        let json = serde_json::to_string(&report).unwrap();
        let back: ReplayReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn fluid_replay_matches_exact_within_the_exported_tolerances() {
        let exact = SessionReplay::bundled(ReplayConfig::quick(42))
            .unwrap()
            .run(&ThreadPool::new(1));
        let fluid = SessionReplay::bundled(ReplayConfig::quick(42).with_fidelity(Fidelity::Fluid))
            .unwrap()
            .run(&ThreadPool::new(1));
        assert_eq!(exact.records.len(), fluid.records.len());
        for (e, f) in exact.records.iter().zip(&fluid.records) {
            let tol = fluid_tolerance(e.shape);
            let rel = (f.sim_t_pct_s - e.sim_t_pct_s).abs() / e.sim_t_pct_s.abs().max(1e-12);
            assert!(
                rel <= tol,
                "{}/{}: fluid T_pct {} vs exact {} (rel {rel} > tol {tol})",
                e.scenario_id,
                e.shape,
                f.sim_t_pct_s,
                e.sim_t_pct_s
            );
            let file_rel = (f.sim_file_completion_s - e.sim_file_completion_s).abs()
                / e.sim_file_completion_s.abs().max(1e-12);
            assert!(
                file_rel <= 1e-9,
                "{}/{}: staged fluid {} vs exact {}",
                e.scenario_id,
                e.shape,
                f.sim_file_completion_s,
                e.sim_file_completion_s
            );
        }
    }

    #[test]
    fn fluid_replay_is_parallel_deterministic() {
        let replay =
            SessionReplay::bundled(ReplayConfig::quick(42).with_fidelity(Fidelity::Fluid)).unwrap();
        let par = replay.run(&ThreadPool::new(8));
        let seq = replay.run(&ThreadPool::new(1));
        assert_eq!(par, seq);
    }

    /// The staged column against a fresh one-cell pipeline: every
    /// record's file completion equals, bit for bit, what
    /// `run_fidelity` gives on that cell's own `EventFileBasedPipeline`,
    /// on an uneven split (1000 frames into 7 files), on two shapes out of
    /// their usual order, at both fidelities and on 1, 2 and 8 workers.
    #[test]
    fn staged_column_matches_a_fresh_pipeline_per_cell() {
        let shapes = vec![TraceShape::Outage, TraceShape::Bursty];
        for fidelity in [Fidelity::Exact, Fidelity::Fluid] {
            let config = ReplayConfig {
                frames: 1000,
                files: 7,
                shapes: shapes.clone(),
                seed: 42,
                fidelity,
            };
            let replay = SessionReplay::bundled(config.clone()).unwrap();
            let seeds = SeedSequence::new(config.seed);
            let mut oracle = Vec::new();
            for (si, scenario) in replay.scenarios().iter().enumerate() {
                for (hi, &shape) in shapes.iter().enumerate() {
                    let session = Session::new(&scenario.params);
                    let seed = seeds.seed((si * shapes.len() + hi) as u64);
                    let trace = session.trace(shape, &shape.draw(seed));
                    let stream = session.stream(config.frames, trace.clone());
                    let mut path = presets::aps_to_alcf();
                    path.wan = stream.wan;
                    let cell =
                        EventFileBasedPipeline::new(stream.source, config.files, path, trace)
                            .run_fidelity(fidelity);
                    oracle.push((scenario.id.clone(), shape, cell.completion.as_secs()));
                }
            }
            for workers in [1, 2, 8] {
                let report = replay.run(&ThreadPool::new(workers));
                assert_eq!(report.records.len(), oracle.len());
                for (r, (id, shape, want)) in report.records.iter().zip(&oracle) {
                    assert_eq!((&r.scenario_id, r.shape), (id, *shape));
                    assert_eq!(
                        r.sim_file_completion_s.to_bits(),
                        want.to_bits(),
                        "{id}/{shape} at {fidelity:?} on {workers} workers: {} vs {want}",
                        r.sim_file_completion_s
                    );
                }
            }
        }
    }

    #[test]
    fn zero_frames_rejected() {
        let mut config = ReplayConfig::quick(1);
        config.frames = 0;
        let err = SessionReplay::new(two_scenarios(), config).unwrap_err();
        assert!(err.contains("frames"), "{err}");
    }
}
