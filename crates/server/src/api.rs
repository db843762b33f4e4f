//! Wire types for the decision service: request and response bodies.
//!
//! Requests use the paper's own units (GB, TF/GB, TFLOPS, Gbps) as flat
//! JSON numbers — the same convention as [`sss_core::ScenarioSpec`] — so a
//! facility operator can POST the row of Table 3 they care about without
//! converting anything. Every request body rejects keys it does not
//! define (a misspelled field is a 400 naming it, never a silent default).
//! Responses embed the analytic types of `sss-core` (`DecisionReport`,
//! `BreakEven`, `Sensitivity`, `TierReport`) verbatim.

use serde::{Deserialize, Serialize};
use sss_core::{
    decide, Axis, BreakEven, Decision, DecisionReport, FrontierSpec, ModelParams, ParamError,
    Scenario, Sensitivity, Tier, TierReport,
};
use sss_loadgen::{
    AdmissionPolicy, FleetConfig, FleetSim, FrontierJob, ReplayConfig, SessionReplay,
};
use sss_sim::{Fidelity, TraceShape};
use sss_units::{Bytes, ComputeIntensity, FlopRate, Rate, Ratio};

fn default_theta() -> f64 {
    1.0
}

/// Body of `POST /decide`: one workload in paper units.
///
/// `theta` defaults to 1 (pure streaming, no file-I/O inflation) when the
/// field is omitted, mirroring the CLI's optional `--theta`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DecideRequest {
    /// `S_unit` in decimal gigabytes.
    pub data_gb: f64,
    /// `C` in TFLOP per GB of data.
    pub intensity_tflop_per_gb: f64,
    /// `R_local` in TFLOPS.
    pub local_tflops: f64,
    /// `R_remote` in TFLOPS.
    pub remote_tflops: f64,
    /// `Bw` in Gbps.
    pub bandwidth_gbps: f64,
    /// `α`: transfer efficiency in `(0, 1]`.
    pub alpha: f64,
    /// `θ`: file-I/O overhead coefficient (defaults to 1).
    #[serde(default = "default_theta")]
    pub theta: f64,
}

impl DecideRequest {
    /// Validate the request into typed model parameters.
    pub fn params(&self) -> Result<ModelParams, ParamError> {
        ModelParams::builder()
            .data_unit(Bytes::from_gb(self.data_gb))
            .intensity(ComputeIntensity::from_tflop_per_gb(
                self.intensity_tflop_per_gb,
            ))
            .local_rate(FlopRate::from_tflops(self.local_tflops))
            .remote_rate(FlopRate::from_tflops(self.remote_tflops))
            .bandwidth(Rate::from_gbps(self.bandwidth_gbps))
            .alpha(Ratio::new(self.alpha))
            .theta(Ratio::new(self.theta))
            .build()
    }

    /// The request that round-trips to `params` (used by the load driver
    /// and tests to build request bodies from registry scenarios).
    pub fn from_params(p: &ModelParams) -> Self {
        DecideRequest {
            data_gb: p.data_unit.as_gb(),
            intensity_tflop_per_gb: p.intensity.as_tflop_per_gb(),
            local_tflops: p.local_rate.as_tflops(),
            remote_tflops: p.remote_rate.as_tflops(),
            bandwidth_gbps: p.bandwidth.as_gbps(),
            alpha: p.alpha.value(),
            theta: p.theta.value(),
        }
    }
}

/// Body of a `200` response to `POST /decide`.
///
/// Matches the CLI's `decide` output: the verdict with its justification,
/// plus break-even boundaries and parameter sensitivities whenever the
/// stream is feasible at all (both are omitted for `Infeasible` workloads,
/// where no boundary is meaningful).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecideResponse {
    /// The verdict and the numbers that drove it.
    pub report: DecisionReport,
    /// Where the decision flips; absent for infeasible workloads.
    pub break_even: Option<BreakEven>,
    /// Elasticities of `T_pct`; absent for infeasible workloads.
    pub sensitivity: Option<Sensitivity>,
}

impl DecideResponse {
    /// Evaluate one workload. Pure: identical parameters always produce an
    /// identical response, which is what makes the decision cache sound.
    pub fn evaluate(params: &ModelParams) -> Self {
        Self::from_report(params, decide(params))
    }

    /// Wrap an already-evaluated report — the batched dispatcher decides
    /// a whole wave with `sss_core::decide_batch`, then finishes each
    /// response (break-even boundaries, sensitivities, serialization) per
    /// workload. Byte-identical to [`DecideResponse::evaluate`] for the
    /// same parameters.
    pub fn from_report(params: &ModelParams, report: DecisionReport) -> Self {
        let feasible = report.decision != Decision::Infeasible;
        DecideResponse {
            report,
            break_even: feasible.then(|| BreakEven::of(params)),
            sensitivity: feasible.then(|| Sensitivity::of(params)),
        }
    }
}

/// Body of `POST /tiers`: a workload plus the measured worst-case
/// inflation (Streaming Speed Score, Eq. 11) to bound the transfer by.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TiersRequest {
    /// The workload in paper units.
    pub workload: DecideRequest,
    /// Worst-case transfer inflation (`>= 1`, e.g. `7.5`).
    pub sss: f64,
}

/// Body of a `200` response to `POST /tiers`: the three budgeted tiers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TiersResponse {
    /// The inflation the evaluation assumed.
    pub sss: f64,
    /// One report per budgeted tier (real-time, near, quasi).
    pub tiers: Vec<TierReport>,
}

impl TiersResponse {
    /// Evaluate the workload against every budgeted tier.
    pub fn evaluate(params: &ModelParams, sss: Ratio) -> Self {
        let tiers = [Tier::RealTime, Tier::NearRealTime, Tier::QuasiRealTime]
            .iter()
            .filter_map(|t| TierReport::evaluate(params, sss, *t))
            .collect();
        TiersResponse {
            sss: sss.value(),
            tiers,
        }
    }
}

/// One catalog entry in the `GET /scenarios` response: the registered
/// scenario together with its analytic verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioEntry {
    /// The registered scenario (identity, provenance, parameters, tier).
    pub scenario: Scenario,
    /// The decision the model reaches for it.
    pub decision: DecisionReport,
}

/// Body of a `200` response to `GET /scenarios`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenariosResponse {
    /// Number of registered scenarios.
    pub count: usize,
    /// The catalog, in registry order.
    pub scenarios: Vec<ScenarioEntry>,
}

impl ScenariosResponse {
    /// Evaluate the bundled registry (computed once at server start).
    pub fn bundled() -> Self {
        let scenarios: Vec<ScenarioEntry> = Scenario::all()
            .into_iter()
            .map(|scenario| {
                let decision = decide(&scenario.params);
                ScenarioEntry { scenario, decision }
            })
            .collect();
        ScenariosResponse {
            count: scenarios.len(),
            scenarios,
        }
    }
}

fn default_resolution() -> usize {
    16
}

fn default_tolerance() -> f64 {
    1e-3
}

fn default_slices() -> usize {
    3
}

/// Body of `POST /frontier`: a base workload plus the axes to map the
/// break-even boundary over.
///
/// Axes use the CLI's compact `name:lo:hi[:log]` notation (e.g.
/// `"wan_gbps:1:400"`, `"data_tb:0.1:100:log"`). The response is the
/// serialized [`sss_core::FrontierMap`] — byte-identical to what the CLI
/// and the sequential reference produce for the same query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FrontierRequest {
    /// The base operating point, in paper units.
    pub workload: DecideRequest,
    /// X axis spec.
    pub x: String,
    /// Y axis spec.
    pub y: String,
    /// Optional slicing axis spec.
    #[serde(default)]
    pub z: Option<String>,
    /// Coarse-grid samples per primary axis (default 16, max
    /// [`FrontierRequest::MAX_RESOLUTION`]).
    #[serde(default = "default_resolution")]
    pub resolution: usize,
    /// Boundary tolerance as a fraction of each axis span (default 1e-3).
    #[serde(default = "default_tolerance")]
    pub tolerance: f64,
    /// Z slices when `z` is given (default 3, max
    /// [`FrontierRequest::MAX_SLICES`]).
    #[serde(default = "default_slices")]
    pub slices: usize,
}

impl FrontierRequest {
    /// Largest grid the service computes per request.
    pub const MAX_RESOLUTION: usize = 128;
    /// Most z slices the service computes per request.
    pub const MAX_SLICES: usize = 8;

    /// Validate the request into a runnable frontier job.
    pub fn job(&self) -> Result<FrontierJob, String> {
        let params = self.workload.params().map_err(|e| e.to_string())?;
        if self.resolution > Self::MAX_RESOLUTION {
            return Err(format!(
                "resolution {} exceeds the service cap of {}",
                self.resolution,
                Self::MAX_RESOLUTION
            ));
        }
        if self.slices > Self::MAX_SLICES {
            return Err(format!(
                "slices {} exceeds the service cap of {}",
                self.slices,
                Self::MAX_SLICES
            ));
        }
        let mut spec = FrontierSpec::new(Axis::parse(&self.x)?, Axis::parse(&self.y)?);
        spec.z = self.z.as_deref().map(Axis::parse).transpose()?;
        spec.resolution = self.resolution;
        spec.tolerance = self.tolerance;
        spec.slices = self.slices;
        FrontierJob::new(params, spec)
    }
}

fn default_shapes() -> Vec<String> {
    TraceShape::ALL.iter().map(|s| s.label().into()).collect()
}

fn default_frames() -> u32 {
    64
}

fn default_files() -> u32 {
    16
}

fn default_seed() -> u64 {
    42
}

fn default_fidelity() -> String {
    "exact".into()
}

/// Body of `POST /simulate`: a workload plus the WAN trace shapes to
/// replay it under through the event-driven simulator.
///
/// The response is the serialized
/// [`sss_loadgen::ReplayReport`] — per-trace simulated completion,
/// relative error against the closed-form model, and decision agreement;
/// byte-identical to what `stream-score simulate` computes for the same
/// workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SimulateRequest {
    /// The workload in paper units.
    pub workload: DecideRequest,
    /// Trace-shape labels (default: all four bundled shapes).
    #[serde(default = "default_shapes")]
    pub shapes: Vec<String>,
    /// Frames the data unit is split into (default 64, max
    /// [`SimulateRequest::MAX_FRAMES`]).
    #[serde(default = "default_frames")]
    pub frames: u32,
    /// File count for the staged-replay column (default 16).
    #[serde(default = "default_files")]
    pub files: u32,
    /// Seed for the `bursty` shape's dip placement (default 42).
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Movement integrator: `"exact"` (per-frame recurrences, the
    /// default) or `"fluid"` (closed-form piecewise-constant rate
    /// integration).
    #[serde(default = "default_fidelity")]
    pub fidelity: String,
}

impl SimulateRequest {
    /// Largest per-request frame split the service simulates.
    pub const MAX_FRAMES: u32 = 4096;

    /// Validate the request into a runnable replay.
    pub fn replay(&self) -> Result<SessionReplay, String> {
        let params = self.workload.params().map_err(|e| e.to_string())?;
        if self.frames > Self::MAX_FRAMES {
            return Err(format!(
                "frames {} exceeds the service cap of {}",
                self.frames,
                Self::MAX_FRAMES
            ));
        }
        let shapes = self
            .shapes
            .iter()
            .map(|s| TraceShape::parse(s))
            .collect::<Result<Vec<TraceShape>, String>>()?;
        let config = ReplayConfig {
            frames: self.frames,
            files: self.files,
            shapes,
            seed: self.seed,
            fidelity: Fidelity::parse(&self.fidelity)?,
        };
        let scenario = Scenario {
            id: "workload".into(),
            name: "POST /simulate workload".into(),
            provenance: "request body".into(),
            params,
            tier: Tier::NearRealTime,
        };
        SessionReplay::new(vec![scenario], config)
    }
}

fn default_fleet_sessions() -> u32 {
    26
}

fn default_fleet_load() -> f64 {
    4.0
}

fn default_fleet_shape() -> String {
    "steady".into()
}

fn default_fleet_policy() -> String {
    "fifo".into()
}

fn default_fleet_slots() -> u32 {
    4
}

fn default_fleet_wan_gbps() -> f64 {
    100.0
}

fn default_fleet_frames() -> u32 {
    16
}

fn default_fleet_fidelity() -> String {
    "fluid".into()
}

/// Body of `POST /fleet`: a multi-tenant fleet drawn from the bundled
/// scenario catalog, replayed under WAN sharing and DTN slot contention.
///
/// The response is the serialized [`sss_loadgen::FleetReport`] —
/// per-session contended completions, per-scenario mispredict rates and
/// the slowdown distribution; byte-identical to what `stream-score fleet`
/// computes for the same knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetRequest {
    /// Sessions drawn from the catalog (default 26; the service rejects
    /// requests above its configured cap, which defaults to
    /// [`FleetRequest::DEFAULT_SESSION_CAP`]).
    #[serde(default = "default_fleet_sessions")]
    pub sessions: u32,
    /// Offered load in Erlangs (default 4).
    #[serde(default = "default_fleet_load")]
    pub load: f64,
    /// Trace-shape label for every session's private path (default
    /// `"steady"`).
    #[serde(default = "default_fleet_shape")]
    pub shape: String,
    /// Admission-policy label: `"fifo"`, `"fair-share"` or `"priority"`
    /// (default `"fifo"`).
    #[serde(default = "default_fleet_policy")]
    pub policy: String,
    /// Concurrent DTN transfer slots (default 4).
    #[serde(default = "default_fleet_slots")]
    pub slots: u32,
    /// Shared WAN backbone capacity in Gbps (default 100).
    #[serde(default = "default_fleet_wan_gbps")]
    pub wan_gbps: f64,
    /// Frames per session for the movement pipeline (default 16).
    #[serde(default = "default_fleet_frames")]
    pub frames: u32,
    /// Master seed (default 42).
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Movement integrator label (default `"fluid"`).
    #[serde(default = "default_fleet_fidelity")]
    pub fidelity: String,
}

impl Default for FleetRequest {
    fn default() -> Self {
        FleetRequest {
            sessions: default_fleet_sessions(),
            load: default_fleet_load(),
            shape: default_fleet_shape(),
            policy: default_fleet_policy(),
            slots: default_fleet_slots(),
            wan_gbps: default_fleet_wan_gbps(),
            frames: default_fleet_frames(),
            seed: default_seed(),
            fidelity: default_fleet_fidelity(),
        }
    }
}

impl FleetRequest {
    /// Default service cap on per-request fleet size — well under the
    /// library's own bound, because each session costs a pipeline
    /// replay. Deployments size the actual limit via
    /// `ServerConfig::fleet_session_cap`.
    pub const DEFAULT_SESSION_CAP: u32 = 512;

    /// Validate the request into a runnable fleet, holding it to the
    /// service's configured session cap.
    pub fn fleet(&self, session_cap: u32) -> Result<FleetSim, String> {
        if self.sessions > session_cap {
            return Err(format!(
                "sessions {} exceeds the service cap of {session_cap}",
                self.sessions,
            ));
        }
        if !(self.wan_gbps.is_finite() && self.wan_gbps > 0.0) {
            return Err(format!(
                "wan_gbps must be positive and finite, got {}",
                self.wan_gbps
            ));
        }
        let config = FleetConfig {
            sessions: self.sessions,
            load: self.load,
            shape: TraceShape::parse(&self.shape)?,
            policy: AdmissionPolicy::parse(&self.policy)?,
            slots: self.slots,
            wan: Rate::from_gbps(self.wan_gbps),
            frames: self.frames,
            seed: self.seed,
            fidelity: Fidelity::parse(&self.fidelity)?,
        };
        FleetSim::bundled(config)
    }
}

/// Body of every non-`200` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// What went wrong, suitable for showing to the caller.
    pub error: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table3() -> DecideRequest {
        DecideRequest {
            data_gb: 2.0,
            intensity_tflop_per_gb: 17.0,
            local_tflops: 10.0,
            remote_tflops: 340.0,
            bandwidth_gbps: 25.0,
            alpha: 0.8,
            theta: 1.0,
        }
    }

    #[test]
    fn request_roundtrips_to_params() {
        let req = table3();
        let params = req.params().unwrap();
        assert_eq!(DecideRequest::from_params(&params), req);
    }

    #[test]
    fn theta_defaults_to_one() {
        let req: DecideRequest = serde_json::from_str(
            r#"{"data_gb":2.0,"intensity_tflop_per_gb":17.0,"local_tflops":10.0,
                "remote_tflops":340.0,"bandwidth_gbps":25.0,"alpha":0.8}"#,
        )
        .unwrap();
        assert_eq!(req.theta, 1.0);
    }

    #[test]
    fn invalid_alpha_rejected() {
        let mut req = table3();
        req.alpha = 1.5;
        assert_eq!(req.params().unwrap_err().parameter, "alpha");
    }

    #[test]
    fn feasible_response_has_boundaries() {
        let resp = DecideResponse::evaluate(&table3().params().unwrap());
        assert_eq!(resp.report.decision, Decision::RemoteStream);
        assert!(resp.break_even.is_some());
        assert!(resp.sensitivity.is_some());
    }

    #[test]
    fn infeasible_response_omits_boundaries() {
        let mut req = table3();
        req.data_gb = 4.0; // 32 Gbps demanded on a 25 Gbps link
        req.alpha = 1.0;
        let resp = DecideResponse::evaluate(&req.params().unwrap());
        assert_eq!(resp.report.decision, Decision::Infeasible);
        assert!(resp.break_even.is_none());
        assert!(resp.sensitivity.is_none());
    }

    #[test]
    fn tiers_cover_three_budgets() {
        let params = table3().params().unwrap();
        let resp = TiersResponse::evaluate(&params, Ratio::new(7.5));
        assert_eq!(resp.tiers.len(), 3);
        assert_eq!(resp.tiers[0].tier, Tier::RealTime);
    }

    #[test]
    fn scenarios_match_registry() {
        let resp = ScenariosResponse::bundled();
        assert_eq!(resp.count, Scenario::all().len());
        assert!(resp
            .scenarios
            .iter()
            .any(|e| e.scenario.id == "lcls-coherent-scattering"));
    }

    #[test]
    fn frontier_request_defaults_and_caps() {
        let req: FrontierRequest = serde_json::from_str(&format!(
            r#"{{"workload":{},"x":"wan_gbps:1:400","y":"data_tb:0.1:100"}}"#,
            serde_json::to_string(&table3()).unwrap()
        ))
        .unwrap();
        assert_eq!(req.resolution, 16);
        assert_eq!(req.tolerance, 1e-3);
        let job = req.job().unwrap();
        assert_eq!(job.spec().resolution, 16);

        let mut oversized = req.clone();
        oversized.resolution = 4096;
        assert!(oversized.job().unwrap_err().contains("cap"), "capped");

        let mut bad_axis = req;
        bad_axis.x = "frobs:1:2".into();
        assert!(bad_axis.job().unwrap_err().contains("unknown axis"));
    }

    #[test]
    fn decide_response_serde_roundtrip() {
        let resp = DecideResponse::evaluate(&table3().params().unwrap());
        let json = serde_json::to_string(&resp).unwrap();
        let back: DecideResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);
    }
}
