//! Multi-tenant **fleet** simulation: the catalog's sessions replayed
//! under contention instead of one at a time on an idle WAN.
//!
//! [`SessionReplay`](crate::SessionReplay) answers "how wrong is the
//! closed form about *one* session on a traced network?". A shared
//! facility never runs one session: overlapping campaigns split the WAN
//! and queue for DTN transfer slots, so the idle-WAN decision can be
//! wrong in a way no single-session replay reveals. [`FleetSim`] models
//! exactly that:
//!
//! * **Arrivals** — `sessions` sessions drawn from the scenario list with
//!   seeded Poisson arrivals. The offered load `ℓ` (in Erlangs: the
//!   target mean number of concurrent movements) sets the arrival rate
//!   `λ = ℓ / E[solo movement]`; inter-arrival gaps are `Exp(λ)` samples
//!   from a position-derived SplitMix64 stream ([`SeedSequence`], the
//!   same scheme as the frontier's α-jitter), so parallel and sequential
//!   runs — and repeated runs at the same seed — are byte-identical.
//!   Scenario assignment is a seeded block shuffle: every consecutive
//!   block of `catalog` arrivals covers each scenario exactly once, in a
//!   per-block Fisher–Yates order.
//! * **DTN slot queue** — at most [`FleetConfig::slots`] sessions move
//!   concurrently. Waiting sessions are admitted by the configured
//!   [`AdmissionPolicy`]: FIFO (arrival order), fair-share (the scenario
//!   with the fewest admissions so far goes first), or priority (lowest
//!   latency [`Tier`] first).
//! * **WAN sharing** — each admitted session's private path is its solo
//!   replay trace (the scenario's `α·Bw/θ` base reshaped by the cell's
//!   [`TraceShape`], as `SessionReplay` builds it), held only from its
//!   admission to its drain; all concurrent raw demands then share a
//!   backbone of capacity [`FleetConfig::wan`] by max-min fair
//!   water-filling ([`WaterFiller`], re-levelled incrementally at each
//!   event). A session never clipped below its solo rate
//!   experiences *literally* the single-session replay: the replay's own
//!   session helper rebuilds its trace from the same seed and builds its
//!   [`EventStreamingPipeline`](sss_iosim::EventStreamingPipeline), which
//!   is what makes a fleet of one bit-identical to [`SessionReplay`].
//! * **Fidelity** — the allocation integrator is fluid (event-driven,
//!   analytic between rate changes); each session's *reported* movement
//!   then replays its granted piecewise-constant allocation through the
//!   movement pipeline at [`FleetConfig::fidelity`], so `Fidelity::Exact`
//!   provides independent per-frame spot-checks of the fluid numbers via
//!   the same differential harness the single-session replay uses.
//!
//! The verdict layer comes from `sss-core`'s contention module: each
//! session's realized `T_pct` (queue wait + contended movement + remote
//! compute) is re-judged by [`contended_decision`], a **mispredict**
//! being an idle-WAN `RemoteStream` verdict that contention pushed past
//! `T_local`. [`FleetReport`] aggregates per-scenario mispredict rates
//! and the slowdown distribution (P50/P90/P99 via `sss-stats`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};

use sss_core::{
    contended_decision, decide_batch, CompletionModel, ContentionSummary, Decision, DecisionReport,
    Scenario, Tier,
};
use sss_exec::{SeedSequence, ThreadPool};
use sss_netsim::{WaterFiller, WaterFlowId};
use sss_report::{CsvWriter, Table};
use sss_sim::{BandwidthTrace, EventQueue, Fidelity, Seconds, TraceShape};
use sss_stats::Ecdf;
use sss_units::Rate;

use crate::replay::Session;

/// Who gets the next free DTN slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdmissionPolicy {
    /// Earliest arrival first.
    Fifo,
    /// The waiting session whose scenario has the fewest admissions so
    /// far goes first (ties broken by arrival order) — no tenant starves.
    FairShare,
    /// Lowest latency tier first (real-time before near-real-time before
    /// quasi-real-time), ties broken by arrival order.
    Priority,
}

impl AdmissionPolicy {
    /// Every policy, in reporting order.
    pub const ALL: [AdmissionPolicy; 3] = [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::FairShare,
        AdmissionPolicy::Priority,
    ];

    /// The policy's lowercase label (also the CLI/HTTP spelling).
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Fifo => "fifo",
            AdmissionPolicy::FairShare => "fair-share",
            AdmissionPolicy::Priority => "priority",
        }
    }

    /// Parse a lowercase label back into a policy (`"fair"` is accepted
    /// as shorthand for `"fair-share"`).
    pub fn parse(s: &str) -> Result<AdmissionPolicy, String> {
        match s {
            "fifo" => Ok(AdmissionPolicy::Fifo),
            "fair-share" | "fair" => Ok(AdmissionPolicy::FairShare),
            "priority" => Ok(AdmissionPolicy::Priority),
            other => Err(format!(
                "unknown admission policy {other:?}; known policies: fifo, fair-share, priority"
            )),
        }
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// Serialized as the lowercase label so the wire form, the CLI `--policy`
// vocabulary and the CSV column all share one spelling.
impl Serialize for AdmissionPolicy {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

impl Deserialize for AdmissionPolicy {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => AdmissionPolicy::parse(s).map_err(serde::Error::custom),
            other => Err(serde::Error::custom(format!(
                "expected an admission-policy string, got {other:?}"
            ))),
        }
    }
}

/// How the fleet exercises the scenario mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Sessions drawn from the catalog (arrivals). A zero offered load
    /// yields no arrivals regardless of this count.
    pub sessions: u32,
    /// Offered load in Erlangs: the target mean number of concurrent
    /// movements an unbounded facility would sustain.
    pub load: f64,
    /// The WAN trace shape every session's private path experiences.
    pub shape: TraceShape,
    /// Who gets the next free DTN slot.
    pub policy: AdmissionPolicy,
    /// Concurrent DTN transfer slots (admitted sessions moving at once).
    pub slots: u32,
    /// Shared WAN backbone capacity the admitted raw demands are
    /// max-min-fair squeezed through.
    pub wan: Rate,
    /// Frames each session's data unit is split into for the movement
    /// pipeline (the single-session replay's knob).
    pub frames: u32,
    /// Master seed; arrival gaps, scenario shuffles and per-session trace
    /// seeds all derive from it by position.
    pub seed: u64,
    /// Movement integrator for the reported per-session completions.
    pub fidelity: Fidelity,
}

impl FleetConfig {
    /// The standard fleet cell: 52 sessions (4 full catalog blocks) at
    /// load 4 through 4 DTN slots and a 100 Gbps backbone.
    pub fn standard(seed: u64) -> Self {
        FleetConfig {
            sessions: 52,
            load: 4.0,
            shape: TraceShape::Steady,
            policy: AdmissionPolicy::Fifo,
            slots: 4,
            wan: Rate::from_gbps(100.0),
            frames: 16,
            seed,
            fidelity: Fidelity::Fluid,
        }
    }

    /// Fast settings for interactive use, tests and `SSS_QUICK` runs.
    pub fn quick(seed: u64) -> Self {
        FleetConfig {
            sessions: 26,
            ..Self::standard(seed)
        }
    }

    /// The same configuration with a different movement [`Fidelity`].
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// The same configuration with a different trace shape.
    pub fn with_shape(mut self, shape: TraceShape) -> Self {
        self.shape = shape;
        self
    }

    /// The same configuration with a different admission policy.
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The same configuration with a different offered load.
    pub fn with_load(mut self, load: f64) -> Self {
        self.load = load;
        self
    }

    /// Validate the knobs the engine would otherwise panic on.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.load.is_finite() && self.load >= 0.0) {
            return Err(format!(
                "offered load must be finite and >= 0, got {}",
                self.load
            ));
        }
        if self.sessions > 10_000 {
            return Err(format!(
                "sessions {} exceeds the fleet cap of 10000",
                self.sessions
            ));
        }
        if self.slots == 0 || self.slots > 4_096 {
            return Err(format!("need 1 <= slots <= 4096, got {}", self.slots));
        }
        let wan = self.wan.as_bytes_per_sec();
        if !(wan.is_finite() && wan > 0.0) {
            return Err(format!(
                "the shared WAN capacity must be positive and finite, got {}",
                self.wan
            ));
        }
        if self.frames == 0 || self.frames > 65_536 {
            return Err(format!(
                "frames {} outside the replay range 1..=65536",
                self.frames
            ));
        }
        Ok(())
    }
}

/// One session's fleet outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRecord {
    /// Arrival index (0-based).
    pub session: u32,
    /// The scenario this session ran.
    pub scenario_id: String,
    /// Poisson arrival instant, seconds.
    pub arrival_s: f64,
    /// Time spent queued for a DTN slot, seconds.
    pub wait_s: f64,
    /// Contended movement time (admission → last byte), seconds, at the
    /// configured fidelity.
    pub movement_s: f64,
    /// Absolute completion of the whole remote path: arrival + wait +
    /// movement + remote compute, seconds.
    pub completion_s: f64,
    /// Whether contention touched this session at all (queued, or
    /// clipped below its solo rate at any instant).
    pub contended: bool,
    /// The idle-WAN closed form's `T_pct`, seconds.
    pub model_t_pct_s: f64,
    /// Realized `T_pct`: wait + movement + remote compute, seconds.
    pub realized_t_pct_s: f64,
    /// `realized / model` on `T_pct` (≥ 1 up to integrator tolerance).
    pub slowdown: f64,
    /// The idle-WAN verdict.
    pub model_decision: Decision,
    /// The verdict re-judged with the realized `T_pct`.
    pub realized_decision: Decision,
    /// Whether contention flipped the verdict.
    pub mispredict: bool,
}

/// One scenario's contention aggregates within a fleet cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioContention {
    /// The scenario summarized.
    pub scenario_id: String,
    /// Mispredict and slowdown aggregates over its sessions.
    pub summary: ContentionSummary,
}

/// Everything one fleet cell (load × shape × policy) learned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Offered load of the cell, Erlangs.
    pub load: f64,
    /// Trace shape of every session's private path.
    pub shape: TraceShape,
    /// Admission policy of the DTN slot queue.
    pub policy: AdmissionPolicy,
    /// DTN slots.
    pub slots: u32,
    /// Shared backbone capacity, Gbps.
    pub wan_gbps: f64,
    /// One record per session, in arrival order.
    pub records: Vec<FleetRecord>,
    /// Per-scenario aggregates (scenarios with at least one session),
    /// in catalog order.
    pub scenarios: Vec<ScenarioContention>,
    /// Whole-cell mispredict/slowdown aggregates.
    pub overall: ContentionSummary,
    /// Median slowdown.
    pub slowdown_p50: f64,
    /// 90th-percentile slowdown.
    pub slowdown_p90: f64,
    /// 99th-percentile slowdown.
    pub slowdown_p99: f64,
    /// When the last session's remote path completed, seconds (0 for an
    /// empty fleet).
    pub makespan_s: f64,
    /// Largest number of concurrently admitted sessions observed —
    /// bounded by [`FleetConfig::slots`] by construction.
    pub peak_active: u32,
    /// Allocation-integrator events processed: arrivals, admissions,
    /// drains, trace breakpoints of sessions not held at a floor cap,
    /// floor-window ends, and wakes of floored sessions the level rose
    /// to. The breakpoints a floored session passes inside its window
    /// are never scheduled, so they are not counted. The denominator of
    /// the scaling bench's events/sec.
    #[serde(default)]
    pub events: u64,
}

/// A scenario mix plus the fleet configuration to run it under.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSim {
    scenarios: Vec<Scenario>,
    config: FleetConfig,
}

/// One planned arrival.
struct Planned {
    scenario_idx: usize,
    arrival_s: f64,
    trace_seed: u64,
}

/// A session's state through the allocation integrator.
struct SessionState {
    scenario_idx: usize,
    arrival_s: f64,
    session: Session,
    /// Seed of the solo trace. `session.trace(shape, trace_seed)` is a
    /// pure function, so admission and `finalize` build the same bits.
    trace_seed: u64,
    /// The solo trace, held only from admission to drain: the traces
    /// alive at any instant are bounded by the slots, not the sessions.
    trace: Option<BandwidthTrace>,
    start_s: f64,
    /// Elapsed time since admission — the session's private trace clock.
    /// Kept directly (and snapped onto breakpoints verbatim) instead of
    /// re-derived as `t - start_s`, whose rounding could land just below
    /// a breakpoint and stall the integrator there.
    rel_s: f64,
    wait_s: f64,
    remaining: f64,
    clipped: bool,
    /// Granted allocation as `(seconds since admission, deflated rate)`
    /// pieces — the session's contention-adjusted trace.
    pieces: Vec<(f64, f64)>,
    done: bool,
}

impl SessionState {
    /// Admit the session at `t`: start its trace clock, record its wait
    /// and build its solo trace, which it returns.
    fn admit(&mut self, t: f64, shape: TraceShape) -> &BandwidthTrace {
        self.start_s = t;
        self.wait_s = t - self.arrival_s;
        if self.wait_s > 0.0 {
            self.clipped = true;
        }
        self.rel_s = 0.0;
        self.trace
            .insert(self.session.trace(shape, self.trace_seed))
    }

    /// The session ran dry: mark it done and free its trace.
    fn drain(&mut self) {
        self.remaining = 0.0;
        self.done = true;
        self.trace = None;
    }
}

/// Append an allocation piece, merging bit-equal consecutive rates so an
/// unclipped session's pieces reproduce its solo trace segments exactly.
fn push_piece(pieces: &mut Vec<(f64, f64)>, rel_t: f64, rate: f64) {
    if let Some(last) = pieces.last_mut() {
        if rel_t <= last.0 {
            // A zero-length segment: the later rate wins.
            last.1 = rate;
            return;
        }
        if rate.to_bits() == last.1.to_bits() {
            return;
        }
    }
    pieces.push((rel_t, rate));
}

/// A uniform in (0, 1) from 53 high bits of a SplitMix64 output.
fn unit_uniform(bits: u64) -> f64 {
    ((bits >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// Seeded Fisher–Yates permutation of `0..n`.
fn block_permutation(n: usize, seq: SeedSequence) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for j in (1..n).rev() {
        let pick = (seq.seed(j as u64) % (j as u64 + 1)) as usize;
        order.swap(j, pick);
    }
    order
}

/// Admission rank of a latency tier: lower moves first under
/// [`AdmissionPolicy::Priority`].
fn tier_rank(tier: Tier) -> u8 {
    match tier {
        Tier::RealTime => 0,
        Tier::NearRealTime => 1,
        Tier::QuasiRealTime => 2,
        Tier::Offline => 3,
    }
}

/// The DTN slot queue, policy-specialized so an admission is O(log n)
/// (or O(catalog) for fair-share) instead of an O(n) scan plus
/// `Vec::remove` shift. Each variant pops exactly the session the
/// test-only reference scan (`pick`) would select — a differential test
/// holds the two to the same order under every policy.
enum AdmissionQueue {
    /// Arrival order: push back, pop front.
    Fifo(VecDeque<usize>),
    /// One FIFO lane per scenario; a pop takes the head of the
    /// least-admitted scenario, earliest arrival breaking ties.
    FairShare(Vec<VecDeque<usize>>),
    /// Min-heap on (tier rank, arrival index).
    Priority(BinaryHeap<Reverse<(u8, usize)>>),
}

impl AdmissionQueue {
    fn new(policy: AdmissionPolicy, catalog: usize) -> Self {
        match policy {
            AdmissionPolicy::Fifo => AdmissionQueue::Fifo(VecDeque::new()),
            AdmissionPolicy::FairShare => AdmissionQueue::FairShare(vec![VecDeque::new(); catalog]),
            AdmissionPolicy::Priority => AdmissionQueue::Priority(BinaryHeap::new()),
        }
    }

    /// Enqueue a waiting session. Sessions are pushed in arrival order,
    /// so within any lane the session index doubles as the arrival key.
    fn push(&mut self, session: usize, scenario_idx: usize, rank: u8) {
        match self {
            AdmissionQueue::Fifo(q) => q.push_back(session),
            AdmissionQueue::FairShare(lanes) => lanes[scenario_idx].push_back(session),
            AdmissionQueue::Priority(heap) => heap.push(Reverse((rank, session))),
        }
    }

    /// The next admission under the policy, given per-scenario admission
    /// counts so far.
    fn pop(&mut self, admitted: &[usize]) -> Option<usize> {
        match self {
            AdmissionQueue::Fifo(q) => q.pop_front(),
            AdmissionQueue::FairShare(lanes) => {
                // (admitted count, head arrival) lexicographic minimum —
                // the earliest-arrived head among least-admitted
                // scenarios, which is the session the reference scan's
                // strictly-less comparison lands on.
                let mut best: Option<(usize, usize, usize)> = None;
                for (s, lane) in lanes.iter().enumerate() {
                    let Some(&head) = lane.front() else { continue };
                    match best {
                        Some((c, h, _)) if (c, h) <= (admitted[s], head) => {}
                        _ => best = Some((admitted[s], head, s)),
                    }
                }
                lanes[best?.2].pop_front()
            }
            AdmissionQueue::Priority(heap) => heap.pop().map(|Reverse((_, i))| i),
        }
    }
}

/// The arrival lane: [`FleetSim::plan`] emits arrivals in time order, so
/// they need no calendar heap. The integrator merges this cursor in front
/// of the calendar and takes arrivals first at a tie, the order their low
/// sequence numbers gave them as calendar entries. Like dslab's ordered
/// events, the lane panics if the plan steps back in time.
struct ArrivalLane<'p> {
    plan: &'p [Planned],
    next: usize,
}

impl ArrivalLane<'_> {
    /// The next arrival's instant.
    fn peek(&self) -> Option<Seconds> {
        self.plan.get(self.next).map(|p| Seconds::new(p.arrival_s))
    }

    /// Take the next arrival, a session index, if it falls at `now`.
    fn pop_at(&mut self, now: Seconds) -> Option<usize> {
        if self.peek() != Some(now) {
            return None;
        }
        let i = self.next;
        self.next += 1;
        if let Some(after) = self.plan.get(self.next) {
            assert!(
                after.arrival_s >= self.plan[i].arrival_s,
                "arrival lane out of order: session {} arrives at {}s, before session {i} at {}s",
                self.next,
                after.arrival_s,
                self.plan[i].arrival_s
            );
        }
        Some(i)
    }
}

/// A calendar entry for the incremental engine. Arrivals are not among
/// them: they come in time order on the [`ArrivalLane`].
enum FleetEvent {
    /// An admitted session's trace clock reaches `Lane::next_break`: the
    /// next segment switch, or the end of its floor window. Carries the
    /// breakpoint generation it was scheduled under; holding the session
    /// at a floor or waking it bumps the generation, which orphans the
    /// pending entry, as does the session draining (the `done` flag).
    Breakpoint(usize, u64),
    /// An unclipped session runs dry at its solo rate; stale once the
    /// session's epoch moved past the recorded one.
    Drain(usize, u64),
}

/// Per-session scratch for the incremental engine, indexed like the
/// `SessionState` vector.
struct Lane {
    /// The session's live flow in the water-filler (admitted, not done).
    flow: Option<WaterFlowId>,
    /// Whether the flow sat above the water level at the last resolution.
    clipped: bool,
    /// Whether the flow is held at a floor cap: clipped, with its demand
    /// registered as the smallest one it has before `next_break`, and no
    /// calendar entry for the segment switches in between.
    floored: bool,
    /// Solo rate of the trace segment last looked up — the deflated
    /// grant while unclipped; the WAN demand is `theta` times this.
    /// Stale while floored.
    solo: f64,
    /// Trace time of the pending breakpoint entry: the next segment
    /// switch, or the end of the floor window while floored.
    next_break: Option<f64>,
    /// Generation of the live breakpoint entry.
    break_gen: u64,
    /// Wall-clock instant the anchors below were last materialized.
    t_anchor: f64,
    /// Deflated bytes remaining at the anchor (governs unclipped drains).
    rem_anchor: f64,
    /// Drain key in water-volume space: with `v(t) = ∫ level dt`, a
    /// continuously-clipped session drains when `v` reaches
    /// `d = v(t₀) + θ·rem(t₀)`, a constant — so the drain heap never
    /// re-sorts while the level moves.
    d_key: f64,
    /// Bumped on every state transition; drain entries (calendar and
    /// heap) carry the epoch they were scheduled under and are dropped
    /// when stale.
    epoch: u64,
}

/// Remove `i` from the clipped-set (swap-remove with position fix-up);
/// no-op when absent.
fn leave_clipped(set: &mut Vec<usize>, pos: &mut [usize], i: usize) {
    let p = pos[i];
    if p == usize::MAX {
        return;
    }
    set.swap_remove(p);
    if p < set.len() {
        pos[set[p]] = p;
    }
    pos[i] = usize::MAX;
}

/// How often the integrator held a session at a floor cap, woke a
/// floored session because the level rose to its floor, and let a floor
/// window run to its end. Only the tests read these: they prove that a
/// differential run took every floor path.
#[derive(Debug, Default, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
struct FloorCounts {
    floors: u64,
    wakes: u64,
    expiries: u64,
}

/// What one pass of the allocation integrator produced.
struct Integration {
    /// Every session's state, advanced to completion; none holds a trace.
    states: Vec<SessionState>,
    /// Largest number of concurrently admitted sessions.
    peak_active: u32,
    /// Events processed, as [`FleetReport::events`] counts them.
    events: u64,
    #[cfg_attr(not(test), allow(dead_code))]
    floor_counts: FloorCounts,
}

impl FleetSim {
    /// A fleet over an explicit scenario mix.
    ///
    /// # Errors
    /// Fails on an invalid [`FleetConfig`] or an empty scenario list —
    /// `/fleet` turns this into a 400 instead of panicking the
    /// connection.
    pub fn new(scenarios: Vec<Scenario>, config: FleetConfig) -> Result<Self, String> {
        config.validate()?;
        if scenarios.is_empty() {
            return Err("a fleet needs at least one scenario in the mix".into());
        }
        Ok(FleetSim { scenarios, config })
    }

    /// A fleet drawing from every scenario in [`Scenario::registry`].
    ///
    /// # Errors
    /// Fails on an invalid [`FleetConfig`].
    pub fn bundled(config: FleetConfig) -> Result<Self, String> {
        Self::new(Scenario::all(), config)
    }

    /// The scenario mix sessions are drawn from.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Seeded Poisson arrival plan: exponential gaps at
    /// `λ = load / E[solo movement]`, scenarios assigned by seeded block
    /// shuffle, per-session trace seeds position-derived so session `k`'s
    /// trace seed equals the single-session replay's cell-`k` seed.
    fn plan(&self) -> Vec<Planned> {
        if self.config.load <= 0.0 || self.config.sessions == 0 {
            return Vec::new();
        }
        let catalog_n = self.scenarios.len();
        let mean_movement: f64 = self
            .scenarios
            .iter()
            .map(|s| Session::new(&s.params).horizon)
            .sum::<f64>()
            / catalog_n as f64;
        let lambda = self.config.load / mean_movement;

        let trace_seeds = SeedSequence::new(self.config.seed);
        let gap_stream = SeedSequence::new(self.config.seed).child(1);
        let shuffle_root = SeedSequence::new(self.config.seed).child(2);

        let mut planned = Vec::with_capacity(self.config.sessions as usize);
        let mut t = 0.0f64;
        let mut order = Vec::new();
        for k in 0..self.config.sessions as usize {
            if k % catalog_n == 0 {
                order = block_permutation(catalog_n, shuffle_root.child((k / catalog_n) as u64));
            }
            let u = unit_uniform(gap_stream.seed(k as u64));
            t += -u.ln() / lambda;
            planned.push(Planned {
                scenario_idx: order[k % catalog_n],
                arrival_s: t,
                trace_seed: trace_seeds.seed(k as u64),
            });
        }
        planned
    }

    /// Fresh per-session integrator state for a planned arrival schedule
    /// — shared verbatim with the test-only reference integrator so both
    /// start from identical trace seeds, clocks and byte counts. No trace
    /// is built here: [`SessionState::admit`] builds it.
    fn session_states(&self, plan: &[Planned]) -> Vec<SessionState> {
        plan.iter()
            .map(|p| {
                let session = Session::new(&self.scenarios[p.scenario_idx].params);
                SessionState {
                    scenario_idx: p.scenario_idx,
                    arrival_s: p.arrival_s,
                    session,
                    trace_seed: p.trace_seed,
                    trace: None,
                    start_s: 0.0,
                    rel_s: 0.0,
                    wait_s: 0.0,
                    remaining: session.s_bytes,
                    clipped: false,
                    pieces: Vec::new(),
                    done: false,
                }
            })
            .collect()
    }

    /// The fluid allocation integrator: admissions, max-min fair WAN
    /// shares, queue waits and each session's granted piecewise-constant
    /// allocation. Event-driven and analytic between events (arrivals,
    /// admissions, trace breakpoints of unclipped sessions, floor-window
    /// ends, drains).
    ///
    /// Four structures replace the test-only reference loop's full
    /// rescans:
    ///
    /// * a [`WaterFiller`] holds every active flow's WAN demand and
    ///   re-levels in O(log k) per cap change, arrival or drain, so the
    ///   max-min fair shares are never recomputed from scratch;
    /// * an [`EventQueue`] calendar holds per-session trace breakpoints
    ///   and projected unclipped drains, and the time-ordered arrivals
    ///   merge in front of it from their own [`ArrivalLane`], so each
    ///   step pops the winner instead of scanning every active flow;
    /// * clipped drains live in a min-heap keyed in **water-volume
    ///   space**: with `v(t) = ∫ level dt`, a continuously-clipped
    ///   session's remaining hits zero when `v` reaches the constant
    ///   `d = v(t₀) + θ·rem(t₀)` — level changes move every clipped
    ///   drain time at once, but leave the heap order untouched;
    /// * **floor caps** keep clipped sessions off the calendar. The level
    ///   is `L = (C − Σ frozen caps)/(n − m)`, so a clipped flow's cap
    ///   only enters the search for the frozen prefix: while it stays
    ///   above `L`, its exact value moves neither `L`, nor the flow's
    ///   grant `L/θ`, nor its drain key. A session that resolves clipped
    ///   is registered at the smallest demand it has until its first
    ///   trace segment at or below the level
    ///   ([`BandwidthTrace::window_above`]), with one calendar entry at
    ///   the end of that window in place of one per breakpoint. When a
    ///   re-level lifts the level to a floor, the flip query reports the
    ///   flow, which wakes onto its true cap, and the step re-levels
    ///   until no floor is crossed.
    ///
    /// Scratch buffers are reused across events and per-session state is
    /// materialized lazily (only when a session's own status changes).
    /// Beyond the pieces each session records, a step allocates only when
    /// it admits a session, whose solo trace it builds, and a drain frees
    /// that trace. Arrival and calendar instants are stored verbatim and
    /// the clock jumps onto them exactly (no `t+dt` rounding), mirroring
    /// the reference loop's snapping; an unclipped session's recorded
    /// pieces carry its solo rates bit-for-bit, which preserves the
    /// fleet-of-one ≡ `SessionReplay` identity.
    fn integrate(&self, plan: &[Planned]) -> Integration {
        let mut states = self.session_states(plan);
        let n = states.len();
        let wan_bps = self.config.wan.as_bytes_per_sec();
        let slots = self.config.slots as usize;
        let catalog = self.scenarios.len();
        let mut admitted_per_scenario = vec![0usize; catalog];
        let mut queue = AdmissionQueue::new(self.config.policy, catalog);

        let mut wf = WaterFiller::new(wan_bps);
        // Live flow handle → session index (slab slots are recycled, so
        // this stays as small as the peak concurrency).
        let mut flow_session: Vec<usize> = Vec::new();
        let mut lanes: Vec<Lane> = (0..n)
            .map(|_| Lane {
                flow: None,
                clipped: false,
                floored: false,
                solo: 0.0,
                next_break: None,
                break_gen: 0,
                t_anchor: 0.0,
                rem_anchor: 0.0,
                d_key: 0.0,
                epoch: 0,
            })
            .collect();

        let mut arrivals = ArrivalLane { plan, next: 0 };
        let mut calendar: EventQueue<Seconds, FleetEvent> = EventQueue::new();
        // Clipped drains: min-heap on (d_key bits, push seq) — both
        // non-negative, so the bit order is the value order and the seq
        // makes ties FIFO like the calendar's.
        let mut clip_heap: BinaryHeap<Reverse<(u64, u64, usize, u64)>> = BinaryHeap::new();
        let mut clip_seq = 0u64;
        // Currently-clipped sessions, for eager piece recording when the
        // level moves; iteration order is irrelevant (pieces are
        // per-session) so swap-remove is fine.
        let mut clipped_set: Vec<usize> = Vec::new();
        let mut clipped_pos: Vec<usize> = vec![usize::MAX; n];
        // Sessions whose own status may have changed this instant.
        let mut touched: Vec<usize> = Vec::new();
        let mut touch_stamp: Vec<u64> = vec![0; n];
        let mut stamp = 0u64;
        // Sessions whose flow caps lie in a band the level swept.
        let mut band: Vec<usize> = Vec::new();

        let mut active = 0usize;
        let mut peak_active = 0u32;
        let mut t = 0.0f64;
        let mut v = 0.0f64;
        let mut events = 0u64;
        let mut floor_counts = FloorCounts::default();

        loop {
            // Drop heap entries orphaned by a flip, breakpoint or drain.
            while let Some(&Reverse((_, _, i, epoch))) = clip_heap.peek() {
                if states[i].done || lanes[i].epoch != epoch {
                    clip_heap.pop();
                } else {
                    break;
                }
            }
            let level = wf.level();
            let draining = level > 0.0 && level.is_finite();
            // The next scheduled instant: the arrival lane's head or the
            // calendar's, whichever is earlier.
            let next_at = match (arrivals.peek(), calendar.peek_time()) {
                (Some(a), Some(&c)) => Some(a.min(c)),
                (a, c) => a.or(c.copied()),
            };
            let d_sched = next_at.map(|s| s.value() - t);
            // The earliest clipped drain as a delta — the incremental
            // analog of the reference loop's `remaining / rate` scan.
            let d_clip = match clip_heap.peek() {
                Some(&Reverse((bits, _, _, _))) if draining => {
                    Some(((f64::from_bits(bits) - v) / level).max(0.0))
                }
                _ => None,
            };
            let dt = match (d_sched, d_clip) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            // A scheduled winner advances the clock onto its instant
            // *verbatim* — the same no-rounding jump the reference loop
            // makes onto `arrival_s`.
            let at_scheduled = d_sched.is_some_and(|a| a <= dt);
            let t_next = match next_at {
                Some(s) if at_scheduled => s.value(),
                _ => t + dt,
            };
            let v_pre = v;
            if level.is_finite() {
                v += level * (t_next - t);
            }

            stamp += 1;
            touched.clear();

            // 1. Clipped drains due within this step — compared against
            // the drain delta itself, not a re-derived time difference, so
            // the defining session lands exactly on its key.
            while let Some(&Reverse((bits, _, i, epoch))) = clip_heap.peek() {
                if states[i].done || lanes[i].epoch != epoch {
                    clip_heap.pop();
                    continue;
                }
                if !draining || (f64::from_bits(bits) - v_pre) / level > dt {
                    break;
                }
                clip_heap.pop();
                states[i].drain();
                if let Some(flow) = lanes[i].flow.take() {
                    wf.remove(flow);
                }
                lanes[i].epoch += 1;
                active -= 1;
                leave_clipped(&mut clipped_set, &mut clipped_pos, i);
                events += 1;
            }

            // 2. Events scheduled at exactly this instant: arrivals in
            // plan order, then calendar entries in (time, seq) order.
            if at_scheduled {
                let now = Seconds::new(t_next);
                while let Some(i) = arrivals.pop_at(now) {
                    let rank = tier_rank(self.scenarios[states[i].scenario_idx].tier);
                    queue.push(i, states[i].scenario_idx, rank);
                    events += 1;
                }
                while calendar.peek_time() == Some(&now) {
                    let Some((_, event)) = calendar.pop() else {
                        break;
                    };
                    match event {
                        FleetEvent::Breakpoint(i, gen) => {
                            if states[i].done || lanes[i].break_gen != gen {
                                continue;
                            }
                            let (Some(flow), Some(b), Some(trace)) =
                                (lanes[i].flow, lanes[i].next_break, &states[i].trace)
                            else {
                                continue;
                            };
                            // Materialize remaining over the outgoing
                            // segment or floor window, then snap the trace
                            // clock onto the breakpoint verbatim (the
                            // reference loop's rounding guard) and register
                            // the true cap there.
                            let (solo, next_b) = trace.segment_at(b);
                            let theta = states[i].session.theta;
                            let rem = if lanes[i].clipped {
                                ((lanes[i].d_key - v) / theta).max(0.0)
                            } else {
                                (lanes[i].rem_anchor - lanes[i].solo * (t_next - lanes[i].t_anchor))
                                    .max(0.0)
                            };
                            states[i].remaining = rem;
                            states[i].rel_s = b;
                            wf.update(flow, theta * solo);
                            let lane = &mut lanes[i];
                            if lane.floored {
                                lane.floored = false;
                                floor_counts.expiries += 1;
                            }
                            lane.rem_anchor = rem;
                            lane.t_anchor = t_next;
                            lane.solo = solo;
                            lane.next_break = next_b;
                            lane.epoch += 1;
                            if let Some(nb) = next_b {
                                calendar.schedule(
                                    Seconds::new(t_next + (nb - b)),
                                    FleetEvent::Breakpoint(i, gen),
                                );
                            }
                            if touch_stamp[i] != stamp {
                                touch_stamp[i] = stamp;
                                touched.push(i);
                            }
                            events += 1;
                        }
                        FleetEvent::Drain(i, epoch) => {
                            if states[i].done || lanes[i].epoch != epoch {
                                continue;
                            }
                            states[i].drain();
                            if let Some(flow) = lanes[i].flow.take() {
                                wf.remove(flow);
                            }
                            lanes[i].epoch += 1;
                            active -= 1;
                            leave_clipped(&mut clipped_set, &mut clipped_pos, i);
                            events += 1;
                        }
                    }
                }
            }

            // 3. Admissions into freed slots.
            while active < slots {
                let Some(i) = queue.pop(&admitted_per_scenario) else {
                    break;
                };
                let (solo, next_b) = states[i].admit(t_next, self.config.shape).segment_at(0.0);
                admitted_per_scenario[states[i].scenario_idx] += 1;
                active += 1;
                let flow = wf.insert(states[i].session.theta * solo);
                if flow.index() >= flow_session.len() {
                    flow_session.resize(flow.index() + 1, usize::MAX);
                }
                flow_session[flow.index()] = i;
                let lane = &mut lanes[i];
                lane.flow = Some(flow);
                lane.clipped = false;
                lane.solo = solo;
                lane.next_break = next_b;
                lane.t_anchor = t_next;
                lane.rem_anchor = states[i].session.s_bytes;
                lane.epoch += 1;
                if let Some(b) = next_b {
                    calendar.schedule(
                        Seconds::new(t_next + b),
                        FleetEvent::Breakpoint(i, lane.break_gen),
                    );
                }
                if touch_stamp[i] != stamp {
                    touch_stamp[i] = stamp;
                    touched.push(i);
                }
                events += 1;
            }
            peak_active = peak_active.max(active as u32);

            // 4. Resolution: one re-level covers every mutation above.
            // A flow whose own cap didn't change flips clip status iff
            // the level crossed its cap, so the band the level swept
            // plus the touched list is exactly the set of candidates.
            // A floor in that band is stale — the level rose to it — so
            // its session wakes onto its true cap, which re-levels; the
            // sweep repeats until it reaches no further floor.
            let (mut swept_lo, mut swept_hi) = (level, level);
            let mut level_new = wf.level();
            loop {
                band.clear();
                if level_new > swept_hi {
                    wf.for_caps_in(swept_hi, level_new, |f| band.push(flow_session[f.index()]));
                    swept_hi = level_new;
                }
                if level_new < swept_lo {
                    wf.for_caps_in(level_new, swept_lo, |f| band.push(flow_session[f.index()]));
                    swept_lo = level_new;
                }
                let mut woke = false;
                for &i in &band {
                    if touch_stamp[i] != stamp {
                        touch_stamp[i] = stamp;
                        touched.push(i);
                    }
                    if !lanes[i].floored {
                        continue;
                    }
                    let (Some(flow), Some(trace)) = (lanes[i].flow, &states[i].trace) else {
                        continue;
                    };
                    // Wake: the trace clock ran on past segment switches
                    // with no calendar entry, so look up where it is now.
                    let rel_now = states[i].rel_s + (t_next - lanes[i].t_anchor);
                    let (solo, next_b) = trace.segment_at(rel_now);
                    wf.update(flow, states[i].session.theta * solo);
                    let lane = &mut lanes[i];
                    lane.floored = false;
                    lane.solo = solo;
                    lane.next_break = next_b;
                    lane.break_gen += 1;
                    if let Some(nb) = next_b {
                        calendar.schedule(
                            Seconds::new(t_next + (nb - rel_now)),
                            FleetEvent::Breakpoint(i, lane.break_gen),
                        );
                    }
                    floor_counts.wakes += 1;
                    events += 1;
                    woke = true;
                }
                if !woke {
                    break;
                }
                level_new = wf.level();
            }
            let moved = level_new.to_bits() != level.to_bits();
            for &i in &touched {
                if states[i].done {
                    continue;
                }
                let Some(flow) = lanes[i].flow else { continue };
                let now_clipped = wf.is_clipped(flow);
                let theta = states[i].session.theta;
                // Materialize remaining at `t_next` under the dynamics
                // that governed since the anchor, then re-anchor. For
                // sessions whose own event already re-anchored above
                // this is an exact no-op (`t_next - t_anchor == 0`).
                let rem = if lanes[i].clipped {
                    ((lanes[i].d_key - v) / theta).max(0.0)
                } else {
                    (lanes[i].rem_anchor - lanes[i].solo * (t_next - lanes[i].t_anchor)).max(0.0)
                };
                states[i].rel_s += t_next - lanes[i].t_anchor;
                states[i].remaining = rem;
                let lane = &mut lanes[i];
                lane.rem_anchor = rem;
                lane.t_anchor = t_next;
                lane.epoch += 1;
                lane.clipped = now_clipped;
                if now_clipped {
                    states[i].clipped = true;
                    lane.d_key = v + theta * rem;
                    clip_heap.push(Reverse((lane.d_key.to_bits(), clip_seq, i, lane.epoch)));
                    clip_seq += 1;
                    if clipped_pos[i] == usize::MAX {
                        clipped_pos[i] = clipped_set.len();
                        clipped_set.push(i);
                    }
                    let rel = states[i].rel_s;
                    push_piece(&mut states[i].pieces, rel, level_new / theta);
                    // Hold it at a floor cap when its trace stays above
                    // the level past the pending breakpoint.
                    let window = lane.next_break.and_then(|b| {
                        states[i]
                            .trace
                            .as_ref()?
                            .window_above(b, |rate| theta * rate > level_new)
                    });
                    if let Some((min, end)) = window {
                        // The floor is the smaller of the current cap
                        // and the window's smallest later demand.
                        let floor = theta * min;
                        if floor < wf.cap(flow) {
                            wf.update(flow, floor);
                            debug_assert_eq!(
                                wf.level().to_bits(),
                                level_new.to_bits(),
                                "a floor above the level must not move it"
                            );
                        }
                        lane.floored = true;
                        lane.next_break = end;
                        lane.break_gen += 1;
                        if let Some(e) = end {
                            calendar.schedule(
                                Seconds::new(t_next + (e - states[i].rel_s)),
                                FleetEvent::Breakpoint(i, lane.break_gen),
                            );
                        }
                        floor_counts.floors += 1;
                    }
                } else {
                    leave_clipped(&mut clipped_set, &mut clipped_pos, i);
                    if lane.solo > 0.0 {
                        // A zero-rate segment never drains — the kernel
                        // guarantees a positive final rate, so a later
                        // breakpoint always reschedules this.
                        calendar.schedule(
                            Seconds::new(t_next + rem / lanes[i].solo),
                            FleetEvent::Drain(i, lanes[i].epoch),
                        );
                    }
                    let (rel, solo) = (states[i].rel_s, lanes[i].solo);
                    push_piece(&mut states[i].pieces, rel, solo);
                }
            }
            // Level moved: every still-clipped session's grant moved
            // with it — record the new rate at each session's private
            // clock (touched ones already carry it; the bit-equal merge
            // in `push_piece` makes the double push a no-op).
            if moved {
                for &i in &clipped_set {
                    let rel_now = states[i].rel_s + (t_next - lanes[i].t_anchor);
                    let rate = level_new / states[i].session.theta;
                    push_piece(&mut states[i].pieces, rel_now, rate);
                }
            }

            t = t_next;
        }
        Integration {
            states,
            peak_active,
            events,
            floor_counts,
        }
    }

    /// One session's reported record: its granted allocation replayed
    /// through the movement pipeline at the configured fidelity. An
    /// uncontended session replays its solo trace through the *same*
    /// session pipeline as `SessionReplay::evaluate_cell` — the
    /// structural guarantee behind the fleet-of-one bit-identity tests.
    fn finalize(
        &self,
        session: u32,
        st: &SessionState,
        model: &DecisionReport,
    ) -> Result<FleetRecord, String> {
        let scenario = &self.scenarios[st.scenario_idx];
        let trace = if !st.clipped {
            // Never queued, never clipped: the granted allocation IS the
            // solo trace — rebuilt from its seed, bit for bit the trace
            // the single-session replay builds.
            st.session.trace(self.config.shape, st.trace_seed)
        } else {
            let segments: Vec<(f64, Rate)> = st
                .pieces
                .iter()
                .map(|&(rel, r)| (rel, Rate::from_bytes_per_sec(r)))
                .collect();
            BandwidthTrace::from_segments(&segments)
                .map_err(|e| format!("session {session} composed an invalid allocation: {e}"))?
        };
        let movement = st
            .session
            .stream(self.config.frames, trace)
            .run_fidelity(self.config.fidelity)
            .completion
            .as_secs();

        let t_remote = CompletionModel::new(scenario.params).t_remote().as_secs();
        let realized_t_pct = st.wait_s + movement + t_remote;
        let model_t_pct = model.t_pct.as_secs();
        let realized_decision = contended_decision(model, realized_t_pct);
        Ok(FleetRecord {
            session,
            scenario_id: scenario.id.clone(),
            arrival_s: st.arrival_s,
            wait_s: st.wait_s,
            movement_s: movement,
            completion_s: st.start_s + movement + t_remote,
            contended: st.clipped,
            model_t_pct_s: model_t_pct,
            realized_t_pct_s: realized_t_pct,
            slowdown: realized_t_pct / model_t_pct.max(1e-12),
            model_decision: model.decision,
            realized_decision,
            mispredict: realized_decision != model.decision,
        })
    }

    /// Run the fleet on `pool`.
    ///
    /// # Errors
    /// Fails only if a composed allocation trace is rejected by the
    /// kernel's validator — impossible by construction, surfaced instead
    /// of unwrapped.
    pub fn run(&self, pool: &ThreadPool) -> Result<FleetReport, String> {
        self.run_with(Some(pool))
    }

    /// Run on the calling thread. Bit-identical to [`FleetSim::run`]:
    /// the allocation integrator is sequential either way, and the
    /// per-session pipeline replays use position-derived inputs only.
    pub fn run_sequential(&self) -> Result<FleetReport, String> {
        self.run_with(None)
    }

    /// [`FleetSim::run`] with the pool explicit (`None` = calling
    /// thread). All paths return the same bytes.
    pub fn run_with(&self, pool: Option<&ThreadPool>) -> Result<FleetReport, String> {
        self.report(pool, self.integrate(&self.plan()))
    }

    /// Replay every integrated session through the movement pipeline
    /// (fanned across `pool` when given) and aggregate the fleet report.
    fn report(
        &self,
        pool: Option<&ThreadPool>,
        Integration {
            states,
            peak_active,
            events,
            ..
        }: Integration,
    ) -> Result<FleetReport, String> {
        let params: Vec<_> = self.scenarios.iter().map(|s| s.params).collect();
        let decisions = decide_batch(&params);

        let indices: Vec<u32> = (0..states.len() as u32).collect();
        let eval = |&k: &u32| {
            let st = &states[k as usize];
            self.finalize(k, st, &decisions[st.scenario_idx])
        };
        let results: Vec<Result<FleetRecord, String>> = match pool {
            Some(p) => p.map(&indices, eval),
            None => indices.iter().map(eval).collect(),
        };
        let mut records = Vec::with_capacity(results.len());
        for r in results {
            records.push(r?);
        }

        let scenarios = self
            .scenarios
            .iter()
            .filter_map(|s| {
                let outcomes: Vec<(bool, f64)> = records
                    .iter()
                    .filter(|r| r.scenario_id == s.id)
                    .map(|r| (r.mispredict, r.slowdown))
                    .collect();
                if outcomes.is_empty() {
                    return None;
                }
                Some(ScenarioContention {
                    scenario_id: s.id.clone(),
                    summary: ContentionSummary::from_outcomes(&outcomes),
                })
            })
            .collect();
        let outcomes: Vec<(bool, f64)> =
            records.iter().map(|r| (r.mispredict, r.slowdown)).collect();
        let overall = ContentionSummary::from_outcomes(&outcomes);
        let slowdowns: Vec<f64> = records.iter().map(|r| r.slowdown).collect();
        let (p50, p90, p99) = match Ecdf::from_samples(&slowdowns) {
            Some(ecdf) => (
                ecdf.quantile(0.50),
                ecdf.quantile(0.90),
                ecdf.quantile(0.99),
            ),
            None => (1.0, 1.0, 1.0),
        };
        Ok(FleetReport {
            load: self.config.load,
            shape: self.config.shape,
            policy: self.config.policy,
            slots: self.config.slots,
            wan_gbps: self.config.wan.as_gbps(),
            makespan_s: records.iter().map(|r| r.completion_s).fold(0.0, f64::max),
            records,
            scenarios,
            overall,
            slowdown_p50: p50,
            slowdown_p90: p90,
            slowdown_p99: p99,
            peak_active,
            events,
        })
    }
}

/// One row per session: arrival, wait, contended vs idle-WAN completion,
/// and whether the verdict flipped.
pub fn fleet_table(report: &FleetReport) -> Table {
    let mut table = Table::new([
        "#",
        "scenario",
        "arrival",
        "wait",
        "move",
        "model T_pct",
        "real T_pct",
        "slowdn",
        "model",
        "realized",
        "flip",
    ])
    .with_title(format!(
        "Fleet of {} sessions — load {}, {} trace, {} admission",
        report.records.len(),
        report.load,
        report.shape.label(),
        report.policy.label()
    ));
    for r in &report.records {
        table.row([
            r.session.to_string(),
            r.scenario_id.clone(),
            format!("{:.2}s", r.arrival_s),
            format!("{:.2}s", r.wait_s),
            format!("{:.3}s", r.movement_s),
            format!("{:.3}s", r.model_t_pct_s),
            format!("{:.3}s", r.realized_t_pct_s),
            format!("{:.2}x", r.slowdown),
            format!("{:?}", r.model_decision),
            format!("{:?}", r.realized_decision),
            if r.mispredict { "FLIP" } else { "-" }.to_string(),
        ]);
    }
    table
}

/// One row per scenario: how often contention flips its idle-WAN verdict.
pub fn fleet_scenario_table(report: &FleetReport) -> Table {
    let mut table = Table::new([
        "scenario",
        "sessions",
        "mispredicts",
        "rate%",
        "mean slowdn",
        "max slowdn",
    ])
    .with_title("Per-scenario mispredict rate vs the single-session closed form");
    for s in &report.scenarios {
        table.row([
            s.scenario_id.clone(),
            s.summary.sessions.to_string(),
            s.summary.mispredicts.to_string(),
            format!("{:.1}", s.summary.mispredict_rate * 100.0),
            format!("{:.2}x", s.summary.mean_slowdown),
            format!("{:.2}x", s.summary.max_slowdown),
        ]);
    }
    table
}

/// One row per fleet cell: the contention headline numbers.
pub fn fleet_summary_table(reports: &[FleetReport]) -> Table {
    let mut table = Table::new([
        "load",
        "trace",
        "policy",
        "sessions",
        "peak",
        "mispredict%",
        "P50",
        "P90",
        "P99",
        "makespan",
    ])
    .with_title("Contention across fleet cells");
    for r in reports {
        table.row([
            format!("{}", r.load),
            r.shape.label().to_string(),
            r.policy.label().to_string(),
            r.records.len().to_string(),
            r.peak_active.to_string(),
            format!("{:.1}", r.overall.mispredict_rate * 100.0),
            format!("{:.2}x", r.slowdown_p50),
            format!("{:.2}x", r.slowdown_p90),
            format!("{:.2}x", r.slowdown_p99),
            format!("{:.1}s", r.makespan_s),
        ]);
    }
    table
}

/// The full fleet matrix as CSV: one row per session across the cells.
pub fn fleet_csv(reports: &[FleetReport]) -> CsvWriter {
    let mut csv = CsvWriter::new([
        "load",
        "trace",
        "policy",
        "session",
        "scenario",
        "arrival_s",
        "wait_s",
        "movement_s",
        "completion_s",
        "model_t_pct_s",
        "realized_t_pct_s",
        "slowdown",
        "contended",
        "model_decision",
        "realized_decision",
        "mispredict",
    ]);
    for report in reports {
        for r in &report.records {
            csv.row([
                format!("{}", report.load),
                report.shape.label().to_string(),
                report.policy.label().to_string(),
                r.session.to_string(),
                r.scenario_id.clone(),
                format!("{}", r.arrival_s),
                format!("{}", r.wait_s),
                format!("{}", r.movement_s),
                format!("{}", r.completion_s),
                format!("{}", r.model_t_pct_s),
                format!("{}", r.realized_t_pct_s),
                format!("{}", r.slowdown),
                format!("{}", r.contended),
                format!("{:?}", r.model_decision),
                format!("{:?}", r.realized_decision),
                format!("{}", r.mispredict),
            ]);
        }
    }
    csv
}

/// Per-scenario contention aggregates as CSV: one row per (cell ×
/// scenario) — what `fleet_contention` persists.
pub fn fleet_scenario_csv(reports: &[FleetReport]) -> CsvWriter {
    let mut csv = CsvWriter::new([
        "load",
        "trace",
        "policy",
        "scenario",
        "sessions",
        "mispredicts",
        "mispredict_rate",
        "mean_slowdown",
        "max_slowdown",
        "slowdown_p50",
        "slowdown_p90",
        "slowdown_p99",
    ]);
    for report in reports {
        for s in &report.scenarios {
            csv.row([
                format!("{}", report.load),
                report.shape.label().to_string(),
                report.policy.label().to_string(),
                s.scenario_id.clone(),
                s.summary.sessions.to_string(),
                s.summary.mispredicts.to_string(),
                format!("{}", s.summary.mispredict_rate),
                format!("{}", s.summary.mean_slowdown),
                format!("{}", s.summary.max_slowdown),
                format!("{}", report.slowdown_p50),
                format!("{}", report.slowdown_p90),
                format!("{}", report.slowdown_p99),
            ]);
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReplayConfig, SessionReplay};
    use sss_netsim::progressive_fill;

    impl SessionState {
        /// The solo trace of an admitted session that has not drained.
        fn live_trace(&self) -> &BandwidthTrace {
            self.trace
                .as_ref()
                .expect("only an admitted, undrained session reads its trace")
        }
    }

    /// The original allocation loop, byte-faithful to the seed
    /// integrator: the oracle [`FleetSim::integrate`] is differentially
    /// tested against.
    impl FleetSim {
        /// The seed allocation loop: every event re-derives all solo rates,
        /// re-runs [`progressive_fill`] over every active flow and rescans
        /// all drains and breakpoints — O(k²) per event.
        fn integrate_reference(&self, plan: &[Planned]) -> Integration {
            let mut states = self.session_states(plan);
            let n = states.len();
            let wan_bps = self.config.wan.as_bytes_per_sec();
            let slots = self.config.slots as usize;
            let mut admitted_per_scenario = vec![0usize; self.scenarios.len()];
            let mut queued: Vec<usize> = Vec::new();
            let mut active: Vec<usize> = Vec::new();
            let mut next_arrival = 0usize;
            let mut peak_active = 0u32;
            let mut t = 0.0f64;
            let mut events = 0u64;

            loop {
                events += 1;
                while next_arrival < n && states[next_arrival].arrival_s <= t {
                    queued.push(next_arrival);
                    next_arrival += 1;
                }
                while active.len() < slots && !queued.is_empty() {
                    let pos = self.pick(&queued, &states, &admitted_per_scenario);
                    let i = queued.remove(pos);
                    states[i].admit(t, self.config.shape);
                    admitted_per_scenario[states[i].scenario_idx] += 1;
                    active.push(i);
                }
                peak_active = peak_active.max(active.len() as u32);
                if active.is_empty() {
                    if next_arrival < n {
                        t = states[next_arrival].arrival_s;
                        continue;
                    }
                    break;
                }

                // Max-min fair shares of the backbone among the raw demands
                // θ·solo(rel); an unclipped session's deflated grant is its
                // solo rate *verbatim* (see `progressive_fill`), which keeps
                // its recorded pieces bit-equal to its solo trace.
                let solo: Vec<f64> = active
                    .iter()
                    .map(|&i| states[i].live_trace().rate_at(states[i].rel_s))
                    .collect();
                let caps: Vec<f64> = active
                    .iter()
                    .zip(&solo)
                    .map(|(&i, &r)| states[i].session.theta * r)
                    .collect();
                let shares = progressive_fill(wan_bps, &caps);
                let mut rates = Vec::with_capacity(active.len());
                for j in 0..active.len() {
                    let i = active[j];
                    if shares[j] < caps[j] {
                        states[i].clipped = true;
                        rates.push(shares[j] / states[i].session.theta);
                    } else {
                        rates.push(solo[j]);
                    }
                }
                for (j, &i) in active.iter().enumerate() {
                    let rel = states[i].rel_s;
                    push_piece(&mut states[i].pieces, rel, rates[j]);
                }

                // Next event as a *delta*: the next arrival, the next
                // solo-trace breakpoint of an active session, or a drain at
                // the current rates. Every candidate is strictly positive
                // (arrivals at or before `t` were consumed above, and
                // `next_change` is strictly beyond `rel_s`), so the step
                // always makes progress; the session owning the winning
                // breakpoint gets its clock *snapped* onto the breakpoint —
                // and drains compare against the drain delta itself, so
                // the defining session lands exactly on zero.
                let d_arrival = if next_arrival < n {
                    states[next_arrival].arrival_s - t
                } else {
                    f64::INFINITY
                };
                let breaks: Vec<Option<f64>> = active
                    .iter()
                    .map(|&i| states[i].live_trace().next_change(states[i].rel_s))
                    .collect();
                let d_break = active
                    .iter()
                    .zip(&breaks)
                    .filter_map(|(&i, b)| b.map(|b| b - states[i].rel_s))
                    .fold(f64::INFINITY, f64::min);
                let drain = active
                    .iter()
                    .zip(&rates)
                    .filter(|(_, &r)| r > 0.0)
                    .map(|(&i, &r)| states[i].remaining / r)
                    .fold(f64::INFINITY, f64::min);
                // A zero-rate session always has a future breakpoint (the
                // kernel requires a positive final rate), so `dt` is finite.
                let dt = d_arrival.min(d_break).min(drain);

                for (j, &i) in active.iter().enumerate() {
                    let r = rates[j];
                    if r > 0.0 && states[i].remaining / r <= dt {
                        states[i].drain();
                    } else {
                        states[i].remaining = (states[i].remaining - r * dt).max(0.0);
                    }
                    match breaks[j] {
                        Some(b) if b - states[i].rel_s == dt => states[i].rel_s = b,
                        _ => states[i].rel_s += dt,
                    }
                }
                active.retain(|&i| !states[i].done);
                t = if d_arrival == dt {
                    states[next_arrival].arrival_s
                } else {
                    t + dt
                };
            }
            Integration {
                states,
                peak_active,
                events,
                floor_counts: FloorCounts::default(),
            }
        }

        /// Which waiting session the policy admits next: an index into
        /// `queued` (itself kept in arrival order).
        fn pick(&self, queued: &[usize], states: &[SessionState], admitted: &[usize]) -> usize {
            match self.config.policy {
                AdmissionPolicy::Fifo => 0,
                AdmissionPolicy::FairShare => {
                    let mut best = 0usize;
                    for (pos, &i) in queued.iter().enumerate().skip(1) {
                        if admitted[states[i].scenario_idx]
                            < admitted[states[queued[best]].scenario_idx]
                        {
                            best = pos;
                        }
                    }
                    best
                }
                AdmissionPolicy::Priority => {
                    let mut best = 0usize;
                    for (pos, &i) in queued.iter().enumerate().skip(1) {
                        let rank = tier_rank(self.scenarios[states[i].scenario_idx].tier);
                        if rank < tier_rank(self.scenarios[states[queued[best]].scenario_idx].tier)
                        {
                            best = pos;
                        }
                    }
                    best
                }
            }
        }

        /// The fleet replayed through [`FleetSim::integrate_reference`]
        /// instead of the incremental integrator.
        fn run_reference(&self) -> Result<FleetReport, String> {
            self.report(None, self.integrate_reference(&self.plan()))
        }
    }

    fn solo_config(seed: u64, shape: TraceShape, fidelity: Fidelity) -> FleetConfig {
        FleetConfig {
            sessions: 1,
            load: 1.0,
            shape,
            policy: AdmissionPolicy::Fifo,
            slots: 1,
            // A backbone far above any single demand: never clips.
            wan: Rate::from_gbps(100_000.0),
            frames: 16,
            seed,
            fidelity,
        }
    }

    #[test]
    fn zero_load_draws_no_arrivals() {
        let config = FleetConfig::quick(42).with_load(0.0);
        let report = FleetSim::bundled(config).unwrap().run_sequential().unwrap();
        assert!(report.records.is_empty());
        assert_eq!(report.makespan_s, 0.0);
        assert_eq!(report.peak_active, 0);
        assert_eq!(report.overall.sessions, 0);
        assert_eq!(report.slowdown_p50, 1.0);
    }

    #[test]
    fn fleet_of_one_is_bit_identical_to_session_replay() {
        // An uncontended fleet of one routes its movement through the
        // same pipeline call on the same trace as SessionReplay, for
        // every shape and both integrators — bit equality, not tolerance.
        let scenario = Scenario::by_id("lcls-coherent-scattering").unwrap();
        for shape in TraceShape::ALL {
            for fidelity in [Fidelity::Exact, Fidelity::Fluid] {
                let sim = FleetSim::new(vec![scenario.clone()], solo_config(42, shape, fidelity))
                    .unwrap();
                let mut rc = ReplayConfig::quick(42).with_fidelity(fidelity);
                rc.shapes = vec![shape];
                let replay = SessionReplay::new(vec![scenario.clone()], rc)
                    .unwrap()
                    .run_sequential();
                for (engine, fleet) in [
                    ("incremental", sim.run_sequential().unwrap()),
                    ("reference", sim.run_reference().unwrap()),
                ] {
                    let f = &fleet.records[0];
                    let r = &replay.records[0];
                    assert_eq!(
                        f.wait_s, 0.0,
                        "{shape}/{engine}: a fleet of one never queues"
                    );
                    assert!(!f.contended);
                    assert_eq!(
                        f.movement_s, r.sim_transfer_s,
                        "{shape}/{fidelity}/{engine}: movement must be bit-identical"
                    );
                    assert_eq!(
                        f.realized_t_pct_s, r.sim_t_pct_s,
                        "{shape}/{fidelity}/{engine}: realized T_pct must be bit-identical"
                    );
                    assert_eq!(f.model_t_pct_s, r.model_t_pct_s);
                }
            }
        }
    }

    #[test]
    fn huge_fleet_is_bounded_by_the_admission_queue() {
        let mut config = FleetConfig::quick(7).with_load(32.0);
        config.sessions = 300;
        config.slots = 3;
        let report = FleetSim::bundled(config).unwrap().run_sequential().unwrap();
        assert_eq!(report.records.len(), 300);
        assert!(report.peak_active <= 3, "peak {}", report.peak_active);
        assert!(report.peak_active >= 1);
        for r in &report.records {
            assert!(r.wait_s >= 0.0);
            assert!(r.movement_s > 0.0);
            assert!(r.slowdown >= 1.0 - 1e-6, "slowdown {}", r.slowdown);
            assert_eq!(r.mispredict, r.model_decision != r.realized_decision);
        }
        assert!(report.makespan_s.is_finite());
        // At load 32 through 3 slots the queue is saturated: waits exist.
        assert!(report.records.iter().any(|r| r.wait_s > 0.0));
    }

    #[test]
    fn parallel_and_sequential_are_bit_identical() {
        let fleet = FleetSim::bundled(FleetConfig::quick(42).with_load(8.0)).unwrap();
        let par = fleet.run(&ThreadPool::new(4)).unwrap();
        let seq = fleet.run_sequential().unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn contention_slows_sessions_and_can_flip_verdicts() {
        // A backbone far below the summed demands forces clipping.
        let mut config = FleetConfig::quick(42).with_load(8.0);
        config.wan = Rate::from_gbps(10.0);
        let report = FleetSim::bundled(config).unwrap().run_sequential().unwrap();
        assert!(report.records.iter().any(|r| r.contended));
        assert!(report.slowdown_p90 > 1.01, "P90 {}", report.slowdown_p90);
        // Quantiles are ordered by construction.
        assert!(report.slowdown_p50 <= report.slowdown_p90);
        assert!(report.slowdown_p90 <= report.slowdown_p99);
        // Scenario aggregates cover every session exactly once.
        let total: usize = report.scenarios.iter().map(|s| s.summary.sessions).sum();
        assert_eq!(total, report.records.len());
    }

    #[test]
    fn fluid_and_exact_fleets_agree_within_the_shape_tolerance() {
        for shape in TraceShape::ALL {
            let config = FleetConfig::quick(42).with_load(6.0).with_shape(shape);
            let fluid = FleetSim::bundled(config.clone().with_fidelity(Fidelity::Fluid))
                .unwrap()
                .run_sequential()
                .unwrap();
            let exact = FleetSim::bundled(config.with_fidelity(Fidelity::Exact))
                .unwrap()
                .run_sequential()
                .unwrap();
            let tol = sss_sim::fluid_tolerance(shape);
            for (f, e) in fluid.records.iter().zip(&exact.records) {
                let rel = (f.movement_s - e.movement_s).abs() / e.movement_s.abs().max(1e-12);
                assert!(
                    rel <= tol,
                    "{}/{shape}: fluid {} vs exact {} (rel {rel} > tol {tol})",
                    f.scenario_id,
                    f.movement_s,
                    e.movement_s
                );
            }
        }
    }

    #[test]
    fn priority_admission_favors_tight_tiers() {
        // Pick two catalog scenarios from different latency tiers; under
        // a saturated single slot, Priority should give the tighter tier
        // the smaller mean wait.
        let all = Scenario::all();
        let tight = all
            .iter()
            .min_by_key(|s| tier_rank(s.tier))
            .unwrap()
            .clone();
        let loose = all
            .iter()
            .max_by_key(|s| tier_rank(s.tier))
            .unwrap()
            .clone();
        assert!(tier_rank(tight.tier) < tier_rank(loose.tier));
        let mut config = FleetConfig::quick(3)
            .with_load(24.0)
            .with_policy(AdmissionPolicy::Priority);
        config.sessions = 40;
        config.slots = 1;
        let report = FleetSim::new(vec![tight.clone(), loose.clone()], config)
            .unwrap()
            .run_sequential()
            .unwrap();
        let mean_wait = |id: &str| {
            let waits: Vec<f64> = report
                .records
                .iter()
                .filter(|r| r.scenario_id == id)
                .map(|r| r.wait_s)
                .collect();
            waits.iter().sum::<f64>() / waits.len() as f64
        };
        assert!(
            mean_wait(&tight.id) < mean_wait(&loose.id),
            "priority admission should favor {} over {}",
            tight.id,
            loose.id
        );
    }

    #[test]
    fn fair_share_balances_scenario_admissions() {
        let mut config = FleetConfig::quick(11)
            .with_load(16.0)
            .with_policy(AdmissionPolicy::FairShare);
        config.sessions = 52;
        config.slots = 2;
        let report = FleetSim::bundled(config).unwrap().run_sequential().unwrap();
        // Every scenario appears exactly sessions/13 times (block shuffle).
        for s in &report.scenarios {
            assert_eq!(s.summary.sessions, 4, "{}", s.scenario_id);
        }
    }

    #[test]
    fn policies_round_trip_labels() {
        for p in AdmissionPolicy::ALL {
            assert_eq!(AdmissionPolicy::parse(p.label()), Ok(p));
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(
            AdmissionPolicy::parse("fair"),
            Ok(AdmissionPolicy::FairShare)
        );
        assert!(AdmissionPolicy::parse("lifo").is_err());
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        let mut c = FleetConfig::quick(1);
        c.slots = 0;
        assert!(c.validate().is_err());
        let mut c = FleetConfig::quick(1);
        c.sessions = 100_000;
        assert!(c.validate().is_err());
        let mut c = FleetConfig::quick(1);
        c.load = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = FleetConfig::quick(1);
        c.frames = 0;
        assert!(c.validate().is_err());
        assert!(FleetConfig::quick(1).validate().is_ok());
        assert!(FleetSim::new(Vec::new(), FleetConfig::quick(1)).is_err());
    }

    #[test]
    fn report_serde_round_trip() {
        let report = FleetSim::bundled(FleetConfig::quick(42))
            .unwrap()
            .run_sequential()
            .unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn tables_and_csv_cover_all_sessions() {
        let report = FleetSim::bundled(FleetConfig::quick(42))
            .unwrap()
            .run_sequential()
            .unwrap();
        assert_eq!(fleet_table(&report).len(), report.records.len());
        assert_eq!(fleet_scenario_table(&report).len(), report.scenarios.len());
        assert_eq!(fleet_summary_table(std::slice::from_ref(&report)).len(), 1);
        let csv = fleet_csv(std::slice::from_ref(&report));
        assert_eq!(csv.as_str().lines().count(), 1 + report.records.len());
        let per_scenario = fleet_scenario_csv(std::slice::from_ref(&report));
        assert_eq!(
            per_scenario.as_str().lines().count(),
            1 + report.scenarios.len()
        );
        assert!(per_scenario
            .as_str()
            .starts_with("load,trace,policy,scenario"));
    }

    #[test]
    fn same_seed_reruns_are_bit_identical_and_seeds_differ() {
        let a = FleetSim::bundled(FleetConfig::quick(42))
            .unwrap()
            .run_sequential()
            .unwrap();
        let b = FleetSim::bundled(FleetConfig::quick(42))
            .unwrap()
            .run_sequential()
            .unwrap();
        assert_eq!(a, b);
        let c = FleetSim::bundled(FleetConfig::quick(43))
            .unwrap()
            .run_sequential()
            .unwrap();
        // A different master seed perturbs the arrival process.
        assert!(a.records[0].arrival_s != c.records[0].arrival_s);
    }

    /// The tentpole differential gate: under contention, for every
    /// shape, policy, backbone from scarce to ample, and three seeds, the
    /// incremental engine reproduces the reference loop's admissions
    /// exactly and its continuous outcomes to within float dust (the
    /// allocators agree to ≤1e-12 relative per event; event-time shifts
    /// compound that slightly). The grid must hold sessions at floor
    /// caps, wake floored sessions and run floor windows to their end,
    /// or it would not test them.
    #[test]
    fn incremental_and_reference_engines_agree_under_contention() {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1e-9);
        let cells = AdmissionPolicy::ALL.into_iter().flat_map(|policy| {
            TraceShape::ALL.into_iter().flat_map(move |shape| {
                [3.0, 12.0, 40.0, 200.0]
                    .into_iter()
                    .flat_map(move |gbps| [11, 12, 13].map(|seed| (policy, shape, gbps, seed)))
            })
        });
        let mut totals = FloorCounts::default();
        for (policy, shape, gbps, seed) in cells {
            let mut config = FleetConfig::quick(seed).with_load(6.0);
            config.sessions = 60;
            config.wan = Rate::from_gbps(gbps);
            config.shape = shape;
            config.policy = policy;
            let sim = FleetSim::bundled(config).unwrap();
            let run = sim.integrate(&sim.plan());
            let counts = run.floor_counts;
            totals.floors += counts.floors;
            totals.wakes += counts.wakes;
            totals.expiries += counts.expiries;
            let inc = sim.report(None, run).unwrap();
            let reference = sim.run_reference().unwrap();
            let cell = format!("{shape}/{policy}/{gbps} Gbps/seed {seed}");
            assert_eq!(inc.records.len(), reference.records.len(), "{cell}");
            assert_eq!(inc.peak_active, reference.peak_active, "{cell}");
            assert!(inc.events > 0 && reference.events > 0);
            assert!(
                inc.records.iter().any(|r| r.contended),
                "{cell}: the cell must actually contend"
            );
            if matches!(shape, TraceShape::Steady | TraceShape::Outage) {
                assert_eq!(
                    counts.floors, 0,
                    "{cell}: no floor can sit below the true cap"
                );
            }
            for (a, b) in inc.records.iter().zip(&reference.records) {
                let tag = format!("{cell}/session {}", a.session);
                assert_eq!(a.scenario_id, b.scenario_id, "{tag}");
                assert_eq!(a.contended, b.contended, "{tag}: clip status");
                assert!(
                    close(a.wait_s, b.wait_s),
                    "{tag}: wait {} vs {}",
                    a.wait_s,
                    b.wait_s
                );
                assert!(
                    close(a.movement_s, b.movement_s),
                    "{tag}: movement {} vs {}",
                    a.movement_s,
                    b.movement_s
                );
                assert!(
                    close(a.completion_s, b.completion_s),
                    "{tag}: completion {} vs {}",
                    a.completion_s,
                    b.completion_s
                );
            }
        }
        assert!(totals.floors > 0, "no session was held at a floor");
        assert!(totals.wakes > 0, "no floored session was woken");
        assert!(totals.expiries > 0, "no floor window ran to its end");
    }

    /// A session holds its solo trace only from admission to drain: once
    /// either integrator returns, every session has drained and freed it,
    /// under every shape and with clipped and unclipped drains alike.
    #[test]
    fn integrators_free_every_trace_by_the_end() {
        for shape in TraceShape::ALL {
            let mut config = FleetConfig::quick(5).with_load(6.0).with_shape(shape);
            config.wan = Rate::from_gbps(40.0);
            let sim = FleetSim::bundled(config).unwrap();
            let plan = sim.plan();
            for (engine, run) in [
                ("incremental", sim.integrate(&plan)),
                ("reference", sim.integrate_reference(&plan)),
            ] {
                assert!(
                    run.states.iter().any(|st| st.clipped)
                        && run.states.iter().any(|st| !st.clipped),
                    "{shape}/{engine}: the cell must drain clipped and unclipped sessions"
                );
                for (i, st) in run.states.iter().enumerate() {
                    assert!(st.done, "{shape}/{engine}: session {i} never drained");
                    assert!(
                        st.trace.is_none(),
                        "{shape}/{engine}: session {i} still holds its trace"
                    );
                }
            }
        }
    }

    /// The arrival lane trusts the plan's time order and says so loudly
    /// when it breaks, instead of stepping the clock backwards.
    #[test]
    #[should_panic(
        expected = "arrival lane out of order: session 1 arrives at 1s, before session 0 at 2s"
    )]
    fn an_arrival_plan_that_steps_back_in_time_panics() {
        let sim = FleetSim::bundled(FleetConfig::quick(1)).unwrap();
        let plan = [
            Planned {
                scenario_idx: 0,
                arrival_s: 2.0,
                trace_seed: 1,
            },
            Planned {
                scenario_idx: 1,
                arrival_s: 1.0,
                trace_seed: 2,
            },
        ];
        sim.integrate(&plan);
    }

    /// Satellite gate: the policy-specialized [`AdmissionQueue`] pops
    /// sessions in exactly the order the reference `pick` scan (plus
    /// `Vec::remove`) produces, for every policy, across an interleaved
    /// arrival/admission schedule.
    #[test]
    fn admission_queue_matches_the_reference_scan() {
        for policy in AdmissionPolicy::ALL {
            let sim = FleetSim::bundled(FleetConfig::quick(7).with_policy(policy)).unwrap();
            let plan = sim.plan();
            let states = sim.session_states(&plan);
            let catalog = sim.scenarios().len();

            let mut queue = AdmissionQueue::new(policy, catalog);
            let mut queued: Vec<usize> = Vec::new();
            let mut admitted = vec![0usize; catalog];
            let mut fast_order = Vec::new();
            let mut reference_order = Vec::new();
            // Interleave pushes with bursts of pops so the queues are
            // exercised at several fill levels and count profiles.
            for (i, st) in states.iter().enumerate() {
                let rank = tier_rank(sim.scenarios()[st.scenario_idx].tier);
                queue.push(i, st.scenario_idx, rank);
                queued.push(i);
                if i % 3 == 0 {
                    if let Some(j) = queue.pop(&admitted) {
                        fast_order.push(j);
                        let pos = sim.pick(&queued, &states, &admitted);
                        let k = queued.remove(pos);
                        reference_order.push(k);
                        admitted[states[k].scenario_idx] += 1;
                    }
                }
            }
            while let Some(j) = queue.pop(&admitted) {
                fast_order.push(j);
                let pos = sim.pick(&queued, &states, &admitted);
                let k = queued.remove(pos);
                reference_order.push(k);
                admitted[states[k].scenario_idx] += 1;
            }
            assert!(queued.is_empty(), "{policy}: both queues must drain");
            assert_eq!(
                fast_order, reference_order,
                "{policy}: admission order must be unchanged"
            );
        }
    }
}
