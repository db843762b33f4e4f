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
//!   same scheme as the frontier's α-jitter), so runs on any number of
//!   workers — and repeated runs at the same seed — are byte-identical.
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
//!   [`TraceShape`]), read through a [`DippedTrace`] over the scenario's
//!   clear layout, laid out once per run, and the session's drawn dips.
//!   All concurrent raw demands share a backbone of capacity
//!   [`FleetConfig::wan`] by max-min fair water-filling ([`WaterFiller`],
//!   re-levelled on the first read after a change). A session never clipped
//!   below its solo rate experiences *literally* the single-session
//!   replay: the replay's session helper lays its trace out from the same
//!   draws and builds its [`EventStreamingPipeline`](sss_iosim::EventStreamingPipeline),
//!   which is what makes a fleet of one bit-identical to
//!   [`SessionReplay`](crate::SessionReplay).
//! * **Fidelity** — the allocation integrator is fluid (event-driven,
//!   analytic between rate changes); each session's *reported* movement
//!   then replays its granted piecewise-constant allocation through the
//!   movement pipeline at [`FleetConfig::fidelity`], so `Fidelity::Exact`
//!   provides independent per-frame spot-checks of the fluid numbers via
//!   the same differential harness the single-session replay uses.
//!
//! The verdict layer is `sss-core`'s: each session's realized `T_pct`
//! (queue wait + contended movement + remote compute) is re-judged by
//! the model's own rule, [`judge`], with its scenario's required and
//! effective rates and analytic `T_local`, a **mispredict** being an
//! idle-WAN `RemoteStream` verdict that contention pushed past
//! `T_local`. [`FleetReport`] aggregates per-scenario mispredict rates
//! and the slowdown distribution (P50/P90/P99 via `sss-stats`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};

use sss_core::{
    judge, verdict, CompletionModel, ContentionSummary, Decision, Scenario, Tier, Verdict,
};
use sss_exec::{SeedSequence, ThreadPool};
use sss_netsim::{WaterFiller, WaterFlowId};
use sss_report::{CsvWriter, Table};
use sss_sim::{BandwidthTrace, DippedTrace, Dips, EventQueue, Fidelity, Seconds, TraceShape};
use sss_stats::select_quantiles;
use sss_units::{Rate, TimeDelta};

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
    fn serialize(&self, w: &mut serde::Writer) {
        w.str(self.label());
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
    /// perfbench's `loadgen.fleet.ns_per_event`.
    pub events: u64,
}

/// A scenario mix plus the fleet configuration to run it under.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSim {
    scenarios: Vec<Scenario>,
    config: FleetConfig,
}

/// One session's record: its planned arrival and its state through the
/// allocation integrator. [`FleetSim::plan`] makes one per arrival, in
/// arrival order; an integrator advances each to its drain, and the
/// report replays it.
struct SessionState {
    scenario_idx: usize,
    arrival_s: f64,
    session: Session,
    /// The solo trace's dips, from its seed, none drawn when the run was
    /// planned. The integrator reads the solo trace through a
    /// [`DippedTrace`] over the scenario's clear layout and these dips,
    /// which draws each flag the first time a read reaches it, and
    /// `finalize` lays an unclipped session's trace out from a completed
    /// copy: the same bits either way.
    dips: Dips,
    start_s: f64,
    /// Elapsed time since admission — the session's private trace clock.
    /// Kept directly (and snapped onto breakpoints verbatim) instead of
    /// re-derived as `t - start_s`, whose rounding could land just below
    /// a breakpoint and stall the integrator there.
    rel_s: f64,
    wait_s: f64,
    /// Deflated bytes remaining at `t_anchor`: the whole data unit until
    /// admission. It governs an unclipped drain; a clipped session drains
    /// on `d_key`. The reference loop keeps it at its own clock.
    remaining: f64,
    /// Whether contention touched the session at all: it queued, or it
    /// was clipped at some instant ([`FleetRecord::contended`]).
    contended: bool,
    /// The session's live flow in the water-filler (admitted, not done).
    flow: Option<WaterFlowId>,
    /// Whether the flow sat above the water level at the last resolution.
    /// Unlike `contended`, it clears once the demand fits again.
    clipped: bool,
    /// Whether the flow is held at a floor cap: clipped, with its demand
    /// registered as the smallest one it has before `next_break`, and no
    /// calendar entry for the segment switches in between.
    floored: bool,
    /// Solo rate of the trace segment last looked up — the deflated
    /// grant while unclipped; the WAN demand is `theta` times this.
    /// Stale while floored.
    solo: f64,
    /// The segment the pending breakpoint entry starts: the next segment
    /// switch, or the end of the floor window while floored. Every
    /// breakpoint the integrator schedules is a segment start, so the
    /// session reads its trace there by index, and the instant is the
    /// start in the scenario's clear layout, verbatim. A layout has at
    /// most 257 segments.
    next_break: Option<u32>,
    /// Generation of the live breakpoint entry.
    break_gen: u64,
    /// Fleet instant `remaining` and `rel_s` were last materialized at.
    t_anchor: f64,
    /// Drain key in water-volume space: with `v(t) = ∫ level dt`, a
    /// continuously-clipped session drains when `v` reaches
    /// `d = v(t₀) + θ·rem(t₀)`, a constant — so the drain heap never
    /// re-sorts while the level moves.
    d_key: f64,
    /// Bumped on every state transition; drain entries (calendar and
    /// heap) carry the epoch they were scheduled under, and
    /// [`SessionState::live`] drops them once it is stale.
    epoch: u64,
    /// The last integrator step that listed the session as touched
    /// ([`SessionState::touch`]).
    stamp: u64,
    /// The first and the last of the pieces of granted allocation the
    /// session's own touches pushed, in the fleet's list of pieces
    /// ([`NO_PIECE`] before the first). With the level moves the fleet's
    /// log records while a clipped one holds, they are the session's
    /// contention-adjusted trace ([`SessionState::grants`]).
    first_piece: usize,
    last_piece: usize,
    /// The log's length when the session drained: the end of its last
    /// piece's level moves.
    drained_at: usize,
    done: bool,
}

/// A piece of granted allocation a session's own touch pushed: from
/// `rel` seconds after admission, `rate` deflated bytes per second. While
/// the piece is `clipped`, the session's grant is the water level over
/// its θ, so every level move the fleet's log records from `log_at` up to
/// the next piece's (or to the session's drain) grants it a piece too,
/// starting at `rel + (t − t_anchor)` for a move at fleet time `t`.
/// `t_anchor` is the fleet clock at the push. A session's anchors change
/// only where it pushes its own piece, so that is the start the
/// integrator's clock gives the move.
///
/// The fleet keeps every session's pieces in one list, in push order,
/// each linked to the same session's `next`, so a session's pieces cost
/// no allocation of their own.
#[derive(Debug, Clone, Copy)]
struct Piece {
    rel: f64,
    rate: f64,
    t_anchor: f64,
    log_at: usize,
    clipped: bool,
    next: usize,
}

/// The index of no piece: ends a session's list of pieces.
const NO_PIECE: usize = usize::MAX;

impl SessionState {
    /// Admit the session at `t`: start its trace clock and record its
    /// wait.
    fn admit(&mut self, t: f64) {
        self.start_s = t;
        self.wait_s = t - self.arrival_s;
        if self.wait_s > 0.0 {
            self.contended = true;
        }
        self.rel_s = 0.0;
        self.t_anchor = t;
    }

    /// The session's solo trace, read by segment index through its
    /// scenario's layout in `clear` (one per scenario, from clear dips),
    /// which also holds each segment's instant. Its reads draw the dip
    /// flags they reach into the session's dips.
    fn solo<'a>(&'a mut self, shape: TraceShape, clear: &'a [BandwidthTrace]) -> DippedTrace<'a> {
        DippedTrace::new(shape, &clear[self.scenario_idx], &mut self.dips)
    }

    /// Make segment `next` of the session's trace, from the scenario's
    /// layout in `clear`, the pending breakpoint (none when `None`), and
    /// schedule it on `calendar` under the current breakpoint generation.
    /// The fleet clock reads `t` when the trace clock reads `rel`, so the
    /// entry falls at `t + (start − rel)` for the segment's verbatim
    /// start (at admission `rel` is 0, and `start − 0` is `start`).
    fn set_break(
        &mut self,
        i: usize,
        next: Option<usize>,
        clear: &[BandwidthTrace],
        (t, rel): (f64, f64),
        calendar: &mut EventQueue<Seconds, FleetEvent>,
    ) {
        self.next_break = next.map(|k| k as u32);
        if let Some(k) = next {
            let start = clear[self.scenario_idx].segment_start(k);
            calendar.schedule(
                Seconds::new(t + (start - rel)),
                FleetEvent::Breakpoint(i, self.break_gen),
            );
        }
    }

    /// Whether a drain entry scheduled under `epoch` still stands: the
    /// session has not drained, and no transition has passed since.
    fn live(&self, epoch: u64) -> bool {
        !self.done && self.epoch == epoch
    }

    /// List session `i` in `touched`, unless step `stamp` already has.
    fn touch(&mut self, i: usize, stamp: u64, touched: &mut Vec<usize>) {
        if self.stamp != stamp {
            self.stamp = stamp;
            touched.push(i);
        }
    }

    /// Materialize the bytes remaining at `t`, with `v` the water volume
    /// then, under the dynamics that governed since the anchor (the drain
    /// key while clipped, the solo rate while not), and re-anchor there
    /// with the trace clock at `rel`.
    fn anchor(&mut self, t: f64, v: f64, rel: f64) {
        self.remaining = if self.clipped {
            ((self.d_key - v) / self.session.theta).max(0.0)
        } else {
            (self.remaining - self.solo * (t - self.t_anchor)).max(0.0)
        };
        self.t_anchor = t;
        self.rel_s = rel;
        self.epoch += 1;
    }

    /// Push `piece`, whose `next` is [`NO_PIECE`], onto the fleet's list
    /// `pieces`, after the session's last.
    fn add_piece(&mut self, pieces: &mut Vec<Piece>, piece: Piece) {
        let at = pieces.len();
        pieces.push(piece);
        match pieces.get_mut(self.last_piece) {
            Some(last) => last.next = at,
            None => self.first_piece = at,
        }
        self.last_piece = at;
    }

    /// The session's granted allocation written over the trace columns
    /// `starts` and `rates`: each of its own pieces in `pieces`, and
    /// after a clipped one a piece for each level move `log` records
    /// while it holds.
    fn grants(
        &self,
        pieces: &[Piece],
        log: &[(f64, f64)],
        starts: &mut Vec<f64>,
        rates: &mut Vec<f64>,
    ) {
        starts.clear();
        rates.clear();
        let theta = self.session.theta;
        let mut next = pieces.get(self.first_piece);
        while let Some(p) = next {
            next = pieces.get(p.next);
            push_piece(starts, rates, p.rel, p.rate);
            if p.clipped {
                let until = next.map_or(self.drained_at, |q| q.log_at);
                for &(t, level) in &log[p.log_at..until] {
                    push_piece(starts, rates, p.rel + (t - p.t_anchor), level / theta);
                }
            }
        }
    }
}

/// Append an allocation piece to trace columns, merging bit-equal
/// consecutive rates so an unclipped session's pieces reproduce its solo
/// trace segments exactly.
fn push_piece(starts: &mut Vec<f64>, rates: &mut Vec<f64>, rel_t: f64, rate: f64) {
    if let (Some(&last_t), Some(last_rate)) = (starts.last(), rates.last_mut()) {
        if rel_t <= last_t {
            // A zero-length segment: the later rate wins.
            *last_rate = rate;
            return;
        }
        if rate.to_bits() == last_rate.to_bits() {
            return;
        }
    }
    starts.push(rel_t);
    rates.push(rate);
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

/// The arrival lane: [`FleetSim::plan`] makes the session records in
/// arrival order, so arrivals need no calendar heap, only this cursor
/// over the records' indices. The integrator merges it in front of the
/// calendar and takes arrivals first at a tie, the order their low
/// sequence numbers gave them as calendar entries. Like dslab's ordered
/// events, the lane panics if the plan steps back in time.
#[derive(Default)]
struct ArrivalLane {
    next: usize,
}

impl ArrivalLane {
    /// The next arrival's instant.
    fn peek(&self, states: &[SessionState]) -> Option<Seconds> {
        states.get(self.next).map(|st| Seconds::new(st.arrival_s))
    }

    /// Take the next arrival, a session index, if it falls at `now`.
    fn pop_at(&mut self, states: &[SessionState], now: Seconds) -> Option<usize> {
        if self.peek(states) != Some(now) {
            return None;
        }
        let i = self.next;
        self.next += 1;
        if let Some(after) = states.get(self.next) {
            assert!(
                after.arrival_s >= states[i].arrival_s,
                "arrival lane out of order: session {} arrives at {}s, before session {i} at {}s",
                self.next,
                after.arrival_s,
                states[i].arrival_s
            );
        }
        Some(i)
    }
}

/// A calendar entry for the incremental engine. Arrivals are not among
/// them: they come in time order on the [`ArrivalLane`].
enum FleetEvent {
    /// An admitted session's trace clock reaches its
    /// `SessionState::next_break`: the next segment switch, or the end of
    /// its floor window. Carries the breakpoint generation it was
    /// scheduled under; holding the session at a floor or waking it bumps
    /// the generation, which orphans the pending entry, as does the
    /// session draining (the `done` flag).
    Breakpoint(usize, u64),
    /// An unclipped session runs dry at its solo rate; stale once the
    /// session's epoch moved past the recorded one.
    Drain(usize, u64),
}

/// Clipped drains: a min-heap on (drain key bits, push seq, session,
/// epoch). The key is non-negative, so its bit order is its value order,
/// and the seq makes ties FIFO like the calendar's.
type ClipHeap = BinaryHeap<Reverse<(u64, u64, usize, u64)>>;

/// The earliest clipped drain still live, once the heap has dropped the
/// entries a flip, a breakpoint or a drain orphaned: the time the water
/// volume, `v` now, takes at `level` to reach its key, and its session.
fn next_clip_drain(
    heap: &mut ClipHeap,
    states: &[SessionState],
    v: f64,
    level: f64,
) -> Option<(f64, usize)> {
    while let Some(&Reverse((bits, _, i, epoch))) = heap.peek() {
        if states[i].live(epoch) {
            return Some(((f64::from_bits(bits) - v) / level, i));
        }
        heap.pop();
    }
    None
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

/// One pass of the allocation integrator: the session records it
/// advances, and what it produced.
struct Integration {
    /// Every session's record, advanced to its drain.
    states: Vec<SessionState>,
    /// Every session's own pieces, in push order.
    pieces: Vec<Piece>,
    /// The water level's moves, `(fleet time, new level)`, in time order:
    /// the grants of every clipped session between its own pieces.
    log: Vec<(f64, f64)>,
    /// Largest number of concurrently admitted sessions.
    peak_active: u32,
    /// Events processed, as [`FleetReport::events`] counts them.
    events: u64,
    #[cfg_attr(not(test), allow(dead_code))]
    floor_counts: FloorCounts,
    /// Each session's pieces as the integrator once recorded them, every
    /// level move pushed onto every clipped session: the oracle of
    /// [`SessionState::grants`].
    #[cfg(test)]
    recording: tests::Recording,
}

impl Integration {
    /// Session `i` ran dry and leaves the fleet: its flow leaves `wf`,
    /// the log as it stands ends its grants, and the entries it has
    /// pending go stale.
    fn leave(&mut self, i: usize, wf: &mut WaterFiller) {
        let st = &mut self.states[i];
        st.done = true;
        st.drained_at = self.log.len();
        st.epoch += 1;
        if let Some(flow) = st.flow.take() {
            wf.remove(flow);
        }
        #[cfg(test)]
        self.recording.leave(i);
        self.events += 1;
    }
}

impl FleetSim {
    /// A fleet over an explicit scenario mix.
    ///
    /// # Errors
    /// Fails on an invalid [`FleetConfig`], an empty scenario list or a
    /// list that repeats a scenario id (the report summarizes each
    /// scenario once) — `/fleet` turns this into a 400 instead of
    /// panicking the connection.
    pub fn new(scenarios: Vec<Scenario>, config: FleetConfig) -> Result<Self, String> {
        config.validate()?;
        if scenarios.is_empty() {
            return Err("a fleet needs at least one scenario in the mix".into());
        }
        // A mix is catalog-sized, so a scan of the ids before each one
        // costs less than hashing them.
        let repeated =
            (1..scenarios.len()).find(|&k| scenarios[..k].iter().any(|s| s.id == scenarios[k].id));
        if let Some(k) = repeated {
            return Err(format!(
                "the scenario mix repeats {:?}; list each scenario once",
                scenarios[k].id
            ));
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
    ///
    /// The plan is the session records, one per arrival in arrival order,
    /// none admitted yet, which both integrators advance from the same
    /// draws, clocks and byte counts. No dip is drawn and no trace is laid
    /// out here: each session's dips keep its trace seed, the integrator
    /// draws each flag the first time a read reaches it, and the replay
    /// completes the draw of an unclipped session, whose trace it lays
    /// out.
    fn plan(&self) -> Vec<SessionState> {
        if self.config.load <= 0.0 || self.config.sessions == 0 {
            return Vec::new();
        }
        let sessions: Vec<Session> = self
            .scenarios
            .iter()
            .map(|s| Session::new(&s.params))
            .collect();
        let catalog_n = sessions.len();
        let mean_movement: f64 = sessions.iter().map(|s| s.horizon).sum::<f64>() / catalog_n as f64;
        let lambda = self.config.load / mean_movement;

        let n = self.config.sessions as usize;
        let trace_seeds = SeedSequence::new(self.config.seed);
        let gap_stream = SeedSequence::new(self.config.seed).child(1);
        let shuffle_root = SeedSequence::new(self.config.seed).child(2);

        let mut planned = Vec::with_capacity(n);
        let mut t = 0.0f64;
        let mut order = Vec::new();
        for k in 0..n {
            if k % catalog_n == 0 {
                order = block_permutation(catalog_n, shuffle_root.child((k / catalog_n) as u64));
            }
            let u = unit_uniform(gap_stream.seed(k as u64));
            t += -u.ln() / lambda;
            let scenario_idx = order[k % catalog_n];
            let session = sessions[scenario_idx];
            planned.push(SessionState {
                scenario_idx,
                arrival_s: t,
                session,
                dips: self.config.shape.draw(trace_seeds.seed(k as u64)),
                start_s: 0.0,
                rel_s: 0.0,
                wait_s: 0.0,
                remaining: session.s_bytes,
                contended: false,
                flow: None,
                clipped: false,
                floored: false,
                solo: 0.0,
                next_break: None,
                break_gen: 0,
                t_anchor: 0.0,
                d_key: 0.0,
                epoch: 0,
                stamp: 0,
                first_piece: NO_PIECE,
                last_piece: NO_PIECE,
                drained_at: 0,
                done: false,
            });
        }
        planned
    }

    /// The fluid allocation integrator: admissions, max-min fair WAN
    /// shares, queue waits and each session's granted piecewise-constant
    /// allocation. Event-driven and analytic between events (arrivals,
    /// admissions, trace breakpoints of unclipped sessions, floor-window
    /// ends, drains).
    ///
    /// It advances the plan's session records in place, one record per
    /// session: the arrival lane walks them by index, and every calendar
    /// and heap entry names one. Each step its transitions share has one
    /// body: [`Integration::leave`] takes a drained session out of the
    /// fleet, [`SessionState::live`] tests a drain entry,
    /// [`SessionState::anchor`] materializes the bytes remaining,
    /// [`SessionState::set_break`] schedules a breakpoint, and
    /// [`SessionState::touch`] lists a session for the step's resolution.
    ///
    /// Five structures replace the test-only reference loop's full
    /// rescans:
    ///
    /// * a [`WaterFiller`] holds every active flow's WAN demand. A cap
    ///   change, arrival or drain only marks its level stale, and the
    ///   next read solves it with one scan up to the first clipped flow,
    ///   so the changes between two reads cost one solve and the max-min
    ///   fair shares are never recomputed from scratch. The newest flow
    ///   stays unplaced until the next admission settles it, so a
    ///   session held at a floor in the step that admits it settles
    ///   once, at its floor. A flow that settles above the last level
    ///   waits in an unsorted bag, with no position search, and the
    ///   scan stops at the bag's floor when that floor already fails,
    ///   so a clipped session's admission, floor and drain pay no
    ///   search; the flip query places the bag flows in its band first;
    /// * an [`EventQueue`] calendar holds per-session trace breakpoints
    ///   and projected unclipped drains, and the time-ordered arrivals
    ///   merge in front of it from their own [`ArrivalLane`], so each
    ///   step pops the winner instead of scanning every active flow;
    /// * clipped drains live in a min-heap keyed in **water-volume
    ///   space**: with `v(t) = ∫ level dt`, a continuously-clipped
    ///   session's remaining hits zero when `v` reaches the constant
    ///   `d = v(t₀) + θ·rem(t₀)` — level changes move every clipped
    ///   drain time at once, but leave the heap order untouched. A step
    ///   divides for the live head once: the quotient that sizes the
    ///   step is the one its drain phase tests;
    /// * **floor caps** keep clipped sessions off the calendar. The level
    ///   is `L = (C − Σ frozen caps)/(n − m)`, so a clipped flow's cap
    ///   only enters the search for the frozen prefix: while it stays
    ///   above `L`, its exact value moves neither `L`, nor the flow's
    ///   grant `L/θ`, nor its drain key. A session that resolves clipped
    ///   is registered at the smallest demand it has until its first
    ///   trace segment at or below the level
    ///   ([`DippedTrace::window_above`]), with one calendar entry at
    ///   the end of that window in place of one per breakpoint. When a
    ///   re-level lifts the level to a floor, the flip query reports the
    ///   flow, which wakes onto its true cap, and the step re-levels
    ///   until no floor is crossed;
    /// * **one water-level log** holds the grants of every clipped session
    ///   between its own status changes: a step that moves the level
    ///   appends `(t, level)` once, and a session records a [`Piece`] only
    ///   when it is touched itself, tagged with the log's length, so a
    ///   step costs its own events, not one piece per clipped session.
    ///   [`SessionState::grants`] expands the two when the report replays
    ///   the session.
    ///
    /// Scratch buffers are reused across events and a session's remaining
    /// bytes and trace clock are materialized lazily, only when its own
    /// status changes ([`SessionState::anchor`]).
    /// Each scenario's solo trace is laid out once per run from clear
    /// dips, and every session reads its own through a [`DippedTrace`]
    /// over that layout and its dips, so beyond the pieces each session
    /// records and the log, an admission allocates nothing and a drain
    /// frees nothing. The reads go by segment index: every breakpoint
    /// the integrator schedules (at admission, at a breakpoint, at a
    /// floor window's end, after a wake) is a segment start, so a session
    /// keeps its pending one as an index and reads its rate and its floor
    /// window there with no search, the instant verbatim from the clear
    /// layout. Only a wake, whose clock is arbitrary, searches
    /// ([`BandwidthTrace::segment_index`]). Arrival and calendar instants
    /// are stored verbatim and the clock jumps onto them exactly (no
    /// `t+dt` rounding), mirroring the reference loop's snapping; an
    /// unclipped session's recorded pieces carry its solo rates
    /// bit-for-bit, which preserves the fleet-of-one ≡ `SessionReplay`
    /// identity.
    fn integrate(&self, states: Vec<SessionState>) -> Integration {
        let wan_bps = self.config.wan.as_bytes_per_sec();
        let slots = self.config.slots as usize;
        let shape = self.config.shape;
        let catalog = self.scenarios.len();
        let mut admitted_per_scenario = vec![0usize; catalog];
        let mut queue = AdmissionQueue::new(self.config.policy, catalog);
        let clear: Vec<BandwidthTrace> = self
            .scenarios
            .iter()
            .map(|s| Session::new(&s.params).trace(shape, &Dips::default()))
            .collect();

        // Every admitted session's flow, so `wf.len()` is the number
        // moving.
        let mut wf = WaterFiller::new(wan_bps);
        // Live flow handle → session index (slab slots are recycled, so
        // this stays as small as the peak concurrency).
        let mut flow_session: Vec<usize> = Vec::new();
        #[cfg(test)]
        let recording = tests::Recording::new(states.len());
        let mut run = Integration {
            states,
            pieces: Vec::new(),
            log: Vec::new(),
            peak_active: 0,
            events: 0,
            floor_counts: FloorCounts::default(),
            #[cfg(test)]
            recording,
        };

        let mut arrivals = ArrivalLane::default();
        let mut calendar: EventQueue<Seconds, FleetEvent> = EventQueue::new();
        let mut clip_heap = ClipHeap::new();
        let mut clip_seq = 0u64;
        // Sessions whose own status may have changed this step.
        let mut touched: Vec<usize> = Vec::new();
        let mut stamp = 0u64;
        // Sessions whose flow caps lie in a band the level swept.
        let mut band: Vec<usize> = Vec::new();

        let mut t = 0.0f64;
        let mut v = 0.0f64;

        loop {
            let level = wf.level();
            let draining = level > 0.0 && level.is_finite();
            // The next scheduled instant: the arrival lane's head or the
            // calendar's, whichever is earlier.
            let next_at = match (arrivals.peek(&run.states), calendar.peek_time()) {
                (Some(a), Some(&c)) => Some(a.min(c)),
                (a, c) => a.or(c.copied()),
            };
            let d_sched = next_at.map(|s| s.value() - t);
            // The earliest clipped drain as a delta — the incremental
            // analog of the reference loop's `remaining / rate` scan.
            // Phase 1 tests this quotient for the head, not a second one.
            let clip_head =
                next_clip_drain(&mut clip_heap, &run.states, v, level).filter(|_| draining);
            let d_clip = clip_head.map(|(due, _)| due.max(0.0));
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
            let mut due = clip_head;
            while let Some((delta, i)) = due {
                if delta > dt {
                    break;
                }
                clip_heap.pop();
                run.leave(i, &mut wf);
                due = next_clip_drain(&mut clip_heap, &run.states, v_pre, level);
            }

            // 2. Events scheduled at exactly this instant: arrivals in
            // plan order, then calendar entries in (time, seq) order.
            if at_scheduled {
                let now = Seconds::new(t_next);
                while let Some(i) = arrivals.pop_at(&run.states, now) {
                    let scenario_idx = run.states[i].scenario_idx;
                    queue.push(
                        i,
                        scenario_idx,
                        tier_rank(self.scenarios[scenario_idx].tier),
                    );
                    run.events += 1;
                }
                while calendar.peek_time() == Some(&now) {
                    let Some((_, event)) = calendar.pop() else {
                        break;
                    };
                    match event {
                        FleetEvent::Breakpoint(i, gen) => {
                            let st = &mut run.states[i];
                            if st.done || st.break_gen != gen {
                                continue;
                            }
                            let (Some(flow), Some(k)) = (st.flow, st.next_break) else {
                                continue;
                            };
                            // Materialize remaining over the outgoing
                            // segment or floor window, then snap the trace
                            // clock onto the breakpoint verbatim (the
                            // reference loop's rounding guard) and register
                            // the true cap there.
                            let k = k as usize;
                            let b = clear[st.scenario_idx].segment_start(k);
                            let (solo, next) = st.solo(shape, &clear).segment_at(k);
                            st.anchor(t_next, v, b);
                            wf.update(flow, st.session.theta * solo);
                            if st.floored {
                                st.floored = false;
                                run.floor_counts.expiries += 1;
                            }
                            st.solo = solo;
                            st.set_break(i, next, &clear, (t_next, b), &mut calendar);
                            st.touch(i, stamp, &mut touched);
                            run.events += 1;
                        }
                        FleetEvent::Drain(i, epoch) => {
                            if run.states[i].live(epoch) {
                                run.leave(i, &mut wf);
                            }
                        }
                    }
                }
            }

            // 3. Admissions into freed slots.
            while wf.len() < slots {
                let Some(i) = queue.pop(&admitted_per_scenario) else {
                    break;
                };
                let st = &mut run.states[i];
                st.admit(t_next);
                let (solo, next) = st.solo(shape, &clear).segment_at(0);
                admitted_per_scenario[st.scenario_idx] += 1;
                let flow = wf.insert(st.session.theta * solo);
                if flow.index() >= flow_session.len() {
                    flow_session.resize(flow.index() + 1, usize::MAX);
                }
                flow_session[flow.index()] = i;
                st.flow = Some(flow);
                st.solo = solo;
                st.set_break(i, next, &clear, (t_next, 0.0), &mut calendar);
                st.touch(i, stamp, &mut touched);
                run.events += 1;
            }
            run.peak_active = run.peak_active.max(wf.len() as u32);

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
                    let st = &mut run.states[i];
                    st.touch(i, stamp, &mut touched);
                    if !st.floored {
                        continue;
                    }
                    let Some(flow) = st.flow else {
                        continue;
                    };
                    // Wake: the trace clock ran on past segment switches
                    // with no calendar entry, so search for where it is
                    // now: the one trace read that does.
                    let rel_now = st.rel_s + (t_next - st.t_anchor);
                    let k = clear[st.scenario_idx].segment_index(rel_now);
                    let (solo, next) = st.solo(shape, &clear).segment_at(k);
                    wf.update(flow, st.session.theta * solo);
                    st.floored = false;
                    st.solo = solo;
                    st.break_gen += 1;
                    st.set_break(i, next, &clear, (t_next, rel_now), &mut calendar);
                    run.floor_counts.wakes += 1;
                    run.events += 1;
                    woke = true;
                }
                if !woke {
                    break;
                }
                level_new = wf.level();
            }
            let moved = level_new.to_bits() != level.to_bits();
            for &i in &touched {
                let st = &mut run.states[i];
                if st.done {
                    continue;
                }
                let Some(flow) = st.flow else { continue };
                let now_clipped = wf.is_clipped(flow);
                let theta = st.session.theta;
                // Materialize remaining at `t_next` under the dynamics
                // that governed since the anchor, then re-anchor. For
                // sessions whose own event already re-anchored above
                // this is an exact no-op (`t_next - t_anchor == 0`).
                st.anchor(t_next, v, st.rel_s + (t_next - st.t_anchor));
                st.clipped = now_clipped;
                let piece = Piece {
                    rel: st.rel_s,
                    rate: if now_clipped {
                        level_new / theta
                    } else {
                        st.solo
                    },
                    t_anchor: t_next,
                    log_at: run.log.len(),
                    clipped: now_clipped,
                    next: NO_PIECE,
                };
                st.add_piece(&mut run.pieces, piece);
                #[cfg(test)]
                run.recording.push(i, piece);
                if now_clipped {
                    st.contended = true;
                    st.d_key = v + theta * st.remaining;
                    clip_heap.push(Reverse((st.d_key.to_bits(), clip_seq, i, st.epoch)));
                    clip_seq += 1;
                    // Hold it at a floor cap when its trace stays above
                    // the level past the pending breakpoint.
                    let window = match st.next_break {
                        Some(k) => st
                            .solo(shape, &clear)
                            .window_above(k as usize, |rate| theta * rate > level_new),
                        None => None,
                    };
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
                        st.floored = true;
                        st.break_gen += 1;
                        st.set_break(i, end, &clear, (t_next, st.rel_s), &mut calendar);
                        run.floor_counts.floors += 1;
                    }
                } else if st.solo > 0.0 {
                    // A zero-rate segment never drains — the kernel
                    // guarantees a positive final rate, so a later
                    // breakpoint always reschedules this.
                    calendar.schedule(
                        Seconds::new(t_next + st.remaining / st.solo),
                        FleetEvent::Drain(i, st.epoch),
                    );
                }
            }
            // Level moved: every still-clipped session's grant moved with
            // it. One log entry records the move for all of them; each
            // session's clipped piece reads it back at its own clock
            // (touched ones already carry the new rate, which the
            // bit-equal merge in `push_piece` keeps).
            if moved {
                #[cfg(test)]
                run.recording.level_moved(|i| {
                    let st = &run.states[i];
                    let rel_now = st.rel_s + (t_next - st.t_anchor);
                    (rel_now, level_new / st.session.theta)
                });
                run.log.push((t_next, level_new));
            }

            t = t_next;
        }
        run
    }

    /// One session's reported record: its granted allocation replayed
    /// through the movement pipeline at the configured fidelity. An
    /// uncontended session replays its solo trace through the *same*
    /// session pipeline as `SessionReplay::evaluate_cell` — the
    /// structural guarantee behind the fleet-of-one bit-identity tests.
    /// A contended session's grants are expanded into `columns`, which
    /// the caller passes from session to session, and the pipeline's
    /// trace hands them back. `model` is the scenario's verdict and its
    /// remote compute time.
    fn finalize(
        &self,
        session: u32,
        st: &SessionState,
        (pieces, log): (&[Piece], &[(f64, f64)]),
        (model, t_remote): &(Verdict, f64),
        columns: &mut (Vec<f64>, Vec<f64>),
    ) -> Result<FleetRecord, String> {
        let trace = if !st.contended {
            // Never queued, never clipped: the granted allocation IS the
            // solo trace — laid out again from its draws, bit for bit the
            // trace the single-session replay builds.
            st.session.trace(self.config.shape, &st.dips)
        } else {
            let (mut starts, mut rates) = std::mem::take(columns);
            st.grants(pieces, log, &mut starts, &mut rates);
            BandwidthTrace::from_columns(starts, rates)
                .map_err(|e| format!("session {session} composed an invalid allocation: {e}"))?
        };
        let stream = st.session.stream(self.config.frames, trace);
        let movement = stream
            .run_fidelity(self.config.fidelity)
            .completion
            .as_secs();
        *columns = stream.trace.into_columns();

        let realized_t_pct = st.wait_s + movement + t_remote;
        let model_t_pct = model.t_pct.as_secs();
        let scenario = &self.scenarios[st.scenario_idx];
        let realized_decision = judge(
            scenario.params.required_stream_rate(),
            scenario.params.effective_rate(),
            model.t_local,
            TimeDelta::from_secs(realized_t_pct),
        );
        Ok(FleetRecord {
            session,
            scenario_id: scenario.id.clone(),
            arrival_s: st.arrival_s,
            wait_s: st.wait_s,
            movement_s: movement,
            completion_s: st.start_s + movement + t_remote,
            contended: st.contended,
            model_t_pct_s: model_t_pct,
            realized_t_pct_s: realized_t_pct,
            slowdown: realized_t_pct / model_t_pct.max(1e-12),
            model_decision: model.decision,
            realized_decision,
            mispredict: realized_decision != model.decision,
        })
    }

    /// Run the fleet on `pool`. Every worker count returns the same
    /// bytes: the allocation integrator runs on the calling thread, and
    /// the per-session pipeline replays use position-derived inputs only.
    ///
    /// # Errors
    /// Fails only if a composed allocation trace is rejected by the
    /// kernel's validator — impossible by construction, surfaced instead
    /// of unwrapped.
    pub fn run(&self, pool: &ThreadPool) -> Result<FleetReport, String> {
        self.report(pool, self.integrate(self.plan()))
    }

    /// Replay every integrated session through the movement pipeline,
    /// fanned across `pool`, each claimed run of sessions reusing one
    /// trace's storage, and aggregate the fleet report.
    fn report(
        &self,
        pool: &ThreadPool,
        Integration {
            states,
            pieces,
            log,
            peak_active,
            events,
            ..
        }: Integration,
    ) -> Result<FleetReport, String> {
        // The model side of every session: its scenario's verdict and
        // remote compute time, which contention leaves alone.
        let models: Vec<(Verdict, f64)> = self
            .scenarios
            .iter()
            .map(|s| {
                let t_remote = CompletionModel::new(s.params).t_remote().as_secs();
                (verdict(&s.params), t_remote)
            })
            .collect();

        let indices: Vec<u32> = (0..states.len() as u32).collect();
        let no_columns = || (Vec::new(), Vec::new());
        let eval = |columns: &mut (Vec<f64>, Vec<f64>), &k: &u32| {
            let st = &states[k as usize];
            let model = &models[st.scenario_idx];
            self.finalize(k, st, (&pieces, &log), model, columns)
        };
        let records = pool
            .map_init(&indices, no_columns, eval)
            .into_iter()
            .collect::<Result<Vec<FleetRecord>, String>>()?;

        // One pass groups the outcomes by scenario. Each scenario's stay
        // in session order: its float sums depend on that order.
        let mut by_scenario = vec![Vec::new(); self.scenarios.len()];
        let mut outcomes = Vec::with_capacity(records.len());
        let mut slowdowns = Vec::with_capacity(records.len());
        let mut makespan = 0.0f64;
        for (st, r) in states.iter().zip(&records) {
            let outcome = (r.mispredict, r.slowdown);
            by_scenario[st.scenario_idx].push(outcome);
            outcomes.push(outcome);
            slowdowns.push(r.slowdown);
            makespan = makespan.max(r.completion_s);
        }
        let scenarios = self
            .scenarios
            .iter()
            .zip(&by_scenario)
            .filter(|(_, outcomes)| !outcomes.is_empty())
            .map(|(s, outcomes)| ScenarioContention {
                scenario_id: s.id.clone(),
                summary: ContentionSummary::from_outcomes(outcomes),
            })
            .collect();
        let overall = ContentionSummary::from_outcomes(&outcomes);
        let [p50, p90, p99] =
            select_quantiles(&mut slowdowns, [0.50, 0.90, 0.99]).unwrap_or([1.0; 3]);
        Ok(FleetReport {
            load: self.config.load,
            shape: self.config.shape,
            policy: self.config.policy,
            slots: self.config.slots,
            wan_gbps: self.config.wan.as_gbps(),
            makespan_s: makespan,
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

    /// The pieces as the integrator recorded them before its water-level
    /// log: each piece a session's own touch pushes goes onto its list,
    /// and each level move onto the list of every session clipped then,
    /// at that session's clock. The oracle of [`SessionState::grants`].
    pub(super) struct Recording {
        pub(super) pieces: Vec<Vec<(f64, f64)>>,
        /// Currently-clipped sessions, in no order (swap-remove).
        clipped_set: Vec<usize>,
        clipped_pos: Vec<usize>,
    }

    impl Recording {
        pub(super) fn new(n: usize) -> Self {
            Recording {
                pieces: vec![Vec::new(); n],
                clipped_set: Vec::new(),
                clipped_pos: vec![usize::MAX; n],
            }
        }

        /// Session `i` pushed `piece`, and is clipped from now on if the
        /// piece is.
        pub(super) fn push(&mut self, i: usize, piece: Piece) {
            record(&mut self.pieces[i], piece.rel, piece.rate);
            if !piece.clipped {
                self.leave(i);
            } else if self.clipped_pos[i] == usize::MAX {
                self.clipped_pos[i] = self.clipped_set.len();
                self.clipped_set.push(i);
            }
        }

        /// Session `i` is no longer clipped; a no-op when it was not.
        pub(super) fn leave(&mut self, i: usize) {
            let p = self.clipped_pos[i];
            if p == usize::MAX {
                return;
            }
            self.clipped_set.swap_remove(p);
            if p < self.clipped_set.len() {
                self.clipped_pos[self.clipped_set[p]] = p;
            }
            self.clipped_pos[i] = usize::MAX;
        }

        /// The level moved: every clipped session `i` gets the piece
        /// `at(i)`, its clock and its new grant.
        pub(super) fn level_moved(&mut self, at: impl Fn(usize) -> (f64, f64)) {
            for &i in &self.clipped_set {
                let (rel, rate) = at(i);
                record(&mut self.pieces[i], rel, rate);
            }
        }
    }

    /// Append a piece, merging bit-equal consecutive rates: the
    /// recording's merge.
    fn record(pieces: &mut Vec<(f64, f64)>, rel_t: f64, rate: f64) {
        if let Some(last) = pieces.last_mut() {
            if rel_t <= last.0 {
                last.1 = rate;
                return;
            }
            if rate.to_bits() == last.1.to_bits() {
                return;
            }
        }
        pieces.push((rel_t, rate));
    }

    /// The original allocation loop, byte-faithful to the seed
    /// integrator: the oracle [`FleetSim::integrate`] is differentially
    /// tested against.
    impl FleetSim {
        /// The seed allocation loop: every event re-derives all solo rates,
        /// re-runs [`progressive_fill`] over every active flow and rescans
        /// all drains and breakpoints — O(k²) per event. Every session's
        /// solo trace is laid out from its own dips, so the differential
        /// test holds the incremental engine's [`DippedTrace`] reads to
        /// the layout.
        fn integrate_reference(&self, mut states: Vec<SessionState>) -> Integration {
            let mut pieces = Vec::new();
            let traces: Vec<BandwidthTrace> = states
                .iter()
                .map(|st| st.session.trace(self.config.shape, &st.dips))
                .collect();
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
                    states[i].admit(t);
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
                    .map(|&i| traces[i].rate_at(states[i].rel_s))
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
                        states[i].contended = true;
                        rates.push(shares[j] / states[i].session.theta);
                    } else {
                        rates.push(solo[j]);
                    }
                }
                // Pieces that no level move follows: the grants replay them
                // as they are.
                for (j, &i) in active.iter().enumerate() {
                    let piece = Piece {
                        rel: states[i].rel_s,
                        rate: rates[j],
                        t_anchor: t,
                        log_at: 0,
                        clipped: false,
                        next: NO_PIECE,
                    };
                    states[i].add_piece(&mut pieces, piece);
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
                    .map(|&i| traces[i].next_change(states[i].rel_s))
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
                        states[i].done = true;
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
                pieces,
                log: Vec::new(),
                peak_active,
                events,
                floor_counts: FloorCounts::default(),
                recording: Recording::new(0),
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
            let pool = ThreadPool::new(1);
            self.report(&pool, self.integrate_reference(self.plan()))
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

    /// A session's pending breakpoint is a segment index, not an
    /// instant, so its record is 224 bytes; it held 232 with the instant.
    #[test]
    fn a_session_record_does_not_grow() {
        let size = std::mem::size_of::<SessionState>();
        assert!(size <= 224, "a session record grew to {size} bytes");
    }

    #[test]
    fn zero_load_draws_no_arrivals() {
        let config = FleetConfig::quick(42).with_load(0.0);
        let report = FleetSim::bundled(config)
            .unwrap()
            .run(&ThreadPool::new(1))
            .unwrap();
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
                    .run(&ThreadPool::new(1));
                for (engine, fleet) in [
                    ("incremental", sim.run(&ThreadPool::new(1)).unwrap()),
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

    /// A session that queues for its slot but is never clipped is
    /// contended without being clipped: `contended` reads its wait, and
    /// its movement, replayed from its grants, is its scenario's steady
    /// replay cell bit for bit, at both fidelities and with both
    /// integrators. One slot makes the catalog fleet queue; a backbone far
    /// above any demand clips no one.
    #[test]
    fn a_queued_session_that_is_never_clipped_moves_as_its_replay_cell() {
        for fidelity in [Fidelity::Exact, Fidelity::Fluid] {
            let config = FleetConfig {
                shape: TraceShape::Steady,
                slots: 1,
                wan: Rate::from_gbps(100_000.0),
                ..FleetConfig::quick(42).with_fidelity(fidelity)
            };
            let sim = FleetSim::bundled(config).unwrap();
            let mut rc = ReplayConfig::quick(42).with_fidelity(fidelity);
            rc.shapes = vec![TraceShape::Steady];
            let replay = SessionReplay::new(Scenario::all(), rc)
                .unwrap()
                .run(&ThreadPool::new(1));
            for (engine, fleet) in [
                ("incremental", sim.run(&ThreadPool::new(1)).unwrap()),
                ("reference", sim.run_reference().unwrap()),
            ] {
                assert!(
                    fleet.records.iter().any(|r| r.wait_s > 0.0),
                    "{fidelity:?}/{engine}: the sessions must queue"
                );
                for r in &fleet.records {
                    let tag = format!("{fidelity:?}/{engine}/session {}", r.session);
                    assert_eq!(r.contended, r.wait_s > 0.0, "{tag}: contended");
                    let cell = replay
                        .records
                        .iter()
                        .find(|c| c.scenario_id == r.scenario_id)
                        .unwrap();
                    assert_eq!(
                        r.movement_s.to_bits(),
                        cell.sim_transfer_s.to_bits(),
                        "{tag}: movement {} vs {}",
                        r.movement_s,
                        cell.sim_transfer_s
                    );
                }
            }
        }
    }

    #[test]
    fn huge_fleet_is_bounded_by_the_admission_queue() {
        let mut config = FleetConfig::quick(7).with_load(32.0);
        config.sessions = 300;
        config.slots = 3;
        let report = FleetSim::bundled(config)
            .unwrap()
            .run(&ThreadPool::new(1))
            .unwrap();
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
        let seq = fleet.run(&ThreadPool::new(1)).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn contention_slows_sessions_and_can_flip_verdicts() {
        // A backbone far below the summed demands forces clipping.
        let mut config = FleetConfig::quick(42).with_load(8.0);
        config.wan = Rate::from_gbps(10.0);
        let report = FleetSim::bundled(config)
            .unwrap()
            .run(&ThreadPool::new(1))
            .unwrap();
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
        // The quick cell, and 13 sessions at load 6 through a 40 Gbps
        // backbone (seed 7) on 4 and on 3 DTN slots.
        let small = |slots| FleetConfig {
            sessions: 13,
            slots,
            wan: Rate::from_gbps(40.0),
            ..FleetConfig::standard(7).with_load(6.0)
        };
        let cells = [FleetConfig::quick(42).with_load(6.0), small(4), small(3)];
        for (cell, shape) in cells
            .iter()
            .flat_map(|cell| TraceShape::ALL.map(|shape| (cell, shape)))
        {
            let config = cell.clone().with_shape(shape);
            let fluid = FleetSim::bundled(config.clone().with_fidelity(Fidelity::Fluid))
                .unwrap()
                .run(&ThreadPool::new(1))
                .unwrap();
            let exact = FleetSim::bundled(config.with_fidelity(Fidelity::Exact))
                .unwrap()
                .run(&ThreadPool::new(1))
                .unwrap();
            let tol = sss_sim::fluid_tolerance(shape);
            for (f, e) in fluid.records.iter().zip(&exact.records) {
                let rel = (f.movement_s - e.movement_s).abs() / e.movement_s.abs().max(1e-12);
                assert!(
                    rel <= tol,
                    "{} sessions on {} slots, {}/{shape}: fluid {} vs exact {} (rel {rel} > tol {tol})",
                    cell.sessions,
                    cell.slots,
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
            .run(&ThreadPool::new(1))
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
        let report = FleetSim::bundled(config)
            .unwrap()
            .run(&ThreadPool::new(1))
            .unwrap();
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

    /// A mix that lists a scenario twice is refused: the report keys each
    /// scenario's summary on its place in the mix, so a repeat would
    /// split its sessions between two summaries.
    #[test]
    fn a_mix_that_repeats_a_scenario_is_rejected() {
        let lcls = Scenario::by_id("lcls-coherent-scattering").unwrap();
        let aps = Scenario::by_id("aps-tomography").unwrap();
        let mix = vec![lcls.clone(), aps.clone(), lcls.clone()];
        assert_eq!(
            FleetSim::new(mix, FleetConfig::quick(1)).unwrap_err(),
            "the scenario mix repeats \"lcls-coherent-scattering\"; list each scenario once"
        );
        assert!(FleetSim::new(vec![lcls, aps], FleetConfig::quick(1)).is_ok());
    }

    #[test]
    fn report_serde_round_trip() {
        let report = FleetSim::bundled(FleetConfig::quick(42))
            .unwrap()
            .run(&ThreadPool::new(1))
            .unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn tables_and_csv_cover_all_sessions() {
        let report = FleetSim::bundled(FleetConfig::quick(42))
            .unwrap()
            .run(&ThreadPool::new(1))
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
            .run(&ThreadPool::new(1))
            .unwrap();
        let b = FleetSim::bundled(FleetConfig::quick(42))
            .unwrap()
            .run(&ThreadPool::new(1))
            .unwrap();
        assert_eq!(a, b);
        let c = FleetSim::bundled(FleetConfig::quick(43))
            .unwrap()
            .run(&ThreadPool::new(1))
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
            let run = sim.integrate(sim.plan());
            let counts = run.floor_counts;
            totals.floors += counts.floors;
            totals.wakes += counts.wakes;
            totals.expiries += counts.expiries;
            let inc = sim.report(&ThreadPool::new(1), run).unwrap();
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

    /// Each session's grants, its own pieces expanded with the fleet's
    /// water-level log, equal bit for bit the pieces the integrator
    /// recorded before the log: under every shape and policy at loads
    /// from 4 to 512, and on the light cell, where the level moves under
    /// most of its sessions. The log holds at most one entry per event.
    #[test]
    fn grants_expand_to_the_recorded_pieces_bit_for_bit() {
        let light = FleetConfig {
            sessions: 2000,
            load: 8.0,
            slots: 128,
            wan: Rate::from_gbps(400.0),
            shape: TraceShape::Bursty,
            ..FleetConfig::standard(1)
        };
        let cells = AdmissionPolicy::ALL.into_iter().flat_map(|policy| {
            TraceShape::ALL.into_iter().flat_map(move |shape| {
                [4.0, 32.0, 512.0].map(|load| FleetConfig {
                    sessions: 300,
                    slots: 16,
                    wan: Rate::from_gbps(40.0),
                    ..FleetConfig::standard(3)
                        .with_load(load)
                        .with_shape(shape)
                        .with_policy(policy)
                })
            })
        });
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for config in cells.chain([light]) {
            let cell = format!("{}/{}/load {}", config.shape, config.policy, config.load);
            let sim = FleetSim::bundled(config).unwrap();
            let run = sim.integrate(sim.plan());
            assert!(
                run.log.len() as u64 <= run.events,
                "{cell}: {} level moves logged in {} events",
                run.log.len(),
                run.events
            );
            let (mut starts, mut rates) = (Vec::new(), Vec::new());
            let mut granted = 0;
            for (k, (st, recorded)) in run.states.iter().zip(&run.recording.pieces).enumerate() {
                st.grants(&run.pieces, &run.log, &mut starts, &mut rates);
                let want: (Vec<f64>, Vec<f64>) = recorded.iter().copied().unzip();
                assert_eq!(bits(&starts), bits(&want.0), "{cell}/session {k}: starts");
                assert_eq!(bits(&rates), bits(&want.1), "{cell}/session {k}: rates");
                granted += starts.len();
            }
            if sim.config().load == 8.0 {
                let own = run.pieces.len();
                assert!(
                    granted > 10 * own,
                    "{cell}: {granted} pieces granted from {own} of the sessions' own"
                );
            }
        }
    }

    /// Every session's movement, replayed in place on the pool, equals
    /// bit for bit a fresh pipeline's over the trace `from_segments`
    /// builds from its recorded pieces (or over its solo trace, when it
    /// never contended): on CI's 1000-session bursty cell, at both
    /// fidelities, on 1, 2 and 8 workers.
    #[test]
    fn in_place_replays_match_a_fresh_pipeline_per_session() {
        for fidelity in [Fidelity::Fluid, Fidelity::Exact] {
            let config = FleetConfig {
                sessions: 1000,
                load: 64.0,
                slots: 32,
                wan: Rate::from_gbps(40.0),
                shape: TraceShape::Bursty,
                fidelity,
                ..FleetConfig::standard(7)
            };
            let sim = FleetSim::bundled(config.clone()).unwrap();
            let run = sim.integrate(sim.plan());
            let want: Vec<u64> = run
                .states
                .iter()
                .zip(&run.recording.pieces)
                .map(|(st, recorded)| {
                    let trace = if st.contended {
                        let segments: Vec<(f64, Rate)> = recorded
                            .iter()
                            .map(|&(rel, r)| (rel, Rate::from_bytes_per_sec(r)))
                            .collect();
                        BandwidthTrace::from_segments(&segments).unwrap()
                    } else {
                        st.session.trace(config.shape, &st.dips)
                    };
                    let stream = st.session.stream(config.frames, trace);
                    stream.run_fidelity(fidelity).completion.as_secs().to_bits()
                })
                .collect();
            assert!(run.states.iter().any(|st| st.contended));
            for workers in [1, 2, 8] {
                let report = sim.run(&ThreadPool::new(workers)).unwrap();
                let got: Vec<u64> = report
                    .records
                    .iter()
                    .map(|r| r.movement_s.to_bits())
                    .collect();
                assert_eq!(got, want, "{fidelity:?} on {workers} workers");
            }
        }
    }

    /// Once either integrator returns, every session has drained, under
    /// every shape, and each cell drained clipped and unclipped sessions
    /// alike.
    #[test]
    fn integrators_drain_every_session_clipped_or_not() {
        for shape in TraceShape::ALL {
            let mut config = FleetConfig::quick(5).with_load(6.0).with_shape(shape);
            config.wan = Rate::from_gbps(40.0);
            let sim = FleetSim::bundled(config).unwrap();
            for (engine, run) in [
                ("incremental", sim.integrate(sim.plan())),
                ("reference", sim.integrate_reference(sim.plan())),
            ] {
                assert!(
                    run.states.iter().any(|st| st.contended)
                        && run.states.iter().any(|st| !st.contended),
                    "{shape}/{engine}: the cell must drain clipped and unclipped sessions"
                );
                for (i, st) in run.states.iter().enumerate() {
                    assert!(st.done, "{shape}/{engine}: session {i} never drained");
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
        let mut states = sim.plan();
        states.truncate(2);
        states[0].arrival_s = 2.0;
        states[1].arrival_s = 1.0;
        sim.integrate(states);
    }

    /// Satellite gate: the policy-specialized [`AdmissionQueue`] pops
    /// sessions in exactly the order the reference `pick` scan (plus
    /// `Vec::remove`) produces, for every policy, across an interleaved
    /// arrival/admission schedule.
    #[test]
    fn admission_queue_matches_the_reference_scan() {
        for policy in AdmissionPolicy::ALL {
            let sim = FleetSim::bundled(FleetConfig::quick(7).with_policy(policy)).unwrap();
            let states = sim.plan();
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
