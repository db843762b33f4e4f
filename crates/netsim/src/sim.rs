//! The discrete-event simulation core.

use serde::{Deserialize, Serialize};
use sss_sim::{EventQueue, SimTime};
use sss_stats::RateSeries;
use sss_units::{Bytes, TimeDelta};

use crate::config::SimConfig;
use crate::link::{Enqueue, Link, LinkStats};
use crate::packet::{FlowId, Packet, PacketKind};
use crate::tcp::{AckInfo, TcpAction, TcpReceiver, TcpSender, TcpSenderStats};

/// Specification of one TCP transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Index of the client host the flow originates from.
    pub client: u32,
    /// Payload volume to move.
    pub bytes: Bytes,
    /// Simulated start time.
    pub start: SimTime,
}

impl FlowSpec {
    /// Convenience constructor.
    pub fn new(client: u32, bytes: Bytes, start: SimTime) -> Self {
        FlowSpec {
            client,
            bytes,
            start,
        }
    }
}

/// Outcome of one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRecord {
    /// Flow identity.
    pub id: FlowId,
    /// Originating client index.
    pub client: u32,
    /// Payload bytes requested.
    pub bytes: u64,
    /// Scheduled start time.
    pub start: SimTime,
    /// When every payload byte had been cumulatively acknowledged.
    pub completion: Option<SimTime>,
    /// Sender statistics (retransmissions, timeouts, ...).
    pub tcp: TcpSenderStats,
}

impl FlowRecord {
    /// True when the transfer finished within the simulation horizon.
    pub fn completed(&self) -> bool {
        self.completion.is_some()
    }

    /// Flow completion time (start → fully acknowledged), the paper's
    /// per-transfer metric. `None` if the flow never finished.
    pub fn fct(&self) -> Option<TimeDelta> {
        self.completion.map(|c| c.since(self.start))
    }
}

/// One congestion-window trace sample (see
/// [`Simulator::enable_cwnd_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CwndSample {
    /// Sample time.
    pub at: SimTime,
    /// The flow sampled.
    pub flow: FlowId,
    /// Congestion window in bytes.
    pub cwnd: f64,
    /// Smoothed RTT in seconds, when an estimate exists.
    pub srtt_s: Option<f64>,
    /// True while the sender is in loss recovery.
    pub in_recovery: bool,
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-flow outcomes, indexed by [`FlowId`].
    pub flows: Vec<FlowRecord>,
    /// Bottleneck-link counters (the server NIC the paper saturates).
    pub bottleneck: LinkStats,
    /// Per-client access-link counters.
    pub access: Vec<LinkStats>,
    /// Payload bytes arriving at the server, binned over time — the
    /// simulated equivalent of the paper's interface-counter samples.
    pub delivered: RateSeries,
    /// Simulated time of the last processed event.
    pub end: SimTime,
    /// True when the run hit `max_sim_time` with events still pending.
    pub truncated: bool,
    /// Total events processed (diagnostic / benchmarking).
    pub events: u64,
    /// Congestion-window trace (empty unless tracing was enabled).
    pub cwnd_trace: Vec<CwndSample>,
    /// The configuration the run used.
    pub config: SimConfig,
}

impl SimReport {
    /// Mean bottleneck utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: TimeDelta) -> f64 {
        self.delivered.utilization_over(
            self.config.bottleneck.rate.as_bytes_per_sec(),
            horizon.as_secs(),
        )
    }

    /// The maximum flow completion time — `T_worst` in the paper.
    pub fn worst_fct(&self) -> Option<TimeDelta> {
        self.flows
            .iter()
            .filter_map(FlowRecord::fct)
            .max_by(|a, b| a.as_secs().total_cmp(&b.as_secs()))
    }

    /// True when every flow completed.
    pub fn all_completed(&self) -> bool {
        self.flows.iter().all(FlowRecord::completed)
    }
}

/// Event payload.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// A flow's scheduled start time arrived.
    FlowStart(FlowId),
    /// The access link of client `u32` finished serializing a packet.
    AccessTxDone(u32),
    /// The bottleneck link finished serializing a packet.
    BottleneckTxDone,
    /// A packet reached the bottleneck queue input.
    ArriveBottleneck(Packet),
    /// A packet reached the server NIC.
    ArriveServer(Packet),
    /// An acknowledgement (cumulative + optional SACK) reached the client.
    AckArrive(FlowId, AckInfo),
    /// Retransmission timer fired (valid only if `u64` matches the
    /// sender's current generation).
    RtoFire(FlowId, u64),
}

struct FlowState {
    spec: FlowSpec,
    sender: TcpSender,
    receiver: TcpReceiver,
    completion: Option<SimTime>,
}

/// The simulator: a star of clients behind access links, one shared
/// bottleneck, one server. See the crate docs for the topology rationale.
pub struct Simulator {
    cfg: SimConfig,
    access: Vec<Link>,
    bottleneck: Link,
    flows: Vec<FlowState>,
    queue: EventQueue<SimTime, EventKind>,
    now: SimTime,
    delivered: RateSeries,
    events: u64,
    /// Per-flow last-trace time when tracing is on.
    trace: Option<(u64, Vec<SimTime>, Vec<CwndSample>)>,
}

impl Simulator {
    /// Create a simulator with `clients` client hosts.
    ///
    /// # Panics
    /// Panics on an invalid configuration or zero clients.
    pub fn new(cfg: SimConfig, clients: u32) -> Self {
        cfg.validate().expect("invalid SimConfig");
        assert!(clients > 0, "need at least one client host");
        Simulator {
            cfg,
            // Per-link seeds only matter for RED's probabilistic drops;
            // fixed constants keep runs reproducible.
            access: (0..clients)
                .map(|i| Link::new(cfg.access, 0xACCE55 ^ (i as u64) << 8))
                .collect(),
            bottleneck: Link::new(cfg.bottleneck, 0xB0771E),
            flows: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            delivered: RateSeries::new(cfg.counter_bin.as_secs()),
            events: 0,
            trace: None,
        }
    }

    /// Record a congestion-window sample per flow at most every
    /// `interval_ns` nanoseconds of simulated time (ACK-driven, so quiet
    /// flows produce no samples). Call before `run()`.
    pub fn enable_cwnd_trace(&mut self, interval_ns: u64) {
        self.trace = Some((interval_ns.max(1), Vec::new(), Vec::new()));
    }

    /// Number of client hosts.
    pub fn clients(&self) -> u32 {
        self.access.len() as u32
    }

    /// Register a flow; returns its id.
    ///
    /// # Panics
    /// Panics when the client index is out of range or the size is not a
    /// positive whole number of bytes.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(
            (spec.client as usize) < self.access.len(),
            "client {} out of range ({} clients)",
            spec.client,
            self.access.len()
        );
        let bytes = spec.bytes.as_b();
        assert!(
            // sss-lint: allow(D004, fract()==0.0 is the exact integrality test)
            bytes >= 1.0 && bytes.fract() == 0.0 && bytes.is_finite(),
            "flow size must be a positive whole number of bytes, got {bytes}"
        );
        let id = FlowId(self.flows.len() as u32);
        self.flows.push(FlowState {
            spec,
            sender: TcpSender::new(self.cfg.tcp, bytes as u64),
            receiver: TcpReceiver::new(),
            completion: None,
        });
        self.schedule(spec.start, EventKind::FlowStart(id));
        id
    }

    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        self.queue.schedule(at, kind);
    }

    /// Run to completion (or until `max_sim_time`) and report.
    pub fn run(mut self) -> SimReport {
        let horizon = SimTime::ZERO + self.cfg.max_sim_time;
        let mut truncated = false;
        while let Some((at, kind)) = self.queue.pop() {
            if at > horizon {
                truncated = true;
                break;
            }
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events += 1;
            self.dispatch(kind);
        }
        SimReport {
            flows: self
                .flows
                .iter()
                .enumerate()
                .map(|(i, f)| FlowRecord {
                    id: FlowId(i as u32),
                    client: f.spec.client,
                    bytes: f.spec.bytes.as_b() as u64,
                    start: f.spec.start,
                    completion: f.completion,
                    tcp: f.sender.stats(),
                })
                .collect(),
            bottleneck: self.bottleneck.stats(),
            access: self.access.iter().map(Link::stats).collect(),
            delivered: self.delivered,
            end: self.now,
            truncated,
            events: self.events,
            cwnd_trace: self.trace.map(|(_, _, s)| s).unwrap_or_default(),
            config: self.cfg,
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::FlowStart(id) => {
                let now = self.now;
                let actions = self.flows[id.0 as usize].sender.on_start(now);
                self.apply(id, actions);
            }
            EventKind::AccessTxDone(client) => {
                let now = self.now;
                let (pkt, next) = self.access[client as usize].tx_complete(now);
                if let Some(done) = next {
                    self.schedule(done, EventKind::AccessTxDone(client));
                }
                let arrive = now + self.access[client as usize].prop_delay_ns();
                self.schedule(arrive, EventKind::ArriveBottleneck(pkt));
            }
            EventKind::ArriveBottleneck(pkt) => {
                match self.bottleneck.enqueue(pkt, self.now) {
                    Enqueue::StartTx(done) => {
                        self.schedule(done, EventKind::BottleneckTxDone);
                    }
                    Enqueue::Queued => {}
                    Enqueue::Dropped => {} // TCP recovers via dup-acks/RTO
                }
            }
            EventKind::BottleneckTxDone => {
                let now = self.now;
                let (pkt, next) = self.bottleneck.tx_complete(now);
                if let Some(done) = next {
                    self.schedule(done, EventKind::BottleneckTxDone);
                }
                let arrive = now + self.bottleneck.prop_delay_ns();
                self.schedule(arrive, EventKind::ArriveServer(pkt));
            }
            EventKind::ArriveServer(pkt) => {
                if let PacketKind::Data { seq, .. } = pkt.kind {
                    let now = self.now;
                    self.delivered
                        .record(now.as_secs(), pkt.payload_bytes as f64);
                    let flow = &mut self.flows[pkt.flow.0 as usize];
                    let info = flow.receiver.on_data(seq, pkt.payload_bytes);
                    let ack_at = now + self.cfg.ack_delay;
                    self.schedule(ack_at, EventKind::AckArrive(pkt.flow, info));
                }
            }
            EventKind::AckArrive(id, info) => {
                let now = self.now;
                let actions = self.flows[id.0 as usize].sender.on_ack(info, now);
                self.apply(id, actions);
                if let Some((interval, last, samples)) = &mut self.trace {
                    let idx = id.0 as usize;
                    if last.len() <= idx {
                        last.resize(idx + 1, SimTime::ZERO);
                    }
                    if last[idx] == SimTime::ZERO
                        || now.as_nanos() >= last[idx].as_nanos() + *interval
                    {
                        last[idx] = now;
                        let sender = &self.flows[idx].sender;
                        samples.push(CwndSample {
                            at: now,
                            flow: id,
                            cwnd: sender.cwnd(),
                            srtt_s: sender.srtt().map(|t| t.as_secs()),
                            in_recovery: sender.in_recovery(),
                        });
                    }
                }
            }
            EventKind::RtoFire(id, gen) => {
                let now = self.now;
                let actions = self.flows[id.0 as usize].sender.on_rto(gen, now);
                self.apply(id, actions);
            }
        }
    }

    fn apply(&mut self, id: FlowId, actions: Vec<TcpAction>) {
        for action in actions {
            match action {
                TcpAction::Send {
                    seq,
                    len,
                    retransmit,
                } => {
                    let client = self.flows[id.0 as usize].spec.client;
                    let pkt = Packet::data(id, seq, len, retransmit);
                    match self.access[client as usize].enqueue(pkt, self.now) {
                        Enqueue::StartTx(done) => {
                            self.schedule(done, EventKind::AccessTxDone(client));
                        }
                        Enqueue::Queued => {}
                        // Sender qdisc overflow: the segment never leaves
                        // the host; the RTO will recover it.
                        Enqueue::Dropped => {}
                    }
                }
                TcpAction::ArmTimer { at, gen } => {
                    self.schedule(at, EventKind::RtoFire(id, gen));
                }
                TcpAction::Complete => {
                    self.flows[id.0 as usize].completion = Some(self.now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_units::Rate;

    fn one_flow_report(mb: f64) -> SimReport {
        let cfg = SimConfig::small_test();
        let mut sim = Simulator::new(cfg, 1);
        sim.add_flow(FlowSpec::new(0, Bytes::from_mb(mb), SimTime::ZERO));
        sim.run()
    }

    #[test]
    fn single_flow_completes() {
        let report = one_flow_report(1.0);
        assert!(report.all_completed());
        assert!(!report.truncated);
        assert_eq!(report.flows.len(), 1);
    }

    #[test]
    fn fct_at_least_theoretical_minimum() {
        let report = one_flow_report(1.0);
        let min = (Bytes::from_mb(1.0) / Rate::from_gbps(1.0)).as_secs();
        let fct = report.flows[0].fct().unwrap().as_secs();
        assert!(fct >= min, "fct {fct} < theoretical {min}");
        // ... but within a small multiple for an uncontended link.
        assert!(fct < min + 1.0, "fct {fct} unreasonably slow");
    }

    #[test]
    fn bytes_conserved() {
        let report = one_flow_report(2.0);
        // Everything the sender pushed eventually crossed the bottleneck.
        let payload = 2_000_000u64;
        assert!(report.bottleneck.tx_bytes >= payload); // payload + headers
        assert!((report.delivered.total_bytes() - payload as f64).abs() < 1.0);
    }

    #[test]
    fn single_flow_reaches_link_rate() {
        // A 20 MB transfer is long enough to amortize slow start on the
        // small-test config (1 Gbps, 4 ms RTT).
        let report = one_flow_report(20.0);
        let fct = report.flows[0].fct().unwrap().as_secs();
        let ideal = (Bytes::from_mb(20.0) / Rate::from_gbps(1.0)).as_secs();
        let efficiency = ideal / fct;
        assert!(
            efficiency > 0.8,
            "single-flow efficiency too low: {efficiency} (fct {fct}, ideal {ideal})"
        );
    }

    #[test]
    fn two_flows_work_conserving() {
        // Reno with a small drop-tail buffer is NOT fair over short
        // transfers (loss-phase effects let one flow win slow start — the
        // very "stochastic network performance" the paper warns about), so
        // assert work conservation rather than per-flow fairness: moving
        // 2× the data through one link takes ~2× the solo time overall.
        let cfg = SimConfig::small_test();
        let mut sim = Simulator::new(cfg, 2);
        sim.add_flow(FlowSpec::new(0, Bytes::from_mb(10.0), SimTime::ZERO));
        sim.add_flow(FlowSpec::new(1, Bytes::from_mb(10.0), SimTime::ZERO));
        let report = sim.run();
        assert!(report.all_completed());
        let worst = report.worst_fct().unwrap().as_secs();
        let solo = one_flow_report(10.0).flows[0].fct().unwrap().as_secs();
        assert!(worst > 1.4 * solo, "worst {worst} vs solo {solo}");
        assert!(worst < 6.0 * solo, "worst {worst} vs solo {solo}");
    }

    #[test]
    fn overload_causes_drops_and_retransmits_but_completes() {
        let cfg = SimConfig::small_test();
        let mut sim = Simulator::new(cfg, 8);
        for c in 0..8 {
            sim.add_flow(FlowSpec::new(c, Bytes::from_mb(5.0), SimTime::ZERO));
        }
        let report = sim.run();
        assert!(report.all_completed(), "flows starved: {report:?}");
        assert!(
            report.bottleneck.dropped_pkts > 0,
            "8 simultaneous slow-starting flows must overflow a 500 kB buffer"
        );
        let retx: u64 = report.flows.iter().map(|f| f.tcp.bytes_retransmitted).sum();
        assert!(retx > 0, "drops must force retransmissions");
    }

    #[test]
    fn congestion_inflates_worst_fct() {
        let solo = one_flow_report(5.0).flows[0].fct().unwrap().as_secs();
        let cfg = SimConfig::small_test();
        let mut sim = Simulator::new(cfg, 8);
        for c in 0..8 {
            sim.add_flow(FlowSpec::new(c, Bytes::from_mb(5.0), SimTime::ZERO));
        }
        let report = sim.run();
        let worst = report.worst_fct().unwrap().as_secs();
        assert!(
            worst > 4.0 * solo,
            "8-way congestion should inflate worst FCT well past solo ({worst} vs {solo})"
        );
    }

    #[test]
    fn deterministic_runs() {
        let run = |offset_ns: u64| {
            let cfg = SimConfig::small_test();
            let mut sim = Simulator::new(cfg, 3);
            for c in 0..3 {
                sim.add_flow(FlowSpec::new(
                    c,
                    Bytes::from_mb(3.0),
                    SimTime::from_nanos(c as u64 * offset_ns),
                ));
            }
            sim.run()
        };
        let a = run(1000);
        let b = run(1000);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.events, b.events);
        assert_eq!(a.bottleneck, b.bottleneck);
    }

    #[test]
    fn staggered_starts_recorded() {
        let cfg = SimConfig::small_test();
        let mut sim = Simulator::new(cfg, 2);
        sim.add_flow(FlowSpec::new(0, Bytes::from_mb(1.0), SimTime::ZERO));
        sim.add_flow(FlowSpec::new(
            1,
            Bytes::from_mb(1.0),
            SimTime::from_millis(500),
        ));
        let report = sim.run();
        assert_eq!(report.flows[1].start, SimTime::from_millis(500));
        assert!(report.flows[1].completion.unwrap() > SimTime::from_millis(500));
    }

    #[test]
    fn pathological_buffer_still_completes() {
        // Failure injection: a bottleneck buffer holding ~2 packets forces
        // loss on nearly every burst; RTO resilience must still drain the
        // transfer (slowly), never deadlock.
        let mut cfg = SimConfig::small_test();
        cfg.bottleneck.buffer = Bytes::from_b(3000.0);
        let mut sim = Simulator::new(cfg, 2);
        for c in 0..2 {
            sim.add_flow(FlowSpec::new(c, Bytes::from_kb(400.0), SimTime::ZERO));
        }
        let report = sim.run();
        assert!(report.all_completed(), "tiny buffer must not deadlock");
        assert!(report.bottleneck.dropped_pkts > 0);
        let timeouts: u64 = report.flows.iter().map(|f| f.tcp.timeouts).sum();
        let fastrtx: u64 = report.flows.iter().map(|f| f.tcp.fast_retransmits).sum();
        assert!(timeouts + fastrtx > 0, "recovery machinery must engage");
    }

    #[test]
    fn horizon_truncates_unfinished_flows() {
        let mut cfg = SimConfig::small_test();
        cfg.max_sim_time = TimeDelta::from_millis(1.0); // absurdly short
        let mut sim = Simulator::new(cfg, 1);
        sim.add_flow(FlowSpec::new(0, Bytes::from_mb(50.0), SimTime::ZERO));
        let report = sim.run();
        assert!(report.truncated);
        assert!(!report.all_completed());
        assert!(report.flows[0].fct().is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_client_index_panics() {
        let mut sim = Simulator::new(SimConfig::small_test(), 1);
        sim.add_flow(FlowSpec::new(5, Bytes::from_mb(1.0), SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "whole number of bytes")]
    fn fractional_size_panics() {
        let mut sim = Simulator::new(SimConfig::small_test(), 1);
        sim.add_flow(FlowSpec::new(0, Bytes::from_b(10.5), SimTime::ZERO));
    }

    #[test]
    fn cwnd_trace_records_samples() {
        let cfg = SimConfig::small_test();
        let mut sim = Simulator::new(cfg, 1);
        sim.add_flow(FlowSpec::new(0, Bytes::from_mb(5.0), SimTime::ZERO));
        sim.enable_cwnd_trace(1_000_000); // 1 ms
        let report = sim.run();
        assert!(!report.cwnd_trace.is_empty());
        // Samples are time-ordered, positive-cwnd and rate-limited.
        for w in report.cwnd_trace.windows(2) {
            assert!(w[1].at >= w[0].at);
            assert!(w[1].at.as_nanos() - w[0].at.as_nanos() >= 1_000_000);
        }
        assert!(report.cwnd_trace.iter().all(|s| s.cwnd > 0.0));
        // Slow start is visible: cwnd grows across the first samples.
        let first = report.cwnd_trace.first().unwrap().cwnd;
        let max = report.cwnd_trace.iter().map(|s| s.cwnd).fold(0.0, f64::max);
        assert!(max > 2.0 * first, "expected visible window growth");
    }

    #[test]
    fn trace_disabled_by_default() {
        let report = one_flow_report(1.0);
        assert!(report.cwnd_trace.is_empty());
    }

    #[test]
    fn red_bottleneck_reduces_queue_peak() {
        let mut cfg = SimConfig::small_test();
        let buffer = cfg.bottleneck.buffer.as_b();
        cfg.bottleneck.qdisc = crate::config::Qdisc::Red {
            min_th: buffer * 0.2,
            max_th: buffer * 0.6,
            max_p: 0.1,
            weight: 0.002,
        };
        cfg.validate().unwrap();
        let run = |cfg: SimConfig| {
            let mut sim = Simulator::new(cfg, 8);
            for c in 0..8 {
                sim.add_flow(FlowSpec::new(c, Bytes::from_mb(5.0), SimTime::ZERO));
            }
            sim.run()
        };
        let red = run(cfg);
        let droptail = run(SimConfig::small_test());
        assert!(red.all_completed());
        assert!(
            red.bottleneck.early_drops > 0,
            "RED must act under 8-way congestion"
        );
        // AQM keeps the standing queue below the tail-drop peak.
        assert!(
            red.bottleneck.max_queue_bytes < droptail.bottleneck.max_queue_bytes,
            "RED {} vs drop-tail {}",
            red.bottleneck.max_queue_bytes,
            droptail.bottleneck.max_queue_bytes
        );
    }

    #[test]
    fn utilization_reflects_offered_load() {
        // One 5 MB flow on a 1 Gbps link over a 1 s horizon: 40 Mb / 1 Gb = 4%.
        let report = one_flow_report(5.0);
        let u = report.utilization(TimeDelta::from_secs(1.0));
        assert!((u - 0.04).abs() < 0.005, "utilization {u}");
    }

    #[test]
    fn parallel_flows_same_client_share_access_link() {
        let cfg = SimConfig::small_test();
        let mut sim = Simulator::new(cfg, 1);
        for _ in 0..4 {
            sim.add_flow(FlowSpec::new(0, Bytes::from_mb(2.0), SimTime::ZERO));
        }
        let report = sim.run();
        assert!(report.all_completed());
        assert_eq!(report.access.len(), 1);
        // All four flows' packets went through the one NIC.
        assert!(report.access[0].tx_bytes as f64 >= 8.0e6);
    }
}
