//! TCP sender and receiver state machines: Reno/CUBIC congestion control,
//! SACK-based loss recovery, HyStart slow-start exit.
//!
//! The sender is a pure state machine: events go in (`on_start`, `on_ack`,
//! `on_rto`), [`TcpAction`]s come out, and the simulator interprets them
//! (inject packet, arm timer). This keeps the congestion-control logic
//! unit-testable without a network.
//!
//! Implemented behaviour, modeled on the Linux stack the paper's testbed
//! ran (Ubuntu 22.04: CUBIC + HyStart + SACK):
//! * slow start with optional HyStart delay-based exit (RFC 9406's delay
//!   trigger) — without it, a batch of simultaneously-starting flows
//!   overshoots into synchronized loss far beyond anything real hardware
//!   shows,
//! * AIMD (Reno) or cubic (RFC 9438, simplified) congestion avoidance,
//! * fast retransmit on three duplicate ACKs or on SACK evidence, with a
//!   SACK scoreboard and pipe-based retransmission (RFC 6675, simplified
//!   to one SACK block per ACK) — without SACK, scattered drops take one
//!   round-trip *per hole* to repair and worst-case completion times blow
//!   up by an order of magnitude beyond the measured testbed behaviour,
//! * retransmission timeout with exponential back-off and go-back-N resend
//!   (RFC 6298),
//! * Karn's algorithm for RTT sampling, SRTT/RTTVAR RTO estimation.
//!
//! The paper's argument for "embracing complexity" (§3) is exactly that
//! these mechanisms — not propagation delay — dominate worst-case flow
//! completion times under congestion; this module is where that complexity
//! lives.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::config::TcpConfig;
use sss_sim::SimTime;
use sss_units::TimeDelta;

/// Congestion-avoidance algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CongestionAlgo {
    /// Classic AIMD: one MSS per RTT additive increase, halve on loss.
    Reno,
    /// CUBIC (RFC 9438, simplified): cubic window growth around the last
    /// loss point, multiplicative decrease by β = 0.7. The Linux default,
    /// and what the paper's testbed actually ran.
    Cubic,
}

/// CUBIC constants (RFC 9438 recommended values).
const CUBIC_C: f64 = 0.4;
const CUBIC_BETA: f64 = 0.7;

/// A single SACK block: the contiguous out-of-order byte range the
/// receiver most recently updated, `[start, end)`.
pub type SackBlock = (u64, u64);

/// Cumulative-ACK information produced by the receiver for each arriving
/// data segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckInfo {
    /// All bytes below this offset have arrived in order.
    pub cum: u64,
    /// The out-of-order range (if any) that the triggering segment landed
    /// in — the first SACK block of a real TCP ACK.
    pub sack: Option<SackBlock>,
}

/// Instruction emitted by the sender for the simulator to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpAction {
    /// Transmit a segment of `len` payload bytes starting at `seq`.
    Send {
        /// Byte offset of the segment.
        seq: u64,
        /// Payload length.
        len: u32,
        /// True when the range had been sent before.
        retransmit: bool,
    },
    /// (Re-)arm the retransmission timer to fire at `at`; only a fire event
    /// carrying the matching `gen` is valid (stale timers are ignored).
    ArmTimer {
        /// Absolute fire time.
        at: SimTime,
        /// Generation that must match at fire time.
        gen: u64,
    },
    /// All payload bytes have been cumulatively acknowledged.
    Complete,
}

/// Sender-side statistics for one flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpSenderStats {
    /// Payload bytes sent for the first time.
    pub bytes_sent: u64,
    /// Payload bytes retransmitted.
    pub bytes_retransmitted: u64,
    /// Fast-retransmit episodes entered.
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Slow-start exits forced by the HyStart delay heuristic.
    pub hystart_exits: u64,
}

/// Byte-range set backed by a `BTreeMap<start, end>` of disjoint ranges.
#[derive(Debug, Clone, Default)]
struct RangeSet {
    ranges: BTreeMap<u64, u64>,
}

impl RangeSet {
    fn clear(&mut self) {
        self.ranges.clear();
    }

    /// Insert `[start, end)`, merging overlaps and adjacencies.
    /// Returns the number of bytes newly covered.
    fn insert(&mut self, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        let added = (end - start) - self.bytes_within(start, end);
        let mut s = start;
        let mut e = end;
        // Merge with a predecessor that reaches `start`.
        if let Some((&ps, &pe)) = self.ranges.range(..=s).next_back() {
            if pe >= s {
                if pe >= e {
                    return 0; // fully contained
                }
                s = ps;
                e = e.max(pe);
                self.ranges.remove(&ps);
            }
        }
        // Absorb successors overlapping [s, e).
        let keys: Vec<u64> = self.ranges.range(s..=e).map(|(&k, _)| k).collect();
        for k in keys {
            let ke = self.ranges.remove(&k).expect("key vanished");
            e = e.max(ke);
        }
        self.ranges.insert(s, e);
        added
    }

    /// Remove everything below `cut`. Returns the number of bytes removed.
    fn trim_below(&mut self, cut: u64) -> u64 {
        let keys: Vec<u64> = self.ranges.range(..cut).map(|(&k, _)| k).collect();
        let mut removed = 0;
        for k in keys {
            let e = self.ranges.remove(&k).expect("key vanished");
            removed += e.min(cut) - k;
            if e > cut {
                self.ranges.insert(cut, e);
            }
        }
        removed
    }

    /// Total bytes covered within `[lo, hi)`.
    fn bytes_within(&self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            return 0;
        }
        let mut total = 0;
        // Ranges starting before `hi` can overlap; include a predecessor
        // that may straddle `lo`.
        let start_key = self
            .ranges
            .range(..=lo)
            .next_back()
            .map(|(&k, _)| k)
            .unwrap_or(lo);
        for (&s, &e) in self.ranges.range(start_key..hi) {
            let os = s.max(lo);
            let oe = e.min(hi);
            if oe > os {
                total += oe - os;
            }
        }
        total
    }

    /// True when `pos` is inside a covered range.
    fn contains(&self, pos: u64) -> bool {
        self.ranges
            .range(..=pos)
            .next_back()
            .is_some_and(|(_, &e)| e > pos)
    }

    /// The first uncovered position at or after `from`, below `limit`.
    /// Returns `(hole_start, hole_end)` where `hole_end` is capped at the
    /// start of the next covered range or `limit`.
    fn next_gap(&self, from: u64, limit: u64) -> Option<(u64, u64)> {
        let mut pos = from;
        while pos < limit {
            if let Some((&s, &e)) = self.ranges.range(..=pos).next_back() {
                if e > pos {
                    pos = e; // inside a covered range; skip past it
                    continue;
                }
                let _ = s;
            }
            // pos is uncovered: gap runs to the next range start or limit.
            let gap_end = self
                .ranges
                .range(pos..)
                .next()
                .map(|(&s, _)| s.min(limit))
                .unwrap_or(limit);
            if gap_end > pos {
                return Some((pos, gap_end));
            }
            pos = gap_end;
        }
        None
    }

    /// Largest covered offset, if any.
    fn max_end(&self) -> Option<u64> {
        self.ranges.iter().next_back().map(|(_, &e)| e)
    }
}

/// TCP sender for a fixed-size transfer.
#[derive(Debug, Clone)]
pub struct TcpSender {
    cfg: TcpConfig,
    total: u64,
    /// Lowest unacknowledged byte.
    snd_una: u64,
    /// Next byte to transmit.
    snd_nxt: u64,
    /// Highest byte ever transmitted (for the retransmit flag).
    max_sent: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    in_recovery: bool,
    /// Recovery point: recovery ends when cum-ack reaches this.
    recover: u64,
    /// SACK scoreboard: ranges the receiver holds above the frontier.
    sacked: RangeSet,
    /// Bytes of `sacked` within the current window (incremental counter).
    sacked_in_window: u64,
    /// Ranges retransmitted during the current recovery epoch.
    retxed: RangeSet,
    /// Monotone repair cursor: holes below it were already retransmitted
    /// (or SACKed) this epoch — the RFC 6675 "retransmission hint".
    retx_cursor: u64,
    /// Repair bytes sent this epoch and not yet cumulatively acked:
    /// the congestion window's share consumed by retransmissions.
    retx_outstanding: u64,
    /// True when the current recovery epoch was entered via RTO: every
    /// outstanding byte is then presumed lost and repairable (Linux
    /// CA_Loss), not just holes below the highest SACK.
    loss_recovery: bool,
    // RTO estimation (RFC 6298), in seconds.
    srtt: Option<f64>,
    rttvar: f64,
    rto: f64,
    /// Lowest RTT ever sampled (HyStart baseline), seconds.
    min_rtt: Option<f64>,
    /// Outstanding RTT probe: (byte that must be acked, send time).
    rtt_probe: Option<(u64, SimTime)>,
    // CUBIC state.
    /// Window (bytes) just before the last congestion event.
    w_max: f64,
    /// Start of the current cubic epoch.
    epoch_start: Option<SimTime>,
    /// Time offset K at which the cubic curve regains `w_max`, seconds.
    cubic_k: f64,
    timer_gen: u64,
    completed: bool,
    stats: TcpSenderStats,
}

impl TcpSender {
    /// Create a sender for `total` payload bytes.
    ///
    /// # Panics
    /// Panics when `total` is zero (a zero-byte iperf transfer is
    /// meaningless) or the config is invalid.
    pub fn new(cfg: TcpConfig, total: u64) -> Self {
        assert!(total > 0, "transfer must carry at least one byte");
        cfg.validate().expect("invalid TcpConfig");
        let cwnd = (cfg.initial_cwnd_segments as f64 * cfg.mss as f64).min(cfg.max_cwnd);
        TcpSender {
            cfg,
            total,
            snd_una: 0,
            snd_nxt: 0,
            max_sent: 0,
            cwnd,
            ssthresh: cfg.initial_ssthresh,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            sacked: RangeSet::default(),
            sacked_in_window: 0,
            retxed: RangeSet::default(),
            retx_cursor: 0,
            retx_outstanding: 0,
            loss_recovery: false,
            srtt: None,
            rttvar: 0.0,
            rto: cfg.initial_rto.as_secs(),
            min_rtt: None,
            rtt_probe: None,
            w_max: 0.0,
            epoch_start: None,
            cubic_k: 0.0,
            timer_gen: 0,
            completed: false,
            stats: TcpSenderStats::default(),
        }
    }

    /// Congestion window in bytes.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Slow-start threshold in bytes.
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    /// Lowest unacknowledged byte offset.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Bytes in flight (sent, not yet cumulatively acknowledged).
    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> TimeDelta {
        TimeDelta::from_secs(self.rto)
    }

    /// Smoothed RTT estimate, if any sample has been taken.
    pub fn srtt(&self) -> Option<TimeDelta> {
        self.srtt.map(TimeDelta::from_secs)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TcpSenderStats {
        self.stats
    }

    /// True while in fast recovery.
    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Conservative pipe estimate: sent-but-unacked bytes minus those the
    /// receiver is known to hold (SACKed). Kept `O(1)` via an incremental
    /// counter; retransmission pacing itself is ACK-clocked (see
    /// `Self::repair_holes`), so an exact RFC 6675 pipe is not needed.
    pub fn pipe(&self) -> f64 {
        self.in_flight().saturating_sub(self.sacked_in_window) as f64
    }

    /// Begin the transfer: emit the initial window and arm the timer.
    pub fn on_start(&mut self, now: SimTime) -> Vec<TcpAction> {
        let mut out = Vec::new();
        self.try_send(now, &mut out);
        self.arm_timer(now, &mut out);
        out
    }

    /// Process an acknowledgement (cumulative + optional SACK block).
    pub fn on_ack(&mut self, info: AckInfo, now: SimTime) -> Vec<TcpAction> {
        let mut out = Vec::new();
        if self.completed || info.cum > self.total {
            return out;
        }

        if let Some((s, e)) = info.sack {
            if e > s && e <= self.total {
                self.sacked_in_window += self.sacked.insert(s, e);
            }
        }

        if info.cum > self.snd_una {
            let acked = info.cum - self.snd_una;
            self.snd_una = info.cum;
            // Defensive: an ACK can never legitimately pass snd_nxt (the
            // receiver only acknowledges delivered bytes), but keep
            // in_flight() well-defined regardless.
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.max_sent = self.max_sent.max(self.snd_nxt);
            let trimmed = self.sacked.trim_below(self.snd_una);
            self.sacked_in_window = self.sacked_in_window.saturating_sub(trimmed);
            let repaired = self.retxed.trim_below(self.snd_una);
            self.retx_outstanding = self.retx_outstanding.saturating_sub(repaired);
            self.retx_cursor = self.retx_cursor.max(self.snd_una);
            self.dup_acks = 0;
            self.sample_rtt(info.cum, now);

            if self.in_recovery {
                if info.cum >= self.recover {
                    // Recovery complete: deflate to ssthresh, new epoch.
                    self.in_recovery = false;
                    self.loss_recovery = false;
                    self.cwnd = self.ssthresh.min(self.cfg.max_cwnd);
                    self.retxed.clear();
                    self.retx_outstanding = 0;
                    self.epoch_start = None;
                } else {
                    if !self.sacked.contains(self.snd_una) && !self.retxed.contains(self.snd_una) {
                        // Partial ACK: the hole at the new frontier has not
                        // been repaired yet — resend it now (NewReno rule,
                        // also covers recovery with an empty scoreboard).
                        self.retransmit_head(now, &mut out);
                    }
                    if self.cwnd < self.ssthresh {
                        // Post-RTO repair runs in slow start back up to
                        // ssthresh (Linux CA_Loss behaviour); without this
                        // a deeply-collapsed flow crawls at one segment
                        // per RTT for the rest of the transfer.
                        self.cwnd += (acked as f64).min(self.cfg.mss as f64);
                    }
                }
            } else if self.in_slow_start() {
                // Slow start: grow by at most one MSS per ACK.
                self.cwnd += (acked as f64).min(self.cfg.mss as f64);
            } else {
                self.congestion_avoidance(acked, now);
            }
            self.cwnd = self.cwnd.min(self.cfg.max_cwnd);

            if self.snd_una >= self.total {
                self.completed = true;
                self.timer_gen += 1; // cancel timer
                out.push(TcpAction::Complete);
                return out;
            }
            self.arm_timer(now, &mut out);
        } else if info.cum == self.snd_una && self.in_flight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            let sack_evidence = self.sacked_in_window >= 3 * self.cfg.mss as u64;
            if !self.in_recovery && (self.dup_acks >= 3 || sack_evidence) {
                self.enter_fast_retransmit(now, &mut out);
            }
        }

        if self.in_recovery {
            self.repair_holes(now, &mut out);
        }
        self.try_send(now, &mut out);
        out
    }

    /// Process a retransmission-timeout fire event. Stale generations are
    /// ignored (the timer was re-armed since this event was scheduled).
    pub fn on_rto(&mut self, gen: u64, now: SimTime) -> Vec<TcpAction> {
        let mut out = Vec::new();
        if gen != self.timer_gen || self.completed || self.in_flight() == 0 {
            return out;
        }
        self.stats.timeouts += 1;
        // RFC 5681 §3.1 / 6298 §5: collapse to one segment and back off the
        // timer. Rather than go-back-N (which resends data the receiver
        // already holds), mark everything outstanding as repairable and
        // let the ACK-clocked SACK walk resend only actual holes — this is
        // the Linux "lost marking" behaviour.
        let flight = self.in_flight() as f64;
        self.ssthresh = self.loss_ssthresh(flight);
        self.register_loss_for_cubic();
        self.cwnd = self.cfg.mss as f64;
        self.dup_acks = 0;
        self.in_recovery = true;
        self.loss_recovery = true;
        self.recover = self.snd_nxt;
        self.retxed.clear();
        self.retx_outstanding = 0;
        self.retx_cursor = self.snd_una;
        self.rto = (self.rto * 2.0).min(self.cfg.max_rto.as_secs());
        self.rtt_probe = None; // Karn: samples across a timeout are invalid
        self.retransmit_head(now, &mut out);
        out
    }

    /// ssthresh after a loss event, per the selected algorithm.
    fn loss_ssthresh(&self, reference_window: f64) -> f64 {
        let floor = 2.0 * self.cfg.mss as f64;
        match self.cfg.algo {
            CongestionAlgo::Reno => (reference_window / 2.0).max(floor),
            CongestionAlgo::Cubic => (reference_window * CUBIC_BETA).max(floor),
        }
    }

    /// Record the pre-loss window for CUBIC's curve and reset the epoch.
    fn register_loss_for_cubic(&mut self) {
        // RFC 9438's optional "fast convergence" (shrinking w_max when a
        // loss arrives below it) is deliberately NOT applied: under the
        // batch-synchronized loss this workload creates, it spirals w_max
        // toward zero and strands late flows at kilobyte windows for tens
        // of seconds — far beyond testbed behaviour. Keeping the largest
        // recently-achieved window as the curve's target matches how the
        // measured flows actually recover.
        self.w_max = self.w_max.max(self.cwnd);
        self.epoch_start = None;
    }

    /// One congestion-avoidance step for `acked` new bytes.
    fn congestion_avoidance(&mut self, acked: u64, now: SimTime) {
        match self.cfg.algo {
            CongestionAlgo::Reno => {
                self.cwnd += self.cfg.mss as f64 * self.cfg.mss as f64 / self.cwnd;
            }
            CongestionAlgo::Cubic => {
                let mss = self.cfg.mss as f64;
                if self.epoch_start.is_none() {
                    self.epoch_start = Some(now);
                    if self.w_max < self.cwnd {
                        self.w_max = self.cwnd;
                    }
                    // K = cbrt(W_max(1-β)/C), with windows in MSS units.
                    let w_max_mss = self.w_max / mss;
                    self.cubic_k = (w_max_mss * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
                }
                let t = now.since(self.epoch_start.unwrap()).as_secs();
                let rtt = self.srtt.unwrap_or(0.0);
                // Target one RTT ahead, in MSS units.
                let elapsed = t + rtt - self.cubic_k;
                let w_cubic = CUBIC_C * elapsed * elapsed * elapsed + self.w_max / mss;
                // TCP-friendly region (standard TCP estimate).
                let w_est = if rtt > 0.0 {
                    self.w_max / mss * CUBIC_BETA
                        + 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA) * (t / rtt)
                } else {
                    0.0
                };
                let target = w_cubic.max(w_est) * mss;
                let acked_mss = acked as f64 / mss;
                if target > self.cwnd {
                    // Spread the climb over a window's worth of ACKs, capped
                    // at CUBIC's maximum probing rate of 1.5 MSS per MSS
                    // acked to keep convex-region growth civilized.
                    let step = (target - self.cwnd) / (self.cwnd / mss) * acked_mss;
                    self.cwnd += step.min(1.5 * mss * acked_mss);
                } else {
                    // At/above the plateau: probe gently.
                    self.cwnd += 0.01 * mss * acked_mss;
                }
            }
        }
    }

    /// Fast retransmit (RFC 5681 §3.2 trigger, RFC 6675-style recovery).
    fn enter_fast_retransmit(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        self.stats.fast_retransmits += 1;
        let reference = (self.in_flight() as f64).min(self.cwnd);
        self.ssthresh = self.loss_ssthresh(reference);
        self.register_loss_for_cubic();
        self.recover = self.snd_nxt;
        self.in_recovery = true;
        self.loss_recovery = false;
        self.retxed.clear();
        self.retx_outstanding = 0;
        self.cwnd = self.ssthresh;
        // Always repair the frontier segment first, then start the cursor
        // walk just past it.
        self.retransmit_range(self.snd_una, now, out);
        self.retx_cursor = self.snd_una + self.cfg.mss as u64;
    }

    /// Window-clocked hole repair at the monotone cursor (RFC 6675 NextSeg
    /// rule 1 with the standard "retransmission hint"; each hole is visited
    /// once per epoch, so a whole recovery costs `O(holes · log n)`).
    ///
    /// In fast recovery only holes below the highest SACKed byte are
    /// presumed lost; after an RTO (`loss_recovery`) everything outstanding
    /// is repairable, which makes tail-loss repair slow-start-paced like
    /// the Linux CA_Loss state rather than one-segment-per-RTT.
    fn repair_holes(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        let limit = if self.loss_recovery {
            self.recover.min(self.snd_nxt)
        } else {
            let Some(high) = self.sacked.max_end() else {
                return;
            };
            high.min(self.recover).min(self.snd_nxt)
        };
        // Bounded per call: the window check is the real limiter, the guard
        // only protects against degenerate configs with a huge cwnd/mss.
        let mut guard = 0u32;
        while (self.retx_outstanding as f64) < self.cwnd && guard < 256 {
            guard += 1;
            let from = self.retx_cursor.max(self.snd_una);
            // Next hole the receiver does not hold...
            let Some((gap_s, gap_e)) = self.sacked.next_gap(from, limit) else {
                return;
            };
            // ...that has not already been repaired this epoch.
            let Some((hs, he)) = self.retxed.next_gap(gap_s, gap_e) else {
                self.retx_cursor = gap_e;
                continue;
            };
            let len = (he - hs).min(self.cfg.mss as u64) as u32;
            self.retransmit_range_len(hs, len, now, out);
            self.retx_cursor = hs + len as u64;
        }
    }

    /// Retransmit the segment at the window frontier (`snd_una`).
    fn retransmit_head(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        let head = self.snd_una;
        self.retransmit_range(head, now, out);
    }

    /// Retransmit one MSS starting at `seq`.
    fn retransmit_range(&mut self, seq: u64, now: SimTime, out: &mut Vec<TcpAction>) {
        let len = (self.total - seq).min(self.cfg.mss as u64) as u32;
        self.retransmit_range_len(seq, len, now, out);
    }

    fn retransmit_range_len(&mut self, seq: u64, len: u32, now: SimTime, out: &mut Vec<TcpAction>) {
        debug_assert!(seq + len as u64 <= self.total);
        self.stats.bytes_retransmitted += len as u64;
        self.retxed.insert(seq, seq + len as u64);
        self.retx_outstanding += len as u64;
        self.rtt_probe = None; // Karn's algorithm
        out.push(TcpAction::Send {
            seq,
            len,
            retransmit: true,
        });
        self.arm_timer(now, out);
    }

    /// Emit as many new segments as the window allows. During recovery the
    /// pipe estimate gates sending; outside it, plain in-flight accounting.
    fn try_send(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        loop {
            if self.snd_nxt >= self.total {
                return;
            }
            // During recovery the pipe estimate (in-flight minus SACKed,
            // plus repairs in flight) gates new data; outside it, plain
            // in-flight accounting.
            let outstanding = if self.in_recovery {
                self.pipe() + self.retx_outstanding as f64
            } else {
                self.in_flight() as f64
            };
            if outstanding >= self.cwnd {
                return;
            }
            let len = (self.total - self.snd_nxt).min(self.cfg.mss as u64) as u32;
            let retransmit = self.snd_nxt < self.max_sent;
            if retransmit {
                self.stats.bytes_retransmitted += len as u64;
            } else {
                self.stats.bytes_sent += len as u64;
                if self.rtt_probe.is_none() {
                    self.rtt_probe = Some((self.snd_nxt + len as u64, now));
                }
            }
            out.push(TcpAction::Send {
                seq: self.snd_nxt,
                len,
                retransmit,
            });
            self.snd_nxt += len as u64;
            self.max_sent = self.max_sent.max(self.snd_nxt);
        }
    }

    /// Take an RTT sample if the outstanding probe is covered by this ACK.
    fn sample_rtt(&mut self, cum_ack: u64, now: SimTime) {
        if let Some((probe_end, sent_at)) = self.rtt_probe {
            if cum_ack >= probe_end {
                let r = now.since(sent_at).as_secs();
                match self.srtt {
                    None => {
                        self.srtt = Some(r);
                        self.rttvar = r / 2.0;
                    }
                    Some(srtt) => {
                        self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                        self.srtt = Some(0.875 * srtt + 0.125 * r);
                    }
                }
                let srtt = self.srtt.unwrap();
                // Granularity term G = 1 ms.
                self.rto = (srtt + (4.0 * self.rttvar).max(0.001))
                    .clamp(self.cfg.min_rto.as_secs(), self.cfg.max_rto.as_secs());
                self.rtt_probe = None;
                self.hystart_check(r);
                self.min_rtt = Some(self.min_rtt.map_or(r, |m| m.min(r)));
            }
        }
    }

    /// HyStart delay heuristic: leave slow start as soon as the RTT has
    /// risen measurably above its floor — the queue is already building,
    /// so doubling further would only bulldoze it (RFC 9406's delay
    /// trigger, reduced to its essence).
    fn hystart_check(&mut self, sample: f64) {
        if !self.cfg.hystart || !self.in_slow_start() {
            return;
        }
        if let Some(base) = self.min_rtt {
            let eta = (base / 8.0).clamp(0.004, 0.016);
            if sample >= base + eta {
                self.ssthresh = self.cwnd;
                self.stats.hystart_exits += 1;
            }
        }
    }

    /// Bump the timer generation and emit an arm action.
    fn arm_timer(&mut self, now: SimTime, out: &mut Vec<TcpAction>) {
        self.timer_gen += 1;
        out.push(TcpAction::ArmTimer {
            at: now + TimeDelta::from_secs(self.rto),
            gen: self.timer_gen,
        });
    }
}

/// TCP receiver: reassembles the byte stream and produces cumulative ACKs
/// with one SACK block.
#[derive(Debug, Clone, Default)]
pub struct TcpReceiver {
    rcv_nxt: u64,
    /// Out-of-order byte ranges, keyed by start offset (non-overlapping).
    ooo: BTreeMap<u64, u64>,
    /// Total payload bytes delivered in order.
    delivered: u64,
}

impl TcpReceiver {
    /// Fresh receiver expecting byte 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next expected byte (current cumulative ACK value).
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Total in-order payload bytes delivered to the application.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Accept segment `[seq, seq+len)`; returns the acknowledgement to
    /// send: cumulative ACK plus the SACK block the segment landed in.
    /// Duplicate and overlapping data is tolerated (retransmissions).
    pub fn on_data(&mut self, seq: u64, len: u32) -> AckInfo {
        let end = seq + len as u64;
        if end <= self.rcv_nxt {
            // Entirely duplicate.
            return AckInfo {
                cum: self.rcv_nxt,
                sack: None,
            };
        }
        if seq <= self.rcv_nxt {
            // Advances the in-order frontier.
            self.advance_to(end);
            // Merge any now-contiguous buffered ranges.
            while let Some((&s, &e)) = self.ooo.first_key_value() {
                if s > self.rcv_nxt {
                    break;
                }
                self.ooo.remove(&s);
                if e > self.rcv_nxt {
                    self.advance_to(e);
                }
            }
            AckInfo {
                cum: self.rcv_nxt,
                sack: None,
            }
        } else {
            // Out of order: buffer, merging overlaps.
            let mut start = seq;
            let mut stop = end;
            // Absorb any ranges overlapping [start, stop).
            let overlapping: Vec<u64> = self
                .ooo
                .range(..=stop)
                .filter(|(&s, &e)| e >= start && s <= stop)
                .map(|(&s, _)| s)
                .collect();
            for s in overlapping {
                let e = self.ooo.remove(&s).expect("range key vanished");
                start = start.min(s);
                stop = stop.max(e);
            }
            self.ooo.insert(start, stop);
            AckInfo {
                cum: self.rcv_nxt,
                sack: Some((start, stop)),
            }
        }
    }

    fn advance_to(&mut self, end: u64) {
        debug_assert!(end > self.rcv_nxt);
        self.delivered += end - self.rcv_nxt;
        self.rcv_nxt = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig {
            mss: 1000,
            initial_cwnd_segments: 2,
            initial_ssthresh: f64::INFINITY,
            max_cwnd: 1e9,
            min_rto: TimeDelta::from_millis(200.0),
            max_rto: TimeDelta::from_secs(60.0),
            initial_rto: TimeDelta::from_secs(1.0),
            algo: CongestionAlgo::Reno,
            hystart: false,
        }
    }

    fn cubic_cfg() -> TcpConfig {
        TcpConfig {
            algo: CongestionAlgo::Cubic,
            ..cfg()
        }
    }

    fn ack(cum: u64) -> AckInfo {
        AckInfo { cum, sack: None }
    }

    fn sack(cum: u64, s: u64, e: u64) -> AckInfo {
        AckInfo {
            cum,
            sack: Some((s, e)),
        }
    }

    fn sends(actions: &[TcpAction]) -> Vec<(u64, u32, bool)> {
        actions
            .iter()
            .filter_map(|a| match a {
                TcpAction::Send {
                    seq,
                    len,
                    retransmit,
                } => Some((*seq, *len, *retransmit)),
                _ => None,
            })
            .collect()
    }

    // --- RangeSet ---

    #[test]
    fn rangeset_insert_merges() {
        let mut r = RangeSet::default();
        r.insert(10, 20);
        r.insert(30, 40);
        assert_eq!(r.ranges.len(), 2);
        r.insert(20, 30); // bridges the two
        assert_eq!(r.ranges.len(), 1);
        assert_eq!(r.bytes_within(0, 100), 30);
        assert!(r.contains(15));
        assert!(r.contains(39));
        assert!(!r.contains(40));
    }

    #[test]
    fn rangeset_trim() {
        let mut r = RangeSet::default();
        r.insert(0, 10);
        r.insert(20, 30);
        r.trim_below(25);
        assert_eq!(r.bytes_within(0, 100), 5);
        assert!(!r.contains(5));
        assert!(r.contains(27));
    }

    #[test]
    fn rangeset_next_gap() {
        let mut r = RangeSet::default();
        r.insert(10, 20);
        r.insert(30, 40);
        assert_eq!(r.next_gap(0, 50), Some((0, 10)));
        assert_eq!(r.next_gap(10, 50), Some((20, 30)));
        assert_eq!(r.next_gap(30, 50), Some((40, 50)));
        assert_eq!(r.next_gap(0, 10), Some((0, 10)));
        let full = {
            let mut f = RangeSet::default();
            f.insert(0, 50);
            f
        };
        assert_eq!(full.next_gap(0, 50), None);
    }

    #[test]
    fn rangeset_bytes_within_partial_overlap() {
        let mut r = RangeSet::default();
        r.insert(10, 30);
        assert_eq!(r.bytes_within(0, 15), 5);
        assert_eq!(r.bytes_within(15, 25), 10);
        assert_eq!(r.bytes_within(25, 100), 5);
        assert_eq!(r.bytes_within(40, 50), 0);
    }

    // --- sender basics ---

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_byte_transfer_rejected() {
        let _ = TcpSender::new(cfg(), 0);
    }

    #[test]
    fn initial_window() {
        let mut s = TcpSender::new(cfg(), 10_000);
        let actions = s.on_start(SimTime::ZERO);
        let segs = sends(&actions);
        assert_eq!(segs, vec![(0, 1000, false), (1000, 1000, false)]);
        assert_eq!(s.in_flight(), 2000);
        assert!(actions
            .iter()
            .any(|a| matches!(a, TcpAction::ArmTimer { .. })));
    }

    #[test]
    fn short_transfer_single_segment() {
        let mut s = TcpSender::new(cfg(), 300);
        let actions = s.on_start(SimTime::ZERO);
        assert_eq!(sends(&actions), vec![(0, 300, false)]);
        let done = s.on_ack(ack(300), SimTime::from_millis(10));
        assert!(done.contains(&TcpAction::Complete));
        assert!(s.completed);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = TcpSender::new(cfg(), 1_000_000);
        let _ = s.on_start(SimTime::ZERO);
        assert_eq!(s.cwnd(), 2000.0);
        assert!(s.in_slow_start());
        let _ = s.on_ack(ack(1000), SimTime::from_millis(10));
        let _ = s.on_ack(ack(2000), SimTime::from_millis(11));
        assert_eq!(s.cwnd(), 4000.0);
        let _ = s.on_ack(ack(3000), SimTime::from_millis(20));
        let _ = s.on_ack(ack(4000), SimTime::from_millis(20));
        let _ = s.on_ack(ack(5000), SimTime::from_millis(21));
        let _ = s.on_ack(ack(6000), SimTime::from_millis(21));
        assert_eq!(s.cwnd(), 8000.0);
    }

    #[test]
    fn congestion_avoidance_linear_reno() {
        let mut s = TcpSender::new(cfg(), 10_000_000);
        s.ssthresh = 2000.0; // force CA immediately
        let _ = s.on_start(SimTime::ZERO);
        let cwnd0 = s.cwnd();
        let _ = s.on_ack(ack(1000), SimTime::from_millis(10));
        // CA growth per ACK is MSS²/cwnd ≈ 500 B at cwnd 2000.
        assert!((s.cwnd() - (cwnd0 + 1000.0 * 1000.0 / cwnd0)).abs() < 1.0);
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut s = TcpSender::new(cfg(), 100_000);
        let _ = s.on_start(SimTime::ZERO);
        let _ = s.on_ack(ack(1000), SimTime::from_millis(10));
        let _ = s.on_ack(ack(2000), SimTime::from_millis(10));
        let flight_before = s.in_flight();
        assert!(flight_before > 0);
        let _ = s.on_ack(ack(2000), SimTime::from_millis(20));
        let _ = s.on_ack(ack(2000), SimTime::from_millis(21));
        let a3 = s.on_ack(ack(2000), SimTime::from_millis(22));
        assert!(s.in_recovery());
        assert_eq!(s.stats().fast_retransmits, 1);
        let retx = sends(&a3);
        assert!(retx.iter().any(|&(seq, _, r)| seq == 2000 && r));
        assert!((s.ssthresh() - (flight_before as f64 / 2.0).max(2000.0)).abs() < 1e-9);
    }

    #[test]
    fn sack_evidence_triggers_recovery_early() {
        let mut s = TcpSender::new(cfg(), 100_000);
        let _ = s.on_start(SimTime::ZERO);
        let _ = s.on_ack(ack(1000), SimTime::from_millis(10));
        let _ = s.on_ack(ack(2000), SimTime::from_millis(10));
        // One dup-ack carrying a fat SACK block (3 MSS): recovery starts
        // without waiting for the third duplicate.
        let a = s.on_ack(sack(2000, 3000, 6000), SimTime::from_millis(20));
        assert!(s.in_recovery());
        let retx = sends(&a);
        assert!(retx.iter().any(|&(seq, _, r)| seq == 2000 && r));
    }

    #[test]
    fn sack_recovery_repairs_multiple_holes_per_rtt() {
        // Window of 10 segments; segments 2, 4, 6 lost. With SACK, all
        // three holes are repaired without waiting a full RTT per hole.
        let mut c = cfg();
        c.initial_cwnd_segments = 10;
        let mut s = TcpSender::new(c, 10_000);
        let _ = s.on_start(SimTime::ZERO);
        assert_eq!(s.in_flight(), 10_000);
        // Receiver got 0-2k, then 3-4k, 5-6k, 7-10k: dup acks w/ SACKs.
        let _ = s.on_ack(ack(2000), SimTime::from_millis(10));
        let mut retx_all = Vec::new();
        for (lo, hi) in [(3000u64, 4000u64), (5000, 6000), (7000, 10000)] {
            let a = s.on_ack(sack(2000, lo, hi), SimTime::from_millis(11));
            retx_all.extend(sends(&a));
        }
        let retx_seqs: Vec<u64> = retx_all
            .iter()
            .filter(|(_, _, r)| *r)
            .map(|(q, _, _)| *q)
            .collect();
        // All three holes (2000, 4000, 6000) retransmitted immediately.
        assert!(retx_seqs.contains(&2000), "{retx_seqs:?}");
        assert!(retx_seqs.contains(&4000), "{retx_seqs:?}");
        assert!(retx_seqs.contains(&6000), "{retx_seqs:?}");
        // No hole resent twice within the epoch.
        let mut sorted = retx_seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), retx_seqs.len());
    }

    #[test]
    fn recovery_exits_on_full_ack() {
        let mut s = TcpSender::new(cfg(), 100_000);
        let _ = s.on_start(SimTime::ZERO);
        let _ = s.on_ack(ack(1000), SimTime::from_millis(10));
        let _ = s.on_ack(ack(2000), SimTime::from_millis(10));
        for _ in 0..3 {
            let _ = s.on_ack(ack(2000), SimTime::from_millis(20));
        }
        assert!(s.in_recovery());
        let recover_point = s.recover;
        let _ = s.on_ack(ack(recover_point), SimTime::from_millis(40));
        assert!(!s.in_recovery());
        assert!((s.cwnd() - s.ssthresh()).abs() < 1e-9);
    }

    #[test]
    fn partial_ack_stays_in_recovery() {
        let mut s = TcpSender::new(cfg(), 100_000);
        let _ = s.on_start(SimTime::ZERO);
        let _ = s.on_ack(ack(1000), SimTime::from_millis(10));
        let _ = s.on_ack(ack(2000), SimTime::from_millis(10));
        for _ in 0..3 {
            let _ = s.on_ack(ack(2000), SimTime::from_millis(20));
        }
        let recover_point = s.recover;
        let actions = s.on_ack(sack(3000, 4000, recover_point), SimTime::from_millis(40));
        assert!(s.in_recovery(), "partial ack must stay in recovery");
        // The hole at the new frontier (3000) is retransmitted by the
        // SACK walk.
        let retx = sends(&actions);
        assert!(retx.iter().any(|&(seq, _, r)| seq == 3000 && r), "{retx:?}");
    }

    #[test]
    fn cubic_loss_decreases_by_beta() {
        let mut s = TcpSender::new(cubic_cfg(), 1_000_000);
        let _ = s.on_start(SimTime::ZERO);
        let _ = s.on_ack(ack(1000), SimTime::from_millis(10));
        let _ = s.on_ack(ack(2000), SimTime::from_millis(10));
        let flight = s.in_flight() as f64;
        for t in 20..23 {
            let _ = s.on_ack(ack(2000), SimTime::from_millis(t));
        }
        assert!(s.in_recovery());
        assert!((s.ssthresh() - (flight * CUBIC_BETA).max(2000.0)).abs() < 1e-9);
    }

    #[test]
    fn rto_collapses_window_and_backs_off() {
        let mut s = TcpSender::new(cfg(), 100_000);
        let start = s.on_start(SimTime::ZERO);
        let gen = start
            .iter()
            .find_map(|a| match a {
                TcpAction::ArmTimer { gen, .. } => Some(*gen),
                _ => None,
            })
            .unwrap();
        let rto_before = s.rto().as_secs();
        let actions = s.on_rto(gen, SimTime::from_secs(1.0));
        assert_eq!(s.cwnd(), 1000.0);
        assert_eq!(s.stats().timeouts, 1);
        assert!((s.rto().as_secs() - rto_before * 2.0).abs() < 1e-9);
        // Go-back-N: the head segment is resent.
        let segs = sends(&actions);
        assert_eq!(segs[0].0, 0);
        assert!(segs[0].2, "resend must be marked retransmit");
    }

    #[test]
    fn stale_rto_ignored() {
        let mut s = TcpSender::new(cfg(), 100_000);
        let start = s.on_start(SimTime::ZERO);
        let gen = start
            .iter()
            .find_map(|a| match a {
                TcpAction::ArmTimer { gen, .. } => Some(*gen),
                _ => None,
            })
            .unwrap();
        // An ACK re-arms the timer, invalidating `gen`.
        let _ = s.on_ack(ack(1000), SimTime::from_millis(10));
        let actions = s.on_rto(gen, SimTime::from_secs(1.0));
        assert!(actions.is_empty());
        assert_eq!(s.stats().timeouts, 0);
    }

    #[test]
    fn rtt_sampling_updates_rto() {
        let mut s = TcpSender::new(cfg(), 100_000);
        let _ = s.on_start(SimTime::ZERO);
        assert!(s.srtt().is_none());
        let _ = s.on_ack(ack(1000), SimTime::from_millis(16));
        let srtt = s.srtt().unwrap();
        assert!((srtt.as_millis() - 16.0).abs() < 0.1);
        // RTO = srtt + max(4*rttvar, 1ms), clamped at min 200 ms.
        assert!((s.rto().as_millis() - 200.0).abs() < 1e-6);
    }

    #[test]
    fn hystart_exits_on_rtt_rise() {
        let mut c = cfg();
        c.hystart = true;
        let mut s = TcpSender::new(c, 10_000_000);
        let _ = s.on_start(SimTime::ZERO);
        // First sample establishes the 16 ms floor.
        let _ = s.on_ack(ack(1000), SimTime::from_millis(16));
        assert!(s.in_slow_start());
        // Feed acks with strongly inflated RTTs.
        let mut a = 2000;
        let mut t = 40.0;
        while s.in_slow_start() && a <= 60_000 {
            let _ = s.on_ack(ack(a), SimTime::from_secs(t / 1000.0));
            a += 1000;
            t += 25.0;
        }
        assert!(!s.in_slow_start(), "hystart should have exited slow start");
        assert!(s.stats().hystart_exits >= 1);
    }

    #[test]
    fn hystart_disabled_keeps_doubling() {
        let mut s = TcpSender::new(cfg(), 10_000_000);
        let _ = s.on_start(SimTime::ZERO);
        let _ = s.on_ack(ack(1000), SimTime::from_millis(16));
        let mut a = 2000;
        let mut t = 40.0;
        for _ in 0..20 {
            let _ = s.on_ack(ack(a), SimTime::from_secs(t / 1000.0));
            a += 1000;
            t += 25.0;
        }
        assert!(s.in_slow_start());
        assert_eq!(s.stats().hystart_exits, 0);
    }

    #[test]
    fn cubic_growth_regains_w_max() {
        let mut s = TcpSender::new(cubic_cfg(), u64::MAX / 4);
        // Pretend a loss happened at w_max = 100 kB.
        s.ssthresh = 70_000.0;
        s.w_max = 100_000.0;
        s.cwnd = 70_000.0;
        s.srtt = Some(0.016);
        // The synthetic ACK stream below implies an effective RTT of
        // ~70 ms (window/ack-rate), so allow the curve its full K ≈ 4.2 s
        // plus TCP-friendly growth: drive 8 s of acks.
        let mut t_ms = 0.0;
        let mut a = 0;
        for _ in 0..8000 {
            a += 1000;
            t_ms += 1.0;
            let _ = s.on_ack(ack(a), SimTime::from_secs(t_ms / 1000.0));
        }
        assert!(
            s.cwnd() > 100_000.0,
            "cubic should regain w_max within 8 s, got {}",
            s.cwnd()
        );
    }

    #[test]
    fn pipe_accounts_for_sacked_and_lost() {
        let mut c = cfg();
        c.initial_cwnd_segments = 10;
        let mut s = TcpSender::new(c, 10_000);
        let _ = s.on_start(SimTime::ZERO);
        assert_eq!(s.pipe(), 10_000.0);
        // SACK 5 segments (5000 B) above a hole at [0, 5000).
        let _ = s.on_ack(sack(0, 5000, 10_000), SimTime::from_millis(10));
        // Recovery entered (SACK evidence ≥ 3 MSS). The hole is counted
        // lost except the parts already retransmitted.
        assert!(s.in_recovery());
        // pipe = 10000 (window) - 5000 (sacked) - lost_unretxed;
        // after the walk retransmitted some of the hole, pipe ≈ cwnd.
        assert!(s.pipe() <= s.cwnd() + 1000.0);
    }

    #[test]
    fn cwnd_capped_at_max() {
        let mut c = cfg();
        c.max_cwnd = 3000.0;
        let mut s = TcpSender::new(c, 1_000_000);
        let _ = s.on_start(SimTime::ZERO);
        for i in 1..100u64 {
            let _ = s.on_ack(ack(i * 1000), SimTime::from_millis(i));
        }
        assert!(s.cwnd() <= 3000.0);
    }

    #[test]
    fn ack_beyond_total_ignored() {
        let mut s = TcpSender::new(cfg(), 5000);
        let _ = s.on_start(SimTime::ZERO);
        let actions = s.on_ack(ack(999_999), SimTime::from_millis(1));
        assert!(actions.is_empty());
        assert!(!s.completed);
    }

    // --- receiver ---

    #[test]
    fn receiver_in_order() {
        let mut r = TcpReceiver::new();
        assert_eq!(
            r.on_data(0, 1000),
            AckInfo {
                cum: 1000,
                sack: None
            }
        );
        assert_eq!(
            r.on_data(1000, 1000),
            AckInfo {
                cum: 2000,
                sack: None
            }
        );
        assert_eq!(r.delivered(), 2000);
        assert_eq!(r.ooo.len(), 0);
    }

    #[test]
    fn receiver_out_of_order_reports_sack() {
        let mut r = TcpReceiver::new();
        let _ = r.on_data(0, 1000);
        // Hole at [1000, 2000): dup-acks carrying the growing SACK block.
        assert_eq!(
            r.on_data(2000, 1000),
            AckInfo {
                cum: 1000,
                sack: Some((2000, 3000))
            }
        );
        assert_eq!(
            r.on_data(3000, 1000),
            AckInfo {
                cum: 1000,
                sack: Some((2000, 4000))
            }
        );
        assert_eq!(r.ooo.len(), 1);
        // Filling the hole releases everything.
        assert_eq!(
            r.on_data(1000, 1000),
            AckInfo {
                cum: 4000,
                sack: None
            }
        );
        assert_eq!(r.delivered(), 4000);
        assert_eq!(r.ooo.len(), 0);
    }

    #[test]
    fn receiver_duplicate_data_tolerated() {
        let mut r = TcpReceiver::new();
        let _ = r.on_data(0, 1000);
        assert_eq!(
            r.on_data(0, 1000),
            AckInfo {
                cum: 1000,
                sack: None
            }
        );
        assert_eq!(r.delivered(), 1000);
    }

    #[test]
    fn receiver_overlapping_segments_merge() {
        let mut r = TcpReceiver::new();
        let _ = r.on_data(2000, 1000);
        let a = r.on_data(2500, 1000); // overlaps previous
        assert_eq!(a.sack, Some((2000, 3500)));
        assert_eq!(r.ooo.len(), 1);
        let b = r.on_data(5000, 500); // disjoint
        assert_eq!(b.sack, Some((5000, 5500)));
        assert_eq!(r.ooo.len(), 2);
        // Fill the first hole: frontier advances through merged range.
        assert_eq!(r.on_data(0, 2000).cum, 3500);
    }

    #[test]
    fn receiver_partial_overlap_with_frontier() {
        let mut r = TcpReceiver::new();
        let _ = r.on_data(0, 1000);
        // Segment straddling the frontier: only new part counts.
        assert_eq!(r.on_data(500, 1000).cum, 1500);
        assert_eq!(r.delivered(), 1500);
    }
}
