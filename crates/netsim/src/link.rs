//! Store-and-forward link with a byte-limited drop-tail FIFO.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::config::{LinkConfig, Qdisc};
use crate::packet::Packet;
use sss_sim::SimTime;

/// Running counters for one link (the "interface byte/packet counters"
/// the paper's methodology collects).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets accepted into the queue.
    pub enqueued_pkts: u64,
    /// Packets fully transmitted.
    pub tx_pkts: u64,
    /// Wire bytes fully transmitted.
    pub tx_bytes: u64,
    /// Packets dropped (tail drop + early drops).
    pub dropped_pkts: u64,
    /// Wire bytes dropped.
    pub dropped_bytes: u64,
    /// Of the drops, how many were RED early drops (before the buffer
    /// was actually full).
    pub early_drops: u64,
    /// High-water mark of queue occupancy in bytes.
    pub max_queue_bytes: u64,
}

/// Transmission state of a link.
///
/// A packet being serialized is held in `in_flight` until its
/// transmission-complete event fires; queued packets wait in FIFO order.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    queue: VecDeque<Packet>,
    queue_bytes: u64,
    in_flight: Option<Packet>,
    stats: LinkStats,
    /// EWMA queue-occupancy estimate (RED only).
    avg_queue: f64,
    /// xorshift64* state for RED's drop decisions; deterministic per seed.
    rng: u64,
}

/// Result of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// Link was idle: packet starts transmitting now; the caller must
    /// schedule a transmission-complete event at the returned time.
    StartTx(SimTime),
    /// Packet queued behind the current transmission.
    Queued,
    /// Queue full: packet dropped (tail drop).
    Dropped,
}

impl Link {
    /// Create an idle link. `seed` feeds the (deterministic) RED drop
    /// decisions; it is irrelevant for drop-tail links.
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        Link {
            config,
            queue: VecDeque::new(),
            queue_bytes: 0,
            in_flight: None,
            stats: LinkStats::default(),
            avg_queue: 0.0,
            rng: seed | 1, // xorshift state must be non-zero
        }
    }

    /// Next uniform f64 in [0, 1) from the internal xorshift64* stream.
    fn next_uniform(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let v = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (v >> 11) as f64 / (1u64 << 53) as f64
    }

    /// RED early-drop decision for the current queue state.
    fn red_drops(&mut self) -> bool {
        let Qdisc::Red {
            min_th,
            max_th,
            max_p,
            weight,
        } = self.config.qdisc
        else {
            return false;
        };
        self.avg_queue = (1.0 - weight) * self.avg_queue + weight * self.queue_bytes as f64;
        if self.avg_queue <= min_th {
            false
        } else if self.avg_queue >= max_th {
            true
        } else {
            let p = max_p * (self.avg_queue - min_th) / (max_th - min_th);
            self.next_uniform() < p
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Current queue occupancy in bytes (excluding the packet in service).
    pub fn queue_bytes(&self) -> u64 {
        self.queue_bytes
    }

    /// Serialization time for `wire_bytes` at this link's rate, in ns.
    pub fn tx_time_ns(&self, wire_bytes: u32) -> u64 {
        (wire_bytes as f64 / self.config.rate.as_bytes_per_sec() * 1e9).round() as u64
    }

    /// Offer a packet at time `now`.
    pub fn enqueue(&mut self, pkt: Packet, now: SimTime) -> Enqueue {
        if self.in_flight.is_none() {
            // Idle: serialize immediately (no discipline consults an
            // empty queue).
            debug_assert!(self.queue.is_empty());
            let done = now + self.tx_time_ns(pkt.wire_bytes);
            self.in_flight = Some(pkt);
            self.stats.enqueued_pkts += 1;
            return Enqueue::StartTx(done);
        }
        if self.red_drops() {
            self.stats.dropped_pkts += 1;
            self.stats.dropped_bytes += pkt.wire_bytes as u64;
            self.stats.early_drops += 1;
            return Enqueue::Dropped;
        }
        let new_occupancy = self.queue_bytes + pkt.wire_bytes as u64;
        if new_occupancy > self.config.buffer.as_b() as u64 {
            self.stats.dropped_pkts += 1;
            self.stats.dropped_bytes += pkt.wire_bytes as u64;
            return Enqueue::Dropped;
        }
        self.queue.push_back(pkt);
        self.queue_bytes = new_occupancy;
        self.stats.enqueued_pkts += 1;
        self.stats.max_queue_bytes = self.stats.max_queue_bytes.max(self.queue_bytes);
        Enqueue::Queued
    }

    /// Complete the in-service transmission at time `now`.
    ///
    /// Returns the transmitted packet and, if another packet was waiting,
    /// the completion time of the next transmission the caller must
    /// schedule.
    ///
    /// # Panics
    /// Panics if no transmission was in progress (an event-ordering bug).
    pub fn tx_complete(&mut self, now: SimTime) -> (Packet, Option<SimTime>) {
        let pkt = self
            .in_flight
            .take()
            .expect("tx_complete fired on an idle link");
        self.stats.tx_pkts += 1;
        self.stats.tx_bytes += pkt.wire_bytes as u64;
        let next_done = self.queue.pop_front().map(|next| {
            self.queue_bytes -= next.wire_bytes as u64;
            let done = now + self.tx_time_ns(next.wire_bytes);
            self.in_flight = Some(next);
            done
        });
        (pkt, next_done)
    }

    /// One-way propagation delay in nanoseconds.
    pub fn prop_delay_ns(&self) -> u64 {
        SimTime::delta_to_nanos(self.config.prop_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use sss_units::{Bytes, Rate, TimeDelta};

    fn test_link(buffer_bytes: f64) -> Link {
        Link::new(
            LinkConfig {
                rate: Rate::from_bytes_per_sec(1e6), // 1 MB/s: easy arithmetic
                prop_delay: TimeDelta::from_millis(1.0),
                buffer: Bytes::from_b(buffer_bytes),
                qdisc: Qdisc::DropTail,
            },
            7,
        )
    }

    fn red_link(buffer_bytes: f64, min_th: f64, max_th: f64) -> Link {
        Link::new(
            LinkConfig {
                rate: Rate::from_bytes_per_sec(1e6),
                prop_delay: TimeDelta::from_millis(1.0),
                buffer: Bytes::from_b(buffer_bytes),
                qdisc: Qdisc::Red {
                    min_th,
                    max_th,
                    max_p: 0.5,
                    // Heavy weight so the EWMA tracks the tests' short
                    // bursts instead of averaging them away.
                    weight: 0.5,
                },
            },
            7,
        )
    }

    fn pkt(bytes: u32) -> Packet {
        Packet::data(FlowId(0), 0, bytes - Packet::HEADER_BYTES)
    }

    #[test]
    fn idle_link_starts_tx_immediately() {
        let mut l = test_link(10_000.0);
        let now = SimTime::from_millis(5);
        match l.enqueue(pkt(1000), now) {
            Enqueue::StartTx(done) => {
                // 1000 B at 1 MB/s = 1 ms.
                assert_eq!(done, now + 1_000_000u64);
            }
            other => panic!("expected StartTx, got {other:?}"),
        }
        assert!(l.in_flight.is_some());
        assert_eq!(l.queue_bytes(), 0);
    }

    #[test]
    fn busy_link_queues() {
        let mut l = test_link(10_000.0);
        let now = SimTime::ZERO;
        let _ = l.enqueue(pkt(1000), now);
        assert_eq!(l.enqueue(pkt(2000), now), Enqueue::Queued);
        assert_eq!(l.queue_bytes(), 2000);
        assert_eq!(l.stats().enqueued_pkts, 2);
        assert_eq!(l.stats().max_queue_bytes, 2000);
    }

    #[test]
    fn full_queue_drops_tail() {
        let mut l = test_link(2_500.0);
        let now = SimTime::ZERO;
        let _ = l.enqueue(pkt(1000), now); // in service, not queued
        assert_eq!(l.enqueue(pkt(2000), now), Enqueue::Queued); // 2000/2500
        assert_eq!(l.enqueue(pkt(1000), now), Enqueue::Dropped); // would be 3000
        let s = l.stats();
        assert_eq!(s.dropped_pkts, 1);
        assert_eq!(s.dropped_bytes, 1000);
        // A smaller packet still fits.
        assert_eq!(l.enqueue(pkt(400), now), Enqueue::Queued);
    }

    #[test]
    fn tx_complete_chains_queue() {
        let mut l = test_link(10_000.0);
        let t0 = SimTime::ZERO;
        let _ = l.enqueue(pkt(1000), t0);
        let _ = l.enqueue(pkt(500), t0);
        let t1 = SimTime::from_millis(1);
        let (done_pkt, next) = l.tx_complete(t1);
        assert_eq!(done_pkt.wire_bytes, 1000);
        // Next: 500 B at 1 MB/s = 0.5 ms.
        assert_eq!(next.unwrap(), t1 + 500_000u64);
        assert_eq!(l.queue_bytes(), 0);
        let (p2, none) = l.tx_complete(next.unwrap());
        assert_eq!(p2.wire_bytes, 500);
        assert!(none.is_none());
        assert!(l.in_flight.is_none() && l.queue.is_empty());
        assert_eq!(l.stats().tx_bytes, 1500);
        assert_eq!(l.stats().tx_pkts, 2);
    }

    #[test]
    #[should_panic(expected = "idle link")]
    fn tx_complete_on_idle_panics() {
        let mut l = test_link(1000.0);
        let _ = l.tx_complete(SimTime::ZERO);
    }

    #[test]
    fn tx_time_rounds_to_ns() {
        let l = test_link(1000.0);
        assert_eq!(l.tx_time_ns(1), 1_000); // 1 B at 1 MB/s = 1 µs
        assert_eq!(l.prop_delay_ns(), 1_000_000);
    }

    #[test]
    fn red_below_min_threshold_never_drops() {
        let mut l = red_link(100_000.0, 50_000.0, 90_000.0);
        let now = SimTime::ZERO;
        let _ = l.enqueue(pkt(1000), now); // in service
        for _ in 0..20 {
            assert_eq!(l.enqueue(pkt(1000), now), Enqueue::Queued);
        }
        assert_eq!(l.stats().early_drops, 0);
    }

    #[test]
    fn red_drops_early_between_thresholds() {
        let mut l = red_link(100_000.0, 5_000.0, 20_000.0);
        let now = SimTime::ZERO;
        let _ = l.enqueue(pkt(1000), now);
        let mut early = 0;
        for _ in 0..60 {
            if l.enqueue(pkt(1000), now) == Enqueue::Dropped {
                early += 1;
            }
        }
        let s = l.stats();
        assert!(s.early_drops > 0, "RED should drop before the buffer fills");
        assert_eq!(s.early_drops, early);
        // The buffer itself never filled: occupancy stayed below 100 kB.
        assert!(s.max_queue_bytes < 100_000);
    }

    #[test]
    fn red_always_drops_above_max_threshold() {
        let mut l = red_link(1_000_000.0, 1_000.0, 10_000.0);
        let now = SimTime::ZERO;
        let _ = l.enqueue(pkt(1000), now);
        // Push the EWMA well past max_th...
        for _ in 0..40 {
            let _ = l.enqueue(pkt(1000), now);
        }
        // ...then everything is dropped despite buffer headroom.
        let mut consecutive_drops = 0;
        for _ in 0..10 {
            if l.enqueue(pkt(1000), now) == Enqueue::Dropped {
                consecutive_drops += 1;
            }
        }
        assert_eq!(consecutive_drops, 10);
    }

    #[test]
    fn red_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut l = Link::new(
                LinkConfig {
                    rate: Rate::from_bytes_per_sec(1e6),
                    prop_delay: TimeDelta::from_millis(1.0),
                    buffer: Bytes::from_b(100_000.0),
                    qdisc: Qdisc::Red {
                        min_th: 2_000.0,
                        max_th: 50_000.0,
                        max_p: 0.3,
                        weight: 0.4,
                    },
                },
                seed,
            );
            let now = SimTime::ZERO;
            let _ = l.enqueue(pkt(1000), now);
            (0..50)
                .map(|_| l.enqueue(pkt(1000), now) == Enqueue::Dropped)
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(99), "different seeds should differ somewhere");
    }
}
