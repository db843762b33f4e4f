//! Flow-level **fluid** network simulation: max-min fair water-filling
//! over the same star topology as the packet simulator.
//!
//! Where [`Simulator`](crate::Simulator) steps per packet — slow start,
//! loss, retransmission — the [`FluidSimulator`] treats every active
//! flow as a fluid stream receiving its max-min fair share of the access
//! and bottleneck capacities, and advances time analytically from one
//! rate-change event (a flow starting or completing) to the next. A run
//! costs `O(flows² · clients)` arithmetic instead of `O(packets)` events.
//!
//! The fluid answer is the **ideal-transport floor**: no headers, no
//! slow start, no queueing or loss, propagation ignored. Every per-flow
//! completion time is therefore a lower bound on the packet simulator's
//! (the differential tests below hold it to that), and for long
//! transfers on an uncontended path the two converge to within TCP's
//! protocol overheads. Use it the way [`Fidelity::Hybrid`] does in the
//! movement pipelines: trust the fluid number where the transport is
//! known to be efficient, fall back to packet level where loss dynamics
//! matter.
//!
//! [`Fidelity::Hybrid`]: sss_sim::Fidelity

use serde::{Deserialize, Serialize};
use sss_units::TimeDelta;

use crate::config::SimConfig;
use crate::sim::FlowSpec;
use crate::waterfill::WaterFiller;

/// Max-min fair **progressive filling**: distribute `capacity` across
/// flows whose individual demands are bounded by `caps`, so that no flow
/// can be granted more without taking from a flow with an equal or
/// smaller share.
///
/// Repeatedly offers every unfrozen flow an equal share of the remaining
/// capacity; flows whose cap is at or under the offer freeze at their cap
/// (the capacity they decline is redistributed), and the rest split what
/// is left evenly. Every round rescans all flows, so one allocation costs
/// `O(k²)`; production code answers the same question incrementally
/// through [`WaterFiller`]. This one-shot form stays public as the
/// reference oracle that the `WaterFiller` differential tests and the
/// fleet simulator's reference integrator compare against.
///
/// A frozen flow's rate is assigned as `caps[i]` verbatim — bit-equal to
/// the demand, which is what lets callers distinguish "granted its full
/// demand" from "clipped by contention" with an ordinary `<` comparison.
///
/// ```
/// use sss_netsim::progressive_fill;
///
/// // 10 units across demands [2, 9, 9]: flow 0 freezes at 2, the
/// // other two split the remaining 8.
/// assert_eq!(progressive_fill(10.0, &[2.0, 9.0, 9.0]), vec![2.0, 4.0, 4.0]);
/// ```
pub fn progressive_fill(capacity: f64, caps: &[f64]) -> Vec<f64> {
    let mut rates = vec![0.0f64; caps.len()];
    let mut frozen = vec![false; caps.len()];
    loop {
        let open = frozen.iter().filter(|f| !**f).count();
        if open == 0 {
            break;
        }
        let used: f64 = rates
            .iter()
            .zip(&frozen)
            .filter(|(_, f)| **f)
            .map(|(r, _)| r)
            .sum();
        let share = ((capacity - used) / open as f64).max(0.0);
        let mut froze_any = false;
        for i in 0..caps.len() {
            if !frozen[i] && caps[i] <= share {
                rates[i] = caps[i];
                frozen[i] = true;
                froze_any = true;
            }
        }
        if !froze_any {
            for i in 0..caps.len() {
                if !frozen[i] {
                    rates[i] = share;
                }
            }
            break;
        }
    }
    rates
}

/// Outcome of one fluid flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FluidFlowRecord {
    /// Originating client index.
    pub client: u32,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Scheduled start time, seconds.
    pub start_s: f64,
    /// When the last fluid byte crossed the bottleneck, seconds.
    pub completion_s: f64,
}

impl FluidFlowRecord {
    /// Flow completion time (start → last byte), the paper's per-transfer
    /// metric.
    pub fn fct(&self) -> TimeDelta {
        TimeDelta::from_secs(self.completion_s - self.start_s)
    }
}

/// Result of a fluid run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FluidReport {
    /// Per-flow outcomes, in registration order.
    pub flows: Vec<FluidFlowRecord>,
    /// When the last flow drained, seconds.
    pub end_s: f64,
}

impl FluidReport {
    /// The maximum flow completion time — `T_worst` in the paper.
    pub fn worst_fct(&self) -> Option<TimeDelta> {
        self.flows
            .iter()
            .map(FluidFlowRecord::fct)
            .max_by(|a, b| a.as_secs().total_cmp(&b.as_secs()))
    }
}

/// The fluid counterpart of [`Simulator`](crate::Simulator): same star
/// topology and [`FlowSpec`] vocabulary, flow-level fluid mechanics.
///
/// ```
/// use sss_netsim::{FluidSimulator, FlowSpec, SimConfig, SimTime};
/// use sss_units::{Bytes, Rate};
///
/// let mut sim = FluidSimulator::new(SimConfig::small_test(), 2);
/// sim.add_flow(FlowSpec::new(0, Bytes::from_mb(1.0), SimTime::ZERO));
/// sim.add_flow(FlowSpec::new(1, Bytes::from_mb(1.0), SimTime::ZERO));
/// let report = sim.run();
/// // Two 1 MB flows share the 1 Gbps (125 MB/s) bottleneck fairly:
/// // both drain together after 2 MB / 125 MB/s = 16 ms.
/// assert!((report.end_s - 0.016).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FluidSimulator {
    cfg: SimConfig,
    clients: u32,
    flows: Vec<FlowSpec>,
}

impl FluidSimulator {
    /// Create a fluid simulator with `clients` client hosts.
    ///
    /// # Panics
    /// Panics on an invalid configuration or zero clients.
    pub fn new(cfg: SimConfig, clients: u32) -> Self {
        cfg.validate().expect("invalid SimConfig");
        assert!(clients > 0, "need at least one client host");
        FluidSimulator {
            cfg,
            clients,
            flows: Vec::new(),
        }
    }

    /// Register a flow; returns its index in the report.
    ///
    /// # Panics
    /// Panics when the client index is out of range or the size is not
    /// positive.
    pub fn add_flow(&mut self, spec: FlowSpec) -> usize {
        assert!(
            spec.client < self.clients,
            "client {} out of range ({} clients)",
            spec.client,
            self.clients
        );
        assert!(
            spec.bytes.as_b() > 0.0 && spec.bytes.is_finite(),
            "flow size must be positive, got {}",
            spec.bytes
        );
        self.flows.push(spec);
        self.flows.len() - 1
    }

    /// Max-min fair rates for the active flows: the bottleneck
    /// water-filled over the flows, with each flow capped at its fair
    /// share of its client's access link.
    fn max_min_rates(&self, active: &[usize]) -> Vec<f64> {
        let access = self.cfg.access.rate.as_bytes_per_sec();
        let mut per_client = vec![0u32; self.clients as usize];
        for &f in active {
            per_client[self.flows[f].client as usize] += 1;
        }
        // Each flow's hard cap: an equal share of its access link.
        let mut filler = WaterFiller::new(self.cfg.bottleneck.rate.as_bytes_per_sec());
        let ids: Vec<_> = active
            .iter()
            .map(|&f| filler.insert(access / per_client[self.flows[f].client as usize] as f64))
            .collect();
        ids.into_iter().map(|id| filler.grant(id)).collect()
    }

    /// Run to completion and report. Deterministic, and — because every
    /// active flow always receives a positive rate — the fluid system
    /// always drains: there is no truncation horizon.
    pub fn run(&self) -> FluidReport {
        let n = self.flows.len();
        let mut remaining: Vec<f64> = self.flows.iter().map(|f| f.bytes.as_b()).collect();
        let mut completion = vec![0.0f64; n];
        let starts: Vec<f64> = self.flows.iter().map(|f| f.start.as_secs()).collect();
        let mut started = vec![false; n];
        let mut t = 0.0f64;
        loop {
            for i in 0..n {
                if !started[i] && starts[i] <= t {
                    started[i] = true;
                }
            }
            let active: Vec<usize> = (0..n)
                .filter(|&i| started[i] && remaining[i] > 0.0)
                .collect();
            let next_start = (0..n)
                .filter(|&i| !started[i])
                .map(|i| starts[i])
                .fold(f64::INFINITY, f64::min);
            if active.is_empty() {
                if next_start.is_finite() {
                    t = next_start;
                    continue;
                }
                break;
            }
            let rates = self.max_min_rates(&active);
            // Analytic advance: the earliest of (a) a flow draining at
            // its current rate, (b) a scheduled start changing the
            // allocation. The two branches compare against `drain`
            // itself, not a re-derived `t_next - t`, so the flow that
            // defines the minimum always lands exactly on zero — a float
            // residue can never leave a sub-ulp remainder that would
            // stall the clock.
            let drain = active
                .iter()
                .zip(&rates)
                .map(|(&f, &r)| remaining[f] / r)
                .fold(f64::INFINITY, f64::min);
            if t + drain <= next_start {
                let t_next = t + drain;
                for (&f, &r) in active.iter().zip(&rates) {
                    if remaining[f] / r <= drain {
                        remaining[f] = 0.0;
                        completion[f] = t_next;
                    } else {
                        remaining[f] = (remaining[f] - r * drain).max(0.0);
                    }
                }
                t = t_next;
            } else {
                // A start arrives before any completion: integrate up to
                // it and recompute the allocation. `drain > dt` for every
                // active flow, so none can cross zero in this window.
                let dt = next_start - t;
                for (&f, &r) in active.iter().zip(&rates) {
                    remaining[f] = (remaining[f] - r * dt).max(0.0);
                }
                t = next_start;
            }
        }
        FluidReport {
            flows: self
                .flows
                .iter()
                .enumerate()
                .map(|(i, f)| FluidFlowRecord {
                    client: f.client,
                    bytes: f.bytes.as_b() as u64,
                    start_s: starts[i],
                    completion_s: completion[i],
                })
                .collect(),
            end_s: t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::SimTime;
    use sss_units::{Bytes, Rate};

    fn mb(x: f64) -> Bytes {
        Bytes::from_mb(x)
    }

    #[test]
    fn single_flow_runs_at_the_bottleneck_rate() {
        let mut sim = FluidSimulator::new(SimConfig::small_test(), 1);
        sim.add_flow(FlowSpec::new(0, mb(1.0), SimTime::ZERO));
        let r = sim.run();
        // 1 MB at 1 Gbps (= 125 MB/s): 8 ms.
        let ideal = (mb(1.0) / Rate::from_gbps(1.0)).as_secs();
        assert!((r.flows[0].fct().as_secs() - ideal).abs() < 1e-12);
    }

    #[test]
    fn same_client_flows_split_the_access_link() {
        let mut sim = FluidSimulator::new(SimConfig::small_test(), 1);
        for _ in 0..4 {
            sim.add_flow(FlowSpec::new(0, mb(1.0), SimTime::ZERO));
        }
        let r = sim.run();
        // Four equal flows through one 1 Gbps NIC: all drain together at
        // 4 MB / 125 MB/s.
        let ideal = (mb(4.0) / Rate::from_gbps(1.0)).as_secs();
        for f in &r.flows {
            assert!((f.completion_s - ideal).abs() < 1e-12, "{f:?}");
        }
    }

    #[test]
    fn staggered_start_reshapes_the_allocation() {
        let mut sim = FluidSimulator::new(SimConfig::small_test(), 2);
        sim.add_flow(FlowSpec::new(0, mb(1.0), SimTime::ZERO));
        sim.add_flow(FlowSpec::new(1, mb(1.0), SimTime::from_millis(4)));
        let r = sim.run();
        // Flow 0 moves 0.5 MB alone in 4 ms, then shares: the remaining
        // 0.5 MB at 62.5 MB/s takes 8 ms more — done at 12 ms. Flow 1
        // gets the full link after 0 finishes.
        assert!((r.flows[0].completion_s - 0.012).abs() < 1e-9, "{r:?}");
        assert!(r.flows[1].completion_s > r.flows[0].completion_s);
        assert!((r.end_s - r.flows[1].completion_s).abs() < 1e-12);
    }

    #[test]
    fn fluid_makespan_is_a_floor_under_the_packet_simulator() {
        // Same flow layout through both worlds. Per-flow FCTs are NOT
        // comparable under contention (TCP unfairness can let one flow
        // beat its max-min fair share), but the fluid system is
        // work-conserving with zero overhead, so its *makespan* — when
        // the last byte drains — is a hard floor under the packet
        // simulator's.
        let cfg = SimConfig::small_test();
        let layouts: &[&[(u32, f64, u64)]] = &[
            &[(0, 1.0, 0)],
            &[(0, 5.0, 0), (1, 5.0, 0)],
            &[(0, 2.0, 0), (0, 2.0, 0), (1, 3.0, 100)],
        ];
        for (clients, layout) in [(1u32, layouts[0]), (2, layouts[1]), (2, layouts[2])] {
            let mut fluid = FluidSimulator::new(cfg, clients);
            let mut packet = Simulator::new(cfg, clients);
            for &(c, size_mb, start_ms) in layout {
                let spec = FlowSpec::new(c, mb(size_mb), SimTime::from_millis(start_ms));
                fluid.add_flow(spec);
                packet.add_flow(spec);
            }
            let f = fluid.run();
            let p = packet.run();
            assert!(p.all_completed());
            let packet_end = p
                .flows
                .iter()
                .filter_map(|r| r.completion.map(|t| t.as_secs()))
                .fold(0.0, f64::max);
            assert!(
                f.end_s <= packet_end + 1e-9,
                "fluid makespan {} above packet makespan {packet_end} for {layout:?}",
                f.end_s
            );
        }
    }

    #[test]
    fn long_uncontended_flow_converges_to_the_packet_answer() {
        // A 50 MB transfer amortizes slow start: the packet simulator
        // lands within 25% of the fluid floor.
        let cfg = SimConfig::small_test();
        let mut fluid = FluidSimulator::new(cfg, 1);
        let mut packet = Simulator::new(cfg, 1);
        let spec = FlowSpec::new(0, mb(50.0), SimTime::ZERO);
        fluid.add_flow(spec);
        packet.add_flow(spec);
        let f = fluid.run().flows[0].fct().as_secs();
        let p = packet.run().flows[0].fct().unwrap().as_secs();
        let ratio = p / f;
        assert!(
            (1.0..1.25).contains(&ratio),
            "packet/fluid ratio {ratio} (packet {p}, fluid {f})"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let build = || {
            let mut sim = FluidSimulator::new(SimConfig::small_test(), 3);
            for c in 0..3 {
                sim.add_flow(FlowSpec::new(c, mb(3.0), SimTime::from_millis(c as u64)));
            }
            sim.run()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn max_min_respects_both_constraint_layers() {
        // 3 flows on client 0, 1 flow on client 1, equal link rates:
        // client 0's flows are access-capped at 1/3 each; the bottleneck
        // then grants the rest to client 1's flow, itself access-capped.
        let mut sim = FluidSimulator::new(SimConfig::small_test(), 2);
        for _ in 0..3 {
            sim.add_flow(FlowSpec::new(0, mb(1.0), SimTime::ZERO));
        }
        sim.add_flow(FlowSpec::new(1, mb(1.0), SimTime::ZERO));
        let rates = sim.max_min_rates(&[0, 1, 2, 3]);
        let access = SimConfig::small_test().access.rate.as_bytes_per_sec();
        // Bottleneck splits 4 ways first (share = access/4), which is
        // under client 0's per-flow cap (access/3)? No: access/4 < access/3,
        // so nobody freezes and all four get an equal bottleneck share.
        for r in &rates {
            assert!((r - access / 4.0).abs() < 1e-6, "{rates:?}");
        }
    }

    #[test]
    fn progressive_fill_freezes_small_demands_at_their_cap() {
        let rates = progressive_fill(10.0, &[2.0, 9.0, 9.0]);
        // The frozen flow's grant is its cap *verbatim*, so `<` cleanly
        // separates clipped from unclipped flows.
        assert!(rates[0] >= 2.0);
        assert!((rates[1] - 4.0).abs() < 1e-12 && (rates[2] - 4.0).abs() < 1e-12);
        assert!(rates[1] < 9.0 && rates[2] < 9.0);
    }

    #[test]
    fn progressive_fill_grants_every_demand_when_capacity_suffices() {
        let caps = [1.0, 2.5, 0.0];
        let rates = progressive_fill(100.0, &caps);
        for (r, c) in rates.iter().zip(&caps) {
            assert!(r >= c, "{rates:?}");
        }
    }

    #[test]
    fn progressive_fill_empty_and_zero_capacity() {
        assert!(progressive_fill(5.0, &[]).is_empty());
        let rates = progressive_fill(0.0, &[1.0, 1.0]);
        for r in &rates {
            assert!(*r <= 0.0, "{rates:?}");
        }
    }

    #[test]
    fn serde_round_trip() {
        let mut sim = FluidSimulator::new(SimConfig::small_test(), 1);
        sim.add_flow(FlowSpec::new(0, mb(1.0), SimTime::ZERO));
        let report = sim.run();
        let json = serde_json::to_string(&report).unwrap();
        let back: FluidReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_client_rejected() {
        let mut sim = FluidSimulator::new(SimConfig::small_test(), 1);
        sim.add_flow(FlowSpec::new(3, mb(1.0), SimTime::ZERO));
    }
}
