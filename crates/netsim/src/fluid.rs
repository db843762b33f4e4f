//! Max-min fair **progressive filling**, the one-shot oracle for
//! [`WaterFiller`](crate::WaterFiller), and the fluid floor that the packet
//! simulator's tests hold it to.
//!
//! A fluid network gives every active flow its max-min fair share of the
//! access and bottleneck capacities, with no headers, slow start, queueing
//! or loss, and advances from one start or completion to the next. Its
//! makespan is therefore a lower bound on the packet
//! [`Simulator`](crate::Simulator)'s, and for a long transfer on an
//! uncontended path the two converge to within TCP's protocol overheads.
//! The tests compute that floor with `fluid_completions`.

#[cfg(test)]
use crate::{config::SimConfig, sim::FlowSpec, waterfill::WaterFiller};

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
/// through [`WaterFiller`](crate::WaterFiller). This one-shot form stays
/// public as the reference oracle that the `WaterFiller` differential
/// tests and the fleet simulator's reference integrator compare against.
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

/// Each flow's completion time, in seconds, in the fluid network over
/// `cfg`'s star: every active flow gets its max-min fair share of the
/// bottleneck ([`WaterFiller`]), capped at an equal share of its client's
/// access link, and time advances analytically from one start or
/// completion to the next. Every active flow always has a positive rate,
/// so the system drains.
#[cfg(test)]
pub(crate) fn fluid_completions(cfg: &SimConfig, flows: &[FlowSpec]) -> Vec<f64> {
    let access = cfg.access.rate.as_bytes_per_sec();
    let clients = flows
        .iter()
        .map(|f| f.client as usize + 1)
        .max()
        .unwrap_or(0);
    let starts: Vec<f64> = flows.iter().map(|f| f.start.as_secs()).collect();
    let mut remaining: Vec<f64> = flows.iter().map(|f| f.bytes.as_b()).collect();
    let mut completion = vec![0.0f64; flows.len()];
    let mut t = 0.0f64;
    loop {
        let active: Vec<usize> = (0..flows.len())
            .filter(|&i| starts[i] <= t && remaining[i] > 0.0)
            .collect();
        let next_start = starts
            .iter()
            .copied()
            .filter(|&s| s > t)
            .fold(f64::INFINITY, f64::min);
        if active.is_empty() {
            if next_start.is_finite() {
                t = next_start;
                continue;
            }
            return completion;
        }
        let mut per_client = vec![0u32; clients];
        for &f in &active {
            per_client[flows[f].client as usize] += 1;
        }
        let mut filler = WaterFiller::new(cfg.bottleneck.rate.as_bytes_per_sec());
        let ids: Vec<_> = active
            .iter()
            .map(|&f| filler.insert(access / per_client[flows[f].client as usize] as f64))
            .collect();
        let rates: Vec<f64> = ids.into_iter().map(|id| filler.grant(id)).collect();
        // Advance to the earlier of the first drain and the next start.
        // The drain branch compares against `drain` itself, so the flow
        // that defines the minimum lands exactly on zero and no sub-ulp
        // remainder can stall the clock.
        let drain = active
            .iter()
            .zip(&rates)
            .map(|(&f, &r)| remaining[f] / r)
            .fold(f64::INFINITY, f64::min);
        if t + drain <= next_start {
            for (&f, &r) in active.iter().zip(&rates) {
                if remaining[f] / r <= drain {
                    remaining[f] = 0.0;
                    completion[f] = t + drain;
                } else {
                    remaining[f] = (remaining[f] - r * drain).max(0.0);
                }
            }
            t += drain;
        } else {
            for (&f, &r) in active.iter().zip(&rates) {
                remaining[f] = (remaining[f] - r * (next_start - t)).max(0.0);
            }
            t = next_start;
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

    /// The fluid network's makespan: when its last byte drains.
    fn fluid_makespan(cfg: &SimConfig, flows: &[FlowSpec]) -> f64 {
        fluid_completions(cfg, flows)
            .into_iter()
            .fold(0.0, f64::max)
    }

    #[test]
    fn single_flow_runs_at_the_bottleneck_rate() {
        let done = fluid_completions(
            &SimConfig::small_test(),
            &[FlowSpec::new(0, mb(1.0), SimTime::ZERO)],
        );
        // 1 MB at 1 Gbps (= 125 MB/s): 8 ms.
        let ideal = (mb(1.0) / Rate::from_gbps(1.0)).as_secs();
        assert!((done[0] - ideal).abs() < 1e-12);
    }

    #[test]
    fn same_client_flows_split_the_access_link() {
        let flows = [FlowSpec::new(0, mb(1.0), SimTime::ZERO); 4];
        let done = fluid_completions(&SimConfig::small_test(), &flows);
        // Four equal flows through one 1 Gbps NIC: all drain together at
        // 4 MB / 125 MB/s.
        let ideal = (mb(4.0) / Rate::from_gbps(1.0)).as_secs();
        for t in &done {
            assert!((t - ideal).abs() < 1e-12, "{done:?}");
        }
    }

    #[test]
    fn staggered_start_reshapes_the_allocation() {
        let done = fluid_completions(
            &SimConfig::small_test(),
            &[
                FlowSpec::new(0, mb(1.0), SimTime::ZERO),
                FlowSpec::new(1, mb(1.0), SimTime::from_millis(4)),
            ],
        );
        // Flow 0 moves 0.5 MB alone in 4 ms, then shares: the remaining
        // 0.5 MB at 62.5 MB/s takes 8 ms more — done at 12 ms. Flow 1
        // gets the full link after 0 finishes.
        assert!((done[0] - 0.012).abs() < 1e-9, "{done:?}");
        assert!(done[1] > done[0]);
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
            let mut packet = Simulator::new(cfg, clients);
            let specs: Vec<FlowSpec> = layout
                .iter()
                .map(|&(c, size_mb, start_ms)| {
                    FlowSpec::new(c, mb(size_mb), SimTime::from_millis(start_ms))
                })
                .collect();
            for &spec in &specs {
                packet.add_flow(spec);
            }
            let fluid_end = fluid_makespan(&cfg, &specs);
            let p = packet.run();
            assert!(p.all_completed());
            let packet_end = p
                .flows
                .iter()
                .filter_map(|r| r.completion.map(|t| t.as_secs()))
                .fold(0.0, f64::max);
            assert!(
                fluid_end <= packet_end + 1e-9,
                "fluid makespan {fluid_end} above packet makespan {packet_end} for {layout:?}"
            );
        }
    }

    #[test]
    fn long_uncontended_flow_converges_to_the_packet_answer() {
        // A 50 MB transfer amortizes slow start: the packet simulator
        // lands within 25% of the fluid floor.
        let cfg = SimConfig::small_test();
        let mut packet = Simulator::new(cfg, 1);
        let spec = FlowSpec::new(0, mb(50.0), SimTime::ZERO);
        packet.add_flow(spec);
        let f = fluid_completions(&cfg, &[spec])[0];
        let p = packet.run().flows[0].fct().unwrap().as_secs();
        let ratio = p / f;
        assert!(
            (1.0..1.25).contains(&ratio),
            "packet/fluid ratio {ratio} (packet {p}, fluid {f})"
        );
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
}
