//! Packet-level discrete-event network simulator.
//!
//! Stands in for the paper's FABRIC testbed (Table 1: 25 Gbps Mellanox
//! ConnectX-5, 16 ms RTT, MTU 9000): a star of client hosts behind access
//! links feeding one shared bottleneck link into a server, with drop-tail
//! FIFO queues and TCP Reno/NewReno senders. The congestion phenomena the
//! paper measures — slow-start overshoot at batch start, synchronized
//! loss, fast-retransmit stalls and RTO back-off under severe overload —
//! all emerge from these mechanisms, which is what makes the simulator a
//! faithful substitute for measuring worst-case flow-completion times.
//!
//! # Example
//!
//! ```
//! use sss_netsim::{Simulator, SimConfig, FlowSpec, SimTime};
//! use sss_units::{Bytes, Rate, TimeDelta};
//!
//! let cfg = SimConfig::small_test();
//! let mut sim = Simulator::new(cfg, 1); // one client
//! sim.add_flow(FlowSpec::new(0, Bytes::from_mb(1.0), SimTime::ZERO));
//! let report = sim.run();
//! let rec = &report.flows[0];
//! assert!(rec.completed());
//! // The flow cannot beat the theoretical minimum transfer time.
//! let min = Bytes::from_mb(1.0) / report.config.bottleneck.rate;
//! assert!(rec.fct().unwrap().as_secs() >= min.as_secs());
//! ```

mod config;
mod fluid;
mod link;
mod packet;
mod sim;
mod tcp;
mod waterfill;

pub use config::{LinkConfig, Qdisc, SimConfig, TcpConfig};
pub use fluid::progressive_fill;
pub use link::{Link, LinkStats};
pub use packet::{FlowId, Packet};
pub use sim::{CwndSample, FlowRecord, FlowSpec, SimReport, Simulator};
pub use waterfill::{WaterFiller, WaterFlowId};
// The clock and event queue live in the shared `sss-sim` kernel; the
// re-export keeps `sss_netsim::SimTime` working for existing callers.
pub use sss_sim::SimTime;
pub use tcp::{
    AckInfo, CongestionAlgo, SackBlock, TcpAction, TcpReceiver, TcpSender, TcpSenderStats,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sss_units::Bytes;

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 12, ..Default::default()
        })]

        /// Every byte the application asked to move is delivered in order
        /// to the receiver, for arbitrary flow layouts — conservation.
        #[test]
        fn bytes_conserved_for_random_flows(
            sizes in proptest::collection::vec(10_000u64..3_000_000, 1..6),
            starts_ms in proptest::collection::vec(0u64..500, 1..6),
        ) {
            let n = sizes.len().min(starts_ms.len());
            let cfg = SimConfig::small_test();
            let specs: Vec<FlowSpec> = (0..n)
                .map(|i| FlowSpec::new(
                    i as u32,
                    Bytes::from_b(sizes[i] as f64),
                    SimTime::from_millis(starts_ms[i]),
                ))
                .collect();
            let mut sim = Simulator::new(cfg, n as u32);
            for &spec in &specs {
                sim.add_flow(spec);
            }
            let report = sim.run();
            prop_assert!(report.all_completed(), "flows starved: {report:?}");

            // The work-conserving, zero-overhead fluid makespan is an
            // ideal lower bound on the packet-level one. (Per-flow FCTs
            // are not comparable — TCP unfairness can let one flow beat
            // its max-min fair share.)
            let floor = fluid::fluid_completions(&cfg, &specs)
                .into_iter()
                .fold(0.0, f64::max);
            let packet_end = report
                .flows
                .iter()
                .filter_map(|r| r.completion.map(|t| t.as_secs()))
                .fold(0.0, f64::max);
            prop_assert!(
                floor <= packet_end + 1e-9,
                "fluid makespan {floor} exceeds packet makespan {packet_end}"
            );

            let expected: u64 = sizes[..n].iter().sum();
            prop_assert!(
                (report.delivered.total_bytes() - expected as f64).abs() < 1.0,
                "delivered {} expected {}",
                report.delivered.total_bytes(),
                expected
            );
        }

        /// FCT respects the physical floor (serialization at link rate)
        /// for any flow size.
        #[test]
        fn fct_above_physical_floor(size in 5_000u64..5_000_000) {
            let cfg = SimConfig::small_test();
            let mut sim = Simulator::new(cfg, 1);
            sim.add_flow(FlowSpec::new(0, Bytes::from_b(size as f64), SimTime::ZERO));
            let report = sim.run();
            let fct = report.flows[0].fct().expect("completes").as_secs();
            let floor = (Bytes::from_b(size as f64) / cfg.bottleneck.rate).as_secs();
            prop_assert!(fct >= floor, "fct {fct} under floor {floor}");
        }

        /// Simulations are pure functions of their inputs.
        #[test]
        fn runs_are_deterministic(
            sizes in proptest::collection::vec(10_000u64..500_000, 1..4),
        ) {
            let run = || {
                let cfg = SimConfig::small_test();
                let mut sim = Simulator::new(cfg, sizes.len() as u32);
                for (i, &s) in sizes.iter().enumerate() {
                    sim.add_flow(FlowSpec::new(i as u32, Bytes::from_b(s as f64), SimTime::ZERO));
                }
                sim.run()
            };
            let a = run();
            let b = run();
            prop_assert_eq!(a.flows, b.flows);
            prop_assert_eq!(a.events, b.events);
        }

        /// Drops never exceed enqueue attempts, and transmitted packets
        /// never exceed enqueued ones (counter sanity for any layout).
        #[test]
        fn counter_invariants(
            clients in 1u32..6,
            size in 50_000u64..2_000_000,
        ) {
            let cfg = SimConfig::small_test();
            let mut sim = Simulator::new(cfg, clients);
            for c in 0..clients {
                sim.add_flow(FlowSpec::new(c, Bytes::from_b(size as f64), SimTime::ZERO));
            }
            let report = sim.run();
            let b = report.bottleneck;
            prop_assert!(b.tx_pkts <= b.enqueued_pkts);
            prop_assert!(b.early_drops <= b.dropped_pkts);
            prop_assert!(b.max_queue_bytes <= cfg.bottleneck.buffer.as_b() as u64);
            for a in &report.access {
                prop_assert!(a.tx_pkts <= a.enqueued_pkts);
            }
        }
    }
}
