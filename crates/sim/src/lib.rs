//! The shared simulation kernel.
//!
//! The simulators in this workspace share one set of clocks, one
//! future-event set and one bandwidth vocabulary instead of divergent
//! copies. The packet-level network simulator (`sss-netsim`) and the
//! fleet simulator (`sss-loadgen`) are discrete-event programs on an
//! [`EventQueue`]; the staging-pipeline I/O simulator (`sss-iosim`)
//! needs no event set, because its FIFO stages are per-frame busy-until
//! recurrences over a [`BandwidthTrace`]:
//!
//! * [`SimTime`] — the integer-nanosecond clock (exact ordering,
//!   platform-independent reproducibility) the network simulator runs on;
//! * [`Seconds`] — a totally-ordered `f64`-seconds clock for simulators
//!   whose arithmetic must match an `f64` analytic reference bit for bit;
//! * [`EventQueue`] — the deterministic future-event set (FIFO among
//!   simultaneous events), generic over either clock;
//! * [`BandwidthTrace`] / [`TraceShape`] — piecewise-constant
//!   time-varying WAN bandwidth profiles, the vocabulary that lets the
//!   simulators replay conditions the closed-form completion model
//!   cannot express (diurnal cycles, bursty congestion, scheduled
//!   outages).
//!
//! # Example
//!
//! A two-event process on the integer clock, and a transfer integrated
//! over an outage trace:
//!
//! ```
//! use sss_sim::{BandwidthTrace, EventQueue, SimTime, TraceShape};
//! use sss_units::Rate;
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_millis(2), "second");
//! queue.schedule(SimTime::from_millis(1), "first");
//! assert_eq!(queue.pop().unwrap().1, "first");
//!
//! // A 10-second transfer horizon with a maintenance window: the outage
//! // spans 25%..60% of the horizon, so a transfer that would nominally
//! // take 10 s stalls for 3.5 s.
//! let trace = TraceShape::Outage.build(Rate::from_gigabytes_per_sec(1.0), 10.0, 42);
//! let done = trace.finish_time(0.0, 10.0e9);
//! assert_eq!(done, 13.5);
//! ```

#![warn(missing_docs)]

mod fidelity;
mod queue;
mod time;
mod trace;

pub use fidelity::{
    fluid_tolerance, Fidelity, FLUID_TOLERANCE_BURSTY, FLUID_TOLERANCE_DIURNAL,
    FLUID_TOLERANCE_OUTAGE, FLUID_TOLERANCE_STEADY,
};
pub use queue::EventQueue;
pub use time::{non_negative_finite, Seconds, SimTime};
pub use trace::{BandwidthTrace, DippedTrace, Dips, Production, TraceShape};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sss_units::Rate;

    proptest! {
        /// The queue pops every scheduled event exactly once, earliest
        /// first, FIFO among ties.
        #[test]
        fn queue_is_a_stable_time_sort(times in proptest::collection::vec(0u64..50, 0..64)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            expected.sort(); // stable by (time, insertion index)
            let popped: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_nanos(), i))).collect();
            prop_assert_eq!(popped, expected);
        }

        /// Transfers over any bundled shape terminate, never finish
        /// before the steady-rate floor, and move exactly the requested
        /// volume (finish-time inversion sanity).
        #[test]
        fn traced_transfers_respect_the_steady_floor(
            shape_idx in 0usize..4,
            gb in 1.0f64..100.0,
            horizon in 0.5f64..50.0,
            seed in any::<u64>(),
        ) {
            let base = Rate::from_gigabytes_per_sec(1.0);
            let trace = TraceShape::ALL[shape_idx].build(base, horizon, seed);
            let bytes = gb * 1e9;
            let done = trace.finish_time(0.0, bytes);
            let floor = bytes / base.as_bytes_per_sec();
            prop_assert!(done.is_finite());
            prop_assert!(done >= floor - 1e-9, "done {done} under floor {floor}");
            // Later starts never finish earlier.
            let later = trace.finish_time(0.1, bytes);
            prop_assert!(later >= done - 1e-9);
        }

        /// Fluid integration over **random** piecewise-constant traces —
        /// arbitrary breakpoint counts, rate levels including zero-rate
        /// slots — agrees with the exact byte integrator whenever the
        /// arrival rate dominates the peak service rate, and never
        /// completes before it otherwise (arrivals can only delay bytes).
        #[test]
        fn fluid_matches_exact_on_random_traces(
            // (duration, rate-level) pairs; level 0 is a zero-rate slot.
            segs in proptest::collection::vec((0.01f64..5.0, 0u32..4), 0..12),
            gb in 0.1f64..20.0,
            start in 0.0f64..3.0,
        ) {
            let mut segments = vec![(0.0, Rate::from_gigabytes_per_sec(1.0))];
            let mut t = 0.0;
            for (dur, level) in segs {
                t += dur;
                segments.push((t, Rate::from_gigabytes_per_sec(level as f64 * 0.5)));
            }
            // Terminate with a positive rate so transfers finish.
            t += 1.0;
            segments.push((t, Rate::from_gigabytes_per_sec(2.0)));
            let trace = BandwidthTrace::from_segments(&segments).unwrap();
            let bytes = gb * 1e9;

            let exact = trace.finish_time(start, bytes);
            // Arrival faster than any service rate: fluid == exact.
            let fast = trace.fluid_completion(start, trace.max_rate() * 8.0, bytes, 1.0, f64::INFINITY);
            let rel = (fast - exact).abs() / exact.abs().max(1e-12);
            prop_assert!(rel <= 1e-9, "fluid {fast} vs exact {exact}");
            // A slower feed can only finish later, and still finishes.
            let slow = trace.fluid_completion(start, 0.2e9, bytes, 1.0, f64::INFINITY);
            prop_assert!(slow.is_finite());
            prop_assert!(slow >= exact - exact.abs().max(1.0) * 1e-9, "slow {slow} < exact {exact}");
            // Never before the last byte has even arrived.
            prop_assert!(slow >= start + bytes / 0.2e9 - 1e-6);
        }

        /// The mean rate over the horizon never exceeds the base rate for
        /// any bundled shape (they only ever take bandwidth away).
        #[test]
        fn shapes_only_degrade(
            shape_idx in 0usize..4,
            horizon in 0.5f64..50.0,
            seed in any::<u64>(),
        ) {
            let base = Rate::from_gigabytes_per_sec(2.0);
            let trace = TraceShape::ALL[shape_idx].build(base, horizon, seed);
            let mean = trace.mean_rate(horizon);
            prop_assert!(mean <= base.as_bytes_per_sec() + 1e-6);
            prop_assert!(mean > 0.0);
        }
    }
}
