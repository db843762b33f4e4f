//! The **fluid fast path** of the movement pipelines: closed-form
//! piecewise-constant rate integration in place of per-frame stepping.
//!
//! The exact pipelines in [`crate::event`] run one busy-until
//! recurrence per frame, stepping each frame that waits to be produced
//! or crosses a breakpoint and jumping backlogged runs in closed form;
//! the fluid counterparts here cost `O(trace segments + files)`
//! regardless of frame count or production pace, by advancing time
//! analytically to the next trace breakpoint, DTN-slot edge or
//! completion:
//!
//! * **Streaming** models the frame stream as a fluid arriving at the
//!   generation rate from the first frame's production instant and
//!   drains it through
//!   [`BandwidthTrace::fluid_completion`](sss_sim::BandwidthTrace::fluid_completion).
//!   Whenever the source outpaces the link's peak rate and there is no
//!   per-message overhead, the link never starves and the fluid answer
//!   *is* the exact answer up to floating-point re-association. Every
//!   replay cell and fleet session meets that condition: their frames
//!   burst at nanosecond cadence over a zero-overhead WAN. Elsewhere the
//!   linearized arrivals are off by at most one frame period plus one
//!   frame's wire time.
//! * **File-based** is exact in *every* regime: the local writer's
//!   busy-until recurrence has a closed form (the maximum of a linear
//!   function over the frames of a file, attained at an endpoint), and
//!   the DTN stage, which moves whole files through the closed-form
//!   traced integrator, is the exact pipeline's own.
//!
//! The differential proptest suite at the bottom of this module and the
//! catalog-wide harness in `tests/fidelity_parity.rs` hold both paths to
//! the exported [`fluid_tolerance`](sss_sim::fluid_tolerance) contract.

use sss_sim::Fidelity;

use crate::event::{EventFileBasedPipeline, EventStreamingPipeline};
use crate::pipeline::MovementResult;
use crate::profile::PfsProfile;
use crate::workload::FrameSource;

impl EventStreamingPipeline {
    /// Run the streaming movement on the fluid fast path.
    ///
    /// Per-message overhead is folded into an effective per-segment rate
    /// (`B/(B/r + overhead)` per frame of `B` bytes at segment rate
    /// `r`), which is exact on steady traces and approximate across
    /// breakpoints. A fluid has no per-frame arrival instants: only the
    /// completion and the lag behind acquisition are modelled.
    pub fn run_fluid(&self) -> MovementResult {
        let src = &self.source;
        let frame_bytes = src.frame_bytes.as_b();
        let total = src.total_bytes().as_b();
        let overhead = self.wan.per_message_overhead.as_secs();
        let one_way = self.wan.rtt.as_secs() / 2.0;

        // Effective service rate per segment once framing overhead is
        // amortized over a frame's wire time; without overhead the trace
        // itself serves.
        let deflated;
        let service = if overhead > 0.0 {
            deflated = self
                .trace
                .mapped_rates(|r| r * frame_bytes / (frame_bytes + r * overhead))
                .expect("overhead deflation keeps rates finite and the final rate positive");
            &deflated
        } else {
            &self.trace
        };

        // The frame stream linearized: frame i is fully produced at
        // period·(i+1), so the fluid envelope runs at the generation
        // rate starting one period in — it touches every production
        // instant from below, making the drain-limited fluid completion
        // coincide with the per-frame chain.
        let completion = service.fluid_completion(
            src.period.as_secs(),
            src.generation_rate().as_bytes_per_sec(),
            total,
            1.0,
            f64::INFINITY,
        ) + one_way;

        MovementResult::new(src, completion)
    }

    /// Run at the requested fidelity: `Exact` is
    /// [`EventStreamingPipeline::run`], `Fluid` is
    /// [`EventStreamingPipeline::run_fluid`].
    pub fn run_fidelity(&self, fidelity: Fidelity) -> MovementResult {
        match fidelity {
            Fidelity::Exact => self.run(),
            Fidelity::Fluid => self.run_fluid(),
        }
    }
}

impl EventFileBasedPipeline {
    /// Run the file-based movement on the fluid fast path.
    ///
    /// Mathematically exact for any geometry (see the module docs): the
    /// writer's per-file close time is the closed form
    /// `max(entry + k·w, r_first + k·w, r_last + w)` — the busy-until
    /// recurrence's maximum is linear in the frame index, so it is
    /// attained at an endpoint — and the DTN stage reuses the exact
    /// traced integrator per file. Differences from
    /// [`EventFileBasedPipeline::run`] are floating-point
    /// re-association only.
    pub fn run_fluid(&self) -> MovementResult {
        self.run_fidelity(Fidelity::Fluid)
    }

    /// Run at the requested fidelity: the writer stage
    /// ([`EventFileBasedPipeline::closes`]) at `fidelity`, then the DTN
    /// stage ([`EventFileBasedPipeline::deliver`]) both fidelities share.
    pub fn run_fidelity(&self, fidelity: Fidelity) -> MovementResult {
        self.deliver(&Self::closes(
            &self.source,
            self.files,
            &self.path.local,
            fidelity,
        ))
    }
}

/// The fluid writer stage, closed form per file: the k writes of a file
/// chain as d_j = max(d_{j-1}, ready_j) + w from the post-open entry
/// time, whose expansion maximizes a linear function of the frame index —
/// endpoints only.
pub(crate) fn fluid_closes(source: &FrameSource, files: u32, local: &PfsProfile) -> Vec<f64> {
    let metadata = local.metadata_latency.as_secs();
    let period = source.period.as_secs();
    let w = source.frame_bytes.as_b() / local.write_bw.as_bytes_per_sec();
    let mut write_free = 0.0f64;
    let mut frame = 0u32;
    let mut closes = Vec::with_capacity(files as usize);
    for file in 0..files {
        let entry = write_free + metadata;
        let in_file = source.frames_in_file(files, file);
        let k = in_file as f64;
        let r_first = period * (frame + 1) as f64;
        let r_last = period * (frame as f64 + k);
        let close = (entry + k * w).max(r_first + k * w).max(r_last + w);
        write_free = close;
        closes.push(close);
        frame += in_file;
    }
    debug_assert_eq!(frame, source.n_frames);
    closes
}

#[cfg(test)]
impl EventFileBasedPipeline {
    /// [`EventFileBasedPipeline::run_fluid`], showing `unit` each file's
    /// delivery instant in file order.
    pub(crate) fn run_fluid_with(&self, unit: impl FnMut(f64)) -> MovementResult {
        let closes = Self::closes(&self.source, self.files, &self.path.local, Fidelity::Fluid);
        self.deliver_with(&closes, unit)
    }
}

#[cfg(test)]
impl EventStreamingPipeline {
    /// Whether the fluid fast path is provably exact for this pipeline:
    /// the source generates at or above the trace's peak rate (the link
    /// never starves, so the fluid integral equals the per-frame chain)
    /// and there is no per-message overhead to linearize. See the module
    /// docs for the error bound outside it.
    pub(crate) fn fluid_is_exact(&self) -> bool {
        self.source.generation_rate().as_bytes_per_sec() >= self.trace.max_rate()
            && self.wan.per_message_overhead.as_secs() <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use crate::event::{EventFileBasedPipeline, EventStreamingPipeline};
    use crate::pipeline::with_units;
    use crate::profile::presets;
    use crate::workload::FrameSource;
    use sss_sim::{BandwidthTrace, Fidelity, TraceShape};
    use sss_units::{Bytes, TimeDelta};

    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / a.abs().max(b.abs()).max(1e-12)
    }

    /// A burst source: frames at nanosecond cadence, the replay regime
    /// where the fluid streaming path is provably exact.
    fn burst(frames: u32) -> FrameSource {
        FrameSource::new(frames, Bytes::from_mb(8.0), TimeDelta::from_secs(1e-9))
    }

    #[test]
    fn fluid_streaming_matches_exact_on_burst_sources() {
        let src = burst(96);
        let mut wan = presets::aps_alcf_wan();
        wan.per_message_overhead = TimeDelta::ZERO;
        wan.rtt = TimeDelta::ZERO;
        for shape in TraceShape::ALL {
            let trace = shape.build(wan.bandwidth, 0.1, 5);
            let pipe = EventStreamingPipeline::new(src, wan, trace);
            assert!(pipe.fluid_is_exact(), "{shape}: burst source must qualify");
            let exact = pipe.run().completion.as_secs();
            let fluid = pipe.run_fluid().completion.as_secs();
            assert!(
                rel(fluid, exact) <= 1e-9,
                "{shape}: fluid {fluid} vs exact {exact}"
            );
        }
    }

    #[test]
    fn fluid_file_based_matches_exact_everywhere() {
        let src = FrameSource::new(96, Bytes::from_mb(8.0), TimeDelta::from_millis(33.0));
        let mut path = presets::aps_to_alcf();
        path.dtn.concurrency = 3;
        for shape in TraceShape::ALL {
            let trace = shape.build(path.wan.bandwidth, 2.0, 9);
            for files in [1u32, 7, 24, 96] {
                let pipe = EventFileBasedPipeline::new(src, files, path, trace.clone());
                let (exact, exact_units) = with_units(|u| pipe.run_with(u));
                let (fluid, fluid_units) = with_units(|u| pipe.run_fluid_with(u));
                assert!(
                    rel(fluid.completion.as_secs(), exact.completion.as_secs()) <= 1e-9,
                    "{shape}/{files} files: fluid {} vs exact {}",
                    fluid.completion,
                    exact.completion
                );
                for (i, (f, e)) in fluid_units.iter().zip(&exact_units).enumerate() {
                    assert!(rel(*f, *e) <= 1e-9, "{shape}: file {i}: {f} vs {e}");
                }
            }
        }
    }

    /// One writer stage serves every pipeline over the same scan, file
    /// count and local PFS: its closes, delivered over each trace shape,
    /// DTN concurrency and WAN RTT, give every file's delivery instant
    /// bit for bit as that pipeline's own run, at both fidelities, for an
    /// arrival-gated source and a burst (where the two fidelities' closes
    /// differ in their last bits).
    #[test]
    fn one_writer_stage_serves_every_trace() {
        let gated = FrameSource::new(97, Bytes::from_mb(8.0), TimeDelta::from_millis(7.0));
        let base = presets::aps_to_alcf();
        let bits = |units: &[f64]| units.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        for (src, fidelity) in [gated, burst(97)]
            .into_iter()
            .flat_map(|src| [(src, Fidelity::Exact), (src, Fidelity::Fluid)])
        {
            for files in [1u32, 7, 24, 97] {
                let closes = EventFileBasedPipeline::closes(&src, files, &base.local, fidelity);
                for (k, shape) in TraceShape::ALL.into_iter().enumerate() {
                    let mut path = base;
                    path.dtn.concurrency = 1 + k as u32;
                    path.wan.rtt = TimeDelta::from_millis(k as f64);
                    let trace = shape.build(path.wan.bandwidth, 2.0, 11);
                    let pipe = EventFileBasedPipeline::new(src, files, path, trace);
                    let (own, own_units) = with_units(|u| match fidelity {
                        Fidelity::Exact => pipe.run_with(u),
                        Fidelity::Fluid => pipe.run_fluid_with(u),
                    });
                    let (shared, shared_units) = with_units(|u| pipe.deliver_with(&closes, u));
                    assert_eq!(own_units.len(), files as usize);
                    assert_eq!(bits(&own_units), bits(&shared_units), "{shape}/{files}");
                    assert_eq!(own, shared, "{shape}/{files}");
                    assert_eq!(pipe.deliver(&closes), pipe.run_fidelity(fidelity));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "files must be in")]
    fn the_writer_stage_rejects_an_empty_split() {
        let src = burst(4);
        let _ = EventFileBasedPipeline::closes(&src, 0, &presets::voyager_gpfs(), Fidelity::Exact);
    }

    #[test]
    #[should_panic(expected = "one close instant per file")]
    fn delivery_needs_one_close_per_file() {
        let src = burst(4);
        let path = presets::aps_to_alcf();
        let pipe =
            EventFileBasedPipeline::new(src, 2, path, BandwidthTrace::steady(path.wan.bandwidth));
        let _ = pipe.deliver(&[0.0]);
    }

    #[test]
    fn only_a_source_that_outpaces_the_link_is_fluid_exact() {
        // A slow source on a fast link: arrivals gate the stream and the
        // fluid linearization is approximate.
        let src = FrameSource::new(32, Bytes::from_mb(8.0), TimeDelta::from_millis(33.0));
        let wan = presets::aps_alcf_wan();
        let pipe = EventStreamingPipeline::new(src, wan, BandwidthTrace::steady(wan.bandwidth));
        assert!(!pipe.fluid_is_exact());
        assert_eq!(pipe.run_fidelity(Fidelity::Exact), pipe.run());
        // A burst source over a zero-overhead WAN qualifies.
        let mut wan0 = wan;
        wan0.per_message_overhead = TimeDelta::ZERO;
        let fast =
            EventStreamingPipeline::new(burst(32), wan0, BandwidthTrace::steady(wan.bandwidth));
        assert!(fast.fluid_is_exact());
    }

    #[test]
    fn fluid_streaming_error_is_bounded_off_the_exact_regime() {
        // Arrival-gated stream: the linearized envelope is off by at
        // most one frame period + one frame's wire time + overhead.
        let src = FrameSource::new(48, Bytes::from_mb(8.0), TimeDelta::from_millis(33.0));
        let wan = presets::aps_alcf_wan();
        let pipe = EventStreamingPipeline::new(src, wan, BandwidthTrace::steady(wan.bandwidth));
        let exact = pipe.run().completion.as_secs();
        let fluid = pipe.run_fluid().completion.as_secs();
        let frame_wire = (src.frame_bytes / wan.bandwidth).as_secs();
        let bound = src.period.as_secs() + frame_wire + wan.per_message_overhead.as_secs() + 1e-9;
        assert!(
            (fluid - exact).abs() <= bound,
            "fluid {fluid} vs exact {exact}, bound {bound}"
        );
    }

    #[test]
    fn overhead_folding_is_exact_on_steady_traces() {
        let src = burst(64);
        let wan = presets::aps_alcf_wan(); // 100 µs per-message overhead
        let pipe = EventStreamingPipeline::new(src, wan, BandwidthTrace::steady(wan.bandwidth));
        let exact = pipe.run().completion.as_secs();
        let fluid = pipe.run_fluid().completion.as_secs();
        assert!(
            rel(fluid, exact) <= 1e-9,
            "steady overhead folding: fluid {fluid} vs exact {exact}"
        );
    }
}
