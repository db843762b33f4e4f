//! The movement pipelines of Figure 4: the per-frame ground truth behind
//! [`Fidelity::Exact`](sss_sim::Fidelity), with every WAN byte integrated
//! over a [`BandwidthTrace`]. A constant-rate WAN is
//! [`BandwidthTrace::steady`]; diurnal cycles, bursty congestion and
//! scheduled outages land mid-transfer exactly where they would on the
//! real systems.
//!
//! **Recurrences, not an event loop.** Every stage serves its work in
//! order (the link and the local writer frame by frame, the DTN file by
//! file in close order), and frame `i` is ready at `period·(i+1)`, so
//! each pipeline is a busy-until chain:
//!
//! * streaming: the link sends frame `i` at
//!   `sent_i = finish(max(ready_i, sent_{i-1}), frame_bytes) + overhead`,
//!   one FIFO send chain over the trace ([`BandwidthTrace::send_chain`]):
//!   a frame that fits in the segment it starts in finishes at
//!   `start + frame_bytes/rate`, with the quotient held per segment, and
//!   only a frame that crosses a breakpoint walks segments;
//! * file-based: the local writer is a FIFO server at the constant
//!   `write_bw`, so it runs on the same kernel over a steady trace
//!   ([`BandwidthTrace::steady`]): a file's open holds the writer
//!   `metadata` seconds, then the file's frames are one send chain from
//!   the instant the open completes, each write finishing at
//!   `max(ready_i, writer_free) + frame_bytes/write_bw`, and the chain's
//!   last instant closes the file. Each file then takes the earliest-free
//!   DTN slot at its close, and nothing flows from a delivery back to the
//!   writer.
//!
//! **Two stages.** The writer never reads the WAN trace, so it is a stage
//! of its own: [`EventFileBasedPipeline::closes`] takes the source, the
//! file count, the local PFS and the [`Fidelity`] to each file's close
//! instant, and [`EventFileBasedPipeline::deliver`] moves the closed
//! files over one trace. `run` is the two back to back. A replay that
//! delivers one scan over several traces runs the writer once per
//! scenario and delivery once per (scenario × trace) cell.
//!
//! Both chains hand the kernel the source's production as a
//! [`Production`]: frame `i` ready at `period·(i+1)`, which never
//! decreases. A burst source keeps both chains backlogged after their
//! first frame, so the kernel jumps them in closed form: while the
//! server's free instant stays in one segment and one binade, every
//! backlogged frame adds the same step, so a run of frames lands on
//! `free + k·step` exactly, the bits a frame-by-frame chain gives. The
//! first frame, frames that wait to be produced, ties, binade tops and
//! frames that cross a breakpoint step singly.
//!
//! A discrete-event simulation of the same processes has to break ties
//! between a production and a completion at the same instant; here each
//! tie resolves to the same `f64` either way. The tests keep that
//! simulation, with every production scheduled up front on an
//! [`EventQueue`](sss_sim::EventQueue), as the reference the recurrences
//! must match bit for bit. Every instant is still a valid [`Seconds`],
//! finite and non-negative: a single step checks its production, send or
//! writer instant, a jumped run's instants all lie between two checked
//! ones, and each delivery instant is checked.
//!
//! A run returns the completion and the lag behind acquisition, and
//! keeps no per-frame or per-file instants. The tests read those through
//! the crate-private `run_with` (a stream's frames) and `deliver_with`
//! (a scan's files), which show each unit's instant to a callback; `run`
//! and `deliver` pass one that does nothing.
//!
//! On a steady trace each integration is `start + bytes/rate`, so the
//! chains reduce to constant-rate arithmetic; a test checks every
//! instant of a small stream and staged scan against that arithmetic
//! written out by hand.

use sss_sim::{BandwidthTrace, Fidelity, Production, Seconds};

use crate::fluid::fluid_closes;
use crate::pipeline::MovementResult;
use crate::profile::{PathProfile, PfsProfile, WanProfile};
use crate::workload::FrameSource;

/// Streaming movement: frames are pushed to the remote consumer's memory
/// as soon as they are produced, over one long-lived connection whose
/// achievable rate follows `trace` (Figure 1(b)); no file system touches
/// the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct EventStreamingPipeline {
    /// The detector workload.
    pub source: FrameSource,
    /// Network profile (RTT and per-message overhead; the trace replaces
    /// the profile's constant bandwidth for wire time).
    pub wan: WanProfile,
    /// Achievable WAN bandwidth over time.
    pub trace: BandwidthTrace,
}

impl EventStreamingPipeline {
    /// Build a streaming pipeline.
    ///
    /// # Panics
    /// Panics on an invalid WAN profile.
    pub fn new(source: FrameSource, wan: WanProfile, trace: BandwidthTrace) -> Self {
        wan.validate().expect("invalid WanProfile");
        EventStreamingPipeline { source, wan, trace }
    }

    /// Move the scan frame by frame.
    pub fn run(&self) -> MovementResult {
        self.run_with(|_| {})
    }

    /// [`EventStreamingPipeline::run`], showing `unit` each frame's
    /// arrival instant in frame order.
    pub(crate) fn run_with(&self, mut unit: impl FnMut(f64)) -> MovementResult {
        let src = &self.source;
        assert!(src.n_frames > 0, "a scan needs at least one frame");
        let one_way = self.wan.rtt.as_secs() / 2.0;
        // The FIFO link sends each frame once it exists and the frame
        // before it is sent; a frame arrives half an RTT after its send.
        let link_free = self.trace.send_chain(
            0.0,
            src.n_frames,
            src.frame_bytes.as_b(),
            self.wan.per_message_overhead.as_secs(),
            Production {
                period: src.period.as_secs(),
                first: 0,
            },
            |free| unit(free + one_way),
        );
        MovementResult::new(src, link_free + one_way)
    }
}

/// File-based movement: frames are written to the local PFS grouped into
/// `files` parts that differ by at most one frame, each file becomes
/// DTN-eligible when closed, and the DTN's transfer slots move files
/// (with per-file startup and checksum cost) over the traced WAN into
/// the remote PFS.
#[derive(Debug, Clone, PartialEq)]
pub struct EventFileBasedPipeline {
    /// The detector workload.
    pub source: FrameSource,
    /// Number of files the scan is aggregated into (Figure 4: 1, 10,
    /// 144, 1,440).
    pub files: u32,
    /// Substrate performance profile (the trace replaces the profile's
    /// constant WAN bandwidth).
    pub path: PathProfile,
    /// Achievable WAN bandwidth over time.
    pub trace: BandwidthTrace,
}

impl EventFileBasedPipeline {
    /// Build a file-based pipeline; `files` must be in `1..=n_frames`.
    ///
    /// # Panics
    /// Panics when `files` is out of range or the profile is invalid.
    pub fn new(source: FrameSource, files: u32, path: PathProfile, trace: BandwidthTrace) -> Self {
        check_files(&source, files);
        path.validate().expect("invalid PathProfile");
        EventFileBasedPipeline {
            source,
            files,
            path,
            trace,
        }
    }

    /// The writer stage: each file's close instant, in file order, when
    /// `source`'s scan is written to the `local` PFS as `files` files.
    /// `Exact` steps the writer frame by frame; `Fluid` takes each file's
    /// closed form. No WAN, DTN or remote term enters, so one call serves
    /// every pipeline over the same scan, file count and local PFS, at
    /// any trace ([`EventFileBasedPipeline::deliver`]).
    ///
    /// # Panics
    /// Panics when `files` is out of `1..=n_frames` or `local` is
    /// invalid.
    pub fn closes(
        source: &FrameSource,
        files: u32,
        local: &PfsProfile,
        fidelity: Fidelity,
    ) -> Vec<f64> {
        check_files(source, files);
        local.validate().expect("invalid PfsProfile");
        match fidelity {
            Fidelity::Exact => exact_closes(source, files, local),
            Fidelity::Fluid => fluid_closes(source, files, local),
        }
    }

    /// Move the scan frame by frame through the local writer, then file
    /// by file through the DTN.
    pub fn run(&self) -> MovementResult {
        self.run_fidelity(Fidelity::Exact)
    }

    /// The DTN stage both fidelities share, over the writer stage's
    /// `closes` ([`EventFileBasedPipeline::closes`] of this pipeline's
    /// source, file count and local PFS): in close order, each file takes
    /// the earliest-free of the transfer slots at `closes[file]`, pays the
    /// fixed per-file costs, moves its bytes at the traced WAN share
    /// capped by the slower PFS stage, then verifies checksums.
    ///
    /// # Panics
    /// Panics unless `closes` holds one instant per file, or when a
    /// delivery instant is negative or not finite.
    pub fn deliver(&self, closes: &[f64]) -> MovementResult {
        self.deliver_with(closes, |_| {})
    }

    /// [`EventFileBasedPipeline::deliver`], showing `unit` each file's
    /// delivery instant in file order.
    pub(crate) fn deliver_with(&self, closes: &[f64], mut unit: impl FnMut(f64)) -> MovementResult {
        assert_eq!(
            closes.len(),
            self.files as usize,
            "need one close instant per file"
        );
        let p = &self.path;
        let frame_bytes = self.source.frame_bytes.as_b();
        // The slowest pipelined per-byte stage bounds a DTN task's rate.
        let stage_cap = p.local.read_bw.min(p.remote.write_bw).as_bytes_per_sec();
        let divisor = p.dtn.concurrency as f64;
        let fixed = p.dtn.startup_per_file.as_secs()
            + p.remote.metadata_latency.as_secs()
            + p.wan.rtt.as_secs();
        let checksum = p.dtn.checksum_rate.as_bytes_per_sec();

        let mut slot_free = vec![0.0f64; p.dtn.concurrency as usize];
        let mut completion = 0.0f64;
        for (file, &close) in closes.iter().enumerate() {
            let bytes = frame_bytes * self.source.frames_in_file(self.files, file as u32) as f64;
            let (slot, _) = slot_free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("slot time NaN"))
                .expect("at least one slot");
            let start = close.max(slot_free[slot]);
            let wire_done = self
                .trace
                .capped_finish_time(start + fixed, bytes, divisor, stage_cap);
            let done = instant(wire_done + bytes / checksum);
            slot_free[slot] = done;
            completion = completion.max(done);
            unit(done);
        }
        MovementResult::new(&self.source, completion)
    }
}

#[cfg(test)]
impl EventFileBasedPipeline {
    /// [`EventFileBasedPipeline::run`], showing `unit` each file's
    /// delivery instant in file order.
    pub(crate) fn run_with(&self, unit: impl FnMut(f64)) -> MovementResult {
        let closes = Self::closes(&self.source, self.files, &self.path.local, Fidelity::Exact);
        self.deliver_with(&closes, unit)
    }
}

/// The file-count check of both stages: every file holds at least one
/// frame.
///
/// # Panics
/// Panics unless `files` is in `1..=source.n_frames`.
fn check_files(source: &FrameSource, files: u32) {
    assert!(
        files >= 1 && files <= source.n_frames,
        "files must be in 1..=n_frames, got {files}"
    );
}

/// The exact writer stage: the writer's sequential program opens each
/// file (charged from t=0 for the first, before any frame exists), then
/// writes each of its frames once the frame exists and the writer is
/// free, as one send chain at the write bandwidth from the open's
/// completion. A file closes with its last write.
fn exact_closes(source: &FrameSource, files: u32, local: &PfsProfile) -> Vec<f64> {
    let writer = BandwidthTrace::steady(local.write_bw);
    let metadata = local.metadata_latency.as_secs();
    let mut writer_free = 0.0f64;
    let mut first = 0u32;
    let mut closes = Vec::with_capacity(files as usize);
    for file in 0..files {
        let frames = source.frames_in_file(files, file);
        writer_free = writer.send_chain(
            writer_free + metadata,
            frames,
            source.frame_bytes.as_b(),
            0.0,
            Production {
                period: source.period.as_secs(),
                first,
            },
            |_| {},
        );
        first += frames;
        closes.push(writer_free);
    }
    debug_assert_eq!(first, source.n_frames);
    closes
}

/// An instant on the simulated clock, checked as a [`Seconds`] is.
///
/// # Panics
/// Panics on a negative or non-finite instant.
fn instant(t: f64) -> f64 {
    Seconds::new(t).value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::with_units;
    use crate::profile::{presets, DtnProfile, PfsProfile};
    use proptest::prelude::*;
    use sss_sim::{EventQueue, TraceShape};
    use sss_units::{Bytes, Rate, TimeDelta};

    /// Streaming events of the pre-scheduled oracle.
    enum PrescheduledStreamEv {
        Produced(u32),
        SendDone(u32),
    }

    /// File-pipeline events of the pre-scheduled oracle.
    enum PrescheduledFileEv {
        Start,
        Produced(u32),
        WriterDone,
        TransferDone(u32),
    }

    /// One operation in the oracle writer's sequential program.
    #[derive(Debug, Clone, Copy)]
    enum WriterOp {
        /// Create/open the next file in sequence (metadata cost).
        Open,
        /// Write frame `i`; closing file `f` if it is the file's last frame.
        Write { frame: u32, closes: Option<u32> },
    }

    impl EventStreamingPipeline {
        /// The discrete-event reference the recurrence is held to: every
        /// production scheduled on the queue before the first pop. Returns
        /// each frame's arrival instant too.
        fn run_prescheduled(&self) -> (MovementResult, Vec<f64>) {
            let src = &self.source;
            let n = src.n_frames as usize;
            let frame_bytes = src.frame_bytes.as_b();
            let overhead = self.wan.per_message_overhead.as_secs();
            let one_way = self.wan.rtt.as_secs() / 2.0;

            let mut queue: EventQueue<Seconds, PrescheduledStreamEv> = EventQueue::new();
            for i in 0..src.n_frames {
                queue.schedule(
                    Seconds::new(src.frame_ready(i).as_secs()),
                    PrescheduledStreamEv::Produced(i),
                );
            }

            let mut pending: std::collections::VecDeque<u32> = Default::default();
            let mut sending = false;
            let mut available = vec![0.0f64; n];

            let start_next = |queue: &mut EventQueue<Seconds, PrescheduledStreamEv>,
                              pending: &mut std::collections::VecDeque<u32>,
                              now: f64| {
                let i = pending.pop_front().expect("caller checked non-empty");
                let sent = self.trace.finish_time(now, frame_bytes) + overhead;
                queue.schedule(Seconds::new(sent), PrescheduledStreamEv::SendDone(i));
            };

            while let Some((t, ev)) = queue.pop() {
                let now = t.value();
                match ev {
                    PrescheduledStreamEv::Produced(i) => {
                        pending.push_back(i);
                        if !sending {
                            sending = true;
                            start_next(&mut queue, &mut pending, now);
                        }
                    }
                    PrescheduledStreamEv::SendDone(i) => {
                        available[i as usize] = now + one_way;
                        if pending.is_empty() {
                            sending = false;
                        } else {
                            start_next(&mut queue, &mut pending, now);
                        }
                    }
                }
            }

            let completion = *available.last().expect("non-empty scan");
            (MovementResult::new(src, completion), available)
        }
    }

    impl EventFileBasedPipeline {
        /// The oracle writer's sequential program: open each file, write
        /// its frames.
        fn writer_program(&self) -> Vec<WriterOp> {
            let mut ops = Vec::with_capacity((self.source.n_frames + self.files) as usize);
            let mut frame = 0u32;
            for file in 0..self.files {
                ops.push(WriterOp::Open);
                let in_file = self.source.frames_in_file(self.files, file);
                for k in 0..in_file {
                    ops.push(WriterOp::Write {
                        frame,
                        closes: (k + 1 == in_file).then_some(file),
                    });
                    frame += 1;
                }
            }
            debug_assert_eq!(frame, self.source.n_frames);
            ops
        }

        /// The discrete-event reference the recurrences are held to: a
        /// `Start` event and every production scheduled on the queue
        /// before the first pop. Returns each file's delivery instant too.
        fn run_prescheduled(&self) -> (MovementResult, Vec<f64>) {
            let src = &self.source;
            let p = &self.path;
            let frame_bytes = src.frame_bytes.as_b();
            let write_bw = p.local.write_bw.as_bytes_per_sec();
            let metadata = p.local.metadata_latency.as_secs();
            let stage_cap = p.local.read_bw.min(p.remote.write_bw).as_bytes_per_sec();
            let divisor = p.dtn.concurrency as f64;
            let fixed = p.dtn.startup_per_file.as_secs()
                + p.remote.metadata_latency.as_secs()
                + p.wan.rtt.as_secs();
            let checksum = p.dtn.checksum_rate.as_bytes_per_sec();

            let ops = self.writer_program();
            let mut queue: EventQueue<Seconds, PrescheduledFileEv> = EventQueue::new();
            queue.schedule(Seconds::ZERO, PrescheduledFileEv::Start);
            for i in 0..src.n_frames {
                queue.schedule(
                    Seconds::new(src.frame_ready(i).as_secs()),
                    PrescheduledFileEv::Produced(i),
                );
            }

            let mut produced = vec![false; src.n_frames as usize];
            let mut op_cursor = 0usize;
            let mut writer_busy = false;
            let mut closes_on_done: Option<u32> = None;
            let mut slot_free = vec![0.0f64; p.dtn.concurrency as usize];
            let mut available = vec![0.0f64; self.files as usize];

            while let Some((t, ev)) = queue.pop() {
                let now = t.value();
                let mut closed: Option<u32> = None;
                match ev {
                    PrescheduledFileEv::Start => {}
                    PrescheduledFileEv::Produced(i) => {
                        produced[i as usize] = true;
                    }
                    PrescheduledFileEv::WriterDone => {
                        writer_busy = false;
                        closed = closes_on_done.take();
                    }
                    PrescheduledFileEv::TransferDone(f) => {
                        available[f as usize] = now;
                    }
                }

                if let Some(file) = closed {
                    let bytes = frame_bytes * self.source.frames_in_file(self.files, file) as f64;
                    let (slot, _) = slot_free
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.partial_cmp(b.1).expect("slot time NaN"))
                        .expect("at least one slot");
                    let start = now.max(slot_free[slot]);
                    let wire_done =
                        self.trace
                            .capped_finish_time(start + fixed, bytes, divisor, stage_cap);
                    let done = wire_done + bytes / checksum;
                    slot_free[slot] = done;
                    queue.schedule(Seconds::new(done), PrescheduledFileEv::TransferDone(file));
                }

                while !writer_busy && op_cursor < ops.len() {
                    match ops[op_cursor] {
                        WriterOp::Open => {
                            op_cursor += 1;
                            writer_busy = true;
                            queue.schedule(
                                Seconds::new(now + metadata),
                                PrescheduledFileEv::WriterDone,
                            );
                        }
                        WriterOp::Write { frame, closes } => {
                            if !produced[frame as usize] {
                                break;
                            }
                            op_cursor += 1;
                            writer_busy = true;
                            closes_on_done = closes;
                            queue.schedule(
                                Seconds::new(now + frame_bytes / write_bw),
                                PrescheduledFileEv::WriterDone,
                            );
                        }
                    }
                }
            }
            debug_assert_eq!(op_cursor, ops.len(), "writer program must drain");

            let completion = available.iter().cloned().fold(0.0f64, f64::max);
            (MovementResult::new(src, completion), available)
        }
    }

    /// A movement result and its unit instants as raw bits, so equality
    /// means bit identity.
    fn bits((r, units): &(MovementResult, Vec<f64>)) -> (u64, u64, Vec<u64>) {
        (
            r.completion.as_secs().to_bits(),
            r.post_acquisition_lag.as_secs().to_bits(),
            units.iter().map(|t| t.to_bits()).collect(),
        )
    }

    /// The geometry that lands completions on production instants: one
    /// 8 MB frame per 1 ms into an 8 GB/s WAN and an 8 GB/s local write,
    /// so a frame's wire or write time equals the production period.
    fn tie_geometry(frames: u32) -> (FrameSource, WanProfile, PathProfile) {
        let src = scan(1.0, frames);
        let mut path = presets::aps_to_alcf();
        path.wan.bandwidth = Rate::from_gigabytes_per_sec(8.0);
        path.local.write_bw = Rate::from_gigabytes_per_sec(8.0);
        (src, path.wan, path)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, ..Default::default() })]

        /// The recurrences replay the pre-scheduled event oracle bit for
        /// bit: completion, post-acquisition lag and every unit instant,
        /// across geometry, aggregation, DTN concurrency, all trace
        /// shapes and zero or nonzero latencies.
        #[test]
        fn recurrences_match_the_prescheduled_oracle(
            frames in 1u32..300,
            files_raw in any::<u32>(),
            concurrency in 1u32..=4,
            geometry in 0u32..3,
            period_ms in 0.5f64..60.0,
            trace_pick in 0usize..=TraceShape::ALL.len(),
            horizon in 0.05f64..2.0,
            seed in any::<u64>(),
            latencies in 0u32..4,
        ) {
            let files = 1 + files_raw % frames;
            // Branches: the tie geometry, an arrival-gated source on the
            // calibrated path, and the replay's nanosecond burst.
            let (src, mut wan, mut path) = match geometry {
                0 => tie_geometry(frames),
                1 => (scan(period_ms, frames), presets::aps_alcf_wan(), presets::aps_to_alcf()),
                _ => (
                    FrameSource::new(frames, Bytes::from_mb(8.0), TimeDelta::from_secs(1e-9)),
                    presets::aps_alcf_wan(),
                    presets::aps_to_alcf(),
                ),
            };
            if latencies & 1 == 0 {
                wan.rtt = TimeDelta::ZERO;
            }
            if latencies & 2 == 0 {
                wan.per_message_overhead = TimeDelta::ZERO;
            }
            path.wan = wan;
            path.dtn.concurrency = concurrency;
            let trace = match trace_pick {
                0 => BandwidthTrace::steady(wan.bandwidth),
                k => TraceShape::ALL[k - 1].build(wan.bandwidth, horizon, seed),
            };

            let stream = EventStreamingPipeline::new(src, wan, trace.clone());
            prop_assert_eq!(
                bits(&with_units(|u| stream.run_with(u))),
                bits(&stream.run_prescheduled())
            );
            let staged = EventFileBasedPipeline::new(src, files, path, trace);
            prop_assert_eq!(
                bits(&with_units(|u| staged.run_with(u))),
                bits(&staged.run_prescheduled())
            );
        }
    }

    #[test]
    fn tie_geometry_lands_completions_on_production_instants() {
        let (src, mut wan, _) = tie_geometry(64);
        wan.rtt = TimeDelta::ZERO;
        wan.per_message_overhead = TimeDelta::ZERO;
        let stream = EventStreamingPipeline::new(src, wan, BandwidthTrace::steady(wan.bandwidth));
        let (_, arrivals) = with_units(|u| stream.run_with(u));
        let ties = (1..src.n_frames)
            .filter(|&i| {
                arrivals[i as usize - 1].to_bits() == src.frame_ready(i).as_secs().to_bits()
            })
            .count();
        assert!(ties > 0, "no send completed on a production instant");
    }

    fn scan(period_ms: f64, frames: u32) -> FrameSource {
        FrameSource::new(
            frames,
            Bytes::from_mb(8.0),
            TimeDelta::from_millis(period_ms),
        )
    }

    /// Every instant of a 3-frame stream and a 3-frame, 2-file staged
    /// scan on a steady trace, worked out by hand. Frames of 1 MB are
    /// ready at 10, 20 and 30 ms; the WAN moves 100 MB/s with a 4 ms RTT
    /// and 2 ms per message; the writer pays 8 ms per open and 5 ms per
    /// frame; each file pays 0.1 s DTN startup, 50 ms remote metadata
    /// and the RTT, then moves at the WAN share capped by the 80 MB/s
    /// local read, then checksums at 100 MB/s.
    #[test]
    fn steady_trace_instants_match_hand_arithmetic() {
        let close = |got: &[f64], want: &[f64], what: &str| {
            assert_eq!(got.len(), want.len(), "{what}: unit count");
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-12 * w.abs(),
                    "{what}: unit {i} at {g}, want {w}"
                );
            }
        };
        let src = FrameSource::new(3, Bytes::from_mb(1.0), TimeDelta::from_millis(10.0));
        let wan = WanProfile {
            bandwidth: Rate::from_megabytes_per_sec(100.0),
            rtt: TimeDelta::from_millis(4.0),
            per_message_overhead: TimeDelta::from_millis(2.0),
        };
        let steady = BandwidthTrace::steady(wan.bandwidth);

        // Each send takes 10 ms on the wire plus 2 ms overhead, and lands
        // half an RTT later. Frame 0 starts when it is ready; frames 1
        // and 2 wait for the link.
        let (stream, frames) =
            with_units(|u| EventStreamingPipeline::new(src, wan, steady.clone()).run_with(u));
        close(&frames, &[0.024, 0.036, 0.048], "stream");
        close(
            &[stream.completion.as_secs()],
            &[0.048],
            "stream completion",
        );
        close(
            &[stream.post_acquisition_lag.as_secs()],
            &[0.018],
            "stream lag",
        );

        // The writer opens file 0 at 8 ms, writes frames 0 and 1 as they
        // arrive (15, 25 ms) and closes it at 25 ms; it opens file 1 at
        // 33 ms, after frame 2 is ready, and closes it at 38 ms. A file
        // then pays 0.154 s of fixed cost before its bytes move.
        let mut path = presets::aps_to_alcf();
        path.wan = wan;
        path.local = PfsProfile {
            metadata_latency: TimeDelta::from_millis(8.0),
            write_bw: Rate::from_megabytes_per_sec(200.0),
            read_bw: Rate::from_megabytes_per_sec(80.0),
        };
        path.remote = PfsProfile {
            metadata_latency: TimeDelta::from_millis(50.0),
            write_bw: Rate::from_gigabytes_per_sec(1.0),
            read_bw: Rate::from_gigabytes_per_sec(1.0),
        };
        path.dtn = DtnProfile {
            startup_per_file: TimeDelta::from_millis(100.0),
            checksum_rate: Rate::from_megabytes_per_sec(100.0),
            concurrency: 1,
        };

        // One slot: the local read (80 MB/s) caps the full WAN. File 0
        // (2 MB) moves in 25 ms from its 25 ms close; file 1 (1 MB) waits
        // for the slot until 0.224 s and moves in 12.5 ms.
        let (one, files) =
            with_units(|u| EventFileBasedPipeline::new(src, 2, path, steady.clone()).run_with(u));
        close(
            &files,
            &[0.025 + 0.154 + 0.025 + 0.02, 0.224 + 0.154 + 0.0125 + 0.01],
            "1 slot",
        );
        close(&[one.completion.as_secs()], &[0.4005], "1-slot completion");
        close(
            &[one.post_acquisition_lag.as_secs()],
            &[0.3705],
            "1-slot lag",
        );

        // Two slots: each gets half the WAN (50 MB/s), below the read
        // cap. File 1 takes the idle second slot at its 38 ms close and
        // lands before file 0, so completion is file 0's instant.
        path.dtn.concurrency = 2;
        let (two, files) =
            with_units(|u| EventFileBasedPipeline::new(src, 2, path, steady).run_with(u));
        close(
            &files,
            &[0.025 + 0.154 + 0.04 + 0.02, 0.038 + 0.154 + 0.02 + 0.01],
            "2 slots",
        );
        close(&[two.completion.as_secs()], &[0.239], "2-slot completion");
        close(
            &[two.post_acquisition_lag.as_secs()],
            &[0.209],
            "2-slot lag",
        );
    }

    #[test]
    fn outage_delays_streaming_by_the_window() {
        let src = scan(1.0, 32); // 256 MB produced in 32 ms
        let mut wan = presets::aps_alcf_wan();
        wan.bandwidth = Rate::from_megabytes_per_sec(256.0); // ~1 s nominal
        let steady =
            EventStreamingPipeline::new(src, wan, BandwidthTrace::steady(wan.bandwidth)).run();
        let traced =
            EventStreamingPipeline::new(src, wan, TraceShape::Outage.build(wan.bandwidth, 1.0, 0))
                .run();
        let delay = traced.completion.as_secs() - steady.completion.as_secs();
        // The outage spans 0.25..0.60 s: a mid-transfer stall of ~0.35 s.
        assert!(
            (delay - 0.35).abs() < 0.05,
            "outage delay {delay} should be ~0.35 s"
        );
    }

    #[test]
    fn degraded_traces_never_speed_movement_up() {
        let src = scan(5.0, 48);
        let wan = presets::aps_alcf_wan();
        let path = presets::aps_to_alcf();
        let nominal = (src.total_bytes() / wan.bandwidth).as_secs();
        let steady_s =
            EventStreamingPipeline::new(src, wan, BandwidthTrace::steady(wan.bandwidth)).run();
        let steady_f =
            EventFileBasedPipeline::new(src, 12, path, BandwidthTrace::steady(wan.bandwidth)).run();
        for shape in [TraceShape::Diurnal, TraceShape::Bursty, TraceShape::Outage] {
            let trace = shape.build(wan.bandwidth, nominal.max(0.5), 9);
            let s = EventStreamingPipeline::new(src, wan, trace.clone()).run();
            let f = EventFileBasedPipeline::new(src, 12, path, trace).run();
            assert!(
                s.completion.as_secs() >= steady_s.completion.as_secs() - 1e-9,
                "{shape}: streaming sped up"
            );
            assert!(
                f.completion.as_secs() >= steady_f.completion.as_secs() - 1e-9,
                "{shape}: file path sped up"
            );
        }
    }

    #[test]
    fn event_pipelines_are_deterministic() {
        let src = scan(7.0, 40);
        let wan = presets::aps_alcf_wan();
        let trace = TraceShape::Bursty.build(wan.bandwidth, 1.5, 1234);
        let a = EventStreamingPipeline::new(src, wan, trace.clone()).run();
        let b = EventStreamingPipeline::new(src, wan, trace).run();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "files must be in")]
    fn too_many_files_rejected() {
        let src = scan(1.0, 4);
        let path = presets::aps_to_alcf();
        let _ =
            EventFileBasedPipeline::new(src, 5, path, BandwidthTrace::steady(path.wan.bandwidth));
    }
}
