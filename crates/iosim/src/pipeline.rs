//! The two data-movement pipelines of Figure 4, computed with busy-until
//! recurrences (every stage overlaps with every other wherever the real
//! systems allow it).

use serde::{Deserialize, Serialize};
use sss_units::{Bytes, TimeDelta};

use crate::profile::{PathProfile, WanProfile};
use crate::workload::FrameSource;

/// Outcome of moving one scan to the remote facility.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MovementResult {
    /// When the last byte was available for remote processing, measured
    /// from acquisition start.
    pub completion: TimeDelta,
    /// `completion` minus the acquisition duration: how long remote
    /// processing had to wait after the instrument finished.
    pub post_acquisition_lag: TimeDelta,
    /// Availability time of each movement unit (file or frame), seconds.
    pub unit_available_s: Vec<f64>,
    /// Total bytes moved.
    pub bytes: Bytes,
}

impl MovementResult {
    /// The outcome of moving `source`'s scan: the last byte available
    /// `completion` seconds after acquisition start, each unit at its
    /// `unit_available_s` entry. The lag behind the end of acquisition
    /// clamps at zero.
    pub(crate) fn new(source: &FrameSource, completion: f64, unit_available_s: Vec<f64>) -> Self {
        MovementResult {
            completion: TimeDelta::from_secs(completion),
            post_acquisition_lag: TimeDelta::from_secs(
                (completion - source.acquisition_duration().as_secs()).max(0.0),
            ),
            unit_available_s,
            bytes: source.total_bytes(),
        }
    }

    /// Mean availability lag of units behind their production time
    /// (staleness of the remote copy during acquisition), seconds.
    ///
    /// Returns `None` when `produced_s` does not have one entry per
    /// movement unit — a malformed trace must surface as a recoverable
    /// error, never a panic, because this runs inside long-lived server
    /// processes. An empty (but matching) trace reads as zero lag.
    pub fn mean_unit_lag_s(&self, produced_s: &[f64]) -> Option<f64> {
        if produced_s.len() != self.unit_available_s.len() {
            return None;
        }
        if produced_s.is_empty() {
            return Some(0.0);
        }
        Some(
            self.unit_available_s
                .iter()
                .zip(produced_s)
                .map(|(a, p)| a - p)
                .sum::<f64>()
                / produced_s.len() as f64,
        )
    }
}

/// File-based movement: frames are written to the local PFS grouped into
/// `files` parts that differ by at most one frame; each file becomes
/// eligible for DTN transfer when its last frame is written; the DTN
/// moves files (with per-file startup and checksum cost) over the WAN
/// into the remote PFS.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FileBasedPipeline {
    /// The detector workload.
    pub source: FrameSource,
    /// Number of files the scan is aggregated into (Figure 4: 1, 10,
    /// 144, 1,440).
    pub files: u32,
    /// Substrate performance profile.
    pub path: PathProfile,
}

impl FileBasedPipeline {
    /// Build a pipeline; `files` must be in `1..=n_frames`.
    ///
    /// # Panics
    /// Panics when `files` is zero or exceeds the frame count, or the
    /// profile is invalid.
    pub fn new(source: FrameSource, files: u32, path: PathProfile) -> Self {
        Self::with_profiles(source, files, path)
    }

    /// Synonym of [`FileBasedPipeline::new`] kept for call-site clarity
    /// when the profile is customized.
    pub fn with_profiles(source: FrameSource, files: u32, path: PathProfile) -> Self {
        assert!(
            files >= 1 && files <= source.n_frames,
            "files must be in 1..=n_frames, got {files}"
        );
        path.validate().expect("invalid PathProfile");
        FileBasedPipeline {
            source,
            files,
            path,
        }
    }

    /// Run the pipeline.
    pub fn run(&self) -> MovementResult {
        let src = &self.source;
        let p = &self.path;
        let wan_share = p.wan.bandwidth / p.dtn.concurrency as f64;

        // Local write: the detector writes frames as they are produced;
        // the PFS write head is a busy-until resource. A file is "closed"
        // (transfer-eligible) when its last frame hits the local PFS.
        let mut write_free = 0.0f64; // local PFS availability, seconds
        let mut file_ready = Vec::with_capacity(self.files as usize);
        let mut frame_idx = 0u32;
        for file in 0..self.files {
            // Metadata cost to create/open the file, charged up front.
            write_free += p.local.metadata_latency.as_secs();
            let mut closed_at = 0.0f64;
            for _ in 0..src.frames_in_file(self.files, file) {
                let produced = src.frame_ready(frame_idx).as_secs();
                let start = produced.max(write_free);
                let done = start + (src.frame_bytes / p.local.write_bw).as_secs();
                write_free = done;
                closed_at = done;
                frame_idx += 1;
            }
            file_ready.push(closed_at);
        }
        debug_assert_eq!(frame_idx, src.n_frames);

        // DTN transfer: `concurrency` slots, each running one file task at
        // a time at its share of the WAN. A task reads from the local PFS,
        // streams over the WAN, writes to the remote PFS and verifies
        // checksums; the slowest of those pipelined stages bounds the
        // per-byte rate, fixed costs add up front.
        let mut slot_free = vec![0.0f64; p.dtn.concurrency as usize];
        let mut available = Vec::with_capacity(self.files as usize);
        for (file, &ready) in file_ready.iter().enumerate() {
            let bytes = src.frame_bytes * src.frames_in_file(self.files, file as u32) as f64;
            // Earliest-free slot (deterministic tie-break by index).
            let (slot, _) = slot_free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("slot time NaN"))
                .expect("at least one slot");
            let start = ready.max(slot_free[slot]);
            let per_byte_rate = wan_share.min(p.local.read_bw).min(p.remote.write_bw);
            let fixed = p.dtn.startup_per_file.as_secs()
                + p.remote.metadata_latency.as_secs()
                + p.wan.rtt.as_secs();
            let moving =
                (bytes / per_byte_rate).as_secs() + (bytes / p.dtn.checksum_rate).as_secs();
            let done = start + fixed + moving;
            slot_free[slot] = done;
            available.push(done);
        }

        let completion = available.iter().cloned().fold(0.0f64, f64::max);
        MovementResult::new(src, completion, available)
    }
}

/// Streaming movement: each frame is pushed to the remote consumer's
/// memory as soon as it is produced, over a single long-lived connection
/// (Figure 1(b)); no file system touches the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingPipeline {
    /// The detector workload.
    pub source: FrameSource,
    /// Network profile between the facilities.
    pub wan: WanProfile,
}

impl StreamingPipeline {
    /// Build a streaming pipeline.
    ///
    /// # Panics
    /// Panics on an invalid WAN profile.
    pub fn new(source: FrameSource, wan: WanProfile) -> Self {
        wan.validate().expect("invalid WanProfile");
        StreamingPipeline { source, wan }
    }

    /// Run the pipeline.
    pub fn run(&self) -> MovementResult {
        let src = &self.source;
        let mut link_free = 0.0f64;
        let mut available = Vec::with_capacity(src.n_frames as usize);
        let frame_wire = (src.frame_bytes / self.wan.bandwidth).as_secs()
            + self.wan.per_message_overhead.as_secs();
        let one_way = self.wan.rtt.as_secs() / 2.0;
        for i in 0..src.n_frames {
            let produced = src.frame_ready(i).as_secs();
            let start = produced.max(link_free);
            let sent = start + frame_wire;
            link_free = sent;
            available.push(sent + one_way);
        }
        let completion = *available.last().expect("non-empty scan");
        MovementResult::new(src, completion, available)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::presets;
    use sss_units::Rate;

    fn fast_scan() -> FrameSource {
        FrameSource::aps_scan(TimeDelta::from_secs(0.033))
    }

    fn slow_scan() -> FrameSource {
        FrameSource::aps_scan(TimeDelta::from_secs(0.33))
    }

    #[test]
    fn streaming_is_acquisition_bound_on_fast_network() {
        let r = StreamingPipeline::new(fast_scan(), presets::aps_alcf_wan()).run();
        let acq = fast_scan().acquisition_duration().as_secs();
        assert!(r.completion.as_secs() >= acq);
        // Lag is one frame's wire time + overheads: well under a second.
        assert!(
            r.post_acquisition_lag.as_secs() < 0.5,
            "stream lag {}",
            r.post_acquisition_lag
        );
    }

    #[test]
    fn small_files_pay_severe_penalty() {
        let stream = StreamingPipeline::new(fast_scan(), presets::aps_alcf_wan()).run();
        let f1440 = FileBasedPipeline::new(fast_scan(), 1440, presets::aps_to_alcf()).run();
        // 1,440 files × ~0.9 s fixed cost is catastrophically slower.
        assert!(f1440.completion.as_secs() > 10.0 * stream.completion.as_secs());
    }

    #[test]
    fn figure4_ordering_fast_rate() {
        let stream = StreamingPipeline::new(fast_scan(), presets::aps_alcf_wan()).run();
        let by_files: Vec<f64> = [1u32, 10, 144, 1440]
            .iter()
            .map(|&f| {
                FileBasedPipeline::new(fast_scan(), f, presets::aps_to_alcf())
                    .run()
                    .completion
                    .as_secs()
            })
            .collect();
        // Streaming beats everything.
        for (i, t) in by_files.iter().enumerate() {
            assert!(
                stream.completion.as_secs() < *t,
                "file case {i} beat streaming"
            );
        }
        // Metadata/startup-dominated cases degrade with file count.
        assert!(by_files[3] > by_files[2], "1440 worse than 144");
        assert!(by_files[2] > by_files[1], "144 worse than 10");
    }

    #[test]
    fn aggregated_files_competitive_at_slow_rate() {
        // Paper: "file-based methods remain competitive at lower data
        // rates or with large aggregated files".
        let stream = StreamingPipeline::new(slow_scan(), presets::aps_alcf_wan()).run();
        let f10 = FileBasedPipeline::new(slow_scan(), 10, presets::aps_to_alcf()).run();
        let ratio = f10.completion.as_secs() / stream.completion.as_secs();
        assert!(
            ratio < 1.05,
            "10-file case should be within 5% at slow rate, got {ratio}"
        );
    }

    #[test]
    fn headline_97_percent_reduction_at_high_rate() {
        // §1/§6: "streaming can achieve up to 97% lower end-to-end
        // completion time than file-based methods under high data rates".
        let stream = StreamingPipeline::new(fast_scan(), presets::aps_alcf_wan()).run();
        let files = FileBasedPipeline::new(fast_scan(), 1440, presets::aps_to_alcf()).run();
        let reduction = 1.0 - stream.completion.as_secs() / files.completion.as_secs();
        assert!(
            reduction > 0.9,
            "reduction {reduction} should be in the ~97% regime"
        );
    }

    #[test]
    fn uneven_frame_split_covers_all_frames() {
        let src = FrameSource::new(10, Bytes::from_mb(1.0), TimeDelta::from_millis(10.0));
        let total: u32 = (0..3).map(|f| src.frames_in_file(3, f)).sum();
        assert_eq!(total, 10);
        // 10 = 4 + 3 + 3: the first files take the remainder.
        assert_eq!(src.frames_in_file(3, 0), 4);
        assert_eq!(src.frames_in_file(3, 1), 3);
        assert_eq!(src.frames_in_file(3, 2), 3);
    }

    #[test]
    fn dtn_concurrency_helps_small_files() {
        let mut path = presets::aps_to_alcf();
        let serial = FileBasedPipeline::new(fast_scan(), 144, path).run();
        path.dtn.concurrency = 4;
        let parallel = FileBasedPipeline::new(fast_scan(), 144, path).run();
        assert!(parallel.completion.as_secs() < serial.completion.as_secs());
    }

    #[test]
    fn slow_wan_pushes_streaming_past_acquisition() {
        let mut wan = presets::aps_alcf_wan();
        // 100 MB/s network vs 254 MB/s generation: transfer-bound.
        wan.bandwidth = Rate::from_megabytes_per_sec(100.0);
        let r = StreamingPipeline::new(fast_scan(), wan).run();
        let wire = (fast_scan().total_bytes() / wan.bandwidth).as_secs();
        assert!(r.completion.as_secs() >= wire);
    }

    #[test]
    fn unit_availability_is_monotone() {
        let r = FileBasedPipeline::new(fast_scan(), 10, presets::aps_to_alcf()).run();
        for w in r.unit_available_s.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        let s = StreamingPipeline::new(fast_scan(), presets::aps_alcf_wan()).run();
        for w in s.unit_available_s.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn mean_unit_lag() {
        let src = FrameSource::new(2, Bytes::from_mb(1.0), TimeDelta::from_secs(1.0));
        let r = StreamingPipeline::new(src, presets::aps_alcf_wan()).run();
        let produced: Vec<f64> = (0..2).map(|i| src.frame_ready(i).as_secs()).collect();
        let lag = r.mean_unit_lag_s(&produced).expect("matching lengths");
        assert!(lag > 0.0 && lag < 0.01, "lag {lag}");
    }

    #[test]
    fn mean_unit_lag_rejects_malformed_traces() {
        let src = FrameSource::new(3, Bytes::from_mb(1.0), TimeDelta::from_secs(1.0));
        let r = StreamingPipeline::new(src, presets::aps_alcf_wan()).run();
        // A production trace with the wrong unit count is a caller bug,
        // reported as None rather than a panic.
        assert_eq!(r.mean_unit_lag_s(&[0.0, 1.0]), None);
        assert_eq!(r.mean_unit_lag_s(&[]), None);
    }

    #[test]
    #[should_panic(expected = "files must be in")]
    fn too_many_files_rejected() {
        let src = FrameSource::new(5, Bytes::from_mb(1.0), TimeDelta::from_secs(1.0));
        let _ = FileBasedPipeline::new(src, 6, presets::aps_to_alcf());
    }
}
