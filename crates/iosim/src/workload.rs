//! Synthetic detector workloads.

use serde::{Deserialize, Serialize};
use sss_units::{Bytes, Rate, TimeDelta};

/// A constant-cadence frame source: `n_frames` frames of `frame_bytes`
/// each, one every `period`.
///
/// [`FrameSource::aps_scan`] reproduces the paper's Figure 4 workload:
/// "1,440 frames of 2048×2048 pixels, totaling approximately 12.6 GB when
/// stored as 2-byte unsigned integers" (the raw pixel payload is 12.08
/// decimal GB; the paper's 12.6 GB includes container overhead).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameSource {
    /// Number of frames in the scan.
    pub n_frames: u32,
    /// Size of one frame.
    pub frame_bytes: Bytes,
    /// Time between consecutive frames (the paper evaluates 0.033 s and
    /// 0.33 s per frame).
    pub period: TimeDelta,
}

impl FrameSource {
    /// Create a frame source.
    ///
    /// # Panics
    /// Panics on zero frames, non-positive frame size, or non-positive
    /// period.
    pub fn new(n_frames: u32, frame_bytes: Bytes, period: TimeDelta) -> Self {
        assert!(n_frames > 0, "need at least one frame");
        assert!(frame_bytes.as_b() > 0.0, "frames must be non-empty");
        assert!(period.as_secs() > 0.0, "period must be positive");
        FrameSource {
            n_frames,
            frame_bytes,
            period,
        }
    }

    /// The paper's APS scan: 1,440 × 2048×2048 × 2 B frames.
    pub fn aps_scan(period: TimeDelta) -> Self {
        Self::new(1440, Bytes::from_b((2048 * 2048 * 2) as f64), period)
    }

    /// Time at which frame `i` (0-based) is fully produced.
    pub fn frame_ready(&self, i: u32) -> TimeDelta {
        self.period * (i + 1) as f64
    }

    /// Frames in file `file` when the scan is aggregated into `files`
    /// files: `n_frames / files` each, plus one more in each of the first
    /// `n_frames % files` files.
    pub(crate) fn frames_in_file(&self, files: u32, file: u32) -> u32 {
        self.n_frames / files + u32::from(file < self.n_frames % files)
    }

    /// Total scan volume.
    pub fn total_bytes(&self) -> Bytes {
        self.frame_bytes * self.n_frames as f64
    }

    /// Duration of the acquisition (when the last frame exists).
    pub fn acquisition_duration(&self) -> TimeDelta {
        self.frame_ready(self.n_frames - 1)
    }

    /// Average data-generation rate.
    pub fn generation_rate(&self) -> Rate {
        self.frame_bytes / self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aps_scan_geometry() {
        let s = FrameSource::aps_scan(TimeDelta::from_secs(0.033));
        assert_eq!(s.n_frames, 1440);
        assert!((s.total_bytes().as_gb() - 12.0795).abs() < 1e-3);
        assert!((s.acquisition_duration().as_secs() - 47.52).abs() < 1e-9);
    }

    #[test]
    fn frame_ready_times() {
        let s = FrameSource::new(3, Bytes::from_mb(1.0), TimeDelta::from_secs(2.0));
        assert_eq!(s.frame_ready(0).as_secs(), 2.0);
        assert_eq!(s.frame_ready(2).as_secs(), 6.0);
        assert_eq!(s.acquisition_duration().as_secs(), 6.0);
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
    fn generation_rate() {
        let s = FrameSource::aps_scan(TimeDelta::from_secs(0.033));
        // ~8.39 MB / 33 ms ≈ 254 MB/s.
        assert!((s.generation_rate().as_megabytes_per_sec() - 254.2).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_rejected() {
        let _ = FrameSource::new(0, Bytes::from_mb(1.0), TimeDelta::from_secs(1.0));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = FrameSource::new(1, Bytes::from_mb(1.0), TimeDelta::ZERO);
    }
}
