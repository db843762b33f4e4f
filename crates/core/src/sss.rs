//! The Streaming Speed Score (Eq. 11).

use serde::{Deserialize, Serialize};
use sss_units::{Bytes, Rate, Ratio, TimeDelta};

/// `SSS = T_worst / T_theoretical` (Eq. 11): how much worse the measured
/// worst-case transfer is than the pure transmission-delay ideal.
///
/// A score of 1 means the network delivers its theoretical minimum even
/// in the worst case; the paper's congested measurements reach scores
/// above 30 (5+ seconds against a 0.16 s ideal).
///
/// ```
/// use sss_core::StreamingSpeedScore;
/// use sss_units::{Bytes, Rate, TimeDelta};
///
/// let sss = StreamingSpeedScore::from_measurement(
///     TimeDelta::from_secs(5.0),            // worst observed
///     Bytes::from_gb(0.5),
///     Rate::from_gbps(25.0),
/// ).unwrap();
/// assert!((sss.score().value() - 31.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingSpeedScore {
    t_worst: TimeDelta,
    t_theoretical: TimeDelta,
}

impl StreamingSpeedScore {
    /// Build from a worst-case observation and the theoretical minimum.
    /// Returns `None` when either time is non-positive or the worst case
    /// undercuts the theoretical minimum (a measurement error: nothing
    /// transfers faster than the link).
    pub fn new(t_worst: TimeDelta, t_theoretical: TimeDelta) -> Option<Self> {
        if t_theoretical.as_secs() <= 0.0 || !t_theoretical.is_finite() {
            return None;
        }
        if t_worst < t_theoretical || !t_worst.is_finite() {
            return None;
        }
        Some(StreamingSpeedScore {
            t_worst,
            t_theoretical,
        })
    }

    /// Build from a measured worst case plus the transfer's size and the
    /// link bandwidth (`T_theoretical = size / bandwidth`, "only the
    /// transmission delay component of the total delay").
    pub fn from_measurement(t_worst: TimeDelta, size: Bytes, link: Rate) -> Option<Self> {
        Self::new(t_worst, size / link)
    }

    /// The worst-case transfer time that went into the score.
    pub fn t_worst(&self) -> TimeDelta {
        self.t_worst
    }

    /// The theoretical (transmission-only) time.
    pub fn t_theoretical(&self) -> TimeDelta {
        self.t_theoretical
    }

    /// The score itself (≥ 1).
    pub fn score(&self) -> Ratio {
        self.t_worst / self.t_theoretical
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_score() {
        // §4.1: theoretical 0.16 s for 0.5 GB at 25 Gbps; observed max
        // exceeding 5 s → score > 31.
        let s = StreamingSpeedScore::from_measurement(
            TimeDelta::from_secs(5.0),
            Bytes::from_gb(0.5),
            Rate::from_gbps(25.0),
        )
        .unwrap();
        assert!((s.t_theoretical().as_secs() - 0.16).abs() < 1e-12);
        assert!((s.score().value() - 31.25).abs() < 1e-9);
    }

    #[test]
    fn ideal_network_scores_one() {
        let s =
            StreamingSpeedScore::new(TimeDelta::from_millis(160.0), TimeDelta::from_millis(160.0))
                .unwrap();
        assert!((s.score().value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_impossible_measurements() {
        // Faster than the link: measurement error.
        assert!(StreamingSpeedScore::new(
            TimeDelta::from_millis(100.0),
            TimeDelta::from_millis(160.0)
        )
        .is_none());
        assert!(StreamingSpeedScore::new(TimeDelta::from_secs(1.0), TimeDelta::ZERO).is_none());
        assert!(StreamingSpeedScore::new(TimeDelta::INFINITY, TimeDelta::from_secs(1.0)).is_none());
    }
}
