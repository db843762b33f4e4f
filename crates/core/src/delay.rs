//! The Kurose–Ross packet-delay decomposition (Eq. 1) and the "computing
//! continuum" approximation (Eq. 2) that the paper argues against.
//!
//! §3 quotes prior work \[4\] simplifying `d_total = d_proc + d_queue +
//! d_trans + d_prop` down to `d_continuum ≈ d_prop` on the grounds that
//! capacity growth drives the other terms to zero — "precisely the trap we
//! warned about": it assumes zero queueing and zero loss. These types let
//! the ablation benches quantify how wrong that gets under congestion.

use serde::{Deserialize, Serialize};
use sss_units::{Bytes, Rate, TimeDelta};

/// Eq. 1 — the four-component nodal delay.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DelayDecomposition {
    /// Processing delay (header inspection, checksums).
    pub d_proc: TimeDelta,
    /// Queueing delay (time waiting behind other traffic).
    pub d_queue: TimeDelta,
    /// Transmission delay (serialization: size / rate).
    pub d_trans: TimeDelta,
    /// Propagation delay (distance / signal speed).
    pub d_prop: TimeDelta,
}

impl DelayDecomposition {
    /// Build a decomposition for moving `size` at `rate` over a path with
    /// the given propagation delay, assuming idle queues and negligible
    /// processing — the textbook best case.
    pub fn best_case(size: Bytes, rate: Rate, prop: TimeDelta) -> Self {
        DelayDecomposition {
            d_proc: TimeDelta::ZERO,
            d_queue: TimeDelta::ZERO,
            d_trans: size / rate,
            d_prop: prop,
        }
    }

    /// Eq. 1 — the total nodal delay.
    pub fn total(&self) -> TimeDelta {
        self.d_proc + self.d_queue + self.d_trans + self.d_prop
    }
}

/// Eq. 2 — `d_continuum ≈ d_prop`: the approximation under critique.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContinuumApproximation {
    /// The propagation delay the approximation keeps.
    pub d_prop: TimeDelta,
}

impl ContinuumApproximation {
    /// Construct from a path's propagation delay.
    pub fn new(d_prop: TimeDelta) -> Self {
        ContinuumApproximation { d_prop }
    }

    /// The approximate total delay (just `d_prop`).
    pub fn total(&self) -> TimeDelta {
        self.d_prop
    }

    /// Relative error of the approximation against an observed delay:
    /// `(observed − d_prop) / observed`. Near 0 when the approximation
    /// holds; approaches 1 when queueing/transmission dominate.
    pub fn relative_error(&self, observed: TimeDelta) -> f64 {
        (observed.as_secs() - self.d_prop.as_secs()) / observed.as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_totals_components() {
        let d = DelayDecomposition {
            d_proc: TimeDelta::from_micros(10.0),
            d_queue: TimeDelta::from_millis(5.0),
            d_trans: TimeDelta::from_millis(160.0),
            d_prop: TimeDelta::from_millis(8.0),
        };
        assert!((d.total().as_millis() - 173.01).abs() < 1e-9);
    }

    #[test]
    fn best_case_has_no_queueing() {
        let d = DelayDecomposition::best_case(
            Bytes::from_gb(0.5),
            Rate::from_gbps(25.0),
            TimeDelta::from_millis(8.0),
        );
        assert_eq!(d.d_queue, TimeDelta::ZERO);
        assert!((d.total().as_secs() - 0.168).abs() < 1e-9);
    }

    #[test]
    fn continuum_error_grows_with_congestion() {
        let approx = ContinuumApproximation::new(TimeDelta::from_millis(8.0));
        // Uncongested short message: approximation decent.
        let calm = approx.relative_error(TimeDelta::from_millis(10.0));
        // Congested 0.5 GB transfer taking 5 s: approximation is ~99.8% off.
        let congested = approx.relative_error(TimeDelta::from_secs(5.0));
        assert!(calm < 0.25);
        assert!(congested > 0.99);
    }
}
