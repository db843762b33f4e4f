//! The simulation-fidelity ladder and its parity-tolerance contract.
//!
//! The exact simulators step per frame, per file or per packet; the
//! fluid fast path advances time analytically between
//! [`BandwidthTrace`](crate::BandwidthTrace) breakpoints instead. A
//! [`Fidelity`] selects which world a consumer runs in, and the
//! [`fluid_tolerance`] contract states — as exported constants, so the
//! library, the differential tests and the `sim_validation` regenerator
//! all compare against the same numbers — how closely the fluid answer
//! must track the exact one for each bundled [`TraceShape`].

use serde::{Deserialize, Serialize};

use crate::trace::TraceShape;

/// Relative fluid-vs-exact completion tolerance under a steady trace.
///
/// On a constant-rate trace the fluid solver performs the same division
/// the exact pipeline chains per frame, so the gap is pure floating-point
/// re-association.
pub const FLUID_TOLERANCE_STEADY: f64 = 1e-9;

/// Relative fluid-vs-exact completion tolerance under the diurnal shape.
///
/// The 16-step × 8-period staircase makes the solvers integrate across
/// up to 129 breakpoints; the accumulated re-association error stays
/// orders of magnitude below this bound, which leaves headroom for
/// transfers whose completion lands exactly on a staircase edge.
pub const FLUID_TOLERANCE_DIURNAL: f64 = 1e-7;

/// Relative fluid-vs-exact completion tolerance under the bursty shape.
///
/// Same breakpoint-count argument as [`FLUID_TOLERANCE_DIURNAL`] (up to
/// 257 segments of seeded congestion dips).
pub const FLUID_TOLERANCE_BURSTY: f64 = 1e-7;

/// Relative fluid-vs-exact completion tolerance under the outage shape.
///
/// Zero-rate windows are the worst case: a completion that lands within
/// the stall resolves to the window's trailing edge in both fidelities,
/// but the *approach* to the edge cancels catastrophically when the
/// pre-outage residual is tiny. The documented bound is therefore the
/// loosest of the ladder.
pub const FLUID_TOLERANCE_OUTAGE: f64 = 1e-6;

/// The documented fluid-vs-exact relative completion tolerance for a
/// bundled trace shape.
///
/// This is the single source the differential harness
/// (`tests/fidelity_parity.rs`), the proptest suites and the bench
/// regenerators all consult.
///
/// ```
/// use sss_sim::{fluid_tolerance, TraceShape, FLUID_TOLERANCE_STEADY};
/// assert_eq!(fluid_tolerance(TraceShape::Steady), FLUID_TOLERANCE_STEADY);
/// ```
pub fn fluid_tolerance(shape: TraceShape) -> f64 {
    match shape {
        TraceShape::Steady => FLUID_TOLERANCE_STEADY,
        TraceShape::Diurnal => FLUID_TOLERANCE_DIURNAL,
        TraceShape::Bursty => FLUID_TOLERANCE_BURSTY,
        TraceShape::Outage => FLUID_TOLERANCE_OUTAGE,
    }
}

/// Which simulation world a consumer runs in.
///
/// The ladder trades stepping cost for modeling generality:
///
/// * [`Fidelity::Exact`] — the stepping simulators: per-frame streaming
///   and local writes as busy-until recurrences, per-file DTN staging,
///   per-packet TCP on the event queue. The reference.
/// * [`Fidelity::Fluid`] — closed-form piecewise-constant rate
///   integration between trace breakpoints: time advances analytically
///   to the next breakpoint, slot edge or completion. Cost is
///   `O(segments + files)` regardless of frame count; answers agree with
///   `Exact` within [`fluid_tolerance`] per shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// Stepping reference simulation (per frame / file / packet).
    #[default]
    Exact,
    /// Closed-form fluid-flow integration between breakpoints.
    Fluid,
}

impl Fidelity {
    /// Every fidelity, ladder order.
    pub const ALL: [Fidelity; 2] = [Fidelity::Exact, Fidelity::Fluid];

    /// The fidelity's lowercase label (also the CLI/HTTP spelling).
    pub fn label(&self) -> &'static str {
        match self {
            Fidelity::Exact => "exact",
            Fidelity::Fluid => "fluid",
        }
    }

    /// Parse a lowercase label back into a fidelity.
    pub fn parse(s: &str) -> Result<Fidelity, String> {
        match s {
            "exact" => Ok(Fidelity::Exact),
            "fluid" => Ok(Fidelity::Fluid),
            other => Err(format!(
                "unknown fidelity {other:?}; known fidelities: exact, fluid"
            )),
        }
    }
}

impl std::fmt::Display for Fidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// One spelling everywhere, exactly as TraceShape: the wire form, the CLI
// `--fidelity` vocabulary and the CSV column are all the lowercase label.
impl Serialize for Fidelity {
    fn serialize(&self, w: &mut serde::Writer) {
        w.str(self.label());
    }
}

impl Deserialize for Fidelity {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => Fidelity::parse(s).map_err(serde::Error::custom),
            other => Err(serde::Error::custom(format!(
                "expected a fidelity string, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelities_round_trip_labels() {
        for f in Fidelity::ALL {
            assert_eq!(Fidelity::parse(f.label()), Ok(f));
            assert_eq!(f.to_string(), f.label());
        }
        let err = Fidelity::parse("quantum").unwrap_err();
        assert!(err.contains("exact, fluid"), "{err}");
    }

    #[test]
    fn default_is_exact() {
        assert_eq!(Fidelity::default(), Fidelity::Exact);
    }

    #[test]
    fn serde_uses_the_label() {
        for f in Fidelity::ALL {
            let json = serde_json::to_string(&f).unwrap();
            assert_eq!(json, format!("{:?}", f.label()));
            let back: Fidelity = serde_json::from_str(&json).unwrap();
            assert_eq!(back, f);
        }
        assert!(serde_json::from_str::<Fidelity>("\"quantum\"").is_err());
        assert!(serde_json::from_str::<Fidelity>("3").is_err());
    }

    #[test]
    fn tolerance_ladder_is_monotone_in_shape_roughness() {
        assert!(fluid_tolerance(TraceShape::Steady) <= fluid_tolerance(TraceShape::Diurnal));
        assert!(fluid_tolerance(TraceShape::Diurnal) <= fluid_tolerance(TraceShape::Outage));
        assert!(fluid_tolerance(TraceShape::Bursty) <= fluid_tolerance(TraceShape::Outage));
        for shape in TraceShape::ALL {
            let tol = fluid_tolerance(shape);
            assert!(tol > 0.0 && tol <= 1e-6, "{shape}: {tol}");
        }
    }
}
