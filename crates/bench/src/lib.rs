//! Shared harness for the table/figure regenerator binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (its module doc says which) by running the simulators at
//! the published parameters and rendering the same series the paper
//! reports, as terminal tables/plots plus CSV/JSON under `results/`.
//!
//! Environment knobs (all optional):
//! * `SSS_REPEATS` — repeats per sweep cell (default 1, at least 1).
//! * `SSS_SEED` — master seed (default 42).
//! * `SSS_QUICK` — set to shrink grids ~10× for a fast smoke pass.
//! * `SSS_RESULTS_DIR` — output directory (default `results/`).
//!
//! A set `SSS_REPEATS` or `SSS_SEED` that is not a valid value panics,
//! naming the variable and its value. The simulations run on a pool
//! sized to the machine's available parallelism; their output does not
//! depend on it.
//!
//! # Example
//!
//! The shared helpers glue a measured sweep to the analytic model — e.g.
//! turning Figure 2(a)'s points into the congestion curve `plan` uses:
//!
//! ```no_run
//! use sss_bench::{congestion_curve, figure2_sweep};
//! use sss_loadgen::SpawnStrategy;
//!
//! let points = figure2_sweep(SpawnStrategy::Simultaneous);
//! let curve = congestion_curve(&points);
//! assert!(curve.sss_at(0.5).value() >= 1.0);
//! ```
//!
//! (`no_run`: the full sweep takes minutes; the regenerator binaries are
//! the intended entry point — `cargo run --release -p sss-bench --bin
//! sweep_all`, or `--bin server_scaling` for the decision-service bench.)

use std::env::VarError;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use sss_core::{CongestionCurve, Curve1D};
use sss_exec::ThreadPool;
use sss_loadgen::{sweep, SpawnStrategy, SweepPoint, SweepSpec};
use sss_units::Bytes;

/// Master seed for all regenerators (override with `SSS_SEED`).
pub fn seed() -> u64 {
    parse_knob("SSS_SEED", std::env::var("SSS_SEED"), 42, 0)
}

/// Repeats per sweep cell (override with `SSS_REPEATS`, at least 1).
pub fn repeats() -> u32 {
    parse_knob("SSS_REPEATS", std::env::var("SSS_REPEATS"), 1, 1)
}

/// The value of the numeric knob `name` read as `var`: `default` when
/// unset. Panics, naming the variable and its value, when the value does
/// not parse or is below `min`, so a typo cannot run on the default.
fn parse_knob<T>(name: &str, var: Result<String, VarError>, default: T, min: T) -> T
where
    T: FromStr + PartialOrd + Display,
{
    let raw = match var {
        Err(VarError::NotPresent) => return default,
        Ok(raw) => raw,
        Err(VarError::NotUnicode(raw)) => raw.to_string_lossy().into_owned(),
    };
    match raw.parse() {
        Ok(value) if value >= min => value,
        _ => panic!("{name}={raw:?}: expected an integer >= {min}"),
    }
}

/// True when `SSS_QUICK` is set: shrink workloads for smoke runs.
pub fn quick() -> bool {
    std::env::var("SSS_QUICK").is_ok()
}

/// Output directory for CSV/JSON artifacts, created on demand.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("SSS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// The Figure 2 sweep at the paper's Table 2 parameters (or a shrunken
/// grid under `SSS_QUICK`).
pub fn figure2_sweep(strategy: SpawnStrategy) -> Vec<SweepPoint> {
    let mut spec = SweepSpec::paper_grid(strategy, repeats(), seed());
    if quick() {
        spec.duration_s = 2;
        spec.concurrency = vec![1, 4, 8];
        spec.parallel_flows = vec![8];
        spec.bytes_per_client = Bytes::from_mb(100.0);
    }
    sweep(&spec, &ThreadPool::with_available_parallelism())
}

/// Merge sweep points into strictly-increasing (utilization, y) pairs,
/// keeping the worst y at colliding utilizations.
fn merge_by_utilization(points: &[SweepPoint], y: impl Fn(&SweepPoint) -> f64) -> Vec<(f64, f64)> {
    let mut pts: Vec<(f64, f64)> = points.iter().map(|p| (p.utilization, y(p))).collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for (u, s) in pts {
        match merged.last_mut() {
            Some((lu, ls)) if (u - *lu).abs() < 1e-6 => *ls = ls.max(s),
            _ => merged.push((u, s)),
        }
    }
    merged
}

/// Build the utilization → SSS congestion curve from a simultaneous-batch
/// sweep, as a conservative monotone envelope (interleaved P series make
/// raw worst-case data jitter downward at similar utilizations, which
/// would extrapolate nonsensically).
pub fn congestion_curve(points: &[SweepPoint]) -> CongestionCurve {
    let merged = Curve1D::from_points(merge_by_utilization(points, SweepPoint::sss))
        .expect("at least two sweep points")
        .monotone_envelope();
    CongestionCurve::from_points(merged.points().to_vec()).expect("envelope stays valid")
}

/// Build the utilization → worst batch-completion-seconds curve. This is
/// how §5 reads Figure 2(a): the "worst-case data streaming time" for one
/// second of data at utilization u is the worst completion time of the
/// concurrency cell offering that load (the batch IS the second of data),
/// not a size-rescaled score.
pub fn batch_worst_curve(points: &[SweepPoint]) -> Curve1D {
    Curve1D::from_points(merge_by_utilization(points, |p| p.worst_transfer_s))
        .expect("at least two sweep points")
        .monotone_envelope()
}

/// Format seconds compactly for tables.
pub fn fmt_s(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0} s")
    } else if v >= 1.0 {
        format!("{v:.2} s")
    } else {
        format!("{:.0} ms", v * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_scales() {
        assert_eq!(fmt_s(0.16), "160 ms");
        assert_eq!(fmt_s(5.0), "5.00 s");
        assert_eq!(fmt_s(1310.0), "1310 s");
    }

    #[test]
    fn defaults() {
        // Don't assert exact values (env may override in CI), just types.
        let _ = seed();
        assert!(repeats() >= 1);
    }

    #[test]
    fn knobs_default_when_unset_and_parse_when_set() {
        assert_eq!(
            parse_knob("SSS_SEED", Err(VarError::NotPresent), 42u64, 0),
            42
        );
        assert_eq!(parse_knob("SSS_SEED", Ok("0".into()), 42u64, 0), 0);
        assert_eq!(parse_knob("SSS_REPEATS", Ok("3".into()), 1u32, 1), 3);
    }

    #[test]
    #[should_panic(expected = "SSS_SEED=\"abc\": expected an integer >= 0")]
    fn unparsable_seed_fails_loudly() {
        parse_knob("SSS_SEED", Ok("abc".into()), 42u64, 0);
    }

    #[test]
    #[should_panic(expected = "SSS_REPEATS=\"0\": expected an integer >= 1")]
    fn zero_repeats_fail_loudly() {
        parse_knob("SSS_REPEATS", Ok("0".into()), 1u32, 1);
    }

    #[test]
    fn congestion_curve_from_sweep_points() {
        use sss_loadgen::{sweep, SweepSpec};
        let spec = SweepSpec::small_grid(SpawnStrategy::Simultaneous, 7);
        let points = sweep(&spec, &ThreadPool::new(2));
        let curve = congestion_curve(&points);
        assert!(curve.sss_at(0.5).value() >= 1.0);
    }
}
