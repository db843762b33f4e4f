//! The one [`Context`] every regenerator runs over, and the helpers that
//! glue a measured sweep to the analytic model.

use std::cell::OnceCell;
use std::ffi::OsString;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use sss_core::{CongestionCurve, Curve1D};
use sss_exec::ThreadPool;
use sss_loadgen::{sweep, SpawnStrategy, SweepPoint, SweepSpec};
use sss_report::Series;
use sss_units::Bytes;

/// What every regenerator shares in one process: the `SSS_*` knobs, read
/// once, one pool sized to the machine, and each spawn strategy's sweep,
/// run on first request and handed out from then on.
pub(crate) struct Context {
    /// Master seed (`SSS_SEED`, default 42).
    pub(crate) seed: u64,
    /// Repeats per sweep cell (`SSS_REPEATS`, default 1, at least 1).
    repeats: u32,
    /// `SSS_QUICK=1`: shrink workloads for smoke runs.
    pub(crate) quick: bool,
    /// Output directory (`SSS_RESULTS_DIR`, default `results/`).
    results_dir: PathBuf,
    /// The simulations' pool; their output does not depend on its size.
    pub(crate) pool: ThreadPool,
    /// The sweep a strategy's grid runs ([`table2_grid`] in the product).
    grid_spec: fn(&Context, SpawnStrategy) -> SweepSpec,
    grids: [OnceCell<Vec<SweepPoint>>; 3],
}

impl Context {
    /// The context the environment describes, over the Table 2 grids.
    pub(crate) fn from_env() -> Context {
        Context::new(|name| std::env::var_os(name), table2_grid)
    }

    /// The context whose knobs `var` looks up by name. A set knob that is
    /// not a valid value panics, naming the variable and its value, so a
    /// typo cannot run on the default.
    fn new(
        var: impl Fn(&str) -> Option<OsString>,
        grid_spec: fn(&Context, SpawnStrategy) -> SweepSpec,
    ) -> Context {
        Context {
            seed: parse_knob("SSS_SEED", var("SSS_SEED"), 42, 0),
            repeats: parse_knob("SSS_REPEATS", var("SSS_REPEATS"), 1, 1),
            quick: parse_quick(var("SSS_QUICK")),
            results_dir: var("SSS_RESULTS_DIR").map_or_else(|| "results".into(), PathBuf::from),
            pool: ThreadPool::with_available_parallelism(),
            grid_spec,
            grids: Default::default(),
        }
    }

    /// The Figure 2 sweep under `strategy`: run on the first request,
    /// the same points on every later one.
    pub(crate) fn grid(&self, strategy: SpawnStrategy) -> &[SweepPoint] {
        let slot = match strategy {
            SpawnStrategy::Simultaneous => 0,
            SpawnStrategy::Scheduled => 1,
            SpawnStrategy::Reserved => 2,
        };
        self.grids[slot].get_or_init(|| {
            eprintln!("running the Table 2 sweep ({strategy:?} spawning)...");
            sweep(&(self.grid_spec)(self, strategy), &self.pool)
        })
    }

    /// The path of artifact `name`, creating the output directory on
    /// demand.
    pub(crate) fn out(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.results_dir).expect("create results dir");
        self.results_dir.join(name)
    }
}

/// The Figure 2 sweep at the paper's Table 2 parameters, shrunk about
/// tenfold under `SSS_QUICK`.
fn table2_grid(ctx: &Context, strategy: SpawnStrategy) -> SweepSpec {
    let mut spec = SweepSpec::paper_grid(strategy, ctx.repeats, ctx.seed);
    if ctx.quick {
        spec.duration_s = 2;
        spec.concurrency = vec![1, 4, 8];
        spec.parallel_flows = vec![8];
        spec.bytes_per_client = Bytes::from_mb(100.0);
    }
    spec
}

/// The value of the numeric knob `name` read as `var`: `default` when
/// unset. Panics, naming the variable and its value, when the value does
/// not parse or is below `min`.
fn parse_knob<T>(name: &str, var: Option<OsString>, default: T, min: T) -> T
where
    T: FromStr + PartialOrd + Display,
{
    let Some(raw) = var else {
        return default;
    };
    let raw = raw.to_string_lossy();
    match raw.parse() {
        Ok(value) if value >= min => value,
        _ => panic!("{name}={raw:?}: expected an integer >= {min}"),
    }
}

/// `SSS_QUICK` read as `var`: on only when set to `1`, off when unset.
/// Any other value panics, so `SSS_QUICK=0` cannot turn quick mode on.
fn parse_quick(var: Option<OsString>) -> bool {
    match var {
        None => false,
        Some(raw) if raw == "1" => true,
        Some(raw) => panic!("SSS_QUICK={raw:?}: expected 1, or unset"),
    }
}

/// One plot series per parallel-flow count P ∈ {2, 4, 8}: each cell's
/// worst transfer against `x` of the cell.
pub(crate) fn p_series(points: &[SweepPoint], x: impl Fn(&SweepPoint) -> f64) -> Vec<Series> {
    [(2u32, 'o'), (4, '+'), (8, 'x')]
        .into_iter()
        .filter_map(|(p_flows, glyph)| {
            let pts: Vec<(f64, f64)> = points
                .iter()
                .filter(|p| p.parallel_flows == p_flows)
                .map(|p| (x(p), p.worst_transfer_s))
                .collect();
            (!pts.is_empty()).then(|| Series::new(format!("P={p_flows}"), glyph, pts))
        })
        .collect()
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
pub(crate) fn congestion_curve(points: &[SweepPoint]) -> CongestionCurve {
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
pub(crate) fn batch_worst_curve(points: &[SweepPoint]) -> Curve1D {
    Curve1D::from_points(merge_by_utilization(points, |p| p.worst_transfer_s))
        .expect("at least two sweep points")
        .monotone_envelope()
}

/// Format seconds compactly for tables.
pub(crate) fn fmt_s(v: f64) -> String {
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    #[test]
    fn fmt_scales() {
        assert_eq!(fmt_s(0.16), "160 ms");
        assert_eq!(fmt_s(5.0), "5.00 s");
        assert_eq!(fmt_s(1310.0), "1310 s");
    }

    #[test]
    fn defaults() {
        let ctx = Context::new(|_| None, table2_grid);
        assert_eq!((ctx.seed, ctx.repeats, ctx.quick), (42, 1, false));
        assert_eq!(ctx.results_dir, PathBuf::from("results"));
    }

    #[test]
    fn knobs_default_when_unset_and_parse_when_set() {
        assert_eq!(parse_knob("SSS_SEED", None, 42u64, 0), 42);
        assert_eq!(parse_knob("SSS_SEED", Some("0".into()), 42u64, 0), 0);
        assert_eq!(parse_knob("SSS_REPEATS", Some("3".into()), 1u32, 1), 3);
        assert!(parse_quick(Some("1".into())));
        assert!(!parse_quick(None));
    }

    #[test]
    #[should_panic(expected = "SSS_SEED=\"abc\": expected an integer >= 0")]
    fn unparsable_seed_fails_loudly() {
        parse_knob("SSS_SEED", Some("abc".into()), 42u64, 0);
    }

    #[test]
    #[should_panic(expected = "SSS_REPEATS=\"0\": expected an integer >= 1")]
    fn zero_repeats_fail_loudly() {
        parse_knob("SSS_REPEATS", Some("0".into()), 1u32, 1);
    }

    #[test]
    #[should_panic(expected = "SSS_QUICK=\"0\": expected 1, or unset")]
    fn quick_zero_fails_loudly() {
        parse_quick(Some("0".into()));
    }

    #[test]
    #[should_panic(expected = "SSS_QUICK=\"\": expected 1, or unset")]
    fn empty_quick_fails_loudly() {
        parse_quick(Some("".into()));
    }

    #[test]
    fn non_utf8_results_dir_is_kept() {
        use std::os::unix::ffi::OsStringExt;
        let dir = OsString::from_vec(b"out-\xff".to_vec());
        let ctx = Context::new(
            |name| (name == "SSS_RESULTS_DIR").then(|| dir.clone()),
            table2_grid,
        );
        assert_eq!(ctx.results_dir.as_os_str(), dir);
    }

    #[test]
    fn each_strategy_sweeps_once_per_context() {
        static SWEEPS: AtomicUsize = AtomicUsize::new(0);
        let ctx = Context::new(
            |_| None,
            |ctx, strategy| {
                SWEEPS.fetch_add(1, Ordering::Relaxed);
                SweepSpec::small_grid(strategy, ctx.seed)
            },
        );
        let first = ctx.grid(SpawnStrategy::Simultaneous);
        assert!(std::ptr::eq(first, ctx.grid(SpawnStrategy::Simultaneous)));
        assert_eq!(SWEEPS.load(Ordering::Relaxed), 1);
        let reserved = ctx.grid(SpawnStrategy::Reserved);
        assert!(std::ptr::eq(reserved, ctx.grid(SpawnStrategy::Reserved)));
        assert!(std::ptr::eq(first, ctx.grid(SpawnStrategy::Simultaneous)));
        assert_eq!(SWEEPS.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn congestion_curve_from_sweep_points() {
        let spec = SweepSpec::small_grid(SpawnStrategy::Simultaneous, 7);
        let points = sweep(&spec, &ThreadPool::new(2));
        let curve = congestion_curve(&points);
        assert!(curve.sss_at(0.5).value() >= 1.0);
    }
}
