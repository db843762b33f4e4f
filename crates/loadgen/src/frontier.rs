//! Break-even frontier maps: where in parameter space the decision flips.
//!
//! [`decide`](sss_core::decide) answers the question at one operating
//! point, but a facility planning an upgrade wants the *boundary itself*:
//! the curve in (WAN bandwidth × data volume), or any other parameter
//! pair, along which streaming stops (or starts) paying off. The paper's
//! (α, r) regime maps are such maps over `alpha × remote_tflops`. This
//! module maps that boundary over user-chosen [`Axis`] pairs (optionally
//! sliced along a third axis) in two stages:
//!
//! 1. **Coarse grid** — every cell of a `resolution × resolution` grid is
//!    classified (`Local` / `RemoteStream` / `Infeasible`).
//! 2. **Adaptive bisection** — every grid edge whose endpoints disagree is
//!    refined by bisecting the decision along that edge until the bracket
//!    is narrower than `tolerance × span`, so the break-even curve is
//!    resolved to the configured tolerance with *far* fewer model
//!    evaluations than the dense grid that tolerance would demand
//!    ([`FrontierMap::dense_grid_equivalent`] quantifies the saving).
//!
//! Cells can optionally carry a Monte-Carlo annotation ([`AlphaJitter`]):
//! the probability that remote wins when the transfer efficiency α
//! fluctuates around the cell's nominal value.
//!
//! [`FrontierJob::run`] is the one way to compute a map. It fans the grid
//! rows and bundles of disagreeing edges across an
//! [`sss_exec::ThreadPool`] and reassembles the results in enumeration
//! order. Every cell's arithmetic, and its jitter seed (derived from the
//! spec seed and the cell's grid position through [`SeedSequence`]), is
//! independent of evaluation order, so every worker count returns the
//! same map bit for bit; a pool of one runs the same steps in the same
//! order on the calling thread. The determinism CI job compares worker
//! counts, and `tests/frontier.rs` pins the bytes of its two maps.

use serde::{Deserialize, Serialize};
use sss_core::{verdict, Decision, ModelParams, MonteCarloOutcome, TransferEfficiencyDistribution};
use sss_exec::{SeedSequence, ThreadPool};
use sss_report::{CsvWriter, Table};
use sss_stats::Summary;
use sss_units::{Bytes, ComputeIntensity, FlopRate, Rate, Ratio};

/// Which model parameter an axis sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AxisParam {
    /// `Bw`, the link bandwidth.
    Bandwidth,
    /// `S_unit`, the data unit volume.
    DataUnit,
    /// `C`, the computational intensity.
    Intensity,
    /// `R_local`, the instrument-side compute rate.
    LocalRate,
    /// `R_remote`, the HPC-side compute rate.
    RemoteRate,
    /// `α`, the transfer efficiency.
    Alpha,
    /// `θ`, the file-I/O overhead coefficient.
    Theta,
}

/// One swept axis: a model parameter, a range in the axis's own units,
/// and linear or logarithmic spacing.
///
/// Axes parse from compact `name:lo:hi[:log|:lin]` specs — the notation
/// the CLI and HTTP API use:
///
/// ```
/// use sss_loadgen::{Axis, AxisParam};
///
/// let axis = Axis::parse("wan_gbps:1:400").unwrap();
/// assert_eq!(axis.param, AxisParam::Bandwidth);
/// let log = Axis::parse("data_tb:0.1:100:log").unwrap();
/// assert!(log.log);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Axis {
    /// The axis name as given (e.g. `"wan_gbps"`); also the unit label.
    pub name: String,
    /// The parameter this axis sweeps.
    pub param: AxisParam,
    /// Multiplier from axis units into the paper's base units (GB, Gbps,
    /// TF/GB, TFLOPS); e.g. `1000` for `data_tb`.
    pub unit: f64,
    /// Lower bound, in axis units.
    pub lo: f64,
    /// Upper bound, in axis units.
    pub hi: f64,
    /// Logarithmic spacing (and log-space bisection) when `true`.
    pub log: bool,
}

/// The axis vocabulary: `(name, parameter, unit multiplier)`.
const AXIS_NAMES: &[(&str, AxisParam, f64)] = &[
    ("wan_gbps", AxisParam::Bandwidth, 1.0),
    ("bandwidth_gbps", AxisParam::Bandwidth, 1.0),
    ("data_gb", AxisParam::DataUnit, 1.0),
    ("data_tb", AxisParam::DataUnit, 1000.0),
    ("intensity_tflop_per_gb", AxisParam::Intensity, 1.0),
    ("local_tflops", AxisParam::LocalRate, 1.0),
    ("remote_tflops", AxisParam::RemoteRate, 1.0),
    ("alpha", AxisParam::Alpha, 1.0),
    ("theta", AxisParam::Theta, 1.0),
];

impl Axis {
    /// Parse a `name:lo:hi[:log|:lin]` spec.
    ///
    /// Known names: `wan_gbps`/`bandwidth_gbps`, `data_gb`, `data_tb`,
    /// `intensity_tflop_per_gb`, `local_tflops`, `remote_tflops`,
    /// `alpha`, `theta`. Spacing defaults to linear.
    pub fn parse(spec: &str) -> Result<Axis, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() < 3 || parts.len() > 4 {
            return Err(format!(
                "axis spec {spec:?} must be name:lo:hi or name:lo:hi:log"
            ));
        }
        let &(name, param, unit) = AXIS_NAMES
            .iter()
            .find(|(n, _, _)| *n == parts[0])
            .ok_or_else(|| {
                let known: Vec<&str> = AXIS_NAMES.iter().map(|(n, _, _)| *n).collect();
                format!("unknown axis {:?} (known: {})", parts[0], known.join(", "))
            })?;
        let lo: f64 = parts[1]
            .parse()
            .map_err(|_| format!("bad axis bound {:?} in {spec:?}", parts[1]))?;
        let hi: f64 = parts[2]
            .parse()
            .map_err(|_| format!("bad axis bound {:?} in {spec:?}", parts[2]))?;
        let log = match parts.get(3) {
            Some(&"log") => true,
            Some(&"lin") | None => false,
            Some(other) => return Err(format!("unknown axis spacing {other:?} (use log or lin)")),
        };
        let axis = Axis {
            name: name.to_string(),
            param,
            unit,
            lo,
            hi,
            log,
        };
        axis.validate()?;
        Ok(axis)
    }

    /// Check the range against the parameter's domain.
    fn validate(&self) -> Result<(), String> {
        if !self.lo.is_finite() || !self.hi.is_finite() || self.lo <= 0.0 || self.lo >= self.hi {
            return Err(format!(
                "axis {} range must satisfy 0 < lo < hi, got {}..{}",
                self.name, self.lo, self.hi
            ));
        }
        match self.param {
            AxisParam::Alpha if self.hi * self.unit > 1.0 => Err(format!(
                "axis {} sweeps alpha beyond 1 (hi = {})",
                self.name, self.hi
            )),
            AxisParam::Theta if self.lo * self.unit < 1.0 => Err(format!(
                "axis {} sweeps theta below 1 (lo = {})",
                self.name, self.lo
            )),
            _ => Ok(()),
        }
    }

    /// Overwrite this axis's parameter in `p` with `v` (axis units).
    fn apply(&self, p: &mut ModelParams, v: f64) {
        let v = v * self.unit;
        match self.param {
            AxisParam::Bandwidth => p.bandwidth = Rate::from_gbps(v),
            AxisParam::DataUnit => p.data_unit = Bytes::from_gb(v),
            AxisParam::Intensity => p.intensity = ComputeIntensity::from_tflop_per_gb(v),
            AxisParam::LocalRate => p.local_rate = FlopRate::from_tflops(v),
            AxisParam::RemoteRate => p.remote_rate = FlopRate::from_tflops(v),
            AxisParam::Alpha => p.alpha = Ratio::new(v),
            AxisParam::Theta => p.theta = Ratio::new(v),
        }
    }

    /// The `i`-th of `n ≥ 2` samples; endpoints land exactly on `lo`/`hi`.
    fn sample(&self, i: usize, n: usize) -> f64 {
        assert!(n >= 2 && i < n, "need i < n and n >= 2");
        if i == 0 {
            return self.lo;
        }
        if i == n - 1 {
            return self.hi;
        }
        let t = i as f64 / (n - 1) as f64;
        if self.log {
            (self.lo.ln() + (self.hi.ln() - self.lo.ln()) * t).exp()
        } else {
            self.lo + (self.hi - self.lo) * t
        }
    }

    /// All `n` samples; a single sample sits at the range midpoint.
    fn samples(&self, n: usize) -> Vec<f64> {
        assert!(n >= 1, "need at least one sample");
        if n == 1 {
            return vec![self.midpoint(self.lo, self.hi)];
        }
        (0..n).map(|i| self.sample(i, n)).collect()
    }

    /// Midpoint of a bracket, in the axis's own geometry (log-aware).
    fn midpoint(&self, lo: f64, hi: f64) -> f64 {
        if self.log {
            (0.5 * (lo.ln() + hi.ln())).exp()
        } else {
            0.5 * (lo + hi)
        }
    }

    /// Bracket width in the axis's bisection geometry: linear difference,
    /// or log-ratio for log axes.
    fn bracket_width(&self, lo: f64, hi: f64) -> f64 {
        if self.log {
            (hi / lo).ln()
        } else {
            hi - lo
        }
    }

    /// The absolute convergence width corresponding to a relative
    /// `tolerance` (fraction of the full axis span).
    fn tolerance_width(&self, tolerance: f64) -> f64 {
        tolerance * self.bracket_width(self.lo, self.hi)
    }
}

/// Monte-Carlo annotation: perturb each cell's α with a truncated normal
/// of this standard deviation and record how often remote wins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaJitter {
    /// Standard deviation of the α perturbation.
    pub sd: f64,
    /// Draws per cell.
    pub samples: usize,
}

/// The full frontier query: two primary axes, an optional slicing axis,
/// grid resolution, refinement tolerance, and the optional α-jitter study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierSpec {
    /// Horizontal axis (grid columns).
    pub x: Axis,
    /// Vertical axis (grid rows).
    pub y: Axis,
    /// Optional third axis: the map is computed per z-slice.
    pub z: Option<Axis>,
    /// Coarse-grid samples per primary axis (≥ 2).
    pub resolution: usize,
    /// Slices along `z` when present (≥ 1).
    pub slices: usize,
    /// Boundary resolution as a fraction of each axis span, in `(0, 0.5]`.
    pub tolerance: f64,
    /// Hard cap on bisection steps per edge.
    pub max_bisections: usize,
    /// Optional per-cell Monte-Carlo α study.
    pub jitter: Option<AlphaJitter>,
    /// Master seed for the jitter draws (position-derived per cell).
    pub seed: u64,
}

impl FrontierSpec {
    /// A spec over `x` and `y` with the default resolution (24), slice
    /// count (3), tolerance (`1e-3`), bisection cap (64) and seed (42).
    pub fn new(x: Axis, y: Axis) -> Self {
        FrontierSpec {
            x,
            y,
            z: None,
            resolution: 24,
            slices: 3,
            tolerance: 1e-3,
            max_bisections: 64,
            jitter: None,
            seed: 42,
        }
    }

    /// Validate the axes and knobs.
    fn validate(&self) -> Result<(), String> {
        self.x.validate()?;
        self.y.validate()?;
        if let Some(z) = &self.z {
            z.validate()?;
            if self.slices == 0 {
                return Err("slices must be >= 1 when a z axis is given".into());
            }
            if z.param == self.x.param || z.param == self.y.param {
                return Err(format!("z axis {} repeats a primary axis", z.name));
            }
        }
        if self.x.param == self.y.param {
            return Err(format!(
                "x and y axes both sweep {:?}; pick two different parameters",
                self.x.param
            ));
        }
        if self.resolution < 2 {
            return Err("resolution must be >= 2".into());
        }
        if !(self.tolerance > 0.0 && self.tolerance <= 0.5) {
            return Err(format!(
                "tolerance must lie in (0, 0.5], got {}",
                self.tolerance
            ));
        }
        if self.max_bisections == 0 {
            return Err("max_bisections must be >= 1".into());
        }
        if let Some(j) = self.jitter {
            if !(j.sd > 0.0 && j.sd.is_finite()) || j.samples == 0 {
                return Err(format!(
                    "jitter needs sd > 0 and samples >= 1, got sd {} samples {}",
                    j.sd, j.samples
                ));
            }
        }
        Ok(())
    }
}

/// One coarse-grid cell: axis coordinates, verdict, gain, and (in jitter
/// mode) the probability that remote wins under α fluctuation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrontierCell {
    /// X coordinate, in the x axis's units.
    pub x: f64,
    /// Y coordinate, in the y axis's units.
    pub y: f64,
    /// The verdict at this operating point.
    pub decision: Decision,
    /// `T_local / T_pct` (> 1 means remote wins on time).
    pub gain: f64,
    /// `P(remote beats local)` under α jitter; `None` in analytic mode.
    pub p_remote: Option<f64>,
}

/// A grid edge whose endpoints disagree: refinement work item.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// Row (y index) of the edge's lower-left cell.
    row: usize,
    /// Column (x index) of the edge's lower-left cell.
    col: usize,
    /// `true`: edge runs along x (to `col + 1`); else along y.
    along_x: bool,
}

/// One refined break-even point: where the decision flips along an edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundaryPoint {
    /// X coordinate of the flip, in x-axis units.
    pub x: f64,
    /// Y coordinate of the flip, in y-axis units.
    pub y: f64,
    /// Whether the bisection ran along the x axis.
    pub along_x: bool,
    /// Decision on the low side of the bracket.
    pub lower: Decision,
    /// Decision on the high side of the bracket.
    pub upper: Decision,
    /// Final bracket width, in the moving axis's units.
    pub width: f64,
    /// Model evaluations the bisection spent.
    pub evaluations: u32,
}

/// One z-slice of the map: the coarse grid, the refined boundary, and
/// streamed summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierSlice {
    /// The slice's z value (`None` for a 2D map).
    pub z: Option<f64>,
    /// Sampled x values (columns).
    pub xs: Vec<f64>,
    /// Sampled y values (rows).
    pub ys: Vec<f64>,
    /// `cells[row][col]` at `(xs[col], ys[row])`.
    pub cells: Vec<Vec<FrontierCell>>,
    /// Refined break-even points, in edge-enumeration order.
    pub boundary: Vec<BoundaryPoint>,
    /// Fraction of grid cells where remote streaming wins.
    pub stream_fraction: f64,
    /// Online summary of the per-cell gains.
    pub gain: Summary,
    /// Model evaluations spent on this slice (grid + refinement).
    pub evaluations: u64,
}

/// The complete frontier map: spec, base point, and one slice per z value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierMap {
    /// The query that produced this map.
    pub spec: FrontierSpec,
    /// The base operating point the axes override.
    pub base: ModelParams,
    /// One entry per z slice (exactly one for 2D maps).
    pub slices: Vec<FrontierSlice>,
    /// Total model evaluations across all slices.
    pub evaluations: u64,
    /// Evaluations a dense grid resolving the same tolerance would need.
    pub dense_grid_equivalent: u64,
}

impl FrontierMap {
    /// How many times cheaper the adaptive scheme was than the dense grid.
    pub fn savings_factor(&self) -> f64 {
        self.dense_grid_equivalent as f64 / self.evaluations as f64
    }
}

/// A frontier query bound to its base operating point, ready to run on a
/// pool.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierJob {
    base: ModelParams,
    spec: FrontierSpec,
}

/// Edges per pool task when refining the boundary: big enough to amortize
/// a task over many bisections, small enough to keep every worker busy on
/// typical boundaries.
const EDGE_BUNDLE: usize = 16;

impl FrontierJob {
    /// Validate the spec and bind it to `base`.
    pub fn new(base: ModelParams, spec: FrontierSpec) -> Result<FrontierJob, String> {
        spec.validate()?;
        base.validated().map_err(|e| e.to_string())?;
        Ok(FrontierJob { base, spec })
    }

    /// The bound spec.
    pub fn spec(&self) -> &FrontierSpec {
        &self.spec
    }

    /// The base operating point.
    pub fn base(&self) -> &ModelParams {
        &self.base
    }

    /// Compute the map, fanning grid rows and bundles of boundary edges
    /// across `pool` and reassembling them in enumeration order. Every
    /// worker count returns the same map, bit for bit: each cell's
    /// arithmetic and jitter seed derive from its grid position.
    pub fn run(&self, pool: &ThreadPool) -> FrontierMap {
        let spec = &self.spec;
        let rows: Vec<usize> = (0..spec.resolution).collect();
        let zs: Vec<Option<f64>> = match &spec.z {
            Some(axis) => axis.samples(spec.slices).into_iter().map(Some).collect(),
            None => vec![None],
        };
        let slices: Vec<FrontierSlice> = zs
            .iter()
            .enumerate()
            .map(|(si, &z)| {
                let cells: Vec<Vec<FrontierCell>> =
                    pool.map(&rows, |&row| self.eval_row(si, z, row));
                let edges = self.edges(&cells);
                let bundles: Vec<&[Edge]> = edges.chunks(EDGE_BUNDLE).collect();
                let boundary: Vec<BoundaryPoint> = pool
                    .map(&bundles, |bundle| {
                        bundle
                            .iter()
                            .map(|&e| self.refine(z, &cells, e))
                            .collect::<Vec<_>>()
                    })
                    .concat();
                self.assemble(z, cells, boundary)
            })
            .collect();
        let evaluations = slices.iter().map(|s| s.evaluations).sum();
        // Computed in f64 and saturated on the cast: an adversarially tiny
        // tolerance must not overflow the u64 product. Dense cells cost the
        // same per-cell work (including jitter draws) as adaptive ones, so
        // the comparison stays like-for-like.
        let per_axis = (1.0 / spec.tolerance).ceil() + 1.0;
        let per_cell = 1.0 + spec.jitter.map_or(0, |j| j.samples) as f64;
        let dense_grid_equivalent = (per_axis * per_axis * slices.len() as f64 * per_cell) as u64;
        FrontierMap {
            spec: spec.clone(),
            base: self.base,
            slices,
            evaluations,
            dense_grid_equivalent,
        }
    }

    /// The base point with the axes overridden at `(x, y)` (and `z` when
    /// sliced).
    fn params_at(&self, z: Option<f64>, x: f64, y: f64) -> ModelParams {
        let mut p = self.base;
        if let (Some(axis), Some(v)) = (&self.spec.z, z) {
            axis.apply(&mut p, v);
        }
        self.spec.x.apply(&mut p, x);
        self.spec.y.apply(&mut p, y);
        p
    }

    /// One full grid row (fixed y), left to right, each point judged once
    /// by [`verdict`]. `slice` and `row` position each cell for its
    /// jitter seed, so the arithmetic is independent of evaluation order.
    fn eval_row(&self, slice: usize, z: Option<f64>, row: usize) -> Vec<FrontierCell> {
        let spec = &self.spec;
        let n = spec.resolution;
        let y = spec.y.sample(row, n);
        let seeds = SeedSequence::new(spec.seed).child(slice as u64);
        (0..n)
            .map(|col| {
                let x = spec.x.sample(col, n);
                let p = self.params_at(z, x, y);
                let judged = verdict(&p);
                let p_remote = spec.jitter.map(|j| {
                    let dist = TransferEfficiencyDistribution::TruncatedNormal {
                        mean: p.alpha.value(),
                        sd: j.sd,
                    };
                    let seed = seeds.seed((row * n + col) as u64);
                    MonteCarloOutcome::run(&p, dist, j.samples, seed)
                        .map(|o| o.prob_remote_wins)
                        .unwrap_or(f64::NAN)
                });
                FrontierCell {
                    x,
                    y,
                    decision: judged.decision,
                    gain: judged.gain().value(),
                    p_remote,
                }
            })
            .collect()
    }

    /// Grid edges whose endpoints disagree — the refinement work list,
    /// enumerated row-major so its order never depends on scheduling.
    fn edges(&self, cells: &[Vec<FrontierCell>]) -> Vec<Edge> {
        let n = self.spec.resolution;
        let mut edges = Vec::new();
        for row in 0..n {
            for col in 0..n {
                if col + 1 < n && cells[row][col].decision != cells[row][col + 1].decision {
                    edges.push(Edge {
                        row,
                        col,
                        along_x: true,
                    });
                }
                if row + 1 < n && cells[row][col].decision != cells[row + 1][col].decision {
                    edges.push(Edge {
                        row,
                        col,
                        along_x: false,
                    });
                }
            }
        }
        edges
    }

    /// Bisect the decision along one disagreeing edge until the bracket is
    /// narrower than `tolerance × span` (or `max_bisections` is hit).
    fn refine(&self, z: Option<f64>, cells: &[Vec<FrontierCell>], edge: Edge) -> BoundaryPoint {
        let spec = &self.spec;
        let (axis, mut lo_t, mut hi_t, fixed) = if edge.along_x {
            (
                &spec.x,
                cells[edge.row][edge.col].x,
                cells[edge.row][edge.col + 1].x,
                cells[edge.row][edge.col].y,
            )
        } else {
            (
                &spec.y,
                cells[edge.row][edge.col].y,
                cells[edge.row + 1][edge.col].y,
                cells[edge.row][edge.col].x,
            )
        };
        let lower = cells[edge.row][edge.col].decision;
        let mut upper = if edge.along_x {
            cells[edge.row][edge.col + 1].decision
        } else {
            cells[edge.row + 1][edge.col].decision
        };

        let tol = axis.tolerance_width(spec.tolerance);
        let mut evaluations = 0u32;
        while axis.bracket_width(lo_t, hi_t) > tol && (evaluations as usize) < spec.max_bisections {
            let mid = axis.midpoint(lo_t, hi_t);
            let p = if edge.along_x {
                self.params_at(z, mid, fixed)
            } else {
                self.params_at(z, fixed, mid)
            };
            let d = verdict(&p).decision;
            evaluations += 1;
            if d == lower {
                lo_t = mid;
            } else {
                hi_t = mid;
                upper = d;
            }
        }

        let refined = axis.midpoint(lo_t, hi_t);
        let (x, y) = if edge.along_x {
            (refined, fixed)
        } else {
            (fixed, refined)
        };
        BoundaryPoint {
            x,
            y,
            along_x: edge.along_x,
            lower,
            upper,
            width: hi_t - lo_t,
            evaluations,
        }
    }

    /// Fold a slice's cells and refined boundary into a [`FrontierSlice`],
    /// streaming the per-cell gains through an online [`Summary`].
    fn assemble(
        &self,
        z: Option<f64>,
        cells: Vec<Vec<FrontierCell>>,
        boundary: Vec<BoundaryPoint>,
    ) -> FrontierSlice {
        let spec = &self.spec;
        let total = (spec.resolution * spec.resolution) as f64;
        let mut gain = Summary::new();
        let mut stream_cells = 0usize;
        for cell in cells.iter().flatten() {
            gain.record(cell.gain);
            if cell.decision == Decision::RemoteStream {
                stream_cells += 1;
            }
        }
        let per_cell = 1 + spec.jitter.map_or(0, |j| j.samples) as u64;
        let evaluations = (spec.resolution * spec.resolution) as u64 * per_cell
            + boundary.iter().map(|b| b.evaluations as u64).sum::<u64>();
        FrontierSlice {
            z,
            xs: spec.x.samples(spec.resolution),
            ys: spec.y.samples(spec.resolution),
            cells,
            boundary,
            stream_fraction: stream_cells as f64 / total,
            gain,
            evaluations,
        }
    }
}

/// One summary row per slice: regime shares, boundary size, gains, and
/// what the adaptive refinement cost relative to a dense grid.
pub fn frontier_table(map: &FrontierMap) -> Table {
    let mut table = Table::new([
        "slice", "stream%", "local%", "infeas%", "boundary", "mean gain", "max gain", "evals",
    ])
    .with_title(format!(
        "Break-even frontier: {} × {} (resolution {}, tolerance {}, dense-grid equivalent {} evals)",
        map.spec.x.name,
        map.spec.y.name,
        map.spec.resolution,
        map.spec.tolerance,
        map.dense_grid_equivalent
    ));
    for slice in &map.slices {
        let total = (map.spec.resolution * map.spec.resolution) as f64;
        let count = |d: Decision| {
            slice
                .cells
                .iter()
                .flatten()
                .filter(|c| c.decision == d)
                .count() as f64
                / total
        };
        table.row([
            slice
                .z
                .map_or("-".into(), |z| format!("{} = {z:.4}", zaxis_name(map))),
            format!("{:.1}", slice.stream_fraction * 100.0),
            format!("{:.1}", count(Decision::Local) * 100.0),
            format!("{:.1}", count(Decision::Infeasible) * 100.0),
            slice.boundary.len().to_string(),
            format!("{:.2}", slice.gain.mean()),
            format!("{:.2}", slice.gain.max()),
            slice.evaluations.to_string(),
        ]);
    }
    table
}

fn zaxis_name(map: &FrontierMap) -> &str {
    map.spec.z.as_ref().map_or("z", |a| a.name.as_str())
}

/// Every grid cell as CSV: one row per `(slice, y, x)` cell.
pub fn frontier_csv(map: &FrontierMap) -> CsvWriter {
    let mut csv = CsvWriter::new(["z", "x", "y", "decision", "gain", "p_remote"]);
    for slice in &map.slices {
        for cell in slice.cells.iter().flatten() {
            csv.row([
                slice.z.map_or(String::new(), |z| format!("{z}")),
                format!("{}", cell.x),
                format!("{}", cell.y),
                format!("{:?}", cell.decision),
                format!("{}", cell.gain),
                cell.p_remote.map_or(String::new(), |p| format!("{p}")),
            ]);
        }
    }
    csv
}

/// The refined break-even points as CSV: one row per boundary point.
pub fn boundary_csv(map: &FrontierMap) -> CsvWriter {
    let mut csv = CsvWriter::new(["z", "x", "y", "axis", "lower", "upper", "width", "evals"]);
    for slice in &map.slices {
        for b in &slice.boundary {
            csv.row([
                slice.z.map_or(String::new(), |z| format!("{z}")),
                format!("{}", b.x),
                format!("{}", b.y),
                if b.along_x { "x" } else { "y" }.to_string(),
                format!("{:?}", b.lower),
                format!("{:?}", b.upper),
                format!("{}", b.width),
                b.evaluations.to_string(),
            ]);
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_core::{decide, Scenario};

    fn lcls() -> ModelParams {
        Scenario::by_id("lcls-coherent-scattering").unwrap().params
    }

    fn spec(resolution: usize) -> FrontierSpec {
        let mut s = FrontierSpec::new(
            Axis::parse("wan_gbps:1:400").unwrap(),
            Axis::parse("data_gb:0.5:50").unwrap(),
        );
        s.resolution = resolution;
        s
    }

    fn job(spec: FrontierSpec) -> FrontierJob {
        FrontierJob::new(lcls(), spec).unwrap()
    }

    /// The map on a pool of one: every step in order on this thread.
    fn inline(job: &FrontierJob) -> FrontierMap {
        job.run(&ThreadPool::new(1))
    }

    #[test]
    fn axis_parsing_and_vocabulary() {
        let a = Axis::parse("data_tb:0.1:100").unwrap();
        assert_eq!(a.param, AxisParam::DataUnit);
        assert_eq!(a.unit, 1000.0);
        assert!(!a.log);
        assert!(Axis::parse("frobs:1:2").is_err());
        assert!(Axis::parse("alpha:0.1:1.5").is_err(), "alpha beyond 1");
        assert!(Axis::parse("theta:0.5:2").is_err(), "theta below 1");
        assert!(Axis::parse("wan_gbps:400:1").is_err(), "inverted range");
        assert!(Axis::parse("wan_gbps:1:400:frob").is_err());
        assert!(Axis::parse("wan_gbps:1").is_err());
    }

    #[test]
    fn axis_samples_hit_endpoints() {
        let a = Axis::parse("wan_gbps:1:400:log").unwrap();
        let xs = a.samples(9);
        assert_eq!(xs[0], 1.0);
        assert_eq!(xs[8], 400.0);
        for w in xs.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Log spacing: constant ratio between neighbors.
        let r0 = xs[1] / xs[0];
        let r1 = xs[5] / xs[4];
        assert!((r0 - r1).abs() < 1e-9 * r0);
    }

    #[test]
    fn axis_apply_overrides_the_right_parameter() {
        let mut p = lcls();
        Axis::parse("data_tb:0.1:100").unwrap().apply(&mut p, 2.0);
        assert!((p.data_unit.as_tb() - 2.0).abs() < 1e-9);
        Axis::parse("wan_gbps:1:400").unwrap().apply(&mut p, 100.0);
        assert!((p.bandwidth.as_gbps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_spec_rejected_up_front() {
        let one_param = FrontierSpec::new(
            Axis::parse("wan_gbps:1:400").unwrap(),
            Axis::parse("bandwidth_gbps:1:400").unwrap(),
        );
        let err = FrontierJob::new(lcls(), one_param).unwrap_err();
        assert!(err.contains("different parameters"), "{err}");
        let err = FrontierJob::new(lcls(), spec(1)).unwrap_err();
        assert_eq!(err, "resolution must be >= 2");
    }

    /// The (α, r) plane `sss-bench regimes` draws for `base`: r from 0.2
    /// to 50 times the local rate.
    fn regime_job(base: ModelParams) -> FrontierJob {
        let local = base.local_rate.as_tflops();
        let r = format!("remote_tflops:{}:{}:log", 0.2 * local, 50.0 * local);
        let spec = FrontierSpec::new(
            Axis::parse("alpha:0.05:1").unwrap(),
            Axis::parse(&r).unwrap(),
        );
        FrontierJob::new(base, spec).unwrap()
    }

    #[test]
    fn regime_map_has_both_regimes_and_cells_match_decide() {
        let job = regime_job(lcls());
        let slice = &inline(&job).slices[0];
        let f = slice.stream_fraction;
        assert!(f > 0.0 && f < 1.0, "expected a mixed map, got {f}");
        // Streaming grows with both α and r: the high corner streams and
        // the low one does not.
        let n = job.spec().resolution;
        assert_eq!(slice.cells[n - 1][n - 1].decision, Decision::RemoteStream);
        assert_ne!(slice.cells[0][0].decision, Decision::RemoteStream);
        // Every cell of every catalog scenario's plane is `decide`'s verdict.
        for scenario in Scenario::all() {
            let job = regime_job(scenario.params);
            for cell in inline(&job).slices[0].cells.iter().flatten() {
                let p = job.params_at(None, cell.x, cell.y);
                assert_eq!(
                    cell.decision,
                    decide(&p).decision,
                    "{}: {cell:?}",
                    scenario.id
                );
            }
        }
    }

    #[test]
    fn grid_has_both_regimes_and_cells_match_decide() {
        let job = job(spec(12));
        let map = inline(&job);
        assert_eq!(map.slices.len(), 1);
        let slice = &map.slices[0];
        assert!(slice.stream_fraction > 0.0 && slice.stream_fraction < 1.0);
        // Spot-check cells against the full decide() path.
        for cell in [&slice.cells[0][0], &slice.cells[11][11], &slice.cells[5][7]] {
            let p = job.params_at(None, cell.x, cell.y);
            assert_eq!(cell.decision, decide(&p).decision);
        }
    }

    #[test]
    fn refinement_brackets_a_real_flip() {
        let job = job(spec(10));
        let s = job.spec();
        let map = inline(&job);
        let slice = &map.slices[0];
        assert!(!slice.boundary.is_empty(), "mixed map must have a boundary");
        for b in &slice.boundary {
            let axis = if b.along_x { &s.x } else { &s.y };
            let tol = s.tolerance * (axis.hi - axis.lo);
            // Linear axes: converged to the absolute tolerance (or capped).
            assert!(
                b.width <= tol || b.evaluations as usize >= s.max_bisections,
                "width {} > tol {tol}",
                b.width
            );
            assert_ne!(b.lower, b.upper);
            // The bracket really straddles a decision change, along
            // whichever axis was bisected.
            let (t, fixed) = if b.along_x { (b.x, b.y) } else { (b.y, b.x) };
            let probe = |v: f64| {
                let p = if b.along_x {
                    job.params_at(None, v, fixed)
                } else {
                    job.params_at(None, fixed, v)
                };
                decide(&p).decision
            };
            assert_ne!(probe(t - b.width), probe(t + b.width));
        }
    }

    #[test]
    fn extreme_tolerance_does_not_overflow_dense_equivalent() {
        // An adversarially tiny tolerance (the HTTP API accepts it) must
        // saturate, not wrap, the dense-grid bookkeeping; refinement work
        // itself stays bounded by max_bisections.
        let mut s = spec(6);
        s.tolerance = 1e-12;
        let map = inline(&job(s));
        assert!(map.dense_grid_equivalent > map.evaluations);
        assert!(map.savings_factor() > 1.0);
    }

    #[test]
    fn adaptive_is_cheaper_than_dense() {
        let map = inline(&job(spec(16)));
        assert!(map.evaluations < map.dense_grid_equivalent);
        assert!(map.savings_factor() > 10.0);
    }

    #[test]
    fn three_d_maps_slice_along_z() {
        let mut s = spec(8);
        s.z = Some(Axis::parse("remote_tflops:50:500").unwrap());
        s.slices = 3;
        let map = inline(&job(s));
        assert_eq!(map.slices.len(), 3);
        let zs: Vec<f64> = map.slices.iter().map(|sl| sl.z.unwrap()).collect();
        assert!(zs[0] < zs[1] && zs[1] < zs[2]);
        // More remote compute can only help streaming.
        assert!(map.slices[0].stream_fraction <= map.slices[2].stream_fraction);
    }

    #[test]
    fn jitter_mode_annotates_cells_deterministically() {
        let mut s = spec(6);
        s.jitter = Some(AlphaJitter {
            sd: 0.1,
            samples: 64,
        });
        let job = job(s);
        let a = inline(&job);
        for workers in [1, 2, 4] {
            assert_eq!(
                job.run(&ThreadPool::new(workers)),
                a,
                "same seed, same draws"
            );
        }
        for cell in a.slices[0].cells.iter().flatten() {
            let p = cell.p_remote.expect("jitter mode annotates");
            assert!((0.0..=1.0).contains(&p));
        }
        // The dense-grid comparison stays like-for-like: jitter draws
        // count on both sides, so the adaptive saving does not collapse.
        assert!(a.savings_factor() > 10.0, "{}", a.savings_factor());
    }

    #[test]
    fn infeasibility_frontier_moves_out_with_volume() {
        // The feasibility boundary along bandwidth sits at Bw = S/α: more
        // data demands proportionally more link. Check the refined
        // boundary points reproduce that monotonicity.
        let map = inline(&job(spec(12)));
        let mut feas: Vec<(f64, f64)> = map.slices[0]
            .boundary
            .iter()
            .filter(|b| b.along_x && b.lower == Decision::Infeasible)
            .map(|b| (b.y, b.x))
            .collect();
        feas.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(feas.len() >= 3, "expected a feasibility frontier");
        for w in feas.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "boundary bandwidth must grow with volume: {feas:?}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_with_jitter_and_slices() {
        let mut spec = FrontierSpec::new(
            Axis::parse("wan_gbps:1:400:log").unwrap(),
            Axis::parse("data_gb:0.5:50:log").unwrap(),
        );
        spec.resolution = 8;
        spec.z = Some(Axis::parse("remote_tflops:50:500").unwrap());
        spec.slices = 2;
        spec.jitter = Some(AlphaJitter {
            sd: 0.05,
            samples: 32,
        });
        let job = job(spec);
        let seq = inline(&job);
        for workers in [3, 8] {
            assert_eq!(job.run(&ThreadPool::new(workers)), seq, "{workers} workers");
        }
    }

    #[test]
    fn renderings_cover_every_cell_and_boundary_point() {
        let map = inline(&job(spec(8)));
        let csv = frontier_csv(&map);
        assert_eq!(csv.as_str().lines().count(), 1 + 8 * 8);
        let boundary = boundary_csv(&map);
        assert_eq!(
            boundary.as_str().lines().count(),
            1 + map.slices[0].boundary.len()
        );
        let table = frontier_table(&map);
        assert_eq!(table.len(), 1);
        assert!(table.to_text().contains("wan_gbps"), "{}", table.to_text());
    }
}
