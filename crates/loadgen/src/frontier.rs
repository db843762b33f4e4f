//! Parallel driver for break-even frontier maps.
//!
//! [`FrontierSpec::compute`] is the sequential reference; [`FrontierJob`]
//! fans the same per-row grid evaluations and per-edge bisections across
//! an [`sss_exec::ThreadPool`] and reassembles the results in enumeration
//! order. Because every cell's arithmetic (and every jitter seed) is
//! derived from its grid position, the two paths produce **bit-identical**
//! [`FrontierMap`]s — the same guarantee the scenario suite makes, and
//! the determinism CI job enforces.

use sss_core::ModelParams;
use sss_core::{BoundaryPoint, Decision, FrontierCell, FrontierMap, FrontierSlice, FrontierSpec};
use sss_exec::ThreadPool;
use sss_report::{CsvWriter, Table};

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
    /// across `pool`. Every worker count returns the map of the sequential
    /// reference [`FrontierSpec::compute`], bit for bit: each cell's
    /// arithmetic and jitter seed derive from its grid position.
    pub fn run(&self, pool: &ThreadPool) -> FrontierMap {
        let spec = &self.spec;
        let rows: Vec<usize> = (0..spec.resolution).collect();
        let slices: Vec<FrontierSlice> = spec
            .zs()
            .iter()
            .enumerate()
            .map(|(si, &z)| {
                let cells: Vec<Vec<FrontierCell>> =
                    pool.map(&rows, |&row| spec.eval_row(&self.base, si, z, row));
                let edges = spec.edges(&cells);
                let bundles: Vec<&[sss_core::Edge]> = edges.chunks(EDGE_BUNDLE).collect();
                let boundary: Vec<BoundaryPoint> = pool
                    .map(&bundles, |bundle| {
                        bundle
                            .iter()
                            .map(|&e| spec.refine(&self.base, z, &cells, e))
                            .collect::<Vec<_>>()
                    })
                    .concat();
                spec.assemble(z, cells, boundary)
            })
            .collect();
        FrontierMap::from_slices(spec.clone(), self.base, slices)
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
    use sss_core::{AlphaJitter, Axis, Scenario};

    fn job(resolution: usize) -> FrontierJob {
        let mut spec = FrontierSpec::new(
            Axis::parse("wan_gbps:1:400").unwrap(),
            Axis::parse("data_gb:0.5:50").unwrap(),
        );
        spec.resolution = resolution;
        FrontierJob::new(
            Scenario::by_id("lcls-coherent-scattering").unwrap().params,
            spec,
        )
        .unwrap()
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let job = job(12);
        let par = job.run(&ThreadPool::new(4));
        let seq = job.spec().compute(job.base());
        assert_eq!(par, seq);
        // Byte-level too: the serialized artifacts must be identical.
        assert_eq!(
            serde_json::to_string(&par).unwrap(),
            serde_json::to_string(&seq).unwrap()
        );
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
        let job = FrontierJob::new(
            Scenario::by_id("lcls-coherent-scattering").unwrap().params,
            spec,
        )
        .unwrap();
        assert_eq!(job.run(&ThreadPool::new(8)), job.spec().compute(job.base()));
    }

    #[test]
    fn invalid_spec_rejected_up_front() {
        let spec = FrontierSpec::new(
            Axis::parse("wan_gbps:1:400").unwrap(),
            Axis::parse("bandwidth_gbps:1:400").unwrap(),
        );
        let err = FrontierJob::new(
            Scenario::by_id("lcls-coherent-scattering").unwrap().params,
            spec,
        )
        .unwrap_err();
        assert!(err.contains("different parameters"), "{err}");
    }

    #[test]
    fn renderings_cover_every_cell_and_boundary_point() {
        let job = job(8);
        let map = job.run(&ThreadPool::new(1));
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
