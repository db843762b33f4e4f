//! The facility-scenario registry: named workloads from the paper's §2.2
//! science drivers and §5 case study, plus cross-facility pairings drawn
//! from the streaming-architecture survey literature.
//!
//! Scenarios are **data, not code**: every bundled workload is a
//! [`ScenarioSpec`] — a flat, serde-round-trippable record of the seven
//! model parameters in the paper's own units (GB, TF/GB, TFLOPS, Gbps)
//! plus identity and provenance. [`Scenario::registry`] returns the
//! bundled spec table, [`ScenarioSpec::build`] validates a spec into a
//! typed [`Scenario`], and external catalogs deserialize through the same
//! path, so adding a facility is one literal (or one JSON object), never
//! a new constructor.
//!
//! Data rates and compute demands come from the paper (Table 3 for
//! LCLS-II; §2.2 for APS, DELERIA and LHC) and from the public
//! descriptions of the added facilities; local compute capacity is not
//! published for any of them, so every scenario documents its assumption —
//! the `regimes` analysis exists precisely to show how the decision moves
//! as those assumptions vary.

use serde::{Deserialize, Serialize};
use sss_units::{Bytes, ComputeIntensity, FlopRate, Rate, Ratio};

use crate::params::{ModelParams, ParamError};
use crate::tiers::Tier;

/// A declarative facility-scenario record: the seven model parameters in
/// paper units, plus identity, provenance and the target latency tier.
///
/// Specs are plain data — they serialize losslessly, diff cleanly, and
/// build into validated [`Scenario`]s via [`ScenarioSpec::build`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Short identifier (e.g. `"lcls-coherent-scattering"`).
    pub id: String,
    /// Human-readable name as the paper (or facility) uses it.
    pub name: String,
    /// Where the numbers come from and what was assumed.
    pub provenance: String,
    /// The latency tier the science case targets.
    pub tier: Tier,
    /// `S_unit` in decimal gigabytes (one second of detector output, one
    /// scan, one checkpoint, ...).
    pub data_unit_gb: f64,
    /// `C` in TFLOP per GB of data.
    pub intensity_tflop_per_gb: f64,
    /// `R_local` in TFLOPS.
    pub local_tflops: f64,
    /// `R_remote` in TFLOPS.
    pub remote_tflops: f64,
    /// `Bw` in Gbps.
    pub bandwidth_gbps: f64,
    /// `α`: transfer efficiency in `(0, 1]`.
    pub alpha: f64,
    /// `θ`: file-I/O overhead coefficient (`1` for pure streaming).
    pub theta: f64,
}

impl ScenarioSpec {
    /// Validate the spec and build the typed [`Scenario`].
    ///
    /// All semantic constraints of [`ModelParams`] apply; the id and name
    /// must additionally be non-empty.
    pub fn build(&self) -> Result<Scenario, ParamError> {
        if self.id.is_empty() {
            return Err(ParamError {
                parameter: "id",
                message: "scenario id must be non-empty".into(),
            });
        }
        if self.name.is_empty() {
            return Err(ParamError {
                parameter: "name",
                message: "scenario name must be non-empty".into(),
            });
        }
        let params = ModelParams::builder()
            .data_unit(Bytes::from_gb(self.data_unit_gb))
            .intensity(ComputeIntensity::from_tflop_per_gb(
                self.intensity_tflop_per_gb,
            ))
            .local_rate(FlopRate::from_tflops(self.local_tflops))
            .remote_rate(FlopRate::from_tflops(self.remote_tflops))
            .bandwidth(Rate::from_gbps(self.bandwidth_gbps))
            .alpha(Ratio::new(self.alpha))
            .theta(Ratio::new(self.theta))
            .build()?;
        Ok(Scenario {
            id: self.id.clone(),
            name: self.name.clone(),
            provenance: self.provenance.clone(),
            params,
            tier: self.tier,
        })
    }
}

/// A named workload with validated model parameters and target tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Short identifier (e.g. `"lcls-coherent-scattering"`).
    pub id: String,
    /// Human-readable name as the paper uses it.
    pub name: String,
    /// Where the numbers come from and what was assumed.
    pub provenance: String,
    /// Model parameters.
    pub params: ModelParams,
    /// The latency tier the science case targets.
    pub tier: Tier,
}

impl Scenario {
    /// The bundled scenario catalog, as declarative specs.
    ///
    /// The first six entries are the paper's own workloads (Table 3 and
    /// §2.2); the rest are cross-facility pairings in the same format,
    /// each with its provenance and assumptions spelled out.
    pub fn registry() -> Vec<ScenarioSpec> {
        vec![
            // --- the paper's workloads ---
            ScenarioSpec {
                id: "lcls-coherent-scattering".into(),
                name: "LCLS-II Coherent Scattering (XPCS, XSVS)".into(),
                provenance: "Table 3 (2 GB/s, 34 TF); local 10 TFLOPS assumed; \
                 remote 340 TFLOPS (HPC allocation) assumed; 25 Gbps link, α = 0.8"
                    .into(),
                tier: Tier::NearRealTime,
                data_unit_gb: 2.0,
                intensity_tflop_per_gb: 17.0,
                local_tflops: 10.0,
                remote_tflops: 340.0,
                bandwidth_gbps: 25.0,
                alpha: 0.8,
                theta: 1.0,
            },
            ScenarioSpec {
                id: "lcls-liquid-scattering".into(),
                name: "LCLS-II Liquid Scattering".into(),
                provenance: "Table 3 (4 GB/s, 20 TF); infeasible on the 25 Gbps testbed link \
                 (32 Gbps demanded); local 10 TFLOPS assumed"
                    .into(),
                tier: Tier::NearRealTime,
                data_unit_gb: 4.0,
                intensity_tflop_per_gb: 5.0,
                local_tflops: 10.0,
                remote_tflops: 200.0,
                bandwidth_gbps: 25.0,
                alpha: 1.0,
                theta: 1.0,
            },
            ScenarioSpec {
                id: "lcls-liquid-scattering-reduced".into(),
                name: "LCLS-II Liquid Scattering (reduced to 3 GB/s)".into(),
                provenance: "§5: \"we assume that we could further reduce transfer rates to \
                 3 GB/s (24 Gbps)\"; 96% utilization; 20 TF per original 4 GB"
                    .into(),
                tier: Tier::NearRealTime,
                data_unit_gb: 3.0,
                intensity_tflop_per_gb: 5.0,
                local_tflops: 10.0,
                remote_tflops: 200.0,
                bandwidth_gbps: 25.0,
                alpha: 1.0,
                theta: 1.0,
            },
            ScenarioSpec {
                id: "aps-tomography".into(),
                name: "APS real-time tomographic reconstruction".into(),
                provenance: "§2.2.3 (10s of GB/s, ALCF streaming reconstruction); \
                 10 GB/s unit, 100 Gbps campus link assumed, α = 0.85; \
                 2 TF/GB reconstruction intensity assumed; local 5 TFLOPS"
                    .into(),
                tier: Tier::RealTime,
                data_unit_gb: 10.0,
                intensity_tflop_per_gb: 2.0,
                local_tflops: 5.0,
                remote_tflops: 100.0,
                bandwidth_gbps: 100.0,
                alpha: 0.85,
                theta: 1.0,
            },
            ScenarioSpec {
                id: "deleria-frib".into(),
                name: "DELERIA (FRIB gamma-ray streaming)".into(),
                provenance: "§2.2.4 (40 Gbps over ESnet, targeting 100 Gbps); 5 GB/s unit; \
                 signal decomposition ~1 TF/GB assumed; local 2 TFLOPS \
                 (counting-house servers); remote 50 TFLOPS assumed"
                    .into(),
                tier: Tier::RealTime,
                data_unit_gb: 5.0,
                intensity_tflop_per_gb: 1.0,
                local_tflops: 2.0,
                remote_tflops: 50.0,
                bandwidth_gbps: 100.0,
                alpha: 0.4,
                theta: 1.0,
            },
            ScenarioSpec {
                id: "lhc-raw-trigger".into(),
                name: "LHC raw collision stream (pre-trigger)".into(),
                provenance: "§2.2.1 (40 TB/s raw); even a 1 Tbps WAN is 300× short — \
                 the model correctly forces local (trigger) processing"
                    .into(),
                tier: Tier::RealTime,
                data_unit_gb: 40_000.0,
                intensity_tflop_per_gb: 0.005,
                local_tflops: 1_000.0,
                remote_tflops: 10_000.0,
                bandwidth_gbps: 1_000.0,
                alpha: 0.9,
                theta: 1.0,
            },
            // --- cross-facility pairings beyond the paper ---
            ScenarioSpec {
                id: "aps-u-ptychography".into(),
                name: "APS-U ptychography (post-upgrade coherent imaging)".into(),
                provenance: "APS upgrade projections: ~2 GB/s sustained from coherent-imaging \
                 detectors; iterative ptychographic reconstruction ~8 TF/GB assumed; \
                 400 Gbps APS↔ALCF path, α = 0.85; local 20 TFLOPS beamline GPUs; \
                 remote 500 TFLOPS Polaris allocation assumed"
                    .into(),
                tier: Tier::NearRealTime,
                data_unit_gb: 2.0,
                intensity_tflop_per_gb: 8.0,
                local_tflops: 20.0,
                remote_tflops: 500.0,
                bandwidth_gbps: 400.0,
                alpha: 0.85,
                theta: 1.0,
            },
            ScenarioSpec {
                id: "diii-d-between-shot".into(),
                name: "DIII-D fusion diagnostics (between-shot analysis)".into(),
                provenance: "DIII-D→remote-HPC between-shot workflows: ~0.5 GB/s of diagnostic \
                 data, ~10 TF/GB equilibrium-reconstruction load assumed; 10 Gbps \
                 site link at α = 0.7; local 5 TFLOPS cluster; remote 100 TFLOPS; \
                 results needed inside the ~10 s between-shot window"
                    .into(),
                tier: Tier::NearRealTime,
                data_unit_gb: 0.5,
                intensity_tflop_per_gb: 10.0,
                local_tflops: 5.0,
                remote_tflops: 100.0,
                bandwidth_gbps: 10.0,
                alpha: 0.7,
                theta: 1.0,
            },
            ScenarioSpec {
                id: "cryoem-s3df".into(),
                name: "Cryo-EM motion correction at S3DF".into(),
                provenance: "SLAC cryo-EM pipelines: ~1 GB/s of movie frames into S3DF; motion \
                 correction + CTF estimation ~4 TF/GB assumed; 100 Gbps campus \
                 fabric, α = 0.8; staging through files gives θ ≈ 1.2; local 8 \
                 TFLOPS at the microscope; remote 200 TFLOPS"
                    .into(),
                tier: Tier::QuasiRealTime,
                data_unit_gb: 1.0,
                intensity_tflop_per_gb: 4.0,
                local_tflops: 8.0,
                remote_tflops: 200.0,
                bandwidth_gbps: 100.0,
                alpha: 0.8,
                theta: 1.2,
            },
            ScenarioSpec {
                id: "ska-low-pathfinder".into(),
                name: "SKA-Low pathfinder visibility stream".into(),
                provenance: "SKA pathfinder scale: ~10 GB/s of channelized visibilities; \
                 calibration ~0.5 TF/GB assumed; 100 Gbps long-haul at α = 0.9; \
                 local 50 TFLOPS at the telescope (correlator GPUs); remote 400 \
                 TFLOPS — transfer dominates, so on-site processing wins"
                    .into(),
                tier: Tier::QuasiRealTime,
                data_unit_gb: 10.0,
                intensity_tflop_per_gb: 0.5,
                local_tflops: 50.0,
                remote_tflops: 400.0,
                bandwidth_gbps: 100.0,
                alpha: 0.9,
                theta: 1.0,
            },
            ScenarioSpec {
                id: "climate-checkpoint-stream".into(),
                name: "Climate-model checkpoint stream (E3SM-style)".into(),
                provenance: "Exascale climate runs: 20 GB checkpoint slabs, light in-transit \
                 post-processing ~0.05 TF/GB; 200 Gbps ESnet path at α = 0.9; \
                 file-based checkpoints give θ ≈ 2.5; local 10 TFLOPS analysis \
                 partition; remote 100 TFLOPS"
                    .into(),
                tier: Tier::QuasiRealTime,
                data_unit_gb: 20.0,
                intensity_tflop_per_gb: 0.05,
                local_tflops: 10.0,
                remote_tflops: 100.0,
                bandwidth_gbps: 200.0,
                alpha: 0.9,
                theta: 2.5,
            },
            ScenarioSpec {
                id: "lhc-hlt-stream".into(),
                name: "LHC high-level-trigger output stream".into(),
                provenance: "§2.2.1 variant: post-hardware-trigger HLT output ~5 GB/s; \
                 reconstruction ~3 TF/GB assumed; 100 Gbps LHCOPN-class link at \
                 α = 0.8; local 20 TFLOPS HLT farm slice; remote 500 TFLOPS"
                    .into(),
                tier: Tier::NearRealTime,
                data_unit_gb: 5.0,
                intensity_tflop_per_gb: 3.0,
                local_tflops: 20.0,
                remote_tflops: 500.0,
                bandwidth_gbps: 100.0,
                alpha: 0.8,
                theta: 1.0,
            },
            ScenarioSpec {
                id: "dune-protodune-stream".into(),
                name: "ProtoDUNE test-beam stream to remote HPC".into(),
                provenance: "ProtoDUNE-scale TPC readout: ~2.5 GB/s after compression; hit \
                 finding + 2D deconvolution ~0.8 TF/GB assumed; 100 Gbps ESnet \
                 path at α = 0.75; local 4 TFLOPS counting house; remote 80 TFLOPS"
                    .into(),
                tier: Tier::NearRealTime,
                data_unit_gb: 2.5,
                intensity_tflop_per_gb: 0.8,
                local_tflops: 4.0,
                remote_tflops: 80.0,
                bandwidth_gbps: 100.0,
                alpha: 0.75,
                theta: 1.0,
            },
        ]
    }

    /// All bundled scenarios, built and validated from [`Scenario::registry`].
    pub fn all() -> Vec<Scenario> {
        Scenario::registry()
            .iter()
            .map(|s| s.build().expect("bundled scenario spec valid"))
            .collect()
    }

    /// Look a scenario up by id.
    pub fn by_id(id: &str) -> Option<Scenario> {
        Scenario::registry()
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.build().expect("bundled scenario spec valid"))
    }

    /// Resolve a user-supplied scenario query: an exact registry id, a
    /// common shorthand (`lcls2`, `aps`, `frib`, ...), or any string that
    /// matches exactly one registry id as a substring.
    pub fn resolve(query: &str) -> Result<Scenario, String> {
        if let Some(s) = Scenario::by_id(query) {
            return Ok(s);
        }
        const ALIASES: &[(&str, &str)] = &[
            ("lcls", "lcls-coherent-scattering"),
            ("lcls2", "lcls-coherent-scattering"),
            ("lcls-ii", "lcls-coherent-scattering"),
            ("aps", "aps-tomography"),
            ("apsu", "aps-u-ptychography"),
            ("aps-u", "aps-u-ptychography"),
            ("deleria", "deleria-frib"),
            ("frib", "deleria-frib"),
            ("lhc", "lhc-raw-trigger"),
            ("hlt", "lhc-hlt-stream"),
            ("diii-d", "diii-d-between-shot"),
            ("d3d", "diii-d-between-shot"),
            ("cryoem", "cryoem-s3df"),
            ("ska", "ska-low-pathfinder"),
            ("climate", "climate-checkpoint-stream"),
            ("e3sm", "climate-checkpoint-stream"),
            ("dune", "dune-protodune-stream"),
            ("protodune", "dune-protodune-stream"),
        ];
        let lowered = query.to_lowercase();
        if let Some((_, id)) = ALIASES.iter().find(|(alias, _)| *alias == lowered) {
            return Ok(Scenario::by_id(id).expect("alias target registered"));
        }
        let registry = Scenario::registry();
        let matches: Vec<&ScenarioSpec> = registry
            .iter()
            .filter(|s| s.id.contains(lowered.as_str()))
            .collect();
        match matches.as_slice() {
            [one] => Ok(one.build().expect("bundled scenario spec valid")),
            [] => {
                let ids: Vec<&str> = registry.iter().map(|s| s.id.as_str()).collect();
                let candidates = ids
                    .iter()
                    .copied()
                    .chain(ALIASES.iter().map(|(alias, _)| *alias));
                let hint = nearest_within(&lowered, candidates, 2)
                    .map(|n| format!(" — did you mean {n:?}?"))
                    .unwrap_or_default();
                Err(format!(
                    "unknown scenario {query:?}{hint}; known ids: {}",
                    ids.join(", ")
                ))
            }
            many => {
                let ids: Vec<&str> = many.iter().map(|s| s.id.as_str()).collect();
                Err(format!(
                    "scenario {query:?} is ambiguous between: {}",
                    ids.join(", ")
                ))
            }
        }
    }

    /// The declarative spec this scenario round-trips through.
    pub fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            id: self.id.clone(),
            name: self.name.clone(),
            provenance: self.provenance.clone(),
            tier: self.tier,
            data_unit_gb: self.params.data_unit.as_gb(),
            intensity_tflop_per_gb: self.params.intensity.as_tflop_per_gb(),
            local_tflops: self.params.local_rate.as_tflops(),
            remote_tflops: self.params.remote_rate.as_tflops(),
            bandwidth_gbps: self.params.bandwidth.as_gbps(),
            alpha: self.params.alpha.value(),
            theta: self.params.theta.value(),
        }
    }
}

/// Levenshtein distance over bytes — the ids, aliases and CLI flags it
/// compares are ASCII, and a typo'd query is at worst compared byte-wise,
/// which only ever overestimates the distance (safe for a "did you mean"
/// hint).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            curr[j + 1] = substitute.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// The candidate closest to `query` by edit distance, if any lies within
/// `max_distance`; ties keep the earliest candidate.
pub fn nearest_within<'a>(
    query: &str,
    candidates: impl Iterator<Item = &'a str>,
    max_distance: usize,
) -> Option<&'a str> {
    let mut best: Option<(usize, &str)> = None;
    for c in candidates {
        let d = edit_distance(query, c);
        if d <= max_distance && best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, c));
        }
    }
    best.map(|(_, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{decide, Decision};

    #[test]
    fn registry_has_at_least_twelve_facilities() {
        let registry = Scenario::registry();
        assert!(
            registry.len() >= 12,
            "scenario catalog shrank to {}",
            registry.len()
        );
    }

    #[test]
    fn registry_ids_are_unique() {
        let registry = Scenario::registry();
        let ids: std::collections::HashSet<&str> = registry.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids.len(), registry.len());
    }

    #[test]
    fn table3_coherent_scattering_numbers() {
        let s = Scenario::by_id("lcls-coherent-scattering").unwrap();
        // 2 GB × 17 TF/GB = 34 TF, the Table 3 figure.
        let work = s.params.intensity * s.params.data_unit;
        assert!((work.as_tflop() - 34.0).abs() < 1e-9);
        assert!((s.params.required_stream_rate().as_gbps() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn table3_liquid_scattering_infeasible() {
        let s = Scenario::by_id("lcls-liquid-scattering").unwrap();
        // 4 GB/s = 32 Gbps > 25 Gbps.
        assert!((s.params.required_stream_rate().as_gbps() - 32.0).abs() < 1e-9);
        assert_eq!(decide(&s.params).decision, Decision::Infeasible);
    }

    #[test]
    fn reduced_liquid_scattering_fits_at_96pct() {
        let s = Scenario::by_id("lcls-liquid-scattering-reduced").unwrap();
        let util = s.params.required_stream_rate().as_bytes_per_sec()
            / s.params.bandwidth.as_bytes_per_sec();
        assert!((util - 0.96).abs() < 1e-9);
        assert_ne!(decide(&s.params).decision, Decision::Infeasible);
    }

    #[test]
    fn lhc_is_infeasible_by_orders_of_magnitude() {
        let s = Scenario::by_id("lhc-raw-trigger").unwrap();
        let report = decide(&s.params);
        assert_eq!(report.decision, Decision::Infeasible);
        let ratio =
            report.required_rate.as_bytes_per_sec() / report.effective_rate.as_bytes_per_sec();
        assert!(
            ratio > 100.0,
            "LHC should be >100× over capacity, got {ratio}"
        );
    }

    #[test]
    fn all_scenarios_have_valid_params() {
        for s in Scenario::all() {
            s.params.validated().expect("scenario must validate");
            assert!(!s.id.is_empty());
            assert!(!s.provenance.is_empty());
        }
    }

    #[test]
    fn lookup_by_id() {
        assert!(Scenario::by_id("deleria-frib").is_some());
        assert!(Scenario::by_id("nonexistent").is_none());
        assert_eq!(
            Scenario::by_id("aps-tomography").unwrap().name,
            "APS real-time tomographic reconstruction"
        );
    }

    #[test]
    fn resolve_accepts_ids_aliases_and_unique_substrings() {
        assert_eq!(
            Scenario::resolve("deleria-frib").unwrap().id,
            "deleria-frib"
        );
        assert_eq!(
            Scenario::resolve("lcls2").unwrap().id,
            "lcls-coherent-scattering"
        );
        assert_eq!(Scenario::resolve("FRIB").unwrap().id, "deleria-frib");
        assert_eq!(
            Scenario::resolve("ptycho").unwrap().id,
            "aps-u-ptychography"
        );
        let err = Scenario::resolve("nonexistent").unwrap_err();
        assert!(err.contains("known ids"), "{err}");
        let ambiguous = Scenario::resolve("scattering").unwrap_err();
        assert!(ambiguous.contains("ambiguous"), "{ambiguous}");
    }

    #[test]
    fn resolve_suggests_the_nearest_known_name_for_typos() {
        // One edit away from the "lcls" alias (ties keep the earliest).
        let err = Scenario::resolve("lcls3").unwrap_err();
        assert!(err.contains("did you mean \"lcls\"?"), "{err}");
        // Two edits away from the "deleria-frib" id.
        let err = Scenario::resolve("deleria-frab").unwrap_err();
        assert!(err.contains("did you mean \"deleria-frib\"?"), "{err}");
        // Far from everything: no suggestion, but the catalog still lists.
        let err = Scenario::resolve("atlantis").unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
        assert!(err.contains("known ids"), "{err}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("lcls3", "lcls2"), 1);
        assert_eq!(
            nearest_within("lcls3", ["aps", "lcls2", "lcls"].into_iter(), 2),
            Some("lcls2")
        );
        assert_eq!(
            nearest_within("zzzzz", ["aps", "lcls2"].into_iter(), 2),
            None
        );
    }

    #[test]
    fn streaming_scenarios_favor_remote() {
        // The facilities the paper holds up as streaming successes should
        // come out as remote-streaming wins under their assumptions.
        for id in [
            "aps-tomography",
            "deleria-frib",
            "aps-u-ptychography",
            "lhc-hlt-stream",
        ] {
            let s = Scenario::by_id(id).unwrap();
            assert_eq!(
                decide(&s.params).decision,
                Decision::RemoteStream,
                "{id} should favor streaming"
            );
        }
    }

    #[test]
    fn transfer_bound_scenarios_stay_local() {
        // High-volume, low-intensity workloads should keep processing at
        // the instrument: shipping the data costs more than it buys.
        for id in ["ska-low-pathfinder", "climate-checkpoint-stream"] {
            let s = Scenario::by_id(id).unwrap();
            assert_eq!(
                decide(&s.params).decision,
                Decision::Local,
                "{id} should stay local"
            );
        }
    }

    #[test]
    fn specs_round_trip_through_build() {
        for spec in Scenario::registry() {
            let built = spec.build().expect("registry spec builds");
            let back = built.spec();
            assert_eq!(spec.id, back.id);
            assert!(
                (spec.data_unit_gb - back.data_unit_gb).abs() < 1e-9 * spec.data_unit_gb.max(1.0)
            );
            assert!((spec.alpha - back.alpha).abs() < 1e-12);
            assert!((spec.theta - back.theta).abs() < 1e-12);
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut bad = Scenario::registry().remove(0);
        bad.alpha = 1.5;
        assert!(bad.build().is_err());

        let mut empty_id = Scenario::registry().remove(0);
        empty_id.id = String::new();
        assert_eq!(empty_id.build().unwrap_err().parameter, "id");
    }
}
