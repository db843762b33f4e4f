//! Integration coverage for the facility-scenario registry and the
//! parallel suite: serde round-trips, registry lookups, and determinism
//! of the parallel fan-out.

use stream_score::prelude::*;
use stream_score::units::{Bytes, TimeDelta};

/// A trimmed configuration so the full 13-scenario matrix stays fast in
/// debug test runs: one congestion level, tiny probe volumes.
fn tiny_config(seed: u64) -> SuiteConfig {
    let mut config = SuiteConfig::quick(seed);
    config.congestion_levels = vec![1];
    config.parallel_flows = 2;
    config.probe_wire_time = TimeDelta::from_millis(5.0);
    config.probe_floor = Bytes::from_mb(1.0);
    config.probe_ceiling = Bytes::from_mb(8.0);
    config.frames = 8;
    config.files = 4;
    config
}

#[test]
fn registry_round_trips_through_serde() {
    let registry = Scenario::registry();
    assert!(registry.len() >= 12, "catalog shrank to {}", registry.len());
    let json = serde_json::to_string(&registry).expect("serialize registry");
    let back: Vec<ScenarioSpec> = serde_json::from_str(&json).expect("deserialize registry");
    assert_eq!(registry, back, "specs must round-trip losslessly");
}

#[test]
fn every_registered_scenario_resolves_by_id() {
    for spec in Scenario::registry() {
        let s =
            Scenario::by_id(&spec.id).unwrap_or_else(|| panic!("{} not resolvable by id", spec.id));
        assert_eq!(s.id, spec.id);
        assert_eq!(s, spec.build().expect("registry spec builds"));
        s.params.validated().expect("scenario params valid");
    }
    assert!(Scenario::by_id("no-such-facility").is_none());
}

#[test]
fn scenarios_round_trip_through_specs() {
    for s in Scenario::all() {
        let rebuilt = s.spec().build().expect("spec rebuilds");
        assert_eq!(s.id, rebuilt.id);
        assert_eq!(s.tier, rebuilt.tier);
        // f64 → GB → f64 is exact for these magnitudes.
        assert_eq!(s.params, rebuilt.params);
    }
}

#[test]
fn full_bundled_suite_parallel_matches_sequential() {
    let suite = ScenarioSuite::bundled(tiny_config(7)).unwrap();
    let par = suite.run(&ThreadPool::new(4));
    let seq = suite.run(&ThreadPool::new(1));
    assert_eq!(par.len(), seq.len());
    assert_eq!(par.len(), Scenario::registry().len());
    // Bit-identical, not approximately equal: same seeds, same order.
    assert_eq!(par, seq);
    // And stable under a different worker count.
    let par8 = suite.run(&ThreadPool::new(8));
    assert_eq!(par, par8);
}

#[test]
fn suite_covers_model_netsim_and_iosim_per_scenario() {
    let suite = ScenarioSuite::bundled(tiny_config(42)).unwrap();
    let evals = suite.run(&ThreadPool::with_available_parallelism());
    for e in &evals {
        // Model: the analytic verdict is present and self-consistent.
        assert!(e.decision.t_local.as_secs() > 0.0, "{}", e.scenario.id);
        // Netsim: every configured congestion level was probed.
        assert_eq!(e.congestion.len(), suite.config().congestion_levels.len());
        for c in &e.congestion {
            assert!(c.sss >= 1.0, "{}: SSS {} < 1", e.scenario.id, c.sss);
            assert!(c.utilization > 0.0, "{}", e.scenario.id);
        }
        // Iosim: streaming never loses to the file path.
        assert!(
            e.io.streaming_completion_s <= e.io.file_completion_s + 1e-9,
            "{}: streaming {} vs file {}",
            e.scenario.id,
            e.io.streaming_completion_s,
            e.io.file_completion_s
        );
        assert!(e.io.theta_estimate.unwrap_or(1.0) >= 1.0 - 1e-9);
    }
}

#[test]
fn suite_evaluations_serialize() {
    let suite = ScenarioSuite::new(
        vec![Scenario::by_id("deleria-frib").unwrap()],
        tiny_config(3),
    )
    .unwrap();
    let evals = suite.run(&ThreadPool::new(1));
    let json = serde_json::to_string(&evals).expect("serialize evaluations");
    let back: Vec<ScenarioEvaluation> = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(evals, back);
}

#[test]
fn different_seeds_perturb_the_probes() {
    let scenarios = vec![Scenario::by_id("lcls-coherent-scattering").unwrap()];
    let a = ScenarioSuite::new(scenarios.clone(), tiny_config(1))
        .unwrap()
        .run(&ThreadPool::new(1));
    let b = ScenarioSuite::new(scenarios, tiny_config(2))
        .unwrap()
        .run(&ThreadPool::new(1));
    assert_ne!(
        a[0].congestion, b[0].congestion,
        "distinct suite seeds must yield distinct netsim probes"
    );
}

#[test]
fn summary_table_covers_the_catalog() {
    let suite = ScenarioSuite::bundled(tiny_config(42)).unwrap();
    let evals = suite.run(&ThreadPool::new(1));
    let table = summary_table(&evals);
    assert_eq!(table.len(), Scenario::registry().len());
    let text = table.to_text();
    for spec in Scenario::registry() {
        assert!(text.contains(&spec.id), "missing {} in table", spec.id);
    }
}
