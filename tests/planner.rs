//! The tier planner on the committed congestion curve: every catalog
//! scenario at every tier, pinned by the bytes of its serialized plans.

use stream_score::core::{plan_for_tier, Plan};
use stream_score::prelude::*;

mod common;
use common::fnv1a64;

const TIERS: [Tier; 4] = [
    Tier::RealTime,
    Tier::NearRealTime,
    Tier::QuasiRealTime,
    Tier::Offline,
];

/// `results/fig2a_curve.json`, the curve `stream-score plan` compiles in.
fn committed_curve() -> CongestionCurve {
    let text = include_str!("../results/fig2a_curve.json");
    let points: Vec<(f64, f64)> = serde_json::from_str(text).unwrap();
    CongestionCurve::from_points(points).unwrap()
}

/// The 13 catalog scenarios × 4 tiers, scenario by scenario, serialized
/// whole. Change the pin only when the planner's bytes change on purpose.
#[test]
fn catalog_plans_match_their_pinned_digest() {
    let curve = committed_curve();
    let scenarios = Scenario::all();
    assert_eq!(scenarios.len(), 13);
    let plans: Vec<Option<Plan>> = scenarios
        .iter()
        .flat_map(|s| TIERS.map(|tier| plan_for_tier(&s.params, &curve, tier)))
        .collect();
    assert_eq!(plans.iter().filter(|p| p.is_none()).count(), 13, "Offline");

    // The set covers both bandwidth searches: upward for a workload that
    // misses its tier, downward (the headroom) for one that meets it.
    let at = |id: &str, tier: Tier| {
        let s = scenarios.iter().position(|s| s.id == id).unwrap();
        let t = TIERS.iter().position(|&t| t == tier).unwrap();
        plans[s * TIERS.len() + t].unwrap()
    };
    let tier1 = at("lcls-coherent-scattering", Tier::RealTime);
    assert!(!tier1.already_feasible);
    let need = tier1.min_bandwidth.unwrap().as_gbps();
    assert!((need - 60.535).abs() < 5e-4, "tier 1 needs {need} Gbps");
    let tier2 = at("lcls-coherent-scattering", Tier::NearRealTime);
    assert!(tier2.already_feasible);
    let headroom = tier2.min_bandwidth.unwrap().as_gbps();
    assert!(
        (headroom - 24.942).abs() < 5e-4,
        "tier 2 holds at {headroom} Gbps"
    );

    let json = serde_json::to_string(&plans).unwrap();
    assert_eq!(json.len(), 5854, "length");
    assert_eq!(fnv1a64(json.as_bytes()), 0x3d69_92c4_a6d3_80e6, "digest");
}

/// A planned link carries the workload's own stream: at every bandwidth a
/// catalog plan recommends, up for a missed tier or down for headroom,
/// `decide` does not call the stream `Infeasible`.
#[test]
fn every_planned_link_carries_the_stream() {
    let curve = committed_curve();
    for scenario in Scenario::all() {
        for tier in TIERS {
            let plan = plan_for_tier(&scenario.params, &curve, tier);
            let Some(link) = plan.and_then(|p| p.min_bandwidth) else {
                continue;
            };
            let mut params = scenario.params;
            params.bandwidth = link;
            assert_ne!(
                decide(&params).decision,
                Decision::Infeasible,
                "{} at {tier:?}: {} Gbps",
                scenario.id,
                link.as_gbps()
            );
        }
    }
}
