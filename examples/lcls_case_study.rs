//! The paper's Section 5 case study end-to-end: evaluate the LCLS-II
//! Table 3 workflows against the latency tiers, with worst-case transfer
//! times coming from a live congestion measurement on the simulated
//! testbed (a reduced Figure 2(a) sweep) instead of hard-coded numbers.
//!
//! ```text
//! cargo run --release --example lcls_case_study
//! ```
//! (Release mode recommended: this runs real packet-level simulations.)

use stream_score::core::congestion::CongestionCurve;
use stream_score::prelude::*;

fn main() {
    // 1. Measure the congestion curve on the simulated 25 Gbps testbed:
    //    concurrency 1..8 batches of 0.5 GB clients, P = 8 flows each.
    //    (Reduced duration keeps the example snappy.)
    println!("measuring worst-case transfer inflation under congestion...");
    let mut spec = SweepSpec::paper_grid(SpawnStrategy::Simultaneous, 1, 42);
    spec.duration_s = 3;
    spec.parallel_flows = vec![8];
    let points = sweep(&spec, &ThreadPool::new(2));
    let curve =
        CongestionCurve::from_points(points.iter().map(|p| (p.utilization, p.sss())).collect())
            .expect("sweep yields a curve");
    for p in &points {
        println!(
            "  concurrency {}: utilization {:5.1}%  worst {:6.2}s  SSS {:5.1}",
            p.concurrency,
            p.utilization * 100.0,
            p.worst_transfer_s,
            p.sss()
        );
    }

    // 2. Push each LCLS-II workflow through the model at its utilization.
    for scenario in [
        Scenario::by_id("lcls-coherent-scattering").expect("registered"),
        Scenario::by_id("lcls-liquid-scattering").expect("registered"),
        Scenario::by_id("lcls-liquid-scattering-reduced").expect("registered"),
    ] {
        println!("\n=== {} ===", scenario.name);
        let p = &scenario.params;
        let verdict = decide(p);
        println!(
            "demand {} on {} (effective {})",
            verdict.required_rate, p.bandwidth, verdict.effective_rate
        );
        if verdict.decision == Decision::Infeasible {
            println!("verdict: INFEASIBLE — {}", verdict.reasons[0]);
            continue;
        }
        let util = p.required_stream_rate().as_bytes_per_sec() / p.bandwidth.as_bytes_per_sec();
        let sss = curve.sss_at(util);
        println!(
            "utilization {:.0}% → measured SSS {:.2}",
            util * 100.0,
            sss.value()
        );
        for tier in [Tier::RealTime, Tier::NearRealTime, Tier::QuasiRealTime] {
            let report = TierReport::evaluate(p, sss, tier).expect("budgeted tier");
            println!(
                "  {tier}: worst transfer {} leaves {} → {}",
                report.worst_transfer,
                report.compute_budget,
                if report.feasible { "OK" } else { "missed" }
            );
        }
    }
}
