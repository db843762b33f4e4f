//! E-T1 / E-T2 / E-T3 — print the paper's configuration tables as encoded
//! in this reproduction: Table 1 (testbed), Table 2 (experiment grid) and
//! Table 3 (LCLS-II workflows), each annotated with where the values live
//! in the codebase.

use sss_core::Scenario;
use sss_loadgen::{SpawnStrategy, SweepSpec};
use sss_netsim::SimConfig;
use sss_report::Table;

use crate::context::Context;

pub(crate) fn run(_: &Context) {
    let cfg = SimConfig::paper_testbed();
    let mut t1 = Table::new(["component", "specification", "encoded in"])
        .with_title("Table 1: experimental testbed configuration");
    t1.row([
        "Network interface".to_string(),
        format!("{}", cfg.bottleneck.rate),
        "SimConfig::paper_testbed().bottleneck.rate".into(),
    ]);
    t1.row([
        "MTU".to_string(),
        format!("9000 bytes (MSS {})", cfg.tcp.mss),
        "TcpConfig::JUMBO_MSS".into(),
    ]);
    t1.row([
        "Round-trip time".to_string(),
        format!("{}", cfg.base_rtt()),
        "access + bottleneck + ack propagation".into(),
    ]);
    t1.row([
        "Bottleneck buffer".to_string(),
        format!("{} (1×BDP)", cfg.bottleneck.buffer),
        "SimConfig::paper_testbed().bottleneck.buffer".into(),
    ]);
    t1.row([
        "TCP stack".to_string(),
        format!("{:?} + HyStart + SACK", cfg.tcp.algo),
        "TcpConfig{algo, hystart}".into(),
    ]);
    println!("{}", t1.to_text());

    let spec = SweepSpec::paper_grid(SpawnStrategy::Simultaneous, 1, 42);
    let mut t2 = Table::new(["parameter", "value/range", "description"])
        .with_title("Table 2: experimental configuration");
    t2.row([
        "Duration".to_string(),
        format!("{} s", spec.duration_s),
        "experiment duration".into(),
    ]);
    t2.row([
        "Concurrency".to_string(),
        format!(
            "{}-{}",
            spec.concurrency.first().unwrap(),
            spec.concurrency.last().unwrap()
        ),
        "simultaneous clients per second".into(),
    ]);
    t2.row([
        "Parallel flows".to_string(),
        format!("{:?}", spec.parallel_flows),
        "TCP flows per client".into(),
    ]);
    t2.row([
        "Transfer size".to_string(),
        format!("{}", spec.bytes_per_client),
        "data volume per client".into(),
    ]);
    t2.row([
        "Total experiments".to_string(),
        format!("{}", spec.cells()),
        "full parameter sweep".into(),
    ]);
    println!("{}", t2.to_text());

    let mut t3 = Table::new([
        "description",
        "throughput",
        "offline analysis",
        "feasibility",
    ])
    .with_title("Table 3: compute-intensive workflows at LCLS-II (2023, after 10× reduction)");
    for s in [
        Scenario::by_id("lcls-coherent-scattering").expect("registered"),
        Scenario::by_id("lcls-liquid-scattering").expect("registered"),
    ] {
        let work = s.params.intensity * s.params.data_unit;
        let verdict = sss_core::decide(&s.params).decision;
        t3.row([
            s.name.to_string(),
            format!(
                "{:.0} GB/s",
                s.params.required_stream_rate().as_gigabytes_per_sec()
            ),
            format!("{:.0} TF", work.as_tflop()),
            format!("{verdict:?} on {}", s.params.bandwidth),
        ]);
    }
    println!("{}", t3.to_text());
}
