//! Ablation of the simulator's transport design choices: which TCP
//! mechanics produce the paper's tail behaviour?
//!
//! Runs the same congested batch (8 × 0.5 GB simultaneous clients for
//! 3 s on the Table 1 testbed; 8 × 100 MB for 2 s under `SSS_QUICK`, the
//! values the quick Table 2 grid shrinks to), at the run's master seed
//! (`SSS_SEED`), under combinations of congestion-control algorithm
//! (Reno vs CUBIC), HyStart on/off, and bottleneck queue discipline
//! (drop-tail vs RED), reporting worst/mean completion time, drops and
//! retransmissions.

use sss_loadgen::{Experiment, SpawnStrategy};
use sss_netsim::{CongestionAlgo, Qdisc, SimConfig};
use sss_report::{CsvWriter, Table};
use sss_units::Bytes;

use crate::context::{fmt_s, Context};

/// The congested batch every ablation cell runs, at the testbed defaults
/// and the run's master seed.
fn batch(quick: bool, seed: u64) -> Experiment {
    let (duration_s, bytes_per_client) = if quick {
        (2, Bytes::from_mb(100.0))
    } else {
        (3, Bytes::from_gb(0.5))
    };
    Experiment {
        config: SimConfig::paper_testbed(),
        duration_s,
        concurrency: 8,
        parallel_flows: 2,
        bytes_per_client,
        strategy: SpawnStrategy::Simultaneous,
        start_jitter: 0.002,
        seed,
    }
}

fn run_cell(
    batch: &Experiment,
    algo: CongestionAlgo,
    hystart: bool,
    red: bool,
) -> (f64, f64, u64, u64, u64) {
    let mut cfg = batch.config;
    cfg.tcp.algo = algo;
    cfg.tcp.hystart = hystart;
    if red {
        let buffer = cfg.bottleneck.buffer.as_b();
        cfg.bottleneck.qdisc = Qdisc::Red {
            min_th: buffer * 0.15,
            max_th: buffer * 0.5,
            max_p: 0.1,
            weight: 0.002,
        };
    }
    let r = Experiment {
        config: cfg,
        ..*batch
    }
    .run();
    let worst = r
        .worst_transfer_time()
        .map(|t| t.as_secs())
        .unwrap_or(f64::NAN);
    let mean = r.tail().map(|t| t.mean).unwrap_or(f64::NAN);
    let drops = r.report.bottleneck.dropped_pkts;
    let early = r.report.bottleneck.early_drops;
    let retx: u64 = r
        .report
        .flows
        .iter()
        .map(|f| f.tcp.bytes_retransmitted)
        .sum();
    (worst, mean, drops, early, retx)
}

pub(crate) fn run(ctx: &Context) {
    let batch = batch(ctx.quick, ctx.seed);
    let mut table = Table::new([
        "algo", "hystart", "qdisc", "worst", "mean", "drops", "early", "retx MB",
    ])
    .with_title(format!(
        "TCP design ablation: {}×{} GB simultaneous batches ({:.0}% offered) for {} s",
        batch.concurrency,
        batch.bytes_per_client.as_gb(),
        batch.offered_load().value() * 100.0,
        batch.duration_s
    ));
    let mut csv = CsvWriter::new([
        "algo",
        "hystart",
        "qdisc",
        "worst_s",
        "mean_s",
        "drops",
        "early_drops",
        "retx_bytes",
    ]);

    for (algo, name) in [
        (CongestionAlgo::Cubic, "cubic"),
        (CongestionAlgo::Reno, "reno"),
    ] {
        for hystart in [true, false] {
            for red in [false, true] {
                eprintln!("running {name} hystart={hystart} red={red}...");
                let (worst, mean, drops, early, retx) = run_cell(&batch, algo, hystart, red);
                let qdisc = if red { "RED" } else { "drop-tail" };
                table.row([
                    name.to_string(),
                    hystart.to_string(),
                    qdisc.to_string(),
                    fmt_s(worst),
                    fmt_s(mean),
                    drops.to_string(),
                    early.to_string(),
                    format!("{:.0}", retx as f64 / 1e6),
                ]);
                csv.row([
                    name.to_string(),
                    hystart.to_string(),
                    qdisc.to_string(),
                    worst.to_string(),
                    mean.to_string(),
                    drops.to_string(),
                    early.to_string(),
                    retx.to_string(),
                ]);
            }
        }
    }

    println!("{}", table.to_text());
    println!(
        "readings: HyStart trims the slow-start overshoot (fewer drops); CUBIC recovers \
         the window faster than Reno after loss; RED trades a few early drops for a \
         shorter standing queue."
    );
    csv.write_to(&ctx.out("ablation_tcp.csv"))
        .expect("write ablation_tcp.csv");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_batch_carries_the_seed_it_is_given() {
        for quick in [false, true] {
            for seed in [0, 7, 42, u64::MAX] {
                assert_eq!(batch(quick, seed).seed, seed);
            }
        }
    }
}
