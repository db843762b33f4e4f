//! E-X5 — decision-service scaling: closed-loop `/decide` throughput vs
//! worker count, the memoized decision cache against the uncached
//! baseline, and the connection-ramp sweep measuring the epoll reactor's
//! open-connection ceiling.
//!
//! Each cell starts a fresh in-process `sss-server` on an OS-assigned
//! port, drives it with the `sss-loadgen` event-loop load driver (8
//! connections for throughput, thousands for the ceiling sweep), and
//! tears it down. Results render as tables and persist as CSV + JSON
//! under `results/`. Honors `SSS_SEED` and `SSS_QUICK` like the other
//! regenerators.

use serde::Serialize;
use sss_loadgen::{run_http_load, HttpLoadSpec};
use sss_report::{write_json, CsvWriter, Table};
use sss_server::{Server, ServerConfig};

use crate::context::Context;

/// One measured cell of any of the three experiments.
#[derive(Debug, Clone, Serialize)]
struct Cell {
    experiment: &'static str,
    workers: usize,
    cache_capacity: usize,
    distinct_workloads: usize,
    /// Target connection count.
    connections: usize,
    /// Simultaneously-open connections actually reached.
    opened: usize,
    requests: u64,
    errors: u64,
    throughput_rps: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Start a fresh server sized `(workers, cache_capacity)`, drive it with
/// `connections` × `requests_per_conn` closed-loop requests, and collapse
/// the outcome into a [`Cell`].
fn measure(
    seed: u64,
    experiment: &'static str,
    workers: usize,
    cache_capacity: usize,
    connections: usize,
    requests_per_conn: usize,
    distinct_workloads: usize,
) -> Cell {
    // A generous idle window: on a loaded single-core CI box a large ramp
    // can take tens of seconds, and the early connections sit quiet until
    // the serve phase begins. Reaping them would measure the timeout, not
    // the ceiling.
    let server = Server::bind(ServerConfig {
        port: 0,
        workers,
        cache_capacity,
        max_batch: 32,
        idle_timeout_ticks: 1200,
        ..ServerConfig::default()
    })
    .expect("bind in-process server");
    let spec = HttpLoadSpec {
        addr: server.local_addr().to_string(),
        connections,
        requests_per_conn,
        distinct_workloads,
        seed,
    };
    let handle = server.spawn();
    let report = run_http_load(&spec).expect("load run completes");
    // Snapshot cache counters after the run so the probe itself does not
    // perturb the request count.
    let health = fetch_health(&spec.addr);
    handle.shutdown();

    Cell {
        experiment,
        workers,
        cache_capacity,
        distinct_workloads,
        connections,
        opened: report.opened,
        requests: report.ok + report.errors,
        errors: report.errors,
        throughput_rps: report.throughput_rps,
        p50_ms: report.latency.p50 * 1e3,
        p90_ms: report.latency.p90 * 1e3,
        p99_ms: report.latency.p99 * 1e3,
        max_ms: report.latency.max * 1e3,
        cache_hits: health.cache.hits,
        cache_misses: health.cache.misses,
    }
}

/// One throwaway `/healthz` round-trip for the cache counters.
fn fetch_health(addr: &str) -> sss_server::Health {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect for healthz");
    write!(stream, "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n").expect("send healthz");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read healthz response");
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .expect("healthz response has a body");
    serde_json::from_str(body).expect("healthz body parses")
}

pub(crate) fn run(ctx: &Context) {
    let (conns, per_conn) = if ctx.quick { (4, 50) } else { (8, 500) };
    let worker_counts = [1usize, 2, 4, 8];

    // Experiment A: throughput vs worker count, cache-hostile mix (more
    // distinct workloads than total requests would ever repeat cheaply).
    eprintln!("scaling: {conns} connections × {per_conn} requests per cell...");
    let hostile_pool = 256;
    let scaling: Vec<Cell> = worker_counts
        .iter()
        .map(|&w| measure(ctx.seed, "workers", w, 0, conns, per_conn, hostile_pool))
        .collect();

    // Experiment B: memoized cache vs uncached baseline on a repetitive
    // facility mix (8 distinct questions asked over and over).
    let repeat_pool = 8;
    let cached: Vec<Cell> = [0usize, 4096]
        .iter()
        .map(|&cap| measure(ctx.seed, "cache", 4, cap, conns, per_conn, repeat_pool))
        .collect();

    // Experiment C: connection-ramp sweep — the reactor's open-connection
    // ceiling. It rides to 8000 held sockets (5000+ even in quick mode,
    // pinning the C10k-path acceptance).
    let ramp_sizes: &[usize] = if ctx.quick {
        &[256, 5000]
    } else {
        &[1000, 5000, 8000]
    };
    eprintln!("ramp: reactor to {ramp_sizes:?} connections...");
    let ramp: Vec<Cell> = ramp_sizes
        .iter()
        .map(|&n| measure(ctx.seed, "ramp", 2, 4096, n, 2, 8))
        .collect();

    let mut scaling_table =
        Table::new(["workers", "req/s", "p50 ms", "p90 ms", "p99 ms", "max ms"]).with_title(
            "Decision-service throughput vs worker count (uncached, 256 distinct workloads)",
        );
    for c in &scaling {
        scaling_table.row([
            c.workers.to_string(),
            format!("{:.0}", c.throughput_rps),
            format!("{:.3}", c.p50_ms),
            format!("{:.3}", c.p90_ms),
            format!("{:.3}", c.p99_ms),
            format!("{:.3}", c.max_ms),
        ]);
    }
    println!("{}", scaling_table.to_text());

    let mut cache_table = Table::new([
        "cache", "req/s", "p50 ms", "p90 ms", "p99 ms", "hits", "misses",
    ])
    .with_title("Memoized decision cache vs uncached baseline (4 workers, 8 distinct workloads)");
    for c in &cached {
        cache_table.row([
            if c.cache_capacity == 0 {
                "off".to_string()
            } else {
                format!("{} entries", c.cache_capacity)
            },
            format!("{:.0}", c.throughput_rps),
            format!("{:.3}", c.p50_ms),
            format!("{:.3}", c.p90_ms),
            format!("{:.3}", c.p99_ms),
            c.cache_hits.to_string(),
            c.cache_misses.to_string(),
        ]);
    }
    println!("{}", cache_table.to_text());

    let uncached = &cached[0];
    let memoized = &cached[1];
    println!(
        "cache speedup on the repetitive mix: {:.2}× throughput ({:.0} vs {:.0} req/s)",
        memoized.throughput_rps / uncached.throughput_rps,
        memoized.throughput_rps,
        uncached.throughput_rps
    );

    let mut ceiling_table = Table::new([
        "target conns",
        "open ceiling",
        "errors",
        "req/s",
        "p50 ms",
        "p90 ms",
        "p99 ms",
    ])
    .with_title("Connection-ramp sweep: simultaneously-held keep-alive sockets");
    for c in &ramp {
        ceiling_table.row([
            c.connections.to_string(),
            c.opened.to_string(),
            c.errors.to_string(),
            format!("{:.0}", c.throughput_rps),
            format!("{:.3}", c.p50_ms),
            format!("{:.3}", c.p90_ms),
            format!("{:.3}", c.p99_ms),
        ]);
    }
    println!("{}", ceiling_table.to_text());

    if let Some(best) = ramp.iter().max_by_key(|c| c.opened) {
        println!(
            "reactor ceiling this run: {} simultaneously-open connections ({} errors)",
            best.opened, best.errors
        );
    }

    let mut csv = CsvWriter::new([
        "experiment",
        "workers",
        "cache_capacity",
        "distinct_workloads",
        "connections",
        "opened",
        "requests",
        "errors",
        "throughput_rps",
        "p50_ms",
        "p90_ms",
        "p99_ms",
        "max_ms",
        "cache_hits",
        "cache_misses",
    ]);
    for c in scaling.iter().chain(&cached).chain(&ramp) {
        csv.row([
            c.experiment.to_string(),
            c.workers.to_string(),
            c.cache_capacity.to_string(),
            c.distinct_workloads.to_string(),
            c.connections.to_string(),
            c.opened.to_string(),
            c.requests.to_string(),
            c.errors.to_string(),
            format!("{}", c.throughput_rps),
            format!("{}", c.p50_ms),
            format!("{}", c.p90_ms),
            format!("{}", c.p99_ms),
            format!("{}", c.max_ms),
            c.cache_hits.to_string(),
            c.cache_misses.to_string(),
        ]);
    }
    let csv_path = ctx.out("server_scaling.csv");
    csv.write_to(&csv_path).expect("write server_scaling.csv");
    let json_path = ctx.out("server_scaling.json");
    let all: Vec<&Cell> = scaling.iter().chain(&cached).chain(&ramp).collect();
    write_json(&json_path, &all).expect("write server_scaling.json");
    eprintln!("wrote {} and {}", csv_path.display(), json_path.display());
}
