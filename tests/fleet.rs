//! End-to-end gates for the multi-tenant fleet simulator: CLI
//! round-trips in every output format, byte-identity across worker
//! counts and repeated seeds, the bursty and diurnal cells against their
//! golden CSVs, the benchmark cell, a light-load cell and four
//! 1000-session cells against their pinned digests, the shared `--seed`
//! flag-error contract, and the `POST /fleet` endpoint with its memoized
//! body cache surfaced in `/healthz`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;

use stream_score::server::{Health, Server, ServerConfig, ServerHandle};

mod common;
use common::fnv1a64;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stream-score"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A small fleet that still exercises contention: the full catalog at
/// load 6 over a 40 Gbps backbone with 3 DTN slots.
const QUICK: &[&str] = &[
    "fleet",
    "--sessions",
    "13",
    "--load",
    "6",
    "--wan",
    "40Gbps",
    "--slots",
    "3",
    "--seed",
    "7",
];

fn quick<'a>(extra: &'a [&'a str]) -> Vec<&'a str> {
    QUICK.iter().chain(extra).copied().collect()
}

#[test]
fn fleet_round_trips_in_every_format() {
    let (ok, text, _) = run(QUICK);
    assert!(ok);
    assert!(text.contains("mispredict rate"), "{text}");
    assert!(text.contains("makespan"), "{text}");

    let (ok, md, _) = run(&quick(&["--format", "md"]));
    assert!(ok);
    assert!(md.contains('|'), "markdown tables expected: {md}");

    let (ok, csv, _) = run(&quick(&["--format", "csv"]));
    assert!(ok);
    let mut lines = csv.lines();
    let header = lines.next().expect("csv header");
    assert!(
        header.starts_with("load,trace,policy,session,scenario"),
        "{header}"
    );
    assert_eq!(lines.count(), 13, "one row per session");
}

/// The default steady shape has no trace breakpoints; bursty and diurnal
/// traces make the integrator hold clipped sessions at floor caps, wake
/// them and run floor windows out, so every gate covers those too.
const SHAPES: [&str; 3] = ["steady", "bursty", "diurnal"];

#[test]
fn fleet_csv_is_byte_identical_across_workers_and_reruns() {
    for shape in SHAPES {
        let extra = ["--format", "csv", "--shape", shape];
        let base = quick(&extra);
        let (ok, one, _) = run(&[&base[..], &["--workers", "1"]].concat());
        assert!(ok);
        let (ok, eight, _) = run(&[&base[..], &["--workers", "8"]].concat());
        assert!(ok);
        let (ok, again, _) = run(&[&base[..], &["--workers", "8"]].concat());
        assert!(ok);
        assert!(one.lines().skip(1).all(|row| row.contains(shape)), "{one}");
        assert_eq!(one, eight, "{shape}: worker count must not change a byte");
        assert_eq!(
            eight, again,
            "{shape}: same seed must reproduce the same bytes"
        );
    }
}

/// The default bursty and diurnal cells, byte for byte against
/// committed output at both fidelities. The bursty cell's 52 sessions
/// hold 13 that are never clipped, whose movement replays the solo trace
/// laid out again from its draws, and 39 clipped ones, whose movement
/// replays their granted pieces. The diurnal cell holds sessions at floor
/// caps, wakes them and runs floor windows to their end on a shape whose
/// trace the integrator reads from its clear layout.
#[test]
fn bursty_fleet_matches_the_golden_csv() {
    for (shape, fidelity, golden) in [
        (
            "bursty",
            "fluid",
            include_str!("golden/fleet_bursty_seed42_fluid.csv"),
        ),
        (
            "bursty",
            "exact",
            include_str!("golden/fleet_bursty_seed42_exact.csv"),
        ),
        (
            "diurnal",
            "fluid",
            include_str!("golden/fleet_diurnal_seed42_fluid.csv"),
        ),
        (
            "diurnal",
            "exact",
            include_str!("golden/fleet_diurnal_seed42_exact.csv"),
        ),
    ] {
        let (ok, csv, stderr) = run(&[
            "fleet",
            "--shape",
            shape,
            "--seed",
            "42",
            "--format",
            "csv",
            "--fidelity",
            fidelity,
        ]);
        assert!(ok, "{stderr}");
        assert_eq!(csv, golden, "{shape}/{fidelity}");
    }
}

/// perfbench's `fleet_bursty` cell: 5000 bursty sessions through 128 DTN
/// slots on a 40 Gbps backbone, where about 126 flows share the WAN and
/// nearly all of them are clipped. The goldens above pin a 52-session,
/// 4-slot cell; this pins the contended regime the benchmark times, by
/// row count and an FNV-1a-64 digest of the CSV (0.96 MB, too big to
/// commit). Change the digest only when the fleet's bytes change on
/// purpose.
#[test]
fn the_benchmark_cell_matches_its_pinned_digest() {
    let (ok, csv, stderr) = run(&[
        "fleet",
        "--sessions",
        "5000",
        "--load",
        "512",
        "--slots",
        "128",
        "--wan",
        "40Gbps",
        "--shape",
        "bursty",
        "--policy",
        "fifo",
        "--fidelity",
        "fluid",
        "--frames",
        "16",
        "--seed",
        "1",
        "--format",
        "csv",
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(
        csv.lines().count(),
        5001,
        "a header and one row per session"
    );
    assert_eq!(csv.len(), 955_599);
    assert_eq!(fnv1a64(csv.as_bytes()), 0x63fe_b4ac_1918_4007);
}

/// A light-load bursty cell: 2000 sessions at load 8 through 128 slots
/// on a 400 Gbps backbone. Unlike the benchmark cell, its sessions read
/// their dips past the first 64 slots: some draw a later dip word inside
/// the integrator, and the unclipped ones (whose movement replays the
/// solo trace laid out from its dips) complete their draw in the replay.
/// Pinned like the benchmark cell, by rows, length and digest.
#[test]
fn the_light_load_cell_matches_its_pinned_digest() {
    let (ok, csv, stderr) = run(&[
        "fleet",
        "--sessions",
        "2000",
        "--load",
        "8",
        "--slots",
        "128",
        "--wan",
        "400Gbps",
        "--shape",
        "bursty",
        "--seed",
        "1",
        "--format",
        "csv",
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(
        csv.lines().count(),
        2001,
        "a header and one row per session"
    );
    assert_eq!(csv.len(), 357_212);
    assert_eq!(fnv1a64(csv.as_bytes()), 0x247f_4241_c8d9_fa69);
}

/// CI's 1000-session cell (load 64 through 32 slots on a 40 Gbps
/// backbone, seed 7) on the integrator's edge paths, pinned like the
/// benchmark cell: bursty under the two policies that admit out of
/// arrival order; outage, whose zero caps make the water level's scan
/// walk a frozen prefix past a flow admitted in the same step; and
/// diurnal, which wakes floored sessions, the one trace read that
/// searches by time.
#[test]
fn the_thousand_session_cells_match_their_pinned_digests() {
    for (shape, policy, len, digest) in [
        ("bursty", "fair-share", 195_414, 0xffbc_ec78_319e_a877),
        ("bursty", "priority", 193_007, 0x2b21_7d3a_a0f8_8bca),
        ("outage", "fifo", 191_732, 0xc6f5_eec5_66f0_4ac0),
        ("diurnal", "fifo", 191_707, 0x2291_9f41_3bb3_99de),
    ] {
        let (ok, csv, stderr) = run(&[
            "fleet",
            "--sessions",
            "1000",
            "--load",
            "64",
            "--slots",
            "32",
            "--wan",
            "40Gbps",
            "--shape",
            shape,
            "--policy",
            policy,
            "--seed",
            "7",
            "--format",
            "csv",
        ]);
        assert!(ok, "{shape}/{policy}: {stderr}");
        assert_eq!(csv.lines().count(), 1001, "{shape}/{policy}: rows");
        assert_eq!(csv.len(), len, "{shape}/{policy}: length");
        assert_eq!(fnv1a64(csv.as_bytes()), digest, "{shape}/{policy}: digest");
    }
}

#[test]
fn fleet_rejects_bad_flags_with_the_shared_message() {
    let (ok, _, stderr) = run(&["fleet", "--seed", "abc"]);
    assert!(!ok);
    assert!(stderr.contains("bad --seed \"abc\""), "{stderr}");

    let (ok, _, stderr) = run(&["fleet", "--load", "plenty"]);
    assert!(!ok);
    assert!(stderr.contains("bad --load \"plenty\""), "{stderr}");

    let (ok, _, stderr) = run(&["fleet", "--policy", "anarchy"]);
    assert!(!ok);
    assert!(stderr.contains("anarchy"), "{stderr}");

    let (ok, _, stderr) = run(&["fleet", "--sessions", "4", "--load", "-1"]);
    assert!(!ok);
    assert!(stderr.contains("load"), "{stderr}");

    let (ok, _, stderr) = run(&quick(&["--mode", "sequential", "--workers", "2"]));
    assert!(!ok);
    assert!(stderr.contains("unknown flag --mode for fleet"), "{stderr}");
}

#[test]
fn fleet_single_scenario_filter_runs() {
    let (ok, csv, stderr) = run(&[
        "fleet",
        "--scenario",
        "lcls-coherent-scattering",
        "--sessions",
        "4",
        "--seed",
        "3",
        "--format",
        "csv",
    ]);
    assert!(ok, "{stderr}");
    for line in csv.lines().skip(1) {
        assert!(line.contains("lcls-coherent-scattering"), "{line}");
    }
}

// ---------------------------------------------------------------------
// POST /fleet over a real socket.
// ---------------------------------------------------------------------

fn start(workers: usize) -> ServerHandle {
    let server = Server::bind(ServerConfig {
        port: 0,
        workers,
        cache_capacity: 64,
        max_batch: 16,
        ..ServerConfig::default()
    })
    .expect("bind server");
    server.spawn()
}

fn call(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .unwrap_or_default()
        .to_owned();
    (status, body)
}

#[test]
fn fleet_endpoint_round_trips_with_memoized_bodies() {
    let handle = start(2);
    let addr = handle.addr();

    let body = r#"{"sessions":13,"load":6.0,"wan_gbps":40.0,"slots":3,"seed":7}"#;
    let (status, first) = call(addr, "POST", "/fleet", body);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("\"records\""), "{first}");
    assert!(first.contains("\"scenarios\""), "{first}");
    assert!(first.contains("\"makespan_s\""), "{first}");

    // The repeat is served from the fleet body cache, byte-identically.
    let (status, second) = call(addr, "POST", "/fleet", body);
    assert_eq!(status, 200);
    assert_eq!(first, second, "cache hits must return the miss's bytes");

    let (status, health) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let h: Health = serde_json::from_str(&health).expect("health parses");
    // Each request counts one lookup: the computed body a miss, the
    // repeat a hit.
    assert_eq!(h.fleet_cache.misses, 1);
    assert_eq!(h.fleet_cache.hits, 1);
    assert_eq!(h.fleet_cache.entries, 1);

    handle.shutdown();
}

#[test]
fn fleet_endpoint_rejects_bad_requests() {
    let handle = start(1);
    let addr = handle.addr();

    let (status, body) = call(addr, "POST", "/fleet", "not json");
    assert_eq!(status, 400);
    assert!(body.contains("bad fleet request"), "{body}");

    let (status, body) = call(addr, "POST", "/fleet", r#"{"policy":"anarchy"}"#);
    assert_eq!(status, 400);
    assert!(body.contains("anarchy"), "{body}");

    let (status, body) = call(addr, "POST", "/fleet", r#"{"shape":"tsunami"}"#);
    assert_eq!(status, 400);
    assert!(body.contains("tsunami"), "{body}");

    let (status, body) = call(addr, "POST", "/fleet", r#"{"wan_gbps":-1.0}"#);
    assert_eq!(status, 400);
    assert!(!body.is_empty());

    // Oversized fleets are capped with a clear message, not a hang.
    let (status, body) = call(addr, "POST", "/fleet", r#"{"sessions":100000}"#);
    assert_eq!(status, 400);
    assert!(body.contains("cap"), "{body}");

    // Unsupported methods are 405, never 404.
    let (status, body) = call(addr, "GET", "/fleet", "");
    assert_eq!(status, 405);
    assert!(body.contains("not allowed"), "{body}");

    handle.shutdown();
}

/// The session cap is a service knob, not a constant: a server sized
/// with a smaller `fleet_session_cap` rejects fleets right above it,
/// serves fleets right at it, and reports the configured value on
/// `/healthz`.
#[test]
fn fleet_session_cap_is_configurable_and_reported() {
    let server = Server::bind(ServerConfig {
        port: 0,
        workers: 1,
        cache_capacity: 64,
        max_batch: 16,
        fleet_session_cap: 8,
        ..ServerConfig::default()
    })
    .expect("bind server");
    let handle = server.spawn();
    let addr = handle.addr();

    let (status, body) = call(addr, "POST", "/fleet", r#"{"sessions":9}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("cap") && body.contains('8'), "{body}");

    let (status, body) = call(addr, "POST", "/fleet", r#"{"sessions":8,"load":2.0}"#);
    assert_eq!(status, 200, "{body}");

    let (status, health) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let h: Health = serde_json::from_str(&health).expect("health parses");
    assert_eq!(h.fleet_session_cap, 8);

    handle.shutdown();
}

/// The served fleet bytes are independent of the server's worker count:
/// the fleet engine position-seeds every stream, so `--workers 1` and
/// `--workers 8` servers answer the same request identically.
#[test]
fn fleet_endpoint_bytes_identical_across_worker_counts() {
    let body = r#"{"sessions":8,"load":4.0,"policy":"priority","seed":11}"#;
    let serve = |workers: usize| -> String {
        let handle = start(workers);
        let (status, response) = call(handle.addr(), "POST", "/fleet", body);
        assert_eq!(status, 200, "{response}");
        handle.shutdown();
        response
    };
    assert_eq!(serve(1), serve(8), "worker count must not change a byte");
}
