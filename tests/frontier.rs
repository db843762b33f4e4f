//! Integration tests for the break-even frontier engine: boundary
//! physics, CI's two maps against their pinned digests, byte-identity
//! across worker counts, refinement convergence, and the
//! `POST /frontier` HTTP round-trip.

use std::io::{Read, Write};
use std::net::TcpStream;

use stream_score::loadgen::AlphaJitter;
use stream_score::prelude::*;
use stream_score::server::{Server, ServerConfig};

mod common;
use common::fnv1a64;

fn lcls() -> ModelParams {
    Scenario::by_id("lcls-coherent-scattering").unwrap().params
}

fn spec(resolution: usize) -> FrontierSpec {
    let mut spec = FrontierSpec::new(
        Axis::parse("wan_gbps:1:400").unwrap(),
        Axis::parse("data_gb:0.5:50").unwrap(),
    );
    spec.resolution = resolution;
    spec
}

/// The map of `spec` over LCLS-II on a pool of one: every row and edge in
/// order on the calling thread.
fn inline(spec: FrontierSpec) -> FrontierMap {
    FrontierJob::new(lcls(), spec)
        .unwrap()
        .run(&ThreadPool::new(1))
}

#[test]
fn boundary_is_monotone_along_the_feasibility_diagonal() {
    // The feasibility frontier sits at α·Bw = S: doubling the data volume
    // must double the bandwidth where the decision flips. The refined
    // boundary points must reproduce both the monotonicity and the slope.
    let map = inline(spec(16));
    let mut flips: Vec<(f64, f64)> = map.slices[0]
        .boundary
        .iter()
        .filter(|b| b.along_x && b.lower == Decision::Infeasible)
        .map(|b| (b.y, b.x))
        .collect();
    flips.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert!(
        flips.len() >= 4,
        "expected a feasibility frontier: {flips:?}"
    );
    for w in flips.windows(2) {
        assert!(w[1].1 > w[0].1, "x* must grow with volume: {flips:?}");
    }
    // Analytic check: x* = 8·S_gb/α Gbps (α = 0.8 for LCLS-II).
    for (y, x) in &flips {
        let expected = 8.0 * y / 0.8;
        assert!(
            (x - expected).abs() < 0.01 * expected + 0.5,
            "boundary at y={y} expected x*≈{expected}, got {x}"
        );
    }
}

/// CI's determinism-job maps: LCLS-II's coherent-scattering workload
/// (`lcls2`) over `wan_gbps:1:1000:log` × `data_gb:0.1:40:log`, and with
/// `three_d` the same map sliced twice along `remote_tflops:50:500` with
/// α-jitter (sd 0.05, 32 draws a cell). Everything else is the CLI's
/// default: resolution 24, tolerance 1e-3, seed 42.
fn ci_job(three_d: bool) -> FrontierJob {
    let mut spec = FrontierSpec::new(
        Axis::parse("wan_gbps:1:1000:log").unwrap(),
        Axis::parse("data_gb:0.1:40:log").unwrap(),
    );
    if three_d {
        spec.z = Some(Axis::parse("remote_tflops:50:500").unwrap());
        spec.slices = 2;
        spec.jitter = Some(AlphaJitter {
            sd: 0.05,
            samples: 32,
        });
    }
    FrontierJob::new(Scenario::resolve("lcls2").unwrap().params, spec).unwrap()
}

/// CI's two maps, pinned by absolute bytes: their grid cells and
/// boundary points, and the length and FNV-1a-64 digest of the serialized
/// `FrontierMap` (the `POST /frontier` body). Worker-count comparisons
/// hold the engine to itself; these hold its rows, edges, seeds and
/// verdicts to fixed bytes. Change a digest only when the frontier's
/// output changes on purpose.
#[test]
fn ci_maps_match_their_pinned_digests() {
    for (three_d, cells, boundary, len, digest) in [
        (false, 576, 49, 73_036, 0x41f1_fd96_67af_65ae),
        (true, 1152, 99, 144_413, 0x897f_f553_6d42_6e52),
    ] {
        let job = ci_job(three_d);
        for workers in [1, 2, 8] {
            let map = job.run(&ThreadPool::new(workers));
            let body = serde_json::to_string(&map).unwrap();
            let at = format!("3D {three_d}, {workers} workers");
            let slices = map.slices.iter();
            let cell_count: usize = slices
                .clone()
                .map(|s| s.cells.iter().flatten().count())
                .sum();
            let boundary_count: usize = slices.map(|s| s.boundary.len()).sum();
            assert_eq!(cell_count, cells, "{at}: cells");
            assert_eq!(boundary_count, boundary, "{at}: boundary points");
            assert_eq!(body.len(), len, "{at}: body length");
            assert_eq!(fnv1a64(body.as_bytes()), digest, "{at}: digest");
        }
    }
}

#[test]
fn parallel_output_is_byte_identical_to_sequential() {
    let job = FrontierJob::new(lcls(), spec(12)).unwrap();
    let seq = job.run(&ThreadPool::new(1));
    for workers in [2, 4, 8] {
        let par = job.run(&ThreadPool::new(workers));
        assert_eq!(par, seq, "{workers} workers changed the result");
        assert_eq!(
            serde_json::to_string(&par).unwrap(),
            serde_json::to_string(&seq).unwrap(),
            "{workers} workers changed the serialized bytes"
        );
    }
}

#[test]
fn refinement_converges_to_the_configured_tolerance() {
    for tolerance in [1e-2, 1e-3, 1e-4] {
        let mut s = spec(10);
        s.tolerance = tolerance;
        let map = inline(s.clone());
        let slice = &map.slices[0];
        assert!(!slice.boundary.is_empty());
        for b in &slice.boundary {
            let axis = if b.along_x { &s.x } else { &s.y };
            let tol_abs = tolerance * (axis.hi - axis.lo);
            assert!(
                b.width <= tol_abs || b.evaluations as usize >= s.max_bisections,
                "tolerance {tolerance}: bracket {} wider than {tol_abs}",
                b.width
            );
        }
        // Tighter tolerance must not be free: more bisection work.
        assert!(map.evaluations < map.dense_grid_equivalent);
    }
    // And the refinement budget grows as the tolerance shrinks.
    let coarse = {
        let mut s = spec(10);
        s.tolerance = 1e-2;
        inline(s).evaluations
    };
    let fine = {
        let mut s = spec(10);
        s.tolerance = 1e-4;
        inline(s).evaluations
    };
    assert!(fine > coarse);
}

/// One request over a fresh connection; returns (status, body).
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
fn http_frontier_round_trips_and_memoizes() {
    let server = Server::bind(ServerConfig {
        port: 0,
        workers: 4,
        cache_capacity: 256,
        max_batch: 8,
        ..ServerConfig::default()
    })
    .expect("bind server");
    let addr = server.local_addr();
    let handle = server.spawn();

    let request = r#"{"workload":{"data_gb":2.0,"intensity_tflop_per_gb":17.0,
        "local_tflops":10.0,"remote_tflops":340.0,"bandwidth_gbps":25.0,"alpha":0.8},
        "x":"wan_gbps:1:400","y":"data_gb:0.5:50","resolution":12}"#;
    let (status, body) = call(addr, "POST", "/frontier", request);
    assert_eq!(status, 200, "{body}");
    let served: FrontierMap = serde_json::from_str(&body).expect("frontier map parses");

    // The service must return exactly the cells the library computes.
    let mut spec = FrontierSpec::new(
        Axis::parse("wan_gbps:1:400").unwrap(),
        Axis::parse("data_gb:0.5:50").unwrap(),
    );
    spec.resolution = 12;
    spec.tolerance = 1e-3;
    let job = FrontierJob::new(lcls(), spec).unwrap();
    let local = job.run(&ThreadPool::new(1));
    assert_eq!(served.slices, local.slices);
    assert_eq!(served.evaluations, local.evaluations);
    for workers in [2, 8] {
        let par = job.run(&ThreadPool::new(workers));
        assert_eq!(par, local, "{workers} workers");
    }

    // A repeat of the same query is answered from the memoized body cache
    // with identical bytes.
    let (status, again) = call(addr, "POST", "/frontier", request);
    assert_eq!(status, 200);
    assert_eq!(body, again, "cache hit must serve the miss's bytes");
    let (_, health) = call(addr, "GET", "/healthz", "");
    assert!(
        health.contains("\"frontier_cache\""),
        "healthz exposes frontier cache: {health}"
    );
    let health: stream_score::server::Health = serde_json::from_str(&health).unwrap();
    // Each request counts one lookup: the computed body a miss, the
    // repeat a hit.
    assert_eq!(health.frontier_cache.misses, 1);
    assert_eq!(health.frontier_cache.hits, 1);
    assert_eq!(health.frontier_cache.entries, 1);

    // Bad axes and oversized grids get 400s, not work.
    let (status, body) = call(
        addr,
        "POST",
        "/frontier",
        &request.replace("wan_gbps:1:400", "parsecs:1:2"),
    );
    assert_eq!(status, 400);
    assert!(body.contains("unknown axis"), "{body}");
    let (status, body) = call(
        addr,
        "POST",
        "/frontier",
        &request.replace("\"resolution\":12", "\"resolution\":100000"),
    );
    assert_eq!(status, 400);
    assert!(body.contains("cap"), "{body}");
    let (status, _) = call(addr, "GET", "/frontier", "");
    assert_eq!(status, 405);

    handle.shutdown();
}

#[test]
fn concurrent_identical_frontier_requests_single_flight() {
    let server = Server::bind(ServerConfig {
        port: 0,
        workers: 2,
        cache_capacity: 64,
        max_batch: 8,
        ..ServerConfig::default()
    })
    .expect("bind server");
    let addr = server.local_addr();
    let handle = server.spawn();

    let request = r#"{"workload":{"data_gb":2.0,"intensity_tflop_per_gb":17.0,
        "local_tflops":10.0,"remote_tflops":340.0,"bandwidth_gbps":25.0,"alpha":0.8},
        "x":"wan_gbps:1:400","y":"data_gb:0.5:50","resolution":16}"#;
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let (status, body) = call(addr, "POST", "/frontier", request);
                    assert_eq!(status, 200);
                    body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "all concurrent answers identical");
    }
    // Single-flight: only one computation populated the cache.
    let (_, health) = call(addr, "GET", "/healthz", "");
    let health: stream_score::server::Health = serde_json::from_str(&health).unwrap();
    assert_eq!(health.frontier_cache.entries, 1);
    handle.shutdown();
}

#[test]
fn three_d_frontier_slices_along_remote_compute() {
    let mut s = spec(8);
    s.z = Some(Axis::parse("remote_tflops:20:2000:log").unwrap());
    s.slices = 3;
    let job = FrontierJob::new(lcls(), s).unwrap();
    let map = job.run(&ThreadPool::new(4));
    assert_eq!(map.slices.len(), 3);
    // Faster remote machines can only grow the streaming regime.
    let fractions: Vec<f64> = map.slices.iter().map(|s| s.stream_fraction).collect();
    assert!(fractions[0] <= fractions[2], "{fractions:?}");
}
