//! Integration tests for the break-even frontier engine: boundary
//! physics, parallel/sequential byte-identity, refinement convergence,
//! and the `POST /frontier` HTTP round-trip.

use std::io::{Read, Write};
use std::net::TcpStream;

use stream_score::core::frontier::{Axis, FrontierMap, FrontierSpec};
use stream_score::prelude::*;
use stream_score::server::{Server, ServerConfig};

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

#[test]
fn boundary_is_monotone_along_the_feasibility_diagonal() {
    // The feasibility frontier sits at α·Bw = S: doubling the data volume
    // must double the bandwidth where the decision flips. The refined
    // boundary points must reproduce both the monotonicity and the slope.
    let map = spec(16).compute(&lcls());
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

#[test]
fn parallel_output_is_byte_identical_to_sequential() {
    let job = FrontierJob::new(lcls(), spec(12)).unwrap();
    let seq = job.spec().compute(job.base());
    for workers in [1, 4, 8] {
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
        let map = s.compute(&lcls());
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
        s.compute(&lcls()).evaluations
    };
    let fine = {
        let mut s = spec(10);
        s.tolerance = 1e-4;
        s.compute(&lcls()).evaluations
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
    let local = job.spec().compute(job.base());
    assert_eq!(served.slices, local.slices);
    assert_eq!(served.evaluations, local.evaluations);

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
