//! Golden-byte tests for the reactor front end.
//!
//! Every response the reactor writes must be exactly
//! [`write_response`] applied to the body the library computes for the
//! same request: the 200 routes are compared against `DecideResponse`,
//! `TiersResponse`, the frontier job, the session replay and the scenario
//! catalog evaluated in-process, and the error paths against their status
//! code plus the same framing of the body that was served. The remaining
//! tests exercise the reactor machinery (pipelining, split reads,
//! oversized-header rejection, idle timeouts, the connection cap, and
//! shutdown promptness).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use stream_score::exec::ThreadPool;
use stream_score::server::http::write_response;
use stream_score::server::{
    DecideRequest, DecideResponse, FrontierRequest, ScenariosResponse, Server, ServerConfig,
    ServerHandle, SimulateRequest, TiersResponse,
};
use stream_score::units::Ratio;

const TABLE3: &str = r#"{"data_gb":2.0,"intensity_tflop_per_gb":17.0,"local_tflops":10.0,
    "remote_tflops":340.0,"bandwidth_gbps":25.0,"alpha":0.8}"#;

fn start_with(tweak: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig {
        port: 0,
        workers: 2,
        cache_capacity: 64,
        max_batch: 8,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    Server::bind(config).expect("bind server").spawn()
}

fn start() -> ServerHandle {
    start_with(|_| {})
}

/// One request over a fresh connection; returns the complete raw
/// response (status line, headers, and body) exactly as it hit the wire.
fn call_raw(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// The wire bytes of a closing response carrying `body`.
fn framed(status: u16, body: &str) -> String {
    let mut out = Vec::new();
    write_response(&mut out, status, body.as_bytes(), false).expect("encode into a Vec");
    String::from_utf8(out).expect("UTF-8 response")
}

/// Status code and body of a raw response.
fn split_response(raw: &str) -> (u16, &str) {
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    (status, body)
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("response serializes")
}

/// What one request in the mix must draw.
enum Expected {
    /// A 200 carrying exactly this library-computed body.
    Body(String),
    /// An error response with this status.
    Status(u16),
}

/// The fixed request mix: all four compute routes plus the catalog, each
/// with its golden body, then the routing and validation error paths.
fn request_mix() -> Vec<(&'static str, &'static str, String, Expected)> {
    let pool = ThreadPool::new(2);
    let workload: DecideRequest = serde_json::from_str(TABLE3).expect("table 3 parses");
    let params = workload.params().expect("table 3 is valid");
    let decide = json(&DecideResponse::evaluate(&params));
    let tiers = format!(r#"{{"workload":{TABLE3},"sss":7.5}}"#);
    let frontier = format!(
        r#"{{"workload":{TABLE3},"x":"wan_gbps:1:100","y":"data_tb:0.1:10","resolution":8}}"#
    );
    let frontier_body = {
        let request: FrontierRequest = serde_json::from_str(&frontier).expect("frontier parses");
        json(&request.job().expect("frontier job").run(&pool))
    };
    let simulate =
        format!(r#"{{"workload":{TABLE3},"shapes":["steady","outage"],"frames":16,"files":4}}"#);
    let simulate_body = {
        let request: SimulateRequest = serde_json::from_str(&simulate).expect("simulate parses");
        json(&request.replay().expect("replay").run(&pool))
    };
    vec![
        (
            "POST",
            "/decide",
            TABLE3.to_owned(),
            Expected::Body(decide.clone()),
        ),
        (
            "POST",
            "/tiers",
            tiers,
            Expected::Body(json(&TiersResponse::evaluate(&params, Ratio::new(7.5)))),
        ),
        ("POST", "/frontier", frontier, Expected::Body(frontier_body)),
        ("POST", "/simulate", simulate, Expected::Body(simulate_body)),
        // Repeat of the first body: exercises the cache-hit path too.
        ("POST", "/decide", TABLE3.to_owned(), Expected::Body(decide)),
        (
            "GET",
            "/scenarios",
            String::new(),
            Expected::Body(json(&ScenariosResponse::bundled())),
        ),
        (
            "POST",
            "/decide",
            "not json".to_owned(),
            Expected::Status(400),
        ),
        (
            "POST",
            "/decide",
            TABLE3.replace("\"alpha\":0.8", "\"alpha\":1.4"),
            Expected::Status(400),
        ),
        (
            "GET",
            "/no-such-endpoint",
            String::new(),
            Expected::Status(404),
        ),
        ("GET", "/decide", String::new(), Expected::Status(405)),
        ("DELETE", "/healthz", String::new(), Expected::Status(405)),
    ]
}

/// The front end adds nothing but framing: every raw response — status
/// line, headers, and body — is the library's own answer, framed by
/// `write_response`.
#[cfg(target_os = "linux")]
#[test]
fn responses_match_golden_bytes() {
    let handle = start();
    for (i, (method, path, body, expected)) in request_mix().into_iter().enumerate() {
        let raw = call_raw(handle.addr(), method, path, &body);
        let (status, served) = split_response(&raw);
        match expected {
            Expected::Body(golden) => {
                assert_eq!(raw, framed(200, &golden), "request {i} ({method} {path})");
            }
            Expected::Status(code) => {
                assert_eq!(status, code, "request {i} ({method} {path}): {raw}");
                assert!(served.contains("\"error\""), "request {i}: {served}");
                assert_eq!(raw, framed(code, served), "request {i} ({method} {path})");
            }
        }
    }
    handle.shutdown();
}

/// `/healthz` reports how many connections the reactor currently holds.
#[cfg(target_os = "linux")]
#[test]
fn healthz_counts_connections() {
    let handle = start();
    let raw = call_raw(handle.addr(), "GET", "/healthz", "");
    let (status, body) = split_response(&raw);
    assert_eq!(status, 200, "{raw}");
    let health: stream_score::server::Health = serde_json::from_str(body).expect("health parses");
    // The probing connection itself is open while the body renders.
    assert!(health.open_connections >= 1, "{}", health.open_connections);
    handle.shutdown();
}

/// Several requests written back-to-back in one TCP segment come back as
/// the same number of responses, in order (HTTP/1.1 pipelining).
#[cfg(target_os = "linux")]
#[test]
fn pipelined_requests_answered_in_order() {
    let handle = start();
    let reference = call_raw(handle.addr(), "POST", "/decide", TABLE3);
    let reference_body = reference.split("\r\n\r\n").nth(1).expect("body");

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let one = format!(
        "POST /decide HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
        TABLE3.len(),
        TABLE3
    );
    let last = format!(
        "POST /decide HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
        TABLE3.len(),
        TABLE3
    );
    // Three requests in a single write: two keep-alive, one closing.
    let wire = format!("{one}{one}{last}");
    stream.write_all(wire.as_bytes()).expect("send pipeline");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read all");

    let statuses = response.matches("HTTP/1.1 200 OK").count();
    assert_eq!(statuses, 3, "{response}");
    assert_eq!(
        response.matches(reference_body).count(),
        3,
        "pipelined bodies must equal the fresh-connection body"
    );
    handle.shutdown();
}

/// A request trickled over the socket a few bytes at a time — split
/// mid-status-line, mid-header, and mid-body — still parses into the
/// same response.
#[cfg(target_os = "linux")]
#[test]
fn split_writes_reassemble() {
    let handle = start();
    let reference = call_raw(handle.addr(), "POST", "/decide", TABLE3);

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let wire = format!(
        "POST /decide HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
        TABLE3.len(),
        TABLE3
    );
    // 7-byte chunks with small pauses guarantee the reactor sees the
    // request in many reads, with every boundary class exercised.
    for chunk in wire.as_bytes().chunks(7) {
        stream.write_all(chunk).expect("send chunk");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert_eq!(response, reference);
    handle.shutdown();
}

/// A header line past the parser's limit draws `431 Request Header
/// Fields Too Large`, framed like every other closing response.
#[cfg(target_os = "linux")]
#[test]
fn oversized_header_draws_431() {
    let handle = start();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let huge = "x".repeat(16 * 1024);
    write!(
        stream,
        "POST /decide HTTP/1.1\r\nx-padding: {huge}\r\ncontent-length: 0\r\n\r\n"
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    handle.shutdown();
    let (status, body) = split_response(&response);
    assert_eq!(status, 431, "{response}");
    assert!(body.contains("request headers too large"), "{body}");
    assert_eq!(response, framed(431, body));
}

/// Garbage on the wire draws a `400` and a teardown, not a hang.
#[cfg(target_os = "linux")]
#[test]
fn malformed_request_draws_400_and_teardown() {
    let handle = start();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(b"not http at all\r\n\r\n").expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    handle.shutdown();
}

/// Regression for the stop-flag latch: a freshly started reactor with
/// zero clients must observe `shutdown()` within a couple of epoll
/// ticks, not hang in `epoll_wait` until a connection happens by.
#[cfg(target_os = "linux")]
#[test]
fn shutdown_is_prompt_with_no_clients() {
    let handle = start();
    #[expect(
        clippy::disallowed_methods,
        reason = "test wall-clock measures shutdown promptness, never sim state"
    )]
    let begun = Instant::now();
    handle.shutdown();
    let took = begun.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
}

/// Idle connections are retired after `idle_timeout_ticks` quiet epoll
/// ticks — the reactor's wall-clock-free idle timeout.
#[cfg(target_os = "linux")]
#[test]
fn idle_connections_time_out() {
    let handle = start_with(|config| {
        config.tick_ms = 10;
        config.idle_timeout_ticks = 5;
    });
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // Send nothing. The server must close the socket on its own.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut buf = [0u8; 16];
    let n = stream.read(&mut buf).expect("EOF, not a read timeout");
    assert_eq!(n, 0, "expected server-side close of the idle connection");
    handle.shutdown();
}

/// Connections beyond `max_connections` are dropped at accept while the
/// ones inside the cap keep working.
#[cfg(target_os = "linux")]
#[test]
fn connections_beyond_cap_are_dropped() {
    let handle = start_with(|config| {
        config.max_connections = 2;
    });
    let keep_a = TcpStream::connect(handle.addr()).expect("connect");
    let keep_b = TcpStream::connect(handle.addr()).expect("connect");
    // Give the reactor a beat to accept (and count) the first two.
    std::thread::sleep(Duration::from_millis(100));

    let mut over = TcpStream::connect(handle.addr()).expect("connect (backlog)");
    over.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut buf = [0u8; 16];
    // The over-cap socket is closed without a byte; a reset is equally
    // acceptable — what matters is that no response ever arrives.
    match over.read(&mut buf) {
        Ok(n) => assert_eq!(n, 0, "over-cap connection must not be served"),
        Err(e) => assert_ne!(
            e.kind(),
            std::io::ErrorKind::WouldBlock,
            "over-cap connection must be closed, not left hanging: {e}"
        ),
    }

    // The in-cap connections still serve requests.
    for stream in [keep_a, keep_b] {
        let mut stream = stream;
        write!(
            stream,
            "POST /decide HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
            TABLE3.len(),
            TABLE3
        )
        .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    }
    handle.shutdown();
}

/// The load driver holds a four-digit connection set open against the
/// reactor from one process, with every request answered. (CI's
/// `bench-smoke` job holds 5000 with `stream-score loadtest --clients
/// 5000 --requests 2`; this keeps the test suite fast while still
/// proving the mechanism end to end.)
#[cfg(target_os = "linux")]
#[test]
fn ramp_holds_a_thousand_connections() {
    let handle = start_with(|config| {
        config.cache_capacity = 4096;
    });
    let spec = stream_score::loadgen::HttpLoadSpec {
        addr: handle.addr().to_string(),
        connections: 1000,
        requests_per_conn: 2,
        distinct_workloads: 8,
        seed: 42,
    };
    let report = stream_score::loadgen::run_http_load(&spec).expect("ramp run");
    handle.shutdown();
    assert_eq!(report.opened, 1000, "reactor must accept the whole set");
    assert_eq!(report.completed, 1000);
    assert_eq!(report.ok, 2000);
    assert_eq!(report.errors, 0);
    assert!(report.latency.p99 >= report.latency.p50);
}
