//! Integration tests for the `sss-server` decision service: endpoint
//! round-trips over a real socket, cache accounting, and response
//! byte-identity across worker counts.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use stream_score::exec::ThreadPool;
use stream_score::server::{
    CacheStats, Health, Server, ServerConfig, ServerHandle, SimulateRequest,
};

fn start(workers: usize, cache_capacity: usize) -> ServerHandle {
    let server = Server::bind(ServerConfig {
        port: 0,
        workers,
        cache_capacity,
        max_batch: 16,
        ..ServerConfig::default()
    })
    .expect("bind server");
    server.spawn()
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

const TABLE3: &str = r#"{"data_gb":2.0,"intensity_tflop_per_gb":17.0,"local_tflops":10.0,
    "remote_tflops":340.0,"bandwidth_gbps":25.0,"alpha":0.8}"#;

fn health(addr: std::net::SocketAddr) -> Health {
    let (status, body) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    serde_json::from_str(&body).expect("health parses")
}

#[test]
fn endpoints_round_trip_over_a_real_socket() {
    let handle = start(2, 64);
    let addr = handle.addr();

    let (status, body) = call(addr, "POST", "/decide", TABLE3);
    assert_eq!(status, 200);
    assert!(body.contains("RemoteStream"), "{body}");
    assert!(body.contains("break_even"), "{body}");

    let tiers_body = format!(r#"{{"workload":{TABLE3},"sss":7.5}}"#);
    let (status, body) = call(addr, "POST", "/tiers", &tiers_body);
    assert_eq!(status, 200);
    assert!(body.contains("\"RealTime\""), "{body}");
    assert!(body.matches("\"feasible\"").count() == 3, "{body}");

    let (status, body) = call(addr, "GET", "/scenarios", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"count\":13"), "{body}");
    assert!(body.contains("lcls-coherent-scattering"), "{body}");

    let h = health(addr);
    assert_eq!(h.status, "ok");
    assert!(h.requests >= 4);

    handle.shutdown();
}

#[test]
fn bad_requests_get_400s_and_unknown_paths_404() {
    let handle = start(1, 16);
    let addr = handle.addr();

    let (status, body) = call(addr, "POST", "/decide", "not json");
    assert_eq!(status, 400);
    assert!(body.contains("bad decide request"), "{body}");

    // Valid JSON, invalid physics: alpha out of (0, 1].
    let (status, body) = call(
        addr,
        "POST",
        "/decide",
        &TABLE3.replace("\"alpha\":0.8", "\"alpha\":1.4"),
    );
    assert_eq!(status, 400);
    assert!(body.contains("alpha"), "{body}");

    let (status, body) = call(addr, "POST", "/tiers", r#"{"workload":{},"sss":0.5}"#);
    assert_eq!(status, 400);
    assert!(!body.is_empty());

    let (status, _) = call(addr, "GET", "/no-such-endpoint", "");
    assert_eq!(status, 404);

    let (status, body) = call(addr, "GET", "/decide", "");
    assert_eq!(status, 405);
    assert!(body.contains("not allowed"), "{body}");

    // Any unsupported method on a known endpoint is 405, never 404.
    let (status, body) = call(addr, "DELETE", "/healthz", "");
    assert_eq!(status, 405);
    assert!(body.contains("not allowed"), "{body}");

    handle.shutdown();
}

/// A misspelled or invented body field is a 400 naming it on every POST
/// route — never a silently applied default.
#[test]
fn unknown_body_fields_draw_400_naming_the_field() {
    let handle = start(1, 16);
    let addr = handle.addr();
    let typo_theta = TABLE3.replace('}', r#","thetaa":3}"#);
    let cases = [
        ("/decide", typo_theta.clone(), "DecideRequest", "thetaa"),
        (
            "/tiers",
            format!(r#"{{"workload":{TABLE3},"sss":7.5,"ssss":2}}"#),
            "TiersRequest",
            "ssss",
        ),
        // The nested workload is held to the same rule.
        (
            "/tiers",
            format!(r#"{{"workload":{typo_theta},"sss":7.5}}"#),
            "DecideRequest",
            "thetaa",
        ),
        (
            "/frontier",
            format!(
                r#"{{"workload":{TABLE3},"x":"wan_gbps:1:400","y":"data_tb:0.1:100","resolutoin":8}}"#
            ),
            "FrontierRequest",
            "resolutoin",
        ),
        (
            "/simulate",
            format!(r#"{{"workload":{TABLE3},"frame":8}}"#),
            "SimulateRequest",
            "frame",
        ),
        (
            "/fleet",
            r#"{"sesions":99999,"bogus":true}"#.to_string(),
            "FleetRequest",
            "sesions",
        ),
    ];
    for (path, body, ty, field) in cases {
        let (status, answer) = call(addr, "POST", path, &body);
        assert_eq!(status, 400, "{path} {body}: {answer}");
        assert!(
            answer.contains(&format!("{ty}: unknown field `{field}`")),
            "{path} must name `{field}`: {answer}"
        );
    }
    handle.shutdown();
}

/// Both movement-bearing routes accept exactly the two fidelities: any
/// other label, `hybrid` included, is a 400 naming them. Only successes
/// are cached, so the same body with `fluid` right after computes and
/// answers 200.
#[test]
fn unknown_fidelity_draws_400_naming_exact_and_fluid() {
    let handle = start(1, 16);
    let addr = handle.addr();
    let cases = [
        (
            "/simulate",
            format!(r#"{{"workload":{TABLE3},"frames":16,"files":4,"fidelity":"FIDELITY"}}"#),
        ),
        (
            "/fleet",
            r#"{"sessions":13,"fidelity":"FIDELITY"}"#.to_string(),
        ),
    ];
    for (path, template) in cases {
        let (status, body) = call(addr, "POST", path, &template.replace("FIDELITY", "hybrid"));
        assert_eq!(status, 400, "{path}: {body}");
        assert!(
            body.contains("known fidelities: exact, fluid"),
            "{path} must name the valid values: {body}"
        );
        let (status, body) = call(addr, "POST", path, &template.replace("FIDELITY", "fluid"));
        assert_eq!(status, 200, "{path}: {body}");
    }
    handle.shutdown();
}

/// The wire schema of a frontier slice's `gain` summary: `count`,
/// `mean`, `m2`, `min`, `max`, in that order. `m2` is the only spread
/// statistic a client gets, so it must be the population variance of
/// the slice's cell gains times the cell count.
#[test]
fn frontier_gain_carries_count_mean_m2_min_max() {
    let handle = start(1, 16);
    let body = format!(
        r#"{{"workload":{TABLE3},"x":"wan_gbps:1:400","y":"data_gb:0.1:40:log",
            "z":"remote_tflops:50:500","resolution":8,"slices":2}}"#
    );
    let (status, answer) = call(handle.addr(), "POST", "/frontier", &body);
    assert_eq!(status, 200, "{answer}");
    handle.shutdown();

    let map: serde::Value = serde_json::from_str(&answer).expect("frontier body parses");
    let Some(serde::Value::Seq(slices)) = map.get("slices") else {
        panic!("no slices array: {answer}");
    };
    assert_eq!(slices.len(), 2);
    for slice in slices {
        let Some(serde::Value::Map(gain)) = slice.get("gain") else {
            panic!("slice without a gain object: {answer}");
        };
        let keys: Vec<&str> = gain.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["count", "mean", "m2", "min", "max"]);

        let Some(serde::Value::Seq(rows)) = slice.get("cells") else {
            panic!("slice without cells: {answer}");
        };
        let gains: Vec<f64> = rows
            .iter()
            .flat_map(|row| match row {
                serde::Value::Seq(cells) => cells.iter(),
                other => panic!("a cell row is not an array: {other:?}"),
            })
            .map(|cell| {
                cell.get("gain")
                    .and_then(serde::Value::as_f64)
                    .expect("cell gain")
            })
            .collect();
        let n = gains.len() as f64;
        let mean = gains.iter().sum::<f64>() / n;
        let variance = gains.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n;
        let field = |name: &str| {
            gain.iter()
                .find(|(k, _)| k == name)
                .unwrap()
                .1
                .as_f64()
                .unwrap()
        };
        assert_eq!(field("count"), n);
        assert!(variance > 0.0, "the grid spans gains");
        let relative = (field("m2") / n - variance).abs() / variance;
        assert!(
            relative < 1e-9,
            "m2 / count = {} vs {variance}",
            field("m2") / n
        );
    }
}

#[test]
fn keep_alive_serves_many_requests_per_connection() {
    let handle = start(2, 64);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for _ in 0..5 {
        write!(
            stream,
            "POST /decide HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            TABLE3.len(),
            TABLE3
        )
        .expect("send");
        // Read status line + headers, then the framed body.
        let mut line = String::new();
        reader.read_line(&mut line).expect("status line");
        assert!(line.starts_with("HTTP/1.1 200"), "{line}");
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).expect("header");
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.strip_prefix("content-length:") {
                content_length = v.trim().parse().expect("length");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        assert!(String::from_utf8(body).unwrap().contains("RemoteStream"));
    }
    drop(stream);
    handle.shutdown();
}

#[test]
fn simulate_replays_a_workload_with_memoized_bodies() {
    let handle = start(2, 64);
    let addr = handle.addr();

    let body =
        format!(r#"{{"workload":{TABLE3},"shapes":["steady","outage"],"frames":16,"files":4}}"#);
    let (status, first) = call(addr, "POST", "/simulate", &body);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("\"records\""), "{first}");
    // Shapes serialize as their lowercase labels, so a response's shape
    // field can be echoed straight back into a follow-up request.
    assert!(
        first.contains("\"steady\"") && first.contains("\"outage\""),
        "{first}"
    );

    // The repeat is served from the body cache, byte-identically.
    let (status, second) = call(addr, "POST", "/simulate", &body);
    assert_eq!(status, 200);
    assert_eq!(first, second, "cache hits must return the miss's bytes");
    let h = health(addr);
    // Each request counts one lookup: the computed body a miss, the
    // repeat a hit.
    assert_eq!(h.simulate_cache.misses, 1);
    assert_eq!(h.simulate_cache.hits, 1);
    assert_eq!(h.simulate_cache.entries, 1);

    // Neither shape reads the seed, so another seed is the same replay:
    // a hit with the first body's bytes.
    let reseeded = format!(
        r#"{{"workload":{TABLE3},"shapes":["steady","outage"],"frames":16,"files":4,"seed":7}}"#
    );
    let (status, third) = call(addr, "POST", "/simulate", &reseeded);
    assert_eq!(status, 200);
    assert_eq!(first, third, "an unread seed must share the body");
    let h = health(addr);
    assert_eq!(h.simulate_cache.misses, 1);
    assert_eq!(h.simulate_cache.hits, 2);
    assert_eq!(h.simulate_cache.entries, 1);

    // Bad shape names are 400s, not panics.
    let bad = format!(r#"{{"workload":{TABLE3},"shapes":["tsunami"]}}"#);
    let (status, body) = call(addr, "POST", "/simulate", &bad);
    assert_eq!(status, 400);
    assert!(body.contains("unknown trace shape"), "{body}");

    // Unsupported methods are 405, never 404.
    let (status, _) = call(addr, "GET", "/simulate", "");
    assert_eq!(status, 405);

    handle.shutdown();
}

/// `/simulate` bounds `frames` only by the replay's own cap of 65,536:
/// 8192 frames answer 200 with the bytes the library computes
/// in-process, and 65,537 draw a 400 naming that cap.
#[test]
fn simulate_frames_are_bounded_by_the_replay_cap_alone() {
    let handle = start(2, 64);
    let addr = handle.addr();

    let body = format!(r#"{{"workload":{TABLE3},"frames":8192}}"#);
    let request: SimulateRequest = serde_json::from_str(&body).expect("simulate parses");
    let replay = request.replay().expect("8192 frames validate");
    let expected = serde_json::to_string(&replay.run(&ThreadPool::new(2))).expect("serializes");
    let (status, served) = call(addr, "POST", "/simulate", &body);
    assert_eq!(status, 200, "{served}");
    assert_eq!(
        served, expected,
        "the service must serve the library's bytes"
    );

    let over = format!(r#"{{"workload":{TABLE3},"frames":65537}}"#);
    let (status, body) = call(addr, "POST", "/simulate", &over);
    assert_eq!(status, 400);
    assert!(
        body.contains("frames 65537 exceeds the replay cap of 65536"),
        "{body}"
    );

    handle.shutdown();
}

/// Heavy-route misses that run at once share the executor's helpers:
/// four clients each post a distinct `/simulate` and `/fleet` body at the
/// same moment to a 2-worker server, and every body served is the bytes
/// the library computes for it in-process on a fresh pool.
#[test]
fn concurrent_heavy_misses_serve_the_library_bytes() {
    use stream_score::server::api::FleetRequest;

    let handle = start(2, 64);
    let addr = handle.addr();
    let start_line = std::sync::Barrier::new(4);
    let served: Vec<[(String, String); 2]> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4u32)
            .map(|i| {
                let start_line = &start_line;
                scope.spawn(move || {
                    let simulate = format!(
                        r#"{{"workload":{TABLE3},"shapes":["bursty","diurnal"],"frames":{},"files":4,"seed":{i}}}"#,
                        256 + 64 * i
                    );
                    let fleet = format!(r#"{{"sessions":{},"seed":{i}}}"#, 24 + 8 * i);
                    start_line.wait();
                    [("/simulate", simulate), ("/fleet", fleet)].map(|(path, body)| {
                        let (status, response) = call(addr, "POST", path, &body);
                        assert_eq!(status, 200, "{path}: {response}");
                        (body, response)
                    })
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread"))
            .collect()
    });

    for [(simulate, simulated), (fleet, fleeted)] in served {
        let request: SimulateRequest = serde_json::from_str(&simulate).expect("simulate parses");
        let replay = request.replay().expect("the replay validates");
        let expected = serde_json::to_string(&replay.run(&ThreadPool::new(2))).expect("serializes");
        assert_eq!(simulated, expected, "/simulate {simulate}");

        let request: FleetRequest = serde_json::from_str(&fleet).expect("fleet parses");
        let sim = request
            .fleet(FleetRequest::DEFAULT_SESSION_CAP)
            .expect("the fleet validates");
        let report = sim.run(&ThreadPool::new(2)).expect("the fleet runs");
        let expected = serde_json::to_string(&report).expect("serializes");
        assert_eq!(fleeted, expected, "/fleet {fleet}");
    }
    let h = health(addr);
    assert_eq!((h.simulate_cache.misses, h.fleet_cache.misses), (4, 4));
    handle.shutdown();
}

#[test]
fn cache_accounts_hits_and_misses() {
    let handle = start(2, 256);
    let addr = handle.addr();

    for _ in 0..5 {
        let (status, _) = call(addr, "POST", "/decide", TABLE3);
        assert_eq!(status, 200);
    }
    let h = health(addr);
    assert_eq!(h.cache.misses, 1, "one distinct workload evaluates once");
    assert_eq!(h.cache.hits, 4);
    assert_eq!(h.cache.entries, 1);

    // A change in the last digits is a different input, so a new entry...
    let noisy = TABLE3.replace("\"alpha\":0.8", "\"alpha\":0.8000000000001");
    let (status, _) = call(addr, "POST", "/decide", &noisy);
    assert_eq!(status, 200);
    let h = health(addr);
    assert_eq!((h.cache.misses, h.cache.hits, h.cache.entries), (2, 4, 2));

    // ...as is a larger change.
    let changed = TABLE3.replace("\"alpha\":0.8", "\"alpha\":0.7");
    let (status, _) = call(addr, "POST", "/decide", &changed);
    assert_eq!(status, 200);
    let h = health(addr);
    assert_eq!((h.cache.misses, h.cache.entries), (3, 3));

    handle.shutdown();
}

#[test]
fn disabled_cache_never_hits() {
    let handle = start(2, 0);
    let addr = handle.addr();
    for _ in 0..3 {
        let (status, _) = call(addr, "POST", "/decide", TABLE3);
        assert_eq!(status, 200);
    }
    let h = health(addr);
    assert_eq!(h.cache.hits, 0);
    assert_eq!(h.cache.misses, 3);
    assert_eq!(h.cache.entries, 0);
    handle.shutdown();
}

#[test]
fn http_load_driver_round_trips() {
    let handle = start(4, 1024);
    let spec = stream_score::loadgen::HttpLoadSpec {
        addr: handle.addr().to_string(),
        connections: 3,
        requests_per_conn: 20,
        distinct_workloads: 5,
        seed: 7,
    };
    let report = stream_score::loadgen::run_http_load(&spec).expect("load run");
    assert_eq!((report.opened, report.completed), (3, 3));
    assert_eq!(report.ok, 60);
    assert_eq!(report.errors, 0);
    assert!(report.throughput_rps > 0.0);
    assert!(report.latency.max >= report.latency.p50);

    let h = health(handle.addr());
    // At least one miss per distinct workload. Concurrent connections can
    // race the same key into a single dispatcher wave before its first
    // insert — the batcher documents that duplicates within a wave
    // evaluate (and count) redundantly — so each of the 5 keys may miss up
    // to once per connection, never more.
    assert!(
        (5..=15).contains(&h.cache.misses),
        "expected ~one miss per distinct workload, got {}",
        h.cache.misses
    );
    assert_eq!(h.cache.hits + h.cache.misses, 60);
    assert!(h.cache.hits >= 45, "repeats must overwhelmingly hit");
    handle.shutdown();
}

/// The same request sequence against `--workers 1` and `--workers 8`
/// servers must produce byte-identical bodies, cached or not.
#[test]
fn responses_identical_across_worker_counts() {
    let bodies: Vec<String> = {
        let spec = stream_score::loadgen::HttpLoadSpec::smoke("unused");
        spec.workloads()
            .iter()
            .map(|p| {
                let req = stream_score::server::DecideRequest::from_params(p);
                serde_json::to_string(&req).expect("body serializes")
            })
            .collect()
    };

    let run = |workers: usize, cache_capacity: usize| -> Vec<String> {
        let handle = start(workers, cache_capacity);
        let addr = handle.addr();
        // Each body twice: cold then cached.
        let out = bodies
            .iter()
            .chain(bodies.iter())
            .map(|b| {
                let (status, body) = call(addr, "POST", "/decide", b);
                assert_eq!(status, 200);
                body
            })
            .collect();
        handle.shutdown();
        out
    };

    let one = run(1, 256);
    let eight = run(8, 256);
    let uncached = run(8, 0);
    assert_eq!(one, eight, "worker count must not change a byte");
    assert_eq!(one, uncached, "cache hits must return the miss's bytes");
    let n = bodies.len();
    assert_eq!(one[..n], one[n..], "repeat queries identical to first");
}

/// The `/healthz` counter block must be byte-stable across fresh server
/// instances given the same request sequence: the decision cache shards
/// over `HashMap`s, and if hash-iteration order ever leaked into the
/// serialized `CacheStats` (entry counts, hit/miss accounting), two
/// identical runs would disagree here.
#[test]
fn healthz_cache_stats_are_byte_stable_across_runs() {
    let run = || -> String {
        let handle = start(2, 64);
        let addr = handle.addr();
        // Populate several shards, with repeats for hits, sequentially so
        // batch counters are deterministic too.
        for i in 0..6 {
            let alpha = 0.5 + 0.05 * f64::from(i);
            let body = format!(
                r#"{{"data_gb":2.0,"intensity_tflop_per_gb":17.0,"local_tflops":10.0,
                    "remote_tflops":340.0,"bandwidth_gbps":25.0,"alpha":{alpha}}}"#
            );
            for _ in 0..2 {
                let (status, _) = call(addr, "POST", "/decide", &body);
                assert_eq!(status, 200);
            }
        }
        let (status, body) = call(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        handle.shutdown();
        // Everything from the cache counters onward; the prefix holds the
        // wall-clock uptime, which legitimately differs.
        let at = body.find("\"cache\":").expect("cache block present");
        body[at..].to_owned()
    };
    assert_eq!(run(), run(), "cache-stats bytes drifted between runs");
}

/// Every field of `FleetRequest` shapes the fleet, so every field must
/// be part of the `/fleet` cache key: a request that differs from a
/// cached one in any single field is a cache miss, never a stale hit.
#[test]
fn fleet_policy_spellings_share_one_cache_entry() {
    let handle = start(2, 64);
    let addr = handle.addr();
    let post = |policy: &str| {
        let body = format!(r#"{{"sessions": 13, "policy": "{policy}"}}"#);
        let (status, response) = call(addr, "POST", "/fleet", &body);
        assert_eq!(status, 200, "{response}");
        response
    };
    let fair = post("fair");
    let before = health(addr).fleet_cache;
    assert_eq!(post("fair-share"), fair, "both spellings name one policy");
    let after = health(addr).fleet_cache;
    assert_eq!(after.misses, before.misses, "the second spelling is a hit");
    assert_eq!(after.hits, before.hits + 1);
    assert_eq!(after.entries, 1);
    handle.shutdown();
}

/// A named edit of a request.
type Edit<R> = (&'static str, fn(&mut R));

/// One compute route's key-coverage case: the route, its `/healthz`
/// counters, a base request, one in-range alternative per wire field
/// (each must miss), and other spellings of the base (each must hit).
struct KeyCase<R: 'static> {
    path: &'static str,
    stats: fn(&Health) -> CacheStats,
    base: R,
    variants: &'static [Edit<R>],
    spellings: &'static [Edit<R>],
}

impl<R: serde::Serialize + Clone + PartialEq + std::fmt::Debug + 'static> KeyCase<R> {
    fn check(&self, addr: std::net::SocketAddr) {
        let path = self.path;
        // The table names every serialized field, so a field added later
        // fails here until it has a variant (and a place in the key).
        let body = serde_json::to_string(&self.base).expect("serializes");
        let serde::Value::Map(fields) = serde_json::from_str(&body).expect("parses") else {
            panic!("{path}: the request serializes as a JSON object");
        };
        let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
        let covered: Vec<&str> = self.variants.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names, covered,
            "{path}: every request field needs a variant"
        );

        let stats = || (self.stats)(&health(addr));
        let post = |request: &R| {
            let body = serde_json::to_string(request).expect("request serializes");
            let (status, response) = call(addr, "POST", path, &body);
            assert_eq!(status, 200, "{path}: {response}");
            response
        };
        // Each request counts exactly one lookup: a computed body one
        // miss, a repeat one hit.
        let before = stats();
        let first = post(&self.base);
        let after = stats();
        assert_eq!(
            (after.misses, after.hits),
            (before.misses + 1, before.hits),
            "{path}: a computed body is one miss"
        );
        assert_eq!(
            post(&self.base),
            first,
            "{path}: a repeat is served the same bytes"
        );
        let again = stats();
        assert_eq!(
            (again.misses, again.hits),
            (after.misses, after.hits + 1),
            "{path}: a repeat is one hit"
        );

        for (spelling, respell) in self.spellings {
            let mut request = self.base.clone();
            respell(&mut request);
            assert_ne!(
                request, self.base,
                "{path}: {spelling} must change the wire"
            );
            let before = stats();
            assert_eq!(
                post(&request),
                first,
                "{path}: {spelling} names the same input"
            );
            let after = stats();
            assert_eq!(
                (after.misses, after.hits, after.entries),
                (before.misses, before.hits + 1, before.entries),
                "{path}: {spelling} must share the base's entry"
            );
        }

        for (field, vary) in self.variants {
            let mut request = self.base.clone();
            vary(&mut request);
            assert_ne!(
                request, self.base,
                "{path}: the {field} variant must change the request"
            );
            let before = stats().misses;
            post(&request);
            assert_eq!(
                stats().misses,
                before + 1,
                "{path}: a request differing only in {field} was served from the cache"
            );
        }
    }
}

/// Every wire field of a compute request shapes the engine's output, so
/// each must reach the memo key: a request that differs from a cached one
/// in any single field misses, never a stale hit. Spellings that validate
/// to the same engine input share one entry.
#[test]
fn fleet_cache_key_covers_every_request_field() {
    use stream_score::server::api::FleetRequest;
    use stream_score::server::{DecideRequest, FrontierRequest, SimulateRequest};

    let workload: DecideRequest = serde_json::from_str(TABLE3).expect("TABLE3 parses");
    let handle = start(2, 64);
    let addr = handle.addr();
    KeyCase {
        path: "/fleet",
        stats: |h| h.fleet_cache,
        base: FleetRequest {
            sessions: 13,
            ..FleetRequest::default()
        },
        variants: &[
            ("sessions", |r| r.sessions = 12),
            ("load", |r| r.load = 3.0),
            ("shape", |r| r.shape = "bursty".into()),
            ("policy", |r| r.policy = "priority".into()),
            ("slots", |r| r.slots = 3),
            ("wan_gbps", |r| r.wan_gbps = 50.0),
            ("frames", |r| r.frames = 8),
            ("seed", |r| r.seed = 7),
            ("fidelity", |r| r.fidelity = "exact".into()),
        ],
        spellings: &[],
    }
    .check(addr);
    KeyCase {
        path: "/simulate",
        stats: |h| h.simulate_cache,
        base: SimulateRequest {
            workload,
            // The seed places bursty dips, so every field reaches the bytes.
            shapes: vec!["bursty".into()],
            frames: 16,
            files: 4,
            seed: 42,
            fidelity: "exact".into(),
        },
        variants: &[
            ("workload", |r| r.workload.alpha = 0.8000000000001),
            ("shapes", |r| r.shapes = vec!["outage".into()]),
            ("frames", |r| r.frames = 32),
            ("files", |r| r.files = 8),
            ("seed", |r| r.seed = 7),
            ("fidelity", |r| r.fidelity = "fluid".into()),
        ],
        spellings: &[],
    }
    .check(addr);
    KeyCase {
        path: "/frontier",
        stats: |h| h.frontier_cache,
        base: FrontierRequest {
            workload,
            x: "wan_gbps:1:400".into(),
            y: "data_gb:0.5:50".into(),
            z: None,
            resolution: 4,
            tolerance: 1e-3,
            slices: 3,
        },
        variants: &[
            ("workload", |r| r.workload.alpha = 0.8000000000001),
            ("x", |r| r.x = "wan_gbps:1:300".into()),
            ("y", |r| r.y = "data_gb:0.5:40".into()),
            ("z", |r| r.z = Some("remote_tflops:50:500".into())),
            ("resolution", |r| r.resolution = 5),
            ("tolerance", |r| r.tolerance = 2e-3),
            ("slices", |r| r.slices = 2),
        ],
        spellings: &[
            ("an explicit linear spacing", |r| {
                r.x = "wan_gbps:1:400:lin".into()
            }),
            ("another float spelling", |r| {
                r.y = "data_gb:5e-1:50.0".into()
            }),
        ],
    }
    .check(addr);
    handle.shutdown();
}

/// A cached body is served only for the exact input it was computed
/// from: after alpha 0.8, alpha 0.8000000000001 gets the bytes a fresh
/// server computes for it on every route that evaluates the workload.
#[test]
fn a_last_digit_change_is_answered_as_a_fresh_server_answers_it() {
    let noisy = TABLE3.replace("\"alpha\":0.8", "\"alpha\":0.8000000000001");
    let routes = [
        ("/decide", "WORKLOAD"),
        (
            "/simulate",
            r#"{"workload":WORKLOAD,"shapes":["steady"],"frames":16,"files":4}"#,
        ),
        (
            "/frontier",
            r#"{"workload":WORKLOAD,"x":"wan_gbps:1:400","y":"data_gb:0.5:50","resolution":4}"#,
        ),
    ];
    let warm = start(1, 64);
    let fresh = start(1, 64);
    for (path, template) in routes {
        let (status, exact) = call(
            warm.addr(),
            "POST",
            path,
            &template.replace("WORKLOAD", TABLE3),
        );
        assert_eq!(status, 200, "{path}: {exact}");
        let body = template.replace("WORKLOAD", &noisy);
        let (status, served) = call(warm.addr(), "POST", path, &body);
        assert_eq!(status, 200, "{path}: {served}");
        let (_, expected) = call(fresh.addr(), "POST", path, &body);
        assert_ne!(expected, exact, "{path}: the last digits reach the bytes");
        assert_eq!(served, expected, "{path}: served another input's bytes");
    }
    warm.shutdown();
    fresh.shutdown();
}
