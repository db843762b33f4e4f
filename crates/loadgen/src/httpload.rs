//! Closed-loop HTTP load driver for the `sss-server` decision service.
//!
//! Mirrors the iperf3-style methodology the rest of this crate applies to
//! the network simulator, but against a *real* socket. One nonblocking
//! event loop opens `connections` keep-alive HTTP/1.1 connections, holds
//! **all of them open at once**, and runs a closed loop over the whole
//! set: each connection keeps one `POST /decide` in flight and sends its
//! next request only after the previous response arrives. The loop stands
//! on `sss_exec::poll`, the readiness layer under the server's reactor
//! front end, so 8000 connections cost 8000 file descriptors rather than
//! 8000 threads, and a handful of connections cost the client less per
//! request than they cost the server it measures.
//!
//! Latency is measured per request, from the moment it is queued to the
//! last body byte read. The run reports serve-phase throughput plus the
//! same tail digest ([`TailMetrics`]) the paper uses for transfer times —
//! the service is judged by the standard it preaches: worst case, not
//! average. It also reports how many connections were actually held
//! ([`HttpLoadReport::opened`]), so the same driver measures request
//! throughput at low concurrency and the connection ceiling at high.
//!
//! The request mix cycles deterministically through `distinct_workloads`
//! parameter sets derived from the scenario registry (seed-rotated), so
//! the expected cache-hit fraction is controlled: with `w` workloads and
//! `n` total requests, a memoizing server sees exactly `w` misses.

use sss_core::{ModelParams, Scenario};
use sss_exec::SeedSequence;
use sss_report::Table;
use sss_stats::TailMetrics;
use sss_units::Ratio;

/// What to run: target address, connection count, volume, and request mix.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpLoadSpec {
    /// Server address, e.g. `"127.0.0.1:8080"`.
    pub addr: String,
    /// Keep-alive connections to open and hold simultaneously.
    pub connections: usize,
    /// Closed-loop requests each connection issues once open.
    pub requests_per_conn: usize,
    /// Size of the workload pool the connections cycle through; small
    /// values make the run cache-friendly, large values cache-hostile.
    pub distinct_workloads: usize,
    /// Seed rotating which registry scenarios anchor the workload pool.
    pub seed: u64,
}

impl HttpLoadSpec {
    /// A short smoke run against `addr`: 4 connections × 50 requests over
    /// 8 distinct workloads.
    pub fn smoke(addr: impl Into<String>) -> Self {
        HttpLoadSpec {
            addr: addr.into(),
            connections: 4,
            requests_per_conn: 50,
            distinct_workloads: 8,
            seed: 42,
        }
    }

    /// Reject degenerate configurations before opening sockets.
    pub fn validate(&self) -> Result<(), String> {
        if self.connections == 0 || self.requests_per_conn == 0 {
            return Err("connections and requests must be positive".into());
        }
        if self.distinct_workloads == 0 {
            return Err("need at least one distinct workload".into());
        }
        Ok(())
    }

    /// The deterministic workload pool: registry scenarios (seed-rotated)
    /// with a small alpha perturbation so pool entries stay distinct even
    /// when the pool is larger than the registry.
    pub fn workloads(&self) -> Vec<ModelParams> {
        let registry = Scenario::all();
        let rotation = SeedSequence::new(self.seed).seed(0) as usize % registry.len();
        (0..self.distinct_workloads)
            .map(|i| {
                let scenario = &registry[(rotation + i) % registry.len()];
                let mut params = scenario.params;
                // Shrink alpha strictly per generation: injective in the
                // generation, so pool entries stay distinct (and cache
                // misses stay exactly `distinct_workloads`) no matter how
                // far the pool outgrows the registry, while alpha remains
                // in (0, 1].
                let generation = (i / registry.len()) as f64;
                let scale = 1.0 / (1.0 + 0.01 * generation);
                params.alpha = Ratio::new(params.alpha.value() * scale);
                params
            })
            .collect()
    }
}

/// What one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpLoadReport {
    /// The spec that produced this report.
    pub spec: HttpLoadSpec,
    /// Connections actually opened and held — the observed ceiling. Less
    /// than `spec.connections` when the server (or the local descriptor
    /// budget) stopped accepting; every opened socket stays open until
    /// the run ends, so this is simultaneous, not cumulative.
    pub opened: usize,
    /// Connections that completed every request they were assigned.
    pub completed: usize,
    /// Requests answered with `200`.
    pub ok: u64,
    /// Requests answered with any other status, plus one per connection
    /// that died mid-run (reset, malformed response, failed connect).
    pub errors: u64,
    /// Seconds spent opening the connection set (the ramp phase).
    pub ramp_s: f64,
    /// Wall-clock duration of the whole run (ramp + serve), seconds.
    pub elapsed_s: f64,
    /// `ok / serve-phase seconds`: sustained throughput once the set is
    /// open.
    pub throughput_rps: f64,
    /// Per-request latency digest, seconds.
    pub latency: TailMetrics,
}

/// Open the connection set, then drive the closed loop from one epoll
/// event loop until every surviving connection finishes.
///
/// Failure is counted, not fatal: falling short of `spec.connections`
/// shows up in [`HttpLoadReport::opened`], and a connection that dies
/// adds one to [`HttpLoadReport::errors`]. The run fails only when the
/// spec is degenerate, no connection opens, no request is answered at
/// all, or the event loop stalls (60 s without a single readiness event).
#[cfg(target_os = "linux")]
pub fn run_http_load(spec: &HttpLoadSpec) -> Result<HttpLoadReport, String> {
    engine::run(spec)
}

/// Non-Linux stub: the driver needs the epoll readiness layer.
#[cfg(not(target_os = "linux"))]
pub fn run_http_load(spec: &HttpLoadSpec) -> Result<HttpLoadReport, String> {
    spec.validate()?;
    Err("the HTTP load driver requires the Linux epoll readiness layer".into())
}

/// The `/decide` body in paper units (mirrors `sss_server::DecideRequest`
/// without depending on the server crate — the driver can point at any
/// host speaking the protocol).
#[derive(serde::Serialize)]
struct ModelParamsBody {
    data_gb: f64,
    intensity_tflop_per_gb: f64,
    local_tflops: f64,
    remote_tflops: f64,
    bandwidth_gbps: f64,
    alpha: f64,
    theta: f64,
}

impl From<&ModelParams> for ModelParamsBody {
    fn from(p: &ModelParams) -> Self {
        ModelParamsBody {
            data_gb: p.data_unit.as_gb(),
            intensity_tflop_per_gb: p.intensity.as_tflop_per_gb(),
            local_tflops: p.local_rate.as_tflops(),
            remote_tflops: p.remote_rate.as_tflops(),
            bandwidth_gbps: p.bandwidth.as_gbps(),
            alpha: p.alpha.value(),
            theta: p.theta.value(),
        }
    }
}

/// Render a load report as the standard results table (latency columns in
/// milliseconds; "opened" is the simultaneously-held connection count
/// actually reached).
pub fn loadtest_table(report: &HttpLoadReport) -> Table {
    let ms = |s: f64| format!("{:.3}", s * 1e3);
    let mut table = Table::new([
        "conns",
        "opened",
        "completed",
        "ok",
        "errors",
        "ramp s",
        "elapsed s",
        "req/s",
        "p50 ms",
        "p90 ms",
        "p99 ms",
        "max ms",
    ])
    .with_title(format!(
        "Closed-loop /decide load against {} ({} requests per connection, {} distinct workloads)",
        report.spec.addr, report.spec.requests_per_conn, report.spec.distinct_workloads
    ));
    table.row([
        report.spec.connections.to_string(),
        report.opened.to_string(),
        report.completed.to_string(),
        report.ok.to_string(),
        report.errors.to_string(),
        format!("{:.3}", report.ramp_s),
        format!("{:.3}", report.elapsed_s),
        format!("{:.0}", report.throughput_rps),
        ms(report.latency.p50),
        ms(report.latency.p90),
        ms(report.latency.p99),
        ms(report.latency.max),
    ]);
    table
}

#[cfg(target_os = "linux")]
mod engine {
    //! The event loop: a single thread drives every connection through
    //! `sss_exec::poll`.

    use std::io::{ErrorKind, Read, Write};
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    use sss_exec::poll::{raise_nofile_limit, Events, Poller};
    use sss_stats::TailMetrics;

    use super::{HttpLoadReport, HttpLoadSpec, ModelParamsBody};

    /// Event-loop tick, and how many silent ticks in a row mean the run
    /// is stuck (60 s with no readiness anywhere).
    const TICK_MS: i32 = 100;
    const STALL_TICKS: u32 = 600;

    /// A parsed response head: status plus the total framed length
    /// (head + CRLFCRLF + Content-Length body).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct RespHead {
        pub(super) status: u16,
        pub(super) total: usize,
    }

    /// Locate and parse the response head in `buf`. `Ok(None)` means the
    /// head is still incomplete; `Err` means the bytes are not HTTP.
    pub(super) fn parse_head(buf: &[u8]) -> Result<Option<RespHead>, ()> {
        let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            // A response head larger than the server could ever emit:
            // treat as garbage instead of buffering forever.
            if buf.len() > 64 * 1024 {
                return Err(());
            }
            return Ok(None);
        };
        let head = std::str::from_utf8(&buf[..end]).map_err(|_| ())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().ok_or(())?;
        if !status_line.starts_with("HTTP/1.") {
            return Err(());
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(())?;
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| ())?;
                }
            }
        }
        Ok(Some(RespHead {
            status,
            total: end + 4 + content_length,
        }))
    }

    /// The request pool and how the connection set stripes it.
    struct Mix<'a> {
        /// One framed `POST /decide` per distinct workload.
        requests: &'a [Vec<u8>],
        /// Connections sharing the pool (the opened count).
        stride: usize,
        /// Requests each connection issues.
        per_conn: usize,
    }

    /// Running totals over the whole connection set.
    #[derive(Default)]
    struct Tally {
        ok: u64,
        errors: u64,
        latencies: Vec<f64>,
    }

    /// One nonblocking connection's closed-loop state.
    struct Conn {
        stream: TcpStream,
        fd: i32,
        /// Position in the connection set: the poller token and the
        /// connection's offset into the request stripe.
        idx: usize,
        /// Request bytes not yet accepted by the socket.
        out: Vec<u8>,
        out_pos: usize,
        /// Response bytes not yet framed into a full response.
        resp: Vec<u8>,
        head: Option<RespHead>,
        /// Requests queued onto the wire so far.
        sent: usize,
        /// Responses fully read so far.
        finished: usize,
        /// When the in-flight request was queued.
        started_at: Instant,
        /// Finished or died — no longer polled (socket stays open).
        done: bool,
        /// Whether write interest is registered with the poller (read
        /// interest always is).
        polled_for_write: bool,
    }

    impl Conn {
        fn new(stream: TcpStream, idx: usize, now: Instant) -> Self {
            Conn {
                fd: stream.as_raw_fd(),
                stream,
                idx,
                out: Vec::new(),
                out_pos: 0,
                resp: Vec::new(),
                head: None,
                sent: 0,
                finished: 0,
                started_at: now,
                done: false,
                polled_for_write: false,
            }
        }

        fn wants_write(&self) -> bool {
            self.out_pos < self.out.len()
        }

        /// Queue the next request and start its clock. Connection `idx`
        /// sends pool entry `idx + k · stride` on its `k`-th request, so
        /// concurrent requests mix workloads instead of marching in
        /// lockstep.
        fn begin_request(&mut self, mix: &Mix) {
            let pick = (self.idx + self.sent * mix.stride) % mix.requests.len();
            self.out.extend_from_slice(&mix.requests[pick]);
            self.sent += 1;
            #[expect(
                clippy::disallowed_methods,
                reason = "per-request wall-clock latency of a real server; never feeds simulation state"
            )]
            let now = Instant::now();
            self.started_at = now;
        }

        /// Push queued bytes until the socket would block. `Err` means
        /// the peer is gone.
        fn flush(&mut self) -> Result<(), ()> {
            while self.out_pos < self.out.len() {
                match self.stream.write(&self.out[self.out_pos..]) {
                    Ok(0) => return Err(()),
                    Ok(n) => self.out_pos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return Err(()),
                }
            }
            if self.out_pos == self.out.len() {
                self.out.clear();
                self.out_pos = 0;
            }
            Ok(())
        }

        /// React to a readiness event: drain writes, read through the
        /// response framer, queue follow-up requests. `Err` means the
        /// connection died and should be counted as an error.
        fn step(
            &mut self,
            readable: bool,
            writable: bool,
            scratch: &mut [u8],
            mix: &Mix,
            tally: &mut Tally,
        ) -> Result<(), ()> {
            if writable {
                self.flush()?;
            }
            if readable {
                while self.finished < mix.per_conn {
                    match self.stream.read(scratch) {
                        Ok(0) => return Err(()),
                        Ok(n) => {
                            self.resp.extend_from_slice(&scratch[..n]);
                            self.consume_responses(mix, tally)?;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => return Err(()),
                    }
                }
            }
            if self.wants_write() {
                self.flush()?;
            }
            Ok(())
        }

        /// Frame as many complete responses as `resp` holds; each one
        /// records a latency sample and queues the next request of the
        /// closed loop.
        fn consume_responses(&mut self, mix: &Mix, tally: &mut Tally) -> Result<(), ()> {
            loop {
                let head = match self.head {
                    Some(head) => head,
                    None => match parse_head(&self.resp)? {
                        Some(head) => {
                            self.head = Some(head);
                            head
                        }
                        None => return Ok(()),
                    },
                };
                if self.resp.len() < head.total {
                    return Ok(());
                }
                tally
                    .latencies
                    .push(self.started_at.elapsed().as_secs_f64());
                if head.status == 200 {
                    tally.ok += 1;
                } else {
                    tally.errors += 1;
                }
                self.resp.drain(..head.total);
                self.head = None;
                self.finished += 1;
                if self.finished >= mix.per_conn {
                    return Ok(());
                }
                self.begin_request(mix);
            }
        }
    }

    /// Connect with a short exponential backoff: a fast ramp can outrun
    /// the listen backlog, and a refused connect that succeeds 10 ms
    /// later is a queue, not a ceiling.
    fn connect_with_retry(addr: &str) -> std::io::Result<TcpStream> {
        let mut delay = Duration::from_millis(2);
        let mut attempt = 0;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(e) if attempt >= 5 => return Err(e),
                Err(_) => {
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                    attempt += 1;
                }
            }
        };
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    pub(super) fn run(spec: &HttpLoadSpec) -> Result<HttpLoadReport, String> {
        spec.validate()?;
        let requests: Vec<Vec<u8>> = spec
            .workloads()
            .iter()
            .map(|p| {
                let body = serde_json::to_string(&ModelParamsBody::from(p))
                    .map_err(|e| format!("serializing request body: {e}"))?;
                Ok(format!(
                    "POST /decide HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
                    body.len(),
                    body
                )
                .into_bytes())
            })
            .collect::<Result<_, String>>()?;

        // 1 fd per connection plus slack for the poller and stdio.
        raise_nofile_limit(spec.connections as u64 + 64);

        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock throughput measurement of a real server; never feeds simulation state"
        )]
        let started = Instant::now();

        // Ramp phase: open until the target or the first hard refusal —
        // the shortfall is the measurement, not a failure.
        let mut conns = Vec::with_capacity(spec.connections);
        let mut tally = Tally::default();
        for idx in 0..spec.connections {
            match connect_with_retry(&spec.addr) {
                Ok(stream) => conns.push(Conn::new(stream, idx, started)),
                Err(_) => {
                    tally.errors += 1;
                    break;
                }
            }
        }
        let opened = conns.len();
        if opened == 0 {
            return Err(format!("could not open any connection to {}", spec.addr));
        }
        let ramp_s = started.elapsed().as_secs_f64();

        // Serve phase: closed loop over the whole set from one event loop.
        let mix = Mix {
            requests: &requests,
            stride: opened,
            per_conn: spec.requests_per_conn,
        };
        let poller = Poller::new().map_err(|e| format!("creating poller: {e}"))?;
        tally
            .latencies
            .reserve(opened.saturating_mul(spec.requests_per_conn));
        // Connections finished or dead, no longer polled.
        let mut retired = 0usize;
        for conn in &mut conns {
            conn.begin_request(&mix);
            let registered = conn.flush().is_ok()
                && poller
                    .add(conn.fd, conn.idx as u64, true, conn.wants_write())
                    .is_ok();
            if registered {
                conn.polled_for_write = conn.wants_write();
            } else {
                conn.done = true;
                tally.errors += 1;
                retired += 1;
            }
        }

        let mut events = Events::with_capacity(1024);
        let mut scratch = vec![0u8; 16 * 1024];
        let mut quiet = 0u32;
        while retired < opened {
            let n = poller
                .wait(&mut events, TICK_MS)
                .map_err(|e| format!("polling: {e}"))?;
            if n == 0 {
                quiet += 1;
                if quiet >= STALL_TICKS {
                    return Err(format!(
                        "load run stalled: {} of {opened} connections silent for {} s",
                        opened - retired,
                        i64::from(STALL_TICKS) * i64::from(TICK_MS) / 1000
                    ));
                }
                continue;
            }
            quiet = 0;
            for event in events.iter() {
                let Some(conn) = conns.get_mut(event.token as usize) else {
                    continue;
                };
                if conn.done {
                    continue;
                }
                // Fold kernel error flags into both directions: the next
                // read/write observes the failure and retires the
                // connection.
                let mut alive = conn
                    .step(
                        event.readable || event.error,
                        event.writable || event.error,
                        &mut scratch,
                        &mix,
                        &mut tally,
                    )
                    .is_ok();
                let answered = conn.finished >= mix.per_conn;
                if alive && !answered && conn.wants_write() != conn.polled_for_write {
                    conn.polled_for_write = conn.wants_write();
                    alive = poller
                        .modify(conn.fd, conn.idx as u64, true, conn.polled_for_write)
                        .is_ok();
                }
                // Retired connections stop being polled but keep their
                // socket: the run measures *held* connections, so the
                // whole set stays simultaneously open until the report.
                if !alive || answered {
                    if !alive {
                        tally.errors += 1;
                    }
                    conn.done = true;
                    let _ = poller.remove(conn.fd);
                    retired += 1;
                }
            }
        }

        let elapsed_s = started.elapsed().as_secs_f64();
        let serve_s = (elapsed_s - ramp_s).max(f64::MIN_POSITIVE);
        let completed = conns.iter().filter(|c| c.finished >= mix.per_conn).count();
        let latency = TailMetrics::from_samples(&tally.latencies)
            .ok_or_else(|| format!("no request to {} was answered", spec.addr))?;
        Ok(HttpLoadReport {
            spec: spec.clone(),
            opened,
            completed,
            ok: tally.ok,
            errors: tally.errors,
            ramp_s,
            elapsed_s,
            throughput_rps: tally.ok as f64 / serve_s,
            latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_pool_is_deterministic_and_distinct() {
        let spec = HttpLoadSpec::smoke("unused");
        let a = spec.workloads();
        let b = spec.workloads();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        for (i, p) in a.iter().enumerate() {
            for q in &a[i + 1..] {
                assert_ne!(p, q, "pool entries must be distinct");
            }
            p.validated().expect("pool entries stay valid");
        }
    }

    #[test]
    fn big_pool_stays_valid_and_distinct() {
        let mut spec = HttpLoadSpec::smoke("unused");
        spec.distinct_workloads = 256; // ~20 generations over 13 scenarios
        let pool = spec.workloads();
        assert_eq!(pool.len(), 256);
        for (i, p) in pool.iter().enumerate() {
            p.validated().expect("valid");
            for q in &pool[i + 1..] {
                assert_ne!(p, q);
            }
        }
    }

    #[test]
    fn different_seeds_rotate_the_pool() {
        let a = HttpLoadSpec {
            seed: 1,
            ..HttpLoadSpec::smoke("unused")
        };
        let b = HttpLoadSpec {
            seed: 2,
            ..HttpLoadSpec::smoke("unused")
        };
        assert_ne!(a.workloads(), b.workloads());
    }

    #[test]
    fn degenerate_specs_rejected() {
        let mut spec = HttpLoadSpec::smoke("unused");
        spec.connections = 0;
        assert!(spec.validate().is_err());
        let mut spec = HttpLoadSpec::smoke("unused");
        spec.requests_per_conn = 0;
        assert!(spec.validate().is_err());
        let mut spec = HttpLoadSpec::smoke("unused");
        spec.distinct_workloads = 0;
        assert!(spec.validate().is_err());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn head_parser_frames_and_rejects() {
        use super::engine::{parse_head, RespHead};

        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(
            parse_head(wire),
            Ok(Some(RespHead {
                status: 200,
                total: wire.len(),
            }))
        );
        // Incomplete head: keep buffering.
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\ncontent-le"), Ok(None));
        // Not HTTP at all.
        assert!(parse_head(b"not http\r\n\r\n").is_err());
        assert!(parse_head(b"HTTP/1.1 nope\r\n\r\n").is_err());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn run_errs_without_a_server() {
        // Port 9 on localhost (discard) is essentially never bound in the
        // test environment; all connects fail, so the run reports that it
        // could not open any connection.
        let spec = HttpLoadSpec {
            connections: 1,
            requests_per_conn: 1,
            ..HttpLoadSpec::smoke("127.0.0.1:9")
        };
        let err = run_http_load(&spec).unwrap_err();
        assert!(err.contains("could not open any connection"), "{err}");
    }

    /// Serve `POST`s on one stub connection with a fixed `200` until the
    /// client hangs up.
    #[cfg(target_os = "linux")]
    fn answer_until_eof(mut stream: std::net::TcpStream) {
        use std::io::{Read, Write};

        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            // Frame every complete request buffered so far.
            while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&buf[..end]).to_ascii_lowercase();
                let body_len: usize = head
                    .split("content-length:")
                    .nth(1)
                    .and_then(|rest| rest.lines().next())
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(0);
                if buf.len() < end + 4 + body_len {
                    break;
                }
                buf.drain(..end + 4 + body_len);
                if stream
                    .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                    .is_err()
                {
                    return;
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    /// A connection that dies is counted, not fatal: of two accepted
    /// connections, the stub answers one and closes the other, and the
    /// run still reports the survivor's requests.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_dead_connection_counts_one_error_and_the_run_completes() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr").to_string();
        let stub = std::thread::spawn(move || {
            let (answered, _) = listener.accept().expect("accept first");
            let (closed, _) = listener.accept().expect("accept second");
            drop(closed);
            answer_until_eof(answered);
        });
        let spec = HttpLoadSpec {
            connections: 2,
            requests_per_conn: 5,
            ..HttpLoadSpec::smoke(addr)
        };
        let report = run_http_load(&spec).expect("a dead connection must not abort the run");
        assert_eq!(report.opened, 2);
        assert_eq!(report.errors, 1);
        assert_eq!(
            report.ok, 5,
            "the surviving connection's requests all succeed"
        );
        assert_eq!(report.completed, 1);
        assert_eq!(report.latency.count, 5);
        stub.join().expect("stub thread");
    }
}
