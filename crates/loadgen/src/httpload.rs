//! Closed-loop HTTP load driver for the `sss-server` decision service.
//!
//! Mirrors the iperf3-style methodology the rest of this crate applies to
//! the network simulator, but against a *real* socket: `clients` threads
//! each hold one persistent HTTP/1.1 connection and issue `POST /decide`
//! requests back-to-back (closed loop — a client sends its next request
//! only after the previous response arrives). Latency is measured per
//! request from first byte written to last body byte read, and the run
//! reports throughput plus the same tail digest
//! ([`TailMetrics`](sss_stats::TailMetrics)) the paper uses for transfer
//! times — the service is judged by the standard it preaches: worst case,
//! not average.
//!
//! The request mix cycles deterministically through `distinct_workloads`
//! parameter sets derived from the scenario registry (seed-rotated), so
//! the expected cache-hit fraction is controlled: with `w` workloads and
//! `n` total requests, a memoizing server sees exactly `w` misses.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use sss_core::{ModelParams, Scenario};
use sss_exec::SeedSequence;
use sss_stats::{Summary, TailMetrics};
use sss_units::Ratio;

/// What to run: target address, concurrency, volume, and request mix.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpLoadSpec {
    /// Server address, e.g. `"127.0.0.1:8080"`.
    pub addr: String,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Size of the workload pool the clients cycle through; small values
    /// make the run cache-friendly, large values cache-hostile.
    pub distinct_workloads: usize,
    /// Seed rotating which registry scenarios anchor the workload pool.
    pub seed: u64,
}

impl HttpLoadSpec {
    /// A short smoke run against `addr`: 4 clients × 50 requests over 8
    /// distinct workloads.
    pub fn smoke(addr: impl Into<String>) -> Self {
        HttpLoadSpec {
            addr: addr.into(),
            clients: 4,
            requests_per_client: 50,
            distinct_workloads: 8,
            seed: 42,
        }
    }

    /// Reject degenerate configurations before opening sockets.
    pub fn validate(&self) -> Result<(), String> {
        if self.clients == 0 || self.requests_per_client == 0 {
            return Err("clients and requests must be positive".into());
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
    /// Requests answered with `200`.
    pub ok: u64,
    /// Requests answered with any other status.
    pub errors: u64,
    /// Wall-clock duration of the whole run, seconds.
    pub elapsed_s: f64,
    /// `ok / elapsed`: sustained request throughput.
    pub throughput_rps: f64,
    /// Per-request latency digest, seconds.
    pub latency: TailMetrics,
    /// Streaming mean/min/max of the same latencies, seconds.
    pub summary: Summary,
}

struct ClientOutcome {
    ok: u64,
    errors: u64,
    latencies_s: Vec<f64>,
}

/// Read one HTTP response (status line, headers, `Content-Length` body)
/// and return its status code and body.
fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<(u16, Vec<u8>)> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned());
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(bad("connection closed before status line"));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;

    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

/// One client's closed loop over its persistent connection.
fn run_client(
    spec: &HttpLoadSpec,
    client: usize,
    bodies: &[String],
) -> std::io::Result<ClientOutcome> {
    let stream = TcpStream::connect(&spec.addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut outcome = ClientOutcome {
        ok: 0,
        errors: 0,
        latencies_s: Vec::with_capacity(spec.requests_per_client),
    };
    for k in 0..spec.requests_per_client {
        // Stripe the pool across clients so concurrent requests mix
        // workloads instead of marching in lockstep.
        let body = &bodies[(client + k * spec.clients) % bodies.len()];
        #[allow(clippy::disallowed_methods)]
        // sss-lint: allow(D002, closed-loop latency of a real server is wall-clock by definition; never feeds simulation state)
        let started = Instant::now();
        write!(
            writer,
            "POST /decide HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        )?;
        writer.flush()?;
        let (status, _body) = read_response(&mut reader)?;
        outcome.latencies_s.push(started.elapsed().as_secs_f64());
        if status == 200 {
            outcome.ok += 1;
        } else {
            outcome.errors += 1;
        }
    }
    Ok(outcome)
}

/// Run the closed-loop load and aggregate every client's measurements.
///
/// Fails if the spec is degenerate or any client cannot connect; a
/// connected client that later hits an I/O error surfaces that error too
/// (partial results are not reported — a half-run throughput number would
/// mislead).
pub fn run_http_load(spec: &HttpLoadSpec) -> Result<HttpLoadReport, String> {
    spec.validate()?;
    let bodies: Vec<String> = spec
        .workloads()
        .iter()
        .map(|p| {
            serde_json::to_string(&ModelParamsBody::from(p))
                .map_err(|e| format!("serializing request body: {e}"))
        })
        .collect::<Result<_, String>>()?;

    #[allow(clippy::disallowed_methods)]
    // sss-lint: allow(D002, wall-clock throughput measurement of a real server; never feeds simulation state)
    let started = Instant::now();
    let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|client| {
                let bodies = &bodies;
                scope.spawn(move || {
                    run_client(spec, client, bodies).map_err(|e| format!("client {client}: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    let mut ok = 0;
    let mut errors = 0;
    let mut latencies = Vec::with_capacity(spec.clients * spec.requests_per_client);
    for outcome in outcomes {
        let outcome = outcome?;
        ok += outcome.ok;
        errors += outcome.errors;
        latencies.extend(outcome.latencies_s);
    }
    let latency =
        TailMetrics::from_samples(&latencies).ok_or_else(|| "no latencies measured".to_string())?;
    Ok(HttpLoadReport {
        spec: spec.clone(),
        ok,
        errors,
        elapsed_s,
        throughput_rps: ok as f64 / elapsed_s.max(f64::MIN_POSITIVE),
        latency,
        summary: Summary::from_samples(&latencies),
    })
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

/// Render a load report as the standard results table (milliseconds for
/// the latency columns).
pub fn loadtest_table(report: &HttpLoadReport) -> sss_report::Table {
    let ms = |s: f64| format!("{:.3}", s * 1e3);
    let mut table = sss_report::Table::new([
        "clients",
        "requests",
        "ok",
        "errors",
        "elapsed s",
        "req/s",
        "p50 ms",
        "p90 ms",
        "p99 ms",
        "max ms",
    ])
    .with_title(format!(
        "Closed-loop /decide load against {} ({} distinct workloads)",
        report.spec.addr, report.spec.distinct_workloads
    ));
    table.row([
        report.spec.clients.to_string(),
        (report.ok + report.errors).to_string(),
        report.ok.to_string(),
        report.errors.to_string(),
        format!("{:.3}", report.elapsed_s),
        format!("{:.0}", report.throughput_rps),
        ms(report.latency.p50),
        ms(report.latency.p90),
        ms(report.latency.p99),
        ms(report.latency.max),
    ]);
    table
}

// ── Connection-ramp mode ────────────────────────────────────────────────

/// Spec for the connection-ramp mode: one process opens `connections`
/// keep-alive HTTP/1.1 connections, holds **all of them open at once**,
/// and runs a closed loop (one outstanding request per connection) over
/// the whole set from a single nonblocking event loop.
///
/// Where [`HttpLoadSpec`] measures request throughput at thread-friendly
/// concurrency, this mode probes the *connection ceiling*: how many
/// simultaneously-open sockets the server front end actually sustains.
/// The report carries the observed ceiling next to req/s and the latency
/// tail.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnRampSpec {
    /// Server address, e.g. `"127.0.0.1:8080"`.
    pub addr: String,
    /// Keep-alive connections to open and hold simultaneously.
    pub connections: usize,
    /// Closed-loop requests each connection issues once open.
    pub requests_per_conn: usize,
    /// Workload pool size (same semantics as [`HttpLoadSpec`]).
    pub distinct_workloads: usize,
    /// Seed rotating the pool's anchor scenarios.
    pub seed: u64,
}

impl ConnRampSpec {
    /// A short smoke ramp against `addr`: 64 connections × 4 requests
    /// over 8 distinct workloads.
    pub fn smoke(addr: impl Into<String>) -> Self {
        ConnRampSpec {
            addr: addr.into(),
            connections: 64,
            requests_per_conn: 4,
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

    /// The same deterministic workload pool [`HttpLoadSpec::workloads`]
    /// produces for this `(distinct_workloads, seed)` — both modes hit a
    /// memoizing server with an identical miss set.
    pub fn workloads(&self) -> Vec<ModelParams> {
        HttpLoadSpec {
            addr: String::new(),
            clients: 1,
            requests_per_client: 1,
            distinct_workloads: self.distinct_workloads,
            seed: self.seed,
        }
        .workloads()
    }
}

/// What one connection-ramp run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnRampReport {
    /// The spec that produced this report.
    pub spec: ConnRampSpec,
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
    /// Streaming mean/min/max of the same latencies, seconds.
    pub summary: Summary,
}

/// Run the connection ramp: open the set, then drive the closed loop from
/// one epoll event loop until every surviving connection finishes.
///
/// Falling short of `spec.connections` is *not* an error — the observed
/// ceiling is the measurement. Fails only when the spec is degenerate, no
/// connection opens at all, or the event loop stalls (60 s without a
/// single readiness event).
#[cfg(target_os = "linux")]
pub fn run_conn_ramp(spec: &ConnRampSpec) -> Result<ConnRampReport, String> {
    ramp::run(spec)
}

/// Non-Linux stub: the ramp client needs the epoll readiness layer.
#[cfg(not(target_os = "linux"))]
pub fn run_conn_ramp(spec: &ConnRampSpec) -> Result<ConnRampReport, String> {
    spec.validate()?;
    Err("connection-ramp mode requires the Linux epoll readiness layer".into())
}

/// Render a ramp report as the standard results table (latency columns in
/// milliseconds; "open ceiling" is the simultaneously-held connection
/// count actually reached).
pub fn ramp_table(report: &ConnRampReport) -> sss_report::Table {
    let ms = |s: f64| format!("{:.3}", s * 1e3);
    let mut table = sss_report::Table::new([
        "target conns",
        "open ceiling",
        "completed",
        "ok",
        "errors",
        "ramp s",
        "elapsed s",
        "req/s",
        "p50 ms",
        "p90 ms",
        "p99 ms",
    ])
    .with_title(format!(
        "Connection ramp against {} ({} keep-alive requests per connection)",
        report.spec.addr, report.spec.requests_per_conn
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
    ]);
    table
}

#[cfg(target_os = "linux")]
mod ramp {
    //! The nonblocking ramp engine: a single thread drives every
    //! connection through `sss_exec::poll` — the same readiness layer the
    //! server's reactor front end stands on — so 10k+ sockets need 10k
    //! file descriptors, not 10k threads.

    use std::io::{ErrorKind, Read, Write};
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    use sss_exec::poll::{raise_nofile_limit, Events, Poller};
    use sss_stats::{Summary, TailMetrics};

    use super::{ConnRampReport, ConnRampSpec, ModelParamsBody};

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

    /// One nonblocking connection's closed-loop state.
    struct RampConn {
        stream: TcpStream,
        fd: i32,
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
        started_at: Instant,
        /// Finished or died — no longer polled (socket stays open).
        done: bool,
        /// Interest set currently registered with the poller.
        registered: (bool, bool),
    }

    impl RampConn {
        fn new(stream: TcpStream) -> Self {
            let fd = stream.as_raw_fd();
            #[allow(clippy::disallowed_methods)]
            // sss-lint: allow(D002, per-request wall-clock latency of a real server; never feeds simulation state)
            let started_at = Instant::now();
            RampConn {
                stream,
                fd,
                out: Vec::new(),
                out_pos: 0,
                resp: Vec::new(),
                head: None,
                sent: 0,
                finished: 0,
                started_at,
                done: false,
                registered: (false, false),
            }
        }

        fn wants_write(&self) -> bool {
            self.out_pos < self.out.len()
        }

        /// Queue the next request (striped across the pool the same way
        /// [`super::run_http_load`] stripes clients) and start its clock.
        fn begin_request(&mut self, idx: usize, total: usize, requests: &[Vec<u8>]) {
            let k = self.sent;
            self.out
                .extend_from_slice(&requests[(idx + k * total) % requests.len()]);
            self.sent += 1;
            #[allow(clippy::disallowed_methods)]
            // sss-lint: allow(D002, per-request wall-clock latency of a real server; never feeds simulation state)
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

        /// React to a readiness event: drain writes, drain reads through
        /// the response framer, queue follow-up requests. `Err` means the
        /// connection died and should be counted as an error.
        #[allow(clippy::too_many_arguments)]
        fn step(
            &mut self,
            readable: bool,
            writable: bool,
            scratch: &mut [u8],
            requests: &[Vec<u8>],
            idx: usize,
            total: usize,
            requests_per_conn: usize,
            ok: &mut u64,
            errors: &mut u64,
            latencies: &mut Vec<f64>,
        ) -> Result<(), ()> {
            if writable {
                self.flush()?;
            }
            if readable {
                loop {
                    if self.finished >= requests_per_conn {
                        break;
                    }
                    match self.stream.read(scratch) {
                        Ok(0) => return Err(()),
                        Ok(n) => {
                            self.resp.extend_from_slice(&scratch[..n]);
                            self.consume_responses(
                                requests,
                                idx,
                                total,
                                requests_per_conn,
                                ok,
                                errors,
                                latencies,
                            )?;
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
        #[allow(clippy::too_many_arguments)]
        fn consume_responses(
            &mut self,
            requests: &[Vec<u8>],
            idx: usize,
            total: usize,
            requests_per_conn: usize,
            ok: &mut u64,
            errors: &mut u64,
            latencies: &mut Vec<f64>,
        ) -> Result<(), ()> {
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
                latencies.push(self.started_at.elapsed().as_secs_f64());
                if head.status == 200 {
                    *ok += 1;
                } else {
                    *errors += 1;
                }
                self.resp.drain(..head.total);
                self.head = None;
                self.finished += 1;
                if self.finished >= requests_per_conn {
                    return Ok(());
                }
                self.begin_request(idx, total, requests);
            }
        }
    }

    /// Connect with a short exponential backoff: a fast ramp can outrun
    /// the listen backlog, and a refused connect that succeeds 10 ms
    /// later is a queue, not a ceiling.
    fn connect_with_retry(addr: &str) -> std::io::Result<TcpStream> {
        let mut delay = Duration::from_millis(2);
        let mut attempt = 0;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => return Ok(stream),
                Err(e) if attempt >= 5 => return Err(e),
                Err(_) => {
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                    attempt += 1;
                }
            }
        }
    }

    pub(super) fn run(spec: &ConnRampSpec) -> Result<ConnRampReport, String> {
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

        #[allow(clippy::disallowed_methods)]
        // sss-lint: allow(D002, wall-clock throughput measurement of a real server; never feeds simulation state)
        let started = Instant::now();

        // Ramp phase: open until the target or the first hard refusal —
        // the shortfall is the measurement, not a failure.
        let mut conns = Vec::with_capacity(spec.connections);
        let mut errors = 0u64;
        for _ in 0..spec.connections {
            match connect_with_retry(&spec.addr) {
                Ok(stream) => {
                    if stream
                        .set_nodelay(true)
                        .and_then(|()| stream.set_nonblocking(true))
                        .is_err()
                    {
                        errors += 1;
                        break;
                    }
                    conns.push(RampConn::new(stream));
                }
                Err(_) => {
                    errors += 1;
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
        let poller = Poller::new().map_err(|e| format!("creating poller: {e}"))?;
        let mut ok = 0u64;
        let mut latencies = Vec::with_capacity(opened.saturating_mul(spec.requests_per_conn));
        let mut finished_conns = 0usize;
        for (idx, conn) in conns.iter_mut().enumerate() {
            conn.begin_request(idx, opened, &requests);
            let registered = conn.flush().is_ok()
                && poller
                    .add(conn.fd, idx as u64, true, conn.wants_write())
                    .is_ok();
            if registered {
                conn.registered = (true, conn.wants_write());
            } else {
                conn.done = true;
                errors += 1;
                finished_conns += 1;
            }
        }

        let mut events = Events::with_capacity(1024);
        let mut scratch = vec![0u8; 16 * 1024];
        let mut quiet = 0u32;
        while finished_conns < opened {
            let n = poller
                .wait(&mut events, TICK_MS)
                .map_err(|e| format!("polling: {e}"))?;
            if n == 0 {
                quiet += 1;
                if quiet >= STALL_TICKS {
                    return Err(format!(
                        "connection ramp stalled: {} of {opened} connections silent for {} s",
                        opened - finished_conns,
                        i64::from(STALL_TICKS) * i64::from(TICK_MS) / 1000
                    ));
                }
                continue;
            }
            quiet = 0;
            for event in events.iter() {
                let idx = event.token as usize;
                let Some(conn) = conns.get_mut(idx) else {
                    continue;
                };
                if conn.done {
                    continue;
                }
                // Fold kernel error flags into both directions: the next
                // read/write observes the failure and retires the
                // connection.
                let dead = conn
                    .step(
                        event.readable || event.error,
                        event.writable || event.error,
                        &mut scratch,
                        &requests,
                        idx,
                        opened,
                        spec.requests_per_conn,
                        &mut ok,
                        &mut errors,
                        &mut latencies,
                    )
                    .is_err();
                if dead {
                    errors += 1;
                    conn.done = true;
                    let _ = poller.remove(conn.fd);
                    finished_conns += 1;
                    continue;
                }
                if conn.finished >= spec.requests_per_conn {
                    // All answered. Stop polling but keep the socket open:
                    // the run measures *held* connections, so the whole
                    // set stays simultaneously open until the report.
                    conn.done = true;
                    let _ = poller.remove(conn.fd);
                    finished_conns += 1;
                    continue;
                }
                let want = (true, conn.wants_write());
                if want != conn.registered {
                    if poller.modify(conn.fd, idx as u64, want.0, want.1).is_err() {
                        errors += 1;
                        conn.done = true;
                        let _ = poller.remove(conn.fd);
                        finished_conns += 1;
                        continue;
                    }
                    conn.registered = want;
                }
            }
        }

        let elapsed_s = started.elapsed().as_secs_f64();
        let serve_s = (elapsed_s - ramp_s).max(f64::MIN_POSITIVE);
        let completed = conns
            .iter()
            .filter(|c| c.finished >= spec.requests_per_conn)
            .count();
        let latency = TailMetrics::from_samples(&latencies)
            .ok_or_else(|| "no latencies measured".to_string())?;
        Ok(ConnRampReport {
            spec: spec.clone(),
            opened,
            completed,
            ok,
            errors,
            ramp_s,
            elapsed_s,
            throughput_rps: ok as f64 / serve_s,
            latency,
            summary: Summary::from_samples(&latencies),
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
        spec.clients = 0;
        assert!(spec.validate().is_err());
        let mut spec = HttpLoadSpec::smoke("unused");
        spec.distinct_workloads = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn response_reader_parses_framed_body() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello";
        let (status, body) = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"hello");
    }

    #[test]
    fn response_reader_rejects_garbage() {
        let wire = b"not http\r\n\r\n";
        assert!(read_response(&mut BufReader::new(&wire[..])).is_err());
    }

    #[test]
    fn ramp_spec_validates_and_shares_the_pool() {
        let mut spec = ConnRampSpec::smoke("unused");
        spec.connections = 0;
        assert!(spec.validate().is_err());
        let mut spec = ConnRampSpec::smoke("unused");
        spec.distinct_workloads = 0;
        assert!(spec.validate().is_err());

        let ramp = ConnRampSpec {
            distinct_workloads: 24,
            seed: 7,
            ..ConnRampSpec::smoke("unused")
        };
        let load = HttpLoadSpec {
            distinct_workloads: 24,
            seed: 7,
            ..HttpLoadSpec::smoke("unused")
        };
        assert_eq!(ramp.workloads(), load.workloads());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn ramp_head_parser_frames_and_rejects() {
        use super::ramp::{parse_head, RespHead};

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
    fn ramp_errs_without_a_server() {
        // Port 9 on localhost (discard) is essentially never bound in the
        // test environment; all connects fail, so the run reports that it
        // could not open any connection.
        let spec = ConnRampSpec {
            connections: 1,
            requests_per_conn: 1,
            ..ConnRampSpec::smoke("127.0.0.1:9")
        };
        let err = run_conn_ramp(&spec).unwrap_err();
        assert!(err.contains("could not open any connection"), "{err}");
    }
}
