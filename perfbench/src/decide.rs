//! The `decide_miss` and `decide_hit` measurements: open-loop Poisson
//! `POST /decide` against an in-process reactor server. They run inside
//! the traced pass (see `README.md` for why they are not timed workloads).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde_json::Value;
use sss_core::{Decision, ModelParams, Scenario};
use sss_server::{DecideRequest, DecideResponse, Server, ServerConfig, ServerHandle};

use crate::nproc;
use crate::openloop::{self, Run};
use crate::stats::{digest, median, quantile, time_s, SplitMix};

/// Offered rate of the latency phase, requests per second.
const NOMINAL_RPS: f64 = 4000.0;
/// The latency limit the capacity ladder holds p99 to.
const P99_LIMIT_MS: f64 = 1.0;
/// Decision-cache capacity; the miss workload's warm-up fills it, so every
/// timed insert also evicts.
const CACHE_CAPACITY: usize = 4096;
const MAX_BATCH: usize = 32;
/// Distinct parameter sets the hit workload cycles through.
pub const HOT_KEYS: usize = 16;
/// Requests sent back to back before timing starts.
const WARMUP_REQUESTS: usize = 4096;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Steps of the capacity ladder, and its lowest rung and growth factor.
const LADDER_STEPS: u64 = 14;
const LADDER_BASE_RPS: f64 = 2.0 * NOMINAL_RPS;
const LADDER_GROWTH: f64 = 1.2;
/// Shares of a run's seconds spent at the nominal rate and on the ladder.
const NOMINAL_SHARE: f64 = 0.4;
const LADDER_SHARE: f64 = 0.6;
/// Schedule windows of the latency phase and of each ladder step.
const NOMINAL_WINDOWS: usize = 20;
const STEP_WINDOWS: usize = 5;
/// How long a run waits for answers after its last send.
const DRAIN: Duration = Duration::from_secs(2);

/// Stream ids, so no two phases ever send the same miss parameters.
const PHASE_WARMUP: u64 = 0;
const PHASE_NOMINAL: u64 = 1;
const PHASE_LADDER: u64 = 2;
const PHASE_HOT: u64 = u64::MAX;

/// The request inputs of one decide workload: a pure function of the
/// seed and whether the workload repeats 16 hot keys.
pub struct Inputs {
    seed: u64,
    hot: bool,
    lo: [f64; 7],
    hi: [f64; 7],
    hot_bodies: Vec<String>,
}

fn fields(r: &DecideRequest) -> [f64; 7] {
    [
        r.data_gb,
        r.intensity_tflop_per_gb,
        r.local_tflops,
        r.remote_tflops,
        r.bandwidth_gbps,
        r.alpha,
        r.theta,
    ]
}

impl Inputs {
    pub fn new(seed: u64, hot: bool) -> Self {
        let catalog: Vec<[f64; 7]> = Scenario::all()
            .iter()
            .map(|s| fields(&DecideRequest::from_params(&s.params)))
            .collect();
        let mut lo = [f64::INFINITY; 7];
        let mut hi = [0.0f64; 7];
        for f in &catalog {
            for k in 0..7 {
                lo[k] = lo[k].min(f[k]);
                hi[k] = hi[k].max(f[k]);
            }
        }
        let mut inputs = Inputs {
            seed,
            hot,
            lo,
            hi,
            hot_bodies: Vec::new(),
        };
        inputs.hot_bodies = (0..HOT_KEYS)
            .map(|i| inputs.fresh_body(PHASE_HOT, i))
            .collect();
        inputs
    }

    /// A parameter set drawn across the catalog's range of every field.
    fn fresh_body(&self, phase: u64, i: usize) -> String {
        let mut rng = SplitMix::stream(self.seed, (phase << 32) | i as u64);
        let v: [f64; 7] = std::array::from_fn(|k| rng.log_uniform(self.lo[k], self.hi[k]));
        let request = DecideRequest {
            data_gb: v[0],
            intensity_tflop_per_gb: v[1],
            local_tflops: v[2],
            remote_tflops: v[3],
            bandwidth_gbps: v[4],
            alpha: v[5],
            theta: v[6],
        };
        serde_json::to_string(&request).expect("a DecideRequest serializes")
    }

    /// Which hot key request `i` of `phase` asks for (hit workload only).
    fn hot_index(&self, phase: u64, i: usize) -> usize {
        if phase == PHASE_WARMUP {
            i % HOT_KEYS
        } else {
            (SplitMix::stream(self.seed ^ phase, i as u64).next_u64() % HOT_KEYS as u64) as usize
        }
    }

    /// The JSON body of request `i` in `phase`.
    pub fn body(&self, phase: u64, i: usize) -> String {
        if self.hot {
            self.hot_bodies[self.hot_index(phase, i)].clone()
        } else {
            self.fresh_body(phase, i)
        }
    }

    /// Append request `i` of `phase` as HTTP wire bytes.
    pub fn wire(&self, phase: u64, i: usize, out: &mut Vec<u8>) {
        let body = self.body(phase, i);
        write!(
            out,
            "POST /decide HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .expect("writing to a Vec cannot fail");
    }
}

/// The model parameters a generated `body` decodes to, as the service
/// decodes them.
pub fn params_of(body: &str) -> ModelParams {
    let request: DecideRequest = serde_json::from_str(body).expect("generated body parses");
    request.params().expect("generated parameters are valid")
}

/// The response the service must send for `body`: evaluated directly
/// through the public API, as `(digest, length, verdict)`.
fn expected(body: &str) -> (u64, usize, Decision) {
    let response = DecideResponse::evaluate(&params_of(body));
    let text = serde_json::to_string(&response).expect("a DecideResponse serializes");
    (
        digest(text.as_bytes()),
        text.len(),
        response.report.decision,
    )
}

/// Tally of checked answers.
#[derive(Debug, Default, Clone)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    pub verdicts: BTreeMap<String, u64>,
}

impl Checked {
    fn add(&mut self, other: &Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in &other.verdicts {
            *self.verdicts.entry(k.clone()).or_default() += v;
        }
    }
}

/// Check every answer of `run` (sent as `phase`) against the direct
/// evaluation: status 200 and byte-equal bodies.
fn check(inputs: &Inputs, phase: u64, run: &Run) -> Checked {
    let mut hot_memo: Vec<Option<(u64, usize, Decision)>> = vec![None; HOT_KEYS];
    let mut out = Checked {
        attempted: run.answers.len() as u64,
        ..Checked::default()
    };
    for (i, answer) in run.answers.iter().enumerate() {
        let want = if inputs.hot {
            let k = inputs.hot_index(phase, i);
            *hot_memo[k].get_or_insert_with(|| expected(&inputs.hot_bodies[k]))
        } else {
            expected(&inputs.body(phase, i))
        };
        *out.verdicts.entry(format!("{:?}", want.2)).or_default() += 1;
        let ok = answer
            .is_some_and(|a| a.status == 200 && (a.body_digest, a.body_len) == (want.0, want.1));
        if !ok {
            out.failed += 1;
        }
    }
    out
}

/// A bound, warmed server and its client connections.
struct Live {
    handle: ServerHandle,
    streams: Vec<TcpStream>,
}

impl Live {
    fn shutdown(self) {
        drop(self.streams);
        self.handle.shutdown();
    }

    /// `GET /healthz`, parsed.
    fn healthz(&self) -> Value {
        let mut sock = TcpStream::connect(self.handle.addr()).expect("connect for /healthz");
        sock.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
            .expect("send /healthz");
        let mut text = String::new();
        sock.read_to_string(&mut text).expect("read /healthz");
        let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
        serde_json::from_str(body).expect("/healthz is JSON")
    }
}

/// Bind, connect `nproc` keep-alive connections and send the warm-up.
/// Returns the server, the warm-up's check tally, and the seconds taken.
fn setup(inputs: &Inputs) -> (Live, Checked, f64) {
    let ((live, warm), secs) = time_s(|| {
        let server = Server::bind(ServerConfig {
            workers: nproc(),
            cache_capacity: CACHE_CAPACITY,
            max_batch: MAX_BATCH,
            ..ServerConfig::default()
        })
        .expect("bind the decision service");
        let addr = server.local_addr();
        let handle = server.spawn();
        let streams: Vec<TcpStream> = (0..nproc())
            .map(|_| {
                let s = TcpStream::connect(addr).expect("connect to the decision service");
                s.set_nodelay(true).expect("set TCP_NODELAY");
                s
            })
            .collect();
        let burst = vec![0u64; WARMUP_REQUESTS];
        let warm = openloop::run(
            &streams,
            &burst,
            |i, out| inputs.wire(PHASE_WARMUP, i, out),
            DRAIN,
        )
        .expect("warm-up run");
        (Live { handle, streams }, warm)
    });
    let checked = check(inputs, PHASE_WARMUP, &warm);
    (live, checked, secs)
}

/// One open-loop phase at `rate` for `seconds`, checked.
struct Phase {
    run: Run,
    checked: Checked,
}

impl Phase {
    /// Answered latencies in ms, split into `k` windows of equal schedule
    /// time.
    fn windows(&self, k: usize) -> Vec<Vec<f64>> {
        let span = self.run.scheduled_ns.last().copied().unwrap_or(0) + 1;
        let mut out = vec![Vec::new(); k];
        for i in 0..self.run.answers.len() {
            if let Some(l) = self.run.latency_ms(i) {
                out[(self.run.scheduled_ns[i] as u128 * k as u128 / span as u128) as usize].push(l);
            }
        }
        out
    }

    /// Answered latencies in ms.
    fn latencies(&self) -> Vec<f64> {
        (0..self.run.answers.len())
            .filter_map(|i| self.run.latency_ms(i))
            .collect()
    }

    fn lateness_p99_us(&self) -> f64 {
        let late: Vec<f64> = self
            .run
            .lateness_ns
            .iter()
            .map(|&n| n as f64 / 1e3)
            .collect();
        quantile(&late, 0.99)
    }
}

fn phase(live: &Live, inputs: &Inputs, phase_id: u64, rate: f64, seconds: f64) -> Phase {
    let schedule = openloop::poisson_schedule(inputs.seed ^ phase_id, rate, seconds);
    let run = openloop::run(
        &live.streams,
        &schedule,
        |i, out| inputs.wire(phase_id, i, out),
        DRAIN,
    )
    .expect("open-loop run");
    let checked = check(inputs, phase_id, &run);
    Phase { run, checked }
}

/// The median over `k` equal schedule windows of each window's p99, so a
/// single host stall inside one window does not decide the whole phase.
fn windowed_p99(phase: &Phase, k: usize) -> f64 {
    let p99s: Vec<f64> = phase
        .windows(k)
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, 0.99))
        .collect();
    median(&p99s)
}

/// The p99 of one ladder step, or infinity when the step did not keep up:
/// fewer than 99% of its requests answered by its last send (throughput
/// below 99% of offered, or a growing backlog), or a failed check.
fn step_p99(
    live: &Live,
    inputs: &Inputs,
    k: u64,
    rate: f64,
    seconds: f64,
    tally: &mut Checked,
) -> f64 {
    let p = phase(live, inputs, PHASE_LADDER + k, rate, seconds);
    tally.add(&p.checked);
    let n = p.run.answers.len();
    let kept_up = p.checked.failed == 0 && p.run.answered_by_last_send() as f64 >= 0.99 * n as f64;
    if kept_up {
        windowed_p99(&p, STEP_WINDOWS)
    } else {
        f64::INFINITY
    }
}

/// Offered rate of ladder rung `j`.
fn rung_rate(j: usize) -> f64 {
    LADDER_BASE_RPS * LADDER_GROWTH.powi(j as i32)
}

/// The capacity ladder. Rungs grow geometrically from
/// [`LADDER_BASE_RPS`]; the climb stops once two consecutive rungs miss
/// the p99 limit, so one stall of the shared host cannot end it. The
/// steps left are spent re-measuring the rungs around that knee, and each
/// rung's p99 is the median of its measurements. The capacity is the
/// rate where that curve first crosses the limit (before a second miss),
/// interpolated log-log between the last rung under it and the first
/// over it, so it is not pinned to the grid.
fn capacity(live: &Live, inputs: &Inputs, seconds: f64, tally: &mut Checked) -> (f64, String) {
    let step_s = seconds / LADDER_STEPS as f64;
    let mut rungs: Vec<Vec<f64>> = Vec::new();
    let mut k = 0;
    let mut misses = 0;
    while k < LADDER_STEPS && misses < 2 {
        let p99 = step_p99(live, inputs, k, rung_rate(rungs.len()), step_s, tally);
        misses = if p99 > P99_LIMIT_MS { misses + 1 } else { 0 };
        rungs.push(vec![p99]);
        k += 1;
    }
    // Re-measure the last rung under the knee and the two over it.
    let top = rungs.len();
    let around: Vec<usize> = (top.saturating_sub(3)..top).collect();
    for j in around.iter().cycle().take((LADDER_STEPS - k) as usize) {
        let p99 = step_p99(live, inputs, k, rung_rate(*j), step_s, tally);
        rungs[*j].push(p99);
        k += 1;
    }
    let curve: Vec<f64> = rungs.iter().map(|r| median(r)).collect();
    let over = |j: usize| curve.get(j).is_none_or(|&p| p > P99_LIMIT_MS);
    let capacity = match (0..curve.len()).find(|&j| over(j) && over(j + 1)) {
        // Even the lowest rung missed: the capacity is below the ladder.
        Some(0) => rung_rate(0) / LADDER_GROWTH,
        Some(c) if curve[c].is_finite() && curve[c - 1] > 0.0 => {
            let (lo, hi) = (curve[c - 1], curve[c]);
            let f = (P99_LIMIT_MS.ln() - lo.ln()) / (hi.ln() - lo.ln());
            (rung_rate(c - 1).ln() + f.clamp(0.0, 1.0) * LADDER_GROWTH.ln()).exp()
        }
        Some(c) => rung_rate(c - 1),
        // Never two misses in a row: the capacity is above the ladder.
        None => rung_rate(curve.len() - 1),
    };
    let log: Vec<String> = rungs
        .iter()
        .enumerate()
        .map(|(j, r)| {
            let tries: Vec<String> = r.iter().map(|p| format!("{p:.3}")).collect();
            format!("{:.0}:{}", rung_rate(j), tries.join("/"))
        })
        .collect();
    (capacity, log.join(" "))
}

/// Everything one decide workload's measurement produced.
pub struct Figures {
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub capacity_rps: f64,
    pub setup_s: f64,
    pub lateness_p99_us: f64,
    /// Decision-cache hits ÷ lookups over the nominal phase (`/healthz`).
    pub hit_ratio: f64,
    /// `/decide` requests per batcher wave over the nominal phase.
    pub mean_batch: f64,
    pub checked: Checked,
    pub notes: Vec<String>,
}

fn counter(health: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(health, |v, k| v.get(k))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

/// Measure `decide_miss` (`hot = false`) or `decide_hit` for `seconds`:
/// [`SETUPS`] set-ups, then the nominal-rate phase (`/healthz` read
/// around it), then the capacity ladder on the last server.
pub fn measure(seed: u64, seconds: f64, hot: bool) -> Figures {
    let inputs = Inputs::new(seed, hot);
    let mut tally = Checked::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for k in 0..SETUPS {
        let (l, warm, secs) = setup(&inputs);
        tally.add(&warm);
        setups.push(secs);
        if k + 1 < SETUPS {
            l.shutdown();
        } else {
            live = Some(l);
        }
    }
    let live = live.expect("at least one set-up");

    let before = live.healthz();
    let nominal = phase(
        &live,
        &inputs,
        PHASE_NOMINAL,
        NOMINAL_RPS,
        seconds * NOMINAL_SHARE,
    );
    let after = live.healthz();
    tally.add(&nominal.checked);
    let (capacity_rps, ladder) = capacity(&live, &inputs, seconds * LADDER_SHARE, &mut tally);
    live.shutdown();

    let delta = |path: &[&str]| counter(&after, path) - counter(&before, path);
    let hits = delta(&["cache", "hits"]);
    let lookups = hits + delta(&["cache", "misses"]);
    let latencies = nominal.latencies();
    let name = if hot { "decide_hit" } else { "decide_miss" };
    let notes = vec![
        format!(
            "{name}: {} requests at {NOMINAL_RPS} req/s, {hits} cache hits of {lookups} lookups, \
             generator lateness p99 {:.1} us",
            latencies.len(),
            nominal.lateness_p99_us()
        ),
        format!("{name} verdicts: {:?}", nominal.checked.verdicts),
        format!("{name} ladder (rate:p99_ms of each try): {ladder}"),
    ];
    Figures {
        latency_p50_ms: quantile(&latencies, 0.5),
        latency_p99_ms: windowed_p99(&nominal, NOMINAL_WINDOWS),
        capacity_rps,
        setup_s: median(&setups),
        lateness_p99_us: nominal.lateness_p99_us(),
        hit_ratio: hits / lookups,
        mean_batch: delta(&["batch", "requests"]) / delta(&["batch", "batches"]),
        checked: tally,
        notes,
    }
}
