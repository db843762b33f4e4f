//! Service configuration, request router, and lifecycle handle.

use std::collections::HashSet;
use std::convert::Infallible;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use sss_loadgen::{AdmissionPolicy, FleetConfig, ReplayConfig};
use sss_sim::{Fidelity, TraceShape};
use sss_units::Ratio;

use sss_exec::poll::WakePipe;
use sss_exec::ThreadPool;

use crate::api::{
    ErrorResponse, FleetRequest, FrontierRequest, ScenariosResponse, SimulateRequest, TiersRequest,
};
use crate::batch::{BatchStats, Batcher};
use crate::cache::{CacheKey, CacheStats, DecisionCache, ResponseCache};
use crate::http::Request;

/// How the service is sized. `Default` is a sensible interactive setup:
/// an OS-assigned port, one worker per core, a 4096-entry cache and
/// 32-request batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// TCP port to bind on `127.0.0.1` (0 = let the OS pick).
    pub port: u16,
    /// Worker threads evaluating `/decide` batches.
    pub workers: usize,
    /// Decision-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Maximum `/decide` requests evaluated per pool wave.
    pub max_batch: usize,
    /// Largest fleet a single `POST /fleet` request may simulate;
    /// requests above it get a 400. Defaults to
    /// [`FleetRequest::DEFAULT_SESSION_CAP`] and is reported by
    /// `GET /healthz`.
    pub fleet_session_cap: u32,
    /// Most connections the reactor holds open at once; accepts beyond it
    /// are dropped immediately.
    pub max_connections: usize,
    /// Idle timeout counted in quiet reactor ticks — `epoll_wait`
    /// timeouts with zero events — so the hot path never reads a wall
    /// clock (0 disables the timeout). The nominal idle window is
    /// `idle_timeout_ticks × tick_ms`.
    pub idle_timeout_ticks: u64,
    /// Reactor tick length: the bound on `epoll_wait`, and therefore on
    /// how stale a shutdown flag can go unobserved, in milliseconds.
    pub tick_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            workers: ThreadPool::with_available_parallelism().workers(),
            cache_capacity: 4096,
            max_batch: 32,
            fleet_session_cap: FleetRequest::DEFAULT_SESSION_CAP,
            // Plenty for the CI box, far under typical fd hard caps.
            max_connections: 16 * 1024,
            // 300 ticks × 100 ms = a 30 s idle window.
            idle_timeout_ticks: 300,
            // 100 ms shutdown-observation bound.
            tick_ms: 100,
        }
    }
}

/// The identity of a `/frontier` query: quantized base parameters plus
/// every knob that shapes the map. Two requests with the same key get the
/// same bytes back.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FrontierKey {
    params: CacheKey,
    x: String,
    y: String,
    z: Option<String>,
    resolution: usize,
    tolerance_bits: u64,
    slices: usize,
}

impl FrontierKey {
    fn of(request: &FrontierRequest, params: &sss_core::ModelParams) -> Self {
        FrontierKey {
            params: CacheKey::of(params),
            x: request.x.clone(),
            y: request.y.clone(),
            z: request.z.clone(),
            resolution: request.resolution,
            tolerance_bits: request.tolerance.to_bits(),
            slices: request.slices,
        }
    }
}

/// Frontier responses are three orders of magnitude bigger than decide
/// bodies, so their cache holds at most this many entries regardless of
/// the configured `/decide` capacity.
const FRONTIER_CACHE_CAP: usize = 64;

/// `/simulate` bodies are mid-sized (one record per trace shape), so
/// their cache sits between the decide and frontier caps.
const SIMULATE_CACHE_CAP: usize = 256;

/// `/fleet` bodies carry one record per session (hundreds of sessions at
/// the service cap), so their cache is sized like `/frontier`'s.
const FLEET_CACHE_CAP: usize = 64;

/// The identity of a `/fleet` query: the validated [`FleetConfig`], with
/// float knobs compared by their exact bits. The fleet is a pure function
/// of its configuration, so equal keys mean byte-equal bodies, and every
/// spelling of one knob (`"fair"` and `"fair-share"`) shares one entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FleetKey {
    sessions: u32,
    load_bits: u64,
    shape: TraceShape,
    policy: AdmissionPolicy,
    slots: u32,
    wan_bits: u64,
    frames: u32,
    seed: u64,
    fidelity: Fidelity,
}

impl FleetKey {
    fn of(config: &FleetConfig) -> Self {
        FleetKey {
            sessions: config.sessions,
            load_bits: config.load.to_bits(),
            shape: config.shape,
            policy: config.policy,
            slots: config.slots,
            wan_bits: config.wan.as_bytes_per_sec().to_bits(),
            frames: config.frames,
            seed: config.seed,
            fidelity: config.fidelity,
        }
    }
}

/// The identity of a `/simulate` query: quantized base parameters plus
/// the validated [`ReplayConfig`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SimulateKey {
    params: CacheKey,
    shapes: Vec<TraceShape>,
    frames: u32,
    files: u32,
    seed: u64,
    fidelity: Fidelity,
}

impl SimulateKey {
    fn of(config: &ReplayConfig, params: &sss_core::ModelParams) -> Self {
        SimulateKey {
            params: CacheKey::of(params),
            shapes: config.shapes.clone(),
            frames: config.frames,
            files: config.files,
            seed: config.seed,
            fidelity: config.fidelity,
        }
    }
}

/// Single-flight coordination: the first thread to miss on a key
/// computes; identical concurrent misses wait for its insert and are
/// then served the computer's exact bytes from the cache, instead of
/// burning the pool N times for one answer. The vendored parking_lot
/// has no Condvar, so this uses std's; a poisoned lock is recovered
/// rather than propagated (the critical sections are pure HashSet
/// operations, so the set cannot be left inconsistent).
struct SingleFlight<K> {
    inflight: Mutex<HashSet<K>>,
    done: Condvar,
}

impl<K: Clone + Eq + std::hash::Hash> SingleFlight<K> {
    fn new() -> Self {
        SingleFlight {
            inflight: Mutex::new(HashSet::new()),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashSet<K>> {
        self.inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Serve `key` from `cache`, computing the body at most once across
    /// concurrent identical requests. (With caching disabled every
    /// waiter recomputes — degenerate but correct.) Only a success is
    /// memoized, so a failure answers this caller alone and an identical
    /// later request recomputes instead of being served a cached error;
    /// a compute step that cannot fail returns `Result<_, Infallible>`.
    fn serve_fallible<E>(
        &self,
        cache: &ResponseCache<K>,
        key: K,
        compute: impl FnOnce() -> Result<Arc<str>, E>,
    ) -> Result<Arc<str>, E> {
        loop {
            if let Some(hit) = cache.get(&key) {
                return Ok(hit);
            }
            let mut inflight = self.lock();
            if inflight.insert(key.clone()) {
                break;
            }
            // Someone else is computing this key: wait for them to
            // finish, then re-check the cache. A computer that *failed*
            // releases its claim without an insert; the re-check misses
            // and this waiter takes over.
            drop(
                self.done
                    .wait(inflight)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
        }
        // Remove the claim even if serialization or the pool panics, so
        // an identical later request is never stuck waiting forever.
        struct Claim<'a, K: Clone + Eq + std::hash::Hash> {
            flight: &'a SingleFlight<K>,
            key: &'a K,
        }
        impl<K: Clone + Eq + std::hash::Hash> Drop for Claim<'_, K> {
            fn drop(&mut self) {
                self.flight.lock().remove(self.key);
                self.flight.done.notify_all();
            }
        }
        let claim = Claim {
            flight: self,
            key: &key,
        };
        // Re-check after winning the claim: another computer's insert
        // may have landed between our miss and our claim, and recomputing
        // for bytes already in the cache would waste the pool.
        if let Some(hit) = cache.get(&key) {
            drop(claim);
            return Ok(hit);
        }
        let result = compute();
        if let Ok(body) = &result {
            cache.insert(key.clone(), body.clone());
        }
        drop(claim);
        result
    }
}

/// Everything the reactor and its service threads need, shared behind
/// one `Arc`.
pub(crate) struct AppState {
    cache: Arc<DecisionCache>,
    /// Shared pool `/frontier` and `/simulate` cache misses fan their
    /// work across, sized like the batcher's.
    miss_pool: ThreadPool,
    frontier_cache: ResponseCache<FrontierKey>,
    frontier_flight: SingleFlight<FrontierKey>,
    simulate_cache: ResponseCache<SimulateKey>,
    simulate_flight: SingleFlight<SimulateKey>,
    fleet_cache: ResponseCache<FleetKey>,
    fleet_flight: SingleFlight<FleetKey>,
    batcher: Batcher,
    scenarios_body: Arc<str>,
    started: Instant,
    pub(crate) requests: AtomicU64,
    /// Connections currently open.
    pub(crate) open_conns: AtomicU64,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Self-pipe waking the reactor's `epoll_wait` (completions and
    /// shutdown).
    pub(crate) waker: Arc<WakePipe>,
}

/// The `/healthz` body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Health {
    /// Always `"ok"` while the service answers.
    pub status: String,
    /// Seconds since the listener was bound.
    pub uptime_s: f64,
    /// Requests handled across all endpoints.
    pub requests: u64,
    /// Worker threads configured for `/decide` batches.
    pub workers: usize,
    /// Maximum batch size configured.
    pub max_batch: usize,
    /// Connections open at the moment of the probe (including the one
    /// carrying it).
    pub open_connections: u64,
    /// Decision-cache counters.
    pub cache: CacheStats,
    /// Batching counters.
    pub batch: BatchStats,
    /// `/frontier` body-cache counters.
    pub frontier_cache: CacheStats,
    /// `/simulate` body-cache counters.
    pub simulate_cache: CacheStats,
    /// `/fleet` body-cache counters.
    pub fleet_cache: CacheStats,
    /// Largest fleet a single `/fleet` request may simulate (the
    /// configured service cap).
    pub fleet_session_cap: u32,
}

/// A bound-but-not-yet-serving instance: inspect [`Server::local_addr`],
/// then either [`Server::run`] on this thread or [`Server::spawn`] a
/// background one.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
}

impl Server {
    /// Bind `127.0.0.1:{port}` and prepare the pipeline (cache, batcher,
    /// precomputed scenario catalog).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        // std hard-codes a 128-entry listen backlog; a connection ramp
        // overflows it and every dropped SYN retransmits on a ~1s timer,
        // stretching the ramp past the idle timeout. Re-listening on the
        // bound socket deepens the queue (the kernel caps the value at
        // net.core.somaxconn), so this is sizing, not a failure path.
        #[cfg(target_os = "linux")]
        {
            use std::os::unix::io::AsRawFd;
            let _ = sss_exec::poll::deepen_listen_backlog(
                listener.as_raw_fd(),
                config.max_connections.clamp(128, 65_535) as i32,
            );
        }
        let cache = Arc::new(DecisionCache::new(config.cache_capacity));
        let batcher = Batcher::new(cache.clone(), config.workers, config.max_batch);
        #[expect(
            clippy::expect_used,
            reason = "bind-time panic is a failed boot, not a dropped connection"
        )]
        let scenarios_body: Arc<str> = Arc::from(
            serde_json::to_string(&ScenariosResponse::bundled())
                .expect("scenario catalog serializes"),
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "operator-facing /healthz uptime metric; never feeds simulation or decision output"
        )]
        let started = Instant::now();
        // The reactor's wake pipe is created at bind so an unsupported
        // platform fails the boot with a clear error instead of a dead
        // background accept thread.
        let waker = Arc::new(WakePipe::new().map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("reactor front end unavailable on this platform: {e}"),
            )
        })?);
        Ok(Server {
            listener,
            state: Arc::new(AppState {
                cache,
                miss_pool: ThreadPool::new(config.workers),
                frontier_cache: ResponseCache::new(config.cache_capacity.min(FRONTIER_CACHE_CAP)),
                frontier_flight: SingleFlight::new(),
                simulate_cache: ResponseCache::new(config.cache_capacity.min(SIMULATE_CACHE_CAP)),
                simulate_flight: SingleFlight::new(),
                fleet_cache: ResponseCache::new(config.cache_capacity.min(FLEET_CACHE_CAP)),
                fleet_flight: SingleFlight::new(),
                batcher,
                scenarios_body,
                started,
                requests: AtomicU64::new(0),
                open_conns: AtomicU64::new(0),
                config,
                shutdown: Arc::new(AtomicBool::new(false)),
                waker,
            }),
        })
    }

    /// The address the listener actually bound (resolves port 0).
    #[expect(
        clippy::expect_used,
        reason = "bound listener always has a local address; failure is a failed boot"
    )]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener bound")
    }

    /// Serve until [`ServerHandle::shutdown`] is called (from a handle
    /// created before `run`, via [`Server::handle`]) — or forever.
    pub fn run(self) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            crate::reactor::run(self.listener, self.state)
        }
        #[cfg(not(unix))]
        {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "reactor front end requires epoll (Linux)",
            ))
        }
    }

    /// A handle that can stop [`Server::run`] from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.local_addr(),
            shutdown: self.state.shutdown.clone(),
            waker: self.state.waker.clone(),
            join: None,
        }
    }

    /// Serve on a background thread, returning the controlling handle.
    pub fn spawn(self) -> ServerHandle {
        let mut handle = self.handle();
        handle.join = Some(std::thread::spawn(move || {
            let _ = self.run();
        }));
        handle
    }
}

/// Controls a serving instance: address introspection and shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Arc<WakePipe>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The served address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving and (for spawned servers) join the reactor thread.
    ///
    /// The reactor observes the flag promptly: its `epoll_wait` is woken
    /// through the self-pipe (and bounded by `tick_ms` regardless).
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Body served when response serialization itself fails — which the
/// vendored serde_json cannot do for these pure value types, but a panic
/// on a service thread would silently drop the response, so the failure
/// mode is an error body instead.
const SERIALIZE_ERROR_BODY: &str = r#"{"error":"internal: response serialization failed"}"#;

/// Serialize a response body, degrading to [`SERIALIZE_ERROR_BODY`]
/// instead of panicking the service thread.
fn json_body<T: serde::Serialize>(value: &T) -> Arc<str> {
    match serde_json::to_string(value) {
        Ok(json) => Arc::from(json),
        Err(_) => Arc::from(SERIALIZE_ERROR_BODY),
    }
}

pub(crate) fn error_body(message: String) -> Arc<str> {
    json_body(&ErrorResponse { error: message })
}

/// Dispatch one request to its endpoint, producing status and JSON body.
/// Bodies are `Arc<str>` so the hot paths (cached `/decide` hits, the
/// precomputed `/scenarios` catalog) are served without copying them.
pub(crate) fn route(request: &Request, state: &AppState) -> (u16, Arc<str>) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/decide") => handle_decide(&request.body, state),
        ("POST", "/tiers") => handle_tiers(&request.body),
        ("POST", "/frontier") => handle_frontier(&request.body, state),
        ("POST", "/simulate") => handle_simulate(&request.body, state),
        ("POST", "/fleet") => handle_fleet(&request.body, state),
        ("GET", "/scenarios") => (200, state.scenarios_body.clone()),
        ("GET", "/healthz") => handle_healthz(state),
        (
            _,
            "/decide" | "/tiers" | "/frontier" | "/simulate" | "/fleet" | "/scenarios" | "/healthz",
        ) => (
            405,
            error_body(format!(
                "method {} not allowed on {}",
                request.method, request.path
            )),
        ),
        (_, path) => (404, error_body(format!("no such endpoint {path:?}"))),
    }
}

fn handle_decide(body: &[u8], state: &AppState) -> (u16, Arc<str>) {
    let params = match parse_workload(body) {
        Ok(p) => p,
        Err(msg) => return (400, error_body(msg)),
    };
    match state.batcher.submit(params) {
        Ok(body) => (200, body),
        Err(e) => (500, error_body(format!("internal: {e}"))),
    }
}

/// `POST /frontier`: parse the query, answer repeats from the memoized
/// body cache, and compute misses by fanning the frontier's grid rows and
/// boundary edges across a worker pool — the per-cell analogue of the
/// `/decide` batch wave. The computation is position-seeded, so the bytes
/// served are independent of worker count and of the hit/miss boundary.
fn handle_frontier(body: &[u8], state: &AppState) -> (u16, Arc<str>) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return (400, error_body("body is not UTF-8".into())),
    };
    let request: FrontierRequest = match serde_json::from_str(text) {
        Ok(r) => r,
        Err(e) => return (400, error_body(format!("bad frontier request: {e}"))),
    };
    let job = match request.job() {
        Ok(job) => job,
        Err(e) => return (400, error_body(e)),
    };
    let key = FrontierKey::of(&request, job.base());
    let Ok(body) = state
        .frontier_flight
        .serve_fallible(&state.frontier_cache, key, || {
            Ok::<_, Infallible>(json_body(&job.run(&state.miss_pool)))
        });
    (200, body)
}

/// `POST /simulate`: replay the workload through the event-driven
/// simulator under the requested trace shapes, memoizing whole response
/// bodies in [`AppState::simulate_cache`]. The replay is position-seeded
/// and the cells fan across the worker pool, so the bytes served are
/// independent of worker count and of the hit/miss boundary.
fn handle_simulate(body: &[u8], state: &AppState) -> (u16, Arc<str>) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return (400, error_body("body is not UTF-8".into())),
    };
    let request: SimulateRequest = match serde_json::from_str(text) {
        Ok(r) => r,
        Err(e) => return (400, error_body(format!("bad simulate request: {e}"))),
    };
    let replay = match request.replay() {
        Ok(replay) => replay,
        Err(e) => return (400, error_body(e)),
    };
    let key = SimulateKey::of(replay.config(), &replay.scenarios()[0].params);
    let Ok(body) = state
        .simulate_flight
        .serve_fallible(&state.simulate_cache, key, || {
            Ok::<_, Infallible>(json_body(&replay.run(&state.miss_pool)))
        });
    (200, body)
}

/// `POST /fleet`: replay a multi-tenant fleet of catalog sessions under
/// WAN sharing and DTN slot contention, memoizing whole response bodies
/// in [`AppState::fleet_cache`]. The fleet is position-seeded and its
/// per-session movement replays fan across the worker pool, so the bytes
/// served are independent of worker count and of the hit/miss boundary.
fn handle_fleet(body: &[u8], state: &AppState) -> (u16, Arc<str>) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return (400, error_body("body is not UTF-8".into())),
    };
    let request: FleetRequest = match serde_json::from_str(text) {
        Ok(r) => r,
        Err(e) => return (400, error_body(format!("bad fleet request: {e}"))),
    };
    let fleet = match request.fleet(state.config.fleet_session_cap) {
        Ok(fleet) => fleet,
        Err(e) => return (400, error_body(e)),
    };
    let key = FleetKey::of(fleet.config());
    let served = state
        .fleet_flight
        .serve_fallible(&state.fleet_cache, key, || {
            match fleet.run(&state.miss_pool) {
                Ok(report) => Ok(json_body(&report)),
                // Unreachable by construction (the engine only fails on a
                // self-composed trace its own kernel rejects), but a 500
                // body must not be memoized as this key's answer.
                Err(e) => Err(error_body(format!("internal: {e}"))),
            }
        });
    match served {
        Ok(body) => (200, body),
        Err(body) => (500, body),
    }
}

fn handle_tiers(body: &[u8]) -> (u16, Arc<str>) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return (400, error_body("body is not UTF-8".into())),
    };
    let request: TiersRequest = match serde_json::from_str(text) {
        Ok(r) => r,
        Err(e) => return (400, error_body(format!("bad tiers request: {e}"))),
    };
    if !request.sss.is_finite() || request.sss < 1.0 {
        return (
            400,
            error_body(format!("sss must be >= 1, got {}", request.sss)),
        );
    }
    let params = match request.workload.params() {
        Ok(p) => p,
        Err(e) => return (400, error_body(e.to_string())),
    };
    let response = crate::api::TiersResponse::evaluate(&params, Ratio::new(request.sss));
    (200, json_body(&response))
}

fn handle_healthz(state: &AppState) -> (u16, Arc<str>) {
    let health = Health {
        status: "ok".to_owned(),
        uptime_s: state.started.elapsed().as_secs_f64(),
        requests: state.requests.load(Ordering::Relaxed),
        workers: state.config.workers,
        max_batch: state.config.max_batch,
        open_connections: state.open_conns.load(Ordering::Relaxed),
        cache: state.cache.stats(),
        batch: state.batcher.stats(),
        frontier_cache: state.frontier_cache.stats(),
        simulate_cache: state.simulate_cache.stats(),
        fleet_cache: state.fleet_cache.stats(),
        fleet_session_cap: state.config.fleet_session_cap,
    };
    (200, json_body(&health))
}

/// Parse and validate a `/decide` body into model parameters.
fn parse_workload(body: &[u8]) -> Result<sss_core::ModelParams, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let request: crate::api::DecideRequest =
        serde_json::from_str(text).map_err(|e| format!("bad decide request: {e}"))?;
    request.params().map_err(|e| e.to_string())
}
