//! Service configuration, request router, and lifecycle handle.

use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use sss_units::Ratio;

use sss_exec::poll::WakePipe;
use sss_exec::ThreadPool;

use crate::api::{
    DecideRequest, ErrorResponse, FleetRequest, FrontierRequest, ScenariosResponse,
    SimulateRequest, TiersRequest,
};
use crate::batch::{BatchStats, Batcher};
use crate::cache::{CacheStats, DecisionCache, ResponseCache};
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

/// One compute route's memo: its body cache, keyed on the validated
/// engine input serialized, plus single-flight claims. The first request
/// to miss on a key computes; identical concurrent misses wait for its
/// insert and are then served the computer's exact bytes, instead of
/// burning the pool N times for one answer. The vendored parking_lot has
/// no Condvar, so this uses std's; a poisoned lock is recovered rather
/// than propagated (the critical sections are pure `HashSet` operations
/// and cache reads, so the set cannot be left inconsistent).
struct Memo {
    cache: ResponseCache<String>,
    inflight: Mutex<HashSet<String>>,
    done: Condvar,
}

impl Memo {
    fn new(capacity: usize) -> Self {
        Memo {
            cache: ResponseCache::new(capacity),
            inflight: Mutex::new(HashSet::new()),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashSet<String>> {
        self.inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Serve `key`, computing the body at most once across concurrent
    /// identical requests. The request's one lookup is counted as a hit
    /// or a miss; the re-checks while it waits for a claim are not. (With
    /// caching disabled every waiter recomputes, one at a time:
    /// degenerate but correct.) Only a success is memoized, so a failure
    /// answers this caller alone and an identical later request
    /// recomputes instead of being served a cached error.
    fn serve(
        &self,
        key: String,
        compute: impl FnOnce() -> Result<Arc<str>, String>,
    ) -> Result<Arc<str>, String> {
        if let Some(hit) = self.cache.get(&key) {
            return Ok(hit);
        }
        let mut inflight = self.lock();
        loop {
            // A computer inserts its body before it drops its claim, and
            // both this check and the claim happen under the lock, so a
            // key that is not claimed is either cached or not computed.
            if let Some(hit) = self.cache.peek(&key) {
                return Ok(hit);
            }
            if inflight.insert(key.clone()) {
                break;
            }
            // Someone else is computing this key: wait for them to
            // finish. A computer that *failed* releases its claim without
            // an insert; the re-check misses and this waiter takes over.
            inflight = self
                .done
                .wait(inflight)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(inflight);
        // Remove the claim even if serialization or the pool panics, so
        // an identical later request is never stuck waiting forever.
        struct Claim<'a> {
            memo: &'a Memo,
            key: &'a str,
        }
        impl Drop for Claim<'_> {
            fn drop(&mut self) {
                self.memo.lock().remove(self.key);
                self.memo.done.notify_all();
            }
        }
        let _claim = Claim {
            memo: self,
            key: &key,
        };
        let result = compute();
        if let Ok(body) = &result {
            self.cache.insert(key.clone(), body.clone());
        }
        result
    }
}

/// Everything the reactor and its service threads need, shared behind
/// one `Arc`.
pub(crate) struct AppState {
    cache: Arc<DecisionCache>,
    /// Shared pool the compute routes' cache misses fan their work
    /// across, sized like the batcher's.
    miss_pool: ThreadPool,
    frontier: Memo,
    simulate: Memo,
    fleet: Memo,
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
                frontier: Memo::new(config.cache_capacity.min(FRONTIER_CACHE_CAP)),
                simulate: Memo::new(config.cache_capacity.min(SIMULATE_CACHE_CAP)),
                fleet: Memo::new(config.cache_capacity.min(FLEET_CACHE_CAP)),
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
    let body = &request.body;
    let pool = &state.miss_pool;
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/decide") => handle_decide(body, state),
        ("POST", "/tiers") => handle_tiers(body),
        ("POST", "/frontier") => handle_compute(
            body,
            "frontier",
            &state.frontier,
            |request: FrontierRequest| request.job(),
            |job| serde_json::to_string(&(job.base(), job.spec())),
            |job| Ok(json_body(&job.run(pool))),
        ),
        ("POST", "/simulate") => handle_compute(
            body,
            "simulate",
            &state.simulate,
            |request: SimulateRequest| request.replay(),
            |replay| serde_json::to_string(&(replay.scenarios(), replay.config())),
            |replay| Ok(json_body(&replay.run(pool))),
        ),
        ("POST", "/fleet") => handle_compute(
            body,
            "fleet",
            &state.fleet,
            |request: FleetRequest| request.fleet(state.config.fleet_session_cap),
            |fleet| serde_json::to_string(fleet.config()),
            // Fails only on a self-composed trace the engine's own kernel
            // rejects: a 500 that is not memoized.
            |fleet| fleet.run(pool).map(|report| json_body(&report)),
        ),
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

/// Decode a POST body: UTF-8, then JSON into the route's request type,
/// whose `deny_unknown_fields` turns a misspelled key into an error.
fn decode<R: serde::Deserialize>(body: &[u8], route: &str) -> Result<R, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("bad {route} request: {e}"))
}

fn handle_decide(body: &[u8], state: &AppState) -> (u16, Arc<str>) {
    let params = match decode(body, "decide")
        .and_then(|request: DecideRequest| request.params().map_err(|e| e.to_string()))
    {
        Ok(p) => p,
        Err(msg) => return (400, error_body(msg)),
    };
    match state.batcher.submit(params) {
        Ok(body) => (200, body),
        Err(e) => (500, error_body(format!("internal: {e}"))),
    }
}

/// `POST /frontier`, `/simulate` and `/fleet`: decode the body, validate
/// it into an engine, then serve the route's memo entry for `key`, the
/// engine's validated input serialized. Each engine is a position-seeded
/// pure function of that input, fanned across the worker pool on a miss,
/// so a key cannot drift from the work it stands for, every spelling of
/// one knob shares an entry, and the bytes served are independent of
/// worker count and of the hit/miss boundary.
fn handle_compute<R: serde::Deserialize, E>(
    body: &[u8],
    route: &str,
    memo: &Memo,
    validate: impl FnOnce(R) -> Result<E, String>,
    key: impl FnOnce(&E) -> Result<String, serde_json::Error>,
    run: impl FnOnce(&E) -> Result<Arc<str>, String>,
) -> (u16, Arc<str>) {
    let engine = match decode(body, route).and_then(validate) {
        Ok(engine) => engine,
        Err(e) => return (400, error_body(e)),
    };
    let served = match key(&engine) {
        Ok(key) => memo.serve(key, || run(&engine)),
        Err(e) => Err(e.to_string()),
    };
    match served {
        Ok(body) => (200, body),
        Err(e) => (500, error_body(format!("internal: {e}"))),
    }
}

fn handle_tiers(body: &[u8]) -> (u16, Arc<str>) {
    let request: TiersRequest = match decode(body, "tiers") {
        Ok(r) => r,
        Err(e) => return (400, error_body(e)),
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
        frontier_cache: state.frontier.cache.stats(),
        simulate_cache: state.simulate.cache.stats(),
        fleet_cache: state.fleet.cache.stats(),
        fleet_session_cap: state.config.fleet_session_cap,
    };
    (200, json_body(&health))
}
