//! Nonblocking epoll reactor front end: one event-loop thread, C10k+.
//!
//! Each connection costs a [`sss_exec::poll::Poller`] registration, not
//! an OS thread. A single thread drives the whole socket population:
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!                    │              epoll set (level-triggered)   │
//!                    │  listener ─ wake pipe ─ conn fds (slab)    │
//!                    └──────┬──────────▲──────────────┬───────────┘
//!        accept, nonblocking│          │wake()        │readable/writable
//!                           ▼          │              ▼
//!                    ┌────────────┐    │      ┌────────────────┐
//!                    │ Conn slab  │    │      │ Conn state     │
//!                    │ Vec + free │    │      │ machine        │
//!                    │ list       │    │      │ parse→dispatch │
//!                    └────────────┘    │      │ encode→flush   │
//!                                      │      └───────┬────────┘
//!                                      │              │ Job{slot,gen,seq}
//!                           completions│              ▼
//!                    ┌─────────────────┴──┐   ┌────────────────┐
//!                    │ service threads    │◀──│ crossbeam queue│
//!                    │ route() → batcher/ │   └────────────────┘
//!                    │ pool / caches      │
//!                    └────────────────────┘
//! ```
//!
//! Parsed requests are dispatched to a small pool of *service threads*
//! that call [`route`](crate::server), so compute funnels through the
//! micro-batcher, the `ThreadPool`, and the response caches. Completed
//! bodies come back over a mutex-guarded queue
//! plus a [`WakePipe`](sss_exec::poll::WakePipe) registered in the same
//! epoll set (the classic self-pipe), and the connection writes them out
//! in request order.
//!
//! Determinism discipline: connections live in a `Vec` slab (no hash-map
//! iteration anywhere near the wire), and the idle timeout is counted in
//! *quiet epoll ticks* — `epoll_wait` timeouts with zero events — so the
//! hot path never reads a wall clock. A busy loop postpones idle
//! accounting, which is exactly the intent: a connection is only "idle"
//! when the whole reactor had time to notice.

use std::io;
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crossbeam::channel;
use sss_exec::poll::{Events, Poller, WakePipe};

use crate::conn::{Conn, ReadOutcome, READ_CHUNK};
use crate::http::{HttpError, Request};
use crate::server::{error_body, route, AppState};

/// Slab token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Slab token of the wake pipe's read end.
const TOKEN_WAKE: u64 = 1;
/// First token available to connections (slab index + `TOKEN_BASE`).
const TOKEN_BASE: u64 = 2;

/// One parsed request on its way to a service thread.
struct Job {
    slot: usize,
    gen: u64,
    seq: u64,
    request: Request,
}

/// One routed response on its way back to the event loop.
struct Done {
    slot: usize,
    gen: u64,
    seq: u64,
    status: u16,
    body: Arc<str>,
    close: bool,
}

/// The connection slab plus the poller registrations that mirror it.
struct Slab {
    conns: Vec<Option<Conn>>,
    /// Per-slot generation, bumped on retire: completions for a previous
    /// occupant of a reused slot carry a stale generation and are dropped.
    gens: Vec<u64>,
    free: Vec<usize>,
}

impl Slab {
    fn insert(&mut self, conn: Conn) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.gens.push(0);
                self.conns.len() - 1
            }
        }
    }

    fn open(&self) -> usize {
        self.conns.len() - self.free.len()
    }
}

/// How many threads sit between the event loop and the compute pools.
/// They only parse-free route and block on the batcher/caches, so a small
/// multiple of the worker count keeps every compute thread fed without
/// recreating thread-per-connection.
fn service_threads(workers: usize) -> usize {
    (workers.max(1) * 4).clamp(4, 64)
}

/// Serve `listener` with the reactor until shutdown is flagged.
pub(crate) fn run(listener: TcpListener, state: Arc<AppState>) -> io::Result<()> {
    let config = state.config;
    let wake = state.waker.clone();

    // Two descriptors per loadtest-style in-process client plus slack;
    // best-effort — the accept path enforces max_connections regardless.
    sss_exec::poll::raise_nofile_limit(config.max_connections as u64 * 2 + 128);

    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
    poller.add(wake.read_fd(), TOKEN_WAKE, true, false)?;

    let completions: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));
    let (job_tx, job_rx) = channel::unbounded::<Job>();
    let services: Vec<_> = (0..service_threads(config.workers))
        .map(|i| {
            let rx = job_rx.clone();
            let state = state.clone();
            let completions = completions.clone();
            let wake = wake.clone();
            std::thread::Builder::new()
                .name(format!("sss-svc-{i}"))
                .spawn(move || service_loop(rx, &state, &completions, &wake))
        })
        .collect::<Result<_, _>>()?;
    drop(job_rx);

    let mut slab = Slab {
        conns: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
    };
    let mut events = Events::with_capacity(1024);
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut done_batch: Vec<Done> = Vec::new();

    let tick_ms = config.tick_ms.clamp(1, i32::MAX as u64) as i32;
    loop {
        poller.wait(&mut events, tick_ms)?;
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if events.is_empty() {
            tick_idle(&mut slab, &poller, &state);
            continue;
        }
        // Tokens are collected before handling: each handler may retire
        // connections and mutate the slab, and `events` stays immutable
        // while iterated.
        let ready: Vec<sss_exec::poll::Event> = events.iter().collect();
        for event in ready {
            match event.token {
                TOKEN_LISTENER => accept_ready(&listener, &mut slab, &poller, &state),
                TOKEN_WAKE => {
                    wake.drain();
                    swap_completions(&completions, &mut done_batch);
                    for done in done_batch.drain(..) {
                        apply_done(done, &mut slab, &poller, &state);
                    }
                }
                token => {
                    let slot = (token - TOKEN_BASE) as usize;
                    conn_ready(
                        slot,
                        event,
                        &mut slab,
                        &poller,
                        &state,
                        &mut scratch,
                        &job_tx,
                    );
                }
            }
        }
    }

    // Retire the fleet, then the service threads: dropping the sender
    // lets each service worker drain its queue and exit.
    drop(job_tx);
    for service in services {
        let _ = service.join();
    }
    Ok(())
}

/// Service-thread body: route each request, then hand the body back
/// through the completion queue + wake pipe.
fn service_loop(
    rx: channel::Receiver<Job>,
    state: &AppState,
    completions: &Mutex<Vec<Done>>,
    wake: &WakePipe,
) {
    while let Ok(job) = rx.recv() {
        let close = job.request.close;
        let (status, body) = route(&job.request, state);
        completions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Done {
                slot: job.slot,
                gen: job.gen,
                seq: job.seq,
                status,
                body,
                close,
            });
        wake.wake();
    }
}

fn swap_completions(completions: &Mutex<Vec<Done>>, into: &mut Vec<Done>) {
    let mut queue = completions
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    std::mem::swap(&mut *queue, into);
}

/// Quiet tick: advance every idle connection's clock and reap timeouts.
fn tick_idle(slab: &mut Slab, poller: &Poller, state: &AppState) {
    let limit = state.config.idle_timeout_ticks;
    for slot in 0..slab.conns.len() {
        let Some(conn) = slab.conns[slot].as_mut() else {
            continue;
        };
        if !conn.idle() {
            conn.idle_ticks = 0;
            continue;
        }
        conn.idle_ticks += 1;
        if limit > 0 && conn.idle_ticks >= limit {
            retire(slot, slab, poller, state);
        }
    }
}

/// Drain the accept queue. Over the connection cap the socket is accepted
/// and immediately dropped — a prompt RST beats a client hanging in the
/// backlog until its own timeout.
fn accept_ready(listener: &TcpListener, slab: &mut Slab, poller: &Poller, state: &AppState) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if slab.open() >= state.config.max_connections {
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let fd = stream.as_raw_fd();
                let slot = slab.insert(Conn::new(stream));
                if poller
                    .add(fd, TOKEN_BASE + slot as u64, true, false)
                    .is_err()
                {
                    slab.conns[slot] = None;
                    slab.gens[slot] += 1;
                    slab.free.push(slot);
                    continue;
                }
                state.open_conns.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient per-connection failures (ECONNABORTED & friends):
            // skip this one, keep accepting on the next readiness event.
            Err(_) => break,
        }
    }
}

/// One connection's readiness notification.
fn conn_ready(
    slot: usize,
    event: sss_exec::poll::Event,
    slab: &mut Slab,
    poller: &Poller,
    state: &AppState,
    scratch: &mut [u8],
    job_tx: &channel::Sender<Job>,
) {
    let gen = match slab.gens.get(slot) {
        Some(gen) => *gen,
        None => return,
    };
    let Some(conn) = slab.conns[slot].as_mut() else {
        return; // already retired this batch
    };
    conn.idle_ticks = 0;

    if event.readable {
        let outcome = conn.read_ready(scratch);
        let (requests, bad) = match outcome {
            ReadOutcome::Requests(requests) => (requests, None),
            ReadOutcome::Bad(requests, error) => (requests, Some(error)),
            ReadOutcome::Dead => {
                retire(slot, slab, poller, state);
                return;
            }
        };
        for request in requests {
            dispatch(slot, gen, request, slab, state, job_tx);
        }
        if let Some(error) = bad {
            reject(slot, slab, &error);
        }
    }

    finalize(slot, slab, poller, state);
}

/// Hand one parsed request to the service threads, in wire order.
fn dispatch(
    slot: usize,
    gen: u64,
    request: Request,
    slab: &mut Slab,
    state: &AppState,
    job_tx: &channel::Sender<Job>,
) {
    let Some(conn) = slab.conns[slot].as_mut() else {
        return;
    };
    let seq = conn.assign_seq();
    conn.job_started();
    state.requests.fetch_add(1, Ordering::Relaxed);
    let job = Job {
        slot,
        gen,
        seq,
        request,
    };
    if job_tx.send(job).is_err() {
        // Service threads are gone (shutdown race): answer inline so the
        // connection is not left waiting on a completion that cannot come.
        if let Some(conn) = slab.conns[slot].as_mut() {
            conn.job_finished();
            conn.deliver(seq, 500, error_body("service unavailable".into()), true);
        }
    }
}

/// Sequence a parse-error response after any valid pipelined predecessors
/// and seal the connection.
fn reject(slot: usize, slab: &mut Slab, error: &HttpError) {
    let Some(conn) = slab.conns[slot].as_mut() else {
        return;
    };
    let status = match error {
        HttpError::Malformed(_) => 400,
        HttpError::TooLarge(_) => 413,
        HttpError::HeadersTooLarge(_) => 431,
    };
    let seq = conn.assign_seq();
    conn.seal();
    conn.start_drain();
    conn.deliver(seq, status, error_body(error.to_string()), true);
}

/// Flush, retire, or re-register interest after any state change.
fn finalize(slot: usize, slab: &mut Slab, poller: &Poller, state: &AppState) {
    let Some(conn) = slab.conns[slot].as_mut() else {
        return;
    };
    if conn.flush_ready().is_err() || conn.done() {
        retire(slot, slab, poller, state);
        return;
    }
    let desired = (conn.wants_read(), conn.wants_write());
    if desired != conn.registered {
        let fd = conn.stream().as_raw_fd();
        if poller
            .modify(fd, TOKEN_BASE + slot as u64, desired.0, desired.1)
            .is_ok()
        {
            conn.registered = desired;
        }
    }
}

/// Deliver one completed response back to its connection, dropping
/// completions whose slot has been reused since dispatch.
fn apply_done(done: Done, slab: &mut Slab, poller: &Poller, state: &AppState) {
    if slab.gens.get(done.slot) != Some(&done.gen) {
        return;
    }
    let Some(conn) = slab.conns[done.slot].as_mut() else {
        return;
    };
    conn.job_finished();
    conn.deliver(done.seq, done.status, done.body, done.close);
    finalize(done.slot, slab, poller, state);
}

/// Remove a connection from the slab and the poller; its socket closes on
/// drop. The generation bump invalidates in-flight completions.
fn retire(slot: usize, slab: &mut Slab, poller: &Poller, state: &AppState) {
    if let Some(conn) = slab.conns[slot].take() {
        let _ = poller.remove(conn.stream().as_raw_fd());
        slab.gens[slot] += 1;
        slab.free.push(slot);
        state.open_conns.fetch_sub(1, Ordering::Relaxed);
    }
}
