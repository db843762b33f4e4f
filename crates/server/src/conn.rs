//! Per-connection state machine for the reactor front end.
//!
//! Each [`Conn`] owns a nonblocking socket and carries everything the
//! event loop needs between readiness notifications: the incremental
//! [`Parser`] (bytes may split anywhere), a pending-response write buffer
//! drained as the socket accepts bytes, and the pipelining bookkeeping
//! that keeps responses in request order even though the service threads
//! complete them in whatever order the routes take.
//!
//! Sequencing: every parsed request is assigned a monotonically increasing
//! sequence number at dispatch. Completions arriving out of order are
//! parked; [`Conn::deliver`] encodes a response only when it is the next
//! one the wire expects, then drains any parked successors. A response
//! flagged `close` (client `Connection: close`, or a parse-error teardown)
//! seals the stream: later sequences are discarded and the connection is
//! retired once the buffer flushes.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

use crate::http::{write_response, HttpError, Parser, Request};

/// Most bytes an error teardown drains before giving up on a graceful
/// close.
const LINGER_CAP: usize = 1024 * 1024;

/// Most requests a connection may have in flight (dispatched, response not
/// yet written) before the reactor stops reading from it. Bounds per-
/// connection memory under aggressive pipelining without a config knob —
/// the cap is about protocol abuse, not tuning.
pub(crate) const MAX_PIPELINE: usize = 64;

/// Bytes the reactor reads from a socket per `read` call: one typical
/// request burst.
pub(crate) const READ_CHUNK: usize = 8 * 1024;

/// Pending-response bytes a connection may buffer before the reactor stops
/// reading more requests from it (pipelining backpressure): a few large
/// (`/frontier`-sized) bodies.
const WRITE_BACKLOG: usize = 256 * 1024;

/// What [`Conn::read_ready`] observed on the socket.
pub(crate) enum ReadOutcome {
    /// Zero or more complete requests were parsed; dispatch them in order.
    Requests(Vec<Request>),
    /// The bytes violated HTTP or a parser limit. Complete requests parsed
    /// *before* the offending bytes ride along and must still be
    /// dispatched; the error response itself is synthesized by the caller
    /// and sequenced after them.
    Bad(Vec<Request>, HttpError),
    /// The socket failed hard (reset, unexpected error): retire silently.
    Dead,
}

/// One nonblocking connection's full state.
pub(crate) struct Conn {
    stream: TcpStream,
    parser: Parser,
    /// Encoded-but-unsent response bytes; `out_pos` marks how far the
    /// socket has accepted.
    out: Vec<u8>,
    out_pos: usize,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Sequence number the wire expects next.
    next_write: u64,
    /// Completions that arrived ahead of `next_write`.
    parked: Vec<Parked>,
    /// Dispatched requests whose completion has not yet arrived.
    inflight: usize,
    /// Peer half-closed its sending side (EOF observed).
    read_closed: bool,
    /// Stop parsing/dispatching: a `Connection: close` request or a parse
    /// error is already in the response stream.
    sealed: bool,
    /// Set once a `close`-flagged response is encoded; later sequences
    /// are discarded and the connection retires after the flush.
    close_sent: bool,
    /// Lingering close: an error response is on its way out, and closing
    /// with unread request bytes would RST it off the wire before the
    /// client reads it. Keep reading and discarding until the peer
    /// closes (or [`LINGER_CAP`] is exhausted).
    draining: bool,
    /// Our FIN went out (write side shut down after the final flush).
    fin_sent: bool,
    /// Bytes discarded while draining.
    drained: usize,
    /// Quiet epoll ticks accumulated while fully idle.
    pub(crate) idle_ticks: u64,
    /// Interest set currently registered with the poller, as
    /// `(readable, writable)` — used to skip redundant `epoll_ctl`s.
    pub(crate) registered: (bool, bool),
}

struct Parked {
    seq: u64,
    status: u16,
    body: Arc<str>,
    close: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            parser: Parser::new(),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_write: 0,
            parked: Vec::new(),
            inflight: 0,
            read_closed: false,
            sealed: false,
            close_sent: false,
            draining: false,
            fin_sent: false,
            drained: 0,
            idle_ticks: 0,
            registered: (true, false),
        }
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Assign the next response slot in wire order.
    pub(crate) fn assign_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Note a dispatched request (completion pending).
    pub(crate) fn job_started(&mut self) {
        self.inflight += 1;
    }

    /// Note a completion's arrival (before [`Conn::deliver`]).
    pub(crate) fn job_finished(&mut self) {
        self.inflight = self.inflight.saturating_sub(1);
    }

    /// Stop parsing and dispatching from this connection — the response
    /// stream already ends in a `close`.
    pub(crate) fn seal(&mut self) {
        self.sealed = true;
    }

    /// Enter lingering close: the teardown response must reach the client
    /// before the socket drops, so reads continue (and are discarded)
    /// until the peer closes its side.
    pub(crate) fn start_drain(&mut self) {
        self.draining = true;
    }

    /// Too much pending state: stop draining the socket until responses
    /// flush.
    pub(crate) fn paused(&self) -> bool {
        self.inflight >= MAX_PIPELINE || self.out.len() - self.out_pos > WRITE_BACKLOG
    }

    /// Whether the poller should watch for readability.
    pub(crate) fn wants_read(&self) -> bool {
        if self.draining {
            return !self.read_closed;
        }
        !self.read_closed && !self.sealed && !self.paused()
    }

    /// Whether the poller should watch for writability.
    pub(crate) fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// The connection has served its purpose and the buffer is on the
    /// wire: retire it.
    pub(crate) fn done(&self) -> bool {
        let flushed = !self.wants_write();
        if self.close_sent {
            // A draining teardown waits for the peer's close so the error
            // response leaves as data + FIN, never as an RST.
            return flushed && (!self.draining || self.read_closed);
        }
        flushed && self.read_closed && self.inflight == 0 && self.parked.is_empty()
    }

    /// Fully idle (nothing pending in either direction) — eligible for
    /// the idle-timeout clock. A draining teardown counts as idle so a
    /// peer that never closes is still reaped by the tick clock.
    pub(crate) fn idle(&self) -> bool {
        self.inflight == 0 && !self.wants_write() && (self.parser_idle() || self.draining)
    }

    fn parser_idle(&self) -> bool {
        self.parser.phase() == crate::http::ParsePhase::Idle
    }

    /// Drain the readable socket through the incremental parser.
    ///
    /// Reads at most a few `scratch`-fuls before yielding so one chatty
    /// peer cannot monopolize the event loop, and stops early when the
    /// connection pauses (pipelining cap or write backlog).
    pub(crate) fn read_ready(&mut self, scratch: &mut [u8]) -> ReadOutcome {
        if self.draining {
            return self.drain_ready(scratch);
        }
        let mut requests = Vec::new();
        // 4 scratch-fuls = 32 KiB per readiness event at READ_CHUNK:
        // enough to drain a burst, bounded for fairness.
        for _ in 0..4 {
            if self.sealed || self.paused() {
                break;
            }
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    let mut offset = 0;
                    while offset < n {
                        match self.parser.push(&scratch[offset..n]) {
                            Ok((used, parsed)) => {
                                offset += used;
                                if let Some(request) = parsed {
                                    if request.close {
                                        self.seal();
                                    }
                                    requests.push(request);
                                    if self.sealed {
                                        break;
                                    }
                                }
                            }
                            Err(error) => return ReadOutcome::Bad(requests, error),
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Dead,
            }
        }
        ReadOutcome::Requests(requests)
    }

    /// Lingering-close read path: discard whatever the peer still sends
    /// until it closes. Exceeding [`LINGER_CAP`] means the peer is
    /// streaming, not finishing — give up on the graceful close.
    fn drain_ready(&mut self, scratch: &mut [u8]) -> ReadOutcome {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    self.drained += n;
                    if self.drained > LINGER_CAP {
                        return ReadOutcome::Dead;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Dead,
            }
        }
        ReadOutcome::Requests(Vec::new())
    }

    /// Hand a completed response to the connection. Encodes immediately
    /// when `seq` is the next the wire expects (draining any parked
    /// successors), parks it otherwise, and discards it when the stream
    /// is already sealed by an earlier `close` response.
    pub(crate) fn deliver(&mut self, seq: u64, status: u16, body: Arc<str>, close: bool) {
        if self.close_sent || seq < self.next_write {
            return; // sealed or stale: the wire will never carry it
        }
        if seq == self.next_write {
            self.encode(status, &body, close);
            self.drain_parked();
        } else {
            self.parked.push(Parked {
                seq,
                status,
                body,
                close,
            });
        }
    }

    fn drain_parked(&mut self) {
        while !self.close_sent {
            let Some(at) = self.parked.iter().position(|p| p.seq == self.next_write) else {
                break;
            };
            let parked = self.parked.swap_remove(at);
            self.encode(parked.status, &parked.body, parked.close);
        }
    }

    fn encode(&mut self, status: u16, body: &str, close: bool) {
        // Writing into a Vec cannot fail; the signature is io-flavored
        // because `write_response` takes any `Write`.
        let _ = write_response(&mut self.out, status, body.as_bytes(), !close);
        self.next_write += 1;
        if close {
            self.close_sent = true;
            self.sealed = true;
            self.parked.clear();
        }
    }

    /// Push buffered response bytes to the socket until it would block.
    /// `Err` means the peer is gone and the connection should be retired.
    pub(crate) fn flush_ready(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
            if self.close_sent && self.draining && !self.fin_sent {
                // The teardown response is fully on the wire: send our
                // FIN so the client sees clean EOF while we keep
                // draining its unread bytes.
                let _ = self.stream.shutdown(Shutdown::Write);
                self.fin_sent = true;
            }
        } else if self.out_pos > 64 * 1024 {
            // Large partial flush: reclaim the sent prefix so a slow
            // reader cannot pin the whole history of its responses.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        Ok(())
    }
}
