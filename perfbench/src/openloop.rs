//! Open-loop HTTP/1.1 load generator: one thread, a few keep-alive
//! connections, pipelined requests sent on a precomputed schedule.
//!
//! Requests leave when they are due, whether or not earlier ones were
//! answered, and each latency runs from the request's *scheduled* send
//! time to the last byte of its response. A server stall therefore
//! charges its wait to every request that fell due during it, instead of
//! silently delaying the sends (coordinated omission). How late the
//! generator itself sent each request is recorded beside it.
//!
//! The thread sleeps in `ppoll(2)` until the next request is due or a
//! response arrives, with its timer slack cut to 1 ns so nanosecond
//! timeouts are honoured; std offers no sub-millisecond readiness wait.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use crate::stats::{digest, SplitMix};

/// Send offsets (ns from the run's start) of a Poisson arrival process at
/// `rate_per_s` over `duration_s`. A pure function of its arguments.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_s: f64) -> Vec<u64> {
    let mut rng = SplitMix::new(seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 16);
    loop {
        t += -rng.unit().ln() / rate_per_s;
        if t >= duration_s {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub status: u16,
    pub body_digest: u64,
    pub body_len: usize,
    /// When the response's last byte was read, ns from the run's start.
    pub done_ns: u64,
}

/// Everything one schedule's run observed, indexed like the schedule.
#[derive(Debug)]
pub struct Run {
    pub scheduled_ns: Vec<u64>,
    /// Actual send minus scheduled send, ns.
    pub lateness_ns: Vec<u64>,
    /// `None`: never answered (connection lost or drain timeout).
    pub answers: Vec<Option<Answer>>,
}

impl Run {
    /// Latency of request `i` in ms, from its scheduled send.
    pub fn latency_ms(&self, i: usize) -> Option<f64> {
        self.answers[i].map(|a| (a.done_ns.saturating_sub(self.scheduled_ns[i])) as f64 / 1e6)
    }

    /// Requests answered no later than the last scheduled send.
    pub fn answered_by_last_send(&self) -> usize {
        let end = self.scheduled_ns.last().copied().unwrap_or(0);
        self.answers
            .iter()
            .filter(|a| a.is_some_and(|a| a.done_ns <= end))
            .count()
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_at: usize,
    inbuf: Vec<u8>,
    inflight: VecDeque<usize>,
    alive: bool,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Block until a descriptor in `fds` is ready or `wait_ns` passes.
fn wait(fds: &mut [PollFd], wait_ns: u64) {
    let ts = Timespec {
        tv_sec: (wait_ns / 1_000_000_000) as i64,
        tv_nsec: (wait_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd records and `nfds` is its length; `ts` outlives the call; a
    // null sigmask means "leave the signal mask alone". An EINTR return
    // is harmless: the caller re-derives everything from the clock.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// Parse one HTTP/1.1 response with a `content-length` body from the
/// front of `buf`: `(bytes consumed, status, body range)`, or `None` when
/// it is still incomplete.
pub fn parse_response(buf: &[u8]) -> Result<Option<(usize, u16, std::ops::Range<usize>)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.trim().parse::<usize>())
        .ok_or("response without content-length")?
        .map_err(|e| format!("bad content-length: {e}"))?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some((
        body_start + length,
        status,
        body_start..body_start + length,
    )))
}

/// Send `schedule` over `streams` (round-robin, pipelined) and collect
/// every response, waiting at most `drain` after the last send.
/// `request(i, out)` appends request `i`'s wire bytes to `out`.
pub fn run(
    streams: &[TcpStream],
    schedule: &[u64],
    mut request: impl FnMut(usize, &mut Vec<u8>),
    drain: Duration,
) -> io::Result<Run> {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only changes
    // this thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
    let mut conns = Vec::with_capacity(streams.len());
    for s in streams {
        let stream = s.try_clone()?;
        stream.set_nonblocking(true)?;
        conns.push(Conn {
            stream,
            out: Vec::new(),
            out_at: 0,
            inbuf: Vec::with_capacity(64 * 1024),
            inflight: VecDeque::new(),
            alive: true,
        });
    }
    let n = schedule.len();
    let mut lateness_ns = vec![0u64; n];
    let mut answers: Vec<Option<Answer>> = vec![None; n];
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    let mut chunk = vec![0u8; 64 * 1024];
    let drain_ns = drain.as_nanos() as u64;
    let deadline = schedule.last().copied().unwrap_or(0) + drain_ns;
    let mut next = 0usize;
    let mut outstanding = 0usize;
    let mut rr = 0usize;

    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    loop {
        // Everything due goes out now, however many answers are pending.
        while next < n && schedule[next] <= now_ns() {
            let live = conns.iter().filter(|c| c.alive).count();
            if live == 0 {
                next = n;
                break;
            }
            let count = conns.len();
            while !conns[rr % count].alive {
                rr += 1;
            }
            let conn = &mut conns[rr % count];
            rr += 1;
            request(next, &mut conn.out);
            conn.inflight.push_back(next);
            lateness_ns[next] = now_ns() - schedule[next];
            next += 1;
            outstanding += 1;
        }
        for conn in conns
            .iter_mut()
            .filter(|c| c.alive && c.out_at < c.out.len())
        {
            match conn.stream.write(&conn.out[conn.out_at..]) {
                Ok(w) => conn.out_at += w,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => conn.alive = false,
            }
            if conn.out_at == conn.out.len() {
                conn.out.clear();
                conn.out_at = 0;
            }
        }
        for conn in conns.iter_mut().filter(|c| !c.alive) {
            outstanding -= conn.inflight.len();
            conn.inflight.clear();
        }
        let now = now_ns();
        if next == n && (outstanding == 0 || now >= deadline) {
            break;
        }
        let until = if next < n { schedule[next] } else { deadline };
        fds.clear();
        for conn in &conns {
            let mut events = 0;
            if conn.alive {
                events = POLLIN;
                if conn.out_at < conn.out.len() {
                    events |= POLLOUT;
                }
            }
            fds.push(PollFd {
                fd: if conn.alive {
                    conn.stream.as_raw_fd()
                } else {
                    -1
                },
                events,
                revents: 0,
            });
        }
        wait(&mut fds, until.saturating_sub(now));
        for (conn, fd) in conns.iter_mut().zip(&fds) {
            if fd.revents == 0 || !conn.alive {
                continue;
            }
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.alive = false;
                        break;
                    }
                    Ok(got) => {
                        let done_ns = now_ns();
                        conn.inbuf.extend_from_slice(&chunk[..got]);
                        let mut used = 0;
                        while let Ok(Some((len, status, body))) =
                            parse_response(&conn.inbuf[used..])
                        {
                            let body = &conn.inbuf[used..][body];
                            if let Some(i) = conn.inflight.pop_front() {
                                answers[i] = Some(Answer {
                                    status,
                                    body_digest: digest(body),
                                    body_len: body.len(),
                                    done_ns,
                                });
                                outstanding -= 1;
                            }
                            used += len;
                        }
                        conn.inbuf.drain(..used);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.alive = false;
                        break;
                    }
                }
            }
        }
    }
    Ok(Run {
        scheduled_ns: schedule.to_vec(),
        lateness_ns,
        answers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const REQUEST: &[u8] = b"GET /x HTTP/1.1\r\n\r\n";
    const RESPONSE: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_rate() {
        let a = poisson_schedule(11, 4000.0, 2.0);
        assert_eq!(a, poisson_schedule(11, 4000.0, 2.0));
        assert_ne!(a, poisson_schedule(12, 4000.0, 2.0));
        assert_ne!(a, poisson_schedule(11, 5000.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Poisson: about rate × duration arrivals.
        assert!((7600..8400).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn parses_pipelined_responses() {
        let mut wire = RESPONSE.to_vec();
        wire.extend_from_slice(RESPONSE);
        let (used, status, body) = parse_response(&wire).unwrap().unwrap();
        assert_eq!((used, status), (RESPONSE.len(), 200));
        assert_eq!(&wire[body], b"ok");
        assert!(parse_response(&wire[..RESPONSE.len() - 1])
            .unwrap()
            .is_none());
    }

    /// A stub server answers at once except for one 150 ms stall. The
    /// requests that fell due during the stall must carry its wait, and
    /// the generator must have kept sending them on time.
    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        const STALL_AFTER: usize = 200;
        const STALL: Duration = Duration::from_millis(150);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let schedule = poisson_schedule(5, 2000.0, 0.5);
        let total = schedule.len();
        let stub = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut buf = vec![0u8; REQUEST.len()];
            for i in 0..total {
                sock.read_exact(&mut buf).unwrap();
                if i == STALL_AFTER {
                    std::thread::sleep(STALL);
                }
                sock.write_all(RESPONSE).unwrap();
            }
        });
        let client = TcpStream::connect(addr).unwrap();
        client.set_nodelay(true).unwrap();
        let run = run(
            &[client],
            &schedule,
            |_, out| out.extend_from_slice(REQUEST),
            Duration::from_secs(5),
        )
        .unwrap();
        stub.join().unwrap();

        assert!(run
            .answers
            .iter()
            .all(|a| a.is_some_and(|a| a.status == 200)));
        // The stall began once request STALL_AFTER was read, no earlier
        // than it was due; it ended STALL later at the soonest.
        let stall_end = schedule[STALL_AFTER] + STALL.as_nanos() as u64;
        let during: Vec<usize> = (STALL_AFTER + 1..total)
            .filter(|&i| schedule[i] + 5_000_000 < stall_end)
            .collect();
        assert!(
            during.len() > 150,
            "only {} requests fell due",
            during.len()
        );
        for &i in &during {
            let waited_ms = (stall_end - schedule[i]) as f64 / 1e6;
            let latency = run.latency_ms(i).unwrap();
            assert!(
                latency >= waited_ms,
                "request {i} shows {latency} ms but was due {waited_ms} ms before the stall ended"
            );
        }
        // Sends did not wait for the stalled answers.
        let mut late: Vec<u64> = run.lateness_ns.clone();
        late.sort_unstable();
        let p99 = late[late.len() * 99 / 100];
        assert!(p99 < 5_000_000, "generator ran {p99} ns late at p99");
    }
}
