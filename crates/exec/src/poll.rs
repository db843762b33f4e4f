//! Minimal readiness-driven I/O layer over Linux `epoll`.
//!
//! The container ships no async runtime and the workspace vendors no I/O
//! crates, so the reactor front end in `sss-server` and the HTTP load
//! driver in `sss-loadgen` both sit on this hand-rolled shim: raw `extern
//! "C"` declarations for the handful of syscalls they need (`std` already
//! links libc on every supported target, so no new dependency is involved).
//!
//! Three primitives:
//!
//! - [`Poller`] — an `epoll` instance: register file descriptors with a
//!   `u64` token and level-triggered read/write interest, then block in
//!   [`Poller::wait`] with a bounded timeout.
//! - [`WakePipe`] — the classic self-pipe: worker threads call
//!   [`WakePipe::wake`] to make the event loop's `wait` return even when no
//!   socket is ready; the loop drains the pipe and picks up whatever the
//!   workers queued.
//! - [`raise_nofile_limit`] — best-effort `RLIMIT_NOFILE` bump so one
//!   process can actually hold the tens of thousands of sockets the C10k
//!   path is about.
//!
//! On non-Linux targets every constructor returns
//! [`std::io::ErrorKind::Unsupported`], so the workspace still compiles
//! there and callers fail with a clear error at runtime (the server
//! refuses to bind).

use std::io;

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// The descriptor is readable (data pending, peer half-closed, or an
    /// error is pending — a subsequent `read` will not block).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// The kernel flagged an error or hangup condition.
    pub error: bool,
}

/// Reusable buffer of kernel events filled by [`Poller::wait`].
#[derive(Debug)]
pub struct Events {
    buf: Vec<sys::RawEvent>,
    len: usize,
}

impl Events {
    /// A buffer able to receive up to `capacity` events per `wait` call.
    pub fn with_capacity(capacity: usize) -> Self {
        Events {
            buf: vec![sys::RawEvent::EMPTY; capacity.max(1)],
            len: 0,
        }
    }

    /// Iterate over the events delivered by the most recent `wait`.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(sys::RawEvent::parse)
    }

    /// Number of events delivered by the most recent `wait`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the most recent `wait` timed out with no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A level-triggered `epoll` instance.
///
/// Descriptors are registered with a caller-chosen `u64` token that comes
/// back verbatim in each [`Event`]; the poller never interprets it.
#[derive(Debug)]
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// Create a new poller (`epoll_create1(EPOLL_CLOEXEC)` on Linux).
    pub fn new() -> io::Result<Self> {
        Ok(Poller {
            inner: sys::Poller::new()?,
        })
    }

    /// Register `fd` with the given interest set.
    pub fn add(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.inner
            .ctl(sys::CtlOp::Add, fd, token, readable, writable)
    }

    /// Change the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.inner
            .ctl(sys::CtlOp::Mod, fd, token, readable, writable)
    }

    /// Deregister `fd`. Closing a descriptor removes it implicitly, but an
    /// explicit removal keeps the interest list tidy when a connection is
    /// retired before its socket drops.
    pub fn remove(&self, fd: i32) -> io::Result<()> {
        self.inner.ctl(sys::CtlOp::Del, fd, 0, false, false)
    }

    /// Block until at least one registered descriptor is ready or
    /// `timeout_ms` elapses; fills `events` and returns the event count
    /// (0 on timeout). `EINTR` is reported as a timeout rather than an
    /// error so callers' tick loops stay simple.
    pub fn wait(&self, events: &mut Events, timeout_ms: i32) -> io::Result<usize> {
        let n = self.inner.wait(&mut events.buf, timeout_ms)?;
        events.len = n;
        Ok(n)
    }
}

/// Self-pipe used to wake a [`Poller::wait`] from other threads.
///
/// The read end is registered in the epoll set; any thread may call
/// [`WakePipe::wake`]. Both ends are nonblocking, so a full pipe simply
/// means a wake-up is already pending — `wake` never blocks and never
/// fails in a way the caller needs to handle.
#[derive(Debug)]
pub struct WakePipe {
    inner: sys::WakePipe,
}

impl WakePipe {
    /// Create the pipe (`pipe2(O_NONBLOCK | O_CLOEXEC)` on Linux).
    pub fn new() -> io::Result<Self> {
        Ok(WakePipe {
            inner: sys::WakePipe::new()?,
        })
    }

    /// The read end's descriptor, for registration in a [`Poller`].
    pub fn read_fd(&self) -> i32 {
        self.inner.read_fd()
    }

    /// Make any pending or future `wait` on the registered poller return.
    pub fn wake(&self) {
        self.inner.wake();
    }

    /// Drain every queued wake-up byte; call once per readiness event on
    /// the read end so level-triggered polling does not spin.
    pub fn drain(&self) {
        self.inner.drain();
    }
}

/// Best-effort raise of the process's open-file soft limit toward `want`
/// (clamped to the hard limit). Returns the soft limit now in effect —
/// unchanged when the kernel refuses or the platform has no rlimits.
pub fn raise_nofile_limit(want: u64) -> u64 {
    sys::raise_nofile_limit(want)
}

/// Re-arm an already-listening socket with a deeper accept backlog
/// (Linux allows `listen(2)` again on a bound listener; the kernel caps
/// the value at `net.core.somaxconn`). `std` hard-codes a backlog of
/// 128, which a connection ramp overflows in one burst — overflowed SYNs
/// are silently dropped and retransmit on a 1 s timer, so a deep backlog
/// is the difference between a ramp measured in milliseconds and one
/// measured in retransmits. No-op error on non-Linux targets.
pub fn deepen_listen_backlog(fd: i32, backlog: i32) -> io::Result<()> {
    sys::deepen_listen_backlog(fd, backlog)
}

#[cfg(target_os = "linux")]
mod sys {
    //! Real Linux implementation: raw syscall externs, no libc crate.

    use super::Event;
    use std::io;
    use std::os::raw::{c_int, c_void};

    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const O_NONBLOCK: c_int = 0o4000;
    const O_CLOEXEC: c_int = 0o2000000;
    const RLIMIT_NOFILE: c_int = 7;
    const EINTR: i32 = 4;

    /// `struct epoll_event`; packed on x86-64 (the kernel ABI quirk), the
    /// natural C layout elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Debug, Clone, Copy)]
    pub(super) struct RawEvent {
        events: u32,
        data: u64,
    }

    impl RawEvent {
        pub(super) const EMPTY: RawEvent = RawEvent { events: 0, data: 0 };

        pub(super) fn parse(&self) -> Event {
            // Copy out of the (possibly packed) struct before touching bits.
            let flags = { self.events };
            let token = { self.data };
            Event {
                token,
                // ERR/HUP are folded into readability (and writability) so
                // the owner performs an I/O call and observes the failure
                // instead of spinning on an event it never services.
                readable: flags & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                writable: flags & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                error: flags & (EPOLLERR | EPOLLHUP) != 0,
            }
        }
    }

    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut RawEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut RawEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
    }

    #[derive(Debug)]
    pub(super) struct Poller {
        fd: c_int,
    }

    pub(super) enum CtlOp {
        Add,
        Mod,
        Del,
    }

    impl Poller {
        pub(super) fn new() -> io::Result<Self> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { fd })
        }

        pub(super) fn ctl(
            &self,
            op: CtlOp,
            fd: i32,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let mut flags = 0u32;
            if readable {
                flags |= EPOLLIN | EPOLLRDHUP;
            }
            if writable {
                flags |= EPOLLOUT;
            }
            let mut ev = RawEvent {
                events: flags,
                data: token,
            };
            let op = match op {
                CtlOp::Add => 1,
                CtlOp::Del => 2,
                CtlOp::Mod => 3,
            };
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn wait(&self, buf: &mut [RawEvent], timeout_ms: i32) -> io::Result<usize> {
            let n =
                unsafe { epoll_wait(self.fd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.raw_os_error() == Some(EINTR) {
                    return Ok(0);
                }
                return Err(err);
            }
            Ok(n as usize)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    #[derive(Debug)]
    pub(super) struct WakePipe {
        read_fd: c_int,
        write_fd: c_int,
    }

    impl WakePipe {
        pub(super) fn new() -> io::Result<Self> {
            let mut fds = [0 as c_int; 2];
            let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(WakePipe {
                read_fd: fds[0],
                write_fd: fds[1],
            })
        }

        pub(super) fn read_fd(&self) -> i32 {
            self.read_fd
        }

        pub(super) fn wake(&self) {
            let byte = 1u8;
            // EAGAIN here means the pipe already holds unread wake-ups, so
            // the poller is guaranteed to wake regardless — safe to ignore.
            unsafe { write(self.write_fd, (&byte as *const u8).cast(), 1) };
        }

        pub(super) fn drain(&self) {
            let mut buf = [0u8; 64];
            loop {
                let n = unsafe { read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
                if n <= 0 {
                    break;
                }
            }
        }
    }

    impl Drop for WakePipe {
        fn drop(&mut self) {
            unsafe {
                close(self.read_fd);
                close(self.write_fd);
            }
        }
    }

    pub(super) fn deepen_listen_backlog(fd: c_int, backlog: c_int) -> io::Result<()> {
        if unsafe { listen(fd, backlog.max(1)) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub(super) fn raise_nofile_limit(want: u64) -> u64 {
        let mut lim = Rlimit { cur: 0, max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return 0;
        }
        if lim.cur >= want {
            return lim.cur;
        }
        let new_cur = want.min(lim.max);
        let raised = Rlimit {
            cur: new_cur,
            max: lim.max,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
            new_cur
        } else {
            lim.cur
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Portable stub: constructors fail with `Unsupported`, so callers
    //! compile everywhere and report the missing platform at runtime.

    use super::Event;
    use std::io;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll readiness I/O requires Linux",
        )
    }

    #[derive(Debug, Clone, Copy)]
    pub(super) struct RawEvent;

    impl RawEvent {
        pub(super) const EMPTY: RawEvent = RawEvent;

        pub(super) fn parse(&self) -> Event {
            Event {
                token: 0,
                readable: false,
                writable: false,
                error: false,
            }
        }
    }

    #[derive(Debug)]
    pub(super) struct Poller;

    pub(super) enum CtlOp {
        Add,
        Mod,
        Del,
    }

    impl Poller {
        pub(super) fn new() -> io::Result<Self> {
            Err(unsupported())
        }

        pub(super) fn ctl(
            &self,
            _op: CtlOp,
            _fd: i32,
            _token: u64,
            _readable: bool,
            _writable: bool,
        ) -> io::Result<()> {
            Err(unsupported())
        }

        pub(super) fn wait(&self, _buf: &mut [RawEvent], _timeout_ms: i32) -> io::Result<usize> {
            Err(unsupported())
        }
    }

    #[derive(Debug)]
    pub(super) struct WakePipe;

    impl WakePipe {
        pub(super) fn new() -> io::Result<Self> {
            Err(unsupported())
        }

        pub(super) fn read_fd(&self) -> i32 {
            -1
        }

        pub(super) fn wake(&self) {}

        pub(super) fn drain(&self) {}
    }

    pub(super) fn raise_nofile_limit(_want: u64) -> u64 {
        0
    }

    pub(super) fn deepen_listen_backlog(_fd: i32, _backlog: i32) -> io::Result<()> {
        Err(unsupported())
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn wait_times_out_with_no_registrations() {
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(4);
        let n = poller.wait(&mut events, 10).unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
    }

    #[test]
    fn wake_pipe_wakes_and_drains() {
        let poller = Poller::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        poller.add(pipe.read_fd(), 7, true, false).unwrap();

        let mut events = Events::with_capacity(4);
        // No wake yet: times out.
        assert_eq!(poller.wait(&mut events, 10).unwrap(), 0);

        pipe.wake();
        pipe.wake(); // coalesces; still a single readiness event
        let n = poller.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, 7);
        assert!(ev.readable);

        pipe.drain();
        // Drained: back to timing out (level-triggered would spin otherwise).
        assert_eq!(poller.wait(&mut events, 10).unwrap(), 0);
    }

    #[test]
    fn wake_from_another_thread_interrupts_wait() {
        let poller = Poller::new().unwrap();
        let pipe = std::sync::Arc::new(WakePipe::new().unwrap());
        poller.add(pipe.read_fd(), 1, true, false).unwrap();

        let waker = pipe.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            waker.wake();
        });
        let mut events = Events::with_capacity(4);
        // Generous timeout: the wake must arrive long before it.
        let n = poller.wait(&mut events, 5_000).unwrap();
        assert_eq!(n, 1);
        handle.join().unwrap();
    }

    #[test]
    fn socket_readability_and_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        let fd = server.as_raw_fd();
        poller.add(fd, 42, true, true).unwrap();

        let mut events = Events::with_capacity(4);
        // Empty read buffer, empty write buffer: only writable.
        let n = poller.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert!(ev.writable && !ev.readable, "{ev:?}");

        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        // Now readable too.
        let mut saw_readable = false;
        for _ in 0..100 {
            poller.wait(&mut events, 100).unwrap();
            if events.iter().any(|e| e.token == 42 && e.readable) {
                saw_readable = true;
                break;
            }
        }
        assert!(saw_readable);

        let mut server = server;
        let mut buf = [0u8; 16];
        assert_eq!(server.read(&mut buf).unwrap(), 4);

        poller.remove(fd).unwrap();
        // Removed: further client writes produce no events.
        client.write_all(b"more").unwrap();
        assert_eq!(poller.wait(&mut events, 20).unwrap(), 0);
    }

    #[test]
    fn peer_close_reports_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 9, true, false).unwrap();
        drop(client);

        let mut events = Events::with_capacity(4);
        let mut saw = false;
        for _ in 0..100 {
            poller.wait(&mut events, 100).unwrap();
            if events.iter().any(|e| e.token == 9 && e.readable) {
                saw = true;
                break;
            }
        }
        assert!(saw, "peer close must surface as readability (EOF)");
    }

    #[test]
    fn nofile_limit_is_at_least_current() {
        let now = raise_nofile_limit(1);
        assert!(now >= 1);
        // Asking for more never lowers it.
        assert!(raise_nofile_limit(now) >= now);
    }
}
