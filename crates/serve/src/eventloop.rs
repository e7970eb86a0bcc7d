//! Single-threaded readiness front end: the one way a line gets from a
//! socket to the engine.
//!
//! One thread multiplexes every client connection: a nonblocking listener,
//! a wakeup pipe, and per-connection nonblocking sockets are registered
//! with one level-triggered poller — epoll on Linux, `poll(2)` on every
//! other unix ([`sys::Poller`]; the loop is generic over it and otherwise
//! identical). Request lines are framed incrementally from a
//! per-connection read buffer — a line split across TCP segments, or a
//! slow-loris client trickling bytes, parks state in that buffer without
//! holding a thread or stalling any other connection.
//!
//! Requests on one connection are pipelined: each parsed line gets a
//! sequence number and `infer` lines go to the engine through
//! [`ServeHandle::submit_with`] with a callback that pushes the answer onto
//! the shared completion queue and tickles the wakeup pipe. Workers
//! complete out of order, so finished responses wait in a per-connection
//! reorder buffer until every earlier sequence number has flushed —
//! responses always leave in request order.
//!
//! Admission control happens in two places: at accept time (global
//! connection cap → `err server-busy`, socket closed) and at submit time
//! (per-connection in-flight cap → `err server-busy` for that request
//! only). Slow readers get backpressure instead of unbounded buffering:
//! once a connection's unflushed output exceeds a high-water mark, the loop
//! stops reading from it (drops its read interest) until the backlog
//! drains. Read interest is also dropped for good once the peer has
//! finished sending: a half-closed socket stays read-ready forever, and a
//! level-triggered poller would otherwise spin on it until the last answer
//! owed to it completes.
//!
//! Stop: [`crate::TcpServer::stop`] sets the flag and wakes the pipe; the
//! loop observes it within one wakeup (or one 50 ms safety tick), gives
//! every connection one greedy nonblocking flush, closes everything, and
//! exits. Completions that arrive for connections that no longer exist are
//! dropped — the engine's own shutdown drain still answers every queued
//! job.

use crate::engine::ServeHandle;
use crate::error::ServeError;
use crate::metrics::Metrics;
use crate::protocol::{classify_line, encode_lines, format_error, format_response, LineAction};
use crate::server::FrontendConfig;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub(crate) use sys::Poller;

/// The readiness implementation [`crate::TcpServer`] runs on this platform.
#[cfg(target_os = "linux")]
pub(crate) type NativePoller = sys::Epoll;
#[cfg(not(target_os = "linux"))]
pub(crate) type NativePoller = sys::poll2::PollSet;

/// Safety tick: the longest the loop sleeps in the poller before
/// re-checking the stop flag, so `TcpServer::stop()` terminates within
/// roughly one tick even if the wakeup write itself were lost.
const TICK_MS: i32 = 50;

/// Socket read chunk size (stack scratch, reused across connections).
const READ_CHUNK: usize = 16 * 1024;

/// Slow-reader backpressure: once a connection's unflushed output exceeds
/// this, the loop stops reading its requests until the backlog drains.
const OUT_HIGH_WATER: usize = 256 * 1024;

/// Accept-error backoff bounds: the first EMFILE/ENFILE-style failure waits
/// `ACCEPT_BACKOFF_MIN`, doubling per consecutive failure up to the max, so
/// fd exhaustion never turns accepting into a hot error spin.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);

const DATA_LISTENER: u64 = 0;
const DATA_WAKER: u64 = 1;
const FIRST_CONN_ID: u64 = 2;

pub(crate) mod sys {
    //! Raw syscall bindings for epoll/poll/pipe/rlimit — the workspace is
    //! std-only (no libc crate), so the handful of symbols the loop needs
    //! are declared here directly. The only arch-sensitive piece is
    //! `EpollEvent`'s layout, handled per-arch below.

    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;

    /// Readiness bits, for interest sets and reported masks alike. `poll(2)`
    /// gives `IN`/`OUT`/`ERR`/`HUP` the values epoll does on every unix.
    pub const IN: u32 = 0x001;
    pub const OUT: u32 = 0x004;
    pub const ERR: u32 = 0x008;
    pub const HUP: u32 = 0x010;
    /// Peer closed its sending side. epoll only: under `poll(2)` the same
    /// condition surfaces as `IN` followed by a zero-length read.
    pub const RDHUP: u32 = 0x2000;

    /// The four readiness calls the loop makes. The loop is generic over
    /// this trait (monomorphised, no dynamic dispatch), so the `poll(2)`
    /// implementation that non-Linux targets run is also driven by a test
    /// on Linux.
    pub trait Poller: Sized + Send + 'static {
        fn new() -> io::Result<Self>;
        /// Starts reporting `interest` on `fd` as `(token, mask)`; `ERR`
        /// and `HUP` are reported whether asked for or not.
        fn add(&mut self, fd: RawFd, interest: u32, token: u64) -> io::Result<()>;
        fn modify(&mut self, fd: RawFd, interest: u32, token: u64) -> io::Result<()>;
        fn delete(&mut self, fd: RawFd) -> io::Result<()>;
        /// Blocks up to `timeout_ms` and replaces the contents of `ready`
        /// with the `(token, mask)` pairs that are ready (level-triggered).
        fn wait(&mut self, ready: &mut Vec<(u64, u32)>, timeout_ms: i32) -> io::Result<()>;
    }

    // On Linux only the in-crate loop test runs over this.
    #[cfg_attr(all(target_os = "linux", not(test)), allow(dead_code))]
    pub mod poll2 {
        use super::{cvt, Poller, IN, OUT};
        use std::io;
        use std::os::fd::RawFd;
        use std::os::raw::{c_int, c_short};

        #[repr(C)]
        struct PollFd {
            fd: c_int,
            events: c_short,
            revents: c_short,
        }

        #[cfg(target_os = "linux")]
        type NFds = std::os::raw::c_ulong;
        #[cfg(not(target_os = "linux"))]
        type NFds = std::os::raw::c_uint;

        extern "C" {
            fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
        }

        /// `poll(2)` readiness: the registered set lives in user space and is
        /// handed to the kernel whole on every wait. Finding an fd is a linear
        /// scan — the same order of work as the `poll` call it sits beside.
        pub struct PollSet {
            fds: Vec<PollFd>,
            /// `tokens[i]` is what `fds[i]` reports as.
            tokens: Vec<u64>,
        }

        impl PollSet {
            fn slot(&self, fd: RawFd) -> io::Result<usize> {
                let found = self.fds.iter().position(|p| p.fd == fd);
                found.ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))
            }
        }

        impl Poller for PollSet {
            fn new() -> io::Result<Self> {
                Ok(PollSet {
                    fds: Vec::new(),
                    tokens: Vec::new(),
                })
            }

            fn add(&mut self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
                self.fds.push(PollFd {
                    fd,
                    events: (interest & (IN | OUT)) as c_short,
                    revents: 0,
                });
                self.tokens.push(token);
                Ok(())
            }

            fn modify(&mut self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
                let i = self.slot(fd)?;
                self.fds[i].events = (interest & (IN | OUT)) as c_short;
                self.tokens[i] = token;
                Ok(())
            }

            fn delete(&mut self, fd: RawFd) -> io::Result<()> {
                let i = self.slot(fd)?;
                self.fds.swap_remove(i);
                self.tokens.swap_remove(i);
                Ok(())
            }

            fn wait(&mut self, ready: &mut Vec<(u64, u32)>, timeout_ms: i32) -> io::Result<()> {
                ready.clear();
                // SAFETY: `fds` is a valid writable array of `fds.len()` pollfd
                // entries; the kernel writes only their `revents`.
                let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NFds, timeout_ms) };
                if cvt(n)? > 0 {
                    for (p, &token) in self.fds.iter().zip(&self.tokens) {
                        if p.revents != 0 {
                            ready.push((token, u32::from(p.revents as u16)));
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// A nonblocking wakeup channel; returns `(read_end, write_end)`. A
    /// socket pair where `pipe2` and its flag values are not available.
    #[cfg(not(target_os = "linux"))]
    pub fn make_pipe() -> io::Result<(std::fs::File, std::fs::File)> {
        let (rx, tx) = std::os::unix::net::UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        let as_file = |s| std::fs::File::from(std::os::fd::OwnedFd::from(s));
        Ok((as_file(rx), as_file(tx)))
    }

    #[cfg(target_os = "linux")]
    pub use linux::{make_pipe, raise_nofile_limit, Epoll};

    #[cfg(target_os = "linux")]
    mod linux {
        use super::{cvt, Poller};
        use std::fs::File;
        use std::io;
        use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
        use std::os::raw::c_int;

        /// Events fetched per `epoll_wait`; level-triggered epoll re-reports
        /// anything that did not fit on the next iteration.
        const EVENTS_PER_WAIT: usize = 256;

        const EPOLL_CLOEXEC: c_int = 0o2000000;
        const EPOLL_CTL_ADD: c_int = 1;
        const EPOLL_CTL_DEL: c_int = 2;
        const EPOLL_CTL_MOD: c_int = 3;
        const O_NONBLOCK: c_int = 0o4000;
        const O_CLOEXEC: c_int = 0o2000000;
        const RLIMIT_NOFILE: c_int = 7;

        /// Mirrors the kernel's `struct epoll_event`, whose layout is
        /// arch-dependent: x86-64 packs it to 12 bytes (no padding between the
        /// 32-bit event mask and the 64-bit data word — a compatibility quirk
        /// inherited from the 32-bit ABI), while every other Linux arch uses
        /// the plain C layout of `{u32; u64}` (16 bytes on aarch64 and other
        /// 64-bit arches, which `repr(C)` reproduces exactly). Packing
        /// unconditionally would make `epoll_wait` on aarch64 write 16-byte
        /// entries into a 12-byte-stride buffer — out-of-bounds heap writes and
        /// events routed to the wrong connections — so the packing is gated on
        /// the target arch instead of assumed.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        struct EpollEvent {
            events: u32,
            data: u64,
        }

        // Layout guard for the one arch where we override the C ABI.
        #[cfg(target_arch = "x86_64")]
        const _: () = assert!(std::mem::size_of::<EpollEvent>() == 12);

        #[repr(C)]
        #[derive(Clone, Copy)]
        struct RLimit {
            cur: u64,
            max: u64,
        }

        extern "C" {
            fn epoll_create1(flags: c_int) -> c_int;
            fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            fn pipe2(pipefd: *mut c_int, flags: c_int) -> c_int;
            fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
            fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
        }

        /// One epoll instance plus the buffer `epoll_wait` fills.
        pub struct Epoll {
            fd: OwnedFd,
            events: Vec<EpollEvent>,
        }

        impl Epoll {
            fn ctl(&self, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
                let mut ev = EpollEvent { events, data };
                // SAFETY: `ev` outlives the call; the kernel copies it.
                cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
                Ok(())
            }
        }

        impl Poller for Epoll {
            fn new() -> io::Result<Self> {
                // SAFETY: plain syscall; on success the returned fd is fresh
                // and exclusively ours to wrap.
                let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
                Ok(Epoll {
                    fd: unsafe { OwnedFd::from_raw_fd(fd) },
                    events: vec![EpollEvent { events: 0, data: 0 }; EVENTS_PER_WAIT],
                })
            }

            fn add(&mut self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
                self.ctl(EPOLL_CTL_ADD, fd, interest, token)
            }

            fn modify(&mut self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
                self.ctl(EPOLL_CTL_MOD, fd, interest, token)
            }

            fn delete(&mut self, fd: RawFd) -> io::Result<()> {
                // The event argument is ignored for DEL but must be non-null
                // on pre-2.6.9 kernels; pass a dummy.
                self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
            }

            fn wait(&mut self, ready: &mut Vec<(u64, u32)>, timeout_ms: i32) -> io::Result<()> {
                ready.clear();
                // SAFETY: `events` is a valid writable slice; the kernel
                // fills at most `events.len()` entries.
                let n = cvt(unsafe {
                    epoll_wait(
                        self.fd.as_raw_fd(),
                        self.events.as_mut_ptr(),
                        self.events.len() as c_int,
                        timeout_ms,
                    )
                })?;
                ready.extend(self.events[..n as usize].iter().map(|e| (e.data, e.events)));
                Ok(())
            }
        }

        /// A nonblocking close-on-exec pipe; returns `(read_end, write_end)`.
        pub fn make_pipe() -> io::Result<(File, File)> {
            let mut fds = [0 as c_int; 2];
            // SAFETY: `fds` is a valid 2-element array for pipe2 to fill.
            cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
            // SAFETY: on success both fds are fresh and exclusively ours.
            Ok(unsafe { (File::from_raw_fd(fds[0]), File::from_raw_fd(fds[1])) })
        }

        /// Raises the process soft `RLIMIT_NOFILE` toward `want` file
        /// descriptors, lifting the hard limit too when the process may (e.g.
        /// root). Returns the soft limit actually in effect afterwards, which
        /// may be lower than `want` in unprivileged processes. Exposed for
        /// connection-scale harnesses — a 10k-connection sweep needs ~2×10k
        /// fds in one process (server + client side).
        ///
        /// # Errors
        /// When `getrlimit`/`setrlimit` fail outright.
        pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
            let mut lim = RLimit { cur: 0, max: 0 };
            // SAFETY: `lim` is a valid RLimit for the kernel to fill.
            cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
            if lim.cur >= want {
                return Ok(lim.cur);
            }
            let raised = RLimit {
                cur: want,
                max: lim.max.max(want),
            };
            // SAFETY: `raised` is a valid RLimit; the kernel copies it.
            if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
                return Ok(raised.cur);
            }
            // Raising the hard limit needs privileges: settle for the hard cap.
            let capped = RLimit {
                cur: lim.max.min(want).max(lim.cur),
                max: lim.max,
            };
            // SAFETY: as above.
            cvt(unsafe { setrlimit(RLIMIT_NOFILE, &capped) })?;
            Ok(capped.cur)
        }
    }
}

/// Wakes the event loop from any thread by writing one byte into its pipe.
pub(crate) struct Waker {
    pipe: File,
}

impl Waker {
    /// Makes the loop's next poller wait return promptly. Best-effort by
    /// design: a full pipe already guarantees a pending wakeup, and `EPIPE`
    /// after the loop exited means nobody is left to wake.
    pub(crate) fn wake(&self) {
        let _ = (&self.pipe).write(&[1]);
    }
}

/// One finished engine request, routed back to `(connection, sequence)`.
struct Completion {
    conn: u64,
    seq: u64,
    result: Result<crate::pipeline::InferResponse, ServeError>,
}

/// Shared funnel from worker threads back into the loop: push the answer,
/// wake the pipe (only on the empty→non-empty transition — the loop drains
/// the whole queue per wakeup, so one byte covers any number of pushes).
struct Completions {
    queue: Mutex<Vec<Completion>>,
    waker: Arc<Waker>,
}

impl Completions {
    fn push(&self, c: Completion) {
        let was_empty = {
            let mut q = self.queue.lock().expect("completion queue poisoned");
            let was_empty = q.is_empty();
            q.push(c);
            was_empty
        };
        if was_empty {
            self.waker.wake();
        }
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"))
    }
}

/// A finished response waiting for its turn in sequence order.
struct DoneReply {
    bytes: Vec<u8>,
    close_after: bool,
}

/// Per-connection state: framing buffer in, ordered responses out.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet framed into complete lines.
    rbuf: Vec<u8>,
    /// Where the newline scan resumes (everything before it was scanned),
    /// so a slowly-trickled long line costs O(bytes), not O(bytes²).
    scan_from: usize,
    /// Encoded responses not yet fully written to the socket…
    out: Vec<u8>,
    /// …and how much of the front of `out` already went out.
    out_pos: usize,
    /// Sequence number the next parsed request line will get.
    next_seq: u64,
    /// Next sequence number allowed to flush: pipelined responses leave in
    /// request order even though workers complete out of order.
    flush_seq: u64,
    /// Out-of-order completions parked until `flush_seq` reaches them.
    done: BTreeMap<u64, DoneReply>,
    /// Requests currently submitted to the engine.
    inflight: usize,
    /// No more request intake (EOF, `quit`, oversized line); the
    /// connection closes once everything in flight has flushed.
    read_closed: bool,
    /// Close as soon as `out` drains (a `quit` or fatal protocol error
    /// reached the front of the response stream).
    close_after_flush: bool,
    /// Currently registered interest, to skip redundant modifies.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream, interest: u32) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            scan_from: 0,
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            flush_seq: 0,
            done: BTreeMap::new(),
            inflight: 0,
            read_closed: false,
            close_after_flush: false,
            interest,
        }
    }

    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// What to do with a connection after an I/O pass.
#[derive(PartialEq)]
enum After {
    Keep,
    Close,
}

/// Binds the loop's poller and wakeup pipe and spawns its thread; returns
/// that thread plus the handle used to wake it.
pub(crate) fn start<P: Poller>(
    listener: TcpListener,
    handle: ServeHandle,
    cfg: FrontendConfig,
    stop: Arc<AtomicBool>,
) -> io::Result<(Arc<Waker>, JoinHandle<()>)> {
    let (wake_rx, wake_tx) = sys::make_pipe()?;
    let waker = Arc::new(Waker { pipe: wake_tx });
    let mut poller = P::new()?;
    poller.add(listener.as_raw_fd(), sys::IN, DATA_LISTENER)?;
    poller.add(wake_rx.as_raw_fd(), sys::IN, DATA_WAKER)?;
    let completions = Arc::new(Completions {
        queue: Mutex::new(Vec::new()),
        waker: Arc::clone(&waker),
    });
    let mut el = EventLoop {
        poller,
        wake_rx,
        listener,
        handle,
        cfg,
        stop,
        completions,
        conns: BTreeMap::new(),
        next_id: FIRST_CONN_ID,
        accept_paused_until: None,
        accept_backoff: ACCEPT_BACKOFF_MIN,
    };
    let thread = std::thread::Builder::new()
        .name("imre-serve-loop".to_string())
        .spawn(move || el.run())?;
    Ok((waker, thread))
}

struct EventLoop<P> {
    poller: P,
    wake_rx: File,
    listener: TcpListener,
    handle: ServeHandle,
    cfg: FrontendConfig,
    stop: Arc<AtomicBool>,
    completions: Arc<Completions>,
    /// Sorted map, not a hash map: shutdown iteration (and with it the
    /// order of final flushes) stays deterministic run to run.
    conns: BTreeMap<u64, Conn>,
    next_id: u64,
    /// While `Some`, the listener is deregistered and accepting resumes at
    /// the stored instant (accept-error backoff without sleeping the loop).
    accept_paused_until: Option<Instant>,
    accept_backoff: Duration,
}

impl<P: Poller> EventLoop<P> {
    fn run(&mut self) {
        let mut ready: Vec<(u64, u32)> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            if let Err(e) = self.poller.wait(&mut ready, self.wait_timeout_ms()) {
                // An interrupted wait leaves `ready` empty; the poller
                // itself failing is unrecoverable, so fall through to the
                // shutdown drain.
                if e.kind() != io::ErrorKind::Interrupted {
                    break;
                }
            }
            let mut accept_ready = false;
            for &(data, mask) in &ready {
                match data {
                    DATA_LISTENER => accept_ready = true,
                    DATA_WAKER => self.drain_wake_pipe(),
                    id => self.on_conn_event(id, mask),
                }
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            self.deliver_completions();
            self.maybe_resume_accept();
            if accept_ready && self.accept_paused_until.is_none() {
                self.accept_burst();
            }
        }
        self.shutdown_conns();
    }

    fn wait_timeout_ms(&self) -> i32 {
        match self.accept_paused_until {
            Some(resume) => {
                let left = resume.saturating_duration_since(Instant::now());
                (left.as_millis() as i32 + 1).min(TICK_MS)
            }
            None => TICK_MS,
        }
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained
            }
        }
    }

    fn accept_burst(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_MIN;
                    let metrics = self.handle.metrics();
                    if self.conns.len() >= self.cfg.max_connections {
                        Metrics::inc(&metrics.rejected_conn_cap);
                        reject_busy(&stream, self.cfg.max_connections);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let id = self.next_id;
                    let interest = sys::IN | sys::RDHUP;
                    if self.poller.add(stream.as_raw_fd(), interest, id).is_err() {
                        // Registration failing is a resource problem, same
                        // as hitting the cap from the client's view.
                        Metrics::inc(&metrics.rejected_conn_cap);
                        reject_busy(&stream, self.cfg.max_connections);
                        continue;
                    }
                    self.next_id += 1;
                    Metrics::inc(&metrics.active_connections);
                    Metrics::inc(&metrics.conns_opened);
                    self.conns.insert(id, Conn::new(stream, interest));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE-style accept failure: deregister the listener
                    // and resume after an exponential backoff instead of
                    // spinning on a level-triggered error.
                    Metrics::inc(&self.handle.metrics().accept_errors);
                    let _ = self.poller.delete(self.listener.as_raw_fd());
                    self.accept_paused_until = Some(Instant::now() + self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    break;
                }
            }
        }
    }

    fn maybe_resume_accept(&mut self) {
        if let Some(resume) = self.accept_paused_until {
            if Instant::now() >= resume {
                self.accept_paused_until = None;
                let _ = self
                    .poller
                    .add(self.listener.as_raw_fd(), sys::IN, DATA_LISTENER);
            }
        }
    }

    fn on_conn_event(&mut self, id: u64, mask: u32) {
        // A connection closed earlier in this same event batch can leave a
        // stale event behind.
        if !self.conns.contains_key(&id) {
            return;
        }
        if mask & sys::ERR != 0 {
            self.close_conn(id);
            return;
        }
        if mask & sys::OUT != 0 && !self.flush_conn(id) {
            return;
        }
        if mask & (sys::IN | sys::RDHUP | sys::HUP) != 0 {
            self.read_conn(id);
        }
    }

    /// Reads everything currently available on `id`, framing and
    /// dispatching complete request lines as they appear.
    fn read_conn(&mut self, id: u64) {
        let EventLoop {
            conns,
            handle,
            cfg,
            completions,
            ..
        } = self;
        let Some(conn) = conns.get_mut(&id) else {
            return;
        };
        let mut scratch = [0u8; READ_CHUNK];
        let after = loop {
            if conn.read_closed || conn.backlog() >= OUT_HIGH_WATER {
                break After::Keep;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    // Peer finished sending (EOF or half-close). Anything
                    // already submitted still gets answered and flushed.
                    conn.read_closed = true;
                    break After::Keep;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&scratch[..n]);
                    process_input(conn, id, handle, cfg, completions);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break After::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break After::Close,
            }
        };
        if after == After::Close {
            self.close_conn(id);
        } else {
            self.flush_conn(id);
        }
    }

    /// Writes as much buffered output as the socket takes. Returns `false`
    /// when the connection was closed (fatal write error, or an orderly
    /// close once everything owed was flushed).
    fn flush_conn(&mut self, id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return false;
        };
        match flush_into_socket(conn) {
            After::Close => {
                self.close_conn(id);
                false
            }
            After::Keep => {
                self.update_interest(id);
                true
            }
        }
    }

    /// Re-registers the connection's interest from its state: read-side
    /// readiness (data or peer half-close) only while `read_conn` would act
    /// on it — intake open and the backlog under the high-water mark —
    /// because a level-triggered report nobody consumes fires on every wait;
    /// write while output is pending.
    fn update_interest(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut want = 0;
        if !conn.read_closed && conn.backlog() < OUT_HIGH_WATER {
            want |= sys::IN | sys::RDHUP;
        }
        if conn.backlog() > 0 {
            want |= sys::OUT;
        }
        let fd = conn.stream.as_raw_fd();
        if want != conn.interest && self.poller.modify(fd, want, id).is_ok() {
            conn.interest = want;
        }
    }

    /// Routes finished engine requests back onto their connections and
    /// flushes each touched connection once.
    fn deliver_completions(&mut self) {
        let batch = self.completions.drain();
        if batch.is_empty() {
            return;
        }
        let mut touched: Vec<u64> = Vec::with_capacity(batch.len());
        for c in batch {
            // The client may have vanished mid-request; its answer has
            // nowhere to go.
            let Some(conn) = self.conns.get_mut(&c.conn) else {
                continue;
            };
            conn.inflight = conn.inflight.saturating_sub(1);
            let line = match &c.result {
                Ok(resp) => format_response(resp),
                Err(e) => format_error(e),
            };
            complete(conn, c.seq, encode_lines(&[line]), false);
            touched.push(c.conn);
        }
        touched.sort_unstable();
        touched.dedup();
        for id in touched {
            self.flush_conn(id);
        }
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            Metrics::dec(&self.handle.metrics().active_connections);
            // Dropping `conn.stream` closes the fd.
        }
    }

    /// Stop-path drain: one greedy nonblocking flush per connection, then
    /// close everything. In-flight answers that complete later find no
    /// connection and are dropped (fail-fast).
    fn shutdown_conns(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(conn) = self.conns.get_mut(&id) {
                let _ = flush_into_socket(conn);
            }
            self.close_conn(id);
        }
    }
}

/// Tells a connection the server cannot take it right now, then closes it.
/// Best-effort: the peer may already be gone, and we never block the
/// accept path on a slow receiver.
fn reject_busy(stream: &TcpStream, limit: usize) {
    let err = ServeError::ServerBusy {
        what: "connections",
        limit,
    };
    stream.set_nonblocking(true).ok();
    let _ = (&*stream).write_all(&encode_lines(&[format_error(&err)]));
}

fn flush_into_socket(conn: &mut Conn) -> After {
    loop {
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            break;
        }
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return After::Close,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return After::Close,
        }
    }
    let owes_nothing = conn.inflight == 0 && conn.done.is_empty();
    if conn.out.is_empty() && (conn.close_after_flush || (conn.read_closed && owes_nothing)) {
        After::Close
    } else {
        After::Keep
    }
}

/// Frames complete lines out of the connection's read buffer and
/// dispatches each one. Oversized lines — complete or still growing — get
/// a typed `bad-request` and close the connection after pending responses
/// flush, so a hostile client cannot grow the buffer without bound.
fn process_input(
    conn: &mut Conn,
    id: u64,
    handle: &ServeHandle,
    cfg: &FrontendConfig,
    completions: &Arc<Completions>,
) {
    let mut consumed = 0usize;
    while !conn.read_closed {
        let Some(rel) = conn.rbuf[conn.scan_from..].iter().position(|&b| b == b'\n') else {
            conn.scan_from = conn.rbuf.len();
            break;
        };
        let end = conn.scan_from + rel;
        if end - consumed > cfg.max_line_bytes {
            reject_oversized(conn, cfg);
            break;
        }
        let line = String::from_utf8_lossy(&conn.rbuf[consumed..end]).into_owned();
        consumed = end + 1;
        conn.scan_from = consumed;
        handle_request_line(conn, id, &line, handle, cfg, completions);
    }
    if conn.read_closed {
        conn.rbuf.clear();
        conn.scan_from = 0;
        return;
    }
    conn.rbuf.drain(..consumed);
    conn.scan_from -= consumed;
    if conn.rbuf.len() > cfg.max_line_bytes {
        reject_oversized(conn, cfg);
    }
}

fn reject_oversized(conn: &mut Conn, cfg: &FrontendConfig) {
    let err = ServeError::BadRequest(format!("request line exceeds {} bytes", cfg.max_line_bytes));
    let seq = conn.next_seq;
    conn.next_seq += 1;
    complete(conn, seq, encode_lines(&[format_error(&err)]), true);
    conn.read_closed = true;
}

/// Classifies and resolves one request line at sequence number `seq`:
/// immediate commands complete on the spot, `infer` goes to the engine
/// under the per-connection in-flight cap.
fn handle_request_line(
    conn: &mut Conn,
    id: u64,
    line: &str,
    handle: &ServeHandle,
    cfg: &FrontendConfig,
    completions: &Arc<Completions>,
) {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    match classify_line(handle, line) {
        LineAction::Quit => {
            // Stop intake now; earlier pipelined responses still flush,
            // then the connection closes (no reply for `quit` itself).
            conn.read_closed = true;
            complete(conn, seq, Vec::new(), true);
        }
        LineAction::Respond(lines) => {
            complete(conn, seq, encode_lines(&lines), false);
        }
        LineAction::Submit(req) => {
            if conn.inflight >= cfg.max_inflight_per_conn {
                Metrics::inc(&handle.metrics().rejected_inflight);
                let e = ServeError::ServerBusy {
                    what: "in-flight",
                    limit: cfg.max_inflight_per_conn,
                };
                complete(conn, seq, encode_lines(&[format_error(&e)]), false);
                return;
            }
            let comp = Arc::clone(completions);
            let submitted = handle.submit_with(req, move |result| {
                comp.push(Completion {
                    conn: id,
                    seq,
                    result,
                });
            });
            match submitted {
                Ok(()) => conn.inflight += 1,
                // Rejected at the queue (full / shutting down): the
                // callback was not invoked, answer here.
                Err(e) => complete(conn, seq, encode_lines(&[format_error(&e)]), false),
            }
        }
    }
}

/// Lands the finished response for `seq`, then moves every consecutively
/// finished response (in `flush_seq` order) into the output buffer —
/// pipelined responses leave in request order no matter how the engine
/// reordered their completions.
fn complete(conn: &mut Conn, seq: u64, bytes: Vec<u8>, close_after: bool) {
    conn.done.insert(seq, DoneReply { bytes, close_after });
    while let Some(reply) = conn.done.remove(&conn.flush_seq) {
        conn.flush_seq += 1;
        conn.out.extend_from_slice(&reply.bytes);
        if reply.close_after {
            conn.close_after_flush = true;
            conn.read_closed = true;
            // Anything sequenced after a close point is moot.
            conn.done.clear();
            break;
        }
    }
}

/// Drives the whole loop over the `poll(2)` implementation — the one
/// non-Linux targets run — on Linux, where CI can see it.
#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::sys::poll2::PollSet;
    use crate::{EngineConfig, FrontendConfig, Registry, ServeHandle, TcpServer};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Open sockets and pipes, and live loop threads. No other unit test in
    /// this crate creates any of them, so the counts are this test's alone
    /// even with the harness running tests in parallel.
    fn footprint() -> (usize, usize) {
        let count = |dir: &str, keep: &dyn Fn(&std::path::Path) -> bool| {
            let entries = std::fs::read_dir(dir).expect(dir);
            entries
                .filter(|e| keep(&e.as_ref().expect(dir).path()))
                .count()
        };
        let is_channel = |fd: &std::path::Path| {
            let target = std::fs::read_link(fd).unwrap_or_default();
            let target = target.to_string_lossy();
            target.starts_with("socket:") || target.starts_with("pipe:")
        };
        let is_loop = |task: &std::path::Path| {
            std::fs::read_to_string(task.join("comm")).is_ok_and(|c| c == "imre-serve-loop\n")
        };
        (
            count("/proc/self/fd", &is_channel),
            count("/proc/self/task", &is_loop),
        )
    }

    fn connect(server: &TcpServer) -> TcpStream {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let limit = Some(Duration::from_secs(5));
        stream.set_read_timeout(limit).expect("read timeout");
        stream
    }

    /// One reply: everything up to and including its empty terminator line.
    fn read_reply(stream: &mut TcpStream) -> String {
        let mut reply = Vec::new();
        while !reply.ends_with(b"\n\n") {
            let mut byte = [0];
            stream.read_exact(&mut byte).expect("read reply");
            reply.push(byte[0]);
        }
        String::from_utf8(reply).expect("utf-8 reply")
    }

    #[test]
    fn the_loop_serves_the_whole_contract_over_poll2() {
        let baseline = footprint();
        // workers: 0 — submitted requests stay in flight until shutdown.
        let engine = EngineConfig {
            workers: 0,
            ..EngineConfig::default()
        };
        let handle = ServeHandle::start(Arc::new(Registry::new()), engine);
        let cfg = FrontendConfig {
            max_inflight_per_conn: 2,
            max_line_bytes: 256,
            ..FrontendConfig::default()
        };
        let mut server =
            TcpServer::spawn_on::<PollSet>(handle.clone(), "127.0.0.1:0", cfg).expect("bind");

        let mut a = connect(&server);
        a.write_all(b"ping\n").expect("ping");
        assert_eq!(read_reply(&mut a), "ok pong\n\n");
        assert_eq!(footprint().1, baseline.1 + 1, "one loop thread serves");
        a.write_all(&b"ping\n".repeat(64)).expect("pipelined pings");
        for i in 0..64 {
            assert_eq!(read_reply(&mut a), "ok pong\n\n", "pipelined ping {i}");
        }

        // A newline-free stream past the cap: typed reject, then close.
        let mut b = connect(&server);
        b.write_all(&[b'x'; 1024]).expect("oversized");
        let reply = read_reply(&mut b);
        assert!(reply.starts_with("err bad-request"), "{reply:?}");
        assert_eq!(b.read(&mut [0]).expect("read after reject"), 0);

        // Three infers against an in-flight cap of two, then a ping: the
        // third is refused at once, yet every reply waits its turn behind
        // the two that only shutdown resolves.
        let infer = b"infer model=ghost head=a tail=b text=a b\n";
        a.write_all(&[&infer.repeat(3)[..], b"ping\n"].concat())
            .expect("burst");
        let metrics = handle.metrics();
        let start = Instant::now();
        while metrics.rejected_inflight.load(Ordering::Relaxed) < 1 {
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "no in-flight reject"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(metrics.submitted.load(Ordering::Relaxed), 2);
        handle.shutdown();
        for want in [
            "err shutting-down",
            "err shutting-down",
            "err server-busy",
            "ok pong",
        ] {
            let reply = read_reply(&mut a);
            assert!(reply.starts_with(want), "expected {want}, got {reply:?}");
        }

        // `a` is still connected and idle: stop must not wait for it.
        let start = Instant::now();
        server.stop();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "stop took {:?} with an idle connection",
            start.elapsed()
        );
        assert_eq!(metrics.active_connections.load(Ordering::Relaxed), 0);
        drop((a, b, server));
        // A joined thread's /proc entry can outlive the join by a moment.
        let start = Instant::now();
        while footprint() != baseline {
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "leaked fds or a loop thread: {:?} vs {baseline:?} before",
                footprint()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
