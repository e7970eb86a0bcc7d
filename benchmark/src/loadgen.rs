//! The load generator: fixed-rate open-loop and pipelined closed-loop
//! phases over real loopback TCP, from this one process.
//!
//! Open loop: one sender thread walks a precomputed schedule and never
//! waits for a reply, so a slow server receives the same load as a fast one.
//! Each request is timed **from its due time**, not from when it was
//! written: if the generator or the socket stalls, the wait lands in the
//! latency of the requests that were due meanwhile (no coordinated
//! omission). How late the generator ran is reported on its own.
//!
//! Every reply is compared byte for byte with the oracle's reply for the
//! request it answers; replies arrive in order on a connection, so a
//! dropped or reordered reply shows up as a mismatch.

use crate::stats::{fnv1a, FNV_OFFSET};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a phase waits for outstanding replies after its last send
/// before counting them as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Reader wake-up interval for noticing the end of a phase.
const READ_POLL: Duration = Duration::from_millis(20);
/// The sender sleeps to within this margin of a due time and spins the
/// rest: `thread::sleep` alone overshoots by the kernel's timer slack.
const SPIN_MARGIN: Duration = Duration::from_micros(120);

/// Width of the slices a window's replies are counted in (printed as an
/// `info` time series; the reported throughput is the whole window's).
pub const SLICE: Duration = Duration::from_millis(250);

/// The most requests the open-loop sender keeps in flight on a connection:
/// the front end's documented `max_inflight_per_conn`. A burst that would
/// cross it waits for replies — as a well-behaved pipelining client does —
/// and the wait lands in its latency, which still counts from the due time.
pub const MAX_INFLIGHT_PER_CONN: usize = 32;

/// The request pool a phase cycles through, with the oracle's replies.
pub struct Pool {
    /// Wire bytes of each request (`infer …\n`).
    pub wire: Vec<Vec<u8>>,
    /// Expected wire bytes of each reply (`ok …\n\n`). `None` keeps every
    /// measured reply in [`PhaseResult::records`] for the caller to check
    /// (the stream workload's replies depend on the model generation).
    pub expected: Option<Vec<Vec<u8>>>,
}

/// One reply kept for checking after the phase.
pub struct Record {
    pub seq: usize,
    pub pool_idx: usize,
    pub due: Instant,
    pub arrived: Instant,
    pub reply: Vec<u8>,
}

struct Outstanding {
    seq: usize,
    pool_idx: usize,
    due: Instant,
    measured: bool,
}

/// What one phase observed.
#[derive(Default)]
pub struct PhaseResult {
    /// Client-observed latency of every correct measured reply, µs.
    pub latency_us: Vec<f64>,
    /// Send lateness of every measured burst, µs.
    pub late_us: Vec<f64>,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Correct replies that arrived inside the measured window.
    pub ok_in_window: u64,
    pub window: Duration,
    /// The same replies counted per `SLICE` of the window, in time order.
    pub ok_per_slice: Vec<u64>,
    /// `(request sequence, FNV-1a of the reply bytes)` for measured replies.
    pub reply_hashes: Vec<(usize, u64)>,
    /// Measured replies, when the pool has no expected bytes.
    pub records: Vec<Record>,
}

impl PhaseResult {
    /// Correct replies per second over the whole measured window. The
    /// window spans many passes over the request pool, so the mix of cheap
    /// and dear requests is the same in every run; a median of slices would
    /// not be (a slice holds a few hundred requests of very unequal cost).
    pub fn ok_per_second(&self) -> f64 {
        self.ok_in_window as f64 / self.window.as_secs_f64()
    }

    /// Adds the next round of the same phase: samples, counts and windows
    /// accumulate, and the slices continue the time series.
    pub fn append(&mut self, next: PhaseResult) {
        self.latency_us.extend(next.latency_us);
        self.late_us.extend(next.late_us);
        self.sent += next.sent;
        self.ok += next.ok;
        self.failed += next.failed;
        self.bytes_out += next.bytes_out;
        self.bytes_in += next.bytes_in;
        self.ok_in_window += next.ok_in_window;
        self.window += next.window;
        self.ok_per_slice.extend(next.ok_per_slice);
        self.reply_hashes.extend(next.reply_hashes);
        self.records.extend(next.records);
    }

    /// FNV-1a over the measured replies in request order.
    pub fn reply_digest(&self) -> u64 {
        let mut hashes = self.reply_hashes.clone();
        hashes.sort_unstable();
        hashes
            .iter()
            .fold(FNV_OFFSET, |h, (_, r)| fnv1a(h, &r.to_le_bytes()))
    }

    fn merge(&mut self, other: PhaseResult) {
        self.latency_us.extend(other.latency_us);
        self.ok += other.ok;
        self.failed += other.failed;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        self.records.extend(other.records);
        self.ok_in_window += other.ok_in_window;
        if self.ok_per_slice.len() < other.ok_per_slice.len() {
            self.ok_per_slice.resize(other.ok_per_slice.len(), 0);
        }
        for (mine, theirs) in self.ok_per_slice.iter_mut().zip(&other.ok_per_slice) {
            *mine += theirs;
        }
        self.reply_hashes.extend(other.reply_hashes);
    }
}

/// Connections kept open across the phases of one run.
pub struct Client {
    conns: Vec<TcpStream>,
}

struct ConnState {
    outstanding: Mutex<VecDeque<Outstanding>>,
}

/// What a closed-loop reader needs to keep its window full.
struct Refill<'a> {
    next_seq: &'a AtomicUsize,
    warm_until: Instant,
}

impl Client {
    pub fn connect(addr: SocketAddr, conns: usize) -> std::io::Result<Client> {
        let conns = (0..conns)
            .map(|_| {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(READ_POLL))?;
                Ok(s)
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Client { conns })
    }

    /// Open-loop phase: sends `burst` pipelined requests at every due time
    /// of `schedule` (offsets from now), round-robin over the connections.
    /// Samples due before `warmup` has passed are sent but not recorded.
    pub fn open_loop(
        &mut self,
        pool: &Pool,
        schedule: &[Duration],
        burst: usize,
        warmup: Duration,
        first_seq: usize,
    ) -> PhaseResult {
        let states: Vec<ConnState> = self.conn_states();
        let done = AtomicBool::new(false);
        let start = Instant::now() + Duration::from_millis(2);
        let measure_from = start + warmup;
        let window_end = start + schedule.last().copied().unwrap_or_default();
        let mut result = PhaseResult {
            window: window_end.saturating_duration_since(measure_from),
            ..PhaseResult::default()
        };
        std::thread::scope(|scope| {
            let readers: Vec<_> = self
                .conns
                .iter()
                .zip(&states)
                .map(|(conn, state)| {
                    let done = &done;
                    scope.spawn(move || {
                        read_replies(conn, state, pool, done, measure_from, window_end, None)
                    })
                })
                .collect();
            // Ends the readers on every way out of the send loop, a panic
            // included: the scope would otherwise wait for them for ever.
            let done_guard = SetOnDrop(&done);
            let mut seq = first_seq;
            let mut buf = Vec::new();
            for (tick, offset) in schedule.iter().enumerate() {
                let due = start + *offset;
                sleep_until(due);
                let late = Instant::now().saturating_duration_since(due);
                let measured = due >= measure_from;
                let c = tick % self.conns.len();
                buf.clear();
                loop {
                    let mut q = states[c].outstanding.lock().expect("reader panicked");
                    if q.len() + burst > MAX_INFLIGHT_PER_CONN {
                        drop(q);
                        std::thread::yield_now();
                        continue;
                    }
                    for _ in 0..burst {
                        let pool_idx = seq % pool.wire.len();
                        buf.extend_from_slice(&pool.wire[pool_idx]);
                        q.push_back(Outstanding {
                            seq,
                            pool_idx,
                            due,
                            measured,
                        });
                        seq += 1;
                    }
                    break;
                }
                if (&self.conns[c]).write_all(&buf).is_err() {
                    break;
                }
                if measured {
                    result.late_us.push(late.as_secs_f64() * 1e6);
                    result.sent += burst as u64;
                    result.bytes_out += buf.len() as u64;
                }
            }
            drop(done_guard);
            for r in readers {
                result.merge(r.join().expect("reader thread panicked"));
            }
        });
        result
    }

    /// Closed-loop phase: every connection keeps `depth` requests in flight
    /// for `warmup + window`; each reply triggers the next request.
    pub fn closed_loop(
        &mut self,
        pool: &Pool,
        depth: usize,
        warmup: Duration,
        window: Duration,
        first_seq: usize,
    ) -> PhaseResult {
        let states = self.conn_states();
        let done = AtomicBool::new(false);
        let next_seq = AtomicUsize::new(first_seq);
        let start = Instant::now();
        let measure_from = start + warmup;
        let window_end = measure_from + window;
        let mut result = PhaseResult {
            window,
            ..PhaseResult::default()
        };
        std::thread::scope(|scope| {
            let readers: Vec<_> = self
                .conns
                .iter()
                .zip(&states)
                .map(|(conn, state)| {
                    let (done, refill) = (
                        &done,
                        Refill {
                            next_seq: &next_seq,
                            warm_until: measure_from,
                        },
                    );
                    scope.spawn(move || {
                        // Prime the window, then let replies clock the rest.
                        for _ in 0..depth {
                            send_next(conn, state, pool, &refill);
                        }
                        read_replies(
                            conn,
                            state,
                            pool,
                            done,
                            measure_from,
                            window_end,
                            Some(&refill),
                        )
                    })
                })
                .collect();
            sleep_until(window_end);
            done.store(true, Ordering::SeqCst);
            for r in readers {
                result.merge(r.join().expect("reader thread panicked"));
            }
        });
        result.sent = (next_seq.load(Ordering::SeqCst) - first_seq) as u64;
        result
    }

    fn conn_states(&self) -> Vec<ConnState> {
        self.conns
            .iter()
            .map(|_| ConnState {
                outstanding: Mutex::new(VecDeque::new()),
            })
            .collect()
    }
}

struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Sleeps (then spins the last stretch) until `due`.
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if let Some(left) = due.checked_duration_since(now) {
        if left > SPIN_MARGIN {
            std::thread::sleep(left - SPIN_MARGIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
    }
}

/// Sends the next pool request on `conn` (closed loop); returns bytes sent.
fn send_next(conn: &TcpStream, state: &ConnState, pool: &Pool, refill: &Refill) -> u64 {
    let seq = refill.next_seq.fetch_add(1, Ordering::SeqCst);
    let pool_idx = seq % pool.wire.len();
    let due = Instant::now();
    state
        .outstanding
        .lock()
        .expect("peer thread panicked")
        .push_back(Outstanding {
            seq,
            pool_idx,
            due,
            measured: due >= refill.warm_until,
        });
    let mut w = conn;
    match w.write_all(&pool.wire[pool_idx]) {
        Ok(()) => pool.wire[pool_idx].len() as u64,
        Err(_) => 0,
    }
}

/// Reads and checks replies on one connection until the phase is done and
/// nothing is outstanding. With `refill`, every reply sends one more
/// request while the phase is still running.
fn read_replies(
    conn: &TcpStream,
    state: &ConnState,
    pool: &Pool,
    done: &AtomicBool,
    measure_from: Instant,
    window_end: Instant,
    refill: Option<&Refill>,
) -> PhaseResult {
    let whole_slices = window_end
        .saturating_duration_since(measure_from)
        .as_nanos()
        / SLICE.as_nanos();
    let mut out = PhaseResult {
        // One spare slice takes the replies of a trailing partial slice.
        ok_per_slice: vec![0; whole_slices as usize + 1],
        ..PhaseResult::default()
    };
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = [0u8; 1 << 14];
    let mut done_at: Option<Instant> = None;
    let mut r = conn;
    let unanswered = || {
        state
            .outstanding
            .lock()
            .expect("peer thread panicked")
            .len() as u64
    };
    loop {
        if done.load(Ordering::SeqCst) {
            let since = *done_at.get_or_insert_with(Instant::now);
            if unanswered() == 0 {
                break;
            }
            if since.elapsed() > DRAIN_TIMEOUT {
                out.failed += unanswered(); // dropped or timed out
                break;
            }
        }
        let n = match r.read(&mut chunk) {
            Ok(n) if n > 0 => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            // The server closed on us, or the socket failed.
            Ok(_) | Err(_) => {
                out.failed += unanswered();
                break;
            }
        };
        let arrived = Instant::now();
        out.bytes_in += n as u64;
        buf.extend_from_slice(&chunk[..n]);
        // A reply is one `ok …`/`err …` line plus the empty terminator line.
        let mut consumed = 0;
        while let Some(end) = find_terminator(&buf[consumed..]) {
            let reply = &buf[consumed..consumed + end];
            consumed += end;
            let Some(req) = state
                .outstanding
                .lock()
                .expect("peer thread panicked")
                .pop_front()
            else {
                out.failed += 1; // a reply nobody asked for
                continue;
            };
            let correct = match &pool.expected {
                Some(expected) => reply == expected[req.pool_idx].as_slice(),
                None => {
                    if req.measured {
                        out.records.push(Record {
                            seq: req.seq,
                            pool_idx: req.pool_idx,
                            due: req.due,
                            arrived,
                            reply: reply.to_vec(),
                        });
                    }
                    true
                }
            };
            if req.measured {
                if correct {
                    out.ok += 1;
                    // A closed loop reports throughput only; its latencies
                    // would just be the harness's memory.
                    if refill.is_none() {
                        out.latency_us
                            .push(arrived.saturating_duration_since(req.due).as_secs_f64() * 1e6);
                    }
                    if arrived >= measure_from && arrived < window_end {
                        out.ok_in_window += 1;
                        let slice = (arrived - measure_from).as_nanos() / SLICE.as_nanos();
                        out.ok_per_slice[slice as usize] += 1;
                    }
                } else {
                    out.failed += 1;
                }
                if refill.is_none() {
                    out.reply_hashes.push((req.seq, fnv1a(FNV_OFFSET, reply)));
                }
            }
            if let Some(refill) = refill {
                if !done.load(Ordering::SeqCst) {
                    let bytes = send_next(conn, state, pool, refill);
                    if req.measured {
                        out.bytes_out += bytes;
                    }
                }
            }
        }
        buf.drain(..consumed);
    }
    out
}

/// One request out, one whole reply (through its blank line) back, on a
/// blocking stream: the unloaded round trip.
pub fn exchange(
    stream: &mut TcpStream,
    request: &[u8],
    reply: &mut Vec<u8>,
) -> std::io::Result<()> {
    let mut chunk = [0u8; 4096];
    reply.clear();
    stream.write_all(request)?;
    while !reply.ends_with(b"\n\n") {
        match stream.read(&mut chunk)? {
            0 => break,
            n => reply.extend_from_slice(&chunk[..n]),
        }
    }
    Ok(())
}

/// Length of the first complete reply in `buf` (through its `\n\n`).
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::schedule;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A line server answering `ok <line>` to everything, sequentially, that
    /// stops reading for `stall` once it has served `stall_after` requests.
    fn spawn_echo(stall_after: usize, stall: Duration, conns: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        for _ in 0..conns {
            let listener = listener.try_clone().unwrap();
            std::thread::spawn(move || {
                let (sock, _) = listener.accept().unwrap();
                let mut w = sock.try_clone().unwrap();
                for (served, line) in BufReader::new(sock).lines().enumerate() {
                    let Ok(line) = line else { break };
                    if served == stall_after {
                        std::thread::sleep(stall);
                    }
                    if w.write_all(format!("ok {line}\n\n").as_bytes()).is_err() {
                        break;
                    }
                }
            });
        }
        addr
    }

    fn pool(n: usize) -> Pool {
        let wire: Vec<Vec<u8>> = (0..n)
            .map(|i| format!("infer {i}\n").into_bytes())
            .collect();
        let expected = (0..n)
            .map(|i| format!("ok infer {i}\n\n").into_bytes())
            .collect();
        Pool {
            wire,
            expected: Some(expected),
        }
    }

    #[test]
    fn open_loop_times_from_due_so_a_stall_inflates_later_requests() {
        let stall = Duration::from_millis(120);
        let addr = spawn_echo(50, stall, 1);
        let mut client = Client::connect(addr, 1).unwrap();
        let due = schedule(1000.0, 1, Duration::from_millis(400));
        let r = client.open_loop(&pool(16), &due, 1, Duration::ZERO, 0);
        // The generator kept its schedule through the stall…
        assert_eq!(r.sent as usize, due.len());
        assert_eq!((r.ok, r.failed), (due.len() as u64, 0));
        // …so every request due while the server slept waited for it: about
        // one per millisecond of stall, not just the one that hit it.
        let waited = r.latency_us.iter().filter(|&&us| us > 20_000.0).count();
        assert!(waited >= 80, "only {waited} requests saw the stall");
        let worst = r.latency_us.iter().cloned().fold(0.0, f64::max);
        assert!(worst >= stall.as_secs_f64() * 1e6 * 0.9, "worst {worst} µs");
        // Requests before the stall were fast.
        let fast = r.latency_us.iter().filter(|&&us| us < 10_000.0).count();
        assert!(fast >= 200, "only {fast} fast requests");
    }

    #[test]
    fn mismatched_and_missing_replies_count_as_failed() {
        let addr = spawn_echo(usize::MAX, Duration::ZERO, 2);
        let mut client = Client::connect(addr, 2).unwrap();
        let mut p = pool(8);
        p.expected.as_mut().unwrap()[3] = b"ok something else\n\n".to_vec();
        let due = schedule(2000.0, 2, Duration::from_millis(100));
        let r = client.open_loop(&p, &due, 2, Duration::ZERO, 0);
        assert_eq!(r.sent, 200);
        assert_eq!(r.failed, 25, "one pool entry in eight is wrong");
        assert_eq!(r.ok, 175);
        assert_eq!(r.reply_hashes.len(), 200);
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_discards_warmup() {
        let addr = spawn_echo(usize::MAX, Duration::ZERO, 2);
        let mut client = Client::connect(addr, 2).unwrap();
        let r = client.closed_loop(&pool(8), 4, Duration::from_millis(50), 3 * SLICE, 0);
        assert_eq!(r.failed, 0);
        assert!(
            r.ok_in_window > 100,
            "closed loop barely ran: {}",
            r.ok_in_window
        );
        assert!(r.latency_us.is_empty() && r.sent >= r.ok);
        // Every reply of the window fell into one of its slices.
        assert_eq!(r.ok_per_slice.iter().sum::<u64>(), r.ok_in_window);
        assert!(r.ok_per_second() > 100.0 / (3.0 * SLICE.as_secs_f64()));
    }

    #[test]
    fn rounds_of_a_phase_accumulate() {
        let round = |ok: u64, lat: f64| PhaseResult {
            latency_us: vec![lat; 3],
            sent: ok,
            ok,
            ok_in_window: ok,
            window: Duration::from_secs(2),
            ok_per_slice: vec![ok / 2, ok / 2],
            ..PhaseResult::default()
        };
        let mut all = PhaseResult::default();
        all.append(round(100, 1.0));
        all.append(round(300, 2.0));
        assert_eq!((all.sent, all.ok, all.ok_in_window), (400, 400, 400));
        assert_eq!(all.window, Duration::from_secs(4));
        assert_eq!(all.ok_per_second(), 100.0);
        assert_eq!(all.latency_us, [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        assert_eq!(all.ok_per_slice, [50, 50, 150, 150]);
    }

    #[test]
    fn digest_is_in_request_order_whatever_the_arrival_order() {
        let a = PhaseResult {
            reply_hashes: vec![(2, 30), (0, 10), (1, 20)],
            ..PhaseResult::default()
        };
        let b = PhaseResult {
            reply_hashes: vec![(0, 10), (1, 20), (2, 30)],
            ..PhaseResult::default()
        };
        assert_eq!(a.reply_digest(), b.reply_digest());
        let c = PhaseResult {
            reply_hashes: vec![(0, 20), (1, 10), (2, 30)],
            ..PhaseResult::default()
        };
        assert_ne!(a.reply_digest(), c.reply_digest());
    }
}
