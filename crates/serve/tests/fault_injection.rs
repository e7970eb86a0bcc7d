//! Deterministic fault-injection tests for the serving request lifecycle:
//! slow/idle clients, mid-backlog and zero-worker shutdown, expired
//! deadlines, and full-queue shedding.
//!
//! Every scenario here is *model-free* — it drives the engine against an
//! empty registry, because the lifecycle paths under test (deadline shed at
//! dequeue, shutdown drain, stop-aware connections) must all fire *before*
//! any model is resolved or a forward pass runs. That keeps the whole suite
//! fast enough for a tight CI loop (`scripts/ci.sh serve-faults`).

use imre_serve::{EngineConfig, InferRequest, Registry, ServeError, ServeHandle, TcpServer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Reads one protocol reply — payload lines up to (and consuming) the empty
/// terminator line. Panics on EOF mid-reply so a dropped connection shows up
/// as a crisp failure, not a hang.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read reply line");
        assert!(n > 0, "peer closed mid-reply; got {lines:?}");
        let line = line.trim_end_matches(['\r', '\n']).to_string();
        if line.is_empty() {
            return lines;
        }
        lines.push(line);
    }
}

/// Polls `probe` until it returns true or `limit` elapses.
fn wait_until(limit: Duration, what: &str, mut probe: impl FnMut() -> bool) {
    let start = Instant::now();
    while !probe() {
        assert!(
            start.elapsed() < limit,
            "{what} not reached within {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A syntactically valid request; the engine sheds or fails it before any
/// model lookup, so the empty registry is never consulted.
fn request(i: usize) -> InferRequest {
    InferRequest {
        model: "ghost".to_string(),
        head: "a".to_string(),
        tail: "b".to_string(),
        text: format!("a relates to b case {i}"),
        top_k: 0,
        deadline_ms: None,
        ..InferRequest::default()
    }
}

fn start_engine(config: EngineConfig) -> ServeHandle {
    ServeHandle::start(Arc::new(Registry::new()), config)
}

/// Runs `f` on a helper thread and panics if it has not finished within
/// `limit` — turns a would-be infinite hang into a crisp test failure.
fn assert_finishes_within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            thread.join().expect("helper thread");
            value
        }
        Err(_) => panic!("{what} did not finish within {limit:?}"),
    }
}

#[test]
fn stop_joins_idle_connection_within_one_second() {
    let handle = start_engine(EngineConfig::default());
    let mut server = TcpServer::spawn(handle.clone(), "127.0.0.1:0").expect("bind");

    // An idle client: connects, completes one round-trip so we know the
    // loop has registered it, then never sends another byte.
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    writer.write_all(b"ping\n").expect("write ping");
    writer.flush().expect("flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read pong");
    assert_eq!(line.trim_end(), "ok pong");
    assert_eq!(
        handle.metrics().active_connections.load(Ordering::Relaxed),
        1,
        "connection must be tracked while the client is connected"
    );

    // stop() wakes the loop, which closes the idle connection and exits —
    // the whole drain is bounded well under a second.
    let start = Instant::now();
    assert_finishes_within(Duration::from_secs(1), "TcpServer::stop()", move || {
        server.stop();
    });
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "stop took {:?} with an idle client connected",
        start.elapsed()
    );
    assert_eq!(
        handle.metrics().active_connections.load(Ordering::Relaxed),
        0,
        "connection gauge must return to zero after stop"
    );
    handle.shutdown();
}

#[test]
fn shutdown_with_zero_workers_answers_every_queued_pending() {
    // workers: 0 — nothing ever drains the queue, so shutdown itself must
    // fail-fast the queued jobs instead of waiting for a drain that will
    // never happen.
    let handle = start_engine(EngineConfig {
        workers: 0,
        queue_capacity: 16,
        ..EngineConfig::default()
    });
    let pending: Vec<_> = (0..8)
        .map(|i| handle.submit(request(i)).expect("submit"))
        .collect();

    {
        let handle = handle.clone();
        assert_finishes_within(Duration::from_secs(2), "shutdown(workers=0)", move || {
            handle.shutdown();
        });
    }

    for (i, p) in pending.into_iter().enumerate() {
        match assert_finishes_within(Duration::from_secs(1), "Pending::wait", move || p.wait()) {
            Err(ServeError::ShuttingDown) => {}
            other => panic!("queued request {i}: expected ShuttingDown, got {other:?}"),
        }
    }
    let m = handle.metrics();
    assert_eq!(m.shed.load(Ordering::Relaxed), 8);
    assert_eq!(m.errors.load(Ordering::Relaxed), 8);
    assert_eq!(m.deadline_expired.load(Ordering::Relaxed), 0);
}

#[test]
fn expired_deadline_is_shed_without_featurize_or_forward() {
    let handle = start_engine(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    // deadline_ms: 0 — expired the instant it was submitted, so the worker
    // dequeues an already-dead job. It must be answered DeadlineExceeded
    // without touching the registry (which would yield UnknownModel), the
    // featurizer, or the forward pass.
    let mut req = request(0);
    req.deadline_ms = Some(0);
    let p = handle.submit(req).expect("submit");
    match assert_finishes_within(Duration::from_secs(2), "deadline wait", move || p.wait()) {
        Err(ServeError::DeadlineExceeded { budget_ms }) => assert_eq!(budget_ms, 0),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let m = handle.metrics();
    assert_eq!(
        m.forward.count(),
        0,
        "an expired request must not run a forward pass"
    );
    assert_eq!(
        m.featurize.count(),
        0,
        "an expired request must not be featurized"
    );
    assert_eq!(m.deadline_expired.load(Ordering::Relaxed), 1);
    assert_eq!(m.shed.load(Ordering::Relaxed), 1);

    // A request without a deadline on the same engine reaches the registry
    // (UnknownModel), proving the worker is alive and only expired jobs
    // were short-circuited.
    match handle.infer(request(1)) {
        Err(ServeError::UnknownModel(name)) => assert_eq!(name, "ghost"),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn engine_default_deadline_applies_to_requests_without_their_own() {
    let handle = start_engine(EngineConfig {
        workers: 1,
        default_deadline_ms: Some(0),
        ..EngineConfig::default()
    });
    let p = handle.submit(request(0)).expect("submit");
    match assert_finishes_within(Duration::from_secs(2), "deadline wait", move || p.wait()) {
        Err(ServeError::DeadlineExceeded { budget_ms }) => assert_eq!(budget_ms, 0),
        other => panic!("expected DeadlineExceeded via engine default, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn wait_timeout_leaves_request_in_flight() {
    let handle = start_engine(EngineConfig {
        workers: 0,
        ..EngineConfig::default()
    });
    let p = handle.submit(request(0)).expect("submit");
    // Nothing will ever answer (no workers): wait_timeout must give up
    // cleanly instead of blocking forever…
    assert!(
        p.wait_timeout(Duration::from_millis(20)).is_none(),
        "wait_timeout must report a still-in-flight request as None"
    );
    assert!(p.poll().is_none());
    // …and the request stays submitted: shutdown still answers it.
    handle.shutdown();
    match p.wait_timeout(Duration::from_secs(1)) {
        Some(Err(ServeError::ShuttingDown)) => {}
        other => panic!("expected ShuttingDown after shutdown, got {other:?}"),
    }
}

#[test]
fn full_queue_sheds_at_submission_and_stats_render_lifecycle_counters() {
    let handle = start_engine(EngineConfig {
        workers: 0,
        queue_capacity: 2,
        ..EngineConfig::default()
    });
    let _p0 = handle.submit(request(0)).expect("first fits");
    let _p1 = handle.submit(request(1)).expect("second fits");
    match handle.submit(request(2)) {
        Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 2),
        Err(other) => panic!("expected QueueFull, got {other:?}"),
        Ok(_) => panic!("expected QueueFull, got an accepted request"),
    }
    handle.shutdown();

    // Regression: the stats dump must render every lifecycle counter.
    let stats = handle.stats_text();
    assert!(
        stats.contains("rejected_queue_full=1"),
        "stats missing queue-full rejection:\n{stats}"
    );
    assert!(
        stats.contains("lifecycle: deadline_expired=0 shed=2 active_connections=0"),
        "stats missing lifecycle counters:\n{stats}"
    );
}

#[test]
fn expired_deadline_over_tcp_answers_with_the_wire_code() {
    let handle = start_engine(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let mut server = TcpServer::spawn(handle.clone(), "127.0.0.1:0").expect("bind");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"infer model=ghost head=a tail=b deadline=0 text=a b\n")
        .expect("write infer");
    writer.flush().expect("flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    assert!(
        line.starts_with("err deadline-exceeded"),
        "expected deadline-exceeded on the wire, got {line:?}"
    );
    server.stop();
    handle.shutdown();
}

#[test]
fn stop_with_mid_request_client_still_joins_promptly() {
    // A "slow loris" client that sends half a request line and stalls: the
    // loop holds a partial line in that connection's read buffer. stop()
    // must still take it down within one tick.
    let handle = start_engine(EngineConfig::default());
    let mut server = TcpServer::spawn(handle.clone(), "127.0.0.1:0").expect("bind");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    writer
        .write_all(b"infer model=ghost hea")
        .expect("half a line");
    writer.flush().expect("flush");
    // Let the loop absorb the partial line.
    std::thread::sleep(Duration::from_millis(100));

    let start = Instant::now();
    assert_finishes_within(Duration::from_secs(1), "TcpServer::stop()", move || {
        server.stop();
    });
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "stop took {:?} with a stalled mid-request client",
        start.elapsed()
    );
    handle.shutdown();
}

#[test]
fn shutdown_under_backlog_answers_every_pending() {
    // One worker and a 32-job backlog: close the queue while the worker is
    // somewhere in the middle of it. Everything the worker dequeues is
    // answered by the worker (UnknownModel from the empty registry);
    // anything still queued when the worker exits is failed fast by
    // shutdown. Either way, every Pending resolves.
    let handle = start_engine(EngineConfig {
        workers: 1,
        queue_capacity: 64,
        default_deadline_ms: None,
        ..EngineConfig::default()
    });
    let pending: Vec<_> = (0..32)
        .map(|i| handle.submit(request(i)).expect("submit"))
        .collect();
    {
        let handle = handle.clone();
        assert_finishes_within(
            Duration::from_secs(5),
            "shutdown under backlog",
            move || {
                handle.shutdown();
            },
        );
    }
    let mut answered = 0;
    for (i, p) in pending.into_iter().enumerate() {
        match assert_finishes_within(Duration::from_secs(1), "Pending::wait", move || p.wait()) {
            Err(ServeError::UnknownModel(_)) | Err(ServeError::ShuttingDown) => answered += 1,
            other => panic!("request {i}: unexpected reply {other:?}"),
        }
    }
    assert_eq!(answered, 32, "every pending must resolve across shutdown");
    let m = handle.metrics();
    assert_eq!(
        m.errors.load(Ordering::Relaxed),
        32,
        "all 32 must be accounted as errors (UnknownModel or ShuttingDown)"
    );
}

/// Fault injection at the wire boundary of the event-loop front end:
/// incremental framing under trickled input, admission control
/// (per-connection in-flight cap, global connection cap), oversized-line and
/// non-UTF-8 rejection, completions racing disconnects and half-closes, and
/// stop at connection scale.
#[cfg(unix)]
mod event_loop {
    use super::*;
    use imre_serve::FrontendConfig;

    /// Connects to `server`, returning a writer plus a buffered reader with
    /// a generous read timeout so a lost reply fails the test instead of
    /// hanging it.
    fn connect(server: &TcpServer) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        (stream, reader)
    }

    const INFER_LINE: &[u8] = b"infer model=ghost head=a tail=b text=a b\n";

    #[test]
    fn trickled_request_line_does_not_stall_other_connections() {
        let handle = start_engine(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let mut server = TcpServer::spawn(handle.clone(), "127.0.0.1:0").expect("bind");

        // A slow-loris client trickles one request line a few bytes at a
        // time; between every fragment a second connection must stay fully
        // responsive (its reads would time out if the loop stalled on the
        // partial line).
        let (mut slow, mut slow_reader) = connect(&server);
        let (mut fast, mut fast_reader) = connect(&server);
        for chunk in INFER_LINE.chunks(5) {
            slow.write_all(chunk).expect("trickle fragment");
            slow.flush().expect("flush fragment");
            fast.write_all(b"ping\n").expect("interleaved ping");
            assert_eq!(read_reply(&mut fast_reader), vec!["ok pong".to_string()]);
        }

        // Once the final fragment lands, the reassembled line parses and
        // resolves like any other request (UnknownModel from the empty
        // registry proves it reached the engine intact).
        let reply = read_reply(&mut slow_reader);
        assert_eq!(reply.len(), 1, "one reply line, got {reply:?}");
        assert!(
            reply[0].starts_with("err unknown-model"),
            "trickled line must reassemble into a real request, got {reply:?}"
        );
        server.stop();
        handle.shutdown();
    }

    #[test]
    fn oversized_line_answers_typed_bad_request_and_closes() {
        let handle = start_engine(EngineConfig::default());
        let cfg = FrontendConfig {
            max_line_bytes: 256,
            ..FrontendConfig::default()
        };
        let mut server = TcpServer::spawn_with(handle.clone(), "127.0.0.1:0", cfg).expect("bind");
        let (mut stream, mut reader) = connect(&server);
        // 1 KiB with no newline: the framer must reject the connection
        // without ever seeing a complete line.
        stream.write_all(&[b'a'; 1024]).expect("write oversized");
        stream.flush().expect("flush");
        let reply = read_reply(&mut reader);
        assert!(
            reply[0].starts_with("err bad-request"),
            "expected typed bad-request, got {reply:?}"
        );
        let mut extra = String::new();
        assert_eq!(
            reader.read_line(&mut extra).expect("read after reject"),
            0,
            "connection must close after the oversized reject"
        );
        server.stop();
        handle.shutdown();
    }

    #[test]
    fn fast_newline_free_stream_is_rejected_mid_line() {
        // A hostile client streaming newline-free bytes *without pausing*
        // never leaves a gap between reads, so the cap must be enforced per
        // read chunk, mid-line — not only once a newline shows up.
        let handle = start_engine(EngineConfig::default());
        let cfg = FrontendConfig {
            max_line_bytes: 256,
            ..FrontendConfig::default()
        };
        let mut server = TcpServer::spawn_with(handle.clone(), "127.0.0.1:0", cfg).expect("bind");
        let (stream, mut reader) = connect(&server);
        let writer = std::thread::spawn(move || {
            // Stream far past the cap with no gap between writes; stop
            // only when the server closes the socket on us.
            let chunk = [b'x'; 4096];
            let mut sent = 0usize;
            let mut stream = stream;
            while sent < 8 * 1024 * 1024 {
                match stream.write_all(&chunk) {
                    Ok(()) => sent += chunk.len(),
                    Err(_) => break, // reset/EPIPE after the reject
                }
            }
        });
        let reply = read_reply(&mut reader);
        assert!(
            reply[0].starts_with("err bad-request"),
            "expected typed bad-request mid-stream, got {reply:?}"
        );
        writer.join().expect("writer thread");
        server.stop();
        handle.shutdown();
    }

    #[test]
    fn non_utf8_line_answers_one_bad_request_and_keeps_the_connection() {
        let handle = start_engine(EngineConfig::default());
        let mut server = TcpServer::spawn(handle.clone(), "127.0.0.1:0").expect("bind");
        let (mut stream, mut reader) = connect(&server);
        // Bytes that are no UTF-8 sequence, pipelined ahead of a ping: the
        // bad line costs exactly one typed reply, and the very next reply
        // is the ping's — nothing extra in between, connection still up.
        stream
            .write_all(b"\xff\xfe infer \xc3\x28\x80\nping\n")
            .expect("write non-utf8 line");
        stream.flush().expect("flush");
        let reply = read_reply(&mut reader);
        assert_eq!(reply.len(), 1, "one reply line, got {reply:?}");
        assert!(
            reply[0].starts_with("err bad-request"),
            "expected typed bad-request, got {reply:?}"
        );
        assert_eq!(read_reply(&mut reader), vec!["ok pong".to_string()]);
        server.stop();
        handle.shutdown();
    }

    /// CPU time, in ms, consumed so far by each of this process's
    /// event-loop threads, keyed by thread id.
    #[cfg(target_os = "linux")]
    fn loop_cpu_ms() -> std::collections::BTreeMap<std::ffi::OsString, u64> {
        let tasks = std::fs::read_dir("/proc/self/task").expect("list threads");
        tasks
            .filter_map(|task| {
                let task = task.ok()?;
                // A thread may exit between the listing and the reads.
                let stat = std::fs::read_to_string(task.path().join("stat")).ok()?;
                let (name, rest) = stat.split_once(") ")?;
                // utime and stime, in 10 ms ticks: fields 14 and 15 of the
                // line, 12 and 13 after the parenthesised name.
                let ticks = rest.split(' ').skip(11).take(2);
                let ticks: u64 = ticks.map(|t| t.parse::<u64>().expect("ticks")).sum();
                name.ends_with("(imre-serve-loop")
                    .then(|| (task.file_name(), ticks * 10))
            })
            .collect()
    }

    /// `workers: 0` parks one request in flight — it can only resolve at
    /// shutdown — and the peer leaves first: entirely, or only its sending
    /// side (`half_close`), in which case it is still owed the answer.
    /// Either way the completion must find the connection's true state,
    /// the connection must be reaped and the gauge return to zero; nothing
    /// may panic, hang or spin.
    fn peer_leaves_with_a_request_in_flight(half_close: bool) {
        let handle = start_engine(EngineConfig {
            workers: 0,
            ..EngineConfig::default()
        });
        #[cfg(target_os = "linux")]
        let other_loops = loop_cpu_ms();
        let mut server = TcpServer::spawn(handle.clone(), "127.0.0.1:0").expect("bind");
        let (mut stream, reader) = connect(&server);
        stream.write_all(INFER_LINE).expect("write infer");
        stream.flush().expect("flush");
        let metrics = handle.metrics();
        wait_until(Duration::from_secs(2), "request submitted", || {
            metrics.submitted.load(Ordering::Relaxed) == 1
        });
        let mut conn = Some((stream, reader));
        if half_close {
            let (stream, _) = conn.as_ref().expect("still connected");
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            // The socket now reads as EOF for good: a loop still asking for
            // read readiness would wake on every wait until the completion
            // arrives. Tests run in parallel, so only loop threads born
            // since the snapshot count — this server's.
            #[cfg(target_os = "linux")]
            {
                let ours = || -> u64 {
                    let now = loop_cpu_ms();
                    let new = now
                        .iter()
                        .filter(|(tid, _)| !other_loops.contains_key(*tid));
                    new.map(|(_, ms)| ms).sum()
                };
                let (before, start) = (ours(), Instant::now());
                std::thread::sleep(Duration::from_secs(1));
                let busy_ms = ours().saturating_sub(before);
                let wall_ms = start.elapsed().as_millis() as u64;
                assert!(
                    busy_ms * 10 < wall_ms,
                    "loop burned {busy_ms} ms of CPU in {wall_ms} ms beside a half-closed client"
                );
            }
        } else {
            conn = None;
        }

        {
            let handle = handle.clone();
            assert_finishes_within(
                Duration::from_secs(2),
                "shutdown with a departed client",
                move || handle.shutdown(),
            );
        }
        // The loop delivers the ShuttingDown completion — to the half-closed
        // peer, or into a dead socket — and closes the connection.
        if let Some((_, reader)) = &mut conn {
            let reply = read_reply(reader);
            assert!(
                reply[0].starts_with("err shutting-down"),
                "a half-closed peer is still owed its answer, got {reply:?}"
            );
        }
        wait_until(Duration::from_secs(2), "connection reaped", || {
            metrics.active_connections.load(Ordering::Relaxed) == 0
        });
        assert_finishes_within(Duration::from_secs(1), "TcpServer::stop()", move || {
            server.stop();
        });
    }

    #[test]
    fn mid_request_disconnect_drops_the_completion_safely() {
        peer_leaves_with_a_request_in_flight(false);
    }

    #[test]
    fn mid_request_half_close_neither_spins_the_loop_nor_loses_the_answer() {
        peer_leaves_with_a_request_in_flight(true);
    }

    #[test]
    fn stop_with_a_thousand_idle_connections_is_prompt() {
        let handle = start_engine(EngineConfig::default());
        let cfg = FrontendConfig {
            max_connections: 1_200,
            ..FrontendConfig::default()
        };
        let mut server = TcpServer::spawn_with(handle.clone(), "127.0.0.1:0", cfg).expect("bind");
        let conns: Vec<TcpStream> = (0..1_000)
            .map(|i| {
                TcpStream::connect(server.local_addr())
                    .unwrap_or_else(|e| panic!("connect {i}: {e}"))
            })
            .collect();
        let metrics = handle.metrics();
        wait_until(Duration::from_secs(10), "1000 connections accepted", || {
            metrics.active_connections.load(Ordering::Relaxed) == 1_000
        });

        // One loop thread owns all 1000 sockets: stop() wakes it once and it
        // closes everything — no per-connection threads to join.
        let start = Instant::now();
        assert_finishes_within(Duration::from_secs(2), "TcpServer::stop()", move || {
            server.stop();
        });
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "stop took {:?} with 1000 idle connections",
            start.elapsed()
        );
        assert_eq!(
            metrics.active_connections.load(Ordering::Relaxed),
            0,
            "gauge must return to zero after stop"
        );
        drop(conns);
        handle.shutdown();
    }

    #[test]
    fn pipelined_burst_beyond_inflight_cap_rejects_and_keeps_reply_order() {
        // workers: 0 keeps the first four submissions parked in the queue,
        // so the burst deterministically exceeds the in-flight cap.
        let handle = start_engine(EngineConfig {
            workers: 0,
            queue_capacity: 64,
            ..EngineConfig::default()
        });
        let cfg = FrontendConfig {
            max_inflight_per_conn: 4,
            ..FrontendConfig::default()
        };
        let mut server = TcpServer::spawn_with(handle.clone(), "127.0.0.1:0", cfg).expect("bind");
        let (mut stream, mut reader) = connect(&server);
        let burst: Vec<u8> = INFER_LINE.repeat(7);
        stream.write_all(&burst).expect("write burst");
        stream.flush().expect("flush");

        let metrics = handle.metrics();
        wait_until(Duration::from_secs(2), "3 in-flight rejections", || {
            metrics.rejected_inflight.load(Ordering::Relaxed) == 3
        });
        assert_eq!(
            metrics.submitted.load(Ordering::Relaxed),
            4,
            "exactly the cap's worth of requests may reach the queue"
        );

        // The rejects (seq 4..6) resolved instantly but must wait in the
        // reorder buffer until shutdown fail-fasts seq 0..3 — replies come
        // back in submission order regardless of completion order.
        handle.shutdown();
        let replies: Vec<String> = (0..7).map(|_| read_reply(&mut reader).join(" ")).collect();
        for (i, reply) in replies[..4].iter().enumerate() {
            assert!(
                reply.starts_with("err shutting-down"),
                "reply {i}: expected shutting-down, got {reply:?}"
            );
        }
        for (i, reply) in replies[4..].iter().enumerate() {
            assert!(
                reply.starts_with("err server-busy"),
                "reply {}: expected server-busy, got {reply:?}",
                i + 4
            );
        }
        server.stop();
    }

    #[test]
    fn connection_cap_rejects_the_excess_connection() {
        let handle = start_engine(EngineConfig::default());
        let cfg = FrontendConfig {
            max_connections: 2,
            ..FrontendConfig::default()
        };
        let mut server = TcpServer::spawn_with(handle.clone(), "127.0.0.1:0", cfg).expect("bind");

        // Fill the cap with two live connections (round-trips prove both
        // are registered, not just queued in the accept backlog).
        let (mut s1, mut r1) = connect(&server);
        s1.write_all(b"ping\n").expect("ping 1");
        assert_eq!(read_reply(&mut r1), vec!["ok pong".to_string()]);
        let (mut s2, mut r2) = connect(&server);
        s2.write_all(b"ping\n").expect("ping 2");
        assert_eq!(read_reply(&mut r2), vec!["ok pong".to_string()]);

        // The third connection is told why and closed — never silently
        // dropped.
        let (_s3, mut r3) = connect(&server);
        let reply = read_reply(&mut r3);
        assert!(
            reply[0].starts_with("err server-busy"),
            "expected typed server-busy at accept, got {reply:?}"
        );
        let mut extra = String::new();
        assert_eq!(
            r3.read_line(&mut extra).expect("read after reject"),
            0,
            "rejected connection must be closed"
        );
        assert_eq!(
            handle.metrics().rejected_conn_cap.load(Ordering::Relaxed),
            1
        );

        // Capacity frees as soon as an admitted connection leaves.
        s1.write_all(b"quit\n").expect("quit");
        let mut eof = String::new();
        assert_eq!(r1.read_line(&mut eof).expect("quit closes"), 0);
        wait_until(Duration::from_secs(2), "slot released", || {
            handle.metrics().active_connections.load(Ordering::Relaxed) == 1
        });
        let (mut s4, mut r4) = connect(&server);
        s4.write_all(b"ping\n").expect("ping 4");
        assert_eq!(read_reply(&mut r4), vec!["ok pong".to_string()]);

        server.stop();
        handle.shutdown();
    }

    #[test]
    fn deadline_expiry_over_pipelined_connection_keeps_reply_order() {
        let handle = start_engine(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let mut server = TcpServer::spawn(handle.clone(), "127.0.0.1:0").expect("bind");
        let (mut stream, mut reader) = connect(&server);
        // Two pipelined requests in one segment: the first is born expired
        // (deadline=0) and is shed at dequeue; the second resolves normally
        // (UnknownModel from the empty registry). Replies must come back in
        // submission order with the right code on each.
        stream
            .write_all(b"infer model=ghost head=a tail=b deadline=0 text=a b\ninfer model=ghost head=a tail=b text=a b\n")
            .expect("write pipelined pair");
        stream.flush().expect("flush");
        let first = read_reply(&mut reader);
        assert!(
            first[0].starts_with("err deadline-exceeded"),
            "first reply must be the shed request, got {first:?}"
        );
        let second = read_reply(&mut reader);
        assert!(
            second[0].starts_with("err unknown-model"),
            "second reply must resolve normally, got {second:?}"
        );
        assert_eq!(handle.metrics().deadline_expired.load(Ordering::Relaxed), 1);
        server.stop();
        handle.shutdown();
    }
}
