//! Front-end concurrency sweep: requests/sec over real TCP as the number of
//! concurrent connections grows from 10 to 10 000.
//!
//! Each rung connects N clients, runs ping waves (every client writes one
//! request, then every reply is read back and checked), and reports
//! `N * waves / elapsed` req/s. Pings deliberately bypass the inference
//! engine: this bench isolates the *front end* — readiness multiplexing,
//! framing, and reply delivery — from model cost, which
//! `serve_throughput` already covers.
//!
//! Leak accounting is part of the bench contract, not a side check: every
//! rung asserts that the process file-descriptor count and thread count
//! return to their pre-rung baseline after `stop()`, and that the front end
//! ran on exactly ONE thread even with 10 000 connections open.
//!
//! Honors `CRITERION_SAMPLE_MS` (default 100): wave count scales with it,
//! and the big rung drops from 10 000 to 1 000 connections below 10 ms so
//! the CI smoke stays fast (logged, never silent). With `IMRE_BENCH_JSON`
//! set, the req/s numbers are written for the `scripts/bench_check.sh`
//! regression gate.

#[cfg(not(target_os = "linux"))]
fn main() {
    // The sweep leans on linux-only plumbing: `raise_nofile_limit` and
    // `/proc`-based leak accounting. Still write
    // an (empty) metrics file so `scripts/bench_check.sh` can merge it.
    println!("serve_concurrency: skipped (linux-only bench)");
    imre_bench::MetricSink::new().write_if_requested();
}

#[cfg(target_os = "linux")]
fn main() {
    linux::main();
}

#[cfg(target_os = "linux")]
mod linux {
    use imre_serve::{
        raise_nofile_limit, EngineConfig, FrontendConfig, Registry, ServeHandle, TcpServer,
    };
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// The full wire reply to `ping`: the payload line plus the empty
    /// terminator. Fixed-size, so clients read with `read_exact` instead of
    /// per-connection buffered readers (10 000 `BufReader`s would cost 80 MB).
    const PONG: &[u8] = b"ok pong\n\n";

    fn sample_ms() -> u64 {
        std::env::var("CRITERION_SAMPLE_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(100)
    }

    /// Open file descriptors of this process (including the one `read_dir`
    /// itself holds — constant, so before/after deltas are exact).
    fn proc_fds() -> usize {
        std::fs::read_dir("/proc/self/fd")
            .expect("/proc/self/fd")
            .count()
    }

    /// Live threads of this process, from `/proc/self/status`.
    fn proc_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("Threads: line")
    }

    /// Polls until `probe` holds or `limit` elapses; returns whether it held.
    /// Thread/fd teardown after `stop()` is prompt but not synchronous with the
    /// call returning, so leak checks poll briefly instead of racing it.
    fn settles(limit: Duration, mut probe: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while !probe() {
            if start.elapsed() > limit {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        true
    }

    /// One ping wave: write a request on every connection, then read back and
    /// verify every reply.
    fn wave(conns: &mut [TcpStream]) {
        for (i, c) in conns.iter_mut().enumerate() {
            c.write_all(b"ping\n")
                .unwrap_or_else(|e| panic!("conn {i}: write ping: {e}"));
        }
        let mut buf = [0u8; PONG.len()];
        for (i, c) in conns.iter_mut().enumerate() {
            c.read_exact(&mut buf)
                .unwrap_or_else(|e| panic!("conn {i}: read pong: {e}"));
            assert_eq!(buf, PONG, "conn {i}: bad reply");
        }
    }

    /// Spawns a fresh engine + server, connects `clients`, times `waves` ping
    /// waves, then tears everything down and asserts nothing leaked. Returns
    /// req/s.
    fn run_rung(clients: usize, waves: usize) -> f64 {
        let fds_before = proc_fds();
        let threads_before = proc_threads();

        let handle = ServeHandle::start(
            Arc::new(Registry::new()),
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        );
        let threads_engine = proc_threads();
        let cfg = FrontendConfig {
            max_connections: clients + 16,
            ..FrontendConfig::default()
        };
        let mut server = TcpServer::spawn_with(handle.clone(), "127.0.0.1:0", cfg).expect("bind");
        let mut conns: Vec<TcpStream> = (0..clients)
            .map(|i| {
                let s = TcpStream::connect(server.local_addr())
                    .unwrap_or_else(|e| panic!("connect {i}: {e}"));
                s.set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                s.set_nodelay(true).ok();
                s
            })
            .collect();

        // Warm wave (untimed): proves every connection was admitted and is
        // answering before the clock starts.
        wave(&mut conns);
        assert_eq!(
            proc_threads() - threads_engine,
            1,
            "the front end must stay single-threaded at {clients} connections"
        );

        let start = Instant::now();
        for _ in 0..waves {
            wave(&mut conns);
        }
        let rps = (clients * waves) as f64 / start.elapsed().as_secs_f64();

        drop(conns);
        server.stop();
        // The server struct itself holds the waker pipe's write end; drop
        // it so the fd accounting below sees a fully torn-down front end.
        drop(server);
        handle.shutdown();

        // The leak contract: fds and threads must return to the pre-rung
        // baseline once the server is stopped and the engine shut down.
        assert!(
            settles(Duration::from_secs(5), || proc_fds() <= fds_before),
            "{clients}: leaked fds ({} before, {} after stop)",
            fds_before,
            proc_fds()
        );
        assert!(
            settles(Duration::from_secs(5), || proc_threads() <= threads_before),
            "{clients}: leaked threads ({} before, {} after stop)",
            threads_before,
            proc_threads()
        );
        println!("{clients:>8}  {rps:>12.1}");
        rps
    }

    pub fn main() {
        let sample_ms = sample_ms();
        let waves = (sample_ms / 10).clamp(2, 20) as usize;
        let big_clients = if sample_ms >= 10 {
            10_000
        } else {
            println!("serve_concurrency: CRITERION_SAMPLE_MS={sample_ms} < 10 — big rung scaled down to 1000 connections");
            1_000
        };
        let big_waves = (waves / 5).max(1);

        println!("=== serve_concurrency (waves = {waves}, big rung = {big_clients} conns) ===");
        println!("{:>8}  {:>12}", "clients", "req/s");
        let mut sink = imre_bench::MetricSink::new();

        for (clients, key) in [
            (10, "info_serve_conc_rps_c10_epoll"),
            (64, "serve_conc_rps_c64"),
            (256, "serve_conc_rps_c256"),
            (1024, "info_serve_conc_rps_c1024"),
        ] {
            sink.record(key, run_rung(clients, waves));
        }

        // The big rung needs ~2 fds per connection (client + server side) in
        // this one process.
        let want_fds = 2 * big_clients as u64 + 4_000;
        let got = raise_nofile_limit(want_fds).expect("raise_nofile_limit");
        let big_clients = if got < want_fds {
            let capped = ((got.saturating_sub(4_000)) / 2) as usize;
            println!(
            "serve_concurrency: fd limit {got} < {want_fds} — big rung capped to {capped} connections"
        );
            capped
        } else {
            big_clients
        };
        let rps_big = run_rung(big_clients, big_waves);
        sink.record("info_serve_conc_big_clients", big_clients as f64);
        sink.record("info_serve_conc_rps_big", rps_big);

        println!("{big_clients} connections: {rps_big:.1} req/s on 1 front-end thread, zero leaks");
        sink.write_if_requested();
    }
}
