//! TCP front-end: line-delimited protocol over `std::net::TcpListener`.
//!
//! [`TcpServer`] runs one front end: a single thread multiplexing every
//! connection over the platform's readiness call (epoll on Linux, `poll(2)`
//! on other unix targets) — nonblocking sockets, incremental line framing,
//! pipelined requests with ordered responses, and admission control. See
//! the private `eventloop` module. 10k idle clients cost 10k sockets, not 10k
//! threads.
//!
//! It enforces [`FrontendConfig`]'s global connection cap (typed
//! `server-busy` reject at accept), per-connection in-flight cap and
//! oversized-line bound (typed `bad-request`); [`TcpServer::stop`]
//! terminates within roughly one loop tick, flushing or fail-fasting
//! whatever was in flight.
//!
//! The engine's [`crate::metrics::Metrics::active_connections`] gauge
//! tracks currently open connections; `conns_opened` and the rejection
//! counters feed the `conns:` stats line.

use crate::engine::ServeHandle;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Front-end tuning knobs (the engine has its own
/// [`crate::engine::EngineConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct FrontendConfig {
    /// Global cap on concurrently open connections; arrivals beyond it are
    /// answered `err server-busy` and closed at accept time.
    pub max_connections: usize,
    /// Maximum pipelined requests one connection may have in the engine at
    /// once. Further `infer` lines are answered `err server-busy` without
    /// touching the queue.
    pub max_inflight_per_conn: usize,
    /// Longest request line accepted before the connection is answered
    /// `err bad-request` and closed — bounds per-connection buffer growth
    /// against hostile or broken clients.
    pub max_line_bytes: usize,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            max_connections: 1024,
            max_inflight_per_conn: 32,
            max_line_bytes: 64 * 1024,
        }
    }
}

/// A running TCP front-end.
pub struct TcpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    #[cfg(unix)]
    waker: Arc<crate::eventloop::Waker>,
    loop_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `127.0.0.1:7878`; port 0 picks a free port) and
    /// starts serving the engine behind `handle` with default front-end
    /// limits ([`FrontendConfig::default`]).
    ///
    /// # Errors
    /// When the address cannot be bound.
    pub fn spawn(handle: ServeHandle, addr: &str) -> io::Result<TcpServer> {
        TcpServer::spawn_with(handle, addr, FrontendConfig::default())
    }

    /// [`TcpServer::spawn`] with explicit front-end limits.
    ///
    /// # Errors
    /// When the address cannot be bound, or on a non-unix target, which has
    /// no readiness call the loop can run over
    /// ([`io::ErrorKind::Unsupported`]).
    pub fn spawn_with(
        handle: ServeHandle,
        addr: &str,
        cfg: FrontendConfig,
    ) -> io::Result<TcpServer> {
        #[cfg(unix)]
        {
            TcpServer::spawn_on::<crate::eventloop::NativePoller>(handle, addr, cfg)
        }
        #[cfg(not(unix))]
        {
            let _ = (handle, addr, cfg);
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the TCP front end needs epoll or poll(2); use the in-process ServeHandle",
            ))
        }
    }

    /// Starts the event loop over readiness implementation `P`.
    #[cfg(unix)]
    pub(crate) fn spawn_on<P: crate::eventloop::Poller>(
        handle: ServeHandle,
        addr: &str,
        cfg: FrontendConfig,
    ) -> io::Result<TcpServer> {
        let listener = std::net::TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (waker, thread) =
            crate::eventloop::start::<P>(listener, handle, cfg, Arc::clone(&stop))?;
        Ok(TcpServer {
            local_addr,
            stop,
            waker,
            loop_thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the front end and joins its thread: wakes the loop, which
    /// flushes what it can without blocking, closes every connection, and
    /// exits. The drain is bounded by roughly one loop tick even with idle
    /// or mid-request clients. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        #[cfg(unix)]
        self.waker.wake();
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}
