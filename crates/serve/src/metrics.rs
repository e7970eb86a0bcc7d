//! Lock-free serving metrics: per-stage latency histograms and counters.
//!
//! Histograms use fixed log-spaced microsecond buckets so recording is one
//! atomic increment — no allocation, no locking, safe to share across all
//! workers and connection threads.

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (inclusive, in µs) of the histogram buckets; one final
/// overflow bucket catches everything slower.
pub const BUCKET_BOUNDS_US: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000, 250_000, 1_000_000,
];

const NUM_BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// A fixed-bucket latency histogram in microseconds.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

/// Plain-data copy of a histogram for inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (last bucket is overflow).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all recorded values in µs.
    pub sum_us: u64,
}

impl Histogram {
    /// Records one observation of `us` microseconds.
    pub fn record(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(NUM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies out the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }

    fn render(&self, name: &str, out: &mut String) {
        use std::fmt::Write;
        let snap = self.snapshot();
        let mean = if snap.count == 0 {
            0.0
        } else {
            snap.sum_us as f64 / snap.count as f64
        };
        let _ = writeln!(out, "{name}: count={} mean_us={mean:.1}", snap.count);
        for (i, &n) in snap.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            match BUCKET_BOUNDS_US.get(i) {
                Some(&bound) => {
                    let _ = writeln!(out, "  le_{bound}us {n}");
                }
                None => {
                    let _ = writeln!(out, "  overflow {n}");
                }
            }
        }
    }
}

/// All engine metrics in one shareable struct.
#[derive(Default)]
pub struct Metrics {
    /// Time a request sat in the queue before a worker dequeued it (pure
    /// waiting for a free worker).
    pub queue_wait: Histogram,
    /// Tokenization + featurization time, per request.
    pub featurize: Histogram,
    /// Forward-pass time, per request, measured around that request's own
    /// pass.
    pub forward: Histogram,
    /// Requests accepted into the queue.
    pub submitted: AtomicU64,
    /// Requests answered successfully.
    pub completed: AtomicU64,
    /// Requests rejected at submission because the queue was full.
    pub rejected_full: AtomicU64,
    /// Requests answered with a serving error.
    pub errors: AtomicU64,
    /// Jobs dequeued by a worker. Workers take one request per dequeue, so
    /// this always equals [`Metrics::batched_jobs`]; both are retained only
    /// because `benchmark/src/layers.rs` reads them.
    pub batches: AtomicU64,
    /// Jobs dequeued by a worker (see [`Metrics::batches`]).
    pub batched_jobs: AtomicU64,
    /// Requests whose deadline expired while queued (answered
    /// `DeadlineExceeded` without featurize/forward).
    pub deadline_expired: AtomicU64,
    /// Requests answered without running the pipeline at all: deadline
    /// expiry at dequeue plus jobs failed fast during shutdown drain.
    pub shed: AtomicU64,
    /// Currently open TCP connections (gauge, not a counter).
    pub active_connections: AtomicU64,
    /// Connections admitted by the front end over its lifetime.
    pub conns_opened: AtomicU64,
    /// Connections refused at accept time because the global connection cap
    /// was hit, or because the front end could not allocate resources for
    /// the connection (e.g. thread spawn failure). Each one got a
    /// best-effort `server-busy` reply before the socket was closed.
    pub rejected_conn_cap: AtomicU64,
    /// Requests refused with `server-busy` because the connection already
    /// had the maximum number of pipelined requests in flight.
    pub rejected_inflight: AtomicU64,
    /// `accept(2)` failures other than "no connection waiting" (e.g. EMFILE
    /// fd exhaustion). The accept path backs off exponentially on these
    /// instead of spinning.
    pub accept_errors: AtomicU64,
    /// Forward-pass tensor requests served from a worker's recycled buffer
    /// arena (no heap allocation).
    pub pool_hits: AtomicU64,
    /// Forward-pass tensor requests that allocated a fresh buffer. After
    /// warm-up this should stop growing — `pool_misses / completed` is the
    /// `allocs_per_request` stat, and the CI alloc-gate pins its
    /// steady-state value to zero.
    pub pool_misses: AtomicU64,
    /// Total bytes of buffer capacity returned to worker arenas for reuse.
    pub pool_bytes_recycled: AtomicU64,
    /// kNN index queries executed (requests served on the interpolation
    /// path; pure requests never touch the index).
    pub knn_queries: AtomicU64,
    /// Total nanoseconds spent in kNN search + vote + blend
    /// (`/ knn_queries` = mean per-query cost).
    pub knn_query_ns: AtomicU64,
    /// Streaming ingestion: delta batches folded into the incremental graph.
    pub stream_deltas_applied: AtomicU64,
    /// Streaming ingestion: sentence events dropped as re-deliveries by the
    /// batching-stable dedup.
    pub stream_duplicates_dropped: AtomicU64,
    /// Streaming ingestion: entities newly admitted to the serving entity
    /// table (cold-start entities absent from training).
    pub stream_entities_admitted: AtomicU64,
    /// Streaming ingestion: bundles published through the hot-swap registry.
    pub stream_publishes: AtomicU64,
    /// Streaming ingestion: wall-clock milliseconds (unix epoch) of the last
    /// publish; 0 until the first publish (`stats` renders `age=never`).
    pub stream_last_publish_unix_ms: AtomicU64,
    /// Streaming ingestion: total nanoseconds spent refreshing embeddings
    /// (`/ stream_publishes` = mean refresh cost).
    pub stream_refine_ns: AtomicU64,
    /// Streaming ingestion: malformed delta lines rejected with a typed
    /// error.
    pub stream_malformed: AtomicU64,
}

impl Metrics {
    /// Bumps a counter by one.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements a gauge by one (saturating at zero, so a stray double
    /// decrement cannot wrap the dump to u64::MAX).
    pub fn dec(gauge: &AtomicU64) {
        let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// Renders the `stats` text dump served over the wire protocol.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "requests: submitted={} completed={} errors={} rejected_queue_full={}",
            self.submitted.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.rejected_full.load(Ordering::Relaxed),
        );
        let _ = writeln!(
            out,
            "lifecycle: deadline_expired={} shed={} active_connections={}",
            self.deadline_expired.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            self.active_connections.load(Ordering::Relaxed),
        );
        let _ = writeln!(
            out,
            "conns: active={} opened={} rejected_conn_cap={} rejected_inflight={} accept_errors={}",
            self.active_connections.load(Ordering::Relaxed),
            self.conns_opened.load(Ordering::Relaxed),
            self.rejected_conn_cap.load(Ordering::Relaxed),
            self.rejected_inflight.load(Ordering::Relaxed),
            self.accept_errors.load(Ordering::Relaxed),
        );
        let completed = self.completed.load(Ordering::Relaxed);
        let misses = self.pool_misses.load(Ordering::Relaxed);
        let allocs_per_request = if completed == 0 {
            0.0
        } else {
            misses as f64 / completed as f64
        };
        let _ = writeln!(
            out,
            "alloc: pool_hits={} pool_misses={misses} bytes_recycled={} allocs_per_request={allocs_per_request:.3}",
            self.pool_hits.load(Ordering::Relaxed),
            self.pool_bytes_recycled.load(Ordering::Relaxed),
        );
        let knn_queries = self.knn_queries.load(Ordering::Relaxed);
        let knn_ns = self.knn_query_ns.load(Ordering::Relaxed);
        let mean_query_ns = if knn_queries == 0 {
            0.0
        } else {
            knn_ns as f64 / knn_queries as f64
        };
        let _ = writeln!(
            out,
            "knn: queries={knn_queries} mean_query_ns={mean_query_ns:.0}"
        );
        let publishes = self.stream_publishes.load(Ordering::Relaxed);
        let refine_ns = self.stream_refine_ns.load(Ordering::Relaxed);
        let mean_refine_ns = if publishes == 0 {
            0.0
        } else {
            refine_ns as f64 / publishes as f64
        };
        let last_ms = self.stream_last_publish_unix_ms.load(Ordering::Relaxed);
        let age = if last_ms == 0 {
            "never".to_string()
        } else {
            let now_ms = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            format!("{}ms", now_ms.saturating_sub(last_ms))
        };
        let _ = writeln!(
            out,
            "stream: deltas_applied={} duplicates_dropped={} entities_admitted={} publishes={publishes} last_publish_age={age} mean_refine_ns={mean_refine_ns:.0} malformed={}",
            self.stream_deltas_applied.load(Ordering::Relaxed),
            self.stream_duplicates_dropped.load(Ordering::Relaxed),
            self.stream_entities_admitted.load(Ordering::Relaxed),
            self.stream_malformed.load(Ordering::Relaxed),
        );
        self.queue_wait.render("queue_wait_us", &mut out);
        self.featurize.render("featurize_us", &mut out);
        self.forward.render("forward_us", &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lands_in_correct_bucket() {
        let h = Histogram::default();
        h.record(40); // ≤ 50
        h.record(50); // ≤ 50 (inclusive)
        h.record(51); // ≤ 100
        h.record(2_000_000); // overflow
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(*snap.buckets.last().unwrap(), 1);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum_us, 40 + 50 + 51 + 2_000_000);
    }

    #[test]
    fn render_contains_counters_and_nonzero_buckets() {
        let m = Metrics::default();
        m.queue_wait.record(120);
        m.featurize.record(80);
        m.forward.record(900);
        Metrics::inc(&m.submitted);
        Metrics::inc(&m.completed);
        let text = m.render();
        assert!(text.contains("submitted=1"));
        assert!(text.contains("queue_wait_us: count=1"));
        assert!(
            text.contains("le_250us 1"),
            "120µs lands in le_250 bucket:\n{text}"
        );
        assert!(text.contains("forward_us: count=1"));
    }

    #[test]
    fn render_contains_lifecycle_counters() {
        let m = Metrics::default();
        Metrics::inc(&m.deadline_expired);
        Metrics::inc(&m.shed);
        Metrics::inc(&m.shed);
        Metrics::inc(&m.active_connections);
        let text = m.render();
        assert!(
            text.contains("lifecycle: deadline_expired=1 shed=2 active_connections=1"),
            "lifecycle line missing or wrong:\n{text}"
        );
    }

    #[test]
    fn render_contains_conns_line() {
        let m = Metrics::default();
        Metrics::inc(&m.active_connections);
        Metrics::inc(&m.conns_opened);
        Metrics::inc(&m.conns_opened);
        Metrics::inc(&m.rejected_conn_cap);
        Metrics::inc(&m.rejected_inflight);
        Metrics::inc(&m.rejected_inflight);
        Metrics::inc(&m.rejected_inflight);
        let text = m.render();
        assert!(
            text.contains(
                "conns: active=1 opened=2 rejected_conn_cap=1 rejected_inflight=3 accept_errors=0"
            ),
            "conns line missing or wrong:\n{text}"
        );
    }

    #[test]
    fn render_contains_knn_line() {
        let m = Metrics::default();
        assert!(m.render().contains("knn: queries=0 mean_query_ns=0"));
        Metrics::inc(&m.knn_queries);
        Metrics::inc(&m.knn_queries);
        m.knn_query_ns.fetch_add(3000, Ordering::Relaxed);
        assert!(
            m.render().contains("knn: queries=2 mean_query_ns=1500"),
            "knn line missing or wrong:\n{}",
            m.render()
        );
    }

    #[test]
    fn render_contains_stream_line() {
        let m = Metrics::default();
        assert!(
            m.render().contains(
                "stream: deltas_applied=0 duplicates_dropped=0 entities_admitted=0 publishes=0 last_publish_age=never mean_refine_ns=0 malformed=0"
            ),
            "stream line missing or wrong:\n{}",
            m.render()
        );
        m.stream_deltas_applied.fetch_add(3, Ordering::Relaxed);
        Metrics::inc(&m.stream_entities_admitted);
        Metrics::inc(&m.stream_publishes);
        m.stream_refine_ns.fetch_add(5000, Ordering::Relaxed);
        m.stream_last_publish_unix_ms.store(1, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("deltas_applied=3"), "{text}");
        assert!(text.contains("entities_admitted=1"), "{text}");
        assert!(text.contains("publishes=1"), "{text}");
        assert!(text.contains("mean_refine_ns=5000"), "{text}");
        assert!(!text.contains("last_publish_age=never"), "{text}");
    }

    #[test]
    fn gauge_dec_saturates_at_zero() {
        let m = Metrics::default();
        Metrics::dec(&m.active_connections);
        assert_eq!(m.active_connections.load(Ordering::Relaxed), 0);
        Metrics::inc(&m.active_connections);
        Metrics::dec(&m.active_connections);
        assert_eq!(m.active_connections.load(Ordering::Relaxed), 0);
    }
}
