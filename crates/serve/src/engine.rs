//! Inference engine: bounded queue + worker pool, one request per dequeue.
//!
//! Requests enter through [`ServeHandle::submit`] into a bounded queue
//! ([`crate::queue::BoundedQueue`]); each worker thread pops one request at
//! a time, featurizes it, runs one forward pass on its own recycled scratch
//! (a buffer arena for f32, a [`QuantScratch`] for int8), blends in the kNN
//! vote when asked to, ranks and replies. PA-TMR scores one entity-pair bag
//! at a time, so there is nothing for requests to share: a request never
//! waits for another to arrive.
//!
//! Requests may carry a time budget ([`InferRequest::deadline_ms`], or the
//! engine-wide `default_deadline_ms`): a job whose budget ran out while it
//! sat in the queue is *shed* at dequeue — answered
//! [`ServeError::DeadlineExceeded`] without featurizing or running a
//! forward pass — so an overloaded engine stops spending compute on answers
//! nobody is waiting for anymore.
//!
//! Shutdown is graceful and total: [`ServeHandle::shutdown`] closes the
//! queue (new submissions get [`ServeError::ShuttingDown`]), joins the
//! workers — which drain and answer every request they can — and then
//! fail-fasts anything *still* queued (no workers configured, or a worker
//! died) with [`ServeError::ShuttingDown`], so every [`Pending`] ever
//! handed out is answered and no caller blocks forever.

use crate::error::ServeError;
use crate::metrics::Metrics;
use crate::pipeline::{InferRequest, InferResponse};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::Registry;
use imre_ann::{blend_scores, SearchScratch};
use imre_core::QuantScratch;
use imre_tensor::BufferPool;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Numeric precision of the serving forward pass (`--precision` on the
/// CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full-precision forward pass on the bundle's f32 model (the default).
    #[default]
    F32,
    /// Integer forward pass on the bundle's int8 section (`.imrb` v3,
    /// written by `imre quantize`). Roughly a quarter of the weight bytes;
    /// scores drift from f32 by at most the CI-gated tolerance. Requests
    /// against a bundle without the section are answered
    /// [`ServeError::NoQuantModel`].
    Int8,
}

impl Precision {
    /// The CLI spelling (`f32` / `int8`).
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(Precision::F32),
            "int8" => Ok(Precision::Int8),
            other => Err(format!(
                "unknown precision {other:?} (expected f32 or int8)"
            )),
        }
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads running forward passes. `0` is allowed (useful in
    /// tests: requests queue up but nothing drains them).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Time budget applied to requests that do not set their own
    /// [`InferRequest::deadline_ms`]; `None` means such requests never
    /// expire.
    pub default_deadline_ms: Option<u64>,
    /// Neighbors retrieved for kNN label interpolation when a request does
    /// not set its own `knn=` (`--knn-k` on the CLI). `0` — the default —
    /// disables interpolation engine-wide: the serve path is then
    /// bit-identical to a pre-kNN engine (representations are never
    /// computed, the index is never queried).
    pub knn_k: usize,
    /// Interpolation weight applied when a request does not set its own
    /// `lambda=` (`--knn-lambda` on the CLI). Only consulted when the
    /// effective k is nonzero.
    pub knn_lambda: f32,
    /// Forward-pass precision (`--precision` on the CLI). [`Precision::Int8`]
    /// serves every request from the bundle's quantized section.
    pub precision: Precision,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            queue_capacity: 256,
            default_deadline_ms: None,
            knn_k: 0,
            knn_lambda: 0.3,
            precision: Precision::F32,
        }
    }
}

/// Completion callback attached to every queued job: invoked exactly once
/// with the request's answer, on whatever thread resolves it (a worker, or
/// the shutdown fail-fast path). [`ServeHandle::submit`] wraps an mpsc
/// sender in one; the event-loop front end passes a closure that routes the
/// answer back into its wakeup pipe without parking a thread per request.
type ReplyFn = Box<dyn FnOnce(Result<InferResponse, ServeError>) + Send>;

struct Job {
    request: InferRequest,
    enqueued: Instant,
    /// Absolute expiry instant plus the original budget (for the error
    /// message); `None` for requests without a time budget.
    deadline: Option<(Instant, u64)>,
    reply: ReplyFn,
}

struct Shared {
    registry: Arc<Registry>,
    queue: BoundedQueue<Job>,
    metrics: Arc<Metrics>,
    config: EngineConfig,
}

/// A pending response; resolve it with [`Pending::wait`].
pub struct Pending {
    rx: mpsc::Receiver<Result<InferResponse, ServeError>>,
}

impl Pending {
    /// Blocks until the engine answers.
    pub fn wait(self) -> Result<InferResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn poll(&self) -> Option<Result<InferResponse, ServeError>> {
        self.rx.try_recv().ok()
    }

    /// Blocks up to `timeout` for the answer; `None` if the request is
    /// still in flight when the timeout elapses (it stays submitted and can
    /// be awaited again — giving up on the client side does not cancel the
    /// queued job).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<InferResponse, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(reply) => Some(reply),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// Cloneable handle to a running engine — the in-process serving API.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServeHandle {
    /// Starts the worker pool and returns the handle.
    pub fn start(registry: Arc<Registry>, config: EngineConfig) -> ServeHandle {
        let shared = Arc::new(Shared {
            registry,
            queue: BoundedQueue::new(config.queue_capacity.max(1)),
            metrics: Arc::new(Metrics::default()),
            config,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("imre-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        ServeHandle {
            shared,
            workers: Arc::new(Mutex::new(workers)),
        }
    }

    /// The registry this engine serves from (register/swap models here at
    /// any time).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Engine metrics (live; also rendered by [`ServeHandle::stats_text`]).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// A shared handle to the same metrics — for sidecars (e.g. the stream
    /// updater) that report through this engine's `stats` output.
    pub fn metrics_arc(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The text `stats` dump.
    pub fn stats_text(&self) -> String {
        self.shared.metrics.render()
    }

    /// Enqueues a request. The request's time budget (its own
    /// `deadline_ms`, else the engine's `default_deadline_ms`) starts
    /// counting from this call.
    ///
    /// # Errors
    /// [`ServeError::QueueFull`] when the bounded queue is at capacity and
    /// [`ServeError::ShuttingDown`] after [`ServeHandle::shutdown`].
    pub fn submit(&self, request: InferRequest) -> Result<Pending, ServeError> {
        let (tx, rx) = mpsc::channel();
        // A vanished receiver just means the client gave up waiting.
        self.submit_with(request, move |reply| {
            let _ = tx.send(reply);
        })?;
        Ok(Pending { rx })
    }

    /// Enqueues a request with a completion callback instead of a
    /// [`Pending`] channel: `reply` is invoked exactly once with the answer,
    /// on whatever thread resolves the job. This is the non-blocking intake
    /// used by the event-loop front end — thousands of in-flight requests
    /// cost one queued closure each, not one parked thread.
    ///
    /// # Errors
    /// Same as [`ServeHandle::submit`]. On a rejection the callback is
    /// *not* invoked — nothing was enqueued, and the caller already holds
    /// the error.
    pub fn submit_with<F>(&self, request: InferRequest, reply: F) -> Result<(), ServeError>
    where
        F: FnOnce(Result<InferResponse, ServeError>) + Send + 'static,
    {
        let enqueued = Instant::now();
        let deadline = request
            .deadline_ms
            .or(self.shared.config.default_deadline_ms)
            .map(|ms| (enqueued + Duration::from_millis(ms), ms));
        let job = Job {
            request,
            enqueued,
            deadline,
            reply: Box::new(reply),
        };
        match self.shared.queue.try_push(job) {
            Ok(()) => {
                Metrics::inc(&self.shared.metrics.submitted);
                Ok(())
            }
            Err(PushError::Full(_)) => {
                Metrics::inc(&self.shared.metrics.rejected_full);
                Err(ServeError::QueueFull {
                    capacity: self.shared.queue.capacity(),
                })
            }
            Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Submits and blocks for the answer.
    pub fn infer(&self, request: InferRequest) -> Result<InferResponse, ServeError> {
        self.submit(request)?.wait()
    }

    /// Stops accepting new requests, drains and answers everything already
    /// queued, and joins the workers. Idempotent; any clone of the handle
    /// may call it.
    ///
    /// Every [`Pending`] handed out before this call is guaranteed an
    /// answer: workers drain what they can, and whatever is *still* queued
    /// after they exit — because `workers: 0` was configured or a worker
    /// died — is failed fast here with [`ServeError::ShuttingDown`] (never
    /// left for a `Pending::wait` to block on forever).
    pub fn shutdown(&self) {
        self.shared.queue.close();
        let mut workers = self.workers.lock().expect("worker list poisoned");
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
        drop(workers);
        for job in self.shared.queue.drain_remaining() {
            Metrics::inc(&self.shared.metrics.shed);
            Metrics::inc(&self.shared.metrics.errors);
            (job.reply)(Err(ServeError::ShuttingDown));
        }
    }
}

/// Per-worker kNN scratch, alive across requests like the buffer arena:
/// the search beam/visited-set and the vote accumulator retain their
/// capacity, so steady-state interpolated requests allocate nothing.
#[derive(Default)]
struct KnnState {
    scratch: SearchScratch,
    votes: Vec<f32>,
}

/// Per-worker forward-pass scratch, alive across requests. The f32 path
/// recycles tensor buffers through the arena (the first requests warm it
/// up; the `alloc:` line of the stats dump tracks hits vs. misses); the
/// int8 path recycles its integer/activation workspaces through
/// [`QuantScratch`]. Either way a warm worker's steady-state forward pass
/// allocates nothing.
struct WorkerState {
    arena: BufferPool,
    quant: QuantScratch,
    knn: KnnState,
}

fn worker_loop(shared: &Shared) {
    let metrics = &shared.metrics;
    let mut state = WorkerState {
        arena: BufferPool::new(),
        quant: QuantScratch::new(),
        knn: KnnState::default(),
    };
    while let Some(job) = shared.queue.pop() {
        let dequeued = Instant::now();
        Metrics::inc(&metrics.batches);
        Metrics::inc(&metrics.batched_jobs);
        let queue_us = dequeued.saturating_duration_since(job.enqueued).as_micros() as u64;
        metrics.queue_wait.record(queue_us);
        let reply = match job.deadline {
            // Shed a job whose time budget ran out while it was queued:
            // answer it now, before featurize/forward spends anything on it.
            Some((expires, budget_ms)) if dequeued >= expires => {
                Metrics::inc(&metrics.deadline_expired);
                Metrics::inc(&metrics.shed);
                Err(ServeError::DeadlineExceeded { budget_ms })
            }
            _ => run_job(shared, &job.request, queue_us, &mut state),
        };
        match &reply {
            Ok(_) => Metrics::inc(&metrics.completed),
            Err(_) => Metrics::inc(&metrics.errors),
        }
        (job.reply)(reply);
    }
}

/// The whole pipeline for one dequeued request: resolve the model,
/// featurize, forward, blend kNN, rank.
fn run_job(
    shared: &Shared,
    request: &InferRequest,
    queue_us: u64,
    state: &mut WorkerState,
) -> Result<InferResponse, ServeError> {
    let (cfg, metrics) = (&shared.config, &shared.metrics);
    let model = shared
        .registry
        .get(&request.model)
        .ok_or_else(|| ServeError::UnknownModel(request.model.clone()))?;
    // Invalid kNN parameters (λ out of range, or interpolation against an
    // index-less bundle) fail here, before the forward pass spends anything.
    let start = Instant::now();
    let bag = model.featurize_request(request)?;
    let params = model.knn_params(request, cfg.knn_k, cfg.knn_lambda)?;
    let featurize_us = start.elapsed().as_micros() as u64;
    metrics.featurize.record(featurize_us);
    // Requests on the interpolation path export their pooled representation
    // from the same pass (no second encoder run).
    let start = Instant::now();
    let (mut scores, repr) = match cfg.precision {
        Precision::F32 => {
            let mut repr = params.map(|_| vec![0.0; model.bundle().model.sent_dim()]);
            let pool_before = state.arena.stats();
            let scores = model.predict_prepared_pooled(&bag, &mut state.arena, repr.as_deref_mut());
            let pool_delta = state.arena.stats().since(&pool_before);
            metrics
                .pool_hits
                .fetch_add(pool_delta.hits, Ordering::Relaxed);
            metrics
                .pool_misses
                .fetch_add(pool_delta.misses, Ordering::Relaxed);
            metrics
                .pool_bytes_recycled
                .fetch_add(pool_delta.bytes_recycled, Ordering::Relaxed);
            (scores, repr)
        }
        // Integer forward pass on the worker's recycled QuantScratch (its
        // zero-alloc counterpart of the arena). A bundle without an int8
        // section answers the typed error — precision is an engine-wide
        // deployment decision, not a per-request fallback.
        Precision::Int8 => model
            .predict_prepared_batch_quant_with_repr(&[&bag], &mut state.quant, &[params.is_some()])?
            .pop()
            .expect("one bag in, one scored bag out"),
    };
    let forward_us = start.elapsed().as_micros() as u64;
    metrics.forward.record(forward_us);
    if let Some((k, lambda)) = params {
        // `knn_params` returned Some, so the index exists and the repr was
        // requested.
        let ann = model.ann().expect("knn_params verified the index");
        let repr = repr.expect("repr requested for interpolated job");
        let knn_start = Instant::now();
        let neighbors = ann.search(&repr, k.min(ann.len()), &mut state.knn.scratch);
        state.knn.votes.resize(scores.len(), 0.0);
        ann.label_votes_into(neighbors, &mut state.knn.votes);
        blend_scores(&mut scores, &state.knn.votes, lambda);
        Metrics::inc(&metrics.knn_queries);
        metrics
            .knn_query_ns
            .fetch_add(knn_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
    Ok(InferResponse {
        model: request.model.clone(),
        ranked: model.rank(&scores, request.top_k),
        queue_us,
        featurize_us,
        forward_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_requests_never_wait_for_company() {
        // An idle one-worker engine answers a lone request as soon as the
        // worker wakes: 200 sequential round trips are a few ms of condvar
        // hand-offs. A coalescing window w in the worker would cost 200·w
        // here (2 ms → ≥ 400 ms); the bound leaves a loaded box slack below
        // that. The empty registry keeps the test model-free: every answer
        // is the typed UnknownModel.
        let handle = ServeHandle::start(
            Arc::new(Registry::new()),
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        );
        let start = Instant::now();
        for _ in 0..200 {
            match handle.infer(InferRequest::default()) {
                Err(ServeError::UnknownModel(_)) => {}
                other => panic!("expected UnknownModel, got {other:?}"),
            }
        }
        let elapsed = start.elapsed();
        handle.shutdown();
        assert!(
            elapsed < Duration::from_millis(350),
            "200 lone requests took {elapsed:?}"
        );
        let m = handle.metrics();
        assert_eq!(m.batches.load(Ordering::Relaxed), 200);
        assert_eq!(m.batched_jobs.load(Ordering::Relaxed), 200);
    }
}
