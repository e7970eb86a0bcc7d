//! Serving throughput and query latency of the kNN interpolation path.
//!
//! The benchmark trains one smoke-scale PA-TMR model, builds its HNSW index
//! over the training-bag representations, freezes both into a version-2
//! [`imre_serve::Bundle`], and pushes saturation bursts through the engine
//! at K ∈ {0, 4, 16} neighbors. K=0 is the pure pre-kNN path (its req/s is
//! the no-regression anchor: shipping an index in the bundle must not slow
//! down requests that don't use it); K>0 adds one representation readout,
//! one HNSW search, and one blend per request.
//!
//! Gated metrics (`scripts/bench_check.sh`):
//!   - `knn_rps_k{0,4,16}` — saturation req/s per neighbor count;
//!   - `knn_query_ns` — mean index query time (search + vote + blend),
//!     from the engine's own `knn_query_ns` counter;
//!   - `knn_serve_allocs_per_request_steady` — fresh buffer allocations per
//!     interpolated request after warm-up, committed at exactly 0.
//!
//! Informational: `info_knn_index_build_ms`, `info_knn_index_bytes`.
//!
//! Honors `CRITERION_SAMPLE_MS` for a quick CI smoke run.

use criterion::{criterion_group, BenchmarkId, Criterion};
use imre_core::{HyperParams, ModelSpec};
use imre_eval::{smoke_config, Pipeline};
use imre_graph::EntityEmbedding;
use imre_serve::{EngineConfig, InferRequest, Registry, ServeHandle, ServingModel};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Requests per saturation burst (matches `serve_throughput`).
const BURST: usize = 64;

struct Fixture {
    registry: Arc<Registry>,
    /// Pure requests; per-K variants clone these and set the knn fields.
    requests: Vec<InferRequest>,
    index_build_ms: f64,
    index_bytes: usize,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let hp = HyperParams {
            epochs: 1,
            ..HyperParams::tiny()
        };
        let pipeline = Pipeline::build(&smoke_config(9), hp);
        let model = pipeline.train_system(ModelSpec::pa_tmr(), 13);
        let build_start = Instant::now();
        let ann = imre_eval::build_index(&pipeline, &model, 13);
        let index_build_ms = build_start.elapsed().as_secs_f64() * 1e3;
        let index_bytes = ann.serialized_len();
        let embedding = EntityEmbedding::from_matrix(pipeline.embedding.matrix().clone());
        let bundle = imre_serve::Bundle::new(
            model,
            pipeline.dataset.vocab.clone(),
            &pipeline.dataset.world,
            Some(embedding),
        )
        .with_ann(ann);
        let serving = ServingModel::new(bundle).expect("bundle validates");
        let names: Vec<String> = serving
            .bundle()
            .entities
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        let requests = (0..BURST)
            .map(|i| {
                let head = names[i % names.len()].clone();
                let tail = names[(i * 7 + 3) % names.len()].clone();
                let text = format!("records show {head} associated with {tail} in the region");
                InferRequest {
                    model: "smoke".to_string(),
                    head,
                    tail,
                    text,
                    top_k: 3,
                    deadline_ms: None,
                    ..InferRequest::default()
                }
            })
            .collect();
        let registry = Arc::new(Registry::new());
        registry.insert("smoke", serving);
        Fixture {
            registry,
            requests,
            index_build_ms,
            index_bytes,
        }
    })
}

fn engine() -> ServeHandle {
    ServeHandle::start(
        Arc::clone(&fixture().registry),
        EngineConfig {
            workers: 1,
            queue_capacity: 2 * BURST,
            default_deadline_ms: None,
            ..EngineConfig::default()
        },
    )
}

/// The fixture burst with `knn=k lambda=0.3` applied (K=0 leaves the
/// requests on the pure path — no knn fields at all).
fn requests_at(k: usize) -> Vec<InferRequest> {
    fixture()
        .requests
        .iter()
        .map(|r| {
            let mut r = r.clone();
            if k > 0 {
                r.knn_k = Some(k);
                r.knn_lambda = Some(0.3);
            }
            r
        })
        .collect()
}

/// Submits the whole burst up front, then waits for every reply.
fn burst(handle: &ServeHandle, requests: &[InferRequest]) -> usize {
    let pending: Vec<_> = requests
        .iter()
        .map(|r| handle.submit(r.clone()).expect("submit"))
        .collect();
    let n = pending.len();
    for p in pending {
        p.wait().expect("reply");
    }
    n
}

fn bench_neighbor_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_serve/k");
    for &k in &[0usize, 4, 16] {
        let handle = engine();
        let requests = requests_at(k);
        group.bench_with_input(BenchmarkId::new("burst64/k", k), &k, |b, _| {
            b.iter(|| std::hint::black_box(burst(&handle, &requests)));
        });
        handle.shutdown();
    }
    group.finish();
}

/// Non-criterion summary: req/s per K, the engine's mean kNN query time,
/// and the steady-state allocation budget of the interpolated path. With
/// `IMRE_BENCH_JSON` set, everything is written as flat JSON for the
/// `scripts/bench_check.sh` regression gate.
fn print_summary() {
    println!("\n=== knn_serve summary (burst = {BURST}, workers = 1) ===");
    let mut sink = imre_bench::MetricSink::new();
    sink.record("info_knn_index_build_ms", fixture().index_build_ms);
    sink.record("info_knn_index_bytes", fixture().index_bytes as f64);
    println!(
        "index: {} bytes, built in {:.1} ms",
        fixture().index_bytes,
        fixture().index_build_ms
    );
    let mut rps_k0 = 0.0f64;
    for &k in &[0usize, 4, 16] {
        let handle = engine();
        let requests = requests_at(k);
        burst(&handle, &requests); // warm up
        burst(&handle, &requests);
        // Warm-up boundary: from here the worker's arena and kNN scratch
        // are at steady-state capacity, so the miss counter must not move.
        let o = std::sync::atomic::Ordering::Relaxed;
        let before = {
            let m = handle.metrics();
            (
                m.pool_misses.load(o),
                m.knn_queries.load(o),
                m.knn_query_ns.load(o),
            )
        };
        let (samples, bursts_per_sample) = (5, 8);
        let mut best = Duration::MAX;
        let mut served = 0;
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..bursts_per_sample {
                served += burst(&handle, &requests);
            }
            best = best.min(start.elapsed() / bursts_per_sample);
        }
        let rps = BURST as f64 / best.as_secs_f64();
        sink.record(&format!("knn_rps_k{k}"), rps);
        if k == 0 {
            rps_k0 = rps;
            println!("k={k:>2}  {rps:>9.1} req/s  (pure path)");
        } else {
            println!("k={k:>2}  {rps:>9.1} req/s  ({:.2}x vs k=0)", rps / rps_k0);
        }
        if k == 16 {
            let m = handle.metrics();
            let steady_misses = m.pool_misses.load(o) - before.0;
            let queries = m.knn_queries.load(o) - before.1;
            let query_ns = m.knn_query_ns.load(o) - before.2;
            assert_eq!(
                queries as usize, served,
                "every interpolated request queries the index exactly once"
            );
            let allocs_per_request = steady_misses as f64 / served as f64;
            sink.record("knn_serve_allocs_per_request_steady", allocs_per_request);
            sink.record("knn_query_ns", query_ns as f64 / queries as f64);
            println!(
                "steady-state kNN telemetry: {allocs_per_request:.4} allocs/req, \
                 {:.0} ns mean query over {served} requests",
                query_ns as f64 / queries as f64
            );
            println!("\n--- engine stats after the k=16 run ---");
            println!("{}", handle.stats_text());
        }
        handle.shutdown();
    }
    sink.write_if_requested();
}

criterion_group!(benches, bench_neighbor_count);

fn main() {
    // Pin the compute pool to one thread before any tensor op initialises
    // it lazily: the steady-state alloc gate needs an exact warm-up
    // boundary (see serve_throughput.rs for the full rationale).
    std::env::set_var("IMRE_THREADS", "1");
    benches();
    print_summary();
}
