//! Serving throughput and footprint of the int8 quantized inference path.
//!
//! The benchmark registers two PA-TMR bundles over one smoke corpus:
//! `"scaled"` — paper-dimension weights (untrained; throughput does not
//! care) that the saturation bursts are measured against, and `"smoke"` —
//! a trained tiny model for the accuracy-drift report. Both carry their
//! per-row int8 copy (a version-3 [`imre_serve::Bundle`]), and bursts run
//! through two engines over the same registry — one at `--precision f32`,
//! one at `--precision int8`.
//!
//! Gated metrics (`scripts/bench_check.sh`):
//!   - `quant_serve_rps` — int8 saturation req/s;
//!   - `floor_quant_vs_f32_rps` — int8-over-f32 throughput ratio, floored
//!     at parity: quantized serving must never be slower than f32;
//!   - `quant_bytes_per_model` — weight bytes of the int8 model at paper
//!     dimensions (lower is better);
//!   - `floor_f32_vs_quant_bytes` — f32-over-int8 byte ratio at paper
//!     dimensions; ~4x for wide tables, committed ≥ 3x (the "≤ ~30% of the
//!     f32 footprint" claim with per-row parameter overhead included).
//!
//! Informational: `info_quant_max_score_drift` and the P@N/AUC deltas of
//! int8 vs f32 on the held-out smoke split (the hard accuracy gate runs in
//! `scripts/ci.sh quant` via `imre quantize --check`), plus
//! `info_quant_rss_kb` (resident set after both engines served).
//!
//! Honors `CRITERION_SAMPLE_MS` for a quick CI smoke run.

use criterion::{criterion_group, BenchmarkId, Criterion};
use imre_core::{entity_type_table, HyperParams, ModelSpec, QuantModel, QuantScratch, ReModel};
use imre_eval::{evaluate_system, smoke_config, Pipeline};
use imre_graph::EntityEmbedding;
use imre_serve::{EngineConfig, InferRequest, Precision, Registry, ServeHandle, ServingModel};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Requests per saturation burst (matches `serve_throughput`).
const BURST: usize = 64;

struct Fixture {
    pipeline: Pipeline,
    registry: Arc<Registry>,
    requests: Vec<InferRequest>,
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
        let num_types = model.num_types();
        let embedding = EntityEmbedding::from_matrix(pipeline.embedding.matrix().clone());
        let quant = QuantModel::from_model(&model, Some(&embedding)).expect("quantizes");
        let bundle = imre_serve::Bundle::new(
            model,
            pipeline.dataset.vocab.clone(),
            &pipeline.dataset.world,
            Some(embedding),
        )
        .with_quant(quant);
        let serving = ServingModel::new(bundle).expect("bundle validates");

        // Paper-dimension weights over the same vocab/world: the bursts
        // measure forward-pass throughput at realistic matrix sizes, where
        // the i8 kernels amortise their activation-quantization overhead.
        let world = &pipeline.dataset.world;
        let hp_scaled = HyperParams::scaled();
        let scaled_model = ReModel::new(
            ModelSpec::pa_tmr(),
            &hp_scaled,
            pipeline.dataset.vocab.len(),
            world.num_relations(),
            num_types,
            hp_scaled.entity_dim,
            17,
        );
        let mut rng = imre_tensor::TensorRng::seed(17);
        let scaled_emb = EntityEmbedding::from_matrix(imre_tensor::Tensor::rand_uniform(
            &[world.num_entities(), hp_scaled.entity_dim],
            -0.5,
            0.5,
            &mut rng,
        ));
        let scaled_quant =
            QuantModel::from_model(&scaled_model, Some(&scaled_emb)).expect("quantizes");
        let scaled_bundle = imre_serve::Bundle::new(
            scaled_model,
            pipeline.dataset.vocab.clone(),
            world,
            Some(scaled_emb),
        )
        .with_quant(scaled_quant);
        let scaled_serving = ServingModel::new(scaled_bundle).expect("bundle validates");

        let names: Vec<String> = scaled_serving
            .bundle()
            .entities
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        let requests = (0..BURST)
            .map(|i| {
                let head = names[i % names.len()].clone();
                let tail = names[(i * 7 + 3) % names.len()].clone();
                let text = format!(
                    "records from the annual regional survey of the territory show \
                     that {head} is closely associated with {tail} across the region \
                     and the neighbouring districts according to several reports"
                );
                InferRequest {
                    model: "scaled".to_string(),
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
        registry.insert("scaled", scaled_serving);
        Fixture {
            pipeline,
            registry,
            requests,
        }
    })
}

fn engine(precision: Precision) -> ServeHandle {
    ServeHandle::start(
        Arc::clone(&fixture().registry),
        EngineConfig {
            workers: 1,
            queue_capacity: 2 * BURST,
            default_deadline_ms: None,
            precision,
            ..EngineConfig::default()
        },
    )
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

/// Best-of saturation req/s for one precision.
fn measure_rps(precision: Precision) -> f64 {
    let handle = engine(precision);
    let requests = &fixture().requests;
    burst(&handle, requests); // warm up
    burst(&handle, requests);
    let (samples, bursts_per_sample) = (5, 8);
    let mut best = Duration::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..bursts_per_sample {
            burst(&handle, requests);
        }
        best = best.min(start.elapsed() / bursts_per_sample);
    }
    handle.shutdown();
    BURST as f64 / best.as_secs_f64()
}

/// Resident set size in kB from /proc (0 where unavailable).
fn rss_kb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

fn bench_precision(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant_serve/precision");
    for precision in [Precision::F32, Precision::Int8] {
        let handle = engine(precision);
        let requests = &fixture().requests;
        group.bench_with_input(
            BenchmarkId::new("burst64", precision.as_str()),
            &precision,
            |b, _| {
                b.iter(|| std::hint::black_box(burst(&handle, requests)));
            },
        );
        handle.shutdown();
    }
    group.finish();
}

/// Non-criterion summary: int8 vs f32 req/s, footprint at paper dimensions,
/// and the accuracy drift of the quantized path. With `IMRE_BENCH_JSON`
/// set, everything is written as flat JSON for the `scripts/bench_check.sh`
/// regression gate.
fn print_summary() {
    println!("\n=== quant_serve summary (burst = {BURST}, workers = 1) ===");
    let mut sink = imre_bench::MetricSink::new();

    // Throughput: int8 must hold parity with (in practice: beat) f32.
    let f32_rps = measure_rps(Precision::F32);
    let int8_rps = measure_rps(Precision::Int8);
    sink.record("quant_serve_rps", int8_rps);
    sink.record("floor_quant_vs_f32_rps", int8_rps / f32_rps);
    println!("f32   {f32_rps:>9.1} req/s");
    println!(
        "int8  {int8_rps:>9.1} req/s  ({:.2}x vs f32)",
        int8_rps / f32_rps
    );

    // Footprint of the model the bursts actually serve (paper dimensions).
    // `bytes()` counts the quantized entity table, so the f32 side counts
    // its embedding scalars too.
    let fx = fixture();
    let scaled = fx.registry.get("scaled").expect("registered");
    let sb = scaled.bundle();
    let q_bytes = sb.quant.as_ref().expect("v3 bundle").bytes() as f64;
    let emb_scalars = sb.embedding.as_ref().map_or(0, |e| e.matrix().data().len());
    let f32_bytes = ((sb.model.store.num_scalars() + emb_scalars) * 4) as f64;
    sink.record("quant_bytes_per_model", q_bytes);
    sink.record("floor_f32_vs_quant_bytes", f32_bytes / q_bytes);
    println!(
        "bytes/model at paper dims: f32 {f32_bytes:.0} → int8 {q_bytes:.0} \
         ({:.1}% of f32, {:.2}x smaller)",
        q_bytes / f32_bytes * 100.0,
        f32_bytes / q_bytes
    );

    // Accuracy drift on the held-out smoke split (informational here; the
    // hard gate is `imre quantize --check` in scripts/ci.sh).
    let fx = fixture();
    let serving = fx.registry.get("smoke").expect("registered");
    let b = serving.bundle();
    let types = entity_type_table(&fx.pipeline.dataset.world);
    let ctx = imre_core::BagContext {
        entity_embedding: b.embedding.as_ref(),
        entity_types: &types,
    };
    let qm = b.quant.as_ref().expect("v3 bundle");
    let nr = b.relations.len();
    let mut scratch = QuantScratch::new();
    let mut drift = 0.0f32;
    let mut q_scores = Vec::with_capacity(fx.pipeline.test_bags.len());
    for bag in &fx.pipeline.test_bags {
        let f = b.model.predict(bag, &ctx);
        let mut q = vec![0.0f32; nr];
        qm.predict_quant_into(bag, &types, &mut scratch, &mut q, None);
        for (a, c) in f.iter().zip(&q) {
            drift = drift.max((a - c).abs());
        }
        q_scores.push(q);
    }
    let f32_ev = evaluate_system(&fx.pipeline.test_bags, nr, |bag| b.model.predict(bag, &ctx));
    let mut it = q_scores.into_iter();
    let q_ev = evaluate_system(&fx.pipeline.test_bags, nr, |_| it.next().expect("scored"));
    sink.record("info_quant_max_score_drift", drift as f64);
    sink.record("info_quant_auc_delta", (q_ev.auc - f32_ev.auc) as f64);
    sink.record(
        "info_quant_p_at_100_delta",
        (q_ev.p_at_100 - f32_ev.p_at_100) as f64,
    );
    sink.record(
        "info_quant_p_at_300_delta",
        (q_ev.p_at_300 - f32_ev.p_at_300) as f64,
    );
    println!(
        "drift vs f32 over {} bags: max |Δscore| {drift:.6}, ΔAUC {:+.4}, \
         ΔP@100 {:+.4}, ΔP@300 {:+.4}",
        fx.pipeline.test_bags.len(),
        q_ev.auc - f32_ev.auc,
        q_ev.p_at_100 - f32_ev.p_at_100,
        q_ev.p_at_300 - f32_ev.p_at_300
    );

    sink.record("info_quant_rss_kb", rss_kb());
    sink.write_if_requested();
}

criterion_group!(benches, bench_precision);

fn main() {
    // Pin the compute pool to one thread before any tensor op initialises
    // it lazily (see serve_throughput.rs for the rationale).
    std::env::set_var("IMRE_THREADS", "1");
    benches();
    print_summary();
}
