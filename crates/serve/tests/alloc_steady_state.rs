//! Steady-state allocation gate for the serving engine.
//!
//! After a warm-up phase, a worker's buffer arena must serve every forward
//! pass from recycled buffers: across ≥100 further requests the engine-wide
//! `pool_misses` counter must not grow at all, and the stats dump must
//! report `allocs_per_request` accordingly. `scripts/ci.sh alloc-gate` runs
//! exactly this test — it is the committed steady-state allocation budget
//! (zero) for the serving hot path.
//!
//! Everything runs in ONE `#[test]` so the compute-pool thread count can be
//! pinned before any tensor code touches the lazily-initialised global pool:
//! a single worker with a single-thread compute pool makes the warm-up
//! boundary exact (with racy multi-thread task claiming, a cold thread-local
//! stash could legitimately miss after warm-up).

use imre_core::{HyperParams, ModelSpec};
use imre_eval::{smoke_config, Pipeline};
use imre_graph::EntityEmbedding;
use imre_serve::{Bundle, EngineConfig, InferRequest, Registry, ServeHandle, ServingModel};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn request(entity_names: &[String], i: usize) -> InferRequest {
    let head = entity_names[i % entity_names.len()].clone();
    let mut tail_ix = (i * 7 + 3) % entity_names.len();
    if tail_ix == i % entity_names.len() {
        tail_ix = (tail_ix + 1) % entity_names.len();
    }
    let tail = entity_names[tail_ix].clone();
    // Bags of 1, 2 and 8 sentences: the held-out scoring buffers are
    // `[R, n]`-shaped, so arena reuse across bag sizes is part of the budget.
    let text = if i.is_multiple_of(5) {
        vec![format!("{head} was seen with {tail} again"); 8].join(" | ")
    } else if i.is_multiple_of(3) {
        format!(
            "{head} was reported near {tail} last year | sources link {head} directly to {tail}"
        )
    } else {
        format!("records show {head} associated with {tail} in the region")
    };
    InferRequest {
        model: "smoke".to_string(),
        head,
        tail,
        text,
        top_k: 3,
        deadline_ms: None,
        ..InferRequest::default()
    }
}

#[test]
fn steady_state_serve_allocs_per_request_is_zero() {
    // Must run before the first tensor op of this process initialises the
    // global compute pool (safe: edition-2021 `set_var`, single test fn).
    std::env::set_var("IMRE_THREADS", "1");

    let hp = HyperParams {
        epochs: 1,
        ..HyperParams::tiny()
    };
    let pipeline = Pipeline::build(&smoke_config(5), hp);
    let model = pipeline.train_system(ModelSpec::pa_tmr(), 11);
    // The bundle ships a kNN index so the same engine can gate the K>0
    // interpolation path below; requests that do not opt in still run the
    // pure path (engine default knn_k = 0).
    let ann = imre_eval::build_index(&pipeline, &model, 11);
    let embedding = EntityEmbedding::from_matrix(pipeline.embedding.matrix().clone());
    let bundle = Bundle::new(
        model,
        pipeline.dataset.vocab.clone(),
        &pipeline.dataset.world,
        Some(embedding),
    )
    .with_ann(ann);
    let entity_names: Vec<String> = bundle
        .entities
        .iter()
        .map(|(name, _)| name.clone())
        .collect();

    let registry = Arc::new(Registry::new());
    registry.insert(
        "smoke",
        ServingModel::new(bundle).expect("bundle validates"),
    );
    let handle = ServeHandle::start(
        registry,
        EngineConfig {
            workers: 1,
            queue_capacity: 256,
            default_deadline_ms: None,
            ..EngineConfig::default()
        },
    );

    let run = |lo: usize, hi: usize| {
        let pending: Vec<_> = (lo..hi)
            .map(|i| {
                handle
                    .submit(request(&entity_names, i))
                    .expect("queue accepts")
            })
            .collect();
        for p in pending {
            p.wait().expect("request succeeds");
        }
    };

    // Warm-up: every distinct request shape in the cycle must have passed
    // through the arena at least once (the request generator cycles with a
    // short period, so a couple of rounds cover all shapes).
    run(0, 40);

    let warm_misses = handle.metrics().pool_misses.load(Ordering::Relaxed);
    let warm_hits = handle.metrics().pool_hits.load(Ordering::Relaxed);
    assert!(warm_misses > 0, "warm-up should populate the arena");

    // Steady state: ≥100 more requests, zero fresh allocations.
    run(40, 160);

    let steady_misses = handle.metrics().pool_misses.load(Ordering::Relaxed) - warm_misses;
    let steady_hits = handle.metrics().pool_hits.load(Ordering::Relaxed) - warm_hits;
    assert_eq!(
        steady_misses, 0,
        "steady-state serving must not allocate tensor buffers \
         (pool grew by {steady_misses} buffers over 120 requests)"
    );
    assert!(
        steady_hits > 0,
        "steady state should be served from the pool"
    );

    // The stats dump carries the alloc line (cumulative counters, so the
    // ratio includes warm-up; it converges to the steady-state 0 as
    // requests accumulate).
    let stats = handle.stats_text();
    assert!(
        stats.contains("alloc: pool_hits=") && stats.contains("allocs_per_request="),
        "stats should report the alloc line:\n{stats}"
    );

    // K>0: the interpolation path must hold the same steady-state budget.
    // Its per-worker scratch (search beam, visited set, vote accumulator)
    // warms up alongside the buffer arena, after which interpolated
    // requests recycle everything too.
    let knn_run = |lo: usize, hi: usize| {
        let pending: Vec<_> = (lo..hi)
            .map(|i| {
                let mut req = request(&entity_names, i);
                req.knn_k = Some(4);
                req.knn_lambda = Some(0.3);
                handle.submit(req).expect("queue accepts")
            })
            .collect();
        for p in pending {
            p.wait().expect("interpolated request succeeds");
        }
    };
    knn_run(160, 200); // warm-up: repr buffers join the arena
    let warm_misses = handle.metrics().pool_misses.load(Ordering::Relaxed);
    let warm_queries = handle.metrics().knn_queries.load(Ordering::Relaxed);
    assert!(warm_queries >= 40, "kNN phase must query the index");
    knn_run(200, 320);
    let steady_misses = handle.metrics().pool_misses.load(Ordering::Relaxed) - warm_misses;
    assert_eq!(
        steady_misses, 0,
        "steady-state kNN serving must not allocate tensor buffers \
         (pool grew by {steady_misses} buffers over 120 interpolated requests)"
    );
    assert_eq!(
        handle.metrics().knn_queries.load(Ordering::Relaxed) - warm_queries,
        120,
        "every interpolated request queries the index exactly once"
    );
    let stats = handle.stats_text();
    assert!(
        stats.contains("knn: queries="),
        "stats should report the knn line:\n{stats}"
    );
    handle.shutdown();
}
