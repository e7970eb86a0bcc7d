//! Live-path test for the background updater: train a real smoke model,
//! serve it, stream deltas that mention an entity the model has never seen,
//! and verify the cold-start entity becomes answerable through the engine
//! after a live publish — with serving active the whole time.

use imre_core::{HyperParams, ModelSpec, QuantModel, ReModel};
use imre_eval::{smoke_config, Pipeline};
use imre_graph::{EntityEmbedding, LineConfig};
use imre_serve::{
    load_bundle, save_bundle, write_bundle, Bundle, EngineConfig, InferRequest, Precision,
    Registry, ServeHandle, ServingModel,
};
use imre_stream::{
    replay, RefreshMode, StreamBuildConfig, StreamUpdateError, StreamUpdater, StreamUpdaterConfig,
};
use imre_tensor::{QuantTensor, Tensor};
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

struct Fixture {
    bundle_bytes: Vec<u8>,
    entity_names: Vec<String>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let hp = HyperParams {
            epochs: 2,
            ..HyperParams::tiny()
        };
        let pipeline = Pipeline::build(&smoke_config(5), hp);
        let model = pipeline.train_system(ModelSpec::pa_tmr(), 11);
        let embedding = EntityEmbedding::from_matrix(pipeline.embedding.matrix().clone());
        let bundle = Bundle::new(
            model,
            pipeline.dataset.vocab.clone(),
            &pipeline.dataset.world,
            Some(embedding),
        );
        let mut bundle_bytes = Vec::new();
        write_bundle(&bundle, &mut bundle_bytes).expect("serialize bundle");
        let entity_names = bundle
            .entities
            .iter()
            .map(|(name, _)| name.clone())
            .collect();
        Fixture {
            bundle_bytes,
            entity_names,
        }
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("imre_stream_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Writes the fixture bundle to disk and returns its path.
fn base_bundle_path(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("base.imrb");
    let bundle =
        imre_serve::read_bundle(&mut fixture().bundle_bytes.as_slice()).expect("fixture parses");
    save_bundle(&bundle, &path).expect("save base bundle");
    path
}

fn build_config() -> StreamBuildConfig {
    StreamBuildConfig {
        threshold: 2,
        line: LineConfig {
            dim: 8, // overridden to the bundle's embedding dim at spawn
            samples_per_epoch: 1_000,
            epochs: 1,
            ..Default::default()
        },
        threads: 2,
        refresh: RefreshMode::Canonical,
    }
}

/// Three delta batches where a brand-new entity `novastar` co-occurs with
/// base entities past the threshold.
fn delta_text(e0: &str, e1: &str) -> String {
    format!(
        "1\t{e0}\t{e1}\n\
         2\t{e0}\tnovastar:1\n\
         3\t{e0}\tnovastar\n\
         \n\
         4\t{e1}\tnovastar\n\
         5\t{e0}\t{e1}\n\
         \n\
         6\t{e1}\tnovastar\n"
    )
}

fn infer_request(head: &str, tail: &str) -> InferRequest {
    InferRequest {
        model: "smoke".to_string(),
        head: head.to_string(),
        tail: tail.to_string(),
        text: format!("fresh reports connect {head} with {tail} in several filings"),
        top_k: 3,
        deadline_ms: Some(2_000),
        ..InferRequest::default()
    }
}

#[test]
fn cold_start_entity_becomes_answerable_after_live_publish() {
    let dir = temp_dir("live");
    let base_path = base_bundle_path(&dir);
    let out_path = dir.join("published.imrb");

    let registry = Arc::new(Registry::new());
    let base = load_bundle(&base_path).expect("base loads");
    registry.insert("smoke", ServingModel::new(base).expect("base validates"));
    let handle = ServeHandle::start(Arc::clone(&registry), EngineConfig::default());

    let names = &fixture().entity_names;
    let (e0, e1) = (names[0].clone(), names[1].clone());

    // Serving is live, but the cold-start entity is unknown to the engine.
    let before = handle.infer(infer_request("novastar", &e0));
    assert!(
        before.is_err(),
        "novastar must be unknown before the stream"
    );

    let source = imre_corpus::LineDeltaSource::new(Cursor::new(delta_text(&e0, &e1).into_bytes()));
    let updater = StreamUpdater::spawn(
        source,
        base_path.clone(),
        Arc::clone(&registry),
        handle.metrics_arc(),
        StreamUpdaterConfig {
            model_name: "smoke".to_string(),
            publish_every: 1,
            build: build_config(),
            out_path: Some(out_path.clone()),
        },
    )
    .expect("updater spawns");

    // Serving keeps answering known entities while the updater ingests.
    let during = handle
        .infer(infer_request(&e0, &e1))
        .expect("known pair answers during streaming");
    assert!(!during.ranked.is_empty());

    let summary = updater.join().expect("stream completes");
    assert_eq!(summary.batches, 3);
    assert!(summary.publishes >= 1, "at least one publish: {summary:?}");
    assert_eq!(summary.entities_admitted, 1);
    assert_eq!(summary.malformed, 0);

    // The cold-start entity now answers through the hot-swapped model.
    let after = handle
        .infer(infer_request("novastar", &e0))
        .expect("novastar answers after live publish");
    assert!(!after.ranked.is_empty());
    assert!(after.ranked[0].score.is_finite());

    // Metrics observed the stream.
    let metrics = handle.metrics_arc();
    assert_eq!(metrics.stream_deltas_applied.load(Ordering::Relaxed), 3);
    assert!(metrics.stream_publishes.load(Ordering::Relaxed) >= 1);
    let stats = handle.stats_text();
    assert!(
        stats.contains("stream:"),
        "stats carries stream line: {stats}"
    );
    assert!(
        !stats.contains("last_publish_age=never"),
        "publish age set: {stats}"
    );

    // The persisted publish is a valid, loadable bundle with the grown table.
    let published = load_bundle(&out_path).expect("published bundle loads");
    assert!(published
        .entities
        .iter()
        .any(|(name, _)| name == "novastar"));
    let emb = published.embedding.as_ref().expect("embedding present");
    assert_eq!(emb.len(), published.entities.len());
    assert!(
        ServingModel::new(published).is_ok(),
        "published bundle validates"
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A v3 base carries an int8 entity table: the publish re-quantizes it from
/// the refreshed embedding, so the persisted bundle passes the row-count
/// check and the int8 engine has a row for the admitted entity.
#[test]
fn publish_requantizes_the_int8_entity_table() {
    let dir = temp_dir("int8");
    let base_path = dir.join("base_v3.imrb");
    let mut base =
        imre_serve::read_bundle(&mut fixture().bundle_bytes.as_slice()).expect("fixture parses");
    let quant = QuantModel::from_model(&base.model, base.embedding.as_ref()).expect("quantizes");
    base = base.with_quant(quant);
    save_bundle(&base, &base_path).expect("save v3 base");
    let out_path = dir.join("published.imrb");

    let registry = Arc::new(Registry::new());
    let handle = ServeHandle::start(
        Arc::clone(&registry),
        EngineConfig {
            precision: Precision::Int8,
            ..EngineConfig::default()
        },
    );
    let names = &fixture().entity_names;
    let source = imre_corpus::LineDeltaSource::new(Cursor::new(
        delta_text(&names[0], &names[1]).into_bytes(),
    ));
    let updater = StreamUpdater::spawn(
        source,
        base_path,
        Arc::clone(&registry),
        handle.metrics_arc(),
        StreamUpdaterConfig {
            model_name: "smoke".to_string(),
            publish_every: 0,
            build: build_config(),
            out_path: Some(out_path.clone()),
        },
    )
    .expect("updater spawns");
    assert_eq!(
        updater.join().expect("stream completes").entities_admitted,
        1
    );

    let published = load_bundle(&out_path).expect("published v3 bundle loads");
    let table = published
        .quant
        .as_ref()
        .unwrap()
        .entity_emb
        .as_ref()
        .unwrap();
    assert_eq!(table.rows(), published.entities.len());
    let want = QuantTensor::quantize(published.embedding.as_ref().unwrap().matrix());
    assert_eq!(
        table.data(),
        want.data(),
        "int8 rows follow the new embedding"
    );
    let reply = handle
        .infer(infer_request("novastar", &names[0]))
        .expect("the admitted entity answers at int8");
    assert!(reply.ranked[0].score.is_finite());

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_batches_are_counted_and_skipped() {
    let dir = temp_dir("malformed");
    let base_path = base_bundle_path(&dir);
    let registry = Arc::new(Registry::new());
    let metrics = Arc::new(imre_serve::Metrics::default());
    let names = &fixture().entity_names;
    let (e0, e1) = (&names[0], &names[1]);

    // Batch 2 has a garbage timestamp; batches 1 and 3 are fine.
    let text = format!("1\t{e0}\t{e1}\n\n notatime\t{e0}\t{e1}\n\n2\t{e0}\t{e1}\n");
    let source = imre_corpus::LineDeltaSource::new(Cursor::new(text.into_bytes()));
    let updater = StreamUpdater::spawn(
        source,
        base_path,
        Arc::clone(&registry),
        Arc::clone(&metrics),
        StreamUpdaterConfig {
            model_name: "smoke".to_string(),
            publish_every: 0, // publish only at end of stream
            build: build_config(),
            out_path: None,
        },
    )
    .expect("updater spawns");
    let summary = updater.join().expect("stream completes despite bad batch");
    assert_eq!(summary.batches, 2, "good batches applied");
    assert_eq!(summary.malformed, 1, "bad batch counted");
    assert_eq!(metrics.stream_malformed.load(Ordering::Relaxed), 1);
    assert!(
        summary.publishes >= 1,
        "end-of-stream publish still happens"
    );
    assert!(
        registry.get("smoke").is_some(),
        "publish registered the refreshed model"
    );
    std::fs::remove_dir_all(
        std::env::temp_dir().join(format!("imre_stream_malformed_{}", std::process::id())),
    )
    .ok();
}

#[test]
fn spawn_rejects_bundle_without_embedding() {
    let dir = temp_dir("noemb");
    let path = dir.join("noemb.imrb");
    // A non-MR model bundles legitimately without an entity embedding; the
    // updater has nothing to refresh there and must fail fast, typed.
    let hp = HyperParams {
        epochs: 1,
        ..HyperParams::tiny()
    };
    let pipeline = Pipeline::build(&smoke_config(5), hp);
    let model = pipeline.train_system(ModelSpec::pa_t(), 11);
    let bundle = Bundle::new(
        model,
        pipeline.dataset.vocab.clone(),
        &pipeline.dataset.world,
        None,
    );
    save_bundle(&bundle, &path).expect("save");
    let source = imre_corpus::LineDeltaSource::new(Cursor::new(Vec::new()));
    let err = StreamUpdater::spawn(
        source,
        path,
        Arc::new(Registry::new()),
        Arc::new(imre_serve::Metrics::default()),
        StreamUpdaterConfig {
            model_name: "smoke".to_string(),
            publish_every: 1,
            build: build_config(),
            out_path: None,
        },
    )
    .err()
    .expect("spawn must fail");
    assert!(matches!(err, StreamUpdateError::NoEmbedding), "got {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spawn_and_replay_reject_an_embedding_width_line_cannot_train() {
    let dir = temp_dir("oddwidth");
    let path = dir.join("odd.imrb");
    let deltas = dir.join("deltas.tsv");
    // A valid PA-MR bundle whose entity table is 3 wide: LINE gives each
    // order half the width, so it cannot produce a 3-wide refresh that
    // would pass `Bundle::validate`.
    let dataset = imre_corpus::Dataset::generate(&smoke_config(5));
    let model = ReModel::new(
        ModelSpec::pa_mr(),
        &HyperParams::tiny(),
        dataset.vocab.len(),
        dataset.num_relations(),
        imre_corpus::NUM_COARSE_TYPES,
        3,
        7,
    );
    let embedding = EntityEmbedding::from_matrix(Tensor::zeros(&[dataset.world.num_entities(), 3]));
    let bundle = Bundle::new(
        model,
        dataset.vocab.clone(),
        &dataset.world,
        Some(embedding),
    );
    save_bundle(&bundle, &path).expect("save");
    let names: Vec<&str> = bundle.entities.iter().map(|(n, _)| n.as_str()).collect();
    let text = delta_text(names[0], names[1]);
    std::fs::write(&deltas, &text).expect("write deltas");

    let err = StreamUpdater::spawn(
        imre_corpus::LineDeltaSource::new(Cursor::new(text.into_bytes())),
        path.clone(),
        Arc::new(Registry::new()),
        Arc::new(imre_serve::Metrics::default()),
        StreamUpdaterConfig {
            model_name: "smoke".to_string(),
            publish_every: 1,
            build: build_config(),
            out_path: None,
        },
    )
    .err()
    .expect("spawn must fail before starting a thread");
    assert!(
        matches!(err, StreamUpdateError::EmbeddingWidth(3)),
        "got {err}"
    );

    let err = replay(&path, &deltas, build_config()).expect_err("replay must fail");
    assert!(
        matches!(err, StreamUpdateError::EmbeddingWidth(3)),
        "got {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
