//! End-to-end int8 serving: `--precision int8` engine behavior, drift vs
//! the f32 engine, the typed error for quant-less bundles, the typed
//! rejection of int8 lookup tables shorter than the bundle's, and mmap-backed
//! hot-swap (the old mapping must outlive the swap until its last borrower
//! drops).

use imre_core::{HyperParams, ModelSpec, QuantModel};
use imre_eval::{build_index, smoke_config, Pipeline};
use imre_graph::EntityEmbedding;
use imre_serve::{
    load_bundle, save_bundle, Bundle, EngineConfig, InferRequest, Precision, Registry, ServeError,
    ServeHandle, ServingModel,
};
use imre_tensor::{QuantTensor, Tensor};
use std::io;
use std::sync::{Arc, OnceLock};

struct Fixture {
    pipeline: Pipeline,
    model_bytes: Vec<u8>,
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
        let mut model_bytes = Vec::new();
        imre_core::write_model(&model, &mut model_bytes).expect("serialize model");
        Fixture {
            pipeline,
            model_bytes,
        }
    })
}

fn bundle(with_quant: bool) -> Bundle {
    let fx = fixture();
    let model = imre_core::read_model(&mut fx.model_bytes.as_slice()).expect("model deserializes");
    let embedding = EntityEmbedding::from_matrix(fx.pipeline.embedding.matrix().clone());
    let ann = build_index(&fx.pipeline, &model, 7);
    let mut b = Bundle::new(
        model,
        fx.pipeline.dataset.vocab.clone(),
        &fx.pipeline.dataset.world,
        Some(embedding),
    )
    .with_ann(ann);
    if with_quant {
        let quant = QuantModel::from_model(&b.model, b.embedding.as_ref()).expect("quantizes");
        b = b.with_quant(quant);
    }
    b
}

fn request(b: &Bundle, i: usize) -> InferRequest {
    let head = b.entities[i % b.entities.len()].0.clone();
    let tail = b.entities[(i + 1) % b.entities.len()].0.clone();
    InferRequest {
        model: "smoke".to_string(),
        text: format!("records show {head} associated with {tail} in the region"),
        head,
        tail,
        top_k: 0,
        ..InferRequest::default()
    }
}

fn engine(registry: Arc<Registry>, precision: Precision) -> ServeHandle {
    ServeHandle::start(
        registry,
        EngineConfig {
            workers: 1,
            precision,
            ..EngineConfig::default()
        },
    )
}

#[test]
fn int8_engine_serves_and_tracks_the_f32_engine() {
    let registry = Arc::new(Registry::new());
    registry.insert("smoke", ServingModel::new(bundle(true)).expect("validates"));
    let f32_engine = engine(Arc::clone(&registry), Precision::F32);
    let int8_engine = engine(Arc::clone(&registry), Precision::Int8);

    let b = registry.get("smoke").unwrap();
    for i in 0..6 {
        let req = request(b.bundle(), i);
        let f = f32_engine.infer(req.clone()).expect("f32 serves");
        let q = int8_engine.infer(req).expect("int8 serves");
        assert_eq!(f.ranked.len(), q.ranked.len());
        // Same relation universe; scores drift by at most the quantization
        // tolerance (the CI gate pins the tight bound on real dims — tiny
        // test dims drift more per weight).
        for (a, c) in f.ranked.iter().zip(&q.ranked) {
            let other = q
                .ranked
                .iter()
                .find(|r| r.relation == a.relation)
                .expect("same relations");
            assert!(
                (a.score - other.score).abs() < 0.06,
                "relation {} drifted: f32 {} vs int8 {}",
                a.relation,
                a.score,
                other.score
            );
            let _ = c;
        }
    }

    // A queued burst of int8 requests agrees with one-at-a-time submissions.
    let reqs: Vec<InferRequest> = (0..6).map(|i| request(b.bundle(), i)).collect();
    let singles: Vec<_> = reqs
        .iter()
        .map(|r| int8_engine.infer(r.clone()).expect("serves"))
        .collect();
    let pending: Vec<_> = reqs
        .iter()
        .map(|r| int8_engine.submit(r.clone()).expect("queued"))
        .collect();
    for (p, single) in pending.into_iter().zip(singles) {
        let queued = p.wait().expect("serves");
        let a: Vec<(String, u32)> = single
            .ranked
            .iter()
            .map(|r| (r.relation.clone(), r.score.to_bits()))
            .collect();
        let c: Vec<(String, u32)> = queued
            .ranked
            .iter()
            .map(|r| (r.relation.clone(), r.score.to_bits()))
            .collect();
        assert_eq!(a, c, "int8 replies must not depend on queue depth");
    }

    // kNN interpolation also runs on the int8 path (repr from the
    // quantized encoder against the bundled f32 index).
    let mut knn_req = request(b.bundle(), 0);
    knn_req.knn_k = Some(4);
    knn_req.knn_lambda = Some(0.5);
    let blended = int8_engine
        .infer(knn_req)
        .expect("interpolated int8 serves");
    assert_eq!(blended.ranked.len(), b.num_relations());

    f32_engine.shutdown();
    int8_engine.shutdown();
}

#[test]
fn int8_engine_rejects_quantless_bundle_with_typed_error() {
    let registry = Arc::new(Registry::new());
    registry.insert(
        "smoke",
        ServingModel::new(bundle(false)).expect("validates"),
    );
    let int8_engine = engine(Arc::clone(&registry), Precision::Int8);
    let b = registry.get("smoke").unwrap();
    match int8_engine.infer(request(b.bundle(), 0)) {
        Err(ServeError::NoQuantModel) => {}
        other => panic!("expected NoQuantModel, got {other:?}"),
    }
    assert_eq!(ServeError::NoQuantModel.code(), "no-quant-model");
    int8_engine.shutdown();
}

/// Swaps one int8 lookup table of a quantized bundle for a 2-row table of
/// the right width: `"word"`, `"entity"` or `"type"`.
fn with_short_table(mut b: Bundle, which: &str) -> Bundle {
    let q = b.quant.as_mut().expect("quantized bundle");
    let table = match which {
        "word" => &mut q.word_emb,
        "entity" => q.entity_emb.as_mut().expect("PA-TMR has entity rows"),
        _ => &mut q.ty.as_mut().expect("PA-TMR has a type head").emb,
    };
    *table = QuantTensor::quantize(&Tensor::zeros(&[2, table.cols()]));
    b
}

/// Every width still matches, so only a row-count check stands between a
/// short int8 table and an out-of-range row in the first int8 request.
#[test]
fn short_int8_lookup_tables_fail_validation_with_typed_errors() {
    for which in ["word", "entity", "type"] {
        let err = with_short_table(bundle(true), which)
            .validate()
            .expect_err("a 2-row table must not validate");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&format!("{which} table")), "{err}");
    }
    for which in ["word", "type"] {
        match ServingModel::new(with_short_table(bundle(true), which)) {
            Err(ServeError::BadArtifact(msg)) => assert!(msg.contains("has 2 rows"), "{msg}"),
            Err(other) => panic!("{which}: expected BadArtifact, got {other:?}"),
            Ok(_) => panic!("{which}: a 2-row table must not serve"),
        }
    }
}

/// The int8 entity table is the quantization of the f32 embedding, which
/// validation holds to the entity table: a short one is re-derived from it.
#[test]
fn serving_model_requantizes_a_short_int8_entity_table() {
    let full = bundle(true);
    let want = full.quant.as_ref().unwrap().entity_emb.as_ref().unwrap();
    let model =
        ServingModel::new(with_short_table(bundle(true), "entity")).expect("re-derived, serves");
    let got = model.quant().unwrap().entity_emb.as_ref().unwrap();
    assert_eq!(got.rows(), model.bundle().entities.len());
    assert_eq!(got.data(), want.data());
    assert_eq!(got.scales(), want.scales());
}

#[test]
fn short_int8_word_table_fails_to_load_after_a_save() {
    let dir = std::env::temp_dir().join(format!("imre_short_table_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("short.imrb");
    save_bundle(&with_short_table(bundle(true), "word"), &path).expect("writes");
    let err = match load_bundle(&path) {
        Err(err) => err,
        Ok(_) => panic!("a 2-row word table must not load"),
    };
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("word table has 2 rows"), "{err}");
}

#[cfg(target_os = "linux")]
#[test]
fn hot_swap_defers_unmap_until_the_last_borrower_drops() {
    let dir = std::env::temp_dir().join("imre_quant_swap_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.imrb");
    save_bundle(&bundle(true), &path).expect("saves");

    let registry = Arc::new(Registry::new());
    registry.load_file("smoke", &path).expect("mmap loads");
    let old = registry.get("smoke").expect("registered");
    assert!(
        old.quant().expect("v3 carries quant").is_borrowed(),
        "registry file load must borrow from the mapping"
    );
    let req = request(old.bundle(), 0);
    let want: Vec<u32> = {
        let int8_engine = engine(Arc::clone(&registry), Precision::Int8);
        let resp = int8_engine.infer(req.clone()).expect("serves");
        int8_engine.shutdown();
        resp.ranked.iter().map(|r| r.score.to_bits()).collect()
    };

    // Hot-swap to an owned (non-mapped) copy of the same model and delete
    // the file. The old Arc — standing in for an in-flight request — must
    // keep the mapping alive and keep serving bit-identically.
    let mapped_bundle = load_bundle(&path).expect("second mapping");
    drop(mapped_bundle);
    registry.insert("smoke", ServingModel::new(bundle(true)).expect("validates"));
    std::fs::remove_file(&path).ok();

    let bag = old.featurize_request(&req).expect("featurizes");
    let mut scratch = imre_core::QuantScratch::new();
    let mut scores = vec![0.0f32; old.num_relations()];
    old.quant().unwrap().predict_quant_into(
        &bag,
        &imre_core::entity_type_table(&fixture().pipeline.dataset.world),
        &mut scratch,
        &mut scores,
        None,
    );
    let ranked = old.rank(&scores, 0);
    let got: Vec<u32> = ranked.iter().map(|r| r.score.to_bits()).collect();
    assert_eq!(
        got, want,
        "the swapped-out mapping must stay readable through the old Arc"
    );

    // New requests resolve the swapped-in model.
    let now = registry.get("smoke").expect("swap kept the name");
    assert!(!Arc::ptr_eq(&old, &now), "swap must replace the Arc");
}
