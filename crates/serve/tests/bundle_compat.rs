//! `.imrb` backward/forward compatibility and kNN-index determinism.
//!
//! The bundle format grew a version-2 layout (trailing `IMRA` kNN index
//! section) in the kNN-serving change. These tests pin the compatibility
//! contract:
//!
//! * a bundle without an index is still written as version 1, byte-for-byte
//!   loadable (old readers keep working, and this writer's v1 output is
//!   identical to the pre-kNN writer's);
//! * a bundle with an index carries version 2 and round-trips exactly;
//! * unknown versions and corrupted/truncated index sections fail with
//!   typed `InvalidData` errors, never panics;
//! * index construction is deterministic: byte-identical across repeated
//!   builds and across compute-pool thread counts (`--threads 1` vs `4`).

use imre_core::{HyperParams, ModelSpec};
use imre_eval::{build_index, smoke_config, Pipeline};
use imre_graph::EntityEmbedding;
use imre_serve::{
    load_bundle, read_bundle, save_bundle, write_bundle, Bundle, ServeError, ServingModel,
    VERSION_V1, VERSION_V2,
};
use imre_tensor::pool::{with_pool, ThreadPool};
use std::sync::OnceLock;

struct Fixture {
    pipeline: Pipeline,
    // `ReModel` is deliberately not Clone; each bundle deserializes its own
    // copy (also re-exercising the IMRM round-trip).
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

fn bundle(with_ann: bool) -> Bundle {
    let fx = fixture();
    let model = imre_core::read_model(&mut fx.model_bytes.as_slice()).expect("model deserializes");
    let embedding = EntityEmbedding::from_matrix(fx.pipeline.embedding.matrix().clone());
    let ann = with_ann.then(|| build_index(&fx.pipeline, &model, 7));
    let b = Bundle::new(
        model,
        fx.pipeline.dataset.vocab.clone(),
        &fx.pipeline.dataset.world,
        Some(embedding),
    );
    match ann {
        Some(ann) => b.with_ann(ann),
        None => b,
    }
}

fn bundle_bytes(with_ann: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_bundle(&bundle(with_ann), &mut bytes).expect("serialize bundle");
    bytes
}

fn version_of(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[4..8].try_into().unwrap())
}

/// A request over the first two bundled entity names.
fn request(b: &Bundle, knn: Option<(usize, f32)>) -> imre_serve::InferRequest {
    let head = b.entities[0].0.clone();
    let tail = b.entities[1].0.clone();
    imre_serve::InferRequest {
        model: "smoke".to_string(),
        text: format!("records show {head} associated with {tail} in the region"),
        head,
        tail,
        top_k: 0,
        knn_k: knn.map(|(k, _)| k),
        knn_lambda: knn.map(|(_, l)| l),
        ..imre_serve::InferRequest::default()
    }
}

#[test]
fn bundle_without_index_stays_version_1_and_serves() {
    let bytes = bundle_bytes(false);
    assert_eq!(version_of(&bytes), VERSION_V1, "no index → v1 on disk");
    let loaded = read_bundle(&mut bytes.as_slice()).expect("v1 loads");
    assert!(loaded.ann.is_none());
    let req = request(&loaded, None);
    let model = ServingModel::new(loaded).expect("validates");
    let ranked = model.infer(&req).expect("serves");
    assert_eq!(ranked.len(), model.num_relations());
}

#[test]
fn bundle_with_index_is_version_2_and_round_trips() {
    let bytes = bundle_bytes(true);
    assert_eq!(version_of(&bytes), VERSION_V2, "index → v2 on disk");
    let loaded = read_bundle(&mut bytes.as_slice()).expect("v2 loads");
    let ann = loaded.ann.as_ref().expect("index survives the roundtrip");
    assert_eq!(ann.len(), fixture().pipeline.train_bags.len());
    assert_eq!(ann.dim(), loaded.model.sent_dim());
    // Serves on both paths: pure and interpolated.
    let pure_req = request(&loaded, None);
    let knn_req = request(&loaded, Some((4, 0.5)));
    let model = ServingModel::new(loaded).expect("validates");
    let pure = model.infer(&pure_req).expect("pure path");
    let blended = model.infer(&knn_req).expect("interpolated path");
    assert_eq!(pure.len(), blended.len());
}

#[test]
fn v1_bytes_are_identical_with_and_without_knn_support_compiled_in() {
    // The writer emits v1 whenever there is no index, so pre-kNN readers
    // (which reject any version != 1) keep loading new no-index bundles.
    // Two fresh serializations must agree byte-for-byte — nothing about
    // the optional section may leak into the v1 layout.
    assert_eq!(bundle_bytes(false), bundle_bytes(false));
    assert_ne!(
        bundle_bytes(false).len(),
        bundle_bytes(true).len(),
        "v2 must actually append the index section"
    );
}

#[test]
fn unknown_version_is_a_typed_error() {
    let mut bytes = bundle_bytes(true);
    bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
    let err = read_bundle(&mut bytes.as_slice())
        .map(|_| ())
        .expect_err("version 9 must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("version"),
        "error should name the version field: {err}"
    );
}

#[test]
fn corrupt_or_truncated_index_section_is_a_typed_error() {
    let v1_len = bundle_bytes(false).len();
    let bytes = bundle_bytes(true);
    assert!(bytes.len() > v1_len, "v2 appends the index after the model");

    // Truncations inside the ANN section: magic, header, mid-body, and
    // just before the checksum.
    for cut in [
        v1_len + 2,
        v1_len + 10,
        (v1_len + bytes.len()) / 2,
        bytes.len() - 4,
    ] {
        let truncated = &bytes[..cut];
        let err = read_bundle(&mut &truncated[..])
            .map(|_| ())
            .expect_err("truncated index section must be rejected");
        assert!(
            err.kind() == std::io::ErrorKind::InvalidData
                || err.kind() == std::io::ErrorKind::UnexpectedEof,
            "cut at {cut}: unexpected error kind {:?}",
            err.kind()
        );
    }

    // Byte flips across the ANN section (its checksum catches content
    // corruption; structural validation catches the rest).
    for offset in [v1_len, v1_len + 9, v1_len + 40, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[offset] ^= 0x5A;
        let err = read_bundle(&mut bad.as_slice())
            .map(|_| ())
            .expect_err("corrupt index section must be rejected");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "flip at {offset}"
        );
    }
}

/// A v1 header whose table counts are lies the few bytes behind them cannot
/// back must fail with a typed error, having sized nothing from the counts.
/// At the parent of this test the first case panicked (`capacity overflow`)
/// and the second aborted the process.
#[test]
fn absurd_table_counts_are_typed_errors() {
    use std::io::ErrorKind::{InvalidData, UnexpectedEof};
    let le = |xs: &[u64]| -> Vec<u8> { xs.iter().flat_map(|x| x.to_le_bytes()).collect() };
    let check = |what: &str, tail: Vec<u8>, kind| {
        // magic, version 1, a vocabulary of the two special tokens, `tail`
        let mut b = b"IMRB\x01\0\0\0\x02\0\0\0\0\0\0\0".to_vec();
        b.extend_from_slice(b"\x05\0\0\0<pad>\x05\0\0\0<unk>");
        b.extend(tail);
        let err = read_bundle(&mut b.as_slice()).map(|_| ()).expect_err(what);
        assert_eq!(err.kind(), kind, "{what}: {err}");
    };
    check("entity count u64::MAX", le(&[u64::MAX]), UnexpectedEof);
    check("entity count 4e10", le(&[40_000_000_000]), UnexpectedEof);
    let typed = [le(&[1]), b"\x01\0\0\0e".to_vec(), le(&[u64::MAX])].concat();
    check("type count of entity \"e\"", typed, UnexpectedEof);
    check("relation count", le(&[0, u64::MAX]), UnexpectedEof);
    // no entities, no relations, embedding flag, rows, cols, 12 payload bytes
    let embedding = |rows, cols| [le(&[0, 0]), vec![1], le(&[rows, cols]), vec![0; 12]].concat();
    check(
        "embedding 4e10 x 1",
        embedding(40_000_000_000, 1),
        UnexpectedEof,
    );
    check(
        "embedding u64::MAX x 2",
        embedding(u64::MAX, 2),
        InvalidData,
    );
}

#[test]
fn index_build_is_byte_identical_across_thread_counts() {
    // The engine's determinism contract: the serving index (and with it the
    // whole v2 bundle) is byte-identical whether representations were
    // computed on one thread or four. `with_pool` scopes the pool override,
    // so both sides run in one process.
    let serial = with_pool(&ThreadPool::new(1), || bundle_bytes(true));
    let parallel = with_pool(&ThreadPool::new(4), || bundle_bytes(true));
    assert_eq!(
        serial, parallel,
        "--threads must never change the bundle bytes"
    );
    // And across repeated builds on the ambient pool.
    assert_eq!(bundle_bytes(true), bundle_bytes(true));
}

#[test]
fn knn_request_against_index_less_bundle_is_typed_no_knn_index() {
    let loaded = read_bundle(&mut bundle_bytes(false).as_slice()).expect("v1 loads");
    let req = request(&loaded, Some((4, 0.5)));
    let model = ServingModel::new(loaded).expect("validates");
    match model.infer(&req) {
        Err(ServeError::NoKnnIndex) => {}
        other => panic!("expected NoKnnIndex, got {other:?}"),
    }
    assert_eq!(ServeError::NoKnnIndex.code(), "no-knn-index");
}

#[test]
fn lambda_zero_is_bit_identical_to_index_less_serving() {
    // The λ=0 / knn=0 path must never consult the index: scores from a v2
    // bundle are bit-identical to the same model served from a v1 bundle.
    let v1 = ServingModel::new(read_bundle(&mut bundle_bytes(false).as_slice()).unwrap()).unwrap();
    let v2 = ServingModel::new(read_bundle(&mut bundle_bytes(true).as_slice()).unwrap()).unwrap();
    for knn in [None, Some((0, 0.5)), Some((8, 0.0))] {
        let req_v1 = request(v1.bundle(), None);
        let req_v2 = request(v2.bundle(), knn);
        let a = v1.infer(&req_v1).expect("v1 serves");
        let b = v2.infer(&req_v2).expect("v2 serves");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.relation, y.relation);
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "knn={knn:?}: λ=0 must be bit-identical to index-less serving"
            );
        }
    }
}

#[test]
fn interpolation_actually_changes_scores() {
    let v2 = ServingModel::new(read_bundle(&mut bundle_bytes(true).as_slice()).unwrap()).unwrap();
    let pure = v2.infer(&request(v2.bundle(), None)).unwrap();
    let blended = v2.infer(&request(v2.bundle(), Some((8, 0.5)))).unwrap();
    let pure_bits: Vec<u32> = pure.iter().map(|r| r.score.to_bits()).collect();
    let blended_bits: Vec<u32> = blended.iter().map(|r| r.score.to_bits()).collect();
    assert_ne!(
        pure_bits, blended_bits,
        "λ=0.5 with 8 neighbors must move the scores"
    );
}

#[test]
fn out_of_range_lambda_is_rejected_before_the_forward_pass() {
    let v2 = ServingModel::new(read_bundle(&mut bundle_bytes(true).as_slice()).unwrap()).unwrap();
    for lambda in [-0.1f32, 1.5, f32::NAN] {
        match v2.infer(&request(v2.bundle(), Some((4, lambda)))) {
            Err(ServeError::BadRequest(msg)) => {
                assert!(msg.contains("lambda"), "message should name lambda: {msg}")
            }
            other => panic!("lambda={lambda}: expected BadRequest, got {other:?}"),
        }
    }
}

/// A typed model needs every entity to have a type: the type component
/// averages the entity's type embeddings, and over an empty list it scored
/// NaN in f32 (and unrelated finite scores at int8). Loading such a bundle
/// is a typed `InvalidData` error naming the entity.
#[test]
fn typeless_entity_in_a_typed_bundle_is_rejected_at_load() {
    let mut b = bundle(false);
    assert!(b.model.spec.use_type, "the fixture is a typed model");
    b.entities[1].1.clear();
    let name = b.entities[1].0.clone();
    let dir = std::env::temp_dir().join(format!("imre_typeless_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("typeless.imrb");
    save_bundle(&b, &path).expect("saves");
    let err = load_bundle(&path)
        .map(|_| ())
        .expect_err("a typeless entity must not load");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(
        err.to_string()
            .contains(&format!("{name:?} has no type id")),
        "{err}"
    );
    assert!(
        ServingModel::new(b).is_err(),
        "an in-memory bundle is checked too"
    );
}
