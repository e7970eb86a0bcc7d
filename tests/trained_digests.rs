//! Golden digests of trained artifacts: smoke PA-TMR after 2 epochs, as
//! `imre train --dataset smoke --epochs 2` trains it, and the two int8
//! products of that model — its held-out scores and the `.imrb` v3 image
//! `imre quantize` writes. Beside them, the two pretrained tables that
//! `Pipeline::build` hands every model: the skip-gram word vectors and the
//! LINE entity embedding.
//!
//! Training is bit-identical across pool sizes and SIMD tiers, so the IMRM
//! digest is asserted with 1 and 2 pool threads and under the scalar tier.
//!
//! Unlike `golden_digests.rs`, these bytes go through `tanh`, `exp` and
//! `ln`, which come from the platform libm: the table was recorded on
//! x86-64 Linux with glibc 2.36, and another libm may move it with no code
//! change until the transcendentals are owned by the crate. A change that
//! moves these bytes on purpose updates the table in the same diff.

use imre_core::{
    read_model, write_model, HyperParams, ModelSpec, QuantModel, QuantScratch, ReModel,
};
use imre_eval::{build_index, smoke_config, Pipeline};
use imre_graph::EntityEmbedding;
use imre_serve::{read_bundle, write_bundle, Bundle};
use imre_tensor::bytes::Fnv1a;
use imre_tensor::pool::{with_pool, ThreadPool};
use imre_tensor::simd::{with_backend, Backend};

/// `(length, FNV-1a 64)` of the IMRM image of the trained model.
const IMRM: (usize, u64) = (64917, 0xb1ee_9db2_7f58_7111);
/// `(length, FNV-1a 64)` of the int8 scores of every test bag, f32 LE.
const INT8_SCORES: (usize, u64) = (980, 0x731a_623c_1d16_43e6);
/// `(length, FNV-1a 64)` of the quantized `.imrb` v3 image.
const IMRB_V3: (usize, u64) = (196664, 0x3e75_b329_d616_d2ec);
/// `(length, FNV-1a 64)` of `Pipeline::build`'s skip-gram word table, f32 LE.
const WORD_VECTORS: (usize, u64) = (17408, 0x7c41_29ac_3c66_c95c);
/// `(length, FNV-1a 64)` of `Pipeline::build`'s LINE entity table, f32 LE.
const ENTITY_EMBEDDING: (usize, u64) = (12288, 0xb2db_7bec_6d62_5040);

/// The CLI's defaults: dataset and training seed 1.
const SEED: u64 = 1;

fn digest(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), Fnv1a::digest(bytes))
}

fn pipeline() -> Pipeline {
    let mut hp = HyperParams::scaled();
    hp.epochs = 2;
    Pipeline::build(&smoke_config(SEED), hp)
}

fn imrm(model: &ReModel) -> Vec<u8> {
    let mut out = Vec::new();
    write_model(model, &mut out).unwrap();
    out
}

fn train(p: &Pipeline) -> Vec<u8> {
    imrm(&p.train_system(ModelSpec::pa_tmr(), SEED))
}

#[test]
fn trained_imrm_digest_is_pinned_across_pools_and_backends() {
    let p = pipeline();
    let one = ThreadPool::new(1);
    let two = ThreadPool::new(2);
    for (what, bytes) in [
        ("1 thread", with_pool(&one, || train(&p))),
        ("2 threads", with_pool(&two, || train(&p))),
        ("scalar", with_backend(Backend::Scalar, || train(&p))),
    ] {
        assert_eq!(digest(&bytes), IMRM, "IMRM digest moved ({what})");
    }
}

#[test]
fn int8_scores_and_quantized_bundle_digests_are_pinned() {
    let p = pipeline();
    let model = read_model(&mut train(&p).as_slice()).unwrap();

    // `imre train --bundle`: model, vocab, entities, LINE table, kNN index.
    let ann = build_index(&p, &model, SEED);
    let embedding = EntityEmbedding::from_matrix(p.embedding.matrix().clone());
    let bundle = Bundle::new(
        model,
        p.dataset.vocab.clone(),
        &p.dataset.world,
        Some(embedding),
    )
    .with_ann(ann);
    let mut v2 = Vec::new();
    write_bundle(&bundle, &mut v2).unwrap();

    // `imre quantize`: load that bundle, attach the int8 model, write v3.
    let bundle = read_bundle(&mut v2.as_slice()).unwrap();
    let quant = QuantModel::from_model(&bundle.model, bundle.embedding.as_ref()).unwrap();
    let mut scratch = QuantScratch::new();
    let mut scores = vec![0.0f32; quant.num_relations];
    let mut score_bytes = Vec::new();
    for bag in &p.test_bags {
        quant.predict_quant_into(bag, &p.types, &mut scratch, &mut scores, None);
        for s in &scores {
            score_bytes.extend_from_slice(&s.to_le_bytes());
        }
    }
    assert_eq!(digest(&score_bytes), INT8_SCORES, "int8 score digest moved");

    let mut v3 = Vec::new();
    write_bundle(&bundle.with_quant(quant), &mut v3).unwrap();
    assert_eq!(digest(&v3), IMRB_V3, "quantized bundle digest moved");
}

fn f32_digest(data: &[f32]) -> (usize, u64) {
    let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
    digest(&bytes)
}

#[test]
fn pipeline_word_vectors_and_entity_embedding_digests_are_pinned() {
    let p = Pipeline::build(&smoke_config(SEED), HyperParams::scaled());
    assert_eq!(
        f32_digest(p.word_vectors.data()),
        WORD_VECTORS,
        "skip-gram word table digest moved"
    );
    assert_eq!(
        f32_digest(p.embedding.matrix().data()),
        ENTITY_EMBEDDING,
        "LINE entity table digest moved"
    );
}
