//! Hostile bytes and failing writers against the artifact codecs.
//!
//! - Every prefix and every single-byte flip of a QNT8 section and of an
//!   aligned IMRA section goes through its parser, from owned bytes and
//!   from a mapped file, and an IMRA stream body is swept the same way
//!   behind a fresh checksum. Each case must decode or be `InvalidData`;
//!   none may panic.
//! - Bytes that are not inside the mapping handed to a parser are copied,
//!   never viewed.
//! - A write error, including one only the final flush sees, reaches the
//!   caller of `save_bundle` and `save_params`.

use imre_ann::{AnnIndex, HnswConfig};
use imre_core::{HyperParams, ModelSpec, QuantModel, ReModel};
use imre_graph::EntityEmbedding;
use imre_serve::quantio::{read_quant_section, write_quant_section};
use imre_tensor::bytes::{Fnv1a, Mapping};
use imre_tensor::Tensor;
use std::io::{self, ErrorKind};
use std::path::PathBuf;
use std::sync::Arc;

fn model() -> ReModel {
    let hp = HyperParams::tiny();
    ReModel::new(ModelSpec::pa_tmr(), &hp, 8, 3, 4, hp.entity_dim, 5)
}

fn embedding() -> EntityEmbedding {
    let dim = HyperParams::tiny().entity_dim;
    let data = (0..4 * dim).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
    EntityEmbedding::from_matrix(Tensor::from_vec(data, &[4, dim]))
}

fn ann() -> AnnIndex {
    let (n, dim) = (24usize, 3usize);
    let vectors = (0..n * dim).map(|i| (i * 37 % 97) as f32 * 0.25).collect();
    let labels = (0..n as u32).map(|i| i % 3).collect();
    AnnIndex::build(dim, vectors, labels, HnswConfig::with_seed(3)).unwrap()
}

/// A scratch file path unique to this process and `name`.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("imre_artifact_bytes_{}_{name}", std::process::id()))
}

fn map_bytes(path: &PathBuf, bytes: &[u8]) -> Arc<Mapping> {
    std::fs::write(path, bytes).unwrap();
    Arc::new(Mapping::of_path(path).unwrap())
}

/// `Ok` or `InvalidData`, nothing else.
fn typed<T>(r: io::Result<T>, case: &str) {
    if let Err(e) = r {
        assert_eq!(e.kind(), ErrorKind::InvalidData, "{case}: {e}");
    }
}

/// Runs `parse` over every prefix and every single-byte flip of `image`,
/// first from owned bytes, then from a mapping of a file holding them.
fn sweep(name: &str, image: &[u8], parse: impl Fn(&[u8], Option<&Arc<Mapping>>)) {
    let path = scratch(name);
    let map = map_bytes(&path, image);
    for len in 0..image.len() {
        parse(&image[..len], None);
        parse(&map.as_slice()[..len], Some(&map));
    }
    let mut flipped = image.to_vec();
    for at in 0..image.len() {
        flipped[at] ^= 0xA5;
        parse(&flipped, None);
        let map = map_bytes(&path, &flipped);
        parse(map.as_slice(), Some(&map));
        flipped[at] ^= 0xA5;
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_prefix_and_flip_of_a_qnt8_section_is_typed() {
    let model = model();
    let qm = QuantModel::from_model(&model, Some(&embedding())).unwrap();
    let image = write_quant_section(&qm);
    typed(read_quant_section(&image, &model, None), "intact");
    sweep("qnt8", &image, |bytes, map| {
        typed(read_quant_section(bytes, &model, map), "qnt8")
    });
}

#[test]
fn every_prefix_and_flip_of_an_aligned_imra_section_is_typed() {
    let image = ann().write_aligned();
    sweep("imra", &image, |bytes, map| {
        typed(AnnIndex::read_aligned(bytes, map), "aligned imra")
    });
}

#[test]
fn every_prefix_and_flip_of_an_imra_stream_body_is_typed() {
    let mut image = Vec::new();
    ann().write_to(&mut image).unwrap();
    let body_len = u64::from_le_bytes(image[8..16].try_into().unwrap()) as usize;
    let body = &image[16..16 + body_len];
    // Re-framed with its own length and checksum, so the decoder sees it.
    let reframe = |body: &[u8]| {
        let mut out = image[..8].to_vec();
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(body);
        out.extend_from_slice(&Fnv1a::digest(body).to_le_bytes());
        typed(AnnIndex::read_from(&mut out.as_slice()), "imra body");
    };
    for len in 0..body.len() {
        reframe(&body[..len]);
    }
    let mut flipped = body.to_vec();
    for at in 0..body.len() {
        flipped[at] ^= 0xA5;
        reframe(&flipped);
        flipped[at] ^= 0xA5;
    }
}

#[test]
fn bytes_outside_the_passed_mapping_are_copied() {
    let model = model();
    let qm = QuantModel::from_model(&model, Some(&embedding())).unwrap();
    let qnt8 = write_quant_section(&qm);
    let imra = ann().write_aligned();
    let (qpath, apath) = (scratch("own_q"), scratch("own_a"));
    let (qmap, amap) = (map_bytes(&qpath, &qnt8), map_bytes(&apath, &imra));
    std::fs::remove_file(&qpath).ok();
    std::fs::remove_file(&apath).ok();

    let mapped = read_quant_section(qmap.as_slice(), &model, Some(&qmap)).unwrap();
    assert!(mapped.is_borrowed());
    for foreign in [Some(&amap), Some(&qmap), None] {
        let copy = read_quant_section(&qnt8, &model, foreign).unwrap();
        assert!(!copy.is_borrowed(), "QNT8 viewed bytes outside its mapping");
    }
    let other = read_quant_section(qmap.as_slice(), &model, Some(&amap)).unwrap();
    assert!(!other.is_borrowed(), "QNT8 viewed another file's mapping");

    assert!(AnnIndex::read_aligned(amap.as_slice(), Some(&amap))
        .unwrap()
        .is_borrowed());
    for foreign in [Some(&amap), Some(&qmap), None] {
        let copy = AnnIndex::read_aligned(&imra, foreign).unwrap();
        assert!(!copy.is_borrowed(), "IMRA viewed bytes outside its mapping");
    }
}

/// A QNT8 table of width 0 passed the `rows·cols ≤ 2^31` check with any
/// row count, and `4 * rows` then overflowed (a panic in the dev profile).
#[test]
fn a_zero_width_qnt8_table_is_invalid_data() {
    let model = model();
    let mut image = b"QNT8".to_vec();
    image.extend_from_slice(&1u32.to_le_bytes());
    image.extend_from_slice(&[0; 12]); // alpha, beta, gamma
    image.extend_from_slice(&1u32.to_le_bytes()); // one table
    image.extend_from_slice(&0u32.to_le_bytes()); // no bias
    image.extend_from_slice(&0u32.to_le_bytes()); // tag
    image.extend_from_slice(&(1u64 << 62).to_le_bytes()); // rows
    image.extend_from_slice(&0u64.to_le_bytes()); // cols
    image.resize(256, 0);
    let err = read_quant_section(&image, &model, None)
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
}

#[cfg(target_os = "linux")]
#[test]
fn write_errors_reach_the_caller() {
    let full = std::path::Path::new("/dev/full");
    let model = model();
    // Small enough that every byte is still in the writer's buffer when
    // the function returns: only the flush can see the error.
    let mut store = imre_nn::ParamStore::new();
    store.zeros("w", &[4, 4]);
    assert!(imre_nn::serialize::save_params(&store, full).is_err());
    let mut vocab = imre_corpus::Vocab::new();
    for i in vocab.len()..8 {
        vocab.intern(&format!("w{i}"));
    }
    let bundle = imre_serve::Bundle {
        vocab,
        entities: (0..4).map(|i| (format!("e{i}"), vec![i])).collect(),
        relations: (0..3).map(|r| format!("r{r}")).collect(),
        embedding: Some(embedding()),
        model,
        ann: None,
        quant: None,
    };
    assert!(imre_serve::save_bundle(&bundle, full).is_err());
}
