//! Golden digests of every artifact format, over one fixture built by
//! formula: no RNG draw survives into it, nothing is trained, and no libm
//! function computes any of its bytes. The digests are therefore a fact of
//! the codecs alone, the same on every little-endian platform.
//!
//! The fixture is written as IMRP (parameter store), IMRM (model), IMRC
//! (checkpoint) and `.imrb` v1/v2/v3. v2 nests the stream IMRA layout, v3
//! the QNT8 section and the aligned IMRA layout. Each image must decode and
//! re-encode to itself, and a mapped v3 load must borrow its tables and
//! score exactly like the stream-read copy.
//!
//! A change that moves any of these bytes is a format change: it must say
//! so and update the table below in the same diff.

use imre_ann::{AnnIndex, SearchScratch};
use imre_core::checkpoint::{read_checkpoint, write_checkpoint, ResumePoint};
use imre_core::{
    read_model, write_model, HyperParams, ModelSpec, PreparedBag, QuantModel, QuantScratch,
    ReModel, SentenceFeatures,
};
use imre_corpus::Vocab;
use imre_graph::EntityEmbedding;
use imre_nn::serialize::{read_params, write_params};
use imre_serve::{load_bundle, read_bundle, write_bundle, Bundle};
use imre_tensor::Tensor;

/// `(format, length, FNV-1a 64)` of each image of the fixture.
const GOLDEN: [(&str, usize, u64); 6] = [
    ("IMRP", 9880, 0x58f8aa0cfdfd1ad9),
    ("IMRM", 10021, 0x75737e8c7e79f594),
    ("IMRC", 10049, 0xf8b1b9436ab5c8c7),
    ("IMRB v1", 11506, 0xd8f118e489f157a4),
    ("IMRB v2", 16694, 0x5048eb3206e98d20),
    ("IMRB v3", 22992, 0x65823d3dcb7e5226),
];

const VOCAB: usize = 40;
const RELATIONS: usize = 5;
const TYPES: usize = 6;
const ENTITIES: usize = 12;
const ANN_NODES: usize = 24;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A value in `[-0.75, 0.75]` on a 1/64 grid: exact in f32, and not
/// constant along any row, so every quantized row gets a real scale.
fn grid(i: usize, salt: usize) -> f32 {
    ((i * 37 + salt * 11) % 97) as f32 / 64.0 - 0.75
}

fn hp() -> HyperParams {
    HyperParams::tiny()
}

/// PA-TMR at `HyperParams::tiny()` with every weight set by [`grid`].
fn model() -> ReModel {
    let hp = hp();
    let mut model = ReModel::new(
        ModelSpec::pa_tmr(),
        &hp,
        VOCAB,
        RELATIONS,
        TYPES,
        hp.entity_dim,
        0,
    );
    let params: Vec<_> = model
        .store
        .iter()
        .map(|(id, _, t)| (id, t.shape().to_vec()))
        .collect();
    for (salt, (id, shape)) in params.into_iter().enumerate() {
        let len = shape.iter().product();
        let data = (0..len).map(|i| grid(i, salt)).collect();
        model.store.set(id, Tensor::from_vec(data, &shape));
    }
    model
}

fn embedding() -> EntityEmbedding {
    let dim = hp().entity_dim;
    let data = (0..ENTITIES * dim).map(|i| grid(i, 101)).collect();
    EntityEmbedding::from_matrix(Tensor::from_vec(data, &[ENTITIES, dim]))
}

/// The stream IMRA image of a hand-laid HNSW graph: every node on layer 0
/// linked to its ring neighbours and the node across, nodes 0 and 8 also
/// on layer 1, linked to each other.
fn ann_image(dim: usize) -> Vec<u8> {
    let n = ANN_NODES;
    let level = |i: usize| u8::from(i.is_multiple_of(8) && i < 16);
    let mut body = Vec::new();
    body.extend_from_slice(&42u64.to_le_bytes());
    for v in [4u32, 16, 16, dim as u32, n as u32, 0, 1] {
        body.extend_from_slice(&v.to_le_bytes());
    }
    for i in 0..n {
        body.extend_from_slice(&((i % RELATIONS) as u32).to_le_bytes());
    }
    body.extend((0..n).map(level));
    for i in 0..n * dim {
        body.extend_from_slice(&grid(i, 202).to_le_bytes());
    }
    for i in 0..n {
        let mut layers = vec![vec![(i + n - 1) % n, (i + 1) % n, (i + n / 2) % n]];
        if level(i) == 1 {
            layers.push(vec![8 - i]);
        }
        for list in layers {
            body.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for nb in list {
                body.extend_from_slice(&(nb as u32).to_le_bytes());
            }
        }
    }
    let mut image = b"IMRA".to_vec();
    image.extend_from_slice(&1u32.to_le_bytes());
    image.extend_from_slice(&(body.len() as u64).to_le_bytes());
    image.extend_from_slice(&body);
    image.extend_from_slice(&fnv1a(&body).to_le_bytes());
    image
}

/// The fixture bundle written as `version`.
fn bundle(version: u32) -> Bundle {
    let model = model();
    let mut vocab = Vocab::new();
    for i in vocab.len()..VOCAB {
        vocab.intern(&format!("w{i}"));
    }
    let ann = (version >= 2).then(|| {
        AnnIndex::read_from(&mut ann_image(model.sent_dim()).as_slice()).expect("IMRA image")
    });
    let quant = (version >= 3)
        .then(|| QuantModel::from_model(&model, Some(&embedding())).expect("quantizes"));
    Bundle {
        vocab,
        entities: (0..ENTITIES)
            .map(|i| (format!("E{i}"), vec![i % TYPES, (i + 1) % TYPES]))
            .collect(),
        relations: (0..RELATIONS).map(|r| format!("r{r}")).collect(),
        embedding: Some(embedding()),
        model,
        ann,
        quant,
    }
}

fn bundle_bytes(b: &Bundle) -> Vec<u8> {
    let mut out = Vec::new();
    write_bundle(b, &mut out).expect("writes");
    out
}

/// Every image of the fixture, in [`GOLDEN`] order.
fn images() -> Vec<Vec<u8>> {
    let model = model();
    let mut imrp = Vec::new();
    write_params(&model.store, &mut imrp).unwrap();
    let mut imrm = Vec::new();
    write_model(&model, &mut imrm).unwrap();
    let mut imrc = Vec::new();
    let at = ResumePoint {
        seed: 7,
        next_epoch: 3,
        lr: 0.125,
    };
    write_checkpoint(&model, &at, &mut imrc).unwrap();
    let mut out = vec![imrp, imrm, imrc];
    out.extend((1..=3).map(|v| bundle_bytes(&bundle(v))));
    out
}

#[test]
fn every_format_matches_its_golden_digest() {
    let got: Vec<(&str, usize, u64)> = GOLDEN
        .iter()
        .zip(images())
        .map(|((name, ..), b)| (*name, b.len(), fnv1a(&b)))
        .collect();
    for (name, len, digest) in &got {
        println!("    (\"{name}\", {len}, {digest:#018x}),");
    }
    assert_eq!(
        got, GOLDEN,
        "an image moved; the table above is what it is now"
    );
}

#[test]
fn every_image_decodes_and_reencodes_to_itself() {
    let images = images();
    let mut again = Vec::new();
    write_params(&read_params(&mut images[0].as_slice()).unwrap(), &mut again).unwrap();
    assert_eq!(again, images[0], "IMRP");
    again.clear();
    write_model(&read_model(&mut images[1].as_slice()).unwrap(), &mut again).unwrap();
    assert_eq!(again, images[1], "IMRM");
    again.clear();
    let ck = read_checkpoint(&mut images[2].as_slice()).unwrap();
    write_checkpoint(&ck.model, &ck.at, &mut again).unwrap();
    assert_eq!(again, images[2], "IMRC");
    for (v, image) in images[3..].iter().enumerate() {
        let b = read_bundle(&mut image.as_slice()).expect("bundle decodes");
        assert_eq!(&bundle_bytes(&b), image, "IMRB v{}", v + 1);
    }
}

/// Quantized scores and kNN neighbours of a few formula bags, as bits.
fn answers(b: &Bundle) -> Vec<u32> {
    let qm = b.quant.as_ref().expect("v3 carries quant");
    let ann = b.ann.as_ref().expect("v3 carries ann");
    let types: Vec<Vec<usize>> = b.entities.iter().map(|(_, t)| t.clone()).collect();
    let (mut qs, mut ks) = (QuantScratch::new(), SearchScratch::new());
    let mut out = Vec::new();
    for k in 0..4usize {
        let len = 5 + k;
        let sentence = SentenceFeatures {
            tokens: (0..len).map(|t| (3 * t + k) % VOCAB).collect(),
            head_offsets: (0..len).map(|t| 20 + t).collect(),
            tail_offsets: (0..len).map(|t| 20 + t - 1).collect(),
            head_pos: 0,
            tail_pos: 1,
        };
        let bag = PreparedBag {
            head: k,
            tail: k + 3,
            label: 0,
            sentences: vec![sentence; 1 + k % 2],
        };
        let mut scores = vec![0.0f32; RELATIONS];
        let mut repr = vec![0.0f32; qm.sent_dim()];
        qm.predict_quant_into(&bag, &types, &mut qs, &mut scores, Some(&mut repr));
        out.extend(scores.iter().map(|s| s.to_bits()));
        for nb in ann.search(&repr, 5, &mut ks) {
            out.extend([nb.id, nb.dist.to_bits()]);
        }
    }
    out
}

#[cfg(target_os = "linux")]
#[test]
fn mapped_v3_load_borrows_and_answers_like_the_stream_copy() {
    let image = bundle_bytes(&bundle(3));
    let dir = std::env::temp_dir().join(format!("imre_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.imrb");
    std::fs::write(&path, &image).unwrap();
    let mapped = load_bundle(&path).expect("mapped load");
    std::fs::remove_dir_all(&dir).ok();
    assert!(mapped.quant.as_ref().unwrap().is_borrowed(), "QNT8 copied");
    assert!(mapped.ann.as_ref().unwrap().is_borrowed(), "IMRA copied");
    let stream = read_bundle(&mut image.as_slice()).unwrap();
    assert!(!stream.quant.as_ref().unwrap().is_borrowed());
    assert_eq!(answers(&mapped), answers(&stream));
    assert_eq!(bundle_bytes(&mapped), image, "mapped bundle re-encodes");
}
