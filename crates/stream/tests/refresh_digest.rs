//! Golden digests of the embedding refresh: `train_line` on a fixed
//! proximity graph, and the embedding a `StreamBuild` computes under
//! `RefreshMode::Canonical` after a fixed delta stream whose names are
//! mostly cold-start entities (admitted mid-stream, absent from the base
//! catalog).
//!
//! Each table is pinned as `(length, FNV-1a 64)` of its f32 values, little
//! endian, so any change to LINE's RNG draw order, update sequence or
//! finish, or to what the ingest core hands it, fails here.
//!
//! Like `tests/trained_digests.rs`, these bytes go through the platform
//! libm (`exp` in the sigmoid, `ln` in the edge weights, `powf` in the
//! noise table): the table was recorded on x86-64 Linux with glibc 2.36,
//! and another libm may move it with no code change. A change that moves
//! these bytes on purpose updates the table in the same diff.

use imre_corpus::stream::{LineDeltaSource, StreamSource};
use imre_corpus::synth_delta_text;
use imre_graph::{train_line, EntityEmbedding, LineConfig, ProximityGraph};
use imre_stream::{RefreshMode, StreamBuild, StreamBuildConfig};
use imre_tensor::bytes::Fnv1a;
use std::io::Cursor;

/// `(length, FNV-1a 64)` of `train_line` on [`graph`].
const TRAIN_LINE: (usize, u64) = (288, 0x2410_954d_62cf_635c);
/// `(length, FNV-1a 64)` of the canonical refresh after [`delta_text`].
const CANONICAL_REFRESH: (usize, u64) = (384, 0x30de_706b_2c2c_179e);

fn line_config() -> LineConfig {
    LineConfig {
        dim: 8,
        samples_per_epoch: 2_000,
        epochs: 2,
        ..Default::default()
    }
}

fn digest(emb: &EntityEmbedding) -> (usize, u64) {
    let bytes: Vec<u8> = emb
        .matrix()
        .data()
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .collect();
    (bytes.len(), Fnv1a::digest(&bytes))
}

/// Nine vertices: a dense clique on 0..5, a chain on 5..8, and isolated 8.
fn graph() -> ProximityGraph {
    let mut counts = Vec::new();
    for a in 0..5usize {
        for b in (a + 1)..5 {
            counts.push(((a, b), 4 + (a * b) as u32));
        }
    }
    counts.extend([((4, 5), 3), ((5, 6), 7), ((6, 7), 2), ((2, 7), 1)]);
    ProximityGraph::from_counts(counts, 9, 2)
}

/// Four base entities and eight cold-start names, six batches of twelve.
fn delta_text() -> String {
    let names: Vec<String> = (0..4)
        .map(|i| format!("ent{i}"))
        .chain((0..8).map(|i| format!("nova{i}")))
        .collect();
    synth_delta_text(&names, 6, 12, 11)
}

#[test]
fn train_line_digest_is_pinned() {
    assert_eq!(digest(&train_line(&graph(), &line_config())), TRAIN_LINE);
}

#[test]
fn canonical_refresh_digest_is_pinned() {
    let base: Vec<(String, Vec<usize>)> = (0..4).map(|i| (format!("ent{i}"), vec![i])).collect();
    let config = StreamBuildConfig {
        threshold: 2,
        line: line_config(),
        threads: 2,
        refresh: RefreshMode::Canonical,
    };
    let mut build = StreamBuild::new(&base, 38, config);
    let mut source = LineDeltaSource::new(Cursor::new(delta_text().into_bytes()));
    while let Some(batch) = source.next_batch().expect("synthetic text parses") {
        build.apply_batch(batch).expect("batch applies");
    }
    assert_eq!(build.catalog().admitted(), 8);
    let emb = build.embedding().expect("edges were admitted");
    assert_eq!(digest(&emb), CANONICAL_REFRESH);
}
