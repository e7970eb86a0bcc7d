//! Determinism properties for the streaming pipeline (DESIGN §4i):
//!
//! 1. However a delta corpus is partitioned into batches, the incremental
//!    graph is byte-identical to the single-shot build — edge weights, edge
//!    order, adjacency, counts, and catalog all match exactly.
//! 2. The published embedding is the same byte-for-byte regardless of
//!    partition and of pair-counting thread count.

use imre_corpus::stream::{DeltaBatch, LineDeltaSource, StreamSource};
use imre_corpus::synth_delta_text;
use imre_graph::LineConfig;
use imre_stream::{RefreshMode, StreamBuild, StreamBuildConfig};
use proptest::prelude::*;
use std::io::Cursor;

fn base_entities(n: usize) -> Vec<(String, Vec<usize>)> {
    (0..n).map(|i| (format!("ent{i}"), vec![i % 5])).collect()
}

fn config(threads: usize) -> StreamBuildConfig {
    StreamBuildConfig {
        threshold: 2,
        line: LineConfig {
            dim: 8,
            samples_per_epoch: 800,
            epochs: 1,
            ..Default::default()
        },
        threads,
        refresh: RefreshMode::Canonical,
    }
}

fn batches_of(text: &str) -> Vec<DeltaBatch> {
    let mut src = LineDeltaSource::new(Cursor::new(text.as_bytes().to_vec()));
    let mut out = Vec::new();
    while let Some(b) = src.next_batch().expect("synthetic text parses") {
        out.push(b);
    }
    out
}

/// Re-batches `text` (one event per line, no blanks) by inserting batch
/// boundaries after the line indices in `cuts`.
fn partition_text(text: &str, cuts: &[usize]) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        out.push_str(line);
        out.push('\n');
        if cuts.contains(&i) {
            out.push('\n');
        }
    }
    out
}

fn run_build(text: &str, n_base: usize, threads: usize) -> StreamBuild {
    let mut build = StreamBuild::new(&base_entities(n_base), 38, config(threads));
    for batch in batches_of(text) {
        build.apply_batch(batch).expect("batch applies");
    }
    build
}

type EdgeBits = Vec<(usize, usize, u32)>;

fn graph_fingerprint(build: &StreamBuild) -> (usize, EdgeBits, EdgeBits) {
    let g = build.graph();
    let edges = g
        .snapshot()
        .edges()
        .iter()
        .map(|&(u, v, w)| (u, v, w.to_bits()))
        .collect();
    let counts = g.counts().iter().map(|(&(a, b), &c)| (a, b, c)).collect();
    (g.n_vertices(), edges, counts)
}

/// Strategy: a synthetic event stream plus a random set of batch cuts.
fn corpus_and_cuts() -> impl Strategy<Value = (String, Vec<usize>, usize)> {
    (4usize..9, 8usize..28, 0u64..1000).prop_flat_map(|(n_entities, events, seed)| {
        let names: Vec<String> = (0..n_entities).map(|i| format!("ent{i}")).collect();
        let text = synth_delta_text(&names, 1, events, seed);
        let cuts = proptest::collection::vec(0..events.saturating_sub(1), 0..5);
        (Just(text), cuts, Just(n_entities))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_partition_matches_single_shot_bitwise((text, cuts, n_base) in corpus_and_cuts()) {
        let split = partition_text(&text, &cuts);

        let mut single = run_build(&text, n_base, 1);
        let mut parts = run_build(&split, n_base, 1);

        // graph: vertices, edge weights (bitwise), merged counts
        prop_assert_eq!(graph_fingerprint(&single), graph_fingerprint(&parts));
        // adjacency comes out identical too
        let gs = single.graph().snapshot();
        let gp = parts.graph().snapshot();
        for v in 0..gs.n_vertices() {
            let a: Vec<(usize, u32)> = gs.neighbors(v).iter().map(|&(u, w)| (u, w.to_bits())).collect();
            let b: Vec<(usize, u32)> = gp.neighbors(v).iter().map(|&(u, w)| (u, w.to_bits())).collect();
            prop_assert_eq!(a, b, "adjacency of vertex {}", v);
        }
        // catalog: same entities in the same order
        prop_assert_eq!(single.catalog().entries(), parts.catalog().entries());

        // canonical embedding: byte-identical across the partition
        if single.graph().n_edges() > 0 {
            let es = single.embedding().expect("single-shot embedding");
            let ep = parts.embedding().expect("partitioned embedding");
            let bits_s: Vec<u32> = es.matrix().data().iter().map(|x| x.to_bits()).collect();
            let bits_p: Vec<u32> = ep.matrix().data().iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(bits_s, bits_p);
        }
    }

    #[test]
    fn thread_count_never_changes_the_artifact((text, cuts, n_base) in corpus_and_cuts()) {
        let split = partition_text(&text, &cuts);
        let mut one = run_build(&split, n_base, 1);
        let mut four = run_build(&split, n_base, 4);
        prop_assert_eq!(graph_fingerprint(&one), graph_fingerprint(&four));
        if one.graph().n_edges() > 0 {
            let a = one.embedding().expect("threads=1 embedding");
            let b = four.embedding().expect("threads=4 embedding");
            let bits_a: Vec<u32> = a.matrix().data().iter().map(|x| x.to_bits()).collect();
            let bits_b: Vec<u32> = b.matrix().data().iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(bits_a, bits_b);
        }
    }
}
