//! Both negative-sampling trainers take their dot products from
//! `imre_tensor::dot`, whose fixed 32-lane structure hides the SIMD tier,
//! and update rows with plain multiply-then-add: the scalar fallback trains
//! the same bytes as the detected tier. LINE at width 128 puts two full
//! 32-lane blocks in each order's 64-wide row; skip-gram at width 50 puts
//! one block and an 18-wide tail in every dot.

use imre_graph::{train_line, train_skipgram, LineConfig, ProximityGraph};
use imre_tensor::simd::{self, Backend};
use imre_tensor::TensorRng;

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|x| x.to_bits()).collect()
}

/// 30 vertices, each co-occurring with a few seeded partners.
fn graph() -> ProximityGraph {
    let mut rng = TensorRng::seed(5);
    let counts: Vec<((usize, usize), u32)> = (0..30usize)
        .flat_map(|a| (0..4).map(move |i| (a, i)))
        .map(|(a, _)| ((a, rng.below(30)), 2 + rng.below(20) as u32))
        .filter(|&((a, b), _)| a != b)
        .collect();
    ProximityGraph::from_counts(counts, 30, 2)
}

/// 200 sentences of 6–12 tokens over a 40-word vocabulary.
fn corpus() -> Vec<Vec<usize>> {
    let mut rng = TensorRng::seed(6);
    (0..200)
        .map(|_| (0..6 + rng.below(7)).map(|_| rng.below(40)).collect())
        .collect()
}

#[test]
fn line_and_skipgram_do_not_depend_on_the_simd_tier() {
    let graph = graph();
    let line = LineConfig {
        dim: 128,
        samples_per_epoch: 5_000,
        epochs: 1,
        ..LineConfig::default()
    };
    let corpus = corpus();
    let sentences: Vec<&[usize]> = corpus.iter().map(Vec::as_slice).collect();
    let train = || {
        (
            bits(train_line(&graph, &line).matrix().data()),
            bits(train_skipgram(&sentences, 40, 50).data()),
        )
    };
    let (line_detected, words_detected) = train();
    let (line_scalar, words_scalar) = simd::with_backend(Backend::Scalar, train);
    assert!(line_detected == line_scalar, "LINE moved with the tier");
    assert!(
        words_detected == words_scalar,
        "skip-gram moved with the tier"
    );
}
