//! Shared fixtures of this crate's unit tests.

use crate::config::HyperParams;
use crate::features::featurize;
use crate::model::PreparedBag;
use imre_corpus::EncodedSentence;
use imre_graph::EntityEmbedding;
use imre_tensor::{Tensor, TensorRng};

/// Token-id range of [`random_bag`] — the vocabulary size test models use.
pub(crate) const VOCAB: usize = 10;

/// A seeded bag of `n` sentences, each 4 to `max_tokens` tokens over
/// [`VOCAB`], for the entity pair `(0, 1)`.
pub(crate) fn random_bag(
    n: usize,
    max_tokens: usize,
    hp: &HyperParams,
    label: usize,
    seed: u64,
) -> PreparedBag {
    let mut rng = TensorRng::seed(seed);
    let sentences = (0..n)
        .map(|_| {
            let t = 4 + rng.below(max_tokens - 3);
            let head_pos = rng.below(t);
            let tail_pos = (head_pos + 1 + rng.below(t - 1)) % t;
            let sentence = EncodedSentence {
                tokens: (0..t).map(|_| rng.below(VOCAB)).collect(),
                head_pos,
                tail_pos,
                expresses_relation: true,
            };
            featurize(&sentence, hp.max_len, hp.pos_clip)
        })
        .collect();
    PreparedBag {
        head: 0,
        tail: 1,
        label,
        sentences,
    }
}

/// Per-entity type ids for a four-entity toy world (five coarse types).
pub(crate) fn toy_types() -> Vec<Vec<usize>> {
    vec![vec![0, 2], vec![1], vec![3], vec![4, 1]]
}

/// Seeded LINE-like embeddings for the four toy entities.
pub(crate) fn toy_embedding(dim: usize) -> EntityEmbedding {
    let mut rng = TensorRng::seed(77);
    EntityEmbedding::from_matrix(Tensor::rand_uniform(&[4, dim], -1.0, 1.0, &mut rng))
}
