//! Skip-gram word-embedding pretraining (word2vec; Mikolov et al. 2013).
//!
//! The paper's stack — like every NYT-corpus relation extractor since Lin
//! et al. — initialises its word embeddings from word2vec vectors trained
//! on the raw corpus text. That pretraining is unsupervised and sees the
//! *text* of every split (labels are never used), which is what lets the
//! encoders handle entity mentions that never occur in the labelled
//! training pairs. This module is the equivalent substrate: negative-
//! sampling skip-gram over tokenised sentences, on the same SGD core as
//! LINE.

use crate::negsample::{decayed_lr, Noise};
use imre_tensor::{Tensor, TensorRng};

/// Context window radius.
const WINDOW: usize = 3;
/// Negative samples per positive pair.
const NEGATIVES: usize = 5;
/// Passes over the corpus.
const EPOCHS: usize = 5;
/// Initial learning rate (linear decay).
const LR: f32 = 0.05;
/// The fraction of [`LR`] the rate decays to.
const LR_FLOOR: f32 = 1e-3;
/// Frequent-word subsampling threshold `t` (word2vec's `-sample`): a token
/// with corpus frequency `f` is kept with probability `sqrt(t/f) + t/f`.
/// Without it, uniformly-distributed frequent words dominate the positive
/// pairs and all vectors collapse onto one direction.
const SUBSAMPLE: f32 = 1e-3;
/// RNG seed.
const SEED: u64 = 73;

/// Trains `dim`-wide skip-gram embeddings over tokenised sentences.
///
/// Returns a `[vocab_size, dim]` matrix; tokens that never occur keep small
/// random vectors. The noise distribution is the standard unigram^{3/4}.
///
/// # Panics
/// If `vocab_size == 0`, a token is outside the vocabulary, or no sentence
/// has at least two tokens.
pub fn train_skipgram(sentences: &[&[usize]], vocab_size: usize, dim: usize) -> Tensor {
    assert!(vocab_size > 0, "train_skipgram: empty vocabulary");
    let mut rng = TensorRng::seed(SEED);
    let bound = 0.5 / dim as f32;
    let mut vectors = Tensor::rand_uniform(&[vocab_size, dim], -bound, bound, &mut rng);
    let mut contexts = Tensor::zeros(&[vocab_size, dim]);

    let mut counts = vec![0.0f32; vocab_size];
    let mut total_tokens = 0usize;
    for s in sentences {
        for &t in *s {
            assert!(
                t < vocab_size,
                "train_skipgram: token {t} outside vocab of {vocab_size}"
            );
            counts[t] += 1.0;
            total_tokens += 1;
        }
    }
    assert!(
        sentences.iter().any(|s| s.len() >= 2),
        "train_skipgram: no sentence with at least two tokens"
    );
    // keep-probability per token under frequent-word subsampling
    let keep_prob: Vec<f32> = counts
        .iter()
        .map(|&c| {
            if c == 0.0 {
                return 1.0;
            }
            let f = c / total_tokens as f32;
            ((SUBSAMPLE / f).sqrt() + SUBSAMPLE / f).min(1.0)
        })
        .collect();
    let noise = Noise::new(counts, NEGATIVES);

    let total_steps = total_tokens * EPOCHS;
    let mut step = 0usize;
    let mut kept: Vec<usize> = Vec::new();
    for _ in 0..EPOCHS {
        for s in sentences {
            // subsample the sentence, then slide windows over what remains
            kept.clear();
            kept.extend(s.iter().copied().filter(|&t| rng.f32() < keep_prob[t]));
            for (center_idx, &center) in kept.iter().enumerate() {
                let lr = decayed_lr(LR, step, total_steps, LR_FLOOR);
                step += 1;
                let lo = center_idx.saturating_sub(WINDOW);
                let hi = (center_idx + WINDOW + 1).min(kept.len());
                for (ctx_idx, &ctx) in kept.iter().enumerate().take(hi).skip(lo) {
                    if ctx_idx != center_idx {
                        noise.step(&mut vectors, &mut contexts, center, ctx, lr, &mut rng);
                    }
                }
            }
        }
    }
    // Remove the shared mean direction ("all-but-the-top" postprocessing):
    // any residual common component carries no distributional information.
    let mean = vectors.mean_rows();
    for r in 0..vocab_size {
        for (v, &m) in vectors.row_mut(r).iter_mut().zip(mean.data()) {
            *v -= m;
        }
    }
    vectors
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic corpus with two topic groups: tokens 1–4 co-occur, tokens
    /// 5–8 co-occur, token 0 is background noise.
    fn topic_corpus(rng: &mut TensorRng) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for _ in 0..600 {
            let base = if rng.bernoulli(0.5) { 1 } else { 5 };
            let mut s = Vec::new();
            for _ in 0..8 {
                let t = if rng.bernoulli(0.15) {
                    0
                } else {
                    base + rng.below(4)
                };
                s.push(t);
            }
            out.push(s);
        }
        out
    }

    fn borrowed(corpus: &[Vec<usize>]) -> Vec<&[usize]> {
        corpus.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn same_topic_tokens_cluster() {
        let mut rng = TensorRng::seed(1);
        let corpus = topic_corpus(&mut rng);
        let emb = train_skipgram(&borrowed(&corpus), 9, 16);
        let vec_of = |t: usize| Tensor::from_vec(emb.row(t).to_vec(), &[16]);
        let intra = vec_of(1).cosine(&vec_of(2));
        let inter = vec_of(1).cosine(&vec_of(6));
        assert!(
            intra > inter + 0.2,
            "topic structure not learned: intra {intra} inter {inter}"
        );
    }

    #[test]
    fn shapes_and_determinism() {
        let corpus: [&[usize]; 2] = [&[0, 1, 2], &[2, 1, 0]];
        let a = train_skipgram(&corpus, 5, 8);
        let b = train_skipgram(&corpus, 5, 8);
        assert_eq!(a.shape(), &[5, 8]);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn unused_tokens_keep_small_init() {
        let corpus: [&[usize]; 2] = [&[0, 1], &[1, 0]];
        let emb = train_skipgram(&corpus, 4, 8);
        let unused_norm: f32 = emb.row(3).iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(unused_norm < 0.5, "unused token norm {unused_norm}");
    }

    #[test]
    #[should_panic(expected = "outside vocab")]
    fn oob_token_panics() {
        let _ = train_skipgram(&[&[9, 1]], 5, 32);
    }
}
