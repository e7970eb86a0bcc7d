//! Deterministic approximate-nearest-neighbor search for serve-time kNN
//! interpolation (ROADMAP item 3).
//!
//! The paper's implicit-mutual-relation signal helps exactly where distant
//! supervision is thinnest — long-tail entity pairs. *Nearest Neighbor
//! Relation Extraction* (Wan et al., 2022) shows the complementary
//! inference-time move: retrieve the K nearest **training** bags in
//! representation space and interpolate their label distribution with the
//! model's own scores,
//!
//! ```text
//! P(r) = (1 − λ) · softmax(logits)_r + λ · knn_r
//! knn_r = |{neighbors with label r}| / K
//! ```
//!
//! This crate provides the index: a std-only HNSW ([`AnnIndex`]) over the
//! pooled bag representations produced by `ReModel::predict_repr`, built
//! once at training time and shipped inside the `.imrb` bundle.
//!
//! # Determinism contract
//!
//! Index construction is a pure function of `(vectors, labels, config)`:
//!
//! - every node's top layer is derived from `(seed, id)` through
//!   [`imre_tensor::mix64`] (SplitMix64) — no global RNG, no
//!   insertion-time state;
//! - nodes are inserted in ascending id order on a single thread;
//! - every distance is [`imre_tensor::l2sq`]: 32 stride-32 partial sums
//!   of `(a−b)²`, a fixed reduction tree, then the tail in order — a lane
//!   structure that never widens with the hardware, so the scalar, AVX2 and
//!   AVX-512 tiers produce the same bits;
//! - every ordering decision (candidate pops, neighbor selection, overflow
//!   pruning, result ranking) compares packed `(distance_bits, id)` keys,
//!   so ties break by id, never by heap accident.
//!
//! Two builds from the same inputs are byte-identical after serialization,
//! regardless of `--threads` (the compute pool is simply not consulted) and
//! of the SIMD tier (`IMRE_FORCE_SCALAR=1` included). Searches are likewise
//! deterministic: same index + query + k → same neighbor slice, bit for bit.
//!
//! # Allocation contract
//!
//! [`AnnIndex::search`] performs **zero heap allocations** once its
//! [`SearchScratch`] is warm: the visited-epoch table, both heaps, and the
//! output buffer are owned by the scratch and retain capacity across
//! queries. The serve engine keeps one scratch per worker next to its
//! buffer-pool arena (DESIGN.md §4e/§4g).

#![deny(missing_docs)]
// Unsafe is denied, not forbidden: the one sanctioned exception is the
// zero-copy vector storage (`hnsw::VecStorage::Borrowed`) that lets a v3
// bundle's memory-mapped vectors back an index without a copy. Each use
// site carries an `allow` plus a SAFETY comment; everything else is safe.
#![deny(unsafe_code)]

mod hnsw;
mod serialize;

pub use hnsw::{exact_knn, AnnError, AnnIndex, HnswConfig, Neighbor, SearchScratch};
pub use serialize::{ANN_ALIGNED_VERSION, ANN_MAGIC, ANN_SECTION_ALIGN, ANN_VERSION};

/// Blends a model score vector with a kNN label distribution in place:
/// `s_r ← (1 − λ)·s_r + λ·votes_r`.
///
/// `lambda == 0` is an exact no-op (the slice is untouched, preserving
/// bit-identity with the pure model path); callers on the serve hot path
/// skip the kNN query entirely in that case.
pub fn blend_scores(scores: &mut [f32], votes: &[f32], lambda: f32) {
    if lambda == 0.0 {
        return;
    }
    debug_assert_eq!(scores.len(), votes.len());
    for (s, &v) in scores.iter_mut().zip(votes) {
        *s = (1.0 - lambda) * *s + lambda * v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blend_lambda_zero_is_identity() {
        let orig = [0.125f32, 0.5, 0.375];
        let mut scores = orig;
        blend_scores(&mut scores, &[1.0, 0.0, 0.0], 0.0);
        assert_eq!(scores.map(f32::to_bits), orig.map(f32::to_bits));
    }

    #[test]
    fn blend_lambda_one_is_votes() {
        let mut scores = [0.2f32, 0.3, 0.5];
        blend_scores(&mut scores, &[0.0, 0.75, 0.25], 1.0);
        assert_eq!(scores, [0.0, 0.75, 0.25]);
    }

    #[test]
    fn blend_mixes_linearly() {
        let mut scores = [1.0f32, 0.0];
        blend_scores(&mut scores, &[0.0, 1.0], 0.25);
        assert!((scores[0] - 0.75).abs() < 1e-6);
        assert!((scores[1] - 0.25).abs() < 1e-6);
    }
}
