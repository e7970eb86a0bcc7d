//! Nearest-neighbour queries over entity embeddings (paper Table V / Fig 8).

use crate::line::EntityEmbedding;
use imre_tensor::Tensor;

/// The `k` entities nearest to `query` by cosine similarity, excluding the
/// query itself, ordered most-similar first.
pub fn nearest(emb: &EntityEmbedding, query: usize, k: usize) -> Vec<(usize, f32)> {
    let q = emb.vector(query);
    let q_norm = norm_l2(q);
    let mut scored: Vec<(usize, f32)> = (0..emb.len())
        .filter(|&v| v != query)
        .map(|v| (v, cosine(q, q_norm, emb.vector(v))))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite cosine"));
    scored.truncate(k);
    scored
}

/// The `k` *pairs* whose mutual-relation vectors `U_t − U_h` are nearest to
/// the query pair's, by cosine — the paper's notion that analogous pairs
/// (e.g. two (university, city) pairs under `located_in`) have similar
/// implicit mutual relations.
pub fn nearest_pairs(
    emb: &EntityEmbedding,
    query: (usize, usize),
    candidates: &[(usize, usize)],
    k: usize,
) -> Vec<((usize, usize), f32)> {
    let qmr = emb.mutual_relation(query.0, query.1);
    let q_norm = norm_l2(qmr.data());
    let mut mr = Tensor::zeros(&[emb.dim()]);
    let mut scored: Vec<((usize, usize), f32)> = candidates
        .iter()
        .filter(|&&p| p != query)
        .map(|&p| {
            emb.mutual_relation_into(p.0, p.1, &mut mr);
            (p, cosine(qmr.data(), q_norm, mr.data()))
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite cosine"));
    scored.truncate(k);
    scored
}

/// [`Tensor::cosine`] of `q` (whose norm is `q_norm`) and `v`, on slices:
/// the same sums in the same order, so the same bits.
fn cosine(q: &[f32], q_norm: f32, v: &[f32]) -> f32 {
    let d: f32 = q.iter().zip(v).map(|(&a, &b)| a * b).sum();
    let n = q_norm * norm_l2(v);
    if n == 0.0 {
        0.0
    } else {
        d / n
    }
}

/// [`Tensor::norm_l2`] on a slice.
fn norm_l2(v: &[f32]) -> f32 {
    v.iter().map(|&x| x * x).sum::<f32>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb() -> EntityEmbedding {
        // 4 entities in 2-D: 0 and 1 point the same way, 2 is orthogonal,
        // 3 is opposite to 0.
        EntityEmbedding::from_matrix(Tensor::from_vec(
            vec![
                1.0, 0.0, //
                0.9, 0.1, //
                0.0, 1.0, //
                -1.0, 0.0,
            ],
            &[4, 2],
        ))
    }

    #[test]
    fn nearest_orders_by_cosine() {
        let result = nearest(&emb(), 0, 3);
        let order: Vec<usize> = result.iter().map(|&(v, _)| v).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(result[0].1 > 0.98);
        assert!(result[2].1 < -0.9);
    }

    #[test]
    fn nearest_excludes_query_and_truncates() {
        let result = nearest(&emb(), 2, 2);
        assert_eq!(result.len(), 2);
        assert!(result.iter().all(|&(v, _)| v != 2));
    }

    #[test]
    fn nearest_pairs_prefers_parallel_offsets() {
        // Pairs (0,1) and (2,3) vs a pair with a different offset direction.
        let m = Tensor::from_vec(
            vec![
                0.0, 0.0, //
                1.0, 0.0, // offset (1,0)
                5.0, 5.0, //
                6.0, 5.0, // offset (1,0) — analogous
                0.0, 9.0, //
                0.0, 10.0, // offset (0,1) — different relation
            ],
            &[6, 2],
        );
        let emb = EntityEmbedding::from_matrix(m);
        let result = nearest_pairs(&emb, (0, 1), &[(2, 3), (4, 5)], 2);
        assert_eq!(result[0].0, (2, 3));
        assert!(result[0].1 > result[1].1);
    }

    #[test]
    fn slice_cosine_matches_tensor_cosine_bit_for_bit() {
        let mut rng = imre_tensor::TensorRng::seed(17);
        let mut m = Tensor::rand_uniform(&[40, 24], -1.0, 1.0, &mut rng);
        m.data_mut()[5 * 24..6 * 24].fill(0.0); // a zero row takes the 0 branch
        let emb = EntityEmbedding::from_matrix(m);
        let row = |v: usize| Tensor::from_vec(emb.vector(v).to_vec(), &[24]);
        for query in [0, 5, 39] {
            for (v, score) in nearest(&emb, query, emb.len()) {
                assert_eq!(score.to_bits(), row(query).cosine(&row(v)).to_bits());
            }
        }
        let pairs: Vec<(usize, usize)> = (0..40).map(|i| (i, (i * 7 + 3) % 40)).collect();
        let query = (1, 2);
        let qmr = emb.mutual_relation(query.0, query.1);
        for (p, score) in nearest_pairs(&emb, query, &pairs, pairs.len()) {
            let old = qmr.cosine(&emb.mutual_relation(p.0, p.1));
            assert_eq!(score.to_bits(), old.to_bits(), "pair {p:?}");
        }
    }
}
