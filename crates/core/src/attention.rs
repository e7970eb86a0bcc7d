//! Bag aggregation (paper §III-C step 3).
//!
//! The selective attention of Lin et al. (2016) scores each sentence in a
//! bag against a relation query through a bilinear form with diagonal `A`:
//!
//! ```text
//! q_j = x_j A r        α_j = softmax(q)_j        X_bag = Σ_j α_j x_j
//! ```
//!
//! Since `A` is diagonal, `x_j A r = x_j · (a ⊙ r)`, which maps onto the
//! tape's `mul` + `matvec` ops. Models without attention aggregate by mean
//! (every sentence weighted equally — no noise mitigation, which is exactly
//! why plain PCNN trails PCNN+ATT in the paper's Table IV).
//!
//! Training queries the attention once, with the bag's label
//! ([`SelectiveAttention::aggregate`]). Held-out scoring queries it once per
//! candidate relation and keeps each query's own softmax score; because the
//! relation head is linear, `W·(Σ_j α_j x_j) = Σ_j α_j (W·x_j)`, so
//! [`SelectiveAttention::held_out_scores`] projects every *sentence* through
//! the head once and mixes the projections, instead of building and
//! projecting one bag vector per *relation*.

use imre_nn::{Linear, ParamId, ParamStore, Tape, Var};
use imre_tensor::{matmul_into, matmul_nt_into, softmax_in_place, Tensor, TensorRng};

/// How a bag of sentence encodings becomes one bag vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Unweighted mean over sentences.
    Mean,
    /// Selective attention queried by relation.
    Att,
}

/// Learned selective-attention parameters.
///
/// Two consumers: training aggregates a bag for its one labelled relation
/// ([`SelectiveAttention::aggregate`], recorded on the tape for backward);
/// evaluation scores all relations at once
/// ([`SelectiveAttention::held_out_scores`], forward only).
pub struct SelectiveAttention {
    /// Diagonal of the bilinear matrix `A`, shape `[dim]`.
    a_diag: ParamId,
    /// Relation query vectors, shape `[num_relations, dim]`.
    queries: ParamId,
}

impl SelectiveAttention {
    /// Registers attention parameters under `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        num_relations: usize,
        rng: &mut TensorRng,
    ) -> Self {
        // A starts at identity so early training behaves like dot-product
        // attention; queries start small-random.
        let a_diag = store.register(&format!("{name}.a_diag"), imre_tensor::Tensor::ones(&[dim]));
        let queries = store.uniform(&format!("{name}.queries"), &[num_relations, dim], 0.1, rng);
        SelectiveAttention { a_diag, queries }
    }

    /// Attention scores `α` for a `[n, dim]` bag queried by `relation`.
    pub fn weights(&self, tape: &mut Tape, xs: Var, relation: usize) -> Var {
        let a = tape.param(self.a_diag);
        let q2 = tape.gather(self.queries, &[relation]);
        let q = tape.reshape(q2, &[tape_cols(tape, xs)]);
        let ar = tape.mul(a, q);
        let scores = tape.matvec(xs, ar);
        tape.softmax(scores)
    }

    /// Aggregates a `[n, dim]` bag into a rank-1 bag vector using the
    /// attention distribution for `relation`.
    pub fn aggregate(&self, tape: &mut Tape, xs: Var, relation: usize) -> Var {
        let alpha = self.weights(tape, xs, relation);
        tape.weighted_sum_rows(xs, alpha)
    }

    /// The attention distribution of **every** relation over a `[n, dim]`
    /// bag, as a pooled `[R, n]` tensor (row `r` is what
    /// [`SelectiveAttention::weights`] returns for relation `r`):
    /// `softmax_rows(Q · (xs ⊙ a)ᵀ)`. A single-sentence bag yields rows that
    /// are exactly `1.0`.
    fn weights_all(&self, tape: &mut Tape, xs: Var) -> Tensor {
        let (a, q) = (tape.param(self.a_diag), tape.param(self.queries));
        let (n, dim) = (tape.value(xs).rows(), tape.value(xs).cols());
        let num_relations = tape.value(q).rows();
        let mut xa = tape.alloc(&[n, dim]);
        let mut att = tape.alloc(&[num_relations, n]);
        tape.value(xs)
            .mul_row_broadcast_into(tape.value(a), &mut xa);
        matmul_nt_into(
            tape.value(q).data(),
            xa.data(),
            att.data_mut(),
            num_relations,
            dim,
            n,
        );
        tape.recycle(xa);
        for row in att.data_mut().chunks_mut(n) {
            softmax_in_place(row);
        }
        att
    }

    /// Lin et al.'s held-out protocol in one pass: `out[r]` is the
    /// probability relation `r` receives from `head` when the bag is
    /// aggregated with relation `r`'s own attention query. Every relation is
    /// scored from the stacked sentence matrix `xs` (`[n, dim]`) by
    /// projecting each sentence through `head` once (`H = xs·W`) and mixing
    /// the projections (`L = A·H + b`) — `O(n·dim·R)` where one bag vector
    /// per relation costs `O(R·dim·R)`. With `n = 1` every attention row is
    /// `1.0`, so all `R` logit rows equal `x·W + b`.
    ///
    /// Forward only: the intermediates are pooled buffers handed back to the
    /// tape's arena, not tape nodes, and nothing is recorded for backward.
    pub fn held_out_scores(&self, tape: &mut Tape, xs: Var, head: &Linear, out: &mut [f32]) {
        let att = self.weights_all(tape, xs);
        let (w, b) = (tape.param(head.w), tape.param(head.b));
        let (n, dim) = (tape.value(xs).rows(), tape.value(xs).cols());
        let num_relations = out.len();
        let mut proj = tape.alloc(&[n, num_relations]);
        let mut logits = tape.alloc(&[num_relations, num_relations]);
        matmul_into(
            tape.value(xs).data(),
            tape.value(w).data(),
            proj.data_mut(),
            n,
            dim,
            num_relations,
        );
        diagonal_scores(
            att.data(),
            proj.data(),
            tape.value(b).data(),
            logits.data_mut(),
            out,
        );
        for t in [att, proj, logits] {
            tape.recycle(t);
        }
    }
}

/// `logits[r, :] = Σ_j att[r, j] · proj[j, :] + bias` for `att: [R, n]`
/// attention rows and `proj: [n, R]` per-sentence head projections (bias not
/// yet added). `logits` is `[R, R]` and fully overwritten.
fn mix_logits(att: &[f32], proj: &[f32], bias: &[f32], logits: &mut [f32]) {
    let num_relations = bias.len();
    let n = att.len() / num_relations;
    logits.fill(0.0);
    matmul_into(att, proj, logits, num_relations, n, num_relations);
    for row in logits.chunks_mut(num_relations) {
        for (l, &b) in row.iter_mut().zip(bias) {
            *l += b;
        }
    }
}

/// The tail of held-out scoring, shared by the f32 and int8 forwards: mix
/// the per-sentence head projections by each relation's attention row, add
/// the head bias, softmax each relation's logit row and keep its own entry —
/// `out[r] = softmax(att[r, :]·proj + bias)[r]`. `logits` is `[R, R]`
/// scratch.
pub(crate) fn diagonal_scores(
    att: &[f32],
    proj: &[f32],
    bias: &[f32],
    logits: &mut [f32],
    out: &mut [f32],
) {
    mix_logits(att, proj, bias, logits);
    let rows = logits.chunks_mut(bias.len());
    for (r, (row, score)) in rows.zip(out.iter_mut()).enumerate() {
        softmax_in_place(row);
        *score = row[r];
    }
}

/// Mean aggregation of a `[n, dim]` bag.
pub fn mean_aggregate(tape: &mut Tape, xs: Var) -> Var {
    tape.mean_rows(xs)
}

fn tape_cols(tape: &Tape, v: Var) -> usize {
    tape.value(v).cols()
}

/// Word-level attention (BGWA, Jat et al. 2018): scores each token state
/// through a small MLP and pools tokens by the resulting distribution.
pub struct WordAttention {
    w: ParamId,
    v: ParamId,
}

impl WordAttention {
    /// Registers word-attention parameters for `token_dim`-wide states.
    pub fn new(store: &mut ParamStore, name: &str, token_dim: usize, rng: &mut TensorRng) -> Self {
        let w = store.xavier(&format!("{name}.w"), token_dim, token_dim, rng);
        let v = store.uniform(&format!("{name}.v"), &[token_dim], 0.1, rng);
        WordAttention { w, v }
    }

    /// Pools `[T, token_dim]` token states into a rank-1 sentence vector:
    /// `β_t = softmax(v · tanh(W h_t))`, output `Σ_t β_t h_t`.
    pub fn pool(&self, tape: &mut Tape, states: Var) -> Var {
        let w = tape.param(self.w);
        let proj = tape.matmul(states, w);
        let act = tape.tanh(proj);
        let v = tape.param(self.v);
        let scores = tape.matvec(act, v);
        let beta = tape.softmax(scores);
        tape.weighted_sum_rows(states, beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imre_nn::GradStore;

    #[test]
    fn attention_weights_sum_to_one() {
        let mut rng = TensorRng::seed(1);
        let mut store = ParamStore::new();
        let att = SelectiveAttention::new(&mut store, "att", 4, 3, &mut rng);
        let mut tape = Tape::new(&store);
        let xs = tape.leaf(Tensor::rand_uniform(&[5, 4], -1.0, 1.0, &mut rng));
        let alpha = att.weights(&mut tape, xs, 1);
        let sum: f32 = tape.value(alpha).data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert_eq!(tape.value(alpha).len(), 5);
    }

    #[test]
    fn attention_prefers_aligned_sentence() {
        // With identity A, the sentence most aligned with the query gets
        // the largest weight.
        let mut rng = TensorRng::seed(2);
        let mut store = ParamStore::new();
        let att = SelectiveAttention::new(&mut store, "att", 2, 1, &mut rng);
        store.set(
            store.find("att.queries").unwrap(),
            Tensor::from_vec(vec![1.0, 0.0], &[1, 2]),
        );
        let mut tape = Tape::new(&store);
        let xs = tape.leaf(Tensor::from_vec(
            vec![
                0.0, 1.0, // orthogonal to query
                3.0, 0.0, // aligned
                1.0, 1.0,
            ],
            &[3, 2],
        ));
        let alpha = att.weights(&mut tape, xs, 0);
        let w = tape.value(alpha).data();
        assert!(w[1] > w[0] && w[1] > w[2], "weights {w:?}");
    }

    #[test]
    fn aggregate_is_convex_combination() {
        let mut rng = TensorRng::seed(3);
        let mut store = ParamStore::new();
        let att = SelectiveAttention::new(&mut store, "att", 3, 2, &mut rng);
        let mut tape = Tape::new(&store);
        let rows = Tensor::from_vec(vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0], &[2, 3]);
        let xs = tape.leaf(rows);
        let agg = att.aggregate(&mut tape, xs, 0);
        for &v in tape.value(agg).data() {
            assert!((1.0..=2.0).contains(&v), "aggregate {v} outside hull");
        }
    }

    /// n = 1: softmax over one sentence is exactly `1.0` under every query,
    /// so every relation mixes the same projection row and all `R` logit
    /// rows carry the same bits.
    #[test]
    fn single_sentence_bag_degenerates_exactly() {
        for (dim, num_relations) in [(48, 7), (690, 53)] {
            let mut rng = TensorRng::seed(6);
            let mut store = ParamStore::new();
            let att = SelectiveAttention::new(&mut store, "att", dim, num_relations, &mut rng);
            let head = Linear::new(&mut store, "re_head", dim, num_relations, &mut rng);
            store.set(
                head.b,
                Tensor::rand_uniform(&[num_relations], -1.0, 1.0, &mut rng),
            );
            let mut tape = Tape::inference(&store);
            let xs = tape.leaf(Tensor::rand_uniform(&[1, dim], -1.0, 1.0, &mut rng));
            let alpha = att.weights_all(&mut tape, xs);
            assert_eq!(alpha.shape(), [num_relations, 1]);
            assert!(alpha.data().iter().all(|&w| w == 1.0));

            let proj = tape.value(xs).matmul(store.get(head.w));
            let mut logits = vec![f32::NAN; num_relations * num_relations];
            mix_logits(
                alpha.data(),
                proj.data(),
                store.get(head.b).data(),
                &mut logits,
            );
            let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let first = bits(&logits[..num_relations]);
            for row in logits.chunks(num_relations) {
                assert_eq!(bits(row), first);
            }
        }
    }

    #[test]
    fn mean_aggregate_matches_manual() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let xs = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let m = mean_aggregate(&mut tape, xs);
        assert_eq!(tape.value(m).data(), &[2.0, 3.0]);
    }

    #[test]
    fn word_attention_pools_to_token_dim() {
        let mut rng = TensorRng::seed(4);
        let mut store = ParamStore::new();
        let wa = WordAttention::new(&mut store, "wa", 6, &mut rng);
        let mut tape = Tape::new(&store);
        let states = tape.leaf(Tensor::rand_uniform(&[9, 6], -1.0, 1.0, &mut rng));
        let pooled = wa.pool(&mut tape, states);
        assert_eq!(tape.value(pooled).len(), 6);
    }

    #[test]
    fn gradients_flow_through_attention() {
        let mut rng = TensorRng::seed(5);
        let mut store = ParamStore::new();
        let att = SelectiveAttention::new(&mut store, "att", 4, 3, &mut rng);
        let mut grads = GradStore::zeros_like(&store);
        let mut tape = Tape::new(&store);
        let xs = tape.leaf(Tensor::rand_uniform(&[3, 4], -1.0, 1.0, &mut rng));
        let agg = att.aggregate(&mut tape, xs, 2);
        let loss = tape.softmax_cross_entropy(agg, 0);
        tape.backward(loss, &mut grads);
        assert!(grads.get(store.find("att.a_diag").unwrap()).norm_l2() > 0.0);
        let qg = grads.get(store.find("att.queries").unwrap());
        assert!(
            qg.row(2).iter().any(|&x| x != 0.0),
            "queried relation row must update"
        );
        assert!(
            qg.row(0).iter().all(|&x| x == 0.0),
            "unqueried rows must not update"
        );
    }
}
