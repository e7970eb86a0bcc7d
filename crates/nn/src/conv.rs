//! 1-D convolution over a token sequence, implemented as unfold + matmul,
//! plus the pooled form the paper's CNN/PCNN encoders use.
//!
//! [`Conv1d::forward`] yields per-token states (`[T, filters]`) out of the
//! generic tape ops. [`Conv1d::forward_pooled`] is the sentence encoder:
//! convolution, (piecewise) max pooling, bias and `tanh` as the single tape
//! op [`Tape::conv_pool_tanh`], whose backward visits only the
//! `segments × filters` cells the pooling let through. The two agree bit for
//! bit on the forward values; the unfused composition is the oracle this
//! module's tests hold the fused op to.

use crate::param::{ParamId, ParamStore};
use crate::tape::{Segment, Tape, Var};
use imre_tensor::TensorRng;

/// Same-padded 1-D convolution: input `[T, in_dim] → [T, filters]`.
///
/// Zeng et al.'s relation-extraction CNN (and the PCNN variant the paper
/// builds on) slides `filters` windows of width `window` over the token
/// sequence. We realise it as `unfold(x, window) · W + b`, which reuses the
/// matmul kernel; the unfold's fold-back gradient routine serves both
/// `Op::Unfold` and the fused encoder op.
pub struct Conv1d {
    /// Weight parameter, shape `[window * in_dim, filters]`.
    pub w: ParamId,
    /// Bias parameter, shape `[filters]`.
    pub b: ParamId,
    window: usize,
    in_dim: usize,
    filters: usize,
}

impl Conv1d {
    /// Registers a convolution layer under `name`.
    ///
    /// # Panics
    /// If `window` is even or zero.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        filters: usize,
        window: usize,
        rng: &mut TensorRng,
    ) -> Self {
        assert!(
            window % 2 == 1 && window > 0,
            "Conv1d: window must be odd and positive, got {window}"
        );
        let w = store.xavier(&format!("{name}.w"), window * in_dim, filters, rng);
        let b = store.zeros(&format!("{name}.b"), &[filters]);
        Conv1d {
            w,
            b,
            window,
            in_dim,
            filters,
        }
    }

    /// Number of filters (output channels).
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Window (kernel) width.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Applies the convolution: `[T, in_dim] → [T, filters]` per-token
    /// states (what BGWA's word attention reads).
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        let u = tape.unfold(x, self.window);
        let w = tape.param(self.w);
        let b = tape.param(self.b);
        let c = tape.matmul(u, w);
        tape.add_row_broadcast(c, b)
    }

    /// Convolution, per-segment max pooling over time, then `tanh`:
    /// `[T, in_dim] → [segments.len() · filters]` as one fused tape op.
    ///
    /// One `(0, T)` segment is the global max pooling of the plain CNN
    /// encoder (Zeng et al. 2014); the three [`pcnn_segments_array`] cuts
    /// are the piecewise pooling of PCNN (Zeng et al. 2015), which keeps the
    /// structure *before / between / after* the entity pair. Values are
    /// bit-identical to pooling and squashing [`Conv1d::forward`].
    pub fn forward_pooled(&self, tape: &mut Tape, x: Var, segments: &[Segment]) -> Var {
        tape.conv_pool_tanh(x, self.w, self.b, self.window, segments)
    }
}

/// The unfused pooling head — per-segment max over a `[T, k]` convolution
/// output, then `tanh` — out of generic tape ops: the oracle
/// [`Conv1d::forward_pooled`] is tested against.
#[cfg(test)]
pub(crate) fn piecewise_max_pool_tanh(tape: &mut Tape, conv_out: Var, segments: &[Segment]) -> Var {
    let pooled = tape.piecewise_max(conv_out, segments);
    tape.tanh(pooled)
}

/// Computes the three non-empty PCNN segments for a sequence of length `t`
/// with entity mentions at `head_pos` and `tail_pos` (either order).
/// Degenerate cuts (entity at the boundary) fall back to clamped non-empty
/// segments, matching the standard PCNN implementations.
///
/// # Panics
/// If `t == 0` or a position is out of range.
pub fn pcnn_segments(t: usize, head_pos: usize, tail_pos: usize) -> Vec<(usize, usize)> {
    pcnn_segments_array(t, head_pos, tail_pos).to_vec()
}

/// [`pcnn_segments`] without the heap allocation: the fixed three-segment
/// split as an array. The int8 inference path calls this per sentence inside
/// its zero-allocation steady state.
pub fn pcnn_segments_array(t: usize, head_pos: usize, tail_pos: usize) -> [(usize, usize); 3] {
    assert!(t > 0, "pcnn_segments: empty sequence");
    if t == 1 {
        return [(0, 1), (0, 1), (0, 1)];
    }
    let (p1, p2) = if head_pos <= tail_pos {
        (head_pos, tail_pos)
    } else {
        (tail_pos, head_pos)
    };
    assert!(
        p2 < t,
        "pcnn_segments: entity position {p2} out of range for length {t}"
    );
    // Boundary-sharing segments, each including its entity token(s), as in
    // the reference PCNN implementations: [0, p1], [p1, p2], [p2, t). Sharing
    // the entity rows keeps every segment non-empty for all positions.
    [(0, p1 + 1), (p1, p2 + 1), (p2, t)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::GradStore;
    use imre_tensor::{assert_close, Tensor};

    #[test]
    fn conv_shapes() {
        let mut rng = TensorRng::seed(1);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, "c", 5, 8, 3, &mut rng);
        let mut tape = Tape::new(&store);
        let x = tape.leaf(Tensor::rand_uniform(&[7, 5], -1.0, 1.0, &mut rng));
        let y = conv.forward(&mut tape, x);
        assert_eq!(tape.value(y).shape(), &[7, 8]);
    }

    #[test]
    fn conv_known_values_window1() {
        // window 1 degenerates to a per-position linear map — easy oracle.
        let mut rng = TensorRng::seed(2);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, "c", 2, 1, 1, &mut rng);
        store.set(conv.w, Tensor::from_vec(vec![2.0, -1.0], &[2, 1]));
        store.set(conv.b, Tensor::from_vec(vec![0.5], &[1]));
        let mut tape = Tape::new(&store);
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 1.0, 3.0, 0.0], &[2, 2]));
        let y = conv.forward(&mut tape, x);
        assert_close(tape.value(y).data(), &[1.5, 6.5], 1e-6);
    }

    #[test]
    fn conv_window3_uses_neighbours() {
        let mut rng = TensorRng::seed(3);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, "c", 1, 1, 3, &mut rng);
        // W picks only the *previous* token: weights [1, 0, 0]
        store.set(conv.w, Tensor::from_vec(vec![1.0, 0.0, 0.0], &[3, 1]));
        store.set(conv.b, Tensor::zeros(&[1]));
        let mut tape = Tape::new(&store);
        let x = tape.leaf(Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3, 1]));
        let y = conv.forward(&mut tape, x);
        // position 0 has zero-padded left neighbour
        assert_close(tape.value(y).data(), &[0.0, 10.0, 20.0], 1e-6);
    }

    #[test]
    #[should_panic(expected = "window must be odd")]
    fn even_window_panics() {
        let mut rng = TensorRng::seed(4);
        let mut store = ParamStore::new();
        let _ = Conv1d::new(&mut store, "c", 2, 2, 2, &mut rng);
    }

    #[test]
    fn pcnn_segments_cover_and_are_nonempty() {
        for t in 2..20 {
            for h in 0..t {
                for ta in 0..t {
                    let segs = pcnn_segments(t, h, ta);
                    assert_eq!(segs.len(), 3);
                    assert_eq!(segs[0].0, 0);
                    assert_eq!(segs[2].1, t);
                    let mut covered = vec![false; t];
                    for &(lo, hi) in &segs {
                        assert!(lo < hi, "empty segment {lo}..{hi} for t={t} h={h} ta={ta}");
                        assert!(hi <= t, "segment {lo}..{hi} exceeds length {t}");
                        for slot in covered[lo..hi].iter_mut() {
                            *slot = true;
                        }
                    }
                    assert!(
                        covered.iter().all(|&c| c),
                        "segments do not cover 0..{t} for h={h} ta={ta}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_pool_variants_shapes() {
        let mut rng = TensorRng::seed(5);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, "c", 3, 4, 3, &mut rng);
        let mut tape = Tape::new(&store);
        let x = tape.leaf(Tensor::rand_uniform(&[9, 3], -1.0, 1.0, &mut rng));
        let g = conv.forward_pooled(&mut tape, x, &[(0, 9)]);
        assert_eq!(tape.value(g).shape(), &[4]);
        let p = conv.forward_pooled(&mut tape, x, &pcnn_segments_array(9, 2, 6));
        assert_eq!(tape.value(p).shape(), &[12]);
    }

    #[test]
    fn conv_gradients_flow() {
        let mut rng = TensorRng::seed(6);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, "c", 3, 4, 3, &mut rng);
        let mut grads = GradStore::zeros_like(&store);
        let mut tape = Tape::new(&store);
        let x = tape.leaf(Tensor::rand_uniform(&[6, 3], -1.0, 1.0, &mut rng));
        let pooled = conv.forward_pooled(&mut tape, x, &pcnn_segments_array(6, 1, 4));
        let loss = tape.softmax_cross_entropy(pooled, 0);
        tape.backward(loss, &mut grads);
        assert!(grads.get(conv.w).norm_l2() > 0.0);
        assert!(grads.get(conv.b).norm_l2() > 0.0);
    }

    /// One sentence of an oracle-equivalence case: the input (a parameter,
    /// so `dx` lands in the grad store), its pooling segments and the
    /// dropout-style mask multiplied onto the encoder output.
    struct Sentence {
        x: ParamId,
        segments: Vec<Segment>,
        mask: Tensor,
    }

    /// Encodes every sentence on one recording tape — through the fused op
    /// or the unfused oracle composition — masks and concatenates the
    /// outputs, and backpropagates a cross-entropy loss. Returns the encoder
    /// outputs and the gradients.
    fn encode_and_backward(
        store: &ParamStore,
        conv: &Conv1d,
        sentences: &[Sentence],
        fused: bool,
    ) -> (Vec<Vec<f32>>, GradStore) {
        let mut grads = GradStore::zeros_like(store);
        let mut tape = Tape::new(store);
        let mut outs = Vec::new();
        let mut masked = Vec::new();
        for s in sentences {
            let x = tape.param(s.x);
            let y = if fused {
                conv.forward_pooled(&mut tape, x, &s.segments)
            } else {
                let c = conv.forward(&mut tape, x);
                piecewise_max_pool_tanh(&mut tape, c, &s.segments)
            };
            outs.push(tape.value(y).data().to_vec());
            let mask = tape.leaf(s.mask.clone());
            masked.push(tape.mul(y, mask));
        }
        let all = tape.concat(&masked);
        let loss = tape.softmax_cross_entropy(all, 1);
        tape.backward(loss, &mut grads);
        (outs, grads)
    }

    /// Forward values equal bit for bit; every gradient within
    /// `1e-6 · max(1, ‖oracle‖∞)`.
    fn assert_fused_matches_oracle(store: &ParamStore, conv: &Conv1d, sentences: &[Sentence]) {
        let (want_out, want) = encode_and_backward(store, conv, sentences, false);
        let (got_out, got) = encode_and_backward(store, conv, sentences, true);
        assert_eq!(want_out, got_out, "forward values must be bit-identical");
        for (id, name, _) in store.iter() {
            let (w, g) = (want.get(id), got.get(id));
            let tol = 1e-6 * w.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
            for (i, (a, b)) in w.data().iter().zip(g.data()).enumerate() {
                assert!(
                    (a - b).abs() <= tol,
                    "grad {name}[{i}]: oracle {a} vs fused {b} (tol {tol})"
                );
            }
        }
    }

    /// A 0 / 2 inverted-dropout mask (p = 0.5), all ones, or all zeros.
    fn dropout_mask(kind: usize, n: usize, rng: &mut TensorRng) -> Tensor {
        let data = (0..n).map(|_| match kind {
            0 => 1.0,
            1 if rng.bernoulli(0.5) => 2.0,
            _ => 0.0,
        });
        Tensor::from_vec(data.collect(), &[n])
    }

    #[test]
    fn fused_conv_pool_tanh_matches_unfused_oracle() {
        let mut rng = TensorRng::seed(21);
        // Odd `in_dim` / `filters` leave vector tails in every axpy; the
        // last shape is the paper's Table III.
        for (window, in_dim, filters) in [(1, 5, 7), (3, 5, 7), (5, 3, 9), (3, 60, 230)] {
            for len in [1usize, 2, 16, 24, 120] {
                if in_dim == 60 && len > 16 {
                    continue;
                }
                // entities at both ends, on one token (that row wins the
                // middle segment and competes in both others), and the
                // single segment of the plain CNN
                let cuts = [
                    pcnn_segments(len, 0, len - 1),
                    pcnn_segments(len, len / 2, len / 2),
                    pcnn_segments(len, len - 1, len / 3),
                    vec![(0, len)],
                ];
                for (case, segments) in cuts.into_iter().enumerate() {
                    let mut store = ParamStore::new();
                    let conv = Conv1d::new(&mut store, "c", in_dim, filters, window, &mut rng);
                    store.set(
                        conv.b,
                        Tensor::rand_uniform(&[filters], -0.5, 0.5, &mut rng),
                    );
                    let x = store.uniform("x", &[len, in_dim], 1.0, &mut rng);
                    let n = segments.len() * filters;
                    // ones, 0/2 (the `gz == 0` skip), all zeros
                    let mask = dropout_mask((case + len) % 3, n, &mut rng);
                    let sentence = Sentence { x, segments, mask };
                    assert_fused_matches_oracle(&store, &conv, &[sentence]);
                }
            }
        }
    }

    #[test]
    fn fused_sentences_on_one_tape_share_the_weight_gradient() {
        // Several fused nodes on one tape: one `Wᵀ`, one `dWᵀ` accumulated
        // across sentences, folded into the store once.
        let mut rng = TensorRng::seed(22);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, "c", 5, 19, 3, &mut rng);
        store.set(conv.b, Tensor::rand_uniform(&[19], -0.5, 0.5, &mut rng));
        let sentences: Vec<Sentence> = [(16usize, 3usize, 9usize), (7, 6, 0), (1, 0, 0)]
            .into_iter()
            .enumerate()
            .map(|(i, (len, head, tail))| Sentence {
                x: store.uniform(&format!("x{i}"), &[len, 5], 1.0, &mut rng),
                segments: pcnn_segments(len, head, tail),
                mask: dropout_mask(1, 3 * 19, &mut rng),
            })
            .collect();
        assert_fused_matches_oracle(&store, &conv, &sentences);
    }
}
