//! Bit-identity of pooled (buffer-recycling) tapes against fresh tapes.
//!
//! The tape's arena re-zeroes every buffer it hands out, so a warm tape —
//! one whose pool is full of recycled, previously-dirty buffers — must
//! produce **exactly** the same forward values and parameter gradients as a
//! tape allocating everything fresh, at any thread count. These properties
//! drive a PCNN-shaped graph (gather → conv → piecewise max → tanh →
//! attention → cross-entropy) through both paths and compare bits — with the
//! encoder as the generic op chain and as the fused `conv_pool_tanh` op,
//! whose backward draws `Wᵀ`, `dWᵀ` and the kept unfold from the arena.

use imre_nn::{pcnn_segments, GradStore, ParamStore, Tape};
use imre_tensor::pool::{self, ThreadPool};
use imre_tensor::{BufferPool, TensorRng};
use proptest::prelude::*;

struct Model {
    emb: imre_nn::ParamId,
    w: imre_nn::ParamId,
    b: imre_nn::ParamId,
    q: imre_nn::ParamId,
}

fn build(seed: u64, vocab: usize, d: usize, k: usize) -> (ParamStore, Model) {
    let mut rng = TensorRng::seed(seed);
    let mut params = ParamStore::new();
    let emb = params.uniform("emb", &[vocab, d], 1.0, &mut rng);
    let w = params.xavier("w", 3 * d, k, &mut rng);
    let b = params.uniform("b", &[k], 0.5, &mut rng);
    let q = params.uniform("q", &[3 * k], 1.0, &mut rng);
    (params, Model { emb, w, b, q })
}

/// One full forward pass, the encoder either `fused` into one op or spelled
/// out; returns the loss and its node so callers can run backward.
fn forward(
    tape: &mut Tape,
    m: &Model,
    tokens: &[usize],
    segs: &[(usize, usize)],
    target: usize,
    fused: bool,
) -> (f32, imre_nn::Var) {
    let x = tape.gather(m.emb, tokens);
    let act = if fused {
        tape.conv_pool_tanh(x, m.w, m.b, 3, segs)
    } else {
        let u = tape.unfold(x, 3);
        let wv = tape.param(m.w);
        let bv = tape.param(m.b);
        let c = tape.matmul(u, wv);
        let c = tape.add_row_broadcast(c, bv);
        let pooled = tape.piecewise_max(c, segs);
        tape.tanh(pooled)
    };
    // tiny attention head exercising matvec/softmax/weighted_sum_rows
    let mat = tape.stack_rows(&[act, act]);
    let qv = tape.param(m.q);
    let scores = tape.matvec(mat, qv);
    let attn = tape.softmax(scores);
    let agg = tape.weighted_sum_rows(mat, attn);
    let loss = tape.softmax_cross_entropy(agg, target);
    (tape.value(loss).data()[0], loss)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn warm_inference_tape_is_bit_identical(
        seed in 0u64..10_000,
        t in 3usize..9,
        d in 2usize..5,
        k in 2usize..5,
        threads_idx in 0usize..2,
        fused_idx in 0usize..2,
    ) {
        let threads = [1usize, 4][threads_idx];
        let fused = fused_idx == 1;
        let vocab = 11;
        let (params, model) = build(seed, vocab, d, k);
        let tokens: Vec<usize> = (0..t).map(|i| (seed as usize + 3 * i) % vocab).collect();
        let segs = pcnn_segments(t, (seed as usize) % t, (seed as usize / 5) % t);
        let target = (seed as usize) % (3 * k);

        pool::with_pool(&ThreadPool::new(threads), || {
            // The unfused chain on a fresh tape is the reference for both
            // encoders: the fused forward is bit-identical to it.
            let mut fresh = Tape::inference(&params);
            let (expect, _) = forward(&mut fresh, &model, &tokens, &segs, target, false);

            let mut warm = Tape::inference(&params);
            for _ in 0..3 {
                let (got, _) = forward(&mut warm, &model, &tokens, &segs, target, fused);
                prop_assert_eq!(expect.to_bits(), got.to_bits());
                warm.reset();
            }
            // After warm-up every pass is allocation-free.
            let base = warm.pool_stats();
            let (got, _) = forward(&mut warm, &model, &tokens, &segs, target, fused);
            prop_assert_eq!(expect.to_bits(), got.to_bits());
            let delta = warm.pool_stats().since(&base);
            prop_assert_eq!(delta.misses, 0, "warm pass allocated: {:?}", delta);
            Ok(())
        })?;
    }

    #[test]
    fn warm_training_tape_gradients_are_bit_identical(
        seed in 0u64..10_000,
        t in 3usize..8,
        d in 2usize..4,
        k in 2usize..4,
        threads_idx in 0usize..2,
        fused_idx in 0usize..2,
    ) {
        let threads = [1usize, 4][threads_idx];
        let fused = fused_idx == 1;
        let vocab = 9;
        let (params, model) = build(seed, vocab, d, k);
        let tokens: Vec<usize> = (0..t).map(|i| (seed as usize + i) % vocab).collect();
        let segs = pcnn_segments(t, (seed as usize) % t, (seed as usize / 3) % t);
        let target = (seed as usize) % (3 * k);

        pool::with_pool(&ThreadPool::new(threads), || {
            let mut expect = GradStore::zeros_like(&params);
            let mut fresh = Tape::new(&params);
            let (expect_loss, loss_var) =
                forward(&mut fresh, &model, &tokens, &segs, target, fused);
            fresh.backward(loss_var, &mut expect);

            // Thread one arena through repeated steps; every step's loss and
            // gradients must match the fresh-tape step bitwise.
            let mut arena = BufferPool::new();
            for step in 0..3 {
                let mut grads = GradStore::zeros_like(&params);
                let mut tape = Tape::with_pool(&params, arena);
                let before = tape.pool_stats();
                let (got_loss, loss_var) =
                    forward(&mut tape, &model, &tokens, &segs, target, fused);
                arena = tape.backward(loss_var, &mut grads);
                prop_assert_eq!(expect_loss.to_bits(), got_loss.to_bits());
                for (id, _, _) in params.iter() {
                    prop_assert_eq!(expect.get(id).data(), grads.get(id).data());
                }
                if step > 0 {
                    let delta = arena.stats().since(&before);
                    prop_assert_eq!(delta.misses, 0, "warm step allocated: {:?}", delta);
                }
            }
            Ok(())
        })?;
    }
}
