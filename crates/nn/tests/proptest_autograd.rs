//! Property-based gradient checks: for random shapes, seeds and targets, the
//! analytic gradients of composite graphs must match finite differences.

use imre_nn::gradcheck::check_param_gradient;
use imre_nn::{pcnn_segments, GradStore, ParamId, ParamStore, Tape};
use imre_tensor::{Tensor, TensorRng};
use proptest::prelude::*;

const TOL: f32 = 3e-2;

fn check_all(
    params: &mut ParamStore,
    loss: &dyn Fn(&ParamStore) -> f32,
    grad: &dyn Fn(&ParamStore, &mut GradStore),
) {
    let ids: Vec<ParamId> = params.iter().map(|(id, _, _)| id).collect();
    for id in ids {
        let r = check_param_gradient(params, id, 1e-2, loss, grad);
        assert!(
            r.max_rel_diff < TOL,
            "param {:?}: rel diff {}",
            id,
            r.max_rel_diff
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mlp_gradcheck(seed in 0u64..10_000, in_dim in 2usize..6, hidden in 2usize..6, classes in 2usize..5) {
        let mut rng = TensorRng::seed(seed);
        let mut params = ParamStore::new();
        let w1 = params.xavier("w1", in_dim, hidden, &mut rng);
        let b1 = params.zeros("b1", &[hidden]);
        let w2 = params.xavier("w2", hidden, classes, &mut rng);
        let x = Tensor::rand_uniform(&[1, in_dim], -1.0, 1.0, &mut rng);
        let target = (seed as usize) % classes;

        let f = move |store: &ParamStore, grads: Option<&mut GradStore>| -> f32 {
            let mut tape = Tape::new(store);
            let xv = tape.leaf(x.clone());
            let w1v = tape.param(w1);
            let b1v = tape.param(b1);
            let h = tape.matmul(xv, w1v);
            let h = tape.add_row_broadcast(h, b1v);
            let h = tape.tanh(h);
            let w2v = tape.param(w2);
            let o = tape.matmul(h, w2v);
            let flat = tape.reshape(o, &[classes]);
            let l = tape.softmax_cross_entropy(flat, target);
            let val = tape.value(l).data()[0];
            if let Some(g) = grads {
                tape.backward(l, g);
            }
            val
        };
        let loss = {
            let f = f.clone();
            move |s: &ParamStore| f(s, None)
        };
        let grad = move |s: &ParamStore, g: &mut GradStore| {
            f(s, Some(g));
        };
        check_all(&mut params, &loss, &grad);
    }

    #[test]
    fn pcnn_path_gradcheck(seed in 0u64..10_000, t in 3usize..8, d in 2usize..4, k in 2usize..4) {
        let mut rng = TensorRng::seed(seed);
        let mut params = ParamStore::new();
        let w = params.xavier("w", 3 * d, k, &mut rng);
        let x = Tensor::rand_uniform(&[t, d], -1.0, 1.0, &mut rng);
        let head = (seed as usize) % t;
        let tail = (seed as usize / 7) % t;
        let segs = pcnn_segments(t, head, tail);
        let target = (seed as usize) % (3 * k);

        let f = move |store: &ParamStore, grads: Option<&mut GradStore>| -> f32 {
            let mut tape = Tape::new(store);
            let xv = tape.leaf(x.clone());
            let u = tape.unfold(xv, 3);
            let wv = tape.param(w);
            let c = tape.matmul(u, wv);
            let pooled = tape.piecewise_max(c, &segs);
            let act = tape.tanh(pooled);
            let l = tape.softmax_cross_entropy(act, target);
            let val = tape.value(l).data()[0];
            if let Some(g) = grads {
                tape.backward(l, g);
            }
            val
        };
        let loss = {
            let f = f.clone();
            move |s: &ParamStore| f(s, None)
        };
        let grad = move |s: &ParamStore, g: &mut GradStore| {
            f(s, Some(g));
        };
        // Max-pool argmax ties can flip when a parameter is perturbed by ±h,
        // making the numeric gradient sample a different linear piece; a
        // smaller step and looser tolerance absorb near-tie cases.
        let ids: Vec<ParamId> = params.iter().map(|(id, _, _)| id).collect();
        for id in ids {
            let r = check_param_gradient(&mut params, id, 2e-3, &loss, &grad);
            prop_assert!(r.max_rel_diff < 0.08, "param {:?}: rel diff {}", id, r.max_rel_diff);
        }
    }

    #[test]
    fn conv_pool_tanh_gradcheck(
        seed in 0u64..10_000,
        t in 1usize..8,
        d in 2usize..4,
        k in 2usize..4,
        half in 0usize..3,
        cnn in 0usize..2,
    ) {
        // The fused encoder op against finite differences, for the weight,
        // the bias and the input (a parameter here, so `dx` is checked too).
        let window = 2 * half + 1;
        let mut rng = TensorRng::seed(seed);
        let mut params = ParamStore::new();
        let w = params.xavier("w", window * d, k, &mut rng);
        let b = params.uniform("b", &[k], 0.5, &mut rng);
        let x = params.uniform("x", &[t, d], 1.0, &mut rng);
        let segs = if cnn == 1 {
            vec![(0, t)]
        } else {
            pcnn_segments(t, (seed as usize) % t, (seed as usize / 7) % t)
        };
        let target = (seed as usize) % (segs.len() * k);

        let f = move |store: &ParamStore, grads: Option<&mut GradStore>| -> f32 {
            let mut tape = Tape::new(store);
            let xv = tape.param(x);
            let act = tape.conv_pool_tanh(xv, w, b, window, &segs);
            let l = tape.softmax_cross_entropy(act, target);
            let val = tape.value(l).data()[0];
            if let Some(g) = grads {
                tape.backward(l, g);
            }
            val
        };
        let loss = {
            let f = f.clone();
            move |s: &ParamStore| f(s, None)
        };
        let grad = move |s: &ParamStore, g: &mut GradStore| {
            f(s, Some(g));
        };
        // Same near-tie allowance as `pcnn_path_gradcheck`.
        for id in [w, b, x] {
            let r = check_param_gradient(&mut params, id, 2e-3, &loss, &grad);
            prop_assert!(r.max_rel_diff < 0.08, "param {:?}: rel diff {}", id, r.max_rel_diff);
        }
    }

    #[test]
    fn attention_mix_gradcheck(seed in 0u64..10_000, n in 2usize..5, k in 2usize..5) {
        let mut rng = TensorRng::seed(seed);
        let mut params = ParamStore::new();
        let mat = params.uniform("mat", &[n, k], 1.0, &mut rng);
        let q = params.uniform("q", &[k], 1.0, &mut rng);
        let alpha = params.register("alpha", Tensor::from_vec(vec![0.7], &[1]));
        let target = (seed as usize) % k;

        let f = move |store: &ParamStore, grads: Option<&mut GradStore>| -> f32 {
            let mut tape = Tape::new(store);
            let m = tape.param(mat);
            let qv = tape.param(q);
            let scores = tape.matvec(m, qv);
            let w = tape.softmax(scores);
            let agg = tape.weighted_sum_rows(m, w);
            let av = tape.param(alpha);
            let scaled = tape.scale_by_var(agg, av);
            let l = tape.softmax_cross_entropy(scaled, target);
            let val = tape.value(l).data()[0];
            if let Some(g) = grads {
                tape.backward(l, g);
            }
            val
        };
        let loss = move |s: &ParamStore| f(s, None);
        let grad = move |s: &ParamStore, g: &mut GradStore| {
            f(s, Some(g));
        };
        check_all(&mut params, &loss, &grad);
    }
}
