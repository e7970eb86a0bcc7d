//! Finite-difference gradient checking.
//!
//! Used by this crate's own tests (and available to downstream crates' tests)
//! to verify that every autograd rule matches a central-difference estimate.

use crate::param::{GradStore, ParamId, ParamStore};

/// Result of a gradient check on one parameter.
#[derive(Debug)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_diff: f32,
    /// Largest relative difference (|a−n| / max(1, |a|, |n|)).
    pub max_rel_diff: f32,
}

/// Compares the analytic gradient of `loss_fn` w.r.t. parameter `id` against
/// central finite differences with step `h`.
///
/// `loss_fn` must be a pure function of the parameter store: it is called
/// repeatedly with perturbed copies. The analytic gradient is read from a
/// fresh backward pass executed by `grad_fn`.
pub fn check_param_gradient(
    params: &mut ParamStore,
    id: ParamId,
    h: f32,
    loss_fn: &dyn Fn(&ParamStore) -> f32,
    grad_fn: &dyn Fn(&ParamStore, &mut GradStore),
) -> GradCheckReport {
    // analytic
    let mut grads = GradStore::zeros_like(params);
    grad_fn(params, &mut grads);
    let analytic = grads.get(id).clone();

    // numeric (central differences)
    let n = params.get(id).len();
    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    for i in 0..n {
        let orig = params.get(id).data()[i];
        params.get_mut(id).data_mut()[i] = orig + h;
        let up = loss_fn(params);
        params.get_mut(id).data_mut()[i] = orig - h;
        let down = loss_fn(params);
        params.get_mut(id).data_mut()[i] = orig;
        let numeric = (up - down) / (2.0 * h);
        let a = analytic.data()[i];
        let abs = (a - numeric).abs();
        let rel = abs / a.abs().max(numeric.abs()).max(1.0);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
    }
    GradCheckReport {
        max_abs_diff: max_abs,
        max_rel_diff: max_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{pcnn_segments, piecewise_max_pool_tanh, Conv1d};
    use crate::gru::GruCell;
    use crate::linear::Linear;
    use crate::tape::Tape;
    use imre_tensor::{Tensor, TensorRng};

    /// Tolerance for f32 central differences through deep composite graphs.
    const TOL: f32 = 2e-2;

    fn check_all_params(
        params: &mut ParamStore,
        loss_fn: &dyn Fn(&ParamStore) -> f32,
        grad_fn: &dyn Fn(&ParamStore, &mut GradStore),
    ) {
        for i in 0..params.len() {
            let id = ParamId(i);
            let name = params.name(id).to_string();
            let report = check_param_gradient(params, id, 1e-2, loss_fn, grad_fn);
            assert!(
                report.max_rel_diff < TOL,
                "gradient mismatch on {name}: rel {} abs {}",
                report.max_rel_diff,
                report.max_abs_diff
            );
        }
    }

    #[test]
    fn linear_softmax_ce_gradcheck() {
        let mut rng = TensorRng::seed(10);
        let mut params = ParamStore::new();
        let layer = Linear::new(&mut params, "fc", 4, 3, &mut rng);
        let x = Tensor::rand_uniform(&[4], -1.0, 1.0, &mut rng);
        let (w, b) = (layer.w, layer.b);
        let x2 = x.clone();
        let loss = move |store: &ParamStore| {
            let mut tape = Tape::new(store);
            let xv = tape.leaf(x2.reshape(&[1, 4]));
            let wv = tape.param(w);
            let bv = tape.param(b);
            let h = tape.matmul(xv, wv);
            let h = tape.add_row_broadcast(h, bv);
            let h = tape.reshape(h, &[3]);
            let l = tape.softmax_cross_entropy(h, 1);
            tape.value(l).data()[0]
        };
        let x3 = x.clone();
        let grad = move |store: &ParamStore, grads: &mut GradStore| {
            let mut tape = Tape::new(store);
            let xv = tape.leaf(x3.reshape(&[1, 4]));
            let wv = tape.param(w);
            let bv = tape.param(b);
            let h = tape.matmul(xv, wv);
            let h = tape.add_row_broadcast(h, bv);
            let h = tape.reshape(h, &[3]);
            let l = tape.softmax_cross_entropy(h, 1);
            tape.backward(l, grads);
        };
        check_all_params(&mut params, &loss, &grad);
    }

    #[test]
    fn conv_pcnn_gradcheck() {
        let mut rng = TensorRng::seed(11);
        let mut params = ParamStore::new();
        let conv = Conv1d::new(&mut params, "c", 3, 2, 3, &mut rng);
        let x = Tensor::rand_uniform(&[6, 3], -1.0, 1.0, &mut rng);
        let (w, b) = (conv.w, conv.b);

        fn forward<'a>(
            store: &'a ParamStore,
            x: &Tensor,
            w: ParamId,
            b: ParamId,
        ) -> (Tape<'a>, crate::tape::Var) {
            let mut tape = Tape::new(store);
            let xv = tape.leaf(x.clone());
            let u = tape.unfold(xv, 3);
            let wv = tape.param(w);
            let bv = tape.param(b);
            let c = tape.matmul(u, wv);
            let c = tape.add_row_broadcast(c, bv);
            let pooled = piecewise_max_pool_tanh(&mut tape, c, &pcnn_segments(6, 1, 4));
            let l = tape.softmax_cross_entropy(pooled, 2);
            (tape, l)
        }
        let x1 = x.clone();
        let loss = move |store: &ParamStore| {
            let (tape, l) = forward(store, &x1, w, b);
            tape.value(l).data()[0]
        };
        let x2 = x.clone();
        let grad = move |store: &ParamStore, grads: &mut GradStore| {
            let (tape, l) = forward(store, &x2, w, b);
            tape.backward(l, grads);
        };
        check_all_params(&mut params, &loss, &grad);
    }

    #[test]
    fn gru_gradcheck() {
        let mut rng = TensorRng::seed(12);
        let mut params = ParamStore::new();
        let cell = GruCell::new(&mut params, "g", 2, 3, &mut rng);
        let x = Tensor::rand_uniform(&[4, 2], -1.0, 1.0, &mut rng);

        let cell_loss = {
            let x = x.clone();
            let cell = &cell;
            move |store: &ParamStore| {
                let mut tape = Tape::new(store);
                let xs = tape.leaf(x.clone());
                let hs = cell.run(&mut tape, xs);
                let pooled = tape.piecewise_max(hs, &[(0, 4)]);
                let l = tape.softmax_cross_entropy(pooled, 0);
                tape.value(l).data()[0]
            }
        };
        let cell_grad = {
            let x = x.clone();
            let cell = &cell;
            move |store: &ParamStore, grads: &mut GradStore| {
                let mut tape = Tape::new(store);
                let xs = tape.leaf(x.clone());
                let hs = cell.run(&mut tape, xs);
                let pooled = tape.piecewise_max(hs, &[(0, 4)]);
                let l = tape.softmax_cross_entropy(pooled, 0);
                tape.backward(l, grads);
            }
        };
        check_all_params(&mut params, &cell_loss, &cell_grad);
    }

    #[test]
    fn embedding_gather_gradcheck() {
        let mut rng = TensorRng::seed(13);
        let mut params = ParamStore::new();
        let emb = params.uniform("emb", &[6, 3], 0.5, &mut rng);
        let idx = vec![0usize, 2, 2, 5];

        let loss = {
            let idx = idx.clone();
            move |store: &ParamStore| {
                let mut tape = Tape::new(store);
                let rows = tape.gather(emb, &idx);
                let pooled = tape.mean_rows(rows);
                let t = tape.tanh(pooled);
                let l = tape.softmax_cross_entropy(t, 1);
                tape.value(l).data()[0]
            }
        };
        let grad = {
            let idx = idx.clone();
            move |store: &ParamStore, grads: &mut GradStore| {
                let mut tape = Tape::new(store);
                let rows = tape.gather(emb, &idx);
                let pooled = tape.mean_rows(rows);
                let t = tape.tanh(pooled);
                let l = tape.softmax_cross_entropy(t, 1);
                tape.backward(l, grads);
            }
        };
        let report = check_param_gradient(&mut params, emb, 1e-2, &loss, &grad);
        assert!(
            report.max_rel_diff < TOL,
            "emb gradcheck rel {}",
            report.max_rel_diff
        );
    }

    #[test]
    fn attention_primitives_gradcheck() {
        // weighted_sum_rows + matvec + softmax composite (the selective
        // attention datapath) against finite differences.
        let mut rng = TensorRng::seed(14);
        let mut params = ParamStore::new();
        let mat = params.uniform("mat", &[4, 3], 1.0, &mut rng);
        let query = params.uniform("query", &[3], 1.0, &mut rng);

        fn forward<'a>(
            store: &'a ParamStore,
            mat: ParamId,
            query: ParamId,
        ) -> (Tape<'a>, crate::tape::Var) {
            let mut tape = Tape::new(store);
            let m = tape.param(mat);
            let q = tape.param(query);
            let scores = tape.matvec(m, q);
            let alpha = tape.softmax(scores);
            let agg = tape.weighted_sum_rows(m, alpha);
            let l = tape.softmax_cross_entropy(agg, 2);
            (tape, l)
        }
        let loss = move |store: &ParamStore| {
            let (tape, l) = forward(store, mat, query);
            tape.value(l).data()[0]
        };
        let grad = move |store: &ParamStore, grads: &mut GradStore| {
            let (tape, l) = forward(store, mat, query);
            tape.backward(l, grads);
        };
        check_all_params(&mut params, &loss, &grad);
    }
}
