//! The optimizer: plain SGD, as the paper trains every system (lr 0.3,
//! per-epoch decay, global-norm clipping).

use crate::param::{GradStore, ParamStore};

/// Stochastic gradient descent with optional gradient clipping and
/// multiplicative learning-rate decay.
pub struct Sgd {
    /// Current learning rate.
    pub lr: f32,
    /// Global-norm clip threshold (`None` disables).
    pub clip_norm: Option<f32>,
}

impl Sgd {
    /// SGD with the given learning rate, no clipping.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            clip_norm: None,
        }
    }

    /// Builder: sets global-norm gradient clipping.
    pub fn with_clip_norm(mut self, c: f32) -> Self {
        self.clip_norm = Some(c);
        self
    }

    /// Applies one update, `θ ← θ − lr · g`, then zeroes the grads. Only
    /// the rows `grads` recorded as written are visited (the rest of `g` is
    /// exactly zero), so the step costs what the mini-batch touched.
    pub fn step(&self, params: &mut ParamStore, grads: &mut GradStore) {
        if let Some(c) = self.clip_norm {
            let n = grads.global_norm();
            if n > c && n > 0.0 {
                grads.scale(c / n);
            }
        }
        for i in 0..params.len() {
            let id = crate::param::ParamId(i);
            let p = params.get_mut(id).data_mut();
            grads.for_each_span(id, |at, g| {
                imre_tensor::axpy(&mut p[at..at + g.len()], -self.lr, g)
            });
        }
        grads.zero();
    }

    /// Multiplies the learning rate by `factor` (epoch-level decay).
    pub fn decay_lr(&mut self, factor: f32) {
        self.lr *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{GradStore, ParamStore};
    use crate::tape::Tape;
    use imre_tensor::Tensor;

    fn quadratic_loss_grad(
        params: &ParamStore,
        grads: &mut GradStore,
        id: crate::param::ParamId,
    ) -> f32 {
        // loss = Σ x² via tape: softmax CE won't do; just compute grad = 2x manually
        let x = params.get(id).clone();
        grads.accumulate(id, &x.scale(2.0));
        x.data().iter().map(|v| v * v).sum()
    }

    #[test]
    fn sgd_minimises_quadratic() {
        let mut params = ParamStore::new();
        let id = params.register("x", Tensor::from_vec(vec![5.0, -3.0], &[2]));
        let mut grads = GradStore::zeros_like(&params);
        let sgd = Sgd::new(0.1);
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            let loss = quadratic_loss_grad(&params, &mut grads, id);
            assert!(loss <= last + 1e-6, "loss increased: {loss} > {last}");
            last = loss;
            sgd.step(&mut params, &mut grads);
        }
        assert!(params.get(id).norm_l2() < 0.01);
    }

    #[test]
    fn sgd_clips_large_gradients() {
        let mut params = ParamStore::new();
        let id = params.register("x", Tensor::from_vec(vec![0.0], &[1]));
        let mut grads = GradStore::zeros_like(&params);
        grads.accumulate(id, &Tensor::from_vec(vec![100.0], &[1]));
        let sgd = Sgd::new(1.0).with_clip_norm(1.0);
        sgd.step(&mut params, &mut grads);
        assert!(
            (params.get(id).data()[0] + 1.0).abs() < 1e-5,
            "clip should bound the step to lr·clip"
        );
    }

    #[test]
    fn lr_decay() {
        let mut sgd = Sgd::new(0.3);
        sgd.decay_lr(0.5);
        assert!((sgd.lr - 0.15).abs() < 1e-7);
    }

    #[test]
    fn optimizers_zero_grads_after_step() {
        let mut params = ParamStore::new();
        let id = params.register("x", Tensor::ones(&[2]));
        let mut grads = GradStore::zeros_like(&params);
        grads.accumulate(id, &Tensor::ones(&[2]));
        Sgd::new(0.1).step(&mut params, &mut grads);
        assert_eq!(grads.get(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn sgd_trains_through_tape() {
        // End-to-end sanity: minimise CE of a linear layer on one example.
        use imre_tensor::TensorRng;
        let mut rng = TensorRng::seed(0);
        let mut params = ParamStore::new();
        let w = params.xavier("w", 4, 3, &mut rng);
        let mut grads = GradStore::zeros_like(&params);
        let sgd = Sgd::new(0.5);
        let x_data = Tensor::rand_uniform(&[1, 4], -1.0, 1.0, &mut rng);
        let mut losses = Vec::new();
        for _ in 0..30 {
            let mut tape = Tape::new(&params);
            let x = tape.leaf(x_data.clone());
            let wv = tape.param(w);
            let h = tape.matmul(x, wv);
            let hv = tape.reshape(h, &[3]);
            let loss = tape.softmax_cross_entropy(hv, 2);
            losses.push(tape.value(loss).data()[0]);
            tape.backward(loss, &mut grads);
            sgd.step(&mut params, &mut grads);
        }
        assert!(
            losses[29] < losses[0] * 0.5,
            "loss did not halve: {} → {}",
            losses[0],
            losses[29]
        );
    }
}
