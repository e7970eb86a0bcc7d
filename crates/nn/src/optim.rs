//! Optimizers: plain SGD (the paper trains with SGD, lr 0.3) and Adam
//! (used for the graph-embedding substrate where it converges faster).

use crate::param::{GradStore, ParamStore};
use imre_tensor::Tensor;

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

/// Adam optimizer (Kingma & Ba, 2015) with bias correction.
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with default moments (β₁ 0.9, β₂ 0.999, ε 1e-8), buffers sized
    /// to match `params`.
    pub fn new(lr: f32, params: &ParamStore) -> Self {
        let m = params
            .iter()
            .map(|(_, _, t)| Tensor::zeros(t.shape()))
            .collect();
        let v = params
            .iter()
            .map(|(_, _, t)| Tensor::zeros(t.shape()))
            .collect();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m,
            v,
        }
    }

    /// Rebuilds an Adam optimizer from checkpointed state: the step count
    /// and both moment vectors, exactly as returned by [`Adam::steps`] and
    /// [`Adam::moments`]. Resuming training from a checkpoint restored this
    /// way is bit-identical to never having stopped.
    ///
    /// # Panics
    /// If the moment vectors disagree in length.
    pub fn restore(lr: f32, t: u64, m: Vec<Tensor>, v: Vec<Tensor>) -> Self {
        assert_eq!(m.len(), v.len(), "Adam::restore: moment count mismatch");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t,
            m,
            v,
        }
    }

    /// Number of optimizer steps taken so far (the bias-correction clock).
    /// Data-parallel training must advance this exactly once per combined
    /// mini-batch, no matter how many replicas contributed gradients.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The first and second moment buffers, in parameter order (for
    /// checkpointing).
    pub fn moments(&self) -> (&[Tensor], &[Tensor]) {
        (&self.m, &self.v)
    }

    /// Applies one Adam update and zeroes the grads.
    ///
    /// # Panics
    /// If `params` gained parameters since construction.
    pub fn step(&mut self, params: &mut ParamStore, grads: &mut GradStore) {
        assert_eq!(
            params.len(),
            self.m.len(),
            "Adam::step: parameter count changed since Adam::new"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let id = crate::param::ParamId(i);
            let g = grads.get(id);
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((mi, vi), &gi) in m.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let p = params.get_mut(id);
            for ((pi, &mi), &vi) in p.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                *pi -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
        grads.zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{GradStore, ParamStore};
    use crate::tape::Tape;

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
    fn adam_minimises_quadratic() {
        let mut params = ParamStore::new();
        let id = params.register("x", Tensor::from_vec(vec![5.0, -3.0, 2.0], &[3]));
        let mut grads = GradStore::zeros_like(&params);
        let mut adam = Adam::new(0.1, &params);
        for _ in 0..300 {
            let _ = quadratic_loss_grad(&params, &mut grads, id);
            adam.step(&mut params, &mut grads);
        }
        assert!(
            params.get(id).norm_l2() < 0.05,
            "norm {}",
            params.get(id).norm_l2()
        );
    }

    #[test]
    fn adam_restore_resumes_bit_identically() {
        let mut params_a = ParamStore::new();
        let id_a = params_a.register("x", Tensor::from_vec(vec![5.0, -3.0], &[2]));
        let mut params_b = ParamStore::new();
        let id_b = params_b.register("x", Tensor::from_vec(vec![5.0, -3.0], &[2]));
        let mut grads_a = GradStore::zeros_like(&params_a);
        let mut grads_b = GradStore::zeros_like(&params_b);

        let mut adam_a = Adam::new(0.1, &params_a);
        let mut adam_b = Adam::new(0.1, &params_b);
        for _ in 0..5 {
            let _ = quadratic_loss_grad(&params_a, &mut grads_a, id_a);
            adam_a.step(&mut params_a, &mut grads_a);
            let _ = quadratic_loss_grad(&params_b, &mut grads_b, id_b);
            adam_b.step(&mut params_b, &mut grads_b);
        }
        assert_eq!(adam_a.steps(), 5);

        // Checkpoint b, rebuild it, continue both: trajectories must agree
        // exactly.
        let (m, v) = adam_b.moments();
        let mut adam_b = Adam::restore(adam_b.lr, adam_b.steps(), m.to_vec(), v.to_vec());
        for _ in 0..5 {
            let _ = quadratic_loss_grad(&params_a, &mut grads_a, id_a);
            adam_a.step(&mut params_a, &mut grads_a);
            let _ = quadratic_loss_grad(&params_b, &mut grads_b, id_b);
            adam_b.step(&mut params_b, &mut grads_b);
        }
        assert_eq!(params_a.get(id_a).data(), params_b.get(id_b).data());
        assert_eq!(adam_a.steps(), adam_b.steps());
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
