//! The negative-sampling SGD core that LINE ([`crate::line`]) and skip-gram
//! ([`crate::skipgram`]) share: one update rule over two rows, the ¾-power
//! noise table, the linear rate decay, and the "positive, then K noise
//! draws" step. Each trainer keeps its own sampling loop: skip-gram walks a
//! subsampled corpus window, LINE alias-samples edges.

use crate::alias::AliasTable;
use imre_tensor::{sigmoid_scalar, Tensor, TensorRng};

/// `lr` decayed linearly over `total` steps, never below `lr * floor`.
pub(crate) fn decayed_lr(lr: f32, step: usize, total: usize, floor: f32) -> f32 {
    (lr * (1.0 - step as f32 / total.max(1) as f32)).max(lr * floor)
}

/// One negative-sampling SGD update of the pair `(a, b)`: with
/// `g = lr · (label − σ(a·b))`, `a += g·b` and `b += g·a`, both from the old
/// values.
pub(crate) fn update(a: &mut [f32], b: &mut [f32], positive: bool, lr: f32) {
    debug_assert_eq!(a.len(), b.len());
    let x: f32 = a.iter().zip(b.iter()).map(|(&p, &q)| p * q).sum();
    let label = if positive { 1.0 } else { 0.0 };
    let g = lr * (label - sigmoid_scalar(x));
    for (p, q) in a.iter_mut().zip(b.iter_mut()) {
        let dp = g * *q;
        let dq = g * *p;
        *p += dp;
        *q += dq;
    }
}

/// The noise distribution `P_n(v) ∝ weight(v)^{3/4}` and the number of
/// negatives drawn from it per positive.
pub(crate) struct Noise {
    table: AliasTable,
    negatives: usize,
}

impl Noise {
    /// Raises each weight (word counts, vertex degrees) to ¾.
    pub(crate) fn new(weights: impl IntoIterator<Item = f32>, negatives: usize) -> Noise {
        let pow: Vec<f32> = weights.into_iter().map(|w| w.powf(0.75)).collect();
        Noise {
            table: AliasTable::new(&pow),
            negatives,
        }
    }

    /// Negatives drawn per positive.
    pub(crate) fn negatives(&self) -> usize {
        self.negatives
    }

    /// One noise draw.
    pub(crate) fn sample(&self, rng: &mut TensorRng) -> usize {
        self.table.sample(rng)
    }

    /// The draws of one [`Noise::step`] with no update: a pass that does
    /// not own the tables still consumes the stream.
    pub(crate) fn skip(&self, rng: &mut TensorRng) {
        for _ in 0..self.negatives {
            self.sample(rng);
        }
    }

    /// A positive update of `vertex[src]` against `context[dst]`, then
    /// `negatives` draws, each one other than `dst` a negative update of
    /// `vertex[src]` against `context[neg]`.
    pub(crate) fn step(
        &self,
        vertex: &mut Tensor,
        context: &mut Tensor,
        src: usize,
        dst: usize,
        lr: f32,
        rng: &mut TensorRng,
    ) {
        // Slice the rows here rather than through `Tensor::row_mut`, whose
        // rank and bounds asserts on every update slowed NYT-scale skip-gram
        // by ~15 % (2-vCPU x86-64 VM).
        let dim = vertex.cols();
        let v = &mut vertex.data_mut()[src * dim..(src + 1) * dim];
        let context = context.data_mut();
        update(v, &mut context[dst * dim..(dst + 1) * dim], true, lr);
        for _ in 0..self.negatives {
            let neg = self.sample(rng);
            if neg != dst {
                update(v, &mut context[neg * dim..(neg + 1) * dim], false, lr);
            }
        }
    }
}
