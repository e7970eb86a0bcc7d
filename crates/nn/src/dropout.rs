//! Inverted dropout.
//!
//! At train time each element is kept with probability `1 − p` and scaled by
//! `1/(1 − p)` so activations keep their expected magnitude; at eval time the
//! layer is the identity. The paper uses p = 0.5 on the sentence encoding.

use crate::tape::{Tape, Var};
use imre_tensor::TensorRng;

/// Dropout configuration.
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    /// If `p` is not in `[0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "Dropout: p must be in [0,1), got {p}"
        );
        Dropout { p }
    }

    /// Applies dropout when `training`, otherwise passes through.
    ///
    /// The mask is sampled from `rng`, recorded as a constant leaf, and the
    /// gradient flows through the surviving elements only.
    pub fn forward(&self, tape: &mut Tape, x: Var, training: bool, rng: &mut TensorRng) -> Var {
        if !training || self.p == 0.0 {
            return x;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut mask = tape.alloc_like(x);
        for m in mask.data_mut() {
            *m = if rng.bernoulli(keep) { scale } else { 0.0 };
        }
        let mask = tape.leaf(mask);
        tape.mul(x, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamStore;
    use imre_tensor::Tensor;

    #[test]
    fn eval_mode_is_identity() {
        let store = ParamStore::new();
        let mut rng = TensorRng::seed(1);
        let mut tape = Tape::new(&store);
        let x = tape.leaf(Tensor::ones(&[10]));
        let y = Dropout::new(0.5).forward(&mut tape, x, false, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    fn train_mode_zeroes_and_rescales() {
        let store = ParamStore::new();
        let mut rng = TensorRng::seed(2);
        let mut tape = Tape::new(&store);
        let x = tape.leaf(Tensor::ones(&[10_000]));
        let y = Dropout::new(0.5).forward(&mut tape, x, true, &mut rng);
        let out = tape.value(y);
        let zeros = out.data().iter().filter(|&&v| v == 0.0).count();
        let twos = out
            .data()
            .iter()
            .filter(|&&v| (v - 2.0).abs() < 1e-6)
            .count();
        assert_eq!(zeros + twos, 10_000, "values must be 0 or 1/(1-p)");
        assert!((zeros as f32 / 10_000.0 - 0.5).abs() < 0.03);
        // expectation preserved
        assert!((out.mean() - 1.0).abs() < 0.05);
    }

    #[test]
    fn p_zero_is_identity_even_training() {
        let store = ParamStore::new();
        let mut rng = TensorRng::seed(3);
        let mut tape = Tape::new(&store);
        let x = tape.leaf(Tensor::ones(&[5]));
        let y = Dropout::new(0.0).forward(&mut tape, x, true, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn invalid_p_panics() {
        let _ = Dropout::new(1.0);
    }
}
