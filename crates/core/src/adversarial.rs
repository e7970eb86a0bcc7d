//! Adversarial training (Wu et al., EMNLP 2017) — the noise-mitigation
//! alternative the paper surveys in §II-B: "generate adversarial samples by
//! first adding noise in the form of small perturbations to the original
//! data, then encouraging the neural network to correctly classify both
//! unmodified examples and perturbed ones".
//!
//! Implemented as Fast Gradient Method perturbations on the word-embedding
//! table: for each bag, one clean pass computes the loss gradient, the
//! visited embedding rows are perturbed by `ε · g / ‖g‖`, a second pass
//! adds the adversarial loss, and the perturbation is rolled back before
//! the optimizer step. Both passes' gradients train the model, so it learns
//! to classify clean *and* worst-case-perturbed inputs.

use crate::model::{BagContext, PreparedBag, ReModel};
use crate::train::{TrainConfig, TrainStats};
use imre_nn::Sgd;
use imre_tensor::{Tensor, TensorRng};

/// Adversarial-training configuration.
#[derive(Debug, Clone)]
pub struct AdvConfig {
    /// Perturbation radius ε (relative to the gradient's L2 norm).
    pub epsilon: f32,
    /// Weight of the adversarial loss term relative to the clean loss.
    pub adv_weight: f32,
}

impl Default for AdvConfig {
    fn default() -> Self {
        AdvConfig {
            epsilon: 0.05,
            adv_weight: 1.0,
        }
    }
}

/// The word-embedding perturbation computed from a gradient snapshot.
///
/// Only the rows that actually received gradient (the bag's tokens) are
/// perturbed; `apply`/`revert` add and subtract it exactly.
struct Perturbation {
    delta: Tensor,
}

impl Perturbation {
    fn from_gradient(grad: &Tensor, epsilon: f32) -> Option<Perturbation> {
        let norm = grad.norm_l2();
        if norm < 1e-12 {
            return None;
        }
        Some(Perturbation {
            delta: grad.scale(epsilon / norm),
        })
    }

    fn apply(&self, table: &mut Tensor) {
        table.add_assign(&self.delta);
    }

    fn revert(&self, table: &mut Tensor) {
        table.axpy(-1.0, &self.delta);
    }
}

/// One adversarial training step on a single bag: clean backward, FGM
/// perturbation of the word embeddings, adversarial backward, rollback.
/// Returns `(clean_loss, adversarial_loss)`.
///
/// Gradients from both passes accumulate in `model.grads` (scaled by
/// `scale` and `scale · adv_weight` respectively); the caller applies the
/// optimizer step.
pub fn adversarial_bag_step(
    model: &mut ReModel,
    bag: &PreparedBag,
    ctx: &BagContext,
    scale: f32,
    config: &AdvConfig,
    rng: &mut TensorRng,
) -> (f32, f32) {
    let word_emb = model
        .store
        .find("enc.word_emb")
        .expect("encoder word-embedding parameter");

    // Clean pass: snapshot the word-embedding gradient it produces.
    let grads_before = model.grads.get(word_emb).clone();
    let clean_loss = model.bag_loss_and_backward(bag, ctx, scale, rng);
    let grad_now = model.grads.get(word_emb).clone();
    let bag_grad = grad_now.sub(&grads_before);

    let Some(perturbation) = Perturbation::from_gradient(&bag_grad, config.epsilon) else {
        return (clean_loss, clean_loss);
    };

    // Adversarial pass at the perturbed embeddings.
    perturbation.apply(model.store.get_mut(word_emb));
    let adv_loss = model.bag_loss_and_backward(bag, ctx, scale * config.adv_weight, rng);
    perturbation.revert(model.store.get_mut(word_emb));

    (clean_loss, adv_loss)
}

/// Trains a model with FGM adversarial regularisation — the drop-in
/// counterpart of [`crate::train::train_model`].
pub fn train_adversarial(
    model: &mut ReModel,
    bags: &[PreparedBag],
    ctx: &BagContext,
    tc: &TrainConfig,
    config: &AdvConfig,
) -> TrainStats {
    assert!(!bags.is_empty(), "train_adversarial: no training bags");
    let mut rng = TensorRng::seed(tc.seed);
    let mut sgd = Sgd::new(tc.lr).with_clip_norm(tc.clip_norm);
    let mut order: Vec<usize> = (0..bags.len()).collect();
    let mut epoch_losses = Vec::with_capacity(tc.epochs);

    for _ in 0..tc.epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0f64;
        for batch in order.chunks(tc.batch_size) {
            let scale = 1.0 / batch.len() as f32;
            for &bi in batch {
                let (clean, _adv) =
                    adversarial_bag_step(model, &bags[bi], ctx, scale, config, &mut rng);
                epoch_loss += clean as f64;
            }
            sgd.step(&mut model.store, &mut model.grads);
        }
        epoch_losses.push((epoch_loss / bags.len() as f64) as f32);
        sgd.decay_lr(tc.lr_decay);
    }
    TrainStats { epoch_losses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HyperParams;
    use crate::model::{entity_type_table, prepare_bags, ModelSpec};
    use imre_corpus::{Dataset, DatasetConfig, SentenceGenConfig, WorldConfig};

    fn dataset() -> Dataset {
        Dataset::generate(&DatasetConfig {
            name: "adv".into(),
            world: WorldConfig {
                n_relations: 4,
                entities_per_cluster: 6,
                facts_per_relation: 12,
                cluster_reuse_prob: 0.3,
                seed: 7,
            },
            sentence: SentenceGenConfig {
                noise_prob: 0.2,
                min_len: 6,
                max_len: 12,
            },
            train_fraction: 0.7,
            na_train: 10,
            na_test: 5,
            na_hard_fraction: 0.5,
            zipf_alpha: 1.8,
            max_sentences_per_bag: 6,
            seed: 11,
        })
    }

    #[test]
    fn perturbation_roundtrip_is_exact_in_float() {
        let grad = Tensor::from_vec(vec![3.0, 4.0, 0.0, 0.0], &[2, 2]);
        let p = Perturbation::from_gradient(&grad, 0.1).expect("non-zero grad");
        // ‖grad‖ = 5 → delta = grad/50
        assert!((p.delta.at(0, 0) - 0.06).abs() < 1e-6);
        let mut table = Tensor::ones(&[2, 2]);
        let orig = table.clone();
        p.apply(&mut table);
        assert_ne!(table.data(), orig.data());
        p.revert(&mut table);
        for (a, b) in table.data().iter().zip(orig.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_gradient_yields_no_perturbation() {
        assert!(Perturbation::from_gradient(&Tensor::zeros(&[2, 2]), 0.1).is_none());
    }

    #[test]
    fn adversarial_loss_at_least_clean_loss_on_fresh_model() {
        // FGM perturbs along the loss gradient, so (to first order) the
        // adversarial loss exceeds the clean loss. Dropout must be off:
        // each pass samples its own mask, which would swamp the ε-sized
        // perturbation effect.
        let ds = dataset();
        let mut hp = HyperParams::tiny();
        hp.dropout = 0.0;
        let bags = prepare_bags(&ds.train, &hp);
        let types = entity_type_table(&ds.world);
        let ctx = BagContext {
            entity_embedding: None,
            entity_types: &types,
        };
        let mut model = ReModel::new(
            ModelSpec::pcnn_att(),
            &hp,
            ds.vocab.len(),
            ds.num_relations(),
            38,
            8,
            3,
        );
        let mut rng = TensorRng::seed(5);
        let mut higher = 0;
        let n = 10;
        for bag in bags.iter().take(n) {
            let (clean, adv) =
                adversarial_bag_step(&mut model, bag, &ctx, 1.0, &AdvConfig::default(), &mut rng);
            model.grads.zero();
            if adv >= clean - 1e-4 {
                higher += 1;
            }
        }
        assert!(
            higher >= n - 2,
            "adversarial loss should (almost) always exceed clean: {higher}/{n}"
        );
    }

    #[test]
    fn adversarial_training_converges() {
        let ds = dataset();
        let hp = HyperParams::tiny();
        let bags = prepare_bags(&ds.train, &hp);
        let types = entity_type_table(&ds.world);
        let ctx = BagContext {
            entity_embedding: None,
            entity_types: &types,
        };
        let mut model = ReModel::new(
            ModelSpec::pcnn_att(),
            &hp,
            ds.vocab.len(),
            ds.num_relations(),
            38,
            8,
            9,
        );
        let tc = TrainConfig {
            epochs: 6,
            batch_size: 8,
            lr: 0.2,
            lr_decay: 0.95,
            clip_norm: 5.0,
            seed: 13,
        };
        let stats = train_adversarial(&mut model, &bags, &ctx, &tc, &AdvConfig::default());
        assert!(
            stats.final_loss() < stats.epoch_losses[0] * 0.9,
            "adversarial training failed to reduce loss: {:?}",
            stats.epoch_losses
        );
    }
}
