//! The bag-level training loop (SGD, mini-batched, lr decay, grad clipping).
//!
//! **One loop.** [`train_model`] is the only epoch loop. Epoch `e` draws
//! its shuffle and then one dropout seed per bag from [`epoch_stream`]`(seed,
//! e)` — a pure function of the run's seed and the epoch index, never of
//! the epochs before it — and hands both to [`train_epoch`]. After the
//! epoch the learning rate decays and, when one is due, an IMRC checkpoint
//! ([`crate::checkpoint`]) records `(seed, next epoch, lr, model)`. Every
//! epoch boundary is therefore a resume point: a run resumed from any
//! checkpoint is bit-identical to one that never stopped.
//!
//! **One fan-out.** [`train_epoch`] cuts each mini-batch into
//! [`TRAIN_SHARDS`] contiguous shards — a function of the batch length only,
//! never of the pool width — and runs every shard's forward/backward on its
//! own `ShardWorker` (tape arena + compact gradient store) against the one
//! shared `&ReModel`, in parallel on the `imre-tensor` pool. Every bag gets
//! its own dropout stream, seeded by one `rng.u64()` drawn in batch order
//! before the fan-out. The shard stores are summed into the model's
//! gradients in shard order and one optimizer step follows. What a run
//! computes is therefore a pure function of `(seed, batch composition)`:
//! bit-identical at any `--threads`, run to run and scalar vs vector;
//! `IMRE_THREADS=1` runs the same shards inline.

use crate::checkpoint::{save_checkpoint, CheckpointCfg, ResumePoint};
use crate::model::{BagContext, PreparedBag, ReModel, ShardWorker};
use imre_nn::Sgd;
use imre_tensor::pool::par_map;
use imre_tensor::{mix64, TensorRng};
use std::io;
use std::sync::Mutex;

/// How many contiguous shards [`train_epoch`] cuts a mini-batch into. A
/// constant, not the pool width: the shard boundaries fix the order in
/// which the dense parameters' gradients are summed, so they must not move
/// with the machine. Eight keeps two to four cores busy with shards small
/// enough to balance (a batch of 160 is 8 × 20 bags).
pub const TRAIN_SHARDS: usize = 8;

/// Training-loop configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Epochs over the training bags.
    pub epochs: usize,
    /// Bags per SGD step.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Multiplicative lr decay applied after each epoch.
    pub lr_decay: f32,
    /// Global-norm gradient clip.
    pub clip_norm: f32,
    /// Shuffling / dropout seed.
    pub seed: u64,
}

impl TrainConfig {
    /// Defaults derived from the paper's Table III (scaled batch).
    pub fn from_hp(hp: &crate::config::HyperParams, seed: u64) -> Self {
        TrainConfig {
            epochs: hp.epochs,
            batch_size: hp.batch_size,
            lr: hp.lr,
            lr_decay: 0.9,
            clip_norm: 5.0,
            seed,
        }
    }
}

/// Per-epoch summary returned by [`train_model`].
#[derive(Debug, Clone)]
pub struct TrainStats {
    /// Mean training loss of each epoch this call trained.
    pub epoch_losses: Vec<f32>,
}

/// The stream epoch `epoch` of a run seeded `seed` draws from: first its
/// shuffle, then one dropout seed per bag in visiting order.
pub fn epoch_stream(seed: u64, epoch: usize) -> TensorRng {
    TensorRng::seed(mix64(seed ^ mix64(0x5049_4d52_4544_5231 ^ epoch as u64)))
}

/// Trains a model on prepared bags, epochs `resume.next_epoch` (0 when
/// `resume` is `None`) through `config.epochs`.
///
/// Gradients are averaged over each mini-batch (`scale = 1/batch`), clipped
/// by global norm, and applied with SGD whose learning rate decays per
/// epoch — the paper's optimisation setup. A resumed run starts from the
/// checkpoint's decayed learning rate instead of `config.lr`. With
/// `checkpoint`, an IMRC checkpoint is written after every `every`-th epoch.
///
/// # Errors
/// `InvalidInput` when `resume` was written by a run with another seed
/// (its epochs drew other streams); any I/O error of a checkpoint write.
///
/// # Panics
/// If `bags` is empty.
pub fn train_model(
    model: &mut ReModel,
    bags: &[PreparedBag],
    ctx: &BagContext,
    config: &TrainConfig,
    resume: Option<ResumePoint>,
    checkpoint: Option<&CheckpointCfg>,
) -> io::Result<TrainStats> {
    assert!(!bags.is_empty(), "train_model: no training bags");
    let start = resume.unwrap_or(ResumePoint {
        seed: config.seed,
        next_epoch: 0,
        lr: config.lr,
    });
    if start.seed != config.seed {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "the checkpoint was written by a run with training seed {}, not {}",
                start.seed, config.seed
            ),
        ));
    }
    let mut sgd = Sgd::new(start.lr).with_clip_norm(config.clip_norm);
    let mut epoch_losses = Vec::new();

    for epoch in start.next_epoch..config.epochs {
        let mut rng = epoch_stream(config.seed, epoch);
        let mut order: Vec<usize> = (0..bags.len()).collect();
        rng.shuffle(&mut order);
        let epoch_loss = train_epoch(
            model,
            bags,
            ctx,
            &order,
            config.batch_size,
            &mut sgd,
            &mut rng,
        );
        epoch_losses.push((epoch_loss / bags.len() as f64) as f32);
        sgd.decay_lr(config.lr_decay);
        if let Some(c) = checkpoint.filter(|c| c.every > 0 && (epoch + 1) % c.every == 0) {
            let at = ResumePoint {
                seed: config.seed,
                next_epoch: epoch + 1,
                lr: sgd.lr,
            };
            save_checkpoint(model, &at, &c.path)?;
        }
    }
    Ok(TrainStats { epoch_losses })
}

/// One epoch over `order`: per mini-batch, fan the bags out over
/// [`TRAIN_SHARDS`] contiguous shards, sum the shard gradients (batch mean)
/// into `model.grads` in shard order and take one optimizer step. Returns
/// the summed loss.
///
/// `rng` is drawn once per bag, in batch order, before the fan-out; each
/// draw seeds that bag's dropout stream.
pub fn train_epoch(
    model: &mut ReModel,
    bags: &[PreparedBag],
    ctx: &BagContext,
    order: &[usize],
    batch_size: usize,
    sgd: &mut Sgd,
    rng: &mut TensorRng,
) -> f64 {
    let mut epoch_loss = 0.0f64;
    for batch in order.chunks(batch_size.max(1)) {
        epoch_loss += accumulate_batch(model, bags, ctx, batch, rng);
        sgd.step(&mut model.store, &mut model.grads);
    }
    epoch_loss
}

/// The fan-out and reduce of one mini-batch: adds its batch-mean gradient
/// to `model.grads` and returns its summed loss.
fn accumulate_batch(
    model: &mut ReModel,
    bags: &[PreparedBag],
    ctx: &BagContext,
    batch: &[usize],
    rng: &mut TensorRng,
) -> f64 {
    let scale = 1.0 / batch.len() as f32;
    let visits: Vec<(usize, u64)> = batch.iter().map(|&bi| (bi, rng.u64())).collect();
    let shards: Vec<&[(usize, u64)]> = visits.chunks(visits.len().div_ceil(TRAIN_SHARDS)).collect();

    let mut workers = std::mem::take(&mut model.workers);
    while workers.len() < shards.len() {
        workers.push(ShardWorker::new(model));
    }
    let used = &mut workers[..shards.len()];
    let losses = accumulate_shards(model, used, bags, ctx, &shards, scale);
    for w in used {
        model.grads.add_from(w.grads_mut());
        w.grads_mut().zero();
    }
    model.workers = workers;
    losses.iter().sum()
}

/// The fan-out: forward/backward of `shards[s]` on `workers[s]`, all shards
/// in parallel on the current pool against the shared `model`, each visit
/// `(bag, seed)` under a dropout stream seeded by `seed`; returns the summed
/// loss of each shard. Which thread runs which shard cannot change a bit of
/// any store.
fn accumulate_shards(
    model: &ReModel,
    workers: &mut [ShardWorker],
    bags: &[PreparedBag],
    ctx: &BagContext,
    shards: &[&[(usize, u64)]],
    scale: f32,
) -> Vec<f64> {
    // One uncontended lock per shard hands task `s` its `&mut` worker.
    let workers: Vec<Mutex<&mut ShardWorker>> = workers.iter_mut().map(Mutex::new).collect();
    par_map(shards.len(), |s| {
        let mut worker = workers[s].lock().expect("one task per shard worker");
        let mut loss = 0.0f64;
        for &(bi, seed) in shards[s] {
            let mut rng = TensorRng::seed(seed);
            loss += model.bag_forward_backward(&bags[bi], ctx, scale, &mut rng, &mut worker) as f64;
        }
        loss
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HyperParams;
    use crate::model::{entity_type_table, prepare_bags, ModelSpec, ReModel};
    use imre_corpus::{Dataset, DatasetConfig, SentenceGenConfig, WorldConfig};

    fn tiny_dataset() -> Dataset {
        Dataset::generate(&DatasetConfig {
            name: "t".into(),
            world: WorldConfig {
                n_relations: 4,
                entities_per_cluster: 6,
                facts_per_relation: 10,
                cluster_reuse_prob: 0.3,
                seed: 3,
            },
            sentence: SentenceGenConfig {
                noise_prob: 0.1,
                min_len: 6,
                max_len: 12,
            },
            train_fraction: 0.7,
            na_train: 8,
            na_test: 4,
            na_hard_fraction: 0.5,
            zipf_alpha: 2.0,
            max_sentences_per_bag: 6,
            seed: 5,
        })
    }

    fn tiny_config(epochs: usize, seed: u64) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 8,
            lr: 0.2,
            lr_decay: 0.95,
            clip_norm: 5.0,
            seed,
        }
    }

    /// Trains a fresh PCNN+ATT (weights seeded `model_seed`) on the tiny
    /// dataset, returning the model and its stats.
    fn train_tiny(model_seed: u64, tc: &TrainConfig) -> (ReModel, Vec<PreparedBag>, TrainStats) {
        let ds = tiny_dataset();
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
            model_seed,
        );
        let stats = train_model(&mut model, &bags, &ctx, tc, None, None).unwrap();
        (model, bags, stats)
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let (_, _, stats) = train_tiny(11, &tiny_config(8, 13));
        assert_eq!(stats.epoch_losses.len(), 8);
        let last = *stats.epoch_losses.last().unwrap();
        assert!(
            last < stats.epoch_losses[0] * 0.85,
            "losses {:?}",
            stats.epoch_losses
        );
    }

    #[test]
    fn trained_model_beats_chance_on_train_set() {
        let (model, bags, _) = train_tiny(17, &tiny_config(6, 19));
        let types = entity_type_table(&tiny_dataset().world);
        let ctx = BagContext {
            entity_embedding: None,
            entity_types: &types,
        };
        let correct = bags
            .iter()
            .filter(|b| {
                let probs = model.predict(b, &ctx);
                let argmax = probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap();
                argmax == b.label
            })
            .count();
        let acc = correct as f32 / bags.len() as f32;
        assert!(acc > 1.5 / 4.0, "train accuracy {acc} not above chance");
    }

    #[test]
    fn different_seeds_differ() {
        let bytes = |seed: u64| {
            let (model, _, _) = train_tiny(7, &tiny_config(2, seed));
            let mut out = Vec::new();
            crate::persist::write_model(&model, &mut out).unwrap();
            out
        };
        assert_ne!(bytes(11), bytes(12), "seed must matter");
    }

    #[test]
    fn epoch_stream_is_a_pure_function_of_seed_and_epoch() {
        let draw = |seed, epoch| epoch_stream(seed, epoch).u64();
        assert_eq!(draw(7, 3), draw(7, 3), "same (seed, epoch), same stream");
        assert_ne!(draw(7, 3), draw(7, 4), "epochs draw distinct streams");
        assert_ne!(draw(7, 3), draw(8, 3), "seeds draw distinct streams");
    }

    #[test]
    fn accumulate_shard_is_sharding_invariant() {
        // A bag's loss depends on its stream, not on which shard visits it:
        // the whole batch as one shard and as three shards must report the
        // same total (the gradients sum in a different order, so only the
        // losses are pinned here).
        let ds = tiny_dataset();
        let hp = HyperParams::tiny();
        let bags = prepare_bags(&ds.train, &hp);
        let types = entity_type_table(&ds.world);
        let ctx = BagContext {
            entity_embedding: None,
            entity_types: &types,
        };
        let visits: Vec<(usize, u64)> =
            (0..bags.len().min(6)).map(|b| (b, 50 + b as u64)).collect();
        let model = ReModel::new(
            ModelSpec::pcnn_att(),
            &hp,
            ds.vocab.len(),
            ds.num_relations(),
            38,
            8,
            11,
        );
        let total = |shards: &[&[(usize, u64)]]| {
            let mut workers: Vec<ShardWorker> =
                shards.iter().map(|_| ShardWorker::new(&model)).collect();
            accumulate_shards(&model, &mut workers, &bags, &ctx, shards, 1.0)
                .iter()
                .sum::<f64>()
        };
        let whole = total(&[&visits]);
        let split = total(&visits.chunks(2).collect::<Vec<_>>());
        assert!(
            (whole - split).abs() < 1e-4 * whole.abs().max(1.0),
            "sharded loss {split} drifted from whole-batch loss {whole}"
        );
    }

    /// A PA-TMR model over the `testutil` toy world and `n` of its bags.
    fn toy_problem(hp: &HyperParams, n: usize) -> (ReModel, Vec<PreparedBag>) {
        use crate::testutil::{random_bag, VOCAB};
        let model = ReModel::new(ModelSpec::pa_tmr(), hp, VOCAB, 7, 5, hp.entity_dim, 7);
        let bags = (0..n)
            .map(|i| random_bag(1 + i % 4, 12, hp, i % 7, 90 + i as u64))
            .collect();
        (model, bags)
    }

    #[test]
    fn fan_out_matches_the_serial_oracle() {
        // Oracle: the same bags under the same per-bag streams, one after
        // the other into one dense store. The fan-out sums the dense
        // parameters shard-wise, so agreement is to rounding, not bits.
        use crate::testutil::{toy_embedding, toy_types};
        let hp = HyperParams::tiny();
        let (emb, types) = (toy_embedding(hp.entity_dim), toy_types());
        let ctx = BagContext {
            entity_embedding: Some(&emb),
            entity_types: &types,
        };
        for n in [1usize, 7, 8, 9, 21] {
            let (mut fanned, bags) = toy_problem(&hp, n);
            let (mut serial, _) = toy_problem(&hp, n);
            let batch: Vec<usize> = (0..n).rev().collect();

            let loss = accumulate_batch(&mut fanned, &bags, &ctx, &batch, &mut TensorRng::seed(3));
            let mut rng = TensorRng::seed(3);
            let streams: Vec<u64> = batch.iter().map(|_| rng.u64()).collect();
            let mut want = 0.0f64;
            for (&bi, &stream) in batch.iter().zip(&streams) {
                let mut rng = TensorRng::seed(stream);
                want +=
                    serial.bag_loss_and_backward(&bags[bi], &ctx, 1.0 / n as f32, &mut rng) as f64;
            }

            assert!(
                (loss - want).abs() <= 1e-6 * want.abs().max(1.0),
                "n={n}: loss {loss} vs serial {want}"
            );
            for (id, name, _) in serial.store.iter() {
                let (got, want) = (fanned.grads.get(id).data(), serial.grads.get(id).data());
                let tol = 1e-6 * want.iter().fold(1.0f32, |m, x| m.max(x.abs()));
                for (g, w) in got.iter().zip(want) {
                    assert!((g - w).abs() <= tol, "n={n} {name}: {g} vs {w} (tol {tol})");
                }
            }
        }
    }

    #[test]
    fn shard_arenas_are_warm_after_the_first_step() {
        use crate::testutil::{toy_embedding, toy_types};
        let hp = HyperParams::tiny();
        let (emb, types) = (toy_embedding(hp.entity_dim), toy_types());
        let ctx = BagContext {
            entity_embedding: Some(&emb),
            entity_types: &types,
        };
        let (mut model, bags) = toy_problem(&hp, 21);
        let order: Vec<usize> = (0..bags.len()).collect();
        let mut sgd = Sgd::new(0.1).with_clip_norm(5.0);
        let mut step = |model: &mut ReModel| {
            train_epoch(
                model,
                &bags,
                &ctx,
                &order,
                21,
                &mut sgd,
                &mut TensorRng::seed(4),
            )
        };
        step(&mut model);
        assert_eq!(model.workers.len(), 7, "21 bags are 7 shards of 3");
        let cold: Vec<_> = model.workers.iter().map(ShardWorker::arena_stats).collect();
        let whole_before = model.arena_stats();
        step(&mut model);
        let mut merged = imre_tensor::PoolStats::default();
        for (w, before) in model.workers.iter().zip(&cold) {
            let second = w.arena_stats().since(before);
            assert!(second.hits > 0, "every worker took part");
            assert_eq!(second.misses, 0, "a warm worker allocated tensor buffers");
            merged.merge(&second);
        }
        assert_eq!(
            model.arena_stats().since(&whole_before),
            merged,
            "ReModel::arena_stats covers the workers"
        );
    }

    #[test]
    #[should_panic(expected = "no training bags")]
    fn empty_training_set_panics() {
        let ds = tiny_dataset();
        let hp = HyperParams::tiny();
        let types = entity_type_table(&ds.world);
        let ctx = BagContext {
            entity_embedding: None,
            entity_types: &types,
        };
        let mut model = ReModel::new(ModelSpec::pcnn(), &hp, ds.vocab.len(), 4, 38, 8, 1);
        let tc = TrainConfig {
            lr_decay: 1.0,
            ..tiny_config(1, 1)
        };
        let _ = train_model(&mut model, &[], &ctx, &tc, None, None);
    }
}
