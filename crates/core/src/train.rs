//! The bag-level training loop (SGD, mini-batched, lr decay, grad clipping).
//!
//! **One fan-out.** A mini-batch is always trained the same way: it is cut
//! into shards, [`accumulate_shards`] runs every shard's forward/backward
//! on its own [`ShardWorker`] (tape arena + compact gradient store) against
//! the one shared `&ReModel`, in parallel on the `imre-tensor` pool, the
//! shard stores are summed into the model's gradients in a fixed order, and
//! one optimizer step follows. [`train_epoch`] and `imre-dist`'s
//! `DataParallel` are the two callers and differ only in how they cut and
//! seed:
//!
//! * [`train_epoch`] cuts [`TRAIN_SHARDS`] contiguous shards — a function
//!   of the batch length only, never of the pool width — and gives every
//!   bag its own dropout stream, seeded by one `rng.u64()` drawn in batch
//!   order before the fan-out. What it computes is therefore a pure
//!   function of `(seed, batch composition)`: bit-identical at any
//!   `--threads`, run to run and scalar vs vector; `IMRE_THREADS=1` runs
//!   the same shards inline. [`train_model`] threads one sequential RNG
//!   through shuffling and those per-bag draws.
//! * The replica-aware primitives ([`epoch_order`], [`bag_step_rng`],
//!   [`replica_shard`]) **derive** an independent stream per `(seed,
//!   epoch)` and per `(seed, epoch, bag)` instead. A bag's dropout noise
//!   then depends only on its identity and the epoch — never on which
//!   replica processed it, in what order, or on how many other bags came
//!   before it — which is what lets `imre-dist` resume a checkpoint mid-run
//!   bit-identically: every stream is a pure function of the epoch index.

use crate::model::{BagContext, PreparedBag, ReModel, ShardWorker};
use imre_nn::Sgd;
use imre_tensor::pool::par_map;
use imre_tensor::{mix64, TensorRng};
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
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainStats {
    /// The last epoch's mean loss.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().expect("at least one epoch")
    }
}

/// Trains a model on prepared bags.
///
/// Gradients are averaged over each mini-batch (`scale = 1/batch`), clipped
/// by global norm, and applied with SGD whose learning rate decays per
/// epoch — the paper's optimisation setup.
pub fn train_model(
    model: &mut ReModel,
    bags: &[PreparedBag],
    ctx: &BagContext,
    config: &TrainConfig,
) -> TrainStats {
    assert!(!bags.is_empty(), "train_model: no training bags");
    let mut rng = TensorRng::seed(config.seed);
    let mut sgd = Sgd::new(config.lr).with_clip_norm(config.clip_norm);
    let mut order: Vec<usize> = (0..bags.len()).collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);

    for _epoch in 0..config.epochs {
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
    }
    TrainStats { epoch_losses }
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
    let streams: Vec<u64> = batch.iter().map(|_| rng.u64()).collect();
    let per_shard = batch.len().div_ceil(TRAIN_SHARDS);
    let shards: Vec<&[usize]> = batch.chunks(per_shard).collect();

    let mut workers = std::mem::take(&mut model.workers);
    while workers.len() < shards.len() {
        workers.push(ShardWorker::new(model));
    }
    let used = &mut workers[..shards.len()];
    let losses = accumulate_shards(model, used, bags, ctx, &shards, scale, |s, k| {
        TensorRng::seed(streams[s * per_shard + k])
    });
    for w in used {
        model.grads.add_from(w.grads_mut());
        w.grads_mut().zero();
    }
    model.workers = workers;
    losses.iter().sum()
}

/// The fan-out: forward/backward of `shards[s]` on `workers[s]`, all shards
/// in parallel on the current pool against the shared `model`; returns the
/// summed loss of each shard. Bag `shards[s][k]` draws its dropout noise
/// from `stream(s, k)`. No optimizer step and no reduce — the caller
/// combines the workers' stores in whatever fixed order its contract names.
/// Which thread runs which shard cannot change a bit of any store.
///
/// # Panics
/// If there are fewer workers than shards.
pub fn accumulate_shards(
    model: &ReModel,
    workers: &mut [ShardWorker],
    bags: &[PreparedBag],
    ctx: &BagContext,
    shards: &[&[usize]],
    scale: f32,
    stream: impl Fn(usize, usize) -> TensorRng + Sync,
) -> Vec<f64> {
    assert!(
        workers.len() >= shards.len(),
        "accumulate_shards: {} workers for {} shards",
        workers.len(),
        shards.len()
    );
    // One uncontended lock per shard hands task `s` its `&mut` worker.
    let workers: Vec<Mutex<&mut ShardWorker>> = workers.iter_mut().map(Mutex::new).collect();
    par_map(shards.len(), |s| {
        let mut worker = workers[s].lock().expect("one task per shard worker");
        accumulate_shard(model, &mut worker, bags, ctx, shards[s], scale, |k| {
            stream(s, k)
        })
    })
}

/// Forward/backward over one shard of a mini-batch: accumulates
/// `scale`-weighted gradients for every listed bag into `worker`, bag
/// `shard[k]` under the dropout stream `stream(k)`. Returns the summed loss.
fn accumulate_shard(
    model: &ReModel,
    worker: &mut ShardWorker,
    bags: &[PreparedBag],
    ctx: &BagContext,
    shard: &[usize],
    scale: f32,
    stream: impl Fn(usize) -> TensorRng,
) -> f64 {
    let mut loss = 0.0f64;
    for (k, &bi) in shard.iter().enumerate() {
        let mut rng = stream(k);
        loss += model.bag_forward_backward(&bags[bi], ctx, scale, &mut rng, worker) as f64;
    }
    loss
}

// ----------------------------------------------------------------------
// Replica-aware primitives (the substrate `imre-dist` trains on)
// ----------------------------------------------------------------------

/// The deterministic bag visiting order for one epoch: a shuffle drawn from
/// a stream that depends only on `(seed, epoch)`. Resuming at an epoch
/// boundary therefore replays exactly the orders an uninterrupted run sees.
pub fn epoch_order(seed: u64, epoch: usize, n: usize) -> Vec<usize> {
    let mut rng = TensorRng::seed(mix64(seed ^ mix64(0x5049_4d52_4544_5231 ^ epoch as u64)));
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// The dropout stream for one bag visit, a pure function of
/// `(seed, epoch, bag)`. Independent of sharding: replica count and batch
/// position cannot change a bag's noise, so the gradient each bag
/// contributes is the same at any `--data-parallel` width.
pub fn bag_step_rng(seed: u64, epoch: usize, bag: usize) -> TensorRng {
    TensorRng::seed(mix64(
        mix64(seed ^ mix64(0x4241_4753_5445_5032 ^ epoch as u64)) ^ mix64(bag as u64),
    ))
}

/// The slice of a mini-batch owned by `replica` out of `replicas`: positions
/// `replica, replica + R, replica + 2R, …` of `batch`. Strided (rather than
/// contiguous) so bags of uneven size spread across replicas. A pure
/// function of `(batch, replica, replicas)` — scheduling cannot change it.
pub fn replica_shard(batch: &[usize], replica: usize, replicas: usize) -> Vec<usize> {
    batch
        .iter()
        .skip(replica)
        .step_by(replicas.max(1))
        .copied()
        .collect()
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

    #[test]
    fn loss_decreases_over_epochs() {
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
            11,
        );
        let tc = TrainConfig {
            epochs: 8,
            batch_size: 8,
            lr: 0.2,
            lr_decay: 0.95,
            clip_norm: 5.0,
            seed: 13,
        };
        let stats = train_model(&mut model, &bags, &ctx, &tc);
        assert_eq!(stats.epoch_losses.len(), 8);
        assert!(
            stats.final_loss() < stats.epoch_losses[0] * 0.85,
            "losses {:?}",
            stats.epoch_losses
        );
    }

    #[test]
    fn trained_model_beats_chance_on_train_set() {
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
            17,
        );
        let tc = TrainConfig {
            epochs: 6,
            batch_size: 8,
            lr: 0.2,
            lr_decay: 0.95,
            clip_norm: 5.0,
            seed: 19,
        };
        train_model(&mut model, &bags, &ctx, &tc);
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
    fn epoch_order_is_a_pure_function_of_seed_and_epoch() {
        let a = epoch_order(7, 3, 100);
        let b = epoch_order(7, 3, 100);
        assert_eq!(a, b, "same (seed, epoch) must give the same order");
        assert_ne!(a, epoch_order(7, 4, 100), "epochs draw distinct orders");
        assert_ne!(a, epoch_order(8, 3, 100), "seeds draw distinct orders");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>(), "a permutation");
    }

    #[test]
    fn bag_step_rng_streams_are_independent() {
        let draw = |seed, epoch, bag| bag_step_rng(seed, epoch, bag).u64();
        assert_eq!(draw(1, 2, 3), draw(1, 2, 3));
        assert_ne!(draw(1, 2, 3), draw(1, 2, 4));
        assert_ne!(draw(1, 2, 3), draw(1, 3, 3));
        assert_ne!(draw(1, 2, 3), draw(2, 2, 3));
    }

    #[test]
    fn replica_shards_partition_the_batch() {
        let batch: Vec<usize> = vec![10, 11, 12, 13, 14, 15, 16];
        for r_total in [1usize, 2, 3, 4, 8] {
            let mut seen: Vec<usize> = Vec::new();
            for r in 0..r_total {
                seen.extend(replica_shard(&batch, r, r_total));
            }
            seen.sort_unstable();
            let mut want = batch.clone();
            want.sort_unstable();
            assert_eq!(seen, want, "replicas={r_total} must cover exactly");
        }
        assert_eq!(replica_shard(&batch, 0, 2), vec![10, 12, 14, 16]);
        assert_eq!(replica_shard(&batch, 1, 2), vec![11, 13, 15]);
        // More replicas than bags: the extras get empty shards.
        assert!(replica_shard(&batch[..2], 3, 4).is_empty());
    }

    #[test]
    fn accumulate_shard_is_sharding_invariant() {
        // A bag's loss depends on its stream, not on which shard visits it:
        // the whole batch as one shard and as three strided shards must
        // report the same total (the gradients sum in a different order, so
        // only the losses are pinned here).
        let ds = tiny_dataset();
        let hp = HyperParams::tiny();
        let bags = prepare_bags(&ds.train, &hp);
        let types = entity_type_table(&ds.world);
        let ctx = BagContext {
            entity_embedding: None,
            entity_types: &types,
        };
        let batch: Vec<usize> = (0..bags.len().min(6)).collect();
        let model = ReModel::new(
            ModelSpec::pcnn_att(),
            &hp,
            ds.vocab.len(),
            ds.num_relations(),
            38,
            8,
            11,
        );
        let total = |shards: &[Vec<usize>]| {
            let mut workers: Vec<ShardWorker> =
                shards.iter().map(|_| ShardWorker::new(&model)).collect();
            let shards: Vec<&[usize]> = shards.iter().map(Vec::as_slice).collect();
            accumulate_shards(&model, &mut workers, &bags, &ctx, &shards, 1.0, |s, k| {
                bag_step_rng(5, 0, shards[s][k])
            })
            .iter()
            .sum::<f64>()
        };
        let whole = total(std::slice::from_ref(&batch));
        let strided: Vec<Vec<usize>> = (0..3).map(|r| replica_shard(&batch, r, 3)).collect();
        let split = total(&strided);
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
            epochs: 1,
            batch_size: 4,
            lr: 0.1,
            lr_decay: 1.0,
            clip_norm: 5.0,
            seed: 1,
        };
        let _ = train_model(&mut model, &[], &ctx, &tc);
    }
}
