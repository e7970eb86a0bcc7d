//! The data-parallel training engine.
//!
//! [`DataParallel`] owns **one** [`ReModel`] and R [`ShardWorker`]s — a
//! "replica" is a tape arena and a compact gradient store, not a copy of
//! the parameters. Each optimizer step:
//!
//! 1. **Shard** — the mini-batch is split by `imre_core::replica_shard`
//!    (strided, a pure function of the replica index);
//! 2. **Fan out** — `imre_core::accumulate_shards`, the fan-out
//!    `train_epoch` uses, runs the replicas' forward/backward concurrently
//!    on the `imre-tensor` thread pool against the shared parameters, each
//!    accumulating into its own `GradStore` with dropout drawn from
//!    `bag_step_rng(seed, epoch, bag)` so a bag's gradient is independent
//!    of which replica computed it;
//! 3. **Reduce** — the replica stores combine via the fixed-order tree
//!    all-reduce into replica 0, which is added to the model's gradients;
//! 4. **Clip + step** — global-norm clipping applies **once** to the
//!    combined gradient, then the optimizer steps the model exactly once
//!    (Adam's bias-correction clock advances once per step, regardless of
//!    R). There is nothing to broadcast: every replica reads the stepped
//!    parameters in place.
//!
//! Determinism contract: for a fixed `(seed, replicas)` configuration the
//! trained parameters are byte-identical across runs and across thread-pool
//! sizes. Different R values produce *statistically* equivalent but not
//! bitwise-equal models (floating-point summation order differs).

use crate::allreduce::tree_all_reduce;
use crate::checkpoint::{save_checkpoint, Checkpoint, OptState};
use imre_core::{
    accumulate_shards, bag_step_rng, epoch_order, replica_shard, BagContext, PreparedBag, ReModel,
    ShardWorker, TrainConfig,
};
use imre_nn::{Adam, GradStore, Sgd};
use imre_tensor::PoolStats;
use std::path::PathBuf;
use std::time::Instant;

/// Which optimizer steps the reduced gradient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// Plain SGD with per-epoch lr decay (the paper's setup).
    Sgd,
    /// Adam with bias correction (converges faster on small corpora).
    Adam,
}

enum Optimizer {
    Sgd(Sgd),
    Adam(Adam),
}

/// Periodic-checkpoint policy for [`DataParallel::train`].
#[derive(Debug, Clone)]
pub struct CheckpointCfg {
    /// Write a checkpoint every this many epochs (0 disables).
    pub every: usize,
    /// Destination path (written atomically via tmp-sibling + rename).
    pub path: PathBuf,
}

/// Telemetry for one data-parallel training run.
#[derive(Debug, Clone, Default)]
pub struct DistStats {
    /// Mean training loss per epoch (same meaning as `TrainStats`).
    pub epoch_losses: Vec<f32>,
    /// Wall time of each epoch, nanoseconds.
    pub epoch_wall_ns: Vec<u64>,
    /// Time spent inside the tree all-reduce per epoch, nanoseconds.
    pub epoch_reduce_ns: Vec<u64>,
    /// Bags processed per wall-clock second over the whole run.
    pub bags_per_sec: f64,
    /// Buffer-arena pressure summed over all replicas for this run.
    pub pool: PoolStats,
}

impl DistStats {
    /// The last epoch's mean loss.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().expect("at least one epoch")
    }

    /// Fraction of total wall time spent reducing gradients (0 when no
    /// time was measured).
    pub fn reduce_share(&self) -> f64 {
        let wall: u64 = self.epoch_wall_ns.iter().sum();
        if wall == 0 {
            return 0.0;
        }
        self.epoch_reduce_ns.iter().sum::<u64>() as f64 / wall as f64
    }
}

/// The model, its R replica workers and the single optimizer that steps it.
pub struct DataParallel {
    model: ReModel,
    replicas: Vec<ShardWorker>,
    opt: Optimizer,
}

impl DataParallel {
    /// Wraps `model` in an R-replica engine.
    ///
    /// # Panics
    /// If `replicas` is 0.
    pub fn new(model: ReModel, replicas: usize, kind: OptimizerKind, lr: f32) -> Self {
        assert!(
            replicas >= 1,
            "DataParallel::new: need at least one replica"
        );
        let opt = match kind {
            OptimizerKind::Sgd => Optimizer::Sgd(Sgd::new(lr)),
            OptimizerKind::Adam => Optimizer::Adam(Adam::new(lr, &model.store)),
        };
        let replicas = (0..replicas).map(|_| ShardWorker::new(&model)).collect();
        DataParallel {
            model,
            replicas,
            opt,
        }
    }

    /// Rebuilds an engine from a loaded [`Checkpoint`]. Returns the engine
    /// and the epoch training should resume at. The optimizer (including
    /// Adam's step clock and moments, or SGD's decayed lr) continues from
    /// its checkpointed state, so the resumed run is bit-identical to one
    /// that never stopped.
    pub fn resume(ck: Checkpoint, replicas: usize) -> (Self, usize) {
        let Checkpoint {
            next_epoch,
            opt,
            model,
        } = ck;
        let kind = match &opt {
            OptState::Sgd { .. } => OptimizerKind::Sgd,
            OptState::Adam { .. } => OptimizerKind::Adam,
        };
        let mut engine = DataParallel::new(model, replicas, kind, 0.0);
        engine.opt = match opt {
            OptState::Sgd { lr } => Optimizer::Sgd(Sgd::new(lr)),
            OptState::Adam { lr, t, m, v } => Optimizer::Adam(Adam::restore(lr, t, m, v)),
        };
        (engine, next_epoch)
    }

    /// The model being trained.
    pub fn primary(&self) -> &ReModel {
        &self.model
    }

    /// Consumes the engine, returning the trained model.
    pub fn into_model(self) -> ReModel {
        self.model
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Adam's step clock, if the engine runs Adam (for the once-per-step
    /// audit; `None` under SGD).
    pub fn optimizer_steps(&self) -> Option<u64> {
        match &self.opt {
            Optimizer::Sgd(_) => None,
            Optimizer::Adam(a) => Some(a.steps()),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        match &self.opt {
            Optimizer::Sgd(s) => s.lr,
            Optimizer::Adam(a) => a.lr,
        }
    }

    /// Snapshot of the optimizer state for checkpointing.
    pub fn opt_state(&self) -> OptState {
        match &self.opt {
            Optimizer::Sgd(s) => OptState::Sgd { lr: s.lr },
            Optimizer::Adam(a) => {
                let (m, v) = a.moments();
                OptState::Adam {
                    lr: a.lr,
                    t: a.steps(),
                    m: m.to_vec(),
                    v: v.to_vec(),
                }
            }
        }
    }

    /// Trains from `start_epoch` (0 for a fresh run, the checkpoint's
    /// `next_epoch` when resuming) through `config.epochs`.
    ///
    /// `config.lr` is only used when `start_epoch == 0`; a resumed engine
    /// keeps its restored learning rate. Checkpoints, if configured, are
    /// written at epoch boundaries.
    pub fn train(
        &mut self,
        bags: &[PreparedBag],
        ctx: &BagContext,
        config: &TrainConfig,
        start_epoch: usize,
        ckpt: Option<&CheckpointCfg>,
    ) -> DistStats {
        assert!(!bags.is_empty(), "DataParallel::train: no training bags");
        if start_epoch == 0 {
            match &mut self.opt {
                Optimizer::Sgd(s) => s.lr = config.lr,
                Optimizer::Adam(a) => a.lr = config.lr,
            }
        }
        let r = self.replicas.len();
        let pool_before: Vec<PoolStats> = self.replicas.iter().map(|w| w.arena_stats()).collect();
        let mut stats = DistStats::default();
        let run_start = Instant::now();
        let mut bags_done = 0u64;

        for epoch in start_epoch..config.epochs {
            let epoch_start = Instant::now();
            let mut reduce_ns = 0u64;
            let mut epoch_loss = 0.0f64;
            let order = epoch_order(config.seed, epoch, bags.len());

            for batch in order.chunks(config.batch_size.max(1)) {
                let scale = 1.0 / batch.len() as f32;
                let shards: Vec<Vec<usize>> = (0..r).map(|i| replica_shard(batch, i, r)).collect();
                let shards: Vec<&[usize]> = shards.iter().map(Vec::as_slice).collect();

                // Fan out: each replica accumulates its shard's gradients.
                let model = &mut self.model;
                let losses = accumulate_shards(
                    model,
                    &mut self.replicas,
                    bags,
                    ctx,
                    &shards,
                    scale,
                    |i, k| bag_step_rng(config.seed, epoch, shards[i][k]),
                );
                epoch_loss += losses.iter().sum::<f64>();
                bags_done += batch.len() as u64;

                // Reduce into replica 0, fixed tree order, and from there
                // into the model's (zeroed) gradients.
                let t0 = Instant::now();
                let mut grads: Vec<&mut GradStore> =
                    self.replicas.iter_mut().map(|w| w.grads_mut()).collect();
                tree_all_reduce(&mut grads);
                model.grads.add_from(grads[0]);
                reduce_ns += t0.elapsed().as_nanos() as u64;

                // Clip once on the combined gradient, then one optimizer
                // step.
                if config.clip_norm > 0.0 {
                    let n = model.grads.global_norm();
                    if n > config.clip_norm {
                        model.grads.scale(config.clip_norm / n);
                    }
                }
                match &mut self.opt {
                    Optimizer::Sgd(s) => s.step(&mut model.store, &mut model.grads),
                    Optimizer::Adam(a) => a.step(&mut model.store, &mut model.grads),
                }

                // Clear the partial sums the tree left in the replicas.
                for g in grads {
                    g.zero();
                }
            }

            stats
                .epoch_losses
                .push((epoch_loss / bags.len() as f64) as f32);
            stats
                .epoch_wall_ns
                .push(epoch_start.elapsed().as_nanos() as u64);
            stats.epoch_reduce_ns.push(reduce_ns);
            match &mut self.opt {
                Optimizer::Sgd(s) => s.decay_lr(config.lr_decay),
                Optimizer::Adam(_) => {}
            }

            if let Some(c) = ckpt {
                if c.every > 0 && (epoch + 1) % c.every == 0 {
                    let state = self.opt_state();
                    save_checkpoint(&self.model, epoch + 1, &state, &c.path)
                        .expect("checkpoint write failed");
                }
            }
        }

        let elapsed = run_start.elapsed().as_secs_f64();
        stats.bags_per_sec = if elapsed > 0.0 {
            bags_done as f64 / elapsed
        } else {
            0.0
        };
        for (w, before) in self.replicas.iter().zip(&pool_before) {
            stats.pool.merge(&w.arena_stats().since(before));
        }
        stats
    }
}
