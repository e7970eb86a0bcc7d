//! # imre-dist
//!
//! Deterministic data-parallel training for the imre reproduction
//! (DESIGN.md §4f), built on the `imre-tensor` thread pool (PR 2) and the
//! per-model buffer arenas (PR 4):
//!
//! * [`engine`] — [`DataParallel`]: shards each bag mini-batch across R
//!   replica workers of one shared model (the fan-out `train_epoch` uses),
//!   runs forward/backward concurrently, combines
//!   gradients with a fixed-order tree all-reduce, and clips + steps the
//!   optimizer exactly once on the combined gradient. A fixed
//!   `(seed, replicas)` configuration trains to byte-identical parameters
//!   across runs and across `--threads` settings.
//! * [`allreduce`] — the fixed-order tree reduction itself (schedule a pure
//!   function of replica index, never of thread scheduling).
//! * [`checkpoint`] — the IMRC checkpoint format: epoch cursor + optimizer
//!   state + embedded IMRM model, written atomically (tmp + rename), so
//!   killed runs resume bit-identically at the last epoch boundary.
//! * [`runner`] — [`run_seeds`]: trains independent seeds concurrently with
//!   bounded parallelism, feeding `imre-eval`'s multi-seed averaging.

pub mod allreduce;
pub mod checkpoint;
pub mod engine;
pub mod runner;

pub use allreduce::tree_all_reduce;
pub use checkpoint::{load_checkpoint, save_checkpoint, Checkpoint, OptState};
pub use engine::{CheckpointCfg, DataParallel, DistStats, OptimizerKind};
pub use runner::run_seeds;
