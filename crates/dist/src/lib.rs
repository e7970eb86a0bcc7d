//! # imre-dist
//!
//! [`tree_all_reduce`]: a fixed-order binary-tree sum of gradient stores,
//! bit-identical at any `--threads` (DESIGN.md §4f). Training itself does
//! not use it — `imre_core::train_epoch` adds its shard stores into the
//! model in shard order — but the repo benchmark times it as
//! `dist.allreduce_ns`, so it stays until that row is retired.

pub mod allreduce;

pub use allreduce::tree_all_reduce;
