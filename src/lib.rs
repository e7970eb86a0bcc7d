//! # imre — Implicit Mutual Relations for Neural Relation Extraction
//!
//! A from-scratch Rust reproduction of Kuang, Cao, Zheng, He, Gao & Zhou,
//! *Improving Neural Relation Extraction with Implicit Mutual Relations*
//! (ICDE 2020, arXiv:1907.05333), including every substrate the paper's
//! system depends on:
//!
//! | crate | role |
//! |---|---|
//! | [`tensor`] | dense f32 tensors, matmul, reductions (no BLAS) |
//! | [`nn`] | tape-based autograd, CNN/PCNN/GRU layers, SGD |
//! | [`corpus`] | synthetic distant-supervision corpora (NYT-sim, GDS-sim) and the unlabeled corpus standing in for Wikipedia |
//! | [`graph`] | entity proximity graph + LINE embeddings (the implicit mutual relations) |
//! | [`core`] | the paper's models: PCNN(+ATT), CNN+ATT, GRU+ATT, BGWA, CNN+RL, Mintz/MultiR/MIMLRE, PA-T / PA-MR / PA-TMR; the training loop with checkpoints and bit-identical resume |
//! | [`dist`] | fixed-order tree all-reduce of gradient stores |
//! | [`eval`] | held-out PR/AUC/P@N metrics, slice analyses, the experiment pipeline and its parallel multi-seed runs |
//! | [`serve`] | multi-threaded inference serving: model registry, bounded queue + worker pool, TCP front-end, latency metrics |
//! | [`stream`] | streaming corpus ingestion: merged co-occurrence table, LINE embedding refresh, live bundle hot-swap publishing |
//!
//! ## Quickstart
//!
//! ```no_run
//! use imre::eval::{smoke_config, Pipeline};
//! use imre::core::{HyperParams, ModelSpec};
//!
//! let pipeline = Pipeline::build(&smoke_config(7), HyperParams::tiny());
//! let evaluation = pipeline.run_system(ModelSpec::pa_tmr(), 42);
//! println!("PA-TMR AUC = {:.4}", evaluation.auc);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench/`
//! for the harness that regenerates every table and figure of the paper.

pub use imre_corpus as corpus;
pub use imre_dist as dist;
pub use imre_eval as eval;
pub use imre_graph as graph;
pub use imre_nn as nn;
pub use imre_serve as serve;
pub use imre_stream as stream;
pub use imre_tensor as tensor;

/// The paper's models and training loop (re-export of `imre-core`; named
/// `core` here for discoverability — use the full path `imre::core`).
pub mod core {
    pub use imre_core::*;
}
