//! # imre-core
//!
//! The relation-extraction models of Kuang et al., *Improving Neural
//! Relation Extraction with Implicit Mutual Relations* (ICDE 2020), built on
//! the `imre-nn` autograd substrate:
//!
//! * [`encoder`] — CNN / PCNN / bi-GRU sentence encoders with word +
//!   relative-position embeddings (paper §III-C).
//! * [`attention`] — selective sentence-level attention (Lin 2016) and
//!   BGWA's word-level attention.
//! * [`components`] — the entity-type and implicit-mutual-relation
//!   confidence heads and the learned α/β/γ combiner (paper §III-B, §III-D).
//! * [`model`] — [`ModelSpec`]/[`ReModel`]: every system in the paper's
//!   Table IV and Figure 5 as one declarative spec (PCNN, PCNN+ATT,
//!   CNN+ATT, GRU+ATT, BGWA, PA-T, PA-MR, PA-TMR, and arbitrary `+TMR`
//!   compositions).
//! * [`train`] — the bag-level mini-batch SGD loop, the only epoch loop;
//!   [`checkpoint`] — its IMRC resume points.
//! * [`baselines`] — the non-neural comparators of Figure 4 (Mintz, MultiR,
//!   MIMLRE) and the CNN+RL reinforcement-learning selector.

pub mod attention;
pub mod baselines;
pub mod checkpoint;
pub mod components;
pub mod config;
pub mod encoder;
pub mod features;
pub mod model;
pub mod persist;
pub mod pretrain;
pub mod quant;
#[cfg(test)]
pub(crate) mod testutil;
pub mod train;

pub use attention::{AggKind, SelectiveAttention, WordAttention};
pub use checkpoint::{load_checkpoint, save_checkpoint, Checkpoint, CheckpointCfg, ResumePoint};
pub use components::{Combiner, MrComponent, TypeComponent};
pub use config::HyperParams;
pub use encoder::{Encoder, EncoderKind, Frontend};
pub use features::{featurize, SentenceFeatures};
pub use model::{entity_type_table, prepare_bags, BagContext, ModelSpec, PreparedBag, ReModel};
pub use persist::{load_model, read_model, save_model, write_model};
pub use pretrain::{corpus_sentences, train_skipgram, SkipGramConfig};
pub use quant::{QuantModel, QuantScratch, QuantizeError};
pub use train::{epoch_stream, train_epoch, train_model, TrainConfig, TrainStats};
