//! # imre-nn
//!
//! Tape-based automatic differentiation and the neural-network layers used by
//! the `imre` reproduction of Kuang et al., *Improving Neural Relation
//! Extraction with Implicit Mutual Relations* (ICDE 2020).
//!
//! The crate is deliberately small and auditable:
//!
//! * [`ParamStore`] / [`GradStore`] hold persistent weights and their
//!   gradient buffers across training steps.
//! * [`Tape`] records one forward computation (typically one sentence bag)
//!   and plays it backwards to accumulate gradients. The op set — embedding
//!   gather, conv unfold, piecewise max pooling with argmax routing, the
//!   fused conv → pool → tanh encoder op, rank-1 softmax,
//!   selective-attention primitives, softmax cross-entropy — is exactly
//!   what the paper's CNN/PCNN/GRU relation extractors require.
//! * Layers: [`Linear`], [`Conv1d`] (+ the PCNN segment helpers),
//!   [`GruCell`] / [`BiGru`], [`Dropout`].
//! * Optimizer: [`Sgd`] (the paper's choice, lr 0.3).
//! * [`gradcheck`] verifies every backward rule against central finite
//!   differences; downstream crates reuse it in their own tests.

pub mod conv;
pub mod dropout;
pub mod gradcheck;
pub mod gru;
pub mod linear;
pub mod optim;
pub mod param;
pub mod serialize;
pub mod tape;

pub use conv::{pcnn_segments, pcnn_segments_array, Conv1d};
pub use dropout::Dropout;
pub use gru::{BiGru, GruCell, GruVars};
pub use linear::Linear;
pub use optim::Sgd;
pub use param::{GradStore, ParamId, ParamStore};
pub use serialize::{load_params, read_params, save_params, write_params};
pub use tape::{Segment, Tape, Var, LN_EPS};
