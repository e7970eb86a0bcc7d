//! # imre-corpus
//!
//! The data substrate for the `imre` reproduction of Kuang et al. (ICDE
//! 2020): a synthetic world model and the corpora derived from it.
//!
//! The paper trains on the NYT and GDS distant-supervision corpora and mines
//! its entity proximity graph from a Wikipedia dump; none are available in
//! this environment, so this crate generates statistical stand-ins from an
//! explicit world model (see `DESIGN.md` §1 for the substitution argument):
//!
//! * [`world`] — entities in typed semantic clusters, relation schemas with
//!   type signatures, and the KG facts distant supervision labels against.
//! * [`sentences`] — template-based sentence generation with controllable
//!   per-sentence label noise (the distant-supervision failure mode).
//! * [`dataset`] — bag-structured train/test corpora with Zipf-long-tailed
//!   per-pair sentence counts; presets [`dataset::nyt_sim`] (53 relations,
//!   noisy) and [`dataset::gds_sim`] (5 relations, cleaner, smaller).
//! * [`unlabeled`] — the co-occurrence table standing in for Wikipedia,
//!   with cluster-structured neighbourhoods the proximity graph preserves.
//! * [`stream`] — the streaming flavour of the above: timestamped sentence
//!   batches with batching-stable dedup, feeding `imre-stream`'s
//!   incremental proximity graph.
//! * [`types`] — the 38 coarse FIGER entity types the paper's type
//!   component embeds.
//! * [`stats`] — the Figure 1 histograms and Table II summaries.

pub mod dataset;
pub mod sentences;
pub mod stats;
pub mod stream;
pub mod templates;
pub mod types;
pub mod unlabeled;
pub mod vocab;
pub mod world;

pub use dataset::{gds_sim, nyt_sim, Bag, Dataset, DatasetConfig, Zipf};
pub use sentences::{EncodedSentence, SentenceGenConfig};
pub use stream::{
    synth_delta_text, DeltaBatch, EntityMention, LineDeltaSource, SentenceEvent, StableDedup,
    StreamError, StreamSource,
};
pub use templates::{RelationId, RelationSchema, NA};
pub use types::{TypeId, COARSE_TYPES, NUM_COARSE_TYPES};
pub use unlabeled::{generate_unlabeled, CoOccurrence, UnlabeledConfig};
pub use vocab::{Vocab, PAD, UNK};
pub use world::{Entity, EntityId, Fact, World, WorldConfig};
