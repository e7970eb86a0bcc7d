//! imre-stream: streaming corpus ingestion into a merged co-occurrence
//! table, online LINE refinement, and live bundle hot-swap.
//!
//! The crate closes the loop from a *growing* corpus back into a *serving*
//! model without ever pausing the front end:
//!
//! - [`incremental`] — [`IncrementalProximityGraph`] folds co-occurrence
//!   count deltas into one merged canonical count table; its snapshot *is*
//!   [`ProximityGraph::from_counts`](imre_graph::ProximityGraph) on that
//!   table, so a streamed graph is byte-identical to a from-scratch build
//!   on the merged corpus by construction;
//! - [`catalog`] — [`EntityCatalog`] admits entities unseen at training
//!   time, assigning ids in first-sight order over the deduplicated event
//!   stream so the assignment is batching-invariant;
//! - [`build`] — [`StreamBuild`] is the shared ingest core (dedup →
//!   resolve → pair counting → count-table merge → embedding refresh)
//!   used by both the live updater and offline replay, with two refresh
//!   contracts ([`RefreshMode`]): `Canonical` re-derives the embedding from
//!   the merged graph (partition- and thread-invariant), `Refine`
//!   warm-starts from current parameters and touches only delta edges
//!   (path-dependent but byte-reproducible for a fixed delta sequence);
//! - [`updater`] — [`StreamUpdater`] runs ingest on a background thread and
//!   publishes refreshed bundles through the hot-swap
//!   [`Registry`](imre_serve::Registry) while the epoll front end keeps
//!   serving, reporting through the `stream:` stats line;
//! - [`replay`] — [`replay()`](replay::replay) re-derives the published
//!   bundle offline for audit (`imre stream-replay`).

#![deny(missing_docs)]

pub mod build;
pub mod catalog;
pub mod error;
pub mod incremental;
pub mod replay;
pub mod updater;

pub use build::{BatchOutcome, RefreshMode, StreamBuild, StreamBuildConfig};
pub use catalog::EntityCatalog;
pub use error::StreamUpdateError;
pub use incremental::{DeltaOutcome, IncrementalProximityGraph};
pub use replay::{replay, ReplayReport};
pub use updater::{StreamSummary, StreamUpdater, StreamUpdaterConfig};
