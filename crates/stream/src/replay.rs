//! Offline replay of a delta stream: deterministic re-derivation of the
//! bundle a live [`StreamUpdater`](crate::StreamUpdater) would publish.
//!
//! `imre stream-replay` drives this to audit a stream: feed the same base
//! bundle and delta file, get byte-identical bundle bytes, invariant to how
//! the corpus was split into batches and to `threads`.

use imre_corpus::stream::{LineDeltaSource, StreamError, StreamSource};
use imre_serve::{load_bundle, write_bundle};
use std::path::Path;

use crate::build::{StreamBuild, StreamBuildConfig};
use crate::error::StreamUpdateError;

/// Accounting and artifact from a full-stream replay.
#[derive(Debug)]
pub struct ReplayReport {
    /// Delta batches folded in.
    pub batches: u64,
    /// Events dropped as re-deliveries.
    pub duplicates: u64,
    /// Malformed batches skipped (counted, not fatal — matching the live
    /// updater's policy).
    pub malformed: u64,
    /// Entities admitted beyond the base table.
    pub entities_admitted: usize,
    /// Edges the final graph holds.
    pub n_edges: usize,
    /// The serialized refreshed bundle (`.imrb` bytes).
    pub bundle: Vec<u8>,
}

/// Replays every batch in `delta_path` on top of the bundle at `base_path`
/// and returns the refreshed bundle bytes plus accounting.
///
/// `config.line.dim` is overridden to the base embedding's dimension, same
/// as the live updater does at spawn.
///
/// # Errors
/// I/O on either file, [`StreamUpdateError::NoEmbedding`] for a bundle
/// without an entity embedding, [`StreamUpdateError::EmptyGraph`] when no
/// pair ever crossed the threshold.
pub fn replay(
    base_path: &Path,
    delta_path: &Path,
    mut config: StreamBuildConfig,
) -> Result<ReplayReport, StreamUpdateError> {
    let mut bundle = load_bundle(base_path)?;
    let embedding = bundle
        .embedding
        .as_ref()
        .ok_or(StreamUpdateError::NoEmbedding)?;
    config.line.dim = embedding.dim();

    let mut build = StreamBuild::new(&bundle.entities, bundle.model.num_types(), config);
    let mut source = LineDeltaSource::open(delta_path)?;
    let mut report = ReplayReport {
        batches: 0,
        duplicates: 0,
        malformed: 0,
        entities_admitted: 0,
        n_edges: 0,
        bundle: Vec::new(),
    };
    loop {
        match source.next_batch() {
            Ok(Some(batch)) => {
                let outcome = build.apply_batch(batch)?;
                report.batches += 1;
                report.duplicates += outcome.duplicates as u64;
            }
            Ok(None) => break,
            Err(StreamError::Io(e)) => return Err(StreamUpdateError::Io(e)),
            Err(_malformed) => report.malformed += 1,
        }
    }

    let refreshed = build.embedding()?;
    bundle.entities = build.catalog().entries().to_vec();
    bundle.embedding = Some(refreshed);
    bundle.requantize_entities();
    report.entities_admitted = build.catalog().admitted();
    report.n_edges = build.graph().n_edges();
    write_bundle(&bundle, &mut report.bundle)?;
    Ok(report)
}
