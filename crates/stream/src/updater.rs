//! The background stream updater: consume deltas, refresh the embedding,
//! publish through the hot-swap registry — while serving never pauses.
//!
//! One thread owns the whole ingest state ([`StreamBuild`]). Per batch it
//! folds counts into the incremental graph; every `publish_every` batches
//! (and once more at end of stream) it:
//!
//! 1. computes the embedding refresh (LINE retrained on the merged graph,
//!    [`StreamBuild::embedding`]);
//! 2. reloads the base `.imrb` from disk (a v3 bundle gets a fresh mmap),
//!    swaps in the extended entity table and the new embedding, re-quantizes
//!    the int8 entity table (if any) from that embedding, and keeps the
//!    model / ANN sections and the other int8 tables as-is;
//! 3. optionally writes the refreshed bundle atomically (tmp + rename);
//! 4. registers it under the serving name via [`Registry::insert`] — a
//!    pointer swap; in-flight requests finish on the old `Arc`, and an old
//!    v3 mapping unmaps only when its last borrower drops
//!    (`imre_serve::live_mappings` observes this).
//!
//! Malformed delta lines are typed errors ([`StreamError`]): the updater
//! counts them in `stream: malformed=` and skips to the next batch; events
//! buffered before the bad line in the same batch are dropped with it
//! (re-delivery is safe — dedup is batching-stable). Only I/O failures stop
//! the thread.

use imre_corpus::stream::{StreamError, StreamSource};
use imre_serve::{load_bundle, save_bundle, Metrics, Registry, ServingModel};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::build::{load_base, StreamBuild, StreamBuildConfig};
use crate::error::StreamUpdateError;

/// Configuration for [`StreamUpdater::spawn`].
#[derive(Debug, Clone)]
pub struct StreamUpdaterConfig {
    /// Registry name to publish under (the name the front end serves).
    pub model_name: String,
    /// Publish after every N delta batches (and at end of stream). 0 means
    /// publish only at end of stream.
    pub publish_every: usize,
    /// Ingest configuration. `line.dim` is overridden to the model's entity
    /// dimension at spawn — the bundle cannot validate otherwise; a width
    /// LINE cannot train is refused there.
    pub build: StreamBuildConfig,
    /// Where to persist refreshed bundles (atomic tmp + rename); `None`
    /// publishes in memory only.
    pub out_path: Option<PathBuf>,
}

/// Final accounting returned by [`StreamUpdater::join`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Delta batches folded in.
    pub batches: u64,
    /// Bundles published through the registry.
    pub publishes: u64,
    /// Entities admitted beyond the base table.
    pub entities_admitted: usize,
    /// Malformed batches skipped with a typed error.
    pub malformed: u64,
    /// Events dropped as re-deliveries.
    pub duplicates: u64,
}

/// Handle to the background updater thread.
pub struct StreamUpdater {
    handle: JoinHandle<Result<StreamSummary, StreamUpdateError>>,
}

impl StreamUpdater {
    /// Validates the base bundle and starts the updater thread.
    ///
    /// The base bundle at `base_path` is loaded once up front for its entity
    /// table and dimensions (failing fast on a bad artifact), and re-loaded
    /// per publish so every published bundle starts from the frozen
    /// model/ANN/quant sections on disk.
    ///
    /// # Errors
    /// [`StreamUpdateError::Io`] if the base bundle cannot be read,
    /// [`StreamUpdateError::NoEmbedding`] if it has no entity embedding to
    /// refresh, [`StreamUpdateError::EmbeddingWidth`] if LINE cannot train
    /// an embedding of its width. No thread starts on an error.
    pub fn spawn<S>(
        mut source: S,
        base_path: PathBuf,
        registry: Arc<Registry>,
        metrics: Arc<Metrics>,
        mut config: StreamUpdaterConfig,
    ) -> Result<StreamUpdater, StreamUpdateError>
    where
        S: StreamSource + Send + 'static,
    {
        let base = load_base(&base_path, &mut config.build)?;
        let base_entities = base.entities.clone();
        let num_types = base.model.num_types();
        drop(base);

        let handle = std::thread::Builder::new()
            .name("imre-stream-updater".to_string())
            .spawn(move || {
                let mut build = StreamBuild::new(&base_entities, num_types, config.build.clone());
                let mut summary = StreamSummary::default();
                let mut dirty_batches = 0u64;
                loop {
                    match source.next_batch() {
                        Ok(Some(batch)) => {
                            let outcome = build.apply_batch(batch)?;
                            summary.batches += 1;
                            summary.duplicates += outcome.duplicates as u64;
                            dirty_batches += 1;
                            metrics
                                .stream_deltas_applied
                                .fetch_add(1, Ordering::Relaxed);
                            metrics
                                .stream_duplicates_dropped
                                .fetch_add(outcome.duplicates as u64, Ordering::Relaxed);
                            metrics
                                .stream_entities_admitted
                                .fetch_add(outcome.entities_admitted as u64, Ordering::Relaxed);
                            let due = config.publish_every > 0
                                && summary.batches % config.publish_every as u64 == 0;
                            if due && build.graph().n_edges() > 0 {
                                publish(&mut build, &base_path, &registry, &metrics, &config)?;
                                summary.publishes += 1;
                                dirty_batches = 0;
                            }
                        }
                        Ok(None) => {
                            if dirty_batches > 0 && build.graph().n_edges() > 0 {
                                publish(&mut build, &base_path, &registry, &metrics, &config)?;
                                summary.publishes += 1;
                            }
                            summary.entities_admitted = build.catalog().admitted();
                            return Ok(summary);
                        }
                        Err(StreamError::Io(e)) => {
                            return Err(StreamUpdateError::Io(e));
                        }
                        Err(_malformed) => {
                            summary.malformed += 1;
                            metrics.stream_malformed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
            .map_err(StreamUpdateError::Io)?;
        Ok(StreamUpdater { handle })
    }

    /// Waits for end of stream and returns the final accounting.
    ///
    /// # Panics
    /// If the updater thread panicked.
    pub fn join(self) -> Result<StreamSummary, StreamUpdateError> {
        self.handle.join().expect("stream updater thread panicked")
    }

    /// Whether the updater thread has exited.
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }
}

/// One publish: refresh embedding, reload base, swap tables, persist, and
/// hot-swap into the registry.
fn publish(
    build: &mut StreamBuild,
    base_path: &std::path::Path,
    registry: &Registry,
    metrics: &Metrics,
    config: &StreamUpdaterConfig,
) -> Result<(), StreamUpdateError> {
    let t0 = Instant::now();
    let embedding = build.embedding()?;
    let refresh_ns = t0.elapsed().as_nanos() as u64;

    let mut bundle = load_bundle(base_path)?;
    bundle.entities = build.catalog().entries().to_vec();
    bundle.embedding = Some(embedding);
    bundle.requantize_entities();
    if let Some(out) = &config.out_path {
        let tmp = out.with_extension("imrb.tmp");
        save_bundle(&bundle, &tmp)?;
        std::fs::rename(&tmp, out)?;
    }
    let model = ServingModel::new(bundle)?;
    registry.insert(config.model_name.clone(), model);

    metrics.stream_publishes.fetch_add(1, Ordering::Relaxed);
    metrics
        .stream_refresh_ns
        .fetch_add(refresh_ns, Ordering::Relaxed);
    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    metrics
        .stream_last_publish_unix_ms
        .store(now_ms, Ordering::Relaxed);
    Ok(())
}
