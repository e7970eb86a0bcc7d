//! The shared ingest core: delta batches → dedup → catalog → count table →
//! embedding refresh.
//!
//! Both consumers — the live [`StreamUpdater`](crate::StreamUpdater) thread
//! and the offline `stream-replay` determinism checker — drive this exact
//! pipeline, so what replay verifies is what serving runs.
//!
//! The refresh retrains LINE from scratch on the merged graph
//! ([`train_line`]): a pure function of `(merged counts, seed)`, therefore
//! invariant to how the stream was batched and to the thread count. This is
//! what publishes and what the byte-compare acceptance pins (DESIGN §4i).

use imre_corpus::stream::DeltaBatch;
use imre_corpus::CoOccurrence;
use imre_graph::{train_line, EntityEmbedding, LineConfig};
use imre_serve::{load_bundle, Bundle};
use std::path::Path;

use crate::catalog::EntityCatalog;
use crate::error::StreamUpdateError;
use crate::incremental::IncrementalProximityGraph;

/// How an embedding refresh is computed. There is one way, so this carries
/// no choice: it is kept only because `benchmark/` names it, until the next
/// benchmark revision retires it with [`StreamBuildConfig::refresh`].
#[derive(Debug, Clone)]
pub enum RefreshMode {
    /// Full LINE retrain on the merged graph — batching-invariant.
    Canonical,
}

/// Configuration for a [`StreamBuild`].
#[derive(Debug, Clone)]
pub struct StreamBuildConfig {
    /// Co-occurrence admission threshold (same meaning as the offline
    /// builder's).
    pub threshold: u32,
    /// LINE hyperparameters for the refresh.
    pub line: LineConfig,
    /// Most worker threads per-batch pair counting may use (large batches
    /// are sharded round-robin and the shard tables summed —
    /// order-independent, so any thread count yields the same counts).
    pub threads: usize,
    /// Embedding refresh mode (always [`RefreshMode::Canonical`]).
    pub refresh: RefreshMode,
}

/// Loads the base bundle a stream refreshes and sets `config.line.dim` to
/// its embedding width: every publish must reproduce that width to pass
/// [`Bundle::validate`].
///
/// # Errors
/// I/O reading the bundle, [`StreamUpdateError::NoEmbedding`] without an
/// entity embedding, [`StreamUpdateError::EmbeddingWidth`] for a width LINE
/// cannot train: its two orders take half of it each.
pub(crate) fn load_base(
    path: &Path,
    config: &mut StreamBuildConfig,
) -> Result<Bundle, StreamUpdateError> {
    let bundle = load_bundle(path)?;
    let dim = bundle
        .embedding
        .as_ref()
        .ok_or(StreamUpdateError::NoEmbedding)?
        .dim();
    if dim < 2 || !dim.is_multiple_of(2) {
        return Err(StreamUpdateError::EmbeddingWidth(dim));
    }
    config.line.dim = dim;
    Ok(bundle)
}

/// What one batch application did — feeds the `stream:` stats line.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Events surviving dedup.
    pub fresh_events: usize,
    /// Events dropped as re-deliveries.
    pub duplicates: usize,
    /// Entities newly admitted to the catalog.
    pub entities_admitted: usize,
    /// Edges newly admitted past the threshold.
    pub edges_admitted: usize,
}

/// Live ingest state: dedup window, entity catalog and merged count table.
pub struct StreamBuild {
    config: StreamBuildConfig,
    dedup: imre_corpus::StableDedup,
    catalog: EntityCatalog,
    graph: IncrementalProximityGraph,
}

impl StreamBuild {
    /// Starts from a bundle's entity table.
    pub fn new(
        base_entities: &[(String, Vec<usize>)],
        num_types: usize,
        config: StreamBuildConfig,
    ) -> Self {
        let catalog = EntityCatalog::from_entities(base_entities, num_types);
        let mut graph = IncrementalProximityGraph::new(config.threshold);
        graph.ensure_vertices(catalog.len());
        StreamBuild {
            config,
            dedup: imre_corpus::StableDedup::new(),
            catalog,
            graph,
        }
    }

    /// Folds one delta batch into the catalog and the count table.
    pub fn apply_batch(&mut self, batch: DeltaBatch) -> Result<BatchOutcome, StreamUpdateError> {
        let before = batch.events.len();
        let fresh = self.dedup.retain_fresh(batch);
        let mut outcome = BatchOutcome {
            fresh_events: fresh.len(),
            duplicates: before - fresh.len(),
            ..BatchOutcome::default()
        };
        if fresh.is_empty() {
            return Ok(outcome);
        }
        let admitted_before = self.catalog.admitted();
        // Resolve ids sequentially in arrival order — id assignment must be
        // a pure function of the deduplicated event sequence.
        let mut resolved: Vec<Vec<usize>> = Vec::with_capacity(fresh.len());
        for ev in &fresh {
            let ids = ev
                .entities
                .iter()
                .map(|m| self.catalog.resolve_or_admit(m))
                .collect::<Result<Vec<usize>, _>>()?;
            resolved.push(ids);
        }
        outcome.entities_admitted = self.catalog.admitted() - admitted_before;
        let co = count_pairs_sharded(&resolved, self.config.threads);
        self.graph.ensure_vertices(self.catalog.len());
        outcome.edges_admitted = self.graph.apply_delta(co.iter().map(|(&p, &c)| (p, c)));
        Ok(outcome)
    }

    /// Computes the current embedding: LINE retrained on the merged graph.
    ///
    /// # Errors
    /// [`StreamUpdateError::EmptyGraph`] before any edge is admitted.
    pub fn embedding(&mut self) -> Result<EntityEmbedding, StreamUpdateError> {
        if self.graph.n_edges() == 0 {
            return Err(StreamUpdateError::EmptyGraph);
        }
        self.graph.ensure_vertices(self.catalog.len());
        Ok(train_line(&self.graph.snapshot(), &self.config.line))
    }

    /// The entity catalog (base + admitted).
    pub fn catalog(&self) -> &EntityCatalog {
        &self.catalog
    }

    /// The merged count table and the graph it implies.
    pub fn graph(&self) -> &IncrementalProximityGraph {
        &self.graph
    }
}

/// Events a shard must have before it is worth an OS thread. Measured on the
/// 2-vCPU reference box: a scoped spawn + join costs 50–70 µs per thread and
/// counting 0.1–0.15 µs per event, so the 64-event batches `stream_publish`
/// sends took 103–143 µs on two threads against 6–10 µs inline. At 4096
/// events a shard counts for ≈ 0.5 ms, well clear of its spawn.
const SHARD_GRAIN_EVENTS: usize = 4096;

/// Counts co-occurrence pairs for resolved events. Batches of at least
/// two 4096-event grains are sharded round-robin over up to
/// `threads` scoped workers and the shard tables summed; smaller ones are
/// counted inline. Counts are additive and keys canonical, so the result is
/// independent of the shard count and of scheduling — `--threads 1` and
/// `--threads 4` are byte-identical downstream.
pub fn count_pairs_sharded(resolved: &[Vec<usize>], threads: usize) -> CoOccurrence {
    let count_shard = |shard: usize, stride: usize| {
        let mut co = CoOccurrence::new();
        let mut i = shard;
        while i < resolved.len() {
            let ids = &resolved[i];
            for a in 0..ids.len() {
                for b in (a + 1)..ids.len() {
                    co.add(ids[a], ids[b], 1);
                }
            }
            i += stride;
        }
        co
    };
    let n_shards = threads.min(resolved.len() / SHARD_GRAIN_EVENTS);
    if n_shards <= 1 {
        return count_shard(0, 1);
    }
    let shards: Vec<CoOccurrence> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_shards)
            .map(|t| scope.spawn(move || count_shard(t, n_shards)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("count shard panicked"))
            .collect()
    });
    let mut total = CoOccurrence::new();
    for shard in &shards {
        total.merge(shard);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use imre_corpus::stream::{LineDeltaSource, StreamSource};
    use imre_corpus::synth_delta_text;
    use std::io::Cursor;

    fn base_entities(n: usize) -> Vec<(String, Vec<usize>)> {
        (0..n).map(|i| (format!("ent{i}"), vec![i % 5])).collect()
    }

    fn config() -> StreamBuildConfig {
        StreamBuildConfig {
            threshold: 2,
            line: LineConfig {
                dim: 8,
                samples_per_epoch: 1_500,
                epochs: 1,
                ..Default::default()
            },
            threads: 2,
            refresh: RefreshMode::Canonical,
        }
    }

    fn batches_of(text: &str) -> Vec<DeltaBatch> {
        let mut src = LineDeltaSource::new(Cursor::new(text.as_bytes().to_vec()));
        let mut out = Vec::new();
        while let Some(b) = src.next_batch().unwrap() {
            out.push(b);
        }
        out
    }

    #[test]
    fn sharded_counting_matches_single_thread() {
        // enough events that four threads really get a shard each
        let resolved: Vec<Vec<usize>> = (0..4 * SHARD_GRAIN_EVENTS + 3)
            .map(|i| vec![i % 7, (i * 3) % 7, (i * 5 + 1) % 7])
            .collect();
        let one = count_pairs_sharded(&resolved, 1);
        let four = count_pairs_sharded(&resolved, 4);
        assert_eq!(one.len(), four.len());
        for (&(a, b), &c) in one.iter() {
            assert_eq!(four.count(a, b), c, "pair ({a},{b})");
        }
    }

    #[test]
    fn canonical_embedding_is_batching_invariant() {
        let names: Vec<String> = (0..8).map(|i| format!("ent{i}")).collect();
        let text = synth_delta_text(&names, 3, 10, 7);
        let merged = text.replace("\n\n", "\n");
        let build_with = |t: &str| {
            let mut b = StreamBuild::new(&base_entities(8), 38, config());
            for batch in batches_of(t) {
                b.apply_batch(batch).unwrap();
            }
            b.embedding().unwrap()
        };
        let a = build_with(&text);
        let b = build_with(&merged);
        assert_eq!(a.matrix().data(), b.matrix().data());
    }

    #[test]
    fn cold_start_entity_is_admitted_and_embedded() {
        let mut b = StreamBuild::new(&base_entities(3), 38, config());
        let text = "1\tent0\tnova:4\n2\tent0\tnova\n3\tent1\tent2\n4\tent1\tent2\n";
        for batch in batches_of(text) {
            b.apply_batch(batch).unwrap();
        }
        assert_eq!(b.catalog().admitted(), 1);
        assert_eq!(b.catalog().entries()[3], ("nova".to_string(), vec![4]));
        let emb = b.embedding().unwrap();
        assert_eq!(emb.len(), 4);
        assert!(emb.vector(3).iter().any(|&x| x != 0.0));
    }

    #[test]
    fn empty_graph_embedding_is_typed_error() {
        let mut b = StreamBuild::new(&base_entities(3), 38, config());
        assert!(matches!(b.embedding(), Err(StreamUpdateError::EmptyGraph)));
    }

    #[test]
    fn duplicates_are_counted_not_applied() {
        let mut b = StreamBuild::new(&base_entities(3), 38, config());
        let text = "1\tent0\tent1\n\n1\tent0\tent1\n2\tent0\tent1\n";
        let batches = batches_of(text);
        let o1 = b.apply_batch(batches[0].clone()).unwrap();
        assert_eq!((o1.fresh_events, o1.duplicates), (1, 0));
        let o2 = b.apply_batch(batches[1].clone()).unwrap();
        assert_eq!((o2.fresh_events, o2.duplicates), (1, 1));
        assert_eq!(b.graph().counts()[&(0, 1)], 2);
    }
}
