//! Online LINE refinement for streaming graph updates.
//!
//! [`train_line`](crate::train_line) is a frozen-corpus batch job: it
//! initialises fresh tables, runs its epochs, normalises, and throws the raw
//! (pre-normalisation) state away. Streaming ingestion needs the opposite
//! shape — keep the raw first-order / second-order tables alive, fold in
//! co-occurrence deltas as they arrive, and emit an embedding snapshot on
//! demand. [`LineState`] is that live state:
//!
//! * **Warm start** — [`LineState::init`] + [`LineState::run_base_epochs`]
//!   reproduce `train_line` bit for bit (the batch entry point now delegates
//!   here), so a stream can begin exactly where an offline build ended.
//! * **Delta-scoped work** — [`LineState::refine`] rebuilds the edge alias
//!   table only over the delta-touched edges and draws its SGD samples from
//!   them; the noise table is refreshed from the full updated degree
//!   distribution (O(n), cheap).
//! * **Vertex growth** — [`LineState::grow`] extends the tables for newly
//!   admitted entities, initialising each new vertex from the mean of its
//!   already-embedded neighbours (falling back to a seeded uniform row for
//!   vertices whose neighbours are all new too).
//! * **Replay determinism** — every refinement epoch draws from a SplitMix64
//!   stream derived from `(seed, update_epoch)`; growth rows derive from
//!   `(seed, vertex)`. Replaying the same delta sequence therefore produces
//!   byte-identical tables, independent of wall clock or thread count.
//!
//! Refinement is path-dependent by construction (SGD from a warm start), so
//! it is **not** partition-invariant: splitting a corpus into different delta
//! batches yields different (all byte-reproducible) refined tables. The
//! publish pipeline that must be partition-invariant uses a canonical
//! rebuild — `train_line` on the merged graph — instead; see DESIGN §4i.

use crate::alias::AliasTable;
use crate::line::{normalize_rows, sgd_cross, sgd_pair, EntityEmbedding, LineConfig};
use crate::proximity::ProximityGraph;
use imre_tensor::{mix64, Tensor, TensorRng};

/// Domain-separation constant for refinement RNG streams ("IMREREFN").
const REFINE_DOMAIN: u64 = 0x494d_5245_5245_464e;
/// Domain-separation constant for new-vertex initialisation ("IMREGROW").
const GROW_DOMAIN: u64 = 0x494d_5245_4752_4f57;

/// Hyperparameters for one [`LineState::refine`] pass.
#[derive(Debug, Clone)]
pub struct RefineConfig {
    /// SGD samples drawn over the touched edge set per pass.
    pub samples: usize,
    /// Constant learning rate (no decay schedule — refinement is a steady
    /// drip, not a cooling batch run).
    pub lr: f32,
    /// Negative samples per positive edge.
    pub negatives: usize,
}

impl RefineConfig {
    /// A refinement schedule scaled down from a batch config: 1/10 of an
    /// epoch's samples at 1/5 of the initial learning rate.
    pub fn from_line(config: &LineConfig) -> Self {
        RefineConfig {
            samples: (config.samples_per_epoch / 10).max(1),
            lr: config.lr * 0.2,
            negatives: config.negatives,
        }
    }
}

/// Live LINE training state: the raw first-order table and the second-order
/// vertex/context tables, before per-half normalisation.
pub struct LineState {
    first: Tensor,
    second_v: Tensor,
    second_c: Tensor,
    half: usize,
    config: LineConfig,
    /// RNG for the base (batch) epochs; refinement uses derived streams.
    base_rng: TensorRng,
    /// Number of completed [`LineState::refine`] passes.
    update_epoch: u64,
}

impl LineState {
    /// Allocates fresh tables exactly as `train_line` does: seed the RNG,
    /// draw `first` then `second_v` uniform in `±0.5/half`, zero `second_c`.
    ///
    /// # Panics
    /// If `config.dim < 2`.
    pub fn init(graph: &ProximityGraph, config: &LineConfig) -> Self {
        assert!(config.dim >= 2, "LineState: dim must be at least 2");
        let n = graph.n_vertices();
        let half = config.dim / 2;
        let mut rng = TensorRng::seed(config.seed);
        let init_bound = 0.5 / half as f32;
        let first = Tensor::rand_uniform(&[n, half], -init_bound, init_bound, &mut rng);
        let second_v = Tensor::rand_uniform(&[n, half], -init_bound, init_bound, &mut rng);
        let second_c = Tensor::zeros(&[n, half]);
        LineState {
            first,
            second_v,
            second_c,
            half,
            config: config.clone(),
            base_rng: rng,
            update_epoch: 0,
        }
    }

    /// Runs the full batch schedule (`epochs × samples_per_epoch` with linear
    /// learning-rate decay) — the body of `train_line`, continued on the
    /// RNG state left by [`LineState::init`].
    ///
    /// # Panics
    /// If the graph has no edges.
    pub fn run_base_epochs(&mut self, graph: &ProximityGraph) {
        assert!(graph.n_edges() > 0, "train_line: graph has no edges");
        let config = self.config.clone();
        let half = self.half;
        let edge_weights: Vec<f32> = graph.edges().iter().map(|&(_, _, w)| w).collect();
        let edge_table = AliasTable::new(&edge_weights);
        let noise_table = Self::noise_table(graph);

        let total_samples = (config.samples_per_epoch * config.epochs).max(1);
        let mut done = 0usize;
        for _epoch in 0..config.epochs {
            for _ in 0..config.samples_per_epoch {
                let progress = done as f32 / total_samples as f32;
                let lr = (config.lr * (1.0 - progress)).max(config.lr * 1e-4);
                done += 1;
                let edge = graph.edges()[edge_table.sample(&mut self.base_rng)];
                step(
                    &mut self.first,
                    &mut self.second_v,
                    &mut self.second_c,
                    edge,
                    done,
                    lr,
                    config.negatives,
                    half,
                    &noise_table,
                    &mut self.base_rng,
                );
            }
        }
    }

    /// One refinement pass over the delta-touched edge set.
    ///
    /// `touched` holds canonical `(u, v)` pairs (as returned by
    /// [`ProximityGraph::merge_counts`]); pairs without a surviving edge in
    /// `graph` (still under threshold) are skipped. The edge alias table is
    /// rebuilt over the touched edges only; the noise table over the full
    /// updated degree distribution. Samples draw from
    /// `TensorRng::seed(mix64(seed ⊕ DOMAIN ⊕ mix64(update_epoch)))`, so the
    /// pass depends only on `(seed, update_epoch, graph, touched)`.
    ///
    /// Returns the number of SGD samples applied (0 if no touched pair is an
    /// edge yet).
    pub fn refine(
        &mut self,
        graph: &ProximityGraph,
        touched: &[(usize, usize)],
        refine: &RefineConfig,
    ) -> usize {
        self.grow(graph);
        let edges = graph.edges();
        let mut touched_edges: Vec<(usize, usize, f32)> = Vec::with_capacity(touched.len());
        for &(u, v) in touched {
            if let Ok(i) = edges.binary_search_by(|&(a, b, _)| (a, b).cmp(&(u, v))) {
                touched_edges.push(edges[i]);
            }
        }
        self.update_epoch += 1;
        if touched_edges.is_empty() {
            return 0;
        }
        let weights: Vec<f32> = touched_edges.iter().map(|&(_, _, w)| w).collect();
        let edge_table = AliasTable::new(&weights);
        let noise_table = Self::noise_table(graph);
        let mut rng = TensorRng::seed(mix64(
            self.config.seed ^ REFINE_DOMAIN ^ mix64(self.update_epoch),
        ));
        let half = self.half;
        for i in 1..=refine.samples {
            let edge = touched_edges[edge_table.sample(&mut rng)];
            step(
                &mut self.first,
                &mut self.second_v,
                &mut self.second_c,
                edge,
                i,
                refine.lr,
                refine.negatives,
                half,
                &noise_table,
                &mut rng,
            );
        }
        refine.samples
    }

    /// Extends the tables to `graph.n_vertices()` rows, initialising each new
    /// vertex's `first` / `second_v` rows from the mean of its neighbours
    /// that already had rows (ids below the old length). A new vertex whose
    /// neighbours are all new too (or which is isolated) gets a seeded
    /// uniform row derived from `(seed, vertex)` — deterministic regardless
    /// of when the vertex arrived. `second_c` rows start at zero, as in the
    /// batch initialisation.
    pub fn grow(&mut self, graph: &ProximityGraph) {
        let old_n = self.first.rows();
        let n = graph.n_vertices();
        if n <= old_n {
            return;
        }
        let half = self.half;
        let init_bound = 0.5 / half as f32;
        let mean_or_seeded = |table: &Tensor, v: usize, domain: u64| -> Vec<f32> {
            let mut acc = vec![0.0f32; half];
            let mut known = 0usize;
            for &(u, _) in graph.neighbors(v) {
                if u < old_n {
                    for (a, &x) in acc.iter_mut().zip(table.row(u)) {
                        *a += x;
                    }
                    known += 1;
                }
            }
            if known > 0 {
                for a in &mut acc {
                    *a /= known as f32;
                }
                acc
            } else {
                let mut rng = TensorRng::seed(mix64(self.config.seed ^ domain ^ mix64(v as u64)));
                let row = Tensor::rand_uniform(&[half], -init_bound, init_bound, &mut rng);
                row.data().to_vec()
            }
        };
        let mut new_first = Vec::with_capacity((n - old_n) * half);
        let mut new_second = Vec::with_capacity((n - old_n) * half);
        for v in old_n..n {
            new_first.extend(mean_or_seeded(&self.first, v, GROW_DOMAIN));
            new_second.extend(mean_or_seeded(&self.second_v, v, GROW_DOMAIN ^ 1));
        }
        self.first = append_rows(&self.first, &new_first, half);
        self.second_v = append_rows(&self.second_v, &new_second, half);
        self.second_c = append_rows(&self.second_c, &vec![0.0; (n - old_n) * half], half);
    }

    fn noise_table(graph: &ProximityGraph) -> AliasTable {
        let degree_pow: Vec<f32> = (0..graph.n_vertices())
            .map(|v| graph.degree(v).powf(0.75))
            .collect();
        AliasTable::new(&degree_pow)
    }

    /// Number of completed refinement passes.
    pub fn update_epoch(&self) -> u64 {
        self.update_epoch
    }

    /// Number of vertices the tables currently cover.
    pub fn len(&self) -> usize {
        self.first.rows()
    }

    /// Whether the tables are empty.
    pub fn is_empty(&self) -> bool {
        self.first.rows() == 0
    }

    /// An embedding snapshot: per-half L2 normalisation then concatenation,
    /// exactly the finish `train_line` performs. Non-destructive — refinement
    /// can continue on the raw tables afterwards.
    pub fn embedding(&self) -> EntityEmbedding {
        let mut first = self.first.clone();
        let mut second_v = self.second_v.clone();
        normalize_rows(&mut first);
        normalize_rows(&mut second_v);
        EntityEmbedding::from_matrix(Tensor::concat_cols(&[&first, &second_v]))
    }

    /// [`LineState::embedding`] consuming the state (the batch path's exit).
    pub fn into_embedding(mut self) -> EntityEmbedding {
        normalize_rows(&mut self.first);
        normalize_rows(&mut self.second_v);
        EntityEmbedding::from_matrix(Tensor::concat_cols(&[&self.first, &self.second_v]))
    }
}

/// One alias-sampled SGD step: alternate the edge direction on step parity,
/// one positive + `negatives` negative updates on the shared first-order
/// table, same again across the vertex × context tables.
#[allow(clippy::too_many_arguments)]
fn step(
    first: &mut Tensor,
    second_v: &mut Tensor,
    second_c: &mut Tensor,
    (u, v, _): (usize, usize, f32),
    step_index: usize,
    lr: f32,
    negatives: usize,
    half: usize,
    noise_table: &AliasTable,
    rng: &mut TensorRng,
) {
    let (src, dst) = if step_index.is_multiple_of(2) {
        (u, v)
    } else {
        (v, u)
    };
    sgd_pair(first, src, dst, true, lr, half);
    for _ in 0..negatives {
        let neg = noise_table.sample(rng);
        if neg != src && neg != dst {
            sgd_pair(first, src, neg, false, lr, half);
        }
    }
    sgd_cross(second_v, second_c, src, dst, true, lr, half);
    for _ in 0..negatives {
        let neg = noise_table.sample(rng);
        if neg != dst {
            sgd_cross(second_v, second_c, src, neg, false, lr, half);
        }
    }
}

/// Returns a new `[rows + extra, half]` tensor with `extra` appended rows.
fn append_rows(table: &Tensor, extra: &[f32], half: usize) -> Tensor {
    debug_assert_eq!(extra.len() % half, 0);
    let mut data = Vec::with_capacity(table.data().len() + extra.len());
    data.extend_from_slice(table.data());
    data.extend_from_slice(extra);
    let rows = data.len() / half;
    Tensor::from_vec(data, &[rows, half])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::train_line;
    use std::collections::BTreeMap;

    fn counts() -> Vec<((usize, usize), u32)> {
        let mut c = Vec::new();
        for a in 0..5usize {
            for b in (a + 1)..5 {
                c.push(((a, b), 4 + (a + b) as u32));
            }
        }
        c
    }

    fn config() -> LineConfig {
        LineConfig {
            dim: 8,
            samples_per_epoch: 2_000,
            epochs: 2,
            ..Default::default()
        }
    }

    #[test]
    fn warm_start_matches_train_line_bitwise() {
        let g = ProximityGraph::from_counts(counts(), 5, 2);
        let batch = train_line(&g, &config());
        let mut state = LineState::init(&g, &config());
        state.run_base_epochs(&g);
        let live = state.embedding();
        assert_eq!(batch.matrix().data(), live.matrix().data());
    }

    #[test]
    fn refine_is_replay_reproducible() {
        let g0 = ProximityGraph::from_counts(counts(), 5, 2);
        let run = || {
            let mut acc = BTreeMap::new();
            ProximityGraph::merge_counts(&mut acc, counts());
            let mut state = LineState::init(&g0, &config());
            state.run_base_epochs(&g0);
            let rc = RefineConfig::from_line(&config());
            for delta in [
                vec![((0usize, 5usize), 9u32)],
                vec![((5, 6), 7), ((1, 5), 6)],
            ] {
                let touched = ProximityGraph::merge_counts(&mut acc, delta);
                let n = acc.keys().map(|&(_, b)| b + 1).max().unwrap();
                let g = ProximityGraph::from_counts(acc.clone(), n, 2);
                state.refine(&g, &touched, &rc);
            }
            state.embedding()
        };
        let a = run();
        let b = run();
        assert_eq!(a.matrix().data(), b.matrix().data());
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn grow_initialises_new_vertex_from_neighbor_mean() {
        let g0 = ProximityGraph::from_counts(counts(), 5, 2);
        let mut state = LineState::init(&g0, &config());
        state.run_base_epochs(&g0);
        let before: Vec<Vec<f32>> = (0..5).map(|v| state.first.row(v).to_vec()).collect();
        // vertex 5 attaches to 0 and 1; vertex 6 attaches only to 5 (all-new
        // neighbourhood → seeded row)
        let mut all = counts();
        all.extend([((0, 5), 9u32), ((1, 5), 9), ((5, 6), 9)]);
        let g = ProximityGraph::from_counts(all, 7, 2);
        state.grow(&g);
        assert_eq!(state.len(), 7);
        let expected: Vec<f32> = before[0]
            .iter()
            .zip(&before[1])
            .map(|(&a, &b)| (a + b) / 2.0)
            .collect();
        assert_eq!(state.first.row(5), &expected[..]);
        // seeded fallback row: non-zero, bounded, deterministic
        let seeded = state.first.row(6).to_vec();
        assert!(seeded.iter().any(|&x| x != 0.0));
        assert!(seeded.iter().all(|&x| x.abs() <= 0.5 / 4.0 + 1e-6));
        let mut state2 = LineState::init(&g0, &config());
        state2.run_base_epochs(&g0);
        state2.grow(&g);
        assert_eq!(state2.first.row(6), &seeded[..]);
    }

    #[test]
    fn refine_with_no_surviving_edges_is_a_noop_sample_count() {
        let g = ProximityGraph::from_counts(counts(), 5, 2);
        let mut state = LineState::init(&g, &config());
        state.run_base_epochs(&g);
        let rc = RefineConfig::from_line(&config());
        // touched pair that never crossed the threshold → no edge to sample
        let applied = state.refine(&g, &[(0, 4000)], &rc);
        assert_eq!(applied, 0);
        assert_eq!(state.update_epoch(), 1);
    }

    #[test]
    fn distinct_update_epochs_draw_distinct_streams() {
        let g = ProximityGraph::from_counts(counts(), 5, 2);
        let rc = RefineConfig {
            samples: 500,
            lr: 0.01,
            negatives: 5,
        };
        let touched: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v, _)| (u, v)).collect();
        let mut state = LineState::init(&g, &config());
        state.run_base_epochs(&g);
        let e0 = state.embedding();
        state.refine(&g, &touched, &rc);
        let e1 = state.embedding();
        state.refine(&g, &touched, &rc);
        let e2 = state.embedding();
        assert_ne!(e0.matrix().data(), e1.matrix().data());
        assert_ne!(e1.matrix().data(), e2.matrix().data());
    }
}
