//! LINE network embedding (Tang et al., WWW 2015) — the method the paper
//! uses (§III-A.2) to turn the entity proximity graph into entity vectors.
//!
//! Both proximities are trained with negative sampling and asynchronous SGD
//! over alias-sampled edges, exactly as in the reference implementation:
//!
//! * **first order** — `O₁ = −Σ w_ij log σ(uᵢ·uⱼ)`; both endpoints share one
//!   table.
//! * **second order** — `O₂ = −Σ w_ij log P(eⱼ|eᵢ)`, approximated with K
//!   negatives drawn from `P_n(v) ∝ deg(v)^{3/4}`; vertices have separate
//!   *vertex* and *context* tables.
//!
//! The final entity embedding is the concatenation of the first-order vector
//! and the second-order vertex vector (paper: "obtain the embedding vector
//! for a vertex by concatenating corresponding embedding vectors learned
//! from the two models").

use crate::alias::AliasTable;
use crate::proximity::ProximityGraph;
use imre_tensor::{sigmoid_scalar, Tensor, TensorRng};

/// LINE training hyperparameters.
#[derive(Debug, Clone)]
pub struct LineConfig {
    /// Total embedding width; half is first-order, half second-order.
    pub dim: usize,
    /// Negative samples per positive edge (paper follows LINE's K=5).
    pub negatives: usize,
    /// Edge samples per epoch.
    pub samples_per_epoch: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Initial learning rate (decays linearly to 1e-4 of itself).
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LineConfig {
    fn default() -> Self {
        LineConfig {
            dim: 64,
            negatives: 5,
            samples_per_epoch: 100_000,
            epochs: 4,
            lr: 0.025,
            seed: 31,
        }
    }
}

/// Learned entity embeddings: `[n_vertices, dim]`.
pub struct EntityEmbedding {
    vectors: Tensor,
}

impl EntityEmbedding {
    /// The embedding matrix (`[n, dim]`).
    pub fn matrix(&self) -> &Tensor {
        &self.vectors
    }

    /// The embedding of one entity.
    pub fn vector(&self, entity: usize) -> &[f32] {
        self.vectors.row(entity)
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.vectors.cols()
    }

    /// Number of embedded entities.
    pub fn len(&self) -> usize {
        self.vectors.rows()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.rows() == 0
    }

    /// The paper's implicit-mutual-relation vector `MR_ij = U_j − U_i`.
    pub fn mutual_relation(&self, head: usize, tail: usize) -> Tensor {
        let mut out = Tensor::zeros(&[self.dim()]);
        self.mutual_relation_into(head, tail, &mut out);
        out
    }

    /// [`EntityEmbedding::mutual_relation`] into a caller-provided `[dim]`
    /// tensor (e.g. a pooled buffer on the serving hot path). Bit-identical
    /// to the allocating variant.
    ///
    /// # Panics
    /// If `out` does not hold exactly `dim` elements.
    pub fn mutual_relation_into(&self, head: usize, tail: usize, out: &mut Tensor) {
        assert_eq!(
            out.len(),
            self.dim(),
            "mutual_relation_into: destination holds {} elements, need {}",
            out.len(),
            self.dim()
        );
        let h = self.vectors.row(head);
        let t = self.vectors.row(tail);
        for ((o, &tj), &hj) in out.data_mut().iter_mut().zip(t).zip(h) {
            *o = tj - hj;
        }
    }

    /// Wraps a precomputed matrix (for tests and serialization round-trips).
    pub fn from_matrix(vectors: Tensor) -> Self {
        EntityEmbedding { vectors }
    }
}

/// Trains LINE on a proximity graph.
///
/// Vertices with no edges keep their random initial vectors (the paper notes
/// this failure mode in its future-work section; they are still usable, just
/// uninformative).
///
/// # Panics
/// If the graph has no edges or `config.dim < 2`.
pub fn train_line(graph: &ProximityGraph, config: &LineConfig) -> EntityEmbedding {
    assert!(graph.n_edges() > 0, "train_line: graph has no edges");
    assert!(config.dim >= 2, "train_line: dim must be at least 2");
    let n = graph.n_vertices();
    let half = config.dim / 2;
    // Draw order is part of the output: `first`, then `second_v`, then the
    // sample loop, all from one stream.
    let mut rng = TensorRng::seed(config.seed);
    let init_bound = 0.5 / half as f32;
    let mut first = Tensor::rand_uniform(&[n, half], -init_bound, init_bound, &mut rng);
    let mut second_v = Tensor::rand_uniform(&[n, half], -init_bound, init_bound, &mut rng);
    let mut second_c = Tensor::zeros(&[n, half]);

    let edges = graph.edges();
    let edge_weights: Vec<f32> = edges.iter().map(|&(_, _, w)| w).collect();
    let edge_table = AliasTable::new(&edge_weights);
    let degree_pow: Vec<f32> = (0..n).map(|v| graph.degree(v).powf(0.75)).collect();
    let noise_table = AliasTable::new(&degree_pow);

    let samples = config.samples_per_epoch * config.epochs;
    let total_samples = samples.max(1);
    for done in 0..samples {
        let progress = done as f32 / total_samples as f32;
        let lr = (config.lr * (1.0 - progress)).max(config.lr * 1e-4);
        let edge = edges[edge_table.sample(&mut rng)];
        step(
            &mut first,
            &mut second_v,
            &mut second_c,
            edge,
            done + 1,
            lr,
            config.negatives,
            half,
            &noise_table,
            &mut rng,
        );
    }

    normalize_rows(&mut first);
    normalize_rows(&mut second_v);
    EntityEmbedding::from_matrix(Tensor::concat_cols(&[&first, &second_v]))
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

/// One negative-sampling SGD update where both vectors live in `table`.
fn sgd_pair(table: &mut Tensor, a: usize, b: usize, positive: bool, lr: f32, dim: usize) {
    let (va, vb) = two_rows(table, a, b, dim);
    let x: f32 = va.iter().zip(vb.iter()).map(|(&p, &q)| p * q).sum();
    let label = if positive { 1.0 } else { 0.0 };
    let g = lr * (label - sigmoid_scalar(x));
    for i in 0..dim {
        let da = g * vb[i];
        let db = g * va[i];
        va[i] += da;
        vb[i] += db;
    }
}

/// One update where the source lives in `vertex` and target in `context`.
fn sgd_cross(
    vertex: &mut Tensor,
    context: &mut Tensor,
    src: usize,
    dst: usize,
    positive: bool,
    lr: f32,
    dim: usize,
) {
    let vs = &mut vertex.data_mut()[src * dim..(src + 1) * dim];
    let cs = &mut context.data_mut()[dst * dim..(dst + 1) * dim];
    let x: f32 = vs.iter().zip(cs.iter()).map(|(&p, &q)| p * q).sum();
    let label = if positive { 1.0 } else { 0.0 };
    let g = lr * (label - sigmoid_scalar(x));
    for i in 0..dim {
        let dv = g * cs[i];
        let dc = g * vs[i];
        vs[i] += dv;
        cs[i] += dc;
    }
}

/// Disjoint mutable views of rows `a` and `b`.
///
/// # Panics
/// If `a == b` (callers exclude self-pairs).
fn two_rows(table: &mut Tensor, a: usize, b: usize, dim: usize) -> (&mut [f32], &mut [f32]) {
    assert_ne!(a, b, "two_rows: aliasing row");
    let data = table.data_mut();
    if a < b {
        let (lo, hi) = data.split_at_mut(b * dim);
        (&mut lo[a * dim..(a + 1) * dim], &mut hi[..dim])
    } else {
        let (lo, hi) = data.split_at_mut(a * dim);
        let (bslice, aslice) = (&mut lo[b * dim..(b + 1) * dim], &mut hi[..dim]);
        (aslice, bslice)
    }
}

fn normalize_rows(t: &mut Tensor) {
    let cols = t.cols();
    for row in t.data_mut().chunks_mut(cols) {
        let norm: f32 = row.iter().map(|&x| x * x).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for x in row {
                *x /= norm;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two dense communities joined by a single weak bridge.
    fn two_community_graph() -> ProximityGraph {
        let mut counts = Vec::new();
        // community A: 0..6, community B: 6..12, all intra-pairs co-occur
        for a in 0..6usize {
            for b in (a + 1)..6 {
                counts.push(((a, b), 20u32));
            }
        }
        for a in 6..12usize {
            for b in (a + 1)..12 {
                counts.push(((a, b), 20u32));
            }
        }
        counts.push(((0, 6), 2)); // bridge
        ProximityGraph::from_counts(counts, 12, 2)
    }

    fn fast_config(seed: u64) -> LineConfig {
        LineConfig {
            dim: 16,
            negatives: 5,
            samples_per_epoch: 30_000,
            epochs: 2,
            lr: 0.05,
            seed,
        }
    }

    #[test]
    fn embedding_shape_and_finiteness() {
        let g = two_community_graph();
        let emb = train_line(&g, &fast_config(1));
        assert_eq!(emb.len(), 12);
        assert_eq!(emb.dim(), 16);
        assert!(emb.matrix().data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn communities_separate_in_embedding_space() {
        let g = two_community_graph();
        let emb = train_line(&g, &fast_config(2));
        // mean intra-community cosine must exceed inter-community cosine
        let cos = |a: usize, b: usize| {
            let va = Tensor::from_vec(emb.vector(a).to_vec(), &[16]);
            let vb = Tensor::from_vec(emb.vector(b).to_vec(), &[16]);
            va.cosine(&vb)
        };
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for a in 0..6 {
            for b in 0..6 {
                if a < b {
                    intra.push(cos(a, b));
                }
            }
            for b in 6..12 {
                inter.push(cos(a, b));
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&intra) > mean(&inter) + 0.2,
            "intra {} vs inter {}",
            mean(&intra),
            mean(&inter)
        );
    }

    #[test]
    fn mutual_relation_is_difference() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 5.0], &[2, 2]);
        let emb = EntityEmbedding::from_matrix(m);
        let mr = emb.mutual_relation(0, 1);
        assert_eq!(mr.data(), &[2.0, 3.0]);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = two_community_graph();
        let cfg = LineConfig {
            samples_per_epoch: 5_000,
            epochs: 1,
            ..fast_config(7)
        };
        let a = train_line(&g, &cfg);
        let b = train_line(&g, &cfg);
        assert_eq!(a.matrix().data(), b.matrix().data());
    }

    #[test]
    fn rows_are_normalised_per_half() {
        let g = two_community_graph();
        let emb = train_line(&g, &fast_config(3));
        for v in 0..emb.len() {
            let row = emb.vector(v);
            let first: f32 = row[..8].iter().map(|x| x * x).sum::<f32>().sqrt();
            let second: f32 = row[8..].iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((first - 1.0).abs() < 1e-4, "first-order half norm {first}");
            assert!(
                (second - 1.0).abs() < 1e-4,
                "second-order half norm {second}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no edges")]
    fn empty_graph_panics() {
        let g = ProximityGraph::from_counts(Vec::<((usize, usize), u32)>::new(), 3, 1);
        let _ = train_line(&g, &fast_config(1));
    }

    #[test]
    fn two_rows_split_correctness() {
        let mut t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[3, 2]);
        {
            let (a, b) = two_rows(&mut t, 2, 0, 2);
            assert_eq!(a, &[4.0, 5.0]);
            assert_eq!(b, &[0.0, 1.0]);
            a[0] = 9.0;
        }
        assert_eq!(t.at(2, 0), 9.0);
    }
}
