//! LINE network embedding (Tang et al., WWW 2015) — the method the paper
//! uses (§III-A.2) to turn the entity proximity graph into entity vectors.
//!
//! Both proximities are trained with negative sampling and plain sequential
//! SGD over alias-sampled edges:
//!
//! * **first order** — `O₁ = −Σ w_ij log σ(uᵢ·uⱼ)`; both endpoints share one
//!   table.
//! * **second order** — `O₂ = −Σ w_ij log P(eⱼ|eᵢ)`, approximated with K
//!   negatives drawn from `P_n(v) ∝ deg(v)^{3/4}`; vertices have separate
//!   *vertex* and *context* tables.
//!
//! Every sample is one step of the reference implementation's update
//! (LINE's `Update(vec_u, vec_v, vec_error, label)`, in the private
//! `negsample` core shared with [`crate::skipgram`]):
//! the source vertex's row is read-only for the step, the positive and the
//! K negative target rows move at once, and the source takes the summed
//! error after the step. The dot product has the fixed 32-lane structure of
//! [`imre_tensor::dot`], so the bytes do not depend on the SIMD tier.
//!
//! The two orders share no table, and no draw depends on a table value, so
//! each order is one sequential pass over the same sample stream. With two
//! or more compute threads the two passes run on two threads, each drawing
//! the whole stream and updating only its own tables; with one thread, one
//! pass updates both. Either way each order sees the same updates in the
//! same order, so the bytes do not depend on the thread count.
//!
//! The final entity embedding is the concatenation of the first-order vector
//! and the second-order vertex vector (paper: "obtain the embedding vector
//! for a vertex by concatenating corresponding embedding vectors learned
//! from the two models").

use crate::alias::AliasTable;
use crate::negsample::{decayed_lr, Noise, Tables};
use crate::proximity::ProximityGraph;
use imre_tensor::{simd, Tensor, TensorRng};

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

/// The fraction of [`LineConfig::lr`] the rate decays to.
const LR_FLOOR: f32 = 1e-4;

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
/// With two or more threads in the current compute pool the second-order
/// pass runs on one scoped thread, at the lowest scheduling priority, beside
/// the first-order pass on the caller; the bytes are the same at any pool
/// size.
///
/// # Panics
/// If the graph has no edges, or `config.dim` is not an even width of at
/// least 2: the two orders take half of it each.
pub fn train_line(graph: &ProximityGraph, config: &LineConfig) -> EntityEmbedding {
    assert!(graph.n_edges() > 0, "train_line: graph has no edges");
    assert!(
        config.dim >= 2 && config.dim.is_multiple_of(2),
        "train_line: dim must be even and at least 2, got {}",
        config.dim
    );
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
    let sampler = Sampler {
        edges,
        edge_table: AliasTable::new(&edge_weights),
        noise: Noise::new((0..n).map(|v| graph.degree(v)), config.negatives),
        config,
    };

    if imre_tensor::pool::current_threads() >= 2 {
        // One scoped spawn per call, not a pool worker: the pool also runs
        // the serving engine's kernels and must not be parked for a pass.
        // The spawned pass runs on the caller's SIMD tier, so a scoped
        // `simd::with_backend` covers both orders.
        let second_rng = rng.clone();
        let tier = simd::backend();
        std::thread::scope(|scope| {
            let second = scope.spawn(|| {
                lower_thread_priority();
                simd::with_backend(tier, || {
                    sampler.pass(None, Some((&mut second_v, &mut second_c)), second_rng)
                })
            });
            sampler.pass(Some(&mut first), None, rng);
            second.join().expect("second-order LINE pass panicked");
        });
    } else {
        sampler.pass(Some(&mut first), Some((&mut second_v, &mut second_c)), rng);
    }

    normalize_rows(&mut first);
    normalize_rows(&mut second_v);
    EntityEmbedding::from_matrix(Tensor::concat_cols(&[&first, &second_v]))
}

/// Drops the calling thread to the lowest scheduling priority, best effort.
/// The extra pass is background work that the caller did not ask a core
/// for: at nice 19 a serving thread that wakes on that core takes it at
/// once. On Linux, `setpriority(PRIO_PROCESS, 0, ..)` names the calling
/// thread only, and the thread ends with the pass.
#[cfg(target_os = "linux")]
fn lower_thread_priority() {
    use std::os::raw::{c_int, c_uint};
    extern "C" {
        fn setpriority(which: c_int, who: c_uint, prio: c_int) -> c_int;
    }
    const PRIO_PROCESS: c_int = 0;
    // SAFETY: a plain system call on integers; no memory is shared. A
    // failure leaves the priority unchanged, which is harmless.
    unsafe {
        setpriority(PRIO_PROCESS, 0, 19);
    }
}

#[cfg(not(target_os = "linux"))]
fn lower_thread_priority() {}

/// What every sample pass draws from: the edge list with its alias table,
/// the `deg^{3/4}` noise table, and the config's schedule.
struct Sampler<'a> {
    edges: &'a [(usize, usize, f32)],
    edge_table: AliasTable,
    noise: Noise,
    config: &'a LineConfig,
}

impl Sampler<'_> {
    /// One sample pass: every sample's edge (direction alternating on step
    /// parity), its `negatives` first-order and its `negatives`
    /// second-order noise vertices, all drawn from `rng` in that order
    /// whichever tables are given. It applies the updates of the tables it
    /// was given: a positive and the negatives on the shared `first` table,
    /// and the same across the `second` vertex × context tables.
    ///
    /// No draw reads a table and the orders share no table, so each order's
    /// update sequence is the same whether one pass updates both or two
    /// passes from clones of one `rng` update one each.
    fn pass(
        &self,
        mut first: Option<&mut Tensor>,
        mut second: Option<(&mut Tensor, &mut Tensor)>,
        mut rng: TensorRng,
    ) {
        let config = self.config;
        let samples = config.samples_per_epoch * config.epochs;
        let mut err = vec![0.0; config.dim / 2];
        for done in 0..samples {
            let lr = decayed_lr(config.lr, done, samples, LR_FLOOR);
            let (u, v, _) = self.edges[self.edge_table.sample(&mut rng)];
            let (src, dst) = if (done + 1).is_multiple_of(2) {
                (u, v)
            } else {
                (v, u)
            };
            match first.as_deref_mut() {
                Some(first) => {
                    let tables = Tables::One(first);
                    self.noise.step(tables, src, dst, lr, &mut err, &mut rng);
                }
                None => self.noise.skip(&mut rng),
            }
            match second.as_mut() {
                Some((vertex, context)) => {
                    let tables = Tables::Two(vertex, context);
                    self.noise.step(tables, src, dst, lr, &mut err, &mut rng);
                }
                None => self.noise.skip(&mut rng),
            }
        }
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

    #[cfg(target_os = "linux")]
    #[test]
    fn lower_thread_priority_renices_only_the_calling_thread() {
        // Field 19 of `stat`, the 17th after the parenthesised name.
        let nice = || -> i32 {
            let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
            let fields = stat.rsplit(')').next().unwrap();
            fields.split_whitespace().nth(16).unwrap().parse().unwrap()
        };
        let before = nice();
        let inside = std::thread::spawn(move || {
            lower_thread_priority();
            nice()
        });
        assert_eq!(inside.join().unwrap(), 19);
        assert_eq!(nice(), before);
    }
}
