//! The HNSW graph: deterministic construction and zero-allocation search.
//!
//! Hierarchical Navigable Small World (Malkov & Yashunin, 2016) with the
//! simple closest-M neighbor selection. Distances are squared Euclidean
//! from [`imre_tensor::l2sq`], whose fixed 32-lane accumulation gives the
//! same bits on every SIMD tier. All priority decisions operate on
//! packed `u64` keys — distance bits in the high half, node id in the low
//! half — which gives a total order with id tie-breaks for free (squared
//! distances are non-negative, so their IEEE-754 bit patterns sort like the
//! values themselves).

use imre_tensor::{l2sq, mix64};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Hard cap on a node's top layer; `u8`-sized and far above what the
/// geometric level distribution reaches for any realistic corpus.
pub(crate) const MAX_LEVEL: usize = 15;

/// Backing storage for the vector matrix: owned (built or stream-loaded
/// indices) or borrowed zero-copy from an external allocation — in practice
/// the 64-byte-aligned vectors block of a memory-mapped v3 bundle section.
/// The `_keep` handle (the mapping) outlives every borrow by construction.
pub(crate) enum VecStorage {
    Owned(Vec<f32>),
    Borrowed {
        ptr: *const f32,
        len: usize,
        _keep: Arc<dyn Any + Send + Sync>,
    },
}

// SAFETY: the borrowed variant is an immutable view of memory owned by the
// `Send + Sync` keepalive; nothing ever writes through `ptr`.
#[allow(unsafe_code)]
unsafe impl Send for VecStorage {}
#[allow(unsafe_code)]
unsafe impl Sync for VecStorage {}

impl VecStorage {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[f32] {
        match self {
            VecStorage::Owned(v) => v,
            // SAFETY: constructor contract — `ptr..ptr+len` stays valid and
            // unmodified for as long as `_keep` is alive.
            #[allow(unsafe_code)]
            VecStorage::Borrowed { ptr, len, .. } => unsafe {
                std::slice::from_raw_parts(*ptr, *len)
            },
        }
    }

    fn is_borrowed(&self) -> bool {
        matches!(self, VecStorage::Borrowed { .. })
    }
}

impl fmt::Debug for VecStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VecStorage({}, {} floats)",
            if self.is_borrowed() {
                "borrowed"
            } else {
                "owned"
            },
            self.as_slice().len()
        )
    }
}

/// Construction and search parameters for [`AnnIndex`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HnswConfig {
    /// Max out-degree per node on layers ≥ 1 (layer 0 allows `2m`).
    pub m: usize,
    /// Beam width while inserting a node.
    pub ef_construction: usize,
    /// Default beam width at query time (raised to `k` when `k` is larger).
    pub ef_search: usize,
    /// Seed folded into every node's layer assignment.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 12,
            ef_construction: 80,
            ef_search: 48,
            seed: 0,
        }
    }
}

impl HnswConfig {
    /// The default configuration with a caller-chosen seed (typically the
    /// training seed, extending the run's determinism contract to the index).
    pub fn with_seed(seed: u64) -> Self {
        HnswConfig {
            seed,
            ..HnswConfig::default()
        }
    }
}

/// Why an index could not be built (or deserialized).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnError {
    /// The input arrays are inconsistent, empty, or contain non-finite
    /// values, or the configuration is unusable.
    BadInput(String),
}

impl fmt::Display for AnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnError::BadInput(msg) => write!(f, "ann: {msg}"),
        }
    }
}

impl std::error::Error for AnnError {}

/// One search result: a training-bag id and its squared L2 distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Index of the training bag in insertion order.
    pub id: u32,
    /// Squared Euclidean distance to the query.
    pub dist: f32,
}

/// Reusable per-caller search state; see the crate docs for the allocation
/// contract. One scratch serves any number of indices and queries, growing
/// its buffers to high-water capacity and never shrinking.
#[derive(Default)]
pub struct SearchScratch {
    /// Epoch-stamped visited marks, indexed by node id.
    visited: Vec<u32>,
    epoch: u32,
    /// Min-heap of packed keys: the expansion frontier.
    frontier: Vec<u64>,
    /// Min-heap of *inverted* packed keys: the bounded result beam, with
    /// the current-worst entry at the top.
    beam: Vec<u64>,
    /// Final neighbors, sorted ascending by `(dist, id)`.
    out: Vec<Neighbor>,
}

impl SearchScratch {
    /// An empty scratch; the first queries against an index warm it up.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// Starts a fresh visited epoch covering `n` nodes.
    fn begin(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.frontier.clear();
        self.beam.clear();
    }

    #[inline]
    fn visit(&mut self, id: u32) -> bool {
        let slot = &mut self.visited[id as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// A deterministic HNSW index over fixed-dimension `f32` vectors, each
/// carrying a relation label. See the crate docs for the determinism and
/// allocation contracts.
#[derive(Debug)]
pub struct AnnIndex {
    cfg: HnswConfig,
    dim: usize,
    /// Row-major `[n, dim]` vectors, insertion order (owned or mmap-borrowed).
    vectors: VecStorage,
    /// Relation label per vector.
    labels: Vec<u32>,
    /// Top layer per node.
    levels: Vec<u8>,
    /// `links[node][layer]` = out-neighbors, `layer ∈ 0..=levels[node]`.
    links: Vec<Vec<Vec<u32>>>,
    /// Entry point: the highest-layer node (lowest id on ties).
    entry: u32,
    /// Highest populated layer.
    max_level: u8,
}

/// `key = distance_bits << 32 | id`: totally ordered, ties break by id.
#[inline]
fn pack(dist: f32, id: u32) -> u64 {
    // Guard against NaN sneaking in through a degenerate query: NaN bits
    // would scramble the order, +inf keeps it total.
    let d = if dist.is_nan() { f32::INFINITY } else { dist };
    ((d.to_bits() as u64) << 32) | id as u64
}

#[inline]
fn key_id(key: u64) -> u32 {
    key as u32
}

#[inline]
fn key_dist(key: u64) -> f32 {
    f32::from_bits((key >> 32) as u32)
}

/// Min-heap push on a plain `Vec<u64>`.
fn heap_push(h: &mut Vec<u64>, v: u64) {
    h.push(v);
    let mut i = h.len() - 1;
    while i > 0 {
        let p = (i - 1) / 2;
        if h[p] <= h[i] {
            break;
        }
        h.swap(p, i);
        i = p;
    }
}

/// Min-heap pop on a plain `Vec<u64>`.
fn heap_pop(h: &mut Vec<u64>) -> Option<u64> {
    let last = h.pop()?;
    if h.is_empty() {
        return Some(last);
    }
    let top = std::mem::replace(&mut h[0], last);
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut s = i;
        if l < h.len() && h[l] < h[s] {
            s = l;
        }
        if r < h.len() && h[r] < h[s] {
            s = r;
        }
        if s == i {
            return Some(top);
        }
        h.swap(i, s);
        i = s;
    }
}

/// Geometric layer assignment from `(seed, id)` alone.
fn level_for(seed: u64, id: u64, ml: f64) -> u8 {
    let bits = mix64(seed ^ mix64(id ^ 0xA076_1D64_78BD_642F));
    // 53 mantissa-ish bits to a uniform in (0, 1): never exactly 0, so the
    // log below is always finite.
    let u = ((bits >> 11) as f64 + 0.5) * (1.0 / 9_007_199_254_740_992.0);
    ((-u.ln() * ml) as usize).min(MAX_LEVEL) as u8
}

/// Exact brute-force kNN over row-major `[n, dim]` vectors — the reference
/// the property tests hold [`AnnIndex::search`] against, and a sanity tool
/// for offline analysis. Returns up to `k` neighbors sorted ascending by
/// `(dist, id)`.
///
/// # Panics
/// If `dim == 0`, `vectors` is not a whole number of rows, or
/// `query.len() != dim`.
pub fn exact_knn(dim: usize, vectors: &[f32], query: &[f32], k: usize) -> Vec<Neighbor> {
    assert!(dim > 0 && vectors.len().is_multiple_of(dim));
    assert_eq!(
        query.len(),
        dim,
        "exact_knn: query of len {} for {dim}-d vectors",
        query.len()
    );
    let mut keys: Vec<u64> = vectors
        .chunks_exact(dim)
        .enumerate()
        .map(|(i, row)| pack(l2sq(query, row), i as u32))
        .collect();
    keys.sort_unstable();
    keys.truncate(k);
    keys.into_iter()
        .map(|key| Neighbor {
            id: key_id(key),
            dist: key_dist(key),
        })
        .collect()
}

/// Borrowed view of every [`AnnIndex`] field, handed to the serializer.
pub(crate) struct RawParts<'a> {
    pub cfg: &'a HnswConfig,
    pub dim: usize,
    pub vectors: &'a [f32],
    pub labels: &'a [u32],
    pub levels: &'a [u8],
    pub links: &'a [Vec<Vec<u32>>],
    pub entry: u32,
    pub max_level: u8,
}

/// Owned field set assembled by the deserializer; the caller runs
/// structural validation on the resulting index.
pub(crate) struct OwnedParts {
    pub cfg: HnswConfig,
    pub dim: usize,
    pub vectors: VecStorage,
    pub labels: Vec<u32>,
    pub levels: Vec<u8>,
    pub links: Vec<Vec<Vec<u32>>>,
    pub entry: u32,
    pub max_level: u8,
}

impl AnnIndex {
    /// Builds an index over `n = labels.len()` vectors (`vectors` is the
    /// row-major `[n, dim]` matrix). Construction is single-threaded and
    /// deterministic — see the crate docs.
    ///
    /// Fails on empty input, mismatched lengths, non-finite vector
    /// components (a diverged model must not produce a poisoned index), or
    /// a degenerate configuration.
    pub fn build(
        dim: usize,
        vectors: Vec<f32>,
        labels: Vec<u32>,
        cfg: HnswConfig,
    ) -> Result<AnnIndex, AnnError> {
        if dim == 0 {
            return Err(AnnError::BadInput("dim must be positive".into()));
        }
        if cfg.m < 2 || cfg.ef_construction == 0 {
            return Err(AnnError::BadInput(format!(
                "degenerate config: m={} ef_construction={}",
                cfg.m, cfg.ef_construction
            )));
        }
        let n = labels.len();
        if n == 0 {
            return Err(AnnError::BadInput("no vectors to index".into()));
        }
        if n > u32::MAX as usize / 2 {
            return Err(AnnError::BadInput(format!("{n} vectors exceed id space")));
        }
        if vectors.len() != n * dim {
            return Err(AnnError::BadInput(format!(
                "vector buffer holds {} floats, expected {n} x {dim}",
                vectors.len()
            )));
        }
        if let Some(pos) = vectors.iter().position(|v| !v.is_finite()) {
            return Err(AnnError::BadInput(format!(
                "non-finite component in vector {}",
                pos / dim
            )));
        }

        let ml = 1.0 / (cfg.m as f64).ln();
        let levels: Vec<u8> = (0..n).map(|i| level_for(cfg.seed, i as u64, ml)).collect();
        let links = levels
            .iter()
            .map(|&l| vec![Vec::new(); l as usize + 1])
            .collect();
        let mut index = AnnIndex {
            cfg,
            dim,
            vectors: VecStorage::Owned(vectors),
            labels,
            levels,
            links,
            entry: 0,
            max_level: 0,
        };
        index.max_level = index.levels[0];
        let mut scratch = SearchScratch::new();
        for id in 1..n as u32 {
            index.insert(id, &mut scratch);
        }
        Ok(index)
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the index holds no vectors (never true for a built index).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The build configuration (seed included).
    pub fn config(&self) -> &HnswConfig {
        &self.cfg
    }

    /// Relation label of every indexed vector, insertion order.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The indexed vector for `id`.
    pub fn vector(&self, id: u32) -> &[f32] {
        let d = self.dim;
        &self.vectors.as_slice()[id as usize * d..(id as usize + 1) * d]
    }

    /// Whether the vector matrix borrows from an external mapping rather
    /// than owning its storage.
    pub fn is_borrowed(&self) -> bool {
        self.vectors.is_borrowed()
    }

    pub(crate) fn raw_parts(&self) -> RawParts<'_> {
        RawParts {
            cfg: &self.cfg,
            dim: self.dim,
            vectors: self.vectors.as_slice(),
            labels: &self.labels,
            levels: &self.levels,
            links: &self.links,
            entry: self.entry,
            max_level: self.max_level,
        }
    }

    pub(crate) fn from_raw_parts(parts: OwnedParts) -> AnnIndex {
        AnnIndex {
            cfg: parts.cfg,
            dim: parts.dim,
            vectors: parts.vectors,
            labels: parts.labels,
            levels: parts.levels,
            links: parts.links,
            entry: parts.entry,
            max_level: parts.max_level,
        }
    }

    /// Max out-degree on `layer`.
    fn m_max(&self, layer: usize) -> usize {
        if layer == 0 {
            2 * self.cfg.m
        } else {
            self.cfg.m
        }
    }

    /// Inserts node `id`; every node `< id` is already linked in.
    fn insert(&mut self, id: u32, scratch: &mut SearchScratch) {
        let q: Vec<f32> = self.vector(id).to_vec();
        let top = self.levels[id as usize];
        let mut ep = pack(l2sq(&q, self.vector(self.entry)), self.entry);

        // Greedy descent through the layers above the new node's top.
        let mut layer = self.max_level as usize;
        while layer > top as usize {
            self.search_layer(&q, ep, 1, layer, scratch);
            ep = pack(scratch.out[0].dist, scratch.out[0].id);
            layer -= 1;
        }

        // Link layers from min(top, max_level) down to 0.
        let mut layer = (top.min(self.max_level)) as usize;
        loop {
            self.search_layer(&q, ep, self.cfg.ef_construction, layer, scratch);
            ep = pack(scratch.out[0].dist, scratch.out[0].id);
            let chosen: Vec<u32> = scratch
                .out
                .iter()
                .take(self.cfg.m)
                .map(|nb| nb.id)
                .collect();
            for &nb in &chosen {
                self.links[nb as usize][layer].push(id);
                if self.links[nb as usize][layer].len() > self.m_max(layer) {
                    self.shrink(nb, layer);
                }
            }
            self.links[id as usize][layer] = chosen;
            if layer == 0 {
                break;
            }
            layer -= 1;
        }

        if top > self.max_level {
            self.max_level = top;
            self.entry = id;
        }
    }

    /// Prunes `node`'s `layer` list back to the `m_max` closest neighbors,
    /// ties broken by id.
    fn shrink(&mut self, node: u32, layer: usize) {
        let m_max = self.m_max(layer);
        let base = node as usize * self.dim;
        let vs = self.vectors.as_slice();
        let mut keys: Vec<u64> = self.links[node as usize][layer]
            .iter()
            .map(|&nb| {
                let d = l2sq(
                    &vs[base..base + self.dim],
                    &vs[nb as usize * self.dim..(nb as usize + 1) * self.dim],
                );
                pack(d, nb)
            })
            .collect();
        keys.sort_unstable();
        keys.truncate(m_max);
        let list = &mut self.links[node as usize][layer];
        list.clear();
        list.extend(keys.into_iter().map(key_id));
    }

    /// Best-first beam search on one layer from entry key `ep`; leaves up
    /// to `ef` neighbors in `scratch.out`, sorted ascending by `(dist, id)`.
    fn search_layer(
        &self,
        q: &[f32],
        ep: u64,
        ef: usize,
        layer: usize,
        scratch: &mut SearchScratch,
    ) {
        scratch.begin(self.len());
        scratch.visit(key_id(ep));
        heap_push(&mut scratch.frontier, ep);
        heap_push(&mut scratch.beam, !ep);

        while let Some(cand) = heap_pop(&mut scratch.frontier) {
            let worst = !scratch.beam[0];
            if cand > worst && scratch.beam.len() >= ef {
                break;
            }
            for &nb in &self.links[key_id(cand) as usize][layer] {
                if !scratch.visit(nb) {
                    continue;
                }
                let key = pack(l2sq(q, self.vector(nb)), nb);
                let worst = !scratch.beam[0];
                if scratch.beam.len() < ef || key < worst {
                    heap_push(&mut scratch.frontier, key);
                    heap_push(&mut scratch.beam, !key);
                    if scratch.beam.len() > ef {
                        heap_pop(&mut scratch.beam);
                    }
                }
            }
        }

        scratch.out.clear();
        while let Some(inv) = heap_pop(&mut scratch.beam) {
            let key = !inv;
            scratch.out.push(Neighbor {
                id: key_id(key),
                dist: key_dist(key),
            });
        }
        // The beam pops worst-first; reverse to ascending (dist, id).
        scratch.out.reverse();
    }

    /// Finds (up to) the `k` nearest indexed vectors to `query`, sorted
    /// ascending by `(dist, id)`. Deterministic, and allocation-free once
    /// `scratch` is warm. `k == 0` returns an empty slice.
    ///
    /// # Panics
    /// If `query.len() != self.dim()`.
    pub fn search<'s>(
        &self,
        query: &[f32],
        k: usize,
        scratch: &'s mut SearchScratch,
    ) -> &'s [Neighbor] {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if k == 0 {
            scratch.out.clear();
            return &scratch.out;
        }
        let mut ep = pack(l2sq(query, self.vector(self.entry)), self.entry);
        for layer in (1..=self.max_level as usize).rev() {
            self.search_layer(query, ep, 1, layer, scratch);
            ep = pack(scratch.out[0].dist, scratch.out[0].id);
        }
        let ef = self.cfg.ef_search.max(k);
        self.search_layer(query, ep, ef, 0, scratch);
        scratch.out.truncate(k);
        &scratch.out
    }

    /// Converts a neighbor slice into a label distribution: uniform `1/K`
    /// mass per neighbor, accumulated onto each neighbor's label. `out`
    /// must span the label space (`num_relations`); it is zeroed first.
    ///
    /// # Panics
    /// If a stored label falls outside `out` (bundle validation rejects
    /// such an index before it can serve).
    pub fn label_votes_into(&self, neighbors: &[Neighbor], out: &mut [f32]) {
        out.fill(0.0);
        if neighbors.is_empty() {
            return;
        }
        let w = 1.0 / neighbors.len() as f32;
        for nb in neighbors {
            out[self.labels[nb.id as usize] as usize] += w;
        }
    }

    /// Structural invariants, also enforced on deserialization: entry and
    /// every link target in range, per-node layer lists matching the
    /// declared levels, `max_level` consistent.
    pub(crate) fn validate_structure(&self) -> Result<(), AnnError> {
        let n = self.len();
        if self.vectors.as_slice().len() != n * self.dim
            || self.levels.len() != n
            || self.links.len() != n
        {
            return Err(AnnError::BadInput("array lengths disagree".into()));
        }
        if (self.entry as usize) >= n {
            return Err(AnnError::BadInput("entry point out of range".into()));
        }
        let observed_max = self.levels.iter().copied().max().unwrap_or(0);
        if observed_max != self.max_level || self.levels[self.entry as usize] != self.max_level {
            return Err(AnnError::BadInput("max level inconsistent".into()));
        }
        for (id, layers) in self.links.iter().enumerate() {
            if layers.len() != self.levels[id] as usize + 1 {
                return Err(AnnError::BadInput(format!(
                    "node {id} declares level {} but has {} layers",
                    self.levels[id],
                    layers.len()
                )));
            }
            for (layer, list) in layers.iter().enumerate() {
                if list.len() > self.m_max(layer) {
                    return Err(AnnError::BadInput(format!(
                        "node {id} layer {layer} overflows m_max"
                    )));
                }
                for &nb in list {
                    if nb as usize >= n || nb as usize == id {
                        return Err(AnnError::BadInput(format!(
                            "node {id} layer {layer} links to invalid node {nb}"
                        )));
                    }
                    if self.levels[nb as usize] < layer as u8 {
                        return Err(AnnError::BadInput(format!(
                            "node {id} layer {layer} links to node {nb} below that layer"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of points on a line: distances are unambiguous.
    fn line_index(n: usize, cfg: HnswConfig) -> AnnIndex {
        let vectors: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let labels: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        AnnIndex::build(1, vectors, labels, cfg).expect("build")
    }

    #[test]
    fn build_rejects_bad_input() {
        let cfg = HnswConfig::default();
        assert!(AnnIndex::build(0, vec![], vec![], cfg).is_err());
        assert!(AnnIndex::build(2, vec![1.0], vec![0], cfg).is_err());
        assert!(AnnIndex::build(1, vec![], vec![], cfg).is_err());
        assert!(AnnIndex::build(1, vec![f32::NAN], vec![0], cfg).is_err());
        let degenerate = HnswConfig {
            m: 1,
            ..HnswConfig::default()
        };
        assert!(AnnIndex::build(1, vec![0.0], vec![0], degenerate).is_err());
    }

    #[test]
    fn search_finds_exact_neighbors_on_a_line() {
        let index = line_index(50, HnswConfig::with_seed(7));
        let mut scratch = SearchScratch::new();
        let got = index.search(&[20.2], 4, &mut scratch);
        let ids: Vec<u32> = got.iter().map(|nb| nb.id).collect();
        assert_eq!(ids, vec![20, 21, 19, 22]);
        assert!(got
            .windows(2)
            .all(|w| (w[0].dist, w[0].id) <= (w[1].dist, w[1].id)));
    }

    #[test]
    fn search_matches_brute_force_on_line() {
        let n = 64;
        let index = line_index(n, HnswConfig::with_seed(3));
        let vectors: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut scratch = SearchScratch::new();
        for q in [0.0f32, 13.6, 31.5, 63.0] {
            let got = index.search(&[q], 5, &mut scratch).to_vec();
            let want = exact_knn(1, &vectors, &[q], 5);
            assert_eq!(got, want, "query {q}");
        }
    }

    #[test]
    #[should_panic(expected = "exact_knn: query of len 2 for 3-d vectors")]
    fn exact_knn_rejects_a_short_query() {
        exact_knn(3, &[0.0; 12], &[0.0, 1.0], 2);
    }

    #[test]
    fn single_vector_index_works() {
        let index = AnnIndex::build(2, vec![1.0, 2.0], vec![4], HnswConfig::default()).unwrap();
        let mut scratch = SearchScratch::new();
        let got = index.search(&[0.0, 0.0], 3, &mut scratch);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, 0);
        let mut votes = vec![0.0f32; 5];
        let got = got.to_vec();
        index.label_votes_into(&got, &mut votes);
        assert_eq!(votes[4], 1.0);
    }

    #[test]
    fn k_zero_returns_empty() {
        let index = line_index(10, HnswConfig::default());
        let mut scratch = SearchScratch::new();
        assert!(index.search(&[3.0], 0, &mut scratch).is_empty());
    }

    #[test]
    fn label_votes_are_uniform_over_neighbors() {
        let index = line_index(30, HnswConfig::default());
        let mut scratch = SearchScratch::new();
        let neighbors = index.search(&[9.0], 4, &mut scratch).to_vec();
        let mut votes = vec![0.0f32; 3];
        index.label_votes_into(&neighbors, &mut votes);
        let total: f32 = votes.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(votes.iter().all(|&v| (v * 4.0).fract().abs() < 1e-6));
    }

    #[test]
    fn repeated_searches_reuse_scratch_without_growth() {
        let index = line_index(200, HnswConfig::default());
        let mut scratch = SearchScratch::new();
        for q in 0..50 {
            index.search(&[q as f32 * 3.7], 8, &mut scratch);
        }
        let caps = (
            scratch.visited.capacity(),
            scratch.frontier.capacity(),
            scratch.beam.capacity(),
            scratch.out.capacity(),
        );
        for q in 0..200 {
            index.search(&[q as f32 * 1.3], 8, &mut scratch);
        }
        assert_eq!(
            caps,
            (
                scratch.visited.capacity(),
                scratch.frontier.capacity(),
                scratch.beam.capacity(),
                scratch.out.capacity(),
            ),
            "scratch buffers grew after warm-up"
        );
    }

    #[test]
    fn structure_validates_after_build() {
        let index = line_index(100, HnswConfig::with_seed(11));
        index.validate_structure().expect("built index is valid");
    }

    /// Layer assignments are part of the index bytes, so their values are
    /// pinned. `m = 2` spreads ids over several layers.
    #[test]
    fn level_for_is_pinned() {
        let ml = 1.0 / 2f64.ln();
        let levels = |seed: u64| -> Vec<u8> { (0..48).map(|id| level_for(seed, id, ml)).collect() };
        assert_eq!(
            levels(0),
            [
                0, 8, 2, 0, 10, 3, 0, 0, 1, 1, 3, 0, 0, 0, 0, 0, 3, 1, 2, 2, 2, 1, 1, 1, 1, 1, 1,
                0, 0, 1, 0, 1, 2, 1, 2, 0, 5, 1, 2, 1, 1, 1, 1, 0, 1, 0, 0, 2
            ]
        );
        assert_eq!(
            levels(42),
            [
                1, 4, 0, 1, 1, 0, 1, 6, 2, 0, 0, 3, 3, 0, 0, 0, 0, 0, 2, 0, 0, 7, 1, 0, 1, 0, 0, 1,
                0, 2, 1, 2, 3, 4, 1, 3, 0, 1, 0, 1, 0, 7, 0, 1, 0, 1, 0, 2
            ]
        );
    }

    #[test]
    fn heap_orders_keys_totally() {
        let mut h = Vec::new();
        for v in [5u64, 1, 9, 1, 3, 7, 2] {
            heap_push(&mut h, v);
        }
        let mut drained = Vec::new();
        while let Some(v) = heap_pop(&mut h) {
            drained.push(v);
        }
        assert_eq!(drained, vec![1, 1, 2, 3, 5, 7, 9]);
    }
}
