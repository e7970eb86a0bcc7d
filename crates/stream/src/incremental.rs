//! The streamed co-occurrence count table behind the entity proximity graph.
//!
//! The paper's edge weight `ln(c+1)/ln(max+1)` couples every edge to the
//! global max count, so one new maximum moves all weights; keeping weighted
//! edges and adjacency up to date per delta buys nothing beside the LINE
//! retrain every publish pays (DESIGN §4i has the measurement).
//! [`IncrementalProximityGraph`] keeps only what is additive — the merged
//! canonical counts, the vertex count and a running admitted-edge count — and
//! [`IncrementalProximityGraph::snapshot`] is the offline builder,
//! [`ProximityGraph::from_counts`], on that table. A streamed graph is
//! therefore **byte-identical** to the offline build on the merged corpus by
//! construction, which is what makes batching semantically invisible: however
//! the stream is cut, the graph (and the canonical embedding trained on it)
//! is the same.
//!
//! Counts only grow (deltas are sentence observations), so a pair that has
//! crossed the threshold never falls back below it.

use imre_graph::ProximityGraph;
use std::collections::BTreeMap;

/// The merged count table of a growing corpus and the graph it implies.
pub struct IncrementalProximityGraph {
    counts: BTreeMap<(usize, usize), u32>,
    threshold: u32,
    n_vertices: usize,
    n_edges: usize,
}

impl IncrementalProximityGraph {
    /// An empty graph with the given admission threshold.
    pub fn new(threshold: u32) -> Self {
        IncrementalProximityGraph {
            counts: BTreeMap::new(),
            threshold: threshold.max(1),
            n_vertices: 0,
            n_edges: 0,
        }
    }

    /// Grows the vertex set to at least `n` (for entities admitted to the
    /// catalog before any co-occurrence crosses the threshold).
    pub fn ensure_vertices(&mut self, n: usize) {
        self.n_vertices = self.n_vertices.max(n);
    }

    /// Folds a count delta into the table and returns how many pairs
    /// crossed the threshold in it.
    pub fn apply_delta<I>(&mut self, delta: I) -> usize
    where
        I: IntoIterator<Item = ((usize, usize), u32)>,
    {
        // Canonicalise and sum the delta on its own first: a pair repeated
        // inside one delta must cross the threshold at most once.
        let mut summed = BTreeMap::new();
        ProximityGraph::merge_counts(&mut summed, delta);
        let mut edges_admitted = 0;
        for ((u, v), d) in summed {
            let c = self.counts.entry((u, v)).or_insert(0);
            edges_admitted += usize::from(*c < self.threshold && *c + d >= self.threshold);
            *c += d;
            // canonical keys have u < v
            self.n_vertices = self.n_vertices.max(v + 1);
        }
        self.n_edges += edges_admitted;
        edges_admitted
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// Number of admitted (≥ threshold) edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Admission threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// The merged canonical count table (all pairs, kept or not).
    pub fn counts(&self) -> &BTreeMap<(usize, usize), u32> {
        &self.counts
    }

    /// Builds the [`ProximityGraph`] for the embedding layer.
    pub fn snapshot(&self) -> ProximityGraph {
        ProximityGraph::from_counts(
            self.counts.iter().map(|(&pair, &c)| (pair, c)),
            self.n_vertices,
            self.threshold,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn assert_same_graph(a: &ProximityGraph, b: &ProximityGraph) {
        assert_eq!(a.n_vertices(), b.n_vertices());
        assert_eq!(a.edges(), b.edges());
        for v in 0..a.n_vertices() {
            assert_eq!(a.neighbors(v), b.neighbors(v), "adjacency of {v}");
        }
    }

    type Delta = Vec<((usize, usize), u32)>;

    /// The offline build on `deltas` summed by hand.
    fn offline(deltas: &[Delta], n_vertices: usize, threshold: u32) -> ProximityGraph {
        let mut summed = HashMap::new();
        for &((a, b), c) in deltas.iter().flatten() {
            *summed.entry((a.min(b), a.max(b))).or_insert(0) += c;
        }
        ProximityGraph::from_counts(summed, n_vertices, threshold)
    }

    /// Applies `deltas` in order, checking against the offline build after
    /// each.
    fn apply_all(inc: &mut IncrementalProximityGraph, deltas: &[Delta]) {
        for (i, delta) in deltas.iter().enumerate() {
            inc.apply_delta(delta.clone());
            let off = offline(&deltas[..=i], inc.n_vertices(), inc.threshold());
            assert_eq!(inc.n_edges(), off.n_edges());
            assert_same_graph(&inc.snapshot(), &off);
        }
    }

    #[test]
    fn single_delta_matches_offline_build() {
        let mut inc = IncrementalProximityGraph::new(2);
        apply_all(
            &mut inc,
            &[vec![((0, 1), 10), ((1, 2), 5), ((0, 2), 2), ((2, 3), 1)]],
        );
        assert_eq!(inc.n_edges(), 3);
    }

    #[test]
    fn threshold_crossing_admits_edge_later() {
        let mut inc = IncrementalProximityGraph::new(3);
        assert_eq!(inc.apply_delta(vec![((0, 1), 2)]), 0);
        assert_eq!(inc.n_edges(), 0);
        assert_eq!(inc.apply_delta(vec![((1, 0), 1)]), 1);
        assert_eq!(inc.n_edges(), 1);
        assert_eq!(inc.snapshot().n_edges(), 1);
    }

    #[test]
    fn pair_repeated_in_one_delta_crosses_once() {
        let mut inc = IncrementalProximityGraph::new(3);
        // 1 + 1 + 2 + 1 = 5 crosses 3 partway through the delta
        let admitted = inc.apply_delta(vec![((0, 1), 1), ((1, 0), 1), ((0, 1), 2), ((1, 0), 1)]);
        assert_eq!(admitted, 1);
        assert_eq!(inc.n_edges(), 1);
        assert_eq!(inc.counts()[&(0, 1)], 5);
        // already admitted: further bumps admit nothing
        assert_eq!(inc.apply_delta(vec![((0, 1), 4), ((0, 1), 4)]), 0);
        assert_eq!(inc.n_edges(), 1);
        assert_eq!(inc.snapshot().n_edges(), 1);
    }

    #[test]
    fn new_vertices_grow_the_graph() {
        let mut inc = IncrementalProximityGraph::new(1);
        inc.apply_delta(vec![((0, 1), 3)]);
        assert_eq!(inc.n_vertices(), 2);
        inc.apply_delta(vec![((9, 5), 4)]);
        assert_eq!(inc.n_vertices(), 10);
        assert_eq!(inc.snapshot().n_vertices(), 10);
    }

    #[test]
    fn max_bump_reweights_everything() {
        let mut inc = IncrementalProximityGraph::new(1);
        inc.apply_delta(vec![((0, 1), 3), ((1, 2), 2)]);
        let w_before = inc.snapshot().neighbors(2)[0].1;
        inc.apply_delta(vec![((0, 1), 50)]);
        let w_after = inc.snapshot().neighbors(2)[0].1;
        assert!(w_after < w_before, "denominator grew, weights must shrink");
    }

    #[test]
    fn many_random_deltas_stay_identical_to_offline() {
        // deterministic pseudo-random delta stream
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let deltas: Vec<Delta> = (0..40)
            .map(|_| {
                let k = 1 + (step() % 6) as usize;
                (0..k)
                    .map(|_| {
                        let a = (step() % 12) as usize;
                        let b = (step() % 12) as usize;
                        let c = 1 + (step() % 5) as u32;
                        ((a, b), c)
                    })
                    .collect()
            })
            .collect();
        let mut inc = IncrementalProximityGraph::new(2);
        // vertices 12.. are admitted but never co-occur: isolated in every
        // snapshot
        inc.ensure_vertices(15);
        apply_all(&mut inc, &deltas);
    }

    #[test]
    fn ensure_vertices_only_grows() {
        let mut inc = IncrementalProximityGraph::new(1);
        inc.ensure_vertices(4);
        assert_eq!(inc.n_vertices(), 4);
        inc.ensure_vertices(2);
        assert_eq!(inc.n_vertices(), 4);
        inc.apply_delta(vec![((0, 1), 2)]);
        assert_eq!(inc.n_vertices(), 4);
        assert_eq!(inc.snapshot().out_degree(3), 0);
    }
}
