//! The entity proximity graph (paper §III-A.1).
//!
//! Vertices are entities; an undirected edge joins entities whose
//! co-occurrence count in the unlabeled corpus reaches a threshold, weighted
//! by the paper's normalisation
//!
//! ```text
//! w_ij = log(co_ij) / log(max_kl co_kl)
//! ```
//!
//! There is one build path, [`ProximityGraph::from_counts`]. The streaming
//! side (`imre-stream`) accumulates deltas with
//! [`ProximityGraph::merge_counts`] into a canonical [`BTreeMap`] and hands
//! that table to the same constructor, so streamed and offline graphs are
//! byte-identical by construction.

use std::collections::BTreeMap;

/// A weighted undirected graph over `n_vertices` entities.
pub struct ProximityGraph {
    n_vertices: usize,
    /// Undirected edges `(u, v, w)` with `u < v`.
    edges: Vec<(usize, usize, f32)>,
    adjacency: Vec<Vec<(usize, f32)>>,
}

impl ProximityGraph {
    /// Builds the graph from co-occurrence counts.
    ///
    /// `counts` yields `((a, b), count)` pairs (any order, duplicates summed
    /// upstream); pairs below `threshold` are dropped, the rest become edges
    /// with the paper's log-normalised weight.
    ///
    /// # Panics
    /// If any endpoint is `≥ n_vertices`.
    pub fn from_counts<I>(counts: I, n_vertices: usize, threshold: u32) -> Self
    where
        I: IntoIterator<Item = ((usize, usize), u32)>,
    {
        let mut kept: Vec<((usize, usize), u32)> = counts
            .into_iter()
            .filter(|&((a, b), c)| a != b && c >= threshold)
            .collect();
        // Canonical edge order regardless of the input iterator's order
        // (counts typically come out of a HashMap): the edge list seeds the
        // LINE alias sampler, so its order must not vary per process.
        kept.sort_unstable();
        let max_count = kept.iter().map(|&(_, c)| c).max().unwrap_or(0);
        // log(1) = 0 would zero out minimum-weight edges when max == 1; the
        // +1 smoothing keeps every retained edge strictly positive while
        // preserving the paper's log-ratio shape.
        let denom = ((max_count + 1) as f32).ln();
        let mut edges = Vec::with_capacity(kept.len());
        let mut adjacency = vec![Vec::new(); n_vertices];
        for ((a, b), c) in kept {
            assert!(
                a < n_vertices && b < n_vertices,
                "ProximityGraph: vertex out of range"
            );
            let (u, v) = if a < b { (a, b) } else { (b, a) };
            let w = ((c + 1) as f32).ln() / denom;
            edges.push((u, v, w));
            adjacency[u].push((v, w));
            adjacency[v].push((u, w));
        }
        ProximityGraph {
            n_vertices,
            edges,
            adjacency,
        }
    }

    /// Merges a count delta into a canonical accumulator.
    ///
    /// Keys are normalised to `(min, max)`, self-pairs and zero counts are
    /// dropped, and duplicate pairs sum, so the accumulator does not depend
    /// on the delta iterator's order.
    pub fn merge_counts<I>(acc: &mut BTreeMap<(usize, usize), u32>, delta: I)
    where
        I: IntoIterator<Item = ((usize, usize), u32)>,
    {
        for ((a, b), c) in delta {
            if a == b || c == 0 {
                continue;
            }
            let key = if a < b { (a, b) } else { (b, a) };
            *acc.entry(key).or_insert(0) += c;
        }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The undirected edge list `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> &[(usize, usize, f32)] {
        &self.edges
    }

    /// Neighbours of `v` with edge weights.
    pub fn neighbors(&self, v: usize) -> &[(usize, f32)] {
        &self.adjacency[v]
    }

    /// Weighted degree of `v`.
    pub fn degree(&self, v: usize) -> f32 {
        self.adjacency[v].iter().map(|&(_, w)| w).sum()
    }

    /// Number of neighbours of `v`.
    pub fn out_degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// Vertices adjacent to both `a` and `b` — the paper's Figure 3 notion
    /// of topological similarity ("semantic proximity can be evaluated by
    /// the number of common neighbors").
    pub fn common_neighbors(&self, a: usize, b: usize) -> Vec<usize> {
        let set: std::collections::HashSet<usize> =
            self.adjacency[a].iter().map(|&(v, _)| v).collect();
        self.adjacency[b]
            .iter()
            .map(|&(v, _)| v)
            .filter(|v| set.contains(v))
            .collect()
    }

    /// Jaccard similarity of the two vertices' neighbour sets.
    pub fn neighborhood_jaccard(&self, a: usize, b: usize) -> f32 {
        let sa: std::collections::HashSet<usize> =
            self.adjacency[a].iter().map(|&(v, _)| v).collect();
        let sb: std::collections::HashSet<usize> =
            self.adjacency[b].iter().map(|&(v, _)| v).collect();
        let inter = sa.intersection(&sb).count();
        let union = sa.union(&sb).count();
        if union == 0 {
            0.0
        } else {
            inter as f32 / union as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> ProximityGraph {
        ProximityGraph::from_counts(
            vec![
                ((0, 1), 10),
                ((1, 2), 5),
                ((0, 2), 2),
                ((2, 3), 1),
                ((3, 3), 50),
            ],
            4,
            2,
        )
    }

    #[test]
    fn threshold_filters_edges() {
        let g = graph();
        // (2,3) has count 1 < threshold 2; (3,3) is a self-loop
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn edge_order_independent_of_input_order() {
        // Counts usually come out of a HashMap, whose iteration order varies
        // per process; the edge list (which seeds the LINE alias sampler)
        // must come out canonical either way.
        let counts = vec![((0, 1), 10), ((1, 2), 5), ((0, 2), 2), ((2, 3), 3)];
        let mut reversed = counts.clone();
        reversed.reverse();
        let a = ProximityGraph::from_counts(counts, 4, 2);
        let b = ProximityGraph::from_counts(reversed, 4, 2);
        assert_eq!(a.edges(), b.edges());
        for v in 0..4 {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
    }

    #[test]
    fn weights_normalised_to_unit_max() {
        let g = graph();
        let max_w = g.edges().iter().map(|&(_, _, w)| w).fold(0.0f32, f32::max);
        assert!((max_w - 1.0).abs() < 1e-6, "max weight {max_w}");
        for &(_, _, w) in g.edges() {
            assert!(w > 0.0 && w <= 1.0);
        }
    }

    #[test]
    fn weight_monotone_in_count() {
        let g = graph();
        let w01 = g.neighbors(0).iter().find(|&&(v, _)| v == 1).unwrap().1;
        let w02 = g.neighbors(0).iter().find(|&&(v, _)| v == 2).unwrap().1;
        assert!(w01 > w02, "higher count must mean higher weight");
    }

    #[test]
    fn adjacency_symmetric() {
        let g = graph();
        for &(u, v, w) in g.edges() {
            assert!(g
                .neighbors(u)
                .iter()
                .any(|&(x, wx)| x == v && (wx - w).abs() < 1e-7));
            assert!(g
                .neighbors(v)
                .iter()
                .any(|&(x, wx)| x == u && (wx - w).abs() < 1e-7));
        }
    }

    #[test]
    fn common_neighbors_found() {
        let g = graph();
        // 0 and 1 share neighbour 2 (edges 0-2 and 1-2)
        assert_eq!(g.common_neighbors(0, 1), vec![2]);
    }

    #[test]
    fn jaccard_bounds_and_identity() {
        let g = graph();
        let j = g.neighborhood_jaccard(0, 1);
        assert!((0.0..=1.0).contains(&j));
        // isolated vertex against itself: empty sets → 0 by convention
        assert_eq!(g.neighborhood_jaccard(3, 3), 0.0);
    }

    #[test]
    fn merge_counts_touched_independent_of_delta_order() {
        let delta = vec![((3, 1), 2u32), ((0, 2), 1), ((2, 0), 4), ((1, 3), 1)];
        let mut fwd = std::collections::BTreeMap::new();
        let mut rev = std::collections::BTreeMap::new();
        let mut reversed = delta.clone();
        reversed.reverse();
        ProximityGraph::merge_counts(&mut fwd, delta);
        ProximityGraph::merge_counts(&mut rev, reversed);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.keys().copied().collect::<Vec<_>>(), [(0, 2), (1, 3)]);
    }

    #[test]
    fn degree_is_weight_sum() {
        let g = graph();
        let manual: f32 = g.neighbors(1).iter().map(|&(_, w)| w).sum();
        assert!((g.degree(1) - manual).abs() < 1e-7);
    }
}
