//! Quality scored against the world that generated the data.
//!
//! The corpus is synthetic, so every entity's semantic cluster is known.
//! A metric read against that truth survives a change that moves the
//! trained bytes, where a pinned digest or a seed-to-seed overlap cannot
//! tell a better embedding from a broken one.

use imre_corpus::World;
use imre_graph::{nearest, EntityEmbedding};

/// Cluster purity at `k`: the mean, over the world's entities, of the
/// share of each entity's `k` nearest neighbours (by cosine,
/// [`imre_graph::nearest`]) that belong to its own cluster. 1.0 when every
/// neighbourhood stays inside its cluster; about `1 / clusters` for a
/// random embedding.
///
/// # Panics
/// If the embedding does not have one row per world entity, or `k` is 0 or
/// not below the number of entities.
pub fn cluster_purity_at_k(embedding: &EntityEmbedding, world: &World, k: usize) -> f64 {
    let clusters: Vec<usize> = world.entities.iter().map(|e| e.cluster).collect();
    purity(embedding, &clusters, k)
}

/// [`cluster_purity_at_k`] over entity `v`'s cluster `clusters[v]`.
fn purity(embedding: &EntityEmbedding, clusters: &[usize], k: usize) -> f64 {
    let n = clusters.len();
    assert_eq!(
        embedding.len(),
        n,
        "cluster_purity_at_k: {} embedding rows for {n} entities",
        embedding.len()
    );
    assert!(
        k > 0 && k < n,
        "cluster_purity_at_k: k = {k} needs 0 < k < {n} entities"
    );
    let same: usize = (0..n)
        .map(|v| {
            nearest(embedding, v, k)
                .iter()
                .filter(|&&(u, _)| clusters[u] == clusters[v])
                .count()
        })
        .sum();
    same as f64 / (n * k) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use imre_corpus::WorldConfig;
    use imre_tensor::Tensor;

    /// Six unit vectors on the plane in two clusters of three, at the
    /// angles (degrees) below. Entity 2 belongs to cluster 0 but lies among
    /// cluster 1.
    fn hand_built() -> (EntityEmbedding, Vec<usize>) {
        let degrees = [0.0f32, 10.0, 82.0, 90.0, 70.0, 60.0];
        let rows: Vec<f32> = degrees
            .iter()
            .flat_map(|d| [d.to_radians().cos(), d.to_radians().sin()])
            .collect();
        let m = Tensor::from_vec(rows, &[6, 2]);
        (EntityEmbedding::from_matrix(m), vec![0, 0, 0, 1, 1, 1])
    }

    /// Nearest two by angle, worked by hand: 0 → {1, 5}: 1 of 2 in its
    /// cluster; 1 → {0, 5}: 1; 2 → {3, 4}: 0; 3 → {2, 4}: 1;
    /// 4 → {5, 2}: 1; 5 → {4, 2}: 1. Nearest one: 0 → 1, 1 → 0, 2 → 3,
    /// 3 → 2, 4 → 5, 5 → 4: 4 of 6.
    #[test]
    fn purity_of_a_hand_built_embedding_is_known() {
        let (emb, clusters) = hand_built();
        assert_eq!(purity(&emb, &clusters, 2), 5.0 / 12.0);
        assert_eq!(purity(&emb, &clusters, 1), 4.0 / 6.0);
    }

    /// An embedding that is each entity's cluster as a one-hot row keeps
    /// every neighbourhood of a generated world inside its cluster.
    #[test]
    fn one_hot_clusters_are_pure() {
        let world = World::generate(&WorldConfig {
            n_relations: 4,
            entities_per_cluster: 5,
            facts_per_relation: 3,
            ..WorldConfig::default()
        });
        let n = world.num_entities();
        let mut m = Tensor::zeros(&[n, world.clusters.len()]);
        for (v, e) in world.entities.iter().enumerate() {
            m.data_mut()[v * world.clusters.len() + e.cluster] = 1.0;
        }
        let emb = EntityEmbedding::from_matrix(m);
        assert_eq!(cluster_purity_at_k(&emb, &world, 4), 1.0);
    }

    #[test]
    #[should_panic(expected = "embedding rows")]
    fn row_count_must_match_the_world() {
        let (emb, _) = hand_built();
        let _ = purity(&emb, &[0, 0, 1], 1);
    }
}
