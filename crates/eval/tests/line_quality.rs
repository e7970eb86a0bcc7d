//! LINE's quality gate against the world that generated the data: with the
//! default `LineConfig` (width 64, 4 × 100k samples), the NYT-sim seed-42
//! proximity graph embeds so that at least three in four of an entity's
//! ten nearest neighbours share its semantic cluster. The gate reads
//! quality, not bytes, so it holds across changes that move LINE's output
//! on purpose; 0.774 was measured for LINE seeds 31–33.

use imre_corpus::{generate_unlabeled, nyt_sim, UnlabeledConfig, World};
use imre_eval::cluster_purity_at_k;
use imre_graph::{train_line, LineConfig, ProximityGraph};

#[test]
fn line_keeps_cluster_purity_on_nyt_sim() {
    let world = World::generate(&nyt_sim(42).world);
    let co = generate_unlabeled(&world, &UnlabeledConfig::default());
    let graph = ProximityGraph::from_counts(
        co.iter().map(|(&pair, &count)| (pair, count)),
        world.num_entities(),
        2,
    );
    let embedding = train_line(&graph, &LineConfig::default());
    let purity = cluster_purity_at_k(&embedding, &world, 10);
    assert!(purity >= 0.75, "purity@10 {purity:.4} < 0.75");
}
