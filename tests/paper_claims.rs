//! Integration tests asserting the *qualitative* claims the paper's
//! evaluation section makes, at reduced scale. These are the reproduction's
//! contract: orderings, not absolute numbers.
//!
//! They run at a mid scale (bigger than `smoke`, far smaller than the bench
//! presets) so the suite stays minutes-fast; the bench harness checks the
//! same claims at full scale.

use imre::core::{HyperParams, ModelSpec};
use imre::corpus::{DatasetConfig, SentenceGenConfig, WorldConfig};
use imre::eval::{mean_evaluation, Pipeline};

/// Mid-scale dataset: 12 relations, noisy, long-tailed.
fn mid_config(seed: u64) -> DatasetConfig {
    DatasetConfig {
        name: "mid".into(),
        world: WorldConfig {
            n_relations: 12,
            entities_per_cluster: 10,
            facts_per_relation: 40,
            cluster_reuse_prob: 0.5,
            seed: seed ^ 0xfeed,
        },
        sentence: SentenceGenConfig {
            noise_prob: 0.4,
            min_len: 8,
            max_len: 18,
        },
        train_fraction: 0.7,
        na_train: 350,
        na_test: 150,
        na_hard_fraction: 0.6,
        zipf_alpha: 2.0,
        max_sentences_per_bag: 15,
        seed,
    }
}

fn mid_pipeline() -> Pipeline {
    let mut hp = HyperParams::scaled();
    hp.epochs = 6;
    hp.batch_size = 16;
    Pipeline::build(&mid_config(1), hp)
}

#[test]
fn pa_tmr_beats_pcnn_att() {
    // The paper's headline claim (Table IV): integrating implicit mutual
    // relations and entity types improves the attention base model.
    let p = mid_pipeline();
    let seeds = [42, 43];
    let evals = p.run_grid(&[ModelSpec::pcnn_att(), ModelSpec::pa_tmr()], &seeds, 0);
    let base = mean_evaluation(&evals[0]);
    let full = mean_evaluation(&evals[1]);
    assert!(
        full.auc > base.auc,
        "PA-TMR ({:.4}) must beat PCNN+ATT ({:.4})",
        full.auc,
        base.auc
    );
}

#[test]
fn single_components_also_help() {
    // Table IV: PA-T and PA-MR individually outperform the base model.
    let p = mid_pipeline();
    let seeds = [7, 8];
    let specs = [ModelSpec::pcnn_att(), ModelSpec::pa_t(), ModelSpec::pa_mr()];
    let evals = p.run_grid(&specs, &seeds, 0);
    let [base, pa_t, pa_mr] = [0, 1, 2].map(|i| mean_evaluation(&evals[i]).auc);
    assert!(
        pa_t > base * 0.98,
        "PA-T ({pa_t:.4}) should not fall below PCNN+ATT ({base:.4})"
    );
    assert!(
        pa_mr > base * 0.98,
        "PA-MR ({pa_mr:.4}) should not fall below PCNN+ATT ({base:.4})"
    );
    assert!(
        pa_t > base || pa_mr > base,
        "at least one single component must improve the base (PA-T {pa_t:.4}, PA-MR {pa_mr:.4}, base {base:.4})"
    );
}

#[test]
fn mutual_relations_cluster_by_relation() {
    // §III-A / Table I: analogous pairs have similar MR vectors.
    let p = mid_pipeline();
    let world = &p.dataset.world;
    let emb = &p.embedding;
    let rel_pairs = |r: usize| -> Vec<(usize, usize)> {
        world
            .facts
            .iter()
            .filter(|f| f.relation.0 == r)
            .map(|f| (f.head.0, f.tail.0))
            .take(20)
            .collect()
    };
    let pairs_a = rel_pairs(1);
    let pairs_b = rel_pairs(2);
    assert!(pairs_a.len() >= 5 && pairs_b.len() >= 5);
    let mean_cos = |xs: &[(usize, usize)], ys: &[(usize, usize)]| -> f32 {
        let mut acc = 0.0;
        let mut n = 0;
        for &(h1, t1) in xs {
            for &(h2, t2) in ys {
                if (h1, t1) != (h2, t2) {
                    acc += emb
                        .mutual_relation(h1, t1)
                        .cosine(&emb.mutual_relation(h2, t2));
                    n += 1;
                }
            }
        }
        acc / n as f32
    };
    let intra = mean_cos(&pairs_a, &pairs_a);
    let inter = mean_cos(&pairs_a, &pairs_b);
    assert!(
        intra > inter,
        "same-relation MR vectors should be closer: intra {intra:.3} vs inter {inter:.3}"
    );
}

#[test]
fn long_tail_shape_matches_fig1() {
    // Fig 1: the overwhelming majority of pairs have <11 sentences.
    let p = mid_pipeline();
    let small = p
        .train_bags
        .iter()
        .filter(|b| b.sentences.len() <= 10)
        .count();
    let frac = small as f32 / p.train_bags.len() as f32;
    assert!(
        frac > 0.85,
        "long tail missing: only {frac:.2} of pairs have ≤10 sentences"
    );
}
