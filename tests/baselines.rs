//! Integration tests for the baseline systems (Mintz, MultiR, MIMLRE,
//! CNN+RL) running against real generated corpora.

use imre::core::baselines::{CnnRl, Mimlre, Mintz, MultiR, RlConfig};
use imre::core::{entity_type_table, prepare_bags, BagContext, HyperParams};
use imre::corpus::Dataset;
use imre::eval::{evaluate_system, smoke_config};

struct Fixture {
    dataset: Dataset,
    hp: HyperParams,
}

impl Fixture {
    fn new() -> Self {
        Fixture {
            dataset: Dataset::generate(&smoke_config(21)),
            hp: HyperParams::tiny(),
        }
    }
}

#[test]
fn mintz_beats_random_on_heldout() {
    let f = Fixture::new();
    let train = prepare_bags(&f.dataset.train, &f.hp);
    let test = prepare_bags(&f.dataset.test, &f.hp);
    let types = entity_type_table(&f.dataset.world);
    let m_rel = f.dataset.num_relations();

    let mut mintz = Mintz::new(m_rel, 14);
    mintz.train(&train, &types, 5, 0.1, 1);
    let scores: Vec<Vec<f32>> = test.iter().map(|b| mintz.predict(b, &types)).collect();
    let ev = evaluate_system(&test, m_rel, &scores);

    // random scores for comparison
    let mut c = 0u32;
    let random: Vec<Vec<f32>> = test
        .iter()
        .map(|_| {
            (0..m_rel)
                .map(|r| {
                    c = c.wrapping_mul(1103515245).wrapping_add(12345 + r as u32);
                    (c % 1000) as f32 / 1000.0
                })
                .collect()
        })
        .collect();
    let ev_rand = evaluate_system(&test, m_rel, &random);
    assert!(
        ev.auc > ev_rand.auc + 0.1,
        "Mintz {:.3} should beat random {:.3}",
        ev.auc,
        ev_rand.auc
    );
}

#[test]
fn multir_and_mimlre_produce_sane_heldout_metrics() {
    let f = Fixture::new();
    let train = prepare_bags(&f.dataset.train, &f.hp);
    let test = prepare_bags(&f.dataset.test, &f.hp);
    let types = entity_type_table(&f.dataset.world);
    let m_rel = f.dataset.num_relations();

    let mut multir = MultiR::new(m_rel, 14);
    multir.train(&train, &types, 5, 0.5, 2);
    let scores: Vec<Vec<f32>> = test.iter().map(|b| multir.predict(b, &types)).collect();
    let ev = evaluate_system(&test, m_rel, &scores);
    assert!(ev.auc > 0.1 && ev.auc <= 1.0, "MultiR auc {}", ev.auc);

    let mut mimlre = Mimlre::new(m_rel, 14);
    mimlre.train(&train, &types, 3, 0.1, 3);
    let scores: Vec<Vec<f32>> = test.iter().map(|b| mimlre.predict(b, &types)).collect();
    let ev = evaluate_system(&test, m_rel, &scores);
    assert!(ev.auc > 0.1 && ev.auc <= 1.0, "MIMLRE auc {}", ev.auc);
}

#[test]
fn cnn_rl_trains_end_to_end() {
    let f = Fixture::new();
    let train = prepare_bags(&f.dataset.train, &f.hp);
    let test = prepare_bags(&f.dataset.test, &f.hp);
    let types = entity_type_table(&f.dataset.world);
    let ctx = BagContext {
        entity_embedding: None,
        entity_types: &types,
    };
    let m_rel = f.dataset.num_relations();

    let mut rl = CnnRl::new(&f.hp, f.dataset.vocab.len(), m_rel, 5);
    rl.train(
        &train,
        &ctx,
        &RlConfig {
            pretrain_epochs: 3,
            joint_epochs: 2,
            batch_size: 8,
            ..Default::default()
        },
    );
    let scores: Vec<Vec<f32>> = test.iter().map(|b| rl.predict(b, &ctx)).collect();
    let ev = evaluate_system(&test, m_rel, &scores);
    assert!(ev.auc > 0.05 && ev.auc <= 1.0, "CNN+RL auc {}", ev.auc);
}
