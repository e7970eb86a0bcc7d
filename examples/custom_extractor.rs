//! Building a relation extractor for your *own* domain with the public
//! API — the scenario a downstream adopter cares about: define a world
//! (entities, types, relations), generate/ingest distant-supervision data,
//! pick a model variant, train, predict.
//!
//! Here: a small biomedical-flavoured schema (drugs, diseases, genes).
//!
//! ```text
//! cargo run --release --example custom_extractor
//! ```

use imre::core::{
    entity_type_table, prepare_bags, train_model, BagContext, HyperParams, ModelSpec, ReModel,
    TrainConfig,
};
use imre::corpus::{Dataset, DatasetConfig, SentenceGenConfig, WorldConfig};
use imre::eval::evaluate_system;

fn main() {
    println!("custom-domain relation extractor\n");

    // 1. Describe the corpus. In a real deployment you would implement the
    //    same `Bag`/`EncodedSentence` structures from your own data; here
    //    the generator plays that role with a custom configuration.
    let config = DatasetConfig {
        name: "biomed-demo".into(),
        world: WorldConfig {
            n_relations: 7, // e.g. treats, causes, inhibits, …
            entities_per_cluster: 12,
            facts_per_relation: 40,
            cluster_reuse_prob: 0.4,
            seed: 2024,
        },
        sentence: SentenceGenConfig {
            noise_prob: 0.25,
            min_len: 8,
            max_len: 20,
        },
        train_fraction: 0.75,
        na_train: 150,
        na_test: 60,
        na_hard_fraction: 0.5,
        zipf_alpha: 1.9,
        max_sentences_per_bag: 15,
        seed: 99,
    };
    let dataset = Dataset::generate(&config);
    println!(
        "corpus: {} train bags / {} test bags, {} relations",
        dataset.train.len(),
        dataset.test.len(),
        dataset.num_relations()
    );

    // 2. Featurise and train a GRU+ATT extractor (any `ModelSpec` works).
    let mut hp = HyperParams::tiny();
    hp.epochs = 10;
    // recurrent encoders converge in SGD steps, not sentences — small
    // batches give them enough updates on a small corpus (DESIGN.md §4b.4)
    hp.batch_size = 2;
    let train_bags = prepare_bags(&dataset.train, &hp);
    let test_bags = prepare_bags(&dataset.test, &hp);
    let types = entity_type_table(&dataset.world);
    let ctx = BagContext {
        entity_embedding: None,
        entity_types: &types,
    };

    let mut model = ReModel::new(
        ModelSpec::gru_att(),
        &hp,
        dataset.vocab.len(),
        dataset.num_relations(),
        imre::corpus::NUM_COARSE_TYPES,
        hp.entity_dim,
        7,
    );
    let stats = train_model(
        &mut model,
        &train_bags,
        &ctx,
        &TrainConfig::from_hp(&hp, 13),
        None,
        None,
    )
    .expect("a run that writes no checkpoint does no I/O");
    println!("trained GRU+ATT: per-epoch loss {:?}", stats.epoch_losses);

    // 3. Evaluate and inspect one prediction.
    let scores: Vec<Vec<f32>> = test_bags.iter().map(|b| model.predict(b, &ctx)).collect();
    let ev = evaluate_system(&test_bags, dataset.num_relations(), &scores);
    println!("held-out AUC {:.4}, F1 {:.4}", ev.auc, ev.f1);

    let bag = test_bags
        .iter()
        .find(|b| b.label != 0)
        .expect("a relational test bag");
    let scores = model.predict(bag, &ctx);
    let best = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("scores");
    println!(
        "\nexample: ({}, {}) → predicted {}, gold {}",
        dataset.world.entities[bag.head].name,
        dataset.world.entities[bag.tail].name,
        dataset.world.relations[best].name,
        dataset.world.relations[bag.label].name,
    );
}
