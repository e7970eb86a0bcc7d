//! **Table IV** — the headline comparison: AUC, precision, recall, F1,
//! P@100 and P@200 for PCNN, PCNN+ATT, BGWA, CNN+RL and the paper's PA-T /
//! PA-MR / PA-TMR on both datasets.
//!
//! Absolute numbers differ from the paper (simulated corpora, scaled
//! widths); the orderings the paper argues from — attention > plain PCNN,
//! every PA-variant > PCNN+ATT, PA-TMR best — are the reproduction target.
//! `IMRE_SEEDS=5` matches the paper's five-run averaging.

use imre_bench::{build_pipeline, dataset_configs, header, seeds};
use imre_core::baselines::{CnnRl, RlConfig};
use imre_core::ModelSpec;
use imre_eval::{
    evaluate_system, format_table, mean_evaluation, metric, metric2, Evaluation, Pipeline,
};
use std::time::Instant;

fn run_cnn_rl(p: &Pipeline, seed: u64) -> Evaluation {
    let mut rl = CnnRl::new(
        &p.hp,
        p.dataset.vocab.len(),
        p.dataset.num_relations(),
        seed,
    );
    let cfg = RlConfig {
        pretrain_epochs: p.hp.epochs / 2,
        joint_epochs: p.hp.epochs - p.hp.epochs / 2,
        batch_size: p.hp.batch_size,
        seed,
        ..Default::default()
    };
    rl.classifier.set_word_embeddings(p.word_vectors.clone());
    let ctx = p.ctx();
    rl.train(&p.train_bags, &ctx, &cfg);
    let scores: Vec<Vec<f32>> = p.test_bags.iter().map(|b| rl.predict(b, &ctx)).collect();
    evaluate_system(&p.test_bags, p.dataset.num_relations(), &scores)
}

fn main() {
    header("Table IV: performance comparison", "paper Table IV");
    let seed_list = seeds();
    let specs = [
        ModelSpec::pcnn(),
        ModelSpec::pcnn_att(),
        ModelSpec::bgwa(),
        ModelSpec::pa_t(),
        ModelSpec::pa_mr(),
        ModelSpec::pa_tmr(),
    ];

    for config in dataset_configs() {
        let t0 = Instant::now();
        let p = build_pipeline(&config);
        println!("\n[{}] pipeline built in {:?}", config.name, t0.elapsed());
        let mut rows = Vec::new();
        let t = Instant::now();
        let all_evals = p.run_grid(&specs, &seed_list, 0);
        println!(
            "  {} systems × {} seed(s) trained in {:?}",
            specs.len(),
            seed_list.len(),
            t.elapsed()
        );
        for (spec, evals) in specs.iter().zip(&all_evals) {
            let m = mean_evaluation(evals);
            println!("  {}: auc {:.4}", spec.name(), m.auc);
            rows.push(vec![
                spec.name(),
                metric(m.auc),
                metric(m.precision),
                metric(m.recall),
                metric(m.f1),
                metric2(m.p_at_100),
                metric2(m.p_at_200),
            ]);
        }
        // CNN+RL has its own trainer
        let t = Instant::now();
        let rl_evals: Vec<Evaluation> = seed_list.iter().map(|&s| run_cnn_rl(&p, s)).collect();
        let m = mean_evaluation(&rl_evals);
        println!("  CNN+RL done in {:?} (auc {:.4})", t.elapsed(), m.auc);
        rows.insert(
            3,
            vec![
                "CNN+RL".to_string(),
                metric(m.auc),
                metric(m.precision),
                metric(m.recall),
                metric(m.f1),
                metric2(m.p_at_100),
                metric2(m.p_at_200),
            ],
        );
        println!(
            "\n{}",
            format_table(
                &format!("Table IV — {} ({} seed(s))", config.name, seed_list.len()),
                &[
                    "method",
                    "AUC",
                    "Precision",
                    "Recall",
                    "F1",
                    "P@100",
                    "P@200"
                ],
                &rows,
            )
        );
    }
    println!("paper (NYT): PCNN .3296 < PCNN+ATT .3424 < BGWA .3670 < CNN+RL .3735; PA-T .3572, PA-MR .3635, PA-TMR .3939");
    println!("paper (GDS): PCNN .7798 < PCNN+ATT .8034 < BGWA .8148 < CNN+RL .8554; PA-T .8512, PA-MR .8571, PA-TMR .8646");
}
