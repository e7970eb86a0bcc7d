//! **Figure 4** — precision–recall curves on both datasets, including the
//! non-neural baselines (Mintz, MultiR, MIMLRE) the paper plots on NYT.
//!
//! Prints each curve as a downsampled `recall precision` series.

use imre_bench::{build_pipeline, dataset_configs, header, seeds};
use imre_core::baselines::{Mimlre, Mintz, MultiR};
use imre_core::ModelSpec;
use imre_eval::{evaluate_system, format_pr_series};

fn main() {
    header("Figure 4: precision-recall curves", "paper Fig. 4");
    let seed = seeds()[0];
    let specs = [
        ModelSpec::pcnn(),
        ModelSpec::pcnn_att(),
        ModelSpec::bgwa(),
        ModelSpec::pa_tmr(),
    ];

    for (di, config) in dataset_configs().iter().enumerate() {
        let p = build_pipeline(config);
        println!("\n## dataset: {}", config.name);

        // non-neural baselines on the first (NYT-like) dataset only, as in
        // the paper ("so we only report the results of neural baselines on
        // GDS dataset")
        if di == 0 {
            let m = p.dataset.num_relations();
            let mut mintz = Mintz::new(m, 16);
            mintz.train(&p.train_bags, &p.types, 5, 0.1, seed);
            let scores: Vec<Vec<f32>> = p
                .test_bags
                .iter()
                .map(|b| mintz.predict(b, &p.types))
                .collect();
            let ev = evaluate_system(&p.test_bags, m, &scores);
            println!("{}", format_pr_series("Mintz", &ev.curve, 60));

            let mut multir = MultiR::new(m, 16);
            multir.train(&p.train_bags, &p.types, 5, 0.5, seed);
            let scores: Vec<Vec<f32>> = p
                .test_bags
                .iter()
                .map(|b| multir.predict(b, &p.types))
                .collect();
            let ev = evaluate_system(&p.test_bags, m, &scores);
            println!("{}", format_pr_series("MultiR", &ev.curve, 60));

            let mut mimlre = Mimlre::new(m, 16);
            mimlre.train(&p.train_bags, &p.types, 3, 0.1, seed);
            let scores: Vec<Vec<f32>> = p
                .test_bags
                .iter()
                .map(|b| mimlre.predict(b, &p.types))
                .collect();
            let ev = evaluate_system(&p.test_bags, m, &scores);
            println!("{}", format_pr_series("MIMLRE", &ev.curve, 60));
        }

        for spec in specs {
            let ev = p.run_system(spec, seed);
            println!("{}", format_pr_series(&spec.name(), &ev.curve, 60));
            println!("# {} AUC {:.4}\n", spec.name(), ev.auc);
        }
    }
    println!("(paper: PA-TMR dominates all baselines, with the gap widening at higher recall)");
}
