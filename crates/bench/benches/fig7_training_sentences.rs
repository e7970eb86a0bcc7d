//! **Figure 7** — F1 of entity pairs with few available sentences,
//! PA-TMR vs PCNN+ATT, bucketed by sentence count (1, 2, 3, 4, 5+).
//!
//! The paper's finding: both models improve with more sentences, and
//! PA-TMR's advantage is largest for the sentence-starved pairs — the
//! implicit mutual relations compensate for missing textual evidence.
//! (Bucketing uses the test bag's own sentence count; see DESIGN.md for
//! the train/test-disjointness note.)

use imre_bench::{build_pipeline, dataset_configs, header, seeds};
use imre_core::ModelSpec;
use imre_eval::{f1_by_sentence_count, format_table};

fn main() {
    header(
        "Figure 7: F1 by number of sentences per entity pair",
        "paper Fig. 7",
    );
    let seed = seeds()[0];

    for config in dataset_configs() {
        let p = build_pipeline(&config);
        let base = p.train_system(ModelSpec::pcnn_att(), seed);
        let full = p.train_system(ModelSpec::pa_tmr(), seed);
        let base_f1 = f1_by_sentence_count(&p.test_bags, &p.test_scores(&base));
        let full_f1 = f1_by_sentence_count(&p.test_bags, &p.test_scores(&full));
        let rows: Vec<Vec<String>> = base_f1
            .iter()
            .zip(&full_f1)
            .map(|((label, b), (_, f))| {
                vec![
                    label.clone(),
                    format!("{b:.4}"),
                    format!("{f:.4}"),
                    format!("{:+.4}", f - b),
                ]
            })
            .collect();
        println!(
            "\n{}",
            format_table(
                &format!("Figure 7 — {} (#sentences → F1)", config.name),
                &["#sentences", "PCNN+ATT", "PA-TMR", "Δ"],
                &rows,
            )
        );
    }
    println!(
        "(paper: PA-TMR outperforms PCNN+ATT most for pairs with inadequate training sentences)"
    );
}
