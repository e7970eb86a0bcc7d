//! **Figure 6** — F1 of test pairs bucketed by their co-occurrence
//! frequency *in the unlabeled corpus* (quantiles), PA-TMR vs PCNN+ATT.
//!
//! The paper's findings: F1 rises with co-occurrence frequency, PA-TMR
//! leads everywhere, and the gain is larger on the smaller GDS dataset.

use imre_bench::{build_pipeline, dataset_configs, header, seeds};
use imre_core::ModelSpec;
use imre_eval::{f1_by_cooccurrence_quantile, format_table};

fn main() {
    header(
        "Figure 6: F1 by unlabeled-corpus co-occurrence quantile",
        "paper Fig. 6",
    );
    let seed = seeds()[0];
    const BUCKETS: usize = 5;

    for config in dataset_configs() {
        let p = build_pipeline(&config);
        let base = p.train_system(ModelSpec::pcnn_att(), seed);
        let full = p.train_system(ModelSpec::pa_tmr(), seed);
        let base_f1 =
            f1_by_cooccurrence_quantile(&p.test_bags, &p.co, BUCKETS, &p.test_scores(&base));
        let full_f1 =
            f1_by_cooccurrence_quantile(&p.test_bags, &p.co, BUCKETS, &p.test_scores(&full));
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
                &format!("Figure 6 — {} (co-occurrence quantile → F1)", config.name),
                &["quantile", "PCNN+ATT", "PA-TMR", "Δ"],
                &rows,
            )
        );
    }
    println!("(paper: F1 trends upward with co-occurrence frequency; improvement larger on the small dataset)");
}
