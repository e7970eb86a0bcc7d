//! **Figure 5** — flexibility of the framework: GRU+ATT, CNN+ATT, PCNN and
//! PCNN+ATT each with and without the TMR components, AUC bars per dataset.
//!
//! The paper reports a 2–7 % improvement for every base model; the
//! reproduction target is `base + TMR > base` for all four bases.

use imre_bench::{build_pipeline, dataset_configs, header, seeds};
use imre_core::ModelSpec;
use imre_eval::{format_table, mean_evaluation, metric};

fn main() {
    header(
        "Figure 5: base models with and without TMR components",
        "paper Fig. 5",
    );
    let seed_list = seeds();
    let bases = [
        ModelSpec::gru_att(),
        ModelSpec::cnn_att(),
        ModelSpec::pcnn(),
        ModelSpec::pcnn_att(),
    ];

    for config in dataset_configs() {
        let p = build_pipeline(&config);
        let mut rows = Vec::new();
        let all_specs: Vec<imre_core::ModelSpec> =
            bases.iter().flat_map(|&b| [b, b.with_tmr()]).collect();
        let all_evals = p.run_grid(&all_specs, &seed_list, 0);
        for (i, base) in bases.iter().enumerate() {
            let base = *base;
            let ev_base = mean_evaluation(&all_evals[2 * i]);
            let ev_tmr = mean_evaluation(&all_evals[2 * i + 1]);
            let delta = ev_tmr.auc - ev_base.auc;
            println!(
                "  [{}] {}: {:.4} → {:.4} ({:+.4})",
                config.name,
                base.name(),
                ev_base.auc,
                ev_tmr.auc,
                delta
            );
            rows.push(vec![
                base.name(),
                metric(ev_base.auc),
                metric(ev_tmr.auc),
                format!("{:+.4}", delta),
                format!("{:+.1}%", 100.0 * delta / ev_base.auc.max(1e-6)),
            ]);
        }
        println!(
            "\n{}",
            format_table(
                &format!(
                    "Figure 5 — {} (AUC, {} seed(s))",
                    config.name,
                    seed_list.len()
                ),
                &["base model", "base AUC", "+TMR AUC", "Δ", "Δ%"],
                &rows,
            )
        );
    }
    println!("(paper: every base model improves by 2-7% when the implicit mutual relations and entity types are integrated)");
}
