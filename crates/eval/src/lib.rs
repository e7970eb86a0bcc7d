//! # imre-eval
//!
//! Evaluation machinery for the `imre` reproduction of Kuang et al. (ICDE
//! 2020):
//!
//! * [`metrics`] — held-out PR curves, AUC, max-F1, P@N (paper §IV-A.2).
//! * [`heldout`] — scoring a test split's score table (one row per bag)
//!   under Lin et al.'s held-out protocol; hard-F1 for the slice analyses.
//! * [`slices`] — the Figure 6 (co-occurrence quantile) and Figure 7
//!   (sentence count) stratifications.
//! * [`knn`] — kNN label-interpolation evaluation: builds the serving HNSW
//!   index over training-bag representations and reports per-bucket F1
//!   with/without the blend (`imre eval --knn`).
//! * [`runner`] — the end-to-end [`Pipeline`] (dataset → proximity graph →
//!   LINE → train → evaluate) and its capped parallel (system, seed) grid.
//! * [`report`] — plain-text tables and curve series, the output format of
//!   every bench in `imre-bench`.
//! * [`truth`] — quality scored against the generating world (cluster
//!   purity of an entity embedding).

pub mod heldout;
pub mod knn;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod slices;
pub mod truth;

pub use heldout::{evaluate_system, hard_f1};
pub use knn::{build_index, evaluate_model_knn, KnnBucket, KnnReport};
pub use metrics::{
    auc, evaluate_predictions, max_f1, p_at_n, pr_curve, Evaluation, PrPoint, Prediction,
};
pub use report::{format_labeled_series, format_pr_series, format_table, metric, metric2};
pub use runner::{mean_evaluation, smoke_config, MeanEvaluation, Pipeline};
pub use slices::{f1_by_cooccurrence_quantile, f1_by_sentence_count};
pub use truth::cluster_purity_at_k;
