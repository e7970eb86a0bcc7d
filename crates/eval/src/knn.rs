//! kNN label-interpolation evaluation: the serve-time long-tail rescue.
//!
//! The paper's implicit-mutual-relations component helps exactly where
//! distant supervision is weakest — entity pairs with little textual
//! evidence. The kNN path attacks the same long tail non-parametrically: a
//! deterministic HNSW index over the *training* bags' pooled
//! representations turns each test bag's neighborhood into a label
//! distribution, blended into the model's softmax as
//! `(1−λ)·model + λ·votes`. This module builds that index (the same one
//! `imre train --bundle` ships inside the `.imrb`) and reports held-out
//! metrics with and without the interpolation, stratified by
//! unlabeled-corpus co-occurrence quantile (the Figure 6 axis) — the
//! low-co-occurrence buckets are where the lift should appear.

use crate::heldout::{evaluate_system, hard_f1};
use crate::metrics::Evaluation;
use crate::runner::Pipeline;
use crate::slices::f1_by_cooccurrence_quantile;
use imre_ann::{blend_scores, AnnIndex, HnswConfig, SearchScratch};
use imre_core::{PreparedBag, ReModel};
use imre_tensor::BufferPool;

/// One co-occurrence-quantile bucket's F1 with and without interpolation.
#[derive(Debug, Clone)]
pub struct KnnBucket {
    /// Quantile label `qX`: the quantile the bucket's last pair reaches
    /// (see [`f1_by_cooccurrence_quantile`]).
    pub label: String,
    /// Hard-F1 of the pure model on this bucket.
    pub base_f1: f32,
    /// Hard-F1 of the interpolated scores on this bucket.
    pub knn_f1: f32,
}

/// Held-out comparison of pure vs. kNN-interpolated scoring.
#[derive(Debug, Clone)]
pub struct KnnReport {
    /// Neighbors retrieved per query.
    pub k: usize,
    /// Interpolation weight.
    pub lambda: f32,
    /// Held-out metrics of the pure model (λ=0 path).
    pub base: Evaluation,
    /// Held-out metrics with interpolation.
    pub blended: Evaluation,
    /// Hard-F1 of the pure model over the full test split.
    pub base_hard_f1: f32,
    /// Hard-F1 with interpolation over the full test split.
    pub blended_hard_f1: f32,
    /// Per-bucket F1, increasing co-occurrence order.
    pub buckets: Vec<KnnBucket>,
    /// Training bags indexed.
    pub index_len: usize,
    /// On-disk size of the serialized index section, in bytes.
    pub index_bytes: usize,
    /// Wall-clock time spent building the index, in milliseconds.
    pub build_ms: f64,
}

/// Builds the serving kNN index for a trained model: one vector per
/// training bag (the eval-mode pooled representation, `ReModel::
/// predict_repr_batch`), labeled with the bag's distant-supervision
/// relation. Deterministic in `(model, train set, seed)` — byte-identical
/// across runs and thread counts.
///
/// # Panics
/// If the pipeline has no training bags (`AnnIndex::build` rejects empty
/// input).
pub fn build_index(pipeline: &Pipeline, model: &ReModel, seed: u64) -> AnnIndex {
    let bags: Vec<&PreparedBag> = pipeline.train_bags.iter().collect();
    let reprs = model.predict_repr_batch(&bags);
    let dim = model.sent_dim();
    let mut vectors = Vec::with_capacity(reprs.len() * dim);
    for r in &reprs {
        vectors.extend_from_slice(r);
    }
    let labels: Vec<u32> = pipeline.train_bags.iter().map(|b| b.label as u32).collect();
    AnnIndex::build(dim, vectors, labels, HnswConfig::with_seed(seed))
        .expect("training bags produce a valid index")
}

/// Evaluates a trained model with and without kNN label interpolation.
///
/// Each test bag runs through the encoder once, via
/// [`ReModel::predict_pooled`]: its scores are the pure numbers
/// (bit-identical to [`ReModel::predict`], hence to
/// [`Pipeline::evaluate_model`]) and its pooled representation is the kNN
/// query. The blended numbers re-score the bag as
/// `(1−λ)·model + λ·neighbor-votes` with `k` neighbors from an index built
/// over the training bags (seeded with `seed`).
pub fn evaluate_model_knn(
    pipeline: &Pipeline,
    model: &ReModel,
    k: usize,
    lambda: f32,
    seed: u64,
    n_buckets: usize,
) -> KnnReport {
    let build_start = std::time::Instant::now();
    let index = build_index(pipeline, model, seed);
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let index_bytes = index.serialized_len();
    let ctx = pipeline.ctx();
    let bags = &pipeline.test_bags;
    let num_relations = pipeline.dataset.num_relations();

    let blend = k > 0 && lambda > 0.0;
    let mut pool = BufferPool::new();
    let mut scratch = SearchScratch::new();
    let mut repr = vec![0.0f32; model.sent_dim()];
    let mut votes = vec![0.0f32; num_relations];
    let mut base_scores = Vec::with_capacity(bags.len());
    let mut knn_scores = Vec::with_capacity(bags.len());
    for bag in bags {
        let scores = model.predict_pooled(bag, &ctx, &mut pool, blend.then_some(&mut repr[..]));
        let mut blended = scores.clone();
        if blend {
            let neighbors = index.search(&repr, k.min(index.len()), &mut scratch);
            index.label_votes_into(neighbors, &mut votes);
            blend_scores(&mut blended, &votes, lambda);
        }
        base_scores.push(scores);
        knn_scores.push(blended);
    }

    let base = evaluate_system(bags, num_relations, &base_scores);
    let blended = evaluate_system(bags, num_relations, &knn_scores);
    let base_hard_f1 = hard_f1(bags, &base_scores);
    let blended_hard_f1 = hard_f1(bags, &knn_scores);
    let base_buckets = f1_by_cooccurrence_quantile(bags, &pipeline.co, n_buckets, &base_scores);
    let knn_buckets = f1_by_cooccurrence_quantile(bags, &pipeline.co, n_buckets, &knn_scores);
    let buckets = base_buckets
        .into_iter()
        .zip(knn_buckets)
        .map(|((label, base_f1), (_, knn_f1))| KnnBucket {
            label,
            base_f1,
            knn_f1,
        })
        .collect();
    KnnReport {
        k,
        lambda,
        base,
        blended,
        base_hard_f1,
        blended_hard_f1,
        buckets,
        index_len: index.len(),
        index_bytes,
        build_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::smoke_config;
    use imre_core::{HyperParams, ModelSpec};

    fn smoke_pipeline() -> Pipeline {
        let mut hp = HyperParams::tiny();
        hp.epochs = 12;
        Pipeline::build(&smoke_config(3), hp)
    }

    #[test]
    fn index_covers_every_training_bag_deterministically() {
        let p = smoke_pipeline();
        let model = p.train_system(ModelSpec::pcnn(), 5);
        let a = build_index(&p, &model, 7);
        let b = build_index(&p, &model, 7);
        assert_eq!(a.len(), p.train_bags.len());
        let bytes = |ix: &AnnIndex| {
            let mut out = Vec::new();
            ix.write_to(&mut out).unwrap();
            out
        };
        assert_eq!(bytes(&a), bytes(&b), "same seed must be byte-identical");
    }

    #[test]
    fn lambda_zero_report_matches_pure_evaluation() {
        let p = smoke_pipeline();
        let model = p.train_system(ModelSpec::pcnn(), 5);
        let report = evaluate_model_knn(&p, &model, 4, 0.0, 7, 3);
        // λ=0 never blends, so both sides of the report are the pure path.
        assert_eq!(report.base.auc, report.blended.auc);
        assert_eq!(report.base_hard_f1, report.blended_hard_f1);
        let pure = p.evaluate_model(&model);
        assert_eq!(report.base.auc, pure.auc);
        for b in &report.buckets {
            assert_eq!(b.base_f1, b.knn_f1, "bucket {}", b.label);
        }
    }

    #[test]
    fn interpolation_changes_scores_and_reports_buckets() {
        let p = smoke_pipeline();
        let model = p.train_system(ModelSpec::pcnn(), 5);
        let report = evaluate_model_knn(&p, &model, 8, 0.5, 7, 3);
        assert_eq!(report.buckets.len(), 3);
        assert!(report.index_len > 0);
        assert!(report.index_bytes > 0);
        // With half the mass on neighbor votes the metrics must actually
        // differ from the pure path (equality would mean the blend is dead).
        assert!(
            report.base.auc != report.blended.auc || report.base_hard_f1 != report.blended_hard_f1,
            "blend changed nothing: auc {} vs {}",
            report.base.auc,
            report.blended.auc
        );
    }
}
