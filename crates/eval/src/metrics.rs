//! Held-out evaluation metrics (paper §IV-A.2): precision–recall curves,
//! AUC (area under the PR curve), max-F1 with its precision/recall, and
//! precision-at-N.

/// One scored prediction: `(score, is_correct)`.
///
/// In the held-out protocol every (test bag, non-NA relation) pair yields
/// one prediction; it is correct when the bag's distant-supervision label
/// equals that relation.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// Model confidence for the (bag, relation) pair.
    pub score: f32,
    /// Whether the KG holds this relation for the bag's entity pair.
    pub correct: bool,
}

/// A point on the precision–recall curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// Precision at this rank.
    pub precision: f32,
    /// Recall at this rank.
    pub recall: f32,
}

/// Complete held-out evaluation results.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// PR curve, one point per prediction rank.
    pub curve: Vec<PrPoint>,
    /// Area under the PR curve.
    pub auc: f32,
    /// Maximum F1 along the curve.
    pub f1: f32,
    /// Precision at the max-F1 point.
    pub precision: f32,
    /// Recall at the max-F1 point.
    pub recall: f32,
    /// Precision over the top-100 predictions.
    pub p_at_100: f32,
    /// Precision over the top-200 predictions.
    pub p_at_200: f32,
    /// Precision over the top-300 predictions (paper Table III reports
    /// P@N for N ∈ {100, 200, 300}).
    pub p_at_300: f32,
}

/// Computes the PR curve from scored predictions and the number of true
/// positive facts in the test set (`total_positives` — recall's
/// denominator).
///
/// # Panics
/// If `total_positives == 0` or `predictions` is empty.
pub fn pr_curve(mut predictions: Vec<Prediction>, total_positives: usize) -> Vec<PrPoint> {
    assert!(total_positives > 0, "pr_curve: no positive facts to recall");
    assert!(!predictions.is_empty(), "pr_curve: no predictions");
    predictions.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
    let mut tp = 0usize;
    let mut curve = Vec::with_capacity(predictions.len());
    for (rank, p) in predictions.iter().enumerate() {
        if p.correct {
            tp += 1;
        }
        curve.push(PrPoint {
            precision: tp as f32 / (rank + 1) as f32,
            recall: tp as f32 / total_positives as f32,
        });
    }
    curve
}

/// Area under a PR curve by trapezoidal integration over recall.
pub fn auc(curve: &[PrPoint]) -> f32 {
    let mut area = 0.0f64;
    let mut prev_recall = 0.0f32;
    let mut prev_precision = curve.first().map_or(1.0, |p| p.precision);
    for p in curve {
        let dr = (p.recall - prev_recall) as f64;
        if dr > 0.0 {
            area += dr * ((p.precision + prev_precision) as f64 / 2.0);
        }
        prev_recall = p.recall;
        prev_precision = p.precision;
    }
    area as f32
}

/// Max F1 along a curve, returned with its precision and recall.
pub fn max_f1(curve: &[PrPoint]) -> (f32, f32, f32) {
    let mut best = (0.0f32, 0.0f32, 0.0f32);
    for p in curve {
        if p.precision + p.recall > 0.0 {
            let f1 = 2.0 * p.precision * p.recall / (p.precision + p.recall);
            if f1 > best.0 {
                best = (f1, p.precision, p.recall);
            }
        }
    }
    best
}

/// Precision over the `n` highest-scored predictions, read off a curve
/// from [`pr_curve`]: the precision at rank `min(n, len)`, or 0 for an
/// empty curve or `n = 0`.
pub fn p_at_n(curve: &[PrPoint], n: usize) -> f32 {
    match n.min(curve.len()) {
        0 => 0.0,
        top => curve[top - 1].precision,
    }
}

/// Bundles curve + scalar metrics from raw predictions.
pub fn evaluate_predictions(predictions: Vec<Prediction>, total_positives: usize) -> Evaluation {
    let curve = pr_curve(predictions, total_positives);
    let (f1, precision, recall) = max_f1(&curve);
    Evaluation {
        auc: auc(&curve),
        f1,
        precision,
        recall,
        p_at_100: p_at_n(&curve, 100),
        p_at_200: p_at_n(&curve, 200),
        p_at_300: p_at_n(&curve, 300),
        curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(score: f32, correct: bool) -> Prediction {
        Prediction { score, correct }
    }

    #[test]
    fn perfect_ranking_has_unit_auc() {
        let preds = vec![
            pred(0.9, true),
            pred(0.8, true),
            pred(0.2, false),
            pred(0.1, false),
        ];
        let ev = evaluate_predictions(preds, 2);
        assert!((ev.auc - 1.0).abs() < 1e-6, "auc {}", ev.auc);
        assert!((ev.f1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn inverted_ranking_has_low_auc() {
        let preds = vec![
            pred(0.9, false),
            pred(0.8, false),
            pred(0.2, true),
            pred(0.1, true),
        ];
        let ev = evaluate_predictions(preds, 2);
        assert!(ev.auc < 0.5, "auc {}", ev.auc);
    }

    #[test]
    fn precision_monotone_counts() {
        let preds = vec![pred(0.9, true), pred(0.8, false), pred(0.7, true)];
        let curve = pr_curve(preds, 2);
        assert_eq!(curve.len(), 3);
        assert!((curve[0].precision - 1.0).abs() < 1e-6);
        assert!((curve[1].precision - 0.5).abs() < 1e-6);
        assert!((curve[2].precision - 2.0 / 3.0).abs() < 1e-6);
        assert!((curve[2].recall - 1.0).abs() < 1e-6);
    }

    #[test]
    fn recall_never_decreases() {
        let preds: Vec<Prediction> = (0..100)
            .map(|i| pred(1.0 / (i + 1) as f32, i % 3 == 0))
            .collect();
        let curve = pr_curve(preds, 34);
        for w in curve.windows(2) {
            assert!(w[1].recall >= w[0].recall);
        }
    }

    #[test]
    fn auc_bounded() {
        let preds: Vec<Prediction> = (0..50)
            .map(|i| pred((i as f32).sin().abs(), i % 2 == 0))
            .collect();
        let ev = evaluate_predictions(preds, 25);
        assert!(ev.auc >= 0.0 && ev.auc <= 1.0);
        assert!(ev.f1 >= 0.0 && ev.f1 <= 1.0);
    }

    #[test]
    fn p_at_n_counts_top() {
        let preds = vec![
            pred(0.9, true),
            pred(0.8, false),
            pred(0.7, true),
            pred(0.6, true),
        ];
        let curve = pr_curve(preds, 3);
        assert!((p_at_n(&curve, 2) - 0.5).abs() < 1e-6);
        assert!((p_at_n(&curve, 4) - 0.75).abs() < 1e-6);
        // n beyond length falls back to all predictions
        assert!((p_at_n(&curve, 100) - 0.75).abs() < 1e-6);
        assert_eq!(p_at_n(&curve, 0), 0.0);
    }

    #[test]
    fn max_f1_picks_best_tradeoff() {
        let curve = vec![
            PrPoint {
                precision: 1.0,
                recall: 0.1,
            },
            PrPoint {
                precision: 0.8,
                recall: 0.5,
            },
            PrPoint {
                precision: 0.3,
                recall: 0.9,
            },
        ];
        let (f1, p, r) = max_f1(&curve);
        assert!((p - 0.8).abs() < 1e-6 && (r - 0.5).abs() < 1e-6);
        assert!((f1 - 2.0 * 0.8 * 0.5 / 1.3).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "no positive facts")]
    fn zero_positives_panics() {
        let _ = pr_curve(vec![pred(0.5, false)], 0);
    }
}
