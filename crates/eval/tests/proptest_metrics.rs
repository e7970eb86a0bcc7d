//! Property-based tests for the evaluation metrics: PR-curve laws that must
//! hold for arbitrary prediction sets.

use imre_eval::{auc, evaluate_predictions, max_f1, p_at_n, pr_curve, Prediction};
use proptest::prelude::*;

fn predictions() -> impl Strategy<Value = Vec<Prediction>> {
    proptest::collection::vec((0.0f32..1.0, proptest::bool::ANY), 2..200).prop_map(|v| {
        v.into_iter()
            .map(|(score, correct)| Prediction { score, correct })
            .collect()
    })
}

fn positives(preds: &[Prediction]) -> usize {
    preds.iter().filter(|p| p.correct).count()
}

proptest! {
    #[test]
    fn recall_monotone_nondecreasing(preds in predictions()) {
        let pos = positives(&preds).max(1);
        let curve = pr_curve(preds, pos);
        for w in curve.windows(2) {
            prop_assert!(w[1].recall >= w[0].recall - 1e-7);
        }
    }

    #[test]
    fn final_recall_is_total_hits_over_positives(preds in predictions()) {
        let hits = positives(&preds);
        prop_assume!(hits > 0);
        let curve = pr_curve(preds, hits);
        let last = curve.last().unwrap();
        prop_assert!((last.recall - 1.0).abs() < 1e-6);
    }

    #[test]
    fn precision_in_unit_interval(preds in predictions()) {
        let pos = positives(&preds).max(1);
        let curve = pr_curve(preds, pos);
        for p in &curve {
            prop_assert!((0.0..=1.0).contains(&p.precision));
            prop_assert!((0.0..=1.0).contains(&p.recall));
        }
    }

    #[test]
    fn auc_and_f1_bounded(preds in predictions()) {
        let pos = positives(&preds).max(1);
        let ev = evaluate_predictions(preds, pos);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&ev.auc));
        prop_assert!((0.0..=1.0).contains(&ev.f1));
        prop_assert!(ev.f1 >= 0.0);
    }

    #[test]
    fn perfect_ranking_dominates_any_ranking(preds in predictions()) {
        let hits = positives(&preds);
        prop_assume!(hits > 0 && hits < preds.len());
        // perfect ranking: all correct predictions first
        let perfect: Vec<Prediction> = {
            let mut v = preds.clone();
            v.sort_by_key(|p| !p.correct);
            v.iter().enumerate().map(|(i, p)| Prediction { score: 1.0 - i as f32 / v.len() as f32, correct: p.correct }).collect()
        };
        let a_any = auc(&pr_curve(preds, hits));
        let a_perfect = auc(&pr_curve(perfect, hits));
        prop_assert!(a_perfect >= a_any - 1e-4, "perfect {a_perfect} < actual {a_any}");
    }

    #[test]
    fn p_at_n_monotone_in_perfectness(preds in predictions()) {
        // P@N of a perfect ranking is ≥ P@N of the given ranking for small N
        let hits = positives(&preds);
        prop_assume!(hits > 0);
        let perfect: Vec<Prediction> = {
            let mut v = preds.clone();
            v.sort_by_key(|p| !p.correct);
            v.iter().enumerate().map(|(i, p)| Prediction { score: 1.0 - i as f32 / v.len() as f32, correct: p.correct }).collect()
        };
        let perfect = pr_curve(perfect, hits);
        let given = pr_curve(preds, hits);
        for n in [1usize, 5, 20] {
            prop_assert!(p_at_n(&perfect, n) >= p_at_n(&given, n) - 1e-6);
        }
    }

    #[test]
    fn max_f1_is_on_curve(preds in predictions()) {
        let pos = positives(&preds).max(1);
        let curve = pr_curve(preds, pos);
        let (f1, p, r) = max_f1(&curve);
        if f1 > 0.0 {
            // the reported (p, r) must be an actual curve point
            let found = curve.iter().any(|pt| (pt.precision - p).abs() < 1e-6 && (pt.recall - r).abs() < 1e-6);
            prop_assert!(found, "max-F1 point ({p}, {r}) not on curve");
            // and f1 must match its own formula
            prop_assert!((f1 - 2.0 * p * r / (p + r)).abs() < 1e-5);
        }
    }

    #[test]
    fn score_shift_invariance(preds in predictions(), shift in 0.0f32..5.0) {
        // adding a constant to every score must not change any metric
        let hits = positives(&preds).max(1);
        let shifted: Vec<Prediction> = preds.iter().map(|p| Prediction { score: p.score + shift, correct: p.correct }).collect();
        let e1 = evaluate_predictions(preds, hits);
        let e2 = evaluate_predictions(shifted, hits);
        prop_assert!((e1.auc - e2.auc).abs() < 1e-6);
        prop_assert!((e1.f1 - e2.f1).abs() < 1e-6);
    }
}
