//! Scoring a system's test-split score table under the held-out protocol.
//!
//! Every `(test bag, non-NA relation)` pair contributes one scored
//! prediction; it counts as correct when the bag's distant-supervision label
//! is exactly that relation. Recall is measured against the number of
//! non-NA test bags. This mirrors Lin et al.'s evaluation, which the paper
//! adopts ("compare the predicting relation facts from the test sentences
//! with those in Freebase").

use crate::metrics::{evaluate_predictions, Evaluation, Prediction};
use imre_core::PreparedBag;

/// Evaluates a score table over prepared test bags: `scores[i]` is the
/// per-relation score vector of `bags[i]` (index 0 = NA, skipped).
///
/// # Panics
/// If the table does not hold one row per bag, or the test split has no
/// non-NA bag.
pub fn evaluate_system(
    bags: &[PreparedBag],
    num_relations: usize,
    scores: &[Vec<f32>],
) -> Evaluation {
    assert_eq!(scores.len(), bags.len(), "evaluate_system: one row per bag");
    let mut predictions = Vec::with_capacity(bags.len() * (num_relations - 1));
    let mut positives = 0usize;
    for (bag, row) in bags.iter().zip(scores) {
        if bag.label != 0 {
            positives += 1;
        }
        debug_assert_eq!(row.len(), num_relations);
        for (r, &score) in row.iter().enumerate().skip(1) {
            predictions.push(Prediction {
                score,
                correct: bag.label == r,
            });
        }
    }
    assert!(
        positives > 0,
        "evaluate_system: no non-NA bags in the test split"
    );
    evaluate_predictions(predictions, positives)
}

/// Micro-F1 of hard (argmax) predictions over a score table (`scores[i]`
/// for `bags[i]`): a bag counts as predicted-positive when its argmax is
/// non-NA, and as correct when the argmax equals its label.
pub fn hard_f1(bags: &[PreparedBag], scores: &[Vec<f32>]) -> f32 {
    assert_eq!(scores.len(), bags.len(), "hard_f1: one row per bag");
    hard_f1_of(bags, scores, 0..bags.len())
}

/// [`hard_f1`] over the bags at `indices` — the Figure 6/7 slices.
pub(crate) fn hard_f1_of(
    bags: &[PreparedBag],
    scores: &[Vec<f32>],
    indices: impl IntoIterator<Item = usize>,
) -> f32 {
    let mut predicted_pos = 0usize;
    let mut actual_pos = 0usize;
    let mut correct_pos = 0usize;
    for i in indices {
        let label = bags[i].label;
        let argmax = scores[i]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
            .map(|(i, _)| i)
            .expect("non-empty scores");
        if label != 0 {
            actual_pos += 1;
        }
        if argmax != 0 {
            predicted_pos += 1;
            if argmax == label {
                correct_pos += 1;
            }
        }
    }
    if predicted_pos == 0 || actual_pos == 0 || correct_pos == 0 {
        return 0.0;
    }
    let p = correct_pos as f32 / predicted_pos as f32;
    let r = correct_pos as f32 / actual_pos as f32;
    2.0 * p * r / (p + r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imre_core::{PreparedBag, SentenceFeatures};

    fn oracle(bags: &[PreparedBag], n: usize) -> Vec<Vec<f32>> {
        bags.iter()
            .map(|b| {
                let mut s = vec![0.0; n];
                s[b.label] = 1.0;
                s
            })
            .collect()
    }

    fn bag(label: usize) -> PreparedBag {
        PreparedBag {
            head: 0,
            tail: 1,
            label,
            sentences: vec![SentenceFeatures {
                tokens: vec![1],
                head_offsets: vec![0],
                tail_offsets: vec![0],
                head_pos: 0,
                tail_pos: 0,
            }],
        }
    }

    #[test]
    fn oracle_scores_give_perfect_eval() {
        let bags: Vec<PreparedBag> = vec![bag(1), bag(2), bag(0), bag(1)];
        let ev = evaluate_system(&bags, 3, &oracle(&bags, 3));
        assert!((ev.f1 - 1.0).abs() < 1e-6, "f1 {}", ev.f1);
        assert!(ev.auc > 0.99);
    }

    #[test]
    fn random_scores_bounded_metrics() {
        let bags: Vec<PreparedBag> = (0..20).map(|i| bag(i % 3)).collect();
        let scores: Vec<Vec<f32>> = (1..=20u32)
            .map(|c| {
                vec![
                    0.1,
                    ((c * 37 % 11) as f32) / 11.0,
                    ((c * 53 % 7) as f32) / 7.0,
                ]
            })
            .collect();
        let ev = evaluate_system(&bags, 3, &scores);
        assert!(ev.auc > 0.0 && ev.auc < 1.0);
        assert!(ev.f1 > 0.0 && ev.f1 < 1.0);
    }

    #[test]
    fn hard_f1_oracle_is_one() {
        let bags: Vec<PreparedBag> = vec![bag(1), bag(0), bag(2)];
        let f1 = hard_f1(&bags, &oracle(&bags, 3));
        assert!((f1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn hard_f1_all_na_predictions_zero() {
        let bags: Vec<PreparedBag> = vec![bag(1), bag(2)];
        let f1 = hard_f1(&bags, &[vec![1.0, 0.0, 0.0], vec![1.0, 0.0, 0.0]]);
        assert_eq!(f1, 0.0);
    }

    #[test]
    #[should_panic(expected = "no non-NA bags")]
    fn all_na_test_split_panics() {
        let bags: Vec<PreparedBag> = vec![bag(0)];
        let _ = evaluate_system(&bags, 2, &[vec![0.5, 0.5]]);
    }
}
