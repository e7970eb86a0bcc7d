//! Stratified evaluation slices for the paper's Figures 6 and 7.
//!
//! * **Figure 6** buckets test pairs by their co-occurrence frequency
//!   *in the unlabeled corpus* (quantiles) and reports F1 per bucket.
//! * **Figure 7** buckets test pairs by their number of available sentences
//!   and reports F1 per bucket. (The paper buckets by training-corpus
//!   sentence count; our held-out split keeps train/test pairs disjoint, so
//!   the test bag's own sentence count is the faithful analogue — it is the
//!   quantity that controls how much textual evidence the model sees for
//!   the pair. Documented in DESIGN.md.)

use crate::heldout::hard_f1_of;
use imre_core::PreparedBag;
use imre_corpus::CoOccurrence;

/// F1 per quantile bucket of unlabeled-corpus co-occurrence counts, from a
/// score table (`scores[i]` for `bags[i]`).
///
/// Pairs are sorted by co-occurrence count and split into
/// `min(n_buckets, len)` buckets whose sizes differ by at most one (the
/// larger ones first). The returned vector holds `(label, f1)` per bucket,
/// in increasing co-occurrence order; the label `qX` is the quantile the
/// bucket's last pair reaches, `X = ⌊100 · end / len⌋`, so the top bucket
/// is always `q100`.
pub fn f1_by_cooccurrence_quantile(
    bags: &[PreparedBag],
    co: &CoOccurrence,
    n_buckets: usize,
    scores: &[Vec<f32>],
) -> Vec<(String, f32)> {
    assert!(n_buckets > 0, "need at least one bucket");
    assert_eq!(scores.len(), bags.len(), "one score row per bag");
    let mut order: Vec<usize> = (0..bags.len()).collect();
    order.sort_by_key(|&i| co.count(bags[i].head, bags[i].tail));
    let len = order.len();
    let n = n_buckets.min(len);
    // Bucket `b` is `order[end(b)..end(b + 1)]`.
    let end = |b: usize| b * (len / n) + b.min(len % n);
    (0..n)
        .map(|b| {
            let bucket = &order[end(b)..end(b + 1)];
            let label = format!("q{}", end(b + 1) * 100 / len);
            (label, hard_f1_of(bags, scores, bucket.iter().copied()))
        })
        .collect()
}

/// F1 per sentence-count bucket (`1, 2, 3, 4, ≥5`), from a score table
/// (`scores[i]` for `bags[i]`).
pub fn f1_by_sentence_count(bags: &[PreparedBag], scores: &[Vec<f32>]) -> Vec<(String, f32)> {
    assert_eq!(scores.len(), bags.len(), "one score row per bag");
    let buckets: [(usize, usize); 5] = [(1, 1), (2, 2), (3, 3), (4, 4), (5, usize::MAX)];
    buckets
        .iter()
        .map(|&(lo, hi)| {
            let label = if hi == usize::MAX {
                format!("{lo}+")
            } else {
                lo.to_string()
            };
            let subset = (0..bags.len()).filter(|&i| (lo..=hi).contains(&bags[i].sentences.len()));
            (label, hard_f1_of(bags, scores, subset))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imre_core::SentenceFeatures;

    fn oracle(bags: &[PreparedBag]) -> Vec<Vec<f32>> {
        bags.iter()
            .map(|b| {
                let mut s = vec![0.0; 3];
                s[b.label] = 1.0;
                s
            })
            .collect()
    }

    fn bag(head: usize, label: usize, n_sentences: usize) -> PreparedBag {
        let s = SentenceFeatures {
            tokens: vec![1, 2],
            head_offsets: vec![0, 1],
            tail_offsets: vec![1, 0],
            head_pos: 0,
            tail_pos: 1,
        };
        PreparedBag {
            head,
            tail: head + 100,
            label,
            sentences: vec![s; n_sentences],
        }
    }

    #[test]
    fn quantile_buckets_cover_all_pairs() {
        let bags: Vec<PreparedBag> = (0..12).map(|i| bag(i, 1 + i % 2, 1)).collect();
        let mut co = CoOccurrence::new();
        for i in 0..12 {
            co.add(i, i + 100, (i as u32 + 1) * 3);
        }
        let out = f1_by_cooccurrence_quantile(&bags, &co, 4, &oracle(&bags));
        assert_eq!(out.len(), 4);
        for (label, f1) in &out {
            assert!(label.starts_with('q'));
            assert!(
                (f1 - 1.0).abs() < 1e-6,
                "oracle must be perfect in every bucket"
            );
        }
    }

    /// 49 pairs in 8 buckets: sizes 7, 6, …, 6, each labelled by the
    /// quantile its last pair reaches. Chunks of ⌈49/8⌉ = 7 would give 7
    /// buckets, the last labelled `q87`.
    #[test]
    fn quantile_buckets_are_balanced_and_labelled_by_reach() {
        let bags: Vec<PreparedBag> = (0..49).map(|i| bag(i, 1 + i % 2, 1)).collect();
        let mut co = CoOccurrence::new();
        for i in 0..49 {
            co.add(i, i + 100, 49 - i as u32);
        }
        // Only the 7 lowest-co-occurrence pairs (heads 42..49) are scored
        // right, so exactly the first bucket is perfect.
        let scores: Vec<Vec<f32>> = bags
            .iter()
            .map(|b| {
                let mut s = vec![0.0; 3];
                s[if b.head >= 42 { b.label } else { 3 - b.label }] = 1.0;
                s
            })
            .collect();
        let out = f1_by_cooccurrence_quantile(&bags, &co, 8, &scores);
        let labels: Vec<&str> = out.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            ["q14", "q26", "q38", "q51", "q63", "q75", "q87", "q100"]
        );
        assert_eq!(out[0].1, 1.0);
        assert!(out[1..].iter().all(|&(_, f1)| f1 == 0.0), "{out:?}");

        // More buckets than pairs: one pair per bucket.
        let out = f1_by_cooccurrence_quantile(&bags[..3], &co, 5, &scores[..3]);
        let labels: Vec<&str> = out.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["q33", "q66", "q100"]);
    }

    #[test]
    fn sentence_count_buckets_route_correctly() {
        let bags = vec![bag(0, 1, 1), bag(1, 1, 2), bag(2, 1, 7)];
        // oracle only for bags with ≥5 sentences; others predicted NA
        let scores: Vec<Vec<f32>> = oracle(&bags)
            .into_iter()
            .zip(&bags)
            .map(|(s, b)| {
                if b.sentences.len() >= 5 {
                    s
                } else {
                    vec![1.0, 0.0, 0.0]
                }
            })
            .collect();
        let out = f1_by_sentence_count(&bags, &scores);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].1, 0.0, "single-sentence bucket predicted NA");
        assert!(
            (out[4].1 - 1.0).abs() < 1e-6,
            "5+ bucket predicted correctly"
        );
        assert_eq!(out[4].0, "5+");
    }

    #[test]
    fn empty_bucket_yields_zero() {
        let bags = vec![bag(0, 1, 1)];
        let out = f1_by_sentence_count(&bags, &oracle(&bags));
        assert_eq!(out[1].1, 0.0, "no 2-sentence bags");
    }
}
