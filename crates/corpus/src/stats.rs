//! Dataset statistics: the frequency histogram of Figure 1 and the summary
//! numbers of Table II.

use crate::dataset::{Bag, Dataset};

/// A labelled frequency band for histograms, e.g. `1–5`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Band {
    /// Inclusive lower bound.
    pub lo: usize,
    /// Inclusive upper bound (`usize::MAX` = open-ended).
    pub hi: usize,
}

impl Band {
    /// Formats the band the way the paper's Figure 1 axis does.
    pub fn label(&self) -> String {
        if self.hi == usize::MAX {
            format!("{}+", self.lo)
        } else {
            format!("{}-{}", self.lo, self.hi)
        }
    }

    /// Whether `v` falls in the band.
    pub fn contains(&self, v: usize) -> bool {
        v >= self.lo && v <= self.hi
    }
}

/// The frequency bands used by Figure 1.
pub fn fig1_bands() -> Vec<Band> {
    vec![
        Band { lo: 1, hi: 5 },
        Band { lo: 6, hi: 10 },
        Band { lo: 11, hi: 20 },
        Band { lo: 21, hi: 50 },
        Band { lo: 51, hi: 100 },
        Band {
            lo: 101,
            hi: usize::MAX,
        },
    ]
}

/// Counts entity pairs per sentence-count band (Figure 1): how many pairs
/// have `1–5`, `6–10`, … training sentences.
pub fn pair_frequency_histogram(bags: &[Bag], bands: &[Band]) -> Vec<(String, usize)> {
    bands
        .iter()
        .map(|band| {
            let count = bags
                .iter()
                .filter(|b| band.contains(b.sentences.len()))
                .count();
            (band.label(), count)
        })
        .collect()
}

/// The Table II summary row for one dataset.
#[derive(Debug, Clone)]
pub struct DatasetSummary {
    /// Dataset display name.
    pub name: String,
    /// Number of relation labels (including `NA`).
    pub num_relations: usize,
    /// Training sentences.
    pub train_sentences: usize,
    /// Training entity pairs (bags).
    pub train_pairs: usize,
    /// Test sentences.
    pub test_sentences: usize,
    /// Test entity pairs (bags).
    pub test_pairs: usize,
}

/// Computes the Table II row for a dataset.
pub fn summarize(ds: &Dataset) -> DatasetSummary {
    DatasetSummary {
        name: ds.name.clone(),
        num_relations: ds.num_relations(),
        train_sentences: Dataset::sentence_count(&ds.train),
        train_pairs: ds.train.len(),
        test_sentences: Dataset::sentence_count(&ds.test),
        test_pairs: ds.test.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetConfig};
    use crate::sentences::SentenceGenConfig;
    use crate::world::WorldConfig;

    fn ds() -> Dataset {
        Dataset::generate(&DatasetConfig {
            name: "t".into(),
            world: WorldConfig {
                n_relations: 5,
                entities_per_cluster: 8,
                facts_per_relation: 15,
                cluster_reuse_prob: 0.4,
                seed: 1,
            },
            sentence: SentenceGenConfig::default(),
            train_fraction: 0.7,
            na_train: 20,
            na_test: 10,
            na_hard_fraction: 0.5,
            zipf_alpha: 1.8,
            max_sentences_per_bag: 30,
            seed: 2,
        })
    }

    #[test]
    fn band_labels() {
        assert_eq!(Band { lo: 1, hi: 5 }.label(), "1-5");
        assert_eq!(
            Band {
                lo: 101,
                hi: usize::MAX
            }
            .label(),
            "101+"
        );
    }

    #[test]
    fn histogram_partitions_all_bags() {
        let d = ds();
        let hist = pair_frequency_histogram(&d.train, &fig1_bands());
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, d.train.len(), "bands must partition bag counts");
    }

    #[test]
    fn histogram_is_long_tailed() {
        let d = ds();
        let hist = pair_frequency_histogram(&d.train, &fig1_bands());
        // The 1-5 band dominates, as in the paper's Figure 1.
        assert!(hist[0].1 > hist[1].1, "{:?}", hist);
        assert!(hist[0].1 as f32 / d.train.len() as f32 > 0.6);
    }

    #[test]
    fn summary_counts_consistent() {
        let d = ds();
        let s = summarize(&d);
        assert_eq!(s.train_pairs, d.train.len());
        assert_eq!(s.test_pairs, d.test.len());
        assert_eq!(s.num_relations, 5);
        assert!(
            s.train_sentences >= s.train_pairs,
            "at least one sentence per bag"
        );
    }
}
