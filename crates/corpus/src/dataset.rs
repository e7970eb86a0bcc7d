//! Bag-structured distant-supervision datasets and the NYT-sim / GDS-sim
//! presets that stand in for the paper's two evaluation corpora.
//!
//! Multi-instance learning operates on *bags*: all sentences mentioning one
//! entity pair, labelled with the pair's KG relation (or `NA`). Sentence
//! counts per pair follow a Zipf law, reproducing the long-tailed frequency
//! distribution of Figure 1 that motivates the whole paper — most pairs have
//! very few training sentences.

use crate::sentences::{generate_sentence, EncodedSentence, SentenceGenConfig};
use crate::templates::{RelationId, NA};
use crate::vocab::Vocab;
use crate::world::{EntityId, World, WorldConfig};
use imre_tensor::TensorRng;

/// All sentences for one entity pair plus its distant-supervision label.
#[derive(Debug, Clone)]
pub struct Bag {
    /// Head entity.
    pub head: EntityId,
    /// Tail entity.
    pub tail: EntityId,
    /// Distant-supervision label (KG relation, or `NA`).
    pub label: RelationId,
    /// The pair's sentences.
    pub sentences: Vec<EncodedSentence>,
}

/// A Zipf sampler over `1..=max_k` with exponent `alpha`.
///
/// Used for per-pair sentence counts (training corpus) and per-pair
/// co-occurrence counts (unlabeled corpus).
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Precomputes the CDF of `P(k) ∝ k^{−alpha}` for `k ∈ 1..=max_k`.
    ///
    /// # Panics
    /// If `max_k == 0`.
    pub fn new(max_k: usize, alpha: f64) -> Self {
        assert!(max_k > 0, "Zipf: max_k must be positive");
        let mut cumulative = Vec::with_capacity(max_k);
        let mut total = 0.0;
        for k in 1..=max_k {
            total += (k as f64).powf(-alpha);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Draws a sample in `1..=max_k`.
    pub fn sample(&self, rng: &mut TensorRng) -> usize {
        let u = rng.f32() as f64;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("finite CDF"))
        {
            Ok(i) | Err(i) => (i + 1).min(self.cumulative.len()),
        }
    }
}

/// Configuration of a full dataset build.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Display name (`NYT-sim`, `GDS-sim`).
    pub name: String,
    /// World-model parameters.
    pub world: WorldConfig,
    /// Sentence-generation parameters (noise rate, lengths).
    pub sentence: SentenceGenConfig,
    /// Fraction of fact pairs assigned to the training split.
    pub train_fraction: f32,
    /// Number of `NA` bags in the training split.
    pub na_train: usize,
    /// Number of `NA` bags in the test split.
    pub na_test: usize,
    /// Fraction of `NA` bags drawn as *hard* negatives (type-compatible
    /// pairs from a relation's own clusters; see
    /// [`World::sample_hard_na_pair`]).
    pub na_hard_fraction: f32,
    /// Zipf exponent for per-pair sentence counts.
    pub zipf_alpha: f64,
    /// Maximum sentences per bag.
    pub max_sentences_per_bag: usize,
    /// Seed for sentence generation and splitting (world has its own seed).
    pub seed: u64,
}

/// A generated dataset: the world, its vocabulary, and train/test bags.
pub struct Dataset {
    /// Display name.
    pub name: String,
    /// The underlying world model (entities, clusters, relations, facts).
    pub world: World,
    /// Token vocabulary covering every generated sentence.
    pub vocab: Vocab,
    /// Training bags (fact pairs + `NA` pairs).
    pub train: Vec<Bag>,
    /// Held-out test bags (disjoint pairs).
    pub test: Vec<Bag>,
}

impl Dataset {
    /// Builds a dataset deterministically from its config.
    pub fn generate(config: &DatasetConfig) -> Dataset {
        let world = World::generate(&config.world);
        let mut vocab = Vocab::new();
        let mut rng = TensorRng::seed(config.seed);
        let zipf = Zipf::new(config.max_sentences_per_bag, config.zipf_alpha);

        // Split fact pairs into train/test.
        let mut fact_indices: Vec<usize> = (0..world.facts.len()).collect();
        rng.shuffle(&mut fact_indices);
        let n_train = (fact_indices.len() as f32 * config.train_fraction).round() as usize;

        let make_bag = |world: &World,
                        vocab: &mut Vocab,
                        head: EntityId,
                        tail: EntityId,
                        label: RelationId,
                        rng: &mut TensorRng|
         -> Bag {
            let n = zipf.sample(rng);
            let schema = if label == NA {
                None
            } else {
                Some(world.relations[label.0].clone())
            };
            let sentences = (0..n)
                .map(|_| {
                    generate_sentence(
                        world,
                        vocab,
                        head,
                        tail,
                        schema.as_ref(),
                        &config.sentence,
                        rng,
                    )
                })
                .collect();
            Bag {
                head,
                tail,
                label,
                sentences,
            }
        };

        let mut train = Vec::with_capacity(n_train + config.na_train);
        let mut test = Vec::with_capacity(fact_indices.len() - n_train + config.na_test);
        for (i, &fi) in fact_indices.iter().enumerate() {
            let f = world.facts[fi];
            let bag = make_bag(&world, &mut vocab, f.head, f.tail, f.relation, &mut rng);
            if i < n_train {
                train.push(bag);
            } else {
                test.push(bag);
            }
        }

        // NA bags: sampled pairs with no fact, disjoint between splits.
        let mut used: std::collections::HashSet<(usize, usize)> =
            world.facts.iter().map(|f| (f.head.0, f.tail.0)).collect();
        for (count, split) in [(config.na_train, &mut train), (config.na_test, &mut test)] {
            'bags: for _ in 0..count {
                // bounded rejection sampling: a saturated or tiny world may
                // not have `count` distinct NA pairs — degrade gracefully
                // with fewer NA bags rather than looping forever
                let mut found = None;
                for _ in 0..10_000 {
                    let pair = if rng.bernoulli(config.na_hard_fraction) {
                        world.try_sample_hard_na_pair(&mut rng)
                    } else {
                        world.try_sample_na_pair(&mut rng)
                    };
                    match pair {
                        None => break 'bags,
                        Some((h, t)) if !used.contains(&(h.0, t.0)) => {
                            used.insert((h.0, t.0));
                            found = Some((h, t));
                            break;
                        }
                        Some(_) => {}
                    }
                }
                let Some((h, t)) = found else { break 'bags };
                let bag = make_bag(&world, &mut vocab, h, t, NA, &mut rng);
                split.push(bag);
            }
        }
        rng.shuffle(&mut train);
        rng.shuffle(&mut test);

        Dataset {
            name: config.name.clone(),
            world,
            vocab,
            train,
            test,
        }
    }

    /// Number of relation labels including `NA`.
    pub fn num_relations(&self) -> usize {
        self.world.num_relations()
    }

    /// Total sentence count in a split.
    pub fn sentence_count(bags: &[Bag]) -> usize {
        bags.iter().map(|b| b.sentences.len()).sum()
    }
}

/// Preset matching the *shape* of the NYT corpus: 53 relations, long-tailed
/// pair frequencies, high distant-supervision noise. Scale is reduced (the
/// original has 522 k training sentences) to fit a CPU-only run; relative
/// statistics (NA fraction, tail heaviness, noise) mirror the original.
pub fn nyt_sim(seed: u64) -> DatasetConfig {
    DatasetConfig {
        name: "NYT-sim".to_string(),
        world: WorldConfig {
            n_relations: 53,
            entities_per_cluster: 14,
            facts_per_relation: 60,
            cluster_reuse_prob: 0.5,
            seed: seed ^ 0x9e37_79b9,
        },
        sentence: SentenceGenConfig {
            noise_prob: 0.55,
            min_len: 8,
            max_len: 24,
        },
        train_fraction: 0.72,
        na_train: 3400,
        na_test: 1300,
        na_hard_fraction: 0.3,
        zipf_alpha: 1.7,
        max_sentences_per_bag: 40,
        seed,
    }
}

/// Preset matching the *shape* of the Google Distant Supervision corpus:
/// 5 relations, smaller and cleaner than NYT (GDS guarantees at least one
/// expressing sentence per bag, so its effective noise is low).
pub fn gds_sim(seed: u64) -> DatasetConfig {
    DatasetConfig {
        name: "GDS-sim".to_string(),
        world: WorldConfig {
            n_relations: 5,
            entities_per_cluster: 24,
            facts_per_relation: 150,
            cluster_reuse_prob: 0.3,
            seed: seed ^ 0x51f1_5ead,
        },
        sentence: SentenceGenConfig {
            noise_prob: 0.15,
            min_len: 8,
            max_len: 20,
        },
        train_fraction: 0.70,
        na_train: 300,
        na_test: 130,
        na_hard_fraction: 0.5,
        zipf_alpha: 2.0,
        max_sentences_per_bag: 30,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DatasetConfig {
        DatasetConfig {
            name: "tiny".to_string(),
            world: WorldConfig {
                n_relations: 6,
                entities_per_cluster: 8,
                facts_per_relation: 15,
                cluster_reuse_prob: 0.4,
                seed: 2,
            },
            sentence: SentenceGenConfig::default(),
            train_fraction: 0.7,
            na_train: 30,
            na_test: 15,
            na_hard_fraction: 0.5,
            zipf_alpha: 1.8,
            max_sentences_per_bag: 20,
            seed: 4,
        }
    }

    #[test]
    fn zipf_mass_concentrates_on_small_k() {
        let z = Zipf::new(50, 2.0);
        let mut rng = TensorRng::seed(1);
        let draws: Vec<usize> = (0..5000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&k| (1..=50).contains(&k)));
        let ones = draws.iter().filter(|&&k| k == 1).count() as f32 / 5000.0;
        // P(1) = 1/ζ(2, 50) ≈ 0.62 for alpha=2
        assert!(ones > 0.5, "P(k=1) sampled as {ones}");
        let tail = draws.iter().filter(|&&k| k > 10).count();
        assert!(tail > 0, "long tail entirely missing");
    }

    #[test]
    fn splits_are_pair_disjoint() {
        let ds = Dataset::generate(&tiny());
        let train_pairs: std::collections::HashSet<(usize, usize)> =
            ds.train.iter().map(|b| (b.head.0, b.tail.0)).collect();
        for b in &ds.test {
            assert!(
                !train_pairs.contains(&(b.head.0, b.tail.0)),
                "pair leaks across splits"
            );
        }
    }

    #[test]
    fn labels_match_world_facts() {
        let ds = Dataset::generate(&tiny());
        for b in ds.train.iter().chain(&ds.test) {
            match ds.world.relation_of(b.head, b.tail) {
                Some(r) => assert_eq!(b.label, r),
                None => assert_eq!(b.label, NA),
            }
        }
    }

    #[test]
    fn every_bag_nonempty_and_within_cap() {
        let cfg = tiny();
        let ds = Dataset::generate(&cfg);
        for b in ds.train.iter().chain(&ds.test) {
            assert!(!b.sentences.is_empty());
            assert!(b.sentences.len() <= cfg.max_sentences_per_bag);
        }
    }

    #[test]
    fn na_bag_counts_respected() {
        let cfg = tiny();
        let ds = Dataset::generate(&cfg);
        let na_train = ds.train.iter().filter(|b| b.label == NA).count();
        let na_test = ds.test.iter().filter(|b| b.label == NA).count();
        assert_eq!(na_train, cfg.na_train);
        assert_eq!(na_test, cfg.na_test);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Dataset::generate(&tiny());
        let b = Dataset::generate(&tiny());
        assert_eq!(a.train.len(), b.train.len());
        for (x, y) in a.train.iter().zip(&b.train) {
            assert_eq!(x.head, y.head);
            assert_eq!(x.label, y.label);
            assert_eq!(x.sentences.len(), y.sentences.len());
            assert_eq!(x.sentences[0].tokens, y.sentences[0].tokens);
        }
    }

    #[test]
    fn vocab_covers_all_tokens() {
        let ds = Dataset::generate(&tiny());
        let vmax = ds.vocab.len();
        for b in ds.train.iter().chain(&ds.test) {
            for s in &b.sentences {
                assert!(s.tokens.iter().all(|&t| t < vmax));
            }
        }
    }

    #[test]
    fn long_tail_present_in_sentence_counts() {
        let ds = Dataset::generate(&tiny());
        let singles = ds.train.iter().filter(|b| b.sentences.len() <= 2).count();
        assert!(
            singles as f32 / ds.train.len() as f32 > 0.5,
            "expected most bags to have ≤2 sentences (long tail)"
        );
    }

    #[test]
    fn presets_have_paper_relation_counts() {
        assert_eq!(nyt_sim(0).world.n_relations, 53);
        assert_eq!(gds_sim(0).world.n_relations, 5);
        assert!(nyt_sim(0).sentence.noise_prob > gds_sim(0).sentence.noise_prob);
    }
}
