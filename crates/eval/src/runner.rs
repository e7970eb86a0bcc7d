//! End-to-end experiment pipeline: dataset → unlabeled corpus → proximity
//! graph → LINE embedding → model training → held-out evaluation.
//!
//! Every table/figure bench builds one [`Pipeline`] per dataset and then
//! trains the systems it compares. A `(system, seed)` grid fans out across
//! threads ([`Pipeline::run_grid`]: one model per thread; the pipeline is
//! shared read-only).

use crate::heldout::evaluate_system;
use crate::metrics::Evaluation;
use imre_core::{
    entity_type_table, prepare_bags, train_model, BagContext, Checkpoint, CheckpointCfg,
    HyperParams, ModelSpec, PreparedBag, ReModel, TrainConfig, TrainStats,
};
use imre_corpus::{generate_unlabeled, CoOccurrence, Dataset, DatasetConfig, UnlabeledConfig};
use imre_graph::{train_line, train_skipgram, EntityEmbedding, LineConfig, ProximityGraph};
use std::io;

/// Everything shared by the systems compared within one experiment.
pub struct Pipeline {
    /// The generated dataset (world + vocab + splits).
    pub dataset: Dataset,
    /// Unlabeled-corpus co-occurrence counts.
    pub co: CoOccurrence,
    /// LINE entity embeddings from the proximity graph.
    pub embedding: EntityEmbedding,
    /// Pretrained skip-gram word vectors (`[vocab, word_dim]`).
    pub word_vectors: imre_tensor::Tensor,
    /// Featurised training bags.
    pub train_bags: Vec<PreparedBag>,
    /// Featurised test bags.
    pub test_bags: Vec<PreparedBag>,
    /// Per-entity coarse-type ids.
    pub types: Vec<Vec<usize>>,
    /// Hyperparameters shared by all systems in the experiment.
    pub hp: HyperParams,
}

impl Pipeline {
    /// Builds the full pipeline for a dataset preset.
    pub fn build(config: &DatasetConfig, hp: HyperParams) -> Pipeline {
        let dataset = Dataset::generate(config);
        let co = generate_unlabeled(&dataset.world, &UnlabeledConfig::default());
        let graph = ProximityGraph::from_counts(
            co.iter().map(|(&p, &c)| (p, c)),
            dataset.world.num_entities(),
            2,
        );
        let line_cfg = LineConfig {
            dim: hp.entity_dim,
            ..LineConfig::default()
        };
        let embedding = train_line(&graph, &line_cfg);
        let train_bags = prepare_bags(&dataset.train, &hp);
        let test_bags = prepare_bags(&dataset.test, &hp);
        // Word-embedding pretraining, as in the paper's stack (word2vec on
        // the raw corpus text; unsupervised — labels never enter). This is
        // what lets encoders handle entity mentions absent from the
        // labelled training pairs.
        let sentences: Vec<&[usize]> = dataset
            .train
            .iter()
            .chain(&dataset.test)
            .flat_map(|b| &b.sentences)
            .map(|s| s.tokens.as_slice())
            .collect();
        let word_vectors = train_skipgram(&sentences, dataset.vocab.len(), hp.word_dim);
        let types = entity_type_table(&dataset.world);
        Pipeline {
            dataset,
            co,
            embedding,
            word_vectors,
            train_bags,
            test_bags,
            types,
            hp,
        }
    }

    /// The forward-time side information models consume.
    pub fn ctx(&self) -> BagContext<'_> {
        BagContext {
            entity_embedding: Some(&self.embedding),
            entity_types: &self.types,
        }
    }

    /// Trains one system variant with the given seed.
    pub fn train_system(&self, spec: ModelSpec, seed: u64) -> ReModel {
        self.train_system_from(spec, seed, None, None)
            .expect("a run that writes no checkpoint does no I/O")
            .0
    }

    /// [`train_system`](Self::train_system), resumable: continues `resume`
    /// — a checkpoint of this `spec`, trained on this pipeline's dataset
    /// ([`check_fits`](Self::check_fits)) — instead of training a fresh
    /// model, and writes checkpoints per `save`. A resumed run is
    /// byte-identical to the uninterrupted one.
    ///
    /// # Errors
    /// `InvalidInput` when `resume` was written under another seed; any
    /// I/O error of a checkpoint write.
    pub fn train_system_from(
        &self,
        spec: ModelSpec,
        seed: u64,
        resume: Option<Checkpoint>,
        save: Option<&CheckpointCfg>,
    ) -> io::Result<(ReModel, TrainStats)> {
        let mut tc = TrainConfig::from_hp(&self.hp, seed ^ 0xabcd);
        if spec.encoder == imre_core::EncoderKind::Gru {
            // Recurrent encoders converge in steps, not sentences: at this
            // corpus scale the conv models get enough SGD steps per epoch
            // but the GRU does not. A smaller batch gives it ~4× the update
            // count for identical per-epoch compute.
            tc.batch_size = (tc.batch_size / 4).max(2);
        }
        let (mut model, at) = match resume {
            Some(Checkpoint { at, mut model }) => {
                // The IMRM header records the run's total epoch budget; the
                // checkpoint froze the interrupted run's, which may be
                // smaller. Align it so the artifact matches an
                // uninterrupted run's byte for byte.
                model.hp.epochs = tc.epochs;
                (model, Some(at))
            }
            None => {
                let mut model = ReModel::new(
                    spec,
                    &self.hp,
                    self.dataset.vocab.len(),
                    self.dataset.num_relations(),
                    imre_corpus::NUM_COARSE_TYPES,
                    self.embedding.dim(),
                    seed,
                );
                model.set_word_embeddings(self.word_vectors.clone());
                (model, None)
            }
        };
        let stats = train_model(&mut model, &self.train_bags, &self.ctx(), &tc, at, save)?;
        Ok((model, stats))
    }

    /// Whether `model` was trained on this pipeline's dataset: its word
    /// table and relation head must have the regenerated dataset's sizes,
    /// or token and relation ids would index past them. The error names
    /// both sides.
    pub fn check_fits(&self, model: &ReModel) -> Result<(), String> {
        let ours = (self.dataset.vocab.len(), self.dataset.num_relations());
        let theirs = (model.vocab_size(), model.num_relations());
        if ours == theirs {
            return Ok(());
        }
        Err(format!(
            "the model has {} word rows and {} relations, but the dataset \
             regenerated here has {} tokens and {} relations",
            theirs.0, theirs.1, ours.0, ours.1
        ))
    }

    /// The score table of a trained model over the test split: one
    /// [`ReModel::predict`] row per test bag, in bag order.
    pub fn test_scores(&self, model: &ReModel) -> Vec<Vec<f32>> {
        let ctx = self.ctx();
        self.test_bags
            .iter()
            .map(|bag| model.predict(bag, &ctx))
            .collect()
    }

    /// Held-out evaluation of a trained model on the test split.
    pub fn evaluate_model(&self, model: &ReModel) -> Evaluation {
        evaluate_system(
            &self.test_bags,
            self.dataset.num_relations(),
            &self.test_scores(model),
        )
    }

    /// Trains and evaluates one system; convenience for single-seed runs.
    pub fn run_system(&self, spec: ModelSpec, seed: u64) -> Evaluation {
        let model = self.train_system(spec, seed);
        self.evaluate_model(&model)
    }

    /// Trains and evaluates every `(spec, seed)` pair of the grid on scoped
    /// OS threads, at most `max_parallel` at once (`0` = all at once —
    /// `imre compare --parallel-seeds N`), and returns each spec's seed
    /// evaluations in input order. Systems within one experiment are
    /// independent given the pipeline, and each run is deterministic in
    /// isolation, so the cap changes wall time and peak memory (every
    /// concurrent run holds a full model), never a result.
    pub fn run_grid(
        &self,
        specs: &[ModelSpec],
        seeds: &[u64],
        max_parallel: usize,
    ) -> Vec<Vec<Evaluation>> {
        let jobs: Vec<(ModelSpec, u64)> = specs
            .iter()
            .flat_map(|&spec| seeds.iter().map(move |&seed| (spec, seed)))
            .collect();
        let mut evals = run_capped(&jobs, max_parallel, |(spec, seed)| {
            self.run_system(spec, seed)
        })
        .into_iter();
        specs
            .iter()
            .map(|_| evals.by_ref().take(seeds.len()).collect())
            .collect()
    }
}

/// Runs `f(job)` for every job on scoped OS threads, in waves of at most
/// `max_parallel` (`0` = all at once), returning results in input order.
///
/// Panics in `f` propagate to the caller after the wave completes.
fn run_capped<J, T, F>(jobs: &[J], max_parallel: usize, f: F) -> Vec<T>
where
    J: Copy + Send,
    T: Send,
    F: Fn(J) -> T + Sync,
{
    let cap = if max_parallel == 0 {
        jobs.len().max(1)
    } else {
        max_parallel
    };
    let f = &f;
    let mut out = Vec::with_capacity(jobs.len());
    for wave in jobs.chunks(cap) {
        std::thread::scope(|s| {
            let handles: Vec<_> = wave.iter().map(|&job| s.spawn(move || f(job))).collect();
            out.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("grid run panicked")),
            );
        });
    }
    out
}

/// Seed-averaged scalar metrics (the paper reports five-run means).
#[derive(Debug, Clone)]
pub struct MeanEvaluation {
    /// Mean area under the PR curve.
    pub auc: f32,
    /// Mean max-F1.
    pub f1: f32,
    /// Mean precision at max-F1.
    pub precision: f32,
    /// Mean recall at max-F1.
    pub recall: f32,
    /// Mean P@100.
    pub p_at_100: f32,
    /// Mean P@200.
    pub p_at_200: f32,
    /// Mean P@300.
    pub p_at_300: f32,
    /// Number of seeds averaged.
    pub n_seeds: usize,
}

/// Averages scalar metrics across seed runs.
///
/// # Panics
/// If `evals` is empty.
pub fn mean_evaluation(evals: &[Evaluation]) -> MeanEvaluation {
    assert!(!evals.is_empty(), "mean_evaluation: no runs");
    let n = evals.len() as f32;
    MeanEvaluation {
        auc: evals.iter().map(|e| e.auc).sum::<f32>() / n,
        f1: evals.iter().map(|e| e.f1).sum::<f32>() / n,
        precision: evals.iter().map(|e| e.precision).sum::<f32>() / n,
        recall: evals.iter().map(|e| e.recall).sum::<f32>() / n,
        p_at_100: evals.iter().map(|e| e.p_at_100).sum::<f32>() / n,
        p_at_200: evals.iter().map(|e| e.p_at_200).sum::<f32>() / n,
        p_at_300: evals.iter().map(|e| e.p_at_300).sum::<f32>() / n,
        n_seeds: evals.len(),
    }
}

/// A small, fast dataset config for tests and the quickstart example —
/// same machinery as the full presets, minutes → seconds.
pub fn smoke_config(seed: u64) -> DatasetConfig {
    DatasetConfig {
        name: "smoke".to_string(),
        world: imre_corpus::WorldConfig {
            n_relations: 5,
            entities_per_cluster: 8,
            facts_per_relation: 24,
            cluster_reuse_prob: 0.3,
            seed: seed ^ 0x5111,
        },
        sentence: imre_corpus::SentenceGenConfig {
            noise_prob: 0.2,
            min_len: 6,
            max_len: 14,
        },
        train_fraction: 0.7,
        na_train: 40,
        na_test: 20,
        na_hard_fraction: 0.5,
        zipf_alpha: 1.8,
        max_sentences_per_bag: 8,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_pipeline() -> Pipeline {
        let mut hp = HyperParams::tiny();
        hp.epochs = 12; // the smoke corpus is small; short runs underfit
        Pipeline::build(&smoke_config(3), hp)
    }

    #[test]
    fn pipeline_builds_consistently() {
        let p = smoke_pipeline();
        assert_eq!(p.train_bags.len(), p.dataset.train.len());
        assert_eq!(p.test_bags.len(), p.dataset.test.len());
        assert_eq!(p.types.len(), p.dataset.world.num_entities());
        assert_eq!(p.embedding.len(), p.dataset.world.num_entities());
        assert_eq!(p.embedding.dim(), p.hp.entity_dim);
    }

    #[test]
    fn trained_system_beats_untrained() {
        let p = smoke_pipeline();
        let untrained = ReModel::new(
            ModelSpec::pcnn_att(),
            &p.hp,
            p.dataset.vocab.len(),
            p.dataset.num_relations(),
            imre_corpus::NUM_COARSE_TYPES,
            p.embedding.dim(),
            5,
        );
        let ev_untrained = p.evaluate_model(&untrained);
        let ev_trained = p.run_system(ModelSpec::pcnn_att(), 5);
        assert!(
            ev_trained.auc > ev_untrained.auc + 0.05,
            "training must help: {} vs {}",
            ev_trained.auc,
            ev_untrained.auc
        );
    }

    #[test]
    fn dp_resume_matches_uninterrupted_run_bytewise() {
        // Mirrors the CLI flow: one process trains to a mid-run checkpoint
        // with a smaller epoch budget, a second resumes with the full one.
        // The resumed artifact must equal the uninterrupted run's, byte for
        // byte — including the hp header, which records the total budget.
        let mut hp = HyperParams::tiny();
        hp.epochs = 4;
        let full = Pipeline::build(&smoke_config(3), hp.clone());
        hp.epochs = 2;
        let half = Pipeline::build(&smoke_config(3), hp);

        let dir = std::env::temp_dir().join("imre-eval-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = CheckpointCfg {
            every: 1,
            path: dir.join("mid.imrc"),
        };
        let straight = full.train_system(ModelSpec::pcnn_att(), 5);
        half.train_system_from(ModelSpec::pcnn_att(), 5, None, Some(&ckpt))
            .unwrap();
        let ck = imre_core::load_checkpoint(&ckpt.path).unwrap();
        assert_eq!(full.check_fits(&ck.model), Ok(()));
        let (resumed, stats) = full
            .train_system_from(ModelSpec::pcnn_att(), 5, Some(ck), None)
            .unwrap();
        assert_eq!(stats.epoch_losses.len(), 2, "epochs 2 and 3 remained");
        let bytes = |m: &ReModel| {
            let mut out = Vec::new();
            imre_core::write_model(m, &mut out).unwrap();
            out
        };
        assert_eq!(
            bytes(&straight),
            bytes(&resumed),
            "resume must replay the uninterrupted run exactly"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_model_of_another_dataset_does_not_fit() {
        let p = smoke_pipeline();
        let other = Pipeline::build(&smoke_config(5), HyperParams::tiny());
        let model = other.train_system(ModelSpec::pcnn(), 1);
        assert_eq!(other.check_fits(&model), Ok(()));
        let msg = p.check_fits(&model).unwrap_err();
        assert!(msg.contains("word rows") && msg.contains("tokens"), "{msg}");
    }

    #[test]
    fn bounded_seed_runner_matches_unbounded() {
        let p = smoke_pipeline();
        let specs = [ModelSpec::pcnn(), ModelSpec::pcnn_att()];
        let a = p.run_grid(&specs, &[1, 2], 0);
        let b = p.run_grid(&specs, &[1, 2], 1);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert_eq!(x.auc, y.auc, "cap must not change results");
        }
        assert_eq!(a[1][0].auc, p.run_system(specs[1], 1).auc, "grid order");
    }

    #[test]
    fn multi_seed_runs_are_independent_and_parallel() {
        let p = smoke_pipeline();
        let evals = p.run_grid(&[ModelSpec::pcnn()], &[1, 2], 0).remove(0);
        assert_eq!(evals.len(), 2);
        // different seeds should give (at least slightly) different results
        assert!(
            (evals[0].auc - evals[1].auc).abs() > 1e-6 || (evals[0].f1 - evals[1].f1).abs() > 1e-6
        );
        let mean = mean_evaluation(&evals);
        assert_eq!(mean.n_seeds, 2);
        let expected = (evals[0].auc + evals[1].auc) / 2.0;
        assert!((mean.auc - expected).abs() < 1e-6);
    }

    #[test]
    fn results_come_back_in_seed_order() {
        let seeds: Vec<u64> = (0..7).collect();
        for cap in [0usize, 1, 2, 7, 16] {
            let got = run_capped(&seeds, cap, |s| s * 10);
            assert_eq!(got, vec![0, 10, 20, 30, 40, 50, 60], "cap={cap}");
        }
    }

    #[test]
    fn concurrency_is_bounded_by_cap() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let seeds: Vec<u64> = (0..8).collect();
        run_capped(&seeds, 2, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn empty_seed_list_is_fine() {
        let got: Vec<u64> = run_capped(&[], 4, |s: u64| s);
        assert!(got.is_empty());
    }
}
