//! Checkpoint round-trips: a run stopped at any epoch boundary and resumed
//! from its IMRC checkpoint must finish **bit-identical** to a run that was
//! never interrupted, whatever pool each half ran on.

use imre_core::{
    entity_type_table, load_checkpoint, prepare_bags, save_checkpoint, train_model, write_model,
    BagContext, CheckpointCfg, HyperParams, ModelSpec, PreparedBag, ReModel, ResumePoint,
    TrainConfig,
};
use imre_corpus::{Dataset, DatasetConfig, SentenceGenConfig, WorldConfig};
use imre_tensor::pool::{with_pool, ThreadPool};
use std::path::PathBuf;

struct Fixture {
    bags: Vec<PreparedBag>,
    types: Vec<Vec<usize>>,
    vocab: usize,
    relations: usize,
}

impl Fixture {
    fn new() -> Fixture {
        let ds = Dataset::generate(&DatasetConfig {
            name: "resume".into(),
            world: WorldConfig {
                n_relations: 4,
                entities_per_cluster: 6,
                facts_per_relation: 10,
                cluster_reuse_prob: 0.3,
                seed: 5 ^ 0xd157,
            },
            sentence: SentenceGenConfig {
                noise_prob: 0.1,
                min_len: 6,
                max_len: 12,
            },
            train_fraction: 0.7,
            na_train: 8,
            na_test: 4,
            na_hard_fraction: 0.5,
            zipf_alpha: 2.0,
            max_sentences_per_bag: 6,
            seed: 5,
        });
        Fixture {
            bags: prepare_bags(&ds.train, &HyperParams::tiny()),
            types: entity_type_table(&ds.world),
            vocab: ds.vocab.len(),
            relations: ds.num_relations(),
        }
    }

    fn model(&self) -> ReModel {
        let hp = HyperParams::tiny();
        ReModel::new(
            ModelSpec::pcnn_att(),
            &hp,
            self.vocab,
            self.relations,
            38,
            8,
            7,
        )
    }

    fn tc(&self, epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 8,
            lr: 0.2,
            lr_decay: 0.95,
            clip_norm: 5.0,
            seed: 21,
        }
    }

    /// Trains `model` from `resume` to `epochs` on a `threads`-wide pool.
    fn train(
        &self,
        model: &mut ReModel,
        epochs: usize,
        threads: usize,
        resume: Option<ResumePoint>,
        checkpoint: Option<&CheckpointCfg>,
    ) {
        let ctx = BagContext {
            entity_embedding: None,
            entity_types: &self.types,
        };
        let pool = ThreadPool::new(threads);
        with_pool(&pool, || {
            train_model(
                model,
                &self.bags,
                &ctx,
                &self.tc(epochs),
                resume,
                checkpoint,
            )
        })
        .unwrap();
    }
}

fn model_bytes(m: &ReModel) -> Vec<u8> {
    let mut out = Vec::new();
    write_model(m, &mut out).unwrap();
    out
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("imre_core_checkpoint_resume");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// E = 4; for every k in 1..4 the first k epochs run on one thread and
/// write a checkpoint, the rest resume from it on four.
#[test]
fn sgd_resume_is_bit_identical_to_uninterrupted_run() {
    let fx = Fixture::new();
    let mut straight = fx.model();
    fx.train(&mut straight, 4, 2, None, None);
    let want = model_bytes(&straight);

    for k in 1..4 {
        let path = scratch_path(&format!("k{k}.imrc"));
        let every = CheckpointCfg {
            every: 1,
            path: path.clone(),
        };
        fx.train(&mut fx.model(), k, 1, None, Some(&every));

        // "Kill" the process: all in-memory state is dropped.
        let mut ck = load_checkpoint(&path).unwrap();
        assert_eq!(ck.at.next_epoch, k);
        fx.train(&mut ck.model, 4, 4, Some(ck.at), None);
        assert!(
            model_bytes(&ck.model) == want,
            "resume after epoch {k} diverged from the uninterrupted run"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn checkpoint_format_roundtrips_optimizer_state() {
    let fx = Fixture::new();
    let mut model = fx.model();
    fx.train(&mut model, 2, 1, None, None);
    let at = ResumePoint {
        seed: 21,
        next_epoch: 2,
        lr: 0.2 * 0.95 * 0.95,
    };
    let path = scratch_path("rt.imrc");
    save_checkpoint(&model, &at, &path).unwrap();
    let ck = load_checkpoint(&path).unwrap();
    assert_eq!(ck.at, at);
    assert_eq!(
        ck.at.lr.to_bits(),
        at.lr.to_bits(),
        "lr must roundtrip bitwise"
    );
    assert_eq!(model_bytes(&ck.model), model_bytes(&model));
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_under_another_seed_is_refused() {
    let fx = Fixture::new();
    let at = ResumePoint {
        seed: 22,
        next_epoch: 1,
        lr: 0.2,
    };
    let ctx = BagContext {
        entity_embedding: None,
        entity_types: &fx.types,
    };
    let err = train_model(&mut fx.model(), &fx.bags, &ctx, &fx.tc(2), Some(at), None)
        .expect_err("a checkpoint of seed 22 resumed under seed 21");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("seed 22"), "{err}");
}

#[test]
fn atomic_write_leaves_no_tmp_residue() {
    let fx = Fixture::new();
    let path = scratch_path("a.imrc");
    let every = CheckpointCfg {
        every: 1,
        path: path.clone(),
    };
    fx.train(&mut fx.model(), 1, 1, None, Some(&every));
    assert!(path.exists());
    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    assert!(
        !std::path::Path::new(&tmp).exists(),
        "tmp sibling must be renamed away"
    );
    std::fs::remove_file(&path).ok();
}
