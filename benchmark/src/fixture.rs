//! Fixtures assembled from the public API only: seeded untrained models
//! (throughput does not depend on training), tables padded to the NYT
//! cardinalities of the paper, bundles saved to disk and reloaded the way
//! `imre serve` loads them. Every step is timed into `setup_s`.

use crate::gen::{Rng, Zipf};
use crate::stats::Samples;
use imre_ann::{AnnIndex, HnswConfig};
use imre_core::{featurize, HyperParams, ModelSpec, PreparedBag, QuantModel, ReModel};
use imre_corpus::{
    nyt_sim, Dataset, DatasetConfig, EncodedSentence, SentenceGenConfig, WorldConfig,
    NUM_COARSE_TYPES,
};
use imre_graph::EntityEmbedding;
use imre_serve::{load_bundle, save_bundle, Bundle, ServingModel};
use imre_tensor::{Tensor, TensorRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// NYT vocabulary and entity cardinalities (Riedel et al. 2010 as used by
/// the paper): the embedding gather must miss cache as it would there.
pub const NYT_VOCAB: usize = 114_042;
pub const NYT_ENTITIES: usize = 69_040;
/// Datastore size for the kNN index: 8192 × 690 × 4 B ≈ 22.6 MB of vectors,
/// well past L2.
pub const DATASTORE_BAGS: usize = 8192;
/// The corpus/model are fixtures, not inputs: fixed seeds, so `--seed`
/// moves only what the program is asked to do, never what it is.
pub const CORPUS_SEED: u64 = 1;
pub const MODEL_SEED: u64 = 17;

/// Which bundle a workload serves from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BundleKind {
    /// Table III dims, NYT-cardinality tables, plain v1 bundle.
    PaperF32,
    /// As `PaperF32` plus the int8 section and a kNN datastore: a v3 bundle.
    PaperInt8Knn,
    /// `HyperParams::tiny()` over a smoke-sized corpus (5 relations): the
    /// cheapest model the repo serves, so the front end dominates.
    Tiny,
    /// Table III dims over the unpadded NYT-sim world (798 entities), with
    /// an int8 section so every publish re-maps a v3 file.
    StreamBase,
}

impl BundleKind {
    fn hp(self) -> HyperParams {
        match self {
            BundleKind::Tiny => HyperParams::tiny(),
            _ => HyperParams::paper(),
        }
    }

    fn spec(self) -> ModelSpec {
        match self {
            BundleKind::Tiny => ModelSpec::pcnn(),
            _ => ModelSpec::pa_tmr(),
        }
    }

    fn padded(self) -> bool {
        matches!(self, BundleKind::PaperF32 | BundleKind::PaperInt8Knn)
    }
}

/// Seconds spent in each set-up step; their sum is the workload's set-up.
#[derive(Default, Clone, Debug)]
pub struct SetupTimes {
    pub corpus_s: f64,
    pub model_s: f64,
    pub index_s: f64,
    pub save_s: f64,
    pub load_s: f64,
    pub server_s: f64,
    /// The HNSW build alone — part of `index_s`, kept for `ann.build_ms`.
    pub ann_build_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.corpus_s + self.model_s + self.index_s + self.save_s + self.load_s + self.server_s
    }
}

/// A bundle on disk plus the loaded model and what building it cost.
pub struct BuiltBundle {
    pub model: ServingModel,
    pub path: PathBuf,
    pub bytes: u64,
    pub times: SetupTimes,
}

/// The smoke-sized corpus the repo's own serve benches use (the shape of
/// `imre_eval::smoke_config`): 5 relations, a few dozen entities.
fn smoke_corpus() -> DatasetConfig {
    DatasetConfig {
        name: "smoke".to_string(),
        world: WorldConfig {
            n_relations: 5,
            entities_per_cluster: 8,
            facts_per_relation: 24,
            cluster_reuse_prob: 0.3,
            seed: CORPUS_SEED ^ 0x5111,
        },
        sentence: SentenceGenConfig {
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
        seed: CORPUS_SEED,
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A bag of `sentences` random-token sentences, featurized the way the
/// serve pipeline does it.
fn random_bag(rng: &mut Rng, words: &Zipf, hp: &HyperParams, entities: usize) -> PreparedBag {
    let n = 1 + rng.below(2);
    let sentences = (0..n)
        .map(|_| {
            let len = rng.range(10, 40);
            let head_pos = rng.below(len);
            let tail_pos = (head_pos + 1 + rng.below(len - 1)) % len;
            let encoded = EncodedSentence {
                tokens: (0..len).map(|_| 2 + words.sample(rng)).collect(),
                head_pos,
                tail_pos,
                expresses_relation: false,
            };
            featurize(&encoded, hp.max_len, hp.pos_clip)
        })
        .collect();
    let head = rng.below(entities);
    PreparedBag {
        head,
        tail: (head + 1 + rng.below(entities - 1)) % entities,
        label: 0,
        sentences,
    }
}

/// Builds the kNN datastore: `DATASTORE_BAGS` pooled representations from
/// `predict_repr`, labelled Zipf over the relations, indexed with the
/// default HNSW configuration.
fn build_index(
    model: &ReModel,
    vocab: usize,
    entities: usize,
    relations: usize,
    times: &mut SetupTimes,
) -> AnnIndex {
    let mut rng = Rng::new(MODEL_SEED ^ 0x0061_6e6e);
    let words = Zipf::new(vocab - 2, 1.0);
    let labels_law = Zipf::new(relations, 1.0);
    let bags: Vec<PreparedBag> = (0..DATASTORE_BAGS)
        .map(|_| random_bag(&mut rng, &words, &model.hp, entities))
        .collect();
    let refs: Vec<&PreparedBag> = bags.iter().collect();
    let vectors: Vec<f32> = model
        .predict_repr_batch(&refs)
        .into_iter()
        .flatten()
        .collect();
    let labels = (0..DATASTORE_BAGS)
        .map(|_| labels_law.sample(&mut rng) as u32)
        .collect();
    let t = Instant::now();
    let index = AnnIndex::build(
        model.sent_dim(),
        vectors,
        labels,
        HnswConfig::with_seed(MODEL_SEED),
    )
    .expect("datastore vectors are finite");
    times.ann_build_s = secs(t);
    index
}

/// Generates the corpus, builds the model and tables, saves the bundle
/// under `dir` and loads it back through `load_bundle` (zero-copy mmap for
/// a v3 file, the owned stream reader otherwise).
pub fn build_bundle(kind: BundleKind, dir: &Path) -> BuiltBundle {
    let mut times = SetupTimes::default();
    let hp = kind.hp();

    let t = Instant::now();
    let dataset = Dataset::generate(&match kind {
        BundleKind::Tiny => smoke_corpus(),
        _ => nyt_sim(CORPUS_SEED),
    });
    let mut vocab = dataset.vocab.clone();
    let mut entities: Vec<(String, Vec<usize>)> = dataset
        .world
        .entities
        .iter()
        .map(|e| (e.name.clone(), e.types.iter().map(|t| t.0).collect()))
        .collect();
    if kind.padded() {
        for i in 0.. {
            if vocab.len() >= NYT_VOCAB {
                break;
            }
            vocab.intern(&format!("w{i}"));
        }
        for i in entities.len()..NYT_ENTITIES {
            entities.push((format!("Ent_{i}"), vec![i % NUM_COARSE_TYPES]));
        }
    }
    let relations: Vec<String> = dataset
        .world
        .relations
        .iter()
        .map(|r| r.name.clone())
        .collect();
    times.corpus_s = secs(t);

    let t = Instant::now();
    let model = ReModel::new(
        kind.spec(),
        &hp,
        vocab.len(),
        relations.len(),
        NUM_COARSE_TYPES,
        hp.entity_dim,
        MODEL_SEED,
    );
    let mut rng = TensorRng::seed(MODEL_SEED);
    let embedding = EntityEmbedding::from_matrix(Tensor::rand_uniform(
        &[entities.len(), hp.entity_dim],
        -0.5,
        0.5,
        &mut rng,
    ));
    let quant = matches!(kind, BundleKind::PaperInt8Knn | BundleKind::StreamBase)
        .then(|| QuantModel::from_model(&model, Some(&embedding)).expect("PA-TMR quantizes"));
    times.model_s = secs(t);

    let t = Instant::now();
    let ann = (kind == BundleKind::PaperInt8Knn).then(|| {
        build_index(
            &model,
            vocab.len(),
            entities.len(),
            relations.len(),
            &mut times,
        )
    });
    times.index_s = secs(t);

    let t = Instant::now();
    let bundle = Bundle {
        vocab,
        entities,
        relations,
        embedding: Some(embedding),
        model,
        ann,
        quant,
    };
    let path = dir.join(format!("{kind:?}.imrb"));
    save_bundle(&bundle, &path).expect("bundle saves");
    drop(bundle);
    times.save_s = secs(t);

    let t = Instant::now();
    let model = ServingModel::new(load_bundle(&path).expect("bundle loads"))
        .expect("loaded bundle validates");
    times.load_s = secs(t);

    let bytes = std::fs::metadata(&path).expect("bundle file exists").len();
    BuiltBundle {
        model,
        path,
        bytes,
        times,
    }
}

/// The vocabulary words a request may use as filler tokens (specials
/// excluded), in table order — position is the Zipf rank.
pub fn filler_words(model: &ServingModel) -> Vec<&str> {
    let vocab = &model.bundle().vocab;
    (2..vocab.len())
        .map(|id| vocab.word(id))
        .filter(|w| !w.contains('|'))
        .collect()
}

/// Entity surface names in table order.
pub fn entity_names(model: &ServingModel) -> Vec<&str> {
    model
        .bundle()
        .entities
        .iter()
        .map(|(name, _)| name.as_str())
        .collect()
}

/// The benchmark's output directory inside the build's target directory;
/// it reads and writes nowhere else. `--trace 1` leaves its span files here.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("benchmark executable path");
    let dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("executable lives in <target>/<profile>/")
        .join("benchmark-out");
    std::fs::create_dir_all(&dir).expect("create output dir");
    dir
}

/// A scratch directory for bundle files, unique per process; the caller
/// removes it when the run ends.
pub fn scratch_dir() -> PathBuf {
    let dir = out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Set-up may be repeated until this much time is spent on it.
const SETUP_REPEAT_BUDGET_S: f64 = 2.5;

/// Repeats set-up while it is cheap — at least three times and until a
/// second and a half is spent, but never past `SETUP_REPEAT_BUDGET_S` or 1000
/// rounds — so a small set-up is the median of dozens of samples, not of a
/// few noisy ones (a 60 ms corpus build reads 45–80 ms from one repeat to
/// the next). Returns the last build, its step times and the median total.
pub fn set_up_repeated<T>(
    mut build: impl FnMut() -> (T, SetupTimes),
    mut tear_down: impl FnMut(T),
) -> (T, SetupTimes, f64) {
    let mut totals = Vec::new();
    let mut spent = 0.0;
    loop {
        let (built, times) = build();
        totals.push(times.total());
        spent += times.total();
        let settled = totals.len() >= 3 && spent >= 1.5;
        if settled || totals.len() >= 1000 || spent >= SETUP_REPEAT_BUDGET_S {
            let median = Samples::new(totals).median().expect("at least one set-up");
            return (built, times, median);
        }
        tear_down(built);
    }
}

/// Resident-set high-water mark of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
