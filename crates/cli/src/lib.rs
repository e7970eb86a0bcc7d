//! Implementation of the `imre` command-line interface.
//!
//! Kept as a library so the argument parser and each subcommand are unit
//! testable; `main.rs` is a thin shim.

use imre_core::{HyperParams, ModelSpec};
use imre_corpus::stats::{fig1_bands, pair_frequency_histogram, summarize};
use imre_corpus::DatasetConfig;
use imre_eval::Pipeline;
use imre_graph::nearest;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// CLI usage text.
pub const USAGE: &str = "\
imre — Implicit Mutual Relations for Neural Relation Extraction (ICDE 2020 reproduction)

USAGE:
  imre stats      --dataset <nyt|gds|smoke> [--seed N]
  imre train      --dataset <nyt|gds|smoke> [--model SPEC] [--epochs N] [--seed N] --out FILE
                  [--bundle FILE]   also write a self-contained .imrb serving bundle
                  [--knn-index <0|1>]   include a kNN index over training-bag
                  representations in the bundle (default 1; enables the
                  serve-time knn=K lambda=L interpolation path)
                  [--checkpoint FILE] [--checkpoint-every N]   write an atomic
                  IMRC checkpoint every N epochs (default 1)
                  [--resume FILE]   continue from an IMRC checkpoint written
                  with the same --dataset, --seed and --model (bit-identical
                  to the uninterrupted run)
  imre eval       --dataset <nyt|gds|smoke> --model-file FILE [--seed N]
                  [--knn <0|1>]   additionally report held-out metrics with
                  kNN label interpolation, per co-occurrence bucket
                  [--knn-k N] [--knn-lambda L] [--knn-buckets N]
                  interpolation parameters (default k=8, λ=0.3, 5 buckets)
  imre compare    --dataset <nyt|gds|smoke> [--seeds N] [--epochs N]
                  [--parallel-seeds N]   train at most N (model, seed)
                  runs concurrently (0 = all at once, the default)
  imre case-study --dataset <nyt|gds|smoke> [--entity NAME] [--k N]
  imre quantize   --bundle FILE --out FILE   re-export a bundle with a
                  per-row int8 copy of the model (.imrb version 3; loads
                  zero-copy from a memory mapping, ~1/4 the weight bytes)
                  [--check <nyt|gds|smoke>] [--seed N]   score the int8
                  model against f32 on the dataset's held-out split and
                  report max score drift + AUC / P@100/200/300 deltas
                  [--max-drift D] [--max-pn-delta P]   fail (exit nonzero)
                  when the --check drift exceeds D or any P@N delta
                  exceeds P percentage points — the CI gate. P@N moves
                  in steps of 100/N points (one rank flip at the cut), so
                  a P below 100/N forbids every flip
  imre serve      --bundle FILE [--name NAME] [--addr HOST:PORT] [--workers N]
                  [--stream FILE]   consume a delta stream (file or fifo; one
                  `ts<TAB>entity[:types]<TAB>entity...` sentence per line,
                  blank line = batch boundary) on a background updater that
                  folds counts into the proximity graph, refreshes the LINE
                  embedding, and hot-swaps the refreshed bundle into the
                  registry while serving — watch the `stats` stream: line
                  [--publish-every N]   publish after every N delta batches
                  (default 1; 0 = only at end of stream)
                  [--stream-threshold N]   co-occurrence admission threshold
                  (default 2, the offline builder's)
                  [--stream-publish-out FILE]   also persist each published
                  bundle (atomic tmp + rename)
                  [--queue N]
                  [--request-deadline-ms N]   default per-request time budget:
                  requests still queued after N ms are shed with
                  deadline-exceeded instead of running (0 = never, default)
                  [--knn-k N]   default neighbors for kNN label interpolation
                  on requests that do not set knn= (0 = off, the default)
                  [--knn-lambda L]   default interpolation weight λ ∈ [0,1]
                  for requests that do not set lambda= (default 0.3)
                  [--max-connections N]   global connection cap; arrivals
                  beyond it get err server-busy and close (default 1024)
                  [--max-inflight-per-conn N]   pipelined requests one
                  connection may have in the engine at once (default 32)
                  [--precision <f32|int8>]   forward-pass precision
                  (default f32; int8 needs a bundle re-exported by
                  `imre quantize`)
  imre stream-replay --bundle FILE --deltas FILE --out FILE
                  re-derive offline the bundle a live `serve --stream` run
                  publishes: same base bundle + same deltas give
                  byte-identical output, invariant to batch boundaries and
                  to --threads (the refresh retrains LINE on the merged
                  graph)
                  [--stream-threshold N]   same meaning as under `serve`

GLOBAL FLAGS (any subcommand):
  --threads N     size of the compute thread pool (default: IMRE_THREADS env
                  var, else all available cores; results are bit-identical
                  at any thread count)

MODEL SPECS: pcnn, pcnn-att, cnn-att, gru-att, bgwa, pa-t, pa-mr, pa-tmr";

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments; message explains what.
    Usage(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Serving-engine failure (bad bundle, engine error).
    Serve(imre_serve::ServeError),
    /// Streaming-update failure (bad delta source, publish failure).
    Stream(imre_stream::StreamUpdateError),
}

impl From<imre_serve::ServeError> for CliError {
    fn from(e: imre_serve::ServeError) -> Self {
        CliError::Serve(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<imre_stream::StreamUpdateError> for CliError {
    fn from(e: imre_stream::StreamUpdateError) -> Self {
        CliError::Stream(e)
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Flags every subcommand accepts (USAGE, "GLOBAL FLAGS").
const GLOBAL_FLAGS: &[&str] = &["threads"];

/// Parsed `--key value` flags after the subcommand.
pub struct Flags {
    map: HashMap<String, String>,
}

impl Flags {
    /// Parses `--key value` pairs; rejects dangling keys and any key that
    /// is neither in `accepted` (the subcommand's own list) nor global.
    pub fn parse(args: &[String], accepted: &[&str]) -> Result<Flags, CliError> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| usage(format!("expected --flag, got {key:?}")))?;
            if !accepted.contains(&key) && !GLOBAL_FLAGS.contains(&key) {
                return Err(usage(format!("unknown flag --{key}")));
            }
            let value = it
                .next()
                .ok_or_else(|| usage(format!("--{key} needs a value")))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Flags { map })
    }

    /// A required string flag.
    pub fn required(&self, key: &str) -> Result<&str, CliError> {
        self.map
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| usage(format!("missing --{key}")))
    }

    /// An optional string flag.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// An optional parsed number flag.
    pub fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| usage(format!("--{key} {v:?} is not a valid number"))),
        }
    }
}

/// Resolves a dataset name to its generator config.
pub fn dataset_config(name: &str, seed: u64) -> Result<DatasetConfig, CliError> {
    match name {
        "nyt" => Ok(imre_corpus::nyt_sim(seed)),
        "gds" => Ok(imre_corpus::gds_sim(seed)),
        "smoke" => Ok(imre_eval::smoke_config(seed)),
        other => Err(usage(format!(
            "unknown dataset {other:?} (nyt, gds, smoke)"
        ))),
    }
}

/// Resolves a model-spec name (Table IV row) to a [`ModelSpec`].
pub fn model_spec(name: &str) -> Result<ModelSpec, CliError> {
    match name {
        "pcnn" => Ok(ModelSpec::pcnn()),
        "pcnn-att" => Ok(ModelSpec::pcnn_att()),
        "cnn-att" => Ok(ModelSpec::cnn_att()),
        "gru-att" => Ok(ModelSpec::gru_att()),
        "bgwa" => Ok(ModelSpec::bgwa()),
        "pa-t" => Ok(ModelSpec::pa_t()),
        "pa-mr" => Ok(ModelSpec::pa_mr()),
        "pa-tmr" => Ok(ModelSpec::pa_tmr()),
        other => Err(usage(format!("unknown model {other:?}"))),
    }
}

fn hp_with_epochs(epochs: usize) -> HyperParams {
    let mut hp = HyperParams::scaled();
    if epochs > 0 {
        hp.epochs = epochs;
    }
    hp
}

/// The one "does this model fit this dataset" gate of `train --resume`,
/// `eval` and `quantize --check`: the model `what` names must have been
/// trained on the dataset the flags `data` regenerate, or that dataset's
/// ids would index past the model's tables.
fn check_fits(
    pipeline: &Pipeline,
    model: &imre_core::ReModel,
    what: &str,
    data: &str,
) -> Result<(), CliError> {
    pipeline.check_fits(model).map_err(|e| {
        usage(format!(
            "{what} does not fit {data}: {e}; pass the dataset and --seed it was trained with"
        ))
    })
}

/// Applies the global `--threads` flag: pins the compute pool size before
/// any kernel runs. The pool is process-global and built once, so a second
/// conflicting request (only possible when `run` is called repeatedly
/// in-process, as tests do) warns instead of failing the command.
fn apply_threads_flag(flags: &Flags) -> Result<(), CliError> {
    let Some(requested) = flags.optional("threads") else {
        return Ok(());
    };
    let threads: usize = requested
        .parse()
        .map_err(|_| usage(format!("--threads {requested:?} is not a valid number")))?;
    let threads = threads.max(1);
    if let Err(existing) = imre_tensor::pool::init_global(threads) {
        if existing != threads {
            eprintln!(
                "warning: compute pool already initialised with {existing} threads; \
                 --threads {threads} ignored"
            );
        }
    }
    Ok(())
}

/// A subcommand body; `run` pairs each with the flags it accepts.
type Command = fn(&Flags) -> Result<(), CliError>;

/// Entry point used by `main` and the tests.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage("no subcommand"));
    };
    let (accepted, command): (&[&str], Command) = match cmd.as_str() {
        "stats" => (STATS_FLAGS, cmd_stats),
        "train" => (TRAIN_FLAGS, cmd_train),
        "eval" => (EVAL_FLAGS, cmd_eval),
        "compare" => (COMPARE_FLAGS, cmd_compare),
        "case-study" => (CASE_STUDY_FLAGS, cmd_case_study),
        "quantize" => (QUANTIZE_FLAGS, cmd_quantize),
        "serve" => (SERVE_FLAGS, cmd_serve),
        "stream-replay" => (STREAM_REPLAY_FLAGS, cmd_stream_replay),
        other => return Err(usage(format!("unknown subcommand {other:?}"))),
    };
    let flags = Flags::parse(rest, accepted)?;
    apply_threads_flag(&flags)?;
    command(&flags)
}

const STATS_FLAGS: &[&str] = &["dataset", "seed"];

fn cmd_stats(flags: &Flags) -> Result<(), CliError> {
    let seed = flags.number("seed", 1u64)?;
    let config = dataset_config(flags.required("dataset")?, seed)?;
    let ds = imre_corpus::Dataset::generate(&config);
    let s = summarize(&ds);
    println!("dataset: {}", s.name);
    println!("relations (incl. NA): {}", s.num_relations);
    println!(
        "train: {} sentences, {} pairs",
        s.train_sentences, s.train_pairs
    );
    println!(
        "test:  {} sentences, {} pairs",
        s.test_sentences, s.test_pairs
    );
    println!("\npairs per sentence-count band (Figure 1):");
    for (label, count) in pair_frequency_histogram(&ds.train, &fig1_bands()) {
        println!("  {label:<8} {count}");
    }
    Ok(())
}

const TRAIN_FLAGS: &[&str] = &[
    "dataset",
    "model",
    "epochs",
    "seed",
    "out",
    "bundle",
    "knn-index",
    "checkpoint",
    "checkpoint-every",
    "resume",
];

fn cmd_train(flags: &Flags) -> Result<(), CliError> {
    let seed = flags.number("seed", 1u64)?;
    let epochs = flags.number("epochs", 0usize)?;
    let dataset = flags.required("dataset")?;
    let config = dataset_config(dataset, seed)?;
    let spec = model_spec(flags.optional("model").unwrap_or("pa-tmr"))?;
    let out = PathBuf::from(flags.required("out")?);
    let resume = flags.optional("resume");
    let checkpoint = match resume {
        Some(path) => {
            let ck = imre_core::load_checkpoint(Path::new(path))
                .map_err(|e| io::Error::new(e.kind(), format!("--resume {path}: {e}")))?;
            if ck.model.spec != spec {
                return Err(usage(format!(
                    "--resume {path} holds a {} model, not the --model {} requested",
                    ck.model.spec.name(),
                    spec.name()
                )));
            }
            Some(ck)
        }
        None => None,
    };
    let save = match flags.optional("checkpoint") {
        Some(path) => {
            // Fail before training, not at the first epoch boundary.
            let dir = Path::new(path)
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
                .unwrap_or(Path::new("."));
            if !dir.is_dir() {
                return Err(usage(format!(
                    "--checkpoint {path}: directory {} does not exist",
                    dir.display()
                )));
            }
            Some(imre_core::CheckpointCfg {
                every: flags.number("checkpoint-every", 1usize)?.max(1),
                path: PathBuf::from(path),
            })
        }
        None => None,
    };

    println!("building pipeline for {} …", config.name);
    let pipeline = Pipeline::build(&config, hp_with_epochs(epochs));
    if let (Some(path), Some(ck)) = (resume, &checkpoint) {
        let data = format!("--dataset {dataset} --seed {seed}");
        check_fits(&pipeline, &ck.model, &format!("--resume {path}"), &data)?;
    }
    let start = checkpoint.as_ref().map_or(0, |ck| ck.at.next_epoch);
    println!("training {} …", spec.name());
    let (model, stats) = pipeline
        .train_system_from(spec, seed, checkpoint, save.as_ref())
        .map_err(|e| match (resume, &save) {
            (Some(path), _) if e.kind() == io::ErrorKind::InvalidInput => usage(format!(
                "--resume {path}: {e}; pass the --seed it was trained with"
            )),
            (_, Some(c)) => {
                io::Error::new(e.kind(), format!("--checkpoint {}: {e}", c.path.display())).into()
            }
            _ => e.into(),
        })?;
    for (i, loss) in stats.epoch_losses.iter().enumerate() {
        println!("  epoch {}: loss {loss:.4}", start + i);
    }
    let ev = pipeline.evaluate_model(&model);
    println!(
        "held-out: AUC {:.4}, F1 {:.4}, P@100 {:.2}",
        ev.auc, ev.f1, ev.p_at_100
    );
    imre_core::save_model(&model, &out)?;
    println!("model written to {}", out.display());
    if let Some(bundle_out) = flags.optional("bundle") {
        let bundle_out = PathBuf::from(bundle_out);
        let knn_index = flags.number("knn-index", 1usize)? != 0;
        // Build the serving kNN index before the model moves into the
        // bundle; seeded with the training seed so rebuilt bundles are
        // byte-identical.
        let ann = knn_index.then(|| imre_eval::build_index(&pipeline, &model, seed));
        let embedding =
            imre_graph::EntityEmbedding::from_matrix(pipeline.embedding.matrix().clone());
        let mut bundle = imre_serve::Bundle::new(
            model,
            pipeline.dataset.vocab.clone(),
            &pipeline.dataset.world,
            Some(embedding),
        );
        if let Some(ann) = ann {
            println!(
                "kNN index: {} bags, {} bytes",
                ann.len(),
                ann.serialized_len()
            );
            bundle = bundle.with_ann(ann);
        }
        imre_serve::save_bundle(&bundle, &bundle_out)?;
        println!("serving bundle written to {}", bundle_out.display());
    }
    Ok(())
}

const QUANTIZE_FLAGS: &[&str] = &[
    "bundle",
    "out",
    "check",
    "seed",
    "max-drift",
    "max-pn-delta",
];

/// `imre quantize`: load a bundle, attach a per-row int8 copy of its model,
/// and write it back as an `.imrb` version-3 artifact. With `--check`, the
/// int8 model is scored against f32 on a dataset's held-out split first;
/// `--max-drift` / `--max-pn-delta` turn the report into a hard gate (CI
/// runs it that way).
fn cmd_quantize(flags: &Flags) -> Result<(), CliError> {
    let in_path = PathBuf::from(flags.required("bundle")?);
    let out_path = PathBuf::from(flags.required("out")?);
    let bundle = imre_serve::load_bundle(&in_path)?;
    let quant = imre_core::QuantModel::from_model(&bundle.model, bundle.embedding.as_ref())
        .map_err(|e| usage(format!("cannot quantize {}: {e}", in_path.display())))?;
    let f32_bytes = bundle.model.store.num_scalars() * 4;
    let q_bytes = quant.bytes();
    println!(
        "weights: f32 {f32_bytes} bytes → int8 {q_bytes} bytes ({:.1}% of f32)",
        q_bytes as f64 / f32_bytes as f64 * 100.0
    );

    if let Some(dataset) = flags.optional("check") {
        let seed = flags.number("seed", 1u64)?;
        let max_drift = flags.number("max-drift", f32::INFINITY)?;
        let max_pn_delta = flags.number("max-pn-delta", f32::INFINITY)?;
        let config = dataset_config(dataset, seed)?;
        let pipeline = Pipeline::build(&config, bundle.model.hp.clone());
        let what = format!("--bundle {}", in_path.display());
        let data = format!("--check {dataset} --seed {seed}");
        check_fits(&pipeline, &bundle.model, &what, &data)?;
        // The bundle's own entity table is indexed by the regenerated
        // dataset's entity ids too.
        let dataset = &pipeline.dataset;
        if bundle.entities.len() != dataset.world.num_entities() {
            return Err(usage(format!(
                "{what} does not fit {data}: the bundle has {} entities, but the dataset \
                 regenerated here has {}; pass the dataset and --seed it was trained with",
                bundle.entities.len(),
                dataset.world.num_entities()
            )));
        }
        let types = imre_core::entity_type_table(&dataset.world);
        let ctx = imre_core::BagContext {
            entity_embedding: bundle.embedding.as_ref(),
            entity_types: &types,
        };
        let nr = bundle.relations.len();
        let mut scratch = imre_core::QuantScratch::new();
        // One pass per precision over the held-out bags; the score pairs
        // feed both the drift check and the metric deltas.
        let mut drift = 0.0f32;
        let mut f_scores: Vec<Vec<f32>> = Vec::with_capacity(pipeline.test_bags.len());
        let mut q_scores: Vec<Vec<f32>> = Vec::with_capacity(pipeline.test_bags.len());
        for bag in &pipeline.test_bags {
            let f = bundle.model.predict(bag, &ctx);
            let mut q = vec![0.0f32; nr];
            quant.predict_quant_into(bag, &types, &mut scratch, &mut q, None);
            for (a, b) in f.iter().zip(&q) {
                drift = drift.max((a - b).abs());
            }
            f_scores.push(f);
            q_scores.push(q);
        }
        let f32_ev = imre_eval::evaluate_system(&pipeline.test_bags, nr, &f_scores);
        let q_ev = imre_eval::evaluate_system(&pipeline.test_bags, nr, &q_scores);
        println!(
            "check {}: bags={} max_score_drift={drift:.6}",
            config.name,
            pipeline.test_bags.len()
        );
        println!(
            "  AUC   f32 {:.4}  int8 {:.4}  delta {:+.4}",
            f32_ev.auc,
            q_ev.auc,
            q_ev.auc - f32_ev.auc
        );
        let pn = [
            ("P@100", f32_ev.p_at_100, q_ev.p_at_100),
            ("P@200", f32_ev.p_at_200, q_ev.p_at_200),
            ("P@300", f32_ev.p_at_300, q_ev.p_at_300),
        ];
        let mut worst_pn_delta = 0.0f32;
        for (label, f, q) in pn {
            println!("  {label} f32 {f:.4}  int8 {q:.4}  delta {:+.4}", q - f);
            worst_pn_delta = worst_pn_delta.max((q - f).abs());
        }
        if drift > max_drift {
            return Err(usage(format!(
                "max score drift {drift:.6} exceeds --max-drift {max_drift}"
            )));
        }
        if worst_pn_delta * 100.0 > max_pn_delta {
            return Err(usage(format!(
                "P@N delta {:.2}pt exceeds --max-pn-delta {max_pn_delta}pt",
                worst_pn_delta * 100.0
            )));
        }
    }

    let bundle = bundle.with_quant(quant);
    imre_serve::save_bundle(&bundle, &out_path)?;
    println!(
        "quantized bundle (.imrb v3) written to {}",
        out_path.display()
    );
    Ok(())
}

const SERVE_FLAGS: &[&str] = &[
    "bundle",
    "name",
    "addr",
    "workers",
    "queue",
    "request-deadline-ms",
    "knn-k",
    "knn-lambda",
    "max-connections",
    "max-inflight-per-conn",
    "precision",
    "stream",
    "publish-every",
    "stream-publish-out",
    "stream-threshold",
];

fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
    let bundle_path = PathBuf::from(flags.required("bundle")?);
    let name = flags.optional("name").unwrap_or("default");
    let addr = flags.optional("addr").unwrap_or("127.0.0.1:7878");
    let request_deadline_ms = flags.number("request-deadline-ms", 0u64)?;
    let knn_lambda = flags.number("knn-lambda", 0.3f32)?;
    if !(0.0..=1.0).contains(&knn_lambda) {
        return Err(usage(format!(
            "--knn-lambda must be in [0, 1], got {knn_lambda}"
        )));
    }
    let precision: imre_serve::Precision = flags
        .optional("precision")
        .unwrap_or("f32")
        .parse()
        .map_err(|e: String| usage(format!("--precision: {e}")))?;
    let config = imre_serve::EngineConfig {
        workers: flags.number("workers", 2usize)?.max(1),
        queue_capacity: flags.number("queue", 256usize)?.max(1),
        default_deadline_ms: (request_deadline_ms > 0).then_some(request_deadline_ms),
        knn_k: flags.number("knn-k", 0usize)?,
        knn_lambda,
        precision,
    };

    let frontend_config = imre_serve::FrontendConfig {
        max_connections: flags.number("max-connections", 1024usize)?.max(1),
        max_inflight_per_conn: flags.number("max-inflight-per-conn", 32usize)?.max(1),
        ..imre_serve::FrontendConfig::default()
    };

    let registry = std::sync::Arc::new(imre_serve::Registry::new());
    registry.load_file(name, &bundle_path)?;
    let model = registry.get(name).expect("model registered above");
    if flags.optional("stream").is_some() && model.bundle().embedding.is_none() {
        // Fail fast: streaming refresh rewrites the LINE embedding; a bundle
        // without one has nothing to refresh.
        return Err(imre_stream::StreamUpdateError::NoEmbedding.into());
    }
    // Fail fast at startup instead of answering every request with the
    // typed error: --precision int8 needs the bundle's quantized section.
    if precision == imre_serve::Precision::Int8 && model.quant().is_none() {
        return Err(imre_serve::ServeError::NoQuantModel.into());
    }
    println!(
        "serving {} as {name:?} ({} relations, {} entities, vocab {}, precision {precision})",
        model.bundle().model.spec.name(),
        model.num_relations(),
        model.bundle().entities.len(),
        model.bundle().vocab.len(),
    );
    let handle = imre_serve::ServeHandle::start(std::sync::Arc::clone(&registry), config);
    let server = imre_serve::TcpServer::spawn_with(handle.clone(), addr, frontend_config)?;
    let bound = server.local_addr();
    println!(
        "listening on {bound} — try: echo ping | nc {} {}",
        bound.ip(),
        bound.port()
    );
    println!(
        "workers={} queue={} request_deadline_ms={} knn_k={} knn_lambda={}",
        config.workers,
        config.queue_capacity,
        match config.default_deadline_ms {
            Some(ms) => ms.to_string(),
            None => "none".to_string(),
        },
        config.knn_k,
        config.knn_lambda,
    );
    println!(
        "max_connections={} max_inflight_per_conn={}",
        frontend_config.max_connections, frontend_config.max_inflight_per_conn,
    );
    // Optional live ingest: a background updater folds delta batches into
    // the proximity graph and hot-swaps refreshed bundles into the registry
    // the front end serves from. Keep the handle alive for the server's
    // lifetime; the thread ends on its own at end of stream.
    let _stream_updater = match flags.optional("stream") {
        Some(path) => {
            let build = stream_build_config(flags)?;
            let publish_every = flags.number("publish-every", 1usize)?;
            let out_path = flags.optional("stream-publish-out").map(PathBuf::from);
            let source = imre_corpus::LineDeltaSource::open(std::path::Path::new(path))?;
            let updater = imre_stream::StreamUpdater::spawn(
                source,
                bundle_path.clone(),
                registry,
                handle.metrics_arc(),
                imre_stream::StreamUpdaterConfig {
                    model_name: name.to_string(),
                    publish_every,
                    build,
                    out_path,
                },
            )?;
            println!("streaming deltas from {path} (publish-every={publish_every})");
            Some(updater)
        }
        None => None,
    };
    // Serve until killed; the listener thread owns the accept loop.
    loop {
        std::thread::park();
    }
}

/// Parses the streaming flag (`--stream-threshold`) shared by
/// `serve --stream` and `stream-replay`. The LINE dimension is overridden
/// to the base bundle's embedding width when the stream starts, so it is
/// not a flag.
fn stream_build_config(flags: &Flags) -> Result<imre_stream::StreamBuildConfig, CliError> {
    Ok(imre_stream::StreamBuildConfig {
        threshold: flags.number("stream-threshold", 2u32)?,
        line: imre_graph::LineConfig::default(),
        // `run` has already applied `--threads` / `IMRE_THREADS` to the pool
        threads: imre_tensor::pool::current_threads(),
        refresh: imre_stream::RefreshMode::Canonical,
    })
}

const STREAM_REPLAY_FLAGS: &[&str] = &["bundle", "deltas", "out", "stream-threshold"];

fn cmd_stream_replay(flags: &Flags) -> Result<(), CliError> {
    let bundle_path = PathBuf::from(flags.required("bundle")?);
    let delta_path = PathBuf::from(flags.required("deltas")?);
    let out = PathBuf::from(flags.required("out")?);
    let config = stream_build_config(flags)?;
    let report = imre_stream::replay(&bundle_path, &delta_path, config)?;
    std::fs::write(&out, &report.bundle)?;
    println!(
        "replayed {} batches: {} duplicates dropped, {} malformed skipped",
        report.batches, report.duplicates, report.malformed,
    );
    println!(
        "admitted {} entities; proximity graph has {} edges",
        report.entities_admitted, report.n_edges,
    );
    println!("wrote {} bytes to {}", report.bundle.len(), out.display());
    Ok(())
}

const EVAL_FLAGS: &[&str] = &[
    "dataset",
    "model-file",
    "seed",
    "knn",
    "knn-k",
    "knn-lambda",
    "knn-buckets",
];

fn cmd_eval(flags: &Flags) -> Result<(), CliError> {
    let seed = flags.number("seed", 1u64)?;
    let dataset = flags.required("dataset")?;
    let config = dataset_config(dataset, seed)?;
    let path = PathBuf::from(flags.required("model-file")?);
    let model = imre_core::load_model(&path)?;
    println!(
        "loaded {} ({} parameters)",
        model.spec.name(),
        model.store.num_scalars()
    );
    let pipeline = Pipeline::build(&config, model.hp.clone());
    check_fits(
        &pipeline,
        &model,
        &format!("--model-file {}", path.display()),
        &format!("--dataset {dataset} --seed {seed}"),
    )?;
    if flags.number("knn", 0usize)? != 0 {
        let k = flags.number("knn-k", 8usize)?;
        let lambda = flags.number("knn-lambda", 0.3f32)?;
        if !(0.0..=1.0).contains(&lambda) {
            return Err(usage(format!(
                "--knn-lambda must be in [0, 1], got {lambda}"
            )));
        }
        let n_buckets = flags.number("knn-buckets", 5usize)?.max(1);
        let report = imre_eval::evaluate_model_knn(&pipeline, &model, k, lambda, seed, n_buckets);
        println!(
            "kNN index: {} bags, {} bytes, built in {:.0}ms",
            report.index_len, report.index_bytes, report.build_ms
        );
        println!(
            "pure   (λ=0):        AUC {:.4}, P {:.4}, R {:.4}, F1 {:.4}, hard-F1 {:.4}",
            report.base.auc,
            report.base.precision,
            report.base.recall,
            report.base.f1,
            report.base_hard_f1
        );
        println!(
            "kNN (k={}, λ={}): AUC {:.4}, P {:.4}, R {:.4}, F1 {:.4}, hard-F1 {:.4}",
            report.k,
            report.lambda,
            report.blended.auc,
            report.blended.precision,
            report.blended.recall,
            report.blended.f1,
            report.blended_hard_f1
        );
        println!("\nF1 by co-occurrence quantile (low → high):");
        println!("{:<8} {:>8} {:>8} {:>8}", "bucket", "pure", "knn", "delta");
        for b in &report.buckets {
            println!(
                "{:<8} {:>8.4} {:>8.4} {:>+8.4}",
                b.label,
                b.base_f1,
                b.knn_f1,
                b.knn_f1 - b.base_f1
            );
        }
        return Ok(());
    }
    let ev = pipeline.evaluate_model(&model);
    println!(
        "held-out: AUC {:.4}, P {:.4}, R {:.4}, F1 {:.4}, P@100 {:.2}, P@200 {:.2}, P@300 {:.2}",
        ev.auc, ev.precision, ev.recall, ev.f1, ev.p_at_100, ev.p_at_200, ev.p_at_300
    );
    Ok(())
}

const COMPARE_FLAGS: &[&str] = &["dataset", "seed", "seeds", "epochs", "parallel-seeds"];

fn cmd_compare(flags: &Flags) -> Result<(), CliError> {
    let seed = flags.number("seed", 1u64)?;
    let n_seeds: u64 = flags.number("seeds", 1u64)?;
    let epochs = flags.number("epochs", 0usize)?;
    let parallel_seeds = flags.number("parallel-seeds", 0usize)?;
    let config = dataset_config(flags.required("dataset")?, seed)?;
    let pipeline = Pipeline::build(&config, hp_with_epochs(epochs));
    let seeds: Vec<u64> = (0..n_seeds.max(1)).map(|i| 100 + 37 * i).collect();
    let specs = [
        ModelSpec::pcnn(),
        ModelSpec::pcnn_att(),
        ModelSpec::pa_t(),
        ModelSpec::pa_mr(),
        ModelSpec::pa_tmr(),
    ];
    let evals = pipeline.run_grid(&specs, &seeds, parallel_seeds);
    println!("{:<10} {:>8} {:>8} {:>8}", "model", "AUC", "F1", "P@100");
    for (spec, evals) in specs.iter().zip(&evals) {
        let m = imre_eval::mean_evaluation(evals);
        println!(
            "{:<10} {:>8.4} {:>8.4} {:>8.2}",
            spec.name(),
            m.auc,
            m.f1,
            m.p_at_100
        );
    }
    Ok(())
}

const CASE_STUDY_FLAGS: &[&str] = &["dataset", "seed", "entity", "k"];

fn cmd_case_study(flags: &Flags) -> Result<(), CliError> {
    let seed = flags.number("seed", 1u64)?;
    let k = flags.number("k", 10usize)?;
    let config = dataset_config(flags.required("dataset")?, seed)?;
    let entity = flags.optional("entity").unwrap_or("Seattle");
    let pipeline = Pipeline::build(&config, HyperParams::scaled());
    let world = &pipeline.dataset.world;
    let Some(id) = world.entity_by_name(entity) else {
        return Err(usage(format!(
            "entity {entity:?} not in this world (try --dataset nyt)"
        )));
    };
    println!("top {k} nearest entities of {entity}:");
    for (rank, (v, cos)) in nearest(&pipeline.embedding, id.0, k)
        .into_iter()
        .enumerate()
    {
        println!(
            "{:>3}. {:<40} cos {:+.3}",
            rank + 1,
            world.entities[v].name,
            cos
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn assert_unknown_flag(args: &[&str], flag: &str) {
        match run(&s(args)) {
            Err(CliError::Usage(msg)) => {
                assert!(msg.contains(&format!("unknown flag {flag}")), "{msg}")
            }
            other => panic!("expected usage error for {flag}, got {other:?}"),
        }
    }

    #[test]
    fn flags_parse_pairs() {
        let f = Flags::parse(&s(&["--dataset", "nyt", "--seed", "7"]), STATS_FLAGS).unwrap();
        assert_eq!(f.required("dataset").unwrap(), "nyt");
        assert_eq!(f.number("seed", 0u64).unwrap(), 7);
        assert_eq!(f.number("missing", 42u64).unwrap(), 42);
    }

    #[test]
    fn flags_reject_dangling_value() {
        assert!(Flags::parse(&s(&["--dataset"]), TRAIN_FLAGS).is_err());
        assert!(Flags::parse(&s(&["dataset", "nyt"]), TRAIN_FLAGS).is_err());
        // A dangling key at the end of an otherwise valid list is still an error.
        assert!(Flags::parse(&s(&["--dataset", "nyt", "--out"]), TRAIN_FLAGS).is_err());
    }

    #[test]
    fn flags_repeated_key_last_wins() {
        let f = Flags::parse(&s(&["--seed", "1", "--seed", "9"]), STATS_FLAGS).unwrap();
        assert_eq!(f.number("seed", 0u64).unwrap(), 9);
    }

    #[test]
    fn flags_serve_flag_set_parses() {
        let f = Flags::parse(
            &s(&[
                "--bundle",
                "m.imrb",
                "--name",
                "prod",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "4",
                "--queue",
                "512",
                "--request-deadline-ms",
                "250",
                "--max-connections",
                "2048",
                "--max-inflight-per-conn",
                "8",
            ]),
            SERVE_FLAGS,
        )
        .unwrap();
        assert_eq!(f.required("bundle").unwrap(), "m.imrb");
        assert_eq!(f.optional("name"), Some("prod"));
        assert_eq!(f.optional("addr"), Some("127.0.0.1:0"));
        assert_eq!(f.number("workers", 2usize).unwrap(), 4);
        assert_eq!(f.number("queue", 256usize).unwrap(), 512);
        assert_eq!(f.number("request-deadline-ms", 0u64).unwrap(), 250);
        assert_eq!(f.number("max-connections", 1024usize).unwrap(), 2048);
        assert_eq!(f.number("max-inflight-per-conn", 32usize).unwrap(), 8);
    }

    /// A flag the subcommand does not read is a usage error naming it, not
    /// a silent no-op — which is all the retired serve flags need.
    #[test]
    fn serve_rejects_retired_batch_flags() {
        for retired in ["--batch", "--deadline-ms", "--frontend"] {
            assert_unknown_flag(&["serve", "--bundle", "m.imrb", retired, "8"], retired);
        }
    }

    #[test]
    fn serve_rejects_a_misspelt_flag() {
        assert_unknown_flag(
            &["serve", "--bundle", "m.imrb", "--wrokers", "4"],
            "--wrokers",
        );
    }

    #[test]
    fn train_rejects_a_misspelt_flag() {
        assert_unknown_flag(&["train", "--dataset", "smoke", "--epocs", "2"], "--epocs");
    }

    #[test]
    fn flags_non_numeric_value_is_usage_error() {
        let f = Flags::parse(&s(&["--workers", "many"]), SERVE_FLAGS).unwrap();
        match f.number("workers", 2usize) {
            Err(CliError::Usage(_)) => {}
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn serve_requires_bundle_flag() {
        match run(&s(&["serve", "--name", "default"])) {
            Err(CliError::Usage(_)) => {}
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn stream_replay_requires_its_flags() {
        match run(&s(&["stream-replay", "--bundle", "m.imrb"])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("deltas"), "{msg}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    /// There is one embedding refresh, so the flag that chose it is gone
    /// from both subcommands that took it.
    #[test]
    fn stream_refresh_is_an_unknown_flag() {
        assert_unknown_flag(
            &[
                "serve",
                "--bundle",
                "m.imrb",
                "--stream-refresh",
                "canonical",
            ],
            "--stream-refresh",
        );
        assert_unknown_flag(
            &[
                "stream-replay",
                "--bundle",
                "m.imrb",
                "--deltas",
                "d.tsv",
                "--out",
                "o.imrb",
                "--stream-refresh",
                "canonical",
            ],
            "--stream-refresh",
        );
    }

    #[test]
    fn stream_build_config_parses_threshold_and_threads() {
        let f = Flags::parse(&s(&["--stream-threshold", "3"]), STREAM_REPLAY_FLAGS).unwrap();
        let pool = imre_tensor::pool::ThreadPool::new(3);
        let c = imre_tensor::pool::with_pool(&pool, || stream_build_config(&f)).unwrap();
        assert_eq!(c.threshold, 3);
        assert_eq!(c.threads, 3);
    }

    #[test]
    fn model_spec_names_resolve() {
        assert_eq!(model_spec("pa-tmr").unwrap(), ModelSpec::pa_tmr());
        assert_eq!(model_spec("bgwa").unwrap(), ModelSpec::bgwa());
        assert!(model_spec("nope").is_err());
    }

    #[test]
    fn dataset_names_resolve() {
        assert_eq!(dataset_config("nyt", 1).unwrap().name, "NYT-sim");
        assert_eq!(dataset_config("gds", 1).unwrap().name, "GDS-sim");
        assert!(dataset_config("imagenet", 1).is_err());
    }

    #[test]
    fn unknown_subcommand_is_usage_error() {
        match run(&s(&["frobnicate"])) {
            Err(CliError::Usage(_)) => {}
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn stats_runs_on_smoke() {
        run(&s(&["stats", "--dataset", "smoke", "--seed", "3"])).unwrap();
    }

    #[test]
    fn threads_flag_rejects_garbage() {
        match run(&s(&["stats", "--dataset", "smoke", "--threads", "lots"])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("--threads")),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn threads_flag_accepted_on_any_subcommand() {
        // The pool may already be pinned by a concurrent test; the flag must
        // still be accepted (it warns on conflict rather than failing).
        run(&s(&["stats", "--dataset", "smoke", "--threads", "2"])).unwrap();
    }

    #[test]
    fn flags_dist_flag_set_parses() {
        let f = Flags::parse(
            &s(&[
                "--resume",
                "ck.imrc",
                "--checkpoint",
                "ck.imrc",
                "--checkpoint-every",
                "2",
                "--parallel-seeds",
                "3",
            ]),
            &[TRAIN_FLAGS, COMPARE_FLAGS].concat(),
        )
        .unwrap();
        assert_eq!(f.optional("resume"), Some("ck.imrc"));
        assert_eq!(f.optional("checkpoint"), Some("ck.imrc"));
        assert_eq!(f.number("checkpoint-every", 1usize).unwrap(), 2);
        assert_eq!(f.number("parallel-seeds", 0usize).unwrap(), 3);
    }

    /// `imre train` on the smoke corpus: `--model pcnn --seed 5` plus
    /// `extra`, writing `<dir>/<model>`.
    fn train_smoke(dir: &std::path::Path, model: &str, extra: &[&str]) -> Result<(), CliError> {
        let out = dir.join(model);
        let mut args = s(&[
            "train",
            "--dataset",
            "smoke",
            "--model",
            "pcnn",
            "--seed",
            "5",
        ]);
        args.extend(s(&["--out", out.to_str().unwrap()]));
        args.extend(s(extra));
        run(&args)
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn dp_train_checkpoint_resume_roundtrip_on_smoke() {
        let dir = scratch_dir("imre_cli_resume_test");
        let ck = dir.join("mid.imrc");
        let cp = ck.to_str().unwrap();
        // Plain train to epoch 1 with a checkpoint, resume to 2: the same
        // bytes as a straight 2-epoch run.
        train_smoke(&dir, "straight.imrm", &["--epochs", "2"]).unwrap();
        train_smoke(&dir, "half.imrm", &["--epochs", "1", "--checkpoint", cp]).unwrap();
        assert!(ck.exists(), "checkpoint must be written");
        train_smoke(&dir, "resumed.imrm", &["--epochs", "2", "--resume", cp]).unwrap();
        let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
        assert!(
            read("straight.imrm") == read("resumed.imrm"),
            "resume must replay the uninterrupted run"
        );
        // Resuming from the final checkpoint is a no-op epoch range: it
        // must load, skip training, and still write the model.
        train_smoke(&dir, "noop.imrm", &["--epochs", "1", "--resume", cp]).unwrap();
        assert!(read("noop.imrm") == read("half.imrm"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The usage message `args` fail with.
    fn usage_error(result: Result<(), CliError>) -> String {
        match result {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn resume_from_a_missing_checkpoint_names_the_file() {
        let dir = scratch_dir("imre_cli_resume_missing");
        match train_smoke(&dir, "m.imrm", &["--resume", "nope.imrc"]) {
            Err(CliError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::NotFound);
                assert!(e.to_string().contains("--resume nope.imrc"), "{e}");
            }
            other => panic!("expected an io error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_as_another_model_is_refused() {
        let dir = scratch_dir("imre_cli_resume_model");
        let (cp, out) = (dir.join("ck.imrc"), dir.join("out.imrm"));
        let (cp, out) = (cp.to_str().unwrap(), out.to_str().unwrap());
        train_smoke(&dir, "m.imrm", &["--epochs", "1", "--checkpoint", cp]).unwrap();
        let args = [
            "train",
            "--dataset",
            "smoke",
            "--model",
            "pa-tmr",
            "--seed",
            "5",
            "--resume",
            cp,
            "--out",
            out,
        ];
        let msg = usage_error(run(&s(&args)));
        assert!(msg.contains("PCNN") && msg.contains("PA-TMR"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_under_another_seed_or_dataset_is_refused() {
        let dir = scratch_dir("imre_cli_resume_data");
        let (cp, out) = (dir.join("ck.imrc"), dir.join("out.imrm"));
        let (cp, out) = (cp.to_str().unwrap(), out.to_str().unwrap());
        let resume = |dataset: &str, seed: &str| {
            let args = [
                "train",
                "--dataset",
                dataset,
                "--model",
                "pcnn",
                "--seed",
                seed,
                "--epochs",
                "2",
                "--resume",
                cp,
                "--out",
                out,
            ];
            usage_error(run(&s(&args)))
        };
        train_smoke(&dir, "m.imrm", &["--epochs", "1", "--checkpoint", cp]).unwrap();
        // Other tables: the fit check names both sizes.
        for (dataset, seed) in [("smoke", "6"), ("gds", "5")] {
            let msg = resume(dataset, seed);
            assert!(
                msg.contains("--resume") && msg.contains("word rows"),
                "{msg}"
            );
        }
        // Smoke seeds 3 and 4 regenerate equally sized tables: the
        // checkpoint's recorded seed refuses the other streams.
        let args = [
            "train",
            "--dataset",
            "smoke",
            "--model",
            "pcnn",
            "--seed",
            "3",
            "--epochs",
            "1",
            "--checkpoint",
            cp,
            "--out",
            out,
        ];
        run(&s(&args)).unwrap();
        let msg = resume("smoke", "4");
        assert!(
            msg.contains("training seed") && msg.contains("--seed"),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_into_a_missing_directory_fails_before_training() {
        let dir = scratch_dir("imre_cli_checkpoint_dir");
        let cp = dir.join("no/such/dir/ck.imrc");
        let extra = ["--epochs", "1", "--checkpoint", cp.to_str().unwrap()];
        let msg = usage_error(train_smoke(&dir, "m.imrm", &extra));
        assert!(
            msg.contains("--checkpoint") && msg.contains("does not exist"),
            "{msg}"
        );
        assert!(!dir.join("m.imrm").exists(), "nothing was trained");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eval_of_a_model_from_another_seed_is_refused() {
        let dir = scratch_dir("imre_cli_eval_seed");
        train_smoke(&dir, "m.imrm", &["--epochs", "1"]).unwrap();
        let mp = dir.join("m.imrm");
        let args = [
            "eval",
            "--dataset",
            "smoke",
            "--model-file",
            mp.to_str().unwrap(),
            "--seed",
            "6",
        ];
        let msg = usage_error(run(&s(&args)));
        assert!(msg.contains("--seed 6") && msg.contains("tokens"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flags_knn_flag_set_parses() {
        let f = Flags::parse(
            &s(&[
                "--knn",
                "1",
                "--knn-k",
                "16",
                "--knn-lambda",
                "0.4",
                "--knn-buckets",
                "5",
                "--knn-index",
                "0",
            ]),
            &[EVAL_FLAGS, TRAIN_FLAGS].concat(),
        )
        .unwrap();
        assert_eq!(f.number("knn", 0usize).unwrap(), 1);
        assert_eq!(f.number("knn-k", 8usize).unwrap(), 16);
        assert_eq!(f.number("knn-lambda", 0.3f32).unwrap(), 0.4);
        assert_eq!(f.number("knn-buckets", 5usize).unwrap(), 5);
        assert_eq!(f.number("knn-index", 1usize).unwrap(), 0);
    }

    #[test]
    fn eval_rejects_out_of_range_lambda() {
        let dir = std::env::temp_dir().join("imre_cli_knn_lambda_test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("m.imrm");
        let mp = model_path.to_str().unwrap();
        run(&s(&[
            "train",
            "--dataset",
            "smoke",
            "--model",
            "pcnn",
            "--epochs",
            "1",
            "--out",
            mp,
        ]))
        .unwrap();
        match run(&s(&[
            "eval",
            "--dataset",
            "smoke",
            "--model-file",
            mp,
            "--knn",
            "1",
            "--knn-lambda",
            "1.5",
        ])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("knn-lambda")),
            other => panic!("expected usage error, got {other:?}"),
        }
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn train_bundle_knn_eval_roundtrip_on_smoke() {
        let dir = std::env::temp_dir().join("imre_cli_knn_test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("m.imrm");
        let bundle_path = dir.join("m.imrb");
        let (mp, bp) = (model_path.to_str().unwrap(), bundle_path.to_str().unwrap());
        // Train with a bundle: the kNN index is built and embedded by
        // default, so the bundle loads as a v2 artifact with an index.
        run(&s(&[
            "train",
            "--dataset",
            "smoke",
            "--model",
            "pcnn",
            "--epochs",
            "2",
            "--out",
            mp,
            "--bundle",
            bp,
        ]))
        .unwrap();
        let bundle = imre_serve::load_bundle(&bundle_path).unwrap();
        let ann = bundle.ann.as_ref().expect("bundle carries a kNN index");
        assert!(!ann.is_empty());
        // The interpolated eval path runs end to end on the same model.
        run(&s(&[
            "eval",
            "--dataset",
            "smoke",
            "--model-file",
            mp,
            "--knn",
            "1",
            "--knn-k",
            "4",
            "--knn-buckets",
            "3",
        ]))
        .unwrap();
        // --knn-index 0 opts out: the bundle is a v1 artifact again.
        run(&s(&[
            "train",
            "--dataset",
            "smoke",
            "--model",
            "pcnn",
            "--epochs",
            "2",
            "--out",
            mp,
            "--bundle",
            bp,
            "--knn-index",
            "0",
        ]))
        .unwrap();
        let bundle = imre_serve::load_bundle(&bundle_path).unwrap();
        assert!(bundle.ann.is_none(), "--knn-index 0 must skip the index");
        std::fs::remove_file(&model_path).ok();
        std::fs::remove_file(&bundle_path).ok();
    }

    #[test]
    fn serve_rejects_unknown_precision() {
        match run(&s(&["serve", "--bundle", "m.imrb", "--precision", "fp8"])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("precision"), "{msg}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn quantize_requires_bundle_and_out() {
        match run(&s(&["quantize", "--bundle", "m.imrb"])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("out"), "{msg}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn quantize_check_roundtrip_on_smoke() {
        let dir = std::env::temp_dir().join("imre_cli_quant_test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("m.imrm");
        let bundle_path = dir.join("m.imrb");
        let quant_path = dir.join("m.q.imrb");
        let (mp, bp, qp) = (
            model_path.to_str().unwrap(),
            bundle_path.to_str().unwrap(),
            quant_path.to_str().unwrap(),
        );
        run(&s(&[
            "train",
            "--dataset",
            "smoke",
            "--model",
            "pa-tmr",
            "--epochs",
            "2",
            "--out",
            mp,
            "--bundle",
            bp,
        ]))
        .unwrap();
        // Quantize with the CI-style gates on the same dataset.
        run(&s(&[
            "quantize",
            "--bundle",
            bp,
            "--out",
            qp,
            "--check",
            "smoke",
            "--max-drift",
            "0.01",
            "--max-pn-delta",
            "1.5",
        ]))
        .unwrap();
        let quantized = imre_serve::load_bundle(&quant_path).unwrap();
        assert!(
            quantized.quant.is_some(),
            "quantize must attach the int8 model"
        );
        // Impossible gate: must fail with a usage error naming the limit.
        match run(&s(&[
            "quantize",
            "--bundle",
            bp,
            "--out",
            qp,
            "--check",
            "smoke",
            "--max-drift",
            "0",
        ])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("max-drift"), "{msg}"),
            other => panic!("expected gate failure, got {other:?}"),
        }
        // A dataset regenerated under another seed has other table sizes:
        // a usage error naming both and the flag, not an out-of-bounds gather.
        match run(&s(&[
            "quantize", "--bundle", bp, "--out", qp, "--check", "smoke", "--seed", "2",
        ])) {
            Err(CliError::Usage(msg)) => {
                assert!(msg.contains("--seed") && msg.contains("tokens"), "{msg}")
            }
            other => panic!("expected a dataset-mismatch error, got {other:?}"),
        }
        std::fs::remove_file(&model_path).ok();
        std::fs::remove_file(&bundle_path).ok();
        std::fs::remove_file(&quant_path).ok();
    }

    #[test]
    fn train_eval_roundtrip_on_smoke() {
        let dir = std::env::temp_dir().join("imre_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("m.imrm");
        let mp = model_path.to_str().unwrap();
        run(&s(&[
            "train",
            "--dataset",
            "smoke",
            "--model",
            "pcnn",
            "--epochs",
            "2",
            "--out",
            mp,
        ]))
        .unwrap();
        run(&s(&["eval", "--dataset", "smoke", "--model-file", mp])).unwrap();
        std::fs::remove_file(&model_path).ok();
    }
}
