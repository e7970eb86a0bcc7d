//! The `--trace 1` runs: per-layer numbers taken from outside, by timing
//! calls into public functions, plus the span files. End-to-end metrics are
//! never taken here.
//!
//! Every serving trace replays the workload's first requests
//! single-threaded and in-process through the stages `parse → featurize →
//! forward → knn → rank → format`, then times the same requests through
//! `ServingModel::infer`, `ServeHandle::infer` and a lone TCP round trip;
//! the differences between those levels are the engine hand-off and the
//! front-end overhead. Kernel rates are computed from tensor sizes (ops =
//! 2·m·k·n), not from hardware counters.

use crate::fixture::{self, BundleKind};
use crate::gen::{gen_deltas, DeltaShape, GenRequest, Rng};
use crate::loadgen::{exchange, Pool};
use crate::report::{Metrics, RunResult, PER_LAYER};
use crate::serving::{self, Oracle, PhasePlan, Served, ServingSpec};
use crate::stats::Samples;
use crate::stream;
use crate::trace::{self, Tracer};
use crate::train::TrainFixture;
use imre_ann::{blend_scores, exact_knn, SearchScratch};
use imre_core::{BagContext, QuantModel, QuantScratch, ReModel};
use imre_corpus::stream::{LineDeltaSource, StreamSource};
use imre_graph::{train_line, LineConfig, ProximityGraph};
use imre_nn::{GradStore, Sgd};
use imre_serve::protocol::{encode_lines, format_response, parse_infer};
use imre_serve::{load_bundle, read_bundle, InferResponse, Precision, Registry, ServingModel};
use imre_stream::StreamBuild;
use imre_tensor::quant::{qmatvec_into, quantize_row_into};
use imre_tensor::{matmul_into, Tensor, TensorRng};
use std::hint::black_box;
use std::io::Cursor;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Requests replayed through the staged pipeline.
const REPLAY: usize = 2000;
/// Requests timed through `ServeHandle::infer` and over TCP: each waits out
/// the engine's batch window, so fewer fit the run.
const ROUND_TRIPS: usize = 300;
/// Training steps traced (3 s at Table III dims).
const TRACED_STEPS: usize = 20;
/// Requests per interleaving block of the replay.
const REPLAY_BLOCK: usize = 100;
/// Longest live run a traced `stream_publish` spends on the reader's side.
const TRACE_STREAM_SECONDS: f64 = 9.0;

fn p50(values: Vec<f64>) -> f64 {
    Samples::new(values).median().unwrap_or(0.0)
}

/// Median wall time of `f` over `reps` calls, ns.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    p50((0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// How many replayed requests fit a run of `seconds` (the full 2000 at the
/// benchmark's run length; fewer under `--smoke`).
fn scaled(n: usize, seconds: f64) -> usize {
    ((n as f64 * (seconds / 20.0).min(1.0)) as usize).max(50)
}

// ----------------------------------------------------------------------
// Serving workloads
// ----------------------------------------------------------------------

/// `serve.bundle.*` and `serve.registry.swap_ns`: save cost is the
/// fixture's; the file is then read back both ways, and each loaded bundle
/// is hot-swapped into a scratch registry.
fn bundle_layer(metrics: &mut Metrics, path: &Path, bytes: u64, save_s: f64) {
    metrics.set("serve.bundle.save_ms", save_s * 1e3);
    metrics.set("serve.bundle.bytes", bytes as f64);
    let registry = Registry::new();
    let mut swaps = Vec::new();
    let mut swap = |bundle| {
        let model = ServingModel::new(bundle).expect("reloaded bundle validates");
        let t = Instant::now();
        let old = registry.insert("default", model);
        swaps.push(t.elapsed().as_nanos() as f64);
        drop(old);
    };
    let t = Instant::now();
    let owned = read_bundle(&mut std::io::BufReader::new(
        std::fs::File::open(path).expect("bundle file opens"),
    ))
    .expect("bundle reads");
    metrics.set("serve.bundle.load_ms", ms(t.elapsed()));
    let v3 = owned.quant.is_some();
    swap(owned);
    for _ in 0..2 {
        let t = Instant::now();
        let loaded = load_bundle(path).expect("bundle loads");
        if v3 {
            // `load_bundle` memory-maps v3 files; older versions stream.
            metrics.set("serve.bundle.mmap_load_ms", ms(t.elapsed()));
        }
        swap(loaded);
    }
    metrics.set("serve.registry.swap_ns", p50(swaps));
}

/// Engine and front-end counters after a short untraced load run.
fn engine_layer(metrics: &mut Metrics, served: &Served, load: &serving::LoadResult) {
    let m = served.server.handle.metrics();
    let get = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64;
    let wait = m.queue_wait.snapshot();
    if wait.count > 0 {
        metrics.set(
            "serve.engine.queue_wait_mean_us",
            wait.sum_us as f64 / wait.count as f64,
        );
    }
    if get(&m.batches) > 0.0 {
        metrics.set(
            "serve.engine.batch_size_mean",
            get(&m.batched_jobs) / get(&m.batches),
        );
    }
    metrics.set("serve.engine.shed", get(&m.shed));
    metrics.set("serve.engine.deadline_expired", get(&m.deadline_expired));
    metrics.set(
        "serve.frontend.rejected",
        get(&m.rejected_full) + get(&m.rejected_inflight) + get(&m.rejected_conn_cap),
    );
    let (hits, misses) = (get(&m.pool_hits), get(&m.pool_misses));
    if hits + misses > 0.0 {
        metrics.set("nn.arena_hit_rate", hits / (hits + misses));
    }
    let phases = [&load.lo, &load.hi, &load.sat];
    let replies: f64 = phases.iter().map(|p| (p.ok + p.failed) as f64).sum();
    let sent: f64 = phases.iter().map(|p| p.sent as f64).sum();
    metrics.set(
        "serve.frontend.bytes_in_per_req",
        phases.iter().map(|p| p.bytes_out as f64).sum::<f64>() / sent.max(1.0),
    );
    metrics.set(
        "serve.frontend.bytes_out_per_req",
        phases.iter().map(|p| p.bytes_in as f64).sum::<f64>() / replies.max(1.0),
    );
    // Lateness is judged on the low-rate phase, the one whose median it is
    // compared with (5 % of lat_lo_p50_us); at rate_hi the sender shares two
    // busy cores with the workers and its lateness is part of what the
    // client observes.
    let late = Samples::new(load.lo.late_us.clone());
    metrics.set("loadgen.late_p99_us", late.quantile(0.99).unwrap_or(0.0));
    metrics.set("loadgen.sent", sent);
    let (lo50, lo99) = serving::latency_summary("lat_lo", &load.lo);
    let (_, hi99) = serving::latency_summary("lat_hi", &load.hi);
    metrics.set("e2e.lat_lo_p99_us", lo99);
    metrics.set("e2e.lat_hi_p99_us", hi99);
    println!(
        "info loadgen: late_p99={:.1}us is {:.1}% of lat_lo_p50={lo50:.1}us (limit 5%)",
        late.quantile(0.99).unwrap_or(f64::NAN),
        late.quantile(0.99).unwrap_or(f64::NAN) / lo50 * 100.0
    );
}

/// What the staged replay hands to the kernel and index probes.
struct ReplayOutput {
    reprs: Vec<Vec<f32>>,
    token_ids: Vec<usize>,
    failed: u64,
}

/// One pass of the staged pipeline over the requests numbered `range`,
/// recording spans when `tracer` is enabled. Returns each request's wall
/// time.
fn staged_replay(
    model: &ServingModel,
    precision: Precision,
    requests: &[GenRequest],
    pool: &Pool,
    range: std::ops::Range<usize>,
    tracer: &mut Tracer,
    out: &mut ReplayOutput,
) -> Vec<f64> {
    let expected = pool
        .expected
        .as_deref()
        .expect("serving pools carry replies");
    let mut quant = QuantScratch::new();
    let mut knn = SearchScratch::new();
    let mut votes: Vec<f32> = Vec::new();
    let mut totals = Vec::with_capacity(range.len());
    for i in range {
        let idx = i % requests.len();
        let id = i as u32;
        let started = Instant::now();
        tracer.enter("request", id);

        tracer.enter("parse", id);
        let req = parse_infer(&requests[idx].args).expect("generated line parses");
        tracer.exit();

        tracer.enter("model", id);
        tracer.enter("featurize", id);
        let bag = model
            .featurize_request(&req)
            .expect("generated request featurizes");
        let params = model
            .knn_params(&req, 0, 0.3)
            .expect("generated kNN arguments are valid");
        tracer.exit();

        tracer.enter("forward", id);
        let (mut scores, repr) = match precision {
            Precision::F32 => (model.predict_prepared(&bag), None),
            Precision::Int8 => model
                .predict_prepared_batch_quant_with_repr(&[&bag], &mut quant, &[params.is_some()])
                .expect("int8 section present")
                .remove(0),
        };
        tracer.exit();

        if let Some((k, lambda)) = params {
            tracer.enter("knn", id);
            let ann = model.ann().expect("knn_params verified the index");
            let repr = repr.expect("repr requested");
            let neighbors = ann.search(&repr, k.min(ann.len()), &mut knn);
            votes.resize(scores.len(), 0.0);
            ann.label_votes_into(neighbors, &mut votes);
            blend_scores(&mut scores, &votes, lambda);
            tracer.exit();
            if out.reprs.len() < 256 {
                out.reprs.push(repr);
            }
        }

        tracer.enter("rank", id);
        let ranked = model.rank(&scores, req.top_k);
        tracer.exit();
        tracer.exit(); // model

        tracer.enter("format", id);
        let wire = encode_lines(&[format_response(&InferResponse {
            model: req.model,
            ranked,
            queue_us: 0,
            featurize_us: 0,
            forward_us: 0,
        })]);
        tracer.exit();
        tracer.exit(); // request
        totals.push(started.elapsed().as_nanos() as f64);

        if wire != expected[idx] {
            out.failed += 1;
        }
        if out.token_ids.len() < 1 << 16 {
            out.token_ids
                .extend(bag.sentences.iter().flat_map(|s| s.tokens.iter().copied()));
        }
    }
    totals
}

/// One connection with one request in flight: the unloaded round trip.
struct RoundTripper {
    stream: TcpStream,
    reply: Vec<u8>,
}

impl RoundTripper {
    fn connect(served: &Served) -> RoundTripper {
        let stream = TcpStream::connect(served.server.tcp.local_addr()).expect("connect loopback");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        RoundTripper {
            stream,
            reply: Vec::new(),
        }
    }

    /// Sends pool request `idx` and reads its reply under one span; whether
    /// the reply was the oracle's.
    fn trip(&mut self, pool: &Pool, idx: usize, id: u32, tracer: &mut Tracer) -> bool {
        let expected = pool
            .expected
            .as_deref()
            .expect("serving pools carry replies");
        tracer.enter("tcp_round_trip", id);
        let answered = exchange(&mut self.stream, &pool.wire[idx], &mut self.reply).is_ok();
        tracer.exit();
        answered && self.reply == expected[idx]
    }
}

/// Kernel probes at the workload's own shapes. Rates are computed from
/// tensor sizes: a `[m×k]·[k×n]` product is `2·m·k·n` flops.
fn tensor_layer(
    metrics: &mut Metrics,
    model: &ReModel,
    quant: Option<&QuantModel>,
    token_ids: &[usize],
    mean_len: usize,
) {
    let hp = &model.hp;
    let mut rng = TensorRng::seed(3);
    let (m, k, n) = (
        mean_len.max(1),
        hp.window * (hp.word_dim + 2 * hp.pos_dim),
        hp.filters,
    );
    let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
    let mut out = vec![0.0f32; m * n];
    let ns = time_ns(400, || {
        matmul_into(black_box(a.data()), black_box(b.data()), &mut out, m, k, n);
        black_box(&out);
    });
    metrics.set("tensor.conv_gemm_gflops", (2 * m * k * n) as f64 / ns);
    println!(
        "info tensor: conv gemm [{m}x{k}]·[{k}x{n}] = {} flops per call (computed)",
        2 * m * k * n
    );

    // Gather from the model's own word table with the replayed tokens, so
    // the row mix (and its cache misses) is the workload's.
    let store = &model.store;
    let table = store.get(store.find("enc.word_emb").expect("word table registered"));
    let ids = &token_ids[..token_ids.len().min(1 << 14)];
    if !ids.is_empty() {
        let mut gathered = Tensor::zeros(&[ids.len(), table.cols()]);
        let ns = time_ns(50, || {
            table.gather_rows_into(black_box(ids), &mut gathered);
            black_box(&gathered);
        });
        metrics.set("tensor.gather_ns_per_token", ns / ids.len() as f64);
        println!(
            "info tensor: gather {} rows of {} B from a {} MB table (computed)",
            ids.len(),
            table.cols() * 4,
            (table.rows() * table.cols() * 4) >> 20
        );
    }

    let rows = 3.min(mean_len.max(1));
    let logits = Tensor::rand_uniform(&[rows, model.num_relations()], -2.0, 2.0, &mut rng);
    let mut soft = Tensor::zeros(&[rows, model.num_relations()]);
    metrics.set(
        "tensor.softmax_rows_ns",
        time_ns(2000, || {
            black_box(&logits).softmax_rows_into(&mut soft);
            black_box(&soft);
        }),
    );

    if let Some(qm) = quant {
        // The int8 conv bank against one quantized activation window:
        // 2·rows·cols integer ops per call.
        let w = &qm.conv.w;
        let act_f32: Vec<f32> = (0..w.cols()).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut act = vec![0i8; w.cols()];
        let p = quantize_row_into(&act_f32, &mut act);
        let mut out = vec![0.0f32; w.rows()];
        let ns = time_ns(2000, || {
            qmatvec_into(black_box(w), black_box(&act), p, Some(&qm.conv.b), &mut out);
            black_box(&out);
        });
        metrics.set("tensor.qmatvec_gops", (2 * w.rows() * w.cols()) as f64 / ns);
    }
}

/// `ann.*`: search time at k=16 over the replayed representations, and
/// recall against the exact scan (useful neighbours / attempted).
fn ann_layer(metrics: &mut Metrics, model: &ServingModel, reprs: &[Vec<f32>], build_s: f64) {
    let Some(ann) = model.ann() else { return };
    metrics.set("ann.build_ms", build_s * 1e3);
    metrics.set("ann.index_bytes", ann.serialized_len() as f64);
    let mut scratch = SearchScratch::new();
    let mut times = Vec::new();
    let (mut useful, mut attempted) = (0usize, 0usize);
    let vectors: Vec<f32> = (0..ann.len() as u32)
        .flat_map(|id| ann.vector(id).to_vec())
        .collect();
    for (i, q) in reprs.iter().enumerate() {
        let t = Instant::now();
        let found: Vec<u32> = ann
            .search(q, 16, &mut scratch)
            .iter()
            .map(|n| n.id)
            .collect();
        times.push(t.elapsed().as_nanos() as f64);
        if i < 64 {
            let exact = exact_knn(ann.dim(), &vectors, q, 16);
            useful += exact.iter().filter(|n| found.contains(&n.id)).count();
            attempted += exact.len();
        }
    }
    metrics.set("ann.search_ns", p50(times));
    if attempted > 0 {
        metrics.set("ann.recall_at_16", useful as f64 / attempted as f64);
    }
    println!(
        "info ann: {} vectors × {} dims, index {} bytes, recall@16 {useful}/{attempted}",
        ann.len(),
        ann.dim(),
        ann.serialized_len()
    );
}

pub fn trace_serving(spec: &ServingSpec, seed: u64, seconds: f64) -> RunResult {
    let dir = fixture::scratch_dir();
    let mut metrics = Metrics::new(PER_LAYER);
    let (served, times) = serving::set_up(spec.kind, spec.precision, &dir);
    println!("info setup: {times:?}");
    bundle_layer(
        &mut metrics,
        &served.bundle_path,
        served.bundle_bytes,
        times.save_s,
    );
    let model = served.server.model();
    let (requests, pool) = serving::build_pool(spec, &model, seed, fixture::nproc());

    // Untraced load first, as long as the end-to-end run's (a p99 wants a
    // thousand samples at `rate_lo`): the engine's own counters, bytes on
    // the wire, generator lateness, the latency tails.
    let plan = PhasePlan::from_seconds(seconds);
    let load = serving::run_load(spec, &served.server, &pool, &plan, fixture::nproc());
    engine_layer(&mut metrics, &served, &load);
    let mut failed = load.failed();
    let mut attempted = load.attempted();

    // The replay, in interleaved blocks so that every level sees the same
    // machine conditions (this box's speed drifts by 10 % within a minute):
    // the staged pipeline under spans, the same requests through the whole
    // pipeline in one call, and — every other block — the staged pipeline
    // with spans off, whose difference is what the tracing itself costs.
    let n = scaled(REPLAY, seconds);
    let mut tracer = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let mut out = ReplayOutput {
        reprs: Vec::new(),
        token_ids: Vec::new(),
        failed: 0,
    };
    let mut oracle = Oracle::new(&model, spec.precision);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for (block, from) in (0..n).step_by(REPLAY_BLOCK).enumerate() {
        let range = from..(from + REPLAY_BLOCK).min(n);
        traced.extend(staged_replay(
            &model,
            spec.precision,
            &requests,
            &pool,
            range.clone(),
            &mut tracer,
            &mut out,
        ));
        for i in range.clone() {
            let req =
                parse_infer(&requests[i % requests.len()].args).expect("generated line parses");
            tracer.enter("ServingModel::infer", i as u32);
            black_box(
                oracle
                    .ranked(&req)
                    .expect("generated request is answerable"),
            );
            tracer.exit();
        }
        attempted += 2 * range.len() as u64;
        if block % 2 == 0 {
            attempted += range.len() as u64;
            untraced.extend(staged_replay(
                &model,
                spec.precision,
                &requests,
                &pool,
                range,
                &mut quiet,
                &mut out,
            ));
        }
    }
    failed += out.failed;
    let (traced50, untraced50) = (p50(traced), p50(untraced));
    metrics.set(
        "loadgen.trace_overhead_share",
        ((traced50 - untraced50) / untraced50).max(0.0),
    );

    // The same requests through the engine (queue, batch window, worker,
    // reply channel) and over loopback TCP with one request in flight,
    // interleaved for the same reason.
    let trips = scaled(ROUND_TRIPS, seconds);
    let mut tcp = RoundTripper::connect(&served);
    for i in 0..trips {
        let idx = i % requests.len();
        let req = parse_infer(&requests[idx].args).expect("generated line parses");
        tracer.enter("ServeHandle::infer", i as u32);
        let reply = served.server.handle.infer(req);
        tracer.exit();
        failed += u64::from(reply.is_err());
        failed += u64::from(!tcp.trip(&pool, idx, i as u32, &mut tracer));
    }
    drop(tcp);
    attempted += 2 * trips as u64;

    let spans = tracer.spans();
    let stage = |name: &str| p50(trace::durations_ns(spans, name));
    let (parse, featurize, forward, knn, rank, format) = (
        stage("parse"),
        stage("featurize"),
        stage("forward"),
        stage("knn"),
        stage("rank"),
        stage("format"),
    );
    let whole = stage("ServingModel::infer");
    let handle = stage("ServeHandle::infer");
    let tcp = stage("tcp_round_trip");
    metrics.set("serve.protocol.parse_ns", parse);
    metrics.set("serve.protocol.format_ns", format);
    metrics.set("serve.pipeline.featurize_ns", featurize);
    metrics.set("serve.pipeline.rank_ns", rank);
    let replayed = requests.iter().cycle().take(n);
    let tokens: usize = replayed.clone().map(|r| r.tokens).sum();
    let sentences: usize = replayed.map(|r| r.sentences).sum();
    metrics.set("serve.pipeline.tokens_per_req", tokens as f64 / n as f64);
    let forward_total: f64 = trace::durations_ns(spans, "forward").iter().sum();
    match spec.precision {
        Precision::F32 => metrics.set("core.forward_ns_per_bag", forward),
        Precision::Int8 => metrics.set("core.quant.forward_ns_per_bag", forward),
    }
    metrics.set(
        "core.forward_ns_per_sentence",
        forward_total / sentences as f64,
    );
    metrics.set("core.forward_share", forward / whole);
    metrics.set("serve.engine.handoff_ns", (handle - whole).max(0.0));
    metrics.set("serve.frontend.overhead_ns", (tcp - handle).max(0.0));
    let staged = featurize + forward + knn + rank;
    let unattributed = (whole - staged).abs() / whole;
    metrics.set("trace.unattributed_share", unattributed);
    println!(
        "info trace: n={n} stage p50 ns: parse={parse:.0} featurize={featurize:.0} \
         forward={forward:.0} knn={knn:.0} rank={rank:.0} format={format:.0}"
    );
    println!(
        "info trace: ServingModel::infer p50={whole:.0}ns stages sum={staged:.0}ns \
         unattributed={unattributed:.4} (limit 0.15) encoder share={:.3}",
        forward / whole
    );
    println!(
        "info trace: ServeHandle::infer p50={handle:.0}ns tcp_round_trip p50={tcp:.0}ns \
         (n={trips}) traced/untraced request p50={traced50:.0}/{untraced50:.0}ns"
    );

    tensor_layer(
        &mut metrics,
        &model.bundle().model,
        model.quant(),
        &out.token_ids,
        tokens / sentences.max(1),
    );
    ann_layer(&mut metrics, &model, &out.reprs, times.ann_build_s);

    let path = fixture::out_dir().join(format!("trace-{}.jsonl", spec.name));
    trace::write_jsonl(&path, spans).expect("write trace file");
    println!(
        "info trace: {} spans written to {}",
        spans.len(),
        path.display()
    );

    drop(oracle);
    drop(model);
    served.server.stop();
    std::fs::remove_dir_all(&dir).ok();
    RunResult {
        correct: unattributed <= 0.15,
        attempted,
        failed,
        metrics,
    }
}

// ----------------------------------------------------------------------
// train_paper
// ----------------------------------------------------------------------

pub fn trace_train(seed: u64) -> RunResult {
    let mut metrics = Metrics::new(PER_LAYER);
    let mut fx = TrainFixture::build();
    println!("info setup: {:?}", fx.times);

    // The offline graph build the fixture just paid for, step by step.
    let n_entities = fx.types.len();
    let t = Instant::now();
    let graph = ProximityGraph::from_counts(fx.co.iter().map(|(&p, &c)| (p, c)), n_entities, 2);
    metrics.set("graph.from_counts_ms", ms(t.elapsed()));
    let t = Instant::now();
    black_box(train_line(
        &graph,
        &LineConfig {
            dim: fx.hp.entity_dim,
            ..LineConfig::default()
        },
    ));
    metrics.set("graph.train_line_ms", ms(t.elapsed()));
    println!(
        "info graph: {} vertices, {} edges",
        graph.n_vertices(),
        graph.n_edges()
    );

    // Traced steps: the loop `train_epoch` runs, one public call at a time.
    let batch = fx.hp.batch_size;
    let steps = TRACED_STEPS;
    let sgd = Sgd::new(fx.hp.lr).with_clip_norm(5.0);
    let mut dropout = TensorRng::seed(seed);
    let mut pick = Rng::new(seed);
    let mut tracer = Tracer::new(true);
    let arena_before = fx.model.arena_stats();
    let mut losses = Vec::new();
    for step in 0..steps {
        tracer.enter("train_step", step as u32);
        let mut loss = 0.0;
        for _ in 0..batch {
            let bag = &fx.bags[pick.below(fx.bags.len())];
            let ctx = BagContext {
                entity_embedding: Some(&fx.embedding),
                entity_types: &fx.types,
            };
            tracer.enter("bag_loss_and_backward", step as u32);
            loss += fx
                .model
                .bag_loss_and_backward(bag, &ctx, 1.0 / batch as f32, &mut dropout)
                as f64;
            tracer.exit();
        }
        tracer.enter("Sgd::step", step as u32);
        sgd.step(&mut fx.model.store, &mut fx.model.grads);
        tracer.exit();
        tracer.exit();
        losses.push(loss / batch as f64);
    }
    let arena = fx.model.arena_stats().since(&arena_before);
    metrics.set(
        "nn.arena_hit_rate",
        arena.hits as f64 / (arena.hits + arena.misses).max(1) as f64,
    );
    let spans = tracer.spans();
    // The first step fills the arena; leave it out of the medians.
    let warm = |name: &str| {
        p50(spans
            .iter()
            .filter(|s| s.name == name && s.req_id > 0)
            .map(|s| s.duration_ns() as f64)
            .collect())
    };
    metrics.set("core.train.bag_fwd_bwd_ns", warm("bag_loss_and_backward"));
    metrics.set("nn.sgd_step_ns", warm("Sgd::step"));
    let own = trace::self_times_ns(spans);
    let step_self: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "train_step")
        .map(|(s, &own)| own as f64 / s.duration_ns() as f64)
        .collect();
    let unattributed = p50(step_self);
    metrics.set("trace.unattributed_share", unattributed);
    println!(
        "info trace: {steps} steps, step p50={:.3}ms bag_fwd_bwd p50={:.0}ns sgd_step p50={:.0}ns \
         unattributed={unattributed:.5} arena hits/misses={}/{}",
        warm("train_step") / 1e6,
        warm("bag_loss_and_backward"),
        warm("Sgd::step"),
        arena.hits,
        arena.misses
    );

    // Forward only, at the training shapes.
    let ctx = fx.ctx();
    let sample: Vec<&imre_core::PreparedBag> = fx.bags.iter().take(400).collect();
    let forward_ns: Vec<f64> = sample
        .iter()
        .map(|bag| {
            let t = Instant::now();
            black_box(fx.model.predict(bag, &ctx));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    let sentences: usize = sample.iter().map(|b| b.sentences.len()).sum();
    let tokens: usize = sample
        .iter()
        .flat_map(|b| &b.sentences)
        .map(|s| s.tokens.len())
        .sum();
    metrics.set(
        "core.forward_ns_per_sentence",
        forward_ns.iter().sum::<f64>() / sentences as f64,
    );
    metrics.set("core.forward_ns_per_bag", p50(forward_ns));

    // Gradient all-reduce across two replicas of the paper-dims store.
    let mut g0 = GradStore::zeros_like(&fx.model.store);
    let mut g1 = GradStore::zeros_like(&fx.model.store);
    metrics.set(
        "dist.allreduce_ns",
        time_ns(9, || imre_dist::tree_all_reduce(&mut [&mut g0, &mut g1])),
    );

    // Kernels at the training shapes (NYT-sim sentences are short).
    let ids: Vec<usize> = sample
        .iter()
        .flat_map(|b| &b.sentences)
        .flat_map(|s| s.tokens.iter().copied())
        .collect();
    tensor_layer(
        &mut metrics,
        &fx.model,
        None,
        &ids,
        tokens / sentences.max(1),
    );

    let path = fixture::out_dir().join("trace-train_paper.jsonl");
    trace::write_jsonl(&path, spans).expect("write trace file");
    println!(
        "info trace: {} spans written to {}",
        spans.len(),
        path.display()
    );
    RunResult {
        correct: losses.iter().all(|l| l.is_finite()),
        attempted: (steps * batch) as u64,
        failed: 0,
        metrics,
    }
}

// ----------------------------------------------------------------------
// stream_publish
// ----------------------------------------------------------------------

pub fn trace_stream(seed: u64, seconds: f64) -> RunResult {
    let dir = fixture::scratch_dir();
    let mut metrics = Metrics::new(PER_LAYER);
    let built = fixture::build_bundle(BundleKind::StreamBase, &dir);
    println!("info setup: {:?}", built.times);
    bundle_layer(&mut metrics, &built.path, built.bytes, built.times.save_s);

    // The delta document through the product's parser, batch by batch.
    let base = built.model.bundle();
    let names: Vec<String> = base.entities.iter().map(|(n, _)| n.clone()).collect();
    let shape = DeltaShape {
        batches: 3 * stream::PUBLISH_EVERY,
        events_per_batch: stream::EVENTS_PER_BATCH,
        dup_every: 7,
    };
    let deltas = gen_deltas(seed, &names, &stream::cold_names(), shape);
    let mut source = LineDeltaSource::new(Cursor::new(deltas));
    let mut batches = Vec::new();
    let t = Instant::now();
    while let Some(batch) = source.next_batch().expect("generated deltas parse") {
        batches.push(batch);
    }
    let events: usize = batches.iter().map(|b| b.events.len()).sum();
    metrics.set(
        "corpus.stream.parse_ns_per_event",
        t.elapsed().as_nanos() as f64 / events as f64,
    );

    // The publish cycle the updater runs, one public call at a time.
    let mut config = stream::build_config();
    config.line.dim = base.embedding.as_ref().expect("MR bundle").dim();
    let mut build = StreamBuild::new(&base.entities, base.model.num_types(), config.clone());
    let registry = Registry::new();
    let mut tracer = Tracer::new(true);
    let mut apply_ns = Vec::new();
    let mut duplicates = 0;
    let mut publishes = 0u32;
    for (i, batch) in batches.into_iter().enumerate() {
        let t = Instant::now();
        let outcome = build.apply_batch(batch).expect("batch applies");
        apply_ns.push(t.elapsed().as_nanos() as f64);
        duplicates += outcome.duplicates;
        if (i + 1) % stream::PUBLISH_EVERY == 0 {
            tracer.enter("publish", publishes);
            tracer.enter("StreamBuild::embedding", publishes);
            let embedding = build.embedding().expect("graph has edges");
            tracer.exit();
            tracer.enter("load_bundle", publishes);
            let mut bundle = load_bundle(&built.path).expect("base bundle reloads");
            tracer.exit();
            tracer.enter("ServingModel::new", publishes);
            bundle.entities = build.catalog().entries().to_vec();
            bundle.embedding = Some(embedding);
            let model = ServingModel::new(bundle).expect("refreshed bundle validates");
            tracer.exit();
            tracer.enter("Registry::insert", publishes);
            let old = registry.insert("default", model);
            tracer.exit();
            tracer.exit();
            drop(old);
            publishes += 1;
        }
    }
    let spans = tracer.spans();
    let stage = |name: &str| p50(trace::durations_ns(spans, name));
    metrics.set("stream.apply_batch_ns", p50(apply_ns));
    metrics.set("stream.refresh_ms", stage("StreamBuild::embedding") / 1e6);
    metrics.set("stream.dup_share", duplicates as f64 / events as f64);
    metrics.set("stream.admitted", build.catalog().admitted() as f64);
    metrics.set("serve.registry.swap_ns", stage("Registry::insert"));
    metrics.set("serve.bundle.mmap_load_ms", stage("load_bundle") / 1e6);
    let own = trace::self_times_ns(spans);
    let unattributed = p50(spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "publish")
        .map(|(s, &own)| own as f64 / s.duration_ns() as f64)
        .collect());
    metrics.set("trace.unattributed_share", unattributed);

    // The graph layer on the merged counts the stream produced.
    let graph_in = build.graph();
    let t = Instant::now();
    let graph = ProximityGraph::from_counts(
        graph_in.counts().iter().map(|(&p, &c)| (p, c)),
        graph_in.n_vertices(),
        graph_in.threshold(),
    );
    metrics.set("graph.from_counts_ms", ms(t.elapsed()));
    let t = Instant::now();
    black_box(train_line(&graph, &config.line));
    metrics.set("graph.train_line_ms", ms(t.elapsed()));
    println!(
        "info stream: {events} events, {} vertices, {} edges, {publishes} traced publishes, \
         publish p50={:.1}ms refresh p50={:.1}ms unattributed={unattributed:.5}",
        graph.n_vertices(),
        graph.n_edges(),
        stage("publish") / 1e6,
        stage("StreamBuild::embedding") / 1e6,
    );
    let path = fixture::out_dir().join("trace-stream_publish.jsonl");
    trace::write_jsonl(&path, spans).expect("write trace file");
    println!(
        "info trace: {} spans written to {}",
        spans.len(),
        path.display()
    );
    drop(built);
    std::fs::remove_dir_all(&dir).ok();

    // A short live run for the reader's side of the table.
    let mut run = stream::run(seed, seconds.min(TRACE_STREAM_SECONDS));
    let verdict = stream::verify(&mut run);
    let late = Samples::new(run.reader_late_us.clone());
    metrics.set("loadgen.late_p99_us", late.quantile(0.99).unwrap_or(0.0));
    metrics.set("loadgen.sent", run.reader_sent as f64);
    // Reader tail over the whole run, and over publish windows only.
    let tail = |us: &[f64]| Samples::new(us.to_vec()).tail_or_highest(0.99);
    metrics.set("e2e.lat_lo_p99_us", tail(&verdict.latency_us));
    metrics.set("e2e.lat_hi_p99_us", tail(&verdict.latency_in_publish_us));
    RunResult {
        correct: verdict.cold_ok,
        attempted: run.reader_sent + events as u64,
        failed: verdict.reader_failed,
        metrics,
    }
}
