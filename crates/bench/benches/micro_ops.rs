//! Criterion micro-benchmarks for the hot substrate operations: matmul,
//! the int8 conv (packed GEMM vs per-row matvec, and the per-row loop on
//! the AVX2 tier), the int8 gather, `axpy` and row softmax, the kNN distance and
//! search, PCNN forward+backward, the fused encoder op, the row-sparse
//! optimizer step, selective attention, LINE epochs, proximity-graph
//! construction, and featurization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imre_ann::{AnnIndex, HnswConfig, SearchScratch};
use imre_core::{featurize, HyperParams, ModelSpec, ReModel};
use imre_corpus::{generate_unlabeled, Dataset, UnlabeledConfig};
use imre_eval::smoke_config;
use imre_graph::{train_line, EntityEmbedding, LineConfig, ProximityGraph};
use imre_nn::{pcnn_segments_array, Conv1d, GradStore, ParamStore, Tape};
use imre_tensor::quant::{self, QuantPack};
use imre_tensor::simd::{self, Backend};
use imre_tensor::{BufferPool, QuantTensor, Tensor, TensorRng};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 64, 128] {
        let mut rng = TensorRng::seed(1);
        let a = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    // The shapes the model serves, whose widths are not tile multiples:
    // the Table III conv of a 65-token sentence and the head projection of
    // an 8-sentence bag onto 53 relations.
    for (m, k, n) in [(65usize, 180usize, 230usize), (8, 690, 53)] {
        let mut rng = TensorRng::seed(1);
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        let id = BenchmarkId::from_parameter(format!("{m}x{k}x{n}"));
        group.bench_function(id, |bch| {
            bch.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

/// The int8 conv of one 65-token sentence at Table III widths, as one GEMM
/// over the packed bank and as the per-row `qmatvec` loop it replaces.
fn bench_quant(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant");
    let (m, k, n) = (65usize, 180usize, 230usize);
    let mut rng = TensorRng::seed(1);
    let w = QuantTensor::quantize(&Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut rng));
    let pack = QuantPack::new(&w);
    let x = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
    let mut act = vec![0i8; m * k];
    let params: Vec<_> = x
        .data()
        .chunks_exact(k)
        .zip(act.chunks_exact_mut(k))
        .map(|(row, q)| quant::quantize_row_into(row, q))
        .collect();
    let bias = vec![0.1f32; n];
    let mut out = vec![0f32; m * n];
    let id = format!("{m}x{k}x{n}");
    group.bench_function(BenchmarkId::new("qgemm", &id), |bch| {
        bch.iter(|| {
            quant::qgemm_into(&w, &pack, &act, &params, Some(&bias), &mut out);
            std::hint::black_box(&out);
        });
    });
    let qmatvec_rows = |out: &mut [f32]| {
        for ((a, &p), o) in act
            .chunks_exact(k)
            .zip(&params)
            .zip(out.chunks_exact_mut(n))
        {
            quant::qmatvec_into(&w, a, p, Some(&bias), o);
        }
        std::hint::black_box(out);
    };
    group.bench_function(BenchmarkId::new("qmatvec_rows", &id), |bch| {
        bch.iter(|| qmatvec_rows(&mut out));
    });
    // The same loop on the AVX2 tier, which runs the plain-loop i8 `qdot`
    // in place of the VNNI matvec an AVX-512 box otherwise takes.
    group.bench_function(
        BenchmarkId::new("qmatvec_rows", format!("{id}@avx2")),
        |bch| {
            simd::with_backend(Backend::Avx2, || bch.iter(|| qmatvec_rows(&mut out)));
        },
    );
    // The int8 embedding lookup of one 65-token sentence: 60-wide rows
    // (Table III word + position widths) gathered and dequantized.
    let table = QuantTensor::quantize(&Tensor::rand_uniform(&[1000, 60], -1.0, 1.0, &mut rng));
    let ids: Vec<usize> = (0..65).map(|_| rng.below(1000)).collect();
    let mut rows = vec![0f32; 65 * 60];
    group.bench_function(BenchmarkId::new("dequant_gather", "65x60"), |bch| {
        bch.iter(|| {
            quant::gather_dequant_into(&table, &ids, &mut rows);
            std::hint::black_box(&rows);
        });
    });
    group.finish();
}

/// Plain-loop and 8-lane kernels at the model's widths: the conv
/// backward's row `axpy` at 690 and the attention softmax of an 8-sentence
/// bag over 53 relations.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    let mut rng = TensorRng::seed(2);
    let src = Tensor::rand_uniform(&[690], -1.0, 1.0, &mut rng);
    let mut dst = Tensor::rand_uniform(&[690], -1.0, 1.0, &mut rng);
    group.bench_function(BenchmarkId::new("axpy", 690), |bch| {
        bch.iter(|| {
            imre_tensor::axpy(dst.data_mut(), 1e-3, src.data());
            std::hint::black_box(&dst);
        });
    });
    let logits = Tensor::rand_uniform(&[8, 53], -3.0, 3.0, &mut rng);
    let mut probs = Tensor::zeros(&[8, 53]);
    group.bench_function(BenchmarkId::new("softmax_rows", "8x53"), |bch| {
        bch.iter(|| {
            logits.softmax_rows_into(&mut probs);
            std::hint::black_box(&probs);
        });
    });
    group.finish();
}

/// The kNN row at `paper_int8_knn`'s shape: one 690-d squared distance,
/// and a k=16 search of an 8192-vector index. The vectors are 53 seeded
/// Gaussian clusters, one per relation, built once outside the timer.
fn bench_ann(c: &mut Criterion) {
    let (n, dim) = (8192usize, 690usize);
    let mut rng = TensorRng::seed(8);
    let centers = Tensor::rand_normal(&[53, dim], 1.0, &mut rng);
    let noise = Tensor::rand_normal(&[n + 64, dim], 0.5, &mut rng);
    let mut vectors = noise.data().to_vec();
    for (i, row) in vectors.chunks_exact_mut(dim).enumerate() {
        for (x, &c) in row.iter_mut().zip(centers.row(i % 53)) {
            *x += c;
        }
    }
    let queries = vectors.split_off(n * dim);
    let labels = (0..n as u32).map(|i| i % 53).collect();
    let mut group = c.benchmark_group("ann");
    let (a, b) = (&vectors[..dim], &vectors[dim..2 * dim]);
    group.bench_function(BenchmarkId::new("l2sq", dim), |bch| {
        bch.iter(|| std::hint::black_box(imre_tensor::l2sq(a, b)));
    });
    let index = AnnIndex::build(dim, vectors, labels, HnswConfig::with_seed(1)).expect("index");
    let mut scratch = SearchScratch::new();
    let mut qs = queries.chunks_exact(dim).cycle();
    group.bench_function(
        BenchmarkId::new("search", format!("{n}x{dim}/k16")),
        |bch| {
            bch.iter(|| {
                let q = qs.next().expect("cycled queries");
                std::hint::black_box(index.search(q, 16, &mut scratch).len())
            });
        },
    );
    group.finish();
}

fn bench_pcnn_step(c: &mut Criterion) {
    let ds = Dataset::generate(&smoke_config(1));
    let hp = HyperParams::scaled();
    let bags = imre_core::prepare_bags(&ds.train, &hp);
    let types = imre_core::entity_type_table(&ds.world);
    let ctx = imre_core::BagContext {
        entity_embedding: None,
        entity_types: &types,
    };
    let mut model = ReModel::new(
        ModelSpec::pcnn_att(),
        &hp,
        ds.vocab.len(),
        ds.num_relations(),
        imre_corpus::NUM_COARSE_TYPES,
        hp.entity_dim,
        7,
    );
    let bag = bags
        .iter()
        .max_by_key(|b| b.sentences.len())
        .expect("bags")
        .clone();
    let mut rng = TensorRng::seed(3);
    c.bench_function("pcnn_att_bag_forward_backward", |b| {
        b.iter(|| {
            std::hint::black_box(model.bag_loss_and_backward(&bag, &ctx, 1.0, &mut rng));
            model.grads.zero();
        });
    });
    c.bench_function("pcnn_att_bag_predict", |b| {
        b.iter(|| std::hint::black_box(model.predict(&bag, &ctx)));
    });

    // The served forward at Table III dims (PA-TMR, 53 relations, 65-token
    // sentences) on a warm arena, for the two ends of the bag-size range:
    // held-out scoring is the part of it that does not scale with tokens.
    let hp = HyperParams::paper();
    let mut rng = TensorRng::seed(9);
    let embedding = EntityEmbedding::from_matrix(Tensor::rand_uniform(
        &[ds.world.num_entities(), hp.entity_dim],
        -1.0,
        1.0,
        &mut rng,
    ));
    let ctx = imre_core::BagContext {
        entity_embedding: Some(&embedding),
        entity_types: &types,
    };
    let model = ReModel::new(
        ModelSpec::pa_tmr(),
        &hp,
        ds.vocab.len(),
        53,
        imre_corpus::NUM_COARSE_TYPES,
        hp.entity_dim,
        7,
    );
    for n in [1usize, 8] {
        let sentences = (0..n)
            .map(|j| {
                let sentence = imre_corpus::EncodedSentence {
                    tokens: (0..65).map(|_| rng.below(ds.vocab.len())).collect(),
                    head_pos: 3 + j,
                    tail_pos: 40 + j,
                    expresses_relation: true,
                };
                featurize(&sentence, hp.max_len, hp.pos_clip)
            })
            .collect();
        let bag = imre_core::PreparedBag {
            sentences,
            ..bag.clone()
        };
        let mut pool = BufferPool::new();
        c.bench_function(&format!("pa_tmr_predict_paper_n{n}"), |b| {
            b.iter(|| std::hint::black_box(model.predict_pooled(&bag, &ctx, &mut pool, None)));
        });
    }
}

/// The fused encoder op at `train_paper`'s shape: a mean-length NYT-sim
/// sentence (`[16×60]` tokens), window 3, 230 filters, three segments,
/// forward + backward with the arena threaded through as the trainer does.
fn bench_conv_pool_tanh(c: &mut Criterion) {
    let mut rng = TensorRng::seed(4);
    let mut store = ParamStore::new();
    let conv = Conv1d::new(&mut store, "conv", 60, 230, 3, &mut rng);
    let x = Tensor::rand_uniform(&[16, 60], -1.0, 1.0, &mut rng);
    let segments = pcnn_segments_array(16, 4, 11);
    let mut grads = GradStore::zeros_like(&store);
    let mut arena = BufferPool::new();
    c.bench_function("conv_pool_tanh_16x60_w3_f230_fwd_bwd", |b| {
        b.iter(|| {
            let mut tape = Tape::with_pool(&store, std::mem::take(&mut arena));
            let mut xs = tape.alloc(&[16, 60]);
            xs.data_mut().copy_from_slice(x.data());
            let xv = tape.leaf(xs);
            let enc = conv.forward_pooled(&mut tape, xv, &segments);
            let loss = tape.softmax_cross_entropy(enc, 0);
            arena = tape.backward(loss, &mut grads);
        });
    });
    std::hint::black_box(&grads);
}

/// The optimizer step at `train_paper`'s shape: a `[114042×50]` word table
/// of which the mini-batch scattered into 2,000 rows, beside 0.13 M scalars
/// of dense parameters, clipping active. The step costs the touched rows.
fn bench_sparse_sgd_step(c: &mut Criterion) {
    let mut rng = TensorRng::seed(6);
    let mut store = ParamStore::new();
    let table = store.uniform("table", &[114_042, 50], 0.1, &mut rng);
    let dense = store.uniform("dense", &[565, 230], 0.1, &mut rng);
    let mut grads = GradStore::zeros_like(&store);
    let rows: Vec<usize> = (0..2_000).map(|i| i * 57).collect();
    let updates = Tensor::rand_uniform(&[rows.len(), 50], -1.0, 1.0, &mut rng);
    let dense_grad = Tensor::rand_uniform(&[565, 230], -1.0, 1.0, &mut rng);
    let sgd = imre_nn::Sgd::new(1e-6).with_clip_norm(5.0);
    c.bench_function("sgd_step_114042x50_2000_rows_touched", |b| {
        b.iter(|| {
            grads.scatter_add_rows(table, &rows, &updates);
            grads.accumulate(dense, &dense_grad);
            sgd.step(&mut store, &mut grads);
        });
    });
    std::hint::black_box(&store);
}

fn bench_attention(c: &mut Criterion) {
    let mut rng = TensorRng::seed(5);
    let mut store = ParamStore::new();
    let att = imre_core::SelectiveAttention::new(&mut store, "att", 192, 53, &mut rng);
    let xs_data = Tensor::rand_uniform(&[12, 192], -1.0, 1.0, &mut rng);
    c.bench_function("selective_attention_12x192", |b| {
        b.iter(|| {
            let mut tape = Tape::new(&store);
            let xs = tape.leaf(xs_data.clone());
            std::hint::black_box(att.aggregate(&mut tape, xs, 7));
        });
    });
    let _ = GradStore::zeros_like(&store);
}

fn bench_graph_and_line(c: &mut Criterion) {
    let ds = Dataset::generate(&smoke_config(2));
    let co = generate_unlabeled(&ds.world, &UnlabeledConfig::default());
    c.bench_function("proximity_graph_build", |b| {
        b.iter(|| {
            std::hint::black_box(ProximityGraph::from_counts(
                co.iter().map(|(&p, &cnt)| (p, cnt)),
                ds.world.num_entities(),
                2,
            ))
        });
    });
    let graph = ProximityGraph::from_counts(
        co.iter().map(|(&p, &cnt)| (p, cnt)),
        ds.world.num_entities(),
        2,
    );
    let line = LineConfig {
        dim: 32,
        samples_per_epoch: 10_000,
        epochs: 1,
        ..Default::default()
    };
    c.bench_function("line_10k_samples", |b| {
        b.iter(|| std::hint::black_box(train_line(&graph, &line)));
    });
    // The width of a stream refresh: the served bundles' 128-wide table,
    // 64 per order.
    let wide = LineConfig { dim: 128, ..line };
    c.bench_function("line_10k_samples_dim128", |b| {
        b.iter(|| std::hint::black_box(train_line(&graph, &wide)));
    });
}

fn bench_featurize(c: &mut Criterion) {
    let ds = Dataset::generate(&smoke_config(3));
    let sentences: Vec<_> = ds
        .train
        .iter()
        .flat_map(|b| b.sentences.iter().cloned())
        .collect();
    c.bench_function("featurize_corpus", |b| {
        b.iter(|| {
            for s in &sentences {
                std::hint::black_box(featurize(s, 30, 30));
            }
        });
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_quant,
    bench_kernels,
    bench_ann,
    bench_pcnn_step,
    bench_conv_pool_tanh,
    bench_sparse_sgd_step,
    bench_attention,
    bench_graph_and_line,
    bench_featurize
);
criterion_main!(benches);
