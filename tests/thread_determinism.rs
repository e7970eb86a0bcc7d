//! End-to-end determinism contract for the thread-pool compute backend:
//! forward passes, gradients, a full PCNN train step (including the SGD
//! update) and `train_epoch`'s sharded mini-batches must be
//! **bit-identical** between a 1-thread and a 4-thread pool.
//! Everything here compares raw f32 buffers with exact `==` — no tolerance.
//!
//! This is what keeps `IMRE_THREADS` a pure throughput knob: training
//! curves, checkpoints, and served scores cannot depend on how many cores
//! the machine happens to have.

use imre_core::{BagContext, HyperParams, ModelSpec, ReModel};
use imre_corpus::Dataset;
use imre_eval::smoke_config;
use imre_graph::EntityEmbedding;
use imre_nn::{Sgd, Tape};
use imre_tensor::pool::{with_pool, ThreadPool};
use imre_tensor::{BufferPool, Tensor, TensorRng};

/// Runs `f` under a 1-thread pool and again under a 4-thread pool.
fn on_1_and_4<T>(f: impl Fn() -> T) -> (T, T) {
    let p1 = ThreadPool::new(1);
    let p4 = ThreadPool::new(4);
    (with_pool(&p1, &f), with_pool(&p4, &f))
}

/// Conv1d (unfold + matmul) forward AND backward: input sized well past the
/// parallel grain so the 4-thread run splits both kernels across workers.
#[test]
fn conv_forward_and_gradients_bit_identical() {
    let mut rng = TensorRng::seed(11);
    let mut store = imre_nn::ParamStore::new();
    let conv = imre_nn::Conv1d::new(&mut store, "conv", 64, 128, 3, &mut rng);
    let x_data = Tensor::rand_uniform(&[96, 64], -1.0, 1.0, &mut rng);

    let run = || {
        let mut tape = Tape::new(&store);
        let x = tape.leaf(x_data.clone());
        let y = conv.forward(&mut tape, x);
        let pooled = tape.mean_rows(y); // [filters]
        let col = tape.reshape(pooled, &[128, 1]);
        let loss = tape.mean_rows(col); // scalar: mean over all filters
        let y_out = tape.value(y).data().to_vec();
        let mut grads = imre_nn::GradStore::zeros_like(&store);
        tape.backward_scaled(loss, 1.0, &mut grads);
        let g: Vec<Vec<f32>> = store
            .iter()
            .map(|(id, _, _)| grads.get(id).data().to_vec())
            .collect();
        (y_out, g)
    };
    let ((y1, g1), (y4, g4)) = on_1_and_4(run);
    assert_eq!(y1, y4, "conv forward must be bit-identical");
    assert_eq!(g1, g4, "conv gradients must be bit-identical");
}

/// One full PCNN+ATT train step on the smoke dataset (fixed seed): loss,
/// every gradient, and the post-SGD parameters agree bit-for-bit.
#[test]
fn full_pcnn_train_step_bit_identical() {
    let ds = Dataset::generate(&smoke_config(1));
    let hp = HyperParams::tiny();
    let bags = imre_core::prepare_bags(&ds.train, &hp);
    let types = imre_core::entity_type_table(&ds.world);
    let ctx = BagContext {
        entity_embedding: None,
        entity_types: &types,
    };
    let bag = bags
        .iter()
        .max_by_key(|b| b.sentences.len())
        .expect("smoke dataset has bags")
        .clone();

    let run = || {
        let mut model = ReModel::new(
            ModelSpec::pcnn_att(),
            &hp,
            ds.vocab.len(),
            ds.num_relations(),
            imre_corpus::NUM_COARSE_TYPES,
            hp.entity_dim,
            7,
        );
        let mut rng = TensorRng::seed(3);
        let loss = model.bag_loss_and_backward(&bag, &ctx, 1.0, &mut rng);
        let grads: Vec<Vec<f32>> = model
            .store
            .iter()
            .map(|(id, _, _)| model.grads.get(id).data().to_vec())
            .collect();
        let sgd = Sgd::new(0.1).with_clip_norm(5.0);
        let ReModel {
            store: s, grads: g, ..
        } = &mut model;
        sgd.step(s, g);
        let params: Vec<Vec<f32>> = model
            .store
            .iter()
            .map(|(_, _, t)| t.data().to_vec())
            .collect();
        (loss, grads, params)
    };

    let ((l1, g1, p1), (l4, g4, p4)) = on_1_and_4(run);
    assert_eq!(l1.to_bits(), l4.to_bits(), "loss must be bit-identical");
    assert_eq!(g1, g4, "train-step gradients must be bit-identical");
    assert_eq!(p1, p4, "post-SGD parameters must be bit-identical");
}

/// `train_epoch` fans every mini-batch out over a fixed number of shards,
/// so two optimizer steps leave exactly the same parameters on pools of 1,
/// 2 and 4 threads — at batch lengths below the shard count (1, 7), at it
/// (8), just past it (9: a ragged last shard) and at the paper's 160.
#[test]
fn train_epoch_bit_identical_across_pool_sizes() {
    let ds = Dataset::generate(&smoke_config(1));
    let hp = HyperParams::tiny();
    let bags = imre_core::prepare_bags(&ds.train, &hp);
    let types = imre_core::entity_type_table(&ds.world);
    let mut rng = TensorRng::seed(5);
    let embedding = EntityEmbedding::from_matrix(Tensor::rand_uniform(
        &[ds.world.num_entities(), hp.entity_dim],
        -1.0,
        1.0,
        &mut rng,
    ));
    let ctx = BagContext {
        entity_embedding: Some(&embedding),
        entity_types: &types,
    };

    for spec in [ModelSpec::pa_tmr(), ModelSpec::pcnn_att()] {
        for batch in [1usize, 7, 8, 9, 160] {
            // Two steps' worth of bags, wrapping around the small corpus.
            let order: Vec<usize> = (0..2 * batch).map(|i| (i * 7) % bags.len()).collect();
            let run = || {
                let mut model = ReModel::new(
                    spec,
                    &hp,
                    ds.vocab.len(),
                    ds.num_relations(),
                    imre_corpus::NUM_COARSE_TYPES,
                    hp.entity_dim,
                    7,
                );
                let mut sgd = Sgd::new(0.1).with_clip_norm(5.0);
                let mut rng = TensorRng::seed(3);
                let loss = imre_core::train_epoch(
                    &mut model, &bags, &ctx, &order, batch, &mut sgd, &mut rng,
                );
                let params: Vec<Vec<u32>> = model
                    .store
                    .iter()
                    .map(|(_, _, t)| t.data().iter().map(|x| x.to_bits()).collect())
                    .collect();
                (loss.to_bits(), params)
            };
            let one = with_pool(&ThreadPool::new(1), run);
            for threads in [2, 4] {
                let many = with_pool(&ThreadPool::new(threads), run);
                let what = format!("{} batch {batch} on {threads} threads", spec.name());
                assert_eq!(one.0, many.0, "{what}: loss");
                assert!(one.1 == many.1, "{what}: parameters");
            }
        }
    }
}

/// Batch representation export on a 4-thread pool (parallel across bags, one
/// tape per bag on that thread's stash) matches per-bag export on a 1-thread
/// pool exactly — `predict_repr_batch` is the one bag-parallel inference
/// path, and the ANN index is built from what it returns.
#[test]
fn predict_repr_batch_parallel_matches_sequential_per_bag() {
    let ds = Dataset::generate(&smoke_config(5));
    let hp = HyperParams::tiny();
    let bags = imre_core::prepare_bags(&ds.train, &hp);
    let model = ReModel::new(
        ModelSpec::pcnn_att(),
        &hp,
        ds.vocab.len(),
        ds.num_relations(),
        imre_corpus::NUM_COARSE_TYPES,
        hp.entity_dim,
        7,
    );
    let batch: Vec<&imre_core::PreparedBag> = bags.iter().take(8).collect();
    assert!(batch.len() >= 2, "need a real batch");

    let p1 = ThreadPool::new(1);
    let p4 = ThreadPool::new(4);
    let sequential: Vec<Vec<f32>> = with_pool(&p1, || {
        batch.iter().map(|b| model.predict_repr(b)).collect()
    });
    let batched = with_pool(&p4, || model.predict_repr_batch(&batch));
    assert_eq!(sequential, batched);
}

/// Single-bag predict under both pool sizes — the serving front door.
#[test]
fn single_bag_predict_bit_identical() {
    let ds = Dataset::generate(&smoke_config(7));
    let hp = HyperParams::tiny();
    let bags = imre_core::prepare_bags(&ds.train, &hp);
    let types = imre_core::entity_type_table(&ds.world);
    let ctx = BagContext {
        entity_embedding: None,
        entity_types: &types,
    };
    let model = ReModel::new(
        ModelSpec::pcnn_att(),
        &hp,
        ds.vocab.len(),
        ds.num_relations(),
        imre_corpus::NUM_COARSE_TYPES,
        hp.entity_dim,
        7,
    );
    let (s1, s4) = on_1_and_4(|| model.predict(&bags[0], &ctx));
    assert_eq!(s1, s4);

    // PA-TMR at Table III dims over an 8-sentence bag: the held-out scoring
    // GEMMs (`[R, d]·[d, n]`, `[n, d]·[d, R]`, `[R, n]·[n, R]`) at the shapes
    // serving runs them, through every entry point the engine uses.
    let hp = HyperParams::paper();
    let sentences = imre_core::prepare_bags(&ds.train, &hp)
        .into_iter()
        .flat_map(|b| b.sentences)
        .take(8)
        .collect::<Vec<_>>();
    assert_eq!(sentences.len(), 8);
    let bag = imre_core::PreparedBag {
        head: 0,
        tail: 1,
        label: 0,
        sentences,
    };
    let mut rng = TensorRng::seed(5);
    let embedding = EntityEmbedding::from_matrix(Tensor::rand_uniform(
        &[ds.world.num_entities(), hp.entity_dim],
        -1.0,
        1.0,
        &mut rng,
    ));
    let ctx = BagContext {
        entity_embedding: Some(&embedding),
        entity_types: &types,
    };
    let model = ReModel::new(
        ModelSpec::pa_tmr(),
        &hp,
        ds.vocab.len(),
        ds.num_relations(),
        imre_corpus::NUM_COARSE_TYPES,
        hp.entity_dim,
        7,
    );
    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    let (s1, s4) = on_1_and_4(|| bits(model.predict(&bag, &ctx)));
    assert_eq!(s1, s4);
    let mut pool = BufferPool::new();
    let cold = bits(model.predict_pooled(&bag, &ctx, &mut pool, None));
    let warm = bits(model.predict_pooled(&bag, &ctx, &mut pool, None));
    assert_eq!(cold, s1, "cold pool changed the scores");
    assert_eq!(warm, s1, "warm pool changed the scores");
}

/// `train_line` runs its first- and second-order passes on two threads when
/// the pool has two or more, and in one pass on one: the embedding bytes
/// must not tell the two apart.
#[test]
fn train_line_bit_identical_across_pool_sizes() {
    let ds = Dataset::generate(&smoke_config(3));
    let co = imre_corpus::generate_unlabeled(&ds.world, &imre_corpus::UnlabeledConfig::default());
    let graph = imre_graph::ProximityGraph::from_counts(
        co.iter().map(|(&p, &c)| (p, c)),
        ds.world.num_entities(),
        2,
    );
    let config = imre_graph::LineConfig {
        dim: 32,
        samples_per_epoch: 20_000,
        epochs: 2,
        ..Default::default()
    };
    let bits = || {
        imre_graph::train_line(&graph, &config)
            .matrix()
            .data()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<u32>>()
    };
    let (b1, b4) = on_1_and_4(bits);
    assert_eq!(b1, b4, "LINE embedding must be bit-identical");
}
