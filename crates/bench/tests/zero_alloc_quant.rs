//! Strict zero-allocation gate for the int8 inference path.
//!
//! Installs a counting `#[global_allocator]` and pins the process-wide
//! heap-allocation delta of a warm `QuantModel::predict_quant_into` call to
//! exactly zero: after warm-up, the recycled [`QuantScratch`] workspaces
//! must absorb every intermediate of the integer forward pass — embeddings,
//! unfolded windows, quantized activation rows, conv outputs, attention
//! scores, and the side components. `scripts/ci.sh quant` runs this test.
//!
//! Everything runs in ONE `#[test]` so `IMRE_THREADS=1` can be pinned
//! before any tensor code initialises the lazily-created global compute
//! pool.

use imre_bench::CountingAllocator;
use imre_core::{
    entity_type_table, prepare_bags, HyperParams, ModelSpec, QuantModel, QuantScratch,
};
use imre_eval::{smoke_config, Pipeline};
use imre_graph::EntityEmbedding;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn warm_quant_inference_pass_performs_zero_heap_allocations() {
    // Must run before the first tensor op of this process (safe:
    // edition-2021 `set_var`, single test fn in this binary).
    std::env::set_var("IMRE_THREADS", "1");

    let hp = HyperParams {
        epochs: 1,
        ..HyperParams::tiny()
    };
    let pipeline = Pipeline::build(&smoke_config(5), hp.clone());
    // PA-TMR exercises every component of the quant path: PCNN encoder,
    // held-out attention scoring, the MR head, and the type head + combiner.
    let model = pipeline.train_system(ModelSpec::pa_tmr(), 11);
    let embedding = EntityEmbedding::from_matrix(pipeline.embedding.matrix().clone());
    let qm = QuantModel::from_model(&model, Some(&embedding)).expect("quantizes");
    let types = entity_type_table(&pipeline.dataset.world);
    let mut bags = prepare_bags(&pipeline.dataset.test, &hp);
    bags.truncate(8);
    // The held-out scoring scratch is `[R, n]`-shaped, so the warm cycle
    // must cross bag sizes: 1 → 8 → 1 sentences.
    let pooled: Vec<_> = bags.iter().flat_map(|b| b.sentences.clone()).collect();
    let sized = |n: usize| imre_core::PreparedBag {
        sentences: pooled.iter().cycle().take(n).cloned().collect(),
        ..bags[0].clone()
    };
    bags.extend([sized(1), sized(8), sized(1)]);
    let bags = &bags[..];

    let mut scratch = QuantScratch::new();
    let mut scores = vec![0.0f32; qm.num_relations];
    let mut repr = vec![0.0f32; qm.sent_dim()];

    // Warm-up: every bag shape passes through the scratch workspaces until
    // their capacities reach steady state.
    for _ in 0..3 {
        for bag in bags {
            qm.predict_quant_into(bag, &types, &mut scratch, &mut scores, Some(&mut repr));
        }
    }

    let reference: Vec<u32> = {
        qm.predict_quant_into(&bags[0], &types, &mut scratch, &mut scores, None);
        scores.iter().map(|s| s.to_bits()).collect()
    };

    let before = CountingAllocator::allocations();
    let mut sink = 0.0f32;
    for _ in 0..25 {
        for bag in bags {
            qm.predict_quant_into(bag, &types, &mut scratch, &mut scores, Some(&mut repr));
            sink += scores[0] + repr[0];
        }
    }
    let delta = CountingAllocator::allocations() - before;
    assert_eq!(
        delta,
        0,
        "a warm int8 inference pass must perform zero heap allocations \
         ({delta} allocations across {} passes; checksum {sink})",
        25 * bags.len()
    );

    // And bit-stability: a warm pass reproduces the reference exactly.
    qm.predict_quant_into(&bags[0], &types, &mut scratch, &mut scores, None);
    let bits: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
    assert_eq!(bits, reference, "warm int8 pass must be bit-stable");
}
