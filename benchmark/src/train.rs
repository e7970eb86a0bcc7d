//! `train_paper`: the write-side use of the kernels and the tape — PA-TMR
//! at Table III dims, batch 160, NYT-sim bags, closed loop, each
//! `train_epoch` step timed.

use crate::fixture::{self, SetupTimes, NYT_VOCAB};
use crate::gen::{shuffle, Rng};
use crate::report::{Metrics, RunResult, END_TO_END};
use crate::stats::Samples;
use imre_core::{
    entity_type_table, prepare_bags, train_epoch, BagContext, HyperParams, ModelSpec, PreparedBag,
    ReModel,
};
use imre_corpus::{
    generate_unlabeled, nyt_sim, CoOccurrence, Dataset, UnlabeledConfig, NUM_COARSE_TYPES,
};
use imre_graph::{train_line, EntityEmbedding, LineConfig, ProximityGraph};
use imre_nn::Sgd;
use imre_tensor::TensorRng;
use std::time::{Duration, Instant};

/// Global-norm clip `TrainConfig::from_hp` applies.
const CLIP_NORM: f32 = 5.0;

/// Everything a training run needs, built the way `imre train` builds it:
/// corpus → co-occurrence → proximity graph → LINE → featurized bags →
/// model. The word table is sized to the NYT vocabulary so the optimizer
/// step walks a production-sized parameter store.
pub struct TrainFixture {
    pub hp: HyperParams,
    pub bags: Vec<PreparedBag>,
    pub types: Vec<Vec<usize>>,
    pub embedding: EntityEmbedding,
    pub co: CoOccurrence,
    pub model: ReModel,
    pub times: SetupTimes,
}

impl TrainFixture {
    pub fn build() -> TrainFixture {
        let mut times = SetupTimes::default();
        let hp = HyperParams::paper();

        let t = Instant::now();
        let dataset = Dataset::generate(&nyt_sim(fixture::CORPUS_SEED));
        let bags = prepare_bags(&dataset.train, &hp);
        let types = entity_type_table(&dataset.world);
        times.corpus_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let co = generate_unlabeled(&dataset.world, &UnlabeledConfig::default());
        let graph = ProximityGraph::from_counts(
            co.iter().map(|(&p, &c)| (p, c)),
            dataset.world.num_entities(),
            2,
        );
        let embedding = train_line(
            &graph,
            &LineConfig {
                dim: hp.entity_dim,
                ..LineConfig::default()
            },
        );
        times.index_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let model = ReModel::new(
            ModelSpec::pa_tmr(),
            &hp,
            NYT_VOCAB.max(dataset.vocab.len()),
            dataset.num_relations(),
            NUM_COARSE_TYPES,
            hp.entity_dim,
            fixture::MODEL_SEED,
        );
        times.model_s = t.elapsed().as_secs_f64();

        TrainFixture {
            hp,
            bags,
            types,
            embedding,
            co,
            model,
            times,
        }
    }

    pub fn ctx(&self) -> BagContext<'_> {
        BagContext {
            entity_embedding: Some(&self.embedding),
            entity_types: &self.types,
        }
    }
}

/// What the closed training loop observed.
pub struct TrainResult {
    pub step_ms: Vec<f64>,
    /// Mean per-bag loss of each step.
    pub step_loss: Vec<f64>,
    pub bags: u64,
    pub elapsed: Duration,
}

/// Runs batch-160 steps back to back for `seconds`, visiting bags in a
/// `seed`-shuffled order (reshuffled each pass over the corpus). One
/// untimed step first fills the tape arena.
pub fn run_steps(fx: &mut TrainFixture, seed: u64, seconds: f64) -> TrainResult {
    let batch = fx.hp.batch_size;
    let mut sgd = Sgd::new(fx.hp.lr).with_clip_norm(CLIP_NORM);
    let mut dropout = TensorRng::seed(seed);
    let mut order_rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..fx.bags.len()).collect();
    let mut cursor = order.len(); // forces a shuffle before the first step
    let mut next_batch = |order: &mut Vec<usize>| -> Vec<usize> {
        if cursor + batch > order.len() {
            shuffle(order, &mut order_rng);
            cursor = 0;
        }
        cursor += batch;
        order[cursor - batch..cursor].to_vec()
    };
    let ctx = BagContext {
        entity_embedding: Some(&fx.embedding),
        entity_types: &fx.types,
    };
    let mut step = |ids: &[usize]| {
        train_epoch(
            &mut fx.model,
            &fx.bags,
            &ctx,
            ids,
            batch,
            &mut sgd,
            &mut dropout,
        )
    };
    step(&next_batch(&mut order));

    let mut out = TrainResult {
        step_ms: Vec::new(),
        step_loss: Vec::new(),
        bags: 0,
        elapsed: Duration::ZERO,
    };
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget {
        let ids = next_batch(&mut order);
        let t = Instant::now();
        let loss = step(&ids);
        out.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.step_loss.push(loss / batch as f64);
        out.bags += batch as u64;
    }
    out.elapsed = start.elapsed();
    out
}

/// The loss went down and stayed finite: mean of the last five steps
/// against the first step's.
pub fn loss_improved(step_loss: &[f64]) -> bool {
    let Some(&first) = step_loss.first() else {
        return false;
    };
    let tail = &step_loss[step_loss.len().saturating_sub(5)..];
    let last = tail.iter().sum::<f64>() / tail.len() as f64;
    step_loss.iter().all(|l| l.is_finite()) && step_loss.len() > 5 && last < first
}

/// The end-to-end run: set-up (repeated), then `seconds` of timed steps.
pub fn run_e2e(seed: u64, seconds: f64) -> RunResult {
    let (mut fx, times, setup_s) = fixture::set_up_repeated(
        || {
            let fx = TrainFixture::build();
            let times = fx.times.clone();
            (fx, times)
        },
        drop,
    );
    println!("info setup: {times:?} median_total={setup_s:.4}s");
    let run = run_steps(&mut fx, seed, seconds);
    let steps = Samples::new(run.step_ms.clone());
    let p50_ms = steps.median().unwrap_or(f64::NAN);
    let (tail_q, tail_ms) = steps
        .highest_supported_tail()
        .unwrap_or((f64::NAN, f64::NAN));
    let bags_per_s = run.bags as f64 / run.elapsed.as_secs_f64();
    let improved = loss_improved(&run.step_loss);
    println!(
        "info train: steps={} train_step_p50_ms={p50_ms:.3} tail(p{:.1})={tail_ms:.3}ms \
         train_bags_per_s={bags_per_s:.1} loss first={:.4} last={:.4} improved={improved}",
        steps.len(),
        tail_q * 100.0,
        run.step_loss.first().copied().unwrap_or(f64::NAN),
        run.step_loss.last().copied().unwrap_or(f64::NAN),
    );
    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", setup_s);
    metrics.set("peak_rss_mb", fixture::peak_rss_mb());
    metrics.set("throughput_per_s", bags_per_s);
    // One regime only: the step time fills both latency slots (README.md).
    for slot in ["lat_lo_p50_us", "lat_hi_p50_us"] {
        metrics.set(slot, p50_ms * 1e3);
    }
    RunResult {
        correct: improved,
        attempted: steps.len() as u64,
        failed: 0,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::loss_improved;

    #[test]
    fn loss_check_wants_a_finite_decrease() {
        assert!(loss_improved(&[4.0, 3.5, 3.0, 2.9, 2.5, 2.4, 2.6, 2.2]));
        assert!(!loss_improved(&[2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6]));
        assert!(!loss_improved(&[4.0, 3.0, f64::NAN, 2.0, 1.0, 1.0, 1.0]));
        assert!(!loss_improved(&[4.0, 1.0]));
        assert!(!loss_improved(&[]));
    }
}
