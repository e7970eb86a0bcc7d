//! `stream_publish`: writes beside reads. A `StreamUpdater` folds a
//! seed-generated delta stream over the NYT-sim world and republishes
//! through the registry every `PUBLISH_EVERY` batches, flat out, while one
//! open-loop reader queries the same model over TCP at a fixed low rate.

use crate::fixture::{self, BundleKind, SetupTimes};
use crate::gen::{gen_requests, schedule, DeltaGen, DeltaReader, DeltaShape, GenRequest};
use crate::loadgen::{exchange, Client, Pool, Record};
use crate::report::{Metrics, RunResult, END_TO_END};
use crate::serving::{self, Oracle, PAPER_SHAPE};
use crate::stats::Samples;
use imre_corpus::stream::{DeltaBatch, LineDeltaSource, StreamError, StreamSource};
use imre_graph::{EntityEmbedding, LineConfig};
use imre_serve::protocol::parse_infer;
use imre_serve::{load_bundle, Precision, ServingModel};
use imre_stream::{RefreshMode, StreamBuildConfig, StreamUpdater, StreamUpdaterConfig};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const EVENTS_PER_BATCH: usize = 64;
/// Batches folded between publishes: sized so folding and the canonical
/// LINE refresh each take a visible share of a publish cycle.
pub const PUBLISH_EVERY: usize = 256;
/// The reader's fixed rate, requests per second (frozen; about a fifth of
/// one core at Table III dims).
pub const READER_RATE: f64 = 200.0;
/// Distinct reader requests; small, because the oracle re-answers every one
/// of them for every published generation.
pub const READER_POOL: usize = 32;
/// Never-seen entity names the stream introduces in its first batch.
pub const COLD_ENTITIES: usize = 8;
/// The updater stops taking batches this long before the reader stops, so
/// the closing publish lands while the reader still runs.
const CLOSING_MARGIN: Duration = Duration::from_millis(900);
/// `imre serve --stream` defaults.
const THRESHOLD: u32 = 2;

pub fn cold_names() -> Vec<String> {
    (0..COLD_ENTITIES)
        .map(|i| format!("Cold_Start_{i}"))
        .collect()
}

/// The ingest configuration `imre serve --stream` builds by default.
pub fn build_config() -> StreamBuildConfig {
    StreamBuildConfig {
        threshold: THRESHOLD,
        line: LineConfig::default(), // `dim` is overridden to the bundle's
        threads: fixture::nproc(),
        refresh: RefreshMode::Canonical,
    }
}

/// What the delta source saw: shared with the updater thread.
#[derive(Default)]
pub struct Handover {
    pub batches: u64,
    pub events: u64,
    /// When each publish-triggering batch (or the end of the stream, for
    /// the closing publish) was handed to the updater.
    pub triggers: Vec<Instant>,
    pub first: Option<Instant>,
    pub ended: Option<Instant>,
}

/// The generated delta document behind the product's own line parser,
/// ending the stream at a deadline and noting every hand-over.
struct TimedSource {
    inner: LineDeltaSource<DeltaReader>,
    run_for: Duration,
    publish_every: u64,
    shared: Arc<Mutex<Handover>>,
}

impl StreamSource for TimedSource {
    fn next_batch(&mut self) -> Result<Option<DeltaBatch>, StreamError> {
        let now = Instant::now();
        let first = *self
            .shared
            .lock()
            .expect("handover lock")
            .first
            .get_or_insert(now);
        let batch = if now.duration_since(first) >= self.run_for {
            None
        } else {
            self.inner.next_batch()?
        };
        let mut h = self.shared.lock().expect("handover lock");
        match &batch {
            Some(b) => {
                h.batches += 1;
                h.events += b.events.len() as u64;
                if h.batches.is_multiple_of(self.publish_every) {
                    h.triggers.push(Instant::now());
                }
            }
            None => {
                if !h.batches.is_multiple_of(self.publish_every) {
                    h.triggers.push(now); // the closing publish
                }
                h.ended = Some(now);
            }
        }
        Ok(batch)
    }
}

/// What a publish changes, copied out of a served generation: the watcher
/// must not keep whole models alive, or the process's peak RSS would be the
/// harness's.
pub struct Generation {
    entities: Vec<(String, Vec<usize>)>,
    embedding: EntityEmbedding,
}

fn copy_of(embedding: &EntityEmbedding) -> EntityEmbedding {
    EntityEmbedding::from_matrix(embedding.matrix().clone())
}

impl Generation {
    fn of(model: &ServingModel) -> Generation {
        let bundle = model.bundle();
        Generation {
            entities: bundle.entities.clone(),
            embedding: copy_of(bundle.embedding.as_ref().expect("MR bundle")),
        }
    }

    /// Rebuilds the generation the way a publish builds it: the base bundle
    /// from disk with these tables swapped in.
    fn model(&self, base_path: &Path) -> ServingModel {
        let mut bundle = load_bundle(base_path).expect("base bundle reloads");
        bundle.entities = self.entities.clone();
        bundle.embedding = Some(copy_of(&self.embedding));
        ServingModel::new(bundle).expect("generation validates")
    }
}

/// One request/reply exchange on a fresh connection.
pub fn round_trip(addr: SocketAddr, request: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reply = Vec::new();
    exchange(&mut stream, request, &mut reply)?;
    Ok(reply)
}

/// Everything one stream run observed, ready for checking.
pub struct StreamRun {
    pub setup: SetupTimes,
    pub setup_s: f64,
    pub handover: Handover,
    pub publishes: u64,
    pub admitted: usize,
    pub duplicates: u64,
    pub updater_elapsed: Duration,
    /// Every model generation the registry served, in order.
    pub generations: Vec<Generation>,
    /// Replies the oracle expects from each generation, per reader request.
    pub expected: Vec<Vec<Vec<u8>>>,
    /// The last generation's reply to the cold-start probe.
    pub cold_expected: Vec<u8>,
    pub reader_sent: u64,
    pub reader_late_us: Vec<f64>,
    pub records: Vec<Record>,
    pub cold_before: Vec<u8>,
    pub cold_after: Vec<u8>,
}

/// Sizes the delta document so a run of `seconds` cannot exhaust it: the
/// fold alone runs at a few hundred thousand events per second.
fn delta_shape(seconds: f64) -> DeltaShape {
    DeltaShape {
        batches: ((seconds * 40_000.0) as usize / EVENTS_PER_BATCH).max(4 * PUBLISH_EVERY),
        events_per_batch: EVENTS_PER_BATCH,
        dup_every: 7,
    }
}

pub fn run(seed: u64, seconds: f64) -> StreamRun {
    let dir = fixture::scratch_dir();
    let (served, setup, setup_s) = fixture::set_up_repeated(
        || serving::set_up(BundleKind::StreamBase, Precision::F32, &dir),
        |served| served.server.stop(),
    );
    let (server, base_path) = (served.server, served.bundle_path);
    let base = server.model();
    let names: Vec<String> = fixture::entity_names(&base)
        .into_iter()
        .map(str::to_string)
        .collect();
    let cold = cold_names();
    let deltas = DeltaReader::new(DeltaGen::new(seed, &names, &cold, delta_shape(seconds)));

    // Reader requests over the base table; the cold-start probe pairs a
    // never-seen entity with a known one.
    let words = fixture::filler_words(&base);
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let requests = gen_requests(seed, READER_POOL, &PAPER_SHAPE, &words, &name_refs);
    let cold_request = gen_requests(
        seed ^ 0xc01d,
        1,
        &PAPER_SHAPE,
        &words,
        &[cold[0].as_str(), name_refs[0]],
    )
    .remove(0);
    let addr = server.tcp.local_addr();
    let cold_before = round_trip(addr, &cold_request.wire()).expect("cold probe before");

    let handover = Arc::new(Mutex::new(Handover::default()));
    let run_for = Duration::from_secs_f64(seconds);
    let source = TimedSource {
        inner: LineDeltaSource::new(deltas),
        run_for: run_for.saturating_sub(CLOSING_MARGIN),
        publish_every: PUBLISH_EVERY as u64,
        shared: Arc::clone(&handover),
    };

    // Watcher: notes every generation the registry serves, and keeps it
    // alive so the oracle can answer for it after the run.
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let registry = Arc::clone(&server.registry);
        let stop = Arc::clone(&stop);
        let mut generations = vec![Generation::of(&base)];
        let mut last = Arc::clone(&base);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let current = registry.get("default").expect("model registered");
                if !Arc::ptr_eq(&current, &last) {
                    generations.push(Generation::of(&current));
                    last = current;
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            generations
        })
    };

    let started = Instant::now();
    let updater = StreamUpdater::spawn(
        source,
        base_path.clone(),
        Arc::clone(&server.registry),
        server.handle.metrics_arc(),
        StreamUpdaterConfig {
            model_name: "default".to_string(),
            publish_every: PUBLISH_EVERY,
            build: build_config(),
            out_path: None,
        },
    )
    .expect("updater starts");

    let pool = Pool {
        wire: requests.iter().map(GenRequest::wire).collect(),
        expected: None,
    };
    let mut client = Client::connect(addr, 1).expect("connect loopback");
    let due = schedule(READER_RATE, 1, run_for);
    let reader = client.open_loop(&pool, &due, 1, Duration::ZERO, 0);

    let summary = updater.join().expect("updater finishes");
    let updater_elapsed = started.elapsed();
    let cold_after = round_trip(addr, &cold_request.wire()).expect("cold probe after");
    stop.store(true, Ordering::SeqCst);
    let generations = watcher.join().expect("watcher thread panicked");
    drop(base);
    server.stop();

    // The oracle's answers, generation by generation (needs the base
    // bundle on disk, so before the scratch directory goes).
    let parsed: Vec<_> = requests
        .iter()
        .map(|r| parse_infer(&r.args).expect("generated line parses"))
        .collect();
    let cold_parsed = parse_infer(&cold_request.args).expect("generated line parses");
    let mut cold_expected = Vec::new();
    let expected = generations
        .iter()
        .enumerate()
        .map(|(g, generation)| {
            let model = generation.model(&base_path);
            let mut oracle = Oracle::new(&model, Precision::F32);
            if g + 1 == generations.len() {
                cold_expected = oracle.reply(&cold_parsed);
            }
            parsed.iter().map(|req| oracle.reply(req)).collect()
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    let handover = std::mem::take(&mut *handover.lock().expect("handover lock"));
    StreamRun {
        setup,
        setup_s,
        handover,
        publishes: summary.publishes,
        admitted: summary.entities_admitted,
        duplicates: summary.duplicates,
        updater_elapsed,
        generations,
        expected,
        cold_expected,
        reader_sent: reader.sent,
        reader_late_us: reader.late_us,
        records: reader.records,
        cold_before,
        cold_after,
    }
}

/// The checked view of a run.
pub struct StreamVerdict {
    /// Reader latency of every correct reply, µs.
    pub latency_us: Vec<f64>,
    /// Reader latency of correct replies due inside a publish window.
    pub latency_in_publish_us: Vec<f64>,
    /// Hand-over of each trigger batch → first reply from its generation.
    pub publish_visible_ms: Vec<f64>,
    pub reader_failed: u64,
    pub publishes_expected: u64,
    pub cold_ok: bool,
}

/// Checks every reader reply against the generation that served it and
/// derives the publish-visible times. Generations only move forward: a
/// reply must match the current generation or a later one.
pub fn verify(run: &mut StreamRun) -> StreamVerdict {
    let expected = &run.expected;
    run.records.sort_by_key(|r| r.seq);
    let mut first_reply_at: Vec<Option<Instant>> = vec![None; expected.len()];
    let mut current = 0;
    let mut matched: Vec<(&Record, bool)> = Vec::with_capacity(run.records.len());
    for rec in &run.records {
        let hit = (current..expected.len()).find(|&g| expected[g][rec.pool_idx] == rec.reply);
        if let Some(g) = hit {
            for slot in &mut first_reply_at[current + 1..=g] {
                slot.get_or_insert(rec.arrived);
            }
            current = g;
        }
        matched.push((rec, hit.is_some()));
    }

    // Generation g+1 is the publish triggered by triggers[g].
    let windows: Vec<(Instant, Instant)> = run
        .handover
        .triggers
        .iter()
        .zip(first_reply_at.iter().skip(1))
        .filter_map(|(&from, to)| to.map(|to| (from, to)))
        .collect();
    let publish_visible_ms = windows
        .iter()
        .map(|(from, to)| to.duration_since(*from).as_secs_f64() * 1e3)
        .collect();

    let mut verdict = StreamVerdict {
        latency_us: Vec::new(),
        latency_in_publish_us: Vec::new(),
        publish_visible_ms,
        reader_failed: run.reader_sent - matched.iter().filter(|(_, ok)| *ok).count() as u64,
        publishes_expected: run.handover.triggers.len() as u64,
        cold_ok: false,
    };
    for (rec, ok) in matched {
        if ok {
            let us = rec.arrived.duration_since(rec.due).as_secs_f64() * 1e6;
            verdict.latency_us.push(us);
            if windows
                .iter()
                .any(|(from, to)| rec.due >= *from && rec.due <= *to)
            {
                verdict.latency_in_publish_us.push(us);
            }
        }
    }

    // Cold start: unknown before the stream, answerable — with exactly the
    // last generation's answer — after its publish.
    verdict.cold_ok = run.cold_before.starts_with(b"err unknown-entity")
        && run.cold_after.starts_with(b"ok ")
        && run.cold_after == run.cold_expected;
    verdict
}

/// Delta events folded per second, publishes included: the events of one
/// publish cycle over the median time from one trigger batch to the next
/// (a cycle folds `PUBLISH_EVERY` batches and publishes once). Events over
/// elapsed time would move in steps of a whole cycle, 3 % of a 20 s run: the
/// deadline nearly always falls into a refresh, so the events handed over
/// are a whole number of cycles. Falls back to that when the run is too
/// short for two whole cycles.
pub fn events_per_second(handover: &Handover, elapsed: Duration) -> f64 {
    let whole = (handover.batches / PUBLISH_EVERY as u64) as usize;
    let cycles: Vec<f64> = handover.triggers[..whole.min(handover.triggers.len())]
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64())
        .collect();
    match Samples::new(cycles).median() {
        Some(cycle_s) => (PUBLISH_EVERY * EVENTS_PER_BATCH) as f64 / cycle_s,
        None => handover.events as f64 / elapsed.as_secs_f64(),
    }
}

/// The end-to-end run: the live run, then its checks and metrics.
pub fn run_e2e(seed: u64, seconds: f64) -> RunResult {
    let mut run = run(seed, seconds);
    println!(
        "info setup: {:?} median_total={:.4}s",
        run.setup, run.setup_s
    );
    let verdict = verify(&mut run);
    let events_per_s = events_per_second(&run.handover, run.updater_elapsed);
    let reader = Samples::new(verdict.latency_us.clone());
    let in_publish = Samples::new(verdict.latency_in_publish_us.clone());
    let visible = Samples::new(verdict.publish_visible_ms.clone());
    let late = Samples::new(run.reader_late_us.clone());
    println!(
        "info stream: batches={} events={} stream_events_per_s={events_per_s:.1} publishes={} \
         expected={} generations={} admitted={} duplicates={} updater_elapsed={:.3}s",
        run.handover.batches,
        run.handover.events,
        run.publishes,
        verdict.publishes_expected,
        run.generations.len(),
        run.admitted,
        run.duplicates,
        run.updater_elapsed.as_secs_f64()
    );
    println!(
        "info stream: publish_visible_p50_ms={:.2} (n={}) reader n={} p50={:.1}us \
         read_p99_during_publish_us={:.1} in_publish n={} p99={:.1}us reader_failed={} \
         cold_ok={} late_p99={:.1}us",
        visible.median().unwrap_or(f64::NAN),
        visible.len(),
        reader.len(),
        reader.median().unwrap_or(f64::NAN),
        reader.tail_or_highest(0.99),
        in_publish.len(),
        in_publish.tail_or_highest(0.99),
        verdict.reader_failed,
        verdict.cold_ok,
        late.quantile(0.99).unwrap_or(f64::NAN),
    );
    let publish_gap = run.publishes.abs_diff(verdict.publishes_expected)
        + (run.generations.len() as u64 - 1).abs_diff(run.publishes);
    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", run.setup_s);
    metrics.set("peak_rss_mb", fixture::peak_rss_mb());
    metrics.set("throughput_per_s", events_per_s);
    metrics.set("lat_lo_p50_us", reader.median().unwrap_or(f64::NAN));
    metrics.set("lat_hi_p50_us", visible.median().unwrap_or(f64::NAN) * 1e3);
    RunResult {
        correct: verdict.cold_ok && run.publishes >= 1,
        attempted: run.reader_sent + verdict.publishes_expected + 2,
        failed: verdict.reader_failed + publish_gap + 2 * u64::from(!verdict.cold_ok),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_per_second_is_one_cycle_over_the_median_cycle_time() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let cycle_events = (PUBLISH_EVERY * EVENTS_PER_BATCH) as f64;
        // Three whole cycles (500, 400, 2000 ms apart — one stalled) and a
        // closing trigger for the partial cycle, which does not count.
        let handover = Handover {
            batches: 4 * PUBLISH_EVERY as u64 + 7,
            events: 1,
            triggers: vec![at(0), at(500), at(900), at(2900), at(3000)],
            first: None,
            ended: None,
        };
        let rate = events_per_second(&handover, Duration::from_secs(3));
        assert!((rate - cycle_events / 0.5).abs() < 1e-6, "{rate}");
        // Too short for two whole cycles: events over elapsed time.
        let short = Handover {
            batches: PUBLISH_EVERY as u64,
            events: 3000,
            triggers: vec![at(0)],
            ..Handover::default()
        };
        assert_eq!(events_per_second(&short, Duration::from_secs(2)), 1500.0);
    }
}
