//! The three serving workloads: an in-process `imre serve` (registry →
//! CLI-default engine → default TCP front end) under open-loop load at two
//! frozen rates and closed-loop saturation, every reply checked against an
//! in-process oracle.

use crate::fixture::{self, BundleKind, SetupTimes};
use crate::gen::{gen_requests, schedule, GenRequest, RequestShape};
use crate::loadgen::{Client, PhaseResult, Pool};
use crate::stats::Samples;
use imre_ann::{blend_scores, SearchScratch};
use imre_core::QuantScratch;
use imre_serve::protocol::{encode_lines, format_error, format_response, parse_infer};
use imre_serve::{
    EngineConfig, InferRequest, InferResponse, Precision, RankedRelation, Registry, ServeError,
    ServeHandle, ServingModel, TcpServer,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct requests per run. Phases cycle through them, so the oracle
/// costs one in-process inference per pool entry, not per request sent.
pub const POOL: usize = 1024;
/// Requests in flight per connection in the saturation phase (the front
/// end's `max_inflight_per_conn` is 32).
pub const SAT_DEPTH: usize = 16;
/// The λ `ServingModel::infer` and the engine default to when a request
/// sets `knn=` without `lambda=`; the generated requests always set both.
const KNN_LAMBDA_DEFAULT: f32 = 0.3;

/// One serving workload. The two rates are frozen constants (≈0.15× and
/// ≈0.3× of the workload's saturation on the reference box in a quiet
/// period, two significant digits) — never computed at run time, so two
/// commits are always offered the same load. (0.6×, 0.5× and 0.4× were tried
/// first. The box's speed drifts by 20–30 % over minutes; latency at 0.4×
/// and above sits where a 10 % slower box means 12–20 % more latency, which
/// gave A/A spreads of 0.16–0.42 — past any bound — and, on a noisy quarter
/// hour, overload. At 0.3× latency moves about as much as the box does.)
pub struct ServingSpec {
    pub name: &'static str,
    pub kind: BundleKind,
    pub precision: Precision,
    pub shape: RequestShape,
    /// Requests pipelined per send (1 = a lone request per due time).
    pub burst: usize,
    pub rate_lo: f64,
    pub rate_hi: f64,
}

pub const PAPER_SHAPE: RequestShape = RequestShape {
    max_sentences: 8,
    bag_alpha: 1.45,
    min_tokens: 10,
    max_tokens: 120,
    extra_args: "",
};

pub fn specs() -> [ServingSpec; 3] {
    [
        ServingSpec {
            name: "paper_f32",
            kind: BundleKind::PaperF32,
            precision: Precision::F32,
            shape: PAPER_SHAPE,
            burst: 1,
            rate_lo: 280.0,
            rate_hi: 560.0,
        },
        ServingSpec {
            name: "tiny_pipelined",
            kind: BundleKind::Tiny,
            precision: Precision::F32,
            shape: RequestShape {
                max_sentences: 1,
                bag_alpha: 1.0,
                min_tokens: 8,
                max_tokens: 12,
                extra_args: "",
            },
            burst: 16,
            rate_lo: 10_000.0,
            rate_hi: 20_000.0,
        },
        ServingSpec {
            name: "paper_int8_knn",
            kind: BundleKind::PaperInt8Knn,
            precision: Precision::Int8,
            shape: RequestShape {
                extra_args: "knn=16 lambda=0.3 ",
                ..PAPER_SHAPE
            },
            burst: 1,
            rate_lo: 330.0,
            rate_hi: 660.0,
        },
    ]
}

/// A running server: registry, engine, front end.
pub struct Server {
    pub registry: Arc<Registry>,
    pub handle: ServeHandle,
    pub tcp: TcpServer,
}

impl Server {
    /// `imre serve` as the CLI starts it: default engine knobs (only the
    /// precision is the workload's), default front end, loopback port 0.
    pub fn start(model: ServingModel, precision: Precision) -> Server {
        let registry = Arc::new(Registry::new());
        registry.insert("default", model);
        let handle = ServeHandle::start(
            Arc::clone(&registry),
            EngineConfig {
                precision,
                ..EngineConfig::default()
            },
        );
        let tcp = TcpServer::spawn(handle.clone(), "127.0.0.1:0").expect("bind loopback");
        Server {
            registry,
            handle,
            tcp,
        }
    }

    pub fn model(&self) -> Arc<ServingModel> {
        self.registry.get("default").expect("model registered")
    }

    pub fn stop(mut self) {
        self.tcp.stop();
        self.handle.shutdown();
    }
}

/// A served bundle: the running server and the file it was loaded from.
pub struct Served {
    pub server: Server,
    pub bundle_path: PathBuf,
    pub bundle_bytes: u64,
}

/// Builds the bundle and starts the server, timing every step.
pub fn set_up(kind: BundleKind, precision: Precision, dir: &Path) -> (Served, SetupTimes) {
    let built = fixture::build_bundle(kind, dir);
    let mut times = built.times;
    let t = Instant::now();
    let server = Server::start(built.model, precision);
    times.server_s = t.elapsed().as_secs_f64();
    let served = Served {
        server,
        bundle_path: built.path,
        bundle_bytes: built.bytes,
    };
    (served, times)
}

/// The reply the program must give: the same public pipeline calls the
/// engine makes, run in-process on the same model.
pub struct Oracle<'a> {
    model: &'a ServingModel,
    precision: Precision,
    quant: QuantScratch,
    knn: SearchScratch,
}

impl<'a> Oracle<'a> {
    pub fn new(model: &'a ServingModel, precision: Precision) -> Oracle<'a> {
        Oracle {
            model,
            precision,
            quant: QuantScratch::new(),
            knn: SearchScratch::new(),
        }
    }

    pub fn ranked(&mut self, req: &InferRequest) -> Result<Vec<RankedRelation>, ServeError> {
        match self.precision {
            // `ServingModel::infer` is the whole f32 pipeline, kNN included.
            Precision::F32 => self.model.infer(req),
            Precision::Int8 => {
                let bag = self.model.featurize_request(req)?;
                let params = self.model.knn_params(req, 0, KNN_LAMBDA_DEFAULT)?;
                let mut out = self.model.predict_prepared_batch_quant_with_repr(
                    &[&bag],
                    &mut self.quant,
                    &[params.is_some()],
                )?;
                let (mut scores, repr) = out.remove(0);
                if let Some((k, lambda)) = params {
                    let ann = self.model.ann().expect("knn_params verified the index");
                    let repr = repr.expect("repr requested");
                    let neighbors = ann.search(&repr, k.min(ann.len()), &mut self.knn);
                    let mut votes = vec![0.0f32; scores.len()];
                    ann.label_votes_into(neighbors, &mut votes);
                    blend_scores(&mut scores, &votes, lambda);
                }
                Ok(self.model.rank(&scores, req.top_k))
            }
        }
    }

    /// The wire bytes of the reply to `req`.
    pub fn reply(&mut self, req: &InferRequest) -> Vec<u8> {
        let line = match self.ranked(req) {
            Ok(ranked) => format_response(&InferResponse {
                model: req.model.clone(),
                ranked,
                queue_us: 0,
                featurize_us: 0,
                forward_us: 0,
            }),
            Err(e) => format_error(&e),
        };
        encode_lines(&[line])
    }
}

/// Generates the request pool and the oracle's replies (computed on
/// `threads` threads; the oracle is the harness's cost, not set-up).
pub fn build_pool(
    spec: &ServingSpec,
    model: &ServingModel,
    seed: u64,
    threads: usize,
) -> (Vec<GenRequest>, Pool) {
    let words = fixture::filler_words(model);
    let entities = fixture::entity_names(model);
    let requests = gen_requests(seed, POOL, &spec.shape, &words, &entities);
    let chunk = requests.len().div_ceil(threads.max(1));
    let expected: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let workers: Vec<_> = requests
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut oracle = Oracle::new(model, spec.precision);
                    part.iter()
                        .map(|r| {
                            oracle.reply(&parse_infer(&r.args).expect("generated line parses"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle thread panicked"))
            .collect()
    });
    let pool = Pool {
        wire: requests.iter().map(GenRequest::wire).collect(),
        expected: Some(expected),
    };
    (requests, pool)
}

/// Share of the first `n` pool requests whose int8 top-1 relation equals
/// the f32 pipeline's (both with the request's kNN settings).
pub fn int8_top1_agreement(
    model: &ServingModel,
    requests: &[GenRequest],
    int8_replies: &[Vec<u8>],
    n: usize,
) -> f64 {
    let mut f32_oracle = Oracle::new(model, Precision::F32);
    let n = n.min(requests.len());
    let agree = requests[..n]
        .iter()
        .zip(int8_replies)
        .filter(|(r, int8)| {
            let req = parse_infer(&r.args).expect("generated line parses");
            let f32_top = f32_oracle
                .ranked(&req)
                .ok()
                .and_then(|ranked| ranked.first().map(|x| x.relation.clone()));
            // `ok <relation>:<score> …`
            let int8_top = std::str::from_utf8(int8)
                .ok()
                .and_then(|line| line.strip_prefix("ok "))
                .and_then(|rest| rest.split(':').next())
                .map(str::to_string);
            f32_top.is_some() && f32_top == int8_top
        })
        .count();
    agree as f64 / n as f64
}

/// Floor on int8-vs-f32 top-1 agreement. The fixture's weights are
/// untrained, so near-ties are common: measured agreement is 0.984 ± 0.004
/// (ten seeds, n = 1024); the floor sits six binomial standard deviations
/// (n = 512) below that, so only a real int8 regression trips it.
pub const INT8_AGREEMENT_FLOOR: f64 = 0.95;
const INT8_AGREEMENT_SAMPLE: usize = 512;

/// How a run's seconds are split. The three phases — open loop at
/// `rate_lo`, open loop at `rate_hi`, closed-loop saturation — are run in
/// rounds, one after the other and round after round, so that each metric
/// samples the whole run and not one third of it: the box's speed moves by
/// ±20 % in episodes of a second or two and drifts over minutes. The low
/// rate gets the smallest share because its latency is mostly the engine's
/// batch window, which no neighbour moves.
pub struct PhasePlan {
    pub rounds: usize,
    /// Unmeasured closed-loop load before the first round (pages, arena,
    /// TCP buffers).
    pub warmup: Duration,
    /// Unmeasured start of every phase, while its queues settle.
    pub settle: Duration,
    /// Measured windows of one round.
    pub lo: Duration,
    pub hi: Duration,
    pub sat: Duration,
}

/// Shares of a round, settling included.
const SHARES: [f64; 3] = [0.2, 0.4, 0.4];
const ROUND_SECONDS: f64 = 5.0;

impl PhasePlan {
    pub fn from_seconds(seconds: f64) -> PhasePlan {
        let rounds = (seconds / ROUND_SECONDS).round().max(1.0);
        let round = seconds / rounds;
        let settle = (round * 0.02).min(0.1);
        let window = |share: f64| Duration::from_secs_f64(round * share - settle);
        PhasePlan {
            rounds: rounds as usize,
            warmup: Duration::from_secs_f64((seconds * 0.05).min(1.0)),
            settle: Duration::from_secs_f64(settle),
            lo: window(SHARES[0]),
            hi: window(SHARES[1]),
            sat: window(SHARES[2]),
        }
    }
}

/// The three phases of one serving run.
pub struct LoadResult {
    pub lo: PhaseResult,
    pub hi: PhaseResult,
    pub sat: PhaseResult,
    /// Per round: median latency at `rate_lo` and `rate_hi` (µs) and
    /// saturation replies per second — how much the box moved within the run.
    pub rounds: Vec<[f64; 3]>,
}

impl LoadResult {
    pub fn attempted(&self) -> u64 {
        self.lo.sent + self.hi.sent + self.sat.ok + self.sat.failed
    }

    pub fn failed(&self) -> u64 {
        // An open-loop request with no correct reply failed, whatever the
        // reason (err line, shed, dropped, wrong bytes).
        let open = |p: &PhaseResult| p.sent - p.ok.min(p.sent);
        open(&self.lo) + open(&self.hi) + self.sat.failed
    }
}

pub fn run_load(
    spec: &ServingSpec,
    server: &Server,
    pool: &Pool,
    plan: &PhasePlan,
    conns: usize,
) -> LoadResult {
    let mut client = Client::connect(server.tcp.local_addr(), conns).expect("connect loopback");
    let lo_due = schedule(spec.rate_lo, spec.burst, plan.settle + plan.lo);
    let hi_due = schedule(spec.rate_hi, spec.burst, plan.settle + plan.hi);
    client.closed_loop(pool, SAT_DEPTH, plan.warmup, Duration::ZERO, 0);
    let mut load = LoadResult {
        lo: PhaseResult::default(),
        hi: PhaseResult::default(),
        sat: PhaseResult::default(),
        rounds: Vec::new(),
    };
    let p50 = |phase: &PhaseResult| {
        Samples::new(phase.latency_us.clone())
            .median()
            .unwrap_or(f64::NAN)
    };
    // Each phase numbers its own requests and walks the pool where its last
    // round stopped; the open-loop phases so ask the same questions in every
    // run of a seed (`reply_digest`).
    let (mut lo_seq, mut hi_seq, mut sat_seq) = (0, 0, 0);
    for _ in 0..plan.rounds {
        let lo = client.open_loop(pool, &lo_due, spec.burst, plan.settle, lo_seq);
        lo_seq += lo_due.len() * spec.burst;
        let hi = client.open_loop(pool, &hi_due, spec.burst, plan.settle, hi_seq);
        hi_seq += hi_due.len() * spec.burst;
        let sat = client.closed_loop(pool, SAT_DEPTH, plan.settle, plan.sat, sat_seq);
        sat_seq += sat.sent as usize;
        load.rounds.push([p50(&lo), p50(&hi), sat.ok_per_second()]);
        load.lo.append(lo);
        load.hi.append(hi);
        load.sat.append(sat);
    }
    load
}

/// Median and p99 of a phase's latencies; the p99 falls back to the
/// highest percentile the sample supports (and says so) when fewer than
/// 1000 samples arrived.
pub fn latency_summary(name: &str, phase: &PhaseResult) -> (f64, f64) {
    let samples = Samples::new(phase.latency_us.clone());
    let p50 = samples.median().unwrap_or(f64::NAN);
    if samples.tail(0.99).is_none() {
        let q = samples
            .highest_supported_tail()
            .map_or(f64::NAN, |(q, _)| q);
        println!(
            "info {name}: only {} samples, p99 unsupported; reporting p{:.1}",
            samples.len(),
            q * 100.0
        );
    }
    let p99 = samples.tail_or_highest(0.99);
    println!(
        "info {name}: n={} p50={p50:.1}us p99={p99:.1}us sent={} ok={} failed={}",
        samples.len(),
        phase.sent,
        phase.ok,
        phase.failed
    );
    (p50, p99)
}

/// The end-to-end run of one serving workload (tracing off).
pub fn run_e2e(spec: &ServingSpec, seed: u64, seconds: f64) -> crate::report::RunResult {
    use crate::report::{Metrics, RunResult, END_TO_END};
    let dir = fixture::scratch_dir();
    let (served, times, setup_s) = fixture::set_up_repeated(
        || set_up(spec.kind, spec.precision, &dir),
        |served| served.server.stop(),
    );
    let server = served.server;
    println!("info setup: {times:?} median_total={setup_s:.4}s");
    let model = server.model();
    let (requests, pool) = build_pool(spec, &model, seed, fixture::nproc());
    let mut correct = true;
    if spec.precision == Precision::Int8 {
        let replies = pool
            .expected
            .as_deref()
            .expect("serving pools carry replies");
        let agreement = int8_top1_agreement(&model, &requests, replies, INT8_AGREEMENT_SAMPLE);
        println!(
            "info int8_top1_agreement={agreement:.4} (n={INT8_AGREEMENT_SAMPLE}, floor {INT8_AGREEMENT_FLOOR})"
        );
        correct &= agreement >= INT8_AGREEMENT_FLOOR;
    }
    let plan = PhasePlan::from_seconds(seconds);
    let load = run_load(spec, &server, &pool, &plan, fixture::nproc());
    let (lo50, _) = latency_summary("lat_lo", &load.lo);
    let (hi50, _) = latency_summary("lat_hi", &load.hi);
    let sat_rps = load.sat.ok_per_second();
    println!(
        "info sat: ok_in_window={} window={:.3}s sat_rps={sat_rps:.1} failed={} slices={:?}",
        load.sat.ok_in_window,
        load.sat.window.as_secs_f64(),
        load.sat.failed,
        load.sat.ok_per_slice
    );
    for (phase, r) in [("lo", &load.lo), ("hi", &load.hi)] {
        let late = Samples::new(r.late_us.clone());
        println!(
            "info loadgen {phase}: late_p50={:.1}us late_p99={:.1}us late_max={:.1}us",
            late.median().unwrap_or(f64::NAN),
            late.quantile(0.99).unwrap_or(f64::NAN),
            late.quantile(1.0).unwrap_or(f64::NAN),
        );
    }
    println!(
        "info rounds [lat_lo_p50_us, lat_hi_p50_us, sat_rps]: {:.1?}",
        load.rounds
    );
    println!("info reply_digest={:016x}", load.lo.reply_digest());
    println!("info engine stats:\n{}", server.handle.stats_text());
    drop(model);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();

    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", setup_s);
    metrics.set("peak_rss_mb", fixture::peak_rss_mb());
    metrics.set("throughput_per_s", sat_rps);
    metrics.set("lat_lo_p50_us", lo50);
    metrics.set("lat_hi_p50_us", hi50);
    RunResult {
        correct,
        attempted: load.attempted(),
        failed: load.failed(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::PhasePlan;

    #[test]
    fn a_plan_spends_the_run_in_rounds_of_three_phases() {
        let plan = PhasePlan::from_seconds(20.0);
        assert_eq!(plan.rounds, 4);
        let round = 3 * plan.settle + plan.lo + plan.hi + plan.sat;
        let total = round.as_secs_f64() * plan.rounds as f64;
        assert!((total - 20.0).abs() < 1e-6, "{total}");
        // The steady low rate gets the smallest share.
        assert!(plan.lo < plan.hi && plan.hi == plan.sat);
        // A smoke run is one short round.
        let smoke = PhasePlan::from_seconds(3.75);
        assert_eq!(smoke.rounds, 1);
        assert!(smoke.hi.as_secs_f64() <= 1.5 && smoke.sat.as_secs_f64() <= 1.5);
    }
}
