//! Seeded input generation: the benchmark's own RNG, Zipf sampler, request
//! texts, fixed-rate schedules and delta streams. Everything here is a pure
//! function of its seed, so one `--seed` always yields the same bytes; the
//! product only ever sees those bytes.

use std::time::Duration;

/// SplitMix64: small, fast, and good enough for workload shaping. The
/// benchmark owns its RNG so a product-side RNG change cannot move inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// Zipf sampler over ranks `0..n` with `P(rank) ∝ (rank + 1)^-alpha`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty range");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-alpha);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// `n` ranks in exact proportion to the law (largest-remainder
    /// rounding), rank-ordered: the same multiset for every seed.
    pub fn quotas(&self, n: usize) -> Vec<usize> {
        let mass = |rank: usize| self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        let mut counts: Vec<usize> = (0..self.cdf.len())
            .map(|r| (mass(r) * n as f64).floor() as usize)
            .collect();
        let mut by_remainder: Vec<usize> = (0..self.cdf.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            let rem = |r: usize| mass(r) * n as f64 - counts[r] as f64;
            rem(b).partial_cmp(&rem(a)).expect("finite").then(a.cmp(&b))
        });
        let short = n - counts.iter().sum::<usize>();
        for &r in by_remainder.iter().take(short) {
            counts[r] += 1;
        }
        counts
            .iter()
            .enumerate()
            .flat_map(|(rank, &c)| std::iter::repeat_n(rank, c))
            .collect()
    }
}

/// Fisher–Yates shuffle on the benchmark's own RNG.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Shape of the generated `infer` requests of one workload.
pub struct RequestShape {
    /// Largest bag (sentences per request); sizes are Zipf over `1..=max`.
    pub max_sentences: usize,
    /// Zipf exponent of the bag-size law (1.45 puts half the mass on 1).
    pub bag_alpha: f64,
    /// Sentence length bounds in tokens, mentions included.
    pub min_tokens: usize,
    pub max_tokens: usize,
    /// Extra `key=value` arguments spliced before `text=` (e.g. the kNN
    /// switches); the texts themselves do not depend on it.
    pub extra_args: &'static str,
}

/// One generated request: its wire line and the parts the oracle needs.
#[derive(Clone)]
pub struct GenRequest {
    /// The arguments after the `infer ` verb (what `parse_infer` takes).
    pub args: String,
    /// Tokens over all sentences (for `serve.pipeline.tokens_per_req`).
    pub tokens: usize,
    pub sentences: usize,
}

impl GenRequest {
    /// The full request line as written to the socket.
    pub fn wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.args.len() + 7);
        out.extend_from_slice(b"infer ");
        out.extend_from_slice(self.args.as_bytes());
        out.push(b'\n');
        out
    }
}

/// Generates `n` requests against a vocabulary and entity table. Tokens and
/// entities are Zipf-sampled by table position, so the embedding gather
/// sees a realistic hot head and a cache-missing tail.
///
/// Bag sizes and sentence lengths are *stratified*: every seed draws the
/// same multiset (exact Zipf quotas of sizes, evenly spaced lengths) and
/// only shuffles which request gets which. A pool is then the same amount
/// of work whatever the seed — a heavy-tailed law sampled 1024 times moves
/// the mean request cost by ±3 %, which at 0.5 load is ±8 % of latency —
/// while texts, entities and positions still vary.
pub fn gen_requests(
    seed: u64,
    n: usize,
    shape: &RequestShape,
    words: &[&str],
    entities: &[&str],
) -> Vec<GenRequest> {
    let mut rng = Rng::new(seed);
    let word_law = Zipf::new(words.len(), 1.0);
    let entity_law = Zipf::new(entities.len(), 0.8);
    let mut sizes = Zipf::new(shape.max_sentences, shape.bag_alpha).quotas(n);
    shuffle(&mut sizes, &mut rng);
    let total: usize = sizes.iter().map(|rank| rank + 1).sum();
    let span = shape.max_tokens - shape.min_tokens + 1;
    let mut lengths: Vec<usize> = (0..total)
        .map(|j| shape.min_tokens + j * span / total)
        .collect();
    shuffle(&mut lengths, &mut rng);
    let mut lengths = lengths.into_iter();
    sizes
        .into_iter()
        .map(|rank| {
            let head = entities[entity_law.sample(&mut rng)];
            let mut tail = entities[entity_law.sample(&mut rng)];
            while tail == head {
                tail = entities[entity_law.sample(&mut rng)];
            }
            let sentences = rank + 1;
            let mut text = String::new();
            let mut tokens = 0;
            for s in 0..sentences {
                if s > 0 {
                    text.push_str(" | ");
                }
                let len = lengths.next().expect("one length per sentence");
                let head_at = rng.below(len);
                let mut tail_at = rng.below(len);
                while tail_at == head_at {
                    tail_at = rng.below(len);
                }
                for t in 0..len {
                    if t > 0 {
                        text.push(' ');
                    }
                    text.push_str(if t == head_at {
                        head
                    } else if t == tail_at {
                        tail
                    } else {
                        words[word_law.sample(&mut rng)]
                    });
                }
                tokens += len;
            }
            GenRequest {
                args: format!(
                    "model=default head={head} tail={tail} k=3 {}text={text}",
                    shape.extra_args
                ),
                tokens,
                sentences,
            }
        })
        .collect()
}

/// Due times of an open-loop phase: `bursts` ticks at a fixed interval,
/// each tick sending `burst` pipelined requests, so the offered rate is
/// `rate` requests per second. Offsets are from the phase start.
pub fn schedule(rate: f64, burst: usize, window: Duration) -> Vec<Duration> {
    let tick = burst as f64 / rate;
    let ticks = (window.as_secs_f64() / tick).floor() as usize;
    (0..ticks)
        .map(|i| Duration::from_secs_f64(i as f64 * tick))
        .collect()
}

/// Shape of a generated delta stream (the `imre-corpus` line format).
pub struct DeltaShape {
    pub batches: usize,
    pub events_per_batch: usize,
    /// Every `dup_every`-th event re-delivers its predecessor verbatim.
    pub dup_every: usize,
}

/// A seeded delta stream over `names` (base entities first) plus `cold`
/// never-seen names that must be admitted, generated one batch at a time so
/// a long run never holds the whole document. Mentions are drawn from
/// cluster-local windows, so the co-occurrence graph stays sparse like the
/// NYT-sim proximity graph (~10k edges) instead of filling in uniformly.
/// Every cold name is mentioned in the first batch with a type annotation.
pub struct DeltaGen {
    rng: Rng,
    names: Vec<String>,
    cold: Vec<String>,
    shape: DeltaShape,
    anchor_law: Zipf,
    batch: usize,
    ts: u64,
    prev: String,
}

impl DeltaGen {
    pub fn new(seed: u64, names: &[String], cold: &[String], shape: DeltaShape) -> Self {
        DeltaGen {
            rng: Rng::new(seed ^ 0x64_656c_7461),
            names: names.to_vec(),
            cold: cold.to_vec(),
            shape,
            anchor_law: Zipf::new(names.len(), 0.6),
            batch: 0,
            ts: 1_700_000_000,
            prev: String::new(),
        }
    }

    /// Appends the next batch (with its leading blank-line boundary) to
    /// `out`; `false` once `shape.batches` have been produced.
    pub fn next_batch_into(&mut self, out: &mut Vec<u8>) -> bool {
        if self.batch == self.shape.batches {
            return false;
        }
        out.extend_from_slice(if self.batch == 0 {
            b"# benchmark delta stream\n"
        } else {
            b"\n"
        });
        let mut cold_next = if self.batch == 0 { 0 } else { self.cold.len() };
        for e in 0..self.shape.events_per_batch {
            self.ts += 1;
            if e > 0 && e % self.shape.dup_every == 0 {
                out.extend_from_slice(self.prev.as_bytes());
                out.push(b'\n');
                continue;
            }
            let mentions = self.rng.range(2, 4);
            let anchor = self.anchor_law.sample(&mut self.rng);
            let mut line = self.ts.to_string();
            let mut used: Vec<usize> = Vec::with_capacity(mentions);
            while used.len() < mentions {
                // Neighbours within ±6 table slots of the anchor: entities
                // of one NYT-sim cluster sit next to each other.
                let idx = (anchor + self.rng.below(13))
                    .saturating_sub(6)
                    .min(self.names.len() - 1);
                if !used.contains(&idx) {
                    used.push(idx);
                    line.push('\t');
                    line.push_str(&self.names[idx]);
                }
            }
            if let Some(name) = self.cold.get(cold_next) {
                line.push_str(&format!("\t{name}:{}", cold_next % 38));
                cold_next += 1;
            }
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
            self.prev = line;
        }
        self.batch += 1;
        true
    }
}

/// The generator as a buffered byte stream — what the product's
/// `LineDeltaSource` reads — refilled one batch at a time.
pub struct DeltaReader {
    gen: DeltaGen,
    buf: Vec<u8>,
    pos: usize,
}

impl DeltaReader {
    pub fn new(gen: DeltaGen) -> Self {
        DeltaReader {
            gen,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl std::io::BufRead for DeltaReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            self.gen.next_batch_into(&mut self.buf);
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

impl std::io::Read for DeltaReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let available = std::io::BufRead::fill_buf(self)?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        std::io::BufRead::consume(self, n);
        Ok(n)
    }
}

/// The whole delta document at once.
pub fn gen_deltas(seed: u64, names: &[String], cold: &[String], shape: DeltaShape) -> Vec<u8> {
    let mut gen = DeltaGen::new(seed, names, cold, shape);
    let mut out = Vec::new();
    while gen.next_batch_into(&mut out) {}
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> RequestShape {
        RequestShape {
            max_sentences: 8,
            bag_alpha: 1.45,
            min_tokens: 10,
            max_tokens: 120,
            extra_args: "",
        }
    }

    #[test]
    fn same_seed_gives_same_request_bytes() {
        let words = ["a", "b", "c", "d", "e"];
        let ents = ["E1", "E2", "E3"];
        let a = gen_requests(7, 50, &shape(), &words, &ents);
        let b = gen_requests(7, 50, &shape(), &words, &ents);
        let c = gen_requests(8, 50, &shape(), &words, &ents);
        let bytes = |v: &[GenRequest]| v.iter().flat_map(|r| r.wire()).collect::<Vec<u8>>();
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
    }

    #[test]
    fn extra_args_leave_texts_untouched() {
        let words = ["a", "b", "c"];
        let ents = ["E1", "E2"];
        let plain = gen_requests(3, 20, &shape(), &words, &ents);
        let knn = gen_requests(
            3,
            20,
            &RequestShape {
                extra_args: "knn=16 lambda=0.3 ",
                ..shape()
            },
            &words,
            &ents,
        );
        for (p, k) in plain.iter().zip(&knn) {
            let text = |r: &GenRequest| r.args.split_once("text=").unwrap().1.to_string();
            assert_eq!(text(p), text(k));
            assert!(k.args.contains("knn=16 lambda=0.3 text="));
        }
    }

    #[test]
    fn requests_respect_shape_and_mention_both_entities() {
        let words = ["w1", "w2", "w3", "w4"];
        let ents = ["Head_A", "Tail_B", "Other_C"];
        let reqs = gen_requests(11, 200, &shape(), &words, &ents);
        let single = reqs.iter().filter(|r| r.sentences == 1).count();
        assert!(
            (95..=105).contains(&single),
            "half single-sentence: {single}"
        );
        for r in &reqs {
            assert!((1..=8).contains(&r.sentences));
            let head = r
                .args
                .split("head=")
                .nth(1)
                .unwrap()
                .split(' ')
                .next()
                .unwrap();
            let tail = r
                .args
                .split("tail=")
                .nth(1)
                .unwrap()
                .split(' ')
                .next()
                .unwrap();
            let text = r.args.split_once("text=").unwrap().1;
            for sentence in text.split('|') {
                let toks: Vec<&str> = sentence.split_whitespace().collect();
                assert!((10..=120).contains(&toks.len()));
                assert!(toks.contains(&head) && toks.contains(&tail));
            }
        }
    }

    #[test]
    fn every_seed_draws_the_same_amount_of_work() {
        let words = ["w1", "w2", "w3", "w4"];
        let ents = ["Head_A", "Tail_B", "Other_C"];
        let profile = |seed| {
            let reqs = gen_requests(seed, 300, &shape(), &words, &ents);
            let mut sizes: Vec<usize> = reqs.iter().map(|r| r.sentences).collect();
            sizes.sort_unstable();
            (sizes, reqs.iter().map(|r| r.tokens).sum::<usize>())
        };
        assert_eq!(profile(1), profile(2));
        assert_eq!(profile(1), profile(99));
        let (sizes, tokens) = profile(1);
        assert_eq!(*sizes.last().unwrap(), 8, "the long tail is present");
        let sentences: usize = sizes.iter().sum();
        assert!(
            (64..=66).contains(&(tokens / sentences)),
            "mean length is mid-range"
        );
    }

    #[test]
    fn quotas_follow_the_law_exactly() {
        let q = Zipf::new(4, 1.0).quotas(25); // masses 12, 6, 4, 3 of 25
        assert_eq!(q.len(), 25);
        let count = |rank| q.iter().filter(|&&r| r == rank).count();
        assert_eq!([count(0), count(1), count(2), count(3)], [12, 6, 4, 3]);
    }

    #[test]
    fn schedule_is_fixed_rate() {
        let due = schedule(1000.0, 4, Duration::from_secs(1));
        assert_eq!(due.len(), 250);
        assert_eq!(due[0], Duration::ZERO);
        assert!((due[1].as_secs_f64() - 0.004).abs() < 1e-9);
        assert!(due.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn deltas_are_seed_stable_and_carry_duplicates_and_cold_names() {
        let names: Vec<String> = (0..60).map(|i| format!("ent{i}")).collect();
        let cold = vec!["cold0".to_string(), "cold1".to_string()];
        let shape = || DeltaShape {
            batches: 3,
            events_per_batch: 14,
            dup_every: 7,
        };
        let a = gen_deltas(5, &names, &cold, shape());
        assert_eq!(a, gen_deltas(5, &names, &cold, shape()));
        assert_ne!(a, gen_deltas(6, &names, &cold, shape()));
        // Streamed through `Read`, the bytes are the same document.
        let mut streamed = Vec::new();
        std::io::Read::read_to_end(
            &mut DeltaReader::new(DeltaGen::new(5, &names, &cold, shape())),
            &mut streamed,
        )
        .unwrap();
        assert_eq!(a, streamed);
        let text = String::from_utf8(a).unwrap();
        assert!(text.contains("cold0:0") && text.contains("cold1:1"));
        let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(lines.iter().filter(|l| l.is_empty()).count(), 2);
        let data: Vec<&str> = lines.into_iter().filter(|l| !l.is_empty()).collect();
        assert_eq!(data.len(), 42);
        assert_eq!(
            data[7], data[6],
            "every 7th event re-delivers its predecessor"
        );
    }
}
