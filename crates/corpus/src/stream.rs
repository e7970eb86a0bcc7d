//! Streaming sentence ingestion: timestamped batches of entity mentions.
//!
//! The offline pipeline freezes a corpus, counts co-occurrences once, and
//! builds the proximity graph in one shot. Production corpora instead arrive
//! as an append-only stream of sentences; this module defines the wire
//! format and the parsing/dedup layer that turns it into delta batches the
//! incremental graph in `imre-stream` can fold in.
//!
//! ## Delta line format
//!
//! One sentence observation per line, tab-separated:
//!
//! ```text
//! <timestamp> \t <entity>[:<type>,<type>...] \t <entity>[...] ...
//! ```
//!
//! * `timestamp` — a non-negative integer (e.g. unix seconds); informational
//!   ordering metadata, carried through to dedup fingerprints.
//! * `entity` — the surface name, exactly as it appears in a bundle's entity
//!   table. An optional `:`-suffixed comma list of coarse type ids (FIGER
//!   indices, see [`crate::types`]) accompanies first sight of a new entity;
//!   entities without one default to type `0` when admitted.
//! * Lines starting with `#` are comments; a **blank line is a batch
//!   boundary**. Batch boundaries carry no semantic weight — they only
//!   decide how much work is folded in per update tick, and the incremental
//!   build is pinned (by proptest) to be invariant to them.
//!
//! ## Batching-stable dedup
//!
//! Re-delivered sentences (at-least-once sources, replayed fifos) must not
//! inflate co-occurrence counts, and — the subtle part — deduplication must
//! not depend on how the stream was cut into batches. [`StableDedup`]
//! therefore keeps a fingerprint set used **only for membership tests**
//! (never iterated, so no hash-order leak — the same bug class as the PR 2
//! HashMap edge-ordering fix) and always emits survivors in arrival order.
//! Any batching of the same event sequence yields the same surviving
//! sequence, so streamed and offline corpora featurize identically.

use imre_tensor::bytes::Fnv1a;
use imre_tensor::mix64;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{self, BufRead};

/// One entity mention inside a sentence event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityMention {
    /// Surface name, matching the bundle entity table.
    pub name: String,
    /// Coarse type ids accompanying the mention (may be empty; new entities
    /// default to type `0` on admission).
    pub types: Vec<usize>,
}

/// One timestamped sentence observation: the entities mentioned together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentenceEvent {
    /// Source timestamp (informational; part of the dedup fingerprint).
    pub ts: u64,
    /// Entities co-occurring in the sentence, in mention order.
    pub entities: Vec<EntityMention>,
}

/// A batch of sentence events delimited by a blank line in the stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    /// Events in arrival order.
    pub events: Vec<SentenceEvent>,
}

/// Typed errors for malformed delta input.
#[derive(Debug)]
pub enum StreamError {
    /// Underlying reader failure.
    Io(io::Error),
    /// The first field did not parse as a non-negative integer timestamp.
    MalformedTimestamp {
        /// 1-based line number in the stream.
        line: u64,
        /// The offending field.
        text: String,
    },
    /// A `:`-suffixed type list contained a non-integer.
    MalformedType {
        /// 1-based line number in the stream.
        line: u64,
        /// The offending field.
        text: String,
    },
    /// An entity field was empty (e.g. consecutive tabs).
    EmptyEntityName {
        /// 1-based line number in the stream.
        line: u64,
    },
    /// A data line carried a timestamp but no entities.
    NoEntities {
        /// 1-based line number in the stream.
        line: u64,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream io error: {e}"),
            StreamError::MalformedTimestamp { line, text } => {
                write!(f, "line {line}: malformed timestamp {text:?}")
            }
            StreamError::MalformedType { line, text } => {
                write!(f, "line {line}: malformed type list {text:?}")
            }
            StreamError::EmptyEntityName { line } => {
                write!(f, "line {line}: empty entity name")
            }
            StreamError::NoEntities { line } => {
                write!(f, "line {line}: sentence event with no entities")
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

/// A source of timestamped sentence batches.
///
/// Implementations block until a batch is available (a fifo that nobody has
/// written to yet simply stalls the updater thread) and return `Ok(None)`
/// at end of stream.
pub trait StreamSource {
    /// The next delta batch, or `Ok(None)` when the stream is exhausted.
    fn next_batch(&mut self) -> Result<Option<DeltaBatch>, StreamError>;
}

/// [`StreamSource`] over the line-oriented delta format, reading from any
/// [`BufRead`] — a file, a fifo, or an in-memory cursor in tests.
pub struct LineDeltaSource<R: BufRead> {
    reader: R,
    line_no: u64,
    done: bool,
}

impl<R: BufRead> LineDeltaSource<R> {
    /// Wraps a reader positioned at the start of a delta stream.
    pub fn new(reader: R) -> Self {
        LineDeltaSource {
            reader,
            line_no: 0,
            done: false,
        }
    }
}

impl LineDeltaSource<io::BufReader<std::fs::File>> {
    /// Opens a delta file (or fifo) for streaming.
    pub fn open(path: &std::path::Path) -> io::Result<Self> {
        Ok(Self::new(io::BufReader::new(std::fs::File::open(path)?)))
    }
}

impl<R: BufRead> StreamSource for LineDeltaSource<R> {
    fn next_batch(&mut self) -> Result<Option<DeltaBatch>, StreamError> {
        if self.done {
            return Ok(None);
        }
        let mut batch = DeltaBatch::default();
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                self.done = true;
                break;
            }
            self.line_no += 1;
            let trimmed = line.trim_end_matches(['\n', '\r']);
            if trimmed.starts_with('#') {
                continue;
            }
            if trimmed.trim().is_empty() {
                if batch.events.is_empty() {
                    continue; // consecutive boundaries delimit nothing
                }
                break;
            }
            batch.events.push(parse_event(trimmed, self.line_no)?);
        }
        if batch.events.is_empty() {
            Ok(None)
        } else {
            Ok(Some(batch))
        }
    }
}

/// Parses one data line (`ts \t ent[:types] \t ...`).
fn parse_event(line: &str, line_no: u64) -> Result<SentenceEvent, StreamError> {
    let mut fields = line.split('\t');
    let ts_field = fields.next().unwrap_or("").trim();
    let ts = ts_field
        .parse::<u64>()
        .map_err(|_| StreamError::MalformedTimestamp {
            line: line_no,
            text: ts_field.to_string(),
        })?;
    let mut entities = Vec::new();
    for field in fields {
        let field = field.trim();
        if field.is_empty() {
            return Err(StreamError::EmptyEntityName { line: line_no });
        }
        let (name, types) = match field.split_once(':') {
            Some((name, list)) => {
                let mut types = Vec::new();
                for t in list.split(',') {
                    let t = t.trim();
                    types.push(t.parse::<usize>().map_err(|_| StreamError::MalformedType {
                        line: line_no,
                        text: field.to_string(),
                    })?);
                }
                (name, types)
            }
            None => (field, Vec::new()),
        };
        if name.is_empty() {
            return Err(StreamError::EmptyEntityName { line: line_no });
        }
        entities.push(EntityMention {
            name: name.to_string(),
            types,
        });
    }
    if entities.is_empty() {
        return Err(StreamError::NoEntities { line: line_no });
    }
    Ok(SentenceEvent { ts, entities })
}

/// Batching-stable sentence deduplication.
///
/// Membership is a 64-bit FNV-1a fingerprint over the event's canonical
/// serialization; the set is never iterated, and survivors always come out
/// in arrival order, so the surviving sequence is a pure function of the
/// event sequence — independent of batch boundaries and of `HashSet`
/// iteration order.
#[derive(Debug, Default)]
pub struct StableDedup {
    seen: HashSet<u64>,
}

impl StableDedup {
    /// An empty dedup window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct events seen.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether no event has been seen yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Records an event; returns `true` if it was fresh (first delivery).
    pub fn insert(&mut self, event: &SentenceEvent) -> bool {
        self.seen.insert(fingerprint(event))
    }

    /// Filters a batch down to first-delivery events, preserving arrival
    /// order.
    pub fn retain_fresh(&mut self, batch: DeltaBatch) -> Vec<SentenceEvent> {
        batch
            .events
            .into_iter()
            .filter(|ev| self.insert(ev))
            .collect()
    }
}

/// FNV-1a 64 over the canonical event serialization (`ts`, then each
/// mention's name and type list, all length-prefixed by separators that
/// cannot appear in the fields).
fn fingerprint(event: &SentenceEvent) -> u64 {
    let mut h = Fnv1a::default();
    h.write(&event.ts.to_le_bytes());
    for m in &event.entities {
        h.write(&[0x09]).write(m.name.as_bytes()); // field separator
        for &t in &m.types {
            h.write(&[0x3a]).write(&(t as u64).to_le_bytes()); // type separator
        }
    }
    h.finish()
}

/// Deterministic synthetic delta stream for tests, benches, and CI.
///
/// Generates `batches × events_per_batch` sentence events over `names`
/// (2–4 mentions each, SplitMix64-derived from `seed`), with every seventh
/// event an exact duplicate of its predecessor to exercise dedup. Each new
/// entity's first mention carries a type annotation. Output is a complete
/// delta document with blank-line batch boundaries.
pub fn synth_delta_text(
    names: &[String],
    batches: usize,
    events_per_batch: usize,
    seed: u64,
) -> String {
    let mut out = String::new();
    out.push_str("# synthetic delta stream\n");
    let mut introduced: HashMap<usize, bool> = HashMap::new();
    let mut ts = 1_700_000_000u64;
    let mut prev_line: Option<String> = None;
    let mut draw = 0u64;
    for b in 0..batches {
        if b > 0 {
            out.push('\n');
        }
        for e in 0..events_per_batch {
            ts += 1;
            if e > 0 && e % 7 == 0 {
                if let Some(prev) = &prev_line {
                    out.push_str(prev);
                    out.push('\n');
                    continue;
                }
            }
            let k = (2 + (mix64(seed ^ draw) % 3) as usize).min(names.len());
            draw += 1;
            let mut line = ts.to_string();
            let mut used = Vec::new();
            while used.len() < k {
                let idx = (mix64(seed ^ 0x746f_6b65_6e73 ^ draw) % names.len() as u64) as usize;
                draw += 1;
                if used.contains(&idx) {
                    continue;
                }
                used.push(idx);
                line.push('\t');
                line.push_str(&names[idx]);
                if !introduced.get(&idx).copied().unwrap_or(false) {
                    introduced.insert(idx, true);
                    line.push_str(&format!(":{}", idx % crate::types::NUM_COARSE_TYPES));
                }
            }
            out.push_str(&line);
            out.push('\n');
            prev_line = Some(line);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unlabeled::CoOccurrence;
    use std::io::Cursor;

    fn source(text: &str) -> LineDeltaSource<Cursor<&[u8]>> {
        LineDeltaSource::new(Cursor::new(text.as_bytes()))
    }

    fn drain(text: &str) -> Vec<DeltaBatch> {
        let mut src = source(text);
        let mut out = Vec::new();
        while let Some(b) = src.next_batch().unwrap() {
            out.push(b);
        }
        out
    }

    #[test]
    fn parses_batches_comments_and_types() {
        let text = "# header\n10\ta:1,3\tb\n11\tb\tc:2\n\n12\ta\tc\n";
        let batches = drain(text);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].events.len(), 2);
        assert_eq!(batches[1].events.len(), 1);
        let first = &batches[0].events[0];
        assert_eq!(first.ts, 10);
        assert_eq!(first.entities[0].name, "a");
        assert_eq!(first.entities[0].types, vec![1, 3]);
        assert_eq!(first.entities[1].types, Vec::<usize>::new());
    }

    #[test]
    fn consecutive_boundaries_and_trailing_blank_are_harmless() {
        let text = "\n\n10\ta\tb\n\n\n\n11\tb\tc\n\n";
        let batches = drain(text);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].events.len(), 1);
        assert_eq!(batches[1].events.len(), 1);
    }

    #[test]
    fn malformed_lines_yield_typed_errors() {
        let mut s = source("xyz\ta\tb\n");
        assert!(matches!(
            s.next_batch(),
            Err(StreamError::MalformedTimestamp { line: 1, .. })
        ));
        let mut s = source("10\ta:one\n");
        assert!(matches!(
            s.next_batch(),
            Err(StreamError::MalformedType { line: 1, .. })
        ));
        let mut s = source("10\t\tb\n");
        assert!(matches!(
            s.next_batch(),
            Err(StreamError::EmptyEntityName { line: 1 })
        ));
        let mut s = source("10\n");
        assert!(matches!(
            s.next_batch(),
            Err(StreamError::NoEntities { line: 1 })
        ));
    }

    #[test]
    fn dedup_is_invariant_to_batching() {
        let names: Vec<String> = (0..6).map(|i| format!("e{i}")).collect();
        let text = synth_delta_text(&names, 3, 12, 9);
        // one big batch vs the authored 3-batch split
        let merged = text.replace("\n\n", "\n");
        let events_of = |t: &str| {
            let mut dedup = StableDedup::new();
            drain(t)
                .into_iter()
                .flat_map(|b| dedup.retain_fresh(b))
                .collect::<Vec<_>>()
        };
        let a = events_of(&text);
        let b = events_of(&merged);
        assert_eq!(a, b);
        // the generator plants duplicates, so dedup must have dropped some
        assert!(
            a.len() < 3 * 12,
            "expected planted duplicates to be dropped"
        );
    }

    #[test]
    fn dedup_drops_redelivered_events_across_batches() {
        let text = "10\ta\tb\n\n10\ta\tb\n11\tb\tc\n";
        let mut dedup = StableDedup::new();
        let batches = drain(text);
        let first = dedup.retain_fresh(batches[0].clone());
        let second = dedup.retain_fresh(batches[1].clone());
        assert_eq!(first.len(), 1);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].ts, 11);
    }

    #[test]
    fn fingerprint_distinguishes_types_and_timestamps() {
        let base = SentenceEvent {
            ts: 5,
            entities: vec![EntityMention {
                name: "a".into(),
                types: vec![1],
            }],
        };
        let mut other_ts = base.clone();
        other_ts.ts = 6;
        let mut other_types = base.clone();
        other_types.entities[0].types = vec![2];
        assert_ne!(fingerprint(&base), fingerprint(&other_ts));
        assert_ne!(fingerprint(&base), fingerprint(&other_types));
        assert_eq!(fingerprint(&base), fingerprint(&base.clone()));
    }

    #[test]
    fn merge_cooccurrence_sums_pairwise() {
        let mut a = CoOccurrence::new();
        a.add(0, 1, 2);
        a.add(1, 2, 1);
        let mut b = CoOccurrence::new();
        b.add(1, 0, 3);
        b.add(2, 3, 4);
        a.merge(&b);
        assert_eq!(a.count(0, 1), 5);
        assert_eq!(a.count(1, 2), 1);
        assert_eq!(a.count(2, 3), 4);
    }

    #[test]
    fn synth_stream_is_deterministic_and_parseable() {
        let names: Vec<String> = (0..5).map(|i| format!("n{i}")).collect();
        let a = synth_delta_text(&names, 3, 8, 42);
        let b = synth_delta_text(&names, 3, 8, 42);
        assert_eq!(a, b);
        let batches = drain(&a);
        assert_eq!(batches.len(), 3);
        for batch in &batches {
            assert_eq!(batch.events.len(), 8);
            for ev in &batch.events {
                assert!(ev.entities.len() >= 2);
            }
        }
    }
}
