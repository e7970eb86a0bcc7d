//! The metric registry (the single list `BENCHMARK.json` mirrors) and the
//! result line every run ends with.

/// A metric's declaration: name, unit, direction and — for end-to-end
/// metrics — the regression bound committed in `BENCHMARK.json`.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. Every workload reports every one of
/// these (the run contract); README.md maps each slot to its meaning per
/// workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("throughput_per_s", "1/s", "higher"),
    m("lat_lo_p50_us", "us", "lower"),
    m("lat_hi_p50_us", "us", "lower"),
];

/// Single-layer numbers from the `--trace 1` run, timed from outside around
/// public calls. A layer a workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // The latency tails, demoted from the gated set: their run-to-run
    // spread on the reference box (0.13–0.57) is wider than any bound worth
    // committing. Taken in the traced run's untraced load phases.
    m("e2e.lat_lo_p99_us", "us", "lower"),
    m("e2e.lat_hi_p99_us", "us", "lower"),
    m("serve.frontend.overhead_ns", "ns", "lower"),
    m("serve.frontend.bytes_in_per_req", "B", "lower"),
    m("serve.frontend.bytes_out_per_req", "B", "lower"),
    m("serve.frontend.rejected", "count", "lower"),
    m("serve.protocol.parse_ns", "ns", "lower"),
    m("serve.protocol.format_ns", "ns", "lower"),
    m("serve.engine.handoff_ns", "ns", "lower"),
    m("serve.engine.queue_wait_mean_us", "us", "lower"),
    m("serve.engine.batch_size_mean", "count", "higher"),
    m("serve.engine.shed", "count", "lower"),
    m("serve.engine.deadline_expired", "count", "lower"),
    m("serve.pipeline.featurize_ns", "ns", "lower"),
    m("serve.pipeline.rank_ns", "ns", "lower"),
    m("serve.pipeline.tokens_per_req", "count", "lower"),
    m("core.forward_ns_per_bag", "ns", "lower"),
    m("core.forward_ns_per_sentence", "ns", "lower"),
    m("core.forward_share", "ratio", "lower"),
    m("core.quant.forward_ns_per_bag", "ns", "lower"),
    m("core.train.bag_fwd_bwd_ns", "ns", "lower"),
    m("nn.sgd_step_ns", "ns", "lower"),
    m("nn.arena_hit_rate", "ratio", "higher"),
    m("tensor.conv_gemm_gflops", "Gflop/s", "higher"),
    m("tensor.gather_ns_per_token", "ns", "lower"),
    m("tensor.qmatvec_gops", "Gop/s", "higher"),
    m("tensor.softmax_rows_ns", "ns", "lower"),
    m("ann.search_ns", "ns", "lower"),
    m("ann.recall_at_16", "ratio", "higher"),
    m("ann.index_bytes", "B", "lower"),
    m("ann.build_ms", "ms", "lower"),
    m("serve.bundle.save_ms", "ms", "lower"),
    m("serve.bundle.load_ms", "ms", "lower"),
    m("serve.bundle.mmap_load_ms", "ms", "lower"),
    m("serve.bundle.bytes", "B", "lower"),
    m("serve.registry.swap_ns", "ns", "lower"),
    m("corpus.stream.parse_ns_per_event", "ns", "lower"),
    m("stream.apply_batch_ns", "ns", "lower"),
    m("stream.refresh_ms", "ms", "lower"),
    m("stream.dup_share", "ratio", "lower"),
    m("stream.admitted", "count", "higher"),
    m("graph.train_line_ms", "ms", "lower"),
    m("graph.from_counts_ms", "ms", "lower"),
    m("dist.allreduce_ns", "ns", "lower"),
    m("loadgen.late_p99_us", "us", "lower"),
    m("loadgen.sent", "count", "higher"),
    m("loadgen.trace_overhead_share", "ratio", "lower"),
    m("trace.unattributed_share", "ratio", "lower"),
];

pub const WORKLOADS: &[&str] = &[
    "paper_f32",
    "tiny_pipelined",
    "paper_int8_knn",
    "train_paper",
    "stream_publish",
];

/// The values of one run, keyed by registry name. Starts with every name of
/// its table at 0, so an unexercised layer is still reported.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Sets a metric. Panics on a name the registry does not declare — a
    /// typo must not silently create an unreported metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the registry"));
        self.values[i] = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }

    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

/// One run's outcome: the object printed as the last line of stdout.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {name:
    /// {"value": …, "unit": …}}}` on one line. A non-finite value is written
    /// as 0 and turns `correct` false: the line must stay valid JSON.
    pub fn to_json(&self) -> String {
        let correct = self.correct && self.failed == 0 && self.metrics.all_finite();
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (def, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { value } else { 0.0 };
            // `{value:?}` is Rust's shortest round-trip form: every digit
            // measured, and always a valid JSON number for finite input.
            out.push_str(&format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Reads `name → value` back out of a result line (the A/A mode parses its
/// children's output). Only understands what `to_json` writes.
pub fn parse_result_metrics(line: &str) -> Option<Vec<(String, f64)>> {
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((_, after_quote)) = rest.split_once('"') {
        let (name, after_name) = after_quote.split_once('"')?;
        let after_value = after_name.strip_prefix(": {\"value\": ")?;
        let (number, tail) = after_value.split_once(',')?;
        out.push((name.to_string(), number.trim().parse().ok()?));
        rest = tail.split_once('}')?.1;
        if rest.starts_with('}') {
            break;
        }
    }
    Some(out)
}

/// Whether a result line reports a correct run.
pub fn parse_result_correct(line: &str) -> bool {
    line.starts_with("{\"correct\": true,")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's name grammar.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_workload_and_metric_name_fits_the_grammar_and_is_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
        {
            assert!(valid_name(name), "{name:?}");
            assert!(seen.insert(name), "{name:?} used twice");
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.unit.len() <= 16 && !d.unit.is_empty(), "{}", d.unit);
            assert!(d.unit.bytes().all(
                |b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
            ));
            assert!(matches!(d.better, "lower" | "higher"));
        }
        assert!(!valid_name("has space") && !valid_name("") && !valid_name(".dot"));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_line_round_trips_and_keeps_all_digits() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("setup_s", 0.812_734_561_2);
        metrics.set("lat_lo_p50_us", 2280.0);
        let line = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
        }
        .to_json();
        assert!(!line.contains('\n'));
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127345612, \"unit\": \"s\"}"));
        assert!(line.contains("\"lat_lo_p50_us\": {\"value\": 2280.0, \"unit\": \"us\"}"));
        assert!(line.ends_with("}}"));
        let parsed = parse_result_metrics(&line).unwrap();
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed[0], ("setup_s".to_string(), 0.812_734_561_2));
        assert_eq!(parsed[3], ("lat_lo_p50_us".to_string(), 2280.0));
        assert_eq!(parsed[4].0, "lat_hi_p50_us");
        assert!(parse_result_correct(&line));
    }

    #[test]
    fn failures_and_non_finite_values_make_the_run_incorrect() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("peak_rss_mb", f64::NAN);
        let line = RunResult {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics,
        }
        .to_json();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1,"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0.0,"));
        let failed = RunResult {
            correct: true,
            attempted: 10,
            failed: 1,
            metrics: Metrics::new(END_TO_END),
        };
        assert!(!parse_result_correct(&failed.to_json()));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unknown_metric_names_are_rejected() {
        Metrics::new(PER_LAYER).set("serve.frontend.typo", 1.0);
    }

    /// `BENCHMARK.json` (one directory up) must list exactly the registry.
    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let open = start + text[start..].find('[').unwrap();
            let close = open + text[open..].find(']').unwrap();
            text[open..close].to_string()
        };
        let names = |s: &str| -> Vec<String> {
            s.split("\"name\":")
                .skip(1)
                .map(|part| part.split('"').nth(1).unwrap().to_string())
                .collect()
        };
        let registry =
            |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&section("end_to_end")), registry(END_TO_END));
        assert_eq!(names(&section("per_layer")), registry(PER_LAYER));
        assert_eq!(
            names(&section("workloads")),
            WORKLOADS.iter().map(|w| w.to_string()).collect::<Vec<_>>()
        );
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
