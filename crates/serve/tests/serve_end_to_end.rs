//! End-to-end serving tests: train a real `smoke` model, freeze it into a
//! bundle, load it through the registry, and drive the engine the way a
//! deployment would — concurrent submissions, backpressure, and graceful
//! shutdown.

use imre_core::{HyperParams, ModelSpec};
use imre_eval::{smoke_config, Pipeline};
use imre_graph::EntityEmbedding;
use imre_serve::{
    read_bundle, write_bundle, Bundle, EngineConfig, InferRequest, Registry, ServeError,
    ServeHandle, ServingModel,
};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

/// Serialized bundle bytes plus the entity names available for requests.
/// Trained once; every test deserializes its own copy (which also re-runs
/// the round-trip machinery under concurrency).
struct Fixture {
    bundle_bytes: Vec<u8>,
    entity_names: Vec<String>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let hp = HyperParams {
            epochs: 2,
            ..HyperParams::tiny()
        };
        let pipeline = Pipeline::build(&smoke_config(5), hp);
        let model = pipeline.train_system(ModelSpec::pa_tmr(), 11);
        let embedding = EntityEmbedding::from_matrix(pipeline.embedding.matrix().clone());
        let bundle = Bundle::new(
            model,
            pipeline.dataset.vocab.clone(),
            &pipeline.dataset.world,
            Some(embedding),
        );
        let mut bundle_bytes = Vec::new();
        write_bundle(&bundle, &mut bundle_bytes).expect("serialize bundle");
        let entity_names = bundle
            .entities
            .iter()
            .map(|(name, _)| name.clone())
            .collect();
        Fixture {
            bundle_bytes,
            entity_names,
        }
    })
}

fn load_model() -> ServingModel {
    let bundle = read_bundle(&mut fixture().bundle_bytes.as_slice()).expect("bundle deserializes");
    ServingModel::new(bundle).expect("bundle validates")
}

/// A deterministic request for index `i`, cycling over known entity pairs.
fn request(i: usize) -> InferRequest {
    let names = &fixture().entity_names;
    let head = names[i % names.len()].clone();
    let mut tail_ix = (i * 7 + 3) % names.len();
    if tail_ix == i % names.len() {
        tail_ix = (tail_ix + 1) % names.len();
    }
    let tail = names[tail_ix].clone();
    let text = if i.is_multiple_of(3) {
        format!(
            "{head} was reported near {tail} last year | sources link {head} directly to {tail}"
        )
    } else {
        format!("records show {head} associated with {tail} in the region")
    };
    InferRequest {
        model: "smoke".to_string(),
        head,
        tail,
        text,
        top_k: 0,
        deadline_ms: None,
        ..InferRequest::default()
    }
}

fn start_engine(config: EngineConfig) -> ServeHandle {
    let registry = Arc::new(Registry::new());
    registry.insert("smoke", load_model());
    ServeHandle::start(registry, config)
}

#[test]
fn bundle_roundtrip_preserves_ranked_predictions() {
    let a = load_model();
    let b = load_model();
    for i in 0..8 {
        let req = request(i);
        let ra = a.infer(&req).expect("infer a");
        let rb = b.infer(&req).expect("infer b");
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.relation, y.relation, "request {i}");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "request {i}: scores must be bit-identical"
            );
        }
        assert_eq!(ra.len(), a.num_relations());
    }
}

#[test]
fn corrupted_bundle_header_is_rejected() {
    let bytes = &fixture().bundle_bytes;
    // Flip the magic.
    let mut bad = bytes.clone();
    bad[0] = b'X';
    assert!(
        read_bundle(&mut bad.as_slice()).is_err(),
        "bad magic must be rejected"
    );
    // Unsupported version.
    let mut bad = bytes.clone();
    bad[4] = 0xFF;
    assert!(
        read_bundle(&mut bad.as_slice()).is_err(),
        "bad version must be rejected"
    );
    // Truncation anywhere in the stream.
    let truncated = &bytes[..bytes.len() / 2];
    assert!(
        read_bundle(&mut &truncated[..]).is_err(),
        "truncated bundle must be rejected"
    );
}

#[test]
fn engine_serves_64_concurrent_requests_with_correct_rankings() {
    let reference = load_model();
    let handle = start_engine(EngineConfig {
        workers: 2,
        queue_capacity: 256,
        default_deadline_ms: None,
        ..EngineConfig::default()
    });

    const N: usize = 64;
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let handle = handle.clone();
                scope.spawn(move || handle.infer(request(i)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("request thread"))
            .collect()
    });

    let mut forward_us_total = 0;
    for (i, resp) in responses.into_iter().enumerate() {
        let resp = resp.unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        forward_us_total += resp.forward_us;
        let expected = reference.infer(&request(i)).expect("reference infer");
        assert_eq!(resp.ranked.len(), expected.len(), "request {i}");
        for (got, want) in resp.ranked.iter().zip(&expected) {
            assert_eq!(got.relation, want.relation, "request {i}");
            assert_eq!(got.score.to_bits(), want.score.to_bits(), "request {i}");
        }
    }

    let metrics = handle.metrics();
    assert_eq!(metrics.completed.load(Ordering::Relaxed), N as u64);
    assert_eq!(metrics.errors.load(Ordering::Relaxed), 0);
    let stats = handle.stats_text();
    for stage in ["queue_wait", "featurize", "forward"] {
        assert!(
            stats.contains(stage),
            "stats dump missing {stage} histogram:\n{stats}"
        );
    }
    assert!(metrics.queue_wait.count() >= N as u64);
    // Each reply carries its own measured forward time, and that same value
    // is what the histogram recorded.
    let forward = metrics.forward.snapshot();
    assert_eq!(forward.count, N as u64);
    assert_eq!(forward.sum_us, forward_us_total);
    handle.shutdown();
}

#[test]
fn full_queue_returns_typed_rejection() {
    // No workers: nothing drains the queue, so the capacity bound is exact.
    let handle = start_engine(EngineConfig {
        workers: 0,
        queue_capacity: 2,
        default_deadline_ms: None,
        ..EngineConfig::default()
    });
    let _p0 = handle.submit(request(0)).expect("first fits");
    let _p1 = handle.submit(request(1)).expect("second fits");
    match handle.submit(request(2)) {
        Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 2),
        Err(other) => panic!("expected QueueFull, got {other:?}"),
        Ok(_) => panic!("expected QueueFull, got an accepted request"),
    }
    assert_eq!(handle.metrics().rejected_full.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

#[test]
fn shutdown_drains_all_queued_requests() {
    let handle = start_engine(EngineConfig {
        workers: 1,
        queue_capacity: 64,
        default_deadline_ms: None,
        ..EngineConfig::default()
    });
    let pending: Vec<_> = (0..24)
        .map(|i| handle.submit(request(i)).expect("submit"))
        .collect();
    handle.shutdown();
    for (i, p) in pending.into_iter().enumerate() {
        let resp = p
            .wait()
            .unwrap_or_else(|e| panic!("queued request {i} dropped during shutdown: {e}"));
        assert!(!resp.ranked.is_empty());
    }
    assert_eq!(handle.metrics().completed.load(Ordering::Relaxed), 24);
    // New submissions after shutdown are refused with the typed error.
    match handle.submit(request(0)) {
        Err(ServeError::ShuttingDown) => {}
        Err(other) => panic!("expected ShuttingDown, got {other:?}"),
        Ok(_) => panic!("expected ShuttingDown, got an accepted request"),
    }
}

#[test]
fn generous_deadline_is_served_and_lifecycle_counters_stay_clean() {
    let handle = start_engine(EngineConfig::default());
    let mut req = request(0);
    req.deadline_ms = Some(60_000);
    let resp = handle.infer(req).expect("generous deadline must be served");
    assert!(!resp.ranked.is_empty());
    let m = handle.metrics();
    assert_eq!(m.deadline_expired.load(Ordering::Relaxed), 0);
    assert_eq!(m.shed.load(Ordering::Relaxed), 0);
    let stats = handle.stats_text();
    assert!(
        stats.contains("lifecycle: deadline_expired=0 shed=0 active_connections=0"),
        "stats must render the lifecycle counters:\n{stats}"
    );
    handle.shutdown();
}

#[test]
fn unknown_model_and_unknown_entity_report_typed_errors() {
    let handle = start_engine(EngineConfig::default());
    let mut req = request(0);
    req.model = "nope".to_string();
    match handle.infer(req) {
        Err(ServeError::UnknownModel(name)) => assert_eq!(name, "nope"),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    // pa-tmr uses mutual-relation embeddings, so an unseen entity is an error.
    let mut req = request(0);
    req.head = "NotARealEntity".to_string();
    req.text = format!("NotARealEntity lives in {}", req.tail);
    match handle.infer(req) {
        Err(ServeError::UnknownEntity(name)) => assert_eq!(name, "NotARealEntity"),
        other => panic!("expected UnknownEntity, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn tcp_front_end_round_trips_the_line_protocol() {
    use std::io::{BufRead, BufReader, Write};

    let handle = start_engine(EngineConfig::default());
    let mut server = imre_serve::TcpServer::spawn(handle.clone(), "127.0.0.1:0").expect("bind");
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    let mut ask = |line: &str| -> Vec<String> {
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write newline");
        writer.flush().expect("flush");
        let mut lines = Vec::new();
        loop {
            let mut buf = String::new();
            reader.read_line(&mut buf).expect("read reply line");
            let trimmed = buf.trim_end_matches('\n');
            if trimmed.is_empty() {
                return lines;
            }
            lines.push(trimmed.to_string());
        }
    };

    assert_eq!(ask("ping"), vec!["ok pong"]);
    assert_eq!(ask("models"), vec!["ok smoke"]);

    let req = request(0);
    let reply = ask(&format!(
        "infer model=smoke head={} tail={} k=3 text={}",
        req.head, req.tail, req.text
    ));
    assert_eq!(reply.len(), 1);
    assert!(
        reply[0].starts_with("ok "),
        "expected ok reply, got {:?}",
        reply[0]
    );
    let expected = load_model().infer(&req).expect("reference infer");
    let first = expected
        .iter()
        .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
        .unwrap();
    assert!(
        reply[0].contains(&first.relation),
        "top relation {:?} missing from reply {:?}",
        first.relation,
        reply[0]
    );

    let bad = ask("infer model=smoke head=x");
    assert!(bad[0].starts_with("err bad-request"), "got {:?}", bad[0]);

    let stats = ask("stats");
    assert!(
        stats.iter().any(|l| l.contains("queue_wait")),
        "stats over TCP missing histograms: {stats:?}"
    );

    server.stop();
    handle.shutdown();
}

#[test]
fn registry_hot_swap_keeps_serving() {
    let registry = Arc::new(Registry::new());
    registry.insert("smoke", load_model());
    let handle = ServeHandle::start(Arc::clone(&registry), EngineConfig::default());
    let before = handle.infer(request(1)).expect("before swap");
    // Swap in a fresh instance of the same model while the engine is live.
    let previous = registry.insert("smoke", load_model());
    assert!(previous.is_some(), "swap returns the displaced model");
    let after = handle.infer(request(1)).expect("after swap");
    assert_eq!(before.ranked[0].relation, after.ranked[0].relation);
    assert_eq!(
        before.ranked[0].score.to_bits(),
        after.ranked[0].score.to_bits()
    );
    handle.shutdown();
}
