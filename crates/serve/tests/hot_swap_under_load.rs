//! Hot-swap under load: 256 concurrently connected epoll clients stream
//! pipelined requests while the registry republishes the serving bundle
//! over and over (the stream updater's publish path). Every connection must
//! see every reply, in order; and the swapped-out mmap-backed bundles must
//! unmap only after their last borrower drops (observed via the
//! `live_mappings` gauge).
#![cfg(target_os = "linux")]

use imre_core::{HyperParams, ModelSpec, QuantModel};
use imre_eval::{build_index, smoke_config, Pipeline};
use imre_graph::EntityEmbedding;
use imre_serve::{
    live_mappings, load_bundle, save_bundle, Bundle, EngineConfig, FrontendConfig, Registry,
    ServeHandle, ServingModel, TcpServer,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 256;
const REQUESTS_PER_CONN: usize = 24;
const PIPELINE_CHUNK: usize = 12;
const REPUBLISHES: usize = 6;

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
        let ann = build_index(&pipeline, &model, 7);
        let quant = QuantModel::from_model(&model, Some(&embedding)).expect("quantizes");
        // quant forces a v3 bundle, so disk loads go through the mmap path.
        let bundle = Bundle::new(
            model,
            pipeline.dataset.vocab.clone(),
            &pipeline.dataset.world,
            Some(embedding),
        )
        .with_ann(ann)
        .with_quant(quant);
        let mut bundle_bytes = Vec::new();
        imre_serve::write_bundle(&bundle, &mut bundle_bytes).expect("serialize");
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

/// The request line for slot `i` of a connection, and a checker for its
/// reply. Three reply classes make drops and reorderings visible: a
/// misplaced reply fails the class check at that position.
fn request_line(conn: usize, i: usize) -> String {
    match i % 3 {
        0 => "ping".to_string(),
        1 => "models".to_string(),
        _ => {
            let names = &fixture().entity_names;
            let head = &names[(conn + i) % names.len()];
            let mut t = (conn + i * 7 + 3) % names.len();
            if t == (conn + i) % names.len() {
                t = (t + 1) % names.len();
            }
            let tail = &names[t];
            format!(
                "infer model=smoke head={head} tail={tail} text=records show {head} associated with {tail} in the region"
            )
        }
    }
}

fn check_reply(conn: usize, i: usize, lines: &[String]) {
    assert!(
        !lines.is_empty(),
        "conn {conn} reply {i} is empty (dropped reply)"
    );
    match i % 3 {
        0 => assert_eq!(lines, &["ok pong"], "conn {conn} reply {i} misordered"),
        1 => assert_eq!(lines, &["ok smoke"], "conn {conn} reply {i} misordered"),
        _ => assert!(
            lines[0].starts_with("ok ") && lines[0] != "ok pong" && lines[0] != "ok smoke",
            "conn {conn} reply {i} misordered or failed: {lines:?}"
        ),
    }
}

/// Reads one reply (lines up to the empty terminator). EOF mid-reply is a
/// dropped reply and fails loudly.
fn read_reply(conn: usize, reader: &mut BufReader<TcpStream>) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read reply line");
        assert!(
            n > 0,
            "conn {conn}: peer closed mid-stream after {lines:?} (dropped replies)"
        );
        let line = line.trim_end_matches(['\r', '\n']).to_string();
        if line.is_empty() {
            return lines;
        }
        lines.push(line);
    }
}

fn wait_until(limit: Duration, what: &str, mut probe: impl FnMut() -> bool) {
    let start = Instant::now();
    while !probe() {
        assert!(
            start.elapsed() < limit,
            "{what} not reached within {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn republishing_under_256_connections_drops_and_reorders_nothing() {
    let dir = std::env::temp_dir().join(format!("imre_hot_swap_load_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.imrb");
    {
        let bundle = imre_serve::read_bundle(&mut fixture().bundle_bytes.as_slice())
            .expect("fixture parses");
        save_bundle(&bundle, &path).expect("saves");
    }

    let mappings_baseline = live_mappings();
    let registry = Arc::new(Registry::new());
    registry.load_file("smoke", &path).expect("mmap load");
    assert_eq!(
        live_mappings(),
        mappings_baseline + 1,
        "registry load must map the v3 file"
    );

    let handle = ServeHandle::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 4,
            queue_capacity: 8192,
            ..EngineConfig::default()
        },
    );
    let mut server = TcpServer::spawn_with(
        handle.clone(),
        "127.0.0.1:0",
        FrontendConfig {
            max_connections: CONNECTIONS + 16,
            max_inflight_per_conn: PIPELINE_CHUNK + 4,
            ..FrontendConfig::default()
        },
    )
    .expect("front end binds");
    let addr = server.local_addr();

    // A borrower of the *first* mapping, standing in for an in-flight request
    // that outlives every republish below.
    let old = registry.get("smoke").expect("registered");

    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|conn| {
            std::thread::Builder::new()
                .name(format!("swap-client-{conn}"))
                .spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let mut writer = stream.try_clone().expect("clone");
                    let mut reader = BufReader::new(stream);
                    let mut i = 0;
                    while i < REQUESTS_PER_CONN {
                        let chunk = PIPELINE_CHUNK.min(REQUESTS_PER_CONN - i);
                        let mut burst = String::new();
                        for j in 0..chunk {
                            burst.push_str(&request_line(conn, i + j));
                            burst.push('\n');
                        }
                        writer.write_all(burst.as_bytes()).expect("write burst");
                        writer.flush().expect("flush");
                        for j in 0..chunk {
                            let reply = read_reply(conn, &mut reader);
                            check_reply(conn, i + j, &reply);
                        }
                        i += chunk;
                    }
                })
                .expect("spawn client")
        })
        .collect();

    // Republish while the fleet is in flight: each cycle maps the file
    // afresh and swaps the registry entry, exactly like a stream publish.
    for cycle in 0..REPUBLISHES {
        let bundle = load_bundle(&path).expect("fresh mmap");
        let model = ServingModel::new(bundle).expect("validates");
        registry.insert("smoke", model);
        assert!(
            live_mappings() > mappings_baseline,
            "cycle {cycle}: the new mapping must be live"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    for (conn, client) in clients.into_iter().enumerate() {
        client
            .join()
            .unwrap_or_else(|_| panic!("client {conn} panicked"));
    }

    // Quiesce: swapped-out mappings unmap once their last borrower (engine
    // requests, replaced registry Arcs) drops. Two must remain — the current
    // registry entry and `old`, our deliberate long-lived borrower.
    wait_until(
        Duration::from_secs(10),
        "swapped-out mappings unmapped",
        || live_mappings() == mappings_baseline + 2,
    );

    // The deferred unmap fires exactly when the last borrower goes away.
    assert!(old.quant().expect("v3 quant").is_borrowed());
    drop(old);
    wait_until(
        Duration::from_secs(5),
        "old mapping unmapped after last borrower dropped",
        || live_mappings() == mappings_baseline + 1,
    );

    server.stop();
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
