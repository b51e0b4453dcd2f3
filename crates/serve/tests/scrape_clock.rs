//! A metrics scrape renders both span rings on one clock: the engine's
//! ring and the process-global one each stamp spans from their own epoch,
//! and the global one is the older by however long the model took to
//! build and load. In a traced scrape of a served `PartitionedSelNet`,
//! every `curve_forward` line (global ring) must lie inside a
//! `plan_replay` line (engine ring), as the forward ran inside the replay.
//! This file is a test binary of its own because it arms the
//! process-global recorder.

use selnet_core::{fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_metric::DistanceKind;
use selnet_serve::engine::{Engine, EngineConfig};
use selnet_serve::protocol::{Frame, Hello, HelloAck, Response};
use selnet_serve::registry::ModelRegistry;
use selnet_serve::server::serve_tcp;
use selnet_workload::{generate_workload, WorkloadConfig};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// `(kind, start_us, end_us)` of every `# span <kind> trace=… start_us=…
/// dur_us=… a=… b=…` line.
fn spans(text: &str) -> Vec<(&str, u64, u64)> {
    let spans = text.lines().filter_map(|line| line.strip_prefix("# span "));
    spans
        .map(|line| {
            let words: Vec<&str> = line.split(' ').collect();
            let num = |i: usize, key: &str| -> u64 {
                words[i].strip_prefix(key).unwrap().parse().unwrap()
            };
            let start = num(2, "start_us=");
            (words[0], start, start + num(3, "dur_us="))
        })
        .collect()
}

#[test]
fn curve_forwards_lie_inside_their_plan_replays() {
    let ds = fasttext_like(&GeneratorConfig::new(300, 4, 3, 5));
    let mut wcfg = WorkloadConfig::new(18, DistanceKind::Euclidean, 6);
    wcfg.thresholds_per_query = 6;
    let w = generate_workload(&ds, &wcfg);
    let mut cfg = SelNetConfig::tiny();
    cfg.epochs = 2;
    let pcfg = PartitionConfig {
        k: 2,
        pretrain_epochs: 1,
        ..Default::default()
    };
    let (model, _) = fit_partitioned(&ds, &w, &cfg, &pcfg);
    let mut snapshot = Vec::new();
    model.save(&mut snapshot).unwrap();

    // as the binary does: arm the global ring, load, then start the engine
    selnet_obs::trace::global().enable(4096);
    let model = PartitionedSelNet::load(&mut snapshot.as_slice()).unwrap();
    let tmax = model.tmax();
    let engine = Engine::start(
        Arc::new(ModelRegistry::new(model)),
        &EngineConfig {
            trace_buffer: 4096,
            ..Default::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let (engine, stop) = (Arc::clone(&engine), Arc::clone(&stop));
        std::thread::spawn(move || serve_tcp(engine, listener, stop))
    };

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    let mut reader = BufReader::new(stream);
    Hello::default().write(&mut writer).unwrap();
    writer.flush().unwrap();
    assert_eq!(HelloAck::read(&mut reader).unwrap().version, 2);
    let queries = 32;
    for i in 0..queries {
        Frame::Query {
            model: None,
            x: ds.row(i * 5).to_vec(),
            ts: (1..=6).map(|j| tmax * j as f32 / 6.0).collect(),
        }
        .write_v2(&mut writer)
        .unwrap();
    }
    writer.flush().unwrap();
    for _ in 0..queries {
        let reply = Response::read_v2(&mut reader).unwrap();
        assert!(matches!(reply, Some(Response::Estimates(_))), "{reply:?}");
    }
    // scraped once every query is answered, so every wave is in the rings
    Frame::Metrics.write_v2(&mut writer).unwrap();
    writer.flush().unwrap();
    let Some(Response::Metrics(text)) = Response::read_v2(&mut reader).unwrap() else {
        panic!("expected the metrics reply");
    };

    let spans = spans(&text);
    let of = |kind: &'static str| spans.iter().filter(move |s| s.0 == kind);
    assert!(of("plan_replay").count() > 0 && of("curve_forward").count() > 0);
    // microsecond rounding of each line is the only slack
    for &(_, start, end) in of("curve_forward") {
        assert!(
            of("plan_replay").any(|&(_, s, e)| s <= start + 1 && end <= e + 2),
            "curve_forward {start}..{end} µs lies inside no plan_replay:\n{text}"
        );
    }

    drop((writer, reader));
    stop.store(true, Ordering::SeqCst);
    server.join().unwrap().unwrap();
    engine.shutdown();
}
