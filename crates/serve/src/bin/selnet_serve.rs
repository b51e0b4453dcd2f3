//! The `selnet-serve` binary: loads one or more `SELNETP1` snapshots and
//! serves them as named tenants over TCP (binary protocol v2), plus the
//! small train/check subcommands the CI smoke pipeline is built from.
//!
//! ```text
//! selnet-serve train-tiny --out a.selnet --replay-out queries.txt --replay-model alpha
//! selnet-serve serve --model alpha=a.selnet --model beta=b.selnet --addr 127.0.0.1:7878
//! selnet-client replay --addr 127.0.0.1:7878 < queries.txt | selnet-serve check-monotone
//! ```

use selnet_core::{fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_metric::DistanceKind;
use selnet_serve::engine::{Engine, EngineConfig};
use selnet_serve::registry::ModelRegistry;
use selnet_serve::server;
use selnet_workload::{generate_workload, WorkloadConfig};
use std::io::{self, BufRead, BufWriter, Write};
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

const USAGE: &str = "usage:
  selnet-serve train-tiny --out SNAPSHOT [--replay-out FILE] [--replay-count N]
                          [--replay-model NAME] [--seed S]
  selnet-serve serve --model NAME=SNAPSHOT ... [--addr HOST:PORT]
                     [--workers N] [--batch ROWS] [--queue ROWS]
                     [--slow-query-us MICROS] [--trace-buffer SPANS]
  selnet-serve check-monotone";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train-tiny") => cmd_train_tiny(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("check-monotone") => cmd_check_monotone(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("selnet-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Tiny positional-free flag parser: every option is `--key value` with
/// `key` one of the subcommand's `names`. Anything else is refused.
struct Options {
    pairs: Vec<(String, String)>,
}

impl Options {
    fn parse(args: &[String], names: &[&str]) -> Result<Options, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {arg:?}"))?;
            if !names.contains(&key) {
                return Err(format!("unknown option --{key}\n{USAGE}"));
            }
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Options { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for a repeatable option, in order.
    fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} value {v:?}")),
        }
    }
}

const TRAIN_TINY_OPTIONS: &[&str] = &["out", "replay-out", "replay-count", "replay-model", "seed"];

const SERVE_OPTIONS: &[&str] = &[
    "model",
    "addr",
    "workers",
    "batch",
    "queue",
    "slow-query-us",
    "trace-buffer",
];

/// Upper bound on `--trace-buffer`. It sizes both span rings, and a
/// metrics reply carries both as text (≈ 140 B a span): two rings of
/// this size stay under 10 MB, well inside one frame
/// ([`MAX_FRAME_LEN`](selnet_serve::protocol::MAX_FRAME_LEN)).
const MAX_TRACE_BUFFER: usize = 1 << 15;

/// Thresholds per replay query: an evenly spaced grid over
/// `(0, 1.1 * tmax]`.
const REPLAY_THRESHOLDS: usize = 8;

fn cmd_train_tiny(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, TRAIN_TINY_OPTIONS)?;
    let out = opts.get("out").ok_or("train-tiny needs --out")?;
    let seed: u64 = opts.num("seed", 17)?;
    let replay_count: usize = opts.num("replay-count", 100)?;

    eprintln!("training tiny partitioned SelNet (n=600, dim=5, epochs=6)...");
    let ds = fasttext_like(&GeneratorConfig::new(600, 5, 3, seed));
    let mut wcfg = WorkloadConfig::new(24, DistanceKind::Euclidean, seed ^ 1);
    wcfg.thresholds_per_query = 8;
    let workload = generate_workload(&ds, &wcfg);
    let mut cfg = SelNetConfig::tiny();
    cfg.epochs = 6;
    cfg.seed = seed;
    let pcfg = PartitionConfig {
        k: 3,
        pretrain_epochs: 2,
        ..Default::default()
    };
    let (model, report) = fit_partitioned(&ds, &workload, &cfg, &pcfg);
    eprintln!(
        "trained: k={}, best val MAE {:.3}",
        model.k(),
        report.epoch_val_mae[report.best_epoch]
    );

    let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let mut w = BufWriter::new(file);
    model
        .save(&mut w)
        .map_err(|e| format!("write {out}: {e}"))?;
    w.flush().map_err(|e| format!("flush {out}: {e}"))?;
    eprintln!("snapshot written to {out}");

    if let Some(replay) = opts.get("replay-out") {
        let file = std::fs::File::create(replay).map_err(|e| format!("create {replay}: {e}"))?;
        let mut w = BufWriter::new(file);
        write_replay(
            &mut w,
            &ds,
            model.tmax(),
            replay_count,
            opts.get("replay-model"),
        )
        .map_err(|e| format!("write {replay}: {e}"))?;
        eprintln!(
            "{replay_count} replay queries written to {replay} \
             ({REPLAY_THRESHOLDS} thresholds each, descending)"
        );
    }
    Ok(())
}

/// Emits `count` replay lines: database rows as query objects with a
/// descending threshold grid over `(0, 1.1 * tmax]`, optionally routed
/// to `@model`. Descending grids make each *response* line monotone
/// non-increasing — what `check-monotone` asserts.
fn write_replay(
    w: &mut impl Write,
    ds: &selnet_data::Dataset,
    tmax: f32,
    count: usize,
    model: Option<&str>,
) -> io::Result<()> {
    writeln!(
        w,
        "# selnet-serve replay: {count} queries, {REPLAY_THRESHOLDS} thresholds, tmax {tmax}"
    )?;
    for i in 0..count {
        let row = ds.row(i % ds.len());
        let grid: Vec<f32> = (1..=REPLAY_THRESHOLDS)
            .rev()
            .map(|j| tmax * 1.1 * j as f32 / REPLAY_THRESHOLDS as f32)
            .collect();
        let q = selnet_serve::protocol::TextQuery {
            model: model.map(str::to_string),
            x: row.to_vec(),
            ts: grid,
        };
        writeln!(w, "{}", q.render())?;
    }
    Ok(())
}

fn load_snapshot(path: &str) -> Result<PartitionedSelNet, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut reader = io::BufReader::new(file);
    PartitionedSelNet::load(&mut reader).map_err(|e| format!("load {path}: {e}"))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, SERVE_OPTIONS)?;
    let cfg = EngineConfig {
        workers: opts.num("workers", 0)?,
        max_batch_rows: opts.num("batch", 64)?,
        max_queue_rows: opts.num("queue", 4096)?,
        slow_query_us: opts.num("slow-query-us", 0)?,
        trace_buffer: opts.num("trace-buffer", 0)?,
    };
    if cfg.trace_buffer > MAX_TRACE_BUFFER {
        return Err(format!(
            "--trace-buffer {} is above {MAX_TRACE_BUFFER}: both span rings ride one metrics reply",
            cfg.trace_buffer
        ));
    }
    // the engine keeps its own span ring; the global recorder picks up
    // curve-forward / snapshot / retrain spans from the library crates
    if cfg.trace_buffer > 0 {
        selnet_obs::trace::global().enable(cfg.trace_buffer);
    }

    // tenants: repeated --model NAME=PATH; the first one registered
    // answers requests that name no tenant
    let registry = Arc::new(ModelRegistry::empty());
    for spec in opts.get_all("model") {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad --model {spec:?} (want NAME=PATH)"))?;
        let model = load_snapshot(path)?;
        eprintln!(
            "loaded tenant {name} from {path}: {} partitions, tmax {:.3}",
            model.k(),
            model.tmax()
        );
        registry.register(name, model).map_err(|e| e.to_string())?;
    }
    if registry.is_empty() {
        return Err("serve needs at least one --model NAME=PATH".into());
    }

    let engine = Engine::start(registry, &cfg);
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7878");
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    eprintln!(
        "serving binary protocol v2 on {addr} \
         (send a metrics frame for counters and the flight recorder)"
    );
    let stop = Arc::new(AtomicBool::new(false));
    server::serve_tcp(engine, listener, stop).map_err(|e| format!("serve failed: {e}"))
}

/// Reads response lines on stdin and checks every one is monotone
/// non-increasing in `t`, the order of `train-tiny`'s descending replay
/// grids. A `!` refusal line fails the check.
fn cmd_check_monotone(args: &[String]) -> Result<(), String> {
    Options::parse(args, &[])?;
    let stdin = io::stdin();
    let mut lines = 0u64;
    for (lineno, line) in stdin.lock().lines().enumerate() {
        let line = line.map_err(|e| format!("read stdin: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed.starts_with('!') {
            return Err(format!("line {}: server refusal: {trimmed}", lineno + 1));
        }
        let values: Vec<f64> = trimmed
            .split_whitespace()
            .map(|tok| {
                tok.parse::<f64>()
                    .map_err(|e| format!("line {}: bad value {tok:?}: {e}", lineno + 1))
            })
            .collect::<Result<_, _>>()?;
        if values.iter().any(|v| !v.is_finite()) {
            return Err(format!("line {}: non-finite estimate", lineno + 1));
        }
        for pair in values.windows(2) {
            if pair[1] > pair[0] {
                return Err(format!(
                    "line {}: response not non-increasing: {} then {}",
                    lineno + 1,
                    pair[0],
                    pair[1]
                ));
            }
        }
        lines += 1;
    }
    if lines == 0 {
        return Err("no response lines on stdin".into());
    }
    println!("OK: {lines} response streams are monotone non-increasing in t");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn parse_serve(a: &[&str]) -> Result<Options, String> {
        Options::parse(&args(a), SERVE_OPTIONS)
    }

    /// A misspelt or retired option is refused with the usage text, not
    /// filed away and ignored — first or after a known option.
    #[test]
    fn unknown_options_are_refused_with_usage() {
        let serve = "replay-threads inflight precision stdinn cache shards stdin snapshot";
        for (names, known, keys) in [
            (SERVE_OPTIONS, "--model a=a", serve),
            (
                TRAIN_TINY_OPTIONS,
                "--seed 1",
                "n dim queries epochs thresholds order",
            ),
            (&[], "", "expect"),
        ] {
            let known: Vec<&str> = known.split_whitespace().collect();
            for key in keys.split(' ').map(|k| format!("--{k}")) {
                for a in [
                    args(&[&key, "1"]),
                    args(&[&known[..], &[&key, "1"]].concat()),
                ] {
                    let err = Options::parse(&a, names).err().expect("must be refused");
                    assert!(err.starts_with(&format!("unknown option {key}\n")), "{err}");
                    assert!(err.ends_with(USAGE), "{err}");
                }
            }
        }
    }

    #[test]
    fn known_options_parse_and_the_last_value_wins() {
        let opts = parse_serve(&["--batch", "32", "--addr", "x:1", "--batch", "16"])
            .expect("known options");
        assert_eq!(opts.num("batch", 64usize), Ok(16));
        assert_eq!(opts.num("workers", 7usize), Ok(7), "absent: the default");
        assert!(parse_serve(&["--workers"]).is_err(), "a value is required");
        // every documented option is one its subcommand accepts
        for key in SERVE_OPTIONS.iter().chain(TRAIN_TINY_OPTIONS) {
            assert!(USAGE.contains(&format!("--{key} ")), "--{key} undocumented");
        }
    }

    #[test]
    fn repeated_model_options_are_all_kept_in_order() {
        let opts = parse_serve(&["--model", "alpha=a", "--addr", "x:1", "--model", "beta=b"])
            .expect("known options");
        assert_eq!(opts.get_all("model"), ["alpha=a", "beta=b"]);
        assert_eq!(opts.get("model"), Some("beta=b"));
    }

    /// A span ring too large for one metrics reply is refused before any
    /// snapshot is read; the bound itself gets as far as the snapshot.
    #[test]
    fn an_oversized_trace_buffer_is_refused_before_loading() {
        for (spans, error) in [
            (
                MAX_TRACE_BUFFER + 1,
                "--trace-buffer 32769 is above 32768: ",
            ),
            (MAX_TRACE_BUFFER, "open no-such.selnet: "),
        ] {
            let spans = spans.to_string();
            let err = cmd_serve(&args(&[
                "--model",
                "a=no-such.selnet",
                "--trace-buffer",
                &spans,
            ]));
            assert!(err.as_ref().is_err_and(|e| e.starts_with(error)), "{err:?}");
        }
    }
}
