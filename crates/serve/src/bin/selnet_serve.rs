//! The `selnet-serve` binary: loads one or more `SELNETP1` snapshots and
//! serves them as named tenants over TCP (binary protocol v2) or
//! stdin (text protocol), plus the small train/replay/check subcommands
//! the CI smoke pipeline is built from.
//!
//! ```text
//! selnet-serve train-tiny --out snap.selnet --replay-out queries.txt
//! selnet-serve serve --snapshot snap.selnet --stdin < queries.txt
//! selnet-serve serve --model alpha=a.selnet --model beta=b.selnet --addr 127.0.0.1:7878
//! selnet-serve check-monotone --expect non-increasing < responses.txt
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
                          [--replay-model NAME] [--n N] [--dim D] [--queries Q]
                          [--epochs E] [--seed S] [--thresholds M] [--order desc|asc]
  selnet-serve serve (--snapshot SNAPSHOT | --model NAME=SNAPSHOT ...)
                     (--stdin | --addr HOST:PORT)
                     [--workers N] [--batch ROWS] [--queue ROWS]
                     [--slow-query-us MICROS] [--trace-buffer SPANS]
  selnet-serve check-monotone [--expect non-increasing|non-decreasing]";

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
/// `key` one of the subcommand's `value_names`, except boolean flags,
/// which are listed in `flag_names`. Anything else is refused.
struct Options {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Options {
    fn parse(
        args: &[String],
        value_names: &[&str],
        flag_names: &[&str],
    ) -> Result<Options, String> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {arg:?}"))?;
            if flag_names.contains(&key) {
                flags.push(key.to_string());
            } else if value_names.contains(&key) {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                pairs.push((key.to_string(), value.clone()));
            } else {
                return Err(format!("unknown option --{key}\n{USAGE}"));
            }
        }
        Ok(Options { pairs, flags })
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

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} value {v:?}")),
        }
    }
}

const TRAIN_TINY_OPTIONS: &[&str] = &[
    "out",
    "replay-out",
    "replay-count",
    "replay-model",
    "n",
    "dim",
    "queries",
    "epochs",
    "seed",
    "thresholds",
    "order",
];

const SERVE_OPTIONS: &[&str] = &[
    "snapshot",
    "model",
    "addr",
    "workers",
    "batch",
    "queue",
    "slow-query-us",
    "trace-buffer",
];

fn cmd_train_tiny(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, TRAIN_TINY_OPTIONS, &[])?;
    let out = opts.get("out").ok_or("train-tiny needs --out")?;
    let n: usize = opts.num("n", 600)?;
    let dim: usize = opts.num("dim", 5)?;
    let queries: usize = opts.num("queries", 24)?;
    let epochs: usize = opts.num("epochs", 6)?;
    let seed: u64 = opts.num("seed", 17)?;
    let replay_count: usize = opts.num("replay-count", 100)?;
    let thresholds: usize = opts.num("thresholds", 8)?;
    let descending = match opts.get("order").unwrap_or("desc") {
        "desc" => true,
        "asc" => false,
        v => return Err(format!("bad --order {v:?} (desc|asc)")),
    };

    eprintln!("training tiny partitioned SelNet (n={n}, dim={dim}, epochs={epochs})...");
    let ds = fasttext_like(&GeneratorConfig::new(n, dim, 3, seed));
    let mut wcfg = WorkloadConfig::new(queries, DistanceKind::Euclidean, seed ^ 1);
    wcfg.thresholds_per_query = 8;
    let workload = generate_workload(&ds, &wcfg);
    let mut cfg = SelNetConfig::tiny();
    cfg.epochs = epochs;
    cfg.seed = seed;
    let pcfg = PartitionConfig {
        k: 3,
        pretrain_epochs: (epochs / 3).max(1),
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
            thresholds,
            descending,
            opts.get("replay-model"),
        )
        .map_err(|e| format!("write {replay}: {e}"))?;
        eprintln!(
            "{replay_count} replay queries written to {replay} ({} thresholds each, {})",
            thresholds,
            if descending {
                "descending"
            } else {
                "ascending"
            }
        );
    }
    Ok(())
}

/// Emits `count` text-protocol lines: database rows as query objects with
/// an evenly spaced threshold grid over `(0, 1.1 * tmax]`, optionally
/// routed to `@model`. Descending grids make each *response* line
/// monotone non-increasing — what the CI checker asserts.
#[allow(clippy::too_many_arguments)]
fn write_replay(
    w: &mut impl Write,
    ds: &selnet_data::Dataset,
    tmax: f32,
    count: usize,
    thresholds: usize,
    descending: bool,
    model: Option<&str>,
) -> io::Result<()> {
    writeln!(
        w,
        "# selnet-serve replay: {count} queries, {thresholds} thresholds, tmax {tmax}"
    )?;
    for i in 0..count {
        let row = ds.row(i % ds.len());
        let mut grid: Vec<f32> = (1..=thresholds)
            .map(|j| tmax * 1.1 * j as f32 / thresholds as f32)
            .collect();
        if descending {
            grid.reverse();
        }
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
    let opts = Options::parse(args, SERVE_OPTIONS, &["stdin"])?;
    let cfg = EngineConfig {
        workers: opts.num("workers", 0)?,
        max_batch_rows: opts.num("batch", 64)?,
        max_queue_rows: opts.num("queue", 4096)?,
        slow_query_us: opts.num("slow-query-us", 0)?,
        trace_buffer: opts.num("trace-buffer", 0)?,
    };
    // the engine keeps its own span ring; the global recorder picks up
    // plan-compile / snapshot / retrain spans from the library crates
    if cfg.trace_buffer > 0 {
        selnet_obs::trace::global().enable(cfg.trace_buffer);
    }

    // tenants: repeated --model NAME=PATH, plus the legacy --snapshot PATH
    // (registered as the default tenant)
    let registry = Arc::new(ModelRegistry::empty());
    if let Some(snapshot) = opts.get("snapshot") {
        let model = load_snapshot(snapshot)?;
        eprintln!(
            "loaded snapshot {snapshot}: {} partitions, tmax {:.3}",
            model.k(),
            model.tmax()
        );
        registry
            .register(selnet_serve::registry::DEFAULT_MODEL, model)
            .map_err(|e| e.to_string())?;
    }
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
        return Err("serve needs --snapshot or at least one --model NAME=PATH".into());
    }

    let engine = Engine::start(registry, &cfg);

    if opts.flag("stdin") {
        let stdin = io::stdin();
        let stdout = io::stdout();
        let mut out = BufWriter::new(stdout.lock());
        let served = server::serve_lines(&engine, &mut stdin.lock(), &mut out)
            .map_err(|e| format!("stdin serving failed: {e}"))?;
        // counters are a `?metrics` line away, in-band
        eprintln!("served {served} queries");
        dump_flight_recorder(&engine);
        engine.shutdown();
        Ok(())
    } else {
        let addr = opts.get("addr").unwrap_or("127.0.0.1:7878");
        let listener =
            std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        eprintln!("serving binary protocol v2 on {addr} (send a metrics frame for counters)");
        let stop = Arc::new(AtomicBool::new(false));
        let result = server::serve_tcp(Arc::clone(&engine), listener, stop)
            .map_err(|e| format!("serve failed: {e}"));
        dump_flight_recorder(&engine);
        result
    }
}

/// Dumps the span ring and slow-query log to stderr on shutdown — the
/// flight-recorder readout. Silent when tracing and the slow-query
/// threshold are both disabled.
fn dump_flight_recorder(engine: &Engine<PartitionedSelNet>) {
    let spans = engine.spans();
    // the engine ring holds request-path spans; the global ring holds
    // plan-compile / snapshot / retrain spans from the library crates
    let global: Vec<selnet_obs::Span> = selnet_obs::trace::global().snapshot();
    if !spans.is_empty() || !global.is_empty() {
        eprintln!(
            "flight recorder: {} request spans, {} system spans (newest last)",
            spans.len(),
            global.len()
        );
        for span in spans.iter().chain(global.iter()) {
            eprintln!(
                "  span {} trace={} start_us={} dur_us={} a={} b={}",
                span.kind,
                span.trace_id,
                span.start_ns / 1_000,
                span.dur_ns / 1_000,
                span.a,
                span.b
            );
        }
    }
    let slow = engine.slow_queries();
    if !slow.is_empty() {
        eprintln!("slow queries (fleet, newest last):");
        for q in &slow {
            eprintln!(
                "  trace={} rows={} latency_us={}",
                q.trace_id, q.rows, q.latency_us
            );
        }
    }
}

fn cmd_check_monotone(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &["expect"], &[])?;
    let expect = opts.get("expect").unwrap_or("non-increasing");
    let non_increasing = match expect {
        "non-increasing" => true,
        "non-decreasing" => false,
        v => return Err(format!("bad --expect {v:?}")),
    };
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
            let ok = if non_increasing {
                pair[1] <= pair[0]
            } else {
                pair[1] >= pair[0]
            };
            if !ok {
                return Err(format!(
                    "line {}: response not {expect}: {} then {}",
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
    println!("OK: {lines} response streams are monotone {expect} in t");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_serve(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Options::parse(&args, SERVE_OPTIONS, &["stdin"])
    }

    /// A misspelt or retired option is refused with the usage text, not
    /// filed away and ignored.
    #[test]
    fn unknown_options_are_refused_with_usage() {
        for (args, key) in [
            (&["--replay-threads", "4"][..], "--replay-threads"),
            (&["--stdin", "--inflight", "64"][..], "--inflight"),
            (
                &["--snapshot", "a", "--precision", "beta=int8"][..],
                "--precision",
            ),
            (&["--stdinn"][..], "--stdinn"),
            (&["--stdin", "--cache", "256"][..], "--cache"),
            (&["--stdin", "--shards", "2"][..], "--shards"),
        ] {
            let err = parse_serve(args).err().expect("must be refused");
            assert!(err.starts_with(&format!("unknown option {key}\n")), "{err}");
            assert!(err.ends_with(USAGE), "{err}");
        }
    }

    #[test]
    fn known_options_parse_and_the_last_value_wins() {
        let opts =
            parse_serve(&["--batch", "32", "--stdin", "--batch", "16"]).expect("known options");
        assert_eq!(opts.num("batch", 64usize), Ok(16));
        assert_eq!(opts.num("workers", 7usize), Ok(7), "absent: the default");
        assert!(opts.flag("stdin"));
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
}
