//! The `selnet-client` binary: drives a `selnet-serve` v2 endpoint from
//! the command line. `replay` streams replay lines from stdin through N
//! persistent pipelined connections and prints the answers in input
//! order (so the output feeds straight into `selnet-serve
//! check-monotone`); a line's `@model` token routes it. `metrics`
//! scrapes the fleet's counters and the flight recorder.
//!
//! ```text
//! selnet-client replay --addr 127.0.0.1:7878 --connections 4 < queries.txt
//! selnet-client metrics --addr 127.0.0.1:7878
//! ```
//!
//! `metrics` prints the Prometheus text exposition, then the span rings
//! and the slow-query log as `# span` / `# slow` comment lines — pipe it
//! to a node exporter's textfile collector or grep families directly.

use selnet_client::{ClientConfig, Connection, Reply};
use selnet_serve::cli::Options;
use selnet_serve::protocol::{render_text_error, TextQuery};
use std::io::{self, BufRead, BufWriter, Write};
use std::process::ExitCode;

const USAGE: &str = "usage:
  selnet-client replay --addr HOST:PORT [--connections N] [--window W]
  selnet-client metrics --addr HOST:PORT";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("replay") => cmd_replay(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("selnet-client: {msg}");
            ExitCode::FAILURE
        }
    }
}

const REPLAY_OPTIONS: &[&str] = &["addr", "connections", "window"];

const METRICS_OPTIONS: &[&str] = &["addr"];

/// Reads replay lines (blank lines and `#` comments skipped).
fn read_queries(input: &mut impl BufRead) -> Result<Vec<TextQuery>, String> {
    let mut queries = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.map_err(|e| format!("read input: {e}"))?;
        match TextQuery::parse(&line) {
            Ok(None) => {}
            Ok(Some(q)) => queries.push(q),
            Err(e) => return Err(format!("line {}: {e}", lineno + 1)),
        }
    }
    Ok(queries)
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, REPLAY_OPTIONS, USAGE)?;
    let addr = opts.get("addr").ok_or("replay needs --addr HOST:PORT")?;
    let connections: usize = opts.num("connections", 4)?;
    let connections = connections.max(1);
    let cfg = ClientConfig {
        window: opts.num("window", 32)?,
    };

    let queries = read_queries(&mut io::stdin().lock())?;
    if queries.is_empty() {
        return Err("no query lines on input".into());
    }

    let mut conns = Vec::with_capacity(connections);
    for _ in 0..connections {
        conns.push(
            Connection::connect_with(addr, &cfg).map_err(|e| format!("connect {addr}: {e}"))?,
        );
    }

    // Round-robin partitioning: query i rides connection i % N. Each
    // connection's replies are FIFO, so draining in the same round-robin
    // order reassembles the answers in input order.
    for (i, q) in queries.iter().enumerate() {
        conns[i % connections]
            .send_query(q.model.as_deref(), &q.x, &q.ts)
            .map_err(|e| format!("send query {}: {e}", i + 1))?;
    }
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let mut denied = 0u64;
    for i in 0..queries.len() {
        match conns[i % connections]
            .recv()
            .map_err(|e| format!("receive reply {}: {e}", i + 1))?
        {
            Reply::Estimates(estimates) => {
                let rendered: Vec<String> = estimates.iter().map(|v| v.to_string()).collect();
                writeln!(out, "{}", rendered.join(" ")).map_err(|e| format!("write: {e}"))?;
            }
            Reply::Denied(e) => {
                denied += 1;
                writeln!(out, "{}", render_text_error(&e)).map_err(|e| format!("write: {e}"))?;
            }
            other => {
                return Err(format!(
                    "mismatched reply to a query (FIFO order violated): {other:?}"
                ))
            }
        }
    }
    out.flush().map_err(|e| format!("flush: {e}"))?;
    eprintln!(
        "replayed {} queries over {connections} connection(s), {denied} denied",
        queries.len()
    );
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, METRICS_OPTIONS, USAGE)?;
    let addr = opts.get("addr").ok_or("metrics needs --addr HOST:PORT")?;
    let mut conn = Connection::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let text = conn.metrics().map_err(|e| format!("metrics: {e}"))?;
    print!("{text}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A misspelt or retired option, or one another subcommand takes, is
    /// refused with the usage text, not filed away and ignored; and every
    /// option a subcommand accepts is in the usage text.
    #[test]
    fn unknown_options_are_refused_with_usage() {
        for (args, names, key) in [
            (&["--conections", "8"][..], REPLAY_OPTIONS, "--conections"),
            (
                &["--addr", "x:1", "--windows", "4"][..],
                REPLAY_OPTIONS,
                "--windows",
            ),
            (
                &["--addr", "x:1", "--model", "a"][..],
                METRICS_OPTIONS,
                "--model",
            ),
            (&["--model", "alpha"][..], REPLAY_OPTIONS, "--model"),
            (&["--input", "q.txt"][..], REPLAY_OPTIONS, "--input"),
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let err = Options::parse(&args, names, USAGE)
                .err()
                .expect("must be refused");
            assert!(err.starts_with(&format!("unknown option {key}\n")), "{err}");
            assert!(err.ends_with(USAGE), "{err}");
        }
        for key in REPLAY_OPTIONS.iter().chain(METRICS_OPTIONS) {
            assert!(USAGE.contains(&format!("--{key} ")), "--{key} undocumented");
        }
    }

    /// Each subcommand's own options parse; a repeated one keeps its last
    /// value and an absent one falls back to the default.
    #[test]
    fn known_options_parse_and_the_last_value_wins() {
        let parse = |args: &[&str], names| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            Options::parse(&args, names, USAGE)
        };
        let opts = parse(
            &["--connections", "8", "--addr", "x:1", "--connections", "2"],
            REPLAY_OPTIONS,
        )
        .expect("known options");
        assert_eq!(opts.num("connections", 4usize), Ok(2));
        assert_eq!(opts.num("window", 32usize), Ok(32), "absent: the default");
        assert_eq!(opts.get("addr"), Some("x:1"));
        let opts =
            parse(&["--addr", "x:1", "--addr", "y:2"], METRICS_OPTIONS).expect("known options");
        assert_eq!(opts.get("addr"), Some("y:2"));
        assert_eq!(
            parse(&["--addr"], METRICS_OPTIONS).err().as_deref(),
            Some("--addr needs a value")
        );
    }
}
