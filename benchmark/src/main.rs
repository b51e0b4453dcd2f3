//! The repository's benchmark: four served-traffic workloads on a small
//! and a paper-shaped fixture, with an outside-in layer ledger. See
//! `benchmark/README.md` for what is measured and why.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! benchmark all [--traced]      every workload in a process of its own, every metric by name
//! benchmark selfcheck           the whole set twice; fails if a pair differs by more than its bound
//! benchmark manifest            BENCHMARK.json as the tables in metrics.rs define it
//! ```
//!
//! `--smoke` shrinks both fixtures and the phases so `all` ends within
//! half a minute, with the same correctness gate and exit codes.

mod drive;
mod gen;
mod json;
mod layers;
mod ledger;
mod metrics;
mod run;
mod spans;
mod stats;

use json::Json;
use metrics::{Better, Metric, END_TO_END, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
       benchmark all [--traced] [--smoke] [--seed N] [--seconds S]
       benchmark selfcheck [--smoke] [--seed N] [--seconds S]
       benchmark manifest";

/// Seconds per run under `--smoke` when the caller gives none.
const SMOKE_SECONDS: f64 = 3.0;

#[derive(Default)]
struct Cli {
    mode: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                cli.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => cli.trace = true,
            "--smoke" => cli.smoke = true,
            "all" | "selfcheck" | "manifest" if cli.mode.is_none() => cli.mode = Some(arg.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (cli.mode.as_deref(), &cli.workload) {
        (Some("manifest"), _) => {
            print!("{}", metrics::manifest().pretty());
            ExitCode::SUCCESS
        }
        (Some("all"), _) => all(&cli),
        (Some("selfcheck"), _) => selfcheck(&cli),
        (None, Some(name)) => one(&cli, name),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn seconds(cli: &Cli) -> f64 {
    cli.seconds.unwrap_or(if cli.smoke {
        SMOKE_SECONDS
    } else {
        metrics::RUN_SECONDS as f64
    })
}

/// One run in this process. The result is the last line of stdout.
fn one(cli: &Cli, name: &str) -> ExitCode {
    let Some(workload) = metrics::workload(name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "benchmark: unknown workload {name:?}; known: {}",
            known.join(", ")
        );
        return ExitCode::from(2);
    };
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let span_file = cli.trace.then(|| {
        std::fs::create_dir_all(&out_dir).ok();
        out_dir.join(format!("spans-{name}.jsonl"))
    });
    let args = run::Args {
        workload,
        seed: cli.seed.unwrap_or(metrics::DEFAULT_SEED),
        seconds: seconds(cli),
        trace: cli.trace,
        smoke: cli.smoke,
        span_file,
    };
    let outcome = if args.trace {
        run::run_traced(&args)
    } else {
        run::run(&args)
    };

    // everything measured, by name, for a reader; then the result line
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .chain(metrics::PER_LAYER)
            .find(|m| m.name == name)
            .map_or("", |m| m.unit)
    };
    println!(
        "# {name} seed={} seconds={} trace={} threads={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (metric, value) in outcome.values.iter() {
        println!("{metric:<34} {value:>16.4} {}", unit_of(metric));
    }
    if let Some(path) = &args.span_file {
        println!("# spans: {}", path.display());
    }
    let listed = if args.trace {
        metrics::PER_LAYER
    } else {
        END_TO_END
    };
    let reported = listed.iter().map(|m| {
        // a layer the workload does not have reports 0
        let value = outcome.values.get(m.name).unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        (
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        )
    });
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(reported)),
    ]);
    println!("{}", result.render());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchmark: {} of {} operations failed the correctness checks",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process (a process of its own, so that
/// set-up time and peak memory are that workload's alone) and returns
/// its result line and the `name value unit` lines before it.
fn child(cli: &Cli, workload: &str, trace: bool, seed: u64) -> Result<(Json, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds(cli).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload}: run failed: {last}"));
    }
    let listing = text
        .lines()
        .filter(|l| !l.starts_with(['#', '{']))
        .map(str::to_string)
        .collect();
    Ok((result, listing))
}

fn metric_of(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Every workload, everything it measured by name with its unit (the
/// end-to-end metrics and, beside them, the numbers of the phases that
/// carry no bound).
fn all(cli: &Cli) -> ExitCode {
    let seed = cli.seed.unwrap_or(metrics::DEFAULT_SEED);
    let mut failed = false;
    for w in &WORKLOADS {
        for trace in [false, true] {
            if trace && !cli.trace {
                continue;
            }
            match child(cli, w.name, trace, seed) {
                Ok((result, listing)) => {
                    for line in listing {
                        println!("{:<14} {line}", w.name);
                    }
                    let failed_ops = result.get("failed").and_then(Json::as_f64).unwrap_or(-1.0);
                    let attempted = result
                        .get("attempted")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    println!(
                        "{:<14} {:<34} {failed_ops:>16} of {attempted}",
                        w.name, "failed"
                    );
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worse_by(m: &Metric, first: f64, second: f64) -> f64 {
    let delta = match m.better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    delta / first.abs().max(f64::MIN_POSITIVE)
}

/// The whole set twice on this binary; each end-to-end metric side by
/// side with its bound. Fails if either run of a pair is worse than the
/// other by more than the bound.
fn selfcheck(cli: &Cli) -> ExitCode {
    let seed = cli.seed.unwrap_or(metrics::DEFAULT_SEED);
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for w in &WORKLOADS {
        let pair = child(cli, w.name, false, seed)
            .and_then(|(a, _)| Ok((a, child(cli, w.name, false, seed + 1)?.0)));
        let (first, second) = match pair {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ok = false;
                continue;
            }
        };
        for m in END_TO_END {
            let (a, b) = (metric_of(&first, m.name), metric_of(&second, m.name));
            let differ = worse_by(m, a, b).max(worse_by(m, b, a));
            let pass = differ.is_finite() && differ <= m.bound;
            ok &= pass;
            println!(
                "{:<14} {:<16} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.1}%  {}",
                w.name,
                m.name,
                differ * 100.0,
                m.bound * 100.0,
                if pass { "ok" } else { "DISAGREE" }
            );
        }
    }
    if ok {
        println!("selfcheck: every pair agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let cli = parse(&argv(
            "--workload paper_curve --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("paper_curve"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (Some(9), Some(12.0), true)
        );
        assert!(cli.mode.is_none() && !cli.smoke);
        let cli = parse(&argv("all --traced --smoke")).unwrap();
        assert_eq!(cli.mode.as_deref(), Some("all"));
        assert!(cli.trace && cli.smoke);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--workload",
            "frobnicate",
            "all all",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let lower = &END_TO_END[0];
        assert_eq!(lower.better, Better::Lower);
        assert!((worse_by(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(lower, 10.0, 9.0) < 0.0);
        let higher = END_TO_END
            .iter()
            .find(|m| m.better == Better::Higher)
            .unwrap();
        assert!((worse_by(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
    }
}
