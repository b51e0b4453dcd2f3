//! The one timing pass of the `substrate` bench main
//! (`benches/substrate.rs`): every number it records is timed by one
//! best-of-samples `Instant` loop, and its smoke run checks the recorded
//! block's keys against the committed `BENCH_substrate.json`.

use std::process::ExitCode;
use std::time::Instant;

/// Best-of-`samples` mean wall-clock milliseconds of `iters` runs of `f`.
pub fn time_ms(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm up
    let mut best = f64::MAX;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e3 / iters as f64);
    }
    best
}

/// The one timing pass of a bench main. `cargo bench` times every closure
/// with [`time_ms`] and prints the JSON block it measured;
/// `SELNET_BENCH_RECORD=1` also writes that block to its `BENCH_*.json`.
/// `cargo bench -- --test` is the smoke run: every closure runs once and
/// nothing is written — the block's keys are checked against the committed
/// file instead.
pub struct Pass {
    smoke: bool,
}

impl Pass {
    /// The pass cargo asked for: a smoke run when `--test` is on the
    /// command line.
    pub fn from_args() -> Self {
        Pass {
            smoke: std::env::args().any(|a| a == "--test"),
        }
    }

    /// [`time_ms`], or — in a smoke run — one run of `f`, timed once.
    pub fn time_ms(&self, samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
        if !self.smoke {
            return time_ms(samples, iters, f);
        }
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Prints `json`, then either checks its keys against the committed
    /// file at `path` (a smoke run: a key added, dropped, renamed or moved
    /// fails it) or, under `SELNET_BENCH_RECORD=1`, writes it there.
    pub fn finish(&self, path: &str, json: &str) -> ExitCode {
        println!("{json}");
        if self.smoke {
            let committed = match std::fs::read_to_string(path) {
                Ok(committed) => committed,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (ours, theirs) = (json_keys(json), json_keys(&committed));
            if ours != theirs {
                let at = ours.iter().zip(&theirs).take_while(|(a, b)| a == b).count();
                eprintln!(
                    "the recorder's keys differ from {path} at key {at}: {:?} here, {:?} there",
                    ours.get(at),
                    theirs.get(at)
                );
                return ExitCode::FAILURE;
            }
            println!("smoke run: {} keys match {path}", ours.len());
        } else if std::env::var("SELNET_BENCH_RECORD").as_deref() == Ok("1") {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("recorded to {path}");
        }
        ExitCode::SUCCESS
    }
}

/// Every object key of a JSON blob (each string token followed by `:`),
/// in document order — enough to tell whether a recorder still writes the
/// shape a committed `BENCH_*.json` has, without a JSON dependency.
pub fn json_keys(blob: &str) -> Vec<&str> {
    let mut keys = Vec::new();
    let mut rest = blob;
    while let Some(open) = rest.find('"') {
        let body = &rest[open + 1..];
        let mut end = 0;
        let bytes = body.as_bytes();
        while end < bytes.len() && bytes[end] != b'"' {
            end += if bytes[end] == b'\\' { 2 } else { 1 };
        }
        let end = end.min(body.len());
        rest = body.get(end + 1..).unwrap_or("");
        if rest.trim_start().starts_with(':') {
            keys.push(&body[..end]);
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keys_lists_keys_in_order_and_skips_values() {
        let blob = r#"{ "a": 1, "b": { "c": "x: y", "d": "say \"e\": no" },
                        "f" : [ "g", "h" ], "": 0 }"#;
        assert_eq!(json_keys(blob), ["a", "b", "c", "d", "f", ""]);
        assert!(json_keys("").is_empty());
        assert_eq!(json_keys(r#"{ "cut"#), Vec::<&str>::new());
        // the committed artifact scans from its first key to its last
        let keys = json_keys(include_str!("../../../BENCH_substrate.json"));
        assert_eq!(keys[..3], ["description", "parallel", "machine_cpus"]);
        assert_eq!(keys.last(), Some(&"notes"));
    }
}
