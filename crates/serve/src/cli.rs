//! The flag parser of the `selnet-serve` and `selnet-client` binaries.

/// Tiny positional-free flag parser: every option is `--key value` with
/// `key` one of the subcommand's `names`. Anything else is refused, an
/// unknown option with the binary's usage text.
pub struct Options {
    pairs: Vec<(String, String)>,
}

impl Options {
    /// Parses `args` against the subcommand's option `names`; an unknown
    /// option's error ends with `usage`.
    pub fn parse(args: &[String], names: &[&str], usage: &str) -> Result<Options, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {arg:?}"))?;
            if !names.contains(&key) {
                return Err(format!("unknown option --{key}\n{usage}"));
            }
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Options { pairs })
    }

    /// The last value given for `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for a repeatable option, in order.
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// The last value given for `key`, parsed, or `default` when absent.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} value {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["model", "addr", "connections"];

    fn parse(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Options::parse(&args, NAMES, "usage: x")
    }

    #[test]
    fn known_options_parse_and_the_last_value_wins() {
        let opts = parse(&["--connections", "8", "--addr", "x:1", "--connections", "2"])
            .expect("known options");
        assert_eq!(opts.num("connections", 4usize), Ok(2));
        assert_eq!(opts.num("window", 32usize), Ok(32), "absent: the default");
        assert_eq!(opts.get("addr"), Some("x:1"));
        assert_eq!(
            opts.num::<u8>("addr", 0),
            Err("bad --addr value \"x:1\"".into())
        );
        for (args, err) in [
            (&["--addr"][..], "--addr needs a value"),
            (&["addr", "x:1"], "expected --option, got \"addr\""),
            (
                &["--addr", "x:1", "--window", "4"],
                "unknown option --window\nusage: x",
            ),
        ] {
            assert_eq!(parse(args).err().as_deref(), Some(err));
        }
    }

    #[test]
    fn repeated_model_options_are_all_kept_in_order() {
        let opts = parse(&["--model", "alpha=a", "--addr", "x:1", "--model", "beta=b"])
            .expect("known options");
        assert_eq!(opts.get_all("model"), ["alpha=a", "beta=b"]);
        assert_eq!(opts.get("model"), Some("beta=b"));
    }
}
