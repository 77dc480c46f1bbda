//! Minimal `--flag value` command-line parsing for the experiment
//! binaries (kept dependency-free on purpose).

use std::collections::HashMap;
use std::str::FromStr;

/// Parsed command-line flags. Every experiment accepts `--scale`,
/// `--seed`, `--pairs`, `--sample-every`, `--out` (and some add their
/// own). Malformed input — a bare word, a flag without a value,
/// `--help`, a value that does not parse — prints the usage line and
/// exits 2 from the binaries; [`Args::parse`] and [`Args::try_get`]
/// return the [`ArgError`] instead.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
}

/// Why a command line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// `--help` / `-h` was given: the caller wants the usage line.
    Help,
    /// Anything else, with the message to print.
    Invalid(String),
}

/// Prints the error (unless help was asked for) and the usage line to
/// stderr, then exits 2.
fn usage_exit(err: &ArgError) -> ! {
    let bin = std::env::args()
        .next()
        .and_then(|p| {
            let name = std::path::Path::new(&p).file_name()?;
            Some(name.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "xsi-bench".to_string());
    if let ArgError::Invalid(msg) = err {
        eprintln!("{bin}: {msg}");
    }
    eprintln!(
        "usage: {bin} [--flag value]...\n\
         every flag takes exactly one value (e.g. --scale 0.05 --seed 42); \
         the binary's module docs list its flags"
    );
    std::process::exit(2);
}

impl Args {
    /// Parses `std::env::args()`, expecting alternating `--key value`
    /// pairs. Malformed input prints the usage line and exits 2.
    pub fn parse_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e))
    }

    /// Parses an explicit iterator of `--key value` pairs.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, ArgError> {
        let mut values = HashMap::new();
        let mut args = args.peekable();
        while let Some(key) = args.next() {
            if key == "--help" || key == "-h" {
                return Err(ArgError::Help);
            }
            let Some(name) = key.strip_prefix("--") else {
                return Err(ArgError::Invalid(format!("expected --flag, got {key:?}")));
            };
            let Some(value) = args.next() else {
                return Err(ArgError::Invalid(format!("flag --{name} needs a value")));
            };
            values.insert(name.to_string(), value);
        }
        Ok(Args { values })
    }

    /// A flag parsed as `T`, or `default` when absent; a value that
    /// does not parse is an error.
    pub fn try_get<T: FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                let ty = std::any::type_name::<T>();
                ArgError::Invalid(format!("--{name} expects a {ty} value, got {v:?}"))
            }),
        }
    }

    /// [`Args::try_get`], printing usage and exiting 2 on a bad value.
    fn value_or_exit<T: FromStr>(&self, name: &str, default: T) -> T {
        self.try_get(name, default)
            .unwrap_or_else(|e| usage_exit(&e))
    }

    /// A float flag with a default.
    pub fn f64(&self, name: &str, default: f64) -> f64 {
        self.value_or_exit(name, default)
    }

    /// An integer flag with a default.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.value_or_exit(name, default)
    }

    /// A u64 flag with a default.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        self.value_or_exit(name, default)
    }

    /// A string flag.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, ArgError> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    fn invalid(err: ArgError) -> String {
        match err {
            ArgError::Invalid(msg) => msg,
            ArgError::Help => panic!("expected an invalid-input error"),
        }
    }

    #[test]
    fn parses_pairs() {
        let a = parse(&["--scale", "0.5", "--seed", "7", "--out", "x.csv"]).unwrap();
        assert_eq!(a.f64("scale", 1.0), 0.5);
        assert_eq!(a.u64("seed", 0), 7);
        assert_eq!(a.str("out"), Some("x.csv"));
        assert_eq!(a.usize("pairs", 100), 100);
    }

    #[test]
    fn help_is_an_error() {
        assert_eq!(parse(&["--help"]).unwrap_err(), ArgError::Help);
        assert_eq!(parse(&["--seed", "1", "-h"]).unwrap_err(), ArgError::Help);
    }

    #[test]
    fn missing_value_is_an_error() {
        let msg = invalid(parse(&["--scale"]).unwrap_err());
        assert_eq!(msg, "flag --scale needs a value");
    }

    #[test]
    fn non_numeric_scale_is_an_error() {
        let a = parse(&["--scale", "big", "--pairs", "-3"]).unwrap();
        let msg = invalid(a.try_get("scale", 0.05f64).unwrap_err());
        assert_eq!(msg, "--scale expects a f64 value, got \"big\"");
        assert!(a.try_get("pairs", 1usize).is_err());
        assert_eq!(a.try_get("seed", 42u64), Ok(42));
    }

    #[test]
    fn positional_is_an_error() {
        let msg = invalid(parse(&["bare"]).unwrap_err());
        assert_eq!(msg, "expected --flag, got \"bare\"");
    }
}
