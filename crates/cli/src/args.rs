//! Minimal dependency-free argument parsing for the `anomex` CLI.

use std::collections::BTreeMap;

/// Parsed command line: subcommand + `--key value` options. An option
/// may repeat (`--in a.bin --in b.bin`); [`get`](Args::get) reads the
/// last occurrence and [`get_all`](Args::get_all) reads them all, in
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: BTreeMap<String, Vec<String>>,
    flags: Vec<String>,
}

/// Error while interpreting the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// No subcommand given.
    NoCommand,
    /// `--key` given without a value (and not a known boolean flag).
    MissingValue(String),
    /// A positional argument appeared after the subcommand.
    UnexpectedPositional(String),
    /// An option's value failed to parse.
    BadValue {
        /// The option name.
        key: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::NoCommand => write!(f, "no command given; try `anomex help`"),
            ArgsError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgsError::UnexpectedPositional(p) => {
                write!(f, "unexpected argument {p:?}; options start with --")
            }
            ArgsError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "--{key} {value:?}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for ArgsError {}

/// Boolean flags that take no value.
const BOOL_FLAGS: [&str; 9] = [
    "prefixes",
    "intersection",
    "verbose",
    "top",
    "rules",
    "rare",
    "force-rare",
    "resume",
    "timings",
];

impl Args {
    /// Parse an iterator of arguments (excluding the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, ArgsError> {
        let mut iter = args.into_iter().peekable();
        let command = iter.next().ok_or(ArgsError::NoCommand)?;
        if command.starts_with("--") {
            return Err(ArgsError::NoCommand);
        }
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ArgsError::UnexpectedPositional(arg));
            };
            if BOOL_FLAGS.contains(&key) {
                flags.push(key.to_string());
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| ArgsError::MissingValue(key.to_string()))?;
            options
                .entry(key.to_string())
                .or_insert_with(Vec::new)
                .push(value);
        }
        Ok(Args {
            command,
            options,
            flags,
        })
    }

    /// A string option (the last occurrence, when repeated).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .get(key)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// Every occurrence of a repeatable option, in command-line order
    /// (empty when the option was not given).
    #[must_use]
    pub fn get_all(&self, key: &str) -> &[String] {
        self.options.get(key).map_or(&[], Vec::as_slice)
    }

    /// A required string option with error text.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// A typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgsError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// Whether a boolean flag was given.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// How many times `--key` was given, as a flag or an option.
    #[must_use]
    pub fn count(&self, key: &str) -> usize {
        self.flags.iter().filter(|f| *f == key).count() + self.get_all(key).len()
    }

    /// Every key given: the flags in command-line order, then the
    /// options by name.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        (self.flags.iter().chain(self.options.keys())).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, ArgsError> {
        Args::parse(s.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse(&["generate", "--seed", "42", "--out", "x.nfv5", "--prefixes"]).unwrap();
        assert_eq!(a.command, "generate");
        assert_eq!(a.get("seed"), Some("42"));
        assert_eq!(a.get("out"), Some("x.nfv5"));
        assert!(a.flag("prefixes"));
        assert!(!a.flag("intersection"));
    }

    #[test]
    fn typed_defaults() {
        let a = parse(&["extract", "--support", "500"]).unwrap();
        assert_eq!(a.get_or("support", 100u64).unwrap(), 500);
        assert_eq!(a.get_or("scale", 0.25f64).unwrap(), 0.25);
        assert!(a.get_or::<u64>("support", 1).is_ok());
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(parse(&[]).unwrap_err(), ArgsError::NoCommand);
        assert_eq!(
            parse(&["x", "--seed"]).unwrap_err(),
            ArgsError::MissingValue("seed".into())
        );
        assert_eq!(
            parse(&["x", "stray"]).unwrap_err(),
            ArgsError::UnexpectedPositional("stray".into())
        );
        let a = parse(&["x", "--support", "abc"]).unwrap();
        assert!(a.get_or("support", 1u64).is_err());
    }

    #[test]
    fn require_reports_the_key() {
        let a = parse(&["x"]).unwrap();
        assert!(a.require("in").unwrap_err().contains("--in"));
    }

    #[test]
    fn resume_is_a_bool_flag() {
        let a = parse(&["stream", "--resume", "--checkpoint-dir", "ck"]).unwrap();
        assert!(a.flag("resume"));
        assert_eq!(a.get("checkpoint-dir"), Some("ck"));
    }

    #[test]
    fn repeated_options_accumulate_in_order() {
        let a = parse(&["stream", "--in", "a.bin", "--in", "b.bin", "--in", "c.bin"]).unwrap();
        assert_eq!(a.get_all("in"), ["a.bin", "b.bin", "c.bin"]);
        assert_eq!(a.get("in"), Some("c.bin"), "get reads the last");
        assert!(a.get_all("out").is_empty(), "absent option is empty");
    }
}
