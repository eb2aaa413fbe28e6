//! Minimal `--flag value` argument parsing.
//!
//! The approved dependency set has no argument-parsing crate, and the CLI
//! needs only subcommands plus `--key value` / `--switch` flags — two dozen
//! lines of splitting, kept dependency-free on purpose.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument), if any.
    pub command: Option<String>,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Errors raised while parsing or querying arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` appeared without the value it requires.
    MissingValue(String),
    /// A required flag was absent.
    Required(String),
    /// A flag's value failed to parse.
    Invalid {
        /// Flag name.
        flag: String,
        /// Offending value.
        value: String,
    },
    /// A positional argument appeared where none is accepted.
    UnexpectedPositional(String),
    /// A flag the command does not accept (usually a misspelling).
    Unknown(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "--{flag} requires a value"),
            ArgError::Required(flag) => write!(f, "--{flag} is required"),
            ArgError::Invalid { flag, value } => write!(f, "invalid --{flag} {value:?}"),
            ArgError::UnexpectedPositional(arg) => write!(f, "unexpected argument {arg:?}"),
            ArgError::Unknown(flag) => write!(f, "unknown flag --{flag}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Switch flags (no value). Everything else starting with `--` takes one.
const SWITCHES: &[&str] = &["interval", "help", "quiet", "regime", "robust"];

impl Args {
    /// Parse raw arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = raw.into_iter();
        while let Some(token) = it.next() {
            if let Some(name) = token.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    args.switches.push(name.to_string());
                } else {
                    let value =
                        it.next().ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
                    args.flags.insert(name.to_string(), value);
                }
            } else if args.command.is_none() {
                args.command = Some(token);
            } else {
                return Err(ArgError::UnexpectedPositional(token));
            }
        }
        Ok(args)
    }

    /// Optional string flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// Required string flag.
    pub fn require(&self, flag: &str) -> Result<&str, ArgError> {
        self.get(flag).ok_or_else(|| ArgError::Required(flag.to_string()))
    }

    /// Optional parsed flag: `None` when absent, an error naming the flag
    /// and its value when present but unparsable.
    pub fn get_parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, ArgError> {
        self.get(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| ArgError::Invalid { flag: flag.to_string(), value: v.to_string() })
            })
            .transpose()
    }

    /// Optional parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        Ok(self.get_parsed(flag)?.unwrap_or(default))
    }

    /// Comma-separated list flag with a default.
    pub fn get_list(&self, flag: &str, default: &[usize]) -> Result<Vec<usize>, ArgError> {
        match self.get(flag) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|p| {
                    p.trim().parse::<usize>().map_err(|_| ArgError::Invalid {
                        flag: flag.to_string(),
                        value: p.to_string(),
                    })
                })
                .collect(),
        }
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The name of every flag and switch given.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().chain(&self.switches).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_and_flags() {
        let a = parse(&["forecast", "--input", "x.csv", "--horizon", "6"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("forecast"));
        assert_eq!(a.get("input"), Some("x.csv"));
        assert_eq!(a.get_or::<usize>("horizon", 1).unwrap(), 6);
        assert_eq!(a.get_or::<usize>("steps", 3).unwrap(), 3);
    }

    #[test]
    fn switches_take_no_value() {
        let a = parse(&["forecast", "--interval", "--input", "x.csv"]).unwrap();
        assert!(a.switch("interval"));
        assert_eq!(a.get("input"), Some("x.csv"));
        assert!(!a.switch("quiet"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(matches!(
            parse(&["forecast", "--input"]),
            Err(ArgError::MissingValue(f)) if f == "input"
        ));
    }

    #[test]
    fn require_reports_flag_name() {
        let a = parse(&["forecast"]).unwrap();
        assert_eq!(a.require("input"), Err(ArgError::Required("input".into())));
    }

    #[test]
    fn list_parsing() {
        let a = parse(&["evaluate", "--horizons", "1, 5,10"]).unwrap();
        assert_eq!(a.get_list("horizons", &[1]).unwrap(), vec![1, 5, 10]);
        assert_eq!(a.get_list("other", &[2, 4]).unwrap(), vec![2, 4]);
        let bad = parse(&["evaluate", "--horizons", "1,x"]).unwrap();
        assert!(bad.get_list("horizons", &[1]).is_err());
    }

    #[test]
    fn extra_positional_rejected() {
        assert!(matches!(parse(&["forecast", "extra"]), Err(ArgError::UnexpectedPositional(_))));
    }

    #[test]
    fn invalid_numeric_flag() {
        let a = parse(&["forecast", "--horizon", "six"]).unwrap();
        assert!(matches!(a.get_or::<usize>("horizon", 1), Err(ArgError::Invalid { .. })));
    }
}
