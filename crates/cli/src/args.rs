//! Minimal `--flag value` argument reading.
//!
//! The approved dependency set has no argument-parsing crate, and the CLI
//! needs only subcommands plus `--key value` / `--switch` flags. There is
//! no flag table: [`Args`] keeps the raw tokens, and each read consumes
//! what it names — [`Args::switch`] a bare `--name`, [`Args::get`] a
//! `--name` plus the token after it. A verb's reads are therefore its
//! whole grammar, and [`Args::finish`] reports whatever no read consumed.
//! A value never starts with `--`, so which token is a flag does not
//! depend on the order of the reads.

use std::str::FromStr;
use std::time::Duration;

/// A command line: raw tokens, each marked once a read consumes it.
#[derive(Debug, Clone)]
pub struct Args {
    tokens: Vec<String>,
    consumed: Vec<bool>,
    /// Every flag a read asked for, with whether it takes a value.
    #[cfg(test)]
    pub asked: Vec<(String, bool)>,
}

/// Errors raised while reading arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` appeared without the value it requires.
    MissingValue(String),
    /// A required flag was absent.
    Required(String),
    /// A flag's value failed to parse or lies outside the flag's domain.
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

/// Flag domains for [`Args::get_parsed`]: each maps a parsed value to the
/// value a command uses, or to `None` when it lies outside the domain.
pub fn any<T>(value: T) -> Option<T> {
    Some(value)
}

/// A count: at least one.
pub fn at_least_one<T: PartialOrd + From<u8>>(n: T) -> Option<T> {
    (n >= T::from(1)).then_some(n)
}

/// A rate or a size: finite and above zero.
pub fn positive(x: f64) -> Option<f64> {
    (x.is_finite() && x > 0.0).then_some(x)
}

/// A span of seconds: finite, at least zero, and representable.
pub fn seconds(s: f64) -> Option<Duration> {
    Duration::try_from_secs_f64(s).ok()
}

/// A forecast horizon: at least one step, and small enough for the
/// wire's and the WAL's `u32`.
pub fn horizon(h: u32) -> Option<usize> {
    at_least_one(h).map(|h| h as usize)
}

impl Args {
    /// The raw arguments (excluding the program name), nothing consumed.
    pub fn new<I: IntoIterator<Item = String>>(raw: I) -> Args {
        let tokens: Vec<String> = raw.into_iter().collect();
        Args {
            consumed: vec![false; tokens.len()],
            tokens,
            #[cfg(test)]
            asked: Vec::new(),
        }
    }

    /// Consume every `--flag` token and return their positions.
    fn take(&mut self, flag: &str) -> Vec<usize> {
        let wanted = format!("--{flag}");
        let positions: Vec<usize> =
            (0..self.tokens.len()).filter(|&i| self.tokens[i] == wanted).collect();
        for &i in &positions {
            self.consumed[i] = true;
        }
        positions
    }

    /// Consume the subcommand: the first token no read has consumed, when
    /// it is not a flag.
    pub fn command(&mut self) -> Option<String> {
        let first = self.consumed.iter().position(|c| !c)?;
        if self.tokens[first].starts_with("--") {
            return None;
        }
        self.consumed[first] = true;
        Some(self.tokens[first].clone())
    }

    /// Whether a boolean switch was given.
    pub fn switch(&mut self, name: &str) -> bool {
        #[cfg(test)]
        self.asked.push((name.to_string(), false));
        !self.take(name).is_empty()
    }

    /// Optional string flag; given twice, the last value wins.
    pub fn get(&mut self, flag: &str) -> Result<Option<String>, ArgError> {
        #[cfg(test)]
        self.asked.push((flag.to_string(), true));
        let mut value = None;
        for at in self.take(flag) {
            match self.tokens.get(at + 1) {
                Some(v) if !v.starts_with("--") => {
                    self.consumed[at + 1] = true;
                    value = Some(v.clone());
                }
                _ => return Err(ArgError::MissingValue(flag.to_string())),
            }
        }
        Ok(value)
    }

    /// Required string flag.
    pub fn require(&mut self, flag: &str) -> Result<String, ArgError> {
        self.get(flag)?.ok_or_else(|| ArgError::Required(flag.to_string()))
    }

    /// Optional typed flag: `None` when absent, an error naming the flag
    /// and its value when it does not parse as `T` or `domain` refuses it.
    pub fn get_parsed<T: FromStr, U>(
        &mut self,
        flag: &str,
        domain: impl Fn(T) -> Option<U>,
    ) -> Result<Option<U>, ArgError> {
        self.get(flag)?.map(|v| parse_in(flag, &v, &domain)).transpose()
    }

    /// Optional typed flag with a default.
    pub fn get_or<T: FromStr, U>(
        &mut self,
        flag: &str,
        default: U,
        domain: impl Fn(T) -> Option<U>,
    ) -> Result<U, ArgError> {
        Ok(self.get_parsed(flag, domain)?.unwrap_or(default))
    }

    /// Comma-separated list flag with a default; `domain` applies to each
    /// entry.
    pub fn get_list<T: FromStr, U: Clone>(
        &mut self,
        flag: &str,
        default: &[U],
        domain: impl Fn(T) -> Option<U>,
    ) -> Result<Vec<U>, ArgError> {
        match self.get(flag)? {
            None => Ok(default.to_vec()),
            Some(v) => v.split(',').map(|p| parse_in(flag, p.trim(), &domain)).collect(),
        }
    }

    /// Every token must have been consumed by a read: the first one left
    /// over is an unknown flag or a stray positional argument.
    pub fn finish(&self) -> Result<(), ArgError> {
        match self.tokens.iter().zip(&self.consumed).find(|(_, consumed)| !**consumed) {
            None => Ok(()),
            Some((token, _)) => Err(match token.strip_prefix("--") {
                Some(flag) => ArgError::Unknown(flag.to_string()),
                None => ArgError::UnexpectedPositional(token.clone()),
            }),
        }
    }
}

fn parse_in<T: FromStr, U>(
    flag: &str,
    value: &str,
    domain: impl Fn(T) -> Option<U>,
) -> Result<U, ArgError> {
    value
        .parse()
        .ok()
        .and_then(domain)
        .ok_or_else(|| ArgError::Invalid { flag: flag.to_string(), value: value.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::new(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_and_flags() {
        let mut a = args(&["forecast", "--input", "x.csv", "--horizon", "6"]);
        assert_eq!(a.command().as_deref(), Some("forecast"));
        assert_eq!(a.get("input").unwrap().as_deref(), Some("x.csv"));
        assert_eq!(a.get_or("horizon", 1usize, any).unwrap(), 6);
        assert_eq!(a.get_or("steps", 3usize, any).unwrap(), 3);
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn switches_take_no_value() {
        let mut a = args(&["forecast", "--interval", "--input", "x.csv"]);
        assert!(a.switch("interval"));
        assert_eq!(a.get("input").unwrap().as_deref(), Some("x.csv"));
        assert!(!a.switch("quiet"));
        // A switch never takes the token after it: a stray value is left
        // over, and so is a misspelt switch, whatever follows it.
        let mut a = args(&["--interval", "3"]);
        assert!(a.switch("interval"));
        assert_eq!(a.finish(), Err(ArgError::UnexpectedPositional("3".into())));
        let mut a = args(&["--intervall", "--input", "x.csv"]);
        assert_eq!(a.get("input").unwrap().as_deref(), Some("x.csv"));
        assert_eq!(a.finish(), Err(ArgError::Unknown("intervall".into())));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            args(&["forecast", "--input"]).get("input"),
            Err(ArgError::MissingValue("input".into()))
        );
        // A flag is never a value, so the answer does not depend on which
        // of the two is read first.
        let mut a = args(&["--input", "--quiet"]);
        assert_eq!(a.get("input"), Err(ArgError::MissingValue("input".into())));
        assert!(a.switch("quiet"));
    }

    #[test]
    fn require_reports_flag_name() {
        let mut a = args(&["forecast"]);
        assert_eq!(a.require("input"), Err(ArgError::Required("input".into())));
    }

    #[test]
    fn list_parsing() {
        let mut a = args(&["evaluate", "--horizons", "1, 5,10"]);
        assert_eq!(a.get_list("horizons", &[1], horizon).unwrap(), vec![1, 5, 10]);
        assert_eq!(a.get_list("other", &[2, 4], horizon).unwrap(), vec![2, 4]);
        let mut bad = args(&["evaluate", "--horizons", "1,x"]);
        assert!(bad.get_list("horizons", &[1], horizon).is_err());
        let mut zero = args(&["evaluate", "--horizons", "1,0"]);
        assert_eq!(
            zero.get_list("horizons", &[1], horizon),
            Err(ArgError::Invalid { flag: "horizons".into(), value: "0".into() })
        );
    }

    #[test]
    fn extra_positional_rejected() {
        let mut a = args(&["forecast", "extra"]);
        assert_eq!(a.command().as_deref(), Some("forecast"));
        assert!(matches!(a.finish(), Err(ArgError::UnexpectedPositional(_))));
    }

    #[test]
    fn invalid_numeric_flag() {
        let mut a = args(&["forecast", "--horizon", "six"]);
        assert!(matches!(a.get_or("horizon", 1usize, any), Err(ArgError::Invalid { .. })));
    }

    #[test]
    fn domains_refuse_out_of_range_values() {
        for junk in ["0", "-1", "nan", "inf", "1e309"] {
            let mut a = args(&["--qps", junk]);
            assert_eq!(
                a.get_parsed("qps", positive),
                Err(ArgError::Invalid { flag: "qps".into(), value: junk.into() })
            );
        }
        assert_eq!(args(&["--qps", "0.5"]).get_parsed("qps", positive), Ok(Some(0.5)));
        assert!(args(&["--shards", "0"]).get_or("shards", 2usize, at_least_one).is_err());
        assert!(args(&["--duration-s", "inf"]).get_parsed("duration-s", seconds).is_err());
        assert!(args(&["--duration-s", "-1"]).get_parsed("duration-s", seconds).is_err());
        assert_eq!(
            args(&["--duration-s", "0"]).get_parsed("duration-s", seconds),
            Ok(Some(Duration::ZERO))
        );
        assert!(args(&["--horizon", "4294967296"]).get_parsed("horizon", horizon).is_err());
    }
}
