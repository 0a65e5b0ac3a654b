//! Hand-rolled argument parsing: `--name value` options, flags, and
//! `node@time` event specifications.

use can_types::{BitTime, NodeId};
/// The duration grammar the flags share with `.canely` and `.campaign`
/// files (`30ms`, `2500us`, raw bit-times; overflow is rejected).
pub use canely_campaign::parse_duration;
use std::collections::HashMap;
use std::fmt;

/// A parsing/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error: {}", self.0)
    }
}

impl std::error::Error for ArgError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ArgError> {
    Err(ArgError(msg.into()))
}

/// A scheduled event: `node@time`, e.g. `3@250ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The node concerned.
    pub node: NodeId,
    /// The instant.
    pub at: BitTime,
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    command: String,
    subcommand: Option<String>,
    options: HashMap<String, Vec<String>>,
    flags: Vec<String>,
    used: Vec<String>,
}

impl Args {
    /// Parses `argv` (program name excluded).
    ///
    /// # Errors
    ///
    /// Returns an error for a missing command or a dangling option.
    pub fn parse(argv: &[String]) -> Result<Args, ArgError> {
        let mut iter = argv.iter().peekable();
        let Some(command) = iter.next() else {
            return err("missing command");
        };
        let mut subcommand = None;
        if let Some(next) = iter.peek() {
            if !next.starts_with("--") {
                subcommand = Some(iter.next().expect("peeked").clone());
            }
        }
        let mut options: HashMap<String, Vec<String>> = HashMap::new();
        let mut flags = Vec::new();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return err(format!("unexpected positional argument `{arg}`"));
            };
            match iter.peek() {
                Some(value) if !value.starts_with("--") => {
                    let value = iter.next().expect("peeked").clone();
                    options.entry(name.to_string()).or_default().push(value);
                }
                _ => flags.push(name.to_string()),
            }
        }
        Ok(Args {
            command: command.clone(),
            subcommand,
            options,
            flags,
            used: Vec::new(),
        })
    }

    /// The command word.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// The optional subcommand word.
    pub fn subcommand(&self) -> Option<&str> {
        self.subcommand.as_deref()
    }

    /// Whether a boolean flag was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let present = self.flags.iter().any(|f| f == name);
        if present {
            self.used.push(name.to_string());
        }
        present
    }

    fn take(&mut self, name: &str) -> Option<Vec<String>> {
        let values = self.options.remove(name);
        if values.is_some() {
            self.used.push(name.to_string());
        }
        values
    }

    /// A `usize` option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub fn usize_opt(&mut self, name: &str, default: usize) -> Result<usize, ArgError> {
        match self.take(name) {
            None => Ok(default),
            Some(values) => values
                .last()
                .expect("non-empty")
                .parse()
                .map_err(|_| ArgError(format!("--{name} expects an integer"))),
        }
    }

    /// An `f64` option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub fn f64_opt(&mut self, name: &str, default: f64) -> Result<f64, ArgError> {
        match self.take(name) {
            None => Ok(default),
            Some(values) => values
                .last()
                .expect("non-empty")
                .parse()
                .map_err(|_| ArgError(format!("--{name} expects a number"))),
        }
    }

    /// A `u64` seed option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub fn u64_opt(&mut self, name: &str, default: u64) -> Result<u64, ArgError> {
        match self.take(name) {
            None => Ok(default),
            Some(values) => values
                .last()
                .expect("non-empty")
                .parse()
                .map_err(|_| ArgError(format!("--{name} expects an integer"))),
        }
    }

    /// A free-form string option (e.g. a file path); `None` when the
    /// option was not given.
    pub fn str_opt(&mut self, name: &str) -> Option<String> {
        self.take(name)
            .map(|values| values.last().expect("non-empty").clone())
    }

    /// A duration option (`30ms`, `2500us`, or raw bit-times).
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub fn duration_opt(&mut self, name: &str, default: BitTime) -> Result<BitTime, ArgError> {
        match self.take(name) {
            None => Ok(default),
            Some(values) => parse_duration(values.last().expect("non-empty"))
                .ok_or_else(|| ArgError(format!("--{name} expects a duration like 30ms"))),
        }
    }

    /// All `node@time` events of a repeatable option.
    ///
    /// # Errors
    ///
    /// Returns an error if any value does not parse.
    pub fn events(&mut self, name: &str) -> Result<Vec<Event>, ArgError> {
        let Some(values) = self.take(name) else {
            return Ok(Vec::new());
        };
        values
            .iter()
            .map(|v| {
                parse_event(v).ok_or_else(|| {
                    ArgError(format!("--{name} expects NODE@TIME (e.g. 3@250ms), got `{v}`"))
                })
            })
            .collect()
    }

    /// Fails on unrecognized leftovers so typos surface.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first unknown option or flag.
    pub fn reject_unused(&self) -> Result<(), String> {
        if let Some(name) = self.options.keys().next() {
            return Err(format!("error: unknown option --{name}"));
        }
        if let Some(flag) = self.flags.iter().find(|f| !self.used.contains(f)) {
            return Err(format!("error: unknown flag --{flag}"));
        }
        Ok(())
    }
}

/// Parses `node@time`, e.g. `3@250ms`.
pub fn parse_event(text: &str) -> Option<Event> {
    let (node, time) = text.split_once('@')?;
    let node: u8 = node.parse().ok()?;
    if node as usize >= can_types::MAX_NODES {
        return None;
    }
    Some(Event {
        node: NodeId::new(node),
        at: parse_duration(time)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_subcommand_options_flags() {
        let mut args = Args::parse(&argv(&[
            "baseline", "osek", "--nodes", "16", "--crash", "3@250ms", "--journal",
        ]))
        .unwrap();
        assert_eq!(args.command(), "baseline");
        assert_eq!(args.subcommand(), Some("osek"));
        assert_eq!(args.usize_opt("nodes", 4).unwrap(), 16);
        assert_eq!(
            args.events("crash").unwrap(),
            vec![Event {
                node: NodeId::new(3),
                at: BitTime::new(250_000)
            }]
        );
        assert!(args.flag("journal"));
        assert!(args.reject_unused().is_ok());
    }

    #[test]
    fn repeatable_events() {
        let mut args =
            Args::parse(&argv(&["membership", "--crash", "1@10ms", "--crash", "2@20ms"]))
                .unwrap();
        let events = args.events("crash").unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].at, BitTime::new(20_000));
    }

    #[test]
    fn durations_accept_all_forms() {
        assert_eq!(parse_duration("30ms"), Some(BitTime::new(30_000)));
        assert_eq!(parse_duration("2500us"), Some(BitTime::new(2_500)));
        assert_eq!(parse_duration("1234"), Some(BitTime::new(1_234)));
        assert_eq!(parse_duration("abc"), None);
        assert_eq!(parse_duration("3.5ms"), None, "fractional not supported");
    }

    #[test]
    fn bad_event_is_rejected() {
        assert_eq!(parse_event("64@10ms"), None, "node out of range");
        assert_eq!(parse_event("3-10ms"), None);
        assert_eq!(parse_event("x@10ms"), None);
    }

    #[test]
    fn unknown_options_surface() {
        let mut args = Args::parse(&argv(&["membership", "--typo", "7"])).unwrap();
        let _ = args.usize_opt("nodes", 4);
        assert!(args.reject_unused().is_err());
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(Args::parse(&[]).is_err());
    }

    #[test]
    fn defaults_apply() {
        let mut args = Args::parse(&argv(&["membership"])).unwrap();
        assert_eq!(args.usize_opt("nodes", 4).unwrap(), 4);
        assert_eq!(
            args.duration_opt("tm", BitTime::new(30_000)).unwrap(),
            BitTime::new(30_000)
        );
        assert!(!args.flag("journal"));
    }
}
