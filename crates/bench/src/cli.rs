//! Command-line parsing shared by the workspace binaries.
//!
//! Every command is a [`Command`] table naming the flags it accepts and
//! whether each takes a value. [`Command::run`] reads argv in one
//! left-to-right pass against it and hands the [`Args`] to the command,
//! which reads typed values through `FromStr`. The observability flags
//! (`--trace-out`, `--metrics-out`, `--obs-summary`) belong to every
//! table, and [`Args`] owns their collector, so `repro` and `pv-serve`
//! cannot drift.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

const OBS_VALUES: [&str; 2] = ["--trace-out", "--metrics-out"];
const OBS_SUMMARY: &str = "--obs-summary";

/// One command's flag table.
pub struct Command {
    /// The prefix of the command's usage errors (`sweep`, `pv-serve`).
    pub name: &'static str,
    /// Printed by `--help`/`-h` and after a usage error.
    pub help: &'static str,
    /// The flags that take the next token as their value,
    /// whitespace-separated.
    pub values: &'static str,
    /// The flags that take no value, whitespace-separated.
    pub switches: &'static str,
    /// Whether the command takes operands: tokens that are neither flags
    /// nor flag values.
    pub operands: bool,
    /// Runs the command on its parsed arguments. Usage errors must be
    /// returned before the command does anything.
    pub main: fn(&Args) -> Result<(), CliError>,
}

/// Why a command line did not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h` was given.
    Help,
    /// The command line is invalid; the message names the culprit.
    Usage(String),
}

/// A usage error carrying `msg`.
pub fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// A parsed command line: its flags in order of appearance and its
/// operands.
#[derive(Debug, Default)]
pub struct Args {
    flags: Vec<(&'static str, Option<String>)>,
    /// The operands, in order.
    pub operands: Vec<String>,
}

impl Command {
    /// Reads `argv` in one left-to-right pass. A value flag takes the
    /// next token, even one starting with `--`.
    ///
    /// # Errors
    /// [`CliError::Help`] on `--help`/`-h`; a usage error naming the
    /// token for an unknown flag, an operand the command does not take,
    /// or a value flag with no value after it.
    pub fn parse(&self, argv: &[String]) -> Result<Args, CliError> {
        let mut args = Args::default();
        let mut tokens = argv.iter();
        let find = |table: &'static str, obs: &[&'static str], token: &str| {
            table
                .split_whitespace()
                .chain(obs.iter().copied())
                .find(|f| *f == token)
        };
        while let Some(token) = tokens.next().map(String::as_str) {
            if let Some(flag) = find(self.values, &OBS_VALUES, token) {
                let value = tokens
                    .next()
                    .ok_or_else(|| usage(format!("{flag} needs a value")))?;
                args.flags.push((flag, Some(value.clone())));
            } else if let Some(flag) = find(self.switches, &[OBS_SUMMARY], token) {
                args.flags.push((flag, None));
            } else if token == "--help" || token == "-h" {
                return Err(CliError::Help);
            } else if token.starts_with("--") || !self.operands {
                return Err(usage(format!("unknown flag {token:?}")));
            } else {
                args.operands.push(token.to_string());
            }
        }
        Ok(args)
    }

    /// Parses `argv` and runs the command on it. On `--help` prints the
    /// help to stdout and exits 0; on a usage error prints `<name>:
    /// <message>`, a blank line and the help to stderr and exits 2. This
    /// is the only place a command line ends the process.
    pub fn run(&self, argv: &[String]) {
        match self.parse(argv).and_then(|args| (self.main)(&args)) {
            Ok(()) => {}
            Err(CliError::Help) => {
                println!("{}", self.help);
                std::process::exit(0);
            }
            Err(CliError::Usage(msg)) => {
                eprintln!("{}: {msg}\n\n{}", self.name, self.help);
                std::process::exit(2);
            }
        }
    }
}

/// Where a binary's subcommand name sits in `argv`: the first token that
/// is neither an observability flag nor such a flag's value.
pub fn subcommand_index(argv: &[String]) -> Option<usize> {
    let mut i = 0;
    while let Some(token) = argv.get(i) {
        match token.as_str() {
            t if OBS_VALUES.contains(&t) => i += 2,
            OBS_SUMMARY => i += 1,
            _ => return Some(i),
        }
    }
    None
}

impl Args {
    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// Every value given to `flag`, in order, for flags that accumulate.
    pub fn all<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.flags
            .iter()
            .filter(move |(f, _)| *f == flag)
            .filter_map(|(_, v)| v.as_deref())
    }

    /// The value of `flag`'s last occurrence.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().rev().find(|(f, _)| *f == flag)?;
        value.as_deref()
    }

    /// Which of `flags` occurred last, for flags that override each other.
    pub fn last_of(&self, flags: &[&str]) -> Option<&'static str> {
        self.flags
            .iter()
            .rev()
            .map(|(f, _)| *f)
            .find(|f| flags.contains(f))
    }

    /// `flag`'s value as a path.
    pub fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// `flag`'s value parsed as `T`, or `default` when it was not given.
    ///
    /// # Errors
    /// A usage error naming the flag when the value does not parse.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> Result<T, CliError>
    where
        T::Err: Display,
    {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| usage(format!("{flag}: {v:?}: {e}"))),
        }
    }

    /// `flag`'s value as a comma list, each item trimmed and read by
    /// `parse`, if the flag was given.
    ///
    /// # Errors
    /// A usage error naming the flag and the item that does not parse.
    pub fn list<T, E: Display>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, E>,
    ) -> Result<Option<Vec<T>>, CliError> {
        let items = |v: &str| {
            v.split(',')
                .map(|t| parse(t.trim()).map_err(|e| usage(format!("{flag}: {t:?}: {e}"))))
                .collect()
        };
        self.value(flag).map(items).transpose()
    }

    /// Installs the pv-obs collector when any observability output was
    /// asked for.
    pub fn install_obs(&self) -> Option<pv_obs::Collector> {
        let active = OBS_VALUES.iter().any(|f| self.value(f).is_some()) || self.has(OBS_SUMMARY);
        active.then(pv_obs::Collector::install)
    }

    /// Finishes the observability session, writes the requested files,
    /// and prints the summary table over `summary_counters`. A write
    /// failure warns but does not abort: the run's real output is
    /// already out.
    pub fn finalize_obs(&self, collector: Option<pv_obs::Collector>, summary_counters: &[&str]) {
        let Some(collector) = collector else { return };
        let report = collector.finish();
        // File notices go to stderr: for `pv-serve` stdout is the
        // protocol channel, and for `repro` they are diagnostics, not
        // exhibit output.
        if let Some(path) = self.path("--trace-out") {
            match pv_obs::write_trace(&path, &report.events) {
                Ok(()) => eprintln!(
                    "trace: {} events -> {}",
                    report.events.len(),
                    path.display()
                ),
                Err(e) => eprintln!("warning: cannot write trace {}: {e}", path.display()),
            }
        }
        if let Some(path) = self.path("--metrics-out") {
            match pv_obs::write_metrics(&path, &report.metrics) {
                Ok(()) => eprintln!(
                    "metrics: {} counters, {} gauges, {} histograms -> {}",
                    report.metrics.counters.len(),
                    report.metrics.gauges.len(),
                    report.metrics.histograms.len(),
                    path.display()
                ),
                Err(e) => eprintln!("warning: cannot write metrics {}: {e}", path.display()),
            }
        }
        if self.has(OBS_SUMMARY) {
            println!();
            println!("{}", pv_obs::render_summary(&report, summary_counters));
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    const CMD: Command = Command {
        name: "test",
        help: "test help",
        values: "--cache --require --runs",
        switches: "--no-cache",
        operands: true,
        main: |_| Ok(()),
    };

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn the_last_value_wins_and_accumulating_flags_keep_every_value() {
        let args = CMD
            .parse(&argv(&[
                "--runs",
                "5",
                "--require",
                "a",
                "--runs",
                "7",
                "--require",
                "b",
            ]))
            .unwrap();
        assert_eq!(args.get("--runs", 0usize), Ok(7));
        assert_eq!(args.all("--require").collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(args.value("--require"), Some("b"));
        assert_eq!(
            args.get("--cache", 3usize),
            Ok(3),
            "absent flag takes the default"
        );
    }

    #[test]
    fn a_value_flag_takes_the_next_token_even_when_it_looks_like_a_flag() {
        let args = CMD.parse(&argv(&["--cache", "--help", "--runs", "--no-cache"]));
        let args = args.unwrap();
        assert_eq!(args.value("--cache"), Some("--help"));
        assert_eq!(args.value("--runs"), Some("--no-cache"));
        assert!(!args.has("--no-cache"));
    }

    #[test]
    fn overriding_flags_resolve_by_position() {
        let args = CMD
            .parse(&argv(&["--no-cache", "--cache", "d", "--no-cache"]))
            .unwrap();
        assert_eq!(args.last_of(&["--cache", "--no-cache"]), Some("--no-cache"));
        let args = CMD.parse(&argv(&["--no-cache", "--cache", "d"])).unwrap();
        assert_eq!(args.last_of(&["--cache", "--no-cache"]), Some("--cache"));
    }

    #[test]
    fn errors_name_the_flag() {
        let err = |tokens: &[&str]| match CMD.parse(&argv(tokens)) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        };
        assert!(err(&["--runs"]).contains("--runs"));
        assert!(err(&["--cache", "d", "--bogus"]).contains("--bogus"));
        let args = CMD.parse(&argv(&["--runs", "x"])).unwrap();
        match args.get("--runs", 0usize) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("--runs"), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
        let args = CMD.parse(&argv(&["--runs", "1, 2,x"])).unwrap();
        match args.list("--runs", str::parse::<usize>) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("--runs") && msg.contains("\"x\"")),
            other => panic!("expected a usage error, got {other:?}"),
        }
        assert_eq!(args.list("--cache", str::parse::<usize>), Ok(None));
    }

    #[test]
    fn help_wins_and_operands_are_kept_in_order() {
        assert_eq!(CMD.parse(&argv(&["a", "-h"])).unwrap_err(), CliError::Help);
        assert_eq!(CMD.parse(&argv(&["--help"])).unwrap_err(), CliError::Help);
        let args = CMD.parse(&argv(&["a", "--no-cache", "b"])).unwrap();
        assert_eq!(args.operands, ["a", "b"]);
        assert!(args.has("--no-cache"));
    }

    #[test]
    fn obs_flags_are_found_before_the_subcommand_and_among_its_flags() {
        let mut tokens = argv(&[
            "--trace-out",
            "t.jsonl",
            "--obs-summary",
            "sub",
            "--runs",
            "3",
            "--metrics-out",
            "m.json",
        ]);
        let at = subcommand_index(&tokens).unwrap();
        assert_eq!(tokens.remove(at), "sub");
        let args = CMD.parse(&tokens).unwrap();
        assert_eq!(args.value("--trace-out"), Some("t.jsonl"));
        assert_eq!(args.value("--metrics-out"), Some("m.json"));
        assert!(args.has("--obs-summary"));
        assert_eq!(args.get("--runs", 0usize), Ok(3));
        assert!(args.operands.is_empty());
        // Obs flags alone: no subcommand; a path that names one is still a path.
        assert_eq!(subcommand_index(&argv(&["--trace-out", "sub"])), None);
        assert_eq!(subcommand_index(&argv(&[])), None);
    }
}
