//! The one argv parser of the `avgi` command, plus the flag groups its
//! commands share (the experiment group is [`crate::Matrix`]).
//!
//! [`Args`] is a pull cursor: a command asks for each flag it knows
//! ([`flag`](Args::flag), [`value`](Args::value)) and then calls
//! [`finish`](Args::finish), which rejects whatever is left. Errors are held
//! until `finish`, so by then the cursor has seen every flag of the command
//! and the usage line it prints is complete without anyone writing it down.
//! A repeated flag is not an error: the last occurrence wins, which is what
//! lets `run_experiments.sh --faults 8` override the budget each call site
//! already names.

use avgi_faultsim::{DurabilityPolicy, RunMode};
use avgi_grid::{ConfigPreset, ServiceConfig, SubmitSpec};
use avgi_muarch::fault::Structure;
use std::path::PathBuf;
use std::time::Duration;

/// A flag value parsed from one argv token.
pub trait FromArg: Sized {
    /// `None` when the token is not a valid value.
    fn from_arg(s: &str) -> Option<Self>;
}

/// The one integer rule: decimal, or hexadecimal behind `0x`.
pub fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

macro_rules! from_arg {
    (int: $($t:ty),*; str: $($s:ty),*) => {
        $(impl FromArg for $t {
            fn from_arg(s: &str) -> Option<Self> {
                parse_u64(s).and_then(|v| <$t>::try_from(v).ok())
            }
        })*
        $(impl FromArg for $s {
            fn from_arg(s: &str) -> Option<Self> {
                s.parse().ok()
            }
        })*
    };
}
from_arg!(int: u64, u32, usize; str: String, PathBuf);

/// Parses a count of at least one.
pub fn positive(s: &str) -> Option<usize> {
    usize::from_arg(s).filter(|&n| n > 0)
}

/// Parses `I/N` with `0 <= I < N` (0-based interleaved shard).
pub fn shard(s: &str) -> Option<(usize, usize)> {
    let (i, n) = s.split_once('/')?;
    let (i, n) = (usize::from_arg(i)?, usize::from_arg(n)?);
    (i < n).then_some((i, n))
}

/// The argv cursor of one `avgi` command.
pub struct Args {
    command: &'static str,
    rest: Vec<String>,
    usage: Vec<String>,
    error: Option<String>,
}

impl Args {
    /// A cursor over `rest`, the tokens after the command name.
    pub fn new(command: &'static str, rest: Vec<String>) -> Self {
        Args {
            command,
            rest,
            usage: Vec::new(),
            error: None,
        }
    }

    /// Whether the boolean flag `name` was given (any number of times).
    pub fn flag(&mut self, name: &'static str) -> bool {
        self.usage.push(format!("[{name}]"));
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() != before
    }

    /// The value of the flag described by `spec` — the flag name, a space,
    /// and the placeholder the usage line shows (`"--faults N"`).
    pub fn value<T: FromArg>(&mut self, spec: &'static str) -> Option<T> {
        self.value_with(spec, T::from_arg)
    }

    /// [`value`](Self::value) with a caller-supplied token parser.
    pub fn value_with<T>(
        &mut self,
        spec: &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Option<T> {
        self.usage.push(format!("[{spec}]"));
        let (name, want) = spec.split_once(' ').unwrap_or((spec, "VALUE"));
        let mut last = None;
        while let Some(at) = self.rest.iter().position(|a| a == name) {
            self.rest.remove(at);
            if at == self.rest.len() {
                self.fail(format!("{name} needs a value ({want})"));
                break;
            }
            let token = self.rest.remove(at);
            last = parse(&token);
            if last.is_none() {
                self.fail(format!("{name} wants {want}, got `{token}`"));
            }
        }
        last
    }

    /// Records an argv error (the first one is the one reported).
    fn fail(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    /// The verdict on the whole argv: the first error, or any token no
    /// flag claimed, with the command's usage line.
    pub fn check(&self) -> Result<(), String> {
        let problem = match (&self.error, self.rest.first()) {
            (Some(e), _) => e.clone(),
            (None, Some(extra)) => format!("unknown argument `{extra}`"),
            (None, None) => return Ok(()),
        };
        Err(format!(
            "avgi {}: {problem}\nusage: avgi {} {}",
            self.command,
            self.command,
            self.usage.join(" ")
        ))
    }

    /// Ends parsing: on any argv error prints it with the usage line to
    /// stderr and exits with status 2.
    pub fn finish(self) {
        if let Err(msg) = self.check() {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// The preset `--small` selects.
pub fn preset(small: bool) -> ConfigPreset {
    if small {
        ConfigPreset::Small
    } else {
        ConfigPreset::Big
    }
}

/// The campaign-submission flag group (`--workload --structure --faults
/// --seed --small --mode --burst --checkpoints`) of the grid commands.
pub fn submit_spec(a: &mut Args, default_faults: usize) -> SubmitSpec {
    let mut spec = SubmitSpec::new("bitcount", Structure::RegFile, default_faults, 0xA461_0001);
    let name = |s: &str| avgi_workloads::by_name(s).map(|w| w.name.to_string());
    spec.workload = a
        .value_with("--workload NAME", name)
        .unwrap_or(spec.workload);
    spec.structure = a
        .value_with("--structure IDENT", Structure::from_ident)
        .unwrap_or(spec.structure);
    spec.faults = a.value("--faults N").unwrap_or(spec.faults);
    spec.seed = a.value("--seed S").unwrap_or(spec.seed);
    spec.preset = preset(a.flag("--small"));
    let mode = |s: &str| match s {
        "end" => Some(RunMode::EndToEnd),
        "instr" => Some(RunMode::Instrumented),
        _ => None,
    };
    spec.mode = a.value_with("--mode end|instr", mode).unwrap_or(spec.mode);
    spec.burst_width = a.value("--burst N").unwrap_or(spec.burst_width);
    spec.checkpoints = a.value("--checkpoints N").unwrap_or(spec.checkpoints);
    spec
}

/// The control-plane flag group (`--bind --batch --lease-ms --journal-dir
/// --fsync-every --deadline-s`): `base` with whatever was given laid over.
pub fn service_config(a: &mut Args, base: ServiceConfig) -> ServiceConfig {
    ServiceConfig {
        bind: a.value("--bind ADDR").unwrap_or(base.bind),
        batch: a.value("--batch N").unwrap_or(base.batch),
        lease_timeout: a
            .value("--lease-ms N")
            .map_or(base.lease_timeout, Duration::from_millis),
        journal_dir: a.value("--journal-dir DIR").or(base.journal_dir),
        durability: match a.value("--fsync-every N") {
            Some(n) if n > 0 => DurabilityPolicy::FsyncEveryN(n),
            _ => base.durability,
        },
        deadline: a
            .value("--deadline-s N")
            .map(Duration::from_secs)
            .or(base.deadline),
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &str) -> Args {
        Args::new("test", argv.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn cursor_accepts_and_rejects_what_it_should() {
        // argv → Ok((--faults, --seed, --small)) or Err(fragment of the message)
        type Parsed = (Option<usize>, Option<u64>, bool);
        let table: &[(&str, Result<Parsed, &str>)] = &[
            ("", Ok((None, None, false))),
            ("--faults 12 --small", Ok((Some(12), None, true))),
            ("--seed 0xA4610001", Ok((None, Some(0xA461_0001), false))),
            (
                "--seed 0XfF --faults 0x10",
                Ok((Some(16), Some(255), false)),
            ),
            ("--seed 2752", Ok((None, Some(2752), false))),
            // Repeated flag: the last one wins, booleans just stay set.
            (
                "--faults 400 --small --faults 8 --small",
                Ok((Some(8), None, true)),
            ),
            ("--faults", Err("--faults needs a value (N)")),
            ("--seed 7 --faults", Err("--faults needs a value (N)")),
            ("--faults many", Err("--faults wants N, got `many`")),
            ("--faults -3", Err("--faults wants N, got `-3`")),
            ("--seed 0x", Err("--seed wants S, got `0x`")),
            ("--fault 3", Err("unknown argument `--fault`")),
            ("--faults 3 extra", Err("unknown argument `extra`")),
        ];
        for (argv, want) in table {
            let mut a = args(argv);
            let got = (
                a.value("--faults N"),
                a.value("--seed S"),
                a.flag("--small"),
            );
            match (a.check(), want) {
                (Ok(()), Ok(want)) => assert_eq!(got, *want, "{argv}"),
                (Err(msg), Err(fragment)) => {
                    assert!(msg.contains(fragment), "{argv}: {msg}");
                    let usage = "usage: avgi test [--faults N] [--seed S] [--small]";
                    assert!(msg.ends_with(usage), "{argv}: {msg}");
                }
                (verdict, _) => panic!("{argv}: unexpected verdict {verdict:?}"),
            }
        }
    }

    #[test]
    fn narrow_integers_and_shards_are_range_checked() {
        let mut a = args("--burst 0x100000000");
        assert_eq!(a.value::<u32>("--burst N"), None);
        assert!(a.check().is_err());
        assert_eq!(u32::from_arg("4294967295"), Some(u32::MAX));
        assert_eq!(u32::from_arg("4294967296"), None);
        for (spec, want) in [
            ("0/1", Some((0, 1))),
            ("3/4", Some((3, 4))),
            ("4/4", None),
            ("1/0", None),
            ("1", None),
            ("a/2", None),
            ("1/2/3", None),
        ] {
            assert_eq!(shard(spec), want, "{spec}");
        }
    }

    #[test]
    fn groups_share_one_rule_per_flag() {
        let mut a = args(
            "--workload sha --structure Rob --seed 0xA4610001 --mode end --burst 2 \
             --bind 127.0.0.1:9 --lease-ms 250 --fsync-every 4",
        );
        let spec = submit_spec(&mut a, 96);
        let cfg = service_config(&mut a, ServiceConfig::default());
        a.check().unwrap();
        assert_eq!(spec.workload, "sha");
        assert_eq!(spec.structure, Structure::Rob);
        assert_eq!((spec.faults, spec.seed), (96, 0xA461_0001));
        assert_eq!((spec.mode, spec.burst_width), (RunMode::EndToEnd, 2));
        assert_eq!((cfg.bind.as_str(), cfg.batch), ("127.0.0.1:9", 16));
        assert_eq!(cfg.lease_timeout, Duration::from_millis(250));
        assert!(matches!(cfg.durability, DurabilityPolicy::FsyncEveryN(4)));

        for bad in ["--workload nope", "--structure Nope", "--mode fast"] {
            let mut a = args(bad);
            submit_spec(&mut a, 96);
            assert!(a.check().is_err(), "{bad}");
        }
    }
}
