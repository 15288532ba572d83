//! Declarative command-line parsing.
//!
//! Every subcommand declares its flag table — name, whether it takes a
//! value, the displayed default, and a help line — and both the parser and
//! the `--help`/usage text are generated from that one table. Adding a flag
//! is one [`FlagSpec`] entry; unknown options are rejected at parse time.

use std::collections::HashMap;

/// One command-line option of a subcommand.
pub struct FlagSpec {
    /// Name without the leading `--`.
    pub name: &'static str,
    /// Whether the option consumes the following argument as its value.
    pub takes_value: bool,
    /// Default shown in the generated help (`None` for optional/boolean).
    pub default: Option<&'static str>,
    /// One help line.
    pub help: &'static str,
}

/// A valued option.
const fn opt(name: &'static str, default: Option<&'static str>, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: true,
        default,
        help,
    }
}

/// A boolean flag.
const fn flag(name: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: false,
        default: None,
        help,
    }
}

/// One subcommand and its flag table.
pub struct CommandSpec {
    /// Subcommand name.
    pub name: &'static str,
    /// One-line summary for the usage text.
    pub summary: &'static str,
    /// Accepted options, in help order.
    pub flags: &'static [FlagSpec],
}

const DATASET: FlagSpec = opt(
    "dataset",
    Some("rwdata"),
    "rwdata|nbdata|tweets (aliases: rw, nb)",
);
const INPUT: FlagSpec = opt("input", None, "read documents from a JSON Lines file");
const COUNT: FlagSpec = opt("count", Some("10000"), "documents to generate");
const SEED: FlagSpec = opt("seed", Some("42"), "generator seed");
const M: FlagSpec = opt("m", Some("8"), "partitions = Joiner instances (1-64)");
const WINDOW: FlagSpec = opt("window", Some("1500"), "documents per tumbling window");
const PANE: FlagSpec = opt(
    "pane",
    None,
    "documents per pane — sliding windows (use with --slide)",
);
const SLIDE: FlagSpec = opt(
    "slide",
    Some("1"),
    "panes per window; >1 makes the window slide by one pane",
);
const WINDOWS: FlagSpec = opt("windows", None, "truncate the stream to K windows");
const PARTITIONER: FlagSpec = opt("partitioner", Some("ag"), "ag|sc|ds|hash");
const THETA: FlagSpec = opt("theta", Some("0.2"), "repartitioning threshold");
const DELTA: FlagSpec = opt("delta", Some("3"), "unseen-pair update threshold");
const CREATORS: FlagSpec = opt("creators", Some("2"), "PartitionCreator parallelism");
const ASSIGNERS: FlagSpec = opt("assigners", Some("6"), "Assigner parallelism");
const BATCH: FlagSpec = opt("batch", Some("64"), "transport micro-batch size (1 = off)");
const ALGO: FlagSpec = opt("algo", Some("fpj"), "local join algorithm: fpj|nlj|hbj");
const NO_EXPANSION: FlagSpec = flag("no-expansion", "disable attribute-value expansion");
const METRICS_OUT: FlagSpec = opt(
    "metrics-out",
    None,
    "write per-window metrics + trace as JSON lines to FILE",
);
const NO_METRICS: FlagSpec = flag("no-metrics", "disable histogram/trace collection");
const POOL_WORKERS: FlagSpec = opt(
    "pool-workers",
    Some("0"),
    "pool worker threads scheduling the bolt tasks (0 = one per core)",
);
const PIN_CORES: FlagSpec = flag("pin-cores", "pin pool workers to CPU cores (Linux)");
const MEM_BUDGET: FlagSpec = opt(
    "mem-budget",
    Some("0"),
    "spill sealed window state to disk above this many bytes (0 = resident)",
);
const SPILL_DIR: FlagSpec = opt(
    "spill-dir",
    None,
    "directory for spilled segment files (with --mem-budget; default: tmp)",
);
const WORKERS: FlagSpec = opt(
    "workers",
    Some("1"),
    "shared-nothing process-group size: shard the topology over N processes",
);
const JOINS_OUT: FlagSpec = opt(
    "joins-out",
    None,
    "write per-window join pairs to FILE (one `w: a-b ...` line per window)",
);
const WORKER_ID: FlagSpec = opt(
    "worker-id",
    None,
    "internal: worker index of this process in a group run",
);
const SOCKET_DIR: FlagSpec = opt(
    "socket-dir",
    None,
    "internal: directory holding the group's Unix sockets",
);
const ATTEMPT: FlagSpec = opt("attempt", None, "internal: group relaunch attempt number");

/// Every subcommand of the `ssj` binary.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "generate",
        summary: "produce a synthetic document stream as JSON Lines",
        flags: &[
            DATASET,
            COUNT,
            SEED,
            opt("out", None, "write to FILE instead of stdout"),
        ],
    },
    CommandSpec {
        name: "join",
        summary: "join one batch of documents locally",
        flags: &[
            ALGO,
            INPUT,
            DATASET,
            COUNT,
            SEED,
            flag("emit", "print the joined documents"),
            flag("stats", "print FP-tree statistics"),
        ],
    },
    CommandSpec {
        name: "pipeline",
        summary: "run the deterministic window pipeline, print per-window metrics",
        flags: &[
            DATASET,
            INPUT,
            COUNT,
            SEED,
            M,
            WINDOW,
            WINDOWS,
            PARTITIONER,
            THETA,
            DELTA,
            CREATORS,
            opt(
                "window-by",
                None,
                "ATTR:WIDTH — event-time windows instead of counts",
            ),
            NO_EXPANSION,
            flag("csv", "emit per-window rows as CSV"),
            flag("jsonl", "emit per-window rows as JSON lines"),
        ],
    },
    CommandSpec {
        name: "partition",
        summary: "create partitions from one window and dump them",
        flags: &[
            DATASET,
            INPUT,
            COUNT,
            SEED,
            M,
            PARTITIONER,
            NO_EXPANSION,
            opt("save", None, "save the partition snapshot to FILE"),
        ],
    },
    CommandSpec {
        name: "route",
        summary: "route documents with a saved partition snapshot",
        flags: &[
            opt("load", None, "partition snapshot to route with (required)"),
            INPUT,
            DATASET,
            COUNT,
            SEED,
        ],
    },
    CommandSpec {
        name: "stats",
        summary: "attribute statistics of a document batch",
        flags: &[DATASET, INPUT, COUNT, SEED],
    },
    CommandSpec {
        name: "run",
        summary: "run the threaded topology with full observability",
        flags: &[
            DATASET,
            INPUT,
            COUNT,
            SEED,
            M,
            WINDOW,
            PANE,
            SLIDE,
            THETA,
            DELTA,
            CREATORS,
            ASSIGNERS,
            BATCH,
            NO_EXPANSION,
            POOL_WORKERS,
            PIN_CORES,
            MEM_BUDGET,
            SPILL_DIR,
            WORKERS,
            METRICS_OUT,
            NO_METRICS,
            JOINS_OUT,
            flag("dot", "print the topology as Graphviz DOT and exit"),
            WORKER_ID,
            SOCKET_DIR,
            ATTEMPT,
        ],
    },
    CommandSpec {
        name: "help",
        summary: "show this text",
        flags: &[],
    },
];

/// The usage text, generated from [`COMMANDS`].
pub fn usage() -> String {
    let mut s = String::from(
        "ssj — scale-out natural joins over schema-free JSON streams\n\n\
         USAGE: ssj <command> [options]\n\nCOMMANDS\n",
    );
    for c in COMMANDS {
        s.push_str(&format!("  {:<10} {}\n", c.name, c.summary));
        for f in c.flags {
            let left = if f.takes_value {
                format!("--{} <V>", f.name)
            } else {
                format!("--{}", f.name)
            };
            let default = match f.default {
                Some(d) => format!(" [default: {d}]"),
                None => String::new(),
            };
            s.push_str(&format!("             {left:<18} {}{default}\n", f.help));
        }
    }
    s
}

/// Parsed command line: the subcommand plus its options.
#[derive(Debug, Default)]
pub struct Args {
    /// The first positional argument (subcommand).
    pub command: Option<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
    /// Extra positionals after the subcommand.
    pub positionals: Vec<String>,
}

impl Args {
    /// Parse from an iterator of arguments (without the program name).
    /// Options are validated against the subcommand's [`CommandSpec`]:
    /// unknown options and missing values are rejected here.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut spec: Option<&CommandSpec> = None;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let cmd = out.command.as_deref().unwrap_or("<none>");
                let Some(f) = spec.and_then(|s| s.flags.iter().find(|f| f.name == key)) else {
                    return Err(format!("unknown option --{key} for '{cmd}'"));
                };
                if f.takes_value {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("--{key} requires a value"))?;
                    out.options.insert(key.to_owned(), value);
                } else {
                    out.flags.push(key.to_owned());
                }
            } else if out.command.is_none() {
                spec = COMMANDS.iter().find(|c| c.name == arg);
                if spec.is_none() {
                    return Err(format!("unknown command '{arg}'"));
                }
                out.command = Some(arg);
            } else {
                out.positionals.push(arg);
            }
        }
        Ok(out)
    }

    /// Raw string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Typed option with default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| format!("invalid value for --{key}: {e}")),
        }
    }

    /// Boolean flag presence.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Args {
        Args::parse(parts.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn subcommand_options_and_flags() {
        let a = parse(&[
            "pipeline",
            "--m",
            "8",
            "--no-expansion",
            "--dataset",
            "rwdata",
        ]);
        assert_eq!(a.command.as_deref(), Some("pipeline"));
        assert_eq!(a.get("m"), Some("8"));
        assert_eq!(a.get("dataset"), Some("rwdata"));
        assert!(a.flag("no-expansion"));
        assert!(!a.flag("csv"));
    }

    #[test]
    fn typed_defaults() {
        let a = parse(&["generate", "--count", "100"]);
        assert_eq!(a.get_or("count", 10usize).unwrap(), 100);
        assert_eq!(a.get_or("seed", 42u64).unwrap(), 42);
        assert!(a.get_or::<usize>("count", 0).is_ok());
    }

    #[test]
    fn invalid_typed_value_rejected() {
        let a = parse(&["generate", "--count", "xyz"]);
        assert!(a.get_or("count", 1usize).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        let err = Args::parse(["generate".to_string(), "--count".to_string()]).unwrap_err();
        assert!(err.contains("--count"));
    }

    #[test]
    fn unknown_option_rejected_at_parse() {
        let err = Args::parse(["join".to_string(), "--frobnicate".to_string()]).unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
        // The same option is fine on a command that declares it.
        assert!(parse(&["run", "--no-metrics"]).flag("no-metrics"));
    }

    #[test]
    fn unknown_option_rejected_on_every_subcommand() {
        for c in COMMANDS {
            let err = Args::parse([c.name.to_string(), "--frobnicate".to_string()]).unwrap_err();
            assert!(
                err.contains("frobnicate") && err.contains(c.name),
                "{}: {err}",
                c.name
            );
        }
    }

    #[test]
    fn partitioner_only_where_it_is_read() {
        // `ssj run` always partitions with AG, so it rejects `--partitioner`
        // instead of ignoring it.
        let err = Args::parse(["run".into(), "--partitioner".into(), "sc".into()]).unwrap_err();
        assert!(err.starts_with("unknown option --partitioner"), "{err}");
        assert_eq!(
            parse(&["pipeline", "--partitioner", "sc"]).get("partitioner"),
            Some("sc")
        );
        assert_eq!(
            parse(&["partition", "--partitioner", "ds"]).get("partitioner"),
            Some("ds")
        );
    }

    #[test]
    fn degraded_mode_is_gone() {
        // A run out of attempts always fails; there is no flag that fences
        // a task and keeps going with a smaller result.
        let err = Args::parse(["run".into(), "--degraded".into()]).unwrap_err();
        assert!(err.starts_with("unknown option --degraded"), "{err}");
    }

    #[test]
    fn one_run_command() {
        // `run` is the one way to run the free-running topology; `pipeline`
        // runs it in lock-step and always joins.
        let err = Args::parse(["topology".into()]).unwrap_err();
        assert_eq!(err, "unknown command 'topology'");
        let err = Args::parse(["pipeline".into(), "--no-joins".into()]).unwrap_err();
        assert!(err.starts_with("unknown option --no-joins"), "{err}");
        assert!(parse(&["run", "--dot"]).flag("dot"));
    }

    #[test]
    fn topology_knobs_only_where_they_are_read() {
        // The pipeline always runs one Assigner at batch 1 (one Router):
        // `--assigners` and `--batch` shape `run` only.
        for f in ["--assigners", "--batch"] {
            let err = Args::parse(["pipeline".into(), f.into(), "2".into()]).unwrap_err();
            assert!(err.starts_with(&format!("unknown option {f}")), "{err}");
            assert_eq!(parse(&["run", f, "2"]).get(&f[2..]), Some("2"));
        }
    }

    #[test]
    fn unknown_command_rejected() {
        let err = Args::parse(["frobnicate".to_string()]).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
    }

    #[test]
    fn usage_is_generated_from_the_spec() {
        let text = usage();
        for c in COMMANDS {
            assert!(text.contains(c.name), "usage misses {}", c.name);
        }
        assert!(text.contains("--metrics-out"));
        assert!(text.contains("[default: 1500]"));
        assert!(text.contains("--pool-workers"));
        assert!(text.contains("--pin-cores"));
    }

    #[test]
    fn group_run_flags_parse() {
        let a = parse(&["run", "--workers", "3", "--joins-out", "/tmp/j.txt"]);
        assert_eq!(a.get_or("workers", 1usize).unwrap(), 3);
        assert_eq!(a.get("joins-out"), Some("/tmp/j.txt"));
        let child = parse(&[
            "run",
            "--workers",
            "2",
            "--worker-id",
            "1",
            "--socket-dir",
            "/tmp/g",
            "--attempt",
            "0",
        ]);
        assert_eq!(child.get("worker-id"), Some("1"));
        assert_eq!(child.get("socket-dir"), Some("/tmp/g"));
        assert_eq!(child.get_or("attempt", 0u32).unwrap(), 0);
        // Internal flags exist only on `run`.
        assert!(Args::parse(["pipeline".into(), "--worker-id".into(), "1".into()]).is_err());
    }

    #[test]
    fn spill_flags_parse_on_run() {
        let a = parse(&["run", "--mem-budget", "67108864", "--spill-dir", "/tmp/s"]);
        assert_eq!(a.get_or("mem-budget", 0u64).unwrap(), 67_108_864);
        assert_eq!(a.get("spill-dir"), Some("/tmp/s"));
        // `pipeline` keeps every window resident: no spill knobs.
        assert!(Args::parse(["pipeline".into(), "--mem-budget".into(), "1".into()]).is_err());
        for f in ["--mem-budget", "--spill-dir"] {
            assert!(usage().contains(f), "usage misses {f}");
        }
    }

    #[test]
    fn sliding_flags_parse_on_run() {
        let a = parse(&["run", "--pane", "250", "--slide", "4"]);
        assert_eq!(a.get("pane"), Some("250"));
        assert_eq!(a.get_or("slide", 1usize).unwrap(), 4);
        let t = parse(&["run", "--window", "1000", "--slide", "4"]);
        assert_eq!(t.get_or("slide", 1usize).unwrap(), 4);
        // `pipeline` is tumbling-only: no sliding flags there.
        assert!(Args::parse(["pipeline".into(), "--pane".into(), "10".into()]).is_err());
        assert!(usage().contains("--pane"));
        assert!(usage().contains("--slide"));
    }

    #[test]
    fn pool_flags_parse_on_run() {
        let a = parse(&["run", "--pool-workers", "4", "--pin-cores"]);
        assert_eq!(a.get_or("pool-workers", 0usize).unwrap(), 4);
        assert!(a.flag("pin-cores"));
        // One executor: there is no scheduler to choose.
        let err = Args::parse(["run".into(), "--scheduler".into(), "legacy".into()]).unwrap_err();
        assert!(err.contains("--scheduler"), "{err}");
    }
}
