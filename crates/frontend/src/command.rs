//! Command-language parsing for the front-end console.
//!
//! The grammar is deliberately small, in the spirit of the paper's
//! "simple command interpreter":
//!
//! ```text
//! help
//! nodes <P>                      configure the partition size
//! seed <S>                       configure the machine seed
//! backend sim|live               pick the execution backend
//! lb on|off                      toggle dynamic load balancing
//! programs                       list loadable programs
//! run <prog> [k=v ...] [& <prog> [k=v ...] ...]
//! stats                          counters from the last run
//! trace on|off                   toggle the kernel flight recorder
//! trace dump [path]              export the last run's Chrome trace
//! metrics on|off                 toggle the live metrics registry
//! top                            gauge/utilization summary of the last run
//! check                          run the protocol checker on the last run
//! gc                             collect garbage on the last partition
//! quit
//! ```

use hal_kernel::BackendKind;
use std::collections::BTreeMap;

/// One program invocation: name plus `key=value` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSpec {
    /// Catalog name (e.g. `fib`).
    pub name: String,
    /// Arguments.
    pub args: BTreeMap<String, String>,
}

impl ProgramSpec {
    /// Integer argument with a default.
    pub fn int(&self, key: &str, default: i64) -> Result<i64, String> {
        match self.args.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("argument {key}={v} is not an integer")),
        }
    }

    /// String argument with a default.
    pub fn str(&self, key: &str, default: &str) -> String {
        self.args
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}

/// A parsed console command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Show usage.
    Help,
    /// Set partition size.
    Nodes(usize),
    /// Set the machine seed.
    Seed(u64),
    /// Pick the execution backend for subsequent runs.
    Backend(BackendKind),
    /// Toggle load balancing.
    LoadBalancing(bool),
    /// List the program catalog.
    Programs,
    /// Run one or more programs concurrently on one partition.
    Run(Vec<ProgramSpec>),
    /// Print the last run's statistics.
    Stats,
    /// Toggle flight recording for subsequent runs.
    Trace(bool),
    /// Export the last run's trace: Chrome JSON to the given path, or a
    /// summary to the console when no path is given.
    TraceDump(Option<String>),
    /// Toggle the live metrics registry for subsequent runs.
    Metrics(bool),
    /// Print the last run's metrics summary (per-node utilization and
    /// final gauges) — the console's `top`.
    Top,
    /// Run the protocol invariant checker over the last run.
    Check,
    /// Collect garbage on the last run's (quiescent) partition.
    Gc,
    /// Exit the console.
    Quit,
    /// Blank line / comment — nothing to do.
    Nothing,
}

/// Parse one console line.
pub fn parse(line: &str) -> Result<Command, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(Command::Nothing);
    }
    let mut words = line.split_whitespace();
    let head = words.next().expect("nonempty");
    match head {
        "help" => Ok(Command::Help),
        "quit" | "exit" => Ok(Command::Quit),
        "programs" => Ok(Command::Programs),
        "stats" => Ok(Command::Stats),
        "check" => Ok(Command::Check),
        "gc" => Ok(Command::Gc),
        "top" => Ok(Command::Top),
        "metrics" => match words.next() {
            Some("on") => Ok(Command::Metrics(true)),
            Some("off") => Ok(Command::Metrics(false)),
            _ => Err("usage: metrics on|off".into()),
        },
        "nodes" => {
            let n: usize = words
                .next()
                .ok_or("usage: nodes <P>")?
                .parse()
                .map_err(|_| "nodes takes a positive integer".to_string())?;
            if n == 0 || n > u16::MAX as usize {
                return Err("nodes must be in 1..=65535".into());
            }
            Ok(Command::Nodes(n))
        }
        "seed" => {
            let s: u64 = words
                .next()
                .ok_or("usage: seed <S>")?
                .parse()
                .map_err(|_| "seed takes an integer".to_string())?;
            Ok(Command::Seed(s))
        }
        "backend" => match words.next() {
            Some(kind) => kind
                .parse()
                .map(Command::Backend)
                .map_err(|_| "usage: backend sim|live".to_string()),
            None => Err("usage: backend sim|live".into()),
        },
        "lb" => match words.next() {
            Some("on") => Ok(Command::LoadBalancing(true)),
            Some("off") => Ok(Command::LoadBalancing(false)),
            _ => Err("usage: lb on|off".into()),
        },
        "trace" => match words.next() {
            Some("on") => Ok(Command::Trace(true)),
            Some("off") => Ok(Command::Trace(false)),
            Some("dump") => Ok(Command::TraceDump(words.next().map(str::to_string))),
            _ => Err("usage: trace on|off | trace dump [path]".into()),
        },
        "run" => {
            let rest: Vec<&str> = line["run".len()..].trim().split('&').collect();
            let mut specs = Vec::new();
            for part in rest {
                let mut w = part.split_whitespace();
                let name = w.next().ok_or("run: missing program name")?.to_string();
                let mut args = BTreeMap::new();
                for kv in w {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("run: argument `{kv}` is not key=value"))?;
                    args.insert(k.to_string(), v.to_string());
                }
                specs.push(ProgramSpec { name, args });
            }
            if specs.is_empty() {
                return Err("usage: run <prog> [k=v ...] [& <prog> ...]".into());
            }
            Ok(Command::Run(specs))
        }
        other => Err(format!("unknown command `{other}` (try `help`)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_commands() {
        assert_eq!(parse("help").unwrap(), Command::Help);
        assert_eq!(parse("  quit ").unwrap(), Command::Quit);
        assert_eq!(parse("nodes 16").unwrap(), Command::Nodes(16));
        assert_eq!(parse("gc").unwrap(), Command::Gc);
        assert_eq!(parse("seed 42").unwrap(), Command::Seed(42));
        assert_eq!(parse("backend live").unwrap(), Command::Backend(BackendKind::Live));
        assert_eq!(parse("backend sim").unwrap(), Command::Backend(BackendKind::Sim));
        assert_eq!(parse("lb on").unwrap(), Command::LoadBalancing(true));
        assert_eq!(parse("trace on").unwrap(), Command::Trace(true));
        assert_eq!(parse("trace off").unwrap(), Command::Trace(false));
        assert_eq!(parse("trace dump").unwrap(), Command::TraceDump(None));
        assert_eq!(parse("metrics on").unwrap(), Command::Metrics(true));
        assert_eq!(parse("metrics off").unwrap(), Command::Metrics(false));
        assert_eq!(parse("top").unwrap(), Command::Top);
        assert_eq!(parse("check").unwrap(), Command::Check);
        assert_eq!(
            parse("trace dump /tmp/t.json").unwrap(),
            Command::TraceDump(Some("/tmp/t.json".into()))
        );
        assert_eq!(parse("").unwrap(), Command::Nothing);
        assert_eq!(parse("# comment").unwrap(), Command::Nothing);
    }

    #[test]
    fn parses_run_with_args() {
        let Command::Run(specs) = parse("run fib n=20 grain=8").unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].name, "fib");
        assert_eq!(specs[0].int("n", 0).unwrap(), 20);
        assert_eq!(specs[0].int("grain", 0).unwrap(), 8);
        assert_eq!(specs[0].int("missing", 7).unwrap(), 7);
    }

    #[test]
    fn parses_concurrent_programs() {
        let Command::Run(specs) = parse("run fib n=18 & uts seed=3").unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "fib");
        assert_eq!(specs[1].name, "uts");
        assert_eq!(specs[1].int("seed", 0).unwrap(), 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("launch missiles").is_err());
        assert!(parse("nodes zero").is_err());
        assert!(parse("nodes 0").is_err());
        assert!(parse("run fib n").is_err());
        assert!(parse("lb maybe").is_err());
        assert!(parse("backend warp").is_err());
        assert!(parse("backend").is_err());
        assert!(parse("trace maybe").is_err());
        assert!(parse("metrics maybe").is_err());
        assert!(parse("run").is_err());
    }
}
