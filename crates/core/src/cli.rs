//! Strict command-line parsing, shared by the `bvf` tool and the bench
//! binaries.
//!
//! A command declares its grammar as a [`Command`]: how many positional
//! arguments it takes and the [`Flag`]s it accepts. [`Args::parse`]
//! checks the arguments against it. An unknown flag (with the closest
//! known name suggested), a flag missing its value, a repeated flag or a
//! wrong number of positional arguments exits 2 before anything runs:
//! a typo must not run silently with a default. `--help` prints the
//! usage and exits 0.

use std::collections::BTreeMap;
use std::process::exit;
use std::str::FromStr;

/// One flag a command accepts.
pub struct Flag {
    /// The flag, with its leading `--`.
    pub name: &'static str,
    /// Whether the flag takes a value (`--seed 7`) or stands alone.
    pub takes_value: bool,
}

/// A flag that takes a value (`--seed 7`).
pub const fn val(name: &'static str) -> Flag {
    Flag {
        name,
        takes_value: true,
    }
}

/// A flag that stands alone (`--quick`).
pub const fn bare(name: &'static str) -> Flag {
    Flag {
        name,
        takes_value: false,
    }
}

/// One command's grammar.
pub struct Command {
    /// The command as typed (`"bvf corpus export"`, `"throughput"`);
    /// every usage error names it.
    pub name: &'static str,
    /// How many positional arguments it takes: at least `.0`, at most `.1`.
    pub positional: (usize, usize),
    /// The flag groups it accepts.
    pub flags: &'static [&'static [Flag]],
}

/// A command's parsed arguments.
pub struct Args {
    /// `--name` → value (`""` for a bare flag).
    flags: BTreeMap<&'static str, String>,
    /// The non-flag arguments, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Parses `argv` (the words after the command) strictly against
    /// `cmd`'s grammar, printing `usage` for `--help`.
    pub fn parse(cmd: &Command, argv: &[String], usage: &str) -> Args {
        let fail = |msg: String| -> ! {
            eprintln!("{}: {msg}", cmd.name);
            exit(2)
        };
        let known = || cmd.flags.iter().flat_map(|group| group.iter());
        let mut args = Args {
            flags: BTreeMap::new(),
            positional: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                println!("{usage}");
                exit(0);
            }
            if !arg.starts_with("--") {
                args.positional.push(arg.clone());
                continue;
            }
            let Some(flag) = known().find(|f| f.name == arg) else {
                let nearest = known()
                    .map(|f| (levenshtein(arg, f.name), f.name))
                    .filter(|&(d, _)| d <= arg.len().max(4) / 2)
                    .min();
                match nearest {
                    Some((_, near)) => fail(format!("unknown flag {arg:?}; did you mean {near}?")),
                    None => fail(format!("unknown flag {arg:?}")),
                }
            };
            let value = if flag.takes_value {
                match it.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => fail(format!("{} needs a value", flag.name)),
                }
            } else {
                String::new()
            };
            if args.flags.insert(flag.name, value).is_some() {
                fail(format!("{} given twice", flag.name));
            }
        }
        let (min, max) = cmd.positional;
        if !(min..=max).contains(&args.positional.len()) {
            fail(format!("wrong number of arguments: {:?}", args.positional));
        }
        args
    }

    /// [`Args::parse`] over the process arguments after the program name.
    pub fn from_env(cmd: &Command, usage: &str) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(cmd, &argv, usage)
    }

    /// The value of flag `name`, if given.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Whether flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Parses `name`'s value, exiting 2 if it does not parse — a
    /// mistyped number must not silently fall back to a default.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Option<T> {
        self.opt(name)
            .map(|v| v.parse().unwrap_or_else(|_| invalid_value(name, v)))
    }

    /// [`Args::parsed`], or `default` when the flag is absent.
    pub fn parsed_or<T: FromStr>(&self, name: &str, default: T) -> T {
        self.parsed(name).unwrap_or(default)
    }
}

/// Exits 2 with a usage error for flag `name`'s unparsable value.
pub fn invalid_value(name: &str, value: &str) -> ! {
    eprintln!("invalid value for {name}: {value:?}");
    exit(2)
}

/// Edit distance, for "did you mean" suggestions.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = if ca == cb { prev } else { prev + 1 };
            prev = row[j + 1];
            row[j + 1] = cost.min(row[j] + 1).min(prev + 1);
        }
    }
    row[b.len()]
}
