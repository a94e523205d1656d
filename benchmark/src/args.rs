//! Strict command-line parsing: an unknown flag, a missing value, or a
//! value that does not parse is an error naming the problem, never a
//! silent fall-back to a default.

use std::collections::BTreeMap;

/// One flag the program accepts.
pub struct FlagSpec {
    /// The flag, with its leading `--`.
    pub name: &'static str,
    /// Whether the flag takes a value (`--seed 7`) or stands alone.
    pub takes_value: bool,
}

/// Parsed flags: `--name` → value (`""` for a bare flag).
#[derive(Debug)]
pub struct Args(BTreeMap<&'static str, String>);

impl Args {
    /// Parses `argv` (without the program name) against `known`.
    pub fn parse(known: &[FlagSpec], argv: &[String]) -> Result<Args, String> {
        let mut out = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let spec = known.iter().find(|f| f.name == arg).ok_or_else(|| {
                match closest(arg, known.iter().map(|f| f.name)) {
                    Some(near) => format!("unknown flag {arg:?}; did you mean {near}?"),
                    None => format!("unknown flag {arg:?}"),
                }
            })?;
            let value = if spec.takes_value {
                it.next()
                    .ok_or_else(|| format!("{} needs a value", spec.name))?
                    .clone()
            } else {
                String::new()
            };
            if out.insert(spec.name, value).is_some() {
                return Err(format!("{} given twice", spec.name));
            }
        }
        Ok(Args(out))
    }

    /// Whether a flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The raw value of a flag, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    /// The parsed value of a flag, or `default` when absent.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
        }
    }
}

/// The candidate nearest to `word` by edit distance, if any is within
/// half the word's length.
fn closest<'a>(word: &str, candidates: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    candidates
        .map(|c| (edit_distance(word, c), c))
        .filter(|&(d, _)| d <= word.len().max(4) / 2)
        .min()
        .map(|(_, c)| c)
}

fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diag + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[FlagSpec] = &[
        FlagSpec {
            name: "--seed",
            takes_value: true,
        },
        FlagSpec {
            name: "--quick",
            takes_value: false,
        },
    ];

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_values_and_bare_flags() {
        let a = Args::parse(KNOWN, &argv("--seed 7 --quick")).unwrap();
        assert_eq!(a.parsed("--seed", 1u64), Ok(7));
        assert!(a.flag("--quick"));
        let a = Args::parse(KNOWN, &[]).unwrap();
        assert_eq!(a.parsed("--seed", 41u64), Ok(41));
    }

    #[test]
    fn unknown_flag_names_the_closest() {
        let e = Args::parse(KNOWN, &argv("--sed 7")).unwrap_err();
        assert!(e.contains("did you mean --seed"), "{e}");
        let e = Args::parse(KNOWN, &argv("--frobnicate")).unwrap_err();
        assert!(!e.contains("did you mean"), "{e}");
    }

    #[test]
    fn bad_values_are_errors() {
        let a = Args::parse(KNOWN, &argv("--seed 2k")).unwrap();
        assert!(a.parsed("--seed", 1u64).is_err());
        assert!(Args::parse(KNOWN, &argv("--seed")).is_err());
        assert!(Args::parse(KNOWN, &argv("--seed 1 --seed 2")).is_err());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("seed", "seed"), 0);
        assert_eq!(edit_distance("sed", "seed"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
    }
}
