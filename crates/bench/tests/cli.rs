//! Bench binaries fail loudly on bad input: an unknown, valueless or
//! repeated flag and an unparsable flag value exit 2 instead of running
//! with a default, and a results file that cannot be written exits 1
//! instead of vanishing.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every bench binary, by name and path.
const BINS: [(&str, &str); 7] = [
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("acceptance_rate", env!("CARGO_BIN_EXE_acceptance_rate")),
    ("prune_bench", env!("CARGO_BIN_EXE_prune_bench")),
    (
        "sanitation_overhead",
        env!("CARGO_BIN_EXE_sanitation_overhead"),
    ),
    ("table2_bugs", env!("CARGO_BIN_EXE_table2_bugs")),
    ("table3_coverage", env!("CARGO_BIN_EXE_table3_coverage")),
    ("throughput", env!("CARGO_BIN_EXE_throughput")),
];

fn run(bin: &str, args: &[&str], cwd: &Path) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("bench binary runs")
}

fn throughput(args: &[&str], cwd: &Path) -> Output {
    run(env!("CARGO_BIN_EXE_throughput"), args, cwd)
}

/// Asserts `bin args` exits 2 before running, with `needle` on stderr.
fn assert_usage_error(bin: &str, args: &[&str], needle: &str, cwd: &Path) {
    let out = run(bin, args, cwd);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran");
}

#[test]
fn every_bench_binary_parses_strictly() {
    let dir = scratch_dir("strict");
    for (name, bin) in BINS {
        let help = run(bin, &["--help"], &dir);
        assert_eq!(help.status.code(), Some(0), "{name} --help");
        let usage = String::from_utf8_lossy(&help.stdout);
        assert!(usage.contains(&format!("usage: {name}")), "{usage}");
        assert_usage_error(bin, &["--bogus"], &format!("{name}: unknown flag"), &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_valueless_and_repeated_flags_exit_2() {
    let dir = scratch_dir("flags");
    let bin = |name: &str| BINS.iter().find(|(n, _)| *n == name).unwrap().1;
    for (name, args, needle) in [
        // A misspelled gate must not pass by never running.
        (
            "prune_bench",
            &["--quick", "--chek"][..],
            "unknown flag \"--chek\"; did you mean --check?",
        ),
        // A misspelled size must not run the default 12 000 iterations.
        (
            "table2_bugs",
            &["--iter", "10", "--seeds", "1"][..],
            "unknown flag \"--iter\"; did you mean --iters?",
        ),
        ("throughput", &["--iters"][..], "--iters needs a value"),
        (
            "throughput",
            &["--workers", "--quick"][..],
            "--workers needs a value",
        ),
        (
            "throughput",
            &["--quick", "--quick"][..],
            "--quick given twice",
        ),
        (
            "table3_coverage",
            &["--seeds", "1", "--seeds", "2"][..],
            "--seeds given twice",
        ),
        ("ablation", &["8000"][..], "wrong number of arguments"),
        // A retired mode must break the script that asks for it.
        (
            "throughput",
            &["--exec-micro"][..],
            "unknown flag \"--exec-micro\"",
        ),
    ] {
        assert_usage_error(bin(name), args, needle, &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvf-bench-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn unparsable_values_exit_2() {
    let dir = scratch_dir("args");
    for (args, needle) in [
        (&["--iters", "2k"][..], "invalid value for --iters"),
        (
            &["--quick", "--workers", "1,x"][..],
            "invalid value for --workers",
        ),
        (
            &["--quick", "--workers", "0"][..],
            "invalid value for --workers",
        ),
    ] {
        let out = throughput(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_results_exit_1() {
    // `bench_results` is a plain file here, so the results directory
    // cannot be created.
    let dir = scratch_dir("save");
    std::fs::write(dir.join("bench_results"), "not a directory").expect("write blocker");
    let out = throughput(&["--iters", "1", "--diff-oracle"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
}
