//! `--quick` runs (one campaign) of every workload, timed and traced,
//! through the binary exactly as a caller invokes it.

use std::process::Command;

use bvf_benchmark::workload::{END_TO_END, PER_LAYER};
use serde_json::Value;

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn smoke(workload: &str) {
    for (trace, catalog) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let out = bench(&[
            "--workload",
            workload,
            "--seed",
            "3",
            "--trace",
            trace,
            "--quick",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload} --trace {trace}: {}\n{stdout}",
            String::from_utf8_lossy(&out.stderr)
        );
        let last = stdout.lines().last().expect("a summary line");
        let summary: Value = serde_json::from_str(last).expect("the last line is JSON");
        assert_eq!(summary["correct"].as_bool(), Some(true));
        assert!(summary["attempted"].as_u64().unwrap() >= 1);
        assert_eq!(summary["failed"].as_u64(), Some(0));
        let metrics = summary["metrics"].as_object().unwrap();
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = catalog.iter().map(|m| m.name).collect();
        expected.sort_unstable();
        assert_eq!(names, expected);
        for m in catalog {
            assert_eq!(metrics[m.name]["unit"].as_str(), Some(m.unit), "{}", m.name);
            assert!(metrics[m.name]["value"].as_f64().is_some(), "{}", m.name);
        }
    }
}

#[test]
fn quick_fuzz_default() {
    smoke("fuzz-default");
}

#[test]
fn quick_fuzz_fresh() {
    smoke("fuzz-fresh");
}

#[test]
fn quick_fuzz_oracles() {
    smoke("fuzz-oracles");
}

#[test]
fn bad_flags_exit_2_and_name_the_closest() {
    let out = bench(&["--workload", "fuzz-fresh", "--sed", "3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("did you mean --seed"));
    let out = bench(&["--workload", "fuzz-fresh", "--seconds", "2k"]);
    assert_eq!(out.status.code(), Some(2));
    let out = bench(&["--workload", "fuzz-nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
