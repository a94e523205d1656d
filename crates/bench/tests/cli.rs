//! Bench binaries fail loudly on bad input: an unparsable flag value
//! exits 2 instead of falling back to a default, and a results file
//! that cannot be written exits 1 instead of vanishing.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn throughput(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_throughput"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("throughput binary runs")
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
    let out = throughput(&["--exec-micro", "--execs", "1"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
}
