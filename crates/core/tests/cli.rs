//! Command-line contract of the `bvf` binary: unknown flags, missing
//! values and bad flag values fail loudly, and a finding replays and minimizes under the same oracle
//! flags as the campaign that found it.

use std::path::PathBuf;
use std::process::{Command, Output};

use bvf::corpus::CorpusSnapshot;

fn bvf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bvf"))
        .args(args)
        .output()
        .expect("bvf binary runs")
}

fn fixture(name: &str) -> String {
    format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = bvf(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn unparsable_numeric_flags_exit_2() {
    // `--iters 2k` once ran 5000 iterations and `--seed x` seed 1.
    assert_usage_error(&["fuzz", "--iters", "2k"], "invalid value for --iters");
    assert_usage_error(
        &["fuzz", "--iters", "10", "--seed", "x"],
        "invalid value for --seed",
    );
    assert_usage_error(
        &["fuzz", "--iters", "10", "--batch-len", "-1"],
        "invalid value for --batch-len",
    );
    assert_usage_error(
        &["worker", "--connect", "127.0.0.1:1", "--max-batches", "two"],
        "invalid value for --max-batches",
    );
}

#[test]
fn no_sanitize_conflicts_with_san_diff() {
    // The dual run is sanitized, then unsanitized: `--no-sanitize` used
    // to be ignored silently.
    for cmd in ["fuzz", "replay"] {
        let mut args = vec![cmd];
        let path = fixture("indicator3_or_bounds.json");
        if cmd == "replay" {
            args.push(&path);
        } else {
            args.extend(["--iters", "10"]);
        }
        args.extend(["--no-sanitize", "--san-diff"]);
        assert_usage_error(&args, "--no-sanitize conflicts with --san-diff");
    }
}

#[test]
fn replay_and_minimize_arm_both_oracles_together() {
    // `bvf fuzz --san-diff --diff-oracle` arms both oracles, so its
    // Indicator #3 findings must reproduce under the same two flags.
    let path = fixture("indicator3_or_bounds.json");
    let out = bvf(&["replay", &path, "--san-diff", "--diff-oracle"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("signature: Three:statediv:r3"), "{stdout}");
    assert!(stdout.contains("sancheck: 1 dual runs"), "{stdout}");
    assert!(stdout.contains("culprits: [BoundsRefinement]"), "{stdout}");

    let min: PathBuf =
        std::env::temp_dir().join(format!("bvf-cli-{}.min.json", std::process::id()));
    let min_str = min.to_str().expect("utf-8 temp path");
    let out = bvf(&[
        "minimize",
        &path,
        "--san-diff",
        "--diff-oracle",
        "--out",
        min_str,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("signature: Three:statediv:r3"), "{stdout}");
    let out = bvf(&["replay", min_str, "--san-diff", "--diff-oracle"]);
    let _ = std::fs::remove_file(&min);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("signature: Three:statediv:r3"), "{stdout}");
}

#[test]
fn unknown_flags_exit_2_with_the_closest_name() {
    // `--san-dif` once ran the campaign without the oracle it names.
    assert_usage_error(
        &["fuzz", "--iters", "10", "--san-dif"],
        "unknown flag \"--san-dif\"; did you mean --san-diff?",
    );
    assert_usage_error(
        &["sancheck", "--matrx"],
        "unknown flag \"--matrx\"; did you mean --matrix?",
    );
    assert_usage_error(&["fuzz", "--frobnicate"], "unknown flag \"--frobnicate\"");
    // Retired flags and defects: a script still passing them must
    // break, not run on silently.
    assert_usage_error(
        &["fuzz", "--backend", "compiled"],
        "bvf fuzz: unknown flag \"--backend\"",
    );
    assert_usage_error(
        &["worker", "--connect", "127.0.0.1:1", "--backend", "interp"],
        "bvf worker: unknown flag \"--backend\"",
    );
    assert_usage_error(
        &[
            "minimize",
            &fixture("indicator3_or_bounds.json"),
            "--jobs",
            "2",
        ],
        "bvf minimize: unknown flag \"--jobs\"",
    );
    assert_usage_error(
        &["fuzz", "--san-diff", "--san-defect", "fused-check-elision"],
        "unknown sanitizer defect \"fused-check-elision\"",
    );
    // Flags are per subcommand: a replay has no iteration count.
    assert_usage_error(
        &[
            "replay",
            &fixture("indicator3_or_bounds.json"),
            "--iters",
            "10",
        ],
        "bvf replay: unknown flag \"--iters\"",
    );
}

#[test]
fn valueless_repeated_and_stray_arguments_exit_2() {
    assert_usage_error(&["fuzz", "--iters"], "--iters needs a value");
    // A flag is never taken as the previous flag's value.
    assert_usage_error(
        &["fuzz", "--json-out", "--san-diff"],
        "--json-out needs a value",
    );
    assert_usage_error(
        &["fuzz", "--seed", "1", "--seed", "2"],
        "--seed given twice",
    );
    assert_usage_error(&["replay"], "wrong number of arguments");
    assert_usage_error(&["fuzz", "stray"], "wrong number of arguments");
}

#[test]
fn help_prints_usage_instead_of_running() {
    // `bvf fuzz --help` once ran a 5000-iteration campaign.
    for args in [&["fuzz", "--help"][..], &["--help"], &["replay", "-h"]] {
        let out = bvf(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}");
        assert!(stdout.starts_with("usage:"), "{args:?}: {stdout}");
        assert!(!stdout.contains("iterations"), "{args:?} ran: {stdout}");
    }
}

#[test]
fn unwritable_findings_dir_exits_1() {
    // `/dev/null` is not a directory, so nothing can be created under
    // it: a filesystem error exits 1 with a message, never a panic.
    let out = bvf(&["fuzz", "--iters", "10", "--save-findings", "/dev/null/x"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot create findings dir /dev/null/x"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn unwritable_outputs_fail_before_the_first_iteration() {
    // Each of these once ran every iteration and only then exited 1.
    let cases: [(&[&str], &str); 5] = [
        (&["--json-out", "/dev/null/x"], "cannot create stats file"),
        (
            &["--corpus-out", "/dev/null/x"],
            "cannot create corpus snapshot",
        ),
        (&["--trace-out", "/dev/null/x"], "cannot create trace file"),
        (
            &["--workers", "2", "--trace-out", "/dev/null/x"],
            "cannot create trace file",
        ),
        (
            &["--save-findings", "/dev/null/x"],
            "cannot create findings dir",
        ),
    ];
    for (flags, needle) in cases {
        let mut args = vec!["fuzz", "--iters", "10", "--stats-every", "1"];
        args.extend(flags);
        let out = bvf(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{needle} /dev/null/x")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed results");
        assert!(!stderr.contains(" iter "), "{args:?} ran: {stderr}");
    }
}

#[test]
fn a_trace_write_error_exits_1_at_any_worker_count() {
    // `/dev/full` opens and then fails every write. One worker used to
    // exit 0 with the trace cut short.
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    for workers in ["1", "2"] {
        let args = [
            "fuzz",
            "--iters",
            "64",
            "--workers",
            workers,
            "--trace-out",
            "/dev/full",
        ];
        let out = bvf(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("cannot write trace file /dev/full"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn serve_names_an_unusable_state_dir() {
    // The address was fine; the state dir was not.
    let out = bvf(&["serve", "--listen", "127.0.0.1:0", "--state", "/dev/null/x"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot create state dir /dev/null/x"),
        "{stderr}"
    );
    assert!(!stderr.contains("cannot bind"), "{stderr}");
}

/// The value after `label ` in `line`, e.g. `cov 666` → 666.
fn field(line: &str, label: &str) -> usize {
    let mut words = line.split_whitespace();
    words.find(|w| *w == label);
    let value = words
        .next()
        .unwrap_or_else(|| panic!("no {label} in {line:?}"));
    value
        .parse()
        .unwrap_or_else(|_| panic!("{label} {value:?} in {line:?}"))
}

#[test]
fn final_progress_line_prints_the_campaign_totals() {
    // The 1-worker meter once summed per-batch finding counts and
    // printed the running batch's mutation pool as the corpus; the
    // multi-worker one summed per-batch coverage and corpus growth.
    for workers in ["1", "2"] {
        let args = [
            "fuzz",
            "--iters",
            "600",
            "--seed",
            "11",
            "--stats-every",
            "200",
            "--workers",
            workers,
        ];
        let out = bvf(&args);
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(out.status.success(), "{args:?}: {stderr}");
        let last = stderr
            .lines()
            .find(|l| l.starts_with("[100%]"))
            .unwrap_or_else(|| panic!("{args:?}: no final progress line in {stderr}"));
        let summary = stdout
            .lines()
            .find(|l| l.starts_with("iterations "))
            .expect("summary line");
        let findings = stdout.matches("\nfinding at iteration").count();
        assert!(findings > 0, "{args:?}: the campaign must find something");
        assert_eq!(field(last, "cov"), field(summary, "coverage"), "{args:?}");
        assert_eq!(field(last, "findings"), findings, "{args:?}");
        assert_eq!(field(last, "corpus"), field(summary, "corpus"), "{args:?}");
    }
}

#[test]
fn corpus_out_leaves_a_one_worker_trace_unchanged() {
    // `--corpus-out` once moved a 1-worker run onto the thread pool,
    // which tagged every trace line with `"worker":0`.
    let dir = std::env::temp_dir().join(format!("bvf-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| {
        dir.join(name)
            .to_str()
            .expect("utf-8 temp path")
            .to_string()
    };
    let trace = |extra: &[&str], name: &str| {
        let file = path(name);
        let mut args = vec![
            "fuzz",
            "--iters",
            "200",
            "--seed",
            "3",
            "--trace-out",
            &file,
        ];
        args.extend(extra);
        let out = bvf(&args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&file).expect("trace written");
        text.lines()
            .map(|l| {
                let mut v: serde_json::Value = serde_json::from_str(l).expect("JSONL");
                let serde_json::Value::Object(event) = &mut v else {
                    panic!("not an event object: {l}");
                };
                for timing in ["t_ns", "do_check_ns", "total_ns", "triage_ns"] {
                    event.remove(timing);
                }
                v
            })
            .collect::<Vec<_>>()
    };
    let plain = trace(&[], "plain.jsonl");
    let snap = path("snap.json");
    let with_snapshot = trace(&["--corpus-out", &snap], "snap.jsonl");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!plain.is_empty());
    assert_eq!(plain, with_snapshot);
}

/// The count in front of `word` in `line`, e.g. `12 loads` → 12.
fn count_before(line: &str, word: &str) -> usize {
    let words: Vec<&str> = line.split_whitespace().collect();
    let at = words
        .iter()
        .position(|w| *w == word)
        .unwrap_or_else(|| panic!("no {word} in {line:?}"));
    words[at.checked_sub(1).expect("a count first")]
        .parse()
        .unwrap_or_else(|_| panic!("count before {word} in {line:?}"))
}

#[test]
fn report_splits_verifier_time_by_verdict() {
    // Seed 7 hits the verifier's complexity limit once in 300 iterations.
    let dir = std::env::temp_dir().join(format!("bvf-cli-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("t.jsonl").to_str().expect("utf-8").to_string();
    let fuzz = bvf(&[
        "fuzz",
        "--iters",
        "300",
        "--seed",
        "7",
        "--trace-out",
        &trace,
    ]);
    assert!(
        fuzz.status.success(),
        "{}",
        String::from_utf8_lossy(&fuzz.stderr)
    );
    let out = bvf(&["report", &trace]);
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let lines: Vec<&str> = stdout.lines().collect();
    let verified = count_before(lines[0], "programs");
    let accepted = count_before(lines[0], "accepted");
    let at = lines
        .iter()
        .position(|l| *l == "verifier time by verdict:")
        .unwrap_or_else(|| panic!("no verifier time section in {stdout}"));
    let rows = &lines[at + 1..at + 4];
    let loads = |label: &str| {
        let row = rows
            .iter()
            .find(|r| r.trim_start().starts_with(label))
            .unwrap_or_else(|| panic!("no {label} row in {rows:?}"));
        count_before(row, "loads")
    };
    let limit = loads("complexity limit");
    assert_eq!(loads("accepted"), accepted, "{stdout}");
    assert_eq!(
        accepted + limit + loads("other rejections"),
        verified,
        "{stdout}"
    );
    let reason_row = lines
        .iter()
        .find(|l| l.trim_start().starts_with("complexity_limit "))
        .unwrap_or_else(|| panic!("no complexity_limit rejections in {stdout}"));
    assert_eq!(field(reason_row, "complexity_limit"), limit, "{stdout}");
    assert!(limit >= 1, "{stdout}");
}

#[test]
fn snapshots_with_impossible_iteration_ranges_exit_1() {
    // Each broken copy of the committed snapshot (3 batches of 32) once
    // passed `corpus info`, `corpus import` and `fuzz --corpus-in`; an
    // overflowing batch made a debug build's import panic.
    let text = std::fs::read_to_string(fixture("corpus_snapshot_v1.json")).expect("fixture");
    let good = CorpusSnapshot::from_json(&text).expect("fixture validates");
    type Break = fn(&mut CorpusSnapshot);
    let cases: [(&str, Break); 4] = [
        ("batch_len is 0", |s| s.batch_len = 0),
        ("batch 1 runs 33 iterations", |s| {
            s.batches[1].iterations = 33;
            s.iterations = 97;
        }),
        ("batch 2 iteration range", |s| {
            s.batches[2].start = usize::MAX - 10
        }),
        ("header claims 4611686018427387904 iterations", |s| {
            s.iterations = 1 << 62
        }),
    ];
    let dir = std::env::temp_dir().join(format!("bvf-cli-corpus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let merged = dir.join("merged.json");
    let merged = merged.to_str().expect("utf-8 temp path");
    for (i, (needle, br)) in cases.into_iter().enumerate() {
        let mut bad = good.clone();
        br(&mut bad);
        let path = dir.join(format!("bad{i}.json"));
        std::fs::write(&path, bad.to_json()).expect("write snapshot");
        let path = path.to_str().expect("utf-8 temp path");
        for args in [
            vec!["corpus", "info", path],
            vec!["corpus", "import", path, "--out", merged],
            vec!["fuzz", "--iters", "10", "--corpus-in", path],
        ] {
            let out = bvf(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains(needle), "{args:?}: {stderr}");
        }
        assert!(
            !std::path::Path::new(merged).exists(),
            "{needle}: merged file written"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaigns_too_large_to_schedule_exit_2() {
    // Each once panicked allocating the lease schedule (exit 101), and
    // `--remote` poisoned the coordinator it reached. Nothing runs or
    // connects: the check comes first.
    let out = std::env::temp_dir().join(format!("bvf-cli-export-{}.json", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    let iters = "18446744073709551615";
    for args in [
        vec!["fuzz", "--iters", iters],
        vec!["fuzz", "--iters", iters, "--remote", "127.0.0.1:9"],
        vec!["corpus", "export", "--out", out, "--iters", iters],
    ] {
        assert_usage_error(&args, "raise --batch-len");
    }
    assert!(!std::path::Path::new(out).exists(), "export wrote {out}");
}

#[test]
fn truncated_snapshot_import_exits_1_naming_the_file() {
    let text = std::fs::read(fixture("corpus_snapshot_v1.json")).expect("fixture");
    let path = std::env::temp_dir().join(format!("bvf-cli-truncated-{}.json", std::process::id()));
    std::fs::write(&path, &text[..text.len() / 2]).expect("write snapshot");
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = bvf(&["corpus", "import", path_str]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(path_str), "{stderr}");
}
