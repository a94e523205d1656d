//! **Throughput scaling of the local campaign runner**.
//!
//! Runs the same logical campaign at increasing worker counts and
//! reports executions per second, speedup over the 1-worker run, and
//! scaling efficiency (speedup / workers), alongside the scheduler's
//! one counter (nanoseconds workers waited for a ready lease). Also
//! cross-checks that the merged finding set is reproducible at every
//! worker count: each configuration runs twice and the runs must agree.
//!
//! On a single-core host the expected result is flat (efficiency
//! ~1/workers): the workers time-slice one CPU. The JSON records
//! `available_parallelism` and the host count (always 1 for this
//! in-process bench; fabric-scale measurements share the schema) so a
//! result file is interpretable without knowing the machine.
//!
//! With `--diff-oracle` or `--san-diff` the binary instead measures an
//! oracle's overhead: a paired 1-worker run on the defect-free kernel
//! with the oracle off and on — same seed, same iterations.
//! `--diff-oracle` is the abstract-vs-concrete differential
//! oracle (Indicator #3: snapshot export, trace recording, and the
//! membership check); results go to `bench_results/throughput_diff.json`.
//! `--san-diff` is the sanitizer self-validation oracle (`bvf-sancheck`):
//! every program is verified once and every accepted program runs twice
//! (sanitized and unsanitized) plus the comparator, so the slowdown is
//! the second pass's boot, install and execution plus comparison cost;
//! results go to `bench_results/throughput_san.json`,
//! and `--check-regression PCT` compares the slowdown against the
//! committed 1-core baseline (`bench_results/throughput_san_1core.json`).
//!
//! Rows whose worker count exceeds `available_parallelism` are tagged
//! `oversubscribed: true` in the JSON and never feed
//! `--check-regression` — a time-sliced rate measures the scheduler,
//! not the code under test.
//!
//! Usage: `throughput [--iters N] [--seed S] [--workers 1,2,4,8] [--quick]
//!                    [--check-regression PCT] [--diff-oracle | --san-diff]`

use bvf::baseline::GeneratorKind;
use bvf::cli::{bare, invalid_value, val, Args, Command};
use bvf::fuzz::CampaignConfig;
use bvf::runner::{run_local, ParallelConfig, ParallelOutcome};
use bvf_bench::{render_table, save_json};
use bvf_telemetry::profile::elapsed_ns;
use bvf_telemetry::{Registry, Telemetry};

const USAGE: &str =
    "usage: throughput [--iters N] [--seed S] [--workers 1,2,4,8] [--quick]\n                  \
     [--check-regression PCT] [--diff-oracle | --san-diff]";

const CLI: Command = Command {
    name: "throughput",
    positional: (0, 0),
    flags: &[&[
        val("--iters"),
        val("--seed"),
        val("--workers"),
        bare("--quick"),
        val("--check-regression"),
        bare("--diff-oracle"),
        bare("--san-diff"),
    ]],
};

/// `--workers 1,2,4`: every entry must be a worker count of at least 1.
fn worker_list(args: &Args, default: &[usize]) -> Vec<usize> {
    match args.opt("--workers") {
        None => default.to_vec(),
        Some(spec) => spec
            .split(',')
            .map(|p| match p.parse() {
                Ok(w) if w >= 1 => w,
                _ => invalid_value("--workers", spec),
            })
            .collect(),
    }
}

/// The committed 1-core campaign baseline.
const CAMPAIGN_BASELINE: &str = "bench_results/throughput_baseline_1core.json";

/// The committed 1-core baseline's 1-worker rate, if the file is
/// readable from the current directory.
fn committed_baseline_rate() -> Option<f64> {
    let text = std::fs::read_to_string(CAMPAIGN_BASELINE).ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    v.get("points")?
        .as_array()?
        .iter()
        .find(|p| p.get("workers").and_then(|w| w.as_u64()) == Some(1))?
        .get("execs_per_sec")?
        .as_f64()
}

/// Runs one campaign and times the call: its outcome, its registry and
/// its wall time in nanoseconds.
fn timed(cfg: &CampaignConfig, pcfg: &ParallelConfig) -> (ParallelOutcome, Registry, u64) {
    let mut tel = Telemetry::null();
    let t0 = std::time::Instant::now();
    let outcome = run_local(cfg, pcfg, &mut tel);
    (outcome, tel.registry, elapsed_ns(t0))
}

/// The oracle a paired overhead run toggles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Oracle {
    /// `--diff-oracle`: the abstract-vs-concrete differential oracle.
    Diff,
    /// `--san-diff`: the sanitizer self-validation dual run.
    San,
}

/// The committed san-diff baseline's (dual-run rate, slowdown), if
/// readable.
fn committed_san_baseline() -> Option<(f64, f64)> {
    let text = std::fs::read_to_string("bench_results/throughput_san_1core.json").ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    Some((
        v.get("execs_per_sec_on")?.as_f64()?,
        v.get("slowdown")?.as_f64()?,
    ))
}

/// `--diff-oracle` / `--san-diff` mode: paired 1-worker runs, the oracle
/// off vs on.
fn oracle_overhead(
    oracle: Oracle,
    iters: usize,
    seed: u64,
    quick: bool,
    max_regression_pct: usize,
) {
    let pcfg = ParallelConfig::new(1);
    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, iters, seed);
    // Overhead is measured on the defect-free kernel and sanitizer:
    // injected defects would add divergence handling and triage to the
    // per-iteration cost, conflating detection cost with checking cost.
    cfg.bugs = bvf_kernel_sim::BugSet::none();
    let (_, _, wall_ns_off) = timed(&cfg, &pcfg);
    match oracle {
        Oracle::Diff => cfg.diff_oracle = true,
        Oracle::San => cfg.san_diff = true,
    }
    let (on, _, wall_ns_on) = timed(&cfg, &pcfg);

    let rate = |wall_ns: u64| iters as f64 / (wall_ns as f64 / 1e9);
    let rate_off = rate(wall_ns_off);
    let rate_on = rate(wall_ns_on);
    let slowdown = wall_ns_on as f64 / wall_ns_off as f64;
    let (d, san) = (&on.result.diff, &on.result.san);
    let (title, column, file, checked, divergences, counters) = match oracle {
        Oracle::Diff => (
            "differential-oracle",
            "Oracle",
            "throughput_diff.json",
            format!("{} steps / {} regs", d.steps_checked, d.regs_checked),
            d.divergences,
            serde_json::json!({
                "steps_checked": d.steps_checked,
                "regs_checked": d.regs_checked,
                "steps_skipped_emitted": d.steps_skipped_emitted,
            }),
        ),
        Oracle::San => (
            "sancheck dual-execution",
            "San diff",
            "throughput_san.json",
            format!("{} dual runs", san.runs),
            san.divergences,
            serde_json::json!({ "dual_runs": san.runs }),
        ),
    };

    let mut rows = vec![
        vec![
            "off".to_string(),
            format!("{rate_off:.0}"),
            "1.00x".to_string(),
            "-".to_string(),
        ],
        vec![
            "on".to_string(),
            format!("{rate_on:.0}"),
            format!("{slowdown:.2}x"),
            checked,
        ],
    ];
    let baseline = match oracle {
        Oracle::Diff => None,
        Oracle::San => committed_san_baseline(),
    };
    if let Some((b_rate, b_slowdown)) = baseline {
        rows.push(vec![
            "committed 1-core baseline".to_string(),
            format!("{b_rate:.0}"),
            format!("{b_slowdown:.2}x"),
            "oracle on".to_string(),
        ]);
    }

    println!("\n{title} overhead ({iters} iterations, 1 worker)\n");
    println!(
        "{}",
        render_table(&[column, "Execs/sec", "Wall ratio", "Checked"], &rows)
    );
    assert_eq!(
        divergences, 0,
        "defect-free kernel and sanitizer must not diverge during the overhead run"
    );

    let mut doc = serde_json::json!({
        "iters": iters,
        "seed": seed,
        "quick": quick,
        "execs_per_sec_off": rate_off,
        "execs_per_sec_on": rate_on,
        "wall_ns_off": wall_ns_off,
        "wall_ns_on": wall_ns_on,
        "slowdown": slowdown,
        "divergences": divergences,
        "committed_baseline_execs_per_sec": baseline.map(|(r, _)| r),
        "committed_baseline_slowdown": baseline.map(|(_, s)| s),
    });
    if let (serde_json::Value::Object(doc), serde_json::Value::Object(extra)) = (&mut doc, counters)
    {
        doc.extend(extra);
    }
    save_json(file, &doc);

    // The gate compares the *overhead ratio* (oracle-on wall / oracle-off
    // wall), not the absolute rate: the slowdown is stable across
    // iteration counts and host speeds, while execs/sec is neither.
    if max_regression_pct > 0 {
        let (_, base_slowdown) = baseline.unwrap_or_else(|| {
            eprintln!(
                "--check-regression needs a readable baseline \
                 (bench_results/throughput_san_1core.json) for --san-diff"
            );
            std::process::exit(2);
        });
        let ratio = slowdown / base_slowdown;
        let ceiling = 1.0 + max_regression_pct as f64 / 100.0;
        assert!(
            ratio <= ceiling,
            "{title} overhead regressed beyond {max_regression_pct}%: \
             slowdown {slowdown:.2}x vs committed {base_slowdown:.2}x \
             ({ratio:.2}x, ceiling {ceiling:.2}x)"
        );
        eprintln!(
            "regression check passed: slowdown {slowdown:.2}x vs committed \
             {base_slowdown:.2}x ({ratio:.2}x, ceiling {ceiling:.2}x)"
        );
    }
}

fn main() {
    let args = Args::from_env(&CLI, USAGE);
    let quick = args.flag("--quick");
    let iters = args.parsed_or("--iters", if quick { 2_000 } else { 20_000 });
    let seed = args.parsed_or("--seed", 41);
    // `--check-regression PCT`: compare the 1-worker rate against the
    // committed 1-core baseline and fail if it dropped more than PCT
    // percent. 0 disables the check (the default).
    let max_regression_pct = args.parsed_or("--check-regression", 0);
    for (flag, oracle) in [("--diff-oracle", Oracle::Diff), ("--san-diff", Oracle::San)] {
        if args.flag(flag) {
            oracle_overhead(oracle, iters, seed, quick, max_regression_pct);
            return;
        }
    }
    let workers = worker_list(&args, if quick { &[1, 2] } else { &[1, 2, 4, 8] });

    let cfg = CampaignConfig::new(GeneratorKind::Bvf, iters, seed);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "throughput: {iters} iterations, seed {seed}, worker counts {workers:?}, \
         {cores} CPUs available"
    );

    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut base_rate = 0.0f64;
    let mut one_worker_rate = None;
    for &w in &workers {
        let pcfg = ParallelConfig::new(w);
        let (a, registry, wall_ns) = timed(&cfg, &pcfg);
        let (b, _, _) = timed(&cfg, &pcfg);
        let sig = |o: &ParallelOutcome| {
            o.result
                .findings
                .iter()
                .map(|f| (f.iteration, f.signature.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            sig(&a),
            sig(&b),
            "merged findings not reproducible at {w} workers"
        );
        assert_eq!(a.result.accepted, b.result.accepted);
        assert_eq!(a.result.coverage.len(), b.result.coverage.len());

        let secs = wall_ns as f64 / 1e9;
        let rate = iters as f64 / secs;
        if w == workers[0] {
            base_rate = rate;
        }
        // A row whose workers exceed the host's cores time-slices the
        // CPU: its rate measures the scheduler, not the code under
        // test, so it is tagged and never feeds the regression gate.
        let oversubscribed = w > cores;
        if w == 1 && !oversubscribed {
            one_worker_rate = Some(rate);
        }
        let speedup = rate / base_rate;
        let efficiency = speedup / (w as f64 / workers[0] as f64);
        let lease_wait_ns = registry.counter("campaign.lease_wait_ns");
        eprintln!(
            "{w} workers: {rate:.0} execs/s  speedup {speedup:.2}x  efficiency {efficiency:.2}  findings {}",
            a.result.findings.len()
        );
        rows.push(vec![
            w.to_string(),
            format!("{rate:.0}"),
            format!("{speedup:.2}x"),
            format!("{efficiency:.2}"),
            format!("{:.1}ms", lease_wait_ns as f64 / 1e6),
            a.result.findings.len().to_string(),
            a.result.coverage.len().to_string(),
        ]);
        points.push(serde_json::json!({
            "workers": w,
            "wall_ns": wall_ns,
            "execs_per_sec": rate,
            "speedup": speedup,
            "efficiency": efficiency,
            "findings": a.result.findings.len(),
            "accepted": a.result.accepted,
            "coverage_points": a.result.coverage.len(),
            "lease_wait_ns": lease_wait_ns,
            "reproducible": true,
            "oversubscribed": oversubscribed,
        }));
    }

    println!("\nlocal campaign throughput ({iters} iterations per point)\n");
    println!(
        "{}",
        render_table(
            &[
                "Workers",
                "Execs/sec",
                "Speedup",
                "Efficiency",
                "Lease wait",
                "Findings",
                "Coverage"
            ],
            &rows
        )
    );

    // Compare against the committed 1-core baseline when a
    // non-oversubscribed 1-worker point was measured and the baseline
    // file is readable.
    let baseline = committed_baseline_rate();
    let baseline_ratio = match (one_worker_rate, baseline) {
        (Some(rate), Some(base)) if base > 0.0 => {
            let ratio = rate / base;
            println!(
                "1-worker rate vs committed 1-core baseline: {rate:.0} / {base:.0} = {ratio:.2}x"
            );
            Some(ratio)
        }
        _ => None,
    };

    save_json(
        "throughput.json",
        &serde_json::json!({
            "iters": iters,
            "seed": seed,
            "available_parallelism": cores,
            // In-process benches always span one host; the field keeps
            // the header comparable with fabric-scale (multi-host)
            // measurements of the same schema.
            "hosts": 1,
            "quick": quick,
            "points": points,
            "committed_baseline_execs_per_sec": baseline,
            "baseline_ratio_1worker": baseline_ratio,
        }),
    );

    if max_regression_pct > 0 {
        let ratio = baseline_ratio.unwrap_or_else(|| {
            eprintln!(
                "--check-regression needs a non-oversubscribed 1-worker point \
                 and a readable {CAMPAIGN_BASELINE}"
            );
            std::process::exit(2);
        });
        let floor = 1.0 - max_regression_pct as f64 / 100.0;
        assert!(
            ratio >= floor,
            "throughput regressed beyond {max_regression_pct}%: \
             {ratio:.2}x of the committed baseline (floor {floor:.2}x)"
        );
        eprintln!("regression check passed: {ratio:.2}x of baseline (floor {floor:.2}x)");
    }
}
