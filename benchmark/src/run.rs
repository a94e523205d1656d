//! The two kinds of run: timed (end-to-end metrics, tracing off) and
//! traced (per-layer metrics). Each runs a fixed list of campaigns and
//! ends early only to stay within its `seconds`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::time::{Duration, Instant};

use bvf::fuzz::run_campaign_with_telemetry;
use bvf_telemetry::{Registry, Telemetry};
use serde_json::{json, Value};

use crate::campaign::{check, check_same, run_untraced, unexpected, Fingerprint};
use crate::replay::replay;
use crate::spans::{run_traced, Layers, Spans};
use crate::workload::Workload;

/// Set-up probes per timed run; the median is reported.
const SETUP_PROBES: usize = 31;

/// Pause between set-up probes. Host contention comes in bursts of a
/// few milliseconds; back-to-back probes would all land in one burst.
const SETUP_GAP: Duration = Duration::from_millis(25);

/// What one run measured and checked.
pub struct Outcome {
    /// Campaign iterations attempted.
    pub attempted: usize,
    /// Of those, iterations that failed.
    pub failed: usize,
    /// Failed correctness checks; empty when the run is correct.
    pub problems: Vec<String>,
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Everything else worth keeping, for the results file.
    pub detail: Value,
}

/// Runs `campaign` on each seed in turn: the first always, a later one
/// only if it ends by `deadline` at the pace of the longest campaign so
/// far. A campaign that panics ends the loop and is reported as `None`.
fn within<T>(
    deadline: Instant,
    seeds: impl Iterator<Item = u64>,
    mut campaign: impl FnMut(u64) -> T,
) -> Vec<(u64, Option<T>)> {
    let mut runs = Vec::new();
    let mut longest = Duration::ZERO;
    for seed in seeds {
        let t0 = Instant::now();
        if !runs.is_empty() && t0 + longest > deadline {
            break;
        }
        let run = catch_unwind(AssertUnwindSafe(|| campaign(seed))).ok();
        longest = longest.max(t0.elapsed());
        let panicked = run.is_none();
        runs.push((seed, run));
        if panicked {
            break;
        }
    }
    runs
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// The timed run: the set-up probes, then the workload's campaigns with
/// tracing off, all within `seconds`. Reports the end-to-end metrics.
pub fn timed(w: &Workload, seed: u64, seconds: u64, quick: bool) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let setup = setup_times(w, seed)?;
    let runs = within(deadline, w.campaign_seeds(seed, quick), |s| {
        run_untraced(&w.config(s))
    });

    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let (mut accepted, mut coverage, mut wall_s) = (0, 0, 0.0);
    let mut campaigns = Vec::new();
    for (s, run) in &runs {
        attempted += w.iterations;
        let Some((fp, wall)) = run else {
            failed += w.iterations;
            problems.push(format!("the campaign at seed {s} panicked"));
            continue;
        };
        problems.extend(check(w, &w.config(*s), fp));
        failed += fp.failed(w);
        accepted += fp.accepted;
        coverage += fp.coverage_points;
        wall_s += wall;
        campaigns.push(json!({ "seed": s, "wall_s": wall, "fingerprint": fp.to_json() }));
    }
    let planned = w.campaign_seeds(seed, quick).count();
    if runs.len() < planned {
        eprintln!(
            "benchmark: {seconds} s allowed {} of {planned} campaigns",
            runs.len()
        );
    }
    let mut metrics = BTreeMap::new();
    if !campaigns.is_empty() {
        let iterations = (campaigns.len() * w.iterations) as f64;
        metrics.insert("execs_per_s", iterations / wall_s);
        metrics.insert("setup_s", median(setup.clone()));
        metrics.insert("coverage_points", coverage as f64 / campaigns.len() as f64);
        metrics.insert("acceptance_rate", accepted as f64 / iterations);
    }
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
        detail: json!({
            "campaigns": campaigns,
            "peak_rss_mb": peak_rss_mb()?,
            "setup_s": setup
        }),
    })
}

/// Spawn-to-exit times of the benchmark itself running the workload
/// for zero iterations, seconds.
fn setup_times(w: &Workload, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        std::thread::sleep(SETUP_GAP);
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--setup-probe",
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
        ]);
        let t0 = Instant::now();
        let status = cmd
            .status()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        let dt = t0.elapsed().as_secs_f64();
        if !status.success() {
            return Err(format!("set-up probe exited with {status}"));
        }
        times.push(dt);
    }
    Ok(times)
}

/// The set-up probe's body: the workload's campaign at zero iterations.
pub fn setup_probe(w: &Workload, seed: u64) {
    let mut cfg = w.config(seed);
    cfg.iterations = 0;
    run_campaign_with_telemetry(&cfg, &mut Telemetry::null());
}

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The traced run: the layer replay of the first campaign's stream,
/// then the first half of the timed run's campaigns, each run once
/// untraced (the overhead base) and once traced, all within `seconds`.
/// Span values are averaged over the traced campaigns.
pub fn traced(w: &Workload, seed: u64, seconds: u64, quick: bool) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let rp = replay(&w.config(seed));
    let seeds = w.campaign_seeds(seed, quick).take(w.campaigns.div_ceil(2));
    let pairs = within(deadline, seeds, |s| {
        let cfg = w.config(s);
        (run_untraced(&cfg), run_traced(&cfg))
    });
    let mut problems = Vec::new();
    let mut spans = Spans::default();
    let mut registry = Registry::new();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut iterations, mut failed, mut found_bugs) = (0, 0, 0);
    // The campaign at `seed`, whose stream the replay ran, and its
    // traced wall and scenario spans.
    let mut first: Option<(Fingerprint, u64, u64)> = None;
    for (s, pair) in &pairs {
        let Some(((plain, plain_wall), t)) = pair else {
            return Err(format!("the campaign pair at seed {s} panicked"));
        };
        problems.extend(check(w, &w.config(*s), plain));
        problems.extend(check_same(
            &format!("the traced campaign at seed {s}"),
            plain,
            &t.fingerprint,
        ));
        first.get_or_insert_with(|| (plain.clone(), t.spans.wall_ns, t.spans.scenario_ns));
        iterations += plain.iterations;
        failed += plain.failed(w);
        found_bugs += plain.found_bugs.len();
        plain_walls.push(*plain_wall);
        traced_walls.push(t.spans.wall_ns as f64 / 1e9);
        spans.add(&t.spans);
        registry.merge(&t.registry);
    }
    let (fp, first_wall_ns, first_scenario_ns) = first.expect("the first campaign always runs");
    let layers = Layers::split(&spans, &registry)?;
    debug_assert_eq!(layers.total_ns(), spans.wall_ns);

    if !w.feedback && (rp.accepted, &rp.reject_reasons) != (fp.accepted, &fp.reject_reasons) {
        problems.push(format!(
            "replay verdicts differ from the campaign: accepted {} vs {}, reasons {:?} vs {:?}",
            rp.accepted, fp.accepted, rp.reject_reasons, fp.reject_reasons
        ));
    }
    let flagged = unexpected(w, &rp.flagged);
    if !flagged.is_empty() {
        problems.push(format!(
            "the replay flagged {flagged:?} on a defect-free kernel"
        ));
    }

    // Span values are per traced campaign and shares of the mean traced
    // wall; replayed values are shares of the wall of the campaign whose
    // stream the replay ran.
    let n = pairs.len() as f64;
    let wall_s = spans.wall_ns as f64 / 1e9 / n;
    let per_campaign = |ns: u64| (ns as f64 / 1e9 / n, wall_s);
    let replayed = |ns: u64| (ns as f64 / 1e9, first_wall_ns as f64 / 1e9);
    let mut m = BTreeMap::new();
    for (name, share, (secs, of)) in [
        (
            "gen.self_s",
            "gen.self_share",
            per_campaign(layers.gen_self_ns),
        ),
        (
            "verifier.total_s",
            "verifier.total_share",
            per_campaign(layers.structure_ns + layers.do_check_ns + layers.fixup_ns),
        ),
        (
            "verifier.structure_s",
            "verifier.structure_share",
            per_campaign(layers.structure_ns),
        ),
        (
            "verifier.do_check_s",
            "verifier.do_check_share",
            per_campaign(layers.do_check_ns),
        ),
        (
            "verifier.fixup_s",
            "verifier.fixup_share",
            per_campaign(layers.fixup_ns),
        ),
        (
            "verifier.complexity_limit_s",
            "verifier.complexity_limit_share",
            per_campaign(spans.limit_verify_ns),
        ),
        (
            "verifier.accepted_s",
            "verifier.accepted_share",
            per_campaign(spans.accepted_verify_ns),
        ),
        (
            "sanitize.total_s",
            "sanitize.total_share",
            per_campaign(layers.sanitize_ns),
        ),
        ("runtime.boot_s", "runtime.boot_share", replayed(rp.boot_ns)),
        (
            "runtime.lower_s",
            "runtime.lower_share",
            replayed(rp.lower_ns),
        ),
        ("runtime.exec_s", "runtime.exec_share", replayed(rp.exec_ns)),
        (
            "sancheck.second_load_s",
            "sancheck.second_load_share",
            replayed(rp.second_load_ns),
        ),
        (
            "sancheck.second_exec_s",
            "sancheck.second_exec_share",
            replayed(rp.second_exec_ns),
        ),
        (
            "sancheck.compare_s",
            "sancheck.compare_share",
            replayed(rp.compare_ns),
        ),
        (
            "oracle.judge_s",
            "oracle.judge_share",
            replayed(rp.judge_ns),
        ),
        (
            "oracle.self_s",
            "oracle.self_share",
            per_campaign(layers.oracle_self_ns),
        ),
        (
            "fuzz.cov_fold_s",
            "fuzz.cov_fold_share",
            replayed(rp.cov_fold_ns),
        ),
        (
            "trace.scenario_rest_s",
            "trace.scenario_rest_share",
            per_campaign(layers.scenario_rest_ns),
        ),
        (
            "trace.unaccounted_s",
            "trace.unaccounted_share",
            per_campaign(layers.unaccounted_ns),
        ),
    ] {
        m.insert(name, secs);
        m.insert(share, secs / of);
    }
    let counter = |name: &str| registry.counter(name) as f64 / n;
    for name in [
        "prune.checks",
        "prune.hits",
        "prune.states_equal_calls",
        "prune.fingerprint_filtered",
        "prune.states_stored",
    ] {
        m.insert(name, counter(name));
    }
    m.insert(
        "prune.hit_rate",
        counter("prune.hits") / counter("prune.checks").max(1.0),
    );
    m.insert(
        "verifier.complexity_limit_count",
        spans.limit_count as f64 / n,
    );
    m.insert("runtime.exec_steps", rp.exec_steps as f64);
    m.insert(
        "runtime.exec_steps_per_s",
        rp.exec_steps as f64 / replayed(rp.exec_ns.max(1)).0,
    );
    m.insert("oracle.triage_count", spans.triage_count as f64 / n);
    m.insert("oracle.bugs_found", found_bugs as f64 / n);
    m.insert(
        "trace.overhead_frac",
        traced_walls.iter().sum::<f64>() / plain_walls.iter().sum::<f64>() - 1.0,
    );
    let campaign_scenario = first_scenario_ns as f64 / fp.iterations.max(1) as f64;
    let replay_scenario = rp.scenario_ns() as f64 / rp.iterations.max(1) as f64;
    m.insert(
        "replay.drift_frac",
        (replay_scenario / campaign_scenario - 1.0).abs(),
    );

    Ok(Outcome {
        attempted: 2 * iterations,
        failed: 2 * failed,
        problems,
        metrics: m,
        detail: json!({
            "seeds": pairs.iter().map(|(s, _)| s).collect::<Vec<_>>(),
            "untraced_wall_s": plain_walls,
            "traced_wall_s": traced_walls,
            "spans_ns": json!({
                "campaigns": pairs.len(),
                "wall": spans.wall_ns,
                "gen": spans.gen_ns,
                "scenario": spans.scenario_ns,
                "oracle": spans.oracle_ns,
                "triage": spans.triage_ns,
                "tail": spans.tail_ns
            }),
            "replay_ns": json!({
                "iterations": rp.iterations,
                "boot": rp.boot_ns,
                "lower": rp.lower_ns,
                "verify": rp.verify_ns,
                "sanitize": rp.sanitize_ns,
                "exec": rp.exec_ns,
                "second_load": rp.second_load_ns,
                "second_exec": rp.second_exec_ns,
                "compare": rp.compare_ns,
                "judge": rp.judge_ns,
                "cov_fold": rp.cov_fold_ns,
                "scenario": rp.scenario_ns()
            }),
            "replay_flagged": rp.flagged,
            "fingerprint": fp.to_json()
        }),
    })
}
