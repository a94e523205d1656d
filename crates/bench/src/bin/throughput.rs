//! **Throughput scaling of the sharded campaign orchestrator**.
//!
//! Runs the same logical campaign at increasing worker counts and
//! reports executions per second, speedup over the 1-worker run, and
//! scaling efficiency (speedup / workers), alongside the work-stealing
//! scheduler's counters (batches stolen, nanoseconds blocked waiting
//! for corpus-exchange generations, exchange backlog). Also
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
//! with the oracle off and on — same seed, same iterations, same
//! backend. `--diff-oracle` is the abstract-vs-concrete differential
//! oracle (Indicator #3: snapshot export, trace recording, and the
//! membership check); results go to `bench_results/throughput_diff.json`.
//! `--san-diff` is the sanitizer self-validation oracle (`bvf-sancheck`):
//! every program is verified once and every accepted program runs twice
//! (sanitized and unsanitized) plus the comparator, so the slowdown is
//! the second pass's boot, install and execution plus comparison cost;
//! results go to `bench_results/throughput_san.json`,
//! and `--check-regression PCT` compares the slowdown against the
//! committed 1-core baseline of the same backend
//! (`bench_results/throughput_san_1core.json`; a baseline without a
//! `backend` field was measured on interp).
//!
//! `--backend interp|compiled` selects the execution engine for the
//! campaign-throughput rows and the paired overhead modes (default
//! interp, so the long-lived `throughput_baseline_1core.json` series
//! stays comparable; the compiled series lives in
//! `throughput_compiled_1core.json`). Rows
//! whose worker count exceeds `available_parallelism` are tagged
//! `oversubscribed: true` in the JSON and never feed
//! `--check-regression` — a time-sliced rate measures the scheduler,
//! not the code under test.
//!
//! With `--exec-micro` it instead measures the **pure execution-layer
//! rate**: one verifier-accepted, sanitation-instrumented, execution-
//! heavy program is loaded once per backend and test-run repeatedly, so
//! the verifier (which dominates whole-campaign wall time) is out of
//! the loop and the per-step dispatch cost — the thing the compiled
//! backend exists to remove — is what the number measures. The two
//! backends run in alternating chunks, so a burst of host load slows
//! both alike. Both run the same program and must report identical
//! steps and exec hashes. Results go to
//! `bench_results/throughput_exec_micro.json`; `--check-regression PCT`
//! gates (a) the same-run speedup, compiled ≥ 2x interp, which no host
//! speed moves, and (b) compiled within PCT of its own committed rate
//! (`bench_results/throughput_exec_micro_1core.json`).
//!
//! Usage: `throughput [--iters N] [--seed S] [--workers 1,2,4,8] [--quick]
//!                    [--backend interp|compiled] [--check-regression PCT]
//!                    [--diff-oracle | --san-diff | --exec-micro [--execs N]]`

use std::time::Instant;

use bvf::baseline::GeneratorKind;
use bvf::cli::{bare, invalid_value, val, Args, Command};
use bvf::fuzz::CampaignConfig;
use bvf_bench::{render_table, save_json};
use bvf_campaign::{run_sharded, ParallelConfig};
use bvf_runtime::Backend;

const USAGE: &str =
    "usage: throughput [--iters N] [--seed S] [--workers 1,2,4,8] [--quick]\n                  \
     [--backend interp|compiled] [--check-regression PCT]\n                  \
     [--diff-oracle | --san-diff | --exec-micro [--execs N]]";

const CLI: Command = Command {
    name: "throughput",
    positional: (0, 0),
    flags: &[&[
        val("--iters"),
        val("--seed"),
        val("--workers"),
        bare("--quick"),
        val("--backend"),
        val("--check-regression"),
        bare("--diff-oracle"),
        bare("--san-diff"),
        bare("--exec-micro"),
        val("--execs"),
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

fn backend(args: &Args) -> Backend {
    match args.opt("--backend") {
        None => Backend::Interp,
        Some(spec) => Backend::from_name(spec).unwrap_or_else(|| {
            eprintln!("unknown backend {spec:?}; known: interp, compiled");
            std::process::exit(2);
        }),
    }
}

/// The committed campaign-baseline file for a backend. The interp file
/// keeps its historical name so the series stays comparable across
/// revisions that predate the compiled backend.
fn campaign_baseline_file(backend: Backend) -> &'static str {
    match backend {
        Backend::Interp => "bench_results/throughput_baseline_1core.json",
        Backend::Compiled => "bench_results/throughput_compiled_1core.json",
    }
}

/// The committed 1-core baseline's 1-worker rate, if the file is
/// readable from the current directory.
fn committed_baseline_rate(backend: Backend) -> Option<f64> {
    let text = std::fs::read_to_string(campaign_baseline_file(backend)).ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    v.get("points")?
        .as_array()?
        .iter()
        .find(|p| p.get("workers").and_then(|w| w.as_u64()) == Some(1))?
        .get("execs_per_sec")?
        .as_f64()
}

/// The oracle a paired overhead run toggles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Oracle {
    /// `--diff-oracle`: the abstract-vs-concrete differential oracle.
    Diff,
    /// `--san-diff`: the sanitizer self-validation dual run.
    San,
}

/// The committed san-diff baseline's (dual-run rate, slowdown) on
/// `backend`, if readable.
fn committed_san_baseline(backend: Backend) -> Option<(f64, f64)> {
    let text = std::fs::read_to_string("bench_results/throughput_san_1core.json").ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    let measured_on = v
        .get("backend")
        .and_then(|b| b.as_str())
        .unwrap_or("interp");
    if measured_on != backend.name() {
        return None;
    }
    Some((
        v.get("execs_per_sec_on")?.as_f64()?,
        v.get("slowdown")?.as_f64()?,
    ))
}

/// `--diff-oracle` / `--san-diff` mode: paired 1-worker runs, the oracle
/// off vs on.
fn oracle_overhead(
    oracle: Oracle,
    backend: Backend,
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
    cfg.backend = backend;
    let off = run_sharded(&cfg, &pcfg);
    match oracle {
        Oracle::Diff => cfg.diff_oracle = true,
        Oracle::San => cfg.san_diff = true,
    }
    let on = run_sharded(&cfg, &pcfg);

    let rate = |wall_ns: u64| iters as f64 / (wall_ns as f64 / 1e9);
    let rate_off = rate(off.wall_ns);
    let rate_on = rate(on.wall_ns);
    let slowdown = on.wall_ns as f64 / off.wall_ns as f64;
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
        Oracle::San => committed_san_baseline(backend),
    };
    if let Some((b_rate, b_slowdown)) = baseline {
        rows.push(vec![
            "committed 1-core baseline".to_string(),
            format!("{b_rate:.0}"),
            format!("{b_slowdown:.2}x"),
            "oracle on".to_string(),
        ]);
    }

    println!(
        "\n{title} overhead ({iters} iterations, 1 worker, {} backend)\n",
        backend.name()
    );
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
        "backend": backend.name(),
        "execs_per_sec_off": rate_off,
        "execs_per_sec_on": rate_on,
        "wall_ns_off": off.wall_ns,
        "wall_ns_on": on.wall_ns,
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
                "--check-regression needs a readable {} baseline \
                 (bench_results/throughput_san_1core.json) for --san-diff",
                backend.name()
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

/// The exec-micro workload: a long straight-line body mixing scalar ALU
/// with stack loads/stores, verifier-accepted and sanitation-
/// instrumented, so one `test_run` spends thousands of steps in the
/// dispatch loop under test.
fn exec_micro_prog(units: usize) -> bvf_isa::Program {
    use bvf_isa::{asm, AluOp, Reg, Size};
    let mut insns = vec![
        asm::mov64_imm(Reg::R0, 0),
        asm::mov64_imm(Reg::R1, 1),
        asm::mov64_imm(Reg::R2, 3),
        asm::mov64_imm(Reg::R3, 7),
    ];
    for _ in 0..units {
        insns.push(asm::alu64_reg(AluOp::Add, Reg::R0, Reg::R1));
        insns.push(asm::alu64_imm(AluOp::Xor, Reg::R2, 0x5a));
        insns.push(asm::alu64_reg(AluOp::Add, Reg::R3, Reg::R2));
        insns.push(asm::stx_mem(Size::Dw, Reg::R10, Reg::R0, -8));
        insns.push(asm::ldx_mem(Size::Dw, Reg::R4, Reg::R10, -8));
        insns.push(asm::alu64_reg(AluOp::Add, Reg::R0, Reg::R4));
    }
    insns.push(asm::exit());
    bvf_isa::Program::from_insns(insns)
}

/// One backend's exec-micro measurement, accumulated over chunks.
struct MicroPoint {
    bpf: bvf_runtime::Bpf,
    id: u32,
    runs: usize,
    wall_ns: u64,
    steps: u64,
    exec_hash: u64,
}

impl MicroPoint {
    /// Loads the workload on `backend` and runs it once outside the
    /// timed window (page-faults the pool in, and on the compiled
    /// backend proves the image was lowered at load).
    fn new(backend: Backend, units: usize) -> MicroPoint {
        use bvf_kernel_sim::progtype::ProgType;
        use bvf_kernel_sim::BugSet;
        use bvf_verifier::VerifierOpts;

        let mut bpf = bvf_runtime::Bpf::new(BugSet::none(), VerifierOpts::default(), true)
            .with_backend(backend);
        let id = bpf
            .prog_load(&exec_micro_prog(units), ProgType::SocketFilter, false)
            .expect("exec-micro program must verify");
        let warm = bpf.test_run(id).expect("exec-micro warmup");
        assert!(warm.reports.is_empty(), "workload must run clean");
        MicroPoint {
            bpf,
            id,
            runs: 0,
            wall_ns: 0,
            steps: 0,
            exec_hash: 0,
        }
    }

    /// Times `n` more runs.
    fn run(&mut self, n: usize) {
        let t0 = Instant::now();
        for _ in 0..n {
            let rep = self.bpf.test_run(self.id).expect("exec-micro run");
            self.steps = rep.exec.steps;
            self.exec_hash = rep.exec.exec_hash;
        }
        self.wall_ns += t0.elapsed().as_nanos() as u64;
        self.runs += n;
    }

    fn rate(&self) -> f64 {
        self.runs as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// The committed exec-micro baseline `(interp rate, compiled rate)`, if
/// readable.
fn committed_exec_micro_baseline() -> Option<(f64, f64)> {
    let text = std::fs::read_to_string("bench_results/throughput_exec_micro_1core.json").ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    Some((
        v.get("interp_execs_per_sec")?.as_f64()?,
        v.get("compiled_execs_per_sec")?.as_f64()?,
    ))
}

/// `--exec-micro` mode: pure execution-layer rate, interp vs compiled.
fn exec_micro(execs: usize, quick: bool, max_regression_pct: usize) {
    // ~3.6k executed instructions per test_run.
    let units = 600;
    // Alternating chunks: the speedup compares the two backends over the
    // same stretch of host time.
    const CHUNKS: usize = 10;
    let mut interp = MicroPoint::new(Backend::Interp, units);
    let mut compiled = MicroPoint::new(Backend::Compiled, units);
    for c in 0..CHUNKS {
        let n = execs * (c + 1) / CHUNKS - execs * c / CHUNKS;
        interp.run(n);
        compiled.run(n);
    }
    // The bench double-checks the equivalence contract on its own
    // workload: same steps, same observable execution.
    assert_eq!(interp.steps, compiled.steps, "step accounting diverged");
    assert_eq!(interp.exec_hash, compiled.exec_hash, "exec hash diverged");

    let speedup = compiled.rate() / interp.rate();
    let rows = vec![
        vec![
            "interp".to_string(),
            format!("{:.0}", interp.rate()),
            "1.00x".to_string(),
            format!("{} steps/run", interp.steps),
        ],
        vec![
            "compiled".to_string(),
            format!("{:.0}", compiled.rate()),
            format!("{speedup:.2}x"),
            format!("{} steps/run", compiled.steps),
        ],
    ];
    println!(
        "\nexecution-layer rate ({execs} runs, {} insns/run)\n",
        interp.steps
    );
    println!(
        "{}",
        render_table(&["Backend", "Runs/sec", "Speedup", "Work"], &rows)
    );

    let baseline = committed_exec_micro_baseline();
    save_json(
        "throughput_exec_micro.json",
        &serde_json::json!({
            "execs": execs,
            "units": units,
            "steps_per_run": interp.steps,
            "quick": quick,
            "interp_execs_per_sec": interp.rate(),
            "compiled_execs_per_sec": compiled.rate(),
            "interp_wall_ns": interp.wall_ns,
            "compiled_wall_ns": compiled.wall_ns,
            "speedup": speedup,
            "exec_hash": format!("{:#x}", interp.exec_hash),
            "committed_interp_execs_per_sec": baseline.map(|(i, _)| i),
            "committed_compiled_execs_per_sec": baseline.map(|(_, c)| c),
        }),
    );

    if max_regression_pct > 0 {
        let (_, base_compiled) = baseline.unwrap_or_else(|| {
            eprintln!(
                "--check-regression needs a readable \
                 bench_results/throughput_exec_micro_1core.json"
            );
            std::process::exit(2);
        });
        // The tentpole gate: the compiled backend must run the workload
        // at least 2x as fast as the interpreter in the same run. A
        // ratio of two rates taken side by side cancels the host's
        // speed, which a committed rate from another host would not.
        assert!(
            speedup >= 2.0,
            "compiled backend below the 2x gate: {:.0} runs/s is {speedup:.2}x \
             the interp rate {:.0} of the same run",
            compiled.rate(),
            interp.rate()
        );
        // And the compiled series must not itself regress.
        let ratio = compiled.rate() / base_compiled;
        let floor = 1.0 - max_regression_pct as f64 / 100.0;
        assert!(
            ratio >= floor,
            "compiled exec-layer rate regressed beyond {max_regression_pct}%: \
             {ratio:.2}x of the committed rate (floor {floor:.2}x)"
        );
        eprintln!(
            "regression check passed: compiled {speedup:.2}x interp \
             (gate 2.00x), {ratio:.2}x committed compiled (floor {floor:.2}x)"
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
    let backend = backend(&args);
    for (flag, oracle) in [("--diff-oracle", Oracle::Diff), ("--san-diff", Oracle::San)] {
        if args.flag(flag) {
            oracle_overhead(oracle, backend, iters, seed, quick, max_regression_pct);
            return;
        }
    }
    if args.flag("--exec-micro") {
        let execs = args.parsed_or("--execs", if quick { 2_000 } else { 10_000 });
        exec_micro(execs, quick, max_regression_pct);
        return;
    }
    let workers = worker_list(&args, if quick { &[1, 2] } else { &[1, 2, 4, 8] });

    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, iters, seed);
    cfg.backend = backend;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "throughput: {iters} iterations, seed {seed}, worker counts {workers:?}, \
         {} backend, {cores} CPUs available",
        backend.name()
    );

    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut base_rate = 0.0f64;
    let mut one_worker_rate = None;
    for &w in &workers {
        let pcfg = ParallelConfig::new(w);
        let a = run_sharded(&cfg, &pcfg);
        let b = run_sharded(&cfg, &pcfg);
        let sig = |o: &bvf_campaign::ParallelOutcome| {
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

        let secs = a.wall_ns as f64 / 1e9;
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
        let stolen = a.registry.counter("campaign.steal_count");
        let lease_wait_ns = a.registry.counter("campaign.lease_wait_ns");
        let backlog_mean = a
            .registry
            .histogram("campaign.exchange_backlog")
            .filter(|h| !h.is_empty())
            .map(|h| h.mean());
        eprintln!(
            "{w} workers: {rate:.0} execs/s  speedup {speedup:.2}x  efficiency {efficiency:.2}  stolen {stolen}  findings {}",
            a.result.findings.len()
        );
        rows.push(vec![
            w.to_string(),
            format!("{rate:.0}"),
            format!("{speedup:.2}x"),
            format!("{efficiency:.2}"),
            stolen.to_string(),
            format!("{:.1}ms", lease_wait_ns as f64 / 1e6),
            a.result.findings.len().to_string(),
            a.result.coverage.len().to_string(),
        ]);
        points.push(serde_json::json!({
            "workers": w,
            "wall_ns": a.wall_ns,
            "execs_per_sec": rate,
            "speedup": speedup,
            "efficiency": efficiency,
            "findings": a.result.findings.len(),
            "accepted": a.result.accepted,
            "coverage_points": a.result.coverage.len(),
            "steal_count": stolen,
            "lease_wait_ns": lease_wait_ns,
            "exchange_backlog_mean": backlog_mean,
            "reproducible": true,
            "oversubscribed": oversubscribed,
        }));
    }

    println!("\nsharded campaign throughput ({iters} iterations per point)\n");
    println!(
        "{}",
        render_table(
            &[
                "Workers",
                "Execs/sec",
                "Speedup",
                "Efficiency",
                "Stolen",
                "Lease wait",
                "Findings",
                "Coverage"
            ],
            &rows
        )
    );

    // Compare against the committed 1-core baseline of the same backend
    // when a non-oversubscribed 1-worker point was measured and the
    // baseline file is readable.
    let baseline = committed_baseline_rate(backend);
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
            "backend": backend.name(),
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
                 and a readable {}",
                campaign_baseline_file(backend)
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
