//! BVF's campaign benchmark.
//!
//! ```text
//! benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--quick]
//! ```
//!
//! `--trace 0` (the default) is the timed run: 31 set-up probes, then
//! the workload's campaigns at seeds `S`, `S + 1`, … with tracing off,
//! each through `run_campaign_with_telemetry`, the call
//! `bvf fuzz --workers 1` makes. It reports the end-to-end metrics.
//! `--trace 1` is the traced run, which reports the per-layer metrics.
//! `--quick` runs one campaign. A run stops starting campaigns once
//! the longest so far would end past `--seconds` (default
//! [`RUN_SECONDS`], the `run_seconds` of `BENCHMARK.json`); the
//! campaign counts are sized to end well before that.
//!
//! Every run checks its results and prints one `name value unit` line
//! per metric, then one JSON object as the last line of standard
//! output: `{"attempted": …, "correct": …, "failed": …, "metrics": {…}}`.
//! The full results go to `results/<workload>-s<seed>-<timed|trace>.json`
//! in this package. A failed check prints `"correct": false` and exits 1;
//! a bad flag exits 2.
//!
//! Load model: closed loop, one process, one worker thread. The next
//! iteration starts when the previous one ends.
//!
//! # End-to-end metrics
//!
//! - `execs_per_s`: the run's iterations over the summed wall time of
//!   its campaign calls. Programs that hit the verifier's complexity
//!   limit are a few in a thousand but take most of the time on the
//!   feedback workloads, so this is where that path shows.
//! - `setup_s`: spawn-to-exit time of this binary running the workload
//!   at zero iterations; the median of 31 probes 25 ms apart.
//! - `coverage_points`: verifier coverage points per campaign, averaged.
//! - `acceptance_rate`: share of the run's programs the verifier accepts.
//!
//! Runs at nearby seeds share most of their campaigns; runs at distant
//! seeds do not, and their `execs_per_s` differs by the luck of the
//! draw on complexity-limit programs.
//!
//! # Checks
//!
//! Every campaign's iteration counts must add up. A defect-free
//! workload (`fuzz-fresh`, `fuzz-oracles`) must report no oracle
//! divergence and no finding beyond the known false positives. In the
//! traced run each traced campaign must give the same results as the
//! same campaign untraced, and on `fuzz-fresh` the layer replay must
//! reproduce the first campaign's verdicts exactly.
//!
//! # Measured layer shares
//!
//! Shares of the traced wall time at seed 41, averaged over the traced
//! campaigns, on a 2-vCPU Intel Xeon virtual machine
//! (`baselines/benchmark_trace.json`):
//!
//! | layer                                    | fuzz-default | fuzz-fresh | fuzz-oracles |
//! |------------------------------------------|--------------|------------|--------------|
//! | verifier (structure + do_check + fixup)  | 79.0%        | 54.5%      | 44.0%        |
//! | of which complexity-limit rejections     | 69.2%        | 26.0%      | 39.0%        |
//! | sanitation                               | 1.0%         | 3.3%       | 0.5%         |
//! | generation and loop bookkeeping          | 2.1%         | 6.6%       | 1.2%         |
//! | rest of the scenario span                | 12.3%        | 35.4%      | 54.2%        |
//! | triage                                   | 5.2%         | 0          | 0            |
//! | rest of the oracle span (judge, dedup)   | 0.2%         | 0.2%       | 0.05%        |
//! | unaccounted                              | 0.17%        | 0.06%      | 0.07%        |
//!
//! The verifier share quoted as ~89% measures 79% on `fuzz-default`,
//! most of it programs rejected at the complexity limit; with
//! independent programs (`fuzz-fresh`) it is 55%. Short campaigns
//! rediscover and triage the same injected defects, which puts triage
//! at 5% on `fuzz-default`.
//!
//! The replay covers the first campaign only, so its values are shares
//! of that campaign's wall. On `fuzz-fresh` it splits the rest of the
//! scenario span into kernel boot (32%), lowering (10%), execution (3%)
//! and the coverage fold (2%). On `fuzz-oracles` the unsanitized second
//! load, mostly a second verification, takes 50%. The timed runs
//! (`baselines/benchmark_baseline.json`) measured 6.8k, 25k and 3.0k
//! iterations/s.

use std::process::exit;

use bvf_benchmark::args::{Args, FlagSpec};
use bvf_benchmark::run::{self, Outcome};
use bvf_benchmark::workload::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use serde_json::{json, Map, Value};

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--workload",
        takes_value: true,
    },
    FlagSpec {
        name: "--seed",
        takes_value: true,
    },
    FlagSpec {
        name: "--seconds",
        takes_value: true,
    },
    FlagSpec {
        name: "--trace",
        takes_value: true,
    },
    FlagSpec {
        name: "--quick",
        takes_value: false,
    },
    FlagSpec {
        name: "--setup-probe",
        takes_value: false,
    },
];

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("benchmark: {msg}");
    eprintln!(
        "usage: benchmark --workload {} [--seed S] [--seconds N] [--trace 0|1] [--quick]",
        names.join("|")
    );
    exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(FLAGS, &argv).unwrap_or_else(|e| usage(&e));
    let name = args
        .value("--workload")
        .unwrap_or_else(|| usage("--workload is required"));
    let w = Workload::by_name(name).unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
    let seed: u64 = args.parsed("--seed", 41).unwrap_or_else(|e| usage(&e));
    let quick = args.flag("--quick");
    if args.flag("--setup-probe") {
        run::setup_probe(w, seed);
        return;
    }
    let seconds: u64 = args
        .parsed("--seconds", RUN_SECONDS)
        .unwrap_or_else(|e| usage(&e));
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => usage(&format!("--trace takes 0 or 1, not {other:?}")),
    };

    let result = if trace {
        run::traced(w, seed, seconds, quick)
    } else {
        run::timed(w, seed, seconds, quick)
    };
    let mut outcome = result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        exit(1);
    });
    let catalog = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Map::new();
    for m in catalog {
        let Some(&value) = outcome.metrics.get(m.name) else {
            outcome
                .problems
                .push(format!("{} was not measured", m.name));
            continue;
        };
        println!("{} {value} {}", m.name, m.unit);
        metrics.insert(
            m.name.to_string(),
            json!({ "value": value, "unit": m.unit }),
        );
    }
    let correct = outcome.problems.is_empty();
    for p in &outcome.problems {
        eprintln!("benchmark: check failed: {p}");
    }

    let mode = if trace { "trace" } else { "timed" };
    let path = format!(
        "{}/results/{}-s{seed}-{mode}{}.json",
        env!("CARGO_MANIFEST_DIR"),
        w.name,
        if quick { "-quick" } else { "" }
    );
    if let Err(e) = save(
        &path,
        &document(w, seed, seconds, quick, mode, &outcome, &metrics),
    ) {
        eprintln!("benchmark: cannot write {path}: {e}");
        exit(1);
    }
    let summary = json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics)
    });
    println!(
        "{}",
        serde_json::to_string(&summary).expect("a JSON value prints")
    );
    exit(if correct { 0 } else { 1 });
}

fn document(
    w: &Workload,
    seed: u64,
    seconds: u64,
    quick: bool,
    mode: &str,
    outcome: &Outcome,
    metrics: &Map,
) -> Value {
    json!({
        "workload": w.name,
        "bvf_fuzz_flags": w.bvf_flags(),
        "iterations_per_campaign": w.iterations,
        "seed": seed,
        "quick": quick,
        "seconds": seconds,
        "mode": mode,
        "cores": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "correct": outcome.problems.is_empty(),
        "problems": outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics.clone()),
        "detail": outcome.detail
    })
}

fn save(path: &str, doc: &Value) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(doc).map_err(std::io::Error::other)?;
    std::fs::write(path, text + "\n")
}
