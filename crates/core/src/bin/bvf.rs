//! The `bvf` command-line tool.
//!
//! ```text
//! bvf fuzz    [--iters N] [--seed S] [--generator bvf|syzkaller|buzzer|buzzer-random]
//!             [--bugs all|none|<name,...>] [--version v5.15|v6.1|bpf-next]
//!             [--no-sanitize] [--no-triage] [--no-feedback] [--diff-oracle] [--steer]
//!             [--san-diff] [--san-defect LIST] [--workers N]
//!             [--batch-len N] [--exchange-every N] [--exchange-batch N]
//!             [--chaos S] [--corpus-in FILE] [--corpus-out FILE]
//!             [--trace-out FILE] [--json-out FILE] [--stats-every N]
//!             [--snapshot-every N] [--save-findings DIR]
//! bvf serve   --listen ADDR [--state DIR] [--lease-timeout SECS]
//! bvf worker  --connect ADDR [--poll-ms N] [--max-batches N]
//! bvf report  <trace.jsonl>
//! bvf corpus export --out FILE [fuzz options]
//! bvf corpus import <snap.json>... [--out FILE]
//! bvf corpus info   <snap.json>
//! bvf replay  <scenario.json> [--bugs ...] [--version ...] [--no-sanitize]
//!             [--diff-oracle] [--san-diff] [--san-defect LIST]
//! bvf minimize <scenario.json> [--bugs ...] [--version ...] [--no-sanitize]
//!             [--diff-oracle] [--san-diff] [--san-defect LIST] [--out FILE]
//! bvf sancheck [--matrix] [--version ...] [--json-out FILE]
//! bvf disasm  <scenario.json | program.bin>
//! bvf bugs    # list injectable defects
//! ```
//!
//! Findings saved by `fuzz --save-findings` are replayable scenario JSON
//! files; `replay` re-executes one deterministically and prints the
//! verifier verdict, kernel reports, the dedup signature, and
//! differential triage. `minimize` delta-debugs a finding's program
//! down to the instructions its signature depends on (non-essential
//! units become `ja +0` no-ops, so slot counts and jump offsets are
//! preserved) and writes the minimized scenario JSON.
//! `--trace-out` writes one JSONL event per campaign step and
//! `--json-out` writes the machine-readable `CampaignStats` summary
//! (the same schema the bench binaries emit).
//!
//! `--steer` turns on deterministic acceptance-rate steering: fresh
//! generations pick a generation *shape* (the native generator, a
//! minimal program, an ALU/JMP body, or stack-safe memory traffic)
//! weighted by the per-shape acceptance observed in earlier corpus
//! exchange generations. The weights are folded through the exchange
//! ledger in batch order, so steered campaigns remain bit-identical at
//! any `--workers` count. `bvf report` reads a `--trace-out` file back
//! and prints the rejection-reason breakdown (the verifier's typed
//! taxonomy), per-shape acceptance rates, and where verifier time went
//! (accepted loads, complexity-limit rejections, other rejections); it
//! exits nonzero on a malformed trace.
//!
//! `--diff-oracle` arms the abstract-vs-concrete differential oracle
//! (Indicator #3): the verifier exports per-instruction abstract-state
//! snapshots, the interpreter records a concrete register trace, and
//! any concrete value escaping the proved abstract state is reported as
//! a state divergence. Replay and minimize must be given the same flag
//! to reproduce Indicator #3 findings.
//!
//! `fuzz`, `corpus export`, `replay` and `minimize` read the scenario-run
//! flags (`--bugs`, `--version`, `--no-sanitize`, `--diff-oracle`,
//! `--san-diff`, `--san-defect`) through one parser, so a
//! finding replays and minimizes with the flags of the campaign that
//! found it. `--no-sanitize` with `--san-diff` is an error: the dual run
//! is sanitized, then unsanitized, by definition.
//!
//! Each subcommand parses its arguments strictly against its own flag
//! table (`COMMANDS`): an unknown flag (with the closest known name
//! suggested), a flag missing its value, a repeated flag or a stray
//! argument exits 2 before anything runs. `--help` prints the usage.
//!
//! `--workers N` runs the campaign's lease batches on N workers over
//! one lease schedule (0 = one per available CPU) with merged results
//! bit-identical to `--workers 1` on the same seed: every worker count
//! runs the one lease loop of `bvf::runner::run_local`, and one worker
//! runs it on the main thread. `--chaos S` adds deterministic per-batch
//! scheduling jitter (for shaking out schedule dependence — results
//! must not change). `--batch-len`, `--exchange-every` and
//! `--exchange-batch` set the lease-batch geometry and corpus-exchange
//! cadence; they are campaign inputs, so changing them changes the
//! result (worker count never does). With multiple workers the trace is
//! worker-tagged and ordered by iteration. Progress lines print the
//! schedule's totals over completed batches, in one format at any
//! worker count.
//!
//! `bvf serve` starts the distributed campaign-fabric coordinator
//! (`bvf::fabric`): workers attach with `bvf worker --connect`, clients
//! submit campaigns with `fuzz --remote ADDR` using the same campaign
//! flags as a local run. Batch leases and corpus-exchange deltas travel
//! the wire, the coordinator merges (and triages) the completed
//! batches, and the merged result — including under worker churn — is
//! bit-identical to running the same config locally (`--json-out` files
//! differ only in the observational `metrics` member). `--state DIR`
//! receives per-campaign stats and a counters dump on shutdown.
//!
//! Every output `fuzz` writes (`--json-out`, `--corpus-out`,
//! `--trace-out`, the `--save-findings` directory) is created before
//! the first iteration, so an unwritable path exits 1 at once instead
//! of after the whole campaign.
//!
//! `bvf corpus export` runs a campaign (same flags as `fuzz`) and
//! writes a versioned corpus snapshot — per lease batch, the retained
//! scenarios, the coverage delta, and finding summaries. `import`
//! merges snapshots from different hosts by batch order into one;
//! `fuzz --corpus-in` seeds a new campaign from a snapshot (its corpus
//! becomes every batch's mutation base and its coverage gates
//! retention, so the new campaign hunts only what the old one missed).
//! `fuzz --corpus-out` is `export` inline.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

use bvf::baseline::GeneratorKind;
use bvf::cli::{bare, levenshtein, val, Args, Command, Flag};
use bvf::corpus::CorpusSnapshot;
use bvf::fabric::{
    run_worker, Client, Coordinator, CoordinatorOptions, FabricError, WorkerOptions,
};
use bvf::fuzz::{report_signature, CampaignConfig, FindingRecord};
use bvf::minimize::minimize;
use bvf::oracle::{judge, triage, triage_san_defects};
use bvf::runner::{run_local, ParallelConfig};
use bvf::sanmatrix::run_matrix;
use bvf::scenario::{run, RunConfig, Sanitation, Scenario};
use bvf_kernel_sim::{BugId, BugSet, KernelReport, SanDefect, SanDefectSet};
use bvf_runtime::ExecScratch;
use bvf_telemetry::{JsonlSink, NullSink, Telemetry, TraceEvent, TraceSink};
use bvf_verifier::{KernelVersion, RejectReason};

const USAGE: &str = "usage:\n  \
         bvf fuzz   [--iters N] [--seed S] [--generator G] [--bugs SPEC] [--version V]\n             \
         [--no-sanitize] [--no-triage] [--no-feedback] [--diff-oracle] [--steer]\n             \
         [--san-diff] [--san-defect LIST] [--workers N]\n             \
         [--batch-len N] [--exchange-every N] [--exchange-batch N]\n             \
         [--chaos S] [--corpus-in FILE] [--corpus-out FILE]\n             \
         [--trace-out FILE] [--json-out FILE] [--stats-every N]\n             \
         [--snapshot-every N] [--save-findings DIR] [--remote ADDR]\n  \
         bvf serve --listen ADDR [--state DIR] [--lease-timeout SECS]\n  \
         bvf worker --connect ADDR [--poll-ms N] [--max-batches N]\n  \
         bvf report <trace.jsonl>\n  \
         bvf corpus export --out FILE [fuzz options]\n  \
         bvf corpus import <snap.json>... [--out FILE]\n  \
         bvf corpus info <snap.json>\n  \
         bvf replay <scenario.json> [--bugs SPEC] [--version V] [--no-sanitize] [--diff-oracle]\n             \
         [--san-diff] [--san-defect LIST]\n  \
         bvf minimize <scenario.json> [--bugs SPEC] [--version V] [--no-sanitize]\n             \
         [--diff-oracle] [--san-diff] [--san-defect LIST] [--out FILE]\n  \
         bvf sancheck [--matrix] [--version V] [--json-out FILE]\n  \
         bvf disasm <scenario.json|program.bin>\n  \
         bvf bugs";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2)
}

/// The scenario-run flags `run_config` reads.
const RUN_FLAGS: &[Flag] = &[
    val("--bugs"),
    val("--version"),
    bare("--no-sanitize"),
    bare("--diff-oracle"),
    bare("--san-diff"),
    val("--san-defect"),
];

/// The campaign flags `campaign_config` and `parse_workers` read.
const CAMPAIGN_FLAGS: &[Flag] = &[
    val("--iters"),
    val("--seed"),
    val("--generator"),
    bare("--no-triage"),
    bare("--no-feedback"),
    bare("--steer"),
    val("--snapshot-every"),
    val("--batch-len"),
    val("--exchange-every"),
    val("--exchange-batch"),
    val("--corpus-in"),
    val("--workers"),
];

/// Flags only `bvf fuzz` reads.
const FUZZ_FLAGS: &[Flag] = &[
    val("--chaos"),
    val("--corpus-out"),
    val("--trace-out"),
    val("--json-out"),
    val("--stats-every"),
    val("--save-findings"),
    val("--remote"),
];

const OUT_FLAG: &[Flag] = &[val("--out")];

const COMMANDS: &[Command] = &[
    Command {
        name: "bvf fuzz",
        positional: (0, 0),
        flags: &[RUN_FLAGS, CAMPAIGN_FLAGS, FUZZ_FLAGS],
    },
    Command {
        name: "bvf serve",
        positional: (0, 0),
        flags: &[&[val("--listen"), val("--state"), val("--lease-timeout")]],
    },
    Command {
        name: "bvf worker",
        positional: (0, 0),
        flags: &[&[val("--connect"), val("--poll-ms"), val("--max-batches")]],
    },
    Command {
        name: "bvf report",
        positional: (1, 1),
        flags: &[],
    },
    Command {
        name: "bvf corpus export",
        positional: (0, 0),
        flags: &[RUN_FLAGS, CAMPAIGN_FLAGS, OUT_FLAG],
    },
    Command {
        name: "bvf corpus import",
        positional: (1, usize::MAX),
        flags: &[OUT_FLAG],
    },
    Command {
        name: "bvf corpus info",
        positional: (1, 1),
        flags: &[],
    },
    Command {
        name: "bvf replay",
        positional: (1, 1),
        flags: &[RUN_FLAGS],
    },
    Command {
        name: "bvf minimize",
        positional: (1, 1),
        flags: &[RUN_FLAGS, OUT_FLAG],
    },
    Command {
        name: "bvf sancheck",
        positional: (0, 0),
        flags: &[&[bare("--matrix"), val("--version"), val("--json-out")]],
    },
    Command {
        name: "bvf disasm",
        positional: (1, 1),
        flags: &[],
    },
    Command {
        name: "bvf bugs",
        positional: (0, 0),
        flags: &[],
    },
];

fn parse_bugs(spec: &str) -> BugSet {
    match spec {
        "all" => BugSet::all(),
        "none" => BugSet::none(),
        list => {
            let by_name: BTreeMap<&str, BugId> =
                BugId::ALL.iter().map(|b| (b.name(), *b)).collect();
            let mut set = BugSet::none();
            for part in list.split(',') {
                match by_name.get(part) {
                    Some(bug) => set.enable(*bug),
                    None => {
                        // Exact names only: a substring match here once
                        // silently enabled the wrong defect ("bug1"
                        // matched bug10 and bug11 first). Suggest the
                        // closest names instead.
                        let mut candidates: Vec<&str> = by_name.keys().copied().collect();
                        candidates.sort_by_key(|n| (!n.contains(part), levenshtein(n, part)));
                        eprintln!(
                            "unknown bug {part:?}; closest: {}  (see `bvf bugs`)",
                            candidates
                                .iter()
                                .take(3)
                                .copied()
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        exit(2);
                    }
                }
            }
            set
        }
    }
}

fn parse_version(spec: &str) -> KernelVersion {
    match spec {
        "v5.15" | "5.15" => KernelVersion::V5_15,
        "v6.1" | "6.1" => KernelVersion::V6_1,
        "bpf-next" | "next" => KernelVersion::BpfNext,
        other => {
            eprintln!("unknown kernel version {other:?}");
            exit(2);
        }
    }
}

fn parse_san_defects(spec: &str) -> SanDefectSet {
    let mut set = SanDefectSet::none();
    for part in spec.split(',') {
        match SanDefect::from_name(part) {
            Some(d) => set.enable(d),
            None => {
                eprintln!(
                    "unknown sanitizer defect {part:?}; known: {}",
                    SanDefect::ALL
                        .iter()
                        .map(|d| d.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                exit(2);
            }
        }
    }
    set
}

fn parse_generator(spec: &str) -> GeneratorKind {
    match spec {
        "bvf" => GeneratorKind::Bvf,
        "syzkaller" => GeneratorKind::Syzkaller,
        "buzzer" => GeneratorKind::BuzzerAluJmp,
        "buzzer-random" => GeneratorKind::BuzzerRandom,
        other => {
            eprintln!("unknown generator {other:?}");
            exit(2);
        }
    }
}

fn cmd_bugs() {
    println!("{:34} {:10} injectable defects", "name", "component");
    for bug in BugId::ALL {
        println!(
            "{:34} {:10} {}",
            bug.name(),
            if bug.is_verifier_bug() {
                "verifier"
            } else {
                "kernel"
            },
            if BugId::VERIFIER_CORRECTNESS.contains(&bug) {
                "Table 2 correctness bug"
            } else if bug == BugId::CveAluOnNullablePtr {
                "CVE-2022-23222 (Listing 1)"
            } else {
                "Table 2 component bug"
            }
        );
    }
}

fn load_snapshot(path: &str) -> CorpusSnapshot {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    CorpusSnapshot::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(1);
    })
}

/// Builds a [`RunConfig`] from the scenario-run flags shared by `fuzz`,
/// `corpus export`, `replay` and `minimize`: `--bugs`, `--version`,
/// `--no-sanitize`, `--san-diff`, `--san-defect` and `--diff-oracle`.
fn run_config(args: &Args) -> RunConfig {
    let san_diff = args.flag("--san-diff");
    let no_sanitize = args.flag("--no-sanitize");
    if san_diff && no_sanitize {
        eprintln!(
            "--no-sanitize conflicts with --san-diff (the dual-execution oracle runs \
             sanitized, then unsanitized)"
        );
        exit(2);
    }
    let san_defects = args.opt("--san-defect").map(parse_san_defects);
    if san_defects.is_some() && !san_diff {
        eprintln!(
            "--san-defect requires --san-diff (defects only matter to the dual-execution oracle)"
        );
        exit(2);
    }
    RunConfig {
        bugs: args.opt("--bugs").map_or_else(BugSet::all, parse_bugs),
        version: args
            .opt("--version")
            .map_or(KernelVersion::BpfNext, parse_version),
        sanitation: if san_diff {
            Sanitation::Dual(san_defects.unwrap_or_default())
        } else if no_sanitize {
            Sanitation::Off
        } else {
            Sanitation::On
        },
        diff_oracle: args.flag("--diff-oracle"),
        prune_index: true,
    }
}

/// Builds a [`CampaignConfig`] from the `fuzz`-family flags (shared by
/// `bvf fuzz` and `bvf corpus export`).
fn campaign_config(args: &Args) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(
        args.opt("--generator")
            .map(parse_generator)
            .unwrap_or(GeneratorKind::Bvf),
        args.parsed("--iters").unwrap_or(5000),
        args.parsed("--seed").unwrap_or(1),
    );
    let run = run_config(args);
    cfg.bugs = run.bugs;
    cfg.version = run.version;
    cfg.sanitize = run.sanitation != Sanitation::Off;
    if let Sanitation::Dual(defects) = run.sanitation {
        cfg.san_diff = true;
        cfg.san_defects = defects;
    }
    cfg.diff_oracle = run.diff_oracle;
    cfg.triage = !args.flag("--no-triage");
    cfg.feedback = !args.flag("--no-feedback");
    cfg.steer = args.flag("--steer");
    if let Some(n) = args.parsed("--snapshot-every") {
        cfg.snapshot_every = std::cmp::max(n, 1);
    }
    if let Some(n) = args.parsed("--batch-len") {
        cfg.batch_len = std::cmp::max(n, 1);
    }
    if let Some(n) = args.parsed("--exchange-every") {
        cfg.exchange_every = n;
    }
    if let Some(n) = args.parsed("--exchange-batch") {
        cfg.exchange_batch = n;
    }
    if let Err(e) = cfg.validate() {
        eprintln!("{e}");
        exit(2);
    }
    if let Some(path) = args.opt("--corpus-in") {
        cfg.base = load_snapshot(path).to_base();
    }
    cfg
}

fn parse_workers(args: &Args) -> usize {
    match args.parsed::<usize>("--workers") {
        Some(0) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Some(n) => n,
        None => 1,
    }
}

fn cmd_fuzz(args: &Args) {
    let cfg = campaign_config(args);
    if let Some(addr) = args.opt("--remote") {
        cmd_fuzz_remote(args, addr, cfg);
        return;
    }
    create_outputs(args);
    let (iters, seed) = (cfg.iterations, cfg.seed);
    let workers = parse_workers(args);
    let stats_every: usize = args.parsed("--stats-every").unwrap_or((iters / 100).max(1));

    eprintln!(
        "fuzzing: {} iterations, generator {}, {} defects injected, sanitation {}{}",
        cfg.iterations,
        cfg.generator.name(),
        cfg.bugs.iter().count(),
        if cfg.sanitize { "on" } else { "off" },
        if workers > 1 {
            format!(", {workers} workers")
        } else {
            String::new()
        }
    );

    let trace_path = args.opt("--trace-out");
    let sink: Box<dyn TraceSink> = match trace_path {
        Some(path) => {
            let f = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("cannot create trace file {path}: {e}");
                exit(1);
            });
            Box::new(JsonlSink::new(std::io::BufWriter::new(f)))
        }
        None => Box::new(NullSink),
    };
    let mut tel = Telemetry::new(sink);
    let pcfg = ParallelConfig {
        workers,
        stats_every,
        chaos: args.parsed("--chaos").unwrap_or(0),
    };
    let outcome = run_local(&cfg, &pcfg, &mut tel);
    if let (Some(path), Err(e)) = (trace_path, tel.finish()) {
        eprintln!("cannot write trace file {path}: {e}");
        exit(1);
    }
    if workers > 1 {
        for w in &outcome.workers {
            eprintln!(
                "worker {}: batches {}  iters {}  accepted {}  findings {}  {:.2}s",
                w.worker,
                w.batches,
                w.iterations,
                w.accepted,
                w.findings,
                w.wall_ns as f64 / 1e9
            );
        }
    }
    let (r, outputs, registry) = (outcome.result, outcome.outputs, tel.registry);
    if let Some(path) = args.opt("--corpus-out") {
        let snap = CorpusSnapshot::from_outputs(&cfg, &outputs, &r.findings);
        std::fs::write(path, snap.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write corpus snapshot {path}: {e}");
            exit(1);
        });
        eprintln!(
            "corpus snapshot written to {path} ({} entries, {} coverage points)",
            snap.corpus_len(),
            snap.coverage().len()
        );
    }
    println!(
        "iterations {}  accepted {} ({:.1}%)  coverage {}  corpus {}",
        r.iterations,
        r.accepted,
        100.0 * r.acceptance_rate(),
        r.coverage.len(),
        r.corpus_len
    );
    if cfg.diff_oracle {
        println!(
            "diff oracle: {} steps checked ({} regs), {} skipped (emitted {}, unrecorded {}), {} divergences",
            r.diff.steps_checked,
            r.diff.regs_checked,
            r.diff.steps_skipped_emitted + r.diff.steps_skipped_unrecorded,
            r.diff.steps_skipped_emitted,
            r.diff.steps_skipped_unrecorded,
            r.diff.divergences
        );
    }
    if cfg.san_diff {
        println!(
            "sancheck: {} dual runs, {} divergences (exec {}, step {}, abort {}, masked {}, unchecked {}, fault-meta {})",
            r.san.runs,
            r.san.divergences,
            r.san.exec_mismatch,
            r.san.step_mismatch,
            r.san.san_abort,
            r.san.masked_fault,
            r.san.unchecked_access,
            r.san.fault_meta_mismatch
        );
    }
    for (phase, name) in [
        ("structure", "verify.structure_ns"),
        ("do_check", "verify.do_check_ns"),
        ("prune", "verify.prune_ns"),
        ("fixup", "verify.fixup_ns"),
        ("sanitize", "verify.sanitize_ns"),
    ] {
        if let Some(h) = registry.histogram(name).filter(|h| !h.is_empty()) {
            println!(
                "  {phase:9} mean {:>9.0} ns  p50 {:>9} ns  p99 {:>9} ns",
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99)
            );
        }
    }
    print_findings(&r.findings);

    if let Some(dir) = args.opt("--save-findings") {
        save_findings(dir, seed, &r.findings);
    }

    if let Some(path) = args.opt("--json-out") {
        let stats = r.to_stats(seed, registry);
        write_stats(path, &stats);
    }
}

fn print_findings(findings: &[FindingRecord]) {
    for rec in findings {
        println!(
            "\nfinding at iteration {} — indicator {:?}, culprits {:?}",
            rec.iteration, rec.finding.indicator, rec.culprits
        );
        for rep in &rec.finding.reports {
            println!("  {}", rep.summary());
        }
    }
    if findings.is_empty() {
        println!("no findings");
    }
}

/// Creates every output `fuzz` was asked for before the campaign runs,
/// so an unwritable path fails at once rather than after the last
/// iteration.
fn create_outputs(args: &Args) {
    for (flag, what) in [
        ("--json-out", "stats file"),
        ("--corpus-out", "corpus snapshot"),
        ("--trace-out", "trace file"),
    ] {
        if let Some(path) = args.opt(flag) {
            if let Err(e) = std::fs::File::create(path) {
                eprintln!("cannot create {what} {path}: {e}");
                exit(1);
            }
        }
    }
    if let Some(dir) = args.opt("--save-findings") {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create findings dir {dir}: {e}");
            exit(1);
        }
    }
}

/// Saves each finding's scenario into `dir` ([`create_outputs`] made it).
fn save_findings(dir: &str, seed: u64, findings: &[FindingRecord]) {
    // Seed-qualified names let campaigns share a directory; refuse
    // to overwrite before writing anything rather than midway.
    let paths: Vec<_> = (0..findings.len())
        .map(|i| Path::new(dir).join(format!("finding-s{seed}-{i:03}.json")))
        .collect();
    if let Some(existing) = paths.iter().find(|p| p.exists()) {
        eprintln!(
            "refusing to overwrite {} (same seed already saved here; pick another directory or seed)",
            existing.display()
        );
        exit(1);
    }
    for (path, rec) in paths.iter().zip(findings) {
        let json = serde_json::to_string_pretty(&rec.finding.scenario).unwrap();
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write finding {}: {e}", path.display());
            exit(1);
        });
        println!("saved {}", path.display());
    }
}

fn write_stats(path: &str, stats: &bvf_telemetry::CampaignStats) {
    let json = serde_json::to_string_pretty(stats).unwrap();
    std::fs::write(path, json).unwrap_or_else(|e| {
        eprintln!("cannot write stats file {path}: {e}");
        exit(1);
    });
    eprintln!("stats written to {path}");
}

/// `bvf fuzz --remote ADDR`: submit the campaign to a fabric
/// coordinator and block until remote workers finish it. The merged
/// stats and findings are bit-identical to a local run of the same
/// config, so `--json-out` / `--save-findings` behave exactly as they
/// do locally; flags that configure *local* execution machinery are
/// rejected rather than silently ignored.
fn cmd_fuzz_remote(args: &Args, addr: &str, cfg: CampaignConfig) {
    for flag in [
        "--workers",
        "--chaos",
        "--trace-out",
        "--corpus-out",
        "--stats-every",
    ] {
        if args.opt(flag).is_some() {
            eprintln!(
                "{flag} is not supported with --remote: the coordinator schedules \
                 its attached workers, and trace/snapshot export and the stats \
                 cadence are local-only"
            );
            exit(2);
        }
    }
    create_outputs(args);
    let seed = cfg.seed;
    eprintln!(
        "fuzzing via coordinator {addr}: {} iterations, generator {}, {} defects injected, sanitation {}",
        cfg.iterations,
        cfg.generator.name(),
        cfg.bugs.iter().count(),
        if cfg.sanitize { "on" } else { "off" }
    );
    let mut client = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to coordinator at {addr}: {e}");
        exit(1);
    });
    let mut last_done = usize::MAX;
    let outcome = client
        .run_to_completion(cfg, Duration::from_millis(50), |s| {
            if s.batches_done != last_done {
                last_done = s.batches_done;
                eprintln!(
                    "  remote: {}/{} batches done ({} leased)  iters {}  accepted {}  findings {}",
                    s.batches_done,
                    s.batches_total,
                    s.batches_leased,
                    s.iterations,
                    s.accepted,
                    s.findings
                );
            }
        })
        .unwrap_or_else(|e| {
            eprintln!("remote campaign failed: {e}");
            exit(1);
        });
    let stats = &outcome.stats;
    println!(
        "iterations {}  accepted {} ({:.1}%)  coverage {}  corpus {}",
        stats.iterations,
        stats.accepted,
        100.0 * stats.acceptance_rate,
        stats.coverage_points,
        stats.corpus_len
    );
    print_findings(&outcome.findings);
    if let Some(dir) = args.opt("--save-findings") {
        save_findings(dir, seed, &outcome.findings);
    }
    if let Some(path) = args.opt("--json-out") {
        write_stats(path, stats);
    }
}

fn cmd_serve(args: &Args) {
    let Some(listen) = args.opt("--listen") else {
        eprintln!("serve needs --listen ADDR");
        exit(2);
    };
    let defaults = CoordinatorOptions::default();
    if let Some(dir) = args.opt("--state") {
        // Created before binding, so a bad state dir is not reported as
        // a bad address.
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create state dir {dir}: {e}");
            exit(1);
        }
    }
    let opts = CoordinatorOptions {
        state_dir: args.opt("--state").map(PathBuf::from),
        lease_timeout: args
            .parsed("--lease-timeout")
            .map_or(defaults.lease_timeout, Duration::from_secs),
    };
    let coordinator = Coordinator::bind(listen, opts).unwrap_or_else(|e| {
        eprintln!("cannot bind coordinator on {listen}: {e}");
        exit(1);
    });
    match coordinator.local_addr() {
        Ok(a) => eprintln!("fabric coordinator listening on {a}"),
        Err(_) => eprintln!("fabric coordinator listening on {listen}"),
    }
    match coordinator.run() {
        Ok(c) => eprintln!(
            "coordinator shut down: {} leases issued ({} re-issued), {} completions \
             ({} duplicate), {} deltas streamed, {} worker sessions",
            c.leases_issued,
            c.leases_reissued,
            c.completions,
            c.duplicate_completions,
            c.deltas_streamed,
            c.worker_sessions
        ),
        Err(e) => {
            eprintln!("coordinator failed: {e}");
            exit(1);
        }
    }
}

fn cmd_worker(args: &Args) {
    let Some(addr) = args.opt("--connect") else {
        eprintln!("worker needs --connect ADDR");
        exit(2);
    };
    let defaults = WorkerOptions::default();
    let opts = WorkerOptions {
        poll: args
            .parsed("--poll-ms")
            .map_or(defaults.poll, Duration::from_millis),
        max_batches: args.parsed("--max-batches"),
        ..defaults
    };
    let stop = AtomicBool::new(false);
    match run_worker(addr, &opts, &stop) {
        Ok(report) => eprintln!(
            "worker done: {} batches across {} campaigns ({} abandoned)",
            report.batches, report.campaigns, report.abandoned
        ),
        // The coordinator closing the connection (shutdown) is the
        // normal way an open-ended worker exits — not a failure.
        Err(FabricError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
            ) =>
        {
            eprintln!("worker exiting: coordinator closed the connection");
        }
        Err(e) => {
            eprintln!("worker failed: {e}");
            exit(1);
        }
    }
}

fn load_scenario(path: &str) -> Scenario {
    let data = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    if path.ends_with(".json") {
        serde_json::from_slice(&data).unwrap_or_else(|e| {
            eprintln!("cannot parse scenario: {e}");
            exit(1);
        })
    } else {
        // Raw instruction bytes; run as a socket filter test run.
        let prog = bvf_isa::Program::from_bytes(&data).unwrap_or_else(|| {
            eprintln!("program length must be a multiple of 8 bytes");
            exit(1);
        });
        Scenario::test_run(prog, bvf_kernel_sim::progtype::ProgType::SocketFilter)
    }
}

fn cmd_replay(args: &Args, path: &str) {
    let scenario = load_scenario(path);
    let cfg = run_config(args);

    println!(
        "program ({:?}, trigger {:?}):\n{}",
        scenario.prog_type,
        scenario.trigger,
        scenario.prog.dump()
    );
    let out = run(&scenario, &cfg, &mut ExecScratch::new());
    match &out.load {
        Ok(_) => println!(
            "verifier: ACCEPTED ({} insns processed)",
            out.verifier_insns
        ),
        Err(e) => println!(
            "verifier: REJECTED ({} insns processed) — {e}",
            out.verifier_insns
        ),
    }
    if out.attach_rejected {
        println!("attach: REFUSED");
    }
    if let Some(h) = out.halt {
        println!("execution halted: {h:?}");
    }
    if cfg.diff_oracle {
        println!(
            "diff oracle: {} steps checked ({} regs), {} divergences",
            out.diff.steps_checked, out.diff.regs_checked, out.diff.divergences
        );
    }
    if let Sanitation::Dual(_) = cfg.sanitation {
        println!(
            "sancheck: {} dual runs, {} divergences",
            out.san.runs, out.san.divergences
        );
    }
    for r in &out.reports {
        println!("report: {}", r.summary());
    }
    if let Some(f) = judge(&scenario, &out) {
        // The exact string campaign dedup keys on, so a replayed finding
        // can be matched against `fuzz` output byte for byte.
        println!("\noracle: indicator {:?} triggered", f.indicator);
        println!("signature: {}", report_signature(f.indicator, &f.reports));
        println!("running triage...");
        let culprits = triage(&f, &cfg);
        println!("culprits: {culprits:?}");
        if matches!(cfg.sanitation, Sanitation::Dual(d) if !d.is_empty())
            && f.reports
                .iter()
                .any(|r| matches!(r, KernelReport::SanitizerDivergence { .. }))
        {
            let sd = triage_san_defects(&f, &cfg);
            println!(
                "sanitizer-defect culprits: {:?}",
                sd.iter().map(|d| d.name()).collect::<Vec<_>>()
            );
        }
    } else {
        println!("\noracle: no finding");
    }
}

fn cmd_minimize(args: &Args, path: &str) {
    let scenario = load_scenario(path);
    let cfg = run_config(args);

    let out = match minimize(&scenario, &cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("cannot minimize: {e}");
            exit(1);
        }
    };
    println!(
        "minimized: {} of {} instruction units kept ({} replays)",
        out.units_kept, out.units_total, out.replays
    );
    println!(
        "cache: {} hits, {} misses ({} candidate evaluations answered without a replay)",
        out.cache_hits, out.cache_misses, out.cache_hits
    );
    println!("signature: {}", out.signature);
    println!("{}", out.scenario.prog.dump());

    let out_path = args
        .opt("--out")
        .map(String::from)
        .unwrap_or_else(|| format!("{}.min.json", path.trim_end_matches(".json")));
    let json = serde_json::to_string_pretty(&out.scenario).unwrap();
    std::fs::write(&out_path, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        exit(1);
    });
    println!("saved {out_path}");
}

fn cmd_sancheck(args: &Args) {
    let version = args
        .opt("--version")
        .map(parse_version)
        .unwrap_or(KernelVersion::BpfNext);
    // `--matrix` is the documented spelling; a bare `bvf sancheck` runs
    // the same defect matrix.
    let _ = args.flag("--matrix");

    let out = run_matrix(version);
    println!("sanitizer-defect matrix ({version:?}):");
    let mut divergences = 0u64;
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    for r in &out.results {
        if r.diverged_armed {
            divergences += 1;
        }
        if r.diverged_healed {
            divergences += 1;
        }
        if let Some(k) = r.kind {
            *kinds.entry(k.name().to_string()).or_insert(0) += 1;
        }
        let verdict = if r.caught() { "CAUGHT" } else { "ESCAPED" };
        println!(
            "  {:20} armed={:5} healed={:5} kind={:18} {}",
            r.defect.name(),
            r.diverged_armed,
            r.diverged_healed,
            r.kind.map(|k| k.name()).unwrap_or("-"),
            verdict
        );
    }
    let escaped = out.escaped();
    println!(
        "matrix: {}/{} defect classes caught",
        out.results.len() - escaped.len(),
        out.results.len()
    );

    if let Some(path) = args.opt("--json-out") {
        let stats = bvf_telemetry::SancheckStats {
            runs: 2 * out.results.len() as u64,
            divergences,
            kinds,
            matrix_hits: out.hits(),
        };
        let json = serde_json::to_string_pretty(&stats).unwrap();
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        println!("saved {path}");
    }

    if !escaped.is_empty() {
        eprintln!(
            "ESCAPED: {:?}",
            escaped.iter().map(|d| d.name()).collect::<Vec<_>>()
        );
        exit(1);
    }
}

fn cmd_disasm(path: &str) {
    let scenario = load_scenario(path);
    println!("{}", scenario.prog.dump());
}

fn print_snapshot_summary(snap: &CorpusSnapshot) {
    println!(
        "{} v{}  generator {}  seed {}  iterations {}  batch-len {}  exchange-every {}",
        snap.format,
        snap.version,
        snap.generator,
        snap.seed,
        snap.iterations,
        snap.batch_len,
        snap.exchange_every
    );
    println!(
        "{} batches  {} corpus entries  {} coverage points  {} findings",
        snap.batches.len(),
        snap.corpus_len(),
        snap.coverage().len(),
        snap.finding_signatures().len()
    );
}

fn cmd_corpus_export(args: &Args) {
    let Some(out) = args.opt("--out") else {
        eprintln!("corpus export needs --out FILE");
        exit(2);
    };
    let cfg = campaign_config(args);
    let pcfg = ParallelConfig::new(parse_workers(args));
    let outcome = run_local(&cfg, &pcfg, &mut Telemetry::null());
    let snap = CorpusSnapshot::from_outputs(&cfg, &outcome.outputs, &outcome.result.findings);
    std::fs::write(out, snap.to_json()).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    print_snapshot_summary(&snap);
    println!("saved {out}");
}

fn cmd_corpus_import(args: &Args) {
    let snaps: Vec<CorpusSnapshot> = args.positional.iter().map(|p| load_snapshot(p)).collect();
    let merged = CorpusSnapshot::merge(snaps).unwrap_or_else(|e| {
        eprintln!("corpus import: {e}");
        exit(1);
    });
    print_snapshot_summary(&merged);
    if let Some(out) = args.opt("--out") {
        std::fs::write(out, merged.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            exit(1);
        });
        println!("saved {out}");
    }
}

/// `bvf report <trace.jsonl>`: fold a `--trace-out` file back into the
/// rejection-taxonomy breakdown, per-shape acceptance rates, and the
/// verifier time of each verdict class.
///
/// Worker-tagged parallel traces are supported: `Gen` and `Verify`
/// events are joined on `(worker, iter)`, so each verdict is attributed
/// to the shape of the program it ruled on. Any malformed line aborts
/// with a nonzero exit, pointing at the offending line.
fn cmd_report(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });

    let mut verified = 0usize;
    let mut accepted = 0usize;
    let mut reasons: BTreeMap<String, usize> = BTreeMap::new();
    // Shape of the program generated at (worker, iter), awaiting its
    // Verify event. Mutations and unsteered generations have no shape
    // tag and fall into the "unsteered" bucket.
    let mut pending_shape: BTreeMap<(u64, usize), String> = BTreeMap::new();
    // shape -> (verdicts, accepted)
    let mut by_shape: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    // Verifier time per verdict class, as (loads, total_ns, do_check_ns):
    // accepted, complexity-limit rejections, other rejections.
    const VERDICT_CLASSES: [&str; 3] = ["accepted", "complexity limit", "other rejections"];
    let mut time_by_verdict = [(0usize, 0u64, 0u64); 3];

    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let value: serde_json::Value = serde_json::from_str(line).unwrap_or_else(|e| {
            eprintln!("{path}:{lineno}: malformed trace line: {e}");
            exit(2);
        });
        let worker = value.get("worker").and_then(|w| w.as_u64()).unwrap_or(0);
        let event: TraceEvent = serde_json::from_value(value).unwrap_or_else(|e| {
            eprintln!("{path}:{lineno}: not a trace event: {e}");
            exit(2);
        });
        match event {
            TraceEvent::Gen { iter, shape, .. } => {
                let label = shape.unwrap_or_else(|| "unsteered".to_string());
                pending_shape.insert((worker, iter), label);
            }
            TraceEvent::Verify {
                iter,
                accepted: ok,
                reason,
                do_check_ns,
                total_ns,
                ..
            } => {
                verified += 1;
                let class = match &reason {
                    _ if ok => 0,
                    Some(r) if r == RejectReason::ComplexityLimit.name() => 1,
                    _ => 2,
                };
                let time = &mut time_by_verdict[class];
                time.0 += 1;
                time.1 += total_ns;
                time.2 += do_check_ns;
                let label = pending_shape
                    .remove(&(worker, iter))
                    .unwrap_or_else(|| "unsteered".to_string());
                let slot = by_shape.entry(label).or_insert((0, 0));
                slot.0 += 1;
                if ok {
                    accepted += 1;
                    slot.1 += 1;
                } else {
                    let key = reason.unwrap_or_else(|| "unknown".to_string());
                    *reasons.entry(key).or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }

    let rejected = verified - accepted;
    let pct = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };
    println!(
        "{verified} programs verified: {accepted} accepted ({:.1}%), {rejected} rejected",
        pct(accepted, verified)
    );

    println!("\nrejection reasons ({} distinct):", reasons.len());
    if rejected == 0 {
        println!("  (none)");
    } else {
        let mut rows: Vec<(&String, &usize)> = reasons.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        for (reason, count) in rows {
            println!("  {reason:<28} {count:>8}  {:>5.1}%", pct(*count, rejected));
        }
    }

    println!("\nacceptance by generation shape:");
    if by_shape.is_empty() {
        println!("  (no verdicts)");
    } else {
        for (shape, (verdicts, acc)) in &by_shape {
            println!(
                "  {shape:<28} {acc:>8} / {verdicts:<8} {:>5.1}%",
                pct(*acc, *verdicts)
            );
        }
    }

    // Verifier time is every verifier phase plus sanitation
    // (`total_ns`); `do_check` is the symbolic walk inside it.
    let all_ns: u64 = time_by_verdict.iter().map(|t| t.1).sum();
    println!("\nverifier time by verdict:");
    for (class, (loads, total_ns, do_check_ns)) in VERDICT_CLASSES.iter().zip(time_by_verdict) {
        let mean_ms = if loads == 0 {
            0.0
        } else {
            total_ns as f64 / loads as f64 / 1e6
        };
        println!(
            "  {class:<28} {loads:>8} loads {:>10.3} s {:>5.1}%  mean {mean_ms:>9.3} ms  do_check {:>10.3} s",
            total_ns as f64 / 1e9,
            if all_ns == 0 { 0.0 } else { 100.0 * total_ns as f64 / all_ns as f64 },
            do_check_ns as f64 / 1e9,
        );
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `corpus` takes a second subcommand word.
    let words = match argv.first().map(String::as_str) {
        Some("corpus") => 2,
        Some("--help" | "-h") => {
            println!("{USAGE}");
            exit(0)
        }
        _ => 1,
    };
    let name = format!(
        "bvf {}",
        argv.get(..words).unwrap_or_else(|| usage()).join(" ")
    );
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| usage());
    let args = Args::parse(cmd, &argv[words..], USAGE);
    let path = || args.positional[0].as_str();
    match cmd.name {
        "bvf fuzz" => cmd_fuzz(&args),
        "bvf serve" => cmd_serve(&args),
        "bvf worker" => cmd_worker(&args),
        "bvf replay" => cmd_replay(&args, path()),
        "bvf minimize" => cmd_minimize(&args, path()),
        "bvf disasm" => cmd_disasm(path()),
        "bvf report" => cmd_report(path()),
        "bvf corpus export" => cmd_corpus_export(&args),
        "bvf corpus import" => cmd_corpus_import(&args),
        "bvf corpus info" => print_snapshot_summary(&load_snapshot(path())),
        "bvf sancheck" => cmd_sancheck(&args),
        "bvf bugs" => cmd_bugs(),
        _ => unreachable!("every command in COMMANDS is dispatched"),
    }
}
