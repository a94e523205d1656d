//! Span B of the traced run: a layer replay that splits the scenario
//! span. It re-generates the campaign's fresh-program stream and drives
//! each program through the public calls one campaign iteration makes,
//! timing every call itself.
//!
//! Without coverage feedback the stream is exactly the campaign's, so
//! the replay must reproduce its verdicts. With feedback, 40% of the
//! campaign's programs are mutants chosen by a private function; the
//! replay then runs the same seed's fresh stream instead, and the
//! traced run reports how far its per-iteration cost drifts from the
//! campaign's.
//!
//! With `--san-diff` every program is also loaded and run unsanitized,
//! and the two runs compared, as the dual-execution oracle does.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bvf::fuzz::{batch_bounds, batch_count, report_signature, stream_seed, CampaignConfig};
use bvf::scenario::{standard_maps, Trigger, FUZZ_POOL_SIZE};
use bvf::{judge, GenConfig, Scenario, ScenarioOutcome, StructuredGen};
use bvf_diff::DiffStats;
use bvf_kernel_sim::tracepoint::AttachPoint;
use bvf_runtime::{Bpf, BpfError, ExecScratch};
use bvf_sancheck::{RunView, SanStats};
use bvf_telemetry::profile::elapsed_ns;
use bvf_verifier::{Coverage, VerifierOpts};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Replay totals over the whole stream, nanoseconds unless noted.
#[derive(Debug, Default)]
pub struct Replay {
    /// Programs replayed.
    pub iterations: usize,
    /// Programs the verifier accepted.
    pub accepted: usize,
    /// Rejection reason → count, named as the campaign names them.
    pub reject_reasons: BTreeMap<String, usize>,
    /// Dedup signatures of the programs the oracle flagged.
    pub flagged: Vec<String>,
    /// Kernel boot, `Bpf` set-up, standard maps, and buffer reclaim.
    pub boot_ns: u64,
    /// `prog_load_with_cov` minus its verifier and sanitation phases.
    pub lower_ns: u64,
    /// Verifier phases of the primary load.
    pub verify_ns: u64,
    /// Sanitation of the primary load.
    pub sanitize_ns: u64,
    /// Running the accepted program (`test_run` or a trigger).
    pub exec_ns: u64,
    /// Instructions executed.
    pub exec_steps: u64,
    /// Boot and load of the unsanitized second run.
    pub second_load_ns: u64,
    /// Execution of the unsanitized second run.
    pub second_exec_ns: u64,
    /// `bvf_sancheck::compare`.
    pub compare_ns: u64,
    /// `oracle::judge`.
    pub judge_ns: u64,
    /// Folding the program's coverage into the campaign's.
    pub cov_fold_ns: u64,
}

impl Replay {
    /// The replayed cost of the layers the campaign's scenario span
    /// holds.
    pub fn scenario_ns(&self) -> u64 {
        self.boot_ns
            + self.lower_ns
            + self.verify_ns
            + self.sanitize_ns
            + self.exec_ns
            + self.second_load_ns
            + self.second_exec_ns
            + self.compare_ns
            + self.cov_fold_ns
    }
}

/// The campaign's fresh-generation stream: batch `b` draws from
/// `stream_seed(seed, b)` with a new generator, as a lease does.
pub fn fresh_stream(cfg: &CampaignConfig) -> impl Iterator<Item = Scenario> + '_ {
    (0..batch_count(cfg)).flat_map(move |b| {
        let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, b));
        let gen = StructuredGen::new(GenConfig {
            version: cfg.version,
            ..Default::default()
        });
        let (_, len) = batch_bounds(cfg, b);
        (0..len).map(move |_| gen.generate(&mut rng))
    })
}

/// Replays `cfg`'s fresh stream through every layer. The workloads arm
/// no `--diff-oracle`, so neither does the replay.
pub fn replay(cfg: &CampaignConfig) -> Replay {
    assert!(
        !cfg.diff_oracle,
        "the replay does not model the diff oracle"
    );
    let mut r = Replay::default();
    let mut scratch = ExecScratch::new();
    let seen = Coverage::new();
    let mut cov = Coverage::new();
    for s in fresh_stream(cfg) {
        replay_one(cfg, &s, &mut scratch, &seen, &mut cov, &mut r);
    }
    r
}

fn replay_one(
    cfg: &CampaignConfig,
    s: &Scenario,
    scratch: &mut ExecScratch,
    seen: &Coverage,
    cov: &mut Coverage,
    r: &mut Replay,
) {
    r.iterations += 1;
    let mut primary = run_side(cfg, s, true, scratch);
    r.boot_ns += primary.boot_ns;
    r.lower_ns += primary.lower_ns;
    let t = &primary.outcome.timings;
    r.verify_ns += t.structure_ns + t.do_check_ns + t.fixup_ns;
    r.sanitize_ns += t.sanitize_ns;
    r.exec_ns += primary.exec_ns;
    r.exec_steps += primary.outcome.exec_steps;
    match &primary.outcome.load {
        Ok(_) => r.accepted += 1,
        Err(e) => {
            *r.reject_reasons
                .entry(reject_reason(e).to_string())
                .or_insert(0) += 1
        }
    }

    if cfg.san_diff {
        let second = run_side(cfg, s, false, scratch);
        r.second_load_ns += second.boot_ns + second.lower_ns + second.outcome.timings.total_ns();
        r.second_exec_ns += second.exec_ns;
        if primary.outcome.accepted() && second.outcome.accepted() {
            let t0 = Instant::now();
            let divergences =
                bvf_sancheck::compare(&view(&primary.outcome), &view(&second.outcome));
            r.compare_ns += elapsed_ns(t0);
            primary.outcome.reports.extend(divergences);
        }
    }

    let t0 = Instant::now();
    let finding = judge(s, &primary.outcome);
    r.judge_ns += elapsed_ns(t0);
    if let Some(f) = finding {
        r.flagged.push(report_signature(f.indicator, &f.reports));
    }

    // The campaign's fold: a lookup in the batch's seed view, then an
    // insert into its own coverage.
    let t0 = Instant::now();
    let mut new_cov = 0usize;
    for p in primary.outcome.cov.iter_points() {
        if !seen.contains_point(p) && cov.insert_point(p) {
            new_cov += 1;
        }
    }
    black_box(new_cov);
    r.cov_fold_ns += elapsed_ns(t0);
}

/// One boot-load-run of a scenario, as the campaign's scenario runner
/// performs it, with each call timed.
struct Side {
    outcome: ScenarioOutcome,
    boot_ns: u64,
    lower_ns: u64,
    exec_ns: u64,
}

fn run_side(cfg: &CampaignConfig, s: &Scenario, sanitize: bool, scratch: &mut ExecScratch) -> Side {
    let t0 = Instant::now();
    let mut kernel = scratch.boot_kernel(cfg.bugs.clone(), FUZZ_POOL_SIZE);
    kernel.mm.san_defects = cfg.san_defects;
    let opts = VerifierOpts {
        version: cfg.version,
        prune_index: cfg.prune_index,
        ..Default::default()
    };
    let mut bpf = Bpf::with_kernel(kernel, opts, sanitize).with_backend(cfg.backend);
    for def in standard_maps() {
        bpf.map_create(def).expect("standard maps fit");
    }
    for (fd, key, value) in &s.map_seed {
        let _ = bpf.map_update(*fd, key, value);
    }
    let mut boot_ns = elapsed_ns(t0);

    let t0 = Instant::now();
    let (load, cov, timings) = bpf.prog_load_with_cov(&s.prog, s.prog_type);
    let lower_ns = elapsed_ns(t0).saturating_sub(timings.total_ns());
    if let (Ok(id), true) = (&load, s.offloaded) {
        bpf.progs[*id as usize].offloaded = true;
    }
    let verifier_insns = match &load {
        Ok(id) => bpf.progs[*id as usize].xlated.insns_processed,
        Err(_) => 0,
    };

    let mut o = ScenarioOutcome {
        load,
        cov,
        reports: Vec::new(),
        halt: None,
        attach_rejected: false,
        verifier_insns,
        timings,
        exec_steps: 0,
        helper_calls: 0,
        kfunc_calls: 0,
        diff: DiffStats::default(),
        exec_hash: 0,
        instrumented_steps: 0,
        san: SanStats::default(),
    };
    let mut exec_ns = 0;
    if let Ok(id) = o.load {
        let t0 = Instant::now();
        match s.trigger {
            Trigger::TestRun => match bpf.test_run(id) {
                Ok(run) => {
                    o.reports.extend(run.reports);
                    o.halt = Some(run.exec.halt);
                    o.exec_steps = run.exec.steps;
                    o.helper_calls = run.exec.helper_calls;
                    o.kfunc_calls = run.exec.kfunc_calls;
                    o.exec_hash = run.exec.exec_hash;
                    o.instrumented_steps = run.exec.instrumented_steps;
                }
                Err(_) => o.reports.extend(bpf.kernel.end_execution()),
            },
            Trigger::Tracepoint(tp) => match bpf.prog_attach(id, AttachPoint::Tracepoint(tp)) {
                Ok(()) => o.reports.extend(bpf.trigger_tracepoint(tp)),
                Err(_) => o.attach_rejected = true,
            },
            Trigger::XdpReceive => {
                let point = AttachPoint::Xdp {
                    offloaded: s.offloaded,
                };
                match bpf.prog_attach(id, point) {
                    Ok(()) => o.reports.extend(bpf.xdp_receive()),
                    Err(_) => o.attach_rejected = true,
                }
            }
            Trigger::GetXlated => {
                let _ = bpf.prog_get_xlated(id);
                o.reports.extend(bpf.kernel.end_execution());
            }
        }
        exec_ns = elapsed_ns(t0);
    }
    let t0 = Instant::now();
    scratch.reclaim(bpf);
    boot_ns += elapsed_ns(t0);
    Side {
        outcome: o,
        boot_ns,
        lower_ns,
        exec_ns,
    }
}

fn view(o: &ScenarioOutcome) -> RunView<'_> {
    RunView {
        halt: o.halt,
        exec_hash: o.exec_hash,
        steps: o.exec_steps,
        instrumented_steps: o.instrumented_steps,
        helper_calls: o.helper_calls,
        kfunc_calls: o.kfunc_calls,
        reports: &o.reports,
    }
}

/// The campaign's name for a load error: the verifier's reason, or the
/// `syscall` catch-all.
fn reject_reason(e: &BpfError) -> &'static str {
    match e {
        BpfError::Verifier(v) => v.reason.name(),
        BpfError::Errno { .. } => "syscall",
    }
}
