//! The benchmark's workloads and metric catalog. `BENCHMARK.json` at
//! the repository root lists the same names; a test keeps the two equal.

use bvf::fuzz::CampaignConfig;
use bvf::GeneratorKind;
use bvf_kernel_sim::BugSet;
use bvf_runtime::Backend;

/// How long one run may take, seconds: the cap on a run's set-up
/// probes and campaigns. `BENCHMARK.json` declares the same
/// `run_seconds`; a test keeps the two equal.
pub const RUN_SECONDS: u64 = 30;

/// One campaign configuration the benchmark runs. Every workload uses
/// the BVF generator on bpf-next with sanitation on, the compiled
/// backend and one worker; they differ in the flags below.
///
/// A run makes `campaigns` campaigns of `iterations` each, at seeds
/// `S`, `S + 1`, …, where `S` is the run's `--seed`. Most of a feedback
/// campaign's wall time goes to the few programs that hit the
/// verifier's complexity limit, and how many do swings with the seed;
/// summing over many short campaigns averages that out.
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// Iterations of one campaign.
    pub iterations: usize,
    /// Campaigns of one run (one under `--quick`), sized to take about
    /// two thirds of [`RUN_SECONDS`] on a 2-vCPU host.
    pub campaigns: usize,
    /// All 12 injected defects (`bvf fuzz` default) or none
    /// (`--bugs none`).
    pub defects: bool,
    /// Coverage feedback (`bvf fuzz` default) or `--no-feedback`.
    pub feedback: bool,
    /// `--san-diff`: the sanitizer self-validation oracle, which loads
    /// and runs every program twice.
    pub san_diff: bool,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fuzz-default",
        why: "bvf fuzz defaults (12 defects, feedback, triage): the paper's use case; \
              programs that hit the complexity limit make the verifier dominate",
        iterations: 500,
        campaigns: 220,
        defects: true,
        feedback: true,
        san_diff: false,
    },
    Workload {
        name: "fuzz-fresh",
        why: "--bugs none --no-feedback: independent programs sharing no code, so \
              generation, boot, lowering and execution carry half the time",
        iterations: 10_000,
        campaigns: 40,
        defects: false,
        feedback: false,
        san_diff: false,
    },
    // Without `--diff-oracle`: on a defect-free kernel that oracle flags
    // a real divergence on some seeds (a subprogram call clobbers the
    // caller's r7 on both backends; seed 107, iteration 7066), and a
    // benchmark workload must run clean.
    Workload {
        name: "fuzz-oracles",
        why: "--bugs none --san-diff: every program is verified, loaded and run twice \
              and the runs compared; the target of verify-once work",
        iterations: 500,
        campaigns: 90,
        defects: false,
        feedback: true,
        san_diff: true,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The `bvf fuzz` flags this workload adds to the defaults.
    pub fn bvf_flags(&self) -> Vec<&'static str> {
        let mut flags = Vec::new();
        if !self.defects {
            flags.extend(["--bugs", "none"]);
        }
        if !self.feedback {
            flags.push("--no-feedback");
        }
        if self.san_diff {
            flags.push("--san-diff");
        }
        flags.extend(["--backend", "compiled", "--workers", "1"]);
        flags
    }

    /// The seeds of a run's campaigns: `seed`, `seed + 1`, … — just
    /// `seed` under `--quick`.
    pub fn campaign_seeds(&self, seed: u64, quick: bool) -> impl Iterator<Item = u64> {
        let n = if quick { 1 } else { self.campaigns as u64 };
        (0..n).map(move |i| seed.wrapping_add(i))
    }

    /// The configuration of the campaign at `seed`, built from the
    /// flags above the way `bvf fuzz` builds it.
    pub fn config(&self, seed: u64) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, self.iterations, seed);
        if !self.defects {
            cfg.bugs = BugSet::none();
        }
        cfg.feedback = self.feedback;
        cfg.san_diff = self.san_diff;
        cfg.backend = Backend::Compiled;
        cfg
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit the value is reported in.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
    /// Per-layer metrics: the end-to-end metric and the workload the
    /// layer is predicted to move.
    pub moves: Option<(&'static str, &'static str)>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: None,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: (&'static str, &'static str),
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        moves: Some(moves),
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("execs_per_s", "iter/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("coverage_points", "count", Higher, 0.1),
    e2e("acceptance_rate", "fraction", Higher, 0.1),
];

const EXECS: &str = "execs_per_s";
const COV: &str = "coverage_points";
const DEFAULT: &str = "fuzz-default";
const FRESH: &str = "fuzz-fresh";
const ORACLES: &str = "fuzz-oracles";

/// Per-layer metrics, measured by the traced run. Every `_s` metric is
/// followed by its `_share` of the traced wall time.
pub const PER_LAYER: &[Metric] = &[
    layer("gen.self_s", "s", Lower, (EXECS, FRESH)),
    layer("gen.self_share", "fraction", Lower, (EXECS, FRESH)),
    layer("verifier.total_s", "s", Lower, (EXECS, DEFAULT)),
    layer("verifier.total_share", "fraction", Lower, (EXECS, DEFAULT)),
    layer("verifier.structure_s", "s", Lower, (EXECS, DEFAULT)),
    layer(
        "verifier.structure_share",
        "fraction",
        Lower,
        (EXECS, DEFAULT),
    ),
    layer("verifier.do_check_s", "s", Lower, (EXECS, DEFAULT)),
    layer(
        "verifier.do_check_share",
        "fraction",
        Lower,
        (EXECS, DEFAULT),
    ),
    layer("verifier.fixup_s", "s", Lower, (EXECS, DEFAULT)),
    layer("verifier.fixup_share", "fraction", Lower, (EXECS, DEFAULT)),
    layer("verifier.complexity_limit_s", "s", Lower, (EXECS, DEFAULT)),
    layer(
        "verifier.complexity_limit_share",
        "fraction",
        Lower,
        (EXECS, DEFAULT),
    ),
    layer(
        "verifier.complexity_limit_count",
        "count",
        Lower,
        (EXECS, DEFAULT),
    ),
    layer("verifier.accepted_s", "s", Lower, (EXECS, FRESH)),
    layer("verifier.accepted_share", "fraction", Lower, (EXECS, FRESH)),
    layer("prune.checks", "count", Lower, (EXECS, DEFAULT)),
    layer("prune.hits", "count", Higher, (EXECS, DEFAULT)),
    layer("prune.hit_rate", "fraction", Higher, (EXECS, DEFAULT)),
    layer("prune.states_equal_calls", "count", Lower, (EXECS, DEFAULT)),
    layer(
        "prune.fingerprint_filtered",
        "count",
        Higher,
        (EXECS, DEFAULT),
    ),
    layer("prune.states_stored", "count", Lower, (EXECS, DEFAULT)),
    layer("sanitize.total_s", "s", Lower, (EXECS, FRESH)),
    layer("sanitize.total_share", "fraction", Lower, (EXECS, FRESH)),
    layer("runtime.boot_s", "s", Lower, (EXECS, FRESH)),
    layer("runtime.boot_share", "fraction", Lower, (EXECS, FRESH)),
    layer("runtime.lower_s", "s", Lower, (EXECS, FRESH)),
    layer("runtime.lower_share", "fraction", Lower, (EXECS, FRESH)),
    layer("runtime.exec_s", "s", Lower, (EXECS, FRESH)),
    layer("runtime.exec_share", "fraction", Lower, (EXECS, FRESH)),
    layer("runtime.exec_steps", "count", Lower, (EXECS, FRESH)),
    layer("runtime.exec_steps_per_s", "1/s", Higher, (EXECS, ORACLES)),
    layer("sancheck.second_load_s", "s", Lower, (EXECS, ORACLES)),
    layer(
        "sancheck.second_load_share",
        "fraction",
        Lower,
        (EXECS, ORACLES),
    ),
    layer("sancheck.second_exec_s", "s", Lower, (EXECS, ORACLES)),
    layer(
        "sancheck.second_exec_share",
        "fraction",
        Lower,
        (EXECS, ORACLES),
    ),
    layer("sancheck.compare_s", "s", Lower, (EXECS, ORACLES)),
    layer(
        "sancheck.compare_share",
        "fraction",
        Lower,
        (EXECS, ORACLES),
    ),
    layer("oracle.judge_s", "s", Lower, (EXECS, DEFAULT)),
    layer("oracle.judge_share", "fraction", Lower, (EXECS, DEFAULT)),
    layer("oracle.self_s", "s", Lower, (EXECS, DEFAULT)),
    layer("oracle.self_share", "fraction", Lower, (EXECS, DEFAULT)),
    layer("oracle.triage_count", "count", Lower, (EXECS, DEFAULT)),
    layer("oracle.bugs_found", "count", Higher, (COV, DEFAULT)),
    layer("fuzz.cov_fold_s", "s", Lower, (EXECS, FRESH)),
    layer("fuzz.cov_fold_share", "fraction", Lower, (EXECS, FRESH)),
    layer("trace.scenario_rest_s", "s", Lower, (EXECS, FRESH)),
    layer(
        "trace.scenario_rest_share",
        "fraction",
        Lower,
        (EXECS, FRESH),
    ),
    layer("trace.unaccounted_s", "s", Lower, (EXECS, DEFAULT)),
    layer(
        "trace.unaccounted_share",
        "fraction",
        Lower,
        (EXECS, DEFAULT),
    ),
    layer("trace.overhead_frac", "fraction", Lower, (EXECS, DEFAULT)),
    layer("replay.drift_frac", "fraction", Lower, (EXECS, DEFAULT)),
];
