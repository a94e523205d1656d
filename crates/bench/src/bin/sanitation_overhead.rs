//! **Experiment E5 — §6.4 sanitation overhead**.
//!
//! Builds a selftest-style corpus of verifier-accepted programs
//! containing load/store instructions (the paper uses the 708 manual
//! eBPF self-tests), executes each with and without BVF's sanitation,
//! and reports:
//!
//! - the execution slowdown (both deterministic interpreted-instruction
//!   counts and wall-clock), and
//! - the instruction-footprint growth of the instrumentation.
//!
//! Paper reference: average slowdown 90 %, instruction footprint 3.0×
//! (ASan on CPU2006 for comparison: 73 % and 3.37×).
//!
//! Usage: `sanitation_overhead [--corpus N] [--repeats K]`

use std::time::Instant;

use bvf::cli::{val, Args, Command};
use bvf::gen::{GenConfig, StructuredGen};
use bvf::scenario::{standard_maps, Scenario};
use bvf_bench::{render_table, save_json};
use bvf_kernel_sim::BugSet;
use bvf_runtime::Bpf;
use bvf_verifier::VerifierOpts;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fresh_bpf(sanitize: bool) -> Bpf {
    let mut b = Bpf::new(BugSet::none(), VerifierOpts::default(), sanitize);
    for def in standard_maps() {
        b.map_create(def).unwrap();
    }
    b
}

fn has_mem_access(prog: &bvf_isa::Program) -> bool {
    prog.iter_decoded().any(|(_, r)| {
        matches!(
            r,
            Ok((
                bvf_isa::InsnKind::Ldx { .. }
                    | bvf_isa::InsnKind::St { .. }
                    | bvf_isa::InsnKind::Stx { .. }
                    | bvf_isa::InsnKind::Atomic { .. },
                _
            ))
        )
    })
}

const CLI: Command = Command {
    name: "sanitation_overhead",
    positional: (0, 0),
    flags: &[&[val("--corpus"), val("--repeats")]],
};

fn main() {
    let args = Args::from_env(
        &CLI,
        "usage: sanitation_overhead [--corpus N] [--repeats K]",
    );
    let corpus_target = args.parsed_or("--corpus", 708);
    let repeats = args.parsed_or("--repeats", 3);

    // Build the corpus: accepted programs containing load/stores
    // ("tests without any load/store are skipped since they cannot
    // trigger our instrumentation").
    eprintln!("building selftest corpus of {corpus_target} accepted programs...");
    let gen = StructuredGen::new(GenConfig {
        mem_heavy: true,
        max_body_frames: 9,
        ..GenConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut corpus: Vec<Scenario> = Vec::new();
    let mut probe = fresh_bpf(false);
    while corpus.len() < corpus_target {
        let s = gen.generate(&mut rng);
        if !has_mem_access(&s.prog) {
            continue;
        }
        if probe.prog_load(&s.prog, s.prog_type, false).is_ok() {
            corpus.push(s);
        }
        if probe.progs.len() > 512 {
            probe = fresh_bpf(false);
        }
    }

    // Static footprint: instrument every corpus program once.
    let mut insns_before = 0usize;
    let mut insns_after = 0usize;
    let mut mem_checks = 0usize;
    let mut alu_checks = 0usize;
    let mut skipped = 0usize;
    {
        let mut b = fresh_bpf(true);
        for (i, s) in corpus.iter().enumerate() {
            let id = b
                .prog_load(&s.prog, s.prog_type, false)
                .expect("accepted above");
            let stats = b.progs[id as usize].sanitize_stats.expect("sanitize on");
            insns_before += stats.insns_before;
            insns_after += stats.insns_after;
            mem_checks += stats.mem_checks;
            alu_checks += stats.alu_checks;
            skipped += stats.skipped_stack_const;
            if i % 256 == 255 {
                b = fresh_bpf(true);
            }
        }
    }

    // Dynamic overhead: execute each program sanitized and plain,
    // measuring interpreted steps (deterministic) and wall time.
    let mut steps_plain = 0u64;
    let mut steps_san = 0u64;
    let mut wall_plain = 0.0f64;
    let mut wall_san = 0.0f64;
    for _ in 0..repeats {
        for sanitize in [false, true] {
            let mut b = fresh_bpf(sanitize);
            let t0 = Instant::now();
            let mut steps = 0u64;
            for (i, s) in corpus.iter().enumerate() {
                let id = b.prog_load(&s.prog, s.prog_type, false).expect("accepted");
                if let Ok(run) = b.test_run(id) {
                    steps += run.exec.steps;
                }
                if i % 128 == 127 {
                    b = fresh_bpf(sanitize);
                }
            }
            let dt = t0.elapsed().as_secs_f64();
            if sanitize {
                steps_san += steps;
                wall_san += dt;
            } else {
                steps_plain += steps;
                wall_plain += dt;
            }
        }
    }

    let footprint = insns_after as f64 / insns_before as f64;
    let slowdown_steps = 100.0 * (steps_san as f64 / steps_plain as f64 - 1.0);
    let slowdown_wall = 100.0 * (wall_san / wall_plain - 1.0);

    println!(
        "\n§6.4 sanitation overhead ({} programs, {repeats} repeats)\n",
        corpus.len()
    );
    let rows = vec![
        vec![
            "instruction footprint".to_string(),
            format!("{footprint:.2}x"),
            "3.0x".to_string(),
            "3.37x (ASan)".to_string(),
        ],
        vec![
            "slowdown (interpreted insns)".to_string(),
            format!("{slowdown_steps:.1}%"),
            "90%".to_string(),
            "73% (ASan)".to_string(),
        ],
        vec![
            "slowdown (wall clock)".to_string(),
            format!("{slowdown_wall:.1}%"),
            "90%".to_string(),
            "73% (ASan)".to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(&["metric", "measured", "paper (BVF)", "reference"], &rows)
    );
    println!(
        "instrumented: {mem_checks} mem checks, {alu_checks} alu-limit checks; {skipped} R10-const accesses skipped"
    );

    save_json(
        "sanitation_overhead.json",
        &serde_json::json!({
            "corpus": corpus.len(),
            "repeats": repeats,
            "insns_before": insns_before,
            "insns_after": insns_after,
            "footprint_factor": footprint,
            "slowdown_steps_pct": slowdown_steps,
            "slowdown_wall_pct": slowdown_wall,
            "mem_checks": mem_checks,
            "alu_checks": alu_checks,
            "skipped_stack_const": skipped,
        }),
    );
}
