//! **Explored-state index effectiveness** (the verifier hot path).
//!
//! Runs the same campaign twice — fingerprint index on and off — and
//! reports what the index buys: the fraction of `states_equal`
//! comparisons the structural fingerprint filtered out, the prune hit
//! rate, resident states per prune point, eviction traffic, and the
//! wall-clock ratio between the two runs. The two campaigns must
//! produce identical findings, acceptance, and coverage, and explore
//! alike: equal `prune.checks`, `prune.hits`, `prune.evictions`,
//! `prune.points` and `prune.states_stored`. The index is a pure filter
//! and this binary doubles as the regression check for that invariant
//! (`--check` additionally enforces the >50% filtered-fraction floor
//! from the optimization's acceptance criteria, for CI).
//!
//! All counters come from the merged `prune.*` registry counters the
//! verifier threads through `PhaseTimings` — the same numbers `bvf
//! fuzz --json-out` emits, so committed results and campaign dumps
//! stay comparable.
//!
//! Usage: `prune_bench [--iters N] [--seed S] [--quick] [--check]`

use bvf::baseline::GeneratorKind;
use bvf::cli::{bare, val, Args, Command};
use bvf::fuzz::CampaignConfig;
use bvf_bench::{render_table, run_campaign_with_stats, save_json};

const CLI: Command = Command {
    name: "prune_bench",
    positional: (0, 0),
    flags: &[&[
        val("--iters"),
        val("--seed"),
        bare("--quick"),
        bare("--check"),
    ]],
};

fn main() {
    let args = Args::from_env(
        &CLI,
        "usage: prune_bench [--iters N] [--seed S] [--quick] [--check]",
    );
    let quick = args.flag("--quick");
    let check = args.flag("--check");
    let iters = args.parsed_or("--iters", if quick { 2_000 } else { 20_000 });
    let seed = args.parsed_or("--seed", 41);

    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, iters, seed);
    eprintln!("prune_bench: {iters} iterations, seed {seed}, index on vs off");

    let t0 = std::time::Instant::now();
    let (on, on_stats) = run_campaign_with_stats(&cfg);
    let wall_ns_on = t0.elapsed().as_nanos() as u64;

    cfg.prune_index = false;
    let t1 = std::time::Instant::now();
    let (off, off_stats) = run_campaign_with_stats(&cfg);
    let wall_ns_off = t1.elapsed().as_nanos() as u64;

    // The pure-filter invariant, end to end: same findings, same
    // acceptance, same coverage, and the same exploration — every prune
    // point visited, pruned, stored and evicted alike. Only the
    // comparison counts may move.
    let sig = |r: &bvf::fuzz::CampaignResult| {
        r.findings
            .iter()
            .map(|f| (f.iteration, f.signature.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(sig(&on), sig(&off), "index changed the findings");
    assert_eq!(on.accepted, off.accepted, "index changed acceptance");
    assert_eq!(on.coverage, off.coverage, "index changed coverage");
    for name in [
        "prune.checks",
        "prune.hits",
        "prune.evictions",
        "prune.points",
        "prune.states_stored",
    ] {
        assert_eq!(
            on_stats.metrics.counter(name),
            off_stats.metrics.counter(name),
            "index changed {name}"
        );
    }

    let c = |name: &str| on_stats.metrics.counter(name);
    let checks = c("prune.checks");
    let hits = c("prune.hits");
    let calls = c("prune.states_equal_calls");
    let filtered = c("prune.fingerprint_filtered");
    let evictions = c("prune.evictions");
    let points = c("prune.points");
    let stored = c("prune.states_stored");
    let calls_off = off_stats.metrics.counter("prune.states_equal_calls");

    let frac = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    // Of the candidate comparisons the index run considered, how many
    // did the fingerprint answer without running `states_equal`?
    let filtered_fraction = frac(filtered, filtered + calls);
    let hit_rate = frac(hits, checks);
    let states_per_point = frac(stored, points);
    let speedup = wall_ns_off as f64 / wall_ns_on.max(1) as f64;

    let rows = vec![
        vec!["prune-point visits".into(), checks.to_string()],
        vec![
            "prune hits".into(),
            format!("{hits} ({:.1}%)", hit_rate * 100.0),
        ],
        vec!["states_equal calls (on)".into(), calls.to_string()],
        vec!["states_equal calls (off)".into(), calls_off.to_string()],
        vec![
            "fingerprint filtered".into(),
            format!(
                "{filtered} ({:.1}% of candidates)",
                filtered_fraction * 100.0
            ),
        ],
        vec!["evictions".into(), evictions.to_string()],
        vec![
            "states / prune point".into(),
            format!("{states_per_point:.2} ({stored} in {points} points)"),
        ],
        vec!["wall ratio off/on".into(), format!("{speedup:.2}x")],
    ];
    println!("\nexplored-state index effectiveness ({iters} iterations)\n");
    println!("{}", render_table(&["Metric", "Value"], &rows));

    save_json(
        "prune_bench.json",
        &serde_json::json!({
            "iters": iters,
            "seed": seed,
            "quick": quick,
            "prune_checks": checks,
            "prune_hits": hits,
            "hit_rate": hit_rate,
            "states_equal_calls_on": calls,
            "states_equal_calls_off": calls_off,
            "fingerprint_filtered": filtered,
            "filtered_fraction": filtered_fraction,
            "evictions": evictions,
            "prune_points": points,
            "states_stored": stored,
            "states_per_point": states_per_point,
            "wall_ns_on": wall_ns_on,
            "wall_ns_off": wall_ns_off,
            "wall_ratio_off_over_on": speedup,
            "findings": on.findings.len(),
            "findings_identical": true,
        }),
    );

    if check {
        assert!(
            filtered_fraction > 0.5,
            "fingerprint filter below the 50% floor: {:.1}% \
             ({filtered} filtered vs {calls} executed)",
            filtered_fraction * 100.0
        );
        eprintln!(
            "check passed: {:.1}% of candidate comparisons filtered",
            filtered_fraction * 100.0
        );
    }
}
