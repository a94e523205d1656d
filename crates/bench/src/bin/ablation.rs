//! **Ablation study**: the contribution of each BVF component, in the
//! spirit of RQ2/RQ3.
//!
//! Four configurations over the same budget and the full Table 2 kernel:
//!
//! - **full BVF** — structure + sanitation + coverage feedback;
//! - **no sanitation** — the `bpf_asan_*` dispatch is compiled out, so
//!   indicator #1 only fires when the invalid access happens to be a hard
//!   page fault (in-pool corruption goes silent);
//! - **no feedback** — every iteration generates fresh (no corpus);
//! - **no structure** — the Syzkaller-like generator replaces the framed
//!   structure (sanitation and feedback stay on).
//!
//! Usage: `ablation [--iters N]`

use bvf::baseline::GeneratorKind;
use bvf::cli::{val, Args, Command};
use bvf::fuzz::CampaignConfig;
use bvf_bench::{render_table, run_campaign_with_stats, save_json};
use bvf_kernel_sim::BugId;

const CLI: Command = Command {
    name: "ablation",
    positional: (0, 0),
    flags: &[&[val("--iters")]],
};

fn main() {
    let args = Args::from_env(&CLI, "usage: ablation [--iters N]");
    let iters = args.parsed_or("--iters", 8_000);

    let configs: Vec<(&str, CampaignConfig)> = vec![
        (
            "full BVF",
            CampaignConfig::new(GeneratorKind::Bvf, iters, 11),
        ),
        ("no sanitation", {
            let mut c = CampaignConfig::new(GeneratorKind::Bvf, iters, 11);
            c.sanitize = false;
            c
        }),
        ("no feedback", {
            let mut c = CampaignConfig::new(GeneratorKind::Bvf, iters, 11);
            c.feedback = false;
            c
        }),
        (
            "no structure",
            CampaignConfig::new(GeneratorKind::Syzkaller, iters, 11),
        ),
    ];

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (name, cfg) in configs {
        eprintln!("running {name} ({iters} iterations)...");
        let (r, stats) = run_campaign_with_stats(&cfg);
        let verifier_bugs = r.found_bugs.iter().filter(|b| b.is_verifier_bug()).count();
        rows.push(vec![
            name.to_string(),
            format!("{}/12", r.found_bugs.len()),
            format!("{verifier_bugs}/7"),
            format!("{:.1}%", 100.0 * r.acceptance_rate()),
            format!("{}", r.coverage.len()),
        ]);
        json.push(serde_json::json!({
            "config": name,
            // The shared CampaignStats schema (as in `bvf fuzz --json-out`).
            "stats": serde_json::to_value(&stats).unwrap(),
        }));
        let _ = BugId::ALL;
    }

    println!("\nAblation study ({iters} iterations per configuration, all defects injected)\n");
    println!(
        "{}",
        render_table(
            &[
                "Configuration",
                "Bugs found",
                "Verifier bugs",
                "Acceptance",
                "Coverage"
            ],
            &rows
        )
    );
    println!(
        "Expected shape: sanitation is what surfaces the silent indicator-#1 bugs;\n\
         structure is what gets programs deep enough to trigger anything; feedback\n\
         mainly accelerates coverage growth."
    );
    save_json(
        "ablation.json",
        &serde_json::json!({ "iters": iters, "configs": json }),
    );
}
