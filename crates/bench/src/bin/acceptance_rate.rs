//! **Experiment E4 — §6.3 acceptance-rate analysis**.
//!
//! Feeds N generated programs per tool through the verifier and reports
//! the acceptance rate, the rejection-errno mix, the dominant typed
//! rejection reasons, the ALU/JMP instruction share, and the mean
//! program size.
//!
//! Paper reference: BVF 49 %, Syzkaller 23.5 % (top errnos EACCES and
//! EINVAL), Buzzer 1 % (random mode) / 97 % (ALU/JMP mode, with ≥88.4 %
//! ALU+JMP instructions).
//!
//! Usage: `acceptance_rate [--iters N]`

use bvf::baseline::GeneratorKind;
use bvf::cli::{val, Args, Command};
use bvf::fuzz::CampaignConfig;
use bvf_bench::{render_table, run_campaign_with_stats, save_json};

const CLI: Command = Command {
    name: "acceptance_rate",
    positional: (0, 0),
    flags: &[&[val("--iters")]],
};

fn main() {
    let args = Args::from_env(&CLI, "usage: acceptance_rate [--iters N]");
    let iters = args.parsed_or("--iters", 2_000);
    let tools = [
        GeneratorKind::Bvf,
        GeneratorKind::Syzkaller,
        GeneratorKind::BuzzerRandom,
        GeneratorKind::BuzzerAluJmp,
    ];

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for tool in tools {
        let cfg = CampaignConfig {
            triage: false,
            ..CampaignConfig::new(tool, iters, 31)
        };
        eprintln!("running {} ({iters} programs)...", tool.name());
        let (r, stats) = run_campaign_with_stats(&cfg);
        let errnos: Vec<String> = r
            .errno_histogram
            .iter()
            .map(|(e, c)| {
                let name = match e {
                    13 => "EACCES",
                    22 => "EINVAL",
                    7 => "E2BIG",
                    95 => "EOPNOTSUPP",
                    _ => "?",
                };
                format!("{name}:{c}")
            })
            .collect();
        // Top rejection reasons from the verifier's typed taxonomy,
        // largest first (ties broken by name for stable output).
        let mut reasons: Vec<(&String, &usize)> = r.reject_reasons.iter().collect();
        reasons.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let top_reasons: Vec<String> = reasons
            .iter()
            .take(3)
            .map(|(name, c)| format!("{name}:{c}"))
            .collect();
        rows.push(vec![
            tool.name().to_string(),
            format!("{:.1}%", 100.0 * r.acceptance_rate()),
            errnos.join(" "),
            top_reasons.join(" "),
            format!("{:.1}%", 100.0 * r.alu_jmp_share),
            format!("{:.0}", r.avg_prog_len),
        ]);
        // One CampaignStats document per tool — the same schema
        // `bvf fuzz --json-out` writes.
        json.push(serde_json::to_value(&stats).unwrap());
    }

    println!("\n§6.3 acceptance-rate analysis ({iters} programs per tool)\n");
    println!(
        "{}",
        render_table(
            &[
                "Tool",
                "Acceptance",
                "Rejection errnos",
                "Top reject reasons",
                "ALU/JMP share",
                "Avg insns"
            ],
            &rows
        )
    );
    println!("paper: BVF 49% | Syzkaller 23.5% (EACCES/EINVAL dominate) | Buzzer 1% / 97% (>=88.4% ALU+JMP)");

    save_json(
        "acceptance_rate.json",
        &serde_json::json!({ "iters": iters, "tools": json }),
    );
}
