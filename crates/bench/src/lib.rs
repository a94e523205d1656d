//! Shared infrastructure for the experiment harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` for the experiment index). The
//! helpers here format tables and persist machine-readable results.

use std::path::Path;

use bvf::fuzz::{run_campaign_with_telemetry, CampaignConfig, CampaignResult};
use bvf_telemetry::{CampaignStats, Telemetry};

/// Runs one campaign with metrics telemetry and returns the result plus
/// its [`CampaignStats`] document — the same schema `bvf fuzz
/// --json-out` emits, so `bench_results/*.json` and campaign dumps are
/// interchangeable for plotting.
pub fn run_campaign_with_stats(cfg: &CampaignConfig) -> (CampaignResult, CampaignStats) {
    let mut tel = Telemetry::null();
    let r = run_campaign_with_telemetry(cfg, &mut tel);
    let stats = r.to_stats(cfg.seed, std::mem::take(&mut tel.registry));
    (r, stats)
}

/// Renders a fixed-width text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    line(&mut out);
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("| {:w$} ", h, w = widths[i]));
    }
    out.push_str("|\n");
    line(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("| {:w$} ", cell, w = widths[i]));
        }
        out.push_str("|\n");
    }
    line(&mut out);
    out
}

/// Writes a JSON results file under `bench_results/`, exiting 1 if it
/// cannot: a bench run whose results silently vanish has failed.
pub fn save_json(name: &str, value: &serde_json::Value) {
    let dir = Path::new("bench_results");
    let path = dir.join(name);
    let json = serde_json::to_string_pretty(value).unwrap();
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, format!("{json}\n")));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["tool", "coverage"],
            &[
                vec!["BVF".into(), "60905".into()],
                vec!["Syzkaller".into(), "50062".into()],
            ],
        );
        assert!(t.contains("| BVF"));
        assert!(t.contains("| 60905"));
        let widths: Vec<usize> = t.lines().map(|l| l.len()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "all lines same width"
        );
    }
}
