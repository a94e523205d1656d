//! Timed campaign runs and the correctness checks on their results.

use std::collections::BTreeMap;
use std::time::Instant;

use bvf::fuzz::{run_campaign_with_telemetry, CampaignConfig, CampaignResult};
use bvf_telemetry::Telemetry;
use serde_json::{json, Value};

use crate::workload::Workload;

/// The deterministic results of one campaign. Two runs of one
/// (workload, seed) must agree on every field, whatever sink they ran
/// with.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Iterations executed.
    pub iterations: usize,
    /// Programs the verifier accepted.
    pub accepted: usize,
    /// Verifier coverage points reached.
    pub coverage_points: usize,
    /// Rejection reason → count.
    pub reject_reasons: BTreeMap<String, usize>,
    /// Dedup signatures of the findings, in campaign order.
    pub signatures: Vec<String>,
    /// Injected defects the findings were triaged to.
    pub found_bugs: Vec<String>,
    /// Abstract-vs-concrete divergences the diff oracle flagged.
    pub diff_divergences: u64,
    /// Sanitized-vs-unsanitized divergences the sancheck oracle flagged.
    pub san_divergences: u64,
}

impl Fingerprint {
    /// The fingerprint of a finished campaign.
    pub fn of(r: &CampaignResult) -> Fingerprint {
        Fingerprint {
            iterations: r.iterations,
            accepted: r.accepted,
            coverage_points: r.coverage.len(),
            reject_reasons: r.reject_reasons.clone(),
            signatures: r.findings.iter().map(|f| f.signature.clone()).collect(),
            found_bugs: r.found_bugs.iter().map(|b| b.name().to_string()).collect(),
            diff_divergences: r.diff.divergences,
            san_divergences: r.san.divergences,
        }
    }

    /// Share of programs the verifier accepted.
    pub fn acceptance_rate(&self) -> f64 {
        self.accepted as f64 / self.iterations.max(1) as f64
    }

    /// Iterations that did not end in a verifier verdict or a completed
    /// run: load failures outside the verifier (`syscall`, which covers
    /// `sanitize_failed`), plus every [`unexpected`] finding.
    pub fn failed(&self, w: &Workload) -> usize {
        self.reject_reasons.get("syscall").copied().unwrap_or(0)
            + unexpected(w, &self.signatures).len()
    }

    /// JSON form for the results document.
    pub fn to_json(&self) -> Value {
        json!({
            "iterations": self.iterations,
            "accepted": self.accepted,
            "coverage_points": self.coverage_points,
            "reject_reasons": self.reject_reasons,
            "signatures": self.signatures,
            "found_bugs": self.found_bugs,
            "diff_divergences": self.diff_divergences,
            "san_divergences": self.san_divergences
        })
    }
}

/// Finding signatures BVF reports on a defect-free kernel because of a
/// defect of its own, not of the kernel. A new defect-free finding
/// fails the run; these are reported but expected until fixed.
///
/// - `One:alulimit`: sanitation puts a pointer `alu_limit` check on a
///   scalar subtraction (`fuzz-fresh`, seed 10, iteration 59595:
///   `r8 -= r6` at insn 20 checked against limit 8).
pub const KNOWN_FALSE_POSITIVES: &[&str] = &["One:alulimit"];

/// The finding signatures a workload must not produce: none when it
/// injects defects, otherwise all but [`KNOWN_FALSE_POSITIVES`].
pub fn unexpected<'a>(w: &Workload, signatures: &'a [String]) -> Vec<&'a str> {
    signatures
        .iter()
        .map(String::as_str)
        .filter(|s| !w.defects && !KNOWN_FALSE_POSITIVES.contains(s))
        .collect()
}

/// Problems with one campaign's results; empty when they are correct.
pub fn check(w: &Workload, cfg: &CampaignConfig, fp: &Fingerprint) -> Vec<String> {
    let mut problems = Vec::new();
    if fp.iterations != cfg.iterations {
        problems.push(format!(
            "ran {} iterations, configured {}",
            fp.iterations, cfg.iterations
        ));
    }
    let rejected: usize = fp.reject_reasons.values().sum();
    if fp.accepted + rejected != fp.iterations {
        problems.push(format!(
            "{} accepted + {rejected} rejected != {} iterations",
            fp.accepted, fp.iterations
        ));
    }
    let unexpected = unexpected(w, &fp.signatures);
    if !unexpected.is_empty() {
        problems.push(format!(
            "{} finding(s) on a defect-free kernel: {unexpected:?}",
            unexpected.len()
        ));
    }
    if !w.defects && fp.diff_divergences + fp.san_divergences > 0 {
        problems.push(format!(
            "oracle divergences on a defect-free kernel: diff {} sancheck {}",
            fp.diff_divergences, fp.san_divergences
        ));
    }
    problems
}

/// Problems when `other`, a second run of the campaign `first` came
/// from, gives different results.
pub fn check_same(what: &str, first: &Fingerprint, other: &Fingerprint) -> Vec<String> {
    if first == other {
        Vec::new()
    } else {
        vec![format!(
            "{what} disagrees with its untraced run: {} vs {}",
            serde_json::to_string(&other.to_json()).unwrap_or_default(),
            serde_json::to_string(&first.to_json()).unwrap_or_default()
        )]
    }
}

/// Runs the campaign through `run_campaign_with_telemetry` with the
/// null sink, as `bvf fuzz --workers 1` does without `--trace-out`;
/// returns its fingerprint and wall time in seconds.
pub fn run_untraced(cfg: &CampaignConfig) -> (Fingerprint, f64) {
    let t0 = Instant::now();
    let r = run_campaign_with_telemetry(cfg, &mut Telemetry::null());
    (Fingerprint::of(&r), t0.elapsed().as_secs_f64())
}

/// A duration in whole nanoseconds, saturated into `u64`.
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn fingerprint() -> Fingerprint {
        Fingerprint {
            iterations: 10,
            accepted: 6,
            coverage_points: 100,
            reject_reasons: BTreeMap::from([("uninit_reg_read".to_string(), 4)]),
            signatures: Vec::new(),
            found_bugs: Vec::new(),
            diff_divergences: 0,
            san_divergences: 0,
        }
    }

    #[test]
    fn clean_results_pass() {
        let w = Workload::by_name("fuzz-fresh").unwrap();
        let mut cfg = w.config(1);
        cfg.iterations = 10;
        assert!(check(w, &cfg, &fingerprint()).is_empty());
        assert_eq!(fingerprint().failed(w), 0);
    }

    #[test]
    fn known_false_positive_is_reported_not_failed() {
        let mut fp = fingerprint();
        fp.signatures.push(KNOWN_FALSE_POSITIVES[0].to_string());
        let w = Workload::by_name("fuzz-fresh").unwrap();
        let mut cfg = w.config(1);
        cfg.iterations = 10;
        assert!(check(w, &cfg, &fp).is_empty());
        assert_eq!(fp.failed(w), 0);
    }

    #[test]
    fn finding_on_defect_free_workload_is_rejected() {
        let mut fp = fingerprint();
        fp.signatures.push(KNOWN_FALSE_POSITIVES[0].to_string());
        fp.signatures.push("One:kasan:Oob:Program:true".to_string());
        for name in ["fuzz-fresh", "fuzz-oracles"] {
            let w = Workload::by_name(name).unwrap();
            let mut cfg = w.config(1);
            cfg.iterations = 10;
            let problems = check(w, &cfg, &fp);
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(problems[0].contains("defect-free"));
            assert_eq!(fp.failed(w), 1);
        }
        // With defects injected, a finding is the point of the run.
        let w = Workload::by_name("fuzz-default").unwrap();
        let mut cfg = w.config(1);
        cfg.iterations = 10;
        assert!(check(w, &cfg, &fp).is_empty());
        assert_eq!(fp.failed(w), 0);
    }

    #[test]
    fn divergence_and_miscount_are_rejected() {
        let w = Workload::by_name("fuzz-oracles").unwrap();
        let mut cfg = w.config(1);
        cfg.iterations = 10;
        let mut fp = fingerprint();
        fp.san_divergences = 1;
        fp.accepted = 5;
        assert_eq!(check(w, &cfg, &fp).len(), 2);
        assert_eq!(check_same("rep 2", &fingerprint(), &fp).len(), 1);
        assert!(check_same("rep 2", &fp, &fp).is_empty());
    }
}
