//! Versioned on-disk corpus snapshots (`bvf corpus export` / `import`).
//!
//! A snapshot serializes a campaign's exchange ledger: one record per
//! lease batch carrying the corpus entries the batch retained, its
//! coverage **delta** (the points it observed first, as sorted raw
//! keys), and its finding summaries. Because per-batch deltas are
//! disjoint in batch order, the snapshot's total coverage is just their
//! union, and two snapshots merge by interleaving their batch records
//! in batch order and re-disjointing the deltas — no information about
//! worker schedules or host speed is in the file, so snapshots taken on
//! different hosts merge deterministically ([`CorpusSnapshot::merge`]).
//!
//! An imported snapshot becomes a campaign's *base* seed view
//! ([`CorpusSnapshot::to_base`] → [`CampaignConfig::base`]): every
//! batch starts from the imported corpus and measures retention against
//! the imported coverage, so a cross-host campaign spends its budget on
//! what the exporting campaign did not already reach.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use bvf_verifier::Coverage;

use crate::fuzz::{BatchOutput, BatchSeed, CampaignConfig, FindingRecord, ShapeStats, CORPUS_CAP};
use crate::scenario::Scenario;

/// The snapshot format tag (`format` field).
pub const CORPUS_FORMAT: &str = "bvf-corpus";
/// The current snapshot format version (`version` field).
pub const CORPUS_FORMAT_VERSION: u32 = 1;

/// One finding, reduced to its stable identity for cross-host merging.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotFinding {
    /// Ordering-stable dedup signature.
    pub signature: String,
    /// Global campaign iteration at which it was first seen.
    pub iteration: usize,
    /// The oracle indicator, as its debug name.
    pub indicator: String,
    /// Triaged culprit defect names on the record the merge kept for its
    /// signature; empty on the others, and when untriaged.
    pub culprits: Vec<String>,
}

/// One lease batch's ledger record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotBatch {
    /// Lease batch id within the snapshot (strictly increasing).
    pub batch: usize,
    /// First global iteration of the batch in its source campaign.
    pub start: usize,
    /// Iterations the batch executed.
    pub iterations: usize,
    /// Corpus entries the batch retained and published.
    pub corpus: Vec<Scenario>,
    /// The batch's coverage delta as **sorted** raw point keys,
    /// disjoint from all earlier batches in the snapshot.
    pub coverage: Vec<u64>,
    /// Findings first recorded by this batch.
    pub findings: Vec<SnapshotFinding>,
}

/// A versioned, self-describing corpus snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusSnapshot {
    /// Always [`CORPUS_FORMAT`].
    pub format: String,
    /// Always [`CORPUS_FORMAT_VERSION`] for files this build writes.
    pub version: u32,
    /// Generator name of the source campaign (`"merged"` after merging
    /// snapshots from differing generators).
    pub generator: String,
    /// Seed of the source campaign (first snapshot's seed after
    /// merging).
    pub seed: u64,
    /// Total iterations behind this snapshot (summed by merge).
    pub iterations: usize,
    /// Lease batch length of the source campaign (the longest of the
    /// sources' after merging).
    pub batch_len: usize,
    /// Corpus-exchange generation length of the source campaign, in
    /// iterations.
    pub exchange_every: usize,
    /// Per-batch ledger records, in batch order.
    pub batches: Vec<SnapshotBatch>,
}

impl CorpusSnapshot {
    /// Builds a snapshot from a campaign's batch outputs (any order;
    /// records are sorted by batch id) and the findings
    /// [`merge_batches`](crate::fuzz::merge_batches) kept, whose
    /// culprits go on the kept records only.
    pub fn from_outputs(
        cfg: &CampaignConfig,
        outputs: &[BatchOutput],
        merged: &[FindingRecord],
    ) -> CorpusSnapshot {
        // An iteration yields at most one finding, so it names the record.
        let kept: HashMap<usize, &FindingRecord> =
            merged.iter().map(|f| (f.iteration, f)).collect();
        let mut batches: Vec<SnapshotBatch> = outputs
            .iter()
            .map(|o| SnapshotBatch {
                batch: o.batch,
                start: o.start,
                iterations: o.iterations,
                corpus: o.fresh_corpus.iter().map(|s| (**s).clone()).collect(),
                coverage: o.cov_delta.to_sorted_points(),
                findings: o
                    .findings
                    .iter()
                    .map(|f| SnapshotFinding {
                        signature: f.signature.clone(),
                        iteration: f.iteration,
                        indicator: format!("{:?}", f.finding.indicator),
                        culprits: kept.get(&f.iteration).map_or_else(Vec::new, |k| {
                            k.culprits.iter().map(|b| b.name().to_string()).collect()
                        }),
                    })
                    .collect(),
            })
            .collect();
        batches.sort_by_key(|b| b.batch);
        CorpusSnapshot {
            format: CORPUS_FORMAT.to_string(),
            version: CORPUS_FORMAT_VERSION,
            generator: cfg.generator.name().to_string(),
            seed: cfg.seed,
            iterations: cfg.iterations,
            batch_len: cfg.batch_len,
            exchange_every: cfg.exchange_every,
            batches,
        }
    }

    /// Checks the self-description, the batch-order invariants and the
    /// iteration ranges: a nonzero `batch_len`, no batch longer than it
    /// or ending past `usize::MAX`, and a header `iterations` equal to
    /// the batches' sum.
    pub fn validate(&self) -> Result<(), String> {
        if self.format != CORPUS_FORMAT {
            return Err(format!(
                "not a {CORPUS_FORMAT} file (format {:?})",
                self.format
            ));
        }
        if self.version != CORPUS_FORMAT_VERSION {
            return Err(format!(
                "unsupported {CORPUS_FORMAT} version {} (this build reads {})",
                self.version, CORPUS_FORMAT_VERSION
            ));
        }
        if self.batch_len == 0 {
            return Err("batch_len is 0".to_string());
        }
        let mut prev: Option<usize> = None;
        let mut total: Option<usize> = Some(0);
        for b in &self.batches {
            if prev.is_some_and(|p| p >= b.batch) {
                return Err(format!("batch ids not strictly increasing at {}", b.batch));
            }
            prev = Some(b.batch);
            if b.coverage.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("batch {} coverage not sorted/deduped", b.batch));
            }
            if b.iterations > self.batch_len {
                return Err(format!(
                    "batch {} runs {} iterations, more than batch_len {}",
                    b.batch, b.iterations, self.batch_len
                ));
            }
            if b.start.checked_add(b.iterations).is_none() {
                return Err(format!(
                    "batch {} iteration range {}+{} overflows",
                    b.batch, b.start, b.iterations
                ));
            }
            total = total.and_then(|t| t.checked_add(b.iterations));
        }
        if total != Some(self.iterations) {
            let held = total.map_or_else(|| "overflowing".to_string(), |t| t.to_string());
            return Err(format!(
                "header claims {} iterations but its {} batches run {held}",
                self.iterations,
                self.batches.len()
            ));
        }
        Ok(())
    }

    /// Serializes to pretty JSON (the on-disk form).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization cannot fail")
    }

    /// Parses and validates a snapshot from JSON.
    pub fn from_json(text: &str) -> Result<CorpusSnapshot, String> {
        let snap: CorpusSnapshot =
            serde_json::from_str(text).map_err(|e| format!("corpus snapshot parse: {e}"))?;
        snap.validate()?;
        Ok(snap)
    }

    /// Merges snapshots (e.g. from campaigns on different hosts) into
    /// one: batch records are interleaved **by batch order** (source
    /// order breaking ties) and renumbered; coverage deltas are
    /// re-disjointed against everything earlier in the merged order, so
    /// the union invariant survives; findings keep the first record per
    /// signature in merged batch order. Deterministic in the snapshot
    /// list order, independent of where each snapshot was produced.
    ///
    /// Refuses to fold the same work twice: batches originating from
    /// the same campaign (generator + seed) must carry distinct batch
    /// ids and disjoint iteration ranges across the whole input list —
    /// importing a snapshot alongside itself, or two exports of
    /// overlapping runs, is an error, not a silently doubled corpus.
    /// Batches of *different* campaigns share ids by construction (both
    /// number from 0) and interleave fine.
    pub fn merge(snapshots: Vec<CorpusSnapshot>) -> Result<CorpusSnapshot, String> {
        for (source, snap) in snapshots.iter().enumerate() {
            snap.validate()
                .map_err(|e| format!("snapshot #{}: {e}", source + 1))?;
        }
        // Distinct batch ids per campaign, plus each non-empty batch's
        // iteration interval. Intervals sort by (generator, seed,
        // start) — NOT batch id, which a prior renumbering merge may
        // have assigned out of iteration order — so adjacent entries
        // of one campaign are interval-adjacent and a single
        // neighbour comparison detects any overlap.
        let mut seen_ids: HashSet<(String, u64, usize)> = HashSet::new();
        let mut ranges: Vec<(String, u64, usize, usize, usize, usize)> = Vec::new();
        for (source, snap) in snapshots.iter().enumerate() {
            for b in &snap.batches {
                if !seen_ids.insert((snap.generator.clone(), snap.seed, b.batch)) {
                    return Err(format!(
                        "snapshot #{} duplicates batch {} of campaign \
                         (generator {}, seed {}) — refusing to fold the same batches twice",
                        source + 1,
                        b.batch,
                        snap.generator,
                        snap.seed
                    ));
                }
                if b.iterations > 0 {
                    ranges.push((
                        snap.generator.clone(),
                        snap.seed,
                        b.start,
                        b.start + b.iterations,
                        b.batch,
                        source,
                    ));
                }
            }
        }
        ranges.sort();
        for w in ranges.windows(2) {
            let (g1, s1, start1, end1, b1, src1) = &w[0];
            let (g2, s2, start2, _, b2, src2) = &w[1];
            if g1 == g2 && s1 == s2 && start2 < end1 {
                return Err(format!(
                    "snapshots #{} and #{} overlap: campaign (generator {g1}, seed {s1}) \
                     batch {b1} covers iterations {start1}..{end1} but batch {b2} starts \
                     at {start2} — refusing to fold overlapping runs",
                    src1 + 1,
                    src2 + 1
                ));
            }
        }
        let iterations = snapshots
            .iter()
            .try_fold(0usize, |n, s| n.checked_add(s.iterations))
            .ok_or("the snapshots' iteration counts overflow when summed")?;
        Ok(Self::merge_unchecked(snapshots, iterations))
    }

    fn merge_unchecked(snapshots: Vec<CorpusSnapshot>, iterations: usize) -> CorpusSnapshot {
        let generator = {
            let mut names: Vec<&str> = snapshots.iter().map(|s| s.generator.as_str()).collect();
            names.dedup();
            match names.as_slice() {
                [one] => one.to_string(),
                _ => "merged".to_string(),
            }
        };
        let seed = snapshots.first().map_or(0, |s| s.seed);
        // The longest source batch bounds every merged one.
        let batch_len = snapshots.iter().map(|s| s.batch_len).max().unwrap_or(0);
        let exchange_every = snapshots.first().map_or(0, |s| s.exchange_every);

        let mut records: Vec<(usize, usize, SnapshotBatch)> = Vec::new();
        for (source, snap) in snapshots.into_iter().enumerate() {
            for b in snap.batches {
                records.push((b.batch, source, b));
            }
        }
        records.sort_by_key(|&(batch, source, _)| (batch, source));

        let mut seen_points: HashSet<u64> = HashSet::new();
        let mut seen_sigs: HashSet<String> = HashSet::new();
        let batches = records
            .into_iter()
            .enumerate()
            .map(|(id, (_, _, mut b))| {
                b.batch = id;
                b.coverage.retain(|&p| seen_points.insert(p));
                b.findings.retain(|f| seen_sigs.insert(f.signature.clone()));
                b
            })
            .collect();
        CorpusSnapshot {
            format: CORPUS_FORMAT.to_string(),
            version: CORPUS_FORMAT_VERSION,
            generator,
            seed,
            iterations,
            batch_len,
            exchange_every,
            batches,
        }
    }

    /// Union of the per-batch coverage deltas.
    pub fn coverage(&self) -> Coverage {
        Coverage::from_points(self.batches.iter().flat_map(|b| b.coverage.iter().copied()))
    }

    /// Total corpus entries across batches.
    pub fn corpus_len(&self) -> usize {
        self.batches.iter().map(|b| b.corpus.len()).sum()
    }

    /// The distinct finding signatures the snapshot carries.
    pub fn finding_signatures(&self) -> BTreeSet<String> {
        self.batches
            .iter()
            .flat_map(|b| b.findings.iter().map(|f| f.signature.clone()))
            .collect()
    }

    /// Converts the snapshot into a campaign base seed view
    /// ([`CampaignConfig::base`]): corpus entries in batch order
    /// (capped at [`CORPUS_CAP`]) plus the union coverage.
    pub fn to_base(&self) -> BatchSeed {
        let corpus = self
            .batches
            .iter()
            .flat_map(|b| b.corpus.iter())
            .take(CORPUS_CAP)
            .map(|s| Arc::new(s.clone()))
            .collect();
        // Snapshots predate shape accounting; an imported base starts
        // steering from uniform weights.
        BatchSeed {
            corpus,
            coverage: Arc::new(self.coverage()),
            shapes: ShapeStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::GeneratorKind;
    use crate::fuzz::{run_campaign, CampaignResult};
    use crate::runner::{run_local, ParallelConfig};
    use bvf_telemetry::Telemetry;

    /// Runs a small campaign and returns its snapshot and merged result.
    fn campaign_snapshot(cfg: &CampaignConfig) -> (CorpusSnapshot, CampaignResult) {
        let outcome = run_local(cfg, &ParallelConfig::new(1), &mut Telemetry::null());
        let snap = CorpusSnapshot::from_outputs(cfg, &outcome.outputs, &outcome.result.findings);
        (snap, outcome.result)
    }

    fn small_config(iters: usize, seed: u64) -> CampaignConfig {
        CampaignConfig {
            batch_len: 32,
            exchange_every: 64,
            ..CampaignConfig::new(GeneratorKind::Bvf, iters, seed)
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let (snap, _) = campaign_snapshot(&small_config(96, 7));
        assert!(snap.validate().is_ok());
        assert!(snap.corpus_len() > 0, "campaign retained nothing");
        let back = CorpusSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(snap, back);
        assert_eq!(snap.coverage(), back.coverage());
    }

    #[test]
    fn snapshot_coverage_matches_campaign_coverage() {
        let (snap, result) = campaign_snapshot(&small_config(96, 7));
        assert_eq!(snap.coverage(), result.coverage);
        assert_eq!(snap.corpus_len(), result.corpus_len);
    }

    #[test]
    fn merged_snapshot_carries_the_union_of_findings() {
        let (a, _) = campaign_snapshot(&small_config(160, 11));
        let (b, _) = campaign_snapshot(&small_config(160, 1234));
        let union: BTreeSet<String> = a
            .finding_signatures()
            .union(&b.finding_signatures())
            .cloned()
            .collect();
        let merged = CorpusSnapshot::merge(vec![a.clone(), b.clone()]).expect("disjoint seeds");
        assert!(merged.validate().is_ok());
        assert_eq!(merged.finding_signatures(), union);
        assert_eq!(merged.iterations, a.iterations + b.iterations);
        // Coverage deltas re-disjointed: union equals merged coverage.
        let mut expect = a.coverage();
        expect.merge(&b.coverage());
        assert_eq!(merged.coverage(), expect);
        // Batch ids renumbered strictly increasing from 0.
        for (i, batch) in merged.batches.iter().enumerate() {
            assert_eq!(batch.batch, i);
        }
    }

    #[test]
    fn merge_rejects_the_same_snapshot_twice() {
        let cfg = small_config(96, 7);
        let (snap, _) = campaign_snapshot(&cfg);
        let err = CorpusSnapshot::merge(vec![snap.clone(), snap]).unwrap_err();
        assert!(err.contains("duplicates batch"), "unhelpful error: {err}");
        assert!(
            err.contains("seed 7"),
            "error must identify the campaign: {err}"
        );
    }

    #[test]
    fn merge_rejects_overlapping_runs_of_one_campaign() {
        // Two exports of the same campaign whose iteration ranges
        // overlap, disguised with distinct batch ids (as after a prior
        // renumbering merge): still the same work twice.
        let cfg = small_config(96, 7);
        let (snap, _) = campaign_snapshot(&cfg);
        let mut shifted = snap.clone();
        for b in &mut shifted.batches {
            b.batch += snap.batches.len();
        }
        let err = CorpusSnapshot::merge(vec![snap, shifted]).unwrap_err();
        assert!(err.contains("overlap"), "unhelpful error: {err}");
    }

    #[test]
    fn merge_accepts_disjoint_exports_with_renumbered_batch_ids() {
        // Two disjoint exports of one campaign whose batch ids were
        // renumbered out of iteration order (as after a prior merge):
        // the overlap check compares iteration intervals, not batch id
        // order, so these must merge instead of being falsely rejected.
        let cfg = small_config(96, 7);
        let (snap, _) = campaign_snapshot(&cfg);
        assert!(snap.batches.len() >= 3, "need three batches to split");

        // Export A: the last and first batches as ids 0 and 1 — id
        // order now disagrees with iteration order.
        let mut a = snap.clone();
        a.batches = vec![snap.batches[2].clone(), snap.batches[0].clone()];
        a.batches[0].batch = 0;
        a.batches[1].batch = 1;
        a.iterations = a.batches.iter().map(|b| b.iterations).sum();
        // Export B: the middle batch.
        let mut b = snap.clone();
        b.batches = vec![snap.batches[1].clone()];
        b.batches[0].batch = 2;
        b.iterations = b.batches.iter().map(|b| b.iterations).sum();

        let merged = CorpusSnapshot::merge(vec![a, b])
            .expect("disjoint iteration ranges must merge regardless of batch id order");
        assert!(merged.validate().is_ok());
        assert_eq!(merged.iterations, snap.iterations);
        assert_eq!(merged.coverage(), snap.coverage());
    }

    #[test]
    fn imported_base_gates_retention() {
        // A campaign re-run on top of its own snapshot must retain
        // (almost) nothing new: its coverage was already credited.
        let cfg = small_config(96, 7);
        let (snap, _) = campaign_snapshot(&cfg);
        let baseline = run_campaign(&cfg);
        let seeded_cfg = CampaignConfig {
            base: snap.to_base(),
            ..cfg.clone()
        };
        let seeded = run_campaign(&seeded_cfg);
        assert!(
            seeded.coverage.len() < baseline.coverage.len() / 4,
            "imported coverage should gate retention: {} vs {}",
            seeded.coverage.len(),
            baseline.coverage.len()
        );
    }

    #[test]
    fn validate_rejects_foreign_and_future_files() {
        let cfg = small_config(32, 1);
        let mut snap = CorpusSnapshot::from_outputs(&cfg, &[], &[]);
        snap.format = "something-else".to_string();
        assert!(snap
            .validate()
            .unwrap_err()
            .contains("not a bvf-corpus file"));
        snap.format = CORPUS_FORMAT.to_string();
        snap.version = CORPUS_FORMAT_VERSION + 1;
        assert!(snap.validate().unwrap_err().contains("unsupported"));
    }

    #[test]
    fn validate_rejects_impossible_iteration_ranges() {
        let (snap, _) = campaign_snapshot(&small_config(96, 7));
        assert_eq!((snap.batch_len, snap.batches.len()), (32, 3));
        assert!(snap.validate().is_ok());
        type Break = fn(&mut CorpusSnapshot);
        let cases: [(&str, Break); 4] = [
            ("batch_len is 0", |s| s.batch_len = 0),
            ("batch 1 runs 33 iterations, more than batch_len 32", |s| {
                s.batches[1].iterations += 1;
                s.iterations += 1;
            }),
            ("batch 2 iteration range", |s| {
                s.batches[2].start = usize::MAX - 10
            }),
            ("header claims 4611686018427387904 iterations", |s| {
                s.iterations = 1 << 62
            }),
        ];
        for (needle, br) in cases {
            let mut bad = snap.clone();
            br(&mut bad);
            let err = CorpusSnapshot::from_json(&bad.to_json()).unwrap_err();
            assert!(err.contains(needle), "want {needle:?}, got {err:?}");
            let err = CorpusSnapshot::merge(vec![bad]).unwrap_err();
            assert!(err.contains(needle), "merge: want {needle:?}, got {err:?}");
        }
    }

    #[test]
    fn merge_rejects_an_overflowing_iteration_total() {
        // Two campaigns, each valid alone, whose iterations sum past
        // `usize::MAX`.
        let half = |seed| {
            let mut s = CorpusSnapshot::from_outputs(&small_config(0, seed), &[], &[]);
            s.batch_len = 1 << 63;
            s.iterations = 1 << 63;
            s.batches.push(SnapshotBatch {
                batch: 0,
                start: 0,
                iterations: 1 << 63,
                corpus: Vec::new(),
                coverage: Vec::new(),
                findings: Vec::new(),
            });
            assert!(s.validate().is_ok());
            s
        };
        let err = CorpusSnapshot::merge(vec![half(1), half(2)]).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
    }
}
