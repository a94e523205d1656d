//! Corpus snapshot interchange: the on-disk format round-trips against
//! a committed fixture (so the format cannot drift silently), a
//! triaged campaign exports the same snapshot at any worker count, and
//! a merged two-snapshot campaign reproduces the union of the source
//! campaigns' findings — the cross-host merging workflow of
//! `bvf corpus export` / `import`. A corrupted snapshot is rejected, or
//! parses to one that merges and seeds a campaign without panicking.

mod common;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;

use bvf::baseline::GeneratorKind;
use bvf::corpus::{CorpusSnapshot, SnapshotFinding, CORPUS_FORMAT, CORPUS_FORMAT_VERSION};
use bvf::fuzz::CampaignConfig;
use bvf::runner::{run_local, ParallelConfig, ParallelOutcome};
use bvf_telemetry::Telemetry;
use common::Mutation;
use proptest::prelude::*;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/corpus_snapshot_v1.json")
}

/// The exact config the committed fixture was exported with
/// (`bvf corpus export --iters 96 --seed 7 --batch-len 32
/// --exchange-every 64 --no-triage`).
fn fixture_config() -> CampaignConfig {
    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, 96, 7);
    cfg.triage = false;
    cfg.batch_len = 32;
    cfg.exchange_every = 64;
    cfg
}

fn export(cfg: &CampaignConfig, workers: usize) -> CorpusSnapshot {
    export_with_chaos(cfg, workers, 0)
}

fn run(cfg: &CampaignConfig, workers: usize, chaos: u64) -> ParallelOutcome {
    let mut pcfg = ParallelConfig::new(workers);
    pcfg.chaos = chaos;
    run_local(cfg, &pcfg, &mut Telemetry::null())
}

fn export_with_chaos(cfg: &CampaignConfig, workers: usize, chaos: u64) -> CorpusSnapshot {
    let outcome = run(cfg, workers, chaos);
    CorpusSnapshot::from_outputs(cfg, &outcome.outputs, &outcome.result.findings)
}

#[test]
fn committed_fixture_round_trips() {
    let text = std::fs::read_to_string(fixture_path()).expect("fixture exists");
    let snap = CorpusSnapshot::from_json(&text).expect("fixture parses and validates");
    assert_eq!(snap.format, CORPUS_FORMAT);
    assert_eq!(snap.version, CORPUS_FORMAT_VERSION);
    assert!(snap.corpus_len() > 0, "fixture carries corpus entries");
    assert!(!snap.coverage().is_empty(), "fixture carries coverage");

    // Export → import round trip: serialize and re-parse without loss.
    let back = CorpusSnapshot::from_json(&snap.to_json()).expect("round-trip parses");
    assert_eq!(snap, back);
}

#[test]
fn fixture_matches_a_fresh_export_of_its_config() {
    // The committed bytes stay reproducible: re-running the fixture's
    // campaign today must export the identical snapshot. If a change
    // legitimately alters campaign behaviour, regenerate the fixture
    // with the command in `fixture_config`'s doc comment.
    let text = std::fs::read_to_string(fixture_path()).expect("fixture exists");
    let committed = CorpusSnapshot::from_json(&text).expect("fixture parses");
    let fresh = export(&fixture_config(), 2);
    assert_eq!(
        committed, fresh,
        "fixture drifted from the campaign that exported it"
    );
}

#[test]
fn triaged_snapshots_are_worker_count_invariant() {
    // Culprits belong to the finding record the merge keeps, so which
    // worker ran which batch, and when, cannot show in the file.
    let cfg = CampaignConfig::new(GeneratorKind::Bvf, 500, 7);
    assert!(cfg.triage);
    let one = run(&cfg, 1, 0);
    let snap = CorpusSnapshot::from_outputs(&cfg, &one.outputs, &one.result.findings);
    let one = one.result;
    for workers in [2usize, 4] {
        for chaos in 1..=4u64 {
            assert!(
                snap == export_with_chaos(&cfg, workers, chaos),
                "snapshot differs at {workers} workers, chaos {chaos}"
            );
        }
    }

    let records: Vec<&SnapshotFinding> = snap.batches.iter().flat_map(|b| &b.findings).collect();
    assert!(
        records.len() > one.findings.len(),
        "some signature must recur across batches"
    );
    for f in &one.findings {
        let carrying: Vec<&&SnapshotFinding> = records
            .iter()
            .filter(|r| r.signature == f.signature && !r.culprits.is_empty())
            .collect();
        assert_eq!(carrying.len(), 1, "{}: {carrying:?}", f.signature);
        assert_eq!(carrying[0].iteration, f.iteration, "{}", f.signature);
        let names: Vec<String> = f.culprits.iter().map(|b| b.name().to_string()).collect();
        assert_eq!(carrying[0].culprits, names, "{}", f.signature);
    }
}

#[test]
fn merged_snapshots_reproduce_the_union_of_findings() {
    // Two "hosts" run disjoint campaigns (different seeds), export, and
    // merge — the merged snapshot must carry exactly the union of the
    // two finding sets and of the two coverage sets.
    let host_a = fixture_config();
    let host_b = CampaignConfig {
        seed: 1234,
        ..fixture_config()
    };
    let a = export(&host_a, 1);
    let b = export(&host_b, 2);

    let union: BTreeSet<String> = a
        .finding_signatures()
        .union(&b.finding_signatures())
        .cloned()
        .collect();
    assert!(!union.is_empty(), "campaigns must find something");

    let merged = CorpusSnapshot::merge(vec![a.clone(), b.clone()]).expect("disjoint campaigns");
    assert!(merged.validate().is_ok());
    assert_eq!(merged.finding_signatures(), union);

    let mut cov_union = a.coverage();
    cov_union.merge(&b.coverage());
    assert_eq!(merged.coverage(), cov_union);

    // And a campaign seeded from the merged snapshot starts where both
    // hosts left off: everything either host covered is pre-credited.
    let seeded_cfg = CampaignConfig {
        base: merged.to_base(),
        ..fixture_config()
    };
    let seeded = run(&seeded_cfg, 2, 0).result;
    assert!(
        seeded.coverage.len() < cov_union.len() / 2,
        "imported coverage should gate retention: {} new vs {} imported",
        seeded.coverage.len(),
        cov_union.len()
    );
}

/// The committed fixture's snapshot, and two encodings of it: the
/// file's bytes and the compact JSON, whose bytes are mostly values
/// rather than indentation.
fn fixture() -> &'static (CorpusSnapshot, [Vec<u8>; 2]) {
    static FIXTURE: OnceLock<(CorpusSnapshot, [Vec<u8>; 2])> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let bytes = std::fs::read(fixture_path()).expect("fixture exists");
        let text = std::str::from_utf8(&bytes).expect("fixture is UTF-8");
        let snap = CorpusSnapshot::from_json(text).expect("fixture validates");
        let compact = serde_json::to_string(&snap).expect("snapshot encodes");
        (snap, [bytes, compact.into_bytes()])
    })
}

proptest! {
    #[test]
    fn mutated_snapshots_are_rejected_or_usable(mutation in Mutation::strategy()) {
        let (good, encodings) = fixture();
        for encoding in encodings {
            let mut bytes = encoding.clone();
            mutation.apply(&mut bytes);
            if let Ok(snap) = CorpusSnapshot::from_json(&String::from_utf8_lossy(&bytes)) {
                snap.to_base();
                let _ = CorpusSnapshot::merge(vec![snap.clone()]);
                let _ = CorpusSnapshot::merge(vec![good.clone(), snap]);
            }
        }
    }
}
