//! The scheduler's central guarantee, as tests: the merged
//! [`CampaignResult`] is a pure function of the [`CampaignConfig`] —
//! **worker count, lease interleaving, and finish order are not inputs**.
//!
//! Campaign iterations are carved into lease batches whose RNG streams
//! depend only on the batch id (`bvf::fuzz::stream_seed`), seed views
//! fold ledger contents in batch order regardless of arrival order, and
//! the merge folds batch outputs in batch order. So `--workers 4` must
//! reproduce `--workers 1` exactly — every field, floating-point means
//! bit for bit — and a chaos-jittered run (deterministic per-batch
//! sleeps that reshuffle which worker leases which batch) must
//! reproduce an un-jittered one.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

use bvf::baseline::GeneratorKind;
use bvf::fuzz::{
    batch_count, run_campaign, run_campaign_with_telemetry, CampaignConfig, CampaignResult,
};
use bvf::runner::{run_local, ParallelConfig, ParallelOutcome};
use bvf_telemetry::{JsonlSink, Registry, Telemetry, TraceEvent, TraceSink};
use proptest::prelude::*;

fn config(iters: usize, seed: u64) -> CampaignConfig {
    // Defaults: all bugs injected, sanitation + triage + feedback on —
    // the full pipeline, so the test exercises finding dedup and triage
    // merging, not just generation.
    CampaignConfig::new(GeneratorKind::Bvf, iters, seed)
}

/// Runs one campaign with the given runner settings, tracing nowhere.
fn run(cfg: &CampaignConfig, pcfg: &ParallelConfig) -> ParallelOutcome {
    run_local(cfg, pcfg, &mut Telemetry::null())
}

/// The merged result of one campaign on `workers` workers.
fn result(cfg: &CampaignConfig, workers: usize) -> CampaignResult {
    run(cfg, &ParallelConfig::new(workers)).result
}

/// One finding reduced to its deterministic identity.
type FindingKey = (usize, String, Vec<String>);

/// The deterministic projection of a result: everything except wall
/// time (which lives outside `CampaignResult` anyway).
fn fingerprint(r: &CampaignResult) -> (Vec<FindingKey>, usize, usize, usize) {
    (
        r.findings
            .iter()
            .map(|f| {
                (
                    f.iteration,
                    f.signature.clone(),
                    f.culprits.iter().map(|c| format!("{c:?}")).collect(),
                )
            })
            .collect(),
        r.accepted,
        r.coverage.len(),
        r.corpus_len,
    )
}

/// Full-strength equality: every deterministic field, means bitwise.
fn assert_identical(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(a.generator, b.generator, "{what}: generator");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.accepted, b.accepted, "{what}: accepted");
    assert_eq!(a.errno_histogram, b.errno_histogram, "{what}: errnos");
    assert_eq!(a.reject_reasons, b.reject_reasons, "{what}: reject reasons");
    assert_eq!(a.coverage, b.coverage, "{what}: coverage");
    assert_eq!(a.timeline, b.timeline, "{what}: timeline");
    assert_eq!(a.found_bugs, b.found_bugs, "{what}: found bugs");
    assert_eq!(a.corpus_len, b.corpus_len, "{what}: corpus");
    assert_eq!(
        a.alu_jmp_share.to_bits(),
        b.alu_jmp_share.to_bits(),
        "{what}: alu share"
    );
    assert_eq!(
        a.avg_prog_len.to_bits(),
        b.avg_prog_len.to_bits(),
        "{what}: prog len"
    );
    assert_eq!(a.findings.len(), b.findings.len(), "{what}: finding count");
    for (x, y) in a.findings.iter().zip(&b.findings) {
        assert_eq!(x.iteration, y.iteration, "{what}: finding iteration");
        assert_eq!(x.signature, y.signature, "{what}: finding signature");
        assert_eq!(x.culprits, y.culprits, "{what}: finding culprits");
        assert_eq!(
            x.finding.indicator, y.finding.indicator,
            "{what}: finding indicator"
        );
    }
}

#[test]
fn one_worker_matches_legacy_serial_path() {
    // `run_campaign`, the entry point of every single-threaded caller,
    // is the runner at one worker with no sink; tracing every event
    // into a JSONL stream must not move the result.
    let cfg = config(800, 20_240_601);
    let serial = run_campaign(&cfg);
    let mut tel = Telemetry::new(Box::new(JsonlSink::new(std::io::sink())));
    let traced = run_local(&cfg, &ParallelConfig::new(1), &mut tel).result;
    assert_identical(&serial, &traced, "serial vs traced 1 worker");
}

#[test]
fn every_worker_count_matches_one_worker() {
    // The acceptance bar of the parallel runner: merged results
    // are bit-identical to `--workers 1` at any worker count, findings
    // and corpus included.
    let cfg = config(600, 97);
    let one = result(&cfg, 1);
    for workers in [2usize, 3, 4] {
        let many = result(&cfg, workers);
        assert_identical(&one, &many, &format!("{workers} workers vs 1"));
    }
}

#[test]
fn campaigns_are_deterministic_run_to_run() {
    for workers in [1usize, 2, 4] {
        let cfg = config(600, 97);
        let a = result(&cfg, workers);
        let b = result(&cfg, workers);
        assert_identical(&a, &b, &format!("run-to-run at {workers} workers"));
    }
}

#[test]
fn chaos_jitter_cannot_change_the_result() {
    // Chaos mode injects deterministic per-(batch, worker) sleeps
    // before each leased batch, perturbing which worker leases which
    // batch and in what order workers finish. None of that is a campaign
    // input, so the merged result must not move.
    let cfg = config(500, 7);
    let calm = result(&cfg, 3);
    for chaos in [1u64, 0xdead_beef, u64::MAX] {
        let mut pcfg = ParallelConfig::new(3);
        pcfg.chaos = chaos;
        let outcome = run(&cfg, &pcfg);
        assert_identical(&calm, &outcome.result, &format!("chaos {chaos:#x}"));
    }
}

#[test]
fn worker_summaries_partition_the_campaign() {
    let cfg = config(500, 3);
    let outcome = run(&cfg, &ParallelConfig::new(4));
    assert_eq!(outcome.workers.len(), 4);
    let iters: usize = outcome.workers.iter().map(|w| w.iterations).sum();
    assert_eq!(iters, cfg.iterations, "iterations partition exactly");
    let batches: usize = outcome.workers.iter().map(|w| w.batches).sum();
    assert_eq!(batches, batch_count(&cfg), "batches partition exactly");
    let accepted: usize = outcome.workers.iter().map(|w| w.accepted).sum();
    assert_eq!(accepted, outcome.result.accepted);
}

/// A `Write` target the test can read back after the telemetry that
/// owns its sink is done.
#[derive(Clone, Default)]
struct Buffer(Rc<RefCell<Vec<u8>>>);

impl Write for Buffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs a campaign into a JSONL trace, as `bvf fuzz --trace-out` does;
/// returns the outcome, its registry and the trace's lines.
fn jsonl_trace(
    cfg: &CampaignConfig,
    workers: usize,
) -> (ParallelOutcome, Registry, Vec<serde_json::Value>) {
    let buf = Buffer::default();
    let mut tel = Telemetry::new(Box::new(JsonlSink::new(buf.clone())));
    let outcome = run_local(cfg, &ParallelConfig::new(workers), &mut tel);
    let text = String::from_utf8(buf.0.take()).expect("trace is utf-8");
    let lines = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("valid JSONL"))
        .collect();
    (outcome, tel.registry, lines)
}

#[test]
fn merged_trace_is_iteration_ordered_and_worker_tagged() {
    let cfg = config(200, 11);
    let (_, _, lines) = jsonl_trace(&cfg, 2);
    let mut prev = (0u64, 0u64);
    let mut seen_workers = std::collections::BTreeSet::new();
    for v in &lines {
        let key = (v["iter"].as_u64().unwrap(), v["worker"].as_u64().unwrap());
        assert!(key >= prev, "trace out of order: {prev:?} then {key:?}");
        prev = key;
        seen_workers.insert(key.1);
    }
    assert!(
        lines.len() >= cfg.iterations,
        "at least one event per iteration"
    );
    assert_eq!(seen_workers.len(), 2, "both workers contribute events");
}

/// One received event: the worker it was replayed under (`None` for a
/// live event), the instant it arrived, and the event.
type Received = (Option<usize>, Instant, TraceEvent);

/// Keeps every event in memory as it is received.
#[derive(Clone, Default)]
struct Recorder(Rc<RefCell<Vec<Received>>>);

impl TraceSink for Recorder {
    fn emit(&mut self, event: &TraceEvent) {
        self.0
            .borrow_mut()
            .push((None, Instant::now(), event.clone()));
    }

    fn emit_from(&mut self, worker: usize, _at: Instant, event: &TraceEvent) {
        self.0
            .borrow_mut()
            .push((Some(worker), Instant::now(), event.clone()));
    }
}

impl Recorder {
    /// The recorded events, without their worker and arrival.
    fn events(&self) -> Vec<TraceEvent> {
        self.0.borrow().iter().map(|(_, _, e)| e.clone()).collect()
    }
}

/// Runs a campaign into a [`Recorder`]; returns the outcome, its
/// registry and the recorder.
fn recorded(cfg: &CampaignConfig, workers: usize) -> (ParallelOutcome, Registry, Recorder) {
    let rec = Recorder::default();
    let mut tel = Telemetry::new(Box::new(rec.clone()));
    let outcome = run_local(cfg, &ParallelConfig::new(workers), &mut tel);
    (outcome, tel.registry, rec)
}

/// An event with its wall-clock members zeroed: what stays equal
/// between two runs of one campaign.
fn timeless(e: &TraceEvent) -> TraceEvent {
    let mut e = e.clone();
    match &mut e {
        TraceEvent::Verify {
            do_check_ns,
            total_ns,
            ..
        } => {
            *do_check_ns = 0;
            *total_ns = 0;
        }
        TraceEvent::Finding { triage_ns, .. } => *triage_ns = 0,
        _ => {}
    }
    e
}

#[test]
fn one_and_two_workers_carry_the_same_events() {
    // One worker emits live, the merge's `finding` events after the
    // last iteration; two workers replay in `(iter, worker)` order, so
    // each finding follows its own iteration. Ordered by iteration,
    // both streams are the same events.
    let cfg = config(300, 11);
    let (one, _, rec1) = recorded(&cfg, 1);
    let (two, _, rec2) = recorded(&cfg, 2);
    assert!(
        !one.result.findings.is_empty(),
        "campaign must find something"
    );
    let mut a: Vec<TraceEvent> = rec1.events().iter().map(timeless).collect();
    a.sort_by_key(TraceEvent::iter);
    let b: Vec<TraceEvent> = rec2.events().iter().map(timeless).collect();
    assert_eq!(a.len(), b.len(), "event count");
    assert_eq!(a, b);

    // Live events are untagged; replayed ones carry the worker that ran
    // their batch, as the worker summaries place it.
    assert!(rec1.0.borrow().iter().all(|(w, _, _)| w.is_none()));
    let tagged: std::collections::BTreeSet<usize> = rec2
        .0
        .borrow()
        .iter()
        .map(|(w, _, _)| w.expect("tagged"))
        .collect();
    let ran: std::collections::BTreeSet<usize> = two
        .workers
        .iter()
        .filter(|w| w.batches > 0)
        .map(|w| w.worker)
        .collect();
    assert_eq!(tagged, ran);
}

#[test]
fn one_worker_events_arrive_live_in_emission_order() {
    // What the benchmark's span fold relies on: at one worker every
    // event reaches the caller's sink as the campaign emits it, the
    // iterations in order, and the merge's findings after the last
    // per-iteration event.
    let cfg = config(300, 11);
    let (outcome, _, rec) = recorded(&cfg, 1);
    let events = rec.0.borrow();
    let first_finding = events
        .iter()
        .position(|(_, _, e)| matches!(e, TraceEvent::Finding { .. }))
        .expect("campaign must find something");
    let (per_iter, findings) = events.split_at(first_finding);
    assert!(per_iter.windows(2).all(|w| w[0].2.iter() <= w[1].2.iter()));
    assert!(findings
        .iter()
        .all(|(_, _, e)| matches!(e, TraceEvent::Finding { .. })));
    assert_eq!(findings.len(), outcome.result.findings.len());

    // Live, not replayed: each `verify` event arrives after the
    // verification it reports, so the gaps between arrivals cover the
    // verifier time of every program after the first.
    let verifies: Vec<(Instant, u64)> = per_iter
        .iter()
        .filter_map(|(_, at, e)| match e {
            TraceEvent::Verify { total_ns, .. } => Some((*at, *total_ns)),
            _ => None,
        })
        .collect();
    let spread = verifies.last().unwrap().0 - verifies[0].0;
    let verifying: u64 = verifies[1..].iter().map(|&(_, ns)| ns).sum();
    assert!(
        spread.as_nanos() >= u128::from(verifying),
        "events arrived in {spread:?}, verification took {verifying} ns"
    );
}

/// Checks the merge's trace contract: one `finding` event per merged
/// finding, in merge order, carrying its culprits, and one
/// `oracle.triage_ns` sample per triaged finding. With triage off the
/// events still come, with empty culprits and `triage_ns` 0.
fn assert_finding_events(
    r: &CampaignResult,
    events: &[TraceEvent],
    registry: &Registry,
    triage: bool,
) {
    let mut seen = Vec::new();
    for e in events {
        if let TraceEvent::Finding {
            iter,
            signature,
            culprits,
            triage_ns,
            ..
        } = e
        {
            seen.push((*iter, signature.clone(), culprits.clone()));
            assert!(triage || *triage_ns == 0, "untriaged, yet timed");
        }
    }
    let expected: Vec<(usize, String, Vec<String>)> = r
        .findings
        .iter()
        .map(|f| {
            let culprits = f.culprits.iter().map(|b| b.name().to_string()).collect();
            (f.iteration, f.signature.clone(), culprits)
        })
        .collect();
    assert!(!expected.is_empty(), "campaign must find something");
    assert_eq!(seen, expected);
    assert_eq!(r.findings.iter().any(|f| !f.culprits.is_empty()), triage);
    let samples = registry
        .histogram("oracle.triage_ns")
        .map_or(0, |h| h.count);
    let want = if triage { r.findings.len() as u64 } else { 0 };
    assert_eq!(samples, want, "one triage_ns sample per triaged finding");
}

#[test]
fn traces_carry_one_finding_event_per_merged_finding() {
    for triage in [true, false] {
        let cfg = CampaignConfig {
            triage,
            ..config(600, 11)
        };

        let rec = Recorder::default();
        let mut tel = Telemetry::new(Box::new(rec.clone()));
        let serial = run_campaign_with_telemetry(&cfg, &mut tel);
        assert_finding_events(&serial, &rec.events(), &tel.registry, triage);

        let (outcome, registry, lines) = jsonl_trace(&cfg, 2);
        let mut events = Vec::new();
        // Each finding event is tagged with the worker that generated
        // its iteration's program.
        let mut gen_worker = BTreeMap::new();
        for v in lines {
            let worker = v["worker"].as_u64().unwrap();
            let event: TraceEvent = serde_json::from_value(v).unwrap();
            match &event {
                TraceEvent::Gen { iter, .. } => {
                    gen_worker.insert(*iter, worker);
                }
                TraceEvent::Finding { iter, .. } => {
                    assert_eq!(gen_worker.get(iter), Some(&worker), "iteration {iter}");
                }
                _ => {}
            }
            events.push(event);
        }
        assert_finding_events(&outcome.result, &events, &registry, triage);
    }
}

#[test]
fn one_worker_diff_oracle_matches_serial() {
    // The differential oracle adds per-iteration snapshot/trace work
    // and an extra counter stream; none of it may perturb the
    // 1-worker-equals-serial guarantee, and the merged DiffStats must
    // equal the serial sums field for field.
    let mut cfg = config(600, 20_240_601);
    cfg.diff_oracle = true;
    let serial = run_campaign(&cfg);
    let sharded = result(&cfg, 1);

    assert_identical(&serial, &sharded, "diff oracle serial vs 1 worker");
    assert_eq!(serial.diff.steps_total, sharded.diff.steps_total);
    assert_eq!(serial.diff.steps_checked, sharded.diff.steps_checked);
    assert_eq!(
        serial.diff.steps_skipped_emitted,
        sharded.diff.steps_skipped_emitted
    );
    assert_eq!(
        serial.diff.steps_skipped_unrecorded,
        sharded.diff.steps_skipped_unrecorded
    );
    assert_eq!(serial.diff.regs_checked, sharded.diff.regs_checked);
    assert_eq!(serial.diff.divergences, sharded.diff.divergences);
    assert!(serial.diff.steps_checked > 0, "oracle must have run");
}

#[test]
fn prune_index_on_and_off_find_the_same_bugs() {
    // The fingerprint index is a pure filter over `states_equal`
    // candidates: it may change how many comparisons run, never which
    // paths are pruned. A whole campaign — generation, verification,
    // execution, oracles, dedup, triage — must therefore be identical
    // with the index on and off, diff oracle included.
    let mut on = config(600, 20_240_601);
    on.diff_oracle = true;
    let mut off = on.clone();
    off.prune_index = false;

    let a = run_campaign(&on);
    let b = run_campaign(&off);
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "the fingerprint index changed campaign findings"
    );
    assert_eq!(a.errno_histogram, b.errno_histogram);
    assert_eq!(a.coverage, b.coverage);
    assert_eq!(a.timeline, b.timeline);
    assert_eq!(a.found_bugs, b.found_bugs);
    assert_eq!(a.diff.divergences, b.diff.divergences);
    assert!(!a.findings.is_empty(), "campaign must find something");
}

#[test]
fn diff_campaigns_are_deterministic_across_worker_counts() {
    let mut cfg = config(400, 97);
    cfg.diff_oracle = true;
    let one = result(&cfg, 1);
    for workers in [2usize, 3] {
        let many = result(&cfg, workers);
        assert_identical(&one, &many, &format!("diff oracle {workers} vs 1"));
        assert_eq!(one.diff.steps_checked, many.diff.steps_checked);
        assert_eq!(one.diff.divergences, many.diff.divergences);
    }
}

#[test]
fn steered_campaigns_are_worker_count_invariant() {
    // Acceptance-rate steering derives its shape weights purely from
    // the exchange ledger's batch-ordered fold — never from wall clock
    // or worker identity — so `--steer` must not weaken the scheduler's
    // central guarantee: 1, 2, and 4 workers merge bit-identically,
    // findings included.
    let steered = CampaignConfig {
        steer: true,
        batch_len: 16,
        exchange_every: 32,
        ..config(480, 53)
    };
    let serial = run_campaign(&steered);
    for workers in [1usize, 2, 4] {
        let many = result(&steered, workers);
        assert_identical(&serial, &many, &format!("steered {workers} workers"));
    }

    // With the flag off, the stock path is untouched by the steering
    // machinery and keeps the same guarantee.
    let unsteered = CampaignConfig {
        steer: false,
        ..steered.clone()
    };
    let off_serial = run_campaign(&unsteered);
    let off_sharded = result(&unsteered, 2);
    assert_identical(&off_serial, &off_sharded, "steer-off 2 workers");

    // The two modes genuinely diverge: steering changes what gets
    // generated, not just how results are counted.
    assert_ne!(
        fingerprint(&serial),
        fingerprint(&off_serial),
        "steering had no effect on the campaign"
    );
}

#[test]
fn both_oracles_merge_identically_at_one_and_two_workers() {
    // With the diff oracle and san-diff armed together, the merged
    // result — findings, errno histogram, coverage, timeline,
    // floating-point means, and both oracles' counters — must not
    // depend on the worker count, so the per-step trace streams and
    // divergence counters are compared, not just final verdicts.
    let mut cfg = config(400, 20_240_601);
    cfg.diff_oracle = true;
    cfg.san_diff = true;

    let one = result(&cfg, 1);
    let two = result(&cfg, 2);
    let what = "both oracles, 1 vs 2 workers";
    assert_identical(&one, &two, what);
    assert_eq!(one.diff, two.diff, "{what}: diff stats");
    assert_eq!(one.san, two.san, "{what}: san-diff stats");
    assert!(one.diff.steps_checked > 0, "{what}: oracle must run");
    assert!(one.san.runs > 0, "{what}: san oracle must run");
}

/// The property-test campaign: small (the vendored proptest runs a
/// fixed 192 cases) but multi-generation, so lease waits, exchange lag,
/// and merge all engage.
fn property_config() -> CampaignConfig {
    CampaignConfig {
        batch_len: 16,
        exchange_every: 32,
        ..config(96, 41)
    }
}

/// The property-test reference: one serial run of the fixed config,
/// computed once however many cases proptest throws at it.
fn property_reference() -> &'static CampaignResult {
    static REF: OnceLock<CampaignResult> = OnceLock::new();
    REF.get_or_init(|| run_campaign(&property_config()))
}

proptest! {
    /// Satellite property: for *any* worker count and *any* chaos seed
    /// — i.e. any lease interleaving and any finish order — the merged
    /// result equals the serial reference.
    #[test]
    fn merge_is_schedule_independent(workers in 1usize..=4, chaos in any::<u64>()) {
        let mut pcfg = ParallelConfig::new(workers);
        pcfg.chaos = chaos;
        let merged = run(&property_config(), &pcfg).result;
        let reference = property_reference();
        prop_assert_eq!(fingerprint(reference), fingerprint(&merged));
        prop_assert_eq!(&reference.errno_histogram, &merged.errno_histogram);
        prop_assert_eq!(&reference.coverage, &merged.coverage);
        prop_assert_eq!(&reference.timeline, &merged.timeline);
        prop_assert_eq!(reference.alu_jmp_share.to_bits(), merged.alu_jmp_share.to_bits());
    }
}
