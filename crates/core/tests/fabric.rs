//! Fabric integration tests: protocol frame coverage over real framing,
//! handshake refusal over loopback, and the tentpole guarantee — a
//! coordinator + remote workers produce results **byte-identical** to a
//! local run of the same config, including under worker churn. Bad
//! input — a corrupted frame, an undecodable session, a campaign too
//! large to schedule — fails without taking the coordinator down.

mod common;

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bvf::baseline::GeneratorKind;
use bvf::fabric::proto::{
    read_frame, write_frame, CampaignStatus, CorpusDelta, FrameConn, LeaseGrant, Request, Response,
    Role, FABRIC_MAGIC, FABRIC_VERSION,
};
use bvf::fabric::{
    run_worker, Client, Coordinator, CoordinatorOptions, FabricCounters, FabricError,
    RemoteOutcome, WorkerOptions,
};
use bvf::fuzz::{
    batch_count, merge_batches, run_campaign, BatchOutput, CampaignConfig, CampaignWorker,
    CorpusLedger,
};
use bvf_runtime::ExecScratch;
use bvf_telemetry::{Registry, Telemetry};
use common::Mutation;
use proptest::prelude::*;

fn small_config(iters: usize, seed: u64) -> CampaignConfig {
    CampaignConfig {
        batch_len: 32,
        exchange_every: 64,
        ..CampaignConfig::new(GeneratorKind::Bvf, iters, seed)
    }
}

/// Serial reference run through the public batch pieces, returning the
/// raw outputs (for building realistic protocol payloads) alongside the
/// merged result.
fn serial_outputs(cfg: &CampaignConfig) -> Vec<BatchOutput> {
    let mut ledger = CorpusLedger::new(cfg);
    let mut scratch = ExecScratch::new();
    let mut tel = Telemetry::null();
    let mut outputs = Vec::new();
    for b in 0..batch_count(cfg) {
        let seed = ledger.seed_for(cfg, b);
        let mut w = CampaignWorker::lease(cfg.clone(), b, seed);
        while w.step(&mut tel, &mut scratch) {}
        let out = w.into_output();
        ledger.publish(b, out.ledger_entry());
        outputs.push(out);
    }
    outputs
}

/// `msg` written as one length-prefixed frame.
fn framed<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, msg).unwrap();
    buf
}

/// Round-trips one frame through the real framing and asserts the
/// canonical (deterministic) encodings agree.
fn assert_roundtrip<T: serde::Serialize + serde::Deserialize>(frame: &T, what: &str) {
    let back: T = read_frame(&mut framed(frame).as_slice()).unwrap();
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        serde_json::to_string(frame).unwrap(),
        "{what} did not round-trip losslessly"
    );
}

/// One message of every [`Request`] and [`Response`] variant, with
/// realistic payloads: a real campaign's batch outputs, findings,
/// ledger entries, and merged stats.
fn every_message() -> (Vec<Request>, Vec<Response>) {
    let cfg = small_config(96, 7);
    let outputs = serial_outputs(&cfg);
    let entry = outputs[0].ledger_entry();
    let output = outputs[0].clone();
    let result = merge_batches(&cfg, &outputs, &mut Telemetry::null());
    let stats = result.to_stats(cfg.seed, Registry::new());
    let status = CampaignStatus {
        campaign: 3,
        batches_total: 4,
        batches_done: 2,
        batches_leased: 1,
        iterations: 64,
        accepted: 40,
        reject_reasons: BTreeMap::from([("uninit_reg_read".to_string(), 9)]),
        findings: 5,
        complete: false,
    };

    let requests = vec![
        Request::Hello {
            magic: FABRIC_MAGIC.to_string(),
            version: FABRIC_VERSION,
            role: Role::Worker,
        },
        Request::Lease {
            known: BTreeMap::from([(1, 4), (2, 0)]),
        },
        Request::Extend {
            campaign: 1,
            batch: 9,
        },
        Request::Complete {
            campaign: 1,
            output,
        },
        Request::Submit { config: cfg },
        Request::Status { campaign: 1 },
        Request::FetchResult { campaign: 1 },
        Request::Counters,
        Request::Shutdown,
    ];
    let responses = vec![
        Response::Welcome {
            version: FABRIC_VERSION,
            session: 12,
            lease_timeout_ms: 30_000,
        },
        Response::Refused {
            reason: "mismatch".to_string(),
        },
        Response::Granted(LeaseGrant {
            campaign: 1,
            batch: 2,
            config: Some(small_config(96, 7)),
            deltas: vec![CorpusDelta {
                seq: 0,
                batch: 0,
                entry,
            }],
        }),
        Response::NoWork,
        Response::Extended { keep: true },
        Response::Accepted { fresh: true },
        Response::Submitted { campaign: 7 },
        Response::StatusReport(status),
        Response::ResultReady {
            stats,
            findings: result.findings,
        },
        Response::Pending,
        Response::CounterReport(FabricCounters {
            leases_issued: 13,
            leases_reissued: 1,
            deltas_streamed: 40,
            worker_sessions: 2,
            completions: 13,
            duplicate_completions: 1,
        }),
        Response::Unknown { campaign: 99 },
        Response::Bye,
        Response::Error {
            reason: "batch 9 out of range (campaign has 4)".to_string(),
        },
    ];
    (requests, responses)
}

#[test]
fn every_frame_type_round_trips() {
    let (requests, responses) = every_message();
    for req in &requests {
        assert_roundtrip(req, "request");
    }
    for resp in &responses {
        assert_roundtrip(resp, "response");
    }
}

/// [`every_message`], framed once for every case: `true` marks a
/// request.
fn framed_messages() -> &'static [(bool, Vec<u8>)] {
    static FRAMES: OnceLock<Vec<(bool, Vec<u8>)>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let (requests, responses) = every_message();
        let requests = requests.iter().map(|req| (true, framed(req)));
        let responses = responses.iter().map(|resp| (false, framed(resp)));
        requests.chain(responses).collect()
    })
}

/// `bytes` fails to decode as a `T` frame, or decodes to a message that
/// frames and decodes again unchanged.
fn assert_rejected_or_re_encodes<T: serde::Serialize + serde::Deserialize>(
    bytes: &[u8],
    mutation: &Mutation,
) {
    if let Ok(msg) = read_frame::<_, T>(&mut &bytes[..]) {
        assert_roundtrip(&msg, &format!("frame after {mutation:?}"));
    }
}

proptest! {
    /// A corrupted frame of any message type never panics the reader.
    #[test]
    fn mutated_frames_are_rejected_or_re_encode(mutation in Mutation::strategy()) {
        for (is_request, frame) in framed_messages() {
            let mut bytes = frame.clone();
            mutation.apply(&mut bytes);
            if *is_request {
                assert_rejected_or_re_encodes::<Request>(&bytes, &mutation);
            } else {
                assert_rejected_or_re_encodes::<Response>(&bytes, &mutation);
            }
        }
    }
}

/// Spawns a coordinator on an ephemeral loopback port and returns its
/// address plus the serve-thread handle (yields the final counters).
fn spawn_coordinator(
    opts: CoordinatorOptions,
) -> (String, std::thread::JoinHandle<FabricCounters>) {
    let coordinator = Coordinator::bind("127.0.0.1:0", opts).unwrap();
    let addr = coordinator.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || coordinator.run().unwrap());
    (addr, handle)
}

#[test]
fn handshake_refuses_mismatched_peers() {
    let (addr, serve) = spawn_coordinator(CoordinatorOptions::default());

    // Wrong version.
    let mut conn = FrameConn::connect(&addr).unwrap();
    let resp = conn
        .rpc(&Request::Hello {
            magic: FABRIC_MAGIC.to_string(),
            version: FABRIC_VERSION + 1,
            role: Role::Worker,
        })
        .unwrap();
    match resp {
        Response::Refused { reason } => {
            assert!(reason.contains("protocol mismatch"), "{reason}");
            assert!(
                reason.contains(&format!("v{}", FABRIC_VERSION + 1)),
                "refusal must name the offered version: {reason}"
            );
        }
        other => panic!("expected Refused, got {other:?}"),
    }
    // The coordinator drops the connection after refusing.
    assert!(conn.recv::<Response>().is_err());

    // Wrong magic.
    let mut conn = FrameConn::connect(&addr).unwrap();
    let resp = conn
        .rpc(&Request::Hello {
            magic: "not-bvf".to_string(),
            version: FABRIC_VERSION,
            role: Role::Client,
        })
        .unwrap();
    assert!(matches!(resp, Response::Refused { .. }), "{resp:?}");

    // Any non-Hello first frame.
    let mut conn = FrameConn::connect(&addr).unwrap();
    let resp = conn.rpc(&Request::Counters).unwrap();
    match resp {
        Response::Refused { reason } => assert!(reason.contains("Hello"), "{reason}"),
        other => panic!("expected Refused, got {other:?}"),
    }

    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    let counters = serve.join().unwrap();
    assert_eq!(
        counters.worker_sessions, 0,
        "refused peers must not count as sessions"
    );
}

/// Runs `cfg` through a loopback fabric with `workers` steady workers
/// plus `churners` workers that each crash mid-batch after completing
/// one batch. Returns the outcome and the coordinator's counters.
///
/// The churners run (concurrently with each other) *before* the steady
/// workers attach: a churner only fires its crash hook on its second
/// lease, and on a small campaign racing steady workers can drain the
/// pending queue first, leaving the churner polling `NoWork` forever.
/// Sequencing the phases makes the churn deterministic and forces the
/// steady workers to be the ones that re-execute every abandoned batch.
fn fabric_run(
    cfg: &CampaignConfig,
    workers: usize,
    churners: usize,
) -> (RemoteOutcome, FabricCounters) {
    let (addr, serve) = spawn_coordinator(CoordinatorOptions::default());
    let mut client = Client::connect(&addr).unwrap();

    if churners == 0 {
        // No churn phase: drive the whole campaign through the
        // blocking submit-and-poll client path.
        let stop = Arc::new(AtomicBool::new(false));
        let handles = spawn_steady_workers(&addr, workers, &stop);
        let outcome = client
            .run_to_completion(cfg.clone(), Duration::from_millis(10), |_| {})
            .unwrap();
        let counters = client.counters().unwrap();
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        client.shutdown().unwrap();
        serve.join().unwrap();
        return (outcome, counters);
    }

    let campaign = client.submit(cfg.clone()).unwrap();

    // Churn phase: each churner completes one batch, then crashes
    // mid-second-batch (connection dropped).
    let churn: Vec<_> = (0..churners)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let opts = WorkerOptions {
                    abandon_after: Some(1),
                    ..WorkerOptions::default()
                };
                let report = run_worker(&addr, &opts, &AtomicBool::new(false)).unwrap();
                assert!(report.churned, "churn hook must have fired");
            })
        })
        .collect();
    for h in churn {
        h.join().unwrap();
    }

    // Recovery phase: fresh steady workers finish the campaign,
    // re-executing the abandoned batches from re-issued leases.
    let stop = Arc::new(AtomicBool::new(false));
    let handles = spawn_steady_workers(&addr, workers, &stop);
    let outcome = loop {
        if let Some(o) = client.result(campaign).unwrap() {
            break o;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let counters = client.counters().unwrap();

    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    client.shutdown().unwrap();
    serve.join().unwrap();
    (outcome, counters)
}

fn spawn_steady_workers(
    addr: &str,
    workers: usize,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..workers)
        .map(|_| {
            let addr = addr.to_string();
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let opts = WorkerOptions {
                    poll: Duration::from_millis(5),
                    ..WorkerOptions::default()
                };
                run_worker(&addr, &opts, &stop).unwrap();
            })
        })
        .collect()
}

/// Stats comparison modulo the observational `metrics` member (local
/// and fabric runs count different things there by design).
fn stats_sans_metrics(stats: &bvf_telemetry::CampaignStats) -> serde_json::Value {
    let mut v = serde_json::to_value(stats).unwrap();
    if let serde_json::Value::Object(map) = &mut v {
        map.remove("metrics");
    }
    v
}

#[test]
fn remote_campaign_is_byte_identical_to_local() {
    let cfg = small_config(256, 11);
    let local = run_campaign(&cfg);
    let local_stats = local.to_stats(cfg.seed, Registry::new());

    let (outcome, counters) = fabric_run(&cfg, 2, 0);

    assert_eq!(
        stats_sans_metrics(&outcome.stats),
        stats_sans_metrics(&local_stats)
    );
    assert_eq!(
        serde_json::to_string(&outcome.findings).unwrap(),
        serde_json::to_string(&local.findings).unwrap(),
        "merged findings must be byte-identical to the local run"
    );
    assert_eq!(counters.completions as usize, batch_count(&cfg));
    assert!(counters.worker_sessions >= 2);
}

#[test]
fn zero_iteration_remote_campaign_completes() {
    // A campaign without batches never completes one, so merging only on
    // completion once left it pending forever; it merges at submit.
    let cfg = small_config(0, 11);
    let local_stats = run_campaign(&cfg).to_stats(cfg.seed, Registry::new());
    let (outcome, counters) = fabric_run(&cfg, 1, 0);
    assert_eq!(
        stats_sans_metrics(&outcome.stats),
        stats_sans_metrics(&local_stats)
    );
    assert!(outcome.findings.is_empty());
    assert_eq!(counters.leases_issued, 0);
}

#[test]
fn churned_workers_do_not_change_the_result() {
    let cfg = small_config(256, 23);
    let local = run_campaign(&cfg);
    let local_stats = local.to_stats(cfg.seed, Registry::new());

    // Two steady workers plus two that crash mid-batch (connection
    // dropped halfway through a lease).
    let (outcome, counters) = fabric_run(&cfg, 2, 2);

    assert!(
        counters.leases_reissued >= 2,
        "each churned worker's abandoned lease must be re-issued (got {})",
        counters.leases_reissued
    );
    assert_eq!(
        stats_sans_metrics(&outcome.stats),
        stats_sans_metrics(&local_stats)
    );
    assert_eq!(
        serde_json::to_string(&outcome.findings).unwrap(),
        serde_json::to_string(&local.findings).unwrap(),
        "findings must be byte-identical under churn"
    );
}

#[test]
fn late_duplicate_completion_after_finalize_is_acked_not_fatal() {
    // A straggler whose lease was reaped can submit its (byte-identical)
    // output after the campaign has already merged. The coordinator must
    // ack it as stale — the finalize step consumed the per-batch
    // outputs, so this once tripped the ledger's publish assert and
    // took the whole coordinator down with a poisoned mutex.
    let cfg = small_config(96, 43);
    let straggler_output = serial_outputs(&cfg).swap_remove(0);

    let (addr, serve) = spawn_coordinator(CoordinatorOptions::default());
    let mut client = Client::connect(&addr).unwrap();
    let campaign = client.submit(cfg).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let handles = spawn_steady_workers(&addr, 1, &stop);
    let outcome = loop {
        if let Some(o) = client.result(campaign).unwrap() {
            break o;
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    // The straggler arrives on a fresh connection, after the merge.
    let mut conn = FrameConn::connect(&addr).unwrap();
    assert!(matches!(
        conn.rpc(&Request::Hello {
            magic: FABRIC_MAGIC.to_string(),
            version: FABRIC_VERSION,
            role: Role::Worker,
        })
        .unwrap(),
        Response::Welcome { .. }
    ));
    let resp = conn
        .rpc(&Request::Complete {
            campaign,
            output: straggler_output,
        })
        .unwrap();
    assert!(
        matches!(resp, Response::Accepted { fresh: false }),
        "late duplicate must be acked stale, got {resp:?}"
    );
    drop(conn);

    // The coordinator survived: the merged result is still served,
    // unchanged, and the duplicate was counted.
    let again = client.result(campaign).unwrap().expect("result kept");
    assert_eq!(
        serde_json::to_string(&again.findings).unwrap(),
        serde_json::to_string(&outcome.findings).unwrap()
    );
    let counters = client.counters().unwrap();
    assert!(counters.duplicate_completions >= 1);

    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    client.shutdown().unwrap();
    serve.join().unwrap();
}

#[test]
fn kill_and_rejoin_mid_campaign_is_byte_identical() {
    // Sequenced churn: a lone worker completes one batch, crashes
    // mid-second-batch, and only THEN do replacement workers attach —
    // exercising lease re-issue after total worker loss.
    let cfg = small_config(192, 31);
    let local = run_campaign(&cfg);
    let local_stats = local.to_stats(cfg.seed, Registry::new());

    let (addr, serve) = spawn_coordinator(CoordinatorOptions::default());
    let opts = WorkerOptions {
        abandon_after: Some(1),
        ..WorkerOptions::default()
    };

    let mut client = Client::connect(&addr).unwrap();
    let campaign = client.submit(cfg.clone()).unwrap();

    // First worker: one clean batch, then a mid-batch crash.
    let report = run_worker(&addr, &opts, &AtomicBool::new(false)).unwrap();
    assert!(report.churned);
    assert_eq!(report.batches, 1);

    // Replacements arrive after the crash and finish the campaign.
    let stop = Arc::new(AtomicBool::new(false));
    let replacements: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run_worker(&addr, &WorkerOptions::default(), &stop).unwrap())
        })
        .collect();
    let outcome = loop {
        if let Some(o) = client.result(campaign).unwrap() {
            break o;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let counters = client.counters().unwrap();
    stop.store(true, Ordering::Relaxed);
    for h in replacements {
        h.join().unwrap();
    }
    client.shutdown().unwrap();
    serve.join().unwrap();

    assert!(counters.leases_reissued >= 1);
    assert_eq!(
        stats_sans_metrics(&outcome.stats),
        stats_sans_metrics(&local_stats)
    );
    assert_eq!(
        serde_json::to_string(&outcome.findings).unwrap(),
        serde_json::to_string(&local.findings).unwrap()
    );
}

#[test]
fn undecodable_frame_drops_the_session_and_requeues_its_lease() {
    let cfg = small_config(96, 5);
    let local_stats = run_campaign(&cfg).to_stats(cfg.seed, Registry::new());
    let (addr, serve) = spawn_coordinator(CoordinatorOptions::default());
    let mut client = Client::connect(&addr).unwrap();
    let campaign = client.submit(cfg.clone()).unwrap();

    // A worker takes a lease, then sends a frame that is not UTF-8.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let hello = Request::Hello {
        magic: FABRIC_MAGIC.to_string(),
        version: FABRIC_VERSION,
        role: Role::Worker,
    };
    write_frame(&mut stream, &hello).unwrap();
    let welcome: Response = read_frame(&mut stream).unwrap();
    assert!(matches!(welcome, Response::Welcome { .. }), "{welcome:?}");
    let lease = Request::Lease {
        known: BTreeMap::new(),
    };
    write_frame(&mut stream, &lease).unwrap();
    let grant: Response = read_frame(&mut stream).unwrap();
    assert!(matches!(grant, Response::Granted(_)), "{grant:?}");
    stream
        .write_all(&[0, 0, 0, 4, 0xff, 0xfe, b'{', b'}'])
        .unwrap();

    // The coordinator closes the session after requeueing its lease.
    assert!(matches!(stream.read(&mut [0u8; 1]), Ok(0)));
    assert_eq!(client.status(campaign).unwrap().batches_leased, 0);
    assert_eq!(client.counters().unwrap().leases_reissued, 1);

    // It keeps serving: a worker finishes the campaign.
    let stop = Arc::new(AtomicBool::new(false));
    let handles = spawn_steady_workers(&addr, 1, &stop);
    let outcome = loop {
        if let Some(o) = client.result(campaign).unwrap() {
            break o;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    client.shutdown().unwrap();
    serve.join().unwrap();
    assert_eq!(
        stats_sans_metrics(&outcome.stats),
        stats_sans_metrics(&local_stats)
    );
}

#[test]
fn campaign_too_large_to_schedule_is_refused_and_the_coordinator_serves_on() {
    // The schedule for this config once panicked with "capacity
    // overflow" under the coordinator's lock, poisoning it: the accept
    // loop died and no later client could connect.
    let (addr, serve) = spawn_coordinator(CoordinatorOptions::default());
    let mut client = Client::connect(&addr).unwrap();
    let err = client
        .submit(CampaignConfig::new(GeneratorKind::Bvf, usize::MAX, 1))
        .expect_err("a campaign too large to schedule must be refused");
    assert!(matches!(err, FabricError::Refused(_)), "{err:?}");
    let msg = err.to_string();
    assert!(msg.contains("raise --batch-len"), "{msg}");
    assert!(!msg.contains("expected Submitted"), "{msg}");

    let cfg = small_config(200, 1);
    let local_stats = run_campaign(&cfg).to_stats(cfg.seed, Registry::new());
    let stop = Arc::new(AtomicBool::new(false));
    let handles = spawn_steady_workers(&addr, 1, &stop);
    let mut client = Client::connect(&addr).unwrap();
    let outcome = client
        .run_to_completion(cfg, Duration::from_millis(10), |_| {})
        .unwrap();
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    client.shutdown().unwrap();
    serve.join().unwrap();
    assert_eq!(
        stats_sans_metrics(&outcome.stats),
        stats_sans_metrics(&local_stats)
    );
}
