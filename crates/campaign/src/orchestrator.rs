//! The threaded campaign runner.
//!
//! [`run_sharded`] runs N scoped worker threads over one
//! `Mutex<`[`Schedule`]`>` and one condvar. A worker leases the lowest
//! pending batch once its seed generations have published, runs it on
//! its own [`CampaignWorker`] and scratch arena, and completes it back
//! into the schedule; it waits only while no pending batch is ready,
//! which by the schedule's liveness argument means a batch is in flight
//! and will wake it. Because an iteration's RNG stream is keyed by its
//! batch id ([`bvf::fuzz::stream_seed`]) and its seed view is a pure
//! function of ledger contents, *which* worker runs a batch never shows
//! in the merged result: [`bvf::fuzz::merge_batches`] folds the outputs
//! in batch order and triages the surviving findings after the workers
//! join.
//!
//! A worker that panics while holding a lease returns the batch to the
//! schedule and wakes the waiters, so every worker that leases it meets
//! the same panic and [`run_sharded`] reports it instead of hanging.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use bvf::fuzz::{
    batch_count, merge_batches, BatchOutput, BatchSeed, CampaignConfig, CampaignWorker, Schedule,
};
use bvf_runtime::ExecScratch;
use bvf_telemetry::profile::elapsed_ns;
use bvf_telemetry::{JsonlSink, NullSink, Registry, Telemetry, TraceEvent, TraceSink};

use crate::merge::{interleave_traces, merge_registries};

/// Parallelism knobs for one threaded campaign. The corpus exchange
/// cadence lives in [`CampaignConfig`] (`batch_len`, `exchange_every`,
/// `exchange_batch`) because it defines the *logical* campaign —
/// results must not depend on the worker count.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker thread count (clamped to at least 1).
    pub workers: usize,
    /// Progress-line cadence in completed iterations (0 = silent),
    /// printed from the schedule's totals.
    pub stats_every: usize,
    /// Collect per-worker JSONL traces and interleave them into
    /// [`ParallelOutcome::trace`].
    pub trace: bool,
    /// Deterministic schedule jitter: when non-zero, each worker sleeps
    /// a few hundred microseconds (hashed from `chaos`, the batch id,
    /// and the worker id) before running a leased batch. This perturbs
    /// *which* worker runs *which* batch without touching any campaign
    /// input — the determinism tests use it to exercise many
    /// interleavings and assert the merged result never moves.
    pub chaos: u64,
}

impl ParallelConfig {
    /// Defaults for `workers` threads: no live stats, no trace, no
    /// jitter.
    pub fn new(workers: usize) -> ParallelConfig {
        ParallelConfig {
            workers,
            stats_every: 0,
            trace: false,
            chaos: 0,
        }
    }
}

/// Per-worker observability summary (wall time and batch placement are
/// observational and vary run to run; the merged result never does).
#[derive(Debug, Clone)]
pub struct WorkerSummary {
    /// Worker thread id.
    pub worker: usize,
    /// Lease batches this worker ran.
    pub batches: usize,
    /// Iterations executed.
    pub iterations: usize,
    /// Programs the verifier accepted on this worker.
    pub accepted: usize,
    /// Locally deduplicated findings recorded.
    pub findings: usize,
    /// Worker wall time, nanoseconds.
    pub wall_ns: u64,
}

/// Everything one threaded campaign produces.
pub struct ParallelOutcome {
    /// The merged campaign result — a pure function of the
    /// [`CampaignConfig`], identical at any worker count and under any
    /// interleaving.
    pub result: bvf::fuzz::CampaignResult,
    /// Merged metrics across all workers (folded in worker-id order),
    /// with campaign-level gauges (`coverage_points`, `corpus_len`,
    /// `campaign.workers`, `campaign.batches`) reflecting the merged
    /// truth, the scheduler counter `campaign.lease_wait_ns`, and what
    /// the merge records (`merge.cross_batch_dupes`, `oracle.triage_ns`).
    pub registry: Registry,
    /// Worker-tagged trace, interleaved by `(iter, worker)`; `Some`
    /// only when [`ParallelConfig::trace`] was set.
    pub trace: Option<Vec<u8>>,
    /// Per-worker summaries, in worker-id order.
    pub workers: Vec<WorkerSummary>,
    /// Every batch's output, in batch order (for
    /// [`bvf::corpus::CorpusSnapshot::from_outputs`]).
    pub outputs: Vec<BatchOutput>,
    /// Campaign wall time, nanoseconds (observational).
    pub wall_ns: u64,
}

/// A `Write` handle into a shared buffer; lets a worker's boxed trace
/// sink write into memory the orchestrator can read back after the
/// worker finishes.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Routes the merge's trace events into the trace of the worker that
/// ran each event's batch, tagged like that worker's own events, so the
/// merged trace stays worker-attributed.
struct BatchOwnerSink {
    batch_len: usize,
    /// Worker id per batch id.
    owner: Vec<usize>,
    /// One sink per worker, indexed by worker id.
    sinks: Vec<JsonlSink<SharedBuf>>,
}

impl TraceSink for BatchOwnerSink {
    fn emit(&mut self, event: &TraceEvent) {
        let worker = self.owner[event.iter() / self.batch_len];
        self.sinks[worker].emit(event);
    }
}

/// The schedule every worker thread leases from, and the condvar a
/// worker waits on while no pending batch is ready.
struct Shared {
    schedule: Mutex<Schedule>,
    ready: Condvar,
}

/// A batch leased from the shared schedule. Dropping it uncompleted —
/// its worker is unwinding — requeues the batch and wakes the waiters:
/// otherwise its generation would never publish and every worker
/// waiting on it would hang.
struct Lease<'a> {
    shared: &'a Shared,
    batch: usize,
    completed: bool,
}

impl<'a> Lease<'a> {
    /// Blocks until the lowest pending batch is ready, then leases it
    /// with its seed view, adding the wait to `campaign.lease_wait_ns`.
    /// `None` once no batch is left to lease.
    fn next(shared: &'a Shared, registry: &mut Registry) -> Option<(Lease<'a>, BatchSeed)> {
        let mut schedule = shared.schedule.lock().expect("schedule poisoned");
        let t0 = Instant::now();
        let batch = loop {
            if let Some(b) = schedule.lease() {
                break b;
            }
            if !schedule.has_pending() {
                return None;
            }
            schedule = shared.ready.wait(schedule).expect("schedule poisoned");
        };
        registry.add("campaign.lease_wait_ns", elapsed_ns(t0));
        let seed = schedule.seed_for(batch);
        let lease = Lease {
            shared,
            batch,
            completed: false,
        };
        Some((lease, seed))
    }

    /// Completes the batch into the schedule and wakes the waiters.
    fn complete(mut self, out: BatchOutput) {
        self.shared
            .schedule
            .lock()
            .expect("schedule poisoned")
            .complete(out);
        self.completed = true;
        self.shared.ready.notify_all();
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        // A poisoned lock fails every waiter's `wait` anyway.
        if let Ok(mut schedule) = self.shared.schedule.lock() {
            schedule.requeue(self.batch);
        }
        self.shared.ready.notify_all();
    }
}

struct WorkerRun {
    worker: usize,
    /// Batch ids this worker completed.
    batches: Vec<usize>,
    iterations: usize,
    accepted: usize,
    findings: usize,
    registry: Registry,
    wall_ns: u64,
}

/// Runs one campaign across `pcfg.workers` threads over one shared
/// [`Schedule`] and merges the batch outputs into one result. See the
/// crate docs for the determinism guarantees.
pub fn run_sharded(cfg: &CampaignConfig, pcfg: &ParallelConfig) -> ParallelOutcome {
    let workers = pcfg.workers.max(1);
    let t0 = Instant::now();
    let trace_epoch = Instant::now();
    let batches = batch_count(cfg);

    // One trace buffer per worker; the merge appends its events to them.
    let bufs: Vec<Arc<Mutex<Vec<u8>>>> = (0..workers).map(|_| Arc::default()).collect();
    let sink_for = |w: usize| {
        pcfg.trace.then(|| {
            JsonlSink::new(SharedBuf(Arc::clone(&bufs[w])))
                .with_worker(w as u64)
                .with_epoch(trace_epoch)
        })
    };
    let shared = Shared {
        schedule: Mutex::new(Schedule::new(cfg, pcfg.stats_every)),
        ready: Condvar::new(),
    };

    let mut runs: Vec<WorkerRun> = std::thread::scope(|s| {
        let shared = &shared;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cfg = cfg.clone();
                let chaos = pcfg.chaos;
                let sink = sink_for(w);
                s.spawn(move || run_worker(cfg, w, chaos, shared, sink))
            })
            .collect();
        crate::join::join_all(handles)
    })
    .unwrap_or_else(|e| panic!("campaign {e}"));
    runs.sort_by_key(|r| r.worker);
    let outputs = shared
        .schedule
        .into_inner()
        .expect("schedule poisoned")
        .take_outputs()
        .expect("the workers complete every batch");

    let mut owner = vec![0; batches];
    let mut summaries = Vec::with_capacity(runs.len());
    let mut registries = Vec::with_capacity(runs.len());
    for r in runs {
        for &b in &r.batches {
            owner[b] = r.worker;
        }
        summaries.push(WorkerSummary {
            worker: r.worker,
            batches: r.batches.len(),
            iterations: r.iterations,
            accepted: r.accepted,
            findings: r.findings,
            wall_ns: r.wall_ns,
        });
        registries.push(r.registry);
    }

    let sink: Box<dyn TraceSink> = if pcfg.trace {
        Box::new(BatchOwnerSink {
            batch_len: cfg.batch_len.max(1),
            owner,
            sinks: (0..workers).filter_map(sink_for).collect(),
        })
    } else {
        Box::new(NullSink)
    };
    let mut tel = Telemetry::new(sink);
    tel.registry = merge_registries(registries);
    let result = merge_batches(cfg, &outputs, &mut tel);
    let mut registry = tel.registry;
    // Per-worker gauges summed; overwrite the non-additive ones with the
    // merged truth.
    registry.set_gauge("corpus_len", result.corpus_len as i64);
    registry.set_gauge("coverage_points", result.coverage.len() as i64);
    registry.set_gauge("campaign.workers", workers as i64);
    registry.set_gauge("campaign.batches", batches as i64);

    let trace = pcfg.trace.then(|| {
        interleave_traces(
            bufs.iter()
                .map(|b| std::mem::take(&mut *b.lock().expect("trace buffer poisoned")))
                .enumerate()
                .collect(),
        )
    });

    ParallelOutcome {
        result,
        registry,
        trace,
        workers: summaries,
        outputs,
        wall_ns: elapsed_ns(t0),
    }
}

/// Deterministic per-(chaos, batch, worker) jitter in microseconds —
/// purely a scheduling perturbation, invisible to campaign inputs.
fn chaos_jitter_us(chaos: u64, batch: usize, worker: usize) -> u64 {
    let mut h = DefaultHasher::new();
    (chaos, batch as u64, worker as u64).hash(&mut h);
    h.finish() % 800
}

fn run_worker(
    cfg: CampaignConfig,
    w: usize,
    chaos: u64,
    shared: &Shared,
    trace: Option<JsonlSink<SharedBuf>>,
) -> WorkerRun {
    let t0 = Instant::now();
    let sink: Box<dyn TraceSink> = match trace {
        Some(sink) => Box::new(sink),
        None => Box::new(NullSink),
    };
    let mut tel = Telemetry::new(sink);
    let mut scratch = ExecScratch::new();
    let mut run = WorkerRun {
        worker: w,
        batches: Vec::new(),
        iterations: 0,
        accepted: 0,
        findings: 0,
        registry: Registry::new(),
        wall_ns: 0,
    };

    while let Some((lease, seed)) = Lease::next(shared, &mut tel.registry) {
        if chaos != 0 {
            std::thread::sleep(std::time::Duration::from_micros(chaos_jitter_us(
                chaos,
                lease.batch,
                w,
            )));
        }
        let mut worker = CampaignWorker::lease(cfg.clone(), lease.batch, seed);
        while worker.step(&mut tel, &mut scratch) {}
        let out = worker.into_output();
        run.batches.push(out.batch);
        run.iterations += out.iterations;
        run.accepted += out.accepted;
        run.findings += out.findings.len();
        lease.complete(out);
    }

    tel.finish();
    run.registry = std::mem::take(&mut tel.registry);
    run.wall_ns = elapsed_ns(t0);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf::baseline::GeneratorKind;

    #[test]
    fn chaos_jitter_is_deterministic_and_bounded() {
        for chaos in [1u64, 42, u64::MAX] {
            for batch in 0..8 {
                for worker in 0..4 {
                    let a = chaos_jitter_us(chaos, batch, worker);
                    assert_eq!(a, chaos_jitter_us(chaos, batch, worker));
                    assert!(a < 800);
                }
            }
        }
    }

    #[test]
    fn a_panicking_lease_holder_requeues_its_batch() {
        let cfg = CampaignConfig::new(GeneratorKind::Bvf, 256, 1);
        let shared = Shared {
            schedule: Mutex::new(Schedule::new(&cfg, 0)),
            ready: Condvar::new(),
        };
        let err = std::thread::scope(|s| {
            let h = s.spawn(|| {
                let (lease, _) = Lease::next(&shared, &mut Registry::new()).expect("batch 0");
                assert_eq!(lease.batch, 0);
                panic!("batch {} exploded", lease.batch);
            });
            crate::join::join_all([h]).unwrap_err()
        });
        assert!(err.message.contains("batch 0 exploded"), "{err}");
        let mut schedule = shared.schedule.lock().expect("the lock was not held");
        assert_eq!(schedule.lease(), Some(0), "the batch is leasable again");
    }
}
