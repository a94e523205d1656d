//! The local campaign runner: one lease loop for one worker and for N.
//!
//! [`run_local`] runs a campaign's lease batches on `workers` workers
//! over one `Mutex<`[`Schedule`]`>` and one condvar. A worker leases the
//! lowest pending batch once its seed generations have published, runs
//! it on its own [`CampaignWorker`] and [`ExecScratch`], and completes
//! it back into the schedule; it waits only while no pending batch is
//! ready, which by the schedule's liveness argument means a batch is in
//! flight and will wake it. [`merge_batches`] then folds the outputs in
//! batch order and triages the surviving findings, once each.
//!
//! One worker runs the loop on the caller's thread and emits into the
//! caller's [`Telemetry`] as the campaign runs. N workers run the same
//! loop on N scoped threads, each recording its metrics and its events
//! (with the instant it emitted them); after the merge the runner folds
//! the registries in worker order and replays the events into the
//! caller's sink in `(iter, worker)` order through
//! [`TraceSink::emit_from`].
//!
//! Because an iteration's RNG stream is keyed by its batch id
//! ([`stream_seed`](crate::fuzz::stream_seed)) and its seed view is a
//! pure function of ledger contents, *which* worker runs a batch never
//! shows in the merged result: every worker count runs this one loop and
//! merges to a bit-identical [`CampaignResult`].
//!
//! A worker that panics while holding a lease returns the batch to the
//! schedule and wakes the waiters, so every worker that leases it meets
//! the same panic and [`run_local`] reports it instead of hanging.

use std::cell::RefCell;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::rc::Rc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use bvf_runtime::ExecScratch;
use bvf_telemetry::profile::elapsed_ns;
use bvf_telemetry::{Registry, Telemetry, TraceEvent, TraceSink};

use crate::fuzz::{
    batch_count, merge_batches, BatchOutput, BatchSeed, CampaignConfig, CampaignResult,
    CampaignWorker, Schedule,
};
use crate::join::join_all;

/// How one local campaign runs. The corpus exchange cadence lives in
/// [`CampaignConfig`] (`batch_len`, `exchange_every`, `exchange_batch`)
/// because it defines the *logical* campaign — results must not depend
/// on the worker count.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker count (clamped to at least 1). One worker runs on the
    /// caller's thread.
    pub workers: usize,
    /// Progress-line cadence in completed iterations (0 = silent),
    /// printed from the schedule's totals.
    pub stats_every: usize,
    /// Deterministic schedule jitter: when non-zero, each worker sleeps
    /// a few hundred microseconds (hashed from `chaos`, the batch id,
    /// and the worker id) before running a leased batch. This perturbs
    /// *which* worker runs *which* batch without touching any campaign
    /// input — the determinism tests use it to exercise many
    /// interleavings and assert the merged result never moves.
    pub chaos: u64,
}

impl ParallelConfig {
    /// Defaults for `workers` workers: no live stats, no jitter.
    pub fn new(workers: usize) -> ParallelConfig {
        ParallelConfig {
            workers,
            stats_every: 0,
            chaos: 0,
        }
    }
}

/// Per-worker observability summary (wall time and batch placement are
/// observational and vary run to run; the merged result never does).
#[derive(Debug, Clone)]
pub struct WorkerSummary {
    /// Worker id.
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

/// Everything one local campaign produces besides its telemetry: the
/// caller's [`Telemetry`] holds the merged registry and the trace.
pub struct ParallelOutcome {
    /// The merged campaign result — a pure function of the
    /// [`CampaignConfig`], identical at any worker count and under any
    /// interleaving.
    pub result: CampaignResult,
    /// Every batch's output, in batch order (for
    /// [`CorpusSnapshot::from_outputs`](crate::corpus::CorpusSnapshot::from_outputs)).
    pub outputs: Vec<BatchOutput>,
    /// Per-worker summaries, in worker-id order.
    pub workers: Vec<WorkerSummary>,
}

/// The schedule every worker leases from, and the condvar a worker
/// waits on while no pending batch is ready.
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

/// What one worker did: its summary and the batch ids it completed.
struct WorkerRun {
    summary: WorkerSummary,
    batches: Vec<usize>,
}

/// Events recorded for replay, each with the instant it was emitted.
type Recorded = Vec<(Instant, TraceEvent)>;

/// The sink of a worker thread (and of the merge) at N workers: keeps
/// every event with its instant until the runner replays it.
struct Recorder(Rc<RefCell<Recorded>>);

impl TraceSink for Recorder {
    fn emit(&mut self, event: &TraceEvent) {
        self.0.borrow_mut().push((Instant::now(), event.clone()));
    }
}

/// Runs `f` against telemetry of its own — a fresh registry and, when
/// `trace` is set, a [`Recorder`] — and returns what `f` produced and
/// what it recorded.
fn recorded<T>(trace: bool, f: impl FnOnce(&mut Telemetry) -> T) -> (T, Registry, Recorded) {
    let events = Rc::new(RefCell::new(Vec::new()));
    let mut tel = if trace {
        Telemetry::new(Box::new(Recorder(Rc::clone(&events))))
    } else {
        Telemetry::null()
    };
    let out = f(&mut tel);
    let registry = std::mem::take(&mut tel.registry);
    drop(tel);
    (out, registry, events.take())
}

/// Runs one campaign on `pcfg.workers` workers over one shared
/// [`Schedule`], merges the batch outputs into one result, and records
/// metrics and trace events into `tel` (see the module docs for the
/// order). After the merge `tel`'s registry carries the gauges
/// `coverage_points`, `corpus_len`, `campaign.workers` and
/// `campaign.batches`. Flushing the sink ([`Telemetry::finish`]) is
/// the caller's.
pub fn run_local(
    cfg: &CampaignConfig,
    pcfg: &ParallelConfig,
    tel: &mut Telemetry,
) -> ParallelOutcome {
    let workers = pcfg.workers.max(1);
    let shared = Shared {
        schedule: Mutex::new(Schedule::new(cfg, pcfg.stats_every)),
        ready: Condvar::new(),
    };

    let (result, outputs, runs) = if workers == 1 {
        let run = run_worker(cfg, 0, pcfg.chaos, &shared, tel);
        let outputs = take_outputs(shared);
        (merge_batches(cfg, &outputs, tel), outputs, vec![run])
    } else {
        let trace = tel.trace_on();
        let runs = std::thread::scope(|s| {
            let shared = &shared;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        recorded(trace, |wtel| run_worker(cfg, w, pcfg.chaos, shared, wtel))
                    })
                })
                .collect();
            join_all(handles)
        })
        .unwrap_or_else(|e| panic!("campaign {e}"));
        let outputs = take_outputs(shared);
        let (result, merge_registry, merge_events) =
            recorded(trace, |mtel| merge_batches(cfg, &outputs, mtel));

        let mut owner = vec![0; outputs.len()];
        let mut events = Vec::new();
        let mut worker_runs = Vec::with_capacity(workers);
        for (run, registry, recorded) in runs {
            for &b in &run.batches {
                owner[b] = run.summary.worker;
            }
            tel.registry.merge(&registry);
            events.extend(recorded);
            worker_runs.push(run);
        }
        tel.registry.merge(&merge_registry);
        events.extend(merge_events);
        // Every event of an iteration was emitted by the worker that ran
        // its batch, or by the merge on that worker's behalf, so a stable
        // sort by iteration is the `(iter, worker)` order and keeps each
        // iteration's emission order, merge events last.
        events.sort_by_key(|(_, e)| e.iter());
        let batch_len = cfg.batch_len.max(1);
        for (at, e) in &events {
            tel.emit_from(owner[e.iter() / batch_len], *at, e);
        }
        (result, outputs, worker_runs)
    };

    // Worker gauges were summed by the fold; the merged truth replaces
    // the non-additive ones.
    tel.registry
        .set_gauge("corpus_len", result.corpus_len as i64);
    tel.registry
        .set_gauge("coverage_points", result.coverage.len() as i64);
    tel.registry.set_gauge("campaign.workers", workers as i64);
    tel.registry
        .set_gauge("campaign.batches", batch_count(cfg) as i64);
    ParallelOutcome {
        result,
        outputs,
        workers: runs.into_iter().map(|r| r.summary).collect(),
    }
}

/// The completed outputs, in batch order, once every worker is done.
fn take_outputs(shared: Shared) -> Vec<BatchOutput> {
    shared
        .schedule
        .into_inner()
        .expect("schedule poisoned")
        .take_outputs()
        .expect("the workers complete every batch")
}

/// Deterministic per-(chaos, batch, worker) jitter in microseconds —
/// purely a scheduling perturbation, invisible to campaign inputs.
fn chaos_jitter_us(chaos: u64, batch: usize, worker: usize) -> u64 {
    let mut h = DefaultHasher::new();
    (chaos, batch as u64, worker as u64).hash(&mut h);
    h.finish() % 800
}

/// The lease loop: worker `w` leases, runs and completes batches with
/// one reusable [`ExecScratch`] until none is left.
fn run_worker(
    cfg: &CampaignConfig,
    w: usize,
    chaos: u64,
    shared: &Shared,
    tel: &mut Telemetry,
) -> WorkerRun {
    let t0 = Instant::now();
    let mut scratch = ExecScratch::new();
    let mut summary = WorkerSummary {
        worker: w,
        batches: 0,
        iterations: 0,
        accepted: 0,
        findings: 0,
        wall_ns: 0,
    };
    let mut batches = Vec::new();
    while let Some((lease, seed)) = Lease::next(shared, &mut tel.registry) {
        if chaos != 0 {
            std::thread::sleep(Duration::from_micros(chaos_jitter_us(
                chaos,
                lease.batch,
                w,
            )));
        }
        let mut worker = CampaignWorker::lease(cfg.clone(), lease.batch, seed);
        while worker.step(tel, &mut scratch) {}
        let out = worker.into_output();
        batches.push(out.batch);
        summary.iterations += out.iterations;
        summary.accepted += out.accepted;
        summary.findings += out.findings.len();
        lease.complete(out);
    }
    summary.batches = batches.len();
    summary.wall_ns = elapsed_ns(t0);
    WorkerRun { summary, batches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::GeneratorKind;

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
            join_all(vec![h]).unwrap_err()
        });
        assert!(err.message.contains("batch 0 exploded"), "{err}");
        let mut schedule = shared.schedule.lock().expect("the lock was not held");
        assert_eq!(schedule.lease(), Some(0), "the batch is leasable again");
    }
}
