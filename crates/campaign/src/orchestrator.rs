//! The work-stealing parallel campaign scheduler.
//!
//! [`run_sharded`] carves the campaign into lease batches
//! ([`bvf::fuzz::batch_count`]) and deals them round-robin into one
//! FIFO queue per worker thread (batch `b` lands in queue `b % N`, so
//! each queue is ascending). A worker pops its own queue from the
//! front; when its queue drains it **steals from the tail** of a peer's
//! queue instead of idling. Because an iteration's RNG stream is keyed
//! by its batch id ([`bvf::fuzz::stream_seed`]) and its corpus seed
//! view is a pure function of ledger contents ([`crate::exchange`]),
//! *which* worker runs a batch — and in what steal order — never shows
//! in the merged result: [`bvf::fuzz::merge_batches`] folds outputs in
//! batch order and triages the surviving findings after the workers
//! join.
//!
//! Liveness under stealing: let `m` be the smallest unpublished batch.
//! Every batch `m` consumes has a smaller id, so `m` is always ready.
//! If `m` is still queued, its queue's owner cannot be blocked on a
//! smaller batch (front-pop order) nor have exited (non-empty queue),
//! so `m` gets claimed; if `m` is claimed, its holder is not blocked
//! (ready) and will publish it. Either way the frontier advances, so a
//! worker blocked in `seed_for` always gets woken.

use std::collections::VecDeque;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bvf::corpus::CorpusSnapshot;
use bvf::fuzz::{batch_count, merge_batches, BatchOutput, CampaignConfig, CampaignWorker};
use bvf_runtime::ExecScratch;
use bvf_telemetry::profile::elapsed_ns;
use bvf_telemetry::{JsonlSink, NullSink, Registry, Telemetry, TraceEvent, TraceSink};

use crate::exchange::ExchangeHub;
use crate::merge::{interleave_traces, merge_registries};
use crate::progress::SharedProgress;

/// Parallelism knobs for one work-stealing campaign. The corpus
/// exchange cadence lives in [`CampaignConfig`] (`batch_len`,
/// `exchange_every`, `exchange_batch`) because it defines the *logical*
/// campaign — results must not depend on the worker count.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker thread count (clamped to at least 1).
    pub workers: usize,
    /// Live progress cadence in completed global iterations (0 =
    /// silent); output goes through one shared writer, never torn.
    pub stats_every: usize,
    /// Collect per-worker JSONL traces and interleave them into
    /// [`ParallelOutcome::trace`].
    pub trace: bool,
    /// Deterministic schedule jitter: when non-zero, each worker sleeps
    /// a few hundred microseconds (hashed from `chaos`, the batch id,
    /// and the worker id) before running a claimed batch. This perturbs
    /// *which* worker runs *which* batch without touching any campaign
    /// input — the determinism tests use it to exercise many steal
    /// interleavings and assert the merged result never moves.
    pub chaos: u64,
    /// Build a [`CorpusSnapshot`] of every batch's published delta into
    /// [`ParallelOutcome::snapshot`] (`bvf corpus export`).
    pub snapshot: bool,
}

impl ParallelConfig {
    /// Defaults for `workers` threads: no live stats, no trace, no
    /// jitter, no snapshot.
    pub fn new(workers: usize) -> ParallelConfig {
        ParallelConfig {
            workers,
            stats_every: 0,
            trace: false,
            chaos: 0,
            snapshot: false,
        }
    }
}

/// Per-worker observability summary (wall time and steal counts are
/// observational and vary run to run; the merged result never does).
#[derive(Debug, Clone)]
pub struct WorkerSummary {
    /// Worker thread id.
    pub worker: usize,
    /// Lease batches this worker ran (own + stolen).
    pub batches: usize,
    /// How many of those were stolen from a peer's queue tail.
    pub stolen: usize,
    /// Iterations executed.
    pub iterations: usize,
    /// Programs the verifier accepted on this worker.
    pub accepted: usize,
    /// Locally deduplicated findings recorded.
    pub findings: usize,
    /// Worker wall time, nanoseconds.
    pub wall_ns: u64,
}

/// Everything one work-stealing campaign produces.
pub struct ParallelOutcome {
    /// The merged campaign result — a pure function of the
    /// [`CampaignConfig`], identical at any worker count and under any
    /// steal interleaving.
    pub result: bvf::fuzz::CampaignResult,
    /// Merged metrics across all workers (folded in worker-id order),
    /// with campaign-level gauges (`coverage_points`, `corpus_len`,
    /// `campaign.workers`, `campaign.batches`) reflecting the merged
    /// truth, the scheduler counters `campaign.steal_count`,
    /// `campaign.lease_wait_ns`, and `campaign.exchange_backlog`, and
    /// what the merge records (`merge.cross_batch_dupes`,
    /// `oracle.triage_ns`).
    pub registry: Registry,
    /// Worker-tagged trace, interleaved by `(iter, worker)`; `Some`
    /// only when [`ParallelConfig::trace`] was set.
    pub trace: Option<Vec<u8>>,
    /// Per-worker summaries, in worker-id order.
    pub workers: Vec<WorkerSummary>,
    /// Versioned on-disk corpus snapshot; `Some` only when
    /// [`ParallelConfig::snapshot`] was set.
    pub snapshot: Option<CorpusSnapshot>,
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

struct WorkerRun {
    worker: usize,
    stolen: usize,
    outputs: Vec<BatchOutput>,
    registry: Registry,
    wall_ns: u64,
}

/// Pops the next lease: the front of the worker's own (ascending)
/// queue, else the **tail** of the first non-empty peer queue. Returns
/// the batch and whether it was stolen. Stealing from the tail takes
/// the victim's *latest* batch — the one whose seed generations are
/// furthest from ready — leaving the victim its cheap, ready front
/// work; the module docs argue why this cannot deadlock.
fn next_lease(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<(usize, bool)> {
    if let Some(b) = queues[w].lock().expect("lease queue poisoned").pop_front() {
        return Some((b, false));
    }
    let n = queues.len();
    for d in 1..n {
        let peer = (w + d) % n;
        if let Some(b) = queues[peer]
            .lock()
            .expect("lease queue poisoned")
            .pop_back()
        {
            return Some((b, true));
        }
    }
    None
}

/// Runs one campaign across `pcfg.workers` work-stealing threads and
/// merges the batch outputs into one result. See the crate docs for the
/// determinism guarantees.
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
    let hub = ExchangeHub::new(cfg);
    let progress = (pcfg.stats_every > 0)
        .then(|| SharedProgress::new(cfg.iterations, pcfg.stats_every, workers));

    // Deal batches round-robin: queue w holds w, w+N, w+2N, ... in
    // ascending (front-to-back) order.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..batches).step_by(workers.max(1)).collect()))
        .collect();

    let mut runs: Vec<WorkerRun> = std::thread::scope(|s| {
        let hub = &hub;
        let queues = &queues;
        let progress = progress.as_ref();
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cfg = cfg.clone();
                let chaos = pcfg.chaos;
                let sink = sink_for(w);
                s.spawn(move || run_worker(cfg, w, chaos, queues, hub, progress, sink))
            })
            .collect();
        crate::join::join_all(handles)
    })
    .unwrap_or_else(|e| panic!("campaign {e}"));
    runs.sort_by_key(|r| r.worker);

    if let Some(p) = &progress {
        p.finish();
    }

    let summaries: Vec<WorkerSummary> = runs
        .iter()
        .map(|r| WorkerSummary {
            worker: r.worker,
            batches: r.outputs.len(),
            stolen: r.stolen,
            iterations: r.outputs.iter().map(|o| o.iterations).sum(),
            accepted: r.outputs.iter().map(|o| o.accepted).sum(),
            findings: r.outputs.iter().map(|o| o.findings.len()).sum(),
            wall_ns: r.wall_ns,
        })
        .collect();

    let mut registries = Vec::with_capacity(runs.len());
    let mut outputs = Vec::with_capacity(batches);
    let mut owner = vec![0; batches];
    for r in runs {
        registries.push(r.registry);
        for o in &r.outputs {
            owner[o.batch] = r.worker;
        }
        outputs.extend(r.outputs);
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

    let snapshot = pcfg
        .snapshot
        .then(|| CorpusSnapshot::from_outputs(cfg, &outputs, &result.findings));
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
        snapshot,
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
    queues: &[Mutex<VecDeque<usize>>],
    hub: &ExchangeHub,
    progress: Option<&SharedProgress>,
    trace: Option<JsonlSink<SharedBuf>>,
) -> WorkerRun {
    let t0 = Instant::now();
    let sink: Box<dyn TraceSink> = match trace {
        Some(sink) => Box::new(sink),
        None => Box::new(NullSink),
    };
    let mut tel = Telemetry::new(sink);
    let mut scratch = ExecScratch::new();
    let mut outputs = Vec::new();
    let mut stolen = 0usize;

    while let Some((batch, was_steal)) = next_lease(queues, w) {
        if was_steal {
            stolen += 1;
            tel.registry.inc("campaign.steal_count");
        }
        if chaos != 0 {
            std::thread::sleep(std::time::Duration::from_micros(chaos_jitter_us(
                chaos, batch, w,
            )));
        }
        let (seed, stats) = hub.seed_for(batch);
        tel.registry.add("campaign.lease_wait_ns", stats.wait_ns);
        tel.registry
            .record("campaign.exchange_backlog", stats.backlog);

        let mut worker = CampaignWorker::lease(cfg.clone(), batch, seed);
        // Previous-tick snapshot for progress deltas; corpus/coverage
        // start at the seed view, so only batch-local growth is folded.
        let (mut p_acc, mut p_find) = (0usize, 0usize);
        let (mut p_corp, mut p_cov) = (worker.corpus_size(), worker.coverage_points());
        while worker.step(&mut tel, &mut scratch) {
            if let Some(p) = progress {
                let (acc, find, corp, cov) = (
                    worker.accepted(),
                    worker.findings_count(),
                    worker.corpus_size(),
                    worker.coverage_points(),
                );
                p.tick(acc - p_acc, find - p_find, corp - p_corp, cov - p_cov);
                (p_acc, p_find, p_corp, p_cov) = (acc, find, corp, cov);
            }
        }
        let out = worker.into_output();
        hub.publish(batch, out.ledger_entry());
        outputs.push(out);
    }

    tel.finish();
    WorkerRun {
        worker: w,
        stolen,
        outputs,
        registry: std::mem::take(&mut tel.registry),
        wall_ns: elapsed_ns(t0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_queues_deal_round_robin_and_steal_from_tail() {
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..2)
            .map(|w| Mutex::new((w..7).step_by(2).collect()))
            .collect();
        // Worker 0 owns 0,2,4,6; worker 1 owns 1,3,5.
        assert_eq!(next_lease(&queues, 0), Some((0, false)));
        assert_eq!(next_lease(&queues, 1), Some((1, false)));
        // Drain worker 1's own queue, then it steals worker 0's *tail*.
        assert_eq!(next_lease(&queues, 1), Some((3, false)));
        assert_eq!(next_lease(&queues, 1), Some((5, false)));
        assert_eq!(next_lease(&queues, 1), Some((6, true)));
        assert_eq!(next_lease(&queues, 1), Some((4, true)));
        // Worker 0 still pops its own front first.
        assert_eq!(next_lease(&queues, 0), Some((2, false)));
        assert_eq!(next_lease(&queues, 0), None);
        assert_eq!(next_lease(&queues, 1), None);
    }

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
}
