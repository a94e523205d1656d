//! The campaign coordinator: corpus-delta streaming, completion
//! merging, and churn recovery over the wire protocol. Lease scheduling
//! is one [`Schedule`] per campaign, the same one the local runners
//! use: grants, reaps, releases and completions all go through it, and
//! campaign status reads its totals.
//!
//! # Determinism under churn
//!
//! The coordinator re-issues a lost lease (worker disconnect, lease
//! expiry) by requeueing the batch in the schedule. This is safe
//! because a batch's result is a pure function of
//! `(CampaignConfig, batch id, seed view)`: its RNG stream is keyed by
//! the batch id ([`stream_seed`]), and its seed view is a pure fold of
//! the ledger entries of its fully-published earlier generations — the
//! schedule leases no batch before those have published, so every
//! worker that ever runs the batch computes the identical seed view
//! from the identical streamed deltas. Two executions of one batch
//! therefore produce byte-identical outputs, and the schedule keeps the
//! first [`Request::Complete`] and ignores duplicates. Merged results
//! are bit-identical to a local `--workers N` run at any churn
//! interleaving.
//!
//! [`stream_seed`]: crate::fuzz::stream_seed

use std::collections::BTreeMap;
use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bvf_telemetry::Telemetry;

use crate::fabric::proto::{
    CampaignStatus, CorpusDelta, FrameConn, LeaseGrant, Request, Response, Role, FABRIC_MAGIC,
    FABRIC_VERSION,
};
use crate::fabric::{FabricCounters, FabricError};
use crate::fuzz::{
    batch_count, merge_batches, BatchOutput, CampaignConfig, FindingRecord, Schedule,
};

/// Name of the counters dump written on graceful shutdown.
pub const COUNTERS_FILE: &str = "fabric-counters.json";

/// Coordinator tuning.
pub struct CoordinatorOptions {
    /// State directory: receives `campaign-<id>.stats.json` per merged
    /// campaign and the [`COUNTERS_FILE`] dump on graceful shutdown.
    /// `None` writes nothing.
    pub state_dir: Option<PathBuf>,
    /// A lease not extended or completed within this window is reaped
    /// and re-issued.
    pub lease_timeout: Duration,
}

impl Default for CoordinatorOptions {
    fn default() -> CoordinatorOptions {
        CoordinatorOptions {
            state_dir: None,
            lease_timeout: Duration::from_secs(30),
        }
    }
}

/// One lease in flight.
struct LeaseInfo {
    session: u64,
    deadline: Instant,
}

/// Final merged result of a campaign, kept for [`Request::FetchResult`].
struct Finished {
    stats: bvf_telemetry::CampaignStats,
    findings: Vec<FindingRecord>,
}

/// One submitted campaign's scheduling state.
struct Campaign {
    cfg: CampaignConfig,
    schedule: Schedule,
    /// Batches currently leased.
    leases: BTreeMap<usize, LeaseInfo>,
    /// Publish-ordered corpus deltas; a worker's ack is an index here.
    deltas: Vec<CorpusDelta>,
    finished: Option<Finished>,
}

impl Campaign {
    fn new(cfg: CampaignConfig) -> Campaign {
        Campaign {
            schedule: Schedule::new(&cfg, 0),
            leases: BTreeMap::new(),
            deltas: Vec::new(),
            finished: None,
            cfg,
        }
    }

    /// Requeues every lease `lost` selects; counts each as a re-issue.
    fn requeue_where(&mut self, lost: impl Fn(&LeaseInfo) -> bool, counters: &mut FabricCounters) {
        let schedule = &mut self.schedule;
        self.leases.retain(|&b, l| {
            if !lost(l) {
                return true;
            }
            schedule.requeue(b);
            counters.leases_reissued += 1;
            false
        });
    }

    fn status(&self, id: u64) -> CampaignStatus {
        let t = self.schedule.totals();
        CampaignStatus {
            campaign: id,
            batches_total: batch_count(&self.cfg),
            batches_done: t.batches,
            batches_leased: self.leases.len(),
            iterations: t.iterations,
            accepted: t.accepted,
            reject_reasons: t.reject_reasons.clone(),
            findings: t.signatures.len(),
            complete: self.finished.is_some(),
        }
    }
}

/// Mutable coordinator state behind one mutex. Campaign scheduling is
/// cheap relative to batch execution, so a single lock keeps every
/// invariant (lease sets, ledger, delta stream) trivially consistent.
struct State {
    next_campaign: u64,
    next_session: u64,
    /// Worker sessions currently connected (gauge; lifetime count is in
    /// the counters).
    live_workers: usize,
    counters: FabricCounters,
    campaigns: BTreeMap<u64, Campaign>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    lease_timeout: Duration,
    state_dir: Option<PathBuf>,
}

/// The coordinator service: owns the listener and the shared state.
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Coordinator {
    /// Binds to `addr` and prepares the state directory (created if
    /// missing).
    pub fn bind<A: ToSocketAddrs>(addr: A, opts: CoordinatorOptions) -> io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        if let Some(dir) = &opts.state_dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(Coordinator {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    next_campaign: 1,
                    next_session: 1,
                    live_workers: 0,
                    counters: FabricCounters::default(),
                    campaigns: BTreeMap::new(),
                    shutdown: false,
                }),
                lease_timeout: opts.lease_timeout,
                state_dir: opts.state_dir,
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a [`Request::Shutdown`] arrives. Each
    /// connection gets a handler thread; the accept loop polls the
    /// shutdown flag between accepts.
    pub fn run(&self) -> Result<FabricCounters, FabricError> {
        self.listener.set_nonblocking(true)?;
        loop {
            if self.shared.state.lock().unwrap().shutdown {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || handle_conn(&shared, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(FabricError::Io(e)),
            }
        }
        let counters = self.shared.state.lock().unwrap().counters;
        if let Some(dir) = &self.shared.state_dir {
            let json = serde_json::to_string_pretty(&counters)
                .map_err(|e| FabricError::Protocol(format!("counters encode failed: {e}")))?;
            std::fs::write(dir.join(COUNTERS_FILE), json + "\n")?;
        }
        Ok(counters)
    }
}

/// One connection's lifecycle: handshake, request loop, churn cleanup.
fn handle_conn(shared: &Shared, stream: TcpStream) {
    let Ok(mut conn) = FrameConn::from_stream(stream) else {
        return;
    };
    let Some((session, role)) = handshake(shared, &mut conn) else {
        return;
    };
    // Recv failure is EOF or a broken pipe: the peer is gone; churn
    // cleanup below re-issues whatever it held.
    while let Ok(req) = conn.recv::<Request>() {
        let quitting = matches!(req, Request::Shutdown);
        let resp = dispatch(shared, session, req);
        if conn.send(&resp).is_err() {
            break;
        }
        if quitting {
            break;
        }
    }
    let mut state = shared.state.lock().unwrap();
    if role == Role::Worker {
        state.live_workers -= 1;
    }
    release_session_leases(&mut state, session);
}

/// Validates the mandatory first frame. Returns `None` (connection to
/// be dropped) on anything but a matching [`Request::Hello`].
fn handshake(shared: &Shared, conn: &mut FrameConn) -> Option<(u64, Role)> {
    let first: Request = conn.recv().ok()?;
    let Request::Hello {
        magic,
        version,
        role,
    } = first
    else {
        conn.send(&Response::Refused {
            reason: "first frame must be Hello".to_string(),
        })
        .ok();
        return None;
    };
    if magic != FABRIC_MAGIC || version != FABRIC_VERSION {
        conn.send(&Response::Refused {
            reason: format!(
                "protocol mismatch: peer speaks {magic}/v{version}, \
                 coordinator speaks {FABRIC_MAGIC}/v{FABRIC_VERSION}"
            ),
        })
        .ok();
        return None;
    }
    let session = {
        let mut state = shared.state.lock().unwrap();
        let session = state.next_session;
        state.next_session += 1;
        session
    };
    conn.send(&Response::Welcome {
        version: FABRIC_VERSION,
        session,
        lease_timeout_ms: shared.lease_timeout.as_millis() as u64,
    })
    .ok()?;
    // Count the worker only once the Welcome actually reached it: a
    // send failure returns None above, and handle_conn never runs the
    // cleanup path for a session it was not told about — incrementing
    // earlier would leak the live_workers gauge upward.
    if role == Role::Worker {
        let mut state = shared.state.lock().unwrap();
        state.live_workers += 1;
        state.counters.worker_sessions += 1;
    }
    Some((session, role))
}

/// Requeues every lease a vanished session held.
fn release_session_leases(state: &mut State, session: u64) {
    for c in state.campaigns.values_mut() {
        c.requeue_where(|l| l.session == session, &mut state.counters);
    }
}

/// Serves one request.
fn dispatch(shared: &Shared, session: u64, req: Request) -> Response {
    match req {
        Request::Hello { .. } => Response::Refused {
            reason: "already welcomed".to_string(),
        },
        Request::Lease { known } => grant_lease(shared, session, &known),
        Request::Extend { campaign, batch } => {
            let mut state = shared.state.lock().unwrap();
            let deadline = Instant::now() + shared.lease_timeout;
            let keep = state
                .campaigns
                .get_mut(&campaign)
                .and_then(|c| c.leases.get_mut(&batch))
                .is_some_and(|l| {
                    if l.session == session {
                        l.deadline = deadline;
                        true
                    } else {
                        false
                    }
                });
            Response::Extended { keep }
        }
        Request::Complete { campaign, output } => complete_batch(shared, campaign, output),
        Request::Submit { config } => {
            // Checked before the lock: a schedule too large to allocate
            // would panic while holding it and poison the coordinator.
            if let Err(reason) = config.validate() {
                return Response::Error { reason };
            }
            let mut state = shared.state.lock().unwrap();
            let id = state.next_campaign;
            state.next_campaign += 1;
            state.campaigns.insert(id, Campaign::new(config));
            merge_if_complete(shared, state, id);
            Response::Submitted { campaign: id }
        }
        Request::Status { campaign } => {
            let state = shared.state.lock().unwrap();
            match state.campaigns.get(&campaign) {
                Some(c) => Response::StatusReport(c.status(campaign)),
                None => Response::Unknown { campaign },
            }
        }
        Request::FetchResult { campaign } => {
            let state = shared.state.lock().unwrap();
            match state.campaigns.get(&campaign) {
                Some(c) => match &c.finished {
                    Some(f) => Response::ResultReady {
                        stats: f.stats.clone(),
                        findings: f.findings.clone(),
                    },
                    None => Response::Pending,
                },
                None => Response::Unknown { campaign },
            }
        }
        Request::Counters => {
            let state = shared.state.lock().unwrap();
            Response::CounterReport(state.counters)
        }
        Request::Shutdown => {
            let mut state = shared.state.lock().unwrap();
            state.shutdown = true;
            Response::Bye
        }
    }
}

/// Grants the next batch of the lowest-id campaign whose schedule has
/// one ready, streaming the delta suffix the worker lacks. Grant policy
/// is pure scheduling — any policy merges to the same bytes — but this
/// one keeps campaigns finishing in submission order.
fn grant_lease(shared: &Shared, session: u64, known: &BTreeMap<u64, u64>) -> Response {
    let now = Instant::now();
    let deadline = now + shared.lease_timeout;
    let mut state = shared.state.lock().unwrap();
    let state = &mut *state;
    for c in state.campaigns.values_mut() {
        c.requeue_where(|l| l.deadline <= now, &mut state.counters);
    }
    for (&id, c) in state.campaigns.iter_mut() {
        let Some(batch) = c.schedule.lease() else {
            continue;
        };
        c.leases.insert(batch, LeaseInfo { session, deadline });
        state.counters.leases_issued += 1;
        let have = known.get(&id).map_or(0, |&n| n as usize);
        let deltas: Vec<CorpusDelta> = c.deltas[have.min(c.deltas.len())..].to_vec();
        state.counters.deltas_streamed += deltas.len() as u64;
        let config = (!known.contains_key(&id)).then(|| c.cfg.clone());
        return Response::Granted(LeaseGrant {
            campaign: id,
            batch,
            config,
            deltas,
        });
    }
    Response::NoWork
}

/// Accepts one batch completion: the schedule publishes its ledger
/// entry and folds it into the status totals, the entry joins the delta
/// stream, and the campaign merges when the last batch lands.
/// Duplicate completions (possible after lease re-issue — both
/// executions are byte-identical) and stragglers landing during or
/// after the merge are acknowledged stale and dropped by the schedule.
fn complete_batch(shared: &Shared, campaign: u64, output: BatchOutput) -> Response {
    let mut guard = shared.state.lock().unwrap();
    // Reborrow so `campaigns` and `counters` borrow as disjoint fields.
    let state = &mut *guard;
    let Some(c) = state.campaigns.get_mut(&campaign) else {
        return Response::Unknown { campaign };
    };
    let b = output.batch;
    let total = batch_count(&c.cfg);
    if b >= total {
        return Response::Error {
            reason: format!("batch {b} out of range (campaign has {total})"),
        };
    }
    let entry = output.ledger_entry();
    if !c.schedule.complete(output) {
        state.counters.duplicate_completions += 1;
        return Response::Accepted { fresh: false };
    }
    c.leases.remove(&b);
    c.deltas.push(CorpusDelta {
        seq: c.deltas.len() as u64,
        batch: b,
        entry,
    });
    state.counters.completions += 1;
    merge_if_complete(shared, guard, campaign);
    Response::Accepted { fresh: true }
}

/// Merges the campaign once its schedule holds every output — after its
/// last completion, or at submit for a campaign without batches. The
/// merge triages every finding of the campaign, so it runs without the
/// lock that every Lease, Extend and Status request takes.
fn merge_if_complete(shared: &Shared, mut guard: MutexGuard<'_, State>, campaign: u64) {
    let state = &mut *guard;
    let c = state
        .campaigns
        .get_mut(&campaign)
        .expect("merging a submitted campaign");
    let Some(outputs) = c.schedule.take_outputs() else {
        return;
    };
    let (cfg, counters) = (c.cfg.clone(), state.counters);
    drop(guard);
    finalize_campaign(shared, campaign, &cfg, &outputs, &counters);
}

/// Merges a fully completed campaign (deduplicating and triaging its
/// findings), persists its stats to the state dir, and stores the
/// result for [`Request::FetchResult`].
fn finalize_campaign(
    shared: &Shared,
    id: u64,
    cfg: &CampaignConfig,
    outputs: &[BatchOutput],
    counters: &FabricCounters,
) {
    let mut tel = Telemetry::null();
    counters.publish_into(&mut tel.registry);
    let result = merge_batches(cfg, outputs, &mut tel);
    let stats = result.to_stats(cfg.seed, tel.registry);
    if let Some(dir) = &shared.state_dir {
        if let Ok(json) = serde_json::to_string_pretty(&stats) {
            std::fs::write(dir.join(format!("campaign-{id}.stats.json")), json + "\n").ok();
        }
    }
    let mut state = shared.state.lock().expect("coordinator state poisoned");
    if let Some(c) = state.campaigns.get_mut(&id) {
        c.finished = Some(Finished {
            stats,
            findings: result.findings,
        });
    }
}
