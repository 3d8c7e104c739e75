//! The worker fleet: `nfi worker` processes, where the daemon executes
//! every store miss.
//!
//! Every worker is an `nfi worker` process: the `lanes × workers`
//! local children the daemon starts and supervises itself
//! ([`crate::local`]), plus any remote nodes an operator points at the
//! daemon. The seam is the one the offline path uses —
//! [`Orchestrator::run_spec_with`](nfi_core::Orchestrator::run_spec_with)
//! hands the dispatcher a self-contained miss set, the dispatcher
//! returns decoded [`ShardRun`]s, and the orchestrator merges and
//! persists them — so a document produced by workers is
//! byte-identical to the offline path by construction.
//!
//! The protocol is **pull-based** over the daemon's existing HTTP/1.1
//! codec (no new listener, no tokio):
//!
//! * a worker `POST /v1/workers` registers with its machine
//!   fingerprint (refused on mismatch — a different build or machine
//!   configuration would break byte parity) and receives a
//!   `(worker id, generation)` identity plus a heartbeat interval;
//! * it heartbeats `POST /v1/workers/:id/heartbeat` from a side
//!   thread, so liveness survives long executions;
//! * it pulls assignments with `POST /v1/workers/:id/poll`, which
//!   **long-polls**: an idle poll blocks until an assignment is queued
//!   or requeued, or the fleet stops, for at most [`POLL_WAIT`]. A
//!   dispatching lane hash-shards its miss set into one chunk per live
//!   worker;
//! * it executes the chunk's subset spec through the ordinary engine
//!   and streams the shard document (plus its `NFI-SPAN` trace lines)
//!   back with `POST /v1/workers/:id/result`. The lease's `context` is
//!   the one way a job's trace crosses the process boundary.
//!
//! Worker death is invisible to clients:
//!
//! * a worker silent past the heartbeat timeout, or holding a lease
//!   past the assignment timeout, is marked **lost**; its leases
//!   requeue and the next poll from any live worker picks them up. The
//!   supervisor marks an exited local child lost at once, and kills
//!   and replaces a local child the fleet marked lost;
//! * a worker that polls while it still holds a lease abandoned that
//!   lease (its result never arrived — `nfi worker` polls again after a
//!   failed result POST), so the lease requeues on that poll;
//! * an assignment requeued past its cap splits into single-unit
//!   assignments, and a unit requeued past its own cap is **isolated**:
//!   counted in `failed_units` and left uncovered, so one poisoned unit
//!   costs only its own outcome. The saved segment is then partial,
//!   which is legal — a later run re-executes only the uncovered units.
//!   Nothing fabricated is written and nothing runs in the daemon;
//! * results are **first-wins idempotent**: execution is at-least-once
//!   (a timed-out worker may still finish), but only the first
//!   document for an assignment is kept, so [`nfi_core::merge`] never
//!   sees overlapping coverage and the bytes never depend on how many
//!   times a chunk ran;
//! * a worker that rejoins re-registers under a bumped **generation**;
//!   traffic from its stale generation is refused (and counted), so a
//!   zombie process cannot corrupt its successor's leases.
//!
//! Every protocol event is counted in [`FleetEvents`] and surfaces,
//! through the rows of [`crate::metrics::METRICS`], as the `fleet`
//! section of `/v1/metrics` and the `nfi_fleet_*` Prometheus families.

use nfi_core::service::ShardRun;
use nfi_sfi::CampaignSpec;
use nfi_telemetry::{log::log, trace, Level, SpanRecord, Trace};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long an idle poll waits for work before answering
/// `{"assignment":null}`.
pub const POLL_WAIT: Duration = Duration::from_secs(2);

/// How long a blocked dispatch waits between lease scans. Requeue
/// latency after a heartbeat timeout is bounded by timeout + this.
const LEASE_SCAN: Duration = Duration::from_millis(50);

/// Protocol counters shared between the fleet and `/v1/metrics`.
#[derive(Debug, Default)]
pub struct FleetEvents {
    /// Successful registrations (rejoins included).
    pub registrations: AtomicU64,
    /// Accepted heartbeats.
    pub heartbeats: AtomicU64,
    /// Accepted polls (with or without an assignment to hand out).
    pub polls: AtomicU64,
    /// Workers marked lost: heartbeat timeout, lease timeout, or an
    /// exited local child.
    pub workers_lost: AtomicU64,
    /// Assignments created by dispatching lanes (isolation splits
    /// included).
    pub dispatched: AtomicU64,
    /// Assignments completed by a worker result.
    pub completed: AtomicU64,
    /// Requeues (worker loss, rejoin, abandoned lease, error result,
    /// bad document).
    pub requeued: AtomicU64,
    /// Worker-reported execution failures and undecodable documents.
    pub failed: AtomicU64,
    /// Results discarded because the assignment was already done (or
    /// already harvested) — the at-least-once duplicates.
    pub duplicate_results: AtomicU64,
    /// Requests refused for carrying a stale generation (or arriving
    /// from a lost worker that must re-register first).
    pub stale_rejections: AtomicU64,
    /// Units left uncovered: requeued past their own cap, or stranded
    /// by a stop.
    pub failed_units: AtomicU64,
}

/// Why a worker request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// No such worker id (daemon restarted, or never registered).
    Unknown,
    /// The generation is stale, or the worker was marked lost; it must
    /// re-register before issuing further requests.
    Stale,
    /// Registration refused: capability mismatch.
    Mismatch(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Unknown => write!(f, "unknown worker (register first)"),
            FleetError::Stale => write!(f, "stale registration (re-register to rejoin)"),
            FleetError::Mismatch(why) => write!(f, "{why}"),
        }
    }
}

/// A successful registration.
#[derive(Debug, Clone, Copy)]
pub struct Registration {
    /// The worker's id (stable across rejoins of the same name).
    pub worker: u64,
    /// The registration generation; every subsequent request must
    /// carry it, and a rejoin bumps it.
    pub generation: u64,
    /// The heartbeat interval the worker should keep.
    pub heartbeat_ms: u64,
}

/// What one poll handed out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Assignment id to report the result under.
    pub assignment: u64,
    /// The job the assignment belongs to (diagnostics).
    pub job: u64,
    /// The encoded subset [`CampaignSpec`] to execute.
    pub plan: String,
    /// `<trace>:<parent span>` context the worker's spans re-anchor
    /// under ([`Trace::context_string`]).
    pub context: Option<String>,
}

/// How [`Fleet::complete`] classified a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// First result for the assignment — accepted.
    Accepted,
    /// The assignment was already done (or gone): discarded, counted.
    Duplicate,
}

#[derive(Debug)]
struct WorkerEntry {
    generation: u64,
    last_seen: Instant,
    lost: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum AssignState {
    Pending,
    Leased { worker: u64, since: Instant },
    Done,
}

#[derive(Debug)]
struct Assignment {
    id: u64,
    job: u64,
    /// Global unit indices of this chunk (an isolation split re-subsets
    /// the job's spec from these instead of re-decoding).
    indices: Vec<usize>,
    /// Encoded subset spec handed to the worker.
    plan: String,
    /// Trace context string for the worker.
    context: Option<String>,
    state: AssignState,
    requeues: u32,
    /// Pre-allocated span id in the job trace (0 = untraced).
    span: u64,
    /// Trace-epoch offset when the assignment was created.
    dispatched_at_us: u64,
    /// First accepted result: (shard document, raw `NFI-SPAN` lines).
    result: Option<(String, Vec<String>)>,
}

#[derive(Debug, Default)]
struct FleetInner {
    workers: HashMap<u64, WorkerEntry>,
    by_name: HashMap<String, u64>,
    assignments: BTreeMap<u64, Assignment>,
}

/// The shared worker registry + assignment pool. One per daemon; the
/// HTTP handler threads mutate it through the protocol methods while
/// blocked scheduler lanes wait on it in [`Fleet::dispatch`].
#[derive(Debug)]
pub struct Fleet {
    /// Expected machine fingerprint; registrations must match it.
    expected_fp: u64,
    /// Silence budget before a worker is marked lost.
    heartbeat_timeout: Duration,
    /// Requeues per assignment before it splits (or, for one unit,
    /// fails).
    max_requeues: u32,
    /// Optional per-lease execution budget (`None` = heartbeat-only
    /// failure detection).
    lease_timeout: Option<Duration>,
    /// How long an idle poll blocks ([`POLL_WAIT`]).
    poll_wait: Duration,
    /// Protocol counters.
    pub events: FleetEvents,
    inner: Mutex<FleetInner>,
    /// Woken when a dispatch can make progress (results, losses).
    changed: Condvar,
    /// Woken when a poll can (new or requeued assignments, stop).
    work: Condvar,
    stopped: AtomicBool,
    next_worker: AtomicU64,
    next_assignment: AtomicU64,
}

impl Fleet {
    /// A fleet that accepts workers whose machine fingerprint is
    /// `expected_fp` (the scheduler's own — byte parity requires both
    /// sides to execute under the same machine configuration). A
    /// dispatch with no live worker waits for one: the daemon keeps its
    /// local workers alive.
    pub fn new(
        expected_fp: u64,
        heartbeat_timeout: Duration,
        max_requeues: u32,
        lease_timeout: Option<Duration>,
    ) -> Fleet {
        Fleet {
            expected_fp,
            heartbeat_timeout,
            max_requeues,
            lease_timeout,
            poll_wait: POLL_WAIT,
            events: FleetEvents::default(),
            inner: Mutex::new(FleetInner::default()),
            changed: Condvar::new(),
            work: Condvar::new(),
            stopped: AtomicBool::new(false),
            next_worker: AtomicU64::new(0),
            next_assignment: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FleetInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wakes both sides after a requeue: polls can lease it, and a
    /// dispatch may now have to split or fail it.
    fn requeued(&self) {
        self.work.notify_all();
        self.changed.notify_all();
    }

    /// Registers (or re-registers) a worker by name.
    ///
    /// A name that registered before keeps its worker id but bumps its
    /// **generation**: the old generation's polls, heartbeats, and
    /// results are refused from then on, and any leases it held
    /// requeue immediately — a crashed-and-restarted worker rejoins
    /// cleanly while its zombie predecessor is fenced off.
    ///
    /// # Errors
    ///
    /// [`FleetError::Mismatch`] when `fingerprint` differs from the
    /// scheduler's machine fingerprint.
    pub fn register(&self, name: &str, fingerprint: u64) -> Result<Registration, FleetError> {
        if fingerprint != self.expected_fp {
            return Err(FleetError::Mismatch(format!(
                "machine fingerprint {fingerprint:016x} does not match the scheduler's \
                 {:016x}; run the same nfi build with the same machine configuration",
                self.expected_fp
            )));
        }
        let mut inner = self.lock();
        let worker = match inner.by_name.get(name) {
            Some(&id) => id,
            None => {
                let id = self.next_worker.fetch_add(1, Ordering::Relaxed) + 1;
                inner.by_name.insert(name.to_string(), id);
                id
            }
        };
        let generation = inner.workers.get(&worker).map_or(1, |w| w.generation + 1);
        if self.requeue_leases_of(&mut inner, worker) {
            self.requeued();
        }
        inner.workers.insert(
            worker,
            WorkerEntry {
                generation,
                last_seen: Instant::now(),
                lost: false,
            },
        );
        self.events.registrations.fetch_add(1, Ordering::Relaxed);
        log(
            Level::Info,
            "worker_registered",
            &[
                ("name", name),
                ("worker", &worker.to_string()),
                ("generation", &generation.to_string()),
            ],
        );
        Ok(Registration {
            worker,
            generation,
            heartbeat_ms: (self.heartbeat_timeout.as_millis() as u64 / 4).max(50),
        })
    }

    /// Accepts a heartbeat, refreshing the worker's liveness.
    ///
    /// # Errors
    ///
    /// [`FleetError::Unknown`] for an unregistered id,
    /// [`FleetError::Stale`] for a stale generation or a worker
    /// already marked lost (it must re-register).
    pub fn heartbeat(&self, worker: u64, generation: u64) -> Result<(), FleetError> {
        let mut inner = self.lock();
        self.validate(&mut inner, worker, generation)?;
        self.events.heartbeats.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Hands out the oldest pending assignment, waiting up to
    /// [`POLL_WAIT`] for one to be queued or requeued. A stopped fleet
    /// answers an idle poll at once.
    ///
    /// Polling also counts as liveness, and requeues any lease the
    /// worker still holds: a worker polls only once it is done with its
    /// last lease, so such a lease was abandoned, and the liveness this
    /// poll refreshes would otherwise keep it leased forever.
    /// Assignments past the requeue cap are never handed out — they
    /// belong to the dispatching lane's isolation step.
    ///
    /// # Errors
    ///
    /// Same contract as [`Fleet::heartbeat`]; a rejoin or loss while
    /// the poll waits ends it with [`FleetError::Stale`].
    pub fn poll(&self, worker: u64, generation: u64) -> Result<Option<Lease>, FleetError> {
        let deadline = Instant::now() + self.poll_wait;
        let mut inner = self.lock();
        self.reap(&mut inner);
        self.validate(&mut inner, worker, generation)?;
        self.events.polls.fetch_add(1, Ordering::Relaxed);
        if self.requeue_leases_of(&mut inner, worker) {
            self.requeued();
        }
        loop {
            let max_requeues = self.max_requeues;
            let lease = inner
                .assignments
                .values_mut()
                .find(|a| a.state == AssignState::Pending && a.requeues <= max_requeues)
                .map(|a| {
                    a.state = AssignState::Leased {
                        worker,
                        since: Instant::now(),
                    };
                    Lease {
                        assignment: a.id,
                        job: a.job,
                        plan: a.plan.clone(),
                        context: a.context.clone(),
                    }
                });
            let remaining = deadline.saturating_duration_since(Instant::now());
            if lease.is_some() || remaining.is_zero() || self.stopped.load(Ordering::SeqCst) {
                return Ok(lease);
            }
            inner = self
                .work
                .wait_timeout(inner, remaining)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            match inner.workers.get(&worker) {
                Some(w) if w.generation == generation && !w.lost => {}
                _ => return Err(FleetError::Stale),
            }
        }
    }

    /// Records a worker's result for an assignment.
    ///
    /// **First result wins**: a success for a not-yet-done assignment
    /// is stored (even if the lease has since moved to another worker
    /// — that is the at-least-once race, and taking the earlier result
    /// wastes less work); anything after that is counted and
    /// discarded, so merged documents never depend on how many times a
    /// chunk executed. An error result requeues the assignment if this
    /// worker still holds its lease.
    ///
    /// A lost (timed-out) worker with a current generation may still
    /// deliver — that is exactly the duplicate path — but it must
    /// re-register before polling again.
    ///
    /// # Errors
    ///
    /// [`FleetError::Unknown`] / [`FleetError::Stale`] as in
    /// [`Fleet::heartbeat`] (except that lost workers are allowed
    /// through here).
    pub fn complete(
        &self,
        worker: u64,
        generation: u64,
        assignment: u64,
        outcome: Result<(String, Vec<String>), String>,
    ) -> Result<Completion, FleetError> {
        let mut inner = self.lock();
        match inner.workers.get(&worker) {
            None => return Err(FleetError::Unknown),
            Some(w) if w.generation != generation => {
                self.events.stale_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(FleetError::Stale);
            }
            Some(_) => {}
        }
        let Some(a) = inner.assignments.get_mut(&assignment) else {
            // Already harvested by its lane (or the job is gone): a
            // classic late duplicate.
            self.events
                .duplicate_results
                .fetch_add(1, Ordering::Relaxed);
            return Ok(Completion::Duplicate);
        };
        if a.state == AssignState::Done {
            self.events
                .duplicate_results
                .fetch_add(1, Ordering::Relaxed);
            return Ok(Completion::Duplicate);
        }
        match outcome {
            Ok(result) => {
                a.result = Some(result);
                a.state = AssignState::Done;
                self.events.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(why) => {
                self.events.failed.fetch_add(1, Ordering::Relaxed);
                log(
                    Level::Warn,
                    "assignment_failed",
                    &[
                        ("assignment", &assignment.to_string()),
                        ("worker", &worker.to_string()),
                        ("error", &why),
                    ],
                );
                // Requeue only if this worker still holds the lease —
                // a late error after the lease moved on must not
                // clobber the new holder's claim.
                if matches!(&a.state, AssignState::Leased { worker: w, .. } if *w == worker) {
                    a.state = AssignState::Pending;
                    a.requeues += 1;
                    self.events.requeued.fetch_add(1, Ordering::Relaxed);
                    self.work.notify_all();
                }
            }
        }
        self.changed.notify_all();
        Ok(Completion::Accepted)
    }

    /// Live (registered, not lost) worker count: the chunk count of the
    /// next dispatch.
    pub fn live_workers(&self) -> usize {
        let mut inner = self.lock();
        self.reap(&mut inner);
        inner.workers.values().filter(|w| !w.lost).count()
    }

    /// Marks the worker registered as `name` lost at once and requeues
    /// its leases — the supervisor's call when a local child exits, so
    /// its lease moves on without waiting out the heartbeat timeout.
    pub(crate) fn lose(&self, name: &str) {
        let mut inner = self.lock();
        let Some(&worker) = inner.by_name.get(name) else {
            return;
        };
        if let Some(w) = inner.workers.get_mut(&worker) {
            if !w.lost {
                w.lost = true;
                self.events.workers_lost.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.requeue_leases_of(&mut inner, worker);
        self.requeued();
    }

    /// Whether the worker registered as `name` has been marked lost
    /// (after a reap) — the supervisor kills and replaces such a local
    /// child. A name not yet registered is not lost.
    pub(crate) fn is_lost(&self, name: &str) -> bool {
        let mut inner = self.lock();
        self.reap(&mut inner);
        let worker = inner.by_name.get(name).copied();
        worker
            .and_then(|w| inner.workers.get(&w))
            .is_some_and(|w| w.lost)
    }

    /// Stops the fleet: idle polls answer at once instead of waiting,
    /// and a dispatch still waiting (a document rebuild racing the
    /// daemon's stop) leaves its remaining units uncovered, so a
    /// stopping daemon's connection threads are not held by either.
    pub(crate) fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        let _guard = self.lock();
        self.requeued();
    }

    /// Dispatches a job's miss set over the fleet and blocks until
    /// every chunk has a result or is isolated: the worker leg of
    /// [`Orchestrator::run_spec_with`](nfi_core::Orchestrator::run_spec_with).
    ///
    /// The misses are hash-sharded into one chunk per live worker, each
    /// encoded once as a self-contained subset spec
    /// ([`CampaignSpec::subset`]) and queued for pulling. The lane then
    /// waits, rescanning every [`LEASE_SCAN`]: done assignments are
    /// harvested (their worker spans re-anchored into the job trace),
    /// lost and timed-out leases requeue, and a chunk past its requeue
    /// cap splits into single-unit assignments. A unit past its own cap
    /// — or stranded by a stop — is counted in `failed_units` and left
    /// out of the returned runs. The runs carry the **full** spec's
    /// unit count, so they merge with the store's replayed outcomes.
    pub fn dispatch(&self, job: u64, spec: &CampaignSpec, missing: &[usize]) -> Vec<ShardRun> {
        if missing.is_empty() {
            return Vec::new();
        }
        let total = spec.units.len();
        let context = trace::current_context();
        let chunk_count = self.live_workers().clamp(1, missing.len());
        let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); chunk_count];
        for &index in missing {
            chunks[chunk_of(index, chunk_count)].push(index);
        }
        chunks.retain(|c| !c.is_empty());
        let mut outstanding = self.enqueue(job, spec, &context, chunks);

        let mut runs = Vec::new();
        while !outstanding.is_empty() {
            let (done, exhausted, stranded) = self.settle(&mut outstanding);
            for assignment in done {
                match self.harvest(&context, total, assignment) {
                    Ok(run) => runs.push(run),
                    Err(requeued) => {
                        // Undecodable document: back into the pool for
                        // another worker (or the isolation step).
                        outstanding.push(requeued.id);
                        self.lock().assignments.insert(requeued.id, *requeued);
                        self.requeued();
                    }
                }
            }
            for assignment in exhausted {
                if assignment.indices.len() > 1 && !stranded {
                    let singles = assignment.indices.iter().map(|&i| vec![i]).collect();
                    outstanding.extend(self.enqueue(job, spec, &context, singles));
                    continue;
                }
                self.events
                    .failed_units
                    .fetch_add(assignment.indices.len() as u64, Ordering::Relaxed);
                log(
                    Level::Warn,
                    "units_failed",
                    &[
                        ("job", &job.to_string()),
                        ("assignment", &assignment.id.to_string()),
                        ("units", &assignment.indices.len().to_string()),
                    ],
                );
            }
        }
        runs
    }

    /// Blocks until some outstanding assignment is done, or pending past
    /// its requeue cap, or stranded by a stop; takes those out of the
    /// pool and of `outstanding`. Returns (done, exhausted, stranded).
    fn settle(&self, outstanding: &mut Vec<u64>) -> (Vec<Assignment>, Vec<Assignment>, bool) {
        let mut inner = self.lock();
        loop {
            self.reap(&mut inner);
            let stranded = self.stopped.load(Ordering::SeqCst);
            let (mut done, mut exhausted) = (Vec::new(), Vec::new());
            outstanding.retain(|id| {
                let settled = match inner.assignments.get(id) {
                    Some(a) if a.state == AssignState::Done => &mut done,
                    Some(a)
                        if stranded
                            || (a.state == AssignState::Pending
                                && a.requeues > self.max_requeues) =>
                    {
                        &mut exhausted
                    }
                    _ => return true,
                };
                settled.extend(inner.assignments.remove(id));
                false
            });
            if !done.is_empty() || !exhausted.is_empty() {
                return (done, exhausted, stranded);
            }
            inner = self
                .changed
                .wait_timeout(inner, LEASE_SCAN)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Queues one assignment per chunk of global unit indices and
    /// wakes the polls; returns the new assignment ids.
    fn enqueue(
        &self,
        job: u64,
        spec: &CampaignSpec,
        context: &Option<(Arc<Trace>, u64)>,
        chunks: Vec<Vec<usize>>,
    ) -> Vec<u64> {
        let mut ids = Vec::with_capacity(chunks.len());
        let mut inner = self.lock();
        for indices in chunks {
            let id = self.next_assignment.fetch_add(1, Ordering::Relaxed) + 1;
            let (span, dispatched_at_us, context) = match context {
                Some((t, _)) => {
                    let span = t.alloc_span();
                    (span, t.elapsed_us(), Some(t.context_string(span)))
                }
                None => (0, 0, None),
            };
            let plan = spec.subset(&indices).encode();
            inner.assignments.insert(
                id,
                Assignment {
                    id,
                    job,
                    indices,
                    plan,
                    context,
                    state: AssignState::Pending,
                    requeues: 0,
                    span,
                    dispatched_at_us,
                    result: None,
                },
            );
            self.events.dispatched.fetch_add(1, Ordering::Relaxed);
            ids.push(id);
        }
        self.work.notify_all();
        ids
    }

    /// Marks silent workers and workers holding a lease past the
    /// assignment timeout lost, and requeues their leases. Called under
    /// the lock from every scan point, so liveness converges on
    /// whichever of poll / live-worker count / dispatch / supervisor
    /// touches the fleet next.
    fn reap(&self, inner: &mut FleetInner) {
        let now = Instant::now();
        let FleetInner {
            workers,
            assignments,
            ..
        } = inner;
        let lose = |worker: &mut WorkerEntry| {
            if !worker.lost {
                worker.lost = true;
                self.events.workers_lost.fetch_add(1, Ordering::Relaxed);
            }
        };
        for w in workers.values_mut() {
            if now.duration_since(w.last_seen) > self.heartbeat_timeout {
                lose(w);
            }
        }
        let mut any = false;
        for a in assignments.values_mut() {
            let AssignState::Leased { worker, since } = a.state else {
                continue;
            };
            let overdue = self
                .lease_timeout
                .is_some_and(|t| now.duration_since(since) > t);
            match workers.get_mut(&worker) {
                Some(w) if overdue => lose(w),
                Some(w) if !w.lost => continue,
                _ => {}
            }
            a.state = AssignState::Pending;
            a.requeues += 1;
            self.events.requeued.fetch_add(1, Ordering::Relaxed);
            any = true;
        }
        if any {
            self.requeued();
        }
    }

    /// Requeues every lease held by `worker` (any generation) — the
    /// rejoin, abandoned-lease and exited-child paths. Returns whether
    /// any requeued.
    fn requeue_leases_of(&self, inner: &mut FleetInner, worker: u64) -> bool {
        let mut any = false;
        for a in inner.assignments.values_mut() {
            if matches!(&a.state, AssignState::Leased { worker: w, .. } if *w == worker) {
                a.state = AssignState::Pending;
                a.requeues += 1;
                self.events.requeued.fetch_add(1, Ordering::Relaxed);
                any = true;
            }
        }
        any
    }

    /// Strict liveness check for heartbeat/poll: current generation,
    /// not lost. Refreshes `last_seen` on success.
    fn validate(
        &self,
        inner: &mut FleetInner,
        worker: u64,
        generation: u64,
    ) -> Result<(), FleetError> {
        let Some(w) = inner.workers.get_mut(&worker) else {
            return Err(FleetError::Unknown);
        };
        if w.generation != generation || w.lost {
            self.events.stale_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(FleetError::Stale);
        }
        w.last_seen = Instant::now();
        Ok(())
    }

    /// Decodes a harvested assignment's document and re-anchors the
    /// worker's spans under the job trace (`reserve_ids` +
    /// `import_child`). An undecodable document hands the assignment
    /// back for requeue (boxed — the error path is rare and the struct
    /// is wide).
    fn harvest(
        &self,
        context: &Option<(Arc<Trace>, u64)>,
        total: usize,
        mut assignment: Assignment,
    ) -> Result<ShardRun, Box<Assignment>> {
        let (doc, span_lines) = assignment
            .result
            .take()
            .expect("done assignment has result");
        match ShardRun::decode(&doc) {
            Ok(mut run) => {
                if let Some((t, parent)) = context {
                    if assignment.span > 0 {
                        let spans: Vec<SpanRecord> = span_lines
                            .iter()
                            .filter_map(|l| trace::parse_span_line(l))
                            .collect();
                        if let Some(width) = spans.iter().map(|s| s.id).max() {
                            let base = t.reserve_ids(width);
                            for span in &spans {
                                t.import_child(
                                    span,
                                    assignment.span,
                                    base,
                                    assignment.dispatched_at_us,
                                );
                            }
                        }
                        t.record(SpanRecord {
                            id: assignment.span,
                            parent: *parent,
                            name: "remote_shard".to_string(),
                            start_us: assignment.dispatched_at_us,
                            dur_us: t.elapsed_us().saturating_sub(assignment.dispatched_at_us),
                        });
                    }
                }
                // The worker saw only the subset; re-widen the coverage
                // denominator so the run merges with replayed outcomes.
                run.total = total;
                Ok(run)
            }
            Err(e) => {
                self.events.failed.fetch_add(1, Ordering::Relaxed);
                self.events.requeued.fetch_add(1, Ordering::Relaxed);
                log(
                    Level::Warn,
                    "assignment_bad_document",
                    &[("assignment", &assignment.id.to_string()), ("error", &e)],
                );
                assignment.state = AssignState::Pending;
                assignment.requeues += 1;
                Err(Box::new(assignment))
            }
        }
    }
}

/// The chunk a global unit index hash-shards into: FNV-1a over the
/// index bytes, mod the chunk count — stable across dispatches, so the
/// same miss set always chunks the same way.
fn chunk_of(index: usize, chunks: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in index.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % chunks as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfi_core::exec::ExecConfig;
    use nfi_core::service::exec_spec;
    use nfi_pylite::MachineConfig;

    const SOURCE: &str = "\
def add(a, b):
    return a + b
def scale(x):
    if x > 2:
        return x * 3
    return x
def test_add():
    assert add(1, 2) == 3
def test_scale():
    assert scale(3) == 9
";

    fn fixture() -> (CampaignSpec, Vec<usize>) {
        let spec = nfi_core::plan_campaign("demo", SOURCE, MachineConfig::default().seed).unwrap();
        let all: Vec<usize> = spec.units.iter().map(|u| u.index).collect();
        (spec, all)
    }

    fn fingerprint() -> u64 {
        MachineConfig::default().fingerprint()
    }

    /// A fleet whose idle polls wait 20 ms, so scripted workers loop
    /// fast.
    fn fleet(timeout: Duration, max_requeues: u32) -> Fleet {
        Fleet {
            poll_wait: Duration::from_millis(20),
            ..Fleet::new(fingerprint(), timeout, max_requeues, None)
        }
    }

    fn execute(plan: &str) -> String {
        let sub = CampaignSpec::decode(plan).unwrap();
        exec_spec(&sub, &MachineConfig::default(), ExecConfig::default())
            .unwrap()
            .encode()
    }

    fn direct(spec: &CampaignSpec) -> ShardRun {
        exec_spec(spec, &MachineConfig::default(), ExecConfig::default()).unwrap()
    }

    /// Seeds the pool directly (no dispatch thread): one assignment
    /// holding every unit.
    fn seed_one(fleet: &Fleet, spec: &CampaignSpec, all: &[usize]) {
        fleet.lock().assignments.insert(
            1,
            Assignment {
                id: 1,
                job: 9,
                indices: all.to_vec(),
                plan: spec.subset(all).encode(),
                context: None,
                state: AssignState::Pending,
                requeues: 0,
                span: 0,
                dispatched_at_us: 0,
                result: None,
            },
        );
    }

    /// Plays one worker until `stop`: executes every lease for which
    /// `obey` holds and abandons the others (its next poll requeues
    /// them, as after a failed result POST).
    fn play_worker(
        fleet: &Fleet,
        reg: Registration,
        obey: impl Fn(&CampaignSpec) -> bool,
        stop: impl Fn() -> bool,
    ) {
        while !stop() {
            match fleet.poll(reg.worker, reg.generation) {
                Ok(Some(lease)) => {
                    if obey(&CampaignSpec::decode(&lease.plan).unwrap()) {
                        let doc = execute(&lease.plan);
                        fleet
                            .complete(
                                reg.worker,
                                reg.generation,
                                lease.assignment,
                                Ok((doc, vec![])),
                            )
                            .unwrap();
                    }
                }
                Ok(None) => {}
                Err(_) => return,
            }
        }
    }

    #[test]
    fn worker_dispatch_merges_byte_identical_to_direct_execution() {
        let (spec, all) = fixture();
        let fleet = fleet(Duration::from_secs(5), 2);
        let reg = fleet.register("w1", fingerprint()).unwrap();
        let runs = std::thread::scope(|scope| {
            let dispatch = scope.spawn(|| fleet.dispatch(1, &spec, &all));
            play_worker(&fleet, reg, |_| true, || dispatch.is_finished());
            dispatch.join().unwrap()
        });
        let merged = nfi_core::merge(&runs).unwrap();
        assert_eq!(merged.encode(), direct(&spec).encode());
        assert_eq!(
            fleet.events.dispatched.load(Ordering::Relaxed),
            1,
            "one chunk per live worker"
        );
        assert_eq!(fleet.events.failed_units.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_poisoned_unit_is_isolated_and_every_other_outcome_matches() {
        let (spec, all) = fixture();
        assert!(
            all.len() >= 3,
            "the fixture needs neighbours for the poisoned unit"
        );
        let poisoned = all[all.len() / 2];
        let fleet = fleet(Duration::from_secs(5), 1);
        let reg = fleet.register("w1", fingerprint()).unwrap();
        // The worker abandons every assignment holding the poisoned unit
        // — as a worker that crashes on it would — and runs the rest.
        let runs = std::thread::scope(|scope| {
            let dispatch = scope.spawn(|| fleet.dispatch(1, &spec, &all));
            play_worker(
                &fleet,
                reg,
                |plan| plan.units.iter().all(|u| u.index != poisoned),
                || dispatch.is_finished(),
            );
            dispatch.join().unwrap()
        });
        assert_eq!(fleet.events.failed_units.load(Ordering::Relaxed), 1);
        // Every run came back from the worker: the fleet executes
        // nothing itself.
        assert_eq!(
            fleet.events.completed.load(Ordering::Relaxed),
            runs.len() as u64
        );
        assert!(
            fleet.events.dispatched.load(Ordering::Relaxed) > all.len() as u64,
            "the poisoned chunk split into single-unit assignments"
        );
        let merged = nfi_core::merge(&runs).unwrap();
        let expected = direct(&spec);
        let lines = |run: &ShardRun| -> Vec<(usize, String)> {
            run.outcomes
                .iter()
                .map(|o| (o.index, o.line.clone()))
                .collect()
        };
        let mut want = lines(&expected);
        want.retain(|(index, _)| *index != poisoned);
        assert_eq!(lines(&merged), want, "only the poisoned unit is uncovered");
        assert_eq!(merged.total, spec.units.len());
    }

    #[test]
    fn without_a_live_worker_a_dispatch_waits_until_a_stop_leaves_the_units_uncovered() {
        let (spec, all) = fixture();
        let fleet = fleet(Duration::from_millis(100), 2);
        let runs = std::thread::scope(|scope| {
            let dispatch = scope.spawn(|| fleet.dispatch(1, &spec, &all));
            std::thread::sleep(Duration::from_millis(150));
            assert!(!dispatch.is_finished(), "waits for a worker");
            fleet.stop();
            dispatch.join().unwrap()
        });
        assert!(runs.is_empty(), "nothing executes in the daemon");
        let failed = fleet.events.failed_units.load(Ordering::Relaxed);
        assert_eq!(failed, all.len() as u64);
    }

    #[test]
    fn an_idle_poll_waits_for_work_and_stop_ends_the_wait() {
        let (spec, all) = fixture();
        let fleet = Fleet::new(fingerprint(), Duration::from_secs(30), 2, None);
        let reg = fleet.register("w1", fingerprint()).unwrap();
        std::thread::scope(|scope| {
            let poll = scope.spawn(|| {
                let started = Instant::now();
                let lease = fleet.poll(reg.worker, reg.generation).unwrap();
                (lease, started.elapsed())
            });
            std::thread::sleep(Duration::from_millis(50));
            fleet.enqueue(9, &spec, &None, vec![all.clone()]);
            let (lease, waited) = poll.join().unwrap();
            assert_eq!(lease.map(|l| l.job), Some(9), "woken by the new assignment");
            assert!(
                waited < POLL_WAIT,
                "answered before the wait ran out: {waited:?}"
            );
        });
        let reg = fleet.register("w2", fingerprint()).unwrap();
        std::thread::scope(|scope| {
            let poll = scope.spawn(|| {
                let started = Instant::now();
                (fleet.poll(reg.worker, reg.generation), started.elapsed())
            });
            std::thread::sleep(Duration::from_millis(50));
            fleet.stop();
            let (lease, waited) = poll.join().unwrap();
            assert_eq!(lease, Ok(None));
            assert!(waited < POLL_WAIT, "stop ended the wait: {waited:?}");
        });
    }

    #[test]
    fn heartbeat_timeout_requeues_the_lease_and_fences_the_worker() {
        let (spec, all) = fixture();
        let fleet = fleet(Duration::from_millis(60), 2);
        let reg = fleet.register("w1", fingerprint()).unwrap();
        seed_one(&fleet, &spec, &all);
        let lease = fleet.poll(reg.worker, reg.generation).unwrap().unwrap();
        assert_eq!(lease.assignment, 1);
        // The worker goes silent past the heartbeat timeout.
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(fleet.live_workers(), 0, "silent worker marked lost");
        {
            let inner = fleet.lock();
            let a = &inner.assignments[&1];
            assert_eq!(a.state, AssignState::Pending, "lease requeued");
            assert_eq!(a.requeues, 1);
        }
        assert_eq!(fleet.events.workers_lost.load(Ordering::Relaxed), 1);
        assert_eq!(fleet.events.requeued.load(Ordering::Relaxed), 1);
        // The lost worker is fenced until it re-registers.
        assert_eq!(
            fleet.heartbeat(reg.worker, reg.generation),
            Err(FleetError::Stale)
        );
        assert_eq!(
            fleet.poll(reg.worker, reg.generation),
            Err(FleetError::Stale)
        );
        let rejoined = fleet.register("w1", fingerprint()).unwrap();
        assert_eq!(rejoined.worker, reg.worker, "same name keeps its id");
        assert_eq!(rejoined.generation, reg.generation + 1);
        assert!(fleet
            .poll(rejoined.worker, rejoined.generation)
            .unwrap()
            .is_some());
    }

    #[test]
    fn a_lease_past_the_assignment_timeout_marks_its_worker_lost() {
        let (spec, all) = fixture();
        let fleet = Fleet {
            poll_wait: Duration::from_millis(20),
            ..Fleet::new(
                fingerprint(),
                Duration::from_secs(30),
                2,
                Some(Duration::from_millis(40)),
            )
        };
        let reg = fleet.register("local-0", fingerprint()).unwrap();
        seed_one(&fleet, &spec, &all);
        fleet.poll(reg.worker, reg.generation).unwrap().unwrap();
        assert!(!fleet.is_lost("local-0"));
        // Heartbeats keep coming — the worker is alive but hung on its
        // lease — so only the assignment timeout can catch it.
        let deadline = Instant::now() + Duration::from_millis(100);
        while Instant::now() < deadline {
            let _ = fleet.heartbeat(reg.worker, reg.generation);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(fleet.is_lost("local-0"), "the hung worker is lost");
        assert!(!fleet.is_lost("never-registered"));
        assert_eq!(fleet.lock().assignments[&1].state, AssignState::Pending);
        assert_eq!(fleet.events.workers_lost.load(Ordering::Relaxed), 1);
        assert_eq!(fleet.events.requeued.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn losing_an_exited_worker_requeues_its_lease_at_once() {
        let (spec, all) = fixture();
        let fleet = fleet(Duration::from_secs(30), 2);
        let reg = fleet.register("local-0", fingerprint()).unwrap();
        seed_one(&fleet, &spec, &all);
        fleet.poll(reg.worker, reg.generation).unwrap().unwrap();
        fleet.lose("local-0");
        fleet.lose("never-registered");
        assert!(fleet.is_lost("local-0"));
        assert_eq!(fleet.lock().assignments[&1].state, AssignState::Pending);
        assert_eq!(fleet.events.workers_lost.load(Ordering::Relaxed), 1);
        assert_eq!(fleet.events.requeued.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn duplicate_result_after_requeue_keeps_the_first_bytes() {
        let (spec, all) = fixture();
        let fleet = fleet(Duration::from_millis(60), 2);
        let w1 = fleet.register("w1", fingerprint()).unwrap();
        seed_one(&fleet, &spec, &all);
        let lease = fleet.poll(w1.worker, w1.generation).unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(120));
        let w2 = fleet.register("w2", fingerprint()).unwrap();
        let release = fleet.poll(w2.worker, w2.generation).unwrap().unwrap();
        assert_eq!(release.assignment, lease.assignment);
        let doc = execute(&release.plan);
        assert_eq!(
            fleet.complete(w2.worker, w2.generation, 1, Ok((doc.clone(), Vec::new()))),
            Ok(Completion::Accepted)
        );
        // w1 (lost, but still the current generation) delivers late,
        // with different bytes: discarded, counted, first bytes kept.
        assert_eq!(
            fleet.complete(
                w1.worker,
                w1.generation,
                1,
                Ok(("garbage-late-result".to_string(), Vec::new()))
            ),
            Ok(Completion::Duplicate)
        );
        assert_eq!(fleet.events.duplicate_results.load(Ordering::Relaxed), 1);
        let inner = fleet.lock();
        let stored = inner.assignments[&1].result.as_ref().unwrap();
        assert_eq!(stored.0, doc, "first result's bytes survive");
    }

    #[test]
    fn stale_generation_is_rejected_after_rejoin() {
        let (spec, all) = fixture();
        let fleet = fleet(Duration::from_secs(5), 2);
        let old = fleet.register("w", fingerprint()).unwrap();
        seed_one(&fleet, &spec, &all);
        let lease = fleet.poll(old.worker, old.generation).unwrap().unwrap();
        // The worker restarts and re-registers under the same name:
        // its old lease requeues and its old generation is fenced.
        let new = fleet.register("w", fingerprint()).unwrap();
        assert_eq!(new.generation, old.generation + 1);
        assert_eq!(
            fleet.heartbeat(old.worker, old.generation),
            Err(FleetError::Stale)
        );
        assert_eq!(
            fleet.poll(old.worker, old.generation),
            Err(FleetError::Stale)
        );
        assert_eq!(
            fleet.complete(
                old.worker,
                old.generation,
                lease.assignment,
                Ok(("zombie".to_string(), Vec::new()))
            ),
            Err(FleetError::Stale)
        );
        assert!(fleet.events.stale_rejections.load(Ordering::Relaxed) >= 3);
        // The new generation picks the requeued lease back up.
        let release = fleet.poll(new.worker, new.generation).unwrap().unwrap();
        assert_eq!(release.assignment, lease.assignment);
    }

    #[test]
    fn a_lease_abandoned_by_a_polling_worker_requeues_and_completes() {
        let (spec, all) = fixture();
        let fleet = fleet(Duration::from_millis(500), 2);
        let reg = fleet.register("w1", fingerprint()).unwrap();
        let runs = std::thread::scope(|scope| {
            let dispatch = scope.spawn(|| fleet.dispatch(1, &spec, &all));
            // Take a lease and drop it, as `nfi worker` does when its
            // result POST fails, then serve the pool obediently.
            while fleet.poll(reg.worker, reg.generation).unwrap().is_none() {}
            play_worker(&fleet, reg, |_| true, || dispatch.is_finished());
            dispatch.join().unwrap()
        });
        assert!(fleet.events.requeued.load(Ordering::Relaxed) >= 1);
        assert_eq!(fleet.events.failed_units.load(Ordering::Relaxed), 0);
        let merged = nfi_core::merge(&runs).unwrap();
        assert_eq!(merged.encode(), direct(&spec).encode());
    }

    #[test]
    fn registration_rejects_a_mismatched_machine_fingerprint() {
        let fleet = fleet(Duration::from_secs(5), 2);
        let err = fleet.register("w1", fingerprint() ^ 1).unwrap_err();
        assert!(matches!(err, FleetError::Mismatch(_)), "{err}");
    }
}
