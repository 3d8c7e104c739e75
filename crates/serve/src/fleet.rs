//! The worker fleet: remote `nfi worker` nodes as a dispatch tier.
//!
//! [`worker::WorkerPool`](crate::worker::WorkerPool) promoted the
//! orchestrator's in-process workers to supervised child processes;
//! this module promotes them across the network. The seam is the same
//! one both earlier tiers use — [`Orchestrator::run_spec_with`] hands
//! the dispatcher a self-contained miss set, the dispatcher returns
//! decoded [`ShardRun`]s, and the orchestrator merges and persists
//! them — so a document produced by remote workers is byte-identical
//! to the local-process and offline paths by construction.
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
//! * it pulls assignments with `POST /v1/workers/:id/poll`. A
//!   dispatching lane hash-shards its miss set into **more chunks
//!   than live workers** ([`OVERSHARD`]), so fast workers naturally
//!   pull more chunks — work-stealing without a stealing protocol;
//! * it executes the chunk's subset spec through the ordinary engine
//!   and streams the shard document (plus its `NFI-SPAN` trace lines)
//!   back with `POST /v1/workers/:id/result`.
//!
//! Worker death is invisible to clients:
//!
//! * a worker silent past the heartbeat timeout is marked **lost**;
//!   its leases requeue and the next poll from any live worker picks
//!   them up;
//! * a worker that polls while it still holds a lease abandoned that
//!   lease (its result never arrived — `nfi worker` polls again after a
//!   failed result POST), so the lease requeues on that poll;
//! * an assignment requeued past its cap — or stranded with no live
//!   workers at all — is executed **locally** by the blocked lane, so
//!   every accepted job completes even if the whole fleet dies
//!   mid-campaign;
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

use nfi_core::service::{self, ShardRun};
use nfi_core::Orchestrator;
use nfi_sfi::CampaignSpec;
use nfi_telemetry::{log::log, trace, Level, Span, SpanRecord, Trace};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Chunks created per live worker at dispatch time. Over-sharding is
/// what makes pull-based assignment steal work: a straggler holds one
/// small chunk while faster workers drain the rest of the pool.
pub const OVERSHARD: usize = 4;

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
    /// Workers marked lost after a heartbeat timeout.
    pub workers_lost: AtomicU64,
    /// Assignments created by dispatching lanes.
    pub dispatched: AtomicU64,
    /// Assignments completed by a worker result.
    pub completed: AtomicU64,
    /// Requeues (heartbeat loss, rejoin, abandoned lease, error result,
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
    /// Assignments the dispatching lane executed locally (requeue cap
    /// exhausted, or no live workers left).
    pub local_fallbacks: AtomicU64,
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
    /// `NFI_TRACE`-format context the worker's spans re-anchor under.
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
    /// Global unit indices of this chunk (the local-fallback path
    /// re-subsets the job's spec from these instead of re-decoding).
    indices: Vec<usize>,
    /// Encoded subset spec handed to the worker.
    plan: String,
    /// `NFI_TRACE` context string for the worker.
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
    /// Requeues per assignment before the lane runs it locally.
    max_requeues: u32,
    /// Optional per-lease execution budget (`None` = heartbeat-only
    /// failure detection).
    lease_timeout: Option<Duration>,
    /// Protocol counters.
    pub events: FleetEvents,
    inner: Mutex<FleetInner>,
    changed: Condvar,
    next_worker: AtomicU64,
    next_assignment: AtomicU64,
}

impl Fleet {
    /// A fleet that accepts workers whose machine fingerprint is
    /// `expected_fp` (the scheduler's own — byte parity requires both
    /// sides to execute under the same machine configuration).
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
            events: FleetEvents::default(),
            inner: Mutex::new(FleetInner::default()),
            changed: Condvar::new(),
            next_worker: AtomicU64::new(0),
            next_assignment: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FleetInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
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
        self.requeue_leases_of(&mut inner, worker);
        inner.workers.insert(
            worker,
            WorkerEntry {
                generation,
                last_seen: Instant::now(),
                lost: false,
            },
        );
        self.events.registrations.fetch_add(1, Ordering::Relaxed);
        self.changed.notify_all();
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

    /// Hands out the oldest pending assignment, if any.
    ///
    /// Polling also counts as liveness, and requeues any lease the
    /// worker still holds: a worker polls only once it is done with its
    /// last lease, so such a lease was abandoned, and the liveness this
    /// poll refreshes would otherwise keep it leased forever.
    /// Assignments past the requeue cap are never handed out — they
    /// belong to the dispatching lane's local fallback.
    ///
    /// # Errors
    ///
    /// Same contract as [`Fleet::heartbeat`].
    pub fn poll(&self, worker: u64, generation: u64) -> Result<Option<Lease>, FleetError> {
        let mut inner = self.lock();
        self.reap(&mut inner);
        self.validate(&mut inner, worker, generation)?;
        self.events.polls.fetch_add(1, Ordering::Relaxed);
        if self.requeue_leases_of(&mut inner, worker) {
            self.changed.notify_all();
        }
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
        Ok(lease)
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
                }
            }
        }
        self.changed.notify_all();
        Ok(Completion::Accepted)
    }

    /// Live (registered, not lost) worker count. The scheduler routes
    /// a job to the remote tier exactly when this is nonzero.
    pub fn live_workers(&self) -> usize {
        let mut inner = self.lock();
        self.reap(&mut inner);
        inner.workers.values().filter(|w| !w.lost).count()
    }

    /// Dispatches a job's miss set over the fleet and blocks until
    /// every chunk has a result: the remote leg of
    /// [`Orchestrator::run_spec_with`].
    ///
    /// The misses are hash-sharded into `live workers × OVERSHARD`
    /// chunks, each encoded once as a self-contained subset spec
    /// ([`CampaignSpec::subset`]) and queued for pulling. The lane
    /// then waits, rescanning every [`LEASE_SCAN`]: done assignments
    /// are harvested (their worker spans re-anchored into the job
    /// trace), timed-out leases requeue, and a chunk past its requeue
    /// cap — or stranded with no live workers — executes right here on
    /// the lane. The returned runs carry the **full** spec's unit
    /// count, so they merge with the store's replayed outcomes exactly
    /// like the local tiers' runs do.
    ///
    /// # Errors
    ///
    /// Only local-fallback execution errors propagate (a plan that
    /// cannot execute anywhere); worker loss never does.
    pub fn dispatch(
        &self,
        orch: &Orchestrator,
        job: u64,
        spec: &CampaignSpec,
        missing: &[usize],
    ) -> Result<Vec<ShardRun>, String> {
        if missing.is_empty() {
            return Ok(Vec::new());
        }
        let total = spec.units.len();
        let context = trace::current_context();
        let chunk_count = (self.live_workers().max(1) * OVERSHARD).clamp(1, missing.len());
        let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); chunk_count];
        for &index in missing {
            chunks[chunk_of(index, chunk_count)].push(index);
        }
        chunks.retain(|c| !c.is_empty());

        let mut outstanding: Vec<u64> = Vec::with_capacity(chunks.len());
        {
            let mut inner = self.lock();
            for indices in chunks {
                let id = self.next_assignment.fetch_add(1, Ordering::Relaxed) + 1;
                let (span, dispatched_at_us, context_env) = match &context {
                    Some((t, _)) => {
                        let span = t.alloc_span();
                        (span, t.elapsed_us(), Some(t.context_env(span)))
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
                        context: context_env,
                        state: AssignState::Pending,
                        requeues: 0,
                        span,
                        dispatched_at_us,
                        result: None,
                    },
                );
                self.events.dispatched.fetch_add(1, Ordering::Relaxed);
                outstanding.push(id);
            }
            self.changed.notify_all();
        }

        let mut runs = Vec::new();
        while !outstanding.is_empty() {
            // Classify under the lock; execute/decode outside it.
            let mut done = Vec::new();
            let mut fallback = Vec::new();
            {
                let mut inner = self.lock();
                loop {
                    self.reap(&mut inner);
                    let any_live = inner.workers.values().any(|w| !w.lost);
                    for &id in &outstanding {
                        enum Take {
                            Done,
                            Fallback,
                            Wait,
                        }
                        let take = match inner.assignments.get(&id) {
                            Some(a) => match &a.state {
                                AssignState::Done => Take::Done,
                                AssignState::Pending
                                    if a.requeues > self.max_requeues || !any_live =>
                                {
                                    Take::Fallback
                                }
                                _ => Take::Wait,
                            },
                            None => Take::Wait,
                        };
                        match take {
                            Take::Done => {
                                done.push(inner.assignments.remove(&id).expect("present"));
                            }
                            Take::Fallback => {
                                fallback.push(inner.assignments.remove(&id).expect("present"));
                            }
                            Take::Wait => {}
                        }
                    }
                    if !done.is_empty() || !fallback.is_empty() {
                        break;
                    }
                    let (guard, _) = self
                        .changed
                        .wait_timeout(inner, LEASE_SCAN)
                        .unwrap_or_else(|e| e.into_inner());
                    inner = guard;
                }
            }
            for assignment in done {
                let id = assignment.id;
                match self.harvest(&context, total, assignment) {
                    Ok(run) => {
                        outstanding.retain(|&o| o != id);
                        runs.push(run);
                    }
                    Err(requeued) => {
                        // Undecodable document: back into the pool for
                        // another worker (or the fallback path).
                        let mut inner = self.lock();
                        inner.assignments.insert(id, *requeued);
                    }
                }
            }
            for assignment in fallback {
                let id = assignment.id;
                match self.run_locally(orch, spec, total, &assignment) {
                    Ok(run) => {
                        outstanding.retain(|&o| o != id);
                        runs.push(run);
                    }
                    Err(e) => {
                        // Unexecutable anywhere: abandon the dispatch,
                        // clearing our remaining assignments so late
                        // results count as duplicates, not leaks.
                        let mut inner = self.lock();
                        for &o in &outstanding {
                            inner.assignments.remove(&o);
                        }
                        return Err(e);
                    }
                }
            }
        }
        Ok(runs)
    }

    /// Marks silent workers lost and requeues expired leases. Called
    /// under the lock from every scan point, so liveness converges on
    /// whichever of poll / live-worker count / dispatch touches the
    /// fleet next.
    fn reap(&self, inner: &mut FleetInner) {
        let now = Instant::now();
        let FleetInner {
            workers,
            assignments,
            ..
        } = inner;
        for w in workers.values_mut() {
            if !w.lost && now.duration_since(w.last_seen) > self.heartbeat_timeout {
                w.lost = true;
                self.events.workers_lost.fetch_add(1, Ordering::Relaxed);
            }
        }
        for a in assignments.values_mut() {
            let expired = match &a.state {
                AssignState::Leased { worker, since } => {
                    workers.get(worker).is_none_or(|w| w.lost)
                        || self
                            .lease_timeout
                            .is_some_and(|t| now.duration_since(*since) > t)
                }
                _ => false,
            };
            if expired {
                a.state = AssignState::Pending;
                a.requeues += 1;
                self.events.requeued.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Requeues every lease held by `worker` (any generation) — the
    /// rejoin and abandoned-lease paths. Returns whether any requeued.
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
    /// worker's spans under the job trace (the same `reserve_ids` +
    /// `import_child` protocol process workers use over stderr).
    /// An undecodable document hands the assignment back for requeue
    /// (boxed — the error path is rare and the struct is wide).
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

    /// Executes an abandoned assignment on the dispatching lane — the
    /// tier of last resort that makes total fleet loss invisible.
    fn run_locally(
        &self,
        orch: &Orchestrator,
        spec: &CampaignSpec,
        total: usize,
        assignment: &Assignment,
    ) -> Result<ShardRun, String> {
        self.events.local_fallbacks.fetch_add(1, Ordering::Relaxed);
        log(
            Level::Warn,
            "assignment_local_fallback",
            &[
                ("assignment", &assignment.id.to_string()),
                ("units", &assignment.indices.len().to_string()),
            ],
        );
        let _span = Span::enter("local_fallback");
        let subset = spec.subset(&assignment.indices);
        let mut run = service::exec_spec(&subset, &orch.machine, orch.config)?;
        run.total = total;
        Ok(run)
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
    use nfi_core::service::exec_spec;
    use std::path::PathBuf;

    const SOURCE: &str = "\
def add(a, b):
    return a + b
def test_add():
    assert add(1, 2) == 3
";

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nfi-fleet-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fixture(tag: &str) -> (Orchestrator, CampaignSpec, Vec<usize>) {
        let orch = Orchestrator::new(scratch(tag)).unwrap();
        let spec = nfi_core::plan_campaign("demo", SOURCE, orch.seed).unwrap();
        let all: Vec<usize> = (0..spec.units.len()).collect();
        (orch, spec, all)
    }

    fn fleet_for(orch: &Orchestrator, timeout: Duration, max_requeues: u32) -> Fleet {
        Fleet::new(orch.machine.fingerprint(), timeout, max_requeues, None)
    }

    /// Plays one obedient worker until the dispatch thread finishes.
    fn drain_as_worker(
        fleet: &Fleet,
        orch: &Orchestrator,
        reg: Registration,
        stop: impl Fn() -> bool,
    ) {
        loop {
            match fleet.poll(reg.worker, reg.generation) {
                Ok(Some(lease)) => {
                    let sub = CampaignSpec::decode(&lease.plan).unwrap();
                    let run = exec_spec(&sub, &orch.machine, orch.config).unwrap();
                    fleet
                        .complete(
                            reg.worker,
                            reg.generation,
                            lease.assignment,
                            Ok((run.encode(), Vec::new())),
                        )
                        .unwrap();
                }
                Ok(None) => {
                    if stop() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => return,
            }
        }
    }

    #[test]
    fn remote_dispatch_merges_byte_identical_to_direct_execution() {
        let (orch, spec, all) = fixture("parity");
        let fleet = fleet_for(&orch, Duration::from_secs(5), 2);
        let reg = fleet.register("w1", orch.machine.fingerprint()).unwrap();
        let runs = std::thread::scope(|scope| {
            let dispatch = scope.spawn(|| fleet.dispatch(&orch, 1, &spec, &all));
            drain_as_worker(&fleet, &orch, reg, || dispatch.is_finished());
            dispatch.join().unwrap().unwrap()
        });
        let merged = nfi_core::merge(&runs).unwrap();
        let direct = exec_spec(&spec, &orch.machine, orch.config).unwrap();
        assert_eq!(merged.encode(), direct.encode());
        assert!(fleet.events.dispatched.load(Ordering::Relaxed) >= 1);
        assert_eq!(fleet.events.local_fallbacks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn no_live_workers_falls_back_to_local_execution() {
        let (orch, spec, all) = fixture("fallback");
        let fleet = fleet_for(&orch, Duration::from_millis(100), 2);
        let runs = fleet.dispatch(&orch, 1, &spec, &all).unwrap();
        let merged = nfi_core::merge(&runs).unwrap();
        let direct = exec_spec(&spec, &orch.machine, orch.config).unwrap();
        assert_eq!(merged.encode(), direct.encode());
        assert!(fleet.events.local_fallbacks.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn heartbeat_timeout_requeues_the_lease_and_fences_the_worker() {
        let (orch, spec, all) = fixture("timeout");
        let fleet = fleet_for(&orch, Duration::from_millis(60), 2);
        let reg = fleet.register("w1", orch.machine.fingerprint()).unwrap();
        // Seed the pool directly (no dispatch thread): one assignment.
        {
            let mut inner = fleet.lock();
            inner.assignments.insert(
                1,
                Assignment {
                    id: 1,
                    job: 9,
                    indices: all.clone(),
                    plan: spec.subset(&all).encode(),
                    context: None,
                    state: AssignState::Pending,
                    requeues: 0,
                    span: 0,
                    dispatched_at_us: 0,
                    result: None,
                },
            );
        }
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
        let rejoined = fleet.register("w1", orch.machine.fingerprint()).unwrap();
        assert_eq!(rejoined.worker, reg.worker, "same name keeps its id");
        assert_eq!(rejoined.generation, reg.generation + 1);
        assert!(fleet
            .poll(rejoined.worker, rejoined.generation)
            .unwrap()
            .is_some());
    }

    #[test]
    fn duplicate_result_after_requeue_keeps_the_first_bytes() {
        let (orch, spec, all) = fixture("dup");
        let fleet = fleet_for(&orch, Duration::from_millis(60), 2);
        let w1 = fleet.register("w1", orch.machine.fingerprint()).unwrap();
        {
            let mut inner = fleet.lock();
            inner.assignments.insert(
                1,
                Assignment {
                    id: 1,
                    job: 9,
                    indices: all.clone(),
                    plan: spec.subset(&all).encode(),
                    context: None,
                    state: AssignState::Pending,
                    requeues: 0,
                    span: 0,
                    dispatched_at_us: 0,
                    result: None,
                },
            );
        }
        let lease = fleet.poll(w1.worker, w1.generation).unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(120));
        let w2 = fleet.register("w2", orch.machine.fingerprint()).unwrap();
        let release = fleet.poll(w2.worker, w2.generation).unwrap().unwrap();
        assert_eq!(release.assignment, lease.assignment);
        let sub = CampaignSpec::decode(&release.plan).unwrap();
        let doc = exec_spec(&sub, &orch.machine, orch.config)
            .unwrap()
            .encode();
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
        let (orch, spec, all) = fixture("stale");
        let fleet = fleet_for(&orch, Duration::from_secs(5), 2);
        let old = fleet.register("w", orch.machine.fingerprint()).unwrap();
        {
            let mut inner = fleet.lock();
            inner.assignments.insert(
                1,
                Assignment {
                    id: 1,
                    job: 9,
                    indices: all.clone(),
                    plan: spec.subset(&all).encode(),
                    context: None,
                    state: AssignState::Pending,
                    requeues: 0,
                    span: 0,
                    dispatched_at_us: 0,
                    result: None,
                },
            );
        }
        let lease = fleet.poll(old.worker, old.generation).unwrap().unwrap();
        // The worker restarts and re-registers under the same name:
        // its old lease requeues and its old generation is fenced.
        let new = fleet.register("w", orch.machine.fingerprint()).unwrap();
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
    fn requeue_cap_exhaustion_executes_locally_byte_identical() {
        let (orch, spec, all) = fixture("cap");
        // Cap 0: a single requeue already exceeds the budget.
        let fleet = fleet_for(&orch, Duration::from_millis(60), 0);
        let reg = fleet.register("w1", orch.machine.fingerprint()).unwrap();
        let runs = std::thread::scope(|scope| {
            let dispatch = scope.spawn(|| fleet.dispatch(&orch, 1, &spec, &all));
            // Lease everything and never report: each poll abandons the
            // lease the previous one handed out, that one requeue exceeds
            // the cap, and the lane runs every assignment locally. (The
            // polls keep the worker live; no heartbeat timeout is
            // involved.)
            while !dispatch.is_finished() {
                match fleet.poll(reg.worker, reg.generation) {
                    Ok(Some(_)) => {}
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            dispatch.join().unwrap().unwrap()
        });
        let merged = nfi_core::merge(&runs).unwrap();
        let direct = exec_spec(&spec, &orch.machine, orch.config).unwrap();
        assert_eq!(merged.encode(), direct.encode());
        assert!(fleet.events.local_fallbacks.load(Ordering::Relaxed) >= 1);
        assert!(fleet.events.requeued.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn a_lease_abandoned_by_a_polling_worker_requeues_and_completes() {
        let (orch, spec, all) = fixture("abandon");
        let fleet = fleet_for(&orch, Duration::from_millis(500), 2);
        let reg = fleet.register("w1", orch.machine.fingerprint()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let runs = std::thread::scope(|scope| {
            let dispatch = scope.spawn(|| fleet.dispatch(&orch, 1, &spec, &all));
            // Take a lease and drop it, as `nfi worker` does when its
            // result POST fails, then serve the pool obediently.
            while fleet.poll(reg.worker, reg.generation).unwrap().is_none() {
                std::thread::sleep(Duration::from_millis(5));
            }
            drain_as_worker(&fleet, &orch, reg, || {
                dispatch.is_finished() || Instant::now() > deadline
            });
            // Should the dropped lease never requeue, the worker goes
            // silent at the deadline, and the heartbeat timeout ends the
            // dispatch through the local fallback asserted against below.
            dispatch.join().unwrap().unwrap()
        });
        assert_eq!(
            fleet.events.local_fallbacks.load(Ordering::Relaxed),
            0,
            "the abandoned lease must requeue to the polling worker"
        );
        assert!(fleet.events.requeued.load(Ordering::Relaxed) >= 1);
        let merged = nfi_core::merge(&runs).unwrap();
        let direct = exec_spec(&spec, &orch.machine, orch.config).unwrap();
        assert_eq!(merged.encode(), direct.encode());
    }

    #[test]
    fn registration_rejects_a_mismatched_machine_fingerprint() {
        let (orch, _, _) = fixture("fp");
        let fleet = fleet_for(&orch, Duration::from_secs(5), 2);
        let err = fleet
            .register("w1", orch.machine.fingerprint() ^ 1)
            .unwrap_err();
        assert!(matches!(err, FleetError::Mismatch(_)), "{err}");
    }
}
