//! # nfi-serve — fault injection as a service
//!
//! The long-running front end over the campaign machinery: a
//! dependency-free HTTP/1.1 daemon (`nfi serve`) that accepts campaign
//! jobs, executes them through the incremental store on **`nfi worker`
//! processes** it starts and supervises itself, and serves back merged
//! outcome documents that are byte-identical to an offline
//! `nfi campaign run --state-dir` over the same state dir.
//!
//! ```text
//!           POST /v1/campaigns          GET /v1/campaigns/:id[/document]
//!                 │                                   ▲
//!   ┌─────────────▼───────────────────────────────────┴──┐
//!   │ accept loop → conn cap → rate limit → auth → router│
//!   │   [`jobs::JobTable`] [`queue::JobQueue`] journal   │
//!   └───────┬───────────────┬────────────────────┬───────┘
//!      lane 0           lane 1      ...      lane n-1
//!         │ per-(program, machine-fp) segment locks
//!         │ replay hits from nfi_core::store
//!         ▼
//!   [`fleet::Fleet`] ◀── long-poll / result ── nfi worker (local children
//!         │   (lease requeue + per-unit isolation)   and remote nodes)
//!         ▼
//!   merge → persist segment → document replays from the store
//! ```
//!
//! Jobs on independent programs run in parallel across `--lanes n`
//! scheduler lanes; jobs touching the same (program, machine-fp)
//! segment serialize behind the store's segment lock, so concurrency
//! never costs the byte-parity invariant. Accepted and finished jobs
//! are appended to a crash-safe [`journal`], replayed at startup:
//! queued work survives a daemon kill and finished documents rebuild
//! from the store segment instead of vanishing with the process.
//!
//! The daemon is hardened for **untrusted heavy traffic**:
//!
//! * optional bearer-token [`auth`] maps every request to a tenant;
//!   tenant program names are namespaced (`tenant:program`) end to
//!   end — job table, journal, store segments — and the queue drains
//!   tenants fairly;
//! * admission control sheds early and cheaply: a connection cap, a
//!   per-client token-bucket [`limit`], a bounded queue depth, and
//!   per-tenant quotas all answer `429`/`503` with `Retry-After`
//!   before any disk or CPU is spent;
//! * per-request read deadlines bound slowloris clients (`408`), and
//!   per-job queue deadlines fail work that out-waited its budget
//!   instead of running it late;
//! * crashed, hung or lost workers have their leases requeued, local
//!   children are replaced, and a poisoned unit degrades to a per-unit
//!   failure outcome instead of wedging a lane or running in the daemon.
//!
//! Every shed, rejection, requeue, loss, and expiry is counted in
//! `GET /v1/metrics`.
//!
//! The daemon executes no campaign unit itself. Every store miss, of a
//! job run or a document rebuild, goes to the [`fleet`] of `nfi worker`
//! processes — the daemon's [`local`] children plus any remote nodes —
//! which hash-shards the miss set and hands back shard documents that
//! merge byte-identically to the offline path. The worker binary is
//! therefore a required part of every [`ServeConfig`].
//!
//! Module map: [`http`] (bounded request/response codec), [`router`]
//! (API handlers), [`auth`] (bearer tokens + tenancy), [`limit`]
//! (token-bucket rate limiter), [`jobs`] (job table), [`queue`]
//! (tenant-fair priority queue), [`journal`] (crash-safe job journal),
//! [`fleet`] (worker registry + assignment pool), [`local`] (the
//! supervised local workers), [`metrics`] (the one table behind
//! `/v1/metrics` and `/metrics`), [`client`] (test and worker client).

pub mod auth;
pub mod client;
pub mod fleet;
pub mod http;
pub mod jobs;
pub mod journal;
pub mod limit;
pub mod local;
pub mod metrics;
pub mod queue;
pub mod router;

use fleet::Fleet;
use jobs::{JobStatus, JobTable, StartOutcome};
use journal::{Journal, JournalOutcome};
use limit::{Admission, RateLimiter};
use nfi_core::{IncrementalRun, Orchestrator};
use nfi_sfi::CampaignSpec;
use nfi_telemetry::{families, log::log, trace, Level, Span, SpanRecord, Trace, TraceId};
use queue::{JobQueue, Priority, PushOutcome};
use std::collections::HashMap;
use std::io::{BufReader, Read};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Default cap on concurrent connections ([`ServeConfig::max_connections`]).
pub const MAX_CONNECTIONS: usize = 64;

/// Seconds a `Retry-After` advises after a queue/quota shed. Queue
/// residency is job-scale (seconds), not request-scale, so a fixed
/// small value beats pretending to predict drain time.
const SHED_RETRY_AFTER_SECS: u64 = 2;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Incremental-store state directory (shared with offline runs).
    pub state_dir: PathBuf,
    /// Local `nfi worker` children per lane (at least 1).
    pub workers: usize,
    /// Concurrent scheduler lanes (jobs executing at once; at least 1).
    pub lanes: usize,
    /// The `nfi` binary the daemon starts its `lanes × workers` local
    /// `nfi worker` children from.
    pub worker_binary: PathBuf,
    /// Request-body cap in bytes.
    pub max_body: usize,
    /// Default scheduler seed for submissions that don't name one.
    pub seed: u64,
    /// Bearer-token table; `None` runs the daemon open (every request
    /// is the anonymous `""` tenant).
    pub auth: Option<auth::AuthTokens>,
    /// Per-client token-bucket refill in requests/second (0 = no rate
    /// limiting).
    pub rate_limit: u64,
    /// Token-bucket burst capacity (0 = twice the rate).
    pub rate_burst: u64,
    /// Most concurrent connections before the accept loop sheds `503`.
    pub max_connections: usize,
    /// Most queued jobs before submissions shed `503` (0 = unbounded).
    pub max_queue: usize,
    /// Most queued+running jobs one tenant may hold (0 = unlimited).
    pub tenant_max_queued: usize,
    /// Most distinct programs one tenant may occupy store segments for
    /// (0 = unlimited).
    pub tenant_max_programs: usize,
    /// Default queue-deadline budget for submissions that don't name
    /// one (`None` = no deadline).
    pub default_deadline_ms: Option<u64>,
    /// How long one request may take to arrive in full (slowloris
    /// bound; also the idle keep-alive timeout and the write timeout).
    pub request_timeout: Duration,
    /// Worker silence budget before the fleet marks the worker lost
    /// and requeues its leases.
    pub heartbeat_timeout: Duration,
    /// Requeues per fleet assignment before it splits into single-unit
    /// assignments, and per unit before the unit is left uncovered.
    pub assignment_requeues: u32,
    /// Optional per-lease execution budget: a worker holding a lease
    /// longer is marked lost, and a local child is killed and replaced
    /// (`None` = heartbeat-only failure detection).
    pub assignment_timeout: Option<Duration>,
}

impl ServeConfig {
    /// Defaults for a daemon over `state_dir` whose local workers run
    /// `worker_binary` (an `nfi` build): one worker, one lane, the
    /// codec's body cap, and every hardening knob at its permissive
    /// default — open auth, no rate limit, unbounded queue, no
    /// deadlines, no assignment timeout, two requeues.
    pub fn new(state_dir: impl Into<PathBuf>, worker_binary: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            state_dir: state_dir.into(),
            workers: 1,
            lanes: 1,
            worker_binary: worker_binary.into(),
            max_body: http::DEFAULT_MAX_BODY,
            seed: nfi_pylite::MachineConfig::default().seed,
            auth: None,
            rate_limit: 0,
            rate_burst: 0,
            max_connections: MAX_CONNECTIONS,
            max_queue: 0,
            tenant_max_queued: 0,
            tenant_max_programs: 0,
            default_deadline_ms: None,
            request_timeout: Duration::from_secs(30),
            heartbeat_timeout: Duration::from_secs(5),
            assignment_requeues: 2,
            assignment_timeout: None,
        }
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    running: AtomicUsize,
    units: AtomicU64,
    replayed: AtomicU64,
    executed: AtomicU64,
    anchor_hits: AtomicU64,
    anchor_misses: AtomicU64,
    connections: AtomicUsize,
    unauthorized: AtomicU64,
    rate_limited: AtomicU64,
    queue_shed: AtomicU64,
    connections_shed: AtomicU64,
    timeouts: AtomicU64,
    deadline_expiries: AtomicU64,
}

/// What the startup journal replay recovered (fixed after bind).
#[derive(Debug, Default, Clone, Copy)]
struct Recovered {
    queued: u64,
    finished: u64,
    corrupt: u64,
}

/// Everything the handler threads and the scheduler lanes share.
pub struct ServerState {
    /// Daemon configuration.
    pub config: ServeConfig,
    /// The job table.
    pub jobs: JobTable,
    /// The job queue.
    pub queue: JobQueue,
    /// The orchestrator every lane runs through — shared so its
    /// in-process segment-lock table covers all lanes.
    pub orch: Orchestrator,
    /// The worker fleet: registry and assignment pool, where every
    /// store miss executes.
    pub fleet: Fleet,
    /// The local workers' per-daemon secret ([`local::write_token`]).
    local_token: auth::AuthTokens,
    limiter: Option<RateLimiter>,
    journal: Mutex<Journal>,
    recovered: Recovered,
    counters: Counters,
    /// Set by the drain once the last lane has exited; the accept loop
    /// serves (the workers' connections included) until then.
    drained: AtomicBool,
    /// Exclusive `flock` on `<state_dir>/serve.lock`, held until
    /// [`ServeHandle::stop`] releases it (or the kernel does, on
    /// death). The journal and the local worker secret are
    /// daemon-owned, so one state dir belongs to at most one daemon at
    /// a time; offline `campaign run`s still share the dir through the
    /// segment locks.
    daemon_lock: Mutex<Option<std::fs::File>>,
    /// Sockets of live connections by id, so a stop can close idle
    /// keep-alive connections instead of waiting out their timeout.
    live: Mutex<HashMap<u64, TcpStream>>,
    next_connection: AtomicU64,
}

impl ServerState {
    /// Accepts a planned spec for a tenant: admission checks, table
    /// entry, journal record, queue push. The journal append happens
    /// *before* the id is returned — an acknowledged job is always
    /// recoverable after a crash. Sheds (`429`/`503` + `Retry-After`)
    /// happen *before* the journal append — a rejected burst costs no
    /// disk.
    ///
    /// Every journal-append + table-update pair runs under the journal
    /// mutex (here and in the record methods), and compaction — which
    /// rewrites the journal from a table snapshot — runs under the
    /// same mutex. A compaction can therefore never observe the append
    /// without its table update (which would erase a just-journaled
    /// record) or the table update without its append (which would
    /// duplicate one).
    ///
    /// # Errors
    ///
    /// The error response to send: `503` + `Retry-After` when the
    /// queue is at [`ServeConfig::max_queue`], `429` + `Retry-After`
    /// when the tenant is over [`ServeConfig::tenant_max_queued`],
    /// `500` for an unjournalable job, `503` after shutdown.
    pub fn accept(
        &self,
        spec: CampaignSpec,
        tenant: &str,
        priority: Priority,
        deadline_ms: Option<u64>,
    ) -> Result<u64, http::Response> {
        let cfg = &self.config;
        if cfg.max_queue > 0 && self.queue.depth() >= cfg.max_queue {
            self.counters.queue_shed.fetch_add(1, Ordering::Relaxed);
            return Err(http::Response::shed(
                503,
                &format!("job queue is at its {}-job bound", cfg.max_queue),
                SHED_RETRY_AFTER_SECS,
            ));
        }
        if cfg.tenant_max_queued > 0 && self.jobs.active_for_tenant(tenant) >= cfg.tenant_max_queued
        {
            self.counters.queue_shed.fetch_add(1, Ordering::Relaxed);
            return Err(http::Response::shed(
                429,
                &format!(
                    "tenant quota: {} jobs already queued or running (limit {})",
                    self.jobs.active_for_tenant(tenant),
                    cfg.tenant_max_queued
                ),
                SHED_RETRY_AFTER_SECS,
            ));
        }
        if cfg.tenant_max_programs > 0 {
            let programs = self.jobs.programs_for_tenant(tenant);
            if !programs.iter().any(|p| p == &spec.program)
                && programs.len() >= cfg.tenant_max_programs
            {
                self.counters.queue_shed.fetch_add(1, Ordering::Relaxed);
                return Err(http::Response::shed(
                    429,
                    &format!(
                        "tenant quota: {} distinct programs already stored (limit {}); \
                         submit under an existing program name",
                        programs.len(),
                        cfg.tenant_max_programs
                    ),
                    SHED_RETRY_AFTER_SECS,
                ));
            }
        }
        let deadline_ms = deadline_ms.or(cfg.default_deadline_ms);
        let id = {
            let mut journal = self.journal();
            let (id, spec) = self.jobs.submit_for(spec, tenant, priority, deadline_ms);
            self.counters.submitted.fetch_add(1, Ordering::Relaxed);
            if let Err(e) = journal.record_accepted(id, &spec, tenant, priority, deadline_ms) {
                self.jobs.fail(id, format!("not accepted: {e}"));
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                return Err(http::Response::error(
                    500,
                    &format!("cannot journal job: {e}"),
                ));
            }
            id
        };
        match self.queue.push_for(tenant, priority, id) {
            PushOutcome::Queued => {
                log(
                    Level::Info,
                    "job_accepted",
                    &[
                        ("id", &id.to_string()),
                        ("tenant", tenant),
                        ("priority", priority.key()),
                    ],
                );
                Ok(id)
            }
            PushOutcome::Shutdown => {
                let message = "daemon is shutting down".to_string();
                self.finish_under_journal(id, &JournalOutcome::Failed(message.clone()));
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                Err(http::Response::error(503, &message))
            }
        }
    }

    /// Records a completed run: journal first (a poll-visible `done`
    /// must survive a crash), then the table, then the counters.
    fn record_done(&self, id: u64, run: &IncrementalRun) {
        self.finish_under_journal(
            id,
            &JournalOutcome::Done {
                replayed: run.replayed,
                executed: run.executed,
                store_errors: run.store_errors.len(),
            },
        );
        let c = &self.counters;
        c.completed.fetch_add(1, Ordering::Relaxed);
        c.units.fetch_add(run.units as u64, Ordering::Relaxed);
        c.replayed.fetch_add(run.replayed as u64, Ordering::Relaxed);
        c.executed.fetch_add(run.executed as u64, Ordering::Relaxed);
        // Warm-edit resubmissions: how much the anchor fallback saved
        // (hits) and what a changed function still cost (misses).
        c.anchor_hits
            .fetch_add(run.anchor_replayed as u64, Ordering::Relaxed);
        c.anchor_misses
            .fetch_add(run.anchor_missed as u64, Ordering::Relaxed);
        log(
            Level::Info,
            "job_done",
            &[
                ("id", &id.to_string()),
                ("replayed", &run.replayed.to_string()),
                ("executed", &run.executed.to_string()),
            ],
        );
    }

    /// Records a failed run (journal first, same reasoning).
    fn record_failed(&self, id: u64, message: String) {
        log(
            Level::Warn,
            "job_failed",
            &[("id", &id.to_string()), ("error", &message)],
        );
        self.finish_under_journal(id, &JournalOutcome::Failed(message));
        self.counters.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// The one finish path: journal append, table flip, and (when due)
    /// compaction from a table snapshot, all under the journal mutex —
    /// see [`Self::accept`] for why the pair must be atomic against
    /// compaction.
    fn finish_under_journal(&self, id: u64, outcome: &JournalOutcome) {
        let mut journal = self.journal();
        let _ = journal.record_finished(id, outcome);
        match outcome {
            JournalOutcome::Done {
                replayed,
                executed,
                store_errors,
            } => self.jobs.finish(id, *replayed, *executed, *store_errors),
            JournalOutcome::Failed(message) => self.jobs.fail(id, message.clone()),
        }
        // Rewrite the journal from the live table once enough records
        // have accumulated, so the file tracks the retained job table
        // instead of the daemon's lifetime.
        if journal.wants_compaction() {
            let _ = journal.compact(&self.jobs.all_jobs());
        }
    }

    fn journal(&self) -> std::sync::MutexGuard<'_, Journal> {
        self.journal.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn live(&self) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.live.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The `GET /v1/metrics` document: every [`metrics::METRICS`] row
    /// by section, plus the latency summaries.
    pub fn metrics_json(&self) -> String {
        metrics::render_json(self, &nfi_telemetry::registry().snapshot())
    }

    /// The `GET /metrics` Prometheus text-format page — the same rows,
    /// plus the latency histograms with full bucket series.
    pub fn metrics_prometheus(&self) -> String {
        metrics::render_prometheus(self, &nfi_telemetry::registry().snapshot())
    }

    /// Re-executes a finished job whose segment no longer replays in
    /// full, **read-only**: every unit goes to the fleet and the runs
    /// merge, but nothing is saved — a read endpoint must not prune
    /// segments, or two finished jobs planned from different sources of
    /// one program would evict each other's on alternating fetches.
    ///
    /// # Errors
    ///
    /// Reports a merge failure (no unit came back).
    pub fn rebuild_document(&self, job: u64, spec: &CampaignSpec) -> Result<String, String> {
        let all: Vec<usize> = spec.units.iter().map(|u| u.index).collect();
        Ok(nfi_core::merge(&self.fleet.dispatch(job, spec, &all))?.encode())
    }
}

/// A bound daemon, not yet serving.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr`, opens (creating if needed) the state dir, and
    /// replays the job journal: finished jobs come back with their
    /// counters (documents rebuild from the store), unfinished ones
    /// are re-enqueued in id order under their original tenant and
    /// priority, and new ids continue above every recovered one. All
    /// failure modes surface before the daemon reports ready.
    ///
    /// # Errors
    ///
    /// Reports zero lanes or workers (such a daemon would wait forever
    /// on its first miss), an unbindable address, an uncreatable state
    /// dir, a state dir another daemon is already serving, or an
    /// unreadable/unwritable journal.
    pub fn bind(
        addr: impl ToSocketAddrs + std::fmt::Debug,
        config: ServeConfig,
    ) -> Result<Server, String> {
        if config.lanes == 0 || config.workers == 0 {
            return Err(format!(
                "a daemon needs at least one lane and one local worker per lane, got {} lane(s) \
                 and {} worker(s)",
                config.lanes, config.workers
            ));
        }
        let daemon_lock = acquire_daemon_lock(&config.state_dir)?;
        // Orchestrator::new opens (creating if needed) the campaign
        // store, so an uncreatable state dir surfaces here.
        let orch = Orchestrator::new(&config.state_dir).map(|orch| Orchestrator {
            seed: config.seed,
            ..orch
        })?;
        // The fleet admits only workers whose machine fingerprint
        // matches the orchestrator's — the precondition for worker
        // shard documents merging byte-identically.
        let fleet = Fleet::new(
            orch.machine.fingerprint(),
            config.heartbeat_timeout,
            config.assignment_requeues,
            config.assignment_timeout,
        );
        let local_token = local::write_token(&config.state_dir)?;
        let (journal, replay) = Journal::open(&config.state_dir)?;
        let listener =
            TcpListener::bind(&addr).map_err(|e| format!("cannot bind {addr:?}: {e}"))?;
        let limiter = (config.rate_limit > 0).then(|| {
            let burst = if config.rate_burst > 0 {
                config.rate_burst
            } else {
                config.rate_limit * 2
            };
            RateLimiter::new(config.rate_limit, burst)
        });
        let state = ServerState {
            config,
            jobs: JobTable::new(),
            queue: JobQueue::new(),
            orch,
            fleet,
            local_token,
            limiter,
            journal: Mutex::new(journal),
            recovered: Recovered {
                corrupt: replay.corrupt.len() as u64,
                ..Recovered::default()
            },
            counters: Counters::default(),
            drained: AtomicBool::new(false),
            daemon_lock: Mutex::new(Some(daemon_lock)),
            live: Mutex::new(HashMap::new()),
            next_connection: AtomicU64::new(0),
        };
        let mut state = state;
        for job in replay.jobs {
            let units = job.spec.units.len();
            let (status, replayed, executed, store_errors) = match &job.outcome {
                Some(JournalOutcome::Done {
                    replayed,
                    executed,
                    store_errors,
                }) => (JobStatus::Done, *replayed, *executed, *store_errors),
                Some(JournalOutcome::Failed(msg)) => (JobStatus::Failed(msg.clone()), 0, 0, 0),
                None => (JobStatus::Queued, 0, 0, 0),
            };
            let failed_units = if status == JobStatus::Done {
                units.saturating_sub(replayed + executed)
            } else {
                0
            };
            let requeue = status == JobStatus::Queued;
            state.jobs.restore(
                job.id,
                Arc::new(job.spec),
                status,
                replayed,
                executed,
                store_errors,
                &job.tenant,
                job.priority,
                job.deadline_ms,
                failed_units,
            );
            if requeue {
                // The daemon queue is unbounded, so a recovered job can
                // never be shed here — acknowledged work survives
                // restart regardless of the admission bound.
                state.queue.push_for(&job.tenant, job.priority, job.id);
                state.recovered.queued += 1;
            } else {
                state.recovered.finished += 1;
            }
        }
        state.jobs.reserve_ids(replay.max_id);
        Ok(Server {
            listener,
            state: Arc::new(state),
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    ///
    /// # Errors
    ///
    /// Reports a socket whose address cannot be read back.
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))
    }

    /// Shared state (metrics, direct job inspection in tests).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Serves until shut down: starts the local workers and the
    /// scheduler lanes, then accepts connections, one handler thread
    /// each. After [`ServeHandle::stop`] the lanes drain every accepted
    /// job on the still-running workers, whose connections the accept
    /// loop keeps serving until the last lane exits.
    ///
    /// # Errors
    ///
    /// Reports a worker binary that cannot be spawned and lane or
    /// accept-loop setup failures.
    pub fn run(self) -> Result<(), String> {
        let addr = self.local_addr()?;
        let config = &self.state.config;
        let supervisor = supervise(Arc::clone(&self.state), &config.worker_binary, addr)?;
        // Each local worker holds two keep-alive connections (its polls
        // and its heartbeats) on top of the clients' cap.
        let cap = config.max_connections + 2 * config.lanes * config.workers;
        let mut lanes = Vec::with_capacity(config.lanes);
        for lane in 0..config.lanes {
            let state = Arc::clone(&self.state);
            let thread = std::thread::Builder::new()
                .name(format!("nfi-serve-lane-{lane}"))
                .spawn(move || scheduler_loop(&state))
                .map_err(|e| format!("cannot start scheduler lane {lane}: {e}"))?;
            lanes.push(thread);
        }
        // Once the last lane has drained, wake the accept loop to exit.
        let drain = {
            let state = Arc::clone(&self.state);
            std::thread::Builder::new()
                .name("nfi-serve-drain".into())
                .spawn(move || {
                    for lane in lanes {
                        let _ = lane.join();
                    }
                    state.drained.store(true, Ordering::SeqCst);
                    let _ = TcpStream::connect(addr);
                })
                .map_err(|e| format!("cannot start the drain thread: {e}"))?
        };
        for stream in self.listener.incoming() {
            if self.state.drained.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else {
                // Accept failures (EMFILE under fd pressure, transient
                // resets) repeat instantly; back off instead of
                // busy-spinning the 1-core host.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            };
            let state = Arc::clone(&self.state);
            if state.counters.connections.fetch_add(1, Ordering::SeqCst) >= cap {
                state
                    .counters
                    .connections_shed
                    .fetch_add(1, Ordering::Relaxed);
                let mut stream = stream;
                let _ = stream.set_write_timeout(Some(state.config.request_timeout));
                let _ = http::Response::shed(503, "connection limit reached", 1)
                    .write_to(&mut stream, false);
                state.counters.connections.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            // Registered before the thread starts, so a stop that joins
            // this loop sees every connection it accepted.
            let id = state.next_connection.fetch_add(1, Ordering::Relaxed);
            if let Ok(socket) = stream.try_clone() {
                state.live().insert(id, socket);
            }
            let spawned = std::thread::Builder::new()
                .name("nfi-serve-conn".into())
                .spawn(move || {
                    handle_connection(&state, stream);
                    state.live().remove(&id);
                    state.counters.connections.fetch_sub(1, Ordering::SeqCst);
                });
            if spawned.is_err() {
                self.state.live().remove(&id);
                self.state
                    .counters
                    .connections
                    .fetch_sub(1, Ordering::SeqCst);
            }
        }
        // Drained: the workers go, and idle polls end.
        let _ = drain.join();
        let (stop, thread) = supervisor;
        drop(stop);
        let _ = thread.join();
        self.state.fleet.stop();
        Ok(())
    }

    /// Runs the daemon on a background thread, returning a handle to
    /// its address and state (tests and benches).
    ///
    /// # Errors
    ///
    /// Reports the same setup failures as [`Server::run`].
    pub fn spawn(self) -> Result<ServeHandle, String> {
        let addr = self.local_addr()?;
        let state = self.state();
        let thread = std::thread::Builder::new()
            .name("nfi-serve-accept".into())
            .spawn(move || self.run())
            .map_err(|e| format!("cannot start server thread: {e}"))?;
        Ok(ServeHandle {
            addr,
            state,
            thread: Some(thread),
        })
    }
}

/// A running background daemon ([`Server::spawn`]).
pub struct ServeHandle {
    /// The bound address.
    pub addr: SocketAddr,
    state: Arc<ServerState>,
    thread: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl ServeHandle {
    /// Shared state.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stops the daemon: the queue takes no new jobs and drains its
    /// accepted ones across the lanes, the accept loop exits once they
    /// are done, the serving thread is joined (the local workers are
    /// killed and reaped by then), open connections are closed and
    /// their threads finish, and `serve.lock` is released — so a new
    /// daemon can bind the same state dir as soon as this returns.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.state.queue.shutdown();
        let _ = thread.join();
        // Connection threads hold the state (and so the lock file) until
        // they exit; an idle keep-alive one would wait out its read
        // deadline. Close every socket, wait for the threads, then
        // release the lock.
        for socket in self.state.live().values() {
            let _ = socket.shutdown(std::net::Shutdown::Both);
        }
        while self.state.counters.connections.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.state
            .daemon_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the local workers and the thread that supervises them until
/// the returned sender is dropped; the thread's exit kills them.
fn supervise(
    state: Arc<ServerState>,
    binary: &Path,
    addr: SocketAddr,
) -> Result<(mpsc::Sender<()>, std::thread::JoinHandle<()>), String> {
    let count = state.config.lanes * state.config.workers;
    let mut workers = local::LocalWorkers::start(binary, addr, &state.config.state_dir, count)?;
    let (stop, stopped) = mpsc::channel::<()>();
    let thread = std::thread::Builder::new()
        .name("nfi-serve-supervisor".into())
        .spawn(move || {
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(local::CHECK) {
                workers.check(&state.fleet);
            }
        })
        .map_err(|e| format!("cannot start the worker supervisor: {e}"))?;
    Ok((stop, thread))
}

/// Takes the exclusive daemon `flock` on `<state_dir>/serve.lock`.
/// The journal and the local worker secret have exactly one owner, so
/// a second daemon on the same state dir is refused at bind instead of
/// silently re-running the first daemon's queued jobs and compacting
/// its journal records away. Offline `campaign run`s are unaffected —
/// they touch neither resource and meet the daemon at the store's
/// segment locks.
///
/// # Errors
///
/// Reports a state dir another daemon is already serving, an
/// uncreatable/unwritable lock file, or a filesystem without `flock`
/// support. Unlike the best-effort segment-lock file level, this does
/// **not** degrade to unguarded: an unprotected second daemon would
/// replace the first one's worker secret and rename its journal out
/// from under its append handle, losing acknowledged jobs.
fn acquire_daemon_lock(state_dir: &std::path::Path) -> Result<std::fs::File, String> {
    std::fs::create_dir_all(state_dir)
        .map_err(|e| format!("cannot create state dir {}: {e}", state_dir.display()))?;
    let path = state_dir.join("serve.lock");
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(&path)
        .map_err(|e| format!("cannot open daemon lock {}: {e}", path.display()))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(std::fs::TryLockError::WouldBlock) => Err(format!(
            "state dir {} is already being served by another daemon (serve.lock is held); \
             give the second daemon its own state dir",
            state_dir.display()
        )),
        Err(std::fs::TryLockError::Error(e)) => Err(format!(
            "cannot lock {} ({e}); the daemon requires a filesystem with flock support \
             for its state dir",
            path.display()
        )),
    }
}

/// One scheduler lane: pops job ids (tenant-fair, priority-ordered),
/// runs each through the fleet and the incremental store, records the
/// outcome. A job that out-waited its queue deadline fails here —
/// journaled before it shows, counted — instead of running late. Lanes
/// compete for the queue head; jobs on the same (program, machine-fp)
/// segment serialize inside the orchestrator's segment lock, which is
/// why N lanes preserve the serve-vs-offline byte-parity invariant.
fn scheduler_loop(state: &ServerState) {
    while let Some(id) = state.queue.pop() {
        let spec = match state.jobs.start_or_expire(id) {
            StartOutcome::Run(spec) => spec,
            StartOutcome::Expired(message) => {
                state
                    .counters
                    .deadline_expiries
                    .fetch_add(1, Ordering::Relaxed);
                state.record_failed(id, message);
                continue;
            }
            StartOutcome::Gone => continue,
        };
        let c = &state.counters;
        c.running.fetch_add(1, Ordering::Relaxed);
        // Observe the job's queue residency and make its trace current
        // for this lane, so the orchestrator's phase spans (and the
        // workers' echoed spans) land in the job's tree.
        let _ctx = state.jobs.get(id).map(|job| {
            let wait_us = job
                .accepted_at
                .elapsed()
                .as_micros()
                .min(u128::from(u64::MAX)) as u64;
            nfi_telemetry::registry()
                .histogram(families::QUEUE_WAIT, &[])
                .record_micros(wait_us);
            let trace = Arc::clone(&job.trace);
            trace.record(SpanRecord {
                id: trace.alloc_span(),
                parent: 0,
                name: "queue_wait".into(),
                start_us: trace.elapsed_us().saturating_sub(wait_us),
                dur_us: wait_us,
            });
            trace::push_context(trace, 0)
        });
        let run_span = Span::enter("run");
        let run = state.orch.run_spec_with(&spec, |spec, missing| {
            Ok(state.fleet.dispatch(id, spec, missing))
        });
        match run {
            Ok(run) => state.record_done(id, &run),
            Err(message) => state.record_failed(id, message),
        }
        drop(run_span);
        c.running.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Bounds how long one request may take to arrive in full (slowloris
/// guard). Re-armed at the top of every keep-alive iteration; each raw
/// read narrows the socket's read timeout to the time remaining, so a
/// client dripping one byte per poll still hits the same total
/// deadline as a silent one.
struct DeadlineReader {
    stream: TcpStream,
    budget: Duration,
    deadline: Instant,
    progressed: bool,
}

impl DeadlineReader {
    fn new(stream: TcpStream, budget: Duration) -> DeadlineReader {
        DeadlineReader {
            stream,
            budget,
            deadline: Instant::now() + budget,
            progressed: false,
        }
    }

    /// Starts a fresh request deadline.
    fn arm(&mut self) {
        self.deadline = Instant::now() + self.budget;
        self.progressed = false;
    }

    /// Whether any bytes arrived since the last [`Self::arm`] — a
    /// timeout with progress is a slowloris `408`; without, it is just
    /// an idle keep-alive connection to close silently.
    fn progressed(&self) -> bool {
        self.progressed
    }
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request read deadline exceeded",
            ));
        }
        self.stream.set_read_timeout(Some(remaining))?;
        let n = self.stream.read(buf)?;
        if n > 0 {
            self.progressed = true;
        }
        Ok(n)
    }
}

/// Serves one connection: read request (under the per-request
/// deadline), rate-limit, authenticate, route, respond, repeat until
/// the client closes, asks to close, errors, or times out.
fn handle_connection(state: &ServerState, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(state.config.request_timeout));
    let peer: Option<IpAddr> = stream.peer_addr().ok().map(|a| a.ip());
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = writer;
    let mut reader = BufReader::new(DeadlineReader::new(stream, state.config.request_timeout));
    loop {
        reader.get_mut().arm();
        match http::read_request(&mut reader, state.config.max_body) {
            Ok(request) => {
                let response = observe_request(state, &request, peer);
                let keep_alive = !request.wants_close() && !response.close;
                if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(error) => {
                let timed_out = matches!(
                    &error,
                    http::HttpError::Io(e) if matches!(
                        e.kind(),
                        // Unix sockets report an expired read timeout as
                        // WouldBlock; the deadline reader synthesizes
                        // TimedOut. Treat both as the deadline firing.
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                    )
                );
                if timed_out {
                    if reader.get_ref().progressed() {
                        // Mid-request stall: a slowloris (or genuinely
                        // glacial) client. Answer 408 and count it; an
                        // *idle* keep-alive timeout just closes.
                        state.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                        let _ = http::Response::error(408, "request read deadline exceeded")
                            .write_to(&mut writer, false);
                    }
                } else if let Some(response) = error.response() {
                    let _ = response.write_to(&mut writer, false);
                }
                return;
            }
        }
    }
}

/// The route-template label of a request path: bounded cardinality
/// (ids collapse to `:id`, unknown paths to `other`) so hostile paths
/// cannot grow the histogram registry without bound.
fn route_template(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/v1/metrics" => "/v1/metrics",
        "/v1/campaigns" => "/v1/campaigns",
        "/v1/workers" => "/v1/workers",
        p => {
            if let Some(rest) = p.strip_prefix("/v1/campaigns/") {
                return match rest.split_once('/') {
                    None => "/v1/campaigns/:id",
                    Some((_, "document")) => "/v1/campaigns/:id/document",
                    Some((_, "trace")) => "/v1/campaigns/:id/trace",
                    Some(_) => "/v1/campaigns/:id/*",
                };
            }
            if let Some(rest) = p.strip_prefix("/v1/workers/") {
                return match rest.split_once('/') {
                    Some((_, "heartbeat")) => "/v1/workers/:id/heartbeat",
                    Some((_, "poll")) => "/v1/workers/:id/poll",
                    Some((_, "result")) => "/v1/workers/:id/result",
                    _ => "/v1/workers/:id/*",
                };
            }
            "other"
        }
    }
}

/// The status-class label (`2xx`, `4xx`, ...) of a response code.
fn status_class(status: u16) -> &'static str {
    match status {
        100..=199 => "1xx",
        200..=299 => "2xx",
        300..=399 => "3xx",
        400..=499 => "4xx",
        _ => "5xx",
    }
}

/// Wraps the edge pipeline with the request's observability: a fresh
/// trace (which `POST /v1/campaigns` hands to the accepted job), the
/// per-(route, status class) duration histogram, and the access-log
/// line (debug level; bearer tokens never reach the logger — only the
/// resolved tenant name does).
fn observe_request(
    state: &ServerState,
    request: &http::Request,
    peer: Option<IpAddr>,
) -> http::Response {
    let started = Instant::now();
    let traced = nfi_telemetry::enabled().then(|| Trace::new(TraceId::mint()));
    let ctx = traced
        .as_ref()
        .map(|trace| trace::push_context(Arc::clone(trace), 0));
    let (response, tenant) = admit_and_route(state, request, peer);
    drop(ctx);
    let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    let route = route_template(&request.path);
    nfi_telemetry::registry()
        .histogram(
            families::HTTP,
            &[("route", route), ("status", status_class(response.status))],
        )
        .record_micros(micros);
    if nfi_telemetry::log::enabled_at(Level::Debug) {
        let trace_id = traced
            .as_ref()
            .map(|t| t.id().to_string())
            .unwrap_or_default();
        log(
            Level::Debug,
            "http_request",
            &[
                ("trace", &trace_id),
                ("tenant", &tenant),
                ("method", &request.method),
                ("route", route),
                ("status", &response.status.to_string()),
                ("dur_us", &micros.to_string()),
            ],
        );
    }
    response
}

/// The edge pipeline for one parsed request: per-client rate limit
/// (cheapest first), then authentication, then the router. Returns the
/// response plus the tenant the request resolved to (for the access
/// log; `""` covers both the anonymous tenant and rejected requests).
fn admit_and_route(
    state: &ServerState,
    request: &http::Request,
    peer: Option<IpAddr>,
) -> (http::Response, String) {
    // The daemon's own workers carry its per-daemon secret. They act as
    // the worker tenant and skip the per-client rate limit: they share
    // the loopback address with local clients, whose bucket their
    // polls must not drain.
    let authorization = request.header("authorization");
    let local = state.local_token.authenticate(authorization).is_some();
    if let (Some(limiter), Some(ip), false) = (&state.limiter, peer, local) {
        if let Admission::Shed { retry_after_secs } = limiter.allow(ip) {
            state.counters.rate_limited.fetch_add(1, Ordering::Relaxed);
            return (
                http::Response::shed(429, "rate limit exceeded for this client", retry_after_secs),
                String::new(),
            );
        }
    }
    let tenant = match &state.config.auth {
        _ if local => router::WORKER_TENANT.to_string(),
        None => String::new(),
        Some(tokens) => match tokens.authenticate(authorization) {
            Some(tenant) => tenant.to_string(),
            // The liveness probe stays open — load balancers and
            // operators need it before they have tokens. It leaks
            // nothing tenant-scoped.
            None if request.path == "/healthz" => String::new(),
            None => {
                state.counters.unauthorized.fetch_add(1, Ordering::Relaxed);
                return (
                    http::Response::error(
                        401,
                        "missing or invalid bearer token (Authorization: Bearer <token>)",
                    ),
                    String::new(),
                );
            }
        },
    };
    let response = router::handle(state, request, &tenant);
    (response, tenant)
}
