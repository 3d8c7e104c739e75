//! The campaign job table: every submission the daemon has accepted,
//! its lifecycle state, its run counters, and the line its queued jobs
//! wait in.
//!
//! Jobs move `Queued → Running → Done | Failed`; the table is the one
//! shared structure the HTTP handlers (submit/status/document) and the
//! scheduler lanes all touch, so everything lives behind one mutex and
//! the lock is never held across planning or execution.
//!
//! Queued jobs wait in a tenant-fair, priority-banded line. Each tenant
//! owns a band of three priority FIFOs; [`JobTable::next`] serves
//! tenants round-robin (one job per turn) so a tenant bursting a
//! thousand submissions cannot starve everyone else, and within a
//! tenant higher priorities drain first. With a single tenant (auth
//! disabled — everything lands under the `""` tenant at
//! [`Priority::Normal`]) the line is a plain FIFO. The line is
//! unbounded: the daemon's depth bound is an admission check before
//! the journal append ([`crate::ServerState::accept`]), so a job
//! recovered from the journal always goes back in line. Two jobs on the
//! same program may run on two lanes at once; store writers serialize
//! behind the per-(program, machine-fp) segment locks in
//! `nfi_core::store`.
//!
//! The table holds **no documents**: a finished job keeps only its
//! counters and its planned spec (shared behind an `Arc`), and the
//! document endpoint rebuilds the bytes from the on-disk store segment
//! on demand. That keeps a long-running daemon's memory proportional
//! to its retained specs, makes restart recovery symmetric (a job
//! restored from the journal serves its document exactly like a job
//! finished five seconds ago), and cannot change a result — replayed
//! store lines are re-emitted verbatim.

use crate::journal::{JournalOutcome, ReplayedJob};
use nfi_sfi::jsontext::escape;
use nfi_sfi::CampaignSpec;
use nfi_telemetry::{Trace, TraceId};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Most finished (done/failed) jobs retained. Beyond this the oldest
/// finished jobs are dropped wholesale — their status and document
/// answer 404 afterwards — which bounds a long-running daemon's
/// memory; queued and running jobs are never dropped. Re-submitting a
/// dropped campaign is cheap: its outcomes still replay from the
/// on-disk store. The journal compacts to the same cap, so the table
/// and the on-disk record agree on what a restart restores.
pub const RETAINED_FINISHED_JOBS: usize = 256;

/// Scheduling priority of one job within its tenant's band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Drains before everything else the tenant has queued.
    High,
    /// The default.
    #[default]
    Normal,
    /// Drains only when the tenant has nothing better queued.
    Low,
}

impl Priority {
    /// All priorities, drain order.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Stable API key of this priority.
    pub fn key(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses an API key back into a priority.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }

    fn band(&self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Lifecycle state of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a scheduler lane.
    Queued,
    /// A scheduler lane is executing it.
    Running,
    /// Finished; the document replays from the store.
    Done,
    /// Ended in an error (the diagnostic rides along).
    Failed(String),
}

impl JobStatus {
    /// Stable API key of this state.
    pub fn key(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// What a scheduler lane gets from [`JobTable::next`].
#[derive(Debug)]
pub enum StartOutcome {
    /// The job flipped to `Running`; execute it (a snapshot taken as it
    /// flipped).
    Run(Job),
    /// The job with this id out-waited its deadline budget. It is still
    /// `Queued`: the caller fails it with this message through its one
    /// finish path (journal first, then the table) and counts the
    /// expiry.
    Expired(u64, String),
}

/// One accepted campaign job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Daemon-unique id (also the URL path component); ids keep
    /// counting up across restarts.
    pub id: u64,
    /// Program name from the spec.
    pub program: String,
    /// Units in the planned campaign.
    pub units: usize,
    /// Units replayed from the store (0 until finished).
    pub replayed: usize,
    /// Units executed by workers (0 until finished).
    pub executed: usize,
    /// Store-corruption warnings the run tolerated.
    pub store_errors: usize,
    /// Lifecycle state.
    pub status: JobStatus,
    /// The planned spec — retained for the job's whole lifetime (the
    /// scheduler executes it, the document endpoint replays it, journal
    /// compaction re-records it). Shared behind an `Arc` so snapshots
    /// never copy spec bytes under the table lock.
    pub spec: Arc<CampaignSpec>,
    /// Owning tenant (`""` when auth is disabled).
    pub tenant: String,
    /// Scheduling priority within the tenant's band of the line.
    pub priority: Priority,
    /// Queue-residency budget in milliseconds from acceptance; a job
    /// still queued past it fails with a deadline expiry instead of
    /// running. `None` = no deadline. Restored jobs get a fresh budget
    /// from their restore time (wall-clock does not survive the
    /// journal).
    pub deadline_ms: Option<u64>,
    /// When the job entered (or re-entered, after a restart) the line.
    pub accepted_at: Instant,
    /// Units the fleet isolated and left uncovered after every requeue
    /// (0 until finished).
    pub failed_units: usize,
    /// The job's span tree, filled as it moves accept → queue → lane →
    /// orchestrator phases. Jobs restored from the journal get a fresh
    /// empty trace — spans are in-memory observability, not durable
    /// state.
    pub trace: Arc<Trace>,
}

impl Job {
    /// A freshly accepted (or restored) job: queued, counters zero.
    fn queued(
        id: u64,
        spec: Arc<CampaignSpec>,
        tenant: String,
        priority: Priority,
        deadline_ms: Option<u64>,
        trace: Arc<Trace>,
    ) -> Job {
        Job {
            id,
            program: spec.program.clone(),
            units: spec.units.len(),
            replayed: 0,
            executed: 0,
            store_errors: 0,
            status: JobStatus::Queued,
            spec,
            tenant,
            priority,
            deadline_ms,
            accepted_at: Instant::now(),
            failed_units: 0,
            trace,
        }
    }

    /// Renders the status body of `GET /v1/campaigns/:id`.
    pub fn render_status(&self) -> String {
        let error = match &self.status {
            JobStatus::Failed(msg) => format!("\"{}\"", escape(msg)),
            _ => "null".to_string(),
        };
        format!(
            "{{\"id\":{},\"program\":\"{}\",\"status\":\"{}\",\"units\":{},\"replayed\":{},\"executed\":{},\"store_errors\":{},\"failed_units\":{},\"priority\":\"{}\",\"error\":{}}}",
            self.id,
            escape(&self.program),
            self.status.key(),
            self.units,
            self.replayed,
            self.executed,
            self.store_errors,
            self.failed_units,
            self.priority.key(),
            error,
        )
    }

    /// Flips a queued job to `Running`, unless its queue deadline
    /// already expired: then the job is left untouched and the lane
    /// gets the failure message instead.
    fn start_or_expire(&mut self) -> StartOutcome {
        if let Some(budget) = self.deadline_ms {
            let waited = self.accepted_at.elapsed().as_millis() as u64;
            if waited > budget {
                return StartOutcome::Expired(
                    self.id,
                    format!(
                        "deadline expired: waited {waited}ms in queue against a {budget}ms budget"
                    ),
                );
            }
        }
        self.status = JobStatus::Running;
        StartOutcome::Run(self.clone())
    }
}

/// The shared job table.
#[derive(Default)]
pub struct JobTable {
    inner: Mutex<Table>,
    /// Woken when a job joins the line or the table shuts down.
    ready: Condvar,
}

#[derive(Default)]
struct Table {
    jobs: HashMap<u64, Job>,
    next_id: u64,
    /// The line of queued ids: one band per tenant, in first-seen
    /// order; `cursor` rotates over this vec so draining is fair. Empty
    /// bands are retired on pop so the vec stays proportional to the
    /// tenants with queued jobs.
    line: Vec<TenantBand>,
    cursor: usize,
    /// Set by [`JobTable::shutdown`]: nothing joins the line after it.
    shutdown: bool,
}

struct TenantBand {
    tenant: String,
    /// One FIFO per priority, drain order.
    fifos: [VecDeque<u64>; 3],
}

impl Table {
    /// Drops the oldest finished jobs beyond
    /// [`RETAINED_FINISHED_JOBS`]; queued/running jobs are untouched.
    fn evict_finished(&mut self) {
        let mut finished: Vec<u64> = self
            .jobs
            .values()
            .filter(|j| matches!(j.status, JobStatus::Done | JobStatus::Failed(_)))
            .map(|j| j.id)
            .collect();
        if finished.len() <= RETAINED_FINISHED_JOBS {
            return;
        }
        finished.sort_unstable();
        for id in &finished[..finished.len() - RETAINED_FINISHED_JOBS] {
            self.jobs.remove(id);
        }
    }

    /// Records how a job ended. Units neither replayed nor executed
    /// were isolated past their requeue cap — they surface as
    /// `failed_units`.
    fn finish(&mut self, id: u64, outcome: &JournalOutcome) {
        if let Some(job) = self.jobs.get_mut(&id) {
            match outcome {
                JournalOutcome::Done {
                    replayed,
                    executed,
                    store_errors,
                } => {
                    job.replayed = *replayed;
                    job.executed = *executed;
                    job.store_errors = *store_errors;
                    job.failed_units = job.units.saturating_sub(replayed + executed);
                    job.status = JobStatus::Done;
                }
                JournalOutcome::Failed(message) => job.status = JobStatus::Failed(message.clone()),
            }
        }
        self.evict_finished();
    }

    /// Puts a queued job at the back of its tenant's band at its
    /// priority; `false` for an unknown or not-queued id, or once shut
    /// down.
    fn enqueue(&mut self, id: u64) -> bool {
        let Some(job) = self.jobs.get(&id) else {
            return false;
        };
        if self.shutdown || job.status != JobStatus::Queued {
            return false;
        }
        let band = job.priority.band();
        let at = match self.line.iter().position(|b| b.tenant == job.tenant) {
            Some(at) => at,
            None => {
                self.line.push(TenantBand {
                    tenant: job.tenant.clone(),
                    fifos: Default::default(),
                });
                self.line.len() - 1
            }
        };
        self.line[at].fifos[band].push_back(id);
        true
    }

    /// Pops the next id: tenants round-robin, one job per turn, highest
    /// priority first within a tenant.
    fn pop_fair(&mut self) -> Option<u64> {
        let n = self.line.len();
        for step in 0..n {
            let at = (self.cursor + step) % n;
            if let Some(id) = self.line[at].fifos.iter_mut().find_map(VecDeque::pop_front) {
                // Next turn starts after the tenant just served; a band
                // with nothing left leaves the line, and the next
                // tenant slides into its place.
                self.cursor = at + 1;
                if self.line[at].fifos.iter().all(VecDeque::is_empty) {
                    self.line.remove(at);
                    self.cursor = at;
                }
                if self.cursor >= self.line.len() {
                    self.cursor = 0;
                }
                return Some(id);
            }
        }
        None
    }
}

impl JobTable {
    /// An empty table.
    pub fn new() -> JobTable {
        JobTable::default()
    }

    /// Accepts a planned spec as a new queued job under a tenant with
    /// a priority and an optional queue-deadline budget, returning its
    /// id and the shared spec (the caller journals it, then puts it in
    /// line with [`Self::enqueue`]).
    pub fn submit_for(
        &self,
        spec: CampaignSpec,
        tenant: &str,
        priority: Priority,
        deadline_ms: Option<u64>,
    ) -> (u64, Arc<CampaignSpec>) {
        let spec = Arc::new(spec);
        // The submit handler pushes the request's trace before calling
        // in; adopting it here makes the access-log trace id, the job's
        // trace endpoint, and the workers' lease context one id.
        let trace = nfi_telemetry::trace::current_context()
            .map(|(trace, _)| trace)
            .unwrap_or_else(|| Trace::new(TraceId::mint()));
        let mut table = self.lock();
        table.next_id += 1;
        let id = table.next_id;
        let job = Job::queued(
            id,
            Arc::clone(&spec),
            tenant.to_string(),
            priority,
            deadline_ms,
            trace,
        );
        table.jobs.insert(id, job);
        (id, spec)
    }

    /// Puts an accepted job in line and wakes a lane. `false` when the
    /// table has shut down (the job stays `Queued`, out of line, for
    /// the caller to fail), and for an unknown or not-queued id — each
    /// job is handed out once.
    pub fn enqueue(&self, id: u64) -> bool {
        let queued = self.lock().enqueue(id);
        if queued {
            self.ready.notify_one();
        }
        queued
    }

    /// Restores a job recovered from the journal under its original
    /// id: a finished job comes back with its counters, an unfinished
    /// one comes back `Queued` and in line. The replay restores in id
    /// order, so each tenant's band keeps that order. New ids continue
    /// above every restored one. Returns whether the job went back in
    /// line.
    pub fn restore(&self, job: ReplayedJob) -> bool {
        let id = job.id;
        {
            let mut table = self.lock();
            table.next_id = table.next_id.max(id);
            let trace = Trace::new(TraceId::mint());
            let restored = Job::queued(
                id,
                Arc::new(job.spec),
                job.tenant,
                job.priority,
                job.deadline_ms,
                trace,
            );
            table.jobs.insert(id, restored);
            if let Some(outcome) = &job.outcome {
                table.finish(id, outcome);
                return false;
            }
        }
        self.enqueue(id)
    }

    /// Raises the id floor (journal replay saw `max_id` somewhere,
    /// even if the full record was lost) so a new job can never reuse
    /// an id an old client still holds.
    pub fn reserve_ids(&self, max_id: u64) {
        let mut table = self.lock();
        table.next_id = table.next_id.max(max_id);
    }

    /// Snapshot of one job (handlers render from the copy, outside the
    /// lock). Cheap by construction: the spec is an `Arc` bump.
    pub fn get(&self, id: u64) -> Option<Job> {
        self.lock().jobs.get(&id).cloned()
    }

    /// Blocks until a job leaves the line, then starts it or, when its
    /// queue deadline already expired, hands the lane the failure
    /// message instead — one critical section from pop to flip. `None`
    /// once the table has shut down and its line is empty, so a
    /// graceful shutdown finishes accepted work.
    pub fn next(&self) -> Option<StartOutcome> {
        let mut table = self.lock();
        loop {
            match table.pop_fair() {
                Some(id) => {
                    let job = table.jobs.get_mut(&id);
                    if let Some(job) = job.filter(|j| j.status == JobStatus::Queued) {
                        return Some(job.start_or_expire());
                    }
                }
                None if table.shutdown => return None,
                None => table = self.ready.wait(table).unwrap_or_else(|e| e.into_inner()),
            }
        }
    }

    /// Jobs waiting in line across every tenant.
    pub fn depth(&self) -> usize {
        let table = self.lock();
        table
            .line
            .iter()
            .flat_map(|b| &b.fifos)
            .map(VecDeque::len)
            .sum()
    }

    /// Takes no more jobs into the line and wakes every blocked
    /// [`Self::next`].
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.ready.notify_all();
    }

    /// Records how a job ended: done with its run counters, or failed
    /// with a diagnostic.
    pub fn finish(&self, id: u64, outcome: &JournalOutcome) {
        self.lock().finish(id, outcome);
    }

    /// Queued or running jobs currently charged to a tenant (quota
    /// accounting).
    pub fn active_for_tenant(&self, tenant: &str) -> usize {
        self.lock()
            .jobs
            .values()
            .filter(|j| {
                j.tenant == tenant && matches!(j.status, JobStatus::Queued | JobStatus::Running)
            })
            .count()
    }

    /// Distinct program names among a tenant's retained jobs — queued,
    /// running, and finished ones not yet evicted (the
    /// `--tenant-max-programs` quota; the store is not read).
    pub fn programs_for_tenant(&self, tenant: &str) -> Vec<String> {
        let table = self.lock();
        let mut programs: Vec<String> = table
            .jobs
            .values()
            .filter(|j| j.tenant == tenant)
            .map(|j| j.program.clone())
            .collect();
        programs.sort_unstable();
        programs.dedup();
        programs
    }

    /// Snapshot of every job in id order (journal compaction).
    pub fn all_jobs(&self) -> Vec<Job> {
        let table = self.lock();
        let mut jobs: Vec<Job> = table.jobs.values().cloned().collect();
        jobs.sort_unstable_by_key(|j| j.id);
        jobs
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Table> {
        // A poisoned table means a handler panicked mid-update; the
        // data is still a consistent map of jobs, so serving beats
        // taking the whole daemon down.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        let module =
            nfi_pylite::parse("def f():\n    return 1\ndef test_f():\n    assert f() == 1\n")
                .unwrap();
        let campaign = nfi_sfi::Campaign::full(&module);
        CampaignSpec::from_campaign("demo", &campaign, 7)
    }

    /// Submits under the anonymous tenant at normal priority with no
    /// deadline, as a daemon without auth does.
    fn submit(table: &JobTable) -> (u64, Arc<CampaignSpec>) {
        table.submit_for(spec(), "", Priority::Normal, None)
    }

    /// Submits a job for `tenant` at `priority` and puts it in line.
    fn queue(table: &JobTable, tenant: &str, priority: Priority) -> u64 {
        let (id, _) = table.submit_for(spec(), tenant, priority, None);
        assert!(table.enqueue(id));
        id
    }

    /// The job the next lane would start (the line must not be empty,
    /// or the table shut down).
    fn start(table: &JobTable) -> Option<Job> {
        match table.next() {
            Some(StartOutcome::Run(job)) => Some(job),
            Some(StartOutcome::Expired(id, message)) => panic!("job {id} expired: {message}"),
            None => None,
        }
    }

    /// The id of the job the next lane would start.
    fn next_id(table: &JobTable) -> Option<u64> {
        start(table).map(|job| job.id)
    }

    fn restored(id: u64, outcome: Option<JournalOutcome>) -> ReplayedJob {
        ReplayedJob {
            id,
            spec: spec(),
            outcome,
            tenant: String::new(),
            priority: Priority::Normal,
            deadline_ms: None,
        }
    }

    fn done(replayed: usize, executed: usize) -> JournalOutcome {
        JournalOutcome::Done {
            replayed,
            executed,
            store_errors: 0,
        }
    }

    #[test]
    fn jobs_progress_queued_running_done() {
        let table = JobTable::new();
        let (id, _) = submit(&table);
        assert_eq!(table.get(id).unwrap().status, JobStatus::Queued);
        assert!(table.enqueue(id));
        let taken = start(&table).expect("spec available");
        assert_eq!(taken.spec.program, "demo");
        assert_eq!(table.get(id).unwrap().status, JobStatus::Running);
        assert!(!table.enqueue(id), "a job starts once");
        table.finish(id, &done(3, 2));
        let job = table.get(id).unwrap();
        assert_eq!(job.status, JobStatus::Done);
        assert_eq!((job.replayed, job.executed), (3, 2));
        assert_eq!(job.spec.program, "demo", "the spec outlives the run");
        assert!(!table.enqueue(id), "finished jobs don't restart");
    }

    #[test]
    fn ids_are_unique_and_unknown_ids_are_none() {
        let table = JobTable::new();
        let (a, _) = submit(&table);
        let (b, _) = submit(&table);
        assert_ne!(a, b);
        assert!(table.get(999).is_none());
        assert!(!table.enqueue(999));
    }

    #[test]
    fn restored_jobs_keep_their_ids_and_fence_new_ones() {
        let table = JobTable::new();
        assert!(!table.restore(restored(7, Some(done(4, 0)))));
        assert!(
            table.restore(restored(9, None)),
            "unfinished jobs go in line"
        );
        table.reserve_ids(12);
        let done = table.get(7).unwrap();
        assert_eq!(done.status, JobStatus::Done);
        assert_eq!(done.replayed, 4);
        assert!(!table.enqueue(7), "finished jobs are not restartable");
        assert_eq!(table.depth(), 1);
        assert_eq!(next_id(&table), Some(9), "recovered queued jobs run");
        let (new_id, _) = submit(&table);
        assert_eq!(new_id, 13, "new ids continue above the journal's fence");
    }

    #[test]
    fn finished_jobs_beyond_the_retention_cap_are_dropped_oldest_first() {
        let table = JobTable::new();
        // One job stays running the whole time: never evicted.
        let running = queue(&table, "", Priority::Normal);
        start(&table);
        let mut finished_ids = Vec::new();
        for _ in 0..RETAINED_FINISHED_JOBS + 5 {
            let id = queue(&table, "", Priority::Normal);
            start(&table);
            table.finish(id, &done(0, 1));
            finished_ids.push(id);
        }
        for dropped in &finished_ids[..5] {
            assert!(
                table.get(*dropped).is_none(),
                "job {dropped} should be gone"
            );
        }
        for kept in &finished_ids[5..] {
            assert!(table.get(*kept).is_some(), "job {kept} should be retained");
        }
        assert_eq!(
            table.get(running).unwrap().status,
            JobStatus::Running,
            "running jobs are never evicted"
        );
    }

    #[test]
    fn status_renders_error_only_when_failed() {
        let table = JobTable::new();
        let (id, _) = submit(&table);
        assert!(table
            .get(id)
            .unwrap()
            .render_status()
            .contains("\"error\":null"));
        table.finish(id, &JournalOutcome::Failed("boom \"quoted\"".to_string()));
        let rendered = table.get(id).unwrap().render_status();
        assert!(rendered.contains("\"status\":\"failed\""));
        assert!(rendered.contains("boom \\\"quoted\\\""));
    }

    #[test]
    fn an_expired_deadline_is_reported_instead_of_starting_the_job() {
        let table = JobTable::new();
        let (id, _) = table.submit_for(spec(), "alice", Priority::High, Some(0));
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(table.enqueue(id));
        let message = match table.next() {
            Some(StartOutcome::Expired(expired, message)) => {
                assert_eq!(expired, id);
                message
            }
            other => panic!("expected Expired, got {other:?}"),
        };
        assert!(message.contains("deadline expired"), "{message}");
        // The table shows nothing until the lane's finish path has
        // journaled the failure and flipped it.
        assert_eq!(table.get(id).unwrap().status, JobStatus::Queued);
        table.finish(id, &JournalOutcome::Failed(message));
        let rendered = table.get(id).unwrap().render_status();
        assert!(rendered.contains("\"status\":\"failed\""), "{rendered}");
        assert!(rendered.contains("deadline expired"), "{rendered}");
        assert!(!table.enqueue(id), "an expired job is not restartable");

        // Without a deadline the same flow just runs.
        let ok = queue(&table, "alice", Priority::Normal);
        assert_eq!(next_id(&table), Some(ok));
    }

    #[test]
    fn finish_derives_failed_units_from_uncovered_ones() {
        let table = JobTable::new();
        let (id, planned) = submit(&table);
        table.enqueue(id);
        start(&table);
        let units = planned.units.len();
        assert!(units >= 2, "test needs a multi-unit spec");
        table.finish(id, &done(1, units - 2));
        let job = table.get(id).unwrap();
        assert_eq!(job.failed_units, 1);
        assert!(job.render_status().contains("\"failed_units\":1"));
    }

    #[test]
    fn tenant_accounting_counts_active_jobs_and_distinct_programs() {
        let table = JobTable::new();
        let a = queue(&table, "alice", Priority::Normal);
        let (_b, _) = table.submit_for(spec(), "alice", Priority::Normal, None);
        let (_c, _) = table.submit_for(spec(), "bob", Priority::Normal, None);
        assert_eq!(table.active_for_tenant("alice"), 2);
        assert_eq!(table.active_for_tenant("bob"), 1);
        assert_eq!(table.active_for_tenant(""), 0);
        assert_eq!(next_id(&table), Some(a));
        assert_eq!(table.active_for_tenant("alice"), 2, "running still counts");
        table.finish(a, &done(0, 0));
        assert_eq!(table.active_for_tenant("alice"), 1, "finished does not");
        assert_eq!(
            table.programs_for_tenant("alice"),
            vec!["demo".to_string()],
            "duplicate program names dedupe"
        );
    }

    #[test]
    fn all_jobs_snapshots_in_id_order() {
        let table = JobTable::new();
        for _ in 0..3 {
            submit(&table);
        }
        let ids: Vec<u64> = table.all_jobs().iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_order_and_depth() {
        let table = JobTable::new();
        let first = queue(&table, "", Priority::Normal);
        let second = queue(&table, "", Priority::Normal);
        assert_eq!(table.depth(), 2);
        assert_eq!(next_id(&table), Some(first));
        assert_eq!(next_id(&table), Some(second));
        assert_eq!(table.depth(), 0);
    }

    #[test]
    fn next_blocks_until_a_job_is_enqueued() {
        let table = Arc::new(JobTable::new());
        let lane = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || next_id(&table))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        let id = queue(&table, "", Priority::Normal);
        assert_eq!(lane.join().unwrap(), Some(id));
    }

    #[test]
    fn shutdown_drains_the_line_then_reports_none() {
        let table = JobTable::new();
        let first = queue(&table, "", Priority::Normal);
        table.shutdown();
        let (late, _) = submit(&table);
        assert!(
            !table.enqueue(late),
            "nothing joins the line after shutdown"
        );
        assert_eq!(next_id(&table), Some(first), "queued work drains first");
        assert_eq!(next_id(&table), None);
    }

    #[test]
    fn shutdown_wakes_a_blocked_next() {
        let table = Arc::new(JobTable::new());
        let lane = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || next_id(&table))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        table.shutdown();
        assert_eq!(lane.join().unwrap(), None);
    }

    #[test]
    fn tenants_drain_round_robin_one_job_per_turn() {
        let table = JobTable::new();
        // Tenant "hog" floods first; "small" submits two jobs late.
        let hog: Vec<u64> = (0..4)
            .map(|_| queue(&table, "hog", Priority::Normal))
            .collect();
        let small: Vec<u64> = (0..2)
            .map(|_| queue(&table, "small", Priority::Normal))
            .collect();
        let order: Vec<u64> = (0..6).map(|_| next_id(&table).unwrap()).collect();
        assert_eq!(
            order,
            vec![hog[0], small[0], hog[1], small[1], hog[2], hog[3]],
            "the small tenant interleaves instead of waiting out the flood"
        );
    }

    #[test]
    fn priorities_drain_high_before_normal_before_low_within_a_tenant() {
        let table = JobTable::new();
        let low = queue(&table, "t", Priority::Low);
        let normal = queue(&table, "t", Priority::Normal);
        let high = queue(&table, "t", Priority::High);
        let high2 = queue(&table, "t", Priority::High);
        let order: Vec<u64> = (0..4).map(|_| next_id(&table).unwrap()).collect();
        assert_eq!(order, vec![high, high2, normal, low]);
    }

    #[test]
    fn depth_counts_every_tenant_band() {
        let table = JobTable::new();
        queue(&table, "a", Priority::Normal);
        let a_high = queue(&table, "a", Priority::High);
        let b = queue(&table, "b", Priority::Normal);
        assert_eq!(table.depth(), 3);
        assert_eq!(next_id(&table), Some(a_high), "tenant a's high job first");
        assert_eq!(table.depth(), 2);
        assert_eq!(next_id(&table), Some(b), "then tenant b's turn");
        assert_eq!(table.depth(), 1);
    }

    #[test]
    fn priority_keys_round_trip() {
        for p in Priority::ALL {
            assert_eq!(Priority::parse(p.key()), Some(p));
        }
        assert_eq!(Priority::parse("urgent"), None);
    }
}
