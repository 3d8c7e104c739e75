//! The campaign job table: every submission the daemon has accepted,
//! its lifecycle state, and its run counters.
//!
//! Jobs move `Queued → Running → Done | Failed`; the table is the one
//! shared structure the HTTP handlers (submit/status/document) and the
//! scheduler lanes all touch, so everything lives behind one mutex and
//! the lock is never held across planning or execution.
//!
//! The table holds **no documents**: a finished job keeps only its
//! counters and its planned spec (shared behind an `Arc`), and the
//! document endpoint rebuilds the bytes from the on-disk store segment
//! on demand. That keeps a long-running daemon's memory proportional
//! to its retained specs, makes restart recovery symmetric (a job
//! restored from the journal serves its document exactly like a job
//! finished five seconds ago), and cannot change a result — replayed
//! store lines are re-emitted verbatim.

use crate::queue::Priority;
use nfi_sfi::jsontext::escape;
use nfi_sfi::CampaignSpec;
use nfi_telemetry::{Trace, TraceId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Most finished (done/failed) jobs retained. Beyond this the oldest
/// finished jobs are dropped wholesale — their status and document
/// answer 404 afterwards — which bounds a long-running daemon's
/// memory; queued and running jobs are never dropped. Re-submitting a
/// dropped campaign is cheap: its outcomes still replay from the
/// on-disk store. The journal compacts to the same cap, so the table
/// and the on-disk record agree on what a restart restores.
pub const RETAINED_FINISHED_JOBS: usize = 256;

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

/// What a scheduler lane gets back when it claims a queued id.
#[derive(Debug)]
pub enum StartOutcome {
    /// The job flipped to `Running`; execute this spec.
    Run(Arc<CampaignSpec>),
    /// The job out-waited its deadline budget. It is still `Queued`:
    /// the caller fails it with this message through its one finish
    /// path (journal first, then the table) and counts the expiry.
    Expired(String),
    /// Unknown id or not `Queued` (each id is handed out once).
    Gone,
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
    /// Scheduling priority within the tenant's queue band.
    pub priority: Priority,
    /// Queue-residency budget in milliseconds from acceptance; a job
    /// still queued past it fails with a deadline expiry instead of
    /// running. `None` = no deadline. Restored jobs get a fresh budget
    /// from their restore time (wall-clock does not survive the
    /// journal).
    pub deadline_ms: Option<u64>,
    /// When the job entered (or re-entered, after a restart) the queue.
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
}

/// The shared job table.
#[derive(Default)]
pub struct JobTable {
    inner: Mutex<Table>,
}

#[derive(Default)]
struct Table {
    jobs: HashMap<u64, Job>,
    next_id: u64,
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
}

impl JobTable {
    /// An empty table.
    pub fn new() -> JobTable {
        JobTable::default()
    }

    /// Accepts a planned spec as a new queued job under a tenant with
    /// a priority and an optional queue-deadline budget, returning its
    /// id and the shared spec (the caller journals it).
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
        table.jobs.insert(
            id,
            Job {
                id,
                program: spec.program.clone(),
                units: spec.units.len(),
                replayed: 0,
                executed: 0,
                store_errors: 0,
                status: JobStatus::Queued,
                spec: Arc::clone(&spec),
                tenant: tenant.to_string(),
                priority,
                deadline_ms,
                accepted_at: Instant::now(),
                failed_units: 0,
                trace,
            },
        );
        (id, spec)
    }

    /// Restores a job recovered from the journal under its original
    /// id: finished jobs come back with their counters, unfinished
    /// ones come back `Queued` (the caller re-enqueues them). New ids
    /// continue above every restored one.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        &self,
        id: u64,
        spec: Arc<CampaignSpec>,
        status: JobStatus,
        replayed: usize,
        executed: usize,
        store_errors: usize,
        tenant: &str,
        priority: Priority,
        deadline_ms: Option<u64>,
        failed_units: usize,
    ) {
        let mut table = self.lock();
        table.next_id = table.next_id.max(id);
        table.jobs.insert(
            id,
            Job {
                id,
                program: spec.program.clone(),
                units: spec.units.len(),
                replayed,
                executed,
                store_errors,
                status,
                spec,
                tenant: tenant.to_string(),
                priority,
                deadline_ms,
                accepted_at: Instant::now(),
                failed_units,
                trace: Trace::new(TraceId::mint()),
            },
        );
        table.evict_finished();
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

    /// Marks the job running and hands its spec to a scheduler lane,
    /// unless its queue deadline already expired: then the job is left
    /// untouched and the lane gets the failure message instead. `Gone`
    /// unless the job is currently `Queued` — the queue hands each id
    /// out once, and a restart re-queues only jobs that replayed as
    /// unfinished.
    pub fn start_or_expire(&self, id: u64) -> StartOutcome {
        let mut table = self.lock();
        let Some(job) = table.jobs.get_mut(&id) else {
            return StartOutcome::Gone;
        };
        if job.status != JobStatus::Queued {
            return StartOutcome::Gone;
        }
        if let Some(budget) = job.deadline_ms {
            let waited = job.accepted_at.elapsed().as_millis() as u64;
            if waited > budget {
                return StartOutcome::Expired(format!(
                    "deadline expired: waited {waited}ms in queue against a {budget}ms budget"
                ));
            }
        }
        job.status = JobStatus::Running;
        StartOutcome::Run(Arc::clone(&job.spec))
    }

    /// Records a finished run. Units neither replayed nor executed were
    /// isolated past their requeue cap — they surface as `failed_units`.
    pub fn finish(&self, id: u64, replayed: usize, executed: usize, store_errors: usize) {
        let mut table = self.lock();
        if let Some(job) = table.jobs.get_mut(&id) {
            job.replayed = replayed;
            job.executed = executed;
            job.store_errors = store_errors;
            job.failed_units = job.units.saturating_sub(replayed + executed);
            job.status = JobStatus::Done;
        }
        table.evict_finished();
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

    /// Distinct program names a tenant has submitted jobs for
    /// (segment-quota accounting; the store is the durable source, the
    /// table covers jobs whose segments are not saved yet).
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

    /// Records a failed run.
    pub fn fail(&self, id: u64, message: String) {
        let mut table = self.lock();
        if let Some(job) = table.jobs.get_mut(&id) {
            job.status = JobStatus::Failed(message);
        }
        table.evict_finished();
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

    /// Starts a queued job, returning its spec (`None` when the table
    /// hands nothing out).
    fn start(table: &JobTable, id: u64) -> Option<Arc<CampaignSpec>> {
        match table.start_or_expire(id) {
            StartOutcome::Run(spec) => Some(spec),
            _ => None,
        }
    }

    #[test]
    fn jobs_progress_queued_running_done() {
        let table = JobTable::new();
        let (id, _) = submit(&table);
        assert_eq!(table.get(id).unwrap().status, JobStatus::Queued);
        let taken = start(&table, id).expect("spec available");
        assert_eq!(taken.program, "demo");
        assert_eq!(table.get(id).unwrap().status, JobStatus::Running);
        assert!(start(&table, id).is_none(), "a job starts once");
        table.finish(id, 3, 2, 0);
        let job = table.get(id).unwrap();
        assert_eq!(job.status, JobStatus::Done);
        assert_eq!((job.replayed, job.executed), (3, 2));
        assert_eq!(job.spec.program, "demo", "the spec outlives the run");
        assert!(start(&table, id).is_none(), "finished jobs don't restart");
    }

    #[test]
    fn ids_are_unique_and_unknown_ids_are_none() {
        let table = JobTable::new();
        let (a, _) = submit(&table);
        let (b, _) = submit(&table);
        assert_ne!(a, b);
        assert!(table.get(999).is_none());
        assert!(start(&table, 999).is_none());
    }

    #[test]
    fn restored_jobs_keep_their_ids_and_fence_new_ones() {
        let table = JobTable::new();
        let shared = Arc::new(spec());
        table.restore(
            7,
            Arc::clone(&shared),
            JobStatus::Done,
            4,
            0,
            0,
            "",
            Priority::Normal,
            None,
            0,
        );
        table.restore(
            9,
            Arc::clone(&shared),
            JobStatus::Queued,
            0,
            0,
            0,
            "",
            Priority::Normal,
            None,
            0,
        );
        table.reserve_ids(12);
        let done = table.get(7).unwrap();
        assert_eq!(done.status, JobStatus::Done);
        assert_eq!(done.replayed, 4);
        assert!(
            start(&table, 7).is_none(),
            "finished jobs are not restartable"
        );
        assert!(start(&table, 9).is_some(), "recovered queued jobs run");
        let (new_id, _) = submit(&table);
        assert_eq!(new_id, 13, "new ids continue above the journal's fence");
    }

    #[test]
    fn finished_jobs_beyond_the_retention_cap_are_dropped_oldest_first() {
        let table = JobTable::new();
        // One job stays running the whole time: never evicted.
        let (running, _) = submit(&table);
        start(&table, running);
        let mut finished_ids = Vec::new();
        for _ in 0..RETAINED_FINISHED_JOBS + 5 {
            let (id, _) = submit(&table);
            start(&table, id);
            table.finish(id, 0, 1, 0);
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
        table.fail(id, "boom \"quoted\"".to_string());
        let rendered = table.get(id).unwrap().render_status();
        assert!(rendered.contains("\"status\":\"failed\""));
        assert!(rendered.contains("boom \\\"quoted\\\""));
    }

    #[test]
    fn an_expired_deadline_is_reported_instead_of_starting_the_job() {
        let table = JobTable::new();
        let (id, _) = table.submit_for(spec(), "alice", Priority::High, Some(0));
        std::thread::sleep(std::time::Duration::from_millis(5));
        let message = match table.start_or_expire(id) {
            StartOutcome::Expired(message) => message,
            other => panic!("expected Expired, got {other:?}"),
        };
        assert!(message.contains("deadline expired"), "{message}");
        // The table shows nothing until the lane's finish path has
        // journaled the failure and flipped it.
        assert_eq!(table.get(id).unwrap().status, JobStatus::Queued);
        table.fail(id, message);
        let rendered = table.get(id).unwrap().render_status();
        assert!(rendered.contains("\"status\":\"failed\""), "{rendered}");
        assert!(rendered.contains("deadline expired"), "{rendered}");
        assert!(
            matches!(table.start_or_expire(id), StartOutcome::Gone),
            "an expired job is not restartable"
        );

        // Without a deadline the same flow just runs.
        let (ok, _) = table.submit_for(spec(), "alice", Priority::Normal, None);
        assert!(matches!(table.start_or_expire(ok), StartOutcome::Run(_)));
    }

    #[test]
    fn finish_derives_failed_units_from_uncovered_ones() {
        let table = JobTable::new();
        let (id, planned) = submit(&table);
        start(&table, id);
        let units = planned.units.len();
        assert!(units >= 2, "test needs a multi-unit spec");
        table.finish(id, 1, units - 2, 0);
        let job = table.get(id).unwrap();
        assert_eq!(job.failed_units, 1);
        assert!(job.render_status().contains("\"failed_units\":1"));
    }

    #[test]
    fn tenant_accounting_counts_active_jobs_and_distinct_programs() {
        let table = JobTable::new();
        let (a, _) = table.submit_for(spec(), "alice", Priority::Normal, None);
        let (_b, _) = table.submit_for(spec(), "alice", Priority::Normal, None);
        let (_c, _) = table.submit_for(spec(), "bob", Priority::Normal, None);
        assert_eq!(table.active_for_tenant("alice"), 2);
        assert_eq!(table.active_for_tenant("bob"), 1);
        assert_eq!(table.active_for_tenant(""), 0);
        start(&table, a);
        assert_eq!(table.active_for_tenant("alice"), 2, "running still counts");
        table.finish(a, 0, 0, 0);
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
}
