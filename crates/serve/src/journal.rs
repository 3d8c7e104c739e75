//! The crash-safe job journal: every job the daemon accepts and every
//! job it finishes is appended to `<state_dir>/journal.jsonl`, and a
//! restarting daemon replays the file so accepted work survives a
//! SIGTERM, a crash, or a power cycle of the host.
//!
//! ```text
//! {"kind":"accepted","id":3,"spec":"<escaped campaign_spec JSONL>"}
//! {"kind":"accepted","id":4,"spec":"...","tenant":"alice","priority":"high","deadline_ms":5000}
//! {"kind":"finished","id":3,"status":"done","replayed":0,"executed":44,"store_errors":0}
//! {"kind":"finished","id":5,"status":"failed","error":"..."}
//! {"kind":"fence","max_id":9}
//! ```
//!
//! The tenant/priority/deadline fields on `accepted` records are
//! **optional**: a journal written before they existed replays exactly
//! as it used to (anonymous tenant, normal priority, no deadline), and
//! a default-valued job omits them so open-daemon journals are
//! byte-identical to the old format.
//!
//! Ordering is what makes the journal honest:
//!
//! * the `accepted` record is appended (and synced) **before** the
//!   submit response goes out — a job the client was told about is a
//!   job the journal knows about;
//! * the `finished` record is appended **before** the job table shows
//!   `done` — a status poll that saw `done` implies the journal will
//!   restore the job as finished after a restart.
//!
//! Replay is tolerant the same way the campaign store is: a truncated
//! or corrupt line (a crash mid-append, an editor accident) is skipped
//! and counted, never trusted. Losing a `finished` record merely
//! re-queues the job — it re-runs against the store, replays warm, and
//! produces the byte-identical document; losing an `accepted` record
//! drops that job (its spec is gone, and its client never got a 202,
//! or can simply resubmit). Corruption can cost work, never change a
//! result.
//!
//! The same at-least-once posture extends to the distributed tier: a
//! job restored as accepted may re-dispatch units that a remote
//! `nfi worker` already executed before the crash (its in-flight
//! results died with the old fleet registry). That is safe for the
//! same reason replay is safe — store keys are deterministic functions
//! of the unit (program, fingerprints, anchor, seed), so re-executing
//! a unit writes the byte-identical outcome line under the same key,
//! and the merged document cannot depend on how many times any unit
//! ran, or where.
//!
//! The file is compacted at startup (finished jobs beyond the table's
//! retention cap fall out) and again whenever
//! [`COMPACT_APPEND_THRESHOLD`] records have accumulated since the
//! last compaction, so a long-running daemon's journal stays
//! proportional to its retained job table, not its lifetime.

use crate::jobs::{Job, JobStatus, Priority, RETAINED_FINISHED_JOBS};
use nfi_sfi::jsontext::{
    escape, get_opt_str, get_opt_u64, get_str, get_u64, get_usize, parse_flat_object, JsonValue,
};
use nfi_sfi::CampaignSpec;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Appended records between compactions before the journal is
/// rewritten from the live job table.
pub const COMPACT_APPEND_THRESHOLD: u64 = 2048;

/// How a journaled job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOutcome {
    /// Finished successfully with these run counters.
    Done {
        /// Units replayed from the store.
        replayed: usize,
        /// Units executed by workers.
        executed: usize,
        /// Store-corruption warnings the run tolerated.
        store_errors: usize,
    },
    /// Ended in an error.
    Failed(String),
}

/// One job reconstructed by the startup replay.
#[derive(Debug)]
pub struct ReplayedJob {
    /// The job id (ids keep counting up across restarts).
    pub id: u64,
    /// The planned spec, decoded from the `accepted` record.
    pub spec: CampaignSpec,
    /// `Some` when a `finished` record matched; `None` means the job
    /// never finished and must be re-enqueued.
    pub outcome: Option<JournalOutcome>,
    /// Owning tenant (`""` for records without the field).
    pub tenant: String,
    /// Scheduling priority (`Normal` for records without the field).
    pub priority: Priority,
    /// Queue-deadline budget in milliseconds, if the job had one. A
    /// re-queued job's budget restarts at restore time.
    pub deadline_ms: Option<u64>,
}

/// Everything a startup replay learned from the journal file.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Replayed jobs in id order (finished jobs beyond the retention
    /// cap already dropped).
    pub jobs: Vec<ReplayedJob>,
    /// Diagnostics for skipped lines, one per corruption.
    pub corrupt: Vec<String>,
    /// Highest job id seen in *any* parseable record — new ids must
    /// start above it even when the matching `accepted` line was lost.
    pub max_id: u64,
}

/// The append side of the journal (the replay side is
/// [`Journal::open`]'s other return value).
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
    /// Highest job id ever journaled (appends and replay alike) — new
    /// ids must stay above it, and compaction re-records it when the
    /// jobs carrying it have been dropped.
    fence: u64,
    appended: u64,
    appended_since_compact: u64,
    compactions: u64,
}

impl Journal {
    /// Path of the journal inside `state_dir`.
    pub fn path_in(state_dir: impl AsRef<Path>) -> PathBuf {
        state_dir.as_ref().join("journal.jsonl")
    }

    /// Opens the journal under `state_dir`: replays the existing file
    /// (missing is simply empty), compacts it, and returns the append
    /// handle plus everything the replay recovered.
    ///
    /// # Errors
    ///
    /// Reports an unreadable or unwritable journal file. Corrupt
    /// *content* is never an error — it is skipped and reported in
    /// [`JournalReplay::corrupt`].
    pub fn open(state_dir: impl AsRef<Path>) -> Result<(Journal, JournalReplay), String> {
        let path = Journal::path_in(&state_dir);
        std::fs::create_dir_all(state_dir.as_ref())
            .map_err(|e| format!("cannot create {}: {e}", state_dir.as_ref().display()))?;
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
        };
        let mut replay = parse_journal(&text);

        // Compact: drop finished jobs beyond what the job table would
        // retain anyway, then rewrite the file to exactly the records
        // the replay trusts (corruption and evicted jobs fall out).
        let finished = replay.jobs.iter().filter(|j| j.outcome.is_some()).count();
        if finished > RETAINED_FINISHED_JOBS {
            let mut to_drop = finished - RETAINED_FINISHED_JOBS;
            replay.jobs.retain(|j| {
                if to_drop > 0 && j.outcome.is_some() {
                    to_drop -= 1;
                    return false;
                }
                true
            });
        }
        let mut compacted = String::new();
        // The id fence must survive compaction even when its evidence
        // (an evicted job, a corrupt record whose id still parsed)
        // does not — otherwise a restart after the rewrite could hand
        // a retired id to a new job while an old client still polls it.
        let top = replay.jobs.iter().map(|j| j.id).max().unwrap_or(0);
        if let Some(line) = fence_line(replay.max_id, top) {
            compacted.push_str(&line);
        }
        for job in &replay.jobs {
            compacted.push_str(&accepted_line(
                job.id,
                &job.spec,
                &job.tenant,
                job.priority,
                job.deadline_ms,
            ));
            if let Some(outcome) = &job.outcome {
                compacted.push_str(&finished_line(job.id, outcome));
            }
        }
        let rewrite = compacted != text;
        if rewrite {
            write_replace(&path, &compacted)?;
        }
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        Ok((
            Journal {
                path,
                file,
                fence: replay.max_id,
                appended: 0,
                appended_since_compact: 0,
                compactions: u64::from(rewrite),
            },
            replay,
        ))
    }

    /// Appends (and syncs) the `accepted` record of a new job. Called
    /// before the submit response goes out, so an acknowledged job is
    /// always recoverable.
    ///
    /// # Errors
    ///
    /// Reports the failed write — the caller must then fail the job
    /// instead of acknowledging it.
    pub fn record_accepted(
        &mut self,
        id: u64,
        spec: &CampaignSpec,
        tenant: &str,
        priority: Priority,
        deadline_ms: Option<u64>,
    ) -> Result<(), String> {
        self.fence = self.fence.max(id);
        self.append(&accepted_line(id, spec, tenant, priority, deadline_ms))
    }

    /// Appends (and syncs) the `finished` record of a job. Called
    /// before the job table flips to done/failed, so a poll-visible
    /// outcome is always recoverable.
    ///
    /// # Errors
    ///
    /// Reports the failed write; the job record then replays as
    /// still-queued after a restart (it re-runs warm from the store).
    pub fn record_finished(&mut self, id: u64, outcome: &JournalOutcome) -> Result<(), String> {
        self.fence = self.fence.max(id);
        self.append(&finished_line(id, outcome))
    }

    /// Whether enough appends have accumulated that the caller should
    /// [`Self::compact`] with a snapshot of its job table.
    pub fn wants_compaction(&self) -> bool {
        self.appended_since_compact >= COMPACT_APPEND_THRESHOLD
    }

    /// Rewrites the journal to exactly `jobs` (the live job table —
    /// evicted jobs fall out). Failures leave the previous journal in
    /// place, which is always safe: it only holds *more* history.
    ///
    /// # Errors
    ///
    /// Reports the failed rewrite.
    pub fn compact(&mut self, jobs: &[Job]) -> Result<(), String> {
        let mut doc = String::new();
        let top = jobs.iter().map(|j| j.id).max().unwrap_or(0);
        if let Some(line) = fence_line(self.fence, top) {
            doc.push_str(&line);
        }
        for job in jobs {
            doc.push_str(&accepted_line(
                job.id,
                &job.spec,
                &job.tenant,
                job.priority,
                job.deadline_ms,
            ));
            let outcome = match &job.status {
                JobStatus::Done => Some(JournalOutcome::Done {
                    replayed: job.replayed,
                    executed: job.executed,
                    store_errors: job.store_errors,
                }),
                JobStatus::Failed(msg) => Some(JournalOutcome::Failed(msg.clone())),
                JobStatus::Queued | JobStatus::Running => None,
            };
            if let Some(outcome) = &outcome {
                doc.push_str(&finished_line(job.id, outcome));
            }
        }
        write_replace(&self.path, &doc)?;
        self.file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&self.path)
            .map_err(|e| format!("cannot reopen journal {}: {e}", self.path.display()))?;
        self.appended_since_compact = 0;
        self.compactions += 1;
        Ok(())
    }

    /// Records appended since startup.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Compactions performed since startup (including the one
    /// [`Self::open`] may have done).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    fn append(&mut self, line: &str) -> Result<(), String> {
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| format!("cannot append to journal {}: {e}", self.path.display()))?;
        self.appended += 1;
        self.appended_since_compact += 1;
        Ok(())
    }
}

/// The fence record compaction writes when the highest journaled id
/// is no longer carried by any retained job record: replay must keep
/// counting above it.
fn fence_line(fence: u64, top_job_id: u64) -> Option<String> {
    (fence > top_job_id).then(|| format!("{{\"kind\":\"fence\",\"max_id\":{fence}}}\n"))
}

fn accepted_line(
    id: u64,
    spec: &CampaignSpec,
    tenant: &str,
    priority: Priority,
    deadline_ms: Option<u64>,
) -> String {
    let mut line = format!(
        "{{\"kind\":\"accepted\",\"id\":{id},\"spec\":\"{}\"",
        escape(&spec.encode())
    );
    // Default-valued fields are omitted so journals from open daemons
    // stay byte-identical to the pre-tenancy format.
    if !tenant.is_empty() {
        line.push_str(&format!(",\"tenant\":\"{}\"", escape(tenant)));
    }
    if priority != Priority::Normal {
        line.push_str(&format!(",\"priority\":\"{}\"", priority.key()));
    }
    if let Some(budget) = deadline_ms {
        line.push_str(&format!(",\"deadline_ms\":{budget}"));
    }
    line.push_str("}\n");
    line
}

fn finished_line(id: u64, outcome: &JournalOutcome) -> String {
    match outcome {
        JournalOutcome::Done {
            replayed,
            executed,
            store_errors,
        } => format!(
            "{{\"kind\":\"finished\",\"id\":{id},\"status\":\"done\",\"replayed\":{replayed},\"executed\":{executed},\"store_errors\":{store_errors}}}\n",
        ),
        JournalOutcome::Failed(error) => format!(
            "{{\"kind\":\"finished\",\"id\":{id},\"status\":\"failed\",\"error\":\"{}\"}}\n",
            escape(error)
        ),
    }
}

/// Replaces `path` atomically and durably: write a temp file, sync its
/// data, rename it into place. The per-append `sync_data` guarantees
/// ("a 202'd job is always recoverable") would be worthless if a
/// compaction could be renamed over the journal with its data still in
/// the page cache when the host loses power.
fn write_replace(path: &Path, doc: &str) -> Result<(), String> {
    let tmp = path.with_extension("jsonl.tmp");
    let mut file =
        std::fs::File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    file.write_all(doc.as_bytes())
        .and_then(|()| file.sync_data())
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    drop(file);
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot move compacted journal into place: {e}"))
}

/// Replays journal text into jobs. Every undecodable or inconsistent
/// line is skipped with a diagnostic — replay can lose work to
/// corruption (it re-runs, warm, from the store) but can never invent
/// or alter an outcome.
fn parse_journal(text: &str) -> JournalReplay {
    let mut jobs: BTreeMap<u64, ReplayedJob> = BTreeMap::new();
    let mut replay = JournalReplay::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let report = |e: String| format!("journal line {}: {e}", i + 1);
        let fields = match parse_flat_object(line) {
            Ok(fields) => fields,
            Err(e) => {
                replay.corrupt.push(report(e));
                continue;
            }
        };
        // Any record with a parseable id fences the id counter, even
        // when the rest of the record is corrupt — a restarted daemon
        // must never hand a client's old id to a new job.
        if let Ok(id) = get_u64(&fields, "id") {
            replay.max_id = replay.max_id.max(id);
        }
        let kind = fields.get("kind").and_then(JsonValue::as_str).unwrap_or("");
        let result = match kind {
            "accepted" => replay_accepted(&fields, &mut jobs),
            "finished" => replay_finished(&fields, &mut jobs),
            "fence" => get_u64(&fields, "max_id").map(|id| {
                replay.max_id = replay.max_id.max(id);
            }),
            other => Err(format!("unknown record kind `{other}`")),
        };
        if let Err(e) = result {
            replay.corrupt.push(report(e));
        }
    }
    replay.jobs = jobs.into_values().collect();
    replay
}

fn replay_accepted(
    fields: &nfi_sfi::jsontext::JsonObject,
    jobs: &mut BTreeMap<u64, ReplayedJob>,
) -> Result<(), String> {
    let id = get_u64(fields, "id")?;
    let spec_text = get_str(fields, "spec")?;
    let spec = CampaignSpec::decode(&spec_text).map_err(|e| format!("job {id} spec: {e}"))?;
    if jobs.contains_key(&id) {
        return Err(format!("duplicate accepted record for job {id}"));
    }
    let tenant = get_opt_str(fields, "tenant")?.unwrap_or_default();
    let priority = match get_opt_str(fields, "priority")? {
        None => Priority::Normal,
        Some(key) => {
            Priority::parse(&key).ok_or_else(|| format!("job {id}: unknown priority `{key}`"))?
        }
    };
    let deadline_ms = get_opt_u64(fields, "deadline_ms")?;
    jobs.insert(
        id,
        ReplayedJob {
            id,
            spec,
            outcome: None,
            tenant,
            priority,
            deadline_ms,
        },
    );
    Ok(())
}

fn replay_finished(
    fields: &nfi_sfi::jsontext::JsonObject,
    jobs: &mut BTreeMap<u64, ReplayedJob>,
) -> Result<(), String> {
    let id = get_u64(fields, "id")?;
    let outcome = match get_str(fields, "status")?.as_str() {
        "done" => JournalOutcome::Done {
            replayed: get_usize(fields, "replayed")?,
            executed: get_usize(fields, "executed")?,
            store_errors: get_usize(fields, "store_errors")?,
        },
        "failed" => JournalOutcome::Failed(get_str(fields, "error")?),
        other => return Err(format!("job {id}: unknown finish status `{other}`")),
    };
    let job = jobs
        .get_mut(&id)
        .ok_or_else(|| format!("finished record for job {id} with no accepted record"))?;
    if job.outcome.is_some() {
        return Err(format!("duplicate finished record for job {id}"));
    }
    job.outcome = Some(outcome);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOURCE: &str = "\
def f():
    return 1
def test_f():
    assert f() == 1
";

    fn state_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nfi-journal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(program: &str) -> CampaignSpec {
        nfi_core::plan_campaign(program, SOURCE, 7).unwrap()
    }

    #[test]
    fn round_trips_accepted_and_finished_records() {
        let dir = state_dir("roundtrip");
        let (mut journal, replay) = Journal::open(&dir).unwrap();
        assert!(replay.jobs.is_empty());
        journal
            .record_accepted(1, &spec("alpha"), "", Priority::Normal, None)
            .unwrap();
        journal
            .record_finished(
                1,
                &JournalOutcome::Done {
                    replayed: 0,
                    executed: 4,
                    store_errors: 0,
                },
            )
            .unwrap();
        journal
            .record_accepted(2, &spec("beta"), "", Priority::Normal, None)
            .unwrap();
        journal
            .record_finished(2, &JournalOutcome::Failed("boom".to_string()))
            .unwrap();
        journal
            .record_accepted(3, &spec("gamma"), "", Priority::Normal, None)
            .unwrap();
        assert_eq!(journal.appended(), 5);
        drop(journal);

        let (_journal, replay) = Journal::open(&dir).unwrap();
        assert!(replay.corrupt.is_empty(), "{:?}", replay.corrupt);
        assert_eq!(replay.max_id, 3);
        assert_eq!(replay.jobs.len(), 3);
        assert_eq!(replay.jobs[0].spec.program, "alpha");
        assert_eq!(
            replay.jobs[0].outcome,
            Some(JournalOutcome::Done {
                replayed: 0,
                executed: 4,
                store_errors: 0,
            })
        );
        assert_eq!(
            replay.jobs[1].outcome,
            Some(JournalOutcome::Failed("boom".to_string()))
        );
        assert_eq!(replay.jobs[2].outcome, None, "job 3 must re-queue");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_trailing_accepted_line_is_skipped_not_trusted() {
        let dir = state_dir("truncated");
        let (mut journal, _) = Journal::open(&dir).unwrap();
        journal
            .record_accepted(1, &spec("alpha"), "", Priority::Normal, None)
            .unwrap();
        journal
            .record_accepted(2, &spec("beta"), "", Priority::Normal, None)
            .unwrap();
        drop(journal);
        // Chop the tail mid-record, as a crash mid-append would.
        let path = Journal::path_in(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 40]).unwrap();

        let (_journal, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.jobs.len(), 1, "only the intact record survives");
        assert_eq!(replay.jobs[0].spec.program, "alpha");
        assert_eq!(replay.corrupt.len(), 1, "{:?}", replay.corrupt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_finished_line_requeues_the_job_instead_of_inventing_an_outcome() {
        let dir = state_dir("refinish");
        let (mut journal, _) = Journal::open(&dir).unwrap();
        journal
            .record_accepted(1, &spec("alpha"), "", Priority::Normal, None)
            .unwrap();
        journal
            .record_finished(
                1,
                &JournalOutcome::Done {
                    replayed: 4,
                    executed: 0,
                    store_errors: 0,
                },
            )
            .unwrap();
        drop(journal);
        let path = Journal::path_in(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        // Garble the finished record only.
        let garbled = text.replace("\"status\":\"done\"", "\"status\":\"do");
        std::fs::write(&path, garbled).unwrap();

        let (_journal, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(
            replay.jobs[0].outcome, None,
            "a corrupt finish degrades to re-queue (re-plan), never a guessed outcome"
        );
        assert_eq!(replay.corrupt.len(), 1, "{:?}", replay.corrupt);
        assert_eq!(replay.max_id, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_finished_and_duplicate_records_are_corrupt() {
        let dir = state_dir("orphan");
        std::fs::create_dir_all(&dir).unwrap();
        let accepted = accepted_line(4, &spec("alpha"), "", Priority::Normal, None);
        let done = finished_line(
            4,
            &JournalOutcome::Done {
                replayed: 0,
                executed: 4,
                store_errors: 0,
            },
        );
        let orphan = finished_line(9, &JournalOutcome::Failed("gone".to_string()));
        std::fs::write(
            Journal::path_in(&dir),
            format!("{accepted}{accepted}{done}{done}{orphan}not json\n"),
        )
        .unwrap();
        let (_journal, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.jobs.len(), 1);
        assert!(replay.jobs[0].outcome.is_some());
        assert_eq!(replay.corrupt.len(), 4, "{:?}", replay.corrupt);
        assert_eq!(
            replay.max_id, 9,
            "ids from orphan finished records still fence new ids"
        );
        // The fence survives the open-time compaction that dropped the
        // orphan record itself: a second restart must not regress the
        // id floor and reuse id 9.
        let text = std::fs::read_to_string(Journal::path_in(&dir)).unwrap();
        assert!(
            text.contains("\"kind\":\"fence\",\"max_id\":9"),
            "compacted journal lost the fence: {text}"
        );
        let (_journal, again) = Journal::open(&dir).unwrap();
        assert_eq!(again.max_id, 9, "fence must persist across restarts");
        assert!(again.corrupt.is_empty(), "{:?}", again.corrupt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_priority_and_deadline_fields_round_trip() {
        let dir = state_dir("tenancy");
        let (mut journal, _) = Journal::open(&dir).unwrap();
        journal
            .record_accepted(1, &spec("alice:alpha"), "alice", Priority::High, Some(5000))
            .unwrap();
        journal
            .record_accepted(2, &spec("beta"), "", Priority::Normal, None)
            .unwrap();
        drop(journal);

        let text = std::fs::read_to_string(Journal::path_in(&dir)).unwrap();
        assert!(
            text.contains("\"tenant\":\"alice\",\"priority\":\"high\",\"deadline_ms\":5000"),
            "{text}"
        );
        let plain = text.lines().nth(1).unwrap();
        assert!(
            !plain.contains("tenant") && !plain.contains("priority") && !plain.contains("deadline"),
            "default-valued jobs keep the old record shape: {plain}"
        );

        let (_journal, replay) = Journal::open(&dir).unwrap();
        assert!(replay.corrupt.is_empty(), "{:?}", replay.corrupt);
        assert_eq!(replay.jobs[0].tenant, "alice");
        assert_eq!(replay.jobs[0].priority, Priority::High);
        assert_eq!(replay.jobs[0].deadline_ms, Some(5000));
        assert_eq!(replay.jobs[1].tenant, "");
        assert_eq!(replay.jobs[1].priority, Priority::Normal);
        assert_eq!(replay.jobs[1].deadline_ms, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_format_lines_replay_with_default_tenancy_and_bad_priority_is_corrupt() {
        let dir = state_dir("oldformat");
        std::fs::create_dir_all(&dir).unwrap();
        // A pre-tenancy journal: hand-built accepted + finished lines
        // with none of the new fields.
        let encoded = escape(&spec("alpha").encode());
        let old = format!(
            "{{\"kind\":\"accepted\",\"id\":1,\"spec\":\"{encoded}\"}}\n\
             {{\"kind\":\"finished\",\"id\":1,\"status\":\"done\",\"replayed\":0,\"executed\":4,\"store_errors\":0}}\n\
             {{\"kind\":\"accepted\",\"id\":2,\"spec\":\"{encoded}\",\"priority\":\"urgent\"}}\n"
        );
        std::fs::write(Journal::path_in(&dir), old).unwrap();
        let (_journal, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.jobs.len(), 1, "the bad-priority record is skipped");
        assert_eq!(replay.jobs[0].tenant, "");
        assert_eq!(replay.jobs[0].priority, Priority::Normal);
        assert_eq!(replay.jobs[0].deadline_ms, None);
        assert!(replay.jobs[0].outcome.is_some());
        assert_eq!(replay.corrupt.len(), 1, "{:?}", replay.corrupt);
        assert_eq!(replay.max_id, 2, "even the corrupt record fences its id");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_compacts_finished_jobs_beyond_the_retention_cap() {
        let dir = state_dir("compact");
        let (mut journal, _) = Journal::open(&dir).unwrap();
        let s = spec("alpha");
        let total = RETAINED_FINISHED_JOBS as u64 + 10;
        for id in 1..=total {
            journal
                .record_accepted(id, &s, "", Priority::Normal, None)
                .unwrap();
            journal
                .record_finished(
                    id,
                    &JournalOutcome::Done {
                        replayed: 0,
                        executed: 1,
                        store_errors: 0,
                    },
                )
                .unwrap();
        }
        drop(journal);
        let (journal, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.jobs.len(), RETAINED_FINISHED_JOBS);
        assert_eq!(replay.jobs[0].id, 11, "oldest finished jobs fall out");
        assert_eq!(replay.max_id, total);
        assert_eq!(journal.compactions(), 1);
        // The file itself shrank to the retained records.
        let lines = std::fs::read_to_string(Journal::path_in(&dir))
            .unwrap()
            .lines()
            .count();
        assert_eq!(lines, RETAINED_FINISHED_JOBS * 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
