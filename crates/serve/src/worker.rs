//! The worker pool: executes a job's store misses, either by spawning
//! `nfi campaign exec --shard i/n` child processes (the daemon's mode)
//! or in-process (tests and single-binary fallback).
//!
//! Process workers are the transport PR 3 left open: the orchestrator
//! already exchanged *encoded shard documents* with its in-process
//! workers, so promoting them to child processes only changes how the
//! bytes move — the spec subset travels as a plan file, each child
//! writes its shard document to a file, the pool decodes and hands the
//! runs back to [`nfi_core::Orchestrator::run_spec_with`] for the same
//! merge-and-persist path an offline `nfi campaign run` takes. That
//! shared tail is what makes a served document byte-identical to the
//! offline one.
//!
//! Children are **supervised**, not merely awaited:
//!
//! * a watchdog kills any child that outlives its execution budget
//!   ([`WorkerPool::child_timeout`]) — a hung child no longer wedges a
//!   scheduler lane until daemon restart — while a child that exits is
//!   reaped as soon as its stderr closes, not on the watchdog's next
//!   tick;
//! * a crashed or killed shard is retried on a fresh child up to
//!   [`WorkerPool::max_retries`] times, with capped exponential
//!   backoff plus deterministic jitter between attempts;
//! * a shard that exhausts its retries is **isolated**: its units
//!   re-run one child each (same retry budget), so one poisoned unit
//!   costs only its own outcome. Units that still fail are simply not
//!   covered — the job finishes with per-unit failure accounting
//!   (`failed_units`) and the saved segment stays partial, which is
//!   legal: a later run re-executes only the uncovered units, and the
//!   document endpoint falls back to read-only re-execution. Nothing
//!   fabricated is ever written to the store.
//!
//! Every supervision event is counted in the shared [`WorkerEvents`]
//! so `/v1/metrics` can report retries, watchdog kills, and failed
//! units.

use nfi_core::service::ShardRun;
use nfi_core::{IncrementalRun, Orchestrator};
use nfi_sfi::CampaignSpec;
use nfi_telemetry::{trace, Span, SpanRecord};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The watchdog's tick: the longest it waits between budget checks.
const WATCHDOG_POLL: Duration = Duration::from_millis(10);
/// First poll once a child's stderr has closed; doubles per poll up
/// to [`WATCHDOG_POLL`].
const REAP_POLL: Duration = Duration::from_micros(100);
/// First retry backoff; doubles per retry up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(100);
/// Longest backoff between retries.
const BACKOFF_CAP: Duration = Duration::from_millis(2000);

/// How store misses execute.
#[derive(Debug, Clone)]
pub enum WorkerMode {
    /// In-process worker threads (what `nfi campaign run` does).
    InProcess,
    /// Spawned `nfi campaign exec` child processes at the given binary.
    Spawn {
        /// Path of the `nfi` binary to spawn.
        nfi: PathBuf,
    },
}

impl WorkerMode {
    /// Spawn mode pointing at the currently running binary — the
    /// daemon's default, since `nfi serve` *is* the `nfi` binary.
    ///
    /// # Errors
    ///
    /// Reports a platform that cannot resolve its own executable path.
    pub fn current_exe() -> Result<WorkerMode, String> {
        std::env::current_exe()
            .map(|nfi| WorkerMode::Spawn { nfi })
            .map_err(|e| format!("cannot resolve the running binary: {e}"))
    }
}

/// Supervision counters shared between the pool and `/v1/metrics`.
#[derive(Debug, Default)]
pub struct WorkerEvents {
    /// Children retried on a fresh process (crash or watchdog kill).
    pub retries: AtomicU64,
    /// Children killed for exceeding their execution budget.
    pub watchdog_kills: AtomicU64,
    /// Units that exhausted every retry (shard and isolation level)
    /// and finished uncovered.
    pub failed_units: AtomicU64,
}

/// A pool of `workers` execution slots over a scratch directory for
/// plan/shard-document exchange files.
#[derive(Debug)]
pub struct WorkerPool {
    /// Execution mode.
    pub mode: WorkerMode,
    /// Worker count (child processes or threads) per job.
    pub workers: usize,
    /// Scratch directory for the exchange files of spawned workers.
    pub work_dir: PathBuf,
    /// Watchdog budget per child attempt (`None` = never killed).
    pub child_timeout: Option<Duration>,
    /// Fresh-child retries after a failed attempt (0 = one attempt).
    pub max_retries: usize,
    /// Shared supervision counters.
    pub events: Arc<WorkerEvents>,
}

/// What one supervised shard attempt chain produced.
enum ShardResult {
    /// The shard document, decoded and re-widened.
    Run(ShardRun),
    /// Retries exhausted: isolate these global unit indices
    /// one-child-each (the diagnostic rides along).
    Isolate(Vec<usize>, String),
    /// Unrecoverable dispatch error (nothing to isolate — e.g. the
    /// plan file itself could not be written).
    Fatal(String),
}

impl WorkerPool {
    /// A pool with supervision disabled-by-default knobs: no child
    /// timeout, two retries.
    pub fn new(mode: WorkerMode, workers: usize, work_dir: PathBuf) -> WorkerPool {
        WorkerPool {
            mode,
            workers,
            work_dir,
            child_timeout: None,
            max_retries: 2,
            events: Arc::new(WorkerEvents::default()),
        }
    }

    /// Runs one planned job through `orch` incrementally: replay from
    /// the store, execute the misses on this pool's workers, merge,
    /// persist the segment.
    ///
    /// # Errors
    ///
    /// Propagates orchestrator failures and unrecoverable worker
    /// failures. A child crash/hang is *not* unrecoverable — it is
    /// retried and, past the retry budget, degraded to per-unit
    /// failure outcomes.
    pub fn run_job(
        &self,
        orch: &Orchestrator,
        job_id: u64,
        spec: &CampaignSpec,
    ) -> Result<IncrementalRun, String> {
        match &self.mode {
            WorkerMode::InProcess => orch.run_spec(spec),
            WorkerMode::Spawn { nfi } => orch.run_spec_with(spec, |spec, missing| {
                self.spawn_dispatch(nfi, job_id, spec, missing)
            }),
        }
    }

    /// Stripes `missing` over spawned `nfi campaign exec --shard i/n`
    /// children: the miss subset is written once as a self-contained
    /// plan file (units keep their global indices), every child
    /// executes one stride of it and writes its shard document, and the
    /// decoded documents come back re-widened to the full spec's unit
    /// count so they merge with the replayed run.
    fn spawn_dispatch(
        &self,
        nfi: &Path,
        job_id: u64,
        spec: &CampaignSpec,
        missing: &[usize],
    ) -> Result<Vec<ShardRun>, String> {
        std::fs::create_dir_all(&self.work_dir)
            .map_err(|e| format!("cannot create {}: {e}", self.work_dir.display()))?;
        // Exchange files are dispatch-unique, not just job-unique: a
        // killed daemon can leave orphan children still writing
        // `job-N` files, and a restarted daemon re-runs job N against
        // the same work dir. The pid separates daemons; the counter
        // separates concurrent dispatches within one (two document
        // rebuilds of the same job, say).
        static DISPATCH_SEQ: AtomicU64 = AtomicU64::new(0);
        let tag = format!(
            "job-{job_id}.{}-{}",
            std::process::id(),
            DISPATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let subset = spec.subset(missing);
        let plan_path = self.work_dir.join(format!("{tag}.plan.jsonl"));
        std::fs::write(&plan_path, subset.encode())
            .map_err(|e| format!("cannot write {}: {e}", plan_path.display()))?;
        let workers = self.workers.clamp(1, missing.len());

        // Shards run (and retry) concurrently; each thread owns one
        // stride of the miss subset end to end. Supervisor threads
        // inherit the dispatching lane's trace context so each child's
        // span (and the spans the child echoes back) nest under the
        // execute phase.
        let context = trace::current_context();
        let results: Vec<ShardResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|shard| {
                    let (tag, plan_path, subset) = (&tag, &plan_path, &subset);
                    let context = context.clone();
                    scope.spawn(move || {
                        let _ctx = context.map(|(t, parent)| trace::push_context(t, parent));
                        self.run_shard(nfi, tag, plan_path, subset, shard, workers, spec)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        ShardResult::Fatal("worker supervisor thread panicked".to_string())
                    })
                })
                .collect()
        });

        let mut runs = Vec::new();
        let mut fatal = Vec::new();
        let mut isolate: Vec<(usize, String)> = Vec::new();
        for result in results {
            match result {
                ShardResult::Run(run) => runs.push(run),
                ShardResult::Isolate(units, why) => {
                    isolate.extend(units.into_iter().map(|u| (u, why.clone())))
                }
                ShardResult::Fatal(e) => fatal.push(e),
            }
        }
        if fatal.is_empty() && !isolate.is_empty() {
            runs.extend(self.isolate_units(nfi, &tag, spec, &isolate));
        }
        let _ = std::fs::remove_file(&plan_path);
        if !fatal.is_empty() {
            return Err(fatal.join("; "));
        }
        Ok(runs)
    }

    /// One shard's attempt chain: run a fresh child per attempt with
    /// backoff between attempts; past the budget, hand the shard's
    /// units over for per-unit isolation.
    #[allow(clippy::too_many_arguments)]
    fn run_shard(
        &self,
        nfi: &Path,
        tag: &str,
        plan_path: &Path,
        subset: &CampaignSpec,
        shard: usize,
        of: usize,
        spec: &CampaignSpec,
    ) -> ShardResult {
        let label = format!("worker {shard}/{of}");
        let mut last_err = String::new();
        for attempt in 0..=self.max_retries {
            if attempt > 0 {
                self.events.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff_delay(tag, shard, attempt));
            }
            let out_path = self
                .work_dir
                .join(format!("{tag}.shard-{shard}-{of}.a{attempt}.jsonl"));
            let outcome = self.run_child(
                nfi,
                plan_path,
                &out_path,
                &format!("{shard}/{of}"),
                &label,
                spec.units.len(),
            );
            let _ = std::fs::remove_file(&out_path);
            match outcome {
                Ok(run) => return ShardResult::Run(run),
                Err(e) => last_err = e,
            }
        }
        // The stride this shard owned: positions p of the subset with
        // p % of == shard, mapped back to global unit indices (the
        // same stripe `nfi campaign exec --shard` executes).
        let units: Vec<usize> = subset
            .units
            .iter()
            .enumerate()
            .filter(|(p, _)| p % of == shard)
            .map(|(_, u)| u.index)
            .collect();
        ShardResult::Isolate(
            units,
            format!(
                "{label} failed {} attempt(s): {last_err}",
                self.max_retries + 1
            ),
        )
    }

    /// Per-unit isolation: every unit of an exhausted shard re-runs on
    /// its own single-unit child (fresh retry budget each). Units that
    /// still fail are counted and left uncovered — never fabricated.
    fn isolate_units(
        &self,
        nfi: &Path,
        tag: &str,
        spec: &CampaignSpec,
        units: &[(usize, String)],
    ) -> Vec<ShardRun> {
        let mut runs = Vec::new();
        for (unit, why) in units {
            let plan_path = self.work_dir.join(format!("{tag}.unit-{unit}.plan.jsonl"));
            if std::fs::write(&plan_path, spec.subset(&[*unit]).encode()).is_err() {
                self.events.failed_units.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let mut recovered = None;
            for attempt in 0..=self.max_retries {
                if attempt > 0 {
                    self.events.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff_delay(tag, *unit, attempt));
                }
                let out_path = self
                    .work_dir
                    .join(format!("{tag}.unit-{unit}.a{attempt}.jsonl"));
                let outcome = self.run_child(
                    nfi,
                    &plan_path,
                    &out_path,
                    "0/1",
                    &format!("isolated worker for unit {unit} ({why})"),
                    spec.units.len(),
                );
                let _ = std::fs::remove_file(&out_path);
                if let Ok(run) = outcome {
                    recovered = Some(run);
                    break;
                }
            }
            let _ = std::fs::remove_file(&plan_path);
            match recovered {
                Some(run) => runs.push(run),
                None => {
                    self.events.failed_units.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        runs
    }

    /// One supervised child: spawn, drain stderr on a side thread,
    /// wait under the watchdog budget, decode the shard document.
    #[allow(clippy::too_many_arguments)]
    fn run_child(
        &self,
        nfi: &Path,
        plan_path: &Path,
        out_path: &Path,
        shard_arg: &str,
        label: &str,
        total_units: usize,
    ) -> Result<ShardRun, String> {
        // One engine thread per child: the parallelism lives in the
        // process fan-out, not nested thread pools.
        let mut command = Command::new(nfi);
        command
            .args(["campaign", "exec", "--threads", "1", "--shard"])
            .arg(shard_arg)
            .arg("--plan")
            .arg(plan_path)
            .arg("--out")
            .arg(out_path)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        // Hand the child this span's id via NFI_TRACE; it echoes its
        // own spans back as NFI-SPAN stderr lines, re-anchored below.
        let child_span = Span::enter("worker_child");
        let trace_ctx = trace::current_context().filter(|_| child_span.id() > 0);
        let spawned_at_us = trace_ctx.as_ref().map(|(t, _)| t.elapsed_us()).unwrap_or(0);
        if let Some((t, _)) = &trace_ctx {
            command.env(trace::TRACE_ENV, t.context_env(child_span.id()));
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot spawn {label} ({}): {e}", nfi.display()))?;
        // Drain stderr concurrently so a chatty child cannot deadlock
        // against a full pipe while the watchdog waits. The drain
        // reports through a channel rather than a join: a killed
        // child's orphaned grandchildren can inherit the pipe's write
        // end and keep it open indefinitely, and the watchdog's whole
        // point is that nothing a misbehaving child does stalls the
        // lane. If the watchdog did not already receive the bytes, it
        // waits a grace period for them, then abandons the thread to
        // exit whenever the last writer finally closes the pipe.
        let drain = child.stderr.take().map(|mut pipe| {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                use std::io::Read;
                let mut buf = Vec::new();
                let _ = pipe.read_to_end(&mut buf);
                let _ = tx.send(buf);
            });
            rx
        });
        let mut stderr = None;
        let verdict = self.watch(&mut child, label, drain.as_ref(), &mut stderr);
        let stderr = stderr
            .or_else(|| drain.and_then(|rx| rx.recv_timeout(Duration::from_millis(200)).ok()))
            .map(|buf| String::from_utf8_lossy(&buf).into_owned())
            .unwrap_or_default();
        // Re-anchor the spans the child echoed (even from a failed
        // attempt — its partial timeline is exactly what a trace is
        // for): ids shift into a reserved range, the child's roots
        // attach under this attempt's span, and starts shift by the
        // spawn offset so one monotonic timeline covers both processes.
        if let Some((t, _)) = &trace_ctx {
            let spans: Vec<SpanRecord> =
                stderr.lines().filter_map(trace::parse_span_line).collect();
            if let Some(width) = spans.iter().map(|s| s.id).max() {
                let base = t.reserve_ids(width);
                for span in &spans {
                    t.import_child(span, child_span.id(), base, spawned_at_us);
                }
            }
        }
        let status = verdict?;
        if !status.success() {
            return Err(format!(
                "{label} exited with {status}: {}",
                stderr
                    .lines()
                    .rfind(|l| !l.starts_with(nfi_telemetry::trace::SPAN_LINE_PREFIX))
                    .unwrap_or("(no diagnostics)"),
            ));
        }
        let mut run = std::fs::read_to_string(out_path)
            .map_err(|e| format!("{label}: cannot read {}: {e}", out_path.display()))
            .and_then(|doc| ShardRun::decode(&doc).map_err(|e| format!("{label} document: {e}")))?;
        // The child saw only the miss subset; re-widen its coverage
        // denominator to the full spec so the runs merge with the
        // replayed outcomes.
        run.total = total_units;
        Ok(run)
    }

    /// Waits for a child to exit, or kills it at the watchdog budget.
    ///
    /// The child's exit closes its stderr pipe, which ends the drain
    /// thread and fires `drain`; so between budget checks the watchdog
    /// blocks on that channel rather than sleeping out the tick, and an
    /// exiting child is reaped at once. What the drain read lands in
    /// `stderr`. A closed pipe does not prove an exit — a child may
    /// close stderr and keep running — so once it has closed the
    /// watchdog polls instead, starting at [`REAP_POLL`] and doubling
    /// up to one tick.
    fn watch(
        &self,
        child: &mut Child,
        label: &str,
        mut drain: Option<&Receiver<Vec<u8>>>,
        stderr: &mut Option<Vec<u8>>,
    ) -> Result<ExitStatus, String> {
        let started = Instant::now();
        let mut nap = REAP_POLL;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) => {
                    let mut tick = WATCHDOG_POLL;
                    if let Some(budget) = self.child_timeout {
                        let elapsed = started.elapsed();
                        if elapsed >= budget {
                            let _ = child.kill();
                            let _ = child.wait();
                            self.events.watchdog_kills.fetch_add(1, Ordering::Relaxed);
                            return Err(format!(
                                "watchdog killed {label} after its {}ms budget",
                                budget.as_millis()
                            ));
                        }
                        tick = tick.min(budget - elapsed);
                    }
                    match drain.map(|rx| rx.recv_timeout(tick)) {
                        Some(Err(RecvTimeoutError::Timeout)) => {}
                        Some(closed) => {
                            *stderr = closed.ok();
                            drain = None;
                        }
                        None => {
                            std::thread::sleep(nap.min(tick));
                            nap = (nap * 2).min(WATCHDOG_POLL);
                        }
                    }
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("{label} did not exit cleanly: {e}"));
                }
            }
        }
    }
}

/// Backoff before retry `attempt` (1-based): `BACKOFF_BASE`
/// doubling per attempt, capped, plus a deterministic jitter hashed
/// from the dispatch tag and slot — concurrent retries spread out
/// instead of thundering back in lockstep, and reproducibly so.
fn backoff_delay(tag: &str, slot: usize, attempt: usize) -> Duration {
    let base = BACKOFF_BASE
        .saturating_mul(1u32 << (attempt - 1).min(10) as u32)
        .min(BACKOFF_CAP);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in tag
        .as_bytes()
        .iter()
        .chain(slot.to_le_bytes().iter())
        .chain(attempt.to_le_bytes().iter())
    {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let jitter_cap = (base.as_millis() as u64 / 2).max(1);
    base + Duration::from_millis(h % jitter_cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOURCE: &str = "\
def add(a, b):
    return a + b
def test_add():
    assert add(1, 2) == 3
";

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nfi-worker-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A shell script posing as the `nfi` binary.
    #[cfg(unix)]
    fn fake_nfi(dir: &Path, body: &str) -> PathBuf {
        use std::os::unix::fs::PermissionsExt;
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("fake-nfi.sh");
        std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path
    }

    #[test]
    fn in_process_pool_matches_the_plain_orchestrator() {
        let dir = scratch("inproc");
        let pool = WorkerPool::new(WorkerMode::InProcess, 2, dir.join("tmp"));
        let orch = Orchestrator {
            workers: 2,
            ..Orchestrator::new(&dir).unwrap()
        };
        let spec = nfi_core::plan_campaign("demo", SOURCE, orch.seed).unwrap();
        let served = pool.run_job(&orch, 1, &spec).unwrap();

        let plain_dir = scratch("inproc-plain");
        let plain = Orchestrator::new(&plain_dir).unwrap();
        let direct = plain.run_program("demo", SOURCE).unwrap();
        assert_eq!(served.run.encode(), direct.run.encode());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&plain_dir);
    }

    #[test]
    fn unspawnable_worker_binary_degrades_to_per_unit_failures() {
        let dir = scratch("nobin");
        let pool = WorkerPool {
            max_retries: 0,
            ..WorkerPool::new(
                WorkerMode::Spawn {
                    nfi: dir.join("no-such-binary"),
                },
                2,
                dir.join("tmp"),
            )
        };
        let orch = Orchestrator::new(&dir).unwrap();
        let spec = nfi_core::plan_campaign("demo", SOURCE, orch.seed).unwrap();
        // Every shard and every isolated unit fails to spawn: the job
        // still *finishes* — with zero coverage — instead of erroring.
        let run = pool.run_job(&orch, 1, &spec).unwrap();
        assert_eq!(run.executed, 0, "nothing could execute");
        assert_eq!(run.replayed, 0);
        assert_eq!(
            pool.events.failed_units.load(Ordering::Relaxed),
            spec.units.len() as u64,
            "every unit surfaced as failed"
        );
        // Nothing fabricated was persisted: a later in-process run
        // over the same state dir is a full cold run.
        let followup = Orchestrator::new(&dir).unwrap().run_spec(&spec).unwrap();
        assert_eq!(followup.executed, followup.units);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(unix)]
    fn watchdog_kills_a_hung_child_and_counts_it() {
        let dir = scratch("hang");
        let nfi = fake_nfi(&dir, "sleep 60");
        let pool = WorkerPool {
            child_timeout: Some(Duration::from_millis(80)),
            max_retries: 1,
            ..WorkerPool::new(WorkerMode::Spawn { nfi }, 1, dir.join("tmp"))
        };
        let orch = Orchestrator::new(&dir).unwrap();
        let spec = nfi_core::plan_campaign("demo", SOURCE, orch.seed).unwrap();
        let started = Instant::now();
        let run = pool.run_job(&orch, 1, &spec).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the watchdog, not the sleep, bounded the run"
        );
        assert_eq!(run.executed, 0, "a hung child covers nothing");
        let kills = pool.events.watchdog_kills.load(Ordering::Relaxed);
        // Shard attempts (1 + 1 retry) plus per-unit isolation
        // attempts are each killed once.
        assert!(kills >= 2, "expected >= 2 watchdog kills, saw {kills}");
        assert!(pool.events.retries.load(Ordering::Relaxed) >= 1);
        assert_eq!(
            pool.events.failed_units.load(Ordering::Relaxed),
            spec.units.len() as u64
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(unix)]
    fn watchdog_kills_a_child_that_closed_stderr_and_kept_running() {
        // The closed pipe ends the drain early, so only the watchdog's
        // own polls can notice the budget run out.
        let dir = scratch("closed-stderr");
        let nfi = fake_nfi(&dir, "exec 2>&-; sleep 60");
        let pool = WorkerPool {
            child_timeout: Some(Duration::from_millis(80)),
            ..WorkerPool::new(WorkerMode::Spawn { nfi: nfi.clone() }, 1, dir.join("tmp"))
        };
        let started = Instant::now();
        let err = pool
            .run_child(&nfi, &dir.join("plan"), &dir.join("out"), "0/1", "child", 1)
            .expect_err("a killed child yields no shard");
        let took = started.elapsed();
        assert!(err.contains("watchdog killed child"), "{err}");
        assert!(
            took >= Duration::from_millis(80) && took < Duration::from_secs(10),
            "killed at its 80ms budget, took {took:?}"
        );
        assert_eq!(pool.events.watchdog_kills.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(unix)]
    fn an_exiting_child_is_reaped_within_one_watchdog_tick() {
        let dir = scratch("reap");
        // Long enough to outlive the watchdog's first look, so only a
        // wake-up on its exit can reap it within the tick.
        let nfi = fake_nfi(&dir, "exec sleep 0.002");
        let pool = WorkerPool {
            child_timeout: Some(Duration::from_secs(30)),
            ..WorkerPool::new(WorkerMode::Spawn { nfi: nfi.clone() }, 1, dir.join("tmp"))
        };
        let run = || {
            let started = Instant::now();
            let outcome =
                pool.run_child(&nfi, &dir.join("plan"), &dir.join("out"), "0/1", "child", 1);
            assert!(outcome.is_err(), "the fake child writes no document");
            started.elapsed()
        };
        // The fastest of five runs, so a loaded host cannot fail it; a
        // watchdog that slept a whole tick before its second look would
        // take at least WATCHDOG_POLL every time.
        let fastest = (0..5).map(|_| run()).min().unwrap();
        assert!(
            fastest < WATCHDOG_POLL,
            "spawn to reap took {fastest:?}, at least one {WATCHDOG_POLL:?} tick"
        );
        assert_eq!(pool.events.watchdog_kills.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(unix)]
    fn a_crashing_child_retries_with_backoff_then_isolates() {
        let dir = scratch("crash");
        let nfi = fake_nfi(&dir, "exit 7");
        let pool = WorkerPool {
            max_retries: 1,
            ..WorkerPool::new(WorkerMode::Spawn { nfi }, 2, dir.join("tmp"))
        };
        let orch = Orchestrator::new(&dir).unwrap();
        let spec = nfi_core::plan_campaign("demo", SOURCE, orch.seed).unwrap();
        let run = pool.run_job(&orch, 1, &spec).unwrap();
        assert_eq!(run.executed, 0);
        let retries = pool.events.retries.load(Ordering::Relaxed);
        assert!(retries >= 2, "both shards retried at least once: {retries}");
        assert_eq!(
            pool.events.failed_units.load(Ordering::Relaxed),
            spec.units.len() as u64
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_grows_doubling_capped_and_jitters_deterministically() {
        let a1 = backoff_delay("tag", 0, 1);
        let a2 = backoff_delay("tag", 0, 2);
        let a9 = backoff_delay("tag", 0, 9);
        assert!(a1 >= BACKOFF_BASE && a1 < BACKOFF_BASE * 2);
        assert!(a2 >= BACKOFF_BASE * 2 && a2 < BACKOFF_BASE * 3);
        assert!(a9 >= BACKOFF_CAP && a9 <= BACKOFF_CAP + BACKOFF_CAP / 2);
        assert_eq!(
            backoff_delay("tag", 3, 1),
            backoff_delay("tag", 3, 1),
            "jitter is a pure function of (tag, slot, attempt)"
        );
        assert_ne!(
            backoff_delay("tag", 0, 1),
            backoff_delay("tag", 1, 1),
            "different slots jitter apart"
        );
    }
}
