//! The incremental campaign store and the host-level orchestrator.
//!
//! The paper's workflow is iterative — regenerate faults, re-run the
//! campaign, compare — so re-executing experiments whose inputs did
//! not change is pure waste. This module persists campaign outcomes on
//! disk, content-addressed, and puts an orchestrator on top of the
//! plan IR that only executes what the store cannot replay:
//!
//! ```text
//! state dir
//! └── store/<program_fp>-<module_fp>-<machine_fp>.jsonl
//!       {"kind":"campaign_store","format":2, ...}         header
//!       {"kind":"stored","unit":K,"anchor":A,"outcome":L} one line per unit
//! ```
//!
//! Addressing:
//!
//! * the **segment** key is (program name, module fingerprint,
//!   machine-config fingerprint) — edit one source line or change a
//!   scheduler knob and the old segment simply stops matching. The
//!   program name is part of the key so two programs (or two tenants'
//!   scoped `tenant:program` names) with byte-identical source own
//!   *separate* segments — they can never save over or prune each
//!   other. The name rides in the file name as a fingerprint; the
//!   header stores it verbatim and the loader cross-checks it, so a
//!   fingerprint collision degrades to a reported re-execution, never
//!   a silent replay of another program's outcomes;
//! * the **line** key is [`WorkUnit::store_key`] — operator, the
//!   site's *structural anchor* + ordinal ([`nfi_pylite::anchors`]),
//!   operator detail, and the experiment seed. Stable across
//!   processes and hosts, so a segment written by one worker replays
//!   in any other — and stable across *module versions* for units
//!   whose enclosing function did not change, which is what the
//!   anchor-fallback path below keys on.
//!
//! A module-fingerprint match replays the whole segment (the fast
//! path; a clean full replay leaves the segment file untouched). On a
//! fingerprint **miss** — a warm edit — the orchestrator
//! falls back to the program's previous segment (pruning keeps at most
//! one per machine config) and splits the plan by anchor: units whose
//! anchor-stable key still resolves there are **anchor hits**,
//! replayed with their enumeration index rewritten to the new plan;
//! the rest are **anchor misses** and execute. A one-line body edit
//! therefore re-executes only the units whose enclosing function
//! changed — O(diff), not O(module). Segments record a `format`
//! version; pre-anchor segments (format 1, or no `format` field)
//! degrade gracefully: their keys simply never match, so everything
//! re-executes once and the re-saved segment is format 2.
//!
//! Replayed outcome lines are re-emitted **verbatim** (the same
//! guarantee [`service::merge`] gives shard documents), so a warm
//! incremental run's merged document is byte-identical to a cold one;
//! anchor-replayed lines are re-emitted through the one canonical
//! encoder with only the index rewritten, preserving the same
//! guarantee. Corrupt store lines — truncation, garbling, editor
//! accidents — are reported as warnings and the affected units fall
//! back to re-execution; the store can never change a result, only
//! skip recomputing it.
//!
//! [`Orchestrator`] is the multi-run, multi-worker entry point behind
//! `nfi campaign run --state-dir`: plan, replay what the store covers,
//! stripe the misses across workers, merge, and write the segment
//! back. Workers exchange *encoded shard documents*, and the dispatch
//! step is pluggable ([`Orchestrator::run_spec_with`]): the default
//! uses in-process threads, while the `nfi serve` daemon passes a
//! dispatcher that spawns `nfi campaign exec --shard i/n` child
//! processes — same artifacts, same merge, byte-identical documents.
//!
//! The store has **one writer per segment at a time**: every
//! orchestrated run serializes its load → execute → save cycle behind
//! the segment's [`SegmentLocks`] entry, so the `nfi serve` scheduler
//! lanes (and a concurrent offline `campaign run` on the same state
//! dir) can execute independent programs in parallel without ever
//! interleaving on one segment.

use crate::exec::ExecConfig;
use crate::service::{self, ShardOutcome, ShardRun};
use nfi_pylite::MachineConfig;
use nfi_sfi::jsontext::{escape, get_hex_u64, get_str, get_usize, parse_flat_object, JsonValue};
use nfi_sfi::{CampaignSpec, WorkUnit};
use nfi_telemetry::{families, Span};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// The `phase_duration{phase=...}` histogram handle for one
/// orchestrator phase. The registry caches and leaks the series, so
/// the per-job cost is one mutex-guarded lookup; recording on the
/// returned handle is lock-free.
fn phase_hist(phase: &'static str) -> &'static nfi_telemetry::AtomicHistogram {
    nfi_telemetry::registry().histogram(families::PHASE, &[("phase", phase)])
}

/// A content-addressed on-disk store of campaign outcome lines.
pub struct CampaignStore {
    root: PathBuf,
}

/// The segment format this build writes: format 2 keys lines by
/// structural anchor ([`WorkUnit::store_key`]) and records each line's
/// anchor. Format-1 segments (including headerless pre-versioning
/// ones) are read but never used as an anchor-fallback source.
pub const SEGMENT_FORMAT: u32 = 2;

/// One loaded store segment: outcome lines by unit store key, plus
/// every corruption the loader tolerated (each one falls back to
/// re-execution).
#[derive(Debug, Default)]
pub struct LoadedSegment {
    /// Verbatim outcome lines, keyed by [`WorkUnit::store_key`].
    pub lines: HashMap<u64, String>,
    /// Human-readable reports of skipped/corrupt lines.
    pub errors: Vec<String>,
    /// Declared segment format (1 when the header predates
    /// versioning; 0 when there is no readable header at all).
    pub format: u32,
    /// Whether the header decoded and matched the requested address —
    /// the gate for using this segment as an anchor-fallback source.
    pub header_valid: bool,
}

impl CampaignStore {
    /// Opens (creating if needed) the store under `state_dir`.
    ///
    /// # Errors
    ///
    /// Reports an uncreatable directory.
    pub fn open(state_dir: impl AsRef<Path>) -> Result<CampaignStore, String> {
        let root = state_dir.as_ref().join("store");
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create store dir {}: {e}", root.display()))?;
        Ok(CampaignStore { root })
    }

    /// Path of the segment holding `(program, module_fp, machine_fp)`
    /// outcomes. The program travels as a fingerprint — names are
    /// tenant-scoped (`tenant:program`) and user-chosen, so they don't
    /// belong in filesystem paths verbatim.
    pub fn segment_path(&self, program: &str, module_fp: u64, machine_fp: u64) -> PathBuf {
        self.root.join(format!(
            "{:016x}-{module_fp:016x}-{machine_fp:016x}.jsonl",
            fnv1a(program.as_bytes())
        ))
    }

    /// Loads the segment for `(program, module_fp, machine_fp)`. A
    /// missing segment is simply empty; a corrupt line (truncated,
    /// garbled, mismatched program or fingerprints, duplicate key) is
    /// reported in [`LoadedSegment::errors`] and skipped, so the caller
    /// re-executes those units instead of panicking or replaying
    /// garbage.
    pub fn load(&self, program: &str, module_fp: u64, machine_fp: u64) -> LoadedSegment {
        let path = self.segment_path(program, module_fp, machine_fp);
        let mut seg = LoadedSegment::default();
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return seg,
            Err(e) => {
                seg.errors
                    .push(format!("cannot read store segment {}: {e}", path.display()));
                return seg;
            }
        };
        let mut declared: Option<usize> = None;
        // Keys seen more than once are poisoned outright: conflicting
        // payloads mean neither can be trusted, and a third occurrence
        // must not sneak the key back in.
        let mut poisoned: HashSet<u64> = HashSet::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let report = |e: String| format!("{}:{}: {e}", path.display(), i + 1);
            if line.contains("\"kind\":\"campaign_store\"") {
                match Self::decode_header(line, program, module_fp, machine_fp) {
                    Ok((count, format)) => {
                        declared = Some(count);
                        seg.format = format;
                        seg.header_valid = true;
                    }
                    Err(e) => seg.errors.push(report(e)),
                }
            } else if line.contains("\"kind\":\"stored\"") {
                match Self::decode_stored(line) {
                    Ok((key, outcome)) => {
                        if poisoned.contains(&key) || seg.lines.insert(key, outcome).is_some() {
                            seg.errors
                                .push(report(format!("duplicate unit key {key:016x}")));
                            seg.lines.remove(&key);
                            poisoned.insert(key);
                        }
                    }
                    Err(e) => seg.errors.push(report(e)),
                }
            } else {
                seg.errors.push(report("unknown record kind".to_string()));
            }
        }
        match declared {
            Some(count) if count != seg.lines.len() => seg.errors.push(format!(
                "{}: header declares {count} stored lines, found {} intact (truncated?)",
                path.display(),
                seg.lines.len()
            )),
            Some(_) => {}
            None => seg.errors.push(format!(
                "{}: no campaign_store header (truncated?)",
                path.display()
            )),
        }
        seg
    }

    fn decode_header(
        line: &str,
        program: &str,
        module_fp: u64,
        machine_fp: u64,
    ) -> Result<(usize, u32), String> {
        let fields = parse_flat_object(line)?;
        if get_hex_u64(&fields, "module_fp")? != module_fp
            || get_hex_u64(&fields, "machine_fp")? != machine_fp
        {
            return Err("store header fingerprints do not match the segment name".to_string());
        }
        // The file name only carries the program's *fingerprint*; the
        // verbatim header name is the collision backstop.
        if get_str(&fields, "program")? != program {
            return Err(format!(
                "store header names program `{}`, expected `{program}` \
                 (program fingerprint collision?)",
                get_str(&fields, "program")?
            ));
        }
        // Headers written before segment versioning carry no `format`
        // field and read as format 1.
        let format = match fields.get("format") {
            Some(v) => u32::try_from(
                v.as_u64()
                    .ok_or_else(|| format!("field `format` is not an unsigned integer: {v:?}"))?,
            )
            .map_err(|_| "field `format` does not fit in u32".to_string())?,
            None => 1,
        };
        Ok((get_usize(&fields, "lines")?, format))
    }

    /// Decodes the (key, verbatim outcome line) of one stored record.
    /// The outcome payload is *not* parsed here — [`Orchestrator`]
    /// decodes it exactly once at replay time and degrades a garbled
    /// payload to re-execution there, so the warm path never parses a
    /// line twice.
    fn decode_stored(line: &str) -> Result<(u64, String), String> {
        let fields = parse_flat_object(line)?;
        Ok((get_hex_u64(&fields, "unit")?, get_str(&fields, "outcome")?))
    }

    /// The program's *previous* segment under `machine_fp` — any intact
    /// anchor-capable segment of the same program whose module
    /// fingerprint differs from `current_fp`. Pruning keeps at most one
    /// such segment per (program, machine config), so this is the
    /// anchor-fallback source for a warm edit. Answers `None` when
    /// there is none, when its header does not check out, or when it
    /// predates anchor keying (format < 2 — those keys can never match
    /// and pre-anchor replays must not be guessed at).
    pub fn previous_segment(
        &self,
        program: &str,
        current_fp: u64,
        machine_fp: u64,
    ) -> Option<(u64, LoadedSegment)> {
        self.named_segments(program, machine_fp)
            .into_iter()
            .filter(|&old_fp| old_fp != current_fp)
            .find_map(|old_fp| {
                let segment = self.load(program, old_fp, machine_fp);
                // `header_valid` re-checks the verbatim program name, so a
                // program-fingerprint collision can never donate lines.
                (segment.header_valid && segment.format >= SEGMENT_FORMAT)
                    .then_some((old_fp, segment))
            })
    }

    /// Module fingerprints of the segments *named* for `program` under
    /// `machine_fp` (`{fnv1a(program)}-{module_fp}-{machine_fp}.jsonl`),
    /// read from the directory listing alone. A name carries only the
    /// program's fingerprint, so callers check the verbatim header
    /// before trusting or removing a file.
    fn named_segments(&self, program: &str, machine_fp: u64) -> Vec<u64> {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let prefix = format!("{:016x}-", fnv1a(program.as_bytes()));
        let suffix = format!("-{machine_fp:016x}.jsonl");
        entries
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name();
                let middle = name
                    .to_str()?
                    .strip_prefix(&prefix)?
                    .strip_suffix(&suffix)?;
                u64::from_str_radix(middle, 16).ok()
            })
            .collect()
    }

    /// Per-segment detail for `nfi store inspect`: the header identity
    /// plus line and distinct-anchor counts read from the records
    /// themselves (tolerating corrupt lines — they are simply not
    /// counted). Orphans come back with their [`SegmentInfo::note`] and
    /// zero counts.
    pub fn inspect(&self) -> Vec<SegmentDetail> {
        self.segments()
            .into_iter()
            .map(|info| {
                let mut detail = SegmentDetail {
                    format: 0,
                    lines: 0,
                    anchors: std::collections::BTreeMap::new(),
                    info,
                };
                let Ok(text) = std::fs::read_to_string(&detail.info.path) else {
                    return detail;
                };
                for line in text.lines() {
                    if line.contains("\"kind\":\"campaign_store\"") {
                        if let Ok(fields) = parse_flat_object(line) {
                            detail.format = fields
                                .get("format")
                                .and_then(JsonValue::as_u64)
                                .and_then(|v| u32::try_from(v).ok())
                                .unwrap_or(1);
                        }
                    } else if line.contains("\"kind\":\"stored\"") {
                        let Ok(fields) = parse_flat_object(line) else {
                            continue;
                        };
                        detail.lines += 1;
                        // Pre-anchor lines count under anchor 0.
                        let anchor = get_hex_u64(&fields, "anchor").unwrap_or(0);
                        *detail.anchors.entry(anchor).or_insert(0) += 1;
                    }
                }
                detail
            })
            .collect()
    }

    /// Persists a complete (or partial) run of `spec` as the segment
    /// for `(spec.program, spec.module_fp, machine_fp)`, replacing any
    /// previous segment atomically (write-then-rename; a failed write
    /// or rename removes its temp file). Segments of the same program
    /// under the same machine config but a *different* module
    /// fingerprint are then pruned (`prune_stale`) — they can never
    /// match again once the source changed.
    ///
    /// [`Orchestrator::run_spec_with`] skips this call when a run
    /// replayed an intact current-format segment in full: every
    /// outcome it would write is already on disk.
    ///
    /// # Errors
    ///
    /// Reports I/O failures and outcomes that don't belong to `spec`.
    pub fn save(&self, spec: &CampaignSpec, machine_fp: u64, run: &ShardRun) -> Result<(), String> {
        let key_by_index: HashMap<usize, (u64, u64)> = spec
            .units
            .iter()
            .map(|u| (u.index, (u.store_key(), u.anchor)))
            .collect();
        let mut doc = format!(
            "{{\"kind\":\"campaign_store\",\"format\":{SEGMENT_FORMAT},\"program\":\"{}\",\"module_fp\":\"{:016x}\",\"machine_fp\":\"{:016x}\",\"lines\":{}}}\n",
            escape(&spec.program),
            spec.module_fp,
            machine_fp,
            run.outcomes.len(),
        );
        for o in &run.outcomes {
            let (key, anchor) = key_by_index
                .get(&o.index)
                .ok_or_else(|| format!("outcome index {} is not in the spec", o.index))?;
            // The anchor is advisory (replay keys on `unit` alone) but
            // makes segments inspectable: `nfi store inspect` groups
            // lines by anchor to show what a warm edit would keep.
            doc.push_str(&format!(
                "{{\"kind\":\"stored\",\"unit\":\"{key:016x}\",\"anchor\":\"{anchor:016x}\",\"outcome\":\"{}\"}}\n",
                escape(&o.line)
            ));
        }
        let path = self.segment_path(&spec.program, spec.module_fp, machine_fp);
        // The temp name is writer-unique (pid + counter): a program-
        // fingerprint collision would let two writers share a segment
        // address, and a fixed temp name would then interleave their
        // bytes. With unique temps each rename publishes one internally
        // consistent segment; last writer wins, and the loser's next
        // load reports the header mismatch and re-executes.
        static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "jsonl.{}-{}.tmp",
            std::process::id(),
            SAVE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let written = std::fs::write(&tmp, doc)
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))
            .and_then(|()| {
                std::fs::rename(&tmp, &path)
                    .map_err(|e| format!("cannot move segment into place: {e}"))
            });
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written?;
        self.prune_stale(&spec.program, spec.module_fp, machine_fp);
        Ok(())
    }

    /// Lists every segment in the store with its decoded header, plus
    /// files that *should* be segments but have no readable header
    /// (crashed writes, editor accidents) as [`SegmentInfo::orphan`]s.
    pub fn segments(&self) -> Vec<SegmentInfo> {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if !path.is_file() {
                continue;
            }
            let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            let ext = path.extension().and_then(|e| e.to_str());
            if ext == Some("tmp") {
                out.push(SegmentInfo::orphan(path, bytes, "leftover temp file"));
                continue;
            }
            if ext != Some("jsonl") {
                continue;
            }
            let header = std::fs::File::open(&path).ok().and_then(first_line);
            let parsed = header.as_deref().map(parse_flat_object);
            match parsed {
                Some(Ok(fields)) => match (
                    fields.get("program").and_then(JsonValue::as_str),
                    get_hex_u64(&fields, "module_fp"),
                    get_hex_u64(&fields, "machine_fp"),
                ) {
                    (Some(program), Ok(module_fp), Ok(machine_fp)) => out.push(SegmentInfo {
                        path,
                        bytes,
                        program: Some(program.to_string()),
                        module_fp: Some(module_fp),
                        machine_fp: Some(machine_fp),
                        note: None,
                    }),
                    _ => out.push(SegmentInfo::orphan(path, bytes, "incomplete store header")),
                },
                _ => out.push(SegmentInfo::orphan(path, bytes, "unreadable store header")),
            }
        }
        out.sort_by(|a, b| a.path.cmp(&b.path));
        out
    }

    /// Garbage-collects the store against `live` program names: removes
    /// every segment whose header names a program outside the set, and
    /// every orphan (headerless file, leftover temp file). This is the
    /// manual companion to the automatic per-save pruning, which only
    /// ever sees programs that are still being run — segments of
    /// *deleted* programs linger until this sweeps them.
    ///
    /// With `dry_run` nothing is removed; the report lists what would
    /// go. Removal failures are reported in [`GcReport::errors`] and do
    /// not abort the sweep.
    pub fn gc(&self, live: &HashSet<&str>, dry_run: bool) -> GcReport {
        let mut report = GcReport {
            dry_run,
            ..GcReport::default()
        };
        for seg in self.segments() {
            let reason = match &seg.program {
                Some(p) if live.contains(p.as_str()) => {
                    report.kept += 1;
                    continue;
                }
                Some(p) => format!("program `{p}` is no longer present"),
                None => format!(
                    "orphan: {}",
                    seg.note.as_deref().unwrap_or("no valid store header")
                ),
            };
            if !dry_run {
                if let Err(e) = std::fs::remove_file(&seg.path) {
                    report
                        .errors
                        .push(format!("cannot remove {}: {e}", seg.path.display()));
                    continue;
                }
            }
            report.removed.push((seg, reason));
        }
        report
    }

    /// Removes segments recorded for `program` under `machine_fp` whose
    /// module fingerprint differs from `keep_fp` (the source changed;
    /// those outcomes can never be replayed again).
    ///
    /// Only files *named* for this program and machine config are
    /// candidates, so a save costs the program's own segments, not a
    /// scan of every header in the store. A candidate goes only if its
    /// header names this program and machine fingerprint verbatim, so
    /// a program-fingerprint collision never removes another program's
    /// segment. Files under the older two-part naming scheme
    /// (`{module_fp}-{machine_fp}.jsonl`) are never candidates.
    /// Best-effort: prune failures are ignored — a stale segment is
    /// wasted disk, not a correctness problem.
    fn prune_stale(&self, program: &str, keep_fp: u64, machine_fp: u64) {
        for old_fp in self.named_segments(program, machine_fp) {
            if old_fp == keep_fp {
                continue;
            }
            let path = self.segment_path(program, old_fp, machine_fp);
            let header = std::fs::File::open(&path).ok().and_then(first_line);
            let owned = header
                .and_then(|line| parse_flat_object(&line).ok())
                .is_some_and(|fields| {
                    fields.get("program").and_then(JsonValue::as_str) == Some(program)
                        && get_hex_u64(&fields, "machine_fp") == Ok(machine_fp)
                });
            if owned {
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

/// fnv1a-64 over `bytes` — segment and lock-file naming.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Advisory per-(program, machine-fingerprint) segment locks.
///
/// Store writers follow load → execute → save; two writers
/// interleaving that cycle on one program's segment would double-run
/// work at best and prune each other's freshly saved segments at
/// worst. Every orchestrated run therefore holds the segment's lock
/// for the whole cycle, at two levels:
///
/// * an **in-process keyed mutex** — the concurrent scheduler lanes of
///   one `nfi serve` daemon share an orchestrator and thus this table;
/// * an **advisory `flock`ed lock file** under `<state_dir>/locks/` —
///   separate processes on the same state dir (a daemon plus
///   concurrent offline `campaign run`s) serialize here. The kernel
///   releases `flock`s when their holder dies, so a crashed or
///   SIGKILLed daemon can never wedge the store. (Two *daemons* never
///   share a state dir at all — `nfi serve` holds an exclusive
///   daemon-level lock, because the job journal and worker exchange
///   dir are single-owner resources.)
///
/// The key is (program, machine fingerprint), not the segment's full
/// (program, module fingerprint, machine fingerprint) address: saving
/// a segment also prunes the *other* module fingerprints of the same
/// program, so the program is the true write-conflict unit. The
/// in-process table keys on the verbatim name (no collisions); the
/// lock *files* key on its fnv1a fingerprint, where a collision only
/// over-serializes two unrelated programs — never corrupts.
///
/// Reads need no lock: segment replacement is write-then-rename, so a
/// reader always sees a complete old or complete new segment.
pub struct SegmentLocks {
    root: PathBuf,
    held: Mutex<HashSet<(String, u64)>>,
    released: Condvar,
}

impl SegmentLocks {
    /// The lock table rooted at `<state_dir>/locks` (created lazily on
    /// first acquire).
    pub fn open(state_dir: impl AsRef<Path>) -> SegmentLocks {
        SegmentLocks {
            root: state_dir.as_ref().join("locks"),
            held: Mutex::new(HashSet::new()),
            released: Condvar::new(),
        }
    }

    /// Blocks until this process and this machine agree the caller is
    /// the only writer of `(program, machine_fp)`, then returns the
    /// guard that holds both levels until dropped.
    ///
    /// The file level is best-effort: a filesystem without `flock`
    /// support degrades to in-process-only locking rather than
    /// failing the run (the lock is advisory either way).
    pub fn acquire(&self, program: &str, machine_fp: u64) -> SegmentGuard<'_> {
        let key = (program.to_string(), machine_fp);
        let mut held = self.held.lock().unwrap_or_else(|e| e.into_inner());
        while held.contains(&key) {
            held = self.released.wait(held).unwrap_or_else(|e| e.into_inner());
        }
        held.insert(key.clone());
        drop(held);
        let name = fnv1a(program.as_bytes()) ^ machine_fp.rotate_left(32);
        let file = std::fs::create_dir_all(&self.root).ok().and_then(|()| {
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(self.root.join(format!("{name:016x}.lock")))
                .ok()
        });
        let file = file.filter(|f| f.lock().is_ok());
        SegmentGuard {
            locks: self,
            key,
            _file: file,
        }
    }
}

/// A held segment lock ([`SegmentLocks::acquire`]); both levels release
/// on drop (the `flock` when the file handle closes).
pub struct SegmentGuard<'a> {
    locks: &'a SegmentLocks,
    key: (String, u64),
    _file: Option<std::fs::File>,
}

impl Drop for SegmentGuard<'_> {
    fn drop(&mut self) {
        let mut held = self.locks.held.lock().unwrap_or_else(|e| e.into_inner());
        held.remove(&self.key);
        self.locks.released.notify_all();
    }
}

/// One store segment (or a file posing as one) as seen by
/// [`CampaignStore::segments`] / [`CampaignStore::gc`].
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// File path under the store root.
    pub path: PathBuf,
    /// On-disk size in bytes.
    pub bytes: u64,
    /// Program named by the header (`None` for orphans).
    pub program: Option<String>,
    /// Module fingerprint from the header (`None` for orphans).
    pub module_fp: Option<u64>,
    /// Machine fingerprint from the header (`None` for orphans).
    pub machine_fp: Option<u64>,
    /// Why this file is an orphan (`None` for intact segments).
    pub note: Option<String>,
}

impl SegmentInfo {
    fn orphan(path: PathBuf, bytes: u64, note: &str) -> SegmentInfo {
        SegmentInfo {
            path,
            bytes,
            program: None,
            module_fp: None,
            machine_fp: None,
            note: Some(note.to_string()),
        }
    }
}

/// One segment's full debugging view ([`CampaignStore::inspect`], the
/// engine of `nfi store inspect`).
#[derive(Debug, Clone)]
pub struct SegmentDetail {
    /// Header identity (same record `segments()` lists).
    pub info: SegmentInfo,
    /// Declared segment format (1 for pre-versioning headers, 0 when
    /// no header decoded at all).
    pub format: u32,
    /// Intact stored lines.
    pub lines: usize,
    /// Stored-line count per structural anchor (pre-anchor lines all
    /// group under anchor 0).
    pub anchors: std::collections::BTreeMap<u64, usize>,
}

/// What a [`CampaignStore::gc`] sweep did (or, dry-run, would do).
#[derive(Debug, Default)]
pub struct GcReport {
    /// Removed (or removable) segments with the reason each one went.
    pub removed: Vec<(SegmentInfo, String)>,
    /// Segments kept because their program is live.
    pub kept: usize,
    /// Whether this was a listing-only pass.
    pub dry_run: bool,
    /// Removal failures (sweep continued past them).
    pub errors: Vec<String>,
}

impl GcReport {
    /// Total bytes the removed segments occupied.
    pub fn bytes_removed(&self) -> u64 {
        self.removed.iter().map(|(s, _)| s.bytes).sum()
    }
}

/// Reads the first line of an open file (header sniffing for prune).
fn first_line(file: std::fs::File) -> Option<String> {
    use std::io::{BufRead, BufReader};
    let mut line = String::new();
    BufReader::new(file).read_line(&mut line).ok()?;
    let trimmed = line.trim_end_matches('\n');
    (!trimmed.is_empty()).then(|| trimmed.to_string())
}

/// What one incremental program run did: how much the store replayed,
/// how much had to execute, and the merged canonical document.
#[derive(Debug)]
pub struct IncrementalRun {
    /// Program name from the spec.
    pub program: String,
    /// Total units in the campaign.
    pub units: usize,
    /// Units replayed from the store — fast-path verbatim replays
    /// *plus* anchor-fallback replays (so `units - replayed - executed`
    /// stays the uncovered remainder either way).
    pub replayed: usize,
    /// Units executed this run (store misses + corrupt lines).
    pub executed: usize,
    /// Of `replayed`, how many came through the anchor fallback (a
    /// warm edit replaying the previous segment). Zero on the
    /// module-fingerprint fast path.
    pub anchor_replayed: usize,
    /// Units the anchor fallback was consulted for but could not
    /// cover (changed-function units of a warm edit). Zero when no
    /// fallback segment was consulted.
    pub anchor_missed: usize,
    /// Store corruption reports (each fell back to re-execution).
    pub store_errors: Vec<String>,
    /// The merged run — byte-identical to an unsharded cold run.
    pub run: ShardRun,
}

/// The host-level campaign orchestrator: plan → replay from the store
/// → dispatch misses to workers → collect shard documents → merge →
/// persist. See the module docs for the trust argument.
pub struct Orchestrator {
    /// The backing store.
    pub store: CampaignStore,
    /// Per-(program, machine-fp) segment locks every run holds for its
    /// load → execute → save cycle. Callers running concurrent lanes
    /// must share one orchestrator (the in-process level of the lock
    /// lives here); separate processes meet at the lock files.
    pub locks: SegmentLocks,
    /// Worker count for miss execution (in-process workers; clamped to
    /// at least 1 and at most the miss count).
    pub workers: usize,
    /// Machine configuration every experiment runs under (its
    /// fingerprint is half the segment address).
    pub machine: MachineConfig,
    /// Engine configuration *within* one worker (threads, caches).
    pub config: ExecConfig,
    /// Scheduler seed stamped on planned units.
    pub seed: u64,
    /// Whether a module-fingerprint miss may fall back to anchor
    /// replay from the program's previous segment (on by default;
    /// `--no-anchor-reuse` forces every warm edit to re-execute in
    /// full).
    pub anchor_reuse: bool,
}

impl Orchestrator {
    /// An orchestrator with sequential single-worker defaults over the
    /// store at `state_dir`.
    ///
    /// # Errors
    ///
    /// Propagates [`CampaignStore::open`] failures.
    pub fn new(state_dir: impl AsRef<Path>) -> Result<Orchestrator, String> {
        Ok(Orchestrator {
            store: CampaignStore::open(&state_dir)?,
            locks: SegmentLocks::open(&state_dir),
            workers: 1,
            machine: MachineConfig::default(),
            config: ExecConfig::sequential(),
            seed: MachineConfig::default().seed,
            anchor_reuse: true,
        })
    }

    /// Plans `source` and runs it incrementally ([`Self::run_spec`]).
    ///
    /// # Errors
    ///
    /// Reports an unparseable source or a failed execution/merge/save.
    pub fn run_program(&self, program: &str, source: &str) -> Result<IncrementalRun, String> {
        let spec = service::plan_campaign(program, source, self.seed)?;
        self.run_spec(&spec)
    }

    /// Runs one spec incrementally: units whose outcome line is in the
    /// store are replayed verbatim and re-emitted; only the rest
    /// execute, striped across the workers. The merged document is
    /// byte-identical to an unsharded cold run and is written back as
    /// the new store segment.
    ///
    /// # Errors
    ///
    /// Reports execution, merge, and store-write failures. Store
    /// *corruption* is not an error — it degrades to re-execution and
    /// is reported in [`IncrementalRun::store_errors`].
    pub fn run_spec(&self, spec: &CampaignSpec) -> Result<IncrementalRun, String> {
        self.run_spec_with(spec, |spec, missing| self.dispatch(spec, missing))
    }

    /// [`Self::run_spec`] with a caller-supplied dispatcher for the
    /// store misses: `dispatch` receives the spec and the sorted global
    /// indices of the units the store could not replay, and must return
    /// shard runs that together cover exactly those indices (each with
    /// `total` equal to the full spec's unit count).
    ///
    /// This seam is the dispatch-tier abstraction. Three dispatchers
    /// exist today: the default [`Self::run_spec`] stripes misses over
    /// in-process worker threads; `nfi-serve`'s process pool spawns
    /// `nfi campaign exec --shard i/n` children; and its worker fleet
    /// hash-shards the miss set into subset specs
    /// ([`CampaignSpec::subset`]) pulled by remote `nfi worker` nodes.
    ///
    /// # Protocol invariants
    ///
    /// * **Byte-identical merge.** Replay, merge, and segment
    ///   persistence are this function, regardless of dispatcher — so
    ///   a dispatcher that returns correct shard runs yields a document
    ///   byte-identical to an offline `campaign run`, whether the
    ///   units executed in-process, in a child, or across the network.
    /// * **No overlapping coverage.** The returned runs must cover
    ///   each missing index exactly once; [`service::merge`] refuses
    ///   duplicates. A dispatcher with at-least-once execution (the
    ///   remote fleet requeues assignments from lost workers) must
    ///   dedup results *before* returning — the fleet keeps only the
    ///   first document per assignment.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::run_spec`]; dispatcher errors propagate.
    pub fn run_spec_with(
        &self,
        spec: &CampaignSpec,
        dispatch: impl FnOnce(&CampaignSpec, &[usize]) -> Result<Vec<ShardRun>, String>,
    ) -> Result<IncrementalRun, String> {
        let machine_fp = self.machine.fingerprint();
        // Single writer per segment: the whole load → dispatch → save
        // cycle runs under the segment lock, so concurrent lanes (and
        // concurrent processes) on the same program serialize — the
        // second runner replays what the first one saved.
        let _guard = self.locks.acquire(&spec.program, machine_fp);
        let replay_span = Span::enter_with("store_replay", Some(phase_hist("store_replay")));
        let mut segment = self.store.load(&spec.program, spec.module_fp, machine_fp);
        // A clean fingerprint miss (no segment at this address, not
        // even a corrupt one) is the warm-edit case: look for the
        // program's previous segment and replay by anchor-stable key.
        let fallback = if self.anchor_reuse && segment.lines.is_empty() && segment.errors.is_empty()
        {
            let _anchor_span =
                Span::enter_with("anchor_fallback", Some(phase_hist("anchor_fallback")));
            self.store
                .previous_segment(&spec.program, spec.module_fp, machine_fp)
        } else {
            None
        };
        let mut replayed = Vec::new();
        let mut missing = HashSet::new();
        let mut anchor_replayed = 0usize;
        let mut anchor_missed = 0usize;
        for unit in &spec.units {
            if let Some((_, previous)) = &fallback {
                // Anchor-fallback replay: the unit's key is anchor-
                // stable, so an unchanged enclosing function resolves
                // in the previous segment even though statement ids,
                // lines, and the module fingerprint all shifted. Only
                // the enumeration index is version-bound — rewrite it
                // and re-render through the canonical encoder, which
                // keeps the merged document byte-identical to a cold
                // run of the edited module (the runtime outcome of an
                // untouched function is unchanged by construction).
                match previous.lines.get(&unit.store_key()) {
                    Some(line) => match ShardOutcome::decode(line) {
                        Ok(o) if o.operator == unit.operator && o.class == unit.class.key() => {
                            anchor_replayed += 1;
                            replayed.push(o.reindexed(unit.index));
                        }
                        _ => {
                            anchor_missed += 1;
                            missing.insert(unit.index);
                        }
                    },
                    None => {
                        anchor_missed += 1;
                        missing.insert(unit.index);
                    }
                }
                continue;
            }
            match segment.lines.get(&unit.store_key()) {
                Some(line) => match ShardOutcome::decode(line) {
                    // A replayed payload must still describe this unit
                    // — index, operator, and class are all cheap to
                    // cross-check, so a garbled-but-decodable payload
                    // degrades to re-execution like any other
                    // corruption instead of silently changing a result.
                    Ok(o)
                        if o.index == unit.index
                            && o.operator == unit.operator
                            && o.class == unit.class.key() =>
                    {
                        replayed.push(o)
                    }
                    Ok(o) => {
                        segment.errors.push(format!(
                            "stored outcome for unit {} describes ({}, {}, {}), expected \
                             ({}, {}, {}); re-executing",
                            unit.index,
                            o.index,
                            o.operator,
                            o.class,
                            unit.index,
                            unit.operator,
                            unit.class.key(),
                        ));
                        missing.insert(unit.index);
                    }
                    Err(e) => {
                        segment
                            .errors
                            .push(format!("unit {}: {e}; re-executing", unit.index));
                        missing.insert(unit.index);
                    }
                },
                None => {
                    missing.insert(unit.index);
                }
            }
        }
        // A full fast-path replay of an intact current-format segment:
        // every outcome a save would write is already on disk, verbatim,
        // and that segment's own save already pruned its stale siblings.
        // Any miss, anchor fallback, corruption or format-1 header still
        // saves, which is how repair and migration happen.
        let unchanged = fallback.is_none()
            && missing.is_empty()
            && segment.errors.is_empty()
            && segment.header_valid
            && segment.format == SEGMENT_FORMAT;
        // Corruption in the fallback segment degraded those units to
        // re-execution; surface the reports the same way fast-path
        // corruption is surfaced.
        if let Some((_, previous)) = fallback {
            segment.errors.extend(previous.errors);
        }
        drop(replay_span);
        let replayed_count = replayed.len();
        let mut runs = vec![ShardRun {
            program: spec.program.clone(),
            module_fp: spec.module_fp,
            total: spec.units.len(),
            outcomes: replayed,
        }];
        if !missing.is_empty() {
            let mut indices: Vec<usize> = missing.iter().copied().collect();
            indices.sort_unstable();
            let _execute_span = Span::enter_with("execute", Some(phase_hist("execute")));
            runs.extend(dispatch(spec, &indices)?);
        }
        let merged = {
            let _merge_span = Span::enter_with("merge", Some(phase_hist("merge")));
            service::merge(&runs)?
        };
        {
            let _persist_span = Span::enter_with("persist", Some(phase_hist("persist")));
            if !unchanged {
                self.store.save(spec, machine_fp, &merged)?;
            }
        }
        // Executed is counted from what actually came back, not from
        // what was dispatched: a supervised dispatcher (the serve
        // worker pool) may legally return *partial* coverage when a
        // unit exhausts its retries, and the saved segment is then
        // partial too. `units - replayed - executed` is exactly the
        // uncovered remainder.
        Ok(IncrementalRun {
            program: spec.program.clone(),
            units: spec.units.len(),
            replayed: replayed_count,
            executed: merged.outcomes.len().saturating_sub(replayed_count),
            anchor_replayed,
            anchor_missed,
            store_errors: segment.errors,
            run: merged,
        })
    }

    /// Read-only full replay: the merged document of `spec` rebuilt
    /// purely from the on-disk segment, or `None` unless *every* unit
    /// replays cleanly (missing segment, missing lines, or any
    /// corruption all answer `None` — the caller falls back to a
    /// normal [`Self::run_spec`], which re-executes and re-saves).
    ///
    /// This is what lets a serving daemon stream finished documents
    /// from the store instead of buffering them in memory: the
    /// replayed lines are re-emitted verbatim, so the rebuilt document
    /// is byte-identical to the one the original run produced. Takes
    /// no segment lock — segment replacement is atomic-rename, so a
    /// read sees a complete old or complete new segment.
    pub fn replay_full(&self, spec: &CampaignSpec) -> Option<String> {
        let machine_fp = self.machine.fingerprint();
        let segment = self.store.load(&spec.program, spec.module_fp, machine_fp);
        if !segment.errors.is_empty() {
            return None;
        }
        let mut replayed = Vec::with_capacity(spec.units.len());
        for unit in &spec.units {
            let line = segment.lines.get(&unit.store_key())?;
            let outcome = ShardOutcome::decode(line).ok()?;
            if outcome.index != unit.index
                || outcome.operator != unit.operator
                || outcome.class != unit.class.key()
            {
                return None;
            }
            replayed.push(outcome);
        }
        let run = ShardRun {
            program: spec.program.clone(),
            module_fp: spec.module_fp,
            total: spec.units.len(),
            outcomes: replayed,
        };
        service::merge(&[run]).ok().map(|merged| merged.encode())
    }

    /// The default dispatcher: stripes the missing unit indices
    /// round-robin across the workers and executes each stripe on its
    /// own in-process worker thread. Every worker hands back an
    /// *encoded* shard document — the same artifact the spawned
    /// `nfi campaign exec --shard` processes of `nfi serve` hand back —
    /// which the orchestrator decodes and merges, so the two worker
    /// transports are interchangeable without any data-flow change.
    fn dispatch(&self, spec: &CampaignSpec, indices: &[usize]) -> Result<Vec<ShardRun>, String> {
        let workers = self.workers.clamp(1, indices.len());
        let stripes: Vec<HashSet<usize>> = (0..workers)
            .map(|w| {
                indices
                    .iter()
                    .skip(w)
                    .step_by(workers)
                    .copied()
                    .collect::<HashSet<usize>>()
            })
            .collect();
        // Shard threads inherit the dispatching thread's trace context
        // so their spans nest under the execute phase.
        let context = nfi_telemetry::trace::current_context();
        let docs: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = stripes
                .iter()
                .map(|stripe| {
                    let context = context.clone();
                    scope.spawn(move || {
                        let _ctx = context.map(|(trace, parent)| {
                            nfi_telemetry::trace::push_context(trace, parent)
                        });
                        let _span = Span::enter("exec_shard");
                        service::exec_units(spec, &self.machine, self.config, |u: &WorkUnit| {
                            stripe.contains(&u.index)
                        })
                        .map(|run| run.encode())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "worker panicked".to_string())?)
                .collect::<Result<Vec<String>, String>>()
        })?;
        docs.iter()
            .map(|doc| ShardRun::decode(doc).map_err(|e| format!("worker document: {e}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOURCE: &str = "\
m = lock()
total = 0
def add(v):
    global total
    m.acquire()
    total = total + v
    m.release()
    return total
def test_add():
    assert add(1) == 1
";

    fn state_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nfi-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cold_then_warm_run_replays_everything_byte_identically() {
        let dir = state_dir("warm");
        let orch = Orchestrator::new(&dir).unwrap();
        let cold = orch.run_program("demo", SOURCE).unwrap();
        assert_eq!(cold.replayed, 0);
        assert_eq!(cold.executed, cold.units);
        assert!(cold.store_errors.is_empty());
        let warm = orch.run_program("demo", SOURCE).unwrap();
        assert_eq!(warm.executed, 0, "warm run must execute no units");
        assert_eq!(warm.replayed, warm.units);
        assert_eq!(warm.run.encode(), cold.run.encode());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_document_matches_the_plain_service_run() {
        let dir = state_dir("parity");
        let orch = Orchestrator::new(&dir).unwrap();
        orch.run_program("demo", SOURCE).unwrap();
        let warm = orch.run_program("demo", SOURCE).unwrap();
        let spec = service::plan_campaign("demo", SOURCE, orch.seed).unwrap();
        let direct = service::exec_spec(&spec, &orch.machine, ExecConfig::sequential()).unwrap();
        assert_eq!(warm.run.encode(), direct.encode());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_worker_dispatch_is_byte_identical_to_single_worker() {
        let dir_a = state_dir("w1");
        let dir_b = state_dir("w4");
        let one = Orchestrator::new(&dir_a).unwrap();
        let four = Orchestrator {
            workers: 4,
            ..Orchestrator::new(&dir_b).unwrap()
        };
        let a = one.run_program("demo", SOURCE).unwrap();
        let b = four.run_program("demo", SOURCE).unwrap();
        assert_eq!(a.run.encode(), b.run.encode());
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn source_edit_invalidates_the_segment_and_prunes_the_old_one() {
        let dir = state_dir("edit");
        let orch = Orchestrator::new(&dir).unwrap();
        let first = orch.run_program("demo", SOURCE).unwrap();
        // A body edit inside `add`: its units re-execute, everything
        // outside the function anchor-replays from the old segment.
        let edited = SOURCE.replace("total + v", "total + v + 0");
        let second = orch.run_program("demo", &edited).unwrap();
        let spec = service::plan_campaign("demo", &edited, orch.seed).unwrap();
        let in_add = spec
            .units
            .iter()
            .filter(|u| u.site.function.as_deref() == Some("add"))
            .count();
        assert!(in_add > 0 && in_add < spec.units.len());
        assert_eq!(second.executed, in_add, "only add's units re-execute");
        assert_eq!(second.replayed, second.units - in_add);
        assert_eq!(second.anchor_replayed, second.replayed);
        assert_eq!(second.anchor_missed, in_add);
        // The replay-spliced document is byte-identical to a cold run
        // of the edited source.
        let direct = service::exec_spec(&spec, &orch.machine, ExecConfig::sequential()).unwrap();
        assert_eq!(second.run.encode(), direct.encode());
        let machine_fp = orch.machine.fingerprint();
        let old = orch
            .store
            .segment_path("demo", first.run.module_fp, machine_fp);
        assert!(!old.exists(), "stale segment should be pruned");
        // And the edited program is now warm on the fast path.
        let third = orch.run_program("demo", &edited).unwrap();
        assert_eq!(third.executed, 0);
        assert_eq!(third.anchor_replayed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn top_level_edit_reuses_function_units_with_shifted_indices() {
        let dir = state_dir("edit-top");
        let orch = Orchestrator::new(&dir).unwrap();
        orch.run_program("demo", SOURCE).unwrap();
        // Appending a top-level statement changes the shared top-level
        // anchor (those units re-execute) and shifts enumeration
        // indices, so function units replay *re-indexed*.
        let edited = format!("{SOURCE}edited_marker = 1\n");
        let second = orch.run_program("demo", &edited).unwrap();
        let spec = service::plan_campaign("demo", &edited, orch.seed).unwrap();
        let top_level = spec
            .units
            .iter()
            .filter(|u| u.site.function.is_none())
            .count();
        assert_eq!(
            second.executed, top_level,
            "only top-level units re-execute"
        );
        assert_eq!(second.anchor_replayed, second.units - top_level);
        assert!(second.anchor_replayed > 0);
        let direct = service::exec_spec(&spec, &orch.machine, ExecConfig::sequential()).unwrap();
        assert_eq!(second.run.encode(), direct.encode());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn anchor_reuse_can_be_disabled() {
        let dir = state_dir("edit-noanchor");
        let orch = Orchestrator {
            anchor_reuse: false,
            ..Orchestrator::new(&dir).unwrap()
        };
        orch.run_program("demo", SOURCE).unwrap();
        let edited = SOURCE.replace("total + v", "total + v + 0");
        let second = orch.run_program("demo", &edited).unwrap();
        assert_eq!(second.replayed, 0, "no anchor reuse: full re-execution");
        assert_eq!(second.executed, second.units);
        assert_eq!(second.anchor_replayed, 0);
        assert_eq!(second.anchor_missed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_anchor_segments_degrade_to_full_re_execution() {
        let dir = state_dir("edit-v1");
        let orch = Orchestrator::new(&dir).unwrap();
        let cold = orch.run_program("demo", SOURCE).unwrap();
        // Downgrade the saved segment to format 1 in place: a real
        // pre-anchor segment would also carry incompatible keys, but
        // the format gate alone must already refuse the fallback.
        let machine_fp = orch.machine.fingerprint();
        let path = orch
            .store
            .segment_path("demo", cold.run.module_fp, machine_fp);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"format\":2,", "")).unwrap();
        let edited = SOURCE.replace("total + v", "total + v + 0");
        let second = orch.run_program("demo", &edited).unwrap();
        assert_eq!(second.anchor_replayed, 0, "format-1 segments never donate");
        assert_eq!(second.executed, second.units);
        // Never a changed byte either way.
        let spec = service::plan_campaign("demo", &edited, orch.seed).unwrap();
        let direct = service::exec_spec(&spec, &orch.machine, ExecConfig::sequential()).unwrap();
        assert_eq!(second.run.encode(), direct.encode());
        // The migrated save is format 2 and warm again.
        let third = orch.run_program("demo", &edited).unwrap();
        assert_eq!(third.executed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_fallback_lines_degrade_to_re_execution_only() {
        let dir = state_dir("edit-corrupt");
        let orch = Orchestrator::new(&dir).unwrap();
        let cold = orch.run_program("demo", SOURCE).unwrap();
        let machine_fp = orch.machine.fingerprint();
        let path = orch
            .store
            .segment_path("demo", cold.run.module_fp, machine_fp);
        // Garble one stored line of the would-be fallback segment.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[1] = lines[1].replace("\"outcome\"", "\"outcom\"");
        std::fs::write(&path, lines.join("\n")).unwrap();
        let edited = SOURCE.replace("total + v", "total + v + 0");
        let second = orch.run_program("demo", &edited).unwrap();
        assert!(
            !second.store_errors.is_empty(),
            "fallback corruption must be reported"
        );
        let spec = service::plan_campaign("demo", &edited, orch.seed).unwrap();
        let direct = service::exec_spec(&spec, &orch.machine, ExecConfig::sequential()).unwrap();
        assert_eq!(second.run.encode(), direct.encode());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_lines_are_reported_and_re_executed() {
        let dir = state_dir("corrupt");
        let orch = Orchestrator::new(&dir).unwrap();
        let cold = orch.run_program("demo", SOURCE).unwrap();
        let machine_fp = orch.machine.fingerprint();
        let path = orch
            .store
            .segment_path("demo", cold.run.module_fp, machine_fp);
        // Garble one stored line and truncate the tail.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let n = lines.len();
        lines[1] = lines[1].replace("\"kind\":\"stored\"", "\"kind\":\"stor");
        lines.truncate(n - 1);
        std::fs::write(&path, lines.join("\n")).unwrap();

        let repaired = orch.run_program("demo", SOURCE).unwrap();
        assert!(
            !repaired.store_errors.is_empty(),
            "corruption must be reported"
        );
        assert_eq!(
            repaired.executed, 2,
            "exactly the garbled and truncated units re-execute"
        );
        assert_eq!(repaired.replayed, repaired.units - 2);
        assert_eq!(
            repaired.run.encode(),
            cold.run.encode(),
            "repair must be byte-identical to the cold run"
        );
        // The repaired segment is fully warm again.
        let warm = orch.run_program("demo", SOURCE).unwrap();
        assert_eq!(warm.executed, 0);
        assert!(warm.store_errors.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decodable_payload_describing_the_wrong_plan_is_not_replayed() {
        let dir = state_dir("wrongplan");
        let orch = Orchestrator::new(&dir).unwrap();
        let cold = orch.run_program("demo", SOURCE).unwrap();
        let machine_fp = orch.machine.fingerprint();
        let path = orch
            .store
            .segment_path("demo", cold.run.module_fp, machine_fp);
        // Swap one payload's operator for another valid-looking key:
        // the line still parses and its index still matches, but it no
        // longer describes the unit it is filed under.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let target = lines
            .iter()
            .position(|l| l.contains("operator"))
            .expect("a stored line");
        let op_start = lines[target]
            .find("\\\"operator\\\":\\\"")
            .expect("escaped operator field")
            + "\\\"operator\\\":\\\"".len();
        let op_end = op_start + lines[target][op_start..].find('\\').unwrap();
        lines[target].replace_range(op_start..op_end, "BOGUS");
        std::fs::write(&path, lines.join("\n")).unwrap();

        let repaired = orch.run_program("demo", SOURCE).unwrap();
        assert_eq!(repaired.executed, 1, "the mismatched unit re-executes");
        assert!(repaired
            .store_errors
            .iter()
            .any(|e| e.contains("BOGUS") && e.contains("expected")));
        assert_eq!(repaired.run.encode(), cold.run.encode());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicated_unit_keys_stay_poisoned_past_a_third_occurrence() {
        let dir = state_dir("dup");
        let orch = Orchestrator::new(&dir).unwrap();
        let cold = orch.run_program("demo", SOURCE).unwrap();
        let machine_fp = orch.machine.fingerprint();
        let path = orch
            .store
            .segment_path("demo", cold.run.module_fp, machine_fp);
        // Append the first stored line twice more: three occurrences of
        // one key. None of them may be replayed.
        let text = std::fs::read_to_string(&path).unwrap();
        let dup = text.lines().nth(1).unwrap().to_string();
        std::fs::write(&path, format!("{text}{dup}\n{dup}\n")).unwrap();
        let rerun = orch.run_program("demo", SOURCE).unwrap();
        assert_eq!(rerun.executed, 1, "the poisoned unit must re-execute");
        assert!(rerun
            .store_errors
            .iter()
            .any(|e| e.contains("duplicate unit key")));
        assert_eq!(rerun.run.encode(), cold.run.encode());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identically_sourced_programs_own_separate_segments() {
        // The segment address includes the program name, so two
        // programs (e.g. two tenants' scoped names) with byte-identical
        // source never save over or prune each other.
        let dir = state_dir("samesource");
        let orch = Orchestrator::new(&dir).unwrap();
        let a = orch.run_program("alice:demo", SOURCE).unwrap();
        let b = orch.run_program("bob:demo", SOURCE).unwrap();
        assert_eq!(a.executed, a.units, "alice runs cold");
        assert_eq!(b.executed, b.units, "bob runs cold too — no shared segment");
        let machine_fp = orch.machine.fingerprint();
        assert_ne!(
            orch.store
                .segment_path("alice:demo", a.run.module_fp, machine_fp),
            orch.store
                .segment_path("bob:demo", b.run.module_fp, machine_fp),
        );
        // Both stay warm: neither save pruned or replaced the other.
        assert_eq!(orch.run_program("alice:demo", SOURCE).unwrap().executed, 0);
        assert_eq!(orch.run_program("bob:demo", SOURCE).unwrap().executed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_segment_naming_another_program_is_rejected_not_replayed() {
        // Program-fingerprint collisions in the file name are caught by
        // the verbatim header check: the loader reports the mismatch
        // and the caller re-executes.
        let dir = state_dir("headerprog");
        let orch = Orchestrator::new(&dir).unwrap();
        let cold = orch.run_program("demo", SOURCE).unwrap();
        let machine_fp = orch.machine.fingerprint();
        let path = orch
            .store
            .segment_path("demo", cold.run.module_fp, machine_fp);
        let other = orch
            .store
            .segment_path("other", cold.run.module_fp, machine_fp);
        std::fs::rename(&path, &other).unwrap();
        let seg = orch.store.load("other", cold.run.module_fp, machine_fp);
        assert!(seg
            .errors
            .iter()
            .any(|e| e.contains("names program `demo`, expected `other`")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_partially_covering_dispatcher_yields_per_unit_failure_accounting() {
        // A supervised dispatcher may legally return partial coverage
        // (a poisoned unit exhausted its retries). The run still
        // finishes; executed counts what actually came back and the
        // uncovered unit re-executes on the next run.
        let dir = state_dir("partial");
        let orch = Orchestrator::new(&dir).unwrap();
        let spec = service::plan_campaign("demo", SOURCE, orch.seed).unwrap();
        let result = orch
            .run_spec_with(&spec, |spec, missing| {
                // Cover everything except the last missing unit.
                let covered = &missing[..missing.len() - 1];
                let sub = spec.subset(covered);
                let doc = service::exec_spec(&sub, &orch.machine, ExecConfig::sequential())
                    .unwrap()
                    .encode();
                let mut run = ShardRun::decode(&doc).unwrap();
                run.total = spec.units.len();
                Ok(vec![run])
            })
            .unwrap();
        assert_eq!(result.replayed, 0);
        assert_eq!(
            result.executed,
            result.units - 1,
            "one unit stayed uncovered"
        );
        assert_eq!(result.run.outcomes.len(), result.units - 1);
        // The saved partial segment replays what it has; only the
        // uncovered unit executes on a plain follow-up run.
        let followup = orch.run_spec(&spec).unwrap();
        assert_eq!(followup.replayed, followup.units - 1);
        assert_eq!(followup.executed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_dead_programs_and_orphans_but_keeps_live_segments() {
        let dir = state_dir("gc");
        let orch = Orchestrator::new(&dir).unwrap();
        orch.run_program("alive", SOURCE).unwrap();
        // A different source, or the two programs would share one
        // (module fp, machine fp) segment address.
        let dead_source = format!("{SOURCE}dead_marker = 1\n");
        orch.run_program("dead", &dead_source).unwrap();
        // An orphan with no parseable header and a leftover temp file.
        let store_root = dir.join("store");
        std::fs::write(store_root.join("feedbeef.jsonl"), "not a header\n").unwrap();
        std::fs::write(store_root.join("feedbeef.jsonl.tmp"), "half-written").unwrap();

        let live: HashSet<&str> = ["alive"].into_iter().collect();
        let dry = orch.store.gc(&live, true);
        assert!(dry.dry_run);
        assert_eq!(
            dry.removed.len(),
            3,
            "dead + orphan + tmp: {:?}",
            dry.removed
        );
        assert_eq!(dry.kept, 1);
        assert!(dry.bytes_removed() > 0);
        // Dry run removed nothing.
        assert_eq!(orch.store.segments().len(), 4);

        let swept = orch.store.gc(&live, false);
        assert_eq!(swept.removed.len(), 3);
        assert!(swept.errors.is_empty(), "{:?}", swept.errors);
        assert!(swept
            .removed
            .iter()
            .any(|(s, reason)| s.program.as_deref() == Some("dead")
                && reason.contains("no longer present")));
        let left = orch.store.segments();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].program.as_deref(), Some("alive"));
        // The survivor still replays warm.
        let warm = orch.run_program("alive", SOURCE).unwrap();
        assert_eq!(warm.executed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_spec_with_accepts_an_external_dispatcher() {
        let dir = state_dir("extdispatch");
        let orch = Orchestrator::new(&dir).unwrap();
        let spec = service::plan_campaign("demo", SOURCE, orch.seed).unwrap();
        // A dispatcher that executes the misses through a *subset spec*
        // striped two ways — the exact artifact flow the serve daemon
        // uses with spawned `nfi campaign exec --shard i/n` children.
        let result = orch
            .run_spec_with(&spec, |spec, missing| {
                assert_eq!(missing.len(), spec.units.len(), "cold run misses all");
                assert!(missing.windows(2).all(|w| w[0] < w[1]), "sorted");
                let sub = spec.subset(missing);
                let mut runs = Vec::new();
                for index in 0..2 {
                    let config =
                        ExecConfig::sequential().sharded(nfi_sfi::Shard { index, count: 2 });
                    let doc = service::exec_spec(&sub, &orch.machine, config)
                        .unwrap()
                        .encode();
                    // Decoded from the wire document, total re-widened to
                    // the full spec as the serve worker pool does.
                    let mut run = ShardRun::decode(&doc).unwrap();
                    run.total = spec.units.len();
                    runs.push(run);
                }
                Ok(runs)
            })
            .unwrap();
        assert_eq!(result.executed, result.units);
        // Byte-identical to the plain in-process orchestrated run.
        let plain_dir = state_dir("extdispatch-plain");
        let plain = Orchestrator::new(&plain_dir).unwrap();
        let direct = plain.run_program("demo", SOURCE).unwrap();
        assert_eq!(result.run.encode(), direct.run.encode());
        // And the segment it persisted replays fully warm.
        let warm = orch.run_program("demo", SOURCE).unwrap();
        assert_eq!(warm.executed, 0);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&plain_dir);
    }

    #[test]
    fn segment_locks_serialize_one_key_and_admit_distinct_keys() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let dir = state_dir("locktable");
        let locks = Arc::new(SegmentLocks::open(&dir));
        let inside = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let locks = Arc::clone(&locks);
            let inside = Arc::clone(&inside);
            handles.push(std::thread::spawn(move || {
                for _ in 0..8 {
                    let _guard = locks.acquire("same-program", 7);
                    assert_eq!(
                        inside.fetch_add(1, Ordering::SeqCst),
                        0,
                        "two holders inside one (program, machine_fp) section"
                    );
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    inside.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        // A distinct key is admitted while `same-program` is held.
        let _held = locks.acquire("other-program", 7);
        let locks2 = Arc::clone(&locks);
        let other = std::thread::spawn(move || {
            let _guard = locks2.acquire("third-program", 7);
        });
        other.join().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_level_lock_serializes_separate_lock_tables() {
        // Two SegmentLocks instances share no in-process state — only
        // the flock files — which models two processes on one state
        // dir. flock conflicts are per open file description, so this
        // is testable without spawning.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let dir = state_dir("lockfile");
        let a = SegmentLocks::open(&dir);
        let b = Arc::new(SegmentLocks::open(&dir));
        let guard = a.acquire("prog", 42);
        let released = Arc::new(AtomicBool::new(false));
        let waiter = {
            let b = Arc::clone(&b);
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                let _guard = b.acquire("prog", 42);
                assert!(
                    released.load(Ordering::SeqCst),
                    "second table acquired the segment while the first still held it"
                );
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(100));
        released.store(true, Ordering::SeqCst);
        drop(guard);
        waiter.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_lanes_same_program_execute_once_without_interleaving() {
        // The satellite invariant behind `nfi serve --lanes`: two lanes
        // racing the same program serialize on the segment lock — one
        // runs cold, the other replays everything the first saved, and
        // both documents are byte-identical.
        let dir = state_dir("lanes");
        let orch = Orchestrator::new(&dir).unwrap();
        let spec = service::plan_campaign("demo", SOURCE, orch.seed).unwrap();
        let (a, b) = std::thread::scope(|scope| {
            let ra = scope.spawn(|| orch.run_spec(&spec).unwrap());
            let rb = scope.spawn(|| orch.run_spec(&spec).unwrap());
            (ra.join().unwrap(), rb.join().unwrap())
        });
        assert_eq!(
            a.executed + b.executed,
            a.units,
            "exactly one lane executes; the other replays ({} + {} != {})",
            a.executed,
            b.executed,
            a.units
        );
        assert_eq!(a.run.encode(), b.run.encode());
        let plain_dir = state_dir("lanes-plain");
        let plain = Orchestrator::new(&plain_dir).unwrap();
        let direct = plain.run_program("demo", SOURCE).unwrap();
        assert_eq!(a.run.encode(), direct.run.encode());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&plain_dir);
    }

    #[test]
    fn replay_full_rebuilds_the_exact_document_and_refuses_partial_segments() {
        let dir = state_dir("replayfull");
        let orch = Orchestrator::new(&dir).unwrap();
        let spec = service::plan_campaign("demo", SOURCE, orch.seed).unwrap();
        assert!(
            orch.replay_full(&spec).is_none(),
            "an empty store cannot replay"
        );
        let cold = orch.run_spec(&spec).unwrap();
        assert_eq!(
            orch.replay_full(&spec).as_deref(),
            Some(cold.run.encode().as_str()),
            "full replay must be byte-identical to the run that saved it"
        );
        // Drop one stored line: replay_full refuses rather than serving
        // a shorter document.
        let machine_fp = orch.machine.fingerprint();
        let path = orch.store.segment_path("demo", spec.module_fp, machine_fp);
        let text = std::fs::read_to_string(&path).unwrap();
        let truncated: Vec<&str> = text.lines().take(text.lines().count() - 1).collect();
        std::fs::write(&path, truncated.join("\n")).unwrap();
        assert!(orch.replay_full(&spec).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn temp_files(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir.join("store"))
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
            .collect()
    }

    #[test]
    fn a_full_fast_path_rerun_leaves_the_segment_untouched() {
        use nfi_telemetry::trace::{push_context, Trace, TraceId};
        let dir = state_dir("norewrite");
        let orch = Orchestrator::new(&dir).unwrap();
        let cold = orch.run_program("demo", SOURCE).unwrap();
        let path = orch
            .store
            .segment_path("demo", cold.run.module_fp, orch.machine.fingerprint());
        let bytes = std::fs::read(&path).unwrap();
        let before = std::fs::metadata(&path).unwrap();
        let trace = Trace::new(TraceId::mint());
        let warm = {
            let _ctx = push_context(trace.clone(), 0);
            orch.run_program("demo", SOURCE).unwrap()
        };
        assert_eq!(warm.replayed, warm.units);
        assert_eq!(warm.run.encode(), cold.run.encode());
        let after = std::fs::metadata(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        assert_eq!(after.modified().unwrap(), before.modified().unwrap());
        #[cfg(unix)]
        {
            use std::os::unix::fs::MetadataExt;
            assert_eq!(after.ino(), before.ino(), "no rename replaced the segment");
        }
        assert!(temp_files(&dir).is_empty());
        let persists = trace.spans().iter().filter(|s| s.name == "persist").count();
        assert_eq!(persists, 1, "the persist phase is still recorded");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reruns_over_a_damaged_or_old_segment_still_rewrite_it() {
        let dir = state_dir("rewrite");
        let orch = Orchestrator::new(&dir).unwrap();
        let cold = orch.run_program("demo", SOURCE).unwrap();
        let path = orch
            .store
            .segment_path("demo", cold.run.module_fp, orch.machine.fingerprint());
        let original = std::fs::read_to_string(&path).unwrap();
        let n = cold.units;
        let (count, fewer, more) = (
            format!("\"lines\":{n}"),
            format!("\"lines\":{}", n - 1),
            format!("\"lines\":{}", n + 1),
        );
        let damaged: Vec<(&str, String)> = vec![
            (
                "corrupt line",
                original.replacen("\"outcome\"", "\"outcom\"", 1),
            ),
            (
                "missing unit",
                original
                    .lines()
                    .take(n)
                    .collect::<Vec<_>>()
                    .join("\n")
                    .replacen(&count, &fewer, 1),
            ),
            ("format-1 header", original.replace("\"format\":2,", "")),
            ("miscounted header", original.replacen(&count, &more, 1)),
        ];
        for (case, text) in damaged {
            assert_ne!(text, original, "{case}: the damage took");
            std::fs::write(&path, &text).unwrap();
            let rerun = orch.run_program("demo", SOURCE).unwrap();
            assert_eq!(rerun.run.encode(), cold.run.encode(), "{case}");
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                original,
                "{case}: the re-run must rewrite the segment"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_prunes_only_this_programs_own_stale_segments() {
        let dir = state_dir("prune-own");
        let orch = Orchestrator::new(&dir).unwrap();
        let machine_fp = orch.machine.fingerprint();
        let first = orch.run_program("demo", SOURCE).unwrap();
        let other_source = format!("{SOURCE}other_marker = 1\n");
        let other = orch.run_program("other", &other_source).unwrap();
        let stale = orch
            .store
            .segment_path("demo", first.run.module_fp, machine_fp);
        let others = orch
            .store
            .segment_path("other", other.run.module_fp, machine_fp);
        // A file named like one of demo's segments whose header names
        // another program — what a program-fingerprint collision leaves.
        let impostor = orch.store.segment_path("demo", 0xfeed, machine_fp);
        std::fs::copy(&others, &impostor).unwrap();

        let edited = orch
            .run_program("demo", &SOURCE.replace("total + v", "total + v + 0"))
            .unwrap();
        assert!(orch
            .store
            .segment_path("demo", edited.run.module_fp, machine_fp)
            .exists());
        assert!(!stale.exists(), "demo's own stale segment is pruned");
        assert!(others.exists(), "another program's segment stays");
        assert!(impostor.exists(), "a header naming another program stays");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_rename_removes_the_temp_file() {
        let dir = state_dir("rename-fails");
        let orch = Orchestrator::new(&dir).unwrap();
        let spec = service::plan_campaign("demo", SOURCE, orch.seed).unwrap();
        let path = orch
            .store
            .segment_path("demo", spec.module_fp, orch.machine.fingerprint());
        // A non-empty directory where the segment goes: the temp file
        // writes, the rename onto it fails.
        std::fs::create_dir_all(path.join("occupied")).unwrap();
        let err = orch.run_spec(&spec).expect_err("the save must fail");
        assert!(err.contains("cannot move segment into place"), "{err}");
        assert!(temp_files(&dir).is_empty(), "{:?}", temp_files(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wholly_garbled_segment_degrades_to_a_cold_run() {
        let dir = state_dir("garbage");
        let orch = Orchestrator::new(&dir).unwrap();
        let cold = orch.run_program("demo", SOURCE).unwrap();
        let machine_fp = orch.machine.fingerprint();
        let path = orch
            .store
            .segment_path("demo", cold.run.module_fp, machine_fp);
        std::fs::write(&path, "not json at all\n\u{0}\u{1}\u{2}\n").unwrap();
        let rerun = orch.run_program("demo", SOURCE).unwrap();
        assert_eq!(rerun.executed, rerun.units);
        assert!(!rerun.store_errors.is_empty());
        assert_eq!(rerun.run.encode(), cold.run.encode());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
