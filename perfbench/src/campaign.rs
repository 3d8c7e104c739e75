//! `campaign_cold` and `campaign_edit`: the offline `nfi campaign run`
//! path through `Orchestrator::run_program`, untraced, and the same
//! units driven layer by layer through the public functions for the
//! traced run.
//!
//! Both workloads clear the process-wide memo tables before every job:
//! each `nfi campaign run` a tester types is a fresh process, so no
//! job may inherit another's in-memory results.

use crate::edits::{self, EditStream, Rng};
use crate::gate::Gate;
use crate::report::{digest, jobj, jstr, num, ratio, secs, JobStats, Memory, Report, Waterfall};
use crate::{add_time, bump, Config, Layers};
use nfi_core::cache::{CodeCache, MutantCache, SuiteCache};
use nfi_core::{plan_campaign, Orchestrator, ShardOutcome, ShardRun};
use nfi_inject::classify::{classify, most_severe};
use nfi_inject::memo::ExperimentCache;
use nfi_inject::{run_suite_in, FailureMode, SuiteReport};
use nfi_pylite::{fingerprint, Machine, MachineConfig, RunStatus};
use nfi_sfi::{apply_plan, CampaignSpec};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The campaign layers in pipeline order: the parts of the traced
/// waterfall.
pub const PARTS: [&str; 14] = [
    "sfi.plan_s",
    "core.store.load_s",
    "core.store.anchor_fallback_s",
    "pylite.parse_s",
    "sfi.mutate_s",
    "pylite.compile_s",
    "inject.pristine_suite_s",
    "inject.faulty_suite_s",
    "inject.classify_s",
    "core.service.dispatch_s",
    "core.service.shard_codec_s",
    "core.service.merge_s",
    "core.service.encode_s",
    "core.store.save_s",
];

/// Drops every in-memory memo table and zeroes its counters.
pub fn clear_caches() {
    MutantCache::global().clear();
    ExperimentCache::global().clear();
    CodeCache::global().clear();
    SuiteCache::global().clear();
}

/// Hit/miss counts of the four memo tables, accumulated job by job.
#[derive(Default)]
struct CacheTally {
    counts: [(u64, u64); 4],
}

impl CacheTally {
    /// Adds the tables' counters to the tally, then clears the tables.
    fn absorb_and_clear(&mut self) {
        let stats = [
            MutantCache::global().stats(),
            ExperimentCache::global().stats(),
            CodeCache::global().stats(),
            SuiteCache::global().stats(),
        ];
        for (c, s) in self.counts.iter_mut().zip(stats) {
            c.0 += s.hits;
            c.1 += s.misses;
        }
        clear_caches();
    }

    fn push(&self, layers: &mut Layers) {
        let names = [
            "core.cache.mutant_hit_ratio",
            "core.cache.experiment_hit_ratio",
            "pylite.code_cache_hit_ratio",
            "inject.suite_cache_hit_ratio",
        ];
        for (name, (hits, misses)) in names.into_iter().zip(self.counts) {
            layers.insert(name, ratio(hits as f64, (hits + misses) as f64));
        }
    }
}

/// An orchestrator over a fresh, empty state dir, configured as
/// `nfi campaign run` is by default (one worker, 2M-step machine).
fn fresh_orchestrator(dir: &Path) -> Result<Orchestrator, String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot clear {}: {e}", dir.display())),
    }
    Orchestrator::new(dir)
}

/// Store counts of one program run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCounts {
    /// Units in the plan.
    pub units: usize,
    /// Units replayed from the store (fast path or anchors).
    pub replayed: usize,
    /// Of those, replayed through the anchor fallback.
    pub anchor_replayed: usize,
    /// Units executed.
    pub executed: usize,
}

/// One untraced job: `run_program` to a document in hand.
fn run_job(orch: &Orchestrator, name: &str, source: &str) -> Result<(RunCounts, String), String> {
    let run = orch.run_program(name, source)?;
    let doc = run.run.encode();
    Ok((
        RunCounts {
            units: run.units,
            replayed: run.replayed,
            anchor_replayed: run.anchor_replayed,
            executed: run.executed,
        },
        doc,
    ))
}

/// The differential fold of one pristine/faulty suite pair (the
/// experiment's classification step).
fn compare(base: &SuiteReport, injected: &SuiteReport) -> (FailureMode, bool, bool) {
    let mut modes = Vec::with_capacity(base.tests.len());
    let mut detected = false;
    for (p, f) in base.tests.iter().zip(&injected.tests) {
        let mode = if f.module_failed {
            match &f.outcome.status {
                RunStatus::Uncaught(info) => FailureMode::CrashUnhandled(info.kind.clone()),
                RunStatus::Hung(_) => FailureMode::Hang,
                RunStatus::Completed => FailureMode::WrongOutput,
            }
        } else {
            classify(&f.outcome, &p.outcome)
        };
        detected |= p.passed() && !f.passed();
        modes.push(mode);
    }
    let activated = modes.iter().any(|m| *m != FailureMode::NoEffect);
    (most_severe(&modes), activated, detected)
}

fn steps(report: &SuiteReport) -> f64 {
    report.tests.iter().map(|t| t.outcome.steps as f64).sum()
}

/// Executes the units at `missing` one layer call at a time, exactly
/// as the engine's uncached-memo path would, accumulating layer times.
fn execute_traced(
    spec: &CampaignSpec,
    missing: &[usize],
    machine: &MachineConfig,
) -> Result<(ShardRun, Layers), String> {
    let mut l = Layers::new();
    let t = Instant::now();
    let module = nfi_pylite::parse(&spec.source).map_err(|e| format!("{}: {e}", spec.program))?;
    let module_fp = fingerprint(&module);
    add_time(&mut l, "pylite.parse_s", t);
    let mut outcomes = Vec::with_capacity(missing.len());
    for &index in missing {
        let unit = spec
            .units
            .iter()
            .find(|u| u.index == index)
            .ok_or_else(|| format!("no unit {index}"))?;
        let t = Instant::now();
        let plan = unit
            .to_plan()
            .ok_or_else(|| format!("unknown operator `{}`", unit.operator))?;
        let mutant = apply_plan(&module, &plan).map(|f| {
            let fp = fingerprint(&f.module);
            (f, fp)
        });
        add_time(&mut l, "sfi.mutate_s", t);
        bump(&mut l, "sfi.mutate_n", 1.0);
        let mut outcome = ShardOutcome {
            index,
            line: String::new(),
            operator: plan.operator.to_string(),
            class: plan.class.key().to_string(),
            applied: false,
            activated: false,
            detected: false,
            mode: None,
        };
        if let Some((fault, faulty_fp)) = mutant {
            let cfg = MachineConfig {
                seed: unit.seed,
                ..machine.clone()
            };
            let mut vm = Machine::new(cfg.clone());
            let t = Instant::now();
            // Compile errors resurface (and are reported per test) in
            // the suites below, exactly as on the engine path.
            let _ = CodeCache::global().compile(&module, module_fp);
            let _ = CodeCache::global().compile(&fault.module, faulty_fp);
            add_time(&mut l, "pylite.compile_s", t);
            let misses = SuiteCache::global().stats().misses;
            let t = Instant::now();
            let base = SuiteCache::global().run_keyed_in(&mut vm, &module, module_fp, &cfg);
            add_time(&mut l, "inject.pristine_suite_s", t);
            if SuiteCache::global().stats().misses > misses {
                bump(&mut l, "pylite.vm_steps", steps(&base));
            }
            let t = Instant::now();
            let injected = run_suite_in(&mut vm, &fault.module, faulty_fp, &cfg);
            let suite_s = secs(t);
            bump(&mut l, "inject.faulty_suite_s", suite_s);
            let faulty_steps = steps(&injected);
            bump(&mut l, "pylite.vm_steps", faulty_steps);
            bump(&mut l, "faulty_steps", faulty_steps);
            let t = Instant::now();
            let (mode, activated, detected) = compare(&base, &injected);
            if mode == FailureMode::Hang {
                bump(&mut l, "inject.hang_units", 1.0);
                bump(&mut l, "hang_suite_s", suite_s);
                bump(&mut l, "hang_steps", faulty_steps);
            }
            outcome.applied = true;
            outcome.activated = activated;
            outcome.detected = detected;
            outcome.mode = Some(mode.key().to_string());
            let outcome = outcome.reindexed(index);
            add_time(&mut l, "inject.classify_s", t);
            outcomes.push(outcome);
        } else {
            outcomes.push(outcome.reindexed(index));
        }
    }
    // The engine hands shards back as encoded documents; so does this.
    let t = Instant::now();
    let run = ShardRun::decode(
        &ShardRun {
            program: spec.program.clone(),
            module_fp,
            total: spec.units.len(),
            outcomes,
        }
        .encode(),
    )?;
    add_time(&mut l, "core.service.shard_codec_s", t);
    Ok((run, l))
}

/// Seconds recorded so far in each `phase_duration{phase=…}` histogram
/// of this process: the spans `Orchestrator::run_spec_with` times its
/// own store replay, anchor fallback, merge and persist phases with.
fn phase_sums() -> BTreeMap<String, f64> {
    nfi_telemetry::registry()
        .snapshot()
        .into_iter()
        .filter(|s| s.family == nfi_telemetry::families::PHASE)
        .filter_map(|s| {
            let (_, phase) = s.labels.into_iter().find(|(k, _)| k == "phase")?;
            Some((phase, s.hist.sum_micros as f64 / 1e6))
        })
        .collect()
}

/// One program run with its layers timed: `plan_campaign`, then
/// `Orchestrator::run_spec_with` with a dispatcher that executes the
/// store misses one layer call at a time, then `encode`. Store load,
/// anchor fallback, merge and save times are the run's own phase
/// histogram deltas, so replay, merge and persistence are the
/// orchestrator's code, not a copy of it.
///
/// # Errors
///
/// Reports plan, execution, merge and save failures.
pub fn traced_program(
    orch: &Orchestrator,
    name: &str,
    source: &str,
    l: &mut Layers,
) -> Result<(RunCounts, String), String> {
    let t = Instant::now();
    let spec = plan_campaign(name, source, orch.seed)?;
    add_time(l, "sfi.plan_s", t);
    let before = phase_sums();
    let mut unit_layers = Layers::new();
    let run = orch.run_spec_with(&spec, |spec, missing| {
        // A fresh thread, like the orchestrator's own dispatcher, so the
        // thread-local code and suite caches start cold.
        let t = Instant::now();
        let (run, layers) = std::thread::scope(|s| {
            s.spawn(|| execute_traced(spec, missing, &orch.machine))
                .join()
                .map_err(|_| "traced worker panicked".to_string())?
        })?;
        // What the worker's own parts leave of the block is the
        // dispatcher's thread spawn and join.
        let inner: f64 = PARTS.iter().filter_map(|p| layers.get(p)).sum();
        bump(&mut unit_layers, "core.service.dispatch_s", secs(t) - inner);
        for (k, v) in layers {
            bump(&mut unit_layers, k, v);
        }
        Ok(vec![run])
    })?;
    let after = phase_sums();
    let delta = |phase: &str| {
        after.get(phase).copied().unwrap_or(0.0) - before.get(phase).copied().unwrap_or(0.0)
    };
    // `store_replay` spans the segment load, the anchor fallback and the
    // replay loop; the fallback is its own nested span.
    bump(
        l,
        "core.store.load_s",
        delta("store_replay") - delta("anchor_fallback"),
    );
    bump(l, "core.store.anchor_fallback_s", delta("anchor_fallback"));
    bump(l, "core.service.merge_s", delta("merge"));
    bump(l, "core.store.save_s", delta("persist"));
    for (k, v) in unit_layers {
        bump(l, k, v);
    }
    let t = Instant::now();
    let doc = run.run.encode();
    add_time(l, "core.service.encode_s", t);
    let machine_fp = orch.machine.fingerprint();
    let bytes = std::fs::metadata(orch.store.segment_path(
        &spec.program,
        spec.module_fp,
        machine_fp,
    ))
    .map_or(0, |m| m.len());
    bump(l, "core.store.save_bytes", bytes as f64);
    let counts = RunCounts {
        units: run.units,
        replayed: run.replayed,
        anchor_replayed: run.anchor_replayed,
        executed: run.executed,
    };
    Ok((counts, doc))
}

/// Store-level counts summed over jobs.
#[derive(Default)]
struct StoreTally {
    units: f64,
    replayed: f64,
    anchor: f64,
    executed: f64,
}

impl StoreTally {
    fn add(&mut self, c: RunCounts) {
        self.units += c.units as f64;
        self.replayed += c.replayed as f64;
        self.anchor += c.anchor_replayed as f64;
        self.executed += c.executed as f64;
    }

    fn push(&self, l: &mut Layers, jobs: f64) {
        l.insert("core.store.replay_ratio", ratio(self.replayed, self.units));
        l.insert("core.store.anchor_ratio", ratio(self.anchor, self.replayed));
        l.insert("core.store.executed_units", ratio(self.executed, jobs));
    }
}

/// Per-job layer metrics, the waterfall and the hang attribution from
/// the totals of a traced phase of `jobs` jobs over `wall` seconds.
fn finish_layers(mut total: Layers, jobs: f64, wall: f64) -> (Layers, Waterfall) {
    let get = |l: &Layers, k: &str| l.get(k).copied().unwrap_or(0.0);
    let waterfall = Waterfall {
        parts: PARTS
            .iter()
            .map(|p| (p.to_string(), ratio(get(&total, p), jobs)))
            .collect(),
        wall: ratio(wall, jobs),
    };
    let suites = get(&total, "inject.pristine_suite_s") + get(&total, "inject.faulty_suite_s");
    let derived = [
        (
            "inject.hang_share_s",
            ratio(
                get(&total, "hang_suite_s"),
                get(&total, "inject.faulty_suite_s"),
            ),
        ),
        (
            "inject.hang_steps_share",
            ratio(get(&total, "hang_steps"), get(&total, "faulty_steps")),
        ),
        (
            "pylite.vm_steps_per_s",
            ratio(get(&total, "pylite.vm_steps"), suites),
        ),
    ];
    for k in ["hang_suite_s", "hang_steps", "faulty_steps"] {
        total.remove(k);
    }
    let mut per_job: Layers = total.iter().map(|(k, v)| (*k, ratio(*v, jobs))).collect();
    per_job.extend(derived);
    (per_job, waterfall)
}

fn layers_json(l: &Layers) -> String {
    let members: Vec<(&str, String)> = l.iter().map(|(k, v)| (*k, num(*v))).collect();
    jobj(&members)
}

/// One finished job as the gate sees it.
struct Output<'a> {
    program: &'a str,
    source: &'a str,
    digest: u64,
}

/// The traced twin of a phase: every job runs again, traced, on its own
/// store right after its untraced run, so both see the same machine
/// conditions and `trace.overhead_share` compares like with like.
#[derive(Default)]
struct TracedPhase {
    total: Layers,
    wall: f64,
    jobs: f64,
    store: StoreTally,
    mismatches: u64,
}

/// The jobs of one run, untraced and (when tracing) traced.
struct Phases<'a> {
    stats: JobStats,
    tally: CacheTally,
    store: StoreTally,
    outputs: Vec<Output<'a>>,
    attempted: u64,
    errors: u64,
    traced: Option<TracedPhase>,
}

impl<'a> Phases<'a> {
    fn new(window_s: f64, trace: bool) -> Phases<'a> {
        Phases {
            stats: JobStats::new(window_s),
            tally: CacheTally::default(),
            store: StoreTally::default(),
            outputs: Vec::new(),
            attempted: 0,
            errors: 0,
            traced: trace.then(TracedPhase::default),
        }
    }

    /// Runs one job untraced on `orch` and, when tracing, traced on
    /// `traced_orch`; returns the traced job's layer times (with its
    /// `wall_s`).
    fn job(
        &mut self,
        orch: &Orchestrator,
        traced_orch: Option<&Orchestrator>,
        program: &'a str,
        source: &'a str,
    ) -> Option<Layers> {
        self.attempted += 1;
        let t = Instant::now();
        let result = run_job(orch, program, source);
        let dt = secs(t);
        self.tally.absorb_and_clear();
        let untraced = match result {
            Ok((counts, doc)) => {
                self.stats.record(dt, counts.units as u64);
                self.store.add(counts);
                let d = digest(&doc);
                self.outputs.push(Output {
                    program,
                    source,
                    digest: d,
                });
                Some(d)
            }
            Err(e) => {
                eprintln!("{program}: {e}");
                self.errors += 1;
                None
            }
        };
        let (traced, traced_orch) = (self.traced.as_mut()?, traced_orch?);
        self.attempted += 1;
        let mut l = Layers::new();
        let t = Instant::now();
        let result = traced_program(traced_orch, program, source, &mut l);
        let dt = secs(t);
        clear_caches();
        match result {
            Ok((counts, doc)) => {
                let d = digest(&doc);
                if untraced.is_some_and(|u| u != d) {
                    traced.mismatches += 1;
                }
                self.outputs.push(Output {
                    program,
                    source,
                    digest: d,
                });
                traced.wall += dt;
                traced.jobs += 1.0;
                traced.store.add(counts);
                for (k, v) in &l {
                    bump(&mut traced.total, k, *v);
                }
                bump(&mut l, "wall_s", dt);
                Some(l)
            }
            Err(e) => {
                eprintln!("{program} (traced): {e}");
                self.errors += 1;
                None
            }
        }
    }

    /// Gates every output and fills the report: end-to-end metrics, or
    /// per-layer metrics and the waterfall when tracing.
    fn finish(self, report: &mut Report, setup_s: f64, mem: Memory) -> Result<(), String> {
        let mut errors = self.errors;
        if let Some(traced) = self.traced {
            let (mut layers, waterfall) = finish_layers(traced.total, traced.jobs, traced.wall);
            traced.store.push(&mut layers, traced.jobs);
            self.tally.push(&mut layers);
            layers.insert(
                "trace.overhead_share",
                ratio(traced.wall, self.stats.wall()) - 1.0,
            );
            report.detail(
                "traced_vs_untraced_mismatches",
                traced.mismatches.to_string(),
            );
            errors += traced.mismatches;
            crate::push_layers(report, &layers, &waterfall, setup_s, mem);
        } else {
            self.stats.push_end_to_end(report, setup_s, mem);
        }
        clear_caches();
        let mut gate = Gate::new();
        for o in &self.outputs {
            if !gate.check(o.program, o.source, o.digest)? {
                errors += 1;
            }
        }
        report.attempted = self.attempted;
        report.failed = errors;
        report.correct = errors == 0;
        report.detail(
            "untraced_store",
            jobj(&[
                (
                    "replay_ratio",
                    num(ratio(self.store.replayed, self.store.units)),
                ),
                (
                    "anchor_ratio",
                    num(ratio(self.store.anchor, self.store.replayed)),
                ),
                (
                    "executed_per_job",
                    num(ratio(
                        self.store.executed,
                        self.stats.latencies().len() as f64,
                    )),
                ),
            ]),
        );
        report.detail("jobs", self.stats.detail_json());
        let d = self.outputs.iter().fold(crate::report::FNV_START, |h, o| {
            crate::report::fnv(h, &o.digest.to_le_bytes())
        });
        report.detail("output_digest", jstr(&format!("{d:016x}")));
        Ok(())
    }
}

/// `campaign_cold`: repeated cold passes of all twelve corpus programs
/// (528 units), each on an empty state dir with cleared caches, in a
/// seeded program order.
///
/// # Errors
///
/// Reports I/O and orchestration failures.
pub fn campaign_cold(cfg: &Config) -> Result<Report, String> {
    let programs: Vec<_> = nfi_corpus::all().iter().collect();
    let dir = cfg.work_dir.join("cold-state");
    let traced_dir = cfg.work_dir.join("cold-state-traced");
    let budget = cfg.phase_seconds();
    let mut setups = Vec::new();
    let mut phases = Phases::new(f64::INFINITY, cfg.trace);
    let mut per_program: BTreeMap<&str, Layers> = BTreeMap::new();
    let mut passes = 0u64;
    while passes == 0 || phases.stats.wall() < budget {
        // A pass's set-up takes about a millisecond, so it is repeated to
        // give `setup_s` enough samples for a steady median.
        let mut orch = None;
        for _ in 0..cfg.setups {
            let t = Instant::now();
            orch = Some(fresh_orchestrator(&dir)?);
            clear_caches();
            setups.push(secs(t));
        }
        let orch = orch.ok_or("no set-up ran")?;
        let traced_orch = match cfg.trace {
            true => Some(fresh_orchestrator(&traced_dir)?),
            false => None,
        };
        let mut order = programs.clone();
        Rng::new(cfg.seed, passes).shuffle(&mut order);
        for p in &order {
            if let Some(l) = phases.job(&orch, traced_orch.as_ref(), p.name, p.source) {
                let entry = per_program.entry(p.name).or_default();
                for (k, v) in l {
                    bump(entry, k, v);
                }
            }
        }
        phases.stats.close_window();
        passes += 1;
    }
    let mem = Memory::of(None);
    let mut report = Report::default();
    if cfg.trace {
        let per_pass: Vec<(&str, String)> = per_program
            .iter()
            .map(|(k, l)| {
                let l: Layers = l.iter().map(|(n, v)| (*n, v / passes as f64)).collect();
                (*k, layers_json(&l))
            })
            .collect();
        report.detail("per_program_per_pass", jobj(&per_pass));
    }
    phases.finish(&mut report, crate::report::median(&setups), mem)?;
    report.detail("passes", passes.to_string());
    Ok(report)
}

/// `campaign_edit`: a seeded warm-edit loop over the ten light
/// programs on a store the set-up warmed; each edit runs to a document.
///
/// # Errors
///
/// Reports I/O and orchestration failures.
pub fn campaign_edit(cfg: &Config) -> Result<Report, String> {
    let light = edits::light_programs();
    let warm = |dir: &Path| -> Result<Orchestrator, String> {
        let orch = fresh_orchestrator(dir)?;
        for p in &light {
            orch.run_program(p.name, p.source)?;
        }
        clear_caches();
        Ok(orch)
    };
    let dir = cfg.work_dir.join("edit-state");
    let mut setups = Vec::new();
    let mut orch = None;
    for _ in 0..cfg.setups {
        let t = Instant::now();
        orch = Some(warm(&dir)?);
        setups.push(secs(t));
    }
    let orch = orch.ok_or("no set-up ran")?;
    let traced_orch = match cfg.trace {
        true => Some(warm(&cfg.work_dir.join("edit-state-traced"))?),
        false => None,
    };
    let budget = cfg.phase_seconds();
    let pool = edits::edit_pool();
    let mut stream = EditStream::new(cfg.seed, 0);
    let mut phases = Phases::new(1.0, cfg.trace);
    let mut kinds = [0u64; 3];
    while phases.attempted == 0 || phases.stats.wall() < budget {
        let (p, v) = stream.next_edit(&pool);
        let variant = &pool[p][v];
        kinds[variant.kind as usize] += 1;
        phases.job(
            &orch,
            traced_orch.as_ref(),
            variant.program,
            &variant.source,
        );
    }
    let mem = Memory::of(None);
    let mut report = Report::default();
    phases.finish(&mut report, crate::report::median(&setups), mem)?;
    let kinds: Vec<(&str, String)> = [
        edits::EditKind::Comment,
        edits::EditKind::Body,
        edits::EditKind::Added,
    ]
    .iter()
    .map(|k| (k.key(), kinds[*k as usize].to_string()))
    .collect();
    report.detail("edits_by_kind", jobj(&kinds));
    Ok(report)
}
