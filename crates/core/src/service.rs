//! The campaign service: plan / execute / merge as separable steps.
//!
//! The paper's SFI campaigns are embarrassingly parallel at the plan
//! level; this module turns that into an operational workflow over the
//! plan IR ([`nfi_sfi::plan`]):
//!
//! ```text
//! plan    CampaignSpec  = enumerate once, serialize (JSONL)
//! exec    ShardRun      = execute any Shard of a spec anywhere
//! merge   ShardRun      = union shard runs back together
//! ```
//!
//! Two guarantees make the workflow trustworthy:
//!
//! 1. **Byte-stable documents.** A [`ShardRun`] renders outcome lines
//!    with one canonical encoder, and [`merge`] re-emits parsed lines
//!    verbatim — so the merged document of *any* partition is
//!    byte-for-byte the document of the unsharded run.
//! 2. **Associative merge.** Merging is a union keyed by global plan
//!    index (duplicates rejected), so `merge(a, merge(b, c))` equals
//!    `merge(merge(a, b), c)` equals the unsharded run.
//!
//! Execution routes through the engine ([`crate::exec`]) and therefore
//! through the content-addressed mutant/experiment caches.

use crate::exec::{self, ExecConfig, PlanOutcome};
use nfi_sfi::jsontext::{
    escape, get_bool, get_hex_u64, get_opt_str, get_str, get_usize, parse_flat_object,
};
use nfi_sfi::{Campaign, CampaignSpec, FaultPlan};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builds the full-enumeration spec for a program source: parse, run
/// the operator registry over it, capture the plan IR.
///
/// # Errors
///
/// Reports an unparseable source.
pub fn plan_campaign(program: &str, source: &str, seed: u64) -> Result<CampaignSpec, String> {
    let _span = nfi_telemetry::Span::enter_with(
        "plan",
        Some(
            nfi_telemetry::registry()
                .histogram(nfi_telemetry::families::PHASE, &[("phase", "plan")]),
        ),
    );
    let module = nfi_pylite::parse(source).map_err(|e| format!("cannot parse {program}: {e}"))?;
    let campaign = Campaign::full(&module);
    Ok(CampaignSpec::from_campaign(program, &campaign, seed))
}

/// One executed outcome, addressable by global plan index. The
/// `line` field carries the canonical encoding — merge re-emits it
/// verbatim, which is what makes sharded output byte-identical to
/// unsharded output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Global plan index in the spec.
    pub index: usize,
    /// Canonical JSON line of this outcome.
    pub line: String,
    /// Operator mnemonic.
    pub operator: String,
    /// Fault-class key.
    pub class: String,
    /// Whether the plan still applied.
    pub applied: bool,
    /// Whether the fault had an observable effect.
    pub activated: bool,
    /// Whether the embedded suite detected it.
    pub detected: bool,
    /// Failure-mode key, when the plan applied.
    pub mode: Option<String>,
}

impl ShardOutcome {
    fn from_outcome(index: usize, o: &PlanOutcome) -> ShardOutcome {
        let mode = o.mode.as_ref().map(|m| m.key().to_string());
        let mut out = ShardOutcome {
            index,
            line: String::new(),
            operator: o.operator.to_string(),
            class: o.class.to_string(),
            applied: o.applied,
            activated: o.activated,
            detected: o.detected,
            mode,
        };
        out.line = out.render();
        out
    }

    /// The canonical encoding (what [`ShardRun::encode`] writes).
    fn render(&self) -> String {
        let mode = match &self.mode {
            Some(m) => format!("\"{}\"", escape(m)),
            None => "null".to_string(),
        };
        format!(
            "{{\"kind\":\"outcome\",\"index\":{},\"operator\":\"{}\",\"class\":\"{}\",\"applied\":{},\"activated\":{},\"detected\":{},\"mode\":{}}}",
            self.index,
            escape(&self.operator),
            escape(&self.class),
            self.applied,
            self.activated,
            self.detected,
            mode,
        )
    }

    /// The same outcome re-addressed to a new global plan index, with
    /// the canonical line re-rendered to match. This is the store's
    /// anchor-fallback replay primitive: a prior segment's outcome is
    /// valid for the current plan's unit, but enumeration indices
    /// shift across module versions, so the line must be re-emitted
    /// under the unit's current index. Because [`render`] is the one
    /// canonical encoder (executions produce lines the same way), a
    /// re-indexed replay is byte-identical to a fresh execution whose
    /// runtime outcome is unchanged.
    pub fn reindexed(mut self, index: usize) -> ShardOutcome {
        self.index = index;
        self.line = self.render();
        self
    }

    /// Decodes one canonical outcome line, keeping the line text
    /// verbatim (what the incremental store replays).
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn decode(line: &str) -> Result<ShardOutcome, String> {
        let fields = parse_flat_object(line)?;
        Ok(ShardOutcome {
            index: get_usize(&fields, "index")?,
            line: line.to_string(),
            operator: get_str(&fields, "operator")?,
            class: get_str(&fields, "class")?,
            applied: get_bool(&fields, "applied")?,
            activated: get_bool(&fields, "activated")?,
            detected: get_bool(&fields, "detected")?,
            mode: get_opt_str(&fields, "mode")?,
        })
    }
}

/// The result of executing one shard (or the whole plan, or a merge of
/// shards): outcomes keyed by global plan index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRun {
    /// Program name from the spec.
    pub program: String,
    /// Module fingerprint from the spec.
    pub module_fp: u64,
    /// Total units in the spec (across all shards).
    pub total: usize,
    /// Executed outcomes, sorted by global index.
    pub outcomes: Vec<ShardOutcome>,
}

impl ShardRun {
    /// Whether every unit of the spec has an outcome.
    pub fn complete(&self) -> bool {
        self.outcomes.len() == self.total
    }

    /// Aggregates the outcomes into the order-independent campaign
    /// report (string-keyed, since shard documents carry owned keys).
    pub fn report(&self) -> StringReport {
        let mut report = StringReport::default();
        for o in &self.outcomes {
            report.absorb(o);
        }
        report
    }

    /// Encodes the run as a JSONL document: header, outcome lines in
    /// index order, and — when coverage is complete — the aggregate
    /// report line.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "{{\"kind\":\"campaign_run\",\"program\":\"{}\",\"module_fp\":\"{:016x}\",\"total\":{},\"covered\":{}}}\n",
            escape(&self.program),
            self.module_fp,
            self.total,
            self.outcomes.len(),
        );
        for o in &self.outcomes {
            out.push_str(&o.line);
            out.push('\n');
        }
        if self.complete() {
            out.push_str(&self.report().render());
            out.push('\n');
        }
        out
    }

    /// Decodes a shard / run document.
    ///
    /// # Errors
    ///
    /// Reports the first undecodable line, a missing header, or a
    /// coverage-count mismatch.
    pub fn decode(text: &str) -> Result<ShardRun, String> {
        let mut run: Option<ShardRun> = None;
        let mut covered = 0usize;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let err = |e: String| format!("line {}: {e}", i + 1);
            if line.contains("\"kind\":\"campaign_run\"") {
                if run.is_some() {
                    return Err(format!(
                        "line {}: second campaign_run header (concatenated documents? \
                         merge shard files with `nfi campaign merge`, not `cat`)",
                        i + 1
                    ));
                }
                let fields = parse_flat_object(line).map_err(err)?;
                run = Some(ShardRun {
                    program: get_str(&fields, "program").map_err(err)?,
                    module_fp: get_hex_u64(&fields, "module_fp").map_err(err)?,
                    total: get_usize(&fields, "total").map_err(err)?,
                    outcomes: Vec::new(),
                });
                covered = get_usize(&fields, "covered").map_err(err)?;
            } else if line.contains("\"kind\":\"outcome\"") {
                let outcome = ShardOutcome::decode(line).map_err(err)?;
                run.as_mut()
                    .ok_or_else(|| format!("line {}: outcome before header", i + 1))?
                    .outcomes
                    .push(outcome);
            } else if line.contains("\"kind\":\"report\"") {
                // The aggregate is derived data; merge recomputes it.
                continue;
            } else {
                return Err(format!("line {}: unknown record kind", i + 1));
            }
        }
        let run = run.ok_or("no campaign_run header found")?;
        if run.outcomes.len() != covered {
            return Err(format!(
                "header declares {covered} outcomes, found {}",
                run.outcomes.len()
            ));
        }
        Ok(run)
    }
}

/// Executes one shard of a spec on the engine.
///
/// The spec is self-contained: its source is re-parsed here and
/// validated against the recorded module fingerprint, then every
/// covered unit resolves through the operator registry and executes
/// under its own scheduler seed.
///
/// # Errors
///
/// Reports an unparseable source, a fingerprint mismatch (the plan was
/// generated from different code), or an unresolvable operator key.
pub fn exec_spec(
    spec: &CampaignSpec,
    machine: &nfi_pylite::MachineConfig,
    config: ExecConfig,
) -> Result<ShardRun, String> {
    exec_units(spec, machine, config, |_| true)
}

/// [`exec_spec`] restricted to units `accept` selects (on top of
/// `config.shard`'s stride) — the orchestrator's entry point for
/// executing exactly the units the incremental store could not replay,
/// which are rarely a contiguous or strided slice.
///
/// # Errors
///
/// Same contract as [`exec_spec`].
pub fn exec_units(
    spec: &CampaignSpec,
    machine: &nfi_pylite::MachineConfig,
    config: ExecConfig,
    accept: impl Fn(&nfi_sfi::WorkUnit) -> bool,
) -> Result<ShardRun, String> {
    let module = nfi_pylite::parse(&spec.source)
        .map_err(|e| format!("cannot parse plan source for {}: {e}", spec.program))?;
    let module_fp = nfi_pylite::fingerprint(&module);
    if module_fp != spec.module_fp {
        return Err(format!(
            "plan fingerprint mismatch for {}: plan {:016x}, source {:016x}",
            spec.program, spec.module_fp, module_fp
        ));
    }
    let module = Arc::new(module);
    let worklist: Vec<&nfi_sfi::WorkUnit> = spec
        .units
        .iter()
        .filter(|u| config.shard.covers(u.index) && accept(u))
        .collect();
    let plans: Vec<(usize, FaultPlan, u64)> = worklist
        .iter()
        .map(|u| {
            u.to_plan()
                .map(|p| (u.index, p, u.seed))
                .ok_or_else(|| format!("unknown operator `{}` in unit {}", u.operator, u.index))
        })
        .collect::<Result<_, String>>()?;
    let outcomes = exec::par_map(config, &plans, |(index, plan, seed)| {
        let unit_machine = nfi_pylite::MachineConfig {
            seed: *seed,
            ..machine.clone()
        };
        let outcome = exec::execute_plan(&module, module_fp, plan, &unit_machine, config.use_cache);
        ShardOutcome::from_outcome(*index, &outcome)
    });
    Ok(ShardRun {
        program: spec.program.clone(),
        module_fp,
        total: spec.units.len(),
        outcomes,
    })
}

/// Merges shard runs into one: a union keyed by global plan index.
/// Associative and commutative by construction — inputs may be raw
/// shards, partial merges, or any mix, in any order.
///
/// # Protocol invariants
///
/// This is the byte-parity chokepoint every executor (an offline run's
/// own threads, and a daemon's `nfi worker` processes, local or
/// remote) funnels through:
///
/// * **Byte-identical merge.** Outcome `line`s are re-emitted
///   verbatim and ordered by global index, so the merged document is
///   byte-for-byte the unsharded run's document no matter how the
///   work was partitioned, which machine executed each part, or in
///   what order results arrived.
/// * **No overlap tolerated.** A plan index covered by two inputs is
///   an error, never a silent pick — so callers with at-least-once
///   execution semantics (the remote-worker fleet, worker retries)
///   must deduplicate *before* merging. The fleet does this by
///   keeping only the first result per assignment; the store does it
///   by replaying each store key from exactly one segment line.
///
/// # Errors
///
/// Rejects empty input, mismatched programs/fingerprints/totals, and
/// duplicate coverage of a plan index.
pub fn merge(runs: &[ShardRun]) -> Result<ShardRun, String> {
    let first = runs.first().ok_or("nothing to merge")?;
    let mut by_index: BTreeMap<usize, ShardOutcome> = BTreeMap::new();
    for run in runs {
        if run.program != first.program {
            return Err(format!(
                "cannot merge runs of different programs: `{}` vs `{}`",
                first.program, run.program
            ));
        }
        if run.module_fp != first.module_fp || run.total != first.total {
            return Err(format!(
                "cannot merge runs of different plans for `{}`",
                run.program
            ));
        }
        for o in &run.outcomes {
            if o.index >= run.total {
                return Err(format!("outcome index {} out of range", o.index));
            }
            if let Some(prev) = by_index.insert(o.index, o.clone()) {
                return Err(format!(
                    "plan index {} covered twice (shards overlap)",
                    prev.index
                ));
            }
        }
    }
    Ok(ShardRun {
        program: first.program.clone(),
        module_fp: first.module_fp,
        total: first.total,
        outcomes: by_index.into_values().collect(),
    })
}

/// Order-independent aggregate of a run's outcomes: commutative
/// counters, so fold order cannot change the result. String-keyed,
/// since decoded shard documents carry owned keys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StringReport {
    /// Plans executed.
    pub total: usize,
    /// Plans that still applied.
    pub applied: usize,
    /// Applied plans with observable effect.
    pub activated: usize,
    /// Applied plans the suite detected.
    pub detected: usize,
    /// Applied plans per fault-class key.
    pub per_class: BTreeMap<String, usize>,
    /// Applied plans per operator mnemonic.
    pub per_operator: BTreeMap<String, usize>,
    /// Failure-mode frequency (by mode key).
    pub modes: BTreeMap<String, usize>,
}

impl StringReport {
    fn absorb(&mut self, o: &ShardOutcome) {
        self.total += 1;
        if !o.applied {
            return;
        }
        self.applied += 1;
        if o.activated {
            self.activated += 1;
        }
        if o.detected {
            self.detected += 1;
        }
        *self.per_class.entry(o.class.clone()).or_insert(0) += 1;
        *self.per_operator.entry(o.operator.clone()).or_insert(0) += 1;
        if let Some(mode) = &o.mode {
            *self.modes.entry(mode.clone()).or_insert(0) += 1;
        }
    }

    /// Renders the aggregate as the final report line of a complete
    /// run document.
    fn render(&self) -> String {
        let map = |m: &BTreeMap<String, usize>| {
            let inner: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
                .collect();
            format!("{{{}}}", inner.join(","))
        };
        format!(
            "{{\"kind\":\"report\",\"total\":{},\"applied\":{},\"activated\":{},\"detected\":{},\"per_class\":{},\"per_operator\":{},\"modes\":{}}}",
            self.total,
            self.applied,
            self.activated,
            self.detected,
            map(&self.per_class),
            map(&self.per_operator),
            map(&self.modes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfi_pylite::MachineConfig;
    use nfi_sfi::Shard;

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

    fn spec() -> CampaignSpec {
        plan_campaign("demo", SOURCE, 7).unwrap()
    }

    fn machine() -> MachineConfig {
        MachineConfig {
            step_budget: 200_000,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn unsharded_exec_covers_every_unit() {
        let s = spec();
        let run = exec_spec(&s, &machine(), ExecConfig::sequential()).unwrap();
        assert!(run.complete());
        let indices: Vec<usize> = run.outcomes.iter().map(|o| o.index).collect();
        assert_eq!(indices, (0..s.units.len()).collect::<Vec<_>>());
        assert!(run.report().applied > 0);
    }

    #[test]
    fn report_aggregates_exactly_the_outcome_lines() {
        let s = spec();
        let run = exec_spec(&s, &machine(), ExecConfig::sequential()).unwrap();
        for o in &run.outcomes {
            assert_eq!(o.operator, s.units[o.index].operator);
            assert_eq!(o.class, s.units[o.index].class.key());
        }
        let report = run.report();
        let applied: Vec<&ShardOutcome> = run.outcomes.iter().filter(|o| o.applied).collect();
        assert_eq!(report.total, s.units.len());
        assert_eq!(report.applied, applied.len());
        assert_eq!(
            report.activated,
            applied.iter().filter(|o| o.activated).count()
        );
        assert_eq!(
            report.detected,
            applied.iter().filter(|o| o.detected).count()
        );
        for counts in [&report.per_class, &report.per_operator, &report.modes] {
            assert_eq!(counts.values().sum::<usize>(), report.applied);
        }
        assert_eq!(run.encode().lines().last(), Some(report.render().as_str()));
    }

    #[test]
    fn exec_documents_are_thread_count_and_cache_invariant() {
        let s = spec();
        let doc = |config: ExecConfig| exec_spec(&s, &machine(), config).unwrap().encode();
        let uncached = doc(ExecConfig::sequential().cached(false));
        assert_eq!(doc(ExecConfig::sequential()), uncached, "first cached run");
        assert_eq!(doc(ExecConfig::sequential()), uncached, "cache replay");
        assert_eq!(doc(ExecConfig::with_threads(8)), uncached, "8 threads");
    }

    #[test]
    fn sampled_subset_lines_equal_the_full_runs_lines() {
        let s = spec();
        let full = exec_spec(&s, &machine(), ExecConfig::sequential()).unwrap();
        let module = nfi_pylite::parse(SOURCE).unwrap();
        let mut sample = Campaign::full(&module).sample_indices(5, 42);
        let run = exec_spec(&s.subset(&sample), &machine(), ExecConfig::sequential()).unwrap();
        sample.sort_unstable();
        let indices: Vec<usize> = run.outcomes.iter().map(|o| o.index).collect();
        assert_eq!(indices, sample);
        for o in &run.outcomes {
            assert_eq!(o.line, full.outcomes[o.index].line);
        }
    }

    #[test]
    fn two_way_shard_merge_is_byte_identical_to_unsharded() {
        let s = spec();
        let full = exec_spec(&s, &machine(), ExecConfig::sequential()).unwrap();
        let shard = |i: usize, n: usize| {
            exec_spec(
                &s,
                &machine(),
                ExecConfig::sequential().sharded(Shard { index: i, count: n }),
            )
            .unwrap()
        };
        let merged = merge(&[shard(0, 2), shard(1, 2)]).unwrap();
        assert_eq!(merged.encode(), full.encode());
    }

    #[test]
    fn merge_is_associative_over_three_shards() {
        let s = spec();
        let full = exec_spec(&s, &machine(), ExecConfig::sequential()).unwrap();
        let shard = |i: usize| {
            exec_spec(
                &s,
                &machine(),
                ExecConfig::sequential().sharded(Shard { index: i, count: 3 }),
            )
            .unwrap()
        };
        let (a, b, c) = (shard(0), shard(1), shard(2));
        let left = merge(&[merge(&[a.clone(), b.clone()]).unwrap(), c.clone()]).unwrap();
        let right = merge(&[a.clone(), merge(&[b.clone(), c.clone()]).unwrap()]).unwrap();
        assert_eq!(left.encode(), right.encode());
        assert_eq!(left.encode(), full.encode());
    }

    #[test]
    fn run_documents_roundtrip_and_survive_merge_of_decoded_shards() {
        let s = spec();
        let full = exec_spec(&s, &machine(), ExecConfig::sequential()).unwrap();
        let roundtrip = ShardRun::decode(&full.encode()).unwrap();
        assert_eq!(roundtrip.encode(), full.encode());
        let shard = |i: usize| {
            exec_spec(
                &s,
                &machine(),
                ExecConfig::sequential().sharded(Shard { index: i, count: 2 }),
            )
            .unwrap()
        };
        let decoded: Vec<ShardRun> = [shard(0), shard(1)]
            .iter()
            .map(|r| ShardRun::decode(&r.encode()).unwrap())
            .collect();
        assert_eq!(merge(&decoded).unwrap().encode(), full.encode());
    }

    #[test]
    fn merge_rejects_overlap_and_mismatch() {
        let s = spec();
        let full = exec_spec(&s, &machine(), ExecConfig::sequential()).unwrap();
        assert!(merge(&[]).is_err());
        let overlap = merge(&[full.clone(), full.clone()]);
        assert!(overlap.unwrap_err().contains("covered twice"));
        let other = plan_campaign("other", "x = 1\n", 0).unwrap();
        let other_run = exec_spec(&other, &machine(), ExecConfig::sequential()).unwrap();
        assert!(merge(&[full, other_run]).is_err());
    }

    #[test]
    fn decode_rejects_concatenated_documents() {
        let s = spec();
        let shard = exec_shard_doc(&s, 0);
        let other = exec_shard_doc(&s, 1);
        let cat = format!("{shard}{other}");
        let err = ShardRun::decode(&cat).unwrap_err();
        assert!(err.contains("second campaign_run header"), "{err}");
    }

    fn exec_shard_doc(s: &CampaignSpec, index: usize) -> String {
        exec_spec(
            s,
            &machine(),
            ExecConfig::sequential().sharded(Shard { index, count: 2 }),
        )
        .unwrap()
        .encode()
    }

    #[test]
    fn exec_rejects_fingerprint_mismatch() {
        let mut s = spec();
        s.module_fp ^= 1;
        let err = exec_spec(&s, &machine(), ExecConfig::sequential()).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }
}
