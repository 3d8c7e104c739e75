//! The campaign plan IR: a serializable, module-independent
//! representation of *what to inject*, decoupled from *how it
//! executes*.
//!
//! A [`Campaign`] enumerates [`FaultPlan`]s against one in-memory
//! module; those plans borrow `&'static` operator names and are tied to
//! the process that built them. The plan IR lifts that enumeration into
//! plain data:
//!
//! * a [`WorkUnit`] is one injection — operator key, [`Site`], and the
//!   scheduler seed to run it under — addressable by its stable index
//!   in the enumeration;
//! * a [`CampaignSpec`] is the whole campaign — program name, the
//!   program source itself (so a spec is self-contained across hosts),
//!   the module fingerprint it was enumerated against, and the units.
//!
//! Specs have a stable JSONL text encoding ([`CampaignSpec::encode`] /
//! [`CampaignSpec::decode`]): generate a plan once, split it into
//! [`Shard`]s, execute the shards anywhere (other processes, other
//! hosts), and merge the results — the executor side lives in
//! `nfi_core::service`.

use crate::jsontext::{
    escape, get_hex_u64, get_opt_str, get_str, get_u64, get_usize, parse_flat_object,
};
use crate::{operators, Campaign, FaultClass, FaultPlan, Site};
use nfi_pylite::anchors::ModuleAnchors;
use nfi_pylite::ast::NodeId;
use nfi_pylite::fingerprint::{fnv1a, fnv1a_extend};
use std::fmt;

/// A stable content hash of a fault plan: operator key plus every site
/// field. Two plans with equal hashes request the same mutation of the
/// same module — the mutant-cache key half that doesn't depend on the
/// module itself.
pub fn plan_hash(plan: &FaultPlan) -> u64 {
    site_hash(fnv1a(plan.operator.as_bytes()), &plan.site)
}

/// Folds every [`Site`] field into `h` — the shared tail of
/// [`plan_hash`] and [`WorkUnit::store_key`], so the two stay
/// field-for-field in sync.
fn site_hash(mut h: u64, site: &Site) -> u64 {
    h = fnv1a_extend(h, &site.stmt_id.0.to_le_bytes());
    if let Some(f) = &site.function {
        h = fnv1a_extend(h, b"\x01");
        h = fnv1a_extend(h, f.as_bytes());
    } else {
        h = fnv1a_extend(h, b"\x00");
    }
    h = fnv1a_extend(h, &site.line.to_le_bytes());
    fnv1a_extend(h, site.detail.as_bytes())
}

/// One shard of a plan: this process executes unit indices `i` with
/// `i % count == index` (a strided partition, so shards stay balanced
/// even when plan cost varies along the enumeration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based shard index.
    pub index: usize,
    /// Total shard count.
    pub count: usize,
}

impl Shard {
    /// The trivial shard covering everything.
    pub const FULL: Shard = Shard { index: 0, count: 1 };

    /// Parses `"i/n"` (e.g. `"0/2"`), validating `i < n` and `n > 0`.
    ///
    /// # Errors
    ///
    /// Describes the malformed component.
    pub fn parse(text: &str) -> Result<Shard, String> {
        let (i, n) = text
            .split_once('/')
            .ok_or_else(|| format!("shard `{text}` is not of the form i/n"))?;
        let index: usize = i
            .parse()
            .map_err(|_| format!("shard index `{i}` is not a number"))?;
        let count: usize = n
            .parse()
            .map_err(|_| format!("shard count `{n}` is not a number"))?;
        if count == 0 {
            return Err("shard count must be positive".to_string());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range for /{count}"));
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard covers global unit index `i`.
    pub fn covers(self, i: usize) -> bool {
        i % self.count == self.index
    }

    /// Whether this is the full (unsharded) run.
    pub fn is_full(self) -> bool {
        self.count == 1
    }
}

impl Default for Shard {
    fn default() -> Self {
        Shard::FULL
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One planned injection as plain data: operator key + site + the
/// scheduler seed for the experiment run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkUnit {
    /// Stable index in the campaign enumeration (the sharding key).
    pub index: usize,
    /// Operator mnemonic, resolvable via the operator registry.
    pub operator: String,
    /// Fault class of the operator.
    pub class: FaultClass,
    /// Target site.
    pub site: Site,
    /// Scheduler seed for the differential experiment.
    pub seed: u64,
    /// Site-stable structural anchor of the enclosing function (or the
    /// top-level group) — see [`nfi_pylite::anchors`]. Insensitive to
    /// edits outside that neighborhood, which is what lets
    /// [`store_key`](WorkUnit::store_key) survive them.
    pub anchor: u64,
    /// Pre-order position of the site statement within its anchor
    /// group (disambiguates repeated statements in one function).
    pub ordinal: u32,
}

impl WorkUnit {
    /// Captures an in-memory plan as a work unit with its site-stable
    /// anchor.
    pub fn from_plan(
        index: usize,
        plan: &FaultPlan,
        seed: u64,
        anchor: u64,
        ordinal: u32,
    ) -> WorkUnit {
        WorkUnit {
            index,
            operator: plan.operator.to_string(),
            class: plan.class,
            site: plan.site.clone(),
            seed,
            anchor,
            ordinal,
        }
    }

    /// The unit's stable content key for the incremental campaign
    /// store: operator key, the site's structural anchor + ordinal,
    /// the operator's site detail, and the scheduler seed the
    /// experiment runs under. Deliberately *not* the raw site
    /// position ([`plan_hash`] folds statement id and line number):
    /// anchors survive edits outside the enclosing function, so a
    /// unit in an untouched function computes the *same* key across
    /// module versions — the property the store's anchor-fallback
    /// replay path keys on. Computable from the serialized form alone
    /// (no operator-registry resolution) and identical across
    /// processes and hosts.
    pub fn store_key(&self) -> u64 {
        let mut h = fnv1a(self.operator.as_bytes());
        h = fnv1a_extend(h, &self.anchor.to_le_bytes());
        h = fnv1a_extend(h, &self.ordinal.to_le_bytes());
        h = fnv1a_extend(h, self.site.detail.as_bytes());
        fnv1a_extend(h, &self.seed.to_le_bytes())
    }

    /// Resolves the unit back into an executable [`FaultPlan`] through
    /// the operator registry. Returns `None` for an unknown operator
    /// key (a plan from a newer registry, say).
    pub fn to_plan(&self) -> Option<FaultPlan> {
        let op = operators::by_name(&self.operator)?;
        Some(FaultPlan {
            operator: op.name(),
            class: op.class(),
            site: self.site.clone(),
        })
    }

    /// Encodes the unit as one JSON line.
    pub fn encode(&self) -> String {
        let function = match &self.site.function {
            Some(f) => format!("\"{}\"", escape(f)),
            None => "null".to_string(),
        };
        format!(
            "{{\"kind\":\"unit\",\"index\":{},\"operator\":\"{}\",\"class\":\"{}\",\"stmt_id\":{},\"function\":{},\"line\":{},\"detail\":\"{}\",\"anchor\":\"{:016x}\",\"ordinal\":{},\"seed\":{}}}",
            self.index,
            escape(&self.operator),
            self.class.key(),
            self.site.stmt_id.0,
            function,
            self.site.line,
            escape(&self.site.detail),
            self.anchor,
            self.ordinal,
            self.seed,
        )
    }

    /// Decodes a unit from its JSON line.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn decode(line: &str) -> Result<WorkUnit, String> {
        let fields = parse_flat_object(line)?;
        let unit = WorkUnit {
            index: get_usize(&fields, "index")?,
            operator: get_str(&fields, "operator")?,
            class: {
                let key = get_str(&fields, "class")?;
                FaultClass::from_key(&key).ok_or_else(|| format!("unknown fault class `{key}`"))?
            },
            site: Site {
                stmt_id: NodeId(
                    u32::try_from(get_u64(&fields, "stmt_id")?)
                        .map_err(|_| "field `stmt_id` does not fit in u32".to_string())?,
                ),
                function: get_opt_str(&fields, "function")?,
                line: u32::try_from(get_u64(&fields, "line")?)
                    .map_err(|_| "field `line` does not fit in u32".to_string())?,
                detail: get_str(&fields, "detail")?,
            },
            // Exact: the seed is a full-range u64 and must never be
            // squeezed through an f64 (2^53 silently truncates).
            seed: get_u64(&fields, "seed")?,
            // Tolerated when absent (pre-anchor plan documents, e.g. a
            // journaled spec from an older daemon): the fallback keeps
            // keys unique per spec — module-fp keyed segments still
            // replay them, anchor fallback simply never hits.
            anchor: match fields.get("anchor") {
                Some(_) => get_hex_u64(&fields, "anchor")?,
                None => 0,
            },
            ordinal: match fields.get("ordinal") {
                Some(_) => u32::try_from(get_u64(&fields, "ordinal")?)
                    .map_err(|_| "field `ordinal` does not fit in u32".to_string())?,
                None => u32::try_from(get_u64(&fields, "stmt_id")?)
                    .map_err(|_| "field `stmt_id` does not fit in u32".to_string())?,
            },
        };
        Ok(unit)
    }
}

/// A whole campaign as plain data: self-contained (the program source
/// rides along) and executable anywhere the operator registry exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Program name (provenance; corpus name or file stem).
    pub program: String,
    /// The program source the campaign was enumerated against.
    pub source: String,
    /// Fingerprint of the parsed module ([`nfi_pylite::fingerprint`]),
    /// validated at execution time against the re-parsed source.
    pub module_fp: u64,
    /// The enumerated units, in stable index order.
    pub units: Vec<WorkUnit>,
}

impl CampaignSpec {
    /// Captures a campaign's full enumeration, stamping every unit with
    /// `seed` as its experiment scheduler seed.
    pub fn from_campaign(program: &str, campaign: &Campaign, seed: u64) -> CampaignSpec {
        let anchors = ModuleAnchors::compute(campaign.module());
        let module_fp = nfi_pylite::fingerprint(campaign.module());
        CampaignSpec {
            program: program.to_string(),
            source: nfi_pylite::print_module(campaign.module()),
            module_fp,
            units: campaign
                .plans()
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    // Every site statement is anchored; the module-fp
                    // fallback keeps keys unique (and per-version) if
                    // a future operator ever targets something else.
                    let (anchor, ordinal) = match anchors.get(p.site.stmt_id) {
                        Some(a) => (a.anchor, a.ordinal),
                        None => (module_fp, p.site.stmt_id.0),
                    };
                    WorkUnit::from_plan(i, p, seed, anchor, ordinal)
                })
                .collect(),
        }
    }

    /// Unit indices covered by `shard`, in index order.
    pub fn shard_unit_indices(&self, shard: Shard) -> Vec<usize> {
        (0..self.units.len()).filter(|&i| shard.covers(i)).collect()
    }

    /// The spec restricted to the units whose **global** index is in
    /// `indices` — same program, source, and fingerprint, so any
    /// executor accepts it, and the surviving units keep their global
    /// indices, so their outcome lines merge back into the full run
    /// untouched. This is how an orchestrator hands an arbitrary
    /// store-miss set to another executor: the serve daemon's process
    /// pool encodes the subset once and strides it over `nfi campaign
    /// exec --shard i/n` children, and its worker fleet encodes one
    /// subset per hash chunk and ships each to a remote `nfi worker`
    /// as a self-contained assignment (the subset carries the source,
    /// so the worker needs no shared filesystem). Because indices are
    /// global and units carry their own seeds, a subset's outcome
    /// lines are byte-for-byte the lines a full local run would have
    /// produced for those units — the foundation of the
    /// byte-identical-merge guarantee across all executors.
    pub fn subset(&self, indices: &[usize]) -> CampaignSpec {
        let wanted: std::collections::HashSet<usize> = indices.iter().copied().collect();
        CampaignSpec {
            program: self.program.clone(),
            source: self.source.clone(),
            module_fp: self.module_fp,
            units: self
                .units
                .iter()
                .filter(|u| wanted.contains(&u.index))
                .cloned()
                .collect(),
        }
    }

    /// Encodes the spec as a JSONL document: one header line, then one
    /// line per unit.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "{{\"kind\":\"campaign_spec\",\"program\":\"{}\",\"module_fp\":\"{:016x}\",\"units\":{},\"source\":\"{}\"}}\n",
            escape(&self.program),
            self.module_fp,
            self.units.len(),
            escape(&self.source),
        );
        for unit in &self.units {
            out.push_str(&unit.encode());
            out.push('\n');
        }
        out
    }

    /// Decodes a JSONL plan document.
    ///
    /// # Errors
    ///
    /// Reports the first undecodable line with its number, a missing
    /// header, or a unit-count mismatch.
    pub fn decode(text: &str) -> Result<CampaignSpec, String> {
        let mut spec: Option<CampaignSpec> = None;
        let mut declared_units = 0usize;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let err = |e: String| format!("line {}: {e}", i + 1);
            if line.contains("\"kind\":\"campaign_spec\"") {
                if spec.is_some() {
                    return Err(format!(
                        "line {}: second campaign_spec header (concatenated documents?)",
                        i + 1
                    ));
                }
                let fields = parse_flat_object(line).map_err(err)?;
                declared_units = get_usize(&fields, "units").map_err(err)?;
                spec = Some(CampaignSpec {
                    program: get_str(&fields, "program").map_err(err)?,
                    source: get_str(&fields, "source").map_err(err)?,
                    module_fp: get_hex_u64(&fields, "module_fp").map_err(err)?,
                    units: Vec::new(),
                });
            } else if line.contains("\"kind\":\"unit\"") {
                let unit = WorkUnit::decode(line).map_err(err)?;
                spec.as_mut()
                    .ok_or_else(|| format!("line {}: unit before header", i + 1))?
                    .units
                    .push(unit);
            } else {
                return Err(format!("line {}: unknown record kind", i + 1));
            }
        }
        let spec = spec.ok_or("no campaign_spec header found")?;
        if spec.units.len() != declared_units {
            return Err(format!(
                "header declares {declared_units} units, found {}",
                spec.units.len()
            ));
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfi_pylite::parse;

    fn campaign() -> Campaign {
        let module = parse(
            "m = lock()\ntotal = 0\ndef add(v):\n    global total\n    m.acquire()\n    total = total + v\n    m.release()\n    return total\ndef test_add():\n    assert add(1) == 1\n",
        )
        .unwrap();
        Campaign::full(&module)
    }

    #[test]
    fn spec_roundtrips_through_text() {
        let c = campaign();
        let spec = CampaignSpec::from_campaign("demo", &c, 7);
        let decoded = CampaignSpec::decode(&spec.encode()).unwrap();
        assert_eq!(spec, decoded);
        assert_eq!(decoded.units.len(), c.plans().len());
    }

    #[test]
    fn units_resolve_back_to_identical_plans() {
        let c = campaign();
        let spec = CampaignSpec::from_campaign("demo", &c, 0);
        for (unit, plan) in spec.units.iter().zip(c.plans()) {
            let resolved = unit.to_plan().expect("registry resolves");
            assert_eq!(resolved.operator, plan.operator);
            assert_eq!(resolved.class, plan.class);
            assert_eq!(resolved.site, plan.site);
            assert_eq!(plan_hash(&resolved), plan_hash(plan));
        }
    }

    #[test]
    fn plan_hash_distinguishes_operator_and_site() {
        let c = campaign();
        let plans = c.plans();
        let mut hashes: Vec<u64> = plans.iter().map(plan_hash).collect();
        hashes.sort_unstable();
        let before = hashes.len();
        hashes.dedup();
        assert_eq!(hashes.len(), before, "plan hashes must be unique");
    }

    #[test]
    fn seeds_above_f64_precision_round_trip_exactly() {
        let c = campaign();
        // 2^53 + 1 is the first u64 an f64 cannot represent; u64::MAX
        // is the worst case. Both must survive the text round trip.
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let spec = CampaignSpec::from_campaign("demo", &c, seed);
            let decoded = CampaignSpec::decode(&spec.encode()).unwrap();
            assert_eq!(decoded, spec);
            for unit in &decoded.units {
                assert_eq!(unit.seed, seed);
            }
        }
    }

    #[test]
    fn store_keys_are_unique_stable_and_seed_sensitive() {
        let c = campaign();
        let spec = CampaignSpec::from_campaign("demo", &c, 7);
        let mut keys: Vec<u64> = spec.units.iter().map(WorkUnit::store_key).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "unit store keys must be unique");
        // Stable across a text round trip (the store replays by key).
        let decoded = CampaignSpec::decode(&spec.encode()).unwrap();
        for (a, b) in spec.units.iter().zip(&decoded.units) {
            assert_eq!(a.store_key(), b.store_key());
        }
        // A different experiment seed is a different key.
        let reseeded = CampaignSpec::from_campaign("demo", &c, 8);
        for (a, b) in spec.units.iter().zip(&reseeded.units) {
            assert_ne!(a.store_key(), b.store_key());
        }
    }

    #[test]
    fn store_keys_survive_edits_outside_the_enclosing_function() {
        // Edit test_add's body (a different function): every unit of
        // the unchanged module regions keeps its exact store key, even
        // though statement ids, line numbers, and the module
        // fingerprint all shift.
        let edited = parse(
            "m = lock()\ntotal = 0\ndef add(v):\n    global total\n    m.acquire()\n    total = total + v\n    m.release()\n    return total\ndef test_add():\n    assert add(1) == 1\n    assert add(1) == 2\n",
        )
        .unwrap();
        let before = CampaignSpec::from_campaign("demo", &campaign(), 7);
        let after = CampaignSpec::from_campaign("demo", &Campaign::full(&edited), 7);
        assert_ne!(before.module_fp, after.module_fp);
        // Pair units across versions by (operator, function, detail,
        // ordinal) — shape-preserving edits keep ordinals — and
        // compare keys.
        let ident = |u: &WorkUnit| {
            (
                u.operator.clone(),
                u.site.function.clone(),
                u.site.detail.clone(),
                u.ordinal,
            )
        };
        for b in &before.units {
            let Some(a) = after.units.iter().find(|a| ident(a) == ident(b)) else {
                continue;
            };
            assert_eq!(
                b.store_key(),
                a.store_key(),
                "unit {:?} must keep its key across an unrelated edit",
                ident(b)
            );
        }
        // While a unit inside the *edited* function gets a new key:
        // appending to add()'s body shifts every add unit's anchor.
        let touched = parse(
            "m = lock()\ntotal = 0\ndef add(v):\n    global total\n    m.acquire()\n    total = total + v + 0\n    m.release()\n    return total\ndef test_add():\n    assert add(1) == 1\n",
        )
        .unwrap();
        let touched = CampaignSpec::from_campaign("demo", &Campaign::full(&touched), 7);
        let mut paired = 0usize;
        for b in before
            .units
            .iter()
            .filter(|u| u.site.function.as_deref() == Some("add"))
        {
            let Some(a) = touched.units.iter().find(|a| ident(a) == ident(b)) else {
                continue;
            };
            paired += 1;
            assert_ne!(a.anchor, b.anchor, "add's anchor must change");
            assert_ne!(a.store_key(), b.store_key(), "and with it the key");
        }
        assert!(paired > 0, "the edited function must still pair units");
    }

    #[test]
    fn shards_partition_the_unit_indices() {
        let c = campaign();
        let spec = CampaignSpec::from_campaign("demo", &c, 0);
        let n = spec.units.len();
        for count in [1usize, 2, 3, 5] {
            let mut seen = Vec::new();
            for index in 0..count {
                seen.extend(spec.shard_unit_indices(Shard { index, count }));
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "count={count}");
        }
    }

    #[test]
    fn subset_keeps_global_indices_and_roundtrips() {
        let c = campaign();
        let spec = CampaignSpec::from_campaign("demo", &c, 7);
        let picked: Vec<usize> = spec.units.iter().map(|u| u.index).step_by(3).collect();
        let sub = spec.subset(&picked);
        assert_eq!(sub.program, spec.program);
        assert_eq!(sub.module_fp, spec.module_fp);
        assert_eq!(sub.units.len(), picked.len());
        for (unit, want) in sub.units.iter().zip(&picked) {
            assert_eq!(unit.index, *want, "global indices survive the subset");
        }
        // A subset document is a valid spec in its own right.
        let decoded = CampaignSpec::decode(&sub.encode()).unwrap();
        assert_eq!(decoded, sub);
        // Unknown indices are simply absent, never invented.
        assert!(spec.subset(&[usize::MAX]).units.is_empty());
    }

    #[test]
    fn shard_parsing_validates() {
        assert_eq!(Shard::parse("0/2").unwrap(), Shard { index: 0, count: 2 });
        assert!(Shard::parse("1/1").unwrap_err().contains("out of range"));
        assert!(Shard::parse("x/2").is_err());
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("0/0").is_err());
        assert_eq!(Shard::FULL.to_string(), "0/1");
    }

    #[test]
    fn decode_rejects_corrupt_documents() {
        assert!(CampaignSpec::decode("").is_err(), "empty");
        assert!(
            CampaignSpec::decode("{\"kind\":\"unit\"}").is_err(),
            "unit before header"
        );
        let c = campaign();
        let spec = CampaignSpec::from_campaign("demo", &c, 0);
        let encoded = spec.encode();
        let mut truncated: Vec<&str> = encoded.lines().collect();
        truncated.pop();
        let text = truncated.join("\n");
        assert!(CampaignSpec::decode(&text).unwrap_err().contains("units"));
        let concatenated = format!("{encoded}{encoded}");
        assert!(CampaignSpec::decode(&concatenated)
            .unwrap_err()
            .contains("second campaign_spec header"));
    }
}
