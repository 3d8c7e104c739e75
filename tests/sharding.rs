//! The campaign service's contract: plans are portable, shards merge
//! associatively back to the unsharded document byte-for-byte, the
//! mutant cache is deterministic under the parallel engine, and the
//! batched NLP engine equals the per-item engine.

use neural_fault_injection::core::exec::{self, ExecConfig};
use neural_fault_injection::core::service;
use neural_fault_injection::core::MutantCache;
use neural_fault_injection::pylite::MachineConfig;
use neural_fault_injection::sfi::{Campaign, CampaignSpec, Shard};
use nfi_bench::scenarios::build_scenarios;
use std::sync::Arc;

fn machine() -> MachineConfig {
    MachineConfig {
        step_budget: 200_000,
        ..MachineConfig::default()
    }
}

fn spec_for(program: &str) -> CampaignSpec {
    let p = neural_fault_injection::corpus::by_name(program).unwrap();
    service::plan_campaign(program, p.source, 7).unwrap()
}

fn exec_shard(spec: &CampaignSpec, index: usize, count: usize) -> service::ShardRun {
    let shard = Shard { index, count };
    service::exec_units(spec, &machine(), ExecConfig::sequential(), |u| {
        shard.covers(u.index)
    })
    .unwrap()
}

#[test]
fn two_way_split_reproduces_the_unsharded_report_byte_for_byte() {
    for program in ["ecommerce", "banking", "jobqueue"] {
        let spec = spec_for(program);
        let full = service::exec_spec(&spec, &machine(), ExecConfig::sequential()).unwrap();
        let merged = service::merge(&[exec_shard(&spec, 0, 2), exec_shard(&spec, 1, 2)]).unwrap();
        assert_eq!(
            merged.encode(),
            full.encode(),
            "{program}: 2-way merge is not byte-identical"
        );
    }
}

#[test]
fn three_way_split_merges_associatively_to_the_unsharded_report() {
    let spec = spec_for("inventory");
    let full = service::exec_spec(&spec, &machine(), ExecConfig::sequential()).unwrap();
    let (a, b, c) = (
        exec_shard(&spec, 0, 3),
        exec_shard(&spec, 1, 3),
        exec_shard(&spec, 2, 3),
    );
    let left =
        service::merge(&[service::merge(&[a.clone(), b.clone()]).unwrap(), c.clone()]).unwrap();
    let right =
        service::merge(&[a.clone(), service::merge(&[b.clone(), c.clone()]).unwrap()]).unwrap();
    let flat = service::merge(&[c, a, b]).unwrap();
    assert_eq!(left.encode(), full.encode(), "left-nested merge diverged");
    assert_eq!(right.encode(), full.encode(), "right-nested merge diverged");
    assert_eq!(
        flat.encode(),
        full.encode(),
        "order-shuffled merge diverged"
    );
}

#[test]
fn shard_parse_rejects_degenerate_forms() {
    // Zero denominators, out-of-range numerators, and non-numeric
    // components must all be descriptive errors, never panics.
    assert!(Shard::parse("0/0").unwrap_err().contains("positive"));
    assert!(Shard::parse("1/0").unwrap_err().contains("positive"));
    assert!(Shard::parse("2/2").unwrap_err().contains("out of range"));
    assert!(Shard::parse("9/3").unwrap_err().contains("out of range"));
    assert!(Shard::parse("x/2").unwrap_err().contains("not a number"));
    assert!(Shard::parse("0/y").unwrap_err().contains("not a number"));
    assert!(Shard::parse("-1/2").unwrap_err().contains("not a number"));
    assert!(Shard::parse("1.5/2").unwrap_err().contains("not a number"));
    assert!(Shard::parse("12").unwrap_err().contains("i/n"));
    assert!(Shard::parse("").unwrap_err().contains("i/n"));
    assert!(Shard::parse("/").unwrap_err().contains("not a number"));
    assert_eq!(Shard::parse("0/1").unwrap(), Shard::FULL);
}

#[test]
fn merging_with_an_empty_shard_document_is_the_identity() {
    let spec = spec_for("ecommerce");
    let n = spec.units.len();
    let full = service::exec_spec(&spec, &machine(), ExecConfig::sequential()).unwrap();
    // Shard n/(n+1) covers no unit index in 0..n, so its run document
    // is a bare header with zero outcomes.
    let empty = exec_shard(&spec, n, n + 1);
    assert!(empty.outcomes.is_empty());
    let empty_doc = empty.encode();
    assert_eq!(empty_doc.lines().count(), 1, "header only");
    // It survives a text round trip and merges as the identity.
    let decoded = service::ShardRun::decode(&empty_doc).unwrap();
    let merged = service::merge(&[full.clone(), decoded]).unwrap();
    assert_eq!(merged.encode(), full.encode());
    // Identity holds in either merge order.
    let merged = service::merge(&[exec_shard(&spec, n, n + 1), full.clone()]).unwrap();
    assert_eq!(merged.encode(), full.encode());
}

#[test]
fn plan_documents_round_trip_through_text_before_execution() {
    let spec = spec_for("ecommerce");
    let reloaded = CampaignSpec::decode(&spec.encode()).unwrap();
    assert_eq!(spec, reloaded);
    let from_memory = service::exec_spec(&spec, &machine(), ExecConfig::sequential()).unwrap();
    let from_text = service::exec_spec(&reloaded, &machine(), ExecConfig::sequential()).unwrap();
    assert_eq!(from_memory.encode(), from_text.encode());
}

#[test]
fn sharded_engine_runs_match_the_full_engine_run() {
    let spec = spec_for("kvcache");
    let full = service::exec_spec(&spec, &machine(), ExecConfig::sequential()).unwrap();
    let pieces: Vec<service::ShardRun> = (0..2)
        .map(|index| {
            let shard = Shard { index, count: 2 };
            service::exec_units(&spec, &machine(), ExecConfig::with_threads(4), |u| {
                shard.covers(u.index)
            })
            .unwrap()
        })
        .collect();
    assert_eq!(
        service::merge(&pieces).unwrap().encode(),
        full.encode(),
        "parallel 2-way shard union != sequential full run"
    );
}

#[test]
fn mutant_cache_hit_miss_counts_are_deterministic_under_par_map() {
    let module = Arc::new(
        neural_fault_injection::corpus::by_name("ecommerce")
            .unwrap()
            .module()
            .unwrap(),
    );
    let fp = neural_fault_injection::pylite::fingerprint(&module);
    let campaign = Campaign::full(&module);
    let plans = campaign.plans();

    let cache = MutantCache::new();
    let parallel = ExecConfig::with_threads(8);
    let cold: Vec<_> = exec::par_map(parallel, plans, |plan| cache.apply(&module, fp, plan));
    let after_cold = cache.stats();
    assert_eq!(
        after_cold.misses,
        plans.len() as u64,
        "cold run must miss once per plan"
    );
    assert_eq!(after_cold.hits, 0);

    let warm: Vec<_> = exec::par_map(parallel, plans, |plan| cache.apply(&module, fp, plan));
    let after_warm = cache.stats();
    assert_eq!(
        after_warm.misses,
        plans.len() as u64,
        "warm run must not re-apply"
    );
    assert_eq!(after_warm.hits, plans.len() as u64);

    // Hits hand back the very mutants the misses created, in order.
    for (c, w) in cold.iter().zip(warm.iter()) {
        match (c, w) {
            (Some(a), Some(b)) => assert!(Arc::ptr_eq(&a.fault, &b.fault)),
            (None, None) => {}
            other => panic!("cold/warm outcomes diverged: {other:?}"),
        }
    }
}

#[test]
fn cached_campaign_outcomes_equal_uncached_outcomes_at_any_width() {
    let spec = spec_for("ratelimiter");
    let doc = |config: ExecConfig| {
        service::exec_spec(&spec, &machine(), config)
            .unwrap()
            .encode()
    };
    let reference = service::reference_run(&spec, &machine()).unwrap().encode();
    for threads in [1, 4] {
        assert_eq!(
            doc(ExecConfig::with_threads(threads)),
            reference,
            "threads={threads}"
        );
    }
}

#[test]
fn batched_nlp_equals_per_item_analysis_on_the_scenario_corpus() {
    let scenarios = build_scenarios(0);
    assert!(!scenarios.is_empty());
    let mut checked = 0usize;
    for program in neural_fault_injection::corpus::all() {
        let descriptions: Vec<&str> = scenarios
            .iter()
            .filter(|s| s.program.name == program.name)
            .map(|s| s.description.as_str())
            .collect();
        if descriptions.is_empty() {
            continue;
        }
        let module = program.module().unwrap();
        let analyzer = neural_fault_injection::nlp::Analyzer::new(Some(&module));
        for description in descriptions {
            let want = neural_fault_injection::nlp::analyze(description, Some(&module));
            assert_eq!(
                analyzer.analyze(description),
                want,
                "{}: diverged on {description:?}",
                program.name
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 50,
        "expected a substantial corpus, checked {checked}"
    );
}
