//! Drivers for experiments E1–E8 (see DESIGN.md §3 for the mapping from
//! the paper's claims to these measurements).
//!
//! Every driver with independent work units (per seed, per scenario,
//! per dataset size, per ablation variant) fans them across the
//! [`nfi_core::exec`] engine. Work units derive all their state from
//! their index — per-scenario injectors and testers are seeded by
//! position, never threaded through a shared RNG — so every `run_*`
//! function returns *identical* rows for any thread count, including
//! the sequential `threads = 1` engine. The `run_*` entry points use
//! [`ExecConfig::default`] (available parallelism); `run_*_with` takes
//! an explicit engine configuration.

use crate::scenarios::{build_scenarios, Scenario};
use nfi_core::exec::{self, ExecConfig};
use nfi_core::metrics::{self, EffortModel};
use nfi_core::pipeline::{NeuralFaultInjector, PipelineConfig};
use nfi_core::session::run_session;
use nfi_inject::ExperimentCache;
use nfi_llm::{FaultLlm, LlmConfig};
use nfi_neural::lm::code_tokens;
use nfi_nlp::FaultSpec;
use nfi_pylite::{MachineConfig, Module};
use nfi_rlhf::{RlhfConfig, RlhfTrainer, SimulatedTester, TargetProfile};
use nfi_sfi::{Campaign, FaultClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Machine configuration for experiment harness runs: a tight step
/// budget keeps hang-classified faults cheap.
pub fn experiment_machine() -> MachineConfig {
    MachineConfig {
        step_budget: 200_000,
        ..MachineConfig::default()
    }
}

/// One parsed module + batched NLP engine per distinct program of a
/// scenario suite. Every driver that analyzes scenario descriptions
/// goes through this so the symbol index is built once per *program*
/// (the batched-NLP path) instead of once per *scenario*.
fn scenario_analyzers(
    scenarios: &[Scenario],
) -> BTreeMap<&'static str, (Module, nfi_nlp::Analyzer)> {
    let mut analyzers = BTreeMap::new();
    for s in scenarios {
        analyzers.entry(s.program.name).or_insert_with(|| {
            let module = s.program.module().expect("corpus parses");
            let analyzer = nfi_nlp::Analyzer::new(Some(&module));
            (module, analyzer)
        });
    }
    analyzers
}

fn spec_scenarios(scenarios: &[Scenario]) -> Vec<(FaultSpec, Module)> {
    let analyzers = scenario_analyzers(scenarios);
    scenarios
        .iter()
        .map(|s| {
            let (module, analyzer) = &analyzers[s.program.name];
            (analyzer.analyze(&s.description), module.clone())
        })
        .collect()
}

// ---- E1: RLHF alignment curve ---------------------------------------------

/// One iteration row of the E1 alignment curve.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Seed of the run.
    pub seed: u64,
    /// Iteration index.
    pub iteration: usize,
    /// Mean tester rating (1–5).
    pub mean_rating: f64,
    /// Acceptance fraction.
    pub acceptance: f64,
    /// Mean reward-model score.
    pub mean_reward: f64,
}

/// Runs E1: alignment vs. feedback iterations, for several seeds.
pub fn run_e1(scenario_cap: usize, iterations: usize, seeds: &[u64]) -> Vec<E1Row> {
    run_e1_with(ExecConfig::default(), scenario_cap, iterations, seeds)
}

/// [`run_e1`] on an explicit execution engine: seeds fan across the
/// worker pool (each seed's RLHF run is self-contained), rows are
/// flattened in seed order.
pub fn run_e1_with(
    exec: ExecConfig,
    scenario_cap: usize,
    iterations: usize,
    seeds: &[u64],
) -> Vec<E1Row> {
    let scenarios = build_scenarios(scenario_cap);
    let pairs = spec_scenarios(&scenarios);
    let per_seed = exec::par_map(exec, seeds, |&seed| {
        let mut llm = FaultLlm::untrained(LlmConfig {
            seed,
            ..LlmConfig::default()
        });
        let tester = SimulatedTester::new(TargetProfile::wants_retry(), seed);
        let mut trainer = RlhfTrainer::new(RlhfConfig {
            iterations,
            seed,
            ..RlhfConfig::default()
        });
        trainer
            .run(&mut llm, &pairs, &tester)
            .into_iter()
            .map(|s| E1Row {
                seed,
                iteration: s.iteration,
                mean_rating: s.mean_rating,
                acceptance: s.acceptance,
                mean_reward: s.mean_reward,
            })
            .collect::<Vec<_>>()
    });
    per_seed.into_iter().flatten().collect()
}

/// Formats E1 rows for table rendering.
pub fn e1_table(rows: &[E1Row]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec!["seed", "iter", "mean_rating", "acceptance", "mean_reward"];
    let data = rows
        .iter()
        .map(|r| {
            vec![
                r.seed.to_string(),
                r.iteration.to_string(),
                format!("{:.3}", r.mean_rating),
                format!("{:.3}", r.acceptance),
                format!("{:.3}", r.mean_reward),
            ]
        })
        .collect();
    (headers, data)
}

// ---- E2: fault-class coverage ----------------------------------------------

/// Coverage of one fault class (one row of the E2 table).
#[derive(Debug, Clone)]
pub struct E2Row {
    /// Fault class.
    pub class: FaultClass,
    /// Scenarios requesting this class.
    pub scenarios: usize,
    /// Scenarios the neural tool can express (candidate of that class).
    pub neural_expressible: usize,
    /// Scenarios where the neural fault activated under test.
    pub neural_activated: usize,
    /// Scenarios the conventional predefined model can express.
    pub conventional_expressible: usize,
}

/// Runs E2: per-class coverage, neural vs. conventional SFI.
pub fn run_e2(scenario_cap: usize) -> Vec<E2Row> {
    run_e2_with(ExecConfig::default(), scenario_cap)
}

/// [`run_e2`] on an explicit execution engine: scenarios fan across the
/// pool against one shared (immutable) generator, per-scenario flags
/// fold into the per-class rows in scenario order. Specs come from the
/// batched NLP engine and experiments route through the experiment
/// memo, so a rerun of the driver (or its sequential/parallel twin)
/// replays instead of recomputing.
pub fn run_e2_with(exec: ExecConfig, scenario_cap: usize) -> Vec<E2Row> {
    let scenarios = build_scenarios(scenario_cap);
    let pairs = spec_scenarios(&scenarios);
    let llm = FaultLlm::untrained(LlmConfig::default());
    let machine = experiment_machine();
    let flags = exec::par_map_indexed(exec, scenarios.len(), |i| {
        let s = &scenarios[i];
        let (spec, module) = &pairs[i];

        let cands = llm.candidates(spec, module);
        let matching: Vec<_> = cands.iter().filter(|c| c.class == s.intended).collect();
        let neural_expressible = !matching.is_empty();
        let neural_activated = if let Some(best) = matching.iter().max_by(|a, b| {
            llm.policy()
                .score(&a.features)
                .partial_cmp(&llm.policy().score(&b.features))
                .unwrap_or(std::cmp::Ordering::Equal)
        }) {
            ExperimentCache::global()
                .run(module, &best.module, &machine)
                .activated
        } else {
            false
        };

        let conventional = Campaign::conventional(module);
        let conventional_expressible = conventional.plans().iter().any(|p| p.class == s.intended);
        (
            s.intended,
            neural_expressible,
            neural_activated,
            conventional_expressible,
        )
    });

    let mut per_class: BTreeMap<FaultClass, E2Row> = BTreeMap::new();
    for (intended, neural_expressible, neural_activated, conventional_expressible) in flags {
        let row = per_class.entry(intended).or_insert(E2Row {
            class: intended,
            scenarios: 0,
            neural_expressible: 0,
            neural_activated: 0,
            conventional_expressible: 0,
        });
        row.scenarios += 1;
        row.neural_expressible += neural_expressible as usize;
        row.neural_activated += neural_activated as usize;
        row.conventional_expressible += conventional_expressible as usize;
    }
    per_class.into_values().collect()
}

/// Formats E2 rows.
pub fn e2_table(rows: &[E2Row]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec![
        "class",
        "scenarios",
        "neural_expressible",
        "neural_activated",
        "conventional",
    ];
    let data = rows
        .iter()
        .map(|r| {
            vec![
                r.class.key().to_string(),
                r.scenarios.to_string(),
                r.neural_expressible.to_string(),
                r.neural_activated.to_string(),
                r.conventional_expressible.to_string(),
            ]
        })
        .collect();
    (headers, data)
}

// ---- E3: tester effort -------------------------------------------------------

/// Effort summary for one approach (one row of the E3 table).
#[derive(Debug, Clone)]
pub struct E3Row {
    /// `"neural"` or `"conventional"`.
    pub approach: &'static str,
    /// Scenarios attempted.
    pub scenarios: usize,
    /// Scenarios realized as concrete faults.
    pub realized: usize,
    /// Total tester interactions spent.
    pub interactions: usize,
    /// Mean interactions per realized fault.
    pub per_realized: f64,
}

/// Runs E3: tester-effort comparison over the scenario suite.
pub fn run_e3(scenario_cap: usize, max_rounds: usize) -> Vec<E3Row> {
    run_e3_with(ExecConfig::default(), scenario_cap, max_rounds)
}

/// [`run_e3`] on an explicit execution engine. Each scenario runs its
/// own review session with a position-seeded tester (the reviewer pool
/// model: one reviewer per scenario), so sessions are independent and
/// fan across the pool with thread-count-invariant results.
pub fn run_e3_with(exec: ExecConfig, scenario_cap: usize, max_rounds: usize) -> Vec<E3Row> {
    let scenarios = build_scenarios(scenario_cap);
    let effort = EffortModel::default();

    let per_scenario = exec::par_map_indexed(exec, scenarios.len(), |i| {
        let s = &scenarios[i];
        let module = s.program.module().expect("corpus parses");
        // A satisfiable reviewer: wants logged handlers and spec fidelity
        // — preferences a spec-faithful generation can meet within a
        // round or two (the effort comparison is about workflow, not
        // tester pickiness).
        let mut tester = SimulatedTester::new(
            TargetProfile {
                wants_logging: true,
                ..TargetProfile::default()
            },
            11 + i as u64,
        );
        tester.noise = 0.0;

        // Neural: one description + review rounds until acceptance.
        let mut injector = NeuralFaultInjector::new(PipelineConfig {
            machine: experiment_machine(),
            llm: LlmConfig::default(),
        });
        let (n_inter, n_real) =
            match run_session(&mut injector, &s.description, &module, &tester, max_rounds) {
                Ok(result) => (effort.neural(result.rounds.len()), result.accepted as usize),
                Err(_) => (effort.neural(max_rounds), 0),
            };

        // Conventional: operator + site triage + config, when expressible.
        let campaign = Campaign::conventional(&module);
        let matching = campaign
            .plans()
            .iter()
            .filter(|p| p.class == s.intended)
            .count();
        let (c_inter, c_real) = if matching > 0 {
            (effort.conventional(matching), 1)
        } else {
            (
                effort.conventional_unrealizable(nfi_sfi::registry().len()),
                0,
            )
        };
        (n_inter, n_real, c_inter, c_real)
    });

    let mut neural_interactions = 0usize;
    let mut neural_realized = 0usize;
    let mut conventional_interactions = 0usize;
    let mut conventional_realized = 0usize;
    for (n_inter, n_real, c_inter, c_real) in per_scenario {
        neural_interactions += n_inter;
        neural_realized += n_real;
        conventional_interactions += c_inter;
        conventional_realized += c_real;
    }

    let mk = |approach, realized: usize, interactions: usize| E3Row {
        approach,
        scenarios: scenarios.len(),
        realized,
        interactions,
        per_realized: if realized == 0 {
            f64::INFINITY
        } else {
            interactions as f64 / realized as f64
        },
    };
    vec![
        mk("neural", neural_realized, neural_interactions),
        mk(
            "conventional",
            conventional_realized,
            conventional_interactions,
        ),
    ]
}

/// Formats E3 rows.
pub fn e3_table(rows: &[E3Row]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec![
        "approach",
        "scenarios",
        "realized",
        "interactions",
        "per_realized",
    ];
    let data = rows
        .iter()
        .map(|r| {
            vec![
                r.approach.to_string(),
                r.scenarios.to_string(),
                r.realized.to_string(),
                r.interactions.to_string(),
                format!("{:.2}", r.per_realized),
            ]
        })
        .collect();
    (headers, data)
}

// ---- E4: representativeness ---------------------------------------------------

/// Representativeness of one approach (one row of the E4 table).
#[derive(Debug, Clone)]
pub struct E4Row {
    /// `"neural"` or `"conventional"`.
    pub approach: &'static str,
    /// Faults injected.
    pub faults: usize,
    /// Jensen–Shannon distance to the field profile.
    pub js_distance: f64,
    /// Distinct classes realized.
    pub classes: usize,
}

/// Runs E4: class-distribution distance to the field profile for
/// `n_faults` injections per approach.
pub fn run_e4(n_faults: usize, seed: u64) -> Vec<E4Row> {
    let field = metrics::field_profile();
    let mut rng = StdRng::seed_from_u64(seed);
    let scenarios = build_scenarios(0);
    let llm = FaultLlm::untrained(LlmConfig::default());

    // Neural: the tester *steers* scenario selection toward the field
    // profile (NL makes every class reachable on demand).
    let mut neural_counts: BTreeMap<FaultClass, usize> = BTreeMap::new();
    let classes: Vec<FaultClass> = field.keys().copied().collect();
    let weights: Vec<f64> = classes.iter().map(|c| field[c]).collect();
    for _ in 0..n_faults {
        let draw: f64 = rng.gen();
        let mut acc = 0.0;
        let mut chosen = classes[0];
        for (c, w) in classes.iter().zip(weights.iter()) {
            acc += w;
            if draw < acc {
                chosen = *c;
                break;
            }
        }
        let of_class: Vec<&Scenario> = scenarios.iter().filter(|s| s.intended == chosen).collect();
        let s = of_class[rng.gen_range(0..of_class.len())];
        let module = s.program.module().expect("corpus parses");
        let spec = nfi_nlp::analyze(&s.description, Some(&module));
        let cands = llm.candidates(&spec, &module);
        if let Some(c) = cands.iter().find(|c| c.class == chosen) {
            *neural_counts.entry(c.class).or_insert(0) += 1;
        } else if let Some(c) = cands.first() {
            *neural_counts.entry(c.class).or_insert(0) += 1;
        }
    }

    // Conventional: uniform sampling from the predefined model's plans.
    let mut conventional_counts: BTreeMap<FaultClass, usize> = BTreeMap::new();
    let mut all_plans = Vec::new();
    for program in nfi_corpus::all() {
        let module = program.module().expect("corpus parses");
        let campaign = Campaign::conventional(&module);
        all_plans.extend(campaign.plans().iter().map(|p| p.class).collect::<Vec<_>>());
    }
    for _ in 0..n_faults {
        let class = all_plans[rng.gen_range(0..all_plans.len())];
        *conventional_counts.entry(class).or_insert(0) += 1;
    }

    let neural_dist = metrics::distribution(&neural_counts);
    let conventional_dist = metrics::distribution(&conventional_counts);
    vec![
        E4Row {
            approach: "neural",
            faults: n_faults,
            js_distance: metrics::js_distance(&neural_dist, &field),
            classes: metrics::classes_covered(&neural_counts),
        },
        E4Row {
            approach: "conventional",
            faults: n_faults,
            js_distance: metrics::js_distance(&conventional_dist, &field),
            classes: metrics::classes_covered(&conventional_counts),
        },
    ]
}

/// Formats E4 rows.
pub fn e4_table(rows: &[E4Row]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec!["approach", "faults", "js_distance", "classes_covered"];
    let data = rows
        .iter()
        .map(|r| {
            vec![
                r.approach.to_string(),
                r.faults.to_string(),
                format!("{:.4}", r.js_distance),
                r.classes.to_string(),
            ]
        })
        .collect();
    (headers, data)
}

// ---- E5: injection funnel -------------------------------------------------------

/// The E5 funnel plus failure-mode breakdown.
#[derive(Debug, Clone, Default)]
pub struct E5Funnel {
    /// Scenarios attempted.
    pub attempted: usize,
    /// Generations produced.
    pub generated: usize,
    /// Snippets that reparse.
    pub parsed: usize,
    /// Snippets integrated into the codebase.
    pub integrated: usize,
    /// Faults with observable effect under test.
    pub activated: usize,
    /// Faults detected by the embedded suite.
    pub detected: usize,
    /// Failure-mode breakdown (by mode key).
    pub modes: BTreeMap<String, usize>,
}

/// Runs E5: the generation → integration → activation funnel.
pub fn run_e5(scenario_cap: usize) -> E5Funnel {
    run_e5_with(ExecConfig::default(), scenario_cap)
}

/// Per-scenario funnel stage flags (internal to E5).
#[derive(Default)]
struct E5Stage {
    generated: bool,
    parsed: bool,
    integrated: bool,
    activated: bool,
    detected: bool,
    mode: Option<String>,
}

/// [`run_e5`] on an explicit execution engine: scenarios fan across the
/// pool (each already owned an index-seeded generator), stage flags fold
/// into the funnel in scenario order. NLP runs through the per-program
/// batched engine; the experiment stage goes through the memo.
pub fn run_e5_with(exec: ExecConfig, scenario_cap: usize) -> E5Funnel {
    let scenarios = build_scenarios(scenario_cap);
    let pairs = spec_scenarios(&scenarios);
    let machine = experiment_machine();
    let stages = exec::par_map_indexed(exec, scenarios.len(), |i| {
        let mut stage = E5Stage::default();
        let (spec, module) = &pairs[i];
        let mut llm = FaultLlm::untrained(LlmConfig {
            seed: i as u64,
            ..LlmConfig::default()
        });
        let Some(fault) = llm.generate(spec, module) else {
            return stage;
        };
        stage.generated = true;
        if nfi_pylite::parse(&fault.snippet).is_err() {
            return stage;
        }
        stage.parsed = true;
        let Ok(faulty) = nfi_inject::integrate_snippet(module, &fault.snippet) else {
            return stage;
        };
        stage.integrated = true;
        let report = ExperimentCache::global().run(module, &faulty, &machine);
        stage.activated = report.activated;
        stage.detected = report.detected;
        stage.mode = Some(report.overall.key().to_string());
        stage
    });

    let mut funnel = E5Funnel {
        attempted: scenarios.len(),
        ..E5Funnel::default()
    };
    for stage in stages {
        funnel.generated += stage.generated as usize;
        funnel.parsed += stage.parsed as usize;
        funnel.integrated += stage.integrated as usize;
        funnel.activated += stage.activated as usize;
        funnel.detected += stage.detected as usize;
        if let Some(mode) = stage.mode {
            *funnel.modes.entry(mode).or_insert(0) += 1;
        }
    }
    funnel
}

/// Formats the E5 funnel.
pub fn e5_table(f: &E5Funnel) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec!["stage", "count", "fraction"];
    let frac = |n: usize| {
        if f.attempted == 0 {
            "0.000".to_string()
        } else {
            format!("{:.3}", n as f64 / f.attempted as f64)
        }
    };
    let mut data = vec![
        vec!["attempted".into(), f.attempted.to_string(), "1.000".into()],
        vec![
            "generated".into(),
            f.generated.to_string(),
            frac(f.generated),
        ],
        vec!["parsed".into(), f.parsed.to_string(), frac(f.parsed)],
        vec![
            "integrated".into(),
            f.integrated.to_string(),
            frac(f.integrated),
        ],
        vec![
            "activated".into(),
            f.activated.to_string(),
            frac(f.activated),
        ],
        vec!["detected".into(), f.detected.to_string(), frac(f.detected)],
    ];
    for (mode, count) in &f.modes {
        data.push(vec![
            format!("mode:{mode}"),
            count.to_string(),
            frac(*count),
        ]);
    }
    (headers, data)
}

// ---- E6: fine-tuning learning curve ----------------------------------------------

/// One point of the E6 learning curve.
#[derive(Debug, Clone)]
pub struct E6Row {
    /// Fine-tuning records used.
    pub size: usize,
    /// Eval-set perplexity of the token LM.
    pub eval_perplexity: f64,
    /// Top-1 retrieval class accuracy on the eval set.
    pub retrieval_accuracy: f64,
}

/// Runs E6: LM perplexity and retrieval accuracy vs. dataset size.
pub fn run_e6(sizes: &[usize], eval_n: usize, seed: u64) -> Vec<E6Row> {
    run_e6_with(ExecConfig::default(), sizes, eval_n, seed)
}

/// [`run_e6`] on an explicit execution engine: dataset sizes fan across
/// the pool, each size fine-tuning its own generator from the shared
/// training pool.
pub fn run_e6_with(exec: ExecConfig, sizes: &[usize], eval_n: usize, seed: u64) -> Vec<E6Row> {
    let max = sizes.iter().copied().max().unwrap_or(64);
    let per_program = (max + eval_n) / nfi_corpus::all().len() + 2;
    let ds = nfi_dataset::generate(
        nfi_corpus::all(),
        &nfi_dataset::DatasetConfig {
            per_program_cap: per_program,
            seed,
        },
    );
    let (mut train_pool, _) = ds.split(1.0, seed);
    // Hold out the tail as the eval set.
    let eval: Vec<_> = train_pool
        .split_off(train_pool.len().saturating_sub(eval_n))
        .into_iter()
        .collect();
    let eval_sequences: Vec<Vec<String>> =
        eval.iter().map(|r| code_tokens(&r.code_after)).collect();

    exec::par_map(exec, sizes, |&size| {
        let take = size.min(train_pool.len());
        let records: Vec<_> = train_pool[..take].iter().map(|r| r.to_training()).collect();
        let mut llm = FaultLlm::untrained(LlmConfig {
            seed,
            ..LlmConfig::default()
        });
        llm.fine_tune(records);
        let ppl = llm
            .lm()
            .map(|lm| lm.perplexity(&eval_sequences))
            .unwrap_or(f64::INFINITY);
        let mut correct = 0usize;
        for r in &eval {
            if let Some((hit, _)) = llm.corpus().retrieve(&r.description, 1).first() {
                if hit.class == r.class {
                    correct += 1;
                }
            }
        }
        E6Row {
            size: take,
            eval_perplexity: ppl,
            retrieval_accuracy: if eval.is_empty() {
                0.0
            } else {
                correct as f64 / eval.len() as f64
            },
        }
    })
}

/// Formats E6 rows.
pub fn e6_table(rows: &[E6Row]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec!["dataset_size", "eval_perplexity", "retrieval_acc"];
    let data = rows
        .iter()
        .map(|r| {
            vec![
                r.size.to_string(),
                format!("{:.2}", r.eval_perplexity),
                format!("{:.3}", r.retrieval_accuracy),
            ]
        })
        .collect();
    (headers, data)
}

// ---- E7: pipeline throughput -------------------------------------------------------

/// Mean per-stage latency of the pipeline (microseconds).
#[derive(Debug, Clone, Default)]
pub struct E7Row {
    /// Scenarios measured.
    pub scenarios: usize,
    /// Mean NLP-stage latency.
    pub nlp_us: f64,
    /// Mean generation latency.
    pub generate_us: f64,
    /// Mean integration latency.
    pub integrate_us: f64,
    /// Mean test-stage latency.
    pub test_us: f64,
    /// End-to-end scenarios per second.
    pub throughput_per_s: f64,
}

/// Runs E7: per-stage latency and end-to-end throughput.
pub fn run_e7(scenario_cap: usize) -> E7Row {
    run_e7_with(ExecConfig::default(), scenario_cap)
}

/// [`run_e7`] on an explicit execution engine: each scenario runs a
/// fresh index-seeded injector, fanned across the pool. The NLP stage
/// goes through one shared batched [`nfi_nlp::Analyzer`] per program —
/// the symbol index is built per program, outside the measured loop —
/// so `nlp_us` reflects the amortized per-description cost. Scenario
/// outcomes (success count, generated faults) are thread-count
/// invariant; wall-clock throughput scales with the worker count.
pub fn run_e7_with(exec: ExecConfig, scenario_cap: usize) -> E7Row {
    let scenarios = build_scenarios(scenario_cap);
    let analyzers = scenario_analyzers(&scenarios);
    let started = std::time::Instant::now();
    let timings = exec::par_map_indexed(exec, scenarios.len(), |i| {
        let s = &scenarios[i];
        let (module, analyzer) = &analyzers[s.program.name];
        let mut injector = NeuralFaultInjector::new(PipelineConfig {
            machine: experiment_machine(),
            llm: LlmConfig {
                seed: i as u64,
                ..LlmConfig::default()
            },
        });
        let t = std::time::Instant::now();
        let spec = analyzer.analyze(&s.description);
        let nlp_us = t.elapsed().as_micros();
        injector
            .inject_prepared(spec, nlp_us, module)
            .ok()
            .map(|report| report.timings)
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut row = E7Row {
        scenarios: 0,
        ..E7Row::default()
    };
    for t in timings.into_iter().flatten() {
        row.scenarios += 1;
        row.nlp_us += t.nlp_us as f64;
        row.generate_us += t.generate_us as f64;
        row.integrate_us += t.integrate_us as f64;
        row.test_us += t.test_us as f64;
    }
    if row.scenarios > 0 {
        let n = row.scenarios as f64;
        row.nlp_us /= n;
        row.generate_us /= n;
        row.integrate_us /= n;
        row.test_us /= n;
        row.throughput_per_s = n / elapsed.max(1e-9);
    }
    row
}

/// Formats the E7 row.
pub fn e7_table(r: &E7Row) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec!["stage", "mean_us"];
    let data = vec![
        vec!["nlp".into(), format!("{:.1}", r.nlp_us)],
        vec!["generate".into(), format!("{:.1}", r.generate_us)],
        vec!["integrate".into(), format!("{:.1}", r.integrate_us)],
        vec!["test".into(), format!("{:.1}", r.test_us)],
        vec!["throughput/s".into(), format!("{:.1}", r.throughput_per_s)],
    ];
    (headers, data)
}

// ---- E8: ablations ------------------------------------------------------------------

/// One ablation variant result.
#[derive(Debug, Clone)]
pub struct E8Row {
    /// Variant name.
    pub variant: &'static str,
    /// Mean rating over the final two iterations.
    pub final_rating: f64,
    /// Acceptance over the final two iterations.
    pub final_acceptance: f64,
}

/// Runs E8: ablations of the full system.
///
/// * `full` — the complete RLHF loop.
/// * `no_rlhf` — policy never updated (`policy_lr = 0`).
/// * `direct_rating` — policy updated with raw ratings, no reward model.
/// * `no_nlp_spec` — structured spec stripped to raw text before
///   generation (no class, no target).
pub fn run_e8(scenario_cap: usize, iterations: usize) -> Vec<E8Row> {
    run_e8_with(ExecConfig::default(), scenario_cap, iterations)
}

/// [`run_e8`] on an explicit execution engine: the four self-contained
/// ablation variants fan across the pool.
pub fn run_e8_with(exec: ExecConfig, scenario_cap: usize, iterations: usize) -> Vec<E8Row> {
    let scenarios = build_scenarios(scenario_cap);
    let pairs = spec_scenarios(&scenarios);
    let stripped: Vec<(FaultSpec, Module)> = pairs
        .iter()
        .map(|(spec, m)| {
            let mut s = spec.clone();
            s.class = None;
            s.secondary_class = None;
            s.target_function = None;
            (s, m.clone())
        })
        .collect();

    let final2 = |stats: &[nfi_rlhf::IterationStats]| -> (f64, f64) {
        let tail = &stats[stats.len().saturating_sub(2)..];
        let r = tail.iter().map(|s| s.mean_rating).sum::<f64>() / tail.len().max(1) as f64;
        let a = tail.iter().map(|s| s.acceptance).sum::<f64>() / tail.len().max(1) as f64;
        (r, a)
    };

    let variants: [&'static str; 4] = ["full", "no_rlhf", "direct_rating", "no_nlp_spec"];
    exec::par_map(exec, &variants, |&variant| {
        let mut llm = FaultLlm::untrained(LlmConfig::default());
        let tester = SimulatedTester::new(TargetProfile::wants_retry(), 5);
        let stats = match variant {
            // The complete RLHF loop.
            "full" => {
                let mut trainer = RlhfTrainer::new(RlhfConfig {
                    iterations,
                    ..RlhfConfig::default()
                });
                trainer.run(&mut llm, &pairs, &tester)
            }
            // Policy never updated.
            "no_rlhf" => {
                let mut trainer = RlhfTrainer::new(RlhfConfig {
                    iterations,
                    policy_lr: 0.0,
                    ..RlhfConfig::default()
                });
                trainer.run(&mut llm, &pairs, &tester)
            }
            // REINFORCE on raw ratings, no reward model.
            "direct_rating" => {
                let mut rng = StdRng::seed_from_u64(0x5EED);
                let mut stats = Vec::new();
                for iteration in 0..iterations {
                    let mut ratings = Vec::new();
                    let mut accepted = 0usize;
                    for (spec, module) in &pairs {
                        let cands = llm.candidates(spec, module);
                        if cands.is_empty() {
                            continue;
                        }
                        let u: f32 = rng.gen();
                        let (idx, _) = llm.policy().choose(&cands, u);
                        let rating = tester.rate_candidate(&cands[idx], cands[idx].features[0]);
                        ratings.push(rating as f64);
                        if rating >= 4.0 {
                            accepted += 1;
                        }
                        llm.policy_mut()
                            .reinforce(&cands, idx, (rating - 3.0) / 2.0, 0.15);
                    }
                    stats.push(nfi_rlhf::IterationStats {
                        iteration,
                        mean_rating: ratings.iter().sum::<f64>() / ratings.len().max(1) as f64,
                        acceptance: accepted as f64 / ratings.len().max(1) as f64,
                        mean_reward: 0.0,
                        reward_accuracy: 0.0,
                    });
                }
                stats
            }
            // Structured spec stripped to raw text before generation.
            _ => {
                let mut trainer = RlhfTrainer::new(RlhfConfig {
                    iterations,
                    ..RlhfConfig::default()
                });
                trainer.run(&mut llm, &stripped, &tester)
            }
        };
        let (r, a) = final2(&stats);
        E8Row {
            variant,
            final_rating: r,
            final_acceptance: a,
        }
    })
}

/// Formats E8 rows.
pub fn e8_table(rows: &[E8Row]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec!["variant", "final_rating", "final_acceptance"];
    let data = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.to_string(),
                format!("{:.3}", r.final_rating),
                format!("{:.3}", r.final_acceptance),
            ]
        })
        .collect();
    (headers, data)
}
