//! The interactive review session — the running example's loop (§III-A).
//!
//! Each round: generate → tester reviews → if rejected, parse the NL
//! critique into intents, refine the spec, nudge the policy (online
//! REINFORCE with the rating as reward), and regenerate.

use crate::pipeline::{NeuralFaultInjector, PipelineError};
use nfi_llm::{refine_spec, GeneratedFault};
use nfi_pylite::Module;
use nfi_rlhf::{Feedback, SimulatedTester};

/// One round of the session.
#[derive(Debug, Clone)]
pub struct SessionRound {
    /// Round index (0-based).
    pub round: usize,
    /// The generated fault presented to the tester.
    pub fault: GeneratedFault,
    /// The tester's verdict.
    pub feedback: Feedback,
}

/// Result of a full session.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// All rounds, in order.
    pub rounds: Vec<SessionRound>,
    /// Whether the tester accepted a generation.
    pub accepted: bool,
}

impl SessionResult {
    /// The accepted (or last) generation.
    pub fn final_fault(&self) -> Option<&GeneratedFault> {
        self.rounds.last().map(|r| &r.fault)
    }
}

/// Runs an iterative review session with a tester.
///
/// # Errors
///
/// Propagates pipeline errors ([`PipelineError`]).
pub fn run_session(
    injector: &mut NeuralFaultInjector,
    description: &str,
    module: &Module,
    tester: &SimulatedTester,
    max_rounds: usize,
) -> Result<SessionResult, PipelineError> {
    let mut spec = nfi_nlp::analyze(description, Some(module));
    let mut rounds = Vec::new();
    let mut accepted = false;

    for round in 0..max_rounds.max(1) {
        // Generate against the (possibly refined) spec: score the
        // candidates once, sample from them, and reuse them below.
        let cands = injector.llm().candidates(&spec, module);
        let fault = injector
            .llm_mut()
            .generate_from(&spec, &cands)
            .ok_or(PipelineError::NoCandidates)?;
        let feedback = tester.review(&fault);

        // Online policy update: rating recentered at 3 as the reward.
        let chosen_idx = cands
            .iter()
            .position(|c| c.pattern == fault.pattern)
            .unwrap_or(0);
        let advantage = (feedback.rating - 3.0) / 2.0;
        injector
            .llm_mut()
            .policy_mut()
            .reinforce(&cands, chosen_idx, advantage, 0.2);

        let critique = feedback.critique.clone();
        let was_accepted = feedback.accepted;
        rounds.push(SessionRound {
            round,
            fault,
            feedback,
        });
        if was_accepted {
            accepted = true;
            break;
        }
        // Refine the spec from the critique, as in the running example.
        if let Some(text) = critique {
            let intents = nfi_nlp::parse_critique(&text);
            spec = refine_spec(&spec, &intents);
        }
    }
    Ok(SessionResult { rounds, accepted })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use nfi_rlhf::TargetProfile;

    const ECOMMERCE: &str = "\
def process_transaction(details):
    return True
";

    #[test]
    fn running_example_session_converges_to_retry() {
        let module = nfi_pylite::parse(ECOMMERCE).unwrap();
        let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
        let mut tester = SimulatedTester::new(TargetProfile::wants_retry(), 42);
        tester.noise = 0.0;
        let result = run_session(
            &mut injector,
            "Simulate a scenario where a database transaction fails due to a timeout, causing an unhandled exception within the process transaction function.",
            &module,
            &tester,
            8,
        )
        .unwrap();
        assert!(
            result.accepted,
            "session should converge: {:?}",
            result
                .rounds
                .iter()
                .map(|r| (r.fault.pattern.clone(), r.feedback.rating))
                .collect::<Vec<_>>()
        );
        let last = result.final_fault().unwrap();
        assert!(
            last.pattern.contains("retry"),
            "final pattern {} should include a retry path",
            last.pattern
        );
        assert!(last.snippet.contains("Attempting to retry transaction"));
    }

    #[test]
    fn rejected_rounds_carry_critiques() {
        let module = nfi_pylite::parse(ECOMMERCE).unwrap();
        let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
        let mut tester = SimulatedTester::new(TargetProfile::wants_retry(), 3);
        tester.noise = 0.0;
        let result = run_session(
            &mut injector,
            "simulate a timeout with an unhandled exception in process_transaction",
            &module,
            &tester,
            6,
        )
        .unwrap();
        for round in &result.rounds {
            if !round.feedback.accepted {
                assert!(round.feedback.critique.is_some());
            }
        }
    }

    /// The loop the benchmark's traced twin drives one layer call at a
    /// time: `candidates`, then `generate` (which scores the candidates
    /// again), then REINFORCE on the first candidate with the sampled
    /// pattern, then critique refinement.
    fn two_call_session(
        injector: &mut NeuralFaultInjector,
        description: &str,
        module: &Module,
        tester: &SimulatedTester,
        max_rounds: usize,
    ) -> Vec<SessionRound> {
        let mut spec = nfi_nlp::analyze(description, Some(module));
        let mut rounds = Vec::new();
        for round in 0..max_rounds {
            let cands = injector.llm().candidates(&spec, module);
            let fault = injector
                .llm_mut()
                .generate(&spec, module)
                .expect("a candidate applies");
            let feedback = tester.review(&fault);
            let chosen = cands
                .iter()
                .position(|c| c.pattern == fault.pattern)
                .unwrap_or(0);
            let advantage = (feedback.rating - 3.0) / 2.0;
            injector
                .llm_mut()
                .policy_mut()
                .reinforce(&cands, chosen, advantage, 0.2);
            let critique = feedback.critique.clone();
            let accepted = feedback.accepted;
            rounds.push(SessionRound {
                round,
                fault,
                feedback,
            });
            if accepted {
                break;
            }
            if let Some(text) = critique {
                spec = refine_spec(&spec, &nfi_nlp::parse_critique(&text));
            }
        }
        rounds
    }

    #[test]
    fn session_equals_the_two_call_re_drive() {
        let programs = ["ecommerce", "kvcache"]
            .map(|name| nfi_corpus::by_name(name).expect("corpus program exists"));
        let records = nfi_dataset::generate(
            &programs.map(|p| *p),
            &nfi_dataset::DatasetConfig {
                per_program_cap: 8,
                seed: 1,
            },
        )
        .to_training_records();
        let mut session = NeuralFaultInjector::new(PipelineConfig::default());
        let mut twin = NeuralFaultInjector::new(PipelineConfig::default());
        session.fine_tune(records.clone());
        twin.fine_tune(records);
        let bits = |f: &[f32]| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut seed = 0;
        let mut rounds = 0;
        for program in programs {
            let module = program.module().unwrap();
            let function = &program.target_functions()[0];
            // Wrong-value and interface specs yield several candidates
            // per operator pattern with different features, so a change
            // to which of them REINFORCE credits shows in the weights.
            for description in [
                format!("Simulate a scenario where {function} fails due to a database timeout, causing an unhandled exception."),
                format!("Assign a wrong, corrupted value inside {function}."),
                format!("Pass a duplicate argument to the api call in {function}, invoking it twice."),
            ] {
                for profile in [TargetProfile::wants_retry(), TargetProfile::wants_crashes()] {
                    seed += 1;
                    let tester = SimulatedTester::new(profile.clone(), seed);
                    let got = run_session(&mut session, &description, &module, &tester, 4).unwrap();
                    let tester = SimulatedTester::new(profile, seed);
                    let want = two_call_session(&mut twin, &description, &module, &tester, 4);
                    assert_eq!(got.rounds.len(), want.len(), "{description}");
                    for (g, w) in got.rounds.iter().zip(&want) {
                        assert_eq!(g.fault.pattern, w.fault.pattern, "{description}");
                        assert_eq!(g.fault.snippet, w.fault.snippet);
                        assert_eq!(g.fault.score.to_bits(), w.fault.score.to_bits());
                        assert_eq!(bits(&g.fault.features), bits(&w.fault.features));
                        assert_eq!(g.feedback, w.feedback);
                    }
                    assert_eq!(got.accepted, want.last().unwrap().feedback.accepted);
                    rounds += want.len();
                }
            }
        }
        assert!(rounds > 12, "some sessions should need several rounds");
        assert_eq!(
            bits(session.llm().policy().weights()),
            bits(twin.llm().policy().weights())
        );
    }

    #[test]
    fn session_respects_round_budget() {
        let module = nfi_pylite::parse(ECOMMERCE).unwrap();
        let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
        // A tester that can never be satisfied: wants an exception kind
        // the spec never requests.
        let profile = TargetProfile {
            wants_exception_kind: Some("PermissionError".into()),
            prefers_propagate: true,
            wants_intermittent: true,
            ..TargetProfile::default()
        };
        let mut tester = SimulatedTester::new(profile, 3);
        tester.noise = 0.0;
        let result = run_session(
            &mut injector,
            "simulate a small delay in process_transaction",
            &module,
            &tester,
            3,
        )
        .unwrap();
        assert_eq!(result.rounds.len(), 3);
        assert!(!result.accepted);
    }
}
