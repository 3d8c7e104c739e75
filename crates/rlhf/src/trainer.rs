//! The RLHF training loop: generate → feedback → reward model →
//! policy-gradient update.
//!
//! Each iteration sweeps all scenarios: the policy samples a candidate
//! per scenario, the simulated tester rates it and contributes
//! preference pairs, the reward model refits, and the policy takes a
//! REINFORCE step with the *reward model's* score (not the raw rating)
//! as the signal — matching the two-stage structure of RLHF.

use crate::feedback::PreferencePair;
use crate::reward::RewardModel;
use crate::tester::SimulatedTester;
use nfi_llm::FaultLlm;
use nfi_nlp::FaultSpec;
use nfi_pylite::Module;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which policy-gradient estimator the trainer uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyOptimizer {
    /// Vanilla REINFORCE with a reward-model baseline.
    Reinforce,
    /// PPO-style single-sample clipped surrogate with the given epsilon.
    PpoClip {
        /// Trust-region half-width.
        epsilon: f32,
    },
}

/// Configuration for [`RlhfTrainer`].
#[derive(Debug, Clone)]
pub struct RlhfConfig {
    /// Number of feedback iterations.
    pub iterations: usize,
    /// Policy-gradient estimator.
    pub optimizer: PolicyOptimizer,
    /// Policy-gradient learning rate.
    pub policy_lr: f32,
    /// Reward-model epochs per iteration.
    pub reward_epochs: usize,
    /// Trainer seed (sampling / pair selection).
    pub seed: u64,
    /// Maximum retained preference pairs (sliding window).
    pub max_pairs: usize,
}

impl Default for RlhfConfig {
    fn default() -> Self {
        RlhfConfig {
            iterations: 10,
            optimizer: PolicyOptimizer::Reinforce,
            policy_lr: 0.15,
            reward_epochs: 5,
            seed: 0x5EED,
            max_pairs: 512,
        }
    }
}

/// Alignment statistics for one iteration (one row of experiment E1).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Mean tester rating over scenarios.
    pub mean_rating: f64,
    /// Fraction of generations accepted (rating ≥ 4).
    pub acceptance: f64,
    /// Mean reward-model score of chosen candidates.
    pub mean_reward: f64,
    /// Reward-model accuracy on this iteration's preference pairs.
    pub reward_accuracy: f64,
}

/// The RLHF training driver.
pub struct RlhfTrainer {
    config: RlhfConfig,
    reward: RewardModel,
    pairs: Vec<PreferencePair>,
    rng: StdRng,
}

impl RlhfTrainer {
    /// Creates a trainer.
    pub fn new(config: RlhfConfig) -> Self {
        let reward = RewardModel::new(config.seed ^ 0x7EA5);
        let rng = StdRng::seed_from_u64(config.seed);
        RlhfTrainer {
            config,
            reward,
            pairs: Vec::new(),
            rng,
        }
    }

    /// Runs the loop over scenarios, mutating the model's policy.
    /// Returns per-iteration alignment statistics.
    pub fn run(
        &mut self,
        llm: &mut FaultLlm,
        scenarios: &[(FaultSpec, Module)],
        tester: &SimulatedTester,
    ) -> Vec<IterationStats> {
        let mut stats = Vec::new();
        for iteration in 0..self.config.iterations {
            let mut ratings = Vec::new();
            let mut rewards = Vec::new();
            let mut accepted = 0usize;
            let mut updates: Vec<(Vec<nfi_llm::Candidate>, usize, f32)> = Vec::new();

            for (spec, module) in scenarios {
                let cands = llm.candidates(spec, module);
                if cands.is_empty() {
                    continue;
                }
                let uniform: f32 = self.rng.gen();
                let (chosen_idx, sample_probs) = llm.policy().choose(&cands, uniform);
                let old_prob = sample_probs[chosen_idx];
                let chosen = &cands[chosen_idx];

                let rating = tester.rate_candidate(chosen, chosen.features[0]);
                ratings.push(rating as f64);
                if rating >= 4.0 {
                    accepted += 1;
                }

                // Preference pair against another random candidate.
                if cands.len() > 1 {
                    let mut other = self.rng.gen_range(0..cands.len());
                    if other == chosen_idx {
                        other = (other + 1) % cands.len();
                    }
                    if let Some(pair) = tester.prefer(
                        chosen,
                        chosen.features[0],
                        &cands[other],
                        cands[other].features[0],
                    ) {
                        self.pairs.push(pair);
                        if self.pairs.len() > self.config.max_pairs {
                            let excess = self.pairs.len() - self.config.max_pairs;
                            self.pairs.drain(0..excess);
                        }
                    }
                }
                updates.push((cands, chosen_idx, old_prob));
                let _ = rating;
            }

            // Stage 1: refit the reward model on accumulated preferences.
            self.reward.train(&self.pairs, self.config.reward_epochs);
            let reward_accuracy = self.reward.accuracy(&self.pairs) as f64;

            // Stage 2: policy gradient with reward-model advantages.
            let predicted: Vec<f32> = updates
                .iter()
                .map(|(cands, idx, _)| self.reward.predict(&cands[*idx].features))
                .collect();
            let baseline: f32 = if predicted.is_empty() {
                0.0
            } else {
                predicted.iter().sum::<f32>() / predicted.len() as f32
            };
            for ((cands, idx, old_prob), r) in updates.iter().zip(predicted.iter()) {
                rewards.push(*r as f64);
                let advantage = r - baseline;
                match self.config.optimizer {
                    PolicyOptimizer::Reinforce => {
                        llm.policy_mut()
                            .reinforce(cands, *idx, advantage, self.config.policy_lr);
                    }
                    PolicyOptimizer::PpoClip { epsilon } => {
                        llm.policy_mut().ppo_clip(
                            cands,
                            *idx,
                            *old_prob,
                            advantage,
                            self.config.policy_lr,
                            epsilon,
                        );
                    }
                }
            }

            stats.push(IterationStats {
                iteration,
                mean_rating: mean(&ratings),
                acceptance: if ratings.is_empty() {
                    0.0
                } else {
                    accepted as f64 / ratings.len() as f64
                },
                mean_reward: mean(&rewards),
                reward_accuracy,
            });
        }
        stats
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tester::TargetProfile;
    use nfi_llm::LlmConfig;

    fn scenarios() -> Vec<(FaultSpec, Module)> {
        let sources = [
            (
                "def handle(req):\n    return 1\n",
                "simulate a timeout causing an unhandled exception in handle",
            ),
            (
                "def fetch(url):\n    return url\n",
                "simulate a timeout failure with an error in fetch",
            ),
            (
                "def store(v):\n    return v\n",
                "simulate a timeout exception inside store",
            ),
        ];
        sources
            .iter()
            .map(|(src, desc)| {
                let m = nfi_pylite::parse(src).unwrap();
                let spec = nfi_nlp::analyze(desc, Some(&m));
                (spec, m)
            })
            .collect()
    }

    #[test]
    fn alignment_improves_with_feedback() {
        let mut llm = FaultLlm::untrained(LlmConfig::default());
        let tester = SimulatedTester::new(TargetProfile::wants_retry(), 7);
        let mut trainer = RlhfTrainer::new(RlhfConfig {
            iterations: 12,
            ..RlhfConfig::default()
        });
        let stats = trainer.run(&mut llm, &scenarios(), &tester);
        assert_eq!(stats.len(), 12);
        let first3: f64 = stats[..3].iter().map(|s| s.mean_rating).sum::<f64>() / 3.0;
        let last3: f64 = stats[9..].iter().map(|s| s.mean_rating).sum::<f64>() / 3.0;
        assert!(
            last3 > first3 + 0.3,
            "mean rating should improve: first3={first3:.2} last3={last3:.2}\n{stats:#?}"
        );
    }

    #[test]
    fn policy_learns_to_prefer_retry_patterns() {
        let mut llm = FaultLlm::untrained(LlmConfig::default());
        let tester = SimulatedTester::new(TargetProfile::wants_retry(), 7);
        let scen = scenarios();
        let before = retry_probability(&llm, &scen);
        let mut trainer = RlhfTrainer::new(RlhfConfig {
            iterations: 12,
            ..RlhfConfig::default()
        });
        trainer.run(&mut llm, &scen, &tester);
        let after = retry_probability(&llm, &scen);
        assert!(
            after > before + 0.2,
            "retry-pattern probability should grow: {before:.3} -> {after:.3}"
        );
    }

    fn retry_probability(llm: &FaultLlm, scenarios: &[(FaultSpec, Module)]) -> f32 {
        let mut total = 0.0;
        let mut n = 0;
        for (spec, module) in scenarios {
            let cands = llm.candidates(spec, module);
            let probs = llm.policy().distribution(&cands);
            for (c, p) in cands.iter().zip(probs.iter()) {
                if c.pattern == "raise_with_retry" {
                    total += p;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f32
        }
    }

    #[test]
    fn ppo_variant_also_improves_alignment() {
        let mut llm = FaultLlm::untrained(LlmConfig::default());
        let tester = SimulatedTester::new(TargetProfile::wants_retry(), 7);
        let mut trainer = RlhfTrainer::new(RlhfConfig {
            iterations: 12,
            optimizer: PolicyOptimizer::PpoClip { epsilon: 0.2 },
            ..RlhfConfig::default()
        });
        let stats = trainer.run(&mut llm, &scenarios(), &tester);
        let first3: f64 = stats[..3].iter().map(|s| s.mean_rating).sum::<f64>() / 3.0;
        let last3: f64 = stats[9..].iter().map(|s| s.mean_rating).sum::<f64>() / 3.0;
        assert!(
            last3 > first3 + 0.2,
            "ppo alignment should improve: {first3:.2} -> {last3:.2}"
        );
    }

    #[test]
    fn stats_are_reproducible_per_seed() {
        let run = |seed| {
            let mut llm = FaultLlm::untrained(LlmConfig::default());
            let tester = SimulatedTester::new(TargetProfile::wants_retry(), 7);
            let mut trainer = RlhfTrainer::new(RlhfConfig {
                iterations: 3,
                seed,
                ..RlhfConfig::default()
            });
            trainer.run(&mut llm, &scenarios(), &tester)
        };
        let a = run(1);
        let b = run(1);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x.mean_rating - y.mean_rating).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_scenarios_yield_empty_rows() {
        let mut llm = FaultLlm::untrained(LlmConfig::default());
        let tester = SimulatedTester::new(TargetProfile::default(), 1);
        let mut trainer = RlhfTrainer::new(RlhfConfig {
            iterations: 2,
            ..RlhfConfig::default()
        });
        let stats = trainer.run(&mut llm, &[], &tester);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].mean_rating, 0.0);
    }
}
