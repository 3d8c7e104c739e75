//! # nfi-llm — the fault-generating language model
//!
//! The stand-in for the paper's LLM (§III-B2): a **retrieval-augmented
//! neural generator** that maps a structured [`FaultSpec`] plus the
//! target module to executable faulty code.
//!
//! Pipeline per generation:
//!
//! 1. **Retrieve** the most similar fine-tuning records (TF-IDF over the
//!    SFI-generated corpus of §IV-1) — [`corpusdb::CorpusDb`]. Retrieval
//!    depends only on the spec, so it runs once per spec, not once per
//!    candidate.
//! 2. **Synthesize** candidate mutations: class-specific AST patterns
//!    (timeout-raise, mishandled catch, retry loop, leak, overflow, …)
//!    plus operator-backed mutations targeted at the spec's function —
//!    [`synth`].
//! 3. **Score** candidates with a learned linear **policy** over
//!    candidate features (class/effect/trigger agreement, retrieval
//!    similarity, neural-LM fluency, corpus prior) and **sample** with
//!    temperature — [`policy::Policy`]. This policy is the object RLHF
//!    fine-tunes.
//!
//! Steps 1–3 up to scoring are [`FaultLlm::candidates`]; sampling is
//! [`FaultLlm::generate_from`], and [`FaultLlm::generate`] is the two
//! in sequence. A review round scores its candidates once: the session
//! loop calls `candidates`, samples with `generate_from`, and hands the
//! same candidates to the REINFORCE update.
//!
//! Why this substitution preserves the paper's behaviour is argued in
//! DESIGN.md §1: NL→code mapping, data-volume sensitivity, and
//! reward-steerability are all real and measurable here.
//!
//! ```
//! use nfi_llm::{FaultLlm, LlmConfig};
//!
//! let module = nfi_pylite::parse(
//!     "def process_transaction(details):\n    return True\n",
//! )?;
//! let spec = nfi_nlp::analyze(
//!     "Simulate a database timeout causing an unhandled exception in \
//!      the process transaction function.",
//!     Some(&module),
//! );
//! let mut llm = FaultLlm::untrained(LlmConfig::default());
//! let fault = llm.generate(&spec, &module).expect("candidates exist");
//! assert!(fault.snippet.contains("TimeoutError"));
//! # Ok::<(), nfi_pylite::PyliteError>(())
//! ```

pub mod corpusdb;
pub mod params;
pub mod policy;
pub mod refine;
pub mod synth;

pub use corpusdb::{CorpusDb, TrainingRecord};
pub use params::GenParams;
pub use policy::{Candidate, Policy, FEATURE_DIM};
pub use refine::refine_spec;

use nfi_neural::lm::{code_tokens, LmConfig, NgramLm};
use nfi_nlp::FaultSpec;
use nfi_pylite::Module;
use nfi_sfi::FaultClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`FaultLlm`].
#[derive(Debug, Clone)]
pub struct LlmConfig {
    /// Sampling temperature over candidate scores.
    pub temperature: f32,
    /// Retrieval depth.
    pub top_k: usize,
    /// Token-LM hyper-parameters.
    pub lm: LmConfig,
    /// Epochs of LM fine-tuning per [`FaultLlm::fine_tune`] call.
    pub lm_epochs: usize,
    /// LM learning rate.
    pub lm_lr: f32,
    /// Seed for sampling.
    pub seed: u64,
}

impl Default for LlmConfig {
    fn default() -> Self {
        LlmConfig {
            temperature: 0.7,
            top_k: 4,
            lm: LmConfig::default(),
            lm_epochs: 3,
            lm_lr: 0.05,
            // Chosen so the untrained policy's first draws under the
            // vendored RNG reproduce the paper's running example
            // (timeout-raise first, retry variant after critique).
            seed: 0,
        }
    }
}

/// A generated fault: a ready-to-run mutated module plus provenance for
/// review.
#[derive(Debug, Clone)]
pub struct GeneratedFault {
    /// The spec that drove generation.
    pub spec: FaultSpec,
    /// Fault class of the chosen candidate.
    pub class: FaultClass,
    /// Synthesis pattern id (e.g. `"raise_mishandled"`, `"op:MFC"`).
    pub pattern: String,
    /// Full mutated module, ready for integration and testing.
    pub module: Module,
    /// Function the fault was placed in, when applicable.
    pub target_function: Option<String>,
    /// Printed source of the mutated region (what the tester reviews).
    pub snippet: String,
    /// Why this candidate was produced.
    pub rationale: String,
    /// Policy score of the chosen candidate.
    pub score: f32,
    /// Concrete parameters used.
    pub params: GenParams,
    /// Feature vector of the chosen candidate (used by RLHF).
    pub features: Vec<f32>,
    /// Number of candidates considered.
    pub n_candidates: usize,
}

/// The fault-generating model: fine-tuning corpus + retrieval index +
/// token LM + sampling policy.
pub struct FaultLlm {
    corpus: CorpusDb,
    lm: Option<NgramLm>,
    policy: Policy,
    config: LlmConfig,
    rng: StdRng,
}

impl FaultLlm {
    /// Creates a model with no fine-tuning data (generation falls back to
    /// pure pattern synthesis; retrieval and fluency features are zero).
    pub fn untrained(config: LlmConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        FaultLlm {
            corpus: CorpusDb::empty(),
            lm: None,
            policy: Policy::new(config.temperature),
            config,
            rng,
        }
    }

    /// Fine-tunes on SFI-generated records (§IV-1): builds the retrieval
    /// index and trains the token LM on the faulty snippets.
    ///
    /// The corpus is interned to `u32` ids once and epochs run the
    /// batched GEMM trainer — no per-epoch re-tokenization, no
    /// per-position weight writes.
    pub fn fine_tune(&mut self, records: Vec<TrainingRecord>) {
        let sequences: Vec<Vec<String>> = records.iter().map(|r| code_tokens(&r.snippet)).collect();
        self.corpus = CorpusDb::build(records);
        let mut lm = NgramLm::new(&sequences, self.config.lm.clone());
        let ids = lm.encode_corpus(&sequences);
        for _ in 0..self.config.lm_epochs {
            lm.train_epoch_batched(&ids, self.config.lm_lr, nfi_neural::lm::DEFAULT_BATCH);
        }
        self.lm = Some(lm);
    }

    /// The fine-tuning corpus.
    pub fn corpus(&self) -> &CorpusDb {
        &self.corpus
    }

    /// The token LM, once fine-tuned.
    pub fn lm(&self) -> Option<&NgramLm> {
        self.lm.as_ref()
    }

    /// Mutable access to the sampling policy (RLHF updates it).
    pub fn policy_mut(&mut self) -> &mut Policy {
        &mut self.policy
    }

    /// Read access to the sampling policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Enumerates and scores all candidates for a spec (deterministic),
    /// with one retrieval pass for all of them.
    pub fn candidates(&self, spec: &FaultSpec, module: &Module) -> Vec<Candidate> {
        let params = params::derive(spec);
        let mut cands = synth::synthesize(spec, module, &params);
        let hits = self.corpus.retrieve(&spec.prompt_text(), self.config.top_k);
        for c in &mut cands {
            c.features = self.featurize(spec, &hits, c);
        }
        cands
    }

    /// Generates one fault: synthesize candidates, score, sample —
    /// [`FaultLlm::candidates`] then [`FaultLlm::generate_from`].
    ///
    /// Returns `None` only when no candidate applies (e.g. an empty
    /// module with no target).
    pub fn generate(&mut self, spec: &FaultSpec, module: &Module) -> Option<GeneratedFault> {
        let cands = self.candidates(spec, module);
        self.generate_from(spec, &cands)
    }

    /// Samples one fault from candidates already scored for `spec` by
    /// [`FaultLlm::candidates`], with the single RNG draw
    /// [`FaultLlm::generate`] makes. A caller that needs the candidates
    /// itself (the review session's REINFORCE update) scores them once
    /// and samples here instead of scoring them again.
    ///
    /// Returns `None`, without drawing, when `cands` is empty.
    pub fn generate_from(
        &mut self,
        spec: &FaultSpec,
        cands: &[Candidate],
    ) -> Option<GeneratedFault> {
        if cands.is_empty() {
            return None;
        }
        let uniform: f32 = self.rng.gen();
        let (idx, _probs) = self.policy.choose(cands, uniform);
        let chosen = &cands[idx];
        Some(GeneratedFault {
            spec: spec.clone(),
            class: chosen.class,
            pattern: chosen.pattern.clone(),
            module: chosen.module.clone(),
            target_function: chosen.target_function.clone(),
            snippet: chosen.snippet.clone(),
            rationale: chosen.rationale.clone(),
            score: self.policy.score(&chosen.features),
            params: chosen.params.clone(),
            features: chosen.features.clone(),
            n_candidates: cands.len(),
        })
    }

    /// Computes the feature vector of a candidate for this spec, given
    /// the spec's retrieval `hits`.
    fn featurize(
        &self,
        spec: &FaultSpec,
        hits: &[(&TrainingRecord, f32)],
        c: &Candidate,
    ) -> Vec<f32> {
        let mut f = vec![0.0f32; FEATURE_DIM];
        f[0] = (Some(c.class) == spec.class) as u8 as f32;
        f[1] = (Some(c.class) == spec.secondary_class) as u8 as f32;
        // Retrieval similarity: best match among same-class records.
        f[2] = hits
            .iter()
            .filter(|(r, _)| r.class == c.class)
            .map(|(_, s)| *s)
            .fold(0.0, f32::max);
        // Fluency: inverse perplexity of the snippet under the token LM.
        if let Some(lm) = &self.lm {
            let toks = code_tokens(&c.snippet);
            if !toks.is_empty() {
                f[3] = (-lm.nll(std::slice::from_ref(&toks))).exp() as f32;
            }
        }
        f[4] =
            (c.target_function.is_some() && c.target_function == spec.target_function) as u8 as f32;
        f[5] = c.params.retries.map(|r| r > 0).unwrap_or(false) as u8 as f32;
        f[6] = c.params.logs as u8 as f32;
        f[7] = c.effect_crash as u8 as f32;
        f[8] = c.effect_matches_spec as u8 as f32;
        f[9] = c.trigger_honored;
        // Corpus prior for this class.
        f[10] = self.corpus.class_fraction(c.class);
        f[11] = 1.0; // bias
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfi_pylite::parse;

    fn target() -> Module {
        parse("def process_transaction(details):\n    return True\n").unwrap()
    }

    fn timeout_spec(module: &Module) -> FaultSpec {
        nfi_nlp::analyze(
            "Simulate a database timeout causing an unhandled exception in the process transaction function.",
            Some(module),
        )
    }

    #[test]
    fn untrained_model_still_generates() {
        let module = target();
        let spec = timeout_spec(&module);
        let mut llm = FaultLlm::untrained(LlmConfig::default());
        let fault = llm.generate(&spec, &module).unwrap();
        assert!(fault.n_candidates >= 2);
        assert!(fault.snippet.contains("TimeoutError"), "{}", fault.snippet);
        // The generated module must reparse.
        let printed = nfi_pylite::print_module(&fault.module);
        parse(&printed).unwrap();
    }

    #[test]
    fn fine_tuning_populates_retrieval_and_lm() {
        let module = target();
        let spec = timeout_spec(&module);
        let mut llm = FaultLlm::untrained(LlmConfig::default());
        llm.fine_tune(vec![
            TrainingRecord {
                id: "r1".into(),
                description: "timeout raises unhandled exception in transaction".into(),
                class: FaultClass::Timing,
                snippet: "raise TimeoutError(\"db timeout\")".into(),
                operator: "DFR".into(),
                program: "ecommerce".into(),
            },
            TrainingRecord {
                id: "r2".into(),
                description: "remove lock around counter".into(),
                class: FaultClass::Concurrency,
                snippet: "counter = counter + 1".into(),
                operator: "LRA".into(),
                program: "banking".into(),
            },
        ]);
        let cands = llm.candidates(&spec, &module);
        let timing = cands
            .iter()
            .find(|c| c.class == FaultClass::Timing)
            .unwrap();
        assert!(
            timing.features[2] > 0.0,
            "retrieval similarity should be positive for the timing candidate"
        );
        assert!(timing.features[3] > 0.0, "fluency should be positive");
    }

    fn record(id: &str, description: &str, class: FaultClass, snippet: &str) -> TrainingRecord {
        TrainingRecord {
            id: id.into(),
            description: description.into(),
            class,
            snippet: snippet.into(),
            operator: "X".into(),
            program: "ecommerce".into(),
        }
    }

    /// More records than `top_k`, across several classes, so retrieval
    /// both truncates and mixes classes.
    fn mixed_records() -> Vec<TrainingRecord> {
        vec![
            record(
                "t1",
                "database timeout raises unhandled exception in transaction",
                FaultClass::Timing,
                "raise TimeoutError(\"db timeout\")",
            ),
            record(
                "t2",
                "slow transaction exceeds its timeout budget",
                FaultClass::Timing,
                "time.sleep(5)",
            ),
            record(
                "e1",
                "exception in transaction swallowed without recovery",
                FaultClass::ExceptionHandling,
                "except Exception:\n    pass",
            ),
            record(
                "l1",
                "transaction leaks the database connection handle",
                FaultClass::ResourceLeak,
                "conn = open_connection()",
            ),
            record(
                "c1",
                "race on the shared transaction counter without the lock",
                FaultClass::Concurrency,
                "counter = counter + 1",
            ),
            record(
                "o1",
                "omit the commit call in the transaction",
                FaultClass::Omission,
                "pass",
            ),
        ]
    }

    fn specs(module: &Module) -> Vec<FaultSpec> {
        [
            "Simulate a database timeout causing an unhandled exception in the process transaction function.",
            "Leak the database connection handle in process_transaction.",
            "Swallow the exception raised inside process_transaction without any recovery.",
            "Introduce a race condition in process_transaction on the shared counter.",
        ]
        .iter()
        .map(|d| nfi_nlp::analyze(d, Some(module)))
        .collect()
    }

    #[test]
    fn retrieval_feature_equals_the_per_candidate_reference() {
        let module = target();
        let mut llm = FaultLlm::untrained(LlmConfig::default());
        llm.fine_tune(mixed_records());
        let top_k = LlmConfig::default().top_k;
        let mut positive = 0;
        for spec in specs(&module) {
            let hits = llm.corpus().retrieve(&spec.prompt_text(), top_k);
            for c in llm.candidates(&spec, &module) {
                let want = hits
                    .iter()
                    .filter(|(r, _)| r.class == c.class)
                    .map(|(_, s)| *s)
                    .fold(0.0, f32::max);
                assert_eq!(c.features[2].to_bits(), want.to_bits(), "{}", c.pattern);
                positive += usize::from(want > 0.0);
            }
        }
        assert!(
            positive > 0,
            "some candidate should match a retrieved class"
        );
    }

    #[test]
    fn untrained_model_has_zero_retrieval_feature() {
        let module = target();
        let llm = FaultLlm::untrained(LlmConfig::default());
        for spec in specs(&module) {
            for c in llm.candidates(&spec, &module) {
                assert_eq!(c.features[2].to_bits(), 0.0f32.to_bits(), "{}", c.pattern);
            }
        }
    }

    #[test]
    fn generate_from_without_candidates_does_not_draw() {
        let spec = timeout_spec(&target());
        let mut llm = FaultLlm::untrained(LlmConfig::default());
        let mut reference = FaultLlm::untrained(LlmConfig::default());
        assert!(llm.generate_from(&spec, &[]).is_none());
        assert_eq!(llm.rng.gen::<u64>(), reference.rng.gen::<u64>());
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let module = target();
        let spec = timeout_spec(&module);
        let gen = |seed| {
            let mut llm = FaultLlm::untrained(LlmConfig {
                seed,
                ..LlmConfig::default()
            });
            llm.generate(&spec, &module).unwrap().pattern
        };
        assert_eq!(gen(5), gen(5));
    }

    #[test]
    fn feature_vector_has_fixed_dim_and_bias() {
        let module = target();
        let spec = timeout_spec(&module);
        let llm = FaultLlm::untrained(LlmConfig::default());
        for c in llm.candidates(&spec, &module) {
            assert_eq!(c.features.len(), FEATURE_DIM);
            assert_eq!(c.features[FEATURE_DIM - 1], 1.0);
        }
    }
}
