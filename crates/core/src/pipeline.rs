//! The one-shot injection pipeline: NL description + code → integrated
//! faulty program → failure-mode report.

use nfi_inject::{integrate_snippet, run_experiment_cached, ExperimentReport, PatchError};
use nfi_llm::{FaultLlm, GeneratedFault, LlmConfig, TrainingRecord};
use nfi_nlp::FaultSpec;
use nfi_pylite::{MachineConfig, Module, PyliteError};
use std::fmt;
use std::time::Instant;

/// Configuration of the end-to-end pipeline.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Machine settings used by the test harness.
    pub machine: MachineConfig,
    /// Generator settings.
    pub llm: LlmConfig,
}

/// Why the pipeline could not complete.
#[derive(Debug)]
pub enum PipelineError {
    /// The submitted code does not parse.
    Code(PyliteError),
    /// The generator produced no applicable candidate.
    NoCandidates,
    /// The reviewed snippet could not be integrated.
    Integration(PatchError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Code(e) => write!(f, "submitted code does not parse: {e}"),
            PipelineError::NoCandidates => {
                write!(f, "no fault candidate applies to the submitted code")
            }
            PipelineError::Integration(e) => write!(f, "integration failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<PyliteError> for PipelineError {
    fn from(e: PyliteError) -> Self {
        PipelineError::Code(e)
    }
}

/// Wall-clock microseconds spent in each pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// NLP analysis.
    pub nlp_us: u128,
    /// Candidate synthesis + policy sampling.
    pub generate_us: u128,
    /// Snippet integration.
    pub integrate_us: u128,
    /// Pristine + faulty suite execution.
    pub test_us: u128,
}

/// The full result of one injection.
#[derive(Debug, Clone)]
pub struct InjectionReport {
    /// Structured spec produced by the NLP engine.
    pub spec: FaultSpec,
    /// The generated fault (snippet, rationale, provenance).
    pub fault: GeneratedFault,
    /// The integrated faulty module.
    pub faulty_module: Module,
    /// Differential test results.
    pub experiment: ExperimentReport,
    /// Per-stage timings.
    pub timings: StageTimings,
}

/// The end-to-end injector (Fig. 1 without the review loop; see
/// [`crate::session`] for the interactive variant).
pub struct NeuralFaultInjector {
    llm: FaultLlm,
    config: PipelineConfig,
}

impl NeuralFaultInjector {
    /// Creates a pipeline with an untrained generator.
    pub fn new(config: PipelineConfig) -> Self {
        NeuralFaultInjector {
            llm: FaultLlm::untrained(config.llm.clone()),
            config,
        }
    }

    /// Fine-tunes the generator on SFI-produced records (§IV-1).
    pub fn fine_tune(&mut self, records: Vec<TrainingRecord>) {
        self.llm.fine_tune(records);
    }

    /// The underlying generator (e.g. for RLHF training).
    pub fn llm_mut(&mut self) -> &mut FaultLlm {
        &mut self.llm
    }

    /// Read access to the generator.
    pub fn llm(&self) -> &FaultLlm {
        &self.llm
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the full pipeline on source text.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn inject(
        &mut self,
        description: &str,
        source: &str,
    ) -> Result<InjectionReport, PipelineError> {
        let module = nfi_pylite::parse(source)?;
        self.inject_module(description, &module)
    }

    /// Runs the full pipeline on a parsed module.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn inject_module(
        &mut self,
        description: &str,
        module: &Module,
    ) -> Result<InjectionReport, PipelineError> {
        let t = Instant::now();
        let spec = nfi_nlp::analyze(description, Some(module));
        let nlp_us = t.elapsed().as_micros();
        self.inject_prepared(spec, nlp_us, module)
    }

    /// Runs the generation → integration → testing stages for a spec
    /// the caller already produced (e.g. through a shared
    /// [`nfi_nlp::Analyzer`]). `nlp_us` is the NLP time to record in
    /// the report's stage timings.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn inject_prepared(
        &mut self,
        spec: FaultSpec,
        nlp_us: u128,
        module: &Module,
    ) -> Result<InjectionReport, PipelineError> {
        let mut timings = StageTimings {
            nlp_us,
            ..StageTimings::default()
        };

        let t = Instant::now();
        let fault = self
            .llm
            .generate(&spec, module)
            .ok_or(PipelineError::NoCandidates)?;
        timings.generate_us = t.elapsed().as_micros();

        // Integration: splice the *reviewed snippet* back into the
        // pristine codebase, exercising the automated integration tool.
        let t = Instant::now();
        let faulty_module = match integrate_snippet(module, &fault.snippet) {
            Ok(m) => m,
            Err(PatchError::EmptySnippet) => fault.module.clone(),
            Err(e) => return Err(PipelineError::Integration(e)),
        };
        timings.integrate_us = t.elapsed().as_micros();

        let t = Instant::now();
        let experiment = run_experiment_cached(module, &faulty_module, &self.config.machine);
        timings.test_us = t.elapsed().as_micros();

        Ok(InjectionReport {
            spec,
            fault,
            faulty_module,
            experiment,
            timings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfi_inject::FailureMode;

    const ECOMMERCE: &str = "\
def process_transaction(details):
    return True
def test_ok():
    assert process_transaction({})
";

    #[test]
    fn end_to_end_timeout_injection() {
        let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
        let report = injector
            .inject(
                "Simulate a database timeout causing an unhandled exception in the process transaction function.",
                ECOMMERCE,
            )
            .unwrap();
        assert_eq!(
            report.spec.target_function.as_deref(),
            Some("process_transaction")
        );
        assert!(report.fault.snippet.contains("TimeoutError"));
        // The integrated module differs from pristine and still parses.
        let printed = nfi_pylite::print_module(&report.faulty_module);
        nfi_pylite::parse(&printed).unwrap();
    }

    #[test]
    fn crash_pattern_is_detected_by_suite() {
        let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
        // Loop until the sampler picks the unhandled-raise pattern; the
        // experiment for it must be an activated, detected crash.
        for _ in 0..20 {
            let report = injector
                .inject(
                    "Simulate a database timeout causing an unhandled exception in the process transaction function.",
                    ECOMMERCE,
                )
                .unwrap();
            if report.fault.pattern == "raise_unhandled" {
                assert!(report.experiment.activated);
                assert!(report.experiment.detected);
                assert_eq!(
                    report.experiment.overall,
                    FailureMode::CrashUnhandled("TimeoutError".into())
                );
                return;
            }
        }
        panic!("raise_unhandled never sampled in 20 draws");
    }

    #[test]
    fn unparseable_code_is_an_error() {
        let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
        assert!(matches!(
            injector.inject("whatever", "def f(:\n"),
            Err(PipelineError::Code(_))
        ));
    }

    #[test]
    fn timings_are_recorded() {
        let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
        let report = injector
            .inject("simulate a timeout error in process_transaction", ECOMMERCE)
            .unwrap();
        // test stage runs two suites; it cannot be zero.
        assert!(report.timings.test_us > 0);
    }

    #[test]
    fn shared_analyzer_injection_equals_per_item_injection() {
        let module = nfi_pylite::parse(ECOMMERCE).unwrap();
        let descriptions = [
            "Simulate a database timeout causing an unhandled exception in process_transaction.",
            "Leak the database connection handle in process_transaction.",
        ];
        // The E-drivers' path: one analyzer for the module, then
        // `inject_prepared` per description.
        let analyzer = nfi_nlp::Analyzer::new(Some(&module));
        let mut shared = NeuralFaultInjector::new(PipelineConfig::default());
        let mut sequential = NeuralFaultInjector::new(PipelineConfig::default());
        for description in descriptions {
            let got = shared
                .inject_prepared(analyzer.analyze(description), 0, &module)
                .expect("shared-analyzer injection succeeds");
            let want = sequential
                .inject_module(description, &module)
                .expect("sequential injection succeeds");
            assert_eq!(got.spec, want.spec);
            assert_eq!(got.fault.pattern, want.fault.pattern);
            assert_eq!(got.fault.snippet, want.fault.snippet);
            assert_eq!(got.experiment.overall, want.experiment.overall);
        }
    }

    #[test]
    fn fine_tuned_pipeline_still_works() {
        let ds = nfi_dataset::generate(
            &[*nfi_corpus::by_name("kvcache").unwrap()],
            &nfi_dataset::DatasetConfig {
                per_program_cap: 20,
                seed: 1,
            },
        );
        let mut injector = NeuralFaultInjector::new(PipelineConfig::default());
        injector.fine_tune(ds.to_training_records());
        let report = injector
            .inject(
                "simulate a timeout failure in process_transaction",
                ECOMMERCE,
            )
            .unwrap();
        assert!(report.fault.n_candidates > 0);
    }
}
