//! # nfi-nlp — the Natural Language Processing engine
//!
//! Implements the "data processing" stage of the paper's Fig. 1 workflow
//! (§III-B1): it "dissects the tester's description and restructures it
//! into a format tailored for LLM interpretation", and simultaneously
//! "analyzes the provided code to understand its structure".
//!
//! Given a natural-language fault description plus the target module,
//! [`analyze`] produces a structured [`FaultSpec`]:
//!
//! * a **fault class** guess with confidence (lexicon-based scoring over
//!   the shared [`FaultClass`] ontology),
//! * the **target function / symbols**, matched against the submitted
//!   code's symbol table (multi-word spans are fused: "process
//!   transaction function" → `process_transaction`),
//! * the **exception kind** involved (`TimeoutError`, ...),
//! * **trigger conditions** ("when ...", "after 30 seconds", ...),
//! * **quantities** with units (seconds, retries, percent),
//! * an **effect hint** (crash / hang / wrong output / leak / slow).
//!
//! ```
//! let module = nfi_pylite::parse(
//!     "def process_transaction(details):\n    pass\n",
//! )?;
//! let spec = nfi_nlp::analyze(
//!     "Simulate a scenario where a database transaction fails due to a \
//!      timeout, causing an unhandled exception within the process \
//!      transaction function.",
//!     Some(&module),
//! );
//! assert_eq!(spec.target_function.as_deref(), Some("process_transaction"));
//! assert_eq!(spec.exception_kind.as_deref(), Some("TimeoutError"));
//! # Ok::<(), nfi_pylite::PyliteError>(())
//! ```

pub mod condition;
pub mod critique;
mod entity;
mod lexicon;
mod quantity;

pub use condition::compile_when;
pub use critique::{parse_critique, CritiqueIntent};
pub use quantity::{Quantity, Unit};

use nfi_pylite::analysis::ModuleIndex;
use nfi_pylite::Module;
use nfi_sfi::FaultClass;

/// How the fault should manifest, as hinted by the description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectHint {
    /// An exception escapes (crash / unhandled exception).
    Crash,
    /// The system stops making progress.
    Hang,
    /// Results are silently wrong or corrupted.
    WrongOutput,
    /// Resources are exhausted or leaked.
    Leak,
    /// The operation completes but too slowly.
    Slow,
}

/// When the fault should trigger.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Unconditionally.
    Always,
    /// Guarded by a condition described in prose.
    When(String),
    /// After a delay / count captured by a quantity.
    After(Quantity),
    /// Randomly with the given probability.
    Probabilistic(f64),
}

/// The structured fault specification handed to the code generator —
/// the "detailed fault specification" of §III-A.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Original description verbatim.
    pub raw: String,
    /// Most likely fault class.
    pub class: Option<FaultClass>,
    /// Second-best class when the description is hybrid (e.g. a timeout
    /// *causing* an unhandled exception).
    pub secondary_class: Option<FaultClass>,
    /// Classification confidence in `[0, 1]` (margin-based).
    pub confidence: f32,
    /// Function in the submitted code the fault targets.
    pub target_function: Option<String>,
    /// Other code symbols mentioned.
    pub target_symbols: Vec<String>,
    /// Exception kind involved, when one is implied.
    pub exception_kind: Option<String>,
    /// Trigger condition.
    pub trigger: Trigger,
    /// Manifestation hint.
    pub effect: Option<EffectHint>,
    /// Quantities with units found in the text.
    pub quantities: Vec<Quantity>,
    /// Normalized content words (for retrieval).
    pub keywords: Vec<String>,
}

impl FaultSpec {
    /// Renders the spec as the structured prompt text fed to the
    /// generator (and used for retrieval).
    pub fn prompt_text(&self) -> String {
        let mut parts = vec![self.raw.clone()];
        if let Some(c) = self.class {
            parts.push(format!("class:{}", c.key()));
        }
        if let Some(f) = &self.target_function {
            parts.push(format!("target:{f}"));
        }
        if let Some(k) = &self.exception_kind {
            parts.push(format!("exception:{k}"));
        }
        parts.join(" | ")
    }
}

/// Tokenizes into lowercase word tokens (alphanumeric + underscore runs).
pub fn tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.extend(c.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Light stemming for lexicon matching: plural `-s`, `-ing`, `-ed`.
pub fn stem(word: &str) -> String {
    let w = word;
    for suffix in ["ing", "ed"] {
        if w.len() > suffix.len() + 2 {
            if let Some(base) = w.strip_suffix(suffix) {
                return base.to_string();
            }
        }
    }
    if w.len() > 3 {
        if let Some(base) = w.strip_suffix('s') {
            return base.to_string();
        }
    }
    w.to_string()
}

/// A reusable NLP engine bound to one target module (or none).
///
/// [`analyze`] rebuilds the module's symbol index on every call; when a
/// whole batch of descriptions targets the same code — the E7 pipeline,
/// dataset generation, campaign scenario suites — that work is pure
/// overhead. An `Analyzer` hoists it: the `entity::SymbolTable` is
/// built once at construction, and each [`Analyzer::analyze`] call only
/// does the per-description work (tokenize, stem, classify, match).
///
/// Guaranteed equivalent: `Analyzer::new(code).analyze(d)` returns
/// exactly `analyze(d, code)` for every description `d`.
pub struct Analyzer {
    symbols: Option<entity::SymbolTable>,
}

impl Analyzer {
    /// Builds the engine, indexing `code`'s symbols once.
    pub fn new(code: Option<&Module>) -> Analyzer {
        Analyzer {
            symbols: code.map(|m| entity::SymbolTable::build(&ModuleIndex::build(m))),
        }
    }

    /// Analyzes one description against the pre-indexed module.
    pub fn analyze(&self, description: &str) -> FaultSpec {
        let toks = tokens(description);
        let stems: Vec<String> = toks.iter().map(|t| stem(t)).collect();

        let (class, secondary_class, confidence) = lexicon::classify(&stems);
        let quantities = quantity::extract(description);
        let effect = lexicon::effect_hint(&stems);
        let exception_kind = lexicon::exception_kind(description, &stems);
        let trigger = extract_trigger(description, &toks, &quantities);

        let (target_function, target_symbols) = match &self.symbols {
            Some(table) => table.match_symbols(&toks),
            None => (None, Vec::new()),
        };

        let keywords: Vec<String> = stems
            .iter()
            .filter(|s| !lexicon::is_stopword(s))
            .cloned()
            .collect();

        FaultSpec {
            raw: description.to_string(),
            class,
            secondary_class,
            confidence,
            target_function,
            target_symbols,
            exception_kind,
            trigger,
            effect,
            quantities,
            keywords,
        }
    }
}

/// Analyzes a fault description against an optional target module,
/// producing the structured [`FaultSpec`]. This is the NLP engine's
/// public entry point.
pub fn analyze(description: &str, code: Option<&Module>) -> FaultSpec {
    Analyzer::new(code).analyze(description)
}

fn extract_trigger(description: &str, toks: &[String], quantities: &[Quantity]) -> Trigger {
    let lower = description.to_lowercase();
    // Probabilistic: "50% of the time", "sometimes", "intermittently".
    if let Some(q) = quantities.iter().find(|q| q.unit == Unit::Percent) {
        return Trigger::Probabilistic(q.value / 100.0);
    }
    if toks
        .iter()
        .any(|t| t == "sometimes" || t == "intermittently" || t == "occasionally")
    {
        return Trigger::Probabilistic(0.5);
    }
    // After: "after 30 seconds", "after 3 retries".
    if lower.contains("after ") {
        if let Some(q) = quantities.first() {
            return Trigger::After(q.clone());
        }
    }
    // When/if clause: capture trailing prose.
    for marker in ["when ", "whenever ", "if ", "in case "] {
        if let Some(pos) = lower.find(marker) {
            let clause: String = description[pos + marker.len()..]
                .split(['.', ','])
                .next()
                .unwrap_or("")
                .trim()
                .to_string();
            if !clause.is_empty() {
                return Trigger::When(clause);
            }
        }
    }
    Trigger::Always
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfi_pylite::parse;

    fn ecommerce() -> Module {
        parse(
            "def process_transaction(details):\n    pass\ndef retry_transaction(details):\n    pass\n",
        )
        .unwrap()
    }

    #[test]
    fn running_example_spec() {
        let spec = analyze(
            "Simulate a scenario where a database transaction fails due to a timeout, causing an unhandled exception within the process transaction function.",
            Some(&ecommerce()),
        );
        assert_eq!(spec.target_function.as_deref(), Some("process_transaction"));
        assert_eq!(spec.exception_kind.as_deref(), Some("TimeoutError"));
        assert_eq!(spec.effect, Some(EffectHint::Crash));
        assert_eq!(spec.class, Some(FaultClass::Timing));
        assert_eq!(spec.secondary_class, Some(FaultClass::ExceptionHandling));
    }

    #[test]
    fn race_condition_description() {
        let spec = analyze(
            "Introduce a race condition between two worker threads updating the shared counter without holding the lock.",
            None,
        );
        assert_eq!(spec.class, Some(FaultClass::Concurrency));
        assert!(spec.confidence > 0.0);
    }

    #[test]
    fn leak_description() {
        let spec = analyze(
            "Leak the database connection handle by never closing it after the query completes.",
            None,
        );
        assert_eq!(spec.class, Some(FaultClass::ResourceLeak));
        assert_eq!(spec.effect, Some(EffectHint::Leak));
    }

    #[test]
    fn buffer_overflow_description() {
        let spec = analyze(
            "Write past the end of the request buffer, overflowing its capacity.",
            None,
        );
        assert_eq!(spec.class, Some(FaultClass::BufferOverflow));
    }

    #[test]
    fn omission_description() {
        let spec = analyze(
            "Remove the call to validate_order so invalid orders are silently accepted.",
            None,
        );
        assert_eq!(spec.class, Some(FaultClass::Omission));
    }

    #[test]
    fn trigger_when_clause() {
        let spec = analyze("Corrupt the result when the input list is empty.", None);
        assert_eq!(
            spec.trigger,
            Trigger::When("the input list is empty".to_string())
        );
    }

    #[test]
    fn trigger_probabilistic() {
        let spec = analyze("Fail the request 25% of the time.", None);
        assert_eq!(spec.trigger, Trigger::Probabilistic(0.25));
        let spec = analyze("Intermittently drop the message.", None);
        assert_eq!(spec.trigger, Trigger::Probabilistic(0.5));
    }

    #[test]
    fn trigger_after_quantity() {
        let spec = analyze("Hang the worker after 30 seconds of processing.", None);
        match spec.trigger {
            Trigger::After(q) => {
                assert_eq!(q.value, 30.0);
                assert_eq!(q.unit, Unit::Seconds);
            }
            other => panic!("expected After, got {other:?}"),
        }
    }

    #[test]
    fn quantities_are_extracted() {
        let spec = analyze("Retry 3 times with a 1.5 second delay.", None);
        assert!(spec
            .quantities
            .iter()
            .any(|q| q.value == 3.0 && q.unit == Unit::Count));
        assert!(spec
            .quantities
            .iter()
            .any(|q| q.value == 1.5 && q.unit == Unit::Seconds));
    }

    #[test]
    fn prompt_text_includes_structured_fields() {
        let spec = analyze(
            "Simulate a timeout in the process transaction function.",
            Some(&ecommerce()),
        );
        let p = spec.prompt_text();
        assert!(p.contains("class:timing"));
        assert!(p.contains("target:process_transaction"));
    }

    #[test]
    fn stemming_is_conservative() {
        assert_eq!(stem("locks"), "lock");
        assert_eq!(stem("bus"), "bus", "short words untouched");
        assert_eq!(stem("closing"), "clos");
    }

    #[test]
    fn empty_description_yields_neutral_spec() {
        let spec = analyze("", None);
        assert_eq!(spec.class, None);
        assert_eq!(spec.trigger, Trigger::Always);
        assert!(spec.keywords.is_empty());
    }

    #[test]
    fn batch_analysis_equals_per_item_analysis() {
        let module = ecommerce();
        let descriptions = [
            "Simulate a timeout in the process transaction function.",
            "Leak the database connection handle by never closing it.",
            "Introduce a race condition on the shared counter.",
            "",
            "Retry 3 times with a 1.5 second delay in retry_transaction.",
        ];
        for code in [Some(&module), None] {
            let analyzer = Analyzer::new(code);
            for d in descriptions {
                assert_eq!(analyzer.analyze(d), analyze(d, code), "diverged on {d:?}");
            }
        }
    }
}
