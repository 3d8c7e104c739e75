//! The correctness gate: every campaign or served document must be
//! byte-identical to a from-scratch offline run of the same source —
//! plan, then execute every unit with no store involved (what
//! `nfi campaign plan` + `nfi campaign exec` produce). References are
//! computed outside every timed region, once per distinct module.

use crate::report::digest;
use nfi_core::{exec_spec, plan_campaign, ExecConfig, ShardRun};
use nfi_pylite::MachineConfig;
use std::collections::HashMap;

/// Reference documents, computed lazily and memoized by module
/// fingerprint (a unit's outcome does not depend on the program name,
/// which only appears in the document header).
pub struct Gate {
    machine: MachineConfig,
    seed: u64,
    runs: HashMap<u64, ShardRun>,
    digests: HashMap<(String, u64), u64>,
}

impl Default for Gate {
    fn default() -> Self {
        Gate::new()
    }
}

impl Gate {
    /// A gate using the configuration `nfi campaign run` and `nfi serve`
    /// use by default: `MachineConfig::default()` and its seed.
    pub fn new() -> Gate {
        let machine = MachineConfig::default();
        Gate {
            seed: machine.seed,
            machine,
            runs: HashMap::new(),
            digests: HashMap::new(),
        }
    }

    /// The from-scratch document of `source` under the name `program`.
    ///
    /// # Errors
    ///
    /// Reports an unparseable source or a failed execution.
    pub fn reference(&mut self, program: &str, source: &str) -> Result<String, String> {
        let module = nfi_pylite::parse(source).map_err(|e| format!("{program}: {e}"))?;
        let fp = nfi_pylite::fingerprint(&module);
        if !self.runs.contains_key(&fp) {
            let spec = plan_campaign(program, source, self.seed)?;
            let run = exec_spec(&spec, &self.machine, ExecConfig::sequential())?;
            self.runs.insert(fp, run);
        }
        let run = &self.runs[&fp];
        Ok(ShardRun {
            program: program.to_string(),
            ..run.clone()
        }
        .encode())
    }

    /// Whether a document with digest `got` is the reference for
    /// (`program`, `source`).
    ///
    /// # Errors
    ///
    /// See [`Gate::reference`].
    pub fn check(&mut self, program: &str, source: &str, got: u64) -> Result<bool, String> {
        let fp = nfi_pylite::parse(source)
            .map(|m| nfi_pylite::fingerprint(&m))
            .map_err(|e| format!("{program}: {e}"))?;
        let key = (program.to_string(), fp);
        let want = match self.digests.get(&key) {
            Some(d) => *d,
            None => {
                let d = digest(&self.reference(program, source)?);
                self.digests.insert(key, d);
                d
            }
        };
        Ok(want == got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_accepts_the_reference_and_rejects_one_flipped_outcome_byte() {
        let p = nfi_corpus::by_name("textindex").unwrap();
        let mut gate = Gate::new();
        let doc = gate.reference(p.name, p.source).unwrap();
        assert!(gate.check(p.name, p.source, digest(&doc)).unwrap());
        let at = doc.find("\"kind\":\"outcome\"").expect("an outcome line") + 2;
        let mut bytes = doc.clone().into_bytes();
        bytes[at] ^= 0x01;
        let tampered = String::from_utf8(bytes).unwrap();
        assert_ne!(tampered, doc);
        assert!(!gate.check(p.name, p.source, digest(&tampered)).unwrap());
    }

    #[test]
    fn references_are_renamed_per_program() {
        let p = nfi_corpus::by_name("textindex").unwrap();
        let mut gate = Gate::new();
        let a = gate.reference("a", p.source).unwrap();
        let b = gate.reference("b", p.source).unwrap();
        assert_ne!(a, b);
        assert_eq!(
            a.lines().skip(1).collect::<Vec<_>>(),
            b.lines().skip(1).collect::<Vec<_>>()
        );
    }
}
