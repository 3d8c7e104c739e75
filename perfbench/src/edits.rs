//! The warm-edit input generator shared by `campaign_edit` and
//! `serve_mixed`.
//!
//! Every edit is one of the three classes the repository's
//! incremental-parity gauntlet already proves sound, applied to a
//! corpus program's pristine source:
//!
//! * a comment-only edit (the canonical printer strips comments, so the
//!   module fingerprint is unchanged and the store fast path replays);
//! * a body edit of one function that leaves its behaviour and step
//!   count alone: a dead `pass` after the function's final `return`;
//! * an added, never-called function.
//!
//! The variant set per program is finite, so the correctness gate needs
//! one from-scratch reference per distinct module rather than one per
//! edit.

use nfi_corpus::SeedProgram;

/// Programs whose faulty suites spin to the step budget dominate cold
/// time; the edit and serve workloads leave them to `campaign_cold`.
pub const HEAVY: [&str; 2] = ["pipeline", "ratelimiter"];

/// Which class of edit a variant is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// Comment-only edit.
    Comment,
    /// Dead statement after one function's final `return`.
    Body,
    /// An appended function nothing calls.
    Added,
}

impl EditKind {
    /// Stable label.
    pub fn key(self) -> &'static str {
        match self {
            EditKind::Comment => "comment",
            EditKind::Body => "body",
            EditKind::Added => "added",
        }
    }
}

/// One edited version of a corpus program.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Corpus program it edits.
    pub program: &'static str,
    /// Edit class.
    pub kind: EditKind,
    /// The edited source.
    pub source: String,
}

/// The ten corpus programs other than [`HEAVY`].
pub fn light_programs() -> Vec<&'static SeedProgram> {
    nfi_corpus::all()
        .iter()
        .filter(|p| !HEAVY.contains(&p.name))
        .collect()
}

/// Most body-edit variants generated per program.
const MAX_BODY_VARIANTS: usize = 4;

/// Every edit variant of `program`, grouped by kind in a fixed order.
pub fn variants(program: &'static SeedProgram) -> Vec<Variant> {
    let pristine = program.source;
    let mut out = Vec::new();
    for k in 0..2 {
        out.push(Variant {
            program: program.name,
            kind: EditKind::Comment,
            source: format!(
                "{pristine}\n# review note {k}: comments never reach the canonical form\n"
            ),
        });
    }
    let module = program.module().expect("corpus program parses");
    let index = nfi_pylite::analysis::ModuleIndex::build(&module);
    let mut bodies = 0;
    for f in &index.functions {
        if bodies == MAX_BODY_VARIANTS || f.name.starts_with("test_") {
            continue;
        }
        if let Some(source) = dead_statement_after_return(pristine, &f.name) {
            bodies += 1;
            out.push(Variant {
                program: program.name,
                kind: EditKind::Body,
                source,
            });
        }
    }
    for k in 0..3 {
        out.push(Variant {
            program: program.name,
            kind: EditKind::Added,
            source: format!(
                "{pristine}\n\ndef review_helper_{k}(value):\n    return value + {k}\n"
            ),
        });
    }
    for v in &out {
        nfi_pylite::parse(&v.source).expect("edited source parses");
    }
    out
}

/// `source` with a `pass` inserted after the final top-level `return`
/// of the top-level function `name`; `None` when that function does not
/// end in a one-line `return` at body level.
pub fn dead_statement_after_return(source: &str, name: &str) -> Option<String> {
    let lines: Vec<&str> = source.lines().collect();
    let head = format!("def {name}(");
    let start = lines.iter().position(|l| l.starts_with(&head))?;
    let mut end = start + 1;
    while end < lines.len() && (lines[end].trim().is_empty() || lines[end].starts_with(' ')) {
        end += 1;
    }
    let last = (start + 1..end).rev().find(|&i| {
        let t = lines[i].trim();
        !t.is_empty() && !t.starts_with('#')
    })?;
    let line = lines[last];
    if !line.starts_with("    return") || line.starts_with("     ") {
        return None;
    }
    let mut out: Vec<&str> = Vec::with_capacity(lines.len() + 1);
    out.extend_from_slice(&lines[..=last]);
    out.push("    pass");
    out.extend_from_slice(&lines[last + 1..]);
    let mut text = out.join("\n");
    text.push('\n');
    Some(text)
}

/// splitmix64: the benchmark's own seeded generator, so inputs depend
/// on `--seed` and nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Seeded Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Every edit variant of every light program, in [`light_programs`]
/// order.
pub fn edit_pool() -> Vec<Vec<Variant>> {
    light_programs().into_iter().map(variants).collect()
}

/// A seeded stream of edits over an [`edit_pool`]: each draw picks a
/// program, then an edit class, then a variant of that class.
pub struct EditStream {
    rng: Rng,
}

impl EditStream {
    /// The stream for `seed` (`stream` separates independent clients).
    pub fn new(seed: u64, stream: u64) -> EditStream {
        EditStream {
            rng: Rng::new(seed, stream),
        }
    }

    /// The next edit as `(program index, variant index)` into `pool`.
    /// A program with no variant of the drawn class (no function of
    /// `banking` ends in a `return`) takes any of its variants instead.
    pub fn next_edit(&mut self, pool: &[Vec<Variant>]) -> (usize, usize) {
        let p = self.rng.below(pool.len());
        (p, pick_edit(&mut self.rng, &pool[p]))
    }
}

/// A variant index into one program's `variants`: an edit class drawn
/// uniformly, then a variant of that class (any variant when the
/// program has none of the class).
pub fn pick_edit(rng: &mut Rng, variants: &[Variant]) -> usize {
    let kinds = [EditKind::Comment, EditKind::Body, EditKind::Added];
    let kind = kinds[rng.below(kinds.len())];
    let of_kind: Vec<usize> = (0..variants.len())
        .filter(|&i| variants[i].kind == kind)
        .collect();
    if of_kind.is_empty() {
        rng.below(variants.len())
    } else {
        of_kind[rng.below(of_kind.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_programs_carry_every_edit_class() {
        assert_eq!(light_programs().len(), 10);
        for p in light_programs() {
            let vs = variants(p);
            let has = |kind| vs.iter().any(|v| v.kind == kind);
            assert!(has(EditKind::Comment) && has(EditKind::Added), "{}", p.name);
            // Every function of `banking` falls off its end.
            assert_eq!(has(EditKind::Body), p.name != "banking", "{}", p.name);
        }
    }

    #[test]
    fn comment_edits_keep_the_fingerprint_and_body_edits_change_it() {
        for p in light_programs() {
            let pristine = nfi_pylite::fingerprint(&p.module().unwrap());
            for v in variants(p) {
                let fp = nfi_pylite::fingerprint(&nfi_pylite::parse(&v.source).unwrap());
                assert_eq!(fp == pristine, v.kind == EditKind::Comment, "{}", p.name);
            }
        }
    }

    #[test]
    fn dead_statement_lands_after_the_final_return() {
        let src = "def f(x):\n    if x:\n        return 1\n    return 2\ndef test_f():\n    assert f(0) == 2\n";
        let edited = dead_statement_after_return(src, "f").unwrap();
        assert!(edited.contains("    return 2\n    pass\ndef test_f"));
        assert!(dead_statement_after_return("def g():\n    x = 1\n", "g").is_none());
    }

    #[test]
    fn streams_repeat_per_seed() {
        let pool = edit_pool();
        let draw = |seed| {
            let mut s = EditStream::new(seed, 0);
            (0..20).map(|_| s.next_edit(&pool)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
