//! # nfi-pylite — the PyLite language substrate
//!
//! A deliberately small Python dialect with a lexer, parser, pretty
//! printer, bytecode compiler, and a deterministic cooperative virtual
//! machine. It is the *injection substrate* of the Neural Fault Injection
//! workspace: the paper evaluates on Python programs mutated by a
//! ProFIPy-style tool, and PyLite plays the role of that Python runtime.
//!
//! The VM is built first for dependability experiments, but its hot path
//! is engineered: globals are resolved to per-module slots at compile
//! time (vector indexing, no string-keyed map on the dispatch path), the
//! scheduler checks the running task out once per quantum and reuses its
//! runnable scratch buffer, race-detector bookkeeping stays off the
//! dispatch path until a second task has ever been spawned, and compiled
//! code objects are `Rc`-shared so harnesses compile once and run many
//! times (see [`Machine::run_code`]). The dependability instrumentation:
//!
//! * deterministic, seed-driven preemptive scheduling of cooperative
//!   tasks (`spawn` / `join` / `lock`) — interleavings are reproducible,
//! * a virtual clock (`sleep` / `now`) so timeout scenarios run in
//!   microseconds of wall time,
//! * an Eraser-style lockset **data-race detector**,
//! * **resource-leak** tracking (`open_handle` without `close`),
//! * **bounded buffers** whose overflows are detected and reported,
//! * a step budget plus deadlock detection for **hang** classification,
//!   with a proof of non-termination that ends a run early when its
//!   state recurs exactly: the heap is compared up to aliasing, and the
//!   stretch between the two states must have had one runnable task per
//!   scheduling decision, at most one sleeper, and no `now()`, RNG draw,
//!   `print`, `spawn`, `open_handle`, `lock()` or new detector report.
//!   Spins with several runnable tasks or sleepers are proven by a memo
//!   of scheduler moves between states: once every state it has seen has
//!   a move for each possible pick, it replays the rest of the run with
//!   the scheduler's own RNG and the actual deadlines. Loops that read
//!   `now()` (a token bucket's drain loop, say), loops whose state grows,
//!   and sleepers whose wake order drifts stay unproven and run to the
//!   budget. See [`machine`](machine#hang-proofs).
//!
//! ## Quick start
//!
//! ```
//! use nfi_pylite::{Machine, MachineConfig};
//!
//! let source = "def double(x):\n    return x * 2\nprint(double(21))\n";
//! let mut machine = Machine::new(MachineConfig::default());
//! let outcome = machine.run_source(source)?;
//! assert_eq!(outcome.output, "42\n");
//! assert!(outcome.clean());
//! # Ok::<(), nfi_pylite::PyliteError>(())
//! ```
//!
//! ## Parsing and printing
//!
//! ```
//! let module = nfi_pylite::parse("x = 1 + 2\n")?;
//! assert_eq!(nfi_pylite::print_module(&module), "x = 1 + 2\n");
//! # Ok::<(), nfi_pylite::PyliteError>(())
//! ```

pub mod analysis;
pub mod anchors;
pub mod ast;
mod builtins;
pub mod code;
pub mod compile;
pub mod error;
pub mod fingerprint;
pub mod lexer;
pub mod machine;
pub mod ops;
pub mod parser;
pub mod printer;
pub mod value;

pub use anchors::{ModuleAnchors, StmtAnchor};
pub use ast::{Module, NodeId, Span, Stmt, StmtKind};
pub use builtins::{BUILTIN_FUNCTIONS, EXCEPTION_KINDS};
pub use error::{ErrorKind, PyliteError};
pub use fingerprint::{fingerprint, fnv1a};
pub use machine::{
    ExcInfo, HangKind, LeakReport, Machine, MachineConfig, OverflowReport, RaceReport, RunOutcome,
    RunStatus,
};
pub use parser::parse;
pub use printer::{print_block, print_expr, print_module};
pub use value::Value;
