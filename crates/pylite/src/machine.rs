//! The PyLite virtual machine: cooperative tasks, virtual time, and
//! dependability instrumentation.
//!
//! The machine is the *observability substrate* for fault injection:
//! besides executing bytecode it detects and reports
//!
//! * **hangs** — a global step budget, deadlock detection, and a proof
//!   of non-termination by exact state recurrence that ends a provably
//!   repeating run at the proof instead of at the budget (see
//!   [Hang proofs](#hang-proofs)),
//! * **data races** — an Eraser-style lockset algorithm over shared
//!   globals and shared containers,
//! * **resource leaks** — handles opened via `open_handle` and never
//!   closed,
//! * **buffer overflows** — writes past a bounded buffer's capacity,
//!
//! all of which the fault-injection harness (crate `nfi-inject`) turns
//! into failure-mode classifications.
//!
//! Scheduling is deterministic for a given [`MachineConfig::seed`]: tasks
//! are preempted every [`MachineConfig::quantum`] instructions and the
//! next runnable task is chosen by a seeded RNG, so interleavings are
//! reproducible and explorable by sweeping seeds.
//!
//! # Hang proofs
//!
//! Once a run has executed a few thousand steps, the scheduler
//! snapshots its state at power-of-two decision counts and checks later
//! decisions against the snapshot. When the state recurs exactly — up
//! to heap aliasing, with a sleeper's deadline compared by whether it
//! is due, since the absolute clock is not part of the state — and
//! every decision in between had one runnable task, at most one
//! sleeper, and no call to `now()`, `rand_int`/`rand_float`, `print`,
//! `spawn`, `open_handle` or `lock()` and no new race, overflow, leak or
//! task failure, the run would repeat until the budget. It ends there
//! as `Hung(StepBudget)` with the budget run's outcome in every field
//! but [`RunOutcome::steps`]. Spins with several runnable tasks or
//! sleepers are proven by a memo of scheduler moves between states,
//! which, once every state it has seen has a move for each possible
//! pick, replays the rest of the run with a clone of the scheduler's
//! RNG and the actual deadlines. Loops that read `now()` (such as a
//! token bucket's drain loop), loops whose state grows, and sleepers
//! whose wake order drifts stay unproven and run to the budget. The
//! proof is always on; it is not a configuration, so it changes no
//! [`MachineConfig`].

use crate::ast::Module;
use crate::builtins;
use crate::code::{Code, Const, GlobalTable, Instr};
use crate::compile::compile_module;
use crate::error::{ErrorKind, PyliteError};
use crate::ops;
use crate::parser::parse;
use crate::value::{ExcObj, FuncObj, HandleObj, IterObj, LockId, TaskId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

mod hangproof;
pub use hangproof::shadow;

/// Configuration for a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Maximum total instructions per run before the run is declared hung.
    pub step_budget: u64,
    /// Instructions a task may execute before preemption.
    pub quantum: u32,
    /// Seed for the deterministic scheduler and `rand_int`/`rand_float`.
    pub seed: u64,
    /// Whether to run the lockset race detector.
    pub detect_races: bool,
    /// Maximum frame depth before `RecursionError` is raised.
    pub max_frames: usize,
    /// Maximum bytes of `print` output retained per run.
    pub max_output: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            step_budget: 2_000_000,
            quantum: 16,
            seed: 0xC0FFEE,
            detect_races: true,
            max_frames: 256,
            max_output: 1 << 20,
        }
    }
}

/// Why a run failed to complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HangKind {
    /// The instruction budget was exhausted (livelock / infinite loop).
    StepBudget,
    /// Every live task is blocked and no timer can fire.
    Deadlock,
}

/// Details of an uncaught exception.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExcInfo {
    /// Exception kind, e.g. `"TimeoutError"`.
    pub kind: String,
    /// Exception message.
    pub message: String,
    /// Source line where it escaped, when known.
    pub line: Option<u32>,
    /// Task in which it escaped.
    pub task: TaskId,
}

/// Terminal status of a run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    /// The main task ran to completion.
    Completed,
    /// An exception escaped the main task.
    Uncaught(ExcInfo),
    /// The run hung (step budget or deadlock).
    Hung(HangKind),
}

/// A detected data race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Name of the racy location (global name or container hint).
    pub location: String,
    /// Task that first owned the location.
    pub first_task: TaskId,
    /// Task whose access completed the race.
    pub second_task: TaskId,
    /// Source line of the completing access, when known.
    pub line: Option<u32>,
}

/// A detected buffer overflow (write past capacity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverflowReport {
    /// Attempted index.
    pub index: i64,
    /// Buffer capacity.
    pub capacity: usize,
    /// Source line, when known.
    pub line: Option<u32>,
}

/// A resource handle left open at the end of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakReport {
    /// Name passed to `open_handle`.
    pub name: String,
}

/// Everything observed during one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Terminal status of the main task.
    pub status: RunStatus,
    /// Captured `print` output.
    pub output: String,
    /// Data races detected by the lockset algorithm.
    pub races: Vec<RaceReport>,
    /// Buffer overflows (reported even when the raised `BufferOverflowError`
    /// was caught).
    pub overflows: Vec<OverflowReport>,
    /// Handles never closed.
    pub leaks: Vec<LeakReport>,
    /// Uncaught exceptions in *spawned* tasks (main-task escapes are in
    /// `status`).
    pub task_failures: Vec<ExcInfo>,
    /// Instructions executed. For a proven hang, the steps up to the
    /// point of proof, not the budget.
    pub steps: u64,
    /// Virtual seconds elapsed. For a proven hang, the value the budget
    /// run would have reached: the proof replays the clock arithmetic
    /// up to the budget.
    pub vtime: f64,
    /// Value returned by the entry function (for `call`).
    pub return_value: Option<Value>,
}

impl RunOutcome {
    /// True when the run completed with no uncaught exception anywhere.
    pub fn clean(&self) -> bool {
        matches!(self.status, RunStatus::Completed) && self.task_failures.is_empty()
    }
}

#[derive(Debug)]
enum BlockKind {
    Except { handler: u32 },
    Finally { handler: u32 },
}

#[derive(Debug)]
struct Block {
    kind: BlockKind,
    stack_depth: usize,
}

#[derive(Debug)]
struct Frame {
    code: Rc<Code>,
    pc: usize,
    stack: Vec<Value>,
    locals: Vec<Option<Value>>,
    blocks: Vec<Block>,
}

impl Frame {
    fn new(code: Rc<Code>) -> Self {
        let n = code.locals.len();
        Frame {
            code,
            pc: 0,
            stack: Vec::new(),
            locals: vec![None; n],
            blocks: Vec::new(),
        }
    }
}

/// What a blocked task is waiting for.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Wait {
    /// Virtual-time sleep until the given instant.
    Sleep { wake_at: f64 },
    /// Lock acquisition.
    Lock(LockId),
    /// Join on another task.
    Join(TaskId),
}

#[derive(Debug)]
enum TaskStatus {
    Ready,
    Blocked(Wait),
    Done(Result<Value, Rc<ExcObj>>),
}

struct Task {
    id: TaskId,
    frames: Vec<Frame>,
    status: TaskStatus,
    current_exc: Option<Value>,
    failure_line: Option<u32>,
}

impl Task {
    fn dummy() -> Self {
        Task {
            id: usize::MAX,
            frames: Vec::new(),
            status: TaskStatus::Done(Ok(Value::None)),
            current_exc: None,
            failure_line: None,
        }
    }

    fn done(&self) -> bool {
        matches!(self.status, TaskStatus::Done(_))
    }
}

#[derive(Debug, Default)]
struct LockState {
    held_by: Option<TaskId>,
}

#[derive(Debug, PartialEq, Eq, Hash, Clone, Copy)]
enum AccessKey {
    /// A global, identified by its slot in the installed [`GlobalTable`].
    Global(u16),
    Object(usize),
}

/// FNV-1a hasher for the machine's interior maps (access tracking,
/// container names). The keys are small integers, the maps are never
/// iterated, and lookups sit on the per-instruction hot path of the
/// race detector — where the default SipHash costs more than the rest
/// of the bookkeeping combined.
#[derive(Default)]
struct FastHasher(u64);

impl std::hash::Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x100_0000_01b3);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

type FastMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FastHasher>>;

#[derive(Debug)]
struct AccessState {
    owner: TaskId,
    shared: bool,
    written: bool,
    modified_shared: bool,
    lockset: BTreeSet<LockId>,
    reported: bool,
    /// Global step count of the most recent access (used for the
    /// spawn-boundary ownership-transfer refinement).
    last_step: u64,
}

pub(crate) enum BuiltinFlow {
    /// Builtin produced a value; push it.
    Value(Value),
    /// Builtin raised.
    Raise(Value),
    /// Builtin blocks the task; the wake-up logic pushes the resume value.
    Block(Wait),
}

enum StepFlow {
    Normal,
    Yield,
    Finished,
}

/// The PyLite virtual machine. See the [module docs](self) for an overview.
///
/// # Examples
///
/// ```
/// use nfi_pylite::{Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::default());
/// let out = m.run_source("def f(x):\n    return x * 2\nprint(f(21))\n")?;
/// assert_eq!(out.output, "42\n");
/// # Ok::<(), nfi_pylite::PyliteError>(())
/// ```
pub struct Machine {
    config: MachineConfig,
    /// Global table of the most recently run module code; slot operands
    /// in `LoadGlobal`/`StoreGlobal` index into `slots` through it.
    table: Rc<GlobalTable>,
    /// Slot-indexed global values (parallel to `table.names`).
    slots: Vec<Option<Value>>,
    /// Globals whose names the installed table does not know, carried
    /// over a module switch until a table that names them is installed.
    extra_globals: HashMap<String, Value>,
    tasks: Vec<Task>,
    /// Locks held per task (indexed by `TaskId`; lives outside `Task`
    /// because the running task is checked out of `tasks` during a step).
    task_locks: Vec<BTreeSet<LockId>>,
    /// Global step count at which each task was spawned.
    task_spawn_step: Vec<u64>,
    pub(crate) clock: f64,
    pub(crate) rng: StdRng,
    pub(crate) output: String,
    locks: Vec<LockState>,
    pub(crate) handles: Vec<Rc<HandleObj>>,
    races: Vec<RaceReport>,
    pub(crate) overflows: Vec<OverflowReport>,
    steps: u64,
    access: FastMap<AccessKey, AccessState>,
    obj_names: FastMap<usize, String>,
    pub(crate) next_handle: usize,
    current_line: Option<u32>,
    spawned_failures: Vec<ExcInfo>,
    /// Scratch buffer reused by `schedule()` for the per-quantum
    /// runnable-task collection (avoids a fresh `Vec` every quantum).
    runnable: Vec<TaskId>,
    /// Count of events that make a stretch of the run unprovable as a
    /// hang (clock reads, RNG draws, output, spawns, new handles and
    /// locks, detector reports, address-keyed race bookkeeping).
    effects: u64,
    /// The hang-proof probe's per-run state.
    probe: hangproof::HangProbe,
}

impl Machine {
    /// Creates a machine with the given configuration.
    pub fn new(config: MachineConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Machine {
            config,
            table: Rc::new(GlobalTable::default()),
            slots: Vec::new(),
            extra_globals: HashMap::new(),
            tasks: Vec::new(),
            task_locks: Vec::new(),
            task_spawn_step: Vec::new(),
            clock: 0.0,
            rng,
            output: String::new(),
            locks: Vec::new(),
            handles: Vec::new(),
            races: Vec::new(),
            overflows: Vec::new(),
            steps: 0,
            access: FastMap::default(),
            obj_names: FastMap::default(),
            next_handle: 0,
            current_line: None,
            spawned_failures: Vec::new(),
            runnable: Vec::new(),
            effects: 0,
            probe: hangproof::HangProbe::default(),
        }
    }

    /// Resets the machine to the observable state of a fresh
    /// `Machine::new(config)` while retaining allocations (and the
    /// installed global table), so harnesses can reuse one machine
    /// across many runs instead of rebuilding it per run. The RNG
    /// stream, virtual clock, globals, locks, and handle ids all
    /// restart exactly as on a new machine.
    pub fn reset(&mut self, config: MachineConfig) {
        self.rng = StdRng::seed_from_u64(config.seed);
        self.config = config;
        for slot in &mut self.slots {
            *slot = None;
        }
        self.extra_globals.clear();
        self.tasks.clear();
        self.task_locks.clear();
        self.task_spawn_step.clear();
        self.clock = 0.0;
        self.output.clear();
        self.locks.clear();
        self.handles.clear();
        self.races.clear();
        self.overflows.clear();
        self.steps = 0;
        self.access.clear();
        self.obj_names.clear();
        self.next_handle = 0;
        self.current_line = None;
        self.spawned_failures.clear();
    }

    /// Parses, compiles, and runs source text as a module.
    ///
    /// # Errors
    ///
    /// Returns lex/parse/compile errors; *runtime* failures are reported
    /// inside the [`RunOutcome`].
    pub fn run_source(&mut self, source: &str) -> Result<RunOutcome, PyliteError> {
        let module = parse(source)?;
        self.run_module(&module)
    }

    /// Compiles and runs a module's top-level code. Definitions persist in
    /// the machine's globals for later [`Machine::call`]s.
    ///
    /// # Errors
    ///
    /// Returns compile errors; runtime failures are in the [`RunOutcome`].
    pub fn run_module(&mut self, module: &Module) -> Result<RunOutcome, PyliteError> {
        let code = compile_module(module)?;
        Ok(self.run_code(code))
    }

    /// Calls a previously-defined global function to completion under the
    /// scheduler (used by the test harness to invoke entry points).
    ///
    /// # Errors
    ///
    /// Returns a [`ErrorKind::Runtime`] error when `name` is not a defined
    /// function.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<RunOutcome, PyliteError> {
        let func = match self.global(name) {
            Some(Value::Func(f)) => f.clone(),
            Some(other) => {
                return Err(PyliteError::new(
                    ErrorKind::Runtime,
                    format!("global `{name}` is {} and not callable", other.type_name()),
                ))
            }
            None => {
                return Err(PyliteError::new(
                    ErrorKind::Runtime,
                    format!("no function named `{name}`"),
                ))
            }
        };
        let mut frame = Frame::new(func.code.clone());
        if let Err(e) = bind_args(&func, args, &mut frame) {
            return Err(PyliteError::new(ErrorKind::Runtime, e.py_str()));
        }
        Ok(self.run_frames(vec![frame]))
    }

    /// A borrowed reference to the value of a global variable, if defined.
    pub fn global(&self, name: &str) -> Option<&Value> {
        match self.table.slot(name) {
            Some(slot) => self.slots.get(slot as usize).and_then(|v| v.as_ref()),
            None => self.extra_globals.get(name),
        }
    }

    /// Names of globals holding user-defined functions, sorted (borrowed
    /// from the machine's global table; no per-name clone).
    pub fn function_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .table
            .names
            .iter()
            .zip(self.slots.iter())
            .filter(|(_, val)| matches!(val, Some(Value::Func(_))))
            .map(|(k, _)| k.as_str())
            .chain(
                self.extra_globals
                    .iter()
                    .filter(|(_, val)| matches!(val, Value::Func(_)))
                    .map(|(k, _)| k.as_str()),
            )
            .collect();
        v.sort_unstable();
        v
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Runs a precompiled module code object (the compile-once, run-many
    /// entry used by harnesses together with a code cache). Installs the
    /// code's global table when it differs from the currently installed
    /// one; definitions persist in the machine's globals exactly as with
    /// [`Machine::run_module`].
    pub fn run_code(&mut self, code: Rc<Code>) -> RunOutcome {
        if let Some(table) = &code.globals {
            self.install_table(Rc::clone(table));
        }
        self.run_frames(vec![Frame::new(code)])
    }

    /// Swaps in a module's global table, carrying existing global values
    /// over by name so name-keyed semantics survive a module switch.
    fn install_table(&mut self, table: Rc<GlobalTable>) {
        if Rc::ptr_eq(&self.table, &table) {
            return;
        }
        let old = std::mem::replace(&mut self.table, Rc::clone(&table));
        for (i, v) in self.slots.drain(..).enumerate() {
            if let Some(v) = v {
                self.extra_globals.insert(old.names[i].clone(), v);
            }
        }
        self.slots = vec![None; table.names.len()];
        for (i, name) in table.names.iter().enumerate() {
            if let Some(v) = self.extra_globals.remove(name) {
                self.slots[i] = Some(v);
            }
        }
    }

    fn run_frames(&mut self, frames: Vec<Frame>) -> RunOutcome {
        // Fresh per-run state.
        self.tasks.clear();
        self.task_locks.clear();
        self.task_spawn_step.clear();
        // Lock *objects* persist across runs (they live in globals); only
        // their held state resets, since task ids are per-run.
        for lock in &mut self.locks {
            lock.held_by = None;
        }
        self.races.clear();
        self.overflows.clear();
        self.access.clear();
        self.obj_names.clear();
        self.output.clear();
        self.spawned_failures.clear();
        let start_clock = self.clock;
        self.steps = 0;
        self.probe.start(start_clock);
        self.tasks.push(Task {
            id: 0,
            frames,
            status: TaskStatus::Ready,
            current_exc: None,
            failure_line: None,
        });
        self.task_locks.push(BTreeSet::new());
        self.task_spawn_step.push(0);

        let status = self.schedule();

        // Leak detection: handles opened during this run and still open.
        let leaks = open_leaks(&self.handles);
        self.handles.clear();

        let outcome = RunOutcome {
            status,
            output: std::mem::take(&mut self.output),
            races: std::mem::take(&mut self.races),
            overflows: std::mem::take(&mut self.overflows),
            leaks,
            task_failures: std::mem::take(&mut self.spawned_failures),
            steps: self.steps,
            vtime: self.clock - start_clock,
            return_value: main_return(&self.tasks),
        };
        self.probe.finish(&outcome);
        outcome
    }

    // ---- scheduler --------------------------------------------------------

    fn schedule(&mut self) -> RunStatus {
        // The runnable collection reuses one machine-owned scratch buffer
        // across every quantum of the run (taken out of `self` here to
        // satisfy the borrow checker around `wait_satisfied`).
        let mut runnable = std::mem::take(&mut self.runnable);
        let status = 'sched: loop {
            if self.tasks.iter().all(|t| t.done()) {
                break self.main_status();
            }
            // A task is runnable when Ready, or blocked on a condition that
            // is now satisfied.
            runnable.clear();
            for t in &self.tasks {
                let ready = match &t.status {
                    TaskStatus::Ready => true,
                    TaskStatus::Blocked(w) => self.wait_satisfied(w),
                    TaskStatus::Done(_) => false,
                };
                if ready {
                    runnable.push(t.id);
                }
            }
            if runnable.is_empty() {
                // Advance virtual time to the earliest sleeper, else deadlock.
                let min_wake = self
                    .tasks
                    .iter()
                    .filter_map(|t| match &t.status {
                        TaskStatus::Blocked(Wait::Sleep { wake_at }) => Some(*wake_at),
                        _ => None,
                    })
                    .fold(f64::INFINITY, f64::min);
                if min_wake.is_finite() {
                    self.clock = min_wake;
                    self.note_wake();
                    continue;
                }
                self.fail_unfinished_tasks();
                break RunStatus::Hung(HangKind::Deadlock);
            }
            if self.steps >= hangproof::START_STEPS && self.hang_proven(runnable.len()) {
                self.fail_unfinished_tasks();
                break RunStatus::Hung(HangKind::StepBudget);
            }
            let index = self.rng.gen_range(0..runnable.len());
            let pick = runnable[index];
            self.probe.note_pick(index, pick);
            self.wake(pick);
            // Check the task out once per quantum, not once per step:
            // `step_inner` needs it outside `self.tasks` anyway (its
            // slot holds a Done dummy meanwhile), and hoisting the swap
            // out of the step loop removes two `Task` moves per
            // instruction from the dispatch path.
            let mut task = std::mem::replace(&mut self.tasks[pick], Task::dummy());
            let mut executed = 0u32;
            let mut out_of_steps = false;
            while executed < self.config.quantum {
                if self.steps >= self.config.step_budget {
                    out_of_steps = true;
                    break;
                }
                self.steps += 1;
                executed += 1;
                match self.step_inner(&mut task) {
                    StepFlow::Normal => {
                        if !matches!(task.status, TaskStatus::Ready) {
                            break;
                        }
                    }
                    StepFlow::Yield | StepFlow::Finished => break,
                }
            }
            self.tasks[pick] = task;
            if out_of_steps {
                self.fail_unfinished_tasks();
                break 'sched RunStatus::Hung(HangKind::StepBudget);
            }
        };
        self.runnable = runnable;
        status
    }

    fn main_status(&mut self) -> RunStatus {
        // Collect failures in spawned tasks first.
        collect_failures(&self.tasks, &mut self.spawned_failures);
        match &self.tasks[0].status {
            TaskStatus::Done(Ok(_)) => RunStatus::Completed,
            TaskStatus::Done(Err(exc)) => RunStatus::Uncaught(ExcInfo {
                kind: exc.kind.clone(),
                message: exc.message.clone(),
                line: self.tasks[0].failure_line,
                task: 0,
            }),
            _ => RunStatus::Hung(HangKind::Deadlock),
        }
    }

    fn fail_unfinished_tasks(&mut self) {
        self.main_status();
    }

    fn wait_satisfied(&self, w: &Wait) -> bool {
        match w {
            Wait::Sleep { wake_at } => self.clock >= *wake_at,
            Wait::Lock(l) => self.locks[*l].held_by.is_none(),
            Wait::Join(t) => self.tasks.get(*t).map(|t| t.done()).unwrap_or(true),
        }
    }

    /// Transitions a runnable blocked task back to Ready, performing the
    /// wake-up side effect (lock grant, join result push, ...).
    fn wake(&mut self, tid: TaskId) {
        let wait = match &self.tasks[tid].status {
            TaskStatus::Blocked(w) => w.clone(),
            _ => return,
        };
        match wait {
            Wait::Sleep { .. } => {
                self.tasks[tid].status = TaskStatus::Ready;
                self.push_value(tid, Value::None);
            }
            Wait::Lock(l) => {
                debug_assert!(self.locks[l].held_by.is_none());
                self.locks[l].held_by = Some(tid);
                self.task_locks[tid].insert(l);
                self.tasks[tid].status = TaskStatus::Ready;
                self.push_value(tid, Value::Bool(true));
            }
            Wait::Join(target) => {
                let result = match &self.tasks[target].status {
                    TaskStatus::Done(r) => r.clone(),
                    _ => unreachable!("join wake requires finished target"),
                };
                self.tasks[tid].status = TaskStatus::Ready;
                match result {
                    Ok(v) => self.push_value(tid, v),
                    Err(exc) => {
                        let exc = Value::Exc(exc);
                        self.raise_in_task(tid, exc);
                    }
                }
            }
        }
    }

    fn push_value(&mut self, tid: TaskId, v: Value) {
        if let Some(frame) = self.tasks[tid].frames.last_mut() {
            frame.stack.push(v);
        }
    }

    // ---- race detection ---------------------------------------------------

    /// Remembers the global name a container was first stored under, so
    /// race reports on the container can name it. Only clones the name
    /// when a new container is seen.
    fn note_global_store_hint(&mut self, slot: u16, value: &Value) {
        if let Some(addr) = container_addr(value) {
            if !self.obj_names.contains_key(&addr) {
                if let Some(name) = self.table.names.get(slot as usize) {
                    self.obj_names.insert(addr, name.clone());
                }
            }
        }
    }

    // Both recorders skip while `tasks.len() == 1`: until a second task
    // has *ever* been spawned nothing can race, and the entries skipped
    // here are observably dead — the first post-spawn access of a
    // location recreates exactly the owner/lockset state the
    // spawn-boundary ownership transfer would have derived from them
    // (the `written` flag they would have accumulated is never read).
    fn record_global_access(&mut self, tid: TaskId, slot: u16, is_write: bool) {
        if !self.config.detect_races || self.tasks.len() == 1 {
            return;
        }
        self.record_access(AccessKey::Global(slot), tid, is_write, "");
    }

    pub(crate) fn record_object_access(&mut self, tid: TaskId, value: &Value, is_write: bool) {
        if !self.config.detect_races || self.tasks.len() == 1 {
            return;
        }
        let Some(addr) = container_addr(value) else {
            return;
        };
        // Address keys can outlive their objects, so the hang proof
        // treats any bookkeeping on them as an effect.
        self.note_effect();
        self.record_access(AccessKey::Object(addr), tid, is_write, value.type_name());
    }

    /// Core lockset bookkeeping for one access. `type_name` is only used
    /// when an [`AccessKey::Object`] race is reported and no stored name
    /// hint exists; the location string is built lazily at report time
    /// rather than on every access.
    fn record_access(&mut self, key: AccessKey, tid: TaskId, is_write: bool, type_name: &str) {
        let line = self.current_line;
        let now = self.steps;
        let spawn_step = self.task_spawn_step[tid];
        // Sequential-phase reset: when every other task has finished, the
        // program is single-threaded again (e.g. main reading results after
        // joining workers), so accesses cannot race. Note the running task
        // is checked out of `tasks` (its slot holds a Done dummy), hence
        // the index comparison.
        let others_alive = self
            .tasks
            .iter()
            .enumerate()
            .any(|(i, t)| i != tid && !t.done());
        if !others_alive {
            if let Some(entry) = self.access.get_mut(&key) {
                entry.shared = false;
                entry.owner = tid;
                entry.written = is_write;
                entry.lockset.clear();
                entry.last_step = now;
                return;
            }
        }
        let entry = self.access.entry(key).or_insert_with(|| AccessState {
            owner: tid,
            shared: false,
            written: is_write,
            modified_shared: false,
            lockset: BTreeSet::new(),
            reported: false,
            last_step: now,
        });
        if !entry.shared {
            if entry.owner == tid {
                entry.written |= is_write;
                entry.last_step = now;
                return;
            }
            if entry.last_step <= spawn_step {
                // Every prior access happened before this task was spawned:
                // initialization hand-off, not sharing. Transfer ownership.
                entry.owner = tid;
                entry.written = is_write;
                entry.last_step = now;
                return;
            }
            // Second concurrent task touches the location: shared regime.
            entry.shared = true;
            entry.lockset = self.task_locks[tid].clone();
            entry.modified_shared = is_write;
        } else {
            // Intersect in place: the common spin-loop case re-observes
            // the same lockset every iteration, and `retain` avoids the
            // per-access `BTreeSet` rebuild an `intersection().collect()`
            // would allocate.
            if !entry.lockset.is_empty() {
                let held = &self.task_locks[tid];
                entry.lockset.retain(|l| held.contains(l));
            }
            entry.modified_shared |= is_write;
        }
        entry.written |= is_write;
        entry.last_step = now;
        if entry.modified_shared && entry.lockset.is_empty() && !entry.reported {
            entry.reported = true;
            let location = match key {
                AccessKey::Global(slot) => self
                    .table
                    .names
                    .get(slot as usize)
                    .cloned()
                    .unwrap_or_default(),
                AccessKey::Object(addr) => self
                    .obj_names
                    .get(&addr)
                    .cloned()
                    .unwrap_or_else(|| format!("<{type_name}@{addr:x}>")),
            };
            self.races.push(RaceReport {
                location,
                first_task: entry.owner,
                second_task: tid,
                line,
            });
            self.note_effect();
        }
    }

    // ---- task / builtin support (used by builtins.rs) ---------------------

    pub(crate) fn spawn_task(
        &mut self,
        func: Rc<FuncObj>,
        args: Vec<Value>,
    ) -> Result<TaskId, Value> {
        let mut frame = Frame::new(func.code.clone());
        bind_args(&func, args, &mut frame)?;
        let id = self.tasks.len();
        self.tasks.push(Task {
            id,
            frames: vec![frame],
            status: TaskStatus::Ready,
            current_exc: None,
            failure_line: None,
        });
        self.task_locks.push(BTreeSet::new());
        self.task_spawn_step.push(self.steps);
        self.note_effect();
        Ok(id)
    }

    pub(crate) fn new_lock(&mut self) -> LockId {
        self.note_effect();
        self.locks.push(LockState::default());
        self.locks.len() - 1
    }

    pub(crate) fn try_acquire(&mut self, tid: TaskId, lock: LockId) -> bool {
        if self.locks[lock].held_by.is_none() {
            self.locks[lock].held_by = Some(tid);
            self.task_locks[tid].insert(lock);
            true
        } else {
            false
        }
    }

    pub(crate) fn release_lock(&mut self, tid: TaskId, lock: LockId) -> Result<(), Value> {
        if self.locks[lock].held_by != Some(tid) {
            return Err(Value::exc(
                "RuntimeError",
                "release of a lock not held by this task",
            ));
        }
        self.locks[lock].held_by = None;
        self.task_locks[tid].remove(&lock);
        Ok(())
    }

    pub(crate) fn lock_exists(&self, lock: LockId) -> bool {
        lock < self.locks.len()
    }

    pub(crate) fn try_peek_free(&self, lock: LockId) -> bool {
        self.locks[lock].held_by.is_none()
    }

    pub(crate) fn task_exists(&self, t: TaskId) -> bool {
        t < self.tasks.len()
    }

    pub(crate) fn print_line(&mut self, line: &str) {
        self.note_effect();
        if self.output.len() < self.config.max_output {
            self.output.push_str(line);
            self.output.push('\n');
        }
    }

    pub(crate) fn note_overflow(&mut self, index: i64, capacity: usize) {
        self.note_effect();
        let line = self.current_line;
        self.overflows.push(OverflowReport {
            index,
            capacity,
            line,
        });
    }

    // ---- exception handling ------------------------------------------------

    /// Raises `exc` inside a task, unwinding frames until a handler is
    /// found. When nothing catches it, the task dies.
    fn raise_in_task(&mut self, tid: TaskId, exc: Value) {
        let exc_obj = match &exc {
            Value::Exc(e) => e.clone(),
            other => Rc::new(ExcObj::new(
                "TypeError",
                format!(
                    "exceptions must be exception values, not {}",
                    other.type_name()
                ),
            )),
        };
        let exc = Value::Exc(exc_obj.clone());
        let task = &mut self.tasks[tid];
        loop {
            let Some(frame) = task.frames.last_mut() else {
                task.failure_line = self.current_line;
                task.status = TaskStatus::Done(Err(exc_obj));
                return;
            };
            if let Some(block) = frame.blocks.pop() {
                frame.stack.truncate(block.stack_depth);
                frame.stack.push(exc.clone());
                match block.kind {
                    BlockKind::Except { handler } | BlockKind::Finally { handler } => {
                        frame.pc = handler as usize;
                    }
                }
                task.current_exc = Some(exc);
                return;
            }
            // No handler in this frame: release nothing (locks are
            // task-scoped, not frame-scoped) and pop the frame.
            task.frames.pop();
        }
    }

    // ---- the interpreter loop ----------------------------------------------

    fn step_inner(&mut self, task: &mut Task) -> StepFlow {
        let tid = task.id;
        let Some(frame) = task.frames.last_mut() else {
            task.status = TaskStatus::Done(Ok(Value::None));
            return StepFlow::Finished;
        };
        if frame.pc >= frame.code.instrs.len() {
            // Fell off the end (defensive; compiler always emits Return).
            let result = frame.stack.pop().unwrap_or(Value::None);
            task.frames.pop();
            if task.frames.is_empty() {
                task.status = TaskStatus::Done(Ok(result));
                return StepFlow::Finished;
            }
            task.frames
                .last_mut()
                .expect("caller frame")
                .stack
                .push(result);
            return StepFlow::Normal;
        }
        let instr = frame.code.instrs[frame.pc];
        self.current_line = frame.code.span_at(frame.pc).map(|s| s.line);
        frame.pc += 1;

        macro_rules! raise {
            ($task:expr, $exc:expr) => {{
                let exc = $exc;
                self.raise_in_task_local($task, exc);
                return StepFlow::Normal;
            }};
        }

        match instr {
            Instr::LoadConst(i) => {
                let v = match &frame.code.consts[i as usize] {
                    Const::Value(v) => v.clone(),
                    Const::Code(_) => Value::None,
                };
                frame.stack.push(v);
            }
            Instr::LoadLocal(i) => match frame.locals[i as usize].clone() {
                Some(v) => frame.stack.push(v),
                None => {
                    let name = frame.code.locals[i as usize].clone();
                    raise!(
                        task,
                        Value::exc(
                            "UnboundLocalError",
                            format!("local variable `{name}` referenced before assignment")
                        )
                    );
                }
            },
            Instr::StoreLocal(i) => {
                let v = frame.stack.pop().expect("store requires a value");
                frame.locals[i as usize] = Some(v);
            }
            Instr::LoadGlobal(i) => {
                // Slot-resolved hot path: a vector index into the
                // machine's global slots, with the builtin fallback
                // pre-resolved per slot at compile time.
                match self.slots.get(i as usize).and_then(|v| v.clone()) {
                    Some(v) => {
                        self.record_global_access(tid, i, false);
                        task.frames.last_mut().expect("frame").stack.push(v);
                    }
                    None => match self.table.builtins.get(i as usize).and_then(|b| b.clone()) {
                        Some(v) => frame.stack.push(v),
                        None => {
                            let name = self
                                .table
                                .names
                                .get(i as usize)
                                .cloned()
                                .unwrap_or_default();
                            raise!(
                                task,
                                Value::exc("NameError", format!("name `{name}` is not defined"))
                            )
                        }
                    },
                }
            }
            Instr::StoreGlobal(i) => {
                let v = frame.stack.pop().expect("store requires a value");
                self.note_global_store_hint(i, &v);
                self.record_global_access(tid, i, true);
                let slot = i as usize;
                if slot >= self.slots.len() {
                    self.slots.resize(slot + 1, None);
                }
                self.slots[slot] = Some(v);
            }
            Instr::Bin(op) => {
                let b = frame.stack.pop().expect("binop rhs");
                let a = frame.stack.pop().expect("binop lhs");
                match ops::binary(op, &a, &b) {
                    Ok(v) => frame.stack.push(v),
                    Err(e) => raise!(task, e),
                }
            }
            Instr::Cmp(op) => {
                let b = frame.stack.pop().expect("cmp rhs");
                let a = frame.stack.pop().expect("cmp lhs");
                match ops::compare(op, &a, &b) {
                    Ok(v) => frame.stack.push(v),
                    Err(e) => raise!(task, e),
                }
            }
            Instr::Not => {
                let v = frame.stack.pop().expect("not operand");
                frame.stack.push(Value::Bool(!v.truthy()));
            }
            Instr::Neg => {
                let v = frame.stack.pop().expect("neg operand");
                match v {
                    Value::Int(i) => frame.stack.push(Value::Int(-i)),
                    Value::Float(f) => frame.stack.push(Value::Float(-f)),
                    Value::Bool(b) => frame.stack.push(Value::Int(-(b as i64))),
                    other => raise!(
                        task,
                        Value::exc(
                            "TypeError",
                            format!("bad operand type for unary -: {}", other.type_name())
                        )
                    ),
                }
            }
            Instr::Jump(t) => frame.pc = t as usize,
            Instr::JumpIfFalsePop(t) => {
                let v = frame.stack.pop().expect("jump condition");
                if !v.truthy() {
                    frame.pc = t as usize;
                }
            }
            Instr::JumpIfTruePop(t) => {
                let v = frame.stack.pop().expect("jump condition");
                if v.truthy() {
                    frame.pc = t as usize;
                }
            }
            Instr::JumpIfFalsePeek(t) => {
                let v = frame.stack.last().expect("jump condition");
                if !v.truthy() {
                    frame.pc = t as usize;
                }
            }
            Instr::JumpIfTruePeek(t) => {
                let v = frame.stack.last().expect("jump condition");
                if v.truthy() {
                    frame.pc = t as usize;
                }
            }
            Instr::MakeList(n) => {
                let at = frame.stack.len() - n as usize;
                let items = frame.stack.split_off(at);
                frame.stack.push(Value::list(items));
            }
            Instr::MakeTuple(n) => {
                let at = frame.stack.len() - n as usize;
                let items = frame.stack.split_off(at);
                frame.stack.push(Value::Tuple(Rc::new(items)));
            }
            Instr::MakeDict(n) => {
                let at = frame.stack.len() - 2 * n as usize;
                let flat = frame.stack.split_off(at);
                let mut pairs = Vec::with_capacity(n as usize);
                let mut it = flat.into_iter();
                while let (Some(k), Some(v)) = (it.next(), it.next()) {
                    pairs.push((k, v));
                }
                frame.stack.push(Value::dict(pairs));
            }
            Instr::GetIndex => {
                let index = frame.stack.pop().expect("index");
                let obj = frame.stack.pop().expect("object");
                self.record_object_access(tid, &obj, false);
                let frame = task.frames.last_mut().expect("frame");
                match ops::get_index(&obj, &index) {
                    Ok(v) => frame.stack.push(v),
                    Err(e) => raise!(task, e),
                }
            }
            Instr::SetIndex => {
                let value = frame.stack.pop().expect("value");
                let index = frame.stack.pop().expect("index");
                let obj = frame.stack.pop().expect("object");
                self.record_object_access(tid, &obj, true);
                if let Value::Buffer(buf) = &obj {
                    let result = builtins::buffer_write(self, buf, &index, value);
                    if let Err(e) = result {
                        raise!(task, e);
                    }
                } else if let Err(e) = ops::set_index(&obj, &index, value) {
                    raise!(task, e);
                }
            }
            Instr::Dup => {
                let v = frame.stack.last().expect("dup").clone();
                frame.stack.push(v);
            }
            Instr::Dup2 => {
                let n = frame.stack.len();
                let a = frame.stack[n - 2].clone();
                let b = frame.stack[n - 1].clone();
                frame.stack.push(a);
                frame.stack.push(b);
            }
            Instr::Pop => {
                frame.stack.pop();
            }
            Instr::Call(argc) => {
                let at = frame.stack.len() - argc as usize;
                let args = frame.stack.split_off(at);
                let callee = frame.stack.pop().expect("callee");
                return self.dispatch_call(task, callee, args);
            }
            Instr::CallMethod { name, argc } => {
                // Borrow the method name from the code object instead of
                // cloning a String per call.
                let code = Rc::clone(&frame.code);
                let at = frame.stack.len() - argc as usize;
                let args = frame.stack.split_off(at);
                let recv = frame.stack.pop().expect("receiver");
                match builtins::call_method(self, tid, &recv, &code.names[name as usize], args) {
                    BuiltinFlow::Value(v) => task.frames.last_mut().expect("frame").stack.push(v),
                    BuiltinFlow::Raise(e) => raise!(task, e),
                    BuiltinFlow::Block(w) => {
                        task.status = TaskStatus::Blocked(w);
                        return StepFlow::Yield;
                    }
                }
            }
            Instr::Return => {
                let result = frame.stack.pop().unwrap_or(Value::None);
                task.frames.pop();
                if task.frames.is_empty() {
                    task.status = TaskStatus::Done(Ok(result));
                    return StepFlow::Finished;
                }
                task.frames
                    .last_mut()
                    .expect("caller frame")
                    .stack
                    .push(result);
            }
            Instr::MakeFunction { code, n_defaults } => {
                let at = frame.stack.len() - n_defaults as usize;
                let defaults = frame.stack.split_off(at);
                let code = match &frame.code.consts[code as usize] {
                    Const::Code(c) => c.clone(),
                    Const::Value(_) => unreachable!("MakeFunction requires a code constant"),
                };
                frame.stack.push(Value::Func(Rc::new(FuncObj {
                    name: code.name.clone(),
                    code,
                    defaults,
                })));
            }
            Instr::GetIter => {
                let v = frame.stack.pop().expect("iterable");
                match builtins::make_iter(&v) {
                    Ok(it) => frame.stack.push(it),
                    Err(e) => raise!(task, e),
                }
            }
            Instr::ForIter(end) => {
                let next = {
                    let Some(Value::Iter(it)) = frame.stack.last() else {
                        raise!(
                            task,
                            Value::exc("TypeError", "for-loop target is not an iterator")
                        );
                    };
                    next_item(&mut it.borrow_mut())
                };
                match next {
                    Some(v) => frame.stack.push(v),
                    None => {
                        frame.stack.pop();
                        frame.pc = end as usize;
                    }
                }
            }
            Instr::UnpackTuple(n) => {
                let v = frame.stack.pop().expect("unpack source");
                let items: Vec<Value> = match &v {
                    Value::Tuple(t) => t.as_ref().clone(),
                    Value::List(l) => l.borrow().clone(),
                    other => raise!(
                        task,
                        Value::exc("TypeError", format!("cannot unpack {}", other.type_name()))
                    ),
                };
                if items.len() != n as usize {
                    raise!(
                        task,
                        Value::exc(
                            "ValueError",
                            format!("expected {n} values to unpack, got {}", items.len())
                        )
                    );
                }
                for item in items.into_iter().rev() {
                    frame.stack.push(item);
                }
            }
            Instr::Raise => {
                let v = frame.stack.pop().expect("exception");
                let exc = match v {
                    Value::Exc(_) => v,
                    Value::ExcCtor(kind) => Value::exc(kind.as_ref(), ""),
                    other => Value::exc(
                        "TypeError",
                        format!("cannot raise {} value", other.type_name()),
                    ),
                };
                raise!(task, exc);
            }
            Instr::Reraise => match task.current_exc.clone() {
                Some(exc) => raise!(task, exc),
                None => raise!(
                    task,
                    Value::exc("RuntimeError", "no active exception to re-raise")
                ),
            },
            Instr::RaiseAssert => {
                let msg = frame.stack.pop().expect("assert message");
                raise!(task, Value::exc("AssertionError", msg.py_str()));
            }
            Instr::SetupExcept(handler) => {
                let depth = frame.stack.len();
                frame.blocks.push(Block {
                    kind: BlockKind::Except { handler },
                    stack_depth: depth,
                });
            }
            Instr::SetupFinally(handler) => {
                let depth = frame.stack.len();
                frame.blocks.push(Block {
                    kind: BlockKind::Finally { handler },
                    stack_depth: depth,
                });
            }
            Instr::PopBlock => {
                frame.blocks.pop();
            }
            Instr::MatchExc(i) => {
                let matched = match frame.stack.last() {
                    Some(Value::Exc(e)) => e.matches(&frame.code.names[i as usize]),
                    _ => false,
                };
                frame.stack.push(Value::Bool(matched));
            }
        }
        StepFlow::Normal
    }

    /// Raise inside a task we currently hold `&mut` to (cannot use the
    /// tid-indexed path because the task is checked out of the vec).
    fn raise_in_task_local(&mut self, task: &mut Task, exc: Value) {
        let exc_obj = match &exc {
            Value::Exc(e) => e.clone(),
            other => Rc::new(ExcObj::new(
                "TypeError",
                format!(
                    "exceptions must be exception values, not {}",
                    other.type_name()
                ),
            )),
        };
        let exc = Value::Exc(exc_obj.clone());
        loop {
            let Some(frame) = task.frames.last_mut() else {
                task.failure_line = self.current_line;
                task.status = TaskStatus::Done(Err(exc_obj));
                return;
            };
            if let Some(block) = frame.blocks.pop() {
                frame.stack.truncate(block.stack_depth);
                frame.stack.push(exc.clone());
                match block.kind {
                    BlockKind::Except { handler } | BlockKind::Finally { handler } => {
                        frame.pc = handler as usize;
                    }
                }
                task.current_exc = Some(exc);
                return;
            }
            task.frames.pop();
        }
    }

    fn dispatch_call(&mut self, task: &mut Task, callee: Value, args: Vec<Value>) -> StepFlow {
        match callee {
            Value::Func(f) => {
                if task.frames.len() >= self.config.max_frames {
                    self.raise_in_task_local(
                        task,
                        Value::exc("RecursionError", "maximum recursion depth exceeded"),
                    );
                    return StepFlow::Normal;
                }
                let mut frame = Frame::new(f.code.clone());
                match bind_args(&f, args, &mut frame) {
                    Ok(()) => {
                        task.frames.push(frame);
                        StepFlow::Normal
                    }
                    Err(e) => {
                        self.raise_in_task_local(task, e);
                        StepFlow::Normal
                    }
                }
            }
            Value::Builtin(name) => match builtins::call(self, task.id, name, args) {
                BuiltinFlow::Value(v) => {
                    task.frames.last_mut().expect("frame").stack.push(v);
                    StepFlow::Normal
                }
                BuiltinFlow::Raise(e) => {
                    self.raise_in_task_local(task, e);
                    StepFlow::Normal
                }
                BuiltinFlow::Block(w) => {
                    task.status = TaskStatus::Blocked(w);
                    StepFlow::Yield
                }
            },
            Value::ExcCtor(kind) => {
                let msg = args.first().map(|v| v.py_str()).unwrap_or_default();
                task.frames
                    .last_mut()
                    .expect("frame")
                    .stack
                    .push(Value::exc(kind.as_ref(), msg));
                StepFlow::Normal
            }
            other => {
                self.raise_in_task_local(
                    task,
                    Value::exc(
                        "TypeError",
                        format!("{} is not callable", other.type_name()),
                    ),
                );
                StepFlow::Normal
            }
        }
    }
}

/// Records each spawned task that died of an exception (once).
fn collect_failures(tasks: &[Task], into: &mut Vec<ExcInfo>) {
    for t in tasks.iter().filter(|t| t.id != 0) {
        if let TaskStatus::Done(Err(exc)) = &t.status {
            let info = ExcInfo {
                kind: exc.kind.clone(),
                message: exc.message.clone(),
                line: t.failure_line,
                task: t.id,
            };
            if !into.contains(&info) {
                into.push(info);
            }
        }
    }
}

/// Handles still open, as leak reports.
fn open_leaks(handles: &[Rc<HandleObj>]) -> Vec<LeakReport> {
    handles
        .iter()
        .filter(|h| !h.closed.get())
        .map(|h| LeakReport {
            name: h.name.clone(),
        })
        .collect()
}

/// The main task's return value, once it has returned.
fn main_return(tasks: &[Task]) -> Option<Value> {
    match tasks.first().map(|t| &t.status) {
        Some(TaskStatus::Done(Ok(v))) => Some(v.clone()),
        _ => None,
    }
}

fn container_addr(v: &Value) -> Option<usize> {
    match v {
        Value::List(l) => Some(Rc::as_ptr(l) as usize),
        Value::Dict(d) => Some(Rc::as_ptr(d) as usize),
        Value::Buffer(b) => Some(Rc::as_ptr(b) as usize),
        _ => None,
    }
}

fn bind_args(func: &FuncObj, args: Vec<Value>, frame: &mut Frame) -> Result<(), Value> {
    let n_params = func.code.params.len();
    let n_required = n_params - func.defaults.len();
    if args.len() > n_params || args.len() < n_required {
        return Err(Value::exc(
            "TypeError",
            format!(
                "{}() takes {}..{} arguments but {} were given",
                func.name,
                n_required,
                n_params,
                args.len()
            ),
        ));
    }
    let given = args.len();
    for (i, a) in args.into_iter().enumerate() {
        frame.locals[i] = Some(a);
    }
    for i in given..n_params {
        frame.locals[i] = Some(func.defaults[i - n_required].clone());
    }
    Ok(())
}

fn next_item(it: &mut IterObj) -> Option<Value> {
    match it {
        IterObj::Range { next, stop, step } => {
            let more = if *step > 0 {
                *next < *stop
            } else {
                *next > *stop
            };
            if more {
                let v = *next;
                *next += *step;
                Some(Value::Int(v))
            } else {
                None
            }
        }
        IterObj::Items { items, index } => {
            if *index < items.len() {
                let v = items[*index].clone();
                *index += 1;
                Some(v)
            } else {
                None
            }
        }
        IterObj::Chars { chars, index } => {
            if *index < chars.len() {
                let v = Value::str(chars[*index].to_string());
                *index += 1;
                Some(v)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> RunOutcome {
        Machine::new(MachineConfig::default())
            .run_source(src)
            .unwrap()
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run("print(1 + 2 * 3)\nprint(10 / 4)\nprint(7 // 2, 7 % 2)\n");
        assert_eq!(out.output, "7\n2.5\n3 1\n");
        assert!(out.clean());
    }

    #[test]
    fn functions_defaults_and_recursion() {
        let out = run(
            "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\nprint(fib(10))\n",
        );
        assert_eq!(out.output, "55\n");
    }

    #[test]
    fn default_arguments() {
        let out = run("def greet(name, greeting=\"hello\"):\n    return greeting + \" \" + name\nprint(greet(\"world\"))\nprint(greet(\"x\", \"hi\"))\n");
        assert_eq!(out.output, "hello world\nhi x\n");
    }

    #[test]
    fn while_loop_with_break_continue() {
        let out = run(
            "total = 0\ni = 0\nwhile True:\n    i += 1\n    if i > 10:\n        break\n    if i % 2 == 0:\n        continue\n    total += i\nprint(total)\n",
        );
        assert_eq!(out.output, "25\n");
    }

    #[test]
    fn for_loop_over_range_and_list() {
        let out = run(
            "s = 0\nfor i in range(5):\n    s += i\nfor x in [10, 20]:\n    s += x\nprint(s)\n",
        );
        assert_eq!(out.output, "40\n");
    }

    #[test]
    fn for_with_tuple_unpack() {
        let out =
            run("d = {\"a\": 1, \"b\": 2}\nt = 0\nfor k, v in d.items():\n    t += v\nprint(t)\n");
        assert_eq!(out.output, "3\n");
    }

    #[test]
    fn try_except_catches_matching_kind() {
        let out = run(
            "try:\n    raise ValueError(\"boom\")\nexcept KeyError:\n    print(\"key\")\nexcept ValueError as e:\n    print(\"caught\", str(e))\n",
        );
        assert_eq!(out.output, "caught ValueError: boom\n");
        assert!(out.clean());
    }

    #[test]
    fn uncaught_exception_reports_kind_and_line() {
        let out = run("x = 1\nraise RuntimeError(\"bad\")\n");
        match out.status {
            RunStatus::Uncaught(info) => {
                assert_eq!(info.kind, "RuntimeError");
                assert_eq!(info.message, "bad");
                assert_eq!(info.line, Some(2));
            }
            other => panic!("expected uncaught, got {other:?}"),
        }
    }

    #[test]
    fn finally_runs_on_both_paths() {
        let out = run(
            "def f(fail):\n    try:\n        if fail:\n            raise ValueError(\"x\")\n        return \"ok\"\n    finally:\n        print(\"cleanup\")\nprint(f(False))\ntry:\n    f(True)\nexcept ValueError:\n    print(\"caught\")\n",
        );
        assert_eq!(out.output, "cleanup\nok\ncleanup\ncaught\n");
    }

    #[test]
    fn bare_raise_reraises() {
        let out = run(
            "try:\n    try:\n        raise KeyError(\"k\")\n    except KeyError:\n        raise\nexcept KeyError:\n    print(\"outer\")\n",
        );
        assert_eq!(out.output, "outer\n");
    }

    #[test]
    fn division_by_zero_is_catchable() {
        let out = run("try:\n    x = 1 / 0\nexcept ZeroDivisionError:\n    print(\"div0\")\n");
        assert_eq!(out.output, "div0\n");
    }

    #[test]
    fn infinite_loop_hits_step_budget() {
        let mut m = Machine::new(MachineConfig {
            step_budget: 10_000,
            ..MachineConfig::default()
        });
        let out = m.run_source("while True:\n    pass\n").unwrap();
        assert_eq!(out.status, RunStatus::Hung(HangKind::StepBudget));
    }

    #[test]
    fn recursion_limit_raises_not_hangs() {
        let out = run("def f():\n    return f()\ntry:\n    f()\nexcept RecursionError:\n    print(\"deep\")\n");
        assert_eq!(out.output, "deep\n");
    }

    #[test]
    fn globals_persist_across_call() {
        let mut m = Machine::new(MachineConfig::default());
        m.run_source(
            "counter = 0\ndef bump():\n    global counter\n    counter += 1\n    return counter\n",
        )
        .unwrap();
        let out = m.call("bump", vec![]).unwrap();
        assert!(out.return_value.unwrap().py_eq(&Value::Int(1)));
        let out = m.call("bump", vec![]).unwrap();
        assert!(out.return_value.unwrap().py_eq(&Value::Int(2)));
    }

    #[test]
    fn call_missing_function_is_host_error() {
        let mut m = Machine::new(MachineConfig::default());
        m.run_source("x = 1\n").unwrap();
        assert!(m.call("nope", vec![]).is_err());
    }

    #[test]
    fn spawn_join_returns_value() {
        let out = run("def work(n):\n    return n * 2\nt = spawn(work, 21)\nprint(join(t))\n");
        assert_eq!(out.output, "42\n");
        assert!(out.clean());
    }

    #[test]
    fn join_propagates_exception() {
        let out = run(
            "def bad():\n    raise ValueError(\"worker\")\nt = spawn(bad)\ntry:\n    join(t)\nexcept ValueError:\n    print(\"propagated\")\n",
        );
        assert_eq!(out.output, "propagated\n");
    }

    #[test]
    fn unjoined_task_failure_is_reported() {
        let out = run(
            "def bad():\n    raise RuntimeError(\"lost\")\nspawn(bad)\nsleep(1)\nprint(\"done\")\n",
        );
        assert_eq!(out.task_failures.len(), 1);
        assert_eq!(out.task_failures[0].kind, "RuntimeError");
    }

    #[test]
    fn sleep_advances_virtual_time_not_wall_time() {
        let out = run("sleep(1000)\nprint(now())\n");
        assert!(out.vtime >= 1000.0);
        assert!(out.clean());
    }

    #[test]
    fn unsynchronized_counter_race_is_detected() {
        let src = "counter = 0\ndef work():\n    global counter\n    for i in range(50):\n        counter = counter + 1\nt1 = spawn(work)\nt2 = spawn(work)\njoin(t1)\njoin(t2)\nprint(counter)\n";
        let out = run(src);
        assert!(
            !out.races.is_empty(),
            "expected a race on `counter`, got none"
        );
        assert_eq!(out.races[0].location, "counter");
    }

    #[test]
    fn lock_protected_counter_has_no_race() {
        let src = "counter = 0\nm = lock()\ndef work():\n    global counter\n    for i in range(50):\n        m.acquire()\n        counter = counter + 1\n        m.release()\nt1 = spawn(work)\nt2 = spawn(work)\njoin(t1)\njoin(t2)\nprint(counter)\n";
        let out = run(src);
        assert!(out.races.is_empty(), "unexpected race: {:?}", out.races);
        assert_eq!(out.output, "100\n");
    }

    #[test]
    fn deadlock_is_detected() {
        let src = "a = lock()\nb = lock()\ndef one():\n    a.acquire()\n    sleep(1)\n    b.acquire()\ndef two():\n    b.acquire()\n    sleep(1)\n    a.acquire()\nt1 = spawn(one)\nt2 = spawn(two)\njoin(t1)\njoin(t2)\n";
        let out = run(src);
        assert_eq!(out.status, RunStatus::Hung(HangKind::Deadlock));
    }

    #[test]
    fn leaked_handle_is_reported() {
        let out = run("h = open_handle(\"conn\")\nprint(\"no close\")\n");
        assert_eq!(out.leaks.len(), 1);
        assert_eq!(out.leaks[0].name, "conn");
    }

    #[test]
    fn closed_handle_is_not_a_leak() {
        let out = run("h = open_handle(\"conn\")\nh.close()\n");
        assert!(out.leaks.is_empty());
    }

    #[test]
    fn buffer_overflow_is_recorded_and_raised() {
        let out = run(
            "b = make_buffer(2)\nb.append(1)\nb.append(2)\ntry:\n    b.append(3)\nexcept BufferOverflowError:\n    print(\"overflow\")\n",
        );
        assert_eq!(out.output, "overflow\n");
        assert_eq!(out.overflows.len(), 1, "caught overflow is still recorded");
    }

    #[test]
    fn scheduler_is_deterministic_per_seed() {
        let src = "log = []\ndef w(tag):\n    for i in range(5):\n        log.append(tag)\nt1 = spawn(w, \"a\")\nt2 = spawn(w, \"b\")\njoin(t1)\njoin(t2)\nprint(len(log))\n";
        let mut outs = Vec::new();
        for _ in 0..2 {
            let mut m = Machine::new(MachineConfig {
                seed: 7,
                quantum: 3,
                ..MachineConfig::default()
            });
            outs.push(m.run_source(src).unwrap().output);
        }
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn string_methods_work() {
        let out = run("s = \"a,b,c\"\nparts = s.split(\",\")\nprint(len(parts), parts[1])\nprint(\"-\".join(parts))\nprint(\"  x \".strip())\n");
        assert_eq!(out.output, "3 b\na-b-c\nx\n");
    }

    #[test]
    fn dict_and_list_methods() {
        let out = run(
            "d = {}\nd[\"k\"] = 1\nd[\"k\"] += 1\nprint(d.get(\"k\"), d.get(\"missing\", -1))\nl = [3, 1, 2]\nl.sort()\nprint(l)\nl.append(9)\nprint(l.pop(), len(l))\n",
        );
        assert_eq!(out.output, "2 -1\n[1, 2, 3]\n9 3\n");
    }

    #[test]
    fn assert_failure_raises_assertion_error() {
        let out = run(
            "try:\n    assert 1 == 2, \"nope\"\nexcept AssertionError as e:\n    print(str(e))\n",
        );
        assert_eq!(out.output, "AssertionError: nope\n");
    }

    #[test]
    fn unbound_local_raises() {
        let out = run("def f():\n    x = y\n    y = 1\ntry:\n    f()\nexcept UnboundLocalError:\n    print(\"unbound\")\n");
        assert_eq!(out.output, "unbound\n");
    }

    #[test]
    fn ternary_and_boolean_shortcircuit() {
        let out = run("def boom():\n    raise ValueError(\"no\")\nx = 1 if True else boom()\ny = False and boom()\nz = True or boom()\nprint(x, y, z)\n");
        assert_eq!(out.output, "1 False True\n");
    }
}
