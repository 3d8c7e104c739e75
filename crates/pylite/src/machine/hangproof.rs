//! Proof of non-termination by exact state recurrence.
//!
//! The machine is deterministic per seed, so when its state at one
//! scheduling decision equals its state at an earlier one, the stretch
//! in between repeats until the step budget runs out, and the run's
//! outcome is already known. The probe here finds such recurrences and
//! lets the scheduler end the run as `Hung(StepBudget)` at the proof
//! instead of at the budget.
//!
//! **When.** Nothing runs before [`START_STEPS`]. After that the probe
//! snapshots the machine at power-of-two decision counts (Brent's cycle
//! detection) and checks each later decision against the snapshot.
//!
//! **What must hold between the snapshot and the matching decision
//! (the window).**
//!
//! * Every decision had exactly one runnable task. The scheduler's pick
//!   is then `gen_range(0..1)`, which is 0 whatever the RNG state, so
//!   the RNG is not part of the state.
//! * At most one task was asleep. With two sleepers the wake order
//!   compares two absolute deadlines, whose `f64` rounding can change as
//!   the clock grows.
//! * Nothing called `now()`, `rand_int`/`rand_float`, `print`, `spawn`,
//!   `open_handle` or `lock()`, and no race or overflow report was
//!   added: the machine's `effects` count did not move.
//! * The race detector touched no address-keyed entry (also counted in
//!   `effects`). An address key may name a freed object whose address a
//!   later allocation reuses, so such entries evolve with the allocator
//!   rather than with the program's state.
//!
//! **What is compared.** Task frames, stacks, locals, blocks, statuses,
//! current exceptions and failure lines; lock holders; global slots; the
//! heap up to aliasing (objects are numbered in first-visit order, so
//! two states match exactly when a bijection between their objects
//! preserves every field, with floats compared by bits); the
//! slot-keyed race-detector entries, with `last_step` compared only by
//! its order against each task's spawn step, the only way it is read.
//! A sleep deadline is compared by class (due, pending, never) and by
//! its rank among the pending deadlines: with one sleeper, a deadline
//! decides only whether its task is runnable.
//!
//! **The clock.** The one clock-dependent branch left is whether
//! `clock + secs` rounds back to `clock` at a `sleep` (the task is due
//! at once). Before stopping, the probe replays the window's clock
//! arithmetic to the budget, checking that every future sleep is due
//! exactly when its counterpart in the window was. The replay also
//! yields the clock the budget run would have ended with, so a proven
//! run's `vtime` is the budget run's and only `steps` differs.
//!
//! **Spins with several runnable tasks or sleepers.** There the pick
//! depends on the RNG and the wake order on several deadlines, so one
//! recurrence proves nothing. Once a decision has seen either, the next
//! checkpoint opens a *move memo*: each later decision's full state is
//! interned, and each quantum is recorded as a move from its decision's
//! state and pick to the next decision's state, with its steps and clock
//! events. Moves are deterministic in the state, so once every interned
//! state has a move for each of its picks, the memo replays the rest of
//! the run from the current state. The picks come from a clone of the
//! scheduler's RNG, so the replay walks the exact path the run would
//! take, and the clock arithmetic runs on the actual deadlines. The
//! replay fails the proof as soon as a deadline would classify
//! differently from the state its move reached. A memo closes on any
//! effect, on a move that disagrees with an earlier one from the same
//! state and pick (two sleepers whose deadlines drift apart, say), or
//! when it runs out of states or words.
//!
//! **Cost.** Each decision costs a few counters until a snapshot exists;
//! then a cheap skeleton of the state (tasks, frames, shallow locals)
//! is checked against the snapshot's with an early exit. Only a full
//! skeleton match runs the full comparison, which also exits at the
//! first differing word. A snapshot may take at most as many words as
//! the interval it covers has decisions, and after a failed comparison
//! at offset `k` the next one waits until offset `2k`, within a word
//! budget of twice the snapshot. A move memo encodes every decision it
//! sees, but all of its encodings together take at most
//! [`MEMO_WORDS_PER_DECISION`] words per decision the run had made when
//! it opened, and it holds at most [`MEMO_STATES`] states. Its replay
//! costs a few nanoseconds per remaining quantum.
//!
//! **Unproven.** Loops that read `now()` (such as a token bucket's drain
//! loop, whose counter also grows), loops whose state grows, and spins
//! whose memo never closes run to the budget as before.

use super::{AccessKey, FastMap, Machine, RunOutcome, RunStatus, TaskStatus, Wait};
use super::{BlockKind, HangKind};
use crate::value::{IterObj, TaskId, Value};
use rand::Rng;
use std::ops::Range;
use std::rc::Rc;

/// Steps a run executes before the probe does any work.
pub(super) const START_STEPS: u64 = 4096;

/// Words a snapshot may always take, however short its interval.
const MIN_SNAPSHOT_WORDS: usize = 64;

/// Extra words charged per heap object, for its map entry.
const OBJECT_WORDS: usize = 4;

/// Words a move memo may encode per decision the run has made when it
/// opens.
const MEMO_WORDS_PER_DECISION: usize = 16;

/// Decisions a move memo's word budget always counts, however early it
/// opens.
const MIN_MEMO_DECISIONS: usize = 64;

/// States a move memo may intern before it closes.
const MEMO_STATES: usize = 32;

/// A state's pick with no recorded move yet.
const NO_MOVE: u32 = u32::MAX;

/// A change of the clock or of a pending deadline within the window.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ClockEvent {
    /// `sleep(secs)`, and whether the sleeper was due at once.
    Sleep { secs: f64, due: bool },
    /// The scheduler advanced the clock to the sleeper's deadline.
    Wake,
}

/// Per-run state of the recurrence probe (see the module docs).
#[derive(Default)]
pub(super) struct HangProbe {
    /// Decisions seen since the probe started.
    decisions: u64,
    /// Decision count of the next checkpoint.
    next_checkpoint: u64,
    /// Whether the window since the snapshot can still prove a hang.
    armed: bool,
    snap_decision: u64,
    snap_steps: u64,
    snap_effects: u64,
    /// The snapshot's skeleton and full encoding.
    skeleton: Vec<u64>,
    snapshot: Vec<u64>,
    /// No full comparison before this many decisions past the snapshot.
    next_compare: u64,
    /// Words the window's remaining full comparisons may encode.
    compare_budget: usize,
    /// The window's clock events, by step offset from the snapshot.
    events: Vec<(u64, ClockEvent)>,
    /// Scratch for the heap numbering.
    ids: FastMap<usize, u32>,
    objs: Vec<Value>,
    /// Clock at the start of the run (for shadow predictions).
    start_clock: f64,
    /// Shadow mode: predict, record, but do not stop.
    shadow: bool,
    prediction: Option<(u64, RunOutcome)>,
    /// Whether a decision since the last checkpoint had several
    /// runnable tasks or sleepers.
    spin: bool,
    /// No further memo this run (a replay failed, or a shadow proof).
    memo_done: bool,
    memo: MoveMemo,
}

impl HangProbe {
    /// Resets the probe for a run starting at `start_clock`.
    pub(super) fn start(&mut self, start_clock: f64) {
        self.decisions = 0;
        self.next_checkpoint = 1;
        self.armed = false;
        self.start_clock = start_clock;
        self.shadow = shadow::active();
        self.prediction = None;
        self.spin = false;
        self.memo_done = false;
        self.memo.close();
    }

    /// Records the scheduler's pick (an index into the runnable tasks)
    /// for the move memo.
    pub(super) fn note_pick(&mut self, index: usize, task: TaskId) {
        self.memo.picked = (index, task);
    }

    /// Records the run in the shadow log when shadow mode is on and the
    /// run was predicted or hit the budget.
    pub(super) fn finish(&mut self, outcome: &RunOutcome) {
        if !self.shadow {
            return;
        }
        let prediction = self.prediction.take();
        let budget = outcome.status == RunStatus::Hung(HangKind::StepBudget);
        if prediction.is_none() && !budget {
            return;
        }
        let (proven_at, proven) = match prediction {
            Some((step, o)) => (Some(step), Some(shadow::render(&o))),
            None => (None, None),
        };
        shadow::push(shadow::ShadowRun {
            proven_at,
            proven,
            outcome: shadow::render(outcome),
            status: outcome.status.clone(),
            steps: outcome.steps,
        });
    }
}

impl Machine {
    /// One scheduling decision of the probe, with `runnable` tasks
    /// runnable. True when the run provably repeats until the budget;
    /// the clock is then already the budget run's final clock.
    pub(super) fn hang_proven(&mut self, runnable: usize) -> bool {
        let p = &mut self.probe;
        p.decisions += 1;
        p.spin |= runnable > 1;
        let at_checkpoint = p.decisions == p.next_checkpoint;
        let mut sleepers = 0;
        if at_checkpoint {
            p.next_checkpoint = p.next_checkpoint.saturating_mul(2);
            sleepers = self.sleepers();
            self.open_memo(sleepers > 1);
        }
        if self.probe.memo.live && self.memo_proven(runnable) {
            return true;
        }
        if at_checkpoint {
            self.checkpoint(runnable == 1 && sleepers <= 1);
            return false;
        }
        if !self.probe.armed {
            return false;
        }
        let sleepers = self.sleepers();
        let p = &mut self.probe;
        if runnable != 1 || self.effects != p.snap_effects || sleepers > 1 {
            p.spin |= sleepers > 1;
            p.armed = false;
            return false;
        }
        let p = &self.probe;
        let offset = p.decisions - p.snap_decision;
        if offset < p.next_compare || p.compare_budget == 0 {
            return false;
        }
        let mut words = Words::check(&p.skeleton, usize::MAX);
        if skeleton(self, &mut words).is_none() || !words.finished() {
            return false;
        }
        let (equal, spent) = self.encode_against_snapshot();
        let p = &mut self.probe;
        p.compare_budget = p.compare_budget.saturating_sub(spent);
        if !equal {
            p.next_compare = 2 * offset;
            return false;
        }
        let Some(clock) = self.replay_clock() else {
            self.probe.armed = false;
            return false;
        };
        self.prove(clock)
    }

    /// Ends the run at a proof whose replay yielded the budget run's
    /// final `clock` (true), or, in shadow mode, records the prediction
    /// and stops probing (false).
    fn prove(&mut self, clock: f64) -> bool {
        if self.probe.shadow {
            let vtime = clock - self.probe.start_clock;
            let outcome = self.outcome_at_proof(vtime);
            let p = &mut self.probe;
            p.prediction = Some((self.steps, outcome));
            p.armed = false;
            p.memo_done = true;
            p.memo.close();
            p.next_checkpoint = u64::MAX;
            return false;
        }
        self.clock = clock;
        true
    }

    /// Counts an event that makes the current window unprovable.
    pub(crate) fn note_effect(&mut self) {
        self.effects += 1;
    }

    /// Records a `sleep(secs)` that set a deadline of `wake_at`.
    pub(crate) fn note_sleep(&mut self, secs: f64, wake_at: f64) {
        let due = self.clock >= wake_at;
        self.record_clock(ClockEvent::Sleep { secs, due });
    }

    /// Records the scheduler advancing the clock to a deadline.
    pub(super) fn note_wake(&mut self) {
        self.record_clock(ClockEvent::Wake);
    }

    fn record_clock(&mut self, event: ClockEvent) {
        let p = &mut self.probe;
        if p.armed {
            p.events.push((self.steps - p.snap_steps, event));
        }
        if let Some((_, since)) = p.memo.last {
            p.memo.pending.push((self.steps - since, event));
        }
    }

    fn sleepers(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| matches!(t.status, TaskStatus::Blocked(Wait::Sleep { .. })))
            .count()
    }

    /// Opens a move memo at a checkpoint when a decision since the last
    /// checkpoint, or this one (`sleepers`), had several runnable tasks
    /// or sleepers. Its word budget grows with the run's decisions.
    fn open_memo(&mut self, sleepers: bool) {
        let p = &mut self.probe;
        if (p.spin || sleepers) && !p.memo.live && !p.memo_done {
            let decisions = (p.decisions as usize).max(MIN_MEMO_DECISIONS);
            p.memo
                .open(MEMO_WORDS_PER_DECISION * decisions, self.effects);
        }
        p.spin = false;
    }

    /// Takes a new snapshot when the state allows a proof (one runnable
    /// task, at most one sleeper) and fits the interval's word cap.
    fn checkpoint(&mut self, single_runnable: bool) {
        let mut p = std::mem::take(&mut self.probe);
        p.armed = false;
        if single_runnable {
            p.skeleton.clear();
            p.snapshot.clear();
            let cap = (p.decisions as usize).max(MIN_SNAPSHOT_WORDS);
            let mut words = Words::record(&mut p.skeleton, usize::MAX);
            skeleton(self, &mut words);
            let mut enc = Encoder {
                words: Words::record(&mut p.snapshot, cap),
                ids: &mut p.ids,
                objs: &mut p.objs,
            };
            let fits = encode(self, &mut enc).is_some();
            enc.clear();
            if fits {
                p.armed = true;
                p.snap_decision = p.decisions;
                p.snap_steps = self.steps;
                p.snap_effects = self.effects;
                p.next_compare = 1;
                p.compare_budget = 2 * p.snapshot.len() + MIN_SNAPSHOT_WORDS;
                p.events.clear();
            }
        }
        self.probe = p;
    }

    /// Encodes the current state against the snapshot: whether it is
    /// equal, and the words spent finding out.
    fn encode_against_snapshot(&mut self) -> (bool, usize) {
        let mut ids = std::mem::take(&mut self.probe.ids);
        let mut objs = std::mem::take(&mut self.probe.objs);
        let budget = self.probe.compare_budget;
        let mut enc = Encoder {
            words: Words::check(&self.probe.snapshot, budget),
            ids: &mut ids,
            objs: &mut objs,
        };
        let equal = encode(self, &mut enc).is_some() && enc.words.finished();
        let spent = budget - enc.words.left;
        enc.clear();
        self.probe.ids = ids;
        self.probe.objs = objs;
        (equal, spent)
    }

    /// Replays the window's clock events from the current decision to
    /// the step budget. `Some(clock)` — the budget run's final clock —
    /// when every replayed sleep is due exactly when its counterpart in
    /// the window was; `None` when one is not, and the proof fails.
    fn replay_clock(&self) -> Option<f64> {
        let p = &self.probe;
        let budget = self.config.step_budget;
        let period = self.steps - p.snap_steps;
        let mut clock = self.clock;
        if p.events.is_empty() {
            return Some(clock);
        }
        let mut pending = self
            .tasks
            .iter()
            .find_map(|t| match t.status {
                TaskStatus::Blocked(Wait::Sleep { wake_at }) => Some(wake_at),
                _ => None,
            })
            .unwrap_or(clock);
        let mut base = self.steps;
        loop {
            for &(offset, event) in &p.events {
                if base + offset > budget {
                    return Some(clock);
                }
                match event {
                    ClockEvent::Sleep { secs, due } => {
                        pending = clock + secs;
                        if (clock >= pending) != due {
                            return None;
                        }
                    }
                    ClockEvent::Wake => clock = pending,
                }
            }
            base += period;
        }
    }

    /// One decision of an open move memo: interns the state, records
    /// the move that led here, and once every state has a move for each
    /// of its picks, replays the run to the budget. True when the replay
    /// proved the hang (see [`Machine::prove`]).
    fn memo_proven(&mut self, runnable: usize) -> bool {
        if self.effects != self.probe.memo.effects {
            self.probe.memo.close();
            return false;
        }
        let Some(state) = self.memo_intern(runnable) else {
            self.probe.memo.close();
            return false;
        };
        let m = &mut self.probe.memo;
        if let Some((from, since)) = m.last {
            let (pick, task) = m.picked;
            let slot = m.states[from as usize].moves + pick;
            let steps = self.steps - since;
            match m.moves_of[slot] {
                NO_MOVE => {
                    let start = m.events.len();
                    m.events.extend_from_slice(&m.pending);
                    m.moves_of[slot] = m.moves.len() as u32;
                    m.moves.push(Move {
                        to: state,
                        task,
                        steps,
                        events: start..m.events.len(),
                    });
                    m.missing -= 1;
                }
                known => {
                    let mv = &m.moves[known as usize];
                    let same = mv.to == state
                        && mv.steps == steps
                        && mv.task == task
                        && m.events[mv.events.clone()] == m.pending[..];
                    if !same {
                        // The state did not determine the move (two
                        // deadlines drifted apart, say): give up.
                        m.close();
                        return false;
                    }
                }
            }
        }
        m.pending.clear();
        m.last = Some((state, self.steps));
        if m.missing > 0 {
            return false;
        }
        let Some(clock) = self.replay_memo(state) else {
            self.probe.memo_done = true;
            self.probe.memo.close();
            return false;
        };
        self.prove(clock)
    }

    /// The memo's id for the current state, interning it if new; `None`
    /// when the state does not fit the memo's words or states.
    fn memo_intern(&mut self, runnable: usize) -> Option<u32> {
        let mut m = std::mem::take(&mut self.probe.memo);
        let mut ids = std::mem::take(&mut self.probe.ids);
        let mut objs = std::mem::take(&mut self.probe.objs);
        let mut scratch = std::mem::take(&mut m.scratch);
        scratch.clear();
        let mut enc = Encoder {
            words: Words::record(&mut scratch, m.budget),
            ids: &mut ids,
            objs: &mut objs,
        };
        let fits = encode(self, &mut enc).is_some();
        m.budget = enc.words.left;
        enc.clear();
        self.probe.ids = ids;
        self.probe.objs = objs;
        let id = if fits {
            let hash = scratch.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &w| {
                (h ^ w).wrapping_mul(0x0100_0000_01b3)
            });
            let found = m
                .states
                .iter()
                .position(|st| st.hash == hash && m.words[st.words.clone()] == scratch[..]);
            match found {
                Some(i) => Some(i as u32),
                None if m.states.len() < MEMO_STATES => {
                    let words = m.words.len()..m.words.len() + scratch.len();
                    m.words.extend_from_slice(&scratch);
                    let start = m.sleepers.len();
                    for t in &self.tasks {
                        if let TaskStatus::Blocked(Wait::Sleep { wake_at }) = t.status {
                            let class = deadline_class(self.clock, wake_at);
                            let rank = self.deadline_rank(wake_at);
                            m.sleepers.push((t.id, class, rank));
                        }
                    }
                    m.states.push(MemoState {
                        words,
                        hash,
                        runnable,
                        moves: m.moves_of.len(),
                        sleepers: start..m.sleepers.len(),
                    });
                    m.moves_of.resize(m.moves_of.len() + runnable, NO_MOVE);
                    m.missing += runnable;
                    Some((m.states.len() - 1) as u32)
                }
                None => None,
            }
        } else {
            None
        };
        m.scratch = scratch;
        self.probe.memo = m;
        id
    }

    /// Replays the run from the memo's `state` (the current decision) to
    /// the step budget: picks drawn from a clone of the scheduler's RNG,
    /// moves from the memo, clock events on the actual deadlines.
    /// `Some(clock)` — the budget run's final clock — when every move
    /// reaches a state whose sleepers classify as the actual deadlines
    /// do; `None` when one does not.
    fn replay_memo(&self, mut state: u32) -> Option<f64> {
        let m = &self.probe.memo;
        let budget = self.config.step_budget;
        let mut rng = self.rng.clone();
        let mut clock = self.clock;
        let mut deadlines: Vec<Option<f64>> = self
            .tasks
            .iter()
            .map(|t| match t.status {
                TaskStatus::Blocked(Wait::Sleep { wake_at }) => Some(wake_at),
                _ => None,
            })
            .collect();
        let mut steps = self.steps;
        loop {
            let st = &m.states[state as usize];
            let pick = rng.gen_range(0..st.runnable);
            let mv = &m.moves[m.moves_of[st.moves + pick] as usize];
            // A picked sleeper was due, so dropping its deadline changes
            // no pending rank: only a move's clock events need checking.
            deadlines[mv.task] = None;
            for &(offset, event) in &m.events[mv.events.clone()] {
                if steps + offset > budget {
                    return Some(clock);
                }
                match event {
                    ClockEvent::Sleep { secs, .. } => deadlines[mv.task] = Some(clock + secs),
                    ClockEvent::Wake => {
                        let mut earliest = f64::INFINITY;
                        for &d in deadlines.iter().flatten() {
                            if clock >= d {
                                return None;
                            }
                            earliest = earliest.min(d);
                        }
                        if !earliest.is_finite() {
                            return None;
                        }
                        clock = earliest;
                    }
                }
            }
            steps += mv.steps;
            if steps >= budget {
                return Some(clock);
            }
            if !mv.events.is_empty() {
                let mut expected = m.sleepers[m.states[mv.to as usize].sleepers.clone()].iter();
                for (t, d) in deadlines.iter().enumerate() {
                    let Some(d) = *d else { continue };
                    let class = deadline_class(clock, d);
                    let rank = if class == 1 {
                        pending_rank(clock, d, &deadlines)
                    } else {
                        0
                    };
                    if expected.next() != Some(&(t, class, rank)) {
                        return None;
                    }
                }
                if expected.next().is_some() {
                    return None;
                }
            }
            state = mv.to;
        }
    }

    /// A sleeper's rank among the distinct pending deadlines (0 for the
    /// earliest); 0 unless `wake_at` is pending.
    fn deadline_rank(&self, wake_at: f64) -> u64 {
        let deadline = |t: &super::Task| match t.status {
            TaskStatus::Blocked(Wait::Sleep { wake_at }) => Some(wake_at),
            _ => None,
        };
        let pending = |e: f64| deadline_class(self.clock, e) == 1 && e < wake_at;
        if deadline_class(self.clock, wake_at) != 1 {
            return 0;
        }
        let mut rank = 0;
        for (i, t) in self.tasks.iter().enumerate() {
            let Some(e) = deadline(t) else { continue };
            if pending(e) && !self.tasks[..i].iter().any(|u| deadline(u) == Some(e)) {
                rank += 1;
            }
        }
        rank
    }

    /// The outcome the run would return if it stopped here as
    /// `Hung(StepBudget)` with the given `vtime` (shadow mode).
    fn outcome_at_proof(&self, vtime: f64) -> RunOutcome {
        let mut task_failures = self.spawned_failures.clone();
        super::collect_failures(&self.tasks, &mut task_failures);
        RunOutcome {
            status: RunStatus::Hung(HangKind::StepBudget),
            output: self.output.clone(),
            races: self.races.clone(),
            overflows: self.overflows.clone(),
            leaks: super::open_leaks(&self.handles),
            task_failures,
            steps: self.steps,
            vtime,
            return_value: super::main_return(&self.tasks),
        }
    }
}

/// A sleeper's deadline class: due, pending at a finite instant, or
/// never (infinite or NaN).
fn deadline_class(clock: f64, wake_at: f64) -> u64 {
    if clock >= wake_at {
        0
    } else if wake_at.is_finite() {
        1
    } else {
        2
    }
}

/// The rank of the pending deadline `d` among the distinct pending
/// deadlines in `all` (0 for the earliest).
fn pending_rank(clock: f64, d: f64, all: &[Option<f64>]) -> u64 {
    let pending = |e: f64| deadline_class(clock, e) == 1 && e < d;
    let mut rank = 0;
    for (i, e) in all.iter().enumerate() {
        let Some(e) = *e else { continue };
        if pending(e) && !all[..i].contains(&Some(e)) {
            rank += 1;
        }
    }
    rank
}

/// A memo of scheduler moves between full states (see the module docs).
#[derive(Default)]
struct MoveMemo {
    live: bool,
    /// Words the memo may still encode.
    budget: usize,
    /// The machine's effects count when the memo opened.
    effects: u64,
    /// Interned states, their encodings back to back in `words`.
    states: Vec<MemoState>,
    words: Vec<u64>,
    /// Per state and pick, an index into `moves`, or [`NO_MOVE`].
    moves_of: Vec<u32>,
    moves: Vec<Move>,
    /// Clock events of every move, back to back.
    events: Vec<(u64, ClockEvent)>,
    /// Sleepers of every state, back to back: task, deadline class, rank.
    sleepers: Vec<(TaskId, u64, u64)>,
    /// Picks without a recorded move.
    missing: usize,
    /// The last decision's state and step count.
    last: Option<(u32, u64)>,
    /// The last decision's pick: runnable index and task.
    picked: (usize, TaskId),
    /// Clock events since the last decision, by step offset from it.
    pending: Vec<(u64, ClockEvent)>,
    /// Scratch for the current state's encoding.
    scratch: Vec<u64>,
}

/// One interned state of a move memo.
struct MemoState {
    words: Range<usize>,
    hash: u64,
    runnable: usize,
    /// Start of the state's picks in `moves_of`.
    moves: usize,
    sleepers: Range<usize>,
}

/// One recorded quantum: the task that ran, the state it reached, its
/// steps and its clock events (by step offset from its decision).
struct Move {
    to: u32,
    task: TaskId,
    steps: u64,
    events: Range<usize>,
}

impl MoveMemo {
    fn open(&mut self, budget: usize, effects: u64) {
        self.close();
        self.live = true;
        self.budget = budget;
        self.effects = effects;
    }

    /// Empties the memo, keeping its allocations.
    fn close(&mut self) {
        self.live = false;
        self.states.clear();
        self.words.clear();
        self.moves_of.clear();
        self.moves.clear();
        self.events.clear();
        self.sleepers.clear();
        self.missing = 0;
        self.last = None;
        self.pending.clear();
    }
}

/// Where encoded words go: into a recording, or checked against one.
enum Sink<'a> {
    Record(&'a mut Vec<u64>),
    Check(std::slice::Iter<'a, u64>),
}

/// A word stream with a cap; every `put` fails once the cap is spent or
/// (when checking) at the first word that differs.
struct Words<'a> {
    sink: Sink<'a>,
    left: usize,
}

impl<'a> Words<'a> {
    fn record(out: &'a mut Vec<u64>, cap: usize) -> Self {
        Words {
            sink: Sink::Record(out),
            left: cap,
        }
    }

    fn check(against: &'a [u64], cap: usize) -> Self {
        Words {
            sink: Sink::Check(against.iter()),
            left: cap,
        }
    }

    fn put(&mut self, w: u64) -> Option<()> {
        self.left = self.left.checked_sub(1)?;
        match &mut self.sink {
            Sink::Record(out) => out.push(w),
            Sink::Check(rest) => {
                if rest.next() != Some(&w) {
                    return None;
                }
            }
        }
        Some(())
    }

    /// Whether a check consumed the whole recording.
    fn finished(&self) -> bool {
        match &self.sink {
            Sink::Record(_) => true,
            Sink::Check(rest) => rest.len() == 0,
        }
    }
}

/// The per-decision skeleton: task statuses and frame shapes with
/// shallow locals and stack values. Equal states have equal skeletons.
fn skeleton(m: &Machine, w: &mut Words) -> Option<()> {
    w.put(m.tasks.len() as u64)?;
    for t in &m.tasks {
        status_head(m, &t.status, w)?;
        w.put(t.frames.len() as u64)?;
        for f in &t.frames {
            w.put(Rc::as_ptr(&f.code) as usize as u64)?;
            w.put(f.pc as u64)?;
            w.put(f.blocks.len() as u64)?;
            w.put(f.stack.len() as u64)?;
            for v in &f.stack {
                w.put(shallow(v))?;
            }
            for v in &f.locals {
                w.put(v.as_ref().map_or(u64::MAX, shallow))?;
            }
        }
    }
    Some(())
}

/// A task status's tag and scalar payload.
fn status_head(m: &Machine, status: &TaskStatus, w: &mut Words) -> Option<()> {
    match status {
        TaskStatus::Ready => w.put(0),
        TaskStatus::Blocked(Wait::Sleep { wake_at }) => {
            w.put(1)?;
            w.put(deadline_class(m.clock, *wake_at))?;
            w.put(m.deadline_rank(*wake_at))
        }
        TaskStatus::Blocked(Wait::Lock(l)) => {
            w.put(2)?;
            w.put(*l as u64)
        }
        TaskStatus::Blocked(Wait::Join(t)) => {
            w.put(3)?;
            w.put(*t as u64)
        }
        TaskStatus::Done(Ok(_)) => w.put(4),
        TaskStatus::Done(Err(_)) => w.put(5),
    }
}

/// One word that equal values share: scalars by value, containers and
/// strings by length, other objects by kind.
fn shallow(v: &Value) -> u64 {
    match v {
        Value::None => 1,
        Value::Bool(b) => 2 + u64::from(*b),
        Value::Int(i) => *i as u64,
        Value::Float(f) => f.to_bits(),
        Value::Str(s) => s.len() as u64,
        Value::List(l) => l.borrow().len() as u64,
        Value::Dict(d) => d.borrow().len() as u64,
        Value::Tuple(t) => t.len() as u64,
        Value::Lock(l) => *l as u64,
        Value::Task(t) => *t as u64,
        other => other.type_name().len() as u64,
    }
}

/// A canonical encoder for machine states: objects are numbered in
/// first-visit order and their contents follow the roots in that order,
/// so two encodings are equal exactly when the states are equal up to
/// a bijection between their objects.
struct Encoder<'a> {
    words: Words<'a>,
    ids: &'a mut FastMap<usize, u32>,
    objs: &'a mut Vec<Value>,
}

impl Encoder<'_> {
    fn put(&mut self, w: u64) -> Option<()> {
        self.words.put(w)
    }

    fn pair(&mut self, tag: u64, w: u64) -> Option<()> {
        self.put(tag)?;
        self.put(w)
    }

    fn text(&mut self, s: &str) -> Option<()> {
        self.put(s.len() as u64)?;
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.put(u64::from_le_bytes(word))?;
        }
        Some(())
    }

    fn seq(&mut self, values: &[Value]) -> Option<()> {
        self.put(values.len() as u64)?;
        values.iter().try_for_each(|v| self.value(v))
    }

    fn option(&mut self, v: Option<&Value>) -> Option<()> {
        match v {
            None => self.put(u64::MAX),
            Some(v) => self.value(v),
        }
    }

    /// A value: scalars inline, objects by their first-visit number.
    fn value(&mut self, v: &Value) -> Option<()> {
        let (tag, addr) = match v {
            Value::None => return self.put(0),
            Value::Bool(b) => return self.pair(1, u64::from(*b)),
            Value::Int(i) => return self.pair(2, *i as u64),
            Value::Float(f) => return self.pair(3, f.to_bits()),
            Value::Lock(l) => return self.pair(4, *l as u64),
            Value::Task(t) => return self.pair(5, *t as u64),
            Value::Builtin(name) => {
                self.put(6)?;
                return self.text(name);
            }
            Value::Str(s) => (7, Rc::as_ptr(s) as *const u8 as usize),
            Value::ExcCtor(s) => (8, Rc::as_ptr(s) as *const u8 as usize),
            Value::List(l) => (9, Rc::as_ptr(l) as usize),
            Value::Dict(d) => (10, Rc::as_ptr(d) as usize),
            Value::Tuple(t) => (11, Rc::as_ptr(t) as usize),
            Value::Func(f) => (12, Rc::as_ptr(f) as usize),
            Value::Exc(x) => (13, Rc::as_ptr(x) as usize),
            Value::Buffer(b) => (14, Rc::as_ptr(b) as usize),
            Value::Handle(h) => (15, Rc::as_ptr(h) as usize),
            Value::Iter(it) => (16, Rc::as_ptr(it) as usize),
        };
        let next = self.objs.len() as u32;
        let id = *self.ids.entry(addr).or_insert(next);
        if id == next {
            self.words.left = self.words.left.checked_sub(OBJECT_WORDS)?;
            self.objs.push(v.clone());
        }
        self.pair(tag, u64::from(id))
    }

    /// An object's fields.
    fn contents(&mut self, v: &Value) -> Option<()> {
        match v {
            Value::Str(s) | Value::ExcCtor(s) => self.text(s),
            Value::List(l) => self.seq(&l.borrow()),
            Value::Tuple(t) => self.seq(t),
            Value::Dict(d) => {
                let d = d.borrow();
                self.put(d.len() as u64)?;
                d.iter().try_for_each(|(k, v)| {
                    self.value(k)?;
                    self.value(v)
                })
            }
            Value::Func(f) => {
                self.put(Rc::as_ptr(&f.code) as usize as u64)?;
                self.text(&f.name)?;
                self.seq(&f.defaults)
            }
            Value::Exc(x) => {
                self.text(&x.kind)?;
                self.text(&x.message)
            }
            Value::Buffer(b) => {
                let b = b.borrow();
                self.put(b.capacity as u64)?;
                self.seq(&b.data)
            }
            Value::Handle(h) => {
                self.put(h.id as u64)?;
                self.text(&h.name)?;
                self.put(u64::from(h.closed.get()))?;
                self.seq(&h.written.borrow())
            }
            Value::Iter(it) => match &*it.borrow() {
                IterObj::Range { next, stop, step } => {
                    self.put(0)?;
                    self.put(*next as u64)?;
                    self.put(*stop as u64)?;
                    self.put(*step as u64)
                }
                IterObj::Items { items, index } => {
                    self.pair(1, *index as u64)?;
                    self.seq(items)
                }
                IterObj::Chars { chars, index } => {
                    self.pair(2, *index as u64)?;
                    self.put(chars.len() as u64)?;
                    chars.iter().try_for_each(|c| self.put(u64::from(*c)))
                }
            },
            _ => Some(()),
        }
    }

    /// Drops the numbering (and the object references it held).
    fn clear(&mut self) {
        self.ids.clear();
        self.objs.clear();
    }
}

/// The full state: tasks, locks, globals and slot-keyed race-detector
/// entries as roots, then every reachable object's fields.
fn encode(m: &Machine, e: &mut Encoder) -> Option<()> {
    e.put(m.tasks.len() as u64)?;
    for t in &m.tasks {
        status_head(m, &t.status, &mut e.words)?;
        match &t.status {
            TaskStatus::Done(Ok(v)) => e.value(v)?,
            TaskStatus::Done(Err(x)) => e.value(&Value::Exc(Rc::clone(x)))?,
            _ => {}
        }
        e.option(t.current_exc.as_ref())?;
        e.put(t.failure_line.map_or(u64::MAX, u64::from))?;
        e.put(t.frames.len() as u64)?;
        for f in &t.frames {
            e.put(Rc::as_ptr(&f.code) as usize as u64)?;
            e.put(f.pc as u64)?;
            e.seq(&f.stack)?;
            e.put(f.locals.len() as u64)?;
            for v in &f.locals {
                e.option(v.as_ref())?;
            }
            e.put(f.blocks.len() as u64)?;
            for b in &f.blocks {
                let (kind, handler) = match b.kind {
                    BlockKind::Except { handler } => (0, handler),
                    BlockKind::Finally { handler } => (1, handler),
                };
                e.put(kind)?;
                e.put(u64::from(handler))?;
                e.put(b.stack_depth as u64)?;
            }
        }
    }
    e.put(m.locks.len() as u64)?;
    for l in &m.locks {
        e.put(l.held_by.map_or(u64::MAX, |t| t as u64))?;
    }
    e.put(m.slots.len() as u64)?;
    for v in &m.slots {
        e.option(v.as_ref())?;
    }
    if m.config.detect_races && m.tasks.len() > 1 {
        for slot in 0..m.slots.len() {
            let Some(a) = m.access.get(&AccessKey::Global(slot as u16)) else {
                e.put(0)?;
                continue;
            };
            let flags = 1
                | u64::from(a.shared) << 1
                | u64::from(a.written) << 2
                | u64::from(a.modified_shared) << 3
                | u64::from(a.reported) << 4;
            e.pair(flags, a.owner as u64)?;
            e.put(a.lockset.len() as u64)?;
            for l in &a.lockset {
                e.put(*l as u64)?;
            }
            for &spawned in &m.task_spawn_step {
                e.put(u64::from(a.last_step <= spawned))?;
            }
        }
    }
    let mut i = 0;
    while i < e.objs.len() {
        let v = e.objs[i].clone();
        e.contents(&v)?;
        i += 1;
    }
    Some(())
}

/// Test support: runs with the hang proof in shadow mode.
///
/// In shadow mode a proof does not stop the run. The machine records
/// the outcome it would have returned there and runs on to its true
/// end, so a test can check every prediction against the run it
/// predicted. The mode is per thread and is not a configuration: it
/// changes no outcome, only what [`record`] returns.
pub mod shadow {
    use super::super::{RunOutcome, RunStatus};
    use std::cell::{Cell, RefCell};

    /// One run that was predicted to hang, or hit the step budget.
    #[derive(Debug, Clone)]
    pub struct ShadowRun {
        /// Step count at which the proof fired, if it did.
        pub proven_at: Option<u64>,
        /// The outcome the run would have returned at the proof,
        /// rendered with `{:?}` with `steps` zeroed.
        pub proven: Option<String>,
        /// The outcome the run returned, rendered the same way.
        pub outcome: String,
        /// Its status.
        pub status: RunStatus,
        /// Steps it ran.
        pub steps: u64,
    }

    thread_local! {
        static ACTIVE: Cell<bool> = const { Cell::new(false) };
        static RUNS: RefCell<Vec<ShadowRun>> = const { RefCell::new(Vec::new()) };
    }

    /// Runs `f` with shadow mode on for machines started on this
    /// thread, returning its result and the runs they recorded.
    pub fn record<R>(f: impl FnOnce() -> R) -> (R, Vec<ShadowRun>) {
        struct Off;
        impl Drop for Off {
            fn drop(&mut self) {
                ACTIVE.with(|a| a.set(false));
            }
        }
        ACTIVE.with(|a| a.set(true));
        let off = Off;
        let result = f();
        drop(off);
        (result, RUNS.with(|r| std::mem::take(&mut *r.borrow_mut())))
    }

    pub(super) fn active() -> bool {
        ACTIVE.with(Cell::get)
    }

    pub(super) fn push(run: ShadowRun) {
        RUNS.with(|r| r.borrow_mut().push(run));
    }

    pub(super) fn render(outcome: &RunOutcome) -> String {
        format!(
            "{:?}",
            RunOutcome {
                steps: 0,
                ..outcome.clone()
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::shadow::{self, ShadowRun};
    use super::*;
    use crate::machine::MachineConfig;

    fn config(step_budget: u64) -> MachineConfig {
        MachineConfig {
            step_budget,
            ..MachineConfig::default()
        }
    }

    fn run(src: &str, step_budget: u64) -> RunOutcome {
        Machine::new(config(step_budget)).run_source(src).unwrap()
    }

    /// Runs `src` in shadow mode: the outcome of the full run and what
    /// the probe recorded.
    fn shadowed(src: &str, step_budget: u64) -> (RunOutcome, Vec<ShadowRun>) {
        shadow::record(|| run(src, step_budget))
    }

    /// The run stops at a proof in under 1% of the production budget,
    /// and its outcome is the full budget run's in every field but
    /// `steps`.
    fn assert_proven(src: &str) -> RunOutcome {
        let budget = MachineConfig::default().step_budget;
        let stopped = run(src, budget);
        assert_eq!(stopped.status, RunStatus::Hung(HangKind::StepBudget));
        assert!(
            stopped.steps < budget / 100,
            "proof took {} steps",
            stopped.steps
        );
        let (full, runs) = shadowed(src, budget);
        assert_eq!(full.steps, budget, "the full run reaches the budget");
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].proven_at, Some(stopped.steps));
        assert_eq!(runs[0].proven.as_deref(), Some(runs[0].outcome.as_str()));
        assert_eq!(shadow::render(&stopped), shadow::render(&full));
        stopped
    }

    /// The run goes to its true end with no prediction, exactly as a
    /// machine without the probe would (same steps, same everything).
    fn assert_unproven(src: &str, step_budget: u64) -> RunOutcome {
        let (full, runs) = shadowed(src, step_budget);
        assert!(
            runs.iter().all(|r| r.proven_at.is_none()),
            "unexpected proof at {:?}",
            runs.iter().map(|r| r.proven_at).collect::<Vec<_>>()
        );
        let stopped = run(src, step_budget);
        assert_eq!(format!("{stopped:?}"), format!("{full:?}"));
        assert!(stopped.steps > START_STEPS, "the probe never started");
        stopped
    }

    #[test]
    fn an_empty_infinite_loop_is_proven() {
        assert_proven("while True:\n    pass\n");
    }

    #[test]
    fn a_pull_spin_whose_producer_is_gone_is_proven() {
        let src = "m = lock()\nqueue = []\nlog = []\n\
def pull():\n    while True:\n        m.acquire()\n        if len(queue) > 0:\n            item = queue.pop(0)\n            m.release()\n            return item\n        m.release()\n        sleep(1)\n\
def producer(n):\n    for i in range(n):\n        m.acquire()\n        queue.append(i)\n        m.release()\n\
def consumer(n):\n    for i in range(n):\n        log.append(pull())\n\
print(\"start\")\nt1 = spawn(producer, 2)\nt2 = spawn(consumer, 3)\njoin(t1)\njoin(t2)\n";
        let out = assert_proven(src);
        assert_eq!(out.output, "start\n");
        assert!(out.vtime > 100_000.0, "vtime is the budget run's");
    }

    #[test]
    fn a_two_task_spin_with_two_sleepers_is_proven() {
        // `push` waits for a full queue that only it could fill, `pull`
        // for an item: both tasks spin, each sleeping once per turn.
        let src = "m = lock()\nqueue = []\nlimit = 4\n\
def push(item):\n    while True:\n        m.acquire()\n        if not len(queue) < limit:\n            queue.append(item)\n            m.release()\n            return True\n        m.release()\n        sleep(1)\n\
def pull():\n    while True:\n        m.acquire()\n        if len(queue) > 0:\n            item = queue.pop(0)\n            m.release()\n            return item\n        m.release()\n        sleep(1)\n\
def producer(n):\n    for i in range(n):\n        push(i + 1)\n\
def consumer(n):\n    for i in range(n):\n        pull()\n\
print(\"start\")\nt1 = spawn(producer, 6)\nt2 = spawn(consumer, 6)\njoin(t1)\njoin(t2)\n";
        let out = assert_proven(src);
        assert_eq!(out.output, "start\n");
        assert!(out.vtime > 10_000.0, "vtime is the budget run's");
    }

    #[test]
    fn an_in_place_flip_with_period_two_is_proven() {
        assert_proven("l = [0]\nwhile True:\n    l[0] = 1 - l[0]\n");
    }

    #[test]
    fn a_proven_hang_keeps_races_leaks_and_task_failures() {
        let src = "count = 0\nh = open_handle(\"conn\")\n\
def bump():\n    global count\n    count = count + 1\n\
def bad():\n    raise ValueError(\"lost\")\n\
spawn(bad)\nt = spawn(bump)\nbump()\njoin(t)\nwhile True:\n    pass\n";
        let out = assert_proven(src);
        assert!(!out.races.is_empty());
        assert_eq!(out.leaks.len(), 1);
        assert_eq!(out.task_failures.len(), 1);
    }

    #[test]
    fn a_loop_that_exits_on_a_now_deadline_runs_to_its_end() {
        let out = assert_unproven(
            "while now() < 3000:\n    sleep(1)\nprint(\"done\")\n",
            200_000,
        );
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(out.output, "done\n");
    }

    #[test]
    fn a_two_task_spin_that_exits_under_one_interleaving_runs_to_its_end() {
        // The reader exits only when the scheduler picks it about ten
        // times in a row; the writer resets the streak whenever it runs.
        let src = "streak = 0\ndone = False\n\
def writer():\n    global streak\n    while done == False:\n        streak = 0\n\
def reader():\n    global streak\n    global done\n    while streak < 20:\n        streak = streak + 1\n    done = True\n\
for i in range(1400):\n    pass\n\
t1 = spawn(writer)\nt2 = spawn(reader)\njoin(t2)\njoin(t1)\nprint(\"exit\")\n";
        let out = assert_unproven(src, 200_000);
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(out.output, "exit\n");
    }

    #[test]
    fn a_loop_that_appends_runs_to_its_end() {
        let out = assert_unproven(
            "l = []\nwhile len(l) < 3000:\n    l.append(0)\nprint(len(l))\n",
            200_000,
        );
        assert_eq!(out.output, "3000\n");
    }

    #[test]
    fn a_loop_that_prints_runs_to_the_budget() {
        let out = assert_unproven("while True:\n    print(\"tick\")\n", 100_000);
        assert_eq!(out.status, RunStatus::Hung(HangKind::StepBudget));
        assert_eq!(out.steps, 100_000);
        assert!(out.output.lines().count() > 10_000);
    }

    #[test]
    fn a_two_task_spin_that_prints_runs_to_the_budget() {
        let src = "def tick():\n    while True:\n        print(\"tick\")\n        sleep(1)\n\
def idle():\n    while True:\n        sleep(1)\n\
t1 = spawn(tick)\nt2 = spawn(idle)\njoin(t1)\n";
        let out = assert_unproven(src, 100_000);
        assert_eq!(out.steps, 100_000);
        assert!(out.output.lines().count() > 1_000);
    }

    #[test]
    fn two_tasks_sleeping_fractional_or_whole_durations_run_to_the_budget() {
        for (a, b) in [("0.1", "0.3"), ("1", "3")] {
            let src = format!(
                "def a():\n    while True:\n        sleep({a})\n\
def b():\n    while True:\n        sleep({b})\n\
t1 = spawn(a)\nt2 = spawn(b)\njoin(t1)\n"
            );
            let out = assert_unproven(&src, 100_000);
            assert_eq!(out.status, RunStatus::Hung(HangKind::StepBudget));
            assert_eq!(out.steps, 100_000);
        }
    }

    #[test]
    fn a_loop_that_touches_an_address_keyed_race_entry_runs_to_the_budget() {
        // Once a second task has existed, `q[0]` updates the race
        // detector's entry for the list's address.
        let src = "q = [0]\ndef noop():\n    pass\njoin(spawn(noop))\nwhile True:\n    x = q[0]\n";
        let out = assert_unproven(src, 100_000);
        assert_eq!(out.steps, 100_000);
    }

    #[test]
    fn the_clock_replay_fails_once_a_sleep_would_round_away() {
        // A window of `sleep(1)` then its wake, every 10 steps, replayed
        // from a clock just below 2^53, where `clock + 1` starts to
        // round back to `clock` and the sleeper would be due at once.
        let mut m = Machine::new(config(1_000));
        m.clock = 2f64.powi(53) - 4.0;
        m.steps = 100;
        m.probe.snap_steps = 90;
        m.probe.events = vec![
            (
                3,
                ClockEvent::Sleep {
                    secs: 1.0,
                    due: false,
                },
            ),
            (5, ClockEvent::Wake),
        ];
        assert_eq!(m.replay_clock(), None);
        m.config.step_budget = 125;
        assert_eq!(m.replay_clock(), Some(2f64.powi(53) - 1.0));
    }

    /// A machine whose tasks sleep until the given deadlines (`None`:
    /// ready), with a one-state move memo: `sleepers` is the state's
    /// sleeper classes, and its one pick runs task 0 for 5 steps, which
    /// sleeps `secs` at step 3 and wakes the clock after it.
    fn memo_machine(
        deadlines: &[Option<f64>],
        sleepers: &[(TaskId, u64, u64)],
        secs: f64,
    ) -> Machine {
        let mut m = Machine::new(config(1_000));
        m.steps = 100;
        for (id, d) in deadlines.iter().enumerate() {
            let mut t = super::super::Task::dummy();
            t.id = id;
            t.status = match d {
                Some(wake_at) => TaskStatus::Blocked(Wait::Sleep { wake_at: *wake_at }),
                None => TaskStatus::Ready,
            };
            m.tasks.push(t);
        }
        let memo = &mut m.probe.memo;
        memo.sleepers.extend_from_slice(sleepers);
        memo.states.push(MemoState {
            words: 0..0,
            hash: 0,
            runnable: 1,
            moves: 0,
            sleepers: 0..sleepers.len(),
        });
        memo.moves_of.push(0);
        memo.events
            .push((3, ClockEvent::Sleep { secs, due: false }));
        memo.events.push((5, ClockEvent::Wake));
        memo.moves.push(Move {
            to: 0,
            task: 0,
            steps: 5,
            events: 0..2,
        });
        m
    }

    #[test]
    fn the_memo_replay_fails_once_a_sleep_would_round_away() {
        // Task 0 sleeps 1 and is woken, every 5 steps, from a clock just
        // below 2^53, where `clock + 1` starts to round back to `clock`:
        // the task would be due at once and the scheduler would not wake.
        let mut m = memo_machine(&[None], &[(0, 0, 0)], 1.0);
        m.clock = 2f64.powi(53) - 4.0;
        assert_eq!(m.replay_memo(0), None);
        m.config.step_budget = 122;
        assert_eq!(m.replay_memo(0), Some(2f64.powi(53)));
    }

    #[test]
    fn the_memo_replay_fails_once_a_deadline_classifies_differently() {
        // Task 0 sleeps 0.1 and is woken while task 1 sleeps until 0.3:
        // the state has task 1 pending, until the third wake sets the
        // clock to 0.1 + 0.1 + 0.1 > 0.3 and makes it due.
        let mut m = memo_machine(&[None, Some(0.3)], &[(0, 0, 0), (1, 1, 0)], 0.1);
        assert_eq!(m.replay_memo(0), None);
        m.config.step_budget = 110;
        assert_eq!(m.replay_memo(0), Some(0.1 + 0.1));
    }

    #[test]
    fn a_loop_that_only_exits_once_every_name_aliases_runs_to_its_end() {
        // At each decision after `sleep` the rows are equal by value
        // (all `[0]`); only how many of them alias `rows[0]` changes, and
        // the loop ends once all do.
        let src = "rows = []\nfor i in range(48):\n    rows.append([0])\n\
def alias_one():\n    rows[0][0] = 1\n    k = 0\n    while k < len(rows) and rows[k][0] == 1:\n        k = k + 1\n    rows[0][0] = 0\n    if k < len(rows):\n        rows[k] = rows[0]\n    return k < len(rows)\n\
while alias_one():\n    sleep(1)\nprint(\"aliased\")\n";
        let out = assert_unproven(src, 200_000);
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(out.output, "aliased\n");
    }

    fn encoding(src: &str) -> Vec<u64> {
        let mut m = Machine::new(MachineConfig::default());
        m.run_source(src).unwrap();
        let mut out = Vec::new();
        let (mut ids, mut objs) = (FastMap::default(), Vec::new());
        let mut enc = Encoder {
            words: Words::record(&mut out, usize::MAX),
            ids: &mut ids,
            objs: &mut objs,
        };
        encode(&m, &mut enc).unwrap();
        out
    }

    #[test]
    fn the_encoding_tells_aliasing_from_equal_values() {
        let aliased = encoding("a = [0]\nb = a\n");
        let equal = encoding("a = [0]\nb = [0]\n");
        let aliased_again = encoding("a = [1 - 1]\nb = a\n");
        assert_ne!(aliased, equal);
        assert_eq!(aliased, aliased_again, "object identity is up to bijection");
        assert_ne!(
            encoding("f = 0.0\n"),
            encoding("f = -0.0\n"),
            "floats by bits"
        );
    }
}
