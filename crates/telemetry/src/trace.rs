//! Trace spans: per-job span trees with monotonic clocks, a
//! thread-local context for implicit parenting, and the context-string
//! / span-line protocol that carries spans across the `nfi worker`
//! process boundary.
//!
//! A [`Trace`] is minted at the serving edge (`POST /v1/campaigns`) or
//! by `nfi campaign run --trace`, handed to whichever thread works the
//! job via [`push_context`], and filled by [`Span`] guards as the
//! orchestrator moves through its phases. A worker's lease carries the
//! context string `<trace>:<parent-span>` ([`Trace::context_string`]);
//! the worker echoes its own spans back as `NFI-SPAN {...}` lines in
//! its result, which the daemon re-anchors under the assignment's span
//! — so one tree covers accept → queue wait → plan → replay/execute
//! (with per-assignment worker spans) → merge → persist.

use crate::json::JsonBuf;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span records retained per trace; later spans count as dropped.
pub const MAX_SPANS: usize = 512;

/// Prefix of the lines a worker echoes its spans on.
pub const SPAN_LINE_PREFIX: &str = "NFI-SPAN ";

/// A 64-bit trace identifier, rendered as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Mints a fresh id: wall-clock nanoseconds, pid, and a process
    /// counter folded through FNV-1a — unique enough for correlating
    /// logs, with no RNG dependency.
    pub fn mint() -> TraceId {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let mut h = 0xcbf29ce484222325u64;
        for word in [
            nanos,
            u64::from(std::process::id()),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        ] {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        // Never zero: zero is the "no trace" sentinel in the env format.
        TraceId(h.max(1))
    }

    /// Parses 16 hex digits (the [`fmt::Display`] form).
    pub fn parse(s: &str) -> Option<TraceId> {
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One finished span. `parent == 0` marks a root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within its trace (> 0).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Phase/operation name.
    pub name: String,
    /// Start offset from the trace epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

#[derive(Debug, Default)]
struct TraceInner {
    spans: Vec<SpanRecord>,
    dropped: u64,
    next_span: u64,
}

/// A bounded collection of spans sharing one monotonic epoch.
#[derive(Debug)]
pub struct Trace {
    id: TraceId,
    epoch: Instant,
    inner: Mutex<TraceInner>,
}

impl Trace {
    /// A new empty trace with the given id; the epoch is now.
    pub fn new(id: TraceId) -> Arc<Trace> {
        Arc::new(Trace {
            id,
            epoch: Instant::now(),
            inner: Mutex::new(TraceInner::default()),
        })
    }

    /// The trace id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Microseconds since the trace epoch.
    pub fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Allocates the next span id (> 0).
    pub fn alloc_span(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.next_span += 1;
        inner.next_span
    }

    /// Appends a finished span; past [`MAX_SPANS`] it only counts the
    /// drop (the ring stays bounded however pathological a job gets).
    pub fn record(&self, rec: SpanRecord) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Imported child spans carry ids allocated elsewhere; keep the
        // allocator ahead of everything recorded.
        if rec.id > inner.next_span {
            inner.next_span = rec.id;
        }
        if inner.spans.len() < MAX_SPANS {
            inner.spans.push(rec);
        } else {
            inner.dropped += 1;
        }
    }

    /// All finished spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .spans
            .clone()
    }

    /// Spans dropped past the ring bound.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// Imports a worker process's span, re-anchored: ids are offset to
    /// stay unique in this trace, the worker's root spans (parent 0)
    /// are attached under `parent`, and start offsets shift by
    /// `epoch_offset_us` (the assignment's dispatch time relative to
    /// this trace's epoch).
    pub fn import_child(&self, rec: &SpanRecord, parent: u64, id_base: u64, epoch_offset_us: u64) {
        self.record(SpanRecord {
            id: id_base + rec.id,
            parent: if rec.parent == 0 {
                parent
            } else {
                id_base + rec.parent
            },
            name: rec.name.clone(),
            start_us: epoch_offset_us + rec.start_us,
            dur_us: rec.dur_us,
        });
    }

    /// Reserves an id range for [`Trace::import_child`]: returns a
    /// base strictly above every id allocated so far, and bumps the
    /// allocator past `width` ids.
    pub fn reserve_ids(&self, width: u64) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let base = inner.next_span;
        inner.next_span += width;
        base
    }

    /// Renders the span tree as JSON into `j` as two members of the
    /// current object: `"trace_id"` and `"spans"` (roots with nested
    /// `"children"`, durations in microseconds), plus `"spans_dropped"`
    /// when the ring overflowed.
    pub fn render_into(&self, j: &mut JsonBuf) {
        let spans = self.spans();
        j.field_str("trace_id", &self.id.to_string());
        let dropped = self.dropped();
        if dropped > 0 {
            j.field_u64("spans_dropped", dropped);
        }
        j.key("spans").begin_arr();
        // Roots in start order; children nested under each.
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| (spans[i].start_us, spans[i].id));
        let known: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
        for &i in &order {
            // A span whose parent was dropped renders as a root rather
            // than vanishing.
            if spans[i].parent == 0 || !known.contains(&spans[i].parent) {
                render_span(j, &spans, &order, i);
            }
        }
        j.end_arr();
    }

    /// The context string handing `parent` to a worker process.
    pub fn context_string(&self, parent: u64) -> String {
        format!("{}:{:x}", self.id, parent)
    }

    /// Writes every span as an `NFI-SPAN {...}` line (the worker half
    /// of the cross-process protocol).
    pub fn emit_spans<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        for s in self.spans() {
            writeln!(
                out,
                "{SPAN_LINE_PREFIX}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
                s.id,
                s.parent,
                crate::json::escape(&s.name),
                s.start_us,
                s.dur_us
            )?;
        }
        Ok(())
    }
}

fn render_span(j: &mut JsonBuf, spans: &[SpanRecord], order: &[usize], at: usize) {
    let s = &spans[at];
    j.begin_obj();
    j.field_u64("id", s.id)
        .field_str("name", &s.name)
        .field_u64("start_us", s.start_us)
        .field_u64("dur_us", s.dur_us);
    let children: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&i| i != at && spans[i].parent == s.id)
        .collect();
    if !children.is_empty() {
        j.key("children").begin_arr();
        for c in children {
            render_span(j, spans, order, c);
        }
        j.end_arr();
    }
    j.end_obj();
}

/// Parses a context string: `<trace-hex>:<parent-span-hex>`.
pub fn parse_context_string(value: &str) -> Option<(TraceId, u64)> {
    let (trace, parent) = value.split_once(':')?;
    Some((
        TraceId::parse(trace)?,
        u64::from_str_radix(parent, 16).ok()?,
    ))
}

/// Parses one worker output line; `None` when it isn't a span line.
pub fn parse_span_line(line: &str) -> Option<SpanRecord> {
    let body = line.strip_prefix(SPAN_LINE_PREFIX)?;
    let field_u64 = |name: &str| -> Option<u64> {
        let at = body.find(&format!("\"{name}\":"))? + name.len() + 3;
        let digits: String = body[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    };
    let name_at = body.find("\"name\":\"")? + 8;
    let name_end = name_at + body[name_at..].find('"')?;
    Some(SpanRecord {
        id: field_u64("id")?,
        parent: field_u64("parent")?,
        // Span names are static identifiers in our own code; the
        // unescape-free read is fine for everything we emit.
        name: body[name_at..name_end].to_string(),
        start_us: field_u64("start_us")?,
        dur_us: field_u64("dur_us")?,
    })
}

thread_local! {
    /// The innermost (trace, span) this thread is working under.
    static CONTEXT: RefCell<Vec<(Arc<Trace>, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Makes `(trace, parent)` the current context for this thread until
/// the guard drops. Worker threads call this with a context captured
/// on the dispatching thread via [`current_context`].
pub fn push_context(trace: Arc<Trace>, parent: u64) -> ContextGuard {
    CONTEXT.with(|c| c.borrow_mut().push((trace, parent)));
    ContextGuard { popped: false }
}

/// The current (trace, innermost span id) of this thread, if any.
pub fn current_context() -> Option<(Arc<Trace>, u64)> {
    CONTEXT.with(|c| c.borrow().last().cloned())
}

/// Pops its context entry on drop.
#[derive(Debug)]
pub struct ContextGuard {
    popped: bool,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if !self.popped {
            CONTEXT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
}

/// A live span guard: starts on creation, records into the current
/// trace (if any) and an optional histogram on drop. While alive it is
/// the thread's innermost span, so nested spans parent to it.
#[derive(Debug)]
pub struct Span {
    trace: Option<(Arc<Trace>, u64, u64)>, // (trace, own id, start_us)
    started: Instant,
    name: &'static str,
    hist: Option<&'static crate::AtomicHistogram>,
}

impl Span {
    /// Opens a span named `name` under the current context.
    pub fn enter(name: &'static str) -> Span {
        Span::enter_with(name, None)
    }

    /// Opens a span that additionally records its duration into
    /// `hist` on drop (histograms record whether or not a trace is
    /// current — phase latencies aggregate across all jobs).
    pub fn enter_with(name: &'static str, hist: Option<&'static crate::AtomicHistogram>) -> Span {
        let trace = current_context().map(|(trace, _parent)| {
            let id = trace.alloc_span();
            let start_us = trace.elapsed_us();
            CONTEXT.with(|c| c.borrow_mut().push((trace.clone(), id)));
            (trace, id, start_us)
        });
        Span {
            trace,
            started: Instant::now(),
            name,
            hist,
        }
    }

    /// The span's id within its trace (0 when no trace is current).
    pub fn id(&self) -> u64 {
        self.trace.as_ref().map(|(_, id, _)| *id).unwrap_or(0)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = self.started.elapsed();
        if let Some(h) = self.hist {
            h.record(dur);
        }
        if let Some((trace, id, start_us)) = self.trace.take() {
            CONTEXT.with(|c| {
                c.borrow_mut().pop();
            });
            let parent = current_context().map(|(_, p)| p).unwrap_or(0);
            trace.record(SpanRecord {
                id,
                parent,
                name: self.name.to_string(),
                start_us,
                dur_us: dur.as_micros().min(u128::from(u64::MAX)) as u64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_mint_unique_and_round_trip() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        let text = a.to_string();
        assert_eq!(text.len(), 16);
        assert_eq!(TraceId::parse(&text), Some(a));
    }

    #[test]
    fn spans_nest_under_the_thread_context() {
        let trace = Trace::new(TraceId::mint());
        {
            let _ctx = push_context(trace.clone(), 0);
            let outer = Span::enter("outer");
            let outer_id = outer.id();
            assert!(outer_id > 0);
            {
                let inner = Span::enter("inner");
                assert_ne!(inner.id(), outer_id);
            }
            drop(outer);
        }
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id, "inner must nest under outer");
        assert_eq!(outer.parent, 0);
        assert!(current_context().is_none(), "context must pop with guard");
    }

    #[test]
    fn spans_without_context_record_nothing_but_histograms() {
        let hist: &'static crate::AtomicHistogram =
            Box::leak(Box::new(crate::AtomicHistogram::new()));
        {
            let s = Span::enter_with("free", Some(hist));
            assert_eq!(s.id(), 0);
        }
        assert_eq!(hist.snapshot().count, 1);
    }

    #[test]
    fn ring_bound_counts_drops() {
        let trace = Trace::new(TraceId::mint());
        for i in 0..(MAX_SPANS as u64 + 10) {
            trace.record(SpanRecord {
                id: i + 1,
                parent: 0,
                name: "s".into(),
                start_us: i,
                dur_us: 1,
            });
        }
        assert_eq!(trace.spans().len(), MAX_SPANS);
        assert_eq!(trace.dropped(), 10);
    }

    #[test]
    fn context_strings_and_span_lines_round_trip() {
        let trace = Trace::new(TraceId::mint());
        let context = trace.context_string(7);
        let (id, parent) = parse_context_string(&context).unwrap();
        assert_eq!(id, trace.id());
        assert_eq!(parent, 7);
        assert!(parse_context_string("garbage").is_none());

        trace.record(SpanRecord {
            id: 1,
            parent: 0,
            name: "exec".into(),
            start_us: 42,
            dur_us: 1000,
        });
        let mut buf = Vec::new();
        trace.emit_spans(&mut buf).unwrap();
        let line = String::from_utf8(buf).unwrap();
        let rec = parse_span_line(line.trim()).unwrap();
        assert_eq!(
            rec,
            SpanRecord {
                id: 1,
                parent: 0,
                name: "exec".into(),
                start_us: 42,
                dur_us: 1000
            }
        );
        assert!(parse_span_line("plain stderr chatter").is_none());
    }

    #[test]
    fn child_import_re_anchors_ids_and_offsets() {
        let parent_trace = Trace::new(TraceId::mint());
        let _ctx = push_context(parent_trace.clone(), 0);
        let execute = Span::enter("execute");
        let exec_id = execute.id();
        let child = SpanRecord {
            id: 1,
            parent: 0,
            name: "child_exec".into(),
            start_us: 5,
            dur_us: 50,
        };
        let base = parent_trace.reserve_ids(2);
        parent_trace.import_child(&child, exec_id, base, 1000);
        drop(execute);

        let spans = parent_trace.spans();
        let imported = spans.iter().find(|s| s.name == "child_exec").unwrap();
        assert_eq!(imported.parent, exec_id, "child roots nest under execute");
        assert_eq!(imported.start_us, 1005);
        assert!(imported.id > exec_id);
        // A later span must not collide with the imported id range.
        let later = Span::enter("later");
        assert!(later.id() > imported.id);
    }

    #[test]
    fn render_nests_children_in_json() {
        let trace = Trace::new(TraceId::mint());
        let _ctx = push_context(trace.clone(), 0);
        {
            let _run = Span::enter("run");
            let _plan = Span::enter("plan");
        }
        let mut j = JsonBuf::new();
        j.begin_obj();
        trace.render_into(&mut j);
        j.end_obj();
        let doc = j.finish();
        assert!(doc.contains("\"trace_id\":\""), "{doc}");
        let run_at = doc.find("\"name\":\"run\"").unwrap();
        let children_at = doc.find("\"children\":[").unwrap();
        let plan_at = doc.find("\"name\":\"plan\"").unwrap();
        assert!(run_at < children_at && children_at < plan_at, "{doc}");
    }
}
