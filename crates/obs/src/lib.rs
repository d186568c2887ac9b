//! # flexile-obs — zero-dependency structured telemetry
//!
//! The measurement substrate for the whole workspace: RAII timed [`span`]s
//! with key/value fields, monotonic [`add`] counters, and log-scale
//! [`observe`] histograms, buffered **per thread** and merged at [`drain`]
//! time. Exporters (in [`export`], also exposed as [`Telemetry`] methods)
//! produce a JSONL event stream, a Chrome `trace_event` file loadable in
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev), and a
//! human-readable summary table.
//!
//! ## Cost model
//!
//! Telemetry is **off by default**. Every public entry point first loads a
//! single relaxed [`AtomicBool`]; when disabled, nothing is formatted,
//! allocated or locked — a disabled [`span`] returns an empty guard whose
//! `Drop` is a no-op, and field values passed to a disabled builder are
//! only trivially converted (the `impl Into<Value>` conversions on integer
//! types are register moves). The tier-1 suites assert that solver output
//! with the sink disabled is bit-identical to an instrumented run, which
//! holds by construction: instrumentation only ever *reads* solver state.
//!
//! When enabled, the hot path appends to a thread-local buffer behind an
//! uncontended `Mutex` (locked by another thread only during [`drain`]),
//! so worker threads never serialize against each other while recording.
//! Buffers of exited threads survive until the next drain, which merges
//! and retires them — scoped worker pools (the decomposition's subproblem
//! threads) lose nothing.
//!
//! ```
//! flexile_obs::enable();
//! {
//!     let mut s = flexile_obs::span("demo.work", "demo").field("size", 3u64);
//!     flexile_obs::add("demo.items", 3);
//!     flexile_obs::observe("demo.latency_us", 125.0);
//!     s.set("outcome", "ok");
//! }
//! let t = flexile_obs::drain();
//! flexile_obs::disable();
//! assert_eq!(t.counters["demo.items"], 3);
//! assert!(t.to_chrome_trace().contains("\"demo.work\""));
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod hist;

pub use hist::LogHistogram;

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ANCHOR: OnceLock<Instant> = OnceLock::new();
static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<ThreadBuf>>>>> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Whether the global sink is enabled. A single relaxed atomic load — this
/// is the "is telemetry on" check that gates every recording path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the global sink on. Timestamps are microseconds since the first
/// `enable()` (or the first recorded event) of the process.
pub fn enable() {
    let _ = anchor();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the global sink off. Already-buffered data stays until [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

fn anchor() -> Instant {
    *ANCHOR.get_or_init(Instant::now)
}

pub(crate) fn now() -> u64 {
    anchor().elapsed().as_micros() as u64
}

fn now_us() -> u64 {
    now()
}

/// A telemetry field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Kind of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A timed span (has a duration).
    Span,
    /// A point-in-time event.
    Instant,
}

/// One recorded telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name, e.g. `"lp.solve"`.
    pub name: &'static str,
    /// Category (the subsystem), e.g. `"lp"`.
    pub cat: &'static str,
    /// Start timestamp, microseconds since the process anchor.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Span or instant.
    pub kind: EventKind,
    /// Recording thread's telemetry id (dense, assigned at first use).
    pub tid: u64,
    /// Key/value payload.
    pub fields: Vec<(&'static str, Value)>,
}

#[derive(Default)]
struct ThreadBuf {
    events: Vec<Event>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, LogHistogram>,
    /// Flight-recorder ring: the last N events of this thread, *not*
    /// cleared by [`drain`] — the thread's black box (see [`flight`]).
    flight: VecDeque<Event>,
}

/// Append `ev` to a thread buffer: the single chokepoint every recorded
/// event goes through. Maintains the flight-recorder ring, then lands the
/// event in the drain buffer.
fn push_event(b: &mut ThreadBuf, ev: Event) {
    let cap = flight::capacity();
    if cap > 0 {
        while b.flight.len() >= cap {
            b.flight.pop_front();
        }
        b.flight.push_back(ev.clone());
    }
    b.events.push(ev);
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<ThreadBuf>>>> {
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: (u64, Arc<Mutex<ThreadBuf>>) = {
        let buf = Arc::new(Mutex::new(ThreadBuf::default()));
        // Recover a poisoned registry instead of double-panicking: a thread
        // that panicked mid-registration leaves the Vec intact (push is the
        // only mutation), so telemetry keeps working after contained panics.
        registry().lock().unwrap_or_else(PoisonError::into_inner).push(buf.clone());
        (NEXT_TID.fetch_add(1, Ordering::Relaxed), buf)
    };
}

fn with_buf(f: impl FnOnce(u64, &mut ThreadBuf)) {
    LOCAL.with(|(tid, buf)| f(*tid, &mut buf.lock().unwrap_or_else(PoisonError::into_inner)));
}

/// RAII guard for a timed span. Created by [`span`]; records a
/// [`EventKind::Span`] event covering its lifetime when dropped. When the
/// sink is disabled the guard is empty and everything is a no-op.
#[must_use = "a span measures its guard's lifetime; bind it to a variable"]
pub struct Span(Option<SpanInner>);

struct SpanInner {
    name: &'static str,
    cat: &'static str,
    start_us: u64,
    fields: Vec<(&'static str, Value)>,
}

/// Start a timed span. Drop the returned guard to record it.
pub fn span(name: &'static str, cat: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    Span(Some(SpanInner { name, cat, start_us: now_us(), fields: Vec::new() }))
}

impl Span {
    /// Attach a field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }

    /// Attach a field to an already-bound span (e.g. a result computed
    /// just before the span closes).
    pub fn set(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(inner) = &mut self.0 {
            inner.fields.push((key, value.into()));
        }
    }

    /// Microseconds elapsed since the span started (0 when disabled).
    pub fn elapsed_us(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| now_us().saturating_sub(i.start_us))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            let dur_us = now_us().saturating_sub(inner.start_us);
            with_buf(|tid, b| {
                push_event(
                    b,
                    Event {
                        name: inner.name,
                        cat: inner.cat,
                        ts_us: inner.start_us,
                        dur_us,
                        kind: EventKind::Span,
                        tid,
                        fields: inner.fields,
                    },
                )
            });
        }
    }
}

/// Builder for a point-in-time event. Created by [`event`]; records on
/// drop (discarding the builder as a statement is the normal usage).
/// Empty (no-op) when the sink is disabled.
pub struct EventBuilder(Option<SpanInner>);

/// Start building an instant event; it is recorded when the builder drops.
pub fn event(name: &'static str, cat: &'static str) -> EventBuilder {
    if !enabled() {
        return EventBuilder(None);
    }
    EventBuilder(Some(SpanInner { name, cat, start_us: now_us(), fields: Vec::new() }))
}

impl EventBuilder {
    /// Attach a field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if let Some(inner) = &mut self.0 {
            inner.fields.push((key, value.into()));
        }
        self
    }
}

impl Drop for EventBuilder {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            with_buf(|tid, b| {
                push_event(
                    b,
                    Event {
                        name: inner.name,
                        cat: inner.cat,
                        ts_us: inner.start_us,
                        dur_us: 0,
                        kind: EventKind::Instant,
                        tid,
                        fields: inner.fields,
                    },
                )
            });
        }
    }
}

/// Add `delta` to the named monotonic counter.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    with_buf(|_, b| *b.counters.entry(name).or_insert(0) += delta);
}

/// Record one observation into the named log-scale histogram.
#[inline]
pub fn observe(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_buf(|_, b| b.hists.entry(name).or_default().record(value));
}

/// A merged snapshot of everything recorded since the last drain.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// All span/instant events, sorted by start timestamp.
    pub events: Vec<Event>,
    /// Merged counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Merged histograms.
    pub hists: BTreeMap<&'static str, LogHistogram>,
}

impl Telemetry {
    /// JSONL export — one JSON object per line (see [`export::to_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        export::to_jsonl(self)
    }

    /// Chrome `trace_event` export (see [`export::to_chrome_trace`]).
    pub fn to_chrome_trace(&self) -> String {
        export::to_chrome_trace(self)
    }

    /// Human-readable summary table (see [`export::summary`]).
    pub fn summary(&self) -> String {
        export::summary(self)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.counters.is_empty() && self.hists.is_empty()
    }

    /// Events with the given name, in timestamp order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.name == name)
    }
}

impl Event {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Numeric view of a field (`U64`/`I64`/`F64`), if present.
    pub fn num_field(&self, key: &str) -> Option<f64> {
        match self.field(key)? {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }
}

/// Merge every thread's buffer into one [`Telemetry`] snapshot and clear
/// the buffers. Buffers belonging to threads that have exited are retired
/// after their contents are collected. Safe to call with the sink enabled
/// or disabled; recording continues into fresh buffers afterwards.
pub fn drain() -> Telemetry {
    let mut t = Telemetry::default();
    // A worker that panicked while holding its buffer (or the registry)
    // poisons the mutex but leaves the data structurally sound — every
    // mutation is an append or a whole-value replace. Recover the inner
    // value so one contained panic doesn't take telemetry down with it.
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.retain(|buf| {
        let mut b = buf.lock().unwrap_or_else(PoisonError::into_inner);
        t.events.append(&mut b.events);
        for (k, v) in std::mem::take(&mut b.counters) {
            *t.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in std::mem::take(&mut b.hists) {
            t.hists.entry(k).or_default().merge(&h);
        }
        // Keep only buffers whose owning thread is still alive (the TLS
        // slot holds one Arc; ours is the other).
        Arc::strong_count(buf) > 1
    });
    drop(reg);
    t.events.sort_by_key(|e| (e.ts_us, e.tid));
    t
}

/// Walk every live thread's flight-recorder ring (see [`flight`]),
/// returning the merged last-N-events-per-thread, sorted by timestamp.
/// Non-destructive; independent of [`drain`].
pub(crate) fn flight_events() -> Vec<Event> {
    let mut out = Vec::new();
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    for buf in reg.iter() {
        let b = buf.lock().unwrap_or_else(PoisonError::into_inner);
        out.extend(b.flight.iter().cloned());
    }
    drop(reg);
    out.sort_by_key(|e| (e.ts_us, e.tid));
    out
}
