//! Trace contexts: the one span API. A [`TraceCtx`] is an explicit,
//! cloneable span sink that crosses thread boundaries.
//!
//! A context wraps an `Arc`-shared buffer that travels *with* the work
//! (into fleet jobs, across scoped threads), so a span tree can be
//! reassembled at join no matter which worker executed which job. etpnd
//! gives every request its own root; the one process-wide context is the
//! **profile root** that [`crate::set_level`]`(Level::Trace)` installs
//! (the CLI's `--profile`), which [`crate::span`], [`crate::span_arg`]
//! and [`crate::sample`] record under and [`crate::take_profile`] hands
//! back. Either way a finished trace renders through one Chrome writer,
//! [`FinishedTrace::chrome_json`].
//!
//! A disabled context ([`TraceCtx::disabled`]) is a `None` all the way
//! down, so the tracing-off path costs one branch per span site.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A 128-bit request trace identifier, rendered as 32 lowercase hex
/// digits (the W3C `trace-id` shape).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceId(pub u128);

impl TraceId {
    /// Generate a fresh id. Mixes wall-clock nanoseconds, the process id
    /// and a process-wide counter through SplitMix64 — not
    /// cryptographically random, but collision-free within a process and
    /// overwhelmingly unlikely to collide across restarts, which is all a
    /// debugging handle needs.
    pub fn generate() -> TraceId {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let hi = splitmix64(nanos ^ (u64::from(std::process::id()) << 32));
        let lo = splitmix64(hi ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        TraceId(((hi as u128) << 64) | lo as u128)
    }

    /// Parse a hex trace id (1–32 hex digits, case-insensitive). Returns
    /// `None` for anything else, including the all-zero id.
    pub fn parse(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.is_empty() || s.len() > 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        match u128::from_str_radix(s, 16) {
            Ok(0) | Err(_) => None,
            Ok(v) => Some(TraceId(v)),
        }
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The calling thread's process-unique span tid, assigned from 1 in the
/// order threads first ask for one.
pub fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One finished span inside a request trace. `parent == 0` marks a root.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Span id, unique within the trace (assigned from 1).
    pub id: u64,
    /// Parent span id, `0` for roots.
    pub parent: u64,
    /// Static span name, dot-separated.
    pub name: &'static str,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Thread that executed the span ([`current_tid`]).
    pub tid: u64,
    /// Optional single argument.
    pub arg: Option<(&'static str, i64)>,
}

/// One timestamped counter sample inside a trace (a Chrome `ph:"C"`
/// point), for value-over-time series such as the optimiser cost curve.
#[derive(Clone, Debug)]
pub struct SampleRec {
    /// Series name.
    pub name: &'static str,
    /// Thread that recorded the sample ([`current_tid`]).
    pub tid: u64,
    /// Offset from the trace epoch, nanoseconds.
    pub at_ns: u64,
    /// Sampled value.
    pub value: i64,
}

#[derive(Debug)]
struct TraceInner {
    trace_id: TraceId,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    samples: Mutex<Vec<SampleRec>>,
}

impl TraceInner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, rec: SpanRec) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(rec);
    }
}

/// A cloneable handle into one request's span buffer, carrying the parent
/// span id under which new spans attach. Cheap to clone (`Arc` bump);
/// hand clones to fleet jobs or scoped threads and their spans land in the
/// same tree.
#[derive(Clone, Debug)]
pub struct TraceCtx {
    inner: Option<Arc<TraceInner>>,
    parent: u64,
}

impl TraceCtx {
    /// A fresh trace whose epoch is `now`.
    pub fn root(trace_id: TraceId) -> TraceCtx {
        Self::root_at(trace_id, Instant::now())
    }

    /// A fresh trace timed against an explicit epoch — use the admission
    /// instant so queue wait preceding the handler shows at offset zero.
    pub fn root_at(trace_id: TraceId, epoch: Instant) -> TraceCtx {
        TraceCtx {
            inner: Some(Arc::new(TraceInner {
                trace_id,
                epoch,
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                samples: Mutex::new(Vec::new()),
            })),
            parent: 0,
        }
    }

    /// The no-op context: every span call is a single branch.
    pub fn disabled() -> TraceCtx {
        TraceCtx {
            inner: None,
            parent: 0,
        }
    }

    /// True when spans are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id, when enabled.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.inner.as_ref().map(|i| i.trace_id)
    }

    /// Open a span as a child of this context's parent. Records on drop.
    pub fn span(&self, name: &'static str) -> TraceSpan {
        self.span_arg_opt(name, None)
    }

    /// [`TraceCtx::span`] with one argument attached.
    pub fn span_arg(&self, name: &'static str, key: &'static str, value: i64) -> TraceSpan {
        self.span_arg_opt(name, Some((key, value)))
    }

    pub(crate) fn span_arg_opt(
        &self,
        name: &'static str,
        arg: Option<(&'static str, i64)>,
    ) -> TraceSpan {
        let Some(inner) = &self.inner else {
            return TraceSpan::disabled();
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        TraceSpan {
            live: Some(LiveSpan {
                inner: Arc::clone(inner),
                id,
                parent: self.parent,
                name,
                start_ns: inner.now_ns(),
                arg,
            }),
        }
    }

    /// Record a span with explicit start/end instants (clamped to the
    /// trace epoch) — for intervals measured before the context existed,
    /// such as queue wait.
    pub fn record_between(&self, name: &'static str, start: Instant, end: Instant) {
        let Some(inner) = &self.inner else { return };
        let start_ns = start
            .checked_duration_since(inner.epoch)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        inner.push(SpanRec {
            id,
            parent: self.parent,
            name,
            start_ns,
            dur_ns,
            tid: current_tid(),
            arg: None,
        });
    }

    /// Record a timestamped counter sample into this trace.
    pub fn sample(&self, name: &'static str, value: i64) {
        let Some(inner) = &self.inner else { return };
        let at_ns = inner.now_ns();
        inner
            .samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(SampleRec {
                name,
                tid: current_tid(),
                at_ns,
                value,
            });
    }

    /// Snapshot the trace into an exportable form. Callable while clones
    /// still exist; spans recorded afterwards are simply not included.
    pub fn finish(&self) -> Option<FinishedTrace> {
        let inner = self.inner.as_ref()?;
        let spans = inner
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let samples = inner
            .samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let total_ns = spans
            .iter()
            .map(|s| s.start_ns + s.dur_ns)
            .max()
            .unwrap_or(0);
        Some(FinishedTrace {
            trace_id: inner.trace_id,
            spans,
            samples,
            total_ns,
        })
    }
}

/// An in-flight request span; records into the trace buffer on drop.
#[must_use = "a span measures the scope it is alive in"]
#[derive(Debug)]
pub struct TraceSpan {
    live: Option<LiveSpan>,
}

#[derive(Debug)]
struct LiveSpan {
    inner: Arc<TraceInner>,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    arg: Option<(&'static str, i64)>,
}

impl TraceSpan {
    /// A guard that records nothing.
    pub(crate) fn disabled() -> TraceSpan {
        TraceSpan { live: None }
    }

    /// A context whose spans become children of *this* span — pass it
    /// into work spawned under the span (fleet jobs, scoped threads).
    pub fn ctx(&self) -> TraceCtx {
        match &self.live {
            Some(l) => TraceCtx {
                inner: Some(Arc::clone(&l.inner)),
                parent: l.id,
            },
            None => TraceCtx::disabled(),
        }
    }

    /// Attach (or replace) the span's argument.
    pub fn set_arg(&mut self, key: &'static str, value: i64) {
        if let Some(l) = self.live.as_mut() {
            l.arg = Some((key, value));
        }
    }
}

impl Drop for TraceSpan {
    // Inlined so a disabled guard costs its callers one `None` check; the
    // recording half stays out of line.
    #[inline]
    fn drop(&mut self) {
        if let Some(l) = self.live.take() {
            l.record();
        }
    }
}

impl LiveSpan {
    #[inline(never)]
    fn record(self) {
        let end_ns = self.inner.now_ns();
        self.inner.push(SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            dur_ns: end_ns.saturating_sub(self.start_ns),
            tid: current_tid(),
            arg: self.arg,
        });
    }
}

/// A completed trace: the id, every recorded span and sample, and the
/// latest span end seen (an upper bound on the traced wall time).
#[derive(Clone, Debug)]
pub struct FinishedTrace {
    /// The trace id.
    pub trace_id: TraceId,
    /// Recorded spans, in completion order.
    pub spans: Vec<SpanRec>,
    /// Recorded counter samples, in recording order.
    pub samples: Vec<SampleRec>,
    /// `max(start_ns + dur_ns)` over all spans.
    pub total_ns: u64,
}

impl FinishedTrace {
    /// Spans named `name`.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRec> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Render the trace as Chrome `trace_event` JSON, the JSON Object
    /// Format understood by `chrome://tracing` and
    /// [Perfetto](https://ui.perfetto.dev): a `process_name` and one
    /// `thread_name` metadata event per thread, a complete (`"ph":"X"`)
    /// event per span and a counter (`"ph":"C"`) event per sample.
    /// Timestamps are integer microseconds from the trace epoch —
    /// integers keep the document inside the workspace's own float-free
    /// JSON dialect, so `etpn_core::json` parses it. Every span carries its
    /// `span`/`parent` ids and exact `ns` duration in `args`, so tools —
    /// and tests — can reconstruct the tree exactly.
    pub fn chrome_json(&self) -> String {
        use std::fmt::Write;
        let cat = |name: &'static str| name.split('.').next().unwrap_or("misc");
        let mut out = String::with_capacity(4096 + 160 * (self.spans.len() + self.samples.len()));
        out.push_str(
            "{\n\"traceEvents\": [\n{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
             \"tid\": 0, \"args\": {\"name\": \"etpn\"}}",
        );
        // One thread_name metadata event per distinct tid, so Perfetto
        // labels the tracks instead of showing bare thread numbers.
        let mut tids: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.tid)
            .chain(self.samples.iter().map(|c| c.tid))
            .collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let _ = write!(
                out,
                ",\n{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"etpn-{tid}\"}}}}"
            );
        }
        for s in &self.spans {
            let _ = write!(
                out,
                ",\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"span\": {}, \
                 \"parent\": {}, \"ns\": {}",
                s.name,
                cat(s.name),
                s.tid,
                s.start_ns / 1_000,
                s.dur_ns / 1_000,
                s.id,
                s.parent,
                s.dur_ns,
            );
            if let Some((k, v)) = s.arg {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}}");
        }
        for c in &self.samples {
            let _ = write!(
                out,
                ",\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"C\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {}, \"args\": {{\"value\": {}}}}}",
                c.name,
                cat(c.name),
                c.tid,
                c.at_ns / 1_000,
                c.value,
            );
        }
        let _ = write!(
            out,
            "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {{\"generator\": \"etpn-obs\", \
             \"trace_id\": \"{}\", \"total_ns\": {}}}\n}}\n",
            self.trace_id, self.total_ns
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_round_trips_and_rejects_junk() {
        let id = TraceId::generate();
        assert_eq!(TraceId::parse(&id.to_string()), Some(id));
        assert_eq!(id.to_string().len(), 32);
        assert_eq!(TraceId::parse(""), None);
        assert_eq!(TraceId::parse("xyz"), None);
        assert_eq!(TraceId::parse(&"f".repeat(33)), None);
        assert_eq!(TraceId::parse("0"), None, "all-zero id is reserved");
        assert_eq!(TraceId::parse("aB3"), Some(TraceId(0xab3)));
    }

    #[test]
    fn generated_ids_are_distinct() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a, b);
    }

    #[test]
    fn span_tree_reassembles_across_threads() {
        let ctx = TraceCtx::root(TraceId::generate());
        let parent_id;
        {
            let verb = ctx.span("verb.check");
            let job_ctx = verb.ctx();
            parent_id = match &verb.live {
                Some(l) => l.id,
                None => unreachable!(),
            };
            std::thread::scope(|scope| {
                for j in 0..4 {
                    let jc = job_ctx.clone();
                    scope.spawn(move || {
                        let _s = jc.span_arg("fleet.job", "job", j);
                    });
                }
            });
        }
        let done = ctx.finish().unwrap();
        let jobs = done.spans_named("fleet.job");
        assert_eq!(jobs.len(), 4);
        for j in &jobs {
            assert_eq!(j.parent, parent_id, "jobs parent under the verb span");
        }
        assert_eq!(done.spans_named("verb.check").len(), 1);
        let json = done.chrome_json();
        assert!(json.contains(&done.trace_id.to_string()));
        assert_eq!(json.matches("\"fleet.job\"").count(), 4);
    }

    #[test]
    fn disabled_ctx_records_nothing() {
        let ctx = TraceCtx::disabled();
        let _s = ctx.span("x");
        assert!(!ctx.is_enabled());
        assert!(ctx.finish().is_none());
        assert!(ctx.trace_id().is_none());
    }

    fn seeded_trace() -> FinishedTrace {
        FinishedTrace {
            trace_id: TraceId(0xabc),
            spans: vec![SpanRec {
                id: 1,
                parent: 0,
                name: "sim.run",
                start_ns: 2_000,
                dur_ns: 5_000,
                tid: 3,
                arg: Some(("steps", 12)),
            }],
            samples: vec![SampleRec {
                name: "opt.cost",
                tid: 3,
                at_ns: 4_000,
                value: 77,
            }],
            total_ns: 7_000,
        }
    }

    #[test]
    fn chrome_trace_contains_span_and_counter_events() {
        let t = seeded_trace().chrome_json();
        assert!(t.contains("\"traceEvents\""));
        assert!(t.contains("\"name\": \"sim.run\""));
        assert!(t.contains("\"ph\": \"X\""));
        assert!(t.contains("\"ph\": \"C\""));
        assert!(t.contains("\"steps\": 12"));
        assert!(t.contains("\"cat\": \"sim\""));
    }

    #[test]
    fn chrome_trace_labels_every_thread_track() {
        let t = seeded_trace().chrome_json();
        assert!(t.contains("\"name\": \"process_name\""), "{t}");
        assert!(t.contains("\"name\": \"thread_name\""), "{t}");
        assert!(t.contains("\"name\": \"etpn-3\""), "{t}");
    }

    #[test]
    fn record_between_clamps_to_epoch() {
        let early = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let ctx = TraceCtx::root(TraceId::generate());
        // `early` predates the epoch: start clamps to 0, duration is real.
        ctx.record_between("queue.wait", early, Instant::now());
        let done = ctx.finish().unwrap();
        let q = done.spans_named("queue.wait");
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].start_ns, 0);
        assert!(q[0].dur_ns >= 1_000_000);
    }
}
