//! # etpn-obs — the workspace's observability substrate
//!
//! Hierarchical **spans** with monotonic timing, **counters / gauges /
//! histograms** behind cheap atomic handles, one process-wide metric
//! [`Registry`], and two kinds of export: Chrome `trace_event` JSON
//! ([`FinishedTrace::chrome_json`]; open the file in `chrome://tracing` or
//! <https://ui.perfetto.dev>) and flat text/JSON/Prometheus stats dumps.
//! The simulator, the batch fleet, the synthesis pipeline and the
//! analysis passes all report here; `etpnc --profile` / `--stats`, etpnd
//! and experiment E11 read it back out.
//!
//! ## Why no external dependencies
//!
//! The workspace builds offline — every third-party crate is a vendored
//! stand-in (see `vendor/`), so an off-the-shelf metrics stack
//! (`tracing`, `metrics`, `prometheus`) is not an option and would be
//! oversized anyway: the exporters the repo needs are few, the
//! consumers are in-process, and the hot-path budget (a simulation step is
//! sub-microsecond on small designs) rules out anything that allocates or
//! locks per event while disabled. Everything here is `std`-only:
//!
//! * metric handles are `Arc`ed atomics — resolve once, update with one
//!   relaxed atomic op ([`Counter`], [`Gauge`], [`Histogram`]);
//! * every span records into a [`TraceCtx`], an `Arc`-shared span buffer
//!   that travels with the work. etpnd opens one per request; the one
//!   process-wide context is the **profile root**, which exists while the
//!   level is [`Level::Trace`] (the CLI's `--profile`). [`span`],
//!   [`span_arg`] and [`sample`] record under it and [`take_profile`]
//!   hands it back;
//! * the whole layer is gated by a process-wide [`Level`]: below
//!   [`Level::Trace`] (the default is [`Level::Off`]) a span is one
//!   relaxed load and no timestamp is taken, which is what keeps the
//!   disabled overhead at effectively zero (measured in E11).
//!
//! ## Levels
//!
//! | level | counters/gauges/histograms | spans + samples |
//! |-------|----------------------------|-----------------|
//! | [`Level::Off`]   | updated (atomic add)  | skipped |
//! | [`Level::Stats`] | updated               | skipped |
//! | [`Level::Trace`] | updated               | recorded |
//!
//! Counters are *always* live: they are the permanent measurement layer
//! perf work reports against, and an atomic add is cheaper than making it
//! conditional would be worth. `Stats` exists as an explicit "I intend to
//! read the dump" marker (the CLI's `--stats`), and `Trace` additionally
//! records timestamped span/sample events into the profile root (the
//! CLI's `--profile`).
//!
//! ## Use
//!
//! ```
//! use etpn_obs as obs;
//!
//! obs::set_level(obs::Level::Trace);
//! let steps = obs::global().counter("demo.steps");
//! {
//!     let _span = obs::span("demo.phase");
//!     steps.add(3);
//! }
//! let profile = obs::take_profile().expect("Trace installs a profile root");
//! assert!(profile.chrome_json().contains("demo.phase"));
//! obs::set_level(obs::Level::Off);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use export::{prometheus_text, stats_json, stats_text};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{decode_key, encode_key, global, Registry};
pub use trace::{current_tid, FinishedTrace, SampleRec, SpanRec, TraceCtx, TraceId, TraceSpan};

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{PoisonError, RwLock};

/// How much the observability layer records (process-wide).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    /// Metrics only; spans are no-ops (the default).
    Off = 0,
    /// Metrics are intended to be dumped; spans are still no-ops.
    Stats = 1,
    /// Everything: metrics plus timestamped spans and counter samples,
    /// recorded under the profile root.
    Trace = 2,
}

static LEVEL: AtomicI64 = AtomicI64::new(Level::Off as i64);

/// The profile root: `Some` exactly while the level is [`Level::Trace`].
/// Every write replaces the whole value, so a poisoned lock still guards
/// a valid one and is recovered.
static PROFILE: RwLock<Option<TraceCtx>> = RwLock::new(None);

/// Set the process-wide level. Raising it to [`Level::Trace`] installs a
/// fresh profile root (keeping the current one if already tracing);
/// lowering it below drops the root and whatever it recorded.
pub fn set_level(level: Level) {
    let mut root = PROFILE.write().unwrap_or_else(PoisonError::into_inner);
    if level < Level::Trace {
        *root = None;
    } else if root.is_none() {
        *root = Some(TraceCtx::root(TraceId::generate()));
    }
    LEVEL.store(level as i64, Ordering::Relaxed);
}

/// The current process-wide level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        2 => Level::Trace,
        1 => Level::Stats,
        _ => Level::Off,
    }
}

/// True when spans and samples are being recorded.
#[inline]
pub fn trace_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= Level::Trace as i64
}

/// True when a stats dump is expected at the end of the run.
#[inline]
pub fn stats_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= Level::Stats as i64
}

fn with_profile<R>(f: impl FnOnce(&TraceCtx) -> R) -> Option<R> {
    PROFILE
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .map(f)
}

/// The profile root's context while tracing, a disabled one otherwise.
/// Work that opens spans through an explicit context (fleet jobs) starts
/// from it, so its spans land in the profile unless a request context
/// replaces it.
pub fn profile() -> TraceCtx {
    if !trace_enabled() {
        return TraceCtx::disabled();
    }
    with_profile(TraceCtx::clone).unwrap_or_else(TraceCtx::disabled)
}

/// Hand back everything the profile root recorded so far and start a
/// fresh root in its place. `None` below [`Level::Trace`].
pub fn take_profile() -> Option<FinishedTrace> {
    let mut root = PROFILE.write().unwrap_or_else(PoisonError::into_inner);
    let taken = std::mem::replace(root.as_mut()?, TraceCtx::root(TraceId::generate()));
    taken.finish()
}

/// Open a span named `name` under the profile root. The returned guard
/// records the enclosed scope's wall time when dropped; below
/// [`Level::Trace`] it is a disabled guard costing one atomic load.
#[inline]
pub fn span(name: &'static str) -> TraceSpan {
    if trace_enabled() {
        profile_span(name, None)
    } else {
        TraceSpan::disabled()
    }
}

/// [`span`] with one argument attached (shown under `args` in the trace).
#[inline]
pub fn span_arg(name: &'static str, key: &'static str, value: i64) -> TraceSpan {
    if trace_enabled() {
        profile_span(name, Some((key, value)))
    } else {
        TraceSpan::disabled()
    }
}

// Out of line: callers inline only the level check.
#[inline(never)]
fn profile_span(name: &'static str, arg: Option<(&'static str, i64)>) -> TraceSpan {
    with_profile(|root| root.span_arg_opt(name, arg)).unwrap_or_else(TraceSpan::disabled)
}

/// Record a timestamped counter sample under the profile root when
/// tracing (a Chrome `ph:"C"` point).
#[inline]
pub fn sample(name: &'static str, value: i64) {
    if trace_enabled() {
        with_profile(|root| root.sample(name, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The level and the profile root are process-wide; serialise the
    /// tests that touch them.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        set_level(Level::Off);
        let s = span("test.off");
        assert!(!s.ctx().is_enabled(), "a disabled guard");
        drop(s);
        assert!(take_profile().is_none(), "no profile root below Trace");
    }

    #[test]
    fn enabled_spans_nest_and_record() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        set_level(Level::Trace);
        {
            let _outer = span("test.outer");
            let _inner = span_arg("test.inner", "k", 7);
        }
        let profile = take_profile().expect("Trace installs a profile root");
        set_level(Level::Off);
        let outer = profile.spans_named("test.outer")[0];
        let inner = profile.spans_named("test.inner")[0];
        assert_eq!(inner.arg, Some(("k", 7)));
        assert_eq!(outer.tid, inner.tid);
        // The inner span is contained in the outer one.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Off < Level::Stats);
        assert!(Level::Stats < Level::Trace);
    }

    #[test]
    fn doc_example_round_trips() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        set_level(Level::Trace);
        let steps = global().counter("demo.steps");
        {
            let _span = span("demo.phase");
            steps.add(3);
        }
        let profile = take_profile().expect("Trace installs a profile root");
        set_level(Level::Off);
        assert!(profile.chrome_json().contains("demo.phase"));
        assert!(global().counter("demo.steps").get() >= 3);
    }
}
