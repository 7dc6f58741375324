//! The live debug plane: a bounded ring of recently completed request
//! summaries (`GET /v1/debug/requests`) and a small store of full span
//! trees for recent requests (`GET /v1/debug/trace/<id>`).
//!
//! ## Why a seq-guarded ring
//!
//! The ring is written on every request completion from every worker, so
//! it must be cheap and must never block a worker behind a slow debug
//! reader. Writers claim a monotonically increasing sequence number with
//! one `fetch_add` and write slot `seq % N` under that slot's own mutex —
//! writers only contend when `N` requests apart, and a writer **only
//! overwrites a slot holding an older sequence**. That last rule is the
//! correctness contract: however writers interleave, once the dust
//! settles each slot holds the newest summary of its residue class, so
//! the ring as a whole holds exactly the most recent `N` completions
//! (property-tested under concurrent writers in `tests/debug_ring.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use etpn_core::json::Json;
use etpn_obs::{FinishedTrace, TraceId};

/// One completed request, as shown by `GET /v1/debug/requests`.
#[derive(Clone, Debug)]
pub struct RequestSummary {
    /// The request's trace id (generated or honored from the header).
    pub trace_id: TraceId,
    /// Verb label (`run`, `check`, `shed`, `malformed`, …).
    pub verb: &'static str,
    /// Request method + path as received.
    pub target: String,
    /// Design name, when the request resolved one.
    pub design: Option<String>,
    /// Response status code.
    pub status: u16,
    /// Time spent queued before a worker picked the connection up, µs.
    pub queue_us: u64,
    /// Time spent reading + routing + writing, µs.
    pub service_us: u64,
    /// End-to-end admission→response time, µs.
    pub total_us: u64,
    /// Wall-clock completion time, milliseconds since the Unix epoch.
    pub at_unix_ms: u64,
}

impl RequestSummary {
    /// JSON shape served by the debug endpoint.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("trace_id", Json::Str(self.trace_id.to_string())),
            ("verb", Json::Str(self.verb.to_string())),
            ("target", Json::Str(self.target.clone())),
            ("status", Json::Num(i64::from(self.status))),
            ("queue_us", Json::Num(self.queue_us as i64)),
            ("service_us", Json::Num(self.service_us as i64)),
            ("total_us", Json::Num(self.total_us as i64)),
            ("at_unix_ms", Json::Num(self.at_unix_ms as i64)),
        ];
        if let Some(d) = &self.design {
            fields.insert(3, ("design", Json::Str(d.clone())));
        }
        Json::obj(fields)
    }
}

/// Filter for [`DebugRing::recent`]; `None` fields match everything.
#[derive(Clone, Debug, Default)]
pub struct RequestFilter {
    /// Exact verb label.
    pub verb: Option<String>,
    /// Exact status code.
    pub status: Option<u16>,
    /// Exact design name.
    pub design: Option<String>,
    /// Minimum end-to-end latency, µs.
    pub min_total_us: Option<u64>,
}

impl RequestFilter {
    fn matches(&self, s: &RequestSummary) -> bool {
        self.verb.as_deref().is_none_or(|v| v == s.verb)
            && self.status.is_none_or(|st| st == s.status)
            && self
                .design
                .as_deref()
                .is_none_or(|d| s.design.as_deref() == Some(d))
            && self.min_total_us.is_none_or(|m| s.total_us >= m)
    }
}

/// Bounded, multi-writer ring of the last `N` completed requests.
pub struct DebugRing {
    head: AtomicU64,
    slots: Vec<Mutex<Option<(u64, RequestSummary)>>>,
}

impl DebugRing {
    /// A ring holding the most recent `capacity` completions (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total completions ever pushed.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Record one completion. Lock scope is one slot; a writer never
    /// replaces a newer entry with an older one, so the most recent `N`
    /// pushes always survive concurrent writers.
    pub fn push(&self, summary: RequestSummary) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        let mut guard = self.slots[slot].lock().unwrap_or_else(|e| e.into_inner());
        match &*guard {
            Some((held, _)) if *held > seq => {}
            _ => *guard = Some((seq, summary)),
        }
    }

    /// Matching completions, newest first, capped at `limit`.
    pub fn recent(&self, filter: &RequestFilter, limit: usize) -> Vec<RequestSummary> {
        let mut entries: Vec<(u64, RequestSummary)> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.0));
        entries
            .into_iter()
            .map(|(_, s)| s)
            .filter(|s| filter.matches(s))
            .take(limit)
            .collect()
    }

    /// The summary recorded for `trace_id`, if still in the ring.
    pub fn find(&self, trace_id: TraceId) -> Option<RequestSummary> {
        self.slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .map(|(_, s)| s)
            .find(|s| s.trace_id == trace_id)
    }
}

/// A bounded store of full span trees for recent requests, keyed by trace
/// id. Simpler than the summary ring — reads are rare (a debugging human)
/// and entries are `Arc`-shared, so one mutex over a small deque is fine.
pub struct TraceStore {
    capacity: usize,
    traces: Mutex<std::collections::VecDeque<std::sync::Arc<FinishedTrace>>>,
}

impl TraceStore {
    /// A store retaining the `capacity` most recent traces (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            traces: Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// Insert a finished trace, evicting the oldest beyond capacity.
    pub fn insert(&self, trace: std::sync::Arc<FinishedTrace>) {
        let mut t = self.traces.lock().unwrap_or_else(|e| e.into_inner());
        t.push_back(trace);
        while t.len() > self.capacity {
            t.pop_front();
        }
    }

    /// Look a trace up by id.
    pub fn get(&self, trace_id: TraceId) -> Option<std::sync::Arc<FinishedTrace>> {
        self.traces
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(n: u64) -> RequestSummary {
        RequestSummary {
            trace_id: TraceId(u128::from(n) + 1),
            verb: if n.is_multiple_of(2) { "run" } else { "check" },
            target: "POST /v1/run".into(),
            design: n.is_multiple_of(3).then(|| "gcd".to_string()),
            status: if n.is_multiple_of(5) { 429 } else { 200 },
            queue_us: n,
            service_us: 10 * n,
            total_us: 11 * n,
            at_unix_ms: 0,
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_n() {
        let ring = DebugRing::new(4);
        for n in 0..10 {
            ring.push(summary(n));
        }
        let recent = ring.recent(&RequestFilter::default(), 100);
        let qs: Vec<u64> = recent.iter().map(|s| s.queue_us).collect();
        assert_eq!(qs, vec![9, 8, 7, 6], "newest first, oldest evicted");
        assert_eq!(ring.pushed(), 10);
    }

    #[test]
    fn filters_compose() {
        let ring = DebugRing::new(64);
        for n in 0..32 {
            ring.push(summary(n));
        }
        let f = RequestFilter {
            verb: Some("run".into()),
            ..Default::default()
        };
        assert!(ring.recent(&f, 100).iter().all(|s| s.verb == "run"));
        let f = RequestFilter {
            status: Some(429),
            min_total_us: Some(100),
            ..Default::default()
        };
        for s in ring.recent(&f, 100) {
            assert_eq!(s.status, 429);
            assert!(s.total_us >= 100);
        }
        let f = RequestFilter {
            design: Some("gcd".into()),
            ..Default::default()
        };
        assert!(!ring.recent(&f, 100).is_empty());
        assert!(ring
            .recent(&f, 100)
            .iter()
            .all(|s| s.design.as_deref() == Some("gcd")));
        // Limit caps the result.
        assert_eq!(ring.recent(&RequestFilter::default(), 3).len(), 3);
    }

    #[test]
    fn find_by_trace_id() {
        let ring = DebugRing::new(8);
        for n in 0..8 {
            ring.push(summary(n));
        }
        assert!(ring.find(TraceId(5)).is_some());
        assert!(ring.find(TraceId(0xdead)).is_none());
    }

    #[test]
    fn trace_store_evicts_oldest() {
        let store = TraceStore::new(2);
        for n in 1..=3u128 {
            store.insert(std::sync::Arc::new(FinishedTrace {
                trace_id: TraceId(n),
                spans: Vec::new(),
                samples: Vec::new(),
                total_ns: 0,
            }));
        }
        assert!(store.get(TraceId(1)).is_none());
        assert!(store.get(TraceId(2)).is_some());
        assert!(store.get(TraceId(3)).is_some());
    }
}
