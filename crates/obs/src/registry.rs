//! The process-wide metric registry.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// The process-wide metric store: named counters, gauges and histograms.
///
/// Metric namespaces are flat dotted strings. All methods take `&self`; the
/// registry is freely shared across threads.
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Resolve (or create) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Resolve (or create) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .lock()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Resolve (or create) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histograms
            .lock()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Resolve (or create) the histogram named `name` carrying `labels`
    /// (e.g. `serve.latency_us{verb="run"}`). Labels are encoded into the
    /// registry key with control-character separators so user-controlled
    /// values (design names) can never collide with another metric's name;
    /// exporters decode them back into structured labels.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram(&encode_key(name, labels))
    }

    /// Labeled variant of [`Registry::counter`]; see
    /// [`Registry::histogram_with`] for the key encoding.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter(&encode_key(name, labels))
    }

    /// Snapshot all counters as `(name, value)` pairs in name order.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Snapshot all gauges as `(name, value)` pairs in name order.
    pub fn gauge_values(&self) -> Vec<(String, i64)> {
        self.gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Snapshot all histograms in name order.
    pub fn histogram_values(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

/// The process-wide registry every instrumentation site reports to.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------------
// Labeled-key encoding.
// ---------------------------------------------------------------------------

/// Separator between the metric name and each `key<KV_SEP>value` label
/// pair in an encoded registry key. A control character, so no dotted
/// metric name or user-supplied label value produces it by accident.
const LABEL_SEP: char = '\u{1f}';
/// Separator between a label's key and value.
const KV_SEP: char = '\u{1e}';

/// Encode `name` plus `labels` into a single registry key. Label order is
/// preserved; separators occurring inside keys/values are dropped.
pub fn encode_key(name: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    let strip = |out: &mut String, s: &str| {
        out.extend(s.chars().filter(|&c| c != LABEL_SEP && c != KV_SEP));
    };
    strip(&mut out, name);
    for (k, v) in labels {
        out.push(LABEL_SEP);
        strip(&mut out, k);
        out.push(KV_SEP);
        strip(&mut out, v);
    }
    out
}

/// Decode a registry key into its metric name and label pairs. Plain
/// (unlabeled) keys come back with an empty label list.
pub fn decode_key(key: &str) -> (&str, Vec<(&str, &str)>) {
    let mut parts = key.split(LABEL_SEP);
    let name = parts.next().unwrap_or(key);
    let labels = parts
        .map(|p| p.split_once(KV_SEP).unwrap_or((p, "")))
        .collect();
    (name, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_handles_are_shared_by_name() {
        let r = Registry::new();
        r.counter("x").add(2);
        r.counter("x").add(3);
        assert_eq!(r.counter_values(), vec![("x".to_string(), 5)]);
        r.gauge("g").set(-7);
        assert_eq!(r.gauge_values(), vec![("g".to_string(), -7)]);
        r.histogram("h").record(9);
        assert_eq!(r.histogram_values()[0].1.count, 1);
    }

    #[test]
    fn labeled_keys_round_trip_and_separate_series() {
        let r = Registry::new();
        r.histogram_with("lat", &[("verb", "run")]).record(5);
        r.histogram_with("lat", &[("verb", "check")]).record(9);
        r.histogram_with("lat", &[("verb", "run")]).record(6);
        let all = r.histogram_values();
        assert_eq!(all.len(), 2);
        let mut by_verb: Vec<_> = all
            .iter()
            .map(|(k, h)| {
                let (name, labels) = decode_key(k);
                assert_eq!(name, "lat");
                (labels[0], h.count)
            })
            .collect();
        by_verb.sort();
        assert_eq!(by_verb, vec![(("verb", "check"), 1), (("verb", "run"), 2)]);
        // Unlabeled keys decode with no labels.
        assert_eq!(decode_key("plain.name"), ("plain.name", vec![]));
        // Separator characters in values are stripped, not misparsed.
        let k = encode_key("m", &[("design", "a\u{1f}b\u{1e}c")]);
        assert_eq!(decode_key(&k).1, vec![("design", "abc")]);
    }
}
