//! Stats exporters: flat text, JSON and Prometheus dumps of the metric
//! [`Registry`]. Spans and samples export through
//! [`crate::FinishedTrace::chrome_json`].

use crate::metrics::{HistogramSnapshot, SUBS};
use crate::registry::{decode_key, Registry};
use std::collections::BTreeMap;
use std::fmt::Write;

fn esc(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Human-readable form of a (possibly label-encoded) registry key:
/// `name` or `name{k="v",…}`.
fn display_key(key: &str) -> String {
    let (name, labels) = decode_key(key);
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(key.len() + 8);
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

/// Render every metric as an aligned, human-readable text block.
pub fn stats_text(reg: &Registry) -> String {
    let counters: Vec<(String, u64)> = reg
        .counter_values()
        .into_iter()
        .map(|(k, v)| (display_key(&k), v))
        .collect();
    let gauges: Vec<(String, i64)> = reg
        .gauge_values()
        .into_iter()
        .map(|(k, v)| (display_key(&k), v))
        .collect();
    let histograms: Vec<_> = reg
        .histogram_values()
        .into_iter()
        .map(|(k, v)| (display_key(&k), v))
        .collect();
    let mut out = String::new();

    if !counters.is_empty() {
        out.push_str("counters:\n");
        let width = counters.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (k, v) in &counters {
            let _ = writeln!(out, "  {k:<width$}  {v}");
        }
    }
    if !gauges.is_empty() {
        out.push_str("gauges:\n");
        let width = gauges.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (k, v) in &gauges {
            let _ = writeln!(out, "  {k:<width$}  {v}");
        }
    }
    if !histograms.is_empty() {
        out.push_str("histograms:\n");
        let width = histograms.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (k, h) in &histograms {
            let _ = writeln!(
                out,
                "  {k:<width$}  count {}  mean {:.1}  p50 ≤{}  p90 ≤{}  p99 ≤{}  max {}",
                h.count,
                h.mean(),
                h.quantile_bound(0.5),
                h.quantile_bound(0.9),
                h.quantile_bound(0.99),
                h.max
            );
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

/// Render every metric as a flat JSON object (integer-only values, parseable
/// by `etpn_core::json`).
pub fn stats_json(reg: &Registry) -> String {
    let mut out = String::from("{\n\"counters\": {");
    let counters = reg.counter_values();
    for (i, (k, v)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  \"");
        esc(&mut out, &display_key(k));
        let _ = write!(out, "\": {v}");
    }
    out.push_str("\n},\n\"gauges\": {");
    let gauges = reg.gauge_values();
    for (i, (k, v)) in gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  \"");
        esc(&mut out, &display_key(k));
        let _ = write!(out, "\": {v}");
    }
    out.push_str("\n},\n\"histograms\": {");
    let histograms = reg.histogram_values();
    for (i, (k, h)) in histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  \"");
        esc(&mut out, &display_key(k));
        let _ = write!(
            out,
            "\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p95\": {}, \"p99\": {}}}",
            h.count,
            h.sum,
            h.max,
            h.quantile_bound(0.5),
            h.quantile_bound(0.9),
            h.quantile_bound(0.95),
            h.quantile_bound(0.99)
        );
    }
    out.push_str("\n}\n}\n");
    out
}

/// A metric name in the Prometheus exposition charset: dots (the
/// registry's namespace separator) become underscores, anything else
/// non-alphanumeric likewise. The caller prepends `etpn_`, so the result
/// can never start with a digit.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// A label value escaped for the exposition format: backslash, double
/// quote and newline are the only characters that need it; everything
/// else (label values are user-controlled design names) passes through.
fn prom_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Decode a registry key into a Prometheus family name and a rendered
/// (brace-less) label list, e.g. `("serve_latency_us", "verb=\"run\"")`.
fn prom_key(key: &str) -> (String, String) {
    let (name, labels) = decode_key(key);
    let mut rendered = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            rendered.push(',');
        }
        let _ = write!(rendered, "{}=\"{}\"", prom_name(k), prom_label_value(v));
    }
    (prom_name(name), rendered)
}

/// `{labels}` with optional extra label, or the empty string.
fn braces(labels: &str, extra: Option<&str>) -> String {
    match (labels.is_empty(), extra) {
        (true, None) => String::new(),
        (true, Some(e)) => format!("{{{e}}}"),
        (false, None) => format!("{{{labels}}}"),
        (false, Some(e)) => format!("{{{labels},{e}}}"),
    }
}

/// Group metric samples into families keyed by the Prometheus name, so
/// each family gets exactly one `# TYPE` line however many label sets it
/// carries.
fn families<V>(values: Vec<(String, V)>) -> BTreeMap<String, Vec<(String, V)>> {
    let mut fams: BTreeMap<String, Vec<(String, V)>> = BTreeMap::new();
    for (k, v) in values {
        let (name, labels) = prom_key(&k);
        fams.entry(name).or_default().push((labels, v));
    }
    fams
}

/// Render every metric in the Prometheus text exposition format
/// (version 0.0.4, the `text/plain` scrape payload): counters and gauges
/// as single samples per label set, histograms as real histogram families
/// with cumulative `_bucket{le="…"}` series (one bucket per power-of-two
/// octave up to the highest populated one, then `+Inf`) plus `_sum` and
/// `_count`, and a companion `_max` gauge. Metric names are the registry
/// names with illegal characters mapped to `_` and an `etpn_` prefix;
/// label values (user-controlled design names) are escaped per the
/// exposition rules.
pub fn prometheus_text(reg: &Registry) -> String {
    let mut out = String::with_capacity(8 * 1024);
    for (n, series) in families(reg.counter_values()) {
        let _ = writeln!(out, "# TYPE etpn_{n} counter");
        for (labels, v) in series {
            let _ = writeln!(out, "etpn_{n}{} {v}", braces(&labels, None));
        }
    }
    for (n, series) in families(reg.gauge_values()) {
        let _ = writeln!(out, "# TYPE etpn_{n} gauge");
        for (labels, v) in series {
            let _ = writeln!(out, "etpn_{n}{} {v}", braces(&labels, None));
        }
    }
    let hist_fams = families(reg.histogram_values());
    for (n, series) in &hist_fams {
        let _ = writeln!(out, "# TYPE etpn_{n} histogram");
        for (labels, h) in series {
            // Emit one cumulative bucket per octave, up to the octave
            // holding the largest observation; the tail collapses into
            // `+Inf`. Octave bounds are `2^k - 1`, so the series is
            // integer-only and strictly increasing.
            let top_octave = h
                .buckets
                .iter()
                .rposition(|&c| c > 0)
                .map(|i| i / SUBS)
                .unwrap_or(0);
            let mut cum = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                cum += c;
                if (i + 1) % SUBS == 0 {
                    let octave = i / SUBS;
                    if octave > top_octave {
                        break;
                    }
                    let le = HistogramSnapshot::bucket_bound(i);
                    let _ = writeln!(
                        out,
                        "etpn_{n}_bucket{} {cum}",
                        braces(labels, Some(&format!("le=\"{le}\"")))
                    );
                }
            }
            let _ = writeln!(
                out,
                "etpn_{n}_bucket{} {}",
                braces(labels, Some("le=\"+Inf\"")),
                h.count
            );
            let _ = writeln!(out, "etpn_{n}_sum{} {}", braces(labels, None), h.sum);
            let _ = writeln!(out, "etpn_{n}_count{} {}", braces(labels, None), h.count);
        }
    }
    for (n, series) in &hist_fams {
        let _ = writeln!(out, "# TYPE etpn_{n}_max gauge");
        for (labels, h) in series {
            let _ = writeln!(out, "etpn_{n}_max{} {}", braces(labels, None), h.max);
        }
    }
    if out.is_empty() {
        out.push_str("# (no metrics recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_registry() -> Registry {
        let r = Registry::new();
        r.counter("sim.steps").add(9);
        r.gauge("fleet.workers").set(4);
        r.histogram("sim.step.ns").record(1500);
        r
    }

    #[test]
    fn stats_text_lists_every_metric_kind() {
        let s = stats_text(&seeded_registry());
        assert!(s.contains("sim.steps"), "{s}");
        assert!(s.contains("fleet.workers"), "{s}");
        assert!(s.contains("count 1"), "{s}");
    }

    #[test]
    fn stats_json_is_integer_only() {
        let s = stats_json(&seeded_registry());
        assert!(s.contains("\"sim.steps\": 9"), "{s}");
        assert!(s.contains("\"p95\""), "{s}");
        assert!(!s.contains('.') || !s.contains("e-"), "{s}");
    }

    #[test]
    fn prometheus_exposition_has_all_metric_families() {
        let p = prometheus_text(&seeded_registry());
        assert!(p.contains("# TYPE etpn_sim_steps counter"), "{p}");
        assert!(p.contains("etpn_sim_steps 9"), "{p}");
        assert!(p.contains("# TYPE etpn_fleet_workers gauge"), "{p}");
        assert!(p.contains("etpn_fleet_workers 4"), "{p}");
        assert!(p.contains("# TYPE etpn_sim_step_ns histogram"), "{p}");
        assert!(p.contains("etpn_sim_step_ns_bucket{le=\"+Inf\"} 1"), "{p}");
        assert!(p.contains("etpn_sim_step_ns_sum 1500"), "{p}");
        assert!(p.contains("etpn_sim_step_ns_count 1"), "{p}");
        assert!(p.contains("# TYPE etpn_sim_step_ns_max gauge"), "{p}");
        // Every line is either a comment or `name[{labels}] value`.
        for line in p.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .rsplit_once(' ')
                        .is_some_and(|(_, v)| v.parse::<i64>().is_ok()),
                "malformed exposition line: {line}"
            );
        }
        assert!(prometheus_text(&Registry::new()).starts_with('#'));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative_and_cover_count() {
        let r = Registry::new();
        let h = r.histogram("lat.us");
        for v in [3u64, 40, 40, 5000, 123_456] {
            h.record(v);
        }
        let p = prometheus_text(&r);
        // Collect the bucket series in order and check the cumulative
        // counts are monotone and end at the total count.
        let mut counts = Vec::new();
        for line in p.lines() {
            if let Some(rest) = line.strip_prefix("etpn_lat_us_bucket{le=\"") {
                let (le, count) = rest.split_once("\"} ").unwrap();
                counts.push((le.to_string(), count.parse::<u64>().unwrap()));
            }
        }
        assert!(counts.len() >= 3, "{p}");
        assert!(counts.windows(2).all(|w| w[0].1 <= w[1].1), "{counts:?}");
        assert_eq!(counts.last().unwrap().0, "+Inf");
        assert_eq!(counts.last().unwrap().1, 5);
        // `le="31"` (end of the exact region) covers the two small values.
        assert!(
            counts.iter().any(|(le, c)| le == "31" && *c == 1),
            "{counts:?}"
        );
        assert!(
            counts.iter().any(|(le, c)| le == "63" && *c == 3),
            "{counts:?}"
        );
    }

    #[test]
    fn prometheus_labels_render_and_escape() {
        let r = Registry::new();
        r.histogram_with("serve.latency_us", &[("verb", "run")])
            .record(7);
        r.histogram_with("serve.latency_us", &[("design", "we\"ird\\name\nx")])
            .record(9);
        r.counter_with("serve.status", &[("code", "200")]).inc();
        let p = prometheus_text(&r);
        assert!(
            p.contains("etpn_serve_latency_us_count{verb=\"run\"} 1"),
            "{p}"
        );
        assert!(
            p.contains("etpn_serve_latency_us_count{design=\"we\\\"ird\\\\name\\nx\"} 1"),
            "{p}"
        );
        assert!(p.contains("etpn_serve_status{code=\"200\"} 1"), "{p}");
        // One TYPE line per family even with several label sets.
        assert_eq!(
            p.matches("# TYPE etpn_serve_latency_us histogram").count(),
            1
        );
        assert!(
            p.contains("etpn_serve_latency_us_bucket{verb=\"run\",le=\"15\"} 1"),
            "{p}"
        );
    }
}
