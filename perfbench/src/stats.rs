//! Measurement helpers: quantiles, the seeded generator, process memory,
//! and the result record every workload fills in.

use std::time::{Duration, Instant};

/// Quantile `q` of `values` by linear interpolation between closest ranks
/// (sorts in place); `0.0` for an empty sample, which only a failed run
/// (already counted in `failed`) can produce.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Microseconds as `f64`.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// SplitMix64: a tiny seeded generator, so every input the benchmark
/// derives from `--seed` is reproducible without extra dependencies.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one pass over a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Operations checked against their expected result.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong result.
    pub failed: u64,
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub e2e: Vec<Metric>,
    /// Workload-specific end-to-end figures under the names the workload
    /// is usually quoted with: completed rates, `jobs_per_s`, the median
    /// and the 99th-percentile latency.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<Metric>,
    /// Free-form report rows (simulated statistics, latency splits), each
    /// a JSON object body without the braces.
    pub notes: Vec<String>,
    /// Mean time of one operation, in ms.
    pub op_mean_ms: f64,
    /// How many units of a layer's work one operation holds (`jobs` per
    /// battery, `slice` steps, ...), for per-layer shares.
    pub per_op: Vec<(&'static str, f64)>,
}

impl Pass {
    /// Record one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// An end-to-end metric by name.
    pub fn e2e(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// An end-to-end metric or workload-specific figure by name.
    pub fn figure(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.named)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// One completed operation.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Latency, in ms.
    pub ms: f64,
    /// Control steps the operation simulated.
    pub steps: u64,
}

/// The operation log of one measured loop, with its set-up time, the
/// number of callers that issued the operations, and the loop's wall time.
///
/// On a shared host, other tenants' work arrives in phases lasting from a
/// fraction of a second to over ten seconds, during which CPU-bound
/// operations take longer (1.5–1.8× on the 2-vCPU VM the bounds in
/// `BENCHMARK.json` were set on). A median, a mean or a
/// completed-per-second rate then flips between the two modes from run to
/// run, so the gated figures are taken where they are steady: the typical
/// latency as the 10th percentile (the uncontended cost), the tail as the
/// 95th, and throughput as the rate the callers sustain at the typical
/// latency. The completed rates, the median and the 99th percentile are
/// reported beside them.
pub struct E2e {
    pub setup_s: f64,
    pub ops: Vec<Op>,
    pub callers: usize,
    pub wall_s: f64,
}

impl E2e {
    /// Fill `pass` with the `end_to_end` metric list, the completed
    /// figures, and the mean operation time.
    pub fn finish(self, pass: &mut Pass) {
        let mut ms: Vec<f64> = self.ops.iter().map(|o| o.ms).collect();
        let n = ms.len().max(1) as f64;
        let steps = self.ops.iter().map(|o| o.steps).sum::<u64>() as f64;
        pass.op_mean_ms = mean(&ms);
        let p10 = quantile(&mut ms, 0.10);
        let ops_per_s = self.callers as f64 * 1e3 / p10.max(f64::MIN_POSITIVE);
        pass.e2e = vec![
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("steps_per_s", ops_per_s * steps / n, "1/s"),
            Metric::new("ops_per_s", ops_per_s, "1/s"),
            Metric::new("latency_p10_ms", p10, "ms"),
            Metric::new("latency_p95_ms", quantile(&mut ms, 0.95), "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
        let wall = self.wall_s.max(f64::MIN_POSITIVE);
        pass.named.extend([
            Metric::new("completed_steps_per_s", steps / wall, "1/s"),
            Metric::new("completed_ops_per_s", ms.len() as f64 / wall, "1/s"),
            Metric::new("latency_p50_ms", quantile(&mut ms, 0.5), "ms"),
            Metric::new("latency_p99_ms", quantile(&mut ms, 0.99), "ms"),
        ]);
    }
}

/// Set-up repetitions spread through a run. A burst of repetitions at
/// one moment lands in one contention phase of the host (see [`E2e`]);
/// spread over the run and summarised by their 10th percentile, like the
/// operations, they give a steady figure.
pub struct Setups<F> {
    f: F,
    times: Vec<f64>,
    next: Instant,
}

/// Seconds between spread set-up repetitions.
const SETUP_EVERY: Duration = Duration::from_millis(250);

impl<T, F: FnMut() -> T> Setups<F> {
    /// Time `f` `first` times now; [`Setups::tick`] adds more later.
    pub fn new(first: usize, f: F) -> Self {
        let mut s = Self {
            f,
            times: Vec::new(),
            next: Instant::now(),
        };
        for _ in 0..first {
            s.rep();
        }
        s.next = Instant::now() + SETUP_EVERY;
        s
    }

    fn rep(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box((self.f)());
        self.times.push(secs(t0.elapsed()));
    }

    /// One more repetition when the previous one is old enough; call
    /// between (never inside) timed operations.
    pub fn tick(&mut self) {
        if Instant::now() >= self.next {
            self.rep();
            self.next = Instant::now() + SETUP_EVERY;
        }
    }

    /// The set-up time, in seconds.
    pub fn seconds(mut self) -> f64 {
        quantile(&mut self.times, 0.10)
    }
}

/// Minimal JSON string escaping for report output.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values cannot occur in a valid
/// result; they are reported as `-1` so the row stays parseable).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
