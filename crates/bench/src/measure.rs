//! The one timing method of the experiment suite.
//!
//! Every timed row compares *arms* — alternatives run on the same host,
//! such as two backends or a run with and without a collector. A fixed
//! arm order lets host drift and order effects land on one arm
//! (Mytkowicz et al., "Producing Wrong Data Without Doing Anything
//! Obviously Wrong!", ASPLOS 2009), so [`measure`] warms every arm up,
//! then runs them in rounds whose starting arm rotates. Rates are
//! reported as medians, and arms are compared by the median of their
//! per-round rate ratios, so a scheduler spike that lands on one run
//! distorts one round only.

use std::time::Duration;

/// Rounds of every arm, in arm order, run and discarded before the
/// measured rounds.
pub const WARMUP_ROUNDS: usize = 2;

/// The per-round rates of a [`measure`] call.
#[derive(Debug)]
pub struct Measurement {
    /// `rounds[r][arm]`: the arm's work per second in measured round `r`.
    rounds: Vec<Vec<f64>>,
}

impl Measurement {
    /// The median of arm `arm`'s rates (work per second).
    pub fn rate(&self, arm: usize) -> f64 {
        median(self.rounds.iter().map(|r| r[arm]).collect())
    }

    /// The median over rounds of arm `a`'s rate divided by arm `b`'s in
    /// the same round.
    pub fn ratio(&self, a: usize, b: usize) -> f64 {
        median(self.rounds.iter().map(|r| r[a] / r[b]).collect())
    }
}

/// Measure `arms` arms over `rounds` rounds. `run(arm)` runs arm `arm`
/// once, timing only the work it compares, and returns `(work, elapsed)`;
/// the arm's rate in that round is work per second.
///
/// Every arm first runs [`WARMUP_ROUNDS`] times in arm order. Then round
/// `r` runs every arm once, starting at arm `r mod arms`.
pub fn measure(
    arms: usize,
    rounds: usize,
    mut run: impl FnMut(usize) -> (u64, Duration),
) -> Measurement {
    assert!(arms > 0 && rounds > 0, "measure needs an arm and a round");
    for _ in 0..WARMUP_ROUNDS {
        for arm in 0..arms {
            let _ = run(arm);
        }
    }
    let rounds = (0..rounds)
        .map(|r| {
            let mut rates = vec![0.0; arms];
            for arm in (r..r + arms).map(|k| k % arms) {
                let (work, elapsed) = run(arm);
                rates[arm] = work as f64 / elapsed.as_secs_f64();
            }
            rates
        })
        .collect();
    Measurement { rounds }
}

/// The upper median: the middle sample, or the larger middle one.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_rotate_their_starting_arm_after_a_fixed_warm_up() {
        let mut order = Vec::new();
        measure(3, 4, |arm| {
            order.push(arm);
            (1, Duration::from_millis(1))
        });
        let (warm_up, rounds) = order.split_at(WARMUP_ROUNDS * 3);
        assert_eq!(warm_up, [0, 1, 2, 0, 1, 2]);
        let rounds: Vec<&[usize]> = rounds.chunks(3).collect();
        assert_eq!(rounds, [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 1, 2]]);
    }

    /// Measure `arms` arms whose arm `a` takes `ms[r][a]` milliseconds
    /// for 100 units of work in measured round `r`, and 1 ms in warm-up.
    fn scripted(arms: usize, ms: &[&[u64]]) -> Measurement {
        let mut calls = 0;
        measure(arms, ms.len(), |arm| {
            let round = (calls / arms).checked_sub(WARMUP_ROUNDS);
            calls += 1;
            let ms = round.map_or(1, |r| ms[r][arm]);
            (100, Duration::from_millis(ms))
        })
    }

    fn assert_close(got: f64, want: f64) {
        assert!((got - want).abs() <= 1e-9 * want, "{got} != {want}");
    }

    #[test]
    fn medians_are_taken_per_arm_and_per_round_ratio() {
        // Arm 0 reads 10, 1 and 4 units/ms; arm 1 reads 1, 2 and 5.
        let m = scripted(2, &[&[10, 100], &[100, 50], &[25, 20]]);
        assert_close(m.rate(0), 4_000.0);
        assert_close(m.rate(1), 2_000.0);
        // Per-round ratios 10, 0.5 and 0.8: the median is 0.8, not the
        // ratio of the medians (2).
        assert_close(m.ratio(0, 1), 0.8);
        assert_close(m.ratio(1, 0), 1.25);
    }

    #[test]
    fn an_even_round_count_takes_the_upper_median() {
        // 2, 0.5, 1 and 4 units/ms: sorted 0.5, 1, 2, 4.
        let m = scripted(1, &[&[50], &[200], &[100], &[25]]);
        assert_close(m.rate(0), 2_000.0);
    }
}
