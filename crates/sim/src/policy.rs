//! Firing policies: how the intrinsic nondeterminism of the Petri-net
//! firing rule is resolved into a concrete run.
//!
//! The paper (Def. 3.2) restricts attention to *properly designed* systems
//! precisely so that this choice does not matter: for such systems every
//! policy must produce the same external event structure. The simulator
//! therefore makes the policy pluggable, and the determinism experiment
//! (E10) runs many policies/seeds and compares the extracted structures.

use etpn_core::TransId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Strategy for choosing which enabled, guard-true transitions fire in a step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FiringPolicy {
    /// Fire a maximal non-conflicting set, attempting transitions in id
    /// order. Deterministic; models fully synchronous hardware.
    MaximalStep,
    /// Fire a maximal set, attempting transitions in a seeded random order.
    /// Exercises different conflict resolutions and concurrency schedules.
    RandomMaximal {
        /// RNG seed (runs with equal seeds are identical).
        seed: u64,
    },
    /// Fire exactly one randomly chosen transition per step — the fully
    /// interleaved semantics, maximally adversarial for timing assumptions.
    SingleRandom {
        /// RNG seed.
        seed: u64,
    },
}

impl FiringPolicy {
    /// Encode as a `(tag, seed)` pair for embedding in recordings:
    /// `0` = maximal-step, `1` = random-maximal, `2` = single-random.
    pub fn encode(self) -> (u8, u64) {
        match self {
            FiringPolicy::MaximalStep => (0, 0),
            FiringPolicy::RandomMaximal { seed } => (1, seed),
            FiringPolicy::SingleRandom { seed } => (2, seed),
        }
    }

    /// Decode a `(tag, seed)` pair produced by [`FiringPolicy::encode`];
    /// `None` for an unknown tag.
    pub fn decode(tag: u8, seed: u64) -> Option<FiringPolicy> {
        match tag {
            0 => Some(FiringPolicy::MaximalStep),
            1 => Some(FiringPolicy::RandomMaximal { seed }),
            2 => Some(FiringPolicy::SingleRandom { seed }),
            _ => None,
        }
    }

    /// The Def. 3.2 policy-invariance battery: the deterministic
    /// [`FiringPolicy::MaximalStep`] reference first, then seeds
    /// `0..seeds` of each randomized policy.
    pub fn battery(seeds: u64) -> Vec<FiringPolicy> {
        let mut policies = vec![FiringPolicy::MaximalStep];
        for seed in 0..seeds {
            policies.push(FiringPolicy::RandomMaximal { seed });
            policies.push(FiringPolicy::SingleRandom { seed });
        }
        policies
    }

    /// The policy of seed `seed` in a coverage sweep: seed 0 is the
    /// deterministic [`FiringPolicy::MaximalStep`] reference, then odd
    /// seeds run [`FiringPolicy::RandomMaximal`] and even seeds
    /// [`FiringPolicy::SingleRandom`], so the sweep explores both
    /// maximal-step and interleaved schedules.
    pub fn for_seed(seed: u64) -> FiringPolicy {
        match seed {
            0 => FiringPolicy::MaximalStep,
            s if s % 2 == 1 => FiringPolicy::RandomMaximal { seed: s },
            s => FiringPolicy::SingleRandom { seed: s },
        }
    }

    /// Build the per-run RNG (None for the deterministic policy).
    pub(crate) fn rng(&self) -> Option<SmallRng> {
        match self {
            FiringPolicy::MaximalStep => None,
            FiringPolicy::RandomMaximal { seed } | FiringPolicy::SingleRandom { seed } => {
                Some(SmallRng::seed_from_u64(*seed))
            }
        }
    }

    /// Turn the ready (enabled and guard-true) transitions, in place, into
    /// the ordered list of transitions to *attempt* this step.
    pub(crate) fn order(&self, ready: &mut Vec<TransId>, rng: Option<&mut SmallRng>) {
        match self {
            FiringPolicy::MaximalStep => {}
            FiringPolicy::RandomMaximal { .. } => {
                ready.shuffle(rng.expect("random policy carries an RNG"));
            }
            FiringPolicy::SingleRandom { .. } => {
                if !ready.is_empty() {
                    let rng = rng.expect("random policy carries an RNG");
                    let pick = ready[rng.gen_range(0..ready.len())];
                    ready.clear();
                    ready.push(pick);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ids: &[u32]) -> Vec<TransId> {
        ids.iter().map(|&i| TransId::new(i)).collect()
    }

    #[test]
    fn encode_decode_roundtrips() {
        for p in [
            FiringPolicy::MaximalStep,
            FiringPolicy::RandomMaximal { seed: 99 },
            FiringPolicy::SingleRandom { seed: 7 },
        ] {
            let (tag, seed) = p.encode();
            assert_eq!(FiringPolicy::decode(tag, seed), Some(p));
        }
        assert_eq!(FiringPolicy::decode(250, 0), None);
    }

    #[test]
    fn maximal_step_keeps_id_order() {
        let ready = ts(&[2, 0, 5]);
        let mut order = ready.clone();
        FiringPolicy::MaximalStep.order(&mut order, None);
        assert_eq!(order, ready);
    }

    #[test]
    fn random_maximal_is_a_permutation_and_seed_stable() {
        let ready = ts(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let p = FiringPolicy::RandomMaximal { seed: 42 };
        let mut rng1 = p.rng().unwrap();
        let mut rng2 = p.rng().unwrap();
        let (mut o1, mut o2) = (ready.clone(), ready.clone());
        p.order(&mut o1, Some(&mut rng1));
        p.order(&mut o2, Some(&mut rng2));
        assert_eq!(o1, o2, "same seed, same order");
        let mut sorted = o1.clone();
        sorted.sort();
        assert_eq!(sorted, ready);
    }

    #[test]
    fn single_random_picks_exactly_one() {
        let ready = ts(&[3, 9]);
        let p = FiringPolicy::SingleRandom { seed: 7 };
        let mut rng = p.rng().unwrap();
        let mut picked = ready.clone();
        p.order(&mut picked, Some(&mut rng));
        assert_eq!(picked.len(), 1);
        assert!(ready.contains(&picked[0]));
        let mut none = Vec::new();
        p.order(&mut none, Some(&mut rng));
        assert!(none.is_empty());
    }
}
