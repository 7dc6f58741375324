//! Equivalence verification: the decidable check of Def. 4.5 and the
//! randomized semantic oracle used by experiments E1/E2.
//!
//! The structural check implements data-invariant equivalence literally:
//! for every pair with `Si ⇒ Sj` and `Si ◇ Sj` in one system, the same
//! `⇒`-ordering must hold in the other, and vice versa. The oracle
//! *falsifies* (never proves) semantic equivalence (Def. 4.1) by running
//! both designs against many random environments, seeds, and firing
//! policies and comparing external event structures. The whole oracle is
//! one `etpn-sim` [`battery()`] with a group per environment: runs spread
//! over the [`Fleet`]'s worker threads on the default compiled step engine
//! (each design is compiled once and shared by every policy/seed run over
//! it), and the counterexample reported is the first in environment
//! order.

use crate::error::TransformResult;
use etpn_analysis::DataDependence;
use etpn_core::{ControlRelations, Etpn, PlaceId, Value};
use etpn_sim::{
    battery, BatteryGroup, Fleet, RunSpec, ScriptedEnv, SimError, SimJob, Termination, Witness,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Outcome of the structural data-invariance check (Def. 4.5).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DataInvarianceVerdict {
    /// Every dependent ordered pair keeps its order in both directions.
    Equivalent,
    /// A dependent pair `Si ⇒ Sj` lost (or gained) its ordering.
    OrderViolated {
        /// First state of the violated pair.
        si: PlaceId,
        /// Second state of the violated pair.
        sj: PlaceId,
        /// Which system has the ordering that the other lacks.
        present_in: &'static str,
    },
}

impl DataInvarianceVerdict {
    /// True for [`DataInvarianceVerdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, DataInvarianceVerdict::Equivalent)
    }
}

/// Check data-invariant equivalence of two systems over the same data path
/// and state set (Def. 4.5). Both systems' own dependence snapshots are
/// used.
///
/// The quantification runs over the *direct* dependence relation `↔`
/// rather than the closure `◇` the definition literally names: the proof of
/// Thm. 4.1 relies only on direct pairs, and preserving the `⇒`-order of
/// every direct pair implies preservation of every ordered dependence chain
/// (`⇒` is transitive). The closure form would reject the paper's own
/// parallelisation programme — see `legality::require_independent`.
pub fn check_data_invariant(g1: &Etpn, g2: &Etpn) -> DataInvarianceVerdict {
    let rel1 = ControlRelations::compute(&g1.ctl);
    let rel2 = ControlRelations::compute(&g2.ctl);
    let dd1 = DataDependence::compute(g1);
    let dd2 = DataDependence::compute(g2);
    let places: Vec<PlaceId> = g1.ctl.places().ids().collect();
    for &si in &places {
        for &sj in &places {
            if si == sj {
                continue;
            }
            if rel1.leads_to(si, sj) && dd1.direct(si, sj) && !rel2.leads_to(si, sj) {
                return DataInvarianceVerdict::OrderViolated {
                    si,
                    sj,
                    present_in: "lhs",
                };
            }
            if rel2.leads_to(si, sj) && dd2.direct(si, sj) && !rel1.leads_to(si, sj) {
                return DataInvarianceVerdict::OrderViolated {
                    si,
                    sj,
                    present_in: "rhs",
                };
            }
        }
    }
    DataInvarianceVerdict::Equivalent
}

/// Configuration of the randomized semantic oracle.
#[derive(Clone, Copy, Debug)]
pub struct OracleConfig {
    /// Number of random environments to try.
    pub environments: u32,
    /// Length of each input stream.
    pub stream_len: usize,
    /// Random seeds per environment for the randomized policies.
    pub policy_seeds: u64,
    /// Step budget per run.
    pub max_steps: u64,
    /// Smallest generated input value.
    pub value_min: i64,
    /// Largest generated input value.
    pub value_max: i64,
    /// Number of worker threads (0 = available parallelism).
    pub threads: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            environments: 16,
            stream_len: 8,
            policy_seeds: 2,
            max_steps: 2_000,
            value_min: -1_000,
            value_max: 1_000,
            threads: 0,
        }
    }
}

/// Result of an oracle battery.
#[derive(Clone, Debug)]
pub enum OracleVerdict {
    /// No counterexample found over the whole battery.
    NoCounterexample {
        /// Total runs compared.
        runs: u64,
        /// Environments skipped because the reference run hit the step
        /// limit (a truncated run observes an arbitrary prefix). When
        /// every environment is skipped, `runs` is 0 and the pass is
        /// vacuous.
        skipped: u32,
    },
    /// A run pair with differing external event structures.
    Counterexample {
        /// Environment seed that exposed it.
        env_seed: u64,
        /// The first difference: the reference is `g1` under
        /// [`etpn_sim::FiringPolicy::MaximalStep`], the compared run `g2` under
        /// `witness.compared`.
        witness: Witness,
    },
    /// A simulation failed outright (itself evidence of inequivalence or an
    /// improper design).
    SimFailure {
        /// Environment seed of the failing run.
        env_seed: u64,
        /// The error.
        error: SimError,
    },
}

impl OracleVerdict {
    /// True when no counterexample (and no failure) was found.
    pub fn passed(&self) -> bool {
        matches!(self, OracleVerdict::NoCounterexample { .. })
    }
}

/// Build a random environment for the input vertices of `g`.
pub fn random_env(g: &Etpn, seed: u64, stream_len: usize, range: (i64, i64)) -> ScriptedEnv {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut env = ScriptedEnv::new();
    for v in g.dp.input_vertices() {
        let name = g.dp.vertex(v).name.clone();
        let values: Vec<Value> = (0..stream_len)
            .map(|_| Value::Def(rng.gen_range(range.0..=range.1)))
            .collect();
        env = env.with_raw_stream(&name, values);
    }
    env
}

/// Run the randomized oracle comparing `g1` and `g2`.
///
/// Designs may differ in data path (vertex merger) — events are compared by
/// arc id, so the caller must ensure external arc ids correspond (both our
/// transformations preserve arc identities).
pub fn semantic_oracle(g1: &Etpn, g2: &Etpn, cfg: OracleConfig) -> OracleVerdict {
    let env_seeds: Vec<u64> = (0..cfg.environments)
        .map(|e| u64::from(e) * 0x9E37_79B9 + 12_345)
        .collect();

    // One group per environment.
    let spec = RunSpec {
        max_steps: cfg.max_steps,
        ..RunSpec::default()
    };
    let groups = env_seeds
        .iter()
        .map(|&env_seed| {
            let env = random_env(g1, env_seed, cfg.stream_len, (cfg.value_min, cfg.value_max));
            // The full policy battery on g2 is compared with the g1 run.
            let on_g2 = SimJob::from_spec(g2, env.clone(), spec.clone());
            let mut group = BatteryGroup::policies(&on_g2, cfg.policy_seeds);
            let on_g1 = SimJob::from_spec(g1, env, spec.clone());
            group
                .compared
                .insert(0, std::mem::replace(&mut group.reference, on_g1));
            group
        })
        .collect();
    let run = battery(&Fleet::new(cfg.threads), groups);

    let (mut runs, mut skipped) = (0u64, 0u32);
    for (env_seed, v) in env_seeds.into_iter().zip(run.verdicts) {
        let failure = |error| OracleVerdict::SimFailure { env_seed, error };
        match v.reference {
            Err(error) => return failure(error),
            Ok(t) if t.termination == Termination::StepLimit => {
                skipped += 1;
                continue;
            }
            Ok(_) => {}
        }
        if let Some((_, error)) = v.first_error {
            return failure(error);
        }
        if let Some(witness) = v.witness {
            return OracleVerdict::Counterexample { env_seed, witness };
        }
        runs += v.compared as u64;
    }
    OracleVerdict::NoCounterexample { runs, skipped }
}

/// Convenience: apply a transformation function to a clone and verify both
/// structurally and semantically.
pub fn verify_transformation(
    g: &Etpn,
    transform: impl FnOnce(&mut Etpn) -> TransformResult<()>,
    cfg: OracleConfig,
) -> TransformResult<(Etpn, OracleVerdict)> {
    let mut g2 = g.clone();
    transform(&mut g2)?;
    let verdict = semantic_oracle(g, &g2, cfg);
    Ok((g2, verdict))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_invariant::parallelize::Parallelizer;
    use etpn_core::EtpnBuilder;

    /// s0: load r1:=x, r2:=y; s1: r3 := r1+r1; s2: r4 := r2*r2; s3: emit r3.
    /// The middle pair is internal and independent (parallelisable).
    fn independent_chain() -> (Etpn, Vec<PlaceId>) {
        use etpn_core::Op;
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let add = b.operator(Op::Add, 2, "add");
        let mul = b.operator(Op::Mul, 2, "mul");
        let r1 = b.register("r1");
        let r2 = b.register("r2");
        let r3 = b.register("r3");
        let r4 = b.register("r4");
        let o = b.output("o");
        let load1 = b.connect(b.out_port(x, 0), b.in_port(r1, 0));
        let load2 = b.connect(b.out_port(y, 0), b.in_port(r2, 0));
        let c0 = b.connect(b.out_port(r1, 0), b.in_port(add, 0));
        let c1 = b.connect(b.out_port(r1, 0), b.in_port(add, 1));
        let c2 = b.connect(b.out_port(add, 0), b.in_port(r3, 0));
        let m0 = b.connect(b.out_port(r2, 0), b.in_port(mul, 0));
        let m1 = b.connect(b.out_port(r2, 0), b.in_port(mul, 1));
        let m2 = b.connect(b.out_port(mul, 0), b.in_port(r4, 0));
        let emit = b.connect(b.out_port(r3, 0), b.in_port(o, 0));
        let s = b.serial_chain(4, "s");
        b.control(s[0], [load1, load2]);
        b.control(s[1], [c0, c1, c2]);
        b.control(s[2], [m0, m1, m2]);
        b.control(s[3], [emit]);
        let fin = b.transition("fin");
        b.flow_st(s[3], fin);
        (b.finish().unwrap(), s)
    }

    #[test]
    fn parallelisation_is_data_invariant() {
        let (g0, s) = independent_chain();
        let mut g = g0.clone();
        let dd = DataDependence::compute(&g);
        Parallelizer::new(&dd).apply(&mut g, s[1], s[2]).unwrap();
        assert!(check_data_invariant(&g0, &g).is_equivalent());
    }

    #[test]
    fn dropping_dependent_order_is_flagged() {
        // Manually rebuild the control so a dependent pair loses its order:
        // s1 writes r1, s3 reads r1; delete everything and make them parallel.
        let (g0, s) = independent_chain();
        let mut g = g0.clone();
        g.ctl.clear_transitions();
        // fork from s0 into s1, s2, s3 all parallel.
        let tf = g.ctl.add_transition("fork");
        g.ctl.flow_st(s[0], tf).unwrap();
        for &si in &s[1..] {
            g.ctl.flow_ts(tf, si).unwrap();
        }
        let v = check_data_invariant(&g0, &g);
        assert!(!v.is_equivalent(), "{v:?}");
        if let DataInvarianceVerdict::OrderViolated { present_in, .. } = v {
            assert_eq!(present_in, "lhs");
        }
    }

    #[test]
    fn oracle_passes_legal_parallelisation() {
        let (g0, s) = independent_chain();
        let cfg = OracleConfig {
            environments: 4,
            policy_seeds: 1,
            ..Default::default()
        };
        let (g2, verdict) = verify_transformation(
            &g0,
            |g| {
                let dd = DataDependence::compute(g);
                Parallelizer::new(&dd).apply(g, s[1], s[2])
            },
            cfg,
        )
        .unwrap();
        assert!(verdict.passed(), "{verdict:?}");
        let _ = g2;
    }

    #[test]
    fn oracle_catches_an_actual_change() {
        // Swap a *dependent* pair by brute control surgery: s3 (emit r1)
        // before s1 (load r1) — the emitted value becomes ⊥/old instead of x.
        let (g0, s) = independent_chain();
        let mut g = g0.clone();
        g.ctl.clear_transitions();
        let t0 = g.ctl.add_transition("t0");
        g.ctl.flow_st(s[0], t0).unwrap();
        g.ctl.flow_ts(t0, s[3]).unwrap();
        let t1 = g.ctl.add_transition("t1");
        g.ctl.flow_st(s[3], t1).unwrap();
        g.ctl.flow_ts(t1, s[1]).unwrap();
        let t2 = g.ctl.add_transition("t2");
        g.ctl.flow_st(s[1], t2).unwrap();
        g.ctl.flow_ts(t2, s[2]).unwrap();
        let t3 = g.ctl.add_transition("t3");
        g.ctl.flow_st(s[2], t3).unwrap();
        let cfg = OracleConfig {
            environments: 4,
            policy_seeds: 0,
            ..Default::default()
        };
        let verdict = semantic_oracle(&g0, &g, cfg);
        assert!(!verdict.passed(), "{verdict:?}");
        // And the structural check agrees.
        assert!(!check_data_invariant(&g0, &g).is_equivalent());
    }
}
