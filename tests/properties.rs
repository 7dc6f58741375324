//! Property-based tests over random programs and designs.
//!
//! The generators produce random *valid* behavioural programs
//! (`etpn_workloads::random_program`), which are then pushed through the
//! whole stack: compilation totality, proper-design preservation,
//! simulator/interpreter agreement, and transformation round-trips.

use etpn_analysis::proper::check_properly_designed;
use etpn_core::ControlRelations;
use etpn_sim::{ScriptedEnv, Simulator, Termination};
use etpn_transform::{check_data_invariant, Parallelizer, Serializer};
use etpn_workloads::{interpret, random_program, ProgramShape};
use proptest::prelude::*;

fn shape_strategy() -> impl Strategy<Value = ProgramShape> {
    (4usize..40, 4usize..10, 0u32..60).prop_map(|(assignments, registers, par_percent)| {
        ProgramShape {
            assignments,
            registers,
            par_percent,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated program compiles into a properly designed system.
    #[test]
    fn random_programs_compile_properly(seed in 0u64..1000, shape in shape_strategy()) {
        let prog = random_program(seed, shape);
        let src = etpn_lang::pretty(&prog);
        let d = etpn_synth::compile_source(&src).expect("compiles");
        let report = check_properly_designed(&d.etpn);
        prop_assert!(report.is_proper(), "{}", report.summary());
    }

    /// The ETPN simulation of a random program agrees with the independent
    /// AST interpreter on every output.
    #[test]
    fn simulator_matches_interpreter(seed in 0u64..1000, shape in shape_strategy(), x in -1000i64..1000) {
        let prog = random_program(seed, shape);
        let inputs = vec![("x".to_string(), vec![x])];
        let expected = interpret(&prog, &inputs).expect("reference run");
        let d = etpn_synth::compile(&prog).expect("compiles");
        let env = ScriptedEnv::new().with_stream("x", [x]);
        let mut sim = Simulator::new(&d.etpn, env);
        for (name, v) in &d.reg_inits {
            sim = sim.init_register(name, *v);
        }
        let trace = sim.run(100_000).expect("simulates");
        prop_assert_eq!(trace.termination, Termination::Terminated);
        for out in &prog.outputs {
            prop_assert_eq!(
                trace.values_on_named_output(&d.etpn, out),
                expected[out].clone(),
                "output {} diverged", out
            );
        }
    }

    /// Parallelise-then-serialise restores the exact order relations and
    /// Def. 4.5 equivalence to the original.
    #[test]
    fn parallelize_serialize_roundtrip(seed in 0u64..500) {
        let prog = random_program(seed, ProgramShape {
            assignments: 12,
            registers: 6,
            par_percent: 0,
        });
        let g0 = etpn_synth::compile(&prog).expect("compiles").etpn;
        let dd = etpn_analysis::DataDependence::compute(&g0);
        let par = Parallelizer::new(&dd);
        // Find any legal pair; not every random program has one.
        let pair = g0
            .ctl
            .transitions()
            .iter()
            .filter(|(_, tr)| tr.guards.is_empty() && tr.pre.len() == 1 && tr.post.len() == 1)
            .map(|(_, tr)| (tr.pre[0], tr.post[0]))
            .find(|&(a, b)| par.check(&g0, a, b).is_ok());
        if let Some((a, b)) = pair {
            let mut g = g0.clone();
            par.apply(&mut g, a, b).unwrap();
            prop_assert!(check_data_invariant(&g0, &g).is_equivalent());
            Serializer::apply(&mut g, a, b).unwrap();
            // Order relations fully restored.
            let r0 = ControlRelations::compute(&g0.ctl);
            let r1 = ControlRelations::compute(&g.ctl);
            for &si in r0.places() {
                for &sj in r0.places() {
                    prop_assert_eq!(r0.leads_to(si, sj), r1.leads_to(si, sj));
                }
            }
        }
    }

    /// The pretty-printer round-trips every generated program. Spans in
    /// the reparsed AST differ (they index the printed text), so the
    /// round-trip is asserted on the printed fixed point.
    #[test]
    fn pretty_parse_roundtrip(seed in 0u64..1000, shape in shape_strategy()) {
        let prog = random_program(seed, shape);
        let printed = etpn_lang::pretty(&prog);
        let reparsed = etpn_lang::parse(&printed).expect("pretty output parses");
        prop_assert_eq!(printed, etpn_lang::pretty(&reparsed));
    }

    /// Random mixed transformation sequences never change a random
    /// program's outputs (the E1/E2 protocol generalised beyond the
    /// benchmark catalogue).
    #[test]
    fn random_transform_sequences_preserve_outputs(seed in 0u64..300, tseed in 0u64..10) {
        let prog = random_program(seed, ProgramShape {
            assignments: 12,
            registers: 6,
            par_percent: 25,
        });
        let inputs = vec![("x".to_string(), vec![11])];
        let expected = interpret(&prog, &inputs).expect("reference run");
        let d = etpn_synth::compile(&prog).expect("compiles");
        let (g2, _) = etpn_bench::seqgen::random_sequence(
            &d.etpn,
            etpn_bench::seqgen::Family::Mixed,
            tseed,
            6,
        );
        let env = ScriptedEnv::new().with_stream("x", [11]);
        let mut sim = Simulator::new(&g2, env);
        for (name, v) in &d.reg_inits {
            sim = sim.init_register(name, *v);
        }
        let trace = sim.run(100_000).expect("simulates");
        for out in &prog.outputs {
            prop_assert_eq!(
                trace.values_on_named_output(&g2, out),
                expected[out].clone(),
                "output {}", out
            );
        }
    }

    /// Unrolling any structured loop of a random program preserves outputs.
    #[test]
    fn unroll_preserves_outputs(n in 0i64..12) {
        let src = "design cnt { in n; out y; reg i = 0, lim, acc = 1;
            lim = n;
            while (i < lim) {
                acc = acc + acc;
                i = i + 1;
            }
            y = acc; }";
        let d = etpn_synth::compile_source(src).expect("compiles");
        let mut g = d.etpn.clone();
        for decide in etpn_transform::find_loops(&g) {
            etpn_transform::unroll_loop(&mut g, decide).expect("unrolls");
        }
        let run = |g: &etpn_core::Etpn| {
            let mut sim = Simulator::new(g, ScriptedEnv::new().with_stream("n", [n]));
            for (name, v) in &d.reg_inits {
                sim = sim.init_register(name, *v);
            }
            sim.run(100_000).unwrap().values_on_named_output(g, "y")
        };
        prop_assert_eq!(run(&d.etpn), run(&g));
    }

    /// Compaction and compilation preserve the program's observable
    /// semantics under *any* firing policy (policy-invariance on random
    /// programs — the generalised E10).
    #[test]
    fn random_programs_are_policy_invariant(seed in 0u64..200, policy_seed in 0u64..8) {
        let prog = random_program(seed, ProgramShape {
            assignments: 10,
            registers: 5,
            par_percent: 50,
        });
        let d = etpn_synth::compile(&prog).expect("compiles");
        let env = ScriptedEnv::new().with_stream("x", [7]);
        let run = |policy| {
            let mut sim = Simulator::new(&d.etpn, env.clone()).with_policy(policy);
            for (name, v) in &d.reg_inits {
                sim = sim.init_register(name, *v);
            }
            sim.run(100_000).expect("simulates")
        };
        let reference = run(etpn_sim::FiringPolicy::MaximalStep);
        let other = run(etpn_sim::FiringPolicy::SingleRandom { seed: policy_seed });
        let s1 = etpn_sim::event_structure(&d.etpn, &reference);
        let s2 = etpn_sim::event_structure(&d.etpn, &other);
        prop_assert_eq!(&s1, &s2, "difference: {:?}", s1.first_difference(&s2));
    }
}

// Backend cross-checks: the compiled step engine against the interpreter
// reference, on `random_design` (full designs: expression trees, guarded
// branches, diamonds, an input stream and an external output). A failing
// case replays from the printed integers alone.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The compiled backend produces a bit-identical run for any random
    /// design, policy, and input stream: same external event structure,
    /// same termination, same step and firing counts.
    #[test]
    fn compiled_backend_matches_interpreter(
        seed in 0u64..10_000,
        n_places in 2usize..48,
        n_regs in 1usize..9,
        policy_seed in 0u64..4,
        xs in prop::collection::vec(-8i64..8, 1usize..48),
    ) {
        let g = etpn_workloads::random_design(seed, n_places, n_regs);
        let policies = [
            etpn_sim::FiringPolicy::MaximalStep,
            etpn_sim::FiringPolicy::RandomMaximal { seed: policy_seed },
            etpn_sim::FiringPolicy::SingleRandom { seed: policy_seed },
        ];
        for policy in policies {
            let run = |backend| {
                let env = ScriptedEnv::new().with_stream("x", xs.clone());
                Simulator::new(&g, env)
                    .with_backend(backend)
                    .with_policy(policy)
                    .run(300)
            };
            let interp = run(etpn_sim::Backend::Interp);
            let compiled = run(etpn_sim::Backend::Compiled);
            match (&interp, &compiled) {
                (Ok(ti), Ok(tc)) => {
                    let si = etpn_sim::event_structure(&g, ti);
                    let sc = etpn_sim::event_structure(&g, tc);
                    prop_assert_eq!(&si, &sc, "policy {:?}: {:?}", policy, si.first_difference(&sc));
                    prop_assert_eq!(ti.termination, tc.termination, "policy {:?}", policy);
                    prop_assert_eq!((ti.steps, ti.firings), (tc.steps, tc.firings), "policy {:?}", policy);
                }
                _ => {
                    // Errors (if the generator ever produces one) must be
                    // identical on both engines.
                    prop_assert_eq!(
                        format!("{interp:?}"),
                        format!("{compiled:?}"),
                        "policy {:?}", policy
                    );
                }
            }
        }
    }

    /// Dirty-set soundness: in verified mode the compiled engine
    /// cross-checks every incremental step — its values against a fresh
    /// full re-evaluation, its event-driven coverage observation against a
    /// full scan — and panics on any divergence, so completing the run
    /// *is* the property.
    #[test]
    fn dirty_set_is_sound(
        seed in 0u64..10_000,
        n_places in 2usize..48,
        n_regs in 1usize..9,
        xs in prop::collection::vec(-8i64..8, 1usize..48),
    ) {
        let g = etpn_workloads::random_design(seed, n_places, n_regs);
        let env = ScriptedEnv::new().with_stream("x", xs.clone());
        let verified = Simulator::new(&g, env).compiled_verified().with_coverage().run(300);
        let env = ScriptedEnv::new().with_stream("x", xs);
        let interp = Simulator::new(&g, env)
            .with_backend(etpn_sim::Backend::Interp)
            .with_coverage()
            .run(300);
        prop_assert_eq!(format!("{verified:?}"), format!("{interp:?}"));
    }
}
