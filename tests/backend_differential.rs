//! The backend differential battery: the compiled step engine against the
//! interpreter reference, over the whole benchmark catalogue × firing
//! policies × policy seeds × fault plans.
//!
//! "Bit-identical" here is literal: the tests byte-compare the `Debug`
//! rendering of whole traces (external events, termination, step/firing
//! counts, watched waveforms, marking rows, coverage DBs) and the rendered
//! VCD documents — not a projection of them. Any divergence in any field
//! of any run fails the battery.

use etpn_core::Etpn;
use etpn_sim::{
    vcd, Backend, Fault, FaultKind, FaultPlan, FaultSite, FaultWindow, FiringPolicy, Simulator,
    Termination, Trace,
};
use etpn_synth::CompiledDesign;
use etpn_workloads::{by_name, catalog, random_design, Workload};

/// Build a fully instrumented simulator for a catalogue workload.
fn sim<'a>(
    w: &Workload,
    d: &'a CompiledDesign,
    backend: Backend,
    policy: FiringPolicy,
) -> Simulator<'a, etpn_sim::ScriptedEnv> {
    let mut sim = Simulator::new(&d.etpn, w.env())
        .with_backend(backend)
        .with_policy(policy)
        .with_coverage()
        .watch_registers()
        .watch_control();
    for (name, v) in &d.reg_inits {
        sim = sim.init_register(name, *v);
    }
    sim
}

/// Run one configuration on both backends and demand byte-identity of the
/// full trace (or of the error) and of the rendered VCD.
fn assert_identical(w: &Workload, d: &CompiledDesign, policy: FiringPolicy) {
    let interp = sim(w, d, Backend::Interp, policy).run(w.max_steps);
    let compiled = sim(w, d, Backend::Compiled, policy).run(w.max_steps);
    assert_eq!(
        format!("{interp:?}"),
        format!("{compiled:?}"),
        "{} under {policy:?}: interp and compiled traces diverge",
        w.name
    );
    if let (Ok(ti), Ok(tc)) = (&interp, &compiled) {
        assert_eq!(
            vcd::render(&d.etpn, ti),
            vcd::render(&d.etpn, tc),
            "{} under {policy:?}: VCD bytes diverge",
            w.name
        );
    }
}

/// Every catalogue workload, under the deterministic policy and two seeds
/// of each randomized policy: whole-trace byte-identity, VCD included.
#[test]
fn full_battery_is_byte_identical() {
    for w in catalog() {
        let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
        let mut policies = vec![FiringPolicy::MaximalStep];
        for seed in [3u64, 11] {
            policies.push(FiringPolicy::RandomMaximal { seed });
            policies.push(FiringPolicy::SingleRandom { seed });
        }
        for policy in policies {
            assert_identical(&w, &d, policy);
        }
    }
}

/// Coverage DBs (place/transition/arc/guard-outcome hits) must be equal —
/// the PR 5 coverage hooks observe the same step stream on both engines.
#[test]
fn coverage_dbs_are_identical() {
    for w in catalog() {
        let d = etpn_synth::compile_source(&w.source).unwrap();
        let ti = sim(&w, &d, Backend::Interp, FiringPolicy::MaximalStep)
            .run(w.max_steps)
            .unwrap();
        let tc = sim(&w, &d, Backend::Compiled, FiringPolicy::MaximalStep)
            .run(w.max_steps)
            .unwrap();
        let (ci, cc) = (ti.cov.expect("interp cov"), tc.cov.expect("compiled cov"));
        assert_eq!(ci, cc, "{}: coverage DBs diverge", w.name);
        assert!(ci.runs > 0);
    }
}

/// Every `Termination` variant the simulator can produce is produced, and
/// produced identically, by both engines.
#[test]
fn termination_variants_agree() {
    let run_both = |g: &Etpn, env: etpn_sim::ScriptedEnv, steps: u64| {
        let ti = Simulator::new(g, env.clone())
            .with_backend(Backend::Interp)
            .run(steps)
            .unwrap();
        let tc = Simulator::new(g, env).run(steps).unwrap();
        assert_eq!(ti.termination, tc.termination);
        ti.termination
    };

    // Terminated: gcd runs to completion.
    let w = by_name("gcd").unwrap();
    let d = etpn_synth::compile_source(&w.source).unwrap();
    let term = {
        let ti = sim(&w, &d, Backend::Interp, FiringPolicy::MaximalStep)
            .run(w.max_steps)
            .unwrap();
        let tc = sim(&w, &d, Backend::Compiled, FiringPolicy::MaximalStep)
            .run(w.max_steps)
            .unwrap();
        assert_eq!(ti.termination, tc.termination);
        ti.termination
    };
    assert_eq!(term, Termination::Terminated);

    // StepLimit: a design starved of budget.
    let g = random_design(1, 32, 4);
    let env = etpn_sim::ScriptedEnv::new().with_stream("x", (0..64).collect::<Vec<_>>());
    assert_eq!(run_both(&g, env, 3), Termination::StepLimit);

    // Deadlock: starve a join of one partner token (losing a design's
    // *only* token terminates it instead — Def. 3.1(6)). Both engines must
    // classify the stuck join identically after the conservative resync
    // the control fault forces on the compiled side.
    let mut b = etpn_core::EtpnBuilder::new();
    let s0 = b.place("s0");
    let sa = b.place("sa");
    let sb = b.place("sb");
    let sj = b.place("sj");
    let fork = b.transition("fork");
    b.flow_st(s0, fork);
    b.flow_ts(fork, sa);
    b.flow_ts(fork, sb);
    let join = b.transition("join");
    b.flow_st(sa, join);
    b.flow_st(sb, join);
    b.flow_ts(join, sj);
    let t_end = b.transition("t_end");
    b.flow_st(sj, t_end);
    b.mark(s0);
    let g = b.finish().unwrap();
    let plan = FaultPlan::single(Fault {
        site: FaultSite::Place(sa),
        kind: FaultKind::TokenLoss,
        window: FaultWindow::Transient(1),
    });
    let ti = Simulator::new(&g, etpn_sim::ScriptedEnv::new())
        .with_backend(Backend::Interp)
        .with_faults(plan.clone())
        .run(200)
        .unwrap();
    let tc = Simulator::new(&g, etpn_sim::ScriptedEnv::new())
        .with_faults(plan)
        .run(200)
        .unwrap();
    assert_eq!(ti.termination, tc.termination);
    assert_eq!(ti.termination, Termination::Deadlock);
}

/// Random single-fault plans (data and control, transient and permanent)
/// over gcd and diffeq: the engines must agree on every faulty run,
/// including runs that end in a monitor error instead of a trace.
#[test]
fn fault_plans_are_byte_identical() {
    for name in ["gcd", "diffeq"] {
        let w = by_name(name).unwrap();
        let d = etpn_synth::compile_source(&w.source).unwrap();
        let mut faults = FaultPlan::random_faults(&d.etpn, 42, 16, w.max_steps.min(200));
        // The deterministic control sweep guarantees the battery crosses
        // outcome classes: duplicating the marked place's token trips the
        // Def. 3.2(2) monitor, losing it cuts the run short.
        faults.extend(FaultPlan::sweep_control_places(&d.etpn, 1));
        assert!(!faults.is_empty());
        let mut outcomes = std::collections::BTreeMap::<String, usize>::new();
        for fault in faults {
            let plan = FaultPlan::single(fault);
            let run = |backend| {
                let mut s = Simulator::new(&d.etpn, w.env())
                    .with_backend(backend)
                    .with_faults(plan.clone())
                    .with_coverage();
                for (n, v) in &d.reg_inits {
                    s = s.init_register(n, *v);
                }
                s.run(w.max_steps)
            };
            let interp = run(Backend::Interp);
            let compiled = run(Backend::Compiled);
            assert_eq!(
                format!("{interp:?}"),
                format!("{compiled:?}"),
                "{name}: {} diverges",
                fault.describe(&d.etpn)
            );
            let key = match &interp {
                Ok(t) => format!("{:?}", t.termination),
                Err(_) => "error".to_string(),
            };
            *outcomes.entry(key).or_default() += 1;
        }
        // The sweep must actually exercise more than one outcome class,
        // otherwise the agreement above proves little.
        assert!(
            outcomes.len() > 1,
            "{name}: fault sweep produced a single outcome class: {outcomes:?}"
        );
    }
}

/// The compiled engine observes coverage event-driven between full walks
/// and by full scan after each one. CovDb bytes must equal the
/// interpreter's around every switch between the two: a control fault
/// (a resync), a transient forced data fault (a forced walk, then a
/// resync), and a run cut right after a step whose commit opened arcs
/// that no evaluation ever saw.
#[test]
fn coverage_bytes_agree_across_full_walks_and_cut_runs() {
    let cov_bytes = |r: &Result<Trace, etpn_sim::SimError>| {
        r.as_ref()
            .ok()
            .and_then(|t| t.cov.as_ref())
            .map(|db| db.to_bytes())
    };
    for name in ["gcd", "diffeq"] {
        let w = by_name(name).unwrap();
        let d = etpn_synth::compile_source(&w.source).unwrap();
        let run = |backend, plan: Option<&FaultPlan>, steps| {
            let mut s = Simulator::new(&d.etpn, w.env())
                .with_backend(backend)
                .with_coverage();
            if let Some(plan) = plan {
                s = s.with_faults(plan.clone());
            }
            for (n, v) in &d.reg_inits {
                s = s.init_register(n, *v);
            }
            s.run(steps)
        };

        let mut faults = FaultPlan::sweep_control_places(&d.etpn, 5);
        faults.extend(FaultPlan::sweep_data_ports(
            &d.etpn,
            &[FaultKind::BitFlip(0)],
            5,
        ));
        for fault in faults {
            let plan = FaultPlan::single(fault);
            let interp = run(Backend::Interp, Some(&plan), w.max_steps);
            let compiled = run(Backend::Compiled, Some(&plan), w.max_steps);
            assert_eq!(
                cov_bytes(&interp),
                cov_bytes(&compiled),
                "{name}: {}",
                fault.describe(&d.etpn)
            );
        }

        let steps = run(Backend::Interp, None, w.max_steps).unwrap().steps;
        let mut unseen_arcs_cut = false;
        let mut prev_arcs = None;
        for cut in 1..=steps.min(64) {
            let interp = run(Backend::Interp, None, cut);
            let compiled = run(Backend::Compiled, None, cut);
            assert_eq!(
                cov_bytes(&interp),
                cov_bytes(&compiled),
                "{name}: run cut after {cut} steps"
            );
            // A step that sees arcs no earlier step saw means the cut one
            // step shorter ended on a commit that opened them.
            let arcs = interp.unwrap().cov.unwrap().arc_open;
            unseen_arcs_cut |= prev_arcs.is_some_and(|p| p != arcs);
            prev_arcs = Some(arcs);
        }
        assert!(
            unseen_arcs_cut,
            "{name}: no cut ended on a commit that opened unseen arcs"
        );
    }
}

/// External event structures (Def. 3.4/3.5) extracted from both engines'
/// traces are equal for every workload — the headline claim of the PR,
/// stated on the paper's own observability notion.
#[test]
fn event_structures_agree_on_every_workload() {
    for w in catalog() {
        let d = etpn_synth::compile_source(&w.source).unwrap();
        let run = |backend| -> Trace {
            let mut s = Simulator::new(&d.etpn, w.env()).with_backend(backend);
            for (n, v) in &d.reg_inits {
                s = s.init_register(n, *v);
            }
            s.run(w.max_steps).unwrap()
        };
        let si = etpn_sim::event_structure(&d.etpn, &run(Backend::Interp));
        let sc = etpn_sim::event_structure(&d.etpn, &run(Backend::Compiled));
        assert_eq!(si, sc, "{}: {:?}", w.name, si.first_difference(&sc));
    }
}

/// An input conflict that first appears on an incremental step: s0 loads
/// register r from k1, then t0 forks into s1 (r ← k1) and s2 (r ← k2).
/// Step 0 is the compiled engine's full walk with one arc open; step 1,
/// its first incremental step, opens both. The engines must name the
/// same port, the same arcs in adjacency order, and the same step.
#[test]
fn input_conflict_on_an_incremental_step_agrees() {
    let mut b = etpn_core::EtpnBuilder::new();
    let k1 = b.constant(1, "k1");
    let k2 = b.constant(2, "k2");
    let r = b.register("r");
    let r_in = b.in_port(r, 0);
    let a0 = b.connect(b.out_port(k1, 0), r_in);
    let a1 = b.connect(b.out_port(k2, 0), r_in);
    let s0 = b.place("s0");
    let s1 = b.place("s1");
    let s2 = b.place("s2");
    b.control(s0, [a0]);
    b.control(s1, [a0]);
    b.control(s2, [a1]);
    let t0 = b.seq(s0, s1, "t0");
    b.flow_ts(t0, s2);
    b.mark(s0);
    let g = b.finish().unwrap();
    let expected = etpn_sim::SimError::InputConflict {
        port: r_in,
        arcs: vec![a0, a1],
        step: 1,
    };
    for backend in [Backend::Interp, Backend::Compiled] {
        let err = Simulator::new(&g, etpn_sim::ScriptedEnv::new())
            .with_backend(backend)
            .run(10)
            .expect_err("the fork opens two arcs into r");
        assert_eq!(err, expected, "{backend:?}");
    }
}
