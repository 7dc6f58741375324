//! Integration tests for the `etpn-lint` static verifier.
//!
//! Four families:
//!
//! 1. **Cleanliness** — every shipped workload and example lints to zero
//!    `E2xx` findings (properly designed *and* race/dead-code free).
//! 2. **Seeded mutations** — designs deliberately broken in ways the
//!    Def. 3.2 `check_properly_designed` procedure cannot see (its
//!    parallelism judgement lives on the acyclic skeleton), which the new
//!    lints must catch: a write-write race hidden behind a dead
//!    synchronising transition, and a floating dead subsystem.
//! 3. **Properties** — the structural fast paths agree with exhaustive
//!    reachability on random designs: invariant-certified safeness is
//!    never contradicted by exploration, and the race lint never reports
//!    a pair the complete reachability graph proves non-concurrent.
//! 4. **Agreement** — lint and `check_properly_designed` reach one Def. 3.2
//!    verdict on every design, rule by rule.

use etpn::analysis::proper::{
    check_properly_designed, check_properly_designed_with, shared_resources, SafetyVerdict,
};
use etpn::analysis::reach::{is_safe, ReachGraph};
use etpn::analysis::{cyclic_closure, p_invariants};
use etpn::core::{ControlRelations, Etpn, EtpnBuilder, Op};
use etpn::lint::{lint, lint_compiled, possibly_concurrent_writes, LintConfig, Severity};
use etpn::synth::SourceMap;
use etpn_workloads::{catalog, random_net, random_program, ProgramShape};
use proptest::prelude::*;

/// Every shipped workload is free of `E2xx` findings (Def. 3.2 holds) —
/// and in fact free of warnings too: the lints hold on real designs.
#[test]
fn shipped_workloads_lint_clean() {
    for w in catalog() {
        let d = etpn::synth::compile_source(&w.source)
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", w.name));
        let report = lint_compiled(&d, &LintConfig::default());
        let errors: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{}: {errors:?}", w.name);
        let warnings: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .collect();
        assert!(warnings.is_empty(), "{}: {warnings:?}", w.name);
    }
}

/// The shipped example file lints clean through the same path `etpnc
/// check` uses.
#[test]
fn gcd_example_lints_clean() {
    let src = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/gcd.hdl"))
        .expect("example present");
    let d = etpn::synth::compile_source(&src).expect("compiles");
    let report = lint_compiled(&d, &LintConfig::default());
    assert!(!report.has_denied(true), "{:?}", report.diagnostics);
}

/// Seed a write-write race into compiled gcd that `check_properly_designed`
/// misses.
///
/// The mutation: a marked rogue place `s_rogue` opens a new arc driving
/// the `x` register, and a transition `t_never` (whose second input place
/// `s_never` is unmarked and has no producer) connects `s_rogue` to the
/// design's initial place. The flow path `s_rogue → t_never → s_init`
/// makes `s_rogue` *sequential* to every working state on the acyclic
/// skeleton, so the Def. 3.2(1) parallel-resource check never compares
/// them — yet `t_never` can never fire, so `s_rogue` stays marked while
/// the real `x` writers run: a true write-write race.
#[test]
fn seeded_race_mutation_caught_by_lint_not_proper() {
    let d = etpn::synth::compile_source(&etpn_workloads::gcd::source()).expect("compiles");
    let mut g = d.etpn.clone();

    let x = g.dp.vertex_by_name("x").expect("gcd has register x");
    let y = g.dp.vertex_by_name("y").expect("gcd has register y");
    let rogue_arc =
        g.dp.connect(g.dp.out_port(y, 0), g.dp.in_port(x, 0))
            .expect("new write arc");
    let s_init = *g
        .ctl
        .initial_places()
        .first()
        .expect("gcd has an initial place");
    let s_rogue = g.ctl.add_place("s_rogue");
    let s_never = g.ctl.add_place("s_never");
    let t_never = g.ctl.add_transition("t_never");
    g.ctl.flow_st(s_rogue, t_never).unwrap();
    g.ctl.flow_st(s_never, t_never).unwrap();
    g.ctl.flow_ts(t_never, s_init).unwrap();
    g.ctl.add_ctrl(s_rogue, rogue_arc);
    g.ctl.set_marked0(s_rogue, true);

    // The old checker is blind to it: the design still passes Def. 3.2.
    let proper = check_properly_designed(&g);
    assert!(proper.is_proper(), "{}", proper.summary());

    // The reachability graph confirms the race is real, not a lint
    // over-approximation artefact: s_rogue is co-marked with an x-writer.
    let graph = ReachGraph::explore(&g.ctl, 1 << 16);
    assert!(graph.complete);
    let races = possibly_concurrent_writes(&g);
    assert!(
        races
            .iter()
            .any(|r| (r.s1 == s_rogue || r.s2 == s_rogue) && graph.ever_comarked(r.s1, r.s2)),
        "{races:?}"
    );

    // And the lint reports it as W307, along with the dead scaffolding.
    let report = lint(&g, &SourceMap::default(), &LintConfig::default());
    let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code.id).collect();
    assert!(codes.contains(&"W307"), "{:?}", report.diagnostics);
    assert!(codes.contains(&"W301"), "s_never is dead: {codes:?}");
    assert!(codes.contains(&"W302"), "t_never is dead: {codes:?}");
    assert!(!codes.iter().any(|c| c.starts_with("E2")), "{codes:?}");
}

/// Seed a floating dead subsystem into compiled diffeq: an unmarked,
/// producer-less place opening a write into a fresh register, plus a dead
/// transition. `check_properly_designed` still passes (the subsystem
/// shares nothing and does observable work *if it ever ran*), but every
/// dead-code layer fires: place, transition, vertex, and arc.
#[test]
fn seeded_dead_code_mutation_caught_on_every_layer() {
    let d = etpn::synth::compile_source(&etpn_workloads::diffeq::source()).expect("compiles");
    let mut g = d.etpn.clone();

    let src_reg =
        g.dp.vertices()
            .iter()
            .find(|(v, vx)| {
                vx.kind == etpn::core::vertex::VertexKind::Unit && g.dp.is_sequential_vertex(*v)
            })
            .map(|(v, _)| v)
            .expect("diffeq has a register");
    let reg_dead = g.dp.add_register("reg_dead");
    let dead_arc =
        g.dp.connect(g.dp.out_port(src_reg, 0), g.dp.in_port(reg_dead, 0))
            .expect("new arc");
    let s_float = g.ctl.add_place("s_float");
    let t_dead = g.ctl.add_transition("t_dead");
    g.ctl.flow_st(s_float, t_dead).unwrap();
    g.ctl.add_ctrl(s_float, dead_arc);

    let proper = check_properly_designed(&g);
    assert!(proper.is_proper(), "{}", proper.summary());

    let report = lint(&g, &SourceMap::default(), &LintConfig::default());
    let has = |code: &str, what: &str| {
        assert!(
            report.diagnostics.iter().any(|d| d.code.id == code),
            "missing {code} ({what}): {:?}",
            report.diagnostics
        );
    };
    has("W301", "dead place s_float");
    has("W302", "dead transition t_dead");
    has("W303", "dead vertex reg_dead");
    has("W304", "dead arc into reg_dead");
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.code.id.starts_with("E2")),
        "{:?}",
        report.diagnostics
    );
}

/// The SARIF output of a real finding round-trips through the JSON parser
/// with the shape CI ingesters require.
#[test]
fn sarif_output_shape() {
    let src = "design w { in a; out y; reg r, s;\n  r = a;\n  s = a;\n  y = s; }";
    let d = etpn::synth::compile_source(src).expect("compiles");
    let report = lint_compiled(&d, &LintConfig::default());
    assert!(!report.diagnostics.is_empty(), "fixture must have findings");
    let doc = etpn::core::json::parse(&etpn::lint::render::sarif(
        &report.diagnostics,
        "w.hdl",
        src,
    ))
    .expect("valid JSON");
    assert_eq!(doc.req("version").unwrap().as_str().unwrap(), "2.1.0");
    let run = &doc.req("runs").unwrap().as_arr().unwrap()[0];
    let rules = run
        .req("tool")
        .unwrap()
        .req("driver")
        .unwrap()
        .req("rules")
        .unwrap()
        .as_arr()
        .unwrap()
        .len();
    assert_eq!(rules, etpn::lint::ALL_CODES.len());
    for result in run.req("results").unwrap().as_arr().unwrap() {
        let id = result.req("ruleId").unwrap().as_str().unwrap();
        assert!(etpn::lint::lookup(id).is_some(), "unknown ruleId {id}");
        let idx = result.req("ruleIndex").unwrap().as_index().unwrap();
        assert!(idx < rules);
    }
}

/// Hand-built nets that exercise the rules compiled designs never break:
/// parallel sharing (E201), an unsafe token generator (E202, or W390
/// under a tiny budget), a safe net no invariant covers (W390 under a tiny
/// budget) and a working state that latches nothing (E205).
fn rule_fixtures() -> Vec<(String, Etpn)> {
    let shared = {
        let mut b = EtpnBuilder::new();
        let c1 = b.constant(1, "c1");
        let r = b.register("r");
        let a1 = b.connect(b.out_port(c1, 0), b.in_port(r, 0));
        let (s0, sa, sb) = (b.place("s0"), b.place("sa"), b.place("sb"));
        b.control(sa, [a1]);
        b.control(sb, [a1]);
        let tf = b.transition("fork");
        b.flow_st(s0, tf);
        b.flow_ts(tf, sa);
        b.flow_ts(tf, sb);
        b.mark(s0);
        b.finish().unwrap()
    };
    let generator = {
        // t0 : s0 → {s0, s1} mints a token on s1 at every firing.
        let mut b = EtpnBuilder::new();
        let (s0, s1) = (b.place("s0"), b.place("s1"));
        let t0 = b.transition("t0");
        b.flow_st(s0, t0);
        b.flow_ts(t0, s0);
        b.flow_ts(t0, s1);
        b.mark(s0);
        b.finish().unwrap()
    };
    let uncovered = {
        // s0 ⇄ s1 is covered; the unmarked self-loop on s2 is bounded but
        // in no invariant of initial count 1, so only exploration decides.
        let mut b = EtpnBuilder::new();
        let (s0, s1, s2) = (b.place("s0"), b.place("s1"), b.place("s2"));
        b.seq(s0, s1, "t0");
        b.seq(s1, s0, "t1");
        let t2 = b.transition("t2");
        b.flow_st(s2, t2);
        b.flow_ts(t2, s2);
        b.mark(s0);
        b.finish().unwrap()
    };
    let no_latch = {
        let mut b = EtpnBuilder::new();
        let c = b.constant(1, "c");
        let p = b.operator(Op::Pass, 1, "p");
        let a = b.connect(b.out_port(c, 0), b.in_port(p, 0));
        let (s0, s1) = (b.place("s0"), b.place("s1"));
        b.control(s0, [a]);
        b.seq(s0, s1, "t");
        b.mark(s0);
        b.finish().unwrap()
    };
    vec![
        ("shared".into(), shared),
        ("generator".into(), generator),
        ("uncovered".into(), uncovered),
        ("no_latch".into(), no_latch),
    ]
}

/// Lint and `check_properly_designed` reach one Def. 3.2 verdict: a design
/// is properly designed exactly when lint reports no `E2xx` and no `W390`,
/// and each rule's code mirrors its analysis finding — on the catalogue,
/// the wide `par` example (whose 2^17 markings only the invariant cover
/// settles), random programs with `par`, random nets and the rule
/// fixtures, under the default budget and a one-marking budget.
#[test]
fn lint_and_proper_agree_on_every_rule() {
    let compile = |src: &str| etpn::synth::compile_source(src).expect("compiles");
    let mut designs: Vec<(String, Etpn, SourceMap)> = Vec::new();
    for w in catalog() {
        let d = compile(&w.source);
        designs.push((w.name.to_string(), d.etpn, d.src_map));
    }
    let wide = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/wide_par.hdl"
    ))
    .expect("example present");
    let d = compile(&wide);
    designs.push(("wide_par".into(), d.etpn, d.src_map));
    for seed in 0..24 {
        let shape = ProgramShape {
            assignments: 4 + (seed as usize % 12),
            registers: 5,
            par_percent: 50,
        };
        let d = etpn::synth::compile(&random_program(seed, shape)).expect("compiles");
        designs.push((format!("random_program({seed})"), d.etpn, d.src_map));
        let n_places = 3 + seed as usize % 21;
        designs.push((
            format!("random_net({seed}, {n_places})"),
            random_net(seed, n_places),
            SourceMap::default(),
        ));
    }
    for (name, g) in rule_fixtures() {
        designs.push((name, g, SourceMap::default()));
    }

    let mut seen = std::collections::BTreeSet::new();
    for (name, g, map) in &designs {
        for max_states in [1 << 16, 1] {
            let proper = check_properly_designed_with(g, max_states);
            let cfg = LintConfig {
                max_states,
                ..LintConfig::default()
            };
            let report = lint(g, map, &cfg);
            let count = |code: &str| {
                report
                    .diagnostics
                    .iter()
                    .filter(|d| d.code.id == code)
                    .count()
            };
            let ctx = format!(
                "{name} @ {max_states}: {}{:?}",
                proper.summary(),
                report.diagnostics
            );
            seen.extend(report.diagnostics.iter().map(|d| d.code.id));

            let denied = report
                .diagnostics
                .iter()
                .any(|d| d.code.id.starts_with("E2") || d.code.id == "W390");
            assert_eq!(proper.is_proper(), !denied, "{ctx}");
            let rel = ControlRelations::compute_acyclic(&g.ctl);
            assert_eq!(count("E201"), shared_resources(g, &rel).len(), "{ctx}");
            assert_eq!(
                count("E202") == 1,
                matches!(proper.safety, SafetyVerdict::Unsafe { .. }),
                "{ctx}"
            );
            assert_eq!(
                count("W390") == 1,
                matches!(proper.safety, SafetyVerdict::Unknown { .. }),
                "{ctx}"
            );
            assert_eq!(count("E205"), proper.no_sequential.len(), "{ctx}");
            assert_eq!(count("W308"), proper.idle_states.len(), "{ctx}");
        }
    }
    // Every rule's code actually fired somewhere, so no check above is
    // vacuous.
    for code in ["E201", "E202", "E205", "W308", "W390"] {
        assert!(seen.contains(code), "{code} never fired: {seen:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant-certified safeness is never contradicted by exhaustive
    /// exploration: `structurally_safe` on the cyclic closure is a sound
    /// fast path for the safeness lint.
    #[test]
    fn structural_safeness_implies_explored_safeness(
        seed in 0u64..500,
        n_places in 3usize..24,
    ) {
        let g = random_net(seed, n_places);
        let closed = cyclic_closure(&g.ctl);
        if p_invariants(&closed).structurally_safe(&closed) {
            prop_assert_eq!(is_safe(&g.ctl, 1 << 14), Some(true));
        }
    }

    /// The race lint over-approximates concurrency but never *invents*
    /// it on compiled structured programs: every reported pair really is
    /// co-marked somewhere in the (complete) reachability graph.
    #[test]
    fn race_lint_agrees_with_reachability(
        seed in 0u64..300,
        assignments in 4usize..20,
        par_percent in 0u32..60,
    ) {
        let prog = random_program(seed, ProgramShape {
            assignments,
            registers: 5,
            par_percent,
        });
        let d = etpn::synth::compile(&prog).expect("compiles");
        let graph = ReachGraph::explore(&d.etpn.ctl, 1 << 14);
        // With an exhausted budget there is nothing to compare against.
        if graph.complete {
            for pair in possibly_concurrent_writes(&d.etpn) {
                prop_assert!(
                    graph.ever_comarked(pair.s1, pair.s2),
                    "false positive: {pair:?} never co-marked"
                );
            }
        }
    }
}
