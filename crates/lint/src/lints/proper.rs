//! The Def. 3.2 checks as lint passes: `E201` resource sharing, `E203`
//! conflicts, `E204` combinational loops, `E205` non-sequential working
//! states, plus the `W308` idle-state note.
//!
//! Safeness (`E202`/`W390`) lives in [`crate::lints::safety`]. Each pass
//! calls the `etpn-analysis` implementation of its rule — the same one
//! [`etpn_analysis::check_properly_designed`] composes — and only turns
//! its findings into source-mapped diagnostics.

use super::{place_name, place_span, trans_name, trans_span, vertex_name, vertex_span};
use crate::diag::{Diagnostic, E201, E203, E204, E205, W308};
use crate::LintContext;
use etpn_analysis::comb_loop::find_all_comb_loops;
use etpn_analysis::conflict::check_conflicts;
use etpn_analysis::proper::working_states;
use etpn_core::{ControlRelations, VertexId};

/// `E201`: parallel states with overlapping associated sets (Def. 3.2(1)).
///
/// Parallelism is judged on the acyclic skeleton, exactly as
/// [`etpn_analysis::proper::check_properly_designed`] does — the race lint
/// ([`crate::lints::race`]) covers the concurrency this skeleton misses.
pub fn shared_resources(cx: &LintContext) -> Vec<Diagnostic> {
    let rel = ControlRelations::compute_acyclic(&cx.g.ctl);
    etpn_analysis::proper::shared_resources(cx.g, &rel)
        .into_iter()
        .map(|sr| {
            let names: Vec<String> = sr.vertices.iter().map(|&v| vertex_name(cx, v)).collect();
            let what = if names.is_empty() {
                "data-path arcs".to_string()
            } else {
                format!("`{}`", names.join("`, `"))
            };
            let mut d = Diagnostic::new(
                E201,
                format!(
                    "parallel states `{}` and `{}` share {what}: concurrent activations \
                     drive the same resource",
                    place_name(cx, sr.s1),
                    place_name(cx, sr.s2),
                ),
            )
            .with_label(place_span(cx, sr.s1), "first parallel state")
            .with_label(place_span(cx, sr.s2), "second parallel state");
            for &v in sr.vertices.iter().take(3) {
                d = d.with_label(
                    vertex_span(cx, v),
                    format!("shared vertex `{}`", vertex_name(cx, v)),
                );
            }
            d
        })
        .collect()
}

/// `E203`: shared-input-place transition pairs whose guard exclusivity is
/// not syntactically provable (Def. 3.2(3)).
pub fn conflicts(cx: &LintContext) -> Vec<Diagnostic> {
    check_conflicts(cx.g)
        .into_iter()
        .filter(|f| !f.proven_exclusive)
        .map(|f| {
            Diagnostic::new(
                E203,
                format!(
                    "transitions `{}` and `{}` leaving place `{}` are not provably \
                     exclusive: {}",
                    trans_name(cx, f.t1),
                    trans_name(cx, f.t2),
                    place_name(cx, f.place),
                    f.reason,
                ),
            )
            .with_label(place_span(cx, f.place), "shared input place")
            .with_label(trans_span(cx, f.t1), "first transition")
            .with_label(trans_span(cx, f.t2), "second transition")
        })
        .collect()
}

/// `E204`: a state whose active subgraph closes a combinational cycle
/// (Def. 3.2(4)). Registers break cycles, so accumulator feedback is fine.
pub fn comb_loops(cx: &LintContext) -> Vec<Diagnostic> {
    find_all_comb_loops(cx.g)
        .into_iter()
        .map(|l| {
            let mut vertices: Vec<VertexId> =
                l.cycle.iter().map(|&p| cx.g.dp.port(p).vertex).collect();
            vertices.dedup();
            let names: Vec<String> = vertices.iter().map(|&v| vertex_name(cx, v)).collect();
            let mut d = Diagnostic::new(
                E204,
                format!(
                    "state `{}` closes a combinational loop through `{}`",
                    place_name(cx, l.place),
                    names.join("` → `"),
                ),
            )
            .with_label(place_span(cx, l.place), "state whose arcs close the loop");
            if let Some(&v) = vertices.first() {
                d = d.with_label(
                    vertex_span(cx, v),
                    format!("cycle passes through `{}`", vertex_name(cx, v)),
                );
            }
            d
        })
        .collect()
}

/// `E205` + `W308`: every *working* state must latch into a sequential
/// vertex or touch the environment (Def. 3.2(5)); states that open no
/// arcs at all are pure synchronisation points and only get a note.
pub fn sequential(cx: &LintContext) -> Vec<Diagnostic> {
    let (no_sequential, idle) = working_states(cx.g);
    let errors = no_sequential.into_iter().map(|s| {
        Diagnostic::new(
            E205,
            format!(
                "state `{}` opens arcs but latches nothing and is invisible \
                 to the environment",
                place_name(cx, s)
            ),
        )
        .with_label(place_span(cx, s), "state doing no observable work")
    });
    let notes = idle.into_iter().map(|s| {
        Diagnostic::new(
            W308,
            format!(
                "state `{}` opens no arcs (pure synchronisation point)",
                place_name(cx, s)
            ),
        )
        .with_label(place_span(cx, s), "idle state")
    });
    errors.chain(notes).collect()
}

#[cfg(test)]
mod tests {
    use crate::{lint, LintConfig};
    use etpn_core::{EtpnBuilder, Op};
    use etpn_synth::SourceMap;

    fn codes(g: &etpn_core::Etpn) -> Vec<&'static str> {
        lint(g, &SourceMap::default(), &LintConfig::default())
            .diagnostics
            .iter()
            .map(|d| d.code.id)
            .collect()
    }

    #[test]
    fn parallel_sharing_is_e201() {
        let mut b = EtpnBuilder::new();
        let c1 = b.constant(1, "c1");
        let r = b.register("r");
        let a1 = b.connect(b.out_port(c1, 0), b.in_port(r, 0));
        let s0 = b.place("s0");
        let sa = b.place("sa");
        let sb = b.place("sb");
        b.control(sa, [a1]);
        b.control(sb, [a1]);
        let tf = b.transition("fork");
        b.flow_st(s0, tf);
        b.flow_ts(tf, sa);
        b.flow_ts(tf, sb);
        b.mark(s0);
        let g = b.finish().unwrap();
        assert!(codes(&g).contains(&"E201"));
    }

    #[test]
    fn unguarded_branch_is_e203() {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let r = b.register("r");
        let a = b.connect(b.out_port(x, 0), b.in_port(r, 0));
        let s0 = b.place("s0");
        b.control(s0, [a]);
        let s1 = b.place("s1");
        let s2 = b.place("s2");
        b.seq(s0, s1, "t1");
        b.seq(s0, s2, "t2");
        b.mark(s0);
        let g = b.finish().unwrap();
        assert!(codes(&g).contains(&"E203"));
    }

    #[test]
    fn combinational_cycle_is_e204() {
        // pass1 → pass2 → pass1 under one state: no register breaks it.
        let mut b = EtpnBuilder::new();
        let p1 = b.operator(Op::Pass, 1, "p1");
        let p2 = b.operator(Op::Pass, 1, "p2");
        let a1 = b.connect(b.out_port(p1, 0), b.in_port(p2, 0));
        let a2 = b.connect(b.out_port(p2, 0), b.in_port(p1, 0));
        let s0 = b.place("s0");
        b.control(s0, [a1, a2]);
        let s1 = b.place("s1");
        b.seq(s0, s1, "t");
        b.mark(s0);
        let g = b.finish().unwrap();
        assert!(codes(&g).contains(&"E204"));
    }

    #[test]
    fn pure_combinational_state_is_e205_and_idle_is_w308() {
        let mut b = EtpnBuilder::new();
        let c = b.constant(1, "c");
        let p = b.operator(Op::Pass, 1, "p");
        let a = b.connect(b.out_port(c, 0), b.in_port(p, 0));
        let s0 = b.place("s0");
        b.control(s0, [a]);
        let s1 = b.place("s1");
        b.seq(s0, s1, "t");
        b.mark(s0);
        let g = b.finish().unwrap();
        let found = codes(&g);
        assert!(found.contains(&"E205"), "{found:?}");
        assert!(found.contains(&"W308"), "s1 is idle: {found:?}");
    }
}
