//! `W305` guard incompleteness: a place all of whose outgoing guards can
//! be false at the same time.
//!
//! Def. 3.2(3) (conflict freedom) only demands guards be mutually
//! *exclusive* — it says nothing about them being *complete*. A place
//! whose every successor is guarded and whose guards can be
//! simultaneously false stalls silently: the token sits forever and the
//! design neither progresses nor deadlocks in a detectable way.
//!
//! Completeness of a guard disjunction is undecidable in general, so the
//! lint uses the dual of the conflict check's sufficient criterion: the
//! place is fine when some successor is unguarded (always ready), or
//! when two guard ports across the successors carry **complementary
//! predicates of the same vertex** (`<`/`>=`, `==`/`!=`, `<=`/`>`) —
//! then one of them is always true. Compiled `if`/`while` decide states
//! pass by construction (one comparator vertex with both polarities).

use super::{place_name, place_span, trans_name, trans_span};
use crate::diag::{Diagnostic, W305};
use crate::LintContext;
use etpn_core::{Op, PortId};

/// Run the guard-completeness lint.
pub fn guard_completeness(cx: &LintContext) -> Vec<Diagnostic> {
    let g = cx.g;
    let mut out = Vec::new();
    for (s, place) in g.ctl.places().iter() {
        if place.post.is_empty() {
            continue; // terminal place: token consumption ends here by design
        }
        if place
            .post
            .iter()
            .any(|&t| g.ctl.transition(t).guards.is_empty())
        {
            continue; // an unguarded successor is always ready
        }
        // Union of every successor's guard ports (a transition's own
        // guards are OR-ed, Def. 3.1(4), so one flat union is exact).
        let ports: Vec<PortId> = place
            .post
            .iter()
            .flat_map(|&t| g.ctl.transition(t).guards.iter().copied())
            .collect();
        let covered = ports.iter().enumerate().any(|(i, &p1)| {
            ports[i + 1..].iter().any(|&p2| {
                let (port1, port2) = (g.dp.port(p1), g.dp.port(p2));
                port1.vertex == port2.vertex
                    && port1
                        .op
                        .and_then(Op::complement)
                        .is_some_and(|c| port2.op == Some(c))
            })
        });
        if covered {
            continue;
        }
        let mut d = Diagnostic::new(
            W305,
            format!(
                "the guards leaving place `{}` can all be false at once: \
                 its token would stall silently",
                place_name(cx, s)
            ),
        )
        .with_label(place_span(cx, s), "place whose token may stall");
        for &t in &place.post {
            d = d.with_label(
                trans_span(cx, t),
                format!("guarded transition `{}`", trans_name(cx, t)),
            );
        }
        out.push(d);
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{lint, LintConfig};
    use etpn_core::{EtpnBuilder, Op};
    use etpn_synth::SourceMap;

    fn w305_count(g: &etpn_core::Etpn) -> usize {
        lint(g, &SourceMap::default(), &LintConfig::default())
            .diagnostics
            .iter()
            .filter(|d| d.code.id == "W305")
            .count()
    }

    /// A branch whose two guards are `r < 0` and `r > 0`: both false at
    /// `r == 0`, so the token stalls.
    #[test]
    fn non_complementary_guards_stall() {
        let mut b = EtpnBuilder::new();
        let r = b.register("r");
        let zero = b.constant(0, "zero");
        let cmp = b.operator_multi(&[Op::Lt, Op::Gt], 2, "cmp");
        let a0 = b.connect(b.out_port(r, 0), b.in_port(cmp, 0));
        let a1 = b.connect(b.out_port(zero, 0), b.in_port(cmp, 1));
        let s = b.place("s");
        b.control(s, [a0, a1]);
        let s1 = b.place("s1");
        let s2 = b.place("s2");
        let t1 = b.seq(s, s1, "t1");
        let t2 = b.seq(s, s2, "t2");
        b.guard(t1, b.out_port(cmp, 0));
        b.guard(t2, b.out_port(cmp, 1));
        b.mark(s);
        let g = b.finish().unwrap();
        assert_eq!(w305_count(&g), 1);
    }

    /// The same branch with `<` / `>=`: complete by complementarity.
    #[test]
    fn complementary_guards_are_complete() {
        let mut b = EtpnBuilder::new();
        let r = b.register("r");
        let zero = b.constant(0, "zero");
        let cmp = b.operator_multi(&[Op::Lt, Op::Ge], 2, "cmp");
        let a0 = b.connect(b.out_port(r, 0), b.in_port(cmp, 0));
        let a1 = b.connect(b.out_port(zero, 0), b.in_port(cmp, 1));
        let s = b.place("s");
        b.control(s, [a0, a1]);
        let s1 = b.place("s1");
        let s2 = b.place("s2");
        let t1 = b.seq(s, s1, "t1");
        let t2 = b.seq(s, s2, "t2");
        b.guard(t1, b.out_port(cmp, 0));
        b.guard(t2, b.out_port(cmp, 1));
        b.mark(s);
        let g = b.finish().unwrap();
        assert_eq!(w305_count(&g), 0);
    }

    /// A single guarded successor with no alternative: may stall.
    #[test]
    fn lone_guarded_successor_flagged() {
        let mut b = EtpnBuilder::new();
        let r = b.register("r");
        let zero = b.constant(0, "zero");
        let cmp = b.operator_multi(&[Op::Lt, Op::Ge], 2, "cmp");
        let a0 = b.connect(b.out_port(r, 0), b.in_port(cmp, 0));
        let a1 = b.connect(b.out_port(zero, 0), b.in_port(cmp, 1));
        let s = b.place("s");
        b.control(s, [a0, a1]);
        let s1 = b.place("s1");
        let t1 = b.seq(s, s1, "t1");
        b.guard(t1, b.out_port(cmp, 0));
        b.mark(s);
        let g = b.finish().unwrap();
        assert_eq!(w305_count(&g), 1);
    }

    /// Compiled `while` loops decide with one comparator carrying both
    /// polarities: never flagged.
    #[test]
    fn compiled_decide_states_pass() {
        let d = etpn_synth::compile_source(&etpn_workloads::gcd::source()).unwrap();
        assert_eq!(w305_count(&d.etpn), 0);
    }
}
