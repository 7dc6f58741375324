//! Dead-code lints: `W301` places, `W302` transitions, `W303` vertices,
//! `W304` arcs that are unreachable from the initial marking.
//!
//! Place reachability is over-approximated by a **monotone marking
//! fixpoint**: starting from `M0`, a transition whose whole preset is
//! maybe-marked is maybe-fireable and maybe-marks its postset. Because
//! tokens are never *removed* in the fixpoint, everything truly reachable
//! is maybe-marked — so whatever remains unmarked (or unfireable) is dead
//! for certain, with no reachability-graph enumeration and no budget.
//!
//! Transition deadness is additionally *refined* by exploring the marking
//! graph: the fixpoint misses transitions that are only dead because
//! tokens get consumed (e.g. a join whose branches can never both hold),
//! while a transition that labels no edge of the complete graph is dead
//! exactly. Exploration stops as soon as every fixpoint-fireable
//! transition has labelled an edge, because nothing is then left to
//! refine; a graph cut by the budget refines nothing.
//!
//! From dead places follow the data-path lints: an arc opened only by
//! dead places can never conduct (`W304`), and a vertex touched by no
//! live arc and read by no live transition's guard is never activated
//! (`W303`). External (always-open) arcs count as live.

use super::{arc_span, place_name, place_span, trans_name, trans_span, vertex_name, vertex_span};
use crate::diag::{Diagnostic, W301, W302, W303, W304};
use crate::LintContext;
use etpn_analysis::reach::{ExploreBudget, ReachGraph};
use etpn_core::{ArcId, Control, PlaceId, TransId};
use std::collections::HashSet;

/// The monotone marking fixpoint: places that may ever be marked and
/// transitions that may ever fire (both over-approximations).
pub(crate) fn maybe_marked(ctl: &Control) -> (HashSet<PlaceId>, HashSet<TransId>) {
    let mut marked: HashSet<PlaceId> = ctl
        .places()
        .iter()
        .filter(|(_, p)| p.marked0)
        .map(|(s, _)| s)
        .collect();
    let mut fireable: HashSet<TransId> = HashSet::new();
    loop {
        let mut changed = false;
        for (t, tr) in ctl.transitions().iter() {
            if fireable.contains(&t) {
                continue;
            }
            if tr.pre.iter().all(|s| marked.contains(s)) {
                fireable.insert(t);
                changed = true;
                for &s in &tr.post {
                    if marked.insert(s) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    (marked, fireable)
}

/// Places and transitions the monotone fixpoint proves statically dead —
/// never markable / never fireable from `M0`. This is the conservative
/// set coverage tooling may exclude from its denominators: a statically
/// dead item is unreachable by construction, so its absence from a trace
/// is not a testing gap. Results are sorted by raw id.
pub fn statically_dead(ctl: &Control) -> (Vec<PlaceId>, Vec<TransId>) {
    let (marked, fireable) = maybe_marked(ctl);
    let places = ctl.places().ids().filter(|s| !marked.contains(s)).collect();
    let transitions = ctl
        .transitions()
        .ids()
        .filter(|t| !fireable.contains(t))
        .collect();
    (places, transitions)
}

/// Transitions that can never fire, in id order: those outside the
/// fixpoint's `fireable` set, plus, when the marking graph completes
/// within `max_states`, the fireable ones that label none of its edges.
fn dead_transitions(ctl: &Control, fireable: &HashSet<TransId>, max_states: usize) -> Vec<TransId> {
    let mut unfired = fireable.clone();
    let graph = ReachGraph::explore_until(ctl, ExploreBudget::states(max_states), |t| {
        unfired.remove(&t);
        unfired.is_empty()
    });
    ctl.transitions()
        .ids()
        .filter(|t| !fireable.contains(t) || (graph.complete && unfired.contains(t)))
        .collect()
}

/// Run all four dead-code lints.
pub fn dead_code(cx: &LintContext) -> Vec<Diagnostic> {
    let g = cx.g;
    let (live_places, fixpoint_fireable) = maybe_marked(&g.ctl);
    let mut out = Vec::new();

    // W301: places the fixpoint never marks.
    for (s, _) in g.ctl.places().iter() {
        if !live_places.contains(&s) {
            out.push(
                Diagnostic::new(
                    W301,
                    format!(
                        "place `{}` can never be marked from the initial marking",
                        place_name(cx, s)
                    ),
                )
                .with_label(place_span(cx, s), "unreachable place"),
            );
        }
    }

    // W302.
    let dead_transitions = dead_transitions(&g.ctl, &fixpoint_fireable, cx.cfg.max_states);
    let live_transitions: HashSet<TransId> = g
        .ctl
        .transitions()
        .ids()
        .filter(|t| !dead_transitions.contains(t))
        .collect();
    for &t in &dead_transitions {
        out.push(
            Diagnostic::new(
                W302,
                format!("transition `{}` can never fire", trans_name(cx, t)),
            )
            .with_label(trans_span(cx, t), "dead transition"),
        );
    }

    // Live arcs: external (never controlled) arcs are always open;
    // controlled arcs are live when some live place opens them.
    let mut controlled: HashSet<ArcId> = HashSet::new();
    let mut live_controlled: HashSet<ArcId> = HashSet::new();
    for (s, _) in g.ctl.places().iter() {
        for &a in g.ctl.ctrl(s) {
            controlled.insert(a);
            if live_places.contains(&s) {
                live_controlled.insert(a);
            }
        }
    }

    // W304: controlled arcs no live place ever opens.
    for (a, _) in g.dp.arcs().iter() {
        if controlled.contains(&a) && !live_controlled.contains(&a) {
            let arc = g.dp.arc(a);
            out.push(
                Diagnostic::new(
                    W304,
                    format!(
                        "arc `{}` → `{}` is only opened by dead places",
                        vertex_name(cx, g.dp.port(arc.from).vertex),
                        vertex_name(cx, g.dp.port(arc.to).vertex),
                    ),
                )
                .with_label(arc_span(cx, a), "arc that can never conduct"),
            );
        }
    }

    // W303: vertices with no live arc endpoint and no live guard reader.
    let mut live_vertices = HashSet::new();
    for (a, arc) in g.dp.arcs().iter() {
        let live = !controlled.contains(&a) || live_controlled.contains(&a);
        if live {
            live_vertices.insert(g.dp.port(arc.from).vertex);
            live_vertices.insert(g.dp.port(arc.to).vertex);
        }
    }
    for (t, tr) in g.ctl.transitions().iter() {
        if live_transitions.contains(&t) {
            for &p in &tr.guards {
                live_vertices.insert(g.dp.port(p).vertex);
            }
        }
    }
    for (v, _) in g.dp.vertices().iter() {
        if !live_vertices.contains(&v) {
            out.push(
                Diagnostic::new(
                    W303,
                    format!(
                        "vertex `{}` is never activated: no live state opens its arcs \
                         and no live transition reads it as a guard",
                        vertex_name(cx, v)
                    ),
                )
                .with_label(vertex_span(cx, v), "dead vertex"),
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint, LintConfig};
    use etpn_core::EtpnBuilder;
    use etpn_synth::SourceMap;

    /// A live chain plus a floating dead subsystem: unmarked place
    /// `s_dead` opening `kdead → rdead`, feeding dead transition `t_dead`.
    fn with_dead_subsystem() -> etpn_core::Etpn {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let r = b.register("r");
        let y = b.output("y");
        let load = b.connect(b.out_port(x, 0), b.in_port(r, 0));
        let emit = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s_end = b.place("end");
        b.control(s0, [load]);
        b.control(s1, [emit]);
        b.seq(s0, s1, "t0");
        b.seq(s1, s_end, "t1");
        let fin = b.transition("fin");
        b.flow_st(s_end, fin);
        b.mark(s0);
        // The floating part: never marked, never fired, never conducting.
        let kdead = b.constant(7, "kdead");
        let rdead = b.register("rdead");
        let adead = b.connect(b.out_port(kdead, 0), b.in_port(rdead, 0));
        let s_dead = b.place("s_dead");
        b.control(s_dead, [adead]);
        let s_dead2 = b.place("s_dead2");
        b.seq(s_dead, s_dead2, "t_dead");
        b.finish().unwrap()
    }

    #[test]
    fn fixpoint_over_approximates() {
        let g = with_dead_subsystem();
        let (marked, fireable) = maybe_marked(&g.ctl);
        let dead_s = g.ctl.place_by_name("s_dead").unwrap();
        let live_s = g.ctl.place_by_name("s1").unwrap();
        assert!(!marked.contains(&dead_s));
        assert!(marked.contains(&live_s));
        assert_eq!(fireable.len(), 3, "t0, t1, fin fire; t_dead does not");
    }

    #[test]
    fn floating_subsystem_reported_on_every_layer() {
        let g = with_dead_subsystem();
        let report = lint(&g, &SourceMap::default(), &LintConfig::default());
        let by_code = |id: &str| -> Vec<&str> {
            report
                .diagnostics
                .iter()
                .filter(|d| d.code.id == id)
                .map(|d| d.message.as_str())
                .collect()
        };
        let w301 = by_code("W301");
        assert!(w301.iter().any(|m| m.contains("s_dead")), "{w301:?}");
        let w302 = by_code("W302");
        assert!(w302.iter().any(|m| m.contains("t_dead")), "{w302:?}");
        let w303 = by_code("W303");
        assert!(w303.iter().any(|m| m.contains("kdead")), "{w303:?}");
        assert!(w303.iter().any(|m| m.contains("rdead")), "{w303:?}");
        let w304 = by_code("W304");
        assert!(w304.iter().any(|m| m.contains("kdead")), "{w304:?}");
        // The live part stays clean.
        assert!(!w301.iter().any(|m| m.contains("`s0`")), "{w301:?}");
        assert!(!w303.iter().any(|m| m.contains("`r`")), "{w303:?}");
    }

    #[test]
    fn liveness_refinement_catches_starved_join() {
        // fork → (sa, sb); sa is drained by t_a before the join can use
        // it... structurally the join's preset {sa, sb} is maybe-marked
        // (the fixpoint never unmarks), but on the exact graph the join
        // CAN fire here — so instead starve it: t_a consumes sa into
        // s_end, making join dead exactly, caught only via liveness.
        let mut b = EtpnBuilder::new();
        let s0 = b.place("s0");
        let sa = b.place("sa");
        let s_end = b.place("send");
        let s_join = b.place("sjoin");
        b.seq(s0, sa, "t0");
        b.seq(sa, s_end, "t_a");
        let join = b.transition("join");
        b.flow_st(sa, join);
        b.flow_st(s_end, join);
        b.flow_ts(join, s_join);
        b.mark(s0);
        let g = b.finish().unwrap();
        // The fixpoint thinks `join` can fire (sa and s_end both
        // maybe-marked); the exact graph knows sa and s_end never hold
        // tokens together.
        let (_, fireable) = maybe_marked(&g.ctl);
        assert!(fireable.contains(&g.ctl.transitions().ids().nth(2).unwrap()));
        let report = lint(&g, &SourceMap::default(), &LintConfig::default());
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code.id == "W302" && d.message.contains("join")),
            "{:?}",
            report.diagnostics
        );
    }

    /// Stopping exploration once every fixpoint-fireable transition has
    /// fired never changes W302: on random nets and designs, the starved
    /// join and the floating subsystem, under budgets that complete the
    /// graph and budgets that cut it, the result equals the one read off a
    /// full exploration (no edge label on a complete graph, the fixpoint
    /// otherwise).
    #[test]
    fn early_stop_matches_full_exploration() {
        let mut nets = vec![with_dead_subsystem()];
        for seed in 0..24 {
            nets.push(etpn_workloads::random_net(seed, 6 + seed as usize % 20));
            nets.push(etpn_workloads::random_design(seed, 10, 2));
        }
        let mut b = EtpnBuilder::new();
        let s0 = b.place("s0");
        let sa = b.place("sa");
        let s_end = b.place("send");
        b.seq(s0, sa, "t0");
        b.seq(sa, s_end, "t_a");
        let join = b.transition("join");
        b.flow_st(sa, join);
        b.flow_st(s_end, join);
        b.mark(s0);
        nets.push(b.finish().unwrap());
        for (i, g) in nets.iter().enumerate() {
            let (_, fireable) = maybe_marked(&g.ctl);
            for max_states in [1, 3, 16, 4096] {
                let full = ReachGraph::explore(&g.ctl, max_states);
                let want: Vec<TransId> = g
                    .ctl
                    .transitions()
                    .ids()
                    .filter(|&t| {
                        if full.complete {
                            !full.edges.iter().any(|&(_, e, _)| e == t)
                        } else {
                            !fireable.contains(&t)
                        }
                    })
                    .collect();
                let got = dead_transitions(&g.ctl, &fireable, max_states);
                assert_eq!(got, want, "net {i}, max_states {max_states}");
            }
        }
    }
}
