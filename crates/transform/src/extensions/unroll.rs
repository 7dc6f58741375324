//! Loop unrolling — duplicate a structured loop's body (and its decide
//! state) so consecutive iterations become distinct control states.
//!
//! ```text
//!        ┌────────── t_back ──────────┐
//!        ▼                            │
//!   … → Sd ── t_body(g) → body … ─────┘
//!        └─ t_exit(¬g) → …
//! ```
//!
//! becomes (factor 2):
//!
//! ```text
//!        ┌──────────────────── t_back' ─────────────────────┐
//!        ▼                                                   │
//!   … → Sd ─ t_body(g) → body … → Sd' ─ t_body'(g) → body' ──┘
//!        └─ t_exit(¬g) → X              └─ t_exit'(¬g) → X
//! ```
//!
//! The copies *share the data path*: every copied place controls the same
//! arcs and every copied transition carries the same guards, so each
//! iteration performs exactly the original computation — the run unwinds
//! the same state sequence with alternating state identities. External
//! events keep their `(arc, occurrence)` identities and the loop keeps all
//! copies mutually `⇒`-reachable, so the external event structure is
//! untouched. The value of unrolling is downstream: cross-iteration
//! chaining/merging applies to the now-distinct per-iteration states.

use crate::error::{TransformError, TransformResult};
use etpn_core::{Etpn, PlaceId, TransId};
use std::collections::HashMap;

/// The recognised structured-loop pattern around a decide state.
#[derive(Clone, Debug)]
pub struct LoopShape {
    /// The decide state.
    pub decide: PlaceId,
    /// Body places (excluding the decide state).
    pub body: Vec<PlaceId>,
    /// Transitions internal to the loop (body entry, body chain, back edge).
    pub internal: Vec<TransId>,
    /// Exit transitions (guarded, leaving the loop).
    pub exits: Vec<TransId>,
}

/// Recognise the loop around `decide`, if it has the structured shape:
/// every cycle through `decide` stays within a body whose places have no
/// entries from outside the loop (other than through `decide`).
pub fn loop_shape(g: &Etpn, decide: PlaceId) -> TransformResult<LoopShape> {
    // Body: places reachable from decide's successors without re-crossing
    // the decide state.
    let mut body: Vec<PlaceId> = Vec::new();
    let mut internal: Vec<TransId> = Vec::new();
    let mut exits: Vec<TransId> = Vec::new();
    let mut frontier: Vec<PlaceId> = vec![decide];
    let mut seen = vec![decide];
    let mut closes_back = false;
    // A transition leading (eventually) back to decide is internal; one
    // that can never reach decide again is an exit.
    let rel = etpn_core::ControlRelations::compute(&g.ctl);
    while let Some(s) = frontier.pop() {
        for &t in &g.ctl.place(s).post {
            let tr = g.ctl.transition(t);
            let internal_t = tr
                .post
                .iter()
                .any(|&q| q == decide || rel.leads_to(q, decide));
            if internal_t {
                if !internal.contains(&t) {
                    internal.push(t);
                }
                for &q in &tr.post {
                    if q == decide {
                        closes_back = true;
                    } else if !seen.contains(&q) {
                        seen.push(q);
                        body.push(q);
                        frontier.push(q);
                    }
                }
            } else if s == decide {
                exits.push(t);
            }
            // Exits from *body* states (loop breaks) are not supported.
            else {
                return Err(TransformError::ShapeMismatch(format!(
                    "body state {s} has a loop-leaving exit {t}"
                )));
            }
        }
    }
    if !closes_back || body.is_empty() {
        return Err(TransformError::ShapeMismatch(format!(
            "{decide} does not head a structured loop"
        )));
    }
    // Internal transitions must not consume tokens from outside the loop
    // (a mixed join would make the copy steal an external token).
    for &t in &internal {
        for &s in &g.ctl.transition(t).pre {
            if s != decide && !body.contains(&s) {
                return Err(TransformError::ShapeMismatch(format!(
                    "loop transition {t} consumes external place {s}"
                )));
            }
        }
    }
    // Body places must not be entered from outside the loop.
    for &s in &body {
        for &t in &g.ctl.place(s).pre {
            if !internal.contains(&t) {
                return Err(TransformError::ShapeMismatch(format!(
                    "body state {s} is entered from outside the loop ({t})"
                )));
            }
        }
    }
    if exits.is_empty() {
        return Err(TransformError::ShapeMismatch(format!(
            "loop at {decide} has no exit"
        )));
    }
    Ok(LoopShape {
        decide,
        body,
        internal,
        exits,
    })
}

/// Unroll the loop at `decide` once (factor 2). Returns the copy of the
/// decide state.
pub fn unroll_loop(g: &mut Etpn, decide: PlaceId) -> TransformResult<PlaceId> {
    let shape = loop_shape(g, decide)?;

    // Copy the loop places (decide + body); same control sets, unmarked.
    let mut place_map: HashMap<PlaceId, PlaceId> = HashMap::new();
    for &s in std::iter::once(&decide).chain(&shape.body) {
        let (name, ctrl) = {
            let p = g.ctl.place(s);
            (format!("{}_u", p.name), p.ctrl.clone())
        };
        let copy = g.ctl.add_place(name);
        for a in ctrl {
            g.ctl.add_ctrl(copy, a);
        }
        place_map.insert(s, copy);
    }

    // Copy internal transitions with remapped endpoints; the back edge of
    // the copy returns to the *original* decide state.
    for &t in &shape.internal {
        let (name, pre, post, guards) = {
            let tr = g.ctl.transition(t);
            (
                format!("{}_u", tr.name),
                tr.pre.clone(),
                tr.post.clone(),
                tr.guards.clone(),
            )
        };
        let copy = g.ctl.add_transition(name);
        for &s in &pre {
            let mapped = place_map.get(&s).copied().unwrap_or(s);
            g.ctl.flow_st(mapped, copy)?;
        }
        for &s in &post {
            // Copy's back edge → original decide; other posts → copies.
            let mapped = if s == decide {
                decide
            } else {
                place_map.get(&s).copied().unwrap_or(s)
            };
            g.ctl.flow_ts(copy, mapped)?;
        }
        for p in guards {
            g.ctl.add_guard(copy, p);
        }
    }
    // Original back edge(s) now target the copied decide state.
    for &t in &shape.internal {
        if g.ctl.transition(t).post.contains(&decide) {
            g.ctl.unflow_ts(t, decide);
            g.ctl.flow_ts(t, place_map[&decide])?;
        }
    }
    // Copy the exits: same guards, same destinations.
    for &t in &shape.exits {
        let (name, post, guards) = {
            let tr = g.ctl.transition(t);
            (format!("{}_u", tr.name), tr.post.clone(), tr.guards.clone())
        };
        let copy = g.ctl.add_transition(name);
        g.ctl.flow_st(place_map[&decide], copy)?;
        for &s in &post {
            g.ctl.flow_ts(copy, s)?;
        }
        for p in guards {
            g.ctl.add_guard(copy, p);
        }
    }
    Ok(place_map[&decide])
}

/// All decide states currently heading structured loops.
pub fn find_loops(g: &Etpn) -> Vec<PlaceId> {
    g.ctl
        .places()
        .ids()
        .filter(|&s| loop_shape(g, s).is_ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_sim::{ScriptedEnv, Simulator};

    fn counter_design() -> (Etpn, Vec<(String, i64)>) {
        let d = etpn_synth::compile_source(
            "design cnt { in n; out y; reg i = 0, lim, acc = 0;
                lim = n;
                while (i < lim) {
                    acc = acc + i;
                    i = i + 1;
                }
                y = acc; }",
        )
        .unwrap();
        (d.etpn, d.reg_inits)
    }

    fn run(g: &Etpn, inits: &[(String, i64)], n: i64) -> (Vec<i64>, u64) {
        let mut sim = Simulator::new(g, ScriptedEnv::new().with_stream("n", [n]));
        for (name, v) in inits {
            sim = sim.init_register(name, *v);
        }
        let t = sim.run(10_000).unwrap();
        (t.values_on_named_output(g, "y"), t.steps)
    }

    #[test]
    fn finds_the_while_loop() {
        let (g, _) = counter_design();
        let loops = find_loops(&g);
        assert_eq!(loops.len(), 1, "{loops:?}");
        let shape = loop_shape(&g, loops[0]).unwrap();
        assert_eq!(shape.body.len(), 2, "acc and i updates");
        assert_eq!(shape.exits.len(), 1);
    }

    #[test]
    fn unrolled_loop_computes_identically() {
        let (g0, inits) = counter_design();
        let mut g = g0.clone();
        let decide = find_loops(&g)[0];
        let copy = unroll_loop(&mut g, decide).unwrap();
        g.validate().unwrap();
        assert!(g.ctl.places().contains(copy));
        // Odd and even trip counts exercise both exit copies.
        for n in [0, 1, 2, 5, 8] {
            let (y0, _) = run(&g0, &inits, n);
            let (y1, _) = run(&g, &inits, n);
            assert_eq!(y0, y1, "n={n}");
        }
        // Still properly designed.
        let rep = etpn_analysis::check_properly_designed(&g);
        assert!(rep.is_proper(), "{}", rep.summary());
    }

    #[test]
    fn unrolled_loop_alternates_iterations() {
        let (g0, inits) = counter_design();
        let mut g = g0.clone();
        let decide = find_loops(&g)[0];
        let copy = unroll_loop(&mut g, decide).unwrap();
        // With 4 iterations, each decide copy activates twice (plus the
        // final exit test on the original).
        let mut sim = Simulator::new(&g, ScriptedEnv::new().with_stream("n", [4]));
        for (name, v) in &inits {
            sim = sim.init_register(name, *v);
        }
        let trace = sim.run(10_000).unwrap();
        let activations = |s: PlaceId| trace.exit_counts[s.idx()];
        assert_eq!(activations(decide) + activations(copy), 5);
        assert!(activations(copy) >= 2);
    }

    #[test]
    fn non_loop_place_refused() {
        let (mut g, _) = counter_design();
        // The entry place heads no loop.
        let entry = g.ctl.initial_places()[0];
        assert!(unroll_loop(&mut g, entry).is_err());
    }
}
