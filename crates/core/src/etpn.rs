//! The complete data/control flow system `Γ = (D, S, T, F, C, G, M0)`
//! (paper Def. 2.2) and its derived state sets.

use crate::control::Control;
use crate::datapath::DataPath;
use crate::error::{CoreError, CoreResult};
use crate::ids::{ArcId, PlaceId, VertexId};

/// A data/control flow system: the data path plus its Petri-net control.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Etpn {
    /// The data path `D = (V, I, O, A, B)`.
    pub dp: DataPath,
    /// The control structure `(S, T, F, C, G, M0)`.
    pub ctl: Control,
}

impl Etpn {
    /// Assemble a system from its two sub-models.
    pub fn new(dp: DataPath, ctl: Control) -> Self {
        Self { dp, ctl }
    }

    /// A process-independent 64-bit structural fingerprint of the whole
    /// system: every arena slot (dead slots included, so ids bind), the
    /// operation mapping, the flow relation, control sets, guards, and the
    /// initial marking. Two systems with equal fingerprints evaluate
    /// identically step for step; the compile cache, the flight recorder
    /// and `etpnd`'s registry key on it. Cost is one pass over the
    /// design — compute it once per batch, not per step.
    pub fn fingerprint(&self) -> u64 {
        use crate::hash::StableHasher;
        use std::fmt::Write;
        let mut h = StableHasher::new();
        // One buffer for every op's `Debug` name: the same bytes as
        // `format!("{op:?}")`, without a string per port.
        let mut op_name = String::new();
        for slot in self.dp.vertices().slots() {
            match slot {
                None => h.write_u64(u64::MAX),
                Some(v) => {
                    h.write_bytes(v.name.as_bytes());
                    h.write_u32(match v.kind {
                        crate::vertex::VertexKind::Unit => 0,
                        crate::vertex::VertexKind::Input => 1,
                        crate::vertex::VertexKind::Output => 2,
                    });
                    h.write_usize(v.inputs.len());
                    for p in &v.inputs {
                        h.write_u32(p.0);
                    }
                    h.write_usize(v.outputs.len());
                    for p in &v.outputs {
                        h.write_u32(p.0);
                    }
                }
            }
        }
        for slot in self.dp.ports().slots() {
            match slot {
                None => h.write_u64(u64::MAX),
                Some(p) => {
                    h.write_u32(p.vertex.0);
                    h.write_bool(p.is_output());
                    h.write_u32(p.index as u32);
                    match p.op {
                        None => h.write_u64(u64::MAX - 1),
                        Some(op) => {
                            op_name.clear();
                            write!(op_name, "{op:?}").expect("writing to a String cannot fail");
                            h.write_str(&op_name);
                        }
                    }
                }
            }
        }
        for slot in self.dp.arcs().slots() {
            match slot {
                None => h.write_u64(u64::MAX),
                Some(a) => {
                    h.write_u32(a.from.0);
                    h.write_u32(a.to.0);
                }
            }
        }
        for slot in self.ctl.places().slots() {
            match slot {
                None => h.write_u64(u64::MAX),
                Some(s) => {
                    h.write_bytes(s.name.as_bytes());
                    h.write_bool(s.marked0);
                    h.write_usize(s.ctrl.len());
                    for a in &s.ctrl {
                        h.write_u32(a.0);
                    }
                    h.write_usize(s.pre.len());
                    for t in &s.pre {
                        h.write_u32(t.0);
                    }
                    h.write_usize(s.post.len());
                    for t in &s.post {
                        h.write_u32(t.0);
                    }
                }
            }
        }
        for slot in self.ctl.transitions().slots() {
            match slot {
                None => h.write_u64(u64::MAX),
                Some(t) => {
                    h.write_bytes(t.name.as_bytes());
                    h.write_usize(t.pre.len());
                    for s in &t.pre {
                        h.write_u32(s.0);
                    }
                    h.write_usize(t.post.len());
                    for s in &t.post {
                        h.write_u32(s.0);
                    }
                    h.write_usize(t.guards.len());
                    for p in &t.guards {
                        h.write_u32(p.0);
                    }
                }
            }
        }
        h.finish()
    }

    /// The arcs active under control state `s` — the arc part of `ASS(S)`
    /// (Defs. 2.4/2.5); identical to `C(s)`.
    pub fn ass_arcs(&self, s: PlaceId) -> &[ArcId] {
        self.ctl.ctrl(s)
    }

    /// The vertices *associated with* `s` (Def. 2.4): those with an input
    /// port receiving a controlled arc. Output ports are irrelevant — an
    /// output can feed many places at once without conflict.
    pub fn ass_vertices(&self, s: PlaceId) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = self
            .ctl
            .ctrl(s)
            .iter()
            .map(|&a| self.dp.port(self.dp.arc(a).to).vertex)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `dom(S)` (Def. 4.2): vertices with some output port connected to an
    /// arc controlled by `s` — the data *sources* of the state.
    pub fn dom(&self, s: PlaceId) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = self
            .ctl
            .ctrl(s)
            .iter()
            .map(|&a| self.dp.port(self.dp.arc(a).from).vertex)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `cod(S)` (Def. 4.2): vertices with some input port connected to an
    /// arc controlled by `s` — the data *sinks* of the state.
    pub fn cod(&self, s: PlaceId) -> Vec<VertexId> {
        self.ass_vertices(s)
    }

    /// The *result set* `R(S)` (Def. 4.2): the sequential vertices of
    /// `cod(S)` — the state elements written under `s`.
    pub fn result_set(&self, s: PlaceId) -> Vec<VertexId> {
        self.cod(s)
            .into_iter()
            .filter(|&v| self.dp.is_sequential_vertex(v))
            .collect()
    }

    /// External arcs controlled by `s` — the arcs on which external events
    /// labelled with `s` occur (Def. 3.4).
    pub fn external_arcs_of(&self, s: PlaceId) -> Vec<ArcId> {
        self.ctl
            .ctrl(s)
            .iter()
            .copied()
            .filter(|&a| self.dp.is_external_arc(a))
            .collect()
    }

    /// True when `C(Si)` and `C(Sj)` both contain external arcs
    /// (data-dependence case (e) of Def. 4.3).
    pub fn both_touch_environment(&self, si: PlaceId, sj: PlaceId) -> bool {
        !self.external_arcs_of(si).is_empty() && !self.external_arcs_of(sj).is_empty()
    }

    /// Cross-model structural validation: both sub-models valid, `C` maps to
    /// live arcs, guards are live output ports.
    pub fn validate(&self) -> CoreResult<()> {
        self.dp.validate()?;
        self.ctl.validate()?;
        for (s, p) in self.ctl.places().iter() {
            for &a in &p.ctrl {
                if !self.dp.arcs().contains(a) {
                    return Err(CoreError::ControlMapsDeadArc { place: s, arc: a });
                }
            }
        }
        for (t, tr) in self.ctl.transitions().iter() {
            for &g in &tr.guards {
                let ok = self.dp.ports().get(g).is_some_and(|p| p.is_output());
                if !ok {
                    return Err(CoreError::GuardNotOutput { trans: t, port: g });
                }
            }
        }
        Ok(())
    }

    /// Total live object counts `(vertices, ports, arcs, places, transitions)` —
    /// handy for reports and scaling benches.
    pub fn size(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.dp.vertices().len(),
            self.dp.ports().len(),
            self.dp.arcs().len(),
            self.ctl.places().len(),
            self.ctl.transitions().len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    /// The paper's §2 example: adder feeding a register under S1.
    fn adder_register() -> (Etpn, PlaceId, VertexId, VertexId) {
        let mut dp = DataPath::new();
        let v1 = dp.add_unit("adder", 2, &[Op::Add]).unwrap();
        let v2 = dp.add_register("reg");
        let a1 = dp.connect(dp.out_port(v1, 0), dp.in_port(v2, 0)).unwrap();
        let mut ctl = Control::new();
        let s1 = ctl.add_place("s1");
        ctl.add_ctrl(s1, a1);
        ctl.set_marked0(s1, true);
        (Etpn::new(dp, ctl), s1, v1, v2)
    }

    #[test]
    fn paper_section2_example_association() {
        let (g, s1, v1, v2) = adder_register();
        // {V2, A1} ⊆ ASS(S1); V1 need not be associated (only input ports count).
        assert_eq!(g.ass_vertices(s1), vec![v2]);
        assert_eq!(g.ass_arcs(s1).len(), 1);
        assert!(!g.ass_vertices(s1).contains(&v1));
    }

    #[test]
    fn dom_cod_result() {
        let (g, s1, v1, v2) = adder_register();
        assert_eq!(g.dom(s1), vec![v1]);
        assert_eq!(g.cod(s1), vec![v2]);
        assert_eq!(g.result_set(s1), vec![v2], "register is sequential");
    }

    #[test]
    fn result_set_excludes_combinatorial_sinks() {
        let mut dp = DataPath::new();
        let c = dp.add_const("k", 1);
        let add = dp.add_unit("add", 2, &[Op::Add]).unwrap();
        let a = dp.connect(dp.out_port(c, 0), dp.in_port(add, 0)).unwrap();
        let mut ctl = Control::new();
        let s = ctl.add_place("s");
        ctl.add_ctrl(s, a);
        let g = Etpn::new(dp, ctl);
        assert_eq!(g.cod(s), vec![add]);
        assert!(g.result_set(s).is_empty());
    }

    #[test]
    fn external_arc_classification() {
        let mut dp = DataPath::new();
        let x = dp.add_input("x");
        let r = dp.add_register("r");
        let y = dp.add_output("y");
        let load = dp.connect(dp.out_port(x, 0), dp.in_port(r, 0)).unwrap();
        let emit = dp.connect(dp.out_port(r, 0), dp.in_port(y, 0)).unwrap();
        let mut ctl = Control::new();
        let s0 = ctl.add_place("s0");
        let s1 = ctl.add_place("s1");
        ctl.add_ctrl(s0, load);
        ctl.add_ctrl(s1, emit);
        let g = Etpn::new(dp, ctl);
        assert_eq!(g.external_arcs_of(s0), vec![load]);
        assert_eq!(g.external_arcs_of(s1), vec![emit]);
        assert!(g.both_touch_environment(s0, s1));
        g.validate().unwrap();
    }

    #[test]
    fn validate_rejects_dead_arc_in_ctrl() {
        let (mut g, s1, _, _) = adder_register();
        g.ctl.add_ctrl(s1, crate::ids::ArcId::new(99));
        assert!(matches!(
            g.validate(),
            Err(CoreError::ControlMapsDeadArc { .. })
        ));
    }

    #[test]
    fn validate_rejects_input_port_guard() {
        let (mut g, _, _, v2) = adder_register();
        let t = g.ctl.add_transition("t");
        let in_port = g.dp.in_port(v2, 0);
        g.ctl.add_guard(t, in_port);
        assert!(matches!(
            g.validate(),
            Err(CoreError::GuardNotOutput { .. })
        ));
    }

    #[test]
    fn size_counts() {
        let (g, ..) = adder_register();
        assert_eq!(g.size(), (2, 5, 1, 1, 0));
    }
}
