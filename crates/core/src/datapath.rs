//! The data path `D = (V, I, O, A, B)` (paper Def. 2.1).
//!
//! A directed port graph: vertices model data-manipulation units, arcs model
//! connections from output ports to input ports. The operation mapping
//! `B : O → OP` is stored on the output ports themselves. The structure is
//! mutable — the control-invariant transformations of §4 re-point arcs and
//! remove vertices — and keeps per-port adjacency lists in sync.

use crate::arena::TypedVec;
use crate::error::{CoreError, CoreResult};
use crate::idlist::IdList;
use crate::ids::{ArcId, PortId, VertexId};
use crate::name::Name;
use crate::op::Op;
use crate::port::{Dir, Port};
use crate::vertex::{Vertex, VertexKind};

/// A data-path arc `(O, I) ∈ A ⊆ O × I`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DpArc {
    /// Source output port.
    pub from: PortId,
    /// Destination input port.
    pub to: PortId,
}

/// The data path: vertices, ports, arcs, and the operation mapping.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DataPath {
    vertices: TypedVec<VertexId, Vertex>,
    ports: TypedVec<PortId, Port>,
    arcs: TypedVec<ArcId, DpArc>,
    /// Arcs whose `to` is this port ("pending arcs" of an input, Def. 3.1(10)).
    incoming: Vec<IdList<ArcId>>,
    /// Arcs whose `from` is this port.
    outgoing: Vec<IdList<ArcId>>,
}

impl DataPath {
    /// An empty data path.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Add an internal vertex with `n_inputs` input ports and one output
    /// port per operation in `out_ops`.
    pub fn add_unit(
        &mut self,
        name: impl Into<Name>,
        n_inputs: usize,
        out_ops: &[Op],
    ) -> CoreResult<VertexId> {
        self.add_vertex(name.into(), VertexKind::Unit, n_inputs, out_ops)
    }

    /// Add an external input vertex (one `Op::Input` output port, Def. 3.3).
    pub fn add_input(&mut self, name: impl Into<Name>) -> VertexId {
        self.add_vertex(name.into(), VertexKind::Input, 0, &[Op::Input])
            .expect("input vertex construction is infallible")
    }

    /// Add an external output vertex (one input port, Def. 3.3).
    pub fn add_output(&mut self, name: impl Into<Name>) -> VertexId {
        self.add_vertex(name.into(), VertexKind::Output, 1, &[])
            .expect("output vertex construction is infallible")
    }

    /// Add a register: one input, one `Op::Reg` output.
    pub fn add_register(&mut self, name: impl Into<Name>) -> VertexId {
        self.add_vertex(name.into(), VertexKind::Unit, 1, &[Op::Reg])
            .expect("register construction is infallible")
    }

    /// Add a constant source: no inputs, one `Op::Const` output.
    pub fn add_const(&mut self, name: impl Into<Name>, value: i64) -> VertexId {
        self.add_vertex(name.into(), VertexKind::Unit, 0, &[Op::Const(value)])
            .expect("constant construction is infallible")
    }

    /// Reserve room for at least this many more vertices, ports and arcs,
    /// and for the per-port arc rows of the new ports.
    pub fn reserve(&mut self, vertices: usize, ports: usize, arcs: usize) {
        self.vertices.reserve(vertices);
        self.ports.reserve(ports);
        self.arcs.reserve(arcs);
        self.incoming.reserve(ports);
        self.outgoing.reserve(ports);
    }

    fn add_vertex(
        &mut self,
        name: Name,
        kind: VertexKind,
        n_inputs: usize,
        out_ops: &[Op],
    ) -> CoreResult<VertexId> {
        for &op in out_ops {
            if op.arity() > n_inputs {
                // Report with a placeholder port id; the port does not exist yet.
                return Err(CoreError::Invalid(format!(
                    "vertex '{name}': op {op:?} needs {} inputs, vertex declares {n_inputs}",
                    op.arity()
                )));
            }
        }
        match kind {
            VertexKind::Input if !(n_inputs == 0 && out_ops.len() == 1) => {
                return Err(CoreError::Invalid(format!(
                    "input vertex '{name}' must have 0 inputs / 1 output"
                )))
            }
            VertexKind::Output if !(n_inputs == 1 && out_ops.is_empty()) => {
                return Err(CoreError::Invalid(format!(
                    "output vertex '{name}' must have 1 input / 0 outputs"
                )))
            }
            _ => {}
        }
        let v = self.vertices.push(Vertex {
            name,
            kind,
            inputs: IdList::new(),
            outputs: IdList::new(),
        });
        for i in 0..n_inputs {
            let p = self.ports.push(Port {
                vertex: v,
                dir: Dir::In,
                index: i as u16,
                op: None,
            });
            self.grow_adj(p);
            self.vertices[v].inputs.push(p);
        }
        for (i, &op) in out_ops.iter().enumerate() {
            let p = self.ports.push(Port {
                vertex: v,
                dir: Dir::Out,
                index: i as u16,
                op: Some(op),
            });
            self.grow_adj(p);
            self.vertices[v].outputs.push(p);
        }
        Ok(v)
    }

    fn grow_adj(&mut self, p: PortId) {
        while self.incoming.len() <= p.idx() {
            self.incoming.push(IdList::new());
            self.outgoing.push(IdList::new());
        }
    }

    /// Connect an output port to an input port (Def. 2.1: `A ⊆ O × I`).
    pub fn connect(&mut self, from: PortId, to: PortId) -> CoreResult<ArcId> {
        let pf = self
            .ports
            .get(from)
            .ok_or(CoreError::Dangling("port", from.0))?;
        let pt = self
            .ports
            .get(to)
            .ok_or(CoreError::Dangling("port", to.0))?;
        if !pf.is_output() || !pt.is_input() {
            return Err(CoreError::ArcDirection { from, to });
        }
        let a = self.arcs.push(DpArc { from, to });
        self.outgoing[from.idx()].push(a);
        self.incoming[to.idx()].push(a);
        Ok(a)
    }

    /// Re-point an arc's source to a different output port (vertex merger).
    pub fn repoint_from(&mut self, arc: ArcId, new_from: PortId) -> CoreResult<()> {
        if !self.ports.get(new_from).is_some_and(Port::is_output) {
            return Err(CoreError::ArcDirection {
                from: new_from,
                to: self.arcs[arc].to,
            });
        }
        let old = self.arcs[arc].from;
        self.outgoing[old.idx()].retain(|&x| x != arc);
        self.outgoing[new_from.idx()].push(arc);
        self.arcs[arc].from = new_from;
        Ok(())
    }

    /// Re-point an arc's destination to a different input port (vertex merger).
    pub fn repoint_to(&mut self, arc: ArcId, new_to: PortId) -> CoreResult<()> {
        if !self.ports.get(new_to).is_some_and(Port::is_input) {
            return Err(CoreError::ArcDirection {
                from: self.arcs[arc].from,
                to: new_to,
            });
        }
        let old = self.arcs[arc].to;
        self.incoming[old.idx()].retain(|&x| x != arc);
        self.incoming[new_to.idx()].push(arc);
        self.arcs[arc].to = new_to;
        Ok(())
    }

    /// Remove a vertex and its ports. Fails with [`CoreError::VertexInUse`]
    /// if any arc still attaches to one of its ports.
    pub fn remove_vertex(&mut self, v: VertexId) -> CoreResult<()> {
        let vertex = self
            .vertices
            .get(v)
            .ok_or(CoreError::Dangling("vertex", v.0))?;
        let ports: Vec<PortId> = vertex
            .inputs
            .iter()
            .chain(&vertex.outputs)
            .copied()
            .collect();
        for &p in &ports {
            if !self.incoming[p.idx()].is_empty() || !self.outgoing[p.idx()].is_empty() {
                return Err(CoreError::VertexInUse(v));
            }
        }
        for p in ports {
            self.ports.remove(p);
        }
        self.vertices.remove(v);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The vertex arena (live entries only when iterated).
    pub fn vertices(&self) -> &TypedVec<VertexId, Vertex> {
        &self.vertices
    }

    /// The port arena.
    pub fn ports(&self) -> &TypedVec<PortId, Port> {
        &self.ports
    }

    /// The arc arena.
    pub fn arcs(&self) -> &TypedVec<ArcId, DpArc> {
        &self.arcs
    }

    /// Borrow a vertex.
    pub fn vertex(&self, v: VertexId) -> &Vertex {
        &self.vertices[v]
    }

    /// Borrow a port.
    pub fn port(&self, p: PortId) -> &Port {
        &self.ports[p]
    }

    /// Borrow an arc.
    pub fn arc(&self, a: ArcId) -> &DpArc {
        &self.arcs[a]
    }

    /// All arcs pending on an input port.
    pub fn incoming_arcs(&self, p: PortId) -> &[ArcId] {
        &self.incoming[p.idx()]
    }

    /// All arcs leaving an output port.
    pub fn outgoing_arcs(&self, p: PortId) -> &[ArcId] {
        &self.outgoing[p.idx()]
    }

    /// The `i`-th input port of a vertex.
    pub fn in_port(&self, v: VertexId, i: usize) -> PortId {
        self.vertices[v].inputs[i]
    }

    /// The `i`-th output port of a vertex.
    pub fn out_port(&self, v: VertexId, i: usize) -> PortId {
        self.vertices[v].outputs[i]
    }

    /// Find a vertex by name (linear scan; intended for tests and builders).
    pub fn vertex_by_name(&self, name: &str) -> Option<VertexId> {
        self.vertices
            .iter()
            .find(|(_, vx)| vx.name == name)
            .map(|(id, _)| id)
    }

    /// True iff the arc connects to a port of an external vertex (Def. 3.3).
    pub fn is_external_arc(&self, a: ArcId) -> bool {
        self.external_port(a).is_some()
    }

    /// The arc's port on an external vertex: the source port of an input
    /// vertex's arc, else the destination port of an output vertex's arc.
    /// `None` for an internal arc or an id this data path does not have.
    pub fn external_port(&self, a: ArcId) -> Option<PortId> {
        let arc = self.arcs.get(a)?;
        [arc.from, arc.to]
            .into_iter()
            .find(|&p| self.vertices[self.ports[p].vertex].is_external())
    }

    /// All external arcs `Ae` in id order.
    pub fn external_arcs(&self) -> Vec<ArcId> {
        self.arcs
            .ids()
            .filter(|&a| self.is_external_arc(a))
            .collect()
    }

    /// External input vertices `Vi` in id order.
    pub fn input_vertices(&self) -> Vec<VertexId> {
        self.vertices
            .iter()
            .filter(|(_, v)| v.kind == VertexKind::Input)
            .map(|(id, _)| id)
            .collect()
    }

    /// External output vertices `Vo` in id order.
    pub fn output_vertices(&self) -> Vec<VertexId> {
        self.vertices
            .iter()
            .filter(|(_, v)| v.kind == VertexKind::Output)
            .map(|(id, _)| id)
            .collect()
    }

    /// True iff the vertex has at least one sequential output port
    /// (a "sequential vertex", used by Def. 3.2(5) and `R(S)`).
    pub fn is_sequential_vertex(&self, v: VertexId) -> bool {
        self.vertices[v]
            .outputs
            .iter()
            .any(|&p| self.ports[p].operation().is_sequential())
    }

    /// True when two vertices "have the same operational definition and port
    /// structure" (merger precondition, Def. 4.6): equal input counts and
    /// pointwise-equal output operation lists.
    pub fn same_port_structure(&self, a: VertexId, b: VertexId) -> bool {
        let (va, vb) = (&self.vertices[a], &self.vertices[b]);
        va.kind == vb.kind
            && va.inputs.len() == vb.inputs.len()
            && va.outputs.len() == vb.outputs.len()
            && va.outputs.iter().zip(&vb.outputs).all(|(&pa, &pb)| {
                self.ports[pa]
                    .operation()
                    .same_definition(self.ports[pb].operation())
            })
    }

    /// Structural sanity check: adjacency lists consistent with arc arena,
    /// vertices and ports agree on ownership, ops present exactly on
    /// output ports, external vertices well-formed. Linear in the size of
    /// the data path.
    pub fn validate(&self) -> CoreResult<()> {
        // Bit 0: `outgoing[from]` lists the arc; bit 1: `incoming[to]` does.
        let mut listed = vec![0u8; self.arcs.capacity_bound()];
        for (p, row) in self.outgoing.iter().enumerate() {
            for &a in row {
                if self.arcs.get(a).is_some_and(|arc| arc.from.idx() == p) {
                    listed[a.idx()] |= 1;
                }
            }
        }
        for (p, row) in self.incoming.iter().enumerate() {
            for &a in row {
                if self.arcs.get(a).is_some_and(|arc| arc.to.idx() == p) {
                    listed[a.idx()] |= 2;
                }
            }
        }
        for (a, arc) in self.arcs.iter() {
            let pf = self
                .ports
                .get(arc.from)
                .ok_or(CoreError::Dangling("port", arc.from.0))?;
            let pt = self
                .ports
                .get(arc.to)
                .ok_or(CoreError::Dangling("port", arc.to.0))?;
            if !pf.is_output() || !pt.is_input() {
                return Err(CoreError::ArcDirection {
                    from: arc.from,
                    to: arc.to,
                });
            }
            if listed[a.idx()] != 3 {
                return Err(CoreError::Invalid(format!(
                    "arc {a} missing from adjacency lists"
                )));
            }
        }
        for (p, port) in self.ports.iter() {
            if !self.vertices.contains(port.vertex) {
                return Err(CoreError::PortOwnership {
                    vertex: port.vertex,
                    port: p,
                });
            }
            if port.op.is_some() != port.is_output() {
                return Err(CoreError::Invalid(format!(
                    "port {p}: output ports carry an operation, input ports none"
                )));
            }
        }
        for (v, vx) in self.vertices.iter() {
            match vx.kind {
                VertexKind::Input if !(vx.inputs.is_empty() && vx.outputs.len() == 1) => {
                    return Err(CoreError::MalformedExternalVertex(v))
                }
                VertexKind::Output if !(vx.inputs.len() == 1 && vx.outputs.is_empty()) => {
                    return Err(CoreError::MalformedExternalVertex(v))
                }
                _ => {}
            }
            for (ports, dir) in [(&vx.inputs, Dir::In), (&vx.outputs, Dir::Out)] {
                for &p in ports {
                    let owned = self.ports.get(p);
                    if !owned.is_some_and(|port| port.vertex == v && port.dir == dir) {
                        return Err(CoreError::PortOwnership { vertex: v, port: p });
                    }
                }
            }
            for &p in &vx.outputs {
                let op = self.ports[p].operation();
                if op.arity() > vx.inputs.len() {
                    return Err(CoreError::ArityMismatch {
                        port: p,
                        needs: op.arity(),
                        has: vx.inputs.len(),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder_reg() -> (DataPath, VertexId, VertexId) {
        let mut dp = DataPath::new();
        let add = dp.add_unit("add", 2, &[Op::Add]).unwrap();
        let reg = dp.add_register("r");
        (dp, add, reg)
    }

    #[test]
    fn build_and_connect() {
        let (mut dp, add, reg) = adder_reg();
        let a = dp.connect(dp.out_port(add, 0), dp.in_port(reg, 0)).unwrap();
        assert_eq!(dp.arc(a).from, dp.out_port(add, 0));
        assert_eq!(dp.incoming_arcs(dp.in_port(reg, 0)), &[a]);
        assert_eq!(dp.outgoing_arcs(dp.out_port(add, 0)), &[a]);
        dp.validate().unwrap();
    }

    #[test]
    fn arcs_must_run_output_to_input() {
        let (mut dp, add, reg) = adder_reg();
        let err = dp.connect(dp.in_port(add, 0), dp.in_port(reg, 0));
        assert!(matches!(err, Err(CoreError::ArcDirection { .. })));
        let err = dp.connect(dp.out_port(add, 0), dp.out_port(reg, 0));
        assert!(matches!(err, Err(CoreError::ArcDirection { .. })));
    }

    #[test]
    fn external_vertices_and_arcs() {
        let mut dp = DataPath::new();
        let x = dp.add_input("x");
        let y = dp.add_output("y");
        let r = dp.add_register("r");
        let a1 = dp.connect(dp.out_port(x, 0), dp.in_port(r, 0)).unwrap();
        let a2 = dp.connect(dp.out_port(r, 0), dp.in_port(y, 0)).unwrap();
        assert!(dp.is_external_arc(a1));
        assert!(dp.is_external_arc(a2));
        assert_eq!(dp.external_arcs(), vec![a1, a2]);
        assert_eq!(dp.input_vertices(), vec![x]);
        assert_eq!(dp.output_vertices(), vec![y]);
        dp.validate().unwrap();
    }

    #[test]
    fn internal_arc_is_not_external() {
        let (mut dp, add, reg) = adder_reg();
        let a = dp.connect(dp.out_port(add, 0), dp.in_port(reg, 0)).unwrap();
        assert!(!dp.is_external_arc(a));
    }

    #[test]
    fn sequential_vertex_detection() {
        let (dp, add, reg) = adder_reg();
        assert!(dp.is_sequential_vertex(reg));
        assert!(!dp.is_sequential_vertex(add));
    }

    #[test]
    fn same_port_structure_for_merger() {
        let mut dp = DataPath::new();
        let a1 = dp.add_unit("a1", 2, &[Op::Add]).unwrap();
        let a2 = dp.add_unit("a2", 2, &[Op::Add]).unwrap();
        let m = dp.add_unit("m", 2, &[Op::Mul]).unwrap();
        let r = dp.add_register("r");
        assert!(dp.same_port_structure(a1, a2));
        assert!(!dp.same_port_structure(a1, m));
        assert!(!dp.same_port_structure(a1, r));
    }

    #[test]
    fn repoint_arc_updates_adjacency() {
        let mut dp = DataPath::new();
        let a1 = dp.add_unit("a1", 2, &[Op::Add]).unwrap();
        let a2 = dp.add_unit("a2", 2, &[Op::Add]).unwrap();
        let r = dp.add_register("r");
        let arc = dp.connect(dp.out_port(a1, 0), dp.in_port(r, 0)).unwrap();
        dp.repoint_from(arc, dp.out_port(a2, 0)).unwrap();
        assert!(dp.outgoing_arcs(dp.out_port(a1, 0)).is_empty());
        assert_eq!(dp.outgoing_arcs(dp.out_port(a2, 0)), &[arc]);
        dp.validate().unwrap();
    }

    #[test]
    fn remove_vertex_requires_detached() {
        let mut dp = DataPath::new();
        let a1 = dp.add_unit("a1", 2, &[Op::Add]).unwrap();
        let r = dp.add_register("r");
        let arc = dp.connect(dp.out_port(a1, 0), dp.in_port(r, 0)).unwrap();
        assert!(matches!(
            dp.remove_vertex(a1),
            Err(CoreError::VertexInUse(_))
        ));
        dp.repoint_from(arc, dp.out_port(a1, 0)).unwrap(); // still attached
        let a2 = dp.add_unit("a2", 2, &[Op::Add]).unwrap();
        dp.repoint_from(arc, dp.out_port(a2, 0)).unwrap();
        dp.remove_vertex(a1).unwrap();
        assert!(dp.vertices().get(a1).is_none());
        dp.validate().unwrap();
    }

    #[test]
    fn arity_checked_at_construction() {
        let mut dp = DataPath::new();
        assert!(dp.add_unit("bad", 1, &[Op::Add]).is_err());
        assert!(dp.add_unit("ok", 3, &[Op::Mux]).is_ok());
    }

    #[test]
    fn vertex_by_name_lookup() {
        let (dp, add, _) = adder_reg();
        assert_eq!(dp.vertex_by_name("add"), Some(add));
        assert_eq!(dp.vertex_by_name("nope"), None);
    }
}
