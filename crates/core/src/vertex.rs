//! Vertices: data-manipulation nodes of the data path (paper Def. 2.1).
//!
//! A vertex models a data storage, arithmetic operator, or communication
//! channel. External vertices (paper Def. 3.3) are the system's interface:
//! *input vertices* have exactly one output port and no input ports; *output
//! vertices* have exactly one input port and no output ports.

use crate::idlist::IdList;
use crate::ids::PortId;
use crate::name::Name;

/// Classification of a vertex with respect to the environment boundary.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VertexKind {
    /// An internal data-manipulation unit (operator, register, channel…).
    Unit,
    /// An external input vertex `∈ Vi`: a single output port fed by the
    /// environment's predefined value stream (Def. 3.3).
    Input,
    /// An external output vertex `∈ Vo`: a single input port observed by the
    /// environment (Def. 3.3).
    Output,
}

/// A data-path vertex together with its port lists.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Vertex {
    /// Human-readable name (unique names are recommended but not enforced).
    pub name: Name,
    /// Environment-boundary classification.
    pub kind: VertexKind,
    /// Input ports `I(V)` in declaration order.
    pub inputs: IdList<PortId>,
    /// Output ports `O(V)` in declaration order.
    pub outputs: IdList<PortId>,
}

impl Vertex {
    /// True iff this vertex is external (member of `Ve = Vi ∪ Vo`).
    #[inline]
    pub fn is_external(&self) -> bool {
        matches!(self.kind, VertexKind::Input | VertexKind::Output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn externality() {
        let v = Vertex {
            name: "x".into(),
            kind: VertexKind::Input,
            inputs: IdList::new(),
            outputs: vec![PortId::new(0)].into(),
        };
        assert!(v.is_external());
        let u = Vertex {
            name: "alu".into(),
            kind: VertexKind::Unit,
            inputs: IdList::new(),
            outputs: IdList::new(),
        };
        assert!(!u.is_external());
    }
}
