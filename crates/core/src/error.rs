//! Error types shared across the core crate.

use crate::ids::{ArcId, PlaceId, PortId, TransId, VertexId};

/// Errors raised while constructing or validating a model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CoreError {
    /// An arc must run from an output port to an input port (Def. 2.1, `A ⊆ O × I`).
    ArcDirection {
        /// Offending source port.
        from: PortId,
        /// Offending destination port.
        to: PortId,
    },
    /// A referenced id does not exist (or was removed).
    Dangling(&'static str, u32),
    /// An external input vertex must have exactly one output port and no
    /// input ports; an output vertex the converse (Def. 3.3).
    MalformedExternalVertex(VertexId),
    /// An output port's operation reads more inputs than the vertex has.
    ArityMismatch {
        /// The under-supplied output port.
        port: PortId,
        /// Ports required by the operation.
        needs: usize,
        /// Input ports actually present on the vertex.
        has: usize,
    },
    /// A guard must be an output port (mapping `G : O → 2^T`, Def. 2.2).
    GuardNotOutput {
        /// The guarded transition.
        trans: TransId,
        /// The non-output port used as a guard.
        port: PortId,
    },
    /// A control state's `C` mapping references an arc that does not exist.
    ControlMapsDeadArc {
        /// The control state.
        place: PlaceId,
        /// The missing arc.
        arc: ArcId,
    },
    /// A vertex and a port disagree on ownership: the vertex lists a port
    /// that is dead, of the other direction or another vertex's, or a live
    /// port names a dead vertex (Def. 2.1: each port belongs to one vertex).
    PortOwnership {
        /// The listing or named vertex.
        vertex: VertexId,
        /// The listed or naming port.
        port: PortId,
    },
    /// A vertex cannot be removed while arcs still attach to its ports.
    VertexInUse(VertexId),
    /// The flow relation `F` must connect places and transitions only
    /// (bipartite); a duplicate edge was inserted.
    DuplicateFlow,
    /// A model-level validation failure with a human-readable description.
    Invalid(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::ArcDirection { from, to } => {
                write!(f, "arc must run output→input, got {from}→{to}")
            }
            CoreError::Dangling(kind, id) => write!(f, "dangling {kind} id {id}"),
            CoreError::MalformedExternalVertex(v) => {
                write!(f, "external vertex {v} violates Def. 3.3 port structure")
            }
            CoreError::ArityMismatch { port, needs, has } => write!(
                f,
                "output port {port} operation needs {needs} inputs, vertex has {has}"
            ),
            CoreError::GuardNotOutput { trans, port } => {
                write!(f, "guard of {trans} must be an output port, got {port}")
            }
            CoreError::ControlMapsDeadArc { place, arc } => {
                write!(f, "control state {place} maps removed arc {arc}")
            }
            CoreError::PortOwnership { vertex, port } => {
                write!(f, "vertex {vertex} and port {port} disagree on ownership")
            }
            CoreError::VertexInUse(v) => write!(f, "vertex {v} still has attached arcs"),
            CoreError::DuplicateFlow => write!(f, "duplicate flow-relation edge"),
            CoreError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenient result alias for core operations.
pub type CoreResult<T> = Result<T, CoreError>;
