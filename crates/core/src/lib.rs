//! # etpn-core — the data/control flow computation model
//!
//! Faithful implementation of the parallel computation model of *Zebo Peng,
//! "Semantics of a Parallel Computation Model and its Applications in
//! Digital Hardware Design", ICPP 1988* (the ETPN model of the CAMAD
//! synthesis system).
//!
//! The model separates a design into two related sub-models:
//!
//! * the **data path** ([`datapath::DataPath`], Def. 2.1) — a directed port
//!   graph of data-manipulation units whose output ports carry operations
//!   from the combinatorial set `COM` or the sequential set `SEQ`
//!   ([`op::Op`]);
//! * the **control structure** ([`control::Control`], Def. 2.2) — a marked
//!   Petri net whose places *open* data-path arcs (`C : S → 2^A`) and whose
//!   transitions are *guarded* by data-path condition outputs
//!   (`G : O → 2^T`).
//!
//! [`etpn::Etpn`] combines the two into `Γ = (D, S, T, F, C, G, M0)` and
//! derives the associated sets `ASS(S)`, `dom(S)`, `cod(S)` and the result
//! set `R(S)` (Defs. 2.4–2.5, 4.2). [`event::EventStructure`] represents the
//! observational semantics `S(Γ) = (E, ≺, ≍)` (Defs. 3.4–3.6);
//! [`relations::ControlRelations`] provides the order relations `⇒`, `α`,
//! `∥` (Def. 2.3).
//!
//! Execution semantics lives in the `etpn-sim` crate; static analysis in
//! `etpn-analysis`; the semantics-preserving transformations in
//! `etpn-transform`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod bitset;
pub mod builder;
pub mod bytes;
pub mod control;
pub mod datapath;
pub mod dot;
pub mod error;
pub mod etpn;
pub mod event;
pub mod hash;
pub mod idlist;
pub mod ids;
pub mod json;
pub mod marking;
pub mod name;
pub mod op;
pub mod port;
pub mod relations;
pub mod value;
pub mod vertex;

pub use builder::EtpnBuilder;
pub use control::Control;
pub use datapath::DataPath;
pub use error::{CoreError, CoreResult};
pub use etpn::Etpn;
pub use event::{EventKey, EventStructure, ExternalEvent, StructureDiff};
pub use hash::StableHasher;
pub use idlist::IdList;
pub use ids::{ArcId, PlaceId, PortId, TransId, VertexId};
pub use marking::Marking;
pub use name::Name;
pub use op::Op;
pub use relations::ControlRelations;
pub use value::Value;
