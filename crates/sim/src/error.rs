//! Simulation failure modes.
//!
//! Every variant records the step at which execution stopped plus the
//! offending model object, so a failure inside a long batch is
//! attributable without re-running: [`SimError::step`] gives the time
//! coordinate, and [`SimError::describe`] resolves the raw ids against the
//! design for a human-readable account (the ids alone stay `Display`able
//! for contexts that do not hold the graph).
//!
//! `describe` never panics, even when an error is resolved against a
//! design the ids do not belong to (a transformed copy, or the wrong
//! design entirely): unresolvable ids fall back to their raw form.

use etpn_core::{ArcId, Etpn, PlaceId, PortId, VertexId};
use etpn_rec::RecError;

/// Errors raised during execution of the operational semantics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// Two or more arcs into the same input port were open simultaneously —
    /// "a single input port cannot receive signals simultaneously from more
    /// than one resource" (paper §2, discussion of Def. 2.4).
    InputConflict {
        /// The contended input port.
        port: PortId,
        /// The simultaneously open arcs driving it.
        arcs: Vec<ArcId>,
        /// The step at which the conflict occurred.
        step: u64,
    },
    /// A combinational cycle became active (violates Def. 3.2(4)); data-path
    /// evaluation cannot reach a fixpoint.
    CombinationalLoop {
        /// A port on the cycle.
        port: PortId,
        /// The step at which the loop became active.
        step: u64,
    },
    /// A marking with more than one token on a place was reached while the
    /// engine was configured to enforce safeness (Def. 3.2(2)).
    UnsafeMarking {
        /// The over-full place.
        place: PlaceId,
        /// How many tokens it held.
        tokens: u64,
        /// The step at which it happened.
        step: u64,
    },
    /// An external input vertex read past the end of its finite stream
    /// while the engine was configured with strict inputs
    /// (`Simulator::strict_inputs`).
    InputExhausted {
        /// The input vertex whose stream ran dry.
        vertex: VertexId,
        /// The vertex name (kept inline so the error is self-describing
        /// even without the design).
        name: String,
        /// The stream position of the dry read.
        position: u64,
        /// The step at which the dry read was committed.
        step: u64,
    },
    /// The job panicked on every attempt its isolation boundary
    /// (`Fleet::run_contained`) allowed: the compiled engine, the
    /// interpreter fallback and each retry. The panic never reached the
    /// other jobs of the batch.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
        /// How many bounded retries were attempted before giving up.
        retries: u64,
    },
    /// A replayed run disagreed with its journal: the re-derived firing
    /// set or committed effects did not match the recording. This means
    /// the recording was made against another environment, or determinism
    /// itself is broken — either way the replay cannot continue.
    ReplayDivergence {
        /// The step at which the replay disagreed with the journal.
        step: u64,
        /// What disagreed.
        detail: String,
    },
    /// A recording refused before any step was replayed: it does not fit
    /// the design (`Recording::fits`), the target lies beyond its journal
    /// end, or no checkpoint is retained at or before the start.
    ReplayRefused(RecError),
}

impl SimError {
    /// The step at which the failure occurred, when one is known
    /// ([`SimError::Panicked`] carries no step: the panic unwound the
    /// engine before the coordinate could be recorded).
    pub fn step(&self) -> Option<u64> {
        match self {
            SimError::InputConflict { step, .. }
            | SimError::CombinationalLoop { step, .. }
            | SimError::UnsafeMarking { step, .. }
            | SimError::InputExhausted { step, .. }
            | SimError::ReplayDivergence { step, .. } => Some(*step),
            SimError::Panicked { .. } | SimError::ReplayRefused(_) => None,
        }
    }

    /// True for errors that correspond to a Def. 3.2 runtime monitor
    /// firing (unsafe marking, input conflict, combinational loop): the
    /// conditions a properly designed system can never exhibit, which is
    /// exactly what makes them fault *detectors*.
    pub fn is_monitor_trip(&self) -> bool {
        matches!(
            self,
            SimError::InputConflict { .. }
                | SimError::CombinationalLoop { .. }
                | SimError::UnsafeMarking { .. }
        )
    }

    /// Resolve the raw ids against the design the error came from: names
    /// the vertex owning a contended port, the arcs' driving vertices, or
    /// the over-full place. Ids that do not resolve in `g` (stale after a
    /// transformation, or a mismatched design) degrade to their raw form
    /// instead of panicking.
    pub fn describe(&self, g: &Etpn) -> String {
        let vertex_of = |p: PortId| -> String {
            g.dp.ports()
                .get(p)
                .and_then(|port| g.dp.vertices().get(port.vertex))
                .map_or_else(|| format!("<unknown {p}>"), |vx| vx.name.clone())
        };
        match self {
            SimError::InputConflict { port, arcs, step } => {
                let drivers: Vec<String> = arcs
                    .iter()
                    .map(|&a| match g.dp.arcs().get(a) {
                        Some(arc) => format!("{a} from `{}`", vertex_of(arc.from)),
                        None => format!("{a} (unresolved)"),
                    })
                    .collect();
                format!(
                    "input port {port} of `{}` driven by {} open arcs at step {step}: {}",
                    vertex_of(*port),
                    arcs.len(),
                    drivers.join(", ")
                )
            }
            SimError::CombinationalLoop { port, step } => {
                format!(
                    "active combinational loop through port {port} of `{}` at step {step}",
                    vertex_of(*port)
                )
            }
            SimError::UnsafeMarking {
                place,
                tokens,
                step,
            } => {
                let name = g
                    .ctl
                    .places()
                    .get(*place)
                    .map_or_else(|| format!("<unknown {place}>"), |p| p.name.clone());
                format!("place {place} (`{name}`) holds {tokens} tokens at step {step}")
            }
            SimError::InputExhausted {
                vertex,
                name,
                position,
                step,
            } => {
                format!(
                    "input `{name}` ({vertex}) ran dry at stream position {position}, step {step}"
                )
            }
            SimError::Panicked { message, retries } => {
                format!("job panicked after {retries} retries: {message}")
            }
            SimError::ReplayDivergence { step, detail } => {
                format!("replay diverged from journal at step {step}: {detail}")
            }
            SimError::ReplayRefused(e) => format!("replay refused: {e}"),
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InputConflict { port, arcs, step } => {
                write!(
                    f,
                    "input port {port} driven by {} open arcs at step {step}",
                    arcs.len()
                )
            }
            SimError::CombinationalLoop { port, step } => {
                write!(f, "active combinational loop through {port} at step {step}")
            }
            SimError::UnsafeMarking {
                place,
                tokens,
                step,
            } => {
                write!(f, "place {place} holds {tokens} tokens at step {step}")
            }
            SimError::InputExhausted {
                name,
                position,
                step,
                ..
            } => {
                write!(
                    f,
                    "input `{name}` ran dry at position {position}, step {step}"
                )
            }
            SimError::Panicked { message, retries } => {
                write!(f, "job panicked after {retries} retries: {message}")
            }
            SimError::ReplayDivergence { step, detail } => {
                write!(f, "replay diverged from journal at step {step}: {detail}")
            }
            SimError::ReplayRefused(e) => write!(f, "replay refused: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_core::builder::EtpnBuilder;

    fn small_design() -> (Etpn, ArcId, ArcId, PlaceId) {
        let mut b = EtpnBuilder::new();
        let c1 = b.constant(1, "one");
        let c2 = b.constant(2, "two");
        let r = b.register("acc");
        let a1 = b.connect(b.out_port(c1, 0), b.in_port(r, 0));
        let a2 = b.connect(b.out_port(c2, 0), b.in_port(r, 0));
        let s0 = b.place("load");
        b.control(s0, [a1, a2]);
        let s1 = b.place("next");
        b.seq(s0, s1, "t0");
        b.mark(s0);
        (b.finish().unwrap(), a1, a2, s0)
    }

    #[test]
    fn describe_resolves_names() {
        let (g, a1, a2, s0) = small_design();

        let port = g.dp.arc(a1).to;
        let err = SimError::InputConflict {
            port,
            arcs: vec![a1, a2],
            step: 4,
        };
        let msg = err.describe(&g);
        assert!(msg.contains("`acc`"), "{msg}");
        assert!(msg.contains("`one`") && msg.contains("`two`"), "{msg}");
        assert!(msg.contains("step 4"), "{msg}");
        assert_eq!(err.step(), Some(4));

        let err = SimError::UnsafeMarking {
            place: s0,
            tokens: 2,
            step: 9,
        };
        assert!(err.describe(&g).contains("`load`"));
        assert!(err.describe(&g).contains("2 tokens"));
    }

    /// Every variant's `describe` must survive resolution against a design
    /// its ids do not exist in — out-of-range ids degrade to raw form.
    #[test]
    fn describe_never_panics_on_stale_ids() {
        let (g, ..) = small_design();
        let bogus_port = PortId::new(9_999);
        let bogus_arc = ArcId::new(9_999);
        let bogus_place = PlaceId::new(9_999);
        let bogus_vertex = VertexId::new(9_999);
        let all = vec![
            SimError::InputConflict {
                port: bogus_port,
                arcs: vec![bogus_arc],
                step: 1,
            },
            SimError::CombinationalLoop {
                port: bogus_port,
                step: 2,
            },
            SimError::UnsafeMarking {
                place: bogus_place,
                tokens: 3,
                step: 3,
            },
            SimError::InputExhausted {
                vertex: bogus_vertex,
                name: "x".into(),
                position: 7,
                step: 4,
            },
            SimError::Panicked {
                message: "boom".into(),
                retries: 1,
            },
            SimError::ReplayDivergence {
                step: 5,
                detail: "fired t9999, journal says t0".into(),
            },
            SimError::ReplayRefused(RecError::NoCheckpoint { target: 6 }),
        ];
        for err in &all {
            let described = err.describe(&g);
            assert!(!described.is_empty(), "{err:?}");
            // Display must also stay total.
            assert!(!format!("{err}").is_empty());
        }
        assert!(all[0].describe(&g).contains("unknown"));
        assert!(all[2].describe(&g).contains("unknown"));
    }

    #[test]
    fn step_and_monitor_classification() {
        let exhausted = SimError::InputExhausted {
            vertex: VertexId::new(0),
            name: "a".into(),
            position: 3,
            step: 12,
        };
        assert_eq!(exhausted.step(), Some(12));
        assert!(!exhausted.is_monitor_trip());

        let panicked = SimError::Panicked {
            message: "eval exploded".into(),
            retries: 2,
        };
        assert_eq!(panicked.step(), None);
        assert!(!panicked.is_monitor_trip());
        assert!(format!("{panicked}").contains("eval exploded"));

        // A replay divergence is a tooling failure, not a Def. 3.2 monitor.
        let diverged = SimError::ReplayDivergence {
            step: 8,
            detail: "latched values differ".into(),
        };
        assert_eq!(diverged.step(), Some(8));
        assert!(!diverged.is_monitor_trip());

        let unsafe_m = SimError::UnsafeMarking {
            place: PlaceId::new(0),
            tokens: 2,
            step: 0,
        };
        assert!(unsafe_m.is_monitor_trip());
    }
}
