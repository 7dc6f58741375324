//! The engine's fault model, as journaled in a recording's metadata.
//!
//! A [`Fault`] is a kind ([`FaultKind`]) at a site ([`FaultSite`]) over a
//! window ([`FaultWindow`]). `etpn-sim` injects faults through its
//! `FaultPlan` and re-exports these types as `etpn_sim::fault::*`; they
//! live here so that a [`crate::RecMeta`] holds the engine's own faults
//! and the wire codec in [`crate::journal`] refuses an unknown tag where
//! it stands.

use etpn_core::{Etpn, PlaceId, PortId, Value};

/// What a fault does at its site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The port's value is forced to the defined constant `0`.
    StuckAt0,
    /// The port's value is forced to the defined constant `1`.
    StuckAt1,
    /// Bit `b` (mod 64) of a defined value is inverted; `⊥` is left alone
    /// (there is no bit to flip in an undefined signal).
    BitFlip(u32),
    /// The token in a control place vanishes (a lost request/ack).
    TokenLoss,
    /// The token in a control place is doubled (a spurious re-fire). On a
    /// safeness-enforcing run this trips the Def. 3.2(2) monitor at once.
    TokenDup,
}

impl FaultKind {
    /// True for the kinds that apply to data-path ports.
    pub fn is_data(self) -> bool {
        matches!(
            self,
            FaultKind::StuckAt0 | FaultKind::StuckAt1 | FaultKind::BitFlip(_)
        )
    }

    /// The faulty value a data fault produces from the clean value `v`.
    /// Control kinds return `v` unchanged.
    pub fn apply(self, v: Value) -> Value {
        match self {
            FaultKind::StuckAt0 => Value::Def(0),
            FaultKind::StuckAt1 => Value::Def(1),
            FaultKind::BitFlip(b) => match v {
                Value::Def(x) => Value::Def(x ^ (1i64 << (b % 64))),
                Value::Undef => Value::Undef,
            },
            FaultKind::TokenLoss | FaultKind::TokenDup => v,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::StuckAt0 => write!(f, "stuck-at-0"),
            FaultKind::StuckAt1 => write!(f, "stuck-at-1"),
            FaultKind::BitFlip(b) => write!(f, "bit-flip({b})"),
            FaultKind::TokenLoss => write!(f, "token-loss"),
            FaultKind::TokenDup => write!(f, "token-dup"),
        }
    }
}

/// Where a fault strikes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// A data-path port (input or output side).
    Port(PortId),
    /// A control place.
    Place(PlaceId),
}

/// When a fault is active.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultWindow {
    /// Active during exactly one control step.
    Transient(u64),
    /// Active from the given step onwards.
    Permanent(u64),
}

impl FaultWindow {
    /// Is the fault active at `step`?
    pub fn active_at(self, step: u64) -> bool {
        match self {
            FaultWindow::Transient(s) => step == s,
            FaultWindow::Permanent(from) => step >= from,
        }
    }
}

impl std::fmt::Display for FaultWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultWindow::Transient(s) => write!(f, "transient@{s}"),
            FaultWindow::Permanent(s) => write!(f, "permanent@{s}"),
        }
    }
}

/// One concrete fault: a kind at a site over a window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fault {
    /// Where it strikes.
    pub site: FaultSite,
    /// What it does.
    pub kind: FaultKind,
    /// When it is active.
    pub window: FaultWindow,
}

impl Fault {
    /// Human-readable account, resolving the site against the design
    /// (unresolvable ids degrade to raw form, as in `SimError::describe`).
    pub fn describe(&self, g: &Etpn) -> String {
        let site = match self.site {
            FaultSite::Port(p) => match g.dp.ports().get(p) {
                Some(port) => {
                    let owner =
                        g.dp.vertices()
                            .get(port.vertex)
                            .map_or_else(|| port.vertex.to_string(), |vx| vx.name.to_string());
                    format!("{p} of `{owner}`")
                }
                None => format!("{p} (unresolved)"),
            },
            FaultSite::Place(s) => match g.ctl.places().get(s) {
                Some(place) => format!("{s} (`{}`)", place.name),
                None => format!("{s} (unresolved)"),
            },
        };
        format!("{} on {site}, {}", self.kind, self.window)
    }
}
