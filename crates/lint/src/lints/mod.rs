//! The lint registry: one entry per pass, run in parallel by the engine.

pub mod dead;
pub mod guards;
pub mod proper;
pub mod race;
pub mod safety;
pub mod writes;

use crate::diag::Diagnostic;
use crate::LintContext;
use etpn_core::{ArcId, PlaceId, TransId, VertexId};
use etpn_lang::Span;

/// One registered pass.
pub struct LintPass {
    /// Registry name; doubles as the `etpn-obs` span name (`lint.*`).
    pub name: &'static str,
    /// The pass body.
    pub run: fn(&LintContext) -> Vec<Diagnostic>,
}

/// Every pass, in the deterministic order their findings are merged.
pub const PASSES: &[LintPass] = &[
    LintPass {
        name: "lint.shared_resources",
        run: proper::shared_resources,
    },
    LintPass {
        name: "lint.safeness",
        run: safety::safeness,
    },
    LintPass {
        name: "lint.conflicts",
        run: proper::conflicts,
    },
    LintPass {
        name: "lint.comb_loops",
        run: proper::comb_loops,
    },
    LintPass {
        name: "lint.sequential",
        run: proper::sequential,
    },
    LintPass {
        name: "lint.dead_code",
        run: dead::dead_code,
    },
    LintPass {
        name: "lint.guards",
        run: guards::guard_completeness,
    },
    LintPass {
        name: "lint.writes",
        run: writes::write_never_read,
    },
    LintPass {
        name: "lint.races",
        run: race::write_write_races,
    },
];

// ----------------------------------------------------------------------
// Shared label helpers: name + source span for each model element kind.
// ----------------------------------------------------------------------

pub(crate) fn place_name(cx: &LintContext, s: PlaceId) -> String {
    cx.g.ctl.place(s).name.to_string()
}

pub(crate) fn trans_name(cx: &LintContext, t: TransId) -> String {
    cx.g.ctl.transition(t).name.to_string()
}

pub(crate) fn vertex_name(cx: &LintContext, v: VertexId) -> String {
    cx.g.dp.vertex(v).name.to_string()
}

pub(crate) fn place_span(cx: &LintContext, s: PlaceId) -> Span {
    cx.map.place_span(s)
}

pub(crate) fn trans_span(cx: &LintContext, t: TransId) -> Span {
    cx.map.trans_span(t)
}

pub(crate) fn vertex_span(cx: &LintContext, v: VertexId) -> Span {
    cx.map.vertex_span(v)
}

pub(crate) fn arc_span(cx: &LintContext, a: ArcId) -> Span {
    cx.map.arc_span(a)
}
