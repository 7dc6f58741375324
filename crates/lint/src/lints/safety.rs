//! `E202` safeness (Def. 3.2(2)), plus the explicit `W390` *unknown*
//! verdict when the budget runs out.
//!
//! The verdict is [`etpn_analysis::proper::safeness`], as in
//! `check_properly_designed`: the P-invariant cover first, then budgeted
//! exploration; this pass only formats it. `W390` is a warning, not an
//! error, so a clean-but-huge design is not condemned by the budget,
//! while `--deny warnings` still refuses to certify it.

use super::{place_name, place_span};
use crate::diag::{Diagnostic, E202, W390};
use crate::LintContext;
use etpn_analysis::proper::SafetyVerdict;

/// Run the safeness check (see module docs for the strategy).
pub fn safeness(cx: &LintContext) -> Vec<Diagnostic> {
    match etpn_analysis::proper::safeness(&cx.g.ctl, cx.cfg.max_states) {
        SafetyVerdict::Safe => Vec::new(),
        SafetyVerdict::Unsafe { place, tokens } => vec![Diagnostic::new(
            E202,
            format!(
                "place `{}` holds {tokens} tokens in a reachable marking: the net is unsafe",
                place_name(cx, place)
            ),
        )
        .with_label(place_span(cx, place), "place exceeding one token")],
        SafetyVerdict::Unknown { markings, edges } => vec![Diagnostic::new(
            W390,
            format!(
                "safeness is unknown: exploration stopped after {markings} markings and \
                 {edges} edges without finding an unsafe marking or exhausting the state space",
            ),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LintConfig, LintContext};
    use etpn_core::{Control, Etpn};
    use etpn_synth::SourceMap;

    fn diags_for(ctl: Control, max_states: usize) -> Vec<Diagnostic> {
        let g = Etpn {
            dp: etpn_core::DataPath::new(),
            ctl,
        };
        let map = SourceMap::default();
        let cfg = LintConfig {
            max_states,
            ..LintConfig::default()
        };
        safeness(&LintContext {
            g: &g,
            map: &map,
            cfg: &cfg,
        })
    }

    #[test]
    fn structurally_safe_cycle_takes_fast_path() {
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let s1 = c.add_place("s1");
        let t0 = c.add_transition("t0");
        c.flow_st(s0, t0).unwrap();
        c.flow_ts(t0, s1).unwrap();
        let t1 = c.add_transition("t1");
        c.flow_st(s1, t1).unwrap();
        c.flow_ts(t1, s0).unwrap();
        c.set_marked0(s0, true);
        // max_states = 0 proves no exploration happens: the invariant
        // cover alone settles safeness.
        assert!(diags_for(c, 0).is_empty());
    }

    #[test]
    fn unsafe_net_is_e202() {
        // t0 : s0 → {s1, s2}; t1 : s1 → s0 — refiring t0 floods s2.
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let s1 = c.add_place("s1");
        let s2 = c.add_place("s2");
        let t0 = c.add_transition("t0");
        c.flow_st(s0, t0).unwrap();
        c.flow_ts(t0, s1).unwrap();
        c.flow_ts(t0, s2).unwrap();
        let t1 = c.add_transition("t1");
        c.flow_st(s1, t1).unwrap();
        c.flow_ts(t1, s0).unwrap();
        c.set_marked0(s0, true);
        let diags = diags_for(c, 1 << 10);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.id, "E202");
        assert!(diags[0].message.contains("s2"), "{}", diags[0].message);
    }

    #[test]
    fn exhausted_budget_is_w390_not_error() {
        // The same unbounded generator with a budget too small to witness
        // the unsafe marking: verdict degrades to explicit Unknown.
        let mut c = Control::new();
        let s0 = c.add_place("s0");
        let s1 = c.add_place("s1");
        let t0 = c.add_transition("t0");
        c.flow_st(s0, t0).unwrap();
        c.flow_ts(t0, s0).unwrap();
        c.flow_ts(t0, s1).unwrap();
        c.set_marked0(s0, true);
        let diags = diags_for(c, 1);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.id, "W390");
        assert_eq!(diags[0].severity, crate::Severity::Warning);
    }
}
