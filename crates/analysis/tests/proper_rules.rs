//! The Def. 3.2 rules `etpn-lint` and `check_properly_designed` share:
//! the safeness verdict carries its witness, and the rule (1) pair
//! predicate agrees with the design-wide check.

use etpn_analysis::proper::{safeness, shared_by, shared_resources, SafetyVerdict};
use etpn_core::{Control, ControlRelations, EtpnBuilder};

#[test]
fn safeness_verdicts_carry_their_witness() {
    // s0 ⇄ s1 is covered by one invariant: safe with no exploration
    // at all, so even a zero budget settles it.
    let mut c = Control::new();
    let (s0, s1) = (c.add_place("s0"), c.add_place("s1"));
    let (t0, t1) = (c.add_transition("t0"), c.add_transition("t1"));
    c.flow_st(s0, t0).unwrap();
    c.flow_ts(t0, s1).unwrap();
    c.flow_st(s1, t1).unwrap();
    c.flow_ts(t1, s0).unwrap();
    c.set_marked0(s0, true);
    assert_eq!(safeness(&c, 0), SafetyVerdict::Safe);

    // t : gen → {gen, out} mints a token on `out` at every firing.
    let mut c = Control::new();
    let (gen, out) = (c.add_place("gen"), c.add_place("out"));
    let t = c.add_transition("t");
    c.flow_st(gen, t).unwrap();
    c.flow_ts(t, gen).unwrap();
    c.flow_ts(t, out).unwrap();
    c.set_marked0(gen, true);
    assert_eq!(
        safeness(&c, 64),
        SafetyVerdict::Unsafe {
            place: out,
            tokens: 2
        }
    );
    assert_eq!(
        safeness(&c, 1),
        SafetyVerdict::Unknown {
            markings: 1,
            edges: 0
        }
    );
}

#[test]
fn the_pair_predicate_matches_the_design_wide_check() {
    let mut b = EtpnBuilder::new();
    let c1 = b.constant(1, "c1");
    let r = b.register("r");
    let a1 = b.connect(b.out_port(c1, 0), b.in_port(r, 0));
    let (s0, sa, sb) = (b.place("s0"), b.place("sa"), b.place("sb"));
    b.control(sa, [a1]);
    b.control(sb, [a1]);
    let tf = b.transition("fork");
    b.flow_st(s0, tf);
    b.flow_ts(tf, sa);
    b.flow_ts(tf, sb);
    b.mark(s0);
    let g = b.finish().unwrap();
    let rel = ControlRelations::compute_acyclic(&g.ctl);
    let pair = shared_by(&g, sa, sb).expect("sa and sb both load r");
    assert_eq!(pair.vertices, vec![r]);
    assert_eq!(pair.arcs, vec![a1]);
    assert_eq!(shared_resources(&g, &rel), vec![pair]);
    assert_eq!(shared_by(&g, s0, sa), None);
}
