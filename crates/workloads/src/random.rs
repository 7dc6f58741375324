//! Seeded random workload generators for the scaling experiments (E7, E9c).
//!
//! * [`random_program`] — layered straight-line programs: each layer writes
//!   fresh registers from values of earlier layers; optional `par` blocks
//!   introduce genuine control concurrency;
//! * [`random_net`] — random ETPN control skeletons built directly (serial
//!   chains with nested fork/join diamonds over a register file), for
//!   analysis benchmarks that need nets far larger than realistic programs,
//!   and [`cyclic_net`], the same skeleton looped back for sustained
//!   stepping;
//! * [`random_design`] — small full designs (data-path expression trees,
//!   guarded branches, an input stream and an external output) for the
//!   property-based backend cross-checks: shrinking-friendly in the sense
//!   that `n_places`/`n_regs` bound the design directly, so a failing case
//!   replays from three integers.

use etpn_core::{ArcId, Etpn, EtpnBuilder, Op, PlaceId, VertexId};
use etpn_lang::Program;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Parameters for [`random_program`].
#[derive(Clone, Copy, Debug)]
pub struct ProgramShape {
    /// Number of assignment statements.
    pub assignments: usize,
    /// Number of registers to cycle through.
    pub registers: usize,
    /// Probability (percent) that a group of statements forms a `par` block.
    pub par_percent: u32,
}

impl Default for ProgramShape {
    fn default() -> Self {
        Self {
            assignments: 32,
            registers: 8,
            par_percent: 25,
        }
    }
}

/// Generate a random program (always parses and checks).
pub fn random_program(seed: u64, shape: ProgramShape) -> Program {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nregs = shape.registers.max(4); // ≥ 4 so par groups (≤ 3) always have readable registers
    let mut body = String::new();
    let ops = ["+", "-", "*", "&", "|", "^"];
    let mut emitted = 0usize;
    let mut next_reg = 0usize;
    while emitted < shape.assignments {
        let group =
            if rng.gen_range(0..100u32) < shape.par_percent && emitted + 2 <= shape.assignments {
                rng.gen_range(2..=3.min(shape.assignments - emitted))
            } else {
                1
            };
        // Target registers: round-robin guarantees par branches write
        // disjoint registers.
        let targets: Vec<usize> = (0..group).map(|j| (next_reg + j) % nregs).collect();
        next_reg += group;
        // Reads must avoid the group's targets: a parallel branch reading a
        // register another branch writes would race (the states would be
        // ◇-dependent, and the schedule-dependent value would break the
        // interpreter/simulator cross-check).
        let readable: Vec<usize> = (0..nregs).filter(|r| !targets.contains(r)).collect();
        let mut stmts = Vec::new();
        for &tgt in &targets {
            let a = readable[rng.gen_range(0..readable.len())];
            let b = readable[rng.gen_range(0..readable.len())];
            let op = ops[rng.gen_range(0..ops.len())];
            stmts.push(format!("r{tgt} = r{a} {op} r{b};"));
            emitted += 1;
        }
        if stmts.len() > 1 {
            let branches: Vec<String> = stmts.iter().map(|s| format!("{{ {s} }}")).collect();
            let _ = writeln!(body, "        par {{ {} }}", branches.join(" "));
        } else {
            let _ = writeln!(body, "        {}", stmts[0]);
        }
    }
    let regs: Vec<String> = (0..nregs)
        .map(|i| format!("r{i} = {}", i as i64 + 1))
        .collect();
    let src = format!(
        "design rnd {{
        in x;
        out y;
        reg {};
        r0 = x;
{body}        y = r0;
    }}",
        regs.join(", ")
    );
    etpn_lang::parse_and_check(&src).expect("generated program is valid")
}

/// Generate a random ETPN control skeleton with `n_places` control states.
///
/// The net is a serial chain interspersed with fork/join diamonds; every
/// state loads one register from a shared constant pool, so the design
/// passes the properly-designed checks.
pub fn random_net(seed: u64, n_places: usize) -> Etpn {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = EtpnBuilder::new();
    let k = b.constant(1, "k1");
    // One register per state keeps associated sets disjoint.
    let mk_state = |b: &mut EtpnBuilder, i: usize| -> (PlaceId, ArcId) {
        let r = b.register(&format!("r{i}"));
        let a = b.connect(b.out_port(k, 0), b.in_port(r, 0));
        let s = b.place(&format!("s{i}"));
        b.control(s, [a]);
        (s, a)
    };
    let (first, _) = mk_state(&mut b, 0);
    b.mark(first);
    let mut current = first;
    let mut made = 1usize;
    let mut tcount = 0usize;
    while made < n_places {
        let remaining = n_places - made;
        if remaining >= 3 && rng.gen_bool(0.3) {
            // Diamond: fork into two states, then join into one.
            let (sa, _) = mk_state(&mut b, made);
            let (sb, _) = mk_state(&mut b, made + 1);
            let (sj, _) = mk_state(&mut b, made + 2);
            made += 3;
            let tf = b.transition(&format!("t{tcount}"));
            tcount += 1;
            b.flow_st(current, tf);
            b.flow_ts(tf, sa);
            b.flow_ts(tf, sb);
            let tj = b.transition(&format!("t{tcount}"));
            tcount += 1;
            b.flow_st(sa, tj);
            b.flow_st(sb, tj);
            b.flow_ts(tj, sj);
            current = sj;
        } else {
            let (s, _) = mk_state(&mut b, made);
            made += 1;
            let t = b.transition(&format!("t{tcount}"));
            tcount += 1;
            b.flow_st(current, t);
            b.flow_ts(t, s);
            current = s;
        }
    }
    let t_end = b.transition("t_end");
    b.flow_st(current, t_end);
    b.finish().expect("generated net is valid")
}

/// [`random_net`] made cyclic for sustained stepping: the terminal
/// transition `t_end` feeds the initial place back, so the net never
/// terminates.
pub fn cyclic_net(seed: u64, n_places: usize) -> Etpn {
    let mut g = random_net(seed, n_places);
    let t_end = g
        .ctl
        .transitions()
        .iter()
        .find(|(_, tr)| tr.post.is_empty())
        .map(|(t, _)| t)
        .expect("random nets have a terminal transition");
    let first = g.ctl.initial_places()[0];
    g.ctl.flow_ts(t_end, first).expect("fresh flow edge");
    g
}

/// Generate a random small *full* design: expression trees over a register
/// file and an input stream, fork/join diamonds, occasional guarded
/// branches, and an external output — the workload of the backend
/// property suite (`tests/properties.rs`).
///
/// `n_places` is clamped to `2..=64` and `n_regs` to `1..=16`, so a
/// failing property case replays (and "shrinks") by re-running with the
/// three integers from the report. The construction is canonical (flows
/// grouped per transition at creation), so equal arguments build
/// arena-identical designs with equal fingerprints.
pub fn random_design(seed: u64, n_places: usize, n_regs: usize) -> Etpn {
    let n_places = n_places.clamp(2, 64);
    let n_regs = n_regs.clamp(1, 16);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = EtpnBuilder::new();
    let k0 = b.constant(1, "k0");
    let k1 = b.constant(rng.gen_range(2..10), "k1");
    let x = b.input("x");
    let y = b.output("y");
    let regs: Vec<VertexId> = (0..n_regs).map(|i| b.register(&format!("r{i}"))).collect();
    let comb_ops = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Min,
        Op::Max,
    ];

    // One state: a depth-≤2 expression tree over {consts, x, registers}
    // loading one target register; returns the place. `vcount` names the
    // operator vertices uniquely.
    let mut vcount = 0usize;
    let mut mk_state = |b: &mut EtpnBuilder, rng: &mut SmallRng, idx: usize, tgt: usize| {
        let mut arcs: Vec<ArcId> = Vec::new();
        let leaf = |b: &mut EtpnBuilder, rng: &mut SmallRng| match rng.gen_range(0..4u32) {
            0 => b.out_port(k0, 0),
            1 => b.out_port(k1, 0),
            2 => b.out_port(x, 0),
            _ => b.out_port(regs[rng.gen_range(0..n_regs)], 0),
        };
        let op = comb_ops[rng.gen_range(0..comb_ops.len())];
        let v1 = b.operator(op, 2, &format!("e{vcount}"));
        vcount += 1;
        let (l0, l1) = (leaf(b, rng), leaf(b, rng));
        arcs.push(b.connect(l0, b.in_port(v1, 0)));
        arcs.push(b.connect(l1, b.in_port(v1, 1)));
        let top = if rng.gen_bool(0.4) {
            let op2 = comb_ops[rng.gen_range(0..comb_ops.len())];
            let v2 = b.operator(op2, 2, &format!("e{vcount}"));
            vcount += 1;
            arcs.push(b.connect(b.out_port(v1, 0), b.in_port(v2, 0)));
            let l2 = leaf(b, rng);
            arcs.push(b.connect(l2, b.in_port(v2, 1)));
            v2
        } else {
            v1
        };
        arcs.push(b.connect(b.out_port(top, 0), b.in_port(regs[tgt], 0)));
        let s = b.place(&format!("s{idx}"));
        b.control(s, arcs);
        s
    };

    // Target registers round-robin on the state index, so the two
    // branches of a diamond always load disjoint registers (concurrently
    // open loads of one register would be an input conflict — a legal
    // outcome, but one that ends every run at step 0 and tests nothing).
    let first = mk_state(&mut b, &mut rng, 0, 0);
    b.mark(first);
    let mut current = first;
    let mut made = 1usize;
    let mut tcount = 0usize;
    while made < n_places - 1 {
        let remaining = (n_places - 1) - made;
        if remaining >= 3 && n_regs >= 2 && rng.gen_bool(0.3) {
            // Fork/join diamond with disjoint target registers.
            let ra = made % n_regs;
            let mut rb = (made + 1) % n_regs;
            if rb == ra {
                rb = (rb + 1) % n_regs;
            }
            let sa = mk_state(&mut b, &mut rng, made, ra);
            let sb = mk_state(&mut b, &mut rng, made + 1, rb);
            let sj = mk_state(&mut b, &mut rng, made + 2, (made + 2) % n_regs);
            made += 3;
            let tf = b.transition(&format!("t{tcount}"));
            tcount += 1;
            b.flow_st(current, tf);
            b.flow_ts(tf, sa);
            b.flow_ts(tf, sb);
            let tj = b.transition(&format!("t{tcount}"));
            tcount += 1;
            b.flow_st(sa, tj);
            b.flow_st(sb, tj);
            b.flow_ts(tj, sj);
            current = sj;
        } else {
            let s = mk_state(&mut b, &mut rng, made, made % n_regs);
            made += 1;
            let t = b.transition(&format!("t{tcount}"));
            tcount += 1;
            b.flow_st(current, t);
            b.flow_ts(t, s);
            if rng.gen_bool(0.25) {
                // Guard the step on a comparison of the *input stream*
                // against a constant: the stream advances every step, so a
                // waiting state eventually unblocks (a register compared
                // here would hold its value while the place waits and could
                // block forever). The comparison arcs are controlled by the
                // waiting place itself.
                let cmp = b.operator(
                    if rng.gen_bool(0.5) { Op::Ge } else { Op::Ne },
                    2,
                    &format!("g{tcount}"),
                );
                let a0 = b.connect(b.out_port(x, 0), b.in_port(cmp, 0));
                let a1 = b.connect(b.out_port(k0, 0), b.in_port(cmp, 1));
                b.control(current, [a0, a1]);
                b.guard(t, b.out_port(cmp, 0));
            }
            current = s;
        }
    }
    // Final state: emit a register to the external output.
    let emit = b.connect(b.out_port(regs[0], 0), b.in_port(y, 0));
    let s_out = b.place(&format!("s{made}"));
    b.control(s_out, [emit]);
    let t = b.transition(&format!("t{tcount}"));
    b.flow_st(current, t);
    b.flow_ts(t, s_out);
    let t_end = b.transition("t_end");
    b.flow_st(s_out, t_end);
    b.finish().expect("generated design is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_analysis::proper::check_properly_designed;

    #[test]
    fn random_program_is_deterministic_per_seed() {
        let p1 = random_program(7, ProgramShape::default());
        let p2 = random_program(7, ProgramShape::default());
        assert_eq!(p1, p2);
        let p3 = random_program(8, ProgramShape::default());
        assert_ne!(p1, p3);
    }

    #[test]
    fn random_program_has_requested_size() {
        let shape = ProgramShape {
            assignments: 50,
            registers: 6,
            par_percent: 30,
        };
        let p = random_program(1, shape);
        // +2 for the input load and output emit.
        assert_eq!(p.assignment_count(), 52);
    }

    #[test]
    fn random_net_sizes_and_properness() {
        for n in [4, 17, 64] {
            let g = random_net(3, n);
            assert_eq!(g.ctl.places().len(), n, "n={n}");
            let rep = check_properly_designed(&g);
            assert!(rep.is_proper(), "n={n}: {}", rep.summary());
        }
    }

    #[test]
    fn random_net_interpretable_by_sim() {
        let g = random_net(5, 12);
        let trace = etpn_sim::Simulator::new(&g, etpn_sim::ScriptedEnv::new())
            .run(100)
            .unwrap();
        assert_eq!(trace.termination, etpn_sim::Termination::Terminated);
    }

    #[test]
    fn cyclic_net_runs_to_budget() {
        let g = cyclic_net(1, 16);
        let trace = etpn_sim::Simulator::new(&g, etpn_sim::ScriptedEnv::new())
            .run(500)
            .unwrap();
        assert_eq!(trace.steps, 500);
    }

    #[test]
    fn random_design_is_deterministic_per_seed() {
        let g1 = random_design(11, 20, 4);
        let g2 = random_design(11, 20, 4);
        assert_eq!(g1.fingerprint(), g2.fingerprint());
        let g3 = random_design(12, 20, 4);
        assert_ne!(g1.fingerprint(), g3.fingerprint());
    }

    #[test]
    fn random_design_runs_to_termination_on_both_sizes() {
        for (seed, n, r) in [(1u64, 6, 2), (2, 24, 5), (3, 64, 16), (4, 2, 1)] {
            let g = random_design(seed, n, r);
            let env = etpn_sim::ScriptedEnv::new().with_stream("x", (0..500).collect::<Vec<_>>());
            let trace = etpn_sim::Simulator::new(&g, env).run(500).unwrap();
            assert_eq!(
                trace.termination,
                etpn_sim::Termination::Terminated,
                "seed={seed} n={n} r={r}"
            );
            assert!(
                !trace.events.is_empty(),
                "seed={seed}: the output register emit must be observed"
            );
        }
    }
}
