//! Value-change-dump (VCD) export of watched-port waveforms.
//!
//! Capture the registers with
//! [`Simulator::watch_registers`](crate::Simulator::watch_registers), then
//! render the run as an IEEE-1364-style VCD file viewable in GTKWave
//! & friends. One timestep per control step; values are 64-bit binary
//! vectors, with `x` for the undefined value `⊥`.
//!
//! With [`Simulator::watch_control`](crate::Simulator::watch_control) the
//! control plane rides along in a second `control` scope: one 1-bit
//! `S_<place>` wire per control state (token present / absent) and one
//! 1-bit `G_<vertex>` wire per guard port (guard truth). The `$date`
//! header is a pure function of the design — no wall-clock — so rendered
//! output is byte-stable and golden-file testable.

use crate::trace::Trace;
use etpn_core::{Etpn, Value};
use std::fmt::Write;

/// VCD identifier codes: printable ASCII starting at `!`.
fn code(i: usize) -> String {
    let mut i = i;
    let mut s = String::new();
    loop {
        s.push((b'!' + (i % 94) as u8) as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

/// Render the watched ports (and, when captured, the control plane) of a
/// trace as a VCD document.
///
/// Returns `None` when the trace captured nothing at all.
pub fn render(g: &Etpn, trace: &Trace) -> Option<String> {
    let has_ports = !trace.watch.is_empty() && !trace.watched.is_empty();
    let has_ctl = !trace.marking_rows.is_empty();
    if !has_ports && !has_ctl {
        return None;
    }
    let mut out = String::new();
    // Deterministic header: a function of the design only, never the
    // wall clock, so golden-file comparisons are byte-stable.
    let _ = writeln!(out, "$date design {:#018x} $end", g.fingerprint());
    let _ = writeln!(out, "$version etpn-sim VCD export $end");
    let _ = writeln!(out, "$timescale 1 ns $end");
    let _ = writeln!(out, "$scope module design $end");
    for (i, &p) in trace.watch.iter().enumerate() {
        let port = g.dp.port(p);
        let vx = g.dp.vertex(port.vertex);
        let name = if vx.outputs.len() > 1 {
            format!("{}_o{}", vx.name, port.index)
        } else {
            vx.name.to_string()
        };
        let _ = writeln!(out, "$var wire 64 {} {} $end", code(i), name);
    }
    let _ = writeln!(out, "$upscope $end");
    // Control wires get codes *after* the port codes so adding control
    // watching never renumbers existing port waveforms.
    let base = trace.watch.len();
    let places: Vec<usize> = if has_ctl {
        g.ctl.places().ids().map(|s| s.idx()).collect()
    } else {
        Vec::new()
    };
    if has_ctl {
        let _ = writeln!(out, "$scope module control $end");
        for (k, &idx) in places.iter().enumerate() {
            let name = g
                .ctl
                .places()
                .ids()
                .find(|s| s.idx() == idx)
                .map(|s| g.ctl.place(s).name.to_string())
                .unwrap_or_else(|| format!("p{idx}"));
            let _ = writeln!(out, "$var wire 1 {} S_{} $end", code(base + k), name);
        }
        for (k, &p) in trace.guard_ports.iter().enumerate() {
            let port = g.dp.port(p);
            let vx = g.dp.vertex(port.vertex);
            let name = if vx.outputs.len() > 1 {
                format!("{}_o{}", vx.name, port.index)
            } else {
                vx.name.to_string()
            };
            let _ = writeln!(
                out,
                "$var wire 1 {} G_{} $end",
                code(base + places.len() + k),
                name
            );
        }
        let _ = writeln!(out, "$upscope $end");
    }
    let _ = writeln!(out, "$enddefinitions $end");

    let fmt = |v: Value| -> String {
        match v {
            Value::Def(x) => format!("b{:b}", x as u64),
            Value::Undef => "bx".to_string(),
        }
    };
    let steps = trace.watched.len().max(trace.marking_rows.len());
    let mut last: Vec<Option<Value>> = vec![None; trace.watch.len()];
    let mut last_bits: Vec<Option<bool>> = vec![None; places.len() + trace.guard_ports.len()];
    for step in 0..steps {
        let mut emitted_time = false;
        let mut time = |out: &mut String| {
            if !emitted_time {
                let _ = writeln!(out, "#{step}");
                emitted_time = true;
            }
        };
        if let Some(row) = trace.watched.get(step) {
            for (i, &v) in row.iter().enumerate() {
                if last[i] != Some(v) {
                    time(&mut out);
                    let _ = writeln!(out, "{} {}", fmt(v), code(i));
                    last[i] = Some(v);
                }
            }
        }
        if let Some(marks) = trace.marking_rows.get(step) {
            let grow = trace.guard_rows.get(step);
            for (k, bit) in places
                .iter()
                .map(|&idx| marks.contains(idx))
                .chain((0..trace.guard_ports.len()).map(|k| grow.is_some_and(|r| r.contains(k))))
                .enumerate()
            {
                if last_bits[k] != Some(bit) {
                    time(&mut out);
                    // Scalar change: no space between value and code.
                    let _ = writeln!(out, "{}{}", u8::from(bit), code(base + k));
                    last_bits[k] = Some(bit);
                }
            }
        }
    }
    let _ = writeln!(out, "#{steps}");
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::env::ScriptedEnv;
    use etpn_core::{EtpnBuilder, Op};

    fn counter() -> Etpn {
        let mut b = EtpnBuilder::new();
        let one = b.constant(1, "one");
        let add = b.operator(Op::Add, 2, "add");
        let r = b.register("r");
        let a0 = b.connect(b.out_port(r, 0), b.in_port(add, 0));
        let a1 = b.connect(b.out_port(one, 0), b.in_port(add, 1));
        let a2 = b.connect(b.out_port(add, 0), b.in_port(r, 0));
        let s0 = b.place("s0");
        b.control(s0, [a0, a1, a2]);
        let t = b.transition("t");
        b.flow_st(s0, t);
        b.flow_ts(t, s0);
        b.mark(s0);
        b.finish().unwrap()
    }

    #[test]
    fn vcd_renders_register_waveform() {
        let g = counter();
        let trace = Simulator::new(&g, ScriptedEnv::new())
            .init_register("r", 0)
            .watch_registers()
            .run(5)
            .unwrap();
        let vcd = render(&g, &trace).expect("watched ports present");
        assert!(vcd.contains("$var wire 64 ! r $end"), "{vcd}");
        assert!(vcd.contains("#0"));
        // r counts 0,1,2,3,4 — five value changes.
        assert_eq!(
            vcd.matches("\nb").count() + usize::from(vcd.starts_with('b')),
            5,
            "{vcd}"
        );
    }

    #[test]
    fn unwatched_trace_renders_nothing() {
        let g = counter();
        let trace = Simulator::new(&g, ScriptedEnv::new()).run(3).unwrap();
        assert!(render(&g, &trace).is_none());
    }

    #[test]
    fn undefined_values_render_as_x() {
        let g = counter();
        // No register init: r starts ⊥.
        let trace = Simulator::new(&g, ScriptedEnv::new())
            .watch_registers()
            .run(2)
            .unwrap();
        let vcd = render(&g, &trace).unwrap();
        assert!(vcd.contains("bx"), "{vcd}");
    }

    #[test]
    fn control_wires_ride_along_without_renumbering_ports() {
        let g = counter();
        let trace = Simulator::new(&g, ScriptedEnv::new())
            .init_register("r", 0)
            .watch_registers()
            .watch_control()
            .run(3)
            .unwrap();
        let vcd = render(&g, &trace).unwrap();
        // Port code unchanged by the extra scope.
        assert!(vcd.contains("$var wire 64 ! r $end"), "{vcd}");
        assert!(vcd.contains("$scope module control $end"), "{vcd}");
        assert!(vcd.contains("$var wire 1 \" S_s0 $end"), "{vcd}");
        // s0 holds a token throughout: exactly one scalar change, to 1.
        assert_eq!(vcd.matches("\n1\"").count(), 1, "{vcd}");
        assert_eq!(vcd.matches("\n0\"").count(), 0, "{vcd}");
    }

    #[test]
    fn control_only_trace_still_renders() {
        let g = counter();
        let trace = Simulator::new(&g, ScriptedEnv::new())
            .watch_control()
            .run(2)
            .unwrap();
        let vcd = render(&g, &trace).unwrap();
        assert!(!vcd.contains("wire 64"), "{vcd}");
        assert!(vcd.contains("S_s0"), "{vcd}");
        assert!(vcd.ends_with("#2\n"), "{vcd}");
    }

    #[test]
    fn date_header_is_deterministic() {
        let g = counter();
        let mk = || {
            let t = Simulator::new(&g, ScriptedEnv::new())
                .init_register("r", 0)
                .watch_registers()
                .run(4)
                .unwrap();
            render(&g, &t).unwrap()
        };
        assert_eq!(mk(), mk());
        assert!(mk().starts_with("$date design 0x"), "{}", mk());
    }

    #[test]
    fn id_codes_are_unique() {
        let codes: Vec<String> = (0..200).map(code).collect();
        let set: std::collections::HashSet<_> = codes.iter().collect();
        assert_eq!(set.len(), codes.len());
    }
}
