//! Graphviz DOT export of the two sub-models.
//!
//! The paper stresses that the model "allows graphical representations of
//! the structures as well as behaviors" (§6); these exporters render the
//! data path as a port graph and the control structure in the usual
//! place/transition notation, with the `C` mapping shown as dashed edges.

use crate::etpn::Etpn;
use crate::vertex::VertexKind;
use std::fmt::Write;

/// Render the data path as a DOT digraph.
pub fn datapath_dot(g: &Etpn) -> String {
    datapath_dot_with(g, None)
}

/// Per-vertex heat for [`datapath_dot_heat`], raw-vertex-id indexed
/// (missing ids count as zero). Fault campaigns use silent-corruption
/// counts here to render a vulnerability map.
pub struct DataHeat<'a> {
    /// Heat score per data-path vertex.
    pub vertex_counts: &'a [u64],
}

/// Render the data path with each vertex annotated with its heat count and
/// filled on the white→red log ramp of `dot --heat` (white = cold, deep
/// red = hottest vertex).
pub fn datapath_dot_heat(g: &Etpn, heat: &DataHeat<'_>) -> String {
    datapath_dot_with(g, Some(heat))
}

fn datapath_dot_with(g: &Etpn, heat: Option<&DataHeat<'_>>) -> String {
    let max_count = heat
        .map(|h| h.vertex_counts.iter().copied().max().unwrap_or(0))
        .unwrap_or(0);
    let mut s = String::new();
    let _ = writeln!(s, "digraph datapath {{");
    let _ = writeln!(s, "  rankdir=LR; node [fontsize=10];");
    for (v, vx) in g.dp.vertices().iter() {
        let (shape, color) = match vx.kind {
            VertexKind::Input => ("invhouse", "lightblue".to_string()),
            VertexKind::Output => ("house", "lightsalmon".to_string()),
            VertexKind::Unit => {
                if g.dp.is_sequential_vertex(v) {
                    ("box", "lightyellow".to_string())
                } else {
                    ("ellipse", "white".to_string())
                }
            }
        };
        let ops: Vec<String> = vx
            .outputs
            .iter()
            .map(|&p| g.dp.port(p).operation().to_string())
            .collect();
        let mut label = if ops.is_empty() {
            vx.name.to_string()
        } else {
            format!("{}\\n[{}]", vx.name, ops.join(","))
        };
        let color = match heat {
            None => color,
            Some(h) => {
                let count = h.vertex_counts.get(v.idx()).copied().unwrap_or(0);
                label = format!("{label}\\n{count}");
                heat_color(count, max_count)
            }
        };
        let _ = writeln!(
            s,
            "  {v} [label=\"{label}\", shape={shape}, style=filled, fillcolor={color}];"
        );
    }
    for (a, arc) in g.dp.arcs().iter() {
        let from_v = g.dp.port(arc.from).vertex;
        let to_v = g.dp.port(arc.to).vertex;
        let ctrl: Vec<&str> = g
            .ctl
            .controllers_of(a)
            .iter()
            .map(|p| g.ctl.place(*p).name.as_str())
            .collect();
        let label = if ctrl.is_empty() {
            String::new()
        } else {
            ctrl.join(",")
        };
        let _ = writeln!(s, "  {from_v} -> {to_v} [label=\"{a} {label}\"];");
    }
    let _ = writeln!(s, "}}");
    s
}

/// Render the control Petri net as a DOT digraph.
pub fn control_dot(g: &Etpn) -> String {
    control_dot_with(g, None)
}

/// Execution heat for [`control_dot_heat`]: per-place activation counts and
/// per-transition firing counts, raw-id indexed (as a simulator trace
/// records them). Missing ids count as zero.
pub struct ControlHeat<'a> {
    /// Activation (exit) count per control state.
    pub exit_counts: &'a [u64],
    /// Firing count per transition.
    pub fire_counts: &'a [u64],
}

/// Render the control net with execution heat: each place is annotated with
/// its activation count and each transition with its firing count, and the
/// fill colour is graded from cold (white / black) to hot (deep red) on a
/// log scale relative to the hottest node.
pub fn control_dot_heat(g: &Etpn, heat: &ControlHeat<'_>) -> String {
    control_dot_with(g, Some(heat))
}

/// Map a count onto a 9-step white→red ramp, log-scaled so that a tight
/// inner loop does not wash out every other node.
fn heat_color(count: u64, max: u64) -> String {
    if count == 0 || max == 0 {
        return "white".into();
    }
    // 1 + 8·log(count)/log(max), i.e. equal counts map to the hot end.
    let step = if max == 1 {
        9
    } else {
        let ratio = (count as f64).ln() / (max as f64).ln();
        1 + (ratio * 8.0).round() as u32
    };
    format!("\"/reds9/{}\"", step.clamp(1, 9))
}

fn control_dot_with(g: &Etpn, heat: Option<&ControlHeat<'_>>) -> String {
    let max_exit = heat
        .map(|h| h.exit_counts.iter().copied().max().unwrap_or(0))
        .unwrap_or(0);
    let max_fire = heat
        .map(|h| h.fire_counts.iter().copied().max().unwrap_or(0))
        .unwrap_or(0);
    let mut s = String::new();
    let _ = writeln!(s, "digraph control {{");
    let _ = writeln!(s, "  rankdir=TB; node [fontsize=10];");
    for (p, place) in g.ctl.places().iter() {
        let marked = if place.marked0 { " ●" } else { "" };
        match heat {
            None => {
                let fill = if place.marked0 { "gray70" } else { "white" };
                let _ = writeln!(
                    s,
                    "  {p} [label=\"{}{marked}\", shape=circle, style=filled, fillcolor={fill}];",
                    place.name
                );
            }
            Some(h) => {
                let count = h.exit_counts.get(p.idx()).copied().unwrap_or(0);
                let fill = heat_color(count, max_exit);
                let _ = writeln!(
                    s,
                    "  {p} [label=\"{}{marked}\\n{count}\", shape=circle, style=filled, fillcolor={fill}];",
                    place.name
                );
            }
        }
    }
    for (t, trans) in g.ctl.transitions().iter() {
        let guards: Vec<String> = trans.guards.iter().map(|g| g.to_string()).collect();
        let glabel = if guards.is_empty() {
            String::new()
        } else {
            format!("\\n[{}]", guards.join("|"))
        };
        match heat {
            None => {
                let _ = writeln!(
                    s,
                    "  {t} [label=\"{}{glabel}\", shape=box, height=0.2, style=filled, fillcolor=black, fontcolor=white];",
                    trans.name
                );
            }
            Some(h) => {
                let count = h.fire_counts.get(t.idx()).copied().unwrap_or(0);
                let (fill, font) = if count == 0 {
                    ("black".into(), "white")
                } else {
                    (heat_color(count, max_fire), "black")
                };
                let _ = writeln!(
                    s,
                    "  {t} [label=\"{}{glabel}\\n{count}\", shape=box, height=0.2, style=filled, fillcolor={fill}, fontcolor={font}];",
                    trans.name
                );
            }
        }
        for &pre in &trans.pre {
            let _ = writeln!(s, "  {pre} -> {t};");
        }
        for &post in &trans.post {
            let _ = writeln!(s, "  {t} -> {post};");
        }
    }
    let _ = writeln!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EtpnBuilder;

    fn small() -> Etpn {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let r = b.register("r");
        let y = b.output("y");
        let load = b.connect(b.out_port(x, 0), b.in_port(r, 0));
        let emit = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        b.control(s0, [load]);
        b.control(s1, [emit]);
        let t = b.seq(s0, s1, "t0");
        b.guard(t, b.out_port(r, 0));
        b.mark(s0);
        b.finish().unwrap()
    }

    #[test]
    fn datapath_dot_mentions_all_vertices() {
        let g = small();
        let dot = datapath_dot(&g);
        assert!(dot.starts_with("digraph datapath {"));
        for name in ["x", "r", "y"] {
            assert!(dot.contains(name), "missing {name}:\n{dot}");
        }
        assert!(dot.contains("->"));
    }

    #[test]
    fn control_dot_shows_marking_and_guard() {
        let g = small();
        let dot = control_dot(&g);
        assert!(dot.contains("●"), "initial marking rendered");
        assert!(dot.contains("shape=circle"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains('['), "guard label rendered");
    }

    #[test]
    fn heat_dot_grades_and_annotates_counts() {
        let g = small();
        let heat = ControlHeat {
            exit_counts: &[10, 1],
            fire_counts: &[7],
        };
        let dot = control_dot_heat(&g, &heat);
        assert!(dot.contains("\\n10"), "hot place count shown:\n{dot}");
        assert!(dot.contains("\\n7"), "transition count shown:\n{dot}");
        assert!(dot.contains("/reds9/9"), "hottest node is deep red:\n{dot}");
        // A count of 1 against a max of 10 sits at the cold end of the ramp.
        assert!(dot.contains("/reds9/1"), "cold place graded low:\n{dot}");
    }

    #[test]
    fn datapath_heat_grades_vertices() {
        let g = small();
        // Raw-id indexed: x, r, y in insertion order.
        let dot = datapath_dot_heat(
            &g,
            &DataHeat {
                vertex_counts: &[9, 1, 0],
            },
        );
        assert!(dot.contains("\\n9"), "hot vertex count shown:\n{dot}");
        assert!(dot.contains("/reds9/9"), "hottest vertex deep red:\n{dot}");
        assert!(dot.contains("fillcolor=white"), "cold vertex white:\n{dot}");
        // Without heat the plain exporter is unchanged.
        assert!(!datapath_dot(&g).contains("reds9"));
    }

    #[test]
    fn heat_dot_with_no_activity_stays_white() {
        let g = small();
        let heat = ControlHeat {
            exit_counts: &[],
            fire_counts: &[],
        };
        let dot = control_dot_heat(&g, &heat);
        assert!(dot.contains("fillcolor=white"));
        assert!(dot.contains("\\n0"), "zero counts still annotated");
    }
}
