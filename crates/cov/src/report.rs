//! Coverage reports: denominators, hole analysis, and renderers.
//!
//! [`report`] cross-references a [`CovDb`] with the design and an optional
//! [`StaticDead`] set (from `etpn-lint`'s monotone marking fixpoint):
//! statically-dead items are *excluded from the denominator*, so every
//! hole the report lists is a genuine testing gap — behaviour the design
//! can exhibit that no merged run exercised — never dead code.
//!
//! Three renderers: human text ([`CovReport::text`]), a hand-rolled JSON
//! document ([`CovReport::json`]) for CI artifacts, and an lcov-style
//! tracefile ([`lcov`]) mapping places/transitions onto source lines so
//! generic coverage viewers can display ETPN coverage.

use crate::CovDb;
use etpn_core::bitset::BitSet;
use etpn_core::{Etpn, PlaceId, TransId};
use std::fmt::Write;

/// Statically-dead control elements, as raw-id bitsets. Produced from
/// `etpn-lint`'s dead-place/dead-transition fixpoint by the caller (this
/// crate deliberately does not depend on the lint engine).
#[derive(Clone, Debug)]
pub struct StaticDead {
    /// Places the fixpoint proves can never be marked.
    pub places: BitSet,
    /// Transitions the fixpoint proves can never fire.
    pub transitions: BitSet,
}

impl StaticDead {
    /// No static information: nothing is excluded.
    pub fn none() -> Self {
        Self {
            places: BitSet::new(0),
            transitions: BitSet::new(0),
        }
    }

    /// Build from id lists (as `etpn_lint::statically_dead` returns them).
    pub fn from_ids(g: &Etpn, places: &[PlaceId], transitions: &[TransId]) -> Self {
        let mut dead = Self {
            places: BitSet::new(g.ctl.places().capacity_bound()),
            transitions: BitSet::new(g.ctl.transitions().capacity_bound()),
        };
        for s in places {
            dead.places.insert(s.idx());
        }
        for t in transitions {
            dead.transitions.insert(t.idx());
        }
        dead
    }
}

/// One coverage dimension: covered / live-total, with the statically-dead
/// exclusion count and the named holes that remain.
#[derive(Clone, Debug)]
pub struct Dimension {
    /// Dimension name (`places`, `transitions`, `arcs`, `guards`,
    /// `toggles`).
    pub name: &'static str,
    /// Items covered.
    pub covered: usize,
    /// Live items — the denominator, with statically-dead items already
    /// removed.
    pub total: usize,
    /// Statically-dead items excluded from the denominator.
    pub excluded: usize,
    /// Names of live-but-uncovered items: the genuine testing gaps.
    pub holes: Vec<String>,
}

impl Dimension {
    /// Percentage covered; an empty dimension counts as fully covered.
    pub fn pct(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            self.covered as f64 * 100.0 / self.total as f64
        }
    }
}

/// The full coverage report over all five dimensions.
#[derive(Clone, Debug)]
pub struct CovReport {
    /// Fingerprint of the covered design.
    pub fingerprint: u64,
    /// Runs merged into the underlying DB.
    pub runs: u64,
    /// Control steps accumulated over those runs.
    pub steps: u64,
    /// Place coverage (ever marked).
    pub places: Dimension,
    /// Transition coverage (ever fired).
    pub transitions: Dimension,
    /// Arc-activation coverage (ever open).
    pub arcs: Dimension,
    /// Guard-outcome coverage (taken and not-taken both observed).
    pub guards: Dimension,
    /// Output-port toggle coverage (zero and non-zero both observed).
    pub toggles: Dimension,
}

impl CovReport {
    /// All dimensions, in report order.
    pub fn dimensions(&self) -> [&Dimension; 5] {
        [
            &self.places,
            &self.transitions,
            &self.arcs,
            &self.guards,
            &self.toggles,
        ]
    }

    /// True when place *and* transition coverage meet `pct` — the two
    /// gate dimensions (`--fail-under`).
    pub fn meets(&self, pct: f64) -> bool {
        self.places.pct() >= pct && self.transitions.pct() >= pct
    }

    /// Human-readable multi-line report.
    pub fn text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "coverage over {} run(s), {} steps (design {:#018x}):",
            self.runs, self.steps, self.fingerprint
        );
        for d in self.dimensions() {
            let _ = write!(
                s,
                "  {:<12} {:>4}/{:<4} {:6.1}%",
                d.name,
                d.covered,
                d.total,
                d.pct()
            );
            if d.excluded > 0 {
                let _ = write!(s, "  ({} statically dead excluded)", d.excluded);
            }
            let _ = writeln!(s);
        }
        let holes: usize = self.dimensions().iter().map(|d| d.holes.len()).sum();
        if holes == 0 {
            let _ = writeln!(s, "  no holes: every live item was exercised");
        } else {
            let _ = writeln!(s, "  holes ({holes} genuine gaps, dead code excluded):");
            for d in self.dimensions() {
                for h in &d.holes {
                    let _ = writeln!(s, "    [{}] {}", d.name, h);
                }
            }
        }
        s
    }

    /// The report as a JSON document (hand-rolled; no serde in-tree).
    pub fn json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    '\n' => "\\n".chars().collect(),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"fingerprint\":\"{:#018x}\",\"runs\":{},\"steps\":{},\"dimensions\":[",
            self.fingerprint, self.runs, self.steps
        );
        for (i, d) in self.dimensions().into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"covered\":{},\"total\":{},\"excluded\":{},\"pct\":{:.2},\"holes\":[",
                d.name, d.covered, d.total, d.excluded, d.pct()
            );
            for (j, h) in d.holes.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\"", esc(h));
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

/// Vertex name a port belongs to, disambiguated by output index when the
/// vertex has several outputs (matching the VCD naming convention).
fn port_name(g: &Etpn, idx: usize) -> String {
    let Some(p) =
        g.dp.ports()
            .ids()
            .find(|p| p.idx() == idx)
            .map(|p| g.dp.port(p))
    else {
        return format!("port#{idx}");
    };
    let vx = g.dp.vertex(p.vertex);
    if vx.outputs.len() > 1 {
        format!("{}_o{}", vx.name, p.index)
    } else {
        vx.name.to_string()
    }
}

/// Build the full report: five dimensions with statically-dead exclusion
/// and named holes. `dead` items never enter a denominator; a dead arc is
/// derived (an arc *all* of whose controlling places are dead can never
/// conduct), and guards of dead transitions are likewise excluded.
pub fn report(g: &Etpn, db: &CovDb, dead: &StaticDead) -> CovReport {
    let mut places = Dimension {
        name: "places",
        covered: 0,
        total: 0,
        excluded: 0,
        holes: Vec::new(),
    };
    for (s, place) in g.ctl.places().iter() {
        if dead.places.contains(s.idx()) {
            places.excluded += 1;
        } else {
            places.total += 1;
            if db.place_marked.contains(s.idx()) {
                places.covered += 1;
            } else {
                places.holes.push(place.name.to_string());
            }
        }
    }

    let mut transitions = Dimension {
        name: "transitions",
        covered: 0,
        total: 0,
        excluded: 0,
        holes: Vec::new(),
    };
    let mut guards = Dimension {
        name: "guards",
        covered: 0,
        total: 0,
        excluded: 0,
        holes: Vec::new(),
    };
    for (t, tr) in g.ctl.transitions().iter() {
        let is_dead = dead.transitions.contains(t.idx());
        if is_dead {
            transitions.excluded += 1;
        } else {
            transitions.total += 1;
            if db.trans_fired.get(t.idx()).copied().unwrap_or(0) > 0 {
                transitions.covered += 1;
            } else {
                transitions.holes.push(tr.name.to_string());
            }
        }
        if !tr.guards.is_empty() {
            if is_dead {
                guards.excluded += 1;
            } else {
                guards.total += 1;
                let taken = db.guard_taken.contains(t.idx());
                let untaken = db.guard_untaken.contains(t.idx());
                if taken && untaken {
                    guards.covered += 1;
                } else {
                    let missing = match (taken, untaken) {
                        (true, false) => "never observed held back",
                        (false, true) => "never observed taken",
                        _ => "never observed enabled",
                    };
                    guards.holes.push(format!("{} ({missing})", tr.name));
                }
            }
        }
    }

    let mut arcs = Dimension {
        name: "arcs",
        covered: 0,
        total: 0,
        excluded: 0,
        holes: Vec::new(),
    };
    for (a, arc) in g.dp.arcs().iter() {
        let controllers = g.ctl.controllers_of(a);
        let all_dead =
            !controllers.is_empty() && controllers.iter().all(|s| dead.places.contains(s.idx()));
        if all_dead {
            arcs.excluded += 1;
        } else {
            arcs.total += 1;
            if db.arc_open.contains(a.idx()) {
                arcs.covered += 1;
            } else {
                arcs.holes.push(format!(
                    "{} -> {}",
                    g.dp.vertex(g.dp.port(arc.from).vertex).name,
                    g.dp.vertex(g.dp.port(arc.to).vertex).name
                ));
            }
        }
    }

    let mut toggles = Dimension {
        name: "toggles",
        covered: 0,
        total: 0,
        excluded: 0,
        holes: Vec::new(),
    };
    for (_, vx) in g.dp.vertices().iter() {
        for &p in &vx.outputs {
            toggles.total += 1;
            let hi = db.port_true.contains(p.idx());
            let lo = db.port_false.contains(p.idx());
            if hi && lo {
                toggles.covered += 1;
            } else {
                let missing = match (hi, lo) {
                    (true, false) => "never 0",
                    (false, true) => "never non-0",
                    _ => "never defined",
                };
                toggles
                    .holes
                    .push(format!("{} ({missing})", port_name(g, p.idx())));
            }
        }
    }

    CovReport {
        fingerprint: db.fingerprint,
        runs: db.runs,
        steps: db.steps,
        places,
        transitions,
        arcs,
        guards,
        toggles,
    }
}

/// Render an lcov-style tracefile: places and transitions become `DA`
/// records on the source lines the line maps supply (`None` falls back to
/// the raw id + 1, keeping every item visible even without a source map).
/// Statically-dead items are omitted, so `LH/LF` match the report's
/// dead-excluded denominators. Hit counts are activation/firing counts;
/// items sharing a line sum.
pub fn lcov(
    g: &Etpn,
    db: &CovDb,
    dead: &StaticDead,
    source_name: &str,
    line_of_place: &dyn Fn(PlaceId) -> Option<u32>,
    line_of_trans: &dyn Fn(TransId) -> Option<u32>,
) -> String {
    use std::collections::BTreeMap;
    let mut lines: BTreeMap<u32, u64> = BTreeMap::new();
    for (s, _) in g.ctl.places().iter() {
        if dead.places.contains(s.idx()) {
            continue;
        }
        let line = line_of_place(s).unwrap_or(s.idx() as u32 + 1);
        *lines.entry(line).or_default() += db.place_exits.get(s.idx()).copied().unwrap_or(0);
    }
    for (t, _) in g.ctl.transitions().iter() {
        if dead.transitions.contains(t.idx()) {
            continue;
        }
        let line = line_of_trans(t).unwrap_or(t.idx() as u32 + 1);
        *lines.entry(line).or_default() += db.trans_fired.get(t.idx()).copied().unwrap_or(0);
    }
    let mut out = String::new();
    let _ = writeln!(out, "TN:etpn-cov");
    let _ = writeln!(out, "SF:{source_name}");
    let mut hit = 0usize;
    for (&line, &hits) in &lines {
        let _ = writeln!(out, "DA:{line},{hits}");
        if hits > 0 {
            hit += 1;
        }
    }
    let _ = writeln!(out, "LF:{}", lines.len());
    let _ = writeln!(out, "LH:{hit}");
    let _ = writeln!(out, "end_of_record");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_core::{EtpnBuilder, Op};

    /// Live chain (s0 → s1 → end) plus a floating dead place/transition
    /// pair controlling their own arc.
    fn with_dead() -> Etpn {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let r = b.register("r");
        let ge = b.operator(Op::Ge, 2, "ge");
        let zero = b.constant(0, "z");
        let y = b.output("y");
        let load = b.connect(b.out_port(x, 0), b.in_port(r, 0));
        let c0 = b.connect(b.out_port(r, 0), b.in_port(ge, 0));
        let c1 = b.connect(b.out_port(zero, 0), b.in_port(ge, 1));
        let emit = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s_end = b.place("end");
        b.control(s0, [load, c0, c1]);
        b.control(s1, [emit]);
        let t0 = b.seq(s0, s1, "t0");
        b.guard(t0, b.out_port(ge, 0));
        b.seq(s1, s_end, "t1");
        let fin = b.transition("fin");
        b.flow_st(s_end, fin);
        b.mark(s0);
        // Dead: s_dead opens its own arc, t_dead never fires.
        let k = b.constant(9, "kdead");
        let rd = b.register("rdead");
        let adead = b.connect(b.out_port(k, 0), b.in_port(rd, 0));
        let s_dead = b.place("s_dead");
        b.control(s_dead, [adead]);
        let s_dead2 = b.place("s_dead2");
        b.seq(s_dead, s_dead2, "t_dead");
        b.finish().unwrap()
    }

    fn dead_of(g: &Etpn) -> StaticDead {
        let places: Vec<PlaceId> = ["s_dead", "s_dead2"]
            .iter()
            .map(|n| g.ctl.place_by_name(n).unwrap())
            .collect();
        let trans: Vec<TransId> = g
            .ctl
            .transitions()
            .iter()
            .filter(|(_, tr)| tr.name == "t_dead")
            .map(|(t, _)| t)
            .collect();
        StaticDead::from_ids(g, &places, &trans)
    }

    /// A DB that covered the whole live part and nothing dead.
    fn full_live_db(g: &Etpn) -> CovDb {
        let mut db = CovDb::new(g);
        db.runs = 2;
        db.steps = 10;
        for (s, place) in g.ctl.places().iter() {
            if !place.name.starts_with("s_dead") {
                db.place_marked.insert(s.idx());
                db.place_exits[s.idx()] = 1;
            }
        }
        for (t, tr) in g.ctl.transitions().iter() {
            if tr.name != "t_dead" {
                db.trans_fired[t.idx()] = 1;
                if !tr.guards.is_empty() {
                    db.record_guard(t.idx(), true);
                    db.record_guard(t.idx(), false);
                }
            }
        }
        for (a, _) in g.dp.arcs().iter() {
            let ctl = g.ctl.controllers_of(a);
            let live = ctl.is_empty()
                || ctl
                    .iter()
                    .any(|&s| !g.ctl.place(s).name.starts_with("s_dead"));
            if live {
                db.arc_open.insert(a.idx());
            }
        }
        for (_, vx) in g.dp.vertices().iter() {
            for &p in &vx.outputs {
                db.record_toggle(p.idx(), Value::Def(0));
                db.record_toggle(p.idx(), Value::Def(1));
            }
        }
        db
    }

    use etpn_core::Value;

    #[test]
    fn dead_exclusion_turns_holes_into_full_coverage() {
        let g = with_dead();
        let db = full_live_db(&g);
        // Without static info the dead part reads as holes.
        let naive = report(&g, &db, &StaticDead::none());
        assert!(naive.places.pct() < 100.0);
        assert!(naive.places.holes.iter().any(|h| h.contains("s_dead")));
        assert!(!naive.meets(90.0) || naive.transitions.pct() >= 90.0);
        // With the fixpoint the denominator shrinks and the holes vanish.
        let informed = report(&g, &db, &dead_of(&g));
        assert_eq!(informed.places.pct(), 100.0, "{}", informed.text());
        assert_eq!(informed.transitions.pct(), 100.0);
        assert_eq!(informed.arcs.pct(), 100.0, "dead-controlled arc excluded");
        assert_eq!(informed.places.excluded, 2);
        assert_eq!(informed.transitions.excluded, 1);
        assert!(informed.meets(100.0));
        assert!(informed.text().contains("statically dead excluded"));
    }

    #[test]
    fn guard_holes_name_the_missing_direction() {
        let g = with_dead();
        let mut db = CovDb::new(&g);
        let t0 = g
            .ctl
            .transitions()
            .iter()
            .find(|(_, tr)| tr.name == "t0")
            .unwrap()
            .0;
        db.record_guard(t0.idx(), true);
        let rep = report(&g, &db, &dead_of(&g));
        assert_eq!(rep.guards.total, 1);
        assert_eq!(rep.guards.covered, 0);
        assert!(
            rep.guards.holes[0].contains("never observed held back"),
            "{:?}",
            rep.guards.holes
        );
    }

    #[test]
    fn json_is_well_formed_enough_for_line_tools() {
        let g = with_dead();
        let rep = report(&g, &full_live_db(&g), &dead_of(&g));
        let json = rep.json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches("\"name\"").count(), 5);
        assert!(json.contains("\"pct\":100.00"));
        // Balanced braces/brackets (no string in our output contains any).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn lcov_omits_dead_items_and_counts_hits() {
        let g = with_dead();
        let db = full_live_db(&g);
        let text = lcov(&g, &db, &dead_of(&g), "design.hdl", &|_| None, &|_| None);
        assert!(text.starts_with("TN:etpn-cov\nSF:design.hdl\n"));
        assert!(text.ends_with("end_of_record\n"));
        // Live places (3) + live transitions (3) on distinct fallback
        // lines... place and transition raw ids overlap, so lines merge:
        // just check LF == LH (everything live was hit).
        let lf: u32 = text
            .lines()
            .find_map(|l| l.strip_prefix("LF:"))
            .unwrap()
            .parse()
            .unwrap();
        let lh: u32 = text
            .lines()
            .find_map(|l| l.strip_prefix("LH:"))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(lf, lh, "{text}");
        assert!(lf > 0);
    }
}
