//! **E7 — analysis scalability.**
//!
//! Random structured nets of growing size: wall time of the order-relation
//! closure, the acyclic closure, the data-dependence relation, P-invariant
//! extraction, and bounded reachability (with its explored state count).
//! The five analyses of one size are the arms of one measurement; a
//! column is the arm's median time per call.
//! Shape: the dense closures scale ~cubically in |S| (word-parallel
//! Warshall), reachability stays linear for these structured nets.

use crate::measure::measure;
use crate::table::Table;
use crate::Scale;
use etpn_analysis::{p_invariants, DataDependence, ReachGraph};
use etpn_core::ControlRelations;
use etpn_workloads::random_net;
use std::time::Instant;

/// Run E7.
pub fn run(scale: Scale) -> Table {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[16, 64, 256],
        Scale::Full => &[16, 64, 256, 1024, 2048],
    };
    let mut table = Table::new(
        "E7",
        "analysis runtime vs net size",
        &[
            "|S|",
            "closure ms",
            "acyclic ms",
            "datadep ms",
            "invariants ms",
            "reach ms",
            "reach states",
        ],
    );
    for &n in sizes {
        let g = random_net(11, n);
        let mut states = 0usize;
        let m = measure(5, scale.n(3, 5), |arm| {
            let t0 = Instant::now();
            match arm {
                0 => drop(ControlRelations::compute(&g.ctl)),
                1 => drop(ControlRelations::compute_acyclic(&g.ctl)),
                2 => drop(DataDependence::compute(&g)),
                3 => drop(p_invariants(&g.ctl)),
                _ => states = ReachGraph::explore(&g.ctl, 1 << 18).state_count(),
            }
            (1, t0.elapsed())
        });
        let mut row = vec![n.to_string()];
        row.extend((0..5).map(|arm| format!("{:.2}", 1e3 / m.rate(arm))));
        row.push(states.to_string());
        table.row(row);
    }
    table.interpret(
        "dense closures grow ~cubically with |S|; reachability of structured \
         nets stays near-linear",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_produces_rows_and_sane_states() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let n: usize = row[0].parse().unwrap();
            let states: usize = row[6].parse().unwrap();
            assert!(states >= n / 2, "reach explores the net: {row:?}");
        }
    }
}
