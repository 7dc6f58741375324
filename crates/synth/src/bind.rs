//! Allocation and binding reports.
//!
//! In the transformational flow, allocation and binding are not separate
//! algorithms — they are *read off* the final design: every surviving
//! data-path vertex is an allocated unit, and the control states using it
//! are its binding. This module summarises that view for human consumption
//! and for the experiment tables.

use crate::module_lib::ModuleLibrary;
use etpn_core::{Etpn, Op, VertexId};
use std::collections::BTreeMap;

/// One allocated functional unit and the control states bound to it.
#[derive(Clone, Debug)]
pub struct UnitBinding {
    /// The vertex.
    pub vertex: VertexId,
    /// Unit name.
    pub name: String,
    /// Output operations.
    pub ops: Vec<Op>,
    /// Area of the unit.
    pub area: u64,
    /// Names of control states using the unit.
    pub bound_states: Vec<String>,
}

/// Aggregated allocation/binding of a design.
#[derive(Clone, Debug)]
pub struct BindingReport {
    /// Per-unit bindings (internal vertices only), in id order.
    pub units: Vec<UnitBinding>,
    /// Count of units per operation mnemonic.
    pub allocation: BTreeMap<String, usize>,
}

impl BindingReport {
    /// Units shared by more than one control state.
    pub fn shared_units(&self) -> Vec<&UnitBinding> {
        self.units
            .iter()
            .filter(|u| u.bound_states.len() > 1)
            .collect()
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::from("allocation:\n");
        for (op, n) in &self.allocation {
            out.push_str(&format!("  {op:8} × {n}\n"));
        }
        out.push_str("binding:\n");
        for u in &self.units {
            out.push_str(&format!(
                "  {:10} [{}] area={:<3} ← {}\n",
                u.name,
                u.ops
                    .iter()
                    .map(|o| o.mnemonic())
                    .collect::<Vec<_>>()
                    .join(","),
                u.area,
                if u.bound_states.is_empty() {
                    "(idle)".to_string()
                } else {
                    u.bound_states.join(", ")
                }
            ));
        }
        out
    }
}

/// Extract the allocation/binding of a design.
pub fn binding_report(g: &Etpn, lib: &ModuleLibrary) -> BindingReport {
    let mut units = Vec::new();
    let mut allocation: BTreeMap<String, usize> = BTreeMap::new();
    for (v, vx) in g.dp.vertices().iter() {
        if vx.is_external() {
            continue;
        }
        let ops: Vec<Op> = vx
            .outputs
            .iter()
            .map(|&p| g.dp.port(p).operation())
            .collect();
        let area = ops.iter().map(|&o| lib.area(o)).sum();
        for op in &ops {
            *allocation.entry(op.mnemonic().to_string()).or_insert(0) += 1;
        }
        let bound_states = etpn_transform::legality::use_states(g, v)
            .into_iter()
            .map(|s| g.ctl.place(s).name.to_string())
            .collect();
        units.push(UnitBinding {
            vertex: v,
            name: vx.name.to_string(),
            ops,
            area,
            bound_states,
        });
    }
    BindingReport { units, allocation }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use etpn_lang::parse;
    use etpn_transform::{Rewriter, Transform, VertexMerger};

    #[test]
    fn report_counts_units_and_bindings() {
        let d = compile(
            &parse(
                "design t { in a; out y; reg r1, r2;
                r1 = a;
                r2 = r1 * r1;
                r1 = r2 * r2;
                y = r1; }",
            )
            .unwrap(),
        )
        .unwrap();
        let lib = ModuleLibrary::standard();
        let rep = binding_report(&d.etpn, &lib);
        assert_eq!(rep.allocation["*"], 2, "{}", rep.render());
        assert_eq!(rep.allocation["reg"], 2);
        assert!(rep.shared_units().is_empty() || !rep.shared_units().is_empty());

        // Merge the two multipliers, then the report shows sharing.
        let mut rw = Rewriter::new(d.etpn.clone());
        let cands = VertexMerger::candidates(rw.design());
        let (vi, vj) = cands
            .into_iter()
            .find(|&(vi, vj)| {
                let g = rw.design();
                g.dp.vertex(vi).name.starts_with("op") && g.dp.vertex(vj).name.starts_with("op")
            })
            .expect("the two multipliers are mergeable");
        rw.apply(Transform::Merge(vi, vj)).unwrap();
        let rep2 = binding_report(rw.design(), &lib);
        assert_eq!(rep2.allocation["*"], 1);
        // The surviving multiplier is now bound to both compute states
        // (registers are "shared" too — they are read and written in
        // several states — so filter by op).
        let mul = rep2
            .units
            .iter()
            .find(|u| u.ops.contains(&Op::Mul))
            .unwrap();
        assert_eq!(mul.bound_states.len(), 2, "{}", rep2.render());
        assert!(rep2.render().contains('*'));
    }
}
