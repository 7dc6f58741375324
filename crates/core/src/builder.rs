//! An ergonomic builder for assembling [`Etpn`] systems by hand.
//!
//! The builder panics on misuse (connecting two input ports, dangling ids):
//! it is intended for tests, examples, and workload definitions where such
//! mistakes are programming errors. [`EtpnBuilder::finish`] runs full
//! structural validation and returns the assembled system.

use crate::control::Control;
use crate::datapath::DataPath;
use crate::error::CoreResult;
use crate::etpn::Etpn;
use crate::ids::{ArcId, PlaceId, PortId, TransId, VertexId};
use crate::name;
use crate::name::Name;
use crate::op::Op;

/// Incremental constructor for a data/control flow system.
#[derive(Default, Debug)]
pub struct EtpnBuilder {
    dp: DataPath,
    ctl: Control,
}

impl EtpnBuilder {
    /// Start with an empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve room for at least this many more vertices, ports, arcs,
    /// places and transitions, so a builder that knows its design's size
    /// grows each arena once.
    pub fn reserve(
        &mut self,
        vertices: usize,
        ports: usize,
        arcs: usize,
        places: usize,
        transitions: usize,
    ) {
        self.dp.reserve(vertices, ports, arcs);
        self.ctl.reserve(places, transitions);
    }

    // ---------------- data path ----------------

    /// Add an external input vertex.
    pub fn input(&mut self, name: impl Into<Name>) -> VertexId {
        self.dp.add_input(name)
    }

    /// Add an external output vertex.
    pub fn output(&mut self, name: impl Into<Name>) -> VertexId {
        self.dp.add_output(name)
    }

    /// Add a single-output operator vertex.
    pub fn operator(&mut self, op: Op, n_inputs: usize, name: impl Into<Name>) -> VertexId {
        self.dp
            .add_unit(name, n_inputs, &[op])
            .unwrap_or_else(|e| panic!("builder: {e}"))
    }

    /// Add a multi-output operator vertex (one op per output port).
    pub fn operator_multi(
        &mut self,
        ops: &[Op],
        n_inputs: usize,
        name: impl Into<Name>,
    ) -> VertexId {
        self.dp
            .add_unit(name, n_inputs, ops)
            .unwrap_or_else(|e| panic!("builder: {e}"))
    }

    /// Add a register.
    pub fn register(&mut self, name: impl Into<Name>) -> VertexId {
        self.dp.add_register(name)
    }

    /// Add a constant source.
    pub fn constant(&mut self, value: i64, name: impl Into<Name>) -> VertexId {
        self.dp.add_const(name, value)
    }

    /// The `i`-th input port of `v`.
    pub fn in_port(&self, v: VertexId, i: usize) -> PortId {
        self.dp.in_port(v, i)
    }

    /// The `i`-th output port of `v`.
    pub fn out_port(&self, v: VertexId, i: usize) -> PortId {
        self.dp.out_port(v, i)
    }

    /// Connect an output port to an input port.
    pub fn connect(&mut self, from: PortId, to: PortId) -> ArcId {
        self.dp
            .connect(from, to)
            .unwrap_or_else(|e| panic!("builder: {e}"))
    }

    // ---------------- control ----------------

    /// Add a control state.
    pub fn place(&mut self, name: impl Into<Name>) -> PlaceId {
        self.ctl.add_place(name)
    }

    /// Add a transition.
    pub fn transition(&mut self, name: impl Into<Name>) -> TransId {
        self.ctl.add_transition(name)
    }

    /// Add `(S, T)` to the flow relation.
    pub fn flow_st(&mut self, s: PlaceId, t: TransId) {
        self.ctl
            .flow_st(s, t)
            .unwrap_or_else(|e| panic!("builder: {e}"));
    }

    /// Add `(T, S)` to the flow relation.
    pub fn flow_ts(&mut self, t: TransId, s: PlaceId) {
        self.ctl
            .flow_ts(t, s)
            .unwrap_or_else(|e| panic!("builder: {e}"));
    }

    /// Guard `t` by output port `p`.
    pub fn guard(&mut self, t: TransId, p: PortId) {
        self.ctl.add_guard(t, p);
    }

    /// Put arcs under control of `s`.
    pub fn control<I: IntoIterator<Item = ArcId>>(&mut self, s: PlaceId, arcs: I) {
        for a in arcs {
            self.ctl.add_ctrl(s, a);
        }
    }

    /// Mark `s` in the initial marking `M0`.
    pub fn mark(&mut self, s: PlaceId) {
        self.ctl.set_marked0(s, true);
    }

    /// Insert an unguarded transition taking `from` to `to`, returning it.
    ///
    /// Convenience for the ubiquitous serial chain `S_i → t → S_{i+1}`.
    pub fn seq(&mut self, from: PlaceId, to: PlaceId, name: impl Into<Name>) -> TransId {
        let t = self.transition(name);
        self.flow_st(from, t);
        self.flow_ts(t, to);
        t
    }

    /// Build a serial chain of fresh places `s0 → s1 → … → s{n-1}`, marking
    /// the first, and return the places. Transitions are named `t0, t1, …`.
    pub fn serial_chain(&mut self, n: usize, prefix: &str) -> Vec<PlaceId> {
        let places: Vec<PlaceId> = (0..n).map(|i| self.place(name!("{prefix}{i}"))).collect();
        for i in 0..n.saturating_sub(1) {
            let t = name!("{prefix}_t{i}");
            self.seq(places[i], places[i + 1], t);
        }
        if let Some(&first) = places.first() {
            self.mark(first);
        }
        places
    }

    /// Read-only view of the data path under construction.
    pub fn datapath(&self) -> &DataPath {
        &self.dp
    }

    /// Validate and return the assembled system.
    pub fn finish(self) -> CoreResult<Etpn> {
        let g = Etpn::new(self.dp, self.ctl);
        g.validate()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_two_state_design() {
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
        b.seq(s0, s1, "t0");
        b.mark(s0);
        let g = b.finish().unwrap();
        assert_eq!(g.size(), (3, 4, 2, 2, 1));
        assert_eq!(g.ctl.initial_places().len(), 1);
    }

    #[test]
    fn serial_chain_marks_first() {
        let mut b = EtpnBuilder::new();
        let chain = b.serial_chain(4, "s");
        assert_eq!(chain.len(), 4);
        let g = b.finish().unwrap();
        assert_eq!(g.ctl.initial_places(), vec![chain[0]]);
        assert_eq!(g.ctl.transitions().len(), 3);
    }

    #[test]
    #[should_panic(expected = "builder:")]
    fn bad_connect_panics() {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        b.connect(b.out_port(x, 0), b.out_port(y, 0));
    }
}
