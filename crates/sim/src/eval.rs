//! Data-path evaluation for one control step (paper Def. 3.1(7)–(10)).
//!
//! Given a marking, the arcs controlled by marked places are *open*
//! (`V(I) →_S V(O)`, rule 8). Combinatorial output ports take the present
//! value of their expression, sequential ports the last defined value
//! (rule 9). Values propagate in topological order over the *active*
//! subgraph; an active combinational cycle (forbidden by Def. 3.2(4)) is
//! reported as [`SimError::CombinationalLoop`].

use crate::error::SimError;
use etpn_core::bitset::BitSet;
use etpn_core::port::Dir;
use etpn_core::{Etpn, Marking, Op, PortId, Value, VertexId};

/// The persistent data-path state: one latched value per sequential output
/// port (registers start undefined unless seeded).
#[derive(Clone, Debug)]
pub struct DpState {
    seq: Vec<Value>,
}

impl DpState {
    /// All-undefined state sized for `g`.
    pub fn new(g: &Etpn) -> Self {
        Self {
            seq: vec![Value::Undef; g.dp.ports().capacity_bound()],
        }
    }

    /// The latched value of a sequential output port.
    #[inline]
    pub fn get(&self, p: PortId) -> Value {
        self.seq[p.idx()]
    }

    /// Overwrite the latched value (used for register initialisation).
    pub fn set(&mut self, p: PortId, v: Value) {
        self.seq[p.idx()] = v;
    }

    /// The raw latched-value array (raw-port-id indexed), as recorder
    /// checkpoints snapshot it.
    pub fn values(&self) -> &[Value] {
        &self.seq
    }

    /// Overwrite all latched values from a checkpoint snapshot (the
    /// inverse of [`DpState::values`]).
    pub fn restore(&mut self, values: &[Value]) {
        self.seq.clear();
        self.seq.extend_from_slice(values);
    }
}

/// Result of evaluating one step.
#[derive(Clone, Debug)]
pub struct StepValues {
    /// Value present at every live port during the step (raw-id indexed).
    pub port_values: Vec<Value>,
    /// The set of open arcs (raw arc ids).
    pub open_arcs: BitSet,
}

impl StepValues {
    /// Value at a port during this step.
    #[inline]
    pub fn value(&self, p: PortId) -> Value {
        self.port_values[p.idx()]
    }
}

/// Reusable evaluation engine for a fixed data path.
///
/// Precomputes the static dependency structure (which combinatorial output
/// ports read which input ports) so each step costs `O(P + A_open)`.
pub struct Evaluator {
    /// For each input port (raw id): combinatorial output ports reading it.
    readers: Vec<Vec<PortId>>,
    /// For each combinatorial output port (raw id): number of input ports read.
    arity: Vec<u32>,
    /// Live ports in id order.
    live_ports: Vec<PortId>,
    // --- scratch, reused across steps ---
    indegree: Vec<u32>,
    worklist: Vec<PortId>,
    done: Vec<bool>,
}

impl Evaluator {
    /// Build the evaluator for `g`'s data path.
    pub fn new(g: &Etpn) -> Self {
        let bound = g.dp.ports().capacity_bound();
        let mut readers: Vec<Vec<PortId>> = vec![Vec::new(); bound];
        let mut arity = vec![0u32; bound];
        for (_, vx) in g.dp.vertices().iter() {
            for &op_port in &vx.outputs {
                let op = g.dp.port(op_port).operation();
                if op.is_combinatorial() {
                    let k = op.arity();
                    arity[op_port.idx()] = k as u32;
                    for &ip in vx.inputs.iter().take(k) {
                        readers[ip.idx()].push(op_port);
                    }
                }
            }
        }
        Self {
            readers,
            arity,
            live_ports: g.dp.ports().ids().collect(),
            indegree: vec![0; bound],
            worklist: Vec::with_capacity(bound),
            done: vec![false; bound],
        }
    }

    /// Evaluate one control step.
    ///
    /// `input_value(v)` supplies the environment value currently presented
    /// by input vertex `v` (its stream value at the current cursor).
    pub fn step(
        &mut self,
        g: &Etpn,
        marking: &Marking,
        state: &DpState,
        step_no: u64,
        input_value: impl FnMut(VertexId) -> Value,
    ) -> Result<StepValues, SimError> {
        self.step_forced(g, marking, state, step_no, input_value, None)
    }

    /// [`Evaluator::step`] with an optional per-port value override — the
    /// fault-injection hook (`etpn_sim::fault`).
    ///
    /// When `force` is present it is applied to every port value *at
    /// assignment time*, before the value propagates, so a forced output
    /// (a stuck-at or bit-flip fault) flows through downstream
    /// combinational logic, guards and external arcs exactly like a real
    /// silicon fault would. The clean path passes `None` and pays one
    /// branch per port.
    pub fn step_forced(
        &mut self,
        g: &Etpn,
        marking: &Marking,
        state: &DpState,
        step_no: u64,
        mut input_value: impl FnMut(VertexId) -> Value,
        mut force: Option<&mut dyn FnMut(PortId, Value) -> Value>,
    ) -> Result<StepValues, SimError> {
        let arc_bound = g.dp.arcs().capacity_bound();
        let mut open = BitSet::new(arc_bound);
        for s in marking.marked_places() {
            for &a in g.ctl.ctrl(s) {
                open.insert(a.idx());
            }
        }

        let bound = g.dp.ports().capacity_bound();
        let mut values = vec![Value::Undef; bound];
        self.worklist.clear();
        self.done[..bound].fill(false);

        // Initialise indegrees: input ports by open incoming arcs (with
        // conflict detection), combinatorial outputs by their arity.
        for &p in &self.live_ports {
            let port = g.dp.port(p);
            let deg = match port.dir {
                Dir::In => {
                    let open_arcs: Vec<_> =
                        g.dp.incoming_arcs(p)
                            .iter()
                            .filter(|&&a| open.contains(a.idx()))
                            .copied()
                            .collect();
                    if open_arcs.len() > 1 {
                        return Err(SimError::InputConflict {
                            port: p,
                            arcs: open_arcs,
                            step: step_no,
                        });
                    }
                    open_arcs.len() as u32
                }
                Dir::Out => match port.operation() {
                    op if op.is_sequential() => 0,
                    Op::Const(_) => 0,
                    _ => self.arity[p.idx()],
                },
            };
            self.indegree[p.idx()] = deg;
            if deg == 0 {
                self.worklist.push(p);
            }
        }

        // Kahn propagation over the active dependency graph.
        let mut processed = 0usize;
        while let Some(p) = self.worklist.pop() {
            if self.done[p.idx()] {
                continue;
            }
            self.done[p.idx()] = true;
            processed += 1;
            let port = g.dp.port(p);
            let v = match port.dir {
                Dir::In => {
                    // Unique open incoming arc (or none ⇒ ⊥, rule 10).
                    g.dp.incoming_arcs(p)
                        .iter()
                        .find(|&&a| open.contains(a.idx()))
                        .map_or(Value::Undef, |&a| values[g.dp.arc(a).from.idx()])
                }
                Dir::Out => match port.operation() {
                    Op::Input => input_value(port.vertex),
                    op if op.is_sequential() => state.get(p),
                    op => {
                        let vx = g.dp.vertex(port.vertex);
                        let args: Vec<Value> = vx
                            .inputs
                            .iter()
                            .take(op.arity())
                            .map(|&ip| values[ip.idx()])
                            .collect();
                        op.eval(&args).expect("combinatorial op evaluates")
                    }
                },
            };
            let v = match force.as_mut() {
                Some(f) => f(p, v),
                None => v,
            };
            values[p.idx()] = v;

            // Release dependents.
            match port.dir {
                Dir::In => {
                    for &out in &self.readers[p.idx()] {
                        let d = &mut self.indegree[out.idx()];
                        *d -= 1;
                        if *d == 0 {
                            self.worklist.push(out);
                        }
                    }
                }
                Dir::Out => {
                    for &a in g.dp.outgoing_arcs(p) {
                        if open.contains(a.idx()) {
                            let to = g.dp.arc(a).to;
                            let d = &mut self.indegree[to.idx()];
                            *d -= 1;
                            if *d == 0 {
                                self.worklist.push(to);
                            }
                        }
                    }
                }
            }
        }

        if processed < self.live_ports.len() {
            // Some port never reached indegree 0: an active combinational loop.
            let stuck = self
                .live_ports
                .iter()
                .find(|&&p| !self.done[p.idx()])
                .copied()
                .expect("at least one unprocessed port");
            return Err(SimError::CombinationalLoop {
                port: stuck,
                step: step_no,
            });
        }

        Ok(StepValues {
            port_values: values,
            open_arcs: open,
        })
    }

    /// Latch the registers loaded by the given control states (rule 9),
    /// appending every latch actually performed to `log` when there is
    /// one — the flight-recorder hook.
    ///
    /// Called when a control state's token is consumed — the end of its
    /// holding interval, the moment its load-enables take effect. For each
    /// arc in `C(s)` targeting a register's data input, the register stores
    /// the value present at that input this step, provided it is *defined*
    /// ("the last **defined** value of the expression").
    pub fn latch_for_places_logged(
        &self,
        g: &Etpn,
        places: &[etpn_core::PlaceId],
        vals: &StepValues,
        state: &mut DpState,
        mut log: Option<&mut Vec<(PortId, Value)>>,
    ) {
        for &s in places {
            for &a in g.ctl.ctrl(s) {
                let ip = g.dp.arc(a).to;
                let vx = g.dp.vertex(g.dp.port(ip).vertex);
                if vx.inputs.first() != Some(&ip) {
                    continue; // registers read their first input port
                }
                for &op_port in &vx.outputs {
                    if g.dp.port(op_port).operation() == Op::Reg {
                        let v = vals.value(ip);
                        if v.is_def() {
                            state.set(op_port, v);
                            if let Some(log) = log.as_mut() {
                                log.push((op_port, v));
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_core::EtpnBuilder;

    /// in x, in y → add → reg r → out o, all controlled by one place.
    fn add_design() -> (Etpn, etpn_core::PlaceId) {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let add = b.operator(Op::Add, 2, "add");
        let r = b.register("r");
        let o = b.output("o");
        let a0 = b.connect(b.out_port(x, 0), b.in_port(add, 0));
        let a1 = b.connect(b.out_port(y, 0), b.in_port(add, 1));
        let a2 = b.connect(b.out_port(add, 0), b.in_port(r, 0));
        let a3 = b.connect(b.out_port(r, 0), b.in_port(o, 0));
        let s = b.place("s");
        b.control(s, [a0, a1, a2, a3]);
        b.mark(s);
        (b.finish().unwrap(), s)
    }

    #[test]
    fn combinational_propagation_through_open_arcs() {
        let (g, _) = add_design();
        let m = Marking::initial(&g.ctl);
        let state = DpState::new(&g);
        let mut ev = Evaluator::new(&g);
        let vals = ev
            .step(&g, &m, &state, 0, |v| {
                if g.dp.vertex(v).name == "x" {
                    Value::Def(3)
                } else {
                    Value::Def(4)
                }
            })
            .unwrap();
        let add = g.dp.vertex_by_name("add").unwrap();
        assert_eq!(vals.value(g.dp.out_port(add, 0)), Value::Def(7));
        // Register output still undefined (latches at end of step).
        let r = g.dp.vertex_by_name("r").unwrap();
        assert_eq!(vals.value(g.dp.out_port(r, 0)), Value::Undef);
    }

    #[test]
    fn forced_port_value_propagates_downstream() {
        let (g, _) = add_design();
        let m = Marking::initial(&g.ctl);
        let state = DpState::new(&g);
        let mut ev = Evaluator::new(&g);
        let x = g.dp.vertex_by_name("x").unwrap();
        let xp = g.dp.out_port(x, 0);
        // Stuck-at-0 on x's output: the adder must see the forced value.
        let mut force = |p: PortId, v: Value| if p == xp { Value::Def(0) } else { v };
        let vals = ev
            .step_forced(&g, &m, &state, 0, |_| Value::Def(5), Some(&mut force))
            .unwrap();
        assert_eq!(vals.value(xp), Value::Def(0));
        let add = g.dp.vertex_by_name("add").unwrap();
        assert_eq!(
            vals.value(g.dp.out_port(add, 0)),
            Value::Def(5),
            "forced 0 + clean 5"
        );
    }

    #[test]
    fn latch_stores_defined_values_only() {
        let (g, s) = add_design();
        let m = Marking::initial(&g.ctl);
        let mut state = DpState::new(&g);
        let mut ev = Evaluator::new(&g);
        let r = g.dp.vertex_by_name("r").unwrap();
        let rp = g.dp.out_port(r, 0);

        let vals = ev.step(&g, &m, &state, 0, |_| Value::Def(5)).unwrap();
        ev.latch_for_places_logged(&g, &[s], &vals, &mut state, None);
        assert_eq!(state.get(rp), Value::Def(10));

        // Undefined inputs do not clobber the register.
        let vals = ev.step(&g, &m, &state, 1, |_| Value::Undef).unwrap();
        ev.latch_for_places_logged(&g, &[s], &vals, &mut state, None);
        assert_eq!(state.get(rp), Value::Def(10), "last *defined* value kept");
        // But during the step the register output presents the old value.
        assert_eq!(vals.value(rp), Value::Def(10));
    }

    #[test]
    fn closed_arcs_leave_inputs_undefined() {
        let (g, _) = add_design();
        let m = Marking::empty(&g.ctl); // nothing marked ⇒ all arcs closed
        let state = DpState::new(&g);
        let mut ev = Evaluator::new(&g);
        let vals = ev.step(&g, &m, &state, 0, |_| Value::Def(9)).unwrap();
        let add = g.dp.vertex_by_name("add").unwrap();
        assert_eq!(vals.value(g.dp.in_port(add, 0)), Value::Undef);
        assert_eq!(vals.value(g.dp.out_port(add, 0)), Value::Undef);
        assert!(vals.open_arcs.is_empty());
    }

    #[test]
    fn input_conflict_detected() {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let r = b.register("r");
        let a0 = b.connect(b.out_port(x, 0), b.in_port(r, 0));
        let a1 = b.connect(b.out_port(y, 0), b.in_port(r, 0));
        let s = b.place("s");
        b.control(s, [a0, a1]);
        b.mark(s);
        let g = b.finish().unwrap();
        let m = Marking::initial(&g.ctl);
        let state = DpState::new(&g);
        let mut ev = Evaluator::new(&g);
        let err = ev.step(&g, &m, &state, 3, |_| Value::Def(1)).unwrap_err();
        assert!(matches!(err, SimError::InputConflict { step: 3, .. }));
    }

    #[test]
    fn active_combinational_loop_detected() {
        // pass0 → pass1 → pass0, both arcs open under one place.
        let mut b = EtpnBuilder::new();
        let p0 = b.operator(Op::Pass, 1, "p0");
        let p1 = b.operator(Op::Pass, 1, "p1");
        let a0 = b.connect(b.out_port(p0, 0), b.in_port(p1, 0));
        let a1 = b.connect(b.out_port(p1, 0), b.in_port(p0, 0));
        let s = b.place("s");
        b.control(s, [a0, a1]);
        b.mark(s);
        let g = b.finish().unwrap();
        let m = Marking::initial(&g.ctl);
        let state = DpState::new(&g);
        let mut ev = Evaluator::new(&g);
        let err = ev.step(&g, &m, &state, 0, |_| Value::Undef).unwrap_err();
        assert!(matches!(err, SimError::CombinationalLoop { .. }));
    }

    #[test]
    fn loop_through_register_is_fine() {
        // reg → add → reg (accumulator): sequential break means no comb loop.
        let mut b = EtpnBuilder::new();
        let one = b.constant(1, "one");
        let add = b.operator(Op::Add, 2, "add");
        let r = b.register("r");
        let a0 = b.connect(b.out_port(r, 0), b.in_port(add, 0));
        let a1 = b.connect(b.out_port(one, 0), b.in_port(add, 1));
        let a2 = b.connect(b.out_port(add, 0), b.in_port(r, 0));
        let s = b.place("s");
        b.control(s, [a0, a1, a2]);
        b.mark(s);
        let g = b.finish().unwrap();
        let m = Marking::initial(&g.ctl);
        let mut state = DpState::new(&g);
        let r_v = g.dp.vertex_by_name("r").unwrap();
        let rp = g.dp.out_port(r_v, 0);
        state.set(rp, Value::Def(0));
        let mut ev = Evaluator::new(&g);
        for step in 0..3 {
            let vals = ev.step(&g, &m, &state, step, |_| Value::Undef).unwrap();
            ev.latch_for_places_logged(&g, &[s], &vals, &mut state, None);
        }
        assert_eq!(state.get(rp), Value::Def(3), "accumulator counts steps");
    }
}
