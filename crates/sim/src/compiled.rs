//! The compile-once, simulate-many backend.
//!
//! [`CompiledDesign`] specializes one design into flat, dense,
//! pre-resolved index arrays — place→controlled-arc, in-port→incoming-arc,
//! in-port→reader, out-port→argument-port — plus a static topological
//! order of the whole port graph, so data-path evaluation becomes a flat
//! sequence of table-driven recompute tasks instead of a pointer-chasing
//! walk of the arena graph. Compilation is keyed by the design fingerprint
//! and cached process-wide ([`get_or_compile`]), so fleet jobs, fault
//! campaigns, and optimizer inner loops evaluating the same design share
//! one compilation.
//!
//! Execution (driven by [`crate::Simulator`]) replaces the whole-design
//! walk with an event-driven dirty set ([`crate::dirty::DirtyQueue`]):
//! only ports whose inputs may have changed since the previous step are
//! re-evaluated, so quiescent regions of large designs cost zero. The
//! dirty discipline is *conservative* — any situation the incremental
//! bookkeeping cannot track exactly (the first step, a control marking
//! mutated by fault injection, a forced data-path value, a statically
//! cyclic port graph) falls back to the interpreter's full walk for that
//! step and resynchronises every mirror from scratch, which is what makes
//! the backend bit-identical to the interpreter by construction.
//!
//! The paper's semantics is untouched: both backends implement
//! Def. 3.1(7)–(10) and are proven equivalent in the Def. 4.1 sense
//! (identical external event structures) by `tests/backend_differential.rs`.

use crate::dirty::DirtyQueue;
use crate::error::SimError;
use crate::eval::{DpState, StepValues};
use etpn_core::bitset::BitSet;
use etpn_core::port::Dir;
use etpn_core::vertex::VertexKind;
use etpn_core::{ArcId, Etpn, EtpnBuilder, Marking, Op, PlaceId, PortId, TransId, Value, VertexId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Which step engine a [`crate::Simulator`] (or [`crate::SimJob`]) uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Backend {
    /// The reference interpreter: re-walk every place, arc and vertex on
    /// each control step. Always available; the semantic baseline.
    #[default]
    Interp,
    /// The compiled event-driven engine: per-design flat tables plus a
    /// dirty set, bit-identical to [`Backend::Interp`] (enforced by the
    /// differential battery).
    Compiled,
    /// Ablation for E9c: compiled dispatch tables but a full re-evaluation
    /// every step (the dirty set is never trusted). Isolates how much of
    /// the speedup the event-driven part contributes.
    CompiledNoDirty,
}

/// How one port's value is recomputed (the "bytecode" of the backend —
/// one flat op per port, dispatched in topological order).
#[derive(Clone, Copy, PartialEq, Debug)]
enum PortTask {
    /// Arena hole: nothing lives at this raw id.
    Hole,
    /// Input port: value of the unique open incoming arc, else ⊥.
    In,
    /// External input vertex's output: the environment stream value.
    OutInput(VertexId),
    /// Sequential output: the latched [`DpState`] value.
    OutSeq,
    /// Combinatorial output (including constants): `op` over the vertex's
    /// argument ports.
    OutComb(Op),
}

/// Flat CSR adjacency: `row(i)` is the `u32` payload list of row `i`.
#[derive(Clone, Debug, Default)]
struct Csr {
    off: Vec<u32>,
    dat: Vec<u32>,
}

impl Csr {
    fn build(rows: Vec<Vec<u32>>) -> Self {
        let mut off = Vec::with_capacity(rows.len() + 1);
        let mut dat = Vec::new();
        off.push(0);
        for row in &rows {
            dat.extend_from_slice(row);
            off.push(dat.len() as u32);
        }
        Self { off, dat }
    }

    /// Build with `n` rows, `fill(i, row)` appending row `i`'s payload.
    /// Unlike [`Csr::build`] this holds no per-row vectors, so compiling
    /// a large design never keeps thousands of small allocations alive.
    fn from_fn(n: usize, mut fill: impl FnMut(usize, &mut Vec<u32>)) -> Self {
        let mut off = Vec::with_capacity(n + 1);
        let mut dat = Vec::new();
        off.push(0);
        for i in 0..n {
            fill(i, &mut dat);
            off.push(dat.len() as u32);
        }
        Self { off, dat }
    }

    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.dat[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// One vertex of the structural replay tables.
#[derive(Clone, Debug)]
struct VertexSpec {
    name: String,
    kind: VertexKind,
    n_inputs: usize,
    out_ops: Vec<Op>,
}

/// Structural tables sufficient to replay the design through the public
/// construction API ([`CompiledDesign::decompile`]).
#[derive(Clone, Debug, Default)]
struct DesignSpec {
    /// True when any arena has holes (removed objects): raw ids then no
    /// longer replay densely and decompilation is unsupported.
    holes: bool,
    vertices: Vec<VertexSpec>,
    /// `(from_vertex, from_out_index, to_vertex, to_in_index)` per arc.
    arcs: Vec<(u32, u32, u32, u32)>,
    /// `(name, marked0, controlled arc ids)` per place.
    places: Vec<(String, bool, Vec<u32>)>,
    /// `(name, pre places, post places, guard (vertex, out_index))` per
    /// transition.
    trans: Vec<TransSpec>,
}

/// `(name, pre places, post places, guard (vertex, out_index))` for one
/// transition in [`DesignSpec`].
type TransSpec = (String, Vec<u32>, Vec<u32>, Vec<(u32, u32)>);

/// A design specialised into dense dispatch tables (see module docs).
///
/// Immutable and shareable: one `Arc<CompiledDesign>` serves any number of
/// concurrent simulators. Per-run mutable state lives in
/// [`CompiledState`].
#[derive(Debug)]
pub struct CompiledDesign {
    fingerprint: u64,
    /// Statically cyclic port graph: no topological order exists, every
    /// step delegates to the interpreter's walk (which resolves dynamic
    /// acyclicity per step).
    fallback: bool,
    // Shape echo for fingerprint-collision detection.
    n_ports: usize,
    n_arcs: usize,
    n_places: usize,
    n_trans: usize,
    live_ports: usize,
    // --- hot dispatch tables, raw-id indexed ---
    task: Vec<PortTask>,
    topo_pos: Vec<u32>,
    topo_order: Vec<u32>,
    in_arcs: Csr,
    out_arcs: Csr,
    readers: Csr,
    comb_args: Csr,
    arc_from: Vec<u32>,
    arc_to: Vec<u32>,
    place_ctrl: Csr,
    place_post: Csr,
    place_latch: Csr,
    place_input_outs: Csr,
    // --- cold replay tables ---
    spec: DesignSpec,
}

impl CompiledDesign {
    /// Specialise `g` into flat tables. Pure function of the design; use
    /// [`get_or_compile`] to share compilations across runs.
    pub fn compile(g: &Etpn) -> Self {
        let t0 = std::time::Instant::now();
        let pb = g.dp.ports().capacity_bound();
        let ab = g.dp.arcs().capacity_bound();
        let sb = g.ctl.places().capacity_bound();
        let tb = g.ctl.transitions().capacity_bound();

        let mut task = vec![PortTask::Hole; pb];
        let mut live_ports = 0usize;
        for (p, port) in g.dp.ports().iter() {
            live_ports += 1;
            task[p.idx()] = match port.dir {
                Dir::In => PortTask::In,
                Dir::Out => match port.operation() {
                    Op::Input => PortTask::OutInput(port.vertex),
                    op if op.is_sequential() => PortTask::OutSeq,
                    op => PortTask::OutComb(op),
                },
            };
        }
        let port = |p: usize| PortId::new(p as u32);
        let in_arcs = Csr::from_fn(pb, |p, row| {
            if task[p] == PortTask::In {
                row.extend(g.dp.incoming_arcs(port(p)).iter().map(|a| a.0));
            }
        });
        let out_arcs = Csr::from_fn(pb, |p, row| {
            if !matches!(task[p], PortTask::Hole | PortTask::In) {
                row.extend(g.dp.outgoing_arcs(port(p)).iter().map(|a| a.0));
            }
        });
        // Reader / argument lists, exactly as the interpreter's
        // `Evaluator::new` resolves them (arity-truncated input lists).
        let comb_args = Csr::from_fn(pb, |p, row| {
            if let PortTask::OutComb(op) = task[p] {
                let vx = g.dp.vertex(g.dp.port(port(p)).vertex);
                row.extend(vx.inputs.iter().take(op.arity()).map(|ip| ip.0));
            }
        });
        let mut reader_rows: Vec<Vec<u32>> = vec![Vec::new(); pb];
        for (_, vx) in g.dp.vertices().iter() {
            for &op_port in &vx.outputs {
                for &ip in comb_args.row(op_port.idx()) {
                    reader_rows[ip as usize].push(op_port.0);
                }
            }
        }
        let readers = Csr::build(reader_rows);

        let mut arc_from = vec![u32::MAX; ab];
        let mut arc_to = vec![u32::MAX; ab];
        for (a, arc) in g.dp.arcs().iter() {
            arc_from[a.idx()] = arc.from.0;
            arc_to[a.idx()] = arc.to.0;
        }

        // Static topological order over the full port graph. Edges:
        // out-port → in-port for EVERY arc (open or not) and in-port →
        // combinatorial reader. Dynamic dependencies are a subset, so any
        // run-time propagation respects this order. A static cycle means
        // no such order exists: fall back to the interpreter walk, which
        // judges acyclicity per step over the *open* subgraph.
        let mut indeg = vec![0u32; pb];
        for (p, _) in g.dp.ports().iter() {
            indeg[p.idx()] = match task[p.idx()] {
                PortTask::In => in_arcs.row(p.idx()).len() as u32,
                PortTask::OutComb(_) => comb_args.row(p.idx()).len() as u32,
                _ => 0,
            };
        }
        let mut topo_order: Vec<u32> = Vec::with_capacity(live_ports);
        let mut stack: Vec<u32> =
            g.dp.ports()
                .ids()
                .filter(|p| indeg[p.idx()] == 0)
                .map(|p| p.0)
                .collect();
        while let Some(p) = stack.pop() {
            topo_order.push(p);
            let succs: &[u32] = match task[p as usize] {
                PortTask::In => readers.row(p as usize),
                _ => out_arcs.row(p as usize),
            };
            for &s in succs {
                let to = match task[p as usize] {
                    PortTask::In => s,
                    _ => arc_to[s as usize],
                };
                let d = &mut indeg[to as usize];
                *d -= 1;
                if *d == 0 {
                    stack.push(to);
                }
            }
        }
        let fallback = topo_order.len() < live_ports;
        let mut topo_pos = vec![u32::MAX; pb];
        for (pos, &p) in topo_order.iter().enumerate() {
            topo_pos[p as usize] = pos as u32;
        }

        // Control-side tables.
        let place = |s: usize| g.ctl.places().get(PlaceId::new(s as u32));
        let ctrl = |s: usize| place(s).map_or(&[][..], |pl| &pl.ctrl[..]);
        let place_ctrl = Csr::from_fn(sb, |s, row| row.extend(ctrl(s).iter().map(|a| a.0)));
        let place_post = Csr::from_fn(sb, |s, row| {
            if let Some(pl) = place(s) {
                row.extend(pl.post.iter().map(|t| t.0));
            }
        });
        let place_latch = Csr::from_fn(sb, |s, row| {
            for &a in ctrl(s) {
                let ip = g.dp.arc(a).to;
                let vx = g.dp.vertex(g.dp.port(ip).vertex);
                if vx.inputs.first() == Some(&ip) {
                    let regs = vx
                        .outputs
                        .iter()
                        .filter(|&&q| g.dp.port(q).operation() == Op::Reg);
                    row.extend(regs.map(|q| q.0));
                }
            }
        });
        let place_input_outs = Csr::from_fn(sb, |s, row| {
            for &a in ctrl(s) {
                let from = g.dp.arc(a).from;
                if g.dp.vertex(g.dp.port(from).vertex).kind == VertexKind::Input {
                    row.push(from.0);
                }
            }
        });

        let spec = Self::build_spec(g);
        let cd = Self {
            fingerprint: g.fingerprint(),
            fallback,
            n_ports: pb,
            n_arcs: ab,
            n_places: sb,
            n_trans: tb,
            live_ports,
            task,
            topo_pos,
            topo_order,
            in_arcs,
            out_arcs,
            readers,
            comb_args,
            arc_from,
            arc_to,
            place_ctrl,
            place_post,
            place_latch,
            place_input_outs,
            spec,
        };
        etpn_obs::global()
            .counter("sim.compile.ns")
            .add(t0.elapsed().as_nanos() as u64);
        cd
    }

    fn build_spec(g: &Etpn) -> DesignSpec {
        let holes = g.dp.vertices().len() != g.dp.vertices().capacity_bound()
            || g.dp.ports().len() != g.dp.ports().capacity_bound()
            || g.dp.arcs().len() != g.dp.arcs().capacity_bound()
            || g.ctl.places().len() != g.ctl.places().capacity_bound()
            || g.ctl.transitions().len() != g.ctl.transitions().capacity_bound();
        let out_index = |p: PortId| -> (u32, u32) {
            let vx = g.dp.vertex(g.dp.port(p).vertex);
            let i = vx.outputs.iter().position(|&q| q == p).expect("out port");
            (g.dp.port(p).vertex.0, i as u32)
        };
        let in_index = |p: PortId| -> (u32, u32) {
            let vx = g.dp.vertex(g.dp.port(p).vertex);
            let i = vx.inputs.iter().position(|&q| q == p).expect("in port");
            (g.dp.port(p).vertex.0, i as u32)
        };
        DesignSpec {
            holes,
            vertices: g
                .dp
                .vertices()
                .iter()
                .map(|(_, vx)| VertexSpec {
                    name: vx.name.clone(),
                    kind: vx.kind,
                    n_inputs: vx.inputs.len(),
                    out_ops: vx
                        .outputs
                        .iter()
                        .map(|&p| g.dp.port(p).operation())
                        .collect(),
                })
                .collect(),
            arcs: g
                .dp
                .arcs()
                .iter()
                .map(|(_, arc)| {
                    let (fv, fi) = out_index(arc.from);
                    let (tv, ti) = in_index(arc.to);
                    (fv, fi, tv, ti)
                })
                .collect(),
            places: g
                .ctl
                .places()
                .iter()
                .map(|(_, p)| {
                    (
                        p.name.clone(),
                        p.marked0,
                        p.ctrl.iter().map(|a| a.0).collect(),
                    )
                })
                .collect(),
            trans: g
                .ctl
                .transitions()
                .iter()
                .map(|(_, t)| {
                    (
                        t.name.clone(),
                        t.pre.iter().map(|s| s.0).collect(),
                        t.post.iter().map(|s| s.0).collect(),
                        t.guards.iter().map(|&p| out_index(p)).collect(),
                    )
                })
                .collect(),
        }
    }

    /// The design fingerprint this compilation is keyed by.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// True when the port graph is statically cyclic and every step
    /// delegates to the interpreter walk.
    pub fn is_fallback(&self) -> bool {
        self.fallback
    }

    /// Number of live ports (the dirty-fraction denominator).
    pub fn port_count(&self) -> usize {
        self.live_ports
    }

    /// True when this compilation's shape matches `g` (guards the global
    /// cache against fingerprint collisions).
    pub fn matches(&self, g: &Etpn) -> bool {
        self.fingerprint == g.fingerprint()
            && self.n_ports == g.dp.ports().capacity_bound()
            && self.n_arcs == g.dp.arcs().capacity_bound()
            && self.n_places == g.ctl.places().capacity_bound()
            && self.n_trans == g.ctl.transitions().capacity_bound()
    }

    /// Replay the structural tables back into a design through the public
    /// construction API. For canonically-built (hole-free) designs the
    /// result is arena-identical to the original, so
    /// `decompile().fingerprint() == fingerprint()` — the stability
    /// property of the cache key, checked by the property suite. Returns
    /// `None` for designs with arena holes (removed objects), whose raw
    /// ids cannot be replayed densely.
    pub fn decompile(&self) -> Option<Etpn> {
        if self.spec.holes {
            return None;
        }
        let mut b = EtpnBuilder::new();
        let mut vids: Vec<VertexId> = Vec::with_capacity(self.spec.vertices.len());
        for vs in &self.spec.vertices {
            let v = match vs.kind {
                VertexKind::Input => b.input(&vs.name),
                VertexKind::Output => b.output(&vs.name),
                VertexKind::Unit => {
                    if vs.n_inputs == 1 && vs.out_ops == [Op::Reg] {
                        b.register(&vs.name)
                    } else if vs.n_inputs == 0 && vs.out_ops.len() == 1 {
                        match vs.out_ops[0] {
                            Op::Const(c) => b.constant(c, &vs.name),
                            _ => b.operator_multi(&vs.out_ops, 0, &vs.name),
                        }
                    } else {
                        b.operator_multi(&vs.out_ops, vs.n_inputs, &vs.name)
                    }
                }
            };
            vids.push(v);
        }
        for &(fv, fi, tv, ti) in &self.spec.arcs {
            let from = b.out_port(vids[fv as usize], fi as usize);
            let to = b.in_port(vids[tv as usize], ti as usize);
            b.connect(from, to);
        }
        let pids: Vec<PlaceId> = self.spec.places.iter().map(|p| b.place(&p.0)).collect();
        let tids: Vec<TransId> = self.spec.trans.iter().map(|t| b.transition(&t.0)).collect();
        for (i, ts) in self.spec.trans.iter().enumerate() {
            for &s in &ts.1 {
                b.flow_st(pids[s as usize], tids[i]);
            }
            for &s in &ts.2 {
                b.flow_ts(tids[i], pids[s as usize]);
            }
            for &(gv, go) in &ts.3 {
                let p = b.out_port(vids[gv as usize], go as usize);
                b.guard(tids[i], p);
            }
        }
        for (i, ps) in self.spec.places.iter().enumerate() {
            if !ps.2.is_empty() {
                b.control(pids[i], ps.2.iter().map(|&a| ArcId::new(a)));
            }
            if ps.1 {
                b.mark(pids[i]);
            }
        }
        b.finish().ok()
    }
}

/// Process-wide compilation cache, keyed by design fingerprint. Bounded:
/// cleared wholesale if it ever exceeds 1024 designs (a fleet or campaign
/// touches a handful; only an adversarial loop could grow it).
static COMPILE_CACHE: OnceLock<Mutex<HashMap<u64, Arc<CompiledDesign>>>> = OnceLock::new();

/// Fetch (or build and cache) the compilation of `g`.
///
/// The cache is shared by every simulator in the process: a fleet batch, a
/// fault campaign, or an optimizer loop re-evaluating one design compiles
/// it exactly once. A fingerprint collision (different shape under the
/// same key) compiles fresh without caching.
pub fn get_or_compile(g: &Etpn) -> Arc<CompiledDesign> {
    let cache = COMPILE_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let fp = g.fingerprint();
    let map = cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(cd) = map.get(&fp) {
        if cd.matches(g) {
            return Arc::clone(cd);
        }
        return Arc::new(CompiledDesign::compile(g));
    }
    drop(map);
    // Compile outside the lock: compilation can be slow for big designs
    // and other threads may want other designs meanwhile.
    let cd = Arc::new(CompiledDesign::compile(g));
    let mut map = cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if map.len() >= 1024 {
        map.clear();
    }
    Arc::clone(map.entry(fp).or_insert(cd))
}

/// Per-run mutable state of the compiled engine: the persistent step-value
/// array plus incremental mirrors of everything the marking implies
/// (open arcs, per-port open-arc counts, enabled transitions), and the
/// dirty queue carrying change seeds from one step into the next.
///
/// Invariants between steps (re-established by [`Self::resync_full`]
/// whenever they cannot be maintained exactly):
/// * `vals` equals what a full interpreter walk would produce for the
///   current marking/state/cursors, for every port not queued dirty;
/// * `marked`/`arc_ctl`/`in_open`/`conflicted`/`enabled` agree with the
///   current marking;
/// * every port whose inputs changed since it was last evaluated is in
///   `dirty`.
#[derive(Debug)]
pub(crate) struct CompiledState {
    pub(crate) cd: Arc<CompiledDesign>,
    vals: Arc<StepValues>,
    marked: BitSet,
    arc_ctl: Vec<u32>,
    in_open: Vec<u32>,
    conflicted: BitSet,
    enabled: BitSet,
    dirty: DirtyQueue,
    /// Full walk required at the next evaluation (first step, fault-mutated
    /// marking, or the step after a forced evaluation).
    pub(crate) resync: bool,
    /// Ablation: never trust the dirty set (Backend::CompiledNoDirty).
    pub(crate) no_dirty: bool,
    /// Cross-check every incremental step against a fresh full walk
    /// (property-test hook; see `Simulator::compiled_verified`).
    pub(crate) verify: bool,
    args_scratch: Vec<Value>,
    /// Places touched by firing this step (pre ∪ post of fired
    /// transitions), consumed by [`Self::sync_after_commit`].
    pub(crate) touched: Vec<u32>,
    /// Ports whose value the last [`Self::propagate`] changed: the
    /// step-to-step value delta that coverage observes.
    changed: Vec<u32>,
    /// Arcs the last [`Self::sync_after_commit`] opened: the open-arc
    /// delta the *next* step's evaluation will see.
    opened: Vec<u32>,
}

impl CompiledState {
    pub(crate) fn new(cd: Arc<CompiledDesign>) -> Self {
        let (pb, ab, sb, tb) = (cd.n_ports, cd.n_arcs, cd.n_places, cd.n_trans);
        let positions = cd.topo_order.len();
        Self {
            cd,
            vals: Arc::new(StepValues {
                port_values: Vec::new(),
                open_arcs: BitSet::new(0),
            }),
            marked: BitSet::new(sb),
            arc_ctl: vec![0; ab],
            in_open: vec![0; pb],
            conflicted: BitSet::new(pb),
            enabled: BitSet::new(tb),
            dirty: DirtyQueue::new(positions),
            resync: true,
            no_dirty: false,
            verify: false,
            args_scratch: Vec::with_capacity(4),
            touched: Vec::new(),
            changed: Vec::new(),
            opened: Vec::new(),
        }
    }

    /// True when the next evaluation must be a full interpreter walk.
    pub(crate) fn needs_full(&self, forced: bool) -> bool {
        self.resync || forced || self.cd.fallback
    }

    /// Adopt the result of a full walk and rebuild every mirror from the
    /// ground truth (marking + walk output).
    pub(crate) fn resync_full(&mut self, g: &Etpn, marking: &Marking, vals: StepValues) {
        self.vals = Arc::new(vals);
        self.dirty.clear();
        self.touched.clear();
        self.opened.clear();
        self.marked.clear();
        self.arc_ctl.fill(0);
        for s in marking.marked_places() {
            self.marked.insert(s.idx());
            for &a in g.ctl.ctrl(s) {
                self.arc_ctl[a.idx()] += 1;
            }
        }
        self.in_open.fill(0);
        self.conflicted.clear();
        for (a, &n) in self.arc_ctl.iter().enumerate() {
            if n > 0 {
                let to = self.cd.arc_to[a] as usize;
                self.in_open[to] += 1;
                if self.in_open[to] > 1 {
                    self.conflicted.insert(to);
                }
            }
        }
        self.enabled.clear();
        for (t, _) in g.ctl.transitions().iter() {
            if marking.enabled(&g.ctl, t) {
                self.enabled.insert(t.idx());
            }
        }
        self.resync = false;
    }

    /// Raise the same `InputConflict` the interpreter's id-order init scan
    /// would: smallest-id contended port, its open arcs in adjacency order.
    pub(crate) fn check_conflict(&self, step: u64) -> Result<(), SimError> {
        let Some(p) = self.conflicted.iter().next() else {
            return Ok(());
        };
        let arcs: Vec<ArcId> = self
            .cd
            .in_arcs
            .row(p)
            .iter()
            .filter(|&&a| self.vals.open_arcs.contains(a as usize))
            .map(|&a| ArcId::new(a))
            .collect();
        Err(SimError::InputConflict {
            port: PortId::new(p as u32),
            arcs,
            step,
        })
    }

    /// Drain the dirty queue in topological order, re-evaluating each
    /// queued port and propagating onward only where the value actually
    /// changed, and listing those ports in [`Self::changed_ports`].
    /// Returns the number of ports re-evaluated (the step's "events
    /// fired").
    pub(crate) fn propagate(
        &mut self,
        state: &DpState,
        mut input_value: impl FnMut(VertexId) -> Value,
    ) -> u64 {
        let cd = &self.cd;
        let vals = Arc::make_mut(&mut self.vals);
        self.changed.clear();
        let mut fired = 0u64;
        while let Some(pos) = self.dirty.pop() {
            let p = cd.topo_order[pos as usize] as usize;
            fired += 1;
            let new = match cd.task[p] {
                PortTask::Hole => continue,
                PortTask::In => {
                    let mut v = Value::Undef;
                    for &a in cd.in_arcs.row(p) {
                        if vals.open_arcs.contains(a as usize) {
                            v = vals.port_values[cd.arc_from[a as usize] as usize];
                            break;
                        }
                    }
                    v
                }
                PortTask::OutInput(vx) => input_value(vx),
                PortTask::OutSeq => state.get(PortId::new(p as u32)),
                PortTask::OutComb(op) => {
                    self.args_scratch.clear();
                    for &ip in cd.comb_args.row(p) {
                        self.args_scratch.push(vals.port_values[ip as usize]);
                    }
                    op.eval(&self.args_scratch)
                        .expect("combinatorial op evaluates")
                }
            };
            if new == vals.port_values[p] {
                continue;
            }
            vals.port_values[p] = new;
            self.changed.push(p as u32);
            match cd.task[p] {
                PortTask::In => {
                    for &out in cd.readers.row(p) {
                        self.dirty.push(cd.topo_pos[out as usize]);
                    }
                }
                _ => {
                    for &a in cd.out_arcs.row(p) {
                        if vals.open_arcs.contains(a as usize) {
                            self.dirty.push(cd.topo_pos[cd.arc_to[a as usize] as usize]);
                        }
                    }
                }
            }
        }
        fired
    }

    /// Re-evaluate *every* live port through the compiled tables in
    /// topological order, ignoring the dirty set (the
    /// [`Backend::CompiledNoDirty`] ablation: compiled dispatch without
    /// event-driven selectivity). Open-arc/enabled mirrors are still
    /// maintained incrementally by [`Self::sync_after_commit`]; the dirty
    /// seeds it queued are discarded here. Returns the number of ports
    /// evaluated.
    pub(crate) fn recompute_all(
        &mut self,
        state: &DpState,
        mut input_value: impl FnMut(VertexId) -> Value,
    ) -> u64 {
        self.dirty.clear();
        let cd = Arc::clone(&self.cd);
        let vals = Arc::make_mut(&mut self.vals);
        for &p in &cd.topo_order {
            let p = p as usize;
            vals.port_values[p] = match cd.task[p] {
                PortTask::Hole => continue,
                PortTask::In => {
                    let mut v = Value::Undef;
                    for &a in cd.in_arcs.row(p) {
                        if vals.open_arcs.contains(a as usize) {
                            v = vals.port_values[cd.arc_from[a as usize] as usize];
                            break;
                        }
                    }
                    v
                }
                PortTask::OutInput(vx) => input_value(vx),
                PortTask::OutSeq => state.get(PortId::new(p as u32)),
                PortTask::OutComb(op) => {
                    self.args_scratch.clear();
                    for &ip in cd.comb_args.row(p) {
                        self.args_scratch.push(vals.port_values[ip as usize]);
                    }
                    op.eval(&self.args_scratch)
                        .expect("combinatorial op evaluates")
                }
            };
        }
        cd.topo_order.len() as u64
    }

    /// The current step values (shared; cheap to clone). The caller must
    /// drop its handle before the next [`Self::sync_after_commit`] or
    /// [`Self::propagate`], or those copy the whole value array instead
    /// of updating it in place.
    pub(crate) fn values(&self) -> Arc<StepValues> {
        Arc::clone(&self.vals)
    }

    /// Ports whose value the last [`Self::propagate`] changed (valid
    /// until the next evaluation).
    pub(crate) fn changed_ports(&self) -> &[u32] {
        &self.changed
    }

    /// Arcs opened by the last [`Self::sync_after_commit`]. An arc listed
    /// here may have closed again since (a marking mutated outside the
    /// firing relation); check it against the open-arc set before use.
    pub(crate) fn opened_arcs(&self) -> &[u32] {
        &self.opened
    }

    /// Token-enabled transitions in increasing id order — identical to
    /// `Marking::enabled_transitions`, read off the incremental bitset
    /// into the caller's buffer (cleared first).
    pub(crate) fn enabled_into(&self, out: &mut Vec<TransId>) {
        out.clear();
        out.extend(self.enabled.iter().map(|t| TransId::new(t as u32)));
    }

    /// Post-commit resynchronisation: fold the step's marking changes
    /// (places in `touched`) and data-path effects (registers latched and
    /// input cursors advanced on `exited` places) into the mirrors, and
    /// seed the dirty queue for the next step. Arcs that open are listed
    /// in [`Self::opened_arcs`].
    pub(crate) fn sync_after_commit(
        &mut self,
        g: &Etpn,
        marking: &Marking,
        state: &DpState,
        exited: &[PlaceId],
    ) {
        let cd = Arc::clone(&self.cd);
        self.opened.clear();
        let mut touched = std::mem::take(&mut self.touched);
        for &s in &touched {
            let s = s as usize;
            let now = marking.is_marked(PlaceId::new(s as u32));
            let was = self.marked.contains(s);
            // Idempotent: a place listed twice is a no-op the second time.
            if now == was {
                continue;
            }
            if now {
                self.marked.insert(s);
            } else {
                self.marked.remove(s);
            }
            let vals = Arc::make_mut(&mut self.vals);
            for &a in cd.place_ctrl.row(s) {
                let a = a as usize;
                let to = cd.arc_to[a] as usize;
                if now {
                    self.arc_ctl[a] += 1;
                    if self.arc_ctl[a] == 1 {
                        vals.open_arcs.insert(a);
                        self.opened.push(a as u32);
                        self.in_open[to] += 1;
                        if self.in_open[to] == 2 {
                            self.conflicted.insert(to);
                        }
                        self.dirty.push(cd.topo_pos[to]);
                    }
                } else {
                    self.arc_ctl[a] -= 1;
                    if self.arc_ctl[a] == 0 {
                        vals.open_arcs.remove(a);
                        self.in_open[to] -= 1;
                        if self.in_open[to] == 1 {
                            self.conflicted.remove(to);
                        }
                        self.dirty.push(cd.topo_pos[to]);
                    }
                }
            }
            for &t in cd.place_post.row(s) {
                if marking.enabled(&g.ctl, TransId::new(t)) {
                    self.enabled.insert(t as usize);
                } else {
                    self.enabled.remove(t as usize);
                }
            }
        }
        touched.clear();
        self.touched = touched;

        for &s in exited {
            // Registers latched at this exit: the sequential out-port's
            // next value is `state`, its current `vals` entry is what the
            // step presented — a difference is exactly a pending change.
            for &op_port in cd.place_latch.row(s.idx()) {
                if state.get(PortId::new(op_port)) != self.vals.port_values[op_port as usize] {
                    self.dirty.push(cd.topo_pos[op_port as usize]);
                }
            }
            // Input cursors advanced: the stream may present a new value.
            for &ip in cd.place_input_outs.row(s.idx()) {
                self.dirty.push(cd.topo_pos[ip as usize]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// in x → add(x, r) → reg r → out y, two chained places.
    fn small() -> Etpn {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let add = b.operator(Op::Add, 2, "add");
        let r = b.register("r");
        let y = b.output("y");
        let a0 = b.connect(b.out_port(x, 0), b.in_port(add, 0));
        let a1 = b.connect(b.out_port(r, 0), b.in_port(add, 1));
        let a2 = b.connect(b.out_port(add, 0), b.in_port(r, 0));
        let a3 = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        b.control(s0, [a0, a1, a2]);
        let s1 = b.place("s1");
        b.control(s1, [a3]);
        b.seq(s0, s1, "t0");
        b.seq(s1, s0, "t1");
        b.mark(s0);
        b.finish().unwrap()
    }

    #[test]
    fn compiles_acyclic_designs_without_fallback() {
        let g = small();
        let cd = CompiledDesign::compile(&g);
        assert!(!cd.is_fallback());
        assert_eq!(cd.topo_order.len(), g.dp.ports().len());
        // Topological: every arc goes forward, every reader goes forward.
        for (a, arc) in g.dp.arcs().iter() {
            let _ = a;
            assert!(
                cd.topo_pos[arc.from.idx()] < cd.topo_pos[arc.to.idx()],
                "{arc:?} must respect the order"
            );
        }
    }

    #[test]
    fn static_comb_cycle_forces_fallback() {
        let mut b = EtpnBuilder::new();
        let p0 = b.operator(Op::Pass, 1, "p0");
        let p1 = b.operator(Op::Pass, 1, "p1");
        let a0 = b.connect(b.out_port(p0, 0), b.in_port(p1, 0));
        let a1 = b.connect(b.out_port(p1, 0), b.in_port(p0, 0));
        let s = b.place("s");
        b.control(s, [a0, a1]);
        b.mark(s);
        let g = b.finish().unwrap();
        assert!(CompiledDesign::compile(&g).is_fallback());
    }

    #[test]
    fn register_break_keeps_static_acyclicity() {
        // The r → add → r loop in `small` runs through a sequential port,
        // which has no static in-edges — no fallback.
        let g = small();
        assert!(!CompiledDesign::compile(&g).is_fallback());
    }

    #[test]
    fn compile_cache_shares_one_compilation() {
        let g = small();
        let c1 = get_or_compile(&g);
        let c2 = get_or_compile(&g);
        assert!(Arc::ptr_eq(&c1, &c2), "same fingerprint, same compilation");
        assert_eq!(c1.fingerprint(), g.fingerprint());
    }

    #[test]
    fn decompile_reproduces_the_fingerprint() {
        let g = small();
        let cd = CompiledDesign::compile(&g);
        let g2 = cd.decompile().expect("hole-free design decompiles");
        assert_eq!(g2.fingerprint(), g.fingerprint());
        assert_eq!(g2.dp.ports().len(), g.dp.ports().len());
    }

    #[test]
    fn decompile_covers_every_constructor_shape() {
        let mut b = EtpnBuilder::new();
        let k = b.constant(7, "k");
        let x = b.input("x");
        let mx = b.operator(Op::Mux, 3, "mx");
        let r = b.register("r");
        let y = b.output("y");
        let a0 = b.connect(b.out_port(k, 0), b.in_port(mx, 0));
        let a1 = b.connect(b.out_port(x, 0), b.in_port(mx, 1));
        let a2 = b.connect(b.out_port(x, 0), b.in_port(mx, 2));
        let a3 = b.connect(b.out_port(mx, 0), b.in_port(r, 0));
        let a4 = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        b.control(s0, [a0, a1, a2, a3]);
        let s1 = b.place("s1");
        b.control(s1, [a4]);
        let t = b.seq(s0, s1, "t0");
        b.guard(t, b.out_port(r, 0));
        b.mark(s0);
        let g = b.finish().unwrap();
        let g2 = CompiledDesign::compile(&g).decompile().unwrap();
        assert_eq!(g2.fingerprint(), g.fingerprint());
    }
}
