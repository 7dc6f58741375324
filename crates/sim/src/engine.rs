//! The simulation engine: Def. 3.1 as an executable step loop.
//!
//! One control step:
//!
//! 1. evaluate the data path under the current marking ([`Evaluator::step`]):
//!    arcs controlled by marked places are open, combinatorial values
//!    propagate, guards take their truth values;
//! 2. fire a policy-chosen set of enabled, guard-true transitions
//!    (rules 3–5), optionally enforcing safeness (Def. 3.2(2));
//! 3. for every control state whose token was *consumed* this step — the
//!    end of its holding interval — commit its effects using the values of
//!    this step: record one external event per controlled external arc
//!    (Def. 3.4), latch the registers it loads (rule 9), and advance the
//!    input streams it read.
//!
//! Committing effects **once per holding interval** (rather than once per
//! step) is what makes the observable behaviour independent of the firing
//! policy for properly designed systems: a token sitting in a place for
//! three steps under an interleaving policy denotes the *same* single
//! activation as one step under the maximal-step policy. Experiment E10
//! validates this invariance empirically.
//!
//! The run ends when no tokens remain (rule 6, [`Termination::Terminated`]),
//! when a fixpoint is reached — nothing fired, so no future step can differ
//! ([`Termination::Quiescent`]) — or when the step budget is exhausted
//! ([`Termination::StepLimit`]).

use crate::compiled::{self, Backend, CompiledState};
use crate::env::{Environment, InputCursors};
use crate::error::SimError;
use crate::eval::{DpState, Evaluator, StepValues};
use crate::fault::FaultPlan;
use crate::policy::FiringPolicy;
use crate::trace::{Termination, Trace, WorkCounts};
use etpn_core::bitset::BitSet;
use etpn_core::{Etpn, ExternalEvent, Marking, Op, PlaceId, PortId, TransId, Value};
use etpn_cov::CovDb;
use etpn_obs as obs;
use etpn_rec::{
    step_diff, DivergenceReason, RecError, RecMeta, RecordConfig, Recorder, Recording, StepRecord,
    FLAG_CONTROL_FAULT, FLAG_DATA_FAULT,
};
use rand::rngs::SmallRng;
use std::time::{Duration, Instant};

/// The run's work counts plus pre-resolved registry handles (one lock per
/// name at construction). A step only adds to the plain counts; they reach
/// the global counters once, when the simulator is dropped.
struct SimMetrics {
    work: WorkCounts,
    steps: obs::Counter,
    firings: obs::Counter,
    evals: obs::Counter,
    step_ns: obs::Histogram,
    events_fired: obs::Counter,
    dirty_frac: obs::Histogram,
}

impl SimMetrics {
    fn new() -> Self {
        let reg = obs::global();
        Self {
            work: WorkCounts::default(),
            steps: reg.counter("sim.steps"),
            firings: reg.counter("sim.firings"),
            evals: reg.counter("sim.evals"),
            step_ns: reg.histogram("sim.step.ns"),
            events_fired: reg.counter("sim.events.fired"),
            dirty_frac: reg.histogram("sim.dirty.frac"),
        }
    }

    /// Record one step's dirty fraction (per mille of live ports
    /// re-evaluated), at stats level and up; below that `frac` is not
    /// computed.
    fn record_dirty_frac(&self, frac: impl FnOnce() -> Option<u64>) {
        if obs::stats_enabled() || obs::trace_enabled() {
            let Some(frac) = frac() else {
                return;
            };
            self.dirty_frac.record(frac);
            if obs::trace_enabled() {
                obs::sample("sim.dirty.frac", frac as i64);
            }
        }
    }
}

impl Drop for SimMetrics {
    /// Publish the run's counts, also when a panic unwinds the simulator.
    fn drop(&mut self) {
        let w = self.work;
        self.steps.add(w.steps);
        self.firings.add(w.firings);
        self.evals.add(w.evaluations);
        self.events_fired.add(w.port_evals);
    }
}

/// Fold one observed value of port `p` into toggle coverage. The seen-mask
/// (bit 0 = zero seen, bit 1 = non-zero seen) makes a repeat polarity a
/// byte test, so the CovDb is touched only on a first observation.
/// Returns the port's updated mask (3 = fully toggled).
#[inline]
fn observe_toggle(db: &mut CovDb, seen: &mut [u8], p: usize, v: Value) -> u8 {
    let side: u8 = match v {
        Value::Def(0) => 1,
        Value::Def(_) => 2,
        Value::Undef => 0,
    };
    if side & !seen[p] != 0 {
        db.record_toggle(p, v);
        seen[p] |= side;
    }
    seen[p]
}

/// A configured simulation run over one design.
pub struct Simulator<'g, E: Environment> {
    g: &'g Etpn,
    env: E,
    policy: FiringPolicy,
    enforce_safe: bool,
    state: DpState,
    cursors: InputCursors,
    evaluator: Evaluator,
    marking: Marking,
    compiled: Option<CompiledState>,
    rng: Option<SmallRng>,
    faults: Option<FaultPlan>,
    wall_budget: Option<Duration>,
    strict: bool,
    step: u64,
    events: Vec<ExternalEvent>,
    watch: Vec<PortId>,
    watched: Vec<Vec<Value>>,
    watch_ctl: bool,
    guard_ports: Vec<PortId>,
    marking_rows: Vec<BitSet>,
    guard_rows: Vec<BitSet>,
    cov: Option<CovDb>,
    /// Output ports a full coverage scan still reads; fully-toggled ports
    /// retire from it.
    toggle_pending: Vec<PortId>,
    /// Per-port toggle seen-mask, raw-port-id indexed (bit 0 = zero seen,
    /// bit 1 = non-zero seen). Ports that are not vertex outputs start
    /// fully seen, so an event-driven observation skips them in one test.
    toggle_seen: Vec<u8>,
    /// Per-transition guard-outcome mask (bit 0 = held back, bit 1 =
    /// taken), so repeat outcomes skip the CovDb entirely.
    guard_seen: Vec<u8>,
    fire_counts: Vec<u64>,
    exit_counts: Vec<u64>,
    metrics: SimMetrics,
    /// Flight-recorder configuration; turned into a live [`Recorder`] when
    /// the run starts.
    rec_cfg: Option<RecordConfig>,
    rec: Option<Recorder>,
    /// A replay in progress: the journal whose firing decisions are
    /// re-applied (never re-decided) and whose rows every re-derived step
    /// is verified against.
    script: Option<Recording>,
    // --- per-step scratch, reused so a steady-state step allocates nothing ---
    /// Token-enabled transitions, filtered in place to the ready ones and
    /// then ordered by the policy.
    ready: Vec<TransId>,
    /// Places whose tokens this step consumed (activation intervals ended).
    exited: Vec<PlaceId>,
    /// This step's journal row. Its input vertices whose stream cursors
    /// advanced are listed on every step; fired transitions, latches,
    /// events and fault flags only while recording or replaying.
    row: StepRecord,
}

impl<'g, E: Environment> Simulator<'g, E> {
    /// A simulator on the compiled engine ([`Backend::default`]) with the
    /// deterministic [`FiringPolicy::MaximalStep`] policy, safeness
    /// enforcement on, and all registers undefined.
    pub fn new(g: &'g Etpn, env: E) -> Self {
        Self::on(g, env, Backend::default())
    }

    /// [`Simulator::new`] on `backend`: builds only that engine, so an
    /// interpreter run never compiles the design.
    pub(crate) fn on(g: &'g Etpn, env: E, backend: Backend) -> Self {
        Self {
            g,
            env,
            policy: FiringPolicy::MaximalStep,
            enforce_safe: true,
            state: DpState::new(g),
            cursors: InputCursors::new(g),
            evaluator: Evaluator::new(g),
            marking: Marking::initial(&g.ctl),
            compiled: Self::engine(g, backend),
            rng: None,
            faults: None,
            wall_budget: None,
            strict: false,
            step: 0,
            events: Vec::new(),
            watch: Vec::new(),
            watched: Vec::new(),
            watch_ctl: false,
            guard_ports: Vec::new(),
            marking_rows: Vec::new(),
            guard_rows: Vec::new(),
            cov: None,
            toggle_pending: Vec::new(),
            toggle_seen: Vec::new(),
            guard_seen: Vec::new(),
            fire_counts: vec![0; g.ctl.transitions().capacity_bound()],
            exit_counts: vec![0; g.ctl.places().capacity_bound()],
            metrics: SimMetrics::new(),
            rec_cfg: None,
            rec: None,
            script: None,
            ready: Vec::new(),
            exited: Vec::new(),
            row: StepRecord::default(),
        }
    }

    /// The compiled engine's state for `backend`, `None` for the
    /// interpreter.
    fn engine(g: &Etpn, backend: Backend) -> Option<CompiledState> {
        match backend {
            Backend::Compiled => Some(CompiledState::new(compiled::get_or_compile(g))),
            Backend::Interp => None,
        }
    }

    /// Run on the chosen step engine (see [`Backend`]). Switching backends
    /// never changes observable behaviour — the differential battery in
    /// `tests/backend_differential.rs` holds them bit-identical. Choosing
    /// the engine already built keeps it.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        if (backend == Backend::Compiled) != self.compiled.is_some() {
            self.compiled = Self::engine(self.g, backend);
        }
        self
    }

    /// The compiled backend with every incremental step cross-checked
    /// against a fresh full evaluation (panics on any divergence). This is
    /// the executable form of the dirty-set soundness invariant — a port
    /// skipped by the dirty set must have unchanged inputs, hence an
    /// unchanged value — used by the property-test suite. Far slower than
    /// either plain backend; debugging/testing only.
    pub fn compiled_verified(mut self) -> Self {
        self = self.with_backend(Backend::Compiled);
        if let Some(cs) = &mut self.compiled {
            cs.verify = true;
        }
        self
    }

    /// Record the value of every register output (the architectural
    /// state) at every step: waveform capture for `sim::vcd`.
    pub fn watch_registers(mut self) -> Self {
        let mut ports = Vec::new();
        for (_, vx) in self.g.dp.vertices().iter() {
            for &p in &vx.outputs {
                if self.g.dp.port(p).operation() == Op::Reg {
                    ports.push(p);
                }
            }
        }
        self.watch = ports;
        self
    }

    /// Record the control plane at every step: the marking (one bit per
    /// place) and the truth of every guard port, as [`Trace::marking_rows`]
    /// and [`Trace::guard_rows`]. `sim::vcd` renders them as 1-bit wires.
    pub fn watch_control(mut self) -> Self {
        self.watch_ctl = true;
        let mut ports: Vec<PortId> = Vec::new();
        for (_, tr) in self.g.ctl.transitions().iter() {
            ports.extend_from_slice(&tr.guards);
        }
        ports.sort_unstable();
        ports.dedup();
        self.guard_ports = ports;
        self
    }

    /// Collect functional coverage (places, transitions, arc activations,
    /// guard outcomes, port toggles) into a [`CovDb`] attached to the
    /// resulting [`Trace`]. Off by default. When enabled, a step observes
    /// what changed: on the compiled backend's incremental path, only the
    /// ports whose value changed and the arcs that opened since the
    /// previous step. After a full evaluation walk — every interpreter
    /// step, and on the compiled backend the first step, resyncs, forced
    /// and fallback steps — it scans the whole open-arc set and every
    /// output port not yet observed at both polarities. Guard outcomes
    /// cost a byte-mask test per enabled guarded transition.
    pub fn with_coverage(mut self) -> Self {
        let mut ports = Vec::new();
        let mut seen = vec![3u8; self.g.dp.ports().capacity_bound()];
        for (_, vx) in self.g.dp.vertices().iter() {
            for &p in &vx.outputs {
                seen[p.idx()] = 0;
                ports.push(p);
            }
        }
        self.toggle_pending = ports;
        self.toggle_seen = seen;
        self.guard_seen = vec![0; self.g.ctl.transitions().capacity_bound()];
        self.cov = Some(CovDb::for_fingerprint(self.g, self.design_fingerprint()));
        self
    }

    /// The design's fingerprint. The compiled engine's shared compilation
    /// already hashed the design; only the interpreter hashes it here, one
    /// full pass over the design.
    fn design_fingerprint(&self) -> u64 {
        self.compiled
            .as_ref()
            .map_or_else(|| self.g.fingerprint(), |cs| cs.cd.fingerprint())
    }

    /// Select the firing policy.
    pub fn with_policy(mut self, policy: FiringPolicy) -> Self {
        self.policy = policy;
        self.rng = policy.rng();
        self
    }

    /// Disable the runtime safeness check (Def. 3.2(2)). Only useful for
    /// demonstrating what goes wrong on improperly designed systems.
    pub fn allow_unsafe(mut self) -> Self {
        self.enforce_safe = false;
        self
    }

    /// Inject the faults of `plan` during the run (see [`crate::fault`]).
    /// Data faults force port values at assignment time inside the
    /// evaluator (on the compiled backend, steps where one is active take
    /// a full walk); control faults perturb the marking before each step.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Stop with [`Termination::Budget`] once this much wall-clock time
    /// has elapsed (checked every 64 steps, so short overruns are
    /// possible). Protects fault campaigns from runaway jobs.
    pub fn with_wall_budget(mut self, budget: Duration) -> Self {
        self.wall_budget = Some(budget);
        self
    }

    /// Journal every step into a flight recording attached to the
    /// resulting [`Trace::recording`]: the fired-transition sets, register
    /// latches, consumed inputs, external events, fault activity, plus
    /// periodic configuration checkpoints (see `etpn-rec`). Ring mode
    /// ([`etpn_rec::RecordMode::Ring`]) bounds memory for always-on use;
    /// full mode retains the whole run for replay from any checkpoint.
    pub fn with_recorder(mut self, cfg: RecordConfig) -> Self {
        self.rec_cfg = Some(cfg);
        self
    }

    /// Treat a committed read past the end of a finite input stream as
    /// [`SimError::InputExhausted`] (naming the dry vertex) instead of
    /// silently propagating `⊥`.
    pub fn strict_inputs(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Initialise the register vertex named `name` to `value`.
    pub fn init_register(mut self, name: &str, value: i64) -> Self {
        if let Some(v) = self.g.dp.vertex_by_name(name) {
            for &p in &self.g.dp.vertex(v).outputs {
                if self.g.dp.port(p).operation() == Op::Reg {
                    self.state.set(p, Value::Def(value));
                }
            }
        }
        self
    }

    /// Current marking (diagnostics / single-stepping).
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// The work counted so far; the global `sim.*` counters receive it
    /// when the simulator is dropped.
    pub fn work(&self) -> WorkCounts {
        self.metrics.work
    }

    /// Execute one control step. Returns `None` when the run has stopped
    /// (terminated or quiescent), `Some(fired)` otherwise.
    pub fn step_once(&mut self) -> Result<Option<usize>, SimError> {
        if self.marking.is_terminated() {
            return Ok(None);
        }
        let _step_span = obs::span_arg("sim.step", "step", self.step as i64);
        // The step-duration histogram times every step under `Trace` but
        // only every 16th under `Stats`: two `Instant::now` calls per step
        // would dominate the budget on designs with sub-microsecond steps,
        // and the histogram is statistical anyway.
        let t0 = (obs::trace_enabled() || (obs::stats_enabled() && self.step & 0xF == 0))
            .then(std::time::Instant::now);
        // A step is a fixed phase sequence: perturb → evaluate → observe →
        // fire → commit → sync. The compiled backend lends its values to
        // the read phases and gets them back before sync, so it mutates
        // them in place instead of copying them.
        let Some((fault_flags, forced)) = self.perturb()? else {
            return Ok(None);
        };
        let (vals, walked) = self.evaluate(forced)?;
        self.observe(&vals, walked);
        let fired = {
            let _fire_span = obs::span("sim.fire");
            let events_before = self.events.len();
            let done = self
                .fire(&vals)
                .and_then(|fired| self.commit_exits(&vals).map(|()| fired));
            if let Some(cs) = &mut self.compiled {
                cs.return_values(vals);
                // A failed step leaves the mirrors out of step with the
                // marking; the next step rebuilds them from a full walk.
                cs.resync |= done.is_err();
            }
            let fired = done?;
            self.sync();
            if self.rec.is_some() || self.script.is_some() {
                self.finish_step_journal(events_before, fault_flags)?;
            }
            fired
        };

        self.step += 1;
        self.metrics.work.steps += 1;
        self.metrics.work.firings += fired as u64;
        if let Some(t0) = t0 {
            self.metrics.step_ns.record(t0.elapsed().as_nanos() as u64);
        }
        if fired == 0 {
            return Ok(None); // fixpoint: nothing can ever change
        }
        Ok(Some(fired))
    }

    /// Step phase 1: checkpoint for the recorder, then apply this step's
    /// control faults. Returns `None` when a fault emptied the marking,
    /// else the step's fault flags and whether a data fault is active.
    fn perturb(&mut self) -> Result<Option<(u8, bool)>, SimError> {
        if let Some(rec) = &mut self.rec {
            // Snapshot *before* fault perturbation, so restoring the
            // checkpoint re-derives this step — faults included — exactly.
            if rec.wants_checkpoint(self.step) {
                rec.checkpoint(
                    self.step,
                    self.marking.counts(),
                    self.state.values(),
                    self.cursors.positions(),
                );
            }
        }
        let mut fault_flags: u8 = 0;
        if let Some(plan) = &self.faults {
            // Control faults strike before evaluation, so the evaluation
            // itself remains a pure function of the (perturbed) marking.
            // They also mutate the marking behind the compiled backend's
            // incremental mirrors, so any hit forces a full resync.
            if plan.apply_control(&mut self.marking, self.step) {
                fault_flags |= FLAG_CONTROL_FAULT;
                if let Some(cs) = &mut self.compiled {
                    cs.resync = true;
                }
            }
            if self.marking.is_terminated() {
                return Ok(None);
            }
            if self.enforce_safe {
                if let Some(err) = self.over_full() {
                    return Err(err);
                }
            }
        }
        let forced = self
            .faults
            .as_ref()
            .is_some_and(|p| p.port_faults_active_at(self.step));
        if forced {
            fault_flags |= FLAG_DATA_FAULT;
        }
        Ok(Some((fault_flags, forced)))
    }

    /// Step phase 2: evaluate the data path under the current marking.
    /// Returns the step's values, and `true` when they came from a full
    /// walk rather than from incremental propagation — which decides how
    /// [`Self::observe`] reads them. On the compiled backend the caller
    /// must hand the values back to the compiled state before sync.
    fn evaluate(&mut self, forced: bool) -> Result<(StepValues, bool), SimError> {
        let _eval_span = obs::span("sim.eval");
        let g = self.g;
        let step_no = self.step;
        let (env, cursors) = (&self.env, &self.cursors);
        let input = |v| env.value_at(v, &g.dp.vertex(v).name, cursors.position(v));
        self.metrics.work.evaluations += 1;
        if let Some(cs) = self.compiled.as_mut().filter(|cs| !cs.needs_full(forced)) {
            cs.check_conflict(step_no)?;
            let fired = cs.propagate(&self.state, input);
            self.metrics.work.port_evals += fired;
            let ports = cs.cd.port_count() as u64;
            self.metrics
                .record_dirty_frac(|| (fired * 1000).checked_div(ports));
            if cs.verify {
                let walked = self
                    .evaluator
                    .step(g, &self.marking, &self.state, step_no, input)?;
                let vals = cs.values();
                assert_eq!(
                    walked.open_arcs, vals.open_arcs,
                    "compiled backend: open-arc mirror diverged at step {step_no}"
                );
                assert_eq!(
                    walked.port_values, vals.port_values,
                    "dirty-set soundness violated at step {step_no}: a skipped \
                     port's value differs from a full evaluation"
                );
            }
            return Ok((cs.lend_values(), false));
        }
        self.metrics.work.full_walks += 1;
        let walked = self.walk(forced)?;
        // A walk evaluates every live port, on either engine.
        self.metrics.work.port_evals += g.dp.ports().len() as u64;
        self.metrics.record_dirty_frac(|| Some(1000));
        if let Some(cs) = &mut self.compiled {
            // Conservative path: first step, fault-mutated marking, forced
            // values, or a statically cyclic port graph — rebuild every
            // incremental mirror; the walk's values come home at the end
            // of the step.
            cs.resync_full(g, &self.marking);
            // A forced walk leaves forced values behind: the next step
            // must walk again to restore the pure values before
            // incremental stepping resumes.
            cs.resync = forced;
        }
        Ok((walked, true))
    }

    /// The interpreter's full data-path walk for this step, with the
    /// active data faults forced in when `forced`.
    fn walk(&mut self, forced: bool) -> Result<StepValues, SimError> {
        let g = self.g;
        let step_no = self.step;
        let (env, cursors) = (&self.env, &self.cursors);
        let input = |v| env.value_at(v, &g.dp.vertex(v).name, cursors.position(v));
        match self.faults.as_ref().filter(|_| forced) {
            Some(plan) => {
                let mut force = |p: PortId, v: Value| plan.force_value(p, v, step_no);
                self.evaluator.step_forced(
                    g,
                    &self.marking,
                    &self.state,
                    step_no,
                    input,
                    Some(&mut force),
                )
            }
            None => self
                .evaluator
                .step(g, &self.marking, &self.state, step_no, input),
        }
    }

    /// Step phase 3: observe the evaluated step — waveforms and coverage.
    /// After a full walk (`walked`) coverage scans everything. After
    /// incremental propagation it reads only the ports whose value
    /// changed and the arcs that opened since the previous step: the
    /// previous step's observation already saw everything else, and every
    /// run starts with a full walk.
    fn observe(&mut self, vals: &StepValues, walked: bool) {
        let g = self.g;
        if !self.watch.is_empty() {
            self.watched
                .push(self.watch.iter().map(|&p| vals.value(p)).collect());
        }
        if self.watch_ctl {
            let mut row = BitSet::new(g.ctl.places().capacity_bound());
            for s in self.marking.marked_places() {
                row.insert(s.idx());
            }
            self.marking_rows.push(row);
            let mut grow = BitSet::new(self.guard_ports.len());
            for (k, &p) in self.guard_ports.iter().enumerate() {
                if vals.value(p).is_true() {
                    grow.insert(k);
                }
            }
            self.guard_rows.push(grow);
        }
        let Some(db) = &mut self.cov else {
            return;
        };
        let seen = &mut self.toggle_seen;
        match &self.compiled {
            Some(cs) if !walked => {
                let full_scan = cs.verify.then(|| db.clone());
                // An arc opened by the previous commit counts only if it
                // is still open now, at the step that actually sees it.
                for &a in cs.opened_arcs() {
                    if vals.open_arcs.contains(a as usize) {
                        db.record_arc(a as usize);
                    }
                }
                for &p in cs.changed_ports() {
                    observe_toggle(db, seen, p as usize, vals.port_values[p as usize]);
                }
                if let Some(mut full) = full_scan {
                    full.record_open_arcs(&vals.open_arcs);
                    for (_, vx) in g.dp.vertices().iter() {
                        for &p in &vx.outputs {
                            full.record_toggle(p.idx(), vals.value(p));
                        }
                    }
                    assert_eq!(
                        &full, db,
                        "event-driven coverage diverged from a full scan at step {}",
                        self.step
                    );
                }
            }
            _ => {
                db.record_open_arcs(&vals.open_arcs);
                // A step that reveals nothing new costs one value load and
                // a mask test per pending port; fully-toggled ports retire
                // from the scan.
                self.toggle_pending
                    .retain(|&p| observe_toggle(db, seen, p.idx(), vals.value(p)) != 3);
            }
        }
    }

    /// Run to completion or `max_steps`, whichever comes first.
    pub fn run(mut self, max_steps: u64) -> Result<Trace, SimError> {
        if let Some(cfg) = self.rec_cfg.take() {
            let (streams, repeat_last) = self.env.export_streams().unwrap_or_default();
            let (policy_tag, policy_seed) = self.policy.encode();
            self.rec = Some(Recorder::new(
                cfg,
                RecMeta {
                    design_fp: self.design_fingerprint(),
                    env_fp: self.env.fingerprint(),
                    policy_tag,
                    policy_seed,
                    every: cfg.every,
                    ring: None, // filled in by Recorder::new from cfg
                    streams,
                    repeat_last,
                    faults: self
                        .faults
                        .as_ref()
                        .map(|plan| plan.faults().to_vec())
                        .unwrap_or_default(),
                },
            ));
        }
        let mut run_span = obs::span("sim.run");
        let deadline = self.wall_budget.map(|b| Instant::now() + b);
        let termination = loop {
            if self.step >= max_steps {
                // In a replay — bounded at the journal's end by
                // construction — a marking that emptied on the very last
                // permitted step still terminated (rule 6), and must
                // classify exactly like the original (longer-budget) run.
                // Plain runs keep the StepLimit verdict on this boundary.
                break if self.script.is_some() && self.marking.is_terminated() {
                    Termination::Terminated
                } else {
                    Termination::StepLimit
                };
            }
            // The wall-clock budget is checked every 64 steps: an
            // `Instant::now` per step would dominate sub-microsecond steps.
            if let Some(d) = deadline {
                if self.step & 0x3F == 0 && Instant::now() >= d {
                    break Termination::Budget;
                }
            }
            match self.step_once()? {
                Some(_) => {}
                None => {
                    break if self.marking.is_terminated() {
                        Termination::Terminated
                    } else if self.marking.enabled_transitions(&self.g.ctl).is_empty() {
                        // No transition is even token-enabled: structurally
                        // stuck, no guard flip could ever unblock it.
                        Termination::Deadlock
                    } else {
                        Termination::Quiescent
                    };
                }
            }
        };
        run_span.set_arg("steps", self.step as i64);
        drop(run_span);
        // Deterministic event order: by (step, arc, place).
        self.events.sort_by_key(|e| (e.step, e.arc, e.place));
        let mut cov = self.cov.take();
        if let Some(db) = &mut cov {
            db.absorb_run(
                self.g,
                &self.fire_counts,
                &self.exit_counts,
                self.step,
                &self.marking,
            );
        }
        Ok(Trace {
            events: self.events,
            steps: self.step,
            firings: self.metrics.work.firings,
            termination,
            watch: self.watch,
            watched: self.watched,
            marking_rows: self.marking_rows,
            guard_ports: self.guard_ports,
            guard_rows: self.guard_rows,
            cov,
            fire_counts: self.fire_counts,
            exit_counts: self.exit_counts,
            recording: self.rec.take().map(Recorder::into_recording),
            work: self.metrics.work,
        })
    }

    /// Deterministically replay `recording` up to (exclusive) step
    /// `target`: restore the nearest checkpoint at or before `target`,
    /// then re-apply the journaled firing decisions — never re-deciding —
    /// while verifying every re-derived effect (latches, consumed inputs,
    /// external events) against the journal. Works on either backend; the
    /// compiled backend resynchronises its mirrors from the restored
    /// configuration on the first step.
    ///
    /// Faults recorded in the journal's metadata are re-injected
    /// automatically unless this simulator already carries a plan. The
    /// returned trace covers the steps from the restored checkpoint to
    /// `target`; replaying from step 0 with the same watch configuration
    /// reproduces the original run bit-for-bit (events, waveforms, VCD).
    /// Any disagreement surfaces as [`SimError::ReplayDivergence`]; a
    /// recording that cannot be replayed here is [`SimError::ReplayRefused`].
    pub fn replay_to(self, recording: &Recording, target: u64) -> Result<Trace, SimError> {
        self.replay_between(recording, target, target)
    }

    /// Like [`Simulator::replay_to`], but restoring the nearest checkpoint
    /// at or before `from` instead of at or before the target: the
    /// returned trace then covers the journaled steps from that checkpoint
    /// through `target`. `replay_between(rec, rec.first_step, n)`
    /// reproduces the longest reconstructible prefix; `replay_to` is the
    /// cheapest state-at-step-`n` jump.
    pub fn replay_between(
        mut self,
        recording: &Recording,
        from: u64,
        target: u64,
    ) -> Result<Trace, SimError> {
        recording.fits(self.g).map_err(SimError::ReplayRefused)?;
        let end = recording.end_step();
        if target > end {
            return Err(SimError::ReplayRefused(RecError::BeyondEnd { target, end }));
        }
        let from = from.min(target);
        let Some(ck) = recording.checkpoint_at_or_before(from) else {
            return Err(SimError::ReplayRefused(RecError::NoCheckpoint {
                target: from,
            }));
        };
        if self.faults.is_none() && !recording.meta.faults.is_empty() {
            let faults = recording.meta.faults.iter().copied();
            self.faults = Some(faults.fold(FaultPlan::new(), FaultPlan::with));
        }
        self.marking = Marking::from_counts(ck.marking.clone());
        self.state.restore(&ck.state);
        self.cursors.restore(&ck.cursors);
        self.step = ck.step;
        if let Some(cs) = &mut self.compiled {
            // The restored configuration invalidates every incremental
            // mirror; the next step rebuilds them from a full walk.
            cs.resync = true;
        }
        self.script = Some(recording.clone());
        self.run(target)
    }

    /// Complete this step's row with its events and fault flags, verify
    /// it against the replay journal (if replaying) and hand it to the
    /// recorder (if recording). `events_before` marks where this step's
    /// events start in `self.events`.
    fn finish_step_journal(
        &mut self,
        events_before: usize,
        fault_flags: u8,
    ) -> Result<(), SimError> {
        let row = &mut self.row;
        let events = &self.events[events_before..];
        row.events
            .extend(events.iter().map(|e| (e.arc, e.value, e.place)));
        row.flags = fault_flags;
        let journal = self.script.as_ref().and_then(|s| s.record(self.step));
        if let Some(journal) = journal {
            if let Some(reason) = step_diff(journal, row.view()) {
                return Err(SimError::ReplayDivergence {
                    step: self.step,
                    detail: format!(
                        "{reason}: journal has {:?}, replay produced {row:?}",
                        journal.to_owned()
                    ),
                });
            }
        }
        if let Some(rec) = &mut self.rec {
            rec.push(self.step, row);
        }
        Ok(())
    }

    /// Step phase 4: fire transitions. Returns the count; the control
    /// states whose tokens were consumed (whose activation intervals
    /// ended) are left in `self.exited`.
    fn fire(&mut self, vals: &StepValues) -> Result<usize, SimError> {
        let g = self.g;
        let guard_true = |t: TransId| {
            let guards = &g.ctl.transition(t).guards;
            guards.is_empty() || guards.iter().any(|&p| vals.value(p).is_true())
        };
        // The compiled backend maintains token-enabledness incrementally;
        // the mirror was rebuilt or resynchronised no later than this
        // step's evaluation, so it matches `enabled_transitions` exactly
        // (both in increasing id order).
        let mut ready = std::mem::take(&mut self.ready);
        match &self.compiled {
            Some(cs) => cs.enabled_into(&mut ready),
            None => ready = self.marking.enabled_transitions(&g.ctl),
        }
        let (cov, guard_seen) = (&mut self.cov, &mut self.guard_seen);
        ready.retain(|&t| {
            let ok = guard_true(t);
            if let Some(db) = cov.as_mut() {
                // Guard-outcome coverage: a token-enabled guarded
                // transition observed with its guard disjunction true
                // ("taken") or false ("held back") this step. The
                // seen-mask makes repeat outcomes a byte test.
                if !g.ctl.transition(t).guards.is_empty() {
                    let bit: u8 = if ok { 2 } else { 1 };
                    if guard_seen[t.idx()] & bit == 0 {
                        guard_seen[t.idx()] |= bit;
                        db.record_guard(t.idx(), ok);
                    }
                }
            }
            ok
        });
        // Replaying: the journal's fired list IS the order — the policy is
        // never re-consulted, so the replay is exact even for random
        // policies. Each journaled transition must still be ready here, or
        // the replay has diverged from the recorded trajectory.
        let scripted = self.script.is_some();
        match self
            .script
            .as_ref()
            .and_then(|script| script.record(self.step))
        {
            Some(r) => {
                if let Some(&t) = r.fired.iter().find(|t| !ready.contains(t)) {
                    return Err(SimError::ReplayDivergence {
                        step: self.step,
                        detail: format!(
                            "{}: journal fires {t} but it is not ready (enabled and \
                             guard-true) in the replay",
                            DivergenceReason::FiredDiffer
                        ),
                    });
                }
                ready.clear();
                ready.extend_from_slice(r.fired);
            }
            None => self.policy.order(&mut ready, self.rng.as_mut()),
        }
        let mut fired = 0usize;
        self.exited.clear();
        self.row.clear();
        let journaling = scripted || self.rec.is_some();
        for &t in &ready {
            if self.marking.enabled(&g.ctl, t) {
                self.marking.fire(&g.ctl, t);
                self.fire_counts[t.idx()] += 1;
                if journaling {
                    self.row.fired.push(t);
                }
                let tr = g.ctl.transition(t);
                if let Some(cs) = &mut self.compiled {
                    // Every place whose token count may have moved; folded
                    // into the mirrors after commit.
                    cs.touched.extend(tr.pre.iter().map(|s| s.0));
                    cs.touched.extend(tr.post.iter().map(|s| s.0));
                }
                self.exited.extend_from_slice(&tr.pre);
                fired += 1;
            } else if scripted {
                // The journal only ever contains transitions that actually
                // fired; losing enablement mid-step means the trajectory
                // differs.
                return Err(SimError::ReplayDivergence {
                    step: self.step,
                    detail: format!(
                        "{}: journaled transition {t} lost enablement during the step",
                        DivergenceReason::FiredDiffer
                    ),
                });
            }
        }
        self.ready = ready;
        self.exited.sort_unstable();
        self.exited.dedup();
        if self.enforce_safe {
            if let Some(err) = self.over_full() {
                return Err(err);
            }
        }
        Ok(fired)
    }

    /// The safeness violation of the current marking, if any (Def. 3.2(2)).
    /// The check is O(1); only a violation scans for the over-full place.
    fn over_full(&self) -> Option<SimError> {
        if self.marking.is_safe() {
            return None;
        }
        let place = self
            .marking
            .marked_places()
            .into_iter()
            .find(|&s| self.marking.count(s) > 1)?;
        Some(SimError::UnsafeMarking {
            place,
            tokens: u64::from(self.marking.count(place)),
            step: self.step,
        })
    }

    /// Step phase 5: commit the effects of the control states whose
    /// activation ended (`self.exited`). The input vertices whose cursors
    /// advanced land in the step's row; so do the latches performed, when
    /// recording or replaying.
    fn commit_exits(&mut self, vals: &StepValues) -> Result<(), SimError> {
        let g = self.g;
        let exited = self.exited.as_slice();
        for &s in exited {
            self.exit_counts[s.idx()] += 1;
        }
        // External events (Def. 3.4), labelled with the exiting state.
        for &s in exited {
            for &a in g.ctl.ctrl(s) {
                if g.dp.is_external_arc(a) {
                    self.events.push(ExternalEvent {
                        arc: a,
                        value: vals.value(g.dp.arc(a).from),
                        place: s,
                        step: self.step,
                    });
                }
            }
        }
        // Register latching (rule 9), logged when the journal needs it.
        let log = (self.rec.is_some() || self.script.is_some()).then_some(&mut self.row.latched);
        self.evaluator
            .latch_for_places_logged(g, exited, vals, &mut self.state, log);
        // Input stream consumption: one value per completed read interval.
        let advanced = &mut self.row.advanced;
        for &s in exited {
            for &a in g.ctl.ctrl(s) {
                let from_v = g.dp.port(g.dp.arc(a).from).vertex;
                if g.dp.vertex(from_v).kind == etpn_core::vertex::VertexKind::Input
                    && !advanced.contains(&from_v)
                {
                    advanced.push(from_v);
                }
            }
        }
        for &v in &self.row.advanced {
            let position = self.cursors.position(v);
            if self.strict && self.env.ran_dry(v, &g.dp.vertex(v).name, position) {
                return Err(SimError::InputExhausted {
                    vertex: v,
                    name: g.dp.vertex(v).name.to_string(),
                    position,
                    step: self.step,
                });
            }
            self.cursors.advance(v);
        }
        Ok(())
    }

    /// Step phase 6: fold the step's marking and data-path changes into
    /// the compiled backend's incremental mirrors. Runs after the step's
    /// read handle on the values is gone, so they update in place.
    fn sync(&mut self) {
        let Some(cs) = &mut self.compiled else {
            return;
        };
        if cs.resync || cs.cd.is_fallback() {
            // The next step rebuilds everything from a full walk anyway;
            // pending incremental bookkeeping is moot.
            cs.touched.clear();
        } else {
            cs.sync_after_commit(self.g, &self.marking, &self.state, &self.exited);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ScriptedEnv;
    use crate::RunSpec;
    use etpn_core::{EtpnBuilder, Op};

    /// s0: load r := a + b;  s1: emit r to y;  then terminate.
    fn add_once() -> Etpn {
        let mut b = EtpnBuilder::new();
        let a = b.input("a");
        let c = b.input("b");
        let add = b.operator(Op::Add, 2, "add");
        let r = b.register("r");
        let out = b.output("y");
        let arc_a = b.connect(b.out_port(a, 0), b.in_port(add, 0));
        let arc_b = b.connect(b.out_port(c, 0), b.in_port(add, 1));
        let load = b.connect(b.out_port(add, 0), b.in_port(r, 0));
        let emit = b.connect(b.out_port(r, 0), b.in_port(out, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s_end = b.place("end");
        b.control(s0, [arc_a, arc_b, load]);
        b.control(s1, [emit]);
        b.seq(s0, s1, "t0");
        b.seq(s1, s_end, "t1");
        let t2 = b.transition("t2");
        b.flow_st(s_end, t2);
        b.mark(s0);
        b.finish().unwrap()
    }

    #[test]
    fn computes_and_emits_sum() {
        let g = add_once();
        let env = ScriptedEnv::new()
            .with_stream("a", [3])
            .with_stream("b", [4]);
        let trace = Simulator::new(&g, env).run(10).unwrap();
        assert_eq!(trace.values_on_named_output(&g, "y"), vec![7]);
        assert_eq!(trace.termination, Termination::Terminated);
        assert!(trace.steps <= 4);
    }

    #[test]
    fn event_labels_and_steps() {
        let g = add_once();
        let env = ScriptedEnv::new()
            .with_stream("a", [3])
            .with_stream("b", [4]);
        let trace = Simulator::new(&g, env).run(10).unwrap();
        // Step 0: s0 exits → two input events; step 1: s1 exits → output event.
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.events[0].step, 0);
        assert_eq!(trace.events[1].step, 0);
        assert_eq!(trace.events[2].step, 1);
        let s0 = g.ctl.place_by_name("s0").unwrap();
        let s1 = g.ctl.place_by_name("s1").unwrap();
        assert_eq!(trace.events[0].place, s0);
        assert_eq!(trace.events[2].place, s1);
    }

    #[test]
    fn consecutive_reads_consume_the_stream() {
        // Two sequential states each load register r from input x, emitting
        // after each load: the outputs must be successive stream values.
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let r = b.register("r");
        let y = b.output("y");
        let load = b.connect(b.out_port(x, 0), b.in_port(r, 0));
        let emit = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s = b.serial_chain(5, "s"); // s0..s4, s0 marked
        b.control(s[0], [load]);
        b.control(s[1], [emit]);
        b.control(s[2], [load]);
        b.control(s[3], [emit]);
        let t_end = b.transition("t_end");
        b.flow_st(s[4], t_end);
        let g = b.finish().unwrap();
        let env = ScriptedEnv::new().with_stream("x", [10, 20, 30]);
        let trace = Simulator::new(&g, env).run(20).unwrap();
        assert_eq!(trace.values_on_named_output(&g, "y"), vec![10, 20]);
    }

    #[test]
    fn quiescent_when_guard_never_true() {
        let mut b = EtpnBuilder::new();
        let zero = b.constant(0, "zero");
        let r = b.register("r");
        let a = b.connect(b.out_port(zero, 0), b.in_port(r, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        b.control(s0, [a]);
        let t = b.seq(s0, s1, "t");
        b.guard(t, b.out_port(zero, 0));
        b.mark(s0);
        let g = b.finish().unwrap();
        let trace = Simulator::new(&g, ScriptedEnv::new()).run(50).unwrap();
        assert_eq!(trace.termination, Termination::Quiescent);
        assert_eq!(trace.firings, 0);
        assert_eq!(trace.event_count(), 0, "interval never ended, no events");
    }

    #[test]
    fn guarded_branch_takes_true_side() {
        // s0 loads r := x; then t_pos (guard r >= 0) → s_pos emits to "pos",
        // t_neg (guard r < 0) → s_neg emits to "neg".
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let r = b.register("r");
        let zero = b.constant(0, "zero");
        let ge = b.operator(Op::Ge, 2, "ge");
        let lt = b.operator(Op::Lt, 2, "lt");
        let pos = b.output("pos");
        let neg = b.output("neg");
        let load = b.connect(b.out_port(x, 0), b.in_port(r, 0));
        let c0 = b.connect(b.out_port(r, 0), b.in_port(ge, 0));
        let c1 = b.connect(b.out_port(zero, 0), b.in_port(ge, 1));
        let c2 = b.connect(b.out_port(r, 0), b.in_port(lt, 0));
        let c3 = b.connect(b.out_port(zero, 0), b.in_port(lt, 1));
        let e_pos = b.connect(b.out_port(r, 0), b.in_port(pos, 0));
        let e_neg = b.connect(b.out_port(r, 0), b.in_port(neg, 0));
        let s0 = b.place("s0");
        let s_cmp = b.place("s_cmp");
        let s_pos = b.place("s_pos");
        let s_neg = b.place("s_neg");
        let s_end = b.place("s_end");
        b.control(s0, [load]);
        b.control(s_cmp, [c0, c1, c2, c3]);
        b.control(s_pos, [e_pos]);
        b.control(s_neg, [e_neg]);
        b.seq(s0, s_cmp, "t0");
        let t_pos = b.seq(s_cmp, s_pos, "t_pos");
        b.guard(t_pos, b.out_port(ge, 0));
        let t_neg = b.seq(s_cmp, s_neg, "t_neg");
        b.guard(t_neg, b.out_port(lt, 0));
        b.seq(s_pos, s_end, "tp2");
        b.seq(s_neg, s_end, "tn2");
        let t_fin = b.transition("t_fin");
        b.flow_st(s_end, t_fin);
        b.mark(s0);
        let g = b.finish().unwrap();

        let run = |v: i64| {
            let env = ScriptedEnv::new().with_stream("x", [v]);
            Simulator::new(&g, env).run(20).unwrap()
        };
        let t = run(5);
        assert_eq!(t.values_on_named_output(&g, "pos"), vec![5]);
        assert!(t.values_on_named_output(&g, "neg").is_empty());
        let t = run(-3);
        assert!(t.values_on_named_output(&g, "pos").is_empty());
        assert_eq!(t.values_on_named_output(&g, "neg"), vec![-3]);
    }

    #[test]
    fn deadlock_distinguished_from_quiescence() {
        // A join whose partner token never arrives: t requires s0 and s1
        // but only s0 is marked — no transition is token-enabled.
        let mut b = EtpnBuilder::new();
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s2 = b.place("s2");
        let t = b.transition("t");
        b.flow_st(s0, t);
        b.flow_st(s1, t);
        b.flow_ts(t, s2);
        let fin = b.transition("fin");
        b.flow_st(s2, fin);
        b.mark(s0);
        let g = b.finish().unwrap();
        let trace = Simulator::new(&g, ScriptedEnv::new()).run(10).unwrap();
        assert_eq!(trace.termination, Termination::Deadlock);
        assert!(trace.termination.is_hang());
        assert_eq!(trace.firings, 0);
    }

    #[test]
    fn strict_inputs_name_the_dry_vertex() {
        // Two sequential reads of x against a one-value stream: the second
        // committed read runs dry.
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let r = b.register("r");
        let y = b.output("y");
        let load = b.connect(b.out_port(x, 0), b.in_port(r, 0));
        let emit = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s = b.serial_chain(5, "s");
        b.control(s[0], [load]);
        b.control(s[1], [emit]);
        b.control(s[2], [load]);
        b.control(s[3], [emit]);
        let t_end = b.transition("t_end");
        b.flow_st(s[4], t_end);
        let g = b.finish().unwrap();
        let env = ScriptedEnv::new().with_stream("x", [10]);
        // Default semantics: the dry read silently yields ⊥, the register
        // keeps its old value, and the environment sees a stale repeat —
        // exactly the bug class strict mode is for.
        let trace = Simulator::new(&g, env.clone()).run(20).unwrap();
        assert_eq!(trace.values_on_named_output(&g, "y"), vec![10, 10]);
        // Strict mode: the dry read is an error naming the vertex.
        let err = Simulator::new(&g, env).strict_inputs().run(20).unwrap_err();
        match &err {
            SimError::InputExhausted { name, position, .. } => {
                assert_eq!(name, "x");
                assert_eq!(*position, 1);
            }
            other => panic!("expected InputExhausted, got {other:?}"),
        }
        assert!(err.describe(&g).contains("`x`") || err.describe(&g).contains("ran dry"));
        // A sufficient stream passes strict mode untouched.
        let env = ScriptedEnv::new().with_stream("x", [10, 20]);
        let trace = Simulator::new(&g, env).strict_inputs().run(20).unwrap();
        assert_eq!(trace.values_on_named_output(&g, "y"), vec![10, 20]);
    }

    #[test]
    fn wall_budget_cuts_an_endless_run() {
        // The step_limit design loops forever; a zero budget stops it
        // before the first step.
        let mut b = EtpnBuilder::new();
        let one = b.constant(1, "one");
        let r = b.register("r");
        let a = b.connect(b.out_port(one, 0), b.in_port(r, 0));
        let s0 = b.place("s0");
        b.control(s0, [a]);
        let t = b.transition("t");
        b.flow_st(s0, t);
        b.flow_ts(t, s0);
        b.mark(s0);
        let g = b.finish().unwrap();
        let trace = Simulator::new(&g, ScriptedEnv::new())
            .with_wall_budget(std::time::Duration::ZERO)
            .run(1_000_000)
            .unwrap();
        assert_eq!(trace.termination, Termination::Budget);
        assert!(trace.termination.is_hang());
        assert_eq!(trace.steps, 0);
    }

    #[test]
    fn step_limit_reported() {
        let mut b = EtpnBuilder::new();
        let one = b.constant(1, "one");
        let r = b.register("r");
        let a = b.connect(b.out_port(one, 0), b.in_port(r, 0));
        let s0 = b.place("s0");
        b.control(s0, [a]);
        let t = b.transition("t");
        b.flow_st(s0, t);
        b.flow_ts(t, s0);
        b.mark(s0);
        let g = b.finish().unwrap();
        let trace = Simulator::new(&g, ScriptedEnv::new()).run(25).unwrap();
        assert_eq!(trace.termination, Termination::StepLimit);
        assert_eq!(trace.steps, 25);
        assert_eq!(trace.firings, 25);
    }

    #[test]
    fn unsafe_marking_rejected_by_default() {
        let mut b = EtpnBuilder::new();
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s2 = b.place("s2");
        let t0 = b.transition("t0");
        b.flow_st(s0, t0);
        b.flow_ts(t0, s2);
        let t1 = b.transition("t1");
        b.flow_st(s1, t1);
        b.flow_ts(t1, s2);
        b.mark(s0);
        b.mark(s1);
        let g = b.finish().unwrap();
        let err = Simulator::new(&g, ScriptedEnv::new()).run(5).unwrap_err();
        assert!(matches!(err, SimError::UnsafeMarking { .. }));
        let trace = Simulator::new(&g, ScriptedEnv::new())
            .allow_unsafe()
            .run(5)
            .unwrap();
        assert!(trace.firings >= 2);
    }

    #[test]
    fn register_init_is_visible() {
        let mut b = EtpnBuilder::new();
        let r = b.register("r");
        let y = b.output("y");
        let emit = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        b.control(s0, [emit]);
        b.seq(s0, s1, "t");
        b.mark(s0);
        let g = b.finish().unwrap();
        let trace = Simulator::new(&g, ScriptedEnv::new())
            .init_register("r", 99)
            .run(10)
            .unwrap();
        assert_eq!(trace.values_on_named_output(&g, "y"), vec![99]);
    }

    #[test]
    fn accumulator_self_loop_latches_every_iteration() {
        // r := r + 1 under a self-looping control state, 5 iterations then exit
        // via guard r >= 5.
        let mut b = EtpnBuilder::new();
        let one = b.constant(1, "one");
        let five = b.constant(5, "five");
        let add = b.operator(Op::Add, 2, "add");
        let ge = b.operator(Op::Ge, 2, "ge");
        let lt = b.operator(Op::Lt, 2, "lt");
        let r = b.register("r");
        let y = b.output("y");
        let a0 = b.connect(b.out_port(r, 0), b.in_port(add, 0));
        let a1 = b.connect(b.out_port(one, 0), b.in_port(add, 1));
        let a2 = b.connect(b.out_port(add, 0), b.in_port(r, 0));
        let g0 = b.connect(b.out_port(r, 0), b.in_port(ge, 0));
        let g1 = b.connect(b.out_port(five, 0), b.in_port(ge, 1));
        let l0 = b.connect(b.out_port(r, 0), b.in_port(lt, 0));
        let l1 = b.connect(b.out_port(five, 0), b.in_port(lt, 1));
        let emit = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s_end = b.place("end");
        b.control(s0, [a0, a1, a2, g0, g1, l0, l1]);
        b.control(s1, [emit]);
        let t_loop = b.transition("t_loop");
        b.flow_st(s0, t_loop);
        b.flow_ts(t_loop, s0);
        b.guard(t_loop, b.out_port(lt, 0));
        let t_exit = b.seq(s0, s1, "t_exit");
        b.guard(t_exit, b.out_port(ge, 0));
        b.seq(s1, s_end, "t1");
        let t_fin = b.transition("t_fin");
        b.flow_st(s_end, t_fin);
        b.mark(s0);
        let g = b.finish().unwrap();
        let trace = Simulator::new(&g, ScriptedEnv::new())
            .init_register("r", 0)
            .run(30)
            .unwrap();
        assert_eq!(trace.termination, Termination::Terminated);
        // The increment arc is open during the *exit* activation too (it is
        // in C(s0) unconditionally), so the final latch runs once more after
        // the guard flips: 5 loop latches + 1 exit latch = 6.
        assert_eq!(trace.values_on_named_output(&g, "y"), vec![6]);
    }

    /// A cyclic ring of `n` places, each loading its own register from a
    /// shared constant (the shape of a cyclic `random_net`), plus a lap
    /// counter latched when the first place exits: some ports change
    /// value every step, some once per lap.
    fn ring(n: usize) -> Etpn {
        let mut b = EtpnBuilder::new();
        let k = b.constant(1, "k");
        let laps = b.register("laps");
        let add = b.operator(Op::Add, 2, "add");
        let a0 = b.connect(b.out_port(laps, 0), b.in_port(add, 0));
        let a1 = b.connect(b.out_port(k, 0), b.in_port(add, 1));
        let a2 = b.connect(b.out_port(add, 0), b.in_port(laps, 0));
        let places: Vec<PlaceId> = (0..n)
            .map(|i| {
                let r = b.register(format!("r{i}"));
                let a = b.connect(b.out_port(k, 0), b.in_port(r, 0));
                let s = b.place(format!("s{i}"));
                if i == 0 {
                    b.control(s, [a, a0, a1, a2]);
                } else {
                    b.control(s, [a]);
                }
                s
            })
            .collect();
        for i in 0..n {
            b.seq(places[i], places[(i + 1) % n], format!("t{i}"));
        }
        b.mark(places[0]);
        b.finish().unwrap()
    }

    #[test]
    fn steady_state_compiled_steps_update_values_in_place() {
        let g = ring(16);
        let mut sim = Simulator::new(&g, ScriptedEnv::new())
            .with_coverage()
            .init_register("laps", 0);
        // Where the persistent value buffer lives between steps; each step
        // lends it out and hands the same buffer back.
        let home = |sim: &Simulator<'_, ScriptedEnv>| {
            sim.compiled.as_ref().unwrap().values().port_values.as_ptr()
        };
        for _ in 0..3 * 16 {
            assert!(sim.step_once().unwrap().is_some());
        }
        let before = home(&sim);
        for step in 0..100 {
            assert!(sim.step_once().unwrap().is_some());
            assert_eq!(
                home(&sim),
                before,
                "steady-state step {step} copied StepValues"
            );
        }
    }

    #[test]
    fn only_the_chosen_engine_is_built() {
        // A ring no other test builds, so nothing else compiles it.
        let g = ring(5);
        let interp = RunSpec {
            backend: Backend::Interp,
            ..RunSpec::default()
        };
        let sim = Simulator::from_spec(&g, ScriptedEnv::new(), &interp);
        assert!(sim.compiled.is_none());
        assert!(!compiled::is_cached(&g), "an interpreter spec compiled");
        // Choosing the engine already built keeps it: a compiled state
        // past its first step needs no resync, a fresh one does.
        let mut sim = Simulator::new(&g, ScriptedEnv::new());
        sim.step_once().unwrap();
        let sim = sim.with_backend(Backend::Compiled);
        assert!(!sim.compiled.as_ref().unwrap().resync);
        assert!(sim.with_backend(Backend::Interp).compiled.is_none());
    }

    #[test]
    fn a_step_after_a_failed_step_fails_again() {
        // s0 forks into s1 and s2; t1 (guarded by k == k, whose inputs s1
        // controls) and t2 both put a token into s3, so the second step
        // fails in `fire` while the step's values are lent out.
        let mut b = EtpnBuilder::new();
        let k = b.constant(1, "k");
        let eq = b.operator(Op::Eq, 2, "eq");
        let lhs = b.connect(b.out_port(k, 0), b.in_port(eq, 0));
        let rhs = b.connect(b.out_port(k, 0), b.in_port(eq, 1));
        let [s0, s1, s2, s3] = ["s0", "s1", "s2", "s3"].map(|n| b.place(n));
        let t0 = b.transition("t0");
        b.flow_st(s0, t0);
        b.flow_ts(t0, s1);
        b.flow_ts(t0, s2);
        let t1 = b.seq(s1, s3, "t1");
        b.guard(t1, b.out_port(eq, 0));
        b.seq(s2, s3, "t2");
        b.control(s1, [lhs, rhs]);
        b.mark(s0);
        let g = b.finish().unwrap();
        let mut sim = Simulator::new(&g, ScriptedEnv::new()).with_coverage();
        assert_eq!(sim.step_once().unwrap(), Some(1));
        match sim.step_once() {
            Err(SimError::UnsafeMarking {
                place,
                tokens: 2,
                step: 1,
            }) if place == s3 => {}
            other => panic!("expected s3 to hold two tokens at step 1, got {other:?}"),
        }
        // The failed step handed its values back to the compiled state.
        assert!(sim.step_once().is_err());
    }

    #[test]
    fn recording_then_replay_reproduces_the_run() {
        use etpn_rec::RecordConfig;
        let g = add_once();
        let env = ScriptedEnv::new()
            .with_stream("a", [3])
            .with_stream("b", [4]);
        let trace = Simulator::new(&g, env)
            .with_recorder(RecordConfig::full(1))
            .run(10)
            .unwrap();
        let rec = trace.recording.as_ref().expect("recording requested");
        assert_eq!(rec.first_step, 0);
        assert_eq!(rec.end_step(), trace.steps);
        assert_eq!(rec.meta.design_fp, g.fingerprint());
        assert!(!rec.meta.streams.is_empty(), "env embedded in recording");

        // Full replay, environment and policy rebuilt from the recording
        // alone, on both backends.
        for backend in [Backend::Interp, Backend::Compiled] {
            let rt = crate::replay::replay_recording(&g, rec, rec.end_step(), backend).unwrap();
            assert_eq!(rt.events, trace.events, "{backend:?}");
            assert_eq!(rt.termination, trace.termination, "{backend:?}");
            assert_eq!(rt.steps, trace.steps);
        }

        // Partial replay: the trace covers the prefix up to the target.
        let mid = trace.steps / 2;
        let rt = crate::replay::replay_recording(&g, rec, mid, Backend::Interp).unwrap();
        assert_eq!(rt.steps, mid);
        let expect: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.step < mid)
            .cloned()
            .collect();
        assert_eq!(rt.events, expect);

        // Time-travel jump: replay_to restores the nearest checkpoint at
        // or before the target, so its trace is the (here empty-or-short)
        // suffix from that checkpoint.
        let jump = Simulator::new(&g, crate::replay::env_from_recording(rec))
            .replay_to(rec, mid)
            .unwrap();
        let ck = rec.checkpoint_at_or_before(mid).unwrap();
        let expect: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.step >= ck.step && e.step < mid)
            .cloned()
            .collect();
        assert_eq!(jump.events, expect);
    }

    #[test]
    fn replay_rejects_the_wrong_design() {
        use etpn_rec::RecordConfig;
        let g = add_once();
        let env = ScriptedEnv::new()
            .with_stream("a", [3])
            .with_stream("b", [4]);
        let trace = Simulator::new(&g, env)
            .with_recorder(RecordConfig::full(4))
            .run(10)
            .unwrap();
        let rec = trace.recording.unwrap();

        // A different design: fingerprints differ.
        let mut b = EtpnBuilder::new();
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        b.seq(s0, s1, "t0");
        b.mark(s0);
        let other = b.finish().unwrap();
        let err = Simulator::new(&other, ScriptedEnv::new())
            .replay_to(&rec, 1)
            .unwrap_err();
        let mismatch = RecError::DesignMismatch {
            left: other.fingerprint(),
            right: g.fingerprint(),
        };
        assert_eq!(err, SimError::ReplayRefused(mismatch), "{err}");

        // A target beyond the journal is refused, not silently clamped.
        let end = rec.end_step();
        let err = crate::replay::replay_recording(&g, &rec, end + 1, Backend::Interp).unwrap_err();
        let beyond = RecError::BeyondEnd {
            target: end + 1,
            end,
        };
        assert_eq!(err, SimError::ReplayRefused(beyond), "{err}");
        assert!(format!("{err}").contains("beyond the journal end"), "{err}");
    }

    #[test]
    fn recorded_faulty_run_replays_with_faults_reinjected() {
        use crate::fault::{Fault, FaultKind, FaultSite, FaultWindow};
        use etpn_rec::RecordConfig;
        let g = add_once();
        let x_out = g.dp.vertex(g.dp.vertex_by_name("a").unwrap()).outputs[0];
        let fault = Fault {
            site: FaultSite::Port(x_out),
            kind: FaultKind::StuckAt0,
            window: FaultWindow::Permanent(0),
        };
        let env = ScriptedEnv::new()
            .with_stream("a", [3])
            .with_stream("b", [4]);
        let trace = Simulator::new(&g, env)
            .with_faults(FaultPlan::single(fault))
            .with_recorder(RecordConfig::full(1))
            .run(10)
            .unwrap();
        assert_eq!(trace.values_on_named_output(&g, "y"), vec![4]);
        let rec = trace.recording.as_ref().unwrap();
        assert_eq!(rec.meta.faults.len(), 1, "fault plan embedded");

        // Replay re-injects the journaled fault automatically and must
        // reproduce the *faulty* observation, not the clean one.
        let rt =
            crate::replay::replay_recording(&g, rec, rec.end_step(), Backend::Compiled).unwrap();
        assert_eq!(rt.values_on_named_output(&g, "y"), vec![4]);
        assert_eq!(rt.events, trace.events);
    }
}
