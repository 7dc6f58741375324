//! Fault injection and fault-simulation campaigns.
//!
//! The properly-designed conditions of Def. 3.2 (safeness,
//! conflict-freeness, no shared resources, no combinational loops) are
//! exactly the invariants a hardware design loses first under faults, and
//! the observational semantics (Defs. 3.3–3.6) give a precise oracle for
//! "did the fault change externally visible behaviour". This module puts
//! both to work as the canonical EDA robustness workload: simulate a
//! *golden* (fault-free) run, then re-simulate under injected faults and
//! classify each fault by what the environment could observe.
//!
//! * [`FaultPlan`] describes *what* to inject: stuck-at-0/1 and
//!   single-bit-flip faults on data-path ports (transient or permanent),
//!   and token loss/duplication in a control place. Plans are enumerable
//!   ([`FaultPlan::sweep_data_ports`]) and seedable
//!   ([`FaultPlan::random_faults`]).
//! * The engine applies a plan via `Simulator::with_faults`: port faults
//!   hook value assignment inside the evaluator
//!   (`Evaluator::step_forced`), control faults perturb the marking before
//!   each step. The clean path is untouched — no plan, no hook.
//! * [`run_campaign`] fans a one-fault-per-job sweep over a
//!   [`Fleet`](crate::fleet::Fleet), compares each faulty event structure
//!   against the golden one, and partitions the faults into
//!   [`FaultClass::Masked`] / [`FaultClass::SilentCorruption`] /
//!   [`FaultClass::Detected`] (a Def. 3.2 runtime monitor fired) /
//!   [`FaultClass::Hang`], with a per-vertex vulnerability map renderable
//!   as a heat-graded DOT graph.

use crate::env::Environment;
use crate::error::SimError;
use crate::extract::event_structure;
use crate::fleet::{lock_recover, Fleet, FleetStats, SimJob};
use crate::trace::{Termination, Trace};
use etpn_core::dot::{datapath_dot_heat, DataHeat};
use etpn_core::{Etpn, EventStructure, Marking, PlaceId, PortId, Value};
use etpn_cov::CovDb;
use etpn_obs as obs;
use etpn_rec::{DivergenceReport, RecordConfig, Recording};
pub use etpn_rec::{Fault, FaultKind, FaultSite, FaultWindow};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, PoisonError};

/// A set of faults to inject into one run.
///
/// The typical campaign plan holds exactly one fault
/// ([`FaultPlan::single`]); multi-fault plans model correlated upsets.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// The single-fault plan campaigns sweep with.
    pub fn single(fault: Fault) -> Self {
        Self {
            faults: vec![fault],
        }
    }

    /// Add a fault.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The faults of this plan.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Is any *data* (port) fault active at `step`? On such steps the
    /// compiled backend takes a full forced walk instead of incremental
    /// propagation.
    pub fn port_faults_active_at(&self, step: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.site, FaultSite::Port(_)) && f.kind.is_data() && f.window.active_at(step)
        })
    }

    /// The value port `p` takes at `step`, after all active data faults on
    /// it are applied to the clean value `v`.
    pub fn force_value(&self, p: PortId, v: Value, step: u64) -> Value {
        self.faults.iter().fold(v, |v, f| {
            if f.site == FaultSite::Port(p) && f.kind.is_data() && f.window.active_at(step) {
                f.kind.apply(v)
            } else {
                v
            }
        })
    }

    /// Apply the control faults active at `step` to the marking. Token
    /// loss/duplication only acts on a place that currently holds a token
    /// (there is nothing to lose or duplicate otherwise). These mutate the
    /// configuration *before* evaluation, so the evaluation itself stays a
    /// pure function of the perturbed configuration.
    ///
    /// Returns whether the marking was mutated: the compiled backend's
    /// incremental mirrors are built on the assumption that tokens only
    /// move through transition firings, so any hit here must trigger a
    /// conservative full resynchronisation.
    pub fn apply_control(&self, m: &mut Marking, step: u64) -> bool {
        let mut changed = false;
        for f in &self.faults {
            let FaultSite::Place(s) = f.site else {
                continue;
            };
            if !f.window.active_at(step) || m.count(s) == 0 {
                continue;
            }
            match f.kind {
                FaultKind::TokenLoss => {
                    m.remove(s);
                    changed = true;
                }
                FaultKind::TokenDup => {
                    m.add(s);
                    changed = true;
                }
                _ => {}
            }
        }
        changed
    }

    /// Enumerate the one-fault-per-campaign sweep: every `kind` at every
    /// live data-path port. Stuck-at faults are permanent from step 0;
    /// bit flips are transient at `transient_step`.
    pub fn sweep_data_ports(g: &Etpn, kinds: &[FaultKind], transient_step: u64) -> Vec<Fault> {
        let mut out = Vec::new();
        for p in g.dp.ports().ids() {
            for &kind in kinds.iter().filter(|k| k.is_data()) {
                let window = match kind {
                    FaultKind::BitFlip(_) => FaultWindow::Transient(transient_step),
                    _ => FaultWindow::Permanent(0),
                };
                out.push(Fault {
                    site: FaultSite::Port(p),
                    kind,
                    window,
                });
            }
        }
        out
    }

    /// Enumerate transient token loss and duplication at every control
    /// place, striking at `step`.
    pub fn sweep_control_places(g: &Etpn, step: u64) -> Vec<Fault> {
        let mut out = Vec::new();
        for s in g.ctl.places().ids() {
            for kind in [FaultKind::TokenLoss, FaultKind::TokenDup] {
                out.push(Fault {
                    site: FaultSite::Place(s),
                    kind,
                    window: FaultWindow::Transient(step),
                });
            }
        }
        out
    }

    /// Sample `n` faults at random (seed-deterministic): mostly data
    /// faults over the ports, a fifth control faults over the places, with
    /// strike steps drawn from `0..max_step`.
    pub fn random_faults(g: &Etpn, seed: u64, n: usize, max_step: u64) -> Vec<Fault> {
        let ports: Vec<PortId> = g.dp.ports().ids().collect();
        let places: Vec<PlaceId> = g.ctl.places().ids().collect();
        if ports.is_empty() {
            return Vec::new();
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let step = rng.gen_range(0..max_step.max(1));
                if !places.is_empty() && rng.gen_bool(0.2) {
                    Fault {
                        site: FaultSite::Place(places[rng.gen_range(0..places.len())]),
                        kind: if rng.gen_bool(0.5) {
                            FaultKind::TokenLoss
                        } else {
                            FaultKind::TokenDup
                        },
                        window: FaultWindow::Transient(step),
                    }
                } else {
                    let kind = match rng.gen_range(0..3u32) {
                        0 => FaultKind::StuckAt0,
                        1 => FaultKind::StuckAt1,
                        _ => FaultKind::BitFlip(rng.gen_range(0..16u32)),
                    };
                    Fault {
                        site: FaultSite::Port(ports[rng.gen_range(0..ports.len())]),
                        kind,
                        window: if rng.gen_bool(0.5) {
                            FaultWindow::Transient(step)
                        } else {
                            FaultWindow::Permanent(step)
                        },
                    }
                }
            })
            .collect()
    }
}

/// The observable effect of one injected fault, relative to the golden run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultClass {
    /// The external event structure is unchanged: the fault was absorbed.
    Masked,
    /// The run completed normally but the environment saw different
    /// events — the dangerous case (SDC).
    SilentCorruption,
    /// The run aborted with a diagnosable [`SimError`]: a Def. 3.2 runtime
    /// monitor fired (unsafe marking, input conflict, combinational loop),
    /// or the job panicked / ran an input dry and the fleet contained it.
    Detected,
    /// The run was cut short or stuck: deadlock, step limit, or wall-clock
    /// budget (and the golden run was not).
    Hang,
}

impl FaultClass {
    /// All classes, in report order.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::Masked,
        FaultClass::SilentCorruption,
        FaultClass::Detected,
        FaultClass::Hang,
    ];
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultClass::Masked => write!(f, "masked"),
            FaultClass::SilentCorruption => write!(f, "sdc"),
            FaultClass::Detected => write!(f, "detected"),
            FaultClass::Hang => write!(f, "hang"),
        }
    }
}

/// One fault's campaign verdict.
#[derive(Clone, Debug)]
pub struct FaultOutcome {
    /// The injected fault.
    pub fault: Fault,
    /// Its classification.
    pub class: FaultClass,
    /// Supporting detail: the first event difference, the error
    /// description, or the hang termination.
    pub detail: String,
    /// Divergence forensics: the first step at which the faulty
    /// trajectory departed from the golden one, with the causal slice of
    /// the divergent decision. Populated for non-masked outcomes whose
    /// run completed when [`CampaignConfig::forensics`] is set; `None`
    /// for masked faults (no divergence to find), detected faults (the
    /// run aborted), or when the recordings happen to agree (e.g. the
    /// fault only perturbed post-journal behaviour).
    pub divergence: Option<DivergenceReport>,
}

/// Knobs of a [`run_campaign`] sweep.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Data-fault kinds swept over every port.
    pub kinds: Vec<FaultKind>,
    /// Also sweep token loss/duplication over every control place.
    pub include_control: bool,
    /// Strike step for transient faults (bit flips, token faults).
    pub transient_step: u64,
    /// Flight-record the golden run and every faulty job, and bisect each
    /// non-masked completed outcome against the golden recording to its
    /// first divergent step and causal slice
    /// ([`FaultOutcome::divergence`]). On by default: the recordings are
    /// full-journal (time and space linear in trace length), but each
    /// faulty journal is bisected on its worker thread and dropped as
    /// soon as its report exists, so the campaign holds at most one
    /// faulty journal per fleet worker — plus the golden one — at any
    /// moment, not one per planned fault.
    pub forensics: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            kinds: vec![
                FaultKind::StuckAt0,
                FaultKind::StuckAt1,
                FaultKind::BitFlip(0),
            ],
            include_control: false,
            transient_step: 1,
            forensics: true,
        }
    }
}

/// The resilience report of one campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// One verdict per planned fault, in sweep order.
    pub outcomes: Vec<FaultOutcome>,
    /// How the golden run ended.
    pub golden_termination: Termination,
    /// External events of the golden run.
    pub golden_events: usize,
    /// The golden run re-executed after the sweep produced the identical
    /// event structure — i.e. no faulty job leaked state into the clean
    /// path.
    pub golden_unchanged: bool,
    /// Fleet scheduling/panic counters for the faulty batch.
    pub fleet: FleetStats,
    /// Coverage merged over the golden run and every faulty job, when the
    /// prototype job's [`RunSpec::coverage`](crate::RunSpec::coverage) was
    /// set.
    pub coverage: Option<CovDb>,
    planned: usize,
}

impl CampaignReport {
    /// Number of faults classified as `class`.
    pub fn count(&self, class: FaultClass) -> usize {
        self.outcomes.iter().filter(|o| o.class == class).count()
    }

    /// The masked/SDC/detected/hang partition is *total*: every planned
    /// fault got exactly one class and none was dropped. A `false` here
    /// means a campaign abort.
    pub fn is_total_partition(&self) -> bool {
        self.outcomes.len() == self.planned
            && FaultClass::ALL
                .iter()
                .map(|&c| self.count(c))
                .sum::<usize>()
                == self.planned
    }

    /// Silent corruptions per data-path vertex (raw-vertex-id indexed):
    /// the vulnerability profile. A vertex scores once for each of its
    /// ports' faults that corrupted the output without being detected.
    pub fn sdc_by_vertex(&self, g: &Etpn) -> Vec<u64> {
        let mut counts = vec![0u64; g.dp.vertices().capacity_bound()];
        for o in &self.outcomes {
            if o.class != FaultClass::SilentCorruption {
                continue;
            }
            if let FaultSite::Port(p) = o.fault.site {
                if let Some(port) = g.dp.ports().get(p) {
                    counts[port.vertex.idx()] += 1;
                }
            }
        }
        counts
    }

    /// The vulnerability map as a heat-graded DOT graph (white = no SDC,
    /// deep red = most SDC-prone vertex), companion to `dot --heat`.
    pub fn vulnerability_dot(&self, g: &Etpn) -> String {
        datapath_dot_heat(
            g,
            &DataHeat {
                vertex_counts: &self.sdc_by_vertex(g),
            },
        )
    }

    /// Multi-line human-readable resilience report.
    pub fn summary(&self, g: &Etpn) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fault campaign: {} faults, golden {:?} with {} events",
            self.planned, self.golden_termination, self.golden_events
        );
        for class in FaultClass::ALL {
            let _ = writeln!(s, "  {class:<8} {}", self.count(class));
        }
        let _ = writeln!(
            s,
            "  partition total: {}",
            if self.is_total_partition() {
                "yes"
            } else {
                "NO"
            }
        );
        let _ = writeln!(
            s,
            "  golden unchanged: {}",
            if self.golden_unchanged { "yes" } else { "NO" }
        );
        let sdc: Vec<&FaultOutcome> = self
            .outcomes
            .iter()
            .filter(|o| o.class == FaultClass::SilentCorruption)
            .collect();
        if !sdc.is_empty() {
            let _ = writeln!(
                s,
                "  silent corruptions (worst first {} shown):",
                sdc.len().min(10)
            );
            for o in sdc.iter().take(10) {
                let _ = writeln!(s, "    {} — {}", o.fault.describe(g), o.detail);
                if let Some(rep) = &o.divergence {
                    let _ = writeln!(
                        s,
                        "      first divergence at step {} ({})",
                        rep.divergence.step, rep.divergence.reason
                    );
                }
            }
        }
        if self.fleet.panics > 0 {
            let _ = writeln!(
                s,
                "  contained panics: {} ({} retried)",
                self.fleet.panics, self.fleet.retried
            );
        }
        s
    }
}

/// Per-job verdict computed on a fleet worker: class, supporting detail,
/// and the (already bisected) divergence report.
type JobVerdict = (FaultClass, String, Option<DivergenceReport>);

/// Classify one faulty result against the golden event structure.
fn classify(
    g: &Etpn,
    golden: &EventStructure,
    golden_termination: Termination,
    result: &Result<Trace, SimError>,
) -> (FaultClass, String) {
    match result {
        Err(e) => (FaultClass::Detected, e.describe(g)),
        Ok(t) if t.termination.is_hang() && !golden_termination.is_hang() => (
            FaultClass::Hang,
            format!("{:?} after {} steps", t.termination, t.steps),
        ),
        Ok(t) => match golden.first_difference(&event_structure(g, t)) {
            None => (FaultClass::Masked, String::new()),
            Some(d) => (FaultClass::SilentCorruption, d.to_string()),
        },
    }
}

/// Run a one-fault-per-job campaign on `fleet`: the golden run (on the
/// calling thread), then every planned fault as a fleet job, then the
/// golden run once more to prove the clean path is unperturbed.
///
/// `proto` is the job template: every run takes its settings from
/// `proto.spec`, and the sweep only adds the fault plan (plus a recording
/// under [`CampaignConfig::forensics`]). The spec's wall-clock budget
/// bounds the golden run and each faulty job; overruns classify as
/// [`FaultClass::Hang`]. With coverage on, the golden and faulty DBs merge
/// into [`CampaignReport::coverage`]: a campaign exercises the design
/// under every single-fault perturbation, so that is a cheap upper-bound
/// probe of reachable-but-untested behaviour. The fleet supplies workers,
/// retries and an optional absolute deadline
/// ([`Fleet::with_deadline_at`]), under which jobs cut short also
/// classify as hangs.
pub fn run_campaign<'g, E>(
    proto: &SimJob<'g, E>,
    cfg: &CampaignConfig,
    fleet: &Fleet,
) -> Result<CampaignReport, SimError>
where
    E: Environment + Clone + Send,
{
    let _span = obs::span("fault.campaign");
    let g = proto.design();
    let mut instrumented = proto.clone();
    if cfg.forensics {
        // Full-journal recordings: forensics must reach back to step 0
        // regardless of trace length, so no ring eviction here.
        instrumented.spec.record = Some(RecordConfig::full(256));
    }
    let golden_trace = instrumented.clone().run()?;
    let golden_es = event_structure(g, &golden_trace);

    let mut faults = FaultPlan::sweep_data_ports(g, &cfg.kinds, cfg.transient_step);
    if cfg.include_control {
        faults.extend(FaultPlan::sweep_control_places(g, cfg.transient_step));
    }
    let planned = faults.len();

    let jobs: Vec<SimJob<'g, E>> = faults
        .iter()
        .map(|&f| {
            let mut j = instrumented.clone();
            j.spec.faults = Some(FaultPlan::single(f));
            j
        })
        .collect();
    // Classify and bisect on the worker threads, per job as it finishes:
    // each faulty journal is dropped the moment its divergence report
    // exists, so the batch retains at most one full journal per worker
    // (plus the golden one) rather than one per planned fault.
    let golden_rec: Option<&Recording> = golden_trace.recording.as_ref();
    let golden_termination = golden_trace.termination;
    let verdicts: Vec<Mutex<Option<JobVerdict>>> =
        (0..jobs.len()).map(|_| Mutex::new(None)).collect();
    let batch = fleet.run_batch_with(jobs, |idx, result| {
        let (class, detail) = classify(g, &golden_es, golden_termination, result);
        // Forensics: bisect the faulty recording against the golden
        // one. Masked faults have nothing to explain; detected runs
        // aborted before yielding a trace.
        let divergence = match (golden_rec, &mut *result) {
            (Some(gr), Ok(t)) if class != FaultClass::Masked => t
                .recording
                .take()
                .and_then(|fr| DivergenceReport::between(g, gr, &fr).ok().flatten()),
            _ => None,
        };
        if let Ok(t) = result {
            // Masked journals explain nothing; drop them too.
            t.recording = None;
        }
        *lock_recover(&verdicts[idx]) = Some((class, detail, divergence));
    });

    let outcomes: Vec<FaultOutcome> = faults
        .into_iter()
        .zip(verdicts)
        .map(|(fault, verdict)| {
            let (class, detail, divergence) = verdict
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("the post hook ran for every job");
            FaultOutcome {
                fault,
                class,
                detail,
                divergence,
            }
        })
        .collect();

    // Prove the clean path unperturbed: the golden run, repeated after the
    // sweep, must reproduce the identical observation.
    let golden_again = proto.clone().run()?;
    let golden_unchanged = golden_again.termination == golden_trace.termination
        && golden_es
            .first_difference(&event_structure(g, &golden_again))
            .is_none();

    // Campaign coverage: the golden DB merged with the faulty batch's.
    let coverage = match (golden_trace.cov.clone(), batch.coverage) {
        (Some(mut db), faulty) => {
            if let Some(f) = &faulty {
                let _ = db.merge(f);
            }
            Some(db)
        }
        (None, faulty) => faulty,
    };
    let report = CampaignReport {
        outcomes,
        golden_termination: golden_trace.termination,
        golden_events: golden_trace.event_count(),
        golden_unchanged,
        fleet: batch.stats,
        coverage,
        planned,
    };
    let reg = obs::global();
    reg.counter("fault.campaign.runs").inc();
    reg.counter("fault.campaign.faults").add(planned as u64);
    reg.counter("fault.campaign.masked")
        .add(report.count(FaultClass::Masked) as u64);
    reg.counter("fault.campaign.sdc")
        .add(report.count(FaultClass::SilentCorruption) as u64);
    reg.counter("fault.campaign.detected")
        .add(report.count(FaultClass::Detected) as u64);
    reg.counter("fault.campaign.hangs")
        .add(report.count(FaultClass::Hang) as u64);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::env::ScriptedEnv;
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

    fn env_ab(a: i64, b: i64) -> ScriptedEnv {
        ScriptedEnv::new()
            .with_stream("a", [a])
            .with_stream("b", [b])
    }

    /// The campaign prototype: a default job with a 20-step budget.
    fn proto_job(g: &Etpn) -> SimJob<'_> {
        let mut proto = SimJob::new(g, env_ab(3, 4));
        proto.spec.max_steps = 20;
        proto
    }

    #[test]
    fn kinds_and_windows() {
        assert_eq!(FaultKind::StuckAt0.apply(Value::Def(41)), Value::Def(0));
        assert_eq!(FaultKind::StuckAt1.apply(Value::Undef), Value::Def(1));
        assert_eq!(FaultKind::BitFlip(0).apply(Value::Def(6)), Value::Def(7));
        assert_eq!(FaultKind::BitFlip(3).apply(Value::Undef), Value::Undef);
        assert!(FaultWindow::Transient(4).active_at(4));
        assert!(!FaultWindow::Transient(4).active_at(5));
        assert!(FaultWindow::Permanent(4).active_at(9));
        assert!(!FaultWindow::Permanent(4).active_at(3));
    }

    #[test]
    fn stuck_at_fault_corrupts_the_output() {
        let g = add_once();
        let x_out = g.dp.vertex(g.dp.vertex_by_name("a").unwrap()).outputs[0];
        let fault = Fault {
            site: FaultSite::Port(x_out),
            kind: FaultKind::StuckAt0,
            window: FaultWindow::Permanent(0),
        };
        let t = Simulator::new(&g, env_ab(3, 4))
            .with_faults(FaultPlan::single(fault))
            .run(10)
            .unwrap();
        assert_eq!(t.values_on_named_output(&g, "y"), vec![4], "a forced to 0");
        assert!(fault.describe(&g).contains("`a`"), "{}", fault.describe(&g));
    }

    #[test]
    fn transient_fault_outside_its_window_is_absorbed() {
        let g = add_once();
        let x_out = g.dp.vertex(g.dp.vertex_by_name("a").unwrap()).outputs[0];
        // The load happens at step 0; a flip at step 99 never strikes.
        let fault = Fault {
            site: FaultSite::Port(x_out),
            kind: FaultKind::BitFlip(0),
            window: FaultWindow::Transient(99),
        };
        let t = Simulator::new(&g, env_ab(3, 4))
            .with_faults(FaultPlan::single(fault))
            .run(10)
            .unwrap();
        assert_eq!(t.values_on_named_output(&g, "y"), vec![7]);
    }

    #[test]
    fn token_loss_deadlocks_a_join() {
        // t requires tokens in both s0 and s1; losing s1's token at step 0
        // leaves the net structurally stuck.
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
        b.mark(s1);
        let g = b.finish().unwrap();
        let fault = Fault {
            site: FaultSite::Place(s1),
            kind: FaultKind::TokenLoss,
            window: FaultWindow::Transient(0),
        };
        let t = Simulator::new(&g, ScriptedEnv::new())
            .with_faults(FaultPlan::single(fault))
            .run(10)
            .unwrap();
        assert_eq!(t.termination, Termination::Deadlock);
        assert!(t.termination.is_hang());
        // Without the fault the join fires and the run terminates.
        let clean = Simulator::new(&g, ScriptedEnv::new()).run(10).unwrap();
        assert_eq!(clean.termination, Termination::Terminated);
    }

    #[test]
    fn token_duplication_trips_the_safeness_monitor() {
        let g = add_once();
        let s0 = g.ctl.place_by_name("s0").unwrap();
        let fault = Fault {
            site: FaultSite::Place(s0),
            kind: FaultKind::TokenDup,
            window: FaultWindow::Transient(0),
        };
        let err = Simulator::new(&g, env_ab(1, 2))
            .with_faults(FaultPlan::single(fault))
            .run(10)
            .unwrap_err();
        assert!(matches!(err, SimError::UnsafeMarking { .. }), "{err}");
        assert!(err.is_monitor_trip(), "Def 3.2 monitor acts as detector");
    }

    #[test]
    fn sweep_enumerates_every_port_and_kind() {
        let g = add_once();
        let kinds = [
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::BitFlip(0),
        ];
        let faults = FaultPlan::sweep_data_ports(&g, &kinds, 1);
        assert_eq!(faults.len(), g.dp.ports().len() * kinds.len());
        // Every port is covered by every kind.
        for p in g.dp.ports().ids() {
            for &k in &kinds {
                assert!(faults
                    .iter()
                    .any(|f| f.site == FaultSite::Port(p) && f.kind == k));
            }
        }
        let ctl = FaultPlan::sweep_control_places(&g, 0);
        assert_eq!(ctl.len(), g.ctl.places().len() * 2);
    }

    #[test]
    fn random_faults_are_seed_deterministic() {
        let g = add_once();
        let a = FaultPlan::random_faults(&g, 42, 20, 10);
        let b = FaultPlan::random_faults(&g, 42, 20, 10);
        let c = FaultPlan::random_faults(&g, 43, 20, 10);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seed, different faults");
        assert_eq!(a.len(), 20);
    }

    /// A stuck-at fault forces its value on the faulty run, and clean runs
    /// before and after it are unaffected.
    #[test]
    fn faulty_runs_leave_clean_runs_unchanged() {
        let g = add_once();
        let clean_before = SimJob::new(&g, env_ab(3, 4)).run().unwrap();

        let x_out = g.dp.vertex(g.dp.vertex_by_name("a").unwrap()).outputs[0];
        let fault = Fault {
            site: FaultSite::Port(x_out),
            kind: FaultKind::StuckAt0,
            window: FaultWindow::Permanent(0),
        };
        let mut faulty = SimJob::new(&g, env_ab(3, 4));
        faulty.spec.faults = Some(FaultPlan::single(fault));
        let faulty = faulty.run().unwrap();
        assert_eq!(faulty.values_on_named_output(&g, "y"), vec![4]);

        let clean_after = SimJob::new(&g, env_ab(3, 4)).run().unwrap();
        assert_eq!(
            clean_after.values_on_named_output(&g, "y"),
            clean_before.values_on_named_output(&g, "y")
        );
        assert_eq!(clean_after.values_on_named_output(&g, "y"), vec![7]);
    }

    #[test]
    fn campaign_partitions_every_fault() {
        let g = add_once();
        let proto = proto_job(&g);
        let cfg = CampaignConfig {
            include_control: true,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&proto, &cfg, &Fleet::new(2)).unwrap();
        let expected = g.dp.ports().len() * 3 + g.ctl.places().len() * 2;
        assert_eq!(report.outcomes.len(), expected);
        assert!(report.is_total_partition(), "{}", report.summary(&g));
        assert!(report.golden_unchanged, "{}", report.summary(&g));
        assert_eq!(report.golden_termination, Termination::Terminated);
        // Stuck-at-0 on the adder output must corrupt y (3+4=7 ≠ 0), and
        // token duplication must trip the safeness monitor.
        assert!(report.count(FaultClass::SilentCorruption) > 0);
        assert!(report.count(FaultClass::Detected) > 0);
        assert!(report.count(FaultClass::Masked) > 0);
        // The summary mentions every class.
        let summary = report.summary(&g);
        for class in FaultClass::ALL {
            assert!(summary.contains(&class.to_string()), "{summary}");
        }
    }

    #[test]
    fn forensics_locates_first_divergence_of_sdc_faults() {
        let g = add_once();
        let proto = proto_job(&g);
        let fleet = Fleet::new(0);
        let report = run_campaign(&proto, &CampaignConfig::default(), &fleet).unwrap();
        let sdc: Vec<&FaultOutcome> = report
            .outcomes
            .iter()
            .filter(|o| o.class == FaultClass::SilentCorruption)
            .collect();
        assert!(!sdc.is_empty());
        for o in &sdc {
            let rep = o
                .divergence
                .as_ref()
                .expect("forensics is on by default, every SDC outcome is bisected");
            // A permanent stuck-at strikes from step 0: the divergence must
            // lie within the run, and its cone must not be empty.
            assert!(rep.divergence.step <= 20, "{:?}", rep.divergence);
            assert!(
                !rep.slice.ports.is_empty() || !rep.slice.transitions.is_empty(),
                "causal slice is non-trivial: {:?}",
                rep.slice
            );
        }
        // Masked faults have no divergence to report.
        for o in &report.outcomes {
            if o.class == FaultClass::Masked {
                assert!(o.divergence.is_none());
            }
        }
        assert!(report.summary(&g).contains("first divergence at step"));

        // Forensics off: no recordings, no divergence reports.
        let plain = run_campaign(
            &proto,
            &CampaignConfig {
                forensics: false,
                ..CampaignConfig::default()
            },
            &fleet,
        )
        .unwrap();
        assert!(plain.outcomes.iter().all(|o| o.divergence.is_none()));
    }

    #[test]
    fn vulnerability_map_scores_sdc_vertices() {
        let g = add_once();
        let proto = proto_job(&g);
        let report = run_campaign(&proto, &CampaignConfig::default(), &Fleet::new(0)).unwrap();
        let heat = report.sdc_by_vertex(&g);
        assert_eq!(heat.len(), g.dp.vertices().capacity_bound());
        assert!(
            heat.iter().sum::<u64>() > 0,
            "some vertex must be SDC-prone"
        );
        let dot = report.vulnerability_dot(&g);
        assert!(dot.starts_with("digraph datapath"));
        assert!(dot.contains("reds9"), "heat grading present:\n{dot}");
    }
}
