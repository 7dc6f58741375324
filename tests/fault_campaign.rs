//! End-to-end fault-injection campaigns through the public facade.
//!
//! The acceptance bar of the fault-injection PR: a *full* single-fault
//! sweep (every data-path port × stuck-at-0/1/bit-flip, every control
//! place × token loss/duplication) over both the GCD and the differential
//! equation workloads must complete with **zero campaign aborts** — every
//! fault classified exactly once, every injected failure contained inside
//! its own job, and the golden run byte-identical after the sweep.

use etpn::core::{Value, VertexId};
use etpn::sim::{
    run_campaign, CampaignConfig, Environment, FaultClass, Fleet, RetryPolicy, RunSpec, SimError,
    SimJob, Termination,
};
use etpn::workloads::by_name;
use std::time::Duration;

fn sweep(
    workload: &str,
    include_control: bool,
) -> (etpn::synth::CompiledDesign, etpn::sim::CampaignReport) {
    let w = by_name(workload).expect("workload exists");
    let d = etpn::synth::compile_source(&w.source).expect("workload compiles");
    let spec = RunSpec {
        max_steps: w.max_steps,
        registers: d.reg_inits.clone(),
        ..RunSpec::default()
    };
    let proto = SimJob::from_spec(&d.etpn, w.env(), spec);
    let cfg = CampaignConfig {
        include_control,
        ..CampaignConfig::default()
    };
    let report = run_campaign(&proto, &cfg, &Fleet::new(4)).expect("golden run succeeds");
    (d, report)
}

/// The full gcd sweep: data and control faults, no aborts, total
/// partition, clean path untouched, at least one of every outcome the
/// design can produce (control-token loss must hang a sequential design).
#[test]
fn gcd_full_sweep_has_no_campaign_aborts() {
    let (d, report) = sweep("gcd", true);
    assert!(!report.outcomes.is_empty());
    assert!(report.is_total_partition(), "{}", report.summary(&d.etpn));
    assert!(
        report.golden_unchanged,
        "injection leaked into the clean path"
    );
    assert_eq!(report.fleet.panics, 0, "a job escaped containment");
    assert!(report.golden_termination == Termination::Terminated);
    assert!(report.count(FaultClass::Masked) > 0);
    assert!(report.count(FaultClass::SilentCorruption) > 0);
    assert!(
        report.count(FaultClass::Hang) > 0,
        "token loss should hang gcd"
    );
    let total: usize = [
        FaultClass::Masked,
        FaultClass::SilentCorruption,
        FaultClass::Detected,
        FaultClass::Hang,
    ]
    .iter()
    .map(|&c| report.count(c))
    .sum();
    assert_eq!(total, report.outcomes.len());
}

/// Same bar for the diffeq workload (larger data path, multiplier-heavy).
#[test]
fn diffeq_full_sweep_has_no_campaign_aborts() {
    let (d, report) = sweep("diffeq", true);
    assert!(!report.outcomes.is_empty());
    assert!(report.is_total_partition(), "{}", report.summary(&d.etpn));
    assert!(report.golden_unchanged);
    assert_eq!(report.fleet.panics, 0);
}

/// The vulnerability map renders a valid heat DOT naming the sdc counts.
#[test]
fn gcd_vulnerability_map_is_renderable() {
    let (d, report) = sweep("gcd", false);
    let dot = report.vulnerability_dot(&d.etpn);
    assert!(dot.starts_with("digraph datapath {"), "{dot}");
    if report.count(FaultClass::SilentCorruption) > 0 {
        assert!(
            dot.contains("reds9"),
            "sdc heat should colour a vertex:\n{dot}"
        );
    }
}

/// An environment that detonates on its first read: the fleet must contain
/// the panic inside the job, burn the bounded retry budget, and surface
/// `SimError::Panicked` — never abort the batch or poison its neighbours.
#[derive(Clone)]
enum BombEnv {
    Healthy(etpn::sim::ScriptedEnv),
    Bomb,
}

impl Environment for BombEnv {
    fn value_at(&self, input: VertexId, name: &str, k: u64) -> Value {
        match self {
            BombEnv::Healthy(env) => env.value_at(input, name, k),
            BombEnv::Bomb => panic!("injected environment panic"),
        }
    }
    fn fingerprint(&self) -> Option<u64> {
        match self {
            BombEnv::Healthy(env) => env.fingerprint(),
            BombEnv::Bomb => None,
        }
    }
}

#[test]
fn environment_panics_are_contained_per_job() {
    let w = by_name("gcd").expect("gcd exists");
    let d = etpn::synth::compile_source(&w.source).expect("gcd compiles");
    let spec = RunSpec {
        max_steps: w.max_steps,
        registers: d.reg_inits.clone(),
        ..RunSpec::default()
    };
    let job = |env: BombEnv| SimJob::from_spec(&d.etpn, env, spec.clone());
    let jobs = vec![
        job(BombEnv::Healthy(w.env())),
        job(BombEnv::Bomb),
        job(BombEnv::Healthy(w.env())),
    ];
    let batch = Fleet::new(2)
        .with_retry_policy(RetryPolicy::immediate(2))
        .run_batch(jobs);
    assert_eq!(
        batch.stats.panics, 4,
        "initial attempt + interpreter fallback + 2 retries"
    );
    assert_eq!(batch.stats.fallbacks, 1);
    assert!(batch.results[0].is_ok(), "healthy neighbour survives");
    assert!(batch.results[2].is_ok(), "healthy neighbour survives");
    match &batch.results[1] {
        Err(SimError::Panicked { message, retries }) => {
            assert!(message.contains("injected environment panic"), "{message}");
            assert_eq!(*retries, 2);
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }
}

/// A golden run that panics through its retries ends the campaign with
/// `SimError::Panicked` instead of unwinding into the caller.
#[test]
fn a_panicking_golden_run_is_contained() {
    let w = by_name("gcd").expect("gcd exists");
    let d = etpn::synth::compile_source(&w.source).expect("gcd compiles");
    let proto = SimJob::from_spec(&d.etpn, BombEnv::Bomb, RunSpec::default());
    let fleet = Fleet::new(1).with_retry_policy(RetryPolicy::immediate(1));
    match run_campaign(&proto, &CampaignConfig::default(), &fleet) {
        Err(SimError::Panicked { message, retries }) => {
            assert!(message.contains("injected environment panic"), "{message}");
            assert_eq!(retries, 1);
        }
        Err(e) => panic!("expected a contained golden-run panic, got {e:?}"),
        Ok(_) => panic!("a golden run that always panics cannot complete"),
    }
}

/// A zero wall-clock budget cuts the run with `Termination::Budget` — the
/// hang-mitigation path campaigns rely on for runaway faulty jobs.
#[test]
fn wall_budget_truncates_a_run() {
    let w = by_name("gcd").expect("gcd exists");
    let d = etpn::synth::compile_source(&w.source).expect("gcd compiles");
    let mut sim = etpn::sim::Simulator::new(&d.etpn, w.env());
    for (n, v) in &d.reg_inits {
        sim = sim.init_register(n, *v);
    }
    let trace = sim
        .with_wall_budget(Duration::ZERO)
        .run(w.max_steps)
        .expect("budget truncation is not an error");
    assert_eq!(trace.termination, Termination::Budget);
    assert!(trace.termination.is_hang());
}
