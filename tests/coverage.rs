//! Integration tests for the functional-coverage subsystem: worker-count
//! invariance of merged fleet coverage, saturation convergence, campaign
//! coverage, and the byte-stable golden VCD of the GCD example.

use etpn_cov::{report, CovDb, StaticDead};
use etpn_sim::{
    vcd, FiringPolicy, Fleet, RunSpec, SaturationConfig, ScriptedEnv, SimJob, Simulator,
};
use etpn_synth::CompiledDesign;

const GCD_SRC: &str = include_str!("../examples/gcd.hdl");

fn gcd() -> CompiledDesign {
    etpn_synth::compile_source(GCD_SRC).unwrap()
}

fn gcd_env(a: i64, b: i64) -> ScriptedEnv {
    ScriptedEnv::new()
        .with_stream("a", [a])
        .with_stream("b", [b])
}

/// The seed → policy mapping `etpnc cov` uses.
fn policy_of(seed: u64) -> FiringPolicy {
    FiringPolicy::for_seed(seed)
}

/// A 5 000-step job under seed `seed`'s policy.
fn seed_job(d: &CompiledDesign, env: ScriptedEnv, seed: u64) -> SimJob<'_> {
    let spec = RunSpec {
        policy: policy_of(seed),
        max_steps: 5_000,
        ..RunSpec::default()
    };
    SimJob::from_spec(&d.etpn, env, spec)
}

fn seed_jobs(d: &CompiledDesign, seeds: std::ops::Range<u64>) -> Vec<SimJob<'_>> {
    seeds
        .map(|seed| {
            let mut job = seed_job(d, gcd_env(3528, 3780), seed);
            job.spec.coverage = true;
            job
        })
        .collect()
}

#[test]
fn merged_fleet_coverage_is_bit_identical_across_worker_counts() {
    let d = gcd();
    let merged: Vec<CovDb> = [1usize, 4, 8]
        .into_iter()
        .map(|workers| {
            Fleet::new(workers)
                .run_batch(seed_jobs(&d, 0..12))
                .coverage
                .expect("coverage-enabled jobs produce a merged DB")
        })
        .collect();
    // CovDb derives Eq: counters and bitsets must match word for word.
    assert_eq!(merged[0], merged[1], "1 vs 4 workers");
    assert_eq!(merged[1], merged[2], "4 vs 8 workers");
    assert_eq!(merged[0].runs, 12);
    assert_eq!(merged[0].signature(), merged[2].signature());
}

#[test]
fn merged_coverage_is_the_union_of_per_job_coverage() {
    let d = gcd();
    let batch = Fleet::new(4).run_batch(seed_jobs(&d, 0..6));
    let mut manual: Option<CovDb> = None;
    for trace in batch.results.iter().flatten() {
        let db = trace.cov.as_ref().expect("job collected coverage");
        match &mut manual {
            None => manual = Some(db.clone()),
            Some(acc) => acc.merge(db).unwrap(),
        }
    }
    assert_eq!(batch.coverage, manual);
}

#[test]
fn saturation_converges_and_covers_gcd_completely() {
    let d = gcd();
    let cfg = SaturationConfig {
        batch_size: 8,
        stable_batches: 3,
        max_batches: 64,
    };
    let outcome = Fleet::new(4).run_saturation(seed_job(&d, gcd_env(3528, 3780), 0), cfg);
    assert!(outcome.saturated, "gcd saturates well inside 64 batches");
    assert_eq!(outcome.failures, 0);
    assert_eq!(outcome.seeds_used.len() as u64, outcome.jobs);
    let db = outcome.coverage.expect("coverage collected");
    let (dead_p, dead_t) = etpn_lint::statically_dead(&d.etpn.ctl);
    let rep = report(
        &d.etpn,
        &db,
        &StaticDead::from_ids(&d.etpn, &dead_p, &dead_t),
    );
    assert_eq!(rep.places.pct(), 100.0, "{}", rep.text());
    assert_eq!(rep.transitions.pct(), 100.0, "{}", rep.text());
    assert_eq!(rep.arcs.pct(), 100.0, "{}", rep.text());
    assert_eq!(rep.guards.pct(), 100.0, "{}", rep.text());
    assert!(rep.meets(90.0));
}

#[test]
fn saturation_is_reproducible() {
    let d = gcd();
    let cfg = SaturationConfig {
        batch_size: 4,
        stable_batches: 2,
        max_batches: 32,
    };
    let run = || Fleet::new(2).run_saturation(seed_job(&d, gcd_env(12, 18), 0), cfg);
    let (a, b) = (run(), run());
    assert_eq!(a.seeds_used, b.seeds_used);
    assert_eq!(a.coverage, b.coverage);
    assert_eq!(a.batches, b.batches);
}

#[test]
fn fault_campaign_merges_golden_and_faulty_coverage() {
    use etpn_sim::{run_campaign, CampaignConfig, FaultKind};
    let d = gcd();
    let spec = RunSpec {
        max_steps: 2_000,
        coverage: true,
        wall_budget: Some(std::time::Duration::from_secs(5)),
        ..RunSpec::default()
    };
    let proto = SimJob::from_spec(&d.etpn, gcd_env(12, 18), spec.clone());
    let cfg = CampaignConfig {
        kinds: vec![FaultKind::StuckAt0],
        ..CampaignConfig::default()
    };
    let fleet = Fleet::new(4);
    let report = run_campaign(&proto, &cfg, &fleet).unwrap();
    let db = report.coverage.as_ref().expect("campaign coverage on");
    // Golden run + one faulty job per outcome, all merged.
    assert_eq!(db.runs, report.outcomes.len() as u64 + 1);
    assert!(report.golden_unchanged);
    // Without the flag no coverage is collected.
    let spec_off = RunSpec {
        coverage: false,
        ..spec
    };
    let proto_off = SimJob::from_spec(&d.etpn, gcd_env(12, 18), spec_off);
    assert!(run_campaign(&proto_off, &cfg, &fleet)
        .unwrap()
        .coverage
        .is_none());
}

#[test]
fn gcd_vcd_matches_golden_file() {
    let d = gcd();
    let trace = Simulator::new(&d.etpn, gcd_env(12, 18))
        .watch_registers()
        .watch_control()
        .run(100_000)
        .unwrap();
    let vcd = vcd::render(&d.etpn, &trace).expect("waveform captured");
    let golden = include_str!("golden/vcd/gcd.vcd");
    assert_eq!(
        vcd, golden,
        "VCD output drifted from tests/golden/vcd/gcd.vcd; if the change is \
         intentional, regenerate with: etpnc run examples/gcd.hdl \
         --set a=12 --set b=18 --vcd tests/golden/vcd/gcd.vcd"
    );
}
