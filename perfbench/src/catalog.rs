//! The eight catalogue designs on their representative inputs, with the
//! reference outputs every run is checked against, plus the per-layer
//! probes of the front end, synthesis, single jobs, coverage and lint.

use crate::stats::{mean, median, micros, Metric, Pass};
use etpn_cov::CovDb;
use etpn_sim::{Backend, FiringPolicy, Simulator, Trace};
use etpn_synth::CompiledDesign;
use etpn_workloads::Workload;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One catalogue design, compiled, with its reference outputs.
pub struct Entry {
    pub w: Workload,
    pub d: CompiledDesign,
    /// `Workload::expected()`: the independent AST interpreter's outputs.
    pub expected: BTreeMap<String, Vec<i64>>,
}

impl Entry {
    /// Every expected output stream matches the trace.
    pub fn outputs_match(&self, t: &Trace) -> bool {
        self.expected
            .iter()
            .all(|(name, want)| &t.values_on_named_output(&self.d.etpn, name) == want)
    }
}

/// Compile every catalogue source and lower it to the compiled engine's
/// tables: what a caller pays before the first simulation.
pub fn compile_all() -> Vec<(Workload, CompiledDesign)> {
    etpn_workloads::catalog()
        .into_iter()
        .map(|w| {
            let d = etpn_synth::compile_source(&w.source).expect("catalogue designs compile");
            black_box(etpn_sim::CompiledDesign::compile(&d.etpn));
            (w, d)
        })
        .collect()
}

/// Attach reference outputs. With `corrupt`, one expected value of the
/// first design is altered, which the correctness gate must catch.
pub fn with_expected(designs: Vec<(Workload, CompiledDesign)>, corrupt: bool) -> Vec<Entry> {
    let mut entries: Vec<Entry> = designs
        .into_iter()
        .map(|(w, d)| Entry {
            expected: w.expected().into_iter().collect(),
            w,
            d,
        })
        .collect();
    if corrupt {
        if let Some(v) = entries[0].expected.values_mut().next() {
            match v.first_mut() {
                Some(x) => *x += 1,
                None => v.push(1),
            }
        }
    }
    entries
}

/// A simulator for one catalogue job, configured the way `SimJob` does.
pub fn job_sim(e: &Entry, policy: FiringPolicy) -> Simulator<'_, etpn_sim::ScriptedEnv> {
    let mut s = Simulator::new(&e.d.etpn, e.w.env())
        .with_backend(Backend::Compiled)
        .with_policy(policy);
    for (n, v) in &e.d.reg_inits {
        s = s.init_register(n, *v);
    }
    s
}

/// Median over `reps` of the mean per-design time of `f`, in µs.
fn per_design_us(entries: &[Entry], reps: usize, mut f: impl FnMut(usize, &Entry)) -> f64 {
    let mut per_rep: Vec<f64> = (0..reps)
        .map(|_| {
            let times: Vec<f64> = entries
                .iter()
                .enumerate()
                .map(|(k, e)| {
                    let t0 = Instant::now();
                    f(k, e);
                    micros(t0.elapsed())
                })
                .collect();
            mean(&times)
        })
        .collect();
    median(&mut per_rep)
}

/// Front end, synthesis, single-job, coverage-merge and lint probes over
/// the catalogue (each a mean per design, median over repetitions).
pub fn layer_probes(entries: &[Entry], pass: &mut Pass) {
    let parse = per_design_us(entries, 15, |_, e| {
        black_box(etpn_lang::parse_and_check(&e.w.source).expect("catalogue parses"));
    });
    let programs: Vec<_> = entries.iter().map(|e| e.w.program()).collect();
    let compile = per_design_us(entries, 15, |k, _| {
        black_box(etpn_synth::compile(&programs[k]).expect("catalogue designs compile"));
    });

    // One sequential MaximalStep job per design: set-up (simulator
    // construction on the cached compiled tables) and the run itself.
    let mut setup = Vec::new();
    let mut run = Vec::new();
    for _ in 0..15 {
        let mut s_rep = Vec::new();
        let mut r_rep = Vec::new();
        for e in entries {
            let t0 = Instant::now();
            let s = job_sim(e, FiringPolicy::MaximalStep);
            let t1 = Instant::now();
            let ok = s.run(e.w.max_steps).is_ok_and(|t| e.outputs_match(&t));
            r_rep.push(micros(t1.elapsed()));
            s_rep.push(micros(t1 - t0));
            pass.check(ok);
        }
        setup.push(mean(&s_rep));
        run.push(mean(&r_rep));
    }

    // Coverage merge: one run's DB into the design's accumulated DB.
    let mut merges = Vec::new();
    for e in entries {
        let dbs: Vec<CovDb> = (0..8)
            .filter_map(|seed| {
                job_sim(e, FiringPolicy::RandomMaximal { seed })
                    .with_coverage()
                    .run(e.w.max_steps)
                    .ok()
                    .and_then(|t| t.cov)
            })
            .collect();
        pass.check(dbs.len() == 8);
        let Some(mut acc) = dbs.first().cloned() else {
            continue;
        };
        for db in &dbs {
            let t0 = Instant::now();
            let ok = acc.merge(db).is_ok();
            merges.push(micros(t0.elapsed()));
            pass.check(ok);
        }
    }

    let lint = per_design_us(entries, 3, |_, e| {
        black_box(etpn_lint::lint_compiled(
            &e.d,
            &etpn_lint::LintConfig::default(),
        ));
    });

    pass.layers.extend([
        Metric::new("lang.parse_check_us", parse, "us"),
        Metric::new("synth.compile_us", compile, "us"),
        Metric::new("sim.job_setup_us", median(&mut setup), "us"),
        Metric::new("sim.job_run_us", median(&mut run), "us"),
        Metric::new("cov.merge_us", median(&mut merges), "us"),
        Metric::new("lint.us", lint, "us"),
    ]);
}
