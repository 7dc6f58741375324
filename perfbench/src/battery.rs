//! `battery`: repeated Def 3.2 policy batteries over all eight catalogue
//! designs. Each battery runs `MaximalStep` plus `RandomMaximal` and
//! `SingleRandom` under [`SEEDS`] seeds each, per design, as one `Fleet`
//! batch of `nproc` workers on the default compiled backend; every run's
//! external event structure is extracted and compared with the
//! `MaximalStep` reference. Many short runs on 5–51-place nets stress
//! per-job set-up, fleet dispatch and extraction/comparison.
//!
//! The operation is one battery: the answer to "is every design
//! policy-invariant?", as `etpnc run --jobs` and `/v1/check` give it.

use crate::catalog::{self, Entry};
use crate::stats::{mean, median, micros, secs, E2e, Metric, Op, Pass, Rng, Setups};
use crate::Cfg;
use etpn_core::EventStructure;
use etpn_sim::{compare_structures, event_structure, FiringPolicy, Fleet, SimJob};
use std::time::{Duration, Instant};

/// Seeds per randomized policy: 1 + 2·4 = 9 jobs per design, 72 per
/// battery.
const SEEDS: u64 = 4;

fn policies(rng: &mut Rng) -> Vec<FiringPolicy> {
    let base = rng.next_u64() >> 16;
    let mut p = vec![FiringPolicy::MaximalStep];
    for seed in base..base + SEEDS {
        p.push(FiringPolicy::RandomMaximal { seed });
        p.push(FiringPolicy::SingleRandom { seed });
    }
    p
}

fn jobs<'a>(entries: &'a [Entry], policies: &[FiringPolicy]) -> Vec<SimJob<'a>> {
    let mut jobs = Vec::with_capacity(entries.len() * policies.len());
    for e in entries {
        for &p in policies {
            let mut job = SimJob::new(&e.d.etpn, e.w.env())
                .with_policy(p)
                .max_steps(e.w.max_steps);
            for (n, v) in &e.d.reg_inits {
                job = job.init_register(n, *v);
            }
            jobs.push(job);
        }
    }
    jobs
}

/// Per-call timings collected by a traced pass.
#[derive(Default)]
struct Traced {
    batch_ms: Vec<f64>,
    extract_us: Vec<f64>,
    compare_us: Vec<f64>,
    efficiency: Vec<f64>,
    stolen: u64,
    jobs: u64,
    hit_rate: f64,
}

/// Time `f` into `sink` when tracing.
fn timed<T>(sink: Option<&mut Vec<f64>>, f: impl FnOnce() -> T) -> T {
    match sink {
        Some(v) => {
            let t0 = Instant::now();
            let out = f();
            v.push(micros(t0.elapsed()));
            out
        }
        None => f(),
    }
}

/// Run the workload for `seconds`.
pub fn pass(cfg: &Cfg, seconds: f64) -> Pass {
    let mut pass = Pass::default();
    let entries = catalog::with_expected(catalog::compile_all(), cfg.corrupt);
    let per_battery = policies(&mut Rng::new(0, 0)).len();
    let fleet = Fleet::new(cfg.nproc);
    let mut rng = Rng::new(cfg.seed, 1);
    let mut tr = Traced::default();

    // Untimed batteries fill the process-wide compiled-design cache and
    // let the host leave any idle state.
    let t_warm = Instant::now();
    while t_warm.elapsed() < Duration::from_millis(500) {
        fleet.run_batch(jobs(&entries, &policies(&mut rng)));
    }

    // Set-up: compile every catalogue source and lower it.
    let mut setups = Setups::new(5, catalog::compile_all);

    let budget = Duration::from_secs_f64(seconds);
    let mut ops: Vec<Op> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let pol = policies(&mut rng);
        let t0 = Instant::now();
        let batch = fleet.run_batch(jobs(&entries, &pol));
        if cfg.traced {
            tr.batch_ms.push(secs(t0.elapsed()) * 1e3);
        }
        let mut agree = vec![true; batch.results.len()];
        for (k, e) in entries.iter().enumerate() {
            let base = k * per_battery;
            let structure = |i: usize, sink: Option<&mut Vec<f64>>| -> Option<EventStructure> {
                let t = batch.results[i].as_ref().ok()?;
                Some(timed(sink, || event_structure(&e.d.etpn, t)))
            };
            let sink = cfg.traced.then_some(&mut tr.extract_us);
            let Some(reference) = structure(base, sink) else {
                continue;
            };
            for (i, ok) in agree
                .iter_mut()
                .enumerate()
                .skip(base + 1)
                .take(per_battery - 1)
            {
                let sink = cfg.traced.then_some(&mut tr.extract_us);
                *ok = match structure(i, sink) {
                    Some(s) => timed(cfg.traced.then_some(&mut tr.compare_us), || {
                        compare_structures(&reference, &s).is_equivalent()
                    }),
                    None => false,
                };
            }
        }
        let ms = secs(t0.elapsed()) * 1e3;

        // Outside the timed region: every run against the reference
        // interpreter's outputs, and its equivalence verdict.
        for (i, r) in batch.results.iter().enumerate() {
            let ok = r
                .as_ref()
                .is_ok_and(|t| entries[i / per_battery].outputs_match(t));
            pass.check(ok && agree[i]);
        }
        ops.push(Op {
            ms,
            steps: batch.results.iter().flatten().map(|t| t.steps).sum(),
        });
        setups.tick();
        if cfg.traced {
            tr.stolen += batch.stats.stolen;
            tr.jobs += batch.stats.jobs as u64;
            tr.hit_rate = batch.stats.cache.hit_rate();
            if ops.len() % 4 == 1 {
                // Fleet efficiency: the same jobs run one by one, against
                // the batch's wall time on its workers.
                let seq: f64 = jobs(&entries, &pol)
                    .into_iter()
                    .map(|j| {
                        let t = Instant::now();
                        let _ = j.run_uncached();
                        secs(t.elapsed())
                    })
                    .sum();
                let wall = tr.batch_ms.last().copied().unwrap_or(f64::NAN) / 1e3;
                tr.efficiency
                    .push(seq / (batch.stats.workers as f64 * wall));
            }
        }
    }

    let wall_s = secs(start.elapsed());
    let n = ops.len() as f64;
    let designs = entries.len() as f64;
    pass.per_op = vec![
        ("designs", designs),
        ("jobs", designs * per_battery as f64),
        // Jobs run in parallel: per worker, against the battery's wall.
        (
            "jobs_per_worker",
            designs * per_battery as f64 / cfg.nproc as f64,
        ),
        ("compares", designs * (per_battery - 1) as f64),
    ];
    pass.named.push(Metric::new(
        "jobs_per_s",
        n * per_battery as f64 * designs / wall_s,
        "1/s",
    ));
    pass.notes.push(format!(
        "\"row\": \"battery\", \"designs\": {}, \"jobs_per_battery\": {}, \"batteries\": {n}, \
         \"workers\": {}",
        entries.len(),
        per_battery * entries.len(),
        cfg.nproc
    ));
    E2e {
        setup_s: setups.seconds(),
        ops,
        callers: 1,
        wall_s,
    }
    .finish(&mut pass);

    if cfg.traced {
        pass.layers.extend([
            Metric::new("fleet.batch_ms", median(&mut tr.batch_ms), "ms"),
            Metric::new("fleet.efficiency", median(&mut tr.efficiency), "ratio"),
            Metric::new(
                "fleet.stolen_frac",
                tr.stolen as f64 / tr.jobs.max(1) as f64,
                "ratio",
            ),
            Metric::new("fleet.cache_hit_rate", tr.hit_rate, "ratio"),
            Metric::new("extract.event_structure_us", mean(&tr.extract_us), "us"),
            Metric::new("equiv.compare_us", mean(&tr.compare_us), "us"),
        ]);
        catalog::layer_probes(&entries, &mut pass);
    }
    pass
}
