//! **E9 — simulator throughput.**
//!
//! Control steps per second and external events per second, over the
//! benchmark designs (representative inputs, run repeatedly) and over
//! random structured nets of growing size (cyclic variants for sustained
//! execution). Shape: per-step cost scales with the active-port count;
//! steps/s falls roughly linearly in design size.

use crate::table::Table;
use crate::Scale;
use etpn_core::Etpn;
use etpn_sim::{Backend, FiringPolicy, Fleet, ScriptedEnv, SimJob, Simulator};
use etpn_workloads::{catalog, random_net};
use std::time::Instant;

/// Make a random net cyclic: loop the terminal transition back to start.
pub(crate) fn cyclic_net(seed: u64, n: usize) -> Etpn {
    let mut g = random_net(seed, n);
    // `random_net` ends with a token-consuming `t_end`; wire it back to the
    // first place to keep the net running forever.
    let t_end = g
        .ctl
        .transitions()
        .iter()
        .find(|(_, tr)| tr.post.is_empty())
        .map(|(t, _)| t)
        .expect("random nets have a terminal transition");
    let first = g.ctl.initial_places()[0];
    g.ctl.flow_ts(t_end, first).expect("fresh flow edge");
    g
}

/// Run E9.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "E9",
        "simulator throughput",
        &["design", "|S|", "ports", "steps", "steps/s", "events/s"],
    );
    // Benchmarks: run their representative input repeatedly.
    let reps = scale.n(3, 20) as u64;
    for w in catalog() {
        let d = etpn_synth::compile_source(&w.source).unwrap();
        let mut steps = 0u64;
        let mut events = 0u64;
        let t0 = Instant::now();
        for _ in 0..reps {
            let mut sim = Simulator::new(&d.etpn, w.env());
            for (n, v) in &d.reg_inits {
                sim = sim.init_register(n, *v);
            }
            let trace = sim.run(w.max_steps).unwrap();
            steps += trace.steps;
            events += trace.event_count() as u64;
        }
        let dt = t0.elapsed().as_secs_f64();
        table.row([
            w.name.to_string(),
            d.etpn.ctl.places().len().to_string(),
            d.etpn.dp.ports().len().to_string(),
            steps.to_string(),
            format!("{:.0}", steps as f64 / dt),
            format!("{:.0}", events as f64 / dt),
        ]);
    }
    // Random cyclic nets: sustained stepping.
    let sizes: &[usize] = match scale {
        Scale::Quick => &[32, 128],
        Scale::Full => &[32, 128, 512, 1024],
    };
    let budget = scale.n(2_000, 50_000) as u64;
    for &n in sizes {
        let g = cyclic_net(23, n);
        let t0 = Instant::now();
        let trace = Simulator::new(&g, ScriptedEnv::new()).run(budget).unwrap();
        let dt = t0.elapsed().as_secs_f64();
        table.row([
            format!("random{n}"),
            g.ctl.places().len().to_string(),
            g.dp.ports().len().to_string(),
            trace.steps.to_string(),
            format!("{:.0}", trace.steps as f64 / dt),
            format!("{:.0}", trace.event_count() as f64 / dt),
        ]);
    }
    table.interpret("steps/s falls roughly linearly with design size");
    table
}

/// The E9b policy battery: one deterministic run plus seeded sweeps of the
/// two randomized policies for every benchmark design, on the fleet's
/// default backend.
fn battery_jobs<'a>(
    designs: &'a [(etpn_workloads::Workload, etpn_synth::CompiledDesign)],
    seeds: u64,
) -> Vec<SimJob<'a>> {
    let mut jobs = Vec::new();
    for (w, d) in designs {
        let mut policies = vec![FiringPolicy::MaximalStep];
        for seed in 0..seeds {
            policies.push(FiringPolicy::RandomMaximal { seed });
            policies.push(FiringPolicy::SingleRandom { seed });
        }
        for policy in policies {
            let mut job = SimJob::new(&d.etpn, w.env())
                .with_policy(policy)
                .max_steps(w.max_steps);
            for (n, v) in &d.reg_inits {
                job = job.init_register(n, *v);
            }
            jobs.push(job);
        }
    }
    jobs
}

/// Run E9b: the batch-simulation fleet against the sequential loop.
pub fn run_fleet(scale: Scale) -> Table {
    let mut table = Table::new(
        "E9b",
        "batch simulation: fleet vs sequential loop",
        &[
            "batch",
            "jobs",
            "workers",
            "seq (ms)",
            "fleet (ms)",
            "speedup",
        ],
    );
    let designs: Vec<(etpn_workloads::Workload, etpn_synth::CompiledDesign)> = catalog()
        .into_iter()
        .map(|w| {
            let d = etpn_synth::compile_source(&w.source).unwrap();
            (w, d)
        })
        .collect();
    // 1 + 2·seeds jobs per design; seeds=4 ⇒ 9 × |catalog| ≥ 64 jobs.
    let seeds = 4;
    let repeats = scale.n(1, 5) as u32;

    // Sequential baseline: the plain loop over the same jobs.
    let t0 = Instant::now();
    for _ in 0..repeats {
        for job in battery_jobs(&designs, seeds) {
            job.run().unwrap();
        }
    }
    let seq = t0.elapsed().as_secs_f64() / f64::from(repeats);

    for workers in [1usize, 8] {
        let fleet = Fleet::new(workers);
        let mut n_jobs = 0;
        let t0 = Instant::now();
        for _ in 0..repeats {
            let batch = fleet.run_batch(battery_jobs(&designs, seeds));
            n_jobs = batch.stats.jobs;
            for r in &batch.results {
                r.as_ref().unwrap();
            }
        }
        let dt = t0.elapsed().as_secs_f64() / f64::from(repeats);
        table.row([
            "policy-battery".to_string(),
            n_jobs.to_string(),
            workers.to_string(),
            format!("{:.1}", seq * 1e3),
            format!("{:.1}", dt * 1e3),
            format!("{:.2}x", seq / dt),
        ]);
    }
    table.interpret(
        "extra workers add wall-clock parallelism on multi-core hosts; \
         on one core the fleet costs only its scheduling overhead",
    );
    table
}

/// Run E9c: the step-engine comparison — interpreter walk vs compiled
/// event-driven vs compiled with the dirty set disabled (ablation) — on
/// the E9 random cyclic rows. The ablation isolates how much of the
/// speedup comes from event-driven selectivity as opposed to the flat
/// dispatch tables alone.
pub fn run_backends(scale: Scale) -> Table {
    let mut table = Table::new(
        "E9c",
        "step engines: interp vs compiled vs compiled-no-dirty",
        &["design", "backend", "steps", "steps/s", "vs interp"],
    );
    let sizes: &[usize] = match scale {
        Scale::Quick => &[32, 128],
        Scale::Full => &[32, 128, 512, 1024],
    };
    let budget = scale.n(2_000, 50_000) as u64;
    for &n in sizes {
        let g = cyclic_net(23, n);
        // Compile outside the timed region: the process-wide cache means
        // real fleets pay this once per design, not once per run.
        etpn_sim::get_or_compile(&g);
        let mut interp_sps = f64::NAN;
        for (backend, label) in [
            (Backend::Interp, "interp"),
            (Backend::Compiled, "compiled"),
            (Backend::CompiledNoDirty, "compiled-nodirty"),
        ] {
            let t0 = Instant::now();
            let trace = Simulator::new(&g, ScriptedEnv::new())
                .with_backend(backend)
                .run(budget)
                .unwrap();
            let dt = t0.elapsed().as_secs_f64();
            let sps = trace.steps as f64 / dt;
            if backend == Backend::Interp {
                interp_sps = sps;
            }
            table.row([
                format!("random{n}"),
                label.to_string(),
                trace.steps.to_string(),
                format!("{:.0}", sps),
                format!("{:.2}x", sps / interp_sps),
            ]);
        }
    }
    table.interpret(
        "the event-driven compiled engine holds steps/s roughly flat as \
         designs grow; the no-dirty ablation shows flat dispatch alone is \
         not enough",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_measures_positive_throughput() {
        let t = run(Scale::Quick);
        for row in &t.rows {
            let sps: f64 = row[4].parse().unwrap();
            assert!(sps > 0.0, "{row:?}");
        }
    }

    #[test]
    fn e9b_batch_is_big_enough_and_correct() {
        let t = run_fleet(Scale::Quick);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let jobs: usize = row[1].parse().unwrap();
            assert!(jobs >= 64, "acceptance requires a ≥64-job batch: {row:?}");
        }
    }

    #[test]
    fn e9c_backends_step_identically_and_measure() {
        let t = run_backends(Scale::Quick);
        assert_eq!(t.rows.len(), 6, "2 sizes x 3 backends");
        for design in t.rows.chunks(3) {
            assert_eq!(
                design[0][2], design[1][2],
                "compiled must take the same steps as interp: {design:?}"
            );
            assert_eq!(design[0][2], design[2][2], "{design:?}");
            for row in design {
                let sps: f64 = row[3].parse().unwrap();
                assert!(sps > 0.0, "{row:?}");
            }
        }
    }

    #[test]
    fn cyclic_net_runs_to_budget() {
        let g = cyclic_net(1, 16);
        let trace = Simulator::new(&g, ScriptedEnv::new()).run(500).unwrap();
        assert_eq!(trace.steps, 500);
    }
}
