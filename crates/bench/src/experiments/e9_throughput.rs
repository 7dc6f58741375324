//! **E9 — simulator throughput.**
//!
//! Control steps per second and external events per second on the
//! default compiled engine, over the benchmark designs (representative
//! inputs, run repeatedly; each run's setup is timed with it). Sustained
//! stepping on random nets of growing size is E9c's: its `compiled` rows
//! show a step re-evaluating only the ports downstream of what changed.

use super::compiled_catalog;
use crate::measure::measure;
use crate::table::Table;
use crate::Scale;
use etpn_sim::{Backend, FiringPolicy, Fleet, RunSpec, ScriptedEnv, SimJob, Simulator};
use etpn_synth::CompiledDesign;
use etpn_workloads::{cyclic_net, Workload};
use std::time::Instant;

/// Run E9.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "E9",
        "simulator throughput",
        &["design", "|S|", "ports", "steps", "steps/s", "events/s"],
    );
    // One arm per benchmark design; a sample runs its representative
    // input `reps` times.
    let designs = compiled_catalog();
    let reps = scale.n(3, 20);
    // Every sample of an arm does the same deterministic work: keep its
    // step and event counts.
    let mut counts = vec![(0u64, 0u64); designs.len()];
    let m = measure(designs.len(), scale.n(3, 5), |arm| {
        let (w, d) = &designs[arm];
        let (mut steps, mut events) = (0, 0);
        let t0 = Instant::now();
        for _ in 0..reps {
            let trace = d.simulator(w.env()).run(w.max_steps).unwrap();
            steps += trace.steps;
            events += trace.event_count() as u64;
        }
        let dt = t0.elapsed();
        counts[arm] = (steps, events);
        (steps, dt)
    });
    for (arm, (w, d)) in designs.iter().enumerate() {
        let (steps, events) = counts[arm];
        let sps = m.rate(arm);
        table.row([
            w.name.to_string(),
            d.etpn.ctl.places().len().to_string(),
            d.etpn.dp.ports().len().to_string(),
            steps.to_string(),
            format!("{sps:.0}"),
            format!("{:.0}", sps * events as f64 / steps as f64),
        ]);
    }
    table.interpret(
        "each benchmark row pays its short runs' setup along with their \
         steps, so the designs with the fewest steps per run read slowest; \
         sustained stepping is E9c's",
    );
    table
}

/// The E9b policy battery: one deterministic run plus seeded sweeps of the
/// two randomized policies for every benchmark design, on the fleet's
/// default backend.
fn battery_jobs<'a>(designs: &'a [(Workload, CompiledDesign)], seeds: u64) -> Vec<SimJob<'a>> {
    let mut jobs = Vec::new();
    for (w, d) in designs {
        for policy in FiringPolicy::battery(seeds) {
            let spec = RunSpec {
                policy,
                max_steps: w.max_steps,
                registers: d.reg_inits.clone(),
                ..RunSpec::default()
            };
            jobs.push(SimJob::from_spec(&d.etpn, w.env(), spec));
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
    let designs = compiled_catalog();
    // 1 + 2·seeds jobs per design; seeds=4 ⇒ 9 × |catalog| ≥ 64 jobs.
    let seeds = 4;
    let n_jobs = battery_jobs(&designs, seeds).len();

    // Arm 0 is the sequential baseline, the plain loop over the same
    // jobs; arm i > 0 runs them on `fleets[i - 1]`.
    let workers = [1usize, 8];
    let fleets = workers.map(Fleet::new);
    let m = measure(1 + fleets.len(), scale.n(3, 25), |arm| {
        let jobs = battery_jobs(&designs, seeds);
        let t0 = Instant::now();
        match arm.checked_sub(1) {
            None => {
                for job in jobs {
                    job.run().unwrap();
                }
            }
            Some(f) => {
                for r in &fleets[f].run_batch(jobs).results {
                    r.as_ref().unwrap();
                }
            }
        }
        (1, t0.elapsed())
    });
    for (i, w) in workers.iter().enumerate() {
        table.row([
            "policy-battery".to_string(),
            n_jobs.to_string(),
            w.to_string(),
            format!("{:.1}", 1e3 / m.rate(0)),
            format!("{:.1}", 1e3 / m.rate(i + 1)),
            format!("{:.2}x", m.ratio(i + 1, 0)),
        ]);
    }
    table.interpret(
        "extra workers add wall-clock parallelism on multi-core hosts; \
         on one core the fleet costs only its scheduling overhead",
    );
    table
}

/// Run E9c: the step-engine comparison — the reference interpreter's
/// whole-design walk against the compiled event-driven engine — on random
/// cyclic nets of growing size, stepped for a fixed budget.
pub fn run_backends(scale: Scale) -> Table {
    let mut table = Table::new(
        "E9c",
        "step engines: interp vs compiled",
        &["design", "backend", "steps", "steps/s", "vs interp"],
    );
    let backends = [Backend::Interp, Backend::Compiled];
    let budget = scale.n(2_000, 50_000) as u64;
    let sizes: &[usize] = match scale {
        Scale::Quick => &[32, 128],
        Scale::Full => &[32, 128, 512, 1024],
    };
    for &n in sizes {
        // The compiled arm's first warm-up run fills the process-wide
        // compile cache, so no measured run pays the compilation.
        let g = cyclic_net(23, n);
        let mut steps = [0u64; 2];
        let m = measure(backends.len(), scale.n(3, 5), |arm| {
            let spec = RunSpec {
                backend: backends[arm],
                ..RunSpec::default()
            };
            let t0 = Instant::now();
            let trace = Simulator::from_spec(&g, ScriptedEnv::new(), &spec)
                .run(budget)
                .unwrap();
            steps[arm] = trace.steps;
            (trace.steps, t0.elapsed())
        });
        for (arm, backend) in backends.iter().enumerate() {
            table.row([
                format!("random{n}"),
                backend.name().to_string(),
                steps[arm].to_string(),
                format!("{:.0}", m.rate(arm)),
                format!("{:.2}x", m.ratio(arm, 0)),
            ]);
        }
    }
    table.interpret(
        "the event-driven compiled engine holds steps/s roughly flat as \
         designs grow, because a step re-evaluates only what changed, while \
         the interpreter's walk falls with design size",
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
        assert_eq!(t.rows.len(), 4, "2 sizes x 2 backends");
        for design in t.rows.chunks(2) {
            assert_eq!(
                design[0][2], design[1][2],
                "compiled must take the same steps as interp: {design:?}"
            );
            for row in design {
                let sps: f64 = row[3].parse().unwrap();
                assert!(sps > 0.0, "{row:?}");
            }
        }
    }
}
