//! Observability integration tests: metric consistency under a concurrent
//! fleet batch, and the Chrome `trace_event` exporter's schema.
//!
//! The observability level and the registry are process-wide, so every
//! test here serialises on [`GLOBAL_LOCK`] (this file is its own test
//! binary — no other test shares the process).

use etpn::obs;
use etpn::sim::{Fleet, ScriptedEnv, SimJob};
use std::sync::Mutex;

static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

const GCD_SRC: &str = "design gcd {
    in a, b;
    out g;
    reg x, y;
    x = a;
    y = b;
    while (x != y) {
        if (x > y) {
            x = x - y;
        } else {
            y = y - x;
        }
    }
    g = x;
}";

fn gcd_jobs(n: usize) -> (etpn::synth::CompiledDesign, Vec<(i64, i64)>) {
    let d = etpn::synth::compile_source(GCD_SRC).expect("gcd compiles");
    let pairs = (0..n as i64).map(|i| (90 + 6 * i, 36 + 4 * i)).collect();
    (d, pairs)
}

fn run_batch(
    d: &etpn::synth::CompiledDesign,
    pairs: &[(i64, i64)],
    workers: usize,
) -> etpn::sim::FleetBatch {
    let jobs: Vec<SimJob> = pairs
        .iter()
        .map(|&(a, b)| {
            let env = ScriptedEnv::new()
                .with_stream("a", [a])
                .with_stream("b", [b]);
            let mut job = SimJob::new(&d.etpn, env).max_steps(5_000);
            for (name, v) in &d.reg_inits {
                job = job.init_register(name, *v);
            }
            job
        })
        .collect();
    Fleet::new(workers).run_batch(jobs)
}

fn counter(reg: &obs::Registry, name: &str) -> u64 {
    reg.counter(name).get()
}

/// The fleet's counters agree with the batch it ran: every job is counted
/// done once, and the batch summary is re-exported as gauges.
#[test]
fn fleet_metrics_are_consistent() {
    let _guard = GLOBAL_LOCK.lock().unwrap();
    let (d, pairs) = gcd_jobs(8);
    let reg = obs::global();
    let done0 = counter(reg, "fleet.jobs_done");

    let batch = run_batch(&d, &pairs, 4);

    let stats = &batch.stats;
    assert_eq!(stats.jobs, 8);
    assert!(batch.results.iter().all(|r| r.is_ok()));
    assert_eq!(counter(reg, "fleet.jobs_done") - done0, 8);
    // FleetStats is re-exported through the registry as gauges.
    let gauges = reg.gauge_values();
    let gauge = |name: &str| {
        gauges
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("gauge {name} missing"))
            .1
    };
    assert_eq!(gauge("fleet.jobs"), 8);
}

/// Under `Level::Trace`, every job and every worker of a batch shows up as
/// a span, and job spans run on worker threads: the per-worker totals sum
/// to the batch's job count.
#[test]
fn fleet_spans_account_for_every_job() {
    let _guard = GLOBAL_LOCK.lock().unwrap();
    obs::set_level(obs::Level::Trace);
    obs::global().clear_events();
    let (d, pairs) = gcd_jobs(9);
    let workers = 3;
    let batch = run_batch(&d, &pairs, workers);
    obs::set_level(obs::Level::Off);
    obs::flush_thread();

    assert_eq!(batch.stats.jobs, 9);
    let spans = obs::global().spans();
    let batch_span = spans
        .iter()
        .find(|s| s.name == "fleet.batch")
        .expect("batch span recorded");
    assert_eq!(batch_span.arg, Some(("jobs", 9)));

    let worker_tids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "fleet.worker")
        .map(|s| s.tid)
        .collect();
    assert_eq!(worker_tids.len(), workers, "one span per worker");

    let job_spans: Vec<_> = spans.iter().filter(|s| s.name == "fleet.job").collect();
    assert_eq!(job_spans.len(), 9, "one span per job");
    for js in &job_spans {
        assert!(
            worker_tids.contains(&js.tid),
            "job span on a worker thread (tid {})",
            js.tid
        );
    }
    // Per-worker totals partition the batch.
    let total: usize = worker_tids
        .iter()
        .map(|&tid| job_spans.iter().filter(|js| js.tid == tid).count())
        .sum();
    assert_eq!(total, 9);
    // Every job span nests inside its worker's span.
    for js in &job_spans {
        let w = spans
            .iter()
            .find(|s| s.name == "fleet.worker" && s.tid == js.tid)
            .expect("owning worker span");
        assert!(js.start_ns >= w.start_ns);
        assert!(js.start_ns + js.dur_ns <= w.start_ns + w.dur_ns);
    }
}

/// Golden schema test: the Chrome-trace exporter emits JSON that the
/// repo's own (float-free) parser accepts, with the fields Perfetto /
/// `chrome://tracing` require on every event.
#[test]
fn chrome_trace_schema_is_valid() {
    let _guard = GLOBAL_LOCK.lock().unwrap();
    obs::set_level(obs::Level::Trace);
    obs::global().clear_events();
    let (d, pairs) = gcd_jobs(3);
    let _ = run_batch(&d, &pairs, 2);
    obs::sample("test.series", 42);
    obs::set_level(obs::Level::Off);
    obs::flush_thread();

    let text = obs::chrome_trace(obs::global());
    let doc = etpn::core::json::parse(&text).expect("exporter output parses");
    let events = doc
        .req("traceEvents")
        .expect("traceEvents present")
        .as_arr()
        .expect("traceEvents is an array");
    assert!(!events.is_empty());

    let mut phases = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.req("ph").unwrap().as_str().unwrap();
        phases.insert(ph.to_string());
        assert!(ev.req("name").unwrap().as_str().is_ok());
        assert!(ev.req("pid").unwrap().as_i64().is_ok());
        assert!(ev.req("tid").unwrap().as_i64().is_ok());
        match ph {
            "X" => {
                // Complete events: integer microsecond timestamp + duration.
                assert!(ev.req("ts").unwrap().as_i64().unwrap() >= 0);
                assert!(ev.req("dur").unwrap().as_i64().unwrap() >= 0);
                assert!(ev.req("cat").unwrap().as_str().is_ok());
            }
            "C" => {
                assert!(ev.req("ts").unwrap().as_i64().unwrap() >= 0);
                let args = ev.req("args").unwrap();
                assert!(args.get("value").is_some());
            }
            "M" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(phases.contains("X"), "span events present");
    assert!(phases.contains("M"), "metadata event present");
    assert!(phases.contains("C"), "counter sample present");

    // The step/eval/fire span hierarchy the README promises is in there.
    for name in ["sim.step", "sim.eval", "sim.fire", "fleet.batch"] {
        assert!(
            events
                .iter()
                .any(|e| e.req("name").unwrap().as_str().unwrap() == name),
            "span {name} missing from the trace"
        );
    }
}
