//! The repository benchmark: three workloads driving the ETPN layers from
//! outside through their public APIs.
//!
//! ```text
//! perfbench --workload <sim-large|battery|serve-mix> --seed <n> --seconds <s>
//!           --trace <0|1> [--scratch <dir>] [--commit <id>] [--rustc <version>]
//!           [--corrupt-expected]
//! ```
//!
//! Untraced (`--trace 0`), the run measures the chosen workload for
//! `--seconds` and reports the end-to-end metrics. Traced (`--trace 1`), it
//! measures the chosen workload untraced and then traced, a third of the
//! time each, and the other two workloads traced for a sixth each, so that
//! every per-layer metric is printed whichever workload is chosen.
//!
//! Every line before the last is a report row (a JSON object stamped with
//! the environment); the last line is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is `0`
//! only when every output matched its reference.

mod battery;
mod catalog;
mod serve_mix;
mod sim_large;
mod stats;

use stats::{json_num, json_str, Metric, Pass};
use std::path::PathBuf;

/// Run configuration shared by the workloads.
pub struct Cfg {
    pub seed: u64,
    pub traced: bool,
    pub corrupt: bool,
    pub nproc: usize,
    /// Directory for the service's data directories (inside the checkout).
    pub scratch: PathBuf,
}

const WORKLOADS: [&str; 3] = ["sim-large", "battery", "serve-mix"];

/// Each per-layer metric, the end-to-end metric it should move, and the
/// workload where it should move it.
const LAYERS: &str = include_str!("../layers.tsv");

fn run_workload(name: &str, cfg: &Cfg, seconds: f64) -> Pass {
    match name {
        "sim-large" => sim_large::pass(cfg, seconds),
        "battery" => battery::pass(cfg, seconds),
        _ => serve_mix::pass(cfg, seconds),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
    scratch: PathBuf,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        corrupt: false,
        scratch: PathBuf::from(".bench_build/perfbench-data"),
        commit: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-expected" {
            a.corrupt = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => a.trace = v.parse::<u8>().map_err(|_| bad())? == 1,
            "--scratch" => a.scratch = PathBuf::from(&v),
            "--commit" => a.commit = v.clone(),
            "--rustc" => a.rustc = v.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = Cfg {
        seed: args.seed,
        traced: false,
        corrupt: args.corrupt,
        nproc,
        scratch: args.scratch.clone(),
    };
    let env = format!(
        "\"env\": {{\"nproc\": {nproc}, \"profile\": \"{}\", \"commit\": {}, \"rustc\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        json_str(&args.commit),
        json_str(&args.rustc),
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
    );
    let row = |body: &str| println!("{{{body}, {env}}}");
    let metric_row = |kind: &str, workload: &str, m: &Metric| {
        row(&format!(
            "\"row\": \"{kind}\", \"workload\": \"{workload}\", \"name\": \"{}\", \
             \"value\": {}, \"unit\": \"{}\"",
            m.name,
            json_num(m.value),
            m.unit
        ))
    };

    let mut attempted = 0;
    let mut failed = 0;
    let mut tally = |p: &Pass, workload: &str| {
        attempted += p.attempted;
        failed += p.failed;
        for n in &p.notes {
            row(&format!("\"workload\": \"{workload}\", {n}"));
        }
        row(&format!(
            "\"row\": \"checked\", \"workload\": \"{workload}\", \"attempted\": {}, \
             \"failed\": {}, \"error_rate\": {}",
            p.attempted,
            p.failed,
            json_num(p.failed as f64 / p.attempted.max(1) as f64)
        ));
    };

    let result: Vec<Metric> = if !args.trace {
        let p = run_workload(&args.workload, &cfg, args.seconds);
        tally(&p, &args.workload);
        for m in p.e2e.iter().chain(&p.named) {
            metric_row("end_to_end", &args.workload, m);
        }
        p.e2e
    } else {
        let traced = Cfg {
            traced: true,
            scratch: cfg.scratch.clone(),
            ..cfg
        };
        let third = args.seconds / 3.0;
        let base = run_workload(&args.workload, &cfg, third);
        tally(&base, &args.workload);
        let mut passes = vec![(
            args.workload.clone(),
            run_workload(&args.workload, &traced, third),
        )];
        for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
            passes.push((
                other.to_string(),
                run_workload(other, &traced, args.seconds / 6.0),
            ));
        }
        for (w, p) in &passes {
            tally(p, w);
        }
        // Tracing overhead: the traced minus the untraced end-to-end
        // figure of the chosen workload, measured back to back.
        for m in &base.e2e {
            let Some(t) = passes[0].1.e2e(&m.name) else {
                continue;
            };
            row(&format!(
                "\"row\": \"tracing_overhead\", \"workload\": \"{}\", \"name\": \"{}\", \
                 \"untraced\": {}, \"traced\": {}, \"difference\": {}, \"unit\": \"{}\"",
                args.workload,
                m.name,
                json_num(m.value),
                json_num(t),
                json_num(t - m.value),
                m.unit
            ));
        }
        report_layers(&passes, &row)
    };

    let correct = failed == 0;
    let metrics: Vec<String> = result
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Print each per-layer metric beside the end-to-end metric it explains,
/// as a share of it (see `layers.tsv`), and return the metrics in table
/// order.
fn report_layers(passes: &[(String, Pass)], row: &dyn Fn(&str)) -> Vec<Metric> {
    let mut out = Vec::new();
    for line in LAYERS
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        let [name, moves, on, flat_on, share_of, per_op] = f[..] else {
            continue;
        };
        let Some((measured_on, m)) = passes
            .iter()
            .find_map(|(w, p)| Some((w, p.layers.iter().find(|m| m.name == name)?)))
        else {
            continue;
        };
        // The share is taken against the workload the metric should move.
        let Some((_, p)) = passes.iter().find(|(w, _)| on.split(',').any(|o| o == w)) else {
            continue;
        };
        let us = match m.unit {
            "us" => Some(m.value),
            "ns" => Some(m.value / 1e3),
            "ms" => Some(m.value * 1e3),
            _ => None,
        };
        let count = per_op
            .parse::<f64>()
            .ok()
            .or_else(|| p.per_op.iter().find(|(k, _)| *k == per_op).map(|(_, v)| *v));
        let share = match (share_of, us, count) {
            ("setup", Some(us), Some(n)) => p.e2e("setup_s").map(|s| us * n / (s * 1e6)),
            ("op", Some(us), Some(n)) => Some(us * n / (p.op_mean_ms * 1e3)),
            ("p50", Some(us), _) => p.figure("latency_p50_ms").map(|l| us / (l * 1e3)),
            ("self", _, _) => Some(m.value),
            _ => None,
        };
        row(&format!(
            "\"row\": \"per_layer\", \"name\": \"{name}\", \"value\": {}, \"unit\": \"{}\", \
             \"measured_on\": \"{measured_on}\", \"moves\": \"{moves}\", \"on\": \"{on}\", \
             \"flat_on\": \"{flat_on}\", \"e2e_value\": {}, \"share\": {}",
            json_num(m.value),
            m.unit,
            p.figure(moves).map_or("null".to_string(), json_num),
            share.map_or("null".to_string(), json_num)
        ));
        out.push(m.clone());
    }
    out
}
