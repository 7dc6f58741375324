//! **E15 — request-scoped tracing overhead in the service plane.**
//!
//! etpnd's observability plane is meant to be *always on*: every request
//! gets a trace id, a span tree spanning admission → queue → engine work,
//! an SLO histogram sample, a debug-ring entry, and (for slow/errored
//! requests) a persisted Chrome-trace file. The acceptance bound is ≤ 5%
//! requests/s overhead versus the same server with span collection
//! disabled (`tracing: false` — trace ids and status-plane metrics stay
//! on either way, they predate this plane's knob).
//!
//! Two in-process servers (tracing off / on) are started once per
//! subject, and the same request batch is replayed against both. Two
//! subjects, both from the behavioural workload catalogue on their
//! representative inputs:
//!
//! * `gcd` — a short control-dominated run, so per-request service cost
//!   (parse, dispatch, trace bookkeeping) is a large slice of the total;
//! * `diffeq` — the HAL differential-equation solver, a longer
//!   datapath-heavy run where engine time dilutes fixed per-request cost.
//!
//! What the rates measure: the acceptor polls a non-blocking listener and
//! sleeps 2 ms whenever no connection waits. A batch is sequential, so
//! each request connects while the acceptor sleeps after admitting the
//! one before, and both servers answer one request per poll, a little
//! over 2 ms. A worker handles a request, spans included, inside that
//! sleep, so the table cannot see a tracing cost below ~2 ms per request.

use crate::measure::measure;
use crate::table::Table;
use crate::Scale;
use etpn_core::json::Json;
use etpn_serve::{request, start, ServerConfig, ServerHandle};
use etpn_workloads::{by_name, Workload};
use std::time::{Duration, Instant};

const T: Duration = Duration::from_secs(30);

/// An in-process server with span collection on or off. Access logging
/// stays off in both (it writes to stderr; E15 measures the trace plane).
fn server(tracing: bool) -> ServerHandle {
    let cfg = ServerConfig {
        tracing,
        ..ServerConfig::default()
    };
    start(cfg).expect("in-process server binds")
}

/// Register the workload's design on `addr`.
fn register(addr: &str, w: &Workload) {
    let body = Json::obj([("source", Json::Str(w.source.clone()))]).pretty();
    let r = request(addr, "POST", "/v1/designs", Some(&body), T).expect("register transport");
    assert!(r.status == 201 || r.status == 200, "{}", r.body);
}

/// The `/v1/run` body for the workload's representative inputs.
fn run_body(w: &Workload) -> String {
    let inputs = Json::Obj(
        w.inputs
            .iter()
            .map(|(n, vs)| {
                let vals = vs.iter().map(|&v| Json::Num(v)).collect();
                (n.clone(), Json::Arr(vals))
            })
            .collect(),
    );
    Json::obj([
        ("design", Json::Str(w.name.to_string())),
        ("inputs", inputs),
    ])
    .pretty()
}

/// One sequential batch of `n` runs against `addr`: `(n, elapsed)`. Every
/// response must be a 200 carrying a trace id — the id is issued whether
/// or not span collection is on, so this also pins the header contract.
fn batch(addr: &str, body: &str, n: usize) -> (u64, Duration) {
    let t0 = Instant::now();
    for _ in 0..n {
        let r = request(addr, "POST", "/v1/run", Some(body), T).expect("run transport");
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(
            r.headers
                .iter()
                .any(|(k, _)| k.eq_ignore_ascii_case("x-etpn-trace-id")),
            "response without a trace id"
        );
    }
    (n as u64, t0.elapsed())
}

/// Run E15.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "E15",
        "service tracing overhead: requests/s, span collection off vs on",
        &["design", "reps", "off /s", "on /s", "overhead"],
    );
    let reps = scale.n(3, 15);
    let size = scale.n(4, 40);

    for name in ["gcd", "diffeq"] {
        let w = by_name(name).expect("catalogue workload exists");
        let body = run_body(&w);
        let off = server(false);
        let on = server(true);
        let addrs = [off.addr.to_string(), on.addr.to_string()];
        for addr in &addrs {
            register(addr, &w);
        }
        let m = measure(2, reps, |arm| batch(&addrs[arm], &body, size));
        table.row([
            name.to_string(),
            format!("{reps} pairs"),
            format!("{:.0}", m.rate(0)),
            format!("{:.0}", m.rate(1)),
            format!("{:+.1}%", (m.ratio(0, 1) - 1.0) * 100.0),
        ]);
        off.shutdown();
        on.shutdown();
    }

    table.interpret(
        "both servers answer one sequential request per acceptor poll, so \
         the acceptor's 2 ms sleep sets both rates; a worker handles a \
         request, span records included, inside that sleep, so requests/s \
         shows only a tracing cost above ~2 ms per request",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_measures_both_designs() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 2, "{t:?}");
        for row in &t.rows {
            for cell in &row[2..4] {
                let rate: f64 = cell.parse().unwrap();
                assert!(rate > 0.0, "{row:?}");
            }
            let pct: f64 = row[4].trim_end_matches('%').parse().unwrap();
            assert!(pct.abs() < 1_000.0, "{row:?}");
        }
    }
}
