//! `serve-mix`: etpnd in-process with persistence on in a fresh data
//! directory, as a deployed `etpnd --data`. Every catalogue design is
//! registered at set-up; `nproc` closed-loop clients (callers such as
//! `etpnc remote` and CI scripts that wait for each reply) send a seeded
//! mix of ≈65% `/v1/run`, 15% `/v1/check`, 10% `/v1/cov`, 5% `/v1/lint`
//! and 5% idempotent re-`POST /v1/designs`. Admission, HTTP, JSON and
//! routing dominate; the engine is a small share of latency.
//!
//! The traced pass raises the server's debug-ring and trace-store
//! capacities and reads its public telemetry by trace id
//! (`X-Etpn-Trace-Id`, `GET /v1/debug/requests`, `GET /v1/debug/trace/<id>`);
//! it adds no instrumentation inside the server.

use crate::catalog::{self, Entry};
use crate::stats::{mean, median, quantile, secs, E2e, Metric, Op, Pass, Rng};
use crate::Cfg;
use etpn_core::json::{self, Json};
use etpn_serve::{ClientResponse, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Verb {
    Run,
    Check,
    Cov,
    Lint,
    Register,
}

impl Verb {
    const ALL: [Verb; 5] = [
        Verb::Run,
        Verb::Check,
        Verb::Cov,
        Verb::Lint,
        Verb::Register,
    ];

    fn name(self) -> &'static str {
        match self {
            Verb::Run => "run",
            Verb::Check => "check",
            Verb::Cov => "cov",
            Verb::Lint => "lint",
            Verb::Register => "register",
        }
    }

    fn path(self) -> &'static str {
        match self {
            Verb::Run => "/v1/run",
            Verb::Check => "/v1/check",
            Verb::Cov => "/v1/cov",
            Verb::Lint => "/v1/lint",
            Verb::Register => "/v1/designs",
        }
    }

    /// The mix, in percent.
    fn pick(rng: &mut Rng) -> Verb {
        match rng.below(100) {
            0..65 => Verb::Run,
            65..80 => Verb::Check,
            80..90 => Verb::Cov,
            90..95 => Verb::Lint,
            _ => Verb::Register,
        }
    }
}

/// A running server with every catalogue design registered.
struct Server {
    handle: ServerHandle,
    addr: String,
    dir: PathBuf,
    fingerprints: Vec<String>,
}

fn post(addr: &str, path: &str, body: &str) -> std::io::Result<ClientResponse> {
    etpn_serve::request(addr, "POST", path, Some(body), TIMEOUT)
}

fn register_body(e: &Entry) -> String {
    Json::obj([("source", Json::Str(e.w.source.clone()))]).compact()
}

/// Start a server on `dir` and register the catalogue. `None` when the
/// server cannot start or a registration is refused.
fn start(cfg: &Cfg, entries: &[Entry], dir: &Path) -> Option<Server> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).ok()?;
    let mut sc = ServerConfig {
        workers: cfg.nproc,
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    if cfg.traced {
        sc.debug_ring = 1 << 14;
        sc.trace_store = 8192;
    }
    let handle = etpn_serve::start(sc).ok()?;
    let addr = handle.addr.to_string();
    let registered: Option<Vec<String>> = entries
        .iter()
        .map(|e| {
            let r = post(&addr, "/v1/designs", &register_body(e)).ok()?;
            let doc = json::parse(&r.body).ok()?;
            let fp = doc.get("fingerprint")?.as_str().ok()?;
            (r.status == 201).then(|| fp.to_string())
        })
        .collect();
    match registered {
        Some(fingerprints) => Some(Server {
            handle,
            addr,
            dir: dir.to_path_buf(),
            fingerprints,
        }),
        None => {
            handle.shutdown();
            None
        }
    }
}

fn stop(s: Server) {
    s.handle.shutdown();
    let _ = std::fs::remove_dir_all(&s.dir);
}

/// One completed request as the client saw it.
struct Rec {
    verb: Verb,
    ms: f64,
    trace_id: Option<String>,
    ok: bool,
    steps: u64,
    covered: bool,
}

/// Request bodies per design, built once.
struct Bodies {
    name: String,
    inputs: Json,
    register: String,
}

fn request_body(verb: Verb, e: &Entry, b: &Bodies, rng: &mut Rng) -> String {
    let design = ("design", Json::Str(b.name.clone()));
    match verb {
        Verb::Run => {
            let policy = ["maximal", "random-maximal", "single-random"][rng.below(3) as usize];
            Json::obj([
                design,
                ("inputs", b.inputs.clone()),
                ("steps", Json::Num(e.w.max_steps as i64)),
                ("policy", Json::Str(policy.into())),
                ("seed", Json::Num((rng.next_u64() >> 33) as i64)),
            ])
            .compact()
        }
        Verb::Check => Json::obj([
            design,
            ("inputs", b.inputs.clone()),
            ("steps", Json::Num(e.w.max_steps as i64)),
        ])
        .compact(),
        Verb::Cov | Verb::Lint => Json::obj([design]).compact(),
        Verb::Register => b.register.clone(),
    }
}

/// Check one response against the reference outputs and the verb's
/// contract; returns `(ok, steps simulated, coverage recorded)`.
fn verify(verb: Verb, r: &ClientResponse, e: &Entry, fingerprint: &str) -> (bool, u64, bool) {
    let Ok(doc) = json::parse(&r.body) else {
        return (false, 0, false);
    };
    let int = |k: &str| doc.get(k).and_then(|v| v.as_i64().ok());
    let flag = |k: &str| doc.get(k).and_then(|v| v.as_bool().ok());
    match verb {
        Verb::Run => {
            let outputs_ok = e.expected.iter().all(|(name, want)| {
                doc.get("outputs")
                    .and_then(|o| o.get(name))
                    .and_then(|v| v.as_arr().ok())
                    .is_some_and(|vs| {
                        vs.len() == want.len()
                            && vs
                                .iter()
                                .zip(want)
                                .all(|(v, w)| v.as_i64().ok() == Some(*w))
                    })
            });
            (
                r.status == 200 && outputs_ok,
                int("steps").unwrap_or(0).max(0) as u64,
                flag("coverage_recorded") == Some(true),
            )
        }
        Verb::Check => (r.status == 200 && flag("agree") == Some(true), 0, false),
        Verb::Cov => (r.status == 200 && doc.get("signature").is_some(), 0, false),
        Verb::Lint => (r.status == 200 && int("errors") == Some(0), 0, false),
        Verb::Register => (
            r.status == 200
                && flag("created") == Some(false)
                && doc.get("fingerprint").and_then(|f| f.as_str().ok()) == Some(fingerprint),
            0,
            false,
        ),
    }
}

/// The closed-loop load: `nproc` clients until `budget` has passed.
/// Returns every client's requests, the wall time, and one request and
/// response body per verb (the shapes the JSON probes time).
fn load(
    cfg: &Cfg,
    server: &Server,
    entries: &[Entry],
    bodies: &[Bodies],
    budget: Duration,
) -> (Vec<Rec>, Duration, Vec<String>) {
    let start = Instant::now();
    let per_client: Vec<(Vec<Rec>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.nproc)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = Rng::new(cfg.seed, 100 + c as u64);
                    let mut recs = Vec::new();
                    let mut shapes = Vec::new();
                    let mut seen = [false; 5];
                    while start.elapsed() < budget {
                        let verb = Verb::pick(&mut rng);
                        let k = rng.below(entries.len() as u64) as usize;
                        let body = request_body(verb, &entries[k], &bodies[k], &mut rng);
                        let t0 = Instant::now();
                        let resp = post(&server.addr, verb.path(), &body);
                        let ms = secs(t0.elapsed()) * 1e3;
                        let (ok, steps, covered, trace_id) = match &resp {
                            Ok(r) => {
                                let (ok, steps, covered) =
                                    verify(verb, r, &entries[k], &server.fingerprints[k]);
                                let vi = verb as usize;
                                if !seen[vi] && ok {
                                    seen[vi] = true;
                                    shapes.push(body);
                                    shapes.push(r.body.clone());
                                }
                                (
                                    ok,
                                    steps,
                                    covered,
                                    r.header("x-etpn-trace-id").map(String::from),
                                )
                            }
                            Err(_) => (false, 0, false, None),
                        };
                        recs.push(Rec {
                            verb,
                            ms,
                            trace_id,
                            ok,
                            steps,
                            covered,
                        });
                    }
                    (recs, shapes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut recs = Vec::new();
    let mut shapes = Vec::new();
    for (r, s) in per_client {
        recs.extend(r);
        if shapes.is_empty() {
            shapes = s;
        }
    }
    (recs, wall, shapes)
}

fn journal_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("cov.journal")).map_or(0, |m| m.len())
}

/// Run the workload for `seconds`.
pub fn pass(cfg: &Cfg, seconds: f64) -> Pass {
    let mut pass = Pass::default();
    let entries = catalog::with_expected(catalog::compile_all(), cfg.corrupt);
    let bodies: Vec<Bodies> = entries
        .iter()
        .map(|e| Bodies {
            name: e.d.name.clone(),
            inputs: Json::Obj(
                e.w.inputs
                    .iter()
                    .map(|(n, vs)| (n.clone(), json::num_arr(vs.iter().copied())))
                    .collect(),
            ),
            register: register_body(e),
        })
        .collect();

    // Set-up: start a server on a fresh data directory and register the
    // catalogue; repeated, the last server is kept. Stopping the previous
    // one is not part of set-up. The figure is the repetitions' 10th
    // percentile, as for the other workloads.
    let root = cfg.scratch.join(format!("serve-{}", std::process::id()));
    let mut times = Vec::new();
    let mut server = None;
    for i in 0..9 {
        if let Some(s) = server.take() {
            stop(s);
        }
        let t0 = Instant::now();
        server = start(cfg, &entries, &root.join(format!("setup-{i}")));
        times.push(secs(t0.elapsed()));
    }
    let setup_s = quantile(&mut times, 0.10);
    let Some(server) = server else {
        pass.check(false);
        let _ = std::fs::remove_dir_all(&root);
        return pass;
    };

    let journal_before = journal_bytes(&server.dir);
    let (recs, wall, shapes) = load(
        cfg,
        &server,
        &entries,
        &bodies,
        Duration::from_secs_f64(seconds),
    );
    for r in &recs {
        pass.check(r.ok);
    }
    let n = recs.len() as f64;
    let share = |v: Verb| recs.iter().filter(|r| r.verb == v).count() as f64 / n.max(1.0);
    pass.per_op = vec![
        ("designs", entries.len() as f64),
        ("run", share(Verb::Run)),
        ("lint", share(Verb::Lint)),
    ];

    if cfg.traced {
        telemetry(&server, &recs, &shapes, &mut pass);
    }
    let dir = server.dir.clone();
    server.handle.shutdown();
    if cfg.traced {
        let runs = recs.iter().filter(|r| r.covered).count().max(1);
        pass.layers.push(Metric::new(
            "persist.bytes_per_run",
            journal_bytes(&dir).saturating_sub(journal_before) as f64 / runs as f64,
            "bytes/run",
        ));
    }
    let _ = std::fs::remove_dir_all(&root);

    let ops = recs
        .iter()
        .map(|r| Op {
            ms: r.ms,
            steps: r.steps,
        })
        .collect();
    E2e {
        setup_s,
        ops,
        callers: cfg.nproc,
        wall_s: secs(wall),
    }
    .finish(&mut pass);
    pass
}

fn get(addr: &str, path: &str) -> Option<Json> {
    let r = etpn_serve::request(addr, "GET", path, None, TIMEOUT).ok()?;
    (r.status == 200)
        .then(|| json::parse(&r.body).ok())
        .flatten()
}

/// Span categories a request's time is attributed to, in report order.
const PARTS: [&str; 7] = [
    "queue_wait",
    "read",
    "route_self",
    "compile",
    "engine",
    "fleet_batch",
    "write",
];

/// Per-category time of one request's span tree, in µs. Each span counts
/// its self time — its duration minus the part of it its children cover —
/// except `fleet.batch`, which counts whole: its `fleet.job` children are
/// the batch's own work, run in parallel on the fleet's workers.
fn attribute(doc: &Json) -> Option<[f64; 7]> {
    struct S {
        id: i64,
        parent: i64,
        name: String,
        start: i64,
        dur: i64,
    }
    let mut spans = Vec::new();
    for ev in doc.get("traceEvents")?.as_arr().ok()? {
        if ev.get("ph").and_then(|p| p.as_str().ok()) != Some("X") {
            continue;
        }
        let args = ev.get("args")?;
        spans.push(S {
            id: args.get("span")?.as_i64().ok()?,
            parent: args.get("parent")?.as_i64().ok()?,
            name: ev.get("name")?.as_str().ok()?.to_string(),
            start: ev.get("ts")?.as_i64().ok()? * 1000,
            dur: args.get("ns")?.as_i64().ok()?,
        });
    }
    let mut parts = [0.0; 7];
    for s in &spans {
        let part = match s.name.as_str() {
            "queue.wait" => 0,
            "request.read" => 1,
            "route" => 2,
            "design.compile" => 3,
            "engine.run" => 4,
            "fleet.batch" => 5,
            "response.write" => 6,
            _ => continue,
        };
        let own = if part == 5 {
            s.dur
        } else {
            let end = s.start + s.dur;
            let mut kids: Vec<(i64, i64)> = spans
                .iter()
                .filter(|c| c.parent == s.id)
                .map(|c| (c.start.max(s.start), (c.start + c.dur).min(end)))
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, i64::MIN);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                }
                reach = reach.max(b);
            }
            (s.dur - covered).max(0)
        };
        parts[part] += own as f64 / 1e3;
    }
    Some(parts)
}

/// One sampled request: client latency, server total, and its split.
struct Sample {
    client_us: f64,
    total_us: f64,
    parts: [f64; 7],
}

/// Mean split of `samples` as a report row body.
fn split_row(label: &str, samples: &[&Sample]) -> String {
    let n = samples.len().max(1) as f64;
    let client = samples.iter().map(|s| s.client_us).sum::<f64>() / n;
    let pre = samples
        .iter()
        .map(|s| s.client_us - s.total_us)
        .sum::<f64>()
        / n;
    let mut row = format!(
        "\"row\": \"latency_split\", \"at\": \"{label}\", \"requests\": {}, \
         \"client_us\": {client:.1}, \"serve.pre_admit_us\": {pre:.1}",
        samples.len()
    );
    let mut accounted = pre;
    for (k, name) in PARTS.iter().enumerate() {
        let v = samples.iter().map(|s| s.parts[k]).sum::<f64>() / n;
        accounted += v;
        row.push_str(&format!(", \"serve.{name}_us\": {v:.1}"));
    }
    row.push_str(&format!(
        ", \"unaccounted_us\": {:.1}, \"accounted_share\": {:.4}",
        client - accounted,
        accounted / client
    ));
    row
}

/// Mean µs per call of `f` over every shape, median over repetitions.
fn per_doc_us<T>(docs: &[T], f: impl Fn(&T)) -> f64 {
    let mut reps: Vec<f64> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            for d in docs {
                f(d);
            }
            secs(t0.elapsed()) * 1e6 / docs.len().max(1) as f64
        })
        .collect();
    median(&mut reps)
}

/// Per-layer metrics from the server's own telemetry, joined to what the
/// clients saw by trace id.
fn telemetry(server: &Server, recs: &[Rec], shapes: &[String], pass: &mut Pass) {
    for v in Verb::ALL {
        let mut l: Vec<f64> = recs.iter().filter(|r| r.verb == v).map(|r| r.ms).collect();
        pass.layers.push(Metric::new(
            format!("serve.latency_p50_ms.{}", v.name()),
            quantile(&mut l, 0.5),
            "ms",
        ));
    }

    let docs: Vec<Json> = shapes.iter().filter_map(|s| json::parse(s).ok()).collect();
    pass.layers.push(Metric::new(
        "json.parse_us",
        per_doc_us(shapes, |s| {
            black_box(json::parse(s).ok());
        }),
        "us",
    ));
    pass.layers.push(Metric::new(
        "json.render_us",
        per_doc_us(&docs, |d| {
            black_box(d.compact());
        }),
        "us",
    ));

    // Server-side totals for every request, by trace id.
    let totals: HashMap<String, f64> = get(&server.addr, "/v1/debug/requests?limit=16384")
        .and_then(|d| {
            let reqs = d.get("requests")?.as_arr().ok()?.to_vec();
            Some(
                reqs.iter()
                    .filter_map(|r| {
                        let id = r.get("trace_id")?.as_str().ok()?.to_string();
                        Some((id, r.get("total_us")?.as_i64().ok()? as f64))
                    })
                    .collect(),
            )
        })
        .unwrap_or_default();
    let joined: Vec<(&Rec, f64)> = recs
        .iter()
        .filter_map(|r| Some((r, *totals.get(r.trace_id.as_ref()?)?)))
        .collect();
    pass.check(!joined.is_empty());
    let pre: Vec<f64> = joined.iter().map(|(r, t)| r.ms * 1e3 - t).collect();
    pass.layers
        .push(Metric::new("serve.pre_admit_us", mean(&pre), "us"));

    // Span trees of an evenly spaced sample of requests.
    let stride = (joined.len() / 400).max(1);
    let mut samples: Vec<Sample> = joined
        .iter()
        .step_by(stride)
        .filter_map(|(r, total)| {
            let doc = get(
                &server.addr,
                &format!("/v1/debug/trace/{}", r.trace_id.as_ref()?),
            )?;
            Some(Sample {
                client_us: r.ms * 1e3,
                total_us: *total,
                parts: attribute(&doc)?,
            })
        })
        .collect();
    pass.check(!samples.is_empty());
    let n = samples.len().max(1) as f64;
    let mut spans_total = 0.0;
    for (k, name) in PARTS.iter().enumerate() {
        let sum: f64 = samples.iter().map(|s| s.parts[k]).sum();
        spans_total += sum;
        pass.layers
            .push(Metric::new(format!("serve.{name}_us"), sum / n, "us"));
    }
    let server_total: f64 = samples.iter().map(|s| s.total_us).sum();
    pass.layers.push(Metric::new(
        "serve.span_accounted_frac",
        spans_total / server_total.max(1.0),
        "ratio",
    ));

    // The client-latency split, over every sample and around the median.
    samples.sort_by(|a, b| a.client_us.total_cmp(&b.client_us));
    let all: Vec<&Sample> = samples.iter().collect();
    let lo = samples.len() * 45 / 100;
    let hi = (samples.len() * 55 / 100).max(lo + 1).min(samples.len());
    pass.notes.push(split_row("mean", &all));
    pass.notes.push(split_row("p50", &all[lo..hi]));
}
