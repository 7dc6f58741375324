//! The `etpnd` server core: a bounded-admission worker pool over
//! `std::net::TcpListener`, with per-request deadlines, bounded retries,
//! per-design circuit breaking, graceful degradation and crash-safe
//! journals.
//!
//! ## Request lifecycle
//!
//! 1. The acceptor thread admits a connection into a **bounded queue**;
//!    when the queue is full the connection is answered `429` +
//!    `Retry-After` inline and dropped (load shedding, never unbounded
//!    buffering).
//! 2. A worker pops the connection, reads the request under a timeout,
//!    and routes it. Every verb that simulates threads a **deadline** —
//!    `min(deadline_ms, max)` measured from *admission*, so queueing time
//!    counts — into the engine's `wall_budget` (and each fleet job's).
//!    An expired deadline is `408`.
//! 3. Every simulation job runs inside the fleet's one isolation boundary
//!    ([`Fleet::run_contained`]): its first compiled-engine panic takes a
//!    **backend fallback** to the interpreter, later panics are retried
//!    under the shared [`RetryPolicy`] after a deterministic
//!    decorrelated-jitter delay, and each attempt's wall budget is clamped
//!    to the request deadline. One function ([`settle`]) maps the job's
//!    outcome to a status, a breaker outcome and counters for every verb.
//! 4. Outcomes feed the design's **circuit breaker**: retry exhaustion
//!    trips it, after which simulation verbs answer `503` (+`Retry-After`)
//!    while the diagnose-only verbs (`/v1/lint`, `/v1/cov`) stay open;
//!    a half-open probe after the cool-down decides recovery. Every
//!    admission is resolved through an RAII `BreakerTicket` — client
//!    faults abstain, panics unwinding through a verb count as failures —
//!    so no path (and no probe) can leave the breaker waiting.
//! 5. Coverage from successful runs merges into the design's [`CovDb`]
//!    and is appended to the **coverage journal** as a delta frame,
//!    which recovers a checksum-valid prefix on restart
//!    ([`crate::persist`]).
//!
//! ## Shutdown sequence
//!
//! `SIGTERM` (or [`ServerHandle::shutdown`]) → stop accepting → workers
//! drain the admitted queue → journal sync → exit.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use etpn_core::json::{self, Json};
use etpn_core::{EventKey, StructureDiff, Value};
use etpn_cov::CovDb;
use etpn_obs as obs;
use etpn_sim::fleet::panic_message;
use etpn_sim::{
    battery, Backend, BatteryGroup, BatteryVerdict, FiringPolicy, Fleet, RetryPolicy, RunSpec,
    ScriptedEnv, SimError, SimJob, Termination, Trace, Witness,
};

use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::debug::{DebugRing, RequestFilter, RequestSummary, TraceStore};
use crate::http::{read_request, ReadError, Request, Response};
use crate::persist::{split_trace_frame, stamp_trace_frame, Journal};
use crate::registry::{format_fingerprint, DesignEntry, RegisterError, Registry};
use crate::signal;
use obs::{TraceCtx, TraceId};

/// Server tuning. The defaults are sized for tests and small deployments;
/// `etpnd` exposes the operational knobs as flags.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Bounded admission queue depth; beyond it connections are shed
    /// with `429`.
    pub queue_depth: usize,
    /// Deadline applied when a request names none.
    pub default_deadline: Duration,
    /// Hard cap on client-requested deadlines.
    pub max_deadline: Duration,
    /// Per-connection read timeout.
    pub request_timeout: Duration,
    /// Journal/forensics directory; `None` disables persistence.
    pub data_dir: Option<PathBuf>,
    /// Circuit-breaker tuning shared by every design.
    pub breaker: BreakerConfig,
    /// Retry policy for panicked simulation jobs.
    pub retry: RetryPolicy,
    /// Queue depth at which coverage recording is shed (graceful
    /// degradation under pressure).
    pub cov_shed_depth: usize,
    /// Honour `"chaos"` request fields (tests only).
    pub allow_chaos: bool,
    /// Record request-scoped span trees (trace ids are issued either way;
    /// disabling skips span collection, the trace store and tail capture).
    pub tracing: bool,
    /// Completed-request summaries retained for `GET /v1/debug/requests`.
    pub debug_ring: usize,
    /// Full span trees retained for `GET /v1/debug/trace/<id>`.
    pub trace_store: usize,
    /// Tail-capture floor: a request is persisted as a forensic trace
    /// file only when it is errored, or slower than both this floor and
    /// the live p99 of its verb's latency histogram.
    pub slow_floor: Duration,
    /// Emit one structured JSON access-log line per request on stderr.
    pub access_log: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            default_deadline: Duration::from_secs(2),
            max_deadline: Duration::from_secs(30),
            request_timeout: Duration::from_secs(5),
            data_dir: None,
            breaker: BreakerConfig::default(),
            retry: RetryPolicy::decorrelated(
                2,
                Duration::from_millis(2),
                Duration::from_millis(50),
                0xE7D0_5EED,
            ),
            cov_shed_depth: 32,
            allow_chaos: false,
            tracing: true,
            debug_ring: 256,
            trace_store: 32,
            slow_floor: Duration::from_millis(25),
            access_log: false,
        }
    }
}

/// State shared by the acceptor, the workers and the handle.
struct Shared {
    cfg: ServerConfig,
    registry: Registry,
    stats: obs::Registry,
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    available: Condvar,
    draining: AtomicBool,
    request_seq: AtomicU64,
    /// The coverage journal (when persistence is enabled).
    cov_journal: Mutex<Option<Journal>>,
    debug: DebugRing,
    traces: TraceStore,
}

/// A running server: its bound address plus the drain control.
pub struct ServerHandle {
    /// The actually-bound address (useful with port `0`).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

/// Start a server. Binds, recovers journals, and spawns the acceptor and
/// worker threads; returns once the listener is live.
pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let registry = Registry::new(cfg.breaker);
    let stats = obs::Registry::new();
    let cov_journal = match &cfg.data_dir {
        Some(dir) => Some(open_cov_journal(dir, &registry, &stats)?),
        None => None,
    };

    let shared = Arc::new(Shared {
        registry,
        stats,
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        draining: AtomicBool::new(false),
        request_seq: AtomicU64::new(0),
        cov_journal: Mutex::new(cov_journal),
        debug: DebugRing::new(cfg.debug_ring),
        traces: TraceStore::new(cfg.trace_store),
        cfg,
    });

    let mut threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("etpnd-accept".into())
                .spawn(move || accept_loop(&shared, listener))
                .expect("spawn acceptor"),
        );
    }
    for i in 0..shared.cfg.workers.max(1) {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("etpnd-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker"),
        );
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

impl ServerHandle {
    /// Graceful drain: stop accepting, serve everything already admitted,
    /// sync the coverage journal, join all threads.
    /// Returns the final stats-JSON export (the complete life of the
    /// process, including the drain).
    pub fn shutdown(mut self) -> String {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        persist_final(&self.shared);
        refresh_gauges(&self.shared);
        obs::export::stats_json(&self.shared.stats)
    }

    /// Install the `SIGTERM`/`SIGINT` handler, block until a termination
    /// signal arrives, then drain. Returns the final stats-JSON export.
    pub fn run_until_term(self) -> String {
        signal::install_term_handler();
        while !signal::term_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown()
    }

    /// The server's observability registry (counters/gauges/histograms).
    pub fn stats_json(&self) -> String {
        refresh_gauges(&self.shared);
        obs::export::stats_json(&self.shared.stats)
    }
}

/// Open the coverage journal under `dir` and replay its recovered frames
/// into the registry (parked per-fingerprint until the design
/// re-registers).
fn open_cov_journal(
    dir: &std::path::Path,
    registry: &Registry,
    stats: &obs::Registry,
) -> std::io::Result<Journal> {
    let (cov, cov_rec) = Journal::open(&dir.join("cov.journal"))?;
    let mut cov_frames = 0u64;
    let mut bad = 0u64;
    for frame in &cov_rec.frames {
        // Frames written since tracing landed carry the originating
        // request's trace id; recovery strips it (and tolerates the old
        // bare format).
        // A frame that does not decode, or does not fit the coverage it
        // would merge into, is counted and skipped.
        let (_trace, payload) = split_trace_frame(frame);
        let absorbed =
            CovDb::from_bytes(payload).is_ok_and(|db| registry.absorb_recovered_cov(db).is_ok());
        if absorbed {
            cov_frames += 1;
        } else {
            bad += 1;
        }
    }
    stats
        .gauge("serve.recovered.cov_frames")
        .set(cov_frames as i64);
    stats
        .gauge("serve.recovered.truncated_bytes")
        .set(cov_rec.truncated as i64);
    stats.gauge("serve.recovered.bad_frames").set(bad as i64);
    Ok(cov)
}

/// Accept until drain: full queue → inline `429` shed; otherwise enqueue
/// with the admission timestamp (deadlines start here).
fn accept_loop(shared: &Shared, listener: TcpListener) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let stream = stream_ok(stream);
                let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                if q.len() >= shared.cfg.queue_depth {
                    // The backlog age — how long the oldest admitted
                    // connection has already waited — is the queue wait a
                    // shed request was refused into; it is what makes
                    // shedding tunable from data.
                    let backlog = q
                        .front()
                        .map(|(_, at)| at.elapsed())
                        .unwrap_or(Duration::ZERO);
                    drop(q);
                    shed(shared, stream, backlog);
                } else {
                    q.push_back((stream, Instant::now()));
                    drop(q);
                    shared.available.notify_one();
                    shared.stats.counter("serve.admitted").inc();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Dropping the listener here closes the accept socket; everything
    // already admitted is still served by the draining workers.
}

/// Re-queue helper: the accepted stream arrives non-blocking (inherited on
/// some platforms); force blocking for the request read.
fn stream_ok(stream: TcpStream) -> TcpStream {
    let _ = stream.set_nonblocking(false);
    stream
}

/// Answer one shed connection inline on the acceptor thread with `429` +
/// `Retry-After` + a trace id. The write is tiny and bounded; queueing the
/// connection — exactly what shedding exists to avoid — would be the
/// alternative. The request is never read, so a client-supplied trace
/// header cannot be honored here; the generated id still gives the caller
/// a handle the debug ring can answer for.
fn shed(shared: &Shared, mut stream: TcpStream, backlog: Duration) {
    let started = Instant::now();
    let trace_id = TraceId::generate();
    shared.stats.counter("serve.shed").inc();
    let queue_us = backlog.as_micros() as u64;
    shared
        .stats
        .histogram_with("serve.queue_wait_us", &[("outcome", "shed")])
        .record(queue_us);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let resp = Response::error(429, "admission queue full; retry shortly")
        .with_header("Retry-After", "1".into())
        .with_header("X-Etpn-Trace-Id", trace_id.to_string());
    let _ = resp.write_to(&mut stream);
    let service_us = started.elapsed().as_micros() as u64;
    let summary = RequestSummary {
        trace_id,
        verb: "shed",
        target: "(unread)".into(),
        design: None,
        status: 429,
        queue_us,
        service_us,
        total_us: queue_us + service_us,
        at_unix_ms: unix_ms(),
    };
    if shared.cfg.access_log {
        access_log_line(&summary);
    }
    shared.debug.push(summary);
    // Drain the unread request (bounded) before closing: dropping a socket
    // with pending input sends RST, which can destroy the 429 still in
    // the client's receive buffer. The budget is tight — this runs on the
    // acceptor thread, and a slow client must not be able to stall
    // admission for more than ~¾ s.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 4096];
    for _ in 0..8 {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Worker: pop admitted connections until the queue is empty *and* the
/// server is draining.
fn worker_loop(shared: &Shared) {
    loop {
        let popped = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(conn) = q.pop_front() {
                    break Some(conn);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };
        match popped {
            Some((stream, admitted)) => handle_conn(shared, stream, admitted),
            None => break,
        }
    }
}

/// Per-request context threaded through [`route`]: the verbs label
/// themselves and the design they resolved, and hang their spans (and
/// their fleet jobs' spans) off `ctx`.
struct ReqMeta {
    verb: &'static str,
    design: Option<String>,
    ctx: TraceCtx,
    trace_id: TraceId,
    /// Tail-capture this request's trace whatever its status and latency.
    capture: bool,
}

/// Milliseconds since the Unix epoch.
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Serve one connection: read, route (panic-contained), respond, close.
/// This is the one place a trace id is issued/honored, SLO histograms are
/// fed, the debug ring is written, and tail capture decides — so *every*
/// response path (including malformed 400s) flows through the same
/// observability spine.
fn handle_conn(shared: &Shared, mut stream: TcpStream, admitted: Instant) {
    let picked = Instant::now();
    let read = read_request(&mut stream, shared.cfg.request_timeout);
    let read_done = Instant::now();
    if let Err(ReadError::Io(_)) = &read {
        shared.stats.counter("serve.read_failures").inc();
        return; // nothing sensible to write, and no client to trace for
    }

    // Trace context: honor `X-Etpn-Trace-Id` when the client sent a valid
    // one, mint otherwise. The epoch is the *admission* instant, so queue
    // wait is part of the request's own timeline.
    let trace_id = read
        .as_ref()
        .ok()
        .and_then(|req| req.header("x-etpn-trace-id"))
        .and_then(TraceId::parse)
        .unwrap_or_else(TraceId::generate);
    let ctx = if shared.cfg.tracing {
        TraceCtx::root_at(trace_id, admitted)
    } else {
        TraceCtx::disabled()
    };
    ctx.record_between("queue.wait", admitted, picked);
    ctx.record_between("request.read", picked, read_done);

    let mut meta = ReqMeta {
        verb: "malformed",
        design: None,
        ctx: ctx.clone(),
        trace_id,
        capture: false,
    };
    let (response, target) = match read {
        Ok(req) => {
            let target = format!("{} {}", req.method, req.path);
            let route_span = ctx.span("route");
            meta.ctx = route_span.ctx();
            // A panic in routing must never take the worker down: contain
            // it and convert to a 500 carrying its message. If a design had
            // been admitted, the verb's BreakerTicket reports the failure as
            // it unwinds; before admission there is no design to blame.
            let resp = match catch_unwind(AssertUnwindSafe(|| {
                route(shared, &req, admitted, &mut meta)
            })) {
                Ok(resp) => resp,
                Err(payload) => {
                    shared.stats.counter("serve.route_panics").inc();
                    Response::error(500, &panic_message(payload.as_ref()))
                }
            };
            (resp, target)
        }
        Err(ReadError::Malformed(m)) => (Response::error(400, &m), "(malformed)".to_string()),
        Err(ReadError::TooLarge(m)) => (Response::error(413, &m), "(too-large)".to_string()),
        Err(ReadError::Io(_)) => unreachable!("handled above"),
    };
    let response = response.with_header("X-Etpn-Trace-Id", trace_id.to_string());
    shared
        .stats
        .counter(&format!("serve.status.{}xx", response.status / 100))
        .inc();
    {
        let _w = ctx.span("response.write");
        let _ = response.write_to(&mut stream);
    }
    drop(stream);

    let done = Instant::now();
    let queue_us = picked.saturating_duration_since(admitted).as_micros() as u64;
    let service_us = done.saturating_duration_since(picked).as_micros() as u64;
    let total_us = done.saturating_duration_since(admitted).as_micros() as u64;
    finish_request(
        shared,
        &ctx,
        RequestSummary {
            trace_id,
            verb: meta.verb,
            target,
            design: meta.design.take(),
            status: response.status,
            queue_us,
            service_us,
            total_us,
            at_unix_ms: unix_ms(),
        },
        meta.capture,
    );
}

/// The observability epilogue every completed request runs: SLO
/// histograms (per-verb and per-design latency, queue-wait vs. service
/// split), the access log, the debug ring, the trace store, and the
/// slow/errored tail capture (`capture` forces it).
fn finish_request(shared: &Shared, ctx: &TraceCtx, summary: RequestSummary, capture: bool) {
    let verb_hist = shared
        .stats
        .histogram_with("serve.latency_us", &[("verb", summary.verb)]);
    verb_hist.record(summary.total_us);
    shared
        .stats
        .histogram_with("serve.service_us", &[("verb", summary.verb)])
        .record(summary.service_us);
    shared
        .stats
        .histogram_with("serve.queue_wait_us", &[("outcome", "served")])
        .record(summary.queue_us);
    if let Some(design) = &summary.design {
        shared
            .stats
            .histogram_with("serve.design_latency_us", &[("design", design)])
            .record(summary.total_us);
    }
    // Kept from before the SLO plane: the all-verbs service-time
    // histogram external dashboards already scrape.
    shared
        .stats
        .histogram("serve.request_us")
        .record(summary.service_us);

    if shared.cfg.access_log {
        access_log_line(&summary);
    }

    if let Some(finished) = ctx.finish() {
        let errored = summary.status >= 500 || summary.status == 408;
        // Tail capture: above the live p99 *and* the absolute floor. The
        // p99 bound includes this request's own sample, so early traffic
        // is gated by the floor, steady state by the distribution.
        let snap = verb_hist.snapshot();
        let slow = summary.total_us >= shared.cfg.slow_floor.as_micros() as u64
            && summary.total_us >= snap.quantile_bound(0.99);
        let finished = Arc::new(finished);
        if errored || slow || capture {
            shared.stats.counter("serve.trace_captures").inc();
            if let Some(dir) = shared.cfg.data_dir.as_ref() {
                let dir = dir.join("traces");
                if std::fs::create_dir_all(&dir).is_ok() {
                    let _ = std::fs::write(
                        dir.join(format!("{}.trace.json", summary.trace_id)),
                        finished.chrome_json(),
                    );
                }
            }
        }
        shared.traces.insert(finished);
    }
    shared.debug.push(summary);
}

/// One structured JSON access-log line on stderr.
fn access_log_line(s: &RequestSummary) {
    let mut doc = vec![
        ("t", Json::Str("access".into())),
        ("at_unix_ms", Json::Num(s.at_unix_ms as i64)),
        ("trace_id", Json::Str(s.trace_id.to_string())),
        ("verb", Json::Str(s.verb.to_string())),
        ("target", Json::Str(s.target.clone())),
        ("status", Json::Num(i64::from(s.status))),
        ("queue_us", Json::Num(s.queue_us as i64)),
        ("service_us", Json::Num(s.service_us as i64)),
        ("total_us", Json::Num(s.total_us as i64)),
    ];
    if let Some(d) = &s.design {
        doc.push(("design", Json::Str(d.clone())));
    }
    eprintln!("{}", Json::obj(doc).compact());
}

/// Route one parsed request, labelling `meta` (verb, design, spans) for
/// the observability epilogue as it goes.
fn route(shared: &Shared, req: &Request, admitted: Instant, meta: &mut ReqMeta) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            meta.verb = "healthz";
            Response::json(
                200,
                &Json::obj([
                    ("ok", Json::Bool(true)),
                    (
                        "draining",
                        Json::Bool(shared.draining.load(Ordering::SeqCst)),
                    ),
                ]),
            )
        }
        ("GET", "/stats") => {
            meta.verb = "stats";
            refresh_gauges(shared);
            let mut r = Response::text(200, obs::export::stats_json(&shared.stats));
            r.content_type = "application/json";
            r
        }
        ("GET", "/metrics") => {
            meta.verb = "metrics";
            refresh_gauges(shared);
            Response::text(200, obs::export::prometheus_text(&shared.stats))
        }
        ("GET", "/v1/designs") => {
            meta.verb = "designs";
            list_designs(shared)
        }
        ("POST", "/v1/designs") => {
            meta.verb = "register";
            register_design(shared, req, meta)
        }
        ("POST", "/v1/run") => {
            meta.verb = "run";
            run_verb(shared, req, admitted, meta)
        }
        ("POST", "/v1/check") => {
            meta.verb = "check";
            check_verb(shared, req, admitted, meta)
        }
        ("POST", "/v1/cov") => {
            meta.verb = "cov";
            cov_verb(shared, req, meta)
        }
        ("POST", "/v1/lint") => {
            meta.verb = "lint";
            lint_verb(shared, req, meta)
        }
        ("POST", "/v1/fault") => {
            meta.verb = "fault";
            fault_verb(shared, req, admitted, meta)
        }
        ("GET", "/v1/debug/requests") => {
            meta.verb = "debug";
            debug_requests(shared, req)
        }
        ("GET", p) if p.starts_with("/v1/debug/trace/") => {
            meta.verb = "debug";
            debug_trace(shared, &p["/v1/debug/trace/".len()..])
        }
        (_, p) if p.starts_with("/v1/debug/") => {
            meta.verb = "debug";
            Response::error(405, &format!("{} not allowed here", req.method))
        }
        (
            _,
            "/healthz" | "/stats" | "/metrics" | "/v1/designs" | "/v1/run" | "/v1/check"
            | "/v1/cov" | "/v1/lint" | "/v1/fault",
        ) => {
            meta.verb = "unmatched";
            Response::error(405, &format!("{} not allowed here", req.method))
        }
        _ => {
            meta.verb = "unmatched";
            Response::error(404, &format!("no such endpoint {}", req.path))
        }
    }
}

/// `GET /v1/debug/requests` — the ring of recent completions, optionally
/// filtered by `verb`, `status`, `design` and `min_latency_us`, newest
/// first, capped at `limit` (default 50).
fn debug_requests(shared: &Shared, req: &Request) -> Response {
    let status = match req.query("status").map(str::parse::<u16>) {
        None => None,
        Some(Ok(v)) => Some(v),
        Some(Err(_)) => return Response::error(400, "query `status` must be a status code"),
    };
    let min_total_us = match req.query("min_latency_us").map(str::parse::<u64>) {
        None => None,
        Some(Ok(v)) => Some(v),
        Some(Err(_)) => return Response::error(400, "query `min_latency_us` must be a number"),
    };
    let limit = match req.query("limit").map(str::parse::<usize>) {
        None => 50,
        Some(Ok(v)) if v >= 1 => v,
        _ => return Response::error(400, "query `limit` must be a positive number"),
    };
    let filter = RequestFilter {
        verb: req.query("verb").map(str::to_string),
        status,
        design: req.query("design").map(str::to_string),
        min_total_us,
    };
    let requests: Vec<Json> = shared
        .debug
        .recent(&filter, limit)
        .iter()
        .map(RequestSummary::to_json)
        .collect();
    Response::json(
        200,
        &Json::obj([
            ("pushed", Json::Num(shared.debug.pushed() as i64)),
            ("capacity", Json::Num(shared.debug.capacity() as i64)),
            ("requests", Json::Arr(requests)),
        ]),
    )
}

/// `GET /v1/debug/trace/<id>` — a retained request's full span tree as
/// Chrome `trace_event` JSON.
fn debug_trace(shared: &Shared, id: &str) -> Response {
    let Some(trace_id) = TraceId::parse(id) else {
        return Response::error(400, "malformed trace id");
    };
    match shared.traces.get(trace_id) {
        Some(trace) => {
            let mut r = Response::text(200, trace.chrome_json());
            r.content_type = "application/json";
            r
        }
        None => Response::error(404, &format!("no retained trace {trace_id}")),
    }
}

/// Parse the request body as a JSON object (empty body = empty object).
fn body_json(req: &Request) -> Result<Json, Response> {
    if req.body.is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    let text =
        std::str::from_utf8(&req.body).map_err(|_| Response::error(400, "body is not UTF-8"))?;
    json::parse(text).map_err(|e| Response::error(400, &e.to_string()))
}

/// Parse a design verb's body and resolve its `design` key, labelling
/// `meta` with the design.
fn resolve_design(
    shared: &Shared,
    req: &Request,
    meta: &mut ReqMeta,
) -> Result<(Json, Arc<DesignEntry>), Response> {
    let body = body_json(req)?;
    let key = body
        .get("design")
        .and_then(|d| d.as_str().ok())
        .ok_or_else(|| Response::error(400, "missing string field `design`"))?;
    let entry = shared
        .registry
        .get(key)
        .ok_or_else(|| Response::error(404, &format!("unknown design `{key}`")))?;
    meta.design = Some(entry.design.name.clone());
    Ok((body, entry))
}

/// Admission through the design's breaker; simulation verbs only.
fn admit_breaker(shared: &Shared, entry: &DesignEntry) -> Result<Admission, Response> {
    match entry.breaker.admit() {
        Admission::Deny { retry_after } => {
            shared.stats.counter("serve.breaker_denied").inc();
            let secs = retry_after.as_secs().max(1);
            Err(Response::json(
                503,
                &Json::obj([
                    (
                        "error",
                        Json::Str(format!(
                            "design `{}` is degraded to diagnose-only mode; try /v1/lint or /v1/cov",
                            entry.design.name
                        )),
                    ),
                    ("status", Json::Num(503)),
                    ("breaker", Json::Str(entry.breaker.state_name().into())),
                ]),
            )
            .with_header("Retry-After", secs.to_string()))
        }
        a => Ok(a),
    }
}

/// RAII outcome guard for one breaker admission.
///
/// An admission — above all the half-open **probe** — is owed exactly one
/// outcome, or the breaker wedges the design at diagnose-only. The guard
/// makes "every exit path reports" structural instead of by-convention:
/// the simulation paths resolve explicitly with [`BreakerTicket::success`]
/// or [`BreakerTicket::failure`], and dropping an unresolved ticket covers
/// everything else — an early 4xx return that never exercised the design
/// abstains (probe re-arms, failure streak untouched), and a panic
/// unwinding through the verb counts as the internal failure it is.
struct BreakerTicket<'a> {
    breaker: &'a CircuitBreaker,
    resolved: bool,
}

impl<'a> BreakerTicket<'a> {
    fn new(breaker: &'a CircuitBreaker) -> Self {
        Self {
            breaker,
            resolved: false,
        }
    }

    /// The design was exercised and behaved (including request-class
    /// `SimError`s): closes the breaker, resets the streak.
    fn success(mut self) {
        self.resolved = true;
        self.breaker.on_success();
    }

    /// Internal failure (retry-exhausted panic): advances/trips.
    fn failure(mut self) {
        self.resolved = true;
        self.breaker.on_failure();
    }
}

impl Drop for BreakerTicket<'_> {
    fn drop(&mut self) {
        if self.resolved {
            return;
        }
        if std::thread::panicking() {
            self.breaker.on_failure();
        } else {
            self.breaker.on_abstain();
        }
    }
}

/// `GET /v1/designs`.
fn list_designs(shared: &Shared) -> Response {
    let designs: Vec<Json> = shared
        .registry
        .entries()
        .iter()
        .map(|e| {
            let cov = e.cov.lock().unwrap_or_else(|p| p.into_inner());
            Json::obj([
                ("name", Json::Str(e.design.name.clone())),
                ("fingerprint", Json::Str(format_fingerprint(e.fingerprint))),
                ("breaker", Json::Str(e.breaker.state_name().into())),
                ("cov_runs", Json::Num(cov.runs as i64)),
            ])
        })
        .collect();
    Response::json(200, &Json::obj([("designs", Json::Arr(designs))]))
}

/// `POST /v1/designs` — compile and register a source.
fn register_design(shared: &Shared, req: &Request, meta: &mut ReqMeta) -> Response {
    let body = match body_json(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let Some(source) = body.get("source").and_then(|s| s.as_str().ok()) else {
        return Response::error(400, "missing string field `source`");
    };
    let registered = {
        let _s = meta.ctx.span("design.compile");
        shared.registry.register(source)
    };
    match registered {
        Ok((entry, created)) => {
            meta.design = Some(entry.design.name.clone());
            Response::json(
                if created { 201 } else { 200 },
                &Json::obj([
                    ("name", Json::Str(entry.design.name.clone())),
                    (
                        "fingerprint",
                        Json::Str(format_fingerprint(entry.fingerprint)),
                    ),
                    ("created", Json::Bool(created)),
                ]),
            )
        }
        Err(e @ RegisterError::Compile(_)) => Response::error(422, &e.to_string()),
        // One tenant must not silently re-point another tenant's design
        // name; the refusal names the holder so the caller can address it
        // by fingerprint or pick a fresh name.
        Err(e @ RegisterError::NameTaken { .. }) => Response::error(409, &e.to_string()),
    }
}

/// Every run field a simulation request may carry, with the JSON type it
/// must have when present.
const RUN_FIELDS: [(&str, &str); 9] = [
    ("inputs", "an object"),
    ("steps", "an integer"),
    ("seed", "an integer"),
    ("deadline_ms", "an integer"),
    ("seeds", "an integer"),
    ("jobs", "an integer"),
    ("policy", "a string"),
    ("backend", "a string"),
    ("repeat_last", "a boolean"),
];

/// The run a simulation request asks for: its [`RunSpec`] — registers
/// from the design entry, and a wall budget of whatever the request
/// deadline (`min(deadline_ms, max)` from admission) has left — plus its
/// environment. Every simulating verb derives its jobs from this by
/// overriding fields. A run field present with the wrong JSON type is a
/// `400` naming it; absent fields keep their defaults and out-of-range
/// numbers are clamped. An already expired deadline is the ready-to-send
/// `408`.
fn run_spec(
    shared: &Shared,
    entry: &DesignEntry,
    body: &Json,
    admitted: Instant,
) -> Result<(RunSpec, ScriptedEnv), Response> {
    for (field, kind) in RUN_FIELDS {
        let found = match body.get(field) {
            None => continue,
            Some(Json::Num(_)) => "an integer",
            Some(Json::Str(_)) => "a string",
            Some(Json::Bool(_)) => "a boolean",
            Some(Json::Obj(_)) => "an object",
            Some(_) => "",
        };
        if found != kind {
            let msg = format!("field `{field}` must be {kind}");
            return Err(Response::error(400, &msg));
        }
    }
    let int = |field| body.get(field).and_then(|v| v.as_i64().ok());
    let text = |field| body.get(field).and_then(|v| v.as_str().ok());

    let requested = int("deadline_ms")
        .filter(|&ms| ms > 0)
        .map(|ms| Duration::from_millis(ms as u64))
        .unwrap_or(shared.cfg.default_deadline)
        .min(shared.cfg.max_deadline);
    let remaining = requested.checked_sub(admitted.elapsed()).ok_or_else(|| {
        shared.stats.counter("serve.deadline_expired").inc();
        Response::error(408, "deadline expired before the request ran")
    })?;
    let seed = int("seed").unwrap_or(0) as u64;
    let policy = match text("policy") {
        None => FiringPolicy::MaximalStep,
        Some(name) => POLICY_NAMES
            .iter()
            .position(|&n| n == name)
            .and_then(|tag| FiringPolicy::decode(tag as u8, seed))
            .ok_or_else(|| Response::error(400, &format!("unknown policy `{name}`")))?,
    };
    // `interp` selects the reference interpreter.
    let backend = match text("backend") {
        None => Backend::default(),
        Some(name) => name
            .parse()
            .map_err(|()| Response::error(400, &format!("unknown backend `{name}`")))?,
    };
    let mut env = ScriptedEnv::new();
    if let Some(Json::Obj(pairs)) = body.get("inputs") {
        for (name, values) in pairs {
            let vals = values
                .as_arr()
                .and_then(|arr| arr.iter().map(Json::as_i64).collect::<Result<Vec<_>, _>>())
                .map_err(|e| Response::error(400, &format!("field `inputs.{name}`: {e}")))?;
            env = env.with_stream(name, vals);
        }
    }
    if body.get("repeat_last") == Some(&Json::Bool(true)) {
        env = env.repeat_last();
    }
    let spec = RunSpec {
        backend,
        policy,
        max_steps: int("steps")
            .filter(|&n| n > 0)
            .map_or(10_000, |n| n as u64)
            .min(1_000_000_000),
        registers: entry.design.reg_inits.clone(),
        wall_budget: Some(remaining),
        ..RunSpec::default()
    };
    Ok((spec, env))
}

/// `POST /v1/run` — simulate under the full robustness envelope.
fn run_verb(shared: &Shared, req: &Request, admitted: Instant, meta: &mut ReqMeta) -> Response {
    let (body, entry) = match resolve_design(shared, req, meta) {
        Ok(r) => r,
        Err(r) => return r,
    };
    if let Err(r) = admit_breaker(shared, &entry) {
        return r;
    }
    // From here on, every path owes the admission an outcome; early
    // returns abstain via the ticket's drop (client faults are neither
    // success nor failure, and must never leak a half-open probe).
    let ticket = BreakerTicket::new(&entry.breaker);
    let (spec, env) = match run_spec(shared, &entry, &body, admitted) {
        Ok(r) => r,
        Err(r) => return r,
    };
    let chaos = body
        .get("chaos")
        .and_then(|c| c.as_str().ok())
        .filter(|_| shared.cfg.allow_chaos);

    // Graceful degradation: above the watermark, stop paying for coverage.
    let depth = shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
    let want_cov = if depth >= shared.cfg.cov_shed_depth {
        shared.stats.counter("serve.cov_shed").inc();
        false
    } else {
        true
    };

    let token = shared.request_seq.fetch_add(1, Ordering::Relaxed);
    let deadline_at = Instant::now() + spec.wall_budget.unwrap_or_default();
    let job = SimJob::from_spec(
        &entry.design.etpn,
        env,
        RunSpec {
            coverage: want_cov,
            ..spec
        },
    );
    let done = Fleet::new(1)
        .with_retry_policy(shared.cfg.retry)
        .with_deadline_at(deadline_at)
        .run_contained(&job.spec, token, |attempt, spec| {
            let _s = meta.ctx.span_arg("engine.run", "attempt", attempt as i64);
            let strike = chaos == Some("panic")
                || (chaos == Some("panic_compiled") && spec.backend == Backend::Compiled);
            if strike {
                panic!("chaos: injected panic before simulation");
            }
            job.run_with(spec)
        });
    for (name, n) in [
        ("serve.job_panics", done.panics),
        ("serve.retries", done.retries),
        ("serve.backend_fallbacks", done.fallbacks),
    ] {
        if n > 0 {
            shared.stats.counter(name).add(n);
        }
    }
    if let Err(SimError::Panicked { message, .. }) = &done.result {
        forensics(shared, &entry, req, &job, message, token, meta.trace_id);
    }
    if let Ok(Trace { cov: Some(cov), .. }) = &done.result {
        absorb_coverage(shared, &entry, cov, meta.trace_id);
    }
    let outcome = done.result.as_ref().map(|t| (t.termination, t.steps));
    if let Some(r) = settle(shared, &entry.design.etpn, ticket, outcome, false) {
        return r;
    }
    let Ok(trace) = done.result else {
        unreachable!("settle answers every error")
    };
    let outputs: Vec<(String, Json)> = entry
        .design
        .etpn
        .dp
        .output_vertices()
        .into_iter()
        .map(|v| {
            let name = entry.design.etpn.dp.vertex(v).name.clone();
            let values = trace.values_on_named_output(&entry.design.etpn, &name);
            (name, Json::Arr(values.into_iter().map(Json::Num).collect()))
        })
        .collect();
    Response::json(
        200,
        &Json::obj([
            ("termination", Json::Str(trace.termination.name().into())),
            ("steps", Json::Num(trace.steps as i64)),
            ("firings", Json::Num(trace.firings as i64)),
            ("events", Json::Num(trace.events.len() as i64)),
            ("backend", Json::Str(done.backend.name().into())),
            ("coverage_recorded", Json::Bool(want_cov)),
            ("outputs", Json::Obj(outputs)),
        ]),
    )
}

/// `POST /v1/check` — the policy-invariance battery over a deadline-bounded
/// fleet: the design's event structure must be identical under every
/// firing policy (Def. 3.2).
fn check_verb(shared: &Shared, req: &Request, admitted: Instant, meta: &mut ReqMeta) -> Response {
    let (body, entry) = match resolve_design(shared, req, meta) {
        Ok(r) => r,
        Err(r) => return r,
    };
    if let Err(r) = admit_breaker(shared, &entry) {
        return r;
    }
    // Client-fault early returns abstain via the ticket's drop.
    let ticket = BreakerTicket::new(&entry.breaker);
    let (spec, env) = match run_spec(shared, &entry, &body, admitted) {
        Ok(r) => r,
        Err(r) => return r,
    };
    let int = |field, min, default, max| {
        let n = body.get(field).and_then(|v| v.as_i64().ok());
        n.filter(|&n| n >= min).unwrap_or(default).min(max)
    };
    let (seeds, workers) = (int("seeds", 0, 2, 16) as u64, int("jobs", 1, 2, 8) as usize);
    // One *absolute* deadline for the whole battery: each attempt's budget
    // is the time left when it starts, so queueing the battery on the
    // fleet workers cannot multiply the request deadline job-by-job.
    let fleet = Fleet::new(workers)
        .with_retry_policy(shared.cfg.retry)
        .with_deadline_at(Instant::now() + spec.wall_budget.unwrap_or_default());
    // Every battery job carries a clone of the batch span's context, so
    // however the fleet's work-stealing schedules them, each `fleet.job`
    // span lands in this request's tree, parented under `fleet.batch`.
    let batch_span = meta
        .ctx
        .span_arg("fleet.batch", "jobs", 1 + 2 * seeds as i64);
    let proto = SimJob::from_spec(&entry.design.etpn, env, spec).with_trace(batch_span.ctx());
    let group = BatteryGroup::policies(&proto, seeds);
    let v = battery(&fleet, vec![group]).verdicts.remove(0);
    drop(batch_span);

    // A compared job that panicked through its retries is an internal
    // fault even though the battery as a whole completed.
    let outcome = v.reference.as_ref().map(|t| (t.termination, t.steps));
    if let Some(r) = settle(shared, &entry.design.etpn, ticket, outcome, v.panicked > 0) {
        return r;
    }
    // A disagreeing battery (`agree` false) is tail-captured like a 5xx.
    meta.capture |= v.divergent > 0 || v.failed > 0;
    Response::json(200, &check_json(&entry.design.etpn, &v))
}

/// Policy names as request bodies and `/v1/check` witnesses spell them,
/// indexed by [`FiringPolicy::encode`]'s tag.
const POLICY_NAMES: [&str; 3] = ["maximal", "random-maximal", "single-random"];

/// The `/v1/check` body for a battery whose reference completed: the
/// counts, `agree`, and the witness of the first divergence, if any.
fn check_json(g: &etpn_core::Etpn, v: &BatteryVerdict) -> Json {
    // Every compared job was compared, cut or failed.
    let policies = 1 + v.compared + v.cut + v.failed;
    let mut doc = vec![
        ("policies", Json::Num(policies as i64)),
        ("compared", Json::Num(v.compared as i64)),
        ("divergent", Json::Num(v.divergent as i64)),
        ("budget_cut", Json::Num(v.cut as i64)),
        ("failed", Json::Num(v.failed as i64)),
        ("panicked", Json::Num(v.panicked as i64)),
        ("agree", Json::Bool(v.divergent == 0 && v.failed == 0)),
    ];
    if let Some(w) = &v.witness {
        doc.push(("witness", witness_json(g, w)));
    }
    Json::obj(doc)
}

/// A [`Witness`] as JSON: the kind, the event (arc, external vertex,
/// occurrence `k`) and each side's policy, seed and value — an integer,
/// `null` for ⊥, or no `value` when that side has no such event. A `≺`/`≍`
/// witness names its second event under `then` and the side that has the
/// pair under `present_in`.
fn witness_json(g: &etpn_core::Etpn, w: &Witness) -> Json {
    let event = |key: EventKey| {
        let vertex = g.dp.external_port(key.arc).map_or(Json::Null, |p| {
            Json::Str(g.dp.vertex(g.dp.port(p).vertex).name.clone())
        });
        [
            ("arc", Json::Str(key.arc.to_string())),
            ("vertex", vertex),
            ("k", Json::Num(i64::from(key.k))),
        ]
    };
    let side = |policy: FiringPolicy, value: Option<Value>| {
        let (tag, seed) = policy.encode();
        let mut doc = vec![
            ("policy", Json::Str(POLICY_NAMES[usize::from(tag)].into())),
            ("seed", Json::Num(seed as i64)),
        ];
        if let Some(v) = value {
            doc.push(("value", v.as_i64().map_or(Json::Null, Json::Num)));
        }
        Json::obj(doc)
    };
    let (kind, first, then, lhs, rhs) = match w.diff {
        StructureDiff::Event { arc, k, lhs, rhs } => ("event", EventKey { arc, k }, None, lhs, rhs),
        StructureDiff::Precedent { pair, in_lhs } => {
            ("precedent", pair.0, Some((pair.1, in_lhs)), None, None)
        }
        StructureDiff::Concurrent { pair, in_lhs } => {
            ("concurrent", pair.0, Some((pair.1, in_lhs)), None, None)
        }
    };
    let mut doc = vec![
        ("job", Json::Num(w.job as i64)),
        ("kind", Json::Str(kind.into())),
    ];
    doc.extend(event(first));
    if let Some((then, in_lhs)) = then {
        doc.push(("then", Json::obj(event(then))));
        let side = if in_lhs { "reference" } else { "compared" };
        doc.push(("present_in", Json::Str(side.into())));
    }
    doc.push(("reference", side(w.reference, lhs)));
    doc.push(("compared", side(w.compared, rhs)));
    Json::obj(doc)
}

/// `POST /v1/cov` — coverage read-out; allowed in degraded mode.
fn cov_verb(shared: &Shared, req: &Request, meta: &mut ReqMeta) -> Response {
    let entry = match resolve_design(shared, req, meta) {
        Ok((_, e)) => e,
        Err(r) => return r,
    };
    let cov = entry.cov.lock().unwrap_or_else(|e| e.into_inner());
    let (places, transitions, arcs, guards, toggles) = cov.covered_counts();
    Response::json(
        200,
        &Json::obj([
            ("runs", Json::Num(cov.runs as i64)),
            ("steps", Json::Num(cov.steps as i64)),
            (
                "covered",
                Json::obj([
                    ("places", Json::Num(places as i64)),
                    ("transitions", Json::Num(transitions as i64)),
                    ("arcs", Json::Num(arcs as i64)),
                    ("guards", Json::Num(guards as i64)),
                    ("toggles", Json::Num(toggles as i64)),
                ]),
            ),
            ("signature", Json::Str(format!("{:#018x}", cov.signature()))),
        ]),
    )
}

/// `POST /v1/lint` — the diagnose-only verb; always available, breaker or
/// not (this is what "degraded mode" degrades *to*).
fn lint_verb(shared: &Shared, req: &Request, meta: &mut ReqMeta) -> Response {
    let entry = match resolve_design(shared, req, meta) {
        Ok((_, e)) => e,
        Err(r) => return r,
    };
    let report = etpn_lint::lint_compiled(&entry.design, &etpn_lint::LintConfig::default());
    let (errors, warnings, notes) = report.counts();
    Response::json(
        200,
        &Json::obj([
            ("errors", Json::Num(errors as i64)),
            ("warnings", Json::Num(warnings as i64)),
            ("notes", Json::Num(notes as i64)),
            ("clean", Json::Bool(errors == 0 && warnings == 0)),
            ("breaker", Json::Str(entry.breaker.state_name().into())),
        ]),
    )
}

/// `POST /v1/fault` — a bounded single-fault campaign.
fn fault_verb(shared: &Shared, req: &Request, admitted: Instant, meta: &mut ReqMeta) -> Response {
    let (body, entry) = match resolve_design(shared, req, meta) {
        Ok(r) => r,
        Err(r) => return r,
    };
    if let Err(r) = admit_breaker(shared, &entry) {
        return r;
    }
    // Client-fault early returns abstain via the ticket's drop.
    let ticket = BreakerTicket::new(&entry.breaker);
    let (spec, env) = match run_spec(shared, &entry, &body, admitted) {
        Ok(r) => r,
        Err(r) => return r,
    };
    // The fleet's deadline is absolute across the whole campaign, golden
    // runs included: a burner design must not hold a worker past the
    // request deadline, and a deep fault queue cannot multiply it. Faulty
    // jobs cut by it classify as hangs; a golden run cut by it settles as
    // `/v1/run` does.
    let fleet = Fleet::new(2)
        .with_retry_policy(shared.cfg.retry)
        .with_deadline_at(Instant::now() + spec.wall_budget.unwrap_or_default());
    let proto = SimJob::from_spec(&entry.design.etpn, env, spec);
    let cfg = etpn_sim::CampaignConfig {
        forensics: false,
        ..etpn_sim::CampaignConfig::default()
    };
    let result = {
        let _s = meta.ctx.span("fault.campaign");
        etpn_sim::run_campaign(&proto, &cfg, &fleet)
    };
    let outcome = result
        .as_ref()
        .map(|r| (r.golden_termination, r.golden_steps));
    if let Some(r) = settle(shared, &entry.design.etpn, ticket, outcome, false) {
        return r;
    }
    let Ok(report) = result else {
        unreachable!("settle answers every error")
    };
    use etpn_sim::FaultClass;
    Response::json(
        200,
        &Json::obj([
            ("faults", Json::Num(report.outcomes.len() as i64)),
            ("masked", Json::Num(report.count(FaultClass::Masked) as i64)),
            (
                "silent",
                Json::Num(report.count(FaultClass::SilentCorruption) as i64),
            ),
            (
                "detected",
                Json::Num(report.count(FaultClass::Detected) as i64),
            ),
            ("hangs", Json::Num(report.count(FaultClass::Hang) as i64)),
            ("golden_unchanged", Json::Bool(report.golden_unchanged)),
        ]),
    )
}

/// How a simulating verb's job ended, classified once for every verb: the
/// response unless the job completed (`None`), the breaker outcome and
/// the counters. `outcome` is the job's error, or how its run ended and
/// after how many steps (for `/v1/fault`, the golden run). A job that
/// panicked through its retries is an internal fault: `500`, and the
/// breaker counts a failure. Any other `SimError` is a property of the
/// request (bad environment, unsafe design): `422`, and the breaker counts
/// a success, so a client cannot degrade a healthy design for every
/// tenant. A run the wall budget cut is `408`, also a success. A completed
/// job counts as a failure only when `panicked` says another job of the
/// verb panicked through its retries.
fn settle(
    shared: &Shared,
    g: &etpn_core::Etpn,
    ticket: BreakerTicket<'_>,
    outcome: Result<(Termination, u64), &SimError>,
    panicked: bool,
) -> Option<Response> {
    let (failed, response) = match outcome {
        Err(e @ SimError::Panicked { .. }) => (true, Some(Response::error(500, &e.describe(g)))),
        Err(e) => (false, Some(Response::error(422, &e.describe(g)))),
        Ok((termination @ Termination::Budget, steps)) => {
            shared.stats.counter("serve.deadline_expired").inc();
            let doc = Json::obj([
                ("error", Json::Str("deadline exceeded mid-run".into())),
                ("status", Json::Num(408)),
                ("termination", Json::Str(termination.name().into())),
                ("steps", Json::Num(steps as i64)),
            ]);
            (false, Some(Response::json(408, &doc)))
        }
        Ok(_) => (panicked, None),
    };
    if failed {
        shared.stats.counter("serve.failures").inc();
        ticket.failure();
    } else {
        ticket.success();
    }
    response
}

/// Merge run coverage into the design's DB and journal the delta frame,
/// stamped with the originating request's trace id.
fn absorb_coverage(shared: &Shared, entry: &DesignEntry, delta: &CovDb, trace_id: TraceId) {
    {
        let mut cov = entry.cov.lock().unwrap_or_else(|e| e.into_inner());
        let _ = cov.merge(delta);
    }
    let mut journal = shared.cov_journal.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(j) = journal.as_mut() {
        if j.append(&stamp_trace_frame(trace_id.0, &delta.to_bytes()))
            .is_err()
        {
            shared.stats.counter("serve.journal_errors").inc();
        }
    }
}

/// Final persistence on drain: sync the coverage journal to stable
/// storage.
fn persist_final(shared: &Shared) {
    let mut journal = shared.cov_journal.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(j) = journal.as_mut() {
        let _ = j.sync();
    }
}

/// Record what we can about a request that exhausted its retries: the
/// request body and panic text, plus (best effort) a flight recording of
/// an interpreter re-run for divergence forensics.
fn forensics(
    shared: &Shared,
    entry: &DesignEntry,
    req: &Request,
    job: &SimJob,
    panic_msg: &str,
    token: u64,
    trace_id: TraceId,
) {
    shared.stats.counter("serve.forensics").inc();
    let Some(dir) = shared.cfg.data_dir.as_ref() else {
        return;
    };
    let dir = dir.join("forensics");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let stem = format!("{}-{token:06}", format_fingerprint(entry.fingerprint));
    let doc = Json::obj([
        ("design", Json::Str(entry.design.name.clone())),
        (
            "fingerprint",
            Json::Str(format_fingerprint(entry.fingerprint)),
        ),
        ("trace_id", Json::Str(trace_id.to_string())),
        ("panic", Json::Str(panic_msg.to_string())),
        (
            "request",
            Json::Str(String::from_utf8_lossy(&req.body).into_owned()),
        ),
    ]);
    let _ = std::fs::write(dir.join(format!("{stem}.json")), doc.pretty());
    // Best-effort flight recording of a short reference re-run, contained
    // like any job but never retried: when the failure is backend- or
    // load-specific the interp journal is the divergence baseline `etpnc
    // why` wants.
    let spec = RunSpec {
        backend: Backend::Interp,
        max_steps: job.spec.max_steps.min(4096),
        coverage: false,
        wall_budget: Some(Duration::from_millis(250)),
        record: Some(etpn_rec::RecordConfig::full(256)),
        ..job.spec.clone()
    };
    let rerun = Fleet::new(1)
        .with_retry_policy(RetryPolicy::immediate(0))
        .run_contained(&spec, token, |_, spec| job.run_with(spec));
    if let Some(rec) = rerun.result.ok().and_then(|t| t.recording) {
        let _ = std::fs::write(dir.join(format!("{stem}.etpnrec")), rec.to_bytes());
    }
}

/// Refresh the point-in-time gauges before an export.
fn refresh_gauges(shared: &Shared) {
    let depth = shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
    shared.stats.gauge("serve.queue_depth").set(depth as i64);
    shared
        .stats
        .gauge("serve.designs")
        .set(shared.registry.len() as i64);
    shared
        .stats
        .gauge("serve.draining")
        .set(i64::from(shared.draining.load(Ordering::SeqCst)));
    let mut open = 0i64;
    for entry in shared.registry.entries() {
        if entry.breaker.state_gauge() != 0 {
            open += 1;
        }
    }
    shared.stats.gauge("serve.breakers_open").set(open);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_json_carries_the_race_witness() {
        let g = etpn_sim::determinism::read_write_race();
        let group = BatteryGroup::policies(&SimJob::new(&g, ScriptedEnv::new()), 4);
        let v = battery(&Fleet::new(2), vec![group]).verdicts.remove(0);
        let doc = check_json(&g, &v);
        let field = |k: &str| doc.get(k).cloned();
        assert_eq!(field("agree"), Some(Json::Bool(false)), "{}", doc.pretty());
        assert_eq!(field("policies"), Some(Json::Num(9)));
        assert_eq!(field("compared"), Some(Json::Num(8)));
        let side = |policy: &str, seed, value: Option<Json>| {
            let doc = [
                ("policy", Json::Str(policy.into())),
                ("seed", Json::Num(seed)),
            ];
            Json::obj(doc.into_iter().chain(value.map(|v| ("value", v))))
        };
        let witness = Json::obj([
            ("job", Json::Num(6)),
            ("kind", Json::Str("event".into())),
            ("arc", Json::Str("a2".into())),
            ("vertex", Json::Str("y".into())),
            ("k", Json::Num(0)),
            ("reference", side("maximal", 0, Some(Json::Null))),
            ("compared", side("single-random", 2, Some(Json::Num(2)))),
        ]);
        assert_eq!(field("witness"), Some(witness));

        // A side with no such event carries no value.
        let mut w = v.witness.unwrap();
        w.diff = StructureDiff::Event {
            arc: etpn_core::ArcId::new(2),
            k: 1,
            lhs: Some(Value::Def(7)),
            rhs: None,
        };
        let doc = witness_json(&g, &w);
        assert_eq!(
            doc.get("reference"),
            Some(&side("maximal", 0, Some(Json::Num(7))))
        );
        assert_eq!(doc.get("compared"), Some(&side("single-random", 2, None)));
    }
}
