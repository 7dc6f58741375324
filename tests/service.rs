//! Chaos/robustness integration tests for the `etpnd` service core:
//! concurrent traffic, injected panics, deadline expiries, malformed
//! HTTP, load shedding, circuit breaking, graceful shutdown, and
//! crash-safe journal recovery — asserting the full status taxonomy and
//! zero aborts throughout.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use etpn::serve::{
    request, request_with_headers, start, BreakerConfig, ClientResponse, ServerConfig,
};

const ADDER: &str = "design adder { in a, b; out s; s = a + b; }";
/// `gcd(1, 0)` never converges (`x=1, y=0` loops on `x = x - y`), which
/// makes it a deterministic wall-clock burner for deadline tests.
const GCD: &str = "design gcd {\n    in a, b;\n    out g;\n    reg x, y;\n    x = a;\n    y = b;\n    while (x != y) {\n        if (x > y) {\n            x = x - y;\n        } else {\n            y = y - x;\n        }\n    }\n    g = x;\n}";

const T: Duration = Duration::from_secs(10);

fn post(addr: &std::net::SocketAddr, path: &str, body: &str) -> ClientResponse {
    request(&addr.to_string(), "POST", path, Some(body), T).expect("request transport")
}

fn get(addr: &std::net::SocketAddr, path: &str) -> ClientResponse {
    request(&addr.to_string(), "GET", path, None, T).expect("request transport")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("etpn-service-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The happy-path taxonomy: 200/201 on success, 400/404/405/413 on
/// client faults — all exercised over one server.
#[test]
fn status_taxonomy_for_client_faults() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;

    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);
    // Re-registration is idempotent, keyed by fingerprint.
    let again = post(&addr, "/v1/designs", &src_body(ADDER));
    assert_eq!(again.status, 200);
    assert!(again.body.contains("\"created\": false"));

    let run = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#,
    );
    assert_eq!(run.status, 200, "{}", run.body);
    assert!(run.body.contains('7'), "{}", run.body);

    // Client-fault taxonomy.
    assert_eq!(post(&addr, "/v1/run", "{ not json").status, 400);
    assert_eq!(post(&addr, "/v1/run", r#"{"design":"nope"}"#).status, 404);
    assert_eq!(
        post(&addr, "/v1/run", r#"{"design":"adder","policy":"bogus"}"#).status,
        400
    );
    assert_eq!(
        post(&addr, "/v1/run", r#"{"design":"adder","backend":"bogus"}"#).status,
        400
    );
    assert_eq!(post(&addr, "/v1/nosuch", "{}").status, 404);
    assert_eq!(get(&addr, "/v1/run").status, 405);
    assert_eq!(
        post(&addr, "/v1/designs", r#"{"source":"design broken {"}"#).status,
        422
    );

    let health = get(&addr, "/healthz");
    assert_eq!(health.status, 200);
    let stats = handle.shutdown();
    assert!(stats.contains("serve.admitted"), "{stats}");
}

fn src_body(src: &str) -> String {
    etpn::core::json::Json::obj([("source", etpn::core::json::Json::Str(src.to_string()))]).pretty()
}

/// A run field present with the wrong JSON type is a 400 naming the
/// field, never a silent default: nothing runs and no coverage merges.
#[test]
fn wrongly_typed_run_fields_are_400() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(GCD)).status, 201);
    let cases = [
        ("/v1/run", r#""inputs":[12,8]"#, "inputs"),
        ("/v1/run", r#""steps":"many""#, "steps"),
        ("/v1/run", r#""policy":7"#, "policy"),
        ("/v1/run", r#""backend":true"#, "backend"),
        ("/v1/run", r#""deadline_ms":"soon""#, "deadline_ms"),
        ("/v1/run", r#""seed":"x""#, "seed"),
        ("/v1/run", r#""repeat_last":1"#, "repeat_last"),
        ("/v1/check", r#""seeds":"all""#, "seeds"),
        ("/v1/check", r#""jobs":"two""#, "jobs"),
        ("/v1/fault", r#""steps":[1]"#, "steps"),
    ];
    for (path, field, name) in cases {
        // Every other field is well-typed; the inputs case replaces the
        // valid inputs object.
        let inputs = if name == "inputs" {
            ""
        } else {
            r#""inputs":{"a":[12],"b":[8]},"#
        };
        let body = format!(r#"{{"design":"gcd",{inputs}{field}}}"#);
        let r = post(&addr, path, &body);
        assert_eq!(r.status, 400, "{path} {body}: {}", r.body);
        assert!(r.body.contains(&format!("`{name}`")), "{path}: {}", r.body);
    }
    // A body that is not JSON at all is blamed on its JSON, not on a
    // design.
    let r = post(&addr, "/v1/run", "{");
    assert_eq!(r.status, 400, "{}", r.body);
    let doc = etpn::core::json::parse(&r.body).expect("error body is JSON");
    let error = doc.req("error").and_then(|e| e.as_str()).unwrap();
    assert!(error.starts_with("JSON: "), "{error}");
    assert!(!error.contains("design"), "{error}");
    let cov = post(&addr, "/v1/cov", r#"{"design":"gcd"}"#);
    assert!(cov.body.contains("\"runs\": 0"), "{}", cov.body);
    handle.shutdown();
}

/// An input stream the design has no input vertex for is a 400 naming
/// the stream and the design's inputs, on every verb that runs it:
/// nothing runs and no coverage merges.
#[test]
fn a_stream_the_design_does_not_read_is_400() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(GCD)).status, 201);
    for path in ["/v1/run", "/v1/check", "/v1/fault"] {
        for (stray, inputs) in [
            ("q", r#"{"a":[12],"b":[8],"q":[5]}"#),
            ("A", r#"{"A":[12],"b":[8]}"#),
        ] {
            let body = format!(r#"{{"design":"gcd","inputs":{inputs}}}"#);
            let r = post(&addr, path, &body);
            assert_eq!(r.status, 400, "{path} {body}: {}", r.body);
            let doc = etpn::core::json::parse(&r.body).expect("error body is JSON");
            let error = doc.req("error").and_then(|e| e.as_str()).unwrap();
            assert_eq!(
                error,
                format!("field `inputs.{stray}`: not an input of the design (inputs: a, b)"),
                "{path}"
            );
        }
    }
    let cov = post(&addr, "/v1/cov", r#"{"design":"gcd"}"#);
    assert!(cov.body.contains("\"runs\": 0"), "{}", cov.body);
    let run = post(
        &addr,
        "/v1/run",
        r#"{"design":"gcd","inputs":{"a":[12],"b":[8]}}"#,
    );
    assert_eq!(run.status, 200, "{}", run.body);
    handle.shutdown();
}

/// Raw malformed HTTP (not even a request line) answers 400, and an
/// absurd Content-Length answers 413 — without tying up the worker.
#[test]
fn malformed_http_is_rejected_not_crashed() {
    let cfg = ServerConfig {
        request_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr;

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(T)).unwrap();
    s.write_all(b"COMPLETE NONSENSE\r\n\r\n").unwrap();
    let mut buf = String::new();
    let _ = s.read_to_string(&mut buf);
    assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(T)).unwrap();
    s.write_all(b"POST /v1/run HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let mut buf = String::new();
    let _ = s.read_to_string(&mut buf);
    assert!(buf.starts_with("HTTP/1.1 413"), "{buf}");

    // The server is still fully live afterwards.
    assert_eq!(get(&addr, "/healthz").status, 200);
    handle.shutdown();
}

/// A request whose wall-clock deadline expires mid-simulation answers 408
/// with the budget termination, and does not trip the design's breaker. A
/// fault campaign whose golden run the deadline cut answers the same 408:
/// no faulty run can be compared with that golden run.
#[test]
fn deadline_expiry_is_408_not_a_design_fault() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(GCD)).status, 201);

    for _ in 0..3 {
        let r = post(
            &addr,
            "/v1/run",
            r#"{"design":"gcd","inputs":{"a":[1],"b":[0]},"steps":999999999,"deadline_ms":120}"#,
        );
        assert_eq!(r.status, 408, "{}", r.body);
        assert!(r.body.contains("budget"), "{}", r.body);
    }
    let r = post(
        &addr,
        "/v1/fault",
        r#"{"design":"gcd","inputs":{"a":[1],"b":[0]},"steps":999999999,"deadline_ms":200}"#,
    );
    assert_eq!(r.status, 408, "{}", r.body);
    let doc = etpn::core::json::parse(&r.body).expect("the 408 body is JSON");
    let field = |k| {
        doc.get(k)
            .unwrap_or_else(|| panic!("no `{k}` in {}", r.body))
    };
    assert_eq!(
        field("error").as_str().unwrap(),
        "deadline exceeded mid-run"
    );
    assert_eq!(field("status").as_i64().unwrap(), 408);
    assert_eq!(field("termination").as_str().unwrap(), "budget");
    assert!(field("steps").as_i64().unwrap() > 0, "{}", r.body);
    // Three expiries in a row must NOT have opened the breaker: a fast
    // request still succeeds.
    let ok = post(
        &addr,
        "/v1/run",
        r#"{"design":"gcd","inputs":{"a":[12],"b":[8]}}"#,
    );
    assert_eq!(ok.status, 200, "{}", ok.body);
    assert!(ok.body.contains('4'), "{}", ok.body);
    handle.shutdown();
}

/// A job that panics through every retry answers 500 with the panic's
/// own message, not a placeholder.
#[test]
fn panic_responses_carry_the_panic_message() {
    let cfg = ServerConfig {
        allow_chaos: true,
        ..ServerConfig::default()
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);
    let r = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","chaos":"panic","inputs":{"a":[1],"b":[2]}}"#,
    );
    assert_eq!(r.status, 500, "{}", r.body);
    assert!(
        r.body.contains("chaos: injected panic before simulation"),
        "{}",
        r.body
    );
    handle.shutdown();
}

/// Injected panics exhaust the retry budget (500), trip the per-design
/// breaker (503 + Retry-After) while diagnose-only verbs stay open, and a
/// half-open probe after the cool-down restores service.
#[test]
fn breaker_trips_on_panics_and_recovers_half_open() {
    let cfg = ServerConfig {
        allow_chaos: true,
        breaker: BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_millis(300),
            ..BreakerConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);

    // Two retry-exhausted panics trip the threshold-2 breaker.
    for _ in 0..2 {
        let r = post(
            &addr,
            "/v1/run",
            r#"{"design":"adder","chaos":"panic","inputs":{"a":[1],"b":[2]}}"#,
        );
        assert_eq!(r.status, 500, "{}", r.body);
    }

    // Open: simulation verbs shed with Retry-After…
    let denied = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[1],"b":[2]}}"#,
    );
    assert_eq!(denied.status, 503, "{}", denied.body);
    assert!(denied.header("retry-after").is_some());
    assert_eq!(
        post(&addr, "/v1/check", r#"{"design":"adder"}"#).status,
        503
    );
    // …while the diagnose-only verbs stay open (degraded mode).
    assert_eq!(post(&addr, "/v1/cov", r#"{"design":"adder"}"#).status, 200);
    assert_eq!(post(&addr, "/v1/lint", r#"{"design":"adder"}"#).status, 200);

    // After the cool-down a half-open probe succeeds and closes the loop.
    std::thread::sleep(Duration::from_millis(450));
    let probe = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#,
    );
    assert_eq!(probe.status, 200, "{}", probe.body);
    let after = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[5],"b":[6]}}"#,
    );
    assert_eq!(after.status, 200, "{}", after.body);

    // A chaos panic that only strikes the compiled backend degrades to the
    // interpreter and still answers 200 (fallback consumes no retry).
    let fell_back = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","chaos":"panic_compiled","inputs":{"a":[1],"b":[1]}}"#,
    );
    assert_eq!(fell_back.status, 200, "{}", fell_back.body);
    assert!(fell_back.body.contains("interp"), "{}", fell_back.body);

    let stats = handle.shutdown();
    assert!(stats.contains("serve.job_panics"), "{stats}");
    assert!(stats.contains("serve.backend_fallbacks"), "{stats}");
}

/// A malformed request that lands as the half-open probe must not wedge
/// the breaker: the 400 abstains (the design was never exercised), the
/// probe re-arms, and the next good request recovers the design — the
/// exact scenario that used to deny simulation verbs forever.
#[test]
fn malformed_probe_does_not_wedge_the_breaker() {
    let cfg = ServerConfig {
        allow_chaos: true,
        breaker: BreakerConfig {
            threshold: 1,
            cooldown: Duration::from_millis(200),
            ..BreakerConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);

    // One retry-exhausted panic trips the threshold-1 breaker.
    let r = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","chaos":"panic","inputs":{"a":[1],"b":[2]}}"#,
    );
    assert_eq!(r.status, 500, "{}", r.body);
    assert_eq!(
        post(
            &addr,
            "/v1/run",
            r#"{"design":"adder","inputs":{"a":[1],"b":[2]}}"#
        )
        .status,
        503
    );

    // After the cool-down, spend the half-open probe on a request with
    // bad simulation params: a 400 that never simulates anything.
    std::thread::sleep(Duration::from_millis(300));
    let bad = post(&addr, "/v1/run", r#"{"design":"adder","policy":"bogus"}"#);
    assert_eq!(bad.status, 400, "{}", bad.body);

    // The probe must have re-armed: the next good request is admitted
    // (as a fresh probe) and closes the breaker — not 503 forever.
    let ok = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[2],"b":[3]}}"#,
    );
    assert_eq!(ok.status, 200, "{}", ok.body);
    handle.shutdown();
}

/// `/v1/check` runs its whole battery against one absolute deadline:
/// a wall-clock burner with many seeds answers in the order of the
/// request deadline, not seeds × deadline with the worker pinned.
#[test]
fn check_battery_shares_one_absolute_deadline() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(GCD)).status, 201);

    let started = std::time::Instant::now();
    let r = post(
        &addr,
        "/v1/check",
        r#"{"design":"gcd","inputs":{"a":[1],"b":[0]},"steps":999999999,"seeds":8,"deadline_ms":400}"#,
    );
    let elapsed = started.elapsed();
    // 17 battery jobs × 400 ms each would be ~7 s on the 2-worker fleet;
    // the absolute deadline keeps the whole batch near one deadline.
    assert!([200, 408].contains(&r.status), "{} {}", r.status, r.body);
    assert!(elapsed < Duration::from_secs(3), "battery took {elapsed:?}");
    handle.shutdown();
}

/// Registering a structurally different design under an already-taken
/// name is refused with 409: one tenant cannot silently re-point
/// another tenant's name-based lookups.
#[test]
fn name_collision_is_409_not_a_silent_hijack() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);

    let hijack = post(
        &addr,
        "/v1/designs",
        &src_body("design adder { in a, b; out s; s = a - b; }"),
    );
    assert_eq!(hijack.status, 409, "{}", hijack.body);

    // Name-based lookups still reach the original design.
    let r = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#,
    );
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains('7'), "{}", r.body);
    handle.shutdown();
}

/// With one worker and a one-deep queue, a slow request forces overflow
/// connections to be shed inline with 429 + Retry-After — bounded
/// admission, not unbounded buffering.
#[test]
fn overload_sheds_429_with_retry_after() {
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(GCD)).status, 201);

    // Occupy the single worker with a deadline-bounded burner.
    let slow = std::thread::spawn(move || {
        post(
            &addr,
            "/v1/run",
            r#"{"design":"gcd","inputs":{"a":[1],"b":[0]},"steps":999999999,"deadline_ms":800}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(150));

    let floods: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                post(
                    &addr,
                    "/v1/run",
                    r#"{"design":"gcd","inputs":{"a":[6],"b":[4]}}"#,
                )
            })
        })
        .collect();
    let floods: Vec<ClientResponse> = floods
        .into_iter()
        .map(|t| t.join().expect("no flood thread aborts"))
        .collect();
    let statuses: Vec<u16> = floods.iter().map(|r| r.status).collect();
    let shed: Vec<_> = floods.iter().filter(|r| r.status == 429).collect();
    assert!(!shed.is_empty(), "expected shed traffic, got {statuses:?}");
    assert!(
        statuses.iter().all(|s| [200, 429].contains(s)),
        "unexpected statuses {statuses:?}"
    );
    // Every shed response carries both the backoff hint and a trace id
    // the debug ring can answer for.
    for r in &shed {
        assert_eq!(r.header("retry-after"), Some("1"), "{:?}", r.headers);
        assert!(
            r.header("x-etpn-trace-id").is_some_and(|t| t.len() == 32),
            "{:?}",
            r.headers
        );
    }
    let shed_trace = shed[0].header("x-etpn-trace-id").unwrap();
    let ring = get(&addr, "/v1/debug/requests?verb=shed");
    assert_eq!(ring.status, 200, "{}", ring.body);
    assert!(ring.body.contains(shed_trace), "{}", ring.body);

    let slow_resp = slow.join().expect("no slow thread abort");
    assert_eq!(slow_resp.status, 408, "{}", slow_resp.body);

    let stats = handle.shutdown();
    assert!(stats.contains("serve.shed"), "{stats}");
    // Shed queue-wait time lands in its own labelled histogram (the JSON
    // export escapes the quotes around the label value).
    assert!(
        stats.contains(r#"serve.queue_wait_us{outcome=\"shed\"}"#),
        "{stats}"
    );
}

/// Every response — success, client fault, missing endpoint, wrong
/// method, deadline expiry — carries an `X-Etpn-Trace-Id`, each id is
/// retrievable from `GET /v1/debug/requests`, and a valid client-supplied
/// id is honored end to end.
#[test]
fn every_response_carries_a_retrievable_trace_id() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;

    let responses = [
        post(&addr, "/v1/designs", &src_body(ADDER)),
        post(&addr, "/v1/designs", &src_body(GCD)),
        post(
            &addr,
            "/v1/run",
            r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#,
        ),
        post(&addr, "/v1/run", "{ not json"),
        post(&addr, "/v1/run", r#"{"design":"nope"}"#),
        post(&addr, "/v1/nosuch", "{}"),
        get(&addr, "/v1/run"),
        // A mid-run deadline expiry (408).
        post(
            &addr,
            "/v1/run",
            r#"{"design":"gcd","inputs":{"a":[1],"b":[0]},"steps":999999999,"deadline_ms":100}"#,
        ),
    ];
    let expected = [201u16, 201, 200, 400, 404, 404, 405, 408];
    let mut ids = Vec::new();
    for (r, want) in responses.iter().zip(expected) {
        assert_eq!(r.status, want, "{}", r.body);
        let id = r
            .header("x-etpn-trace-id")
            .unwrap_or_else(|| panic!("no trace id on {}: {:?}", r.status, r.headers));
        assert_eq!(id.len(), 32, "{id}");
        ids.push(id.to_string());
    }
    let distinct: std::collections::HashSet<_> = ids.iter().collect();
    assert_eq!(distinct.len(), ids.len(), "trace ids must be unique");

    // A valid client-supplied id is echoed back verbatim…
    let supplied = "00000000000000000000000000c0ffee";
    let r = request_with_headers(
        &addr.to_string(),
        "POST",
        "/v1/run",
        Some(r#"{"design":"adder","inputs":{"a":[1],"b":[1]}}"#),
        &[("X-Etpn-Trace-Id", supplied)],
        T,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.header("x-etpn-trace-id"), Some(supplied));
    ids.push(supplied.to_string());
    // …while a junk one is replaced with a fresh id.
    let r = request_with_headers(
        &addr.to_string(),
        "POST",
        "/v1/cov",
        Some(r#"{"design":"adder"}"#),
        &[("X-Etpn-Trace-Id", "not-hex-at-all")],
        T,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let fresh = r.header("x-etpn-trace-id").expect("fresh id");
    assert_eq!(fresh.len(), 32);
    ids.push(fresh.to_string());

    // Every issued id is retrievable from the debug ring.
    let ring = get(&addr, "/v1/debug/requests?limit=200");
    assert_eq!(ring.status, 200, "{}", ring.body);
    for id in &ids {
        assert!(
            ring.body.contains(id),
            "trace {id} missing from {}",
            ring.body
        );
    }
    handle.shutdown();
}

/// `GET /v1/debug/requests` filters compose over live traffic: by verb,
/// by status, by design, by latency floor.
#[test]
fn debug_requests_endpoint_filters() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);
    for _ in 0..3 {
        assert_eq!(
            post(
                &addr,
                "/v1/run",
                r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#
            )
            .status,
            200
        );
    }
    assert_eq!(post(&addr, "/v1/run", r#"{"design":"nope"}"#).status, 404);
    assert_eq!(post(&addr, "/v1/cov", r#"{"design":"adder"}"#).status, 200);

    let parse = |body: &str| etpn::core::json::parse(body).expect("debug JSON parses");
    let runs = parse(&get(&addr, "/v1/debug/requests?verb=run&limit=100").body);
    let arr = runs.get("requests").unwrap().as_arr().unwrap();
    assert_eq!(arr.len(), 4, "3 × 200 + 1 × 404");
    for e in arr {
        assert_eq!(e.get("verb").unwrap().as_str().unwrap(), "run");
    }

    let not_found = parse(&get(&addr, "/v1/debug/requests?status=404").body);
    let arr = not_found.get("requests").unwrap().as_arr().unwrap();
    assert_eq!(arr.len(), 1);

    let by_design = parse(&get(&addr, "/v1/debug/requests?design=adder&limit=100").body);
    let arr = by_design.get("requests").unwrap().as_arr().unwrap();
    assert_eq!(
        arr.len(),
        5,
        "register + 3 runs + 1 cov resolved the design"
    );

    // An absurd latency floor matches nothing; a bad filter value is 400.
    let none = parse(&get(&addr, "/v1/debug/requests?min_latency_us=999999999999").body);
    assert!(none.get("requests").unwrap().as_arr().unwrap().is_empty());
    assert_eq!(get(&addr, "/v1/debug/requests?limit=zero").status, 400);
    assert_eq!(post(&addr, "/v1/debug/requests", "{}").status, 405);
    handle.shutdown();
}

/// The tentpole's cross-thread guarantee: a `/v1/check` with `jobs: 4`
/// yields a span tree — retrieved live via `GET /v1/debug/trace/<id>` —
/// holding exactly one `fleet.job` child span per battery job, all
/// parented under the request's own `fleet.batch` span, even while
/// concurrent mixed traffic interleaves on the same fleet and server.
#[test]
fn check_span_tree_has_one_child_span_per_fleet_job() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);

    // Concurrent mixed traffic in the background.
    let busy: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                for j in 0..4 {
                    let r = if (i + j) % 2 == 0 {
                        post(
                            &addr,
                            "/v1/run",
                            r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#,
                        )
                    } else {
                        post(&addr, "/v1/cov", r#"{"design":"adder"}"#)
                    };
                    assert_eq!(r.status, 200, "{}", r.body);
                }
            })
        })
        .collect();

    // seeds:2 → 1 + 2×2 = 5 battery jobs on a 4-worker fleet.
    let check = post(
        &addr,
        "/v1/check",
        r#"{"design":"adder","inputs":{"a":[3],"b":[4]},"seeds":2,"jobs":4}"#,
    );
    assert_eq!(check.status, 200, "{}", check.body);
    let trace_id = check
        .header("x-etpn-trace-id")
        .expect("trace id")
        .to_string();

    let trace = get(&addr, &format!("/v1/debug/trace/{trace_id}"));
    assert_eq!(trace.status, 200, "{}", trace.body);
    let doc = etpn::core::json::parse(&trace.body).expect("chrome trace parses");
    assert_eq!(
        doc.get("otherData")
            .unwrap()
            .get("trace_id")
            .unwrap()
            .as_str()
            .unwrap(),
        trace_id,
        "span tree belongs to the request's trace id"
    );
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let named = |n: &str| -> Vec<&etpn::core::json::Json> {
        events
            .iter()
            .filter(|e| e.get("name").map(|v| v.as_str() == Ok(n)).unwrap_or(false))
            .collect()
    };
    let batches = named("fleet.batch");
    assert_eq!(batches.len(), 1, "{}", trace.body);
    let batch_id = batches[0]
        .get("args")
        .unwrap()
        .get("span")
        .unwrap()
        .as_i64()
        .unwrap();
    let jobs = named("fleet.job");
    assert_eq!(jobs.len(), 5, "one child span per battery job");
    for job in &jobs {
        let args = job.get("args").unwrap();
        assert_eq!(
            args.get("parent").unwrap().as_i64().unwrap(),
            batch_id,
            "fleet jobs parent under the request's batch span"
        );
    }
    // The request spine is present too.
    assert_eq!(named("queue.wait").len(), 1);
    assert_eq!(named("route").len(), 1);

    // Unknown/garbage ids answer 404/400, not 500.
    assert_eq!(
        get(&addr, "/v1/debug/trace/00000000000000000000000000000001").status,
        404
    );
    assert_eq!(get(&addr, "/v1/debug/trace/garbage").status, 400);

    for t in busy {
        t.join().expect("no background aborts");
    }
    handle.shutdown();
}

/// Concurrent mixed traffic (run/check/cov, both backends) completes with
/// a clean taxonomy, zero route panics and zero aborts, and the policy
/// battery agrees.
#[test]
fn concurrent_mixed_traffic_is_clean() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);

    let threads: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                for j in 0..5 {
                    let r = match (i + j) % 3 {
                        0 => post(
                            &addr,
                            "/v1/run",
                            r#"{"design":"adder","backend":"interp","inputs":{"a":[3],"b":[4]}}"#,
                        ),
                        1 => post(
                            &addr,
                            "/v1/check",
                            r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#,
                        ),
                        _ => post(&addr, "/v1/cov", r#"{"design":"adder"}"#),
                    };
                    assert_eq!(r.status, 200, "{}", r.body);
                    if (i + j) % 3 == 1 {
                        assert!(r.body.contains("\"agree\": true"), "{}", r.body);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("no worker-thread aborts");
    }

    let stats = handle.shutdown();
    // Route panics are counted; the counter must be absent (never created)
    // or zero.
    assert!(
        !stats.contains("serve.route_panics") || stats.contains("\"serve.route_panics\": 0"),
        "{stats}"
    );
}

/// Coverage survives shutdown → corrupted-tail journal → restart: the
/// torn tail is truncated, the valid prefix replays, and a re-registered
/// design resumes its accumulated coverage.
#[test]
fn restart_recovers_journals_and_accumulates_coverage() {
    let dir = scratch("restart");

    let first = start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = first.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);
    for _ in 0..2 {
        let r = post(
            &addr,
            "/v1/run",
            r#"{"design":"adder","backend":"interp","inputs":{"a":[3],"b":[4]}}"#,
        );
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let cov = post(&addr, "/v1/cov", r#"{"design":"adder"}"#);
    assert!(cov.body.contains("\"runs\": 2"), "{}", cov.body);
    first.shutdown();

    // Simulate a crash mid-append: torn garbage on the journal tail.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("cov.journal"))
            .unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
    }

    let second = start(ServerConfig {
        data_dir: Some(dir),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = second.addr;
    let stats = second.stats_json();
    assert!(
        !stats.contains("\"serve.recovered.cov_frames\": 0"),
        "no coverage frames recovered: {stats}"
    );
    // Re-registering the same source reunites the design with its
    // recovered coverage, and new runs keep counting upward.
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);
    let cov = post(&addr, "/v1/cov", r#"{"design":"adder"}"#);
    assert!(cov.body.contains("\"runs\": 2"), "{}", cov.body);
    let r = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[5],"b":[6]}}"#,
    );
    assert_eq!(r.status, 200, "{}", r.body);
    let cov = post(&addr, "/v1/cov", r#"{"design":"adder"}"#);
    assert!(cov.body.contains("\"runs\": 3"), "{}", cov.body);
    second.shutdown();
}

/// A data dir written by an older `etpnd`, which also journaled an
/// evaluation cache next to the coverage, still starts cleanly: coverage
/// is recovered from `cov.journal`, runs are served, and every other file
/// is left byte-identical (neither read nor deleted).
#[test]
fn old_data_dir_recovers_coverage_and_keeps_other_files() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("etpnd_legacy_data");
    let dir = scratch("legacy");
    let mut untouched = Vec::new();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        let bytes = std::fs::read(entry.path()).unwrap();
        std::fs::write(dir.join(entry.file_name()), &bytes).unwrap();
        if entry.file_name() != "cov.journal" {
            untouched.push((entry.file_name(), bytes));
        }
    }
    assert!(!untouched.is_empty(), "fixture holds more than cov.journal");

    let handle = start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr;
    let stats = handle.stats_json();
    assert!(
        stats.contains("\"serve.recovered.cov_frames\": 2"),
        "{stats}"
    );
    assert!(
        stats.contains("\"serve.recovered.bad_frames\": 0"),
        "{stats}"
    );
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);
    let cov = post(&addr, "/v1/cov", r#"{"design":"adder"}"#);
    assert!(cov.body.contains("\"runs\": 2"), "{}", cov.body);
    for body in [
        r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#,
        r#"{"design":"adder","backend":"interp","inputs":{"a":[3],"b":[4]}}"#,
    ] {
        let r = post(&addr, "/v1/run", body);
        assert_eq!(r.status, 200, "{}", r.body);
    }
    handle.shutdown();

    for (name, bytes) in untouched {
        let after = std::fs::read(dir.join(&name)).unwrap();
        assert!(after == bytes, "{name:?} was modified");
    }
}

/// A coverage journal whose checksum-valid frames name one design but
/// disagree on its set capacities used to panic the server at boot, in
/// the bitset union, on every restart. The frame that does not fit is
/// counted as bad, the server boots, and the design still registers with
/// the coverage that fits.
#[test]
fn misfit_coverage_frames_are_counted_not_fatal() {
    use etpn::core::bitset::BitSet;
    use etpn::cov::CovDb;
    use etpn::serve::persist::Journal;

    let dir = scratch("misfit");
    let design = etpn::synth::compile_source(ADDER).unwrap();
    let mut fits = CovDb::new(&design.etpn);
    fits.runs = 1;
    let mut misfit = fits.clone();
    misfit.arc_open = BitSet::new(fits.arc_open.capacity() + 64);
    {
        let (mut j, _) = Journal::open(&dir.join("cov.journal")).unwrap();
        j.append(&fits.to_bytes()).unwrap();
        j.append(&misfit.to_bytes()).unwrap();
        j.sync().unwrap();
    }

    let handle = start(ServerConfig {
        data_dir: Some(dir),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr;
    let stats = handle.stats_json();
    assert!(
        stats.contains("\"serve.recovered.cov_frames\": 1"),
        "{stats}"
    );
    assert!(
        stats.contains("\"serve.recovered.bad_frames\": 1"),
        "{stats}"
    );
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);
    let cov = post(&addr, "/v1/cov", r#"{"design":"adder"}"#);
    assert!(cov.body.contains("\"runs\": 1"), "{}", cov.body);
    let r = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#,
    );
    assert_eq!(r.status, 200, "{}", r.body);
    handle.shutdown();
}

/// Graceful shutdown drains: requests admitted before the drain complete,
/// the listener closes, and the final stats export is returned.
#[test]
fn shutdown_drains_admitted_work() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(GCD)).status, 201);

    // Admit a deadline-bounded slow request, then immediately drain.
    let slow = std::thread::spawn(move || {
        post(
            &addr,
            "/v1/run",
            r#"{"design":"gcd","inputs":{"a":[1],"b":[0]},"steps":999999999,"deadline_ms":400}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(100));
    let stats = handle.shutdown();

    // The in-flight request was answered, not dropped.
    let r = slow.join().expect("no slow thread abort");
    assert_eq!(r.status, 408, "{}", r.body);
    assert!(stats.contains("serve.admitted"), "{stats}");

    // The listener is gone: new connections are refused (or reset).
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}
