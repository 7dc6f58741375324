//! # etpn-serve — the `etpnd` design-verification service
//!
//! The paper's compile-once/simulate-many structure (one ETPN design,
//! many external-event-structure evaluations) hoisted to a long-lived,
//! zero-new-dependency server: `std::net::TcpListener`, a hand-rolled
//! worker pool in the style of `etpn_sim::fleet`, HTTP/1.1 + JSON.
//!
//! Designs register once by source (`POST /v1/designs`) and are addressed
//! by structural fingerprint; run/check/cov/lint/fault verbs then share
//! the compiled artifacts across requests, and a per-design
//! [`etpn_cov::CovDb`] across requests *and across restarts*.
//!
//! The headline is the robustness envelope around every request:
//!
//! * **bounded admission** — a fixed-depth queue; overflow is shed with
//!   `429` + `Retry-After`, never buffered ([`server`]);
//! * **deadlines** — per-request budgets measured from admission, threaded
//!   into the engine's `wall_budget` and every fleet job; expiry is `408`;
//! * **bounded retries** — panicked jobs retry under the deterministic
//!   decorrelated-jitter [`etpn_sim::RetryPolicy`], with compiled→interp
//!   backend fallback first;
//! * **circuit breaking** — per-design breakers ([`breaker`]) degrade a
//!   failing design to diagnose-only (`/v1/lint`, `/v1/cov`) with `503`
//!   until a half-open probe succeeds;
//! * **crash-safe persistence** — coverage deltas are journaled in
//!   length-prefixed checksummed frames with truncated-tail
//!   recovery ([`persist`]), and `SIGTERM` triggers a drain-then-exit
//!   graceful shutdown ([`signal`]).

#![warn(missing_docs)]

pub mod breaker;
pub mod client;
pub mod debug;
pub mod http;
pub mod persist;
pub mod registry;
pub mod server;
pub mod signal;

pub use breaker::{Admission, BreakerConfig, CircuitBreaker};
pub use client::{request, request_with_headers, ClientResponse};
pub use debug::{DebugRing, RequestFilter, RequestSummary, TraceStore};
pub use persist::{checksum64, Journal, Recovery};
pub use registry::{format_fingerprint, parse_fingerprint, DesignEntry, RegisterError, Registry};
pub use server::{start, ServerConfig, ServerHandle};
