//! `jvmsim-serve`: the profiling-as-a-service daemon.
//!
//! A std-only, readiness-driven (C10k) HTTP/1.1 front end over the
//! harness's `Session` run API: one event-loop thread owns every
//! socket, CPU-bound runs stay on a bounded worker pool, and completions
//! post back to the loop. The moving pieces, one module each:
//!
//! * [`http`] — a minimal hand-rolled HTTP/1.1 layer: incremental
//!   (sans-io) request and response parsers that accept bytes in any
//!   chunking, and the typed [`http::ServeError`] that maps each
//!   transport failure to a status code.
//! * [`spec`] — the typed API surface: [`RunSpec`] (the `POST /v1/run`
//!   body), the routed `ApiRequest`/`ApiResponse` pair every endpoint
//!   dispatches through, and the [`spec::ApiError`] envelope
//!   (`{"error":{"code",…}}`) every non-2xx `/v1` response carries.
//! * `conn` — the per-connection state machine (reading → parsing →
//!   queued → executing → writing → keep-alive idle), unit-tested
//!   against adversarial partial reads and writes.
//! * `timer` — the hashed timer wheel pricing tens of thousands of
//!   connection deadlines at O(1) per event.
//! * [`admission`] — the bounded queue into the worker pool and the
//!   completion board back out of it; a full queue load-sheds
//!   (`429 Retry-After`) instead of buffering without bound.
//! * [`server`] — the daemon itself: the event loop, cache-first request
//!   handling, per-request deadlines (`504`), exactly-once outcome
//!   accounting (`accepted == served + shed + timeout + dropped +
//!   errors`), and graceful drain (stop accepting, finish in-flight,
//!   flush metrics).
//! * [`peer`] — the fleet tier: the shared membership directory, the
//!   seeded retry/backoff policy, and the `GET /v1/cell/<hex>` fetch a
//!   member tries on a local miss before degrading to recompute.
//! * [`client`] — the deterministic load generator behind `jprof
//!   client`: closed-loop by default, open-loop (hold N keep-alive
//!   connections, latency percentiles) for C10k validation.
//! * [`drill`] — the chaos drill `jprof chaos` runs against the two
//!   transport fault sites (`serve-slow-read`, `serve-conn-drop`),
//!   asserting the ledger balances and no request is double-counted.
//!
//! [`SessionSpec`]: jnativeprof::session::SessionSpec

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub(crate) mod conn;
pub mod drill;
pub mod http;
pub mod peer;
pub mod server;
pub mod spec;
pub(crate) mod timer;

pub use client::{
    deferred_backoff, http_request_full, percentile_micros, run_client, run_open_loop,
    ClientConfig, ClientReport, OpenLoopConfig, OpenLoopReport,
};
pub use drill::{chaos_drill, DrillReport};
pub use http::ServeError;
pub use peer::{PeerDirectory, PeerView, RetryPolicy};
pub use server::{ServeConfig, Server, SpanConfig, SpansSnapshot};
pub use spec::{ApiError, ApiRequest, ApiResponse, OutcomeClass, RunSpec};
