//! `sbomdiff-service`: an offline HTTP serving layer over the differential
//! SBOM analysis pipeline.
//!
//! The service turns the batch machinery (tool emulators, format
//! round-tripping, diff metrics, vulnerability impact assessment) into
//! request/response endpoints:
//!
//! * `POST /v1/analyze` — in-memory repository tree in, four emulator SBOMs
//!   plus pairwise diff metrics out,
//! * `POST /v1/diff` — two serialized SBOM documents in, a diff report out,
//! * `POST /v1/impact` — an SBOM plus advisory-db parameters in, a
//!   [`sbomdiff_vuln`] impact report out,
//! * `POST /v1/batch` — many of the above in one round trip, amortizing
//!   parse and dispatch over the whole batch,
//! * `GET /healthz` and `GET /metrics` for liveness and observability.
//!
//! Everything is built on `std` only — the HTTP/1.1 server is a
//! nonblocking epoll reactor ([`reactor`]) speaking to the kernel through
//! a hand-rolled syscall shim, so the crate honours the repository's
//! no-external-dependencies policy. The serving machinery provides:
//!
//! * edge-triggered accept/read/write state machines per connection
//!   ([`conn`]) with HTTP/1.1 keep-alive and pipelining,
//! * a timeout taxonomy (DESIGN.md §18): stalled partial requests answer
//!   `408` (counted per phase in `sbomdiff_timeouts_total`), idle
//!   keep-alive connections are reaped silently,
//! * a bounded job queue with admission control ([`queue`]) — overload
//!   answers `429` in pipeline order instead of building unbounded backlog,
//! * a worker pool sized by the same [`sbomdiff_parallel::Jobs`] policy as
//!   the batch pipeline,
//! * per-request deadlines — requests that wait too long in the queue
//!   answer `503` without running,
//! * a sharded content-keyed LRU response cache ([`respcache`]) with
//!   preserialized wire bytes — keep-alive cache hits write zero-copy;
//!   correct because every handler is a pure function of its payload and
//!   every hit verifies the full path and body,
//! * a Prometheus-text metrics registry ([`metrics`]),
//! * graceful shutdown that flushes owed responses before joining threads.
//!
//! [`loadgen`] drives an in-process server with N concurrent synthetic
//! clients for benchmarking (`sbomdiff-serve loadgen`), and [`chaos`]
//! soaks the stack under seeded fault plans (`sbomdiff-chaos`), asserting
//! graceful degradation: no panic crosses the worker-pool boundary, every
//! injected fault is accounted, and responses stay deterministic per plan.

pub mod api;
pub mod chaos;
pub mod conn;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod queue;
pub mod reactor;
pub mod respcache;
pub mod server;

pub use api::AppState;
pub use chaos::{ChaosConfig, ChaosReport};
pub use http::{Request, Response};
pub use loadgen::{LoadgenConfig, LoadgenSummary};
pub use metrics::{Endpoint, Metrics, TimeoutPhase};
pub use queue::BoundedQueue;
pub use respcache::{CacheEntry, ResponseCache};
pub use server::{ServeConfig, Server, ServerHandle};
