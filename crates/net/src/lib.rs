//! `ftc-net` — the TCP serving subsystem for fault-tolerant
//! connectivity labels.
//!
//! Four layers, bottom-up:
//!
//! - [`proto`] — the length-prefixed binary wire protocol. Requests
//!   name a graph, a fault-edge list, and a pair list; responses carry
//!   per-pair answers, optional merge certificates, or a typed error
//!   code. Parsing is zero-copy over the raw frame bytes (the request
//!   view borrows the payload, pairs iterate lazily), in the spirit of
//!   `ftc-core`'s `LabelStore`.
//! - [`coalesce`] — cross-connection session sharing. Building a query
//!   session costs tens to hundreds of microseconds while each pair
//!   costs tens of nanoseconds, so concurrent requests on one service
//!   with the same fault set share one pooled session: the first
//!   request for a fault set builds it at once, everyone who arrives
//!   while it builds waits for it, and each then answers its own pairs
//!   (no timer, no added latency when idle).
//! - [`server`] — a dependency-free blocking server over `std::net`:
//!   nonblocking accept loop, one handler thread per connection that
//!   answers each request straight from its frame into its response,
//!   graceful SIGINT/SIGTERM shutdown that drains in-flight frames.
//!   Malformed payloads are answered with typed error frames without
//!   desyncing the stream; only framing violations close a
//!   connection.
//! - [`client`] — a blocking client with pipelined request IDs, plus
//!   the [`text`] query-line grammar shared with `ftc-cli serve` and
//!   the [`histogram`] the loadgen uses for latency quantiles.
//!
//! [`chaos`] is a seeded fault-injecting proxy for robustness tests.
//! This crate ships the `ftc-server` binary; the `ftc-loadgen` load
//! generator lives in `ftc-bench`. See the workspace README for a
//! quickstart.

pub mod chaos;
pub mod client;
pub mod coalesce;
pub mod histogram;
pub mod proto;
pub mod server;
pub mod text;

pub use chaos::{ChaosConfig, ChaosProxy, ChaosStats};
pub use client::{CertifiedAnswers, Client, ClientConfig, ClientError, ClientStats};
pub use coalesce::{CoalesceStats, Coalescer, SubmitError};
pub use histogram::LatencyHistogram;
pub use proto::{ErrorCode, ProtoError, RequestView, Response, ResponseBody};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
