//! # segbus-serve
//!
//! A std-only, multi-client batch front end over the SegBus sweep pool —
//! the service tier on the estimator (DESIGN.md §10, §13).
//!
//! Clients speak newline-delimited JSON over TCP (loopback): each line is
//! an `emulate`, `hello`, `stats` or `shutdown` request, each answer one
//! response line correlated by `id`. Requests pipeline: up to
//! [`ServeOptions::window`] may be in flight per connection, with
//! responses delivered in completion order by default (or in request
//! order after a `hello {"in_order": true}` handshake — see [`server`]
//! for the full ordering contract). Every model travels the same typed
//! pipeline as the CLI — parse (DSL or XML), validate, engine pre-flight
//! ([`segbus_core::Engine::try_run_frames`], never the panicking path) —
//! so a service client sees exactly the `P/X/M/V/C` diagnostics `segbus
//! emulate` prints, plus the `S0xx` protocol codes. With
//! [`ServeOptions::cache_dir`] set, the report cache is backed by the
//! persistent [`segbus_core::DiskStore`] and warm-starts across restarts.
//!
//! Connections are handled by one **sharded non-blocking event loop**
//! ([`shard`], DESIGN.md §13) behind the [`Server`] facade, with
//! admission control, `S005` load-shed and per-shard/latency stats.
//! Committed request/response transcripts (`tests/transcripts/`) pin its
//! response bodies.
//!
//! The layers, usable independently:
//!
//! * [`json`] — the minimal hand-rolled JSON reader/writer (the workspace
//!   has no external dependencies);
//! * [`protocol`] — request/response encode/decode over [`json`];
//! * [`decode`] — push-based bounded line decoding;
//! * [`reorder`] — the bounded in-order delivery buffer;
//! * [`hist`] — the lock-free fixed-bucket latency histogram;
//! * [`service`] — [`service::BatchService`], the coalescing batcher over
//!   [`segbus_core::CachedPool`]: concurrently arriving jobs merge into
//!   one sweep batch and share the content-addressed report cache;
//! * [`server`] + [`shard`] — the TCP facade and the event-loop core
//!   wiring connections to the service.
//!
//! ```no_run
//! use segbus_serve::{ServeOptions, Server};
//!
//! let server = Server::start(ServeOptions::default()).unwrap();
//! println!("listening on {}", server.addr());
//! server.join(); // until a client sends {"cmd": "shutdown"}
//! ```

#![warn(missing_docs)]

pub mod decode;
pub mod hist;
pub mod json;
pub mod protocol;
pub mod reorder;
pub mod server;
pub mod service;
pub mod shard;

pub use protocol::{Limits, Request, ServeStats, ShardStats};
pub use server::{ServeOptions, Server};
pub use service::{BatchService, JobOutcome, ServiceOptions, ServiceStats};
