//! `graphsig-server` — the long-lived GraphSig mining service.
//!
//! The CLI re-parses and re-prepares the database on every invocation;
//! this crate keeps datasets *resident* and answers `mine` / `freq` /
//! `stats` requests over a hand-rolled line protocol (stdio for tests and
//! pipelines, `std::net::TcpListener` for network mode — see the
//! `graphsig serve` subcommand).
//!
//! The pieces:
//!
//! * [`protocol`] — the wire format: whitespace-separated `key=value`
//!   request lines, `bytes=`-framed responses, percent escaping. Total
//!   parsers, no serde.
//! * [`server`] — the engine: a bounded work queue with `busy`
//!   load-shedding, per-request [`Budget`](graphsig_core::Budget)s and
//!   [`CancelToken`](graphsig_core::CancelToken)s under server-enforced
//!   ceilings, panic isolation per request, and graceful drain on
//!   shutdown. Its two halves are private modules: `scheduler`, the one
//!   scheduling model (every admitted request is one job, run once and
//!   answered once), and `registry`, the resident datasets
//!   (one prepared window pass + one
//!   [`LabelPairIndex`](graphsig_graph::LabelPairIndex) per dataset
//!   version with versioned invalidation on `load`, load ordering, and the
//!   memory admission governor).
//! * [`transport`] — the event-driven TCP front end: one readiness loop
//!   (`poll(2)`) multiplexes every connection, so idle connections cost a
//!   file descriptor and a buffer, not a thread, and slow consumers are
//!   bounded by per-connection write buffers instead of blocking workers.
//!
//! The server's self-test is its integration tests: `server_tests` for
//! fixed request sequences, and `chaos_soak` for seeded schedules that
//! drive the store fault plane, mid-ingest kills, the memory admission
//! governor and connection lifecycle deadlines.

pub mod protocol;
pub(crate) mod registry;
pub(crate) mod scheduler;
pub mod server;
pub mod transport;

pub use protocol::{
    escape, parse_request, parse_response_header, unescape, ProtocolError, Request, Response,
    ResponseHeader, Status,
};
pub use server::{shared_writer, Server, ServerConfig, ServerSnapshot, SharedWriter};
pub use transport::TransportConfig;
