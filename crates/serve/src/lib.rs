//! # samm-serve — concurrent litmus-query service
//!
//! A TCP service over the enumeration framework: clients send
//! newline-delimited JSON requests (`enumerate`, `batch`, `verdict`,
//! `witness`, `refutation`, `certify`, `metrics`, `shutdown`) and every
//! enumeration-backed answer flows through the content-addressed
//! [`samm_core::cache::EnumCache`], so a query repeated by any client
//! costs a hash lookup. Fresh enumerations run on the prune-before-expand
//! engine ([`samm_core::pruned`]); the serial enumerator stays the
//! oracle the differential test suites check it against.
//!
//! The implementation is std-only (no async runtime, no serde): a
//! hand-rolled JSON codec ([`json`]), a typed wire protocol
//! ([`protocol`]), a request executor ([`handler`]) whose answers are
//! written straight into the wire buffer ([`answer`]), and a blocking
//! [`client`]. One I/O core hosts the executor: the readiness-driven
//! [`event_loop`] (over `poll(2)` — see [`sys`]) with request
//! pipelining, the syscall-amortizing [`batch`]
//! envelope, and graceful drain. [`ring`] and [`cluster`] scale it
//! out: consistent-hash routing of [`samm_core::fingerprint`] keys
//! across a static member list, peer forwarding on miss with
//! single-flight de-duplication, and live dead-peer failover, turning
//! the node-local caches into one distributed cache. `docs/SERVICE.md` documents the wire format and
//! `docs/CLUSTER.md` the operator runbook; the `samm-serve` binary
//! hosts the server and `samm-load` (in `samm-bench`) replays the
//! catalog against one or many nodes.
//!
//! ## Example: in-process round trip
//!
//! ```
//! use std::time::Duration;
//! use samm_serve::{client::Client, json::Json, ServerConfig};
//!
//! let handle = samm_serve::start(ServerConfig {
//!     workers: 2,
//!     ..ServerConfig::default()
//! }).unwrap();
//! let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).unwrap();
//! let reply = client
//!     .request_raw(r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#)
//!     .unwrap();
//! assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
//! handle.shutdown().unwrap();
//! ```

#![warn(missing_docs)]
// Denied rather than forbidden: the readiness poller ([`sys`]) opts in
// for its one `poll(2)` call; everything else stays safe.
#![deny(unsafe_code)]

pub mod answer;
pub mod batch;
pub mod client;
pub mod cluster;
#[cfg(unix)]
pub mod event_loop;
pub mod handler;
pub mod json;
pub mod protocol;
pub mod ring;
#[cfg(unix)]
#[allow(unsafe_code)]
pub mod sys;
pub mod telemetry;

pub use client::{Client, ClientError};
pub use cluster::{Cluster, ClusterConfig};
#[cfg(unix)]
pub use event_loop::{start, ServerConfig, ServerHandle};
pub use handler::ServerState;
pub use json::Json;
pub use protocol::{
    parse_envelope, parse_request, render_envelope, render_request, Envelope, ErrorKind, Request,
    ServiceError, ENGINE, MAX_BATCH,
};
pub use ring::HashRing;
pub use telemetry::{ReqOutcome, Telemetry};
