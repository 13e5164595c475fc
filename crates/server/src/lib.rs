//! nexsort-server: sort-as-a-service.
//!
//! A long-lived daemon that accepts NEXSORT jobs over a Unix or TCP
//! socket (newline-delimited JSON, see [`net`]), runs each job on a real
//! OS worker thread from a bounded pool, and arbitrates one global memory
//! budget across concurrent jobs through strict-FIFO frame leases
//! (`nexsort_extmem::BudgetArbiter`).
//!
//! Every accepted job is durable before it is acknowledged: its input is
//! copied into a server-owned job directory alongside a JSON manifest and
//! a file-backed device image, and the sort itself runs with
//! crash-consistent checkpointing (the PR-5 write-ahead manifest
//! journal). A daemon killed mid-flight therefore restarts with
//! [`Server::open`], replays its job manifests, and resumes every
//! unfinished sort from its journal -- committed merge passes are never
//! redone, and finished output is bit-identical to an uninterrupted run.
//!
//! The crate splits into:
//! - [`job`]: job specs, lifecycle states, and persisted manifests;
//! - [`server`]: the in-process daemon (worker pool, admission control,
//!   restart/resume);
//! - [`net`]: the socket front end and the client helper;
//! - [`fault`]: network fault injection and the client's retry policy;
//! - [`json`]: a dependency-free JSON reader/writer for the protocol and
//!   the manifests.

#![warn(missing_docs)]

pub mod fault;
pub mod job;
pub mod json;
pub mod net;
pub mod server;

pub use fault::{NetFaultCounts, NetFaultKind, NetFaultPlan, NetFaultState, NetRetryPolicy};
pub use job::{JobInput, JobOp, JobSpec, JobState, Manifest};
pub use net::{
    connect_with_retry, parse_addr, request, request_fetch_chunked, request_submit,
    request_with_retry, request_with_retry_injected, serve, serve_with, submit_value, Addr,
    ClientOptions, ServeOptions,
};
pub use server::{JobStatus, Server, ServerConfig, ServerStats, SubmitError};
