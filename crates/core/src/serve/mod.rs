//! Multi-engine serving: several compiled engines behind logical ids on one
//! [`crate::WorkerPool`], and one handler that runs each request on the
//! thread that sends it — bounded under overload by an admission policy and
//! kept alive when a kernel faults.
//!
//! The paper's premise is that JIT compilation is amortized across many
//! executions of one kernel; a serving system amortizes it one level up,
//! across many *kernels* sharing one runtime. An [`SpmmServer`] holds N
//! compiled engines — single [`crate::JitSpmm`]s or sharded
//! [`crate::update::MutableSpmm`]s — and [`SpmmServer::handle`] is the path
//! every request takes: look the engine up, take one of its in-flight slots,
//! run its `execute` under `catch_unwind` on the calling thread, return a
//! typed [`ServerResponse`]. No request queue, serving thread or per-engine
//! pipeline sits between the caller and the worker pool. The
//! `jitspmm-serve` binary calls it from each connection thread, and
//! [`SpmmServer::serve_controlled`] from each
//! [`RequestSender::send_request`], handing the response to a consumer
//! before the send returns.
//!
//! * **Admission** — an [`AdmissionPolicy`] bounds the requests running on
//!   one engine; one more is shed at once ([`RejectReason::QueueFull`]), as
//!   is an unknown id ([`RejectReason::UnknownEngine`]). [`ServerReport`]
//!   counts completed, rejected and failed requests.
//! * **Concurrency** — launches are lane-capped per engine, so requests for
//!   different engines sent from different threads run at once on disjoint
//!   worker subsets; a slow engine holds back no other engine's response.
//! * **Topology and updates** — engines can be added while requests run,
//!   and [`crate::update::MutableSpmm::apply`] on [`SpmmServer::mutable`]
//!   publishes a new generation from any thread: a request sent after it
//!   returns runs on the new matrix.
//! * **Fault containment** — a worker panic (a crash in generated code, on
//!   any shard) fails exactly its request with [`ServerResponse::Failed`];
//!   the cfg-gated [`fault`] module injects such crashes for chaos tests.

mod control;
mod report;
mod server;

#[cfg(any(test, feature = "fault-injection"))]
pub mod fault;

#[cfg(test)]
mod server_tests;

pub use control::{AdmissionPolicy, RejectReason, SendError};
pub use report::ServerReport;
pub use server::{RequestSender, ServeOptions, ServerRequest, ServerResponse, SpmmServer};
