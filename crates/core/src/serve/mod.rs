//! Multi-engine serving: route a mixed request stream across several
//! compiled engines sharing one [`crate::WorkerPool`], under a control
//! plane that keeps the router bounded when overloaded and alive when a
//! kernel faults.
//!
//! The paper's premise is that JIT compilation is amortized across many
//! executions of one kernel; a serving system amortizes it one level up,
//! across many *kernels* sharing one runtime. An [`SpmmServer`] owns N
//! compiled [`crate::JitSpmm`] engines — different matrices, column counts
//! and strategies — and accepts a mixed stream of owned requests, each
//! tagged with the id of the engine that should execute it:
//!
//! * every request is validated (engine id, lifecycle, input shape)
//!   **before** any launch state is touched, so malformed traffic produces
//!   typed [`ServerResponse::Rejected`] / [`ServerResponse::Failed`]
//!   responses, never panics or poisoned engines;
//! * each engine's requests flow through its own [`crate::BatchStream`]
//!   pipeline (per-engine launch slots, payloads and spare kernels), fed by
//!   value via [`crate::BatchStream::push_owned`], so cross-thread producers
//!   need no `'env` borrows;
//! * the per-engine lane caps from the runtime keep concurrently in-flight
//!   engines on **disjoint worker subsets** of the shared pool, so a slow
//!   engine cannot starve the others;
//! * results come back in per-engine submission order, each tagged with
//!   its engine id and sequence numbers;
//! * a [`ServerReport`] aggregates one per-engine [`crate::BatchReport`]
//!   (kernel/dispatch p50/p99 through the same bounded reservoir the batch
//!   layer uses) plus whole-server throughput and the control plane's
//!   rejected/shed counters.
//!
//! Sharded engines ([`crate::shard::ShardedSpmm`]) register behind one
//! logical engine id via [`SpmmServer::add_sharded`]: the router fans each
//! of their requests across the shard pipelines, stitches the shard outputs
//! into one full-height response, and reports the merged critical-path
//! timing in that engine's [`crate::BatchReport`] slot — routing,
//! submission-order collection and [`ServerReport`] aggregation are
//! unchanged.
//!
//! # The serving control plane
//!
//! Serving differs from batch execution in what it must survive: producers
//! that offer more load than the engines can absorb, requests whose answers
//! stop mattering after a deadline, topology that changes while traffic
//! flows, and generated code that faults. The control plane addresses each:
//!
//! * **Admission control** — the request queue admits under an
//!   [`AdmissionPolicy`]: a queue-depth bound plus an optional cap on
//!   requests outstanding in the whole server, with a choice between
//!   blocking the producer (backpressure) and shedding
//!   ([`crate::serve::SendError::Rejected`] with a typed [`RejectReason`],
//!   without blocking). Producers never block indefinitely on an overloaded
//!   server.
//! * **Priorities and deadlines** — each [`ServerRequest`] carries a
//!   `priority` and an optional absolute deadline;
//!   [`SpmmServer::serve_controlled`] drains arrivals through a reorder
//!   buffer ordered by priority, then earliest deadline, then arrival, and
//!   sheds expired requests right before launch
//!   ([`RejectReason::DeadlinePassed`], counted in
//!   [`ServerReport::shed_deadline`]).
//! * **Dynamic topology** — [`SpmmServer::add_engine`] /
//!   [`SpmmServer::add_sharded`] register engines while a serve runs;
//!   [`SpmmServer::retire_engine`] drains an engine out of service without
//!   disturbing the others; [`ControlHandle::drain`] is a barrier that
//!   stops admission and waits until every admitted request has been
//!   answered.
//! * **Fault containment** — a worker panic (a crash in generated code)
//!   becomes a typed [`ServerResponse::Failed`] for exactly the request
//!   that hit it; unrelated engines keep serving and the server remains
//!   usable. The cfg-gated [`fault`] module injects such crashes for chaos
//!   tests.
//!
//! One entry point:
//!
//! * [`SpmmServer::serve_controlled`] — spawn a producer thread that feeds
//!   the bounded request queue (through its [`RequestSender`]) while the
//!   calling thread routes, handing each response to a consumer callback
//!   the moment it exists. [`ServeOptions`] sets the admission policy and
//!   the pipeline depth; priority/deadline scheduling, graceful drain and
//!   fault containment are always on.

mod control;
mod queue;
mod report;
mod server;

#[cfg(any(test, feature = "fault-injection"))]
pub mod fault;

#[cfg(test)]
mod server_tests;

pub use control::{AdmissionPolicy, ControlHandle, EngineStatus, RejectReason, SendError};
pub use queue::{RequestSender, ServerRequest};
pub use report::ServerReport;
pub use server::{ServeOptions, ServerResponse, SpmmServer};
