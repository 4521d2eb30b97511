//! Multi-engine serving: route a mixed request stream, FIFO, across several
//! compiled engines sharing one [`crate::WorkerPool`], bounded under
//! overload by an admission policy and kept alive when a kernel faults.
//!
//! The paper's premise is that JIT compilation is amortized across many
//! executions of one kernel; a serving system amortizes it one level up,
//! across many *kernels* sharing one runtime. An [`SpmmServer`] owns N
//! compiled [`crate::JitSpmm`] engines — different matrices, column counts
//! and strategies — and accepts a mixed stream of owned requests, each
//! tagged with the id of the engine that should execute it:
//!
//! * every request is validated (engine id, input shape) **before** any
//!   launch state is touched, so malformed traffic produces typed
//!   [`ServerResponse::Rejected`] / [`ServerResponse::Failed`] responses,
//!   never panics or poisoned engines;
//! * each engine's requests flow through its own [`crate::BatchStream`]
//!   pipeline (per-engine launch slots and payloads), fed by
//!   value via [`crate::BatchStream::push_owned`], so cross-thread producers
//!   need no `'env` borrows;
//! * the per-engine lane caps from the runtime keep concurrently in-flight
//!   engines on **disjoint worker subsets** of the shared pool, so a slow
//!   engine cannot starve the others;
//! * requests launch in arrival order and results come back in per-engine
//!   submission order, each tagged with its engine id and sequence numbers
//!   — a front end may pair replies to callers by that order alone;
//! * every completed response carries its own [`crate::ExecutionReport`]
//!   (the stream's per-input report, the one a tail latency is computed
//!   from), and a [`ServerReport`] totals the verdicts: completed,
//!   rejected, failed, and the wall clock they span.
//!
//! A sharded matrix registers behind one logical engine id as a
//! [`crate::update::MutableSpmm`] via [`SpmmServer::add_mutable`]: its lane
//! is the same [`crate::BatchStream`], launching all K shard kernels of a
//! request into one full-height response in place and reporting the
//! request's critical path across the shards — routing and
//! submission-order collection are unchanged.
//!
//! # One FIFO loop, two admission policies, live updates
//!
//! [`SpmmServer::serve_controlled`] is the one entry point: it spawns a
//! producer thread that feeds the bounded request queue (through its
//! [`RequestSender`]) while the calling thread routes, handing each
//! response to a consumer callback the moment it exists. [`ServeOptions`]
//! sets the admission policy.
//!
//! The loop runs on **events**, never on a timer: it parks on one
//! [`crate::runtime::WakeSlot`] — the pool's completion bell, which every
//! finishing launch bumps — and a queued request and the end of the stream
//! ring the same slot. Each lap joins every lane whose oldest launch has
//! finished (so one engine never holds back another's response), hands the
//! responses out and launches the next queued request, none of it blocking.
//! Around the loop:
//!
//! * **Admission control** — the request queue admits under an
//!   [`AdmissionPolicy`]: a queue-depth bound with a choice between
//!   blocking the producer (backpressure — lossless, the reference the
//!   differential suites serve through) and shedding
//!   ([`crate::serve::SendError::Rejected`] with a typed [`RejectReason`],
//!   without blocking). Sends naming an unknown engine id are refused at
//!   the queue.
//! * **Engines added mid-serve** — [`SpmmServer::add_engine`] /
//!   [`SpmmServer::add_mutable`] register engines while a serve runs; the
//!   loop opens their pipeline on the first request naming the new id.
//! * **Live updates** — an update is a call, not a message:
//!   [`crate::update::MutableSpmm::apply`] on [`SpmmServer::mutable`], from
//!   any thread, merges and compiles there and publishes the new generation
//!   without waiting for the loop. A mutable engine's lane pins the
//!   revision it opened on; when it routes a request after the revision
//!   has moved, it drains its in-flight requests on the old matrix and
//!   reopens on the new one. So a request sent after `apply` returns sees
//!   the merged matrix, and the loop itself has no update path.
//! * **Fault containment** — a worker panic (a crash in generated code)
//!   becomes a typed [`ServerResponse::Failed`] for exactly the request
//!   that hit it — on a sharded lane too: the pipeline joins every shard
//!   of a request before it unwinds, so the requests before and after it
//!   complete normally; unrelated engines keep serving and the server
//!   remains usable. The cfg-gated [`fault`] module injects
//!   such crashes for chaos tests.
//!
//! The `jitspmm-serve` binary does not use this loop: each of its
//! connection threads calls its engine and writes the reply itself. The
//! loop serves only library callers and the benchmark crate's in-process
//! probe, which compiles against it; ROADMAP's "one hop" item deletes it
//! together with that probe.

mod control;
mod queue;
mod report;
mod server;

#[cfg(any(test, feature = "fault-injection"))]
pub mod fault;

#[cfg(test)]
mod server_tests;

pub use control::{AdmissionPolicy, RejectReason, SendError};
pub use queue::{RequestSender, ServerRequest};
pub use report::ServerReport;
pub use server::{ServeOptions, ServerResponse, SpmmServer};
