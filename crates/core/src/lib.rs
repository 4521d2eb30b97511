//! # jitspmm — just-in-time instruction generation for accelerated SpMM
//!
//! A Rust reproduction of **JITSPMM: Just-in-Time Instruction Generation for
//! Accelerated Sparse Matrix-Matrix Multiplication** (CGO 2024). SpMM
//! computes `Y = A · X` where `A` is sparse (CSR) and `X`/`Y` are dense;
//! JITSPMM generates the SpMM kernel's machine code *at run time*, when the
//! number of dense columns `d`, the matrix layout and the host ISA are all
//! known, and thereby
//!
//! * keeps an entire output row in SIMD registers (**coarse-grain column
//!   merging**, §IV.C),
//! * removes the column-loop branches an ahead-of-time kernel must execute
//!   (§III),
//! * picks registers and instructions (`vbroadcastss`, `vfmadd231ps`,
//!   `vmovups`, `lock xadd`) tailored to the problem instance (§IV.D), and
//! * plugs into three workload-division strategies — row-split (static or
//!   dynamic), nnz-split and merge-split (§IV.B).
//!
//! # Quick start
//!
//! ```
//! use jitspmm::{JitSpmmBuilder, Strategy};
//! use jitspmm_sparse::{generate, DenseMatrix};
//!
//! # fn main() -> Result<(), jitspmm::JitSpmmError> {
//! // A sparse matrix (here: a small power-law graph) and a dense input.
//! let a = generate::rmat::<f32>(10, 10_000, generate::RmatConfig::GRAPH500, 42);
//! let x = DenseMatrix::random(a.ncols(), 16, 7);
//!
//! // Compile a kernel specialized to `a`, d = 16, this CPU, and the
//! // dynamic row-split strategy; then execute it.
//! let engine = JitSpmmBuilder::new()
//!     .strategy(Strategy::row_split_dynamic_default())
//!     .build(&a, x.ncols())?;
//! let (y, report) = engine.execute(&x)?;
//! assert_eq!(y.nrows(), a.nrows());
//! println!(
//!     "SpMM took {:?} on {} lanes ({:?} kernel + {:?} dispatch)",
//!     report.elapsed, report.threads, report.kernel, report.dispatch
//! );
//! # Ok(())
//! # }
//! ```
//!
//! # The persistent runtime
//!
//! Execution never spawns threads per call: engines dispatch to a persistent
//! [`WorkerPool`] of parked threads (the process-wide [`WorkerPool::global`]
//! by default), and [`JitSpmm::execute`] recycles output buffers through a
//! [`PooledMatrix`], so a steady-state execute loop performs **zero thread
//! spawns and zero allocations** — per-call latency tracks kernel time, not
//! dispatch overhead. Engines can share an explicit pool:
//!
//! ```
//! use jitspmm::{JitSpmmBuilder, WorkerPool};
//! use jitspmm_sparse::{generate, DenseMatrix};
//!
//! # fn main() -> Result<(), jitspmm::JitSpmmError> {
//! let pool = WorkerPool::new(2); // spawned once, parked between jobs
//! let a = generate::uniform::<f32>(200, 200, 2_000, 1);
//! let b = generate::uniform::<f32>(150, 200, 1_500, 2);
//! let eng_a = JitSpmmBuilder::new().pool(pool.clone()).build(&a, 8)?;
//! let eng_b = JitSpmmBuilder::new().pool(pool.clone()).build(&b, 8)?;
//! let x = DenseMatrix::random(200, 8, 3);
//! let (ya, _) = eng_a.execute(&x)?; // both engines share the two workers
//! let (yb, _) = eng_b.execute(&x)?;
//! assert!(ya.approx_eq(&a.spmm_reference(&x), 1e-4));
//! assert!(yb.approx_eq(&b.spmm_reference(&x), 1e-4));
//! # Ok(())
//! # }
//! ```
//!
//! # Overlapping engines: two open streams
//!
//! Every deferred launch is a [`BatchStream`] push. Inside a
//! [`WorkerPool::scope`], [`JitSpmm::batch_stream`] opens a pipeline and
//! [`BatchStream::push`] submits an input without waiting for it;
//! [`BatchStream::finish`] joins what is in flight, the joining thread
//! stealing remaining kernel tasks. Each launch is lane-capped to its
//! engine's [`JitSpmmBuilder::threads`] count, so streams of several
//! engines open at once run **concurrently on disjoint subsets of one
//! pool's workers** instead of serializing — the configuration a server
//! handling many models (or many clients) wants:
//!
//! ```
//! use jitspmm::{JitSpmmBuilder, WorkerPool};
//! use jitspmm_sparse::{generate, DenseMatrix};
//!
//! # fn main() -> Result<(), jitspmm::JitSpmmError> {
//! let pool = WorkerPool::new(2);
//! let a = generate::uniform::<f32>(200, 200, 2_000, 1);
//! let b = generate::uniform::<f32>(150, 200, 1_500, 2);
//! let eng_a = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, 8)?;
//! let eng_b = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&b, 8)?;
//! let x = DenseMatrix::random(200, 8, 3);
//! pool.scope(|scope| -> Result<(), jitspmm::JitSpmmError> {
//!     let mut sa = eng_a.batch_stream(scope, 1)?;
//!     let mut sb = eng_b.batch_stream(scope, 1)?;
//!     sa.push(&x)?; // in flight on worker lane 1
//!     sb.push(&x)?; // in flight on worker lane 2
//!     let (ya, _) = sa.finish().pop().expect("one input pushed");
//!     let (yb, _) = sb.finish().pop().expect("one input pushed");
//!     assert!(ya.approx_eq(&a.spmm_reference(&x), 1e-4));
//!     assert!(yb.approx_eq(&b.spmm_reference(&x), 1e-4));
//!     Ok(())
//! })?;
//! # Ok(())
//! # }
//! ```
//!
//! The scope is what makes deferred launches over *borrowed* data sound
//! without relying on destructors (which [`std::mem::forget`] can skip): it
//! joins every job submitted through it before returning, the same
//! discipline as [`std::thread::scope`]. Raw pool jobs get the same
//! treatment through [`PoolScope::submit`] (borrowed tasks, returning a
//! [`ScopedJobHandle`]) with a [`JobSpec`] giving the task count and lane
//! cap.
//!
//! # Batched serving
//!
//! The steady-state traffic shape JIT compilation is amortized against is a
//! *stream* of dense right-hand sides through one compiled kernel.
//! [`JitSpmm::execute_batch`] pipelines a whole slice of inputs: validation
//! happens once up front, the engine's launch lock is taken once, and up to
//! [`DEFAULT_BATCH_DEPTH`] launches stay in flight so workers flow from one
//! input's job into the next without re-parking (a zero-worker pool runs
//! each launch inline at submission through the same queue path). Every
//! output comes back with its own [`ExecutionReport`], so tail statistics
//! — kernel p50/p99, not just means, because a serving system answers for
//! its tail — are computed from the per-input reports:
//!
//! ```
//! use jitspmm::JitSpmmBuilder;
//! use jitspmm_sparse::{generate, DenseMatrix};
//!
//! # fn main() -> Result<(), jitspmm::JitSpmmError> {
//! let a = generate::uniform::<f32>(256, 256, 3_000, 1);
//! let engine = JitSpmmBuilder::new().build(&a, 16)?;
//! let inputs: Vec<DenseMatrix<f32>> =
//!     (0..8).map(|seed| DenseMatrix::random(256, 16, seed)).collect();
//! let outputs = engine.pool().scope(|scope| engine.execute_batch(scope, &inputs))?;
//! assert_eq!(outputs.len(), 8);
//! let mut kernel: Vec<_> = outputs.iter().map(|(_, report)| report.kernel).collect();
//! kernel.sort();
//! println!("{} inputs, kernel p50 {:?} max {:?}", outputs.len(), kernel[3], kernel[7]);
//! # for (x, (y, _)) in inputs.iter().zip(&outputs) {
//! #     assert!(y.approx_eq(&a.spmm_reference(x), 1e-4));
//! # }
//! # Ok(())
//! # }
//! ```
//!
//! For unbounded streams, [`JitSpmm::batch_stream`] exposes the pipeline
//! incrementally: [`BatchStream::push`] submits the next input (returning
//! the oldest completed output once the pipeline is full, so results arrive
//! in submission order while buffers recycle), [`BatchStream::push_owned`]
//! accepts inputs by value (so cross-thread producers need no `'env`
//! borrows), and [`BatchStream::finish`] drains it. The AOT baselines gain
//! matching batch entry points ([`baseline::scalar::spmm_scalar_batch`],
//! [`baseline::vectorized::spmm_vectorized_batch`],
//! [`baseline::mkl_like::spmm_mkl_like_f32_batch`]) so batched comparisons
//! stay like-for-like.
//!
//! # Mixed-stream serving
//!
//! One level up from batching through a single engine, the [`serve`] module
//! routes a **mixed** request stream across several compiled engines
//! sharing one pool — the paper's amortization argument applied across
//! kernels. An [`serve::SpmmServer`] owns N engines (different matrices,
//! `d`, strategies), validates every engine-tagged request before touching
//! any launch state, feeds each engine's requests through its own batch
//! pipeline by value, keeps concurrent engines on disjoint lane-capped
//! worker subsets, hands every completed response out with its own
//! [`ExecutionReport`], and totals goodput and verdicts in a
//! [`serve::ServerReport`]. There is one entry point,
//! [`serve::SpmmServer::serve_controlled`]: a producer thread feeds the
//! bounded request queue through its [`serve::RequestSender`] while the
//! calling thread routes and hands each response to a consumer callback.
//! That loop is completion-driven: it parks on the pool's completion bell
//! (a [`runtime::WakeSlot`]) and runs when a request arrives, a launch
//! finishes or an update is queued — no timer anywhere, so a microsecond
//! kernel is answered in microseconds, not at the next tick.
//!
//! # One FIFO loop, two admission policies, live updates
//!
//! Routing is only half of serving — the other half is staying bounded and
//! alive when the traffic misbehaves. [`serve::SpmmServer::serve_controlled`]
//! launches requests in arrival order under the [`serve::AdmissionPolicy`]
//! in its [`serve::ServeOptions`]: the policy bounds the queue and, at the
//! bound, either blocks the producer (backpressure — lossless) or sheds
//! with a typed [`serve::RejectReason`] — a producer flooding ten times the
//! queue depth never blocks and learns each verdict in nanoseconds, and the
//! admitted subset still produces outputs **bit-identical** to a blocking
//! `execute`. Engines can be added while a serve is running, and a
//! [`serve::ControlHandle`] queues live matrix updates for mutable engines
//! (see below). A panic in generated code is contained to a typed
//! [`serve::ServerResponse::Failed`] for exactly the request that hit it —
//! unrelated engines keep serving and the server stays usable; the
//! cfg-gated `serve::fault` module injects such crashes for the chaos
//! suite. Every verdict is accounted in the [`serve::ServerReport`]
//! counters (`requests`, `rejected`, `failed` —
//! [`serve::ServerReport::offered`] always adds up to the load the
//! producers offered).
//!
//! ```
//! use jitspmm::serve::{AdmissionPolicy, ServeOptions, ServerRequest, SpmmServer};
//! use jitspmm::JitSpmmBuilder;
//! use jitspmm_sparse::{generate, DenseMatrix};
//!
//! # fn main() -> Result<(), jitspmm::JitSpmmError> {
//! let a = generate::uniform::<f32>(200, 200, 2_000, 1);
//! let server = SpmmServer::new(vec![JitSpmmBuilder::new().build(&a, 8)?])?;
//! let inputs: Vec<DenseMatrix<f32>> =
//!     (0..6).map(|seed| DenseMatrix::random(200, 8, seed)).collect();
//! let (report, sent) = server.serve_controlled(
//!     ServeOptions::new(AdmissionPolicy::blocking(2)),
//!     |sender| {
//!         let mut sent = 0;
//!         for x in inputs {
//!             if sender.send_request(ServerRequest::new(0, x)).is_ok() {
//!                 sent += 1;
//!             }
//!         }
//!         sent
//!     },
//!     |response| assert!(response.is_completed()),
//! )?;
//! assert_eq!(report.requests, sent);
//! assert_eq!(report.offered(), 6);
//! # Ok(())
//! # }
//! ```
//!
//! # Sharded execution
//!
//! For matrices too large for one launch pipeline, the [`shard`] module
//! splits the CSR into K contiguous row shards balanced by non-zero count
//! ([`shard::plan_shards`] — a greedy prefix-sum cut reporting its achieved
//! imbalance), picks a workload-division strategy *per shard* to match its
//! local sparsity (uniform shards go static, skewed shards get the dynamic
//! claim loop), and compiles one engine per shard on a shared pool
//! ([`shard::ShardedSpmm`]). Sharding is **zero-copy**: each shard matrix
//! is a [`CsrMatrix::share_rows`] view aliasing the parent's
//! `col_indices`/`values` buffers, materializing only a rebased `row_ptr`
//! (O(rows) per shard) — a plan over a billion-nonzero matrix weighs
//! kilobytes, not gigabytes. Every sharded launch is one [`BatchStream`]
//! over all K shard kernels — [`shard::ShardedSpmm::execute`] a depth-1
//! one, [`shard::ShardedSpmm::execute_batch`] a pipelined one — launching
//! every shard as an overlapped lane-capped job that writes directly into
//! its row range of one pooled full-height output: no per-shard buffers,
//! nothing stitched or copied. Results are bit-identical to the unsharded
//! engine's, and each input's [`ExecutionReport`] is its critical path
//! across the shards. Behind the serving router a sharded matrix is a
//! [`update::MutableSpmm`] under one logical id
//! ([`serve::SpmmServer::add_mutable`]), so mixed streams can target huge
//! sharded matrices and small single-engine ones uniformly.
//!
//! # One immutable compiled core per engine
//!
//! [`JitSpmmBuilder::build`] generates the kernel for exactly the requested
//! configuration — a few microseconds of code generation, independent of
//! the matrix size (the paper's Table IV) — and the resulting compiled core
//! (kernel, partition, row-claim counter) is fixed for the engine's life
//! and owned by that engine alone: every launch path runs against the same
//! core, and nothing compiled is shared between engines. A restarted
//! process — or an updated matrix — simply compiles again; a different
//! configuration is a different engine.
//!
//! # The futex wake path
//!
//! The park/wake handoff between submitters and workers runs on raw futex
//! words on Linux ([`WakeSlot`], a condvar fallback elsewhere via
//! `--no-default-features`), and every [`ExecutionReport`] exposes the
//! measured handoff as [`ExecutionReport::wake`], so the dispatch tail is
//! attributable per launch, not just in benchmarks.
//!
//! # Dynamic graphs: incremental matrix updates
//!
//! Per-matrix compilation assumes one matrix serves many multiplies;
//! dynamic graphs mutate the matrix between multiplies. The [`update`]
//! module keeps the premise intact by making the unit of *merging* the
//! **shard** and leaning on how cheap compiling is: a [`MutableSpmm`] owns
//! its shard plan, and [`MutableSpmm::apply`] merges a
//! [`jitspmm_sparse::DeltaBatch`] of edge upserts/deletes into **only the
//! shards the delta touches** — every untouched shard keeps sharing its
//! non-zero storage — then compiles every shard fresh (microseconds each).
//! The rebuilt engine becomes the new *generation*, swapped in between
//! launches, and the one it replaces is freed by the swap: memory stays
//! bounded by one generation however many updates arrive. When
//! accumulated deltas skew the shard balance past 1.5x the update re-cuts
//! the whole matrix first ([`UpdateReport::replanned`]). Because
//! partitioning is row-granular, any generation is **bit-identical** to a
//! from-scratch engine compiled on the merged matrix.
//!
//! ```
//! use jitspmm::{MutableSpmm, WorkerPool};
//! use jitspmm_sparse::{generate, DeltaBatch, DenseMatrix};
//!
//! # fn main() -> Result<(), jitspmm::JitSpmmError> {
//! let pool = WorkerPool::new(2);
//! let a = generate::uniform::<f32>(400, 400, 6_000, 1);
//! let engine = MutableSpmm::compile(&a, 4, 1, 8, pool.clone())?;
//! let mut delta = DeltaBatch::new();
//! delta.upsert(0, 7, 2.5).delete(1, 0);
//! let report = engine.apply(&delta)?; // one shard re-merges, four compile
//! assert_eq!(report.revision, 1);
//! assert!(report.touched_shards <= 1);
//! assert_eq!(engine.generations_retained(), 1); // generation 0 is gone
//! let x = DenseMatrix::random(400, 8, 3);
//! let merged = a.apply_delta(&delta).unwrap();
//! let (y, _) = pool.scope(|s| engine.execute(s, &x))?;
//! assert!(y.approx_eq(&merged.spmm_reference(&x), 1e-4));
//! # Ok(())
//! # }
//! ```
//!
//! Behind the server, [`serve::SpmmServer::add_mutable`] registers a
//! mutable engine under one logical id and
//! [`serve::ControlHandle::apply_update`] applies a delta to a **live**
//! [`serve::SpmmServer::serve_controlled`] session: queuing the delta wakes
//! the serving loop, which drains the engine's in-flight lane, swaps
//! generations, and admits subsequent requests against the new matrix —
//! observable via
//! [`serve::ControlHandle::engine_revision`] /
//! [`serve::ControlHandle::wait_revision`]. The `jitspmm-serve` binary
//! exposes the same path over TCP (`--mutable`, the `UPDATE` frame).
//!
//! # Architecture map
//!
//! ```text
//! jitspmm (crates/core)
//! ├── engine/            compile once, execute many
//! │   ├── options        SpmmOptions, JitSpmmBuilder
//! │   ├── compile        JitSpmm construction: the immutable compiled core, spare slot kernels
//! │   ├── launch         blocking execute / execute_into / execute_single_thread, launch lock
//! │   ├── batch          every deferred launch: execute_batch, BatchStream over 1..K shard kernels
//! │   └── report         ExecutionReport, the one per-launch report
//! ├── update/            incremental matrix updates behind live serving
//! │   ├── delta          delta routing onto shard row ranges
//! │   ├── apply          shard-local merge + recompile, re-plan on drift
//! │   └── (mod)          MutableSpmm generations, revision-pinned streams
//! ├── serve/             multi-engine serving router: one FIFO loop
//! │   ├── server         SpmmServer, the serve_controlled loop
//! │   ├── queue          bounded FIFO request queue behind RequestSender, admission gate
//! │   ├── control        AdmissionPolicy (block | shed), ControlHandle (live updates)
//! │   ├── fault          cfg-gated crash/delay injection for chaos tests
//! │   └── report         ServerReport (verdict counters + wall clock)
//! ├── shard/             nnz-balanced multi-engine sharding
//! │   ├── plan           plan_shards: prefix-sum cuts, per-shard strategies
//! │   └── engine         ShardedSpmm: K engines behind one BatchStream, in-place launches
//! ├── runtime/           persistent execution substrate
//! │   ├── pool           WorkerPool: FIFO job queue, lane caps, scopes
//! │   ├── wake           WakeSlot: futex wake path (condvar fallback)
//! │   └── dispatch       KernelJob, LaunchPayload slots, BufferPool
//! ├── schedule           workload-division strategies and partitioning
//! ├── tiling             coarse-grain column merging register allocation
//! ├── codegen            the x86-64 kernel generator
//! ├── baseline/          AOT baselines (scalar, auto-vectorized, MKL-like)
//! └── profile            hardware-event models, emulator-based measurement
//! ```
//!
//! The sparse/dense containers live in [`jitspmm_sparse`] (whose
//! `CsrStorage` backs the owned-or-borrowed nnz arrays behind
//! [`CsrMatrix::share_rows`]), the runtime assembler in [`jitspmm_asm`],
//! and the profiling emulator in [`jitspmm_emu`]; all three are re-exported
//! for convenience.

#![deny(missing_docs)]

pub mod baseline;
pub mod codegen;
pub mod engine;
pub mod error;
pub mod kernel;
pub mod profile;
pub mod runtime;
pub mod schedule;
pub mod serve;
pub mod shard;
pub mod tiling;
pub mod update;

pub use codegen::KernelOptions;
pub use engine::{
    BatchStream, ExecutionReport, JitSpmm, JitSpmmBuilder, SpmmOptions, DEFAULT_BATCH_DEPTH,
};
pub use error::JitSpmmError;
pub use kernel::{CompiledKernel, KernelKind, KernelMeta};
pub use profile::ProfileCounts;
pub use runtime::{JobSpec, PoolScope, PooledMatrix, ScopedJobHandle, WakeSlot, WorkerPool};
pub use schedule::{DynamicCounter, Partition, RowRange, Strategy};
pub use serve::{
    AdmissionPolicy, ControlHandle, RejectReason, RequestSender, SendError, ServeOptions,
    ServerReport, ServerRequest, ServerResponse, SpmmServer,
};
pub use shard::{plan_shards, ShardPlan, ShardSpec, ShardedSpmm};
pub use tiling::{CcmPlan, ColumnTile, Segment, SegmentWidth};
pub use update::{MutableSpmm, UpdateReport};

pub use jitspmm_asm::{CpuFeatures, IsaLevel};
pub use jitspmm_sparse::{CooMatrix, CsrMatrix, DenseMatrix, Scalar, ScalarKind};
