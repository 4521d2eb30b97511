//! The persistent execution runtime: worker pool, job dispatch and output
//! buffer recycling.
//!
//! JITSPMM's compile-once/run-many design (§II of the paper) makes
//! steady-state `execute()` latency the product. Before this module existed,
//! every [`crate::JitSpmm::execute_into`] call spawned and joined fresh OS
//! threads through `std::thread::scope`, and every [`crate::JitSpmm::execute`]
//! allocated and zeroed a new output matrix — fixed overhead that dwarfs the
//! kernel itself on small and mid-sized matrices. The runtime replaces both:
//!
//! * [`WorkerPool`] ([`pool`]) keeps a set of parked threads alive for the
//!   process (or per pool handle) and feeds them from a FIFO job queue;
//!   workers claim work items from each job's atomic counter, mirroring the
//!   paper's `lock xadd` dynamic row dispatch one level up. Submission wakes
//!   exactly one worker, and workers that claim a lane wake the next — a
//!   notify-one chain that bounds wake cost by the lanes a job actually
//!   uses, not the pool size.
//! * Jobs can be submitted **deferred** inside [`WorkerPool::scope`]:
//!   [`PoolScope::submit`] takes a borrowed task and returns a
//!   [`ScopedJobHandle`] immediately while the job runs in the background;
//!   [`ScopedJobHandle::wait`] joins it with the waiting thread stealing
//!   remaining tasks. The scope joins every scoped job before returning —
//!   so deferred execution never depends on a handle destructor running for
//!   memory safety (`mem::forget` is safe; a leaked handle leaks
//!   allocations, never dangles). [`JobSpec::max_lanes`] caps how many
//!   workers one job occupies, so concurrent jobs — e.g. two engines'
//!   [`crate::BatchStream`]s open at once inside a scope — run on disjoint
//!   worker subsets and genuinely overlap instead of thrashing the whole
//!   pool.
//! * `dispatch` converts a compiled kernel plus its schedule (static
//!   [`crate::RowRange`]s or the dynamic counter loop) into pool jobs and
//!   measures the kernel's critical-path time separately from dispatch
//!   overhead (see [`crate::ExecutionReport`]).
//! * [`PooledMatrix`] recycles output buffers through the engine, so
//!   repeated `execute()` calls perform no allocation — and, because the
//!   generated kernels overwrite every output element (empty rows included),
//!   no memset either.
//!
//! # Batched serving
//!
//! [`crate::JitSpmm::execute_batch`] and [`crate::BatchStream`] build the
//! serving loop on top of these pieces: a stream of dense inputs is
//! pipelined through the job queue with up to `depth` launches in flight,
//! each launch submitting a reusable per-slot payload (no per-launch boxing)
//! and recycling double-buffered [`PooledMatrix`] outputs. Workers flow from
//! one input's job straight into the next without re-parking — the queue, not
//! the submitting thread, keeps them fed. Dynamic-dispatch engines give each
//! in-flight slot its own claim counter (a spare compiled kernel, cached on
//! the engine); static-range kernels are stateless and shared. On a
//! zero-worker pool every launch runs inline at submission through the same
//! queue path. Every input comes back with its own
//! [`crate::ExecutionReport`].
//!
//! The AOT baselines ([`crate::baseline`]) run on the same pool, keeping the
//! paper's JIT-vs-AOT comparisons apples-to-apples: both sides pay the same
//! dispatch cost.

pub mod pool;
pub mod wake;

pub(crate) mod dispatch;

pub use dispatch::PooledMatrix;
pub use pool::{JobSpec, PoolScope, ScopedJobHandle, WorkerPool};
pub use wake::WakeSlot;
