//! Live incremental matrix updates: apply a [`DeltaBatch`] of edge
//! mutations to a compiled sharded engine, re-merging **only the shards
//! the delta touches** and hot-swapping the result between launches.
//!
//! The paper's whole premise is that compiling SpMM code *per matrix* is
//! worth it because one matrix serves many multiplies, and its Table IV is
//! why: generating a kernel costs microseconds. Dynamic graphs change the
//! matrix with every edge batch, so what an update has to keep cheap is the
//! *data* work, not the compile. [`MutableSpmm`] makes the unit of merging
//! the *shard*, and simply compiles again:
//!
//! * the delta is routed onto the current [`ShardPlan`]'s row ranges
//!   (`delta` submodule) — each op lands in exactly one shard;
//! * touched shards re-materialize via
//!   [`CsrMatrix::apply_delta`](jitspmm_sparse::CsrMatrix::apply_delta) on
//!   their own sub-matrix; untouched shards' spec matrices are clones
//!   sharing the previous non-zero storage (O(rows) row pointers copied);
//! * **every** shard then compiles fresh against the new plan — a kernel
//!   embeds the base addresses of the arrays it reads, so a compiled core
//!   belongs to exactly one generation;
//! * the rebuilt engine becomes the new *generation*, swapped in between
//!   launches — in-flight work finishes on the old cores, everything
//!   admitted afterwards sees the new matrix, and the swap frees the old
//!   generation;
//! * when the accumulated deltas skew the shard balance past the re-plan
//!   threshold (1.5x shard-nnz imbalance), the update re-cuts the whole
//!   merged matrix first, reported via [`UpdateReport::replanned`].
//!
//! Because every partitioning layer in this crate is row-granular, a
//! merged matrix multiplied through *any* generation — incremental or
//! re-planned — is **bit-identical** to a from-scratch engine compiled
//! against the merged matrix; the differential test suite pins this.
//!
//! # The generation protocol
//!
//! A [`MutableSpmm`] owns **one** live generation behind an [`RwLock`].
//! Every execute path is a stream opened by [`MutableSpmm::batch_stream`] —
//! [`MutableSpmm::execute`] a depth-1 one, [`MutableSpmm::execute_batch`]
//! one over the slice — and holds a **read** guard (riding inside the
//! [`BatchStream`]) until its launches have joined;
//! [`MutableSpmm::apply`] takes the **write** lock to swap the successor
//! in and drop the generation it replaces. Two consequences:
//!
//! * the read guard is what keeps a generation alive: a swap cannot start
//!   while any launch is in flight, so nothing ever executes a kernel (or
//!   reads the arrays it embeds) of a generation that has been freed, and
//!   memory stays bounded by one generation however many updates arrive
//!   ([`MutableSpmm::generations_retained`] reads 1 between swaps);
//! * an update costs one shard-local merge per touched shard plus K shard
//!   compiles (microseconds each, independent of the matrix size), all
//!   outside the launch path.
//!
//! [`crate::serve::SpmmServer`] registers a mutable engine behind one
//! logical id ([`crate::serve::SpmmServer::add_mutable`]), and
//! [`crate::serve::ControlHandle::apply_update`] applies a delta to a
//! **live serving session** from outside: the session drains the engine's
//! in-flight lane, swaps, and admits subsequent requests against the new
//! matrix — all mid-stream, with per-engine revisions observable through
//! [`crate::serve::ControlHandle::engine_revision`].

mod apply;
mod delta;

pub use apply::UpdateReport;

use crate::engine::{run_batch, BatchStream, ExecutionReport};
use crate::error::JitSpmmError;
use crate::runtime::{PoolScope, PooledMatrix, WorkerPool};
use crate::shard::{plan_shards, ShardPlan, ShardedSpmm};
use jitspmm_sparse::{CsrMatrix, DeltaBatch, DenseMatrix, Scalar};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, TryLockError};

/// One compiled snapshot of the evolving matrix: the shard plan it was cut
/// from and the sharded engine compiled against it. A generation owns
/// everything its kernels point at, so dropping it frees all of it.
///
/// `engine` borrows `plan`'s heap allocation through a raw-pointer
/// promotion to `'static`; it is declared first so it drops before the
/// plan it references.
struct Generation<T: Scalar> {
    engine: ShardedSpmm<'static, T>,
    plan: Arc<ShardPlan<T>>,
    revision: u64,
    /// The owning [`MutableSpmm`]'s live-generation gauge: +1 in
    /// [`Generation::compile`], -1 in `Drop`.
    live: Arc<AtomicUsize>,
}

impl<T: Scalar> Generation<T> {
    /// Compile every shard of `plan` fresh and seal plan and engine into a
    /// generation at `revision`, recycling full-height outputs through
    /// `previous`'s pool and counted by `live` until it drops.
    fn compile(
        plan: ShardPlan<T>,
        revision: u64,
        d: usize,
        pool: WorkerPool,
        previous: Option<&Generation<T>>,
        live: &Arc<AtomicUsize>,
    ) -> Result<Generation<T>, JitSpmmError> {
        let plan = Arc::new(plan);
        // SAFETY: the promoted reference points into `plan`'s heap
        // allocation, which the returned generation owns; the engine (the
        // only holder of the promoted lifetime) is dropped before the Arc,
        // and the generation only by the write-locked swap or with its
        // `MutableSpmm` — never while a launch holds the read guard.
        let plan_ref: &'static ShardPlan<T> = unsafe { &*Arc::as_ptr(&plan) };
        let mut engine = ShardedSpmm::compile(plan_ref, d, pool)?;
        if let Some(previous) = previous {
            engine.inherit_output_pool(&previous.engine);
        }
        live.fetch_add(1, Ordering::Relaxed);
        Ok(Generation { engine, plan, revision, live: Arc::clone(live) })
    }
}

impl<T: Scalar> Drop for Generation<T> {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A sharded SpMM engine over an **evolving** sparse matrix: compile once,
/// execute many, and [`MutableSpmm::apply`] edge-level [`DeltaBatch`]es in
/// between — re-merging only the shards each delta touches and compiling
/// the successor generation fresh, which replaces (and frees) the current
/// one. See the [module docs](crate::update) for the generation protocol
/// and the bit-identity guarantee.
///
/// ```
/// use jitspmm::update::MutableSpmm;
/// use jitspmm::WorkerPool;
/// use jitspmm_sparse::{generate, DeltaBatch, DenseMatrix};
///
/// # fn main() -> Result<(), jitspmm::JitSpmmError> {
/// let pool = WorkerPool::new(2);
/// let a = generate::uniform::<f32>(400, 400, 6_000, 1);
/// let engine = MutableSpmm::compile(&a, 4, 1, 8, pool.clone())?;
/// let x = DenseMatrix::random(400, 8, 3);
/// let (y0, _) = pool.scope(|s| engine.execute(s, &x))?;
/// assert!(y0.approx_eq(&a.spmm_reference(&x), 1e-4));
///
/// // Mutate a few edges and apply: only the touched shard re-merges.
/// let mut delta = DeltaBatch::new();
/// delta.upsert(0, 7, 2.5).delete(1, 0);
/// let report = engine.apply(&delta)?;
/// assert!(report.touched_shards <= 1);
/// assert_eq!(engine.generations_retained(), 1);
/// let merged = a.apply_delta(&delta).unwrap();
/// let (y1, _) = pool.scope(|s| engine.execute(s, &x))?;
/// assert!(y1.approx_eq(&merged.spmm_reference(&x), 1e-4));
/// # Ok(())
/// # }
/// ```
pub struct MutableSpmm<T: Scalar> {
    /// The one live generation. Launch paths hold the read guard until
    /// their launches have joined; `apply` swaps under the write lock,
    /// dropping the generation it replaces.
    generation: RwLock<Generation<T>>,
    /// Counts this engine's [`Generation`] values that exist right now
    /// (see [`MutableSpmm::generations_retained`]).
    live: Arc<AtomicUsize>,
    pool: WorkerPool,
    d: usize,
    /// The shard count originally requested — a full re-plan re-cuts to it.
    shard_request: usize,
    nrows: usize,
    ncols: usize,
}

impl<T: Scalar> std::fmt::Debug for MutableSpmm<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutableSpmm")
            .field("revision", &self.revision())
            .field("shards", &self.shards())
            .field("d", &self.d)
            .field("generations", &self.generations_retained())
            .finish()
    }
}

impl<T: Scalar> MutableSpmm<T> {
    /// Plan `shards` nnz-balanced row shards of `matrix` (at `lanes` worker
    /// lanes per shard) and compile the initial generation for `d` dense
    /// columns on `pool` — [`crate::shard::plan_shards`] followed by
    /// [`ShardedSpmm::compile`], with the plan owned internally so the
    /// engine can replace it on later updates.
    ///
    /// # Errors
    ///
    /// As [`crate::shard::plan_shards`] and [`ShardedSpmm::compile`].
    pub fn compile(
        matrix: &CsrMatrix<T>,
        shards: usize,
        lanes: usize,
        d: usize,
        pool: WorkerPool,
    ) -> Result<MutableSpmm<T>, JitSpmmError> {
        let plan = plan_shards(matrix, shards, lanes)?;
        let live = Arc::new(AtomicUsize::new(0));
        let generation = Generation::compile(plan, 0, d, pool.clone(), None, &live)?;
        Ok(MutableSpmm {
            generation: RwLock::new(generation),
            live,
            pool,
            d,
            shard_request: shards,
            nrows: matrix.nrows(),
            ncols: matrix.ncols(),
        })
    }

    /// Take the read side of the generation lock, ignoring poison: the slot
    /// is only written by [`MutableSpmm::apply`], whose swap happens after
    /// every fallible step, so a poisoned lock still guards a consistent
    /// (merely possibly stale) generation.
    fn read(&self) -> RwLockReadGuard<'_, Generation<T>> {
        self.generation.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pin the live generation for launching: the read guard plus the
    /// generation it protects, promoted to the caller's `'env` borrow of
    /// `self` (the lifetime [`PoolScope`] launches are typed against).
    fn pin<'env>(&'env self) -> (RwLockReadGuard<'env, Generation<T>>, &'env Generation<T>) {
        let guard = self.read();
        // SAFETY: the reference outlives the guard by *type*, never by
        // *use*. It points at the lock's slot inside `self`, whose value is
        // replaced (and the old one dropped) only by `apply` under the
        // write lock — unobtainable while `guard` lives — and every caller
        // keeps the guard until each launch made through the reference has
        // joined: the guard rides inside the [`BatchStream`] every launch
        // goes through, whose `Drop` joins every launch before any of its
        // fields is released. A leaked guard blocks swaps forever instead
        // of dangling.
        let generation = unsafe { &*(&*guard as *const Generation<T>) };
        (guard, generation)
    }

    /// Compute `Y = A * X` through the current generation — a depth-1
    /// [`MutableSpmm::batch_stream`], with semantics, errors and report
    /// exactly as [`ShardedSpmm::execute`]. The input is validated before
    /// the generation is pinned; the read guard is then held until the
    /// launch has joined, so a concurrent [`MutableSpmm::apply`] waits for
    /// the launch (and vice versa: this call briefly waits out an
    /// in-progress swap).
    ///
    /// # Errors
    ///
    /// As [`ShardedSpmm::execute`].
    pub fn execute<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        x: &'env DenseMatrix<T>,
    ) -> Result<(PooledMatrix<T>, ExecutionReport), JitSpmmError> {
        let mut done = self.execute_batch(scope, std::slice::from_ref(x))?;
        Ok(done.pop().expect("one input, one output"))
    }

    /// Compute `Y = A * X_i` for a whole batch through the current
    /// generation — semantics, errors and reports exactly as
    /// [`ShardedSpmm::execute_batch`]. The generation read guard is held
    /// for the batch's duration: a delta applied concurrently lands after
    /// the batch, never inside it.
    ///
    /// # Errors
    ///
    /// As [`ShardedSpmm::execute_batch`].
    pub fn execute_batch<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        inputs: &'env [DenseMatrix<T>],
    ) -> Result<Vec<(PooledMatrix<T>, ExecutionReport)>, JitSpmmError> {
        run_batch(inputs, (self.ncols, self.d), |depth| self.batch_stream(scope, depth))
    }

    /// Open a [`BatchStream`] over the current generation's shard kernels —
    /// the incremental pipelined form of [`MutableSpmm::execute_batch`],
    /// exactly [`ShardedSpmm::batch_stream`] plus the pin: the generation
    /// read guard rides inside the stream until it is finished or dropped,
    /// so every input pushed through one stream sees **one** matrix
    /// revision; deltas applied while it is open wait (or, in the serving
    /// loop, requeue) and take effect for streams opened afterwards.
    ///
    /// # Errors
    ///
    /// As [`ShardedSpmm::batch_stream`].
    pub fn batch_stream<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        depth: usize,
    ) -> Result<BatchStream<'scope, 'env, T>, JitSpmmError> {
        let (guard, generation) = self.pin();
        Ok(generation.engine.batch_stream(scope, depth)?.holding(guard))
    }

    /// Apply an edge-delta batch, compiling the next generation: touched
    /// shards re-materialize, every shard compiles fresh, and the swap
    /// waits for in-flight launches (the write lock) so no launch ever
    /// spans two revisions — then frees the generation it replaced. When
    /// the delta skews the shard balance past the re-plan threshold the
    /// whole matrix is re-cut first ([`UpdateReport::replanned`]).
    ///
    /// An empty batch is a no-op: no generation is built and the revision
    /// does not advance.
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::InvalidConfig`] if any op falls outside the matrix
    /// dimensions (dimensions never change — dynamic graphs mutate edges,
    /// not the vertex set), or a codegen error from rebuilding a shard. On
    /// error the engine keeps serving the previous generation unchanged.
    pub fn apply(&self, delta: &DeltaBatch<T>) -> Result<UpdateReport, JitSpmmError> {
        let mut generation = self.generation.write().unwrap_or_else(PoisonError::into_inner);
        self.apply_locked(&mut generation, delta)
    }

    /// Non-blocking [`MutableSpmm::apply`]: `None` if the generation lock
    /// is held (launches in flight, or a user-held stream) — the serving
    /// loop requeues and retries after recycling the engine's lane, so a
    /// busy engine can never deadlock the session against its own stream.
    pub(crate) fn try_apply(
        &self,
        delta: &DeltaBatch<T>,
    ) -> Option<Result<UpdateReport, JitSpmmError>> {
        match self.generation.try_write() {
            Ok(mut generation) => Some(self.apply_locked(&mut generation, delta)),
            Err(TryLockError::Poisoned(poisoned)) => {
                Some(self.apply_locked(&mut poisoned.into_inner(), delta))
            }
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// The current matrix revision: 0 at compile, +1 per non-empty applied
    /// delta (re-planned or not).
    pub fn revision(&self) -> u64 {
        self.read().revision
    }

    /// Number of this engine's compiled generations that exist right now —
    /// a live gauge (+1 when a generation is built, -1 when it drops), not a
    /// count of applied updates. It reads 1 whenever no `apply` is midway;
    /// more means something keeps a superseded generation (and everything
    /// its kernels point at) alive.
    pub fn generations_retained(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Number of shards in the current generation's plan.
    pub fn shards(&self) -> usize {
        self.read().plan.len()
    }

    /// Non-zeros of the current merged matrix.
    pub fn nnz(&self) -> usize {
        self.read().plan.nnz()
    }

    /// The current plan's achieved nnz imbalance (see
    /// [`ShardPlan::nnz_imbalance`]).
    pub fn nnz_imbalance(&self) -> f64 {
        self.read().plan.nnz_imbalance()
    }

    /// Rows of the matrix (fixed for the engine's lifetime).
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the matrix (fixed for the engine's lifetime).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The number of dense columns every kernel expects.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The worker pool every generation executes on.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Materialize the current logical matrix as one owned [`CsrMatrix`] —
    /// the concatenation of the current generation's shard sub-matrices.
    /// O(nnz) under the generation read lock (a concurrent apply waits for
    /// the copy); meant for oracles, checkpoints and tests, not the serving
    /// path.
    pub fn merged_matrix(&self) -> CsrMatrix<T> {
        apply::concat_specs(self.read().plan.shards(), self.ncols)
    }
}

#[cfg(test)]
mod update_tests;
