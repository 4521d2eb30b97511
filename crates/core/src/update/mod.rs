//! Live incremental matrix updates: apply a [`DeltaBatch`] of edge
//! mutations to a compiled sharded engine, rebuilding **only the shards
//! the delta touches** and hot-swapping the result between launches.
//!
//! The paper's whole premise is that compiling SpMM code *per matrix* is
//! worth it because one matrix serves many multiplies. Dynamic graphs
//! stress exactly that premise: every edge batch changes the matrix, and a
//! naive engine would re-plan, re-extract and re-compile all K shards per
//! batch. [`MutableSpmm`] keeps the premise intact by making the unit of
//! recompilation the *shard*, not the matrix:
//!
//! * the delta is routed onto the current [`ShardPlan`]'s row ranges
//!   (`delta` submodule) — each op lands in exactly one shard;
//! * touched shards re-materialize via
//!   [`CsrMatrix::apply_delta`](jitspmm_sparse::CsrMatrix::apply_delta) on
//!   their own sub-matrix and recompile; **untouched shards keep their
//!   compiled cores pointer-identically** ([`crate::JitSpmm`]'s adopt
//!   path) and their spec matrices share the previous generation's
//!   non-zero storage;
//! * the rebuilt engine becomes a new *generation* that swaps in between
//!   launches — in-flight work finishes on the old cores, everything
//!   admitted afterwards sees the new matrix;
//! * when the accumulated deltas skew the shard balance past the re-plan
//!   threshold (1.5x shard-nnz imbalance), the update degrades gracefully
//!   to a full re-plan + recompile, reported via
//!   [`UpdateReport::replanned`].
//!
//! Because every partitioning layer in this crate is row-granular, a
//! merged matrix multiplied through *any* generation — incremental or
//! re-planned — is **bit-identical** to a from-scratch engine compiled
//! against the merged matrix; the differential test suite pins this.
//!
//! # The generation protocol
//!
//! A [`MutableSpmm`] owns an append-only vector of generations behind an
//! [`RwLock`]. Every execute path — [`MutableSpmm::execute`],
//! [`MutableSpmm::execute_batch`], and each open [`MutableStream`] —
//! holds a **read** guard for the full duration of its launches;
//! [`MutableSpmm::apply`] takes the **write** lock to append the next
//! generation. Two consequences:
//!
//! * a generation never launches concurrently with its successor, so an
//!   adopted kernel's embedded row-claim counter is only ever driven by
//!   one generation's launch lock at a time;
//! * old generations are **retained for the engine's lifetime** — adopted
//!   kernels embed the base addresses of the generation they were
//!   compiled against, and serving must never unmap them. The retained
//!   cost per update is the *touched* shards' materialized non-zeros plus
//!   O(rows) of row pointers per generation; untouched non-zero storage
//!   is shared, not copied.
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

use crate::engine::{ExecutionReport, JitSpmm};
use crate::error::JitSpmmError;
use crate::runtime::{PoolScope, PooledMatrix, WorkerPool};
use crate::schedule::Strategy;
use crate::shard::{plan_shards, ShardPlan, ShardReport, ShardedSpmm, ShardedStream};
use jitspmm_sparse::{CsrMatrix, DeltaBatch, DenseMatrix, Scalar};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, TryLockError};

/// One compiled snapshot of the evolving matrix: the shard plan it was cut
/// from and the sharded engine compiled (or partially adopted) against it.
///
/// `engine` borrows `plan`'s heap allocation through a raw-pointer
/// promotion to `'static`; it is declared first so it drops before the
/// plan it references. In practice generations are never dropped while
/// their [`MutableSpmm`] lives — the generations vector is append-only,
/// because older generations' kernels embed their plan's array addresses
/// and may still be referenced by adopted cores.
struct Generation<T: Scalar> {
    engine: ShardedSpmm<'static, T>,
    plan: Arc<ShardPlan<T>>,
    revision: u64,
}

impl<T: Scalar> Generation<T> {
    /// Compile the engine for `plan`, adopting donor cores where given, and
    /// seal both into a generation at `revision`.
    fn compile(
        plan: ShardPlan<T>,
        revision: u64,
        d: usize,
        pool: WorkerPool,
        donors: &[Option<&JitSpmm<'_, T>>],
        output_pool: Option<&ShardedSpmm<'_, T>>,
    ) -> Result<Arc<Generation<T>>, JitSpmmError> {
        let plan = Arc::new(plan);
        // SAFETY: the promoted reference points into `plan`'s heap
        // allocation, which the returned generation owns; the engine (the
        // only holder of the promoted lifetime) is dropped before the Arc.
        let plan_ref: &'static ShardPlan<T> = unsafe { &*Arc::as_ptr(&plan) };
        let engine = match output_pool {
            Some(previous) => {
                let fresh: Vec<Option<&JitSpmm<'_, T>>> =
                    if donors.is_empty() { vec![None; plan.len()] } else { donors.to_vec() };
                ShardedSpmm::compile_with_reuse(plan_ref, d, pool, &fresh, previous.output_pool())?
            }
            None => ShardedSpmm::compile(plan_ref, d, pool)?,
        };
        Ok(Arc::new(Generation { engine, plan, revision }))
    }
}

/// A sharded SpMM engine over an **evolving** sparse matrix: compile once,
/// execute many, and [`MutableSpmm::apply`] edge-level [`DeltaBatch`]es in
/// between — rebuilding only the shards each delta touches while untouched
/// shards keep their compiled kernels pointer-identically. See the
/// [module docs](crate::update) for the generation protocol and the
/// bit-identity guarantee.
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
/// // Mutate a few edges and apply: only the touched shard recompiles.
/// let mut delta = DeltaBatch::new();
/// delta.upsert(0, 7, 2.5).delete(1, 0);
/// let report = engine.apply(&delta)?;
/// assert!(report.rebuilt_shards <= 1);
/// let merged = a.apply_delta(&delta).unwrap();
/// let (y1, _) = pool.scope(|s| engine.execute(s, &x))?;
/// assert!(y1.approx_eq(&merged.spmm_reference(&x), 1e-4));
/// # Ok(())
/// # }
/// ```
pub struct MutableSpmm<T: Scalar> {
    /// Append-only: `generations.last()` is current; older entries are
    /// retained because adopted kernels embed their array addresses.
    generations: RwLock<Vec<Arc<Generation<T>>>>,
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
        let generation = Generation::compile(plan, 0, d, pool.clone(), &[], None)?;
        Ok(MutableSpmm {
            generations: RwLock::new(vec![generation]),
            pool,
            d,
            shard_request: shards,
            nrows: matrix.nrows(),
            ncols: matrix.ncols(),
        })
    }

    /// Take the read side of the generation lock, ignoring poison: the
    /// generations vector is only mutated by [`MutableSpmm::apply`], whose
    /// push happens after every fallible step, so a poisoned lock still
    /// guards a consistent (merely possibly stale) vector.
    fn read(&self) -> RwLockReadGuard<'_, Vec<Arc<Generation<T>>>> {
        self.generations.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current generation, promoted to the caller's `'env` borrow of
    /// `self`.
    ///
    /// SAFETY contract (internal): the returned reference outlives `guard`
    /// but not `self` — sound because generation Arcs are append-only and
    /// never dropped while `self` lives, so the pointee is valid for all of
    /// `'env` even after the guard is released. Callers that *launch*
    /// through the returned engine must additionally hold `guard` for the
    /// launch's duration to keep the no-concurrent-generations invariant.
    fn current<'env>(
        &'env self,
        guard: &RwLockReadGuard<'_, Vec<Arc<Generation<T>>>>,
    ) -> &'env Generation<T> {
        let generation = guard.last().expect("a MutableSpmm always holds a generation");
        // SAFETY: see the method docs — append-only Arcs live as long as
        // `self`, which outlives `'env`.
        unsafe { &*Arc::as_ptr(generation) }
    }

    /// Run `f` against the current generation's engine without pinning the
    /// generation lock for `f`'s duration (an `Arc` clone keeps the
    /// generation alive instead). For inspection only — **never for
    /// launches**, which must hold the read guard.
    fn with_current<R>(&self, f: impl FnOnce(&Generation<T>) -> R) -> R {
        let generation = Arc::clone(self.read().last().expect("always one generation"));
        f(&generation)
    }

    /// Compute `Y = A * X` through the current generation — semantics,
    /// errors and report exactly as [`ShardedSpmm::execute`]. The
    /// generation read guard is held for the call's duration, so a
    /// concurrent [`MutableSpmm::apply`] waits for the launch (and vice
    /// versa: this call briefly waits out an in-progress swap).
    ///
    /// # Errors
    ///
    /// As [`ShardedSpmm::execute`].
    pub fn execute<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        x: &'env DenseMatrix<T>,
    ) -> Result<(PooledMatrix<T>, ShardReport), JitSpmmError> {
        let guard = self.read();
        let generation = self.current(&guard);
        generation.engine.execute(scope, x)
    }

    /// Compute `Y = A * X_i` for a whole batch through the current
    /// generation — semantics, errors and report exactly as
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
    ) -> Result<(Vec<PooledMatrix<T>>, ShardReport), JitSpmmError> {
        let guard = self.read();
        let generation = self.current(&guard);
        generation.engine.execute_batch(scope, inputs)
    }

    /// Open a [`MutableStream`] — the incremental pipelined form of
    /// [`MutableSpmm::execute_batch`], wrapping a
    /// [`crate::shard::ShardedStream`] over the current generation. The
    /// stream holds the generation read guard until finished or dropped,
    /// so every input pushed through one stream sees **one** matrix
    /// revision; deltas applied while it is open take effect for streams
    /// opened afterwards.
    ///
    /// # Errors
    ///
    /// As [`ShardedSpmm::batch_stream`].
    pub fn batch_stream<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        depth: usize,
    ) -> Result<MutableStream<'scope, 'env, T>, JitSpmmError> {
        let guard = self.read();
        let generation = self.current(&guard);
        let stream = generation.engine.batch_stream(scope, depth)?;
        Ok(MutableStream { stream, _hold: guard })
    }

    /// Apply an edge-delta batch, compiling the next generation: touched
    /// shards re-materialize and recompile, untouched shards carry their
    /// compiled cores over pointer-identically, and the swap waits for
    /// in-flight launches (the write lock) so no launch ever spans two
    /// revisions. When the delta skews the shard balance past the re-plan
    /// threshold the whole matrix is re-cut and recompiled instead
    /// ([`UpdateReport::replanned`]).
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
        let mut generations = self.generations.write().unwrap_or_else(PoisonError::into_inner);
        self.apply_locked(&mut generations, delta)
    }

    /// Non-blocking [`MutableSpmm::apply`]: `None` if the generation lock
    /// is held (launches in flight, or a user-held stream) — the serving
    /// loop requeues and retries after recycling the engine's lane, so a
    /// busy engine can never deadlock the session against its own stream.
    pub(crate) fn try_apply(
        &self,
        delta: &DeltaBatch<T>,
    ) -> Option<Result<UpdateReport, JitSpmmError>> {
        match self.generations.try_write() {
            Ok(mut generations) => Some(self.apply_locked(&mut generations, delta)),
            Err(TryLockError::Poisoned(poisoned)) => {
                Some(self.apply_locked(&mut poisoned.into_inner(), delta))
            }
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// The current matrix revision: 0 at compile, +1 per non-empty applied
    /// delta (re-planned or not).
    pub fn revision(&self) -> u64 {
        self.read().last().expect("always one generation").revision
    }

    /// Number of generations retained (initial compile included). Grows by
    /// one per applied non-empty delta — see the
    /// [module docs](crate::update) for why old generations are kept.
    pub fn generations_retained(&self) -> usize {
        self.read().len()
    }

    /// Number of shards in the current generation's plan.
    pub fn shards(&self) -> usize {
        self.with_current(|g| g.plan.len())
    }

    /// Non-zeros of the current merged matrix.
    pub fn nnz(&self) -> usize {
        self.with_current(|g| g.plan.nnz())
    }

    /// The current plan's achieved nnz imbalance (see
    /// [`ShardPlan::nnz_imbalance`]).
    pub fn nnz_imbalance(&self) -> f64 {
        self.with_current(|g| g.plan.nnz_imbalance())
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

    /// Stable identities of the current generation's compiled cores, one
    /// per shard in row order ([`JitSpmm::core_id`]). Diagnostic: two
    /// snapshots straddling an [`MutableSpmm::apply`] agree exactly on the
    /// shards the delta did not touch — the pointer-identity guarantee the
    /// update test suite pins.
    pub fn core_ids(&self) -> Vec<usize> {
        self.with_current(|g| g.engine.engines().iter().map(JitSpmm::core_id).collect())
    }

    /// Materialize the current logical matrix as one owned [`CsrMatrix`] —
    /// the concatenation of the current generation's shard sub-matrices.
    /// O(nnz); meant for oracles, checkpoints and tests, not the serving
    /// path.
    pub fn merged_matrix(&self) -> CsrMatrix<T> {
        self.with_current(|g| apply::concat_specs(g.plan.shards(), self.ncols))
    }

    /// Validate a dense input against the fixed `ncols x d` shape — the
    /// serving router's pre-admission check, answerable without touching
    /// the generation lock.
    pub(crate) fn check_input_shape(&self, x: &DenseMatrix<T>) -> Result<(), JitSpmmError> {
        if x.nrows() != self.ncols || x.ncols() != self.d {
            return Err(JitSpmmError::ShapeMismatch(format!(
                "dense input is {}x{} but the mutable sharded kernel expects {}x{}",
                x.nrows(),
                x.ncols(),
                self.ncols,
                self.d
            )));
        }
        Ok(())
    }

    /// The heaviest current shard's strategy, for merged serving reports.
    pub(crate) fn dominant_strategy(&self) -> Strategy {
        self.with_current(|g| g.engine.dominant_strategy())
    }
}

/// A pipelined batch stream over a [`MutableSpmm`], created by
/// [`MutableSpmm::batch_stream`]: a [`ShardedStream`] pinned to one matrix
/// revision. The stream holds the engine's generation read guard — deltas
/// applied while it is open wait (or, in the serving loop, requeue) until
/// it finishes or drops, and every result it produces reflects the
/// revision current at open time.
pub struct MutableStream<'scope, 'env, T: Scalar> {
    // Declared before the guard so in-flight launches join before the
    // generation read lock is released.
    stream: ShardedStream<'scope, 'env, T>,
    _hold: RwLockReadGuard<'env, Vec<Arc<Generation<T>>>>,
}

impl<'scope, 'env, T: Scalar> MutableStream<'scope, 'env, T> {
    /// The per-shard pipeline depth (see [`ShardedStream::depth`]).
    pub fn depth(&self) -> usize {
        self.stream.depth()
    }

    /// Inputs currently in flight (see [`ShardedStream::in_flight`]).
    pub fn in_flight(&self) -> usize {
        self.stream.in_flight()
    }

    /// Fan the next input out to every shard pipeline (see
    /// [`ShardedStream::push`]).
    ///
    /// # Errors
    ///
    /// As [`ShardedStream::push`].
    pub fn push(
        &mut self,
        x: &'env DenseMatrix<T>,
    ) -> Result<Option<(PooledMatrix<T>, ExecutionReport)>, JitSpmmError> {
        self.stream.push(x)
    }

    /// Drain the pipelines and aggregate the [`ShardReport`] (see
    /// [`ShardedStream::finish`]); the generation read guard releases once
    /// the drain completes.
    ///
    /// # Panics
    ///
    /// As [`ShardedStream::finish`].
    pub fn finish(self) -> (Vec<(PooledMatrix<T>, ExecutionReport)>, ShardReport) {
        let MutableStream { stream, _hold } = self;
        stream.finish()
    }

    /// See [`ShardedStream::push_shared_validated`] — the serving router's
    /// by-value push.
    pub(crate) fn push_shared_validated(
        &mut self,
        x: Arc<DenseMatrix<T>>,
    ) -> Option<(PooledMatrix<T>, ExecutionReport)> {
        self.stream.push_shared_validated(x)
    }

    /// See [`ShardedStream::complete_next`] — the serving control plane's
    /// one-at-a-time drain.
    pub(crate) fn complete_next(&mut self) -> Option<(PooledMatrix<T>, ExecutionReport)> {
        self.stream.complete_next()
    }
}

impl<T: Scalar> std::fmt::Debug for MutableStream<'_, '_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutableStream").field("stream", &self.stream).finish()
    }
}

#[cfg(test)]
mod update_tests;
