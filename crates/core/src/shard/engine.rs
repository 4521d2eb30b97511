//! The [`ShardedSpmm`] engine: one JIT-compiled [`JitSpmm`] per shard of a
//! [`ShardPlan`], executing as overlapped lane-capped launches on a shared
//! [`WorkerPool`], every shard kernel writing its row range of one
//! full-height output in place.

use crate::engine::{run_batch, BatchStream, ExecutionReport, JitSpmm, JitSpmmBuilder};
use crate::error::JitSpmmError;
use crate::runtime::dispatch::BufferPool;
use crate::runtime::{PoolScope, PooledMatrix, WorkerPool};
use crate::shard::plan::ShardPlan;
use jitspmm_sparse::{DenseMatrix, Scalar};
use std::sync::Arc;

/// A sharded SpMM engine: K independently compiled [`JitSpmm`] engines —
/// one per row shard of a [`ShardPlan`] — sharing one [`WorkerPool`].
///
/// A single engine is bounded by one launch pipeline and one partition of
/// one CSR; a huge matrix sharded into K nnz-balanced row ranges gets K
/// kernels that compile independently (each specialized to its shard's
/// local sparsity, with its own workload-division strategy) and launch as
/// **overlapped, lane-capped jobs on disjoint worker subsets**, the same
/// overlap discipline the serving router uses across heterogeneous engines.
/// Shard kernels write directly into their row range of one full-height
/// pooled output through one [`BatchStream`] over all K kernels — one input
/// at a time ([`ShardedSpmm::execute`], a depth-1 stream) or pipelined
/// ([`ShardedSpmm::execute_batch`]) — so nothing is copied or stitched and
/// steady-state execution performs no per-call buffer allocation.
///
/// ```
/// use jitspmm::shard::{plan_shards, ShardedSpmm};
/// use jitspmm::WorkerPool;
/// use jitspmm_sparse::{generate, DenseMatrix};
///
/// # fn main() -> Result<(), jitspmm::JitSpmmError> {
/// let pool = WorkerPool::new(2);
/// let a = generate::rmat::<f32>(10, 20_000, generate::RmatConfig::GRAPH500, 1);
/// // Two nnz-balanced shards, one worker lane each.
/// let plan = plan_shards(&a, 2, 1)?;
/// let sharded = ShardedSpmm::compile(&plan, 8, pool.clone())?;
/// let x = DenseMatrix::random(a.ncols(), 8, 3);
/// let (y, report) = pool.scope(|scope| sharded.execute(scope, &x))?;
/// assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
/// // The report is the input's critical path: both shards' lanes.
/// assert_eq!(report.threads, 2);
/// assert!(plan.nnz_imbalance() >= 1.0);
/// # Ok(())
/// # }
/// ```
pub struct ShardedSpmm<'a, T: Scalar> {
    plan: &'a ShardPlan<T>,
    /// One engine per shard, in row order.
    engines: Vec<JitSpmm<'a, T>>,
    pool: WorkerPool,
    d: usize,
    /// Recycles full-height outputs, exactly like a single engine's pool.
    output_pool: Arc<BufferPool<T>>,
}

impl<T: Scalar> std::fmt::Debug for ShardedSpmm<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSpmm")
            .field("shards", &self.engines.len())
            .field("d", &self.d)
            .field("pool_workers", &self.pool.size())
            .field("nnz_imbalance", &self.plan.nnz_imbalance())
            .finish()
    }
}

impl<'a, T: Scalar> ShardedSpmm<'a, T> {
    /// Compile one engine per shard of `plan` for `d` dense columns, all
    /// executing on `pool`. Each shard engine uses the plan's per-shard
    /// strategy and is lane-capped to [`ShardPlan::lanes`] workers, so the
    /// K shard launches of one execute overlap on disjoint subsets of the
    /// shared pool.
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::EmptyDenseMatrix`] if `d` is zero, or a codegen
    /// error if any shard kernel fails to compile.
    pub fn compile(
        plan: &'a ShardPlan<T>,
        d: usize,
        pool: WorkerPool,
    ) -> Result<ShardedSpmm<'a, T>, JitSpmmError> {
        let engines: Vec<JitSpmm<'a, T>> = plan
            .shards()
            .iter()
            .map(|spec| {
                JitSpmmBuilder::new()
                    .pool(pool.clone())
                    .threads(plan.lanes())
                    .strategy(spec.strategy)
                    .build(&spec.matrix, d)
            })
            .collect::<Result<_, _>>()?;
        // The one-pool invariant (the disjoint-lane overlap only holds
        // within one pool) is true by construction here — every builder was
        // handed a clone of `pool` — so it is asserted, not returned as an
        // error. The boundary where foreign pools can actually arrive is
        // [`crate::serve::SpmmServer::add_mutable`], which does the real
        // [`WorkerPool::same_pool`] check.
        debug_assert!(engines.iter().all(|e| e.pool().same_pool(&pool)));
        Ok(ShardedSpmm { plan, engines, pool, d, output_pool: Arc::new(BufferPool::new()) })
    }

    /// Recycle full-height outputs through `previous`'s buffer pool from now
    /// on: the update layer ([`crate::update`]) hands the pool from each
    /// generation to its successor — the only thing that crosses a swap — so
    /// a live server keeps recycling its outputs through an update.
    pub(crate) fn inherit_output_pool(&mut self, previous: &ShardedSpmm<'_, T>) {
        self.output_pool = Arc::clone(&previous.output_pool);
    }

    /// Full-height output buffers the shared pool holds spare.
    #[cfg(test)]
    pub(super) fn spare_outputs(&self) -> usize {
        self.output_pool.spare_buffers()
    }

    /// The plan this engine was compiled from.
    pub fn plan(&self) -> &'a ShardPlan<T> {
        self.plan
    }

    /// The per-shard engines, in row order.
    pub fn engines(&self) -> &[JitSpmm<'a, T>] {
        &self.engines
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.engines.len()
    }

    /// The number of dense columns every shard kernel expects.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The worker pool every shard executes on.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Compute `Y = A * X` through a depth-1 [`BatchStream`] over every
    /// shard kernel: shard `k`'s kernel writes rows `rows_k` of the full
    /// matrix **directly into its row range** of one pooled full-height
    /// output (the stitch is free — a shard's rows are contiguous in the
    /// output), the K launches overlap on disjoint lane-capped worker
    /// subsets, and the call returns once the slowest shard has joined, with
    /// that critical path as its [`ExecutionReport`]. Steady-state repeated
    /// execution recycles the output buffer. Concurrent sharded executes,
    /// from this thread or others, run side by side.
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::ShapeMismatch`] if `x` is not `A.ncols() x d`.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic of the run after joining the shard
    /// launches still in flight; the engines stay usable afterwards.
    pub fn execute<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        x: &'env DenseMatrix<T>,
    ) -> Result<(PooledMatrix<T>, ExecutionReport), JitSpmmError> {
        let mut done = self.execute_batch(scope, std::slice::from_ref(x))?;
        Ok(done.pop().expect("one input, one output"))
    }

    /// Compute `Y = A * X_i` for every input in `inputs`, pipelining the
    /// batch through all shards at once: one [`BatchStream`] launches every
    /// shard kernel of an input straight into its row range of one pooled
    /// full-height output, with per-slot payloads. Each output returns, in
    /// input order, with its per-input critical-path [`ExecutionReport`].
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::ShapeMismatch`] (naming the offending input index in
    /// a batch of several) if any input is not `A.ncols() x d` — nothing is
    /// launched in that case.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic of the batch after joining the
    /// launches still in flight; the engines stay usable afterwards.
    pub fn execute_batch<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        inputs: &'env [DenseMatrix<T>],
    ) -> Result<Vec<(PooledMatrix<T>, ExecutionReport)>, JitSpmmError> {
        run_batch(inputs, (self.plan.ncols(), self.d), |depth| self.batch_stream(scope, depth))
    }

    /// Open a [`BatchStream`] over all K shard kernels: the incremental
    /// form of [`ShardedSpmm::execute_batch`] for unbounded input streams,
    /// with `depth` as in [`JitSpmm::batch_stream`]. Every pushed input
    /// launches all shards into one pooled full-height output and completes
    /// when its slowest shard has joined.
    pub fn batch_stream<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        depth: usize,
    ) -> BatchStream<'scope, 'env, T> {
        BatchStream::open(scope, depth, &self.engines, &self.output_pool)
    }
}
