//! The [`ShardedSpmm`] engine: one JIT-compiled [`JitSpmm`] per shard of a
//! [`ShardPlan`], executing as overlapped lane-capped launches on a shared
//! [`WorkerPool`], every shard kernel writing its row range of one
//! full-height output in place.

use crate::engine::{run_batch, BatchStream, ExecutionHandle, JitSpmm, JitSpmmBuilder};
use crate::error::JitSpmmError;
use crate::runtime::dispatch::BufferPool;
use crate::runtime::{PoolScope, PooledMatrix, WorkerPool};
use crate::schedule::Strategy;
use crate::shard::plan::ShardPlan;
use crate::shard::report::{merge_input_reports, single_launch_report, ShardReport};
use jitspmm_sparse::{DenseMatrix, Scalar};
use std::sync::Arc;
use std::time::Instant;

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
/// pooled output — one launch at a time ([`ShardedSpmm::execute`]) or
/// pipelined ([`ShardedSpmm::execute_batch`]) — so nothing is copied or
/// stitched and steady-state execution performs no per-call buffer
/// allocation.
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
/// assert_eq!(report.shards, 2);
/// assert!(report.nnz_imbalance >= 1.0);
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

    /// Compute `Y = A * X` by launching every shard as an overlapped,
    /// lane-capped asynchronous job: shard `k`'s kernel writes rows
    /// `rows_k` of the full matrix **directly into its row range** of one
    /// pooled full-height output (the stitch is free — a shard's rows are
    /// contiguous in the output), and the call returns once the slowest
    /// shard has joined. Steady-state repeated execution recycles the
    /// output buffer, allocating nothing.
    ///
    /// The launches are anchored to `scope` exactly like
    /// [`JitSpmm::execute_async`]; concurrent sharded executes from other
    /// threads serialize per shard by acquiring the shard launch locks in
    /// row order (ordered acquisition, so blocking cannot deadlock).
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::ShapeMismatch`] if `x` is not `A.ncols() x d`, and
    /// [`JitSpmmError::LaunchInProgress`] if the calling thread already
    /// holds a launch of one of the shard engines.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic of the run after joining the shard
    /// launches still in flight; the engines stay usable afterwards.
    pub fn execute<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        x: &'env DenseMatrix<T>,
    ) -> Result<(PooledMatrix<T>, ShardReport), JitSpmmError> {
        self.check_input_shape(x)?;
        let started = Instant::now();
        let mut y = self.acquire_output();
        let y_ptr = y.as_mut_ptr();
        let mut handles: Vec<ExecutionHandle<'scope, T>> = Vec::with_capacity(self.engines.len());
        for (spec, engine) in self.plan.shards().iter().zip(&self.engines) {
            // SAFETY (pointer arithmetic): the full output is
            // `plan.nrows() x d` and every shard's `rows` range lies inside
            // `0..plan.nrows()`, so `start * d` is in bounds.
            let shard_y = unsafe { y_ptr.add(spec.rows.start * self.d) };
            // SAFETY (launch contract): `x` is borrowed for 'env and `y` is
            // held across the joins below — every handle is waited (or
            // dropped, which joins) before this frame returns, so both
            // pointees outlive every launch; shards write pairwise disjoint
            // row ranges, so no two launches alias; shapes were validated
            // above against the full matrix, which every shard inherits its
            // column count and `d` from.
            let handle = unsafe { engine.execute_async_raw(scope, x.as_ptr(), shard_y) };
            match handle {
                Ok(handle) => handles.push(handle),
                // Dropping the handles joins the shards already in flight
                // before the error surfaces; the pooled output recycles.
                Err(e) => return Err(e),
            }
        }
        let reports: Vec<_> = handles.into_iter().map(ExecutionHandle::wait_report).collect();
        let elapsed = started.elapsed();
        let mut merged = single_launch_report(&merge_input_reports(&reports), 1);
        merged.elapsed = elapsed;
        let report = ShardReport {
            shards: self.engines.len(),
            nnz_imbalance: self.plan.nnz_imbalance(),
            merged,
            per_shard: reports.iter().map(|r| single_launch_report(r, 1)).collect(),
        };
        Ok((y, report))
    }

    /// Compute `Y = A * X_i` for every input in `inputs`, pipelining the
    /// batch through all shards at once: one [`BatchStream`] launches every
    /// shard kernel of an input straight into its row range of one pooled
    /// full-height output (as [`ShardedSpmm::execute`] does, with per-slot
    /// payloads and spare kernels instead of per-call boxing). Outputs
    /// return in input order with a [`ShardReport`] aggregating per-shard
    /// and merged critical-path timing.
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::ShapeMismatch`] (naming the offending input index)
    /// if any input is not `A.ncols() x d` — nothing is launched in that
    /// case — and [`JitSpmmError::LaunchInProgress`] if the calling thread
    /// already holds a launch of one of the shard engines.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic of the batch after joining the
    /// launches still in flight; the engines stay usable afterwards.
    pub fn execute_batch<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        inputs: &'env [DenseMatrix<T>],
    ) -> Result<(Vec<PooledMatrix<T>>, ShardReport), JitSpmmError> {
        run_batch(
            inputs,
            |x| self.check_input_shape(x),
            |depth| self.batch_stream(scope, depth).map(BatchStream::per_part),
            |stream| {
                let (rest, merged, per_shard) = stream.finish_per_part();
                let report = ShardReport {
                    shards: per_shard.len(),
                    nnz_imbalance: self.plan.nnz_imbalance(),
                    merged,
                    per_shard,
                };
                (rest, report)
            },
        )
    }

    /// Open a [`BatchStream`] over all K shard kernels: the incremental
    /// form of [`ShardedSpmm::execute_batch`] for unbounded input streams,
    /// with `depth` as in [`JitSpmm::batch_stream`]. Every pushed input
    /// launches all shards into one pooled full-height output and completes
    /// when its slowest shard has joined. The stream holds every shard
    /// engine's launch lock until it is finished or dropped.
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::LaunchInProgress`] if the calling thread already
    /// holds a launch of one of the shard engines, or a codegen error from
    /// compiling spare slot kernels.
    pub fn batch_stream<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        depth: usize,
    ) -> Result<BatchStream<'scope, 'env, T>, JitSpmmError> {
        BatchStream::open(scope, depth, &self.engines, &self.output_pool)
    }

    /// Validate that `x` matches the compiled input shape (`A.ncols() x d`
    /// of the **full** matrix; every shard shares both).
    pub(crate) fn check_input_shape(&self, x: &DenseMatrix<T>) -> Result<(), JitSpmmError> {
        if x.nrows() != self.plan.ncols() || x.ncols() != self.d {
            return Err(JitSpmmError::ShapeMismatch(format!(
                "dense input is {}x{} but the sharded kernel expects {}x{}",
                x.nrows(),
                x.ncols(),
                self.plan.ncols(),
                self.d
            )));
        }
        Ok(())
    }

    /// A full-height (`plan.nrows() x d`) output borrowed from the sharded
    /// engine's own buffer pool.
    pub(crate) fn acquire_output(&self) -> PooledMatrix<T> {
        PooledMatrix::new(
            self.output_pool.acquire(self.plan.nrows(), self.d),
            Arc::clone(&self.output_pool),
        )
    }

    /// The strategy of the heaviest shard (by non-zeros) — the plan-level
    /// stand-in recorded in merged batch reports, where a single strategy
    /// cannot describe K heterogeneous shards.
    pub(crate) fn dominant_strategy(&self) -> Strategy {
        self.plan
            .shards()
            .iter()
            .max_by_key(|s| s.nnz())
            .map(|s| s.strategy)
            .unwrap_or(Strategy::RowSplitStatic)
    }
}
