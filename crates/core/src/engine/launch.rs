//! Single-launch execution paths: the blocking `execute*` family. Every
//! deferred launch — batched, sharded, mutable or served — goes through a
//! [`crate::BatchStream`] instead (see `batch`).
//!
//! Every path here runs the engine's one immutable compiled core (kernel,
//! partition) on a launch of its own: the operands and the claim counter
//! live in this call's frame, so any number of launches of one engine may
//! run at once.

use crate::codegen::LaunchArgs;
use crate::engine::compile::{check_input_shape, JitSpmm};
use crate::engine::report::ExecutionReport;
use crate::error::JitSpmmError;
use crate::runtime::dispatch;
use crate::runtime::PooledMatrix;
use jitspmm_sparse::{DenseMatrix, Scalar};
use std::sync::Arc;
use std::time::{Duration, Instant};

impl<'a, T: Scalar> JitSpmm<'a, T> {
    /// Compute `Y = A * X` into an output buffer borrowed from the engine's
    /// internal pool.
    ///
    /// The returned [`PooledMatrix`] dereferences to [`DenseMatrix`];
    /// dropping it hands the buffer back, so a steady-state loop of
    /// `execute` calls performs **no allocation and no thread spawning**.
    /// The kernels overwrite every output element (empty rows included), so
    /// recycled buffers are not re-zeroed either. To manage the output
    /// buffer yourself — e.g. to reuse one across engines — see
    /// [`JitSpmm::execute_into`].
    ///
    /// # Errors
    ///
    /// Returns [`JitSpmmError::ShapeMismatch`] if `x` is not
    /// `A.ncols() x d`.
    pub fn execute(
        &self,
        x: &DenseMatrix<T>,
    ) -> Result<(PooledMatrix<T>, ExecutionReport), JitSpmmError> {
        // Validate, then allocate: a call that fails shape validation must
        // not pay the buffer-pool round trip first.
        check_input_shape(x, self.matrix.ncols(), self.d)?;
        let mut y = PooledMatrix::new(
            self.output_pool.acquire(self.matrix.nrows(), self.d),
            Arc::clone(&self.output_pool),
        );
        let report = self.launch_kernel(x, &mut y);
        Ok((y, report))
    }

    /// Compute `Y = A * X` into an existing output matrix (its previous
    /// contents are overwritten; no zeroing is required beforehand).
    ///
    /// This is the zero-allocation entry point for callers that manage their
    /// own buffers; [`JitSpmm::execute`] achieves the same steady-state cost
    /// by recycling buffers internally.
    ///
    /// # Errors
    ///
    /// Returns [`JitSpmmError::ShapeMismatch`] if `x` is not `A.ncols() x d`
    /// or `y` is not `A.nrows() x d`.
    pub fn execute_into(
        &self,
        x: &DenseMatrix<T>,
        y: &mut DenseMatrix<T>,
    ) -> Result<ExecutionReport, JitSpmmError> {
        self.check_shapes(x, y)?;
        Ok(self.launch_kernel(x, y))
    }

    /// Dispatch one launch of the kernel over the pool. The caller has
    /// already validated the shapes.
    fn launch_kernel(&self, x: &DenseMatrix<T>, y: &mut DenseMatrix<T>) -> ExecutionReport {
        let core = &self.core;
        let start = Instant::now();
        // SAFETY: `LaunchArgs` is the contract: the engine borrows the
        // matrix, the caller checked the shapes of `x` and `y`, the
        // partition's ranges are disjoint, and the launch's claim counter is
        // its own.
        let (kernel, wake) = unsafe {
            dispatch::run_kernel(
                &self.pool,
                &core.kernel,
                self.matrix,
                &core.partition.ranges,
                self.threads,
                x.as_ptr(),
                y.as_mut_ptr(),
            )
        };
        let elapsed = start.elapsed();
        ExecutionReport {
            elapsed,
            kernel,
            dispatch: elapsed.saturating_sub(kernel),
            wake,
            threads: self.threads,
            strategy: core.meta.strategy,
        }
    }

    /// Run the kernel single-threaded over the whole matrix (used by the
    /// profiling harness, where the emulator measures one thread's work).
    ///
    /// # Errors
    ///
    /// Same shape requirements as [`JitSpmm::execute_into`].
    pub fn execute_single_thread(
        &self,
        x: &DenseMatrix<T>,
        y: &mut DenseMatrix<T>,
    ) -> Result<ExecutionReport, JitSpmmError> {
        self.check_shapes(x, y)?;
        let core = &self.core;
        let start = Instant::now();
        let args = LaunchArgs::new(self.matrix, x.as_ptr(), y.as_mut_ptr());
        // SAFETY: `LaunchArgs` is the contract: the engine borrows the
        // matrix, the shapes were checked, the range is the whole matrix and
        // the block — with its claim counter — is this call's alone.
        unsafe { core.kernel.call(&args, 0, self.matrix.nrows() as u64) };
        let elapsed = start.elapsed();
        Ok(ExecutionReport {
            elapsed,
            kernel: elapsed,
            dispatch: Duration::ZERO,
            wake: Duration::ZERO,
            threads: 1,
            strategy: core.meta.strategy,
        })
    }
}
