//! Single-launch execution paths: the launch lock and the blocking
//! `execute*` family. Every deferred launch — batched, sharded, mutable or
//! served — goes through a [`crate::BatchStream`] instead (see `batch`).
//!
//! Every path here runs against the engine's one immutable compiled core
//! (kernel, partition, claim counter), under the launch lock.

use crate::engine::compile::{check_input_shape, JitSpmm};
use crate::engine::report::ExecutionReport;
use crate::error::JitSpmmError;
use crate::kernel::KernelKind;
use crate::runtime::dispatch;
use crate::runtime::PooledMatrix;
use jitspmm_sparse::{DenseMatrix, Scalar};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

/// A small process-unique id for the current thread, used to detect a thread
/// re-acquiring an engine's launch lock it already holds (`std::sync::Mutex`
/// would deadlock). `ThreadId::as_u64` is unstable, so mint our own.
fn launch_thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TOKEN.with(|token| *token)
}

/// Holds an engine's launch lock for the duration of one launch, recording
/// which thread holds it so a same-thread re-entry (e.g. `execute` while a
/// [`crate::BatchStream`] over the engine is open) fails with
/// [`JitSpmmError::LaunchInProgress`] instead of deadlocking.
pub(crate) struct LaunchGuard<'a> {
    owner: &'a AtomicU64,
    _guard: MutexGuard<'a, ()>,
}

impl Drop for LaunchGuard<'_> {
    fn drop(&mut self) {
        // Cleared while the mutex is still held, so a racing thread can at
        // worst read 0 and fall through to a blocking lock that is about to
        // succeed.
        self.owner.store(0, Ordering::Release);
    }
}

impl<'a, T: Scalar> JitSpmm<'a, T> {
    /// Begin a kernel launch: serialize against other launches of this
    /// engine and reset the per-launch dispatch state. The returned guard
    /// must be held until the launch completes.
    ///
    /// Invariant: the [`crate::DynamicCounter`] is core-owned shared state
    /// whose address is embedded in dynamically dispatched kernels, so it
    /// must be at row zero whenever such a kernel starts — whether the
    /// launch goes through the pool, the single-thread path or the
    /// emulator. To keep that invariant in one place the reset happens
    /// here, unconditionally, before *every* launch (for static-range
    /// kernels it is a harmless store to memory nothing reads), and under
    /// the launch lock, so a concurrent launch of the same engine can never
    /// interleave a reset with a running claim loop.
    ///
    /// # Errors
    ///
    /// Returns [`JitSpmmError::LaunchInProgress`] if the calling thread
    /// already holds the launch lock (it holds an open stream over this
    /// engine; blocking would self-deadlock). A launch held by *another*
    /// thread is waited for.
    pub(crate) fn begin_launch(&self) -> Result<LaunchGuard<'_>, JitSpmmError> {
        let guard = match self.launch.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                if self.launch_owner.load(Ordering::Acquire) == launch_thread_token() {
                    return Err(JitSpmmError::LaunchInProgress);
                }
                crate::runtime::pool::lock(&self.launch)
            }
        };
        self.launch_owner.store(launch_thread_token(), Ordering::Release);
        self.core.counter.reset();
        Ok(LaunchGuard { owner: &self.launch_owner, _guard: guard })
    }

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
        // Validate, then lock, then allocate — the ordering every launch
        // path shares: a call that fails shape validation or blocks behind
        // another launch must not pay the buffer-pool round trip first.
        check_input_shape(x, self.matrix.ncols(), self.d)?;
        let launch = self.begin_launch()?;
        let mut y = PooledMatrix::new(
            self.output_pool.acquire(self.matrix.nrows(), self.d),
            Arc::clone(&self.output_pool),
        );
        let report = self.launch_kernel(&launch, x, &mut y);
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
        let launch = self.begin_launch()?;
        Ok(self.launch_kernel(&launch, x, y))
    }

    /// Dispatch one launch of the kernel over the pool. The caller has
    /// already validated the shapes and holds the launch lock (`_launch`
    /// proves it).
    fn launch_kernel(
        &self,
        _launch: &LaunchGuard<'_>,
        x: &DenseMatrix<T>,
        y: &mut DenseMatrix<T>,
    ) -> ExecutionReport {
        let core = &self.core;
        let start = Instant::now();
        // SAFETY: the engine borrows the CSR matrix whose pointers the kernel
        // embeds, the caller checked the shapes, and rows are partitioned
        // disjointly across lanes (statically or via the dynamic counter,
        // reset under the held launch lock).
        let (kernel, wake) = unsafe {
            match core.kernel.kind() {
                KernelKind::DynamicDispatch => dispatch::run_dynamic(
                    &self.pool,
                    &core.kernel,
                    self.threads,
                    x.as_ptr(),
                    y.as_mut_ptr(),
                ),
                KernelKind::StaticRange => dispatch::run_static(
                    &self.pool,
                    &core.kernel,
                    &core.partition.ranges,
                    self.threads,
                    x.as_ptr(),
                    y.as_mut_ptr(),
                ),
            }
        };
        let elapsed = start.elapsed();
        ExecutionReport {
            elapsed,
            kernel,
            dispatch: elapsed.saturating_sub(kernel),
            wake,
            threads: self.threads,
            strategy: core.strategy,
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
        let _launch = self.begin_launch()?;
        let core = &self.core;
        let start = Instant::now();
        match core.kernel.kind() {
            KernelKind::DynamicDispatch => {
                // SAFETY: see execute_into.
                unsafe { core.kernel.call_dynamic(x.as_ptr(), y.as_mut_ptr()) };
            }
            KernelKind::StaticRange => {
                // SAFETY: see execute_into.
                unsafe {
                    core.kernel.call_static(
                        0,
                        self.matrix.nrows() as u64,
                        x.as_ptr(),
                        y.as_mut_ptr(),
                    )
                };
            }
        }
        let elapsed = start.elapsed();
        Ok(ExecutionReport {
            elapsed,
            kernel: elapsed,
            dispatch: Duration::ZERO,
            wake: Duration::ZERO,
            threads: 1,
            strategy: core.strategy,
        })
    }
}
