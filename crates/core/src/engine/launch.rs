//! Single-launch execution paths: the launch lock, the blocking `execute*`
//! family, and the asynchronous [`ExecutionHandle`].
//!
//! Every path here runs against the engine's one immutable compiled core
//! (kernel, partition, claim counter), under the launch lock.

use crate::engine::compile::JitSpmm;
use crate::engine::report::ExecutionReport;
use crate::error::JitSpmmError;
use crate::kernel::KernelKind;
use crate::runtime::dispatch::{self, KernelJob};
use crate::runtime::{PoolScope, PooledMatrix, ScopedJobHandle};
use crate::schedule::Strategy;
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
/// which thread holds it so a same-thread re-entry (e.g. `execute` while an
/// [`ExecutionHandle`] is outstanding) fails with
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
    /// already holds the launch lock (it is waiting on — or holding — an
    /// [`ExecutionHandle`] of this engine; blocking would self-deadlock),
    /// or, with `blocking` false, if any other launch is in flight. With
    /// `blocking` true a launch held by *another* thread is waited for, as
    /// the blocking execute paths always have.
    pub(crate) fn begin_launch(&self, blocking: bool) -> Result<LaunchGuard<'_>, JitSpmmError> {
        let guard = match self.launch.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                let same_thread =
                    self.launch_owner.load(Ordering::Acquire) == launch_thread_token();
                if !blocking || same_thread {
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
        self.check_input_shape(x)?;
        let launch = self.begin_launch(true)?;
        let mut y = PooledMatrix::new(
            self.output_pool.acquire(self.matrix.nrows(), self.d),
            Arc::clone(&self.output_pool),
        );
        let report = self.launch_kernel(&launch, x, &mut y);
        Ok((y, report))
    }

    /// Compute `Y = A * X` without blocking: the kernel launch is submitted
    /// through `scope` to its worker pool and runs in the background while
    /// this call returns. Join it with [`ExecutionHandle::wait`] to obtain
    /// the result and its [`ExecutionReport`]; the waiting thread steals
    /// remaining kernel tasks, so submit-then-wait costs no more than the
    /// blocking [`JitSpmm::execute`].
    ///
    /// The job is capped to this engine's lane count
    /// ([`crate::JitSpmmBuilder::threads`]), so several engines sharing a
    /// pool can execute **concurrently on disjoint worker subsets** — submit
    /// one handle per engine, then wait on all of them, and the launches
    /// overlap instead of serializing:
    ///
    /// ```
    /// use jitspmm::{JitSpmmBuilder, WorkerPool};
    /// use jitspmm_sparse::{generate, DenseMatrix};
    ///
    /// # fn main() -> Result<(), jitspmm::JitSpmmError> {
    /// let pool = WorkerPool::new(2);
    /// let a = generate::uniform::<f32>(200, 200, 2_000, 1);
    /// let b = generate::uniform::<f32>(150, 200, 1_500, 2);
    /// let eng_a = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, 8)?;
    /// let eng_b = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&b, 8)?;
    /// let x = DenseMatrix::random(200, 8, 3);
    /// pool.scope(|scope| -> Result<(), jitspmm::JitSpmmError> {
    ///     let ha = eng_a.execute_async(scope, &x)?; // both jobs now in flight,
    ///     let hb = eng_b.execute_async(scope, &x)?; // one worker lane each
    ///     let (ya, _) = ha.wait();
    ///     let (yb, _) = hb.wait();
    ///     assert!(ya.approx_eq(&a.spmm_reference(&x), 1e-4));
    ///     assert!(yb.approx_eq(&b.spmm_reference(&x), 1e-4));
    ///     Ok(())
    /// })?;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// The launch is anchored to a [`PoolScope`] (see
    /// [`crate::WorkerPool::scope`]) because the job dereferences borrowed
    /// data — the compiled kernel, the CSR arrays its code embeds, and `x` —
    /// and memory safety must not depend on the handle's destructor running
    /// ([`std::mem::forget`] is safe): the scope joins every launch before
    /// it returns, even if the handle was dropped or leaked. Dropping the
    /// handle without waiting joins the job right away and recycles the
    /// output buffer; leaking it is safe but leaks the buffer and keeps the
    /// engine's launch slot occupied forever — non-blocking launches (and
    /// blocking ones from the leaking thread) fail with
    /// [`JitSpmmError::LaunchInProgress`], while blocking launches from
    /// *other* threads wait for a launch that never ends. The job runs on
    /// `scope`'s pool — normally the engine's own, as in the example; the
    /// lane cap applies to whichever pool the scope wraps.
    ///
    /// One engine can only run one launch at a time (the dynamic row-claim
    /// counter is core-owned state embedded in the generated code), so a
    /// second `execute_async` on the *same* engine while a handle is
    /// outstanding returns [`JitSpmmError::LaunchInProgress`] instead of
    /// blocking — blocking would deadlock a caller that holds the first
    /// handle on the same thread. The blocking paths ([`JitSpmm::execute`]
    /// and friends) return the same error when the *calling thread* already
    /// holds an outstanding handle (they still block, as always, on
    /// launches held by other threads). On a zero-worker
    /// ([`crate::WorkerPool::inline`]) pool the kernel runs to completion
    /// inside this call.
    ///
    /// # Errors
    ///
    /// Returns [`JitSpmmError::ShapeMismatch`] if `x` is not `A.ncols() x d`
    /// and [`JitSpmmError::LaunchInProgress`] if another launch of this
    /// engine has not completed yet.
    pub fn execute_async<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        x: &'env DenseMatrix<T>,
    ) -> Result<ExecutionHandle<'scope, T>, JitSpmmError> {
        // Validate, then lock, then allocate: a rejected call (bad shape, or
        // the expected busy-poll LaunchInProgress answer) must not pay a
        // buffer-pool round trip for an output it will never produce.
        self.check_input_shape(x)?;
        let guard = self.begin_launch(false)?;
        let core = &self.core;
        let mut y = PooledMatrix::new(
            self.output_pool.acquire(self.matrix.nrows(), self.d),
            Arc::clone(&self.output_pool),
        );
        let job = KernelJob::new(&core.kernel, &core.partition.ranges, x.as_ptr(), y.as_mut_ptr());
        let spec = job.spec(core.kernel.kind(), self.threads);
        // Owned through `Box::into_raw`/`from_raw` rather than as a `Box`
        // field: workers hold a raw pointer to the payload, which moving a
        // box (with every move of the handle) would invalidate under the
        // aliasing rules.
        let payload: *mut KernelJob<T> = Box::into_raw(Box::new(job));
        let start = Instant::now();
        // SAFETY: the payload allocation and the output buffer are owned by
        // the returned handle — released only after its drop has joined the
        // job, and leaked (never freed) if the handle is leaked — while the
        // engine (with its kernel and partition), the CSR arrays it borrows
        // and `x` are borrowed for 'env, which cannot end before the scope
        // has joined the job. Shapes were checked above and the counter reset
        // under the launch lock held in `guard`.
        let job =
            unsafe { scope.submit_erased(spec, payload as *const (), KernelJob::<T>::erased()) };
        Ok(ExecutionHandle {
            job: Some(job),
            payload,
            y: Some(y),
            start,
            threads: self.threads,
            strategy: core.strategy,
            _launch: guard,
        })
    }

    /// [`JitSpmm::execute_async`] with raw operand pointers and **no** pooled
    /// output: the launch writes `A.nrows() x d` elements starting at `y`.
    /// This is the stitch-into-range hook for the sharded engine
    /// ([`crate::shard::ShardedSpmm`]), whose shard kernels write disjoint
    /// row ranges of one shared full-size output — a shard compiled for rows
    /// `start..end` of the full matrix is handed `y_full + start * d` and
    /// its rows land exactly in place, no copy.
    ///
    /// Blocks behind a launch held by another thread (like the blocking
    /// execute family: concurrent sharded executes acquire their shard locks
    /// in shard order, so ordered blocking cannot deadlock) and returns
    /// [`JitSpmmError::LaunchInProgress`] for a same-thread re-entry. Join
    /// with [`ExecutionHandle::wait_report`]; [`ExecutionHandle::wait`] would
    /// panic — there is no pooled output to hand back.
    ///
    /// # Safety
    ///
    /// The caller must keep the memory behind `x` (shape `A.ncols() x d`)
    /// and `y` (shape `A.nrows() x d`, exclusive to this launch) alive and
    /// valid until the returned handle has been joined — by
    /// [`ExecutionHandle::wait_report`], by dropping the handle, or by the
    /// scope's own join. Shape validation is the caller's job too.
    pub(crate) unsafe fn execute_async_raw<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        x: *const T,
        y: *mut T,
    ) -> Result<ExecutionHandle<'scope, T>, JitSpmmError> {
        let guard = self.begin_launch(true)?;
        let core = &self.core;
        let job = KernelJob::new(&core.kernel, &core.partition.ranges, x, y);
        let spec = job.spec(core.kernel.kind(), self.threads);
        // Owned through a raw pointer, exactly as in `execute_async`.
        let payload: *mut KernelJob<T> = Box::into_raw(Box::new(job));
        let start = Instant::now();
        // SAFETY: payload ownership and join discipline as in
        // `execute_async`, with the kernel and partition borrowed from the
        // engine for 'env; liveness and exclusivity of `x`/`y` are
        // the caller's contract, and the counter was reset under the launch
        // lock held in `guard`.
        let job =
            unsafe { scope.submit_erased(spec, payload as *const (), KernelJob::<T>::erased()) };
        Ok(ExecutionHandle {
            job: Some(job),
            payload,
            y: None,
            start,
            threads: self.threads,
            strategy: core.strategy,
            _launch: guard,
        })
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
        let launch = self.begin_launch(true)?;
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
        let _launch = self.begin_launch(true)?;
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

/// An in-flight asynchronous kernel launch, returned by
/// [`JitSpmm::execute_async`].
///
/// The launch runs on the scope's worker pool while the submitting thread
/// is free to do other work — typically submitting launches on *other*
/// engines so that several compiled kernels overlap on disjoint, lane-capped
/// worker subsets. [`ExecutionHandle::wait`] joins the job (stealing its
/// remaining tasks) and returns the pooled output plus the usual
/// [`ExecutionReport`].
///
/// Dropping the handle without waiting joins the job too and hands the
/// output buffer back to the engine's pool — nothing leaks and the pool
/// shuts down cleanly. The handle also holds the engine's launch lock, so
/// the engine accepts no other launch until the handle is gone. Leaking the
/// handle (e.g. [`std::mem::forget`]) is safe — the owning [`PoolScope`]
/// still joins the kernel job before any borrowed input can be freed — but
/// leaks the output buffer and leaves the launch lock held forever: the
/// engine refuses non-blocking (and same-thread blocking) launches with
/// [`crate::JitSpmmError::LaunchInProgress`], and blocking launches from
/// other threads wait indefinitely.
pub struct ExecutionHandle<'s, T: Scalar> {
    /// Joined in [`ExecutionHandle::wait`] or in the drop below; when the
    /// handle is leaked instead, the owning [`PoolScope`] joins the job.
    job: Option<ScopedJobHandle<'s>>,
    /// The erased task data the pool workers dereference, owned through
    /// `Box::into_raw` (a box field would be invalidated by handle moves);
    /// freed in drop after the join, leaked with a leaked handle.
    payload: *mut KernelJob<T>,
    pub(super) y: Option<PooledMatrix<T>>,
    start: Instant,
    threads: usize,
    strategy: Strategy,
    /// Holds the engine's launch lock for the lifetime of the launch (the
    /// dynamic counter must not be reset mid-claim by another launch).
    _launch: LaunchGuard<'s>,
}

impl<T: Scalar> Drop for ExecutionHandle<'_, T> {
    fn drop(&mut self) {
        // Join before the payload, the output buffer and the launch guard
        // are released. Kernel panics are discarded here — `wait` re-raises
        // them — so an abandoned launch cannot poison the scope exit.
        if let Some(job) = &mut self.job {
            job.join_quiet();
        }
        // SAFETY: produced by `Box::into_raw` in `execute_async`; the job is
        // joined (above, or before `wait` returned), so no worker can reach
        // the payload.
        drop(unsafe { Box::from_raw(self.payload) });
    }
}

impl<T: Scalar> ExecutionHandle<'_, T> {
    /// Whether the launch has completed (lock-free; `true` means
    /// [`ExecutionHandle::wait`] will not block).
    pub fn is_done(&self) -> bool {
        self.job.as_ref().is_none_or(|job| job.is_done())
    }

    /// Join the launch and return the output with its [`ExecutionReport`].
    ///
    /// The calling thread participates in the remaining kernel tasks.
    /// `ExecutionReport::elapsed` spans submission to join, so time the
    /// caller spent on other work between [`JitSpmm::execute_async`] and
    /// `wait` — the overlap this API exists for — shows up in `dispatch`,
    /// not in `kernel`.
    pub fn wait(mut self) -> (PooledMatrix<T>, ExecutionReport) {
        let report = self.join();
        let y = self.y.take().expect("output present until wait");
        (y, report)
    }

    /// Join a raw launch ([`JitSpmm::execute_async_raw`]) and return only its
    /// [`ExecutionReport`] — the output was written in place into the
    /// caller-provided region, there is nothing to hand back.
    pub(crate) fn wait_report(mut self) -> ExecutionReport {
        self.join()
    }

    /// Join the launch and assemble the report; shared by both wait paths.
    fn join(&mut self) -> ExecutionReport {
        let mut job = self.job.take().expect("launch joined at most once");
        let kernel = match job.try_wait() {
            Ok(busy) => busy,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        let wake = job.wake();
        let elapsed = self.start.elapsed();
        ExecutionReport {
            elapsed,
            kernel,
            dispatch: elapsed.saturating_sub(kernel),
            wake,
            threads: self.threads,
            strategy: self.strategy,
        }
    }
}

impl<T: Scalar> std::fmt::Debug for ExecutionHandle<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionHandle")
            .field("done", &self.is_done())
            .field("threads", &self.threads)
            .finish()
    }
}
