//! Job descriptors bridging the engine to the worker pool, and the pooled
//! output buffers that make repeated [`crate::JitSpmm::execute`] calls
//! allocation-free.

use crate::kernel::{CompiledKernel, KernelKind};
use crate::runtime::pool::{lock, ErasedTask};
use crate::runtime::{JobSpec, WorkerPool};
use crate::schedule::RowRange;
use jitspmm_sparse::{DenseMatrix, Scalar};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The erased payload of a kernel launch: everything one pool task needs to
/// invoke the compiled code, as raw pointers.
///
/// A `KernelJob` has exactly two kinds of owner, and each outlives every
/// dereference of the pointers inside:
///
/// * the blocking paths ([`run_static`] / [`run_dynamic`]) keep it on the
///   stack, borrowed by the task closure, and do not return before the pool
///   has joined the job;
/// * a [`crate::BatchStream`] stores it in a [`LaunchPayload`] slot, which
///   is rewritten only after the stream has joined the launch submitted
///   from it and freed only after the stream's drop has joined every launch
///   (leaked, never freed, with a leaked stream).
///
/// The pointees — kernel, partition, input and output buffers — are
/// borrowed for at least as long as that owner holds the job, or for the
/// [`crate::PoolScope`] a stream is anchored to, which joins every launch
/// before returning; so nothing the workers dereference can be freed early.
pub(crate) struct KernelJob<T: Scalar> {
    kernel: *const CompiledKernel<T>,
    /// Static partition ranges (`ptr`, `len`); unused for dynamic dispatch.
    ranges: *const RowRange,
    nranges: usize,
    x: *const T,
    y: *mut T,
}

// SAFETY: a KernelJob is only ever shared between pool participants running
// disjoint task indices of one launch; the aliasing rules for the pointers
// inside are exactly the (unsafe) launch contract its constructor callers
// already uphold. The pointers themselves are plain addresses.
unsafe impl<T: Scalar> Sync for KernelJob<T> {}
// SAFETY: as above — ownership of the addresses may move between threads.
unsafe impl<T: Scalar> Send for KernelJob<T> {}

impl<T: Scalar> KernelJob<T> {
    /// Capture a launch of `kernel` over `ranges` (static) or the embedded
    /// claim loop (dynamic; `ranges` empty). Pointers, not borrows: the
    /// caller is responsible for keeping the pointees alive until the job
    /// completes (see the type-level docs for the two owners that do).
    pub(crate) fn new(
        kernel: &CompiledKernel<T>,
        ranges: &[RowRange],
        x: *const T,
        y: *mut T,
    ) -> KernelJob<T> {
        KernelJob { kernel, ranges: ranges.as_ptr(), nranges: ranges.len(), x, y }
    }

    /// The [`JobSpec`] for this launch: one task per range for static
    /// kernels, `lanes` identical claim-loop tasks for dynamic ones — in
    /// both cases capped to `lanes` pool workers so concurrent engines can
    /// overlap on disjoint worker subsets.
    pub(crate) fn spec(&self, kind: KernelKind, lanes: usize) -> JobSpec {
        match kind {
            KernelKind::StaticRange => JobSpec::new(self.nranges).max_lanes(lanes),
            KernelKind::DynamicDispatch => JobSpec::new(lanes).max_lanes(lanes),
        }
    }

    /// Run task `index`.
    ///
    /// # Safety
    ///
    /// Same contract as [`CompiledKernel::call_static`] /
    /// [`CompiledKernel::call_dynamic`]: every pointer must be live, shapes
    /// must match the compiled kernel, ranges must be pairwise disjoint and
    /// the dynamic counter reset since the last launch.
    pub(crate) unsafe fn run(&self, index: usize) {
        // Chaos-test hook (test builds only): may panic or sleep here, the
        // point where a crash in generated code would surface.
        #[cfg(any(test, feature = "fault-injection"))]
        crate::serve::fault::kernel_entry();
        // SAFETY: the caller's contract keeps the kernel alive for the
        // job's lifetime; `new` took the pointer from a live reference.
        let kernel = unsafe { &*self.kernel };
        match kernel.kind() {
            KernelKind::StaticRange => {
                // SAFETY: a static job's spec has one task per range
                // (`spec`), so `index < nranges`, and the partition the
                // ranges point into outlives the job like the kernel does.
                let range = unsafe { *self.ranges.add(index) };
                if range.is_empty() {
                    return;
                }
                // SAFETY: forwarded; disjoint ranges mean no two tasks write
                // the same output rows.
                unsafe { kernel.call_static(range.start as u64, range.end as u64, self.x, self.y) };
            }
            KernelKind::DynamicDispatch => {
                // SAFETY: forwarded; the shared counter hands out disjoint
                // row batches.
                unsafe { kernel.call_dynamic(self.x, self.y) };
            }
        }
    }

    /// The [`ErasedTask`] trampoline for scoped erased submission.
    ///
    /// # Safety
    ///
    /// `data` must point to a live `KernelJob<T>` (a [`LaunchPayload`]
    /// slot's), and [`KernelJob::run`]'s contract must hold for `index`.
    pub(crate) unsafe fn call(data: *const (), index: usize) {
        // SAFETY: forwarded from this function's contract; the stream
        // submits `data` from `LaunchPayload::store` for a `KernelJob<T>`.
        unsafe { (*(data as *const KernelJob<T>)).run(index) };
    }

    /// The trampoline as the erased function-pointer type.
    pub(crate) fn erased() -> ErasedTask {
        KernelJob::<T>::call
    }

    /// An inert job used to initialize a [`LaunchPayload`] slot before its
    /// first [`LaunchPayload::store`]; never submitted, never run.
    fn placeholder() -> KernelJob<T> {
        KernelJob {
            kernel: std::ptr::null(),
            ranges: std::ptr::null(),
            nranges: 0,
            x: std::ptr::null(),
            y: std::ptr::null_mut(),
        }
    }
}

/// A reusable heap slot for one batch-pipeline lane's [`KernelJob`] payload.
///
/// A batch pipeline pushes an unbounded stream of launches through a
/// handful of slots, so each slot allocates its payload once and rewrites
/// it in place between launches — steady-state submission performs no
/// per-launch boxing. Slots are owned by the stream that created them, so
/// payload reuse is **per engine, per slot**: a multi-engine server (one
/// [`crate::BatchStream`] per engine, see [`crate::serve`]) never rewrites
/// one engine's payload with another engine's launch. The allocation is owned through a raw pointer (the
/// runtime-wide idiom for worker-visible payloads): moving the owner never
/// retags the pointer workers derived from it, dropping the owner frees the
/// slot — sound because the batch stream joins every launch before its
/// slots drop — and leaking the owner leaks the slot rather than dangling
/// it.
pub(crate) struct LaunchPayload<T: Scalar> {
    ptr: *mut KernelJob<T>,
}

impl<T: Scalar> LaunchPayload<T> {
    pub(crate) fn new() -> LaunchPayload<T> {
        LaunchPayload { ptr: Box::into_raw(Box::new(KernelJob::placeholder())) }
    }

    /// Overwrite the slot with `job`, returning the erased data pointer to
    /// submit alongside [`KernelJob::erased`].
    ///
    /// # Safety
    ///
    /// No in-flight job may still reference the slot: the previous launch
    /// submitted from it, if any, must have been joined.
    pub(crate) unsafe fn store(&mut self, job: KernelJob<T>) -> *const () {
        // SAFETY: `ptr` is the live allocation made in `new`; exclusivity is
        // forwarded from the caller's contract.
        unsafe { self.ptr.write(job) };
        self.ptr as *const ()
    }
}

impl<T: Scalar> Drop for LaunchPayload<T> {
    fn drop(&mut self) {
        // SAFETY: produced by `Box::into_raw` in `new`; the owning stream
        // joins all launches before dropping its slots, so no worker can
        // still reach the payload.
        drop(unsafe { Box::from_raw(self.ptr) });
    }
}

/// Dispatch a static-range kernel over the pool: one task per partition
/// range, each invoking `fn(row_start, row_end, x, y)` on the compiled code,
/// capped to `lanes` workers. Returns the job's critical-path (max
/// per-participant) kernel time and its wake (enqueue→first-claim handoff)
/// latency — zero when the job ran inline.
///
/// # Safety
///
/// Same contract as [`CompiledKernel::call_static`] for every range: the CSR
/// arrays the kernel embeds must be alive, `x`/`y` must match the compiled
/// shapes, and the ranges must be pairwise disjoint.
pub(crate) unsafe fn run_static<T: Scalar>(
    pool: &WorkerPool,
    kernel: &CompiledKernel<T>,
    ranges: &[RowRange],
    lanes: usize,
    x: *const T,
    y: *mut T,
) -> (Duration, Duration) {
    let job = KernelJob::new(kernel, ranges, x, y);
    pool.run_spec_timed(job.spec(KernelKind::StaticRange, lanes), &|index| {
        // SAFETY: forwarded from the caller's contract.
        unsafe { job.run(index) };
    })
}

/// Dispatch a dynamic-dispatch kernel over the pool: `lanes` identical tasks
/// each running the kernel's embedded `lock xadd` claim loop until the rows
/// are exhausted. Returns the job's critical-path kernel time and wake
/// latency, as [`run_static`].
///
/// # Safety
///
/// Same contract as [`CompiledKernel::call_dynamic`]; additionally the
/// engine's dynamic counter must have been reset since the last launch.
pub(crate) unsafe fn run_dynamic<T: Scalar>(
    pool: &WorkerPool,
    kernel: &CompiledKernel<T>,
    lanes: usize,
    x: *const T,
    y: *mut T,
) -> (Duration, Duration) {
    let job = KernelJob::new(kernel, &[], x, y);
    pool.run_spec_timed(job.spec(KernelKind::DynamicDispatch, lanes), &|index| {
        // SAFETY: forwarded from the caller's contract.
        unsafe { job.run(index) };
    })
}

/// How many spare output buffers an engine keeps by default. Engines produce
/// one output shape only, so a small stack covers every realistic pattern of
/// outstanding results; batched execution raises the bound to its batch size
/// (see [`BufferPool::reserve`]).
const MAX_POOLED_BUFFERS: usize = 8;

/// Hard ceiling on retained spare buffers, whatever batch sizes have been
/// seen — a bound on idle memory, not on batch size (larger batches simply
/// allocate the excess fresh each time).
const MAX_RESERVED_BUFFERS: usize = 256;

/// Hard ceiling on the *bytes* retained as spares. A raised buffer count
/// (see [`BufferPool::reserve`]) persists for the engine's lifetime — it is
/// a cache sized for the largest batch served — so for engines with large
/// outputs the count bound alone could pin hundreds of megabytes; the byte
/// bound keeps idle memory proportionate regardless of output shape.
const MAX_RESERVED_BYTES: usize = 64 << 20;

/// A recycling pool of output buffers, one per engine.
///
/// The JIT kernels overwrite every element of the output (each row's
/// accumulator segments are stored unconditionally, including for empty
/// rows), so recycled buffers are handed back *without* re-zeroing — reuse
/// costs neither an allocation nor a memset.
#[derive(Debug)]
pub(crate) struct BufferPool<T> {
    free: Mutex<Vec<Vec<T>>>,
    /// Spare buffers retained on release (atomic so `reserve` needs no lock).
    capacity: AtomicUsize,
}

impl<T: Scalar> BufferPool<T> {
    pub(crate) fn new() -> BufferPool<T> {
        BufferPool { free: Mutex::new(Vec::new()), capacity: AtomicUsize::new(MAX_POOLED_BUFFERS) }
    }

    /// Grow the retained-spares bound to `outstanding` (a serving loop that
    /// holds a whole batch of outputs at once would otherwise re-allocate
    /// `batch - MAX_POOLED_BUFFERS` buffers on every batch). The raised
    /// bound persists — it is a cache sized for the largest batch this
    /// engine serves — but never exceeds [`MAX_RESERVED_BUFFERS`] buffers,
    /// and `release` additionally caps retained spares at
    /// [`MAX_RESERVED_BYTES`] so large-output engines cannot pin unbounded
    /// idle memory.
    pub(crate) fn reserve(&self, outstanding: usize) {
        let target = outstanding.min(MAX_RESERVED_BUFFERS);
        self.capacity.fetch_max(target, Ordering::Relaxed);
    }

    /// A `rows x cols` matrix, recycled when possible. The contents are
    /// unspecified (stale values from a previous execution); the caller must
    /// overwrite every element before exposing them.
    pub(crate) fn acquire(&self, rows: usize, cols: usize) -> DenseMatrix<T> {
        let len = rows * cols;
        let mut free = lock(&self.free);
        while let Some(buffer) = free.pop() {
            if buffer.len() == len {
                return DenseMatrix::from_vec(rows, cols, buffer);
            }
            // Shape changed (possible only if the pool is shared across
            // engines in the future); discard mismatched buffers.
        }
        drop(free);
        DenseMatrix::from_vec(rows, cols, vec![T::ZERO; len])
    }

    fn release(&self, buffer: Vec<T>) {
        let bytes = buffer.len() * std::mem::size_of::<T>();
        // The default spare count is always allowed; beyond it, retained
        // spares must also fit the byte budget.
        let by_bytes =
            MAX_RESERVED_BYTES.checked_div(bytes).map_or(usize::MAX, |n| n.max(MAX_POOLED_BUFFERS));
        let cap = self.capacity.load(Ordering::Relaxed).min(by_bytes);
        let mut free = lock(&self.free);
        if free.len() < cap {
            free.push(buffer);
        }
    }

    #[cfg(test)]
    pub(crate) fn spare_buffers(&self) -> usize {
        lock(&self.free).len()
    }
}

/// An output matrix borrowed from an engine's buffer pool.
///
/// Dereferences to [`DenseMatrix`], so it can be read, compared and passed
/// anywhere a `&DenseMatrix` is expected. Dropping it returns the underlying
/// buffer to the engine for reuse, which is what makes repeated
/// [`crate::JitSpmm::execute`] calls allocation-free in steady state; call
/// [`PooledMatrix::into_dense`] to detach the buffer and keep it instead.
pub struct PooledMatrix<T: Scalar> {
    matrix: Option<DenseMatrix<T>>,
    pool: Arc<BufferPool<T>>,
}

impl<T: Scalar> PooledMatrix<T> {
    pub(crate) fn new(matrix: DenseMatrix<T>, pool: Arc<BufferPool<T>>) -> PooledMatrix<T> {
        PooledMatrix { matrix: Some(matrix), pool }
    }

    /// Detach the matrix from the pool, keeping the buffer indefinitely.
    pub fn into_dense(mut self) -> DenseMatrix<T> {
        self.matrix.take().expect("matrix present until drop")
    }
}

impl<T: Scalar> Deref for PooledMatrix<T> {
    type Target = DenseMatrix<T>;

    fn deref(&self) -> &DenseMatrix<T> {
        self.matrix.as_ref().expect("matrix present until drop")
    }
}

impl<T: Scalar> DerefMut for PooledMatrix<T> {
    fn deref_mut(&mut self) -> &mut DenseMatrix<T> {
        self.matrix.as_mut().expect("matrix present until drop")
    }
}

impl<T: Scalar> Drop for PooledMatrix<T> {
    fn drop(&mut self) {
        if let Some(matrix) = self.matrix.take() {
            self.pool.release(matrix.into_vec());
        }
    }
}

impl<T: Scalar> std::fmt::Debug for PooledMatrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.deref().fmt(f)
    }
}

impl<T: Scalar> Clone for PooledMatrix<T> {
    fn clone(&self) -> PooledMatrix<T> {
        PooledMatrix { matrix: self.matrix.clone(), pool: Arc::clone(&self.pool) }
    }
}

impl<T: Scalar> PartialEq for PooledMatrix<T> {
    fn eq(&self, other: &PooledMatrix<T>) -> bool {
        self.deref() == other.deref()
    }
}

impl<T: Scalar> PartialEq<DenseMatrix<T>> for PooledMatrix<T> {
    fn eq(&self, other: &DenseMatrix<T>) -> bool {
        self.deref() == other
    }
}

impl<T: Scalar> PartialEq<PooledMatrix<T>> for DenseMatrix<T> {
    fn eq(&self, other: &PooledMatrix<T>) -> bool {
        self == other.deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_recycled() {
        let pool = Arc::new(BufferPool::<f32>::new());
        let first = pool.acquire(4, 4);
        let first_ptr = first.as_ptr();
        drop(PooledMatrix::new(first, Arc::clone(&pool)));
        assert_eq!(pool.spare_buffers(), 1);
        let second = pool.acquire(4, 4);
        assert_eq!(second.as_ptr(), first_ptr, "drop must return the buffer for reuse");
        assert_eq!(pool.spare_buffers(), 0);
    }

    #[test]
    fn mismatched_shapes_are_not_reused() {
        let pool = Arc::new(BufferPool::<f32>::new());
        drop(PooledMatrix::new(pool.acquire(2, 2), Arc::clone(&pool)));
        let bigger = pool.acquire(8, 8);
        assert_eq!(bigger.as_slice().len(), 64);
    }

    #[test]
    fn into_dense_detaches_from_the_pool() {
        let pool = Arc::new(BufferPool::<f32>::new());
        let pooled = PooledMatrix::new(pool.acquire(3, 3), Arc::clone(&pool));
        let dense = pooled.into_dense();
        assert_eq!(dense.nrows(), 3);
        assert_eq!(pool.spare_buffers(), 0, "detached buffers never return");
    }

    #[test]
    fn pool_size_is_bounded() {
        let pool = Arc::new(BufferPool::<f32>::new());
        let held: Vec<PooledMatrix<f32>> =
            (0..20).map(|_| PooledMatrix::new(pool.acquire(2, 2), Arc::clone(&pool))).collect();
        drop(held);
        assert!(pool.spare_buffers() <= MAX_POOLED_BUFFERS);
    }

    #[test]
    fn reserve_grows_the_retained_spare_bound() {
        let pool = Arc::new(BufferPool::<f32>::new());
        pool.reserve(20);
        let held: Vec<PooledMatrix<f32>> =
            (0..20).map(|_| PooledMatrix::new(pool.acquire(2, 2), Arc::clone(&pool))).collect();
        drop(held);
        assert_eq!(pool.spare_buffers(), 20, "reserved spares must all be retained");
        // Never shrinks, and stays clamped at the hard ceiling.
        pool.reserve(4);
        assert_eq!(pool.capacity.load(Ordering::Relaxed), 20);
        pool.reserve(usize::MAX);
        assert_eq!(pool.capacity.load(Ordering::Relaxed), MAX_RESERVED_BUFFERS);
    }

    #[test]
    fn release_caps_retained_spares_by_bytes() {
        // A raised buffer-count bound must not pin unbounded idle memory for
        // large outputs: past the default spare count, retained spares also
        // fit MAX_RESERVED_BYTES.
        let pool = Arc::new(BufferPool::<f32>::new());
        pool.reserve(MAX_RESERVED_BUFFERS);
        // 8 MiB per buffer: the byte budget admits 8, which is also the
        // always-allowed default count.
        let elems = (8 << 20) / std::mem::size_of::<f32>();
        let rows = elems / 4;
        let held: Vec<PooledMatrix<f32>> =
            (0..12).map(|_| PooledMatrix::new(pool.acquire(rows, 4), Arc::clone(&pool))).collect();
        drop(held);
        assert_eq!(pool.spare_buffers(), MAX_POOLED_BUFFERS);
    }

    #[test]
    fn pooled_matrix_comparisons() {
        let pool = Arc::new(BufferPool::<f32>::new());
        let a = PooledMatrix::new(pool.acquire(2, 2), Arc::clone(&pool));
        let b = a.clone();
        assert_eq!(a, b);
        let dense = a.clone().into_dense();
        assert_eq!(a, dense);
        assert_eq!(dense, b);
    }
}
