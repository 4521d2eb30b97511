//! The batched serving pipeline: [`JitSpmm::execute_batch`] over input
//! slices and the incremental [`BatchStream`] for unbounded streams, with
//! both borrowed ([`BatchStream::push`]) and owned
//! ([`BatchStream::push_owned`]) inputs.

use crate::engine::compile::{JitSpmm, SlotKernel};
use crate::engine::launch::LaunchGuard;
use crate::engine::report::{BatchReport, BatchStats, ExecutionReport};
use crate::error::JitSpmmError;
use crate::kernel::{CompiledKernel, KernelKind};
use crate::runtime::dispatch::{KernelJob, LaunchPayload};
use crate::runtime::{PoolScope, PooledMatrix, ScopedJobHandle};
use crate::schedule::DynamicCounter;
use jitspmm_sparse::{DenseMatrix, Scalar};
use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The host's available parallelism, resolved once per process.
/// `std::thread::available_parallelism` consults the cgroup filesystem on
/// every call on Linux (~10µs), far too slow for a per-batch decision.
fn host_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Default number of launches [`JitSpmm::execute_batch`] keeps in flight:
/// double buffering — one launch executing while the next is already queued,
/// so workers flow between inputs without re-parking.
pub const DEFAULT_BATCH_DEPTH: usize = 2;

/// Upper bound on the batch pipeline depth. Each slot holds one output
/// buffer (and, for dynamic engines, one spare kernel copy), and depths past
/// the pool's worker count buy no additional overlap.
const MAX_BATCH_DEPTH: usize = 16;

impl<'a, T: Scalar> JitSpmm<'a, T> {
    /// Compute `Y = A * X_i` for every input in `inputs`, pipelining up to
    /// [`DEFAULT_BATCH_DEPTH`] launches through the scope's worker pool at
    /// once, and return the outputs (in input order) together with a
    /// [`BatchReport`] aggregating per-input timing.
    ///
    /// This is the steady-state serving shape: one compiled kernel, a stream
    /// of dense right-hand sides. Relative to a loop of
    /// [`JitSpmm::execute`] calls, the pipeline
    ///
    /// * validates every input **once, up front** — a shape mismatch fails
    ///   the whole batch before any launch, never mid-stream,
    /// * takes the engine's launch lock once for the whole batch instead of
    ///   once per input,
    /// * keeps the next launch queued while the current one runs
    ///   (double-buffered outputs), so workers flow from one input's job
    ///   straight into the next without re-parking — degrading to direct
    ///   sequential execution on hosts where nothing can overlap (a single
    ///   hardware thread, or a zero-worker pool), where queue handoffs would
    ///   only cost, and
    /// * reuses per-slot job payloads, so steady-state submission performs
    ///   no per-launch boxing.
    ///
    /// Dynamic-dispatch engines compile one spare kernel per extra pipeline
    /// slot on first use (the row-claim counter's address is embedded in the
    /// generated code, so concurrently in-flight launches need their own
    /// copies); the spares are cached on the engine, so only the first batch
    /// pays that codegen. Static-range kernels have no embedded mutable
    /// state and share the engine's kernel across all slots.
    ///
    /// For unbounded streams — where inputs arrive one at a time and
    /// outputs should be consumed as they complete — drive a
    /// [`BatchStream`] directly via [`JitSpmm::batch_stream`]. To serve a
    /// mixed request stream across *several* engines sharing one pool, see
    /// [`crate::serve::SpmmServer`].
    ///
    /// ```
    /// use jitspmm::JitSpmmBuilder;
    /// use jitspmm_sparse::{generate, DenseMatrix};
    ///
    /// # fn main() -> Result<(), jitspmm::JitSpmmError> {
    /// let a = generate::uniform::<f32>(128, 128, 1_000, 1);
    /// let engine = JitSpmmBuilder::new().threads(2).build(&a, 8)?;
    /// let inputs: Vec<DenseMatrix<f32>> =
    ///     (0..6).map(|seed| DenseMatrix::random(128, 8, seed)).collect();
    /// let (outputs, report) = engine
    ///     .pool()
    ///     .scope(|scope| engine.execute_batch(scope, &inputs))?;
    /// assert_eq!(outputs.len(), 6);
    /// assert_eq!(report.inputs, 6);
    /// for (x, y) in inputs.iter().zip(&outputs) {
    ///     assert!(y.approx_eq(&a.spmm_reference(x), 1e-4));
    /// }
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`JitSpmmError::ShapeMismatch`] (naming the offending input
    /// index) if any input is not `A.ncols() x d`, and
    /// [`JitSpmmError::LaunchInProgress`] if the calling thread already
    /// holds a launch of this engine.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic of the batch after joining the
    /// launches still in flight; the engine stays usable afterwards.
    pub fn execute_batch<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        inputs: &'env [DenseMatrix<T>],
    ) -> Result<(Vec<PooledMatrix<T>>, BatchReport), JitSpmmError> {
        // One-time validation, hoisted out of the per-input path.
        for (index, x) in inputs.iter().enumerate() {
            self.check_input_shape(x).map_err(|e| match e {
                JitSpmmError::ShapeMismatch(msg) => {
                    JitSpmmError::ShapeMismatch(format!("batch input {index}: {msg}"))
                }
                other => other,
            })?;
        }
        // Depth 0 = auto: pipeline at the default depth where overlap is
        // available, run sequentially where it is not. A batch of at most
        // one input has nothing to pipeline either way.
        let depth = if inputs.len() <= 1 { 1 } else { 0 };
        let mut stream = self.batch_stream(scope, depth)?;
        // The caller holds all the batch's outputs at once; let the buffer
        // pool retain that many spares so repeated batches recycle them all.
        // (Only once the batch is actually going to run — a failed call must
        // not mutate engine state.)
        self.output_pool.reserve(inputs.len());
        let mut outputs = Vec::with_capacity(inputs.len());
        for x in inputs {
            if let Some((y, _)) = stream.push_validated(x) {
                outputs.push(y);
            }
        }
        let (rest, report) = stream.finish();
        outputs.extend(rest.into_iter().map(|(y, _)| y));
        Ok((outputs, report))
    }

    /// Open a [`BatchStream`]: the incremental form of
    /// [`JitSpmm::execute_batch`] for unbounded input streams.
    ///
    /// `depth` is the number of launches kept in flight at once (`0` selects
    /// [`DEFAULT_BATCH_DEPTH`]; values are capped at an internal maximum of
    /// 16). On hosts where deferred launches cannot overlap anything — a
    /// single hardware thread, or a zero-worker pool — depths of 0 and 1
    /// degrade to direct sequential execution on the calling thread (no
    /// queue round trips, bit-identical results); an explicit `depth >= 2`
    /// always uses the real pipeline. The stream holds the engine's launch
    /// lock until it is finished or dropped — other launches of this engine
    /// block (or fail with [`JitSpmmError::LaunchInProgress`] from the
    /// owning thread) meanwhile.
    ///
    /// Feed it from any iterator:
    ///
    /// ```
    /// use jitspmm::JitSpmmBuilder;
    /// use jitspmm_sparse::{generate, DenseMatrix};
    ///
    /// # fn main() -> Result<(), jitspmm::JitSpmmError> {
    /// let a = generate::uniform::<f32>(64, 64, 500, 2);
    /// let engine = JitSpmmBuilder::new().threads(2).build(&a, 4)?;
    /// let inputs: Vec<DenseMatrix<f32>> =
    ///     (0..5).map(|seed| DenseMatrix::random(64, 4, seed)).collect();
    /// engine.pool().scope(|scope| -> Result<(), jitspmm::JitSpmmError> {
    ///     let mut stream = engine.batch_stream(scope, 2)?;
    ///     let mut done = 0usize;
    ///     for x in &inputs {
    ///         // `push` hands back the oldest completed output once the
    ///         // pipeline is full.
    ///         if let Some((y, _report)) = stream.push(x)? {
    ///             done += 1;
    ///             drop(y); // recycled into the engine's buffer pool
    ///         }
    ///     }
    ///     let (rest, report) = stream.finish();
    ///     done += rest.len();
    ///     assert_eq!(done, inputs.len());
    ///     assert_eq!(report.inputs, inputs.len());
    ///     Ok(())
    /// })?;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::LaunchInProgress`] if the calling thread already
    /// holds a launch of this engine, or a codegen error if compiling a
    /// spare slot kernel fails.
    pub fn batch_stream<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        depth: usize,
    ) -> Result<BatchStream<'scope, 'env, T>, JitSpmmError> {
        // Deferring launches through the job queue only pays off when
        // something can actually run concurrently with the submitting
        // thread. On a single-hardware-thread host (or a zero-worker pool)
        // the queue handoffs are pure overhead, so auto mode (depth 0 or 1)
        // degrades to direct sequential execution; an explicit depth >= 2 is
        // a request for real pipelining and is honoured everywhere.
        let no_overlap = scope.pool().size() == 0 || host_parallelism() == 1;
        let (depth, sequential) = match depth {
            0 => {
                if no_overlap {
                    (1, true)
                } else {
                    (DEFAULT_BATCH_DEPTH, false)
                }
            }
            1 => (1, no_overlap),
            n => (n.min(MAX_BATCH_DEPTH), false),
        };
        let launch = self.begin_launch(true)?;
        let spares = self.spare_slot_kernels(depth - 1)?;
        let mut slots = Vec::with_capacity(depth);
        slots.push(BatchSlot { kernel: None, payload: LaunchPayload::new(), busy: false });
        match self.core.kernel.kind() {
            // Each concurrently in-flight dynamic launch needs its own
            // claim counter, hence its own compiled kernel copy.
            KernelKind::DynamicDispatch => {
                for spare in spares {
                    slots.push(BatchSlot {
                        kernel: Some(spare),
                        payload: LaunchPayload::new(),
                        busy: false,
                    });
                }
            }
            // Static-range kernels carry no mutable state; every slot can
            // launch the engine's own kernel.
            KernelKind::StaticRange => {
                for _ in 1..depth {
                    slots.push(BatchSlot {
                        kernel: None,
                        payload: LaunchPayload::new(),
                        busy: false,
                    });
                }
            }
        }
        Ok(BatchStream {
            engine: self,
            scope,
            slots,
            in_flight: VecDeque::with_capacity(depth),
            sequential,
            stats: BatchStats::default(),
            first_submit: None,
            _launch: launch,
        })
    }
}

/// One lane of the batch pipeline: a (possibly spare) kernel to launch and a
/// reusable heap slot for the launch payload.
struct BatchSlot<T: Scalar> {
    /// `None` — launch the engine's own kernel (and reset the engine's
    /// counter); `Some` — a spare dynamic-dispatch copy with its own counter.
    kernel: Option<Arc<SlotKernel<T>>>,
    payload: LaunchPayload<T>,
    /// Whether a launch submitted from this slot is still in flight.
    busy: bool,
}

/// How one batch launch is completed.
enum Pending<'scope> {
    /// Deferred through the scope's job queue; joined on completion.
    Queued(ScopedJobHandle<'scope>),
    /// Already executed on the submitting thread (the stream's sequential
    /// mode); only the recorded kernel time remains.
    Done(std::time::Duration),
}

/// An input a [`BatchStream`] keeps alive until its launch has been joined
/// (the workers dereference its buffer). Owned inputs come from
/// [`BatchStream::push_owned`]; shared inputs are one request fanned out
/// across several pipelines at once — the sharded engine
/// ([`crate::shard::ShardedSpmm`]) pushes one `Arc`'d input into every
/// shard's stream, and the input stays alive until the *last* shard joins.
pub(crate) enum StowedInput<T: Scalar> {
    /// Exclusively owned by this stream's in-flight entry.
    Owned(DenseMatrix<T>),
    /// Shared across the streams of a sharded engine.
    Shared(Arc<DenseMatrix<T>>),
}

impl<T: Scalar> StowedInput<T> {
    /// The input's data pointer. Moving either variant never moves the heap
    /// buffer behind it, so the pointer stays valid while the entry lives.
    fn as_ptr(&self) -> *const T {
        match self {
            StowedInput::Owned(x) => x.as_ptr(),
            StowedInput::Shared(x) => x.as_ptr(),
        }
    }
}

/// One in-flight batch launch, oldest-first in [`BatchStream::in_flight`].
struct InFlight<'scope, T: Scalar> {
    pending: Pending<'scope>,
    slot: usize,
    y: Option<PooledMatrix<T>>,
    submitted: Instant,
    /// An input pushed by value ([`BatchStream::push_owned`]) or by shared
    /// handle, kept alive here until the launch has been joined — the
    /// workers dereference its buffer. `None` for borrowed pushes, whose
    /// input lives for `'env`. Field order matters for the drop path only in
    /// that the join (in `complete_oldest` or the stream's drop) always
    /// precedes this entry being dropped.
    _input: Option<StowedInput<T>>,
}

/// A pipelined stream of SpMM executions through one engine, created by
/// [`JitSpmm::batch_stream`] (or driven for you by
/// [`JitSpmm::execute_batch`]).
///
/// [`BatchStream::push`] submits the next input and, once the pipeline is
/// full, hands back the **oldest** completed output — results always come
/// back in submission order. Cross-thread producers that cannot provide
/// `'env` borrows hand inputs over by value with
/// [`BatchStream::push_owned`]; the stream keeps each owned input alive
/// until its launch has been joined. [`BatchStream::finish`] drains the
/// pipeline and aggregates the per-input timing into a [`BatchReport`].
///
/// The stream holds the engine's launch lock for its whole lifetime (batch
/// members do not re-take it per input), so the engine accepts no other
/// launches until the stream is finished or dropped. Dropping the stream
/// mid-batch joins the launches still in flight and discards their results;
/// leaking it (`std::mem::forget`) is safe — the owning [`PoolScope`] still
/// joins every launch — but leaks the in-flight output buffers (and any
/// owned inputs) and leaves the engine's launch lock held forever, exactly
/// like a leaked [`crate::ExecutionHandle`].
pub struct BatchStream<'scope, 'env, T: Scalar> {
    engine: &'env JitSpmm<'env, T>,
    scope: &'scope PoolScope<'scope, 'env>,
    slots: Vec<BatchSlot<T>>,
    /// Launches in flight, oldest first.
    in_flight: VecDeque<InFlight<'scope, T>>,
    /// Sequential mode: execute each input directly on the calling thread,
    /// single-lane, instead of deferring through the job queue. Chosen when
    /// queue handoffs cannot buy any overlap — a single-hardware-thread
    /// host, or a zero-worker pool — unless the caller explicitly requested
    /// a pipeline depth of 2 or more. Row-wise partitioning computes every
    /// output row with the same instruction sequence whichever lane claims
    /// it, so sequential results are bit-identical to pipelined ones.
    sequential: bool,
    stats: BatchStats,
    first_submit: Option<Instant>,
    /// The engine's launch lock, held once for the whole batch.
    _launch: LaunchGuard<'env>,
}

impl<'scope, 'env, T: Scalar> BatchStream<'scope, 'env, T> {
    /// The pipeline depth: how many launches this stream keeps in flight.
    pub fn depth(&self) -> usize {
        self.slots.len()
    }

    /// Number of launches currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Submit the next input. If the pipeline is already at depth, waits for
    /// the **oldest** in-flight launch first and returns its output and
    /// per-input [`ExecutionReport`]; otherwise returns `None` and the call
    /// does not block.
    ///
    /// # Errors
    ///
    /// Returns [`JitSpmmError::ShapeMismatch`] — without submitting anything
    /// — if `x` is not `A.ncols() x d`; the pipeline is unaffected and
    /// further pushes proceed normally.
    ///
    /// # Panics
    ///
    /// Re-raises a worker panic from the completed launch (the stream is
    /// then dropped by unwinding, which joins the remaining launches and
    /// releases the engine).
    pub fn push(
        &mut self,
        x: &'env DenseMatrix<T>,
    ) -> Result<Option<(PooledMatrix<T>, ExecutionReport)>, JitSpmmError> {
        self.engine.check_input_shape(x)?;
        Ok(self.push_validated(x))
    }

    /// [`BatchStream::push`] for an input handed over **by value**, so a
    /// producer on another thread (or any caller without an `'env` borrow to
    /// offer — a request queue, a network socket) can feed the pipeline. The
    /// stream keeps the input alive until its launch has been joined, then
    /// drops it; everything else — ordering, completion, reporting — matches
    /// [`BatchStream::push`]. The multi-engine serving router
    /// ([`crate::serve::SpmmServer`]) feeds every request through this path.
    ///
    /// # Errors
    ///
    /// Returns [`JitSpmmError::ShapeMismatch`] if `x` is not `A.ncols() x d`;
    /// the rejected input is dropped (it was passed by value) and the
    /// pipeline is unaffected.
    ///
    /// # Panics
    ///
    /// As [`BatchStream::push`].
    pub fn push_owned(
        &mut self,
        x: DenseMatrix<T>,
    ) -> Result<Option<(PooledMatrix<T>, ExecutionReport)>, JitSpmmError> {
        self.engine.check_input_shape(&x)?;
        Ok(self.push_owned_validated(x))
    }

    /// [`BatchStream::push`] for pre-validated inputs
    /// ([`JitSpmm::execute_batch`] hoists the shape checks out of the loop).
    pub(crate) fn push_validated(
        &mut self,
        x: &'env DenseMatrix<T>,
    ) -> Option<(PooledMatrix<T>, ExecutionReport)> {
        let done = self.make_room();
        // SAFETY (of the pointer handed to `submit_ptr`): `x` is borrowed
        // for 'env, which outlives the scope's join of every launch.
        self.submit_ptr(x.as_ptr(), None);
        done
    }

    /// [`BatchStream::push_owned`] for pre-validated inputs (the serving
    /// router validates at its own entry point).
    pub(crate) fn push_owned_validated(
        &mut self,
        x: DenseMatrix<T>,
    ) -> Option<(PooledMatrix<T>, ExecutionReport)> {
        // SAFETY (of the pointer handed to `submit_ptr`): the owned matrix
        // is either consumed synchronously (sequential mode) or stowed in
        // the in-flight entry until its launch has been joined; moving a
        // `DenseMatrix` never moves its heap buffer, so the pointer taken
        // inside `submit_ptr` stays valid.
        self.push_stowed(StowedInput::Owned(x))
    }

    /// [`BatchStream::push_owned`] for an input **shared** with other
    /// streams: the sharded engine routes one request into every shard's
    /// pipeline, each stream holding one `Arc` clone until its own launch
    /// has been joined. Validation is the caller's job (the sharded engine
    /// validates once against the full matrix — every shard has the same
    /// column count and `d`).
    pub(crate) fn push_shared_validated(
        &mut self,
        x: Arc<DenseMatrix<T>>,
    ) -> Option<(PooledMatrix<T>, ExecutionReport)> {
        // SAFETY: as in `push_owned_validated` — the `Arc` keeps the buffer
        // alive until this stream's in-flight entry drops, which happens
        // only after the launch is joined.
        self.push_stowed(StowedInput::Shared(x))
    }

    /// Shared tail of the by-value push paths.
    fn push_stowed(&mut self, x: StowedInput<T>) -> Option<(PooledMatrix<T>, ExecutionReport)> {
        let done = self.make_room();
        self.submit_ptr(x.as_ptr(), Some(x));
        done
    }

    /// Free a pipeline slot for the next submission: when the pipeline is at
    /// depth, join the oldest launch and hand its result back.
    fn make_room(&mut self) -> Option<(PooledMatrix<T>, ExecutionReport)> {
        if self.in_flight.len() == self.slots.len() {
            Some(self.complete_oldest())
        } else {
            None
        }
    }

    /// Join the oldest in-flight launch, if any — the serving control
    /// plane's building block: it drains pipelines one completion at a time
    /// so it can re-check deadlines and engine lifecycle between joins, and
    /// wraps each call in `catch_unwind` to convert a worker panic into a
    /// typed per-request failure. A panic unwinds out of here with the
    /// pipeline bookkeeping already restored (see
    /// [`BatchStream::complete_oldest`]), so the stream stays usable.
    pub(crate) fn complete_next(&mut self) -> Option<(PooledMatrix<T>, ExecutionReport)> {
        if self.in_flight.is_empty() {
            None
        } else {
            Some(self.complete_oldest())
        }
    }

    /// Drain the pipeline: wait for every in-flight launch (oldest first),
    /// returning their outputs plus the aggregated [`BatchReport`].
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic among the remaining launches, after
    /// all of them have been joined.
    pub fn finish(mut self) -> (Vec<(PooledMatrix<T>, ExecutionReport)>, BatchReport) {
        let mut rest = Vec::with_capacity(self.in_flight.len());
        while !self.in_flight.is_empty() {
            rest.push(self.complete_oldest());
        }
        let elapsed = self.first_submit.map(|t| t.elapsed()).unwrap_or_default();
        let stats = std::mem::take(&mut self.stats);
        // Sequential launches all ran single-lane, whatever the engine is
        // configured with; the aggregate report matches the per-input ones.
        let threads = if self.sequential { 1 } else { self.engine.threads };
        let report = stats.report(elapsed, self.slots.len(), threads, self.engine.core.strategy);
        (rest, report)
    }

    /// Launch the input behind `x_ptr` from a free slot. The caller
    /// guarantees one exists (the pipeline was drained to below depth), that
    /// the input passed validation, and that the pointee stays alive until
    /// the launch is joined — by `'env` borrow, or by `owned` (the same
    /// matrix, passed by value) which this function keeps alive in the
    /// in-flight entry (queued mode) or through the synchronous kernel run
    /// (sequential mode).
    fn submit_ptr(&mut self, x_ptr: *const T, owned: Option<StowedInput<T>>) {
        if self.sequential {
            // `owned`, if any, lives until this call returns — after the
            // kernel has run to completion on this thread.
            return self.submit_sequential(x_ptr);
        }
        let engine = self.engine;
        let index = self
            .slots
            .iter()
            .position(|slot| !slot.busy)
            .expect("pipeline depth bounds the number of in-flight launches");
        let slot = &mut self.slots[index];
        let (kernel, counter): (&CompiledKernel<T>, &DynamicCounter) = match &slot.kernel {
            Some(spare) => (&spare.kernel, &spare.counter),
            None => (&engine.core.kernel, &engine.core.counter),
        };
        // The slot is free — its previous launch was joined — so nothing is
        // mid-claim on this counter: the per-launch reset that
        // `begin_launch` performs for a standalone execute happens here,
        // per slot. (Harmless for static kernels, as ever.)
        counter.reset();
        let mut y = PooledMatrix::new(
            engine.output_pool.acquire(engine.matrix.nrows(), engine.d),
            Arc::clone(&engine.output_pool),
        );
        let job = KernelJob::new(kernel, &engine.core.partition.ranges, x_ptr, y.as_mut_ptr());
        let spec = job.spec(kernel.kind(), engine.threads);
        // SAFETY: the slot is free, so no in-flight job references its
        // payload.
        let data = unsafe { slot.payload.store(job) };
        let submitted = Instant::now();
        self.first_submit.get_or_insert(submitted);
        // SAFETY: the payload slot is owned by `self.slots` and only freed
        // (in the stream's drop) or rewritten (in a later `submit`) after
        // this launch has been joined — or leaked, never freed, if the
        // stream is leaked. The kernel (the engine's, or a spare kept alive
        // by the slot's `Arc` and the core's cache), the partition and the
        // engine-borrowed CSR arrays live for at least 'env, which cannot
        // end before the scope has joined the job; the input behind
        // `x_ptr` is either borrowed for 'env or owned by the in-flight
        // entry pushed below, which the stream only drops (or returns) after
        // joining this launch — and leaks, never frees, if the stream is
        // leaked. Shapes were validated before this call and the slot's
        // counter reset above, while the engine's launch lock (held in
        // `_launch`) keeps non-batch launches out.
        let handle = unsafe { self.scope.submit_erased(spec, data, KernelJob::<T>::erased()) };
        slot.busy = true;
        self.in_flight.push_back(InFlight {
            pending: Pending::Queued(handle),
            slot: index,
            y: Some(y),
            submitted,
            _input: owned,
        });
    }

    /// Sequential-mode submission: run the kernel to completion on the
    /// calling thread, single-lane, with no pool round trip. Used on hosts
    /// where deferral cannot overlap anything (see
    /// [`JitSpmm::batch_stream`]); produces bit-identical results because
    /// per-row arithmetic does not depend on which lane computes a row.
    fn submit_sequential(&mut self, x_ptr: *const T) {
        // Chaos-test hook (test builds only): the sequential fast path is a
        // kernel-job entry too, so injected faults behave the same on
        // 1-core hosts.
        #[cfg(any(test, feature = "fault-injection"))]
        crate::serve::fault::kernel_entry();
        let engine = self.engine;
        let submitted = Instant::now();
        self.first_submit.get_or_insert(submitted);
        let mut y = PooledMatrix::new(
            engine.output_pool.acquire(engine.matrix.nrows(), engine.d),
            Arc::clone(&engine.output_pool),
        );
        // The launch lock is held for the stream's lifetime and nothing else
        // is in flight (sequential mode), so the core's own counter is
        // free to reset.
        engine.core.counter.reset();
        let kernel_start = Instant::now();
        // SAFETY: shapes were validated before this call, the engine borrows
        // the CSR arrays its kernel embeds, the input behind `x_ptr` is kept
        // alive by the caller across this synchronous run, the counter was
        // reset above under the held launch lock, and a single lane
        // trivially keeps row writes disjoint.
        unsafe {
            match engine.core.kernel.kind() {
                KernelKind::DynamicDispatch => {
                    engine.core.kernel.call_dynamic(x_ptr, y.as_mut_ptr())
                }
                KernelKind::StaticRange => engine.core.kernel.call_static(
                    0,
                    engine.matrix.nrows() as u64,
                    x_ptr,
                    y.as_mut_ptr(),
                ),
            }
        }
        let kernel = kernel_start.elapsed();
        self.slots[0].busy = true;
        self.in_flight.push_back(InFlight {
            pending: Pending::Done(kernel),
            slot: 0,
            y: Some(y),
            submitted,
            _input: None,
        });
    }

    /// Join the oldest in-flight launch, free its slot and record its
    /// timing. Re-raises a worker panic after the bookkeeping is restored
    /// (the slot is marked free and the launch removed from the queue), so
    /// the unwind path — the stream's drop — sees a consistent pipeline.
    fn complete_oldest(&mut self) -> (PooledMatrix<T>, ExecutionReport) {
        let mut launch = self.in_flight.pop_front().expect("caller checked a launch is in flight");
        // Sequential launches ran on exactly one lane, whatever the engine
        // is configured with; the per-input report says so.
        let (joined, threads, wake) = match &mut launch.pending {
            Pending::Queued(job) => {
                let joined = job.try_wait();
                (joined, self.engine.threads, job.wake())
            }
            // Sequential launches ran inline: no handoff, no wake cost.
            Pending::Done(kernel) => (Ok(*kernel), 1, Duration::ZERO),
        };
        self.slots[launch.slot].busy = false;
        let kernel = match joined {
            Ok(kernel) => kernel,
            Err(payload) => resume_unwind(payload),
        };
        let elapsed = launch.submitted.elapsed();
        let report = ExecutionReport {
            elapsed,
            kernel,
            dispatch: elapsed.saturating_sub(kernel),
            wake,
            threads,
            strategy: self.engine.core.strategy,
        };
        self.stats.record(&report);
        // `launch` (with any owned input) drops at the end of this function,
        // strictly after the join above.
        (launch.y.take().expect("output held until completion"), report)
    }
}

impl<T: Scalar> Drop for BatchStream<'_, '_, T> {
    fn drop(&mut self) {
        // Join every launch still in flight before the payload slots (freed
        // when `slots` drops right after this body), the owned inputs (freed
        // with `in_flight`) and the launch guard are released. Panics are
        // discarded here, as in `ExecutionHandle`'s drop — `push`/`finish`
        // re-raise them.
        for launch in &mut self.in_flight {
            if let Pending::Queued(job) = &mut launch.pending {
                job.join_quiet();
            }
        }
    }
}

impl<T: Scalar> std::fmt::Debug for BatchStream<'_, '_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchStream")
            .field("depth", &self.slots.len())
            .field("in_flight", &self.in_flight.len())
            .field("completed", &self.stats.count)
            .finish()
    }
}
