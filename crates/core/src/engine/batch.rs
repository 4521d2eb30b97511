//! The batched serving pipeline: [`JitSpmm::execute_batch`] over input
//! slices and the incremental [`BatchStream`] for unbounded streams
//! ([`BatchStream::push`]). One stream type serves every
//! engine shape: a single engine is the one-part case, a sharded engine's
//! K row-shard kernels write one shared full-height output in place. It is
//! the only deferred launch path: a one-shot sharded or mutable `execute`
//! is a depth-1 stream, and every input comes back as
//! `(output, ExecutionReport)`.

use crate::engine::compile::{check_input_shape, JitSpmm};
use crate::engine::report::ExecutionReport;
use crate::error::JitSpmmError;
use crate::runtime::dispatch::{BufferPool, KernelJob, LaunchPayload};
use crate::runtime::{PoolScope, PooledMatrix, ScopedJobHandle};
use jitspmm_sparse::{DenseMatrix, Scalar};
use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::time::Instant;

/// Default number of launches [`JitSpmm::execute_batch`] keeps in flight:
/// double buffering — one launch executing while the next is already queued,
/// so workers flow between inputs without re-parking.
pub const DEFAULT_BATCH_DEPTH: usize = 2;

/// Upper bound on the batch pipeline depth. Each slot holds one output
/// buffer, and depths past the pool's worker count buy no additional
/// overlap.
const MAX_BATCH_DEPTH: usize = 16;

impl<'a, T: Scalar> JitSpmm<'a, T> {
    /// Compute `Y = A * X_i` for every input in `inputs`, pipelining up to
    /// [`DEFAULT_BATCH_DEPTH`] launches through the scope's worker pool at
    /// once, and return each output with its per-input [`ExecutionReport`],
    /// in input order.
    ///
    /// This is the steady-state serving shape: one compiled kernel, a stream
    /// of dense right-hand sides. Relative to a loop of
    /// [`JitSpmm::execute`] calls, the pipeline
    ///
    /// * validates every input **once, up front** — a shape mismatch fails
    ///   the whole batch before any launch, never mid-stream,
    /// * keeps the next launch queued while the current one runs
    ///   (double-buffered outputs), so workers flow from one input's job
    ///   straight into the next without re-parking (on a zero-worker pool
    ///   every launch simply runs inline at submission), and
    /// * reuses per-slot job payloads, so steady-state submission performs
    ///   no per-launch boxing.
    ///
    /// Every slot launches the engine's one kernel; each launch carries its
    /// own row-claim counter in its slot's payload.
    ///
    /// For unbounded streams — where inputs arrive one at a time and
    /// outputs should be consumed as they complete — drive a
    /// [`BatchStream`] directly via [`JitSpmm::batch_stream`]. To serve
    /// requests across *several* engines sharing one pool, see
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
    /// let outputs = engine.pool().scope(|scope| engine.execute_batch(scope, &inputs))?;
    /// assert_eq!(outputs.len(), 6);
    /// for (x, (y, report)) in inputs.iter().zip(&outputs) {
    ///     assert!(y.approx_eq(&a.spmm_reference(x), 1e-4));
    ///     assert!(report.kernel <= report.elapsed);
    /// }
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`JitSpmmError::ShapeMismatch`] (naming the offending input
    /// index in a batch of several) if any input is not `A.ncols() x d`.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic of the batch after joining the
    /// launches still in flight; the engine stays usable afterwards.
    pub fn execute_batch<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        inputs: &'env [DenseMatrix<T>],
    ) -> Result<Vec<(PooledMatrix<T>, ExecutionReport)>, JitSpmmError> {
        run_batch(inputs, (self.matrix.ncols(), self.d), |depth| self.batch_stream(scope, depth))
    }

    /// Open a [`BatchStream`]: the incremental form of
    /// [`JitSpmm::execute_batch`] for unbounded input streams.
    ///
    /// `depth` is the number of launches kept in flight at once (`0` selects
    /// [`DEFAULT_BATCH_DEPTH`]; values are capped at an internal maximum of
    /// 16). Other launches of this engine — blocking ones, or other streams,
    /// from any thread — run beside the stream's.
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
    ///     let mut stream = engine.batch_stream(scope, 2);
    ///     let mut done = 0usize;
    ///     for x in &inputs {
    ///         // `push` hands back the oldest completed output once the
    ///         // pipeline is full.
    ///         if let Some((y, _report)) = stream.push(x)? {
    ///             done += 1;
    ///             drop(y); // recycled into the engine's buffer pool
    ///         }
    ///     }
    ///     done += stream.finish().len();
    ///     assert_eq!(done, inputs.len());
    ///     Ok(())
    /// })?;
    /// # Ok(())
    /// # }
    /// ```
    pub fn batch_stream<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        depth: usize,
    ) -> BatchStream<'scope, 'env, T> {
        BatchStream::open(scope, depth, std::slice::from_ref(self), &self.output_pool)
    }
}

/// The one batch driver behind every `execute_batch` and the one-shot
/// sharded and mutable `execute`: validate all inputs against the
/// `(ncols, d)` input shape up front — before `open` pins anything — then
/// `open` a stream (depth 1 for a single input, the default otherwise),
/// push the slice through it and drain it. Outputs come back in input
/// order, each with its report.
pub(crate) fn run_batch<'scope, 'env: 'scope, T: Scalar>(
    inputs: &'env [DenseMatrix<T>],
    (ncols, d): (usize, usize),
    open: impl FnOnce(usize) -> BatchStream<'scope, 'env, T>,
) -> Result<Vec<Completed<T>>, JitSpmmError> {
    for (index, x) in inputs.iter().enumerate() {
        check_input_shape(x, ncols, d).map_err(|e| match e {
            JitSpmmError::ShapeMismatch(msg) if inputs.len() > 1 => {
                JitSpmmError::ShapeMismatch(format!("batch input {index}: {msg}"))
            }
            other => other,
        })?;
    }
    let mut stream = open(if inputs.len() <= 1 { 1 } else { 0 });
    // The caller holds all the batch's outputs at once; let the buffer pool
    // retain that many spares so repeated batches recycle them all. (Only
    // once the batch is actually going to run — a failed call must not
    // mutate engine state.)
    stream.output_pool.reserve(inputs.len());
    let mut outputs = Vec::with_capacity(inputs.len());
    for x in inputs {
        outputs.extend(stream.push_validated(x));
    }
    outputs.extend(stream.finish());
    Ok(outputs)
}

/// One kernel of a stream — a whole engine, or one row shard of a sharded
/// one — and where its rows land in the stream's shared output.
struct Part<'env, T: Scalar> {
    engine: &'env JitSpmm<'env, T>,
    /// First output row this part's kernel writes.
    row_offset: usize,
}

/// One lane of the batch pipeline: one reusable launch payload per part,
/// plus the handles of the launch currently in flight from it.
struct BatchSlot<'scope, T: Scalar> {
    payloads: Vec<LaunchPayload<T>>,
    /// One job handle per part while a launch submitted from this slot is
    /// in flight; empty when the slot is free. Room for every part is
    /// allocated once, at open.
    handles: Vec<ScopedJobHandle<'scope>>,
}

/// A completed input: its output and its per-input report.
type Completed<T> = (PooledMatrix<T>, ExecutionReport);

/// One in-flight input, oldest-first in [`BatchStream::in_flight`].
struct InFlight<T: Scalar> {
    slot: usize,
    y: PooledMatrix<T>,
    submitted: Instant,
}

/// Anything a stream keeps alive until it is gone (see
/// [`BatchStream::holding`]). Type-erased only because its one implementor,
/// the mutable engine's pin on its generation, is private to `update/`.
trait Held {}
impl<G> Held for G {}

/// A pipelined stream of SpMM executions, created by
/// [`JitSpmm::batch_stream`],
/// [`ShardedSpmm::batch_stream`](crate::shard::ShardedSpmm::batch_stream) or
/// [`MutableSpmm::batch_stream`](crate::update::MutableSpmm::batch_stream)
/// (or driven for you by the matching `execute_batch`).
///
/// [`BatchStream::push`] submits the next input and, once the pipeline is
/// full, hands back the **oldest** completed output — results always come
/// back in submission order. [`BatchStream::finish`] drains the
/// pipeline. Every input comes back with its own [`ExecutionReport`];
/// aggregating them is the caller's business.
///
/// Over a sharded engine every input launches **all** K shard kernels, each
/// writing its own row range of one pooled full-height output in place (row
/// shards are pairwise disjoint, so nothing is copied or stitched), and an
/// input completes when its slowest shard has joined; its
/// [`ExecutionReport`] is the critical path across the shards.
///
/// Every launch carries its own row-claim counter in its slot's payload, so
/// the part engines keep accepting other launches — blocking ones, or other
/// streams — while the stream is open. Dropping the stream mid-batch joins
/// the launches still in flight and discards their results; leaking it
/// (`std::mem::forget`) is safe — the owning [`PoolScope`] still joins
/// every launch — but leaks the in-flight output buffers; the engines keep
/// working.
pub struct BatchStream<'scope, 'env, T: Scalar> {
    /// The kernels every input fans out to, in row order; one for a single
    /// engine.
    parts: Vec<Part<'env, T>>,
    scope: &'scope PoolScope<'scope, 'env>,
    /// Recycles the full-height outputs all parts write into.
    output_pool: &'env Arc<BufferPool<T>>,
    /// Output shape: the parts' rows stacked, by their shared `d`.
    nrows: usize,
    d: usize,
    slots: Vec<BatchSlot<'scope, T>>,
    /// Inputs in flight, oldest first.
    in_flight: VecDeque<InFlight<T>>,
    /// Scratch for one completing input's per-part reports (room for every
    /// part allocated at open).
    reports: Vec<ExecutionReport>,
    /// Whatever must outlive every launch of this stream besides the `'env`
    /// borrows — a mutable engine's `Arc` on the generation it launches
    /// through. Only released with the stream, after its `Drop` has joined
    /// everything in flight.
    _hold: Option<Box<dyn Held + 'env>>,
}

impl<'scope, 'env, T: Scalar> BatchStream<'scope, 'env, T> {
    /// Open a stream over `engines` — one engine, or the row shards of one
    /// matrix in row order — whose kernels all write one `output_pool`
    /// buffer: part `k` owns the rows right after parts `0..k`, so the
    /// parts' writes are pairwise disjoint by construction.
    pub(crate) fn open(
        scope: &'scope PoolScope<'scope, 'env>,
        depth: usize,
        engines: &'env [JitSpmm<'env, T>],
        output_pool: &'env Arc<BufferPool<T>>,
    ) -> BatchStream<'scope, 'env, T> {
        let depth = match depth {
            0 => DEFAULT_BATCH_DEPTH,
            n => n.min(MAX_BATCH_DEPTH),
        };
        let first = engines.first().expect("a stream runs at least one kernel");
        let (ncols, d) = (first.matrix.ncols(), first.d);
        // Every part reads the same input and writes rows of the same
        // width; the launch pointers below rely on it.
        assert!(engines.iter().all(|e| e.matrix.ncols() == ncols && e.d == d));
        let mut parts = Vec::with_capacity(engines.len());
        let mut nrows = 0;
        for engine in engines {
            parts.push(Part { engine, row_offset: nrows });
            nrows += engine.matrix.nrows();
        }
        let slots = (0..depth)
            .map(|_| BatchSlot {
                payloads: engines.iter().map(|_| LaunchPayload::new()).collect(),
                handles: Vec::with_capacity(engines.len()),
            })
            .collect();
        BatchStream {
            parts,
            scope,
            output_pool,
            nrows,
            d,
            slots,
            in_flight: VecDeque::with_capacity(depth),
            reports: Vec::with_capacity(engines.len()),
            _hold: None,
        }
    }

    /// Keep `held` alive until the stream is gone: released only after the
    /// stream's `Drop` has joined every launch (or never, if the stream is
    /// leaked).
    pub(crate) fn holding(mut self, held: impl Sized + 'env) -> BatchStream<'scope, 'env, T> {
        self._hold = Some(Box::new(held));
        self
    }

    /// The pipeline depth: how many inputs this stream keeps in flight.
    pub fn depth(&self) -> usize {
        self.slots.len()
    }

    /// Number of inputs currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Submit the next input. If the pipeline is already at depth, waits for
    /// the **oldest** in-flight input first and returns its output and
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
    /// Re-raises a worker panic from the completed input, after all of its
    /// launches have joined (the stream is then dropped by unwinding, which
    /// joins the remaining launches).
    pub fn push(
        &mut self,
        x: &'env DenseMatrix<T>,
    ) -> Result<Option<(PooledMatrix<T>, ExecutionReport)>, JitSpmmError> {
        self.check(x)?;
        Ok(self.push_validated(x))
    }

    /// The input-shape check every part shares: the first part's matrix
    /// columns by the stream's `d`.
    fn check(&self, x: &DenseMatrix<T>) -> Result<(), JitSpmmError> {
        check_input_shape(x, self.parts[0].engine.matrix.ncols(), self.d)
    }

    /// [`BatchStream::push`] for pre-validated inputs (`execute_batch`
    /// hoists the shape checks out of the loop).
    pub(crate) fn push_validated(&mut self, x: &'env DenseMatrix<T>) -> Option<Completed<T>> {
        let done = self.make_room();
        // `x` is borrowed for 'env, which outlives the scope's join of
        // every launch (`submit`'s liveness contract).
        self.submit(x.as_ptr());
        done
    }

    /// Free a pipeline slot for the next submission: when the pipeline is at
    /// depth, join the oldest input and hand its result back.
    fn make_room(&mut self) -> Option<Completed<T>> {
        if self.in_flight.len() == self.slots.len() {
            Some(self.complete_oldest())
        } else {
            None
        }
    }

    /// Drain the pipeline: wait for every in-flight input (oldest first)
    /// and return each output with its [`ExecutionReport`].
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic among the remaining launches, after
    /// all of them have been joined.
    pub fn finish(mut self) -> Vec<(PooledMatrix<T>, ExecutionReport)> {
        let mut rest = Vec::with_capacity(self.in_flight.len());
        while !self.in_flight.is_empty() {
            rest.push(self.complete_oldest());
        }
        rest
    }

    /// Launch the input behind `x_ptr` from a free slot: one pooled output,
    /// one job per part. The caller guarantees a free slot exists (the
    /// pipeline was drained to below depth), that the input passed
    /// validation, and that the pointee lives for `'env`, so past every
    /// launch's join.
    fn submit(&mut self, x_ptr: *const T) {
        let index = self
            .slots
            .iter()
            .position(|slot| slot.handles.is_empty())
            .expect("pipeline depth bounds the number of in-flight inputs");
        let mut y = PooledMatrix::new(
            self.output_pool.acquire(self.nrows, self.d),
            Arc::clone(self.output_pool),
        );
        let y_ptr = y.as_mut_ptr();
        let submitted = Instant::now();
        // Stowed *before* the first launch, so even an unwind out of the
        // loop below reaches the stream's drop — which joins the slot's
        // handles — with the output still alive.
        self.in_flight.push_back(InFlight { slot: index, y, submitted });
        let slot = &mut self.slots[index];
        for (part, payload) in self.parts.iter().zip(&mut slot.payloads) {
            let engine = part.engine;
            let kernel = &engine.core.kernel;
            // SAFETY: the output is `nrows x d` and `open` laid the parts
            // out as consecutive row ranges summing to `nrows`, so this
            // part's `row_offset * d` is in bounds.
            let part_y = unsafe { y_ptr.add(part.row_offset * self.d) };
            let job =
                KernelJob::new(kernel, engine.matrix, &engine.core.partition.ranges, x_ptr, part_y);
            let spec = job.spec(kernel.kind(), engine.threads);
            // SAFETY: the slot is free, so no in-flight job references its
            // payloads.
            let data = unsafe { payload.store(job) };
            // SAFETY: join before free — everything this job dereferences
            // outlives its join. The payload is owned by `self.slots` and
            // only rewritten by a later `submit` from this slot, which
            // needs `handles` empty — i.e. after `complete_oldest` joined
            // all of them — or freed after the stream's drop joined them.
            // The output sits in the in-flight entry pushed above, which
            // `complete_oldest` releases only after joining every part and
            // the stream's drop only after joining every slot. The kernel,
            // the partition, the engine-borrowed CSR arrays and the input
            // live for at least 'env, which
            // cannot end before the scope has joined the job; a leaked
            // stream leaks all of the above, never frees it. Parts write
            // pairwise disjoint row ranges of the output, shapes were
            // validated before this call (`open` checked the parts agree),
            // and the job's claim counter is its own, fresh at zero.
            let handle = unsafe { self.scope.submit_erased(spec, data, KernelJob::<T>::erased()) };
            slot.handles.push(handle);
        }
    }

    /// Join **every** part of the oldest in-flight input, free its slot and
    /// report its timing: the per-part reports fold into the input's
    /// critical path ([`merge_input_reports`]; a one-part stream has nothing
    /// to fold). Re-raises the first worker panic only after all parts have
    /// joined and the bookkeeping is restored (the slot is free and the
    /// input removed from the queue), so the stream is as consistent after
    /// a shard panic as after a single-engine one — whether the caller
    /// contains the unwind and keeps pushing, or lets it drop the stream.
    fn complete_oldest(&mut self) -> Completed<T> {
        let launch = self.in_flight.pop_front().expect("caller checked an input is in flight");
        let slot = &mut self.slots[launch.slot];
        let mut panic = None;
        self.reports.clear();
        for (part, job) in self.parts.iter().zip(&mut slot.handles) {
            match job.try_wait() {
                Ok(kernel) => {
                    let elapsed = launch.submitted.elapsed();
                    self.reports.push(ExecutionReport {
                        elapsed,
                        kernel,
                        dispatch: elapsed.saturating_sub(kernel),
                        wake: job.wake(),
                        threads: part.engine.threads,
                        strategy: part.engine.core.meta.strategy,
                    });
                }
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        slot.handles.clear();
        if let Some(payload) = panic {
            // `launch` (and its output) drops with the unwind, strictly
            // after the joins above.
            resume_unwind(payload);
        }
        let report = match self.reports[..] {
            [only] => only,
            _ => merge_input_reports(&self.reports),
        };
        (launch.y, report)
    }
}

/// Merge per-part launch reports for **one input** into its critical-path
/// view: the input is complete when its slowest shard is, so `elapsed` and
/// `kernel` take the maxima, `threads` sums the lanes the shards occupied,
/// and `strategy` is the slowest (critical) shard's — the one that governs
/// the input's latency. `reports` must be non-empty.
pub(super) fn merge_input_reports(reports: &[ExecutionReport]) -> ExecutionReport {
    let critical = reports
        .iter()
        .max_by_key(|r| r.kernel)
        .expect("a sharded launch involves at least one shard");
    let elapsed = reports.iter().map(|r| r.elapsed).max().unwrap_or_default();
    let kernel = critical.kernel;
    ExecutionReport {
        elapsed,
        kernel,
        dispatch: elapsed.saturating_sub(kernel),
        // The input's handoff is not over until the slowest shard's worker
        // has picked its job up.
        wake: reports.iter().map(|r| r.wake).max().unwrap_or_default(),
        threads: reports.iter().map(|r| r.threads).sum(),
        strategy: critical.strategy,
    }
}

impl<T: Scalar> Drop for BatchStream<'_, '_, T> {
    fn drop(&mut self) {
        // Join every launch still in flight before anything it points at is
        // released: the payload slots, the in-flight outputs and whatever
        // `_hold` keeps alive all drop with the fields,
        // right after this body. Panics are discarded
        // here — `push`/`finish` re-raise them — so an abandoned stream
        // cannot poison the scope exit.
        for job in self.slots.iter_mut().flat_map(|slot| &mut slot.handles) {
            job.join_quiet();
        }
    }
}

impl<T: Scalar> std::fmt::Debug for BatchStream<'_, '_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchStream")
            .field("parts", &self.parts.len())
            .field("depth", &self.slots.len())
            .field("in_flight", &self.in_flight.len())
            .finish()
    }
}
