//! The [`SpmmServer`]: N compiled engines, one pool, one mixed request
//! stream served FIFO, bounded under overload by its admission policy and
//! kept alive under faults by containment.

use crate::engine::{check_input_shape, BatchStream, ExecutionReport, JitSpmm};
use crate::error::JitSpmmError;
use crate::runtime::pool::lock;
use crate::runtime::{PoolScope, PooledMatrix, WorkerPool};
use crate::serve::control::{AdmissionPolicy, ControlShared, RejectReason};
use crate::serve::queue::{RequestQueue, RequestSender, ServerRequest, TryRecvError};
use crate::serve::report::ServerReport;
use crate::update::MutableSpmm;
use jitspmm_sparse::{DenseMatrix, Scalar};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One registered engine behind one logical id. The `Arc` pins the
/// engine's address so [`SpmmServer::single`] can hand out borrows while
/// the registry vector grows behind its mutex.
enum EngineEntry<'a, T: Scalar> {
    Single(Arc<JitSpmm<'a, T>>),
    /// An updatable sharded engine ([`MutableSpmm`]): owns its generations,
    /// so it carries no borrow lifetime; [`MutableSpmm::apply`] publishes a
    /// new one while the server runs.
    Mutable(Arc<MutableSpmm<T>>),
}

/// A multi-engine serving router: owns N compiled [`JitSpmm`] engines —
/// different matrices, column counts, strategies — that share one
/// [`WorkerPool`], and routes a mixed stream of engine-tagged requests to
/// their per-engine batch pipelines.
///
/// Each engine's launches are lane-capped to its configured thread count, so
/// requests for different engines execute **concurrently on disjoint worker
/// subsets** of the shared pool instead of serializing; within one engine,
/// requests pipeline through that engine's [`BatchStream`] and come back in
/// submission order.
///
/// Around the routing (see the [`crate::serve`] module docs): two admission
/// policies with typed rejections, engines registered while a serve runs
/// ([`SpmmServer::add_engine`]), live matrix updates (an
/// [`MutableSpmm::apply`] through [`SpmmServer::mutable`]) and fault
/// containment.
///
/// ```
/// use jitspmm::serve::{ServeOptions, ServerRequest, SpmmServer};
/// use jitspmm::{JitSpmmBuilder, WorkerPool};
/// use jitspmm_sparse::{generate, DenseMatrix};
///
/// # fn main() -> Result<(), jitspmm::JitSpmmError> {
/// let pool = WorkerPool::new(2);
/// let a = generate::uniform::<f32>(96, 96, 800, 1);
/// let b = generate::uniform::<f32>(64, 80, 500, 2);
/// let server = SpmmServer::new(vec![
///     JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, 8)?,
///     JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&b, 4)?,
/// ])?;
/// // A mixed, interleaved request stream: engine ids tag each input.
/// let input = |i: usize| {
///     if i % 2 == 0 {
///         DenseMatrix::<f32>::random(96, 8, 10 + i as u64)
///     } else {
///         DenseMatrix::<f32>::random(80, 4, 20 + i as u64)
///     }
/// };
/// let mut responses = Vec::new();
/// let (report, ()) = server.serve_controlled(
///     ServeOptions::default(),
///     |sender| {
///         for i in 0..6 {
///             sender.send_request(ServerRequest::new(i % 2, input(i))).expect("admitted");
///         }
///     },
///     |response| responses.push(response),
/// )?;
/// assert_eq!(responses.len(), 6);
/// assert_eq!(report.requests, 6);
/// for r in &responses {
///     let reference = if r.engine() == 0 { &a } else { &b };
///     assert!(r.output().approx_eq(&reference.spmm_reference(&input(r.request())), 1e-4));
/// }
/// # Ok(())
/// # }
/// ```
pub struct SpmmServer<'a, T: Scalar> {
    /// Logical-id-indexed engine registry. **Append-only**: entries are
    /// never removed, replaced or reordered while the server lives — which
    /// is what makes the borrow-returning accessors sound.
    engines: Mutex<Vec<EngineEntry<'a, T>>>,
    control: Arc<ControlShared>,
    pool: WorkerPool,
}

impl<T: Scalar> std::fmt::Debug for SpmmServer<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpmmServer")
            .field("engines", &self.engine_count())
            .field("pool_workers", &self.pool.size())
            .finish()
    }
}

impl<'a, T: Scalar> SpmmServer<'a, T> {
    /// Build a server over `engines`. Engine ids are the indices into this
    /// vector, in order.
    ///
    /// # Errors
    ///
    /// Returns [`JitSpmmError::InvalidConfig`] if `engines` is empty or if
    /// the engines do not all execute on the **same** [`WorkerPool`] — the
    /// disjoint-lane overlap the router promises only holds within one pool
    /// (build every engine with [`crate::JitSpmmBuilder::pool`] on clones of
    /// one pool).
    pub fn new(engines: Vec<JitSpmm<'a, T>>) -> Result<SpmmServer<'a, T>, JitSpmmError> {
        let Some(first) = engines.first() else {
            return Err(JitSpmmError::InvalidConfig(
                "an SpmmServer needs at least one engine".to_string(),
            ));
        };
        let pool = first.pool().clone();
        if let Some(stray) = engines.iter().position(|e| !e.pool().same_pool(&pool)) {
            return Err(JitSpmmError::InvalidConfig(format!(
                "engine {stray} executes on a different worker pool; all of a server's \
                 engines must share one pool"
            )));
        }
        let control = Arc::new(ControlShared::new(pool.clone()));
        for _ in &engines {
            control.register_engine();
        }
        let entries = engines.into_iter().map(|e| EngineEntry::Single(Arc::new(e))).collect();
        Ok(SpmmServer { engines: Mutex::new(entries), control, pool })
    }

    /// Build a server with **no** engines yet, over `pool`: register them
    /// afterwards with [`SpmmServer::add_engine`] /
    /// [`SpmmServer::add_mutable`] — before or while a serve runs. Until an
    /// engine is registered every request is rejected with the typed
    /// [`RejectReason::UnknownEngine`].
    pub fn with_pool(pool: WorkerPool) -> SpmmServer<'a, T> {
        SpmmServer {
            engines: Mutex::new(Vec::new()),
            control: Arc::new(ControlShared::new(pool.clone())),
            pool,
        }
    }

    /// Register another single engine while the server (and any session) is
    /// live, returning its new logical id. An open
    /// [`SpmmServer::serve_controlled`] loop routes to it as soon as a
    /// request names the id.
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::InvalidConfig`] if the engine does not execute on
    /// this server's pool.
    pub fn add_engine(&self, engine: JitSpmm<'a, T>) -> Result<usize, JitSpmmError> {
        self.register(engine.pool().clone(), EngineEntry::Single(Arc::new(engine)))
    }

    /// Register an **updatable** engine ([`MutableSpmm`]) behind one
    /// logical engine id, which this returns — the one way a sharded engine
    /// ([`crate::shard::ShardedSpmm`]) gets behind the server. To the
    /// routing layer it is indistinguishable from a single engine: requests
    /// tag the returned id, every request launches all shard kernels into
    /// one full-height output and responses come back in per-engine
    /// submission order, each reporting its critical path across the shards
    /// as its [`ExecutionReport`]. Its matrix can also change while the
    /// server runs: any thread may call [`MutableSpmm::apply`] on
    /// [`SpmmServer::mutable`]`(id)`. The apply runs on that thread and
    /// publishes the new generation without waiting for the serving loop;
    /// the engine's lane finishes what it launched on the old matrix and
    /// reopens on the new one at its next request, so a request sent after
    /// `apply` returns sees the merged matrix (see [`crate::update`]). Like
    /// [`SpmmServer::add_engine`], this works while a serve is running.
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::InvalidConfig`] if the engine does not execute on
    /// this server's pool.
    pub fn add_mutable(&self, mutable: MutableSpmm<T>) -> Result<usize, JitSpmmError> {
        self.register(mutable.pool().clone(), EngineEntry::Mutable(Arc::new(mutable)))
    }

    /// Append `entry` (an engine executing on `pool`) to the registry and
    /// the control plane, returning its logical id.
    fn register(&self, pool: WorkerPool, entry: EngineEntry<'a, T>) -> Result<usize, JitSpmmError> {
        if !pool.same_pool(&self.pool) {
            return Err(JitSpmmError::InvalidConfig(
                "the engine executes on a different worker pool; all of a server's engines \
                 must share one pool"
                    .to_string(),
            ));
        }
        let mut engines = lock(&self.engines);
        engines.push(entry);
        let id = engines.len() - 1;
        let registered = self.control.register_engine();
        debug_assert_eq!(registered, id, "registry and control plane use one id space");
        Ok(id)
    }

    /// Borrow the single (unsharded) engine behind logical id `id`; `None`
    /// if the id is unknown or names a mutable engine.
    pub fn single(&self, id: usize) -> Option<&JitSpmm<'a, T>> {
        let engines = lock(&self.engines);
        match engines.get(id)? {
            EngineEntry::Single(engine) => {
                let ptr = Arc::as_ptr(engine);
                // SAFETY: the registry is append-only — entries are never
                // removed or replaced while the server lives — and the Arc
                // in the vector keeps the engine alive until the server
                // drops, which the returned borrow (tied to `&self`) cannot
                // outlive. Vector growth moves only the Arc handle, never
                // the pointee.
                Some(unsafe { &*ptr })
            }
            _ => None,
        }
    }

    /// Borrow the updatable engine ([`MutableSpmm`]) behind logical id
    /// `id`; `None` if the id is unknown or names a non-updatable engine.
    pub fn mutable(&self, id: usize) -> Option<&MutableSpmm<T>> {
        let engines = lock(&self.engines);
        match engines.get(id)? {
            EngineEntry::Mutable(mutable) => {
                let ptr = Arc::as_ptr(mutable);
                // SAFETY: as in [`SpmmServer::single`] — append-only
                // registry, Arc-pinned pointee, borrow tied to `&self`.
                Some(unsafe { &*ptr })
            }
            _ => None,
        }
    }

    /// Total number of logical engine ids (single or mutable).
    pub fn engine_count(&self) -> usize {
        lock(&self.engines).len()
    }

    /// The shared worker pool every engine executes on.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Run `f` against the registry entry for `id`, if any. Private — `f`
    /// runs under the registry lock and must not call back into it.
    fn with_entry<R>(&self, id: usize, f: impl FnOnce(&EngineEntry<'a, T>) -> R) -> Option<R> {
        let engines = lock(&self.engines);
        engines.get(id).map(f)
    }

    /// Shape-check `input` against logical engine `id`.
    pub(crate) fn check_request(
        &self,
        id: usize,
        input: &DenseMatrix<T>,
    ) -> Result<(), JitSpmmError> {
        match self.with_entry(id, |entry| match entry {
            EngineEntry::Single(engine) => {
                check_input_shape(input, engine.matrix().ncols(), engine.d())
            }
            EngineEntry::Mutable(mutable) => check_input_shape(input, mutable.ncols(), mutable.d()),
        }) {
            Some(result) => result,
            None => {
                Err(JitSpmmError::UnknownEngine { requested: id, engines: self.engine_count() })
            }
        }
    }

    /// Open a [`ServerSession`] inside `scope`: one pipeline per registered
    /// single engine (at [`crate::DEFAULT_BATCH_DEPTH`]), ready to route
    /// requests. A mutable engine's lane, and the lane of any engine
    /// registered after the session opens, gets its pipeline lazily, on
    /// first submission to its id — so an idle session pins no generation.
    fn session<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
    ) -> ServerSession<'scope, 'env, 'a, T> {
        let mut session = ServerSession {
            server: self,
            scope,
            lanes: Vec::new(),
            ready: VecDeque::new(),
            counters: ServeCounters::default(),
            next_request: 0,
            started: None,
        };
        session.sync_topology();
        for id in 0..session.lanes.len() {
            if self.mutable(id).is_none() {
                session.open_stream(id);
            }
        }
        session
    }

    /// The serving loop — the one way a request is served: `producer` runs
    /// on a fresh thread feeding a queue that admits under
    /// `options.admission` (block or shed, with typed
    /// [`crate::serve::SendError`]s), requests launch in **arrival order**,
    /// and every outcome — completed, rejected, failed — reaches `consumer`
    /// as a typed [`ServerResponse`] the moment it exists. Responses of one
    /// engine arrive in that engine's submission order; across engines the
    /// order follows completion ([`ServerResponse::request`] re-sequences
    /// globally).
    /// Worker panics are contained to the request that hit them; unrelated
    /// engines keep serving and the server stays usable afterwards.
    ///
    /// The loop is driven by events, not by a clock: it parks on the pool's
    /// completion bell and runs when a request arrives or a launch finishes
    /// — each of which rings that bell. Every lap joins whichever lanes'
    /// oldest launches have finished, so one engine's slow request never
    /// holds back another engine's response. Matrix updates are not the
    /// loop's business: a [`MutableSpmm::apply`] on another thread publishes
    /// the new generation, and the engine's lane picks it up when it routes
    /// the next request.
    ///
    /// Returns the aggregated [`ServerReport`] — `requests` counts
    /// completions only; `rejected` / `failed` account for everything else,
    /// including sends the queue refused — and the producer's return value.
    ///
    /// ```
    /// use jitspmm::serve::{AdmissionPolicy, ServeOptions, ServerRequest, SpmmServer};
    /// use jitspmm::{JitSpmmBuilder, WorkerPool};
    /// use jitspmm_sparse::{generate, DenseMatrix};
    ///
    /// # fn main() -> Result<(), jitspmm::JitSpmmError> {
    /// let pool = WorkerPool::new(2);
    /// let a = generate::uniform::<f32>(64, 64, 400, 1);
    /// let server =
    ///     SpmmServer::new(vec![JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, 4)?])?;
    /// let options = ServeOptions::new(AdmissionPolicy::shedding(8));
    /// let (report, sent) = server.serve_controlled(
    ///     options,
    ///     |sender| {
    ///         let mut sent = 0;
    ///         for i in 0..4u64 {
    ///             let request = ServerRequest::new(0, DenseMatrix::random(64, 4, i));
    ///             if sender.send_request(request).is_ok() {
    ///                 sent += 1;
    ///             }
    ///         }
    ///         sent
    ///     },
    ///     |response| assert!(response.is_completed()),
    /// )?;
    /// assert_eq!(report.requests, sent);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// None today: malformed *requests* do not error the loop — they come
    /// back as [`ServerResponse::Rejected`] / [`ServerResponse::Failed`].
    ///
    /// # Panics
    ///
    /// Re-raises a producer or consumer panic; the queue is closed on every
    /// exit from this call, so a producer blocked in `send` can never
    /// deadlock against a loop that has stopped consuming, and in-flight
    /// launches are joined first.
    pub fn serve_controlled<P, R, C>(
        &self,
        options: ServeOptions,
        producer: P,
        mut consumer: C,
    ) -> Result<(ServerReport, R), JitSpmmError>
    where
        P: FnOnce(RequestSender<T>) -> R + Send,
        R: Send,
        C: FnMut(ServerResponse<T>),
    {
        std::thread::scope(|threads| {
            // The queue lives in this frame, so *every* exit from it — normal
            // return, a session error, or a panic unwinding through it —
            // drops (closes) the queue before `thread::scope` joins the
            // producer, which may be blocked in `send` on a full queue.
            let (sender, queue) =
                RequestQueue::controlled(options.admission, Arc::clone(&self.control));
            let producer_thread = threads.spawn(move || producer(sender));
            let report = self.pool.scope(|scope| {
                let mut session = self.session(scope);
                let bell = self.control.bell();
                loop {
                    // Epoch first, predicates second: whatever changes after
                    // this read also moves the epoch, and the wait below
                    // returns at once.
                    let epoch = bell.epoch();
                    session.complete_finished();
                    while let Some(response) = session.ready.pop_front() {
                        consumer(response);
                    }
                    match queue.try_recv() {
                        // Launch the backlog in arrival order, one request
                        // per lap so finished launches interleave with it
                        // (and a launch that ran inline, ringing nothing, is
                        // joined on the next lap).
                        Ok(request) => {
                            session.submit(request);
                            continue;
                        }
                        Err(TryRecvError::Disconnected) if session.in_flight() == 0 => break,
                        Err(_) => {}
                    }
                    bell.wait(epoch);
                }
                let (rest, mut report) = session.finish();
                for response in rest {
                    consumer(response);
                }
                // Sends the queue refused (shed, unknown id) never reached
                // the session; fold them into the report so offered load
                // adds up.
                report.rejected += self.control.take_rejected_sends();
                report
            });
            queue.close();
            let produced = match producer_thread.join() {
                Ok(value) => value,
                Err(payload) => resume_unwind(payload),
            };
            Ok((report, produced))
        })
    }
}

/// Options for [`SpmmServer::serve_controlled`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// How the request queue admits (depth, block vs shed).
    pub admission: AdmissionPolicy,
}

impl ServeOptions {
    /// Serve under the given admission policy.
    pub fn new(admission: AdmissionPolicy) -> ServeOptions {
        ServeOptions { admission }
    }
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions::new(AdmissionPolicy::blocking(16))
    }
}

/// The outcome of one serving request: completed with an output, rejected
/// by the router with a typed [`RejectReason`], or failed after
/// launch (a contained worker panic, or a shape mismatch on the controlled
/// path). Every request submitted to a controlled serve produces exactly
/// one of these.
#[derive(Debug)]
pub enum ServerResponse<T: Scalar> {
    /// The request executed; `output` is `Y = A_engine * X`.
    Completed {
        /// The engine that executed the request.
        engine: usize,
        /// Per-engine completion index (the `index`-th response of this
        /// engine); responses of one engine always arrive in this order.
        index: usize,
        /// Global submission sequence number across the whole session.
        request: usize,
        /// The computed output, borrowed from the engine's buffer pool
        /// (dropping it recycles the buffer).
        output: PooledMatrix<T>,
        /// Per-launch timing, as the batch layer reports it.
        report: ExecutionReport,
    },
    /// The router refused the request after admission (engine unknown);
    /// nothing was launched.
    Rejected {
        /// The engine the request named.
        engine: usize,
        /// Global submission sequence number.
        request: usize,
        /// Why it was refused.
        reason: RejectReason,
    },
    /// The request was launched (or about to launch) and failed — a worker
    /// panic contained to this request, or a shape mismatch caught at
    /// routing time.
    Failed {
        /// The engine the request named.
        engine: usize,
        /// Global submission sequence number.
        request: usize,
        /// The panic message or validation error.
        message: String,
    },
}

impl<T: Scalar> ServerResponse<T> {
    /// The engine id the request named.
    pub fn engine(&self) -> usize {
        match self {
            ServerResponse::Completed { engine, .. }
            | ServerResponse::Rejected { engine, .. }
            | ServerResponse::Failed { engine, .. } => *engine,
        }
    }

    /// Global submission sequence number across the session.
    pub fn request(&self) -> usize {
        match self {
            ServerResponse::Completed { request, .. }
            | ServerResponse::Rejected { request, .. }
            | ServerResponse::Failed { request, .. } => *request,
        }
    }

    /// Whether the request completed with an output.
    pub fn is_completed(&self) -> bool {
        matches!(self, ServerResponse::Completed { .. })
    }

    /// Per-engine completion index.
    ///
    /// # Panics
    ///
    /// If the response is not [`ServerResponse::Completed`].
    pub fn index(&self) -> usize {
        match self {
            ServerResponse::Completed { index, .. } => *index,
            other => panic!("response for request {} has no index: not completed", other.request()),
        }
    }

    /// Borrow the computed output.
    ///
    /// # Panics
    ///
    /// If the response is not [`ServerResponse::Completed`].
    pub fn output(&self) -> &PooledMatrix<T> {
        match self {
            ServerResponse::Completed { output, .. } => output,
            other => {
                panic!("response for request {} has no output: not completed", other.request())
            }
        }
    }

    /// Take the computed output, if the request completed.
    pub fn into_output(self) -> Option<PooledMatrix<T>> {
        match self {
            ServerResponse::Completed { output, .. } => Some(output),
            _ => None,
        }
    }

    /// Per-launch timing, if the request completed.
    pub fn report(&self) -> Option<&ExecutionReport> {
        match self {
            ServerResponse::Completed { report, .. } => Some(report),
            _ => None,
        }
    }

    /// The rejection reason, if the router refused the request.
    pub fn rejection(&self) -> Option<RejectReason> {
        match self {
            ServerResponse::Rejected { reason, .. } => Some(*reason),
            _ => None,
        }
    }

    /// The failure message, if the request failed after admission.
    pub fn failure(&self) -> Option<&str> {
        match self {
            ServerResponse::Failed { message, .. } => Some(message),
            _ => None,
        }
    }
}

/// Per-session outcome counters, aggregated into the [`ServerReport`].
#[derive(Debug, Default, Clone, Copy)]
struct ServeCounters {
    completed: usize,
    rejected: usize,
    failed: usize,
}

/// One logical engine's lane inside a session: its pipeline (opened lazily
/// for mutable engines and engines registered after the session started,
/// `None` between a recycle and the next request) and the sequence numbers
/// of its in-flight requests. Every completion leaves with its own
/// [`ExecutionReport`]; the lane keeps no statistics.
struct Lane<'scope, 'env, T: Scalar> {
    stream: Option<BatchStream<'scope, 'env, T>>,
    /// For an open mutable lane: the engine and the revision its stream
    /// pinned. `None` for single engines and closed lanes.
    pinned: Option<(&'env MutableSpmm<T>, u64)>,
    /// Global sequence numbers of this lane's in-flight requests, oldest
    /// first (per-engine completion is oldest-first, so the front is always
    /// the next to finish).
    pending: VecDeque<usize>,
    /// Completed responses handed out so far (the per-engine index).
    completed: usize,
}

impl<'scope, 'env, T: Scalar> Lane<'scope, 'env, T> {
    fn new() -> Lane<'scope, 'env, T> {
        Lane { stream: None, pinned: None, pending: VecDeque::new(), completed: 0 }
    }
}

/// An open serving session, created by `SpmmServer::session`: one lane
/// per logical engine — a [`BatchStream`] over the engine's one kernel or
/// its K shard kernels — plus the request bookkeeping that tags every
/// response with its engine id and sequence numbers, and the fault
/// containment the serving loop relies on.
///
/// Dropping the session joins all in-flight launches and discards their
/// results.
pub(crate) struct ServerSession<'scope, 'env, 'a, T: Scalar> {
    /// `'a` is the server's own data lifetime (the matrices its engines
    /// borrow), `'env` the session's borrow of it — kept apart because the
    /// registry mutex makes [`SpmmServer`] invariant in `'a`.
    server: &'env SpmmServer<'a, T>,
    /// Kept so lanes can open lazily (engines registered mid-session).
    scope: &'scope PoolScope<'scope, 'env>,
    lanes: Vec<Lane<'scope, 'env, T>>,
    /// Responses produced but not yet handed out (the serving loop drains
    /// this).
    ready: VecDeque<ServerResponse<T>>,
    counters: ServeCounters,
    /// Next global submission sequence number.
    next_request: usize,
    /// First-submission timestamp, for the whole-server wall clock.
    started: Option<Instant>,
}

/// Extract a printable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panic".to_string()
    }
}

/// Pop the lane's oldest pending sequence number and queue a completed
/// response. Free function so callers can hold disjoint field borrows.
fn emit_completed<T: Scalar>(
    lane: &mut Lane<'_, '_, T>,
    engine: usize,
    ready: &mut VecDeque<ServerResponse<T>>,
    counters: &mut ServeCounters,
    output: PooledMatrix<T>,
    report: ExecutionReport,
) {
    let request = lane.pending.pop_front().expect("completed launches were submitted");
    let index = lane.completed;
    lane.completed += 1;
    counters.completed += 1;
    ready.push_back(ServerResponse::Completed { engine, index, request, output, report });
}

impl<T: Scalar> ServerSession<'_, '_, '_, T> {
    /// Grow the lane vector to cover engines registered since the last
    /// look; new lanes open their pipeline lazily, on first submission.
    fn sync_topology(&mut self) {
        let count = self.server.engine_count();
        while self.lanes.len() < count {
            self.lanes.push(Lane::new());
        }
    }

    /// Open lane `id`'s pipeline if it has none right now. Every lane
    /// belongs to a registered engine (`sync_topology`), and engines are
    /// never removed.
    fn open_stream(&mut self, id: usize) {
        if self.lanes[id].stream.is_some() {
            return;
        }
        let lane = &mut self.lanes[id];
        match self.server.single(id) {
            Some(engine) => lane.stream = Some(engine.batch_stream(self.scope, 0)),
            None => {
                let mutable = self.server.mutable(id).expect("lanes cover registered engines");
                // Read before pinning: an apply landing in between leaves
                // the recorded revision older than the pinned one, which
                // only costs one needless reopen.
                let revision = mutable.revision();
                lane.stream = Some(mutable.batch_stream(self.scope, 0));
                lane.pinned = Some((mutable, revision));
            }
        }
    }

    /// Join lane `id`'s oldest in-flight request, queueing its response — or
    /// a typed [`ServerResponse::Failed`] if a worker panicked, for exactly
    /// the request that hit it: the stream joins every launch of a request
    /// before it unwinds, so the lane (sharded or not) keeps serving the
    /// requests pipelined behind the panic. Blocks until that request has
    /// finished; a no-op on a lane with nothing in flight.
    fn complete_one(&mut self, id: usize) {
        let ServerSession { lanes, ready, counters, .. } = &mut *self;
        let lane = &mut lanes[id];
        let Some(stream) = lane.stream.as_mut() else {
            return;
        };
        match catch_unwind(AssertUnwindSafe(|| stream.complete_next())) {
            Ok(Some((output, report))) => {
                emit_completed(lane, id, ready, counters, output, report);
            }
            Ok(None) => {}
            Err(payload) => {
                let request = lane.pending.pop_front().expect("failed launches were submitted");
                counters.failed += 1;
                let message = panic_message(payload.as_ref());
                ready.push_back(ServerResponse::Failed { engine: id, request, message });
            }
        }
    }

    /// Join, without blocking, every launch that has already finished: each
    /// lane's oldest in-flight request while it is done (per-engine order is
    /// oldest-first, so a finished launch behind an unfinished one waits
    /// for it — on its own lane only).
    fn complete_finished(&mut self) {
        for id in 0..self.lanes.len() {
            while self.lanes[id].stream.as_ref().is_some_and(|s| s.oldest_done()) {
                self.complete_one(id);
            }
        }
    }

    /// Release lane `id`'s pipeline — joining its in-flight launches
    /// (fault-aware, one at a time) and queueing the remaining responses —
    /// **without** closing the lane: its per-engine response index spans the
    /// gap, and the next submission lazily reopens a pipeline.
    /// This is what lets go of a mutable engine's superseded generation
    /// mid-session. Idempotent; an engine registered since the last
    /// [`ServerSession::sync_topology`] has no lane yet and nothing to join.
    fn recycle_lane(&mut self, id: usize) {
        if id >= self.lanes.len() {
            return;
        }
        while self.lanes[id].stream.as_ref().is_some_and(|s| s.in_flight() > 0) {
            self.complete_one(id);
        }
        let ServerSession { lanes, ready, counters, .. } = &mut *self;
        let lane = &mut lanes[id];
        lane.pinned = None;
        if let Some(stream) = lane.stream.take() {
            // Nothing is in flight (drained above), so finishing cannot
            // re-raise a worker panic.
            for (output, exec) in stream.finish() {
                emit_completed(lane, id, ready, counters, output, exec);
            }
        }
    }

    /// Total launches currently in flight across all lanes.
    fn in_flight(&self) -> usize {
        self.lanes.iter().filter_map(|l| l.stream.as_ref()).map(|s| s.in_flight()).sum()
    }

    /// Route one request: every outcome — launch, typed rejection,
    /// contained failure — is queued as a ready response; the caller
    /// drains them. Checks, in order:
    /// engine id, input shape, the revision a mutable lane pinned, and room
    /// in the pipeline (joining older launches as needed).
    fn submit(&mut self, request: ServerRequest<T>) {
        self.started.get_or_insert_with(Instant::now);
        self.sync_topology();
        let engine = request.engine;
        let seq = self.next_request;
        self.next_request += 1;
        if engine >= self.lanes.len() {
            self.counters.rejected += 1;
            self.ready.push_back(ServerResponse::Rejected {
                engine,
                request: seq,
                reason: RejectReason::UnknownEngine,
            });
            return;
        }
        if let Err(error) = self.server.check_request(engine, &request.input) {
            self.counters.failed += 1;
            self.ready.push_back(ServerResponse::Failed {
                engine,
                request: seq,
                message: error.to_string(),
            });
            return;
        }
        // A mutable engine that has published a newer generation since its
        // lane pinned one: drain the lane on the old matrix and reopen, so
        // a request routed after `apply` returned runs on the new one.
        if let Some((mutable, revision)) = self.lanes[engine].pinned {
            if mutable.revision() != revision {
                self.recycle_lane(engine);
            }
        }
        self.open_stream(engine);
        // Make room first, one fault-contained join at a time: a panic
        // belongs to the oldest request, never to the one being pushed.
        while self.lanes[engine].stream.as_ref().is_some_and(|s| s.in_flight() == s.depth()) {
            self.complete_one(engine);
        }
        let lane = &mut self.lanes[engine];
        lane.pending.push_back(seq);
        let stream = lane.stream.as_mut().expect("lane opened above");
        // Below depth, a push only submits: a kernel panic — even one that
        // ran inline on a zero-worker pool — is deferred to the join.
        let done = stream.push_owned_validated(request.input);
        debug_assert!(done.is_none(), "the pipeline was drained below depth");
    }

    /// Drain every lane (in engine-id order, oldest launch first within
    /// each) and total the [`ServerReport`] counters. The returned
    /// responses are the ones not already handed out, in the order they
    /// became ready.
    fn finish(mut self) -> (Vec<ServerResponse<T>>, ServerReport) {
        self.sync_topology();
        for id in 0..self.lanes.len() {
            self.recycle_lane(id);
        }
        let elapsed = self.started.map(|t| t.elapsed()).unwrap_or_default();
        let responses: Vec<ServerResponse<T>> = self.ready.drain(..).collect();
        let report = ServerReport {
            requests: self.counters.completed,
            elapsed,
            rejected: self.counters.rejected,
            failed: self.counters.failed,
        };
        (responses, report)
    }
}
