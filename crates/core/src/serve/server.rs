//! The [`SpmmServer`]: N compiled engines behind logical ids on one pool,
//! and [`SpmmServer::handle`], the one path every request takes.

use crate::engine::{ExecutionReport, JitSpmm};
use crate::error::JitSpmmError;
use crate::runtime::pool::lock;
use crate::runtime::{PooledMatrix, WorkerPool};
use crate::serve::control::{AdmissionPolicy, RejectReason, SendError};
use crate::serve::report::ServerReport;
use crate::update::MutableSpmm;
use jitspmm_sparse::{DenseMatrix, Scalar};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The engine behind one logical id, in an `Arc` so that the accessors hand
/// out clones that outlive the registry lock.
enum Engine<'a, T: Scalar> {
    Single(Arc<JitSpmm<'a, T>>),
    Mutable(Arc<MutableSpmm<T>>),
}

/// One registered id: its engine and the requests running on it now.
struct Entry<'a, T: Scalar> {
    engine: Engine<'a, T>,
    /// Requests holding one of this engine's in-flight [`Slot`]s.
    in_flight: AtomicUsize,
}

/// A registry of compiled engines — different matrices, column counts,
/// strategies, single or sharded — that share one [`WorkerPool`], each
/// behind a logical id, and [`SpmmServer::handle`], which serves one request
/// **on the calling thread** (see the [`crate::serve`] module docs). Engines
/// can be registered while requests run, and a mutable engine's matrix
/// changes with a plain [`MutableSpmm::apply`] through
/// [`SpmmServer::mutable`].
///
/// ```
/// use jitspmm::serve::{AdmissionPolicy, RejectReason, ServerRequest, ServerResponse, SpmmServer};
/// use jitspmm::{JitSpmmBuilder, WorkerPool};
/// use jitspmm_sparse::{generate, DenseMatrix};
///
/// # fn main() -> Result<(), jitspmm::JitSpmmError> {
/// let pool = WorkerPool::new(2);
/// let a = generate::uniform::<f32>(96, 96, 800, 1);
/// let server = SpmmServer::new(vec![JitSpmmBuilder::new().pool(pool).build(&a, 8)?])?;
/// let admission = AdmissionPolicy::shedding(4);
/// let x = DenseMatrix::<f32>::random(96, 8, 10);
/// let response = server.handle(admission, ServerRequest::new(0, x.clone()));
/// assert!(response.output().approx_eq(&a.spmm_reference(&x), 1e-4));
/// // An id no engine has is refused with a typed reason.
/// let response = server.handle(admission, ServerRequest::new(1, x));
/// assert!(matches!(response, ServerResponse::Rejected { reason: RejectReason::UnknownEngine, .. }));
/// # Ok(())
/// # }
/// ```
pub struct SpmmServer<'a, T: Scalar> {
    /// Logical-id-indexed registry, **append-only**: an id, once handed
    /// out, names the same engine for the server's life. The lock is held
    /// only to look an entry up or to append one.
    engines: Mutex<Vec<Arc<Entry<'a, T>>>>,
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
    /// disjoint-lane overlap only holds within one pool (build every engine
    /// with [`crate::JitSpmmBuilder::pool`] on clones of one pool).
    pub fn new(engines: Vec<JitSpmm<'a, T>>) -> Result<SpmmServer<'a, T>, JitSpmmError> {
        let empty = || JitSpmmError::InvalidConfig("an SpmmServer needs an engine".to_string());
        let server = SpmmServer::with_pool(engines.first().ok_or_else(empty)?.pool().clone());
        for engine in engines {
            server.add_engine(engine)?;
        }
        Ok(server)
    }

    /// Build a server with **no** engines yet, over `pool`: register them
    /// afterwards with [`SpmmServer::add_engine`] /
    /// [`SpmmServer::add_mutable`], before or while requests run. Until an
    /// engine is registered every request is rejected with the typed
    /// [`RejectReason::UnknownEngine`].
    pub fn with_pool(pool: WorkerPool) -> SpmmServer<'a, T> {
        SpmmServer { engines: Mutex::new(Vec::new()), pool }
    }

    /// Register another single engine, returning its new logical id. A
    /// request naming the id is served as soon as this returns, also in a
    /// [`SpmmServer::serve_controlled`] that is already running.
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::InvalidConfig`] if the engine does not execute on
    /// this server's pool.
    pub fn add_engine(&self, engine: JitSpmm<'a, T>) -> Result<usize, JitSpmmError> {
        self.register(engine.pool().clone(), Engine::Single(Arc::new(engine)))
    }

    /// Register an **updatable** engine ([`MutableSpmm`]) behind one
    /// logical engine id, which this returns — the one way a sharded engine
    /// gets behind the server. A request to it launches all shard kernels
    /// into one full-height output and reports its critical path across the
    /// shards. Any thread may change its matrix with [`MutableSpmm::apply`]
    /// on [`SpmmServer::mutable`]`(id)`: a request already running finishes
    /// on the old matrix, one sent after `apply` returns sees the merged one
    /// (see [`crate::update`]). Works while requests run.
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::InvalidConfig`] if the engine does not execute on
    /// this server's pool.
    pub fn add_mutable(&self, mutable: MutableSpmm<T>) -> Result<usize, JitSpmmError> {
        self.register(mutable.pool().clone(), Engine::Mutable(Arc::new(mutable)))
    }

    /// Append `engine` (executing on `pool`) to the registry, returning its
    /// logical id.
    fn register(&self, pool: WorkerPool, engine: Engine<'a, T>) -> Result<usize, JitSpmmError> {
        if !pool.same_pool(&self.pool) {
            return Err(JitSpmmError::InvalidConfig(
                "the engine executes on a different worker pool; all of a server's engines \
                 must share one pool"
                    .to_string(),
            ));
        }
        let mut engines = lock(&self.engines);
        engines.push(Arc::new(Entry { engine, in_flight: AtomicUsize::new(0) }));
        Ok(engines.len() - 1)
    }

    /// The single (unsharded) engine behind logical id `id`; `None` if the
    /// id is unknown or names a mutable engine.
    pub fn single(&self, id: usize) -> Option<Arc<JitSpmm<'a, T>>> {
        match &lock(&self.engines).get(id)?.engine {
            Engine::Single(engine) => Some(Arc::clone(engine)),
            Engine::Mutable(_) => None,
        }
    }

    /// The updatable engine ([`MutableSpmm`]) behind logical id `id`;
    /// `None` if the id is unknown or names a single engine.
    pub fn mutable(&self, id: usize) -> Option<Arc<MutableSpmm<T>>> {
        match &lock(&self.engines).get(id)?.engine {
            Engine::Mutable(mutable) => Some(Arc::clone(mutable)),
            Engine::Single(_) => None,
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

    /// Serve one request on the calling thread — the one path every request
    /// takes, from [`RequestSender::send_request`] and from each connection
    /// thread of `jitspmm-serve`:
    ///
    /// 1. look the engine up (one short registry lock, one `Arc` clone); an
    ///    unknown id is [`RejectReason::UnknownEngine`];
    /// 2. take one of the engine's in-flight slots: at most
    ///    [`AdmissionPolicy::shedding`]`(n)` requests run on one engine, and
    ///    one more is shed at once as [`RejectReason::QueueFull`];
    /// 3. run the engine's `execute` (a mutable engine's in a scope of this
    ///    server's pool) under `catch_unwind`: a wrong input shape or a
    ///    worker panic is a [`ServerResponse::Failed`] for this request
    ///    alone, and the slot comes back on unwind too.
    ///
    /// The slots are per engine and the bound per call: pass the same
    /// `admission` from every caller of one server.
    pub fn handle(
        &self,
        admission: AdmissionPolicy,
        request: ServerRequest<T>,
    ) -> ServerResponse<T> {
        let ServerRequest { engine: id, input } = request;
        let Some(entry) = lock(&self.engines).get(id).cloned() else {
            return ServerResponse::Rejected { engine: id, reason: RejectReason::UnknownEngine };
        };
        let Some(_slot) = Slot::take(&entry.in_flight, admission.max_in_flight) else {
            return ServerResponse::Rejected { engine: id, reason: RejectReason::QueueFull };
        };
        let run = catch_unwind(AssertUnwindSafe(|| match &entry.engine {
            Engine::Single(single) => single.execute(&input),
            Engine::Mutable(mutable) => self.pool.scope(|s| mutable.execute(s, &input)),
        }));
        match run {
            Ok(Ok((output, report))) => ServerResponse::Completed { engine: id, output, report },
            Ok(Err(error)) => ServerResponse::Failed { engine: id, message: error.to_string() },
            Err(panic) => ServerResponse::Failed { engine: id, message: panic_message(&*panic) },
        }
    }

    /// Serve a producer's requests: `producer` runs on the calling thread
    /// with a [`RequestSender`], whose [`RequestSender::send_request`] runs
    /// a request through [`SpmmServer::handle`] on the sending thread under
    /// `options.admission` and hands the response to `consumer` before it
    /// returns. Share the sender with scoped threads to send concurrently;
    /// `consumer` runs behind a mutex, on whichever thread sent the request.
    /// Returns the [`ServerReport`] (its [`ServerReport::offered`] adds up
    /// to the sends) and the producer's return value.
    ///
    /// ```
    /// use jitspmm::serve::{AdmissionPolicy, ServeOptions, ServerRequest, SpmmServer};
    /// use jitspmm::{JitSpmmBuilder, WorkerPool};
    /// use jitspmm_sparse::{generate, DenseMatrix};
    ///
    /// # fn main() -> Result<(), jitspmm::JitSpmmError> {
    /// let pool = WorkerPool::new(2);
    /// let a = generate::uniform::<f32>(64, 64, 400, 1);
    /// let server = SpmmServer::new(vec![JitSpmmBuilder::new().pool(pool).build(&a, 4)?])?;
    /// // Two senders, at most two requests in flight on the engine.
    /// let (report, ()) = server.serve_controlled(
    ///     ServeOptions::new(AdmissionPolicy::shedding(2)),
    ///     |sender| {
    ///         let send = |seed| {
    ///             let x = DenseMatrix::random(64, 4, seed);
    ///             sender.send_request(ServerRequest::new(0, x)).expect("admitted")
    ///         };
    ///         std::thread::scope(|senders| {
    ///             senders.spawn(|| (0..4).for_each(send));
    ///             (4..8).for_each(send);
    ///         });
    ///     },
    ///     |response| assert!(response.is_completed()),
    /// )?;
    /// assert_eq!(report.requests, 8);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// None today: malformed requests come back as [`SendError`]s and
    /// [`ServerResponse::Failed`] responses.
    ///
    /// # Panics
    ///
    /// A producer or consumer panic unwinds out of this call; the server
    /// stays usable.
    pub fn serve_controlled<P, R, C>(
        &self,
        options: ServeOptions,
        producer: P,
        mut consumer: C,
    ) -> Result<(ServerReport, R), JitSpmmError>
    where
        P: FnOnce(RequestSender<'_, 'a, T>) -> R,
        C: FnMut(ServerResponse<T>) + Send,
    {
        let started = Instant::now();
        let outlet = Mutex::new(Outlet {
            consumer: &mut consumer,
            report: ServerReport { requests: 0, elapsed: Duration::ZERO, rejected: 0, failed: 0 },
        });
        let produced =
            producer(RequestSender { server: self, admission: options.admission, outlet: &outlet });
        let mut report = lock(&outlet).report.clone();
        report.elapsed = started.elapsed();
        Ok((report, produced))
    }
}

/// A request's hold on one of its engine's in-flight slots, given back when
/// it drops — on unwind too.
pub(super) struct Slot<'e>(&'e AtomicUsize);

impl<'e> Slot<'e> {
    /// Count one more request on `in_flight` unless `cap` run there already.
    pub(super) fn take(in_flight: &'e AtomicUsize, cap: usize) -> Option<Slot<'e>> {
        let more = |now: usize| (now < cap).then_some(now + 1);
        in_flight.fetch_update(Ordering::AcqRel, Ordering::Acquire, more).ok()?;
        Some(Slot(in_flight))
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The printable message of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    text.or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("the launch panicked")
        .to_string()
}

/// Options for [`SpmmServer::serve_controlled`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// How many requests may run on one engine at once.
    pub admission: AdmissionPolicy,
}

impl ServeOptions {
    /// Serve under the given admission policy.
    pub fn new(admission: AdmissionPolicy) -> ServeOptions {
        ServeOptions { admission }
    }
}

/// One serving request: a dense input tagged with the id of the engine that
/// should execute it.
///
/// ```
/// use jitspmm::serve::ServerRequest;
/// use jitspmm_sparse::DenseMatrix;
///
/// let request = ServerRequest::new(0, DenseMatrix::<f32>::random(64, 8, 7));
/// assert_eq!(request.engine, 0);
/// assert_eq!(request.input.ncols(), 8);
/// ```
#[derive(Debug)]
pub struct ServerRequest<T: Scalar> {
    /// Which of the server's engines this request targets.
    pub engine: usize,
    /// The dense right-hand side.
    pub input: DenseMatrix<T>,
}

impl<T: Scalar> ServerRequest<T> {
    /// A request for `engine`.
    pub fn new(engine: usize, input: DenseMatrix<T>) -> ServerRequest<T> {
        ServerRequest { engine, input }
    }
}

/// What [`SpmmServer::serve_controlled`] shares with its senders: the
/// consumer and the verdicts so far.
struct Outlet<'s, T: Scalar> {
    consumer: &'s mut (dyn FnMut(ServerResponse<T>) + Send),
    report: ServerReport,
}

/// The sending side of one [`SpmmServer::serve_controlled`], handed to its
/// producer. Share it by reference with scoped threads to send from
/// several at once.
pub struct RequestSender<'s, 'a, T: Scalar> {
    server: &'s SpmmServer<'a, T>,
    admission: AdmissionPolicy,
    outlet: &'s Mutex<Outlet<'s, T>>,
}

impl<T: Scalar> RequestSender<'_, '_, T> {
    /// Run `request` through [`SpmmServer::handle`] on this thread and hand
    /// its response — completed, or failed — to the serve's consumer before
    /// returning.
    ///
    /// # Errors
    ///
    /// [`SendError::Rejected`] when the handler refuses the request (shed
    /// at the engine's bound, or an unknown id); the consumer sees nothing
    /// of it and the report counts it as rejected.
    pub fn send_request(&self, request: ServerRequest<T>) -> Result<(), SendError> {
        let response = self.server.handle(self.admission, request);
        let mut outlet = lock(self.outlet);
        match response {
            ServerResponse::Rejected { reason, .. } => {
                outlet.report.rejected += 1;
                Err(SendError::Rejected(reason))
            }
            response => {
                if response.is_completed() {
                    outlet.report.requests += 1;
                } else {
                    outlet.report.failed += 1;
                }
                (outlet.consumer)(response);
                Ok(())
            }
        }
    }
}

/// The outcome of one request: completed with an output, refused with a
/// typed [`RejectReason`], or failed in its launch. [`SpmmServer::handle`]
/// returns exactly one per request.
#[derive(Debug)]
pub enum ServerResponse<T: Scalar> {
    /// The request executed; `output` is `Y = A_engine * X`.
    Completed {
        /// The engine that executed the request.
        engine: usize,
        /// The computed output, borrowed from the engine's buffer pool
        /// (dropping it recycles the buffer).
        output: PooledMatrix<T>,
        /// The launch's own timing.
        report: ExecutionReport,
    },
    /// The request was refused before anything launched.
    Rejected {
        /// The engine the request named.
        engine: usize,
        /// Why it was refused.
        reason: RejectReason,
    },
    /// The request failed: an input of the wrong shape, or a worker panic
    /// contained to this request.
    Failed {
        /// The engine the request named.
        engine: usize,
        /// The engine's error or the panic message.
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

    /// Whether the request completed with an output.
    pub fn is_completed(&self) -> bool {
        matches!(self, ServerResponse::Completed { .. })
    }

    /// Borrow the computed output.
    ///
    /// # Panics
    ///
    /// If the response is not [`ServerResponse::Completed`].
    pub fn output(&self) -> &PooledMatrix<T> {
        match self {
            ServerResponse::Completed { output, .. } => output,
            other => panic!("response from engine {} has no output: not completed", other.engine()),
        }
    }

    /// Take the computed output, if the request completed.
    pub fn into_output(self) -> Option<PooledMatrix<T>> {
        match self {
            ServerResponse::Completed { output, .. } => Some(output),
            _ => None,
        }
    }

    /// The launch's timing, if the request completed.
    pub fn report(&self) -> Option<&ExecutionReport> {
        match self {
            ServerResponse::Completed { report, .. } => Some(report),
            _ => None,
        }
    }

    /// The failure message, if the request failed.
    pub fn failure(&self) -> Option<&str> {
        match self {
            ServerResponse::Failed { message, .. } => Some(message),
            _ => None,
        }
    }
}
