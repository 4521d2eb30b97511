//! The persistent worker pool: threads are spawned once, park on a
//! `WakeSlot` (a futex word on Linux, a condvar elsewhere — see the
//! crate-private `runtime::wake`), and serve jobs from a FIFO queue with per-job lane
//! capping, a notify-one wake chain and scoped deferred submission.
//!
//! # Why not `std::thread::scope` per call?
//!
//! JITSPMM's premise is compile-once/run-many: code generation is amortized,
//! so steady-state `execute()` latency *is* the product. Spawning and joining
//! OS threads costs tens of microseconds — more than the SpMM kernel itself
//! on small and mid-sized matrices. The pool replaces that with parked,
//! already-running threads: submission publishes a job descriptor (an erased
//! `fn(task_index)` plus a task count) into a queue and wakes one worker;
//! each participating worker claims task indices from the job's atomic
//! counter (the same `lock xadd` discipline the paper's dynamic row-split
//! uses, applied one level up) and checks in when the indices run out.
//!
//! # Jobs pipeline instead of serializing
//!
//! Any number of jobs may be in flight at once. Each worker serves one job
//! at a time, so the machine is never oversubscribed, but a worker that
//! finishes its share of one job flows directly into the next queued job
//! without re-parking. [`JobSpec::max_lanes`] caps how many workers one job
//! may occupy, so two capped jobs run on disjoint worker subsets and
//! genuinely overlap rather than thrashing the whole pool.
//!
//! # Wake cost is bounded by the lanes a job uses
//!
//! Submission wakes exactly one worker (`WakeSlot::wake_one`). A worker
//! that claims a lane and observes that more lane slots (of its job or a
//! queued successor) are still unclaimed wakes one more — a notify-one
//! chain. A job that needs `k` lanes therefore causes O(k) wake-ups, where
//! the previous `notify_all` design briefly woke every parked worker in the
//! pool regardless of job size. The first participant to reach a deferred
//! job also records the enqueue→first-claim *wake latency* on the job
//! (`JobCore::wake_ns`), which the engine surfaces as
//! [`crate::ExecutionReport::wake`].
//!
//! # Blocking and deferred submission
//!
//! [`WorkerPool::run`] (and [`WorkerPool::run_spec`]) submit a job and block
//! until it completes, participating in the task claim loop alongside the
//! workers. Inside [`WorkerPool::scope`], [`PoolScope::submit`] instead
//! returns a [`ScopedJobHandle`] immediately; the job runs in the
//! background and [`ScopedJobHandle::wait`] joins it — with the waiting
//! thread stealing that job's remaining tasks, so a submitter that turns
//! around and waits loses nothing over the blocking path. The scope joins
//! every job submitted through it before returning.
//!
//! # Deferred submission never relies on a destructor
//!
//! `mem::forget` is safe, so memory safety may not depend on a handle's
//! `Drop` running (the pre-1.0 `thread::JoinGuard` lesson).
//! [`PoolScope::submit`] accepts borrowed tasks because the scope holds its
//! own share of every in-flight job's descriptor and joins all of its jobs
//! inside [`WorkerPool::scope`]'s own stack frame, which no handle-leaking
//! can skip, before any borrow handed to it can end.

use super::wake::WakeSlot;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

thread_local! {
    /// Whether the current thread is executing a pool task. A task that
    /// re-enters `WorkerPool::run` (directly, or through an engine or
    /// baseline) falls back to inline execution. The flag is deliberately
    /// per-thread rather than per-pool: same-pool re-entry would deadlock on
    /// the job bookkeeping, and a cross-pool submission chain can cycle back
    /// to the originating pool through another pool's workers — a cycle no
    /// per-pool bookkeeping can see from a single thread. Running any nested
    /// job inline trades its parallelism for guaranteed deadlock freedom.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// RAII guard marking the current thread as executing pool tasks.
struct TaskScope {
    previous: bool,
}

impl TaskScope {
    fn enter() -> TaskScope {
        TaskScope { previous: IN_POOL_TASK.replace(true) }
    }
}

impl Drop for TaskScope {
    fn drop(&mut self) {
        IN_POOL_TASK.set(self.previous);
    }
}

/// Lock a mutex, ignoring poisoning (a panicked task must not wedge the
/// pool for every other engine sharing it). Shared by the runtime and the
/// engine for every launch-path mutex.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The type every job is erased to: `call(data, task_index)`.
pub(crate) type ErasedTask = unsafe fn(*const (), usize);

/// Re-types the erased data pointer back to `&F`. Sound because the pointer
/// is only dereferenced while the job is live, and submission keeps `F`
/// alive that long: the blocking paths borrow it across the call, and
/// [`PoolScope::submit`] borrows it for at least the scope, which joins
/// every job before returning.
unsafe fn trampoline<F: Fn(usize)>(data: *const (), index: usize) {
    (*(data as *const F))(index);
}

/// Run all `tasks` indices inline on the current thread (the fallback when
/// there is nothing to defer to), collecting the first panic payload instead
/// of unwinding so callers can defer it to `wait` like the threaded path.
///
/// # Safety
///
/// `call(data, index)` must be sound for every `index in 0..tasks`.
unsafe fn run_inline(
    tasks: usize,
    data: *const (),
    call: ErasedTask,
) -> (Duration, Option<Box<dyn std::any::Any + Send>>) {
    let _scope = TaskScope::enter();
    let start = Instant::now();
    let mut panic = None;
    for index in 0..tasks {
        // SAFETY: forwarded from the caller's contract.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| unsafe { call(data, index) })) {
            panic.get_or_insert(payload);
        }
    }
    (start.elapsed(), panic)
}

/// Describes one job: how many task indices it has and how many worker
/// lanes it may occupy.
///
/// The task function is invoked exactly once for every index in `0..tasks`,
/// distributed over at most `max_lanes` pool workers (plus the submitting
/// thread, which steals tasks whenever it blocks in [`WorkerPool::run`] or
/// [`ScopedJobHandle::wait`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Number of task indices (`0..tasks`) to execute.
    pub tasks: usize,
    /// Maximum number of pool workers this job may occupy; `0` means
    /// uncapped (up to one worker per task). Capping lets concurrent jobs
    /// run on disjoint worker subsets instead of contending for the whole
    /// pool.
    pub max_lanes: usize,
}

impl JobSpec {
    /// A job with `tasks` indices and no lane cap.
    pub fn new(tasks: usize) -> JobSpec {
        JobSpec { tasks, max_lanes: 0 }
    }

    /// Cap the job to at most `max_lanes` pool workers (`0` = uncapped).
    pub fn max_lanes(mut self, max_lanes: usize) -> JobSpec {
        self.max_lanes = max_lanes;
        self
    }
}

/// Per-job state shared between the submitter and the workers.
///
/// Lives on the submitter's stack for the blocking [`WorkerPool::run`] path
/// (zero allocation) and in a reference-counted allocation for deferred
/// submission (shared by a [`ScopedJobHandle`] and its [`PoolScope`]). The
/// queue holds raw pointers to it; validity is guaranteed because the
/// scope's share is only released after the job is joined (all participants
/// checked in, descriptor unreachable from the queue) — leaking a handle
/// leaks its share instead of freeing it.
///
/// `next` and `busy_ns` are genuinely concurrent; the bookkeeping fields
/// (`lanes_left`, `active`, `queued`, `done`) are only mutated under the
/// pool's state mutex and are atomics merely so the shared reference stays
/// aliasable.
struct JobCore {
    /// Number of task indices in the job.
    tasks: usize,
    /// Erased pointer to the job closure.
    data: usize,
    /// The monomorphized trampoline that re-types `data` (an [`ErasedTask`]).
    call: usize,
    /// Task-index claim counter.
    next: AtomicUsize,
    /// Worker participation slots still unclaimed (the lane cap, pre-clamped
    /// to the task and worker counts).
    lanes_left: AtomicUsize,
    /// Participants (workers and waiters) that have claimed tasks and not
    /// yet checked in.
    active: AtomicUsize,
    /// Whether the job is still reachable from the queue.
    queued: AtomicBool,
    /// Set once the job is complete: unreachable from the queue and every
    /// participant has checked in. Written under the state mutex with
    /// `Release`; [`ScopedJobHandle::is_done`] reads it lock-free with
    /// `Acquire`.
    done: AtomicBool,
    /// Maximum per-participant busy time, in nanoseconds.
    busy_ns: AtomicU64,
    /// When the job was created (immediately before it was enqueued).
    enqueued: Instant,
    /// Enqueue→first-participant latency in nanoseconds — the wake/handoff
    /// cost of this launch. `u64::MAX` until the first participant records
    /// it ([`JobCore::wake`] maps that sentinel to zero, covering inline
    /// jobs which have no handoff at all).
    wake_ns: AtomicU64,
    /// Payload of the first task panic, re-raised by
    /// [`ScopedJobHandle::wait`] (or the blocking `run`) once the job has
    /// fully completed.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl JobCore {
    fn new(tasks: usize, worker_lanes: usize, data: usize, call: usize) -> JobCore {
        JobCore {
            tasks,
            data,
            call,
            next: AtomicUsize::new(0),
            lanes_left: AtomicUsize::new(worker_lanes),
            active: AtomicUsize::new(0),
            queued: AtomicBool::new(true),
            done: AtomicBool::new(false),
            busy_ns: AtomicU64::new(0),
            enqueued: Instant::now(),
            wake_ns: AtomicU64::new(u64::MAX),
            panic: Mutex::new(None),
        }
    }

    /// A descriptor for a job that already ran inline to completion: `done`
    /// from the start, never queued, with the busy time and any panic
    /// recorded. Scoped inline submission registers one of these so an
    /// unwaited panic still surfaces at scope exit, exactly like on the
    /// threaded path.
    fn completed_inline(
        tasks: usize,
        busy: Duration,
        panic: Option<Box<dyn std::any::Any + Send>>,
    ) -> JobCore {
        JobCore {
            tasks,
            data: 0,
            call: 0,
            next: AtomicUsize::new(tasks),
            lanes_left: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            queued: AtomicBool::new(false),
            done: AtomicBool::new(true),
            busy_ns: AtomicU64::new(busy.as_nanos() as u64),
            enqueued: Instant::now(),
            wake_ns: AtomicU64::new(u64::MAX),
            panic: Mutex::new(panic),
        }
    }

    /// Record a task panic (first payload wins).
    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed))
    }

    /// Enqueue→first-participant handoff latency; zero when the job ran
    /// inline (no handoff happened) or has not been claimed yet.
    fn wake(&self) -> Duration {
        match self.wake_ns.load(Ordering::Relaxed) {
            u64::MAX => Duration::ZERO,
            ns => Duration::from_nanos(ns),
        }
    }
}

/// A queue entry. Raw pointers are not `Send`, but the queue discipline
/// (jobs outlive their presence in the queue and their participants) makes
/// handing them between threads sound.
struct JobPtr(*const JobCore);

// SAFETY: see JobPtr — the pointee is kept alive until the job is done by
// the submitting stack frame or by the scope's reference-counted share (a
// leaked handle leaks its own share, never frees it), and `done` is only set
// once the pointer is unreachable from both the queue and every worker.
unsafe impl Send for JobPtr {}

struct QueueState {
    /// Tells workers to exit their loop (set once, on pool drop) after the
    /// queue has drained.
    shutdown: bool,
    /// Jobs waiting for (more) workers, front first. A job leaves the queue
    /// when its last lane slot is claimed or when it is observed exhausted.
    queue: VecDeque<JobPtr>,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Workers park here between jobs; bumped (under the state mutex) by
    /// every enqueue, wake-chain link and shutdown.
    work: WakeSlot,
    /// Waiters park here until their job's `done` flag is set; bumped (under
    /// the state mutex) whenever any job completes. The done-wait itself is
    /// lock-free: `done` is an atomic and [`WakeSlot::wait`] needs no mutex.
    done: WakeSlot,
}

impl Shared {
    /// Mark `job` done if it is complete: unreachable from the queue and no
    /// participant outstanding. Must be called with the state mutex held.
    fn finish_if_complete(&self, job: &JobCore) {
        if !job.queued.load(Ordering::Relaxed)
            && job.active.load(Ordering::Relaxed) == 0
            && !job.done.load(Ordering::Relaxed)
        {
            job.done.store(true, Ordering::Release);
            self.done.bump();
            self.done.wake_all();
        }
    }

    /// Retire exhausted jobs and claim one lane of the first job that still
    /// needs workers. Must be called with the state mutex held (`state`).
    /// Continues the notify-one wake chain if claimable lanes remain after
    /// this claim.
    fn claim_lane(&self, state: &mut QueueState) -> Option<JobPtr> {
        while let Some(front) = state.queue.front() {
            let ptr = JobPtr(front.0);
            // SAFETY: queued jobs are kept alive by their submitter.
            let job = unsafe { &*ptr.0 };
            if job.next.load(Ordering::Relaxed) >= job.tasks {
                // Every task index is already claimed; retire the job
                // instead of pointlessly joining it.
                state.queue.pop_front();
                job.queued.store(false, Ordering::Relaxed);
                self.finish_if_complete(job);
                continue;
            }
            let lanes = job.lanes_left.load(Ordering::Relaxed);
            debug_assert!(lanes > 0, "queued jobs always have unclaimed lanes");
            job.lanes_left.store(lanes - 1, Ordering::Relaxed);
            job.active.fetch_add(1, Ordering::Relaxed);
            if lanes == 1 {
                // Last lane slot: the job has all the workers it may use.
                state.queue.pop_front();
                job.queued.store(false, Ordering::Relaxed);
            }
            if !state.queue.is_empty() {
                // More lane slots are claimable (this job's remainder, or a
                // queued successor): wake one more worker. This chain bounds
                // wake-ups by the lanes actually used instead of the pool
                // size.
                self.work.bump();
                self.work.wake_one();
            }
            return Some(ptr);
        }
        None
    }

    /// Run `job`'s claim loop on the current thread and check in. The caller
    /// must have registered this participant (incremented `active`) under
    /// the state mutex.
    ///
    /// # Safety
    ///
    /// `job` must point to a live [`JobCore`] whose registration precedes
    /// this call; the pointee must stay alive until the check-in below
    /// (guaranteed by the active-participant accounting itself).
    unsafe fn participate(&self, job: *const JobCore) {
        // SAFETY: the caller's contract — `job` is live and this
        // participant is registered in `active`, so the job cannot be
        // marked done (and its storage released) before the check-in below.
        let core = unsafe { &*job };
        // First participant records the enqueue→claim handoff latency (for a
        // blocking `run_spec` the submitter itself often wins this race, so
        // the recorded wake is honestly ~zero there; deferred launches are
        // first reached by a woken worker and record the true handoff).
        let since_enqueue = core.enqueued.elapsed().as_nanos() as u64;
        let _ = core.wake_ns.compare_exchange(
            u64::MAX,
            since_enqueue.min(u64::MAX - 1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        // SAFETY: `call` was produced from an `ErasedTask` by the submitter.
        let call = unsafe { std::mem::transmute::<usize, ErasedTask>(core.call) };
        {
            let _scope = TaskScope::enter();
            let start = Instant::now();
            loop {
                let index = core.next.fetch_add(1, Ordering::Relaxed);
                if index >= core.tasks {
                    break;
                }
                // SAFETY: disjoint indices make concurrent calls safe; the
                // data pointer is alive as long as the job is (see JobPtr).
                let outcome = catch_unwind(AssertUnwindSafe(|| unsafe {
                    call(core.data as *const (), index)
                }));
                if let Err(payload) = outcome {
                    core.record_panic(payload);
                }
            }
            core.busy_ns.fetch_max(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let state = lock(&self.state);
        core.active.fetch_sub(1, Ordering::Relaxed);
        self.finish_if_complete(core);
        drop(state);
        // `core` must not be touched past this point: once `done` is
        // observable the submitter may release the job's storage.
    }
}

struct PoolInner {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
            // Shutdown is the one event every worker must see; workers
            // drain the queue before they exit.
            self.shared.work.bump();
        }
        self.shared.work.wake_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A persistent pool of parked worker threads.
///
/// Cloning is cheap (an `Arc` bump) and yields a handle to the same pool;
/// the threads exit when the last handle is dropped. Engines built through
/// [`crate::JitSpmmBuilder`] share the process-wide [`WorkerPool::global`]
/// pool unless one is supplied explicitly, so any number of engines can
/// coexist without multiplying threads.
///
/// # Example
///
/// ```
/// use jitspmm::{JobSpec, WorkerPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = WorkerPool::new(2);
/// let hits = AtomicUsize::new(0);
/// // Blocking submission:
/// pool.run(16, &|_task| {
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 16);
/// // Deferred submission goes through a scope: the job runs in the
/// // background (here capped to one worker lane) until its handle — or the
/// // scope, which joins every job it submitted before returning — joins it.
/// let task = |_task| {
///     hits.fetch_add(1, Ordering::Relaxed);
/// };
/// pool.scope(|scope| {
///     scope.submit(JobSpec::new(16).max_lanes(1), &task).wait();
///     scope.submit(JobSpec::new(16), &task);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 48);
/// ```
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.size()).finish()
    }
}

impl WorkerPool {
    /// Spawn a pool with `workers` threads (`0` = one per hardware thread;
    /// for a pool that spawns no threads at all, see [`WorkerPool::inline`]).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = if workers == 0 { default_parallelism() } else { workers };
        WorkerPool::with_exact_workers(workers)
    }

    /// A pool of zero threads: every job runs inline on the submitting
    /// thread. Useful for tests (no threads are ever spawned) and for
    /// comparing against true parallelism.
    pub fn inline() -> WorkerPool {
        WorkerPool::with_exact_workers(0)
    }

    fn with_exact_workers(workers: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { shutdown: false, queue: VecDeque::new() }),
            work: WakeSlot::new(),
            done: WakeSlot::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("jitspmm-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool { inner: Arc::new(PoolInner { shared, handles }) }
    }

    /// The process-wide default pool (one worker per hardware thread),
    /// created on first use and kept alive for the process lifetime.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(0))
    }

    /// Number of worker threads in the pool (the submitting thread
    /// participates in every job it waits on, on top of these).
    pub fn size(&self) -> usize {
        self.inner.handles.len()
    }

    /// Whether `self` and `other` are handles to the *same* underlying pool
    /// — the same worker threads and job queue — as opposed to two distinct
    /// pools that merely have the same size. The serving router uses this to
    /// verify that every engine it owns really shares one pool (clones of
    /// one [`WorkerPool`] compare equal; independently constructed pools do
    /// not).
    pub fn same_pool(&self, other: &WorkerPool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Resolve a requested lane count against this pool: `0` means one lane
    /// per pool worker (minimum one, so inline pools still get a lane).
    /// Shared by the engine and the AOT baselines so both sides of the
    /// paper's comparisons resolve parallelism identically.
    pub fn lanes_for(&self, requested: usize) -> usize {
        if requested > 0 {
            requested
        } else {
            self.size().max(1)
        }
    }

    /// Run one job: `task` is invoked exactly once for every index in
    /// `0..tasks`, distributed over the pool's workers plus the calling
    /// thread, which blocks until the job is complete. Returns the maximum
    /// per-participant busy time — the job's critical-path execution time,
    /// excluding wake-up and join overhead.
    ///
    /// Concurrent jobs pipeline through the pool's queue: each worker serves
    /// one job at a time (never oversubscribing the machine) and flows into
    /// the next queued job without re-parking. Re-entrant calls — a task
    /// invoking `run` on *any* pool (directly, or through an engine or
    /// baseline) — execute the nested job inline on the calling thread
    /// instead of risking deadlock on the job bookkeeping; a nested job
    /// therefore runs single-lane even when targeting a different, idle
    /// pool.
    ///
    /// # Panics
    ///
    /// If any task panics, every remaining task still runs (the pool must
    /// never be wedged by a bad job) and the first panic payload is
    /// re-raised here after the job completes.
    pub fn run<F: Fn(usize) + Sync>(&self, tasks: usize, task: &F) -> Duration {
        self.run_spec(JobSpec::new(tasks), task)
    }

    /// [`WorkerPool::run`] with an explicit [`JobSpec`], so the job's worker
    /// occupancy can be capped (`max_lanes`) independently of its task
    /// count.
    ///
    /// # Panics
    ///
    /// As for [`WorkerPool::run`].
    pub fn run_spec<F: Fn(usize) + Sync>(&self, spec: JobSpec, task: &F) -> Duration {
        self.run_spec_timed(spec, task).0
    }

    /// [`WorkerPool::run_spec`], additionally returning the job's *wake*
    /// latency (enqueue → first participant claiming a task) as the second
    /// tuple element. Zero on the inline fast paths, where no handoff
    /// happens at all; on the queued path it is whatever the race between
    /// the woken workers and the helping submitter produced — i.e. the
    /// handoff cost a caller actually experienced.
    ///
    /// # Panics
    ///
    /// As for [`WorkerPool::run`].
    pub fn run_spec_timed<F: Fn(usize) + Sync>(
        &self,
        spec: JobSpec,
        task: &F,
    ) -> (Duration, Duration) {
        if spec.tasks == 0 {
            return (Duration::ZERO, Duration::ZERO);
        }
        if IN_POOL_TASK.get() || self.inner.handles.is_empty() || spec.tasks == 1 {
            // Inline fast paths: re-entrant submission (deadlock freedom),
            // zero-worker pools, and single-task jobs — for one task,
            // running on the submitting thread is strictly faster than a
            // worker handoff (no wake-up, no cross-thread latency), which
            // matters for single-lane engines on small matrices.
            let _scope = TaskScope::enter();
            let start = Instant::now();
            for index in 0..spec.tasks {
                task(index);
            }
            return (start.elapsed(), Duration::ZERO);
        }
        let core = JobCore::new(
            spec.tasks,
            self.worker_lanes(&spec),
            task as *const F as usize,
            trampoline::<F> as ErasedTask as usize,
        );
        self.enqueue(&core);
        // Participate and block; `core` lives on this stack frame, which
        // `help_and_wait` does not leave until the job is done.
        let busy = self.help_and_wait(&core);
        if let Some(payload) = lock(&core.panic).take() {
            resume_unwind(payload);
        }
        (busy, core.wake())
    }

    /// Create a scope for deferred submission of *borrowed* tasks.
    ///
    /// Inside `f`, [`PoolScope::submit`] defers jobs whose tasks may borrow
    /// anything that outlives the `scope` call (the `'env` data), and
    /// engines launch overlapping kernels through
    /// [`crate::BatchStream`]s. When `f` returns, `scope` joins
    /// every job submitted through it — including jobs whose handles were
    /// dropped or leaked — before returning, inside its own stack frame.
    /// That join is what makes borrowed tasks sound: no `'env` borrow can
    /// end before `scope` itself returns, and no amount of handle-leaking
    /// inside `f` can skip a join performed outside `f`. (This is the same
    /// discipline as [`std::thread::scope`].)
    ///
    /// If any scoped job panicked and its panic was not re-raised by a
    /// [`ScopedJobHandle::wait`], the scope re-raises the first such payload
    /// after all jobs have been joined; a panic in `f` itself takes
    /// precedence.
    ///
    /// # Example
    ///
    /// ```
    /// use jitspmm::{JobSpec, WorkerPool};
    /// use std::sync::atomic::{AtomicUsize, Ordering};
    ///
    /// let pool = WorkerPool::new(2);
    /// let hits = AtomicUsize::new(0); // borrowed by the tasks below
    /// let task = |_task| {
    ///     hits.fetch_add(1, Ordering::Relaxed);
    /// };
    /// pool.scope(|scope| {
    ///     let a = scope.submit(JobSpec::new(8).max_lanes(1), &task);
    ///     let b = scope.submit(JobSpec::new(8).max_lanes(1), &task);
    ///     a.wait();
    ///     // `b` is dropped without wait(): the scope joins it on exit.
    ///     drop(b);
    /// });
    /// assert_eq!(hits.load(Ordering::Relaxed), 16);
    /// ```
    pub fn scope<'env, R>(
        &'env self,
        f: impl for<'scope> FnOnce(&'scope PoolScope<'scope, 'env>) -> R,
    ) -> R {
        let scope = PoolScope {
            pool: self,
            jobs: Mutex::new(ScopeJobs::default()),
            scope: PhantomData,
            env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Join everything — also on the unwind path, so borrowed task state
        // is never reachable from workers once the scope call ends.
        let unwaited_panic = scope.join_all();
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = unwaited_panic {
                    resume_unwind(payload);
                }
                value
            }
        }
    }

    /// Worker participation slots for a job: at most one per task, per pool
    /// worker, and per `max_lanes` (when capped).
    fn worker_lanes(&self, spec: &JobSpec) -> usize {
        let cap = if spec.max_lanes == 0 { usize::MAX } else { spec.max_lanes };
        spec.tasks.min(self.inner.handles.len()).min(cap)
    }

    /// Publish a job to the queue and start the wake chain. The epoch bump
    /// happens under the state mutex (so a worker that just checked the
    /// queue cannot park past it); the syscall-bearing wake happens after
    /// the mutex is dropped.
    fn enqueue(&self, core: &JobCore) {
        let shared = &self.inner.shared;
        let mut state = lock(&shared.state);
        state.queue.push_back(JobPtr(core as *const JobCore));
        shared.work.bump();
        drop(state);
        shared.work.wake_one();
    }

    /// Steal `core`'s remaining tasks on the calling thread, then block
    /// until every participant has checked in and the job is done.
    fn help_and_wait(&self, core: &JobCore) -> Duration {
        let shared = &self.inner.shared;
        {
            let state = lock(&shared.state);
            core.active.fetch_add(1, Ordering::Relaxed);
            drop(state);
        }
        // SAFETY: `core` is alive (it borrows into this call) and the
        // participant was registered above.
        unsafe { shared.participate(core as *const JobCore) };
        {
            let mut state = lock(&shared.state);
            if core.queued.load(Ordering::Relaxed) {
                // Our claim loop exhausted the task counter, but unclaimed
                // lane slots keep the job queued; retire it so completion
                // does not depend on another worker scanning the queue.
                let ptr = core as *const JobCore;
                state.queue.retain(|job| job.0 != ptr);
                core.queued.store(false, Ordering::Relaxed);
                shared.finish_if_complete(core);
            }
        }
        // Lock-free done-wait: `done` is written (Release) and the slot
        // bumped under the state mutex by the finisher, so reading the epoch
        // *before* re-checking `done` closes the race — a finish between the
        // two makes `wait` return immediately.
        loop {
            let epoch = shared.done.epoch();
            if core.done.load(Ordering::Acquire) {
                break;
            }
            shared.done.wait(epoch);
        }
        core.busy()
    }
}

/// A scope for deferred submission of borrowed tasks, created by
/// [`WorkerPool::scope`].
///
/// The scope owns every job descriptor submitted through it and
/// [`WorkerPool::scope`] joins all of its jobs before returning, so tasks
/// may borrow anything that lives at least as long as the `scope` call (the
/// `'env` data) — even when their [`ScopedJobHandle`]s are dropped or
/// leaked. The two lifetimes mirror [`std::thread::scope`]: `'scope` is the
/// period the scope's jobs may run in (invariant, so it cannot be shrunk to
/// exclude the join), `'env` the environment they may borrow from.
pub struct PoolScope<'scope, 'env: 'scope> {
    pool: &'scope WorkerPool,
    /// The scope's shares of its job descriptors (plus any panic harvested
    /// from an already-reclaimed job). Scope ownership — rather than handle
    /// ownership — is what lets [`WorkerPool::scope`] join jobs whose
    /// handles were dropped or leaked; descriptors of completed jobs whose
    /// handle is gone are reclaimed eagerly on the next submission, so a
    /// long-lived scope (a server's request loop) does not grow without
    /// bound.
    jobs: Mutex<ScopeJobs>,
    /// Invariance over `'scope` (the [`std::thread::scope`] trick).
    scope: PhantomData<&'scope mut &'scope ()>,
    /// Invariance over `'env`.
    env: PhantomData<&'env mut &'env ()>,
}

/// The [`PoolScope`] job registry: live descriptor shares plus the first
/// panic harvested from a reclaimed (completed, unwaited) job, preserved for
/// the scope-exit re-raise.
#[derive(Default)]
struct ScopeJobs {
    jobs: Vec<Arc<JobCore>>,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl<'scope, 'env> PoolScope<'scope, 'env> {
    /// The pool this scope submits to.
    pub fn pool(&self) -> &'scope WorkerPool {
        self.pool
    }

    /// Submit a job for deferred execution and return immediately: it
    /// starts running on the pool's workers in the background (capped to
    /// [`JobSpec::max_lanes`] of them). The task may borrow the scope's
    /// environment — the scope joins the job before any `'env` borrow can
    /// end, so no `'static` bound (and no ownership transfer) is needed.
    ///
    /// The returned handle need not be waited, or even kept: an unwaited
    /// job is joined by the scope on exit, where its first task panic, if
    /// any, is re-raised.
    ///
    /// On a zero-worker pool, or when called from inside a pool task, the
    /// job runs inline to completion before this returns, deferring panics
    /// to [`ScopedJobHandle::wait`] (or the scope exit).
    pub fn submit<F>(&'scope self, spec: JobSpec, task: &'env F) -> ScopedJobHandle<'scope>
    where
        F: Fn(usize) + Sync,
    {
        // SAFETY: `task` lives for 'env, and every scoped job is joined
        // inside `WorkerPool::scope`, before any 'env borrow can end.
        unsafe { self.submit_erased(spec, task as *const F as *const (), trampoline::<F>) }
    }

    /// Type-erased scoped submission, for callers (the engine) whose task
    /// payload is something other than a closure borrow.
    ///
    /// # Safety
    ///
    /// `call(data, index)` must be sound for every `index in 0..spec.tasks`,
    /// including concurrently from multiple threads with distinct indices,
    /// and `data` must stay valid until the job completes — which happens at
    /// the latest inside [`WorkerPool::scope`], before it returns.
    pub(crate) unsafe fn submit_erased(
        &self,
        spec: JobSpec,
        data: *const (),
        call: ErasedTask,
    ) -> ScopedJobHandle<'scope> {
        if spec.tasks == 0 || IN_POOL_TASK.get() || self.pool.inner.handles.is_empty() {
            // Nothing to defer (to): run inline now, deferring any panic to
            // `wait` for parity with the threaded path — and still register
            // a completed descriptor with the scope, so an unwaited panic
            // surfaces at scope exit exactly as it would have there.
            // SAFETY: forwarded from this function's contract — `call` is
            // sound for every index and `data` is valid until the job
            // completes, which an inline run does before returning.
            let (busy, panic) = unsafe { run_inline(spec.tasks, data, call) };
            let core = JobCore::completed_inline(spec.tasks, busy, panic);
            return self.adopt(core);
        }
        let core =
            JobCore::new(spec.tasks, self.pool.worker_lanes(&spec), data as usize, call as usize);
        let handle = self.adopt(core);
        // The scope's share of the descriptor (registered in `adopt` before
        // workers can see the job, so an exiting scope can never miss it)
        // keeps the queue's pointer valid until `join_all` has joined it.
        self.pool.enqueue(&handle.core);
        handle
    }

    /// Register a job descriptor with the scope and hand back a handle
    /// sharing it. Descriptors of finished jobs are reclaimed here, so a
    /// scope that submits indefinitely holds live descriptors only for jobs
    /// still in flight (plus any whose handle is still around — or leaked).
    fn adopt(&self, core: JobCore) -> ScopedJobHandle<'scope> {
        let core = Arc::new(core);
        let mut state = lock(&self.jobs);
        let ScopeJobs { jobs, panic } = &mut *state;
        jobs.retain(|job| {
            if !job.done.load(Ordering::Acquire) || Arc::strong_count(job) > 1 {
                // Still in flight, or an outstanding handle may yet claim
                // the result (`wait` must see its own job's panic, not have
                // the sweep steal it).
                return true;
            }
            // Completed and its handle is gone: release the scope's share,
            // harvesting an unclaimed panic so the scope-exit re-raise
            // still sees it.
            if panic.is_none() {
                *panic = lock(&job.panic).take();
            }
            false
        });
        jobs.push(Arc::clone(&core));
        drop(state);
        ScopedJobHandle { pool: self.pool, core, _scope: PhantomData }
    }

    /// Join every job still registered with this scope and return the first
    /// panic payload no `wait` claimed (including panics harvested from
    /// already-reclaimed jobs).
    fn join_all(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let state = std::mem::take(&mut *lock(&self.jobs));
        let mut first_panic = state.panic;
        for core in &state.jobs {
            if !core.done.load(Ordering::Acquire) {
                self.pool.help_and_wait(core);
            }
            if first_panic.is_none() {
                first_panic = lock(&core.panic).take();
            }
        }
        first_panic
    }
}

impl std::fmt::Debug for PoolScope<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolScope").field("jobs", &lock(&self.jobs).jobs.len()).finish()
    }
}

/// A deferred job submitted through a [`PoolScope`].
///
/// [`ScopedJobHandle::wait`] joins the job (stealing remaining tasks on the
/// calling thread) and re-raises its first task panic. Dropping this handle
/// does nothing: the job keeps running in the background and the scope joins
/// it on exit — which is also why leaking the handle is harmless.
pub struct ScopedJobHandle<'scope> {
    pool: &'scope WorkerPool,
    /// This handle's share of the job descriptor (the scope holds its own
    /// until the job completes). A job that ran inline at submission
    /// (zero-worker pool, re-entrant submission) carries a descriptor that
    /// was complete from the start.
    core: Arc<JobCore>,
    /// The handle belongs to the scope it was submitted through.
    _scope: PhantomData<&'scope ()>,
}

impl ScopedJobHandle<'_> {
    /// Whether the job has completed (lock-free; `true` means [`wait`]
    /// will not block).
    ///
    /// [`wait`]: ScopedJobHandle::wait
    pub fn is_done(&self) -> bool {
        self.core.done.load(Ordering::Acquire)
    }

    /// Ensure the job is complete, stealing its remaining tasks on the
    /// calling thread; idempotent. Returns the critical-path busy time.
    fn join(&self) -> Duration {
        if self.is_done() {
            self.core.busy()
        } else {
            self.pool.help_and_wait(&self.core)
        }
    }

    /// Take the job's first task panic, if any (meaningful after `join`).
    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        lock(&self.core.panic).take()
    }

    /// Join the job, stealing its remaining tasks on the calling thread, and
    /// return its critical-path busy time (the maximum over participants).
    ///
    /// # Panics
    ///
    /// Re-raises the first task panic after the job has fully completed. (If
    /// the handle is dropped without waiting instead, the scope re-raises
    /// the panic on exit.)
    pub fn wait(self) -> Duration {
        let busy = self.join();
        if let Some(payload) = self.take_panic() {
            resume_unwind(payload);
        }
        busy
    }

    /// Join and discard any panic payload: the engine's abandoned-launch
    /// drop path, which must not poison the scope exit.
    pub(crate) fn join_quiet(&mut self) -> Duration {
        let busy = self.join();
        drop(self.take_panic());
        busy
    }

    /// Join the job and return its critical-path busy time, handing the
    /// first task panic back as a value instead of unwinding: the batch
    /// pipeline's completion path, which must restore its own bookkeeping
    /// (free the launch slot) before deciding to unwind.
    pub(crate) fn try_wait(&mut self) -> Result<Duration, Box<dyn std::any::Any + Send>> {
        let busy = self.join();
        match self.take_panic() {
            None => Ok(busy),
            Some(payload) => Err(payload),
        }
    }

    /// The launch's wake (enqueue→first-claim handoff) latency; zero for
    /// jobs that ran inline. Meaningful once the job is done — the engine
    /// reads it after [`ScopedJobHandle::try_wait`] for
    /// [`crate::ExecutionReport::wake`].
    pub(crate) fn wake(&self) -> Duration {
        self.core.wake()
    }
}

impl std::fmt::Debug for ScopedJobHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedJobHandle").field("done", &self.is_done()).finish()
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(job) = shared.claim_lane(&mut state) {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                // Read the epoch while still holding the mutex: any enqueue
                // or wake-chain bump after we drop it changes the epoch and
                // makes `wait` return immediately — no lost wake-ups.
                let epoch = shared.work.epoch();
                drop(state);
                shared.work.wait(epoch);
                state = lock(&shared.state);
            }
        };
        // SAFETY: the lane was claimed (participant registered) under the
        // state mutex, which keeps the job alive until the check-in inside.
        unsafe { shared.participate(job.0) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(3);
        let flags: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run(100, &|i| {
            flags[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.run(0, &|_| panic!("must not run")), Duration::ZERO);
    }

    #[test]
    fn inline_pool_runs_on_caller() {
        let pool = WorkerPool::inline();
        assert_eq!(pool.size(), 0);
        let caller = std::thread::current().id();
        pool.run(4, &|_| assert_eq!(std::thread::current().id(), caller));
    }

    #[test]
    fn jobs_reuse_the_same_threads() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(8, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 50 * 8);
        assert_eq!(pool.size(), 2);
    }

    #[test]
    fn concurrent_submitters_pipeline_correctly() {
        let pool = WorkerPool::new(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        pool.run(16, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 20 * 16);
    }

    #[test]
    fn panicking_task_propagates_without_wedging() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("boom in task 3");
                }
            });
        }));
        // The original payload must survive, not a generic pool message.
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "boom in task 3");
        // The pool must still work afterwards.
        let hits = AtomicUsize::new(0);
        pool.run(8, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn reentrant_run_from_a_task_executes_inline() {
        let pool = WorkerPool::new(2);
        let outer = AtomicUsize::new(0);
        let inner_hits = AtomicUsize::new(0);
        pool.run(4, &|_| {
            outer.fetch_add(1, Ordering::Relaxed);
            // A task submitting to its own pool must not deadlock; the
            // nested job runs inline on this thread.
            pool.run(3, &|_| {
                inner_hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 4);
        assert_eq!(inner_hits.load(Ordering::Relaxed), 4 * 3);
    }

    #[test]
    fn busy_time_reflects_work() {
        let pool = WorkerPool::new(2);
        let busy = pool.run(2, &|_| std::thread::sleep(Duration::from_millis(5)));
        assert!(busy >= Duration::from_millis(5));
    }

    #[test]
    fn clones_share_the_pool_and_drop_cleanly() {
        let pool = WorkerPool::new(1);
        let clone = pool.clone();
        drop(pool);
        let hits = AtomicUsize::new(0);
        clone.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn lane_cap_limits_worker_occupancy() {
        let pool = WorkerPool::new(4);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let task = |_i: usize| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1));
            concurrent.fetch_sub(1, Ordering::SeqCst);
        };
        pool.scope(|scope| {
            // A cap of 1 worker plus the waiting submitter: at most two
            // tasks may ever run concurrently, however the claims interleave.
            scope.submit(JobSpec::new(12).max_lanes(1), &task).wait();
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "peak {} > cap", peak.load(Ordering::SeqCst));
    }

    #[test]
    fn capped_jobs_overlap_on_disjoint_lanes() {
        let pool = WorkerPool::new(2);
        let a = AtomicUsize::new(0);
        let b = AtomicUsize::new(0);
        let task_a = |_i: usize| {
            a.fetch_add(1, Ordering::Relaxed);
        };
        let task_b = |_i: usize| {
            b.fetch_add(1, Ordering::Relaxed);
        };
        pool.scope(|scope| {
            let ha = scope.submit(JobSpec::new(50).max_lanes(1), &task_a);
            let hb = scope.submit(JobSpec::new(50).max_lanes(1), &task_b);
            ha.wait();
            hb.wait();
        });
        assert_eq!(a.load(Ordering::Relaxed), 50);
        assert_eq!(b.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn scope_joins_dropped_and_leaked_handles() {
        // The soundness contract of scoped submission: the scope's exit —
        // not any handle destructor — is what guarantees borrowed task
        // state outlives the job. Drop one handle and leak another; both
        // jobs must be complete by the time `scope` returns.
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        let task = |_i: usize| {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        pool.scope(|scope| {
            drop(scope.submit(JobSpec::new(32), &task));
            std::mem::forget(scope.submit(JobSpec::new(32).max_lanes(1), &task));
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        // The pool is still healthy afterwards.
        pool.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 68);
    }

    #[test]
    fn scope_reclaims_completed_job_descriptors() {
        // A long-lived scope (a server's request loop) must not accumulate
        // one descriptor per submission forever: completed jobs are swept on
        // the next submit, leaving only the in-flight tail registered.
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        let task = |_i: usize| {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        pool.scope(|scope| {
            for _ in 0..100 {
                scope.submit(JobSpec::new(4), &task).wait();
            }
            assert!(lock(&scope.jobs).jobs.len() <= 2, "scope accumulated completed descriptors");
        });
        assert_eq!(hits.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn sweep_never_steals_an_outstanding_handles_panic() {
        let pool = WorkerPool::new(2);
        let boom = |_i: usize| panic!("claimed by wait");
        let idle = |_i: usize| {};
        pool.scope(|scope| {
            let handle = scope.submit(JobSpec::new(1), &boom);
            // Let the job finish in the background, then submit again: the
            // sweep must leave the finished job's panic in place, because
            // its outstanding handle is about to claim it.
            while !handle.is_done() {
                std::thread::yield_now();
            }
            scope.submit(JobSpec::new(1), &idle).wait();
            let result = catch_unwind(AssertUnwindSafe(|| handle.wait()));
            let payload = result.unwrap_err();
            let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(message, "claimed by wait", "wait must re-raise its own job's panic");
        });
        // The panic was claimed; the scope exit has nothing to re-raise.
    }

    #[test]
    fn scope_returns_the_closure_value() {
        let pool = WorkerPool::new(1);
        let sum = AtomicUsize::new(0);
        let task = |i: usize| {
            sum.fetch_add(i, Ordering::Relaxed);
        };
        let busy = pool.scope(|scope| scope.submit(JobSpec::new(10), &task).wait());
        assert_eq!(sum.load(Ordering::Relaxed), 45);
        let _ = busy; // Duration escapes the scope; handles cannot.
    }

    #[test]
    fn scoped_unwaited_panic_surfaces_at_scope_exit() {
        let pool = WorkerPool::new(2);
        let task = |i: usize| {
            if i == 3 {
                panic!("scoped boom");
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                // Dropped without wait: the panic has nowhere to go but the
                // scope exit.
                drop(scope.submit(JobSpec::new(8), &task));
            });
        }));
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "scoped boom");
        // The pool survives.
        let hits = AtomicUsize::new(0);
        pool.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn scoped_unwaited_panic_surfaces_at_scope_exit_on_inline_pools_too() {
        // Parity check for the inline fallback: a scoped job that ran
        // inline (zero-worker pool) and panicked must still surface at
        // scope exit when its handle was dropped without wait().
        let pool = WorkerPool::inline();
        let task = |_i: usize| panic!("inline scoped boom");
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                drop(scope.submit(JobSpec::new(2), &task));
            });
        }));
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "inline scoped boom");
    }

    #[test]
    fn scope_on_inline_pool_runs_synchronously() {
        let pool = WorkerPool::inline();
        let hits = AtomicUsize::new(0);
        let task = |_i: usize| {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        pool.scope(|scope| {
            let handle = scope.submit(JobSpec::new(8), &task);
            assert!(handle.is_done());
            assert_eq!(hits.load(Ordering::Relaxed), 8);
            handle.wait();
        });
    }

    #[test]
    fn deferred_jobs_record_wake_latency() {
        let pool = WorkerPool::new(2);
        pool.scope(|scope| {
            let mut handle = scope.submit(JobSpec::new(8), &|_i: usize| {});
            let _ = handle.join_quiet();
            // A queued job must have its handoff recorded by the first
            // participant — the sentinel never survives a completed job.
            assert_ne!(handle.core.wake_ns.load(Ordering::Relaxed), u64::MAX);
        });
    }

    #[test]
    fn inline_jobs_report_zero_wake() {
        let pool = WorkerPool::inline();
        let (busy, wake) = pool.run_spec_timed(JobSpec::new(4), &|_i| {});
        assert!(busy >= Duration::ZERO);
        assert_eq!(wake, Duration::ZERO);
        pool.scope(|scope| {
            let mut handle = scope.submit(JobSpec::new(4), &|_i: usize| {});
            let _ = handle.join_quiet();
            assert_eq!(handle.wake(), Duration::ZERO);
        });
    }

    #[test]
    fn many_rapid_submits_never_lose_a_wakeup() {
        // Notify-one chains are only correct if every parked worker that is
        // needed eventually wakes; hammer the queue with small jobs.
        let pool = WorkerPool::new(4);
        let hits = AtomicUsize::new(0);
        let task = |_i: usize| {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        pool.scope(|scope| {
            for _ in 0..1_000 {
                scope.submit(JobSpec::new(4), &task).wait();
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4_000);
    }
}
