//! The serving control plane: admission policies, typed rejections, engine
//! lifecycle (active → draining → retired), and the priority/deadline
//! reorder buffer the controlled serving loop drains from.
//!
//! Everything here is scalar-independent bookkeeping — no kernels, no
//! buffers. The request queue consults the shared control state at
//! admission time, the serving session applies engine lifecycle transitions
//! between launches, and producers observe the plane through a cloneable
//! [`ControlHandle`].

use crate::runtime::pool::lock;
use crate::serve::queue::ServerRequest;
use jitspmm_sparse::{DeltaBatch, Scalar};
use std::any::Any;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a request was refused instead of executed. Carried by
/// [`crate::serve::SendError::Rejected`] (refused at the queue) and
/// [`crate::serve::ServerResponse::Rejected`] (refused by the router after
/// admission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The admission policy's queue-depth or in-flight cap was hit and the
    /// policy sheds instead of blocking.
    QueueFull,
    /// The target engine is draining/retired, or the whole server is
    /// draining.
    Draining,
    /// The request's deadline had already passed when the router was about
    /// to launch it.
    DeadlinePassed,
    /// The request named an engine id the server does not have.
    UnknownEngine,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "admission queue full"),
            RejectReason::Draining => write!(f, "engine or server draining"),
            RejectReason::DeadlinePassed => write!(f, "deadline passed before launch"),
            RejectReason::UnknownEngine => write!(f, "unknown engine id"),
        }
    }
}

/// Why [`crate::serve::RequestSender::send`] refused a request. `Closed`
/// means the serving loop has stopped receiving (shutdown); `Rejected`
/// means the control plane shed the request (overload, drain, bad id) while
/// the server keeps serving — producers typically stop on the former and
/// back off on the latter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The queue is closed: the serving loop ended or aborted.
    Closed,
    /// The control plane refused the request; the queue remains open.
    Rejected(RejectReason),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Closed => write!(f, "request queue closed"),
            SendError::Rejected(reason) => write!(f, "request rejected: {reason}"),
        }
    }
}

impl std::error::Error for SendError {}

/// How the request queue behind a [`crate::serve::RequestSender`] admits
/// requests.
///
/// `queue_depth` bounds how many requests may sit in the queue; what happens
/// at the bound is the policy: block the producer (backpressure) or shed
/// with a typed [`RejectReason::QueueFull`]. An optional `max_in_flight`
/// cap additionally bounds requests admitted but not yet responded to
/// across the whole server — queue plus reorder buffer plus engine
/// pipelines — which is the cap a latency SLO actually wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Maximum queued (admitted, not yet received) requests; at least 1.
    pub queue_depth: usize,
    /// Cap on admitted-but-unanswered requests across the server. `None`
    /// disables the cap.
    pub max_in_flight: Option<usize>,
    /// At the bound: `true` sheds with [`RejectReason::QueueFull`], `false`
    /// blocks the producer until room frees up.
    pub shed_on_full: bool,
}

impl AdmissionPolicy {
    /// Block producers at the bound — classic bounded-queue backpressure.
    pub fn blocking(queue_depth: usize) -> AdmissionPolicy {
        AdmissionPolicy {
            queue_depth: queue_depth.max(1),
            max_in_flight: None,
            shed_on_full: false,
        }
    }

    /// Shed at the bound with [`RejectReason::QueueFull`] — load shedding,
    /// for producers that would rather drop than wait.
    pub fn shedding(queue_depth: usize) -> AdmissionPolicy {
        AdmissionPolicy { queue_depth: queue_depth.max(1), max_in_flight: None, shed_on_full: true }
    }

    /// Additionally cap admitted-but-unanswered requests at `cap` (clamped
    /// to at least 1).
    pub fn with_max_in_flight(mut self, cap: usize) -> AdmissionPolicy {
        self.max_in_flight = Some(cap.max(1));
        self
    }
}

/// Lifecycle of one logical engine id inside a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStatus {
    /// Serving requests.
    Active,
    /// Retirement requested: in-flight requests complete, new sends are
    /// rejected with [`RejectReason::Draining`].
    Draining,
    /// Fully drained: the id's pipeline is closed and its slot payloads
    /// freed. The id is never reused.
    Retired,
}

/// The mutable control state, shared between the server, its queues, its
/// sessions and every [`ControlHandle`] clone.
struct ControlCore {
    /// Lifecycle per logical engine id (same id space as the server's).
    engines: Vec<EngineStatus>,
    /// Requests admitted by the request queue and not yet responded to.
    outstanding: usize,
    /// Server-wide drain: every new send is rejected with
    /// [`RejectReason::Draining`] until [`ControlHandle::resume`].
    draining: bool,
    /// Open serving sessions; a retire with no session to apply it
    /// completes immediately.
    sessions: usize,
    /// Bumped on every lifecycle change; sessions compare it to skip the
    /// per-engine scan on the hot path.
    epoch: u64,
    /// Sends refused at the queue (shed, drain, unknown id) since the last
    /// harvest; folded into [`crate::serve::ServerReport::rejected`].
    rejected_sends: usize,
    /// Producers currently parked in [`ControlShared::wait_cap_change`];
    /// completions notify `changed` whenever this is non-zero so a freed
    /// in-flight slot wakes a capped sender immediately.
    cap_waiters: usize,
    /// Cumulative count of sends that blocked on the in-flight cap —
    /// telemetry for overload tests and dashboards.
    cap_blocked: usize,
    /// Matrix revision per logical engine id: 0 at registration, bumped by
    /// the serving session when it applies a pending matrix update to a
    /// mutable engine (immutable engines stay at 0 forever).
    revisions: Vec<u64>,
    /// Matrix updates applied by sessions since the server was built.
    updates_applied: usize,
    /// Matrix updates that failed (wrong engine kind, wrong scalar type, or
    /// a rebuild error) since the server was built.
    updates_failed: usize,
}

/// A matrix update submitted through [`ControlHandle::apply_update`] and
/// not yet applied by a serving session. The delta is type-erased because
/// the control plane is scalar-independent; the session downcasts it back
/// to its server's `DeltaBatch<T>`.
pub(crate) struct PendingUpdate {
    /// The logical engine id the delta targets.
    pub(crate) engine: usize,
    /// A boxed [`DeltaBatch<T>`](jitspmm_sparse::DeltaBatch).
    pub(crate) delta: Box<dyn Any + Send>,
}

/// Condvar-paired control state; `changed` is notified on every lifecycle
/// transition and whenever `outstanding` returns to zero, which is what the
/// [`ControlHandle::drain`] barrier waits on.
pub(crate) struct ControlShared {
    state: Mutex<ControlCore>,
    changed: Condvar,
    /// Matrix updates awaiting a serving session, in submission order. A
    /// separate mutex from `state`: sessions drain it (and apply deltas,
    /// which can take a while) without holding up admission checks.
    updates: Mutex<Vec<PendingUpdate>>,
}

impl ControlShared {
    pub(crate) fn new() -> ControlShared {
        ControlShared {
            state: Mutex::new(ControlCore {
                engines: Vec::new(),
                outstanding: 0,
                draining: false,
                sessions: 0,
                epoch: 0,
                rejected_sends: 0,
                cap_waiters: 0,
                cap_blocked: 0,
                revisions: Vec::new(),
                updates_applied: 0,
                updates_failed: 0,
            }),
            changed: Condvar::new(),
            updates: Mutex::new(Vec::new()),
        }
    }

    /// Register the next engine id as [`EngineStatus::Active`]; returns the
    /// id, which matches the server's because registrations happen in the
    /// server's insertion order.
    pub(crate) fn register_engine(&self) -> usize {
        let mut state = lock(&self.state);
        state.engines.push(EngineStatus::Active);
        state.revisions.push(0);
        state.epoch += 1;
        let id = state.engines.len() - 1;
        drop(state);
        self.changed.notify_all();
        id
    }

    pub(crate) fn status(&self, id: usize) -> Option<EngineStatus> {
        lock(&self.state).engines.get(id).copied()
    }

    pub(crate) fn engine_count(&self) -> usize {
        lock(&self.state).engines.len()
    }

    pub(crate) fn epoch(&self) -> u64 {
        lock(&self.state).epoch
    }

    /// Request retirement of `id`. Active engines become `Draining` (or
    /// `Retired` immediately when no session is open to drain them); returns
    /// `false` for an unknown id.
    pub(crate) fn retire(&self, id: usize) -> bool {
        let mut state = lock(&self.state);
        let sessions = state.sessions;
        let Some(status) = state.engines.get_mut(id) else {
            return false;
        };
        if *status == EngineStatus::Active {
            *status = if sessions == 0 { EngineStatus::Retired } else { EngineStatus::Draining };
            state.epoch += 1;
            drop(state);
            self.changed.notify_all();
        }
        true
    }

    /// Mark a draining engine fully retired (its pipeline closed, payloads
    /// freed). Called by the session that performed the drain.
    pub(crate) fn mark_retired(&self, id: usize) {
        let mut state = lock(&self.state);
        if let Some(status) = state.engines.get_mut(id) {
            if *status != EngineStatus::Retired {
                *status = EngineStatus::Retired;
                state.epoch += 1;
                drop(state);
                self.changed.notify_all();
            }
        }
    }

    pub(crate) fn begin_drain(&self) {
        let mut state = lock(&self.state);
        state.draining = true;
        state.epoch += 1;
        drop(state);
        self.changed.notify_all();
    }

    pub(crate) fn resume(&self) {
        let mut state = lock(&self.state);
        state.draining = false;
        state.epoch += 1;
        drop(state);
        self.changed.notify_all();
    }

    pub(crate) fn is_draining(&self) -> bool {
        lock(&self.state).draining
    }

    pub(crate) fn session_opened(&self) {
        lock(&self.state).sessions += 1;
    }

    /// A session ended. With no session left, every `Draining` engine is
    /// promoted to `Retired`: its stream (and slot payloads) died with the
    /// session, so the drain is complete by construction.
    pub(crate) fn session_closed(&self) {
        let mut state = lock(&self.state);
        state.sessions = state.sessions.saturating_sub(1);
        if state.sessions == 0 {
            let mut changed = false;
            for status in &mut state.engines {
                if *status == EngineStatus::Draining {
                    *status = EngineStatus::Retired;
                    changed = true;
                }
            }
            if changed {
                state.epoch += 1;
            }
        }
        drop(state);
        self.changed.notify_all();
    }

    /// Admission check for a send targeting `engine`: refused while the
    /// server drains, for unknown ids, and for non-active engines.
    pub(crate) fn admission(&self, engine: usize) -> Result<(), RejectReason> {
        let state = lock(&self.state);
        if state.draining {
            return Err(RejectReason::Draining);
        }
        match state.engines.get(engine) {
            None => Err(RejectReason::UnknownEngine),
            Some(EngineStatus::Active) => Ok(()),
            Some(_) => Err(RejectReason::Draining),
        }
    }

    /// One request admitted (queued).
    pub(crate) fn admitted(&self) {
        lock(&self.state).outstanding += 1;
    }

    /// `n` admitted requests answered (or discarded by a queue close); wakes
    /// the drain barrier when the count reaches zero and any sender parked
    /// on the in-flight cap as soon as a slot frees up.
    pub(crate) fn completed(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut state = lock(&self.state);
        state.outstanding = state.outstanding.saturating_sub(n);
        let wake = state.outstanding == 0 || state.cap_waiters > 0;
        drop(state);
        if wake {
            self.changed.notify_all();
        }
    }

    pub(crate) fn outstanding(&self) -> usize {
        lock(&self.state).outstanding
    }

    /// Park until a completion may have brought `outstanding` under `cap`,
    /// or `closed` (the caller's queue-closed flag) is raised. The under-cap
    /// and closed checks share one lock acquisition with the wait — the same
    /// lock [`ControlShared::completed`] mutates under and
    /// [`ControlShared::wake_waiters`] passes through — so neither a slot
    /// freed nor a closure raised between the caller's last check and this
    /// wait can be missed. Single-shot on purpose: the caller's admission
    /// loop re-checks closure and re-evaluates the cap, so a spurious wake
    /// only costs one lap.
    pub(crate) fn wait_cap_change(&self, cap: usize, closed: &std::sync::atomic::AtomicBool) {
        let mut state = lock(&self.state);
        if closed.load(std::sync::atomic::Ordering::SeqCst) || state.outstanding < cap {
            return;
        }
        state.cap_waiters += 1;
        state.cap_blocked += 1;
        state = self.changed.wait(state).unwrap_or_else(|p| p.into_inner());
        state.cap_waiters -= 1;
    }

    /// Wake every parked cap waiter (and drain barrier); a closing queue
    /// calls this — after raising its closed flag — so capped senders
    /// observe the closure instead of parking forever. The empty critical
    /// section orders this notification after any waiter's check-then-park:
    /// a sender either parked before we acquired the lock (and is woken) or
    /// acquires it after us (and sees the flag).
    pub(crate) fn wake_waiters(&self) {
        drop(lock(&self.state));
        self.changed.notify_all();
    }

    /// Cumulative sends that blocked on the in-flight cap.
    pub(crate) fn cap_blocked_count(&self) -> usize {
        lock(&self.state).cap_blocked
    }

    /// A send was refused at the queue; harvested into the serve report.
    pub(crate) fn note_rejected_send(&self) {
        lock(&self.state).rejected_sends += 1;
    }

    /// Take (and reset) the refused-send count accumulated since the last
    /// call.
    pub(crate) fn take_rejected_sends(&self) -> usize {
        std::mem::take(&mut lock(&self.state).rejected_sends)
    }

    /// Block until no admitted request is unanswered. With a timeout,
    /// returns whether quiescence was reached.
    pub(crate) fn wait_quiescent(&self, timeout: Option<Duration>) -> bool {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut state = lock(&self.state);
        loop {
            if state.outstanding == 0 {
                return true;
            }
            state = match deadline {
                None => self.changed.wait(state).unwrap_or_else(|p| p.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return false;
                    }
                    self.changed
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(|p| p.into_inner())
                        .0
                }
            };
        }
    }

    /// Queue a matrix update for engine `engine`; `false` for an unknown
    /// id (the delta is dropped). The update is applied by the next serving
    /// session pass — between launches, never inside one.
    pub(crate) fn submit_update(&self, engine: usize, delta: Box<dyn Any + Send>) -> bool {
        if lock(&self.state).engines.get(engine).is_none() {
            return false;
        }
        lock(&self.updates).push(PendingUpdate { engine, delta });
        // Nudge any session parked on its receive tick indirectly: the
        // session checks for pending updates at the top of every loop
        // iteration, so a bounded tick suffices; waking the condvar here
        // covers drain barriers that double as update flushes.
        self.changed.notify_all();
        true
    }

    /// Whether any update awaits a session — the cheap pre-check sessions
    /// run every loop iteration.
    pub(crate) fn has_updates(&self) -> bool {
        !lock(&self.updates).is_empty()
    }

    /// Take every queued update, in submission order.
    pub(crate) fn take_updates(&self) -> Vec<PendingUpdate> {
        std::mem::take(&mut lock(&self.updates))
    }

    /// Put an update back at the front of the queue (the target engine's
    /// generation lock was contended; retry next pass without reordering
    /// against later updates to the same engine).
    pub(crate) fn requeue_update(&self, update: PendingUpdate) {
        lock(&self.updates).insert(0, update);
    }

    /// A session applied an update: record the engine's new revision and
    /// wake [`ControlShared::wait_revision`] waiters.
    pub(crate) fn note_update_applied(&self, engine: usize, revision: u64) {
        let mut state = lock(&self.state);
        if let Some(slot) = state.revisions.get_mut(engine) {
            *slot = revision;
        }
        state.updates_applied += 1;
        drop(state);
        self.changed.notify_all();
    }

    /// A session failed to apply an update (wrong engine kind or scalar
    /// type, or the rebuild errored); the delta is dropped.
    pub(crate) fn note_update_failed(&self) {
        lock(&self.state).updates_failed += 1;
        self.changed.notify_all();
    }

    /// The recorded matrix revision of engine `id` (`None` for unknown).
    pub(crate) fn revision(&self, id: usize) -> Option<u64> {
        lock(&self.state).revisions.get(id).copied()
    }

    /// Applied/failed update counts since the server was built.
    pub(crate) fn update_counts(&self) -> (usize, usize) {
        let state = lock(&self.state);
        (state.updates_applied, state.updates_failed)
    }

    /// Block until engine `engine`'s recorded revision reaches `at_least`
    /// (or the timeout expires); returns whether it did. Returns `false`
    /// immediately for unknown ids.
    pub(crate) fn wait_revision(
        &self,
        engine: usize,
        at_least: u64,
        timeout: Option<Duration>,
    ) -> bool {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut state = lock(&self.state);
        loop {
            match state.revisions.get(engine) {
                None => return false,
                Some(&revision) if revision >= at_least => return true,
                Some(_) => {}
            }
            state = match deadline {
                None => self.changed.wait(state).unwrap_or_else(|p| p.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return false;
                    }
                    self.changed
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(|p| p.into_inner())
                        .0
                }
            };
        }
    }
}

/// A cloneable, thread-safe handle onto a server's control plane, obtained
/// from [`crate::serve::SpmmServer::control`]. Producers and operators use
/// it to retire engines, drain the server to quiescence, and observe engine
/// lifecycle — all without borrowing the server itself.
#[derive(Clone)]
pub struct ControlHandle {
    shared: std::sync::Arc<ControlShared>,
}

impl ControlHandle {
    pub(crate) fn new(shared: std::sync::Arc<ControlShared>) -> ControlHandle {
        ControlHandle { shared }
    }

    /// Request retirement of engine `id` (see
    /// [`crate::serve::SpmmServer::retire_engine`]); `false` for an unknown
    /// id.
    pub fn retire_engine(&self, id: usize) -> bool {
        self.shared.retire(id)
    }

    /// Start a server-wide drain: every subsequent send is rejected with
    /// [`RejectReason::Draining`] until [`ControlHandle::resume`]. Does not
    /// wait; pair with [`ControlHandle::wait_quiescent`] or call
    /// [`ControlHandle::drain`].
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Drain barrier: stop admitting ([`ControlHandle::begin_drain`]) and
    /// block until every already-admitted request has been answered.
    pub fn drain(&self) {
        self.shared.begin_drain();
        self.shared.wait_quiescent(None);
    }

    /// Lift a server-wide drain so new sends are admitted again.
    pub fn resume(&self) {
        self.shared.resume();
    }

    /// Block until every admitted request has been answered.
    pub fn wait_quiescent(&self) {
        self.shared.wait_quiescent(None);
    }

    /// [`ControlHandle::wait_quiescent`] with a timeout; returns whether
    /// quiescence was reached.
    pub fn wait_quiescent_timeout(&self, timeout: Duration) -> bool {
        self.shared.wait_quiescent(Some(timeout))
    }

    /// Admitted requests not yet answered.
    pub fn outstanding(&self) -> usize {
        self.shared.outstanding()
    }

    /// Lifecycle of engine `id`, or `None` for an unknown id.
    pub fn engine_status(&self, id: usize) -> Option<EngineStatus> {
        self.shared.status(id)
    }

    /// Whether a server-wide drain is in effect.
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Cumulative number of sends that blocked on the admission policy's
    /// in-flight cap ([`AdmissionPolicy::with_max_in_flight`]) before being
    /// admitted. Overload telemetry: a steadily climbing count means
    /// producers outpace the cap.
    pub fn cap_blocked(&self) -> usize {
        self.shared.cap_blocked_count()
    }

    /// Queue an edge-delta update for the **mutable** engine `engine` (one
    /// registered via [`crate::serve::SpmmServer::add_mutable`]) on a live
    /// server. Returns `false` for an unknown engine id; otherwise the next
    /// serving-session pass applies it **between launches**: the engine's
    /// in-flight lane drains on the old kernels, the touched shards rebuild
    /// ([`crate::update::MutableSpmm::apply`]), and requests admitted
    /// afterwards execute against the merged matrix — bit-identically to a
    /// from-scratch compile. Updates targeting a non-mutable engine, or
    /// carrying a different scalar type than the server's, are counted as
    /// failed and dropped.
    ///
    /// Asynchronous by design: pair with [`ControlHandle::wait_revision`]
    /// (or poll [`ControlHandle::engine_revision`]) to observe the swap.
    pub fn apply_update<T: Scalar>(&self, engine: usize, delta: DeltaBatch<T>) -> bool {
        self.shared.submit_update(engine, Box::new(delta))
    }

    /// The matrix revision of engine `id` as recorded by applied updates
    /// (0 until the first update lands; `None` for unknown ids).
    pub fn engine_revision(&self, id: usize) -> Option<u64> {
        self.shared.revision(id)
    }

    /// Block until engine `engine`'s revision reaches `at_least` or the
    /// timeout expires; returns whether it did. The counterpart to
    /// [`ControlHandle::apply_update`]'s asynchrony: submit, then wait for
    /// the serving session to report the swap.
    pub fn wait_revision(&self, engine: usize, at_least: u64, timeout: Duration) -> bool {
        self.shared.wait_revision(engine, at_least, Some(timeout))
    }

    /// Matrix updates applied and failed since the server was built.
    pub fn update_counts(&self) -> (usize, usize) {
        self.shared.update_counts()
    }
}

impl std::fmt::Debug for ControlHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlHandle")
            .field("engines", &self.shared.engine_count())
            .field("outstanding", &self.shared.outstanding())
            .field("draining", &self.shared.is_draining())
            .finish()
    }
}

/// An entry in the reorder buffer: the request plus its ordering keys and an
/// arrival sequence number for the FIFO tie-break.
struct Entry<T: Scalar> {
    priority: u8,
    deadline: Option<Instant>,
    arrival: u64,
    request: ServerRequest<T>,
}

impl<T: Scalar> Entry<T> {
    /// Max-heap key: higher priority first, then earlier deadline (a
    /// deadline beats no deadline), then arrival order.
    fn key_cmp(&self, other: &Entry<T>) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| match (self.deadline, other.deadline) {
                (Some(a), Some(b)) => b.cmp(&a),
                (Some(_), None) => std::cmp::Ordering::Greater,
                (None, Some(_)) => std::cmp::Ordering::Less,
                (None, None) => std::cmp::Ordering::Equal,
            })
            .then_with(|| other.arrival.cmp(&self.arrival))
    }
}

impl<T: Scalar> PartialEq for Entry<T> {
    fn eq(&self, other: &Entry<T>) -> bool {
        self.key_cmp(other) == std::cmp::Ordering::Equal
    }
}

impl<T: Scalar> Eq for Entry<T> {}

impl<T: Scalar> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Entry<T>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Scalar> Ord for Entry<T> {
    fn cmp(&self, other: &Entry<T>) -> std::cmp::Ordering {
        self.key_cmp(other)
    }
}

/// The priority/deadline reorder buffer between request-queue
/// arrival order and per-engine pipeline pushes: a binary max-heap keyed by
/// priority (higher first), then deadline (earlier first, and any deadline
/// before none), then arrival order — so equal-priority traffic without
/// deadlines still serves FIFO, deterministically.
///
/// [`crate::serve::SpmmServer::serve_controlled`] drains every queued
/// arrival into this buffer before popping the next request to launch.
pub(crate) struct ReorderBuffer<T: Scalar> {
    heap: BinaryHeap<Entry<T>>,
    arrivals: u64,
}

impl<T: Scalar> ReorderBuffer<T> {
    /// An empty buffer.
    pub fn new() -> ReorderBuffer<T> {
        ReorderBuffer { heap: BinaryHeap::new(), arrivals: 0 }
    }

    /// Buffer one arrival, capturing its ordering keys.
    pub fn push(&mut self, request: ServerRequest<T>) {
        let arrival = self.arrivals;
        self.arrivals += 1;
        self.heap.push(Entry {
            priority: request.priority,
            deadline: request.expires_at(),
            arrival,
            request,
        });
    }

    /// Remove and return the most urgent buffered request.
    pub fn pop(&mut self) -> Option<ServerRequest<T>> {
        self.heap.pop().map(|entry| entry.request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitspmm_sparse::DenseMatrix;

    fn request(engine: usize) -> ServerRequest<f32> {
        ServerRequest::new(engine, DenseMatrix::random(2, 1, engine as u64))
    }

    #[test]
    fn reorder_buffer_pops_priority_then_deadline_then_fifo() {
        let mut buffer = ReorderBuffer::new();
        // Arrival order deliberately scrambled relative to urgency.
        buffer.push(request(0).with_priority(1)); // mid priority, FIFO first
        buffer.push(request(1)); // lowest priority (0)
        buffer.push(request(2).with_priority(1).with_deadline(Duration::from_secs(60)));
        buffer.push(request(3).with_priority(1).with_deadline(Duration::from_secs(5)));
        buffer.push(request(4).with_priority(7)); // highest priority
        buffer.push(request(5).with_priority(1)); // mid priority, FIFO second
        let order: Vec<usize> = std::iter::from_fn(|| buffer.pop()).map(|r| r.engine).collect();
        // Priority 7 first; within priority 1 the tighter deadline wins, any
        // deadline beats none, and deadline-free ties break by arrival.
        assert_eq!(order, vec![4, 3, 2, 0, 5, 1]);
        assert!(buffer.pop().is_none());
    }

    #[test]
    fn reorder_buffer_is_fifo_for_uniform_requests() {
        let mut buffer = ReorderBuffer::new();
        for engine in 0..16 {
            buffer.push(request(engine));
        }
        let order: Vec<usize> = std::iter::from_fn(|| buffer.pop()).map(|r| r.engine).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn admission_policy_clamps_and_composes() {
        assert_eq!(AdmissionPolicy::blocking(0).queue_depth, 1);
        assert!(AdmissionPolicy::shedding(4).shed_on_full);
        assert!(!AdmissionPolicy::blocking(4).shed_on_full);
        assert_eq!(AdmissionPolicy::shedding(4).with_max_in_flight(0).max_in_flight, Some(1));
    }

    #[test]
    fn control_lifecycle_transitions() {
        let ctrl = ControlShared::new();
        assert_eq!(ctrl.register_engine(), 0);
        assert_eq!(ctrl.register_engine(), 1);
        assert_eq!(ctrl.status(0), Some(EngineStatus::Active));
        // No session open: retirement completes immediately.
        assert!(ctrl.retire(0));
        assert_eq!(ctrl.status(0), Some(EngineStatus::Retired));
        assert!(!ctrl.retire(9), "unknown ids are reported, not invented");
        // With a session open, retirement drains first.
        ctrl.session_opened();
        assert!(ctrl.retire(1));
        assert_eq!(ctrl.status(1), Some(EngineStatus::Draining));
        assert_eq!(ctrl.admission(1), Err(RejectReason::Draining));
        assert_eq!(ctrl.admission(7), Err(RejectReason::UnknownEngine));
        // The session closing finishes the drain.
        ctrl.session_closed();
        assert_eq!(ctrl.status(1), Some(EngineStatus::Retired));
    }

    #[test]
    fn drain_barrier_tracks_outstanding_requests() {
        let ctrl = ControlShared::new();
        ctrl.register_engine();
        ctrl.admitted();
        ctrl.admitted();
        assert!(!ctrl.wait_quiescent(Some(Duration::from_millis(5))));
        ctrl.completed(1);
        ctrl.completed(1);
        assert!(ctrl.wait_quiescent(Some(Duration::from_millis(5))));
        ctrl.begin_drain();
        assert_eq!(ctrl.admission(0), Err(RejectReason::Draining));
        ctrl.resume();
        assert_eq!(ctrl.admission(0), Ok(()));
    }
}
