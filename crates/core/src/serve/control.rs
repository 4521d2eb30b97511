//! The serving control state: the two admission policies, typed
//! rejections, and the live-update mailbox between [`ControlHandle`]s and
//! the serving loop.
//!
//! Everything here is scalar-independent bookkeeping — no kernels, no
//! buffers. The request queue consults the shared state at admission time
//! (is the engine id known?), the serving session applies queued matrix
//! updates between launches, and producers observe revisions through a
//! cloneable [`ControlHandle`].

use crate::runtime::pool::lock;
use crate::runtime::{WakeSlot, WorkerPool};
use jitspmm_sparse::{DeltaBatch, Scalar};
use std::any::Any;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a request was refused instead of executed. Carried by
/// [`crate::serve::SendError::Rejected`] (refused at the queue) and
/// [`crate::serve::ServerResponse::Rejected`] (refused by the router after
/// admission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The admission policy's queue-depth bound was hit and the policy
    /// sheds instead of blocking.
    QueueFull,
    /// The request named an engine id the server does not have.
    UnknownEngine,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "admission queue full"),
            RejectReason::UnknownEngine => write!(f, "unknown engine id"),
        }
    }
}

/// Why [`crate::serve::RequestSender::send`] refused a request. `Closed`
/// means the serving loop has stopped receiving (shutdown); `Rejected`
/// means admission refused the request (overload, bad id) while the server
/// keeps serving — producers typically stop on the former and
/// back off on the latter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The queue is closed: the serving loop ended or aborted.
    Closed,
    /// Admission refused the request; the queue remains open.
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
/// with a typed [`RejectReason::QueueFull`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Maximum queued (admitted, not yet received) requests; at least 1.
    pub queue_depth: usize,
    /// At the bound: `true` sheds with [`RejectReason::QueueFull`], `false`
    /// blocks the producer until room frees up.
    pub shed_on_full: bool,
}

impl AdmissionPolicy {
    /// Block producers at the bound — classic bounded-queue backpressure.
    pub fn blocking(queue_depth: usize) -> AdmissionPolicy {
        AdmissionPolicy { queue_depth: queue_depth.max(1), shed_on_full: false }
    }

    /// Shed at the bound with [`RejectReason::QueueFull`] — load shedding,
    /// for producers that would rather drop than wait.
    pub fn shedding(queue_depth: usize) -> AdmissionPolicy {
        AdmissionPolicy { queue_depth: queue_depth.max(1), shed_on_full: true }
    }
}

/// The mutable control state, shared between the server, its queues, its
/// sessions and every [`ControlHandle`] clone.
struct ControlCore {
    /// Matrix revision per logical engine id (same id space as the
    /// server's, so its length is the engine count): 0 at registration,
    /// bumped by the serving session when it applies a pending matrix update
    /// to a mutable engine (immutable engines stay at 0 forever).
    revisions: Vec<u64>,
    /// Sends refused at the queue (shed, unknown id) since the last
    /// harvest; folded into [`crate::serve::ServerReport::rejected`].
    rejected_sends: usize,
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

/// Condvar-paired control state; `changed` is notified whenever an update
/// is applied or fails, which is what [`ControlHandle::wait_revision`]
/// waits on.
pub(crate) struct ControlShared {
    /// The server's pool, kept for the completion bell its loop parks on.
    pool: WorkerPool,
    state: Mutex<ControlCore>,
    changed: Condvar,
    /// Matrix updates awaiting a serving session, in submission order. A
    /// separate mutex from `state`: sessions drain it (and apply deltas,
    /// which can take a while) without holding up admission checks.
    updates: Mutex<Vec<PendingUpdate>>,
}

impl ControlShared {
    pub(crate) fn new(pool: WorkerPool) -> ControlShared {
        ControlShared {
            pool,
            state: Mutex::new(ControlCore {
                revisions: Vec::new(),
                rejected_sends: 0,
                updates_applied: 0,
                updates_failed: 0,
            }),
            changed: Condvar::new(),
            updates: Mutex::new(Vec::new()),
        }
    }

    /// The slot the serving loop parks on: the pool's completion bell, so a
    /// finished launch wakes the loop with no help from here.
    pub(crate) fn bell(&self) -> &WakeSlot {
        self.pool.completion_bell()
    }

    /// Wake the serving loop for anything else: a queued request or update,
    /// the end of the request stream. Call **after** making that visible —
    /// the loop reads the epoch first and its predicates second, so a bump
    /// that follows the change cannot be slept through.
    pub(crate) fn ring(&self) {
        let bell = self.bell();
        bell.bump();
        bell.wake_all();
    }

    /// Register the next engine id at revision 0; returns the id, which
    /// matches the server's because registrations happen in the server's
    /// insertion order.
    pub(crate) fn register_engine(&self) -> usize {
        let mut state = lock(&self.state);
        state.revisions.push(0);
        state.revisions.len() - 1
    }

    pub(crate) fn engine_count(&self) -> usize {
        lock(&self.state).revisions.len()
    }

    /// Admission check for a send targeting `engine`: refused for ids the
    /// server does not have.
    pub(crate) fn admission(&self, engine: usize) -> Result<(), RejectReason> {
        if engine < self.engine_count() {
            Ok(())
        } else {
            Err(RejectReason::UnknownEngine)
        }
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

    /// Queue a matrix update for engine `engine`; `false` for an unknown
    /// id (the delta is dropped). The update is applied by the next serving
    /// session pass — between launches, never inside one.
    pub(crate) fn submit_update(&self, engine: usize, delta: Box<dyn Any + Send>) -> bool {
        if engine >= self.engine_count() {
            return false;
        }
        lock(&self.updates).push(PendingUpdate { engine, delta });
        // An idle loop is parked on the bell, not polling: wake it.
        self.ring();
        true
    }

    /// Take every queued update, in submission order (none, almost always:
    /// sessions ask every loop lap).
    pub(crate) fn take_updates(&self) -> Vec<PendingUpdate> {
        std::mem::take(&mut lock(&self.updates))
    }

    /// Put updates back at the front of the queue, in order (their engine's
    /// generation lock was contended; retry next lap without reordering
    /// against later updates to the same engine).
    pub(crate) fn requeue_updates(&self, deferred: Vec<PendingUpdate>) {
        lock(&self.updates).splice(0..0, deferred);
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
    /// immediately for unknown ids, and as soon as any update fails while
    /// waiting: the awaited revision may never come.
    pub(crate) fn wait_revision(&self, engine: usize, at_least: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = lock(&self.state);
        let failed_at_entry = state.updates_failed;
        loop {
            match state.revisions.get(engine) {
                None => return false,
                Some(&revision) if revision >= at_least => return true,
                Some(_) if state.updates_failed != failed_at_entry => return false,
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            state = self
                .changed
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }
}

/// A cloneable, thread-safe handle onto a server's live-update mailbox,
/// obtained from [`crate::serve::SpmmServer::control`]. Producers and
/// operators use it to queue matrix updates for mutable engines and to
/// observe the resulting revisions — all without borrowing the server
/// itself.
#[derive(Clone)]
pub struct ControlHandle {
    shared: std::sync::Arc<ControlShared>,
}

impl ControlHandle {
    pub(crate) fn new(shared: std::sync::Arc<ControlShared>) -> ControlHandle {
        ControlHandle { shared }
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
    /// the serving session to report the swap. Also returns `false` —
    /// early — when any update fails during the wait (see
    /// [`ControlHandle::update_counts`]): a rejected delta never advances
    /// the revision.
    pub fn wait_revision(&self, engine: usize, at_least: u64, timeout: Duration) -> bool {
        self.shared.wait_revision(engine, at_least, timeout)
    }

    /// Matrix updates applied and failed since the server was built.
    pub fn update_counts(&self) -> (usize, usize) {
        self.shared.update_counts()
    }
}

impl std::fmt::Debug for ControlHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlHandle").field("engines", &self.shared.engine_count()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_policy_clamps_and_composes() {
        assert_eq!(AdmissionPolicy::blocking(0).queue_depth, 1);
        assert!(AdmissionPolicy::shedding(4).shed_on_full);
        assert!(!AdmissionPolicy::blocking(4).shed_on_full);
    }

    #[test]
    fn wait_revision_returns_early_when_an_update_fails() {
        let control = std::sync::Arc::new(ControlShared::new(WorkerPool::inline()));
        control.register_engine();
        let waiter = {
            let control = std::sync::Arc::clone(&control);
            std::thread::spawn(move || control.wait_revision(0, 1, Duration::from_secs(3600)))
        };
        // Fail updates until the waiter is back: whenever it sampled the
        // counter, a later failure moves it. A waiter that re-checks only
        // the revision sleeps out its hour and trips the watchdog instead.
        let watchdog = Instant::now() + Duration::from_secs(60);
        while !waiter.is_finished() {
            control.note_update_failed();
            assert!(Instant::now() < watchdog, "a failed update never woke the waiter");
            std::thread::yield_now();
        }
        assert!(!waiter.join().unwrap(), "no update was applied");
        // An applied update still reports success, failures or not.
        control.note_update_applied(0, 1);
        assert!(control.wait_revision(0, 1, Duration::ZERO));
    }
}
