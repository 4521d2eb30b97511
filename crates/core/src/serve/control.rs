//! The serving control state: the two admission policies, typed
//! rejections, the engine count admission checks against and the bell the
//! serving loop parks on.
//!
//! Everything here is scalar-independent bookkeeping — no kernels, no
//! buffers. The request queue consults the shared state at admission time
//! (is the engine id known?) and rings the bell when it hands the loop
//! something to do.

use crate::runtime::{WakeSlot, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// The control state shared between a server, its queues and its
/// sessions: the engine id space admission checks against, the count of
/// refused sends, and the bell the serving loop parks on.
pub(crate) struct ControlShared {
    /// The server's pool, kept for the completion bell its loop parks on.
    pool: WorkerPool,
    /// Registered engine ids (same id space as the server's registry).
    engines: AtomicUsize,
    /// Sends refused at the queue (shed, unknown id) since the last
    /// harvest; folded into [`crate::serve::ServerReport::rejected`].
    rejected_sends: AtomicUsize,
}

impl ControlShared {
    pub(crate) fn new(pool: WorkerPool) -> ControlShared {
        ControlShared { pool, engines: AtomicUsize::new(0), rejected_sends: AtomicUsize::new(0) }
    }

    /// The slot the serving loop parks on: the pool's completion bell, so a
    /// finished launch wakes the loop with no help from here.
    pub(crate) fn bell(&self) -> &WakeSlot {
        self.pool.completion_bell()
    }

    /// Wake the serving loop for anything else: a queued request, the end
    /// of the request stream. Call **after** making that visible — the loop
    /// reads the epoch first and its predicates second, so a bump that
    /// follows the change cannot be slept through.
    pub(crate) fn ring(&self) {
        let bell = self.bell();
        bell.bump();
        bell.wake_all();
    }

    /// Register the next engine id; returns the id, which matches the
    /// server's because registrations happen under its registry lock, in
    /// its insertion order.
    pub(crate) fn register_engine(&self) -> usize {
        self.engines.fetch_add(1, Ordering::AcqRel)
    }

    /// Admission check for a send targeting `engine`: refused for ids the
    /// server does not have.
    pub(crate) fn admission(&self, engine: usize) -> Result<(), RejectReason> {
        if engine < self.engines.load(Ordering::Acquire) {
            Ok(())
        } else {
            Err(RejectReason::UnknownEngine)
        }
    }

    /// A send was refused at the queue; harvested into the serve report.
    pub(crate) fn note_rejected_send(&self) {
        self.rejected_sends.fetch_add(1, Ordering::Relaxed);
    }

    /// Take (and reset) the refused-send count accumulated since the last
    /// call.
    pub(crate) fn take_rejected_sends(&self) -> usize {
        self.rejected_sends.swap(0, Ordering::Relaxed)
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
}
