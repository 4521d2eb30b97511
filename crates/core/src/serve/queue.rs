//! The bounded FIFO request queue between producer threads and the serving
//! loop, with admission (policies, typed rejections) layered on top.

use crate::runtime::pool::lock;
use crate::serve::control::{AdmissionPolicy, ControlShared, RejectReason, SendError};
use jitspmm_sparse::{DenseMatrix, Scalar};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// One serving request: a dense input tagged with the id of the engine that
/// should execute it. Requests are served in arrival order.
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
    /// The dense right-hand side, owned — producers hand inputs over by
    /// value, so no borrow ties them to the serving scope.
    pub input: DenseMatrix<T>,
}

impl<T: Scalar> ServerRequest<T> {
    /// A request for `engine`.
    pub fn new(engine: usize, input: DenseMatrix<T>) -> ServerRequest<T> {
        ServerRequest { engine, input }
    }
}

struct QueueState<T: Scalar> {
    items: VecDeque<ServerRequest<T>>,
    /// Live [`RequestSender`] clones; the queue ends when this reaches zero
    /// and the items drain.
    senders: usize,
    /// Set by [`RequestQueue::close`] (or the receiver's drop): pending and
    /// future sends are refused so blocked producers unwedge immediately.
    closed: bool,
}

struct QueueShared<T: Scalar> {
    state: Mutex<QueueState<T>>,
    /// Producers park here while the queue is at capacity.
    not_full: Condvar,
    policy: AdmissionPolicy,
    /// The server's control state: consulted for the engine id space,
    /// credited with refused sends, and rung ([`ControlShared::ring`])
    /// whenever the receiver has something new to see — the receiver never
    /// waits on the queue itself.
    control: Arc<ControlShared>,
}

/// Why [`RequestQueue::try_recv`] handed out no request.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum TryRecvError {
    /// Nothing is queued right now; the stream is still live.
    Empty,
    /// The stream is over: the queue is closed, or every sender is gone and
    /// the items drained.
    Disconnected,
}

/// The producer side of the bounded request queue
/// [`crate::serve::SpmmServer::serve_controlled`] creates and hands to its
/// producer. Clone it freely — one per producer thread — and drop every
/// clone to signal the end of the stream.
pub struct RequestSender<T: Scalar> {
    shared: Arc<QueueShared<T>>,
}

impl<T: Scalar> RequestSender<T> {
    /// Enqueue a request built with [`ServerRequest::new`], subject to the
    /// queue's [`AdmissionPolicy`]: a blocking policy parks the producer while the
    /// queue is at capacity (backpressure), a shedding policy refuses with
    /// [`SendError::Rejected`]`(`[`RejectReason::QueueFull`]`)` instead.
    ///
    /// # Errors
    ///
    /// [`SendError::Closed`] once the receiving side has closed the queue
    /// (the serving loop ended or aborted) — a producer loop can simply
    /// stop. [`SendError::Rejected`] when admission refuses the request
    /// (queue full under a shedding policy, unknown engine id); the queue
    /// remains open and later sends may succeed.
    pub fn send_request(&self, request: ServerRequest<T>) -> Result<(), SendError> {
        let shared = &self.shared;
        let control = &shared.control;
        let mut state = lock(&shared.state);
        loop {
            if state.closed {
                return Err(SendError::Closed);
            }
            if let Err(reason) = control.admission(request.engine) {
                control.note_rejected_send();
                return Err(SendError::Rejected(reason));
            }
            if state.items.len() < shared.policy.queue_depth {
                state.items.push_back(request);
                drop(state);
                control.ring();
                return Ok(());
            }
            if shared.policy.shed_on_full {
                control.note_rejected_send();
                return Err(SendError::Rejected(RejectReason::QueueFull));
            }
            // Blocking admission: park until the receiver makes room (or
            // closes), then re-check closure and admission from scratch.
            state = shared.not_full.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// [`RequestSender::send_request`] without building the
    /// [`ServerRequest`] first.
    pub fn send(&self, engine: usize, input: DenseMatrix<T>) -> Result<(), SendError> {
        self.send_request(ServerRequest::new(engine, input))
    }
}

impl<T: Scalar> Clone for RequestSender<T> {
    fn clone(&self) -> RequestSender<T> {
        lock(&self.shared.state).senders += 1;
        RequestSender { shared: Arc::clone(&self.shared) }
    }
}

impl<T: Scalar> Drop for RequestSender<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.senders -= 1;
        if state.senders == 0 {
            // Stream over: wake the receiver so it can observe the end.
            drop(state);
            self.shared.control.ring();
        }
    }
}

impl<T: Scalar> std::fmt::Debug for RequestSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestSender").finish_non_exhaustive()
    }
}

/// The receiving side of a bounded multi-producer request queue: the channel
/// between request producers (any number of threads) and the serving loop
/// that routes into engine pipelines.
///
/// Bounded on purpose — the queue is the server's admission control. Its
/// [`AdmissionPolicy`] decides what the bound does: block producers
/// (backpressure) or shed with typed [`RejectReason`]s (load shedding);
/// sends naming an unknown engine id are refused outright.
pub(crate) struct RequestQueue<T: Scalar> {
    shared: Arc<QueueShared<T>>,
}

impl<T: Scalar> RequestQueue<T> {
    /// Create a queue admitting under `policy`; admission consults the
    /// server's shared control state. Returns the first sender
    /// and the receiver.
    pub(crate) fn controlled(
        policy: AdmissionPolicy,
        control: Arc<ControlShared>,
    ) -> (RequestSender<T>, RequestQueue<T>) {
        let shared = Arc::new(QueueShared {
            state: Mutex::new(QueueState { items: VecDeque::new(), senders: 1, closed: false }),
            not_full: Condvar::new(),
            policy,
            control,
        });
        (RequestSender { shared: Arc::clone(&shared) }, RequestQueue { shared })
    }

    /// Dequeue the oldest request if one is already queued; never blocks.
    /// The serving loop's only receive: it parks on the control state's
    /// bell, which every send, the last sender's drop and
    /// [`RequestQueue::close`] ring.
    pub fn try_recv(&self) -> Result<ServerRequest<T>, TryRecvError> {
        let mut state = lock(&self.shared.state);
        match state.items.pop_front() {
            Some(item) => {
                self.shared.not_full.notify_one();
                Ok(item)
            }
            None if state.closed || state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Close the queue from the receiving side: pending requests are
    /// discarded, blocked and future
    /// [`RequestSender::send`] calls return [`SendError::Closed`]
    /// immediately, and receives report the stream over. The serving
    /// loop calls this before propagating an error so producers blocked on
    /// a full queue can never deadlock against a receiver that has stopped
    /// receiving. Dropping the queue closes it too.
    pub fn close(&self) {
        let mut state = lock(&self.shared.state);
        state.closed = true;
        state.items.clear();
        drop(state);
        self.shared.not_full.notify_all();
        self.shared.control.ring();
    }
}

impl<T: Scalar> Drop for RequestQueue<T> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn request(seed: u64) -> DenseMatrix<f32> {
        DenseMatrix::random(4, 2, seed)
    }

    /// A queue admitting under `policy` for a control state with four
    /// active engines (ids 0..=3).
    fn with_policy(policy: AdmissionPolicy) -> (RequestSender<f32>, RequestQueue<f32>) {
        let control = Arc::new(ControlShared::new(crate::runtime::WorkerPool::inline()));
        for _ in 0..4 {
            control.register_engine();
        }
        RequestQueue::controlled(policy, control)
    }

    fn bounded(capacity: usize) -> (RequestSender<f32>, RequestQueue<f32>) {
        with_policy(AdmissionPolicy::blocking(capacity))
    }

    /// Block until the next request (`None` at the end of the stream), the
    /// way the serving loop does: epoch first, then the queue, then park on
    /// the bell — a send or a last drop that failed to ring it hangs here.
    fn recv(queue: &RequestQueue<f32>) -> Option<ServerRequest<f32>> {
        let bell = queue.shared.control.bell();
        loop {
            let epoch = bell.epoch();
            match queue.try_recv() {
                Ok(request) => return Some(request),
                Err(TryRecvError::Disconnected) => return None,
                Err(TryRecvError::Empty) => bell.wait(epoch),
            }
        }
    }

    #[test]
    fn requests_arrive_in_order_across_producers() {
        let (sender, queue) = bounded(4);
        let received = std::thread::scope(|scope| {
            let s2 = sender.clone();
            scope.spawn(move || {
                for i in 0..20 {
                    assert!(s2.send(0, request(i)).is_ok());
                }
            });
            scope.spawn(move || {
                for i in 0..20 {
                    assert!(sender.send(1, request(100 + i)).is_ok());
                }
            });
            let mut per_engine = [0usize; 2];
            while let Some(req) = recv(&queue) {
                per_engine[req.engine] += 1;
            }
            per_engine
        });
        assert_eq!(received, [20, 20]);
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        let (sender, queue) = bounded(2);
        let enqueued = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            let counter = Arc::clone(&enqueued);
            scope.spawn(move || {
                for i in 0..6 {
                    assert!(sender.send(0, request(i)).is_ok());
                    counter.fetch_add(1, Ordering::SeqCst);
                }
            });
            // Handshake instead of a fixed sleep: wait for the producer to
            // fill the queue, where the bound parks it.
            while enqueued.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            assert!(
                enqueued.load(Ordering::SeqCst) <= 2,
                "producer ran past the queue bound before anything was consumed"
            );
            let mut popped = 0;
            while let Some(_req) = recv(&queue) {
                popped += 1;
                // Deterministic backpressure invariant: completed sends can
                // never run more than capacity (plus the one send a pop just
                // made room for) ahead of consumption.
                assert!(
                    enqueued.load(Ordering::SeqCst) <= popped + 3,
                    "producer ran past the queue bound (capacity 2 + 1 in-flight send)"
                );
            }
            assert_eq!(popped, 6);
        });
    }

    #[test]
    fn close_unblocks_producers_and_refuses_sends() {
        let (sender, queue) = bounded(1);
        assert!(sender.send(0, request(1)).is_ok());
        std::thread::scope(|scope| {
            let s = sender.clone();
            let sending = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&sending);
            let blocked = scope.spawn(move || {
                flag.store(true, Ordering::SeqCst);
                s.send(0, request(2))
            });
            // Handshake instead of a fixed sleep: once the flag is up the
            // producer is at (or about to park in) its send; closing now
            // must yield `Closed` either way, never a hang.
            while !sending.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            queue.close();
            assert_eq!(blocked.join().unwrap(), Err(SendError::Closed));
        });
        assert_eq!(
            sender.send(0, request(3)),
            Err(SendError::Closed),
            "closed queue must refuse new sends"
        );
        assert!(recv(&queue).is_none(), "closed queue must not hand out stale items");
    }

    #[test]
    fn dropping_all_senders_ends_the_stream() {
        let (sender, queue) = bounded(4);
        let clone = sender.clone();
        assert!(sender.send(0, request(1)).is_ok());
        drop(sender);
        assert!(clone.send(0, request(2)).is_ok());
        drop(clone);
        assert!(recv(&queue).is_some());
        assert!(recv(&queue).is_some());
        assert!(recv(&queue).is_none(), "drained queue with no senders ends the stream");
    }

    #[test]
    fn shedding_policy_rejects_at_the_bound_without_blocking() {
        let (sender, queue) = with_policy(AdmissionPolicy::shedding(2));
        assert!(sender.send(0, request(1)).is_ok());
        assert!(sender.send(0, request(2)).is_ok());
        // The bound: a typed rejection, immediately — no parked producer.
        assert_eq!(sender.send(0, request(3)), Err(SendError::Rejected(RejectReason::QueueFull)));
        // Draining one makes room again.
        assert!(recv(&queue).is_some());
        assert!(sender.send(0, request(4)).is_ok());
    }

    #[test]
    fn try_recv_never_blocks() {
        let (sender, queue) = bounded(4);
        assert_eq!(queue.try_recv().err(), Some(TryRecvError::Empty));
        assert!(sender.send(3, request(1)).is_ok());
        assert_eq!(queue.try_recv().map(|r| r.engine), Ok(3));
        assert_eq!(queue.try_recv().err(), Some(TryRecvError::Empty));
        // Idle and ended are different answers: what was queued before the
        // last sender went still comes out, then the stream is over.
        assert!(sender.send(2, request(2)).is_ok());
        drop(sender);
        assert_eq!(queue.try_recv().map(|r| r.engine), Ok(2));
        assert_eq!(queue.try_recv().err(), Some(TryRecvError::Disconnected));
    }
}
