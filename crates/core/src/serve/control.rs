//! Admission: how many requests one engine runs at once, and the typed
//! reasons a request is refused.

/// Why a request was refused instead of executed. Carried by
/// [`crate::serve::ServerResponse::Rejected`] and
/// [`crate::serve::SendError::Rejected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The engine already ran as many requests as the
    /// [`AdmissionPolicy`] allows, and the request was shed.
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

/// Why [`crate::serve::RequestSender::send_request`] refused a request: the
/// server keeps serving, and later sends may succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// Admission refused the request (overload, bad id).
    Rejected(RejectReason),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Rejected(reason) => write!(f, "request rejected: {reason}"),
        }
    }
}

impl std::error::Error for SendError {}

/// How [`crate::serve::SpmmServer::handle`] admits requests: at most `n`
/// run on one engine at once; one more is shed with [`RejectReason::QueueFull`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Requests one engine may run at once; at least 1.
    pub(crate) max_in_flight: usize,
}

impl AdmissionPolicy {
    /// At most `max_in_flight` requests per engine (at least one); the next
    /// is shed. `k` threads that each send one request at a time never have
    /// more than `k` in flight, so `shedding(k)` sheds nothing for them.
    pub fn shedding(max_in_flight: usize) -> AdmissionPolicy {
        AdmissionPolicy { max_in_flight: max_in_flight.max(1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_policy_clamps_and_composes() {
        assert_eq!(AdmissionPolicy::shedding(0).max_in_flight, 1);
        assert_ne!(AdmissionPolicy::shedding(4), AdmissionPolicy::shedding(5));
        assert_eq!(
            SendError::Rejected(RejectReason::QueueFull).to_string(),
            "request rejected: admission queue full"
        );
    }
}
