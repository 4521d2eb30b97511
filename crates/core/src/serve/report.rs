//! Whole-server serving counters: goodput, rejections, failures and the
//! wall clock they span.

use std::time::Duration;

/// The verdict counters of one serving run, returned by
/// [`crate::serve::SpmmServer::serve_controlled`]. Timing lives per request
/// (every [`crate::serve::ServerResponse::Completed`] carries its own
/// [`crate::ExecutionReport`]); this report only counts, and `requests`
/// counts **completed** work only.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Requests completed, across all engines — the goodput.
    pub requests: usize,
    /// Wall-clock time of the serve: from the producer's start to its
    /// return.
    pub elapsed: Duration,
    /// Requests refused by admission control — shed at an engine's
    /// in-flight bound, or naming an unknown engine id.
    pub rejected: usize,
    /// Requests admitted that failed (a contained worker panic, a wrong
    /// input shape).
    pub failed: usize,
}

impl ServerReport {
    /// Requests completed per second of wall-clock time; `0.0` for an empty
    /// run or one whose wall clock rounds to zero (never `NaN` or `inf`).
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 || self.requests == 0 {
            0.0
        } else {
            self.requests as f64 / secs
        }
    }

    /// Everything the producers offered: completed plus rejected and failed
    /// requests.
    pub fn offered(&self) -> usize {
        self.requests + self.rejected + self.failed
    }

    /// Fraction of offered load that was refused (0.0 for an empty run) —
    /// the dashboard's shed rate.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.rejected as f64 / offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> ServerReport {
        ServerReport { requests: 0, elapsed: Duration::ZERO, rejected: 0, failed: 0 }
    }

    #[test]
    fn throughput_guards_empty_and_zero_duration_runs() {
        // Empty run: no requests, regardless of the clock.
        let report = ServerReport { elapsed: Duration::from_millis(3), ..empty() };
        assert_eq!(report.throughput(), 0.0);
        // Zero-duration run: a tiny mixed stream whose wall clock rounds to
        // zero must not produce inf/NaN.
        let instant = ServerReport { requests: 5, ..empty() };
        assert_eq!(instant.throughput(), 0.0);
        assert!(instant.throughput().is_finite());
        // The regular case still computes a rate.
        let normal = ServerReport { requests: 8, elapsed: Duration::from_secs(4), ..empty() };
        assert!((normal.throughput() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn shed_rate_separates_goodput_from_offered_load() {
        assert_eq!(empty().shed_rate(), 0.0);
        let report = ServerReport { requests: 6, rejected: 4, failed: 2, ..empty() };
        assert_eq!(report.offered(), 12);
        assert!((report.shed_rate() - 4.0 / 12.0).abs() < 1e-12);
    }
}
