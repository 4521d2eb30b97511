//! Aggregated serving statistics: one [`BatchReport`] per engine plus
//! whole-server throughput and the reject/fail counters.

use crate::engine::BatchReport;
use std::time::Duration;

/// Aggregated timing for one serving run, returned by
/// [`crate::serve::SpmmServer::serve_controlled`].
///
/// Per-engine statistics reuse the batch layer's [`BatchReport`] — the same
/// bounded-reservoir kernel/dispatch p50/p99 a single-engine batch reports —
/// indexed by engine id, so a serving dashboard can tell *which* engine's
/// tail is misbehaving. The whole-server numbers (`requests`, `elapsed`,
/// [`ServerReport::throughput`]) span the mixed stream end to end, and the
/// outcome counters (`rejected`, `failed`) separate goodput from offered
/// load: `requests` counts **completed** work only.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Total requests completed (a [`crate::serve::ServerResponse`] with an
    /// output), across all engines — the goodput.
    pub requests: usize,
    /// Wall-clock time from the first submission to the last join.
    pub elapsed: Duration,
    /// Requests refused by admission control or the router — queue-full
    /// shedding, unknown engine ids.
    pub rejected: usize,
    /// Requests that were launched but failed — a worker panic converted to
    /// a typed [`crate::serve::ServerResponse::Failed`], or a shape
    /// mismatch caught at routing time.
    pub failed: usize,
    /// Per-engine batch statistics, indexed by engine id. An engine that
    /// received no requests reports `inputs == 0`.
    pub per_engine: Vec<BatchReport>,
}

impl ServerReport {
    /// Requests completed per second of serving wall-clock time, across all
    /// engines. Guarded exactly like [`BatchReport::throughput`]: an empty
    /// run and a run whose wall clock rounds to zero both report `0.0`
    /// rather than dividing by zero.
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

    /// The batch statistics of one engine, if the id is valid.
    pub fn engine(&self, id: usize) -> Option<&BatchReport> {
        self.per_engine.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> ServerReport {
        ServerReport {
            requests: 0,
            elapsed: Duration::ZERO,
            rejected: 0,
            failed: 0,
            per_engine: Vec::new(),
        }
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

    #[test]
    fn engine_lookup_is_bounds_checked() {
        assert!(empty().engine(0).is_none());
    }
}
