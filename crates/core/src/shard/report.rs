//! Aggregated sharded-execution statistics: per-shard [`BatchReport`]s
//! through the batch layer's reservoir, a merged critical-path view, and
//! the plan's achieved non-zero balance.

use crate::engine::{BatchReport, ExecutionReport};
use std::time::Duration;

/// Aggregated timing for one sharded run, returned by
/// [`crate::shard::ShardedSpmm::execute`] and
/// [`crate::shard::ShardedSpmm::execute_batch`].
///
/// Per-shard statistics reuse the batch layer's [`BatchReport`] — the same
/// bounded-reservoir kernel/dispatch p50/p99 — indexed by shard, so a run
/// can tell *which* shard is the straggler. `merged` aggregates the
/// per-input critical path across shards (an input is done when its slowest
/// shard is), which is what a caller of the sharded engine actually waits
/// for; `nnz_imbalance` restates the plan's achieved balance so a skewed
/// plan and a slow shard can be told apart.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Number of shards that executed.
    pub shards: usize,
    /// The plan's achieved non-zero balance (heaviest shard over average;
    /// 1.0 is perfect). A high tail in one shard's report together with an
    /// imbalance near 1.0 points at the hardware, not the plan.
    pub nnz_imbalance: f64,
    /// Per-input timing merged across shards: `kernel` is the slowest
    /// shard's critical path, `elapsed` spans submission to the last
    /// shard's join.
    pub merged: BatchReport,
    /// One [`BatchReport`] per shard, in row order.
    pub per_shard: Vec<BatchReport>,
}

impl ShardReport {
    /// Number of inputs executed (each input runs on every shard once).
    pub fn inputs(&self) -> usize {
        self.merged.inputs
    }

    /// Wall-clock time from the first submission to the last join.
    pub fn elapsed(&self) -> Duration {
        self.merged.elapsed
    }

    /// Inputs completed per second, with the same degenerate-denominator
    /// guards as [`BatchReport::throughput`].
    pub fn throughput(&self) -> f64 {
        self.merged.throughput()
    }

    /// The batch statistics of one shard, if the index is valid.
    pub fn shard(&self, index: usize) -> Option<&BatchReport> {
        self.per_shard.get(index)
    }
}

/// Merge per-shard launch reports for **one input** into its critical-path
/// view: the input is complete when its slowest shard is, so `elapsed` and
/// `kernel` take the maxima, `threads` sums the lanes the shards occupied,
/// and `strategy` is the slowest (critical) shard's — the one that governs
/// the input's latency. `reports` must be non-empty.
pub(crate) fn merge_input_reports(reports: &[ExecutionReport]) -> ExecutionReport {
    let critical = reports
        .iter()
        .max_by_key(|r| r.kernel)
        .expect("a sharded launch involves at least one shard");
    let elapsed = reports.iter().map(|r| r.elapsed).max().unwrap_or_default();
    let kernel = critical.kernel;
    ExecutionReport {
        elapsed,
        kernel,
        dispatch: elapsed.saturating_sub(kernel),
        // The input's handoff is not over until the slowest shard's worker
        // has picked its job up.
        wake: reports.iter().map(|r| r.wake).max().unwrap_or_default(),
        threads: reports.iter().map(|r| r.threads).sum(),
        strategy: critical.strategy,
    }
}

/// Build the single-launch [`BatchReport`] [`ShardReport`] uses for a
/// one-shot [`crate::shard::ShardedSpmm::execute`]: one input, so every
/// percentile *is* the measurement.
pub(crate) fn single_launch_report(report: &ExecutionReport, depth: usize) -> BatchReport {
    BatchReport {
        inputs: 1,
        elapsed: report.elapsed,
        depth,
        threads: report.threads,
        strategy: report.strategy,
        kernel_total: report.kernel,
        kernel_p50: report.kernel,
        kernel_p99: report.kernel,
        dispatch_p50: report.dispatch,
        dispatch_p99: report.dispatch,
        wake_p50: report.wake,
        wake_p99: report.wake,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Strategy;

    fn exec(
        kernel_ms: u64,
        elapsed_ms: u64,
        threads: usize,
        strategy: Strategy,
    ) -> ExecutionReport {
        let kernel = Duration::from_millis(kernel_ms);
        let elapsed = Duration::from_millis(elapsed_ms);
        ExecutionReport {
            elapsed,
            kernel,
            dispatch: elapsed.saturating_sub(kernel),
            wake: Duration::from_millis(kernel_ms.min(1)),
            threads,
            strategy,
        }
    }

    #[test]
    fn merged_report_takes_the_critical_path() {
        let merged = merge_input_reports(&[
            exec(3, 5, 1, Strategy::RowSplitStatic),
            exec(9, 10, 2, Strategy::row_split_dynamic_default()),
            exec(1, 12, 1, Strategy::RowSplitStatic),
        ]);
        assert_eq!(merged.kernel, Duration::from_millis(9));
        assert_eq!(merged.elapsed, Duration::from_millis(12));
        assert_eq!(merged.dispatch, Duration::from_millis(3));
        assert_eq!(merged.threads, 4);
        // The slowest *kernel* names the critical shard, whatever finished
        // last overall.
        assert!(merged.strategy.is_dynamic());
    }

    #[test]
    fn single_launch_report_percentiles_equal_the_measurement() {
        let r = exec(4, 6, 2, Strategy::RowSplitStatic);
        let b = single_launch_report(&r, 1);
        assert_eq!(b.inputs, 1);
        assert_eq!(b.kernel_p50, r.kernel);
        assert_eq!(b.kernel_p99, r.kernel);
        assert_eq!(b.dispatch_p50, r.dispatch);
        assert_eq!(b.kernel_total, r.kernel);
    }
}
