//! Timing aggregation: per-launch [`ExecutionReport`]s, per-batch
//! [`BatchReport`]s and the bounded reservoir sampling behind the
//! percentile statistics. The serving layer's
//! [`crate::serve::ServerReport`] aggregates one [`BatchReport`] per engine
//! through the same machinery.

use crate::schedule::Strategy;
use std::time::Duration;

/// Timing and configuration data for one `execute` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionReport {
    /// Total wall-clock time of the call, dispatch included.
    pub elapsed: Duration,
    /// Critical-path kernel time: the longest busy time of any participating
    /// lane while executing the compiled kernel.
    pub kernel: Duration,
    /// Overhead outside the kernel (`elapsed - kernel`): job submission,
    /// worker wake-up and join. With the persistent pool this is a few
    /// microseconds, where spawn-per-call paid tens per execution.
    pub dispatch: Duration,
    /// The wake (handoff) component of `dispatch`: time from the launch's
    /// enqueue until the first participant claimed a task — the cost of
    /// getting a parked worker onto the job (futex or condvar, see
    /// [`crate::WakeSlot`]). Zero for launches that ran inline on the
    /// calling thread (single-thread engines, zero-worker pools), where no
    /// handoff happens at all.
    pub wake: Duration,
    /// Number of worker lanes used.
    pub threads: usize,
    /// Strategy used.
    pub strategy: Strategy,
}

/// Aggregated timing for one batch, returned by
/// [`crate::JitSpmm::execute_batch`] and
/// [`crate::BatchStream::finish`](crate::BatchStream::finish).
///
/// Per-input timing follows [`ExecutionReport`]: `kernel` is a launch's
/// critical-path kernel time, `dispatch` is everything else between its
/// submission and its join — which, inside a pipeline, includes time spent
/// queued behind the previous input *and*, when a
/// [`crate::BatchStream`] is driven at the caller's own pace, time a
/// finished result waited for the caller to collect it. Dispatch percentiles
/// therefore measure runtime overhead only when the stream is driven
/// back-to-back (as [`crate::JitSpmm::execute_batch`] does); for a paced
/// stream they measure end-to-end result latency. The report keeps order
/// statistics (p50 and p99, nearest-rank; past 4096 inputs, estimated from a
/// uniform reservoir sample) rather than just means, because a serving
/// system's tail is what its clients feel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchReport {
    /// Number of inputs executed.
    pub inputs: usize,
    /// Wall-clock time from the first submission to the last join.
    pub elapsed: Duration,
    /// Pipeline depth used (launches kept in flight at once).
    pub depth: usize,
    /// Worker lanes per input: the engine's configured lane count, summed
    /// over the shard engines for a sharded stream.
    pub threads: usize,
    /// Strategy of the engine that ran the batch.
    pub strategy: Strategy,
    /// Sum of per-input critical-path kernel times.
    pub kernel_total: Duration,
    /// Median per-input kernel time.
    pub kernel_p50: Duration,
    /// 99th-percentile per-input kernel time.
    pub kernel_p99: Duration,
    /// Median per-input dispatch (non-kernel) time.
    pub dispatch_p50: Duration,
    /// 99th-percentile per-input dispatch time.
    pub dispatch_p99: Duration,
    /// Median per-input wake (handoff) time — the enqueue→first-claim
    /// component of dispatch (see [`ExecutionReport::wake`]).
    pub wake_p50: Duration,
    /// 99th-percentile per-input wake time.
    pub wake_p99: Duration,
}

impl BatchReport {
    /// Inputs completed per second of batch wall-clock time. Guarded against
    /// the two degenerate denominators a serving loop can produce: an empty
    /// batch and a batch so small its wall clock rounds to zero both report
    /// `0.0` instead of dividing by zero (which for floats would yield `NaN`
    /// or `inf` and poison any aggregate built on top).
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 || self.inputs == 0 {
            0.0
        } else {
            self.inputs as f64 / secs
        }
    }
}

/// Nearest-rank percentile of a **sorted** duration slice (`pct` in 0..=100);
/// zero for an empty slice.
pub(super) fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Upper bound on the per-input timing samples a stream retains for the
/// percentile report. An unbounded stream must run in O(1) memory, so past
/// this many inputs the samples become a uniform reservoir (Vitter's
/// algorithm R) — `inputs` and `kernel_total` stay exact, the percentiles
/// become estimates over an unbiased sample.
pub(super) const MAX_BATCH_SAMPLES: usize = 4096;

/// Per-input samples accumulated while a batch runs: exact counters plus a
/// bounded uniform reservoir of (kernel, dispatch) sample pairs.
#[derive(Default)]
pub(crate) struct BatchStats {
    kernel: Vec<Duration>,
    dispatch: Vec<Duration>,
    wake: Vec<Duration>,
    /// Exact number of inputs recorded (the reservoir may hold fewer).
    pub(crate) count: usize,
    kernel_total: Duration,
    /// Deterministic LCG state for reservoir replacement (no RNG
    /// dependency; statistical uniformity is all the percentiles need).
    rng: u64,
}

impl BatchStats {
    pub(crate) fn record(&mut self, report: &ExecutionReport) {
        self.count += 1;
        self.kernel_total += report.kernel;
        if self.kernel.len() < MAX_BATCH_SAMPLES {
            self.kernel.push(report.kernel);
            self.dispatch.push(report.dispatch);
            self.wake.push(report.wake);
            return;
        }
        // Algorithm R: the i-th input replaces a uniformly drawn reservoir
        // slot with probability MAX_BATCH_SAMPLES / i.
        self.rng = self.rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let slot = (self.rng >> 33) as usize % self.count;
        if slot < MAX_BATCH_SAMPLES {
            self.kernel[slot] = report.kernel;
            self.dispatch[slot] = report.dispatch;
            self.wake[slot] = report.wake;
        }
    }

    pub(crate) fn report(
        mut self,
        elapsed: Duration,
        depth: usize,
        threads: usize,
        strategy: Strategy,
    ) -> BatchReport {
        self.kernel.sort_unstable();
        self.dispatch.sort_unstable();
        self.wake.sort_unstable();
        BatchReport {
            inputs: self.count,
            elapsed,
            depth,
            threads,
            strategy,
            kernel_total: self.kernel_total,
            kernel_p50: percentile(&self.kernel, 50.0),
            kernel_p99: percentile(&self.kernel, 99.0),
            dispatch_p50: percentile(&self.dispatch, 50.0),
            dispatch_p99: percentile(&self.dispatch, 99.0),
            wake_p50: percentile(&self.wake, 50.0),
            wake_p99: percentile(&self.wake, 99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_stats_stay_bounded_for_unbounded_streams() {
        // An unbounded stream must run in O(1) memory: past the reservoir
        // bound the sample vectors stop growing while the exact counters
        // keep counting.
        let mut stats = BatchStats::default();
        let total = MAX_BATCH_SAMPLES + 1_000;
        for i in 0..total {
            let kernel = Duration::from_nanos(1 + i as u64);
            stats.record(&ExecutionReport {
                elapsed: kernel * 2,
                kernel,
                dispatch: kernel,
                wake: kernel / 2,
                threads: 1,
                strategy: Strategy::RowSplitStatic,
            });
        }
        assert_eq!(stats.count, total);
        assert_eq!(stats.kernel.len(), MAX_BATCH_SAMPLES);
        assert_eq!(stats.dispatch.len(), MAX_BATCH_SAMPLES);
        let report = stats.report(Duration::from_secs(1), 2, 1, Strategy::RowSplitStatic);
        assert_eq!(report.inputs, total);
        assert!(report.kernel_p50 <= report.kernel_p99);
        assert!(report.kernel_p99 <= Duration::from_nanos(total as u64));
        assert!(report.wake_p50 <= report.wake_p99);
        assert!(report.wake_p99 <= report.dispatch_p99);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 50.0), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 99.0), Duration::from_millis(99));
        assert_eq!(percentile(&ms, 100.0), Duration::from_millis(100));
        let one = [Duration::from_millis(7)];
        assert_eq!(percentile(&one, 50.0), one[0]);
        assert_eq!(percentile(&one, 99.0), one[0]);
    }

    fn report_with(inputs: usize, elapsed: Duration) -> BatchReport {
        BatchReport {
            inputs,
            elapsed,
            depth: 1,
            threads: 1,
            strategy: Strategy::RowSplitStatic,
            kernel_total: Duration::ZERO,
            kernel_p50: Duration::ZERO,
            kernel_p99: Duration::ZERO,
            dispatch_p50: Duration::ZERO,
            dispatch_p99: Duration::ZERO,
            wake_p50: Duration::ZERO,
            wake_p99: Duration::ZERO,
        }
    }

    #[test]
    fn throughput_is_zero_for_empty_batches() {
        // An empty batch has nothing per second, whatever the clock says —
        // including a nonzero elapsed (a stream opened, fed nothing, and
        // finished later must not report infinite or negative-zero rates).
        assert_eq!(report_with(0, Duration::ZERO).throughput(), 0.0);
        assert_eq!(report_with(0, Duration::from_millis(5)).throughput(), 0.0);
    }

    #[test]
    fn throughput_is_zero_for_zero_duration_batches() {
        // A batch whose wall clock rounds to zero must not divide by it.
        let r = report_with(17, Duration::ZERO);
        assert_eq!(r.throughput(), 0.0);
        assert!(r.throughput().is_finite());
        // The regular case still computes a rate.
        let r = report_with(10, Duration::from_secs(2));
        assert!((r.throughput() - 5.0).abs() < 1e-9);
    }
}
