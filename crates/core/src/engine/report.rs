//! The one launch report: every launch path — a blocking `execute*`, each
//! input of a [`crate::BatchStream`], each served request — returns one
//! [`ExecutionReport`]. Aggregates (percentiles, throughput) are the
//! caller's to compute from those; nothing here keeps samples.

use crate::schedule::Strategy;
use std::time::Duration;

/// Timing and configuration data for one launch: a blocking `execute*` call
/// or one input of a [`crate::BatchStream`] (for a sharded stream, the
/// input's critical path across its shard kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionReport {
    /// Total wall-clock time of the launch, dispatch included: the call
    /// itself for a blocking `execute*`; submission to join for a stream
    /// input — which inside a pipeline includes time queued behind the
    /// previous input and, for a stream driven at the caller's own pace,
    /// time the finished result waited to be collected.
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
