//! The [`JitSpmm`] engine: compile once, execute many times.
//!
//! The engine is layered into one module per concern, bottom-up:
//!
//! | module | layer |
//! |---|---|
//! | `options` | configuration: [`SpmmOptions`], [`JitSpmmBuilder`] |
//! | `compile` | [`JitSpmm`] construction: codegen, partitioning, the immutable compiled core, spare slot kernels |
//! | `launch` | single launches: `execute*`, `execute_async`, [`ExecutionHandle`], the launch lock |
//! | `batch` | the pipelined stream: `execute_batch`, [`BatchStream`] over 1..K shard kernels, owned-input slots |
//! | `report` | timing aggregation: [`ExecutionReport`], [`BatchReport`], reservoir percentiles |
//!
//! Everything public is re-exported here, so the paths callers use
//! (`jitspmm::engine::JitSpmm`, `jitspmm::BatchStream`, …) are unchanged
//! from when the engine was a single file. The multi-engine serving router
//! in [`crate::serve`] builds on the launch and batch layers.

mod batch;
mod compile;
mod launch;
mod options;
mod report;

#[cfg(test)]
mod batch_tests;
#[cfg(test)]
mod launch_tests;

pub(crate) use batch::run_batch;
pub use batch::{BatchStream, DEFAULT_BATCH_DEPTH};
pub use compile::JitSpmm;
pub use launch::ExecutionHandle;
pub use options::{JitSpmmBuilder, SpmmOptions};
pub use report::{BatchReport, ExecutionReport};

pub(crate) use report::BatchStats;
