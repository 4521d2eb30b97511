//! The [`JitSpmm`] engine: compile once, execute many times.
//!
//! The engine is layered into one module per concern, bottom-up:
//!
//! | module | layer |
//! |---|---|
//! | `options` | configuration: [`SpmmOptions`], [`JitSpmmBuilder`] |
//! | `compile` | [`JitSpmm`] construction: codegen, partitioning, the immutable compiled core, the one input-shape check |
//! | `launch` | blocking launches: `execute`, `execute_into`, `execute_single_thread` |
//! | `batch` | every deferred launch: `execute_batch`, [`BatchStream`] over 1..K shard kernels, owned-input slots, the per-input critical-path merge |
//! | `report` | [`ExecutionReport`], the one report every launch returns |
//!
//! Everything public is re-exported here, so the paths callers use
//! (`jitspmm::engine::JitSpmm`, `jitspmm::BatchStream`, …) are unchanged
//! from when the engine was a single file. The sharded, mutable and serving
//! layers launch only through [`BatchStream`]. Every launch owns its
//! operands block and claim counter, so launches of one engine may overlap
//! freely.

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
pub use options::{JitSpmmBuilder, SpmmOptions};
pub use report::ExecutionReport;
