//! Sharded execution: split one huge matrix into K nnz-balanced row
//! shards, compile an independent JIT engine per shard, and execute them as
//! overlapped lane-capped launches on one shared [`crate::WorkerPool`].
//!
//! The paper's engines win by specializing generated code to one matrix —
//! but a single engine is still bounded by one launch pipeline and one
//! partition of one CSR. Sharding applies the same specialization *per
//! shard*: each contiguous row range becomes its own sub-matrix, its own
//! compiled kernel, and its own workload-division strategy chosen to match
//! the shard's local sparsity (dense shards take static row-split, skewed
//! shards the dynamic claim loop — the paper's §IV.B trade-off, decided
//! locally instead of once per matrix). At run time the K shard launches
//! overlap on disjoint, lane-capped worker subsets, exactly the way the
//! serving router overlaps heterogeneous engines.
//!
//! The layers, bottom-up:
//!
//! * [`plan_shards`] (`plan`) cuts the CSR into K contiguous row ranges
//!   balanced by non-zero count (greedy prefix-sum cut over the row-pointer
//!   array) and reports the achieved imbalance through the same
//!   [`crate::Partition::nnz_imbalance`] metric the scheduler uses; the
//!   resulting [`ShardPlan`] owns the extracted sub-matrices.
//! * [`ShardedSpmm`] (`engine`) compiles one [`crate::JitSpmm`] per shard
//!   on a shared pool (validated via [`crate::WorkerPool::same_pool`]).
//!   Every launch — [`ShardedSpmm::execute`] (a depth-1 stream),
//!   [`ShardedSpmm::execute_batch`] and [`ShardedSpmm::batch_stream`] — is
//!   one [`crate::BatchStream`] that launches all K shard kernels per
//!   input, each writing **directly into its row range** of one pooled
//!   full-height output; nothing is copied or allocated in steady state.
//!   Each input reports one [`crate::ExecutionReport`]: its critical path
//!   across the shards (the slowest shard's kernel, every shard's lanes).
//!   The plan's achieved balance is [`ShardPlan::nnz_imbalance`].
//!
//! The serving router reaches a sharded engine through its updatable form
//! ([`crate::update::MutableSpmm`], registered behind **one logical engine
//! id** by [`crate::serve::SpmmServer::add_mutable`]), so mixed-stream
//! routing and submission-order collection work unchanged.

mod engine;
mod plan;

#[cfg(test)]
mod shard_tests;

pub use engine::ShardedSpmm;
pub(crate) use plan::{choose_strategy, nnz_imbalance_of_specs};
pub use plan::{plan_shards, ShardPlan, ShardSpec};
