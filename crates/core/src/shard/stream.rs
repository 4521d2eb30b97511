//! The pipelined sharded stream: one [`BatchStream`] per shard engine,
//! driven in lockstep, with completed shard outputs stitched into
//! full-height pooled results.

use crate::engine::BatchStats;
use crate::engine::{BatchStream, ExecutionReport};
use crate::error::JitSpmmError;
use crate::runtime::PooledMatrix;
use crate::shard::engine::ShardedSpmm;
use crate::shard::report::{merge_input_reports, ShardReport};
use jitspmm_sparse::{DenseMatrix, Scalar};
use std::sync::Arc;
use std::time::Instant;

/// A pipelined stream of sharded SpMM executions, created by
/// [`ShardedSpmm::batch_stream`] (or driven for you by
/// [`ShardedSpmm::execute_batch`]).
///
/// Every pushed input is fanned out to **all** shard pipelines; because the
/// per-shard [`BatchStream`]s share one depth and receive the same push
/// sequence, they complete in lockstep — when the pipelines are full, a
/// push hands back the oldest input's K shard outputs at once, which are
/// stitched (one contiguous row-range copy per shard) into a full-height
/// output borrowed from the sharded engine's buffer pool. Results come back
/// in submission order, exactly like a single-engine [`BatchStream`].
///
/// The stream holds every shard engine's launch lock until it is finished
/// or dropped; dropping it mid-batch joins the in-flight shard launches and
/// discards their outputs.
pub struct ShardedStream<'scope, 'env, T: Scalar> {
    sharded: &'env ShardedSpmm<'env, T>,
    /// One pipeline per shard, in row order.
    streams: Vec<BatchStream<'scope, 'env, T>>,
    /// Per-input merged (critical-path) statistics, through the batch
    /// layer's bounded reservoir.
    merged: BatchStats,
    first_submit: Option<Instant>,
}

impl<'scope, 'env, T: Scalar> ShardedStream<'scope, 'env, T> {
    pub(crate) fn new(
        sharded: &'env ShardedSpmm<'env, T>,
        streams: Vec<BatchStream<'scope, 'env, T>>,
    ) -> ShardedStream<'scope, 'env, T> {
        ShardedStream { sharded, streams, merged: BatchStats::default(), first_submit: None }
    }

    /// The per-shard pipeline depth (every shard stream shares it).
    pub fn depth(&self) -> usize {
        self.streams[0].depth()
    }

    /// Number of inputs currently in flight across the shard pipelines.
    pub fn in_flight(&self) -> usize {
        self.streams[0].in_flight()
    }

    /// Fan the next input out to every shard pipeline. If the pipelines are
    /// at depth, the oldest input's shard outputs are collected first and
    /// its stitched full-height result returned; otherwise `None`, without
    /// blocking.
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::ShapeMismatch`] — before anything is submitted — if
    /// `x` is not `A.ncols() x d`; the pipelines are unaffected.
    ///
    /// # Panics
    ///
    /// Re-raises a worker panic from a completed shard launch (the stream
    /// is then dropped by unwinding, which joins the remaining launches and
    /// releases every shard engine).
    pub fn push(
        &mut self,
        x: &'env DenseMatrix<T>,
    ) -> Result<Option<(PooledMatrix<T>, ExecutionReport)>, JitSpmmError> {
        self.sharded.check_input_shape(x)?;
        Ok(self.push_validated(x))
    }

    /// [`ShardedStream::push`] for pre-validated borrowed inputs
    /// ([`ShardedSpmm::execute_batch`] hoists the shape checks).
    pub(crate) fn push_validated(
        &mut self,
        x: &'env DenseMatrix<T>,
    ) -> Option<(PooledMatrix<T>, ExecutionReport)> {
        self.first_submit.get_or_insert_with(Instant::now);
        let pieces: Vec<_> = self.streams.iter_mut().map(|s| s.push_validated(x)).collect();
        self.collect(pieces)
    }

    /// [`ShardedStream::push`] for an input handed over by shared handle:
    /// every shard pipeline keeps one `Arc` clone alive until its own
    /// launch has been joined, so cross-thread producers (the serving
    /// router) need no `'env` borrows. Validation is the caller's job.
    pub(crate) fn push_shared_validated(
        &mut self,
        x: Arc<DenseMatrix<T>>,
    ) -> Option<(PooledMatrix<T>, ExecutionReport)> {
        self.first_submit.get_or_insert_with(Instant::now);
        let pieces: Vec<_> =
            self.streams.iter_mut().map(|s| s.push_shared_validated(Arc::clone(&x))).collect();
        self.collect(pieces)
    }

    /// Stitch one input's completed shard pieces into a full-height pooled
    /// output and record its merged report. The shard pipelines move in
    /// lockstep (same depth, same push sequence), so either every stream
    /// completed its oldest input or none did.
    fn collect(
        &mut self,
        pieces: Vec<Option<(PooledMatrix<T>, ExecutionReport)>>,
    ) -> Option<(PooledMatrix<T>, ExecutionReport)> {
        if pieces.iter().all(Option::is_none) {
            return None;
        }
        let pieces: Vec<(PooledMatrix<T>, ExecutionReport)> = pieces
            .into_iter()
            .map(|p| p.expect("lockstep shard pipelines complete together"))
            .collect();
        let (full, report) = self.stitch(pieces);
        self.merged.record(&report);
        Some((full, report))
    }

    /// Copy each shard piece into its row range of a fresh pooled
    /// full-height output (one contiguous `memcpy` per shard — a shard's
    /// rows are contiguous in both buffers) and merge the per-shard
    /// reports. Dropping the pieces recycles the shard buffers.
    fn stitch(
        &self,
        pieces: Vec<(PooledMatrix<T>, ExecutionReport)>,
    ) -> (PooledMatrix<T>, ExecutionReport) {
        let d = self.sharded.d();
        let mut full = self.sharded.acquire_output();
        let out = full.as_mut_slice();
        let mut reports = Vec::with_capacity(pieces.len());
        for (spec, (piece, report)) in self.sharded.plan().shards().iter().zip(pieces) {
            out[spec.rows.start * d..spec.rows.end * d].copy_from_slice(piece.as_slice());
            reports.push(report);
        }
        (full, merge_input_reports(&reports))
    }

    /// Join the oldest in-flight input across the lockstep shard pipelines,
    /// if any, and stitch its full-height result — the one-at-a-time drain
    /// the serving loop uses. A panic from one shard's join
    /// unwinds with every pipeline's bookkeeping already restored, but the
    /// completed sibling pieces of that input are discarded with the
    /// unwind; the serving layer treats a sharded-lane panic as poisoning
    /// the lane.
    pub(crate) fn complete_next(&mut self) -> Option<(PooledMatrix<T>, ExecutionReport)> {
        if self.in_flight() == 0 {
            return None;
        }
        let pieces: Vec<_> = self
            .streams
            .iter_mut()
            .map(|s| s.complete_next().expect("lockstep shard pipelines complete together"))
            .collect();
        let (full, report) = self.stitch(pieces);
        self.merged.record(&report);
        Some((full, report))
    }

    /// Drain every shard pipeline, stitch the remaining inputs (oldest
    /// first) and aggregate the [`ShardReport`]. The returned results are
    /// the ones not already handed out by [`ShardedStream::push`], in
    /// submission order.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic among the remaining launches, after
    /// all of them have been joined.
    pub fn finish(mut self) -> (Vec<(PooledMatrix<T>, ExecutionReport)>, ShardReport) {
        let streams = std::mem::take(&mut self.streams);
        let mut per_shard = Vec::with_capacity(streams.len());
        let mut rests: Vec<std::vec::IntoIter<(PooledMatrix<T>, ExecutionReport)>> = Vec::new();
        for stream in streams {
            let (rest, report) = stream.finish();
            rests.push(rest.into_iter());
            per_shard.push(report);
        }
        let mut results = Vec::new();
        loop {
            let pieces: Vec<_> = rests.iter_mut().map(Iterator::next).collect();
            if pieces.iter().all(Option::is_none) {
                break;
            }
            let pieces: Vec<_> = pieces
                .into_iter()
                .map(|p| p.expect("lockstep shard pipelines drain together"))
                .collect();
            let (full, report) = self.stitch(pieces);
            self.merged.record(&report);
            results.push((full, report));
        }
        let elapsed = self.first_submit.map(|t| t.elapsed()).unwrap_or_default();
        let depth = per_shard.first().map(|r| r.depth).unwrap_or(1);
        let threads = per_shard.iter().map(|r| r.threads).sum();
        let merged = std::mem::take(&mut self.merged).report(
            elapsed,
            depth,
            threads,
            self.sharded.dominant_strategy(),
        );
        let report = ShardReport {
            shards: per_shard.len(),
            nnz_imbalance: self.sharded.plan().nnz_imbalance(),
            merged,
            per_shard,
        };
        (results, report)
    }
}

impl<T: Scalar> std::fmt::Debug for ShardedStream<'_, '_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStream")
            .field("shards", &self.streams.len())
            .field("completed", &self.merged.count)
            .finish()
    }
}
