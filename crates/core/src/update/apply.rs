//! The update engine: turn a validated [`DeltaBatch`] into the next
//! generation — a shard-local merge, a full re-plan when the delta has
//! skewed the shard balance too far, and one fresh compile of every shard
//! either way.

use super::delta::split_by_shard;
use super::{Generation, MutableSpmm};
use crate::error::JitSpmmError;
use crate::shard::{choose_strategy, nnz_imbalance_of_specs, plan_shards, ShardPlan, ShardSpec};
use jitspmm_sparse::{CsrMatrix, DeltaBatch, Scalar};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

/// Shard-nnz imbalance (heaviest over average) above which an update stops
/// patching shards in place and re-cuts the whole matrix. The planner
/// targets ~1.10 and tolerates 1.25 before switching strategies; letting
/// drift run to 1.5x keeps updates cheap while bounding how unbalanced the
/// overlapped shard launches can become before a re-plan pays for itself.
pub(crate) const REPLAN_THRESHOLD: f64 = 1.5;

/// What one [`MutableSpmm::apply`] did: which path it took and how much of
/// the matrix it re-merged (every shard recompiles either way). The
/// differential and stability test suites read these; servers log them.
#[derive(Debug, Clone, Copy)]
pub struct UpdateReport {
    /// The revision the engine is at after this apply (unchanged for an
    /// empty delta).
    pub revision: u64,
    /// Distinct matrix rows the delta touched.
    pub touched_rows: usize,
    /// Shards the delta landed in (0 for an empty delta).
    pub touched_shards: usize,
    /// Whether drift past the re-plan threshold forced a full re-cut.
    pub replanned: bool,
    /// The new generation's achieved shard-nnz imbalance.
    pub nnz_imbalance: f64,
    /// Wall-clock time of the whole apply: split, merge, (re-)plan,
    /// compile, publish.
    pub elapsed: Duration,
}

impl<T: Scalar> MutableSpmm<T> {
    /// The core of [`MutableSpmm::apply`]: the caller holds the writer
    /// mutex, so the generation read here is the one this call replaces.
    /// Every fallible step happens before the publish — on error the
    /// previous generation keeps serving untouched.
    pub(super) fn apply_serialized(
        &self,
        delta: &DeltaBatch<T>,
    ) -> Result<UpdateReport, JitSpmmError> {
        let started = Instant::now();
        delta
            .validate(self.nrows, self.ncols)
            .map_err(|e| JitSpmmError::InvalidConfig(format!("delta batch: {e}")))?;
        let current = self.current();
        if delta.is_empty() {
            return Ok(UpdateReport {
                revision: current.revision,
                touched_rows: 0,
                touched_shards: 0,
                replanned: false,
                nnz_imbalance: current.plan.nnz_imbalance(),
                elapsed: started.elapsed(),
            });
        }
        let revision = current.revision + 1;
        let touched_rows = delta.touched_rows().len();
        let locals = split_by_shard(&current.plan, delta);
        let touched_shards = locals.iter().filter(|l| l.is_some()).count();

        // Rebuild specs shard by shard: untouched shards clone their spec
        // matrix (sharing the previous generation's non-zero storage —
        // only the O(rows) row-pointer vector is copied), touched shards
        // merge their rebased slice of the delta into fresh storage and
        // get their strategy re-judged against the merged local sparsity.
        let mut specs: Vec<ShardSpec<T>> = Vec::with_capacity(locals.len());
        for (spec, local) in current.plan.shards().iter().zip(&locals) {
            let built = match local {
                None => ShardSpec {
                    rows: spec.rows,
                    matrix: spec.matrix.clone(),
                    strategy: spec.strategy,
                },
                Some(local) => {
                    let merged = spec.matrix.apply_delta(local).map_err(|e| {
                        JitSpmmError::InvalidConfig(format!("shard delta merge: {e}"))
                    })?;
                    let strategy = choose_strategy(&merged, current.plan.lanes());
                    ShardSpec { rows: spec.rows, matrix: merged, strategy }
                }
            };
            specs.push(built);
        }

        // Past the threshold, re-cut the whole merged matrix at the
        // originally requested shard count (the merged matrix itself is
        // transient: the plan's share_rows views keep its storage alive);
        // otherwise keep the cut points. Either plan then compiles every
        // shard fresh — nothing compiled crosses a generation — inheriting
        // only the full-height output pool.
        let replanned = nnz_imbalance_of_specs(&specs) > REPLAN_THRESHOLD;
        let lanes = current.plan.lanes();
        let plan = if replanned {
            plan_shards(&concat_specs(&specs, self.ncols), self.shard_request, lanes)?
        } else {
            ShardPlan::from_parts(specs, self.ncols, lanes)
        };
        let next = Generation::compile(
            plan,
            revision,
            self.d,
            self.pool.clone(),
            Some(&current),
            &self.live,
        )?;
        let nnz_imbalance = next.plan.nnz_imbalance();
        // The publish: swap the pointer, then let go of the superseded
        // generation outside the lock. It is freed here unless an open
        // stream still pins it, in which case that stream frees it.
        let replaced = std::mem::replace(
            &mut *self.generation.write().unwrap_or_else(PoisonError::into_inner),
            Arc::new(next),
        );
        drop((replaced, current));
        Ok(UpdateReport {
            revision,
            touched_rows,
            touched_shards,
            replanned,
            nnz_imbalance,
            elapsed: started.elapsed(),
        })
    }
}

/// Concatenate contiguous shard sub-matrices back into one owned full
/// matrix: cumulative row pointers, concatenated column/value arrays. The
/// inverse of planning's extract step; used by the re-plan path and
/// [`MutableSpmm::merged_matrix`].
///
/// # Panics
///
/// The specs come from a valid plan (contiguous, sorted, per-row sorted
/// columns), so reconstruction cannot fail; a failure here is an internal
/// invariant violation.
pub(super) fn concat_specs<T: Scalar>(specs: &[ShardSpec<T>], ncols: usize) -> CsrMatrix<T> {
    let nrows = specs.last().map_or(0, |s| s.rows.end);
    let nnz: usize = specs.iter().map(ShardSpec::nnz).sum();
    let mut row_ptr: Vec<u64> = Vec::with_capacity(nrows + 1);
    let mut cols: Vec<u32> = Vec::with_capacity(nnz);
    let mut vals: Vec<T> = Vec::with_capacity(nnz);
    row_ptr.push(0);
    for spec in specs {
        let base = *row_ptr.last().expect("row_ptr starts non-empty");
        row_ptr.extend(spec.matrix.row_ptr()[1..].iter().map(|&p| base + p));
        cols.extend_from_slice(spec.matrix.col_indices());
        vals.extend_from_slice(spec.matrix.values());
    }
    CsrMatrix::from_raw_parts(nrows, ncols, row_ptr, cols, vals)
        .expect("concatenating a valid plan's shards always reconstructs a valid CSR")
}
