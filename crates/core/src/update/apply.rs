//! The update engine: turn a validated [`DeltaBatch`] into the next
//! generation — shard-local merge + recompile on the incremental path, a
//! full re-plan when the delta has skewed the shard balance too far.

use super::delta::split_by_shard;
use super::{Generation, MutableSpmm};
use crate::engine::JitSpmm;
use crate::error::JitSpmmError;
use crate::shard::{choose_strategy, nnz_imbalance_of_specs, plan_shards, ShardPlan, ShardSpec};
use jitspmm_sparse::{CsrMatrix, DeltaBatch, Scalar};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shard-nnz imbalance (heaviest over average) above which an update stops
/// patching shards in place and re-cuts the whole matrix. The planner
/// targets ~1.10 and tolerates 1.25 before switching strategies; letting
/// drift run to 1.5x keeps updates cheap while bounding how unbalanced the
/// overlapped shard launches can become before a re-plan pays for itself.
pub(crate) const REPLAN_THRESHOLD: f64 = 1.5;

/// What one [`MutableSpmm::apply`] did: which path it took, how much it
/// rebuilt, and what it reused. The differential and stability test suites
/// read these; servers log them.
#[derive(Debug, Clone, Copy)]
pub struct UpdateReport {
    /// The revision the engine is at after this apply (unchanged for an
    /// empty delta).
    pub revision: u64,
    /// Distinct matrix rows the delta touched.
    pub touched_rows: usize,
    /// Shards the delta landed in (0 for an empty delta).
    pub touched_shards: usize,
    /// Shards recompiled: the touched count on the incremental path, every
    /// shard of the new plan after a re-plan.
    pub rebuilt_shards: usize,
    /// Shards whose compiled cores were adopted pointer-identically (0
    /// after a re-plan).
    pub reused_shards: usize,
    /// Whether drift past the re-plan threshold forced a full re-cut.
    pub replanned: bool,
    /// The new generation's achieved shard-nnz imbalance.
    pub nnz_imbalance: f64,
    /// Wall-clock time of the whole apply: split, merge, (re-)plan,
    /// compile, swap.
    pub elapsed: Duration,
}

impl<T: Scalar> MutableSpmm<T> {
    /// The locked core of [`MutableSpmm::apply`]: the caller holds the
    /// generation write lock, so no launch is in flight and the vector can
    /// grow. Every fallible step happens before the push — on error the
    /// previous generation keeps serving untouched.
    pub(super) fn apply_locked(
        &self,
        generations: &mut Vec<Arc<Generation<T>>>,
        delta: &DeltaBatch<T>,
    ) -> Result<UpdateReport, JitSpmmError> {
        let started = Instant::now();
        delta
            .validate(self.nrows, self.ncols)
            .map_err(|e| JitSpmmError::InvalidConfig(format!("delta batch: {e}")))?;
        let current = Arc::clone(generations.last().expect("always one generation"));
        if delta.is_empty() {
            return Ok(UpdateReport {
                revision: current.revision,
                touched_rows: 0,
                touched_shards: 0,
                rebuilt_shards: 0,
                reused_shards: current.plan.len(),
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

        let drifted = nnz_imbalance_of_specs(&specs);
        let generation = if drifted > REPLAN_THRESHOLD {
            // Drift exceeded the threshold: re-cut the whole merged matrix
            // at the originally requested shard count and compile fresh
            // (no donors — the cut points moved, so no shard is guaranteed
            // content-identical). The merged matrix itself is transient:
            // the plan's share_rows views keep its storage alive.
            let merged = concat_specs(&specs, self.ncols);
            let plan = plan_shards(&merged, self.shard_request, current.plan.lanes())?;
            Generation::compile(
                plan,
                revision,
                self.d,
                self.pool.clone(),
                &[],
                Some(&current.engine),
            )?
        } else {
            // Incremental path: keep the cut points, adopt every untouched
            // shard's compiled core from the current generation, recompile
            // only the touched shards.
            let plan = ShardPlan::from_parts(specs, self.ncols, current.plan.lanes());
            let donors: Vec<Option<&JitSpmm<'_, T>>> = locals
                .iter()
                .zip(current.engine.engines())
                .map(|(local, engine)| local.is_none().then_some(engine))
                .collect();
            Generation::compile(
                plan,
                revision,
                self.d,
                self.pool.clone(),
                &donors,
                Some(&current.engine),
            )?
        };
        let replanned = drifted > REPLAN_THRESHOLD;
        let report = UpdateReport {
            revision,
            touched_rows,
            touched_shards,
            rebuilt_shards: if replanned { generation.plan.len() } else { touched_shards },
            reused_shards: if replanned { 0 } else { generation.plan.len() - touched_shards },
            replanned,
            nnz_imbalance: generation.plan.nnz_imbalance(),
            elapsed: Duration::ZERO, // stamped below, after the push
        };
        generations.push(generation);
        Ok(UpdateReport { elapsed: started.elapsed(), ..report })
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
