//! Edge-level deltas against a CSR matrix — the data layer behind the
//! dynamic-graph subsystem in `jitspmm` (`crates/core/src/update/`).
//!
//! A [`DeltaBatch`] is an ordered list of edge mutations — inserts,
//! value overwrites and deletes — recorded against a *base* matrix whose
//! dimensions never change (dynamic graphs mutate edges, not the vertex
//! set). Applying a batch produces a new [`CsrMatrix`]; the base is
//! untouched, as CSR non-zero arrays are immutable for a matrix's whole
//! lifetime (JIT engines borrow them and hand their addresses to every
//! launch).
//!
//! Two merge shapes are provided:
//!
//! * [`CsrMatrix::apply_delta`] — materialize the whole merged matrix.
//!   This is the from-scratch oracle the differential tests compare
//!   against, and the path the shard layer takes when a delta skews the
//!   nnz balance enough to force a full replan.
//! * [`CsrMatrix::apply_delta_rows`] — materialize only rows
//!   `start..end` of the merged matrix, as an owned sub-matrix. The
//!   shard layer calls this per *touched* shard and keeps every
//!   untouched shard as a zero-copy [`CsrMatrix::share_rows`]-style
//!   clone of the base, so a delta confined to one shard re-materializes
//!   one shard's non-zeros, not the whole graph's.
//!
//! # Semantics
//!
//! Ops apply in batch order; for several ops on the same `(row, col)`
//! the **last one wins** (an upsert after a delete re-inserts, a delete
//! after an upsert removes). [`DeltaOp::Upsert`] inserts the entry or
//! overwrites its stored value if present; [`DeltaOp::Delete`] removes
//! the entry and is a no-op when the entry is structurally absent.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;

/// One edge mutation against a base matrix. See the module docs for the
/// exact last-op-wins semantics of batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaOp<T> {
    /// Insert `(row, col) = value`, or overwrite the stored value when
    /// the entry already exists.
    Upsert {
        /// Row of the mutated entry.
        row: usize,
        /// Column of the mutated entry.
        col: usize,
        /// New value.
        value: T,
    },
    /// Remove the entry at `(row, col)`; removing a structurally absent
    /// entry is a no-op.
    Delete {
        /// Row of the removed entry.
        row: usize,
        /// Column of the removed entry.
        col: usize,
    },
}

impl<T> DeltaOp<T> {
    /// Row this op touches.
    #[inline]
    pub fn row(&self) -> usize {
        match self {
            DeltaOp::Upsert { row, .. } | DeltaOp::Delete { row, .. } => *row,
        }
    }

    /// Column this op touches.
    #[inline]
    pub fn col(&self) -> usize {
        match self {
            DeltaOp::Upsert { col, .. } | DeltaOp::Delete { col, .. } => *col,
        }
    }
}

/// An ordered batch of edge mutations to apply against a base matrix.
///
/// ```
/// use jitspmm_sparse::{CsrMatrix, DeltaBatch};
///
/// let base = CsrMatrix::<f32>::from_triplets(2, 3, &[(0, 0, 1.0), (1, 2, 5.0)]).unwrap();
/// let mut delta = DeltaBatch::new();
/// delta.upsert(0, 1, 2.0); // insert a new edge
/// delta.upsert(1, 2, 7.0); // overwrite an existing value
/// delta.delete(0, 0); // remove an edge
/// let merged = base.apply_delta(&delta).unwrap();
/// assert_eq!(merged.get(0, 0), None);
/// assert_eq!(merged.get(0, 1), Some(2.0));
/// assert_eq!(merged.get(1, 2), Some(7.0));
/// assert_eq!(base.get(1, 2), Some(5.0), "the base is untouched");
/// ```
#[derive(Debug, Clone)]
pub struct DeltaBatch<T> {
    ops: Vec<DeltaOp<T>>,
}

impl<T> Default for DeltaBatch<T> {
    fn default() -> Self {
        DeltaBatch { ops: Vec::new() }
    }
}

impl<T: Scalar> DeltaBatch<T> {
    /// An empty batch.
    pub fn new() -> DeltaBatch<T> {
        DeltaBatch { ops: Vec::new() }
    }

    /// An empty batch with room for `cap` ops.
    pub fn with_capacity(cap: usize) -> DeltaBatch<T> {
        DeltaBatch { ops: Vec::with_capacity(cap) }
    }

    /// Append an insert-or-overwrite of `(row, col) = value`.
    pub fn upsert(&mut self, row: usize, col: usize, value: T) -> &mut Self {
        self.ops.push(DeltaOp::Upsert { row, col, value });
        self
    }

    /// Append a removal of `(row, col)` (no-op if absent at apply time).
    pub fn delete(&mut self, row: usize, col: usize) -> &mut Self {
        self.ops.push(DeltaOp::Delete { row, col });
        self
    }

    /// Append an arbitrary op.
    pub fn push(&mut self, op: DeltaOp<T>) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[DeltaOp<T>] {
        &self.ops
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Check every op against the base dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] for the first op outside
    /// an `nrows x ncols` matrix.
    pub fn validate(&self, nrows: usize, ncols: usize) -> Result<(), SparseError> {
        for op in &self.ops {
            if op.row() >= nrows || op.col() >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: op.row(),
                    col: op.col(),
                    nrows,
                    ncols,
                });
            }
        }
        Ok(())
    }

    /// The distinct rows this batch touches, sorted ascending. A shard
    /// whose row range contains none of these is untouched by the batch
    /// and can keep its compiled kernel as-is.
    pub fn touched_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.ops.iter().map(DeltaOp::row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Collapse the batch to one effective op per `(row, col)` — the
    /// last in batch order — sorted by `(row, col)`. `Some(v)` is an
    /// upsert, `None` a delete. This is the normal form both merge
    /// shapes consume, so a range merge composed shard by shard is
    /// guaranteed to agree with the whole-matrix merge.
    fn normalized(&self) -> Vec<(usize, u32, Option<T>)> {
        let mut tagged: Vec<(usize, u32, Option<T>)> = self
            .ops
            .iter()
            .map(|op| match *op {
                DeltaOp::Upsert { row, col, value } => (row, col as u32, Some(value)),
                DeltaOp::Delete { row, col } => (row, col as u32, None),
            })
            .collect();
        // Stable sort: equal (row, col) keys keep batch order, so the
        // trailing one of each run is the last-written op.
        tagged.sort_by_key(|&(row, col, _)| (row, col));
        let mut normal: Vec<(usize, u32, Option<T>)> = Vec::with_capacity(tagged.len());
        for op in tagged {
            match normal.last_mut() {
                Some(last) if last.0 == op.0 && last.1 == op.1 => *last = op,
                _ => normal.push(op),
            }
        }
        normal
    }
}

impl<T: Scalar> CsrMatrix<T> {
    /// Materialize the whole matrix with `delta` applied. The base is
    /// untouched; see the module docs of [`crate::delta`] for op
    /// semantics. This is the from-scratch oracle — the shard layer's
    /// incremental path ([`CsrMatrix::apply_delta_rows`] per touched
    /// shard) produces bit-identical rows.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if any op falls outside
    /// the base dimensions.
    pub fn apply_delta(&self, delta: &DeltaBatch<T>) -> Result<CsrMatrix<T>, SparseError> {
        self.apply_delta_rows(0, self.nrows(), delta)
    }

    /// Materialize rows `start..end` of the merged matrix as an owned
    /// sub-matrix (row `i` of the result is row `start + i` of the
    /// merge). Ops on rows outside the range are bounds-checked but not
    /// applied, so one global batch can be applied shard by shard and
    /// the concatenation of the per-shard results equals
    /// [`CsrMatrix::apply_delta`]. Each run of rows no op touches is
    /// copied with one slice copy per array; only touched rows are merged,
    /// so the cost is a copy of the range plus a merge per touched row.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if any op (in or out of
    /// range) falls outside the base dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.nrows()`.
    pub fn apply_delta_rows(
        &self,
        start: usize,
        end: usize,
        delta: &DeltaBatch<T>,
    ) -> Result<CsrMatrix<T>, SparseError> {
        assert!(
            start <= end && end <= self.nrows(),
            "row range {start}..{end} exceeds nrows = {}",
            self.nrows()
        );
        delta.validate(self.nrows(), self.ncols())?;
        let ops = delta.normalized();
        // The slice of normalized ops that lands inside the range.
        let lo = ops.partition_point(|&(row, _, _)| row < start);
        let hi = ops.partition_point(|&(row, _, _)| row < end);
        let ops = &ops[lo..hi];

        let base_ptr = self.row_ptr();
        let (base_cols, base_vals) = (self.col_indices(), self.values());
        let base_nnz = (base_ptr[end] - base_ptr[start]) as usize;
        let mut row_ptr: Vec<u64> = Vec::with_capacity(end - start + 1);
        let mut cols: Vec<u32> = Vec::with_capacity(base_nnz + ops.len());
        let mut vals: Vec<T> = Vec::with_capacity(base_nnz + ops.len());
        row_ptr.push(0);
        // Rows `row..next` carry no op: copy them with one slice copy per
        // array and shift their row pointers by where the run lands in the
        // output. Then merge row `next`, the first one an op touches.
        let (mut row, mut ops) = (start, ops);
        loop {
            let next = ops.first().map_or(end, |&(op_row, _, _)| op_row);
            let (run_lo, run_hi) = (base_ptr[row] as usize, base_ptr[next] as usize);
            let landed = cols.len() as u64;
            cols.extend_from_slice(&base_cols[run_lo..run_hi]);
            vals.extend_from_slice(&base_vals[run_lo..run_hi]);
            let shift = |&p: &u64| p - run_lo as u64 + landed;
            row_ptr.extend(base_ptr[row + 1..=next].iter().map(shift));
            if next == end {
                break;
            }
            let touched = ops.partition_point(|&(op_row, _, _)| op_row == next);
            merge_row(
                self.row_cols(next),
                self.row_values(next),
                &ops[..touched],
                &mut cols,
                &mut vals,
            );
            row_ptr.push(cols.len() as u64);
            (row, ops) = (next + 1, &ops[touched..]);
        }
        // Re-validating on construction is cheap insurance: the merge is
        // sorted by construction, so this can only fail on internal bugs.
        CsrMatrix::from_raw_parts(end - start, self.ncols(), row_ptr, cols, vals)
    }
}

/// Merge one base row (sorted `base_cols`/`base_vals`) with its
/// normalized ops (sorted by column, one per column) into the output
/// arrays — a classic two-pointer sorted merge.
fn merge_row<T: Scalar>(
    base_cols: &[u32],
    base_vals: &[T],
    row_ops: &[(usize, u32, Option<T>)],
    cols: &mut Vec<u32>,
    vals: &mut Vec<T>,
) {
    let mut b = 0usize;
    let mut o = 0usize;
    while b < base_cols.len() || o < row_ops.len() {
        let base_col = base_cols.get(b).copied();
        let op_col = row_ops.get(o).map(|&(_, col, _)| col);
        match (base_col, op_col) {
            (Some(bc), Some(oc)) if bc < oc => {
                cols.push(bc);
                vals.push(base_vals[b]);
                b += 1;
            }
            (Some(bc), Some(oc)) if bc > oc => {
                if let Some(value) = row_ops[o].2 {
                    cols.push(oc);
                    vals.push(value);
                }
                o += 1;
            }
            (Some(_), Some(_)) => {
                // Same column: the op shadows the base entry (overwrite
                // or delete).
                if let Some(value) = row_ops[o].2 {
                    cols.push(base_cols[b]);
                    vals.push(value);
                }
                b += 1;
                o += 1;
            }
            (Some(bc), None) => {
                cols.push(bc);
                vals.push(base_vals[b]);
                b += 1;
            }
            (None, Some(oc)) => {
                if let Some(value) = row_ops[o].2 {
                    cols.push(oc);
                    vals.push(value);
                }
                o += 1;
            }
            (None, None) => unreachable!("loop condition guarantees one side remains"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The row-by-row merge the bulk one replaced, kept as its reference:
    /// every row in range goes through `merge_row`, with or without ops.
    fn apply_delta_rows_by_row(
        m: &CsrMatrix<f32>,
        start: usize,
        end: usize,
        delta: &DeltaBatch<f32>,
    ) -> CsrMatrix<f32> {
        let ops = delta.normalized();
        let lo = ops.partition_point(|&(row, _, _)| row < start);
        let hi = ops.partition_point(|&(row, _, _)| row < end);
        let ops = &ops[lo..hi];
        let (mut row_ptr, mut cols, mut vals) = (vec![0u64], Vec::new(), Vec::new());
        let mut cursor = 0usize;
        for row in start..end {
            let row_ops_end =
                cursor + ops[cursor..].partition_point(|&(op_row, _, _)| op_row == row);
            merge_row(
                m.row_cols(row),
                m.row_values(row),
                &ops[cursor..row_ops_end],
                &mut cols,
                &mut vals,
            );
            cursor = row_ops_end;
            row_ptr.push(cols.len() as u64);
        }
        CsrMatrix::from_raw_parts(end - start, m.ncols(), row_ptr, cols, vals).unwrap()
    }

    /// A small matrix (possibly a row-range view of a larger one, so its
    /// storage window does not start at zero) and a batch whose ops favour
    /// the first and the last row and are deletes a third of the time.
    fn arb_case() -> impl Strategy<Value = (CsrMatrix<f32>, DeltaBatch<f32>)> {
        (1usize..12, 1usize..8, 0usize..3).prop_flat_map(|(nrows, ncols, skip)| {
            let entries = collection::vec((0..nrows + skip, 0..ncols, -4.0f32..4.0f32), 0..40);
            let ops = collection::vec((0usize..4, 0..nrows, 0..ncols, 0usize..3), 0..10);
            (Just((nrows, ncols, skip)), entries, ops).prop_map(
                |((nrows, ncols, skip), entries, ops)| {
                    let full = CsrMatrix::from_triplets(nrows + skip, ncols, &entries).unwrap();
                    let mut delta = DeltaBatch::new();
                    for (place, row, col, kind) in ops {
                        let row = [0, nrows - 1, row, row][place];
                        if kind == 0 {
                            delta.delete(row, col);
                        } else {
                            delta.upsert(row, col, kind as f32 + col as f32 / 8.0);
                        }
                    }
                    (full.share_rows(skip, skip + nrows), delta)
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bulk merge equals the row-by-row merge on every sub-range,
        /// the empty batch included.
        #[test]
        fn bulk_merge_matches_the_row_by_row_merge((m, delta) in arb_case()) {
            for start in 0..=m.nrows() {
                for end in start..=m.nrows() {
                    let bulk = m.apply_delta_rows(start, end, &delta).unwrap();
                    prop_assert_eq!(bulk, apply_delta_rows_by_row(&m, start, end, &delta));
                }
            }
        }
    }

    #[test]
    fn bulk_merge_handles_edge_rows_and_delete_only_rows() {
        let m = base();
        let mut delta = DeltaBatch::new();
        delta.upsert(0, 1, 2.0); // the first row
        delta.delete(2, 2).delete(2, 3); // a delete-only row, emptied
        delta.delete(3, 0).upsert(3, 0, 6.0).delete(3, 3); // the last row
        for (start, end) in [(0, 4), (0, 1), (1, 3), (2, 4), (3, 4), (2, 2)] {
            let bulk = m.apply_delta_rows(start, end, &delta).unwrap();
            assert_eq!(bulk, apply_delta_rows_by_row(&m, start, end, &delta), "{start}..{end}");
        }
        let merged = m.apply_delta(&delta).unwrap();
        assert_eq!(merged.row_cols(0), &[0, 1, 2]);
        assert!(merged.row_cols(2).is_empty());
        assert_eq!(merged.row_cols(3), &[0, 1, 2]);
        assert_eq!(merged.get(3, 0), Some(6.0));
    }

    fn base() -> CsrMatrix<f32> {
        CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 2, 1.5),
                (2, 2, 3.0),
                (2, 3, 3.5),
                (3, 0, 4.0),
                (3, 1, 4.5),
                (3, 2, 5.0),
                (3, 3, 5.5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn empty_delta_is_identity() {
        let m = base();
        let merged = m.apply_delta(&DeltaBatch::new()).unwrap();
        assert_eq!(merged, m);
        assert!(!merged.shares_storage_with(&m), "merge materializes fresh storage");
    }

    #[test]
    fn upsert_inserts_and_overwrites() {
        let m = base();
        let mut delta = DeltaBatch::new();
        delta.upsert(1, 1, 9.0); // insert into an empty row
        delta.upsert(0, 3, 8.0); // append past the row's last column
        delta.upsert(2, 2, -3.0); // overwrite in place
        let merged = m.apply_delta(&delta).unwrap();
        assert_eq!(merged.get(1, 1), Some(9.0));
        assert_eq!(merged.get(0, 3), Some(8.0));
        assert_eq!(merged.get(2, 2), Some(-3.0));
        assert_eq!(merged.nnz(), m.nnz() + 2);
        // Untouched entries carried over bit for bit.
        assert_eq!(merged.get(3, 1), Some(4.5));
    }

    #[test]
    fn delete_removes_and_ignores_absent() {
        let m = base();
        let mut delta = DeltaBatch::new();
        delta.delete(3, 2);
        delta.delete(1, 0); // absent: no-op
        let merged = m.apply_delta(&delta).unwrap();
        assert_eq!(merged.get(3, 2), None);
        assert_eq!(merged.nnz(), m.nnz() - 1);
        assert_eq!(merged.row_cols(3), &[0, 1, 3]);
    }

    #[test]
    fn last_op_wins_per_position() {
        let m = base();
        let mut delta = DeltaBatch::new();
        delta.upsert(0, 1, 1.0).delete(0, 1); // net: absent
        delta.delete(2, 2).upsert(2, 2, 7.0); // net: 7.0
        delta.upsert(3, 3, 1.0).upsert(3, 3, 2.0); // net: 2.0
        let merged = m.apply_delta(&delta).unwrap();
        assert_eq!(merged.get(0, 1), None);
        assert_eq!(merged.get(2, 2), Some(7.0));
        assert_eq!(merged.get(3, 3), Some(2.0));
    }

    #[test]
    fn validate_rejects_out_of_bounds() {
        let m = base();
        let mut delta = DeltaBatch::new();
        delta.upsert(0, 9, 1.0);
        assert!(matches!(m.apply_delta(&delta), Err(SparseError::IndexOutOfBounds { col: 9, .. })));
        let mut delta = DeltaBatch::<f32>::new();
        delta.delete(9, 0);
        assert!(delta.validate(4, 4).is_err());
        // Out-of-range ops poison the whole batch even for a row-range
        // merge that would not apply them.
        let mut delta = DeltaBatch::new();
        delta.upsert(3, 9, 1.0);
        assert!(m.apply_delta_rows(0, 1, &delta).is_err());
    }

    #[test]
    fn touched_rows_sorted_dedup() {
        let mut delta = DeltaBatch::<f32>::new();
        delta.upsert(5, 0, 1.0).delete(2, 1).upsert(5, 3, 2.0).delete(0, 0);
        assert_eq!(delta.touched_rows(), vec![0, 2, 5]);
        assert!(DeltaBatch::<f32>::new().touched_rows().is_empty());
    }

    #[test]
    fn range_merge_composes_to_full_merge() {
        let m = base();
        let mut delta = DeltaBatch::new();
        delta.upsert(0, 3, 8.0).delete(3, 0).upsert(1, 2, 6.0).upsert(2, 2, -1.0);
        let full = m.apply_delta(&delta).unwrap();
        // Split at every possible cut: the two halves always concatenate
        // to the full merge.
        for cut in 0..=m.nrows() {
            let top = m.apply_delta_rows(0, cut, &delta).unwrap();
            let bottom = m.apply_delta_rows(cut, m.nrows(), &delta).unwrap();
            assert_eq!(top.nrows() + bottom.nrows(), full.nrows());
            assert_eq!(top.nnz() + bottom.nnz(), full.nnz());
            for r in 0..cut {
                assert_eq!(top.row_cols(r), full.row_cols(r));
                assert_eq!(top.row_values(r), full.row_values(r));
            }
            for r in cut..m.nrows() {
                assert_eq!(bottom.row_cols(r - cut), full.row_cols(r));
                assert_eq!(bottom.row_values(r - cut), full.row_values(r));
            }
        }
    }

    #[test]
    fn merge_matches_triplet_rebuild() {
        // Oracle: apply the same edits to a triplet list and rebuild.
        let m = base();
        let mut delta = DeltaBatch::new();
        delta.upsert(1, 0, 2.0).delete(0, 0).upsert(3, 2, -5.0).delete(2, 3).upsert(1, 3, 4.0);
        let merged = m.apply_delta(&delta).unwrap();
        let mut entries: std::collections::BTreeMap<(usize, usize), f32> =
            m.iter().map(|(r, c, v)| ((r, c), v)).collect();
        entries.insert((1, 0), 2.0);
        entries.remove(&(0, 0));
        entries.insert((3, 2), -5.0);
        entries.remove(&(2, 3));
        entries.insert((1, 3), 4.0);
        let triplets: Vec<(usize, usize, f32)> =
            entries.into_iter().map(|((r, c), v)| (r, c, v)).collect();
        let rebuilt = CsrMatrix::from_triplets(4, 4, &triplets).unwrap();
        assert_eq!(merged, rebuilt);
    }

    #[test]
    fn delta_against_view_applies_in_view_coordinates() {
        let m = base();
        let view = m.share_rows(2, 4);
        let mut delta = DeltaBatch::new();
        delta.upsert(0, 0, 9.0); // row 0 of the view = row 2 of the parent
        let merged = view.apply_delta(&delta).unwrap();
        assert_eq!(merged.get(0, 0), Some(9.0));
        assert_eq!(merged.get(1, 0), Some(4.0));
        assert_eq!(m.get(2, 0), None, "parent untouched");
    }
}
