//! Workload division: row-split, nnz-split and merge-split (§IV.B).
//!
//! All three strategies partition the sparse matrix's rows across threads;
//! they differ in *what* they balance:
//!
//! * **row-split** gives every thread the same number of rows (and, in its
//!   dynamic variant, hands out fixed-size row batches through an atomic
//!   counter — Listing 1),
//! * **nnz-split** gives every thread (approximately) the same number of
//!   non-zeros,
//! * **merge-split** balances the *sum* of rows and non-zeros, following the
//!   merge-path formulation of Merrill & Garland.
//!
//! The nnz-split and merge-split boundaries are found with a binary search
//! over the row-pointer array, exactly as described in §IV.B.2; the search
//! runs on the host (it is `O(threads · log nnz)` and far too cheap to
//! matter), while the per-range computation runs inside the generated
//! kernel.

use jitspmm_sparse::{CsrMatrix, Scalar};
use std::sync::atomic::{AtomicU64, Ordering};

/// The workload-division strategy used to distribute rows across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Contiguous, equally sized row blocks per thread.
    RowSplitStatic,
    /// Dynamic row dispatching: threads repeatedly claim `batch` rows from a
    /// shared atomic counter with `lock xadd` (Listing 1). The paper uses a
    /// batch size of 128.
    RowSplitDynamic {
        /// Number of rows claimed per atomic increment.
        batch: usize,
    },
    /// Equal numbers of non-zeros per thread (row-granular).
    NnzSplit,
    /// Balanced rows + non-zeros per thread (row-granular merge path).
    MergeSplit,
}

impl Strategy {
    /// The dynamic row-split strategy with the paper's default batch of 128.
    pub const fn row_split_dynamic_default() -> Strategy {
        Strategy::RowSplitDynamic { batch: 128 }
    }

    /// Stable, unambiguous name used as the key in reports and benchmark
    /// JSON. Every distinct configuration renders distinctly — in
    /// particular, dynamic row-split includes its batch size
    /// (`row-split(dynamic,batch=128)`), so JSON rows from different batch
    /// sizes can be told apart, and it can never collide with
    /// `row-split(static)`.
    pub fn name(&self) -> String {
        match self {
            Strategy::RowSplitStatic => "row-split(static)".to_string(),
            Strategy::RowSplitDynamic { batch } => format!("row-split(dynamic,batch={batch})"),
            Strategy::NnzSplit => "nnz-split".to_string(),
            Strategy::MergeSplit => "merge-split".to_string(),
        }
    }

    /// Whether this strategy distributes work dynamically at run time (as
    /// opposed to a precomputed static partition).
    pub fn is_dynamic(&self) -> bool {
        matches!(self, Strategy::RowSplitDynamic { .. })
    }

    /// The three strategies evaluated throughout the paper's figures, in the
    /// order they appear there.
    pub fn paper_set() -> [Strategy; 3] {
        [Strategy::row_split_dynamic_default(), Strategy::NnzSplit, Strategy::MergeSplit]
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// A contiguous range of rows assigned to one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRange {
    /// First row (inclusive).
    pub start: usize,
    /// One past the last row (exclusive).
    pub end: usize,
}

impl RowRange {
    /// Number of rows in the range.
    ///
    /// Saturating: [`RowRange::is_empty`] admits inverted ranges
    /// (`start > end`, e.g. from a partitioner whose boundaries crossed), so
    /// `len` treats them as empty instead of underflowing.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the range contains no rows.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Number of non-zeros of `matrix` that fall inside this row range.
    /// Shared by the partition metrics and the shard planner, so every
    /// balance report counts the same way.
    pub fn nnz_in<T: Scalar>(&self, matrix: &CsrMatrix<T>) -> u64 {
        if self.is_empty() {
            return 0;
        }
        matrix.row_ptr()[self.end] - matrix.row_ptr()[self.start]
    }
}

/// A static partition of the matrix rows into per-thread ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// One row range per thread (possibly empty for surplus threads).
    pub ranges: Vec<RowRange>,
}

impl Partition {
    /// Number of per-thread ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the partition holds no ranges.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The largest number of non-zeros assigned to any single range —
    /// the quantity whose imbalance row-split suffers from (§IV.B.1).
    pub fn max_nnz<T: Scalar>(&self, matrix: &CsrMatrix<T>) -> u64 {
        max_nnz_of(&self.ranges, matrix)
    }

    /// Ratio between the heaviest range and the average, by non-zero count.
    ///
    /// Returns the true ratio `max_nnz / (nnz / ranges)`: a perfectly
    /// balanced partition scores 1.0, and concentrating all non-zeros in one
    /// of `k` ranges scores `k` — even when `nnz < ranges` (the average is
    /// then below one non-zero per range, and the ratio is correspondingly
    /// large). An empty matrix or empty partition has nothing to balance and
    /// reports 1.0 explicitly.
    pub fn nnz_imbalance<T: Scalar>(&self, matrix: &CsrMatrix<T>) -> f64 {
        nnz_imbalance_of(&self.ranges, matrix)
    }
}

/// [`Partition::max_nnz`] on a borrowed slice of ranges, so callers that
/// hold a `Vec<RowRange>` (the shard planner) don't need to clone it into a
/// `Partition` just to measure it.
pub fn max_nnz_of<T: Scalar>(ranges: &[RowRange], matrix: &CsrMatrix<T>) -> u64 {
    ranges.iter().map(|r| r.nnz_in(matrix)).max().unwrap_or(0)
}

/// [`Partition::nnz_imbalance`] on a borrowed slice of ranges (same metric,
/// same degenerate-case guards — see the method docs).
pub fn nnz_imbalance_of<T: Scalar>(ranges: &[RowRange], matrix: &CsrMatrix<T>) -> f64 {
    if matrix.nnz() == 0 || ranges.is_empty() {
        return 1.0;
    }
    let avg = matrix.nnz() as f64 / ranges.len() as f64;
    max_nnz_of(ranges, matrix) as f64 / avg
}

/// Row-split: contiguous blocks of `ceil(nrows / threads)` rows.
pub fn partition_row_split<T: Scalar>(matrix: &CsrMatrix<T>, threads: usize) -> Partition {
    let threads = threads.max(1);
    let nrows = matrix.nrows();
    let per = nrows.div_ceil(threads.max(1)).max(1);
    let ranges = (0..threads)
        .map(|t| {
            let start = (t * per).min(nrows);
            let end = ((t + 1) * per).min(nrows);
            RowRange { start, end }
        })
        .collect();
    Partition { ranges }
}

/// nnz-split: choose row boundaries so every thread receives approximately
/// `nnz / threads` non-zeros, via binary search on the row-pointer array.
pub fn partition_nnz_split<T: Scalar>(matrix: &CsrMatrix<T>, threads: usize) -> Partition {
    let threads = threads.max(1);
    let row_ptr = matrix.row_ptr();
    let nnz = matrix.nnz() as u64;
    let nrows = matrix.nrows();
    let mut boundaries = Vec::with_capacity(threads + 1);
    boundaries.push(0usize);
    for t in 1..threads {
        let target = nnz * t as u64 / threads as u64;
        // First row whose starting offset is >= target.
        let row = row_ptr.partition_point(|&p| p < target).min(nrows);
        boundaries.push(row.max(*boundaries.last().unwrap()));
    }
    boundaries.push(nrows);
    let ranges = boundaries.windows(2).map(|w| RowRange { start: w[0], end: w[1] }).collect();
    Partition { ranges }
}

/// merge-split: balance `rows + nnz` per thread (the row-granular merge-path
/// decomposition of Merrill & Garland), again via binary search.
pub fn partition_merge_split<T: Scalar>(matrix: &CsrMatrix<T>, threads: usize) -> Partition {
    let threads = threads.max(1);
    let row_ptr = matrix.row_ptr();
    let nrows = matrix.nrows();
    let total_work = nrows as u64 + matrix.nnz() as u64;
    let mut boundaries = Vec::with_capacity(threads + 1);
    boundaries.push(0usize);
    for t in 1..threads {
        let target = total_work * t as u64 / threads as u64;
        // Work consumed after finishing row r is (r + 1) + row_ptr[r + 1];
        // find the first row boundary whose cumulative work reaches target.
        let mut lo = 0usize;
        let mut hi = nrows;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let work = mid as u64 + row_ptr[mid];
            if work < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        boundaries.push(lo.max(*boundaries.last().unwrap()).min(nrows));
    }
    boundaries.push(nrows);
    let ranges = boundaries.windows(2).map(|w| RowRange { start: w[0], end: w[1] }).collect();
    Partition { ranges }
}

/// Compute the static partition for `strategy` (dynamic row-split has no
/// static partition and returns one covering range per thread for fallback
/// purposes).
pub fn partition<T: Scalar>(
    matrix: &CsrMatrix<T>,
    strategy: Strategy,
    threads: usize,
) -> Partition {
    match strategy {
        Strategy::RowSplitStatic | Strategy::RowSplitDynamic { .. } => {
            partition_row_split(matrix, threads)
        }
        Strategy::NnzSplit => partition_nnz_split(matrix, threads),
        Strategy::MergeSplit => partition_merge_split(matrix, threads),
    }
}

/// A shared row-claim counter for dynamic row dispatching in the Rust
/// baselines: the host-side equivalent of the JIT kernel's claim loop.
///
/// # Invariant
///
/// A counter belongs to one launch: it starts at row zero and every lane of
/// that launch claims from it, so no row is handed out twice. The JIT
/// kernels follow the same rule with a counter of their own, carried in
/// each launch's argument block rather than in a `DynamicCounter`.
#[derive(Debug, Default)]
pub struct DynamicCounter {
    next: AtomicU64,
}

impl DynamicCounter {
    /// A counter starting at row zero.
    pub fn new() -> DynamicCounter {
        DynamicCounter { next: AtomicU64::new(0) }
    }

    /// Current value (for tests and diagnostics).
    pub fn load(&self) -> u64 {
        self.next.load(Ordering::SeqCst)
    }

    /// Host-side equivalent of the generated claim sequence; used by the
    /// Rust baselines and by tests.
    pub fn claim(&self, batch: u64) -> u64 {
        self.next.fetch_add(batch, Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitspmm_sparse::generate;

    fn skewed() -> CsrMatrix<f32> {
        generate::rmat(10, 20_000, generate::RmatConfig::GRAPH500, 1)
    }

    fn check_covers_all_rows(p: &Partition, nrows: usize) {
        assert_eq!(p.ranges.first().unwrap().start, 0);
        assert_eq!(p.ranges.last().unwrap().end, nrows);
        for w in p.ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
        }
    }

    #[test]
    fn row_split_counts_rows_evenly() {
        let m = skewed();
        let p = partition_row_split(&m, 8);
        check_covers_all_rows(&p, m.nrows());
        let lens: Vec<usize> = p.ranges.iter().map(|r| r.len()).collect();
        let max = lens.iter().max().unwrap();
        let min = lens.iter().filter(|&&l| l > 0).min().unwrap();
        assert!(max - min <= 128, "row counts should be nearly equal: {lens:?}");
    }

    #[test]
    fn nnz_split_balances_nonzeros() {
        let m = skewed();
        let row = partition_row_split(&m, 8);
        let nnz = partition_nnz_split(&m, 8);
        check_covers_all_rows(&nnz, m.nrows());
        assert!(
            nnz.nnz_imbalance(&m) <= row.nnz_imbalance(&m) + 1e-9,
            "nnz-split ({}) should not be more imbalanced than row-split ({})",
            nnz.nnz_imbalance(&m),
            row.nnz_imbalance(&m)
        );
        // And it should be close to perfectly balanced on this matrix.
        assert!(nnz.nnz_imbalance(&m) < 1.6, "imbalance = {}", nnz.nnz_imbalance(&m));
    }

    #[test]
    fn merge_split_is_between_row_and_nnz() {
        let m = skewed();
        let p = partition_merge_split(&m, 8);
        check_covers_all_rows(&p, m.nrows());
        // The heaviest thread should carry a bounded share of rows + nnz.
        let total = m.nrows() as u64 + m.nnz() as u64;
        let max_work = p
            .ranges
            .iter()
            .map(|r| (r.len() as u64) + m.row_ptr()[r.end] - m.row_ptr()[r.start])
            .max()
            .unwrap();
        assert!(max_work as f64 <= 1.5 * total as f64 / 8.0, "max work = {max_work}");
    }

    #[test]
    fn partitions_with_more_threads_than_rows() {
        let m = generate::banded::<f32>(5, 1, 0);
        for strategy in [Strategy::RowSplitStatic, Strategy::NnzSplit, Strategy::MergeSplit] {
            let p = partition(&m, strategy, 16);
            assert_eq!(p.len(), 16);
            check_covers_all_rows(&p, 5);
            let covered: usize = p.ranges.iter().map(|r| r.len()).sum();
            assert_eq!(covered, 5);
        }
    }

    #[test]
    fn single_thread_partition_is_whole_matrix() {
        let m = skewed();
        for strategy in Strategy::paper_set() {
            let p = partition(&m, strategy, 1);
            assert_eq!(p.len(), 1);
            assert_eq!(p.ranges[0], RowRange { start: 0, end: m.nrows() });
        }
    }

    #[test]
    fn empty_matrix_partitions() {
        let m = CsrMatrix::<f32>::zeros(0, 10);
        let p = partition(&m, Strategy::NnzSplit, 4);
        assert_eq!(p.len(), 4);
        assert!(p.ranges.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn dynamic_counter_claims_batches() {
        let c = DynamicCounter::new();
        assert_eq!(c.claim(128), 0);
        assert_eq!(c.claim(128), 128);
        assert_eq!(c.load(), 256);
    }

    #[test]
    fn strategy_names_and_display() {
        assert_eq!(Strategy::NnzSplit.name(), "nnz-split");
        assert_eq!(
            Strategy::row_split_dynamic_default().to_string(),
            "row-split(dynamic,batch=128)"
        );
        assert!(Strategy::row_split_dynamic_default().is_dynamic());
        assert!(!Strategy::MergeSplit.is_dynamic());
        assert_eq!(Strategy::paper_set().len(), 3);
    }

    #[test]
    fn strategy_names_distinguish_every_configuration() {
        // Regression: dynamic row-split used to render as a bare
        // "row-split", so benchmark JSON rows could neither be told apart
        // across batch sizes nor distinguished from the static variant.
        let names: Vec<String> = [
            Strategy::RowSplitStatic,
            Strategy::RowSplitDynamic { batch: 16 },
            Strategy::RowSplitDynamic { batch: 128 },
            Strategy::NnzSplit,
            Strategy::MergeSplit,
        ]
        .iter()
        .map(|s| s.name())
        .collect();
        let distinct: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "ambiguous strategy names: {names:?}");
        assert!(names[1].contains("16") && names[2].contains("128"));
    }

    #[test]
    fn partition_metrics() {
        let m = skewed();
        let p = partition_row_split(&m, 4);
        assert!(p.max_nnz(&m) > 0);
        assert!(p.nnz_imbalance(&m) >= 1.0);
    }

    #[test]
    fn borrowed_imbalance_helpers_match_partition_methods() {
        let m = skewed();
        let p = partition_row_split(&m, 4);
        assert_eq!(max_nnz_of(&p.ranges, &m), p.max_nnz(&m));
        assert_eq!(nnz_imbalance_of(&p.ranges, &m), p.nnz_imbalance(&m));
        // Same degenerate guards as the methods.
        assert_eq!(nnz_imbalance_of(&[], &m), 1.0);
        let empty = CsrMatrix::<f32>::zeros(4, 4);
        assert_eq!(nnz_imbalance_of(&partition_row_split(&empty, 2).ranges, &empty), 1.0);
    }

    #[test]
    fn inverted_row_range_len_saturates() {
        // Regression: `is_empty` admits start > end, but `len` used to
        // compute `end - start` unchecked and panic on underflow.
        let inverted = RowRange { start: 5, end: 3 };
        assert!(inverted.is_empty());
        assert_eq!(inverted.len(), 0);
        assert_eq!(RowRange { start: 3, end: 5 }.len(), 2);
    }

    #[test]
    fn nnz_imbalance_is_not_clamped_for_sparse_tiny_matrices() {
        // Regression: with fewer non-zeros than ranges the denominator used
        // to be clamped to 1.0, silently understating the imbalance. Two
        // non-zeros in one of four ranges averages 0.5 nnz per range, so the
        // true ratio is 2 / 0.5 = 4.
        let m = CsrMatrix::<f32>::from_triplets(8, 8, &[(0, 0, 1.0), (0, 1, 2.0)]).unwrap();
        let p = partition_row_split(&m, 4);
        assert_eq!(p.max_nnz(&m), 2);
        let ratio = p.nnz_imbalance(&m);
        assert!((ratio - 4.0).abs() < 1e-12, "expected the true ratio 4.0, got {ratio}");
        // The explicit guards still report 1.0 when there is nothing to
        // balance.
        let empty = CsrMatrix::<f32>::zeros(4, 4);
        assert_eq!(partition_row_split(&empty, 2).nnz_imbalance(&empty), 1.0);
        assert_eq!(Partition { ranges: Vec::new() }.nnz_imbalance(&m), 1.0);
    }
}
