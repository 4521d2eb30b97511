//! Compressed Sparse Row (CSR) matrix — the format all SpMM kernels consume.

use crate::dense::DenseMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::storage::CsrStorage;

/// A sparse matrix in Compressed Sparse Row format.
///
/// Exactly the three-array layout of Figure 2 in the paper:
///
/// * `row_ptr` — `nrows + 1` offsets; row `i` occupies positions
///   `row_ptr[i] .. row_ptr[i + 1]` of the other two arrays,
/// * `col_indices` — the column of every non-zero, stored row by row,
/// * `values` — the value of every non-zero.
///
/// Column indices are `u32` (the JIT kernels load them with a zero-extending
/// 32-bit move) and row pointers are `u64`, matching the layout the code
/// generator bakes into the emitted instructions.
///
/// The non-zero arrays live in shared storage ([`CsrStorage`]): cloning a
/// matrix bumps reference counts instead of copying non-zeros, and
/// [`CsrMatrix::share_rows`] hands out a zero-copy row-range *view* whose
/// `col_indices`/`values` alias the parent's buffers — only the rebased
/// `row_ptr` (one `u64` per view row) is materialized. Non-zero arrays are
/// immutable for a matrix's lifetime, so sharing is invisible to every
/// consumer; element addresses are stable, which the JIT engines rely on
/// when they hand them to the generated code on every launch.
///
/// # Example
///
/// ```
/// use jitspmm_sparse::CsrMatrix;
/// let m = CsrMatrix::<f32>::from_triplets(2, 3, &[(0, 0, 1.0), (1, 2, 5.0)]).unwrap();
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.row_cols(1), &[2]);
/// assert_eq!(m.get(1, 2), Some(5.0));
/// assert_eq!(m.get(1, 1), None);
/// ```
#[derive(Clone)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<u64>,
    storage: CsrStorage<T>,
}

/// Structural equality on the visible window: two matrices are equal when
/// their shapes, row pointers and (windowed) non-zeros agree — a zero-copy
/// view equals the owned copy of the same rows.
impl<T: PartialEq> PartialEq for CsrMatrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.storage.col_indices() == other.storage.col_indices()
            && self.storage.values() == other.storage.values()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for CsrMatrix<T> {
    /// Prints a view's own window, never the parent's whole buffers.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrMatrix")
            .field("nrows", &self.nrows)
            .field("ncols", &self.ncols)
            .field("row_ptr", &self.row_ptr)
            .field("col_indices", &self.storage.col_indices())
            .field("values", &self.storage.values())
            .finish()
    }
}

impl<T: Scalar> CsrMatrix<T> {
    /// Build from raw CSR arrays, validating the structure.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if the arrays are
    /// inconsistent (wrong lengths, non-monotonic row pointers, column
    /// indices out of range or unsorted within a row).
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<u64>,
        col_indices: Vec<u32>,
        values: Vec<T>,
    ) -> Result<CsrMatrix<T>, SparseError> {
        if row_ptr.len() != nrows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "row_ptr has length {} but expected {}",
                row_ptr.len(),
                nrows + 1
            )));
        }
        if col_indices.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "col_indices ({}) and values ({}) lengths differ",
                col_indices.len(),
                values.len()
            )));
        }
        if row_ptr.first() != Some(&0) {
            return Err(SparseError::InvalidStructure("row_ptr[0] must be zero".into()));
        }
        if *row_ptr.last().unwrap() as usize != col_indices.len() {
            return Err(SparseError::InvalidStructure(format!(
                "row_ptr[last] = {} does not match nnz = {}",
                row_ptr.last().unwrap(),
                col_indices.len()
            )));
        }
        for i in 0..nrows {
            if row_ptr[i] > row_ptr[i + 1] {
                return Err(SparseError::InvalidStructure(format!(
                    "row_ptr is not monotonically non-decreasing at row {i}"
                )));
            }
            let (start, end) = (row_ptr[i] as usize, row_ptr[i + 1] as usize);
            let cols = &col_indices[start..end];
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidStructure(format!(
                        "columns of row {i} are not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = cols.last() {
                if last as usize >= ncols {
                    return Err(SparseError::InvalidStructure(format!(
                        "column {last} of row {i} exceeds ncols = {ncols}"
                    )));
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            storage: CsrStorage::from_owned(col_indices, values),
        })
    }

    /// Build from `(row, col, value)` triplets (duplicates are summed).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] for out-of-range triplets.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, T)],
    ) -> Result<CsrMatrix<T>, SparseError> {
        let mut coo = crate::CooMatrix::with_capacity(nrows, ncols, triplets.len());
        for &(r, c, v) in triplets {
            coo.try_push(r, c, v)?;
        }
        Ok(coo.to_csr())
    }

    /// An `n x n` identity matrix.
    pub fn identity(n: usize) -> CsrMatrix<T> {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n as u64).collect(),
            storage: CsrStorage::from_owned((0..n as u32).collect(), vec![T::ONE; n]),
        }
    }

    /// An `nrows x ncols` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> CsrMatrix<T> {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            storage: CsrStorage::from_owned(Vec::new(), Vec::new()),
        }
    }

    /// Number of rows (`m` in the paper's notation).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (`n` in the paper's notation).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.storage.len()
    }

    /// The `row_ptr` array.
    #[inline]
    pub fn row_ptr(&self) -> &[u64] {
        &self.row_ptr
    }

    /// The `col_indices` array.
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        self.storage.col_indices()
    }

    /// The `values` array.
    #[inline]
    pub fn values(&self) -> &[T] {
        self.storage.values()
    }

    /// Number of non-zeros stored in row `row`.
    #[inline]
    pub fn row_nnz(&self, row: usize) -> usize {
        (self.row_ptr[row + 1] - self.row_ptr[row]) as usize
    }

    /// Column indices of row `row`.
    #[inline]
    pub fn row_cols(&self, row: usize) -> &[u32] {
        &self.storage.col_indices()[self.row_ptr[row] as usize..self.row_ptr[row + 1] as usize]
    }

    /// Values of row `row`.
    #[inline]
    pub fn row_values(&self, row: usize) -> &[T] {
        &self.storage.values()[self.row_ptr[row] as usize..self.row_ptr[row + 1] as usize]
    }

    /// The value at `(row, col)`, or `None` if that position is structurally
    /// zero.
    pub fn get(&self, row: usize, col: usize) -> Option<T> {
        let cols = self.row_cols(row);
        cols.binary_search(&(col as u32)).ok().map(|i| self.row_values(row)[i])
    }

    /// Iterate over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            self.row_cols(r).iter().zip(self.row_values(r)).map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// The transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix<T> {
        let mut row_counts = vec![0u64; self.ncols + 1];
        for &c in self.col_indices() {
            row_counts[c as usize + 1] += 1;
        }
        for i in 1..row_counts.len() {
            row_counts[i] += row_counts[i - 1];
        }
        let row_ptr = row_counts.clone();
        let mut cursor = row_counts;
        let mut col_indices = vec![0u32; self.nnz()];
        let mut values = vec![T::ZERO; self.nnz()];
        for (r, c, v) in self.iter() {
            let dst = cursor[c] as usize;
            col_indices[dst] = r as u32;
            values[dst] = v;
            cursor[c] += 1;
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            storage: CsrStorage::from_owned(col_indices, values),
        }
    }

    /// Histogram of row lengths, indexed by row.
    pub fn row_lengths(&self) -> Vec<usize> {
        (0..self.nrows).map(|r| self.row_nnz(r)).collect()
    }

    /// Reference (textbook) SpMM: `Y = self * X`, computed row by row exactly
    /// as in Algorithm 1 of the paper. Used as the correctness oracle for
    /// every optimized kernel.
    ///
    /// # Panics
    ///
    /// Panics if `x.nrows() != self.ncols()`.
    pub fn spmm_reference(&self, x: &DenseMatrix<T>) -> DenseMatrix<T> {
        assert_eq!(
            x.nrows(),
            self.ncols,
            "dense operand has {} rows but the sparse matrix has {} columns",
            x.nrows(),
            self.ncols
        );
        let d = x.ncols();
        let mut y = DenseMatrix::zeros(self.nrows, d);
        for i in 0..self.nrows {
            let out = y.row_mut(i);
            for (&k, &a) in self.row_cols(i).iter().zip(self.row_values(i)) {
                let xrow = x.row(k as usize);
                for j in 0..d {
                    out[j] += a * xrow[j];
                }
            }
        }
        y
    }

    /// Sparse matrix-vector product `y = self * x` (the `d = 1` special
    /// case), provided for the PageRank example and tests.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols()`.
    pub fn spmv(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.ncols, "vector length must equal ncols");
        (0..self.nrows)
            .map(|i| {
                self.row_cols(i)
                    .iter()
                    .zip(self.row_values(i))
                    .map(|(&k, &a)| a * x[k as usize])
                    .sum()
            })
            .collect()
    }

    /// Consume the matrix and return `(nrows, ncols, row_ptr, col_indices,
    /// values)`. Zero-copy when this matrix is the sole owner of its
    /// non-zero buffers; a view (or a matrix whose storage other clones
    /// still share) copies its window out.
    pub fn into_raw_parts(self) -> (usize, usize, Vec<u64>, Vec<u32>, Vec<T>) {
        let (col_indices, values) = self.storage.into_arrays();
        (self.nrows, self.ncols, self.row_ptr, col_indices, values)
    }

    /// A zero-copy view of rows `start..end`: the view's
    /// `col_indices`/`values` alias this matrix's buffers (two
    /// reference-count bumps), and only the rebased `row_ptr` — one `u64`
    /// per view row — is materialized. O(`end - start`) time and memory,
    /// independent of how many non-zeros the rows hold.
    ///
    /// The view is a full [`CsrMatrix`] over the same column space: row `i`
    /// of the view is row `start + i` of the parent, bit-identical. This is
    /// what shard planning uses to split a huge matrix into row shards
    /// without doubling resident non-zero data.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.nrows()`.
    pub fn share_rows(&self, start: usize, end: usize) -> CsrMatrix<T> {
        assert!(
            start <= end && end <= self.nrows,
            "row range {start}..{end} exceeds nrows = {}",
            self.nrows
        );
        let lo = self.row_ptr[start];
        let hi = self.row_ptr[end];
        let row_ptr: Vec<u64> = self.row_ptr[start..=end].iter().map(|&p| p - lo).collect();
        CsrMatrix {
            nrows: end - start,
            ncols: self.ncols,
            row_ptr,
            storage: self.storage.window(lo as usize, hi as usize),
        }
    }

    /// Whether `self` and `other` share the same underlying non-zero
    /// buffers (pointer equality on the shared allocations) — true for a
    /// matrix and its [`CsrMatrix::share_rows`] views or clones, false for
    /// deep copies. The zero-copy assertion shard-plan tests rely on.
    pub fn shares_storage_with(&self, other: &CsrMatrix<T>) -> bool {
        self.storage.ptr_eq(&other.storage)
    }

    /// Whether this matrix is a strict row-range view of a larger parent
    /// (its storage windows only part of the underlying buffers).
    pub fn is_view(&self) -> bool {
        self.storage.is_window()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f32> {
        // The matrix from Figure 2 of the paper:
        // row 0: cols {0, 2} = 1.0, row 2: cols {2, 3}, row 3: cols {0,1,2,3}
        CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 2, 1.0),
                (2, 2, 3.0),
                (2, 3, 3.0),
                (3, 0, 4.0),
                (3, 1, 4.0),
                (3, 2, 4.0),
                (3, 3, 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure2_layout() {
        let m = sample();
        assert_eq!(m.row_ptr(), &[0, 2, 2, 4, 8]);
        assert_eq!(m.col_indices(), &[0, 2, 2, 3, 0, 1, 2, 3]);
        assert_eq!(m.nnz(), 8);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_nnz(3), 4);
    }

    #[test]
    fn get_and_iter() {
        let m = sample();
        assert_eq!(m.get(3, 1), Some(4.0));
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.iter().count(), 8);
        let total: f32 = m.iter().map(|(_, _, v)| v).sum();
        assert_eq!(total, 1.0 + 1.0 + 3.0 + 3.0 + 4.0 * 4.0);
    }

    #[test]
    fn validation_rejects_bad_structure() {
        // row_ptr wrong length
        assert!(CsrMatrix::<f32>::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // non-monotone
        assert!(CsrMatrix::<f32>::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0])
            .is_err());
        // col out of range
        assert!(CsrMatrix::<f32>::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // unsorted columns
        assert!(
            CsrMatrix::<f32>::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err()
        );
        // nnz mismatch
        assert!(
            CsrMatrix::<f32>::from_raw_parts(1, 3, vec![0, 3], vec![0, 1], vec![1.0, 1.0]).is_err()
        );
        // good one
        assert!(
            CsrMatrix::<f32>::from_raw_parts(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 1.0]).is_ok()
        );
    }

    #[test]
    fn identity_and_zeros() {
        let i = CsrMatrix::<f64>::identity(5);
        assert_eq!(i.nnz(), 5);
        for k in 0..5 {
            assert_eq!(i.get(k, k), Some(1.0));
        }
        let z = CsrMatrix::<f64>::zeros(3, 7);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.ncols(), 7);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.get(1, 3), Some(4.0));
        assert_eq!(t.get(2, 0), Some(1.0));
        let tt = t.transpose();
        assert_eq!(tt, m);
    }

    #[test]
    fn reference_spmm_identity() {
        let m = sample();
        let x = DenseMatrix::<f32>::identity(4);
        let y = m.spmm_reference(&x);
        for (r, c, v) in m.iter() {
            assert_eq!(y.get(r, c), v);
        }
    }

    #[test]
    fn reference_spmm_known_values() {
        let m = CsrMatrix::<f32>::from_triplets(2, 3, &[(0, 0, 2.0), (0, 2, 1.0), (1, 1, 3.0)])
            .unwrap();
        let x = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let y = m.spmm_reference(&x);
        // Row 0: 2*[1,2] + 1*[5,6] = [7, 10]; Row 1: 3*[3,4] = [9, 12].
        assert_eq!(y.row(0), &[7.0, 10.0]);
        assert_eq!(y.row(1), &[9.0, 12.0]);
    }

    #[test]
    fn spmv_matches_spmm_single_column() {
        let m = sample();
        let x: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0];
        let y = m.spmv(&x);
        let xd = DenseMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]);
        let yd = m.spmm_reference(&xd);
        for (i, &v) in y.iter().enumerate() {
            assert_eq!(v, yd.get(i, 0));
        }
    }

    #[test]
    fn row_lengths_reports_imbalance() {
        let m = sample();
        assert_eq!(m.row_lengths(), vec![2, 0, 2, 4]);
    }

    #[test]
    fn into_raw_parts_round_trip() {
        let m = sample();
        let clone = m.clone();
        let (nr, nc, rp, ci, vals) = m.into_raw_parts();
        let rebuilt = CsrMatrix::from_raw_parts(nr, nc, rp, ci, vals).unwrap();
        assert_eq!(rebuilt, clone);
    }

    #[test]
    fn share_rows_is_zero_copy_and_bit_identical() {
        let m = sample();
        let v = m.share_rows(2, 4);
        assert_eq!(v.nrows(), 2);
        assert_eq!(v.ncols(), 4);
        assert_eq!(v.nnz(), 6);
        assert_eq!(v.row_ptr(), &[0, 2, 6]);
        assert!(v.is_view());
        assert!(v.shares_storage_with(&m));
        // Same heap addresses — no copy happened.
        assert_eq!(v.col_indices().as_ptr(), m.col_indices()[2..].as_ptr());
        assert_eq!(v.values().as_ptr(), m.values()[2..].as_ptr());
        // Row i of the view is row 2 + i of the parent, bit for bit.
        for i in 0..2 {
            assert_eq!(v.row_cols(i), m.row_cols(2 + i));
            assert_eq!(v.row_values(i), m.row_values(2 + i));
        }
        // Equal to an owned rebuild of the same rows.
        let owned = CsrMatrix::from_raw_parts(
            2,
            4,
            v.row_ptr().to_vec(),
            v.col_indices().to_vec(),
            v.values().to_vec(),
        )
        .unwrap();
        assert_eq!(v, owned);
        assert!(!owned.shares_storage_with(&m));
    }

    #[test]
    fn share_rows_edge_windows() {
        let m = sample();
        // Full-range view: shares storage, covers everything.
        let all = m.share_rows(0, 4);
        assert_eq!(all, m);
        assert!(all.shares_storage_with(&m));
        assert!(!all.is_view());
        // Empty view of an empty range.
        let none = m.share_rows(1, 1);
        assert_eq!(none.nrows(), 0);
        assert_eq!(none.nnz(), 0);
        assert_eq!(none.row_ptr(), &[0]);
        // A view's reference multiply matches slicing the parent's result.
        let x = DenseMatrix::<f32>::identity(4);
        let y_full = m.spmm_reference(&x);
        let v = m.share_rows(2, 4);
        let y_view = v.spmm_reference(&x);
        for r in 0..2 {
            assert_eq!(y_view.row(r), y_full.row(2 + r));
        }
    }

    #[test]
    fn view_into_raw_parts_copies_window() {
        let m = sample();
        let v = m.share_rows(3, 4);
        let (nr, nc, rp, ci, vals) = v.into_raw_parts();
        assert_eq!((nr, nc), (1, 4));
        assert_eq!(rp, vec![0, 4]);
        assert_eq!(ci, vec![0, 1, 2, 3]);
        assert_eq!(vals, vec![4.0, 4.0, 4.0, 4.0]);
        // Parent unaffected.
        assert_eq!(m.nnz(), 8);
    }

    #[test]
    fn clone_shares_storage() {
        let m = sample();
        let c = m.clone();
        assert!(c.shares_storage_with(&m));
        assert_eq!(c, m);
    }
}
