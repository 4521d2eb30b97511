//! Coordinate-list (COO) sparse matrix — the builder format.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;

/// A sparse matrix stored as unsorted `(row, col, value)` triplets.
///
/// COO is the natural format for incremental construction and for the
/// synthetic generators; convert to [`CsrMatrix`] with [`CooMatrix::to_csr`]
/// before running SpMM.
///
/// # Example
///
/// ```
/// use jitspmm_sparse::CooMatrix;
/// let mut m = CooMatrix::<f32>::new(2, 2);
/// m.push(0, 1, 3.0);
/// m.push(1, 0, -1.0);
/// m.push(0, 1, 2.0);          // duplicate: summed during conversion
/// let csr = m.to_csr();
/// assert_eq!(csr.nnz(), 2);
/// assert_eq!(csr.row_values(0), &[5.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CooMatrix<T> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(u32, u32, T)>,
}

impl<T: Scalar> CooMatrix<T> {
    /// Create an empty `nrows x ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> CooMatrix<T> {
        CooMatrix { nrows, ncols, entries: Vec::new() }
    }

    /// Create an empty matrix with room reserved for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> CooMatrix<T> {
        CooMatrix { nrows, ncols, entries: Vec::with_capacity(cap) }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries (duplicates counted individually).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append an entry.
    ///
    /// Coordinates are stored as `u32`, so a `row` or `col` above
    /// `u32::MAX` is out of bounds even where the declared shape is larger.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds; use [`CooMatrix::try_push`]
    /// for a fallible variant.
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        self.try_push(row, col, value).expect("coordinate out of bounds");
    }

    /// Append an entry, returning an error for out-of-bounds coordinates.
    ///
    /// Coordinates are stored as `u32`: a `row` or `col` above `u32::MAX`
    /// is rejected even where the declared shape is larger, never truncated.
    ///
    /// # Errors
    ///
    /// [`SparseError::IndexOutOfBounds`] if `row`/`col` exceed the declared
    /// shape or `u32::MAX`; nothing is stored.
    pub fn try_push(&mut self, row: usize, col: usize, value: T) -> Result<(), SparseError> {
        match (u32::try_from(row), u32::try_from(col)) {
            (Ok(r), Ok(c)) if row < self.nrows && col < self.ncols => {
                self.entries.push((r, c, value));
                Ok(())
            }
            _ => Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            }),
        }
    }

    /// Iterate over the stored triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        self.entries.iter().map(|&(r, c, v)| (r as usize, c as usize, v))
    }

    /// Convert to CSR, sorting entries and summing duplicates.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);

        let mut row_ptr = vec![0u64; self.nrows + 1];
        let mut col_indices: Vec<u32> = Vec::with_capacity(entries.len());
        let mut values: Vec<T> = Vec::with_capacity(entries.len());

        let mut prev: Option<(u32, u32)> = None;
        for &(r, c, v) in &entries {
            if prev == Some((r, c)) {
                // Duplicate coordinate: accumulate into the stored value.
                let last = values.len() - 1;
                values[last] += v;
            } else {
                col_indices.push(c);
                values.push(v);
                row_ptr[r as usize + 1] = col_indices.len() as u64;
                prev = Some((r, c));
            }
        }
        // Row pointers for rows that received entries hold cumulative counts;
        // fill in the rows that stayed empty.
        for i in 1..row_ptr.len() {
            if row_ptr[i] < row_ptr[i - 1] {
                row_ptr[i] = row_ptr[i - 1];
            }
        }
        CsrMatrix::from_raw_parts(self.nrows, self.ncols, row_ptr, col_indices, values)
            .expect("COO conversion produced valid CSR")
    }
}

impl<T: Scalar> FromIterator<(usize, usize, T)> for CooMatrix<T> {
    /// Build a matrix just large enough to hold every triplet.
    fn from_iter<I: IntoIterator<Item = (usize, usize, T)>>(iter: I) -> Self {
        let entries: Vec<(usize, usize, T)> = iter.into_iter().collect();
        let nrows = entries.iter().map(|e| e.0 + 1).max().unwrap_or(0);
        let ncols = entries.iter().map(|e| e.1 + 1).max().unwrap_or(0);
        let mut m = CooMatrix::with_capacity(nrows, ncols, entries.len());
        for (r, c, v) in entries {
            m.push(r, c, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut m = CooMatrix::<f32>::new(4, 4);
        assert!(m.is_empty());
        m.push(0, 0, 1.0);
        m.push(3, 3, 2.0);
        assert_eq!(m.len(), 2);
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 4);
    }

    #[test]
    fn out_of_bounds_is_error() {
        let mut m = CooMatrix::<f32>::new(2, 2);
        assert!(m.try_push(2, 0, 1.0).is_err());
        assert!(m.try_push(0, 2, 1.0).is_err());
        assert!(m.try_push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn coordinates_past_u32_are_rejected_not_truncated() {
        // The declared shape admits row 2^32, but the stored index is u32:
        // it must be refused, not stored as row 0. Declaring the shape
        // allocates nothing.
        let mut m = CooMatrix::<f32>::new(1 << 33, 4);
        assert!(m.try_push(1 << 32, 0, 1.0).is_err());
        assert_eq!(m.len(), 0);
        let mut wide = CooMatrix::<f32>::new(4, 1 << 33);
        assert!(wide.try_push(0, (1 << 32) + 3, 1.0).is_err());
        assert!(wide.try_push(0, u32::MAX as usize, 1.0).is_ok());
        assert_eq!(wide.len(), 1);
    }

    #[test]
    fn to_csr_sorts_rows_and_columns() {
        let mut m = CooMatrix::<f64>::new(3, 4);
        m.push(2, 1, 5.0);
        m.push(0, 3, 1.0);
        m.push(0, 0, 2.0);
        m.push(1, 2, 3.0);
        let csr = m.to_csr();
        assert_eq!(csr.row_cols(0), &[0, 3]);
        assert_eq!(csr.row_values(0), &[2.0, 1.0]);
        assert_eq!(csr.row_cols(1), &[2]);
        assert_eq!(csr.row_cols(2), &[1]);
        assert_eq!(csr.nnz(), 4);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut m = CooMatrix::<f32>::new(2, 2);
        m.push(1, 1, 1.0);
        m.push(1, 1, 2.0);
        m.push(1, 1, 4.0);
        m.push(0, 0, 1.0);
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.row_values(1), &[7.0]);
    }

    #[test]
    fn empty_rows_have_empty_slices() {
        let mut m = CooMatrix::<f32>::new(5, 5);
        m.push(4, 0, 1.0);
        let csr = m.to_csr();
        for r in 0..4 {
            assert!(csr.row_cols(r).is_empty());
        }
        assert_eq!(csr.row_cols(4), &[0]);
    }

    #[test]
    fn from_iterator_infers_shape() {
        let m: CooMatrix<f32> = vec![(0usize, 1usize, 1.0f32), (5, 2, 2.0)].into_iter().collect();
        assert_eq!(m.nrows(), 6);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iter_yields_insertion_order() {
        let mut m = CooMatrix::<f32>::new(2, 2);
        m.push(1, 0, 1.0);
        m.push(0, 1, 2.0);
        let v: Vec<_> = m.iter().collect();
        assert_eq!(v, vec![(1, 0, 1.0), (0, 1, 2.0)]);
    }
}
