//! Row-major dense matrices (the `X` and `Y` operands of SpMM).

use crate::scalar::Scalar;

mod random;

/// A dense matrix stored in row-major order.
///
/// The JITSPMM kernels address the dense input `X` and output `Y` by raw
/// pointer, so this type guarantees a contiguous row-major layout and exposes
/// it via [`DenseMatrix::as_slice`] / [`DenseMatrix::as_mut_slice`].
///
/// # Example
///
/// ```
/// use jitspmm_sparse::DenseMatrix;
/// let mut m = DenseMatrix::<f32>::zeros(2, 3);
/// m.set(1, 2, 5.0);
/// assert_eq!(m.get(1, 2), 5.0);
/// assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// A matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> DenseMatrix<T> {
        DenseMatrix { nrows, ncols, data: vec![T::ZERO; nrows * ncols] }
    }

    /// A matrix filled with `value`.
    pub fn filled(nrows: usize, ncols: usize, value: T) -> DenseMatrix<T> {
        DenseMatrix { nrows, ncols, data: vec![value; nrows * ncols] }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> DenseMatrix<T> {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, T::ONE);
        }
        m
    }

    /// Build from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<T>]) -> DenseMatrix<T> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        DenseMatrix { nrows, ncols, data }
    }

    /// Build from a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<T>) -> DenseMatrix<T> {
        assert_eq!(data.len(), nrows * ncols, "buffer length must be nrows * ncols");
        DenseMatrix { nrows, ncols, data }
    }

    /// A matrix of uniformly distributed random values in `[0, 1)`,
    /// reproducible from `seed`. This mirrors the paper's random dense input
    /// matrices (§V.A).
    ///
    /// The values, in row-major order, are one xoshiro256++ stream whose
    /// state is seeded by four SplitMix64 outputs of `seed`; each 64-bit
    /// output `u` becomes `T::from_f64((u >> 11) as f64 * 2^-53)`. The
    /// result depends only on the shape and `seed`, never on the host:
    /// where the CPU has AVX-512 a large matrix is filled by eight
    /// jump-ahead lanes of the same stream, which write the same bits.
    pub fn random(nrows: usize, ncols: usize, seed: u64) -> DenseMatrix<T> {
        let mut data = vec![T::ZERO; nrows * ncols];
        random::fill(&mut data, seed);
        DenseMatrix { nrows, ncols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (`d` in the paper's notation).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> T {
        assert!(row < self.nrows && col < self.ncols, "index out of bounds");
        self.data[row * self.ncols + col]
    }

    /// Overwrite the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.nrows && col < self.ncols, "index out of bounds");
        self.data[row * self.ncols + col] = value;
    }

    /// Row `row` as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[T] {
        &self.data[row * self.ncols..(row + 1) * self.ncols]
    }

    /// Row `row` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [T] {
        &mut self.data[row * self.ncols..(row + 1) * self.ncols]
    }

    /// The whole buffer in row-major order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The whole buffer in row-major order, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Pointer to the first element (used by the JIT kernels).
    #[inline]
    pub fn as_ptr(&self) -> *const T {
        self.data.as_ptr()
    }

    /// Mutable pointer to the first element (used by the JIT kernels).
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.data.as_mut_ptr()
    }

    /// Set every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = T::ZERO);
    }

    /// Consume the matrix and return its row-major buffer.
    ///
    /// Together with [`DenseMatrix::from_vec`] this lets callers recycle
    /// output storage across computations (the JITSPMM engine does so
    /// internally: its kernels overwrite every output element, so a reused
    /// buffer needs neither a fresh allocation nor a memset).
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Largest absolute element-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMatrix<T>) -> f64 {
        assert_eq!(self.nrows, other.nrows, "row count mismatch");
        assert_eq!(self.ncols, other.ncols, "column count mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (*a - *b).abs().to_f64()).fold(0.0, f64::max)
    }

    /// Whether every element differs from `other` by at most `tol` in
    /// relative terms (absolute for tiny magnitudes).
    pub fn approx_eq(&self, other: &DenseMatrix<T>, tol: f64) -> bool {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return false;
        }
        self.data.iter().zip(&other.data).all(|(a, b)| {
            let (a, b) = (a.to_f64(), b.to_f64());
            let scale = a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= tol * scale
        })
    }

    /// Sum of all elements (useful as a cheap checksum in benches).
    pub fn checksum(&self) -> f64 {
        self.data.iter().map(|v| v.to_f64()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut m = DenseMatrix::<f32>::zeros(3, 4);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.get(2, 3), 0.0);
        m.set(2, 3, 9.0);
        assert_eq!(m.get(2, 3), 9.0);
        assert_eq!(m.as_slice().len(), 12);
    }

    #[test]
    fn from_rows_layout_is_row_major() {
        let m = DenseMatrix::from_rows(&[vec![1.0f32, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        let _ = DenseMatrix::from_rows(&[vec![1.0f32], vec![1.0, 2.0]]);
    }

    #[test]
    fn identity_diagonal() {
        let m = DenseMatrix::<f64>::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = DenseMatrix::<f32>::random(10, 8, 42);
        let b = DenseMatrix::<f32>::random(10, 8, 42);
        let c = DenseMatrix::<f32>::random(10, 8, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    /// FNV-1a over the little-endian bytes of every element.
    fn digest<const N: usize, T: Scalar>(m: &DenseMatrix<T>, bytes: impl Fn(T) -> [u8; N]) -> u64 {
        m.as_slice().iter().flat_map(|&v| bytes(v)).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn random_reproduces_the_pinned_stream() {
        // Bit patterns recorded from the stream before it had a lane path:
        // a change of any value on any host fails here.
        let first_four = [
            (0, [0x3ea6_2ebb, 0x3ec3_b4de, 0x3eb8_1fbf, 0x3c3b_afe3]),
            (42, [0x3f50_764d, 0x3ea3_3c83, 0x3f7b_e07d, 0x3f33_7d9f]),
            (u64::MAX, [0x3ead_99f2, 0x3f66_8588, 0x3f63_e9b6, 0x3e8c_1e33]),
        ];
        for (seed, bits) in first_four {
            let m = DenseMatrix::<f32>::random(2, 2, seed);
            assert_eq!(
                m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                bits,
                "seed {seed}"
            );
        }
        let m = DenseMatrix::<f64>::random(1, 2, 0);
        let bits: Vec<u64> = m.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [0x3fd4_c5d7_5852_42c8, 0x3fd8_769b_cf70_e034]);
        // Whole matrices large enough for the lane path: a served MUL's
        // input, and an f64 shape whose last lane is partial.
        let x = DenseMatrix::<f32>::random(8192, 16, 1);
        assert_eq!(digest(&x, f32::to_le_bytes), 0x2186_ab1f_7d8e_2bb6);
        let x = DenseMatrix::<f64>::random(3001, 7, 42);
        assert_eq!(digest(&x, f64::to_le_bytes), 0x6bc6_6b54_413e_8535);
        for (rows, cols) in [(0, 16), (16, 0)] {
            assert!(DenseMatrix::<f32>::random(rows, cols, 1).as_slice().is_empty());
        }
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = DenseMatrix::from_rows(&[vec![1.0f32, 2.0]]);
        let mut b = a.clone();
        assert!(a.approx_eq(&b, 1e-12));
        b.set(0, 1, 2.0 + 1e-3);
        assert!(!a.approx_eq(&b, 1e-6));
        assert!(a.approx_eq(&b, 1e-2));
        assert!(a.max_abs_diff(&b) > 0.0);
    }

    #[test]
    fn checksum_and_fill_zero() {
        let mut m = DenseMatrix::<f64>::filled(2, 2, 2.5);
        assert_eq!(m.checksum(), 10.0);
        m.fill_zero();
        assert_eq!(m.checksum(), 0.0);
    }
}
