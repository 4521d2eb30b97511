//! Shared non-zero storage behind [`CsrMatrix`](crate::CsrMatrix): the
//! `col_indices`/`values` arrays live in reference-counted buffers so a
//! row-range *view* of a matrix (see
//! [`CsrMatrix::share_rows`](crate::CsrMatrix::share_rows)) can borrow its
//! parent's non-zeros instead of copying them.
//!
//! # Why always-`Arc`, not an owned/borrowed enum
//!
//! The obvious alternative — a `Cow`-style `Owned(Vec)` / `Shared(Arc)`
//! enum — cannot promote an owned parent to shared storage through `&self`:
//! taking a zero-copy view of an owned matrix would need to *move* its
//! `Vec`s into an `Arc` behind a shared reference. Since `Arc::new(vec)`
//! moves the `Vec` header without touching its heap buffer, wrapping every
//! matrix's arrays in `Arc` up front costs nothing per element, keeps the
//! element addresses stable (every JIT launch hands those addresses to the
//! generated code), and lets *any* matrix hand out zero-copy
//! windows. So storage is always an `Arc`'d buffer plus an
//! `offset..offset + len` window into it; a freshly built matrix simply
//! windows the whole buffer.
//!
//! Cloning a matrix (or storage) bumps the reference counts — non-zero
//! arrays are immutable for a matrix's whole lifetime, so sharing is
//! observationally equivalent to the deep copy it replaces.

use std::sync::Arc;

/// The non-zero arrays of a CSR matrix: reference-counted `col_indices` and
/// `values` buffers plus the window of them this matrix covers.
///
/// See the module docs for why storage is always shared. `Clone` is
/// shallow (two reference-count bumps) and available for every `T`.
pub struct CsrStorage<T> {
    col_indices: Arc<Vec<u32>>,
    values: Arc<Vec<T>>,
    /// First position of the window into both buffers.
    offset: usize,
    /// Number of non-zeros in the window.
    len: usize,
}

impl<T> CsrStorage<T> {
    /// Wrap freshly built non-zero arrays. Moves the `Vec` headers into
    /// `Arc`s without copying any elements; the window covers everything.
    pub fn from_owned(col_indices: Vec<u32>, values: Vec<T>) -> CsrStorage<T> {
        debug_assert_eq!(col_indices.len(), values.len());
        let len = col_indices.len();
        CsrStorage { col_indices: Arc::new(col_indices), values: Arc::new(values), offset: 0, len }
    }

    /// A sub-window `range` positions into this window (zero-copy: the new
    /// storage shares the same buffers).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds this window's length.
    pub fn window(&self, start: usize, end: usize) -> CsrStorage<T> {
        assert!(start <= end && end <= self.len, "window {start}..{end} exceeds len {}", self.len);
        CsrStorage {
            col_indices: Arc::clone(&self.col_indices),
            values: Arc::clone(&self.values),
            offset: self.offset + start,
            len: end - start,
        }
    }

    /// The column indices in this window.
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices[self.offset..self.offset + self.len]
    }

    /// The values in this window.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values[self.offset..self.offset + self.len]
    }

    /// Number of non-zeros in this window.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no non-zeros.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `self` and `other` window the **same underlying buffers**
    /// (pointer equality on the shared allocations, regardless of window).
    pub fn ptr_eq(&self, other: &CsrStorage<T>) -> bool {
        Arc::ptr_eq(&self.col_indices, &other.col_indices)
            && Arc::ptr_eq(&self.values, &other.values)
    }

    /// Whether this storage is a strict window — it covers only part of its
    /// underlying buffers (the shape [`window`](CsrStorage::window) produces
    /// for a non-trivial row range).
    pub fn is_window(&self) -> bool {
        self.offset != 0 || self.len != self.col_indices.len()
    }

    /// Recover owned `(col_indices, values)` vectors. Zero-copy when this
    /// storage is the sole owner of full-buffer windows (`Arc::try_unwrap`);
    /// otherwise the window is copied out.
    pub(crate) fn into_arrays(self) -> (Vec<u32>, Vec<T>)
    where
        T: Clone,
    {
        let CsrStorage { col_indices, values, offset, len } = self;
        let cols = if offset == 0 && len == col_indices.len() {
            Arc::try_unwrap(col_indices).unwrap_or_else(|shared| shared.as_ref().clone())
        } else {
            col_indices[offset..offset + len].to_vec()
        };
        let vals = if offset == 0 && len == values.len() {
            Arc::try_unwrap(values).unwrap_or_else(|shared| shared.as_ref().clone())
        } else {
            values[offset..offset + len].to_vec()
        };
        (cols, vals)
    }
}

impl<T> Clone for CsrStorage<T> {
    fn clone(&self) -> Self {
        CsrStorage {
            col_indices: Arc::clone(&self.col_indices),
            values: Arc::clone(&self.values),
            offset: self.offset,
            len: self.len,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for CsrStorage<T> {
    /// Prints only the window, never the whole underlying buffer — a view's
    /// debug output stays proportional to the view.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrStorage")
            .field("col_indices", &self.col_indices())
            .field("values", &self.values())
            .field("shared", &self.is_window())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_owned_windows_everything() {
        let s = CsrStorage::from_owned(vec![0, 2, 1], vec![1.0f32, 2.0, 3.0]);
        assert_eq!(s.col_indices(), &[0, 2, 1]);
        assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_window());
    }

    #[test]
    fn window_shares_buffers() {
        let s = CsrStorage::from_owned(vec![0, 2, 1, 3], vec![1.0f32, 2.0, 3.0, 4.0]);
        let w = s.window(1, 3);
        assert_eq!(w.col_indices(), &[2, 1]);
        assert_eq!(w.values(), &[2.0, 3.0]);
        assert!(w.is_window());
        assert!(w.ptr_eq(&s));
        // Windows of windows compose.
        let ww = w.window(1, 2);
        assert_eq!(ww.col_indices(), &[1]);
        assert!(ww.ptr_eq(&s));
        // Element addresses are stable across sharing — the property the
        // JIT launches' array pointers rely on.
        assert_eq!(&s.col_indices()[1] as *const u32, w.col_indices().as_ptr());
    }

    #[test]
    fn into_arrays_unwraps_sole_owner_and_copies_windows() {
        let s = CsrStorage::from_owned(vec![5, 6], vec![1.0f64, 2.0]);
        let base = s.col_indices().as_ptr();
        let (cols, vals) = s.into_arrays();
        // Sole owner of a full window: the original buffer comes back.
        assert_eq!(cols.as_ptr(), base);
        assert_eq!(vals, vec![1.0, 2.0]);

        let s = CsrStorage::from_owned(vec![5, 6, 7], vec![1.0f64, 2.0, 3.0]);
        let w = s.window(1, 3);
        let (cols, vals) = w.into_arrays();
        assert_eq!(cols, vec![6, 7]);
        assert_eq!(vals, vec![2.0, 3.0]);
        // The parent is untouched.
        assert_eq!(s.len(), 3);
    }
}
