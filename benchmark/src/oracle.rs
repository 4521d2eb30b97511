//! The benchmark's own oracle: a plain scalar CSR SpMM and an ordered
//! last-op-wins model of the delta stream. It shares no code with the
//! kernels, baselines or merge routines under test — only the generated
//! *inputs* (the CSR arrays and the seeded dense matrix) come from the repo.

use std::collections::BTreeMap;

/// Relative tolerance of the first comparison of each distinct reply.
pub const TOLERANCE: f64 = 1e-4;

/// One edge mutation of an UPDATE frame, in send order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Upsert { row: usize, col: u32, value: f32 },
    Delete { row: usize, col: u32 },
}

impl Op {
    pub fn row(&self) -> usize {
        match *self {
            Op::Upsert { row, .. } | Op::Delete { row, .. } => row,
        }
    }
}

/// One row's entries, `(column, value)` ascending by column.
type Row = Vec<(u32, f32)>;

/// A sparse matrix as the oracle sees it: the base CSR arrays plus, for
/// every row a delta ever touched, that row's full contents after each
/// revision that changed it. Revision 0 is the base.
#[derive(Debug, Clone)]
pub struct MatrixModel {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<u64>,
    cols: Vec<u32>,
    vals: Vec<f32>,
    /// row -> [(revision, contents after that revision)], ascending.
    history: BTreeMap<usize, Vec<(u64, Row)>>,
    revision: u64,
}

impl MatrixModel {
    pub fn new(
        nrows: usize,
        ncols: usize,
        row_ptr: &[u64],
        cols: &[u32],
        vals: &[f32],
    ) -> MatrixModel {
        assert_eq!(row_ptr.len(), nrows + 1);
        assert_eq!(cols.len(), vals.len());
        MatrixModel {
            nrows,
            ncols,
            row_ptr: row_ptr.to_vec(),
            cols: cols.to_vec(),
            vals: vals.to_vec(),
            history: BTreeMap::new(),
            revision: 0,
        }
    }

    pub fn revision(&self) -> u64 {
        self.revision
    }

    fn base_row(&self, row: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let (start, end) = (self.row_ptr[row] as usize, self.row_ptr[row + 1] as usize);
        self.cols[start..end].iter().copied().zip(self.vals[start..end].iter().copied())
    }

    /// Contents of `row` as of `revision`.
    fn row_at(&self, row: usize, revision: u64) -> Row {
        if let Some(versions) = self.history.get(&row) {
            // Last version at or before `revision`.
            let upto = versions.partition_point(|(rev, _)| *rev <= revision);
            if upto > 0 {
                return versions[upto - 1].1.clone();
            }
        }
        self.base_row(row).collect()
    }

    /// The current contents of `row` (used to aim deletes at live entries).
    pub fn current_row(&self, row: usize) -> Row {
        self.row_at(row, self.revision)
    }

    /// Apply one batch in order — for several ops on one `(row, col)` the
    /// last wins; deleting an absent entry is a no-op — and return the new
    /// revision. An empty batch does not advance the revision.
    pub fn apply(&mut self, ops: &[Op]) -> u64 {
        if ops.is_empty() {
            return self.revision;
        }
        let mut touched: BTreeMap<usize, BTreeMap<u32, f32>> = BTreeMap::new();
        for op in ops {
            assert!(op.row() < self.nrows, "op row out of range");
            let row = touched
                .entry(op.row())
                .or_insert_with(|| self.current_row(op.row()).into_iter().collect());
            match *op {
                Op::Upsert { col, value, .. } => {
                    assert!((col as usize) < self.ncols, "op column out of range");
                    row.insert(col, value);
                }
                Op::Delete { col, .. } => {
                    row.remove(&col);
                }
            }
        }
        self.revision += 1;
        for (row, contents) in touched {
            self.history
                .entry(row)
                .or_default()
                .push((self.revision, contents.into_iter().collect()));
        }
        self.revision
    }

    /// Rows `rows` of `A(revision) * X`, row-major with `d` columns, where
    /// `x` is the row-major `ncols x d` dense input. Plain scalar loops with
    /// `f64` accumulation: the reference the JIT's `f32` FMA chains are
    /// compared against.
    pub fn spmm_rows(
        &self,
        rows: std::ops::Range<usize>,
        revision: u64,
        x: &[f32],
        d: usize,
    ) -> Vec<f32> {
        assert_eq!(x.len(), self.ncols * d, "dense input shape");
        let mut out = vec![0f32; rows.len() * d];
        let mut acc = vec![0f64; d];
        for (slot, row) in rows.enumerate() {
            acc.iter_mut().for_each(|a| *a = 0.0);
            let mut add = |col: u32, value: f32| {
                let x_row = &x[col as usize * d..(col as usize + 1) * d];
                for (a, &xv) in acc.iter_mut().zip(x_row) {
                    *a += value as f64 * xv as f64;
                }
            };
            match self.history.get(&row) {
                Some(_) => self.row_at(row, revision).into_iter().for_each(|(c, v)| add(c, v)),
                None => self.base_row(row).for_each(|(c, v)| add(c, v)),
            }
            for (o, &a) in out[slot * d..(slot + 1) * d].iter_mut().zip(&acc) {
                *o = a as f32;
            }
        }
        out
    }

    /// `A(revision) * X` for every row.
    pub fn spmm(&self, revision: u64, x: &[f32], d: usize) -> Vec<f32> {
        self.spmm_rows(0..self.nrows, revision, x, d)
    }
}

/// Whether `got` matches `want` element by element within [`TOLERANCE`],
/// relative to the larger magnitude (absolute below 1). Any non-finite value
/// or length mismatch is a mismatch.
pub fn close(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(&g, &w)| {
            let (g, w) = (g as f64, w as f64);
            g.is_finite() && (g - w).abs() <= TOLERANCE * g.abs().max(w.abs()).max(1.0)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3x4: row 0 = {0: 1, 2: 2}, row 1 = {}, row 2 = {1: 3, 3: 4}.
    fn model() -> MatrixModel {
        MatrixModel::new(3, 4, &[0, 2, 2, 4], &[0, 2, 1, 3], &[1.0, 2.0, 3.0, 4.0])
    }

    #[test]
    fn scalar_spmm_matches_hand_computation() {
        let m = model();
        // X is 4x2, rows [1,2] [3,4] [5,6] [7,8].
        let x: Vec<f32> = (1..=8).map(|v| v as f32).collect();
        let y = m.spmm(0, &x, 2);
        assert_eq!(y, vec![11.0, 14.0, 0.0, 0.0, 37.0, 44.0]);
        assert_eq!(m.spmm_rows(2..3, 0, &x, 2), vec![37.0, 44.0]);
    }

    #[test]
    fn last_op_wins_in_batch_order() {
        let mut m = model();
        let rev = m.apply(&[
            Op::Upsert { row: 0, col: 1, value: 9.0 },
            Op::Delete { row: 0, col: 1 },
            Op::Delete { row: 0, col: 0 },
            Op::Upsert { row: 0, col: 0, value: 5.0 },
            Op::Delete { row: 1, col: 3 },             // absent: no-op
            Op::Upsert { row: 2, col: 3, value: 0.5 }, // overwrite
        ]);
        assert_eq!(rev, 1);
        assert_eq!(m.current_row(0), vec![(0, 5.0), (2, 2.0)]);
        assert_eq!(m.current_row(1), vec![]);
        assert_eq!(m.current_row(2), vec![(1, 3.0), (3, 0.5)]);
        assert_eq!(m.apply(&[]), 1, "an empty batch is not a revision");
    }

    #[test]
    fn every_revision_stays_addressable() {
        let mut m = model();
        m.apply(&[Op::Upsert { row: 1, col: 0, value: 2.0 }]);
        m.apply(&[Op::Delete { row: 1, col: 0 }, Op::Upsert { row: 1, col: 1, value: 1.0 }]);
        let x = vec![1.0f32, 10.0, 100.0, 1000.0]; // 4x1
        assert_eq!(m.spmm_rows(1..2, 0, &x, 1), vec![0.0]);
        assert_eq!(m.spmm_rows(1..2, 1, &x, 1), vec![2.0]);
        assert_eq!(m.spmm_rows(1..2, 2, &x, 1), vec![10.0]);
        // Untouched rows read the base at every revision.
        assert_eq!(m.spmm_rows(0..1, 2, &x, 1), vec![201.0]);
    }

    #[test]
    fn closeness_is_relative_and_rejects_non_finite() {
        assert!(close(&[1000.0], &[1000.05]));
        assert!(!close(&[1000.0], &[1000.5]));
        assert!(close(&[0.00001], &[0.00005]));
        assert!(!close(&[f32::NAN], &[0.0]));
        assert!(!close(&[1.0], &[1.0, 2.0]));
    }
}
