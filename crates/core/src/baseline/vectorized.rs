//! Multi-threaded auto-vectorized AOT baseline (the Figure 9 comparison).
//!
//! The paper's first parallel baseline is the Merrill & Garland SpMM code,
//! extended to the three workload-division strategies and compiled with
//! `icc -O3 -mavx512f` so the compiler auto-vectorizes the inner column
//! loop. The equivalent here is plain safe Rust whose inner loops `rustc`
//! auto-vectorizes. Like any AOT kernel it cannot know `d` at compile time,
//! so every non-zero iteration re-walks the output row through memory — the
//! exact overhead coarse-grain column merging removes in the JIT kernel.

use crate::runtime::{JobSpec, WorkerPool};
use crate::schedule::{partition, DynamicCounter, Strategy};
use jitspmm_sparse::{CsrMatrix, DenseMatrix, Scalar};

/// Multi-threaded SpMM with the given workload-division strategy, compiled
/// ahead of time (the auto-vectorization baseline). Runs on the process-wide
/// [`WorkerPool::global`] pool, so benchmark comparisons against the JIT
/// engine pay identical dispatch costs.
///
/// # Panics
///
/// Panics on shape mismatch between `a`, `x` and `y`.
pub fn spmm_vectorized<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
    y: &mut DenseMatrix<T>,
    strategy: Strategy,
    threads: usize,
) {
    spmm_vectorized_on(WorkerPool::global(), a, x, y, strategy, threads);
}

/// [`spmm_vectorized`] on an explicit worker pool.
///
/// # Panics
///
/// Panics on shape mismatch between `a`, `x` and `y`.
pub fn spmm_vectorized_on<T: Scalar>(
    pool: &WorkerPool,
    a: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
    y: &mut DenseMatrix<T>,
    strategy: Strategy,
    threads: usize,
) {
    assert_eq!(x.nrows(), a.ncols(), "dense input rows must equal sparse columns");
    assert_eq!(y.nrows(), a.nrows(), "dense output rows must equal sparse rows");
    assert_eq!(y.ncols(), x.ncols(), "input and output column counts must match");
    let threads = pool.lanes_for(threads);
    let d = x.ncols();
    let y_addr = y.as_mut_ptr() as usize;

    match strategy {
        Strategy::RowSplitDynamic { batch } => {
            let counter = DynamicCounter::new();
            let nrows = a.nrows();
            // Cap the job to its own lane count so a concurrently running
            // engine (or another baseline) keeps its share of the pool.
            pool.run_spec(JobSpec::new(threads).max_lanes(threads), &|_lane| loop {
                let start = counter.claim(batch as u64) as usize;
                if start >= nrows {
                    break;
                }
                let end = (start + batch).min(nrows);
                // SAFETY: claimed row batches are disjoint, so the row
                // slices written by different lanes never overlap.
                unsafe { process_rows(a, x, y_addr as *mut T, d, start, end) };
            });
        }
        _ => {
            let part = partition(a, strategy, threads);
            let ranges = &part.ranges;
            pool.run_spec(JobSpec::new(ranges.len()).max_lanes(threads), &|index| {
                let range = ranges[index];
                if range.is_empty() {
                    return;
                }
                // SAFETY: static ranges are disjoint by construction.
                unsafe { process_rows(a, x, y_addr as *mut T, d, range.start, range.end) };
            });
        }
    }
}

/// Compute rows `[start, end)` of the output.
///
/// # Safety
///
/// `y` must point to an `a.nrows() x d` row-major buffer, and no other thread
/// may concurrently access rows `[start, end)` of it.
unsafe fn process_rows<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
    y: *mut T,
    d: usize,
    start: usize,
    end: usize,
) {
    for i in start..end {
        let out = std::slice::from_raw_parts_mut(y.add(i * d), d);
        out.iter_mut().for_each(|v| *v = T::ZERO);
        for (&k, &aval) in a.row_cols(i).iter().zip(a.row_values(i)) {
            let xrow = x.row(k as usize);
            // This loop is what the AOT compiler auto-vectorizes; `d` is a
            // runtime value, so the accumulator traffic goes through `out`
            // in memory on every non-zero.
            for j in 0..d {
                out[j] += aval * xrow[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitspmm_sparse::generate;

    #[test]
    fn matches_reference_for_all_strategies() {
        let a = generate::rmat::<f32>(9, 8_000, generate::RmatConfig::GRAPH500, 21);
        let x = DenseMatrix::random(a.ncols(), 16, 5);
        let expected = a.spmm_reference(&x);
        for strategy in [
            Strategy::RowSplitStatic,
            Strategy::row_split_dynamic_default(),
            Strategy::NnzSplit,
            Strategy::MergeSplit,
        ] {
            let mut y = DenseMatrix::zeros(a.nrows(), 16);
            spmm_vectorized(&a, &x, &mut y, strategy, 4);
            assert!(y.approx_eq(&expected, 1e-4), "strategy {strategy}");
        }
    }

    #[test]
    fn single_thread_and_many_threads_agree() {
        let a = generate::uniform::<f64>(200, 200, 3_000, 2);
        let x = DenseMatrix::random(200, 7, 8);
        let mut y1 = DenseMatrix::zeros(200, 7);
        let mut y2 = DenseMatrix::zeros(200, 7);
        spmm_vectorized(&a, &x, &mut y1, Strategy::NnzSplit, 1);
        spmm_vectorized(&a, &x, &mut y2, Strategy::NnzSplit, 7);
        assert!(y1.approx_eq(&y2, 1e-12));
    }

    #[test]
    fn dynamic_batching_covers_every_row() {
        let a = generate::regular::<f32>(97, 50, 2, 10, 3);
        let x = DenseMatrix::random(50, 3, 1);
        let expected = a.spmm_reference(&x);
        // A batch size that does not divide the row count exercises the tail.
        let mut y = DenseMatrix::zeros(97, 3);
        spmm_vectorized(&a, &x, &mut y, Strategy::RowSplitDynamic { batch: 16 }, 3);
        assert!(y.approx_eq(&expected, 1e-4));
    }

    #[test]
    fn zero_threads_means_all_threads() {
        let a = generate::uniform::<f32>(64, 64, 500, 11);
        let x = DenseMatrix::random(64, 4, 2);
        let mut y = DenseMatrix::zeros(64, 4);
        spmm_vectorized(&a, &x, &mut y, Strategy::MergeSplit, 0);
        assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
    }
}
