//! Hand-optimized AOT intrinsics baseline (the Figure 10 comparison).
//!
//! Intel MKL's `mkl_sparse_spmm` is closed source; this module provides the
//! strongest AOT kernel we can construct in its place: explicit AVX-512 (or
//! AVX2) intrinsics, register-resident accumulators over 16-wide column
//! tiles, dynamic row scheduling, and no bounds checks in the hot loop. Like
//! MKL — and unlike the JIT kernel — it is compiled ahead of time, so its
//! column-tile loop and remainder handling are driven by runtime values of
//! `d`, and a row whose `d` exceeds one tile makes additional passes over the
//! row's non-zeros with the associated re-loads of `col_indices`/`vals`.

use crate::runtime::{JobSpec, WorkerPool};
use crate::schedule::DynamicCounter;
use jitspmm_sparse::{CsrMatrix, DenseMatrix};

/// Row batch claimed per atomic increment by the dynamic scheduler.
const BATCH: usize = 64;

/// Multi-threaded, hand-vectorized f32 SpMM (the MKL stand-in).
///
/// Picks AVX-512, then AVX2+FMA, then a scalar fallback at run time. Runs on
/// the process-wide [`WorkerPool::global`] pool, so benchmark comparisons
/// against the JIT engine pay identical dispatch costs.
///
/// # Panics
///
/// Panics on shape mismatch between `a`, `x` and `y`.
pub fn spmm_mkl_like_f32(
    a: &CsrMatrix<f32>,
    x: &DenseMatrix<f32>,
    y: &mut DenseMatrix<f32>,
    threads: usize,
) {
    spmm_mkl_like_f32_on(WorkerPool::global(), a, x, y, threads);
}

/// [`spmm_mkl_like_f32`] on an explicit worker pool.
///
/// # Panics
///
/// Panics on shape mismatch between `a`, `x` and `y`.
pub fn spmm_mkl_like_f32_on(
    pool: &WorkerPool,
    a: &CsrMatrix<f32>,
    x: &DenseMatrix<f32>,
    y: &mut DenseMatrix<f32>,
    threads: usize,
) {
    assert_eq!(x.nrows(), a.ncols(), "dense input rows must equal sparse columns");
    assert_eq!(y.nrows(), a.nrows(), "dense output rows must equal sparse rows");
    assert_eq!(y.ncols(), x.ncols(), "input and output column counts must match");
    let threads = pool.lanes_for(threads);
    let d = x.ncols();
    let y_addr = y.as_mut_ptr() as usize;
    let nrows = a.nrows();
    let counter = DynamicCounter::new();
    let use_avx512 = std::arch::is_x86_feature_detected!("avx512f");
    let use_avx2 =
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");

    // Cap the job to its own lane count so a concurrently running engine
    // (or another baseline) keeps its share of the pool.
    pool.run_spec(JobSpec::new(threads).max_lanes(threads), &|_lane| loop {
        let start = counter.claim(BATCH as u64) as usize;
        if start >= nrows {
            break;
        }
        let end = (start + BATCH).min(nrows);
        // SAFETY: dynamically claimed row batches are disjoint and the
        // target feature paths are only taken when detected.
        unsafe {
            if use_avx512 {
                rows_avx512_f32(a, x, y_addr as *mut f32, d, start, end);
            } else if use_avx2 {
                rows_avx2_f32(a, x, y_addr as *mut f32, d, start, end);
            } else {
                rows_scalar_f32(a, x, y_addr as *mut f32, d, start, end);
            }
        }
    });
}

/// AVX-512 f32 path: 16-wide column tiles with a register accumulator per
/// tile.
///
/// # Safety
///
/// Requires AVX-512F; `y` must point to an `a.nrows() x d` buffer and rows
/// `[start, end)` must not be concurrently accessed.
#[target_feature(enable = "avx512f")]
unsafe fn rows_avx512_f32(
    a: &CsrMatrix<f32>,
    x: &DenseMatrix<f32>,
    y: *mut f32,
    d: usize,
    start: usize,
    end: usize,
) {
    use std::arch::x86_64::*;
    let xs = x.as_ptr();
    for i in start..end {
        let out = y.add(i * d);
        let cols = a.row_cols(i);
        let vals = a.row_values(i);
        let mut j = 0usize;
        while j + 16 <= d {
            let mut acc = _mm512_setzero_ps();
            for (&k, &aval) in cols.iter().zip(vals) {
                let xrow = xs.add(k as usize * d + j);
                acc = _mm512_fmadd_ps(_mm512_set1_ps(aval), _mm512_loadu_ps(xrow), acc);
            }
            _mm512_storeu_ps(out.add(j), acc);
            j += 16;
        }
        while j < d {
            let mut acc = 0.0f32;
            for (&k, &aval) in cols.iter().zip(vals) {
                acc += aval * *xs.add(k as usize * d + j);
            }
            *out.add(j) = acc;
            j += 1;
        }
    }
}

/// AVX2+FMA f32 path: 8-wide column tiles.
///
/// # Safety
///
/// Requires AVX2 and FMA; same aliasing requirements as the AVX-512 path.
#[target_feature(enable = "avx2,fma")]
unsafe fn rows_avx2_f32(
    a: &CsrMatrix<f32>,
    x: &DenseMatrix<f32>,
    y: *mut f32,
    d: usize,
    start: usize,
    end: usize,
) {
    use std::arch::x86_64::*;
    let xs = x.as_ptr();
    for i in start..end {
        let out = y.add(i * d);
        let cols = a.row_cols(i);
        let vals = a.row_values(i);
        let mut j = 0usize;
        while j + 8 <= d {
            let mut acc = _mm256_setzero_ps();
            for (&k, &aval) in cols.iter().zip(vals) {
                let xrow = xs.add(k as usize * d + j);
                acc = _mm256_fmadd_ps(_mm256_set1_ps(aval), _mm256_loadu_ps(xrow), acc);
            }
            _mm256_storeu_ps(out.add(j), acc);
            j += 8;
        }
        while j < d {
            let mut acc = 0.0f32;
            for (&k, &aval) in cols.iter().zip(vals) {
                acc += aval * *xs.add(k as usize * d + j);
            }
            *out.add(j) = acc;
            j += 1;
        }
    }
}

/// Scalar fallback (no SIMD requirements).
///
/// # Safety
///
/// `y` must point to an `a.nrows() x d` buffer and rows `[start, end)` must
/// not be concurrently accessed.
unsafe fn rows_scalar_f32(
    a: &CsrMatrix<f32>,
    x: &DenseMatrix<f32>,
    y: *mut f32,
    d: usize,
    start: usize,
    end: usize,
) {
    let xs = x.as_ptr();
    for i in start..end {
        let out = std::slice::from_raw_parts_mut(y.add(i * d), d);
        out.iter_mut().for_each(|v| *v = 0.0);
        for (&k, &aval) in a.row_cols(i).iter().zip(a.row_values(i)) {
            let xrow = std::slice::from_raw_parts(xs.add(k as usize * d), d);
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
    fn f32_matches_reference() {
        let a = generate::rmat::<f32>(9, 7_000, generate::RmatConfig::GRAPH500, 17);
        for d in [8usize, 16, 19, 32] {
            let x = DenseMatrix::random(a.ncols(), d, 3);
            let expected = a.spmm_reference(&x);
            let mut y = DenseMatrix::zeros(a.nrows(), d);
            spmm_mkl_like_f32(&a, &x, &mut y, 4);
            assert!(y.approx_eq(&expected, 1e-4), "d = {d}");
        }
    }

    #[test]
    fn thread_counts_agree() {
        let a = generate::uniform::<f32>(300, 300, 4_000, 12);
        let x = DenseMatrix::random(300, 16, 4);
        let mut y1 = DenseMatrix::zeros(300, 16);
        let mut y8 = DenseMatrix::zeros(300, 16);
        spmm_mkl_like_f32(&a, &x, &mut y1, 1);
        spmm_mkl_like_f32(&a, &x, &mut y8, 8);
        assert!(y1.approx_eq(&y8, 1e-6));
    }

    #[test]
    fn scalar_fallback_matches_reference() {
        // Exercise the fallback path directly (even on AVX hosts).
        let a = generate::uniform::<f32>(64, 64, 600, 2);
        let x = DenseMatrix::random(64, 5, 7);
        let mut y = DenseMatrix::zeros(64, 5);
        // SAFETY: `y` is a 64 x 5 buffer matching `a.nrows()` x d, and this
        // one thread is the only one touching rows 0..64 of it.
        unsafe { rows_scalar_f32(&a, &x, y.as_mut_ptr(), 5, 0, 64) };
        assert!(y.approx_eq(&a.spmm_reference(&x), 1e-5));
    }
}
