//! Helpers shared by the crate's unit tests.

use crate::baseline::scalar::spmm_scalar_naive;
use jitspmm_sparse::{CsrMatrix, DenseMatrix};

/// Run `body` under a watchdog, for tests whose failure mode is a hang — a
/// lost wake-up, a deadlock between launches — rather than a wrong answer:
/// a minute without `body` returning (or unwinding) aborts the test binary
/// with a message instead of asserting on a latency.
pub(crate) fn with_watchdog<R>(body: impl FnOnce() -> R) -> R {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    /// Calls the dog off when `body` is over, however it ends.
    struct Leash(Arc<AtomicBool>, std::thread::Thread);
    impl Drop for Leash {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
            self.1.unpark();
        }
    }
    // libtest names each test's thread after the test (not when serialized).
    let name = std::thread::current().name().unwrap_or("a test").to_string();
    let over = Arc::new(AtomicBool::new(false));
    let dog = {
        let over = Arc::clone(&over);
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            while !over.load(Ordering::SeqCst) {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    eprintln!("watchdog: {name} hung for a minute — a wake-up was lost");
                    std::process::abort();
                }
                std::thread::park_timeout(left);
            }
        })
    };
    let _leash = Leash(over, dog.thread().clone());
    body()
}

/// `a`'s structure with every stored value replaced by a small integer.
/// Multiplied by an [`integer_input`], every product and partial sum is
/// exact in `f32`, so every kernel — fused or not, in any summation order —
/// must match [`scalar_anchor`] bit for bit.
pub(crate) fn integer_valued(a: &CsrMatrix<f32>) -> CsrMatrix<f32> {
    let (nrows, ncols, row_ptr, col_indices, values) = a.clone().into_raw_parts();
    let values = (0..values.len()).map(|i| (i % 7) as f32 - 3.0).collect();
    CsrMatrix::from_raw_parts(nrows, ncols, row_ptr, col_indices, values).unwrap()
}

/// A `rows x cols` dense input of small integers, varying with `seed`.
pub(crate) fn integer_input(rows: usize, cols: usize, seed: u64) -> DenseMatrix<f32> {
    let data = (0..(rows * cols) as u64).map(|i| ((i * 31 + seed * 17) % 9) as f32 - 4.0).collect();
    DenseMatrix::from_vec(rows, cols, data)
}

/// `a * x` by the naive scalar baseline: the trust anchor outputs are
/// compared against.
pub(crate) fn scalar_anchor(a: &CsrMatrix<f32>, x: &DenseMatrix<f32>) -> DenseMatrix<f32> {
    let mut y = DenseMatrix::zeros(a.nrows(), x.ncols());
    spmm_scalar_naive(a, x, &mut y);
    y
}
