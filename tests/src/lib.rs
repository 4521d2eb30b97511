//! Shared fixtures for the cross-crate integration tests.
//!
//! The actual tests live in `tests/tests/*.rs`; this small library holds the
//! helpers they share (host capability checks, standard test matrices and
//! the collect-everything serving driver).

use jitspmm::serve::{
    AdmissionPolicy, ServeOptions, ServerReport, ServerRequest, ServerResponse, SpmmServer,
};
use jitspmm::CpuFeatures;
use jitspmm_sparse::{generate, CsrMatrix, Scalar};

/// Whether the host can run the JIT kernels (AVX + FMA at minimum).
pub fn host_supports_jit() -> bool {
    let f = CpuFeatures::detect();
    f.avx && f.has_fma()
}

/// A small skewed (power-law) test matrix.
pub fn small_skewed() -> CsrMatrix<f32> {
    generate::rmat(9, 6_000, generate::RmatConfig::GRAPH500, 11)
}

/// A small uniform test matrix.
pub fn small_uniform() -> CsrMatrix<f32> {
    generate::uniform(400, 350, 4_000, 12)
}

/// A matrix with empty rows, single-entry rows and a dense row, exercising
/// boundary paths of every kernel.
pub fn pathological() -> CsrMatrix<f32> {
    let mut triplets = Vec::new();
    // Dense row 0.
    for c in 0..200 {
        triplets.push((0usize, c as usize, 0.5 + (c % 7) as f32));
    }
    // A diagonal band in the middle, leaving many rows empty.
    for r in (40..160).step_by(3) {
        triplets.push((r, r, 1.0));
        if r + 1 < 200 {
            triplets.push((r, r + 1, -1.0));
        }
    }
    // Last row has exactly one entry in the last column.
    triplets.push((199, 199, 2.0));
    CsrMatrix::from_triplets(200, 200, &triplets).unwrap()
}

/// Serve a pre-collected request batch through
/// [`SpmmServer::serve_controlled`] from one sender and collect every
/// response: one request in flight at a time, so `shedding(1)` sheds
/// nothing and the responses come back in send order. A send the handler
/// refuses outright (unknown engine) produces no response; it is counted
/// in [`ServerReport::rejected`].
///
/// # Panics
///
/// If the serve itself errors.
pub fn serve_all<T: Scalar>(
    server: &SpmmServer<'_, T>,
    requests: Vec<ServerRequest<T>>,
) -> (Vec<ServerResponse<T>>, ServerReport) {
    let options = ServeOptions::new(AdmissionPolicy::shedding(1));
    let mut responses = Vec::with_capacity(requests.len());
    let (report, ()) = server
        .serve_controlled(
            options,
            move |sender| {
                for request in requests {
                    let _ = sender.send_request(request);
                }
            },
            |response| responses.push(response),
        )
        .expect("serving a batch does not error");
    (responses, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_expected_shapes() {
        assert_eq!(pathological().nrows(), 200);
        assert!(small_skewed().nnz() > 1000);
        assert_eq!(small_uniform().ncols(), 350);
    }
}
