//! Integration tests for the serving loop's admission and topology:
//! blocking backpressure and load shedding under overload, per-engine FIFO
//! order, and engines added while a serve runs.
//!
//! The contracts under test, end to end:
//!
//! - Producers never block indefinitely: blocking policies make progress
//!   because the serving loop drains concurrently, shedding policies refuse
//!   overflow immediately with a typed [`RejectReason`].
//! - Every offered request is accounted for — completed, rejected or failed —
//!   and [`ServerReport::offered`] adds up exactly.
//! - Admission never changes answers: whatever subset is admitted, its
//!   outputs are bit-identical to the same requests run through `execute`.

use jitspmm::serve::{
    AdmissionPolicy, RejectReason, SendError, ServeOptions, ServerRequest, SpmmServer,
};
use jitspmm::update::MutableSpmm;
use jitspmm::{JitSpmmBuilder, WorkerPool};
use jitspmm_integration_tests::{host_supports_jit, serve_all, small_skewed, small_uniform};
use jitspmm_sparse::{DeltaBatch, DenseMatrix};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// The column count of `small_skewed()` (an RMAT scale-9 matrix is 512²).
const SKEWED_COLS: usize = 512;
/// The column count of `small_uniform()`.
const UNIFORM_COLS: usize = 350;
const D: usize = 4;

#[test]
fn admission_table_accounts_for_every_send_under_overload() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let pool = WorkerPool::new(1);
    let engine = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, D).unwrap();
    let server = SpmmServer::new(vec![engine]).unwrap();

    // One row per admission regime; `total` floods well past the cap. The
    // shedding row is the acceptance case: 10x the queue depth, producer
    // returns immediately from every send.
    let rows: [(&str, AdmissionPolicy, usize, bool); 2] = [
        ("blocking backpressure", AdmissionPolicy::blocking(3), 30, true),
        ("shedding at 10x queue depth", AdmissionPolicy::shedding(4), 40, false),
    ];
    for (name, policy, total, admits_all) in rows {
        let inputs: Vec<DenseMatrix<f32>> =
            (0..total).map(|i| DenseMatrix::random(UNIFORM_COLS, D, 1_000 + i as u64)).collect();
        // References from the very engine that will serve — the comparison
        // below is bit-for-bit, not approximate.
        let expected: Vec<DenseMatrix<f32>> = inputs
            .iter()
            .map(|x| (*server.single(0).unwrap().execute(x).unwrap().0).clone())
            .collect();

        let mut completed: Vec<(usize, DenseMatrix<f32>)> = Vec::new();
        let (report, send_rejections) = server
            .serve_controlled(
                ServeOptions::new(policy),
                |sender| {
                    let mut rejections = 0usize;
                    for input in inputs.iter().cloned() {
                        match sender.send_request(ServerRequest::new(0, input)) {
                            Ok(()) => {}
                            Err(SendError::Rejected(RejectReason::QueueFull)) => rejections += 1,
                            Err(other) => panic!("{name}: unexpected send error: {other}"),
                        }
                    }
                    rejections
                },
                |response| {
                    assert!(response.is_completed(), "{name}: admitted requests must complete");
                    completed.push((response.index(), (**response.output()).clone()));
                },
            )
            .unwrap();

        // Accounting: every send is answered exactly once, somewhere.
        assert_eq!(report.offered(), total, "{name}: offered load must add up");
        assert_eq!(report.requests, completed.len(), "{name}");
        assert_eq!(report.failed, 0, "{name}");
        assert_eq!(report.rejected, send_rejections, "{name}: shed sends are counted");
        assert_eq!(report.requests + report.rejected, total, "{name}");
        if admits_all {
            assert_eq!(report.requests, total, "{name}: blocking admission drops nothing");
        } else {
            assert!(report.requests >= 1, "{name}: some requests must get through");
            assert!(report.rejected >= 1, "{name}: a 10x flood must shed");
        }

        // Bit-identical results. Under blocking admission the admitted set
        // is everything and per-engine completion order equals send order;
        // under shedding the admitted subset is timing-dependent, so match
        // each output to a unique reference.
        let mut used = vec![false; total];
        for (index, output) in &completed {
            if admits_all {
                assert_eq!(output, &expected[*index], "{name}: request {index} diverged");
            } else {
                let hit = expected
                    .iter()
                    .enumerate()
                    .position(|(i, e)| !used[i] && output == e)
                    .unwrap_or_else(|| {
                        panic!("{name}: a completed output matches no FIFO reference")
                    });
                used[hit] = true;
            }
        }
    }
}

#[test]
fn blocking_controlled_serve_keeps_each_engine_fifo_and_bit_identical() {
    // Under blocking admission the serving loop hands each engine's
    // responses to the consumer in that engine's submission order, every
    // one bit-identical to a blocking `execute`.
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let b = small_skewed();
    let pool = WorkerPool::new(2);
    let server = SpmmServer::new(vec![
        JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, D).unwrap(),
        JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&b, D).unwrap(),
    ])
    .unwrap();
    // An uneven interleaving, so the two lanes are not in lockstep.
    let pattern = [0usize, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0];
    let inputs: Vec<(usize, DenseMatrix<f32>)> = pattern
        .iter()
        .enumerate()
        .map(|(i, &engine)| {
            let cols = if engine == 0 { UNIFORM_COLS } else { SKEWED_COLS };
            (engine, DenseMatrix::random(cols, D, 6_000 + i as u64))
        })
        .collect();
    let expected: Vec<DenseMatrix<f32>> = inputs
        .iter()
        .map(|(engine, x)| server.single(*engine).unwrap().execute(x).unwrap().0.into_dense())
        .collect();

    // The queue bound (4) makes the producer park, so arrivals interleave
    // with completions.
    let mut streamed = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(4)),
            |sender| {
                for (engine, x) in &inputs {
                    sender.send(*engine, x.clone()).expect("blocking sends are always admitted");
                }
            },
            |response| streamed.push(response),
        )
        .unwrap();
    assert_eq!(report.requests, pattern.len());
    assert_eq!(report.offered(), pattern.len());
    assert_eq!(streamed.len(), pattern.len());
    for engine in 0..2 {
        // As the consumer saw them — not re-sorted.
        let lane: Vec<_> = streamed.iter().filter(|r| r.engine() == engine).collect();
        let submitted: Vec<usize> = (0..pattern.len()).filter(|&i| pattern[i] == engine).collect();
        assert_eq!(lane.len(), submitted.len());
        for (k, (response, &g)) in lane.iter().zip(&submitted).enumerate() {
            assert_eq!(response.index(), k, "engine {engine}: completion order is not FIFO");
            assert_eq!(
                response.request(),
                g,
                "engine {engine}: response {k} is not its {k}-th send"
            );
            assert_eq!(**response.output(), expected[g], "request {g} diverged from execute");
        }
    }
}

#[test]
fn engines_can_be_added_while_a_session_is_open() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let b = small_skewed();
    let pool = WorkerPool::new(1);
    let first = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, D).unwrap();
    // Built up front, registered mid-stream: a single engine and a sharded
    // one, both sharing the server's pool.
    let late_single = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&b, D).unwrap();
    let late_sharded = MutableSpmm::compile(&a, 2, 1, D, pool.clone()).unwrap();
    let mut delta = DeltaBatch::new();
    delta.upsert(3, 5, 2.5f32);
    let merged = a.apply_delta(&delta).unwrap();
    let server = SpmmServer::new(vec![first]).unwrap();
    let server_ref = &server;
    let control = server.control();
    let answered = AtomicUsize::new(0);
    let answered_ref = &answered;
    let answered_by = [AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0)];

    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(8)),
            move |sender| {
                sender
                    .send_request(ServerRequest::new(0, DenseMatrix::random(UNIFORM_COLS, D, 1)))
                    .unwrap();
                while answered_ref.load(Ordering::SeqCst) < 1 {
                    std::thread::yield_now();
                }
                // Topology grows under an open session; the new ids serve
                // the very next requests.
                let id = server_ref.add_engine(late_single).unwrap();
                assert_eq!(id, 1);
                let id = server_ref.add_mutable(late_sharded).unwrap();
                assert_eq!(id, 2);
                // A live update to an engine no request has reached yet (it
                // has no lane) applies instead of taking the serve down.
                assert!(control.apply_update(2, delta));
                assert!(control.wait_revision(2, 1, Duration::from_secs(30)));
                sender
                    .send_request(ServerRequest::new(1, DenseMatrix::random(SKEWED_COLS, D, 2)))
                    .unwrap();
                sender
                    .send_request(ServerRequest::new(2, DenseMatrix::random(UNIFORM_COLS, D, 3)))
                    .unwrap();
            },
            |response| {
                assert!(response.is_completed(), "requests to added engines must complete");
                answered_by[response.engine()].fetch_add(1, Ordering::SeqCst);
                answered.fetch_add(1, Ordering::SeqCst);
            },
        )
        .unwrap();

    assert_eq!(report.requests, 3, "the report counts engines added mid-session");
    for (id, count) in answered_by.iter().enumerate() {
        assert_eq!(count.load(Ordering::SeqCst), 1, "engine {id} answered its request");
    }
    // The late sharded engine computes the same answer as a single engine
    // over the same (updated) matrix — routed through the server.
    let x = DenseMatrix::random(UNIFORM_COLS, D, 4);
    let single = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&merged, D).unwrap();
    let via_single = single.execute(&x).unwrap().0;
    let (responses, _) = serve_all(&server, vec![ServerRequest::new(2, x)]);
    assert!(
        responses[0].output().approx_eq(&via_single, 1e-5),
        "sharded and single engines disagree on the same matrix"
    );
}
