//! Integration tests for admission and topology: load shedding under
//! overload from concurrent senders, per-sender order, and engines added
//! while a serve runs.
//!
//! The contracts under test, end to end:
//!
//! - Senders never block on admission: a request over its engine's
//!   in-flight bound is refused at once with a typed [`RejectReason`].
//! - Every offered request is accounted for — completed, rejected or failed —
//!   and [`ServerReport::offered`] adds up exactly.
//! - Admission never changes answers: whatever subset is admitted, its
//!   outputs are bit-identical to the same requests run through `execute`.
//!
//! The overload test holds requests in their kernels with the process-global
//! fault hooks, so every test here takes [`fault::exclusive`]: the tests
//! serialize against each other and no other test's kernels consume the
//! armed delay.

use jitspmm::serve::{
    fault, AdmissionPolicy, RejectReason, SendError, ServeOptions, ServerRequest, SpmmServer,
};
use jitspmm::update::MutableSpmm;
use jitspmm::{JitSpmmBuilder, WorkerPool};
use jitspmm_integration_tests::{host_supports_jit, serve_all, small_skewed, small_uniform};
use jitspmm_sparse::{DeltaBatch, DenseMatrix};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;

/// The column count of `small_skewed()` (an RMAT scale-9 matrix is 512²).
const SKEWED_COLS: usize = 512;
/// The column count of `small_uniform()`.
const UNIFORM_COLS: usize = 350;
const D: usize = 4;

#[test]
fn admission_table_accounts_for_every_send_under_overload() {
    let _guard = fault::exclusive();
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let pool = WorkerPool::new(1);
    let engine = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, D).unwrap();
    let server = SpmmServer::new(vec![engine]).unwrap();

    // One row per regime: `senders` threads send one request each, all at
    // once. The first `cap` admitted requests stall in their kernels (an
    // armed delay), so the other senders arrive while every slot is held:
    // a cap at the sender count admits all, a cap below it sheds.
    let rows: [(&str, usize, usize); 2] =
        [("cap at the sender count", 4, 4), ("10 senders over a cap of 2", 2, 10)];
    for (name, cap, senders) in rows {
        let inputs: Vec<DenseMatrix<f32>> =
            (0..senders).map(|i| DenseMatrix::random(UNIFORM_COLS, D, 1_000 + i as u64)).collect();
        // References from the very engine that will serve — the comparison
        // below is bit-for-bit, not approximate.
        let expected: Vec<DenseMatrix<f32>> = inputs
            .iter()
            .map(|x| (*server.single(0).unwrap().execute(x).unwrap().0).clone())
            .collect();

        fault::arm_kernel_delay(Duration::from_millis(300), cap as u64);
        let start = Barrier::new(senders);
        let mut completed: Vec<DenseMatrix<f32>> = Vec::new();
        let (report, shed) = server
            .serve_controlled(
                ServeOptions::new(AdmissionPolicy::shedding(cap)),
                |sender| {
                    let shed = AtomicUsize::new(0);
                    std::thread::scope(|threads| {
                        for x in &inputs {
                            let (sender, start, shed) = (&sender, &start, &shed);
                            threads.spawn(move || {
                                let request = ServerRequest::new(0, x.clone());
                                start.wait();
                                match sender.send_request(request) {
                                    Ok(()) => {}
                                    Err(SendError::Rejected(RejectReason::QueueFull)) => {
                                        shed.fetch_add(1, Ordering::SeqCst);
                                    }
                                    Err(other) => panic!("{name}: unexpected send error: {other}"),
                                }
                            });
                        }
                    });
                    shed.into_inner()
                },
                |response| {
                    assert!(response.is_completed(), "{name}: admitted requests must complete");
                    completed.push((**response.output()).clone());
                },
            )
            .unwrap();
        fault::disarm();

        // Accounting: every send is answered exactly once, somewhere.
        assert_eq!(report.offered(), senders, "{name}: offered load must add up");
        assert_eq!(report.requests, completed.len(), "{name}");
        assert_eq!(report.failed, 0, "{name}");
        assert_eq!(report.rejected, shed, "{name}: shed sends are counted");
        if cap >= senders {
            assert_eq!(report.requests, senders, "{name}: nothing is shed at the sender count");
        } else {
            assert!(report.requests >= cap, "{name}: the first {cap} requests get through");
            assert!(report.rejected >= 1, "{name}: senders over the cap must be shed");
        }

        // Bit-identical results. Which senders got through is
        // timing-dependent, so match each output to a unique reference.
        let mut used = vec![false; senders];
        for output in &completed {
            let hit = expected
                .iter()
                .enumerate()
                .position(|(i, e)| !used[i] && output == e)
                .unwrap_or_else(|| panic!("{name}: a completed output matches no reference"));
            used[hit] = true;
        }
    }
}

#[test]
fn blocking_controlled_serve_keeps_each_engine_fifo_and_bit_identical() {
    // Each send blocks until its request has run, so one sender's responses
    // reach the consumer in its send order — per engine too — every one
    // bit-identical to a blocking `execute`.
    let _guard = fault::exclusive();
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
    // An uneven interleaving, so the two engines are not in lockstep.
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

    let mut streamed = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::shedding(1)),
            |sender| {
                for (engine, x) in &inputs {
                    sender
                        .send_request(ServerRequest::new(*engine, x.clone()))
                        .expect("one sender is never shed");
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
        for (response, &g) in lane.iter().zip(&submitted) {
            assert_eq!(**response.output(), expected[g], "request {g} diverged from execute");
        }
    }
}

#[test]
fn engines_can_be_added_while_a_session_is_open() {
    let _guard = fault::exclusive();
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
    let answered = AtomicUsize::new(0);
    let answered_ref = &answered;
    let answered_by = [AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0)];

    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::shedding(1)),
            move |sender| {
                sender
                    .send_request(ServerRequest::new(0, DenseMatrix::random(UNIFORM_COLS, D, 1)))
                    .unwrap();
                assert_eq!(
                    answered_ref.load(Ordering::SeqCst),
                    1,
                    "answered before the send returned"
                );
                // Topology grows under an open session; the new ids serve
                // the very next requests.
                let id = server_ref.add_engine(late_single).unwrap();
                assert_eq!(id, 1);
                let id = server_ref.add_mutable(late_sharded).unwrap();
                assert_eq!(id, 2);
                // A live update to an engine no request has reached yet
                // applies instead of taking the serve down.
                let report = server_ref.mutable(2).unwrap().apply(&delta).unwrap();
                assert_eq!(report.revision, 1);
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
