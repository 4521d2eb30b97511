//! Integration tests for the serving control plane: admission under overload
//! (blocking backpressure, in-flight caps, load shedding), priority and
//! deadline scheduling, dynamic topology (retire/add while serving) and the
//! drain barrier.
//!
//! The contracts under test, end to end:
//!
//! - Producers never block indefinitely: blocking policies make progress
//!   because the serving loop drains concurrently, shedding policies refuse
//!   overflow immediately with a typed [`RejectReason`].
//! - Every offered request is accounted for — completed, rejected or shed —
//!   and [`ServerReport::offered`] adds up exactly.
//! - Scheduling never changes answers: whatever subset is admitted, its
//!   outputs are bit-identical to the same requests served FIFO.

use jitspmm::serve::{
    AdmissionPolicy, EngineStatus, RejectReason, SendError, ServeOptions, ServerRequest, SpmmServer,
};
use jitspmm::{JitSpmmBuilder, WorkerPool};
use jitspmm_integration_tests::{host_supports_jit, serve_all, small_skewed, small_uniform};
use jitspmm_sparse::DenseMatrix;
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
    let rows: [(&str, AdmissionPolicy, usize, bool); 3] = [
        ("blocking backpressure", AdmissionPolicy::blocking(3), 30, true),
        ("blocking + in-flight cap", AdmissionPolicy::blocking(4).with_max_in_flight(2), 20, true),
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
        assert_eq!(report.shed_deadline, 0, "{name}");
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
fn blocking_controlled_serve_is_per_engine_fifo_and_bit_identical() {
    // With uniform priority, no deadlines and blocking admission, the
    // serving loop hands each engine's responses to the consumer in that
    // engine's submission order, every one bit-identical to a blocking
    // `execute`.
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

    // Depth 2 forces real pipelining on any host; the queue bound (4) makes
    // the producer park, so arrivals interleave with completions.
    let mut streamed = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(4)).with_depth(2),
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
fn priority_scheduling_is_bit_identical_to_fifo_serving() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let b = small_skewed();
    let pool = WorkerPool::new(1);
    let server = SpmmServer::new(vec![
        JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, D).unwrap(),
        JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&b, D).unwrap(),
    ])
    .unwrap();
    let total = 12usize;
    let make_request = |i: usize| {
        let engine = i % 2;
        let cols = if engine == 0 { UNIFORM_COLS } else { SKEWED_COLS };
        ServerRequest::new(engine, DenseMatrix::random(cols, D, 2_000 + i as u64))
    };

    // FIFO reference: each request's own blocking `execute` output, itself
    // checked against the scalar anchor.
    let references: Vec<DenseMatrix<f32>> = (0..total)
        .map(|i| {
            let request = make_request(i);
            let engine = server.single(request.engine).unwrap();
            let (y, _) = engine.execute(&request.input).unwrap();
            assert!(y.approx_eq(&engine.matrix().spmm_reference(&request.input), 1e-4));
            y.into_dense()
        })
        .collect();

    // Controlled serving with scrambled priorities and generous deadlines:
    // the reorder buffer drains urgent traffic first, but under a blocking
    // policy nothing is shed — so the result multiset must be bit-identical.
    let mut outputs: Vec<DenseMatrix<f32>> = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(4)),
            |sender| {
                for i in 0..total {
                    let request = make_request(i)
                        .with_priority((7 * i % 5) as u8)
                        .with_deadline(Duration::from_secs(60));
                    sender.send_request(request).expect("blocking sends are always admitted");
                }
            },
            |response| {
                assert!(response.is_completed(), "nothing may be shed under this policy");
                outputs.push((**response.output()).clone());
            },
        )
        .unwrap();
    assert_eq!(report.requests, total);
    assert_eq!(report.offered(), total);

    let mut used = vec![false; total];
    for output in &outputs {
        let hit = references
            .iter()
            .enumerate()
            .position(|(i, e)| !used[i] && output == e)
            .expect("a prioritized output has no bit-identical FIFO counterpart");
        used[hit] = true;
    }
    assert!(used.iter().all(|u| *u), "every FIFO reference must be produced exactly once");
}

#[test]
fn expired_deadlines_are_shed_with_typed_rejections() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let pool = WorkerPool::new(1);
    let engine = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, D).unwrap();
    let server = SpmmServer::new(vec![engine]).unwrap();
    let total = 8usize;
    let inputs: Vec<DenseMatrix<f32>> =
        (0..total).map(|i| DenseMatrix::random(UNIFORM_COLS, D, 3_000 + i as u64)).collect();
    let expected: Vec<DenseMatrix<f32>> =
        inputs.iter().map(|x| (*server.single(0).unwrap().execute(x).unwrap().0).clone()).collect();

    // Odd requests carry a zero budget — already expired by the time the
    // router looks at them — so exactly the even half completes.
    let mut completed: Vec<DenseMatrix<f32>> = Vec::new();
    let mut shed = 0usize;
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(total)),
            |sender| {
                for (i, input) in inputs.iter().cloned().enumerate() {
                    let mut request = ServerRequest::new(0, input);
                    if i % 2 == 1 {
                        request = request.with_deadline(Duration::ZERO);
                    }
                    sender.send_request(request).expect("admission is blocking, never shed");
                }
            },
            |response| match response.rejection() {
                Some(reason) => {
                    assert_eq!(reason, RejectReason::DeadlinePassed);
                    shed += 1;
                }
                None => completed.push((**response.output()).clone()),
            },
        )
        .unwrap();
    assert_eq!(report.shed_deadline, total / 2, "every zero-budget request is shed");
    assert_eq!(shed, total / 2, "sheds surface to the consumer as typed rejections");
    assert_eq!(report.requests, total / 2);
    assert_eq!(report.offered(), total);
    // The survivors are the even requests, in order, bit-identical.
    for (slot, output) in completed.iter().enumerate() {
        assert_eq!(output, &expected[2 * slot], "surviving request {slot} diverged");
    }
}

#[test]
fn retiring_an_engine_mid_stream_keeps_the_rest_serving() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let b = small_skewed();
    let pool = WorkerPool::new(1);
    let server = SpmmServer::new(vec![
        JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, D).unwrap(),
        JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&b, D).unwrap(),
    ])
    .unwrap();
    let handle = server.control();
    let answered = AtomicUsize::new(0);
    let per_engine = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let input = |engine: usize, seed: u64| {
        let cols = if engine == 0 { UNIFORM_COLS } else { SKEWED_COLS };
        DenseMatrix::random(cols, D, seed)
    };

    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(8)),
            |sender| {
                for i in 0..3u64 {
                    sender.send_request(ServerRequest::new(1, input(1, 4_000 + i))).unwrap();
                    sender.send_request(ServerRequest::new(0, input(0, 4_100 + i))).unwrap();
                }
                // Wait until everything in flight is answered, so retirement
                // below can't race with engine 1's own pending requests.
                while answered.load(Ordering::SeqCst) < 6 {
                    std::thread::yield_now();
                }
                assert!(handle.retire_engine(1), "engine 1 was active");
                // The retired engine refuses at the door, with the reason.
                match sender.send_request(ServerRequest::new(1, input(1, 4_500))) {
                    Err(SendError::Rejected(RejectReason::Draining)) => {}
                    other => panic!("send to a retiring engine must be refused, got {other:?}"),
                }
                // Unknown ids too — the queue knows the id space.
                match sender.send_request(ServerRequest::new(7, input(0, 4_600))) {
                    Err(SendError::Rejected(RejectReason::UnknownEngine)) => {}
                    other => panic!("send to an unknown engine must be refused, got {other:?}"),
                }
                // The unrelated engine is untouched by either.
                sender.send_request(ServerRequest::new(0, input(0, 4_700))).unwrap();
            },
            |response| {
                assert!(response.is_completed(), "admitted requests all complete in this test");
                per_engine[response.engine()].fetch_add(1, Ordering::SeqCst);
                answered.fetch_add(1, Ordering::SeqCst);
            },
        )
        .unwrap();

    assert_eq!(report.requests, 7);
    assert_eq!(report.rejected, 2, "the two refused sends are counted in the report");
    assert_eq!(per_engine[0].load(Ordering::SeqCst), 4);
    assert_eq!(per_engine[1].load(Ordering::SeqCst), 3);
    assert_eq!(
        server.engine_status(1),
        Some(EngineStatus::Retired),
        "the drained engine ends fully retired once the session closes"
    );
    assert_eq!(server.engine_status(0), Some(EngineStatus::Active));

    // The server outlives the retirement: engine 0 still serves.
    let (responses, _) = serve_all(&server, vec![ServerRequest::new(0, input(0, 4_800))]);
    assert_eq!(responses.len(), 1);
    assert!(responses[0].is_completed(), "engine 0 still serves");
}

#[test]
fn drain_barrier_waits_for_every_admitted_request() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let pool = WorkerPool::new(1);
    let engine = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, D).unwrap();
    let server = SpmmServer::new(vec![engine]).unwrap();
    let handle = server.control();
    let answered = AtomicUsize::new(0);
    let input = |seed: u64| DenseMatrix::random(UNIFORM_COLS, D, seed);

    let (report, refused) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(8)),
            |sender| {
                for i in 0..6u64 {
                    sender.send_request(ServerRequest::new(0, input(5_000 + i))).unwrap();
                }
                // The barrier: when drain() returns, every admitted request
                // has been handed to the consumer — not merely launched.
                handle.drain();
                assert_eq!(
                    answered.load(Ordering::SeqCst),
                    6,
                    "drain() returned before the consumer saw every admitted request"
                );
                // While draining, the server refuses new work, with a reason.
                let mut refused = 0usize;
                match sender.send_request(ServerRequest::new(0, input(5_100))) {
                    Err(SendError::Rejected(RejectReason::Draining)) => refused += 1,
                    other => panic!("send to a draining server must be refused, got {other:?}"),
                }
                assert!(handle.is_draining());
                // Resume: the same queue and server admit again.
                handle.resume();
                assert!(!handle.is_draining());
                for i in 0..2u64 {
                    sender.send_request(ServerRequest::new(0, input(5_200 + i))).unwrap();
                }
                refused
            },
            |response| {
                assert!(response.is_completed());
                answered.fetch_add(1, Ordering::SeqCst);
            },
        )
        .unwrap();

    assert_eq!(report.requests, 8, "6 before the drain + 2 after the resume");
    assert_eq!(report.rejected, refused);
    assert_eq!(answered.load(Ordering::SeqCst), 8);
    assert_eq!(handle.outstanding(), 0, "a finished serve leaves nothing outstanding");
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
    let plan = jitspmm::shard::plan_shards(&a, 2, 1).unwrap();
    let late_sharded = jitspmm::shard::ShardedSpmm::compile(&plan, D, pool.clone()).unwrap();
    let server = SpmmServer::new(vec![first]).unwrap();
    let server_ref = &server;
    let answered = AtomicUsize::new(0);
    let answered_ref = &answered;
    let per_engine = [AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0)];

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
                let id = server_ref.add_sharded(late_sharded).unwrap();
                assert_eq!(id, 2);
                sender
                    .send_request(ServerRequest::new(1, DenseMatrix::random(SKEWED_COLS, D, 2)))
                    .unwrap();
                sender
                    .send_request(ServerRequest::new(2, DenseMatrix::random(UNIFORM_COLS, D, 3)))
                    .unwrap();
            },
            |response| {
                assert!(response.is_completed(), "requests to added engines must complete");
                per_engine[response.engine()].fetch_add(1, Ordering::SeqCst);
                answered.fetch_add(1, Ordering::SeqCst);
            },
        )
        .unwrap();

    assert_eq!(report.requests, 3);
    assert_eq!(report.per_engine.len(), 3, "the report covers engines added mid-session");
    for (id, count) in per_engine.iter().enumerate() {
        assert_eq!(count.load(Ordering::SeqCst), 1, "engine {id} answered its request");
    }
    // The late sharded engine computes the same answer as the original
    // single engine over the same matrix — routed through the server.
    let x = DenseMatrix::random(UNIFORM_COLS, D, 4);
    let via_single = server.single(0).unwrap().execute(&x).unwrap().0;
    let (responses, _) = serve_all(&server, vec![ServerRequest::new(2, x)]);
    assert!(
        responses[0].output().approx_eq(&via_single, 1e-5),
        "sharded and single engines disagree on the same matrix"
    );
}

#[test]
fn in_flight_cap_parks_producers_on_the_condvar_and_completions_wake_them() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    // Armed kernel delays are process-global state.
    let _guard = jitspmm::serve::fault::exclusive();
    let a = small_uniform();
    let pool = WorkerPool::new(1);
    let engine = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, D).unwrap();
    let server = SpmmServer::new(vec![engine]).unwrap();
    let control = server.control();
    assert_eq!(control.cap_blocked(), 0);

    // Slow every launch so the producer is guaranteed to hit the in-flight
    // cap before the first completion: with a cap of 1, every send after
    // the first must park on the control plane's condvar (the old code
    // sleep-polled here in 1 ms ticks) and be woken by a completion. A
    // missing wake hangs this test; a missing park fails the counter
    // assertion below.
    let total = 6usize;
    jitspmm::serve::fault::arm_kernel_delay(Duration::from_millis(2), total as u64);
    let inputs: Vec<DenseMatrix<f32>> =
        (0..total).map(|i| DenseMatrix::random(UNIFORM_COLS, D, 9_000 + i as u64)).collect();
    let (report, sent) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(total).with_max_in_flight(1)),
            |sender| {
                let mut sent = 0usize;
                for x in inputs {
                    if sender.send_request(ServerRequest::new(0, x)).is_ok() {
                        sent += 1;
                    }
                }
                sent
            },
            |response| assert!(response.is_completed(), "blocking admission completes everything"),
        )
        .unwrap();
    assert_eq!(sent, total);
    assert_eq!(report.requests, total);
    assert!(
        control.cap_blocked() >= total - 1,
        "every over-cap send must park on the condvar (parked {} of {})",
        control.cap_blocked(),
        total - 1
    );
}
