//! Unit tests for the serving router (split out of `server.rs` to keep
//! the layer files readable).

use super::server::*;
use crate::engine::JitSpmm;
use crate::engine::JitSpmmBuilder;
use crate::error::JitSpmmError;
use crate::runtime::WorkerPool;
use crate::schedule::Strategy;
use crate::serve::control::{AdmissionPolicy, RejectReason, SendError};
use crate::serve::queue::ServerRequest;
use crate::serve::report::ServerReport;
use jitspmm_asm::CpuFeatures;
use jitspmm_sparse::DenseMatrix;
use jitspmm_sparse::{generate, CsrMatrix};

fn host_ok() -> bool {
    let f = CpuFeatures::detect();
    f.avx && f.has_fma()
}

fn matrices() -> Vec<CsrMatrix<f32>> {
    vec![
        generate::uniform::<f32>(120, 100, 1_000, 1),
        generate::rmat::<f32>(7, 1_500, generate::RmatConfig::GRAPH500, 2),
        generate::uniform::<f32>(60, 60, 400, 3),
    ]
}

/// Engines over `matrices()` with heterogeneous d and strategies, all on
/// one pool.
fn build_engines<'m>(pool: &WorkerPool, matrices: &'m [CsrMatrix<f32>]) -> Vec<JitSpmm<'m, f32>> {
    matrices
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let strategy = if i % 2 == 0 {
                Strategy::RowSplitDynamic { batch: 16 }
            } else {
                Strategy::RowSplitStatic
            };
            JitSpmmBuilder::new()
                .pool(pool.clone())
                .threads(1)
                .strategy(strategy)
                .build(m, 4 + 4 * i)
                .unwrap()
        })
        .collect()
}

fn input_for(m: &CsrMatrix<f32>, d: usize, seed: u64) -> DenseMatrix<f32> {
    DenseMatrix::random(m.ncols(), d, seed)
}

/// Serve a pre-collected batch through the one entry point: blocking
/// admission sized to the batch, every response collected and sorted by
/// global submission number. A send the queue refuses (unknown engine)
/// produces no response; it is counted in `report.rejected`.
fn serve_all(
    server: &SpmmServer<'_, f32>,
    requests: Vec<ServerRequest<f32>>,
) -> (Vec<ServerResponse<f32>>, ServerReport) {
    let options = ServeOptions::new(AdmissionPolicy::blocking(requests.len().max(1)));
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
        .unwrap();
    responses.sort_by_key(|r| r.request());
    (responses, report)
}

#[test]
fn server_requires_a_shared_pool() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let ms = matrices();
    let pool_a = WorkerPool::new(1);
    let pool_b = WorkerPool::new(1);
    let engines = vec![
        JitSpmmBuilder::new().pool(pool_a.clone()).build(&ms[0], 4).unwrap(),
        JitSpmmBuilder::new().pool(pool_b.clone()).build(&ms[1], 4).unwrap(),
    ];
    assert!(matches!(SpmmServer::new(engines).unwrap_err(), JitSpmmError::InvalidConfig(_)));
    assert!(matches!(
        SpmmServer::<f32>::new(Vec::new()).unwrap_err(),
        JitSpmmError::InvalidConfig(_)
    ));
    // Clones of one pool are the same pool.
    let engines = vec![
        JitSpmmBuilder::new().pool(pool_a.clone()).build(&ms[0], 4).unwrap(),
        JitSpmmBuilder::new().pool(pool_a.clone()).build(&ms[1], 4).unwrap(),
    ];
    assert!(SpmmServer::new(engines).is_ok());
}

#[test]
fn mixed_stream_matches_each_engines_sequential_execution() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    // Reference: each request through its engine's blocking execute.
    let requests: Vec<ServerRequest<f32>> = (0..12)
        .map(|i| {
            let engine = i % engines.len();
            ServerRequest::new(engine, input_for(&ms[engine], engines[engine].d(), 700 + i as u64))
        })
        .collect();
    let expected: Vec<DenseMatrix<f32>> = requests
        .iter()
        .map(|r| engines[r.engine].execute(&r.input).unwrap().0.into_dense())
        .collect();
    let server = SpmmServer::new(engines).unwrap();
    let (responses, report) = serve_all(&server, requests);
    assert_eq!(responses.len(), expected.len());
    assert_eq!(report.requests, expected.len());
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(response.request(), i, "responses are sorted by global order");
        assert_eq!(response.engine(), i % 3);
        assert_eq!(
            **response.output(),
            expected[i],
            "request {i} must be bit-identical to sequential execution"
        );
    }
    // Per-engine order: the k-th response of engine e has index k.
    for e in 0..3 {
        let indices: Vec<usize> =
            responses.iter().filter(|r| r.engine() == e).map(|r| r.index()).collect();
        assert_eq!(indices, (0..4).collect::<Vec<_>>());
    }
}

#[test]
fn serve_controlled_routes_cross_thread_producers() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let dims: Vec<usize> = engines.iter().map(|e| e.d()).collect();
    let expected: Vec<DenseMatrix<f32>> = (0..10)
        .map(|i| {
            let e = i % engines.len();
            engines[e].execute(&input_for(&ms[e], dims[e], 800 + i as u64)).unwrap().0.into_dense()
        })
        .collect();
    let server = SpmmServer::new(engines).unwrap();
    let ms_ref = &ms;
    let dims_ref = &dims;
    let mut responses = Vec::new();
    let (report, produced) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(3)),
            move |sender| {
                let mut sent = 0usize;
                for i in 0..10usize {
                    let e = i % dims_ref.len();
                    if sender.send(e, input_for(&ms_ref[e], dims_ref[e], 800 + i as u64)).is_ok() {
                        sent += 1;
                    }
                }
                sent
            },
            |response| responses.push(response),
        )
        .unwrap();
    responses.sort_by_key(|r| r.request());
    assert_eq!(produced, 10);
    assert_eq!(report.requests, 10);
    assert_eq!(responses.len(), 10);
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(**response.output(), expected[i], "streamed request {i} diverged");
    }
    // Every request's own launch report lies inside the session's clock.
    let slowest = responses.iter().map(|r| r.report().expect("completed").elapsed).max();
    assert!(report.elapsed >= slowest.unwrap());
}

#[test]
fn session_validates_before_touching_engine_state() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let d0 = engines[0].d();
    let server = SpmmServer::new(engines).unwrap();
    let good = input_for(&ms[0], d0, 2);
    let expected = ms[0].spmm_reference(&good);
    let ms_ref = &ms;
    let mut responses = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::default(),
            move |sender| {
                // Unknown engine id: refused at the queue, nothing submitted.
                assert_eq!(
                    sender.send(7, input_for(&ms_ref[0], d0, 1)),
                    Err(SendError::Rejected(RejectReason::UnknownEngine))
                );
                // Wrong shape for engine 0: admitted, then failed at routing
                // time; the session is unharmed and serves the next request.
                sender.send(0, DenseMatrix::<f32>::zeros(5, 5)).unwrap();
                sender.send(0, good).unwrap();
            },
            |response| responses.push(response),
        )
        .unwrap();
    responses.sort_by_key(|r| r.request());
    assert_eq!(responses.len(), 2);
    assert!(responses[0].failure().is_some_and(|m| m.contains("5x5")), "{:?}", responses[0]);
    assert!(responses[1].output().approx_eq(&expected, 1e-4));
    assert_eq!(responses[1].index(), 0, "the failed request never reached the engine");
    assert_eq!((report.requests, report.failed, report.rejected), (1, 1, 1));
}

#[test]
fn single_engine_server_is_just_a_batch() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let m = generate::uniform::<f32>(80, 80, 600, 9);
    let pool = WorkerPool::new(2);
    let engine = JitSpmmBuilder::new().pool(pool.clone()).threads(2).build(&m, 8).unwrap();
    let inputs: Vec<DenseMatrix<f32>> =
        (0..5).map(|i| DenseMatrix::random(80, 8, 40 + i)).collect();
    let expected: Vec<DenseMatrix<f32>> =
        inputs.iter().map(|x| engine.execute(x).unwrap().0.into_dense()).collect();
    let server = SpmmServer::new(vec![engine]).unwrap();
    let requests: Vec<ServerRequest<f32>> =
        inputs.into_iter().map(|input| ServerRequest::new(0, input)).collect();
    let (responses, report) = serve_all(&server, requests);
    assert_eq!(report.requests, 5);
    assert!(report.throughput() >= 0.0);
    for (response, expected) in responses.iter().zip(&expected) {
        assert_eq!(**response.output(), *expected);
    }
}

#[test]
fn sharded_engine_serves_behind_one_logical_id() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    use crate::shard::{plan_shards, ShardedSpmm};
    use crate::update::MutableSpmm;
    let small = generate::uniform::<f32>(90, 70, 700, 21);
    let big = generate::rmat::<f32>(9, 8_000, generate::RmatConfig::GRAPH500, 22);
    let pool = WorkerPool::new(2);
    let single = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&small, 4).unwrap();
    let plan = plan_shards(&big, 3, 1).unwrap();
    let sharded = ShardedSpmm::compile(&plan, 8, pool.clone()).unwrap();
    // References before the server takes ownership.
    let single_inputs: Vec<DenseMatrix<f32>> =
        (0..4).map(|i| input_for(&small, 4, 600 + i)).collect();
    let sharded_inputs: Vec<DenseMatrix<f32>> =
        (0..4).map(|i| input_for(&big, 8, 700 + i)).collect();
    let expected_single: Vec<DenseMatrix<f32>> =
        single_inputs.iter().map(|x| single.execute(x).unwrap().0.into_dense()).collect();
    let expected_sharded: Vec<DenseMatrix<f32>> = sharded_inputs
        .iter()
        .map(|x| pool.scope(|scope| sharded.execute(scope, x)).unwrap().0.into_dense())
        .collect();

    let server = SpmmServer::new(vec![single]).unwrap();
    let registered = MutableSpmm::compile(&big, 3, 1, 8, pool.clone()).unwrap();
    let sharded_id = server.add_mutable(registered).unwrap();
    assert_eq!(sharded_id, 1);
    assert_eq!(server.engine_count(), 2);
    // A sharded engine on a foreign pool is refused.
    let foreign = MutableSpmm::compile(&big, 2, 1, 8, WorkerPool::new(1)).unwrap();
    assert!(matches!(server.add_mutable(foreign).unwrap_err(), JitSpmmError::InvalidConfig(_)));

    // An interleaved mixed stream across both ids.
    let requests: Vec<ServerRequest<f32>> = (0..8)
        .map(|i| {
            let engine = i % 2;
            let input = if engine == 0 {
                single_inputs[i / 2].clone()
            } else {
                sharded_inputs[i / 2].clone()
            };
            ServerRequest::new(engine, input)
        })
        .collect();
    let (responses, report) = serve_all(&server, requests);
    assert_eq!(responses.len(), 8);
    assert_eq!(report.requests, 8);
    for engine in 0..2 {
        assert_eq!(responses.iter().filter(|r| r.engine() == engine).count(), 4);
    }
    for response in &responses {
        let expected = if response.engine() == 0 {
            &expected_single[response.index()]
        } else {
            &expected_sharded[response.index()]
        };
        assert_eq!(
            **response.output(),
            *expected,
            "engine {} request {} must be bit-identical to direct execution",
            response.engine(),
            response.index()
        );
    }
    // Validation covers the sharded id space: bad shapes and unknown ids
    // are refused before any launch.
    let bad = vec![ServerRequest::new(sharded_id, DenseMatrix::zeros(3, 3))];
    let (responses, report) = serve_all(&server, bad);
    assert!(responses[0].failure().is_some_and(|m| m.contains("3x3")), "{:?}", responses[0]);
    assert_eq!((report.requests, report.failed), (0, 1));
    let unknown = vec![ServerRequest::new(2, input_for(&big, 8, 1))];
    let (responses, report) = serve_all(&server, unknown);
    assert!(responses.is_empty());
    assert_eq!((report.requests, report.rejected), (0, 1));
}

#[test]
fn serve_controlled_hands_responses_to_the_consumer() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let dims: Vec<usize> = engines.iter().map(|e| e.d()).collect();
    let expected: Vec<DenseMatrix<f32>> = (0..9)
        .map(|i| {
            let e = i % engines.len();
            engines[e].execute(&input_for(&ms[e], dims[e], 900 + i as u64)).unwrap().0.into_dense()
        })
        .collect();
    let server = SpmmServer::new(engines).unwrap();
    let (ms_ref, dims_ref) = (&ms, &dims);
    let mut streamed = Vec::new();
    let (report, produced) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(3)),
            move |sender| {
                let mut sent = 0usize;
                for i in 0..9usize {
                    let e = i % dims_ref.len();
                    if sender.send(e, input_for(&ms_ref[e], dims_ref[e], 900 + i as u64)).is_ok() {
                        sent += 1;
                    }
                }
                sent
            },
            |response| streamed.push(response),
        )
        .unwrap();
    assert_eq!(produced, 9);
    assert_eq!(report.requests, 9);
    assert_eq!(streamed.len(), 9);
    // Responses arrive in per-engine submission order, as they complete...
    for e in 0..dims.len() {
        let indices: Vec<usize> =
            streamed.iter().filter(|r| r.engine() == e).map(|r| r.index()).collect();
        assert_eq!(indices, (0..3).collect::<Vec<_>>(), "engine {e} streamed out of order");
    }
    // ...so re-sequence by the global submission number to compare against
    // the references.
    streamed.sort_by_key(|r| r.request());
    for (i, response) in streamed.iter().enumerate() {
        assert_eq!(response.request(), i);
        assert_eq!(
            **response.output(),
            expected[i],
            "streamed response {i} must be bit-identical to sequential execution"
        );
    }
}

#[test]
fn panicking_consumer_still_closes_the_queue() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let d0 = engines[0].d();
    let server = SpmmServer::new(engines).unwrap();
    let ms_ref = &ms;
    // The consumer panics on the first response while the producer still
    // has dozens of sends to push through a capacity-1 queue: the panic
    // must close the queue (producer sends return false instead of
    // blocking forever) and then propagate. The test completing at all is
    // the no-deadlock assertion.
    let result = catch_unwind(AssertUnwindSafe(|| {
        server.serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(1)),
            move |sender| {
                let mut refused = 0usize;
                for i in 0..50usize {
                    if sender.send(0, input_for(&ms_ref[0], d0, i as u64)).is_err() {
                        refused += 1;
                    }
                }
                refused
            },
            |_response| panic!("consumer exploded"),
        )
    }));
    let payload = result.unwrap_err();
    let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(message, "consumer exploded");
    // The server (and its engines) remain fully usable afterwards.
    let x = input_for(&ms[0], d0, 123);
    let (y, _) = server.single(0).unwrap().execute(&x).unwrap();
    assert!(y.approx_eq(&ms[0].spmm_reference(&x), 1e-4));
}

/// Run `body` under a watchdog: the tests below check that a wake-up is
/// never lost, and a lost wake-up hangs instead of failing — so a minute
/// without `body` returning (or unwinding) aborts the test binary with a
/// message, rather than asserting on a latency.
fn with_watchdog<R>(body: impl FnOnce() -> R) -> R {
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
    let name = std::thread::current().name().unwrap_or("a serving test").to_string();
    let over = Arc::new(AtomicBool::new(false));
    let dog = {
        let over = Arc::clone(&over);
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            while !over.load(Ordering::SeqCst) {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    eprintln!(
                        "watchdog: {name} hung for a minute — a serving-loop wake-up was lost"
                    );
                    std::process::abort();
                }
                std::thread::park_timeout(left);
            }
        })
    };
    let _leash = Leash(over, dog.thread().clone());
    body()
}

#[test]
fn a_finished_launch_wakes_the_idle_loop() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let d0 = engines[0].d();
    let server = SpmmServer::new(engines).unwrap();
    let x = input_for(&ms[0], d0, 5);
    let expected = ms[0].spmm_reference(&x);
    let (seen, saw) = std::sync::mpsc::channel();
    with_watchdog(|| {
        server
            .serve_controlled(
                ServeOptions::default(),
                move |sender| {
                    sender.send(0, x).unwrap();
                    // The sender stays alive and silent: nothing but the
                    // launch finishing can bring the loop back to answer.
                    saw.recv().expect("the consumer saw the response");
                    drop(sender);
                },
                |response| {
                    assert!(response.output().approx_eq(&expected, 1e-4));
                    seen.send(()).unwrap();
                },
            )
            .unwrap();
    });
}

#[test]
fn a_queued_update_wakes_the_idle_loop() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    use crate::update::MutableSpmm;
    use jitspmm_sparse::DeltaBatch;
    let a = generate::uniform::<f32>(90, 70, 700, 21);
    let pool = WorkerPool::new(2);
    let server = SpmmServer::with_pool(pool.clone());
    server.add_mutable(MutableSpmm::compile(&a, 2, 1, 4, pool.clone()).unwrap()).unwrap();
    let control = server.control();
    let mut delta = DeltaBatch::new();
    delta.upsert(3, 5, 2.5f32);
    let (report, landed) = with_watchdog(|| {
        server
            .serve_controlled(
                ServeOptions::default(),
                move |_sender| {
                    // No request, ever: the update alone must wake the loop.
                    assert!(control.apply_update(0, delta));
                    control.wait_revision(0, 1, std::time::Duration::from_secs(3_600))
                },
                |_response| unreachable!("no request was sent"),
            )
            .unwrap()
    });
    assert!(landed);
    assert_eq!(report.offered(), 0);
    assert_eq!(server.mutable(0).unwrap().revision(), 1);
}

#[test]
fn many_producers_under_a_tight_bound_are_all_answered_in_order() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    const PRODUCERS: usize = 8;
    const PER_PRODUCER: usize = 2_000;
    const D: usize = 4;
    // Row 0 of both matrices is the unit vector e0, so row 0 of every
    // output is row 0 of its input — which carries (producer, k).
    let ms: Vec<CsrMatrix<f32>> = (0..2)
        .map(|e| {
            let mut triplets = vec![(0usize, 0usize, 1.0f32)];
            triplets.extend((1..48).map(|r| (r, (r * 7 + e) % 40, 0.5 + r as f32)));
            CsrMatrix::from_triplets(48, 40, &triplets).unwrap()
        })
        .collect();
    let pool = WorkerPool::new(2);
    let engines: Vec<JitSpmm<'_, f32>> = ms
        .iter()
        .map(|m| JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(m, D).unwrap())
        .collect();
    let server = SpmmServer::new(engines).unwrap();
    // Producer `p` only talks to engine `p % 2`, so its requests must come
    // back in the order it sent them.
    let mut next = [0usize; PRODUCERS];
    let mut fifo_index = [0usize; 2];
    let (report, ()) = with_watchdog(|| {
        server
            .serve_controlled(
                ServeOptions::new(AdmissionPolicy::blocking(4)),
                |sender| {
                    std::thread::scope(|producers| {
                        for p in 0..PRODUCERS {
                            let sender = sender.clone();
                            producers.spawn(move || {
                                for k in 0..PER_PRODUCER {
                                    let mut x = DenseMatrix::<f32>::zeros(40, D);
                                    x.set(0, 0, p as f32);
                                    x.set(0, 1, k as f32);
                                    sender.send(p % 2, x).expect("blocking sends are admitted");
                                }
                            });
                        }
                    });
                },
                |response| {
                    let engine = response.engine();
                    let tag = response.output().row(0);
                    let (p, k) = (tag[0] as usize, tag[1] as usize);
                    assert_eq!(p % 2, engine, "a response crossed engines");
                    assert_eq!(k, next[p], "producer {p}: responses out of order");
                    next[p] += 1;
                    assert_eq!(response.index(), fifo_index[engine], "engine {engine}: not FIFO");
                    fifo_index[engine] += 1;
                },
            )
            .unwrap()
    });
    assert_eq!(next, [PER_PRODUCER; PRODUCERS], "every request of every producer was answered");
    assert_eq!(report.requests, PRODUCERS * PER_PRODUCER);
    assert_eq!((report.rejected, report.failed), (0, 0));
}

#[test]
fn an_update_deferred_by_an_outside_stream_lands_once_it_drops() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    use crate::update::MutableSpmm;
    use jitspmm_sparse::DeltaBatch;
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let d0 = engines[0].d();
    let server = SpmmServer::new(engines).unwrap();
    let late = MutableSpmm::compile(&ms[2], 2, 1, 4, pool.clone()).unwrap();
    let control = server.control();
    let mut delta = DeltaBatch::new();
    delta.upsert(3, 5, 2.5f32);
    let (answered, answers) = std::sync::mpsc::channel();
    let (server_ref, ms_ref, pool_ref) = (&server, &ms, &pool);
    let (report, ()) = with_watchdog(|| {
        server
            .serve_controlled(
                ServeOptions::default(),
                move |sender| {
                    // Registered mid-session and never sent a request:
                    // the session opens no lane on it, so the only pin
                    // on its generation is the stream opened here.
                    let held = server_ref.add_mutable(late).unwrap();
                    let mutable = server_ref.mutable(held).unwrap();
                    pool_ref.scope(|scope| {
                        let stream = mutable.batch_stream(scope, 1).unwrap();
                        assert!(control.apply_update(held, delta));
                        // The loop cannot apply it — and must neither
                        // stall the other engines nor go to sleep on it.
                        for i in 0..64u64 {
                            sender.send(0, input_for(&ms_ref[0], d0, i)).unwrap();
                        }
                        for _ in 0..64 {
                            answers.recv().expect("requests complete beside a deferred update");
                        }
                        assert_eq!(control.engine_revision(held), Some(0));
                        assert_eq!(control.update_counts(), (0, 0));
                        drop(stream);
                    });
                    // Nothing rings when the pin goes: the loop finds out
                    // by itself.
                    assert!(control.wait_revision(held, 1, std::time::Duration::from_secs(3_600)));
                },
                |response| {
                    assert!(response.is_completed());
                    answered.send(()).unwrap();
                },
            )
            .unwrap()
    });
    assert_eq!(report.requests, 64);
    assert_eq!(server.mutable(3).unwrap().revision(), 1);
}
