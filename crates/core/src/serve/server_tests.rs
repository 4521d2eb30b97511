//! Unit tests for the server and its one handler (split out of
//! `server.rs` to keep the layer files readable).

use super::server::*;
use crate::engine::JitSpmm;
use crate::engine::JitSpmmBuilder;
use crate::error::JitSpmmError;
use crate::runtime::WorkerPool;
use crate::schedule::Strategy;
use crate::serve::control::{AdmissionPolicy, RejectReason, SendError};
use crate::serve::report::ServerReport;
use crate::test_support::with_watchdog;
use jitspmm_asm::CpuFeatures;
use jitspmm_sparse::DenseMatrix;
use jitspmm_sparse::{generate, CsrMatrix};

fn host_ok() -> bool {
    let f = CpuFeatures::detect();
    let ok = f.avx && f.has_fma();
    if !ok {
        eprintln!("skipping: host lacks AVX/FMA");
    }
    ok
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
    let strategies = [Strategy::RowSplitDynamic { batch: 16 }, Strategy::RowSplitStatic];
    let engine = |(i, m)| {
        let builder = JitSpmmBuilder::new().pool(pool.clone()).threads(1);
        builder.strategy(strategies[i % 2]).build(m, 4 + 4 * i).unwrap()
    };
    matrices.iter().enumerate().map(engine).collect()
}

fn input_for(m: &CsrMatrix<f32>, d: usize, seed: u64) -> DenseMatrix<f32> {
    DenseMatrix::random(m.ncols(), d, seed)
}

/// Serve a pre-collected batch from one sender: one request in flight at a
/// time, so `shedding(1)` sheds nothing and the responses come back in send
/// order. A send the handler refuses (unknown engine) produces no response;
/// it is counted in `report.rejected`.
fn serve_all(
    server: &SpmmServer<'_, f32>,
    requests: Vec<ServerRequest<f32>>,
) -> (Vec<ServerResponse<f32>>, ServerReport) {
    let mut responses = Vec::with_capacity(requests.len());
    let options = ServeOptions::new(AdmissionPolicy::shedding(1));
    let send_all = |sender: RequestSender<'_, '_, f32>| {
        for request in requests {
            let _ = sender.send_request(request);
        }
    };
    let (report, ()) = server.serve_controlled(options, send_all, |r| responses.push(r)).unwrap();
    (responses, report)
}

#[test]
fn server_requires_a_shared_pool() {
    if !host_ok() {
        return;
    }
    let ms = matrices();
    let (pool_a, pool_b) = (WorkerPool::new(1), WorkerPool::new(1));
    let build =
        |pool: &WorkerPool, m| JitSpmmBuilder::new().pool(pool.clone()).build(m, 4).unwrap();
    let engines = vec![build(&pool_a, &ms[0]), build(&pool_b, &ms[1])];
    assert!(matches!(SpmmServer::new(engines).unwrap_err(), JitSpmmError::InvalidConfig(_)));
    let empty = SpmmServer::<f32>::new(Vec::new());
    assert!(matches!(empty.unwrap_err(), JitSpmmError::InvalidConfig(_)));
    // Clones of one pool are the same pool.
    assert!(SpmmServer::new(vec![build(&pool_a, &ms[0]), build(&pool_a, &ms[1])]).is_ok());
}

#[test]
fn mixed_stream_matches_each_engines_sequential_execution() {
    if !host_ok() {
        return;
    }
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let requests: Vec<ServerRequest<f32>> = (0..12)
        .map(|i| {
            let e = i % engines.len();
            ServerRequest::new(e, input_for(&ms[e], engines[e].d(), 700 + i as u64))
        })
        .collect();
    // Reference: each request through its engine's blocking execute.
    let expected: Vec<DenseMatrix<f32>> = requests
        .iter()
        .map(|r| engines[r.engine].execute(&r.input).unwrap().0.into_dense())
        .collect();
    let server = SpmmServer::new(engines).unwrap();
    let (responses, report) = serve_all(&server, requests);
    assert_eq!((report.requests, responses.len()), (12, 12));
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(response.engine(), i % 3, "one sender's responses arrive in send order");
        assert_eq!(**response.output(), expected[i], "request {i} diverged from execute");
    }
}

#[test]
fn serve_controlled_routes_cross_thread_producers() {
    if !host_ok() {
        return;
    }
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let dims: Vec<usize> = engines.iter().map(|e| e.d()).collect();
    let input = |e: usize, k: u64| input_for(&ms[e], dims[e], 800 + 10 * e as u64 + k);
    let expected: Vec<Vec<DenseMatrix<f32>>> = (0..3)
        .map(|e| (0..4).map(|k| engines[e].execute(&input(e, k)).unwrap().0.into_dense()).collect())
        .collect();
    let server = SpmmServer::new(engines).unwrap();
    let mut by_engine: Vec<Vec<DenseMatrix<f32>>> = vec![Vec::new(); 3];
    // One sender thread per engine, all at once: a cap of one request per
    // engine sheds nothing, because the cap is per engine.
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::shedding(1)),
            |sender| {
                std::thread::scope(|senders| {
                    for e in 0..3 {
                        let (sender, input) = (&sender, &input);
                        senders.spawn(move || {
                            for k in 0..4 {
                                let request = ServerRequest::new(e, input(e, k));
                                sender.send_request(request).expect("never shed");
                            }
                        });
                    }
                });
            },
            |r| by_engine[r.engine()].push(r.into_output().unwrap().into_dense()),
        )
        .unwrap();
    assert_eq!((report.requests, report.rejected, report.failed), (12, 0, 0));
    // Each sender's responses reached the consumer in its send order.
    assert_eq!(by_engine, expected, "a request diverged from execute");
}

#[test]
fn session_validates_before_touching_engine_state() {
    if !host_ok() {
        return;
    }
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let d0 = engines[0].d();
    let server = SpmmServer::new(engines).unwrap();
    let good = input_for(&ms[0], d0, 2);
    let expected = ms[0].spmm_reference(&good);
    // Unknown engine id: refused, nothing launched.
    let admission = AdmissionPolicy::shedding(1);
    let unknown = server.handle(admission, ServerRequest::new(7, good.clone()));
    assert!(matches!(
        unknown,
        ServerResponse::Rejected { reason: RejectReason::UnknownEngine, .. }
    ));
    let mut responses = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(admission),
            |sender| {
                let refused = sender.send_request(ServerRequest::new(7, good.clone()));
                assert_eq!(refused, Err(SendError::Rejected(RejectReason::UnknownEngine)));
                // Wrong shape for engine 0: a typed failure; the engine is
                // unharmed and serves the next request.
                sender
                    .send_request(ServerRequest::new(0, DenseMatrix::<f32>::zeros(5, 5)))
                    .unwrap();
                sender.send_request(ServerRequest::new(0, good.clone())).unwrap();
            },
            |response| responses.push(response),
        )
        .unwrap();
    assert!(responses[0].failure().is_some_and(|m| m.contains("5x5")), "{:?}", responses[0]);
    assert!(responses[1].output().approx_eq(&expected, 1e-4));
    assert_eq!((report.requests, report.failed, report.rejected), (1, 1, 1));
}

#[test]
fn single_engine_server_is_just_a_batch() {
    if !host_ok() {
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
    let (responses, report) =
        serve_all(&server, inputs.into_iter().map(|x| ServerRequest::new(0, x)).collect());
    assert_eq!(report.requests, 5);
    assert!(report.throughput() >= 0.0);
    for (response, expected) in responses.iter().zip(&expected) {
        assert_eq!(**response.output(), *expected);
    }
}

#[test]
fn sharded_engine_serves_behind_one_logical_id() {
    if !host_ok() {
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
    // An interleaved mixed stream across both ids, with references taken
    // before the server takes ownership.
    let inputs: Vec<DenseMatrix<f32>> =
        (0..8u64)
            .map(|i| {
                if i % 2 == 0 {
                    input_for(&small, 4, 600 + i)
                } else {
                    input_for(&big, 8, 700 + i)
                }
            })
            .collect();
    let expected: Vec<DenseMatrix<f32>> = inputs
        .iter()
        .enumerate()
        .map(|(i, x)| match i % 2 {
            0 => single.execute(x).unwrap().0.into_dense(),
            _ => pool.scope(|scope| sharded.execute(scope, x)).unwrap().0.into_dense(),
        })
        .collect();

    let server = SpmmServer::new(vec![single]).unwrap();
    let registered = MutableSpmm::compile(&big, 3, 1, 8, pool.clone()).unwrap();
    assert_eq!(server.add_mutable(registered).unwrap(), 1);
    assert_eq!(server.engine_count(), 2);
    // A sharded engine on a foreign pool is refused.
    let foreign = MutableSpmm::compile(&big, 2, 1, 8, WorkerPool::new(1)).unwrap();
    assert!(matches!(server.add_mutable(foreign).unwrap_err(), JitSpmmError::InvalidConfig(_)));

    let requests = inputs.into_iter().enumerate().map(|(i, x)| ServerRequest::new(i % 2, x));
    let (responses, report) = serve_all(&server, requests.collect());
    assert_eq!((report.requests, responses.len()), (8, 8));
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(response.engine(), i % 2);
        assert_eq!(**response.output(), expected[i], "request {i} diverged from execute");
    }
    // A bad shape fails on the sharded id too, before any launch.
    let (responses, report) =
        serve_all(&server, vec![ServerRequest::new(1, DenseMatrix::zeros(3, 3))]);
    assert!(responses[0].failure().is_some_and(|m| m.contains("3x3")), "{:?}", responses[0]);
    assert_eq!((report.requests, report.failed), (0, 1));
}

#[test]
fn serve_controlled_hands_responses_to_the_consumer() {
    if !host_ok() {
        return;
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let d0 = engines[0].d();
    let server = SpmmServer::new(engines).unwrap();
    let handed = AtomicUsize::new(0);
    let (report, produced) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::shedding(1)),
            |sender| {
                for i in 0..9usize {
                    let x = input_for(&ms[0], d0, 900 + i as u64);
                    sender.send_request(ServerRequest::new(0, x)).unwrap();
                    // The response is the consumer's before the send returns.
                    assert_eq!(handed.load(Ordering::SeqCst), i + 1, "send {i} returned early");
                }
                9
            },
            |response| {
                assert!(response.is_completed());
                handed.fetch_add(1, Ordering::SeqCst);
            },
        )
        .unwrap();
    assert_eq!((produced, report.requests), (9, 9));
}

#[test]
fn a_panicking_consumer_unwinds_out_of_the_serve_and_leaves_the_server_usable() {
    if !host_ok() {
        return;
    }
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let x = input_for(&ms[0], engines[0].d(), 123);
    let server = SpmmServer::new(engines).unwrap();
    // The consumer panics on the first response, on the sending thread:
    // the panic leaves through the send, the producer and the serve.
    let result = catch_unwind(AssertUnwindSafe(|| {
        server.serve_controlled(
            ServeOptions::new(AdmissionPolicy::shedding(1)),
            |sender| sender.send_request(ServerRequest::new(0, x.clone())).is_ok(),
            |_response| panic!("consumer exploded"),
        )
    }));
    let payload = result.unwrap_err();
    assert_eq!(payload.downcast_ref::<&str>().copied(), Some("consumer exploded"));
    // The request gave its in-flight slot back before the consumer ran, so
    // a cap of one still admits the next request.
    let (responses, report) = serve_all(&server, vec![ServerRequest::new(0, x.clone())]);
    assert_eq!(report.requests, 1);
    assert!(responses[0].output().approx_eq(&ms[0].spmm_reference(&x), 1e-4));
}

#[test]
fn an_in_flight_slot_is_refused_at_the_cap_and_given_back_on_drop_and_unwind() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    let running = AtomicUsize::new(0);
    let first = Slot::take(&running, 1).expect("a free slot");
    assert!(Slot::take(&running, 1).is_none(), "a second request at cap 1 must be refused");
    drop(first);
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let _held = Slot::take(&running, 1).expect("the dropped slot was given back");
        panic!("a launch panics while it holds the slot");
    }));
    assert!(unwound.is_err());
    assert_eq!(running.load(Ordering::SeqCst), 0, "the unwind gave the slot back");
    let (a, b) = (Slot::take(&running, 2), Slot::take(&running, 2));
    assert!(a.is_some() && b.is_some() && Slot::take(&running, 2).is_none());
}

#[test]
fn many_producers_under_a_tight_bound_are_all_answered_in_order() {
    if !host_ok() {
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
    let build = |m| JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(m, D).unwrap();
    let server = SpmmServer::new(ms.iter().map(build).collect()).unwrap();
    // Producer `p` only talks to engine `p % 2`, so each engine has
    // PRODUCERS / 2 senders — exactly its cap — and each producer's
    // responses must come back in the order it sent them.
    let mut next = [0usize; PRODUCERS];
    let (report, ()) = with_watchdog(|| {
        server
            .serve_controlled(
                ServeOptions::new(AdmissionPolicy::shedding(PRODUCERS / 2)),
                |sender| {
                    std::thread::scope(|producers| {
                        for p in 0..PRODUCERS {
                            let sender = &sender;
                            producers.spawn(move || {
                                for k in 0..PER_PRODUCER {
                                    let mut x = DenseMatrix::<f32>::zeros(40, D);
                                    x.set(0, 0, p as f32);
                                    x.set(0, 1, k as f32);
                                    let request = ServerRequest::new(p % 2, x);
                                    sender.send_request(request).expect("never shed at the cap");
                                }
                            });
                        }
                    });
                },
                |response| {
                    let tag = response.output().row(0);
                    let (p, k) = (tag[0] as usize, tag[1] as usize);
                    assert_eq!(p % 2, response.engine(), "a response crossed engines");
                    assert_eq!(k, next[p], "producer {p}: responses out of order");
                    next[p] += 1;
                },
            )
            .unwrap()
    });
    assert_eq!(next, [PER_PRODUCER; PRODUCERS], "every request of every producer was answered");
    assert_eq!(report.requests, PRODUCERS * PER_PRODUCER);
    assert_eq!((report.rejected, report.failed), (0, 0));
}

#[test]
fn a_request_after_apply_runs_on_the_merged_matrix() {
    if !host_ok() {
        return;
    }
    use crate::shard::{plan_shards, ShardedSpmm};
    use crate::update::MutableSpmm;
    use jitspmm_sparse::DeltaBatch;
    let a = generate::uniform::<f32>(90, 70, 700, 21);
    let mut delta = DeltaBatch::new();
    delta.upsert(3, 5, 2.5f32).delete(40, 0).upsert(89, 69, -1.0);
    let merged = a.apply_delta(&delta).unwrap();
    let pool = WorkerPool::new(2);
    let x = input_for(&a, 4, 9);
    let from_scratch = |m: &CsrMatrix<f32>| {
        let plan = plan_shards(m, 2, 1).unwrap();
        let engine = ShardedSpmm::compile(&plan, 4, pool.clone()).unwrap();
        pool.scope(|s| engine.execute(s, &x)).unwrap().0.into_dense()
    };
    let expected = [from_scratch(&a), from_scratch(&merged)];
    let server = SpmmServer::with_pool(pool.clone());
    server.add_mutable(MutableSpmm::compile(&a, 2, 1, 4, pool.clone()).unwrap()).unwrap();
    let mut answers = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::shedding(1)),
            |sender| {
                sender.send_request(ServerRequest::new(0, x.clone())).unwrap();
                // The update is a call on this thread; nothing else hears
                // of it.
                let mutable = server.mutable(0).unwrap();
                assert_eq!(mutable.apply(&delta).unwrap().revision, 1);
                // No request holds a generation between requests, so the
                // one the apply replaced is gone already.
                assert_eq!(mutable.generations_retained(), 1);
                sender.send_request(ServerRequest::new(0, x.clone())).unwrap();
            },
            |response| answers.push(response.into_output().unwrap().into_dense()),
        )
        .unwrap();
    assert_eq!(answers, expected, "a request sent after apply returned sees its delta");
    assert_eq!((report.requests, report.failed), (2, 0));
}
