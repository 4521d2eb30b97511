//! Chaos tests: fault-injected kernel panics, via
//! `jitspmm::serve::fault` (the `fault-injection` feature).
//!
//! The containment contract under test: a panicked kernel job fails only its
//! own request — a typed [`ServerResponse::Failed`] carrying the panic
//! message — while unrelated engines keep serving and the server stays
//! usable afterwards. A sharded engine is no exception: its launch joins
//! every shard of a request before it unwinds, so a shard panic fails that
//! one request and the engine keeps serving.
//!
//! The fault hooks are process-global, so every test here holds
//! [`fault::exclusive`] for its whole body — the tests serialize against
//! each other whatever the harness's thread count — and computes reference
//! results *before* arming, because plain `execute` calls consume fault
//! tickets too.

use jitspmm::serve::{fault, AdmissionPolicy, ServeOptions, ServerRequest, SpmmServer};
use jitspmm::{JitSpmmBuilder, WorkerPool};
use jitspmm_integration_tests::{host_supports_jit, serve_all, small_skewed, small_uniform};
use jitspmm_sparse::DenseMatrix;
use std::time::{Duration, Instant};

const SKEWED_COLS: usize = 512;
const UNIFORM_COLS: usize = 350;
const D: usize = 4;

#[test]
fn a_kernel_panic_fails_only_its_request() {
    let _guard = fault::exclusive();
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
    // Four requests across both engines, sent one at a time: the first
    // kernel entry after arming is the first request's, and it dies. The
    // contract is that exactly one dies, typed, and every other request is
    // answered bit-identically.
    let requests: Vec<(usize, DenseMatrix<f32>)> = vec![
        (0, DenseMatrix::random(UNIFORM_COLS, D, 10)),
        (1, DenseMatrix::random(SKEWED_COLS, D, 20)),
        (1, DenseMatrix::random(SKEWED_COLS, D, 21)),
        (1, DenseMatrix::random(SKEWED_COLS, D, 22)),
    ];
    // References before arming: these execute calls consume no tickets now
    // and must not later.
    let expected: Vec<DenseMatrix<f32>> = requests
        .iter()
        .map(|(engine, x)| (*server.single(*engine).unwrap().execute(x).unwrap().0).clone())
        .collect();

    fault::arm_kernel_panic(1);
    let mut failed: Vec<(usize, String)> = Vec::new();
    let mut completed: Vec<DenseMatrix<f32>> = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::shedding(1)),
            |sender| {
                for (engine, x) in requests.iter() {
                    sender.send_request(ServerRequest::new(*engine, x.clone())).unwrap();
                }
            },
            |response| {
                if let Some(message) = response.failure() {
                    failed.push((response.engine(), message.to_string()));
                } else {
                    completed.push((**response.output()).clone());
                }
            },
        )
        .unwrap();

    // Exactly one request failed, with the injected message.
    assert_eq!(failed.len(), 1, "exactly one request fails: {failed:?}");
    let (engine, message) = &failed[0];
    assert_eq!(*engine, 0, "the first request sent takes the armed panic");
    assert!(
        message.contains(fault::INJECTED_PANIC),
        "the typed failure carries the panic message, got: {message}"
    );
    assert_eq!(report.failed, 1);
    assert_eq!(report.requests, 3);
    assert_eq!(report.offered(), 4);
    // Every survivor — on either engine — is bit-identical to its
    // reference: the panic corrupted nothing around it.
    assert_eq!(completed.len(), 3);
    let mut used = vec![false; expected.len()];
    for output in &completed {
        let hit = expected
            .iter()
            .enumerate()
            .position(|(i, e)| !used[i] && output == e)
            .expect("a surviving output matches no fault-free reference");
        used[hit] = true;
    }

    // The server is reusable after the fault (the countdown is spent),
    // including the engine that took the panic: its in-flight slot came
    // back with the unwind, so a cap of one admits again.
    let reuse: Vec<ServerRequest<f32>> = vec![
        ServerRequest::new(0, DenseMatrix::random(UNIFORM_COLS, D, 30)),
        ServerRequest::new(1, DenseMatrix::random(SKEWED_COLS, D, 31)),
    ];
    let (responses, report) = serve_all(&server, reuse);
    assert_eq!(report.requests, 2);
    assert!(responses.iter().all(|r| r.is_completed()), "both engines serve again after the fault");
}

#[test]
fn a_mid_stream_panic_spares_later_requests_on_the_same_engine() {
    let _guard = fault::exclusive();
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let pool = WorkerPool::new(1);
    let engine = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, D).unwrap();
    let server = SpmmServer::new(vec![engine]).unwrap();
    let total = 5usize;
    let inputs: Vec<DenseMatrix<f32>> =
        (0..total).map(|i| DenseMatrix::random(UNIFORM_COLS, D, 40 + i as u64)).collect();
    let expected: Vec<DenseMatrix<f32>> =
        inputs.iter().map(|x| (*server.single(0).unwrap().execute(x).unwrap().0).clone()).collect();

    // The third kernel entry panics: requests run one at a time with one
    // entry each, so the third request, in the middle of the stream.
    fault::arm_kernel_panic(3);
    let mut failed_requests: Vec<usize> = Vec::new();
    let mut completed: Vec<DenseMatrix<f32>> = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::shedding(1)),
            |sender| {
                for x in inputs.iter().cloned() {
                    sender.send_request(ServerRequest::new(0, x)).unwrap();
                }
            },
            |response| {
                // One sender, nothing shed: the k-th response answers the
                // k-th send.
                if response.failure().is_some() {
                    failed_requests.push(failed_requests.len() + completed.len());
                } else {
                    completed.push((**response.output()).clone());
                }
            },
        )
        .unwrap();

    assert_eq!(failed_requests, [2], "exactly the third request fails");
    assert_eq!(report.failed, 1);
    assert_eq!(report.requests, total - 1);
    // The engine recovered: every other request — including the ones sent
    // after the panic — completed bit-identical to its reference.
    assert_eq!(completed.len(), total - 1);
    let mut used = vec![false; expected.len()];
    for output in &completed {
        let hit = expected
            .iter()
            .enumerate()
            .position(|(i, e)| !used[i] && output == e)
            .expect("a surviving output matches no fault-free reference");
        used[hit] = true;
    }
    assert_eq!(
        used.iter().filter(|matched| !**matched).count(),
        1,
        "exactly one reference goes unmatched: the panicked request's"
    );
}

#[test]
fn a_shard_panic_fails_only_its_request() {
    let _guard = fault::exclusive();
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let pool = WorkerPool::new(1);
    let server = SpmmServer::with_pool(pool.clone());
    let mutable = jitspmm::update::MutableSpmm::compile(&a, 4, 1, D, pool.clone()).unwrap();
    assert_eq!((mutable.shards(), server.add_mutable(mutable).unwrap()), (4, 0));
    // The reference: the same four shards through the one-shot sharded path,
    // computed before arming.
    let plan = jitspmm::shard::plan_shards(&a, 4, 1).unwrap();
    let direct = jitspmm::shard::ShardedSpmm::compile(&plan, D, pool.clone()).unwrap();
    let total = 6usize;
    let inputs: Vec<DenseMatrix<f32>> =
        (0..total).map(|i| DenseMatrix::random(UNIFORM_COLS, D, 60 + i as u64)).collect();
    let expected: Vec<DenseMatrix<f32>> = inputs
        .iter()
        .map(|x| pool.scope(|scope| direct.execute(scope, x)).unwrap().0.into_dense())
        .collect();

    // Every request enters one single-lane kernel job per shard, and the
    // requests run one at a time: the tenth entry is a shard of the third
    // request, mid-session, with requests on both sides of it.
    fault::arm_kernel_panic(10);
    let mut failed: Vec<(usize, String)> = Vec::new();
    let mut completed: Vec<usize> = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::shedding(1)),
            |sender| {
                for x in inputs.iter().cloned() {
                    sender.send_request(ServerRequest::new(0, x)).unwrap();
                }
            },
            |response| {
                // One sender, nothing shed: the k-th response answers the
                // k-th send.
                let request = failed.len() + completed.len();
                match response.failure() {
                    Some(message) => failed.push((request, message.to_string())),
                    None => {
                        assert_eq!(**response.output(), expected[request], "request {request}");
                        completed.push(request);
                    }
                }
            },
        )
        .unwrap();

    assert_eq!(failed.len(), 1, "exactly one request fails: {failed:?}");
    let (victim, message) = &failed[0];
    assert!(message.contains(fault::INJECTED_PANIC), "typed failure, got: {message}");
    assert!(0 < *victim && *victim < total - 1, "the panic lands mid-session, at {victim}");
    // Everything before *and after* the victim completed, in order, on the
    // same engine: nothing was poisoned, rejected or dropped.
    let survivors: Vec<usize> = (0..total).filter(|r| r != victim).collect();
    assert_eq!(completed, survivors);
    assert_eq!((report.requests, report.failed, report.rejected), (total - 1, 1, 0));
    // The contained panic released the generation pin.
    assert_eq!(server.mutable(0).unwrap().generations_retained(), 1);
    let (responses, _) = serve_all(&server, vec![ServerRequest::new(0, inputs[0].clone())]);
    assert_eq!(**responses[0].output(), expected[0], "the engine serves again after the fault");
}

#[test]
fn a_slow_engine_does_not_hold_back_another_engines_response() {
    let _guard = fault::exclusive();
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    const STALL: Duration = Duration::from_millis(500);
    let a = small_uniform();
    let b = small_skewed();
    let pool = WorkerPool::new(2);
    let server = SpmmServer::new(vec![
        JitSpmmBuilder::new().pool(pool.clone()).threads(2).build(&a, D).unwrap(),
        JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&b, D).unwrap(),
    ])
    .unwrap();
    let inputs =
        [DenseMatrix::random(UNIFORM_COLS, D, 40), DenseMatrix::random(SKEWED_COLS, D, 41)];
    let expected = [
        (*server.single(0).unwrap().execute(&inputs[0]).unwrap().0).clone(),
        (*server.single(1).unwrap().execute(&inputs[1]).unwrap().0).clone(),
    ];

    // One sender thread per engine, both at once; the first kernel entry
    // after arming — whichever engine's it is — stalls.
    fault::arm_kernel_delay(STALL, 1);
    let started = Instant::now();
    let mut arrivals: Vec<(usize, Duration)> = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::shedding(1)),
            |sender| {
                std::thread::scope(|senders| {
                    for (engine, x) in inputs.iter().enumerate() {
                        let sender = &sender;
                        senders.spawn(move || {
                            sender.send_request(ServerRequest::new(engine, x.clone())).unwrap()
                        });
                    }
                });
            },
            |response| {
                assert_eq!(**response.output(), expected[response.engine()]);
                arrivals.push((response.engine(), started.elapsed()));
            },
        )
        .unwrap();
    // The other engine's response left while the stalled launch slept, not
    // after it.
    assert_eq!(report.requests, 2);
    assert_ne!(arrivals[0].0, arrivals[1].0);
    assert!(arrivals[1].1 >= STALL, "one launch must have stalled: {arrivals:?}");
    assert!(arrivals[0].1 < STALL, "a stall held the other engine's response back: {arrivals:?}");
}
