//! Chaos tests: fault-injected kernel panics, via
//! `jitspmm::serve::fault` (the `fault-injection` feature).
//!
//! The containment contract under test: a panicked kernel job fails only its
//! own request — a typed [`ServerResponse::Failed`] carrying the panic
//! message — while unrelated engines keep serving and the server stays
//! usable afterwards. A sharded engine is no exception: its pipeline joins
//! every shard of a request before it unwinds, so a shard panic fails that
//! one request and the lane keeps serving.
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
use std::time::Duration;

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
    // One worker: kernel jobs enter in submission order, so the armed
    // countdown deterministically hits the first request sent.
    let pool = WorkerPool::new(1);
    let server = SpmmServer::new(vec![
        JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, D).unwrap(),
        JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&b, D).unwrap(),
    ])
    .unwrap();
    // Four requests across both engines. The kernel entry that trips the
    // armed countdown races between the pool worker and the serving loop's
    // help-first join, so *which* request dies is not deterministic — and
    // must not matter: the contract is that exactly one dies, typed, and
    // every other request is answered bit-identically.
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
            ServeOptions::new(AdmissionPolicy::blocking(8)),
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
    let (_, message) = &failed[0];
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
    // including the engine that took the panic.
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

    // The third kernel entry panics — one request in the middle of the
    // stream (which one exactly depends on the worker/helper entry race).
    fault::arm_kernel_panic(3);
    let mut failed_requests: Vec<usize> = Vec::new();
    let mut completed: Vec<DenseMatrix<f32>> = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(8)),
            |sender| {
                for x in inputs.iter().cloned() {
                    sender.send_request(ServerRequest::new(0, x)).unwrap();
                }
            },
            |response| {
                if response.failure().is_some() {
                    failed_requests.push(response.request());
                } else {
                    completed.push((**response.output()).clone());
                }
            },
        )
        .unwrap();

    assert_eq!(failed_requests.len(), 1, "exactly one mid-stream request fails");
    assert_eq!(report.failed, 1);
    assert_eq!(report.requests, total - 1);
    // The stream recovered: every other request — including the ones
    // pipelined behind the panic — completed bit-identical to its
    // reference.
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

    // Every request enters one single-lane kernel job per shard, claimed in
    // submission order: the tenth entry is a shard of the third request,
    // mid-session, with requests pipelined on both sides of it.
    fault::arm_kernel_panic(10);
    let mut failed: Vec<(usize, String)> = Vec::new();
    let mut completed: Vec<usize> = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(8)),
            |sender| {
                for x in inputs.iter().cloned() {
                    sender.send_request(ServerRequest::new(0, x)).unwrap();
                }
            },
            |response| match response.failure() {
                Some(message) => failed.push((response.request(), message.to_string())),
                None => {
                    let request = response.request();
                    assert_eq!(**response.output(), expected[request], "request {request}");
                    completed.push(request);
                }
            },
        )
        .unwrap();

    assert_eq!(failed.len(), 1, "exactly one request fails: {failed:?}");
    let (victim, message) = &failed[0];
    assert!(message.contains(fault::INJECTED_PANIC), "typed failure, got: {message}");
    assert!(0 < *victim && *victim < total - 1, "the panic lands mid-session, at {victim}");
    // Everything before *and after* the victim completed, in order, on the
    // same lane: nothing was poisoned, rejected or dropped.
    let survivors: Vec<usize> = (0..total).filter(|r| r != victim).collect();
    assert_eq!(completed, survivors);
    assert_eq!((report.requests, report.failed, report.rejected), (total - 1, 1, 0));
    // A fresh session reopens the lane: the contained panic released the
    // generation pin.
    let (responses, _) = serve_all(&server, vec![ServerRequest::new(0, inputs[0].clone())]);
    assert_eq!(**responses[0].output(), expected[0], "the lane serves again after the fault");
}

#[test]
fn a_slow_engine_does_not_hold_back_another_engines_response() {
    let _guard = fault::exclusive();
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let b = small_skewed();
    // Two workers, and engine 0 launches two tasks: both workers pass
    // through engine 0's job before either can reach engine 1's, so the
    // first kernel entry after arming — the one that stalls — is engine 0's
    // whichever worker gets there first, and the other worker goes on to
    // run engine 1.
    let pool = WorkerPool::new(2);
    let server = SpmmServer::new(vec![
        JitSpmmBuilder::new().pool(pool.clone()).threads(2).build(&a, D).unwrap(),
        JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&b, D).unwrap(),
    ])
    .unwrap();
    let slow = DenseMatrix::random(UNIFORM_COLS, D, 40);
    let fast = DenseMatrix::random(SKEWED_COLS, D, 41);
    let expected = [
        (*server.single(0).unwrap().execute(&slow).unwrap().0).clone(),
        (*server.single(1).unwrap().execute(&fast).unwrap().0).clone(),
    ];

    fault::arm_kernel_delay(Duration::from_millis(500), 1);
    let mut order = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(8)),
            |sender| {
                sender.send(0, slow).unwrap();
                sender.send(1, fast).unwrap();
            },
            |response| {
                assert_eq!(**response.output(), expected[response.engine()]);
                order.push(response.engine());
            },
        )
        .unwrap();
    // Engine 1's launch finished while engine 0's was still stalled, and
    // its response left then — not after a join of the older launch.
    assert_eq!(order, [1, 0], "engine 0's stall held engine 1's response back");
    assert_eq!(report.requests, 2);
}
