//! Chaos tests: fault-injected kernel panics, via
//! `jitspmm::serve::fault` (the `fault-injection` feature).
//!
//! The containment contract under test: a panicked kernel job fails only its
//! own request — a typed [`ServerResponse::Failed`] carrying the panic
//! message — while unrelated engines keep serving and the server stays
//! usable afterwards. A sharded engine is the one exception: its shards run
//! in lockstep, so a shard panic poisons that engine's lane (every pending
//! request on it fails, typed) but still touches nothing else.
//!
//! The fault hooks are process-global, so every test here holds
//! [`fault::exclusive`] for its whole body — the tests serialize against
//! each other whatever the harness's thread count — and computes reference
//! results *before* arming, because plain `execute` calls consume fault
//! tickets too.

use jitspmm::serve::{
    fault, AdmissionPolicy, RejectReason, ServeOptions, ServerRequest, SpmmServer,
};
use jitspmm::{JitSpmmBuilder, WorkerPool};
use jitspmm_integration_tests::{host_supports_jit, serve_all, small_skewed, small_uniform};
use jitspmm_sparse::DenseMatrix;
use std::sync::atomic::{AtomicUsize, Ordering};

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
            // Explicit depth 2 forces real pipelining even on a single-core
            // host, so the panic surfaces on the complete side of the
            // stream, not inside the synchronous push.
            ServeOptions::new(AdmissionPolicy::blocking(8)).with_depth(2),
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
            ServeOptions::new(AdmissionPolicy::blocking(8)).with_depth(2),
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
fn a_shard_panic_poisons_only_that_sharded_lane() {
    let _guard = fault::exclusive();
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let b = small_skewed();
    let pool = WorkerPool::new(1);
    let plan = jitspmm::shard::plan_shards(&a, 2, 1).unwrap();
    let sharded = jitspmm::shard::ShardedSpmm::compile(&plan, D, pool.clone()).unwrap();
    let single = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&b, D).unwrap();
    let server = SpmmServer::new(vec![single]).unwrap();
    assert_eq!(server.add_sharded(sharded).unwrap(), 1);
    let healthy: Vec<DenseMatrix<f32>> =
        (0..2).map(|i| DenseMatrix::random(SKEWED_COLS, D, 50 + i as u64)).collect();
    let expected: Vec<DenseMatrix<f32>> = healthy
        .iter()
        .map(|x| (*server.single(0).unwrap().execute(x).unwrap().0).clone())
        .collect();

    // Phase the traffic so the armed ticket can only land on the sharded
    // engine: its three requests go first, and the single engine's only
    // after all three are answered — by then the first sharded request has
    // tripped the fault and poisoned the lane.
    fault::arm_kernel_panic(1);
    let answered_sharded = AtomicUsize::new(0);
    let answered_ref = &answered_sharded;
    let mut sharded_failures = 0usize;
    let mut sharded_rejections = 0usize;
    let mut completed: Vec<(usize, DenseMatrix<f32>)> = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(8)),
            move |sender| {
                // Three requests to the sharded engine: one trips the fault,
                // the rest land on a poisoned lane.
                for i in 0..3u64 {
                    sender
                        .send_request(ServerRequest::new(
                            1,
                            DenseMatrix::random(UNIFORM_COLS, D, 60 + i),
                        ))
                        .unwrap();
                }
                while answered_ref.load(Ordering::SeqCst) < 3 {
                    std::thread::yield_now();
                }
                for x in healthy.iter().cloned() {
                    sender.send_request(ServerRequest::new(0, x)).unwrap();
                }
            },
            |response| match (response.engine(), response.failure(), response.rejection()) {
                (1, Some(_), _) => {
                    sharded_failures += 1;
                    answered_sharded.fetch_add(1, Ordering::SeqCst);
                }
                (1, _, Some(reason)) => {
                    assert_eq!(reason, RejectReason::LanePoisoned);
                    sharded_rejections += 1;
                    answered_sharded.fetch_add(1, Ordering::SeqCst);
                }
                (engine, None, None) => {
                    assert_eq!(engine, 0, "only the single engine may complete requests");
                    completed.push((response.index(), (**response.output()).clone()));
                }
                other => panic!("unexpected response shape: {other:?}"),
            },
        )
        .unwrap();

    // Every sharded request is answered — failed or typed-rejected, never
    // silently dropped or completed — and nothing else is touched.
    assert!(sharded_failures >= 1, "the tripping request fails with the panic");
    assert_eq!(sharded_failures + sharded_rejections, 3, "all sharded requests answered");
    assert_eq!(report.requests, 2);
    assert_eq!(report.failed + report.rejected, 3);
    assert_eq!(completed.len(), 2);
    for (index, output) in &completed {
        assert_eq!(output, &expected[*index], "the single engine's results are untouched");
    }

    // A fresh session reopens the sharded engine's pipeline: the poisoning
    // was per-session, the compiled engine itself is intact.
    let x = DenseMatrix::random(UNIFORM_COLS, D, 70);
    let direct = server.sharded(1).unwrap();
    let (y, _) = pool.scope(|scope| direct.execute(scope, &x)).unwrap();
    let (responses, _) = serve_all(&server, vec![ServerRequest::new(1, x)]);
    assert!(responses[0].is_completed(), "the sharded engine serves again in a new session");
    assert_eq!(
        &**responses[0].output(),
        &*y,
        "post-fault sharded results are bit-identical to direct execution"
    );
}
