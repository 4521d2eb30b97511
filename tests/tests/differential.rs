//! Scenario-matrix differential harness.
//!
//! With overlapping JIT execution in the runtime, correctness can no longer
//! rest on ad-hoc cases: this harness runs the JIT engine (both workload
//! division families), the single-thread scalar baseline and the
//! multi-threaded auto-vectorized baseline against each other across a
//! matrix of structural shapes × lane counts, and requires elementwise
//! agreement within tolerance everywhere. The scalar baseline — plain safe
//! Rust, no threading, no unsafe — is the trust anchor; everything else is
//! differential against it.
//!
//! Shapes: empty rows, a single dense row, banded, power-law, tiny (1×1),
//! and wide outputs (d swept over 1..=64). Lane counts: 1, 2, the shared
//! pool's size, and oversubscribed (more lanes than workers). Every
//! combination that executed is counted, and the harness asserts it covered
//! at least the 20 combinations the runtime milestone calls for.

use jitspmm::baseline::{scalar, vectorized};
use jitspmm::serve::{ServerRequest, SpmmServer};
use jitspmm::shard::{plan_shards, ShardedSpmm};
use jitspmm::{JitSpmmBuilder, JitSpmmError, JobSpec, Strategy, WorkerPool};
use jitspmm_integration_tests::{host_supports_jit, serve_all};
use jitspmm_sparse::{generate, CsrMatrix, DenseMatrix};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One differential scenario: a named matrix shape plus a dense column
/// count.
struct Scenario {
    name: String,
    matrix: CsrMatrix<f32>,
    d: usize,
}

fn scenario(name: impl Into<String>, matrix: CsrMatrix<f32>, d: usize) -> Scenario {
    Scenario { name: name.into(), matrix, d }
}

/// A 120x90 matrix where five out of every six rows are empty.
fn empty_rows() -> CsrMatrix<f32> {
    let triplets: Vec<(usize, usize, f32)> =
        (0..120).step_by(6).flat_map(|r| [(r, r % 90, 1.5), (r, (r * 7 + 3) % 90, -2.0)]).collect();
    CsrMatrix::from_triplets(120, 90, &triplets).unwrap()
}

/// A 64x64 matrix whose only non-zeros form one fully dense row, so a
/// single task carries the entire workload however rows are partitioned.
fn single_dense_row() -> CsrMatrix<f32> {
    let triplets: Vec<(usize, usize, f32)> =
        (0..64).map(|c| (20usize, c as usize, 0.25 + c as f32)).collect();
    CsrMatrix::from_triplets(64, 64, &triplets).unwrap()
}

/// A 150x150 tridiagonal band: uniform short rows, the static splitters'
/// best case and the dynamic claim loop's worst (many tiny batches).
fn banded() -> CsrMatrix<f32> {
    let mut triplets = Vec::new();
    for r in 0..150usize {
        triplets.push((r, r, 2.0));
        if r > 0 {
            triplets.push((r, r - 1, -1.0));
        }
        if r + 1 < 150 {
            triplets.push((r, r + 1, -1.0));
        }
    }
    CsrMatrix::from_triplets(150, 150, &triplets).unwrap()
}

/// A skewed power-law graph (hub rows next to near-empty rows).
fn power_law() -> CsrMatrix<f32> {
    generate::rmat(9, 5_000, generate::RmatConfig::GRAPH500, 33)
}

/// The smallest possible problem.
fn tiny() -> CsrMatrix<f32> {
    CsrMatrix::from_triplets(1, 1, &[(0, 0, 3.5)]).unwrap()
}

/// A moderate uniform matrix used for the wide-output (d) sweep.
fn wide_base() -> CsrMatrix<f32> {
    generate::uniform(200, 170, 2_500, 44)
}

fn scenarios() -> Vec<Scenario> {
    let mut all = vec![
        scenario("empty-rows", empty_rows(), 8),
        scenario("single-dense-row", single_dense_row(), 16),
        scenario("banded", banded(), 8),
        scenario("power-law", power_law(), 16),
        scenario("tiny-1x1", tiny(), 1),
    ];
    // Wide outputs: sweep d across the 1..=64 range the kernels tile over,
    // hitting the remainder paths (non-multiples of the SIMD width) too.
    for d in [1usize, 5, 16, 33, 64] {
        all.push(scenario(format!("wide-d{d}"), wide_base(), d));
    }
    all
}

#[test]
fn differential_matrix_jit_vs_baselines() {
    let pool = WorkerPool::new(3);
    // 1 lane, 2 lanes, one per pool worker, oversubscribed.
    let lane_counts = [1usize, 2, pool.size(), 8];
    let jit = host_supports_jit();
    if !jit {
        eprintln!("host lacks AVX/FMA: running the baseline-only differential");
    }
    let mut combinations = 0usize;

    for s in scenarios() {
        let x = DenseMatrix::random(s.matrix.ncols(), s.d, 77);
        // Trust anchor: single-thread scalar AOT baseline.
        let mut expected = DenseMatrix::zeros(s.matrix.nrows(), s.d);
        scalar::spmm_scalar_naive(&s.matrix, &x, &mut expected);

        for lanes in lane_counts {
            // Differential axis 1: the multi-threaded auto-vectorized
            // baseline on the shared pool.
            let mut y_vec = DenseMatrix::zeros(s.matrix.nrows(), s.d);
            vectorized::spmm_vectorized_on(
                &pool,
                &s.matrix,
                &x,
                &mut y_vec,
                Strategy::row_split_dynamic_default(),
                lanes,
            );
            assert!(
                y_vec.approx_eq(&expected, 1e-4),
                "{} ({} lanes): vectorized vs scalar, max diff {}",
                s.name,
                lanes,
                y_vec.max_abs_diff(&expected)
            );

            // Differential axis 2: the JIT engine, both workload-division
            // families (static ranges and the dynamic claim loop).
            if jit {
                for strategy in [Strategy::RowSplitStatic, Strategy::RowSplitDynamic { batch: 16 }]
                {
                    let engine = JitSpmmBuilder::new()
                        .strategy(strategy)
                        .threads(lanes)
                        .pool(pool.clone())
                        .build(&s.matrix, s.d)
                        .unwrap();
                    let (y, report) = engine.execute(&x).unwrap();
                    assert!(
                        y.approx_eq(&expected, 1e-4),
                        "{} ({} lanes, {strategy}): jit vs scalar, max diff {}",
                        s.name,
                        lanes,
                        y.max_abs_diff(&expected)
                    );
                    assert_eq!(report.threads, lanes);
                }
            }
            combinations += 1;
        }
    }

    assert!(
        combinations >= 20,
        "differential harness must cover at least 20 scenario combinations, got {combinations}"
    );
}

#[test]
fn differential_matrix_async_overlap() {
    // The same scenario matrix, but every consecutive pair of scenarios is
    // executed as two *overlapping* lane-capped launches — two engines'
    // streams open at once on one shared pool, the exact configuration the
    // deferred-submission runtime exists for — and each result must still be
    // bit-identical to its engine's blocking execute and match the scalar
    // trust anchor.
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let pool = WorkerPool::new(3);
    let all = scenarios();
    let mut combinations = 0usize;
    for pair in all.chunks(2) {
        let [s1, s2] = pair else { continue };
        let x1 = DenseMatrix::random(s1.matrix.ncols(), s1.d, 5);
        let x2 = DenseMatrix::random(s2.matrix.ncols(), s2.d, 6);
        let mut expected1 = DenseMatrix::zeros(s1.matrix.nrows(), s1.d);
        scalar::spmm_scalar_naive(&s1.matrix, &x1, &mut expected1);
        let mut expected2 = DenseMatrix::zeros(s2.matrix.nrows(), s2.d);
        scalar::spmm_scalar_naive(&s2.matrix, &x2, &mut expected2);
        let e1 = JitSpmmBuilder::new()
            .strategy(Strategy::RowSplitDynamic { batch: 16 })
            .threads(1)
            .pool(pool.clone())
            .build(&s1.matrix, s1.d)
            .unwrap();
        let e2 = JitSpmmBuilder::new()
            .strategy(Strategy::RowSplitStatic)
            .threads(2)
            .pool(pool.clone())
            .build(&s2.matrix, s2.d)
            .unwrap();
        let blocking1 = e1.execute(&x1).unwrap().0.into_dense();
        let blocking2 = e2.execute(&x2).unwrap().0.into_dense();
        pool.scope(|scope| {
            for round in 0..5 {
                let mut stream1 = e1.batch_stream(scope, 1).unwrap();
                let mut stream2 = e2.batch_stream(scope, 1).unwrap();
                assert!(stream1.push(&x1).unwrap().is_none());
                assert!(stream2.push(&x2).unwrap().is_none());
                // Finish in reverse submission order to exercise
                // out-of-order completion.
                let (y2, _) = stream2.finish().pop().unwrap();
                let (y1, _) = stream1.finish().pop().unwrap();
                assert_eq!(*y1, blocking1, "{} (round {round}): overlap changed bits", s1.name);
                assert_eq!(*y2, blocking2, "{} (round {round}): overlap changed bits", s2.name);
                assert!(
                    y1.approx_eq(&expected1, 1e-4),
                    "{} overlapped with {} (round {round})",
                    s1.name,
                    s2.name
                );
                assert!(
                    y2.approx_eq(&expected2, 1e-4),
                    "{} overlapped with {} (round {round})",
                    s2.name,
                    s1.name
                );
                combinations += 1;
            }
        });
    }
    assert!(combinations >= 20, "async differential covered only {combinations} combinations");
}

#[test]
fn differential_matrix_batched() {
    // The batched pipeline across the scenario matrix × batch sizes
    // {1, 4, 32}: every output must be *bit-identical* to the blocking
    // per-input `execute` (same compiled kernel, same per-row arithmetic —
    // pipelining may not change a single bit) and must agree with the
    // per-input scalar batch baseline, the trust anchor, within tolerance.
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let pool = WorkerPool::new(3);
    let mut combinations = 0usize;
    for (index, s) in scenarios().iter().enumerate() {
        // Alternate the workload-division family across scenarios so both
        // the static-range and the dynamic claim-loop kernels see every
        // batch size.
        let strategy = if index % 2 == 0 {
            Strategy::RowSplitDynamic { batch: 16 }
        } else {
            Strategy::RowSplitStatic
        };
        let engine = JitSpmmBuilder::new()
            .strategy(strategy)
            .threads(2)
            .pool(pool.clone())
            .build(&s.matrix, s.d)
            .unwrap();
        for batch_size in [1usize, 4, 32] {
            let inputs: Vec<DenseMatrix<f32>> = (0..batch_size)
                .map(|i| DenseMatrix::random(s.matrix.ncols(), s.d, 1_000 + i as u64))
                .collect();
            let anchors = scalar::spmm_scalar_batch(&s.matrix, &inputs);
            let blocking: Vec<DenseMatrix<f32>> =
                inputs.iter().map(|x| engine.execute(x).unwrap().0.into_dense()).collect();
            let outputs = pool.scope(|scope| engine.execute_batch(scope, &inputs)).unwrap();
            assert_eq!(outputs.len(), batch_size, "{} (batch {batch_size})", s.name);
            for (i, (y, _)) in outputs.iter().enumerate() {
                assert_eq!(
                    **y, blocking[i],
                    "{} (batch {batch_size}, input {i}, {strategy}): batched result must be \
                     bit-identical to per-input execute",
                    s.name
                );
                assert!(
                    y.approx_eq(&anchors[i], 1e-4),
                    "{} (batch {batch_size}, input {i}, {strategy}): batched vs scalar anchor, \
                     max diff {}",
                    s.name,
                    y.max_abs_diff(&anchors[i])
                );
            }
            drop(outputs);
            // Same inputs through the incremental stream, driven by hand.
            pool.scope(|scope| {
                let mut stream = engine.batch_stream(scope, 2).unwrap();
                let mut streamed = Vec::new();
                for x in &inputs {
                    if let Some((y, _)) = stream.push(x).unwrap() {
                        streamed.push(y);
                    }
                }
                streamed.extend(stream.finish().into_iter().map(|(y, _)| y));
                for (i, y) in streamed.iter().enumerate() {
                    assert_eq!(
                        **y, blocking[i],
                        "{} (batch {batch_size}, input {i}, {strategy}): pipelined stream \
                         must be bit-identical to per-input execute",
                        s.name
                    );
                }
            });
            combinations += 1;
        }
    }
    assert!(
        combinations >= 18,
        "batched differential must cover >= 6 shapes x 3 batch sizes, got {combinations}"
    );
}

#[test]
fn batched_edge_case_empty_and_single_input() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let m = wide_base();
    let engine = JitSpmmBuilder::new().threads(2).build(&m, 8).unwrap();
    // Batch of size 0: no launches, no results, engine untouched.
    let outputs = engine.pool().scope(|scope| engine.execute_batch(scope, &[])).unwrap();
    assert!(outputs.is_empty());
    // Batch of size 1 equals a single blocking execute, bit for bit.
    let one = [DenseMatrix::random(m.ncols(), 8, 7)];
    let (y_blocking, _) = engine.execute(&one[0]).unwrap();
    let y_blocking = y_blocking.into_dense();
    let outputs = engine.pool().scope(|scope| engine.execute_batch(scope, &one)).unwrap();
    assert_eq!(outputs.len(), 1);
    assert_eq!(*outputs[0].0, y_blocking);
}

#[test]
fn batched_edge_case_mismatched_d_errors_without_corrupting_the_pipeline() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let m = wide_base();
    let pool = WorkerPool::new(2);
    let engine = JitSpmmBuilder::new().threads(2).pool(pool.clone()).build(&m, 16).unwrap();
    let good: Vec<DenseMatrix<f32>> =
        (0..4).map(|i| DenseMatrix::random(m.ncols(), 16, 50 + i)).collect();
    let mut mixed: Vec<DenseMatrix<f32>> = good.clone();
    mixed.insert(2, DenseMatrix::random(m.ncols(), 8, 99)); // wrong d
                                                            // The whole batch is rejected up front — validation is hoisted, so no
                                                            // launch happens before the error.
    let err = pool.scope(|scope| engine.execute_batch(scope, &mixed)).unwrap_err();
    assert!(matches!(err, JitSpmmError::ShapeMismatch(_)), "got {err:?}");
    // Mid-stream, a bad push errors while the launches in flight complete
    // unharmed.
    let bad = DenseMatrix::<f32>::zeros(m.ncols(), 4);
    pool.scope(|scope| {
        let mut stream = engine.batch_stream(scope, 2).unwrap();
        let mut completed = Vec::new();
        for (i, x) in good.iter().enumerate() {
            if i == 1 {
                assert!(matches!(stream.push(&bad).unwrap_err(), JitSpmmError::ShapeMismatch(_)));
            }
            if let Some(done) = stream.push(x).unwrap() {
                completed.push(done);
            }
        }
        completed.extend(stream.finish());
        assert_eq!(completed.len(), good.len());
        let anchors = scalar::spmm_scalar_batch(&m, &good);
        for ((y, _), anchor) in completed.iter().zip(&anchors) {
            assert!(y.approx_eq(anchor, 1e-4));
        }
    });
    // And the engine still serves plain executes afterwards.
    let (y, _) = engine.execute(&good[0]).unwrap();
    assert!(y.approx_eq(&m.spmm_reference(&good[0]), 1e-4));
}

#[test]
fn batched_edge_case_worker_panic_leaves_engine_reusable() {
    // A worker panic mid-batch: pool workers only panic from *task* code,
    // and the compiled kernels do not panic, so the realistic mid-batch
    // panic is another job sharing the pool blowing up between batch
    // launches. The pool isolates per-job panics, the batch must complete
    // correctly, the scope re-raises the foreign panic at exit — and the
    // engine (and pool) must remain fully usable afterwards.
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let m = power_law();
    let pool = WorkerPool::new(2);
    let engine = JitSpmmBuilder::new()
        .strategy(Strategy::RowSplitDynamic { batch: 16 })
        .threads(1)
        .pool(pool.clone())
        .build(&m, 8)
        .unwrap();
    let inputs: Vec<DenseMatrix<f32>> =
        (0..6).map(|i| DenseMatrix::random(m.ncols(), 8, 70 + i)).collect();
    let anchors = scalar::spmm_scalar_batch(&m, &inputs);
    let boom = |_i: usize| panic!("mid-batch worker panic");
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|scope| {
            let mut stream = engine.batch_stream(scope, 2).unwrap();
            let mut completed = Vec::new();
            for (i, x) in inputs.iter().enumerate() {
                if i == 2 {
                    // The panicking job lands on the shared workers between
                    // two batch launches; its handle is dropped, so the
                    // panic surfaces at scope exit.
                    drop(scope.submit(JobSpec::new(2).max_lanes(1), &boom));
                }
                if let Some(done) = stream.push(x).unwrap() {
                    completed.push(done);
                }
            }
            completed.extend(stream.finish());
            assert_eq!(completed.len(), inputs.len());
            for ((y, _), anchor) in completed.iter().zip(&anchors) {
                assert!(y.approx_eq(anchor, 1e-4), "batch corrupted by a foreign panic");
            }
        });
    }));
    let payload = result.unwrap_err();
    let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(message, "mid-batch worker panic");
    // Engine and pool both survive: a fresh batch and a plain execute work.
    let outputs = pool.scope(|scope| engine.execute_batch(scope, &inputs[..2])).unwrap();
    assert!(outputs[0].0.approx_eq(&anchors[0], 1e-4));
    assert!(outputs[1].0.approx_eq(&anchors[1], 1e-4));
    let (y, _) = engine.execute(&inputs[0]).unwrap();
    assert!(y.approx_eq(&anchors[0], 1e-4));
}

#[test]
fn differential_matrix_mixed_engine_serving() {
    // The serving router across the scenario matrix: 2-4 engines over
    // heterogeneous shapes, an interleaved mixed request order, and batch
    // sizes {1, 4, 32} *per engine*. Every response must be bit-identical to
    // that engine's blocking per-input `execute` (routing, owned-input
    // hand-off and pipelining may not change a single bit) and must agree
    // with the serial scalar serving anchor within tolerance.
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let pool = WorkerPool::new(3);
    let all = scenarios();
    let mut combinations = 0usize;
    for engine_count in [2usize, 3, 4] {
        // Spread the picked scenarios across the list so the engine mix is
        // heterogeneous (different nrows/ncols/d per engine).
        let stride = (all.len() / engine_count).max(1);
        let picked: Vec<&Scenario> = all.iter().step_by(stride).take(engine_count).collect();
        assert_eq!(picked.len(), engine_count);
        for batch_size in [1usize, 4, 32] {
            // One pipeline's worth of inputs per engine, then interleave
            // with a fixed non-round-robin pattern: drain per-engine queues
            // in an order driven by a small LCG so bursts and alternations
            // both occur.
            let mut inputs_by_engine: Vec<Vec<DenseMatrix<f32>>> = picked
                .iter()
                .enumerate()
                .map(|(e, s)| {
                    (0..batch_size)
                        .map(|i| {
                            DenseMatrix::random(s.matrix.ncols(), s.d, (3_000 + 100 * e + i) as u64)
                        })
                        .collect()
                })
                .collect();
            let engines: Vec<_> = picked
                .iter()
                .enumerate()
                .map(|(e, s)| {
                    let strategy = if e % 2 == 0 {
                        Strategy::RowSplitDynamic { batch: 16 }
                    } else {
                        Strategy::RowSplitStatic
                    };
                    JitSpmmBuilder::new()
                        .strategy(strategy)
                        .threads(1)
                        .pool(pool.clone())
                        .build(&s.matrix, s.d)
                        .unwrap()
                })
                .collect();
            // Reference 1: per-engine sequential blocking execution.
            let expected: Vec<Vec<DenseMatrix<f32>>> = engines
                .iter()
                .zip(&inputs_by_engine)
                .map(|(engine, inputs)| {
                    inputs.iter().map(|x| engine.execute(x).unwrap().0.into_dense()).collect()
                })
                .collect();
            // Reference 2: the serial scalar serving anchor over the same
            // mixed stream (built below, in the same interleaved order).
            let matrices: Vec<&CsrMatrix<f32>> = picked.iter().map(|s| &s.matrix).collect();

            // Interleave into the mixed request stream.
            let mut cursors = vec![0usize; engine_count];
            let mut requests = Vec::with_capacity(engine_count * batch_size);
            let mut anchor_requests = Vec::with_capacity(engine_count * batch_size);
            let mut lcg: u64 = 0x2545F4914F6CDD1D ^ (engine_count * 31 + batch_size) as u64;
            let total = engine_count * batch_size;
            while requests.len() < total {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let mut engine = (lcg >> 33) as usize % engine_count;
                while cursors[engine] == batch_size {
                    engine = (engine + 1) % engine_count;
                }
                let input = std::mem::replace(
                    &mut inputs_by_engine[engine][cursors[engine]],
                    DenseMatrix::zeros(1, 1),
                );
                cursors[engine] += 1;
                anchor_requests.push((engine, input.clone()));
                requests.push(ServerRequest::new(engine, input));
            }
            let anchors = scalar::spmm_scalar_serve_mixed(&matrices, &anchor_requests);

            let server = SpmmServer::new(engines).unwrap();
            let (responses, report) = serve_all(&server, requests);
            assert_eq!(responses.len(), total);
            assert_eq!(report.requests, total);
            for (g, response) in responses.iter().enumerate() {
                assert_eq!(response.request(), g, "responses sorted by submission order");
                assert_eq!(response.engine(), anchor_requests[g].0, "response routed wrong");
                assert_eq!(
                    **response.output(),
                    expected[response.engine()][response.index()],
                    "{} engines, batch {batch_size}, request {g} (engine {}): mixed-stream \
                     result must be bit-identical to per-engine sequential execute",
                    engine_count,
                    response.engine()
                );
                assert!(
                    response.output().approx_eq(&anchors[g], 1e-4),
                    "{} engines, batch {batch_size}, request {g}: serving vs scalar anchor, \
                     max diff {}",
                    engine_count,
                    response.output().max_abs_diff(&anchors[g])
                );
            }
            for e in 0..engine_count {
                let served = responses.iter().filter(|r| r.engine() == e).count();
                assert_eq!(served, batch_size, "engine {e} request count");
            }
            combinations += 1;
        }
    }
    assert_eq!(
        combinations, 9,
        "mixed-engine differential must cover 3 engine counts x 3 batch sizes"
    );
}

#[test]
fn mixed_engine_serving_in_single_threaded_mode_is_deterministic() {
    // The same mixed stream served twice must produce byte-identical
    // responses — whatever the scheduling mode (this test is most
    // interesting under RUST_TEST_THREADS=1, where the whole choreography
    // is deterministic, but must hold everywhere).
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let pool = WorkerPool::new(2);
    let a = wide_base();
    let b = banded();
    let build = || {
        SpmmServer::new(vec![
            JitSpmmBuilder::new()
                .pool(pool.clone())
                .threads(1)
                .strategy(Strategy::RowSplitDynamic { batch: 16 })
                .build(&a, 8)
                .unwrap(),
            JitSpmmBuilder::new()
                .pool(pool.clone())
                .threads(1)
                .strategy(Strategy::RowSplitStatic)
                .build(&b, 4)
                .unwrap(),
        ])
        .unwrap()
    };
    let requests = |server: &SpmmServer<'_, f32>| -> Vec<ServerRequest<f32>> {
        (0..10)
            .map(|i| {
                let engine = (i * 3 + 1) % 2;
                let single = server.single(engine).expect("both engines are single");
                let (m, d) = (single.matrix(), single.d());
                ServerRequest::new(engine, DenseMatrix::random(m.ncols(), d, 5_000 + i as u64))
            })
            .collect()
    };
    let serve = |server: &SpmmServer<'_, f32>| serve_all(server, requests(server)).0;
    let first = serve(&build());
    let second = serve(&build());
    assert_eq!(first.len(), second.len());
    for (r1, r2) in first.iter().zip(&second) {
        assert_eq!(r1.engine(), r2.engine());
        assert_eq!(r1.index(), r2.index());
        assert_eq!(**r1.output(), **r2.output(), "serving is not deterministic");
    }
}

#[test]
fn differential_matrix_sharded() {
    // The sharded engine across the scenario matrix × shard counts
    // {2, 3, 8} × batch sizes {1, 4, 32}: sharding splits the matrix into
    // nnz-balanced row shards, each with its own compiled kernel and
    // (possibly different) workload-division strategy — yet every output
    // row is computed with the same per-row arithmetic, so results must be
    // *bit-identical* to the unsharded engine's blocking `execute` (single
    // inputs and batches alike) and within tolerance of the scalar batch
    // anchor.
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let pool = WorkerPool::new(3);
    let mut combinations = 0usize;
    for s in scenarios() {
        let inputs: Vec<DenseMatrix<f32>> =
            (0..32).map(|i| DenseMatrix::random(s.matrix.ncols(), s.d, 2_000 + i as u64)).collect();
        let anchors = scalar::spmm_scalar_batch(&s.matrix, &inputs);
        let unsharded =
            JitSpmmBuilder::new().threads(2).pool(pool.clone()).build(&s.matrix, s.d).unwrap();
        let blocking: Vec<DenseMatrix<f32>> =
            inputs.iter().map(|x| unsharded.execute(x).unwrap().0.into_dense()).collect();
        for k in [2usize, 3, 8] {
            let plan = plan_shards(&s.matrix, k, 1).unwrap();
            assert!(plan.len() <= k && !plan.is_empty());
            assert!(plan.nnz_imbalance() >= 1.0);
            let sharded = ShardedSpmm::compile(&plan, s.d, pool.clone()).unwrap();
            // The single-launch path: a depth-1 stream, every shard kernel
            // writing straight into the full output.
            let (y, report) = pool.scope(|scope| sharded.execute(scope, &inputs[0])).unwrap();
            assert_eq!(
                *y, blocking[0],
                "{} (k = {k}): sharded execute must be bit-identical to unsharded",
                s.name
            );
            // The critical path covers every shard's lane.
            assert_eq!(report.threads, plan.len());
            drop(y);
            for batch_size in [1usize, 4, 32] {
                let slice = &inputs[..batch_size];
                let outputs = pool.scope(|scope| sharded.execute_batch(scope, slice)).unwrap();
                assert_eq!(outputs.len(), batch_size);
                for (i, (y, report)) in outputs.iter().enumerate() {
                    assert_eq!(report.threads, plan.len());
                    assert_eq!(
                        **y, blocking[i],
                        "{} (k = {k}, batch {batch_size}, input {i}): sharded batch must be \
                         bit-identical to unsharded execute",
                        s.name
                    );
                    assert!(
                        y.approx_eq(&anchors[i], 1e-4),
                        "{} (k = {k}, batch {batch_size}, input {i}): sharded vs scalar \
                         anchor, max diff {}",
                        s.name,
                        y.max_abs_diff(&anchors[i])
                    );
                }
                combinations += 1;
            }
        }
    }
    assert!(
        combinations >= 90,
        "sharded differential must cover >= 10 shapes x 3 shard counts x 3 batch sizes, \
         got {combinations}"
    );
}

/// A deep owned copy of `m`: same structure, freshly allocated arrays —
/// the storage layout shard plans used to materialize before borrowed CSR.
fn deep_copy(m: &CsrMatrix<f32>) -> CsrMatrix<f32> {
    CsrMatrix::from_raw_parts(
        m.nrows(),
        m.ncols(),
        m.row_ptr().to_vec(),
        m.col_indices().to_vec(),
        m.values().to_vec(),
    )
    .unwrap()
}

#[test]
fn differential_matrix_borrowed_vs_owned_shards() {
    // The scenario matrix × shard counts {2, 3, 8}: every shard a plan
    // extracts is a zero-copy view of the parent's nnz arrays, and an
    // engine compiled from that view must be *bit-identical* — single
    // launches and batches alike — to an engine compiled from a deep owned
    // copy of the same rows. Borrowed storage changes where the arrays live
    // and what a plan weighs, never the bytes the generated kernel embeds
    // (the base addresses differ; the loads and arithmetic do not).
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let pool = WorkerPool::new(2);
    let mut shards_checked = 0usize;
    for s in scenarios() {
        let inputs: Vec<DenseMatrix<f32>> =
            (0..4).map(|i| DenseMatrix::random(s.matrix.ncols(), s.d, 5_000 + i as u64)).collect();
        for k in [2usize, 3, 8] {
            let plan = plan_shards(&s.matrix, k, 1).unwrap();
            for spec in plan.shards() {
                assert!(
                    spec.matrix.shares_storage_with(&s.matrix),
                    "{} (k = {k}): shard {:?} copied its nnz arrays",
                    s.name,
                    spec.rows
                );
                let owned = deep_copy(&spec.matrix);
                assert!(!owned.shares_storage_with(&s.matrix));
                let from_view = JitSpmmBuilder::new()
                    .threads(2)
                    .pool(pool.clone())
                    .build(&spec.matrix, s.d)
                    .unwrap();
                let from_owned =
                    JitSpmmBuilder::new().threads(2).pool(pool.clone()).build(&owned, s.d).unwrap();
                // Blocking single launches, input by input.
                for (i, x) in inputs.iter().enumerate() {
                    let (yv, _) = from_view.execute(x).unwrap();
                    let (yo, _) = from_owned.execute(x).unwrap();
                    assert_eq!(
                        *yv, *yo,
                        "{} (k = {k}, shard {:?}, input {i}): view-compiled engine \
                         diverged from owned-compiled",
                        s.name, spec.rows
                    );
                }
                // The pipelined batch path, whole batch at once.
                let ys_view = pool.scope(|scope| from_view.execute_batch(scope, &inputs)).unwrap();
                let ys_owned =
                    pool.scope(|scope| from_owned.execute_batch(scope, &inputs)).unwrap();
                for (i, ((yv, _), (yo, _))) in ys_view.iter().zip(&ys_owned).enumerate() {
                    assert_eq!(
                        **yv, **yo,
                        "{} (k = {k}, shard {:?}, batch input {i}): view-compiled batch \
                         diverged from owned-compiled",
                        s.name, spec.rows
                    );
                }
                shards_checked += 1;
            }
        }
    }
    assert!(
        shards_checked >= 30,
        "borrowed-vs-owned differential must cover a meaningful shard population, \
         got {shards_checked}"
    );
}

#[test]
fn sharded_edge_cases() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let pool = WorkerPool::new(2);
    // The planner on an empty matrix fails with the typed error, never a
    // panic or a zero-shard plan.
    let empty = CsrMatrix::<f32>::zeros(0, 8);
    assert!(matches!(plan_shards(&empty, 4, 1).unwrap_err(), JitSpmmError::EmptySparseMatrix));
    // K = 1: one shard, the degenerate plan — still bit-identical.
    let m = power_law();
    let x = DenseMatrix::random(m.ncols(), 8, 3);
    let unsharded = JitSpmmBuilder::new().threads(2).pool(pool.clone()).build(&m, 8).unwrap();
    let (expected, _) = unsharded.execute(&x).unwrap();
    let plan = plan_shards(&m, 1, 1).unwrap();
    assert_eq!(plan.len(), 1);
    let sharded = ShardedSpmm::compile(&plan, 8, pool.clone()).unwrap();
    let (y, _) = pool.scope(|scope| sharded.execute(scope, &x)).unwrap();
    assert_eq!(*y, *expected, "k = 1 sharding must be the identity");
    drop(y);
    // K > rows: the plan clamps to the row count, no zero-row shards.
    let small = tiny();
    let plan = plan_shards(&small, 8, 1).unwrap();
    assert_eq!(plan.len(), 1, "a 1x1 matrix supports exactly one shard");
    let sharded = ShardedSpmm::compile(&plan, 1, pool.clone()).unwrap();
    let xs = DenseMatrix::random(1, 1, 5);
    let (y, _) = pool.scope(|scope| sharded.execute(scope, &xs)).unwrap();
    assert!(y.approx_eq(&small.spmm_reference(&xs), 1e-5));
    drop(y);
    // An empty (zero-nnz) shard: the single-dense-row scenario concentrates
    // every non-zero in one row, so cutting it leaves zero-nnz shards that
    // must still overwrite their output rows.
    let hub = single_dense_row();
    let plan = plan_shards(&hub, 4, 1).unwrap();
    assert!(
        plan.shards().iter().any(|s| s.nnz() == 0),
        "expected the hub matrix to produce a zero-nnz shard"
    );
    let sharded = ShardedSpmm::compile(&plan, 16, pool.clone()).unwrap();
    let xh = DenseMatrix::random(hub.ncols(), 16, 6);
    let reference = hub.spmm_reference(&xh);
    for _ in 0..2 {
        // Twice: the second run reuses a dirty recycled output buffer.
        let (y, _) = pool.scope(|scope| sharded.execute(scope, &xh)).unwrap();
        assert!(y.approx_eq(&reference, 1e-4));
    }
}
