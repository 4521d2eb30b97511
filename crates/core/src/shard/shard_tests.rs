//! Unit tests for the sharded execution subsystem (split out of the layer
//! files to keep them readable). The cross-crate differential family lives
//! in `tests/tests/differential.rs`.

use crate::engine::{ExecutionReport, JitSpmmBuilder};
use crate::error::JitSpmmError;
use crate::runtime::{PooledMatrix, WorkerPool};
use crate::serve::fault;
use crate::shard::{plan_shards, ShardedSpmm};
use jitspmm_asm::CpuFeatures;
use jitspmm_sparse::{generate, CsrMatrix, DenseMatrix};

fn host_ok() -> bool {
    let f = CpuFeatures::detect();
    f.avx && f.has_fma()
}

#[test]
fn sharded_execute_is_bit_identical_to_unsharded() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::rmat::<f32>(10, 15_000, generate::RmatConfig::GRAPH500, 11);
    let x = DenseMatrix::random(a.ncols(), 8, 4);
    let pool = WorkerPool::new(2);
    let unsharded = JitSpmmBuilder::new().pool(pool.clone()).threads(2).build(&a, 8).unwrap();
    let (expected, _) = unsharded.execute(&x).unwrap();
    for k in [1usize, 3, 5] {
        let plan = plan_shards(&a, k, 1).unwrap();
        let sharded = ShardedSpmm::compile(&plan, 8, pool.clone()).unwrap();
        let (y, report) = pool.scope(|scope| sharded.execute(scope, &x)).unwrap();
        assert_eq!(*y, *expected, "k = {k}: sharded execute must be bit-identical to unsharded");
        // The critical path spans every shard's lanes (one each here).
        assert_eq!(report.threads, plan.len());
        assert!(report.kernel <= report.elapsed);
        // A one-shot execute is a depth-1 stream: no shard compiled a spare.
        assert!(sharded.engines().iter().all(|e| e.spare_kernels() == 0));
    }
}

#[test]
fn sharded_batch_matches_per_input_execute() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(300, 260, 5_000, 6);
    let pool = WorkerPool::new(2);
    let plan = plan_shards(&a, 3, 1).unwrap();
    let sharded = ShardedSpmm::compile(&plan, 4, pool.clone()).unwrap();
    let inputs: Vec<DenseMatrix<f32>> =
        (0..6).map(|i| DenseMatrix::random(a.ncols(), 4, 40 + i)).collect();
    let singles: Vec<DenseMatrix<f32>> = inputs
        .iter()
        .map(|x| pool.scope(|scope| sharded.execute(scope, x)).unwrap().0.into_dense())
        .collect();
    let outputs = pool.scope(|scope| sharded.execute_batch(scope, &inputs)).unwrap();
    assert_eq!(outputs.len(), inputs.len());
    for (i, (y, _)) in outputs.iter().enumerate() {
        assert_eq!(**y, singles[i], "batched input {i} differs from single execute");
        assert!(y.approx_eq(&a.spmm_reference(&inputs[i]), 1e-4));
    }
}

#[test]
fn sharded_engine_validates_shapes_and_reports_errors() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(100, 80, 1_000, 2);
    let pool = WorkerPool::new(1);
    let plan = plan_shards(&a, 2, 1).unwrap();
    let sharded = ShardedSpmm::compile(&plan, 8, pool.clone()).unwrap();
    // Wrong input shape: rejected before any launch.
    let bad = DenseMatrix::<f32>::zeros(80, 4);
    let err = pool.scope(|scope| sharded.execute(scope, &bad)).unwrap_err();
    assert!(matches!(err, JitSpmmError::ShapeMismatch(_)));
    // A bad input anywhere in a batch rejects the whole batch, named.
    let good = DenseMatrix::random(80, 8, 1);
    let mixed = [good.clone(), bad.clone()];
    let err = pool.scope(|scope| sharded.execute_batch(scope, &mixed)).unwrap_err();
    match err {
        JitSpmmError::ShapeMismatch(msg) => assert!(msg.contains("batch input 1"), "{msg}"),
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    // d = 0 cannot compile.
    assert!(matches!(
        ShardedSpmm::compile(&plan, 0, pool.clone()).unwrap_err(),
        JitSpmmError::EmptyDenseMatrix
    ));
    // And the engine still executes fine after the rejections.
    let (y, _) = pool.scope(|scope| sharded.execute(scope, &good)).unwrap();
    assert!(y.approx_eq(&a.spmm_reference(&good), 1e-4));
}

#[test]
fn zero_nnz_shards_execute_and_write_zero_rows() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    // All non-zeros in the first row: the plan keeps a zero-nnz tail shard
    // covering the remaining rows, whose kernel must still overwrite its
    // output rows (the buffer pool recycles without zeroing).
    let triplets: Vec<(usize, usize, f32)> = (0..30).map(|c| (0usize, c, 1.0 + c as f32)).collect();
    let a = CsrMatrix::<f32>::from_triplets(64, 30, &triplets).unwrap();
    let pool = WorkerPool::new(2);
    let plan = plan_shards(&a, 4, 1).unwrap();
    assert!(plan.shards().iter().any(|s| s.nnz() == 0), "expected a zero-nnz shard");
    let sharded = ShardedSpmm::compile(&plan, 8, pool.clone()).unwrap();
    let x = DenseMatrix::random(30, 8, 9);
    // Execute twice so the second run reuses a dirty recycled buffer.
    for _ in 0..2 {
        let (y, _) = pool.scope(|scope| sharded.execute(scope, &x)).unwrap();
        assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
        for r in 1..64 {
            assert!(y.row(r).iter().all(|&v| v == 0.0), "row {r} must be zeroed");
        }
    }
}

#[test]
fn sharded_outputs_recycle_in_steady_state() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(128, 128, 2_000, 3);
    let pool = WorkerPool::new(2);
    let plan = plan_shards(&a, 2, 1).unwrap();
    let sharded = ShardedSpmm::compile(&plan, 4, pool.clone()).unwrap();
    let x = DenseMatrix::random(128, 4, 5);
    let first_ptr = {
        let (y, _) = pool.scope(|scope| sharded.execute(scope, &x)).unwrap();
        y.as_ptr()
    };
    let (y, _) = pool.scope(|scope| sharded.execute(scope, &x)).unwrap();
    assert_eq!(y.as_ptr(), first_ptr, "steady-state execute must recycle the full output");
}

#[test]
fn streams_write_every_shard_in_place_and_in_order() {
    let _guard = fault::exclusive();
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::rmat::<f32>(9, 9_000, generate::RmatConfig::GRAPH500, 13);
    // Every non-zero in row 0: the trailing shards are all-empty rows.
    let row0: Vec<(usize, usize, f32)> = (0..30).map(|c| (0usize, c, 1.0 + c as f32)).collect();
    let lone = CsrMatrix::<f32>::from_triplets(64, 30, &row0).unwrap();
    for pool in [WorkerPool::new(2), WorkerPool::inline()] {
        for (matrix, shards) in [(&a, 1usize), (&a, 2), (&a, 4), (&lone, 4)] {
            let plan = plan_shards(matrix, shards, 1).unwrap();
            let sharded = ShardedSpmm::compile(&plan, 8, pool.clone()).unwrap();
            let inputs: Vec<DenseMatrix<f32>> =
                (0..64).map(|seed| DenseMatrix::random(matrix.ncols(), 8, seed)).collect();
            let expected: Vec<DenseMatrix<f32>> = inputs
                .iter()
                .map(|x| pool.scope(|scope| sharded.execute(scope, x)).unwrap().0.into_dense())
                .collect();
            for depth in 1..=3usize {
                let mut done = 0usize;
                let mut check = |(y, _): (PooledMatrix<f32>, ExecutionReport)| {
                    assert_eq!(*y, expected[done], "k {shards} depth {depth} input {done}");
                    done += 1;
                };
                pool.scope(|scope| {
                    let mut stream = sharded.batch_stream(scope, depth).unwrap();
                    // One kernel entry — one shard of the first input —
                    // stalls past its siblings and the inputs queued behind
                    // it: its rows must be there when its output comes back,
                    // and no later input may overtake it.
                    fault::arm_kernel_delay(std::time::Duration::from_millis(5), 1);
                    for x in &inputs {
                        stream.push(x).unwrap().into_iter().for_each(&mut check);
                    }
                    stream.finish().into_iter().for_each(&mut check);
                });
                assert_eq!(done, inputs.len());
                // No shard-local output ever existed, and the shared pool
                // holds what was in flight plus the one being read.
                assert!(sharded.engines().iter().all(|e| e.spare_outputs() == 0));
                assert!(sharded.spare_outputs() <= depth + 1);
            }
        }
    }
}
