//! Unit tests for the single-launch layer (split out of `launch.rs` to
//! keep each engine layer file readable).

use crate::engine::JitSpmmBuilder;
use crate::error::JitSpmmError;
use crate::runtime::WorkerPool;
use crate::schedule::Strategy;
use jitspmm_asm::CpuFeatures;
use jitspmm_sparse::generate;
use jitspmm_sparse::DenseMatrix;

fn host_ok() -> bool {
    let f = CpuFeatures::detect();
    f.avx && f.has_fma()
}

#[test]
fn shape_mismatch_is_detected() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(50, 60, 300, 1);
    let engine = JitSpmmBuilder::new().threads(1).build(&a, 8).unwrap();
    let wrong_rows = DenseMatrix::<f32>::zeros(10, 8);
    assert!(engine.execute(&wrong_rows).is_err());
    let wrong_cols = DenseMatrix::<f32>::zeros(60, 9);
    assert!(engine.execute(&wrong_cols).is_err());
    let x = DenseMatrix::<f32>::zeros(60, 8);
    let mut bad_y = DenseMatrix::<f32>::zeros(50, 9);
    assert!(engine.execute_into(&x, &mut bad_y).is_err());
    assert!(engine.execute_single_thread(&x, &mut bad_y).is_err());
}

#[test]
fn repeated_execution_is_consistent() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(300, 300, 5_000, 6);
    let x = DenseMatrix::random(300, 32, 1);
    let engine = JitSpmmBuilder::new().threads(4).build(&a, 32).unwrap();
    let (y1, _) = engine.execute(&x).unwrap();
    let (y2, _) = engine.execute(&x).unwrap();
    assert_eq!(y1, y2);
}

#[test]
fn execute_recycles_output_buffers() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(128, 128, 1_000, 4);
    let x = DenseMatrix::random(128, 8, 1);
    let engine = JitSpmmBuilder::new().threads(2).build(&a, 8).unwrap();
    let first_ptr = {
        let (y, _) = engine.execute(&x).unwrap();
        y.as_ptr()
    };
    // The buffer from the dropped result must be reused verbatim.
    let (y2, _) = engine.execute(&x).unwrap();
    assert_eq!(y2.as_ptr(), first_ptr, "steady-state execute must not allocate");
    assert!(y2.approx_eq(&a.spmm_reference(&x), 1e-4));
    // Results reused after stale (non-zeroed) recycling are still exact:
    // run a second input through the same buffer.
    drop(y2);
    let x2 = DenseMatrix::random(128, 8, 99);
    let (y3, _) = engine.execute(&x2).unwrap();
    assert!(y3.approx_eq(&a.spmm_reference(&x2), 1e-4));
}

#[test]
fn reports_split_dispatch_from_kernel_time() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(256, 256, 4_000, 2);
    let x = DenseMatrix::random(256, 16, 3);
    let engine = JitSpmmBuilder::new().threads(2).build(&a, 16).unwrap();
    let mut y = DenseMatrix::zeros(256, 16);
    let report = engine.execute_into(&x, &mut y).unwrap();
    assert!(report.kernel <= report.elapsed);
    assert_eq!(report.elapsed, report.kernel + report.dispatch);
    let single = engine.execute_single_thread(&x, &mut y).unwrap();
    assert!(single.kernel <= single.elapsed);
}

#[test]
fn execute_async_matches_blocking_execute() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::rmat::<f32>(8, 4_000, generate::RmatConfig::GRAPH500, 3);
    let x = DenseMatrix::random(a.ncols(), 16, 9);
    for strategy in [Strategy::RowSplitStatic, Strategy::row_split_dynamic_default()] {
        let engine = JitSpmmBuilder::new()
            .strategy(strategy)
            .threads(2)
            .pool(WorkerPool::new(2))
            .build(&a, 16)
            .unwrap();
        let (y_blocking, _) = engine.execute(&x).unwrap();
        let y_blocking = y_blocking.into_dense();
        engine.pool().scope(|scope| {
            let handle = engine.execute_async(scope, &x).unwrap();
            let (y_async, report) = handle.wait();
            assert_eq!(y_async, y_blocking, "strategy {strategy}");
            assert_eq!(report.threads, 2);
            assert_eq!(report.elapsed, report.kernel + report.dispatch);
        });
    }
}

#[test]
fn concurrent_async_launches_of_one_engine_are_rejected() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(300, 300, 3_000, 4);
    let x = DenseMatrix::random(300, 8, 5);
    let engine = JitSpmmBuilder::new().threads(2).pool(WorkerPool::new(2)).build(&a, 8).unwrap();
    engine.pool().scope(|scope| {
        let handle = engine.execute_async(scope, &x).unwrap();
        // The dynamic counter is engine-owned; a second launch must be
        // refused (not deadlock) while the first handle is outstanding.
        assert!(matches!(
            engine.execute_async(scope, &x).unwrap_err(),
            JitSpmmError::LaunchInProgress
        ));
        let (y, _) = handle.wait();
        assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
        // With the handle gone the engine accepts launches again.
        let (y2, _) = engine.execute_async(scope, &x).unwrap().wait();
        assert!(y2.approx_eq(&a.spmm_reference(&x), 1e-4));
    });
}

#[test]
fn blocking_execute_with_outstanding_handle_errors_instead_of_deadlocking() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(200, 200, 2_000, 9);
    let x = DenseMatrix::random(200, 8, 10);
    let engine = JitSpmmBuilder::new().threads(2).pool(WorkerPool::new(2)).build(&a, 8).unwrap();
    engine.pool().scope(|scope| {
        let handle = engine.execute_async(scope, &x).unwrap();
        // Same thread, launch lock held by `handle`: a blocking execute
        // must fail fast, not self-deadlock on the launch mutex.
        assert!(matches!(engine.execute(&x).unwrap_err(), JitSpmmError::LaunchInProgress));
        let mut y = DenseMatrix::zeros(200, 8);
        assert!(matches!(
            engine.execute_into(&x, &mut y).unwrap_err(),
            JitSpmmError::LaunchInProgress
        ));
        assert!(matches!(
            engine.execute_single_thread(&x, &mut y).unwrap_err(),
            JitSpmmError::LaunchInProgress
        ));
        let (ya, _) = handle.wait();
        assert!(ya.approx_eq(&a.spmm_reference(&x), 1e-4));
    });
    // Lock released: blocking execution works again.
    let (yb, _) = engine.execute(&x).unwrap();
    assert!(yb.approx_eq(&a.spmm_reference(&x), 1e-4));
}

#[test]
fn two_engines_overlap_on_disjoint_lanes() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let pool = WorkerPool::new(2);
    let a = generate::uniform::<f32>(400, 400, 5_000, 6);
    let b = generate::rmat::<f32>(9, 6_000, generate::RmatConfig::WEB, 7);
    let ea = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, 8).unwrap();
    let eb = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&b, 8).unwrap();
    let xa = DenseMatrix::random(a.ncols(), 8, 1);
    let xb = DenseMatrix::random(b.ncols(), 8, 2);
    pool.scope(|scope| {
        for _ in 0..20 {
            let ha = ea.execute_async(scope, &xa).unwrap();
            let hb = eb.execute_async(scope, &xb).unwrap();
            let (ya, _) = ha.wait();
            let (yb, _) = hb.wait();
            assert!(ya.approx_eq(&a.spmm_reference(&xa), 1e-4));
            assert!(yb.approx_eq(&b.spmm_reference(&xb), 1e-4));
        }
    });
}

#[test]
fn dropped_handle_joins_and_recycles_the_buffer() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(256, 256, 3_000, 8);
    let x = DenseMatrix::random(256, 8, 3);
    let engine = JitSpmmBuilder::new().threads(2).pool(WorkerPool::new(2)).build(&a, 8).unwrap();
    let first_ptr = engine.pool().scope(|scope| {
        let handle = engine.execute_async(scope, &x).unwrap();
        handle.y.as_ref().unwrap().as_ptr()
        // Dropped without wait: must join and return the buffer.
    });
    let (y, _) = engine.execute(&x).unwrap();
    assert_eq!(y.as_ptr(), first_ptr, "abandoned launch must recycle its output buffer");
    assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
}

#[test]
fn leaked_execution_handle_is_joined_by_the_scope() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(128, 128, 1_200, 6);
    let x = DenseMatrix::random(128, 8, 7);
    let engine = JitSpmmBuilder::new().threads(2).pool(WorkerPool::new(2)).build(&a, 8).unwrap();
    engine.pool().scope(|scope| {
        // `mem::forget` is safe: the scope must join the kernel job
        // before `x`, the engine or the matrix can be freed.
        std::mem::forget(engine.execute_async(scope, &x).unwrap());
    });
    // The leaked handle kept the launch lock (and leaked the output
    // buffer), so the engine refuses further launches — safely.
    assert!(matches!(engine.execute(&x).unwrap_err(), JitSpmmError::LaunchInProgress));
}

#[test]
fn execute_async_on_inline_pool_completes_eagerly() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(100, 100, 900, 2);
    let x = DenseMatrix::random(100, 4, 4);
    let engine = JitSpmmBuilder::new().threads(2).pool(WorkerPool::inline()).build(&a, 4).unwrap();
    engine.pool().scope(|scope| {
        let handle = engine.execute_async(scope, &x).unwrap();
        assert!(handle.is_done());
        let (y, _) = handle.wait();
        assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
    });
}

#[test]
fn execute_async_rejects_bad_shapes() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(50, 60, 300, 1);
    let engine = JitSpmmBuilder::new().threads(1).build(&a, 8).unwrap();
    let wrong = DenseMatrix::<f32>::zeros(10, 8);
    engine.pool().scope(|scope| {
        assert!(matches!(
            engine.execute_async(scope, &wrong).unwrap_err(),
            JitSpmmError::ShapeMismatch(_)
        ));
    });
}

#[test]
fn single_thread_path_matches_pooled_path() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::rmat::<f32>(8, 3_000, generate::RmatConfig::GRAPH500, 8);
    let x = DenseMatrix::random(a.ncols(), 16, 2);
    for strategy in [Strategy::RowSplitStatic, Strategy::row_split_dynamic_default()] {
        let engine = JitSpmmBuilder::new().strategy(strategy).threads(3).build(&a, 16).unwrap();
        let mut y_single = DenseMatrix::zeros(a.nrows(), 16);
        engine.execute_single_thread(&x, &mut y_single).unwrap();
        let (y_pool, _) = engine.execute(&x).unwrap();
        assert_eq!(y_pool, y_single, "strategy {strategy}");
    }
}
