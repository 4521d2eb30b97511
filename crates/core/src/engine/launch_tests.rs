//! Unit tests for the single-launch layer (split out of `launch.rs` to
//! keep each engine layer file readable).

use crate::engine::JitSpmmBuilder;
use crate::error::JitSpmmError;
use crate::runtime::WorkerPool;
use crate::schedule::Strategy;
use crate::test_support::{integer_input, integer_valued, scalar_anchor, with_watchdog};
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
fn one_stream_push_matches_blocking_execute() {
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
            let mut stream = engine.batch_stream(scope, 1);
            assert!(stream.push(&x).unwrap().is_none());
            let (y_stream, report) = stream.finish().pop().unwrap();
            assert_eq!(*y_stream, y_blocking, "strategy {strategy}");
            assert_eq!(report.threads, 2);
            assert_eq!(report.elapsed, report.kernel + report.dispatch);
        });
    }
}

#[test]
fn two_streams_of_one_engine_run_side_by_side() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = integer_valued(&generate::uniform::<f32>(300, 300, 3_000, 4));
    let x = integer_input(300, 8, 5);
    let expected = scalar_anchor(&a, &x);
    for strategy in [Strategy::RowSplitStatic, Strategy::RowSplitDynamic { batch: 16 }] {
        let engine = JitSpmmBuilder::new()
            .strategy(strategy)
            .threads(2)
            .pool(WorkerPool::new(2))
            .build(&a, 8)
            .unwrap();
        engine.pool().scope(|scope| {
            // Each launch carries its own claim counter, so a second stream
            // from this thread runs while the first has a launch in flight.
            let mut first = engine.batch_stream(scope, 1);
            assert!(first.push(&x).unwrap().is_none());
            let mut second = engine.batch_stream(scope, 2);
            assert!(second.push(&x).unwrap().is_none());
            assert!(second.push(&x).unwrap().is_none());
            for (y, _) in first.finish().into_iter().chain(second.finish()) {
                assert_eq!(*y, expected, "strategy {strategy}");
            }
        });
    }
}

#[test]
fn blocking_launches_run_while_a_stream_is_open() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = integer_valued(&generate::uniform::<f32>(200, 200, 2_000, 9));
    let x = integer_input(200, 8, 10);
    let expected = scalar_anchor(&a, &x);
    for strategy in [Strategy::RowSplitStatic, Strategy::RowSplitDynamic { batch: 16 }] {
        let engine = JitSpmmBuilder::new()
            .strategy(strategy)
            .threads(2)
            .pool(WorkerPool::new(2))
            .build(&a, 8)
            .unwrap();
        engine.pool().scope(|scope| {
            let mut stream = engine.batch_stream(scope, 1);
            assert!(stream.push(&x).unwrap().is_none());
            // Same thread, a launch of the stream in flight: every blocking
            // launch runs beside it.
            assert_eq!(*engine.execute(&x).unwrap().0, expected, "strategy {strategy}");
            let mut y = DenseMatrix::zeros(200, 8);
            engine.execute_into(&x, &mut y).unwrap();
            assert_eq!(y, expected, "strategy {strategy}");
            let mut y = DenseMatrix::zeros(200, 8);
            engine.execute_single_thread(&x, &mut y).unwrap();
            assert_eq!(y, expected, "strategy {strategy}");
            let (ya, _) = stream.finish().pop().unwrap();
            assert_eq!(*ya, expected, "strategy {strategy}");
        });
    }
}

#[test]
fn concurrent_launches_of_one_engine_match_the_scalar_anchor() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    const THREADS: usize = 4;
    const LAUNCHES: usize = 12;
    let a = integer_valued(&generate::rmat::<f32>(9, 6_000, generate::RmatConfig::GRAPH500, 3));
    let inputs: Vec<DenseMatrix<f32>> =
        (0..LAUNCHES as u64).map(|seed| integer_input(a.ncols(), 16, seed)).collect();
    let expected: Vec<DenseMatrix<f32>> = inputs.iter().map(|x| scalar_anchor(&a, x)).collect();
    let pool = WorkerPool::new(2);
    // One engine per strategy, each shared by every thread: the dynamic
    // kernel's lanes claim rows from a counter that each launch owns.
    let engines: Vec<_> = [Strategy::RowSplitStatic, Strategy::RowSplitDynamic { batch: 8 }]
        .into_iter()
        .map(|strategy| {
            JitSpmmBuilder::new().strategy(strategy).threads(2).pool(pool.clone()).build(&a, 16)
        })
        .collect::<Result<_, _>>()
        .unwrap();
    let nrows = a.nrows();
    with_watchdog(|| {
        std::thread::scope(|threads| {
            for t in 0..THREADS {
                let (engines, inputs, expected) = (&engines, &inputs, &expected);
                threads.spawn(move || {
                    for m in 0..LAUNCHES {
                        let engine = &engines[(t + m) % engines.len()];
                        let i = (t * 5 + m) % LAUNCHES;
                        let (x, want) = (&inputs[i], &expected[i]);
                        let what = format!("thread {t}, launch {m}, {}", engine.meta().strategy);
                        match m % 4 {
                            0 => assert_eq!(*engine.execute(x).unwrap().0, *want, "{what}"),
                            1 => {
                                let mut y = DenseMatrix::zeros(nrows, 16);
                                engine.execute_into(x, &mut y).unwrap();
                                assert_eq!(y, *want, "{what}");
                            }
                            2 => {
                                let mut y = DenseMatrix::zeros(nrows, 16);
                                engine.execute_single_thread(x, &mut y).unwrap();
                                assert_eq!(y, *want, "{what}");
                            }
                            _ => engine.pool().scope(|scope| {
                                let mut stream = engine.batch_stream(scope, 2);
                                assert!(stream.push(x).unwrap().is_none());
                                assert!(stream.push(x).unwrap().is_none());
                                for (y, _) in stream.finish() {
                                    assert_eq!(*y, *want, "{what}");
                                }
                            }),
                        }
                    }
                });
            }
        });
    });
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
        // Both streams open at once, one worker lane each; every round has
        // a launch of each engine in flight together.
        let mut sa = ea.batch_stream(scope, 1);
        let mut sb = eb.batch_stream(scope, 1);
        for _ in 0..20 {
            let done_a = sa.push(&xa).unwrap();
            let done_b = sb.push(&xb).unwrap();
            if let Some((y, _)) = done_a {
                assert!(y.approx_eq(&a.spmm_reference(&xa), 1e-4));
            }
            if let Some((y, _)) = done_b {
                assert!(y.approx_eq(&b.spmm_reference(&xb), 1e-4));
            }
        }
        assert_eq!(sa.finish().len() + sb.finish().len(), 2);
    });
}

#[test]
fn dropped_stream_joins_and_recycles_the_buffer() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(256, 256, 3_000, 8);
    let x = DenseMatrix::random(256, 8, 3);
    let engine = JitSpmmBuilder::new().threads(2).pool(WorkerPool::new(2)).build(&a, 8).unwrap();
    // One execute leaves exactly one recycled buffer, which the stream's
    // launch then takes.
    let first_ptr = engine.execute(&x).unwrap().0.as_ptr();
    engine.pool().scope(|scope| {
        let mut stream = engine.batch_stream(scope, 1);
        assert!(stream.push(&x).unwrap().is_none());
        // Dropped without finish: must join and return the buffer.
    });
    let (y, _) = engine.execute(&x).unwrap();
    assert_eq!(y.as_ptr(), first_ptr, "abandoned launch must recycle its output buffer");
    assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
}

#[test]
fn stream_push_on_inline_pool_completes_eagerly() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(100, 100, 900, 2);
    let x = DenseMatrix::random(100, 4, 4);
    let engine = JitSpmmBuilder::new().threads(2).pool(WorkerPool::inline()).build(&a, 4).unwrap();
    engine.pool().scope(|scope| {
        let mut stream = engine.batch_stream(scope, 1);
        assert!(stream.push(&x).unwrap().is_none());
        let (y, report) = stream.finish().pop().unwrap();
        // A push on a zero-worker pool ran at submission: no worker was
        // woken for it.
        assert_eq!(report.wake, std::time::Duration::ZERO);
        assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
    });
}

#[test]
fn stream_push_rejects_bad_shapes() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(50, 60, 300, 1);
    let engine = JitSpmmBuilder::new().threads(1).build(&a, 8).unwrap();
    let wrong = DenseMatrix::<f32>::zeros(10, 8);
    engine.pool().scope(|scope| {
        let mut stream = engine.batch_stream(scope, 1);
        assert!(matches!(stream.push(&wrong).unwrap_err(), JitSpmmError::ShapeMismatch(_)));
        // Nothing was submitted.
        assert_eq!(stream.in_flight(), 0);
        assert!(stream.finish().is_empty());
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
