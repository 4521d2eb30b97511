//! Integration tests for the persistent worker-pool runtime: many engines
//! sharing one pool, concurrent submission from multiple host threads, all
//! four workload-division strategies on the pooled path, engine-drop
//! behaviour, output-buffer recycling, deferred submission (handle drop
//! semantics, shutdown), and the notify-one wake chain under rapid
//! submission.

use jitspmm::baseline::{mkl_like, vectorized};
use jitspmm::{JitSpmmBuilder, JobSpec, Strategy, WorkerPool};
use jitspmm_integration_tests::{host_supports_jit, pathological, small_skewed};
use jitspmm_sparse::{generate, CsrMatrix, DenseMatrix};
use std::sync::atomic::{AtomicUsize, Ordering};

fn all_strategies() -> [Strategy; 4] {
    [
        Strategy::RowSplitStatic,
        Strategy::RowSplitDynamic { batch: 32 },
        Strategy::NnzSplit,
        Strategy::MergeSplit,
    ]
}

#[test]
fn all_strategies_correct_on_the_pooled_path() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let pool = WorkerPool::new(3);
    for a in [small_skewed(), pathological()] {
        let x = DenseMatrix::random(a.ncols(), 16, 21);
        let expected = a.spmm_reference(&x);
        for strategy in all_strategies() {
            // Lanes both below and above the pool's worker count.
            for threads in [1usize, 2, 7] {
                let engine = JitSpmmBuilder::new()
                    .strategy(strategy)
                    .threads(threads)
                    .pool(pool.clone())
                    .build(&a, 16)
                    .unwrap();
                let (y, report) = engine.execute(&x).unwrap();
                assert!(
                    y.approx_eq(&expected, 1e-4),
                    "strategy {strategy}, {threads} lanes: diff {}",
                    y.max_abs_diff(&expected)
                );
                assert_eq!(report.threads, threads);
                assert_eq!(report.elapsed, report.kernel + report.dispatch);
            }
        }
    }
}

#[test]
fn many_engines_share_one_pool_concurrently() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    // One pool, four host threads, each owning two engines with different
    // strategies over its own matrix; interleaved executes must all agree
    // with the reference. This exercises job serialization under contention.
    let pool = WorkerPool::new(2);
    std::thread::scope(|scope| {
        for worker in 0..4u64 {
            let pool = pool.clone();
            scope.spawn(move || {
                let a = generate::rmat::<f32>(8, 4_000, generate::RmatConfig::GRAPH500, worker);
                let strategies = all_strategies();
                let engines: Vec<_> = (0..2)
                    .map(|i| {
                        JitSpmmBuilder::new()
                            .strategy(strategies[(worker as usize + i) % 4])
                            .threads(2)
                            .pool(pool.clone())
                            .build(&a, 8)
                            .unwrap()
                    })
                    .collect();
                for round in 0..10u64 {
                    let x = DenseMatrix::random(a.ncols(), 8, worker * 100 + round);
                    let expected = a.spmm_reference(&x);
                    for engine in &engines {
                        let (y, _) = engine.execute(&x).unwrap();
                        assert!(y.approx_eq(&expected, 1e-4), "worker {worker}, round {round}");
                    }
                }
            });
        }
    });
}

#[test]
fn one_engine_shared_across_threads_is_race_free() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    // Regression test: the dynamic-dispatch counter is engine-shared state;
    // concurrent execute() calls on ONE engine (it is Sync) must serialize
    // their reset-then-claim launches, or a reset can interleave with a
    // running claim loop and an execute returns stale buffer contents.
    let a = generate::rmat::<f32>(9, 8_000, generate::RmatConfig::GRAPH500, 77);
    let engine = JitSpmmBuilder::new()
        .strategy(Strategy::RowSplitDynamic { batch: 16 })
        .threads(2)
        .pool(WorkerPool::new(2))
        .build(&a, 8)
        .unwrap();
    let x = DenseMatrix::random(a.ncols(), 8, 5);
    let expected = a.spmm_reference(&x);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for round in 0..15 {
                    let (y, _) = engine.execute(&x).unwrap();
                    assert!(y.approx_eq(&expected, 1e-4), "round {round}");
                }
            });
        }
    });
}

#[test]
fn dropping_an_engine_does_not_wedge_the_pool() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let pool = WorkerPool::new(2);
    let a = generate::uniform::<f32>(200, 200, 2_000, 5);
    let x = DenseMatrix::random(200, 8, 6);
    {
        let engine = JitSpmmBuilder::new().pool(pool.clone()).threads(2).build(&a, 8).unwrap();
        let (y, _) = engine.execute(&x).unwrap();
        assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
        // `y` (a pooled buffer borrowed from `engine`) is still alive here;
        // dropping the engine first must be fine.
    }
    // The pool keeps serving raw jobs and fresh engines after the drop.
    let hits = std::sync::atomic::AtomicUsize::new(0);
    pool.run(32, &|_| {
        hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 32);
    let engine2 = JitSpmmBuilder::new().pool(pool.clone()).threads(2).build(&a, 8).unwrap();
    let (y2, _) = engine2.execute(&x).unwrap();
    assert!(y2.approx_eq(&a.spmm_reference(&x), 1e-4));
}

#[test]
fn pooled_output_outlives_the_engine() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(64, 64, 600, 9);
    let x = DenseMatrix::random(64, 4, 1);
    let expected = a.spmm_reference(&x);
    let y = {
        let engine = JitSpmmBuilder::new().threads(2).build(&a, 4).unwrap();
        let (y, _) = engine.execute(&x).unwrap();
        y
    };
    // The engine is gone; the pooled result must still be readable, and
    // detaching it must yield a normal DenseMatrix.
    assert!(y.approx_eq(&expected, 1e-4));
    let dense = y.into_dense();
    assert!(dense.approx_eq(&expected, 1e-4));
}

#[test]
fn steady_state_execute_reuses_buffers_across_strategies() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_skewed();
    for strategy in all_strategies() {
        let engine = JitSpmmBuilder::new().strategy(strategy).threads(2).build(&a, 16).unwrap();
        let x1 = DenseMatrix::random(a.ncols(), 16, 1);
        let x2 = DenseMatrix::random(a.ncols(), 16, 2);
        let first_ptr = {
            let (y, _) = engine.execute(&x1).unwrap();
            y.as_ptr()
        };
        // The recycled (stale, non-zeroed) buffer must produce exact results
        // for a different input.
        let (y2, _) = engine.execute(&x2).unwrap();
        assert_eq!(y2.as_ptr(), first_ptr, "{strategy}: buffer must be recycled");
        assert!(y2.approx_eq(&a.spmm_reference(&x2), 1e-4), "{strategy}");
    }
}

#[test]
fn baselines_run_on_an_explicit_pool() {
    let pool = WorkerPool::new(2);
    let a = generate::rmat::<f32>(8, 3_000, generate::RmatConfig::WEB, 3);
    let x = DenseMatrix::random(a.ncols(), 8, 4);
    let expected = a.spmm_reference(&x);
    for strategy in all_strategies() {
        let mut y = DenseMatrix::zeros(a.nrows(), 8);
        vectorized::spmm_vectorized_on(&pool, &a, &x, &mut y, strategy, 3);
        assert!(y.approx_eq(&expected, 1e-4), "vectorized, {strategy}");
    }
    let mut y = DenseMatrix::zeros(a.nrows(), 8);
    mkl_like::spmm_mkl_like_f32_on(&pool, &a, &x, &mut y, 3);
    assert!(y.approx_eq(&expected, 1e-4), "mkl-like");
}

#[test]
fn inline_pool_produces_identical_results() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    // A zero-worker pool runs everything on the submitting thread; results
    // must be identical to a threaded pool (bitwise, since the partition is
    // the same).
    let a = CsrMatrix::<f32>::from_triplets(
        50,
        50,
        &(0..200).map(|i| (i % 50, (i * 7) % 50, i as f32 * 0.5 + 1.0)).collect::<Vec<_>>(),
    )
    .unwrap();
    let x = DenseMatrix::random(50, 8, 11);
    let inline = JitSpmmBuilder::new().pool(WorkerPool::inline()).threads(2).build(&a, 8).unwrap();
    let threaded = JitSpmmBuilder::new().pool(WorkerPool::new(2)).threads(2).build(&a, 8).unwrap();
    let (y_inline, _) = inline.execute(&x).unwrap();
    let (y_threaded, _) = threaded.execute(&x).unwrap();
    assert_eq!(y_inline, y_threaded);
}

/// The ROADMAP's known wake-cost issue: the old `notify_all` wake briefly
/// woke every parked worker per job. The replacement notify-one chain must
/// wake exactly as many workers as a job needs — and, critically, must never
/// *lose* a wakeup: a lost wakeup leaves a job's lane slots unclaimed
/// forever and `wait()` hangs. Hammer an 8-worker pool with 10k rapid
/// submissions across a mix of lane caps and overlap patterns; if any
/// wakeup is lost the test deadlocks (and the suite times out), and if any
/// task is lost or duplicated the counters catch it.
#[test]
fn notify_one_chain_survives_10k_rapid_submits() {
    let pool = WorkerPool::new(8);
    let hits = AtomicUsize::new(0);
    let task = |_i: usize| {
        hits.fetch_add(1, Ordering::Relaxed);
    };
    let mut expected = 0usize;
    let mut submitted = 0usize;
    pool.scope(|scope| {
        let mut round = 0usize;
        while submitted < 10_000 {
            // Cycle lane caps 1..=8 so the chain length varies every round.
            let cap = round % 8 + 1;
            let tasks = 4 + round % 5;
            if round.is_multiple_of(3) {
                // Two jobs genuinely in flight at once.
                let a = scope.submit(JobSpec::new(tasks).max_lanes(cap), &task);
                let b = scope.submit(JobSpec::new(tasks).max_lanes(8 - cap + 1), &task);
                a.wait();
                b.wait();
                submitted += 2;
                expected += 2 * tasks;
            } else {
                scope.submit(JobSpec::new(tasks).max_lanes(cap), &task).wait();
                submitted += 1;
                expected += tasks;
            }
            round += 1;
        }
    });
    assert!(submitted >= 10_000);
    assert_eq!(hits.load(Ordering::Relaxed), expected, "lost or duplicated tasks");
}

/// Scoped handles may be dropped without calling `wait()` (the scope joins
/// them on exit), and the pool must shut down cleanly afterwards — no wedged
/// workers, no leaked jobs.
#[test]
fn job_handle_drop_without_wait_completes_and_pool_shuts_down() {
    let pool = WorkerPool::new(2);
    // Borrowed tasks through a scope: exit joins whatever was not waited.
    let borrowed = AtomicUsize::new(0);
    let task = |_i: usize| {
        borrowed.fetch_add(1, Ordering::Relaxed);
    };
    pool.scope(|scope| {
        let _one = scope.submit(JobSpec::new(32), &task);
        let _two = scope.submit(JobSpec::new(32).max_lanes(1), &task);
        // Both dropped here; the scope joins them before returning.
    });
    assert_eq!(borrowed.load(Ordering::Relaxed), 64, "scope exit must join the jobs");
    // Dropping the pool joins the workers; a leaked/wedged job would hang.
    drop(pool);
}

/// Dropping a `BatchStream` with a launch in flight, without finishing it,
/// must hand the pooled output buffer back to the engine (no leak — the very
/// next execute reuses it) and must not wedge pool shutdown.
#[test]
fn batch_stream_drop_without_finish_recycles_buffer_and_shutdown() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let pool = WorkerPool::new(2);
    let a = generate::uniform::<f32>(128, 128, 1_500, 13);
    let x = DenseMatrix::random(128, 8, 14);
    {
        let engine = JitSpmmBuilder::new().pool(pool.clone()).threads(2).build(&a, 8).unwrap();
        // Learn the engine's recycled buffer address with a plain execute.
        let recycled_ptr = {
            let (y, _) = engine.execute(&x).unwrap();
            y.as_ptr()
        };
        // The streamed launch acquires that same buffer; dropping the stream
        // without finishing must hand it back...
        pool.scope(|scope| {
            let mut stream = engine.batch_stream(scope, 1);
            assert!(stream.push(&x).unwrap().is_none());
            drop(stream);
        });
        // ...so the next execute reuses it instead of allocating afresh.
        let (y, _) = engine.execute(&x).unwrap();
        assert_eq!(y.as_ptr(), recycled_ptr, "abandoned launch leaked its output buffer");
        assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
    }
    // Engine gone; pool must still serve and then shut down cleanly.
    let hits = AtomicUsize::new(0);
    pool.run(16, &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 16);
    drop(pool);
}

/// An abandoned (dropped-unfinished) stream must leave the engine ready for
/// the next launch immediately — the drop joins its launches.
#[test]
fn abandoned_launch_releases_the_engine() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::rmat::<f32>(8, 3_000, generate::RmatConfig::GRAPH500, 15);
    let x = DenseMatrix::random(a.ncols(), 8, 16);
    let engine = JitSpmmBuilder::new().pool(WorkerPool::new(2)).threads(2).build(&a, 8).unwrap();
    engine.pool().scope(|scope| {
        for _ in 0..10 {
            let mut stream = engine.batch_stream(scope, 1);
            assert!(stream.push(&x).unwrap().is_none());
            drop(stream);
        }
        let mut stream = engine.batch_stream(scope, 1);
        assert!(stream.push(&x).unwrap().is_none());
        let (y, _) = stream.finish().pop().unwrap();
        assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
    });
}
