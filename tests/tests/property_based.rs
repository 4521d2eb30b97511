//! Property-based integration tests (proptest): randomized matrices, column
//! counts and strategies must always produce output identical to the
//! reference implementation, and core data-structure invariants must hold.

use jitspmm::serve::{ServerRequest, SpmmServer};
use jitspmm::{JitSpmmBuilder, Strategy, WorkerPool};
use jitspmm_integration_tests::{host_supports_jit, serve_all};
use jitspmm_sparse::{CooMatrix, CsrMatrix, DeltaBatch, DenseMatrix};
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

/// Strategy generating an arbitrary small sparse matrix as triplets.
fn arb_matrix() -> impl PropStrategy<Value = (usize, usize, Vec<(usize, usize, f32)>)> {
    (1usize..60, 1usize..60).prop_flat_map(|(nrows, ncols)| {
        let entries = proptest::collection::vec((0..nrows, 0..ncols, -4.0f32..4.0f32), 0..200);
        (Just(nrows), Just(ncols), entries)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// COO → CSR conversion preserves the per-cell sum of duplicates and the
    /// declared shape.
    #[test]
    fn coo_to_csr_preserves_entries((nrows, ncols, entries) in arb_matrix()) {
        let mut coo = CooMatrix::<f32>::new(nrows, ncols);
        for &(r, c, v) in &entries {
            coo.push(r, c, v);
        }
        let csr = coo.to_csr();
        prop_assert_eq!(csr.nrows(), nrows);
        prop_assert_eq!(csr.ncols(), ncols);
        // Every stored value equals the sum of the triplets at that cell.
        let mut expected = std::collections::HashMap::new();
        for &(r, c, v) in &entries {
            *expected.entry((r, c)).or_insert(0.0f32) += v;
        }
        for (r, c, v) in csr.iter() {
            let e = expected.get(&(r, c)).copied().unwrap_or(0.0);
            prop_assert!((v - e).abs() < 1e-4, "cell ({}, {}): {} vs {}", r, c, v, e);
        }
        prop_assert_eq!(csr.nnz(), expected.len());
    }

    /// Transposing twice is the identity.
    #[test]
    fn transpose_is_involutive((nrows, ncols, entries) in arb_matrix()) {
        let csr = CsrMatrix::from_triplets(nrows, ncols, &entries).unwrap();
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    /// The reference SpMM is linear: A(x + y) = Ax + Ay.
    #[test]
    fn reference_spmm_is_linear((nrows, ncols, entries) in arb_matrix(), d in 1usize..6) {
        let a = CsrMatrix::from_triplets(nrows, ncols, &entries).unwrap();
        let x1 = DenseMatrix::<f32>::random(ncols, d, 1);
        let x2 = DenseMatrix::<f32>::random(ncols, d, 2);
        let sum = DenseMatrix::from_vec(
            ncols,
            d,
            x1.as_slice().iter().zip(x2.as_slice()).map(|(a, b)| a + b).collect(),
        );
        let y1 = a.spmm_reference(&x1);
        let y2 = a.spmm_reference(&x2);
        let ysum = a.spmm_reference(&sum);
        let combined = DenseMatrix::from_vec(
            nrows,
            d,
            y1.as_slice().iter().zip(y2.as_slice()).map(|(a, b)| a + b).collect(),
        );
        prop_assert!(ysum.approx_eq(&combined, 1e-3));
    }

    /// The JIT engine agrees with the reference for arbitrary matrices,
    /// column counts and strategies.
    #[test]
    fn jit_matches_reference(
        (nrows, ncols, entries) in arb_matrix(),
        d in 1usize..40,
        strategy_idx in 0usize..4,
        threads in 1usize..5,
    ) {
        if !host_supports_jit() {
            return Ok(());
        }
        let strategy = [
            Strategy::RowSplitStatic,
            Strategy::RowSplitDynamic { batch: 7 },
            Strategy::NnzSplit,
            Strategy::MergeSplit,
        ][strategy_idx];
        let a = CsrMatrix::from_triplets(nrows, ncols, &entries).unwrap();
        let x = DenseMatrix::<f32>::random(ncols, d, 42);
        let expected = a.spmm_reference(&x);
        let engine = JitSpmmBuilder::new()
            .strategy(strategy)
            .threads(threads)
            .build(&a, d)
            .unwrap();
        let (y, _) = engine.execute(&x).unwrap();
        prop_assert!(
            y.approx_eq(&expected, 1e-3),
            "strategy {:?}, d {}, diff {}", strategy, d, y.max_abs_diff(&expected)
        );
    }

    /// Two engines executed concurrently — both engines' streams open at
    /// once, lane-capped onto one shared pool, finished in reverse order —
    /// must produce exactly the results their blocking, sequential
    /// executions produce. Row-wise partitioning computes every
    /// output row identically regardless of which lane claims it, so the
    /// comparison is bitwise; any lane-capping or wake-chain race that lets
    /// one job's tasks bleed into the other's buffers (or drops tasks) breaks
    /// it.
    #[test]
    fn async_overlap_matches_sequential(
        (nrows1, ncols1, entries1) in arb_matrix(),
        (nrows2, ncols2, entries2) in arb_matrix(),
        d in 1usize..24,
        threads1 in 1usize..3,
        threads2 in 1usize..3,
    ) {
        if !host_supports_jit() {
            return Ok(());
        }
        let a1 = CsrMatrix::from_triplets(nrows1, ncols1, &entries1).unwrap();
        let a2 = CsrMatrix::from_triplets(nrows2, ncols2, &entries2).unwrap();
        let pool = WorkerPool::new(2);
        let e1 = JitSpmmBuilder::new()
            .strategy(Strategy::RowSplitDynamic { batch: 5 })
            .threads(threads1)
            .pool(pool.clone())
            .build(&a1, d)
            .unwrap();
        let e2 = JitSpmmBuilder::new()
            .strategy(Strategy::RowSplitStatic)
            .threads(threads2)
            .pool(pool.clone())
            .build(&a2, d)
            .unwrap();
        let x1 = DenseMatrix::<f32>::random(ncols1, d, 17);
        let x2 = DenseMatrix::<f32>::random(ncols2, d, 18);
        let (s1, _) = e1.execute(&x1).unwrap();
        let s1 = s1.into_dense();
        let (s2, _) = e2.execute(&x2).unwrap();
        let s2 = s2.into_dense();
        // Several rounds per case: races need repetition to surface.
        pool.scope(|scope| -> Result<(), TestCaseError> {
            for round in 0..4 {
                let mut stream1 = e1.batch_stream(scope, 1).unwrap();
                let mut stream2 = e2.batch_stream(scope, 1).unwrap();
                prop_assert!(stream1.push(&x1).unwrap().is_none());
                prop_assert!(stream2.push(&x2).unwrap().is_none());
                let (y2, _) = stream2.finish().pop().unwrap();
                let (y1, _) = stream1.finish().pop().unwrap();
                prop_assert!(y1 == s1, "engine 1 diverged under overlap (round {})", round);
                prop_assert!(y2 == s2, "engine 2 diverged under overlap (round {})", round);
            }
            Ok(())
        })?;
    }

    /// Deferred pool jobs never lose or duplicate tasks, whatever the task
    /// count, lane cap and number of concurrently outstanding handles.
    #[test]
    fn submitted_jobs_run_every_task_exactly_once(
        tasks in 1usize..200,
        max_lanes in 0usize..6,
        jobs in 1usize..5,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(3);
        let counters: Vec<Vec<AtomicUsize>> = (0..jobs)
            .map(|_| (0..tasks).map(|_| AtomicUsize::new(0)).collect())
            .collect();
        let specs = jitspmm::JobSpec::new(tasks).max_lanes(max_lanes);
        let tasks_fns: Vec<_> = counters
            .iter()
            .map(|slots| move |i: usize| {
                slots[i].fetch_add(1, Ordering::Relaxed);
            })
            .collect();
        pool.scope(|scope| {
            let handles: Vec<_> = tasks_fns.iter().map(|t| scope.submit(specs, t)).collect();
            for handle in handles {
                handle.wait();
            }
        });
        for (j, slots) in counters.iter().enumerate() {
            for (i, slot) in slots.iter().enumerate() {
                prop_assert_eq!(slot.load(Ordering::Relaxed), 1, "job {} task {}", j, i);
            }
        }
    }

    /// A batched pipeline over an arbitrary matrix, batch size, pipeline
    /// depth and strategy produces exactly — bitwise — the outputs of the
    /// blocking per-input path, in input order. Any slot-counter mix-up,
    /// payload reuse bug or output-buffer swap breaks this.
    #[test]
    fn execute_batch_matches_sequential(
        (nrows, ncols, entries) in arb_matrix(),
        d in 1usize..24,
        batch_size in 0usize..9,
        depth in 1usize..4,
        strategy_idx in 0usize..2,
        threads in 1usize..3,
    ) {
        if !host_supports_jit() {
            return Ok(());
        }
        let strategy = if strategy_idx == 0 {
            Strategy::RowSplitDynamic { batch: 5 }
        } else {
            Strategy::RowSplitStatic
        };
        let a = CsrMatrix::from_triplets(nrows, ncols, &entries).unwrap();
        let pool = WorkerPool::new(2);
        let engine = JitSpmmBuilder::new()
            .strategy(strategy)
            .threads(threads)
            .pool(pool.clone())
            .build(&a, d)
            .unwrap();
        let inputs: Vec<DenseMatrix<f32>> =
            (0..batch_size).map(|i| DenseMatrix::random(ncols, d, 300 + i as u64)).collect();
        let sequential: Vec<DenseMatrix<f32>> =
            inputs.iter().map(|x| engine.execute(x).unwrap().0.into_dense()).collect();
        // Once through the collecting API...
        let outputs = pool
            .scope(|scope| engine.execute_batch(scope, &inputs))
            .unwrap();
        prop_assert_eq!(outputs.len(), batch_size);
        for (i, (y, _)) in outputs.iter().enumerate() {
            prop_assert!(**y == sequential[i], "batched output {} diverged", i);
        }
        drop(outputs);
        // ...and once through the incremental stream at the drawn depth.
        pool.scope(|scope| -> Result<(), TestCaseError> {
            let mut stream = engine.batch_stream(scope, depth).unwrap();
            let mut streamed = Vec::new();
            for x in &inputs {
                if let Some((y, _)) = stream.push(x).unwrap() {
                    streamed.push(y.into_dense());
                }
            }
            streamed.extend(stream.finish().into_iter().map(|(y, _)| y.into_dense()));
            prop_assert_eq!(streamed.len(), batch_size);
            for (i, y) in streamed.iter().enumerate() {
                prop_assert!(*y == sequential[i], "streamed output {} diverged", i);
            }
            Ok(())
        })?;
    }

    /// An arbitrary interleaving of requests across two engines, served
    /// through the mixed-stream router, produces exactly — bitwise — the
    /// outputs of per-engine sequential execution, each routed to the right
    /// engine and in per-engine submission order. Any routing mix-up (a
    /// request landing on the wrong engine's pipeline, slot payloads crossing
    /// engines, responses mis-ordered) breaks this.
    #[test]
    fn mixed_serving_matches_sequential(
        (nrows1, ncols1, entries1) in arb_matrix(),
        (nrows2, ncols2, entries2) in arb_matrix(),
        d1 in 1usize..16,
        d2 in 1usize..16,
        pattern in proptest::collection::vec(0usize..2, 0..24),
    ) {
        if !host_supports_jit() {
            return Ok(());
        }
        let a1 = CsrMatrix::from_triplets(nrows1, ncols1, &entries1).unwrap();
        let a2 = CsrMatrix::from_triplets(nrows2, ncols2, &entries2).unwrap();
        let pool = WorkerPool::new(2);
        let engines = vec![
            JitSpmmBuilder::new()
                .strategy(Strategy::RowSplitDynamic { batch: 5 })
                .threads(1)
                .pool(pool.clone())
                .build(&a1, d1)
                .unwrap(),
            JitSpmmBuilder::new()
                .strategy(Strategy::RowSplitStatic)
                .threads(1)
                .pool(pool.clone())
                .build(&a2, d2)
                .unwrap(),
        ];
        // The drawn interleaving: requests tagged 0 or 1 in arbitrary order.
        let inputs: Vec<(usize, DenseMatrix<f32>)> = pattern
            .iter()
            .enumerate()
            .map(|(i, &engine)| {
                let ncols = if engine == 0 { ncols1 } else { ncols2 };
                let d = if engine == 0 { d1 } else { d2 };
                (engine, DenseMatrix::<f32>::random(ncols, d, 7_000 + i as u64))
            })
            .collect();
        // Reference: each request through its engine's blocking execute, in
        // per-engine submission order.
        let mut expected: Vec<Vec<DenseMatrix<f32>>> = vec![Vec::new(), Vec::new()];
        for (engine, x) in &inputs {
            expected[*engine].push(engines[*engine].execute(x).unwrap().0.into_dense());
        }
        let server = SpmmServer::new(engines).unwrap();
        let requests: Vec<ServerRequest<f32>> = inputs
            .iter()
            .map(|(engine, x)| ServerRequest::new(*engine, x.clone()))
            .collect();
        let (responses, report) = serve_all(&server, requests);
        prop_assert_eq!(responses.len(), inputs.len());
        prop_assert_eq!(report.requests, inputs.len());
        for (g, response) in responses.iter().enumerate() {
            prop_assert_eq!(response.request(), g, "sorted by global submission order");
            prop_assert_eq!(response.engine(), inputs[g].0, "request {} routed wrong", g);
            prop_assert!(
                **response.output() == expected[response.engine()][response.index()],
                "request {} (engine {}, index {}) diverged from sequential execution",
                g, response.engine(), response.index()
            );
        }
        for (engine, engine_expected) in expected.iter().enumerate() {
            let served = responses.iter().filter(|r| r.engine() == engine).count();
            prop_assert_eq!(served, engine_expected.len());
        }
    }

    /// Sharded execution is shard-count invariant: whatever K the planner is
    /// asked for, the stitched result is bit-identical to the unsharded
    /// engine's output (per-row arithmetic does not depend on which shard —
    /// or which compiled kernel copy — computes a row), and the plan always
    /// covers every row exactly once.
    #[test]
    fn sharded_execution_is_shard_count_invariant(
        (nrows, ncols, entries) in arb_matrix(),
        d in 1usize..6,
        k1 in 1usize..7,
        k2 in 1usize..7,
    ) {
        if !host_supports_jit() {
            return Ok(());
        }
        let a = CsrMatrix::from_triplets(nrows, ncols, &entries).unwrap();
        let pool = WorkerPool::new(2);
        let x = DenseMatrix::<f32>::random(ncols, d, 17);
        let engine = JitSpmmBuilder::new().pool(pool.clone()).threads(2).build(&a, d).unwrap();
        let (expected, _) = engine.execute(&x).unwrap();
        for k in [k1, k2] {
            let plan = jitspmm::shard::plan_shards(&a, k, 2).unwrap();
            let mut cursor = 0usize;
            for shard in plan.shards() {
                prop_assert_eq!(shard.rows.start, cursor);
                cursor = shard.rows.end;
            }
            prop_assert_eq!(cursor, nrows);
            let sharded = jitspmm::shard::ShardedSpmm::compile(&plan, d, pool.clone()).unwrap();
            let (y, report) = pool.scope(|scope| sharded.execute(scope, &x)).unwrap();
            // The critical path spans at least one lane per shard.
            prop_assert!(report.threads >= plan.len());
            prop_assert!(
                *y == *expected,
                "k = {}: sharded result diverged from unsharded (max diff {})",
                k, y.max_abs_diff(&expected)
            );
        }
    }

    /// A JIT engine compiled against a zero-copy [`CsrMatrix::share_rows`]
    /// view is bit-identical to one compiled against a deep owned copy of
    /// the same rows: borrowed storage changes where the nnz arrays live
    /// (and how many bytes a shard plan holds), never the bytes the
    /// generated code embeds or reads.
    #[test]
    fn borrowed_view_matches_owned(
        (nrows, ncols, entries) in arb_matrix(),
        d in 1usize..24,
        lo in 0usize..100,
        hi in 0usize..100,
        threads in 1usize..3,
    ) {
        if !host_supports_jit() {
            return Ok(());
        }
        let a = CsrMatrix::from_triplets(nrows, ncols, &entries).unwrap();
        let (mut start, mut end) = (lo * nrows / 100, hi * nrows / 100);
        if start > end {
            std::mem::swap(&mut start, &mut end);
        }
        if start == end {
            // An engine needs at least one row; widen the window by one.
            end = (end + 1).min(nrows);
            start = end - 1;
        }
        let view = a.share_rows(start, end);
        prop_assert!(view.shares_storage_with(&a), "share_rows must not copy nnz arrays");
        let owned = CsrMatrix::from_raw_parts(
            view.nrows(),
            view.ncols(),
            view.row_ptr().to_vec(),
            view.col_indices().to_vec(),
            view.values().to_vec(),
        )
        .unwrap();
        prop_assert!(!owned.shares_storage_with(&a));
        let x = DenseMatrix::<f32>::random(ncols, d, 23);
        let from_view = JitSpmmBuilder::new().threads(threads).build(&view, d).unwrap();
        let from_owned = JitSpmmBuilder::new().threads(threads).build(&owned, d).unwrap();
        let (yv, _) = from_view.execute(&x).unwrap();
        let (yo, _) = from_owned.execute(&x).unwrap();
        prop_assert!(
            *yv == *yo,
            "rows {}..{}: view-compiled engine diverged from owned-compiled (max diff {})",
            start, end, yv.max_abs_diff(&yo)
        );
    }

    /// [`CsrMatrix::apply_delta`] matches rebuilding the merged cell map from
    /// scratch: upserts overwrite, deletes remove (absent cells are a no-op),
    /// the last op at a position wins, and every untouched entry carries over
    /// bit for bit. The incremental-update engine stands on this merge.
    #[test]
    fn apply_delta_matches_rebuild(
        (nrows, ncols, entries) in arb_matrix(),
        // (row, col, value, kind): kind 0 is a delete, anything else an
        // upsert of `value` — the stub proptest has no Option strategy.
        ops in proptest::collection::vec(
            (0usize..60, 0usize..60, -4.0f32..4.0f32, 0usize..5),
            0..80,
        ),
    ) {
        let base = CsrMatrix::from_triplets(nrows, ncols, &entries).unwrap();
        let mut delta = DeltaBatch::new();
        let mut cells: std::collections::HashMap<(usize, usize), f32> =
            base.iter().map(|(r, c, v)| ((r, c), v)).collect();
        for &(r, c, v, kind) in &ops {
            let (r, c) = (r % nrows, c % ncols);
            if kind == 0 {
                delta.delete(r, c);
                cells.remove(&(r, c));
            } else {
                delta.upsert(r, c, v);
                cells.insert((r, c), v);
            }
        }
        let merged = base.apply_delta(&delta).unwrap();
        prop_assert_eq!(merged.nnz(), cells.len());
        let triplets: Vec<(usize, usize, f32)> =
            cells.into_iter().map(|((r, c), v)| (r, c, v)).collect();
        let expected = CsrMatrix::from_triplets(nrows, ncols, &triplets).unwrap();
        prop_assert_eq!(merged, expected);
    }

    /// Workload partitions always cover every row exactly once, regardless of
    /// strategy and thread count.
    #[test]
    fn partitions_cover_rows(
        (nrows, ncols, entries) in arb_matrix(),
        threads in 1usize..9,
        strategy_idx in 0usize..3,
    ) {
        let strategy = [Strategy::RowSplitStatic, Strategy::NnzSplit, Strategy::MergeSplit][strategy_idx];
        let a = CsrMatrix::from_triplets(nrows, ncols, &entries).unwrap();
        let p = jitspmm::schedule::partition(&a, strategy, threads);
        let mut covered = 0usize;
        let mut cursor = 0usize;
        for r in &p.ranges {
            prop_assert_eq!(r.start, cursor);
            cursor = r.end;
            covered += r.len();
        }
        prop_assert_eq!(cursor, nrows);
        prop_assert_eq!(covered, nrows);
    }
}
