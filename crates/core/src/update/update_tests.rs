//! Unit tests for the incremental-update subsystem: generation protocol
//! (one live generation, freed by the swap), shard-local merging, re-plan
//! drift, and bit-identity of the incremental path
//! against from-scratch compilation. The cross-crate differential family
//! (serving paths included) lives in `tests/tests/update_differential.rs`.

use super::*;
use crate::shard::plan_shards;
use jitspmm_sparse::generate;

fn square_rmat(scale: u32, nnz: usize, seed: u64) -> CsrMatrix<f32> {
    generate::rmat::<f32>(scale, nnz, generate::RmatConfig::GRAPH500, seed)
}

#[test]
fn incremental_apply_is_bit_identical_to_from_scratch() {
    let pool = WorkerPool::new(2);
    let a = square_rmat(9, 8_000, 5);
    let engine = MutableSpmm::compile(&a, 4, 1, 8, pool.clone()).unwrap();
    let mut delta = DeltaBatch::new();
    delta.upsert(3, 100, 1.25).upsert(200, 7, -2.0).delete(3, 100).upsert(3, 100, 4.5);
    for r in 0..20 {
        delta.upsert(r * 11, (r * 37) % a.ncols(), r as f32 + 0.5);
    }
    let report = engine.apply(&delta).unwrap();
    assert_eq!(report.revision, 1);
    assert_eq!(engine.revision(), 1);
    assert!(!report.replanned);
    assert!(report.touched_shards >= 1 && report.touched_shards <= engine.shards());
    assert_eq!(engine.generations_retained(), 1, "the swap freed generation 0");

    let merged = a.apply_delta(&delta).unwrap();
    assert_eq!(engine.merged_matrix(), merged);
    assert_eq!(engine.nnz(), merged.nnz());
    let plan = plan_shards(&merged, 4, 1).unwrap();
    let fresh = ShardedSpmm::compile(&plan, 8, pool.clone()).unwrap();
    let x = DenseMatrix::random(a.ncols(), 8, 3);
    let (y_inc, _) = pool.scope(|s| engine.execute(s, &x)).unwrap();
    let (y_ref, _) = pool.scope(|s| fresh.execute(s, &x)).unwrap();
    assert_eq!(y_inc.max_abs_diff(&y_ref), 0.0, "incremental path must be bit-identical");
}

#[test]
fn superseded_generations_are_freed() {
    let pool = WorkerPool::new(2);
    let a = square_rmat(9, 10_000, 11);
    let engine = MutableSpmm::compile(&a, 4, 1, 8, pool.clone()).unwrap();
    assert_eq!(engine.generations_retained(), 1);
    // 200 single-op deltas, all inside the first shard's rows.
    let first_shard_rows = engine.read().plan.shards()[0].rows.end;
    let mut current = a.clone();
    for k in 0..200usize {
        let mut delta = DeltaBatch::new();
        delta.upsert(k % first_shard_rows, (k * 7) % a.ncols(), k as f32 + 0.5);
        let report = engine.apply(&delta).unwrap();
        assert_eq!(report.revision, k as u64 + 1);
        assert_eq!(report.touched_shards, 1, "only the first shard re-merges");
        assert!(!report.replanned);
        assert_eq!(engine.generations_retained(), 1, "apply {k} freed its predecessor");
        current = current.apply_delta(&delta).unwrap();
    }
    // No non-zero data was ever copied for the untouched shards: their
    // spec matrices still alias the original matrix's storage, 200
    // generations on; the touched shard owns its merged copy.
    let guard = engine.read();
    let shards = guard.plan.shards();
    assert!(!shards[0].matrix.shares_storage_with(&a));
    for spec in &shards[1..] {
        assert!(spec.matrix.shares_storage_with(&a), "rows {:?} were re-materialized", spec.rows);
    }
    drop(guard);
    assert_eq!(engine.merged_matrix(), current);
    let x = DenseMatrix::random(a.ncols(), 8, 3);
    let (y, _) = pool.scope(|s| engine.execute(s, &x)).unwrap();
    assert!(y.approx_eq(&current.spmm_reference(&x), 1e-4));
}

#[test]
fn heavy_skew_forces_a_replan() {
    let pool = WorkerPool::new(2);
    let a = generate::uniform::<f32>(200, 200, 2_000, 3);
    let engine = MutableSpmm::compile(&a, 4, 1, 8, pool.clone()).unwrap();
    // Pile ~3000 inserts into the first shard's rows: its nnz dwarfs the
    // others and the imbalance blows through the 1.5x re-plan threshold.
    let mut delta = DeltaBatch::new();
    for r in 0..20 {
        for c in 0..150 {
            delta.upsert(r, c, 1.0);
        }
    }
    let report = engine.apply(&delta).unwrap();
    assert!(report.replanned, "imbalance {} should force a re-plan", report.nnz_imbalance);
    assert!(report.nnz_imbalance <= 1.5, "the re-cut restores balance");
    assert_eq!(engine.generations_retained(), 1, "a re-plan frees its predecessor too");
    // Still bit-identical to from-scratch on the merged matrix.
    let merged = a.apply_delta(&delta).unwrap();
    let plan = plan_shards(&merged, 4, 1).unwrap();
    let fresh = ShardedSpmm::compile(&plan, 8, pool.clone()).unwrap();
    let x = DenseMatrix::random(200, 8, 7);
    let (y_inc, _) = pool.scope(|s| engine.execute(s, &x)).unwrap();
    let (y_ref, _) = pool.scope(|s| fresh.execute(s, &x)).unwrap();
    assert_eq!(y_inc.max_abs_diff(&y_ref), 0.0);
}

#[test]
fn empty_delta_is_a_no_op() {
    let pool = WorkerPool::new(1);
    let a = generate::uniform::<f32>(100, 100, 1_000, 1);
    let engine = MutableSpmm::compile(&a, 2, 1, 4, pool).unwrap();
    let report = engine.apply(&DeltaBatch::new()).unwrap();
    assert_eq!(report.revision, 0);
    assert_eq!(report.touched_shards, 0);
    assert_eq!(engine.revision(), 0);
    assert_eq!(engine.generations_retained(), 1);
}

#[test]
fn out_of_bounds_ops_are_rejected_and_the_engine_keeps_serving() {
    let pool = WorkerPool::new(1);
    let a = generate::uniform::<f32>(64, 64, 500, 2);
    let engine = MutableSpmm::compile(&a, 2, 1, 4, pool.clone()).unwrap();
    let mut delta = DeltaBatch::new();
    delta.upsert(64, 0, 1.0); // row == nrows: out of bounds
    assert!(matches!(engine.apply(&delta), Err(JitSpmmError::InvalidConfig(_))));
    assert_eq!(engine.revision(), 0);
    let x = DenseMatrix::random(64, 4, 5);
    let (y, _) = pool.scope(|s| engine.execute(s, &x)).unwrap();
    assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
}

#[test]
fn open_streams_pin_their_revision_and_defer_applies() {
    let pool = WorkerPool::new(2);
    let a = generate::uniform::<f32>(128, 128, 1_500, 4);
    let engine = MutableSpmm::compile(&a, 2, 1, 4, pool.clone()).unwrap();
    let mut delta = DeltaBatch::new();
    delta.upsert(0, 3, 2.0);
    let inputs: Vec<DenseMatrix<f32>> =
        (0..3).map(|seed| DenseMatrix::random(128, 4, seed)).collect();
    pool.scope(|scope| {
        let mut stream = engine.batch_stream(scope, 2).unwrap();
        // The stream holds the generation read guard: a non-blocking apply
        // must report contention instead of swapping mid-stream.
        assert!(engine.try_apply(&delta).is_none());
        let mut outputs = Vec::new();
        for x in &inputs {
            if let Some((y, _)) = stream.push(x).unwrap() {
                outputs.push(y);
            }
        }
        outputs.extend(stream.finish().into_iter().map(|(y, _)| y));
        for (x, y) in inputs.iter().zip(&outputs) {
            assert!(y.approx_eq(&a.spmm_reference(x), 1e-4), "pre-update matrix served");
        }
    });
    // Guard released: the same apply now lands.
    let report = engine.try_apply(&delta).expect("lock free after finish").unwrap();
    assert_eq!(report.revision, 1);
    let merged = a.apply_delta(&delta).unwrap();
    let (y, _) = pool.scope(|s| engine.execute(s, &inputs[0])).unwrap();
    assert!(y.approx_eq(&merged.spmm_reference(&inputs[0]), 1e-4));
    // A *forgotten* stream leaks its read guard with it: the scope still
    // joins the in-flight launch against live memory, and the pin outlives
    // it — the generation can never be swapped out from under the leak.
    pool.scope(|scope| {
        let mut stream = engine.batch_stream(scope, 2).unwrap();
        assert!(stream.push(&inputs[1]).unwrap().is_none(), "depth 2 keeps it in flight");
        std::mem::forget(stream);
    });
    assert!(engine.try_apply(&delta).is_none());
    assert_eq!((engine.revision(), engine.generations_retained()), (1, 1));
}

#[test]
fn repeated_updates_compose_and_execute_batch_matches() {
    let pool = WorkerPool::new(2);
    let a = square_rmat(8, 4_000, 9);
    let engine = MutableSpmm::compile(&a, 3, 1, 8, pool.clone()).unwrap();
    let mut current = a.clone();
    for round in 0..3u64 {
        let mut delta = DeltaBatch::new();
        for k in 0..10usize {
            let r = (k * 17 + round as usize * 31) % current.nrows();
            let c = (k * 13 + round as usize * 7) % current.ncols();
            if k % 3 == 0 {
                delta.delete(r, c);
            } else {
                delta.upsert(r, c, (k as f32) - 1.5);
            }
        }
        let report = engine.apply(&delta).unwrap();
        assert_eq!(report.revision, round + 1);
        current = current.apply_delta(&delta).unwrap();
    }
    assert_eq!(engine.merged_matrix(), current);
    let inputs: Vec<DenseMatrix<f32>> =
        (0..4).map(|seed| DenseMatrix::random(current.ncols(), 8, seed)).collect();
    let plan = plan_shards(&current, 3, 1).unwrap();
    let fresh = ShardedSpmm::compile(&plan, 8, pool.clone()).unwrap();
    let ys_inc = pool.scope(|s| engine.execute_batch(s, &inputs)).unwrap();
    let ys_ref = pool.scope(|s| fresh.execute_batch(s, &inputs)).unwrap();
    for ((yi, _), (yr, _)) in ys_inc.iter().zip(&ys_ref) {
        assert_eq!(yi.max_abs_diff(yr), 0.0);
    }
}
