//! Differential family for the incremental-update subsystem
//! ([`jitspmm::update`]): every scenario × delta-kind combination must
//! produce outputs **bit-identical** to compiling the merged matrix from
//! scratch, on all three serving paths — blocking execute, batch execute,
//! and the live-swap path behind [`SpmmServer::serve_controlled`] — and a
//! swap racing real sweeps must never let a launch touch the generation it
//! frees.

use jitspmm::serve::{AdmissionPolicy, ServeOptions, ServerRequest, SpmmServer};
use jitspmm::shard::{plan_shards, ShardedSpmm};
use jitspmm::{MutableSpmm, WorkerPool};
use jitspmm_integration_tests::{host_supports_jit, pathological, small_skewed, small_uniform};
use jitspmm_sparse::{CsrMatrix, DeltaBatch, DenseMatrix};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const SHARDS: usize = 3;
const D: usize = 8;

fn scenarios() -> Vec<(&'static str, CsrMatrix<f32>)> {
    vec![("skewed", small_skewed()), ("uniform", small_uniform()), ("pathological", pathological())]
}

const DELTA_KINDS: [&str; 4] = ["insert", "delete", "value-update", "mixed"];

/// Build a deterministic delta of the requested kind against `base`:
/// inserts land on fresh coordinates, deletes and value-updates sample the
/// matrix's existing entries, mixed interleaves all three.
fn delta_for(kind: &str, base: &CsrMatrix<f32>) -> DeltaBatch<f32> {
    let (nrows, ncols) = (base.nrows(), base.ncols());
    let existing: Vec<(usize, usize)> = base.iter().map(|(r, c, _)| (r, c)).collect();
    let mut delta = DeltaBatch::new();
    match kind {
        "insert" => {
            for k in 0..25usize {
                delta.upsert((k * 13 + 1) % nrows, (k * 29 + 3) % ncols, k as f32 * 0.5 + 0.25);
            }
        }
        "delete" => {
            for (r, c) in existing.iter().step_by(17) {
                delta.delete(*r, *c);
            }
        }
        "value-update" => {
            for (i, (r, c)) in existing.iter().step_by(11).enumerate() {
                delta.upsert(*r, *c, i as f32 - 4.5);
            }
        }
        "mixed" => {
            for k in 0..10usize {
                delta.upsert((k * 37 + 2) % nrows, (k * 17 + 5) % ncols, 1.5 - k as f32);
            }
            for (r, c) in existing.iter().step_by(23) {
                delta.delete(*r, *c);
            }
            for (r, c) in existing.iter().skip(1).step_by(31) {
                delta.upsert(*r, *c, 9.75);
            }
        }
        other => panic!("unknown delta kind {other}"),
    }
    delta
}

/// Blocking and batch paths: for every scenario × delta kind, the updated
/// engine must match a from-scratch compile of the merged matrix bit for
/// bit, and its merged view must equal the reference merge.
#[test]
fn incremental_update_matches_from_scratch_blocking_and_batch() {
    if !host_supports_jit() {
        return;
    }
    let pool = WorkerPool::new(2);
    for (name, base) in scenarios() {
        for kind in DELTA_KINDS {
            let delta = delta_for(kind, &base);
            let engine = MutableSpmm::compile(&base, SHARDS, 1, D, pool.clone()).unwrap();
            let report = engine.apply(&delta).unwrap();
            assert_eq!(report.revision, 1, "{name}/{kind}");
            let merged = base.apply_delta(&delta).unwrap();
            assert_eq!(engine.merged_matrix(), merged, "{name}/{kind}: merged view");
            let plan = plan_shards(&merged, SHARDS, 1).unwrap();
            let fresh = ShardedSpmm::compile(&plan, D, pool.clone()).unwrap();

            let x = DenseMatrix::random(base.ncols(), D, 7);
            let (y_inc, _) = pool.scope(|s| engine.execute(s, &x)).unwrap();
            let (y_ref, _) = pool.scope(|s| fresh.execute(s, &x)).unwrap();
            assert_eq!(y_inc.max_abs_diff(&y_ref), 0.0, "{name}/{kind}: blocking path");

            let xs: Vec<DenseMatrix<f32>> =
                (0..3).map(|seed| DenseMatrix::random(base.ncols(), D, seed)).collect();
            let ys_inc = pool.scope(|s| engine.execute_batch(s, &xs)).unwrap();
            let ys_ref = pool.scope(|s| fresh.execute_batch(s, &xs)).unwrap();
            for (i, ((yi, _), (yr, _))) in ys_inc.iter().zip(&ys_ref).enumerate() {
                assert_eq!(yi.max_abs_diff(yr), 0.0, "{name}/{kind}: batch input {i}");
            }
        }
    }
}

/// The live-serving path: a mutable engine behind
/// [`SpmmServer::serve_controlled`] takes a delta mid-session via
/// [`jitspmm::serve::ControlHandle::apply_update`]. Requests completed
/// before the update must match a from-scratch compile of the base matrix;
/// requests admitted after the revision bump must match a from-scratch
/// compile of the merged matrix — bit for bit in both epochs.
#[test]
fn live_update_behind_serve_controlled_is_bit_identical() {
    if !host_supports_jit() {
        return;
    }
    let pool = WorkerPool::new(2);
    for (name, base) in scenarios() {
        let delta = delta_for("mixed", &base);
        let merged = base.apply_delta(&delta).unwrap();
        let plan_base = plan_shards(&base, SHARDS, 1).unwrap();
        let fresh_base = ShardedSpmm::compile(&plan_base, D, pool.clone()).unwrap();
        let plan_merged = plan_shards(&merged, SHARDS, 1).unwrap();
        let fresh_merged = ShardedSpmm::compile(&plan_merged, D, pool.clone()).unwrap();
        let inputs: Vec<DenseMatrix<f32>> =
            (0..6).map(|seed| DenseMatrix::random(base.ncols(), D, 40 + seed)).collect();
        let mut expected = Vec::new();
        for (i, x) in inputs.iter().enumerate() {
            let reference = if i < 3 { &fresh_base } else { &fresh_merged };
            let (y, _) = pool.scope(|s| reference.execute(s, x)).unwrap();
            expected.push(y);
        }

        let server: SpmmServer<'_, f32> = SpmmServer::with_pool(pool.clone());
        let mutable = MutableSpmm::compile(&base, SHARDS, 1, D, pool.clone()).unwrap();
        let id = server.add_mutable(mutable).unwrap();
        let control = server.control();
        let mut responses = Vec::new();
        let inputs_ref = &inputs;
        let producer_control = control.clone();
        let producer_delta = delta.clone();
        let answered = AtomicUsize::new(0);
        let answered_ref = &answered;
        let (report, ()) = server
            .serve_controlled(
                ServeOptions::new(AdmissionPolicy::blocking(8)),
                move |sender| {
                    for x in &inputs_ref[..3] {
                        sender.send_request(ServerRequest::new(id, x.clone())).unwrap();
                    }
                    // Let the pre-update requests finish on the old matrix
                    // before the swap, so each epoch's expectation is exact.
                    while answered_ref.load(Ordering::SeqCst) < 3 {
                        std::thread::yield_now();
                    }
                    assert!(producer_control.apply_update(id, producer_delta));
                    assert!(producer_control.wait_revision(id, 1, Duration::from_secs(30)));
                    for x in &inputs_ref[3..] {
                        sender.send_request(ServerRequest::new(id, x.clone())).unwrap();
                    }
                },
                |response| {
                    responses.push(response);
                    answered.fetch_add(1, Ordering::SeqCst);
                },
            )
            .unwrap();
        assert_eq!(report.requests, 6, "{name}: all requests completed");
        assert_eq!(control.engine_revision(id), Some(1), "{name}");
        assert_eq!(control.update_counts(), (1, 0), "{name}");
        responses.sort_by_key(|r| r.request());
        for (i, response) in responses.iter().enumerate() {
            assert!(response.is_completed(), "{name}: request {i}");
            assert_eq!(
                response.output().max_abs_diff(&expected[i]),
                0.0,
                "{name}: request {i} ({} the update) must be bit-identical",
                if i < 3 { "before" } else { "after" }
            );
        }
    }
}

/// Swaps race real sweeps: reader threads loop `execute` while a writer
/// applies 100 deltas, each of which frees the generation it replaces.
/// Every output must be bit-identical to the from-scratch result of one
/// revision between the ones the reader observed around its call — a
/// launch that ran through a freed generation (unmapped kernel, freed
/// arrays) would fault or produce anything else.
#[test]
fn applies_race_executes_without_touching_freed_generations() {
    if !host_supports_jit() {
        return;
    }
    const UPDATES: usize = 100;
    let pool = WorkerPool::new(2);
    let base = small_uniform();
    let x = DenseMatrix::random(base.ncols(), D, 17);
    // One single-op delta per revision, each moving the output, and the
    // from-scratch output of every revision 0..=UPDATES.
    let mut deltas = Vec::with_capacity(UPDATES);
    let mut expected = Vec::with_capacity(UPDATES + 1);
    let mut current = base.clone();
    for k in 0..=UPDATES {
        let plan = plan_shards(&current, SHARDS, 1).unwrap();
        let fresh = ShardedSpmm::compile(&plan, D, pool.clone()).unwrap();
        let (y, _) = pool.scope(|s| fresh.execute(s, &x)).unwrap();
        expected.push(y.into_dense());
        if k < UPDATES {
            let mut delta = DeltaBatch::new();
            delta.upsert((k * 13) % base.nrows(), (k * 29) % base.ncols(), k as f32 + 1.25);
            current = current.apply_delta(&delta).unwrap();
            deltas.push(delta);
        }
    }

    let engine = MutableSpmm::compile(&base, SHARDS, 1, D, pool.clone()).unwrap();
    let executes = AtomicUsize::new(0);
    std::thread::scope(|threads| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                threads.spawn(|| loop {
                    let before = engine.revision() as usize;
                    let (y, _) = pool.scope(|s| engine.execute(s, &x)).unwrap();
                    let after = engine.revision() as usize;
                    let y = y.into_dense();
                    assert!(
                        (before..=after).any(|revision| y == expected[revision]),
                        "an execute between revisions {before} and {after} matched none of them"
                    );
                    executes.fetch_add(1, Ordering::Relaxed);
                    if before == UPDATES {
                        break;
                    }
                })
            })
            .collect();
        for (k, delta) in deltas.iter().enumerate() {
            // Let the readers in between swaps so the race is real on any
            // core count (a reader that failed its assert ends the wait;
            // the scope re-raises its panic).
            while executes.load(Ordering::Relaxed) < k && !readers.iter().all(|r| r.is_finished()) {
                std::thread::yield_now();
            }
            let report = engine.apply(delta).unwrap();
            assert_eq!(report.revision, k as u64 + 1);
        }
    });
    assert!(executes.load(Ordering::Relaxed) >= UPDATES);
    assert_eq!(engine.generations_retained(), 1, "every superseded generation was freed");
    assert_eq!(engine.merged_matrix(), current);
}
