//! Unit tests for the batch pipeline layer (split out of `batch.rs` to
//! keep each engine layer file readable).

#![allow(clippy::module_name_repetitions)]

use super::batch::*;
use crate::engine::JitSpmmBuilder;
use crate::error::JitSpmmError;
use crate::runtime::WorkerPool;
use crate::schedule::Strategy;
use crate::serve::{AdmissionPolicy, ServeOptions, ServerRequest, SpmmServer};
use jitspmm_asm::CpuFeatures;
use jitspmm_sparse::generate;
use jitspmm_sparse::DenseMatrix;
use std::time::Duration;

fn host_ok() -> bool {
    let f = CpuFeatures::detect();
    f.avx && f.has_fma()
}

#[test]
fn execute_batch_matches_per_input_execute_exactly() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::rmat::<f32>(8, 3_000, generate::RmatConfig::GRAPH500, 6);
    let inputs: Vec<DenseMatrix<f32>> =
        (0..7).map(|seed| DenseMatrix::random(a.ncols(), 8, 100 + seed)).collect();
    for strategy in [Strategy::RowSplitStatic, Strategy::RowSplitDynamic { batch: 32 }] {
        let engine = JitSpmmBuilder::new()
            .strategy(strategy)
            .threads(2)
            .pool(WorkerPool::new(2))
            .build(&a, 8)
            .unwrap();
        // Per-row arithmetic is fixed by the compiled kernel, so the
        // batched pipeline must be bit-identical to the blocking path.
        let expected: Vec<DenseMatrix<f32>> =
            inputs.iter().map(|x| engine.execute(x).unwrap().0.into_dense()).collect();
        let (outputs, report) =
            engine.pool().scope(|scope| engine.execute_batch(scope, &inputs)).unwrap();
        assert_eq!(outputs.len(), inputs.len());
        for (i, (y, e)) in outputs.iter().zip(&expected).enumerate() {
            assert_eq!(**y, *e, "input {i}, strategy {strategy}");
        }
        assert_eq!(report.inputs, inputs.len());
        // Depth 0 is the default pipeline on every host, at the engine's
        // lane count.
        assert_eq!((report.depth, report.threads), (DEFAULT_BATCH_DEPTH, 2));
        assert!(report.kernel_p50 <= report.kernel_p99);
        assert!(report.kernel_total >= report.kernel_p99);
        assert!(report.throughput() > 0.0);
    }
}

#[test]
fn execute_batch_handles_empty_and_single_input_batches() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(90, 90, 700, 4);
    let engine = JitSpmmBuilder::new().threads(2).build(&a, 4).unwrap();
    let (outputs, report) = engine.pool().scope(|scope| engine.execute_batch(scope, &[])).unwrap();
    assert!(outputs.is_empty());
    assert_eq!(report.inputs, 0);
    assert_eq!(report.elapsed, Duration::ZERO);
    assert_eq!(report.throughput(), 0.0);

    let one = [DenseMatrix::random(90, 4, 9)];
    let (outputs, report) = engine.pool().scope(|scope| engine.execute_batch(scope, &one)).unwrap();
    assert_eq!(outputs.len(), 1);
    assert_eq!(report.inputs, 1);
    assert_eq!(report.depth, 1, "a single-input batch needs no extra slots");
    assert!(outputs[0].approx_eq(&a.spmm_reference(&one[0]), 1e-4));
}

#[test]
fn execute_batch_rejects_mismatched_inputs_up_front() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(80, 80, 600, 5);
    let engine = JitSpmmBuilder::new().threads(2).build(&a, 8).unwrap();
    let inputs = vec![
        DenseMatrix::random(80, 8, 1),
        DenseMatrix::random(80, 9, 2), // wrong d
        DenseMatrix::random(80, 8, 3),
    ];
    let err = engine.pool().scope(|scope| engine.execute_batch(scope, &inputs)).unwrap_err();
    match err {
        JitSpmmError::ShapeMismatch(msg) => {
            assert!(msg.contains("batch input 1"), "message should name the input: {msg}")
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    // Nothing launched, nothing corrupted: the engine still executes.
    let x = DenseMatrix::random(80, 8, 4);
    let (y, _) = engine.execute(&x).unwrap();
    assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
}

#[test]
fn batch_stream_survives_a_mismatched_push() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(100, 100, 900, 7);
    let engine = JitSpmmBuilder::new()
        .threads(2)
        .pool(WorkerPool::new(2))
        .strategy(Strategy::RowSplitDynamic { batch: 16 })
        .build(&a, 8)
        .unwrap();
    let good: Vec<DenseMatrix<f32>> =
        (0..5).map(|seed| DenseMatrix::random(100, 8, 40 + seed)).collect();
    let bad = DenseMatrix::<f32>::zeros(100, 3);
    engine.pool().scope(|scope| {
        let mut stream = engine.batch_stream(scope, 2).unwrap();
        let mut completed = Vec::new();
        for (i, x) in good.iter().enumerate() {
            if i == 2 {
                // A mid-stream bad input must error without submitting
                // or disturbing the launches in flight.
                assert!(matches!(stream.push(&bad).unwrap_err(), JitSpmmError::ShapeMismatch(_)));
            }
            if let Some(done) = stream.push(x).unwrap() {
                completed.push(done);
            }
        }
        let (rest, report) = stream.finish();
        completed.extend(rest);
        assert_eq!(report.inputs, good.len());
        for ((y, _), x) in completed.iter().zip(&good) {
            assert!(y.approx_eq(&a.spmm_reference(x), 1e-4));
        }
    });
}

#[test]
fn push_owned_matches_borrowed_push_exactly() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::rmat::<f32>(8, 2_500, generate::RmatConfig::GRAPH500, 12);
    for strategy in [Strategy::RowSplitStatic, Strategy::RowSplitDynamic { batch: 16 }] {
        let engine = JitSpmmBuilder::new()
            .strategy(strategy)
            .threads(2)
            .pool(WorkerPool::new(2))
            .build(&a, 8)
            .unwrap();
        let inputs: Vec<DenseMatrix<f32>> =
            (0..6).map(|seed| DenseMatrix::random(a.ncols(), 8, 500 + seed)).collect();
        let expected: Vec<DenseMatrix<f32>> =
            inputs.iter().map(|x| engine.execute(x).unwrap().0.into_dense()).collect();
        // Owned pushes must be bit-identical to the blocking path, in
        // submission order.
        engine.pool().scope(|scope| {
            let mut stream = engine.batch_stream(scope, 2).unwrap();
            let mut outputs = Vec::new();
            for x in &inputs {
                if let Some((y, _)) = stream.push_owned(x.clone()).unwrap() {
                    outputs.push(y.into_dense());
                }
            }
            let (rest, report) = stream.finish();
            outputs.extend(rest.into_iter().map(|(y, _)| y.into_dense()));
            assert_eq!(outputs, expected, "strategy {strategy}");
            assert_eq!(report.inputs, inputs.len());
        });
    }
}

#[test]
fn push_owned_from_a_producer_thread() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    // The motivating shape: a producer thread creates inputs that never
    // live in the consumer's 'env, handing them over by value through a
    // channel. The stream must keep each one alive until its launch has
    // been joined.
    let a = generate::uniform::<f32>(120, 120, 1_100, 3);
    let engine = JitSpmmBuilder::new().threads(2).pool(WorkerPool::new(2)).build(&a, 8).unwrap();
    let expected: Vec<DenseMatrix<f32>> = (0..8)
        .map(|seed| {
            engine.execute(&DenseMatrix::random(120, 8, 900 + seed)).unwrap().0.into_dense()
        })
        .collect();
    let (tx, rx) = std::sync::mpsc::sync_channel::<DenseMatrix<f32>>(2);
    std::thread::scope(|ts| {
        ts.spawn(move || {
            for seed in 0..8 {
                tx.send(DenseMatrix::random(120, 8, 900 + seed)).unwrap();
            }
        });
        engine.pool().scope(|scope| {
            let mut stream = engine.batch_stream(scope, 2).unwrap();
            let mut outputs = Vec::new();
            for x in rx {
                if let Some((y, _)) = stream.push_owned(x).unwrap() {
                    outputs.push(y.into_dense());
                }
            }
            let (rest, _) = stream.finish();
            outputs.extend(rest.into_iter().map(|(y, _)| y.into_dense()));
            assert_eq!(outputs, expected);
        });
    });
}

#[test]
fn push_owned_rejects_bad_shapes_without_disturbing_the_pipeline() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(70, 70, 500, 6);
    let engine = JitSpmmBuilder::new().threads(1).build(&a, 4).unwrap();
    let good: Vec<DenseMatrix<f32>> = (0..3).map(|seed| DenseMatrix::random(70, 4, seed)).collect();
    engine.pool().scope(|scope| {
        let mut stream = engine.batch_stream(scope, 2).unwrap();
        let mut done = 0usize;
        for (i, x) in good.iter().enumerate() {
            if i == 1 {
                assert!(matches!(
                    stream.push_owned(DenseMatrix::<f32>::zeros(70, 9)).unwrap_err(),
                    JitSpmmError::ShapeMismatch(_)
                ));
            }
            if stream.push_owned(x.clone()).unwrap().is_some() {
                done += 1;
            }
        }
        let (rest, report) = stream.finish();
        done += rest.len();
        assert_eq!(done, good.len());
        assert_eq!(report.inputs, good.len());
    });
}

#[test]
fn open_batch_stream_blocks_other_launches_and_releases_them() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(70, 70, 500, 8);
    let engine = JitSpmmBuilder::new().threads(1).build(&a, 4).unwrap();
    let x = DenseMatrix::random(70, 4, 3);
    engine.pool().scope(|scope| {
        let mut stream = engine.batch_stream(scope, 2).unwrap();
        // The stream holds the launch lock: a same-thread execute must
        // fail fast instead of self-deadlocking.
        assert!(matches!(engine.execute(&x).unwrap_err(), JitSpmmError::LaunchInProgress));
        assert!(stream.push(&x).unwrap().is_none());
        let (rest, _) = stream.finish();
        assert_eq!(rest.len(), 1);
    });
    // Stream gone: the engine accepts launches again.
    let (y, _) = engine.execute(&x).unwrap();
    assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
}

#[test]
fn dropped_batch_stream_joins_in_flight_launches() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(150, 150, 2_000, 9);
    let engine = JitSpmmBuilder::new().threads(2).pool(WorkerPool::new(2)).build(&a, 8).unwrap();
    let inputs: Vec<DenseMatrix<f32>> =
        (0..3).map(|seed| DenseMatrix::random(150, 8, 60 + seed)).collect();
    engine.pool().scope(|scope| {
        let mut stream = engine.batch_stream(scope, 2).unwrap();
        for x in &inputs {
            let _ = stream.push(x).unwrap();
        }
        assert!(stream.in_flight() > 0);
        // Dropped mid-batch: the launches join, buffers recycle.
        drop(stream);
    });
    let x = DenseMatrix::random(150, 8, 99);
    let (y, _) = engine.execute(&x).unwrap();
    assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
}

#[test]
fn batch_slot_kernels_are_cached_across_batches() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(120, 120, 1_000, 10);
    let engine = JitSpmmBuilder::new()
        .strategy(Strategy::RowSplitDynamic { batch: 16 })
        .threads(2)
        .pool(WorkerPool::new(2))
        .build(&a, 8)
        .unwrap();
    let inputs: Vec<DenseMatrix<f32>> =
        (0..4).map(|seed| DenseMatrix::random(120, 8, seed)).collect();
    let expected: Vec<DenseMatrix<f32>> =
        inputs.iter().map(|x| engine.execute(x).unwrap().0.into_dense()).collect();
    for _ in 0..3 {
        engine.pool().scope(|scope| {
            let mut stream = engine.batch_stream(scope, 2).unwrap();
            let mut outputs = Vec::new();
            for x in &inputs {
                if let Some((y, _)) = stream.push(x).unwrap() {
                    outputs.push(y.into_dense());
                }
            }
            let (rest, _) = stream.finish();
            outputs.extend(rest.into_iter().map(|(y, _)| y.into_dense()));
            assert_eq!(outputs, expected);
        });
    }
    // Depth 2 needs exactly one spare dynamic kernel, compiled once.
    assert_eq!(crate::runtime::pool::lock(&engine.core.batch_kernels).len(), 1);

    // A full controlled serving session runs on the same core too — and
    // still needs only that one spare.
    let server = SpmmServer::new(vec![engine]).unwrap();
    let mut served = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(4)),
            |sender| {
                for x in &inputs {
                    sender.send_request(ServerRequest::new(0, x.clone())).unwrap();
                }
            },
            |response| served.push(response.into_output().expect("completed").into_dense()),
        )
        .unwrap();
    assert_eq!(report.requests, inputs.len());
    assert_eq!(served, expected);
    let engine = server.single(0).unwrap();
    assert_eq!(crate::runtime::pool::lock(&engine.core.batch_kernels).len(), 1);
}

#[test]
fn execute_batch_on_inline_pool_runs_eagerly() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(60, 60, 400, 11);
    let engine = JitSpmmBuilder::new().threads(2).pool(WorkerPool::inline()).build(&a, 4).unwrap();
    let inputs: Vec<DenseMatrix<f32>> =
        (0..5).map(|seed| DenseMatrix::random(60, 4, seed)).collect();
    let (outputs, report) =
        engine.pool().scope(|scope| engine.execute_batch(scope, &inputs)).unwrap();
    assert_eq!(outputs.len(), 5);
    assert_eq!(report.inputs, 5);
    for (x, y) in inputs.iter().zip(&outputs) {
        assert!(y.approx_eq(&a.spmm_reference(x), 1e-4));
    }
}
