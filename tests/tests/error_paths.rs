//! Table-driven error-path sweep over every public launch entry point.
//!
//! The contract under test: malformed user input — wrong shapes, unknown
//! engine ids, zero column counts — is answered with a typed
//! [`JitSpmmError`] (or, behind the server, a typed rejection or failed
//! response) *before* the entry point pins a generation or touches a
//! buffer pool. No entry point may panic on user input, and after any
//! rejected call the engine (or server) must serve a well-formed request
//! exactly as if the bad one had never happened.

use jitspmm::profile::measure_jit_emulated;
use jitspmm::serve::{
    AdmissionPolicy, RejectReason, SendError, ServeOptions, ServerRequest, SpmmServer,
};
use jitspmm::shard::{plan_shards, ShardedSpmm};
use jitspmm::{JitSpmm, JitSpmmBuilder, JitSpmmError, MutableSpmm, SpmmOptions, WorkerPool};
use jitspmm_integration_tests::{host_supports_jit, serve_all};
use jitspmm_sparse::{generate, CsrMatrix, DenseMatrix};

/// The classes of malformed input every entry point must reject.
#[derive(Clone, Copy, Debug)]
enum BadInput {
    /// Row count does not match `A.ncols()`.
    Rows,
    /// Column count does not match the compiled `d`.
    Cols,
    /// Both dimensions are nonsense.
    Both,
}

impl BadInput {
    fn all() -> [BadInput; 3] {
        [BadInput::Rows, BadInput::Cols, BadInput::Both]
    }

    fn build(self, a: &CsrMatrix<f32>, d: usize) -> DenseMatrix<f32> {
        match self {
            BadInput::Rows => DenseMatrix::zeros(a.ncols() + 3, d),
            BadInput::Cols => DenseMatrix::zeros(a.ncols(), d + 1),
            BadInput::Both => DenseMatrix::zeros(1, 1),
        }
    }
}

/// The three engine shapes over one matrix: every entry point of each must
/// reject the same malformed inputs.
struct Engines<'a> {
    single: JitSpmm<'a, f32>,
    sharded: ShardedSpmm<'a, f32>,
    mutable: MutableSpmm<f32>,
}

/// One row of the entry-point table: a name and a closure that drives the
/// entry point with the given (malformed) input and hands back its error.
struct EntryPoint {
    name: &'static str,
    run: fn(&Engines<'_>, DenseMatrix<f32>) -> Result<(), JitSpmmError>,
}

fn entry_points() -> Vec<EntryPoint> {
    vec![
        EntryPoint { name: "execute", run: |e, x| e.single.execute(&x).map(drop) },
        EntryPoint {
            name: "execute_into",
            run: |e, x| {
                let mut y = DenseMatrix::zeros(e.single.matrix().nrows(), e.single.d());
                e.single.execute_into(&x, &mut y).map(drop)
            },
        },
        EntryPoint {
            name: "execute_single_thread",
            run: |e, x| {
                let mut y = DenseMatrix::zeros(e.single.matrix().nrows(), e.single.d());
                e.single.execute_single_thread(&x, &mut y).map(drop)
            },
        },
        EntryPoint {
            name: "profile::measure_jit_emulated",
            run: |e, x| {
                let mut y = DenseMatrix::zeros(e.single.matrix().nrows(), e.single.d());
                measure_jit_emulated(&e.single, &x, &mut y).map(drop)
            },
        },
        EntryPoint {
            name: "execute_batch",
            run: |e, x| {
                let inputs = vec![x];
                e.single.pool().scope(|scope| e.single.execute_batch(scope, &inputs)).map(drop)
            },
        },
        EntryPoint {
            name: "batch_stream push",
            run: |e, x| {
                e.single.pool().scope(|scope| e.single.batch_stream(scope, 2).push(&x).map(drop))
            },
        },
        EntryPoint {
            name: "ShardedSpmm::execute",
            run: |e, x| e.sharded.pool().scope(|scope| e.sharded.execute(scope, &x).map(drop)),
        },
        EntryPoint {
            name: "ShardedSpmm::execute_batch",
            run: |e, x| {
                let inputs = vec![x];
                e.sharded.pool().scope(|scope| e.sharded.execute_batch(scope, &inputs)).map(drop)
            },
        },
        EntryPoint {
            name: "ShardedSpmm batch_stream push",
            run: |e, x| {
                e.sharded.pool().scope(|scope| e.sharded.batch_stream(scope, 2).push(&x).map(drop))
            },
        },
        EntryPoint {
            name: "MutableSpmm::execute",
            run: |e, x| e.mutable.pool().scope(|scope| e.mutable.execute(scope, &x).map(drop)),
        },
        EntryPoint {
            name: "MutableSpmm::execute_batch",
            run: |e, x| {
                let inputs = vec![x];
                e.mutable.pool().scope(|scope| e.mutable.execute_batch(scope, &inputs)).map(drop)
            },
        },
        EntryPoint {
            name: "MutableSpmm batch_stream push",
            run: |e, x| {
                e.mutable.pool().scope(|scope| e.mutable.batch_stream(scope, 2).push(&x).map(drop))
            },
        },
    ]
}

#[test]
fn every_entry_point_rejects_malformed_shapes_and_stays_usable() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(60, 50, 400, 21);
    let d = 8usize;
    let pool = WorkerPool::new(2);
    let plan = plan_shards(&a, 2, 1).unwrap();
    let engines = Engines {
        single: JitSpmmBuilder::new().pool(pool.clone()).threads(2).build(&a, d).unwrap(),
        sharded: ShardedSpmm::compile(&plan, d, pool.clone()).unwrap(),
        mutable: MutableSpmm::compile(&a, 2, 1, d, pool.clone()).unwrap(),
    };
    let good = DenseMatrix::random(a.ncols(), d, 7);
    let expected = a.spmm_reference(&good);

    for entry in entry_points() {
        for bad in BadInput::all() {
            let err = (entry.run)(&engines, bad.build(&a, d))
                .expect_err(&format!("{} must reject {bad:?} input", entry.name));
            assert!(
                matches!(err, JitSpmmError::ShapeMismatch(_)),
                "{} on {bad:?}: expected ShapeMismatch, got {err:?}",
                entry.name
            );
            // The rejection must leave no state behind: a well-formed
            // execute right after works and is correct, on every shape.
            let unusable = |e: JitSpmmError| panic!("{} left an engine unusable: {e}", entry.name);
            let (y, _) = engines.single.execute(&good).unwrap_or_else(unusable);
            assert!(y.approx_eq(&expected, 1e-4), "{} corrupted the engine's results", entry.name);
            let (y, _) = pool.scope(|s| engines.sharded.execute(s, &good)).unwrap_or_else(unusable);
            assert!(y.approx_eq(&expected, 1e-4), "{} corrupted the sharded results", entry.name);
            let (y, _) = pool.scope(|s| engines.mutable.execute(s, &good)).unwrap_or_else(unusable);
            assert!(y.approx_eq(&expected, 1e-4), "{} corrupted the mutable results", entry.name);
        }
    }

    // Behind the server the same inputs are admitted and then failed with
    // the ShapeMismatch text — the serve itself does not error — and the
    // well-formed request sent after each is served as if the bad one had
    // never happened.
    let server = SpmmServer::new(vec![engines.single]).unwrap();
    for bad in BadInput::all() {
        let requests =
            vec![ServerRequest::new(0, bad.build(&a, d)), ServerRequest::new(0, good.clone())];
        let (responses, report) = serve_all(&server, requests);
        assert_eq!((report.requests, report.failed), (1, 1), "{bad:?}");
        let message = responses[0].failure().expect("the malformed request fails");
        assert!(message.starts_with("shape mismatch"), "{bad:?}: {message}");
        assert!(responses[1].output().approx_eq(&expected, 1e-4), "{bad:?} corrupted the server");
    }
}

#[test]
fn zero_column_compilation_is_rejected_everywhere() {
    // `d == 0` is refused at compile time by every construction path — an
    // engine with nothing to compute can never exist, so no launch path
    // needs a d==0 case.
    let a = generate::uniform::<f32>(20, 20, 50, 3);
    assert!(matches!(
        JitSpmm::compile(&a, 0, SpmmOptions::default()).unwrap_err(),
        JitSpmmError::EmptyDenseMatrix
    ));
    assert!(matches!(
        JitSpmmBuilder::new().build(&a, 0).unwrap_err(),
        JitSpmmError::EmptyDenseMatrix
    ));
    assert!(matches!(
        JitSpmm::compile_with_pool(&a, 0, SpmmOptions::default(), WorkerPool::inline())
            .unwrap_err(),
        JitSpmmError::EmptyDenseMatrix
    ));
}

#[test]
fn server_rejects_unknown_engine_ids_everywhere() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = generate::uniform::<f32>(40, 40, 250, 5);
    let pool = WorkerPool::new(1);
    let engine = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, 4).unwrap();
    let server = SpmmServer::new(vec![engine]).unwrap();
    let input = || DenseMatrix::<f32>::random(40, 4, 9);
    // The handler refuses the send with a typed reason; nothing reaches the
    // consumer, the serve does not abort, and a good request sent afterwards
    // still goes through.
    let mut responses = Vec::new();
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::shedding(1)),
            |sender| {
                for id in [3, 1] {
                    assert_eq!(
                        sender.send_request(ServerRequest::new(id, input())),
                        Err(SendError::Rejected(RejectReason::UnknownEngine))
                    );
                }
                sender.send_request(ServerRequest::new(0, input())).unwrap();
            },
            |response| responses.push(response),
        )
        .unwrap();
    assert_eq!(responses.len(), 1);
    assert!(responses[0].is_completed());
    assert_eq!((report.requests, report.rejected), (1, 2));
}
