//! Quick start: compile a JIT SpMM kernel for a random power-law matrix and
//! compare it against the textbook reference and the execution-time of the
//! auto-vectorized baseline.
//!
//! Run with: `cargo run -p jitspmm-examples --release --bin quickstart`

use jitspmm::baseline::vectorized::spmm_vectorized;
use jitspmm::serve::{AdmissionPolicy, ServeOptions, ServerRequest, SpmmServer};
use jitspmm::{ExecutionReport, JitSpmmBuilder, MutableSpmm, Strategy, WorkerPool};
use jitspmm_examples::require_jit_host;
use jitspmm_sparse::{generate, DeltaBatch, DenseMatrix};
use std::time::{Duration, Instant};

/// Nearest-rank percentile (`pct` in 0..=100) of the kernel times in
/// `reports`; zero for none. Every launch returns its own report, so tail
/// statistics are computed from those.
fn kernel_percentile<'r>(
    reports: impl IntoIterator<Item = &'r ExecutionReport>,
    pct: f64,
) -> Duration {
    let mut kernel: Vec<Duration> = reports.into_iter().map(|r| r.kernel).collect();
    if kernel.is_empty() {
        return Duration::ZERO;
    }
    kernel.sort_unstable();
    let rank = ((pct / 100.0) * kernel.len() as f64).ceil() as usize;
    kernel[rank.clamp(1, kernel.len()) - 1]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    require_jit_host();

    // 1. Build a sparse matrix (a social-network-like RMAT graph) and a
    //    dense feature matrix with 16 columns.
    let a = generate::rmat::<f32>(15, 1_000_000, generate::RmatConfig::GRAPH500, 42);
    let d = 16;
    let x = DenseMatrix::random(a.ncols(), d, 7);
    println!("sparse matrix: {} x {}, {} non-zeros", a.nrows(), a.ncols(), a.nnz());

    // 2. Compile a kernel specialized to this matrix, d, and the host CPU.
    let engine =
        JitSpmmBuilder::new().strategy(Strategy::row_split_dynamic_default()).build(&a, d)?;
    let meta = engine.meta();
    println!(
        "generated {} bytes of {} code in {:?} (register plan: {})",
        meta.code_bytes, meta.isa, meta.codegen_time, meta.register_plan
    );

    // 3. Execute it. Execution dispatches to a persistent worker pool (no
    //    threads are spawned per call) and the output buffer is recycled
    //    across calls, so steady-state latency tracks kernel time.
    let (y, report) = engine.execute(&x)?;
    println!(
        "JIT SpMM: {:?} on {} lanes ({:?} kernel + {:?} pool dispatch)",
        report.elapsed, report.threads, report.kernel, report.dispatch
    );
    drop(y);
    let (y, steady) = engine.execute(&x)?; // reuses the buffer just dropped
    println!("steady-state repeat: {:?} (zero spawns, zero allocations)", steady.elapsed);

    // 4. Cross-check against the reference implementation and time the AOT
    //    baseline for comparison.
    let reference = a.spmm_reference(&x);
    assert!(y.approx_eq(&reference, 1e-4), "JIT result disagrees with the reference");
    println!("result verified against the reference implementation");

    let mut y_aot = DenseMatrix::zeros(a.nrows(), d);
    let start = Instant::now();
    spmm_vectorized(&a, &x, &mut y_aot, Strategy::row_split_dynamic_default(), 0);
    let aot_time = start.elapsed();
    // Compare against the steady-state JIT time: the first call paid the
    // one-time pool wake-up that repeated execution does not.
    println!(
        "auto-vectorized AOT baseline: {:?} ({:.2}x slower than JIT)",
        aot_time,
        aot_time.as_secs_f64() / steady.elapsed.as_secs_f64()
    );

    // 5. Overlap two engines with two open streams: inside a pool scope
    //    (which joins every launch before it returns, so the borrowed inputs
    //    stay safe), each engine's stream pushes its input without waiting;
    //    each launch is lane-capped to its engine's thread count, so both
    //    kernels run concurrently on disjoint subsets of one shared pool
    //    instead of serializing — the shape of a server juggling several
    //    compiled models at once.
    let pool = WorkerPool::new(2);
    let b = generate::rmat::<f32>(13, 250_000, generate::RmatConfig::WEB, 43);
    let xb = DenseMatrix::random(b.ncols(), d, 8);
    let eng_a = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&a, d)?;
    let eng_b = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&b, d)?;
    let start = Instant::now();
    let (ya, report_a, yb, report_b) = pool.scope(|scope| -> Result<_, jitspmm::JitSpmmError> {
        let mut stream_a = eng_a.batch_stream(scope, 1)?;
        let mut stream_b = eng_b.batch_stream(scope, 1)?;
        stream_a.push(&x)?; // returns immediately; job in flight
        stream_b.push(&xb)?; // second job overlaps the first
        let (ya, report_a) = stream_a.finish().pop().expect("one input pushed");
        let (yb, report_b) = stream_b.finish().pop().expect("one input pushed");
        Ok((ya, report_a, yb, report_b))
    })?;
    println!(
        "overlapped engines: both done in {:?} (kernels {:?} + {:?})",
        start.elapsed(),
        report_a.kernel,
        report_b.kernel
    );
    assert!(ya.approx_eq(&reference, 1e-4));
    assert!(yb.approx_eq(&b.spmm_reference(&xb), 1e-4));
    drop((ya, yb));

    // 6. Batched serving: stream many dense inputs through one compiled
    //    kernel with `execute_batch`. The pipeline validates once up front,
    //    keeps the next launch queued while the current one runs (on hosts
    //    with real parallelism), and hands every output back with its own
    //    report — the tail latency (p50/p99) a serving system actually
    //    answers for is computed from those.
    let inputs: Vec<DenseMatrix<f32>> =
        (0..8).map(|seed| DenseMatrix::random(b.ncols(), d, 100 + seed)).collect();
    let batch_engine = JitSpmmBuilder::new().build(&b, d)?;
    let start = Instant::now();
    let outputs = batch_engine.pool().scope(|scope| batch_engine.execute_batch(scope, &inputs))?;
    let elapsed = start.elapsed();
    let reports = || outputs.iter().map(|(_, report)| report);
    println!(
        "batched serving: {} inputs in {:?} ({:.0} inputs/s, kernel p50 {:?} / p99 {:?}, \
         pipeline depth {})",
        outputs.len(),
        elapsed,
        outputs.len() as f64 / elapsed.as_secs_f64(),
        kernel_percentile(reports(), 50.0),
        kernel_percentile(reports(), 99.0),
        jitspmm::DEFAULT_BATCH_DEPTH
    );
    for (x, (y, _)) in inputs.iter().zip(&outputs) {
        assert!(y.approx_eq(&b.spmm_reference(x), 1e-4));
    }
    println!("all {} batched results verified", outputs.len());
    drop(outputs);

    // 7. Mixed-stream serving: route one stream of engine-tagged requests
    //    across several compiled engines sharing a pool. A producer thread
    //    feeds a bounded queue (backpressure, owned inputs — no borrows tie
    //    it to the serving scope); the server validates each request, routes
    //    it to its engine's pipeline on disjoint lane-capped workers, and
    //    hands every response out with its own launch report; per-engine
    //    tails are computed from those, beside whole-server throughput.
    let serve_pool = WorkerPool::new(2);
    let small_a = generate::rmat::<f32>(11, 40_000, generate::RmatConfig::GRAPH500, 44);
    let small_b = generate::uniform::<f32>(1_500, 1_200, 25_000, 45);
    let server = SpmmServer::new(vec![
        JitSpmmBuilder::new().pool(serve_pool.clone()).threads(1).build(&small_a, 16)?,
        JitSpmmBuilder::new().pool(serve_pool.clone()).threads(1).build(&small_b, 8)?,
    ])?;
    let cols = (small_a.ncols(), small_b.ncols());
    let mut responses = Vec::new();
    let (report, sent) = server.serve_controlled(
        ServeOptions::new(AdmissionPolicy::blocking(4)),
        move |sender| {
            let mut sent = 0usize;
            for i in 0..10u64 {
                let engine = (i % 2) as usize;
                let input = if engine == 0 {
                    DenseMatrix::random(cols.0, 16, 200 + i)
                } else {
                    DenseMatrix::random(cols.1, 8, 300 + i)
                };
                if sender.send(engine, input).is_ok() {
                    sent += 1;
                }
            }
            sent
        },
        |response| responses.push(response),
    )?;
    let engine_reports = |engine: usize| {
        responses.iter().filter(move |r| r.engine() == engine).filter_map(|r| r.report())
    };
    println!(
        "mixed serving: {} of {sent} requests over {} engines in {:?} ({:.0} req/s; \
         kernel p99 per engine: {:?} / {:?})",
        report.requests,
        server.engine_count(),
        report.elapsed,
        report.throughput(),
        kernel_percentile(engine_reports(0), 99.0),
        kernel_percentile(engine_reports(1), 99.0),
    );
    let mut next_index = [0usize; 2];
    for r in &responses {
        let m = server.single(r.engine()).expect("both engines are single").matrix();
        assert_eq!(r.output().nrows(), m.nrows());
        // Each engine's responses stream out in its submission order.
        assert_eq!(r.index(), next_index[r.engine()]);
        next_index[r.engine()] += 1;
    }
    println!("all {} routed responses verified for shape and order", responses.len());
    drop(responses);

    // 8. Sharded execution: split a huge matrix into nnz-balanced row
    //    shards, compile one engine per shard — each with a strategy picked
    //    for its *local* sparsity — and execute them as overlapped
    //    lane-capped launches, every shard kernel writing directly into its
    //    row range of one pooled output. Results are bit-identical to the
    //    single-engine path; the plan shows the achieved balance, and the
    //    report is the input's critical path across the shards.
    let shard_pool = WorkerPool::new(2);
    let plan = jitspmm::shard::plan_shards(&a, 2, 1)?;
    println!(
        "shard plan: {} shards, nnz imbalance {:.3}, strategies [{}]",
        plan.len(),
        plan.nnz_imbalance(),
        plan.shards().iter().map(|s| s.strategy.to_string()).collect::<Vec<_>>().join(", ")
    );
    let sharded = jitspmm::shard::ShardedSpmm::compile(&plan, d, shard_pool.clone())?;
    let (y_sharded, shard_report) = shard_pool.scope(|scope| sharded.execute(scope, &x))?;
    println!(
        "sharded SpMM: {:?} across {} shards on {} lanes (critical-path kernel {:?}, {})",
        shard_report.elapsed,
        sharded.shards(),
        shard_report.threads,
        shard_report.kernel,
        shard_report.strategy
    );
    assert!(y_sharded.approx_eq(&reference, 1e-4), "sharded result disagrees with the reference");
    println!("sharded result verified against the reference implementation");

    // 9. Admission under overload: flood the server with far more requests
    //    than its queue admits, under a *shedding* policy — overflow comes
    //    back to the producer immediately as a typed rejection instead of
    //    blocking it. Every admitted request is answered in arrival order
    //    (completed, rejected or failed — never silently dropped), and the
    //    report separates goodput from offered load.
    let options = ServeOptions::new(AdmissionPolicy::shedding(4));
    let cols = (small_a.ncols(), small_b.ncols());
    let (ctrl_report, offered) = server.serve_controlled(
        options,
        move |sender| {
            let mut offered = 0usize;
            for i in 0..40u64 {
                let engine = (i % 2) as usize;
                let input = if engine == 0 {
                    DenseMatrix::random(cols.0, 16, 400 + i)
                } else {
                    DenseMatrix::random(cols.1, 8, 500 + i)
                };
                offered += 1;
                // A shedding queue never blocks: overflow is a typed error.
                let _ = sender.send_request(ServerRequest::new(engine, input));
            }
            offered
        },
        |response| {
            // Completions carry outputs; rejections say exactly why.
            debug_assert!(response.is_completed() || response.rejection().is_some());
        },
    )?;
    println!(
        "controlled serving: {} completed of {offered} offered ({} shed by admission; \
         shed rate {:.0}%)",
        ctrl_report.requests,
        ctrl_report.rejected,
        ctrl_report.shed_rate() * 100.0
    );
    assert_eq!(ctrl_report.offered(), offered, "every offered request is accounted for");

    // 10. Mutate a served matrix live: register a *mutable* engine, serve
    //     requests against it, and apply an edge-delta batch mid-session
    //     through the control handle. The serving loop drains the engine's
    //     in-flight lane, re-merges only the shards the delta touches,
    //     compiles every shard fresh (microseconds each) and swaps
    //     generations between launches, freeing the old one — requests
    //     admitted after the revision bump see the new matrix,
    //     bit-identical to a from-scratch compile.
    let graph = generate::uniform::<f32>(2_000, 2_000, 30_000, 46);
    let update_pool = WorkerPool::new(2);
    let mutable_server: SpmmServer<'_, f32> = SpmmServer::with_pool(update_pool.clone());
    let engine_id =
        mutable_server.add_mutable(MutableSpmm::compile(&graph, 2, 1, 8, update_pool.clone())?)?;
    let control = mutable_server.control();
    let mut delta = DeltaBatch::new();
    for k in 0..64usize {
        delta.upsert(k * 31 % 2_000, k * 17 % 2_000, 0.5 + k as f32 * 0.01);
    }
    let producer_control = control.clone();
    let (update_report, ()) = mutable_server.serve_controlled(
        ServeOptions::new(AdmissionPolicy::blocking(4)),
        move |sender| {
            // A request against the revision-0 matrix...
            let x = DenseMatrix::random(2_000, 8, 600);
            sender.send_request(ServerRequest::new(engine_id, x)).unwrap();
            // ...then the live update: the loop applies it between launches.
            producer_control.apply_update(engine_id, delta);
            assert!(producer_control.wait_revision(engine_id, 1, Duration::from_secs(10)));
            // ...and a request that sees the updated matrix.
            let x = DenseMatrix::random(2_000, 8, 601);
            sender.send_request(ServerRequest::new(engine_id, x)).unwrap();
        },
        |response| assert!(response.is_completed()),
    )?;
    let mutable = mutable_server.mutable(engine_id).expect("registered above");
    println!(
        "live update: {} requests served across revisions 0..={} \
         ({} shards, nnz now {}; updates applied={} failed={})",
        update_report.requests,
        mutable.revision(),
        mutable.shards(),
        mutable.nnz(),
        control.update_counts().0,
        control.update_counts().1,
    );
    assert_eq!(update_report.requests, 2);
    assert_eq!(mutable.revision(), 1);
    Ok(())
}
