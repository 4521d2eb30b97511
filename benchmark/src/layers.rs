//! In-process probes behind the per-layer metrics. Each calls a layer's
//! *public* functions directly, on the workload's own matrix and `d`, and
//! records spans around those calls; nothing inside `crates/` is touched.

use crate::metrics::Outcome;
use crate::oracle::{self, MatrixModel};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::util::{micros, spin_for};
use jitspmm::baseline::{mkl_like, scalar, vectorized};
use jitspmm::serve::{AdmissionPolicy, ServeOptions, ServerRequest, SpmmServer};
use jitspmm::shard::{plan_shards, ShardedSpmm};
use jitspmm::{
    profile, ExecutionReport, JitSpmm, JitSpmmBuilder, JobSpec, MutableSpmm, Strategy, WorkerPool,
};
use jitspmm_sparse::{generate, CsrMatrix, DeltaBatch, DenseMatrix};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The pacing of `lib_mid_paced` and of the empty-job probe: the caller's
/// own work between launches, long enough for idle workers to park.
pub const PACE: Duration = Duration::from_millis(2);

pub fn oracle_model(a: &CsrMatrix<f32>) -> MatrixModel {
    MatrixModel::new(a.nrows(), a.ncols(), a.row_ptr(), a.col_indices(), a.values())
}

pub fn build_engine<'a>(
    a: &'a CsrMatrix<f32>,
    d: usize,
    lanes: usize,
    pool: &WorkerPool,
) -> Result<JitSpmm<'a, f32>, String> {
    JitSpmmBuilder::new()
        .strategy(Strategy::row_split_dynamic_default())
        .pool(pool.clone())
        .threads(lanes)
        .build(a, d)
        .map_err(|e| format!("JIT compilation failed: {e}"))
}

/// Per-call samples of a direct `execute` loop.
#[derive(Debug, Default)]
pub struct ExecSamples {
    pub wall_us: Vec<f64>,
    pub kernel_us: Vec<f64>,
    pub dispatch_us: Vec<f64>,
    pub wake_us: Vec<f64>,
    /// When each call returned, seconds after the loop began.
    pub done_s: Vec<f64>,
    /// Loop wall time, pacing included.
    pub elapsed_s: f64,
}

impl ExecSamples {
    fn record(&mut self, wall: Duration, report: &ExecutionReport) {
        self.wall_us.push(micros(wall));
        self.kernel_us.push(micros(report.kernel));
        self.dispatch_us.push(micros(report.dispatch));
        self.wake_us.push(micros(report.wake));
    }
}

/// Record one `execute` call and what its report says happened inside it.
/// The report gives durations, not timestamps: the wake span is anchored at
/// the call's start (it is measured from the enqueue) and the kernel span at
/// its end (the call returns when the last lane joins).
pub fn trace_execute(
    tracer: &mut Tracer,
    start: Instant,
    end: Instant,
    report: &ExecutionReport,
    request: u64,
) {
    let root = tracer.record("engine.execute", start, end, None, request);
    let (start_ns, end_ns) = (tracer.ns(start), tracer.ns(end));
    tracer.record_ns(
        "runtime.wake",
        start_ns,
        start_ns + report.wake.as_nanos() as u64,
        root,
        request,
    );
    let kernel_ns = report.kernel.as_nanos() as u64;
    tracer.record_ns("engine.kernel", end_ns.saturating_sub(kernel_ns), end_ns, root, request);
}

/// Spans are kept for this many calls of one loop; a tiny kernel runs a
/// hundred thousand times in a window and every call looks the same.
const TRACED_CALLS: usize = 2_000;

/// Call `engine.execute` over `inputs` round-robin for `seconds`, optionally
/// spinning `pace` before each call, optionally tracing.
pub fn execute_loop(
    engine: &JitSpmm<'_, f32>,
    inputs: &[DenseMatrix<f32>],
    seconds: f64,
    pace: Option<Duration>,
    mut tracer: Option<&mut Tracer>,
    mut after_call: impl FnMut(usize, &DenseMatrix<f32>),
) -> Result<ExecSamples, String> {
    let mut samples = ExecSamples::default();
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs_f64(seconds);
    let mut call = 0usize;
    while Instant::now() < deadline {
        if let Some(pace) = pace {
            spin_for(pace);
        }
        let which = call % inputs.len();
        let start = Instant::now();
        let (y, report) = engine.execute(&inputs[which]).map_err(|e| format!("execute: {e}"))?;
        let end = Instant::now();
        samples.record(end - start, &report);
        samples.done_s.push((end - begin).as_secs_f64());
        if let Some(tracer) = tracer.as_deref_mut().filter(|_| call < TRACED_CALLS) {
            trace_execute(tracer, start, end, &report, call as u64);
        }
        after_call(which, &y);
        drop(y);
        call += 1;
    }
    samples.elapsed_s = begin.elapsed().as_secs_f64();
    Ok(samples)
}

/// Time `f` repeatedly for `seconds` (at least `min_reps` times) and return
/// the per-call microseconds.
fn time_reps(seconds: f64, min_reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    while samples.len() < min_reps || Instant::now() < deadline {
        let start = Instant::now();
        f();
        samples.push(micros(start.elapsed()));
    }
    samples
}

/// The kernel stack's per-layer metrics on matrix `a` at `d` dense columns:
/// engine, runtime, codegen, profile, baseline, paper ratios and computed
/// rates. `inputs` are rotated through as the workload's own loop does, and
/// `pace` is the workload's own pacing (only `lib_mid_paced` has one).
/// Takes about `seconds` in total.
#[allow(clippy::too_many_arguments)]
pub fn kernel_stack(
    a: &CsrMatrix<f32>,
    d: usize,
    nproc: usize,
    pace: Option<Duration>,
    seconds: f64,
    inputs: &[DenseMatrix<f32>],
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let pool = WorkerPool::new(nproc);
    let engine = build_engine(a, d, nproc, &pool)?;
    let x = &inputs[0];

    // One oracle check before anything is timed.
    let want = oracle_model(a).spmm(0, x.as_slice(), d);
    let (y, _) = engine.execute(x).map_err(|e| format!("execute: {e}"))?;
    out.attempted += 1;
    out.oracle_checks += 1;
    if !oracle::close(y.as_slice(), &want) {
        out.failed += 1;
        out.notes.push("kernel_stack: JIT output differs from the oracle".to_string());
    }
    drop(y);

    // engine + runtime: the direct execute loop at the workload's pacing.
    let exec = execute_loop(&engine, inputs, 0.25 * seconds, pace, Some(tracer), |_, _| {})?;
    out.attempted += exec.wall_us.len() as u64;
    let wall = summarize(&exec.wall_us);
    let kernel_p50 = median(&exec.kernel_us);
    let wake = summarize(&exec.wake_us);
    out.push("engine.execute_us_p50", wall.p50, wall.n);
    out.push("engine.kernel_us_p50", kernel_p50, wall.n);
    out.push("engine.dispatch_us_p50", median(&exec.dispatch_us), wall.n);
    out.push("runtime.wake_us_p50", wake.p50, wake.n);
    out.push("runtime.wake_us_p99", wake.tail, wake.n);

    // runtime.lane_speedup: 1-lane p50 over nproc-lane p50 at the workload's
    // pacing, in interleaved blocks so drift lands on both.
    let single = build_engine(a, d, 1, &pool)?;
    let (mut one, mut many) = (Vec::new(), Vec::new());
    let blocks = 6;
    for _ in 0..blocks {
        let block = 0.2 * seconds / (2 * blocks) as f64;
        one.extend(execute_loop(&single, inputs, block, pace, None, |_, _| {})?.wall_us);
        many.extend(execute_loop(&engine, inputs, block, pace, None, |_, _| {})?.wall_us);
    }
    out.push("runtime.lane_speedup", median(&one) / median(&many), one.len().min(many.len()));

    // runtime.pool_run: an empty two-task job after the caller's own work,
    // i.e. the bare cost of getting a parked worker onto a job and back.
    let nothing = |_lane: usize| {};
    let deadline = Instant::now() + Duration::from_secs_f64(0.15 * seconds);
    let mut pool_run = Vec::new();
    while Instant::now() < deadline {
        spin_for(PACE);
        let start = Instant::now();
        pool.run_spec(JobSpec::new(2), &nothing);
        let end = Instant::now();
        pool_run.push(micros(end - start));
        tracer.record("runtime.pool_run", start, end, None, pool_run.len() as u64);
    }
    out.push("runtime.pool_run_us_p50", median(&pool_run), pool_run.len());

    // codegen: up to 2,000 plain builds of this matrix at this d.
    let deadline = Instant::now() + Duration::from_secs_f64(0.1 * seconds);
    let (mut build_us, mut codegen_us, mut code_bytes) = (Vec::new(), Vec::new(), 0usize);
    while build_us.len() < 2000 && (build_us.len() < 20 || Instant::now() < deadline) {
        let start = Instant::now();
        let built = build_engine(a, d, nproc, &pool)?;
        let end = Instant::now();
        build_us.push(micros(end - start));
        let meta = built.meta();
        codegen_us.push(micros(meta.codegen_time));
        code_bytes = meta.code_bytes;
        tracer.record("codegen.build", start, end, None, build_us.len() as u64);
    }
    let codegen_p50 = median(&codegen_us);
    out.push("codegen.build_us_p50", median(&build_us), build_us.len());
    out.push("codegen.codegen_us_p50", codegen_p50, codegen_us.len());
    out.push("codegen.code_bytes", code_bytes as f64, 1);

    // profile: exact event counts of the generated code on a fixed small
    // matrix at this d, under the instruction-level emulator.
    let fixed = generate::uniform::<f32>(256, 256, 2_000, 1);
    let fixed_engine = build_engine(&fixed, d, 1, &pool)?;
    let fixed_x = DenseMatrix::<f32>::random(fixed.ncols(), d, 2);
    let mut fixed_y = DenseMatrix::<f32>::zeros(fixed.nrows(), d);
    let counts = profile::measure_jit_emulated(&fixed_engine, &fixed_x, &mut fixed_y)
        .map_err(|e| format!("emulation: {e}"))?;
    out.push("profile.emu_instructions", counts.instructions as f64, 1);
    out.push("profile.emu_loads", counts.memory_loads as f64, 1);
    out.push("profile.emu_branches", counts.branches as f64, 1);

    // baseline: the paper's comparison points on the same input, each back
    // to back, with the JIT engine timed the same way beside them.
    let mut y = DenseMatrix::<f32>::zeros(a.nrows(), d);
    let slot = 0.06 * seconds;
    let scalar_us = time_reps(slot, 3, || scalar::spmm_scalar_unchecked(a, x, &mut y));
    let strategy = Strategy::row_split_dynamic_default();
    let vectorized_us =
        time_reps(slot, 3, || vectorized::spmm_vectorized_on(&pool, a, x, &mut y, strategy, nproc));
    let mkl_us = time_reps(slot, 3, || mkl_like::spmm_mkl_like_f32_on(&pool, a, x, &mut y, nproc));
    let jit_us = time_reps(slot, 3, || drop(engine.execute(x)));
    out.push("baseline.scalar_us_p50", median(&scalar_us), scalar_us.len());
    out.push("baseline.vectorized_us_p50", median(&vectorized_us), vectorized_us.len());
    out.push("baseline.mkl_like_us_p50", median(&mkl_us), mkl_us.len());

    // paper: Fig. 9, Fig. 10 and Table IV; each ratio's base is the JIT's
    // back-to-back execute p50 measured beside the baselines.
    let jit_p50 = median(&jit_us);
    out.push("paper.jit_over_vectorized", median(&vectorized_us) / jit_p50, jit_us.len());
    out.push("paper.jit_over_mkl_like", median(&mkl_us) / jit_p50, jit_us.len());
    out.push("paper.codegen_share", codegen_p50 / jit_p50, codegen_us.len());

    // kernel: rates computed from nnz, d and array sizes over the kernel p50
    // (X counted once, as if it stayed in cache; no bandwidth ratio claimed).
    let flops = 2.0 * a.nnz() as f64 * d as f64;
    let bytes = a.nnz() as f64 * 8.0
        + (a.nrows() + 1) as f64 * 8.0
        + (a.ncols() * d) as f64 * 4.0
        + (a.nrows() * d) as f64 * 4.0;
    let kernel_s = kernel_p50 / 1e6;
    out.push("kernel.computed_gflops", flops / kernel_s / 1e9, wall.n);
    out.push("kernel.computed_gbytes_per_s", bytes / kernel_s / 1e9, wall.n);
    Ok(())
}

/// Closed-loop samples of the in-process serving loop.
#[derive(Debug, Default)]
pub struct InprocSamples {
    pub input_gen_us: Vec<f64>,
    pub send_us: Vec<f64>,
    pub latency_us: Vec<f64>,
    pub not_completed: u64,
}

/// Drive `server.serve_controlled` the way `jitspmm-serve` does — one
/// producer thread, one request in flight, shedding admission at depth 64 —
/// for `seconds`, drawing `(engine, input seed)` from `next` and the input
/// shape from `shapes[engine] = (ncols, d)`. Latency runs from the send to
/// the consumer callback.
pub fn serve_inproc(
    server: &SpmmServer<'_, f32>,
    shapes: &[(usize, usize)],
    mut next: impl FnMut() -> (usize, u64) + Send,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<InprocSamples, String> {
    let (tx, rx) = mpsc::channel::<(Instant, bool)>();
    let epoch = tracer.epoch();
    let options = ServeOptions::new(AdmissionPolicy::shedding(64));
    let (_report, (samples, spans)) = server
        .serve_controlled(
            options,
            move |sender| {
                let mut samples = InprocSamples::default();
                let mut spans = Tracer::new(epoch);
                let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                let mut request = 0u64;
                while Instant::now() < deadline {
                    let (engine, seed) = next();
                    let (ncols, d) = shapes[engine];
                    let gen_start = Instant::now();
                    let input = DenseMatrix::<f32>::random(ncols, d, seed);
                    let send_start = Instant::now();
                    let verdict = sender.send_request(ServerRequest::new(engine, input));
                    let sent = Instant::now();
                    samples.input_gen_us.push(micros(send_start - gen_start));
                    samples.send_us.push(micros(sent - send_start));
                    if verdict.is_err() {
                        samples.not_completed += 1;
                        continue;
                    }
                    let Ok((answered, completed)) = rx.recv() else { break };
                    if !completed {
                        samples.not_completed += 1;
                    }
                    samples.latency_us.push(micros(answered - send_start));
                    spans.record("wire.input_gen", gen_start, send_start, None, request);
                    let root = spans.record("serve.request", send_start, answered, None, request);
                    spans.record("serve.send", send_start, sent, root, request);
                    request += 1;
                }
                (samples, spans)
            },
            |response| {
                let _ = tx.send((Instant::now(), response.is_completed()));
            },
        )
        .map_err(|e| format!("serve_controlled: {e}"))?;
    tracer.merge(spans);
    Ok(samples)
}

/// Per-layer metrics of sharding and live updates on `a` (the
/// `serve_update_mix` engine's matrix): the sharded engine against the plain
/// one, and the incremental `MutableSpmm::apply` against the whole-matrix
/// merge and against the simplest baseline, a full re-plan and recompile.
/// `deltas` is the same stream the TCP connection sends.
#[allow(clippy::too_many_arguments)]
pub fn shard_and_update(
    a: &CsrMatrix<f32>,
    d: usize,
    shards: usize,
    nproc: usize,
    deltas: &[Vec<oracle::Op>],
    seconds: f64,
    seed: u64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let pool = WorkerPool::new(nproc);
    let x = DenseMatrix::<f32>::random(a.ncols(), d, seed);

    // shard: the same matrix behind K shard engines and behind one engine.
    let lanes = (nproc / shards).max(1);
    let plan = plan_shards(a, shards, lanes).map_err(|e| format!("plan_shards: {e}"))?;
    let sharded =
        ShardedSpmm::compile(&plan, d, pool.clone()).map_err(|e| format!("shard compile: {e}"))?;
    let plain = build_engine(a, d, nproc, &pool)?;
    let (mut sharded_us, mut plain_us) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(0.4 * seconds);
    while Instant::now() < deadline {
        for _ in 0..8 {
            let start = Instant::now();
            let result = pool.scope(|scope| sharded.execute(scope, &x).map(drop));
            let end = Instant::now();
            result.map_err(|e| format!("sharded execute: {e}"))?;
            sharded_us.push(micros(end - start));
            tracer.record("shard.execute", start, end, None, sharded_us.len() as u64);
        }
        for _ in 0..8 {
            let start = Instant::now();
            plain.execute(&x).map(drop).map_err(|e| format!("execute: {e}"))?;
            plain_us.push(micros(start.elapsed()));
        }
    }
    let (sharded_p50, plain_p50) = (median(&sharded_us), median(&plain_us));
    out.push("shard.execute_us_p50", sharded_p50, sharded_us.len());
    out.push("shard.unsharded_us_p50", plain_p50, plain_us.len());
    out.push("shard.speedup_vs_unsharded", plain_p50 / sharded_p50, sharded_us.len());
    drop(sharded);

    // update: replay the delta stream through the three ways to absorb it.
    let batches: Vec<DeltaBatch<f32>> = deltas
        .iter()
        .map(|ops| {
            let mut batch = DeltaBatch::new();
            for op in ops {
                match *op {
                    oracle::Op::Upsert { row, col, value } => {
                        batch.upsert(row, col as usize, value)
                    }
                    oracle::Op::Delete { row, col } => batch.delete(row, col as usize),
                };
            }
            batch
        })
        .collect();
    if batches.is_empty() {
        return Err("shard_and_update needs at least one delta".to_string());
    }
    let mutable = MutableSpmm::compile(a, shards, lanes, d, pool.clone())
        .map_err(|e| format!("mutable compile: {e}"))?;
    let (mut apply_us, mut merge_us, mut rebuild_us) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(0.5 * seconds);
    let mut merged = a.clone();
    for (i, batch) in batches.iter().enumerate() {
        if i >= 8 && Instant::now() > deadline {
            break;
        }
        let start = Instant::now();
        mutable.apply(batch).map_err(|e| format!("apply: {e}"))?;
        let end = Instant::now();
        apply_us.push(micros(end - start));
        tracer.record("update.apply", start, end, None, i as u64);

        let start = Instant::now();
        let next = merged.apply_delta(batch).map_err(|e| format!("apply_delta: {e}"))?;
        let end = Instant::now();
        merge_us.push(micros(end - start));
        tracer.record("sparse.apply_delta", start, end, None, i as u64);
        merged = next;

        let start = Instant::now();
        let replanned = plan_shards(&merged, shards, lanes).map_err(|e| format!("re-plan: {e}"))?;
        drop(
            ShardedSpmm::compile(&replanned, d, pool.clone())
                .map_err(|e| format!("recompile: {e}"))?,
        );
        let end = Instant::now();
        rebuild_us.push(micros(end - start));
        tracer.record("update.full_rebuild", start, end, None, i as u64);
    }
    out.push("update.apply_us_p50", median(&apply_us), apply_us.len());
    out.push("sparse.apply_delta_us_p50", median(&merge_us), merge_us.len());
    out.push("update.full_rebuild_us_p50", median(&rebuild_us), rebuild_us.len());
    out.push("update.generations_retained", mutable.generations_retained() as f64, apply_us.len());

    // The incrementally updated engine must agree with the oracle's model of
    // the same ops, applied in order.
    let mut model = oracle_model(a);
    for ops in &deltas[..apply_us.len()] {
        model.apply(ops);
    }
    let want = model.spmm(model.revision(), x.as_slice(), d);
    let (y, _) =
        pool.scope(|scope| mutable.execute(scope, &x)).map_err(|e| format!("execute: {e}"))?;
    out.attempted += 1;
    out.oracle_checks += 1;
    if !oracle::close(y.as_slice(), &want) {
        out.failed += 1;
        out.notes.push("shard_and_update: updated engine differs from the oracle".to_string());
    }
    Ok(())
}
