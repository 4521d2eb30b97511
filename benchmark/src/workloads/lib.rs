//! The two in-process workloads: `lib_large` (back-to-back `execute` on the
//! GAP-twitter stand-in, d = 32) and `lib_mid_paced` (`execute` on a uniform
//! 4096x4096 / 100k-nnz matrix, d = 16, the caller spinning 2 ms between
//! calls). Both drive `JitSpmm::execute` on `nproc` lanes with the dynamic
//! row split and check outputs against the oracle.

use super::RunConfig;
use crate::layers::{self, build_engine, execute_loop, oracle_model, PACE};
use crate::metrics::Outcome;
use crate::oracle;
use crate::server::proc_usage;
use crate::stats::{median, quiet_decile, summarize, Quiet};
use crate::trace::Tracer;
use crate::util::{f32_bytes, fnv1a, mix};
use jitspmm::WorkerPool;
use jitspmm_sparse::{datasets, generate, CsrMatrix, DenseMatrix};
use std::time::{Duration, Instant};

/// Dense inputs rotated through the measured loop.
const INPUTS: usize = 4;
/// The measured window is run in this many segments, with a batch of cold
/// set-ups after each, so that set-up time is sampled all through the run
/// and not at one moment of the host's mood.
const SEGMENTS: usize = 12;
/// Cold set-ups per batch; a batch gives its median.
const SETUP_BATCH: usize = 8;
/// Every how many calls the output digest is re-checked inside the window.
const CHECK_EVERY: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Large,
    MidPaced,
}

impl Kind {
    fn d(self) -> usize {
        match self {
            Kind::Large => 32,
            Kind::MidPaced => 16,
        }
    }

    fn pace(self) -> Option<Duration> {
        match self {
            Kind::Large => None,
            Kind::MidPaced => Some(PACE),
        }
    }

    fn matrix(self, seed: u64) -> Result<CsrMatrix<f32>, String> {
        match self {
            Kind::Large => {
                // The Table III recipe for GAP-twitter (65,536 rows, power
                // law with extreme hubs), re-seeded from `--seed`.
                let mut spec = datasets::by_name("GAP-twitter")
                    .ok_or("datasets::by_name has no GAP-twitter stand-in")?;
                spec.seed = mix(seed, 1);
                Ok(spec.generate::<f32>())
            }
            Kind::MidPaced => Ok(generate::uniform::<f32>(4096, 4096, 100_000, mix(seed, 1))),
        }
    }
}

/// Everything a pass needs: the matrix, the dense inputs and, per input, the
/// oracle's answer.
struct Inputs {
    a: CsrMatrix<f32>,
    d: usize,
    xs: Vec<DenseMatrix<f32>>,
    want: Vec<Vec<f32>>,
}

fn inputs(kind: Kind, seed: u64) -> Result<Inputs, String> {
    let a = kind.matrix(seed)?;
    let d = kind.d();
    let xs: Vec<DenseMatrix<f32>> =
        (0..INPUTS).map(|i| DenseMatrix::random(a.ncols(), d, mix(seed, 100 + i as u64))).collect();
    let model = oracle_model(&a);
    let want = xs.iter().map(|x| model.spmm(0, x.as_slice(), d)).collect();
    Ok(Inputs { a, d, xs, want })
}

/// One batch of `setup_s`: a new pool, a plain `build` and the first
/// `execute`, timed cold [`SETUP_BATCH`] times; the batch's median is
/// appended to `batches`. The first output of every rep is checked.
fn setup_batch(
    input: &Inputs,
    nproc: usize,
    batches: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setup_s = Vec::with_capacity(SETUP_BATCH);
    for _ in 0..SETUP_BATCH {
        let start = Instant::now();
        let pool = WorkerPool::new(nproc);
        let engine = build_engine(&input.a, input.d, nproc, &pool)?;
        let (y, _) = engine.execute(&input.xs[0]).map_err(|e| format!("first execute: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        out.attempted += 1;
        out.oracle_checks += 1;
        if !oracle::close(y.as_slice(), &input.want[0]) {
            out.failed += 1;
            out.notes.push("setup: first execute differs from the oracle".to_string());
        }
    }
    batches.push(median(&setup_s));
    Ok(())
}

/// Check every input's output element by element against the oracle and
/// return its digest; later outputs for the same input must be bit-identical.
fn verify_all(
    engine: &jitspmm::JitSpmm<'_, f32>,
    input: &Inputs,
    out: &mut Outcome,
) -> Result<Vec<u64>, String> {
    let mut digests = Vec::with_capacity(input.xs.len());
    for (x, want) in input.xs.iter().zip(&input.want) {
        let (y, _) = engine.execute(x).map_err(|e| format!("execute: {e}"))?;
        out.attempted += 1;
        out.oracle_checks += 1;
        if !oracle::close(y.as_slice(), want) {
            out.failed += 1;
            out.notes.push("execute output differs from the oracle".to_string());
        }
        digests.push(fnv1a(f32_bytes(y.as_slice())));
    }
    Ok(digests)
}

/// The measured loop: `execute` for `seconds` at the workload's pacing, with
/// a digest check of every `CHECK_EVERY`-th output (outside the timed call;
/// under 1% of the loop's time).
fn window(
    kind: Kind,
    engine: &jitspmm::JitSpmm<'_, f32>,
    input: &Inputs,
    digests: &[u64],
    seconds: f64,
    tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<layers::ExecSamples, String> {
    let mut wrong = 0u64;
    let mut calls = 0usize;
    let samples = execute_loop(engine, &input.xs, seconds, kind.pace(), tracer, |which, y| {
        calls += 1;
        if calls.is_multiple_of(CHECK_EVERY) && fnv1a(f32_bytes(y.as_slice())) != digests[which] {
            wrong += 1;
        }
    })?;
    out.attempted += samples.wall_us.len() as u64;
    out.failed += wrong;
    if wrong > 0 {
        out.notes.push(format!("{wrong} outputs changed between identical calls"));
    }
    Ok(samples)
}

/// The untraced pass: the end-to-end metrics.
pub fn run_end_to_end(kind: Kind, config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let input = inputs(kind, config.seed)?;
    let pool = WorkerPool::new(config.nproc);
    let engine = build_engine(&input.a, input.d, config.nproc, &pool)?;
    let digests = verify_all(&engine, &input, &mut out)?;

    let mut setup_batches = Vec::with_capacity(SEGMENTS);
    let mut quiet = Quiet::default();
    let mut usage = None;
    for _ in 0..SEGMENTS {
        let seconds = config.seconds / SEGMENTS as f64;
        let segment = window(kind, &engine, &input, &digests, seconds, None, &mut out)?;
        quiet.add_stretch(&segment.done_s, &segment.wall_us, segment.elapsed_s);
        // The engine lives in this process: its peak resident set is ours.
        // Read once the loop has reached its steady state and before the
        // first set-up adds a second engine's buffers to the peak.
        if usage.is_none() {
            usage = Some(proc_usage(std::process::id()).ok_or("could not read /proc/self")?);
        }
        setup_batch(&input, config.nproc, &mut setup_batches, &mut out)?;
    }
    let usage = usage.expect("at least one segment ran");

    out.push(
        "setup_s",
        quiet_decile(&setup_batches, false).expect("at least one batch"),
        setup_batches.len() * SETUP_BATCH,
    );
    out.push("spmm_us_p50", quiet.p50(), quiet.samples());
    out.push("spmm_us_p90", quiet.p90(), quiet.samples());
    out.push("spmm_per_s", quiet.rate(), quiet.samples());
    out.push_tail("spmm_us_p99", &summarize(quiet.all()));
    out.push("server_rss_mb", usage.rss_peak_mb, 1);
    out.push("fail_share", out.fail_share(), out.attempted as usize);
    Ok(out)
}

/// The traced pass: the main loop in alternating untraced/traced blocks (the
/// difference is the tracing overhead), then the kernel-stack probes.
pub fn run_per_layer(
    kind: Kind,
    config: &RunConfig,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let input = inputs(kind, config.seed)?;
    let pool = WorkerPool::new(config.nproc);
    let engine = build_engine(&input.a, input.d, config.nproc, &pool)?;
    let digests = verify_all(&engine, &input, &mut out)?;

    let blocks = 4;
    let block_s = 0.35 * config.seconds / (2 * blocks) as f64;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..blocks {
        plain.extend(window(kind, &engine, &input, &digests, block_s, None, &mut out)?.wall_us);
        traced.extend(
            window(kind, &engine, &input, &digests, block_s, Some(tracer), &mut out)?.wall_us,
        );
    }
    let (plain_p50, traced_p50) = (median(&plain), median(&traced));
    out.push("trace.overhead_share", (traced_p50 - plain_p50) / plain_p50, traced.len());
    plain.extend_from_slice(&traced);
    let main_loop = summarize(&plain);
    out.push("spmm_us_p99", main_loop.tail, main_loop.n);
    drop(engine);

    layers::kernel_stack(
        &input.a,
        input.d,
        config.nproc,
        kind.pace(),
        0.6 * config.seconds,
        &input.xs,
        &mut out,
        tracer,
    )?;
    out.push("fail_share", out.fail_share(), out.attempted as usize);
    Ok(out)
}
