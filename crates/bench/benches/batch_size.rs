//! Batched-serving benchmark: `JitSpmm::execute_batch` versus a serial loop
//! of `execute` calls over the same inputs, across batch sizes {1, 4, 32} —
//! the steady-state traffic shape of a server streaming dense right-hand
//! sides through one compiled kernel. Also retains experiment E9, the
//! dynamic row-dispatching claim batch-size ablation (the paper fixes 128;
//! Listing 1 footnote).
//!
//! Run with: `cargo bench -p jitspmm-bench --bench batch_size`
//! (add `-- --quick` for a fast pass). Emits a human-readable table on
//! stdout and machine-readable JSON to `BENCH_batch_throughput.json` —
//! including the host core count, so the perf trajectory stays interpretable
//! across hardware changes.

use jitspmm::{CpuFeatures, ExecutionReport, JitSpmmBuilder, Strategy, DEFAULT_BATCH_DEPTH};
use jitspmm_bench::{
    emit_bench_json, geometric_mean, host_cores, json_stats, measure, measure_interleaved,
    TextTable,
};
use jitspmm_sparse::{generate, CsrMatrix, DenseMatrix};
use std::time::Duration;

const D: usize = 16;
const BATCH_SIZES: [usize; 3] = [1, 4, 32];

struct Workload {
    name: &'static str,
    matrix: CsrMatrix<f32>,
    reps: usize,
}

/// Nearest-rank p50 and p99, in nanoseconds, of one timing field over a
/// batch's per-input reports (1 to 32 samples here, so no reservoir).
fn p50_p99(reports: &[ExecutionReport], field: fn(&ExecutionReport) -> Duration) -> [u128; 2] {
    let mut samples: Vec<Duration> = reports.iter().map(field).collect();
    samples.sort_unstable();
    [50.0, 99.0].map(|pct| {
        let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
        samples[rank.clamp(1, samples.len()) - 1].as_nanos()
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let features = CpuFeatures::detect();
    if !(features.avx && features.has_fma()) {
        eprintln!("batch_size: host lacks AVX/FMA, skipping");
        return;
    }
    let cores = host_cores();
    // At least two lanes, so a launch occupies workers while the submitter
    // pipelines the next one — the configuration batching exists for.
    let lanes = cores.max(2);
    let scale = |reps: usize| if quick { (reps / 5).max(3) } else { reps };
    println!(
        "batched serving: execute_batch vs serial execute loop \
         (d = {D}, {lanes} lanes, {cores} host cores)\n"
    );

    let workloads = vec![
        Workload {
            name: "small-10k",
            matrix: generate::uniform(1_000, 1_000, 10_000, 2),
            reps: scale(60),
        },
        Workload {
            name: "mid-100k",
            matrix: generate::rmat(12, 100_000, generate::RmatConfig::WEB, 3),
            reps: scale(15),
        },
    ];

    let mut table = TextTable::new(&[
        "matrix",
        "batch",
        "serial/batch",
        "batched/batch",
        "speedup(mean)",
        "inputs/s",
        "kernel p50",
        "kernel p99",
    ]);
    let mut json_rows = Vec::new();
    let mut speedups = Vec::new();

    for w in &workloads {
        let engine = JitSpmmBuilder::new()
            .strategy(Strategy::row_split_dynamic_default())
            .threads(lanes)
            .build(&w.matrix, D)
            .expect("JIT compilation failed");
        for batch in BATCH_SIZES {
            let inputs: Vec<DenseMatrix<f32>> = (0..batch)
                .map(|i| DenseMatrix::random(w.matrix.ncols(), D, 100 + i as u64))
                .collect();

            // Correctness first: the batched outputs must agree with the
            // reference on every input.
            let outputs = engine
                .pool()
                .scope(|scope| engine.execute_batch(scope, &inputs))
                .expect("batched launch failed");
            for (x, (y, _)) in inputs.iter().zip(&outputs) {
                assert!(
                    y.approx_eq(&w.matrix.spmm_reference(x), 1e-3),
                    "{}: batched result mismatch",
                    w.name
                );
            }
            drop(outputs);

            let mut last_reports = Vec::new();
            let (serial, batched) = measure_interleaved(
                w.reps,
                || {
                    for x in &inputs {
                        let _ = engine.execute(x).unwrap();
                    }
                },
                || {
                    let outputs =
                        engine.pool().scope(|scope| engine.execute_batch(scope, &inputs)).unwrap();
                    last_reports = outputs.into_iter().map(|(_, report)| report).collect();
                },
            );
            assert_eq!(last_reports.len(), batch, "at least one measured batch ran");
            let [kernel_p50, kernel_p99] = p50_p99(&last_reports, |r| r.kernel);
            let [dispatch_p50, dispatch_p99] = p50_p99(&last_reports, |r| r.dispatch);
            // A single-input batch runs through a depth-1 stream.
            let depth = if batch > 1 { DEFAULT_BATCH_DEPTH } else { 1 };

            let speedup_mean = serial.mean.as_secs_f64() / batched.mean.as_secs_f64();
            speedups.push(speedup_mean);
            let throughput_serial = batch as f64 / serial.mean.as_secs_f64();
            let throughput_batched = batch as f64 / batched.mean.as_secs_f64();

            table.row(vec![
                w.name.to_string(),
                batch.to_string(),
                format!("{:?}", serial.mean),
                format!("{:?}", batched.mean),
                format!("{speedup_mean:.2}x"),
                format!("{throughput_batched:.0}"),
                format!("{:?}", Duration::from_nanos(kernel_p50 as u64)),
                format!("{:?}", Duration::from_nanos(kernel_p99 as u64)),
            ]);
            json_rows.push(format!(
                r#"    {{"matrix": "{}", "nnz": {}, "batch": {}, "depth": {}, "serial": {}, "batched": {}, "speedup_mean": {:.4}, "throughput_serial_mean": {:.2}, "throughput_batched_mean": {:.2}, "kernel_p50_ns": {}, "kernel_p99_ns": {}, "dispatch_p50_ns": {}, "dispatch_p99_ns": {}}}"#,
                w.name,
                w.matrix.nnz(),
                batch,
                depth,
                json_stats(&serial),
                json_stats(&batched),
                speedup_mean,
                throughput_serial,
                throughput_batched,
                kernel_p50,
                kernel_p99,
                dispatch_p50,
                dispatch_p99,
            ));
        }
    }

    table.print();
    let headline = geometric_mean(&speedups);
    println!(
        "\nbatched vs serial speedup (geometric mean over all rows, by batch mean time): \
         {headline:.2}x"
    );
    println!("(acceptance bar: batched throughput >= the serial execute loop, i.e. >= 1.0x)");

    // ---- E9: dynamic claim batch-size ablation ---------------------------
    //
    // Orthogonal to serving batches: the number of *rows* one `lock xadd`
    // claims inside the dynamic kernel. The paper fixes 128; sweeping it on
    // a skewed matrix shows the scheduling-granularity trade-off.
    let ablation_matrix: CsrMatrix<f32> =
        generate::rmat(13, 200_000, generate::RmatConfig::GRAPH500, 13);
    let x = DenseMatrix::random(ablation_matrix.ncols(), D, 17);
    let mut y = DenseMatrix::zeros(ablation_matrix.nrows(), D);
    let mut ablation_rows = Vec::new();
    println!("\ndynamic claim batch-size ablation (E9, {} nnz):", ablation_matrix.nnz());
    for claim_batch in [1usize, 16, 128, 1024] {
        let engine = JitSpmmBuilder::new()
            .strategy(Strategy::RowSplitDynamic { batch: claim_batch })
            .threads(lanes)
            .build(&ablation_matrix, D)
            .expect("JIT compilation failed");
        let stats = measure(scale(15), || {
            engine.execute_into(&x, &mut y).unwrap();
        });
        println!("  claim batch {claim_batch:>4}: best {:?}, mean {:?}", stats.best, stats.mean);
        ablation_rows.push(format!(
            r#"    {{"claim_batch": {claim_batch}, "best_ns": {}, "mean_ns": {}}}"#,
            stats.best.as_nanos(),
            stats.mean.as_nanos()
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"batch_throughput\",\n  \"d\": {D},\n  \"lanes\": {lanes},\n  \"host_cores\": {cores},\n  \"results\": [\n{}\n  ],\n  \"batched_vs_serial_speedup_mean\": {headline:.4},\n  \"claim_batch_ablation\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n"),
        ablation_rows.join(",\n"),
    );
    emit_bench_json("BENCH_batch_throughput.json", &json);
}
