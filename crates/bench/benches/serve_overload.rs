//! Serving overload benchmark: flood an [`SpmmServer`] with 10x its
//! admission queue depth under a *shedding* policy and measure what
//! admission control is for — admission latency (how fast a producer learns
//! accept/reject, p50/p99), shed rate, and goodput of the admitted subset.
//!
//! Run with: `cargo bench -p jitspmm-bench --bench serve_overload`
//! (add `-- --quick` for a fast pass). Emits a human-readable table on
//! stdout and machine-readable JSON to `BENCH_serve_overload.json` —
//! including the host core count, so the perf trajectory stays
//! interpretable across hardware changes.

use jitspmm::serve::{AdmissionPolicy, ServeOptions, ServerRequest, SpmmServer};
use jitspmm::{CpuFeatures, JitSpmmBuilder, WorkerPool};
use jitspmm_bench::{emit_bench_json, host_cores, TextTable};
use jitspmm_sparse::{generate, DenseMatrix};
use std::time::{Duration, Instant};

/// Offered load per run, as a multiple of the admission queue depth.
const FLOOD_FACTOR: usize = 10;

/// Nearest-rank percentile over an already-sorted sample.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let index = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[index]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let features = CpuFeatures::detect();
    if !(features.avx && features.has_fma()) {
        eprintln!("serve_overload: host lacks AVX/FMA, skipping");
        return;
    }
    let cores = host_cores();
    let workers = cores.max(2);
    let reps = if quick { 3 } else { 8 };
    let d = 16usize;
    let a = generate::uniform::<f32>(1_200, 1_200, 20_000, 9);
    let pool = WorkerPool::new(workers);
    let engine = JitSpmmBuilder::new()
        .pool(pool.clone())
        .threads(workers.min(4))
        .build(&a, d)
        .expect("JIT compilation failed");
    let server = SpmmServer::new(vec![engine]).expect("engine shares the pool");
    println!(
        "serving overload: shedding admission under a {FLOOD_FACTOR}x flood \
         ({workers} pool workers, {cores} host cores, {reps} reps per cap)\n"
    );

    let mut table = TextTable::new(&[
        "queue cap",
        "offered",
        "admitted(mean)",
        "shed rate",
        "admit p50",
        "admit p99",
        "goodput req/s",
    ]);
    let mut json_rows = Vec::new();

    for cap in [4usize, 16, 64] {
        let total = cap * FLOOD_FACTOR;
        let template: Vec<DenseMatrix<f32>> =
            (0..total).map(|i| DenseMatrix::random(1_200, d, 700 + i as u64)).collect();
        let mut latencies: Vec<Duration> = Vec::with_capacity(total * reps);
        let mut admitted_sum = 0usize;
        let mut shed_rate_sum = 0f64;
        let mut goodput_sum = 0f64;
        for _rep in 0..reps {
            // Requests are materialized before the timed run: the admission
            // numbers measure the send, not input cloning.
            let requests: Vec<ServerRequest<f32>> =
                template.iter().map(|x| ServerRequest::new(0, x.clone())).collect();
            let run_start = Instant::now();
            let (report, sends) = server
                .serve_controlled(
                    ServeOptions::new(AdmissionPolicy::shedding(cap)),
                    move |sender| {
                        let mut sends = Vec::with_capacity(requests.len());
                        for request in requests {
                            let start = Instant::now();
                            let admitted = sender.send_request(request).is_ok();
                            sends.push((start.elapsed(), admitted));
                        }
                        sends
                    },
                    drop,
                )
                .expect("serving failed");
            let elapsed = run_start.elapsed();
            assert_eq!(report.offered(), total, "offered load must add up");
            admitted_sum += report.requests;
            shed_rate_sum += report.shed_rate();
            goodput_sum += report.requests as f64 / elapsed.as_secs_f64();
            latencies.extend(sends.iter().map(|(latency, _)| *latency));
        }
        latencies.sort();
        let p50 = percentile(&latencies, 0.50);
        let p99 = percentile(&latencies, 0.99);
        let admitted_mean = admitted_sum as f64 / reps as f64;
        let shed_rate = shed_rate_sum / reps as f64;
        let goodput = goodput_sum / reps as f64;
        table.row(vec![
            cap.to_string(),
            total.to_string(),
            format!("{admitted_mean:.1}"),
            format!("{:.0}%", shed_rate * 100.0),
            format!("{p50:?}"),
            format!("{p99:?}"),
            format!("{goodput:.0}"),
        ]);
        json_rows.push(format!(
            r#"    {{"queue_cap": {cap}, "offered": {total}, "admitted_mean": {admitted_mean:.2}, "shed_rate_mean": {shed_rate:.4}, "admission_p50_ns": {}, "admission_p99_ns": {}, "goodput_rps_mean": {goodput:.2}}}"#,
            p50.as_nanos(),
            p99.as_nanos(),
        ));
    }

    table.print();
    println!(
        "\n(admission latency is the producer-side cost of learning accept/reject under a \
         shedding policy — it must stay flat as the flood grows; goodput counts only \
         completed requests)"
    );

    let json = format!(
        "{{\n  \"bench\": \"serve_overload\",\n  \"flood_factor\": {FLOOD_FACTOR},\n  \"repetitions\": {reps},\n  \"pool_workers\": {workers},\n  \"host_cores\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n"),
    );
    emit_bench_json("BENCH_serve_overload.json", &json);
}
