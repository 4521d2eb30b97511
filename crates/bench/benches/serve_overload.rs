//! Serving overload benchmark: flood an [`SpmmServer`] with 10x its
//! per-engine in-flight cap — that many sender threads, each sending one
//! request at once — under a *shedding* policy, and measure what admission
//! control is for: admission latency (how fast a shed sender learns its
//! rejection, p50/p99), shed rate, and goodput of the admitted subset.
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
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Concurrent senders per run, as a multiple of the in-flight cap.
const FLOOD_FACTOR: usize = 10;

/// Stack size of each sender thread: a send needs little, and a flood at
/// the largest cap starts hundreds of them.
const SENDER_STACK: usize = 256 << 10;

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
    // Dense enough that one request runs for longer than a scheduler slice,
    // so the senders overlap even on a two-core host; small enough in rows
    // and columns that the flood's inputs and outputs stay small.
    let a = generate::uniform::<f32>(4_000, 1_200, 3_000_000, 9);
    let pool = WorkerPool::new(workers);
    let engine = JitSpmmBuilder::new()
        .pool(pool.clone())
        .threads(workers.min(4))
        .build(&a, d)
        .expect("JIT compilation failed");
    let server = SpmmServer::new(vec![engine]).expect("engine shares the pool");
    println!(
        "serving overload: shedding admission under {FLOOD_FACTOR}x the cap in concurrent \
         senders ({workers} pool workers, {cores} host cores, {reps} reps per cap)\n"
    );

    let mut table = TextTable::new(&[
        "in-flight cap",
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
            // Requests are materialized before the timed run, and every
            // sender waits at the barrier: the admission numbers measure the
            // send, not input cloning or thread start-up.
            let requests: Vec<ServerRequest<f32>> =
                template.iter().map(|x| ServerRequest::new(0, x.clone())).collect();
            let start = Barrier::new(total);
            let shed = Mutex::new(Vec::with_capacity(total));
            let run_start = Instant::now();
            let (report, ()) = server
                .serve_controlled(
                    ServeOptions::new(AdmissionPolicy::shedding(cap)),
                    |sender| {
                        std::thread::scope(|senders| {
                            for request in requests {
                                let (sender, start, shed) = (&sender, &start, &shed);
                                std::thread::Builder::new()
                                    .stack_size(SENDER_STACK)
                                    .spawn_scoped(senders, move || {
                                        start.wait();
                                        let sent = Instant::now();
                                        if sender.send_request(request).is_err() {
                                            shed.lock().unwrap().push(sent.elapsed());
                                        }
                                    })
                                    .expect("spawn a sender thread");
                            }
                        });
                    },
                    drop,
                )
                .expect("serving failed");
            let elapsed = run_start.elapsed();
            assert_eq!(report.offered(), total, "offered load must add up");
            admitted_sum += report.requests;
            shed_rate_sum += report.shed_rate();
            goodput_sum += report.requests as f64 / elapsed.as_secs_f64();
            latencies.extend(shed.into_inner().unwrap());
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
        "\n(admission latency is what a shed sender waits to learn its rejection under a \
         shedding policy — it must stay flat as the flood grows; goodput counts only \
         completed requests)"
    );

    let json = format!(
        "{{\n  \"bench\": \"serve_overload\",\n  \"flood_factor\": {FLOOD_FACTOR},\n  \"repetitions\": {reps},\n  \"pool_workers\": {workers},\n  \"host_cores\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n"),
    );
    emit_bench_json("BENCH_serve_overload.json", &json);
}
