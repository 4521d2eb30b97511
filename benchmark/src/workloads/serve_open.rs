//! `serve_open`: `jitspmm-serve --threads nproc` over loopback with two tiny
//! engines (`uniform:512,512,4000,S,8`). Phase A is a closed loop on `nproc`
//! connections; phase B is an open-loop ladder of evenly spaced arrivals at
//! 250 … 4000 req/s, latency timed from each request's due time, stopping
//! at the first rung that misses the limit. The kernel is ~0.3% of a round
//! trip here: `serve` and `wire` do the work.

use super::wire::{self, Checker, Counts, EngineShape, Verdict};
use super::RunConfig;
use crate::layers;
use crate::metrics::{Outcome, LADDER_RATES};
use crate::openloop::{self, Rung, Sample};
use crate::oracle::MatrixModel;
use crate::server::{self, Conn, ServerProc};
use crate::stats::{median, summarize, Quiet};
use crate::trace::Tracer;
use crate::util::{mix, Rng};
use jitspmm::serve::SpmmServer;
use jitspmm::WorkerPool;
use jitspmm_sparse::{generate, CsrMatrix};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SHAPE: EngineShape = EngineShape { rows: 512, cols: 512, d: 8 };
const NNZ: usize = 4_000;
const ENGINES: usize = 2;
/// Distinct dense inputs per engine; requests draw from them by seed.
const INPUT_SEEDS: usize = 64;

/// Shares of the measured window. The 250 req/s rung feeds the end-to-end
/// latency metrics, so it gets enough time for a real p99.
const CLOSED_SHARE: f64 = 0.2;
const FIRST_RUNG_SHARE: f64 = 0.3;
const LATER_RUNG_SHARE: f64 = 0.125;

struct Fixture {
    matrix_seeds: [u64; ENGINES],
    matrices: Vec<CsrMatrix<f32>>,
    models: Vec<MatrixModel>,
    shapes: [EngineShape; ENGINES],
    input_seeds: Vec<Vec<u64>>,
}

impl Fixture {
    fn new(seed: u64) -> Fixture {
        // The server parses matrix seeds as decimal u64; keep them short.
        let matrix_seeds = [mix(seed, 1) >> 32, mix(seed, 2) >> 32];
        let matrices: Vec<CsrMatrix<f32>> = matrix_seeds
            .iter()
            .map(|&s| generate::uniform::<f32>(SHAPE.rows, SHAPE.cols, NNZ, s))
            .collect();
        let models = matrices.iter().map(layers::oracle_model).collect();
        let input_seeds = (0..ENGINES)
            .map(|e| {
                (0..INPUT_SEEDS).map(|i| mix(seed, 1000 * (e as u64 + 1) + i as u64)).collect()
            })
            .collect();
        Fixture { matrix_seeds, matrices, models, shapes: [SHAPE; ENGINES], input_seeds }
    }

    fn server_args(&self, nproc: usize) -> Vec<String> {
        let mut args = vec!["--threads".to_string(), nproc.to_string()];
        for seed in self.matrix_seeds {
            args.push("--matrix".to_string());
            args.push(format!("uniform:{},{},{NNZ},{seed},{}", SHAPE.rows, SHAPE.cols, SHAPE.d));
        }
        args
    }

    /// The next request of a seeded stream: which engine, which input.
    fn draw(&self, rng: &mut Rng) -> (u32, u64) {
        let engine = rng.below(ENGINES);
        (engine as u32, self.input_seeds[engine][rng.below(INPUT_SEEDS)])
    }

    fn checker(&self) -> Checker<'_> {
        Checker::new(&self.models, &self.shapes)
    }
}

/// Phase A: one closed loop per connection, all at once.
struct Closed {
    /// Every connection's replies together, in completion order: latency,
    /// and seconds after the phase began.
    latency_us: Vec<f64>,
    done_s: Vec<f64>,
    counts: Counts,
    /// The phase's length as asked for: every connection runs this long.
    seconds: f64,
}

impl Closed {
    /// Completed MULs per second over the whole phase.
    fn throughput(&self) -> f64 {
        self.counts.ok as f64 / self.seconds
    }
}

fn closed_phase(
    server: &ServerProc,
    fixture: &Fixture,
    connections: usize,
    seconds: f64,
    stream_seed: u64,
    mut tracer: Option<&mut Tracer>,
    notes: &mut Vec<String>,
) -> Result<Closed, String> {
    let mut conns =
        (0..connections).map(|_| server.connect_ready()).collect::<Result<Vec<Conn>, _>>()?;
    let epoch = tracer.as_deref().map(Tracer::epoch);
    let origin = Instant::now();
    let results: Vec<wire::LoopResult> = std::thread::scope(|threads| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                threads.spawn(move || {
                    let mut rng = Rng::new(mix(stream_seed, i as u64));
                    let mut checker = fixture.checker();
                    let mut result = wire::closed_loop(
                        conn,
                        origin,
                        seconds,
                        epoch,
                        || fixture.draw(&mut rng),
                        |engine, seed, reply| checker.check(engine, seed, reply),
                    );
                    result.counts.oracle_checks = checker.oracle_checks;
                    result
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut counts = Counts::default();
    let mut replies: Vec<(f64, f64)> = Vec::new();
    for result in results {
        replies.extend(result.done_s.iter().copied().zip(result.latency_us.iter().copied()));
        counts.merge(result.counts);
        notes.extend(result.notes);
        if let (Some(tracer), Some(spans)) = (tracer.as_deref_mut(), result.spans) {
            tracer.merge(spans);
        }
    }
    replies.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("times are never NaN"));
    let (done_s, latency_us) = replies.into_iter().unzip();
    Ok(Closed { latency_us, done_s, counts, seconds })
}

/// One rung of phase B and everything it observed.
struct RungRun {
    rung: Rung,
    samples: Vec<Sample>,
    counts: Counts,
}

/// Offer `rate` req/s for `seconds` on one connection: this thread sends
/// each request when it is due (never waiting for replies), a reader thread
/// collects replies in order. Every offered request is drained before the
/// rung ends, so the server's count and ours stay equal.
fn run_rung(
    server: &ServerProc,
    fixture: &Fixture,
    rate: u32,
    seconds: f64,
    rng: &mut Rng,
    tracer: Option<&mut Tracer>,
    notes: &mut Vec<String>,
) -> Result<RungRun, String> {
    let mut writer = server.connect_ready()?;
    let mut reader = writer.try_clone().map_err(|e| format!("clone connection: {e}"))?;
    let offered = openloop::rung_requests(rate, seconds);
    let received = AtomicU64::new(0);
    // (request index, engine, input seed, due) in send order; the server
    // answers one connection's requests in order, so this is reply order too.
    let (tx, rx) = mpsc::channel::<(u64, u32, u64, u64)>();
    let start = Instant::now();
    let ns = |at: Instant| at.duration_since(start).as_nanos() as u64;

    let (sent_ns, outstanding, done, counts, reader_notes) = std::thread::scope(|threads| {
        let received = &received;
        let collector = threads.spawn(move || {
            let mut checker = fixture.checker();
            let mut counts = Counts::default();
            let mut done: Vec<(u64, u64)> = Vec::with_capacity(offered as usize);
            let mut notes = Vec::new();
            let mut reply = Vec::new();
            for (k, engine, seed, _due) in rx {
                if let Err(e) = reader.recv(&mut reply) {
                    counts.errors += 1;
                    notes.push(format!("open-loop reply {k}: {e}"));
                    break;
                }
                done.push((k, ns(Instant::now())));
                received.fetch_add(1, Ordering::Relaxed);
                let verdict = checker.check(engine, seed, &reply);
                if let Verdict::Wrong(text) | Verdict::Refused(text) = &verdict {
                    if notes.len() < 4 {
                        notes.push(text.clone());
                    }
                }
                counts.absorb(&verdict);
            }
            counts.oracle_checks = checker.oracle_checks;
            (done, counts, notes)
        });

        let mut sent_ns = Vec::with_capacity(offered as usize);
        let mut outstanding = Vec::with_capacity(offered as usize);
        for k in 0..offered {
            let due = openloop::due_ns(k, rate);
            let now = ns(Instant::now());
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let (engine, seed) = fixture.draw(rng);
            if tx.send((k, engine, seed, due)).is_err() {
                break; // the reader gave up on a broken connection
            }
            if writer.send(&server::mul_frame(engine, seed)).is_err() {
                break;
            }
            sent_ns.push(ns(Instant::now()));
            outstanding.push((k + 1 - received.load(Ordering::Relaxed)) as f64);
        }
        drop(tx);
        let (done, counts, reader_notes) = collector.join().expect("reader thread panicked");
        (sent_ns, outstanding, done, counts, reader_notes)
    });
    notes.extend(reader_notes);

    let mut counts = counts;
    // Requests never sent or never answered missed every limit.
    counts.errors += offered - counts.attempted().min(offered);
    let samples: Vec<Sample> = done
        .iter()
        .map(|&(k, done_ns)| Sample {
            due_ns: openloop::due_ns(k, rate),
            sent_ns: sent_ns[k as usize],
            done_ns,
        })
        .collect();
    if let Some(tracer) = tracer {
        let base = tracer.ns(start);
        for (sample, &(k, _)) in samples.iter().zip(&done) {
            let (due, sent, end) =
                (base + sample.due_ns, base + sample.sent_ns, base + sample.done_ns);
            let root = tracer.record_ns("wire.request", due, end, None, k);
            tracer.record_ns("gen.late", due, sent, root, k);
            tracer.record_ns("wire.wait_read", sent.max(due), end, root, k);
        }
    }
    let quarter = (outstanding.len() / 4).max(1);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let growing = openloop::backlog_growing(
        mean(&outstanding[..quarter.min(outstanding.len())]),
        mean(&outstanding[outstanding.len().saturating_sub(quarter)..]),
    );
    Ok(RungRun { rung: Rung::new(rate, &samples, counts.failures(), growing), samples, counts })
}

/// Phase B: climb the ladder until a rung misses the limit. `after_rung`
/// runs once each rung has drained.
#[allow(clippy::too_many_arguments)]
fn ladder(
    server: &ServerProc,
    fixture: &Fixture,
    first_seconds: f64,
    later_seconds: f64,
    stream_seed: u64,
    mut tracer: Option<&mut Tracer>,
    notes: &mut Vec<String>,
    mut after_rung: impl FnMut(&mut Vec<String>) -> Result<(), String>,
) -> Result<Vec<RungRun>, String> {
    let mut rng = Rng::new(stream_seed);
    let mut runs = Vec::new();
    for (i, &rate) in LADDER_RATES.iter().enumerate() {
        let seconds = if i == 0 { first_seconds } else { later_seconds };
        let run = run_rung(server, fixture, rate, seconds, &mut rng, tracer.as_deref_mut(), notes)?;
        let ok = run.rung.ok();
        runs.push(run);
        after_rung(notes)?;
        if !ok {
            break;
        }
    }
    Ok(runs)
}

fn finish(
    server: ServerProc,
    control: Conn,
    counts: &Counts,
    out: &mut Outcome,
) -> Result<(), String> {
    let done = server.shutdown(control)?;
    if !wire::reconcile(&done, counts, &mut out.notes) {
        out.failed += 1;
    }
    Ok(())
}

fn absorb(out: &mut Outcome, counts: &Counts) {
    out.attempted += counts.attempted();
    out.failed += counts.failures();
    out.oracle_checks += counts.oracle_checks;
}

/// Servers spawned per batch of `setup_s`; there is a batch before phase A
/// and one after phase A and after every rung.
const SETUP_SPAWNS: usize = 3;

/// The untraced pass: the end-to-end metrics.
pub fn run_end_to_end(config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fixture = Fixture::new(config.seed);
    let binary = config.serve_binary()?;
    let args = fixture.server_args(config.nproc);

    let mut setup_checker = fixture.checker();
    let mut setup = wire::SetupProbe::new(
        binary,
        &args,
        (0, fixture.input_seeds[0][0]),
        SETUP_SPAWNS,
        |engine, seed, reply| setup_checker.check(engine, seed, reply),
    );
    setup.batch(&mut out.notes)?;

    let mut server = ServerProc::spawn(binary, &args)?;
    let control = server.wait_ready()?;
    let mut counts = Counts::default();

    let closed = closed_phase(
        &server,
        &fixture,
        config.nproc,
        CLOSED_SHARE * config.seconds,
        mix(config.seed, 200),
        None,
        &mut out.notes,
    )?;
    counts.merge(closed.counts);
    setup.batch(&mut out.notes)?;

    let runs = ladder(
        &server,
        &fixture,
        FIRST_RUNG_SHARE * config.seconds,
        LATER_RUNG_SHARE * config.seconds,
        mix(config.seed, 300),
        None,
        &mut out.notes,
        |notes| setup.batch(notes),
    )?;
    for run in &runs {
        counts.merge(run.counts);
    }
    let rungs: Vec<Rung> = runs.iter().map(|r| r.rung).collect();

    let usage = server.usage()?;
    absorb(&mut out, &counts);
    finish(server, control, &counts, &mut out)?;

    let (setup_s, spawned, mut setup_counts) = setup.finish();
    setup_counts.oracle_checks = setup_checker.oracle_checks;
    absorb(&mut out, &setup_counts);
    out.push("setup_s", setup_s, spawned);

    // A MUL request *is* this workload's SpMM as its caller sees it: latency
    // at the 250 req/s rung from each request's due time, throughput of the
    // closed loop.
    let first = &runs[0];
    let due_s: Vec<f64> = first.samples.iter().map(|s| s.due_ns as f64 / 1e9).collect();
    let latency_us: Vec<f64> = first.samples.iter().map(Sample::latency_us).collect();
    let mut latency = Quiet::default();
    latency.add_stretch(&due_s, &latency_us, FIRST_RUNG_SHARE * config.seconds);
    let mut throughput = Quiet::default();
    throughput.add_stretch(&closed.done_s, &closed.latency_us, closed.seconds);
    let whole = first.rung.latency;

    out.push("spmm_us_p50", latency.p50(), latency.samples());
    out.push("spmm_us_p90", latency.p90(), latency.samples());
    out.push_tail("spmm_us_p99", &whole);
    out.push("spmm_per_s", throughput.rate(), throughput.samples());
    out.push("server_rss_mb", usage.rss_peak_mb, 1);
    out.push("req_latency_us_p50", latency.p50(), latency.samples());
    out.push("req_latency_us_p99", whole.tail, whole.n);
    out.push("throughput_rps", throughput.rate(), throughput.samples());
    out.push("max_rate_ok_rps", openloop::max_rate_ok(&rungs) as f64, rungs.len());
    out.push("fail_share", out.fail_share(), out.attempted as usize);
    Ok(out)
}

fn push_ladder(out: &mut Outcome, runs: &[RungRun]) {
    let mut late = Vec::new();
    for run in runs {
        let latency = run.rung.latency;
        out.push(&format!("ladder.r{}.p50_us", run.rung.rate), latency.p50, latency.n);
        out.push(&format!("ladder.r{}.p99_us", run.rung.rate), latency.tail, latency.n);
        late.extend(run.samples.iter().map(Sample::late_us));
    }
    let late = summarize(&late);
    out.push("ladder.gen_late_us_p99", late.tail, late.n);
}

/// The traced pass: closed loop in alternating untraced/traced blocks, the
/// ladder, then the serve budget — one request stream replayed over TCP, in
/// process through `serve_controlled`, and straight into `execute`.
pub fn run_per_layer(config: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fixture = Fixture::new(config.seed);
    let binary = config.serve_binary()?;
    let mut server = ServerProc::spawn(binary, &fixture.server_args(config.nproc))?;
    let mut control = server.wait_ready()?;
    let mut counts = Counts::default();
    let s = config.seconds;

    // Tracing overhead and server CPU cost, on phase A's closed loop.
    let cpu_before = server.usage()?.cpu_ms;
    let blocks = 3;
    let (mut plain, mut traced, mut completed, mut rates) =
        (Vec::new(), Vec::new(), 0u64, Vec::new());
    for block in 0..2 * blocks {
        let on = block % 2 == 1;
        let closed = closed_phase(
            &server,
            &fixture,
            config.nproc,
            0.15 * s / (2 * blocks) as f64,
            mix(config.seed, 200 + block as u64),
            if on { Some(&mut *tracer) } else { None },
            &mut out.notes,
        )?;
        counts.merge(closed.counts);
        completed += closed.counts.ok;
        rates.push(closed.throughput());
        (if on { &mut traced } else { &mut plain }).extend(closed.latency_us);
    }
    let cpu_ms = server.usage()?.cpu_ms - cpu_before;
    out.push(
        "trace.overhead_share",
        (median(&traced) - median(&plain)) / median(&plain),
        traced.len(),
    );
    out.push("serve.cpu_ms_per_kreq", cpu_ms / (completed as f64 / 1000.0), completed as usize);
    out.push("throughput_rps", median(&rates), completed as usize);

    // The ladder, traced.
    let runs = ladder(
        &server,
        &fixture,
        0.1 * s,
        0.0625 * s,
        mix(config.seed, 300),
        Some(&mut *tracer),
        &mut out.notes,
        |_| Ok(()),
    )?;
    for run in &runs {
        counts.merge(run.counts);
    }
    let rungs: Vec<Rung> = runs.iter().map(|r| r.rung).collect();
    push_ladder(&mut out, &runs);
    out.push("req_latency_us_p50", rungs[0].latency.p50, rungs[0].latency.n);
    out.push("req_latency_us_p99", rungs[0].latency.tail, rungs[0].latency.n);
    out.push("spmm_us_p99", rungs[0].latency.tail, rungs[0].latency.n);
    out.push("max_rate_ok_rps", openloop::max_rate_ok(&rungs) as f64, rungs.len());

    // Serve budget, depth 1: the stream over TCP on one connection.
    let budget_seed = mix(config.seed, 400);
    let mut conn = server.connect_ready()?;
    let mut rng = Rng::new(budget_seed);
    let mut checker = fixture.checker();
    let tcp = wire::closed_loop(
        &mut conn,
        Instant::now(),
        0.08 * s,
        Some(tracer.epoch()),
        || fixture.draw(&mut rng),
        |engine, seed, reply| checker.check(engine, seed, reply),
    );
    drop(conn);
    let mut tcp_counts = tcp.counts;
    tcp_counts.oracle_checks = checker.oracle_checks;
    counts.merge(tcp_counts);
    out.notes.extend(tcp.notes);
    if let Some(spans) = tcp.spans {
        tracer.merge(spans);
    }
    let tcp_p50 = median(&tcp.latency_us);

    // The framing and loopback floor: INFO touches no engine.
    let info_us = wire::info_round_trips(&mut control, 0.04 * s, tracer)?;
    let info_p50 = median(&info_us);

    absorb(&mut out, &counts);
    finish(server, control, &counts, &mut out)?;

    // Depth 2: the same stream through an in-process serve_controlled.
    let pool = WorkerPool::new(config.nproc);
    let inproc = {
        let in_process: SpmmServer<'_, f32> = SpmmServer::with_pool(pool.clone());
        for matrix in &fixture.matrices {
            let engine = layers::build_engine(matrix, SHAPE.d, config.nproc, &pool)?;
            in_process.add_engine(engine).map_err(|e| format!("add_engine: {e}"))?;
        }
        let mut rng = Rng::new(budget_seed);
        let shapes = [(SHAPE.cols, SHAPE.d); ENGINES];
        layers::serve_inproc(
            &in_process,
            &shapes,
            || {
                let (engine, seed) = fixture.draw(&mut rng);
                (engine as usize, seed)
            },
            0.08 * s,
            tracer,
        )?
    };
    out.attempted += inproc.latency_us.len() as u64;
    out.failed += inproc.not_completed;
    let inproc_p50 = median(&inproc.latency_us);
    let input_gen_p50 = median(&inproc.input_gen_us);

    // Depth 3 and below: execute, kernel, codegen, baselines on engine 0.
    let inputs: Vec<_> =
        fixture.input_seeds[0].iter().take(8).map(|&seed| wire::dense_input(SHAPE, seed)).collect();
    layers::kernel_stack(
        &fixture.matrices[0],
        SHAPE.d,
        config.nproc,
        None,
        0.25 * s,
        &inputs,
        &mut out,
        tracer,
    )?;
    let execute_p50 = out.get("engine.execute_us_p50").map_or(0.0, |m| m.value);

    out.push("wire.input_gen_us_p50", input_gen_p50, inproc.input_gen_us.len());
    out.push("serve.send_us_p50", median(&inproc.send_us), inproc.send_us.len());
    out.push("serve.inproc_latency_us_p50", inproc_p50, inproc.latency_us.len());
    out.push("serve.self_us_p50", inproc_p50 - execute_p50, inproc.latency_us.len());
    out.push("wire.info_rtt_us_p50", info_p50, info_us.len());
    out.push("wire.reply_bytes", (4 + 9 + SHAPE.rows * SHAPE.d * 4) as f64, 1);
    out.push("wire.self_us_p50", tcp_p50 - inproc_p50 - input_gen_p50, tcp.latency_us.len());
    out.push(
        "budget.unattributed_share",
        (tcp_p50 - input_gen_p50 - inproc_p50 - info_p50) / tcp_p50,
        tcp.latency_us.len(),
    );
    out.push("fail_share", out.fail_share(), out.attempted as usize);
    Ok(out)
}
