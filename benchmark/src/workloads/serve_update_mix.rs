//! `serve_update_mix`: `jitspmm-serve --mutable --shards 4 --threads nproc`
//! with one `uniform:8192,8192,240000,S,16` engine. Connection A sends MULs
//! in a closed loop (512 KB replies) while connection B sends UPDATE frames
//! at a fixed 20/s — eight ops each, rows below 2048 so one shard is
//! touched, three upserts to one delete. Reads beside writes on the same
//! engine: `update`, `shard`, the sparse delta merge and the large-reply
//! side of `wire` dominate.

use super::wire::{self, Checker, Counts, EngineShape, Verdict};
use super::RunConfig;
use crate::layers;
use crate::metrics::Outcome;
use crate::oracle::{self, MatrixModel, Op};
use crate::server::{self, Conn, ServerProc};
use crate::stats::{median, summarize, Quiet};
use crate::trace::Tracer;
use crate::util::{fnv1a, micros, mix, Rng};
use jitspmm::serve::SpmmServer;
use jitspmm::{MutableSpmm, WorkerPool};
use jitspmm_sparse::{generate, CsrMatrix};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const SHAPE: EngineShape = EngineShape { rows: 8192, cols: 8192, d: 16 };
const NNZ: usize = 240_000;
const SHARDS: usize = 4;
/// Updates only ever touch rows below this; the rest of every reply is the
/// same at every revision.
const TOUCHED_ROWS: usize = 2048;
const UPDATES_PER_S: f64 = 20.0;
const OPS_PER_UPDATE: usize = 8;
/// Distinct dense inputs connection A rotates through.
const INPUT_SEEDS: usize = 8;
/// How often a MUL reply's revision-dependent rows are kept for the check
/// against the oracle's model of the delta stream: spread over the whole
/// window, few enough that the check stays under a second.
const DEEP_CHECK_INTERVAL: Duration = Duration::from_millis(100);

struct Fixture {
    matrix_seed: u64,
    matrix: CsrMatrix<f32>,
    /// The oracle's matrix with the whole delta stream applied; revision `k`
    /// is the state after the first `k` updates.
    model: MatrixModel,
    deltas: Vec<Vec<Op>>,
    input_seeds: Vec<u64>,
}

impl Fixture {
    fn new(seed: u64, seconds: f64) -> Fixture {
        let matrix_seed = mix(seed, 1) >> 32;
        let matrix = generate::uniform::<f32>(SHAPE.rows, SHAPE.cols, NNZ, matrix_seed);
        let mut model = layers::oracle_model(&matrix);
        // One delta per 50 ms of window, plus slack for a slow final tick.
        let updates = (seconds * UPDATES_PER_S).ceil() as usize + 2;
        let mut rng = Rng::new(mix(seed, 2));
        let deltas: Vec<Vec<Op>> = (0..updates)
            .map(|_| {
                let ops = draw_delta(&model, &mut rng);
                model.apply(&ops);
                ops
            })
            .collect();
        let input_seeds = (0..INPUT_SEEDS).map(|i| mix(seed, 1000 + i as u64)).collect();
        Fixture { matrix_seed, matrix, model, deltas, input_seeds }
    }

    fn server_args(&self, nproc: usize) -> Vec<String> {
        vec![
            "--mutable".to_string(),
            "--shards".to_string(),
            SHARDS.to_string(),
            "--threads".to_string(),
            nproc.to_string(),
            "--matrix".to_string(),
            format!("uniform:{},{},{NNZ},{},{}", SHAPE.rows, SHAPE.cols, self.matrix_seed, SHAPE.d),
        ]
    }
}

/// Eight ops on rows below [`TOUCHED_ROWS`]: six upserts at random positions
/// and two deletes aimed at entries that exist at that point of the stream.
fn draw_delta(model: &MatrixModel, rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::with_capacity(OPS_PER_UPDATE);
    for i in 0..OPS_PER_UPDATE {
        let row = rng.below(TOUCHED_ROWS);
        if i % 4 == 3 {
            let live = model.current_row(row);
            if !live.is_empty() {
                ops.push(Op::Delete { row, col: live[rng.below(live.len())].0 });
                continue;
            }
        }
        ops.push(Op::Upsert { row, col: rng.below(SHAPE.cols) as u32, value: rng.value() });
    }
    ops
}

/// A MUL reply's revision-dependent rows, kept for the post-window check.
struct DeepSample {
    seed: u64,
    /// Revisions the reply may have been computed at: every update acked
    /// before the send up to every update issued before the reply.
    revisions: std::ops::RangeInclusive<u64>,
    touched: Vec<f32>,
}

/// Connection A's judge. Rows at or beyond [`TOUCHED_ROWS`] never change, so
/// they are compared once per seed with the oracle and by digest after; the
/// touched rows of one reply per [`DEEP_CHECK_INTERVAL`] are kept and checked
/// after the window against the model at each revision they may have seen.
struct MixChecker<'a> {
    fixture: &'a Fixture,
    issued: &'a AtomicU64,
    stable_digest: HashMap<u64, u64>,
    next_deep: Instant,
    deep: Vec<DeepSample>,
    oracle_checks: u64,
}

impl<'a> MixChecker<'a> {
    fn new(fixture: &'a Fixture, issued: &'a AtomicU64) -> MixChecker<'a> {
        MixChecker {
            fixture,
            issued,
            stable_digest: HashMap::new(),
            next_deep: Instant::now(),
            deep: Vec::new(),
            oracle_checks: 0,
        }
    }

    /// Judge the reply to a MUL sent when `acked_at_send` updates were live.
    fn check(&mut self, seed: u64, acked_at_send: u64, reply: &[u8]) -> Verdict {
        let issued = self.issued.load(Ordering::SeqCst);
        let body = match server::decode(reply) {
            Ok(body) => body,
            Err(text) => return Verdict::Refused(text),
        };
        let output = match server::mul_output(body, SHAPE.rows, SHAPE.d) {
            Ok(output) => output,
            Err(text) => return Verdict::Wrong(text),
        };
        let (touched, stable) = output.split_at(TOUCHED_ROWS * SHAPE.d * 4);
        let digest = fnv1a(stable);
        match self.stable_digest.get(&seed) {
            Some(&first) if first == digest => {}
            Some(_) => {
                return Verdict::Wrong(format!("seed {seed}: rows no update touches changed"))
            }
            None => {
                self.oracle_checks += 1;
                let x = wire::dense_input(SHAPE, seed);
                let want = self.fixture.model.spmm_rows(
                    TOUCHED_ROWS..SHAPE.rows,
                    0,
                    x.as_slice(),
                    SHAPE.d,
                );
                if !oracle::close(&server::floats(stable), &want) {
                    return Verdict::Wrong(format!(
                        "seed {seed}: untouched rows differ from the oracle"
                    ));
                }
                self.stable_digest.insert(seed, digest);
            }
        }
        let now = Instant::now();
        if now >= self.next_deep {
            self.next_deep = now + DEEP_CHECK_INTERVAL;
            self.deep.push(DeepSample {
                seed,
                revisions: acked_at_send..=issued,
                touched: server::floats(touched),
            });
        }
        Verdict::Ok
    }

    /// The deferred check: how many kept replies match the model at none of
    /// the revisions they may have seen.
    fn finish(&mut self) -> u64 {
        let fixture = self.fixture;
        let mut wanted: HashMap<(u64, u64), Vec<f32>> = HashMap::new();
        let mut wrong = 0;
        for sample in &self.deep {
            let x = wire::dense_input(SHAPE, sample.seed);
            let matches = sample.revisions.clone().any(|revision| {
                let want = wanted.entry((sample.seed, revision)).or_insert_with(|| {
                    fixture.model.spmm_rows(0..TOUCHED_ROWS, revision, x.as_slice(), SHAPE.d)
                });
                oracle::close(&sample.touched, want)
            });
            self.oracle_checks += 1;
            if !matches {
                wrong += 1;
            }
        }
        wrong
    }
}

/// What connection B observed.
#[derive(Default)]
struct UpdateSide {
    latency_us: Vec<f64>,
    errors: u64,
    notes: Vec<String>,
    spans: Option<Tracer>,
}

/// Connection B: one UPDATE every 50 ms until `stop`, each acknowledged
/// (new generation live) before the next is due to go out.
fn update_loop(
    conn: &mut Conn,
    fixture: &Fixture,
    issued: &AtomicU64,
    acked: &AtomicU64,
    stop: &AtomicBool,
    trace_epoch: Option<Instant>,
) -> UpdateSide {
    let mut side = UpdateSide { spans: trace_epoch.map(Tracer::new), ..UpdateSide::default() };
    let start = Instant::now();
    let mut reply = Vec::new();
    for (k, ops) in fixture.deltas.iter().enumerate() {
        let due = start + Duration::from_secs_f64(k as f64 / UPDATES_PER_S);
        while Instant::now() < due && !stop.load(Ordering::SeqCst) {
            std::thread::sleep((due - Instant::now()).min(Duration::from_millis(5)));
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let revision = k as u64 + 1;
        issued.store(revision, Ordering::SeqCst);
        let sent = Instant::now();
        let result = conn.request(&server::update_frame(0, ops), &mut reply);
        let end = Instant::now();
        let ack = result.map_err(|e| e.to_string()).and_then(|()| {
            server::decode(&reply).map(|text| String::from_utf8_lossy(text).into_owned())
        });
        match ack {
            Ok(text) if text == format!("revision={revision}") => {
                acked.store(revision, Ordering::SeqCst);
                side.latency_us.push(micros(end - sent));
                if let Some(spans) = side.spans.as_mut() {
                    spans.record("wire.update", sent, end, None, revision);
                }
            }
            other => {
                side.errors += 1;
                side.notes.push(format!("UPDATE {revision}: {other:?}"));
                break; // revisions can no longer be tracked
            }
        }
    }
    side
}

/// Both connections over one window.
struct Window {
    /// Connection A's latencies, added block by block.
    mul: Quiet,
    /// Per block of connection A's loop: (traced?, latencies).
    blocks: Vec<(bool, Vec<f64>)>,
    mul_counts: Counts,
    mul_elapsed_s: f64,
    update_latency_us: Vec<f64>,
    updates_sent: u64,
    update_errors: u64,
}

/// Run connection A's closed loop in `blocks` (seconds, traced?) while
/// connection B sends updates throughout, then check a final MUL against the
/// oracle on the fully merged matrix. `after_block` runs with connection A
/// idle and connection B still sending.
fn run_window(
    server: &ServerProc,
    fixture: &Fixture,
    blocks: &[(f64, bool)],
    stream_seed: u64,
    mut tracer: Option<&mut Tracer>,
    notes: &mut Vec<String>,
    mut after_block: impl FnMut(&mut Vec<String>) -> Result<(), String>,
) -> Result<Window, String> {
    let mut conn_a = server.connect_ready()?;
    let mut conn_b = server.connect_ready()?;
    let (issued, acked, stop) = (AtomicU64::new(0), AtomicU64::new(0), AtomicBool::new(false));
    let epoch = tracer.as_deref().map(Tracer::epoch);
    let mut checker = MixChecker::new(fixture, &issued);
    let acked_at_send = Cell::new(0u64);
    let mut rng = Rng::new(stream_seed);
    let mut window = Window {
        mul: Quiet::default(),
        blocks: Vec::new(),
        mul_counts: Counts::default(),
        mul_elapsed_s: 0.0,
        update_latency_us: Vec::new(),
        updates_sent: 0,
        update_errors: 0,
    };

    let mut hook_result = Ok(());
    let update_side = std::thread::scope(|threads| {
        let updater =
            threads.spawn(|| update_loop(&mut conn_b, fixture, &issued, &acked, &stop, epoch));
        for &(seconds, traced) in blocks {
            let result = wire::closed_loop(
                &mut conn_a,
                Instant::now(),
                seconds,
                if traced { epoch } else { None },
                || {
                    acked_at_send.set(acked.load(Ordering::SeqCst));
                    (0, fixture.input_seeds[rng.below(INPUT_SEEDS)])
                },
                |_engine, seed, reply| checker.check(seed, acked_at_send.get(), reply),
            );
            window.mul_counts.merge(result.counts);
            window.mul_elapsed_s += result.elapsed_s;
            window.mul.add_stretch(&result.done_s, &result.latency_us, result.elapsed_s);
            window.blocks.push((traced, result.latency_us));
            notes.extend(result.notes);
            if let (Some(tracer), Some(spans)) = (tracer.as_deref_mut(), result.spans) {
                tracer.merge(spans);
            }
            hook_result = after_block(notes);
            if hook_result.is_err() {
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        updater.join().expect("update thread panicked")
    });
    drop(conn_b);
    hook_result?;
    window.update_latency_us = update_side.latency_us;
    window.updates_sent = acked.load(Ordering::SeqCst) + update_side.errors;
    window.update_errors = update_side.errors;
    notes.extend(update_side.notes);
    if let (Some(tracer), Some(spans)) = (tracer, update_side.spans) {
        tracer.merge(spans);
    }

    // Replies kept during the window, against the model at the revisions
    // each may have seen.
    window.mul_counts.wrong += checker.finish();

    // The final MUL: every update is acknowledged, so the reply must be the
    // oracle's product on the fully merged matrix, in every row.
    let revision = acked.load(Ordering::SeqCst);
    let seed = fixture.input_seeds[0];
    let mut reply = Vec::new();
    conn_a
        .request(&server::mul_frame(0, seed), &mut reply)
        .map_err(|e| format!("final MUL: {e}"))?;
    let verdict = match server::decode(&reply)
        .and_then(|body| server::mul_output(body, SHAPE.rows, SHAPE.d))
    {
        Err(text) => Verdict::Refused(text),
        Ok(output) => {
            let x = wire::dense_input(SHAPE, seed);
            let want = fixture.model.spmm(revision, x.as_slice(), SHAPE.d);
            checker.oracle_checks += 1;
            if oracle::close(&server::floats(output), &want) {
                Verdict::Ok
            } else {
                Verdict::Wrong(format!("final MUL differs from the oracle at revision {revision}"))
            }
        }
    };
    if let Verdict::Wrong(text) | Verdict::Refused(text) = &verdict {
        notes.push(text.clone());
    }
    window.mul_counts.absorb(&verdict);
    window.mul_counts.oracle_checks = checker.oracle_checks;
    Ok(window)
}

fn absorb(out: &mut Outcome, window: &Window) {
    out.attempted += window.mul_counts.attempted() + window.updates_sent;
    out.failed += window.mul_counts.failures() + window.update_errors;
    out.oracle_checks += window.mul_counts.oracle_checks;
}

fn finish(
    server: ServerProc,
    control: Conn,
    window: &Window,
    out: &mut Outcome,
) -> Result<(), String> {
    let done = server.shutdown(control)?;
    if !wire::reconcile(&done, &window.mul_counts, &mut out.notes) {
        out.failed += 1;
    }
    Ok(())
}

/// Connection A's loop runs in this many blocks, with a batch of
/// [`SETUP_SPAWNS`] cold server set-ups before the window and after every
/// block (connection B keeps sending updates meanwhile).
const BLOCKS: usize = 6;
const SETUP_SPAWNS: usize = 3;
/// Seconds of extra delta stream for the time the set-up batches take.
const SETUP_SLACK_S: f64 = 4.0;

/// The untraced pass: the end-to-end metrics.
pub fn run_end_to_end(config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fixture = Fixture::new(config.seed, config.seconds + SETUP_SLACK_S);
    let binary = config.serve_binary()?;
    let args = fixture.server_args(config.nproc);

    // Set-up: spawn to first correct MUL, against the unmodified matrix.
    let base = [layers::oracle_model(&fixture.matrix)];
    let shapes = [SHAPE];
    let mut setup_checker = Checker::new(&base, &shapes);
    let mut setup = wire::SetupProbe::new(
        binary,
        &args,
        (0, fixture.input_seeds[0]),
        SETUP_SPAWNS,
        |engine, seed, reply| setup_checker.check(engine, seed, reply),
    );
    setup.batch(&mut out.notes)?;

    let mut server = ServerProc::spawn(binary, &args)?;
    let control = server.wait_ready()?;
    let blocks = [(config.seconds / BLOCKS as f64, false); BLOCKS];
    let window = run_window(
        &server,
        &fixture,
        &blocks,
        mix(config.seed, 200),
        None,
        &mut out.notes,
        |notes| setup.batch(notes),
    )?;
    let usage = server.usage()?;
    absorb(&mut out, &window);
    finish(server, control, &window, &mut out)?;

    let (setup_s, spawned, setup_counts) = setup.finish();
    out.attempted += setup_counts.attempted();
    out.failed += setup_counts.failures();
    out.oracle_checks += setup_checker.oracle_checks;
    out.push("setup_s", setup_s, spawned);

    let mul = &window.mul;
    let whole = summarize(mul.all());
    let update = summarize(&window.update_latency_us);
    out.push("spmm_us_p50", mul.p50(), mul.samples());
    out.push("spmm_us_p90", mul.p90(), mul.samples());
    out.push_tail("spmm_us_p99", &whole);
    out.push("spmm_per_s", mul.rate(), mul.samples());
    out.push("server_rss_mb", usage.rss_peak_mb, 1);
    out.push("req_latency_us_p50", mul.p50(), mul.samples());
    out.push("throughput_rps", mul.rate(), mul.samples());
    out.push("update_latency_us_p50", update.p50, update.n);
    out.push("fail_share", out.fail_share(), out.attempted as usize);
    Ok(out)
}

/// The traced pass: the same two connections with connection A alternating
/// untraced and traced blocks, then the in-process probes — the serving loop
/// without the wire, sharded against unsharded, and the three ways to absorb
/// the same delta stream.
pub fn run_per_layer(config: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let s = config.seconds;
    let fixture = Fixture::new(config.seed, 0.45 * s);
    let binary = config.serve_binary()?;
    let mut server = ServerProc::spawn(binary, &fixture.server_args(config.nproc))?;
    let mut control = server.wait_ready()?;

    let cpu_before = server.usage()?.cpu_ms;
    let blocks: Vec<(f64, bool)> = (0..6).map(|i| (0.45 * s / 6.0, i % 2 == 1)).collect();
    let window = run_window(
        &server,
        &fixture,
        &blocks,
        mix(config.seed, 200),
        Some(&mut *tracer),
        &mut out.notes,
        |_| Ok(()),
    )?;
    let cpu_ms = server.usage()?.cpu_ms - cpu_before;
    absorb(&mut out, &window);

    let info_us = wire::info_round_trips(&mut control, 0.03 * s, tracer)?;
    finish(server, control, &window, &mut out)?;

    let side = |traced: bool| -> Vec<f64> {
        window
            .blocks
            .iter()
            .filter(|(t, _)| *t == traced)
            .flat_map(|(_, l)| l.iter().copied())
            .collect()
    };
    let (plain_p50, traced_p50) = (median(&side(false)), median(&side(true)));
    out.push("trace.overhead_share", (traced_p50 - plain_p50) / plain_p50, side(true).len());

    let mul = summarize(window.mul.all());
    let update = summarize(&window.update_latency_us);
    out.push("req_latency_us_p50", mul.p50, mul.n);
    out.push("serve.req_latency_us_p99", mul.tail, mul.n);
    out.push("spmm_us_p99", mul.tail, mul.n);
    out.push("throughput_rps", mul.n as f64 / window.mul_elapsed_s, mul.n);
    out.push("update_latency_us_p50", update.p50, update.n);
    out.push_tail("update.tcp_latency_us_p99", &update);
    // Does an update get slower as generations pile up? Last against first.
    let edge = (update.n / 2).min(100);
    if edge > 0 {
        let first = median(&window.update_latency_us[..edge]);
        let last = median(&window.update_latency_us[update.n - edge..]);
        out.push("update.latency_drift", last / first, edge);
    }
    out.push("serve.cpu_ms_per_kreq", cpu_ms / (mul.n as f64 / 1000.0), mul.n);
    out.push("wire.info_rtt_us_p50", median(&info_us), info_us.len());
    out.push("wire.reply_bytes", (4 + 9 + SHAPE.rows * SHAPE.d * 4) as f64, 1);

    // The serving loop without the wire: the same engine kind in process.
    let pool = WorkerPool::new(config.nproc);
    let inproc = {
        let in_process: SpmmServer<'_, f32> = SpmmServer::with_pool(pool.clone());
        let lanes = (config.nproc / SHARDS).max(1);
        let engine = MutableSpmm::compile(&fixture.matrix, SHARDS, lanes, SHAPE.d, pool.clone())
            .map_err(|e| format!("mutable compile: {e}"))?;
        in_process.add_mutable(engine).map_err(|e| format!("add_mutable: {e}"))?;
        let mut rng = Rng::new(mix(config.seed, 200));
        layers::serve_inproc(
            &in_process,
            &[(SHAPE.cols, SHAPE.d)],
            || (0, fixture.input_seeds[rng.below(INPUT_SEEDS)]),
            0.07 * s,
            tracer,
        )?
    };
    drop(pool);
    out.attempted += inproc.latency_us.len() as u64;
    out.failed += inproc.not_completed;
    let inproc_p50 = median(&inproc.latency_us);
    let input_gen_p50 = median(&inproc.input_gen_us);

    layers::shard_and_update(
        &fixture.matrix,
        SHAPE.d,
        SHARDS,
        config.nproc,
        &fixture.deltas,
        0.2 * s,
        fixture.input_seeds[0],
        &mut out,
        tracer,
    )?;
    let inputs: Vec<_> =
        fixture.input_seeds.iter().map(|&seed| wire::dense_input(SHAPE, seed)).collect();
    layers::kernel_stack(
        &fixture.matrix,
        SHAPE.d,
        config.nproc,
        None,
        0.2 * s,
        &inputs,
        &mut out,
        tracer,
    )?;
    let sharded_p50 = out.get("shard.execute_us_p50").map_or(0.0, |m| m.value);

    out.push("wire.input_gen_us_p50", input_gen_p50, inproc.input_gen_us.len());
    out.push("serve.send_us_p50", median(&inproc.send_us), inproc.send_us.len());
    out.push("serve.inproc_latency_us_p50", inproc_p50, inproc.latency_us.len());
    // The engine behind this server is the sharded one.
    out.push("serve.self_us_p50", inproc_p50 - sharded_p50, inproc.latency_us.len());
    out.push("wire.self_us_p50", mul.p50 - inproc_p50 - input_gen_p50, mul.n);
    out.push(
        "budget.unattributed_share",
        (mul.p50 - input_gen_p50 - inproc_p50 - median(&info_us)) / mul.p50,
        mul.n,
    );
    out.push("fail_share", out.fail_share(), out.attempted as usize);
    Ok(out)
}
