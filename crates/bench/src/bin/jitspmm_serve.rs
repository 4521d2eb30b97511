//! `jitspmm-serve` — a TCP front end over an [`SpmmServer`] of compiled
//! [`jitspmm::JitSpmm`] or [`MutableSpmm`] engines.
//!
//! Engines are described by **synthetic matrix specs** so a restarted server
//! reconstructs byte-identical matrices — and therefore serves bit-identical
//! outputs — from the command line alone:
//!
//! ```text
//! jitspmm-serve serve --listen 127.0.0.1:17171 \
//!     --matrix uniform:512,512,4000,1,8
//! jitspmm-serve client 127.0.0.1:17171 info
//! jitspmm-serve client 127.0.0.1:17171 mul 0 42 --out /tmp/y.bin
//! jitspmm-serve client 127.0.0.1:17171 shutdown
//! ```
//!
//! Wire protocol: length-prefixed frames (`u32` little-endian byte count,
//! then the payload) over plain `std::net::TcpStream` — no serialization
//! dependencies. Request payloads start with an op byte:
//!
//! | op | request payload               | ok response payload                |
//! |----|-------------------------------|------------------------------------|
//! | 1  | INFO                          | `0u8`, UTF-8 status text           |
//! | 2  | MUL: engine `u32`, seed `u64` | `0u8`, nrows `u32`, d `u32`, row-major little-endian `f32` output |
//! | 3  | SHUTDOWN                      | `0u8`                              |
//! | 4  | UPDATE: engine `u32`, count `u32`, then per op: kind `u8` (0 upsert, 1 delete), row `u32`, col `u32`, value `f32` | `0u8`, UTF-8 `revision=N` |
//!
//! Errors come back as `1u8` followed by UTF-8 text. A MUL names its dense
//! input by *seed*: both sides derive it as `DenseMatrix::random(ncols, d,
//! seed)`, so only 13 bytes cross the wire and a client can replay the exact
//! request against a restarted server (`--expect FILE` compares the raw
//! response bytes — bit identity, not an epsilon test).
//!
//! Every request runs on the thread of the connection that sent it, and
//! that thread writes the reply: no serving loop, no reply FIFO, no channel.
//! A MUL builds its input and calls [`SpmmServer::handle`] — the library's
//! one serving path — which takes one of the engine's in-flight slots
//! (`--queue` bounds the MULs running on one engine; one over the bound is
//! shed with a `not admitted` error frame) and runs the engine on this
//! thread, so the worker pool's job queue is the only queue it waits in. A
//! panic in the launch fails that MUL alone. Nothing polls: the accept loop blocks
//! in `accept()` (SHUTDOWN unblocks it with a loopback connection to
//! itself), and every frame — length prefix included — leaves in one write.
//! Once the connections have closed, the server prints `done: C completed,
//! R rejected, F failed`, one verdict per MUL that named an engine.
//!
//! With `--mutable` every engine is a [`MutableSpmm`] (sharded across
//! `--shards`), and UPDATE frames mutate its matrix live: the connection
//! thread calls [`MutableSpmm::apply`] itself, which merges, compiles and
//! publishes the new generation, and acks with the revision it returned —
//! in-flight MULs finish on the old matrix, MULs sent after the ack see the
//! new one. INFO reports each engine's live nonzero count, matrix revision
//! and compiled generations currently alive — 1 between requests, as a MUL
//! pins its generation only while it runs — plus the server-wide
//! applied/failed update counters.

use jitspmm::serve::{AdmissionPolicy, RejectReason, ServerRequest, ServerResponse, SpmmServer};
use jitspmm::{JitSpmmBuilder, MutableSpmm, WorkerPool};
use jitspmm_sparse::{generate, CsrMatrix, DeltaBatch, DenseMatrix};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const OP_INFO: u8 = 1;
const OP_MUL: u8 = 2;
const OP_SHUTDOWN: u8 = 3;
const OP_UPDATE: u8 = 4;

/// Bytes per wire-encoded delta op: kind, row, col, value.
const UPDATE_OP_BYTES: usize = 13;

/// Largest frame payload either side accepts: a length prefix is bounded
/// before anything is allocated for it, and a server must not be configured
/// to send replies its clients would refuse.
const MAX_FRAME_BYTES: usize = 64 << 20;

/// A synthetic matrix an engine serves: `uniform:rows,cols,nnz,seed,d`.
/// Deterministic by construction, so every restart rebuilds the same matrix.
#[derive(Debug, Clone, Copy)]
struct MatrixSpec {
    rows: usize,
    cols: usize,
    nnz: usize,
    seed: u64,
    d: usize,
}

impl MatrixSpec {
    fn parse(text: &str) -> Result<MatrixSpec, String> {
        let body = text
            .strip_prefix("uniform:")
            .ok_or_else(|| format!("unsupported matrix spec {text:?} (want uniform:...)"))?;
        let fields: Vec<&str> = body.split(',').collect();
        if fields.len() != 5 {
            return Err(format!("matrix spec {text:?} wants uniform:rows,cols,nnz,seed,d"));
        }
        let num = |i: usize| {
            fields[i].parse::<u64>().map_err(|_| format!("bad number {:?} in {text:?}", fields[i]))
        };
        let spec = MatrixSpec {
            rows: num(0)? as usize,
            cols: num(1)? as usize,
            nnz: num(2)? as usize,
            seed: num(3)?,
            d: num(4)? as usize,
        };
        // The generator samples indices from `0..rows` x `0..cols` and the
        // compiler refuses `d == 0`: an empty dimension is a usage error
        // here, not a panic downstream.
        if spec.rows == 0 || spec.cols == 0 || spec.d == 0 {
            return Err(format!(
                "matrix spec {text:?}: rows, cols and d must be non-zero\n{}",
                usage()
            ));
        }
        // A MUL reply is a status byte, two `u32` dimensions and the `f32`
        // output; every client refuses a frame past the ceiling.
        let reply_bytes =
            spec.rows.checked_mul(spec.d).and_then(|n| n.checked_mul(4)?.checked_add(9));
        if reply_bytes.is_none_or(|bytes| bytes > MAX_FRAME_BYTES) {
            return Err(format!(
                "matrix spec {text:?}: a rows x d f32 reply exceeds the {MAX_FRAME_BYTES}-byte \
                 frame ceiling\n{}",
                usage()
            ));
        }
        // The MUL input X is cols x d f32, and a frame will carry it. The
        // same ceiling keeps every column index far below `u32::MAX`, past
        // which the generator's coordinates do not fit.
        let input_bytes = spec.cols.checked_mul(spec.d).and_then(|n| n.checked_mul(4));
        if input_bytes.is_none_or(|bytes| bytes > MAX_FRAME_BYTES) {
            return Err(format!(
                "matrix spec {text:?}: a cols x d f32 input exceeds the {MAX_FRAME_BYTES}-byte \
                 frame ceiling\n{}",
                usage()
            ));
        }
        Ok(spec)
    }

    fn build(&self) -> CsrMatrix<f32> {
        generate::uniform::<f32>(self.rows, self.cols, self.nnz, self.seed)
    }
}

/// Send one frame as **one** write: with `TCP_NODELAY` on, a prefix written
/// by itself would leave as its own segment ahead of the payload.
fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)
}

/// Read one frame; `Ok(None)` on a clean EOF before the length prefix.
fn read_frame(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = stream.read(&mut len[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::ErrorKind::InvalidData.into());
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// The message text of a reply frame that is not an ok reply: everything
/// past the status byte — nothing, for an empty or status-only frame.
fn reply_text(reply: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(reply.get(1..).unwrap_or_default())
}

fn error_frame(message: &str) -> Vec<u8> {
    let mut payload = vec![1u8];
    payload.extend_from_slice(message.as_bytes());
    payload
}

fn usage() -> String {
    "usage:\n  jitspmm-serve serve [--listen ADDR] [--matrix uniform:rows,cols,nnz,seed,d]...\n    \
     [--threads N] [--queue N] [--mutable] [--shards N]\n  \
     jitspmm-serve client ADDR info\n  \
     jitspmm-serve client ADDR mul ENGINE SEED [--out FILE] [--expect FILE]\n  \
     jitspmm-serve client ADDR update ENGINE OPS   (OPS: row:col:value or row:col:del, comma-separated)\n  \
     jitspmm-serve client ADDR shutdown"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => run_server(&args[1..]),
        Some("client") => run_client(&args[1..]),
        _ => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

struct ServerConfig {
    listen: String,
    specs: Vec<MatrixSpec>,
    threads: usize,
    queue: usize,
    /// Register engines as updatable [`MutableSpmm`]s (enables UPDATE).
    mutable: bool,
    /// Shard count for `--mutable` engines.
    shards: usize,
}

fn parse_server_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig {
        listen: "127.0.0.1:17171".to_string(),
        specs: Vec::new(),
        threads: 2,
        queue: 64,
        mutable: false,
        shards: 2,
    };
    let mut shards = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--listen" => config.listen = value("--listen")?,
            "--matrix" => config.specs.push(MatrixSpec::parse(&value("--matrix")?)?),
            "--threads" => {
                config.threads =
                    value("--threads")?.parse().map_err(|_| "bad --threads".to_string())?;
            }
            "--queue" => {
                config.queue = value("--queue")?.parse().map_err(|_| "bad --queue".to_string())?;
            }
            "--mutable" => config.mutable = true,
            "--shards" => {
                shards = Some(value("--shards")?.parse().map_err(|_| "bad --shards".to_string())?);
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if let Some(shards) = shards {
        // Only mutable engines are sharded; an ignored flag would hand the
        // operator an unsharded engine without a word.
        if !config.mutable {
            return Err(format!("--shards needs --mutable\n{}", usage()));
        }
        config.shards = shards;
    }
    if config.specs.is_empty() {
        config.specs.push(MatrixSpec::parse("uniform:512,512,4000,1,8").expect("default spec"));
    }
    Ok(config)
}

fn run_server(args: &[String]) -> Result<(), String> {
    let config = parse_server_args(args)?;
    let listener =
        TcpListener::bind(&config.listen).map_err(|e| format!("bind {}: {e}", config.listen))?;
    let done = serve_listener(&config, listener)?;
    println!("{done}");
    Ok(())
}

/// What every connection thread of one server shares.
struct Server<'m> {
    specs: &'m [MatrixSpec],
    /// Engine `i` serves `specs[i]`.
    engines: SpmmServer<'m, f32>,
    /// The most MULs one engine runs at once (`--queue`).
    max_in_flight: usize,
    counts: Counts,
    shutdown: Shutdown,
}

/// Compile `config`'s engines and serve connections accepted on `listener`
/// until a SHUTDOWN frame arrives and every connection has closed; returns
/// the `done:` line with the server's MUL verdicts.
fn serve_listener(config: &ServerConfig, listener: TcpListener) -> Result<String, String> {
    let pool = WorkerPool::new(config.threads.max(1));
    let matrices: Vec<CsrMatrix<f32>> = config.specs.iter().map(MatrixSpec::build).collect();
    let engines = SpmmServer::with_pool(pool.clone());
    for (spec, matrix) in config.specs.iter().zip(&matrices) {
        let threads = config.threads.max(1);
        let added = if config.mutable {
            MutableSpmm::compile(matrix, config.shards.max(1), threads, spec.d, pool.clone())
                .and_then(|mutable| engines.add_mutable(mutable))
        } else {
            JitSpmmBuilder::new()
                .pool(pool.clone())
                .threads(threads)
                .build(matrix, spec.d)
                .and_then(|single| engines.add_engine(single))
        };
        added.map_err(|e| format!("compile failed: {e}"))?;
    }
    let server = Server {
        specs: &config.specs,
        engines,
        max_in_flight: config.queue.max(1),
        counts: Counts::default(),
        shutdown: Shutdown::new(&listener).map_err(|e| format!("local_addr: {e}"))?,
    };
    println!("jitspmm-serve listening on {}", config.listen);

    std::thread::scope(|conns| {
        // Blocks in `accept()`; `Shutdown::request` connects after raising
        // the flag, so the connection that ends this loop is its own
        // (dropped unread).
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            if server.shutdown.requested.load(Ordering::SeqCst) {
                break;
            }
            conns.spawn(|| serve_connection(stream, &server));
        }
    });
    let Counts { completed, rejected, failed, .. } = &server.counts;
    let [completed, rejected, failed] =
        [completed, rejected, failed].map(|n| n.load(Ordering::Relaxed));
    Ok(format!("jitspmm-serve done: {completed} completed, {rejected} rejected, {failed} failed"))
}

/// What a SHUTDOWN frame sets off: a flag the accept loop looks at after
/// every accept, and a connection to the listener itself so that a loop
/// blocked in `accept()` gets to look.
struct Shutdown {
    requested: AtomicBool,
    /// Where this process reaches its own listener: the bound address, with
    /// loopback standing in for a wildcard bind.
    wake: SocketAddr,
}

impl Shutdown {
    fn new(listener: &TcpListener) -> std::io::Result<Shutdown> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(Shutdown { requested: AtomicBool::new(false), wake })
    }

    fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.wake);
    }
}

/// Verdicts since the server started: MULs for the `done:` line, UPDATEs
/// for INFO.
#[derive(Default)]
struct Counts {
    completed: AtomicUsize,
    rejected: AtomicUsize,
    failed: AtomicUsize,
    updates_applied: AtomicUsize,
    updates_failed: AtomicUsize,
}

/// Handle one client connection: a sequence of request frames until EOF.
fn serve_connection(mut stream: TcpStream, server: &Server<'_>) {
    let _ = stream.set_nodelay(true);
    // Reused for every MUL reply of this connection: after the first one a
    // reply allocates nothing.
    let mut mul_frame = Vec::new();
    while let Ok(Some(payload)) = read_frame(&mut stream) {
        let reply = match payload.first() {
            Some(&OP_INFO) => {
                // Rendered live per request: nonzero count and matrix
                // revision move while the server runs (UPDATE frames).
                let mut text = format!("engines: {}\n", server.specs.len());
                for (id, spec) in server.specs.iter().enumerate() {
                    let line = match server.engines.mutable(id) {
                        Some(mutable) => format!(
                            "engine {id}: {}x{} nnz={} d={} kind=mutable shards={} rev={} \
                             generations={}\n",
                            spec.rows,
                            spec.cols,
                            mutable.nnz(),
                            spec.d,
                            mutable.shards(),
                            mutable.revision(),
                            mutable.generations_retained()
                        ),
                        None => format!(
                            "engine {id}: {}x{} nnz={} d={} kind=single\n",
                            spec.rows, spec.cols, spec.nnz, spec.d
                        ),
                    };
                    text.push_str(&line);
                }
                let applied = server.counts.updates_applied.load(Ordering::Relaxed);
                let failed = server.counts.updates_failed.load(Ordering::Relaxed);
                text.push_str(&format!("updates: applied={applied} failed={failed}\n"));
                let mut frame = vec![0u8];
                frame.extend_from_slice(text.as_bytes());
                frame
            }
            Some(&OP_UPDATE) if payload.len() >= 9 => handle_update(&payload, server),
            Some(&OP_MUL) if payload.len() == 13 => {
                let engine = u32::from_le_bytes(payload[1..5].try_into().unwrap()) as usize;
                let seed = u64::from_le_bytes(payload[5..13].try_into().unwrap());
                match handle_mul(server, engine, seed, &mut mul_frame) {
                    Ok(()) if stream.write_all(&mul_frame).is_ok() => continue,
                    Ok(()) => break,
                    Err(reply) => reply,
                }
            }
            Some(&OP_SHUTDOWN) => {
                server.shutdown.request();
                let _ = write_frame(&mut stream, &[0u8]);
                break;
            }
            _ => error_frame("malformed request"),
        };
        if write_frame(&mut stream, &reply).is_err() {
            break;
        }
    }
}

/// Run one MUL on this connection's thread and lay its reply out in `frame`;
/// a MUL that does not complete returns the error frame to send instead.
/// Every MUL naming an engine counts once: completed, rejected or failed.
fn handle_mul(
    server: &Server<'_>,
    engine: usize,
    seed: u64,
    frame: &mut Vec<u8>,
) -> Result<(), Vec<u8>> {
    let Some(spec) = server.specs.get(engine) else {
        return Err(error_frame(&format!("unknown engine {engine}")));
    };
    let input = DenseMatrix::<f32>::random(spec.cols, spec.d, seed);
    let admission = AdmissionPolicy::shedding(server.max_in_flight);
    let message = match server.engines.handle(admission, ServerRequest::new(engine, input)) {
        ServerResponse::Completed { output, .. } => {
            server.counts.completed.fetch_add(1, Ordering::Relaxed);
            encode_mul_reply(frame, output.as_slice(), spec);
            return Ok(());
        }
        ServerResponse::Rejected { reason: RejectReason::QueueFull, .. } => {
            server.counts.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(error_frame(&format!(
                "not admitted: {} MULs already in flight on engine {engine}",
                server.max_in_flight
            )));
        }
        ServerResponse::Rejected { reason: RejectReason::UnknownEngine, .. } => {
            return Err(error_frame(&format!("unknown engine {engine}")));
        }
        ServerResponse::Failed { message, .. } => message,
    };
    server.counts.failed.fetch_add(1, Ordering::Relaxed);
    Err(error_frame(&format!("failed: {message}")))
}

/// Decode an UPDATE frame and apply the delta on this connection's thread:
/// the ack carries the revision [`MutableSpmm::apply`] produced, and a
/// refused delta comes back as an error frame with the engine's reason.
fn handle_update(payload: &[u8], server: &Server<'_>) -> Vec<u8> {
    let engine = u32::from_le_bytes(payload[1..5].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(payload[5..9].try_into().unwrap()) as usize;
    if payload.len() != 9 + count * UPDATE_OP_BYTES {
        return error_frame("malformed update frame");
    }
    let Some(mutable) = server.engines.mutable(engine) else {
        return error_frame(&format!("engine {engine} is not updatable (serve with --mutable)"));
    };
    let mut delta = DeltaBatch::new();
    for i in 0..count {
        let at = 9 + i * UPDATE_OP_BYTES;
        let kind = payload[at];
        let row = u32::from_le_bytes(payload[at + 1..at + 5].try_into().unwrap()) as usize;
        let col = u32::from_le_bytes(payload[at + 5..at + 9].try_into().unwrap()) as usize;
        let value = f32::from_le_bytes(payload[at + 9..at + 13].try_into().unwrap());
        match kind {
            0 => {
                delta.upsert(row, col, value);
            }
            1 => {
                delta.delete(row, col);
            }
            other => return error_frame(&format!("unknown delta op kind {other}")),
        }
    }
    if delta.is_empty() {
        // An empty batch is a no-op that advances no revision (see
        // `MutableSpmm::apply`) and counts as no update.
        return format!("\0revision={}", mutable.revision()).into_bytes();
    }
    match mutable.apply(&delta) {
        Ok(report) => {
            server.counts.updates_applied.fetch_add(1, Ordering::Relaxed);
            format!("\0revision={}", report.revision).into_bytes()
        }
        Err(e) => {
            server.counts.updates_failed.fetch_add(1, Ordering::Relaxed);
            error_frame(&format!("update rejected by the engine: {e}"))
        }
    }
}

/// Lay a completed MUL out in `frame` as it crosses the wire — length
/// prefix, status byte, both dimensions, little-endian values — so the reply
/// is one write of one buffer. `frame` is the connection's own: it is resized
/// in place, never cleared, so nothing is zeroed twice, and the values are
/// copied in one pass over fixed-size chunks (no per-value growth check).
fn encode_mul_reply(frame: &mut Vec<u8>, output: &[f32], spec: &MatrixSpec) {
    let payload = 9 + output.len() * 4;
    frame.resize(4 + payload, 0);
    frame[..4].copy_from_slice(&(payload as u32).to_le_bytes());
    frame[4] = 0;
    frame[5..9].copy_from_slice(&(spec.rows as u32).to_le_bytes());
    frame[9..13].copy_from_slice(&(spec.d as u32).to_le_bytes());
    for (bytes, value) in frame[13..].chunks_exact_mut(4).zip(output) {
        bytes.copy_from_slice(&value.to_le_bytes());
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    // The CI harness starts the server in the background and connects
    // immediately; retry briefly instead of making every caller sleep.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(format!("connect {addr}: {e}")),
        }
    }
}

fn request(stream: &mut TcpStream, payload: &[u8]) -> Result<Vec<u8>, String> {
    write_frame(stream, payload).map_err(|e| format!("send: {e}"))?;
    match read_frame(stream) {
        Ok(Some(reply)) => Ok(reply),
        Ok(None) => Err("server closed the connection".to_string()),
        Err(e) => Err(format!("recv: {e}")),
    }
}

/// Encode a MUL request payload.
fn mul_frame(engine: u32, seed: u64) -> Vec<u8> {
    let mut payload = vec![OP_MUL];
    payload.extend_from_slice(&engine.to_le_bytes());
    payload.extend_from_slice(&seed.to_le_bytes());
    payload
}

/// Encode an UPDATE request payload: `(kind, row, col, value)` per op.
fn update_frame(engine: u32, records: &[(u8, u32, u32, f32)]) -> Vec<u8> {
    let mut payload = vec![OP_UPDATE];
    payload.extend_from_slice(&engine.to_le_bytes());
    payload.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for (kind, row, col, value) in records {
        payload.push(*kind);
        payload.extend_from_slice(&row.to_le_bytes());
        payload.extend_from_slice(&col.to_le_bytes());
        payload.extend_from_slice(&value.to_le_bytes());
    }
    payload
}

fn run_client(args: &[String]) -> Result<(), String> {
    let addr = args.first().ok_or_else(usage)?;
    let command = args.get(1).ok_or_else(usage)?;
    let mut stream = connect(addr)?;
    match command.as_str() {
        "info" => {
            let reply = request(&mut stream, &[OP_INFO])?;
            match reply.split_first() {
                Some((0, text)) => {
                    print!("{}", String::from_utf8_lossy(text));
                    Ok(())
                }
                _ => Err(format!("info failed: {}", reply_text(&reply))),
            }
        }
        "mul" => {
            let engine: u32 = args
                .get(2)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| "mul wants ENGINE SEED".to_string())?;
            let seed: u64 = args
                .get(3)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| "mul wants ENGINE SEED".to_string())?;
            let mut out = None;
            let mut expect = None;
            let mut it = args[4..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--out" => out = Some(it.next().ok_or("--out needs a file")?.clone()),
                    "--expect" => expect = Some(it.next().ok_or("--expect needs a file")?.clone()),
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            let reply = request(&mut stream, &mul_frame(engine, seed))?;
            let body = match reply.split_first() {
                Some((0, body)) if body.len() >= 8 => body,
                _ => return Err(format!("mul failed: {}", reply_text(&reply))),
            };
            let nrows = u32::from_le_bytes(body[0..4].try_into().unwrap());
            let d = u32::from_le_bytes(body[4..8].try_into().unwrap());
            // Cheap order-sensitive digest so two runs are comparable from
            // the log line alone.
            let checksum =
                body.iter().fold(0u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001B3));
            println!("mul engine={engine} seed={seed}: {nrows}x{d} checksum={checksum:016x}");
            if let Some(path) = out {
                std::fs::write(&path, body).map_err(|e| format!("write {path}: {e}"))?;
            }
            if let Some(path) = expect {
                let expected = std::fs::read(&path).map_err(|e| format!("read {path}: {e}"))?;
                if expected != body {
                    return Err(format!(
                        "output mismatch vs {path}: {} vs {} bytes",
                        body.len(),
                        expected.len()
                    ));
                }
                println!("output is bit-identical to {path}");
            }
            Ok(())
        }
        "update" => {
            let engine: u32 = args
                .get(2)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| "update wants ENGINE OPS".to_string())?;
            let ops = args.get(3).ok_or_else(|| "update wants ENGINE OPS".to_string())?;
            let mut records: Vec<(u8, u32, u32, f32)> = Vec::new();
            for op in ops.split(',') {
                let parts: Vec<&str> = op.split(':').collect();
                let [row, col, action] = parts[..] else {
                    return Err(format!("bad op {op:?} (want row:col:value or row:col:del)"));
                };
                let row: u32 = row.parse().map_err(|_| format!("bad row in {op:?}"))?;
                let col: u32 = col.parse().map_err(|_| format!("bad col in {op:?}"))?;
                if action == "del" {
                    records.push((1, row, col, 0.0));
                } else {
                    let value: f32 = action.parse().map_err(|_| format!("bad value in {op:?}"))?;
                    records.push((0, row, col, value));
                }
            }
            let reply = request(&mut stream, &update_frame(engine, &records))?;
            match reply.split_first() {
                Some((0, text)) => {
                    println!("update engine={engine}: {}", String::from_utf8_lossy(text));
                    Ok(())
                }
                _ => Err(format!("update failed: {}", reply_text(&reply))),
            }
        }
        "shutdown" => {
            let reply = request(&mut stream, &[OP_SHUTDOWN])?;
            match reply.first() {
                Some(0) => {
                    println!("server shutting down");
                    Ok(())
                }
                _ => Err("shutdown failed".to_string()),
            }
        }
        other => Err(format!("unknown client command {other:?}\n{}", usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    const MUTABLE: &[&str] =
        &["--mutable", "--shards", "2", "--matrix", "uniform:256,256,2000,1,4"];

    /// Run `body` against a live server started with `flags` on an ephemeral
    /// loopback port, then shut it down and return its `done:` line (`None`
    /// where the host cannot JIT and the test is skipped).
    fn with_server(flags: &[&str], body: impl FnOnce(&str)) -> Option<String> {
        let features = jitspmm::CpuFeatures::detect();
        if !(features.avx && features.has_fma()) {
            eprintln!("skipping: host lacks AVX/FMA");
            return None;
        }
        let config = parse_server_args(&args(flags)).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || serve_listener(&config, listener));
        body(&addr);
        request(&mut connect(&addr).unwrap(), &[OP_SHUTDOWN]).unwrap();
        Some(server.join().unwrap().unwrap())
    }

    /// Run `body`, aborting the test binary if it has not returned within a
    /// minute: a request whose reply never comes fails by hanging.
    fn with_watchdog<R>(body: impl FnOnce() -> R) -> R {
        use std::sync::Arc;
        /// Calls the dog off when `body` is over, however it ends.
        struct Leash(Arc<AtomicBool>, std::thread::Thread);
        impl Drop for Leash {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
                self.1.unpark();
            }
        }
        let name = std::thread::current().name().unwrap_or("a test").to_string();
        let over = Arc::new(AtomicBool::new(false));
        let dog = {
            let over = Arc::clone(&over);
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(60);
                while !over.load(Ordering::SeqCst) {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        eprintln!("watchdog: {name} hung for a minute");
                        std::process::abort();
                    }
                    std::thread::park_timeout(left);
                }
            })
        };
        let _leash = Leash(over, dog.thread().clone());
        body()
    }

    /// The text of an ok reply (`0u8` + UTF-8).
    fn ok_text(reply: &[u8]) -> String {
        assert_eq!(reply.first(), Some(&0), "{}", String::from_utf8_lossy(&reply[1..]));
        String::from_utf8(reply[1..].to_vec()).unwrap()
    }

    #[test]
    fn a_zero_op_update_is_acked_at_once_with_the_current_revision() {
        with_server(MUTABLE, |addr| {
            let mut stream = connect(addr).unwrap();
            let started = Instant::now();
            // The raw 9-byte frame: op, engine 0, count 0.
            let reply = request(&mut stream, &[OP_UPDATE, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap();
            assert_eq!(ok_text(&reply), "revision=0");
            assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());
        });
    }

    #[test]
    fn a_rejected_update_is_an_error_frame_and_the_next_one_still_lands() {
        with_server(MUTABLE, |addr| {
            let mut stream = connect(addr).unwrap();
            // Row 9999 of a 256-row matrix: the engine refuses the delta.
            let reply = request(&mut stream, &update_frame(0, &[(0, 9_999, 0, 1.0)])).unwrap();
            assert_eq!(reply.first(), Some(&1), "an out-of-range update must not be acked");
            assert!(
                reply_text(&reply).contains("rejected by the engine"),
                "{}",
                reply_text(&reply)
            );
            // The failure consumed no revision and wedged nothing.
            let reply = request(&mut stream, &update_frame(0, &[(0, 3, 5, 1.5)])).unwrap();
            assert_eq!(ok_text(&reply), "revision=1");
            let info = ok_text(&request(&mut stream, &[OP_INFO]).unwrap());
            assert!(info.contains("updates: applied=1 failed=1"), "{info}");
        });
    }

    #[test]
    fn concurrent_updates_are_each_acked_with_their_own_revision() {
        with_server(MUTABLE, |addr| {
            let client = |client: u32| {
                let mut stream = connect(addr).unwrap();
                (0..50u32)
                    .map(|k| {
                        let frame = update_frame(0, &[(0, client * 100 + k, k, 1.5)]);
                        let ack = ok_text(&request(&mut stream, &frame).unwrap());
                        ack.strip_prefix("revision=").expect("an ack").parse::<u64>().unwrap()
                    })
                    .collect::<Vec<u64>>()
            };
            let mut acked = std::thread::scope(|clients| {
                let other = clients.spawn(|| client(1));
                [client(0), other.join().unwrap()].concat()
            });
            acked.sort_unstable();
            assert_eq!(acked, (1..=100).collect::<Vec<u64>>(), "one revision per update, each");
            let info = ok_text(&request(&mut connect(addr).unwrap(), &[OP_INFO]).unwrap());
            assert!(info.contains(" rev=100 generations=1\n"), "{info}");
            assert!(info.contains("updates: applied=100 failed=0"), "{info}");
        });
    }

    /// Each connection thread runs its own MULs and writes their replies,
    /// so concurrent connections to one engine must each get the answer to
    /// their own request.
    #[test]
    fn concurrent_connections_to_one_engine_each_get_their_own_reply() {
        const SPECS: [&str; 2] = ["uniform:256,256,2000,1,4", "uniform:192,320,3000,2,8"];
        let flags = ["--queue", "64", "--matrix", SPECS[0], "--matrix", SPECS[1]];
        with_server(&flags, |addr| {
            let spec = MatrixSpec::parse(SPECS[1]).unwrap();
            let matrix = spec.build();
            let local = JitSpmmBuilder::new().threads(2).build(&matrix, spec.d).unwrap();
            let client = |conn: u64| {
                let mut stream = connect(addr).unwrap();
                for k in 0..50u64 {
                    let seed = conn * 1_000 + k;
                    let reply = request(&mut stream, &mul_frame(1, seed)).unwrap();
                    assert_eq!(reply[0], 0, "{}", String::from_utf8_lossy(&reply[1..]));
                    let x = DenseMatrix::<f32>::random(spec.cols, spec.d, seed);
                    let (y, _) = local.execute(&x).unwrap();
                    let expected: Vec<u8> =
                        y.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
                    assert!(reply[9..] == expected[..], "conn {conn} seed {seed}: wrong reply");
                }
            };
            std::thread::scope(|conns| {
                for conn in 0..4 {
                    conns.spawn(move || client(conn));
                }
            });
        });
    }

    #[test]
    fn every_mul_over_two_connections_is_counted_once_on_the_done_line() {
        const PER_CONN: u64 = 20;
        let done = with_watchdog(|| {
            with_server(&["--matrix", "uniform:256,256,2000,1,4"], |addr| {
                std::thread::scope(|conns| {
                    for conn in 0..2 {
                        conns.spawn(move || {
                            let mut stream = connect(addr).unwrap();
                            for k in 0..PER_CONN {
                                let reply = request(&mut stream, &mul_frame(0, conn * 100 + k));
                                assert_eq!(reply.unwrap()[0], 0, "conn {conn} MUL {k} failed");
                            }
                        });
                    }
                });
            })
        });
        if let Some(done) = done {
            let n = 2 * PER_CONN;
            assert_eq!(done, format!("jitspmm-serve done: {n} completed, 0 rejected, 0 failed"));
        }
    }

    /// No thread holds a generation between requests, so the one an UPDATE
    /// supersedes is freed at once, not at the engine's next MUL.
    #[test]
    fn after_mul_then_update_info_reads_one_generation_without_a_further_mul() {
        with_watchdog(|| {
            with_server(MUTABLE, |addr| {
                let mut stream = connect(addr).unwrap();
                let reply = request(&mut stream, &mul_frame(0, 7)).unwrap();
                assert_eq!(reply[0], 0, "{}", reply_text(&reply));
                let reply = request(&mut stream, &update_frame(0, &[(0, 3, 5, 1.5)])).unwrap();
                assert_eq!(ok_text(&reply), "revision=1");
                let info = ok_text(&request(&mut stream, &[OP_INFO]).unwrap());
                assert!(info.contains(" rev=1 generations=1\n"), "{info}");
            })
        });
    }

    #[test]
    fn removed_cache_and_tiered_flags_are_unknown() {
        for flags in [&["--cache", "x"][..], &["--tiered"][..], &["--numa", "0"][..]] {
            let message = parse_server_args(&args(flags)).err().expect("flag must be rejected");
            assert!(message.starts_with(&format!("unknown flag {:?}", flags[0])), "{message}");
            assert!(message.contains("usage:"), "{message}");
        }
        // `--shards` only means something for mutable engines, in either order.
        let message = parse_server_args(&args(&["--shards", "4"])).err().expect("needs --mutable");
        assert!(message.starts_with("--shards needs --mutable\nusage:"), "{message}");
        for flags in [["--mutable", "--shards", "4"], ["--shards", "4", "--mutable"]] {
            let config = parse_server_args(&args(&flags)).unwrap();
            assert!(config.mutable);
            assert_eq!(config.shards, 4);
        }
    }

    #[test]
    fn matrix_specs_with_an_empty_dimension_are_usage_errors() {
        for spec in ["uniform:0,512,10,1,8", "uniform:512,0,10,1,8", "uniform:512,512,10,1,0"] {
            let message = MatrixSpec::parse(spec).expect_err("an empty dimension must be rejected");
            assert!(message.contains("must be non-zero"), "{message}");
            assert!(message.contains("usage:"), "{message}");
        }
        let spec = MatrixSpec::parse("uniform:512,256,0,1,8").expect("zero nnz is a valid matrix");
        assert_eq!((spec.rows, spec.cols, spec.nnz, spec.d), (512, 256, 0, 8));
    }

    #[test]
    fn matrix_specs_whose_reply_exceeds_the_frame_ceiling_are_usage_errors() {
        // The most rows whose d = 1 reply still fits, one more (and the
        // 76.8 MB reply that started cleanly, and a product that overflows).
        let rows = (MAX_FRAME_BYTES - 9) / 4;
        assert!(MatrixSpec::parse(&format!("uniform:{rows},8,0,1,1")).is_ok());
        let over = format!("uniform:{},8,0,1,1", rows + 1);
        let big = ["uniform:600000,600000,1000,1,32", "uniform:4294967296,8,0,1,4294967296"];
        for spec in [over.as_str(), big[0], big[1]] {
            let message = MatrixSpec::parse(spec).expect_err("an unreadable reply is rejected");
            assert!(message.contains("frame ceiling") && message.contains("usage:"), "{message}");
        }
    }

    #[test]
    fn matrix_specs_whose_input_exceeds_the_frame_ceiling_are_usage_errors() {
        // The most columns whose d = 1 input fits, one more, a 102 GB input
        // that started cleanly and aborted the server on its first MUL, and
        // column indices past `u32::MAX` that panicked at start-up.
        let cols = MAX_FRAME_BYTES / 4;
        assert!(MatrixSpec::parse(&format!("uniform:4,{cols},4,1,1")).is_ok());
        let over = format!("uniform:4,{},4,1,1", cols + 1);
        let big = ["uniform:4,400000000,4,1,64", "uniform:4,5000000000,4,1,1"];
        for spec in [over.as_str(), big[0], big[1]] {
            let message = MatrixSpec::parse(spec).expect_err("an unsendable input is rejected");
            assert!(
                message.contains("input exceeds") && message.contains("frame ceiling"),
                "{message}"
            );
            assert!(message.contains("usage:"), "{message}");
        }
    }

    #[test]
    fn a_reused_reply_buffer_holds_exactly_the_current_frame() {
        let spec = |rows, d| MatrixSpec { rows, cols: 1, nnz: 0, seed: 0, d };
        let by_hand = |rows: u32, d: u32, values: &[f32]| {
            let mut payload = vec![0u8];
            payload.extend_from_slice(&rows.to_le_bytes());
            payload.extend_from_slice(&d.to_le_bytes());
            payload.extend(values.iter().flat_map(|v| v.to_le_bytes()));
            [&(payload.len() as u32).to_le_bytes()[..], &payload].concat()
        };
        let mut frame = Vec::new();
        // A long reply, then a short one, then a long one again.
        for values in [&[1.5f32, -2.0, 3.25, 0.0][..], &[7.0][..], &[4.0, 5.0][..]] {
            encode_mul_reply(&mut frame, values, &spec(values.len(), 1));
            assert_eq!(frame, by_hand(values.len() as u32, 1, values));
        }
    }

    #[test]
    fn reply_text_survives_empty_and_status_only_frames() {
        assert_eq!(reply_text(&[]), "");
        assert_eq!(reply_text(&[1]), "");
        assert_eq!(reply_text(b"\x01queue full"), "queue full");
    }
}
