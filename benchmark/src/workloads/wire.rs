//! Client-side pieces both serve workloads share: checking MUL replies
//! against the oracle, counting verdicts, and the closed request loop.

use crate::oracle::{self, MatrixModel};
use crate::server::{self, Conn, DoneLine, ServerProc};
use crate::stats::{median, quiet_decile};
use crate::trace::Tracer;
use crate::util::{fnv1a, micros};
use jitspmm_sparse::DenseMatrix;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct EngineShape {
    pub rows: usize,
    pub cols: usize,
    pub d: usize,
}

/// The dense input a MUL names by seed, exactly as the server derives it.
pub fn dense_input(shape: EngineShape, seed: u64) -> DenseMatrix<f32> {
    DenseMatrix::<f32>::random(shape.cols, shape.d, seed)
}

#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Ok,
    /// Status 0, but the output is not what the oracle computes.
    Wrong(String),
    /// The server answered with an error frame (refused, rejected, failed).
    Refused(String),
}

/// What a client saw, summed over its requests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Status-0 replies (wrong answers included: the server completed them).
    pub ok: u64,
    /// Error frames and broken connections.
    pub errors: u64,
    pub wrong: u64,
    /// Replies compared element by element against the oracle.
    pub oracle_checks: u64,
}

impl Counts {
    pub fn absorb(&mut self, verdict: &Verdict) {
        match verdict {
            Verdict::Ok => self.ok += 1,
            Verdict::Wrong(_) => {
                self.ok += 1;
                self.wrong += 1;
            }
            Verdict::Refused(_) => self.errors += 1,
        }
    }

    pub fn merge(&mut self, other: Counts) {
        self.ok += other.ok;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.oracle_checks += other.oracle_checks;
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.errors
    }

    pub fn failures(&self) -> u64 {
        self.errors + self.wrong
    }
}

/// Checks MUL replies of engines whose matrices never change. The first
/// reply to each distinct `(engine, seed)` is compared element by element
/// with the oracle (relative 1e-4); later ones must repeat it bit for bit,
/// which a digest decides.
pub struct Checker<'a> {
    models: &'a [MatrixModel],
    shapes: &'a [EngineShape],
    seen: HashMap<(u32, u64), u64>,
    pub oracle_checks: u64,
}

impl<'a> Checker<'a> {
    pub fn new(models: &'a [MatrixModel], shapes: &'a [EngineShape]) -> Checker<'a> {
        Checker { models, shapes, seen: HashMap::new(), oracle_checks: 0 }
    }

    pub fn check(&mut self, engine: u32, seed: u64, reply: &[u8]) -> Verdict {
        let shape = self.shapes[engine as usize];
        let body = match server::decode(reply) {
            Ok(body) => body,
            Err(text) => return Verdict::Refused(text),
        };
        let output = match server::mul_output(body, shape.rows, shape.d) {
            Ok(output) => output,
            Err(text) => return Verdict::Wrong(text),
        };
        let digest = fnv1a(output);
        match self.seen.get(&(engine, seed)) {
            Some(&first) if first == digest => Verdict::Ok,
            Some(_) => Verdict::Wrong(format!("engine {engine} seed {seed}: reply changed")),
            None => {
                self.oracle_checks += 1;
                let x = dense_input(shape, seed);
                let want = self.models[engine as usize].spmm(0, x.as_slice(), shape.d);
                if oracle::close(&server::floats(output), &want) {
                    self.seen.insert((engine, seed), digest);
                    Verdict::Ok
                } else {
                    Verdict::Wrong(format!("engine {engine} seed {seed}: differs from the oracle"))
                }
            }
        }
    }
}

/// One client's closed loop: samples, verdict counts, spans when traced.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub latency_us: Vec<f64>,
    /// When each reply was read, seconds after `origin`.
    pub done_s: Vec<f64>,
    pub counts: Counts,
    pub spans: Option<Tracer>,
    pub elapsed_s: f64,
    pub notes: Vec<String>,
}

/// Send MULs on `conn` one at a time for `seconds`: the next request goes
/// out only after the previous reply was read. `verdict` judges each reply
/// after its latency is recorded, so checking never counts as latency.
/// `origin` is the window's start, shared by every connection of a phase.
pub fn closed_loop(
    conn: &mut Conn,
    origin: Instant,
    seconds: f64,
    trace_epoch: Option<Instant>,
    mut draw: impl FnMut() -> (u32, u64),
    mut verdict: impl FnMut(u32, u64, &[u8]) -> Verdict,
) -> LoopResult {
    let mut result = LoopResult { spans: trace_epoch.map(Tracer::new), ..LoopResult::default() };
    let mut reply = Vec::new();
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs_f64(seconds);
    let mut request = 0u64;
    while Instant::now() < deadline {
        let (engine, seed) = draw();
        let frame = server::mul_frame(engine, seed);
        let start = Instant::now();
        let sent = conn.send(&frame).map(|()| Instant::now());
        let outcome = sent.and_then(|sent| conn.recv(&mut reply).map(|()| sent));
        let end = Instant::now();
        let sent = match outcome {
            Ok(sent) => sent,
            Err(e) => {
                // The connection is unusable: count the request and stop.
                result.counts.errors += 1;
                result.notes.push(format!("MUL on a closed-loop connection: {e}"));
                break;
            }
        };
        result.latency_us.push(micros(end - start));
        result.done_s.push((end - origin).as_secs_f64());
        let checked = verdict(engine, seed, &reply);
        if let Verdict::Wrong(text) | Verdict::Refused(text) = &checked {
            if result.notes.len() < 4 {
                result.notes.push(text.clone());
            }
        }
        result.counts.absorb(&checked);
        if let Some(spans) = result.spans.as_mut() {
            let root = spans.record("wire.request", start, end, None, request);
            spans.record("wire.write", start, sent, root, request);
            spans.record("wire.wait_read", sent, end, root, request);
            spans.record("oracle.check", end, Instant::now(), None, request);
        }
        request += 1;
    }
    result.elapsed_s = begin.elapsed().as_secs_f64();
    result
}

/// INFO round trips on `conn` for `seconds`, in microseconds: the framing
/// and loopback floor, since INFO touches no engine.
pub fn info_round_trips(
    conn: &mut Conn,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Vec<f64>, String> {
    let mut info_us = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let start = Instant::now();
        conn.info()?;
        let end = Instant::now();
        info_us.push(micros(end - start));
        tracer.record("wire.info", start, end, None, info_us.len() as u64);
    }
    Ok(info_us)
}

/// `setup_s` of a served workload: process spawn to first correct MUL reply,
/// over fresh servers that are each shut down cleanly afterwards. Servers
/// are spawned in batches — before, between and after the measured phases,
/// so that set-up time is sampled all through the run and not at one moment
/// of the host's mood — and each batch gives its median.
pub struct SetupProbe<'a, V: FnMut(u32, u64, &[u8]) -> Verdict> {
    binary: &'a Path,
    args: &'a [String],
    /// The MUL a fresh server is asked first: (engine, input seed).
    first: (u32, u64),
    verdict: V,
    /// Servers spawned per batch.
    spawns: usize,
    batches: Vec<f64>,
    counts: Counts,
}

impl<'a, V: FnMut(u32, u64, &[u8]) -> Verdict> SetupProbe<'a, V> {
    pub fn new(
        binary: &'a Path,
        args: &'a [String],
        first: (u32, u64),
        spawns: usize,
        verdict: V,
    ) -> Self {
        SetupProbe {
            binary,
            args,
            first,
            verdict,
            spawns,
            batches: Vec::new(),
            counts: Counts::default(),
        }
    }

    pub fn batch(&mut self, notes: &mut Vec<String>) -> Result<(), String> {
        let mut reply = Vec::new();
        let mut setup_s = Vec::with_capacity(self.spawns);
        for _ in 0..self.spawns {
            let mut server = ServerProc::spawn(self.binary, self.args)?;
            let mut conn = server.wait_ready()?;
            conn.request(&server::mul_frame(self.first.0, self.first.1), &mut reply)
                .map_err(|e| format!("first MUL: {e}"))?;
            setup_s.push(server.started().elapsed().as_secs_f64());
            let checked = (self.verdict)(self.first.0, self.first.1, &reply);
            if let Verdict::Wrong(text) | Verdict::Refused(text) = &checked {
                notes.push(format!("setup: {text}"));
            }
            let mut here = Counts::default();
            here.absorb(&checked);
            let done = server.shutdown(conn)?;
            if !reconcile(&done, &here, notes) {
                here.wrong += 1;
            }
            self.counts.merge(here);
        }
        self.batches.push(median(&setup_s));
        Ok(())
    }

    /// `(setup_s, servers spawned, what their first replies were)`:
    /// `setup_s` is the quiet decile of the batch medians.
    pub fn finish(self) -> (f64, usize, Counts) {
        let setup_s = quiet_decile(&self.batches, false).unwrap_or(0.0);
        (setup_s, self.batches.len() * self.spawns, self.counts)
    }
}

/// The server's own `done:` line must agree with what the clients counted;
/// a disagreement is recorded as one more wrong answer.
pub fn reconcile(done: &DoneLine, counts: &Counts, notes: &mut Vec<String>) -> bool {
    let agree = done.completed == counts.ok && done.rejected + done.failed == counts.errors;
    if !agree {
        notes.push(format!(
            "server says {} completed, {} rejected, {} failed; clients saw {} ok, {} errors",
            done.completed, done.rejected, done.failed, counts.ok, counts.errors
        ));
    }
    agree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_add_up() {
        let mut c = Counts::default();
        c.absorb(&Verdict::Ok);
        c.absorb(&Verdict::Wrong("x".into()));
        c.absorb(&Verdict::Refused("y".into()));
        assert_eq!((c.ok, c.errors, c.wrong, c.attempted(), c.failures()), (2, 1, 1, 3, 2));
        let mut notes = Vec::new();
        assert!(reconcile(&DoneLine { completed: 2, rejected: 1, failed: 0 }, &c, &mut notes));
        assert!(!reconcile(&DoneLine { completed: 3, rejected: 0, failed: 0 }, &c, &mut notes));
        assert_eq!(notes.len(), 1);
    }

    #[test]
    fn checker_compares_once_then_by_digest() {
        // 2x2 identity, d = 1: the reply must equal the seeded input.
        let models = [MatrixModel::new(2, 2, &[0, 1, 2], &[0, 1], &[1.0, 1.0])];
        let shapes = [EngineShape { rows: 2, cols: 2, d: 1 }];
        let mut checker = Checker::new(&models, &shapes);
        let x = dense_input(shapes[0], 9);
        let mut reply = vec![0u8, 2, 0, 0, 0, 1, 0, 0, 0];
        for v in x.as_slice() {
            reply.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(checker.check(0, 9, &reply), Verdict::Ok);
        assert_eq!(checker.check(0, 9, &reply), Verdict::Ok);
        assert_eq!(checker.oracle_checks, 1, "the repeat is decided by digest");
        let last = reply.len() - 1;
        reply[last] ^= 1;
        assert!(matches!(checker.check(0, 9, &reply), Verdict::Wrong(_)));
        reply[last] ^= 0x40; // a large change on a fresh seed is caught by the oracle
        assert!(matches!(checker.check(0, 10, &reply), Verdict::Wrong(_)));
        assert!(matches!(checker.check(0, 9, &[1, b'n', b'o']), Verdict::Refused(_)));
        assert!(matches!(checker.check(0, 9, &[0, 1, 2]), Verdict::Wrong(_)));
    }
}
