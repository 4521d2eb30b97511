//! `jitspmm-serve` as a child process, and the client side of its wire
//! protocol. The binary is built from the root workspace's source at run
//! time; the child is killed on every exit path (drop guard) and a clean run
//! ends with SHUTDOWN and the server's own `done:` line.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const OP_INFO: u8 = 1;
const OP_MUL: u8 = 2;
const OP_SHUTDOWN: u8 = 3;
const OP_UPDATE: u8 = 4;

/// No reply within this long means the server is wedged: fail the request
/// rather than hang the run.
const IO_TIMEOUT: Duration = Duration::from_secs(20);
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// Repo root: the benchmark package sits directly under it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent").to_path_buf()
}

/// Build `jitspmm-serve` from the root workspace (a no-op when fresh) and
/// return the binary's path. Its target directory is a `serve` subdirectory
/// of `CARGO_TARGET_DIR` (or of `benchmark/target`), so the build never
/// contends for the lock of the `cargo run` that started this process.
pub fn build_serve_binary() -> Result<PathBuf, String> {
    let root = repo_root();
    let base = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir().map_err(|e| e.to_string())?.join(dir),
        None => root.join("benchmark").join("target"),
    };
    let target = base.join("serve");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "jitspmm-bench", "--bin", "jitspmm-serve"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdin(Stdio::null())
        // Cargo's own chatter must not reach our stdout: its last line is
        // reserved for the result object.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("could not run cargo to build jitspmm-serve: {e}"))?;
    if !status.success() {
        return Err(format!("building jitspmm-serve failed ({status})"));
    }
    let binary = target.join("release").join("jitspmm-serve");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("cargo succeeded but {} is missing", binary.display()))
    }
}

/// A loopback port nothing is listening on right now.
fn free_port() -> Result<u16, String> {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .map(|addr| addr.port())
        .map_err(|e| format!("no free loopback port: {e}"))
}

/// The counts on the server's `jitspmm-serve done:` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoneLine {
    pub completed: u64,
    pub rejected: u64,
    pub failed: u64,
}

pub fn parse_done_line(line: &str) -> Option<DoneLine> {
    let rest = line.trim().strip_prefix("jitspmm-serve done:")?;
    let mut numbers =
        rest.split(',').map(|part| part.split_whitespace().next()?.parse::<u64>().ok());
    let done = DoneLine {
        completed: numbers.next()??,
        rejected: numbers.next()??,
        failed: numbers.next()??,
    };
    numbers.next().is_none().then_some(done)
}

/// CPU time (user + system) and peak resident set of a live process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcUsage {
    pub cpu_ms: f64,
    pub rss_peak_mb: f64,
}

pub fn proc_usage(pid: u32) -> Option<ProcUsage> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th overall, i.e. the 12th and 13th after it.
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let hwm_kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse::<f64>()
        .ok()?;
    // USER_HZ is 100 on every Linux ABI: one tick is 10 ms.
    Some(ProcUsage { cpu_ms: ticks * 10.0, rss_peak_mb: hwm_kb / 1024.0 })
}

/// A running `jitspmm-serve serve`; dropping it kills and reaps the child.
pub struct ServerProc {
    child: Option<Child>,
    addr: SocketAddr,
    started: Instant,
}

impl ServerProc {
    /// Spawn the server on a free loopback port with `args` appended to
    /// `serve --listen ADDR`. Returns as soon as the child exists; use
    /// [`ServerProc::wait_ready`] before sending work.
    pub fn spawn(binary: &Path, args: &[String]) -> Result<ServerProc, String> {
        let port = free_port()?;
        let addr: SocketAddr = ([127, 0, 0, 1], port).into();
        let started = Instant::now();
        let child = Command::new(binary)
            .arg("serve")
            .arg("--listen")
            .arg(addr.to_string())
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("could not start {}: {e}", binary.display()))?;
        Ok(ServerProc { child: Some(child), addr, started })
    }

    pub fn started(&self) -> Instant {
        self.started
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("server is running").id()
    }

    pub fn usage(&self) -> Result<ProcUsage, String> {
        proc_usage(self.pid()).ok_or_else(|| "could not read the server's /proc entry".to_string())
    }

    /// Connect, retrying until the listener is up, and prove the serving
    /// loop answers with one INFO round trip.
    pub fn wait_ready(&mut self) -> Result<Conn, String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Some(status) = self.child.as_mut().expect("running").try_wait().ok().flatten() {
                return Err(format!("jitspmm-serve exited before it was ready ({status})"));
            }
            if let Ok(mut conn) = Conn::connect(self.addr) {
                if conn.info().is_ok() {
                    return Ok(conn);
                }
            }
            if Instant::now() > deadline {
                return Err("jitspmm-serve did not become ready in time".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A new connection the server has already accepted: the accept loop
    /// polls every few milliseconds, so one INFO round trip is spent here
    /// rather than inside the first timed request.
    pub fn connect_ready(&self) -> Result<Conn, String> {
        let mut conn =
            Conn::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        conn.info()?;
        Ok(conn)
    }

    /// Send SHUTDOWN on `conn`, wait for the child to exit, and return its
    /// `done:` line. Every other connection must already be closed: the
    /// server joins its connection threads before it reports.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<DoneLine, String> {
        conn.send(&[OP_SHUTDOWN]).map_err(|e| format!("send SHUTDOWN: {e}"))?;
        let mut reply = Vec::new();
        conn.recv(&mut reply).map_err(|e| format!("SHUTDOWN reply: {e}"))?;
        if reply.first() != Some(&0) {
            return Err("server refused SHUTDOWN".to_string());
        }
        drop(conn);
        let mut child = self.child.take().expect("running");
        let stdout = child.stdout.take().expect("stdout is piped");
        // The child prints a handful of lines, then exits: reading to EOF
        // cannot block on a full pipe, and `kill_after` bounds a hang.
        let reader = std::thread::spawn(move || {
            BufReader::new(stdout).lines().map_while(Result::ok).find_map(|l| parse_done_line(&l))
        });
        let status = wait_with_deadline(&mut child, IO_TIMEOUT);
        let done = reader.join().ok().flatten();
        match status {
            Some(status) if status.success() => {
                done.ok_or_else(|| "server exited without a `done:` line".to_string())
            }
            Some(status) => Err(format!("server exited with {status}")),
            None => Err("server did not exit after SHUTDOWN; killed".to_string()),
        }
    }
}

/// Wait for `child` up to `limit`, then kill it. `None` means it was killed.
fn wait_with_deadline(child: &mut Child, limit: Duration) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + limit;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection speaking length-prefixed frames.
pub struct Conn {
    stream: TcpStream,
}

/// A decoded reply: the payload after the status byte, or the server's
/// error text.
pub type Reply<'a> = Result<&'a [u8], String>;

pub fn decode(reply: &[u8]) -> Reply<'_> {
    match reply.split_first() {
        Some((0, body)) => Ok(body),
        Some((_, text)) => Err(String::from_utf8_lossy(text).into_owned()),
        None => Err("empty reply".to_string()),
    }
}

/// The row-major `f32` output of an ok MUL reply body, after checking the
/// `nrows`/`d` header against what the request should produce.
pub fn mul_output(body: &[u8], nrows: usize, d: usize) -> Result<&[u8], String> {
    if body.len() != 8 + nrows * d * 4 {
        return Err(format!("MUL reply is {} bytes, want {}", body.len(), 8 + nrows * d * 4));
    }
    let got_rows = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes")) as usize;
    let got_d = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes")) as usize;
    if (got_rows, got_d) != (nrows, d) {
        return Err(format!("MUL reply is {got_rows}x{got_d}, want {nrows}x{d}"));
    }
    Ok(&body[8..])
}

pub fn floats(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes"))).collect()
}

pub fn mul_frame(engine: u32, seed: u64) -> [u8; 13] {
    let mut frame = [0u8; 13];
    frame[0] = OP_MUL;
    frame[1..5].copy_from_slice(&engine.to_le_bytes());
    frame[5..13].copy_from_slice(&seed.to_le_bytes());
    frame
}

pub fn update_frame(engine: u32, ops: &[crate::oracle::Op]) -> Vec<u8> {
    use crate::oracle::Op;
    let mut frame = vec![OP_UPDATE];
    frame.extend_from_slice(&engine.to_le_bytes());
    frame.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        let (kind, row, col, value) = match *op {
            Op::Upsert { row, col, value } => (0u8, row, col, value),
            Op::Delete { row, col } => (1u8, row, col, 0.0),
        };
        frame.push(kind);
        frame.extend_from_slice(&(row as u32).to_le_bytes());
        frame.extend_from_slice(&col.to_le_bytes());
        frame.extend_from_slice(&value.to_le_bytes());
    }
    frame
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn { stream })
    }

    /// A second handle on the same socket, for a reader thread.
    pub fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(Conn { stream: self.stream.try_clone()? })
    }

    /// Write one frame (length prefix and payload in a single write).
    pub fn send(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        self.stream.write_all(&frame)
    }

    /// Read one frame's payload into `buf` (reused across calls).
    pub fn recv(&mut self, buf: &mut Vec<u8>) -> std::io::Result<()> {
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len > 64 << 20 {
            return Err(std::io::ErrorKind::InvalidData.into());
        }
        buf.resize(len, 0);
        self.stream.read_exact(buf)
    }

    pub fn request(&mut self, payload: &[u8], buf: &mut Vec<u8>) -> std::io::Result<()> {
        self.send(payload)?;
        self.recv(buf)
    }

    pub fn info(&mut self) -> Result<String, String> {
        let mut buf = Vec::new();
        self.request(&[OP_INFO], &mut buf).map_err(|e| format!("INFO: {e}"))?;
        decode(&buf).map(|text| String::from_utf8_lossy(text).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Op;

    #[test]
    fn done_line_parses_only_the_real_thing() {
        assert_eq!(
            parse_done_line("jitspmm-serve done: 4123 completed, 2 rejected, 0 failed\n"),
            Some(DoneLine { completed: 4123, rejected: 2, failed: 0 })
        );
        assert_eq!(parse_done_line("jitspmm-serve listening on 127.0.0.1:1"), None);
        assert_eq!(parse_done_line("jitspmm-serve done: x completed, 2 rejected, 0 failed"), None);
        assert_eq!(parse_done_line("jitspmm-serve done: 1 completed, 2 rejected"), None);
    }

    #[test]
    fn frames_match_the_documented_layout() {
        assert_eq!(mul_frame(1, 0x0102).to_vec(), vec![2, 1, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0]);
        let frame = update_frame(
            0,
            &[Op::Upsert { row: 3, col: 5, value: 1.0 }, Op::Delete { row: 7, col: 9 }],
        );
        assert_eq!(frame.len(), 9 + 2 * 13);
        assert_eq!(&frame[..9], &[4, 0, 0, 0, 0, 2, 0, 0, 0]);
        assert_eq!(&frame[9..22], &[0, 3, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0x80, 0x3f]);
        assert_eq!(frame[22], 1);
    }

    #[test]
    fn replies_decode_and_check_their_shape() {
        assert_eq!(decode(&[0, 7, 8]), Ok(&[7u8, 8][..]));
        assert_eq!(decode(&[1, b'n', b'o']), Err("no".to_string()));
        assert!(decode(&[]).is_err());
        let mut body = vec![2, 0, 0, 0, 1, 0, 0, 0];
        body.extend_from_slice(&1.5f32.to_le_bytes());
        body.extend_from_slice(&2.5f32.to_le_bytes());
        assert_eq!(floats(mul_output(&body, 2, 1).unwrap()), vec![1.5, 2.5]);
        assert!(mul_output(&body, 1, 2).is_err());
        assert!(mul_output(&body[..10], 2, 1).is_err());
    }

    #[test]
    fn own_process_usage_is_readable() {
        let usage = proc_usage(std::process::id()).expect("/proc/self");
        assert!(usage.rss_peak_mb > 0.0);
        assert!(usage.cpu_ms >= 0.0);
    }
}
