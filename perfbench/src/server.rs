//! Driving `oa serve --listen` as a child process over loopback TCP.

use crate::spec::Workload;
use crate::stream::{request_line, Stream, Unit};
use oa_core::autotune::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single response may take before the run is abandoned.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `oa serve --listen` child.
pub struct ServerProc {
    child: Child,
    // Held so the child's stdout stays open for its lifetime.
    _stdout: BufReader<ChildStdout>,
    /// The bound `host:port`.
    pub addr: String,
    /// When the child was spawned.
    pub spawned: Instant,
    /// Spawn until the server printed its listening line.
    pub listening: Duration,
}

impl ServerProc {
    /// Spawn the server with the default config and engine, resolving
    /// tuning through `cache`, and wait until it listens.
    pub fn spawn(oa: &Path, cache: &Path) -> Result<ServerProc, String> {
        let spawned = Instant::now();
        let mut child = Command::new(oa)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .env("OA_TUNE_CACHE", cache)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", oa.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            let read = stdout.read_line(&mut line);
            if let Some(addr) = line.trim().strip_prefix("oa serve: listening on ") {
                let addr = addr.to_string();
                return Ok(ServerProc {
                    child,
                    _stdout: stdout,
                    addr,
                    listening: spawned.elapsed(),
                    spawned,
                });
            }
            if !matches!(read, Ok(n) if n > 0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("oa serve exited before listening".into());
            }
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Send one admin op (`metrics`, `health`) and return its reply.
    pub fn op(&self, op: &str) -> Result<Json, String> {
        let mut c = Conn::open(&self.addr)?;
        c.send(&format!(r#"{{"op":"{op}"}}"#))?;
        c.recv()
    }

    /// Graceful shutdown: the `shutdown` op, then wait for the child.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = Conn::open(&self.addr).and_then(|mut c| {
            c.send(r#"{"op":"shutdown"}"#)?;
            c.recv()
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("oa serve did not drain within 60 s".into());
                }
            }
        }
        reply.map(|_| ())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // A server still running here was abandoned by an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in KiB.
pub fn vmhwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// One client connection.  The server numbers a connection's request
/// lines from 0, and responses carry that number as `id`.
pub struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    /// Connect to `addr`.
    pub fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            w: s,
            r,
            line: String::new(),
        })
    }

    /// Send one or more request lines (newline-separated, no trailing newline).
    pub fn send(&mut self, lines: &str) -> Result<(), String> {
        let mut buf = String::with_capacity(lines.len() + 1);
        buf.push_str(lines);
        buf.push('\n');
        self.w
            .write_all(buf.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Read one response line.
    pub fn recv(&mut self) -> Result<Json, String> {
        self.line.clear();
        match self.r.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => json::parse(self.line.trim())
                .ok_or_else(|| format!("bad response line: {}", self.line)),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Answer {
    /// What was sent.
    pub unit: Unit,
    /// When it was sent.
    pub sent: Instant,
    /// When its response arrived.
    pub done: Instant,
    /// The response.
    pub resp: Json,
}

impl Answer {
    /// Client-side sojourn, ms.
    pub fn sojourn_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }

    /// The registry's own `ms` field, when present.
    pub fn registry_ms(&self) -> Option<f64> {
        self.resp.get("ms").and_then(Json::as_f64)
    }
}

/// Send `units` pipelined on one fresh connection and wait for all of
/// their responses.
pub fn pipeline(addr: &str, w: &Workload, units: &[Unit]) -> Result<Vec<Answer>, String> {
    let mut c = Conn::open(addr)?;
    let lines: Vec<String> = units.iter().map(|u| request_line(w, u)).collect();
    let sent = Instant::now();
    c.send(&lines.join("\n"))?;
    let mut out: Vec<Option<Answer>> = vec![None; units.len()];
    for _ in 0..units.len() {
        let resp = c.recv()?;
        let done = Instant::now();
        let id = response_id(&resp, units.len())?;
        out[id] = Some(Answer {
            unit: units[id].clone(),
            sent,
            done,
            resp,
        });
    }
    out.into_iter()
        .map(|a| a.ok_or_else(|| "a request got no response".to_string()))
        .collect()
}

fn response_id(resp: &Json, sent: usize) -> Result<usize, String> {
    let id = resp
        .get("id")
        .and_then(Json::as_i64)
        .ok_or_else(|| format!("response without id: {}", resp.compact()))?;
    usize::try_from(id)
        .ok()
        .filter(|&i| i < sent)
        .ok_or_else(|| format!("response id {id} was never sent"))
}

/// One connection of the closed loop: keep `w.window` requests in flight,
/// refilling every free slot from `stream` in one write, until `end`; then
/// collect what is still in flight.
pub fn closed_loop(
    addr: &str,
    w: &Workload,
    stream: &mut Stream,
    end: Instant,
) -> Result<Vec<Answer>, String> {
    let mut c = Conn::open(addr)?;
    let mut sent: Vec<(Unit, Instant)> = Vec::new();
    let mut answers: Vec<Answer> = Vec::new();
    let mut in_flight = 0usize;
    loop {
        if Instant::now() < end {
            if in_flight < w.window {
                let units: Vec<Unit> = (in_flight..w.window).map(|_| stream.next_unit()).collect();
                let lines: Vec<String> = units.iter().map(|u| request_line(w, u)).collect();
                c.send(&lines.join("\n"))?;
                let at = Instant::now();
                in_flight += units.len();
                sent.extend(units.into_iter().map(|u| (u, at)));
            }
        } else if in_flight == 0 {
            return Ok(answers);
        }
        let resp = c.recv()?;
        let done = Instant::now();
        let id = response_id(&resp, sent.len())?;
        in_flight -= 1;
        let (unit, at) = sent[id].clone();
        answers.push(Answer {
            unit,
            sent: at,
            done,
            resp,
        });
    }
}
