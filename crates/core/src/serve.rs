//! The persistent, multi-tenant dispatch server behind
//! `oa serve --listen`, plus the streaming one-shot pipeline behind
//! plain `oa serve`.
//!
//! The paper's endgame is a *library*; a library that tunes once and is
//! then consulted repeatedly wants to be a long-lived process, not a
//! batch job.  This module turns the routine [`Registry`] into exactly
//! that:
//!
//! * [`Listener`] — one JSONL protocol over TCP (`host:port`) or a Unix
//!   domain socket (`unix:/path`);
//! * [`Admission`] — a bounded, tenant-fair admission queue: a global
//!   queue cap and a per-tenant in-flight quota, both answered with a
//!   structured JSONL rejection (`admission/overload`,
//!   `admission/shutdown`) instead of unbounded buffering, and a
//!   round-robin dequeue so one flooding tenant cannot starve the rest;
//! * dynamic batching — admitted requests are coalesced by
//!   `(routine, n)` in a small time/size window
//!   ([`oa_gpusim::dispatch::Coalescer`]) and dispatched as one group
//!   through [`Registry::run_group_observed`], so a burst of identical
//!   requests resolves and compiles **once** and hits the warm program
//!   LRU for the rest;
//! * [`Metrics`] — live counters (queue depth, batch sizes, LRU hit
//!   rate, per-tenant completions, p50/p99 latency, process-wide native
//!   region entries/fallbacks) served over the same
//!   socket via `{"op": "metrics"}` / `{"op": "health"}`, and folded
//!   into one terminal [`TuneEvent::Serve`] record after the graceful
//!   drain — the durable trace line `oa trace-check` validates;
//! * [`serve_stream`] — the one-shot mode, rewritten from
//!   slurp-everything to a streaming pipeline (reader → bounded channel
//!   → workers → order-restoring writer) that emits each result line as
//!   soon as it is ready, so piping requests in over a slow producer
//!   gets incremental output instead of silence until EOF.
//!
//! Scheduling metadata (the `tenant` field) never reaches the engines:
//! results served concurrently, batched, under any tenant mix are
//! bit-identical to a sequential one-shot run of the same requests —
//! the server test battery pins this digest-for-digest.

use crate::dag::{DagRequest, DagStatus};
use crate::dispatch::{reject, Registry, Rejection, Request};
use crate::trace::{emit, stderr_observer, TraceMode};
use oa_autotune::json::Json;
use oa_autotune::report::{BatchStats, ServeStats};
use oa_autotune::TuneEvent;
use oa_gpusim::dispatch::{Coalescer, Pool};
use oa_gpusim::LruStats;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a blocked socket read or idle scheduler wait may last before
/// re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// Server tuning knobs.  [`ServeConfig::from_env`] reads the
/// `OA_SERVE_*` environment overrides; the CLI flags override both.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads executing dynamic batches.
    pub threads: usize,
    /// Global admission-queue bound: requests beyond this many queued
    /// are rejected (`admission/overload`), never buffered unboundedly.
    pub queue_cap: usize,
    /// Per-tenant in-flight bound (queued + executing).
    pub tenant_quota: usize,
    /// Largest dynamic batch the coalescer forms.
    pub batch_max: usize,
    /// How long the coalescer holds an under-full group open waiting
    /// for same-`(routine, n)` company.
    pub batch_window: Duration,
    /// Latency samples kept for the p50/p99 estimate (a ring: the
    /// percentiles track the most recent window, not the full history).
    pub latency_window: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: std::thread::available_parallelism().map_or(2, |p| p.get()),
            queue_cap: 1024,
            tenant_quota: 32,
            batch_max: 16,
            batch_window: Duration::from_millis(2),
            latency_window: 4096,
        }
    }
}

impl ServeConfig {
    /// The defaults with `OA_SERVE_THREADS`, `OA_SERVE_QUEUE_CAP`,
    /// `OA_SERVE_TENANT_QUOTA`, `OA_SERVE_BATCH_MAX` and
    /// `OA_SERVE_BATCH_WINDOW_MS` applied.
    pub fn from_env() -> ServeConfig {
        let mut c = ServeConfig::default();
        if let Some(v) = env_usize("OA_SERVE_THREADS") {
            c.threads = v.max(1);
        }
        if let Some(v) = env_usize("OA_SERVE_QUEUE_CAP") {
            c.queue_cap = v.max(1);
        }
        if let Some(v) = env_usize("OA_SERVE_TENANT_QUOTA") {
            c.tenant_quota = v.max(1);
        }
        if let Some(v) = env_usize("OA_SERVE_BATCH_MAX") {
            c.batch_max = v.max(1);
        }
        if let Some(v) = env_usize("OA_SERVE_BATCH_WINDOW_MS") {
            c.batch_window = Duration::from_millis(v as u64);
        }
        c
    }
}

// ---------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------

/// A bound server socket: TCP or Unix domain.
pub enum Listener {
    /// A TCP listener (`host:port`; port 0 picks a free port).
    Tcp(TcpListener),
    /// A Unix-domain listener and its socket path (unlinked on exit).
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Bind `addr`: `unix:/path/to.sock` for a Unix domain socket
    /// (a stale socket file is replaced), anything else as a TCP
    /// `host:port`.
    pub fn bind(addr: &str) -> std::io::Result<Listener> {
        if let Some(path) = addr.strip_prefix("unix:") {
            let path = PathBuf::from(path);
            let _ = std::fs::remove_file(&path);
            Ok(Listener::Unix(UnixListener::bind(&path)?, path))
        } else {
            Ok(Listener::Tcp(TcpListener::bind(addr)?))
        }
    }

    /// The bound address, in the same syntax [`Listener::bind`] accepts
    /// (TCP with the real port, so binding port 0 is test-friendly).
    pub fn local_addr(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".into()),
            Listener::Unix(_, p) => format!("unix:{}", p.display()),
        }
    }
}

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// The write half of one connection, shared between the reader (for
/// immediate rejections) and every worker serving that connection's
/// requests.  Lines are written atomically under the lock; a client
/// that hung up just makes writes no-ops (the request still completes
/// and is accounted — results are never silently dropped server-side).
struct ConnOut {
    w: Mutex<Box<dyn Write + Send>>,
}

impl ConnOut {
    fn send_line(&self, line: &str) {
        let mut w = self.w.lock().expect("unpoisoned connection");
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
        let _ = w.flush();
    }
}

// ---------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------

struct AdmissionInner<T> {
    queues: HashMap<String, VecDeque<T>>,
    /// Tenant round-robin order (first-seen).  Tenants are never
    /// removed: the set is small (it is bounded by distinct `tenant`
    /// strings seen) and keeping them preserves fairness position.
    order: Vec<String>,
    cursor: usize,
    queued: usize,
    /// Queued + executing, per tenant — the quota denominator.
    inflight: HashMap<String, usize>,
    draining: bool,
}

/// The bounded, tenant-fair admission queue.
///
/// `push` never blocks: over the global cap or the tenant quota it
/// returns a [`Rejection`] for the caller to answer immediately —
/// backpressure is explicit and bounded, the server cannot OOM on a
/// flood.  `pop` dequeues round-robin across tenants, so tenants share
/// dequeue bandwidth evenly no matter how unevenly they submit.
pub struct Admission<T> {
    inner: Mutex<AdmissionInner<T>>,
    cv: Condvar,
    queue_cap: usize,
    tenant_quota: usize,
}

impl<T> Admission<T> {
    /// An empty queue with the given global and per-tenant bounds.
    pub fn new(queue_cap: usize, tenant_quota: usize) -> Admission<T> {
        Admission {
            inner: Mutex::new(AdmissionInner {
                queues: HashMap::new(),
                order: Vec::new(),
                cursor: 0,
                queued: 0,
                inflight: HashMap::new(),
                draining: false,
            }),
            cv: Condvar::new(),
            queue_cap: queue_cap.max(1),
            tenant_quota: tenant_quota.max(1),
        }
    }

    /// Admit one item for `tenant`, or reject it with a structured
    /// reason.  Admission raises the tenant's in-flight count; the
    /// caller must pair every admitted item with one [`Admission::complete`].
    pub fn push(&self, tenant: &str, item: T) -> Result<(), Rejection> {
        let mut g = self.inner.lock().expect("unpoisoned admission");
        if g.draining {
            return Err(Rejection {
                class: "admission/shutdown",
                reason: "server is draining".into(),
            });
        }
        if g.queued >= self.queue_cap {
            return Err(Rejection {
                class: "admission/overload",
                reason: format!("admission queue full ({} queued)", g.queued),
            });
        }
        let inflight = g.inflight.get(tenant).copied().unwrap_or(0);
        if inflight >= self.tenant_quota {
            return Err(Rejection {
                class: "admission/overload",
                reason: format!(
                    "tenant `{tenant}` over its in-flight quota ({inflight}/{})",
                    self.tenant_quota
                ),
            });
        }
        if !g.queues.contains_key(tenant) {
            g.order.push(tenant.to_string());
            g.queues.insert(tenant.to_string(), VecDeque::new());
        }
        g.queues
            .get_mut(tenant)
            .expect("tenant queue")
            .push_back(item);
        *g.inflight.entry(tenant.to_string()).or_insert(0) += 1;
        g.queued += 1;
        drop(g);
        self.cv.notify_all();
        Ok(())
    }

    /// Dequeue the next item round-robin across tenants (non-blocking).
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().expect("unpoisoned admission");
        if g.queued == 0 || g.order.is_empty() {
            return None;
        }
        let tenants = g.order.len();
        for step in 0..tenants {
            let idx = (g.cursor + step) % tenants;
            let tenant = g.order[idx].clone();
            if let Some(item) = g.queues.get_mut(&tenant).and_then(VecDeque::pop_front) {
                g.cursor = (idx + 1) % tenants;
                g.queued -= 1;
                return Some(item);
            }
        }
        None
    }

    /// Mark one admitted item finished, releasing its tenant-quota slot.
    pub fn complete(&self, tenant: &str) {
        let mut g = self.inner.lock().expect("unpoisoned admission");
        if let Some(c) = g.inflight.get_mut(tenant) {
            *c = c.saturating_sub(1);
        }
    }

    /// Refuse all future pushes (`admission/shutdown`); already-queued
    /// items still drain through [`Admission::pop`].
    pub fn begin_drain(&self) {
        self.inner.lock().expect("unpoisoned admission").draining = true;
        self.cv.notify_all();
    }

    /// Items currently queued (not yet dequeued by the scheduler).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("unpoisoned admission").queued
    }

    /// No items queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Block up to `timeout` for the queue to become non-empty.
    pub fn wait_for_work(&self, timeout: Duration) {
        let g = self.inner.lock().expect("unpoisoned admission");
        if g.queued > 0 || g.draining {
            return;
        }
        let _ = self
            .cv
            .wait_timeout_while(g, timeout, |g| g.queued == 0 && !g.draining)
            .expect("unpoisoned admission");
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct LatencyRing {
    cap: usize,
    buf: Vec<f64>,
    next: usize,
}

impl LatencyRing {
    fn record(&mut self, ms: f64) {
        if self.buf.len() < self.cap {
            self.buf.push(ms);
        } else {
            self.buf[self.next] = ms;
        }
        self.next = (self.next + 1) % self.cap.max(1);
    }

    fn percentiles(&self) -> (f64, f64) {
        let mut v = self.buf.clone();
        if v.is_empty() {
            return (0.0, 0.0);
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        (percentile(&v, 50.0), percentile(&v, 99.0))
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Live server counters, shared by the workers (writes), the `metrics`
/// introspection op (reads) and the terminal [`TuneEvent::Serve`] record.
pub struct Metrics {
    started: Instant,
    admitted: AtomicUsize,
    completed: AtomicUsize,
    ok: AtomicUsize,
    failed: AtomicUsize,
    rejected: AtomicUsize,
    clamped: AtomicUsize,
    batches: AtomicUsize,
    max_batch: AtomicUsize,
    latencies: Mutex<LatencyRing>,
    /// Completions per tenant (the fairness audit trail).
    tenants: Mutex<BTreeMap<String, u64>>,
    /// Program-store counters at server start: lifetime deltas are
    /// relative to this, so a pre-warmed registry doesn't inflate the
    /// server's own hit rate.
    base_lru: LruStats,
}

impl Metrics {
    fn new(latency_window: usize, base_lru: LruStats) -> Metrics {
        Metrics {
            started: Instant::now(),
            admitted: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            ok: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            clamped: AtomicUsize::new(0),
            batches: AtomicUsize::new(0),
            max_batch: AtomicUsize::new(0),
            latencies: Mutex::new(LatencyRing {
                cap: latency_window.max(1),
                buf: Vec::new(),
                next: 0,
            }),
            tenants: Mutex::new(BTreeMap::new()),
            base_lru,
        }
    }

    fn note_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.max_batch.fetch_max(size, Ordering::Relaxed);
    }

    fn note_outcome(&self, tenant: &str, ok: bool, clamped: bool, latency_ms: f64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if ok {
            self.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        if clamped {
            self.clamped.fetch_add(1, Ordering::Relaxed);
        }
        self.latencies
            .lock()
            .expect("unpoisoned metrics")
            .record(latency_ms);
        *self
            .tenants
            .lock()
            .expect("unpoisoned metrics")
            .entry(tenant.to_string())
            .or_insert(0) += 1;
    }

    fn stats(&self, lru: LruStats) -> ServeStats {
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let (p50, p99) = self
            .latencies
            .lock()
            .expect("unpoisoned metrics")
            .percentiles();
        let delta = lru.since(&self.base_lru);
        ServeStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            completed,
            ok: self.ok.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            clamped: self.clamped.load(Ordering::Relaxed),
            batches,
            max_batch: self.max_batch.load(Ordering::Relaxed),
            mean_batch: if batches == 0 {
                0.0
            } else {
                completed as f64 / batches as f64
            },
            p50_ms: p50,
            p99_ms: p99,
            hits: delta.hits,
            misses: delta.misses,
            tenants: self.tenants.lock().expect("unpoisoned metrics").len(),
            wall_ms: self.started.elapsed().as_secs_f64() * 1e3,
        }
    }
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// One admitted unit of work: a single routine request, or a whole
/// expression DAG — a DAG is scheduled, dispatched and executed as one
/// indivisible unit (never split across batches).
enum Work {
    Single(Request),
    Dag(DagRequest),
}

impl Work {
    /// Parse one request document; a `dag` field selects the DAG schema.
    /// Rejections carry their structured class (`parse`,
    /// `admission/size`, `admission/dag*`).
    fn from_json(doc: &Json) -> Result<Work, Rejection> {
        if doc.get("dag").is_some() {
            DagRequest::from_json(doc).map(Work::Dag)
        } else {
            Request::from_json(doc).map(Work::Single)
        }
    }

    fn tenant_name(&self) -> &str {
        match self {
            Work::Single(r) => r.tenant_name(),
            Work::Dag(d) => d.tenant_name(),
        }
    }

    /// The dynamic-batching key: singles coalesce by `(routine, n)`,
    /// DAGs by `(shape, n)`.  The `dag:` prefix keeps the key spaces
    /// disjoint; same-shape DAGs share a group but each member still
    /// executes as its own unit.
    fn coalesce_key(&self) -> (String, i64) {
        match self {
            Work::Single(r) => (r.routine.name(), r.n),
            Work::Dag(d) => (format!("dag:{}", d.shape()), d.n),
        }
    }
}

struct Pending {
    id: u64,
    work: Work,
    conn: Arc<ConnOut>,
    admitted_at: Instant,
}

struct ServerCtx {
    registry: Arc<Registry>,
    admission: Admission<Pending>,
    metrics: Metrics,
    shutdown: AtomicBool,
    threads: usize,
    conns: AtomicU64,
}

impl ServerCtx {
    fn metrics_json(&self, op: &str) -> Json {
        let s = self.metrics.stats(self.registry.program_stats());
        let lru = self.registry.program_stats().since(&self.metrics.base_lru);
        let (native_entries, native_fallbacks) = oa_gpusim::native::runtime_totals();
        let tenants = Json::Obj(
            self.metrics
                .tenants
                .lock()
                .expect("unpoisoned metrics")
                .iter()
                .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                .collect::<BTreeMap<_, _>>(),
        );
        Json::Obj(BTreeMap::from([
            ("op".to_string(), Json::Str(op.into())),
            ("status".to_string(), Json::Str("ok".into())),
            ("uptime_ms".to_string(), Json::Num(s.wall_ms)),
            (
                "queue_depth".to_string(),
                Json::Int(self.admission.len() as i64),
            ),
            ("admitted".to_string(), Json::Int(s.admitted as i64)),
            ("completed".to_string(), Json::Int(s.completed as i64)),
            ("ok".to_string(), Json::Int(s.ok as i64)),
            ("failed".to_string(), Json::Int(s.failed as i64)),
            ("rejected".to_string(), Json::Int(s.rejected as i64)),
            ("clamped".to_string(), Json::Int(s.clamped as i64)),
            ("batches".to_string(), Json::Int(s.batches as i64)),
            ("max_batch".to_string(), Json::Int(s.max_batch as i64)),
            ("mean_batch".to_string(), Json::Num(s.mean_batch)),
            ("p50_ms".to_string(), Json::Num(s.p50_ms)),
            ("p99_ms".to_string(), Json::Num(s.p99_ms)),
            ("lru_hits".to_string(), Json::Int(lru.hits as i64)),
            ("lru_misses".to_string(), Json::Int(lru.misses as i64)),
            ("lru_evictions".to_string(), Json::Int(lru.evictions as i64)),
            (
                "native_entries".to_string(),
                Json::Int(native_entries as i64),
            ),
            (
                "native_fallbacks".to_string(),
                Json::Int(native_fallbacks as i64),
            ),
            (
                "programs".to_string(),
                Json::Int(self.registry.programs_len() as i64),
            ),
            ("threads".to_string(), Json::Int(self.threads as i64)),
            ("tenants".to_string(), tenants),
        ]))
    }

    fn health_json(&self) -> Json {
        let draining = self.shutdown.load(Ordering::SeqCst);
        Json::Obj(BTreeMap::from([
            ("op".to_string(), Json::Str("health".into())),
            (
                "status".to_string(),
                Json::Str(if draining { "draining" } else { "ok" }.into()),
            ),
            (
                "uptime_ms".to_string(),
                Json::Num(self.metrics.started.elapsed().as_secs_f64() * 1e3),
            ),
            (
                "queue_depth".to_string(),
                Json::Int(self.admission.len() as i64),
            ),
            (
                "connections".to_string(),
                Json::Int(self.conns.load(Ordering::Relaxed) as i64),
            ),
        ]))
    }
}

fn error_line(id: Option<u64>, class: &str, reason: &str) -> String {
    let mut fields = BTreeMap::from([
        ("status".to_string(), Json::Str("error".into())),
        ("class".to_string(), Json::Str(class.into())),
        ("reason".to_string(), Json::Str(reason.into())),
    ]);
    if let Some(id) = id {
        fields.insert("id".to_string(), Json::Int(id as i64));
    }
    Json::Obj(fields).compact()
}

/// One connection's reader loop: split the byte stream into lines
/// (tolerating partial reads — the read timeout exists so the thread
/// can notice a shutdown), answer admin ops inline, and admit requests.
fn handle_conn(stream: Stream, ctx: Arc<ServerCtx>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let out = match stream.try_clone() {
        Ok(w) => Arc::new(ConnOut {
            w: Mutex::new(Box::new(w) as Box<dyn Write + Send>),
        }),
        Err(_) => return,
    };
    ctx.conns.fetch_add(1, Ordering::Relaxed);
    let mut stream = stream;
    let mut acc: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut next_id: u64 = 0;
    'conn: loop {
        match stream.read(&mut chunk) {
            Ok(0) => break 'conn,
            Ok(n) => {
                acc.extend_from_slice(&chunk[..n]);
                while let Some(pos) = acc.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = acc.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line[..line.len() - 1]);
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    if handle_line(line, &mut next_id, &out, &ctx) {
                        break 'conn;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle: a drained server closes readers; a live one
                // keeps waiting for the next line.
                if ctx.shutdown.load(Ordering::SeqCst) && ctx.admission.is_empty() {
                    break 'conn;
                }
            }
            Err(_) => break 'conn,
        }
    }
    ctx.conns.fetch_sub(1, Ordering::Relaxed);
}

/// Process one input line; returns `true` when the connection should
/// close (a `shutdown` op).
fn handle_line(line: &str, next_id: &mut u64, out: &Arc<ConnOut>, ctx: &Arc<ServerCtx>) -> bool {
    let doc = match oa_autotune::json::parse(line) {
        Some(d) => d,
        None => {
            let id = *next_id;
            *next_id += 1;
            ctx.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            out.send_line(&error_line(Some(id), "parse", "not valid JSON"));
            return false;
        }
    };
    if let Some(op) = doc.get("op").and_then(Json::as_str) {
        match op {
            "metrics" => out.send_line(&ctx.metrics_json("metrics").compact()),
            "health" => out.send_line(&ctx.health_json().compact()),
            "shutdown" => {
                ctx.shutdown.store(true, Ordering::SeqCst);
                ctx.admission.begin_drain();
                out.send_line(
                    &Json::Obj(BTreeMap::from([
                        ("op".to_string(), Json::Str("shutdown".into())),
                        ("status".to_string(), Json::Str("draining".into())),
                    ]))
                    .compact(),
                );
            }
            other => out.send_line(&error_line(None, "op", &format!("unknown op `{other}`"))),
        }
        return false;
    }
    let id = *next_id;
    *next_id += 1;
    let work = match Work::from_json(&doc) {
        Ok(w) => w,
        Err(e) => {
            ctx.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            out.send_line(&error_line(Some(id), e.class, &e.reason));
            return false;
        }
    };
    let tenant = work.tenant_name().to_string();
    let pending = Pending {
        id,
        work,
        conn: out.clone(),
        admitted_at: Instant::now(),
    };
    match ctx.admission.push(&tenant, pending) {
        Ok(()) => {
            ctx.metrics.admitted.fetch_add(1, Ordering::Relaxed);
        }
        Err(rej) => {
            ctx.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            out.send_line(&error_line(Some(id), rej.class, &rej.reason));
        }
    }
    false
}

/// Dispatch one coalesced group to the worker pool.
fn dispatch_group(
    ctx: &Arc<ServerCtx>,
    pool: &Pool,
    jobs: &Arc<(Mutex<usize>, Condvar)>,
    trace: TraceMode,
    items: Vec<Pending>,
) {
    ctx.metrics.note_batch(items.len());
    *jobs.0.lock().expect("unpoisoned job counter") += 1;
    let ctx = ctx.clone();
    let jobs = jobs.clone();
    pool.spawn(move || {
        let mut obs = stderr_observer(trace);
        // A group's key is homogeneous, but resolve generically: singles
        // run through the shared-compile group path, each DAG runs as
        // one indivisible unit through the fusion registry.
        let single_reqs: Vec<Request> = items
            .iter()
            .filter_map(|p| match &p.work {
                Work::Single(r) => Some(r.clone()),
                Work::Dag(_) => None,
            })
            .collect();
        let mut single_outcomes = ctx
            .registry
            .run_group_observed(&single_reqs, &mut obs)
            .into_iter();
        for p in &items {
            let latency_ms = p.admitted_at.elapsed().as_secs_f64() * 1e3;
            let (line, ok, clamped) = match &p.work {
                Work::Single(_) => {
                    let outcome = single_outcomes.next().expect("one outcome per single");
                    let (ok, clamped) = match &outcome.status {
                        crate::dispatch::RequestStatus::Ok(o) => (true, o.clamped),
                        crate::dispatch::RequestStatus::Failed { .. } => (false, false),
                    };
                    (outcome.to_json(p.id as usize).compact(), ok, clamped)
                }
                Work::Dag(d) => {
                    let outcome = ctx.registry.run_dag_observed(d, &mut obs);
                    let ok = matches!(outcome.status, DagStatus::Ok(_));
                    (outcome.to_json(p.id as usize).compact(), ok, false)
                }
            };
            ctx.metrics
                .note_outcome(p.work.tenant_name(), ok, clamped, latency_ms);
            p.conn.send_line(&line);
            ctx.admission.complete(p.work.tenant_name());
        }
        let (lock, cv) = &*jobs;
        *lock.lock().expect("unpoisoned job counter") -= 1;
        cv.notify_all();
    });
}

/// A running server.  Dropping the handle does **not** stop it; call
/// [`Server::shutdown_and_join`] (or send `{"op": "shutdown"}` over any
/// connection and join).
pub struct Server {
    addr: String,
    ctx: Arc<ServerCtx>,
    handle: std::thread::JoinHandle<ServeStats>,
}

impl Server {
    /// The bound address ([`Listener::local_addr`] syntax).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Begin the graceful drain (stop admitting, finish everything
    /// admitted) and block until the server exits, returning its
    /// lifetime totals.
    pub fn shutdown_and_join(self) -> ServeStats {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        self.ctx.admission.begin_drain();
        self.handle.join().expect("server thread panicked")
    }

    /// Block until the server exits on its own (a client `shutdown` op).
    pub fn join(self) -> ServeStats {
        self.handle.join().expect("server thread panicked")
    }
}

/// Start the persistent server on `listener`.
///
/// The returned [`Server`] runs until a `shutdown` op arrives or
/// [`Server::shutdown_and_join`] is called; either way the shutdown is
/// a **graceful drain** — every admitted request is answered, late
/// arrivals are rejected with `admission/shutdown`, and the lifetime
/// [`ServeStats`] are emitted as one [`TuneEvent::Serve`] trace line
/// (under the registry's trace gate, so the stream stays well-formed).
pub fn spawn_server(
    registry: Arc<Registry>,
    listener: Listener,
    cfg: ServeConfig,
    trace: TraceMode,
) -> Server {
    let addr = listener.local_addr();
    let base_lru = registry.program_stats();
    let ctx = Arc::new(ServerCtx {
        registry,
        admission: Admission::new(cfg.queue_cap, cfg.tenant_quota),
        metrics: Metrics::new(cfg.latency_window, base_lru),
        shutdown: AtomicBool::new(false),
        threads: cfg.threads.max(1),
        conns: AtomicU64::new(0),
    });

    // Accept loop: non-blocking so it can observe the shutdown flag.
    let accept_ctx = ctx.clone();
    let accept = std::thread::spawn(move || {
        let unix_path = match &listener {
            Listener::Unix(_, p) => Some(p.clone()),
            Listener::Tcp(_) => None,
        };
        let set_nonblocking = match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l, _) => l.set_nonblocking(true),
        };
        if set_nonblocking.is_err() {
            return;
        }
        while !accept_ctx.shutdown.load(Ordering::SeqCst) {
            let accepted = match &listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            };
            match accepted {
                Ok(stream) => {
                    let conn_ctx = accept_ctx.clone();
                    std::thread::spawn(move || handle_conn(stream, conn_ctx));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(_) => break,
            }
        }
        if let Some(p) = unix_path {
            let _ = std::fs::remove_file(p);
        }
    });

    // Scheduler: admission → coalescer → worker pool, then drain.
    let sched_ctx = ctx.clone();
    let handle = std::thread::spawn(move || {
        let ctx = sched_ctx;
        let pool = Pool::new(ctx.threads);
        let jobs: Arc<(Mutex<usize>, Condvar)> = Arc::new((Mutex::new(0), Condvar::new()));
        let mut coal: Coalescer<(String, i64), Pending> =
            Coalescer::new(cfg.batch_max, cfg.batch_window);
        loop {
            while let Some(p) = ctx.admission.pop() {
                coal.push(p.work.coalesce_key(), p, Instant::now());
            }
            while let Some((_k, items)) = coal.pop_ready(Instant::now()) {
                dispatch_group(&ctx, &pool, &jobs, trace, items);
            }
            if ctx.shutdown.load(Ordering::SeqCst) {
                ctx.admission.begin_drain();
                while let Some(p) = ctx.admission.pop() {
                    coal.push(p.work.coalesce_key(), p, Instant::now());
                }
                while let Some((_k, items)) = coal.pop_oldest() {
                    dispatch_group(&ctx, &pool, &jobs, trace, items);
                }
                break;
            }
            let now = Instant::now();
            let sleep = coal
                .next_deadline()
                .map(|d| d.saturating_duration_since(now))
                .unwrap_or(POLL_INTERVAL)
                .min(POLL_INTERVAL);
            if sleep > Duration::ZERO {
                ctx.admission.wait_for_work(sleep);
            }
        }
        // Wait for every dispatched group to finish, then stop the pool.
        {
            let (lock, cv) = &*jobs;
            let mut count = lock.lock().expect("unpoisoned job counter");
            while *count > 0 {
                count = cv.wait(count).expect("unpoisoned job counter");
            }
        }
        drop(pool);
        let stats = ctx.metrics.stats(ctx.registry.program_stats());
        {
            // The gate keeps this multi-field (single-line) record from
            // splicing into any tune a stray late resolver might emit.
            let _gate = ctx.registry.trace_gate();
            emit(
                trace,
                &TuneEvent::Serve(stats.clone()),
                &mut std::io::stderr().lock(),
            );
        }
        let _ = accept.join();
        stats
    });

    Server { addr, ctx, handle }
}

// ---------------------------------------------------------------------
// Streaming one-shot mode
// ---------------------------------------------------------------------

/// Serve a JSONL request stream **incrementally**: lines are parsed as
/// they arrive, executed by `threads` workers, and each result line is
/// written (in submission order) and flushed as soon as it is ready —
/// a slow producer piping requests in sees results flow, not silence
/// until EOF.
///
/// Invalid lines become structured `{"status":"error","class":"parse"}`
/// results (counted as failed) instead of aborting the stream.  One
/// terminal [`TuneEvent::Batch`] is emitted through `obs` with the run's
/// accounting, which is also returned.
pub fn serve_stream(
    registry: &Registry,
    input: &mut dyn BufRead,
    output: &mut (dyn Write + Send),
    threads: usize,
    trace: TraceMode,
) -> Result<BatchStats, String> {
    let threads = threads.max(1);
    let before = registry.program_stats();
    let t0 = Instant::now();
    let ok_count = AtomicUsize::new(0);
    let failed_count = AtomicUsize::new(0);
    let mut submitted = 0usize;
    let io_err: Mutex<Option<String>> = Mutex::new(None);

    std::thread::scope(|s| {
        let (tx_req, rx_req) = mpsc::sync_channel::<(usize, Work)>(threads * 4);
        let (tx_out, rx_out) = mpsc::channel::<(usize, String)>();
        let rx_req = Arc::new(Mutex::new(rx_req));

        // Workers: pull requests, execute, hand the rendered line to the
        // order-restoring writer.  Tuning events go straight to stderr;
        // the registry's trace gate keeps concurrent tune spans whole.
        for _ in 0..threads {
            let rx_req = rx_req.clone();
            let tx_out = tx_out.clone();
            let ok_count = &ok_count;
            let failed_count = &failed_count;
            s.spawn(move || {
                let mut obs = stderr_observer(trace);
                loop {
                    let job = rx_req.lock().expect("unpoisoned channel").recv();
                    let (id, work) = match job {
                        Ok(j) => j,
                        Err(_) => break,
                    };
                    let (line, ok) = match work {
                        Work::Single(req) => {
                            let outcome = registry.run_one_observed(&req, &mut obs);
                            let ok =
                                matches!(outcome.status, crate::dispatch::RequestStatus::Ok(_));
                            (outcome.to_json(id).compact(), ok)
                        }
                        Work::Dag(dag) => {
                            let outcome = registry.run_dag_observed(&dag, &mut obs);
                            let ok = matches!(outcome.status, DagStatus::Ok(_));
                            (outcome.to_json(id).compact(), ok)
                        }
                    };
                    if ok {
                        ok_count.fetch_add(1, Ordering::Relaxed);
                    } else {
                        failed_count.fetch_add(1, Ordering::Relaxed);
                    }
                    if tx_out.send((id, line)).is_err() {
                        break;
                    }
                }
            });
        }

        // Writer: restore submission order with a reorder buffer and
        // flush per line — the incremental-output contract.
        let writer = s.spawn(move || -> Result<(), String> {
            let mut pendingq: BTreeMap<usize, String> = BTreeMap::new();
            let mut next = 0usize;
            while let Ok((id, line)) = rx_out.recv() {
                pendingq.insert(id, line);
                while let Some(line) = pendingq.remove(&next) {
                    writeln!(output, "{line}").map_err(|e| format!("output: {e}"))?;
                    output.flush().map_err(|e| format!("output: {e}"))?;
                    next += 1;
                }
            }
            Ok(())
        });

        // Reader (this thread): split lines, parse, feed the workers.
        let mut line = String::new();
        loop {
            line.clear();
            match input.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    *io_err.lock().expect("unpoisoned error slot") = Some(format!("input: {e}"));
                    break;
                }
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let id = submitted;
            submitted += 1;
            let parsed = match oa_autotune::json::parse(trimmed) {
                Some(doc) => Work::from_json(&doc),
                None => Err(reject("parse", "not valid JSON")),
            };
            match parsed {
                Ok(work) => {
                    if tx_req.send((id, work)).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    failed_count.fetch_add(1, Ordering::Relaxed);
                    if tx_out
                        .send((id, error_line(Some(id as u64), e.class, &e.reason)))
                        .is_err()
                    {
                        break;
                    }
                }
            }
        }
        drop(tx_req);
        drop(tx_out);
        if let Err(e) = writer.join().expect("writer thread panicked") {
            let mut slot = io_err.lock().expect("unpoisoned error slot");
            if slot.is_none() {
                *slot = Some(e);
            }
        }
    });

    if let Some(e) = io_err.into_inner().expect("unpoisoned error slot") {
        return Err(e);
    }
    let wall = t0.elapsed().as_secs_f64();
    let delta = registry.program_stats().since(&before);
    let stats = BatchStats {
        requests: submitted,
        ok: ok_count.into_inner(),
        failed: failed_count.into_inner(),
        hits: delta.hits,
        misses: delta.misses,
        evictions: delta.evictions,
        threads: threads.min(submitted.max(1)),
        wall_ms: wall * 1e3,
        requests_per_sec: submitted as f64 / wall.max(1e-9),
    };
    {
        let _gate = registry.trace_gate();
        emit(
            trace,
            &TuneEvent::Batch(stats),
            &mut std::io::stderr().lock(),
        );
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_bounds_queue_and_tenant_quota() {
        let adm: Admission<u32> = Admission::new(3, 2);
        assert!(adm.push("a", 1).is_ok());
        assert!(adm.push("a", 2).is_ok());
        // Tenant `a` at quota.
        let rej = adm.push("a", 3).unwrap_err();
        assert_eq!(rej.class, "admission/overload");
        assert!(rej.reason.contains("quota"), "{}", rej.reason);
        // Other tenants still admitted, up to the global cap.
        assert!(adm.push("b", 4).is_ok());
        let rej = adm.push("c", 5).unwrap_err();
        assert!(rej.reason.contains("queue full"), "{}", rej.reason);
        // Completion frees quota but the queue is still full until pops.
        assert_eq!(adm.len(), 3);
        let _ = adm.pop().unwrap();
        assert!(adm.push("c", 5).is_ok());
    }

    #[test]
    fn admission_dequeues_round_robin_across_tenants() {
        let adm: Admission<&'static str> = Admission::new(100, 100);
        // Tenant `flood` submits 4, `a` and `b` one each.
        for item in ["f1", "f2", "f3", "f4"] {
            adm.push("flood", item).unwrap();
        }
        adm.push("a", "a1").unwrap();
        adm.push("b", "b1").unwrap();
        let order: Vec<&str> = std::iter::from_fn(|| adm.pop()).collect();
        // Round-robin: each tenant yields one per cycle, so `a1` and
        // `b1` surface long before the flood drains.
        assert_eq!(order, vec!["f1", "a1", "b1", "f2", "f3", "f4"]);
    }

    #[test]
    fn admission_drain_rejects_new_work_but_pops_old() {
        let adm: Admission<u32> = Admission::new(10, 10);
        adm.push("t", 1).unwrap();
        adm.begin_drain();
        let rej = adm.push("t", 2).unwrap_err();
        assert_eq!(rej.class, "admission/shutdown");
        assert_eq!(adm.pop(), Some(1));
        assert_eq!(adm.pop(), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn latency_ring_wraps_and_keeps_recent_window() {
        let mut r = LatencyRing {
            cap: 4,
            buf: Vec::new(),
            next: 0,
        };
        for ms in [100.0, 100.0, 100.0, 100.0] {
            r.record(ms);
        }
        // Overwrite the window with fast samples: percentiles follow.
        for ms in [1.0, 1.0, 1.0, 1.0] {
            r.record(ms);
        }
        assert_eq!(r.percentiles(), (1.0, 1.0));
        assert_eq!(r.buf.len(), 4);
    }

    #[test]
    fn serve_config_env_overrides() {
        // Not using set_var churn (tests run concurrently); just check
        // the default floor logic.
        let c = ServeConfig::default();
        assert!(c.threads >= 1);
        assert!(c.queue_cap >= 1);
        assert!(c.batch_max >= 1);
    }

    #[test]
    fn listener_binds_tcp_and_unix() {
        let tcp = Listener::bind("127.0.0.1:0").unwrap();
        let addr = tcp.local_addr();
        assert!(addr.contains(':'), "{addr}");
        let path = std::env::temp_dir().join(format!("oa-serve-test-{}.sock", std::process::id()));
        let addr = format!("unix:{}", path.display());
        let unix = Listener::bind(&addr).unwrap();
        assert_eq!(unix.local_addr(), addr);
        drop(unix);
        let _ = std::fs::remove_file(&path);
    }
}
