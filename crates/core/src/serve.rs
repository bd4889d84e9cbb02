//! The one request scheduler behind both `oa serve` modes: the
//! persistent, multi-tenant server of `oa serve --listen` and the
//! one-shot `oa serve FILE|-`.
//!
//! The paper's endgame is a *library*; a library that tunes once and is
//! then consulted repeatedly wants to be a long-lived process, not a
//! batch job.  This module turns the routine [`Registry`] into exactly
//! that, with one scheduling path for every mode:
//!
//! * [`Listener`] — one JSONL protocol over TCP (`host:port`) or a Unix
//!   domain socket (`unix:/path`);
//! * [`Admission`] — the only queue: a global queue cap and a
//!   per-tenant in-flight quota, both answered with a structured JSONL
//!   rejection (`admission/overload`, `admission/shutdown`) instead of
//!   unbounded buffering, and a round-robin dequeue so one flooding
//!   tenant cannot starve the rest;
//! * workers — `threads` threads pop [`Admission`] directly, run each
//!   request through the registry under [`oa_gpusim::in_place`]
//!   (request-level parallelism owns the machine, so the engines'
//!   block-parallel regions stay inline) and answer on the request's own
//!   connection;
//! * [`Metrics`] — live counters (queue depth, LRU hit rate, per-tenant
//!   completions, p50/p99 latency, process-wide native region
//!   entries/fallbacks) served over the same socket via
//!   `{"op": "metrics"}` / `{"op": "health"}`, and folded into one
//!   terminal [`TuneEvent::Serve`] record after the graceful drain — the
//!   durable trace line `oa trace-check` validates;
//! * [`serve_stream`] — the one-shot mode: the same workers and queue
//!   with a single connection, the input stream in and the output stream
//!   out.  That connection writes answers in submission order, each
//!   flushed as soon as it and everything before it is ready, and its
//!   reader waits for room in a full queue instead of being refused.
//!
//! Scheduling metadata (the `tenant` field) never reaches the engines:
//! results served concurrently, under any tenant mix, are bit-identical
//! to a sequential run of the same requests — the server test battery
//! pins this digest-for-digest.

use crate::dag::{DagRequest, DagStatus};
use crate::dispatch::{reject, Registry, Rejection, Request, RequestStatus};
use crate::trace::{emit, stderr_observer, TraceMode};
use oa_autotune::json::Json;
use oa_autotune::report::ServeStats;
use oa_autotune::TuneEvent;
use oa_gpusim::LruStats;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a blocked socket read or an idle accept may last before
/// re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// Server tuning knobs.  [`ServeConfig::from_env`] reads the
/// `OA_SERVE_*` environment overrides; the CLI flags override both.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads popping the admission queue.
    pub threads: usize,
    /// Global admission-queue bound: requests beyond this many queued
    /// are rejected (`admission/overload`), never buffered unboundedly.
    pub queue_cap: usize,
    /// Per-tenant in-flight bound (queued + executing).
    pub tenant_quota: usize,
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
            latency_window: 4096,
        }
    }
}

impl ServeConfig {
    /// The defaults with `OA_SERVE_QUEUE_CAP` and
    /// `OA_SERVE_TENANT_QUOTA` applied.
    pub fn from_env() -> ServeConfig {
        let mut c = ServeConfig::default();
        if let Some(v) = env_usize("OA_SERVE_QUEUE_CAP") {
            c.queue_cap = v.max(1);
        }
        if let Some(v) = env_usize("OA_SERVE_TENANT_QUOTA") {
            c.tenant_quota = v.max(1);
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

/// The write half of one connection, shared between its reader (for
/// immediate answers) and every worker serving its requests.  Each line
/// goes out as a single `line\n` write under the lock: a separate `\n`
/// write would sit behind the client's delayed ACK on a Nagle socket.  A
/// client that hung up just makes writes no-ops (the request still
/// completes and is accounted); the first write error is kept for the
/// one-shot mode to report.
struct ConnOut<'a> {
    /// The one-shot connection: answers are written in submission order,
    /// `op` lines are ordinary (malformed) requests, and a full admission
    /// queue makes its reader wait instead of refusing.
    one_shot: bool,
    w: Mutex<ConnWriter<'a>>,
}

struct ConnWriter<'a> {
    out: Box<dyn Write + Send + 'a>,
    /// One-shot order restoration: the next id to write, and the answers
    /// that became ready before it.
    next: u64,
    parked: BTreeMap<u64, String>,
    error: Option<String>,
}

impl ConnWriter<'_> {
    fn write_line(&mut self, mut line: String) {
        line.push('\n');
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.flush())
        {
            self.error.get_or_insert_with(|| format!("output: {e}"));
        }
    }
}

impl<'a> ConnOut<'a> {
    fn new(out: Box<dyn Write + Send + 'a>, one_shot: bool) -> ConnOut<'a> {
        ConnOut {
            one_shot,
            w: Mutex::new(ConnWriter {
                out,
                next: 0,
                parked: BTreeMap::new(),
                error: None,
            }),
        }
    }

    /// Answer request `id` (`None`: an admin op, answered at once).
    fn send(&self, id: Option<u64>, line: String) {
        let mut guard = self.w.lock().expect("unpoisoned connection");
        let w = &mut *guard;
        match id {
            Some(id) if self.one_shot => {
                w.parked.insert(id, line);
                while let Some(line) = w.parked.remove(&w.next) {
                    w.write_line(line);
                    w.next += 1;
                }
            }
            _ => w.write_line(line),
        }
    }

    /// The first write error, if any.
    fn error(&self) -> Option<String> {
        self.w.lock().expect("unpoisoned connection").error.clone()
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

impl<T> AdmissionInner<T> {
    /// Why `tenant` cannot be admitted right now, if it cannot.
    fn refusal(&self, tenant: &str, queue_cap: usize, tenant_quota: usize) -> Option<Rejection> {
        if self.draining {
            return Some(reject("admission/shutdown", "server is draining"));
        }
        if self.queued >= queue_cap {
            return Some(reject(
                "admission/overload",
                format!("admission queue full ({} queued)", self.queued),
            ));
        }
        let inflight = self.inflight.get(tenant).copied().unwrap_or(0);
        (inflight >= tenant_quota).then(|| {
            reject(
                "admission/overload",
                format!("tenant `{tenant}` over its in-flight quota ({inflight}/{tenant_quota})"),
            )
        })
    }

    /// Dequeue the next item round-robin across tenants.
    fn take(&mut self) -> Option<T> {
        let tenants = self.order.len();
        for step in 0..tenants {
            let idx = (self.cursor + step) % tenants;
            if let Some(item) = self
                .queues
                .get_mut(&self.order[idx])
                .and_then(VecDeque::pop_front)
            {
                self.cursor = (idx + 1) % tenants;
                self.queued -= 1;
                return Some(item);
            }
        }
        None
    }
}

/// The bounded, tenant-fair admission queue — the server's only queue.
///
/// [`Admission::push`] never blocks: over the global cap or the tenant
/// quota it returns a [`Rejection`] for the caller to answer immediately
/// — backpressure is explicit and bounded, the server cannot OOM on a
/// flood.  [`Admission::push_wait`] (the one-shot reader) waits for room
/// instead.  Workers dequeue round-robin across tenants, so tenants share
/// dequeue bandwidth evenly no matter how unevenly they submit.
pub struct Admission<T> {
    inner: Mutex<AdmissionInner<T>>,
    /// Signalled when an item is queued or the drain begins.
    work: Condvar,
    /// Signalled when a queue slot or a quota slot frees up.
    room: Condvar,
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
            work: Condvar::new(),
            room: Condvar::new(),
            queue_cap: queue_cap.max(1),
            tenant_quota: tenant_quota.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AdmissionInner<T>> {
        self.inner.lock().expect("unpoisoned admission")
    }

    /// Admit one item for `tenant`, or reject it with a structured
    /// reason.  Admission raises the tenant's in-flight count; the
    /// caller must pair every admitted item with one [`Admission::complete`].
    pub fn push(&self, tenant: &str, item: T) -> Result<(), Rejection> {
        self.admit(tenant, item, false)
    }

    /// [`Admission::push`] that waits for a queue and quota slot instead
    /// of answering `admission/overload`; only a drain refuses it.
    pub fn push_wait(&self, tenant: &str, item: T) -> Result<(), Rejection> {
        self.admit(tenant, item, true)
    }

    fn admit(&self, tenant: &str, item: T, wait: bool) -> Result<(), Rejection> {
        let mut g = self.lock();
        while let Some(rej) = g.refusal(tenant, self.queue_cap, self.tenant_quota) {
            if !wait || rej.class != "admission/overload" {
                return Err(rej);
            }
            g = self.room.wait(g).expect("unpoisoned admission");
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
        self.work.notify_one();
        Ok(())
    }

    /// Block for the next item, round-robin across tenants; `None` once
    /// the drain has begun and the queue is empty — a worker's signal to
    /// exit.
    pub fn pop(&self) -> Option<T> {
        let item = self
            .work
            .wait_while(self.lock(), |g| g.queued == 0 && !g.draining)
            .expect("unpoisoned admission")
            .take();
        self.room.notify_all();
        item
    }

    /// Mark one admitted item finished, releasing its tenant-quota slot.
    pub fn complete(&self, tenant: &str) {
        if let Some(c) = self.lock().inflight.get_mut(tenant) {
            *c = c.saturating_sub(1);
        }
        self.room.notify_all();
    }

    /// Refuse all future pushes (`admission/shutdown`); already-queued
    /// items still drain through [`Admission::pop`].
    pub fn begin_drain(&self) {
        self.lock().draining = true;
        self.work.notify_all();
        self.room.notify_all();
    }

    /// Items currently queued (not yet dequeued by a worker).
    pub fn len(&self) -> usize {
        self.lock().queued
    }

    /// No items queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
            latencies: Mutex::new(LatencyRing {
                cap: latency_window.max(1),
                buf: Vec::new(),
                next: 0,
            }),
            tenants: Mutex::new(BTreeMap::new()),
            base_lru,
        }
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
        let (p50, p99) = self
            .latencies
            .lock()
            .expect("unpoisoned metrics")
            .percentiles();
        let delta = lru.since(&self.base_lru);
        ServeStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            clamped: self.clamped.load(Ordering::Relaxed),
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
/// expression DAG — a DAG is scheduled and executed as one indivisible
/// unit.
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
}

struct Pending<'a> {
    id: u64,
    work: Work,
    conn: Arc<ConnOut<'a>>,
    admitted_at: Instant,
}

/// Everything one server run shares: the registry, the admission queue,
/// the counters and the shutdown flag.  `'a` bounds the borrowed
/// registry and every connection's writer.
struct ServerCtx<'a> {
    registry: &'a Registry,
    admission: Admission<Pending<'a>>,
    metrics: Metrics,
    /// Set by a `shutdown` op or [`Server::shutdown_and_join`]: the
    /// accept loop stops and idle readers close.
    shutdown: Arc<AtomicBool>,
    threads: usize,
    conns: AtomicU64,
}

impl<'a> ServerCtx<'a> {
    fn new(registry: &'a Registry, cfg: &ServeConfig, shutdown: Arc<AtomicBool>) -> ServerCtx<'a> {
        ServerCtx {
            registry,
            admission: Admission::new(cfg.queue_cap, cfg.tenant_quota),
            metrics: Metrics::new(cfg.latency_window, registry.program_stats()),
            shutdown,
            threads: cfg.threads.max(1),
            conns: AtomicU64::new(0),
        }
    }

    /// Start the workers on `scope`: each pops admission until the drain
    /// empties it, runs the request and answers on its connection.
    fn spawn_workers<'s>(&'s self, scope: &'s std::thread::Scope<'s, '_>, trace: TraceMode) {
        for _ in 0..self.threads {
            scope.spawn(move || {
                let mut obs = stderr_observer(trace);
                while let Some(p) = self.admission.pop() {
                    oa_gpusim::in_place(|| self.execute(p, &mut obs));
                }
            });
        }
    }

    fn execute(&self, p: Pending<'a>, obs: &mut dyn FnMut(TuneEvent)) {
        let (line, ok, clamped) = match &p.work {
            Work::Single(req) => {
                let outcome = self.registry.run_one_observed(req, obs);
                let (ok, clamped) = match &outcome.status {
                    RequestStatus::Ok(o) => (true, o.clamped),
                    RequestStatus::Failed { .. } => (false, false),
                };
                (outcome.to_json(p.id as usize).compact(), ok, clamped)
            }
            Work::Dag(dag) => {
                let outcome = self.registry.run_dag_observed(dag, obs);
                let ok = matches!(outcome.status, DagStatus::Ok(_));
                (outcome.to_json(p.id as usize).compact(), ok, false)
            }
        };
        let tenant = p.work.tenant_name();
        let latency_ms = p.admitted_at.elapsed().as_secs_f64() * 1e3;
        self.metrics.note_outcome(tenant, ok, clamped, latency_ms);
        p.conn.send(Some(p.id), line);
        self.admission.complete(tenant);
    }

    /// Answer request `id` with a refusal that kept it out of admission.
    fn refuse(&self, conn: &ConnOut<'a>, id: u64, rej: Rejection) {
        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        conn.send(Some(id), error_line(Some(id), rej.class, &rej.reason));
    }

    /// The lifetime totals, emitted as the one terminal `serve` record.
    /// The gate keeps this line from splicing into a tune span a late
    /// resolver might still be emitting.
    fn finish(&self, trace: TraceMode) -> ServeStats {
        let stats = self.metrics.stats(self.registry.program_stats());
        let _gate = self.registry.trace_gate();
        emit(
            trace,
            &TuneEvent::Serve(stats.clone()),
            &mut std::io::stderr().lock(),
        );
        stats
    }

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

/// One socket connection's reader loop: split the byte stream into lines
/// (tolerating partial reads — the read timeout exists so the thread
/// can notice a shutdown), answer admin ops inline, and admit requests.
fn handle_conn(stream: Stream, ctx: &ServerCtx<'_>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let out = match stream.try_clone() {
        Ok(w) => Arc::new(ConnOut::new(Box::new(w), false)),
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
                    if handle_line(line, &mut next_id, &out, ctx) {
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
fn handle_line<'a>(
    line: &str,
    next_id: &mut u64,
    out: &Arc<ConnOut<'a>>,
    ctx: &ServerCtx<'a>,
) -> bool {
    let doc = oa_autotune::json::parse(line);
    let op = doc
        .as_ref()
        .and_then(|d| d.get("op"))
        .and_then(Json::as_str)
        .filter(|_| !out.one_shot);
    if let Some(op) = op {
        let answer = match op {
            "metrics" => ctx.metrics_json("metrics").compact(),
            "health" => ctx.health_json().compact(),
            "shutdown" => {
                ctx.shutdown.store(true, Ordering::SeqCst);
                ctx.admission.begin_drain();
                Json::Obj(BTreeMap::from([
                    ("op".to_string(), Json::Str("shutdown".into())),
                    ("status".to_string(), Json::Str("draining".into())),
                ]))
                .compact()
            }
            other => error_line(None, "op", &format!("unknown op `{other}`")),
        };
        out.send(None, answer);
        return false;
    }
    let id = *next_id;
    *next_id += 1;
    let work = match doc.as_ref().map(Work::from_json) {
        Some(Ok(w)) => w,
        Some(Err(rej)) => {
            ctx.refuse(out, id, rej);
            return false;
        }
        None => {
            ctx.refuse(out, id, reject("parse", "not valid JSON"));
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
    let admitted = if out.one_shot {
        ctx.admission.push_wait(&tenant, pending)
    } else {
        ctx.admission.push(&tenant, pending)
    };
    match admitted {
        Ok(()) => {
            ctx.metrics.admitted.fetch_add(1, Ordering::Relaxed);
        }
        Err(rej) => ctx.refuse(out, id, rej),
    }
    false
}

/// A running server.  Dropping the handle does **not** stop it; call
/// [`Server::shutdown_and_join`] (or send `{"op": "shutdown"}` over any
/// connection and join).
pub struct Server {
    addr: String,
    shutdown: Arc<AtomicBool>,
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
        self.shutdown.store(true, Ordering::SeqCst);
        self.join()
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
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let handle = std::thread::spawn(move || {
        let ctx = ServerCtx::new(&registry, &cfg, flag);
        std::thread::scope(|s| {
            ctx.spawn_workers(s, trace);
            // Accept loop: non-blocking so it can observe the shutdown
            // flag; a failed accept is retried on the next poll.
            let nonblocking = match &listener {
                Listener::Tcp(l) => l.set_nonblocking(true),
                Listener::Unix(l, _) => l.set_nonblocking(true),
            };
            while nonblocking.is_ok() && !ctx.shutdown.load(Ordering::SeqCst) {
                let accepted = match &listener {
                    Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
                    Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
                };
                match accepted {
                    Ok(stream) => {
                        let ctx = &ctx;
                        s.spawn(move || handle_conn(stream, ctx));
                    }
                    Err(_) => std::thread::sleep(POLL_INTERVAL),
                }
            }
            ctx.admission.begin_drain();
        });
        if let Listener::Unix(_, p) = &listener {
            let _ = std::fs::remove_file(p);
        }
        ctx.finish(trace)
    });
    Server {
        addr,
        shutdown,
        handle,
    }
}

/// Serve a JSONL request stream: the server above with `input` →
/// `output` as its only connection.  Lines are admitted as they arrive
/// (waiting for room when the queue is full), executed by `threads`
/// workers, and each answer is written in submission order and flushed
/// as soon as it and everything before it is ready — a slow producer
/// piping requests in sees results flow, not silence until EOF.
///
/// Invalid lines become structured `{"status":"error","class":"parse"}`
/// answers (counted as rejected) instead of aborting the stream.  The
/// run ends on the same terminal [`TuneEvent::Serve`] record as the
/// listening server; its totals are also returned.
pub fn serve_stream(
    registry: &Registry,
    input: &mut dyn BufRead,
    output: &mut (dyn Write + Send),
    threads: usize,
    trace: TraceMode,
) -> Result<ServeStats, String> {
    let conn = Arc::new(ConnOut::new(Box::new(output), true));
    let cfg = ServeConfig {
        threads,
        ..ServeConfig::default()
    };
    let ctx = ServerCtx::new(registry, &cfg, Arc::default());
    let read = std::thread::scope(|s| {
        ctx.spawn_workers(s, trace);
        let mut line = String::new();
        let mut next_id = 0u64;
        let read = loop {
            line.clear();
            match input.read_line(&mut line) {
                Ok(0) => break Ok(()),
                Ok(_) => {}
                Err(e) => break Err(format!("input: {e}")),
            }
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                handle_line(trimmed, &mut next_id, &conn, &ctx);
            }
            // A closed output ends the run: nobody reads further answers.
            if conn.error().is_some() {
                break Ok(());
            }
        };
        ctx.admission.begin_drain();
        read
    });
    let stats = ctx.finish(trace);
    read?;
    match conn.error() {
        Some(e) => Err(e),
        None => Ok(stats),
    }
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
        adm.begin_drain();
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
        assert!(c.tenant_quota >= 1);
    }

    /// A `Write` fake that counts `write` calls.
    struct CountingWriter {
        writes: Arc<AtomicUsize>,
        bytes: Arc<Mutex<Vec<u8>>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.fetch_add(1, Ordering::SeqCst);
            self.bytes.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn counting_conn(one_shot: bool) -> (ConnOut<'static>, Arc<AtomicUsize>, Arc<Mutex<Vec<u8>>>) {
        let writes = Arc::new(AtomicUsize::new(0));
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let w = CountingWriter {
            writes: writes.clone(),
            bytes: bytes.clone(),
        };
        (ConnOut::new(Box::new(w), one_shot), writes, bytes)
    }

    #[test]
    fn each_answer_is_one_write() {
        // A line and its newline in separate writes make a Nagle socket
        // hold the newline until the client's delayed ACK (~40 ms).
        let (conn, writes, bytes) = counting_conn(false);
        conn.send(Some(0), "{\"id\":0}".into());
        conn.send(None, "{\"op\":\"health\"}".into());
        conn.send(Some(1), "{\"id\":1}".into());
        assert_eq!(writes.load(Ordering::SeqCst), 3);
        assert_eq!(
            String::from_utf8(bytes.lock().unwrap().clone()).unwrap(),
            "{\"id\":0}\n{\"op\":\"health\"}\n{\"id\":1}\n"
        );
    }

    #[test]
    fn one_shot_connection_writes_in_submission_order() {
        let (conn, writes, bytes) = counting_conn(true);
        conn.send(Some(2), "c".into());
        conn.send(Some(1), "b".into());
        assert_eq!(writes.load(Ordering::SeqCst), 0, "held until id 0 is ready");
        conn.send(Some(0), "a".into());
        conn.send(Some(3), "d".into());
        assert_eq!(writes.load(Ordering::SeqCst), 4, "one write per line");
        assert_eq!(bytes.lock().unwrap().as_slice(), b"a\nb\nc\nd\n");
    }

    #[test]
    fn push_wait_blocks_for_room_instead_of_refusing() {
        let adm: Arc<Admission<u32>> = Arc::new(Admission::new(1, 10));
        adm.push("t", 1).unwrap();
        assert_eq!(adm.push("t", 2).unwrap_err().class, "admission/overload");
        let waiter = {
            let adm = adm.clone();
            std::thread::spawn(move || adm.push_wait("t", 2))
        };
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(adm.len(), 1, "the waiting push must not overfill the queue");
        assert_eq!(adm.pop(), Some(1));
        waiter.join().unwrap().unwrap();
        assert_eq!(adm.pop(), Some(2));
        // Draining wakes idle workers with `None` and refuses waiters.
        adm.begin_drain();
        assert_eq!(adm.pop(), None);
        assert_eq!(
            adm.push_wait("t", 3).unwrap_err().class,
            "admission/shutdown"
        );
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
