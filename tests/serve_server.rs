//! The persistent-server battery: `oa serve --listen` semantics,
//! exercised in-process through `oa_core::serve`.
//!
//! The contract under test, end to end:
//!
//! * results served concurrently — many clients, many tenants — are
//!   **bit-identical** (digest for digest) to running the same requests
//!   one at a time through the registry;
//! * backpressure is explicit: over the queue cap or tenant quota every
//!   request still gets exactly one well-formed JSONL answer, rejected
//!   lines carrying a stable `admission/...` class, and the queue cap
//!   really bounds what a busy server holds;
//! * shutdown is a graceful drain: everything admitted is answered,
//!   and the terminal accounting shows `admitted == completed`;
//! * introspection (`metrics` / `health`) answers over the same socket;
//! * the streaming one-shot mode emits each result before consuming
//!   further input (the anti-slurp regression test);
//! * concurrent resolvers of one cold routine run **one** tuning sweep
//!   (in-flight deduplication), not one per thread.

use oa_core::dispatch::{Registry, Request, RequestStatus};
use oa_core::serve::{serve_stream, spawn_server, Listener, ServeConfig};
use oa_core::testutil::shared_tune_cache_path;
use oa_core::trace::TraceMode;
use oa_core::{DeviceSpec, RoutineId, TuneEvent};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn registry() -> Registry {
    Registry::new(DeviceSpec::gtx285()).with_tune_cache(shared_tune_cache_path())
}

fn config(threads: usize) -> ServeConfig {
    ServeConfig {
        threads,
        ..ServeConfig::default()
    }
}

/// Connect, send `lines`, read `expect` response lines (any order).
fn drive(addr: &str, lines: &[String], expect: usize) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut w = stream.try_clone().expect("clone");
    for line in lines {
        writeln!(w, "{line}").expect("send");
    }
    w.flush().expect("flush");
    let mut r = BufReader::new(stream);
    let mut out = Vec::with_capacity(expect);
    for _ in 0..expect {
        let mut line = String::new();
        let n = r.read_line(&mut line).expect("response line");
        assert!(n > 0, "connection closed after {} of {expect}", out.len());
        out.push(line.trim().to_string());
    }
    out
}

fn field<'a>(doc: &'a oa_core::autotune::json::Json, k: &str) -> &'a oa_core::autotune::json::Json {
    doc.get(k).unwrap_or_else(|| panic!("missing `{k}`"))
}

fn parse(line: &str) -> oa_core::autotune::json::Json {
    oa_core::autotune::json::parse(line).unwrap_or_else(|| panic!("not JSON: {line}"))
}

/// Three tenants on three concurrent connections, interleaved by the
/// server's workers, must produce the same digests as serving
/// each request alone — and clamped sizes must say so.
#[test]
fn concurrent_tenants_match_sequential_digests() {
    let server = spawn_server(
        Arc::new(registry()),
        Listener::bind("127.0.0.1:0").expect("bind"),
        config(2),
        TraceMode::Off,
    );
    let addr = server.addr().to_string();

    // Per-tenant request mixes; small sizes keep the suite fast and
    // n = 16 exercises the clamped-class path (16 → class 64).
    let mixes: Vec<(String, Vec<Request>)> = ["alice", "bob", "carol"]
        .iter()
        .enumerate()
        .map(|(t, name)| {
            let mut reqs = Vec::new();
            for i in 0..4u64 {
                let mut r = Request::new(RoutineId::parse("GEMM-NN").unwrap(), 16);
                r.seed = 100 * t as u64 + i;
                r.tenant = Some(name.to_string());
                reqs.push(r);
                let mut r = Request::new(RoutineId::parse("SYMM-LL").unwrap(), 32);
                r.seed = 500 + 100 * t as u64 + i;
                r.tenant = Some(name.to_string());
                reqs.push(r);
            }
            (name.to_string(), reqs)
        })
        .collect();

    let handles: Vec<_> = mixes
        .iter()
        .map(|(_, reqs)| {
            let addr = addr.clone();
            let lines: Vec<String> = reqs.iter().map(|r| r.to_json().compact()).collect();
            let count = lines.len();
            std::thread::spawn(move || drive(&addr, &lines, count))
        })
        .collect();
    let responses: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let stats = server.shutdown_and_join();
    assert_eq!(stats.admitted, stats.completed, "drain lost requests");
    assert_eq!(stats.tenants, 3);
    assert!(stats.clamped >= 12, "n=16 responses must count as clamped");

    // Sequential reference on a second registry sharing the tune cache.
    let reference = registry();
    for ((_, reqs), resp) in mixes.iter().zip(&responses) {
        // Index the tenant's responses by id (workers reorder them).
        let by_id: HashMap<i64, oa_core::autotune::json::Json> = resp
            .iter()
            .map(|line| {
                let doc = parse(line);
                (field(&doc, "id").as_i64().expect("id"), doc)
            })
            .collect();
        for (id, req) in reqs.iter().enumerate() {
            let doc = &by_id[&(id as i64)];
            assert_eq!(field(doc, "status").as_str(), Some("ok"), "{doc:?}");
            let served = field(doc, "digest").as_str().expect("digest").to_string();
            let outcome = reference.run_one(req);
            let expected = match outcome.status {
                RequestStatus::Ok(ok) => format!("{:016x}", ok.digest),
                RequestStatus::Failed { class, reason } => {
                    panic!("reference failed ({class}): {reason}")
                }
            };
            assert_eq!(
                served,
                expected,
                "digest diverged for {} n={} seed={}",
                req.routine.name(),
                req.n,
                req.seed
            );
            if req.n == 16 {
                assert_eq!(
                    doc.get("clamped").and_then(|v| v.as_bool()),
                    Some(true),
                    "n=16 must surface the clamped tuning class: {doc:?}"
                );
            }
        }
    }
}

/// Over the tenant quota, requests are rejected — each with exactly one
/// well-formed JSONL error line — and everything admitted still
/// completes.  The flood never crashes or stalls the server.
#[test]
fn backpressure_rejects_with_structured_lines() {
    // Pre-warm so the admitted requests finish fast.
    let reg = registry();
    let _ = reg.run_one(&Request::new(RoutineId::parse("GEMM-NN").unwrap(), 16));

    let mut cfg = config(1);
    cfg.tenant_quota = 1;
    cfg.queue_cap = 2;
    let server = spawn_server(
        Arc::new(reg),
        Listener::bind("127.0.0.1:0").expect("bind"),
        cfg,
        TraceMode::Off,
    );

    let total = 40;
    let lines: Vec<String> = (0..total)
        .map(|i| {
            let mut r = Request::new(RoutineId::parse("GEMM-NN").unwrap(), 16);
            r.seed = i as u64;
            r.tenant = Some("flood".into());
            r.to_json().compact()
        })
        .collect();
    let responses = drive(server.addr(), &lines, total);

    let mut ok = 0usize;
    let mut rejected = 0usize;
    let mut seen_ids = std::collections::HashSet::new();
    for line in &responses {
        let doc = parse(line);
        assert!(
            seen_ids.insert(field(&doc, "id").as_i64().expect("id")),
            "duplicate response id: {line}"
        );
        match field(&doc, "status").as_str().expect("status") {
            "ok" => ok += 1,
            "error" => {
                let class = field(&doc, "class").as_str().expect("class");
                assert_eq!(class, "admission/overload", "{line}");
                assert!(field(&doc, "reason").as_str().is_some(), "{line}");
                rejected += 1;
            }
            other => panic!("unexpected status `{other}`: {line}"),
        }
    }
    assert_eq!(ok + rejected, total);
    assert!(ok >= 1, "nothing was admitted");
    assert!(rejected >= 1, "flood produced no backpressure rejection");

    let stats = server.shutdown_and_join();
    assert_eq!(stats.admitted, stats.completed);
    assert_eq!(stats.rejected, rejected);
}

/// The queue cap bounds what a busy server holds: with its one worker
/// stuck in a cold tune, at most `queue_cap` more requests are admitted
/// — distinct tenants do not get around it — and the rest are refused
/// with `admission/overload`, while `metrics` reports the real depth.
#[test]
fn queue_cap_bounds_a_busy_server() {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    // A directory of its own, so no cost-model artifact sits next to
    // the cache and shortens the tune.
    let dir =
        std::env::temp_dir().join(format!("oa-serve-queue-cap-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let reg = Registry::new(DeviceSpec::gtx285()).with_tune_cache(dir.join("cache.json"));
    let mut cfg = config(1);
    cfg.queue_cap = 4;
    let server = spawn_server(
        Arc::new(reg),
        Listener::bind("127.0.0.1:0").expect("bind"),
        cfg,
        TraceMode::Off,
    );
    // A cold TRMM first: its tune (about a second) keeps the only worker
    // busy.  Then 12 requests from 12 distinct tenants, spaced out so a
    // scheduler that moved admitted work into a second, unbounded queue
    // would have drained admission between arrivals; then a metrics
    // probe.
    let mut lines = vec![Request::new(RoutineId::parse("TRMM-LL-N").unwrap(), 256)
        .to_json()
        .compact()];
    lines.extend((0..12u64).map(|i| {
        let mut r = Request::new(RoutineId::parse("GEMM-NN").unwrap(), 16);
        r.seed = i;
        r.tenant = Some(format!("t{i}"));
        r.to_json().compact()
    }));
    lines.push(r#"{"op":"metrics"}"#.to_string());
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut w = stream.try_clone().expect("clone");
    for line in &lines {
        writeln!(w, "{line}").expect("send");
        w.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut r = BufReader::new(stream);
    let responses: Vec<String> = (0..lines.len())
        .map(|_| {
            let mut line = String::new();
            assert!(r.read_line(&mut line).expect("response line") > 0);
            line
        })
        .collect();
    let stats = server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);

    let mut overload = 0usize;
    let mut metrics = None;
    for line in &responses {
        let doc = parse(line);
        if doc.get("op").is_some() {
            metrics = Some(doc);
            continue;
        }
        if field(&doc, "status").as_str() == Some("error") {
            assert_eq!(field(&doc, "class").as_str(), Some("admission/overload"));
            let reason = field(&doc, "reason").as_str().unwrap();
            assert!(reason.contains("queue full"), "{line}");
            overload += 1;
        }
    }
    assert!(
        stats.admitted <= 1 + 4,
        "{} admitted past a queue cap of 4 while the worker was busy",
        stats.admitted
    );
    assert_eq!(
        overload,
        13 - stats.admitted,
        "every refusal is a full queue"
    );
    assert_eq!(stats.rejected, overload);
    let depth = field(&metrics.expect("metrics answer"), "queue_depth")
        .as_i64()
        .unwrap();
    assert!(depth <= 4, "queue_depth {depth} exceeds the cap");
}

/// A shutdown op is a graceful drain: every request sent before it is
/// answered with a terminal status (including the TRSM size-constraint
/// admission error), and the terminal stats balance.
#[test]
fn graceful_shutdown_drains_in_flight() {
    let server = spawn_server(
        Arc::new(registry()),
        Listener::bind("127.0.0.1:0").expect("bind"),
        config(2),
        TraceMode::Off,
    );

    let mut lines: Vec<String> = (0..6u64)
        .map(|i| {
            let mut r = Request::new(RoutineId::parse("GEMM-NN").unwrap(), 16);
            r.seed = i;
            r.to_json().compact()
        })
        .collect();
    // An off-tile TRSM: must come back as a structured admission error,
    // not a deep launch failure.
    lines.push(
        Request::new(RoutineId::parse("TRSM-LL-N").unwrap(), 96)
            .to_json()
            .compact(),
    );
    lines.push(r#"{"op":"shutdown"}"#.to_string());
    let responses = drive(server.addr(), &lines, 8);
    let stats = server.join();

    let mut terminal = 0usize;
    let mut trsm_class = None;
    for line in &responses {
        let doc = parse(line);
        if doc.get("op").is_some() {
            assert_eq!(field(&doc, "status").as_str(), Some("draining"));
            continue;
        }
        terminal += 1;
        if field(&doc, "routine").as_str() == Some("TRSM-LL-N") {
            trsm_class = field(&doc, "class").as_str().map(String::from);
        } else {
            assert_eq!(field(&doc, "status").as_str(), Some("ok"), "{line}");
        }
    }
    assert_eq!(terminal, 7, "a request was dropped in the drain");
    assert_eq!(trsm_class.as_deref(), Some("admission/size-constraint"));
    assert_eq!(stats.admitted, stats.completed);
    assert_eq!(stats.ok + stats.failed, stats.completed);
    assert_eq!(stats.failed, 1, "only the TRSM admission failure");
}

/// `metrics` and `health` answer over the same socket with live counts.
#[test]
fn metrics_and_health_introspection() {
    let server = spawn_server(
        Arc::new(registry()),
        Listener::bind("127.0.0.1:0").expect("bind"),
        config(1),
        TraceMode::Off,
    );

    let req = {
        let mut r = Request::new(RoutineId::parse("GEMM-NN").unwrap(), 16);
        r.tenant = Some("probe".into());
        r.to_json().compact()
    };
    // Request first, ops after it completes (responses arrive in
    // whatever order; reading 1 after sending 1 serializes things).
    let first = drive(server.addr(), std::slice::from_ref(&req), 1);
    assert_eq!(field(&parse(&first[0]), "status").as_str(), Some("ok"));

    let ops = vec![
        r#"{"op":"metrics"}"#.to_string(),
        r#"{"op":"health"}"#.to_string(),
    ];
    let resp = drive(server.addr(), &ops, 2);
    let metrics = parse(&resp[0]);
    assert_eq!(field(&metrics, "op").as_str(), Some("metrics"));
    assert_eq!(field(&metrics, "completed").as_i64(), Some(1));
    assert_eq!(field(&metrics, "clamped").as_i64(), Some(1));
    assert!(field(&metrics, "p99_ms").as_f64().unwrap() >= 0.0);
    let tenants = field(&metrics, "tenants");
    assert_eq!(tenants.get("probe").and_then(|v| v.as_i64()), Some(1));
    let health = parse(&resp[1]);
    assert_eq!(field(&health, "op").as_str(), Some("health"));
    assert_eq!(field(&health, "status").as_str(), Some("ok"));

    let stats = server.shutdown_and_join();
    assert_eq!(stats.admitted, 1);
}

/// On the default (native) engine, a warm GEMM request enters native
/// regions, and `metrics` reports the process-wide counts live.
#[test]
fn metrics_report_live_native_counts() {
    let server = spawn_server(
        Arc::new(registry()),
        Listener::bind("127.0.0.1:0").expect("bind"),
        config(1),
        TraceMode::Off,
    );
    let req = Request::new(RoutineId::parse("GEMM-NN").unwrap(), 128)
        .to_json()
        .compact();
    // Cold (resolve + compile), then warm (program LRU hit).
    for _ in 0..2 {
        let out = drive(server.addr(), std::slice::from_ref(&req), 1);
        assert_eq!(field(&parse(&out[0]), "status").as_str(), Some("ok"));
    }
    let resp = drive(server.addr(), &[r#"{"op":"metrics"}"#.to_string()], 1);
    let metrics = parse(&resp[0]);
    let entries = field(&metrics, "native_entries").as_i64().unwrap();
    assert!(entries > 0, "no native entries: {}", resp[0]);
    field(&metrics, "native_fallbacks")
        .as_i64()
        .expect("integer fallback count");
    server.shutdown_and_join();
}

/// An input source that only reaches EOF after the output already holds
/// the first result line — the slurping implementation (read all input,
/// then run, then print) deadlocks here; the streaming one sails
/// through.  A generous timeout turns the would-be deadlock into a
/// clean failure.
struct GatedInput {
    first: Option<Vec<u8>>,
    out: Arc<Mutex<Vec<u8>>>,
    deadline: Instant,
}

impl Read for GatedInput {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(line) = self.first.take() {
            buf[..line.len()].copy_from_slice(&line);
            return Ok(line.len());
        }
        // EOF only once the first response was flushed.
        loop {
            if self.out.lock().unwrap().contains(&b'\n') {
                return Ok(0);
            }
            assert!(
                Instant::now() < self.deadline,
                "no output before EOF: serve is slurping the whole input again"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

#[derive(Clone)]
struct SharedOut(Arc<Mutex<Vec<u8>>>);

impl Write for SharedOut {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The one-shot pipeline streams: each result is written before further
/// input is demanded, so a slow producer gets incremental output.
#[test]
fn one_shot_serve_streams_incrementally() {
    let reg = registry();
    let out = Arc::new(Mutex::new(Vec::new()));
    let mut input = BufReader::new(GatedInput {
        first: Some(b"{\"routine\":\"GEMM-NN\",\"n\":16,\"seed\":9}\n".to_vec()),
        out: out.clone(),
        deadline: Instant::now() + Duration::from_secs(300),
    });
    let mut sink = SharedOut(out.clone());
    let stats = serve_stream(&reg, &mut input, &mut sink, 2, TraceMode::Off).expect("serve");
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.ok, 1);
    let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
    let doc = parse(text.lines().next().expect("one output line"));
    assert_eq!(field(&doc, "status").as_str(), Some("ok"));
    assert_eq!(field(&doc, "id").as_i64(), Some(0));
}

/// Invalid lines in the one-shot stream become structured parse errors
/// in-place (right id, right class) instead of aborting the whole run —
/// and a negative seed is one of them.
#[test]
fn one_shot_serve_reports_parse_errors_in_place() {
    let reg = registry();
    let input = b"{\"routine\":\"GEMM-NN\",\"n\":16,\"seed\":3}\n\
                  {\"routine\":\"GEMM-NN\",\"seed\":-1}\n\
                  not json at all\n\
                  {\"routine\":\"GEMM-NN\",\"n\":16,\"seed\":4}\n";
    let mut reader = BufReader::new(&input[..]);
    let mut sink = SharedOut(Arc::new(Mutex::new(Vec::new())));
    let stats = serve_stream(&reg, &mut reader, &mut sink, 2, TraceMode::Off).expect("serve");
    // Parse errors are answered without ever being admitted.
    assert_eq!(stats.admitted + stats.rejected, 4);
    assert_eq!(stats.ok, 2);
    assert_eq!(stats.failed + stats.rejected, 2);

    let bytes = sink.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<_> = text.lines().collect();
    assert_eq!(lines.len(), 4);
    // Submission order is preserved even though workers race.
    for (i, line) in lines.iter().enumerate() {
        let doc = parse(line);
        assert_eq!(field(&doc, "id").as_i64(), Some(i as i64), "{line}");
    }
    let neg = parse(lines[1]);
    assert_eq!(field(&neg, "class").as_str(), Some("parse"));
    assert!(
        field(&neg, "reason").as_str().unwrap().contains("negative"),
        "negative seed must be rejected, not wrapped: {}",
        lines[1]
    );
    assert_eq!(field(&parse(lines[2]), "class").as_str(), Some("parse"));
}

const DAG_CHAIN: &str = r#"{"dag": [{"id": "mm", "routine": "GEMM-NN", "a": "A", "b": "B", "c": "C"}, {"id": "sum", "routine": "ADD", "a": "@mm", "b": "E"}], "n": 64, "seed": 7}"#;

/// A DAG line through the persistent server comes back as one structured
/// result carrying the fusion decisions, and its digest matches running
/// the same DAG directly through a reference registry — the DAG was
/// dispatched as one unit.
#[test]
fn serve_runs_dag_requests_as_one_unit() {
    let server = spawn_server(
        Arc::new(registry()),
        Listener::bind("127.0.0.1:0").expect("bind"),
        config(2),
        TraceMode::Off,
    );
    // A DAG interleaved with plain singles: one answer each.
    let lines = vec![
        Request::new(RoutineId::parse("GEMM-NN").unwrap(), 16)
            .to_json()
            .compact(),
        DAG_CHAIN.to_string(),
        Request::new(RoutineId::parse("GEMM-NN").unwrap(), 16)
            .to_json()
            .compact(),
    ];
    let responses = drive(server.addr(), &lines, 3);
    let stats = server.shutdown_and_join();
    assert_eq!(stats.admitted, stats.completed);
    assert_eq!(stats.ok, 3);

    let dag_doc = responses
        .iter()
        .map(|l| parse(l))
        .find(|d| d.get("dag").is_some())
        .expect("one DAG response");
    assert_eq!(field(&dag_doc, "status").as_str(), Some("ok"));
    assert_eq!(
        field(&dag_doc, "dag").as_str(),
        Some("GEMM-NN(A,B,C);ADD(@0,E)")
    );
    assert_eq!(field(&dag_doc, "units").as_i64(), Some(1));
    let fused = match field(&dag_doc, "fused") {
        oa_core::autotune::json::Json::Arr(a) => a,
        other => panic!("fused is not an array: {other:?}"),
    };
    assert_eq!(fused.len(), 1, "epilogue chain must serve fused");
    assert_eq!(
        fused[0].get("kind").and_then(|v| v.as_str()),
        Some("epilogue")
    );

    // Reference: the same DAG straight through a registry.
    let reference = registry();
    let doc = oa_core::autotune::json::parse(DAG_CHAIN).unwrap();
    let req = oa_core::DagRequest::from_json(&doc).unwrap();
    match reference.run_dag(&req).status {
        oa_core::DagStatus::Ok(ok) => assert_eq!(
            field(&dag_doc, "digest").as_str(),
            Some(format!("{:016x}", ok.digest).as_str()),
            "served DAG digest diverged from direct execution"
        ),
        oa_core::DagStatus::Failed { class, reason } => {
            panic!("reference failed {class}: {reason}")
        }
    }
}

/// Malformed DAGs are rejected at admission with their structured
/// `admission/dag*` classes — unknown references, forward references
/// (the only way this schema could spell a cycle), and solver size
/// constraints on intermediates — each as exactly one JSONL error line.
#[test]
fn serve_rejects_invalid_dags_with_structured_classes() {
    let server = spawn_server(
        Arc::new(registry()),
        Listener::bind("127.0.0.1:0").expect("bind"),
        config(1),
        TraceMode::Off,
    );
    let cases = [
        (
            // Reference to a node that does not exist.
            r#"{"dag": [{"id": "sum", "routine": "ADD", "a": "@ghost", "b": "E"}], "n": 64}"#,
            "admission/dag-ref",
        ),
        (
            // Forward reference: the schema's spelling of a cycle.
            r#"{"dag": [{"id": "x", "routine": "ADD", "a": "@y", "b": "E"}, {"id": "y", "routine": "ADD", "a": "X", "b": "E"}], "n": 64}"#,
            "admission/dag-cycle",
        ),
        (
            // TRSM fed by an intermediate at an off-tile size: caught at
            // admission, before any tuning is spent.
            r#"{"dag": [{"id": "rk", "routine": "SYRK", "a": "F", "c": "S"}, {"id": "tri", "routine": "TRSM-LL-N", "a": "L", "b": "@rk"}], "n": 96}"#,
            "admission/size-constraint",
        ),
        (
            // Structural violation: `c` on a routine that takes none.
            r#"{"dag": [{"id": "s", "routine": "ADD", "a": "A", "b": "B", "c": "C"}], "n": 64}"#,
            "admission/dag",
        ),
    ];
    let lines: Vec<String> = cases.iter().map(|(l, _)| l.to_string()).collect();
    let responses = drive(server.addr(), &lines, cases.len());
    // Schema-level rejections answer immediately, admission ones after
    // execution — order by the per-connection id.
    let by_id: HashMap<i64, oa_core::autotune::json::Json> = responses
        .iter()
        .map(|line| {
            let doc = parse(line);
            (field(&doc, "id").as_i64().expect("id"), doc)
        })
        .collect();
    for (id, (sent, want_class)) in cases.iter().enumerate() {
        let doc = &by_id[&(id as i64)];
        let line = doc.compact();
        assert_eq!(field(doc, "status").as_str(), Some("error"), "{sent}");
        assert_eq!(
            field(doc, "class").as_str(),
            Some(*want_class),
            "wrong class for {sent}: {line}"
        );
        assert!(field(doc, "reason").as_str().is_some(), "{line}");
    }
    let stats = server.shutdown_and_join();
    assert_eq!(stats.admitted, stats.completed);
}

/// The streaming one-shot mode serves DAG lines too, in submission
/// order, alongside singles.
#[test]
fn one_shot_serve_handles_dag_lines() {
    let reg = registry();
    let input = format!(
        "{}\n{}\n{}\n",
        "{\"routine\":\"GEMM-NN\",\"n\":16,\"seed\":3}",
        DAG_CHAIN,
        "{\"dag\": [{\"id\": \"s\", \"routine\": \"ADD\", \"a\": \"@nope\", \"b\": \"E\"}]}"
    );
    let mut reader = BufReader::new(input.as_bytes());
    let mut sink = SharedOut(Arc::new(Mutex::new(Vec::new())));
    let stats = serve_stream(&reg, &mut reader, &mut sink, 2, TraceMode::Off).expect("serve");
    assert_eq!(stats.admitted + stats.rejected, 3);
    assert_eq!(stats.ok, 2);
    assert_eq!(stats.failed + stats.rejected, 1);

    let bytes = sink.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<_> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(field(&parse(line), "id").as_i64(), Some(i as i64), "{line}");
    }
    let dag = parse(lines[1]);
    assert_eq!(field(&dag, "status").as_str(), Some("ok"));
    assert_eq!(field(&dag, "units").as_i64(), Some(1));
    let bad = parse(lines[2]);
    assert_eq!(field(&bad, "class").as_str(), Some("admission/dag-ref"));
}

/// A problem size past `MAX_N` is refused as `admission/size` before
/// any buffer is allocated — a single request when it is parsed, a DAG
/// at admission — on the one-shot stream and the listening server
/// alike, and the server keeps serving the next request afterwards.
#[test]
fn oversized_requests_are_refused_on_both_paths() {
    let n = oa_core::dispatch::MAX_N + 1;
    let single = format!("{{\"routine\":\"GEMM-NN\",\"n\":{n}}}");
    let dag = format!(
        "{{\"dag\": [{{\"id\": \"mm\", \"routine\": \"GEMM-NN\", \"a\": \"A\", \"b\": \"B\", \"c\": \"C\"}}], \"n\": {n}}}"
    );
    let small = "{\"routine\":\"GEMM-NN\",\"n\":16,\"seed\":3}".to_string();
    let assert_size_refusal = |line: &str| {
        let doc = parse(line);
        assert_eq!(field(&doc, "status").as_str(), Some("error"), "{line}");
        assert_eq!(
            field(&doc, "class").as_str(),
            Some("admission/size"),
            "{line}"
        );
    };

    let reg = registry();
    let input = format!("{single}\n{dag}\n{small}\n");
    let mut reader = BufReader::new(input.as_bytes());
    let mut sink = SharedOut(Arc::new(Mutex::new(Vec::new())));
    let stats = serve_stream(&reg, &mut reader, &mut sink, 2, TraceMode::Off).expect("serve");
    assert_eq!(
        (
            stats.admitted + stats.rejected,
            stats.ok,
            stats.failed + stats.rejected
        ),
        (3, 1, 2)
    );
    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<_> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    assert_size_refusal(lines[0]);
    assert_size_refusal(lines[1]);
    assert_eq!(field(&parse(lines[2]), "status").as_str(), Some("ok"));

    let server = spawn_server(
        Arc::new(registry()),
        Listener::bind("127.0.0.1:0").expect("bind"),
        config(1),
        TraceMode::Off,
    );
    for line in drive(server.addr(), &[single, dag], 2) {
        assert_size_refusal(&line);
    }
    let after = drive(server.addr(), &[small], 1);
    assert_eq!(field(&parse(&after[0]), "status").as_str(), Some("ok"));
    let stats = server.shutdown_and_join();
    assert_eq!(stats.admitted, stats.completed);
}

/// Two threads racing to resolve the same cold `(routine, class)` key
/// run exactly one tuning sweep: the second waits for the first's
/// result instead of duplicating seconds of work (and instead of
/// interleaving two trace spans).
#[test]
fn concurrent_resolution_deduplicates_tuning() {
    // Cold registry: no cache path, nothing resolved.
    let reg = Arc::new(Registry::new(DeviceSpec::gtx285()));
    let begins = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let reg = reg.clone();
            let begins = begins.clone();
            std::thread::spawn(move || {
                let mut obs = |e: TuneEvent| {
                    if matches!(e, TuneEvent::Begin { .. }) {
                        begins.fetch_add(1, Ordering::SeqCst);
                    }
                };
                reg.resolve_observed(RoutineId::parse("GEMM-NN").unwrap(), 64, &mut obs)
                    .expect("resolve")
            })
        })
        .collect();
    let entries: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        begins.load(Ordering::SeqCst),
        1,
        "concurrent resolvers must share one sweep"
    );
    assert_eq!(entries[0].params, entries[1].params);
}
