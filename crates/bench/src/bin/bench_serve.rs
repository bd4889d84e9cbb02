//! Throughput benchmark of the persistent `oa serve --listen` server.
//!
//! Spawns the server in-process on a loopback TCP socket and drives it
//! with a multi-tenant adversarial load: one `flood` tenant hammering
//! cheap clamped-class GEMMs (`n = 16` → tuning class 64) while three
//! `mix-*` tenants interleave GEMM/SYMM at 16/32/48 and TRSM at its
//! 64-wide tile multiple.  Tuning is amortized through the shared cache
//! (the library is *generated* once, then *served*); a warm-up pass
//! populates the compiled-program LRU so the measured window is the
//! steady compile-once/run-many regime a long-lived server settles into.
//!
//! Measures:
//!
//! * **steady throughput** — completed requests / wall over the measured
//!   window, all clients pipelining concurrently;
//! * **latency** — client-side per-request sojourn (write → response
//!   line) and the server's own admission→response p50/p99 from its
//!   `metrics` op;
//! * **backpressure** — a second, deliberately tiny server is flooded to
//!   show admission control rejecting with structured lines instead of
//!   queueing without bound.
//!
//! Prints the rates and writes `BENCH_serve.json`.  The acceptance bar
//! (full mode only) is steady throughput ≥ 448 req/s — the floor set by
//! `BENCH_dispatch.json`'s batched steady rate on this machine.
//! `--quick` (alias `--smoke`) drives a smaller window and skips the bar.

use oa_bench::git_revision;
use oa_core::autotune::json::{self, Json};
use oa_core::dispatch::{Registry, Request};
use oa_core::gpusim::DeviceSpec;
use oa_core::serve::{percentile, spawn_server, Listener, ServeConfig};
use oa_core::trace::TraceMode;
use oa_core::RoutineId;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The steady acceptance floor, req/s (from `BENCH_dispatch.json`).
const FLOOR_RPS: f64 = 448.0;

/// One tenant's request mix for the measured window.
fn tenant_mix(tenant: &str, count: usize) -> Vec<Request> {
    let shapes: Vec<(RoutineId, i64)> = if tenant == "flood" {
        // The adversary: cheap clamped-class requests, all one shape.
        vec![(RoutineId::parse("GEMM-NN").unwrap(), 16)]
    } else {
        vec![
            (RoutineId::parse("GEMM-NN").unwrap(), 32),
            (RoutineId::parse("GEMM-NT").unwrap(), 48),
            (RoutineId::parse("SYMM-LL").unwrap(), 32),
            (RoutineId::parse("TRSM-LL-N").unwrap(), 64),
            (RoutineId::parse("GEMM-NN").unwrap(), 16),
        ]
    };
    (0..count)
        .map(|i| {
            let (routine, n) = shapes[i % shapes.len()];
            let mut r = Request::new(routine, n);
            r.seed = i as u64 * 31 + 7;
            r.tenant = Some(tenant.to_string());
            r
        })
        .collect()
}

/// Drive one connection: pipeline all requests, then collect every
/// response, returning per-request sojourn latencies (ms) and the count
/// of `ok` lines.
fn run_client(addr: &str, reqs: &[Request]) -> (Vec<f64>, usize) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .expect("read timeout");
    let mut w = stream.try_clone().expect("clone");
    let mut sent = Vec::with_capacity(reqs.len());
    for r in reqs {
        let line = r.to_json().compact();
        writeln!(w, "{line}").expect("send");
        sent.push(Instant::now());
    }
    w.flush().expect("flush");

    let mut latencies = vec![0.0f64; reqs.len()];
    let mut ok = 0usize;
    let mut reader = BufReader::new(stream);
    for _ in 0..reqs.len() {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("response");
        assert!(n > 0, "connection closed early");
        let doc = json::parse(line.trim()).expect("response JSON");
        let id = doc.get("id").and_then(Json::as_i64).expect("id") as usize;
        latencies[id] = sent[id].elapsed().as_secs_f64() * 1e3;
        if doc.get("status").and_then(Json::as_str) == Some("ok") {
            ok += 1;
        }
    }
    (latencies, ok)
}

/// Flood a deliberately tiny server to demonstrate admission control:
/// every request is answered, the overflow with structured rejections.
fn overload_probe(registry: Arc<Registry>) -> (usize, usize) {
    let cfg = ServeConfig {
        threads: 1,
        queue_cap: 4,
        tenant_quota: 2,
        ..ServeConfig::default()
    };
    let server = spawn_server(
        registry,
        Listener::bind("127.0.0.1:0").expect("bind probe"),
        cfg,
        TraceMode::Off,
    );
    let reqs = tenant_mix("flood", 100);
    let (_, ok) = run_client(server.addr(), &reqs);
    let stats = server.shutdown_and_join();
    assert_eq!(stats.admitted, stats.completed, "probe drain lost work");
    assert!(stats.rejected > 0, "overload probe produced no rejections");
    (ok, stats.rejected)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--smoke");
    let device = DeviceSpec::gtx285();
    let per_tenant = if quick { 50 } else { 300 };
    let tenants = ["flood", "mix-a", "mix-b", "mix-c"];
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get());
    let cache = oa_bench::cache_path();

    let registry = Arc::new(Registry::new(device).with_tune_cache(cache));

    // Tune every (routine, class) the load needs up front and persist it.
    let mixes: Vec<Vec<Request>> = tenants.iter().map(|t| tenant_mix(t, per_tenant)).collect();
    let t0 = Instant::now();
    for mix in &mixes {
        registry.warm(&mix[..mix.len().min(8)], &mut |_| {});
    }
    let warm_secs = t0.elapsed().as_secs_f64();

    let mut cfg = ServeConfig::from_env();
    cfg.threads = threads;
    cfg.queue_cap = cfg.queue_cap.max(4 * per_tenant);
    cfg.tenant_quota = cfg.tenant_quota.max(per_tenant);
    let (queue_cap, tenant_quota) = (cfg.queue_cap, cfg.tenant_quota);
    let server = spawn_server(
        registry.clone(),
        Listener::bind("127.0.0.1:0").expect("bind"),
        cfg,
        TraceMode::Off,
    );
    let addr = server.addr().to_string();

    // Warm-up pass: compile each distinct program once through the
    // server itself, so the measured window is pure run-many.
    for mix in &mixes {
        let head: Vec<Request> = mix.iter().take(8).cloned().collect();
        run_client(&addr, &head);
    }

    // Measured window: all tenants pipeline concurrently.
    let t0 = Instant::now();
    let handles: Vec<_> = mixes
        .iter()
        .map(|mix| {
            let addr = addr.clone();
            let mix = mix.clone();
            std::thread::spawn(move || run_client(&addr, &mix))
        })
        .collect();
    let mut latencies = Vec::new();
    let mut ok = 0usize;
    for h in handles {
        let (lat, k) = h.join().expect("client thread");
        latencies.extend(lat);
        ok += k;
    }
    let steady_secs = t0.elapsed().as_secs_f64();
    let total = per_tenant * tenants.len();
    assert_eq!(ok, total, "steady-window requests failed");
    let steady_rps = total as f64 / steady_secs;

    latencies.sort_by(|a, b| a.total_cmp(b));
    let client_p50 = percentile(&latencies, 50.0);
    let client_p99 = percentile(&latencies, 99.0);

    // Live introspection snapshot straight off the socket.
    let metrics_line = {
        let stream = TcpStream::connect(&addr).expect("connect metrics");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let mut w = stream.try_clone().expect("clone");
        writeln!(w, "{{\"op\":\"metrics\"}}").expect("send metrics");
        w.flush().expect("flush");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("metrics");
        json::parse(line.trim()).expect("metrics JSON")
    };

    let stats = server.shutdown_and_join();
    assert_eq!(stats.admitted, stats.completed, "drain lost requests");

    let (probe_ok, probe_rejected) = overload_probe(registry);

    println!(
        "serve throughput ({} tenants x {} requests, {} worker threads)",
        tenants.len(),
        per_tenant,
        threads
    );
    println!("  warm-up (tuning, amortized): {:.1} ms", warm_secs * 1e3);
    println!(
        "  steady window: {steady_rps:>8.1} req/s ({} requests, {:.1} ms wall)",
        total,
        steady_secs * 1e3
    );
    println!(
        "  client sojourn: p50 {client_p50:.2} ms, p99 {client_p99:.2} ms; \
         server-side p50 {:.2} ms, p99 {:.2} ms",
        stats.p50_ms, stats.p99_ms
    );
    println!(
        "  lru {} hits / {} misses; {} clamped",
        stats.hits, stats.misses, stats.clamped
    );
    println!("  overload probe: {probe_ok} served, {probe_rejected} rejected (structured)");

    let doc = Json::Obj(BTreeMap::from([
        (
            "note".to_string(),
            Json::Str(
                "persistent `oa serve --listen` driven over loopback TCP by one flood tenant \
                 (cheap clamped-class n=16 GEMMs) plus three mixed tenants (GEMM/SYMM at \
                 16/32/48, TRSM at 64), all pipelining concurrently; warm-up pass compiles each \
                 distinct program once so the measured window is the steady run-many regime; \
                 `steady_requests_per_sec` is the acceptance headline (floor 448 req/s, from \
                 BENCH_dispatch.json); the overload probe floods a queue_cap=4 / quota=2 server \
                 to show admission control answering every line, overflow as structured \
                 rejections"
                    .to_string(),
            ),
        ),
        ("quick".to_string(), Json::Bool(quick)),
        (
            "mode".to_string(),
            Json::Str(if quick { "smoke" } else { "full" }.to_string()),
        ),
        ("nproc".to_string(), Json::Int(threads as i64)),
        ("git_rev".to_string(), Json::Str(git_revision())),
        ("tenants".to_string(), Json::Int(tenants.len() as i64)),
        (
            "requests_per_tenant".to_string(),
            Json::Int(per_tenant as i64),
        ),
        ("threads".to_string(), Json::Int(threads as i64)),
        ("queue_cap".to_string(), Json::Int(queue_cap as i64)),
        ("tenant_quota".to_string(), Json::Int(tenant_quota as i64)),
        ("warm_secs".to_string(), Json::Num(warm_secs)),
        ("steady_secs".to_string(), Json::Num(steady_secs)),
        ("steady_requests_per_sec".to_string(), Json::Num(steady_rps)),
        ("client_p50_ms".to_string(), Json::Num(client_p50)),
        ("client_p99_ms".to_string(), Json::Num(client_p99)),
        (
            "server".to_string(),
            Json::Obj(BTreeMap::from([
                ("admitted".to_string(), Json::Int(stats.admitted as i64)),
                ("completed".to_string(), Json::Int(stats.completed as i64)),
                ("ok".to_string(), Json::Int(stats.ok as i64)),
                ("failed".to_string(), Json::Int(stats.failed as i64)),
                ("rejected".to_string(), Json::Int(stats.rejected as i64)),
                ("clamped".to_string(), Json::Int(stats.clamped as i64)),
                ("p50_ms".to_string(), Json::Num(stats.p50_ms)),
                ("p99_ms".to_string(), Json::Num(stats.p99_ms)),
                ("hits".to_string(), Json::Int(stats.hits as i64)),
                ("misses".to_string(), Json::Int(stats.misses as i64)),
                ("tenants".to_string(), Json::Int(stats.tenants as i64)),
                ("wall_ms".to_string(), Json::Num(stats.wall_ms)),
            ])),
        ),
        ("metrics_snapshot".to_string(), metrics_line),
        (
            "overload_probe".to_string(),
            Json::Obj(BTreeMap::from([
                ("requests".to_string(), Json::Int(100)),
                ("served".to_string(), Json::Int(probe_ok as i64)),
                ("rejected".to_string(), Json::Int(probe_rejected as i64)),
            ])),
        ),
    ]));
    std::fs::write("BENCH_serve.json", doc.pretty() + "\n").expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");

    if !quick {
        assert!(
            steady_rps >= FLOOR_RPS,
            "steady throughput {steady_rps:.1} req/s below the {FLOOR_RPS} req/s floor"
        );
    }
}
