//! Throughput benchmark of the routine-dispatch layer behind `oa serve`.
//!
//! Serves one 64-request mixed-routine batch two ways, tuning amortized
//! through the persistent cache in both (the library is *generated*
//! once, then *called*):
//!
//! * **baseline** — one request at a time with **no shared state**: a
//!   fresh registry per request, the pre-`oa serve` workflow (one CLI
//!   process per request).  Every request re-loads the tuning cache,
//!   re-validates the record, re-applies the script, re-runs the
//!   performance model and re-lowers before it executes;
//! * **batched** — one long-lived [`Registry`]: the batch streamed
//!   through the one-shot `oa serve` path ([`serve_stream`]: admission,
//!   worker threads, in-order writer) and the compiled-program LRU.  The
//!   first pass compiles each distinct program once (**cold**); repeat
//!   passes are the compile-once/run-many regime a server settles into
//!   (**steady**, the headline `speedup`).
//!
//! Prints all three rates and writes `BENCH_dispatch.json` with its mode,
//! `nproc` and git revision.  The acceptance bar, asserted in both modes,
//! is steady batched ≥ 3x baseline.  `--quick` (alias `--smoke`) serves a
//! 32-request batch.

use oa_bench::git_revision;
use oa_core::autotune::json::Json;
use oa_core::autotune::ServeStats;
use oa_core::autotune::{
    samples_from_trace, sibling_model_path, CandidateFate, CostModel, Sample, TuneEvent,
};
use oa_core::dispatch::{size_class, Registry, Request, RequestStatus};
use oa_core::gpusim::DeviceSpec;
use oa_core::loopir::transform::TileParams;
use oa_core::{serve_stream, RoutineId, TraceMode, Trans};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The benchmark batch: `count` requests cycling the 24-routine catalog
/// with alternating sizes and distinct seeds.  The triangular solvers
/// stay at their 64-wide column-tile multiple (other sizes are rejected
/// at launch); everything else alternates 32/48 per catalog pass.
fn bench_requests(count: usize) -> Vec<Request> {
    let all = RoutineId::all24();
    (0..count)
        .map(|i| {
            let routine = all[i % all.len()];
            let n = if matches!(routine, RoutineId::Trsm(..)) {
                64
            } else {
                [32i64, 48][(i / all.len()) % 2]
            };
            Request {
                routine,
                n,
                seed: i as u64 * 77 + 5,
                zero_blanks: true,
                tenant: None,
            }
        })
        .collect()
}

/// Serve the JSONL `input` once through the one-shot `oa serve` path;
/// the answers go to a sink, the run's totals come back.
fn serve_once(registry: &Registry, input: &str, threads: usize) -> ServeStats {
    serve_stream(
        registry,
        &mut input.as_bytes(),
        &mut std::io::sink(),
        threads,
        TraceMode::Off,
    )
    .expect("in-memory serve")
}

fn requests_per_sec(s: &ServeStats) -> f64 {
    s.completed as f64 / (s.wall_ms / 1e3).max(1e-9)
}

/// One sweep's traced rows, grouped per `Begin` event: the routine, the
/// tuned size, and `(script index, params, gflops, won)` per candidate.
type TracedSweep = (RoutineId, i64, Vec<(usize, TileParams, f64, bool)>);

/// One timed cold `warm` over a throwaway tuning cache: wall seconds,
/// total candidate evaluations (points − skipped, summed over sweeps),
/// and the traced sweeps for model training.
struct ColdWarm {
    secs: f64,
    evals: usize,
    sweeps: Vec<TracedSweep>,
    registry: Registry,
}

fn cold_warm(device: &DeviceSpec, cache: PathBuf, reqs: &[Request]) -> ColdWarm {
    let registry = Registry::new(device.clone()).with_tune_cache(cache);
    let mut events = Vec::new();
    let t0 = Instant::now();
    registry.warm(reqs, &mut |e| events.push(e));
    let secs = t0.elapsed().as_secs_f64();
    let mut evals = 0usize;
    let mut sweeps: Vec<TracedSweep> = Vec::new();
    for e in events {
        match e {
            TuneEvent::Begin { routine, n, .. } => {
                let r = RoutineId::parse(&routine).expect("traced routine parses");
                sweeps.push((r, n, Vec::new()));
            }
            TuneEvent::Candidate(c) => {
                if let (Some(sweep), Some(si), Some(p)) = (sweeps.last_mut(), c.script, c.params) {
                    sweep.2.push((
                        si,
                        p,
                        c.gflops.unwrap_or(0.0),
                        matches!(c.fate, CandidateFate::Won),
                    ));
                }
            }
            TuneEvent::Summary {
                points, skipped, ..
            } => evals += points - skipped,
            _ => {}
        }
    }
    ColdWarm {
        secs,
        evals,
        sweeps,
        registry,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--smoke");
    let device = DeviceSpec::gtx285();
    let count = if quick { 32 } else { 64 };
    let steady_passes = if quick { 2 } else { 3 };
    let reqs = bench_requests(count);
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get());
    let cache = oa_bench::cache_path();

    let registry = Registry::new(device.clone()).with_tune_cache(cache.clone());

    // Tune everything the batch needs up front and persist it: both
    // serving modes below replay the same generated library.
    let t0 = Instant::now();
    registry.warm(&reqs, &mut |_| {});
    let warm_secs = t0.elapsed().as_secs_f64();

    // Baseline: no shared state — a fresh registry per request.
    let t0 = Instant::now();
    let mut baseline_ok = 0usize;
    for req in &reqs {
        let fresh = Registry::new(device.clone()).with_tune_cache(cache.clone());
        if matches!(fresh.run_one(req).status, RequestStatus::Ok(_)) {
            baseline_ok += 1;
        }
    }
    let baseline_secs = t0.elapsed().as_secs_f64();
    assert_eq!(baseline_ok, reqs.len(), "baseline requests failed");

    // Batched, cold store: each distinct program compiles exactly once.
    let input: String = reqs.iter().map(|r| r.to_json().compact() + "\n").collect();
    registry.clear_programs();
    let cold = serve_once(&registry, &input, threads);
    assert_eq!(cold.ok, reqs.len(), "cold batch requests failed");

    // Batched, steady state: the warm-store rate over repeat passes.
    let t0 = Instant::now();
    let mut steady_ok = 0usize;
    let mut last = cold.clone();
    for _ in 0..steady_passes {
        last = serve_once(&registry, &input, threads);
        assert_eq!(last.ok, reqs.len(), "steady batch requests failed");
        steady_ok += last.ok;
    }
    let steady_secs = t0.elapsed().as_secs_f64();

    let baseline_rps = reqs.len() as f64 / baseline_secs;
    let cold_rps = requests_per_sec(&cold);
    let steady_rps = steady_ok as f64 / steady_secs;
    let speedup = steady_rps / baseline_rps;
    let speedup_cold = cold_rps / baseline_rps;

    println!(
        "dispatch throughput ({} requests, {} threads)",
        reqs.len(),
        threads
    );
    println!("  warm-up (tuning, amortized): {:.1} ms", warm_secs * 1e3);
    println!(
        "  baseline (fresh registry per request):   {:>8.1} req/s ({:.1} ms)",
        baseline_rps,
        baseline_secs * 1e3
    );
    println!(
        "  batched, cold store (compile-once):      {:>8.1} req/s ({:.1} ms, {} hits / {} misses)",
        cold_rps, cold.wall_ms, cold.hits, cold.misses
    );
    println!(
        "  batched, steady state (run-many):        {:>8.1} req/s ({} passes, {:.1} ms)",
        steady_rps,
        steady_passes,
        steady_secs * 1e3
    );
    println!("  batched / baseline: {speedup:.2}x steady, {speedup_cold:.2}x cold");

    // Cold *tuning* with and without the learned cost model: the exact
    // side's traced sweeps train the artifact the modeled side loads
    // (`OA_TUNE_MODEL` defaults to rank+exit; its sibling artifact sits
    // next to the tuning cache), then both sides warm the same request
    // set from empty throwaway caches.
    let pid = std::process::id();
    let tmp = std::env::temp_dir();
    let cache_exact = tmp.join(format!("oa_bench_dispatch_cold_exact_{pid}.json"));
    let cache_model = tmp.join(format!("oa_bench_dispatch_cold_model_{pid}.json"));
    let model_path = sibling_model_path(&cache_model);
    for p in [
        &cache_exact,
        &cache_model,
        &model_path,
        &sibling_model_path(&cache_exact),
    ] {
        let _ = std::fs::remove_file(p);
    }
    let exact = cold_warm(&device, cache_exact.clone(), &reqs);
    let mut samples: Vec<Sample> = Vec::new();
    for (r, n, traced) in &exact.sweeps {
        samples.extend(
            samples_from_trace(exact.registry.engine(), *r, *n, traced)
                .unwrap_or_else(|e| panic!("{} n={n}: trace recompose failed: {e}", r.name())),
        );
    }
    let model = CostModel::train(&samples, 5);
    assert!(
        model.can_rank(),
        "cold-path training refused to rank: {:?}",
        model.refused
    );
    model.save(&model_path).expect("write model artifact");
    let modeled = cold_warm(&device, cache_model.clone(), &reqs);

    // The winner contract, end to end through the registry: identical
    // tuned entries for every (routine, class) the batch resolves.
    let mut cold_winners_moved = 0usize;
    let mut classes: Vec<(RoutineId, i64)> =
        reqs.iter().map(|q| (q.routine, size_class(q.n))).collect();
    classes.sort_by_key(|&(r, class)| (r.name(), class));
    classes.dedup();
    for &(r, class) in &classes {
        let a = exact.registry.resolve(r, class).expect("exact resolve");
        let b = modeled.registry.resolve(r, class).expect("modeled resolve");
        if a.script.to_string() != b.script.to_string() || a.params != b.params {
            cold_winners_moved += 1;
        }
    }
    let cold_eval_reduction = exact.evals as f64 / modeled.evals.max(1) as f64;
    let cold_time_reduction = exact.secs / modeled.secs.max(1e-9);
    println!(
        "  cold tuning, exact sweep:                {:>8.1} ms ({} evals)",
        exact.secs * 1e3,
        exact.evals
    );
    println!(
        "  cold tuning, model rank+exit:            {:>8.1} ms ({} evals; {:.1}x fewer evals, \
         {:.1}x faster, {} winner(s) moved)",
        modeled.secs * 1e3,
        modeled.evals,
        cold_eval_reduction,
        cold_time_reduction,
        cold_winners_moved
    );
    for p in [
        &cache_exact,
        &cache_model,
        &model_path,
        &sibling_model_path(&cache_exact),
    ] {
        let _ = std::fs::remove_file(p);
    }

    // Sanity: GEMM-NN must be in the mix (it is — the catalog cycles).
    debug_assert!(reqs
        .iter()
        .any(|r| r.routine == RoutineId::Gemm(Trans::N, Trans::N)));

    let batch_json = |s: &ServeStats| {
        Json::Obj(BTreeMap::from([
            ("requests".to_string(), Json::Int(s.admitted as i64)),
            ("ok".to_string(), Json::Int(s.ok as i64)),
            ("hits".to_string(), Json::Int(s.hits as i64)),
            ("misses".to_string(), Json::Int(s.misses as i64)),
            ("wall_ms".to_string(), Json::Num(s.wall_ms)),
            (
                "requests_per_sec".to_string(),
                Json::Num(requests_per_sec(s)),
            ),
        ]))
    };
    let doc = Json::Obj(BTreeMap::from([
        (
            "note".to_string(),
            Json::Str(
                "batched dispatch vs one-request-at-a-time on the same mixed batch; baseline \
                 serves each request with a fresh registry (cache load + validate + translate + \
                 model eval + lower + execute every time, the pre-serve workflow); batched \
                 streams the batch through the one-shot `oa serve` path and one registry's \
                 program LRU — cold pass compiles each distinct program once, steady passes \
                 are pure run-many; `speedup` = steady / baseline (bar: >= 3)"
                    .to_string(),
            ),
        ),
        (
            "mode".to_string(),
            Json::Str(if quick { "smoke" } else { "full" }.to_string()),
        ),
        ("nproc".to_string(), Json::Int(threads as i64)),
        ("git_rev".to_string(), Json::Str(git_revision())),
        ("requests".to_string(), Json::Int(reqs.len() as i64)),
        ("threads".to_string(), Json::Int(threads as i64)),
        ("steady_passes".to_string(), Json::Int(steady_passes as i64)),
        ("warm_secs".to_string(), Json::Num(warm_secs)),
        ("baseline_secs".to_string(), Json::Num(baseline_secs)),
        (
            "baseline_requests_per_sec".to_string(),
            Json::Num(baseline_rps),
        ),
        ("batched_cold".to_string(), batch_json(&cold)),
        ("batched_last_pass".to_string(), batch_json(&last)),
        ("steady_requests_per_sec".to_string(), Json::Num(steady_rps)),
        ("speedup".to_string(), Json::Num(speedup)),
        ("speedup_cold".to_string(), Json::Num(speedup_cold)),
        ("cold_tune_exact_secs".to_string(), Json::Num(exact.secs)),
        ("cold_tune_model_secs".to_string(), Json::Num(modeled.secs)),
        (
            "cold_tune_exact_evals".to_string(),
            Json::Int(exact.evals as i64),
        ),
        (
            "cold_tune_model_evals".to_string(),
            Json::Int(modeled.evals as i64),
        ),
        (
            "cold_tune_eval_reduction".to_string(),
            Json::Num(cold_eval_reduction),
        ),
        (
            "cold_tune_time_reduction".to_string(),
            Json::Num(cold_time_reduction),
        ),
        (
            "cold_tune_winners_unchanged".to_string(),
            Json::Bool(cold_winners_moved == 0),
        ),
    ]));
    std::fs::write("BENCH_dispatch.json", doc.pretty() + "\n").expect("write BENCH_dispatch.json");
    println!("\nwrote BENCH_dispatch.json");

    // The serving bar and winner invariance hold in every mode.
    assert!(
        speedup >= 3.0,
        "steady batched serving is only {speedup:.2}x the baseline (need >= 3x)"
    );
    assert_eq!(
        cold_winners_moved, 0,
        "model-ranked cold tuning changed a registry winner"
    );
    // Full mode also enforces the cold-path floor: the modeled warm-up
    // must pay ≥ 3x fewer candidate evaluations and be visibly faster.
    if !quick {
        assert!(
            cold_eval_reduction >= 3.0,
            "modeled cold tuning saved only {cold_eval_reduction:.2}x evaluations (need >= 3x)"
        );
        assert!(
            modeled.secs <= 0.9 * exact.secs,
            "modeled cold tuning not faster: {:.1} ms vs {:.1} ms exact",
            modeled.secs * 1e3,
            exact.secs * 1e3
        );
    }
}
