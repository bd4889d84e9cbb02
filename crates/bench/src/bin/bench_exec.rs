//! Micro-benchmark of the three functional GPU executors.
//!
//! Runs fully lowered kernels (the CUBLAS-like baselines, which exercise
//! staging, register tiles and barriers) through all engines:
//!
//! * `exec::exec_program` — the tree-walking oracle (sequential blocks,
//!   string-keyed environments);
//! * `bytecode::ByteCode` — flat linear bytecode, optimized address units,
//!   lane-vectorized block-parallel interpretation (`vexec`);
//! * `native::NativeProgram` — the bytecode's lane-affine inner loop
//!   nests lowered to specialized host SIMD microkernels.
//!
//! Reports wall-clock per launch, blocks/second and effective GFLOPS for
//! each, plus per-row and geomean oracle→bytecode and bytecode→native
//! speedups, and writes the measurements to `BENCH_exec.json`.  The
//! `GEMM-NN-inner` row is a register-tiled kernel whose deep K tile makes
//! the inner FMA nest dominate — the shape the native tier targets.
//! `--quick` (alias `--smoke`) trims the routine set and iteration budget
//! for smoke runs.

use oa_core::autotune::json::Json;
use oa_core::autotune::report::{NativeCoverageStats, TuneEvent};
use oa_core::blas3::baselines::cublas_like;
use oa_core::gpusim::{exec_program, ByteCode, DeviceSpec, NativeProgram};
use oa_core::loopir::builder::{gemm_nn_like, syrk_ln_like};
use oa_core::loopir::interp::{alloc_buffers, Bindings, Buffers};
use oa_core::loopir::transform::{loop_tiling, reg_alloc, sm_alloc, thread_grouping, TileParams};
use oa_core::loopir::Program;
use oa_core::trace::{stderr_observer, TraceMode};
use oa_core::{RoutineId, Side, Trans, Uplo};
use std::collections::BTreeMap;
use std::time::Instant;

/// Time one engine: repeatedly execute on a fresh clone of the input
/// buffers (clone excluded from the timer) until the time budget is
/// spent, and return the best-observed seconds per launch.
fn time_launches(
    budget_secs: f64,
    max_iters: usize,
    base: &Buffers,
    mut launch: impl FnMut(&mut Buffers),
) -> f64 {
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    for _ in 0..max_iters {
        let mut bufs = base.clone();
        let t0 = Instant::now();
        launch(&mut bufs);
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        if spent >= budget_secs {
            break;
        }
    }
    best
}

struct Measurement {
    routine: String,
    n: i64,
    blocks: i64,
    flops: f64,
    legacy_secs: f64,
    bytecode_secs: f64,
    native_secs: f64,
    coverage: NativeCoverageStats,
}

impl Measurement {
    /// Oracle → bytecode speedup.
    fn speedup(&self) -> f64 {
        self.legacy_secs / self.bytecode_secs
    }

    /// Bytecode → native speedup (the perf-floor metric).
    fn native_speedup(&self) -> f64 {
        self.bytecode_secs / self.native_secs
    }
}

/// Measure one fully lowered program through all three engines.
fn measure_program(label: &str, p: &Program, n: i64, flops: f64, budget: f64) -> Measurement {
    let bindings = Bindings::square(n);
    let base = alloc_buffers(p, &bindings, 0xBEEF);

    let bc = ByteCode::compile(p, &bindings).expect("baseline kernels lower to bytecode");
    let native = NativeProgram::compile(p, &bindings).expect("baseline kernels lower natively");
    // Warm all paths once (page-in, lazy allocations) before timing.
    let mut warm = base.clone();
    bc.execute(&mut warm).expect("bytecode exec");
    let mut warm = base.clone();
    native.execute(&mut warm).expect("native exec");
    let mut warm = base.clone();
    exec_program(p, &bindings, &mut warm).expect("oracle exec");

    let native_secs = time_launches(budget, 200, &base, |bufs| {
        native.execute(bufs).expect("native exec");
    });
    let bytecode_secs = time_launches(budget, 200, &base, |bufs| {
        bc.execute(bufs).expect("bytecode exec");
    });
    let legacy_secs = time_launches(budget, 200, &base, |bufs| {
        exec_program(p, &bindings, bufs).expect("oracle exec");
    });

    // Coverage after all launches: entries/fallbacks accumulate over the
    // warm-up and every timed iteration.
    let cov = native.coverage();
    let coverage = NativeCoverageStats {
        routine: label.to_string(),
        regions: cov.regions,
        entries: cov.entries,
        fallbacks: cov.fallbacks,
        rejects: cov
            .rejects
            .iter()
            .map(|&(name, count)| (name.to_string(), count))
            .collect(),
    };

    Measurement {
        routine: label.to_string(),
        n,
        blocks: bc.total_blocks(),
        flops,
        legacy_secs,
        bytecode_secs,
        native_secs,
        coverage,
    }
}

fn measure(r: RoutineId, n: i64, dev: &DeviceSpec, budget: f64) -> Measurement {
    let p: Program = cublas_like(r, dev);
    measure_program(&r.name(), &p, n, r.flops(n), budget)
}

/// The native tier's target shape: a register-tiled GEMM with a deep K
/// tile, so nearly all work is the lane-affine inner FMA nest (staging
/// and bookkeeping amortize over `kb` accumulate steps per tile).
fn gemm_inner_block() -> Program {
    let params = TileParams {
        ty: 32,
        tx: 32,
        thr_i: 8,
        thr_j: 8,
        kb: 32,
        unroll: 0,
    };
    let mut p = gemm_nn_like("g");
    thread_grouping(&mut p, "Li", "Lj", params).unwrap();
    loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
    sm_alloc(&mut p, "A", oa_core::loopir::AllocMode::NoChange).unwrap();
    sm_alloc(&mut p, "B", oa_core::loopir::AllocMode::Transpose).unwrap();
    reg_alloc(&mut p, "C").unwrap();
    p
}

/// The register-tiled SYRK-LN pipeline (rank-K update of the lower
/// triangle, `C := A·Aᵀ + C`).
fn syrk_ln(n: i64) -> Program {
    // 64-lane blocks (8×8 threads, 2×2 register tiles): the 16-wide
    // output tile keeps the diagonal straddle-fallback fraction small
    // while the lane count matches the library kernels' vector width.
    let params = TileParams {
        ty: if n >= 128 { 16 } else { 8 },
        tx: if n >= 128 { 16 } else { 8 },
        thr_i: if n >= 128 { 8 } else { 4 },
        thr_j: if n >= 128 { 8 } else { 4 },
        kb: if n >= 128 { 32 } else { 4 },
        unroll: 0,
    };
    let mut p = syrk_ln_like("syrk");
    thread_grouping(&mut p, "Li", "Lj", params).unwrap();
    loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
    reg_alloc(&mut p, "C").unwrap();
    p
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--smoke");
    let dev = DeviceSpec::gtx285();
    let budget = if quick { 0.3 } else { 1.5 };

    // GEMM-NN at n=64 is the headline case (the composer filter and the
    // differential tests launch exactly this scale); the larger sizes and
    // extra routines show how the gap widens with grid size.  The
    // triangular family (TRMM/SYMM/TRSM) rides in both modes so the
    // native-coverage floor guards it even on smoke runs.
    let mut cases: Vec<(RoutineId, i64)> = vec![(RoutineId::Gemm(Trans::N, Trans::N), 64)];
    let tri_n = if quick { 64 } else { 256 };
    if !quick {
        cases.push((RoutineId::Gemm(Trans::N, Trans::N), 128));
        cases.push((RoutineId::Gemm(Trans::N, Trans::N), 256));
    }
    cases.push((RoutineId::Trmm(Side::Left, Uplo::Lower, Trans::N), tri_n));
    cases.push((RoutineId::Symm(Side::Left, Uplo::Lower), tri_n));
    // TRSM sizes must be 64-multiples (the solver serializes along a
    // 64-wide column tile).  It runs a size up from the rest of the
    // family: the interpreted substitution is O(n²·64) while the
    // natively lowered update nest is O(n³), so the larger size shows
    // the covered fraction rather than the serial floor.
    let trsm_n = if quick { 64 } else { tri_n };
    cases.push((RoutineId::Trsm(Side::Left, Uplo::Lower, Trans::N), trsm_n));

    println!(
        "{:<14} {:>5} {:>7} {:>11} {:>11} {:>11} {:>8} {:>8} {:>10}",
        "routine", "n", "blocks", "legacy ms", "bc ms", "native ms", "bc/leg", "nat/bc", "GFLOPS"
    );
    let mut measurements = Vec::new();
    for &(r, n) in &cases {
        measurements.push(measure(r, n, &dev, budget));
    }
    // The inner-block shape: deep-K register-tiled GEMM where the native
    // microkernels carry nearly all of the work.
    let inner_n = if quick { 64 } else { 128 };
    let inner = gemm_inner_block();
    let gemm = RoutineId::Gemm(Trans::N, Trans::N);
    measurements.push(measure_program(
        "GEMM-NN-inner",
        &inner,
        inner_n,
        gemm.flops(inner_n),
        budget,
    ));
    // SYRK-LN is not one of the 24 library routines, but its
    // output-triangle guard is the both-axes divergence shape: full
    // blocks get a uniform corner verdict, diagonal blocks fall back.
    let syrk = syrk_ln(tri_n);
    let syrk_flops = tri_n as f64 * tri_n as f64 * (tri_n as f64 + 1.0);
    measurements.push(measure_program("SYRK-LN", &syrk, tri_n, syrk_flops, budget));

    let mut rows = Vec::new();
    let mut log_speedup_sum = 0.0;
    let mut log_native_sum = 0.0;
    for m in &measurements {
        let blocks_per_sec = m.blocks as f64 / m.bytecode_secs;
        let gflops = m.flops / m.bytecode_secs / 1e9;
        let native_gflops = m.flops / m.native_secs / 1e9;
        let legacy_gflops = m.flops / m.legacy_secs / 1e9;
        log_speedup_sum += m.speedup().ln();
        log_native_sum += m.native_speedup().ln();
        println!(
            "{:<14} {:>5} {:>7} {:>11.3} {:>11.3} {:>11.3} {:>7.2}x {:>7.2}x {:>10.4}",
            m.routine,
            m.n,
            m.blocks,
            m.legacy_secs * 1e3,
            m.bytecode_secs * 1e3,
            m.native_secs * 1e3,
            m.speedup(),
            m.native_speedup(),
            native_gflops
        );
        rows.push(Json::Obj(BTreeMap::from([
            ("routine".to_string(), Json::Str(m.routine.clone())),
            ("n".to_string(), Json::Num(m.n as f64)),
            ("blocks".to_string(), Json::Num(m.blocks as f64)),
            ("legacy_secs".to_string(), Json::Num(m.legacy_secs)),
            ("bytecode_secs".to_string(), Json::Num(m.bytecode_secs)),
            ("native_secs".to_string(), Json::Num(m.native_secs)),
            ("speedup".to_string(), Json::Num(m.speedup())),
            ("native_speedup".to_string(), Json::Num(m.native_speedup())),
            ("blocks_per_sec".to_string(), Json::Num(blocks_per_sec)),
            ("bytecode_gflops".to_string(), Json::Num(gflops)),
            ("native_gflops".to_string(), Json::Num(native_gflops)),
            ("legacy_gflops".to_string(), Json::Num(legacy_gflops)),
            (
                "native_coverage".to_string(),
                Json::Obj(BTreeMap::from([
                    ("regions".to_string(), Json::Int(m.coverage.regions as i64)),
                    ("entries".to_string(), Json::Int(m.coverage.entries as i64)),
                    (
                        "fallbacks".to_string(),
                        Json::Int(m.coverage.fallbacks as i64),
                    ),
                    (
                        "rejects".to_string(),
                        Json::Obj(
                            m.coverage
                                .rejects
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                                .collect::<BTreeMap<_, _>>(),
                        ),
                    ),
                ])),
            ),
        ])));
    }
    // Coverage through the trace stream (OA_TRACE=json|pretty), so
    // regressions show up in captured streams, not just the artifact.
    let mut obs = stderr_observer(TraceMode::from_env());
    for m in &measurements {
        obs(TuneEvent::NativeCoverage(m.coverage.clone()));
    }
    let rows_n = measurements.len() as f64;
    let geomean = (log_speedup_sum / rows_n).exp();
    let native_geomean = (log_native_sum / rows_n).exp();
    println!("\noracle -> bytecode geomean speedup: {geomean:.2}x");
    println!("bytecode -> native geomean speedup: {native_geomean:.2}x");

    let doc = Json::Obj(BTreeMap::from([
        (
            "note".to_string(),
            Json::Str(
                "functional-executor wall clock: tree-walking oracle vs lane-vectorized \
                 block-parallel linear bytecode vs native microkernels; speedup and \
                 bytecode_geomean_speedup are oracle -> bytecode; GFLOPS are simulation \
                 throughput, not modeled device GFLOPS"
                    .to_string(),
            ),
        ),
        ("threads".to_string(), Json::Num(rayon_threads() as f64)),
        ("bytecode_geomean_speedup".to_string(), Json::Num(geomean)),
        (
            "native_geomean_speedup".to_string(),
            Json::Num(native_geomean),
        ),
        ("measurements".to_string(), Json::Arr(rows)),
    ]));
    std::fs::write("BENCH_exec.json", doc.pretty() + "\n").expect("write BENCH_exec.json");
    println!("\nwrote BENCH_exec.json");

    // Perf floor: the committed geomean minus 10% slack.  CI fails the
    // build when a fresh run regresses below it.
    let key = if quick { "smoke" } else { "full" };
    match std::fs::read_to_string("results/native_floor.json") {
        Ok(text) => {
            let floor = oa_core::autotune::json::parse(&text)
                .and_then(|d| d.get(key).and_then(Json::as_f64))
                .unwrap_or_else(|| panic!("results/native_floor.json lacks a `{key}` number"));
            let min = floor * 0.9;
            if native_geomean < min {
                eprintln!(
                    "FAIL: native_geomean_speedup {native_geomean:.2}x regressed below the \
                     committed `{key}` floor {floor:.2}x - 10% = {min:.2}x"
                );
                std::process::exit(1);
            }
            println!("native geomean {native_geomean:.2}x >= `{key}` floor {floor:.2}x - 10%");
        }
        Err(_) => println!("no results/native_floor.json here; floor check skipped"),
    }
}

fn rayon_threads() -> usize {
    rayon::current_num_threads()
}
