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
//! speedups, and writes the measurements to `BENCH_exec.json`.  Native
//! runs twice: on every worker thread, and on the calling thread alone
//! (the single-thread column).  A host-peak probe — two-rounding mul+add
//! chains on one core, at each vector width up to the runtime SIMD width
//! — puts each row's native GFLOPS beside the peak.  The `GEMM-NN-inner` row is a
//! register-tiled kernel whose deep K tile makes the inner FMA nest
//! dominate; the `*-t32x16` / `*-t16x16` rows are the two register-tile
//! shapes the tuner picks for the n = 128 serving routines, and the
//! `TRMM-RU-T-t16x16` (peeled diagonal band), `TRSM-LL-N-solver`
//! (per-column substitution, at the serving size and at n = 64, the
//! small-request size) and `TRSM-RU-T-solver` (per-row substitution, at
//! n = 64) rows are the served triangular winners, whose nests store into
//! a written global.  A GEMM-family row that replays no loop record fails the run: the native tier fell back to
//! per-instance replay without saying so.  So does a 32 × 16 GEMM-family
//! serving row that replays more loop records per execute than blocks ×
//! K blocks (its K-step loop stopped folding into two-level records), and
//! a serving row with a `store-shape` or `written-global-load` reject (a
//! served nest went back to the interpreter), and a TRSM serving row whose
//! substitution replays more than one record per region entry (its
//! triangular record stopped folding).  `--quick` (alias
//! `--smoke`) trims the routine set and iteration budget for smoke runs.

use oa_core::autotune::json::Json;
use oa_core::autotune::report::{NativeCoverageStats, TuneEvent};
use oa_core::blas3::baselines::cublas_like;
use oa_core::blas3::routines::source;
use oa_core::epod::{apply_strict, parser::parse_script};
use oa_core::gpusim::{exec_program, ByteCode, DeviceSpec, NativeProgram};
use oa_core::loopir::builder::{gemm_nn_like, syrk_ln_like};
use oa_core::loopir::interp::{alloc_buffers, Bindings, Buffers};
use oa_core::loopir::transform::{loop_tiling, reg_alloc, sm_alloc, thread_grouping, TileParams};
use oa_core::loopir::Program;
use oa_core::trace::{histogram, stderr_observer, TraceMode};
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
    /// Native on the calling thread only.
    native_1t_secs: f64,
    coverage: NativeCoverageStats,
    /// Loop records one native execute replays.
    records_per_execute: u64,
    /// `(entries, loop records)` of each region holding a triangular
    /// record, over every launch.
    triangular_regions: Vec<(u64, u64)>,
}

/// A `(name, count)` histogram with owned names.
fn owned(h: &[(&str, u64)]) -> Vec<(String, u64)> {
    h.iter()
        .map(|&(name, count)| (name.to_string(), count))
        .collect()
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
    let native_1t_secs = time_launches(budget, 200, &base, |bufs| {
        rayon::in_place(|| native.execute(bufs)).expect("native exec");
    });
    let bytecode_secs = time_launches(budget, 200, &base, |bufs| {
        bc.execute(bufs).expect("bytecode exec");
    });
    let legacy_secs = time_launches(budget, 200, &base, |bufs| {
        exec_program(p, &bindings, bufs).expect("oracle exec");
    });

    let before = native.coverage().loop_records;
    native.execute(&mut base.clone()).expect("native exec");
    let records_per_execute = native.coverage().loop_records - before;
    let triangular_regions = native
        .coverage()
        .region_replay
        .iter()
        .filter(|r| r.triangular)
        .map(|r| (r.entries, r.loop_records))
        .collect();
    // Coverage after all launches: entries/fallbacks accumulate over the
    // warm-up and every timed iteration.
    let cov = native.coverage();
    let coverage = NativeCoverageStats {
        routine: label.to_string(),
        regions: cov.regions,
        entries: cov.entries,
        fallbacks: cov.fallbacks,
        loop_records: cov.loop_records,
        instances: cov.instances,
        two_level_records: cov.two_level_records,
        triangular_records: cov.triangular_records,
        bulk_moves: cov.bulk_moves,
        element_moves: cov.element_moves,
        fallback_reasons: owned(&cov.fallback_reasons),
        rejects: owned(&cov.rejects),
    };

    Measurement {
        routine: label.to_string(),
        n,
        blocks: bc.total_blocks(),
        flops,
        legacy_secs,
        bytecode_secs,
        native_secs,
        native_1t_secs,
        coverage,
        records_per_execute,
        triangular_regions,
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

/// A routine under one of the tuner's serving scripts at fixed tile
/// parameters: the register-tile shapes the n = 128 serving library runs.
fn tuned_shape(r: RoutineId, script: &str, params: TileParams) -> Program {
    let script = parse_script(script).expect("serving script parses");
    apply_strict(&source(r), &script, params).expect("serving script applies")
}

/// The serving tile shapes: `[ty, tx, thr_i, thr_j, kb]` =
/// `[32, 16, 32, 1, 16]` (32-lane blocks, a 16-wide register tile whose
/// index moves every iteration), `[16, 16, 16, 16, 16]` (256-lane blocks,
/// one accumulator per lane over the K tile, also TRMM-RU-T's peel
/// script) and TRSM's solver shape `[16, 64, 1, 64, 8]` (64 one-column
/// lanes).  All but TRSM's step K by [`SERVING_KB`].
fn serving_shapes() -> Vec<(String, RoutineId, Program)> {
    let gemm_nn = RoutineId::Gemm(Trans::N, Trans::N);
    let gemm_tn = RoutineId::Gemm(Trans::T, Trans::N);
    let trmm_ru_t = RoutineId::Trmm(Side::Right, Uplo::Upper, Trans::T);
    let trsm_ll_n = RoutineId::Trsm(Side::Left, Uplo::Lower, Trans::N);
    let trsm_ru_t = RoutineId::Trsm(Side::Right, Uplo::Upper, Trans::T);
    let shape = |ty, tx, thr_i, thr_j| TileParams {
        ty,
        tx,
        thr_i,
        thr_j,
        kb: SERVING_KB,
        unroll: 0,
    };
    let solver = |r, grouping: &str| {
        let script = format!(
            "(Lii, Ljj) = thread_grouping({grouping});
             (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
             SM_alloc(B, Transpose);
             SM_alloc(A, NoChange);
             reg_alloc(B);"
        );
        tuned_shape(
            r,
            &script,
            TileParams {
                kb: 8,
                ..shape(16, 64, 1, 64)
            },
        )
    };
    vec![
        (
            "GEMM-NN-t32x16".to_string(),
            gemm_nn,
            tuned_shape(
                gemm_nn,
                "(Lii, Ljj) = thread_grouping((Li, Lj));
                 (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
                 loop_unroll(Ljjj, Lkkk);
                 SM_alloc(B, Transpose);
                 reg_alloc(C);",
                shape(32, 16, 32, 1),
            ),
        ),
        (
            "GEMM-TN-t16x16".to_string(),
            gemm_tn,
            tuned_shape(
                gemm_tn,
                "(Lii, Ljj) = thread_grouping((Li, Lj));
                 (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
                 loop_unroll(Ljjj, Lkkk);
                 SM_alloc(B, Transpose);
                 SM_alloc(A, NoChange);
                 reg_alloc(C);",
                shape(16, 16, 16, 16),
            ),
        ),
        (
            "TRMM-RU-T-t16x16".to_string(),
            trmm_ru_t,
            tuned_shape(
                trmm_ru_t,
                "(Lii, Ljj) = thread_grouping((Li, Lj));
                 (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
                 peel_triangular(A);
                 loop_unroll(Ljjj, Lkkk);
                 SM_alloc(B, Transpose);
                 SM_alloc(A, NoChange);
                 reg_alloc(C);",
                shape(16, 16, 16, 16),
            ),
        ),
        (
            "TRSM-LL-N-solver".to_string(),
            trsm_ll_n,
            solver(trsm_ll_n, "(Li, Lj)"),
        ),
        (
            "TRSM-RU-T-solver".to_string(),
            trsm_ru_t,
            solver(trsm_ru_t, "(Lj, Li)"),
        ),
    ]
}

/// The K tile of the `*-t32x16` and `*-t16x16` serving shapes.
const SERVING_KB: i64 = 16;

/// Lanes of the widest f32 vector unit the host reports at runtime.
fn simd_width() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return 16;
        }
        if std::arch::is_x86_feature_detected!("avx") {
            return 8;
        }
    }
    4
}

/// Eight independent chains of `W` lanes, `iters` steps of
/// `t = c·a; c = t + b` (two roundings, like every engine; the values
/// settle at `b / (1 − a)` = 1, so no denormals): enough chains to hide
/// the mul→add latency, so the loop runs at the host's throughput.  The
/// chains are separate locals so they stay in vector registers.
#[inline(always)]
fn peak_chain<const W: usize>(iters: usize) -> f32 {
    #[inline(always)]
    fn step<const W: usize>(c: &mut [f32; W], a: &[f32; W], b: &[f32; W]) {
        for l in 0..W {
            let t = c[l] * a[l];
            c[l] = t + b[l];
        }
    }
    let a = std::hint::black_box([0.999_999f32; W]);
    let b = std::hint::black_box([1.0e-6f32; W]);
    let [mut c0, mut c1, mut c2, mut c3, mut c4, mut c5, mut c6, mut c7] =
        std::hint::black_box([[1.0f32; W]; 8]);
    for _ in 0..iters {
        step(&mut c0, &a, &b);
        step(&mut c1, &a, &b);
        step(&mut c2, &a, &b);
        step(&mut c3, &a, &b);
        step(&mut c4, &a, &b);
        step(&mut c5, &a, &b);
        step(&mut c6, &a, &b);
        step(&mut c7, &a, &b);
    }
    [c0, c1, c2, c3, c4, c5, c6, c7].iter().flatten().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn peak_chain_avx512(iters: usize) -> f32 {
    peak_chain::<16>(iters)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn peak_chain_avx(iters: usize) -> f32 {
    peak_chain::<8>(iters)
}

/// One core's f32 GFLOPS peak, counting the mul and the add: the best
/// of three runs of [`peak_chain`] at each vector width up to the
/// runtime SIMD width (a wider unit is not always the faster one: code
/// generation or the host may favour a narrower one).  Returns the peak
/// and the width that reached it.
fn host_peak_gflops(max_width: usize) -> (f64, usize) {
    let iters = 1_000_000usize;
    let mut best = (0.0f64, 4usize);
    for width in [4usize, 8, 16].into_iter().filter(|&w| w <= max_width) {
        for _ in 0..3 {
            let t0 = Instant::now();
            let v = match width {
                // SAFETY: `simd_width` reports a width only after the
                // runtime check found its feature.
                #[cfg(target_arch = "x86_64")]
                16 => unsafe { peak_chain_avx512(iters) },
                #[cfg(target_arch = "x86_64")]
                8 => unsafe { peak_chain_avx(iters) },
                _ => peak_chain::<4>(iters),
            };
            std::hint::black_box(v);
            let gflops = (2 * 8 * width * iters) as f64 / t0.elapsed().as_secs_f64() / 1e9;
            if gflops > best.0 {
                best = (gflops, width);
            }
        }
    }
    best
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

    let width = simd_width();
    let (peak, peak_width) = host_peak_gflops(width);
    println!(
        "host peak: {peak:.2} GFLOPS on one core ({peak_width} f32 lanes; SIMD width {width})\n"
    );
    println!(
        "{:<17} {:>5} {:>7} {:>11} {:>11} {:>11} {:>11} {:>8} {:>8} {:>10} {:>7}",
        "routine",
        "n",
        "blocks",
        "legacy ms",
        "bc ms",
        "native ms",
        "nat 1t ms",
        "bc/leg",
        "nat/bc",
        "GFLOPS",
        "1t/peak"
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
    // The serving tile shapes at the serving size (n = 64 on smoke runs).
    // TRSM's solvers also run at n = 64, the size every small TRSM
    // request runs; TRSM-RU-T's only there.
    let shape_n = if quick { 64 } else { 128 };
    let mut serving = Vec::new();
    for (label, r, p) in serving_shapes() {
        serving.push(label.clone());
        let mut sizes = match label.as_str() {
            "TRSM-LL-N-solver" => vec![shape_n, 64],
            "TRSM-RU-T-solver" => vec![64],
            _ => vec![shape_n],
        };
        sizes.dedup();
        for n in sizes {
            measurements.push(measure_program(&label, &p, n, r.flops(n), budget));
        }
    }

    let mut rows = Vec::new();
    let mut log_speedup_sum = 0.0;
    let mut log_native_sum = 0.0;
    for m in &measurements {
        let blocks_per_sec = m.blocks as f64 / m.bytecode_secs;
        let gflops = m.flops / m.bytecode_secs / 1e9;
        let native_gflops = m.flops / m.native_secs / 1e9;
        let legacy_gflops = m.flops / m.legacy_secs / 1e9;
        let native_1t_gflops = m.flops / m.native_1t_secs / 1e9;
        log_speedup_sum += m.speedup().ln();
        log_native_sum += m.native_speedup().ln();
        println!(
            "{:<17} {:>5} {:>7} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>7.2}x {:>7.2}x {:>10.4} {:>6.2}%",
            m.routine,
            m.n,
            m.blocks,
            m.legacy_secs * 1e3,
            m.bytecode_secs * 1e3,
            m.native_secs * 1e3,
            m.native_1t_secs * 1e3,
            m.speedup(),
            m.native_speedup(),
            native_gflops,
            100.0 * native_1t_gflops / peak
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
            ("native_1t_secs".to_string(), Json::Num(m.native_1t_secs)),
            ("native_1t_gflops".to_string(), Json::Num(native_1t_gflops)),
            (
                "native_peak_fraction".to_string(),
                Json::Num(native_gflops / (peak * rayon_threads() as f64)),
            ),
            (
                "native_1t_peak_fraction".to_string(),
                Json::Num(native_1t_gflops / peak),
            ),
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
                        "loop_records".to_string(),
                        Json::Int(m.coverage.loop_records as i64),
                    ),
                    (
                        "instances".to_string(),
                        Json::Int(m.coverage.instances as i64),
                    ),
                    (
                        "two_level_records".to_string(),
                        Json::Int(m.coverage.two_level_records as i64),
                    ),
                    (
                        "triangular_records".to_string(),
                        Json::Int(m.coverage.triangular_records as i64),
                    ),
                    (
                        "bulk_moves".to_string(),
                        Json::Int(m.coverage.bulk_moves as i64),
                    ),
                    (
                        "element_moves".to_string(),
                        Json::Int(m.coverage.element_moves as i64),
                    ),
                    (
                        "fallback_reasons".to_string(),
                        histogram(&m.coverage.fallback_reasons),
                    ),
                    (
                        "records_per_execute".to_string(),
                        Json::Int(m.records_per_execute as i64),
                    ),
                    ("rejects".to_string(), histogram(&m.coverage.rejects)),
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
                 throughput, not modeled device GFLOPS; native_1t_* run on one thread; \
                 host_peak_gflops is one core's two-rounding mul+add peak, best over vector \
                 widths up to simd_width (host_peak_width reached it), native_peak_fraction divides by it times threads"
                    .to_string(),
            ),
        ),
        ("threads".to_string(), Json::Num(rayon_threads() as f64)),
        ("mode".to_string(), Json::Str(key_mode(quick).to_string())),
        ("simd_width".to_string(), Json::Num(width as f64)),
        ("host_peak_gflops".to_string(), Json::Num(peak)),
        ("host_peak_width".to_string(), Json::Num(peak_width as f64)),
        ("bytecode_geomean_speedup".to_string(), Json::Num(geomean)),
        (
            "native_geomean_speedup".to_string(),
            Json::Num(native_geomean),
        ),
        ("measurements".to_string(), Json::Arr(rows)),
    ]));
    std::fs::write("BENCH_exec.json", doc.pretty() + "\n").expect("write BENCH_exec.json");
    println!("\nwrote BENCH_exec.json");

    // A GEMM-family kernel is exactly the register-tile loop the loop
    // records exist for: replaying none means a silent per-instance
    // fallback.
    let silent: Vec<&str> = measurements
        .iter()
        .filter(|m| m.routine.starts_with("GEMM") && m.coverage.loop_records == 0)
        .map(|m| m.routine.as_str())
        .collect();
    if !silent.is_empty() {
        eprintln!("FAIL: GEMM-family rows replayed no loop record: {silent:?}");
        std::process::exit(1);
    }
    // On the 32 × 16 serving shape the K-step loop folds around the
    // register-tile loop: one two-level record per block per K block.
    let split: Vec<String> = measurements
        .iter()
        .filter(|m| m.routine.starts_with("GEMM") && m.routine.ends_with("-t32x16"))
        .filter(|m| m.records_per_execute as i64 > m.blocks * (m.n / SERVING_KB))
        .map(|m| format!("{} ({} records)", m.routine, m.records_per_execute))
        .collect();
    if !split.is_empty() {
        eprintln!(
            "FAIL: 32x16 GEMM-family serving rows replayed more loop records than blocks x K \
             blocks: {split:?}"
        );
        std::process::exit(1);
    }
    // Every nest of a served kernel that stores into, or reads back, a
    // written global lowers through the write window.
    let stores: Vec<&str> = measurements
        .iter()
        .filter(|m| serving.contains(&m.routine))
        .filter(|m| {
            m.coverage
                .rejects
                .iter()
                .any(|(name, _)| matches!(name.as_str(), "store-shape" | "written-global-load"))
        })
        .map(|m| m.routine.as_str())
        .collect();
    if !stores.is_empty() {
        eprintln!("FAIL: serving rows left a global-store nest interpreted: {stores:?}");
        std::process::exit(1);
    }
    // A TRSM serving row's substitution nest replays as one triangular
    // record per region entry, not one record per row.
    let rows: Vec<String> = measurements
        .iter()
        .filter(|m| serving.contains(&m.routine) && m.routine.starts_with("TRSM"))
        .filter(|m| {
            m.triangular_regions.is_empty()
                || m.triangular_regions
                    .iter()
                    .any(|&(entries, records)| records > entries)
        })
        .map(|m| format!("{} {:?}", m.routine, m.triangular_regions))
        .collect();
    if !rows.is_empty() {
        eprintln!(
            "FAIL: TRSM serving rows replayed more than one substitution record per region \
             entry (entries, records): {rows:?}"
        );
        std::process::exit(1);
    }

    // Perf floor: the committed geomean minus 10% slack.  CI fails the
    // build when a fresh run regresses below it.
    let key = key_mode(quick);
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

/// The run mode, which is also the floor key in `results/native_floor.json`.
fn key_mode(quick: bool) -> &'static str {
    if quick {
        "smoke"
    } else {
        "full"
    }
}

fn rayon_threads() -> usize {
    rayon::current_num_threads()
}
