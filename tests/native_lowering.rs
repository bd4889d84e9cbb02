//! Unit battery for the native tier's lowering pattern-matcher.
//!
//! The native engine is an *annotation* over bytecode: a loop nest either
//! lowers to a microkernel region (and must then be entered at runtime
//! whenever its preflight proves every guard an exact lane-box cut) or is
//! refused with a recorded [`NativeReject`] reason and stays on the
//! interpreter.  These tests pin both directions:
//!
//! * the tuned register-tiled GEMM — and now the barrier-staged,
//!   divergent-triangular and guard-peeled shapes of the TRMM/SYMM/TRSM
//!   family — must match a region and actually run it natively;
//! * nests that store into (and read back) a written global lower
//!   through the block's write window and stay bit-identical;
//! * nests the affinity analysis cannot prove (solver serialization)
//!   must be *cleanly* rejected — reason recorded, results still
//!   bit-identical — never mis-lowered;
//! * a runtime guard the box analysis cannot resolve must fall back
//!   without mutating anything;
//! * the reject tables of the four flagship routines are snapshotted so
//!   matcher regressions are loud;
//! * the serving library's two register-tile shapes replay each inner
//!   loop as one loop record, and a guard box that changes inside the
//!   loop (an edge tile) walks it per iteration instead.

use oa_core::blas3::baselines::cublas_like;
use oa_core::blas3::routines::source;
use oa_core::blas3::verify::prepare_buffers;
use oa_core::epod::{apply_strict, parse_script};
use oa_core::gpusim::{exec_program, DeviceSpec, NativeProgram, NativeReject};
use oa_core::loopir::builder::{gemm_nn_like, syrk_ln_like, trmm_ll_like};
use oa_core::loopir::interp::{alloc_buffers, Bindings, Buffers};
use oa_core::loopir::transform::{
    loop_tiling, peel_triangular, reg_alloc, sm_alloc, thread_grouping, TileParams,
};
use oa_core::loopir::Program;
use oa_core::RoutineId;

fn params() -> TileParams {
    TileParams {
        ty: 8,
        tx: 8,
        thr_i: 4,
        thr_j: 4,
        kb: 4,
        unroll: 0,
    }
}

/// The paper's full GEMM scheme: grouped, tiled, staged, register-tiled.
fn tuned_gemm() -> Program {
    let mut p = gemm_nn_like("g");
    thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
    loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
    sm_alloc(&mut p, "B", oa_core::loopir::AllocMode::Transpose).unwrap();
    reg_alloc(&mut p, "C").unwrap();
    p
}

/// TRMM with per-lane (triangular) K-loop trip counts, register-tiled:
/// the divergent-nest shape the iteration-space split exists for.
fn tiled_trmm() -> Program {
    let mut p = trmm_ll_like("t");
    thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
    loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
    reg_alloc(&mut p, "C").unwrap();
    p
}

/// Bit-exact comparison of native vs oracle on fresh buffers; returns
/// the compiled native program so callers can inspect its counters.
fn assert_native_bit_identical(p: &Program, n: i64, seed: u64) -> NativeProgram {
    let b = Bindings::square(n);
    let mut oracle = alloc_buffers(p, &b, seed);
    exec_program(p, &b, &mut oracle).expect("oracle exec");
    let np = NativeProgram::compile(p, &b).expect("native compile");
    let mut fast = alloc_buffers(p, &b, seed);
    np.execute(&mut fast).expect("native exec");
    assert_bits(&oracle, &fast);
    np
}

fn assert_bits(a: &Buffers, b: &Buffers) {
    for (name, m) in a {
        let f = &b[name];
        assert_eq!(
            m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            f.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "buffer {name} differs"
        );
    }
}

#[test]
fn tuned_gemm_lowers_and_enters_the_inner_region() {
    let p = tuned_gemm();
    let np = assert_native_bit_identical(&p, 32, 7);
    // The register-tile FMA nest is the whole point: it must lower …
    assert!(
        np.region_count() >= 1,
        "tuned GEMM matched no native region; rejects: {:?}",
        np.rejects()
    );
    // … and actually run natively (every block, every K-block step).
    let (entries, _) = np.runtime_stats();
    assert!(entries > 0, "lowered region was never entered natively");
}

#[test]
fn staged_shared_memory_region_lowers_and_enters() {
    // The K-block loop stages shared memory behind a barrier.  The
    // barrier is a compile-time region boundary now: the stage→Sync→
    // consume macro lowers as one region (guard bits recorded in the
    // preflight, the copy replayed natively), with no instruction-shape
    // reject left on the staging loop.
    let p = tuned_gemm();
    let np = assert_native_bit_identical(&p, 32, 7);
    assert!(
        !np.rejects()
            .iter()
            .any(|(_, r)| *r == NativeReject::UnsupportedInstr),
        "staging macro should lower, not reject; rejects: {:?}",
        np.rejects()
    );
    let (entries, fallbacks) = np.runtime_stats();
    assert!(entries > 0, "staged region was never entered natively");
    assert_eq!(fallbacks, 0, "staged region fell back on an exact size");
}

#[test]
fn divergent_triangular_nest_lowers_with_iteration_split() {
    // TRMM's K loop has lane-affine trip counts (the triangular
    // pattern).  The preflight turns the divergent loop test into an
    // interval cut over the lane box, so the nest lowers and enters
    // instead of rejecting with DivergentLoop/NonUniformBounds.
    let p = tiled_trmm();
    let np = assert_native_bit_identical(&p, 32, 11);
    assert!(
        np.region_count() >= 1,
        "triangular nest matched no region; rejects: {:?}",
        np.rejects()
    );
    assert!(
        !np.rejects().iter().any(|(_, r)| matches!(
            r,
            NativeReject::DivergentLoop | NativeReject::NonUniformBounds
        )),
        "divergent trip counts should box-split, not reject; rejects: {:?}",
        np.rejects()
    );
    let (entries, _) = np.runtime_stats();
    assert!(entries > 0, "triangular region was never entered natively");
}

#[test]
fn guard_peeled_else_branch_enters_natively() {
    // SYMM's diagonal blocks select between the stored triangle and its
    // mirror with an IfSplit/IfElse pair.  Both branch boxes are exact
    // complements, so the guard peels into two sub-boxes and the whole
    // kernel runs natively with zero fallbacks.
    let dev = DeviceSpec::gtx285();
    let p = cublas_like(RoutineId::parse("SYMM-LL").unwrap(), &dev);
    let np = assert_native_bit_identical(&p, 64, 13);
    assert!(np.region_count() >= 1, "SYMM matched no region");
    let (entries, fallbacks) = np.runtime_stats();
    assert!(entries > 0, "guard-peeled region was never entered");
    assert_eq!(fallbacks, 0, "guard peel fell back on an exact size");
}

#[test]
fn syrk_triangular_guard_splits_blocks() {
    // SYRK's output-triangle guard varies along *both* lane axes: blocks
    // fully inside or outside the triangle get a uniform corner verdict
    // (native entry or skip), diagonal blocks straddle and must abort to
    // the interpreter before any mutation.
    let mut p = syrk_ln_like("s");
    thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
    loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
    reg_alloc(&mut p, "C").unwrap();
    let np = assert_native_bit_identical(&p, 32, 17);
    assert!(np.region_count() >= 1, "SYRK matched no region");
    let (entries, fallbacks) = np.runtime_stats();
    assert!(entries > 0, "off-diagonal blocks should enter natively");
    assert!(
        fallbacks > 0,
        "diagonal blocks should abort to the interpreter"
    );
}

#[test]
fn written_global_store_lowers_through_the_window() {
    // Grouping only: the k-loop accumulates straight into the *global* C.
    // The store goes through the block's write window (read-your-write,
    // like the interpreter), and each lane owns its C element, so the
    // nest lowers, replays as loop records and stays bit-identical — also
    // on a ragged size.
    let mut p = gemm_nn_like("g");
    thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
    assert_native_bit_identical(&p, 19, 23);
    let np = assert_native_bit_identical(&p, 16, 3);
    assert!(
        np.region_count() >= 1,
        "global-store nest should lower; rejects: {:?}",
        np.rejects()
    );
    assert!(
        !np.rejects()
            .iter()
            .any(|(_, r)| matches!(r, NativeReject::StoreShape)),
        "no store-shape reject expected; rejects: {:?}",
        np.rejects()
    );
    let cov = np.coverage();
    assert!(cov.entries > 0 && cov.loop_records > 0, "{cov:?}");
    assert_eq!(cov.fallbacks, 0, "{cov:?}");
}

#[test]
fn global_store_triangular_loop_lowers_through_the_window() {
    // TRMM grouped without register allocation: divergent (lane-affine)
    // loops *and* stores to the written global.  The loop test cuts the
    // lane box; the stores land in the write window.
    let mut p = trmm_ll_like("t");
    thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
    assert_native_bit_identical(&p, 24, 9);
    let np = assert_native_bit_identical(&p, 16, 5);
    assert!(
        !np.rejects()
            .iter()
            .any(|(_, r)| matches!(r, NativeReject::StoreShape)),
        "no store-shape reject expected; rejects: {:?}",
        np.rejects()
    );
    let (entries, _) = np.runtime_stats();
    assert!(
        entries > 0,
        "global-store region was never entered natively"
    );
}

#[test]
fn peeled_trmm_stays_bit_identical() {
    let mut p = trmm_ll_like("t");
    thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
    loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
    peel_triangular(&mut p, "A").unwrap();
    // Whatever mix of lowered regions and rejects the peel bands
    // produce, results must not move by a bit.
    assert_native_bit_identical(&p, 16, 5);
    assert_native_bit_identical(&p, 24, 9);
}

#[test]
fn ragged_sizes_split_boxes_instead_of_falling_back() {
    // A ragged problem size makes the tile guards straddle inside a
    // block.  The straddle is lane-contiguous, so the box analysis peels
    // it into a partial box and still enters natively.
    let p = tuned_gemm();
    let np = assert_native_bit_identical(&p, 19, 23);
    let (entries, fallbacks) = np.runtime_stats();
    assert!(
        entries > 0,
        "ragged guards should box-split, not fall back (entries={entries}, fallbacks={fallbacks})"
    );
}

#[test]
fn repeated_native_execution_is_deterministic() {
    let p = tuned_gemm();
    let b = Bindings::square(32);
    let np = NativeProgram::compile(&p, &b).unwrap();
    let mut first = alloc_buffers(&p, &b, 1);
    np.execute(&mut first).unwrap();
    let mut second = alloc_buffers(&p, &b, 1);
    np.execute(&mut second).unwrap();
    assert_eq!(first["C"].data, second["C"].data);
}

#[test]
fn flagship_reject_tables_do_not_regress() {
    // Snapshot of the deduplicated reject histograms for the four
    // flagship kernels.  GEMM/TRMM/SYMM lower completely; TRSM lowers
    // its staged update nest and its per-column substitution (the
    // read-after-write on B goes through the write window) and keeps
    // exactly its solver-serialization rejects: the thread-0 branch and
    // the register `Move` of the outer solver loop.  Any new entry here
    // is a matcher regression.
    let dev = DeviceSpec::gtx285();
    let expect: &[(&str, &[(&str, u64)])] = &[
        ("GEMM-NN", &[]),
        ("TRMM-LL-N", &[]),
        ("SYMM-LL", &[]),
        ("TRSM-LL-N", &[("unsupported-instr", 2)]),
    ];
    for &(name, want) in expect {
        let p = cublas_like(RoutineId::parse(name).unwrap(), &dev);
        let np = NativeProgram::compile(&p, &Bindings::square(64)).expect("compile");
        let cov = np.coverage();
        assert!(cov.regions >= 1, "{name}: no region lowered");
        assert_eq!(
            cov.rejects,
            want,
            "{name}: reject table moved; explain:\n{}",
            np.explain()
        );
    }
}

/// The serving library's scripts (the tuned winners; every TRSM routine
/// solves with the same script, left-side ones grouping `(Li, Lj)` and
/// right-side ones `(Lj, Li)`), applied at one of its register-tile
/// shapes `[ty, tx, thr_i, thr_j, kb]`.
fn serving_kernel(routine: &str, shape: [i64; 5]) -> Program {
    let script = match routine {
        "GEMM-NN" | "GEMM-TN" => {
            "(Lii, Ljj) = thread_grouping((Li, Lj));
             (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
             loop_unroll(Ljjj, Lkkk);
             SM_alloc(B, Transpose);
             reg_alloc(C);"
        }
        "SYMM-LL" | "SYMM-RU" => {
            "GM_map(A, Symmetry);
             format_iteration(A, Symmetry);
             (Lii, Ljj) = thread_grouping((Li, Lj));
             (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
             loop_unroll(Ljjj, Lkkk);
             SM_alloc(B, Transpose);
             reg_alloc(C);"
        }
        "TRMM-LL-N" => {
            "(Lii, Ljj) = thread_grouping((Li, Lj));
             (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
             padding_triangular(A);
             loop_unroll(Ljjj, Lkkk);
             SM_alloc(B, Transpose);
             reg_alloc(C);"
        }
        "TRMM-RU-T" => {
            "(Lii, Ljj) = thread_grouping((Li, Lj));
             (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
             peel_triangular(A);
             loop_unroll(Ljjj, Lkkk);
             SM_alloc(B, Transpose);
             SM_alloc(A, NoChange);
             reg_alloc(C);"
        }
        r if r.starts_with("TRSM-L") => {
            "(Lii, Ljj) = thread_grouping((Li, Lj));
             (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
             SM_alloc(B, Transpose);
             SM_alloc(A, NoChange);
             reg_alloc(B);"
        }
        r if r.starts_with("TRSM-R") => {
            "(Lii, Ljj) = thread_grouping((Lj, Li));
             (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
             SM_alloc(B, Transpose);
             SM_alloc(A, NoChange);
             reg_alloc(B);"
        }
        other => panic!("no serving script for {other}"),
    };
    let [ty, tx, thr_i, thr_j, kb] = shape;
    let params = TileParams {
        ty,
        tx,
        thr_i,
        thr_j,
        kb,
        unroll: 0,
    };
    let r = RoutineId::parse(routine).unwrap();
    let script = parse_script(script).expect("script parses");
    apply_strict(&source(r), &script, params).expect("script applies")
}

/// 32-lane blocks whose 16-wide register tile index moves every
/// iteration, and 256-lane blocks with one fixed accumulator per lane.
const SHAPE_32X16: [i64; 5] = [32, 16, 32, 1, 16];
const SHAPE_16X16: [i64; 5] = [16, 16, 16, 16, 16];
/// The TRSM solver shape: 64 one-column lanes over a 64-row solver tile.
const SHAPE_SOLVER: [i64; 5] = [16, 64, 1, 64, 8];

/// Native vs oracle on the serving inputs (`A`'s blank triangle zeroed,
/// as the registry prepares them).
fn assert_serving_bit_identical(p: &Program, n: i64) -> NativeProgram {
    let b = Bindings::square(n);
    let mut oracle = prepare_buffers(p, n, 0x5EED, true);
    let mut fast = oracle.clone();
    exec_program(p, &b, &mut oracle).expect("oracle exec");
    let np = NativeProgram::compile(p, &b).expect("native compile");
    np.execute(&mut fast).expect("native exec");
    assert_bits(&oracle, &fast);
    np
}

#[test]
fn serving_tile_shapes_replay_whole_loops() {
    // Both serving tile shapes on every routine whose register-tile loop
    // reduces to one hot run: every inner loop must run as one loop
    // record — exact-size tiles keep the guard box constant, so each
    // record covers all 16 iterations — and stay bit-identical.  On the
    // 32-lane shape the K-step loop around it folds in too: one
    // two-level record covers 16 × 16 iterations.
    let cases: Vec<(&str, [i64; 5])> = ["GEMM-NN", "GEMM-TN", "SYMM-LL", "SYMM-RU", "TRMM-LL-N"]
        .into_iter()
        .flat_map(|r| [(r, SHAPE_32X16), (r, SHAPE_16X16)])
        .collect();
    let failures: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = cases
            .iter()
            .map(|&(r, shape)| {
                s.spawn(move || {
                    let np = assert_serving_bit_identical(&serving_kernel(r, shape), 128);
                    let cov = np.coverage();
                    (r, shape, cov)
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| {
                let (r, shape, cov) = h.join().expect("case panicked");
                let per_record = if shape == SHAPE_32X16 { 256 } else { 16 };
                let whole = cov.loop_records > 0
                    && cov.fallbacks == 0
                    && cov.instances == per_record * cov.loop_records;
                (!whole).then(|| format!("{r} {shape:?}: {cov:?}"))
            })
            .collect()
    });
    assert!(failures.is_empty(), "loop records missing: {failures:#?}");
}

#[test]
fn edge_tile_box_change_walks_per_iteration() {
    // n = 120 cuts the last 16-wide column tile at j = 120, half way
    // through the register-tile loop: the guard box is full at the first
    // iteration and empty at the last, so those loops fall back to
    // per-iteration instances, while interior tiles still replay whole
    // loops.  Both must stay bit-identical.
    let np = assert_serving_bit_identical(&serving_kernel("GEMM-NN", SHAPE_32X16), 120);
    let cov = np.coverage();
    assert!(
        cov.loop_records > 0,
        "interior tiles lost their loop records: {cov:?}"
    );
    assert!(
        cov.instances > 16 * cov.loop_records,
        "edge tiles should replay single instances: {cov:?}"
    );
    assert_eq!(cov.fallbacks, 0, "{cov:?}");
}

#[test]
fn served_triangular_kernels_run_natively() {
    // The served winners whose nests store into a written global: the
    // TRMM-RU-T peeled diagonal band (`C += B·A` on the global C) and the
    // TRSM per-column substitution (`B -= A·B`, then `B /= A[i][i]`, a
    // read-after-write within each lane's own column).  Both go through
    // the write window natively — no store-shape reject, no fallback —
    // and stay bit-identical at n = 128 and at a ragged (TRMM) or larger
    // (TRSM: a multiple of the 64-row solver tile) size.
    let cases: Vec<(&str, [i64; 5], i64)> = [
        ("TRMM-RU-T", SHAPE_16X16, [128, 120]),
        ("TRSM-LL-N", SHAPE_SOLVER, [128, 192]),
        ("TRSM-RU-T", SHAPE_SOLVER, [128, 192]),
    ]
    .into_iter()
    .flat_map(|(r, shape, sizes)| sizes.map(|n| (r, shape, n)))
    .collect();
    let failures: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = cases
            .iter()
            .map(|&(r, shape, n)| {
                s.spawn(move || {
                    let np = assert_serving_bit_identical(&serving_kernel(r, shape), n);
                    (r, n, np.coverage())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| {
                let (r, n, cov) = h.join().expect("case panicked");
                let store_reject = cov
                    .rejects
                    .iter()
                    .any(|&(name, _)| matches!(name, "store-shape" | "written-global-load"));
                (store_reject || cov.fallbacks > 0 || cov.entries == 0)
                    .then(|| format!("{r} n={n}: {cov:?}"))
            })
            .collect()
    });
    assert!(failures.is_empty(), "interpreted nests left: {failures:#?}");
}

#[test]
fn served_winners_move_register_tiles_in_bulk() {
    // Every register-tile load and store of the eight served n = 128
    // winners proves its bounds guard at the corners and copies lane
    // runs; none walks per element.
    let cases = [
        ("GEMM-NN", SHAPE_32X16),
        ("GEMM-TN", SHAPE_16X16),
        ("SYMM-LL", SHAPE_32X16),
        ("SYMM-RU", SHAPE_16X16),
        ("TRMM-LL-N", SHAPE_32X16),
        ("TRMM-RU-T", SHAPE_16X16),
        ("TRSM-LL-N", SHAPE_SOLVER),
        ("TRSM-RU-T", SHAPE_SOLVER),
    ];
    for (r, shape) in cases {
        let p = serving_kernel(r, shape);
        let np = NativeProgram::compile(&p, &Bindings::square(128)).expect("native compile");
        let mut bufs = prepare_buffers(&p, 128, 0x5EED, true);
        np.execute(&mut bufs).expect("native exec");
        let cov = np.coverage();
        assert!(
            cov.bulk_moves > 0 && cov.element_moves == 0 && cov.fallback_reasons.is_empty(),
            "{r}: {cov:?}"
        );
    }
}

#[test]
fn trsm_solver_nests_replay_whole_row_blocks() {
    // Each 64-column block solves its n/16 row blocks in turn.  Row
    // block rb's update nest (16 rows around a guarded 8-trip k loop)
    // runs once per earlier k block, 2·rb times, each one two-level
    // record; its substitution nest (row i, an inner trip of i, then the
    // divide) replays as one triangular record.  All eight serving
    // winners at n = 64 and the two served at n = 128 and 192, on both
    // engines, bit-identical with the oracle and with no fallback.
    let routines = [
        "TRSM-LL-N",
        "TRSM-LL-T",
        "TRSM-LU-N",
        "TRSM-LU-T",
        "TRSM-RL-N",
        "TRSM-RL-T",
        "TRSM-RU-N",
        "TRSM-RU-T",
    ];
    let cases: Vec<(&str, i64)> = routines
        .iter()
        .map(|&r| (r, 64))
        .chain(
            ["TRSM-LL-N", "TRSM-RU-T"]
                .into_iter()
                .flat_map(|r| [(r, 128), (r, 192)]),
        )
        .collect();
    let failures: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = cases
            .iter()
            .map(|&(r, n)| {
                s.spawn(move || {
                    let p = serving_kernel(r, SHAPE_SOLVER);
                    let np = assert_serving_bit_identical(&p, n);
                    let b = Bindings::square(n);
                    let mut oracle = prepare_buffers(&p, n, 0x5EED, true);
                    let mut bc = oracle.clone();
                    exec_program(&p, &b, &mut oracle).expect("oracle exec");
                    np.bytecode().execute(&mut bc).expect("bytecode exec");
                    assert_bits(&oracle, &bc);
                    (r, n, np.coverage())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| {
                let (r, n, cov) = h.join().expect("case panicked");
                let (blocks, row_blocks) = (n as u64 / 64, n as u64 / 16);
                let substitution = blocks * row_blocks;
                let update = blocks * row_blocks * (row_blocks - 1);
                let whole = cov.fallbacks == 0
                    && cov.triangular_records == substitution
                    && cov.loop_records == substitution + update
                    && cov.two_level_records == cov.loop_records;
                (!whole).then(|| format!("{r} n={n}: {cov:?}"))
            })
            .collect()
    });
    assert!(failures.is_empty(), "solver nests not whole: {failures:#?}");
}
