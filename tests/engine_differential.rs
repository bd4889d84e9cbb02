//! Differential test between the three GPU execution engines.
//!
//! The lane-vectorized bytecode interpreter (`oa_gpusim::bytecode` +
//! `oa_gpusim::vexec`) and the native microkernel tier
//! (`oa_gpusim::native`) must be **bit-identical** — not merely within
//! tolerance — to the tree-walking oracle (`oa_gpusim::exec`) on every
//! kernel the pipeline can produce: every composer-generated variant of
//! every one of the 24 BLAS3 routine variants, with the blank triangles
//! both zeroed and dirty.  The oracle executes blocks sequentially in
//! `(by, bx)` order; the compiled engines fan blocks out with rayon and
//! merge per-block write logs in the same order, so any divergence (a
//! missed read-your-write, a wrong slot binding, a cross-block dependence
//! the parallel engines would break, a bad optimizer rewrite in the
//! bytecode lowering, a mis-lowered native region) shows up as a
//! differing bit pattern here.
//!
//! A second pass re-executes the same native program and asserts the
//! outputs agree bit-for-bit with the first parallel run: scheduling (and
//! the native tier's per-program runtime state) must never leak into
//! results.

use oa_core::blas3::schemes::oa_scheme;
use oa_core::blas3::verify::prepare_buffers;
use oa_core::composer::compose;
use oa_core::gpusim::{exec_program, ByteCode, NativeProgram};
use oa_core::loopir::interp::{Bindings, Buffers};
use oa_core::loopir::transform::TileParams;
use oa_core::RoutineId;
use std::sync::atomic::{AtomicUsize, Ordering};

fn exec_params(solver: bool) -> TileParams {
    if solver {
        TileParams {
            ty: 16,
            tx: 32,
            thr_i: 1,
            thr_j: 32,
            kb: 8,
            unroll: 0,
        }
    } else {
        TileParams {
            ty: 16,
            tx: 16,
            thr_i: 8,
            thr_j: 8,
            kb: 8,
            unroll: 0,
        }
    }
}

/// Bit-pattern comparison of every buffer (inputs included: engines must
/// not even touch anything differently).
fn assert_buffers_bit_identical(a: &Buffers, b: &Buffers, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: buffer sets differ");
    for (name, m) in a {
        let other = b
            .get(name)
            .unwrap_or_else(|| panic!("{ctx}: buffer {name} missing"));
        assert_eq!(m.rows, other.rows, "{ctx}: {name} shape");
        assert_eq!(m.cols, other.cols, "{ctx}: {name} shape");
        for (i, (x, y)) in m.data.iter().zip(other.data.iter()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{ctx}: {name}[{i}] differs: {x:?} ({:#010x}) vs {y:?} ({:#010x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }
}

#[test]
fn compiled_engines_are_bit_identical_to_oracle_on_all_24_routines() {
    // The routines are independent and the oracle dominates the run
    // time, so every core takes the next unchecked routine.
    let routines = RoutineId::all24();
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(2, |p| p.get());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while let Some(&r) = routines.get(next.fetch_add(1, Ordering::Relaxed)) {
                    check_routine(r);
                }
            });
        }
    });
}

/// Every launchable composed variant of `r`, blanks zeroed and dirty.
fn check_routine(r: RoutineId) {
    let n = 64;
    let bindings = Bindings::square(n);
    let scheme = oa_scheme(r);
    let src = oa_core::blas3::routines::source(r);
    let params = exec_params(scheme.solver);
    let mut checked = 0usize;
    for base in &scheme.bases {
        let variants = compose(&src, base, &scheme.apps, params)
            .unwrap_or_else(|e| panic!("{}: composer failed: {e}", r.name()));
        for v in variants {
            // Unlaunchable variants have no GPU execution to compare.
            let Ok(bc) = ByteCode::compile(&v.program, &bindings) else {
                continue;
            };
            let native = NativeProgram::compile(&v.program, &bindings)
                .unwrap_or_else(|e| panic!("{}: native lowering failed: {e}", r.name()));
            for zero_blanks in [true, false] {
                let ctx = format!(
                    "{} (zero_blanks={zero_blanks}) script:\n{}",
                    r.name(),
                    v.script
                );
                let mut oracle = prepare_buffers(&v.program, n, 0xFACE, zero_blanks);
                exec_program(&v.program, &bindings, &mut oracle)
                    .unwrap_or_else(|e| panic!("{ctx}: oracle failed: {e}"));

                let mut vec_out = prepare_buffers(&v.program, n, 0xFACE, zero_blanks);
                bc.execute(&mut vec_out)
                    .unwrap_or_else(|e| panic!("{ctx}: bytecode failed: {e}"));
                assert_buffers_bit_identical(&oracle, &vec_out, &ctx);

                let mut nat_out = prepare_buffers(&v.program, n, 0xFACE, zero_blanks);
                native
                    .execute(&mut nat_out)
                    .unwrap_or_else(|e| panic!("{ctx}: native failed: {e}"));
                assert_buffers_bit_identical(&oracle, &nat_out, &ctx);

                // Determinism: a second parallel run of the same native
                // program reproduces the first bit-for-bit.
                let mut again = prepare_buffers(&v.program, n, 0xFACE, zero_blanks);
                native
                    .execute(&mut again)
                    .unwrap_or_else(|e| panic!("{ctx}: native re-run failed: {e}"));
                assert_buffers_bit_identical(&nat_out, &again, &ctx);
                checked += 1;
            }
        }
    }
    assert!(
        checked >= 2,
        "{}: no launchable variants compared",
        r.name()
    );
}
