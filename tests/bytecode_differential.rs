//! Randomized differential fuzz test for the bytecode engine.
//!
//! `engine_differential` pins one tile shape per solver class; this test
//! draws *randomized* tile/unroll parameter points per routine (from a
//! deterministic xorshift PRNG, so failures replay exactly) and asserts
//! that the tree-walking oracle, the lane-vectorized bytecode interpreter
//! and the native microkernel tier produce bit-identical buffers on every
//! launchable composer variant.  Random shapes exercise lowering paths the pinned
//! shapes cannot: partial unrolls, 1-wide thread groups, register tiles
//! of different aspect ratios, shallow and deep K tiles — each a
//! different mix of guards, peel bands and address strides for the
//! bytecode optimizer to chew on.  (Problem sizes stay tile-divisible:
//! like the paper's generator, the schemes assume padded inputs.)
//!
//! Points the composer or the lowering rejects (illegal shape for the scheme)
//! are skipped, exactly as the pipeline itself would skip them; the test
//! asserts that enough points survive per routine to be meaningful.

use oa_core::blas3::schemes::oa_scheme;
use oa_core::blas3::verify::prepare_buffers;
use oa_core::composer::compose;
use oa_core::gpusim::exec::ExecError;
use oa_core::gpusim::{exec_program, ByteCode, NativeProgram};
use oa_core::loopir::interp::{Bindings, Buffers};
use oa_core::loopir::transform::TileParams;
use oa_core::RoutineId;

/// Tiny deterministic PRNG (xorshift64*) — no external dependencies, and
/// the whole run replays from the fixed seed below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform pick from a small slice.
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next() % xs.len() as u64) as usize]
    }
}

/// Sample a tile-parameter point for the given solver class.  Shapes are
/// drawn from the same families the autotuner sweeps (powers of two, with
/// the thread grid dividing the tile) plus randomized partial unrolls.
fn sample_params(rng: &mut Rng, solver: bool) -> TileParams {
    let unroll = rng.pick(&[0usize, 0, 2, 4]);
    if solver {
        // Row-of-threads shapes: one thread row, tx-wide thread groups.
        let ty = rng.pick(&[8i64, 16, 32]);
        let tx = rng.pick(&[16i64, 32]);
        TileParams {
            ty,
            tx,
            thr_i: 1,
            thr_j: tx,
            kb: rng.pick(&[4i64, 8, 16]),
            unroll,
        }
    } else {
        let ty = rng.pick(&[8i64, 16, 32]);
        let tx = rng.pick(&[8i64, 16, 32]);
        let thr_i = rng.pick(&[2i64, 4, 8]).min(ty);
        let thr_j = rng.pick(&[2i64, 4, 8]).min(tx);
        TileParams {
            ty,
            tx,
            thr_i,
            thr_j,
            kb: rng.pick(&[4i64, 8, 16]),
            unroll,
        }
    }
}

/// Bit-pattern comparison of every buffer.
fn assert_bit_identical(a: &Buffers, b: &Buffers, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: buffer sets differ");
    for (name, m) in a {
        let other = b
            .get(name)
            .unwrap_or_else(|| panic!("{ctx}: buffer {name} missing"));
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
fn randomized_tile_points_are_bit_identical_across_engines() {
    let mut rng = Rng(0x5EED_CAFE_F00D_0001);
    for r in RoutineId::all24() {
        let scheme = oa_scheme(r);
        let src = oa_core::blas3::routines::source(r);
        let mut checked = 0usize;
        let mut attempts = 0usize;
        // Keep drawing points until two have produced launchable kernels
        // (bounded, so a scheme that rejects most shapes cannot loop
        // forever).
        while checked < 2 && attempts < 12 {
            attempts += 1;
            let params = sample_params(&mut rng, scheme.solver);
            // Tile-divisible sizes (all sampled ty/tx/kb divide both).
            let n = rng.pick(&[32i64, 64]);
            let zero_blanks = rng.next().is_multiple_of(2);
            let bindings = Bindings::square(n);
            for base in &scheme.bases {
                // Random shapes may be illegal for this scheme: skip, as
                // the composer pipeline itself would.
                let Ok(variants) = compose(&src, base, &scheme.apps, params) else {
                    continue;
                };
                for v in variants {
                    let Ok(bc) = ByteCode::compile(&v.program, &bindings) else {
                        continue;
                    };
                    let native = NativeProgram::compile(&v.program, &bindings)
                        .unwrap_or_else(|e| panic!("{}: native lowering failed: {e}", r.name()));
                    let ctx = format!(
                        "{} n={n} params={params:?} zero_blanks={zero_blanks} script:\n{}",
                        r.name(),
                        v.script
                    );
                    let mut oracle = prepare_buffers(&v.program, n, 0xF00D, zero_blanks);
                    match exec_program(&v.program, &bindings, &mut oracle) {
                        Ok(()) => {}
                        // A ragged random point can legitimately diverge at
                        // a barrier at runtime.  The point is unusable for
                        // value comparison, but every engine must agree on
                        // the verdict.
                        Err(ExecError::BarrierDivergence(_)) => {
                            let mut b = prepare_buffers(&v.program, n, 0xF00D, zero_blanks);
                            assert!(
                                matches!(bc.execute(&mut b), Err(ExecError::BarrierDivergence(_))),
                                "{ctx}: oracle diverged but bytecode did not"
                            );
                            let mut nb = prepare_buffers(&v.program, n, 0xF00D, zero_blanks);
                            assert!(
                                matches!(
                                    native.execute(&mut nb),
                                    Err(ExecError::BarrierDivergence(_))
                                ),
                                "{ctx}: oracle diverged but native did not"
                            );
                            continue;
                        }
                        Err(e) => panic!("{ctx}: oracle failed: {e}"),
                    }

                    let mut bc_out = prepare_buffers(&v.program, n, 0xF00D, zero_blanks);
                    bc.execute(&mut bc_out)
                        .unwrap_or_else(|e| panic!("{ctx}: bytecode failed: {e}"));
                    assert_bit_identical(&oracle, &bc_out, &ctx);

                    let mut nat_out = prepare_buffers(&v.program, n, 0xF00D, zero_blanks);
                    native
                        .execute(&mut nat_out)
                        .unwrap_or_else(|e| panic!("{ctx}: native failed: {e}"));
                    assert_bit_identical(&oracle, &nat_out, &ctx);
                    checked += 1;
                }
            }
        }
        assert!(
            checked >= 2,
            "{}: only {checked} launchable random points in {attempts} draws",
            r.name()
        );
    }
}
