//! End-to-end verification helpers: run a transformed program through the
//! GPU executor and compare against the CPU reference.

use crate::reference::run_reference;
use crate::types::RoutineId;
use oa_gpusim::exec::ExecError;
use oa_gpusim::exec_program_fast;
use oa_loopir::interp::{alloc_buffers, Bindings, Buffers};
use oa_loopir::Program;

/// Verification outcome.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Largest absolute element difference against the reference.
    pub max_abs_diff: f32,
    /// Name of the compared output array.
    pub output: &'static str,
}

/// Allocate buffers for a program, strengthen the `A` diagonal (so solves
/// are well-conditioned) and optionally zero the blank triangle.
pub fn prepare_buffers(p: &Program, n: i64, seed: u64, zero_blanks: bool) -> Buffers {
    let b = Bindings::square(n);
    let mut bufs = alloc_buffers(p, &b, seed);
    if let Some(a) = bufs.get_mut("A") {
        for i in 0..a.rows.min(a.cols) {
            let v = a.get(i, i);
            a.set(i, i, v.signum() * (v.abs() + 2.0));
        }
        if zero_blanks {
            if let Some(decl) = p.array("A") {
                a.zero_blank(decl.fill);
            }
        }
    }
    bufs
}

/// Execute `program` (a transformed variant of routine `r`) on the GPU
/// executor at size `n` and compare its output with the CPU reference run
/// on identical inputs.
pub fn verify_against_reference(
    r: RoutineId,
    program: &Program,
    n: i64,
    seed: u64,
    zero_blanks: bool,
) -> Result<VerifyReport, ExecError> {
    let bindings = Bindings::square(n);
    let mut bufs = prepare_buffers(program, n, seed, zero_blanks);

    // Reference inputs are snapshots of the same data.
    let a_in = bufs["A"].clone();
    let mut b_ref = bufs["B"].clone();
    let mut c_ref = bufs
        .get("C")
        .cloned()
        .unwrap_or_else(|| oa_loopir::interp::Matrix::zeros(n, n));
    run_reference(r, &a_in, &mut b_ref, &mut c_ref);

    // The fast executor (native by default, OA_EXEC_ENGINE-selectable):
    // bit-identical to the tree-walking oracle, but compiled and
    // block-parallel (all 24 routines verify in seconds).
    exec_program_fast(program, &bindings, &mut bufs)?;

    let (output, expect) = match r {
        RoutineId::Trsm(..) => ("B", &b_ref),
        _ => ("C", &c_ref),
    };
    Ok(VerifyReport {
        max_abs_diff: bufs[output].max_abs_diff(expect),
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::cublas_like;
    use oa_gpusim::DeviceSpec;

    /// Every CUBLAS-like baseline kernel must compute the routine
    /// correctly under GPU execution.
    #[test]
    fn cublas_baselines_correct_on_gpu() {
        let dev = DeviceSpec::gtx285();
        for r in RoutineId::all24() {
            let p = cublas_like(r, &dev);
            // Tile sizes are 64/16-grained: use one tile-multiple size.
            let n = 64;
            let rep = verify_against_reference(r, &p, n, 0xABCD, false)
                .unwrap_or_else(|e| panic!("{}: exec failed: {e}", r.name()));
            let tol = match r {
                RoutineId::Trsm(..) => 5e-2, // substitution error compounds
                _ => 2e-3,
            };
            assert!(
                rep.max_abs_diff < tol,
                "{} baseline wrong by {}",
                r.name(),
                rep.max_abs_diff
            );
        }
    }
}
