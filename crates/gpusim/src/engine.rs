//! Engine selection: one entry point over the three executors.
//!
//! The simulator has three semantically identical engines, in increasing
//! order of compilation effort and execution speed:
//!
//! 1. **oracle** — the tree-walking reference executor
//!    ([`exec_program`](crate::exec::exec_program));
//! 2. **bytecode** — the program lowered in one pass, names resolved to
//!    frame slots, to optimized linear bytecode and run on the
//!    lane-vectorized interpreter ([`ByteCode`]);
//! 3. **native** — the bytecode further lowered to specialized host
//!    microkernels for its lane-affine inner loop nests, falling back to
//!    the interpreter everywhere else ([`NativeProgram`]).
//!
//! [`exec_program_fast`] is the fast path used by the composer's legality
//! filter, the BLAS3 verifier and the autotuner, and the serving registry
//! takes the same default.  It runs the native engine; set
//! `OA_EXEC_ENGINE=oracle|bytecode|native` to pin a specific engine (an
//! unset or unrecognized value, such as `tape`, selects native, so stale
//! scripts keep working).
//!
//! `OA_EXEC_ENGINE` is the *top-level default only*, read once per process
//! by [`select`].  Code that needs a specific engine (tests, benchmarks,
//! the tuner's engine-invariance checks) passes an explicit [`ExecEngine`]
//! through [`exec_program_on`] / the `*_on` pipeline entry points instead
//! of mutating the environment — `std::env::set_var` is process-global and
//! racy under the parallel test harness (and denied by clippy in this
//! workspace, see `clippy.toml`).

use oa_loopir::interp::{Bindings, Buffers};
use oa_loopir::Program;
use std::sync::OnceLock;

use crate::bytecode::ByteCode;
use crate::exec::ExecError;
use crate::native::NativeProgram;

/// Which executor to run a program on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecEngine {
    /// Tree-walking reference interpreter (slow, zero compilation).
    Oracle,
    /// Optimized linear bytecode on the lane-vectorized interpreter.
    Bytecode,
    /// Bytecode with lane-affine inner loop nests lowered to native host
    /// microkernels (fastest; interpreter fallback elsewhere; default).
    Native,
}

impl ExecEngine {
    /// Parse an engine name; `None` for unrecognized input.
    pub fn parse(name: &str) -> Option<ExecEngine> {
        match name {
            "oracle" => Some(ExecEngine::Oracle),
            "bytecode" => Some(ExecEngine::Bytecode),
            "native" => Some(ExecEngine::Native),
            _ => None,
        }
    }

    /// The engine's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            ExecEngine::Oracle => "oracle",
            ExecEngine::Bytecode => "bytecode",
            ExecEngine::Native => "native",
        }
    }

    /// All engines, oracle first (the differential-test iteration order).
    pub const ALL: [ExecEngine; 3] = [ExecEngine::Oracle, ExecEngine::Bytecode, ExecEngine::Native];
}

/// The engine an `OA_EXEC_ENGINE` value selects: the named engine, or
/// [`ExecEngine::Native`] when the value is unset or unrecognized.
fn default_engine(value: Option<&str>) -> ExecEngine {
    value
        .and_then(ExecEngine::parse)
        .unwrap_or(ExecEngine::Native)
}

/// The process-wide default engine: `OA_EXEC_ENGINE`, read **once** on
/// first use.  Unset or unrecognized values select [`ExecEngine::Native`]
/// (so stale scripts keep working).
///
/// This is the only place the environment influences engine choice; every
/// other selection point takes an explicit [`ExecEngine`] parameter.
pub fn select() -> ExecEngine {
    static DEFAULT: OnceLock<ExecEngine> = OnceLock::new();
    *DEFAULT.get_or_init(|| default_engine(std::env::var("OA_EXEC_ENGINE").ok().as_deref()))
}

/// Execute `p` on `bufs` with the given engine.
///
/// Compilation errors (unmapped program, missing buffer) and barrier
/// divergence surface as [`ExecError`] regardless of engine; results are
/// bit-identical across engines for every kernel this framework
/// generates.
pub fn exec_program_on(
    engine: ExecEngine,
    p: &Program,
    bindings: &Bindings,
    bufs: &mut Buffers,
) -> Result<(), ExecError> {
    match engine {
        ExecEngine::Oracle => crate::exec::exec_program(p, bindings, bufs),
        ExecEngine::Bytecode => ByteCode::compile(p, bindings)?.execute(bufs),
        ExecEngine::Native => NativeProgram::compile(p, bindings)?.execute(bufs),
    }
}

/// Compile and execute `p` on the fast path: the process-default engine
/// ([`select`]), normally the native engine.
pub fn exec_program_fast(
    p: &Program,
    bindings: &Bindings,
    bufs: &mut Buffers,
) -> Result<(), ExecError> {
    exec_program_on(select(), p, bindings, bufs)
}

/// Run `p` through **every** engine on its own clone of `bufs`, in
/// parallel (one OS thread per engine — each engine is internally
/// deterministic, and they never share state, so the parallelism cannot
/// change any result).  Results come back in [`ExecEngine::ALL`] order —
/// oracle first — each carrying the engine's private output buffers or
/// its error.
///
/// This is the differential cross-check primitive: the fuzzer and the
/// cross-engine tests call it once per case and then compare the three
/// outcomes for bit-identical buffers or identically-classified errors
/// ([`ExecError::class`]).
pub fn exec_all_engines(
    p: &Program,
    bindings: &Bindings,
    bufs: &Buffers,
) -> [(ExecEngine, Result<Buffers, ExecError>); 3] {
    let run = |engine: ExecEngine| {
        let mut mine = bufs.clone();
        exec_program_on(engine, p, bindings, &mut mine).map(|()| mine)
    };
    let [a, b, c] = ExecEngine::ALL;
    let (ra, rb, rc) = std::thread::scope(|s| {
        let hb = s.spawn(|| run(b));
        let hc = s.spawn(|| run(c));
        let ra = run(a);
        (
            ra,
            hb.join().expect("engine thread panicked"),
            hc.join().expect("engine thread panicked"),
        )
    });
    [(a, ra), (b, rb), (c, rc)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_loopir::builder::gemm_nn_like;
    use oa_loopir::interp::alloc_buffers;
    use oa_loopir::transform::{loop_tiling, sm_alloc, thread_grouping, TileParams};

    fn mapped_gemm() -> Program {
        let mut p = gemm_nn_like("g");
        let params = TileParams {
            ty: 8,
            tx: 8,
            thr_i: 4,
            thr_j: 4,
            kb: 4,
            unroll: 0,
        };
        thread_grouping(&mut p, "Li", "Lj", params).unwrap();
        loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
        sm_alloc(&mut p, "B", oa_loopir::AllocMode::Transpose).unwrap();
        p
    }

    #[test]
    fn all_engines_agree() {
        let p = mapped_gemm();
        let b = Bindings::square(32);
        let mut outs = Vec::new();
        for engine in ExecEngine::ALL {
            let mut bufs = alloc_buffers(&p, &b, 11);
            exec_program_on(engine, &p, &b, &mut bufs).expect("exec");
            outs.push(
                bufs["C"]
                    .data
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(outs[0], outs[1], "oracle vs bytecode");
        assert_eq!(outs[0], outs[2], "oracle vs native");
    }

    #[test]
    fn unmapped_program_fails_on_every_engine() {
        let p = gemm_nn_like("g");
        let b = Bindings::square(8);
        for engine in ExecEngine::ALL {
            let mut bufs = alloc_buffers(&p, &b, 1);
            let err = exec_program_on(engine, &p, &b, &mut bufs).unwrap_err();
            assert!(matches!(err, ExecError::Launch(_)), "{engine:?}");
        }
    }

    #[test]
    fn env_value_selects_named_engine_else_native() {
        for unset_or_unknown in [None, Some("tape"), Some("no-such-engine"), Some("")] {
            assert_eq!(default_engine(unset_or_unknown), ExecEngine::Native);
        }
        assert_eq!(default_engine(Some("bytecode")), ExecEngine::Bytecode);
        for engine in ExecEngine::ALL {
            assert_eq!(default_engine(Some(engine.name())), engine);
        }
    }
}
