//! # oa-gpusim — the simulated GPU substrate
//!
//! No NVIDIA hardware is available to this reproduction, so the three
//! evaluation platforms of the paper (GeForce 9800, GTX 285, Fermi Tesla
//! C2050) are modeled by this crate:
//!
//! * [`device`] — architectural parameters of the three GPUs;
//! * [`launch`] — lowering: launch-configuration extraction from a
//!   transformed loop nest (the nvcc stand-in);
//! * [`exec`] — a functional, barrier-stepped executor used as the
//!   correctness oracle for final kernels;
//! * [`bytecode`] / [`vexec`] — the one lowering pass: a program compiled
//!   once, names resolved to frame slots, into an optimized flat bytecode
//!   (constant folding, invariant hoisting, strength reduction, FMA
//!   fusion) and run block-parallel on a lane-vectorized interpreter;
//! * [`native`] — the fastest path: the bytecode's lane-affine inner
//!   loop nests pattern-matched at compile time and executed through
//!   specialized host SIMD microkernels, interpreter fallback elsewhere;
//! * [`engine`] — selection among the three engines
//!   (`OA_EXEC_ENGINE=oracle|bytecode|native`, default native);
//! * [`dispatch`] — serving building blocks: compile-once programs and
//!   the bounded LRU program store behind `oa_core::dispatch`'s routine
//!   registry;
//! * [`events`] — per-warp coalescing and bank-conflict classification;
//! * [`perf`] — the sampled performance model producing GFLOPS estimates
//!   and `cuda_profile`-style counters ([`profile`]).
//!
//! The design principle: the counters of Tables I–III must *emerge* from
//! the address streams of the generated kernels, so both the OA-generated
//! kernels and the CUBLAS-like baselines run through exactly the same
//! machinery.

#![warn(missing_docs)]

pub mod bytecode;
pub mod cudagen;
pub mod device;
pub mod dispatch;
pub mod engine;
pub mod events;
pub mod exec;
pub mod launch;
pub mod native;
pub mod perf;
pub mod profile;
pub mod vexec;
mod window;

pub use bytecode::ByteCode;
pub use cudagen::to_cuda_source;
pub use device::{ComputeCapability, DeviceSpec};
pub use dispatch::{CompiledProgram, Lru, LruStats};
pub use engine::{
    exec_all_engines, exec_program_fast, exec_program_on, select as select_engine, ExecEngine,
};
pub use exec::{exec_program, run_fresh_gpu, run_fresh_gpu_ref, ExecError};
pub use launch::{extract_launch, Launch, LaunchError};
pub use native::{NativeCoverage, NativeProgram, NativeReject, RegionReplay};
pub use perf::{evaluate, EvalError, PerfReport};
pub use profile::ProfileCounters;
/// Run a closure with the engines' block-parallel regions inline: for
/// callers that own the machine's parallelism, like `oa serve`'s
/// request workers.
pub use rayon::in_place;
