//! # oa-core — the OA framework
//!
//! The public face of this reproduction of *"Automatic Library Generation
//! for BLAS3 on GPUs"* (IPPS 2011): a script-controlled compilation
//! framework that tunes BLAS3 routines for (simulated) NVIDIA GPUs by
//! reusing the GEMM-NN optimization scheme through adaptors.
//!
//! ```no_run
//! use oa_core::{OaFramework, RoutineId, Trans};
//! use oa_gpusim::DeviceSpec;
//!
//! let oa = OaFramework::new(DeviceSpec::gtx285());
//! let tuned = oa.tune(RoutineId::Gemm(Trans::N, Trans::N), 4096).unwrap();
//! println!("best script:\n{}", tuned.script);
//! println!("{:.0} GFLOPS (model)", tuned.report.gflops);
//! ```
//!
//! The pipeline underneath: routine source ([`oa_blas3::routines`]) →
//! composer ([`oa_composer`]) mixes the Fig. 3 GEMM script with the
//! routine's adaptor(s) → EPOD translator ([`oa_epod`]) applies each
//! generated script over the loop IR ([`oa_loopir`]) → the search
//! ([`oa_autotune`]) sweeps variants × tile parameters on the simulator's
//! performance model ([`oa_gpusim`]) and the best performer wins.

#![warn(missing_docs)]

pub mod dag;
pub mod dispatch;
pub mod serve;
pub mod testutil;
pub mod trace;

pub use oa_adl as adl;
pub use oa_autotune as autotune;
pub use oa_blas3 as blas3;
pub use oa_composer as composer;
pub use oa_epod as epod;
pub use oa_fuzz as fuzz;
pub use oa_gpusim as gpusim;
pub use oa_loopir as loopir;

pub use dag::{admit_dag, DagOutcome, DagRequest, DagStatus};
pub use dispatch::{Registry, Request, RequestOutcome, RequestStatus};
pub use oa_autotune::{
    CacheIssue, FailureTable, TuneCache, TuneError, TuneEvent, TunedKernel, TunedRecord,
};
pub use oa_blas3::types::{RoutineId, Side, Trans, Uplo};
pub use oa_gpusim::{DeviceSpec, PerfReport};
pub use serve::{serve_stream, spawn_server, Listener, ServeConfig, Server};
pub use trace::TraceMode;

use oa_loopir::interp::Bindings;

/// The OA framework bound to one device.
pub struct OaFramework {
    /// The target (simulated) GPU.
    pub device: DeviceSpec,
}

/// A routine measurement triple: OA vs. the library baselines.
#[derive(Clone, Debug)]
pub struct RoutineComparison {
    /// The routine.
    pub routine: RoutineId,
    /// Problem size.
    pub n: i64,
    /// OA's tuned result.
    pub oa: PerfReport,
    /// The CUBLAS-3.2-like baseline.
    pub cublas: PerfReport,
    /// The MAGMA-v0.2-like baseline, where MAGMA had the routine.
    pub magma: Option<PerfReport>,
    /// The winning EPOD script.
    pub script: oa_epod::Script,
}

impl RoutineComparison {
    /// OA speedup over the CUBLAS-like baseline.
    pub fn speedup(&self) -> f64 {
        self.oa.gflops / self.cublas.gflops
    }
}

impl OaFramework {
    /// Bind the framework to a device.
    pub fn new(device: DeviceSpec) -> Self {
        Self { device }
    }

    /// Tune one routine at problem size `n` (composer + search).
    pub fn tune(&self, r: RoutineId, n: i64) -> Result<TunedKernel, TuneError> {
        oa_autotune::tune(r, &self.device, n)
    }

    /// [`OaFramework::tune`] with a trace observer: the tuner reports one
    /// span per pipeline stage and one terminal outcome per candidate
    /// (render them with [`trace::stderr_observer`] or any callback).
    pub fn tune_observed(
        &self,
        r: RoutineId,
        n: i64,
        obs: &mut dyn FnMut(TuneEvent),
    ) -> Result<TunedKernel, TuneError> {
        oa_autotune::tune_observed(r, &self.device, n, obs)
    }

    /// Evaluate the CUBLAS-like baseline.
    pub fn cublas_baseline(&self, r: RoutineId, n: i64) -> PerfReport {
        oa_autotune::baseline_perf(r, &self.device, n)
    }

    /// Evaluate the MAGMA-like baseline (GEMM/TRSM only).
    pub fn magma_baseline(&self, r: RoutineId, n: i64) -> Option<PerfReport> {
        oa_autotune::magma_perf(r, &self.device, n)
    }

    /// Tune + measure baselines for one routine.
    pub fn compare(&self, r: RoutineId, n: i64) -> Result<RoutineComparison, TuneError> {
        let tuned = self.tune(r, n)?;
        Ok(RoutineComparison {
            routine: r,
            n,
            cublas: self.cublas_baseline(r, n),
            magma: self.magma_baseline(r, n),
            script: tuned.script.clone(),
            oa: tuned.report,
        })
    }

    /// Re-evaluate a cached tuning record at another problem size
    /// (used by the Fig. 13 scaling study).
    pub fn evaluate_record(
        &self,
        rec: &TunedRecord,
        r: RoutineId,
        n: i64,
    ) -> Result<PerfReport, String> {
        let src = oa_blas3::routines::source(r);
        let script = oa_epod::parse_script(&rec.script).map_err(|e| e.to_string())?;
        let outcome = oa_epod::translator::apply_lenient(&src, &script, rec.tile_params())
            .map_err(|e| e.to_string())?;
        oa_gpusim::perf::evaluate(
            &outcome.program,
            &Bindings::square(n),
            &self.device,
            r.flops(n),
            true,
        )
        .map_err(|e| e.to_string())
    }

    /// Verify a tuned kernel against the CPU reference on the functional
    /// executor at a small size; returns the max element error.
    pub fn verify(&self, t: &TunedKernel, n: i64, seed: u64) -> Result<f32, String> {
        let rep = oa_blas3::verify::verify_against_reference(t.routine, &t.program, n, seed, true)
            .map_err(|e| e.to_string())?;
        Ok(rep.max_abs_diff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_gemm_tt_tuned_and_verified() {
        let oa = OaFramework::new(DeviceSpec::geforce_9800());
        let t = oa.tune(RoutineId::Gemm(Trans::T, Trans::T), 512).unwrap();
        // Functional verification at a tile-multiple size.
        let err = oa.verify(&t, 64, 0x5EED).unwrap();
        assert!(err < 2e-3, "GEMM-TT tuned kernel wrong by {err}");
    }

    #[test]
    fn comparison_includes_magma_only_for_gemm_trsm() {
        let oa = OaFramework::new(DeviceSpec::gtx285());
        let c = oa
            .compare(RoutineId::Gemm(Trans::N, Trans::N), 512)
            .unwrap();
        assert!(c.magma.is_some());
        assert!(c.speedup() > 0.5);
        let s = oa
            .compare(RoutineId::Symm(Side::Left, Uplo::Lower), 512)
            .unwrap();
        assert!(s.magma.is_none());
    }
}
