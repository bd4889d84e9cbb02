//! # oa-autotune — empirical search over generated variants
//!
//! The OA framework generates multiple EPOD scripts per routine; this crate
//! sweeps them against the tile-parameter [`space`] on the simulator's
//! performance model and keeps the best performer ([`tuner`]), memoizing
//! outcomes in a versioned crash-safe JSON [`cache`] and reporting every
//! stage and candidate outcome through the [`report`] event types.
//!
//! A learned cost [`model`] (deterministic CART ensemble over the static
//! candidate [`features`]) can rank the sweep likely-best-first and skip
//! provable losers (`OA_TUNE_MODEL=off|rank|rank+exit`) — order-only by
//! contract: tuned winners are bit-identical whether or not it is on.

#![warn(missing_docs)]

pub mod cache;
pub mod features;
pub mod fuse;
pub mod json;
pub mod model;
pub mod report;
pub mod space;
pub mod tuner;

pub use cache::{CacheIssue, CacheLock, TuneCache, TunedRecord, CACHE_VERSION};
pub use features::{candidate_features, FEATURE_DIM, FEATURE_NAMES};
pub use fuse::{
    plan_dag, shape_key, tune_fused, DagNode, DagPlan, DagRun, FuseEnv, FuseKind, FuseReject,
    Operand, PlanUnit, ResolveMode,
};
pub use model::{
    model_path_from_env, sibling_model_path, CostModel, ModelMode, Sample, MODEL_FILE,
    MODEL_VERSION,
};
pub use report::{
    CandidateFate, CandidateOutcome, FailureTable, FuseStats, ModelStats, ServeStats, Stage,
    TuneEvent,
};
pub use space::{candidates, default_params, gemm_candidates, solver_candidates};
pub use tuner::{
    baseline_perf, magma_perf, measure_engine_hints, samples_from_trace, sweep_samples, tune,
    tune_at, tune_at_observed, tune_fresh, tune_fresh_modeled, tune_fresh_observed, tune_fresh_on,
    tune_observed, validate_record, ModelCtx, TuneError, TunedKernel,
};
