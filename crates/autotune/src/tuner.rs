//! The empirical search: composer-generated script variants × tile
//! parameters, evaluated on the performance model, best performer kept
//! (Sec. II: "Our OA framework will generate a set of code variants
//! according to the composed EPOD scripts obtained.  The best among the
//! set is searched for.")
//!
//! Every entry point has an *observed* variant taking a
//! `&mut dyn FnMut(TuneEvent)` callback; the tuner emits one span per
//! pipeline stage (compose, filter, translate, evaluate) and one terminal
//! outcome per candidate, so callers can render a trace (`oa_core::trace`)
//! or account for failures without the tuner knowing how they display.
//!
//! The execution engine behind the composer's legality filter is threaded
//! explicitly ([`tune_fresh_on`]); the `OA_EXEC_ENGINE` environment
//! variable is read exactly once, in `oa_gpusim::engine::select`, never
//! mutated here.
//!
//! A fresh sweep can be *ranked* by the learned cost model
//! ([`crate::model`]): the model orders the points likely-best-first and,
//! in `rank+exit` mode, the sweep stops once every unevaluated point's
//! predicted ceiling falls strictly below an already-measured incumbent.
//! The winner-invariance contract: the ranked sweep selects its winner
//! with the *same order and comparator* as the exact sweep over whatever
//! it evaluated, and the early exit may only skip points the model (with
//! its safety margin) proves losers — so tuned winners are bit-identical
//! whenever the model is on, and the model is pure ordering advice.

use oa_blas3::schemes::oa_scheme;
use oa_blas3::types::RoutineId;
use oa_composer::{compose_on, ComposeStats};
use oa_epod::translator::{apply_lenient, TranslateError};
use oa_epod::Script;
use oa_gpusim::perf::{evaluate, EvalError, PerfReport};
use oa_gpusim::{select_engine, DeviceSpec, ExecEngine};
use oa_loopir::interp::Bindings;
use oa_loopir::transform::TileParams;
use oa_loopir::Program;
use rayon::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::cache::{CacheIssue, TuneCache, TunedRecord};
use crate::features::candidate_features;
use crate::model::{model_path_from_env, CostModel, ModelMode, Sample, RANK_CHUNK, RANK_TOP_K};
use crate::report::{CandidateFate, CandidateOutcome, FailureTable, ModelStats, Stage, TuneEvent};
use crate::space::{candidates, default_params};

/// A tuned kernel: the winning script/parameter pair and its predicted
/// performance.
#[derive(Clone, Debug)]
pub struct TunedKernel {
    /// The routine.
    pub routine: RoutineId,
    /// Device name.
    pub device: String,
    /// Problem size the kernel was tuned at.
    pub n: i64,
    /// The winning EPOD script.
    pub script: Script,
    /// The winning tile parameters.
    pub params: TileParams,
    /// Performance-model report.
    pub report: PerfReport,
    /// The transformed program (ready for execution/inspection).
    pub program: Program,
    /// Number of (variant, parameter) points evaluated.
    pub evaluated: usize,
}

/// Tuning errors.
#[derive(Debug)]
pub enum TuneError {
    /// The composer produced no variants.
    NoVariants(String),
    /// No candidate survived evaluation; `failures` classifies where
    /// every sweep point died (the table `oa tune` prints).
    NothingEvaluated {
        /// The routine that came up empty.
        routine: String,
        /// Failure counts by class.
        failures: FailureTable,
    },
    /// Composer failure.
    Composer(String),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::NoVariants(r) => write!(f, "no script variants generated for {r}"),
            TuneError::NothingEvaluated { routine, failures } => {
                writeln!(f, "no evaluable candidate for {routine}:")?;
                write!(f, "{failures}")
            }
            TuneError::Composer(m) => write!(f, "composer: {m}"),
        }
    }
}

impl std::error::Error for TuneError {}

/// A no-op observer for untraced entry points.
fn silent() -> impl FnMut(TuneEvent) {
    |_| {}
}

/// Run the full OA pipeline for one routine on one device at size `n`.
///
/// When the `OA_TUNE_CACHE` environment variable names a JSON cache file,
/// previously tuned `(routine, device, n)` outcomes are replayed from it
/// and fresh outcomes appended — see [`tune_at`].
pub fn tune(r: RoutineId, device: &DeviceSpec, n: i64) -> Result<TunedKernel, TuneError> {
    tune_observed(r, device, n, &mut silent())
}

/// [`tune`] with a trace observer.
pub fn tune_observed(
    r: RoutineId,
    device: &DeviceSpec,
    n: i64,
    obs: &mut dyn FnMut(TuneEvent),
) -> Result<TunedKernel, TuneError> {
    match std::env::var_os("OA_TUNE_CACHE") {
        Some(path) => tune_at_observed(r, device, n, Path::new(&path), obs),
        None => tune_fresh_observed(r, device, n, obs),
    }
}

/// [`tune`] memoized through the JSON cache at `path` (the benchmark
/// harnesses use `tuning_cache.json`).
///
/// A cache hit is revalidated ([`validate_record`]) and replayed — one
/// parse + apply + evaluate instead of the full sweep.  A stale record
/// (script no longer parses or applies, or parameters that left the
/// search space) is reported as a [`CacheIssue`] and falls through to a
/// fresh sweep whose winner overwrites it.  The write-back goes through
/// [`TuneCache::update`] — a locked read-modify-write — so concurrent
/// bench processes sharing one path cannot lose each other's records.
pub fn tune_at(
    r: RoutineId,
    device: &DeviceSpec,
    n: i64,
    path: &Path,
) -> Result<TunedKernel, TuneError> {
    tune_at_observed(r, device, n, path, &mut silent())
}

/// [`tune_at`] with a trace observer ([`CacheIssue`]s are forwarded as
/// [`TuneEvent::Cache`] events rather than swallowed).
pub fn tune_at_observed(
    r: RoutineId,
    device: &DeviceSpec,
    n: i64,
    path: &Path,
    obs: &mut dyn FnMut(TuneEvent),
) -> Result<TunedKernel, TuneError> {
    let (cache, issues) = TuneCache::load_reporting(path);
    for issue in issues {
        obs(TuneEvent::Cache(issue));
    }
    if let Some(rec) = cache.get(r, device, n) {
        match replay(r, device, n, rec) {
            Ok(t) => {
                obs(TuneEvent::Replayed {
                    routine: r.name(),
                    gflops: t.report.gflops,
                });
                return Ok(t);
            }
            Err(issue) => obs(TuneEvent::Cache(issue)),
        }
    }
    // Seed cross-size-class transfer from the records this cache already
    // holds for the same routine at other sizes (order-only advice).
    let mut ctx = ModelCtx::from_env();
    ctx.transfer = cache.records_for(r, device);
    let t = tune_fresh_modeled(select_engine(), r, device, n, &ctx, obs)?;
    // Persistence is best-effort: an unwritable path degrades to tuning
    // fresh next time, never to a wrong result.  The update runs under
    // the cache's lock file so a concurrent writer's records survive.
    if let Ok((_, issues)) = TuneCache::update(path, |c| c.insert(TunedRecord::from_kernel(&t))) {
        for issue in issues {
            obs(TuneEvent::Cache(issue));
        }
    }
    Ok(t)
}

/// Check that a cached record is still meaningful under the current
/// build: its script must parse and its tile parameters must still be in
/// the routine's search space (`space::candidates`).  Returns the parsed
/// script, or the [`CacheIssue`] explaining why the record is stale.
pub fn validate_record(r: RoutineId, rec: &TunedRecord) -> Result<Script, CacheIssue> {
    let script =
        oa_epod::parser::parse_script(&rec.script).map_err(|e| CacheIssue::StaleScript {
            key: rec.key(),
            reason: format!("{e:?}"),
        })?;
    let scheme = oa_scheme(r);
    let params = rec.tile_params();
    if !candidates(scheme.solver).contains(&params) {
        return Err(CacheIssue::StaleParams { key: rec.key() });
    }
    Ok(script)
}

/// Reconstruct a [`TunedKernel`] from a cached record without sweeping.
fn replay(
    r: RoutineId,
    device: &DeviceSpec,
    n: i64,
    rec: &TunedRecord,
) -> Result<TunedKernel, CacheIssue> {
    let script = validate_record(r, rec)?;
    let src = oa_blas3::routines::source(r);
    let params = rec.tile_params();
    let stale = |reason: String| CacheIssue::StaleScript {
        key: rec.key(),
        reason,
    };
    let outcome = apply_lenient(&src, &script, params).map_err(|e| stale(e.to_string()))?;
    let report = evaluate(
        &outcome.program,
        &Bindings::square(n),
        device,
        r.flops(n),
        true,
    )
    .map_err(|e| stale(e.to_string()))?;
    Ok(TunedKernel {
        routine: r,
        device: device.name.to_string(),
        n,
        script,
        params,
        report,
        program: outcome.program,
        evaluated: 0,
    })
}

/// [`tune`] without cache consultation: always runs the full sweep with
/// the process-default execution engine.
pub fn tune_fresh(r: RoutineId, device: &DeviceSpec, n: i64) -> Result<TunedKernel, TuneError> {
    tune_fresh_on(select_engine(), r, device, n, &mut silent())
}

/// [`tune_fresh`] with a trace observer.
pub fn tune_fresh_observed(
    r: RoutineId,
    device: &DeviceSpec,
    n: i64,
    obs: &mut dyn FnMut(TuneEvent),
) -> Result<TunedKernel, TuneError> {
    tune_fresh_on(select_engine(), r, device, n, obs)
}

/// The terminal state of one sweep point, gathered in parallel and
/// accounted for afterwards (every point lands in exactly one arm).
enum PointResult {
    /// Translated, lowered, ranked (boxed: this variant dwarfs the rest).
    Evaluated {
        program: Box<Program>,
        report: PerfReport,
        translate_ms: f64,
        evaluate_ms: f64,
    },
    /// Evaluated but unlaunchable (zero occupancy): removed from ranking.
    Pruned { translate_ms: f64, evaluate_ms: f64 },
    /// Script application failed under these parameters.
    TranslateErr(TranslateError, f64),
    /// Lowering/evaluation failed (no grouping mapped, non-finite time).
    EvalErr(EvalError, f64, f64),
}

/// Run one sweep point through translate + evaluate.
fn eval_sweep_point(
    src: &Program,
    script: &Script,
    params: TileParams,
    bindings: &Bindings,
    device: &DeviceSpec,
    flops: f64,
) -> PointResult {
    let t0 = Instant::now();
    let outcome = match apply_lenient(src, script, params) {
        Ok(o) => o,
        Err(e) => return PointResult::TranslateErr(e, t0.elapsed().as_secs_f64() * 1e3),
    };
    let translate_ms = t0.elapsed().as_secs_f64() * 1e3;
    // A candidate whose grouping failed under these parameters cannot
    // launch, and one whose resource footprint fits no SM is
    // unlaunchable: `evaluate` reports the former as an error and the
    // latter through zero occupancy.
    let e0 = Instant::now();
    match evaluate(&outcome.program, bindings, device, flops, true) {
        Ok(report) if report.occupancy == 0.0 => PointResult::Pruned {
            translate_ms,
            evaluate_ms: e0.elapsed().as_secs_f64() * 1e3,
        },
        Ok(report) => PointResult::Evaluated {
            program: Box::new(outcome.program),
            report,
            translate_ms,
            evaluate_ms: e0.elapsed().as_secs_f64() * 1e3,
        },
        Err(e) => PointResult::EvalErr(e, translate_ms, e0.elapsed().as_secs_f64() * 1e3),
    }
}

/// Compose and deduplicate the script variants for one routine.
///
/// Returns the variants, the accumulated composer counters, and the
/// compose wall time (filter time excluded — it has its own span).
pub(crate) fn compose_variants(
    engine: ExecEngine,
    r: RoutineId,
) -> Result<(Vec<Script>, ComposeStats, f64), TuneError> {
    let scheme = oa_scheme(r);
    let src = oa_blas3::routines::source(r);
    // Generate script variants once per base alternative, with
    // scheme-appropriate defaults.  Different bases can compose into the
    // same script, so de-duplicate (hash set: the sweep below is
    // quadratic in duplicates otherwise).
    let compose_t0 = Instant::now();
    let mut scripts: Vec<Script> = Vec::new();
    let mut seen: HashSet<Script> = HashSet::new();
    let mut stats = ComposeStats::default();
    for base in &scheme.bases {
        let (variants, s) = compose_on(
            engine,
            &src,
            base,
            &scheme.apps,
            default_params(scheme.solver),
        )
        .map_err(|e| TuneError::Composer(e.to_string()))?;
        stats.mixed += s.mixed;
        stats.surviving += s.surviving;
        stats.filter_ms += s.filter_ms;
        stats.degenerated.extend(s.degenerated);
        for v in variants {
            if seen.insert(v.script.clone()) {
                scripts.push(v.script);
            }
        }
    }
    let compose_ms = (compose_t0.elapsed().as_secs_f64() * 1e3 - stats.filter_ms).max(0.0);
    Ok((scripts, stats, compose_ms))
}

/// The model's sweep plan: point order, per-point predictions, and the
/// early-exit parameters.
struct RankPlan {
    /// Point indices, likely-best first (transfer-promoted family first,
    /// then predicted GFLOPS descending, then original index).
    order: Vec<usize>,
    /// Predicted GFLOPS per point, original index order.
    preds: Vec<f64>,
    /// The artifact's safety margin.
    safety: f64,
    /// Whether early exit is allowed (`rank+exit`).
    exit: bool,
    /// Whether a cross-size-class transfer record promoted a family.
    transfer: bool,
    /// Stable mode label for the trace.
    mode: &'static str,
}

/// Model context for a fresh sweep: the mode, the loaded artifact (if
/// any), cross-size-class transfer seeds, and any load issues to surface.
///
/// The default context ([`ModelCtx::from_env`]) resolves `OA_TUNE_MODEL`
/// and the artifact path (`OA_TUNE_MODEL_PATH`, else `tune_model.json`
/// next to `OA_TUNE_CACHE`); callers holding a registry load the artifact
/// once and share it through [`ModelCtx::with_model`].
#[derive(Clone, Debug, Default)]
pub struct ModelCtx {
    /// How the model is used (default: [`ModelMode::Off`] until resolved).
    pub mode: Option<ModelMode>,
    /// The loaded artifact, shared.
    pub model: Option<Arc<CostModel>>,
    /// Same-routine records at other sizes, for cross-size-class transfer
    /// (order-only: the nearest class's winner family is evaluated first).
    pub transfer: Vec<TunedRecord>,
    /// Issues found while loading the artifact, forwarded to the tune's
    /// observer.
    pub issues: Vec<CacheIssue>,
}

impl ModelCtx {
    /// A context that never consults the model (the exact sweep).
    pub fn off() -> Self {
        ModelCtx {
            mode: Some(ModelMode::Off),
            ..Default::default()
        }
    }

    /// A context around an already-loaded artifact.
    pub fn with_model(mode: ModelMode, model: Arc<CostModel>) -> Self {
        ModelCtx {
            mode: Some(mode),
            model: Some(model),
            ..Default::default()
        }
    }

    /// Resolve mode and artifact from the environment (`OA_TUNE_MODEL`,
    /// `OA_TUNE_MODEL_PATH` / `OA_TUNE_CACHE`).  A missing or corrupt
    /// artifact leaves the model empty — the sweep stays exact — with the
    /// corruption classified in [`ModelCtx::issues`].
    pub fn from_env() -> Self {
        let mode = ModelMode::from_env();
        if mode == ModelMode::Off {
            return Self::off();
        }
        let Some(path) = model_path_from_env() else {
            return ModelCtx {
                mode: Some(mode),
                ..Default::default()
            };
        };
        let (model, issues) = CostModel::load_reporting(&path);
        ModelCtx {
            mode: Some(mode),
            model: model.map(Arc::new),
            transfer: Vec::new(),
            issues,
        }
    }

    /// The resolved mode (environment default when unset).
    fn mode(&self) -> ModelMode {
        self.mode.unwrap_or_else(ModelMode::from_env)
    }

    /// Build the sweep plan, or `None` for the exact sweep (mode off, no
    /// artifact, or a refuse-to-rank artifact).
    fn plan(
        &self,
        r: RoutineId,
        n: i64,
        scripts: &[Script],
        stats: &ComposeStats,
        points: &[(usize, TileParams)],
    ) -> Option<RankPlan> {
        let mode = self.mode();
        if mode == ModelMode::Off {
            return None;
        }
        let model = self.model.as_ref()?;
        if !model.can_rank() {
            return None;
        }
        let preds: Vec<f64> = points
            .iter()
            .map(|(si, p)| model.predict(&candidate_features(r, n, p, &scripts[*si], stats)))
            .collect();
        // Cross-size-class transfer: the nearest tuned class's winning
        // script family (component multiset) goes to the front of the
        // order.  Order-only — the winner choice never consults this.
        let family = self
            .transfer
            .iter()
            .filter(|rec| rec.routine == r.name() && rec.n != n)
            .min_by_key(|rec| {
                let d = ((rec.n.max(1) as f64).log2() - (n.max(1) as f64).log2()).abs();
                (d * 1024.0) as i64
            })
            .and_then(|rec| oa_epod::parser::parse_script(&rec.script).ok())
            .map(|s| {
                let mut names: Vec<String> =
                    s.component_names().iter().map(|c| c.to_string()).collect();
                names.sort();
                names
            });
        let promoted: Vec<bool> = match &family {
            None => vec![false; points.len()],
            Some(fam) => points
                .iter()
                .map(|(si, _)| {
                    let mut names: Vec<String> = scripts[*si]
                        .component_names()
                        .iter()
                        .map(|c| c.to_string())
                        .collect();
                    names.sort();
                    names == *fam
                })
                .collect(),
        };
        let transfer = promoted.iter().any(|&p| p);
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_by(|&a, &b| {
            promoted[b]
                .cmp(&promoted[a])
                .then(preds[b].total_cmp(&preds[a]))
                .then(a.cmp(&b))
        });
        Some(RankPlan {
            order,
            preds,
            safety: model.safety,
            exit: mode == ModelMode::RankExit,
            transfer,
            mode: mode.name(),
        })
    }
}

/// The full sweep with an explicit execution engine (behind the
/// composer's legality filter) and a trace observer.  Model usage is
/// resolved from the environment ([`ModelCtx::from_env`]); see
/// [`tune_fresh_modeled`] for the explicit form.
pub fn tune_fresh_on(
    engine: ExecEngine,
    r: RoutineId,
    device: &DeviceSpec,
    n: i64,
    obs: &mut dyn FnMut(TuneEvent),
) -> Result<TunedKernel, TuneError> {
    tune_fresh_modeled(engine, r, device, n, &ModelCtx::from_env(), obs)
}

/// The fresh sweep with an explicit model context.
///
/// Emits, in order: [`TuneEvent::Begin`], one [`TuneEvent::Span`] per
/// stage, at most one [`TuneEvent::Model`] (when the model ranked the
/// sweep), one [`TuneEvent::Candidate`] per compose-stage degeneration
/// and per sweep point, and a final [`TuneEvent::Summary`].  The winner
/// is selected with the same sweep order and `total_cmp` comparator
/// whether or not the model is on, so tuned results are bit-identical
/// across modes; only evaluation order and count differ.
pub fn tune_fresh_modeled(
    engine: ExecEngine,
    r: RoutineId,
    device: &DeviceSpec,
    n: i64,
    ctx: &ModelCtx,
    obs: &mut dyn FnMut(TuneEvent),
) -> Result<TunedKernel, TuneError> {
    obs(TuneEvent::Begin {
        routine: r.name(),
        device: device.name.to_string(),
        n,
        engine: engine.name(),
    });
    for issue in &ctx.issues {
        obs(TuneEvent::Cache(issue.clone()));
    }
    let scheme = oa_scheme(r);
    let src = oa_blas3::routines::source(r);
    let (scripts, stats, compose_ms) = compose_variants(engine, r)?;
    obs(TuneEvent::Span {
        stage: Stage::Compose,
        ms: compose_ms,
        items: scripts.len(),
    });
    obs(TuneEvent::Span {
        stage: Stage::Filter,
        ms: stats.filter_ms,
        items: stats.surviving,
    });
    for (component, reason) in &stats.degenerated {
        obs(TuneEvent::Candidate(CandidateOutcome {
            script: None,
            params: None,
            fate: CandidateFate::Degenerated {
                component: component.clone(),
                reason: reason.clone(),
            },
            gflops: None,
        }));
    }
    if scripts.is_empty() {
        return Err(TuneError::NoVariants(r.name()));
    }

    // Sweep scripts × parameters on the performance model.
    let bindings = Bindings::square(n);
    let flops = r.flops(n);
    let param_list = candidates(scheme.solver);
    let points: Vec<(usize, TileParams)> = scripts
        .iter()
        .enumerate()
        .flat_map(|(si, _)| param_list.iter().map(move |p| (si, *p)))
        .collect();

    let plan = ctx.plan(r, n, &scripts, &stats, &points);
    let eval = |&(si, params): &(usize, TileParams)| {
        eval_sweep_point(&src, &scripts[si], params, &bindings, device, flops)
    };

    // `results[i]` is `None` only for points the early exit skipped.
    // Winner bookkeeping mirrors the exact sweep's
    // `max_by(total_cmp)`-keeps-the-last-maximum semantics in *original
    // point order*, independent of evaluation order: a tie is only taken
    // from a higher original index.
    let mut results: Vec<Option<PointResult>> = match &plan {
        None => points.par_iter().map(|p| Some(eval(p))).collect(),
        Some(plan) => {
            let mut results: Vec<Option<PointResult>> = (0..points.len()).map(|_| None).collect();
            let mut best: Option<(usize, f64)> = None;
            // In-sweep calibration: predictions are trained on *other*
            // (routine, class) sweeps, whose GFLOPS live on a different
            // absolute scale.  The worst measured actual/predicted ratio
            // so far rescales every predicted ceiling into this sweep's
            // units before the exit test — without it a class-scale shift
            // makes every tail ceiling look beatable (or unbeatable).
            let mut calib = 0.0f64;
            let mut pending: Vec<usize> = plan.order.clone();
            let mut first = true;
            while !pending.is_empty() {
                let size = if first { RANK_TOP_K } else { RANK_CHUNK };
                first = false;
                // Per-point pruning: a pending point whose calibrated
                // ceiling (safety × calib × predicted) falls *strictly*
                // below the incumbent cannot win and is skipped — a
                // potential tie is never skipped, keeping the
                // last-maximum winner rule intact.  The test is
                // per-point, not whole-tail: one overrated straggler in
                // the ranking no longer keeps every cheaper point alive.
                let mut batch = Vec::with_capacity(size);
                let mut rest = Vec::with_capacity(pending.len());
                for &pi in &pending {
                    if batch.len() == size {
                        rest.push(pi);
                        continue;
                    }
                    let skip = plan.exit
                        && calib > 0.0
                        && matches!(best, Some((_, bg)) if plan.safety * calib * plan.preds[pi] < bg);
                    if !skip {
                        batch.push(pi);
                    }
                }
                pending = rest;
                if batch.is_empty() {
                    break;
                }
                let outs: Vec<(usize, PointResult)> = batch
                    .par_iter()
                    .map(|&pi| (pi, eval(&points[pi])))
                    .collect();
                for (pi, out) in outs {
                    if let PointResult::Evaluated { report, .. } = &out {
                        let g = report.gflops;
                        if plan.preds[pi] > 0.0 {
                            calib = calib.max(g / plan.preds[pi]);
                        }
                        let better = match best {
                            None => true,
                            Some((bi, bg)) => match g.total_cmp(&bg) {
                                std::cmp::Ordering::Greater => true,
                                std::cmp::Ordering::Equal => pi > bi,
                                std::cmp::Ordering::Less => false,
                            },
                        };
                        if better {
                            best = Some((pi, g));
                        }
                    }
                    results[pi] = Some(out);
                }
            }
            results
        }
    };

    // Stage spans: cumulative per-candidate wall time (the stages run
    // interleaved across the rayon pool, so there is no single interval).
    let mut translate_ms = 0.0;
    let mut evaluate_ms = 0.0;
    let mut attempted = 0usize;
    let mut reached_eval = 0usize;
    for pr in results.iter().flatten() {
        attempted += 1;
        match pr {
            PointResult::Evaluated {
                translate_ms: t,
                evaluate_ms: e,
                ..
            }
            | PointResult::Pruned {
                translate_ms: t,
                evaluate_ms: e,
            }
            | PointResult::EvalErr(_, t, e) => {
                translate_ms += t;
                evaluate_ms += e;
                reached_eval += 1;
            }
            PointResult::TranslateErr(_, t) => translate_ms += t,
        }
    }
    obs(TuneEvent::Span {
        stage: Stage::Translate,
        ms: translate_ms,
        items: attempted,
    });
    obs(TuneEvent::Span {
        stage: Stage::Evaluate,
        ms: evaluate_ms,
        items: reached_eval,
    });

    // Winner: identical order and comparator to the pre-instrumentation
    // sweep (`max_by` keeps the last maximum on exact ties).
    let best_idx = results
        .iter()
        .enumerate()
        .filter_map(|(i, pr)| match pr {
            Some(PointResult::Evaluated { report, .. }) => Some((i, report.gflops)),
            _ => None,
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i);
    let winner_gflops = best_idx.map(|i| match &results[i] {
        Some(PointResult::Evaluated { report, .. }) => report.gflops,
        _ => unreachable!("best_idx only indexes Evaluated points"),
    });

    if let Some(plan) = &plan {
        obs(TuneEvent::Model(ModelStats {
            mode: plan.mode,
            considered: points.len(),
            evaluated: attempted,
            skipped: points.len() - attempted,
            transfer: plan.transfer,
            predicted_winner_gflops: best_idx.map(|i| plan.preds[i]),
            actual_winner_gflops: winner_gflops,
        }));
    }

    // Terminal outcome per sweep point + failure accounting.
    let mut failures = FailureTable::new();
    let mut evaluated = 0usize;
    let mut pruned = 0usize;
    let mut errored = 0usize;
    let mut skipped = 0usize;
    for (i, pr) in results.iter().enumerate() {
        let (si, params) = points[i];
        let (fate, gflops) = match pr {
            Some(PointResult::Evaluated { report, .. }) => {
                evaluated += 1;
                let fate = if Some(i) == best_idx {
                    CandidateFate::Won
                } else {
                    CandidateFate::Lost
                };
                (fate, Some(report.gflops))
            }
            Some(PointResult::Pruned { .. }) => {
                pruned += 1;
                failures.add("launch/zero-occupancy");
                (
                    CandidateFate::Pruned {
                        reason: "resource footprint fits no SM (zero occupancy)".to_string(),
                    },
                    None,
                )
            }
            Some(PointResult::TranslateErr(e, _)) => {
                errored += 1;
                failures.add(e.class());
                (
                    CandidateFate::Errored {
                        stage: Stage::Translate,
                        class: e.class(),
                        reason: e.to_string(),
                    },
                    None,
                )
            }
            Some(PointResult::EvalErr(e, _, _)) => {
                errored += 1;
                failures.add(e.class());
                (
                    CandidateFate::Errored {
                        stage: Stage::Evaluate,
                        class: e.class().to_string(),
                        reason: e.to_string(),
                    },
                    None,
                )
            }
            None => {
                skipped += 1;
                let predicted = plan.as_ref().map_or(0.0, |p| p.preds[i]);
                (CandidateFate::Skipped { predicted }, None)
            }
        };
        obs(TuneEvent::Candidate(CandidateOutcome {
            script: Some(si),
            params: Some(params),
            fate,
            gflops,
        }));
    }
    obs(TuneEvent::Summary {
        variants: scripts.len(),
        points: points.len(),
        evaluated,
        pruned,
        degenerated: stats.degenerated.len(),
        errored,
        skipped,
        winner_gflops,
    });

    let Some(bi) = best_idx else {
        return Err(TuneError::NothingEvaluated {
            routine: r.name(),
            failures,
        });
    };
    let (si, params) = points[bi];
    let Some(PointResult::Evaluated {
        program, report, ..
    }) = results[bi].take()
    else {
        unreachable!("best_idx only indexes Evaluated points");
    };
    Ok(TunedKernel {
        routine: r,
        device: device.name.to_string(),
        n,
        script: scripts[si].clone(),
        params,
        report,
        program: *program,
        evaluated,
    })
}

/// Run the exact sweep for one (routine, size) and return every point as
/// a training/evaluation [`Sample`] (features, measured label, winner
/// flag) — the dataset `oa model train` and the accuracy battery consume.
pub fn sweep_samples(
    engine: ExecEngine,
    r: RoutineId,
    device: &DeviceSpec,
    n: i64,
) -> Result<Vec<Sample>, TuneError> {
    let scheme = oa_scheme(r);
    let src = oa_blas3::routines::source(r);
    let (scripts, stats, _compose_ms) = compose_variants(engine, r)?;
    if scripts.is_empty() {
        return Err(TuneError::NoVariants(r.name()));
    }
    let bindings = Bindings::square(n);
    let flops = r.flops(n);
    let param_list = candidates(scheme.solver);
    let points: Vec<(usize, TileParams)> = scripts
        .iter()
        .enumerate()
        .flat_map(|(si, _)| param_list.iter().map(move |p| (si, *p)))
        .collect();
    let results: Vec<PointResult> = points
        .par_iter()
        .map(|&(si, params)| eval_sweep_point(&src, &scripts[si], params, &bindings, device, flops))
        .collect();
    let best_idx = results
        .iter()
        .enumerate()
        .filter_map(|(i, pr)| match pr {
            PointResult::Evaluated { report, .. } => Some((i, report.gflops)),
            _ => None,
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i);
    Ok(points
        .iter()
        .enumerate()
        .map(|(i, &(si, params))| Sample {
            routine: r.name(),
            n,
            point: i,
            features: candidate_features(r, n, &params, &scripts[si], &stats),
            gflops: match &results[i] {
                PointResult::Evaluated { report, .. } => report.gflops,
                _ => 0.0,
            },
            won: Some(i) == best_idx,
        })
        .collect())
}

/// Rebuild [`Sample`]s from a *traced* sweep: `(script index, params,
/// gflops, won)` tuples recorded by the `OA_TRACE` stream.  The script
/// variants are recomposed (deterministic per routine) so the features
/// can be computed without having stored them; points whose script index
/// no longer exists under this build are dropped.
pub fn samples_from_trace(
    engine: ExecEngine,
    r: RoutineId,
    n: i64,
    traced: &[(usize, TileParams, f64, bool)],
) -> Result<Vec<Sample>, TuneError> {
    let (scripts, stats, _compose_ms) = compose_variants(engine, r)?;
    Ok(traced
        .iter()
        .enumerate()
        .filter_map(|(i, &(si, params, gflops, won))| {
            scripts.get(si).map(|script| Sample {
                routine: r.name(),
                n,
                point: i,
                features: candidate_features(r, n, &params, script, &stats),
                gflops,
                won,
            })
        })
        .collect())
}

/// Measure per-family engine pick hints: time the composer's legality
/// filter (the stage that actually executes engines during a tune) on a
/// representative of each routine family under every [`ExecEngine`], and
/// record the fastest.  Advisory only — stored in the model artifact and
/// surfaced through the registry; never changes results.
pub fn measure_engine_hints() -> BTreeMap<String, String> {
    use oa_blas3::types::{Side, Trans, Uplo};
    let reps = [
        RoutineId::Gemm(Trans::N, Trans::N),
        RoutineId::Symm(Side::Left, Uplo::Lower),
        RoutineId::Trmm(Side::Left, Uplo::Lower, Trans::N),
        RoutineId::Trsm(Side::Left, Uplo::Lower, Trans::N),
    ];
    let mut hints = BTreeMap::new();
    for r in reps {
        let mut best: Option<(&'static str, f64)> = None;
        for engine in ExecEngine::ALL {
            let t0 = Instant::now();
            if compose_variants(engine, r).is_err() {
                continue;
            }
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if best.is_none_or(|(_, b)| ms < b) {
                best = Some((engine.name(), ms));
            }
        }
        if let Some((name, _)) = best {
            hints.insert(r.family().to_string(), name.to_string());
        }
    }
    hints
}

/// Evaluate the CUBLAS-like baseline for a routine.
pub fn baseline_perf(r: RoutineId, device: &DeviceSpec, n: i64) -> PerfReport {
    let p = oa_blas3::baselines::cublas_like(r, device);
    evaluate(&p, &Bindings::square(n), device, r.flops(n), true)
        .expect("baseline kernels always lower")
}

/// Evaluate the MAGMA-like baseline (GEMM/TRSM only).
pub fn magma_perf(r: RoutineId, device: &DeviceSpec, n: i64) -> Option<PerfReport> {
    let p = oa_blas3::baselines::magma_like(r, device)?;
    evaluate(&p, &Bindings::square(n), device, r.flops(n), true).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MODEL_FILE;
    use oa_blas3::types::{Side, Trans, Uplo};

    /// FNV-1a over the bits of every sweep point's `gflops`, `gmem_bytes`,
    /// `instructions` and `smem_replays` for four routines at n = 64 on all
    /// three devices, with a marker for points that fail to translate or
    /// evaluate.
    const PINNED_MODEL_HASH: u64 = 0xfcce_8d0f_fc22_f37d;

    /// The same hash over every routine's full sweep at n = 64 and 128 on
    /// all three devices: 10,080 reports.
    const PINNED_FULL_SWEEP_HASH: u64 = 0x515e_f2c6_edab_be29;

    /// FNV-1a of the sweep reports of `routines` at `sizes`, in routine,
    /// size, device, sweep-point order, and the number of points hashed.
    fn sweep_hash(routines: &[RoutineId], sizes: &[i64]) -> (u64, usize) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut points = 0;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for &r in routines {
            let (scripts, _, _) = compose_variants(select_engine(), r).unwrap();
            let src = oa_blas3::routines::source(r);
            let params = candidates(oa_scheme(r).solver);
            let programs: Vec<Option<Program>> = scripts
                .iter()
                .flat_map(|s| params.iter().map(move |p| (s, *p)))
                .map(|(s, p)| apply_lenient(&src, s, p).ok().map(|o| o.program))
                .collect();
            for &n in sizes {
                let bindings = Bindings::square(n);
                for device in DeviceSpec::all() {
                    for p in &programs {
                        points += 1;
                        let Some(p) = p else {
                            mix(1);
                            continue;
                        };
                        match evaluate(p, &bindings, &device, r.flops(n), true) {
                            Ok(rep) => {
                                mix(rep.gflops.to_bits());
                                mix(rep.counters.gmem_bytes.to_bits());
                                mix(rep.counters.instructions.to_bits());
                                mix(rep.counters.smem_replays.to_bits());
                            }
                            Err(_) => mix(2),
                        }
                    }
                }
            }
        }
        (h, points)
    }

    #[test]
    fn perf_model_output_bits_are_pinned() {
        let routines: Vec<RoutineId> = RoutineId::all24()
            .into_iter()
            .filter(|r| {
                ["GEMM-TT", "TRMM-LL-T", "SYMM-LU", "TRSM-RU-T"].contains(&r.name().as_str())
            })
            .collect();
        assert_eq!(routines.len(), 4);
        let (h, _) = sweep_hash(&routines, &[64]);
        assert_eq!(
            h, PINNED_MODEL_HASH,
            "the performance model's output bits changed (hash {h:#018x}): a deliberate \
             model change must update PINNED_MODEL_HASH and EXPERIMENTS.md; otherwise \
             this is a regression"
        );
    }

    /// The whole sweep (about 20 s in release): run with `cargo test
    /// --release -p oa-autotune -- --ignored` after a change to
    /// `gpusim/src/perf.rs`.
    #[test]
    #[ignore]
    fn perf_model_full_sweep_bits_are_pinned() {
        let (h, points) = sweep_hash(&RoutineId::all24(), &[64, 128]);
        assert_eq!(points, 10_080);
        assert_eq!(
            h, PINNED_FULL_SWEEP_HASH,
            "the performance model's output bits changed (hash {h:#018x}): a deliberate \
             model change must update PINNED_FULL_SWEEP_HASH and EXPERIMENTS.md"
        );
    }

    #[test]
    fn tune_gemm_nn_beats_naive_and_is_plausible() {
        let dev = DeviceSpec::gtx285();
        let t = tune(RoutineId::Gemm(Trans::N, Trans::N), &dev, 1024).unwrap();
        assert!(t.evaluated >= 4);
        // The tuned GEMM must deliver a large fraction of peak.
        assert!(
            t.report.gflops > 0.4 * dev.peak_gflops(),
            "tuned GEMM only reaches {:.0} GFLOPS",
            t.report.gflops
        );
    }

    #[test]
    fn tuned_symm_beats_cublas_like() {
        let dev = DeviceSpec::gtx285();
        let r = RoutineId::Symm(Side::Left, Uplo::Lower);
        let t = tune(r, &dev, 1024).unwrap();
        let base = baseline_perf(r, &dev, 1024);
        assert!(
            t.report.gflops > 1.5 * base.gflops,
            "SYMM OA {:.0} vs CUBLAS-like {:.0}",
            t.report.gflops,
            base.gflops
        );
        // The winning SYMM script should exploit the Symmetry adaptor.
        let names = t.script.component_names();
        assert!(
            names.contains(&"GM_map") || names.contains(&"format_iteration"),
            "unexpected winning script: {}",
            t.script
        );
    }

    #[test]
    fn tune_at_replays_from_cache() {
        let dev = DeviceSpec::gtx285();
        let r = RoutineId::Gemm(Trans::N, Trans::N);
        let dir = std::env::temp_dir().join("oa_tune_at_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("tuning_cache.json");
        let _ = std::fs::remove_file(&path);

        // First call sweeps and persists.
        let fresh = tune_at(r, &dev, 512, &path).unwrap();
        assert!(fresh.evaluated >= 4);
        assert!(path.exists());

        // Second call replays: no sweep, same winner.
        let mut replay_events = Vec::new();
        let replayed =
            tune_at_observed(r, &dev, 512, &path, &mut |e| replay_events.push(e)).unwrap();
        assert_eq!(replayed.evaluated, 0);
        assert_eq!(replayed.script, fresh.script);
        assert_eq!(replayed.params, fresh.params);
        assert!((replayed.report.gflops - fresh.report.gflops).abs() < 1e-9);
        assert!(
            replay_events
                .iter()
                .any(|e| matches!(e, TuneEvent::Replayed { .. })),
            "replay must be announced through the observer"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// The execution engine behind the composer's legality filter must not
    /// leak into search results: a fresh tune under each explicit
    /// [`ExecEngine`], and a cache replay (`tune_at`), all pick the same
    /// winner for a pinned routine/size.  Guards against the bytecode
    /// engine silently changing which candidate sequences survive
    /// filtering.  The engine is a parameter — no environment mutation.
    #[test]
    fn engine_choice_does_not_change_tuning_results() {
        let dev = DeviceSpec::gtx285();
        let r = RoutineId::Gemm(Trans::T, Trans::N);
        let n = 512;

        let baseline = tune_fresh(r, &dev, n).unwrap();
        for engine in ExecEngine::ALL {
            let t = tune_fresh_on(engine, r, &dev, n, &mut |_| {}).unwrap();
            assert_eq!(
                t.script,
                baseline.script,
                "engine {} changed winner",
                engine.name()
            );
            assert_eq!(
                t.params,
                baseline.params,
                "engine {} changed params",
                engine.name()
            );
            assert!(
                (t.report.gflops - baseline.report.gflops).abs() < 1e-9,
                "engine {} changed predicted perf",
                engine.name()
            );
        }

        // A cached replay reproduces the same kernel without sweeping.
        let dir = std::env::temp_dir().join("oa_tune_engine_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("tuning_cache.json");
        let _ = std::fs::remove_file(&path);
        let fresh = tune_at(r, &dev, n, &path).unwrap();
        let replayed = tune_at(r, &dev, n, &path).unwrap();
        assert_eq!(replayed.evaluated, 0);
        for t in [&fresh, &replayed] {
            assert_eq!(t.script, baseline.script);
            assert_eq!(t.params, baseline.params);
            assert!((t.report.gflops - baseline.report.gflops).abs() < 1e-9);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The trace stream is complete: one span per stage, one terminal
    /// outcome per sweep point, exactly one winner, and a summary whose
    /// buckets add up to the point count.
    #[test]
    fn trace_stream_accounts_for_every_candidate() {
        let dev = DeviceSpec::gtx285();
        let r = RoutineId::Gemm(Trans::N, Trans::N);
        let mut events = Vec::new();
        let t = tune_fresh_observed(r, &dev, 512, &mut |e| events.push(e)).unwrap();

        assert!(matches!(events.first(), Some(TuneEvent::Begin { .. })));
        for stage in Stage::ALL {
            assert_eq!(
                events
                    .iter()
                    .filter(|e| matches!(e, TuneEvent::Span { stage: s, .. } if *s == stage))
                    .count(),
                1,
                "exactly one {} span",
                stage.name()
            );
        }
        let outcomes: Vec<&CandidateOutcome> = events
            .iter()
            .filter_map(|e| match e {
                TuneEvent::Candidate(o) => Some(o),
                _ => None,
            })
            .collect();
        let won = outcomes
            .iter()
            .filter(|o| matches!(o.fate, CandidateFate::Won))
            .count();
        assert_eq!(won, 1, "exactly one winner");
        let Some(TuneEvent::Summary {
            points,
            evaluated,
            pruned,
            degenerated,
            errored,
            skipped,
            winner_gflops,
            ..
        }) = events.last()
        else {
            panic!("stream must end with a summary");
        };
        assert_eq!(outcomes.len(), points + degenerated);
        assert_eq!(evaluated + pruned + errored + skipped, *points);
        assert_eq!(t.evaluated, *evaluated);
        assert_eq!(winner_gflops.unwrap(), t.report.gflops);
    }

    #[test]
    fn tuned_trsm_solver_works() {
        let dev = DeviceSpec::gtx285();
        let r = RoutineId::Trsm(Side::Left, Uplo::Lower, Trans::N);
        let t = tune(r, &dev, 1024).unwrap();
        let base = baseline_perf(r, &dev, 1024);
        assert!(
            t.report.gflops > base.gflops,
            "TRSM OA {:.1} vs CUBLAS-like {:.1}",
            t.report.gflops,
            base.gflops
        );
    }

    /// The winner-invariance contract, pinned at the unit level: a tune
    /// ranked by a model trained on the routine's own sweep — the
    /// easiest case to be wrong in, since the early exit fires hardest —
    /// picks a winner bit-identical to the exact sweep, evaluates no
    /// more points than it, and announces itself in the trace.
    #[test]
    fn ranked_sweep_preserves_the_exact_winner() {
        let dev = DeviceSpec::gtx285();
        let r = RoutineId::Gemm(Trans::N, Trans::T);
        let n = 512;
        let engine = select_engine();

        let exact = tune_fresh_modeled(engine, r, &dev, n, &ModelCtx::off(), &mut |_| {}).unwrap();
        let samples = sweep_samples(engine, r, &dev, n).unwrap();
        let model = Arc::new(CostModel::train(&samples, 17));
        assert!(model.can_rank());

        for mode in [ModelMode::Rank, ModelMode::RankExit] {
            let ctx = ModelCtx::with_model(mode, model.clone());
            let mut events = Vec::new();
            let t = tune_fresh_modeled(engine, r, &dev, n, &ctx, &mut |e| events.push(e)).unwrap();
            assert_eq!(t.script, exact.script, "{mode:?} changed the winner");
            assert_eq!(t.params, exact.params, "{mode:?} changed the params");
            assert_eq!(
                t.report.gflops.to_bits(),
                exact.report.gflops.to_bits(),
                "{mode:?} changed the winning GFLOPS"
            );
            let stats = events
                .iter()
                .find_map(|e| match e {
                    TuneEvent::Model(m) => Some(m.clone()),
                    _ => None,
                })
                .expect("modeled tune emits a model event");
            assert_eq!(stats.mode, mode.name());
            assert_eq!(stats.evaluated + stats.skipped, stats.considered);
            assert_eq!(stats.actual_winner_gflops, Some(exact.report.gflops));
            match mode {
                ModelMode::Rank => assert_eq!(stats.skipped, 0, "rank mode never skips"),
                ModelMode::RankExit => assert!(
                    stats.evaluated <= stats.considered,
                    "exit mode may not exceed the sweep"
                ),
                ModelMode::Off => unreachable!(),
            }
        }
    }

    /// A refuse-to-rank artifact (or a missing one) leaves the sweep
    /// exact: no model event, no skipped points, identical winner.
    #[test]
    fn refused_model_degrades_to_exact_sweep() {
        let dev = DeviceSpec::gtx285();
        let r = RoutineId::Symm(Side::Right, Uplo::Upper);
        let n = 512;
        let engine = select_engine();
        let exact = tune_fresh_modeled(engine, r, &dev, n, &ModelCtx::off(), &mut |_| {}).unwrap();

        let refused = Arc::new(CostModel::train(&[], 1));
        let ctx = ModelCtx::with_model(ModelMode::RankExit, refused);
        let mut events = Vec::new();
        let t = tune_fresh_modeled(engine, r, &dev, n, &ctx, &mut |e| events.push(e)).unwrap();
        assert_eq!(t.script, exact.script);
        assert_eq!(t.params, exact.params);
        assert!(
            !events.iter().any(|e| matches!(e, TuneEvent::Model(_))),
            "a refused model must not announce a ranking"
        );
        assert!(!events.iter().any(|e| matches!(
            e,
            TuneEvent::Candidate(CandidateOutcome {
                fate: CandidateFate::Skipped { .. },
                ..
            })
        )));
    }

    /// Corrupt model artifacts degrade to the exact sweep with a
    /// classified issue forwarded through the observer — never a panic,
    /// never a different winner.
    #[test]
    fn corrupt_model_artifact_falls_back_to_exact_sweep() {
        let dev = DeviceSpec::gtx285();
        let r = RoutineId::Trmm(Side::Left, Uplo::Upper, Trans::N);
        let n = 512;
        let engine = select_engine();
        let exact = tune_fresh_modeled(engine, r, &dev, n, &ModelCtx::off(), &mut |_| {}).unwrap();

        let dir = std::env::temp_dir().join("oa_tuner_corrupt_model_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(MODEL_FILE);
        for garbage in ["{ not json", "{\"version\": 99}", ""] {
            std::fs::write(&path, garbage).unwrap();
            let (model, issues) = CostModel::load_reporting(&path);
            assert!(model.is_none());
            assert!(!issues.is_empty(), "corruption must be classified");
            let ctx = ModelCtx {
                mode: Some(ModelMode::RankExit),
                model: model.map(Arc::new),
                transfer: Vec::new(),
                issues,
            };
            let mut events = Vec::new();
            let t = tune_fresh_modeled(engine, r, &dev, n, &ctx, &mut |e| events.push(e)).unwrap();
            assert_eq!(t.script, exact.script, "corrupt artifact changed winner");
            assert_eq!(t.params, exact.params);
            assert!(
                events.iter().any(|e| matches!(e, TuneEvent::Cache(_))),
                "the corruption must surface in the trace"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Cross-size-class transfer promotes the nearest tuned class's
    /// winner family to the front of the order — and stays order-only:
    /// the winner matches the exact sweep even when the transferred
    /// record is adversarially wrong.
    #[test]
    fn transfer_seeds_are_order_only() {
        let dev = DeviceSpec::gtx285();
        let r = RoutineId::Gemm(Trans::N, Trans::N);
        let engine = select_engine();
        let exact =
            tune_fresh_modeled(engine, r, &dev, 1024, &ModelCtx::off(), &mut |_| {}).unwrap();

        let samples = sweep_samples(engine, r, &dev, 512).unwrap();
        let model = Arc::new(CostModel::train(&samples, 5));

        // A genuine transfer record: the 512-class winner.
        let t512 = tune_fresh_modeled(engine, r, &dev, 512, &ModelCtx::off(), &mut |_| {}).unwrap();
        let mut ctx = ModelCtx::with_model(ModelMode::RankExit, model.clone());
        ctx.transfer = vec![TunedRecord::from_kernel(&t512)];
        let mut events = Vec::new();
        let t = tune_fresh_modeled(engine, r, &dev, 1024, &ctx, &mut |e| events.push(e)).unwrap();
        assert_eq!(t.script, exact.script);
        assert_eq!(t.params, exact.params);
        let stats = events
            .iter()
            .find_map(|e| match e {
                TuneEvent::Model(m) => Some(m.clone()),
                _ => None,
            })
            .unwrap();
        assert!(stats.transfer, "matching family must be promoted");

        // An adversarial record pointing at a losing family: winner still
        // bit-identical (transfer only reorders).
        let mut bogus = TunedRecord::from_kernel(&t512);
        bogus.script = "loop_unroll(8);\n".to_string();
        bogus.n = 256;
        let mut ctx = ModelCtx::with_model(ModelMode::RankExit, model);
        ctx.transfer = vec![bogus];
        let t = tune_fresh_modeled(engine, r, &dev, 1024, &ctx, &mut |_| {}).unwrap();
        assert_eq!(t.script, exact.script, "bogus transfer changed winner");
        assert_eq!(t.params, exact.params);
    }

    #[test]
    fn engine_hints_cover_every_family() {
        let hints = measure_engine_hints();
        for fam in ["GEMM", "SYMM", "TRMM", "TRSM"] {
            let engine = hints.get(fam).expect("hint per family");
            assert!(
                ExecEngine::ALL.iter().any(|e| e.name() == engine),
                "{fam}: unknown engine {engine}"
            );
        }
    }
}
