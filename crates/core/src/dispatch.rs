//! The routine-dispatch layer: tuned once, called many times.
//!
//! The paper's endgame (Sec. V) is a *library* — each routine tuned once
//! per device, then invoked repeatedly.  Everything below `oa-core`
//! executes one request end to end; this module adds the layer that
//! serves **many independent requests against already-tuned scripts**:
//!
//! * [`Registry`] — per [`DeviceSpec`], resolves a routine through the
//!   tuning cache (tune-on-miss via `tune_fresh_on`), lowers the winning
//!   script **once** through the selected engine, and memoizes the compiled
//!   program in a bounded LRU keyed by
//!   `(routine, device, param-point, size)`;
//! * [`Registry::run_one`] — one request end to end (admit, resolve,
//!   fetch-or-compile, execute, digest) with **deterministic results
//!   regardless of scheduling**: `oa serve`'s workers call it
//!   concurrently, and the dispatch test battery runs the same requests
//!   across engines, thread counts, submission orders and LRU
//!   capacities and demands bit-identical digests.
//!
//! Two size notions keep tuning amortized without compromising
//! correctness: routines are *tuned* per [`size_class`] (problem sizes
//! bucketed to a power of two, so a thousand nearby sizes share one
//! sweep) but *compiled* per exact request size (the winning script is
//! re-applied under the request's own bindings — the same replay the
//! Fig. 13 scaling study performs), so results are bit-identical to a
//! direct `engine::exec_program_on` run of the same script/params.
//!
//! The CLI face is `oa serve` (JSONL requests in, JSONL results out);
//! the throughput harness is `bench_dispatch` (`BENCH_dispatch.json`).

use oa_autotune::json::Json;
use oa_autotune::{
    model_path_from_env, sibling_model_path, tune_fresh_modeled, validate_record, CacheIssue,
    CostModel, ModelCtx, ModelMode, TuneCache, TuneEvent, TunedRecord,
};
use oa_blas3::types::RoutineId;
use oa_blas3::verify::prepare_buffers;
use oa_epod::translator::apply_lenient;
use oa_epod::Script;
use oa_gpusim::dispatch::{CompiledProgram, Lru};
use oa_gpusim::{DeviceSpec, ExecEngine};
use oa_loopir::interp::{Bindings, Buffers};
use oa_loopir::transform::TileParams;
use oa_loopir::Program;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// One dispatch request: execute `routine` at problem size `n` on inputs
/// deterministically generated from `seed`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Request {
    /// The BLAS3 routine.
    pub routine: RoutineId,
    /// Square problem size.
    pub n: i64,
    /// Input-generation seed (see `oa_blas3::verify::prepare_buffers`).
    pub seed: u64,
    /// Zero the blank triangle of `A` (the storage contract the packed
    /// routines promise).
    pub zero_blanks: bool,
    /// The submitting tenant (`oa serve --listen` fairness/quota unit).
    /// Pure scheduling metadata: it never reaches the engines, so results
    /// are tenant-invariant.  `None` means the anonymous default tenant.
    pub tenant: Option<String>,
}

impl Request {
    /// A request with the serve defaults (`seed` 0xD15, blanks zeroed,
    /// anonymous tenant).
    pub fn new(routine: RoutineId, n: i64) -> Request {
        Request {
            routine,
            n,
            seed: 0xD15,
            zero_blanks: true,
            tenant: None,
        }
    }

    /// The tenant this request bills to (the fairness/quota bucket);
    /// anonymous requests share one default bucket.
    pub fn tenant_name(&self) -> &str {
        self.tenant.as_deref().unwrap_or("default")
    }

    /// Parse one JSONL request line:
    /// `{"routine": "GEMM-NN", "n": 64, "seed": 7, "zero_blanks": true,
    /// "tenant": "team-a"}` (`routine` required; `n` defaults to 64,
    /// `seed` to 0xD15, `zero_blanks` to true, `tenant` to anonymous).
    /// Malformed fields are rejected as `parse`, a size outside
    /// `1..=MAX_N` as `admission/size` ([`check_size`]).
    pub fn from_json(doc: &Json) -> Result<Request, Rejection> {
        let parse = |reason: String| reject("parse", reason);
        let name = doc
            .get("routine")
            .and_then(Json::as_str)
            .ok_or_else(|| parse("missing `routine` field".into()))?;
        let routine =
            RoutineId::parse(name).ok_or_else(|| parse(format!("unknown routine `{name}`")))?;
        let n = match doc.get("n") {
            None => 64,
            Some(v) => v
                .as_i64()
                .ok_or_else(|| parse("field `n` is not an integer".into()))?,
        };
        check_size(n)?;
        // A negative seed must be rejected, not wrapped: `-1 as u64` is
        // 2^64-1, which would silently serve a different input set than
        // the client asked for.
        let seed = match doc.get("seed") {
            None => 0xD15,
            Some(v) => {
                let s = v
                    .as_i64()
                    .ok_or_else(|| parse("field `seed` is not an integer".into()))?;
                u64::try_from(s).map_err(|_| parse(format!("field `seed` is negative ({s})")))?
            }
        };
        let zero_blanks = match doc.get("zero_blanks") {
            None => true,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err(parse("field `zero_blanks` is not a boolean".into())),
        };
        let tenant = match doc.get("tenant") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| parse("field `tenant` is not a string".into()))?
                    .to_string(),
            ),
        };
        Ok(Request {
            routine,
            n,
            seed,
            zero_blanks,
            tenant,
        })
    }

    /// The request as a JSONL object (the `oa serve` input format).
    pub fn to_json(&self) -> Json {
        let mut fields = BTreeMap::from([
            ("routine".to_string(), Json::Str(self.routine.name())),
            ("n".to_string(), Json::Int(self.n)),
            ("seed".to_string(), Json::Int(self.seed as i64)),
            ("zero_blanks".to_string(), Json::Bool(self.zero_blanks)),
        ]);
        if let Some(t) = &self.tenant {
            fields.insert("tenant".to_string(), Json::Str(t.clone()));
        }
        Json::Obj(fields)
    }
}

/// The largest admitted problem size: the paper's largest (n = 4096).
/// Every buffer of a request holds `n²` floats, so an unbounded `n` lets
/// one line make the server fail an allocation and abort for every
/// tenant.
pub const MAX_N: i64 = 4096;

/// A structured rejection: stable class plus human-readable reason, the
/// `class`/`reason` pair of a JSONL error line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejection {
    /// Stable failure class (`parse`, `admission/size`, `admission/dag`,
    /// `admission/overload`…).
    pub class: &'static str,
    /// Human-readable cause.
    pub reason: String,
}

pub(crate) fn reject(class: &'static str, reason: impl Into<String>) -> Rejection {
    Rejection {
        class,
        reason: reason.into(),
    }
}

/// The one problem-size range check, `1..=MAX_N`, that request parsing
/// and both admission paths ([`admit`], [`crate::dag::admit_dag`]) run.
pub fn check_size(n: i64) -> Result<(), Rejection> {
    if (1..=MAX_N).contains(&n) {
        Ok(())
    } else {
        Err(reject(
            "admission/size",
            format!("problem size {n} out of range 1..={MAX_N}"),
        ))
    }
}

/// The column-tile width `routine`'s generated kernels serialize along,
/// when they carry one.  The triangular-solver schemes substitute down a
/// barrier-synchronized 64-wide column block, so TRSM problem sizes must
/// be a multiple of 64 — anything else is rejected **at admission**
/// (see [`admit`]) instead of surfacing as a launch failure deep in the
/// engine after tuning already ran.
pub fn solver_tile(routine: RoutineId) -> Option<i64> {
    match routine {
        RoutineId::Trsm(..) => Some(64),
        _ => None,
    }
}

/// Validate a request against launch-time constraints that are knowable
/// up front.  Returns the structured failure (`admission/...` class) the
/// request would otherwise hit much later in the pipeline.
pub fn admit(req: &Request) -> Result<(), RequestStatus> {
    check_size(req.n).map_err(|r| RequestStatus::Failed {
        class: r.class,
        reason: r.reason,
    })?;
    if let Some(tile) = solver_tile(req.routine) {
        if req.n % tile != 0 {
            return Err(RequestStatus::Failed {
                class: "admission/size-constraint",
                reason: format!(
                    "{} requires n to be a multiple of the {tile}-wide column tile \
                     (barrier-synchronized solver block); got n = {}",
                    req.routine.name(),
                    req.n
                ),
            });
        }
    }
    Ok(())
}

/// A successful request execution.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestOk {
    /// The routine's output buffer (`B` for TRSM, `C` otherwise).
    pub output: &'static str,
    /// FNV-1a digest over **every** buffer's bit pattern after execution
    /// ([`digest_buffers`]) — the value the differential and concurrency
    /// suites compare.
    pub digest: u64,
    /// Whether the compiled program came from the LRU (`true`) or was
    /// compiled by this request (`false`).
    pub cache_hit: bool,
    /// Performance-model GFLOPS of the compiled kernel at this size,
    /// when the model could evaluate it.
    pub model_gflops: Option<f64>,
    /// Wall time of this request (resolve + execute), milliseconds.
    pub ms: f64,
    /// The size class the serving script was *tuned* at (execution is
    /// still exact-size).
    pub tuned_class: i64,
    /// Whether `tuned_class` was **clamped** to a boundary class
    /// (`n < 64` or `n > 1024`): the params were tuned for a different
    /// size regime than requested.  Surfaced so clients and metrics see
    /// the quality signal instead of silently absorbing it.
    pub clamped: bool,
    /// The cost-model artifact's per-family engine pick hint (fastest
    /// composer engine at train time), when an artifact is loaded.
    /// Advisory metadata only: results are engine-invariant.
    pub engine_hint: Option<String>,
}

/// Terminal status of one request.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestStatus {
    /// Executed; digest and cache provenance attached.
    Ok(RequestOk),
    /// Failed in resolution, compilation or execution.
    Failed {
        /// Stable failure class (`resolve`, `compile/translate`,
        /// `compile/lower`, `exec`).
        class: &'static str,
        /// Human-readable cause.
        reason: String,
    },
}

/// One request plus its terminal status, in submission order.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestOutcome {
    /// The request as submitted.
    pub request: Request,
    /// What happened.
    pub status: RequestStatus,
}

impl RequestOutcome {
    /// The outcome as a JSONL object (the `oa serve` output format);
    /// `id` is the request's submission index.
    pub fn to_json(&self, id: usize) -> Json {
        let mut fields = BTreeMap::from([
            ("id".to_string(), Json::Int(id as i64)),
            (
                "routine".to_string(),
                Json::Str(self.request.routine.name()),
            ),
            ("n".to_string(), Json::Int(self.request.n)),
            ("seed".to_string(), Json::Int(self.request.seed as i64)),
        ]);
        if let Some(t) = &self.request.tenant {
            fields.insert("tenant".to_string(), Json::Str(t.clone()));
        }
        match &self.status {
            RequestStatus::Ok(ok) => {
                fields.insert("status".to_string(), Json::Str("ok".into()));
                fields.insert("output".to_string(), Json::Str(ok.output.into()));
                fields.insert(
                    "digest".to_string(),
                    Json::Str(format!("{:016x}", ok.digest)),
                );
                fields.insert(
                    "cache".to_string(),
                    Json::Str(if ok.cache_hit { "hit" } else { "miss" }.into()),
                );
                if let Some(g) = ok.model_gflops {
                    fields.insert("model_gflops".to_string(), Json::Num(g));
                }
                fields.insert("ms".to_string(), Json::Num(ok.ms));
                fields.insert("tuned_class".to_string(), Json::Int(ok.tuned_class));
                if ok.clamped {
                    fields.insert("clamped".to_string(), Json::Bool(true));
                }
                if let Some(h) = &ok.engine_hint {
                    fields.insert("engine_hint".to_string(), Json::Str(h.clone()));
                }
            }
            RequestStatus::Failed { class, reason } => {
                fields.insert("status".to_string(), Json::Str("error".into()));
                fields.insert("class".to_string(), Json::Str((*class).into()));
                fields.insert("reason".to_string(), Json::Str(reason.clone()));
            }
        }
        Json::Obj(fields)
    }
}

/// The size class a problem size is *tuned* at: the next power of two,
/// clamped to `[64, 1024]`.  Requests inside one class share a single
/// tuning sweep; compilation still happens at the exact request size, so
/// size classes never change results — only how often the tuner runs.
pub fn size_class(n: i64) -> i64 {
    size_class_info(n).0
}

/// [`size_class`] plus whether the class was **clamped** to a boundary
/// (`true` when the natural next-power-of-two class fell outside
/// `[64, 1024]`, i.e. `n < 33` or `n > 1024`).  A clamped request is
/// served with parameters tuned for a different size regime — still
/// correct, but a quality signal worth surfacing, so it is carried into
/// [`RequestOk::clamped`], the outcome JSON, and the server metrics.
pub fn size_class_info(n: i64) -> (i64, bool) {
    let natural = (n.max(1) as u64).next_power_of_two() as i64;
    let class = natural.clamp(64, 1024);
    (class, class != natural)
}

/// FNV-1a fingerprint over every buffer (sorted by name): shapes and the
/// exact bit pattern of every element, inputs included — two executions
/// agree on this digest iff they are bit-identical observably.
pub fn digest_buffers(bufs: &Buffers) -> u64 {
    let mut names: Vec<&String> = bufs.keys().collect();
    names.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    };
    for name in names {
        let m = &bufs[name];
        eat(name.as_bytes());
        eat(&m.rows.to_le_bytes());
        eat(&m.cols.to_le_bytes());
        for v in &m.data {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// A routine resolved through the tuning cache: the winning script and
/// tile-parameter point, shared by every size in the class.
#[derive(Clone, Debug)]
pub struct TunedEntry {
    /// The winning EPOD script.
    pub script: Script,
    /// The winning tile parameters (the LRU key's param-point).
    pub params: TileParams,
}

/// A compiled program plus everything needed to serve requests with it.
pub struct CompiledEntry {
    /// The transformed program (buffer allocation needs its array
    /// declarations).
    pub program: Program,
    /// The engine-lowered, ready-to-run form.
    pub compiled: CompiledProgram,
    /// Performance-model GFLOPS at this size, when evaluable.
    pub model_gflops: Option<f64>,
}

/// `(routine, device, param-point, size)` — the precompiled-program LRU
/// key.  The param-point pins the exact winning script application; the
/// size is the request's exact `n` (programs are size-specialized — see
/// [`size_class`] for the coarser *tuning* granularity).
type ProgramKey = (String, String, (i64, i64, i64, i64, i64, usize), i64);

/// One tuned-table slot: either a terminal resolution or a tune in
/// flight on some thread — waiters block on the shard's condvar instead
/// of launching a duplicate multi-second sweep.
enum TunedSlot {
    InFlight,
    Done(Result<Arc<TunedEntry>, String>),
}

/// One shard of the tuned-script table.  Sharding means a thread
/// resolving routine A never touches the lock a thread serving routine B
/// holds — tuning one routine cannot block serving another (the mutex is
/// only ever held for map ops; the sweep itself runs outside it).
struct TunedShard {
    map: Mutex<HashMap<(String, i64), TunedSlot>>,
    cv: Condvar,
}

/// Owns an `InFlight` claim on a tuned-table key.  On drop it publishes
/// the resolution (or, on a panic before [`InFlightGuard::publish`],
/// removes the claim so a later resolver retries instead of every
/// waiter deadlocking on a slot nobody will fill) and wakes all waiters.
struct InFlightGuard<'a> {
    shard: &'a TunedShard,
    key: &'a (String, i64),
    result: Option<Result<Arc<TunedEntry>, String>>,
}

impl InFlightGuard<'_> {
    fn publish(mut self, res: Result<Arc<TunedEntry>, String>) {
        self.result = Some(res);
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut map = self.shard.map.lock().expect("unpoisoned registry");
        match self.result.take() {
            Some(res) => {
                map.insert(self.key.clone(), TunedSlot::Done(res));
            }
            None => {
                map.remove(self.key);
            }
        }
        drop(map);
        self.shard.cv.notify_all();
    }
}

/// Shard counts.  Tuned shards spread `(routine, class)` keys (48-ish
/// live keys in a full catalog — collisions are rare and harmless);
/// program shards only apply to the unbounded store, where eviction
/// accounting cannot observe the split.
const TUNED_SHARDS: usize = 16;
const PROGRAM_SHARDS: usize = 8;

fn shard_of<K: Hash>(key: &K, shards: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % shards
}

/// The routine registry: one per device, engine-pinned, holding the
/// tuned-script table and the bounded precompiled-program LRU.
///
/// Thread-safe by construction (`&self` everywhere): `oa serve`'s
/// workers resolve and execute through one shared registry.  Both hot
/// tables are sharded so the persistent server's concurrency holds up:
///
/// * the tuned-script table is [`TUNED_SHARDS`] independent shards with
///   **in-flight deduplication** — the first thread to miss a
///   `(routine, class)` key runs the sweep, concurrent requests for the
///   *same* key wait on the shard condvar for the one result, and
///   requests for *any other* key proceed untouched;
/// * the compiled-program store is [`PROGRAM_SHARDS`] shards when
///   unbounded (the server default), or a single exact-capacity LRU when
///   bounded (so `with_capacity(Some(c))` keeps its precise global
///   bound — the property suite pins `capacity 1 → at most 1 live
///   program`).
pub struct Registry {
    device: DeviceSpec,
    engine: ExecEngine,
    tune_cache_path: Option<PathBuf>,
    tune_cache: Mutex<TuneCache>,
    tuned: Vec<TunedShard>,
    programs: Vec<Mutex<Lru<ProgramKey, Arc<CompiledEntry>>>>,
    /// How cold-path sweeps use the learned cost model (`OA_TUNE_MODEL`).
    model_mode: ModelMode,
    /// The cost-model artifact, loaded **once** at construction and
    /// shared by every cold tune (order-only: winners are unchanged).
    model: Option<Arc<CostModel>>,
    /// Artifact-load issues, surfaced through the first cold tune's
    /// observer instead of being swallowed (drained after emission).
    model_issues: Mutex<Vec<CacheIssue>>,
    /// Serializes fresh tunes *for trace emission only*: a tune emits a
    /// multi-line `begin…summary` span, and two interleaved spans would
    /// be rejected by `oa trace-check`.  Serving never takes this lock —
    /// only fresh sweeps (cold path) and the server's own event lines.
    trace_gate: Mutex<()>,
    /// The DAG fusion environment (lazy: engine/device are pinned after
    /// construction).  Holds the tuned singles and fused-pair plans a
    /// DAG request resolves through; the lock also makes each DAG an
    /// indivisible execution unit (see `crate::dag`).
    dag_env: Mutex<Option<oa_autotune::fuse::FuseEnv>>,
    /// Warm-plan provenance for DAG requests, keyed by
    /// `(DAG shape, n)` — the `cache: hit|miss` field of DAG outcomes.
    dag_plans: Mutex<Lru<(String, i64), ()>>,
}

fn tuned_shards() -> Vec<TunedShard> {
    (0..TUNED_SHARDS)
        .map(|_| TunedShard {
            map: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        })
        .collect()
}

fn program_shards(capacity: Option<usize>) -> Vec<Mutex<Lru<ProgramKey, Arc<CompiledEntry>>>> {
    match capacity {
        // A bounded store keeps its exact global capacity: one shard.
        Some(c) => vec![Mutex::new(Lru::new(Some(c)))],
        None => (0..PROGRAM_SHARDS)
            .map(|_| Mutex::new(Lru::new(None)))
            .collect(),
    }
}

/// Load the cost-model artifact at `path` (when ranking is on at all);
/// corruption is classified, never fatal — the registry degrades to
/// exact sweeps.
fn load_model(mode: ModelMode, path: Option<PathBuf>) -> (Option<Arc<CostModel>>, Vec<CacheIssue>) {
    match (mode, path) {
        (ModelMode::Off, _) | (_, None) => (None, Vec::new()),
        (_, Some(path)) => {
            let (model, issues) = CostModel::load_reporting(&path);
            (model.map(Arc::new), issues)
        }
    }
}

impl Registry {
    /// A registry for `device` with the process-default engine, an
    /// unbounded program store and no persistent tuning cache.  The cost
    /// model is resolved from the environment (`OA_TUNE_MODEL`,
    /// `OA_TUNE_MODEL_PATH` / sibling of `OA_TUNE_CACHE`).
    pub fn new(device: DeviceSpec) -> Registry {
        let model_mode = ModelMode::from_env();
        let (model, model_issues) = load_model(model_mode, model_path_from_env());
        Registry {
            device,
            engine: oa_gpusim::select_engine(),
            tune_cache_path: None,
            tune_cache: Mutex::new(TuneCache::new()),
            tuned: tuned_shards(),
            programs: program_shards(None),
            model_mode,
            model,
            model_issues: Mutex::new(model_issues),
            trace_gate: Mutex::new(()),
            dag_env: Mutex::new(None),
            dag_plans: Mutex::new(Lru::new(None)),
        }
    }

    /// The lazily-initialized DAG fusion environment (see `crate::dag`).
    pub(crate) fn dag_env(&self) -> &Mutex<Option<oa_autotune::fuse::FuseEnv>> {
        &self.dag_env
    }

    /// The DAG warm-plan table (shape-keyed provenance).
    pub(crate) fn dag_plans(&self) -> &Mutex<Lru<(String, i64), ()>> {
        &self.dag_plans
    }

    /// Pin the execution engine (tests and the engine-differential suite;
    /// results are engine-invariant, throughput is not).
    pub fn with_engine(mut self, engine: ExecEngine) -> Registry {
        self.engine = engine;
        self
    }

    /// Bound the precompiled-program LRU (`None` = unbounded).  Eviction
    /// never changes results — only the hit rate (the property suite
    /// replays requests at capacity 1 vs unbounded and demands equal
    /// outputs).
    pub fn with_capacity(mut self, capacity: Option<usize>) -> Registry {
        self.programs = program_shards(capacity);
        self
    }

    /// Resolve tuning through the persistent JSON cache at `path`
    /// (loaded now; tune-on-miss winners are merged back best-effort
    /// under the cache's lock file).  The cost-model artifact is
    /// re-resolved next to this path (`OA_TUNE_MODEL_PATH` overrides).
    pub fn with_tune_cache(mut self, path: PathBuf) -> Registry {
        let (cache, _issues) = TuneCache::load_reporting(&path);
        self.tune_cache = Mutex::new(cache);
        let model_path = std::env::var_os("OA_TUNE_MODEL_PATH")
            .map(PathBuf::from)
            .unwrap_or_else(|| sibling_model_path(&path));
        let (model, issues) = load_model(self.model_mode, Some(model_path));
        self.model = model;
        self.model_issues = Mutex::new(issues);
        self.tune_cache_path = Some(path);
        self
    }

    /// The model artifact's per-family engine pick hint for `routine`
    /// (fastest composer engine measured at train time) — advisory
    /// metadata surfaced in request outcomes; never changes results.
    pub fn engine_hint(&self, routine: RoutineId) -> Option<String> {
        self.model
            .as_ref()
            .and_then(|m| m.engine_hint(routine.family()))
            .map(str::to_string)
    }

    /// The registry's device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The registry's pinned engine.
    pub fn engine(&self) -> ExecEngine {
        self.engine
    }

    /// Cumulative program-store counters (summed across shards).
    pub fn program_stats(&self) -> oa_gpusim::LruStats {
        let mut total = oa_gpusim::LruStats::default();
        for shard in &self.programs {
            let s = shard.lock().expect("unpoisoned registry").stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }

    /// Live compiled programs (summed across shards).
    pub fn programs_len(&self) -> usize {
        self.programs
            .iter()
            .map(|s| s.lock().expect("unpoisoned registry").len())
            .sum()
    }

    /// Drop every compiled program (tuned scripts survive) — the cold
    /// path of `bench_dispatch`.
    pub fn clear_programs(&self) {
        for shard in &self.programs {
            shard.lock().expect("unpoisoned registry").clear();
        }
    }

    /// The registry's trace-emission gate.  Any multi-line event span
    /// written to a shared trace sink from concurrent threads must hold
    /// this lock while emitting, so `oa trace-check` never sees two
    /// interleaved spans.  Fresh tunes inside [`Registry::resolve_observed`]
    /// take it automatically; the server takes it around its terminal
    /// `serve` event line.
    pub fn trace_gate(&self) -> MutexGuard<'_, ()> {
        self.trace_gate.lock().expect("unpoisoned registry")
    }

    /// Resolve `routine` at `n`'s size class through the tuning cache,
    /// sweeping on a miss and reporting every tuner/cache event through
    /// `obs`.  The resolution is memoized — failures too, so a routine
    /// the tuner cannot handle fails every request fast instead of
    /// re-sweeping per request.
    pub fn resolve_observed(
        &self,
        routine: RoutineId,
        n: i64,
        obs: &mut dyn FnMut(TuneEvent),
    ) -> Result<Arc<TunedEntry>, String> {
        let class = size_class(n);
        let key = (routine.name(), class);
        let shard = &self.tuned[shard_of(&key, TUNED_SHARDS)];

        // Fast path / claim: either return a memoized resolution, wait
        // for an in-flight sweep on the same key, or claim the key and
        // become the sweeping thread ourselves.
        {
            let mut map = shard.map.lock().expect("unpoisoned registry");
            loop {
                match map.get(&key) {
                    Some(TunedSlot::Done(res)) => return res.clone(),
                    Some(TunedSlot::InFlight) => {
                        map = shard.cv.wait(map).expect("unpoisoned registry");
                    }
                    None => {
                        map.insert(key.clone(), TunedSlot::InFlight);
                        break;
                    }
                }
            }
        }
        // From here on we own the in-flight slot; any early return or
        // panic must release it or every waiter deadlocks.
        let guard = InFlightGuard {
            shard,
            key: &key,
            result: None,
        };

        // Consult the tuning cache (stale records are reported and fall
        // through to a fresh sweep, exactly like `tune_at`).
        let mut replayed: Option<(TunedEntry, f64)> = None;
        {
            let cache = self.tune_cache.lock().expect("unpoisoned registry");
            if let Some(rec) = cache.get(routine, &self.device, class) {
                match validate_record(routine, rec) {
                    Ok(script) => {
                        replayed = Some((
                            TunedEntry {
                                script,
                                params: rec.tile_params(),
                            },
                            rec.gflops,
                        ));
                    }
                    Err(issue) => obs(TuneEvent::Cache(issue)),
                }
            }
        }
        let res: Result<Arc<TunedEntry>, String> = match replayed {
            Some((entry, gflops)) => {
                obs(TuneEvent::Replayed {
                    routine: routine.name(),
                    gflops,
                });
                Ok(Arc::new(entry))
            }
            None => {
                // A fresh sweep emits a multi-line begin…summary span;
                // hold the trace gate so concurrent sweeps of *different*
                // keys cannot interleave their spans in the trace stream.
                let _trace = self.trace_gate.lock().expect("unpoisoned registry");
                // The cold path is where the learned cost model earns its
                // keep: rank the sweep with the shared artifact, seed the
                // order from this routine's already-tuned size classes,
                // and surface any artifact-load issues exactly once.
                let ctx = ModelCtx {
                    mode: Some(self.model_mode),
                    model: self.model.clone(),
                    transfer: self
                        .tune_cache
                        .lock()
                        .expect("unpoisoned registry")
                        .records_for(routine, &self.device),
                    issues: std::mem::take(
                        &mut *self.model_issues.lock().expect("unpoisoned registry"),
                    ),
                };
                match tune_fresh_modeled(self.engine, routine, &self.device, class, &ctx, obs) {
                    Ok(t) => {
                        let rec = TunedRecord::from_kernel(&t);
                        self.tune_cache
                            .lock()
                            .expect("unpoisoned registry")
                            .insert(rec.clone());
                        // Persistence is best-effort (under the cache's lock
                        // file); an unwritable path degrades to re-tuning in
                        // the next process, never to a wrong result.
                        if let Some(path) = &self.tune_cache_path {
                            let _ = TuneCache::update(path, |c| c.insert(rec));
                        }
                        Ok(Arc::new(TunedEntry {
                            script: t.script,
                            params: t.params,
                        }))
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
        };

        guard.publish(res.clone());
        res
    }

    /// [`Registry::resolve_observed`] without a trace observer.
    pub fn resolve(&self, routine: RoutineId, n: i64) -> Result<Arc<TunedEntry>, String> {
        self.resolve_observed(routine, n, &mut |_| {})
    }

    /// Fetch (or compile) the program for `(routine, entry, n)` through
    /// the LRU.  Returns the entry and whether it was a cache hit.
    fn compiled(
        &self,
        routine: RoutineId,
        entry: &TunedEntry,
        n: i64,
    ) -> Result<(Arc<CompiledEntry>, bool), (&'static str, String)> {
        let p = entry.params;
        let key: ProgramKey = (
            routine.name(),
            self.device.name.to_string(),
            (p.ty, p.tx, p.thr_i, p.thr_j, p.kb, p.unroll),
            n,
        );
        let shard = &self.programs[shard_of(&key, self.programs.len())];
        if let Some(e) = shard.lock().expect("unpoisoned registry").get(&key) {
            return Ok((e.clone(), true));
        }
        // Compile outside the lock: a slow lowering must not serialize
        // the whole pool.  Two workers racing on one key both compile
        // (both counted as misses) and the last insert wins — the
        // compilation is deterministic, so the copies are identical.
        let src = oa_blas3::routines::source(routine);
        let outcome = apply_lenient(&src, &entry.script, entry.params)
            .map_err(|e| ("compile/translate", e.to_string()))?;
        let bindings = Bindings::square(n);
        let compiled = CompiledProgram::compile(self.engine, &outcome.program, &bindings)
            .map_err(|e| ("compile/lower", e.to_string()))?;
        let model_gflops = oa_gpusim::perf::evaluate(
            &outcome.program,
            &bindings,
            &self.device,
            routine.flops(n),
            true,
        )
        .ok()
        .map(|rep| rep.gflops);
        let e = Arc::new(CompiledEntry {
            program: outcome.program,
            compiled,
            model_gflops,
        });
        shard
            .lock()
            .expect("unpoisoned registry")
            .insert(key, e.clone());
        Ok((e, false))
    }

    /// Execute one request end to end, optionally returning the executed
    /// buffers (the differential suite compares them bit-for-bit against
    /// a direct engine run).  [`admit`] runs first, so constraint
    /// violations (TRSM sizes off the 64-wide solver tile) fail with a
    /// structured `admission/...` outcome before any tuning or
    /// compilation is spent on them.
    pub fn run_one_buffers(&self, req: &Request) -> (RequestOutcome, Option<Buffers>) {
        self.run_one_buffers_observed(req, &mut |_| {})
    }

    /// [`Registry::run_one_buffers`] with a trace observer for any
    /// tuning the request triggers.
    pub fn run_one_buffers_observed(
        &self,
        req: &Request,
        obs: &mut dyn FnMut(TuneEvent),
    ) -> (RequestOutcome, Option<Buffers>) {
        let t0 = Instant::now();
        let outcome = |status| RequestOutcome {
            request: req.clone(),
            status,
        };
        match self.execute(req, obs) {
            Ok((ce, cache_hit, bufs)) => {
                let (tuned_class, clamped) = size_class_info(req.n);
                let ok = RequestOk {
                    output: match req.routine {
                        RoutineId::Trsm(..) => "B",
                        _ => "C",
                    },
                    digest: digest_buffers(&bufs),
                    cache_hit,
                    model_gflops: ce.model_gflops,
                    ms: t0.elapsed().as_secs_f64() * 1e3,
                    tuned_class,
                    clamped,
                    engine_hint: self.engine_hint(req.routine),
                };
                (outcome(RequestStatus::Ok(ok)), Some(bufs))
            }
            Err(status) => (outcome(status), None),
        }
    }

    /// Admit, resolve, fetch-or-compile and run `req`'s program on fresh
    /// inputs.  `Err` is the request's terminal status.
    fn execute(
        &self,
        req: &Request,
        obs: &mut dyn FnMut(TuneEvent),
    ) -> Result<(Arc<CompiledEntry>, bool, Buffers), RequestStatus> {
        admit(req)?;
        let entry = self
            .resolve_observed(req.routine, req.n, obs)
            .map_err(|reason| RequestStatus::Failed {
                class: "resolve",
                reason,
            })?;
        let (ce, cache_hit) = self
            .compiled(req.routine, &entry, req.n)
            .map_err(|(class, reason)| RequestStatus::Failed { class, reason })?;
        let mut bufs = prepare_buffers(&ce.program, req.n, req.seed, req.zero_blanks);
        ce.compiled
            .execute(&mut bufs)
            .map_err(|e| RequestStatus::Failed {
                class: "exec",
                reason: e.to_string(),
            })?;
        Ok((ce, cache_hit, bufs))
    }

    /// Execute one request end to end.
    pub fn run_one(&self, req: &Request) -> RequestOutcome {
        self.run_one_buffers(req).0
    }

    /// Execute one request with a trace observer.
    pub fn run_one_observed(
        &self,
        req: &Request,
        obs: &mut dyn FnMut(TuneEvent),
    ) -> RequestOutcome {
        self.run_one_buffers_observed(req, obs).0
    }

    /// Pre-resolve every distinct `(routine, size class)` `reqs` need, in
    /// order, on the calling thread — tuning up front, so a benchmark's
    /// timed passes only replay and execute.
    pub fn warm(&self, reqs: &[Request], obs: &mut dyn FnMut(TuneEvent)) {
        for req in reqs {
            let _ = self.resolve_observed(req.routine, req.n, obs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_blas3::types::Trans;

    #[test]
    fn size_class_buckets() {
        assert_eq!(size_class(1), 64);
        assert_eq!(size_class(48), 64);
        assert_eq!(size_class(64), 64);
        assert_eq!(size_class(65), 128);
        assert_eq!(size_class(512), 512);
        assert_eq!(size_class(4096), 1024);
    }

    #[test]
    fn request_json_roundtrip_and_defaults() {
        let r = Request {
            routine: RoutineId::Gemm(Trans::N, Trans::T),
            n: 96,
            seed: 7,
            zero_blanks: false,
            tenant: Some("team-a".into()),
        };
        let back = Request::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.tenant_name(), "team-a");

        let minimal = oa_autotune::json::parse(r#"{"routine": "SYMM-LL"}"#).unwrap();
        let req = Request::from_json(&minimal).unwrap();
        assert_eq!(req.n, 64);
        assert_eq!(req.seed, 0xD15);
        assert!(req.zero_blanks);
        assert_eq!(req.tenant, None);
        assert_eq!(req.tenant_name(), "default");

        assert!(Request::from_json(&oa_autotune::json::parse("{}").unwrap()).is_err());
        assert!(Request::from_json(
            &oa_autotune::json::parse(r#"{"routine": "GEMM-NN", "n": 0}"#).unwrap()
        )
        .is_err());
        assert!(Request::from_json(
            &oa_autotune::json::parse(r#"{"routine": "NOPE-XX"}"#).unwrap()
        )
        .is_err());
        assert!(Request::from_json(
            &oa_autotune::json::parse(r#"{"routine": "GEMM-NN", "tenant": 3}"#).unwrap()
        )
        .is_err());
    }

    #[test]
    fn negative_seed_is_rejected_not_wrapped() {
        // Pre-fix, `-1 as u64` wrapped to 2^64-1 and silently served a
        // different input set; the parser must refuse instead.
        let err = Request::from_json(
            &oa_autotune::json::parse(r#"{"routine": "GEMM-NN", "seed": -1}"#).unwrap(),
        )
        .unwrap_err();
        assert_eq!(err.class, "parse");
        assert!(err.reason.contains("negative"), "unexpected error: {err:?}");
        let err = Request::from_json(
            &oa_autotune::json::parse(r#"{"routine": "GEMM-NN", "seed": 1.5}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.reason.contains("integer"), "unexpected error: {err:?}");
        // Boundary: zero and large positive seeds still parse.
        let ok = Request::from_json(
            &oa_autotune::json::parse(r#"{"routine": "GEMM-NN", "seed": 0}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(ok.seed, 0);
    }

    #[test]
    fn size_range_is_one_through_max_n() {
        assert!(check_size(1).is_ok() && check_size(MAX_N).is_ok());
        for n in [0, -3, MAX_N + 1, 1_000_000] {
            assert_eq!(
                check_size(n).unwrap_err().class,
                "admission/size",
                "n = {n}"
            );
        }
        let line = format!(r#"{{"routine": "GEMM-NN", "n": {}}}"#, MAX_N + 1);
        let err = Request::from_json(&oa_autotune::json::parse(&line).unwrap()).unwrap_err();
        assert_eq!(err.class, "admission/size");
        let big = Request::new(RoutineId::Gemm(Trans::N, Trans::N), MAX_N + 1);
        assert!(matches!(
            admit(&big),
            Err(RequestStatus::Failed {
                class: "admission/size",
                ..
            })
        ));
    }

    #[test]
    fn admission_rejects_off_tile_trsm() {
        // TRSM kernels serialize down a 64-wide column tile; any n not a
        // multiple of 64 used to die at kernel launch after tuning spent
        // seconds — admission now front-loads the rejection.
        use oa_blas3::types::{Side, Uplo};
        let bad = Request::new(RoutineId::Trsm(Side::Left, Uplo::Lower, Trans::N), 96);
        match admit(&bad) {
            Err(RequestStatus::Failed { class, reason }) => {
                assert_eq!(class, "admission/size-constraint");
                assert!(
                    reason.contains("64"),
                    "reason should name the tile: {reason}"
                );
            }
            other => panic!("expected admission failure, got {other:?}"),
        }
        let good = Request::new(RoutineId::Trsm(Side::Left, Uplo::Lower, Trans::N), 128);
        assert!(admit(&good).is_ok());
        // GEMM has no tile constraint at odd sizes.
        assert!(admit(&Request::new(RoutineId::Gemm(Trans::N, Trans::N), 97)).is_ok());
        assert!(matches!(
            admit(&Request::new(RoutineId::Gemm(Trans::N, Trans::N), 0)),
            Err(RequestStatus::Failed {
                class: "admission/size",
                ..
            })
        ));
    }

    #[test]
    fn size_class_info_reports_clamping() {
        // Inside [64, 1024]: natural class, not clamped.
        assert_eq!(size_class_info(64), (64, false));
        assert_eq!(size_class_info(48), (64, false)); // next pow2 is 64
        assert_eq!(size_class_info(1000), (1024, false));
        // Below: n <= 32 has natural class < 64 — clamped up.
        assert_eq!(size_class_info(16), (64, true));
        assert_eq!(size_class_info(32), (64, true));
        assert_eq!(size_class_info(33), (64, false));
        // Above: n > 1024 — clamped down.
        assert_eq!(size_class_info(2048), (1024, true));
        assert_eq!(size_class_info(1025), (1024, true));
    }

    #[test]
    fn digest_is_order_insensitive_but_content_sensitive() {
        use oa_loopir::interp::Matrix;
        let mut a = Buffers::new();
        let mut m1 = Matrix::zeros(4, 4);
        m1.fill_pseudo(1);
        let mut m2 = Matrix::zeros(4, 4);
        m2.fill_pseudo(2);
        a.insert("A".into(), m1.clone());
        a.insert("B".into(), m2.clone());
        // Same content, different insertion order: equal digest
        // (HashMap iteration order must not leak).
        let mut b = Buffers::new();
        b.insert("B".into(), m2.clone());
        b.insert("A".into(), m1.clone());
        assert_eq!(digest_buffers(&a), digest_buffers(&b));
        // One flipped bit: different digest.
        let v = b.get_mut("A").unwrap().get(0, 0);
        b.get_mut("A").unwrap().set(0, 0, v + 1.0);
        assert_ne!(digest_buffers(&a), digest_buffers(&b));
    }

    #[test]
    fn outcome_json_has_stable_status_fields() {
        let mut req = Request::new(RoutineId::Gemm(Trans::N, Trans::N), 64);
        req.tenant = Some("acme".into());
        let ok = RequestOutcome {
            request: req.clone(),
            status: RequestStatus::Ok(RequestOk {
                output: "C",
                digest: 0xABCD,
                cache_hit: true,
                model_gflops: Some(123.0),
                ms: 1.5,
                tuned_class: 64,
                clamped: false,
                engine_hint: Some("native".into()),
            }),
        };
        let line = ok.to_json(3).compact();
        assert!(line.contains("\"id\":3"));
        assert!(line.contains("\"status\":\"ok\""));
        assert!(line.contains("\"cache\":\"hit\""));
        assert!(line.contains("000000000000abcd"));
        assert!(line.contains("\"tenant\":\"acme\""));
        assert!(line.contains("\"tuned_class\":64"));
        assert!(line.contains("\"engine_hint\":\"native\""));
        // `clamped` only appears when true.
        assert!(!line.contains("clamped"));

        let mut clamped_ok = ok.clone();
        if let RequestStatus::Ok(ref mut o) = clamped_ok.status {
            o.clamped = true;
        }
        assert!(clamped_ok.to_json(3).compact().contains("\"clamped\":true"));

        let bad = RequestOutcome {
            request: req,
            status: RequestStatus::Failed {
                class: "resolve",
                reason: "no variants".into(),
            },
        };
        let line = bad.to_json(0).compact();
        assert!(line.contains("\"status\":\"error\""));
        assert!(line.contains("\"class\":\"resolve\""));
    }
}
