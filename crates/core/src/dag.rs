//! Expression-DAG requests: schema, admission, and registry execution.
//!
//! A JSONL request whose top level carries a `"dag"` array names a small
//! expression DAG — each node a routine call whose operands may reference
//! an **earlier** node's output with `"@id"`:
//!
//! ```json
//! {"dag": [{"id": "mm", "routine": "GEMM-NN", "a": "A", "b": "B", "c": "C"},
//!          {"id": "sum", "routine": "ADD", "a": "@mm", "b": "E"}],
//!  "n": 64, "seed": 7, "tenant": "team-a", "fuse": true}
//! ```
//!
//! References are backward-only by construction, so the schema cannot
//! even spell a cycle — a self or forward reference is rejected at
//! admission as `admission/dag-cycle`, an unknown id as
//! `admission/dag-ref`, and structural violations (missing/duplicate
//! ids, empty or oversized DAGs, operands a routine does not take) as
//! `admission/dag`.  Solver size constraints apply to **every** node,
//! intermediates included (`admission/size-constraint`), before any
//! planning or tuning is spent.
//!
//! Execution goes through [`Registry::run_dag_observed`]: the fusion
//! planner ([`oa_autotune::fuse`]) pairs legal producer→consumer edges,
//! the tuned fused programs are resolved through the registry's
//! DAG-shape-keyed plan cache, and the whole DAG executes as **one
//! unit** (`oa serve` admits and runs it as one request).

use crate::dispatch::{check_size, reject, solver_tile, Registry, Rejection};
use oa_autotune::fuse::{DagNode, FuseEnv, Operand, ResolveMode};
use oa_autotune::json::Json;
use oa_autotune::TuneEvent;
use oa_blas3::types::{RoutineId, Trans};
use std::collections::BTreeMap;
use std::time::Instant;

/// Largest DAG a request may carry; beyond this the request is rejected
/// at admission (`admission/dag`) — the planner is linear but the serve
/// layer promises bounded per-request work.
pub const MAX_DAG_NODES: usize = 8;

/// One parsed DAG request.
#[derive(Clone, Debug, PartialEq)]
pub struct DagRequest {
    /// The nodes, in declaration order (references point backward).
    pub nodes: Vec<DagNode>,
    /// Square problem size shared by every node.
    pub n: i64,
    /// Input-generation seed (external buffers derive from it by name).
    pub seed: u64,
    /// The submitting tenant (scheduling metadata, result-invariant).
    pub tenant: Option<String>,
    /// Whether the planner may fuse legal edges (`false` forces the
    /// sequenced plan — the differential baseline).
    pub fuse: bool,
}

impl DagRequest {
    /// The tenant this request bills to.
    pub fn tenant_name(&self) -> &str {
        self.tenant.as_deref().unwrap_or("default")
    }

    /// Canonical shape of the DAG — the plan-cache / coalescing key.
    pub fn shape(&self) -> String {
        oa_autotune::fuse::shape_key(&self.nodes)
    }

    /// Parse a JSONL DAG request (the document must carry a `"dag"`
    /// array).  Violations come back as structured `admission/*`
    /// rejections, never bare strings.
    pub fn from_json(doc: &Json) -> Result<DagRequest, Rejection> {
        let arr = match doc.get("dag") {
            Some(Json::Arr(a)) => a,
            Some(_) => return Err(reject("admission/dag", "field `dag` is not an array")),
            None => return Err(reject("admission/dag", "missing `dag` field")),
        };
        if arr.is_empty() {
            return Err(reject("admission/dag", "`dag` has no nodes"));
        }
        if arr.len() > MAX_DAG_NODES {
            return Err(reject(
                "admission/dag",
                format!("`dag` has {} nodes (max {MAX_DAG_NODES})", arr.len()),
            ));
        }

        // First pass: collect ids (for ref classification) and routines.
        let mut ids: Vec<String> = Vec::with_capacity(arr.len());
        for (i, node) in arr.iter().enumerate() {
            let id = node
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| reject("admission/dag", format!("node {i}: missing `id`")))?;
            if id.is_empty() || id.starts_with('@') {
                return Err(reject(
                    "admission/dag",
                    format!("node {i}: invalid id `{id}`"),
                ));
            }
            if ids.iter().any(|x| x == id) {
                return Err(reject("admission/dag", format!("duplicate node id `{id}`")));
            }
            ids.push(id.to_string());
        }

        // Second pass: routines and operand resolution.
        let mut nodes: Vec<DagNode> = Vec::with_capacity(arr.len());
        for (i, node) in arr.iter().enumerate() {
            let id = &ids[i];
            let rname = node.get("routine").and_then(Json::as_str).ok_or_else(|| {
                reject("admission/dag", format!("node `{id}`: missing `routine`"))
            })?;
            // `SYRK` is sugar for a symmetric rank update: GEMM-NT with
            // both operands the same buffer.
            let (routine, syrk) = if rname == "SYRK" {
                (RoutineId::Gemm(Trans::N, Trans::T), true)
            } else {
                match RoutineId::parse(rname) {
                    Some(r) => (r, false),
                    None => {
                        return Err(reject(
                            "admission/dag",
                            format!("node `{id}`: unknown routine `{rname}`"),
                        ))
                    }
                }
            };

            let operand = |slot: &str, default: String| -> Result<Operand, Rejection> {
                let raw = match node.get(slot) {
                    None => return Ok(Operand::Buf(default)),
                    Some(v) => v.as_str().ok_or_else(|| {
                        reject(
                            "admission/dag",
                            format!("node `{id}`: field `{slot}` is not a string"),
                        )
                    })?,
                };
                match raw.strip_prefix('@') {
                    None => {
                        if raw.is_empty() {
                            return Err(reject(
                                "admission/dag",
                                format!("node `{id}`: empty buffer name in `{slot}`"),
                            ));
                        }
                        Ok(Operand::Buf(raw.to_string()))
                    }
                    Some(target) => match ids.iter().position(|x| x == target) {
                        None => Err(reject(
                            "admission/dag-ref",
                            format!("node `{id}`: `{slot}` references unknown node `@{target}`"),
                        )),
                        Some(t) if t == i => Err(reject(
                            "admission/dag-cycle",
                            format!("node `{id}`: `{slot}` references itself"),
                        )),
                        Some(t) if t > i => Err(reject(
                            "admission/dag-cycle",
                            format!(
                                "node `{id}`: `{slot}` references later node `@{target}` \
                                 (references must point backward)"
                            ),
                        )),
                        Some(t) => Ok(Operand::Node(t)),
                    },
                }
            };

            let a = operand("a", format!("A{i}"))?;
            let b = if syrk {
                if node.get("b").is_some() {
                    return Err(reject(
                        "admission/dag",
                        format!("node `{id}`: SYRK takes one operand `a` (`b` is implied)"),
                    ));
                }
                a.clone()
            } else {
                operand("b", format!("B{i}"))?
            };
            let takes_c = matches!(
                routine,
                RoutineId::Gemm(..) | RoutineId::Symm(..) | RoutineId::Trmm(..)
            );
            let c = if takes_c {
                Some(operand("c", format!("C{i}"))?)
            } else {
                if node.get("c").is_some() {
                    return Err(reject(
                        "admission/dag",
                        format!("node `{id}`: `{}` takes no `c` operand", routine.name()),
                    ));
                }
                None
            };
            nodes.push(DagNode {
                id: id.clone(),
                routine,
                a,
                b,
                c,
            });
        }

        let n = match doc.get("n") {
            None => 64,
            Some(v) => v
                .as_i64()
                .ok_or_else(|| reject("admission/dag", "field `n` is not an integer"))?,
        };
        let seed = match doc.get("seed") {
            None => 0xD15,
            Some(v) => {
                let s = v
                    .as_i64()
                    .ok_or_else(|| reject("admission/dag", "field `seed` is not an integer"))?;
                u64::try_from(s).map_err(|_| {
                    reject("admission/dag", format!("field `seed` is negative ({s})"))
                })?
            }
        };
        let tenant = match doc.get("tenant") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| reject("admission/dag", "field `tenant` is not a string"))?
                    .to_string(),
            ),
        };
        let fuse = match doc.get("fuse") {
            None => true,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err(reject("admission/dag", "field `fuse` is not a boolean")),
        };
        Ok(DagRequest {
            nodes,
            n,
            seed,
            tenant,
            fuse,
        })
    }

    /// The request as a JSONL object (round-trips through
    /// [`DagRequest::from_json`]).
    pub fn to_json(&self) -> Json {
        let op = |o: &Operand| match o {
            Operand::Buf(b) => Json::Str(b.clone()),
            Operand::Node(i) => Json::Str(format!("@{}", self.nodes[*i].id)),
        };
        let nodes: Vec<Json> = self
            .nodes
            .iter()
            .map(|nd| {
                let mut fields = BTreeMap::from([
                    ("id".to_string(), Json::Str(nd.id.clone())),
                    ("routine".to_string(), Json::Str(nd.routine.name())),
                    ("a".to_string(), op(&nd.a)),
                    ("b".to_string(), op(&nd.b)),
                ]);
                if let Some(c) = &nd.c {
                    fields.insert("c".to_string(), op(c));
                }
                Json::Obj(fields)
            })
            .collect();
        let mut fields = BTreeMap::from([
            ("dag".to_string(), Json::Arr(nodes)),
            ("n".to_string(), Json::Int(self.n)),
            ("seed".to_string(), Json::Int(self.seed as i64)),
            ("fuse".to_string(), Json::Bool(self.fuse)),
        ]);
        if let Some(t) = &self.tenant {
            fields.insert("tenant".to_string(), Json::Str(t.clone()));
        }
        Json::Obj(fields)
    }
}

/// Validate a parsed DAG request against launch-time constraints that
/// are knowable up front — the solver column-tile divisibility applies
/// to every node, **including ones fed by intermediates** (an illegal
/// intermediate size would otherwise surface as a launch failure after
/// tuning already ran).
pub fn admit_dag(req: &DagRequest) -> Result<(), Rejection> {
    check_size(req.n)?;
    for node in &req.nodes {
        if let Some(tile) = solver_tile(node.routine) {
            if req.n % tile != 0 {
                return Err(reject(
                    "admission/size-constraint",
                    format!(
                        "node `{}`: {} requires n to be a multiple of the {tile}-wide \
                         column tile (barrier-synchronized solver block); got n = {}",
                        node.id,
                        node.routine.name(),
                        req.n
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// A successful DAG execution.
#[derive(Clone, Debug, PartialEq)]
pub struct DagOk {
    /// Combined digest over the sink outputs.
    pub digest: u64,
    /// Per-sink digests `(node id, digest)`, sorted by id.
    pub sinks: Vec<(String, u64)>,
    /// Fused edges `(producer id, consumer id, kind)`.
    pub fused: Vec<(String, String, String)>,
    /// Rejected/demoted edges `(producer id, consumer id, reason)`.
    pub rejected: Vec<(String, String, String)>,
    /// Execution units after planning.
    pub units: usize,
    /// Whether this DAG shape's plan was already warm in the registry.
    pub cache_hit: bool,
    /// Modeled global-memory traffic summed over units.
    pub gmem_bytes: Option<f64>,
    /// Combined useful GFLOPS over modeled time.
    pub model_gflops: Option<f64>,
    /// Wall time (plan + resolve + execute), milliseconds.
    pub ms: f64,
}

/// Terminal status of one DAG request.
#[derive(Clone, Debug, PartialEq)]
pub enum DagStatus {
    /// Executed; fusion decisions and digest attached.
    Ok(DagOk),
    /// Rejected at admission or failed in resolution/execution.
    Failed {
        /// Stable failure class.
        class: &'static str,
        /// Human-readable cause.
        reason: String,
    },
}

/// One DAG request plus its terminal status.
#[derive(Clone, Debug, PartialEq)]
pub struct DagOutcome {
    /// The request as submitted.
    pub request: DagRequest,
    /// What happened.
    pub status: DagStatus,
}

impl DagOutcome {
    /// The outcome as a JSONL object; `id` is the submission index.
    pub fn to_json(&self, id: usize) -> Json {
        let edges = |es: &[(String, String, String)]| {
            Json::Arr(
                es.iter()
                    .map(|(p, c, k)| {
                        Json::Obj(BTreeMap::from([
                            ("producer".to_string(), Json::Str(p.clone())),
                            ("consumer".to_string(), Json::Str(c.clone())),
                            ("kind".to_string(), Json::Str(k.clone())),
                        ]))
                    })
                    .collect(),
            )
        };
        let mut fields = BTreeMap::from([
            ("id".to_string(), Json::Int(id as i64)),
            ("dag".to_string(), Json::Str(self.request.shape())),
            ("n".to_string(), Json::Int(self.request.n)),
            ("seed".to_string(), Json::Int(self.request.seed as i64)),
        ]);
        if let Some(t) = &self.request.tenant {
            fields.insert("tenant".to_string(), Json::Str(t.clone()));
        }
        match &self.status {
            DagStatus::Ok(ok) => {
                fields.insert("status".to_string(), Json::Str("ok".into()));
                fields.insert(
                    "digest".to_string(),
                    Json::Str(format!("{:016x}", ok.digest)),
                );
                fields.insert(
                    "sinks".to_string(),
                    Json::Obj(
                        ok.sinks
                            .iter()
                            .map(|(id, d)| (id.clone(), Json::Str(format!("{d:016x}"))))
                            .collect(),
                    ),
                );
                fields.insert("fused".to_string(), edges(&ok.fused));
                fields.insert("rejected".to_string(), edges(&ok.rejected));
                fields.insert("units".to_string(), Json::Int(ok.units as i64));
                fields.insert(
                    "cache".to_string(),
                    Json::Str(if ok.cache_hit { "hit" } else { "miss" }.into()),
                );
                if let Some(b) = ok.gmem_bytes {
                    fields.insert("gmem_bytes".to_string(), Json::Num(b));
                }
                if let Some(g) = ok.model_gflops {
                    fields.insert("model_gflops".to_string(), Json::Num(g));
                }
                fields.insert("ms".to_string(), Json::Num(ok.ms));
            }
            DagStatus::Failed { class, reason } => {
                fields.insert("status".to_string(), Json::Str("error".into()));
                fields.insert("class".to_string(), Json::Str((*class).into()));
                fields.insert("reason".to_string(), Json::Str(reason.clone()));
            }
        }
        Json::Obj(fields)
    }
}

impl Registry {
    /// Execute one DAG request end to end: admission → fusion planning →
    /// tuned resolution (memoized under the DAG-shape key) → execution as
    /// one unit → sink digest.
    pub fn run_dag(&self, req: &DagRequest) -> DagOutcome {
        self.run_dag_observed(req, &mut |_| {})
    }

    /// [`Registry::run_dag`] with a trace observer — one
    /// [`TuneEvent::Fuse`] line carries every per-edge fuse/reject
    /// decision.
    pub fn run_dag_observed(&self, req: &DagRequest, obs: &mut dyn FnMut(TuneEvent)) -> DagOutcome {
        let t0 = Instant::now();
        let fail = |e: Rejection| DagOutcome {
            request: req.clone(),
            status: DagStatus::Failed {
                class: e.class,
                reason: e.reason,
            },
        };
        if let Err(e) = admit_dag(req) {
            return fail(e);
        }
        // The whole DAG runs under the env lock: fused plans, tuned
        // singles and the pair cache live inside the env, and a DAG is
        // dispatched as one indivisible unit.
        let mut guard = self.dag_env().lock().expect("unpoisoned dag env");
        let env = guard.get_or_insert_with(|| {
            FuseEnv::new(self.engine(), self.device().clone(), ResolveMode::Tuned)
        });
        let cache_hit = {
            let key = (req.shape(), req.n);
            let mut plans = self.dag_plans().lock().expect("unpoisoned dag plans");
            let hit = plans.get(&key).is_some();
            if !hit {
                plans.insert(key, ());
            }
            hit
        };
        match env.run_dag_observed(&req.nodes, req.n, req.seed, req.fuse, obs) {
            Ok(run) => DagOutcome {
                request: req.clone(),
                status: DagStatus::Ok(DagOk {
                    digest: run.digest,
                    sinks: run.sinks,
                    fused: run
                        .fused
                        .into_iter()
                        .map(|(p, c, k)| (p, c, k.to_string()))
                        .collect(),
                    rejected: run.rejects,
                    units: run.units,
                    cache_hit,
                    gmem_bytes: run.gmem_bytes,
                    model_gflops: run.gflops,
                    ms: t0.elapsed().as_secs_f64() * 1e3,
                }),
            },
            Err(reason) => fail(reject("exec", reason)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_gpusim::{DeviceSpec, ExecEngine};

    fn parse(line: &str) -> Result<DagRequest, Rejection> {
        let doc = oa_autotune::json::parse(line).expect("valid JSON");
        DagRequest::from_json(&doc)
    }

    const CHAIN: &str = r#"{"dag": [
        {"id": "mm", "routine": "GEMM-NN", "a": "A", "b": "B", "c": "C"},
        {"id": "sum", "routine": "ADD", "a": "@mm", "b": "E"}], "n": 64, "seed": 7}"#;

    #[test]
    fn parses_chain_and_round_trips() {
        let req = parse(CHAIN).unwrap();
        assert_eq!(req.nodes.len(), 2);
        assert_eq!(req.nodes[1].a, Operand::Node(0));
        assert_eq!(req.shape(), "GEMM-NN(A,B,C);ADD(@0,E)");
        assert!(req.fuse);
        let again = DagRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(again, req);
    }

    #[test]
    fn syrk_sugar_expands_to_symmetric_rank_update() {
        let req = parse(
            r#"{"dag": [{"id": "rk", "routine": "SYRK", "a": "F", "c": "S"},
                {"id": "tri", "routine": "TRSM-LL-N", "a": "L", "b": "@rk"}], "n": 64}"#,
        )
        .unwrap();
        assert_eq!(req.nodes[0].routine, RoutineId::Gemm(Trans::N, Trans::T));
        assert_eq!(req.nodes[0].a, req.nodes[0].b);
        assert!(req.nodes[0].is_syrk());
    }

    #[test]
    fn unknown_reference_rejects_as_dag_ref() {
        let err =
            parse(r#"{"dag": [{"id": "sum", "routine": "ADD", "a": "@nope", "b": "E"}], "n": 64}"#)
                .unwrap_err();
        assert_eq!(err.class, "admission/dag-ref");
        assert!(err.reason.contains("@nope"), "{}", err.reason);
    }

    #[test]
    fn self_and_forward_references_reject_as_dag_cycle() {
        let selfref =
            parse(r#"{"dag": [{"id": "x", "routine": "ADD", "a": "@x", "b": "E"}], "n": 64}"#)
                .unwrap_err();
        assert_eq!(selfref.class, "admission/dag-cycle");
        let forward = parse(
            r#"{"dag": [{"id": "x", "routine": "ADD", "a": "@y", "b": "E"},
                {"id": "y", "routine": "ADD", "a": "X", "b": "E"}], "n": 64}"#,
        )
        .unwrap_err();
        assert_eq!(forward.class, "admission/dag-cycle");
        assert!(forward.reason.contains("backward"), "{}", forward.reason);
    }

    #[test]
    fn structural_violations_reject_as_dag() {
        for (line, what) in [
            (r#"{"dag": [], "n": 64}"#, "empty"),
            (r#"{"dag": "x", "n": 64}"#, "non-array"),
            (
                r#"{"dag": [{"id": "a", "routine": "ADD"}, {"id": "a", "routine": "ADD"}]}"#,
                "duplicate id",
            ),
            (r#"{"dag": [{"routine": "ADD"}]}"#, "missing id"),
            (
                r#"{"dag": [{"id": "a", "routine": "NOPE"}]}"#,
                "bad routine",
            ),
            (
                r#"{"dag": [{"id": "a", "routine": "TRSM-LL-N", "c": "C"}]}"#,
                "c on a solver",
            ),
            (
                r#"{"dag": [{"id": "a", "routine": "SYRK", "a": "F", "b": "G"}]}"#,
                "explicit b on SYRK",
            ),
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(err.class, "admission/dag", "{what}: {}", err.reason);
        }
        let mut many = String::from(r#"{"dag": ["#);
        for i in 0..=MAX_DAG_NODES {
            if i > 0 {
                many.push(',');
            }
            many.push_str(&format!(r#"{{"id": "n{i}", "routine": "ADD"}}"#));
        }
        many.push_str("]}");
        assert_eq!(parse(&many).unwrap_err().class, "admission/dag");
    }

    #[test]
    fn solver_size_constraint_applies_to_intermediates() {
        let req = parse(
            r#"{"dag": [{"id": "rk", "routine": "SYRK", "a": "F", "c": "S"},
                {"id": "tri", "routine": "TRSM-LL-N", "a": "L", "b": "@rk"}], "n": 96}"#,
        )
        .unwrap();
        let err = admit_dag(&req).unwrap_err();
        assert_eq!(err.class, "admission/size-constraint");
        assert!(err.reason.contains("`tri`"), "{}", err.reason);
        assert!(admit_dag(&parse(CHAIN).unwrap()).is_ok());
    }

    #[test]
    fn registry_runs_chain_fused_with_plan_cache_provenance() {
        let registry = Registry::new(DeviceSpec::gtx285()).with_engine(ExecEngine::Bytecode);
        let req = parse(CHAIN).unwrap();
        let first = registry.run_dag(&req);
        let ok = match &first.status {
            DagStatus::Ok(ok) => ok.clone(),
            DagStatus::Failed { class, reason } => panic!("{class}: {reason}"),
        };
        assert_eq!(ok.units, 1, "epilogue chain is one fused unit");
        assert_eq!(ok.fused.len(), 1);
        assert!(!ok.cache_hit);
        assert!(ok.gmem_bytes.is_some());

        // Same shape again: warm plan, identical digest.
        let second = registry.run_dag(&req);
        match &second.status {
            DagStatus::Ok(ok2) => {
                assert!(ok2.cache_hit);
                assert_eq!(ok2.digest, ok.digest);
            }
            DagStatus::Failed { class, reason } => panic!("{class}: {reason}"),
        }

        // The sequenced plan matches bit for bit and moves strictly more
        // global memory — the fusion contract, end to end through the
        // registry.
        let mut unfused = req.clone();
        unfused.fuse = false;
        match registry.run_dag(&unfused).status {
            DagStatus::Ok(plain) => {
                assert_eq!(plain.digest, ok.digest, "fusion changed bits");
                assert_eq!(plain.units, 2);
                assert!(
                    plain.gmem_bytes.unwrap() > ok.gmem_bytes.unwrap(),
                    "fused traffic {} !< unfused {}",
                    ok.gmem_bytes.unwrap(),
                    plain.gmem_bytes.unwrap()
                );
            }
            DagStatus::Failed { class, reason } => panic!("{class}: {reason}"),
        }
    }

    #[test]
    fn dag_outcome_json_carries_fusion_decisions() {
        let registry = Registry::new(DeviceSpec::gtx285()).with_engine(ExecEngine::Bytecode);
        let req = parse(CHAIN).unwrap();
        let line = registry.run_dag(&req).to_json(3).compact();
        for needle in [
            "\"status\":\"ok\"",
            "\"dag\":\"GEMM-NN(A,B,C);ADD(@0,E)\"",
            "\"kind\":\"epilogue\"",
            "\"units\":1",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        let rejected = registry.run_dag(&DagRequest {
            n: 97,
            ..parse(
                r#"{"dag": [{"id": "rk", "routine": "SYRK", "a": "F"},
                    {"id": "tri", "routine": "TRSM-LL-N", "a": "L", "b": "@rk"}]}"#,
            )
            .unwrap()
        });
        let line = rejected.to_json(4).compact();
        assert!(
            line.contains("\"class\":\"admission/size-constraint\""),
            "{line}"
        );
    }
}
