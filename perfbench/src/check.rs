//! The output check: every response the server sends in a run is checked.
//!
//! * a response whose status is not `ok` is a failed operation;
//! * a repeated `(kind, seed)` must give the identical digest;
//! * one seeded request per `(routine, n)` is recomputed in process
//!   through the same registry and tuning cache — its digest must equal
//!   the served one — and the served program is checked against the CPU
//!   reference (`verify_against_reference`) within the tier-1 tolerance;
//! * every distinct `(DAG, seed)` is re-run unfused
//!   (`FuseEnv::run_dag(.., fuse = false)`) and each sink digest must
//!   equal the served one.

use crate::library::dag_request;
use crate::spec::{routine_id, Kind, Workload};
use crate::stream::Unit;
use oa_core::autotune::json::{self, Json};
use oa_core::autotune::{FuseEnv, ResolveMode};
use oa_core::blas3::verify::verify_against_reference;
use oa_core::dispatch::{Registry, Request, RequestStatus};
use oa_core::gpusim::DeviceSpec;
use oa_core::RoutineId;
use std::collections::BTreeMap;
use std::path::Path;

/// The tier-1 tolerance against the CPU reference.
pub fn tolerance(r: RoutineId) -> f32 {
    match r {
        RoutineId::Trsm(..) => 5e-2,
        _ => 5e-3,
    }
}

/// The served result of a response: the digest of a single request, or
/// the sorted `id=digest` sink list of a DAG.
pub fn served_digest(resp: &Json) -> Option<String> {
    if let Some(Json::Obj(sinks)) = resp.get("sinks") {
        let parts: Vec<String> = sinks
            .iter()
            .map(|(id, d)| format!("{id}={}", d.as_str().unwrap_or("?")))
            .collect();
        return Some(parts.join(";"));
    }
    resp.get("digest")
        .and_then(Json::as_str)
        .map(str::to_string)
}

/// Accumulates every response of a run and the failures found in them.
pub struct Checker<'w> {
    w: &'w Workload,
    /// Served digest per `(kind, seed)`.
    digests: BTreeMap<(usize, u64), String>,
    /// Responses checked.
    pub responses: usize,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl<'w> Checker<'w> {
    /// An empty checker for workload `w`.
    pub fn new(w: &'w Workload) -> Checker<'w> {
        Checker {
            w,
            digests: BTreeMap::new(),
            responses: 0,
            failures: Vec::new(),
        }
    }

    /// Check one response to `unit`.
    pub fn observe(&mut self, unit: &Unit, resp: &Json) {
        self.responses += 1;
        let label = self.w.kinds[unit.kind].label();
        if resp.get("status").and_then(Json::as_str) != Some("ok") {
            self.failures
                .push(format!("{label} seed {}: {}", unit.seed, resp.compact()));
            return;
        }
        let Some(digest) = served_digest(resp) else {
            self.failures.push(format!(
                "{label} seed {}: response has no digest",
                unit.seed
            ));
            return;
        };
        match self.digests.get(&(unit.kind, unit.seed)) {
            Some(prev) if *prev != digest => self.failures.push(format!(
                "{label} seed {}: digest {digest} differs from the earlier {prev}",
                unit.seed
            )),
            Some(_) => {}
            None => {
                self.digests.insert((unit.kind, unit.seed), digest);
            }
        }
    }

    /// Recompute the reference results through `cache` and compare.
    /// Returns the number of reference comparisons made.
    pub fn verify(&mut self, cache: &Path) -> usize {
        let expected = self.expected(cache);
        let found = self.compare(&expected);
        self.failures.extend(found);
        expected.len()
    }

    /// One failure line per recomputed result the served one differs from.
    fn compare(&self, expected: &BTreeMap<(usize, u64), Result<String, String>>) -> Vec<String> {
        let mut out = Vec::new();
        for (key, want) in expected {
            let label = self.w.kinds[key.0].label();
            match (want, self.digests.get(key)) {
                (Err(e), _) => out.push(format!("{label} seed {}: {e}", key.1)),
                (Ok(want), Some(got)) if want != got => out.push(format!(
                    "{label} seed {}: served {got}, recomputed {want}",
                    key.1
                )),
                _ => {}
            }
        }
        out
    }

    /// The recomputed digest of one seeded request per single kind and of
    /// every distinct DAG `(kind, seed)`.
    fn expected(&self, cache: &Path) -> BTreeMap<(usize, u64), Result<String, String>> {
        let device = DeviceSpec::gtx285();
        let registry = Registry::new(device.clone()).with_tune_cache(cache.to_path_buf());
        let mut env = FuseEnv::new(registry.engine(), device, ResolveMode::Fast);
        let mut out = BTreeMap::new();
        let mut singles_done = std::collections::BTreeSet::new();
        for &(kind, seed) in self.digests.keys() {
            match &self.w.kinds[kind] {
                Kind::Single { routine, n } => {
                    if singles_done.insert(kind) {
                        out.insert((kind, seed), expected_single(&registry, routine, *n, seed));
                    }
                }
                dag @ Kind::Dag { .. } => {
                    out.insert((kind, seed), expected_dag(&mut env, dag, seed));
                }
            }
        }
        out
    }
}

fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// The in-process digest of a single request, after checking the served
/// program against the CPU reference.
fn expected_single(
    registry: &Registry,
    routine: &str,
    n: i64,
    seed: u64,
) -> Result<String, String> {
    let r = routine_id(routine);
    let entry = registry.resolve(r, n)?;
    let src = oa_core::blas3::routines::source(r);
    let program = oa_core::epod::translator::apply_lenient(&src, &entry.script, entry.params)
        .map_err(|e| format!("translate: {e}"))?
        .program;
    let rep = verify_against_reference(r, &program, n, seed, true)
        .map_err(|e| format!("reference run: {e}"))?;
    if rep.max_abs_diff.is_nan() || rep.max_abs_diff >= tolerance(r) {
        return Err(format!(
            "output {} off the CPU reference by {} (tolerance {})",
            rep.output,
            rep.max_abs_diff,
            tolerance(r)
        ));
    }
    let mut req = Request::new(r, n);
    req.seed = seed;
    match registry.run_one(&req).status {
        RequestStatus::Ok(ok) => Ok(hex(ok.digest)),
        RequestStatus::Failed { class, reason } => {
            Err(format!("in-process run failed: {class}: {reason}"))
        }
    }
}

/// The sink digests of a DAG run unfused.
fn expected_dag(env: &mut FuseEnv, kind: &Kind, seed: u64) -> Result<String, String> {
    let req = dag_request(kind, seed);
    let run = env.run_dag(&req.nodes, req.n, seed, false)?;
    let parts: Vec<String> = run
        .sinks
        .iter()
        .map(|(id, d)| format!("{id}={}", hex(*d)))
        .collect();
    Ok(parts.join(";"))
}

/// Show that the check catches a flipped digest: a repeated `(kind,
/// seed)` whose digest differs in one bit must fail, and so must a served
/// DAG sink that differs from its unfused recomputation.
pub fn self_test(w: &Workload) -> Result<(), String> {
    let unit = Unit {
        kind: 0,
        seed: 1,
        tenant: 0,
    };
    let ok =
        |d: &str| json::parse(&format!(r#"{{"status":"ok","digest":"{d}"}}"#)).expect("valid JSON");
    let mut c = Checker::new(w);
    c.observe(&unit, &ok("00000000000000a1"));
    c.observe(&unit, &ok("00000000000000a1"));
    if !c.failures.is_empty() {
        return Err("identical repeats were flagged".into());
    }
    c.observe(&unit, &ok("00000000000000a0"));
    if c.failures.len() != 1 {
        return Err("a flipped digest bit was not caught".into());
    }
    let dag =
        json::parse(r#"{"status":"ok","sinks":{"sum":"00000000000000a1"}}"#).expect("valid JSON");
    let mut c = Checker::new(w);
    c.observe(&unit, &dag);
    let recomputed = |d: &str| BTreeMap::from([((unit.kind, unit.seed), Ok(format!("sum={d}")))]);
    if !c.compare(&recomputed("00000000000000a1")).is_empty() {
        return Err("a matching DAG sink digest was flagged".into());
    }
    if c.compare(&recomputed("00000000000000a0")).len() != 1 {
        return Err("a flipped DAG sink digest was not caught".into());
    }
    let failed =
        json::parse(r#"{"status":"error","class":"exec","reason":"x"}"#).expect("valid JSON");
    let mut c = Checker::new(w);
    c.observe(&unit, &failed);
    if c.failures.len() != 1 {
        return Err("an error response was not counted as failed".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    #[test]
    fn the_self_test_passes() {
        let w = workload("serve_small").unwrap();
        self_test(&w).unwrap();
    }

    #[test]
    fn a_flipped_digest_fails_the_reference_comparison() {
        // End to end on a real kind: the served digest of GEMM-NN@16 is
        // recomputed in process; flipping one bit must be reported.
        let w = workload("serve_small").unwrap();
        let dir = std::env::temp_dir().join(format!("perfbench-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("tune_cache.json");
        let kind = w
            .kinds
            .iter()
            .position(|k| k.label() == "GEMM-NN@16")
            .unwrap();
        let unit = Unit {
            kind,
            seed: 9,
            tenant: 0,
        };
        let registry = Registry::new(DeviceSpec::gtx285()).with_tune_cache(cache.clone());
        let good = expected_single(&registry, "GEMM-NN", 16, 9).unwrap();
        let resp = |d: &str| json::parse(&format!(r#"{{"status":"ok","digest":"{d}"}}"#)).unwrap();

        let mut c = Checker::new(&w);
        c.observe(&unit, &resp(&good));
        assert_eq!(c.verify(&cache), 1);
        assert!(c.failures.is_empty(), "{:?}", c.failures);

        let flipped = format!("{:016x}", u64::from_str_radix(&good, 16).unwrap() ^ 1);
        let mut c = Checker::new(&w);
        c.observe(&unit, &resp(&flipped));
        c.verify(&cache);
        assert_eq!(c.failures.len(), 1, "{:?}", c.failures);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
