//! Fusion benchmark: expression-DAG chains, fused vs. sequenced.
//!
//! Runs the two canonical producer→consumer chains through the registry's
//! DAG path twice each — once with the fusion planner on (`fuse: true`)
//! and once forced to the sequenced plan — and reports modeled
//! global-memory traffic and model GFLOPS for both:
//!
//! * `GEMM→ADD` — the epilogue splice: the GEMM result is consumed
//!   in-register by the elementwise add, so the intermediate product
//!   never round-trips through global memory;
//! * `SYRK→TRSM` — the solver-prologue splice: the rank-update tile is
//!   staged into the solver's shared-memory prologue directly.
//!
//! Honesty first: before any numbers are reported, each chain's fused
//! digest is checked **bit for bit** against the sequenced digest on all
//! three execution engines (oracle, bytecode, native).  A fusion
//! pass that changes results is disqualified, not benchmarked.
//!
//! Writes `BENCH_fuse.json` and enforces a committed traffic-reduction
//! floor (`results/fuse_floor.json`): the smallest reduction of
//! global-memory traffic across **fused** rows must not regress below
//! the floor minus 10% slack.  Rows the planner demotes as
//! `unprofitable` (past the prologue splice's crossover size, on-the-fly
//! recomputation re-reads swallow the round-trip saving) are reported
//! with their reject reason and must match the sequenced plan exactly —
//! the gate itself is under test.  `--quick` (alias `--smoke`) trims
//! sizes for CI smoke runs.

use oa_core::autotune::json::Json;
use oa_core::dispatch::Registry;
use oa_core::gpusim::ExecEngine;
use oa_core::{DagRequest, DagStatus, DeviceSpec};
use std::collections::BTreeMap;

fn chain_gemm_add(n: i64) -> DagRequest {
    let line = format!(
        r#"{{"dag": [{{"id": "mm", "routine": "GEMM-NN", "a": "A", "b": "B", "c": "C"}},
            {{"id": "sum", "routine": "ADD", "a": "@mm", "b": "E"}}], "n": {n}, "seed": 7}}"#
    );
    parse_req(&line)
}

fn chain_syrk_trsm(n: i64) -> DagRequest {
    let line = format!(
        r#"{{"dag": [{{"id": "rk", "routine": "SYRK", "a": "F", "c": "S"}},
            {{"id": "tri", "routine": "TRSM-LL-N", "a": "L", "b": "@rk"}}], "n": {n}, "seed": 7}}"#
    );
    parse_req(&line)
}

fn parse_req(line: &str) -> DagRequest {
    let doc = oa_core::autotune::json::parse(line).expect("valid JSON");
    DagRequest::from_json(&doc).unwrap_or_else(|e| panic!("{}: {}", e.class, e.reason))
}

struct Run {
    digest: u64,
    units: usize,
    fused_edges: usize,
    rejects: Vec<(String, String, String)>,
    gmem_bytes: f64,
    gflops: f64,
    ms: f64,
}

fn run(registry: &Registry, req: &DagRequest) -> Run {
    match registry.run_dag(req).status {
        DagStatus::Ok(ok) => Run {
            digest: ok.digest,
            units: ok.units,
            fused_edges: ok.fused.len(),
            rejects: ok.rejected,
            gmem_bytes: ok.gmem_bytes.expect("modeled traffic"),
            gflops: ok.model_gflops.expect("modeled GFLOPS"),
            ms: ok.ms,
        },
        DagStatus::Failed { class, reason } => {
            panic!("{} n={}: {class}: {reason}", req.shape(), req.n)
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--smoke");
    let dev = DeviceSpec::gtx285();
    // Solver chains need 64-multiples (the TRSM column tile); the shared
    // size list keeps the table comparable across chains.
    let sizes: &[i64] = if quick { &[64] } else { &[64, 128, 256] };

    type ChainBuilder = fn(i64) -> DagRequest;
    let chains: Vec<(&str, ChainBuilder)> = vec![
        ("GEMM->ADD", chain_gemm_add),
        ("SYRK->TRSM", chain_syrk_trsm),
    ];

    // Differential gate: fused and sequenced digests must agree on every
    // engine, and every engine must agree with every other.
    println!("cross-engine differential (fused vs sequenced, bit for bit):");
    for (label, mk) in &chains {
        let req = mk(sizes[0]);
        let mut unfused = req.clone();
        unfused.fuse = false;
        let mut digests = Vec::new();
        for engine in ExecEngine::ALL {
            let registry = Registry::new(dev.clone()).with_engine(engine);
            let f = run(&registry, &req);
            let s = run(&registry, &unfused);
            assert_eq!(
                f.digest, s.digest,
                "{label} n={} on {engine:?}: fusion changed bits",
                req.n
            );
            assert!(f.fused_edges >= 1, "{label} did not fuse on {engine:?}");
            digests.push(f.digest);
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "{label}: engines disagree: {digests:x?}"
        );
        println!(
            "  {label:<12} n={:<4} {:016x} on every engine",
            req.n, digests[0]
        );
    }

    // Traffic/GFLOPS table on one engine (the modeled numbers are
    // engine-invariant; bytecode keeps the wall clock small).
    let registry = Registry::new(dev).with_engine(ExecEngine::Bytecode);
    println!(
        "\n{:<12} {:>5} {:>6} {:>15} {:>15} {:>9} {:>10} {:>10}",
        "chain", "n", "units", "fused gmem B", "seq gmem B", "traffic", "fused GF", "seq GF"
    );
    let mut rows = Vec::new();
    let mut min_reduction = f64::INFINITY;
    for (label, mk) in &chains {
        for &n in sizes {
            let req = mk(n);
            let mut unfused = req.clone();
            unfused.fuse = false;
            let f = run(&registry, &req);
            let s = run(&registry, &unfused);
            assert_eq!(f.digest, s.digest, "{label} n={n}: fusion changed bits");
            let demoted = f.fused_edges == 0;
            if demoted {
                // The profitability gate fired: the plan must BE the
                // sequenced plan, reason on record.
                assert_eq!(f.units, s.units, "{label} n={n}: demoted but not sequenced");
                assert_eq!(
                    f.gmem_bytes, s.gmem_bytes,
                    "{label} n={n}: demoted plan diverged"
                );
                assert!(
                    f.rejects.iter().any(|(_, _, r)| r == "unprofitable"),
                    "{label} n={n}: demoted without a recorded reason: {:?}",
                    f.rejects
                );
            } else {
                assert!(
                    f.gmem_bytes < s.gmem_bytes,
                    "{label} n={n}: fused traffic {} !< sequenced {}",
                    f.gmem_bytes,
                    s.gmem_bytes
                );
            }
            let ratio = f.gmem_bytes / s.gmem_bytes;
            if !demoted {
                min_reduction = min_reduction.min(1.0 - ratio);
            }
            println!(
                "{label:<12} {n:>5} {:>3}<-{:<2} {:>15.0} {:>15.0} {:>8.1}% {:>10.1} {:>10.1}{}",
                f.units,
                s.units,
                f.gmem_bytes,
                s.gmem_bytes,
                ratio * 100.0,
                f.gflops,
                s.gflops,
                if demoted {
                    "  (demoted: unprofitable)"
                } else {
                    ""
                }
            );
            rows.push(Json::Obj(BTreeMap::from([
                ("chain".to_string(), Json::Str(label.to_string())),
                ("shape".to_string(), Json::Str(req.shape())),
                ("n".to_string(), Json::Num(n as f64)),
                ("fused_units".to_string(), Json::Int(f.units as i64)),
                ("sequenced_units".to_string(), Json::Int(s.units as i64)),
                ("fused_edges".to_string(), Json::Int(f.fused_edges as i64)),
                ("fused_gmem_bytes".to_string(), Json::Num(f.gmem_bytes)),
                ("sequenced_gmem_bytes".to_string(), Json::Num(s.gmem_bytes)),
                ("traffic_ratio".to_string(), Json::Num(ratio)),
                ("fused_model_gflops".to_string(), Json::Num(f.gflops)),
                ("sequenced_model_gflops".to_string(), Json::Num(s.gflops)),
                ("fused_ms".to_string(), Json::Num(f.ms)),
                ("sequenced_ms".to_string(), Json::Num(s.ms)),
                ("demoted".to_string(), Json::Bool(demoted)),
                (
                    "digest".to_string(),
                    Json::Str(format!("{:016x}", f.digest)),
                ),
            ])));
        }
    }
    println!(
        "\nsmallest traffic reduction: {:.1}%",
        min_reduction * 100.0
    );

    let doc = Json::Obj(BTreeMap::from([
        (
            "note".to_string(),
            Json::Str(
                "expression-DAG fusion: modeled global-memory traffic and model GFLOPS, \
                 fused plan vs sequenced plan; digests checked bit-identical across all \
                 four execution engines before any number is reported"
                    .to_string(),
            ),
        ),
        (
            "min_traffic_reduction".to_string(),
            Json::Num(min_reduction),
        ),
        ("measurements".to_string(), Json::Arr(rows)),
    ]));
    std::fs::write("BENCH_fuse.json", doc.pretty() + "\n").expect("write BENCH_fuse.json");
    println!("wrote BENCH_fuse.json");

    // Floor: the committed minimum traffic reduction minus 10% slack.
    let key = if quick { "smoke" } else { "full" };
    match std::fs::read_to_string("results/fuse_floor.json") {
        Ok(text) => {
            let floor = oa_core::autotune::json::parse(&text)
                .and_then(|d| d.get(key).and_then(Json::as_f64))
                .unwrap_or_else(|| panic!("results/fuse_floor.json lacks a `{key}` number"));
            let min = floor * 0.9;
            if min_reduction < min {
                eprintln!(
                    "FAIL: min traffic reduction {:.3} regressed below the committed \
                     `{key}` floor {floor:.3} - 10% = {min:.3}",
                    min_reduction
                );
                std::process::exit(1);
            }
            println!(
                "min traffic reduction {:.3} >= `{key}` floor {floor:.3} - 10%",
                min_reduction
            );
        }
        Err(_) => println!("no results/fuse_floor.json here; floor check skipped"),
    }
}
