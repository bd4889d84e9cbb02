//! The fusion chain-test battery: expression-DAG plans, fused vs.
//! sequenced, differentially proven bit-identical on all three engines.
//!
//! The fusion pass splices a consumer's loop nest into its producer so
//! the intermediate never round-trips through global memory.  That is a
//! rewrite of executable code, so the only honest proof is differential:
//! for every chain the battery runs the **fused** plan and the
//! **sequenced** plan (fusion disabled) through the tree-walking oracle,
//! the linear bytecode and the native-SIMD tier, and
//! demands one digest — bit for bit, engine for engine, plan for plan.
//!
//! The battery also proves itself: a mutation that silently reverses the
//! prologue splice's k-tile chain (a floating-point association change,
//! exactly the class of bug a lenient comparison would wave through)
//! must be *caught* as a digest divergence.  And planning must be a
//! function of the DAG, not of node order: legality decisions are
//! checked stable under random valid permutations of independent nodes.

use oa_core::autotune::fuse::{
    plan_dag, DagNode, FuseEnv, Operand, PlanUnit, ResolveMode, REASON_CONSUMER_SHAPE,
};
use oa_core::gpusim::ExecEngine;
use oa_core::{DagRequest, DeviceSpec};

fn parse(line: &str) -> DagRequest {
    let doc = oa_core::autotune::json::parse(line).expect("valid JSON");
    DagRequest::from_json(&doc).unwrap_or_else(|e| panic!("{}: {}", e.class, e.reason))
}

fn env(engine: ExecEngine) -> FuseEnv {
    FuseEnv::new(engine, DeviceSpec::gtx285(), ResolveMode::Fast)
}

/// Run one DAG fused and sequenced on every engine; assert one digest
/// everywhere and return it together with the fused run's edge count.
fn differential(req: &DagRequest, want_fused_edges: usize) -> u64 {
    let mut digests: Vec<u64> = Vec::new();
    for engine in ExecEngine::ALL {
        let mut env = env(engine);
        let fused = env
            .run_dag(&req.nodes, req.n, req.seed, true)
            .unwrap_or_else(|e| panic!("{engine:?} fused: {e}"));
        let sequenced = env
            .run_dag(&req.nodes, req.n, req.seed, false)
            .unwrap_or_else(|e| panic!("{engine:?} sequenced: {e}"));
        assert_eq!(
            fused.digest, sequenced.digest,
            "{engine:?}: fusion changed bits"
        );
        assert_eq!(
            fused.fused.len(),
            want_fused_edges,
            "{engine:?}: wrong fusion count: fused {:?} rejected {:?}",
            fused.fused,
            fused.rejects
        );
        assert_eq!(sequenced.fused.len(), 0, "{engine:?}: sequenced plan fused");
        // Sink-level agreement too, not just the combined fold.
        assert_eq!(fused.sinks, sequenced.sinks, "{engine:?}: sinks differ");
        digests.push(fused.digest);
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "engines disagree: {digests:x?}"
    );
    digests[0]
}

/// GEMM→ADD: the epilogue splice, the common BLAS3 chain shape.
#[test]
fn epilogue_chain_is_bit_identical_everywhere() {
    let req = parse(
        r#"{"dag": [{"id": "mm", "routine": "GEMM-NN", "a": "A", "b": "B", "c": "C"},
            {"id": "sum", "routine": "ADD", "a": "@mm", "b": "E"}], "n": 64, "seed": 7}"#,
    );
    differential(&req, 1);
}

/// SYRK→TRSM: the solver-prologue splice (rank update staged straight
/// into the solver's shared-memory prologue).
#[test]
fn solver_prologue_chain_is_bit_identical_everywhere() {
    let req = parse(
        r#"{"dag": [{"id": "rk", "routine": "SYRK", "a": "F", "c": "S"},
            {"id": "tri", "routine": "TRSM-LL-N", "a": "L", "b": "@rk"}], "n": 64, "seed": 11}"#,
    );
    differential(&req, 1);
}

/// Both chains in one DAG: two independent producer→consumer pairs must
/// both fuse, and the four-node result must still match the four-single
/// sequenced plan everywhere.
#[test]
fn mixed_chain_fuses_both_pairs() {
    let req = parse(
        r#"{"dag": [{"id": "mm", "routine": "GEMM-NN", "a": "A", "b": "B", "c": "C"},
            {"id": "sum", "routine": "ADD", "a": "@mm", "b": "E"},
            {"id": "rk", "routine": "SYRK", "a": "F", "c": "S"},
            {"id": "tri", "routine": "TRSM-LL-N", "a": "L", "b": "@rk"}], "n": 64, "seed": 3}"#,
    );
    differential(&req, 2);
}

/// The fallback path: a GEMM feeding a TRSM's *triangular* slot has no
/// fusion rule (`consumer-shape`), so the planner must demote to the
/// sequenced pair — and the demoted plan must still match the sequenced
/// run bit for bit on every engine.
#[test]
fn unfusable_chain_demotes_and_matches_everywhere() {
    let req = parse(
        r#"{"dag": [{"id": "mm", "routine": "GEMM-NN", "a": "A", "b": "B", "c": "C"},
            {"id": "tri", "routine": "TRSM-LL-N", "a": "@mm", "b": "R"}], "n": 64, "seed": 5}"#,
    );
    for engine in ExecEngine::ALL {
        let mut env = env(engine);
        let fused = env
            .run_dag(&req.nodes, req.n, req.seed, true)
            .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
        assert_eq!(fused.fused.len(), 0, "{engine:?}: fused an illegal edge");
        assert!(
            fused
                .rejects
                .iter()
                .any(|(p, c, r)| p == "mm" && c == "tri" && r == REASON_CONSUMER_SHAPE),
            "{engine:?}: demotion reason missing: {:?}",
            fused.rejects
        );
        let sequenced = env.run_dag(&req.nodes, req.n, req.seed, false).unwrap();
        assert_eq!(fused.digest, sequenced.digest, "{engine:?}");
    }
}

// --- order-stability property -----------------------------------------

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Remap a DAG to a new node order given `perm[new] = old`, rewriting
/// node references.  Panics if the permutation makes a reference point
/// forward (the caller only proposes valid ones).
fn permute(nodes: &[DagNode], perm: &[usize]) -> Vec<DagNode> {
    let mut new_of_old = vec![0usize; nodes.len()];
    for (newi, &old) in perm.iter().enumerate() {
        new_of_old[old] = newi;
    }
    perm.iter()
        .enumerate()
        .map(|(newi, &old)| {
            let remap = |op: &Operand| match op {
                Operand::Buf(b) => Operand::Buf(b.clone()),
                Operand::Node(i) => {
                    assert!(new_of_old[*i] < newi, "invalid permutation");
                    Operand::Node(new_of_old[*i])
                }
            };
            let nd = &nodes[old];
            DagNode {
                id: nd.id.clone(),
                routine: nd.routine,
                a: remap(&nd.a),
                b: remap(&nd.b),
                c: nd.c.as_ref().map(remap),
            }
        })
        .collect()
}

/// Fisher–Yates, then reject orders that would break backward references
/// (producers must stay before their consumers).
fn valid_permutation(nodes: &[DagNode], state: &mut u64) -> Vec<usize> {
    loop {
        let mut perm: Vec<usize> = (0..nodes.len()).collect();
        for i in (1..perm.len()).rev() {
            let j = (xorshift(state) % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let mut new_of_old = vec![0usize; nodes.len()];
        for (newi, &old) in perm.iter().enumerate() {
            new_of_old[old] = newi;
        }
        let ok = perm.iter().enumerate().all(|(newi, &old)| {
            nodes[old].reads().iter().all(|op| match op {
                Operand::Node(i) => new_of_old[*i] < newi,
                Operand::Buf(_) => true,
            })
        });
        if ok {
            return perm;
        }
    }
}

/// The planner's fuse/reject decisions are a function of the DAG's
/// edges, not of the declaration order of independent nodes: across
/// random valid permutations the same id-pairs fuse, the same id-pairs
/// reject for the same reasons, and execution produces the same sink
/// digests.
#[test]
fn fusion_legality_is_stable_under_node_permutation() {
    // Three independent chains — a fusable epilogue, a fusable prologue,
    // and an unfusable reference slot — plus a lone node, so
    // permutations genuinely interleave decisions of every kind.
    let req = parse(
        r#"{"dag": [{"id": "mm", "routine": "GEMM-NN", "a": "A", "b": "B", "c": "C"},
            {"id": "sum", "routine": "ADD", "a": "@mm", "b": "E"},
            {"id": "rk", "routine": "SYRK", "a": "F", "c": "S"},
            {"id": "tri", "routine": "TRSM-LL-N", "a": "L", "b": "@rk"},
            {"id": "mm2", "routine": "GEMM-NN", "a": "G", "b": "H", "c": "K"},
            {"id": "tri2", "routine": "TRSM-LL-N", "a": "@mm2", "b": "R"},
            {"id": "lone", "routine": "SYMM-LL", "a": "P", "b": "Q", "c": "W"}],
          "n": 64, "seed": 9}"#,
    );
    let decisions = |nodes: &[DagNode]| {
        let plan = plan_dag(nodes, true);
        let mut fused: Vec<(String, String)> = plan
            .units
            .iter()
            .filter_map(|u| match u {
                PlanUnit::Fused {
                    producer, consumer, ..
                } => Some((nodes[*producer].id.clone(), nodes[*consumer].id.clone())),
                PlanUnit::Single(_) => None,
            })
            .collect();
        fused.sort();
        let mut rejects: Vec<(String, String, String)> = plan
            .rejects
            .iter()
            .map(|r| {
                (
                    nodes[r.producer].id.clone(),
                    nodes[r.consumer].id.clone(),
                    r.reason.clone(),
                )
            })
            .collect();
        rejects.sort();
        (fused, rejects)
    };
    let baseline = decisions(&req.nodes);
    assert_eq!(
        baseline.0,
        vec![
            ("mm".to_string(), "sum".to_string()),
            ("rk".to_string(), "tri".to_string())
        ]
    );
    let mut base_env = env(ExecEngine::Bytecode);
    let base_run = base_env.run_dag(&req.nodes, req.n, req.seed, true).unwrap();

    let mut state = 0x5EED_CAFE_u64;
    for round in 0..12 {
        let perm = valid_permutation(&req.nodes, &mut state);
        let shuffled = permute(&req.nodes, &perm);
        assert_eq!(
            decisions(&shuffled),
            baseline,
            "round {round}: plan changed under permutation {perm:?}"
        );
        let run = base_env
            .run_dag(&shuffled, req.n, req.seed, true)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        // Sink digests are per-id and sorted, so they compare directly
        // across orderings.
        assert_eq!(
            run.sinks, base_run.sinks,
            "round {round}: results changed under permutation {perm:?}"
        );
    }
}

// --- mutation: the battery catches a broken splice --------------------

/// Prove the battery is not vacuous: reversing the prologue splice's
/// k-tile accumulation chain changes floating-point association but no
/// shapes, no legality, no launch — only bits.  The differential must
/// catch exactly that.
#[test]
fn reversed_k_chain_mutation_is_caught_by_digests() {
    let req = parse(
        r#"{"dag": [{"id": "rk", "routine": "SYRK", "a": "F", "c": "S"},
            {"id": "tri", "routine": "TRSM-LL-N", "a": "L", "b": "@rk"}], "n": 64, "seed": 11}"#,
    );
    let mut clean = env(ExecEngine::Bytecode);
    let good = clean.run_dag(&req.nodes, req.n, req.seed, true).unwrap();
    assert_eq!(good.fused.len(), 1);

    let mut broken = env(ExecEngine::Bytecode);
    broken.hazard_reverse_k = true;
    let bad = broken.run_dag(&req.nodes, req.n, req.seed, true).unwrap();
    assert_eq!(bad.fused.len(), 1, "mutation must not change legality");
    assert_ne!(
        good.digest, bad.digest,
        "a reversed accumulation chain must be caught as a digest divergence"
    );
    // The sequenced plan does not take the spliced path, so the hazard
    // must not leak into it.
    let seq = broken.run_dag(&req.nodes, req.n, req.seed, false).unwrap();
    assert_eq!(
        seq.digest, good.digest,
        "hazard leaked into the sequenced plan"
    );
}
