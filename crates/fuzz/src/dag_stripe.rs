//! DAG stripe: differential check of the fusion pass.
//!
//! Every [`DAG_STRIPE_PERIOD`]-th fuzz case additionally runs one
//! generated expression DAG ([`crate::gen::DagGen`]) through the fusion
//! runner twice per engine — once with the planner free to fuse and once
//! forced to the sequenced plan — and demands bit-identical sink
//! digests: fused vs. sequenced on each engine, and engine vs. engine
//! for the fused plan.  When a DAG cannot run at all (an off-tile solver
//! size, a blow-up in a generated shape) every plan on every engine must
//! fail with one identical error; a split — one side runs, the other
//! rejects, or two different error texts — is a divergence like any
//! other, shrunk (fewest nodes, then smallest size) and written out as a
//! `.dag` repro whose single line is a replayable `oa serve` request.
//!
//! Resolution uses [`ResolveMode::Fast`] (first launchable variant, no
//! tuning) so the stripe's cost is execution, not search; the per-engine
//! [`FuseEnv`]s memoize resolved plans across the whole run.

use std::collections::BTreeSet;

use oa_autotune::fuse::{FuseEnv, ResolveMode};
use oa_gpusim::{DeviceSpec, ExecEngine};

use crate::diff::{Divergence, Verdict};
use crate::gen::{DagCase, DAG_SIZES};

/// Which fuzz iterations run the DAG stripe (every 3rd).
pub const DAG_STRIPE_PERIOD: usize = 3;

/// Per-run state: one memoizing fusion environment per engine.
pub struct DagStripe {
    envs: Vec<(ExecEngine, FuseEnv)>,
}

impl Default for DagStripe {
    fn default() -> Self {
        Self::new()
    }
}

impl DagStripe {
    /// A stripe over all three engines on the reference device.
    pub fn new() -> DagStripe {
        DagStripe {
            envs: ExecEngine::ALL
                .iter()
                .map(|&e| (e, FuseEnv::new(e, DeviceSpec::gtx285(), ResolveMode::Fast)))
                .collect(),
        }
    }

    /// Cross-check one DAG case.  Returns the verdict plus coverage
    /// features (fusion kinds seen, reject reasons seen, node count).
    pub fn check(&mut self, case: &DagCase) -> (Verdict, BTreeSet<String>) {
        let mut features = BTreeSet::new();
        features.insert(format!("dag:nodes:{}", case.nodes.len()));
        // (engine, fused digest) for the cross-engine pass; None engines
        // rejected (with the recorded error).
        let mut fused_digests: Vec<(ExecEngine, u64)> = Vec::new();
        let mut errors: Vec<(ExecEngine, String)> = Vec::new();
        for (engine, env) in &mut self.envs {
            let fused = env.run_dag(&case.nodes, case.n, case.seed, true);
            let sequenced = env.run_dag(&case.nodes, case.n, case.seed, false);
            match (fused, sequenced) {
                (Ok(f), Ok(s)) => {
                    if f.digest != s.digest {
                        return (
                            diverged(
                                case,
                                format!(
                                    "{engine:?}: fused digest {:#018x} != sequenced {:#018x} \
                                     (fused edges {:?})",
                                    f.digest, s.digest, f.fused
                                ),
                            ),
                            features,
                        );
                    }
                    for (_, _, kind) in &f.fused {
                        features.insert(format!("dag:fused:{kind}"));
                    }
                    for (_, _, reason) in &f.rejects {
                        features.insert(format!("dag:reject:{reason}"));
                    }
                    fused_digests.push((*engine, f.digest));
                }
                (Err(a), Err(b)) => {
                    if a != b {
                        return (
                            diverged(
                                case,
                                format!("{engine:?}: fused error {a:?} != sequenced error {b:?}"),
                            ),
                            features,
                        );
                    }
                    errors.push((*engine, a));
                }
                (Ok(f), Err(e)) => {
                    return (
                        diverged(
                            case,
                            format!(
                                "{engine:?}: fused ran ({:#018x}) where sequenced rejected: {e}",
                                f.digest
                            ),
                        ),
                        features,
                    );
                }
                (Err(e), Ok(s)) => {
                    return (
                        diverged(
                            case,
                            format!(
                                "{engine:?}: fused rejected ({e}) where sequenced ran \
                                 ({:#018x})",
                                s.digest
                            ),
                        ),
                        features,
                    );
                }
            }
        }
        // Engines must not split between running and rejecting, digests
        // must agree engine-for-engine, and rejections must share one
        // error text.
        if !fused_digests.is_empty() && !errors.is_empty() {
            let (re, rerr) = &errors[0];
            return (
                diverged(
                    case,
                    format!(
                        "engines split: {:?} ran, {re:?} rejected ({rerr})",
                        fused_digests.iter().map(|(e, _)| e).collect::<Vec<_>>()
                    ),
                ),
                features,
            );
        }
        if let Some(((e0, d0), rest)) = fused_digests.split_first() {
            for (e, d) in rest {
                if d != d0 {
                    return (
                        diverged(
                            case,
                            format!("{e:?} fused digest {d:#018x} != {e0:?} {d0:#018x}"),
                        ),
                        features,
                    );
                }
            }
            features.insert("dag:agree".into());
            (
                Verdict::Agree {
                    executed: 1,
                    rejected: 0,
                },
                features,
            )
        } else {
            if let Some(((_, err0), rest)) = errors.split_first() {
                for (e, err) in rest {
                    if err != err0 {
                        return (
                            diverged(case, format!("{e:?} error {err:?} != {err0:?}")),
                            features,
                        );
                    }
                }
            }
            features.insert("dag:error-agree".into());
            (
                Verdict::Agree {
                    executed: 0,
                    rejected: 1,
                },
                features,
            )
        }
    }

    /// Minimize a diverging DAG: drop sink nodes while the divergence
    /// survives, then shrink the size.
    pub fn shrink(&mut self, case: &DagCase) -> (DagCase, usize) {
        let mut best = case.clone();
        let mut steps = 0usize;
        // Node removal: a node nothing references can be dropped without
        // rewiring.  Retry from the front after every successful drop.
        loop {
            let mut dropped = false;
            for i in 0..best.nodes.len() {
                if best.nodes.len() <= 1 {
                    break;
                }
                let referenced = best.nodes.iter().any(|nd| {
                    nd.reads()
                        .iter()
                        .any(|op| matches!(op, oa_autotune::fuse::Operand::Node(j) if *j == i))
                });
                if referenced {
                    continue;
                }
                let mut candidate = best.clone();
                candidate.nodes.remove(i);
                // Re-index references past the removed node.
                for nd in &mut candidate.nodes {
                    for op in [&mut nd.a, &mut nd.b].into_iter().chain(nd.c.as_mut()) {
                        if let oa_autotune::fuse::Operand::Node(j) = op {
                            if *j > i {
                                *j -= 1;
                            }
                        }
                    }
                }
                if matches!(self.check(&candidate).0, Verdict::Divergence(_)) {
                    best = candidate;
                    steps += 1;
                    dropped = true;
                    break;
                }
            }
            if !dropped {
                break;
            }
        }
        for &n in DAG_SIZES {
            if n >= best.n {
                break;
            }
            let mut candidate = best.clone();
            candidate.n = n;
            if matches!(self.check(&candidate).0, Verdict::Divergence(_)) {
                best = candidate;
                steps += 1;
                break;
            }
        }
        (best, steps)
    }
}

fn diverged(case: &DagCase, detail: String) -> Verdict {
    Verdict::Divergence(Divergence {
        variant: 0,
        script: case.to_json_line(),
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::DagGen;
    use oa_autotune::fuse::{DagNode, Operand};
    use oa_blas3::types::{RoutineId, Side, Trans, Uplo};

    fn syrk_trsm(n: i64) -> DagCase {
        DagCase {
            nodes: vec![
                DagNode {
                    id: "rk".into(),
                    routine: RoutineId::Gemm(Trans::N, Trans::T),
                    a: Operand::Buf("F".into()),
                    b: Operand::Buf("F".into()),
                    c: Some(Operand::Buf("S".into())),
                },
                DagNode {
                    id: "tri".into(),
                    routine: RoutineId::Trsm(Side::Left, Uplo::Lower, Trans::N),
                    a: Operand::Buf("L".into()),
                    b: Operand::Node(0),
                    c: None,
                },
            ],
            n,
            seed: 11,
        }
    }

    #[test]
    fn generated_stream_agrees_and_covers_fusion_paths() {
        let mut gen = DagGen::new(0xF0);
        let mut stripe = DagStripe::new();
        let mut features = BTreeSet::new();
        for i in 0..40 {
            let case = gen.next_case();
            let (verdict, f) = stripe.check(&case);
            assert!(
                !matches!(verdict, Verdict::Divergence(_)),
                "iter {i}: {} diverged: {verdict:?}",
                case.id_line()
            );
            features.extend(f);
        }
        for want in [
            "dag:fused:epilogue",
            "dag:reject:multi-consumer",
            "dag:agree",
        ] {
            assert!(
                features.contains(want),
                "40 cases never hit {want}: {features:?}"
            );
        }
    }

    #[test]
    fn broken_splice_is_caught_and_shrunk() {
        // Mutation-test the stripe: reverse the prologue's k-tile chain
        // in every env.  Association changes, bits change, the stripe
        // must see it — and the shrunk repro must still diverge.
        let mut stripe = DagStripe::new();
        for (_, env) in &mut stripe.envs {
            env.hazard_reverse_k = true;
        }
        let case = syrk_trsm(64);
        let verdict = stripe.check(&case).0;
        let d = match verdict {
            Verdict::Divergence(d) => d,
            other => panic!("a reversed k-chain must diverge, got {other:?}"),
        };
        assert!(d.detail.contains("fused digest"), "{}", d.detail);
        let (minimal, _) = stripe.shrink(&case);
        assert!(minimal.nodes.len() <= case.nodes.len());
        assert!(
            matches!(stripe.check(&minimal).0, Verdict::Divergence(_)),
            "minimum must still diverge"
        );
    }

    #[test]
    fn off_tile_solver_size_rejects_identically_everywhere() {
        let mut stripe = DagStripe::new();
        let (verdict, features) = stripe.check(&syrk_trsm(48));
        assert!(
            matches!(verdict, Verdict::Agree { rejected: 1, .. }),
            "off-tile solver DAG must reject identically: {verdict:?}"
        );
        assert!(features.contains("dag:error-agree"), "{features:?}");
    }

    #[test]
    fn repro_lines_are_serve_requests() {
        let mut gen = DagGen::new(7);
        for _ in 0..10 {
            let case = gen.next_case();
            let line = case.to_json_line();
            let doc = oa_autotune::json::parse(&line)
                .unwrap_or_else(|| panic!("repro line not JSON: {line}"));
            assert!(doc.get("dag").is_some(), "{line}");
        }
    }
}
