//! The differential heart: run one [`Case`] through the composer and then
//! every surviving variant through all three engines plus the CPU
//! reference, demanding bit-identical agreement or identically-classified
//! rejection.

use std::collections::BTreeSet;

use oa_blas3::reference::run_reference;
use oa_blas3::routines::source;
use oa_blas3::schemes::oa_scheme;
use oa_blas3::types::RoutineId;
use oa_blas3::verify::prepare_buffers;
use oa_composer::compose_on;
use oa_epod::translator::TranslateError;
use oa_gpusim::{exec_all_engines, ExecEngine, NativeProgram};
use oa_loopir::interp::{Bindings, Buffers};

use crate::gen::{builtin_short_name, Case};

/// An injected engine bug, for mutation-testing the fuzzer itself: when
/// the final script of a variant contains `trigger_component`, the
/// designated engine's output is corrupted after execution — simulating a
/// miscompiling optimizer rule (e.g. a broken unrolled-loop rewrite in
/// the bytecode optimizer).  The fuzz loop must catch the resulting
/// divergence and shrink it to a minimal reproducer.
#[derive(Clone, Copy, Debug)]
pub struct InjectedFault {
    /// Which engine miscompiles.
    pub engine: ExecEngine,
    /// The script component whose presence triggers the bug.
    pub trigger_component: &'static str,
}

/// A confirmed cross-engine (or engine-vs-reference) disagreement.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the diverging composer variant.
    pub variant: usize,
    /// The final script of that variant.
    pub script: String,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

/// The outcome of one case.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The composer rejected the case outright (hard translate error).
    Rejected(String),
    /// The filter removed every mixed sequence; nothing to run.
    NoVariants,
    /// Every variant either executed bit-identically on all engines and
    /// matched the reference, or was rejected with one identical class by
    /// all engines.
    Agree {
        /// Variants that executed and matched.
        executed: usize,
        /// Variants rejected (identically) by all engines.
        rejected: usize,
    },
    /// Some variant disagreed — the fuzzer's find.
    Divergence(Divergence),
}

impl Verdict {
    /// Stable one-word kind for counters and fingerprints.
    pub fn kind(&self) -> &'static str {
        match self {
            Verdict::Rejected(_) => "rejected",
            Verdict::NoVariants => "no-variants",
            Verdict::Agree { .. } => "agree",
            Verdict::Divergence(_) => "divergence",
        }
    }
}

/// FNV-1a over every buffer, names sorted — a stable bit-exact digest of
/// an execution result.
pub fn digest(bufs: &Buffers) -> u64 {
    let mut names: Vec<&String> = bufs.keys().collect();
    names.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for name in names {
        for b in name.bytes() {
            eat(b);
        }
        let m = &bufs[name];
        for v in &m.data {
            for b in v.to_bits().to_le_bytes() {
                eat(b);
            }
        }
    }
    h
}

/// Tolerance for the engine-vs-reference comparison (the engines
/// themselves must agree bit-exactly; the CPU reference accumulates in a
/// different order).
fn reference_tol(r: RoutineId) -> f32 {
    match r {
        RoutineId::Trsm(..) => 5e-2, // substitution error compounds
        _ => 2e-3,
    }
}

/// Run one case end to end.  Returns the verdict plus the coverage
/// features the case lit up (component applications, error classes,
/// filter outcomes, engine paths).
pub fn run_case(case: &Case, fault: Option<&InjectedFault>) -> (Verdict, BTreeSet<String>) {
    let mut features = BTreeSet::new();
    let src = source(case.routine);
    let apps = case.applications();

    // Compose on the oracle: variant selection must not depend on the
    // engine under test (and a miscompiling engine must not be able to
    // hide a variant from its own cross-check).
    let (variants, stats) =
        match compose_on(ExecEngine::Oracle, &src, &case.script, &apps, case.params) {
            Ok(v) => v,
            Err(e) => {
                let class = translate_class(&e);
                features.insert(format!("translate:{class}"));
                return (Verdict::Rejected(class), features);
            }
        };
    if stats.illegal > 0 {
        features.insert("filter:illegal".into());
    }
    if stats.duplicates > 0 {
        features.insert("filter:duplicate".into());
    }
    for (comp, _) in &stats.degenerated {
        features.insert(format!("dropped:{comp}"));
    }
    if variants.is_empty() {
        return (Verdict::NoVariants, features);
    }

    let bindings = Bindings::square(case.n);
    let mut executed = 0usize;
    let mut rejected = 0usize;
    let mut native_probed = false;
    for (vi, v) in variants.iter().enumerate() {
        for name in v.script.component_names() {
            features.insert(format!("applied:{name}"));
        }
        let bufs = prepare_buffers(&v.program, case.n, case.seed, true);
        let a_in = bufs["A"].clone();
        let b_in = bufs["B"].clone();
        let c_in = bufs.get("C").cloned();

        let mut results = exec_all_engines(&v.program, &bindings, &bufs);
        if let Some(f) = fault {
            if v.script.component_names().contains(&f.trigger_component) {
                for (engine, res) in results.iter_mut() {
                    if *engine == f.engine {
                        if let Ok(out) = res {
                            corrupt_output(case.routine, out);
                        }
                    }
                }
            }
        }

        let oks = results.iter().filter(|(_, r)| r.is_ok()).count();
        if oks != 0 && oks != results.len() {
            let detail = results
                .iter()
                .map(|(e, r)| match r {
                    Ok(_) => format!("{}: ok", e.name()),
                    Err(err) => format!("{}: {} ({})", e.name(), err.class(), err),
                })
                .collect::<Vec<_>>()
                .join("; ");
            return (
                Verdict::Divergence(Divergence {
                    variant: vi,
                    script: v.script.to_string(),
                    detail: format!("engines split on launchability: {detail}"),
                }),
                features,
            );
        }

        if oks == 0 {
            // All rejected: the classes must be identical.
            let classes: Vec<&'static str> = results
                .iter()
                .map(|(_, r)| r.as_ref().expect_err("all rejected").class())
                .collect();
            if classes.windows(2).any(|w| w[0] != w[1]) {
                let detail = results
                    .iter()
                    .zip(&classes)
                    .map(|((e, _), c)| format!("{}: {c}", e.name()))
                    .collect::<Vec<_>>()
                    .join("; ");
                return (
                    Verdict::Divergence(Divergence {
                        variant: vi,
                        script: v.script.to_string(),
                        detail: format!("rejection classes differ: {detail}"),
                    }),
                    features,
                );
            }
            features.insert(format!("exec:{}", classes[0]));
            rejected += 1;
            continue;
        }

        // All executed: bit-identical across engines…
        let digests: Vec<u64> = results
            .iter()
            .map(|(_, r)| digest(r.as_ref().expect("all ok")))
            .collect();
        if digests.windows(2).any(|w| w[0] != w[1]) {
            let detail = results
                .iter()
                .zip(&digests)
                .map(|((e, _), d)| format!("{}: {d:#018x}", e.name()))
                .collect::<Vec<_>>()
                .join("; ");
            return (
                Verdict::Divergence(Divergence {
                    variant: vi,
                    script: v.script.to_string(),
                    detail: format!("engine outputs differ: {detail}"),
                }),
                features,
            );
        }
        // …and within tolerance of the CPU reference.
        let mut b_ref = b_in;
        let mut c_ref = c_in.unwrap_or_else(|| oa_loopir::interp::Matrix::zeros(case.n, case.n));
        run_reference(case.routine, &a_in, &mut b_ref, &mut c_ref);
        let (out_name, expect) = match case.routine {
            RoutineId::Trsm(..) => ("B", &b_ref),
            _ => ("C", &c_ref),
        };
        let (_, first_ok) = &results[0];
        let got = &first_ok.as_ref().expect("all ok")[out_name];
        let err = got.max_abs_diff(expect);
        // NaN must count as a divergence, hence the explicit check.
        if err.is_nan() || err > reference_tol(case.routine) {
            return (
                Verdict::Divergence(Divergence {
                    variant: vi,
                    script: v.script.to_string(),
                    detail: format!(
                        "engines agree but differ from reference by {err} on {out_name}"
                    ),
                }),
                features,
            );
        }
        features.insert("exec:ok".into());
        executed += 1;

        // Native-coverage probe (first executed variant only): recompile
        // the variant for the native annotation alone and record what the
        // lowering actually did.  Bit-identical agreement alone can't see
        // the native tier silently falling back to the interpreter on
        // every block — the coverage features make that visible, and for
        // a case where entry is provable (pristine scheme, exact tile
        // multiples, ≥ 2×2 grid) a lowered-but-never-entered region is
        // promoted to a divergence.
        if !native_probed {
            native_probed = true;
            if let Ok(np) = NativeProgram::compile(&v.program, &bindings) {
                for &(_, r) in np.rejects() {
                    features.insert(format!("native:reject:{}", r.name()));
                }
                if np.region_count() == 0 {
                    features.insert("native:no-region".into());
                } else {
                    let mut scratch = prepare_buffers(&v.program, case.n, case.seed, true);
                    if np.execute(&mut scratch).is_ok() {
                        let (entries, fallbacks) = np.runtime_stats();
                        if entries > 0 {
                            features.insert("native:entered".into());
                        }
                        if fallbacks > 0 {
                            features.insert("native:fallback".into());
                        }
                        if np.coverage().loop_records > 0 {
                            features.insert("native:loop-record".into());
                        }
                        if entries == 0 {
                            features.insert("native:fallback-only".into());
                            if provable_native_entry(case) {
                                return (
                                    Verdict::Divergence(Divergence {
                                        variant: vi,
                                        script: v.script.to_string(),
                                        detail: format!(
                                            "native tier lowered {} region(s) but entered none \
                                             (fallbacks={fallbacks}) on a pristine scheme at a \
                                             clean size",
                                            np.region_count()
                                        ),
                                    }),
                                    features,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    (Verdict::Agree { executed, rejected }, features)
}

/// A case where the native tier has no excuse not to enter: the pristine
/// scheme script with exactly the scheme's adaptor applications, at a
/// size that is an exact tile multiple with a ≥ 2×2 block grid — so even
/// a triangular or symmetry guard leaves provably-uniform off-diagonal
/// blocks for the preflight's corner verdict.
fn provable_native_entry(case: &Case) -> bool {
    let scheme = oa_scheme(case.routine);
    let scheme_apps: Vec<(String, String)> = scheme
        .apps
        .iter()
        .map(|a| (builtin_short_name(&a.adaptor.name), a.array.clone()))
        .collect();
    let p = case.params;
    scheme.bases.contains(&case.script)
        && case.apps == scheme_apps
        && p.unroll == 0
        && p.ty > 0
        && p.tx > 0
        && case.n % p.ty == 0
        && case.n % p.tx == 0
        && case.n / p.ty >= 2
        && case.n / p.tx >= 2
}

/// Simulate a miscompilation: perturb one element of the routine's output
/// matrix (deterministically — always the same element).
fn corrupt_output(r: RoutineId, bufs: &mut Buffers) {
    let name = match r {
        RoutineId::Trsm(..) => "B",
        _ => "C",
    };
    if let Some(m) = bufs.get_mut(name) {
        if let Some(v) = m.data.first_mut() {
            *v = f32::from_bits(v.to_bits() ^ 1);
        }
    }
}

/// Stable class label for a hard translate error.
fn translate_class(e: &TranslateError) -> String {
    e.class()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::CaseGen;

    #[test]
    fn pristine_schemes_agree_at_tile_multiples() {
        // Iteration 0 with no mutations: craft a case by hand.
        let mut g = CaseGen::new(0);
        let (mut case, _) = g.next_case(0);
        // Force a pristine, known-good configuration.
        case.script = oa_blas3::schemes::gemm_nn_script();
        case.params = oa_autotune::default_params(false);
        case.apps.clear();
        case.n = 32;
        let (verdict, feats) = run_case(&case, None);
        match verdict {
            Verdict::Agree { executed, .. } => assert!(executed >= 1),
            other => panic!("expected agreement, got {other:?}"),
        }
        assert!(feats.contains("exec:ok"));
    }

    #[test]
    fn injected_fault_is_caught() {
        let mut g = CaseGen::new(0);
        let (mut case, _) = g.next_case(0);
        case.script = oa_blas3::schemes::gemm_nn_script();
        case.params = oa_autotune::default_params(false);
        case.apps.clear();
        case.n = 32;
        let fault = InjectedFault {
            engine: ExecEngine::Bytecode,
            trigger_component: "loop_unroll",
        };
        let (verdict, _) = run_case(&case, Some(&fault));
        assert!(
            matches!(verdict, Verdict::Divergence(_)),
            "fault not caught: {verdict:?}"
        );
    }

    #[test]
    fn pristine_clean_cases_report_native_entry() {
        // One flagship per family at a clean 2×2-grid size: the probe
        // must see the lowered region actually entered.  The
        // fallback-everything regression this probe exists for would turn
        // each of these into a divergence, not a silent agree.
        use oa_loopir::transform::TileParams;
        for name in ["GEMM-NN", "TRMM-LL-N", "SYMM-LL", "TRSM-LL-N"] {
            let routine = RoutineId::parse(name).unwrap();
            let scheme = oa_blas3::schemes::oa_scheme(routine);
            let params = if scheme.solver {
                TileParams {
                    ty: 32,
                    tx: 32,
                    thr_i: 1,
                    thr_j: 32,
                    kb: 16,
                    unroll: 0,
                }
            } else {
                TileParams {
                    ty: 32,
                    tx: 32,
                    thr_i: 16,
                    thr_j: 16,
                    kb: 16,
                    unroll: 0,
                }
            };
            let case = crate::gen::Case {
                routine,
                script: scheme.bases[0].clone(),
                apps: scheme
                    .apps
                    .iter()
                    .map(|a| {
                        (
                            crate::gen::builtin_short_name(&a.adaptor.name),
                            a.array.clone(),
                        )
                    })
                    .collect(),
                params,
                n: 64,
                seed: 9,
            };
            assert!(super::provable_native_entry(&case), "{name}: not strict");
            let (verdict, feats) = run_case(&case, None);
            match verdict {
                Verdict::Agree { executed, .. } => assert!(executed >= 1, "{name}"),
                other => panic!("{name}: expected agreement, got {other:?}"),
            }
            assert!(
                feats.contains("native:entered"),
                "{name}: native never entered; features: {feats:?}"
            );
        }
    }

    #[test]
    fn digest_is_order_insensitive_but_value_sensitive() {
        use oa_loopir::interp::Matrix;
        let mut a = Buffers::new();
        a.insert("X".into(), Matrix::zeros(2, 2));
        a.insert("Y".into(), Matrix::zeros(2, 2));
        let mut b = Buffers::new();
        b.insert("Y".into(), Matrix::zeros(2, 2));
        b.insert("X".into(), Matrix::zeros(2, 2));
        assert_eq!(digest(&a), digest(&b));
        b.get_mut("X").unwrap().data[0] = 1.0;
        assert_ne!(digest(&a), digest(&b));
    }
}
