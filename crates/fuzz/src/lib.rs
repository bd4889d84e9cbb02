//! # oa-fuzz — coverage-guided differential fuzzer
//!
//! Feeds random-but-plausible inputs through the whole script → IR →
//! engine pipeline and demands that the three execution engines (oracle
//! tree walker, lane-vectorized bytecode, native microkernels) plus the
//! CPU reference agree — bit-identically when
//! they execute, with one identical error class when they reject.  On divergence the failing
//! case is shrunk to a minimal reproducer and written out as a
//! self-contained `.case` file.
//!
//! Everything is deterministic: same seed ⇒ same case stream, same
//! coverage map, same verdicts (see [`FuzzReport::fingerprint`]).

#![warn(missing_docs)]

pub mod corpus;
pub mod coverage;
pub mod dag_stripe;
pub mod diff;
pub mod gen;
pub mod model_stripe;
pub mod shrink;

use std::collections::BTreeMap;
use std::path::PathBuf;

pub use corpus::{from_text, list_cases, list_dags, read_case, to_text, write_case};
pub use coverage::Coverage;
pub use dag_stripe::{DagStripe, DAG_STRIPE_PERIOD};
pub use diff::{digest, run_case, Divergence, InjectedFault, Verdict};
pub use gen::{Case, CaseGen, DagCase, DagGen, DAG_SIZES, SIZES};
pub use model_stripe::{ModelStripe, MODEL_STRIPE_PERIOD};
pub use shrink::shrink;

/// One fuzz run's configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// PRNG seed — the sole source of randomness.
    pub seed: u64,
    /// Number of cases to generate and cross-check.
    pub iters: usize,
    /// Where to write shrunk divergence repros (`None` = don't write).
    pub corpus_dir: Option<PathBuf>,
    /// Optional injected engine bug (mutation-testing the fuzzer).
    pub fault: Option<InjectedFault>,
    /// Per-case progress callback (verdict kind, case id line).
    pub on_case: Option<fn(usize, &str, &str)>,
    /// Cross-check the learned tuner cost model (exact sweep vs
    /// `rank+exit`, see [`model_stripe`]) on every
    /// [`MODEL_STRIPE_PERIOD`]-th case.  Off by default — each stripe
    /// case costs two full tune sweeps — and switched on by `oa fuzz`.
    pub model_stripe: bool,
    /// Cross-check the fusion pass (fused vs sequenced DAG plans, bit
    /// for bit, across all three engines — see [`dag_stripe`]) on every
    /// [`DAG_STRIPE_PERIOD`]-th case.  Off by default and switched on
    /// by `oa fuzz`.
    pub dag_stripe: bool,
}

impl FuzzConfig {
    /// A quiet run with the given seed and iteration count.
    pub fn new(seed: u64, iters: usize) -> FuzzConfig {
        FuzzConfig {
            seed,
            iters,
            corpus_dir: None,
            fault: None,
            on_case: None,
            model_stripe: false,
            dag_stripe: false,
        }
    }
}

/// A shrunk divergence, ready for reporting/persisting.
#[derive(Clone, Debug)]
pub struct FoundDivergence {
    /// Loop iteration that produced it.
    pub iter: usize,
    /// The original (unshrunk) failing case.
    pub original: Case,
    /// The minimized case.
    pub minimal: Case,
    /// Divergence details from the minimized case.
    pub detail: String,
    /// Where the repro was written, if a corpus dir was configured.
    pub repro_path: Option<PathBuf>,
}

/// A shrunk DAG-stripe divergence.  Kept apart from
/// [`FoundDivergence`] because the repro is an expression DAG, not a
/// script case — its file form is one `oa serve` request line.
#[derive(Clone, Debug)]
pub struct FoundDagDivergence {
    /// Loop iteration that produced it.
    pub iter: usize,
    /// The original (unshrunk) failing DAG.
    pub original: DagCase,
    /// The minimized DAG.
    pub minimal: DagCase,
    /// Divergence details from the minimized DAG.
    pub detail: String,
    /// Where the `.dag` repro was written, if a corpus dir was configured.
    pub repro_path: Option<PathBuf>,
}

/// The outcome of a whole fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Count per verdict kind (`agree`, `rejected`, `no-variants`,
    /// `divergence`).
    pub verdicts: BTreeMap<String, usize>,
    /// The accumulated coverage map.
    pub coverage: Coverage,
    /// Every divergence found, shrunk.
    pub divergences: Vec<FoundDivergence>,
    /// Every DAG-stripe divergence found, shrunk.
    pub dag_divergences: Vec<FoundDagDivergence>,
    /// Cases that entered the mutation pool as interesting.
    pub interesting: usize,
}

impl FuzzReport {
    /// A stable digest of the run: FNV-1a over every verdict count, every
    /// coverage feature, and every divergence id line.  Two runs with the
    /// same seed and iteration count must produce identical fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (k, v) in &self.verdicts {
            eat(k.as_bytes());
            eat(&(*v as u64).to_le_bytes());
        }
        for f in self.coverage.features() {
            eat(f.as_bytes());
        }
        for d in &self.divergences {
            eat(d.minimal.id_line().as_bytes());
        }
        for d in &self.dag_divergences {
            eat(d.minimal.id_line().as_bytes());
        }
        h
    }
}

/// Run the fuzz loop.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut gen = CaseGen::new(cfg.seed);
    let mut report = FuzzReport::default();
    let mut stripe: Option<ModelStripe> = None;
    // The DAG generator gets its own seeded stream (offset so switching
    // the stripe on does not perturb the script-case stream or existing
    // fingerprints).
    let mut dag_gen: Option<(DagGen, DagStripe)> = None;
    for iter in 0..cfg.iters {
        let (case, _tags) = gen.next_case(iter);
        let (verdict, features) = run_case(&case, cfg.fault.as_ref());
        *report
            .verdicts
            .entry(verdict.kind().to_string())
            .or_insert(0) += 1;
        if let Some(cb) = cfg.on_case {
            cb(iter, verdict.kind(), &case.id_line());
        }
        if report.coverage.note(&features) {
            report.interesting += 1;
            gen.add_interesting(case.routine, case.script.clone());
        }
        // Model stripe: every MODEL_STRIPE_PERIOD-th case also
        // cross-checks the exact tuner sweep against the model-ranked
        // one at the case's (routine, size) — the winner must not move.
        if cfg.model_stripe && (iter + 1) % MODEL_STRIPE_PERIOD == 0 {
            let stripe = stripe.get_or_insert_with(ModelStripe::new);
            let (mv, mfeatures) = stripe.check(&case);
            *report
                .verdicts
                .entry(format!("model-{}", mv.kind()))
                .or_insert(0) += 1;
            if report.coverage.note(&mfeatures) {
                report.interesting += 1;
            }
            if let Verdict::Divergence(d) = mv {
                let (minimal, _steps) = stripe.shrink(&case);
                let repro_path = cfg.corpus_dir.as_ref().map(|dir| {
                    let path = dir.join(format!(
                        "model-divergence-{:04}.case",
                        report.divergences.len()
                    ));
                    if let Err(e) = write_case(&path, &minimal) {
                        eprintln!("warning: could not write repro: {e}");
                    }
                    path
                });
                report.divergences.push(FoundDivergence {
                    iter,
                    original: case.clone(),
                    minimal,
                    detail: format!("model stripe: {}", d.detail),
                    repro_path,
                });
            }
        }
        // DAG stripe: every DAG_STRIPE_PERIOD-th case also pushes one
        // generated expression DAG through the fusion runner — fused vs
        // sequenced per engine, engine vs engine — bit for bit.
        if cfg.dag_stripe && (iter + 1) % DAG_STRIPE_PERIOD == 0 {
            let (dgen, dstripe) =
                dag_gen.get_or_insert_with(|| (DagGen::new(cfg.seed ^ 0xDA6), DagStripe::new()));
            let dcase = dgen.next_case();
            let (dv, dfeatures) = dstripe.check(&dcase);
            *report
                .verdicts
                .entry(format!("dag-{}", dv.kind()))
                .or_insert(0) += 1;
            if let Some(cb) = cfg.on_case {
                cb(iter, &format!("dag-{}", dv.kind()), &dcase.id_line());
            }
            if report.coverage.note(&dfeatures) {
                report.interesting += 1;
            }
            if let Verdict::Divergence(d) = dv {
                let (minimal, _steps) = dstripe.shrink(&dcase);
                let repro_path = cfg.corpus_dir.as_ref().map(|dir| {
                    let path = dir.join(format!(
                        "dag-divergence-{:04}.dag",
                        report.dag_divergences.len()
                    ));
                    // One line, directly replayable through `oa serve`.
                    if let Err(e) = std::fs::write(&path, minimal.to_json_line() + "\n") {
                        eprintln!("warning: could not write repro: {e}");
                    }
                    path
                });
                report.dag_divergences.push(FoundDagDivergence {
                    iter,
                    original: dcase.clone(),
                    minimal,
                    detail: format!("dag stripe: {}", d.detail),
                    repro_path,
                });
            }
        }
        if let Verdict::Divergence(_) = &verdict {
            let (minimal, _steps) = shrink(&case, cfg.fault.as_ref());
            // Re-run the minimum for its divergence detail.
            let detail = match run_case(&minimal, cfg.fault.as_ref()).0 {
                Verdict::Divergence(d) => d.detail,
                other => format!("shrunk case no longer diverges ({})", other.kind()),
            };
            let repro_path = cfg.corpus_dir.as_ref().map(|dir| {
                let path = dir.join(format!("divergence-{:04}.case", report.divergences.len()));
                if let Err(e) = write_case(&path, &minimal) {
                    eprintln!("warning: could not write repro: {e}");
                }
                path
            });
            report.divergences.push(FoundDivergence {
                iter,
                original: case,
                minimal,
                detail,
                repro_path,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_gpusim::ExecEngine;

    #[test]
    fn fuzz_run_is_bit_reproducible() {
        let cfg = FuzzConfig::new(5, 48);
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(a.coverage.len(), b.coverage.len());
    }

    #[test]
    fn clean_smoke_run_finds_no_divergence() {
        let report = run_fuzz(&FuzzConfig::new(1, 48));
        assert!(
            report.divergences.is_empty(),
            "unexpected divergence: {:?}",
            report.divergences[0].detail
        );
        assert!(report.verdicts.get("agree").copied().unwrap_or(0) > 0);
        assert!(!report.coverage.is_empty());
    }

    #[test]
    fn injected_fault_is_found_and_shrunk() {
        let mut cfg = FuzzConfig::new(2, 48);
        cfg.fault = Some(InjectedFault {
            engine: ExecEngine::Bytecode,
            trigger_component: "loop_unroll",
        });
        let report = run_fuzz(&cfg);
        assert!(
            !report.divergences.is_empty(),
            "48 iterations never hit the injected bug"
        );
        let d = &report.divergences[0];
        assert!(
            d.minimal.script.stmts.len() <= 3,
            "repro not minimal: {:?}",
            d.minimal.script.component_names()
        );
        assert!(d.minimal.script.component_names().contains(&"loop_unroll"));
    }
}
