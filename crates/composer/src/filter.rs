//! The filter: tries every mixed sequence component-by-component, omitting
//! components whose constraints fail (*degeneration*), de-duplicates the
//! resulting effective sequences (the paper's *semi-output*), and finally
//! checks data dependences — here as an exact sampled-equivalence check
//! against the source program, our PolyDeps stand-in (Sec. IV.B.2).

use oa_epod::translator::{apply_lenient, TranslateError};
use oa_epod::{Invocation, Script};
use oa_gpusim::{exec_program_on, select_engine, ExecEngine, ExecError};
use oa_loopir::interp::{alloc_buffers, equivalent_on, run_fresh, Bindings};
use oa_loopir::stmt::Stmt;
use oa_loopir::transform::{TileParams, TransformError};
use oa_loopir::{MemSpace, Program};

/// One surviving sequence.
#[derive(Clone, Debug)]
pub struct FilteredSeq {
    /// The sequence as requested by the mixer.
    pub requested: Vec<Invocation>,
    /// The components that actually applied (the *effective* sequence).
    pub applied: Vec<Invocation>,
    /// Degenerated components with their reasons.
    pub dropped: Vec<(Invocation, TransformError)>,
    /// The transformed program.
    pub program: Program,
}

/// Aggregate outcome of one filter run — what survived plus *why* the
/// rest did not.  The counts feed the composer's [`ComposeStats`]
/// (crate::ComposeStats) and the fuzzer's coverage map (filter behavior
/// is a coverage feature: a mutation that first triggers the dependence
/// check is more interesting than one that repeats a known path).
#[derive(Clone, Debug)]
pub struct FilterReport {
    /// The surviving sequences (the semi-output).
    pub survivors: Vec<FilteredSeq>,
    /// Sequences removed because their effective sequence duplicated an
    /// earlier survivor (semi-output de-duplication).
    pub duplicates: usize,
    /// Sequences removed by the dependence check (sampled-equivalence
    /// mismatch or barrier-divergence verdict).
    pub illegal: usize,
}

/// [`filter_on`] with the process-default engine
/// ([`oa_gpusim::select_engine`]).
pub fn filter(
    source: &Program,
    sequences: &[Vec<Invocation>],
    params: TileParams,
) -> Result<Vec<FilteredSeq>, TranslateError> {
    filter_on(select_engine(), source, sequences, params)
}

/// Run the filter over mixed sequences, checking candidates on `engine`;
/// returns the survivors only (see [`filter_report_on`] for the counts).
pub fn filter_on(
    engine: ExecEngine,
    source: &Program,
    sequences: &[Vec<Invocation>],
    params: TileParams,
) -> Result<Vec<FilteredSeq>, TranslateError> {
    filter_report_on(engine, source, sequences, params).map(|r| r.survivors)
}

/// Run the filter over mixed sequences, checking candidates on `engine`,
/// and report removal reasons alongside the survivors.
///
/// Sequences containing cross-thread constructs (`binding_triangular`'s
/// thread-0 regions) cannot be checked by sequential equivalence; they are
/// passed through (their legality is established by the component's own
/// structural checks and, downstream, by the GPU executor).
pub fn filter_report_on(
    engine: ExecEngine,
    source: &Program,
    sequences: &[Vec<Invocation>],
    params: TileParams,
) -> Result<FilterReport, TranslateError> {
    let mut out: Vec<FilteredSeq> = Vec::new();
    let mut duplicates = 0usize;
    let mut illegal = 0usize;
    for seq in sequences {
        let script = Script { stmts: seq.clone() };
        let outcome = match apply_lenient(source, &script, params) {
            Ok(o) => o,
            Err(TranslateError::Component(..)) => unreachable!("lenient mode absorbs these"),
            Err(hard) => return Err(hard),
        };
        // Semi-output de-duplication: a sequence that degenerated into an
        // already-present effective sequence adds nothing.
        let applied_names: Vec<&str> = outcome
            .applied
            .iter()
            .map(|i| i.component.as_str())
            .collect();
        if out.iter().any(|f| {
            f.applied
                .iter()
                .map(|i| i.component.as_str())
                .collect::<Vec<_>>()
                == applied_names
                && f.applied == outcome.applied
        }) {
            duplicates += 1;
            continue;
        }
        // Dependence check (PolyDeps stand-in): exact equivalence on
        // sampled inputs, skipped for thread-communicating programs.
        if !has_thread0_region(&outcome.program.body) {
            let ok = [(16i64, 5u64), (12, 19)]
                .iter()
                .all(|&(n, seed)| matches_source(engine, source, &outcome.program, n, seed, 1e-3));
            if !ok {
                illegal += 1;
                continue; // illegal sequence removed
            }
        }
        out.push(FilteredSeq {
            requested: seq.clone(),
            applied: outcome.applied,
            dropped: outcome.dropped,
            program: outcome.program,
        });
    }
    Ok(FilterReport {
        survivors: out,
        duplicates,
        illegal,
    })
}

/// Sampled equivalence of a candidate against the source, preferring the
/// compiled GPU executor.
///
/// A block/thread-mapped candidate is what the downstream pipeline will
/// actually launch, so it is checked on the caller's fast engine (native
/// by default — far cheaper than the tree-walking interpreter when the
/// filter sweeps dozens of sequences).  Candidates that do not lower — not
/// yet mapped, or structurally unlaunchable — fall back to the sequential
/// interpreter, which executes mapped loops as ordinary loops.  A barrier
/// divergence, by contrast, is a *legality* verdict: the candidate is
/// illegal under GPU semantics.
fn matches_source(
    engine: ExecEngine,
    source: &Program,
    candidate: &Program,
    n: i64,
    seed: u64,
    tol: f32,
) -> bool {
    let bindings = Bindings::square(n);
    let mut cand_out = alloc_buffers(candidate, &bindings, seed);
    match exec_program_on(engine, candidate, &bindings, &mut cand_out) {
        Ok(()) => {}
        Err(ExecError::BarrierDivergence(_)) => return false,
        // Launch extraction or buffer resolution failed: not launchable
        // yet, check sequentially.
        Err(_) => return equivalent_on(source, candidate, &bindings, seed, tol),
    }
    let ref_out = run_fresh(source, &bindings, seed);
    // Same comparison set as `equivalent_on`: every global array the
    // reference writes.
    source.assignments().iter().all(|a| {
        let name = &a.lhs.array;
        if source
            .array(name)
            .map(|d| d.space == MemSpace::Global)
            .unwrap_or(false)
        {
            match (ref_out.get(name.as_str()), cand_out.get(name.as_str())) {
                (Some(r), Some(c)) => r.max_abs_diff(c) <= tol,
                _ => false,
            }
        } else {
            true
        }
    })
}

/// Does the program contain a thread-0-bound region?
pub fn has_thread0_region(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::If {
            pred,
            then_body,
            else_body,
        } => pred.thread0_only || has_thread0_region(then_body) || has_thread0_region(else_body),
        Stmt::Loop(l) => has_thread0_region(&l.body),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixer::mix;
    use oa_epod::Invocation;
    use oa_loopir::builder::trmm_ll_like;

    fn params() -> TileParams {
        TileParams {
            ty: 8,
            tx: 8,
            thr_i: 4,
            thr_j: 4,
            kb: 4,
            unroll: 0,
        }
    }

    fn base_seq() -> Vec<Invocation> {
        vec![
            Invocation {
                outputs: vec!["Lii".into(), "Ljj".into()],
                component: "thread_grouping".into(),
                args: vec![
                    oa_epod::Arg::Ident("Li".into()),
                    oa_epod::Arg::Ident("Lj".into()),
                ],
            },
            Invocation {
                outputs: vec!["Liii".into(), "Ljjj".into(), "Lkkk".into()],
                component: "loop_tiling".into(),
                args: vec![
                    oa_epod::Arg::Ident("Lii".into()),
                    oa_epod::Arg::Ident("Ljj".into()),
                    oa_epod::Arg::Ident("Lk".into()),
                ],
            },
            Invocation::idents("loop_unroll", &["Ljjj", "Lkkk"]),
        ]
    }

    /// The Sec. IV.B.2 worked example: mixing Adaptor_Triangular with the
    /// GEMM-NN scheme over the TRMM nest.  The paper reports a 7-sequence
    /// semi-output from 9 mixed sequences; in our engine the trapezoid
    /// decomposition only exists after the k loop is tiled (the paper's
    /// thread_grouping tiles k as part of its multi-level tiling), so the
    /// two "peel/pad between grouping and tiling" entries degenerate into
    /// their post-tiling twins and the deduplicated semi-output has 5
    /// effective sequences covering the same three optimization outcomes
    /// (plain, peeled, padded) — see DESIGN.md §6.
    #[test]
    fn paper_filter_example_semi_output() {
        let source = trmm_ll_like("TRMM-LL-N");
        let base = base_seq();
        // Rules: empty, peel, padding -> 1 + 4 + 4 = 9 mixed sequences.
        let mut all_sequences = Vec::new();
        all_sequences.extend(mix(&base, &[]));
        all_sequences.extend(mix(&base, &[Invocation::idents("peel_triangular", &["A"])]));
        all_sequences.extend(mix(
            &base,
            &[Invocation::idents("padding_triangular", &["A"])],
        ));
        assert_eq!(all_sequences.len(), 9);

        let surviving = filter(&source, &all_sequences, params()).unwrap();
        let effective: Vec<Vec<&str>> = surviving
            .iter()
            .map(|f| f.applied.iter().map(|i| i.component.as_str()).collect())
            .collect();
        assert_eq!(surviving.len(), 5, "semi-output: {effective:#?}");

        // The plain scheme (sequences 1, 2, 3, 6, 7 all collapse here: the
        // pre-tiling peel/pad degenerate, and unroll fails over the
        // unsplit triangular band so it is dropped as well).
        assert!(
            effective.contains(&vec!["thread_grouping", "loop_tiling", "loop_unroll"])
                || effective.contains(&vec!["thread_grouping", "loop_tiling"])
        );
        // Peel between tiling and unroll: the full pipeline (sequence 4).
        assert!(effective.contains(&vec![
            "thread_grouping",
            "loop_tiling",
            "peel_triangular",
            "loop_unroll"
        ]));
        // Peel after a failed unroll (sequence 5's degeneration).
        assert!(effective.contains(&vec!["thread_grouping", "loop_tiling", "peel_triangular"]));
        // The padded analogues (sequences 8 and 9).
        assert!(effective.contains(&vec![
            "thread_grouping",
            "loop_tiling",
            "padding_triangular",
            "loop_unroll"
        ]));
        assert!(effective.contains(&vec![
            "thread_grouping",
            "loop_tiling",
            "padding_triangular"
        ]));
    }

    #[test]
    fn thread0_detector() {
        use oa_loopir::expr::Predicate;
        let stmts = vec![Stmt::If {
            pred: Predicate::thread0(),
            then_body: vec![],
            else_body: vec![],
        }];
        assert!(has_thread0_region(&stmts));
        assert!(!has_thread0_region(&[]));
    }
}
