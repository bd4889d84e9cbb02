//! Failure taxonomy and structured tune events.
//!
//! ATLAS-style autotuners treat the timing harness as an instrument:
//! every candidate is accounted for, every failure classified, every
//! result replayable.  This module is that accounting layer for the OA
//! search — the tuner emits one [`TuneEvent`] per pipeline stage and one
//! terminal [`CandidateOutcome`] per candidate, and aggregates failures
//! into a [`FailureTable`] so `oa tune` can print *why* a routine had no
//! evaluable candidate instead of a bare error string.
//!
//! The event types live here (below `oa-core` in the dependency graph);
//! the `OA_TRACE` rendering sink lives in `oa_core::trace`.

use crate::cache::CacheIssue;
use oa_loopir::transform::TileParams;
use std::collections::BTreeMap;

/// The pipeline stages of a fresh tune (span names in the trace stream).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Script-variant generation (splitter → mixer → allocator).
    Compose,
    /// The composer's legality filter (degeneration + dependence check).
    Filter,
    /// EPOD script application over the loop IR, per candidate.
    Translate,
    /// Performance-model evaluation, per candidate.
    Evaluate,
}

impl Stage {
    /// Stable lowercase span name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Compose => "compose",
            Stage::Filter => "filter",
            Stage::Translate => "translate",
            Stage::Evaluate => "evaluate",
        }
    }

    /// All stages, pipeline order.
    pub const ALL: [Stage; 4] = [
        Stage::Compose,
        Stage::Filter,
        Stage::Translate,
        Stage::Evaluate,
    ];
}

/// Terminal outcome of one candidate.
#[derive(Clone, Debug, PartialEq)]
pub enum CandidateFate {
    /// Best predicted GFLOPS of the sweep.
    Won,
    /// Evaluated and ranked, but not best.
    Lost,
    /// Evaluated but unlaunchable (zero occupancy): removed from ranking.
    Pruned {
        /// Why the candidate was pruned.
        reason: String,
    },
    /// Never evaluated: the cost model's early exit proved the point's
    /// predicted ceiling (`safety × predicted`) strictly below an already
    /// measured incumbent.  Only possible under `OA_TUNE_MODEL=rank+exit`.
    Skipped {
        /// The model's predicted GFLOPS for the point.
        predicted: f64,
    },
    /// A component of this candidate's script degenerated in the filter
    /// (the paper's term: the component's constraints failed and it was
    /// omitted rather than aborting the sequence).
    Degenerated {
        /// The component that degenerated.
        component: String,
        /// The constraint failure.
        reason: String,
    },
    /// Translation or evaluation failed outright.
    Errored {
        /// The stage that failed.
        stage: Stage,
        /// Stable failure class (see [`FailureTable`]).
        class: String,
        /// Human-readable cause.
        reason: String,
    },
}

impl CandidateFate {
    /// Stable lowercase outcome label (`won`, `lost`, `pruned`,
    /// `skipped`, `degenerated`, `errored`).
    pub fn label(&self) -> &'static str {
        match self {
            CandidateFate::Won => "won",
            CandidateFate::Lost => "lost",
            CandidateFate::Pruned { .. } => "pruned",
            CandidateFate::Skipped { .. } => "skipped",
            CandidateFate::Degenerated { .. } => "degenerated",
            CandidateFate::Errored { .. } => "errored",
        }
    }
}

/// One per-candidate outcome record.
#[derive(Clone, Debug)]
pub struct CandidateOutcome {
    /// Index into the deduplicated script-variant list; `None` for
    /// compose-stage degenerations (the sequence never became a variant
    /// of its own).
    pub script: Option<usize>,
    /// The tile parameters of the sweep point, when the outcome belongs
    /// to one.
    pub params: Option<TileParams>,
    /// What happened.
    pub fate: CandidateFate,
    /// Predicted GFLOPS for evaluated candidates.
    pub gflops: Option<f64>,
}

/// Structured events emitted by the tuner through an observer callback
/// (`&mut dyn FnMut(TuneEvent)`); rendering is the caller's concern.
#[derive(Clone, Debug)]
pub enum TuneEvent {
    /// A fresh tune started.
    Begin {
        /// Routine name.
        routine: String,
        /// Device name.
        device: String,
        /// Problem size.
        n: i64,
        /// The execution engine behind the legality filter.
        engine: &'static str,
    },
    /// One pipeline stage finished.  `ms` is wall time for `Compose` and
    /// `Filter`, cumulative per-candidate wall time for the parallel
    /// `Translate`/`Evaluate` stages.
    Span {
        /// The stage.
        stage: Stage,
        /// Milliseconds (see above).
        ms: f64,
        /// How many items the stage processed.
        items: usize,
    },
    /// A candidate reached its terminal outcome.
    Candidate(CandidateOutcome),
    /// A cache problem was detected (load, integrity, or replay
    /// validation) — reported, never silently swallowed.
    Cache(CacheIssue),
    /// A cached record replayed successfully: no sweep ran.
    Replayed {
        /// Routine name.
        routine: String,
        /// The replayed record's predicted GFLOPS.
        gflops: f64,
    },
    /// The cost model ranked this sweep (emitted once per modeled tune,
    /// between the stage spans and the candidate outcomes).
    Model(ModelStats),
    /// End-of-tune accounting.  `evaluated = won + lost`; every sweep
    /// point lands in exactly one bucket.
    Summary {
        /// Deduplicated script variants.
        variants: usize,
        /// Sweep points (variants × parameter candidates).
        points: usize,
        /// Candidates that ranked (won + lost).
        evaluated: usize,
        /// Candidates pruned (zero occupancy).
        pruned: usize,
        /// Compose-stage degeneration records.
        degenerated: usize,
        /// Candidates that errored in translate/evaluate.
        errored: usize,
        /// Candidates never evaluated (cost-model early exit).
        skipped: usize,
        /// The winner's predicted GFLOPS, if any candidate ranked.
        winner_gflops: Option<f64>,
    },
    /// A server run drained and shut down (emitted once by either
    /// `oa serve` mode with the lifetime totals).
    Serve(ServeStats),
    /// Native-tier coverage for one compiled program (emitted by the
    /// bench harness after running a routine on the native engine, so
    /// coverage regressions show up in the trace stream, not silently).
    NativeCoverage(NativeCoverageStats),
    /// A DAG request was planned and executed (emitted once per
    /// `run_dag` by the fusion runner, carrying every per-edge fuse /
    /// reject decision so fallbacks are auditable in the trace stream).
    Fuse(FuseStats),
}

/// One DAG execution's fusion accounting, carried by [`TuneEvent::Fuse`].
#[derive(Clone, Debug, PartialEq)]
pub struct FuseStats {
    /// Canonical DAG shape key (the registry cache key).
    pub shape: String,
    /// Problem size.
    pub n: i64,
    /// Nodes in the DAG.
    pub nodes: usize,
    /// Fused edges: `(producer id, consumer id, kind)`.
    pub fused: Vec<(String, String, String)>,
    /// Rejected or demoted edges: `(producer id, consumer id, reason)`.
    pub rejected: Vec<(String, String, String)>,
    /// Execution units after planning and demotion.
    pub units: usize,
}

/// One modeled sweep's accounting, carried by [`TuneEvent::Model`]:
/// the predicted-vs-actual record the trace stream keeps so the
/// winner-invariance contract is auditable per tune.
///
/// `evaluated + skipped == considered` always holds; `skipped` is zero in
/// `rank` mode (ordering only, no early exit).
#[derive(Clone, Debug, PartialEq)]
pub struct ModelStats {
    /// Mode label (`rank` or `rank+exit`).
    pub mode: &'static str,
    /// Sweep points the model scored.
    pub considered: usize,
    /// Points actually evaluated.
    pub evaluated: usize,
    /// Points skipped by the early exit.
    pub skipped: usize,
    /// Whether a cross-size-class transfer seed promoted a winner family.
    pub transfer: bool,
    /// The model's predicted GFLOPS for the eventual winner.
    pub predicted_winner_gflops: Option<f64>,
    /// The perf model's actual GFLOPS for the eventual winner.
    pub actual_winner_gflops: Option<f64>,
}

/// Lifetime totals of one `oa serve` run (listening or one-shot),
/// carried by [`TuneEvent::Serve`] and emitted exactly once, after the
/// graceful drain — so `admitted == completed` always holds in the event
/// (rejected requests were never admitted and are counted separately).
///
/// The live view of the same counters is the listening server's
/// `metrics` introspection request; this event is the durable
/// end-of-life record in the `OA_TRACE` stream, validated by
/// `oa trace-check`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Requests accepted into the admission queue.
    pub admitted: usize,
    /// Admitted requests that reached a terminal outcome (`ok + failed`).
    pub completed: usize,
    /// Completed requests that executed successfully.
    pub ok: usize,
    /// Completed requests that failed (admission validation, resolution,
    /// compilation or execution).
    pub failed: usize,
    /// Requests refused at admission (queue full, tenant over quota, or
    /// arriving during drain) — never admitted, answered with a
    /// structured JSONL error.
    pub rejected: usize,
    /// Completed requests whose problem size was clamped to a boundary
    /// tuning class (`n < 64` or `n > 1024`).
    pub clamped: usize,
    /// Median server-side latency (admission → response ready), ms.
    pub p50_ms: f64,
    /// 99th-percentile server-side latency, ms.
    pub p99_ms: f64,
    /// Compiled-program cache hits over the server lifetime.
    pub hits: u64,
    /// Compiled-program cache misses over the server lifetime.
    pub misses: u64,
    /// Distinct tenants seen.
    pub tenants: usize,
    /// Server lifetime, milliseconds.
    pub wall_ms: f64,
}

/// Per-program coverage of the native microkernel tier, carried by
/// [`TuneEvent::NativeCoverage`].  `entries` counts region executions
/// that ran natively, `fallbacks` those handed back to the interpreter
/// at runtime; `loop_records` counts register-tile loops replayed as
/// one kernel and `instances` the statement instances replayed (one per
/// loop-record iteration), with the two-level and triangular records
/// among them and the register-tile moves run in bulk or per element;
/// `fallback_reasons` and `rejects` are the runtime fallback and the
/// deduplicated compile-time reject histograms (kebab-case reason →
/// count), most frequent first.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NativeCoverageStats {
    /// Routine name.
    pub routine: String,
    /// Lowered regions in the compiled program.
    pub regions: usize,
    /// Region executions that ran natively.
    pub entries: u64,
    /// Region executions that fell back to the interpreter.
    pub fallbacks: u64,
    /// Loop records replayed.
    pub loop_records: u64,
    /// Statement instances replayed.
    pub instances: u64,
    /// Of `loop_records`, those folding a whole inner loop record.
    pub two_level_records: u64,
    /// Of `two_level_records`, the triangular ones (inner trips growing
    /// with the outer iteration, or a tail run).
    pub triangular_records: u64,
    /// Register-tile moves run in bulk.
    pub bulk_moves: u64,
    /// Register-tile moves run per element.
    pub element_moves: u64,
    /// Why regions fell back and moves ran per element: reason → count.
    pub fallback_reasons: Vec<(String, u64)>,
    /// Deduplicated compile-time reject reasons with counts.
    pub rejects: Vec<(String, u64)>,
}

/// Failure counts bucketed by stable class label — the per-routine
/// failure table `oa tune` prints when a search comes up empty.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FailureTable {
    counts: BTreeMap<String, usize>,
}

impl FailureTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one failure of `class`.
    pub fn add(&mut self, class: impl Into<String>) {
        *self.counts.entry(class.into()).or_insert(0) += 1;
    }

    /// No failures recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total failures across classes.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// `(class, count)` rows, sorted by class.
    pub fn rows(&self) -> impl Iterator<Item = (&str, usize)> {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

impl std::fmt::Display for FailureTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let width = self
            .counts
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(7)
            .max(7);
        writeln!(f, "  {:<width$}  count", "failure")?;
        for (class, count) in self.rows() {
            writeln!(f, "  {class:<width$}  {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_table_buckets_and_formats() {
        let mut t = FailureTable::new();
        assert!(t.is_empty());
        t.add("translate/component:loop_unroll");
        t.add("translate/component:loop_unroll");
        t.add("launch/not-mapped");
        assert_eq!(t.total(), 3);
        let rows: Vec<_> = t.rows().collect();
        assert_eq!(
            rows,
            vec![
                ("launch/not-mapped", 1),
                ("translate/component:loop_unroll", 2)
            ]
        );
        let text = t.to_string();
        assert!(text.contains("loop_unroll"));
        assert!(text.contains('2'));
    }

    #[test]
    fn fate_labels_are_stable() {
        assert_eq!(CandidateFate::Won.label(), "won");
        assert_eq!(
            CandidateFate::Errored {
                stage: Stage::Translate,
                class: "x".into(),
                reason: "y".into()
            }
            .label(),
            "errored"
        );
        assert_eq!(Stage::Filter.name(), "filter");
        assert_eq!(Stage::ALL.len(), 4);
    }
}
