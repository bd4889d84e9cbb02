//! Native microkernel engine: the third execution tier, after the oracle
//! and the bytecode interpreter.
//!
//! The bytecode interpreter (`vexec`) still pays per-[`Instr`] dispatch
//! and per-lane address arithmetic inside the register-tile inner loop —
//! the FMA-fused accumulate over the K-tile that dominates every BLAS3
//! routine.  This module lowers a compiled [`ByteCode`] program one tier
//! further: it pattern-matches the optimizer's lane-affine loop nests at
//! compile time and executes each matched *region* through a library of
//! specialized host microkernels — monomorphized Rust loops selected
//! over (guard shape, accumulator target, stride class) whose
//! contiguous-slice FMA bodies the autovectorizer lifts to SIMD.
//!
//! The lowering is an *annotation*, not a rewrite: the bytecode stream is
//! left untouched, and a region that cannot be proven safe at compile
//! time (recorded in [`NativeTable::rejects`] with a [`NativeReject`]
//! reason) or at run time (a divergent entry mask, a guard or loop test
//! the interval analysis cannot represent) simply falls back to
//! interpreting the very same instructions in place.  Fallbacks are
//! therefore always bit-identical by construction; the native path must
//! then *also* be bit-identical, which it achieves by:
//!
//! * **a scalar preflight over lane boxes** — lane 0's integer frame
//!   column is interpreted on a scratch environment while the active
//!   lane set is tracked as a rectangular sub-box of the thread block
//!   (`[txl, txh) × [tyl, tyh)`).  An affine guard or a divergent
//!   (lane-affine) loop test whose condition varies along a *single*
//!   block axis cuts the box exactly — the triangular-prefix /
//!   diagonal-split patterns TRMM, SYMM and TRSM emit — while a
//!   condition varying along both axes is admitted only with a uniform
//!   corner-interval verdict.  Anything unrepresentable aborts to the
//!   interpreter *before anything is mutated*;
//! * **staged shared memory inside the region** — the stage→sync→consume
//!   barrier macro is a compile-time region boundary: the preflight
//!   resolves the tile origin and records the per-element guard bits,
//!   the replay performs the whole-tile copy (a contiguous column
//!   `memcpy` when every guard bit is set), and the consume nests that
//!   follow read the freshly staged arena exactly as the interpreter
//!   would;
//! * **sequential trace replay** — statement instances execute in
//!   exactly the interpreter's order, each over its recorded lane box
//!   through the loop kernel (or a generic vectorized op-by-op path), so
//!   floating-point effects are reproduced operation for operation;
//! * **loop records** — the deepest non-trip-1 loop whose body reduces
//!   to one guarded or bare hot run, with every address and guard slot
//!   advancing by a compile-time constant per iteration, is traced once:
//!   the preflight walks its first iteration, proves the guard box the
//!   same at the first and last iteration (cuts are monotone in an
//!   affine loop variable), and stores one record — box, trip count,
//!   first addresses — whose deltas are static.  The replay runs it as
//!   one loop kernel, lanes against iterations: each lane keeps its
//!   iteration order and writes only its own accumulator, and every
//!   source the loop reads is either untouched by it (shared memory,
//!   unwritten globals) or packed before it runs.  A box that may change
//!   walks per iteration;
//! * **two-level loop records** — a loop whose body runs one such record
//!   with constant bounds, plus slot updates (the K-step loop around the
//!   register-tile loop), folds with it into one record: the preflight
//!   walks one iteration of each, proves the box constant and the record
//!   alias-free over both loops, and the kernel keeps each lane chunk's
//!   accumulators across them, so every accumulator element still takes
//!   its updates in K order.  A single-level record is the case of one
//!   outer trip.  The inner loop may sit in a guard of the outer body
//!   (TRSM's update rows), which the outer iteration advances;
//! * **triangular records** — an inner loop whose trip count grows by a
//!   constant per outer iteration, optionally followed by a tail run (TRSM's
//!   substitution: `i` trips of `B[i] -= A[i][k]·B[k]`, then
//!   `B[i] /= A[i][i]`), folds into one record per region entry when every
//!   access of the one written global keeps each lane on its own column
//!   (or row): the rows it touches are gathered lane-contiguous into
//!   scratch, the iterations run there in the interpreter's order, and
//!   the written rows are stored back;
//! * **global stores through the write window** — a store into a global
//!   and a load of a global the kernel writes use the block's write
//!   window (`crate::window`), as the interpreter does: generic runs
//!   read-modify-write each lane in lane order, and a hot run may
//!   accumulate into a global element each lane owns (injective in
//!   `(tx, ty)`; fixed across a loop record's iterations, and no source
//!   of the same global overlapping it), gathered lane-contiguous for the
//!   loop kernel and stored back after it;
//! * **two-rounding FMA** — every kernel computes `t = a*b` (rounded),
//!   then `acc ± t` (rounded), never `mul_add`, matching the semantics
//!   every other engine pins;
//! * **exact frame writeback** — integer slots written inside the region
//!   are reconstructed per lane from `env[slot] + a·tx + b·ty`, the very
//!   invariant `mark_lanes` proved for them.  This stays exact under
//!   divergence because the interpreter's `Eval`/`StepAdd`/`LoopInit`
//!   write all lanes unmasked.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use oa_loopir::arrays::AllocMode;
use oa_loopir::interp::{Bindings, Buffers, Matrix};
use oa_loopir::scalar::BinOp;
use oa_loopir::slots::SlotExpr;
use oa_loopir::stmt::{stage_src_coords, AssignOp};
use oa_loopir::{CmpOp, Program};

use crate::bytecode::{AOp, ArrRef, ByteCode, Instr, SC_SLOT, SR_SLOT};
use crate::exec::ExecError;
use crate::vexec::{bin_lanes, fma_lanes, MoveFallback, VBlock};
use crate::window::read_run;

/// Process-wide region entries, summed over every [`NativeProgram`] ever
/// run (per-program counts die with their program, e.g. on LRU eviction).
static TOTAL_ENTRIES: AtomicU64 = AtomicU64::new(0);
/// Process-wide interpreter fallbacks, the companion of [`TOTAL_ENTRIES`].
static TOTAL_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Process-wide runtime counters `(entries, fallbacks)` over every native
/// program run so far — the live totals the serve `metrics` op reports.
pub fn runtime_totals() -> (u64, u64) {
    (
        TOTAL_ENTRIES.load(Ordering::Relaxed),
        TOTAL_FALLBACKS.load(Ordering::Relaxed),
    )
}

/// A bytecode program plus its native-lowering side table: the artifact
/// the `native` engine compiles to.
#[derive(Debug)]
pub struct NativeProgram {
    bc: ByteCode,
    table: NativeTable,
}

impl NativeProgram {
    /// Compile a program for the native engine: bytecode lowering first,
    /// then the region matcher over the instruction stream.
    pub fn compile(p: &Program, bindings: &Bindings) -> Result<NativeProgram, ExecError> {
        Ok(NativeProgram::from_bytecode(ByteCode::compile(
            p, bindings,
        )?))
    }

    /// Annotate an already-compiled bytecode program.
    pub(crate) fn from_bytecode(bc: ByteCode) -> NativeProgram {
        let table = lower(&bc);
        NativeProgram { bc, table }
    }

    /// Execute on the given buffers: the interpreter drives, entering a
    /// native region whenever the program counter hits a matched entry
    /// point and the runtime checks pass.
    pub fn execute(&self, bufs: &mut Buffers) -> Result<(), ExecError> {
        self.bc.execute_with_native(bufs, &self.table)
    }

    /// Number of loop-nest regions the matcher lowered.
    pub fn region_count(&self) -> usize {
        self.table.regions.len()
    }

    /// Loop nests the matcher inspected but refused, with the pc of the
    /// offending instruction and the reason — deduplicated, in program
    /// order.  The structured fallback trace the lowering tests assert
    /// on.
    pub fn rejects(&self) -> &[(usize, NativeReject)] {
        &self.table.rejects
    }

    /// Runtime counters: `(entries, fallbacks)` — how often a lowered
    /// region actually ran natively vs. fell back to the interpreter.
    pub fn runtime_stats(&self) -> (u64, u64) {
        (
            self.table.entries.load(Ordering::Relaxed),
            self.table.fallbacks.load(Ordering::Relaxed),
        )
    }

    /// The underlying bytecode program the regions annotate.
    pub fn bytecode(&self) -> &ByteCode {
        &self.bc
    }

    /// Structured coverage snapshot: region count, runtime counters and
    /// the reject-reason histogram (descending by count).
    pub fn coverage(&self) -> NativeCoverage {
        let (entries, fallbacks) = self.runtime_stats();
        let mut by: BTreeMap<&'static str, u64> = BTreeMap::new();
        for &(_, r) in &self.table.rejects {
            *by.entry(r.name()).or_insert(0) += 1;
        }
        let t = &self.table;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let moves = MoveFallback::ALL.map(|m| (m.name(), load(&t.element_moves[m as usize])));
        let fallback_reasons = REGION_FALLBACKS
            .iter()
            .zip(&t.fallback_by)
            .map(|(&name, c)| (name, load(c)))
            .chain(moves)
            .filter(|&(_, c)| c > 0)
            .collect();
        NativeCoverage {
            regions: t.regions.len(),
            entries,
            fallbacks,
            loop_records: load(&t.loop_records),
            instances: load(&t.instances),
            two_level_records: load(&t.two_level),
            triangular_records: load(&t.triangular),
            bulk_moves: load(&t.bulk_moves),
            element_moves: moves.iter().map(|m| m.1).sum(),
            fallback_reasons: descending(fallback_reasons),
            rejects: descending(by.into_iter().collect()),
            region_replay: t
                .regions
                .iter()
                .map(|r| RegionReplay {
                    triangular: r.loops.iter().any(|lr| lr.tri.is_some()),
                    entries: load(&r.entries),
                    loop_records: load(&r.loop_records),
                })
                .collect(),
        }
    }

    /// Human-readable lowering report: region map, reject table and the
    /// annotated instruction stream — the `oa explain --native` dump
    /// used to tune the matcher.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        let cov = self.coverage();
        let _ = writeln!(
            s,
            "native lowering: {} region(s), {} reject(s), entries={} fallbacks={} \
             loop-records={} two-level={} triangular={} instances={} bulk-moves={} \
             element-moves={}",
            cov.regions,
            self.table.rejects.len(),
            cov.entries,
            cov.fallbacks,
            cov.loop_records,
            cov.two_level_records,
            cov.triangular_records,
            cov.instances,
            cov.bulk_moves,
            cov.element_moves,
        );
        if !cov.fallback_reasons.is_empty() {
            let _ = writeln!(s, "  fallback reasons: {:?}", cov.fallback_reasons);
        }
        for (ix, (mv, plan)) in self.bc.moves.iter().zip(&self.bc.move_plans).enumerate() {
            let _ = writeln!(
                s,
                "  move {ix}: {} {}x{} tile, strides ({}, {}), {}",
                if mv.load { "load" } else { "store" },
                mv.rows,
                mv.cols,
                mv.row_stride,
                mv.col_stride,
                match plan {
                    Ok(p) => format!("bulk, origin lane steps {:?} {:?}", p.row, p.col),
                    Err(why) => format!("per element ({})", why.name()),
                }
            );
        }
        for (k, r) in self.table.regions.iter().enumerate() {
            let (mut runs, mut stages) = (0usize, 0usize);
            for st in &r.stmts {
                match st {
                    NStmt::Run(_) => runs += 1,
                    NStmt::Stage(_) => stages += 1,
                }
            }
            let _ = writeln!(
                s,
                "  region {k}: pc {}..{}  runs={runs} stages={stages} guards={} loops={} \
                 writeback-slots={}  entries={} loop-records={}",
                r.start,
                r.resume,
                r.guards.len(),
                r.loops.len(),
                r.writeback.len(),
                cov.region_replay[k].entries,
                cov.region_replay[k].loop_records,
            );
            for &(pc, op) in &r.pf {
                let PfOp::Loop(lix) = op else { continue };
                let lr = &r.loops[lix as usize];
                let trips = |lr: &LoopRec| lr.trip.map_or("?".into(), |t| t.to_string());
                let _ = match lr.inner {
                    None => writeln!(
                        s,
                        "    loop record {lix}: test pc {pc}  run {}  step {}  trips {}  \
                         address deltas {:?}",
                        lr.sid,
                        lr.step,
                        trips(lr),
                        lr.addr_deltas,
                    ),
                    Some(il) if lr.tri.is_some() => {
                        let inner = &r.loops[il as usize];
                        let tail = lr.tail.as_ref();
                        writeln!(
                            s,
                            "    loop record {lix}: triangular, outer test pc {pc} around record \
                             {il}  run {}  tail run {}  trips {} x (t0 {:+} per outer trip)  \
                             outer deltas {:?}  inner deltas {:?}  tail deltas {:?}",
                            lr.sid,
                            tail.map_or("-".into(), |t| t.0.to_string()),
                            trips(lr),
                            lr.grow,
                            lr.addr_deltas,
                            inner.addr_deltas,
                            tail.map_or(&[][..], |t| &t.1[..]),
                        )
                    }
                    Some(il) => {
                        let inner = &r.loops[il as usize];
                        writeln!(
                            s,
                            "    loop record {lix}: two-level, outer test pc {pc} around record \
                             {il}  run {}  trips {}x{}  outer deltas {:?}  inner deltas {:?}",
                            lr.sid,
                            trips(lr),
                            trips(inner),
                            lr.addr_deltas,
                            inner.addr_deltas,
                        )
                    }
                };
            }
        }
        if !self.table.rejects.is_empty() {
            let _ = writeln!(s, "  rejects:");
            for &(pc, r) in &self.table.rejects {
                let _ = writeln!(s, "    pc {pc:4}: {}", r.name());
            }
        }
        let _ = writeln!(s, "instruction stream:");
        for (pc, line) in self.bc.disasm().lines().enumerate() {
            let mut mark = String::new();
            if pc < self.table.entry.len() && self.table.entry[pc] != u32::MAX {
                mark = format!("R{}>", self.table.entry[pc]);
            } else if self.table.rejects.iter().any(|&(p, _)| p == pc) {
                mark = "x".into();
            }
            let _ = writeln!(s, "{mark:>4} {line}");
        }
        s
    }
}

/// Per-program native coverage, surfaced through the trace stream and
/// the bench reports so coverage regressions are visible, not silent.
#[derive(Clone, Debug)]
pub struct NativeCoverage {
    /// Regions the matcher lowered.
    pub regions: usize,
    /// Regions entered natively at runtime.
    pub entries: u64,
    /// Runtime fallbacks to the interpreter.
    pub fallbacks: u64,
    /// Loop records replayed: register-tile loops run as one kernel.
    pub loop_records: u64,
    /// Statement instances replayed, one per iteration of a loop record.
    pub instances: u64,
    /// Of `loop_records`, the two-level ones: a loop whose every
    /// iteration runs one whole inner record, replayed as one kernel.
    pub two_level_records: u64,
    /// Of `two_level_records`, the triangular ones: inner trips that grow
    /// with the outer iteration, or a tail run after the inner loop.
    pub triangular_records: u64,
    /// Register-tile moves run in bulk (lane runs).
    pub bulk_moves: u64,
    /// Register-tile moves run per element.
    pub element_moves: u64,
    /// Why regions fell back and moves ran per element: reason → count,
    /// non-zero ones only, descending.
    pub fallback_reasons: Vec<(&'static str, u64)>,
    /// Reject-reason histogram, descending by count.
    pub rejects: Vec<(&'static str, u64)>,
    /// Per region, in program order: its runtime entries and loop records.
    pub region_replay: Vec<RegionReplay>,
}

/// One region's runtime replay counts.
#[derive(Clone, Copy, Debug)]
pub struct RegionReplay {
    /// The region holds a triangular loop record (it may still replay
    /// per row when the record does not fold).
    pub triangular: bool,
    /// Entries that ran natively.
    pub entries: u64,
    /// Loop records replayed.
    pub loop_records: u64,
}

/// Sort a `(name, count)` histogram by descending count, then name.
fn descending(mut h: Vec<(&'static str, u64)>) -> Vec<(&'static str, u64)> {
    h.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    h
}

/// Why the pattern matcher refused to lower a loop nest.  A reject is
/// not an error: the region simply stays on the interpreter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NativeReject {
    /// A barrier loop's bound is not provably lane-invariant.
    NonUniformBounds,
    /// A divergent loop's trip count has no lane-affine class, so the
    /// iteration-space split cannot be constructed.
    DivergentLoop,
    /// The nest contains an instruction the native tier does not model
    /// (register moves, uniform branches, …).
    UnsupportedInstr,
    /// A guard is `thread0_only` or its condition is not lane-affine, so
    /// the box-cut analysis cannot classify it.
    NonAffineGuard,
    /// A load/store subscript has no lane-affine class (gather).
    NonAffineAddress,
    /// A store targets a shared tile, or a register tile at a
    /// lane-varying element.  (Stores to globals lower: they go through
    /// the block's write window like the interpreter's.)
    StoreShape,
    /// An integer slot written in the nest has no lane-affine class, so
    /// the frame writeback could not be reconstructed.
    NonAffineWriteback,
    /// The nest matched but contains no accumulate statement — nothing
    /// to win, so it stays on the interpreter.
    NoStatement,
}

impl NativeReject {
    /// Stable short name, for histograms and the trace stream.
    pub fn name(self) -> &'static str {
        match self {
            NativeReject::NonUniformBounds => "non-uniform-bounds",
            NativeReject::DivergentLoop => "divergent-loop",
            NativeReject::UnsupportedInstr => "unsupported-instr",
            NativeReject::NonAffineGuard => "non-affine-guard",
            NativeReject::NonAffineAddress => "non-affine-address",
            NativeReject::StoreShape => "store-shape",
            NativeReject::NonAffineWriteback => "non-affine-writeback",
            NativeReject::NoStatement => "no-statement",
        }
    }
}

/// The lowering side table for one program.
#[derive(Debug)]
pub(crate) struct NativeTable {
    /// Per-pc region index (`u32::MAX` = no region starts here).
    pub(crate) entry: Vec<u32>,
    pub(crate) regions: Vec<Region>,
    /// `(pc, reason)` for every instruction the matcher refused,
    /// deduplicated, in program order.
    pub(crate) rejects: Vec<(usize, NativeReject)>,
    /// Regions entered natively (runtime, relaxed).
    pub(crate) entries: AtomicU64,
    /// Runtime fallbacks to the interpreter (divergent entry mask, or a
    /// guard/loop-test cut the box analysis could not represent).
    pub(crate) fallbacks: AtomicU64,
    /// Loop records replayed (runtime, relaxed).
    pub(crate) loop_records: AtomicU64,
    /// Statement instances replayed, each iteration of a loop record
    /// counting one (runtime, relaxed).
    pub(crate) instances: AtomicU64,
    /// Of `loop_records`, the two-level ones (runtime, relaxed).
    pub(crate) two_level: AtomicU64,
    /// Of `two_level`, the triangular ones (runtime, relaxed).
    pub(crate) triangular: AtomicU64,
    /// Fallbacks by reason, in [`REGION_FALLBACKS`] order.
    pub(crate) fallback_by: [AtomicU64; REGION_FALLBACKS.len()],
    /// Register-tile moves run in bulk.
    pub(crate) bulk_moves: AtomicU64,
    /// Register-tile moves run per element, by [`MoveFallback::ALL`]
    /// reason.
    pub(crate) element_moves: [AtomicU64; MoveFallback::ALL.len()],
}

/// Why a region fell back at run time: its entry mask diverged, or the
/// preflight met a guard or loop test that does not cut the lane box.
const REGION_FALLBACKS: [&str; 2] = ["entry-mask", "box-cut"];

impl NativeTable {
    /// Count one register-tile move, bulk or per element.
    pub(crate) fn count_move(&self, outcome: Result<(), MoveFallback>) {
        let c = match outcome {
            Ok(()) => &self.bulk_moves,
            Err(why) => &self.element_moves[why as usize],
        };
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// The active-lane set as a rectangular sub-box of the thread block:
/// lanes `(tx, ty)` with `txl ≤ tx < txh`, `tyl ≤ ty < tyh`.  Guards and
/// divergent loop tests refine it by exact single-axis interval cuts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LBox {
    pub(crate) txl: i64,
    pub(crate) txh: i64,
    pub(crate) tyl: i64,
    pub(crate) tyh: i64,
}

impl LBox {
    pub(crate) const EMPTY: LBox = LBox {
        txl: 0,
        txh: 0,
        tyl: 0,
        tyh: 0,
    };

    fn full(bx: i64, by: i64) -> LBox {
        LBox {
            txl: 0,
            txh: bx,
            tyl: 0,
            tyh: by,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.txl >= self.txh || self.tyl >= self.tyh
    }
}

/// One matched loop nest: an annotation over `code[start..resume]`.
#[derive(Debug)]
pub(crate) struct Region {
    /// pc of the outer `LoopInit`.
    pub(crate) start: usize,
    /// pc just past the outer `PopMask` — where the interpreter resumes.
    pub(crate) resume: usize,
    stmts: Vec<NStmt>,
    guards: Vec<GuardInfo>,
    /// Register-tile loops replayed as whole loop records.
    loops: Vec<LoopRec>,
    /// `(pc, action)` sorted by pc — the preflight's dispatch map for
    /// every instruction that is not pure integer control flow.
    pf: Vec<(usize, PfOp)>,
    /// Direct-mapped dispatch: `pf_map[pc - start]` is the `pf` index
    /// plus one, or 0 when the pc is plain control flow.  The preflight
    /// consults this every pc step, so it must be O(1).
    pf_map: Vec<u32>,
    /// Integer slots written inside the region, with their lane-affine
    /// class `(slot, a, b)`: lane value = `env[slot] + a·tx + b·ty`.
    writeback: Vec<(u32, i64, i64)>,
    /// Every slot/guard/address in this region passed the affinity
    /// analysis.  Always true for a constructed region — asserted at
    /// entry so the native path can never run on a rejected nest.
    pub(crate) affine_ok: bool,
    /// Native entries and loop records replayed (runtime, relaxed).
    entries: AtomicU64,
    loop_records: AtomicU64,
}

/// One lowered statement: a run of F-instrs or a shared-memory stage.
#[derive(Debug)]
enum NStmt {
    Run(NRun),
    Stage(NStage),
}

/// A guarded or bare run of floating-point instructions.
#[derive(Debug)]
struct NRun {
    ops: Vec<NOp>,
    /// Trace addresses per instance (one `(r, c)` pair per load/store).
    n_addrs: usize,
    /// pc just past the run.
    exit: usize,
    /// The fused FMA-accumulate shape, when the ops match it exactly.
    hot: Option<Hot>,
}

impl NRun {
    /// Per load and store, in trace order, whether it goes through the
    /// write window: a load of a written global, or a global store.
    fn windowed(&self) -> impl Iterator<Item = bool> + '_ {
        self.ops.iter().filter_map(|op| match op {
            NOp::Load { src, .. } => Some(matches!(src, NSrc::Window(_))),
            NOp::Store { dst, .. } => Some(matches!(dst, NDst::Global(_))),
            _ => None,
        })
    }
}

/// A cooperative shared-memory stage executed inside the region.
#[derive(Debug)]
struct NStage {
    /// Index into `bc.stages`.
    ix: u32,
    /// Guard-bit words per instance: `(rows·cols).div_ceil(64)`.
    words: usize,
    /// Whether guard-true at the four tile corners proves guard-true
    /// everywhere: source coords affine in the tile element (any mode
    /// but `Symmetry`) and every conjunct monotone affine (no `Ne`).
    corners: bool,
}

/// An `IfSplit` guard lowered to box cuts.
#[derive(Debug)]
struct GuardInfo {
    /// Predicate index into `bc.preds`.
    pred: u32,
    /// The `IfSplit`'s empty-branch target (`IfElse` or `PopMask`).
    on_empty: u32,
    /// Whether an else branch follows (`on_empty` is an `IfElse`).
    has_else: bool,
    /// Per-condition lane coefficients `(dA, dB)` of `lhs − rhs`: the
    /// condition value at lane `(tx, ty)` is `d0 + dA·tx + dB·ty`.
    conds: Vec<(i64, i64)>,
}

/// A register-tile loop whose every iteration is one instance of the
/// same hot run with lane-affine addresses that move by a constant per
/// iteration: the preflight records it once, with its trip count, and
/// the replay runs it as one loop kernel.  A *two-level* record is a
/// loop whose every iteration runs one whole inner record (the K-step
/// loop around the register-tile loop): the same run, with the inner
/// record's deltas per inner iteration and this record's per outer one.
#[derive(Debug)]
struct LoopRec {
    /// The hot run the body reduces to.
    sid: u32,
    /// The loop test's variable, bound and exit (its `PopMask`).
    var: u32,
    hi: u32,
    exit: u32,
    /// Per-iteration advance of `var` (positive).
    step: i64,
    /// The trip count, when the bounds are constants.
    trip: Option<i64>,
    /// The inner record a two-level record's body runs.
    inner: Option<u32>,
    /// The guard enclosing the run, if any, with the per-iteration
    /// advance of each condition's `lhs − rhs`.
    guard: Option<(u32, Vec<i64>)>,
    /// Per-iteration advance of each traced address (`(r, c)` per
    /// load/store of the run, in trace order).
    addr_deltas: Vec<i64>,
    /// Every slot the body writes, with its per-iteration advance at the
    /// end of an iteration: the loop's exit state is extrapolated from it.
    exit_deltas: Vec<(u32, i64)>,
    /// Per outer iteration change of the inner loop's trip count: a
    /// triangular record's inner loop runs `t₀ + grow·io` trips in outer
    /// iteration `io` (none below 0); 0 for constant trips.
    grow: i64,
    /// The run following the inner loop in each outer iteration (the
    /// substitution's divide), with its per-iteration address advance.
    tail: Option<(u32, Vec<i64>)>,
    /// How a triangular record (growing inner trips, or a tail) keeps the
    /// global it updates in scratch.
    tri: Option<TriPlan>,
}

/// A triangular record's scratch: every access of its one written global
/// (the accumulator, windowed sources, the tail's loads and stores) has
/// the same lane coefficients, moving one coordinate only, which no
/// iteration moves.  So each lane's elements are its own, the record
/// runs on lane-contiguous copies of whole rows (or columns) of the
/// global, indexed by the other coordinate, and only written ones are
/// stored back.
#[derive(Debug)]
struct TriPlan {
    /// The written global's lane coefficients.
    ga: GAff,
    /// Whether lanes move its columns (scratch rows are matrix rows),
    /// else its rows (scratch rows are matrix columns).
    lane_cols: bool,
}

/// Preflight dispatch at one pc.
#[derive(Clone, Copy, Debug)]
enum PfOp {
    /// The test of loop record `lix`: record the whole loop when its
    /// guard box is provably constant, else walk it per iteration.
    Loop(u32),
    /// Record statement `sid` over the current box, skip to its exit.
    Run(u32),
    /// Resolve stage origin and guard bits for statement `sid`.
    Stage(u32),
    /// Cut the box through guard `gix`, push the else box.
    Guard(u32),
    /// Divergent loop test `var < hi` with lane coefficients `(da, db)`
    /// of `var − hi`: cut the box, exit the loop when it empties.
    Test {
        var: u32,
        hi: u32,
        exit: u32,
        da: i64,
        db: i64,
    },
}

/// One lowered operation; loads/stores resolve their `(r, c)` during the
/// preflight (recorded in the trace), everything else is compile-time.
#[derive(Clone, Copy, Debug)]
enum NOp {
    Const {
        dst: u32,
        v: f32,
    },
    Load {
        dst: u32,
        row: AOp,
        col: AOp,
        src: NSrc,
    },
    Bin {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    Fma {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
        mul_first: bool,
    },
    Store {
        src: u32,
        row: AOp,
        col: AOp,
        dst: NDst,
        op: AssignOp,
    },
}

/// A global operand: the array and the row/col lane coefficients
/// `(ra, rb)`/`(ca, cb)` of its address (the leading dimension is
/// runtime).
#[derive(Clone, Copy, Debug)]
struct GAff {
    g: u32,
    ra: i64,
    rb: i64,
    ca: i64,
    cb: i64,
}

impl GAff {
    /// The element lane `(tx, ty)` addresses, given lane `(0, 0)`'s.
    #[inline]
    fn at(&self, r: i64, c: i64, tx: i64, ty: i64) -> (i64, i64) {
        (
            r + self.ra * tx + self.rb * ty,
            c + self.ca * tx + self.cb * ty,
        )
    }

    /// Inclusive row and column ranges the lanes of `bv` address from
    /// `(r, c)` over the iterations of `steps`, each advancing the
    /// address by `(dr, dc)` for `trip` iterations.
    fn footprint(
        &self,
        (r, c): (i64, i64),
        steps: &[((i64, i64), i64)],
        bv: LBox,
    ) -> [(i64, i64); 2] {
        [
            extent(
                r,
                self.ra,
                self.rb,
                steps.iter().map(|&((dr, _), t)| (dr, t)),
                bv,
            ),
            extent(
                c,
                self.ca,
                self.cb,
                steps.iter().map(|&((_, dc), t)| (dc, t)),
                bv,
            ),
        ]
    }

    /// Whether distinct lanes of a `(bx, by)` block address distinct
    /// elements: the axes that vary must move the address, in
    /// independent directions when both vary.
    fn lanes_own_elements(&self, (bx, by): (i64, i64)) -> bool {
        match (bx > 1, by > 1) {
            (false, false) => true,
            (true, false) => (self.ra, self.ca) != (0, 0),
            (false, true) => (self.rb, self.cb) != (0, 0),
            (true, true) => self.ra * self.cb - self.rb * self.ca != 0,
        }
    }
}

/// A load source with its compile-time lane structure.
#[derive(Clone, Copy, Debug)]
enum NSrc {
    /// Unwritten global, read from the snapshot.
    Global(GAff),
    /// Written global, read through the block's write window (its own
    /// writes first, then the snapshot).
    Window(GAff),
    /// Shared tile: arena offset, leading dimension and the flat per-tx
    /// / per-ty deltas, all compile-time.
    Shared {
        off: i64,
        ld: i64,
        dtx: i64,
        dty: i64,
    },
    /// Register tile at a lane-invariant element (lane-contiguous).
    Reg { x: u32 },
}

/// A store target with its compile-time lane structure.
#[derive(Clone, Copy, Debug)]
enum NDst {
    /// Register tile at a lane-invariant element (lane-contiguous).
    Reg { x: u32 },
    /// Global, written into the block's write window.
    Global(GAff),
}

/// The fused accumulate `acc ±= a*b`: two loads, one multiply, one
/// read-modify-write of a register tile or of a global element each lane
/// owns, executed as a single pass.
#[derive(Clone, Copy, Debug)]
struct Hot {
    a: NSrc,
    b: NSrc,
    sub: bool,
    acc: NDst,
}

// ---------------------------------------------------------------------------
// Compile-time lowering: the pattern matcher.
// ---------------------------------------------------------------------------

/// A parse refusal: the pc of the offending instruction plus the reason.
type RErr = (usize, NativeReject);

/// Scan the instruction stream for lowerable loop nests.  Outer nests
/// that fail keep scanning inward, so a nest with an unsupported outer
/// construct still gets its inner register-tile nest; identical rejects
/// rediscovered by the inward scan are deduplicated.
pub(crate) fn lower(bc: &ByteCode) -> NativeTable {
    let mut entry = vec![u32::MAX; bc.code.len()];
    let mut regions = Vec::new();
    let mut rejects: Vec<(usize, NativeReject)> = Vec::new();
    let mut seen: HashSet<(usize, NativeReject)> = HashSet::new();
    let mut pc = 0usize;
    while pc < bc.code.len() {
        if matches!(bc.code[pc], Instr::LoopInit { .. }) {
            let mut b = RegionBuilder::new(bc);
            match b.parse_loop(pc) {
                Ok(resume) if b.has_store => {
                    entry[pc] = regions.len() as u32;
                    regions.push(b.finish(pc, resume));
                    pc = resume;
                    continue;
                }
                Ok(_) => {
                    if seen.insert((pc, NativeReject::NoStatement)) {
                        rejects.push((pc, NativeReject::NoStatement));
                    }
                }
                Err((at, r)) => {
                    if seen.insert((at, r)) {
                        rejects.push((at, r));
                    }
                }
            }
        }
        pc += 1;
    }
    NativeTable {
        entry,
        regions,
        rejects,
        entries: AtomicU64::new(0),
        fallbacks: AtomicU64::new(0),
        loop_records: AtomicU64::new(0),
        instances: AtomicU64::new(0),
        two_level: AtomicU64::new(0),
        triangular: AtomicU64::new(0),
        fallback_by: Default::default(),
        bulk_moves: AtomicU64::new(0),
        element_moves: Default::default(),
    }
}

struct RegionBuilder<'a> {
    bc: &'a ByteCode,
    stmts: Vec<NStmt>,
    guards: Vec<GuardInfo>,
    loops: Vec<LoopRec>,
    pf: Vec<(usize, PfOp)>,
    writeback: Vec<(u32, i64, i64)>,
    has_store: bool,
}

impl<'a> RegionBuilder<'a> {
    fn new(bc: &'a ByteCode) -> Self {
        RegionBuilder {
            bc,
            stmts: Vec::new(),
            guards: Vec::new(),
            loops: Vec::new(),
            pf: Vec::new(),
            writeback: Vec::new(),
            has_store: false,
        }
    }

    fn finish(mut self, start: usize, resume: usize) -> Region {
        // Loop records are registered after their body, so sort by pc.
        self.pf.sort_by_key(|&(pc, _)| pc);
        debug_assert!(
            self.pf.windows(2).all(|w| w[0].0 < w[1].0),
            "one preflight action per pc"
        );
        let mut pf_map = vec![0u32; resume - start];
        for (ix, &(pc, _)) in self.pf.iter().enumerate() {
            pf_map[pc - start] = ix as u32 + 1;
        }
        Region {
            start,
            resume,
            stmts: self.stmts,
            guards: self.guards,
            loops: self.loops,
            pf: self.pf,
            pf_map,
            writeback: self.writeback,
            affine_ok: true,
            entries: AtomicU64::new(0),
            loop_records: AtomicU64::new(0),
        }
    }

    /// Lane-affine class of a slot, or the reject for slots the affinity
    /// analysis could not classify.
    fn cls(&self, s: usize) -> Result<(i64, i64), NativeReject> {
        self.aop_aff(AOp::Slot(s as u32))
    }

    /// Lane-affine class of an address operand.
    fn aop_aff(&self, a: AOp) -> Result<(i64, i64), NativeReject> {
        self.bc.aop_lane(a).ok_or(NativeReject::NonAffineAddress)
    }

    fn expr_aff(&self, e: &SlotExpr) -> Result<(i64, i64), NativeReject> {
        self.bc.expr_lane(e).ok_or(NativeReject::NonAffineAddress)
    }

    fn uniform_bound(&self, a: AOp) -> Result<(), NativeReject> {
        match self.aop_aff(a) {
            Ok((0, 0)) => Ok(()),
            _ => Err(NativeReject::NonUniformBounds),
        }
    }

    /// Record an integer slot the region writes; its lane-affine class
    /// becomes the writeback formula.
    fn note_write(&mut self, s: u32) -> Result<(), NativeReject> {
        if self.writeback.iter().any(|w| w.0 == s) {
            return Ok(());
        }
        let (a, b) = self
            .cls(s as usize)
            .map_err(|_| NativeReject::NonAffineWriteback)?;
        self.writeback.push((s, a, b));
        Ok(())
    }

    /// Match one loop: `LoopInit` / init `Eval`s / `LoopTest`, body
    /// items, `LoopJump` + `PopMask` at the test's exit.  Barrier
    /// (`uniform`) loops need statically uniform bounds (the interpreter
    /// would otherwise raise a divergence error the native path must not
    /// skip); divergent loops need lane-affine classes for `var`/`hi`
    /// so the test becomes a runtime box cut.  Returns the pc just past
    /// the `PopMask`.
    fn parse_loop(&mut self, pc: usize) -> Result<usize, RErr> {
        let code = &self.bc.code;
        let Instr::LoopInit {
            var,
            hi,
            lo,
            hi_src,
            uniform,
            ..
        } = code[pc]
        else {
            return Err((pc, NativeReject::UnsupportedInstr));
        };
        if uniform {
            self.uniform_bound(lo).map_err(|e| (pc, e))?;
            self.uniform_bound(hi_src).map_err(|e| (pc, e))?;
        } else {
            self.aop_aff(lo)
                .map_err(|_| (pc, NativeReject::NonUniformBounds))?;
            self.aop_aff(hi_src)
                .map_err(|_| (pc, NativeReject::NonUniformBounds))?;
        }
        self.note_write(var).map_err(|e| (pc, e))?;
        self.note_write(hi).map_err(|e| (pc, e))?;
        let mut i = pc + 1;
        while let Instr::Eval { dst, .. } = code[i] {
            self.note_write(dst).map_err(|e| (i, e))?;
            i += 1;
        }
        let Instr::LoopTest {
            var: tvar,
            hi: thi,
            exit,
            uniform: tuni,
        } = code[i]
        else {
            return Err((i, NativeReject::UnsupportedInstr));
        };
        if !tuni {
            // Divergent trip counts: the test value `var − hi` must be
            // lane-affine so each iteration's survivor set is a box cut.
            let (va, vb) = self
                .cls(tvar as usize)
                .map_err(|_| (i, NativeReject::DivergentLoop))?;
            let (ha, hb) = self
                .cls(thi as usize)
                .map_err(|_| (i, NativeReject::DivergentLoop))?;
            self.pf.push((
                i,
                PfOp::Test {
                    var: tvar,
                    hi: thi,
                    exit,
                    da: va - ha,
                    db: vb - hb,
                },
            ));
        }
        let end = exit as usize;
        if end <= i + 1
            || end >= code.len()
            || !matches!(code[end], Instr::PopMask)
            || !matches!(code[end - 1], Instr::LoopJump { .. })
        {
            return Err((i, NativeReject::UnsupportedInstr));
        }
        self.parse_items(i + 1, end - 1)?;
        let trip_one = matches!((lo, hi_src), (AOp::Const(l), AOp::Const(h)) if h - l == 1);
        if !trip_one {
            if let Some(mut rec) = self.loop_record(i, end - 1) {
                if let (AOp::Const(l), AOp::Const(h)) = (lo, hi_src) {
                    rec.trip = Some(((h - l).max(0) + rec.step - 1) / rec.step);
                }
                self.pf.push((i, PfOp::Loop(self.loops.len() as u32)));
                self.loops.push(rec);
            }
        }
        Ok(end + 1)
    }

    /// Try to mark the loop whose test is at `test` (back edge at
    /// `jump`) as a loop record.  Its body must reduce to one guarded or
    /// bare hot run plus integer slot updates and constant trip-1 loops,
    /// and every slot the run's addresses and guard read must advance by
    /// a constant per iteration.  Every slot written in the body is
    /// either *carried* (only `StepAdd`ed: advances by the sum of its
    /// steps) or *overwritten* (`Eval` of an affine unit, or a trip-1
    /// loop's constant bounds) before any read in the same iteration; a
    /// forward pass then gives each read its per-iteration advance.  A
    /// body that runs an inner loop record, optionally inside a guard,
    /// and nothing else but slot updates, makes this a two-level record:
    /// the pass walks one inner iteration, so every advance it finds is
    /// per outer iteration.  When the inner loop's trip count moves with
    /// the outer iteration, or a tail run follows it in the guard, the
    /// record is triangular (see [`TriPlan`]).
    fn loop_record(&self, test: usize, jump: usize) -> Option<LoopRec> {
        let code = &self.bc.code;
        let Instr::LoopTest {
            var,
            hi,
            exit,
            uniform: true,
        } = code[test]
        else {
            return None;
        };
        let mut written: BTreeMap<u32, bool> = BTreeMap::new(); // slot → overwritten
        let mut steps: BTreeMap<u32, i64> = BTreeMap::new();
        for ins in &code[test + 1..jump] {
            match *ins {
                Instr::Eval { dst, .. } => {
                    written.insert(dst, true);
                }
                Instr::LoopInit { var, hi, .. } => {
                    written.insert(var, true);
                    written.insert(hi, true);
                }
                Instr::StepAdd { dst, imm } => {
                    written.entry(dst).or_insert(false);
                    *steps.entry(dst).or_insert(0) += imm;
                }
                _ => {}
            }
        }
        // Per-iteration advance of each slot at the current point of the
        // pass; an overwritten slot has none until its first write.
        let mut d: BTreeMap<u32, i64> = written
            .iter()
            .filter(|&(_, &over)| !over)
            .map(|(&s, _)| (s, steps[&s]))
            .collect();
        let step = *d.get(&var)?;
        if step <= 0 || written.contains_key(&hi) {
            return None;
        }
        let dslot = |d: &BTreeMap<u32, i64>, s: u32| -> Option<i64> {
            if written.contains_key(&s) {
                d.get(&s).copied()
            } else {
                Some(0)
            }
        };
        let dexpr = |d: &BTreeMap<u32, i64>, e: &SlotExpr| -> Option<i64> {
            e.terms
                .iter()
                .try_fold(0i64, |acc, &(s, c)| Some(acc + c * dslot(d, s as u32)?))
        };
        let daop = |d: &BTreeMap<u32, i64>, a: AOp| -> Option<i64> {
            match a {
                AOp::Const(_) => Some(0),
                AOp::Slot(s) => dslot(d, s),
                AOp::Unit(u) => dexpr(d, &self.bc.units[u as usize]),
            }
        };
        let run_deltas = |d: &BTreeMap<u32, i64>, r: &NRun| -> Option<Vec<i64>> {
            let mut out = Vec::with_capacity(2 * r.n_addrs);
            for op in &r.ops {
                if let NOp::Load { row, col, .. } | NOp::Store { row, col, .. } = *op {
                    out.push(daop(d, row)?);
                    out.push(daop(d, col)?);
                }
            }
            Some(out)
        };
        let pf_at = |pc: usize| self.pf.iter().find(|&&(p, _)| p == pc).map(|&(_, op)| op);
        // The guard, if any: `(gix, deltas, branch start, branch end,
        // whether it encloses the inner loop)`.
        let mut guard: Option<(u32, Vec<i64>, usize, usize, bool)> = None;
        let mut run = None;
        let mut tail = None;
        // The inner record, its test pc, and its trips' growth.
        let mut inner: Option<(u32, usize)> = None;
        let mut grow = 0;
        let mut pc = test + 1;
        while pc < jump {
            match code[pc] {
                Instr::Eval { dst, unit } => {
                    let v = dexpr(&d, &self.bc.units[unit as usize])?;
                    d.insert(dst, v);
                }
                Instr::StepAdd { dst, .. } => {
                    // A step on an overwritten slot keeps its advance,
                    // but only once the slot was overwritten this
                    // iteration.
                    d.get(&dst)?;
                }
                Instr::LoopInit {
                    var: v,
                    hi: h,
                    lo: AOp::Const(l),
                    hi_src: AOp::Const(hh),
                    ..
                } if hh - l == 1 && steps.get(&v).is_some_and(|&s| s >= 1) => {
                    d.insert(v, 0);
                    d.insert(h, 0);
                }
                Instr::LoopInit {
                    var: v,
                    hi: h,
                    lo,
                    hi_src,
                    ..
                } if inner.is_none() && run.is_none() => {
                    // The inner record runs the same trips every outer
                    // iteration, or trips growing by a constant.  A slot
                    // it steps would advance by trips × steps per outer
                    // iteration, so the outer body must reset each one
                    // before it.
                    let t = (pc + 1..jump).find(|&i| !matches!(code[i], Instr::Eval { .. }))?;
                    let Some(PfOp::Loop(ilix)) = pf_at(t) else {
                        return None;
                    };
                    let il = &self.loops[ilix as usize];
                    let reset = code[t + 1..il.exit as usize].iter().all(|ins| match ins {
                        Instr::StepAdd { dst, .. } => written.get(dst) == Some(&true),
                        _ => true,
                    });
                    if il.inner.is_some() || !reset {
                        return None;
                    }
                    let (dl, dh) = (daop(&d, lo)?, daop(&d, hi_src)?);
                    grow = dh - dl;
                    if grow != 0 && il.step != 1 {
                        return None;
                    }
                    d.insert(v, dl);
                    d.insert(h, dh);
                    inner = Some((ilix, t));
                }
                Instr::LoopTest { uniform: true, .. } | Instr::LoopJump { .. } | Instr::PopMask => {
                }
                Instr::IfSplit { pred, on_empty } => {
                    let Some(PfOp::Guard(gix)) = pf_at(pc) else {
                        return None;
                    };
                    let g = &self.guards[gix as usize];
                    if guard.is_some() || run.is_some() || g.has_else {
                        return None;
                    }
                    let mut deltas = Vec::new();
                    for c in &self.bc.preds[pred as usize].conds {
                        deltas.push(dexpr(&d, &c.lhs)? - dexpr(&d, &c.rhs)?);
                    }
                    guard = Some((gix, deltas, pc + 1, on_empty as usize, inner.is_none()));
                }
                _ if is_fop(&code[pc]) => {
                    let Some(PfOp::Run(sid)) = pf_at(pc) else {
                        return None;
                    };
                    let NStmt::Run(r) = &self.stmts[sid as usize] else {
                        return None;
                    };
                    if let Some((ilix, _)) = inner.filter(|_| run.is_some()) {
                        // A tail: after the inner loop, reading no slot
                        // the inner loop writes (its trips may vary).
                        let il = &self.loops[ilix as usize];
                        if tail.is_some() || pc <= il.exit as usize {
                            return None;
                        }
                        let inner_slot = |s: u32| il.exit_deltas.iter().any(|e| e.0 == s);
                        for op in &r.ops {
                            if let NOp::Load { row, col, .. } | NOp::Store { row, col, .. } = *op {
                                if [row, col].iter().any(|&a| self.aop_reads(a, &inner_slot)) {
                                    return None;
                                }
                            }
                        }
                        tail = Some((sid, run_deltas(&d, r)?, r.exit));
                        pc = r.exit;
                        continue;
                    }
                    if run.is_some() || r.hot.is_none() {
                        return None;
                    }
                    // A guarded run must be the guard's whole branch:
                    // slot updates inside it would run only while the
                    // box is not empty.  (A guard around the inner loop
                    // is checked below.)
                    let encloses = guard.as_ref().is_some_and(|g| g.4 && inner.is_some());
                    if !encloses && guard.as_ref().is_some_and(|g| (g.2, g.3) != (pc, r.exit)) {
                        return None;
                    }
                    run = Some((sid, run_deltas(&d, r)?, pc));
                    pc = r.exit;
                    continue;
                }
                _ => return None,
            }
            pc += 1;
        }
        let (sid, addr_deltas, run_pc) = run?;
        let NStmt::Run(r) = &self.stmts[sid as usize] else {
            return None;
        };
        let hot = r.hot?;
        let il = inner.map(|(ilix, t)| (&self.loops[ilix as usize], t));
        if let Some((il, _)) = il {
            if il.sid != sid {
                return None;
            }
            // A guard around the inner loop holds it and the tail, and
            // nothing after them.
            if let Some(g) = guard.as_ref().filter(|g| g.4) {
                let last = tail.as_ref().map_or(il.exit as usize + 1, |t| t.2);
                if g.3 != last {
                    return None;
                }
            }
        }
        let tri = if grow != 0 || tail.is_some() {
            let (il, t) = il.expect("only two-level records grow or have tails");
            // The inner run must open the inner body (its addresses are
            // read at the test when the loop runs no trip), the inner
            // body may only step slots, and no guard may sit inside it.
            let steps_only = code[t + 1..il.exit as usize]
                .iter()
                .all(|i| !matches!(i, Instr::Eval { .. } | Instr::LoopInit { .. }));
            if run_pc != t + 1 || !steps_only || guard.as_ref().is_some_and(|g| !g.4) {
                return None;
            }
            let tail_run = tail.as_ref().map(|t| (&self.stmts[t.0 as usize], &t.1[..]));
            Some(self.tri_plan(r, (&il.addr_deltas, &addr_deltas), tail_run)?)
        } else {
            None
        };
        // A global accumulator is gathered once per record, so each lane's
        // element must stay put across iterations.
        if tri.is_none() && matches!(hot.acc, NDst::Global(_)) && addr_deltas[4..6] != [0, 0] {
            return None;
        }
        let exit_deltas = written
            .keys()
            .map(|&s| Some((s, *d.get(&s)?)))
            .collect::<Option<Vec<_>>>()?;
        Some(LoopRec {
            sid,
            var,
            hi,
            exit,
            step,
            trip: None,
            inner: inner.map(|i| i.0),
            guard: guard.map(|(gix, deltas, ..)| (gix, deltas)),
            addr_deltas,
            exit_deltas,
            grow,
            tail: tail.map(|(tsid, deltas, _)| (tsid, deltas)),
            tri,
        })
    }

    /// Whether address operand `a` reads a slot `hit` picks.
    fn aop_reads(&self, a: AOp, hit: &dyn Fn(u32) -> bool) -> bool {
        match a {
            AOp::Const(_) => false,
            AOp::Slot(s) => hit(s),
            AOp::Unit(u) => self.bc.units[u as usize]
                .terms
                .iter()
                .any(|t| hit(t.0 as u32)),
        }
    }

    /// The scratch plan of a triangular record whose hot run advances its
    /// addresses by `deltas` (per inner, per outer iteration), with the
    /// tail run and its per-outer deltas; `None` when its accesses do not
    /// keep each lane to its own row (or column) of one written global.
    fn tri_plan(
        &self,
        run: &NRun,
        (din, dout): (&[i64], &[i64]),
        tail: Option<(&NStmt, &[i64])>,
    ) -> Option<TriPlan> {
        let NDst::Global(acc) = run.hot?.acc else {
            return None;
        };
        let lane_cols = (acc.ra, acc.rb) == (0, 0);
        if lane_cols == ((acc.ca, acc.cb) == (0, 0)) {
            return None;
        }
        let (ka, kb) = if lane_cols {
            (acc.ca, acc.cb)
        } else {
            (acc.ra, acc.rb)
        };
        let (bx, by) = self.bc.block;
        if !crate::vexec::injective(&[(bx, ka, 0), (by, kb, 0)]) {
            return None;
        }
        // The lane coordinate's index in an `(r, c)` pair.
        let l = usize::from(lane_cols);
        let same = |ga: &GAff| {
            (ga.g, ga.ra, ga.rb, ga.ca, ga.cb) == (acc.g, acc.ra, acc.rb, acc.ca, acc.cb)
        };
        // Every window access of a run is one of the accumulator's global,
        // with its lane coefficients, still on the lane coordinate; its
        // other loads read the snapshot or shared memory.
        let owned = |run: &NRun, ds: &[&[i64]]| {
            let mut k = 0;
            for op in &run.ops {
                let on_g = match *op {
                    NOp::Load {
                        src: NSrc::Window(ga),
                        ..
                    }
                    | NOp::Store {
                        dst: NDst::Global(ga),
                        ..
                    } if same(&ga) => true,
                    NOp::Load {
                        src: NSrc::Global(_) | NSrc::Shared { .. },
                        ..
                    } => false,
                    NOp::Load { .. } | NOp::Store { .. } => return false,
                    _ => continue,
                };
                if on_g && ds.iter().any(|d| d[2 * k + l] != 0) {
                    return false;
                }
                k += 1;
            }
            true
        };
        let tail_owned = match tail {
            None => true,
            Some((NStmt::Run(t), td)) => owned(t, &[td]),
            Some((NStmt::Stage(_), _)) => false,
        };
        (owned(run, &[din, dout]) && tail_owned).then_some(TriPlan { ga: acc, lane_cols })
    }

    /// Match a loop body: slot updates, nested loops, shared-memory
    /// stages, guarded and bare floating-point statements.  Anything
    /// else rejects the nest.
    fn parse_items(&mut self, mut i: usize, hi: usize) -> Result<(), RErr> {
        let code = &self.bc.code;
        while i < hi {
            match code[i] {
                Instr::Eval { dst, .. } | Instr::StepAdd { dst, .. } => {
                    self.note_write(dst).map_err(|e| (i, e))?;
                    i += 1;
                }
                Instr::LoopInit { .. } => {
                    i = self.parse_loop(i)?;
                    if i > hi {
                        return Err((i - 1, NativeReject::UnsupportedInstr));
                    }
                }
                Instr::Stage { ix } => {
                    // Block-level macro: origin and guard are resolved
                    // scalar by the preflight, so no affinity constraint
                    // applies to its operands.
                    let st = &self.bc.stages[ix as usize];
                    let words = ((st.rows * st.cols) as usize).div_ceil(64);
                    let sp = &self.bc.preds[st.guard as usize];
                    let corners = st.mode != AllocMode::Symmetry
                        && sp.conds.iter().all(|c| c.op != CmpOp::Ne);
                    let sid = self.stmts.len() as u32;
                    self.pf.push((i, PfOp::Stage(sid)));
                    self.stmts.push(NStmt::Stage(NStage { ix, words, corners }));
                    i += 1;
                }
                Instr::IfSplit { .. } => {
                    i = self.parse_guard(i)?;
                    if i > hi {
                        return Err((i - 1, NativeReject::UnsupportedInstr));
                    }
                }
                Instr::FConst { .. }
                | Instr::FLoad { .. }
                | Instr::FBin { .. }
                | Instr::FFma { .. }
                | Instr::FStore { .. } => {
                    let mut j = i;
                    while j < hi && is_fop(&code[j]) {
                        j += 1;
                    }
                    self.push_run(i, j)?;
                    i = j;
                }
                _ => return Err((i, NativeReject::UnsupportedInstr)),
            }
        }
        Ok(())
    }

    /// Match an `IfSplit` guard: lane-affine conditions become box cuts.
    /// The then (and optional else) branch may hold F-runs, nested
    /// guards and integer slot updates — the interpreter executes
    /// `Eval`/`StepAdd` unmasked whenever the branch is *entered* (any
    /// lane active) and jumps past it otherwise, which is exactly the
    /// preflight's box-emptiness test, so walking the taken branches on
    /// the scalar environment reproduces lane 0 bit for bit.  Returns
    /// the pc just past the guard's `PopMask`.
    fn parse_guard(&mut self, pc: usize) -> Result<usize, RErr> {
        let code = &self.bc.code;
        let Instr::IfSplit { pred, on_empty } = code[pc] else {
            return Err((pc, NativeReject::UnsupportedInstr));
        };
        let sp = &self.bc.preds[pred as usize];
        if sp.thread0_only {
            return Err((pc, NativeReject::NonAffineGuard));
        }
        let mut conds = Vec::new();
        for c in &sp.conds {
            let (la, lb) = self
                .expr_aff(&c.lhs)
                .map_err(|_| (pc, NativeReject::NonAffineGuard))?;
            let (ra, rb) = self
                .expr_aff(&c.rhs)
                .map_err(|_| (pc, NativeReject::NonAffineGuard))?;
            conds.push((la - ra, lb - rb));
        }
        let oe = on_empty as usize;
        if oe <= pc || oe >= code.len() {
            return Err((pc, NativeReject::UnsupportedInstr));
        }
        let (has_else, ret) = match code[oe] {
            Instr::PopMask => (false, oe + 1),
            Instr::IfElse { done } => {
                let dn = done as usize;
                if dn <= oe || dn >= code.len() || !matches!(code[dn], Instr::PopMask) {
                    return Err((oe, NativeReject::UnsupportedInstr));
                }
                (true, dn + 1)
            }
            _ => return Err((pc, NativeReject::UnsupportedInstr)),
        };
        let gix = self.guards.len() as u32;
        self.pf.push((pc, PfOp::Guard(gix)));
        self.guards.push(GuardInfo {
            pred,
            on_empty,
            has_else,
            conds,
        });
        self.parse_branch(pc + 1, oe)?;
        if has_else {
            let Instr::IfElse { done } = code[oe] else {
                unreachable!("checked above");
            };
            self.parse_branch(oe + 1, done as usize)?;
        }
        Ok(ret)
    }

    /// Match a guard branch: F-runs, nested guards, nested loops and
    /// integer slot updates (conditional on the branch being entered —
    /// see [`Self::parse_guard`]).
    fn parse_branch(&mut self, mut i: usize, hi: usize) -> Result<(), RErr> {
        let code = &self.bc.code;
        while i < hi {
            match code[i] {
                Instr::Eval { dst, .. } | Instr::StepAdd { dst, .. } => {
                    self.note_write(dst).map_err(|e| (i, e))?;
                    i += 1;
                }
                Instr::LoopInit { .. } => {
                    i = self.parse_loop(i)?;
                    if i > hi {
                        return Err((i - 1, NativeReject::UnsupportedInstr));
                    }
                }
                Instr::IfSplit { .. } => {
                    i = self.parse_guard(i)?;
                    if i > hi {
                        return Err((i - 1, NativeReject::UnsupportedInstr));
                    }
                }
                Instr::FConst { .. }
                | Instr::FLoad { .. }
                | Instr::FBin { .. }
                | Instr::FFma { .. }
                | Instr::FStore { .. } => {
                    let mut j = i;
                    while j < hi && is_fop(&code[j]) {
                        j += 1;
                    }
                    self.push_run(i, j)?;
                    i = j;
                }
                _ => return Err((i, NativeReject::UnsupportedInstr)),
            }
        }
        Ok(())
    }

    /// Lower one run of F-instrs `code[lo..hi]`.
    fn push_run(&mut self, lo: usize, hi: usize) -> Result<(), RErr> {
        let mut ops = Vec::new();
        let mut n_addrs = 0usize;
        for k in lo..hi {
            match self.bc.code[k] {
                Instr::FConst { dst, v } => ops.push(NOp::Const { dst, v }),
                Instr::FLoad {
                    dst, arr, row, col, ..
                } => {
                    let (ra, rb) = self.aop_aff(row).map_err(|e| (k, e))?;
                    let (ca, cb) = self.aop_aff(col).map_err(|e| (k, e))?;
                    let aff = |g: usize| GAff {
                        g: g as u32,
                        ra,
                        rb,
                        ca,
                        cb,
                    };
                    let src = match arr {
                        ArrRef::Global(g) if self.bc.globals[g].written => NSrc::Window(aff(g)),
                        ArrRef::Global(g) => NSrc::Global(aff(g)),
                        ArrRef::Shared(s) => {
                            let d = &self.bc.smem[s];
                            let ld = d.rows + d.pad;
                            NSrc::Shared {
                                off: self.bc.smem_off[s] as i64,
                                ld,
                                dtx: ra + ca * ld,
                                dty: rb + cb * ld,
                            }
                        }
                        ArrRef::Reg(x) => {
                            if (ra, rb, ca, cb) != (0, 0, 0, 0) {
                                return Err((k, NativeReject::NonAffineAddress));
                            }
                            NSrc::Reg { x: x as u32 }
                        }
                    };
                    n_addrs += 1;
                    ops.push(NOp::Load { dst, row, col, src });
                }
                Instr::FBin { op, dst, a, b } => ops.push(NOp::Bin { op, dst, a, b }),
                Instr::FFma {
                    op,
                    dst,
                    a,
                    b,
                    c,
                    mul_first,
                } => ops.push(NOp::Fma {
                    op,
                    dst,
                    a,
                    b,
                    c,
                    mul_first,
                }),
                Instr::FStore {
                    src,
                    arr,
                    row,
                    col,
                    op,
                    ..
                } => {
                    let (ra, rb) = self.aop_aff(row).map_err(|e| (k, e))?;
                    let (ca, cb) = self.aop_aff(col).map_err(|e| (k, e))?;
                    let dst = match arr {
                        ArrRef::Reg(x) if (ra, rb, ca, cb) == (0, 0, 0, 0) => {
                            NDst::Reg { x: x as u32 }
                        }
                        ArrRef::Global(g) => NDst::Global(GAff {
                            g: g as u32,
                            ra,
                            rb,
                            ca,
                            cb,
                        }),
                        _ => return Err((k, NativeReject::StoreShape)),
                    };
                    self.has_store = true;
                    n_addrs += 1;
                    ops.push(NOp::Store {
                        src,
                        row,
                        col,
                        dst,
                        op,
                    });
                }
                _ => return Err((k, NativeReject::UnsupportedInstr)),
            }
        }

        let hot = detect_hot(&ops, self.bc.block);
        let sid = self.stmts.len() as u32;
        self.pf.push((lo, PfOp::Run(sid)));
        self.stmts.push(NStmt::Run(NRun {
            ops,
            n_addrs,
            exit: hi,
            hot,
        }));
        Ok(())
    }
}

fn is_fop(i: &Instr) -> bool {
    matches!(
        i,
        Instr::FConst { .. }
            | Instr::FLoad { .. }
            | Instr::FBin { .. }
            | Instr::FFma { .. }
            | Instr::FStore { .. }
    )
}

/// Recognize the fused accumulate: `load a; load b; mul; acc ±= t`, with
/// both sources outside the register file (the accumulator may alias a
/// `Reg` source slice, so those stay on the generic path).  A global
/// accumulator must give each lane of the `block` its own element: the
/// loop kernel reads and writes each lane's element independently.
fn detect_hot(ops: &[NOp], block: (i64, i64)) -> Option<Hot> {
    match *ops {
        [NOp::Load {
            dst: la, src: sa, ..
        }, NOp::Load {
            dst: lb, src: sb, ..
        }, NOp::Bin {
            op: BinOp::Mul,
            dst,
            a,
            b,
        }, NOp::Store {
            src, dst: acc, op, ..
        }] if a == la
            && b == lb
            && src == dst
            && !matches!(sa, NSrc::Reg { .. })
            && !matches!(sb, NSrc::Reg { .. })
            && matches!(op, AssignOp::AddAssign | AssignOp::SubAssign)
            && match acc {
                NDst::Reg { .. } => true,
                NDst::Global(ga) => ga.lanes_own_elements(block),
            } =>
        {
            Some(Hot {
                a: sa,
                b: sb,
                sub: matches!(op, AssignOp::SubAssign),
                acc,
            })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Box arithmetic: exact interval cuts over the lane box.
// ---------------------------------------------------------------------------

/// Refine `b` by the condition `op(d0 + da·tx + db·ty, 0)`.  Exact when
/// the condition varies along at most one axis (the survivor set is an
/// interval found by binary search); a two-axis condition is admitted
/// only with a uniform corner-interval verdict.  `None` means the
/// survivor set is not a box — abort to the interpreter.
pub(crate) fn apply_cut(b: LBox, d0: i64, da: i64, db: i64, op: CmpOp) -> Option<LBox> {
    if b.is_empty() {
        return Some(b);
    }
    if da == 0 && db == 0 {
        return Some(if op.eval(d0, 0) { b } else { LBox::EMPTY });
    }
    if db == 0 {
        let (lo, hi) = cut_axis(b.txl, b.txh, d0, da, op)?;
        return Some(LBox {
            txl: lo,
            txh: hi,
            ..b
        });
    }
    if da == 0 {
        let (lo, hi) = cut_axis(b.tyl, b.tyh, d0, db, op)?;
        return Some(LBox {
            tyl: lo,
            tyh: hi,
            ..b
        });
    }
    // Both axes vary: only a uniform verdict keeps the set a box.
    let corners = [
        d0 + da * b.txl + db * b.tyl,
        d0 + da * (b.txh - 1) + db * b.tyl,
        d0 + da * b.txl + db * (b.tyh - 1),
        d0 + da * (b.txh - 1) + db * (b.tyh - 1),
    ];
    let dmin = *corners.iter().min().expect("non-empty");
    let dmax = *corners.iter().max().expect("non-empty");
    match range_verdict(op, dmin, dmax) {
        Some(true) => Some(b),
        Some(false) => Some(LBox::EMPTY),
        None => None,
    }
}

/// True-set of `op(d0 + k·t, 0)` over `t ∈ [lo, hi)` as a half-open
/// interval (`(lo, lo)` when empty).  Monotone comparisons always yield
/// a prefix or suffix; `Ne` with an interior hole is not an interval
/// (`None`).
fn cut_axis(lo: i64, hi: i64, d0: i64, k: i64, op: CmpOp) -> Option<(i64, i64)> {
    debug_assert!(lo < hi && k != 0);
    match op {
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let t = |x: i64| op.eval(d0 + k * x, 0);
            match (t(lo), t(hi - 1)) {
                (true, true) => Some((lo, hi)),
                (false, false) => Some((lo, lo)),
                (true, false) => {
                    // d0 + k·t is monotone, so the predicate flips once:
                    // binary-search the last true.
                    let (mut l, mut r) = (lo, hi - 1);
                    while r - l > 1 {
                        let m = l + (r - l) / 2;
                        if t(m) {
                            l = m;
                        } else {
                            r = m;
                        }
                    }
                    Some((lo, l + 1))
                }
                (false, true) => {
                    let (mut l, mut r) = (lo, hi - 1);
                    while r - l > 1 {
                        let m = l + (r - l) / 2;
                        if t(m) {
                            r = m;
                        } else {
                            l = m;
                        }
                    }
                    Some((r, hi))
                }
            }
        }
        CmpOp::Eq => {
            if d0 % k == 0 {
                let x = -d0 / k;
                if x >= lo && x < hi {
                    Some((x, x + 1))
                } else {
                    Some((lo, lo))
                }
            } else {
                Some((lo, lo))
            }
        }
        CmpOp::Ne => {
            if d0 % k != 0 {
                return Some((lo, hi));
            }
            let x = -d0 / k;
            if x < lo || x >= hi {
                Some((lo, hi))
            } else if x == lo {
                Some((lo + 1, hi))
            } else if x == hi - 1 {
                Some((lo, hi - 1))
            } else {
                None
            }
        }
    }
}

/// The else box `b ∖ t`, when it is itself a box: `t` must share `b`'s
/// extent on one axis and a boundary on the other.
fn complement(b: LBox, t: LBox) -> Option<LBox> {
    if t.is_empty() {
        return Some(b);
    }
    if t == b {
        return Some(LBox::EMPTY);
    }
    if (t.tyl, t.tyh) == (b.tyl, b.tyh) {
        if t.txl == b.txl {
            return Some(LBox { txl: t.txh, ..b });
        }
        if t.txh == b.txh {
            return Some(LBox { txh: t.txl, ..b });
        }
    }
    if (t.txl, t.txh) == (b.txl, b.txh) {
        if t.tyl == b.tyl {
            return Some(LBox { tyl: t.tyh, ..b });
        }
        if t.tyh == b.tyh {
            return Some(LBox { tyh: t.tyl, ..b });
        }
    }
    None
}

/// `op(d, 0)` for every `d ∈ [dmin, dmax]`: `Some(true)` / `Some(false)`
/// when the interval proves the comparison uniform, `None` when it
/// straddles.
pub(crate) fn range_verdict(op: CmpOp, dmin: i64, dmax: i64) -> Option<bool> {
    match op {
        CmpOp::Lt => verdict(dmax < 0, dmin >= 0),
        CmpOp::Le => verdict(dmax <= 0, dmin > 0),
        CmpOp::Gt => verdict(dmin > 0, dmax <= 0),
        CmpOp::Ge => verdict(dmin >= 0, dmax < 0),
        CmpOp::Eq => verdict(dmin == 0 && dmax == 0, dmax < 0 || dmin > 0),
        CmpOp::Ne => verdict(dmax < 0 || dmin > 0, dmin == 0 && dmax == 0),
    }
}

/// `Some(true)` / `Some(false)` when the interval proves the comparison
/// uniform, `None` when it straddles.
#[inline]
fn verdict(all_true: bool, all_false: bool) -> Option<bool> {
    if all_true {
        Some(true)
    } else if all_false {
        Some(false)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Runtime: preflight, trace replay, microkernels, writeback.
// ---------------------------------------------------------------------------

/// Per-worker native scratch (lives inside the interpreter's `VScratch`).
#[derive(Debug, Default)]
pub(crate) struct NativeScratch {
    /// Lane-0 integer frame column, interpreted scalar by the preflight.
    pub(crate) env: Vec<i64>,
    /// Resolved statement instances.  A run record is
    /// `[sid, txl, txh, tyl, tyh, r, c, …]`; a loop record is
    /// `[-(lix + 1), trip, txl, txh, tyl, tyh, r, c, …]` with the first
    /// iteration's addresses; a stage record is
    /// `[sid, r0, c0, guard-bit words…]`.
    pub(crate) trace: Vec<i64>,
    /// A loop record's guard conditions (`lhs − rhs`) at its first
    /// iteration.
    pub(crate) gd0: Vec<i64>,
    /// Packed copies of strided or windowed loop-kernel sources, one per
    /// operand.
    pub(crate) pack: [Vec<f32>; 2],
    /// A global accumulator gathered lane-contiguous for the loop kernel,
    /// or a triangular record's rows.
    pub(crate) acc: Vec<f32>,
    /// Which of a triangular record's rows it wrote.
    pub(crate) rows: Vec<bool>,
    /// Preflight box stack: `(saved box, else box)` per open construct.
    pub(crate) bstack: Vec<(LBox, Option<LBox>)>,
}

/// Whether a loop record reads nothing its global accumulator writes:
/// sources are packed before the loop runs, so a source element the loop
/// also writes would read stale.  `levels` pairs each loop (inner first)
/// with its trip count; the first iteration ran over box `bv` at
/// `addrs`.  The bounding boxes of the accumulator and of each source
/// reading the same global, over the box and all iterations, must be
/// disjoint.
fn record_alias_free(region: &Region, levels: &[(&LoopRec, i64)], bv: LBox, addrs: &[i64]) -> bool {
    let run = run_of(region, levels[0].0.sid);
    let Some(Hot {
        a,
        b,
        acc: NDst::Global(acc),
        ..
    }) = run.hot
    else {
        return true;
    };
    let fp = |ga: GAff, i: usize| {
        // A padding level of one trip spans nothing.
        let mut steps = [((0, 0), 1); 2];
        for (st, &(lr, trip)) in steps.iter_mut().zip(levels) {
            *st = ((lr.addr_deltas[i], lr.addr_deltas[i + 1]), trip);
        }
        ga.footprint((addrs[i], addrs[i + 1]), &steps, bv)
    };
    let accf = fp(acc, 4);
    [(a, 0), (b, 2)].into_iter().all(|(src, i)| match src {
        NSrc::Window(s) if s.g == acc.g => {
            let sf = fp(s, i);
            (0..2).any(|x| sf[x].1 < accf[x].0 || accf[x].1 < sf[x].0)
        }
        _ => true,
    })
}

/// The run statement `sid` (of a loop record or a run's preflight
/// action, which always name runs).
fn run_of(region: &Region, sid: u32) -> &NRun {
    match &region.stmts[sid as usize] {
        NStmt::Run(run) => run,
        NStmt::Stage(_) => unreachable!("statement {sid} is a stage, not a run"),
    }
}

/// Whether a triangular record's first iteration, traced at `rec` (the
/// inner record, then the tail's instance), keeps every access of the
/// written global on one lane coordinate: its lanes then own their rows.
fn tri_lanes_agree(region: &Region, lr: &LoopRec, tp: &TriPlan, rec: &[i64]) -> bool {
    let l = usize::from(tp.lane_cols);
    let run = run_of(region, lr.sid);
    // The accumulator's lane coordinate, which every access must share.
    let at = rec[7 + 4 + l];
    let agree = |run: &NRun, base: usize| {
        let mut on_global = run.windowed().enumerate().filter(|w| w.1);
        on_global.all(|(k, _)| rec[base + 2 * k + l] == at)
    };
    let tail_base = 7 + 2 * run.n_addrs + 5;
    agree(run, 7)
        && lr
            .tail
            .as_ref()
            .is_none_or(|(tsid, _)| agree(run_of(region, *tsid), tail_base))
}

/// Inclusive range of `v0 + a·tx + b·ty + Σ dₖ·kₖ` over the lane box and
/// iterations `kₖ ∈ 0..tripₖ` of each `(dₖ, tripₖ)` in `steps`.
fn extent(
    v0: i64,
    a: i64,
    b: i64,
    steps: impl Iterator<Item = (i64, i64)>,
    bv: LBox,
) -> (i64, i64) {
    let span = |k: i64, lo: i64, hi: i64| ((k * lo).min(k * hi), (k * lo).max(k * hi));
    let mut r = (v0, v0);
    for (k, lo, hi) in [(a, bv.txl, bv.txh - 1), (b, bv.tyl, bv.tyh - 1)]
        .into_iter()
        .chain(steps.map(|(d, trip)| (d, 0, trip - 1)))
    {
        let (l, h) = span(k, lo, hi);
        r = (r.0 + l, r.1 + h);
    }
    r
}

/// The lane box a trace record stores at `t[..4]`.
fn lbox(t: &[i64]) -> LBox {
    LBox {
        txl: t[0],
        txh: t[1],
        tyl: t[2],
        tyh: t[3],
    }
}

/// Append a run instance's box and addresses at `env` to the trace.
fn push_instance(bc: &ByteCode, env: &[i64], run: &NRun, b: LBox, trace: &mut Vec<i64>) {
    trace.extend_from_slice(&[b.txl, b.txh, b.tyl, b.tyh]);
    for op in &run.ops {
        if let NOp::Load { row, col, .. } | NOp::Store { row, col, .. } = *op {
            trace.push(aop_env(bc, env, row));
            trace.push(aop_env(bc, env, col));
        }
    }
}

fn aop_env(bc: &ByteCode, env: &[i64], a: AOp) -> i64 {
    match a {
        AOp::Const(c) => c,
        AOp::Slot(s) => env[s as usize],
        AOp::Unit(u) => bc.units[u as usize].eval(env),
    }
}

impl VBlock<'_> {
    /// Attempt to run region `rix` natively.  Returns the resume pc on
    /// success; `None` means nothing was mutated and the interpreter
    /// must execute the region itself.
    pub(crate) fn try_native(&mut self, nat: &NativeTable, rix: u32) -> Option<usize> {
        let region = &nat.regions[rix as usize];
        // The no-mis-lower guard: a region object only exists for nests
        // the affinity analysis fully accepted.
        debug_assert!(
            region.affine_ok,
            "native region selected for a nest the affinity analysis rejected"
        );
        let why = if !self.mask_full() {
            Some(0)
        } else if !self.native_preflight(region) {
            Some(1)
        } else {
            None
        };
        if let Some(why) = why {
            nat.fallbacks.fetch_add(1, Ordering::Relaxed);
            nat.fallback_by[why].fetch_add(1, Ordering::Relaxed);
            TOTAL_FALLBACKS.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        nat.entries.fetch_add(1, Ordering::Relaxed);
        TOTAL_ENTRIES.fetch_add(1, Ordering::Relaxed);
        let [loops, two_level, tri, instances] = self.native_replay(region);
        nat.loop_records.fetch_add(loops, Ordering::Relaxed);
        region.entries.fetch_add(1, Ordering::Relaxed);
        region.loop_records.fetch_add(loops, Ordering::Relaxed);
        nat.two_level.fetch_add(two_level, Ordering::Relaxed);
        nat.triangular.fetch_add(tri, Ordering::Relaxed);
        nat.instances.fetch_add(instances, Ordering::Relaxed);
        self.native_writeback(region);
        Some(region.resume)
    }

    /// Phase 1: interpret the region's integer control flow on lane 0's
    /// frame column while tracking the active-lane box, proving every
    /// guard and divergent loop test an exact box cut and recording
    /// every resolved address, box and stage guard bit.  Returns false
    /// (unrepresentable cut — abort, nothing mutated) or true with
    /// `nscratch.{env, trace}` filled.
    fn native_preflight(&mut self, region: &Region) -> bool {
        let bc = self.bc;
        let n = self.n;
        let (bxd, byd) = bc.block;
        let mut env = std::mem::take(&mut self.nscratch.env);
        let mut trace = std::mem::take(&mut self.nscratch.trace);
        let mut bstack = std::mem::take(&mut self.nscratch.bstack);
        env.clear();
        trace.clear();
        bstack.clear();
        for s in 0..bc.n_slots {
            env.push(self.frames[s * n]);
        }

        let end = region.resume - 1; // the outer PopMask
        let mut pc = region.start;
        let mut cur = LBox::full(bxd, byd);
        let mut ok = true;
        // The loop records being traced: `(lix, trip, trace offset)` of
        // their first iteration, walked as usual.
        let mut rec: Option<(u32, i64, usize)> = None;
        let mut outer: Option<(u32, i64, usize)> = None;
        'walk: while pc != end {
            let pfix = region.pf_map[pc - region.start];
            if pfix != 0 {
                match region.pf[pfix as usize - 1].1 {
                    PfOp::Loop(lix) => {
                        let lr = &region.loops[lix as usize];
                        // The inner loop opening a triangular record's
                        // first outer iteration is recorded at any trip
                        // count, none included.
                        let tri_first = outer.is_some_and(|(ol, _, ooff)| {
                            let o = &region.loops[ol as usize];
                            o.inner == Some(lix) && o.tri.is_some() && trace.len() == ooff
                        });
                        // Single-level records trace in `rec`, two-level
                        // ones in `outer`: an outer record's first
                        // iteration folds its inner record first.
                        let slot = if lr.inner.is_some() {
                            &mut outer
                        } else {
                            &mut rec
                        };
                        if let Some((rl, trip, off)) = slot.take() {
                            debug_assert_eq!(rl, lix, "records nest two deep");
                            // Back at the test after the first iteration:
                            // fold it into one record and jump to the
                            // exit state.  Else the box may change: this
                            // iteration ran as it is; try again from the
                            // next one.
                            if self.fold_record(region, lix, trip, cur, &mut trace, off) {
                                for &(s, d) in &lr.exit_deltas {
                                    env[s as usize] += (trip - 1) * d;
                                }
                                if let Some(il) = lr.inner.filter(|_| lr.grow != 0) {
                                    // Slots the inner loop steps end
                                    // `trips × step` past their start.
                                    let t0 = trace[off + 2];
                                    let more = (t0 + lr.grow * (trip - 1)).max(0) - t0;
                                    for &(s, d) in &region.loops[il as usize].exit_deltas {
                                        env[s as usize] += more * d;
                                    }
                                }
                                pc = lr.exit as usize;
                                continue;
                            }
                        }
                        let (v, h) = (env[lr.var as usize], env[lr.hi as usize]);
                        if v >= h {
                            if tri_first && v == h {
                                // No trip: the run's addresses are read at
                                // the test, where the run would open.
                                trace.extend_from_slice(&[-(lix as i64) - 1, 1, 0]);
                                push_instance(bc, &env, run_of(region, lr.sid), cur, &mut trace);
                            }
                            pc = lr.exit as usize;
                            continue;
                        }
                        let trip = (h - v + lr.step - 1) / lr.step;
                        if trip >= 2 || tri_first {
                            *slot = Some((lix, trip, trace.len()));
                        }
                        pc += 1;
                    }
                    PfOp::Run(sid) => {
                        let run = run_of(region, sid);
                        trace.push(sid as i64);
                        push_instance(bc, &env, run, cur, &mut trace);
                        pc = run.exit;
                    }
                    PfOp::Stage(sid) => {
                        let NStmt::Stage(stg) = &region.stmts[sid as usize] else {
                            unreachable!("pf stage points at a stage statement");
                        };
                        let st = bc.stages[stg.ix as usize];
                        let r0 = aop_env(bc, &env, st.row0);
                        let c0 = aop_env(bc, &env, st.col0);
                        trace.push(sid as i64);
                        trace.push(r0);
                        trace.push(c0);
                        let base = trace.len();
                        trace.resize(base + stg.words, 0);
                        // Evaluate the stage guard exactly as the
                        // interpreter does (lane 0, thread0 = true,
                        // staging slots set before each test) — but only
                        // record the bits; nothing is mutated yet.  With
                        // affine source coords and monotone conjuncts,
                        // guard-true at all four tile corners proves the
                        // guard over the whole tile (an affine function
                        // on a rectangle takes its extremes at corners),
                        // so the common all-in-bounds stage skips the
                        // O(rows·cols) per-element sweep.
                        let sp = &bc.preds[st.guard as usize];
                        let mut full = stg.corners;
                        if full {
                            'corner: for &c in &[0, st.cols - 1] {
                                for &r in &[0, st.rows - 1] {
                                    let (gsr, gsc) =
                                        stage_src_coords(st.mode, st.src_fill, r0 + r, c0 + c);
                                    env[SR_SLOT] = gsr;
                                    env[SC_SLOT] = gsc;
                                    if !sp.eval(&env, true, self.blank_flags) {
                                        full = false;
                                        break 'corner;
                                    }
                                }
                            }
                        }
                        if full {
                            let total = (st.rows * st.cols) as usize;
                            for (w, slot) in trace[base..base + stg.words].iter_mut().enumerate() {
                                let bits = (total - w * 64).min(64) as u32;
                                *slot = (u64::MAX >> (64 - bits)) as i64;
                            }
                        } else {
                            let mut e = 0usize;
                            for c in 0..st.cols {
                                for r in 0..st.rows {
                                    let (gsr, gsc) =
                                        stage_src_coords(st.mode, st.src_fill, r0 + r, c0 + c);
                                    env[SR_SLOT] = gsr;
                                    env[SC_SLOT] = gsc;
                                    if sp.eval(&env, true, self.blank_flags) {
                                        trace[base + e / 64] |= 1i64 << (e % 64);
                                    }
                                    e += 1;
                                }
                            }
                        }
                        // The interpreter leaves the last element's
                        // source coords in the staging slots.
                        let (gsr, gsc) = stage_src_coords(
                            st.mode,
                            st.src_fill,
                            r0 + st.rows - 1,
                            c0 + st.cols - 1,
                        );
                        env[SR_SLOT] = gsr;
                        env[SC_SLOT] = gsc;
                        pc += 1;
                    }
                    PfOp::Guard(gix) => {
                        let g = &region.guards[gix as usize];
                        if rec.is_some() || outer.is_some() {
                            // The only guard a loop record's body holds.
                            let sp = &bc.preds[g.pred as usize];
                            self.nscratch.gd0.clear();
                            self.nscratch.gd0.extend(
                                sp.conds.iter().map(|c| c.lhs.eval(&env) - c.rhs.eval(&env)),
                            );
                        }
                        match self.guard_boxes(g, &env, cur) {
                            None => {
                                ok = false;
                                break 'walk;
                            }
                            Some((then_b, else_b)) => {
                                bstack.push((cur, else_b));
                                if then_b.is_empty() {
                                    pc = g.on_empty as usize;
                                } else {
                                    cur = then_b;
                                    pc += 1;
                                }
                            }
                        }
                    }
                    PfOp::Test {
                        var,
                        hi,
                        exit,
                        da,
                        db,
                    } => {
                        let d0 = env[var as usize] - env[hi as usize];
                        match apply_cut(cur, d0, da, db, CmpOp::Lt) {
                            None => {
                                ok = false;
                                break 'walk;
                            }
                            Some(nb) if nb.is_empty() => pc = exit as usize,
                            Some(nb) => {
                                cur = nb;
                                pc += 1;
                            }
                        }
                    }
                }
                continue;
            }
            match bc.code[pc] {
                Instr::Eval { dst, unit } => {
                    let v = bc.units[unit as usize].eval(&env);
                    env[dst as usize] = v;
                    pc += 1;
                }
                Instr::StepAdd { dst, imm } => {
                    env[dst as usize] += imm;
                    pc += 1;
                }
                Instr::LoopInit {
                    var,
                    hi,
                    lo,
                    hi_src,
                    ..
                } => {
                    env[var as usize] = aop_env(bc, &env, lo);
                    env[hi as usize] = aop_env(bc, &env, hi_src);
                    bstack.push((cur, None));
                    pc += 1;
                }
                Instr::LoopTest { var, hi, exit, .. } => {
                    // Non-uniform tests are pf entries; this arm is the
                    // statically uniform test on lane 0.
                    pc = if env[var as usize] < env[hi as usize] {
                        pc + 1
                    } else {
                        exit as usize
                    };
                }
                Instr::LoopJump { top } => pc = top as usize,
                Instr::IfElse { done } => {
                    let &(_, else_b) = bstack.last().expect("guard pushed its box");
                    let e = else_b.expect("else box computed at guard entry");
                    if e.is_empty() {
                        pc = done as usize;
                    } else {
                        cur = e;
                        pc += 1;
                    }
                }
                Instr::PopMask => {
                    cur = bstack.pop().expect("balanced mask stack").0;
                    pc += 1;
                }
                _ => unreachable!("unmodeled instruction inside a native region"),
            }
        }
        self.nscratch.env = env;
        self.nscratch.trace = trace;
        self.nscratch.bstack = bstack;
        ok
    }

    /// Try to fold the first iteration of loop record `lix`, traced at
    /// `trace[off..]`, into one record of `trip` iterations:
    /// `[-(lix + 1), outer trip, inner trip, box…, first addresses…]`.
    /// A single-level record folds one run instance (outer trip 1); a
    /// two-level one folds one whole inner record.  Either must keep its
    /// guard box over every iteration and read nothing its global
    /// accumulator writes.
    fn fold_record(
        &self,
        region: &Region,
        lix: u32,
        trip: i64,
        inc: LBox,
        trace: &mut Vec<i64>,
        off: usize,
    ) -> bool {
        let lr = &region.loops[lix as usize];
        let tag = -(lix as i64) - 1;
        let Some(il) = lr.inner else {
            // `[sid, box…, addresses…]`, or nothing when the box was empty.
            let levels = [(lr, trip)];
            let rec = &trace[off..];
            if !(self.loop_box_constant(region, &levels, inc)
                && (rec.is_empty()
                    || record_alias_free(region, &levels, lbox(&rec[1..]), &rec[5..])))
            {
                return false;
            }
            if trace.len() > off {
                trace[off] = tag;
                trace.insert(off + 1, trip);
                trace.insert(off + 1, 1);
            }
            return true;
        };
        // The first iteration traced one inner record, then the tail's
        // instance over the same box.
        let head = 7 + 2 * run_of(region, lr.sid).n_addrs;
        let tail = lr
            .tail
            .as_ref()
            .map(|(tsid, _)| (*tsid as i64, 5 + 2 * run_of(region, *tsid).n_addrs));
        let rec = &trace[off..];
        let one_record = rec.len() == head + tail.map_or(0, |t| t.1)
            && rec[0] == -(il as i64) - 1
            && tail
                .is_none_or(|(tsid, _)| rec[head] == tsid && rec[head + 1..head + 5] == rec[3..7]);
        if !one_record {
            return false;
        }
        let levels = [(&region.loops[il as usize], rec[2]), (lr, trip)];
        if !(self.loop_box_constant(region, &levels, inc)
            && match &lr.tri {
                Some(tp) => tri_lanes_agree(region, lr, tp, rec),
                None => record_alias_free(region, &levels, lbox(&rec[3..]), &rec[7..]),
            })
        {
            return false;
        }
        if tail.is_some() {
            trace.drain(off + head..off + head + 5);
        }
        trace[off] = tag;
        trace[off + 1] = trip;
        true
    }

    /// Whether a record's guard box is the same in all its iterations:
    /// `levels` pairs each loop (inner first) with its trip count, and
    /// each condition (`lhs − rhs`, in `gd0` at the first iteration)
    /// advances by a constant per iteration of each.  `inc` is the box
    /// entering the guard, constant over the loops.  A monotone
    /// comparison of an affine value flips at most once per lane, so the
    /// same cut at the condition's smallest and largest value over the
    /// iterations proves it for all of them; `Eq`/`Ne` need a condition
    /// that does not move.  Cuts are taken per condition over `inc`,
    /// since equal ends of an intersection prove nothing for its parts.
    fn loop_box_constant(&self, region: &Region, levels: &[(&LoopRec, i64)], inc: LBox) -> bool {
        // The guard sits in the inner loop's body (both levels advance
        // it) or around the inner loop (only the outer one does).
        let Some(&(gix, _)) = levels.iter().find_map(|(lr, _)| lr.guard.as_ref()) else {
            return true;
        };
        let g = &region.guards[gix as usize];
        let sp = &self.bc.preds[g.pred as usize];
        sp.conds
            .iter()
            .zip(&g.conds)
            .zip(&self.nscratch.gd0)
            .enumerate()
            .all(|(j, ((c, &(da, db)), &d0))| {
                let (mut lo, mut hi) = (d0, d0);
                for (lr, trip) in levels {
                    let Some((_, deltas)) = &lr.guard else {
                        continue;
                    };
                    let span = deltas[j] * (trip - 1);
                    if span != 0 && matches!(c.op, CmpOp::Eq | CmpOp::Ne) {
                        return false;
                    }
                    lo += span.min(0);
                    hi += span.max(0);
                }
                let first = apply_cut(inc, lo, da, db, c.op);
                first.is_some() && first == apply_cut(inc, hi, da, db, c.op)
            })
    }

    /// Resolve one guard at the current scalar environment into
    /// `(then box, else box)`.  `None` — a cut or the else complement is
    /// not representable as a box — aborts the region.
    fn guard_boxes(&self, g: &GuardInfo, env: &[i64], b: LBox) -> Option<(LBox, Option<LBox>)> {
        let sp = &self.bc.preds[g.pred as usize];
        let mut then_b = b;
        if let Some(ix) = sp.blank_flag {
            if self.blank_flags[ix] == sp.blank_negated {
                then_b = LBox::EMPTY;
            }
        }
        if !then_b.is_empty() {
            for (c, &(da, db)) in sp.conds.iter().zip(&g.conds) {
                let d0 = c.lhs.eval(env) - c.rhs.eval(env);
                then_b = apply_cut(then_b, d0, da, db, c.op)?;
                if then_b.is_empty() {
                    break;
                }
            }
        }
        let else_b = if g.has_else {
            Some(complement(b, then_b)?)
        } else {
            None
        };
        Some((then_b, else_b))
    }

    /// Phase 2: replay the recorded statement instances sequentially —
    /// exactly the interpreter's order, through vector kernels over each
    /// instance's recorded lane box.  A loop record replays all its
    /// iterations in one loop kernel, a triangular one in
    /// [`Self::native_tri`].  Returns the loop records, the two-level and
    /// the triangular ones among them, and the statement instances
    /// replayed.
    fn native_replay(&mut self, region: &Region) -> [u64; 4] {
        let trace = std::mem::take(&mut self.nscratch.trace);
        let [mut loops, mut two_level, mut tri, mut instances] = [0u64; 4];
        let mut off = 0;
        while off < trace.len() {
            let tag = trace[off];
            // A loop record runs `[(inner deltas, trips), (outer deltas,
            // trips)]`; a single-level one has one outer trip.
            let (sid, levels, head) = if tag < 0 {
                let lr = &region.loops[(-tag - 1) as usize];
                let (trip_o, trip_i) = (trace[off + 1], trace[off + 2]);
                if let Some(tp) = &lr.tri {
                    let (len, n) = self.native_tri(region, lr, tp, &trace[off..]);
                    [loops, two_level, tri] = [loops + 1, two_level + 1, tri + 1];
                    instances += n;
                    off += len;
                    continue;
                }
                let levels = match lr.inner {
                    Some(il) => [
                        (&region.loops[il as usize].addr_deltas[..], trip_i),
                        (&lr.addr_deltas[..], trip_o),
                    ],
                    None => [(&lr.addr_deltas[..], trip_i), (&[0; 6][..], 1)],
                };
                // A record of no trip (an unfolded triangular record's
                // first inner loop) does nothing.
                if trip_i > 0 {
                    loops += 1;
                    two_level += lr.inner.is_some() as u64;
                }
                (lr.sid, Some(levels), off + 3)
            } else {
                (tag as u32, None, off + 1)
            };
            match &region.stmts[sid as usize] {
                NStmt::Run(run) => {
                    let b = lbox(&trace[head..]);
                    let addrs = &trace[head + 4..head + 4 + 2 * run.n_addrs];
                    let levels = levels.unwrap_or([(&[0; 6], 1), (&[0; 6], 1)]);
                    let n = levels[0].1 * levels[1].1;
                    match run.hot {
                        Some(hot) if n > 0 => self.native_loop(hot, addrs, levels, b),
                        Some(_) => {}
                        None => self.native_generic(run, addrs, b),
                    }
                    instances += n as u64;
                    off = head + 4 + 2 * run.n_addrs;
                }
                NStmt::Stage(stg) => {
                    let (r0, c0) = (trace[off + 1], trace[off + 2]);
                    let bits = &trace[off + 3..off + 3 + stg.words];
                    self.native_stage(stg.ix, r0, c0, bits);
                    off += 3 + stg.words;
                }
            }
        }
        self.nscratch.trace = trace;
        [loops, two_level, tri, instances]
    }

    /// A triangular record `rec` — `[tag, outer trips, first inner trips,
    /// box…, hot addresses…, tail addresses…]` — over the lane box: every
    /// row (or column) of the written global any iteration touches is
    /// gathered lane-contiguous into scratch, outer iteration `io` runs
    /// `acc ±= a·b` for its `t₀ + grow·io` inner trips and then the tail,
    /// and the written rows are stored back into the window.  Each lane
    /// reads and writes only its own elements, in the interpreter's
    /// order, with two roundings.  Returns the record's length and its
    /// statement instances.
    fn native_tri(
        &mut self,
        region: &Region,
        lr: &LoopRec,
        tp: &TriPlan,
        rec: &[i64],
    ) -> (usize, u64) {
        let n = self.n;
        let (bxd, _) = self.bc.block;
        let il = &region.loops[lr.inner.expect("triangular records are two-level") as usize];
        let run = run_of(region, lr.sid);
        let Some(hot) = run.hot else {
            unreachable!("loop records replay a hot run");
        };
        let tail = lr
            .tail
            .as_ref()
            .map(|(tsid, d)| (run_of(region, *tsid), &d[..]));
        let (to, t0, bv) = (rec[1], rec[2], lbox(&rec[3..]));
        let haddrs = &rec[7..7 + 2 * run.n_addrs];
        let taddrs =
            &rec[7 + 2 * run.n_addrs..7 + 2 * run.n_addrs + tail.map_or(0, |t| 2 * t.0.n_addrs)];
        let trips = |io: i64| (t0 + lr.grow * io).max(0);
        let instances = (0..to).map(trips).sum::<i64>() + tail.map_or(0, |_| to);
        let len = 7 + haddrs.len() + taddrs.len();
        if bv.is_empty() {
            return (len, instances as u64);
        }
        // Scratch rows are indexed by the coordinate lanes do not move.
        let (ix, l) = (usize::from(!tp.lane_cols), usize::from(tp.lane_cols));
        let ga = tp.ga;
        let (din, dout) = (&il.addr_deltas[..], &lr.addr_deltas[..]);
        // The scratch rows span every row index an access of the global
        // takes: `i0 + dio·io + di·k` over the outer iterations and each
        // one's inner trips (one for the tail).
        let mut span = (i64::MAX, i64::MIN);
        let mut widen = |i0: i64, di: i64, dio: i64, hot: bool| {
            for io in 0..to {
                let t = if hot { trips(io) } else { 1 };
                if t > 0 {
                    let (a, b) = (i0 + dio * io, i0 + dio * io + di * (t - 1));
                    span = (span.0.min(a.min(b)), span.1.max(a.max(b)));
                }
            }
        };
        for (k, _) in run.windowed().enumerate().filter(|w| w.1) {
            widen(haddrs[2 * k + ix], din[2 * k + ix], dout[2 * k + ix], true);
        }
        if let Some((t, td)) = tail {
            for (k, _) in t.windowed().enumerate().filter(|w| w.1) {
                widen(taddrs[2 * k + ix], 0, td[2 * k + ix], false);
            }
        }
        let (lo, hi) = span;
        let at = haddrs[4 + l];
        let (w, p) = (
            (bv.txh - bv.txl) as usize,
            ((bv.txh - bv.txl) * (bv.tyh - bv.tyl)) as usize,
        );
        let rows = (hi - lo + 1) as usize;
        // Matrix coordinates of scratch row `i`, at lane (0, 0).
        let rc = |i: i64| if tp.lane_cols { (i, at) } else { (at, i) };
        let mut s = std::mem::take(&mut self.nscratch.acc);
        let mut written = std::mem::take(&mut self.nscratch.rows);
        s.clear();
        s.resize(rows * p, 0.0);
        written.clear();
        written.resize(rows, false);
        let g = ga.g as usize;
        for (k, i) in (lo..=hi).enumerate() {
            let (r, c) = rc(i);
            for ty in bv.tyl..bv.tyh {
                let (gr, gc) = ga.at(r, c, bv.txl, ty);
                let out = &mut s[k * p + (ty - bv.tyl) as usize * w..][..w];
                read_run(
                    Some(&self.windows[g]),
                    self.base[g],
                    gr,
                    gc,
                    (ga.ra, ga.ca),
                    out,
                );
            }
        }
        // Lane row `ty` of scratch row `i`.
        let at_row = |i: i64, ty: i64| (i - lo) as usize * p + (ty - bv.tyl) as usize * w;
        let smem: &[f32] = self.smem;
        let mats = self.base;
        let step = |k: usize| [(din[k], din[k + 1]), (dout[k], dout[k + 1])];
        let operand = |src: NSrc, k: usize| match src {
            NSrc::Window(_) => None,
            _ => Some(walk(src, haddrs[k], haddrs[k + 1], step(k), smem, mats)),
        };
        let (wa, wb) = (operand(hot.a, 0), operand(hot.b, 2));
        let [ta, tb] = &mut self.nscratch.pack;
        ta.resize(w, 0.0);
        tb.resize(w, 0.0);
        // Lane row `ty` of the hot operand at `k` in inner trip `ki` of
        // outer iteration `io`.
        let fetch =
            |s: &[f32], wk: &Option<Walk>, k: usize, ki: i64, io: i64, ty: i64, out: &mut [f32]| {
                match wk {
                    Some(wk) => wk.row_into(wk.dk * ki + wk.dko * io, bv.txl, ty, out),
                    None => {
                        let i = haddrs[k + ix] + din[k + ix] * ki + dout[k + ix] * io;
                        out.copy_from_slice(&s[at_row(i, ty)..][..w]);
                    }
                }
            };
        for io in 0..to {
            for ki in 0..trips(io) {
                let i = haddrs[4 + ix] + din[4 + ix] * ki + dout[4 + ix] * io;
                written[(i - lo) as usize] = true;
                for ty in bv.tyl..bv.tyh {
                    fetch(&s, &wa, 0, ki, io, ty, &mut ta[..w]);
                    fetch(&s, &wb, 2, ki, io, ty, &mut tb[..w]);
                    let acc = &mut s[at_row(i, ty)..][..w];
                    for ((d, a), b) in acc.iter_mut().zip(&ta[..w]).zip(&tb[..w]) {
                        let t = a * b;
                        if hot.sub {
                            *d -= t;
                        } else {
                            *d += t;
                        }
                    }
                }
            }
            let Some((t, td)) = tail else { continue };
            let mut k = 0;
            for op in &t.ops {
                // The next load's or store's `(r, c)` at `io`.
                let mut addr = || {
                    let rc = [0, 1].map(|x| taddrs[2 * k + x] + td[2 * k + x] * io);
                    k += 1;
                    rc
                };
                match *op {
                    NOp::Const { dst, v } => self.fregs[dst as usize * n..][..n].fill(v),
                    NOp::Load { dst, src, .. } => {
                        let rc = addr();
                        let d = &mut self.fregs[dst as usize * n..][..n];
                        for ty in bv.tyl..bv.tyh {
                            let out = &mut d[(ty * bxd + bv.txl) as usize..][..w];
                            match src {
                                NSrc::Window(_) => {
                                    out.copy_from_slice(&s[at_row(rc[ix], ty)..][..w])
                                }
                                _ => walk(src, rc[0], rc[1], [(0, 0); 2], smem, mats)
                                    .row_into(0, bv.txl, ty, out),
                            }
                        }
                    }
                    NOp::Bin { op, dst, a, b } => bin_lanes(self.fregs, n, op, dst, a, b),
                    NOp::Fma {
                        op,
                        dst,
                        a,
                        b,
                        c,
                        mul_first,
                    } => fma_lanes(self.fregs, n, op, dst, [a, b, c], mul_first),
                    NOp::Store { src, op, .. } => {
                        let i = addr()[ix];
                        written[(i - lo) as usize] = true;
                        let v = &self.fregs[src as usize * n..][..n];
                        for ty in bv.tyl..bv.tyh {
                            let d = &mut s[at_row(i, ty)..][..w];
                            let v = &v[(ty * bxd + bv.txl) as usize..][..w];
                            let lanes = d.iter_mut().zip(v);
                            match op {
                                AssignOp::Assign => lanes.for_each(|(d, v)| *d = *v),
                                AssignOp::AddAssign => lanes.for_each(|(d, v)| *d += v),
                                AssignOp::SubAssign => lanes.for_each(|(d, v)| *d -= v),
                            }
                        }
                    }
                }
            }
        }
        // Store the written rows back, under one cover of their span.
        let first = written.iter().position(|&x| x);
        let last = written.iter().rposition(|&x| x);
        if let (Some(a), Some(b)) = (first, last) {
            let (ka, kb) = if tp.lane_cols {
                (ga.ca, ga.cb)
            } else {
                (ga.ra, ga.rb)
            };
            let (la, lb) = extent(at, ka, kb, std::iter::empty(), bv);
            let (ia, ib) = (lo + a as i64, lo + b as i64);
            let win = &mut self.windows[g];
            if tp.lane_cols {
                win.cover(ia, ib, la, lb);
            } else {
                win.cover(la, lb, ia, ib);
            }
            for (k, _) in written.iter().enumerate().filter(|w| *w.1) {
                let (r, c) = rc(lo + k as i64);
                for ty in bv.tyl..bv.tyh {
                    let (gr, gc) = ga.at(r, c, bv.txl, ty);
                    win.write_run(
                        gr,
                        gc,
                        (ga.ra, ga.ca),
                        &s[k * p + (ty - bv.tyl) as usize * w..][..w],
                    );
                }
            }
        }
        self.nscratch.acc = s;
        self.nscratch.rows = written;
        (len, instances as u64)
    }

    /// The loop kernel: `acc ±= a·b` over the lane box for every
    /// iteration of `levels` — `(deltas, trips)` of the inner and the
    /// outer loop, where `deltas` advance `(r, c)` of `a`, `b` and the
    /// accumulator (`addrs`) per iteration.  A plain instance is one
    /// iteration of each.  Windowed sources are packed first, copying
    /// whole lane-row runs from the window and the snapshot; a global
    /// accumulator (one fixed element per lane) is gathered
    /// lane-contiguous, run like a register tile, and stored back into
    /// the window.
    fn native_loop(&mut self, hot: Hot, addrs: &[i64], levels: [(&[i64], i64); 2], bv: LBox) {
        let n = self.n as i64;
        let (bxd, _) = self.bc.block;
        let [(di, ti), (dout, to)] = levels;
        let w = (bv.txh - bv.txl) as usize;
        let mut pack = std::mem::take(&mut self.nscratch.pack);
        let mut gathered = std::mem::take(&mut self.nscratch.acc);
        for (i, src) in [hot.a, hot.b].into_iter().enumerate() {
            if let NSrc::Window(ga) = src {
                let g = ga.g as usize;
                let win = self.bc.globals[g].written.then(|| &self.windows[g]);
                let p = &mut pack[i];
                p.clear();
                p.resize(w * ((bv.tyh - bv.tyl) * ti * to) as usize, 0.0);
                let mut rows = p.chunks_exact_mut(w);
                for ko in 0..to {
                    for ki in 0..ti {
                        let r = addrs[2 * i] + di[2 * i] * ki + dout[2 * i] * ko;
                        let c = addrs[2 * i + 1] + di[2 * i + 1] * ki + dout[2 * i + 1] * ko;
                        for ty in bv.tyl..bv.tyh {
                            let (gr, gc) = ga.at(r, c, bv.txl, ty);
                            let out = rows.next().expect("sized above");
                            read_run(win, self.base[g], gr, gc, (ga.ra, ga.ca), out);
                        }
                    }
                }
            }
        }
        let (r0, c0) = (addrs[4], addrs[5]);
        let acc = match hot.acc {
            NDst::Reg { x } => {
                let d = &self.bc.regs[x as usize];
                let last = |k: usize| addrs[k] + (ti - 1) * di[k] + (to - 1) * dout[k];
                debug_assert!(
                    [(r0, c0), (last(4), last(5))]
                        .iter()
                        .all(|&(r, c)| r >= 0 && r < d.rows && c >= 0 && c < d.cols),
                    "register tile index out of bounds"
                );
                // The accumulator walks the register arena, which
                // `loop_fma` takes mutably, so its `data` stays empty.
                Walk {
                    data: &[],
                    base: (self.bc.reg_off[x as usize] as i64 + r0 + c0 * d.rows) * n,
                    dk: (di[4] + di[5] * d.rows) * n,
                    dko: (dout[4] + dout[5] * d.rows) * n,
                    dtx: 1,
                    dty: bxd,
                }
            }
            NDst::Global(ga) => {
                debug_assert!(
                    di[4..6] == [0, 0] && dout[4..6] == [0, 0],
                    "a global accumulator stays put"
                );
                let g = ga.g as usize;
                gathered.clear();
                gathered.resize(self.n, 0.0);
                for ty in bv.tyl..bv.tyh {
                    let (gr, gc) = ga.at(r0, c0, bv.txl, ty);
                    let l0 = (bv.txl + ty * bxd) as usize;
                    let out = &mut gathered[l0..l0 + w];
                    read_run(
                        Some(&self.windows[g]),
                        self.base[g],
                        gr,
                        gc,
                        (ga.ra, ga.ca),
                        out,
                    );
                }
                Walk {
                    data: &[],
                    base: 0,
                    dk: 0,
                    dko: 0,
                    dtx: 1,
                    dty: bxd,
                }
            }
        };
        // Field-disjoint reborrows: sources read smem / the global
        // snapshot / the packs, the accumulator mutates regs or the
        // gathered copy.
        let smem: &[f32] = self.smem;
        let mats = self.base;
        let [pa, pb] = &mut pack;
        let trips = (ti, to);
        let step = |k: usize| [(di[k], di[k + 1]), (dout[k], dout[k + 1])];
        let a = source(hot.a, &addrs[0..2], step(0), smem, mats, pa, trips, bv);
        let b = source(hot.b, &addrs[2..4], step(2), smem, mats, pb, trips, bv);
        let target: &mut [f32] = match hot.acc {
            NDst::Reg { .. } => self.regs,
            NDst::Global(_) => &mut gathered,
        };
        if hot.sub {
            loop_fma::<true>(target, acc, a, b, trips, bv);
        } else {
            loop_fma::<false>(target, acc, a, b, trips, bv);
        }
        if let NDst::Global(ga) = hot.acc {
            let win = &mut self.windows[ga.g as usize];
            let [(rl, rh), (cl, ch)] = ga.footprint((r0, c0), &[], bv);
            win.cover(rl, rh, cl, ch);
            for ty in bv.tyl..bv.tyh {
                let (gr, gc) = ga.at(r0, c0, bv.txl, ty);
                let l0 = (bv.txl + ty * bxd) as usize;
                win.write_run(gr, gc, (ga.ra, ga.ca), &gathered[l0..l0 + w]);
            }
        }
        self.nscratch.pack = pack;
        self.nscratch.acc = gathered;
    }

    /// Generic vectorized statement: op-by-op over the virtual f32
    /// registers, with addresses taken from the trace instead of
    /// per-lane evaluation.  Loads and stores are
    /// box-restricted (out-of-box addresses may be invalid — that is
    /// exactly what the guard proves); pure arithmetic runs full-width,
    /// since out-of-box virtual registers are never stored.
    fn native_generic(&mut self, run: &NRun, addrs: &[i64], bv: LBox) {
        let n = self.n;
        let (bxd, _) = self.bc.block;
        let mut ai = 0usize;
        for op in &run.ops {
            match *op {
                NOp::Const { dst, v } => self.fregs[dst as usize * n..][..n].fill(v),
                NOp::Load { dst, src, .. } => {
                    let (r, c) = (addrs[ai], addrs[ai + 1]);
                    ai += 2;
                    let doff = dst as usize * n;
                    match src {
                        NSrc::Reg { x } => {
                            let d = &self.bc.regs[x as usize];
                            debug_assert!(
                                r >= 0 && r < d.rows && c >= 0 && c < d.cols,
                                "register tile index out of bounds"
                            );
                            let base =
                                (self.bc.reg_off[x as usize] + (r + c * d.rows) as usize) * n;
                            for ty in bv.tyl..bv.tyh {
                                let l0 = (ty * bxd + bv.txl) as usize;
                                let len = (bv.txh - bv.txl) as usize;
                                self.fregs[doff + l0..doff + l0 + len]
                                    .copy_from_slice(&self.regs[base + l0..base + l0 + len]);
                            }
                        }
                        NSrc::Window(ga) => {
                            let g = ga.g as usize;
                            let win = self.bc.globals[g].written.then(|| &self.windows[g]);
                            let w = (bv.txh - bv.txl) as usize;
                            for ty in bv.tyl..bv.tyh {
                                let (gr, gc) = ga.at(r, c, bv.txl, ty);
                                let l0 = doff + (ty * bxd + bv.txl) as usize;
                                let out = &mut self.fregs[l0..l0 + w];
                                read_run(win, self.base[g], gr, gc, (ga.ra, ga.ca), out);
                            }
                        }
                        _ => {
                            let smem: &[f32] = self.smem;
                            let mats = self.base;
                            let sp = walk(src, r, c, [(0, 0); 2], smem, mats);
                            let dsl = &mut self.fregs[doff..doff + n];
                            for ty in bv.tyl..bv.tyh {
                                let sb = sp.base + sp.dty * ty;
                                let l0 = (ty * bxd) as usize;
                                for tx in bv.txl..bv.txh {
                                    dsl[l0 + tx as usize] = sp.data[(sb + sp.dtx * tx) as usize];
                                }
                            }
                        }
                    }
                }
                NOp::Bin { op, dst, a, b } => bin_lanes(self.fregs, n, op, dst, a, b),
                NOp::Fma {
                    op,
                    dst,
                    a,
                    b,
                    c,
                    mul_first,
                } => fma_lanes(self.fregs, n, op, dst, [a, b, c], mul_first),
                NOp::Store {
                    src,
                    dst: NDst::Global(ga),
                    op,
                    ..
                } => {
                    let (r, c) = (addrs[ai], addrs[ai + 1]);
                    ai += 2;
                    // Lane order, one read-modify-write per lane, exactly
                    // as the interpreter stores.
                    let g = ga.g as usize;
                    for ty in bv.tyl..bv.tyh {
                        for tx in bv.txl..bv.txh {
                            let (gr, gc) = ga.at(r, c, tx, ty);
                            let v = self.fregs[src as usize * n + (ty * bxd + tx) as usize];
                            let new = match op {
                                AssignOp::Assign => v,
                                AssignOp::AddAssign => self.gread(g, gr, gc) + v,
                                AssignOp::SubAssign => self.gread(g, gr, gc) - v,
                            };
                            self.windows[g].set(gr, gc, new);
                        }
                    }
                }
                NOp::Store {
                    src,
                    dst: NDst::Reg { x },
                    op,
                    ..
                } => {
                    let (r, c) = (addrs[ai], addrs[ai + 1]);
                    ai += 2;
                    let d = &self.bc.regs[x as usize];
                    debug_assert!(
                        r >= 0 && r < d.rows && c >= 0 && c < d.cols,
                        "register tile index out of bounds"
                    );
                    let base = (self.bc.reg_off[x as usize] + (r + c * d.rows) as usize) * n;
                    let s = src as usize * n;
                    for ty in bv.tyl..bv.tyh {
                        let l0 = (ty * bxd + bv.txl) as usize;
                        let len = (bv.txh - bv.txl) as usize;
                        let lanes = self.regs[base + l0..base + l0 + len]
                            .iter_mut()
                            .zip(&self.fregs[s + l0..s + l0 + len]);
                        match op {
                            AssignOp::Assign => lanes.for_each(|(d, v)| *d = *v),
                            AssignOp::AddAssign => lanes.for_each(|(d, v)| *d += v),
                            AssignOp::SubAssign => lanes.for_each(|(d, v)| *d -= v),
                        }
                    }
                }
            }
        }
    }

    /// Replay one shared-memory stage from its preflight record: whole
    /// columns `memcpy` when every guard bit is set and the source span
    /// is a plain in-bounds rectangle of an unwritten global, otherwise
    /// the exact per-element walk (guard-false elements stage `0.0`,
    /// exactly like the interpreter).
    fn native_stage(&mut self, ix: u32, r0: i64, c0: i64, bits: &[i64]) {
        let st = self.bc.stages[ix as usize];
        let n = self.n;
        let total = (st.rows * st.cols) as usize;
        let all = bits.iter().map(|w| w.count_ones() as usize).sum::<usize>() == total;
        let src_m = self.base[st.src];
        let fast = all
            && !self.bc.globals[st.src].written
            && st.mode != AllocMode::Symmetry
            && r0 >= 0
            && c0 >= 0
            && r0 + st.rows <= src_m.ld
            && c0 + st.cols <= src_m.cols;
        if fast && st.mode == AllocMode::NoChange {
            let d = &self.bc.smem[st.dst];
            let tld = (d.rows + d.pad) as usize;
            let doff = self.bc.smem_off[st.dst];
            let rows = st.rows as usize;
            for c in 0..st.cols {
                let s0 = (r0 + (c0 + c) * src_m.ld) as usize;
                let d0 = doff + c as usize * tld;
                self.smem[d0..d0 + rows].copy_from_slice(&src_m.data[s0..s0 + rows]);
            }
        } else if fast {
            // Transposed stage: each *source row* lands contiguously in
            // the destination tile, so walk rows and gather the strided
            // source column run directly (no per-element guard/coord
            // machinery).
            let d = &self.bc.smem[st.dst];
            let tld = (d.rows + d.pad) as usize;
            let doff = self.bc.smem_off[st.dst];
            let cols = st.cols as usize;
            for r in 0..st.rows {
                let s0 = r0 + r + c0 * src_m.ld;
                let dst = &mut self.smem[doff + r as usize * tld..][..cols];
                for (c, slot) in dst.iter_mut().enumerate() {
                    *slot = src_m.data[(s0 + c as i64 * src_m.ld) as usize];
                }
            }
        } else {
            let mut e = 0usize;
            for c in 0..st.cols {
                for r in 0..st.rows {
                    let set = (bits[e / 64] >> (e % 64)) & 1 != 0;
                    e += 1;
                    let v = if set {
                        let (gsr, gsc) = stage_src_coords(st.mode, st.src_fill, r0 + r, c0 + c);
                        self.gread(st.src, gsr, gsc)
                    } else {
                        0.0
                    };
                    let sx = match st.mode {
                        AllocMode::NoChange | AllocMode::Symmetry => self.smem_ix(st.dst, r, c),
                        AllocMode::Transpose => self.smem_ix(st.dst, c, r),
                    };
                    self.smem[sx] = v;
                }
            }
        }
        // The interpreter leaves the last element's source coords in the
        // lane-0 staging slots; reproduce that exactly.
        let (gsr, gsc) = stage_src_coords(st.mode, st.src_fill, r0 + st.rows - 1, c0 + st.cols - 1);
        self.frames[SR_SLOT * n] = gsr;
        self.frames[SC_SLOT * n] = gsc;
    }

    /// Phase 3: reconstruct every integer slot the region wrote, per
    /// lane, from the scalar environment and the slot's affine class.
    /// Exact even for divergent loops: the interpreter's slot updates
    /// write all lanes unmasked, so the affine lane relation holds at
    /// region exit.
    fn native_writeback(&mut self, region: &Region) {
        let n = self.n;
        let (bx, by) = self.bc.block;
        for &(s, a, b) in &region.writeback {
            let v0 = self.nscratch.env[s as usize];
            let col = &mut self.frames[s as usize * n..][..n];
            if a == 0 && b == 0 {
                col.fill(v0);
            } else {
                let mut l = 0usize;
                for ty in 0..by {
                    for tx in 0..bx {
                        col[l] = v0 + a * tx + b * ty;
                        l += 1;
                    }
                }
            }
        }
    }
}

/// Strided storage as a loop kernel walks it: the element for inner
/// iteration `k` of outer iteration `ko` at lane `(tx, ty)` is
/// `data[base + k·dk + ko·dko + tx·dtx + ty·dty]`.  No bounds reasoning —
/// `base` extrapolates lane `(0, 0)`, which may sit outside the box (and
/// outside the array); only in-box elements are indexed.
#[derive(Clone, Copy)]
struct Walk<'x> {
    data: &'x [f32],
    base: i64,
    dk: i64,
    dko: i64,
    dtx: i64,
    dty: i64,
}

impl Walk<'_> {
    /// Lanes `tx0..tx0 + out.len()` of lane row `ty`, `off` past the base.
    fn row_into(&self, off: i64, tx0: i64, ty: i64, out: &mut [f32]) {
        let at = self.base + off + self.dtx * tx0 + self.dty * ty;
        for (x, o) in out.iter_mut().enumerate() {
            *o = self.data[(at + self.dtx * x as i64) as usize];
        }
    }

    /// `N` consecutive lanes from flat index `at`, by the tx stride class
    /// (broadcast, contiguous, strided gather).
    #[inline(always)]
    fn lanes<const N: usize>(&self, at: i64) -> [f32; N] {
        match self.dtx {
            0 => [self.data[at as usize]; N],
            1 => self.data[at as usize..at as usize + N]
                .try_into()
                .expect("N lanes"),
            s => std::array::from_fn(|l| self.data[(at + s * l as i64) as usize]),
        }
    }
}

impl<'x> Walk<'x> {
    /// A strided gather that every lane row of the box repeats (no ty
    /// stride) is packed once into `buf`, `[ko][k][tx]`, so each row
    /// reads it contiguously instead of gathering again; the values are
    /// copies, so results do not change.
    fn packed<'p>(self, buf: &'p mut Vec<f32>, (ti, to): (i64, i64), bv: LBox) -> Walk<'p>
    where
        'x: 'p,
    {
        if matches!(self.dtx, 0 | 1) || self.dty != 0 || bv.tyh - bv.tyl < 2 {
            return self;
        }
        let w = bv.txh - bv.txl;
        buf.clear();
        for ko in 0..to {
            for k in 0..ti {
                let at = self.base + k * self.dk + ko * self.dko;
                buf.extend((bv.txl..bv.txh).map(|tx| self.data[(at + tx * self.dtx) as usize]));
            }
        }
        Walk {
            data: buf,
            base: -bv.txl,
            dk: w,
            dko: w * ti,
            dtx: 1,
            dty: 0,
        }
    }
}

/// A source at the trace's resolved `(r, c)`, advancing `(dr, dc)` per
/// inner and per outer iteration (`d`).
fn walk<'x>(
    src: NSrc,
    r: i64,
    c: i64,
    d: [(i64, i64); 2],
    smem: &'x [f32],
    mats: &[&'x Matrix],
) -> Walk<'x> {
    let [(dr, dc), (dro, dco)] = d;
    match src {
        NSrc::Global(ga) => {
            let m = mats[ga.g as usize];
            Walk {
                data: &m.data,
                base: r + c * m.ld,
                dk: dr + dc * m.ld,
                dko: dro + dco * m.ld,
                dtx: ga.ra + ga.ca * m.ld,
                dty: ga.rb + ga.cb * m.ld,
            }
        }
        NSrc::Shared { off, ld, dtx, dty } => Walk {
            data: smem,
            base: off + r + c * ld,
            dk: dr + dc * ld,
            dko: dro + dco * ld,
            dtx,
            dty,
        },
        NSrc::Reg { .. } => unreachable!("register sources resolve to lane slices"),
        NSrc::Window(_) => unreachable!("windowed sources are packed"),
    }
}

/// A loop-kernel operand: a windowed source walks its pack
/// (`[ko][k][ty][tx]` over the box, filled by the caller), any other
/// walks its storage at the trace's `rc`, advancing `d` per inner and
/// outer iteration — packed when a strided gather repeats per lane row.
#[allow(clippy::too_many_arguments)]
fn source<'x>(
    src: NSrc,
    rc: &[i64],
    d: [(i64, i64); 2],
    smem: &'x [f32],
    mats: &[&'x Matrix],
    pack: &'x mut Vec<f32>,
    trips: (i64, i64),
    bv: LBox,
) -> Walk<'x> {
    match src {
        NSrc::Window(_) => {
            let w = bv.txh - bv.txl;
            let plane = w * (bv.tyh - bv.tyl);
            Walk {
                data: pack,
                base: -(bv.txl + bv.tyl * w),
                dk: plane,
                dko: plane * trips.0,
                dtx: 1,
                dty: w,
            }
        }
        _ => walk(src, rc[0], rc[1], d, smem, mats).packed(pack, trips, bv),
    }
}

/// The loop kernel behind every hot run: `acc ±= a·b` over the lane box
/// for `ti` inner iterations within each of `to` outer ones, lane rows
/// cut into chunks of 16, 8, 4 or 1 lanes.  Each lane runs its
/// iterations in order with two roundings (`t = a·b`, then `acc ± t`,
/// never `mul_add`), so lanes may be taken in any order against
/// iterations: each writes only its own register tile and reads shared
/// memory or unwritten globals, which nothing in the loop writes.  A
/// chunk keeps its accumulators across both loops: in registers when
/// they do not move, else in place in the arena, where every outer
/// iteration finds the inner one's.
fn loop_fma<const SUB: bool>(
    regs: &mut [f32],
    acc: Walk,
    a: Walk,
    b: Walk,
    trips: (i64, i64),
    bv: LBox,
) {
    for ty in bv.tyl..bv.tyh {
        let mut tx = bv.txl;
        while tx < bv.txh {
            let at = |w: &Walk| w.base + w.dtx * tx + w.dty * ty;
            let (o, oa, ob) = (at(&acc), at(&a), at(&b));
            let left = bv.txh - tx;
            tx += if left >= 16 {
                chunk::<SUB, 16>(regs, o, &acc, &a, oa, &b, ob, trips)
            } else if left >= 8 {
                chunk::<SUB, 8>(regs, o, &acc, &a, oa, &b, ob, trips)
            } else if left >= 4 {
                chunk::<SUB, 4>(regs, o, &acc, &a, oa, &b, ob, trips)
            } else {
                chunk::<SUB, 1>(regs, o, &acc, &a, oa, &b, ob, trips)
            };
        }
    }
}

/// `N` lanes of [`loop_fma`] starting at accumulator index `o` and source
/// indices `oa`/`ob`; returns `N`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn chunk<const SUB: bool, const N: usize>(
    regs: &mut [f32],
    o: i64,
    acc: &Walk,
    a: &Walk,
    oa: i64,
    b: &Walk,
    ob: i64,
    (ti, to): (i64, i64),
) -> i64 {
    let fma = |r: &mut [f32; N], av: [f32; N], bv: [f32; N]| {
        for l in 0..N {
            let t = av[l] * bv[l];
            if SUB {
                r[l] -= t;
            } else {
                r[l] += t;
            }
        }
    };
    // Each pointer walks the inner loop, then jumps to the start of the
    // next outer iteration.
    let (ja, jb, jo) = (a.dko - ti * a.dk, b.dko - ti * b.dk, acc.dko - ti * acc.dk);
    let (mut pa, mut pb) = (oa, ob);
    if acc.dk == 0 {
        // The accumulators stay put over the inner loop: keep them in
        // registers, storing them at each outer step.
        let mut po = o as usize;
        let mut r: [f32; N] = regs[po..po + N].try_into().expect("N lanes");
        for ko in 0..to {
            for _ in 0..ti {
                fma(&mut r, a.lanes::<N>(pa), b.lanes::<N>(pb));
                pa += a.dk;
                pb += b.dk;
            }
            pa += ja;
            pb += jb;
            if acc.dko != 0 {
                regs[po..po + N].copy_from_slice(&r);
                if ko + 1 < to {
                    po = (po as i64 + acc.dko) as usize;
                    r = regs[po..po + N].try_into().expect("N lanes");
                }
            }
        }
        regs[po..po + N].copy_from_slice(&r);
    } else {
        let mut po = o;
        for _ in 0..to {
            for _ in 0..ti {
                let r: &mut [f32; N] = (&mut regs[po as usize..po as usize + N])
                    .try_into()
                    .expect("N lanes");
                fma(r, a.lanes::<N>(pa), b.lanes::<N>(pb));
                pa += a.dk;
                pb += b.dk;
                po += acc.dk;
            }
            pa += ja;
            pb += jb;
            po += jo;
        }
    }
    N as i64
}
