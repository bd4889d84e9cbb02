//! Linear-bytecode lowering: the one compilation stage between a
//! transformed [`Program`] and execution.
//!
//! [`ByteCode::compile`] extracts the launch shape and walks the
//! per-thread body once, resolving names as it goes:
//!
//! * every variable becomes a slot in a flat per-thread frame
//!   (`Vec<i64>`), so affine forms and predicates evaluate with integer
//!   indexing only (see [`oa_loopir::slots`]); size parameters, derived
//!   ceil-div parameters and bound scalar parameters fold to constants;
//! * every array becomes an [`ArrRef`]: globals index a table, shared and
//!   register tiles dense per-block arenas;
//! * every guard's `blank_zero` reference becomes an index into the
//!   runtime blank-flag vector.
//!
//! The walk emits a flat `Vec` of fixed-size [`Instr`]uctions over
//!
//! * **virtual f32 registers** — every scalar expression tree becomes a
//!   short register program (loads, binary ops, fused multiply-adds);
//! * **address units** — the distinct [`SlotExpr`] affine forms of the
//!   program, interned into one table ([`ByteCode::units`]) so the
//!   optimizer can reason about them by index;
//! * **jumps** — loop and guard structure becomes `LoopTest`/`LoopJump`/
//!   branch instructions over a program counter, with an explicit mask
//!   stack replacing per-thread control flow (see [`crate::vexec`]).
//!
//! Between lowering and linearization an optimizer pipeline runs over a
//! structured form in which loops and guards still nest:
//!
//! 1. **constant folding** — affine forms with no live terms collapse to
//!    immediates, single-term unit-coefficient forms collapse to plain
//!    slot reads, constant guards select a branch at compile time, and
//!    constant scalar subtrees fold to literals;
//! 2. **loop-invariant hoisting** — a unit whose terms are all invariant
//!    in a loop is evaluated once into a cache slot at loop entry
//!    (`pre`), recursively liftable through enclosing loops;
//! 3. **strength reduction** — a unit of the form `c·var + invariant`
//!    is initialized once per loop entry and advanced by `c` per
//!    iteration with an incremental add, removing the per-iteration
//!    multiply-accumulate chain;
//! 4. **FMA fusion** — `a*b ± c` / `c ± a*b` scalar trees become one
//!    [`Instr::FFma`] with the oracle's exact two-rounding semantics and
//!    operand order preserved.
//!
//! The result executes on the lane-vectorized interpreter in
//! [`crate::vexec`], or on the native tier built over it
//! ([`crate::native`]), and is bit-identical to the tree-walking oracle
//! on every generated kernel (enforced by the `engine_differential` and
//! `bytecode_differential` test suites).

use oa_loopir::arrays::{AllocMode, Fill, MemSpace};
use oa_loopir::expr::{AffineExpr, Predicate};
use oa_loopir::interp::Bindings;
use oa_loopir::nest::MapKernel;
use oa_loopir::scalar::{BinOp, ScalarExpr};
use oa_loopir::slots::{SlotExpr, SlotMap, SlotPred};
use oa_loopir::stmt::{AssignOp, RegTile, Stmt};
use oa_loopir::Program;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::exec::{has_barrier, ExecError};
use crate::launch::{extract_launch, Builtin};
use crate::vexec::{frame_zeroes, plan_move, MoveFallback, MovePlan};
use crate::window::Hints;

/// The per-thread specials, registered as frame slots `0..6` before any
/// program variable: the thread indices, then the staging (`__sr`/`__sc`)
/// and register-tile (`__gr`/`__gc`) coordinates guards may mention.
const SPECIALS: [&str; 6] = ["__tx", "__ty", "__sr", "__sc", "__gr", "__gc"];
pub(crate) const TX_SLOT: usize = 0;
pub(crate) const TY_SLOT: usize = 1;
pub(crate) const SR_SLOT: usize = 2;
pub(crate) const SC_SLOT: usize = 3;
pub(crate) const GR_SLOT: usize = 4;
pub(crate) const GC_SLOT: usize = 5;

/// The next [`ByteCode::id`]; 0 is never issued.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A resolved array reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ArrRef {
    /// Index into the global-array table.
    Global(usize),
    /// Index into the per-block shared-tile arena.
    Shared(usize),
    /// Index into the per-block register-tile arena (per thread).
    Reg(usize),
}

/// One global array of the program.
#[derive(Clone, Debug)]
pub(crate) struct GlobalInfo {
    pub(crate) name: String,
    /// Whether the kernel body ever writes this array. Read-only arrays
    /// get no write window and skip its lookup entirely.
    pub(crate) written: bool,
}

/// Shared-tile shape.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SmemDecl {
    pub(crate) rows: i64,
    pub(crate) cols: i64,
    pub(crate) pad: i64,
}

/// Register-tile shape.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RegDecl {
    pub(crate) rows: i64,
    pub(crate) cols: i64,
}

/// Static lane-structure of a load/store address, computed by
/// [`mark_lanes`].
///
/// `Affine { lr, lc }` means both subscripts are affine in the lane
/// index: `row(lane) = row(l₀) + lr·(lane−l₀)` and likewise `col` with
/// `lc`, for any active lane `l₀`.  `Affine { 0, 0 }` is a fully
/// *uniform* address (one read, broadcast); a nonzero class lets the
/// interpreter turn a gather into a constant-stride walk — stride 1 over
/// a column-major global is the coalesced-load pattern, which becomes a
/// plain slice copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AddrClass {
    /// Per-lane evaluation required.
    Generic,
    /// Row/col advance by `lr`/`lc` per lane.
    Affine { lr: i64, lc: i64 },
}

impl AddrClass {
    /// The fully lane-invariant class.
    pub(crate) const UNIFORM: AddrClass = AddrClass::Affine { lr: 0, lc: 0 };
}

/// An address operand: how an instruction obtains an i64 index value.
///
/// After optimization most operands are `Const` or `Slot`; `Unit` (a full
/// affine evaluation) survives only where hoisting and strength reduction
/// do not apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AOp {
    /// A compile-time constant.
    Const(i64),
    /// The current value of one frame slot.
    Slot(u32),
    /// Full evaluation of `units[ix]` over the lane's frame.
    Unit(u32),
}

/// One bytecode instruction.
///
/// Control flow is expressed with explicit program-counter targets; the
/// interpreter maintains a mask stack (`LoopInit`/`IfSplit` push,
/// `PopMask` pops) so divergent lanes are handled by masking rather than
/// per-thread traversal.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Instr {
    /// `frame[dst] = units[unit]` for every lane (cache-slot fill).
    Eval { dst: u32, unit: u32 },
    /// `frame[dst] += imm` for every lane (loop step / strength-reduced
    /// address advance).
    StepAdd { dst: u32, imm: i64 },
    /// Enter a loop: push the mask, evaluate bounds **once** per lane
    /// (`frame[var] = lo`, `frame[hi] = hi_src`), and for barrier loops
    /// (`uniform`) require the bounds to agree across all lanes.
    LoopInit {
        var: u32,
        hi: u32,
        lo: AOp,
        hi_src: AOp,
        uniform: bool,
        label: u32,
    },
    /// `active &= frame[var] < frame[hi]`; jump to `exit` (the matching
    /// `PopMask`) when no lane remains. When `uniform` the bounds are
    /// statically lane-invariant and the interpreter tests lane 0 only
    /// (all lanes enter and exit together, the mask is untouched).
    LoopTest {
        var: u32,
        hi: u32,
        exit: u32,
        uniform: bool,
    },
    /// Unconditional back-edge to the loop's `LoopTest`.
    LoopJump { top: u32 },
    /// Unconditional forward jump (then→end over an else branch).
    Jump { target: u32 },
    /// Uniform guard enclosing a barrier: evaluate the predicate on every
    /// lane (lane 0 is thread 0), error on divergence, fall through on
    /// true, jump on false. Does not touch the mask stack.
    BranchUniform { pred: u32, if_false: u32 },
    /// Divergent guard: push `(saved, pred-lanes)`, activate
    /// `saved ∧ pred`; jump to `on_empty` (the `IfElse`, or the `PopMask`
    /// when there is no else branch) if that is empty.
    IfSplit { pred: u32, on_empty: u32 },
    /// Flip to the else lanes: activate `saved ∧ ¬pred`; jump to `done`
    /// (the `PopMask`) if that is empty.
    IfElse { done: u32 },
    /// Restore the saved mask and pop.
    PopMask,
    /// `freg[dst] = v` for every lane.
    FConst { dst: u32, v: f32 },
    /// An unbound scalar parameter was reached by at least one lane:
    /// panic with its name, exactly like the oracle.
    FParamPanic { name: u32 },
    /// Masked load: `freg[dst] = arr[row][col]` per active lane. `addr`
    /// carries the static lane-structure of the address: uniform
    /// addresses broadcast one read, lane-affine addresses walk a
    /// constant stride instead of evaluating subscripts per lane.
    FLoad {
        dst: u32,
        arr: ArrRef,
        row: AOp,
        col: AOp,
        addr: AddrClass,
    },
    /// `freg[dst] = freg[a] op freg[b]` for every lane.
    FBin { op: BinOp, dst: u32, a: u32, b: u32 },
    /// Fused multiply-add with the oracle's two-rounding semantics:
    /// `t = a*b` (rounded), then `t op c` when `mul_first`, `c op t`
    /// otherwise — never a single-rounding hardware FMA, so results stay
    /// bit-identical to the unfused oracle evaluation.
    FFma {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
        mul_first: bool,
    },
    /// Masked store with read-modify-write for `+=`/`-=`, per active
    /// lane. A uniform `addr` on a register tile runs as one contiguous
    /// vector op (each lane owns its register file).
    FStore {
        src: u32,
        arr: ArrRef,
        row: AOp,
        col: AOp,
        op: AssignOp,
        addr: AddrClass,
    },
    /// Cooperative shared-memory stage (block-level macro;
    /// `stages[ix]`).
    Stage { ix: u32 },
    /// Register-tile load/store loop nest (per-lane macro; `moves[ix]`).
    Move { ix: u32 },
    /// Zero a register tile, per active lane.
    RegZero { reg: u32 },
}

/// Side-table entry for [`Instr::Stage`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct StageOp {
    pub(crate) dst: usize,
    pub(crate) src: usize,
    pub(crate) row0: AOp,
    pub(crate) col0: AOp,
    pub(crate) rows: i64,
    pub(crate) cols: i64,
    pub(crate) mode: AllocMode,
    pub(crate) src_fill: Fill,
    pub(crate) guard: u32,
}

/// Side-table entry for [`Instr::Move`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct MoveOp {
    pub(crate) load: bool,
    pub(crate) reg: usize,
    pub(crate) global: usize,
    pub(crate) row0: AOp,
    pub(crate) col0: AOp,
    pub(crate) row_stride: i64,
    pub(crate) col_stride: i64,
    pub(crate) rows: i64,
    pub(crate) cols: i64,
    pub(crate) guard: u32,
}

/// A program lowered to linear bytecode: flat instruction stream plus the
/// interned side tables. Compile once, execute many times on the
/// lane-vectorized interpreter ([`crate::vexec`]).
#[derive(Clone, Debug)]
pub struct ByteCode {
    /// Grid dimensions `(gx, gy)`.
    pub grid: (i64, i64),
    /// Block dimensions `(bx, by)` in threads.
    pub block: (i64, i64),
    /// Lane-frame length in i64 slots (specials and program variables,
    /// then the loop-bound and cache slots the lowering adds).
    pub(crate) n_slots: usize,
    /// Virtual f32 register file size per lane.
    pub(crate) n_fregs: usize,
    /// Mapped-variable slots and the builtin index each takes.
    pub(crate) binds: Vec<(usize, Builtin)>,
    pub(crate) code: Vec<Instr>,
    /// Interned affine address units.
    pub(crate) units: Vec<SlotExpr>,
    /// Interned guard predicates.
    pub(crate) preds: Vec<SlotPred>,
    pub(crate) stages: Vec<StageOp>,
    pub(crate) moves: Vec<MoveOp>,
    /// Loop labels, for barrier-divergence diagnostics.
    pub(crate) labels: Vec<String>,
    /// Names of unbound scalar parameters ([`Instr::FParamPanic`]).
    pub(crate) params: Vec<String>,
    pub(crate) globals: Vec<GlobalInfo>,
    pub(crate) smem: Vec<SmemDecl>,
    /// Flat f32 offset of each shared tile in the per-block arena.
    pub(crate) smem_off: Vec<usize>,
    /// Total shared-arena length in f32 elements.
    pub(crate) smem_len: usize,
    pub(crate) regs: Vec<RegDecl>,
    /// Element offset of each register tile (pre-lane; the arena is
    /// element-major over lanes).
    pub(crate) reg_off: Vec<usize>,
    /// Total register-arena length in elements per lane.
    pub(crate) reg_len: usize,
    /// `(global index, fill)` per runtime blank-zero check; flag `i` of the
    /// runtime flag vector is computed from entry `i`.
    pub(crate) blank_checks: Vec<(usize, Fill)>,
    /// Flag-vector length; may exceed `blank_checks.len()` when guards
    /// reference arrays with no check (those flags stay `false`, as in the
    /// oracle).
    pub(crate) n_blank_flags: usize,
    pub(crate) prologues: Vec<MapKernel>,
    /// Pre-resolved values for every name the prologue extents mention.
    pub(crate) prologue_env: HashMap<String, i64>,
    /// Per-slot lane-affinity classes from [`mark_lanes`] — the loop and
    /// address metadata the native lowering's pattern matcher consumes.
    pub(crate) lane_cls: Vec<Lane>,
    /// Per-global write-window sizing hints ([`crate::vexec`]).
    pub(crate) hints: Hints,
    /// Per register-tile move, its bulk form or why it has none
    /// ([`crate::vexec`]).
    pub(crate) move_plans: Vec<Result<MovePlan, MoveFallback>>,
    /// This compilation's process-unique id: a worker keeps its lane
    /// frame across blocks of the same id ([`crate::vexec`]).
    pub(crate) id: u64,
    /// The frame slots a block may read before writing them, which a kept
    /// frame clears; `None` when the frame is never kept.
    pub(crate) frame_zeroes: Option<Vec<u32>>,
}

impl ByteCode {
    /// Lower `p` for concrete `bindings`: launch extraction, the
    /// resolving walk over the per-thread body, the optimizer pipeline and
    /// linearization.
    pub fn compile(p: &Program, bindings: &Bindings) -> Result<ByteCode, ExecError> {
        let launch = extract_launch(p, bindings)?;

        // Slot order: the specials, the mapped variables, then every loop
        // variable in pre-order — all before the lowering's fresh slots.
        let mut slots = SlotMap::new();
        for name in SPECIALS {
            slots.register(name);
        }
        let binds: Vec<(usize, Builtin)> = launch
            .binds
            .iter()
            .map(|(v, b)| (slots.register(v), *b))
            .collect();

        // Array tables: globals keep their names (for buffer lookup and
        // window merge); shared/register tiles get dense arena indices.
        let mut arr_refs = HashMap::new();
        let mut globals = Vec::new();
        let (mut smem, mut smem_off, mut smem_len) = (Vec::new(), Vec::new(), 0usize);
        let (mut regs, mut reg_off, mut reg_len) = (Vec::new(), Vec::new(), 0usize);
        for a in &p.arrays {
            let r = match a.space {
                MemSpace::Global => {
                    globals.push(GlobalInfo {
                        name: a.name.clone(),
                        written: false,
                    });
                    ArrRef::Global(globals.len() - 1)
                }
                MemSpace::Shared => {
                    let d = SmemDecl {
                        rows: a.rows.as_const().expect("shared dims are constant"),
                        cols: a.cols.as_const().expect("shared dims are constant"),
                        pad: a.pad,
                    };
                    smem_off.push(smem_len);
                    smem_len += ((d.rows + d.pad) * d.cols) as usize;
                    smem.push(d);
                    ArrRef::Shared(smem.len() - 1)
                }
                MemSpace::Reg => {
                    let d = RegDecl {
                        rows: a.rows.as_const().expect("reg dims constant"),
                        cols: a.cols.as_const().expect("reg dims constant"),
                    };
                    reg_off.push(reg_len);
                    reg_len += (d.rows * d.cols) as usize;
                    regs.push(d);
                    ArrRef::Reg(regs.len() - 1)
                }
            };
            arr_refs.insert(a.name.clone(), r);
        }
        declare(&launch.inner, &mut slots, &arr_refs, &mut globals);

        let mut lw = Lower {
            program: p,
            bindings,
            n_slots: slots.len(),
            slots,
            arr_refs,
            blank_index: HashMap::new(),
            n_blank_flags: 0,
            units: Vec::new(),
            unit_ix: HashMap::new(),
            preds: Vec::new(),
            stages: Vec::new(),
            moves: Vec::new(),
            labels: Vec::new(),
            params: Vec::new(),
            max_fregs: 0,
        };

        // Runtime blank-zero checks, in program order: flag i belongs to
        // check i. Guards referencing unchecked arrays get extra
        // always-false flags appended during lowering below.
        let mut blank_checks = Vec::new();
        for chk in &p.blank_checks {
            let decl = p
                .array(&chk.array)
                .ok_or_else(|| ExecError::MissingBuffer(chk.array.clone()))?;
            let g = lw.global(&chk.array)?;
            lw.blank_index.insert(chk.array.clone(), blank_checks.len());
            blank_checks.push((g, decl.fill));
            lw.n_blank_flags += 1;
        }

        let mut nodes = lw.lower_stmts(&launch.inner)?;
        lw.optimize(&mut nodes);
        let mut code = Vec::new();
        emit_nodes(nodes, &mut code);
        let lane_cls = mark_lanes(&mut code, &lw.units, lw.n_slots, launch.block, &binds);

        // Resolve every name the prologue extents mention so execution
        // needs no Program/Bindings back-reference.
        let mut prologue_env = HashMap::new();
        for mk in &p.prologues {
            for name in mk.rows.vars().chain(mk.cols.vars()) {
                prologue_env.insert(name.to_string(), p.resolve(name, bindings));
            }
        }

        let mut bc = ByteCode {
            grid: launch.grid,
            block: launch.block,
            n_slots: lw.n_slots,
            n_fregs: lw.max_fregs,
            binds,
            code,
            units: lw.units,
            preds: lw.preds,
            stages: lw.stages,
            moves: lw.moves,
            labels: lw.labels,
            params: lw.params,
            globals,
            smem,
            smem_off,
            smem_len,
            regs,
            reg_off,
            reg_len,
            blank_checks,
            n_blank_flags: lw.n_blank_flags,
            prologues: p.prologues.clone(),
            prologue_env,
            lane_cls,
            hints: Hints::default(),
            move_plans: Vec::new(),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            frame_zeroes: None,
        };
        bc.move_plans = bc.moves.iter().map(|mv| plan_move(&bc, mv)).collect();
        bc.frame_zeroes = frame_zeroes(&bc);
        Ok(bc)
    }

    /// Lane-affine class `(a, b)` of an address operand — its value at
    /// lane `(tx, ty)` is lane 0's plus `a·tx + b·ty` — when every slot
    /// it reads has one.
    pub(crate) fn aop_lane(&self, a: AOp) -> Option<(i64, i64)> {
        match a {
            AOp::Const(_) => Some((0, 0)),
            AOp::Slot(s) => self.slot_lane(s as usize),
            AOp::Unit(u) => self.expr_lane(&self.units[u as usize]),
        }
    }

    /// Lane-affine class of an affine slot expression.
    pub(crate) fn expr_lane(&self, e: &SlotExpr) -> Option<(i64, i64)> {
        e.terms.iter().try_fold((0, 0), |(a, b), &(s, c)| {
            let (a1, b1) = self.slot_lane(s)?;
            Some((a + c * a1, b + c * b1))
        })
    }

    fn slot_lane(&self, s: usize) -> Option<(i64, i64)> {
        match self.lane_cls[s] {
            Lane::Aff(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// Threads per block (lanes of the vector interpreter).
    pub fn threads_per_block(&self) -> i64 {
        self.block.0 * self.block.1
    }

    /// Total blocks in the grid.
    pub fn total_blocks(&self) -> i64 {
        self.grid.0 * self.grid.1
    }

    /// Instruction count (after optimization), for tests and diagnostics.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the kernel body lowered to no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Human-readable disassembly of the instruction stream, one line per
    /// instruction with its pc — the debugging surface for the optimizer
    /// and the native lowering's pattern matcher.
    pub fn disasm(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (pc, i) in self.code.iter().enumerate() {
            let _ = writeln!(s, "{pc:4}: {i:?}");
        }
        s
    }
}

/// Structured mid-form between the statement tree and linear code: loops
/// and guards still nest (so the optimizer can reason per region), but
/// statements are already instruction sequences.
enum Node {
    I(Instr),
    Loop(Box<LoopNode>),
    If(Box<IfNode>),
}

struct LoopNode {
    var: u32,
    /// Fresh slot holding the upper bound, evaluated once at entry.
    hi: u32,
    lo: AOp,
    hi_src: AOp,
    uniform: bool,
    label: u32,
    /// Hoisted invariant evaluations, run once per loop entry before
    /// `LoopInit`.
    pre: Vec<Instr>,
    /// Strength-reduction bases, run once per entry after `LoopInit`
    /// (they read the freshly initialized loop variable).
    init: Vec<Instr>,
    body: Vec<Node>,
    /// Incremental advances appended to each iteration (after the
    /// implicit `var += 1`).
    steps: Vec<Instr>,
}

struct IfNode {
    pred: u32,
    uniform: bool,
    then_b: Vec<Node>,
    else_b: Vec<Node>,
}

/// A scalar value during expression lowering: either a folded constant or
/// a virtual register holding the result.
#[derive(Clone, Copy)]
enum FVal {
    Const(f32),
    Reg(u32),
}

struct Lower<'a> {
    program: &'a Program,
    bindings: &'a Bindings,
    slots: SlotMap,
    arr_refs: HashMap<String, ArrRef>,
    /// Array name → flag index, for guards' `blank_zero` references.
    blank_index: HashMap<String, usize>,
    n_blank_flags: usize,
    units: Vec<SlotExpr>,
    unit_ix: HashMap<SlotExpr, u32>,
    preds: Vec<SlotPred>,
    stages: Vec<StageOp>,
    moves: Vec<MoveOp>,
    labels: Vec<String>,
    params: Vec<String>,
    n_slots: usize,
    max_fregs: usize,
}

/// The pass before lowering: register every loop variable as a frame
/// slot (source pre-order, both branches of every guard, even one a
/// constant predicate later drops) and mark each global array the body
/// writes.
fn declare(
    stmts: &[Stmt],
    slots: &mut SlotMap,
    arr_refs: &HashMap<String, ArrRef>,
    globals: &mut [GlobalInfo],
) {
    for s in stmts {
        let target = match s {
            Stmt::Loop(l) => {
                slots.register(&l.var);
                declare(&l.body, slots, arr_refs, globals);
                continue;
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                declare(then_body, slots, arr_refs, globals);
                declare(else_body, slots, arr_refs, globals);
                continue;
            }
            Stmt::Assign(a) => &a.lhs.array,
            Stmt::RegStore(rt) => &rt.global,
            _ => continue,
        };
        if let Some(&ArrRef::Global(g)) = arr_refs.get(target) {
            globals[g].written = true;
        }
    }
}

impl Lower<'_> {
    fn fresh_slot(&mut self) -> u32 {
        let s = self.n_slots;
        self.n_slots += 1;
        s as u32
    }

    /// Statement-local virtual-register allocation; registers are reused
    /// across statements (values never outlive one assignment).
    fn freg(&mut self, nf: &mut u32) -> u32 {
        let r = *nf;
        *nf += 1;
        self.max_fregs = self.max_fregs.max(*nf as usize);
        r
    }

    // ---- name resolution -----------------------------------------------

    /// Resolve an affine form against the frame slots and fold it into
    /// the cheapest operand kind.
    fn aop(&mut self, e: &AffineExpr) -> AOp {
        let (program, bindings) = (self.program, self.bindings);
        let e = SlotExpr::compile(e, &self.slots, &|n| program.resolve(n, bindings));
        if let Some(c) = e.as_const() {
            return AOp::Const(c);
        }
        if e.terms.len() == 1 && e.terms[0].1 == 1 && e.constant == 0 {
            return AOp::Slot(e.terms[0].0 as u32);
        }
        AOp::Unit(self.intern_unit(e))
    }

    fn intern_unit(&mut self, e: SlotExpr) -> u32 {
        if let Some(&ix) = self.unit_ix.get(&e) {
            return ix;
        }
        let ix = self.units.len() as u32;
        self.units.push(e.clone());
        self.unit_ix.insert(e, ix);
        ix
    }

    fn pred(&mut self, p: &Predicate) -> SlotPred {
        let (program, bindings) = (self.program, self.bindings);
        let blank_index = &mut self.blank_index;
        let n_blank_flags = &mut self.n_blank_flags;
        SlotPred::compile(
            p,
            &self.slots,
            &|n| program.resolve(n, bindings),
            &mut |name| {
                *blank_index.entry(name.to_string()).or_insert_with(|| {
                    // Guard references an array with no runtime check: give
                    // it a fresh always-false flag, matching the oracle's
                    // `unwrap_or(&false)`.
                    let ix = *n_blank_flags;
                    *n_blank_flags += 1;
                    ix
                })
            },
        )
    }

    fn intern_pred(&mut self, p: SlotPred) -> u32 {
        let ix = self.preds.len() as u32;
        self.preds.push(p);
        ix
    }

    /// `Some(v)` when the predicate's value is known at compile time.
    fn pred_const(p: &SlotPred) -> Option<bool> {
        let mut all_true = true;
        for c in &p.conds {
            match (c.lhs.as_const(), c.rhs.as_const()) {
                (Some(l), Some(r)) => {
                    if !c.op.eval(l, r) {
                        return Some(false);
                    }
                }
                _ => all_true = false,
            }
        }
        (all_true && !p.thread0_only && p.blank_flag.is_none()).then_some(true)
    }

    fn arr(&self, name: &str) -> Result<ArrRef, ExecError> {
        self.arr_refs
            .get(name)
            .copied()
            .ok_or_else(|| ExecError::MissingBuffer(name.to_string()))
    }

    fn global(&self, name: &str) -> Result<usize, ExecError> {
        match self.arr(name)? {
            ArrRef::Global(g) => Ok(g),
            _ => Err(ExecError::MissingBuffer(name.to_string())),
        }
    }

    fn reg(&self, name: &str) -> Result<usize, ExecError> {
        match self.arr(name)? {
            ArrRef::Reg(r) => Ok(r),
            _ => Err(ExecError::MissingBuffer(name.to_string())),
        }
    }

    // ---- lowering ------------------------------------------------------

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<Vec<Node>, ExecError> {
        let mut out = Vec::new();
        for s in stmts {
            self.lower_stmt(s, &mut out)?;
        }
        Ok(out)
    }

    fn lower_stmt(&mut self, s: &Stmt, out: &mut Vec<Node>) -> Result<(), ExecError> {
        match s {
            Stmt::Loop(l) => {
                let lo = self.aop(&l.lower);
                let hi_src = self.aop(&l.upper);
                let hi = self.fresh_slot();
                let label = self.labels.len() as u32;
                self.labels.push(l.label.clone());
                let var = self.slots.get(&l.var).expect("declared loop variable") as u32;
                let body = self.lower_stmts(&l.body)?;
                out.push(Node::Loop(Box::new(LoopNode {
                    var,
                    hi,
                    lo,
                    hi_src,
                    uniform: has_barrier(s),
                    label,
                    pre: Vec::new(),
                    init: Vec::new(),
                    body,
                    steps: Vec::new(),
                })));
            }
            Stmt::Assign(a) => {
                let arr = self.arr(&a.lhs.array)?;
                let mut nf = 0u32;
                let v = self.expr(&a.rhs, &mut nf, out)?;
                let src = self.materialize(v, &mut nf, out);
                let (row, col) = (self.aop(&a.lhs.row), self.aop(&a.lhs.col));
                out.push(Node::I(Instr::FStore {
                    src,
                    arr,
                    row,
                    col,
                    op: a.op,
                    addr: AddrClass::Generic, // refined by `mark_lanes`
                }));
            }
            Stmt::If {
                pred,
                then_body,
                else_body,
            } => {
                let pred = self.pred(pred);
                if let Some(v) = Self::pred_const(&pred) {
                    // Constant guard: inline the taken branch (a uniform
                    // guard with a constant predicate is trivially
                    // uniform, so the divergence check can be dropped).
                    let taken = if v { then_body } else { else_body };
                    for s in taken {
                        self.lower_stmt(s, out)?;
                    }
                    return Ok(());
                }
                if then_body.is_empty() && else_body.is_empty() {
                    return Ok(()); // predicate evaluation is pure
                }
                let pred = self.intern_pred(pred);
                let then_b = self.lower_stmts(then_body)?;
                let else_b = self.lower_stmts(else_body)?;
                out.push(Node::If(Box::new(IfNode {
                    pred,
                    uniform: has_barrier(s),
                    then_b,
                    else_b,
                })));
            }
            Stmt::Stage(st) => {
                let dst = match self.arr(&st.dst)? {
                    ArrRef::Shared(d) => d,
                    _ => return Err(ExecError::MissingBuffer(st.dst.clone())),
                };
                let src = self.global(&st.src)?;
                let guard = self.pred(&st.guard);
                let guard = self.intern_pred(guard);
                let (row0, col0) = (self.aop(&st.src_row0), self.aop(&st.src_col0));
                let ix = self.stages.len() as u32;
                self.stages.push(StageOp {
                    dst,
                    src,
                    row0,
                    col0,
                    rows: st.rows,
                    cols: st.cols,
                    mode: st.mode,
                    src_fill: st.src_fill,
                    guard,
                });
                out.push(Node::I(Instr::Stage { ix }));
            }
            Stmt::RegLoad(rt) => self.reg_move(rt, true, out)?,
            Stmt::RegStore(rt) => self.reg_move(rt, false, out)?,
            Stmt::RegZero(rt) => {
                let reg = self.reg(&rt.reg)? as u32;
                out.push(Node::I(Instr::RegZero { reg }));
            }
            Stmt::Sync => {} // instruction-lockstep execution needs no fence
        }
        Ok(())
    }

    fn reg_move(&mut self, rt: &RegTile, load: bool, out: &mut Vec<Node>) -> Result<(), ExecError> {
        let reg = self.reg(&rt.reg)?;
        let global = self.global(&rt.global)?;
        let guard = self.pred(&rt.guard);
        let guard = self.intern_pred(guard);
        let (row0, col0) = (self.aop(&rt.row0), self.aop(&rt.col0));
        let ix = self.moves.len() as u32;
        self.moves.push(MoveOp {
            load,
            reg,
            global,
            row0,
            col0,
            row_stride: rt.row_stride,
            col_stride: rt.col_stride,
            rows: rt.rows,
            cols: rt.cols,
            guard,
        });
        out.push(Node::I(Instr::Move { ix }));
        Ok(())
    }

    /// Lower a scalar tree, folding constants and fusing `a*b ± c` /
    /// `c ± a*b` into FMA. Subexpressions are lowered left before right —
    /// loads are pure, but keeping the source order makes the instruction
    /// stream directly comparable.
    fn expr(
        &mut self,
        e: &ScalarExpr,
        nf: &mut u32,
        out: &mut Vec<Node>,
    ) -> Result<FVal, ExecError> {
        Ok(match e {
            ScalarExpr::Lit(v) => FVal::Const(*v),
            ScalarExpr::Param(name) => match self.bindings.scalars.get(name) {
                Some(v) => FVal::Const(*v),
                None => {
                    let ix = self.params.len() as u32;
                    self.params.push(name.clone());
                    out.push(Node::I(Instr::FParamPanic { name: ix }));
                    // Unreachable at runtime; the register is never written.
                    FVal::Reg(self.freg(nf))
                }
            },
            ScalarExpr::Load(acc) => {
                let arr = self.arr(&acc.array)?;
                let dst = self.freg(nf);
                let (row, col) = (self.aop(&acc.row), self.aop(&acc.col));
                out.push(Node::I(Instr::FLoad {
                    dst,
                    arr,
                    row,
                    col,
                    addr: AddrClass::Generic, // refined by `mark_lanes`
                }));
                FVal::Reg(dst)
            }
            ScalarExpr::Bin(op @ (BinOp::Add | BinOp::Sub), l, r) => {
                if let ScalarExpr::Bin(BinOp::Mul, a, b) = &**l {
                    // (a*b) op c — the multiply is the left subtree, so it
                    // is evaluated first.
                    let va = self.expr(a, nf, out)?;
                    let vb = self.expr(b, nf, out)?;
                    let vc = self.expr(r, nf, out)?;
                    if let (FVal::Const(x), FVal::Const(y), FVal::Const(z)) = (va, vb, vc) {
                        return Ok(FVal::Const(op.apply(BinOp::Mul.apply(x, y), z)));
                    }
                    return Ok(self.fma(*op, va, vb, vc, true, nf, out));
                }
                if let ScalarExpr::Bin(BinOp::Mul, a, b) = &**r {
                    // c op (a*b) — c is the left subtree, evaluated first.
                    let vc = self.expr(l, nf, out)?;
                    let va = self.expr(a, nf, out)?;
                    let vb = self.expr(b, nf, out)?;
                    if let (FVal::Const(x), FVal::Const(y), FVal::Const(z)) = (va, vb, vc) {
                        return Ok(FVal::Const(op.apply(z, BinOp::Mul.apply(x, y))));
                    }
                    return Ok(self.fma(*op, va, vb, vc, false, nf, out));
                }
                self.bin(*op, l, r, nf, out)?
            }
            ScalarExpr::Bin(op, l, r) => self.bin(*op, l, r, nf, out)?,
        })
    }

    fn bin(
        &mut self,
        op: BinOp,
        l: &ScalarExpr,
        r: &ScalarExpr,
        nf: &mut u32,
        out: &mut Vec<Node>,
    ) -> Result<FVal, ExecError> {
        let vl = self.expr(l, nf, out)?;
        let vr = self.expr(r, nf, out)?;
        if let (FVal::Const(a), FVal::Const(b)) = (vl, vr) {
            return Ok(FVal::Const(op.apply(a, b)));
        }
        let a = self.materialize(vl, nf, out);
        let b = self.materialize(vr, nf, out);
        let dst = self.freg(nf);
        out.push(Node::I(Instr::FBin { op, dst, a, b }));
        Ok(FVal::Reg(dst))
    }

    #[allow(clippy::too_many_arguments)]
    fn fma(
        &mut self,
        op: BinOp,
        va: FVal,
        vb: FVal,
        vc: FVal,
        mul_first: bool,
        nf: &mut u32,
        out: &mut Vec<Node>,
    ) -> FVal {
        let a = self.materialize(va, nf, out);
        let b = self.materialize(vb, nf, out);
        let c = self.materialize(vc, nf, out);
        let dst = self.freg(nf);
        out.push(Node::I(Instr::FFma {
            op,
            dst,
            a,
            b,
            c,
            mul_first,
        }));
        FVal::Reg(dst)
    }

    fn materialize(&mut self, v: FVal, nf: &mut u32, out: &mut Vec<Node>) -> u32 {
        match v {
            FVal::Reg(r) => r,
            FVal::Const(c) => {
                let dst = self.freg(nf);
                out.push(Node::I(Instr::FConst { dst, v: c }));
                dst
            }
        }
    }

    // ---- optimizer -----------------------------------------------------

    /// Run the hoist / strength-reduction passes: innermost loops first,
    /// then each enclosing region, and finally the block top level (whose
    /// "pre" — units invariant for the whole block, e.g. pure
    /// block/thread-index addresses — is evaluated once per block).
    fn optimize(&mut self, nodes: &mut Vec<Node>) {
        for n in nodes.iter_mut() {
            self.optimize_children(n);
        }
        let (pre, init, steps) = self.optimize_region(nodes, None);
        debug_assert!(init.is_empty() && steps.is_empty());
        for (i, instr) in pre.into_iter().enumerate() {
            nodes.insert(i, Node::I(instr));
        }
    }

    fn optimize_children(&mut self, n: &mut Node) {
        match n {
            Node::Loop(l) => {
                for c in l.body.iter_mut() {
                    self.optimize_children(c);
                }
                let (pre, init, steps) = self.optimize_region(&mut l.body, Some(l.var));
                l.pre.extend(pre);
                l.init.extend(init);
                l.steps.extend(steps);
            }
            Node::If(f) => {
                for c in f.then_b.iter_mut().chain(f.else_b.iter_mut()) {
                    self.optimize_children(c);
                }
            }
            Node::I(_) => {}
        }
    }

    /// Optimize one region (a loop body, or the block top level when
    /// `var` is `None`): lift already-hoisted invariant evaluations out
    /// of nested loops, hoist invariant units, and strength-reduce
    /// `c·var + invariant` units.
    fn optimize_region(
        &mut self,
        body: &mut [Node],
        var: Option<u32>,
    ) -> (Vec<Instr>, Vec<Instr>, Vec<Instr>) {
        let mut written: HashSet<u32> = HashSet::new();
        if let Some(v) = var {
            written.insert(v);
        }
        self.collect_written(body, &mut written);

        let mut pre = Vec::new();
        self.lift_invariant_evals(body, &written, &mut pre);

        let mut seen = HashSet::new();
        let mut uses = Vec::new();
        self.collect_unit_uses(body, &mut seen, &mut uses);

        let mut init = Vec::new();
        let mut steps = Vec::new();
        let mut map: HashMap<u32, AOp> = HashMap::new();
        for u in uses {
            let e = &self.units[u as usize];
            let invariant = e.terms.iter().all(|&(s, _)| !written.contains(&(s as u32)));
            if invariant {
                let cache = self.fresh_slot();
                pre.push(Instr::Eval {
                    dst: cache,
                    unit: u,
                });
                map.insert(u, AOp::Slot(cache));
                continue;
            }
            if let Some(v) = var {
                let e = &self.units[u as usize];
                let coeff = e
                    .terms
                    .iter()
                    .find(|&&(s, _)| s as u32 == v)
                    .map(|&(_, c)| c);
                let others_invariant = e
                    .terms
                    .iter()
                    .all(|&(s, _)| s as u32 == v || !written.contains(&(s as u32)));
                if let (Some(c), true) = (coeff, others_invariant) {
                    let cache = self.fresh_slot();
                    init.push(Instr::Eval {
                        dst: cache,
                        unit: u,
                    });
                    steps.push(Instr::StepAdd { dst: cache, imm: c });
                    map.insert(u, AOp::Slot(cache));
                }
            }
        }

        if !map.is_empty() {
            self.apply_unit_map(body, &map);
        }
        (pre, init, steps)
    }

    fn collect_written(&self, nodes: &[Node], w: &mut HashSet<u32>) {
        for n in nodes {
            match n {
                Node::I(i) => self.written_of_instr(i, w),
                Node::Loop(l) => {
                    w.insert(l.var);
                    w.insert(l.hi);
                    for i in l.pre.iter().chain(&l.init).chain(&l.steps) {
                        self.written_of_instr(i, w);
                    }
                    self.collect_written(&l.body, w);
                }
                Node::If(f) => {
                    self.collect_written(&f.then_b, w);
                    self.collect_written(&f.else_b, w);
                }
            }
        }
    }

    fn written_of_instr(&self, i: &Instr, w: &mut HashSet<u32>) {
        match i {
            Instr::Eval { dst, .. } | Instr::StepAdd { dst, .. } => {
                w.insert(*dst);
            }
            Instr::Stage { .. } => {
                w.insert(SR_SLOT as u32);
                w.insert(SC_SLOT as u32);
            }
            Instr::Move { .. } => {
                w.insert(GR_SLOT as u32);
                w.insert(GC_SLOT as u32);
            }
            _ => {}
        }
    }

    /// Move invariant cache evaluations from nested loops' `pre` lists
    /// into this region's `pre`: a cache hoisted out of an inner loop
    /// rises as far as its unit stays invariant.
    fn lift_invariant_evals(
        &self,
        nodes: &mut [Node],
        written: &HashSet<u32>,
        out: &mut Vec<Instr>,
    ) {
        for n in nodes {
            match n {
                Node::Loop(l) => {
                    let units = &self.units;
                    l.pre.retain(|i| {
                        if let Instr::Eval { unit, .. } = i {
                            let e = &units[*unit as usize];
                            if e.terms.iter().all(|&(s, _)| !written.contains(&(s as u32))) {
                                out.push(*i);
                                return false;
                            }
                        }
                        true
                    });
                    self.lift_invariant_evals(&mut l.body, written, out);
                }
                Node::If(f) => {
                    self.lift_invariant_evals(&mut f.then_b, written, out);
                    self.lift_invariant_evals(&mut f.else_b, written, out);
                }
                Node::I(_) => {}
            }
        }
    }

    /// Distinct unit indices used as *operands* within a region, in
    /// first-use order: instruction address operands plus nested loops'
    /// entry bounds.
    fn collect_unit_uses(&self, nodes: &[Node], seen: &mut HashSet<u32>, out: &mut Vec<u32>) {
        let push = |a: &AOp, seen: &mut HashSet<u32>, out: &mut Vec<u32>| {
            if let AOp::Unit(u) = a {
                if seen.insert(*u) {
                    out.push(*u);
                }
            }
        };
        for n in nodes {
            match n {
                Node::I(i) => match i {
                    Instr::FLoad { row, col, .. } | Instr::FStore { row, col, .. } => {
                        push(row, seen, out);
                        push(col, seen, out);
                    }
                    Instr::Stage { ix } => {
                        let st = &self.stages[*ix as usize];
                        push(&st.row0, seen, out);
                        push(&st.col0, seen, out);
                    }
                    Instr::Move { ix } => {
                        let mv = &self.moves[*ix as usize];
                        push(&mv.row0, seen, out);
                        push(&mv.col0, seen, out);
                    }
                    _ => {}
                },
                Node::Loop(l) => {
                    push(&l.lo, seen, out);
                    push(&l.hi_src, seen, out);
                    self.collect_unit_uses(&l.body, seen, out);
                }
                Node::If(f) => {
                    self.collect_unit_uses(&f.then_b, seen, out);
                    self.collect_unit_uses(&f.else_b, seen, out);
                }
            }
        }
    }

    fn apply_unit_map(&mut self, nodes: &mut [Node], map: &HashMap<u32, AOp>) {
        let sub = |a: &mut AOp, map: &HashMap<u32, AOp>| {
            if let AOp::Unit(u) = a {
                if let Some(rep) = map.get(u) {
                    *a = *rep;
                }
            }
        };
        for n in nodes {
            match n {
                Node::I(i) => match i {
                    Instr::FLoad { row, col, .. } | Instr::FStore { row, col, .. } => {
                        sub(row, map);
                        sub(col, map);
                    }
                    Instr::Stage { ix } => {
                        let st = &mut self.stages[*ix as usize];
                        sub(&mut st.row0, map);
                        sub(&mut st.col0, map);
                    }
                    Instr::Move { ix } => {
                        let mv = &mut self.moves[*ix as usize];
                        sub(&mut mv.row0, map);
                        sub(&mut mv.col0, map);
                    }
                    _ => {}
                },
                Node::Loop(l) => {
                    sub(&mut l.lo, map);
                    sub(&mut l.hi_src, map);
                    self.apply_unit_map(&mut l.body, map);
                }
                Node::If(f) => {
                    self.apply_unit_map(&mut f.then_b, map);
                    self.apply_unit_map(&mut f.else_b, map);
                }
            }
        }
    }
}

// ---- linearization -----------------------------------------------------

fn emit_nodes(nodes: Vec<Node>, code: &mut Vec<Instr>) {
    for n in nodes {
        emit_node(n, code);
    }
}

fn emit_node(n: Node, code: &mut Vec<Instr>) {
    match n {
        Node::I(i) => code.push(i),
        Node::Loop(l) => {
            code.extend(l.pre);
            code.push(Instr::LoopInit {
                var: l.var,
                hi: l.hi,
                lo: l.lo,
                hi_src: l.hi_src,
                uniform: l.uniform,
                label: l.label,
            });
            code.extend(l.init);
            let top = code.len();
            code.push(Instr::LoopTest {
                var: l.var,
                hi: l.hi,
                exit: u32::MAX,
                uniform: false, // refined by `mark_uniform`
            });
            emit_nodes(l.body, code);
            code.push(Instr::StepAdd { dst: l.var, imm: 1 });
            code.extend(l.steps);
            code.push(Instr::LoopJump { top: top as u32 });
            let exit = code.len() as u32;
            code.push(Instr::PopMask);
            if let Instr::LoopTest { exit: e, .. } = &mut code[top] {
                *e = exit;
            }
        }
        Node::If(f) => {
            if f.uniform {
                let br = code.len();
                code.push(Instr::BranchUniform {
                    pred: f.pred,
                    if_false: u32::MAX,
                });
                emit_nodes(f.then_b, code);
                if f.else_b.is_empty() {
                    let end = code.len() as u32;
                    if let Instr::BranchUniform { if_false, .. } = &mut code[br] {
                        *if_false = end;
                    }
                } else {
                    let j = code.len();
                    code.push(Instr::Jump { target: u32::MAX });
                    let else_start = code.len() as u32;
                    if let Instr::BranchUniform { if_false, .. } = &mut code[br] {
                        *if_false = else_start;
                    }
                    emit_nodes(f.else_b, code);
                    let end = code.len() as u32;
                    if let Instr::Jump { target } = &mut code[j] {
                        *target = end;
                    }
                }
            } else {
                let split = code.len();
                code.push(Instr::IfSplit {
                    pred: f.pred,
                    on_empty: u32::MAX,
                });
                emit_nodes(f.then_b, code);
                if f.else_b.is_empty() {
                    let end = code.len() as u32;
                    code.push(Instr::PopMask);
                    if let Instr::IfSplit { on_empty, .. } = &mut code[split] {
                        *on_empty = end;
                    }
                } else {
                    let ep = code.len();
                    code.push(Instr::IfElse { done: u32::MAX });
                    if let Instr::IfSplit { on_empty, .. } = &mut code[split] {
                        *on_empty = ep as u32;
                    }
                    emit_nodes(f.else_b, code);
                    let end = code.len() as u32;
                    code.push(Instr::PopMask);
                    if let Instr::IfElse { done } = &mut code[ep] {
                        *done = end;
                    }
                }
            }
        }
    }
}

/// Per-slot lane structure tracked by [`mark_lanes`]: how a slot's value
/// varies across the lanes of a block.
///
/// `Aff(a, b)` means the value is `u + a·tx + b·ty` for a lane-invariant
/// `u`; `Unknown` is the optimistic top (not yet constrained); `Bot` is
/// "no single affine form" (e.g. the staging specials, or a slot written
/// with two different shapes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lane {
    Unknown,
    Aff(i64, i64),
    Bot,
}

impl Lane {
    /// Lattice meet: `Unknown` yields to anything, equal classes stay,
    /// conflicting classes collapse to `Bot`.
    fn meet(self, other: Lane) -> Lane {
        match (self, other) {
            (Lane::Unknown, x) | (x, Lane::Unknown) => x,
            (a, b) if a == b => a,
            _ => Lane::Bot,
        }
    }
}

/// Static lane-structure analysis over the linear code.
///
/// Each slot is classified as an affine function of the thread indices,
/// `u + a·tx + b·ty` with `u` lane-invariant (`Lane::Aff(a, b)`), or
/// demoted to `Lane::Bot` when no single such form exists.  Divergence
/// enters only through the thread-index slots and the per-lane
/// staging/move specials (`__sr`/`__sc`/`__gr`/`__gc`); every other write
/// is `Eval` (coefficients add linearly), `LoopInit` (takes the bound's
/// class) or `StepAdd` (a constant step preserves the class).  A thread
/// index over a block dimension of extent 1 is constantly zero, so it
/// seeds as uniform — with `thr_j = 1` (the Volkov-like shapes) every
/// `ty` term vanishes statically.  The optimistic fixpoint only moves
/// down the three-level lattice, so it terminates quickly.
///
/// A class translates to a single per-lane stride once the block shape
/// is known (lanes enumerate `tx + ty·block.0`): `a·tx + b·ty` is linear
/// in the lane index iff one dimension is degenerate or `b = a·block.0`.
/// The interpreter uses the result to broadcast uniform-address loads,
/// turn lane-affine gathers into constant-stride walks (stride 1 over a
/// column-major global — the coalesced pattern — becomes a slice copy),
/// run uniform-address register-tile traffic as contiguous vector ops,
/// and test uniform loop bounds on lane 0 only.
fn mark_lanes(
    code: &mut [Instr],
    units: &[SlotExpr],
    n_slots: usize,
    (bx, by): (i64, i64),
    binds: &[(usize, Builtin)],
) -> Vec<Lane> {
    let mut cls = vec![Lane::Unknown; n_slots];
    let tx_seed = Lane::Aff(i64::from(bx > 1), 0);
    let ty_seed = Lane::Aff(0, i64::from(by > 1));
    cls[TX_SLOT] = tx_seed;
    cls[TY_SLOT] = ty_seed;
    for s in [SR_SLOT, SC_SLOT, GR_SLOT, GC_SLOT] {
        cls[s] = Lane::Bot;
    }
    for &(slot, b) in binds {
        match b {
            Builtin::ThreadX => cls[slot] = tx_seed,
            Builtin::ThreadY => cls[slot] = ty_seed,
            _ => {}
        }
    }
    // Slots no instruction writes (block indices, problem sizes — bound
    // once per block) are lane-invariant unless seeded above.
    let mut written = vec![false; n_slots];
    for i in code.iter() {
        match *i {
            Instr::Eval { dst, .. } | Instr::StepAdd { dst, .. } => {
                written[dst as usize] = true;
            }
            Instr::LoopInit { var, hi, .. } => {
                written[var as usize] = true;
                written[hi as usize] = true;
            }
            _ => {}
        }
    }
    for (c, w) in cls.iter_mut().zip(&written) {
        if !w && *c == Lane::Unknown {
            *c = Lane::Aff(0, 0);
        }
    }

    let class_unit = |cls: &[Lane], u: u32| {
        let mut a = 0i64;
        let mut b = 0i64;
        for &(s, c) in &units[u as usize].terms {
            match cls[s] {
                Lane::Bot => return Lane::Bot,
                Lane::Unknown => return Lane::Unknown,
                Lane::Aff(sa, sb) => {
                    a += c * sa;
                    b += c * sb;
                }
            }
        }
        Lane::Aff(a, b)
    };
    let class_aop = |cls: &[Lane], a: AOp| match a {
        AOp::Const(_) => Lane::Aff(0, 0),
        AOp::Slot(s) => cls[s as usize],
        AOp::Unit(u) => class_unit(cls, u),
    };

    loop {
        let mut changed = false;
        let mut refine = |cls: &mut Vec<Lane>, slot: u32, new: Lane| {
            let met = cls[slot as usize].meet(new);
            if met != cls[slot as usize] {
                cls[slot as usize] = met;
                changed = true;
            }
        };
        for i in code.iter() {
            match *i {
                Instr::Eval { dst, unit } => {
                    let c = class_unit(&cls, unit);
                    refine(&mut cls, dst, c);
                }
                Instr::LoopInit {
                    var,
                    hi,
                    lo,
                    hi_src,
                    ..
                } => {
                    let lo_c = class_aop(&cls, lo);
                    let hi_c = class_aop(&cls, hi_src);
                    refine(&mut cls, var, lo_c);
                    refine(&mut cls, hi, hi_c);
                }
                // StepAdd adds a constant to every lane: preserves.
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }

    // Per-lane stride of a class, if the `tx`/`ty` coefficients form a
    // single linear function of the lane index (`lane = tx + ty·bx`).
    // A slot still `Unknown` is written only in terms of itself (dead or
    // unreachable): no fast path.
    let stride = |c: Lane| match c {
        Lane::Bot | Lane::Unknown => None,
        Lane::Aff(a, b) => {
            if by == 1 {
                Some(a)
            } else if bx == 1 {
                Some(b)
            } else if b == a * bx {
                Some(a)
            } else {
                None
            }
        }
    };
    let aop_stride = |a: AOp| stride(class_aop(&cls, a));

    for i in code.iter_mut() {
        match i {
            Instr::FLoad { row, col, addr, .. } | Instr::FStore { row, col, addr, .. } => {
                *addr = match (aop_stride(*row), aop_stride(*col)) {
                    (Some(lr), Some(lc)) => AddrClass::Affine { lr, lc },
                    _ => AddrClass::Generic,
                }
            }
            Instr::LoopTest {
                var, hi, uniform, ..
            } => {
                *uniform =
                    stride(cls[*var as usize]) == Some(0) && stride(cls[*hi as usize]) == Some(0)
            }
            _ => {}
        }
    }
    cls
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::exec_program;
    use crate::native::NativeProgram;
    use oa_loopir::builder::{gemm_nn_like, trmm_ll_like};
    use oa_loopir::interp::{alloc_buffers, Buffers};
    use oa_loopir::transform::{loop_tiling, reg_alloc, sm_alloc, thread_grouping, TileParams};

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

    fn lowered_gemm() -> (Program, Bindings) {
        let mut p = gemm_nn_like("g");
        thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
        loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
        sm_alloc(&mut p, "B", oa_loopir::AllocMode::Transpose).unwrap();
        reg_alloc(&mut p, "C").unwrap();
        (p, Bindings::square(32))
    }

    fn bits(bufs: &Buffers) -> Vec<(String, Vec<u32>)> {
        let mut out: Vec<_> = bufs
            .iter()
            .map(|(name, m)| (name.clone(), m.data.iter().map(|v| v.to_bits()).collect()))
            .collect();
        out.sort();
        out
    }

    /// Lower `p` for both compiled engines (bytecode, and native regions
    /// over that bytecode) and check each bit-exact against the oracle on
    /// fresh buffers.
    fn assert_bit_identical(p: &Program, n: i64, seed: u64) {
        let b = Bindings::square(n);
        let mut oracle = alloc_buffers(p, &b, seed);
        exec_program(p, &b, &mut oracle).expect("oracle exec");
        let mut via_bytecode = alloc_buffers(p, &b, seed);
        let bc = ByteCode::compile(p, &b).expect("bytecode compile");
        bc.execute(&mut via_bytecode).expect("bytecode exec");
        assert_eq!(bits(&oracle), bits(&via_bytecode), "bytecode");
        let native = NativeProgram::compile(p, &b).expect("native compile");
        let mut via_native = alloc_buffers(p, &b, seed);
        native.execute(&mut via_native).expect("native exec");
        assert_eq!(bits(&oracle), bits(&via_native), "native");
    }

    #[test]
    fn gemm_full_scheme_bit_identical() {
        let (p, _) = lowered_gemm();
        assert_bit_identical(&p, 16, 3);
        assert_bit_identical(&p, 32, 7);
        assert_bit_identical(&p, 19, 23); // ragged
    }

    #[test]
    fn trmm_scheme_bit_identical() {
        let mut p = trmm_ll_like("t");
        thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
        loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
        oa_loopir::transform::peel_triangular(&mut p, "A").unwrap();
        assert_bit_identical(&p, 16, 5);
        assert_bit_identical(&p, 24, 9);
    }

    #[test]
    fn grouping_only_bit_identical() {
        let mut p = gemm_nn_like("g");
        thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
        assert_bit_identical(&p, 19, 23);
    }

    #[test]
    fn repeated_execution_is_deterministic() {
        let (p, b) = lowered_gemm();
        // Two compilations of the same program give the same bytecode, and
        // one lowered program run twice gives the same output.
        assert_eq!(
            ByteCode::compile(&p, &b).unwrap().disasm(),
            ByteCode::compile(&p, &b).unwrap().disasm()
        );
        let native = NativeProgram::compile(&p, &b).unwrap();
        let mut first = alloc_buffers(&p, &b, 1);
        native.execute(&mut first).unwrap();
        let mut second = alloc_buffers(&p, &b, 1);
        native.execute(&mut second).unwrap();
        assert_eq!(first["C"].data, second["C"].data);
    }

    #[test]
    fn gemm_lowers_to_bytecode() {
        let (p, b) = lowered_gemm();
        let bc = ByteCode::compile(&p, &b).expect("lowers");
        assert!(!bc.is_empty());
        assert!(bc.n_fregs >= 1);
        // The inner-product statement must have fused or at least
        // compiled to flat instructions with no structural nesting left.
        assert!(bc
            .code
            .iter()
            .any(|i| matches!(i, Instr::FStore { .. } | Instr::Move { .. })));
    }

    #[test]
    fn optimizer_strength_reduces_inner_addresses() {
        let (p, b) = lowered_gemm();
        let bc = ByteCode::compile(&p, &b).expect("lowers");
        // Loop-variable steps target the loop's own slot; a strength-reduced
        // address shows up as a StepAdd into a cache slot that no loop
        // variable, special or mapped variable owns, and a hoisted unit as
        // an Eval.
        let owned: HashSet<u32> = bc
            .code
            .iter()
            .filter_map(|i| match i {
                Instr::LoopInit { var, .. } => Some(*var),
                _ => None,
            })
            .chain((0..SPECIALS.len() as u32).chain(bc.binds.iter().map(|&(s, _)| s as u32)))
            .collect();
        assert!(bc.code.iter().any(|i| matches!(i, Instr::Eval { .. })));
        assert!(
            bc.code
                .iter()
                .any(|i| matches!(i, Instr::StepAdd { dst, .. } if !owned.contains(dst))),
            "expected a strength-reduced address advance"
        );
    }

    #[test]
    fn unmapped_program_fails_compile() {
        let p = gemm_nn_like("g");
        let err = ByteCode::compile(&p, &Bindings::square(8)).unwrap_err();
        assert!(matches!(err, ExecError::Launch(_)));
    }

    #[test]
    fn jump_targets_are_patched() {
        let (p, b) = lowered_gemm();
        let bc = ByteCode::compile(&p, &b).expect("lowers");
        let n = bc.code.len() as u32;
        for i in &bc.code {
            let t = match i {
                Instr::LoopTest { exit, .. } => *exit,
                Instr::LoopJump { top } => *top,
                Instr::Jump { target } => *target,
                Instr::BranchUniform { if_false, .. } => *if_false,
                Instr::IfSplit { on_empty, .. } => *on_empty,
                Instr::IfElse { done } => *done,
                _ => continue,
            };
            assert!(t < n, "unpatched or out-of-range jump target {t}");
        }
    }
}
