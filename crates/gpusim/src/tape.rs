//! The compiled kernel tape: the first lowering stage of the functional
//! GPU simulator, and the IR that [`ByteCode`](crate::bytecode::ByteCode)
//! compiles from.  The tape has no executor of its own.
//!
//! [`exec::exec_program`](crate::exec::exec_program) walks the [`Program`]
//! tree with per-thread `HashMap<String, i64>` environments, cloning one
//! per statement per thread and hashing variable names on every bound,
//! subscript and guard evaluation.  That is the right shape for an oracle
//! but not for the composer's legality filter, the BLAS3 verifier and the
//! autotuner, all of which execute the same program over and over.
//!
//! This module lowers a program **once** per (program, bindings) pair into
//! a [`Tape`]:
//!
//! * every variable name is interned to a slot in a flat per-thread frame
//!   (`Vec<i64>`) and every affine expression / predicate becomes a
//!   [`SlotExpr`] / [`SlotPred`] evaluable with integer indexing only
//!   (see [`oa_loopir::slots`]);
//! * size parameters, derived ceil-div parameters and scalar parameters
//!   are folded into constants at compile time;
//! * register tiles live in a dense per-block arena indexed by
//!   `(reg, tid)` and shared tiles in a dense per-block arena, replacing
//!   the string-keyed maps of the oracle;
//! * the `has_barrier` segmentation the oracle recomputes on every visit
//!   is precomputed on each loop/guard node.
//!
//! It also owns the packed element keys and the [`Overlay`] write log
//! that the block-parallel interpreter ([`crate::vexec`]) merges in
//! `(by, bx)` order.

use oa_loopir::arrays::{AllocMode, Fill, MemSpace};
use oa_loopir::interp::Bindings;
use oa_loopir::nest::MapKernel;
use oa_loopir::scalar::{BinOp, ScalarExpr};
use oa_loopir::slots::{SlotExpr, SlotMap, SlotPred};
use oa_loopir::stmt::{AssignOp, RegTile, SharedStage, Stmt};
use oa_loopir::Program;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::exec::ExecError;
use crate::launch::{extract_launch, Builtin};

/// A resolved array reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ArrRef {
    /// Index into the tape's global-array table.
    Global(usize),
    /// Index into the per-block shared-tile arena.
    Shared(usize),
    /// Index into the per-block register-tile arena (per thread).
    Reg(usize),
}

/// A scalar expression with accesses and parameters resolved.
#[derive(Clone, Debug)]
pub(crate) enum SExpr {
    Load(ArrRef, SlotExpr, SlotExpr),
    Lit(f32),
    /// A named scalar parameter; `None` when unbound (panics on use, like
    /// the oracle).
    Param(String, Option<f32>),
    Bin(BinOp, Box<SExpr>, Box<SExpr>),
}

/// One tape node. The tree shape of the source program is kept (loops and
/// guards nest), but every name and affine form is pre-resolved and the
/// barrier segmentation is baked in.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    Loop {
        var: usize,
        lower: SlotExpr,
        upper: SlotExpr,
        has_barrier: bool,
        label: String,
        body: Vec<Op>,
    },
    Assign {
        arr: ArrRef,
        row: SlotExpr,
        col: SlotExpr,
        op: AssignOp,
        rhs: SExpr,
    },
    If {
        pred: SlotPred,
        has_barrier: bool,
        then_ops: Vec<Op>,
        else_ops: Vec<Op>,
    },
    Stage {
        dst: usize,
        src: usize,
        row0: SlotExpr,
        col0: SlotExpr,
        rows: i64,
        cols: i64,
        mode: AllocMode,
        src_fill: Fill,
        guard: SlotPred,
    },
    RegMove {
        load: bool,
        reg: usize,
        global: usize,
        row0: SlotExpr,
        col0: SlotExpr,
        row_stride: i64,
        col_stride: i64,
        rows: i64,
        cols: i64,
        guard: SlotPred,
    },
    RegZero {
        reg: usize,
    },
    Sync,
}

impl Op {
    fn has_barrier(&self) -> bool {
        match self {
            Op::Sync | Op::Stage { .. } => true,
            Op::Loop { has_barrier, .. } | Op::If { has_barrier, .. } => *has_barrier,
            _ => false,
        }
    }
}

/// One global array of the tape.
#[derive(Clone, Debug)]
pub(crate) struct GlobalInfo {
    pub(crate) name: String,
    /// Whether the kernel body ever writes this array. Read-only arrays
    /// skip the overlay lookup entirely.
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

/// A program compiled for concrete bindings: launch shape plus the
/// slot-resolved instruction tree. Compile once, execute many times.
#[derive(Clone, Debug)]
pub struct Tape {
    /// Grid dimensions `(gx, gy)`.
    pub grid: (i64, i64),
    /// Block dimensions `(bx, by)` in threads.
    pub block: (i64, i64),
    pub(crate) n_slots: usize,
    /// Mapped-variable slots and the builtin index each takes.
    pub(crate) binds: Vec<(usize, Builtin)>,
    pub(crate) tx_slot: usize,
    pub(crate) ty_slot: usize,
    pub(crate) sr_slot: usize,
    pub(crate) sc_slot: usize,
    pub(crate) gr_slot: usize,
    pub(crate) gc_slot: usize,
    pub(crate) ops: Vec<Op>,
    pub(crate) globals: Vec<GlobalInfo>,
    pub(crate) smem: Vec<SmemDecl>,
    pub(crate) regs: Vec<RegDecl>,
    /// `(global index, fill)` per `blank_checks` entry; flag `i` of the
    /// runtime flag vector is computed from entry `i`.
    pub(crate) blank_checks: Vec<(usize, Fill)>,
    /// Flag-vector length; may exceed `blank_checks.len()` when guards
    /// reference arrays with no check (those flags stay `false`, as in the
    /// oracle).
    pub(crate) n_blank_flags: usize,
    pub(crate) prologues: Vec<MapKernel>,
    /// Pre-resolved values for every name the prologue extents mention.
    pub(crate) prologue_env: HashMap<String, i64>,
}

/// Identity-ish hasher for the packed element keys of a write overlay —
/// the key is already well-mixed by the multiply.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("overlay keys are u64")
    }
    fn write_u64(&mut self, k: u64) {
        self.0 = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A block's private global-memory write log: packed element key → final
/// value written by this block.
pub(crate) type Overlay = HashMap<u64, f32, BuildHasherDefault<KeyHasher>>;

const COORD_BITS: u32 = 28;
const COORD_MASK: u64 = (1 << COORD_BITS) - 1;

#[inline]
pub(crate) fn pack_key(arr: usize, r: i64, c: i64) -> u64 {
    ((arr as u64) << (2 * COORD_BITS))
        | ((r as u64 & COORD_MASK) << COORD_BITS)
        | (c as u64 & COORD_MASK)
}

#[inline]
pub(crate) fn unpack_key(k: u64) -> (usize, i64, i64) {
    (
        (k >> (2 * COORD_BITS)) as usize,
        ((k >> COORD_BITS) & COORD_MASK) as i64,
        (k & COORD_MASK) as i64,
    )
}

struct Compiler<'a> {
    program: &'a Program,
    bindings: &'a Bindings,
    slots: SlotMap,
    arr_refs: HashMap<String, ArrRef>,
    globals: Vec<GlobalInfo>,
    /// Array name → flag index, for guards' `blank_zero` references.
    blank_index: HashMap<String, usize>,
    n_blank_flags: usize,
}

impl Compiler<'_> {
    fn resolve(&self, name: &str) -> i64 {
        self.program.resolve(name, self.bindings)
    }

    fn expr(&self, e: &oa_loopir::AffineExpr) -> SlotExpr {
        SlotExpr::compile(e, &self.slots, &|n| self.program.resolve(n, self.bindings))
    }

    fn pred(&mut self, p: &oa_loopir::Predicate) -> SlotPred {
        // Split borrows: the blank-index map grows while names resolve.
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

    fn shared(&self, name: &str) -> Result<usize, ExecError> {
        match self.arr(name)? {
            ArrRef::Shared(s) => Ok(s),
            _ => Err(ExecError::MissingBuffer(name.to_string())),
        }
    }

    fn reg(&self, name: &str) -> Result<usize, ExecError> {
        match self.arr(name)? {
            ArrRef::Reg(r) => Ok(r),
            _ => Err(ExecError::MissingBuffer(name.to_string())),
        }
    }

    fn scalar(&self, e: &ScalarExpr) -> Result<SExpr, ExecError> {
        Ok(match e {
            ScalarExpr::Load(acc) => SExpr::Load(
                self.arr(&acc.array)?,
                self.expr(&acc.row),
                self.expr(&acc.col),
            ),
            ScalarExpr::Lit(v) => SExpr::Lit(*v),
            ScalarExpr::Param(p) => SExpr::Param(p.clone(), self.bindings.scalars.get(p).copied()),
            ScalarExpr::Bin(op, l, r) => {
                SExpr::Bin(*op, Box::new(self.scalar(l)?), Box::new(self.scalar(r)?))
            }
        })
    }

    fn mark_written(&mut self, arr: ArrRef) {
        if let ArrRef::Global(g) = arr {
            self.globals[g].written = true;
        }
    }

    fn reg_move(&mut self, rt: &RegTile, load: bool) -> Result<Op, ExecError> {
        Ok(Op::RegMove {
            load,
            reg: self.reg(&rt.reg)?,
            global: self.global(&rt.global)?,
            row0: self.expr(&rt.row0),
            col0: self.expr(&rt.col0),
            row_stride: rt.row_stride,
            col_stride: rt.col_stride,
            rows: rt.rows,
            cols: rt.cols,
            guard: self.pred(&rt.guard),
        })
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<Vec<Op>, ExecError> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &Stmt) -> Result<Op, ExecError> {
        Ok(match s {
            Stmt::Loop(l) => {
                // Bounds resolve in the enclosing scope, before the loop's
                // own variable becomes a slot.
                let lower = self.expr(&l.lower);
                let upper = self.expr(&l.upper);
                let var = self.slots.register(&l.var);
                let body = self.stmts(&l.body)?;
                Op::Loop {
                    var,
                    lower,
                    upper,
                    has_barrier: body.iter().any(Op::has_barrier),
                    label: l.label.clone(),
                    body,
                }
            }
            Stmt::Assign(a) => {
                let arr = self.arr(&a.lhs.array)?;
                self.mark_written(arr);
                Op::Assign {
                    arr,
                    row: self.expr(&a.lhs.row),
                    col: self.expr(&a.lhs.col),
                    op: a.op,
                    rhs: self.scalar(&a.rhs)?,
                }
            }
            Stmt::If {
                pred,
                then_body,
                else_body,
            } => {
                let then_ops = self.stmts(then_body)?;
                let else_ops = self.stmts(else_body)?;
                Op::If {
                    pred: self.pred(pred),
                    has_barrier: then_ops.iter().chain(&else_ops).any(Op::has_barrier),
                    then_ops,
                    else_ops,
                }
            }
            Stmt::Stage(st) => self.stage(st)?,
            Stmt::RegLoad(rt) => self.reg_move(rt, true)?,
            Stmt::RegStore(rt) => {
                let op = self.reg_move(rt, false)?;
                if let Op::RegMove { global, .. } = op {
                    self.globals[global].written = true;
                }
                op
            }
            Stmt::RegZero(rt) => Op::RegZero {
                reg: self.reg(&rt.reg)?,
            },
            Stmt::Sync => Op::Sync,
        })
    }

    fn stage(&mut self, st: &SharedStage) -> Result<Op, ExecError> {
        Ok(Op::Stage {
            dst: self.shared(&st.dst)?,
            src: self.global(&st.src)?,
            row0: self.expr(&st.src_row0),
            col0: self.expr(&st.src_col0),
            rows: st.rows,
            cols: st.cols,
            mode: st.mode,
            src_fill: st.src_fill,
            guard: self.pred(&st.guard),
        })
    }
}

impl Tape {
    /// Lower `p` for concrete `bindings` into an executable tape.
    pub fn compile(p: &Program, bindings: &Bindings) -> Result<Tape, ExecError> {
        let launch = extract_launch(p, bindings)?;

        let mut slots = SlotMap::new();
        let tx_slot = slots.register("__tx");
        let ty_slot = slots.register("__ty");
        let sr_slot = slots.register("__sr");
        let sc_slot = slots.register("__sc");
        let gr_slot = slots.register("__gr");
        let gc_slot = slots.register("__gc");
        let binds: Vec<(usize, Builtin)> = launch
            .binds
            .iter()
            .map(|(v, b)| (slots.register(v), *b))
            .collect();

        // Array tables: globals keep their names (for buffer lookup and
        // overlay merge); shared/register tiles get dense arena indices.
        let mut arr_refs = HashMap::new();
        let mut globals = Vec::new();
        let mut smem = Vec::new();
        let mut regs = Vec::new();
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
                    smem.push(SmemDecl {
                        rows: a.rows.as_const().expect("shared dims are constant"),
                        cols: a.cols.as_const().expect("shared dims are constant"),
                        pad: a.pad,
                    });
                    ArrRef::Shared(smem.len() - 1)
                }
                MemSpace::Reg => {
                    regs.push(RegDecl {
                        rows: a.rows.as_const().expect("reg dims constant"),
                        cols: a.cols.as_const().expect("reg dims constant"),
                    });
                    ArrRef::Reg(regs.len() - 1)
                }
            };
            arr_refs.insert(a.name.clone(), r);
        }

        let mut c = Compiler {
            program: p,
            bindings,
            slots,
            arr_refs,
            globals,
            blank_index: HashMap::new(),
            n_blank_flags: 0,
        };

        // Runtime blank-zero checks, in program order: flag i belongs to
        // check i. Guards referencing unchecked arrays get extra
        // always-false flags appended during compilation below.
        let mut blank_checks = Vec::new();
        for chk in &p.blank_checks {
            let decl = p
                .array(&chk.array)
                .ok_or_else(|| ExecError::MissingBuffer(chk.array.clone()))?;
            let g = c.global(&chk.array)?;
            c.blank_index.insert(chk.array.clone(), blank_checks.len());
            blank_checks.push((g, decl.fill));
            c.n_blank_flags += 1;
        }

        let ops = c.stmts(&launch.inner)?;

        // Resolve every name the prologue extents mention so execution
        // needs no Program/Bindings back-reference.
        let mut prologue_env = HashMap::new();
        for mk in &p.prologues {
            for name in mk.rows.vars().chain(mk.cols.vars()) {
                let v = c.resolve(name);
                prologue_env.insert(name.to_string(), v);
            }
        }

        Ok(Tape {
            grid: launch.grid,
            block: launch.block,
            n_slots: c.slots.len(),
            binds,
            tx_slot,
            ty_slot,
            sr_slot,
            sc_slot,
            gr_slot,
            gc_slot,
            ops,
            globals: c.globals,
            smem,
            regs,
            blank_checks,
            n_blank_flags: c.n_blank_flags,
            prologues: p.prologues.clone(),
            prologue_env,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::ByteCode;
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

    fn bits(bufs: &Buffers) -> Vec<(String, Vec<u32>)> {
        let mut out: Vec<_> = bufs
            .iter()
            .map(|(name, m)| (name.clone(), m.data.iter().map(|v| v.to_bits()).collect()))
            .collect();
        out.sort();
        out
    }

    /// Lower one tape into both engines built on it (bytecode, and native
    /// regions over that bytecode) and check each bit-exact against the
    /// oracle on fresh buffers.
    fn assert_bit_identical(p: &Program, n: i64, seed: u64) {
        let b = Bindings::square(n);
        let mut oracle = alloc_buffers(p, &b, seed);
        exec_program(p, &b, &mut oracle).expect("oracle exec");
        let tape = Tape::compile(p, &b).expect("tape compile");
        let bc = ByteCode::from_tape(&tape);
        let mut via_bytecode = alloc_buffers(p, &b, seed);
        bc.execute(&mut via_bytecode).expect("bytecode exec");
        assert_eq!(bits(&oracle), bits(&via_bytecode), "bytecode from tape");
        let native = NativeProgram::from_bytecode(ByteCode::from_tape(&tape));
        let mut via_native = alloc_buffers(p, &b, seed);
        native.execute(&mut via_native).expect("native exec");
        assert_eq!(bits(&oracle), bits(&via_native), "native from tape");
    }

    #[test]
    fn gemm_full_scheme_bit_identical() {
        let mut p = gemm_nn_like("g");
        thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
        loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
        sm_alloc(&mut p, "B", oa_loopir::AllocMode::Transpose).unwrap();
        reg_alloc(&mut p, "C").unwrap();
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
        let mut p = gemm_nn_like("g");
        thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
        loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
        sm_alloc(&mut p, "B", oa_loopir::AllocMode::Transpose).unwrap();
        reg_alloc(&mut p, "C").unwrap();
        let b = Bindings::square(32);
        // Two compilations of the same program give the same tape, and one
        // lowered program run twice gives the same output.
        let first_tape = Tape::compile(&p, &b).unwrap();
        let second_tape = Tape::compile(&p, &b).unwrap();
        assert_eq!(
            ByteCode::from_tape(&first_tape).disasm(),
            ByteCode::from_tape(&second_tape).disasm()
        );
        let native = NativeProgram::from_bytecode(ByteCode::from_tape(&first_tape));
        let mut first = alloc_buffers(&p, &b, 1);
        native.execute(&mut first).unwrap();
        let mut second = alloc_buffers(&p, &b, 1);
        native.execute(&mut second).unwrap();
        assert_eq!(first["C"].data, second["C"].data);
    }

    #[test]
    fn unmapped_program_fails_compile() {
        let p = gemm_nn_like("g");
        let err = Tape::compile(&p, &Bindings::square(8)).unwrap_err();
        assert!(matches!(err, ExecError::Launch(_)));
    }

    #[test]
    fn key_packing_roundtrip() {
        for &(a, r, c) in &[
            (0usize, 0i64, 0i64),
            (3, 1023, 4095),
            (7, 1 << 27, (1 << 28) - 1),
        ] {
            assert_eq!(unpack_key(pack_key(a, r, c)), (a, r, c));
        }
    }
}
