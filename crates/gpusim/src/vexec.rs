//! Lane-vectorized execution of [`ByteCode`]: the interpreter behind the
//! bytecode engine, and the driver the native tier's microkernels plug
//! into.
//!
//! The oracle walks its statement tree once *per simulated thread*; this
//! interpreter walks the flat instruction stream once *per block*, applying
//! each instruction across all lanes (threads) of the block in lockstep:
//!
//! * **state is lane-vectorized** — integer frames are slot-major
//!   (`frames[slot·n + lane]`) and f32 registers reg-major
//!   (`fregs[reg·n + lane]`), so one instruction touches `n` contiguous
//!   values and the per-instruction dispatch cost amortizes over the whole
//!   block;
//! * **divergence is a mask stack** — `LoopInit`/`IfSplit` push the current
//!   active-lane bitset, `LoopTest`/`IfElse` refine it, `PopMask` restores
//!   it; a region whose mask empties is skipped by a jump rather than
//!   visited by every thread;
//! * **addresses are incremental** — after the optimizer most subscripts
//!   are a cache-slot read kept fresh by `StepAdd`, not an affine dot
//!   product, and an `Eval` that remains runs one term column at a time
//!   over all lanes;
//! * **set-up is incremental** — a worker keeps its lane frame across
//!   blocks of the same program ([`ByteCode::id`]), rewriting only the
//!   block-index columns and clearing the slots [`frame_zeroes`] finds
//!   may be read before they are written;
//! * **register-tile moves copy lane runs** — a `Move` whose tile origin
//!   is lane-affine proves its bounds guard over every lane and tile
//!   element at the corners (or cuts each lane's tile to a box) and
//!   copies each tile element for runs of consecutive lanes, one slice
//!   copy per column run; a guard that is not a box, or a store whose
//!   lanes may share an element, walks per element and lane instead.
//!
//! Execution is **block-parallel**: CUDA blocks are independent in every
//! kernel this framework generates, so the grid is fanned out with rayon.
//! Each block runs against an immutable snapshot of global memory plus one
//! private write window per written global ([`Window`]: a dense box of
//! the matrix with a written-bit per element, read-your-writes within the
//! block); windows are merged into the buffers sequentially in `(by, bx)`
//! order afterwards, copying written elements only.  Within one block the
//! window holds one final value per distinct element, and across blocks
//! the sequential merge reproduces the block loop order of the oracle, so
//! results are bit-identical to
//! `exec_program` whenever no block reads another block's output — which
//! holds for all generated kernels and is enforced by the
//! `engine_differential` test over the full 24-routine pipeline.
//!
//! Equivalence with the oracle: within one barrier-free segment the oracle
//! runs thread `t` to completion before thread `t+1`, while this engine runs
//! lanes in lockstep per instruction. The two orders can differ only when
//! lanes of the same segment touch the *same* element — a data race no
//! generated kernel exhibits (each thread owns its output elements between
//! barriers), and one the engine-differential tests would catch. Loads are
//! masked (inactive lanes compute no address, so guard-protected
//! out-of-bounds subscripts are never formed), stores are masked, and pure
//! per-lane arithmetic on inactive lanes is unobservable.

use oa_loopir::arrays::AllocMode;
use oa_loopir::interp::{blank_is_zero, run_map_kernel, Buffers, Matrix};
use oa_loopir::scalar::BinOp;
use oa_loopir::slots::SlotExpr;
use oa_loopir::stmt::{stage_src_coords, AssignOp};
use oa_loopir::CmpOp;
use rayon::prelude::*;
use std::cell::RefCell;

use crate::bytecode::{
    AOp, AddrClass, ArrRef, ByteCode, Instr, MoveOp, GC_SLOT, GR_SLOT, SC_SLOT, SR_SLOT, TX_SLOT,
    TY_SLOT,
};
use crate::exec::ExecError;
use crate::launch::Builtin;
use crate::native::{apply_cut, range_verdict, LBox, NativeScratch, NativeTable};
use crate::window::{put_set, read_run, take_set, Hint, Window};

/// Per-worker scratch reused across blocks and executions: all
/// per-block state lives here, so steady-state execution allocates
/// nothing. Every reset reproduces the state a fresh allocation would
/// have.
#[derive(Default)]
struct VScratch {
    frames: Vec<i64>,
    /// The [`ByteCode::id`] whose lane frame `frames` holds, 0 for none.
    frame_owner: u64,
    fregs: Vec<f32>,
    smem: Vec<f32>,
    regs: Vec<f32>,
    active: Vec<u64>,
    /// The all-lanes mask pattern, for cheap "is the mask full" tests.
    full: Vec<u64>,
    /// Mask stack entries `(saved, pred_lanes)`; retained and rewritten
    /// in place, `sp` marks the live depth.
    stack: Vec<(Vec<u64>, Vec<u64>)>,
    /// Per lane, a bulk move's guard box over its tile.
    mlanes: Vec<LBox>,
    /// Scratch for the native tier's preflight and trace replay.
    native: NativeScratch,
}

thread_local! {
    static VSCRATCH: RefCell<VScratch> = RefCell::new(VScratch::default());
}

impl ByteCode {
    /// Execute on the given buffers: prologue kernels, blank-zero checks,
    /// then the block-parallel grid with the deterministic `(by, bx)`
    /// window merge (the oracle's block order).
    pub fn execute(&self, bufs: &mut Buffers) -> Result<(), ExecError> {
        self.execute_impl(bufs, None)
    }

    /// Execute with the native tier's region table: the interpreter
    /// drives, handing matched regions to the native microkernels.
    pub(crate) fn execute_with_native(
        &self,
        bufs: &mut Buffers,
        table: &NativeTable,
    ) -> Result<(), ExecError> {
        self.execute_impl(bufs, Some(table))
    }

    fn execute_impl(
        &self,
        bufs: &mut Buffers,
        native: Option<&NativeTable>,
    ) -> Result<(), ExecError> {
        for mk in &self.prologues {
            run_map_kernel(mk, bufs, &|n| self.prologue_env[n]);
        }

        let mut blank_flags = vec![false; self.n_blank_flags];
        for (i, &(g, fill)) in self.blank_checks.iter().enumerate() {
            let name = &self.globals[g].name;
            let m = bufs
                .get(name)
                .ok_or_else(|| ExecError::MissingBuffer(name.clone()))?;
            blank_flags[i] = blank_is_zero(m, fill);
        }

        let nblocks = self.total_blocks();
        let hints = self.hints.get(self.globals.len());
        let logs: Vec<Result<Vec<Window>, ExecError>> = {
            let mut base = Vec::with_capacity(self.globals.len());
            for g in &self.globals {
                base.push(
                    bufs.get(&g.name)
                        .ok_or_else(|| ExecError::MissingBuffer(g.name.clone()))?,
                );
            }
            let (base, flags, hints) = (&base, &blank_flags, &hints);
            (0..nblocks)
                .into_par_iter()
                .map(|rank| self.run_block(rank, base, flags, hints, native))
                .collect()
        };

        // Each window holds one value per element, so copy order within
        // a window cannot change the merged result; across blocks the
        // sequential (by, bx) order reproduces the oracle's block loop.
        // Each global's buffer is resolved once, not per element.
        let mut outs: Vec<Option<&mut Matrix>> = self.globals.iter().map(|_| None).collect();
        for (name, m) in bufs.iter_mut() {
            if let Some(g) = self.globals.iter().position(|g| g.name == *name) {
                outs[g] = Some(m);
            }
        }
        let mut seen = vec![Hint::default(); self.globals.len()];
        for res in logs {
            let wins = res?;
            for (g, w) in wins.iter().enumerate().take(self.globals.len()) {
                if !self.globals[g].written {
                    continue;
                }
                if let Some(h) = w.merge_into(outs[g].as_deref_mut().expect("checked above")) {
                    seen[g] = seen[g].larger(h);
                }
            }
            put_set(wins);
        }
        self.hints.update(&seen);
        Ok(())
    }

    fn run_block(
        &self,
        rank: i64,
        base: &[&Matrix],
        blank_flags: &[bool],
        hints: &[Hint],
        native: Option<&NativeTable>,
    ) -> Result<Vec<Window>, ExecError> {
        VSCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            self.run_block_in(rank, base, blank_flags, hints, native, scratch)
        })
    }

    fn run_block_in(
        &self,
        rank: i64,
        base: &[&Matrix],
        blank_flags: &[bool],
        hints: &[Hint],
        native: Option<&NativeTable>,
        scratch: &mut VScratch,
    ) -> Result<Vec<Window>, ExecError> {
        let bx = rank % self.grid.0;
        let by = rank / self.grid.0;
        let n = self.threads_per_block() as usize;
        let words = n.div_ceil(64);

        self.set_up_frame(scratch, bx, by);
        scratch.fregs.clear();
        scratch.fregs.resize(self.n_fregs * n, 0.0);
        scratch.smem.clear();
        scratch.smem.resize(self.smem_len, 0.0);
        scratch.regs.clear();
        scratch.regs.resize(self.reg_len * n, 0.0);
        let mut windows = take_set(hints);
        for (g, w) in windows.iter_mut().enumerate().take(self.globals.len()) {
            if self.globals[g].written {
                w.reset(base[g], hints[g]);
            }
        }
        scratch.active.clear();
        scratch.active.resize(words, u64::MAX);
        if !n.is_multiple_of(64) {
            scratch.active[words - 1] = (1 << (n % 64)) - 1;
        }
        scratch.full.clear();
        scratch.full.extend_from_slice(&scratch.active);

        let mut vb = VBlock {
            bc: self,
            n,
            words,
            frames: &mut scratch.frames,
            fregs: &mut scratch.fregs,
            smem: &mut scratch.smem,
            regs: &mut scratch.regs,
            windows: &mut windows,
            base,
            blank_flags,
            active: &mut scratch.active,
            full: &scratch.full,
            stack: &mut scratch.stack,
            sp: 0,
            native,
            mlanes: &mut scratch.mlanes,
            nscratch: &mut scratch.native,
        };
        vb.run()?;
        Ok(windows)
    }

    /// The lane frame a block starts from: thread indices, bound builtins
    /// and zeros.  When the worker's previous block ran this program, its
    /// frame is kept: every slot the program writes before it reads it
    /// needs no reset, so only the block-index columns are rewritten and
    /// the columns [`frame_zeroes`] names are cleared.
    fn set_up_frame(&self, scratch: &mut VScratch, bx: i64, by: i64) {
        let n = self.threads_per_block() as usize;
        let frames = &mut scratch.frames;
        let block_ix = |b: Builtin| match b {
            Builtin::BlockX => Some(bx),
            Builtin::BlockY => Some(by),
            Builtin::ThreadX | Builtin::ThreadY => None,
        };
        if let Some(zeroes) = &self.frame_zeroes {
            if scratch.frame_owner == self.id && frames.len() == self.n_slots * n {
                for &(slot, b) in &self.binds {
                    if let Some(v) = block_ix(b) {
                        frames[slot * n..][..n].fill(v);
                    }
                }
                for &s in zeroes {
                    frames[s as usize * n..][..n].fill(0);
                }
                return;
            }
        }
        scratch.frame_owner = self.id;
        frames.clear();
        frames.resize(self.n_slots * n, 0);
        let (bxd, byd) = self.block;
        for (lane, (tx, ty)) in (0..byd)
            .flat_map(|ty| (0..bxd).map(move |tx| (tx, ty)))
            .enumerate()
        {
            frames[TX_SLOT * n + lane] = tx;
            frames[TY_SLOT * n + lane] = ty;
        }
        for &(slot, b) in &self.binds {
            match (block_ix(b), b) {
                (Some(v), _) => frames[slot * n..][..n].fill(v),
                (None, Builtin::ThreadX) => {
                    frames.copy_within(TX_SLOT * n..(TX_SLOT + 1) * n, slot * n)
                }
                (None, _) => frames.copy_within(TY_SLOT * n..(TY_SLOT + 1) * n, slot * n),
            }
        }
    }
}

/// The frame slots a block may read before writing them: a must-written
/// dataflow over the instruction stream, seeded with the thread indices
/// and bound builtins and taking only unmasked all-lane writes (`Eval`,
/// `StepAdd`, `LoopInit`).  A kept frame must clear exactly these.
/// `None` when the program overwrites a seeded column, which a kept
/// frame would then start stale: such a program never keeps its frame.
pub(crate) fn frame_zeroes(bc: &ByteCode) -> Option<Vec<u32>> {
    let words = bc.n_slots.div_ceil(64);
    let set = |v: &mut [u64], s: usize| v[s / 64] |= 1 << (s % 64);
    let has = |v: &[u64], s: usize| v[s / 64] >> (s % 64) & 1 != 0;
    let mut entry = vec![0u64; words];
    set(&mut entry, TX_SLOT);
    set(&mut entry, TY_SLOT);
    for &(slot, _) in &bc.binds {
        set(&mut entry, slot);
    }
    let expr_slots = |e: &SlotExpr, out: &mut Vec<usize>| out.extend(e.terms.iter().map(|t| t.0));
    let aop_slots = |a: AOp, out: &mut Vec<usize>| match a {
        AOp::Const(_) => {}
        AOp::Slot(s) => out.push(s as usize),
        AOp::Unit(u) => expr_slots(&bc.units[u as usize], out),
    };
    // A macro's guard may read its own specials, which it sets first.
    let pred_slots = |p: u32, own: &[usize], out: &mut Vec<usize>| {
        for c in &bc.preds[p as usize].conds {
            for e in [&c.lhs, &c.rhs] {
                out.extend(e.terms.iter().map(|t| t.0).filter(|s| !own.contains(s)));
            }
        }
    };
    // (reads, writes) of one instruction.
    let effects = |i: &Instr, reads: &mut Vec<usize>, writes: &mut Vec<usize>| match *i {
        Instr::Eval { dst, unit } => {
            expr_slots(&bc.units[unit as usize], reads);
            writes.push(dst as usize);
        }
        Instr::StepAdd { dst, .. } => {
            reads.push(dst as usize);
            writes.push(dst as usize);
        }
        Instr::LoopInit {
            var,
            hi,
            lo,
            hi_src,
            ..
        } => {
            aop_slots(lo, reads);
            aop_slots(hi_src, reads);
            writes.extend([var as usize, hi as usize]);
        }
        Instr::LoopTest { var, hi, .. } => reads.extend([var as usize, hi as usize]),
        Instr::BranchUniform { pred, .. } | Instr::IfSplit { pred, .. } => {
            pred_slots(pred, &[], reads)
        }
        Instr::FLoad { row, col, .. } | Instr::FStore { row, col, .. } => {
            aop_slots(row, reads);
            aop_slots(col, reads);
        }
        Instr::Stage { ix } => {
            let st = &bc.stages[ix as usize];
            aop_slots(st.row0, reads);
            aop_slots(st.col0, reads);
            pred_slots(st.guard, &[SR_SLOT, SC_SLOT], reads);
        }
        Instr::Move { ix } => {
            let mv = &bc.moves[ix as usize];
            aop_slots(mv.row0, reads);
            aop_slots(mv.col0, reads);
            pred_slots(mv.guard, &[GR_SLOT, GC_SLOT], reads);
        }
        _ => {}
    };
    let succs = |pc: usize| -> [Option<usize>; 2] {
        match bc.code[pc] {
            Instr::LoopTest { exit: t, .. }
            | Instr::BranchUniform { if_false: t, .. }
            | Instr::IfSplit { on_empty: t, .. }
            | Instr::IfElse { done: t } => [Some(pc + 1), Some(t as usize)],
            Instr::LoopJump { top: t } | Instr::Jump { target: t } => [Some(t as usize), None],
            _ => [Some(pc + 1), None],
        }
    };
    // Optimistic start: everything written (also at unreached pcs),
    // narrowed to the fixpoint.  `dw[pc]` is the set written on entry.
    let len = bc.code.len();
    let mut dw = vec![u64::MAX; (len + 1) * words];
    dw[..words].copy_from_slice(&entry);
    let mut out = vec![0u64; words];
    let mut work = vec![0usize];
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    while let Some(pc) = work.pop() {
        if pc >= len {
            continue;
        }
        out.copy_from_slice(&dw[pc * words..][..words]);
        reads.clear();
        writes.clear();
        effects(&bc.code[pc], &mut reads, &mut writes);
        for &w in &writes {
            set(&mut out, w);
        }
        for next in succs(pc).into_iter().flatten() {
            let mut changed = false;
            for (a, b) in dw[next * words..][..words].iter_mut().zip(&out) {
                changed |= *a & !b != 0;
                *a &= b;
            }
            if changed {
                work.push(next);
            }
        }
    }
    let mut zero = vec![0u64; words];
    for (pc, i) in bc.code.iter().enumerate() {
        reads.clear();
        writes.clear();
        effects(i, &mut reads, &mut writes);
        if writes.iter().any(|&w| has(&entry, w)) {
            return None;
        }
        let inw = &dw[pc * words..][..words];
        for &r in reads.iter().filter(|&&r| !has(inw, r)) {
            set(&mut zero, r);
        }
    }
    Some(
        (0..bc.n_slots)
            .filter(|&s| has(&zero, s))
            .map(|s| s as u32)
            .collect(),
    )
}

/// One block's execution state, borrowing a worker's [`VScratch`].
/// Fields are `pub(crate)` so the native tier (`crate::native`) can run
/// its preflight and microkernels directly on the block state.
pub(crate) struct VBlock<'a> {
    pub(crate) bc: &'a ByteCode,
    /// Lanes (threads per block).
    pub(crate) n: usize,
    /// `n.div_ceil(64)` — length of every mask bitset.
    pub(crate) words: usize,
    /// Slot-major integer frames: `frames[slot*n + lane]`.
    pub(crate) frames: &'a mut [i64],
    /// Reg-major virtual f32 registers: `fregs[reg*n + lane]`.
    pub(crate) fregs: &'a mut [f32],
    /// Flat shared-tile arena (one copy per block), tiles at
    /// `smem_off[s]`, column-major with leading dimension `rows + pad`.
    pub(crate) smem: &'a mut [f32],
    /// Flat register-tile arena: `regs[(reg_off[x] + r + c*rows)*n + lane]`.
    pub(crate) regs: &'a mut [f32],
    /// The block's write window per global (empty for unwritten ones).
    pub(crate) windows: &'a mut [Window],
    pub(crate) base: &'a [&'a Matrix],
    pub(crate) blank_flags: &'a [bool],
    pub(crate) active: &'a mut Vec<u64>,
    /// The all-lanes mask pattern (`active == full` ⇔ no divergence).
    pub(crate) full: &'a [u64],
    pub(crate) stack: &'a mut Vec<(Vec<u64>, Vec<u64>)>,
    pub(crate) sp: usize,
    /// The native tier's region table, when executing as `native`.
    pub(crate) native: Option<&'a NativeTable>,
    mlanes: &'a mut Vec<LBox>,
    pub(crate) nscratch: &'a mut NativeScratch,
}

/// Iterate the set lanes of a mask word-by-word.
macro_rules! for_active {
    ($self:ident, $lane:ident => $body:block) => {
        for w in 0..$self.words {
            let mut m = $self.active[w];
            while m != 0 {
                let $lane = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                $body
            }
        }
    };
}

impl VBlock<'_> {
    #[inline]
    fn eval_expr(&self, e: &SlotExpr, lane: usize) -> i64 {
        // SlotExpr::eval expects a lane-contiguous frame; our frames are
        // slot-major, so the dot product is re-expressed over the strided
        // layout here.
        let mut acc = e.constant;
        for &(s, c) in &e.terms {
            acc += c * self.frames[s * self.n + lane];
        }
        acc
    }

    #[inline]
    fn aop(&self, a: AOp, lane: usize) -> i64 {
        match a {
            AOp::Const(c) => c,
            AOp::Slot(s) => self.frames[s as usize * self.n + lane],
            AOp::Unit(u) => self.eval_expr(&self.bc.units[u as usize], lane),
        }
    }

    #[inline]
    fn eval_pred(&self, p: u32, lane: usize, thread0: bool) -> bool {
        let p = &self.bc.preds[p as usize];
        if p.thread0_only && !thread0 {
            return false;
        }
        if let Some(ix) = p.blank_flag {
            if self.blank_flags[ix] == p.blank_negated {
                return false;
            }
        }
        p.conds.iter().all(|c| {
            c.op.eval(self.eval_expr(&c.lhs, lane), self.eval_expr(&c.rhs, lane))
        })
    }

    /// Global read: the block's own writes shadow the snapshot.
    #[inline]
    pub(crate) fn gread(&self, g: usize, r: i64, c: i64) -> f32 {
        if self.bc.globals[g].written {
            if let Some(v) = self.windows[g].get(r, c) {
                return v;
            }
        }
        self.base[g].get(r, c)
    }

    #[inline]
    fn gwrite(&mut self, g: usize, r: i64, c: i64, v: f32) {
        self.windows[g].set(r, c, v);
    }

    #[inline]
    pub(crate) fn smem_ix(&self, s: usize, r: i64, c: i64) -> usize {
        let d = &self.bc.smem[s];
        let ld = d.rows + d.pad;
        // Mirrors Matrix::get/set bounds (rows ≤ r < ld lands in the pad).
        debug_assert!(
            r >= 0 && r < ld && c >= 0 && c < d.cols,
            "shared tile index ({r}, {c}) out of bounds"
        );
        self.bc.smem_off[s] + (r + c * ld) as usize
    }

    #[inline]
    fn reg_ix(&self, x: usize, r: i64, c: i64, lane: usize) -> usize {
        let d = &self.bc.regs[x];
        debug_assert!(
            r >= 0 && r < d.rows && c >= 0 && c < d.cols,
            "register tile index ({r}, {c}) out of bounds"
        );
        (self.bc.reg_off[x] + (r + c * d.rows) as usize) * self.n + lane
    }

    #[inline]
    fn read_elem(&self, arr: ArrRef, r: i64, c: i64, lane: usize) -> f32 {
        match arr {
            ArrRef::Global(g) => self.gread(g, r, c),
            ArrRef::Shared(s) => self.smem[self.smem_ix(s, r, c)],
            ArrRef::Reg(x) => self.regs[self.reg_ix(x, r, c, lane)],
        }
    }

    #[inline]
    fn write_elem(&mut self, arr: ArrRef, r: i64, c: i64, v: f32, lane: usize) {
        match arr {
            ArrRef::Global(g) => self.gwrite(g, r, c, v),
            ArrRef::Shared(s) => self.smem[self.smem_ix(s, r, c)] = v,
            ArrRef::Reg(x) => self.regs[self.reg_ix(x, r, c, lane)] = v,
        }
    }

    fn any_active(&self) -> bool {
        self.active.iter().any(|&w| w != 0)
    }

    /// True when every lane is active (the overwhelmingly common case in
    /// generated kernels — divergence is confined to guard regions).
    #[inline]
    pub(crate) fn mask_full(&self) -> bool {
        self.active[..] == self.full[..]
    }

    /// Lowest-numbered active lane, if any.
    #[inline]
    fn first_active(&self) -> Option<usize> {
        self.active
            .iter()
            .enumerate()
            .find(|(_, &m)| m != 0)
            .map(|(w, m)| w * 64 + m.trailing_zeros() as usize)
    }

    /// Uniform-address load: one read, broadcast to every lane.  Register
    /// tiles are lane-contiguous at a uniform element, so they broadcast
    /// as one vector copy.  Inactive lanes receive the value too — their
    /// virtual registers are dead (never stored), so this is
    /// unobservable.
    #[inline]
    fn fload_uniform(&mut self, dst: u32, arr: ArrRef, row: AOp, col: AOp) {
        let n = self.n;
        let Some(l0) = self.first_active() else {
            return;
        };
        let r = self.aop(row, l0);
        let c = self.aop(col, l0);
        let d = dst as usize * n;
        if let ArrRef::Reg(x) = arr {
            let base = self.reg_ix(x, r, c, 0);
            self.fregs[d..d + n].copy_from_slice(&self.regs[base..base + n]);
        } else {
            let v = self.read_elem(arr, r, c, l0);
            self.fregs[d..d + n].fill(v);
        }
    }

    /// Full-mask load: every lane gathers, with no mask bookkeeping and
    /// the array dispatch hoisted out of the lane loop.
    #[inline]
    fn fload_dense(&mut self, dst: u32, arr: ArrRef, row: AOp, col: AOp) {
        let n = self.n;
        let d = dst as usize * n;
        match arr {
            ArrRef::Global(g) if !self.bc.globals[g].written => {
                let m = self.base[g];
                for lane in 0..n {
                    let r = self.aop(row, lane);
                    let c = self.aop(col, lane);
                    self.fregs[d + lane] = m.get(r, c);
                }
            }
            _ => {
                for lane in 0..n {
                    let r = self.aop(row, lane);
                    let c = self.aop(col, lane);
                    let v = self.read_elem(arr, r, c, lane);
                    self.fregs[d + lane] = v;
                }
            }
        }
    }

    /// Lane-affine load: the subscripts advance by a constant per lane,
    /// so the gather needs no per-lane address evaluation.  A stride-1
    /// walk over an unwritten global — the coalesced-load pattern of the
    /// generated kernels — collapses to a plain slice copy; shared tiles
    /// become a constant-stride walk over the arena.
    #[inline]
    fn fload_affine(&mut self, dst: u32, arr: ArrRef, row: AOp, col: AOp, lr: i64, lc: i64) {
        let n = self.n;
        let Some(l0) = self.first_active() else {
            return;
        };
        // Subscripts at lane 0, extrapolated from the first active lane
        // (exact: the class is affine across every lane of the block).
        let r0 = self.aop(row, l0) - lr * l0 as i64;
        let c0 = self.aop(col, l0) - lc * l0 as i64;
        let d = dst as usize * n;
        if !self.mask_full() {
            for_active!(self, lane => {
                let r = r0 + lr * lane as i64;
                let c = c0 + lc * lane as i64;
                self.fregs[d + lane] = self.read_elem(arr, r, c, lane);
            });
            return;
        }
        match arr {
            ArrRef::Global(g) if !self.bc.globals[g].written => {
                let m = self.base[g];
                let base = r0 + c0 * m.ld;
                let stride = lr + lc * m.ld;
                if stride == 1 {
                    let base = base as usize;
                    self.fregs[d..d + n].copy_from_slice(&m.data[base..base + n]);
                } else {
                    for (lane, f) in self.fregs[d..d + n].iter_mut().enumerate() {
                        *f = m.data[(base + stride * lane as i64) as usize];
                    }
                }
            }
            ArrRef::Shared(s) => {
                let t = &self.bc.smem[s];
                let ld = t.rows + t.pad;
                let base = self.bc.smem_off[s] as i64 + r0 + c0 * ld;
                let stride = lr + lc * ld;
                for (lane, f) in self.fregs[d..d + n].iter_mut().enumerate() {
                    *f = self.smem[(base + stride * lane as i64) as usize];
                }
            }
            _ => {
                let (mut r, mut c) = (r0, c0);
                for lane in 0..n {
                    self.fregs[d + lane] = self.read_elem(arr, r, c, lane);
                    r += lr;
                    c += lc;
                }
            }
        }
    }

    /// Reserve (or reuse) the mask-stack entry at `sp` and return it.
    fn stack_entry(&mut self) -> (Vec<u64>, Vec<u64>) {
        if self.sp < self.stack.len() {
            std::mem::take(&mut self.stack[self.sp])
        } else {
            self.stack.push(Default::default());
            Default::default()
        }
    }

    fn run(&mut self) -> Result<(), ExecError> {
        let bc = self.bc;
        let code = &bc.code;
        let n = self.n;
        let mut pc = 0usize;
        while pc < code.len() {
            // Native tier: at a lowered region's entry point, hand the
            // whole nest to the microkernels; on `None` (divergent mask
            // or an unprovable guard — nothing mutated) fall through and
            // interpret the very same instructions.
            if let Some(nat) = self.native {
                let rix = nat.entry[pc];
                if rix != u32::MAX {
                    if let Some(next) = self.try_native(nat, rix) {
                        pc = next;
                        continue;
                    }
                }
            }
            match code[pc] {
                Instr::Eval { dst, unit } => {
                    eval_columns(self.frames, n, dst as usize, &bc.units[unit as usize]);
                    pc += 1;
                }
                Instr::StepAdd { dst, imm } => {
                    for v in &mut self.frames[dst as usize * n..(dst as usize + 1) * n] {
                        *v += imm;
                    }
                    pc += 1;
                }
                Instr::LoopInit {
                    var,
                    hi,
                    lo,
                    hi_src,
                    uniform,
                    label,
                } => {
                    let (mut saved, predm) = self.stack_entry();
                    saved.clear();
                    saved.extend_from_slice(self.active);
                    self.stack[self.sp] = (saved, predm);
                    self.sp += 1;
                    for lane in 0..n {
                        let l = self.aop(lo, lane);
                        let h = self.aop(hi_src, lane);
                        self.frames[var as usize * n + lane] = l;
                        self.frames[hi as usize * n + lane] = h;
                    }
                    if uniform {
                        let (l0, h0) =
                            (self.frames[var as usize * n], self.frames[hi as usize * n]);
                        for lane in 1..n {
                            if self.frames[var as usize * n + lane] != l0
                                || self.frames[hi as usize * n + lane] != h0
                            {
                                let label = &bc.labels[label as usize];
                                return Err(ExecError::BarrierDivergence(format!(
                                    "loop {label} bounds differ across threads"
                                )));
                            }
                        }
                    }
                    pc += 1;
                }
                Instr::LoopTest {
                    var,
                    hi,
                    exit,
                    uniform,
                } => {
                    let vn = var as usize * n;
                    let hn = hi as usize * n;
                    if uniform {
                        // Statically lane-invariant bounds: every lane
                        // passes or fails together, so test lane 0 and
                        // leave the mask untouched.
                        pc = if self.frames[vn] < self.frames[hn] {
                            pc + 1
                        } else {
                            exit as usize
                        };
                        continue;
                    }
                    let mut any = false;
                    for w in 0..self.words {
                        let lane0 = w * 64;
                        let lim = 64.min(n - lane0);
                        let mut bits = 0u64;
                        for i in 0..lim {
                            if self.frames[vn + lane0 + i] < self.frames[hn + lane0 + i] {
                                bits |= 1 << i;
                            }
                        }
                        let na = self.active[w] & bits;
                        self.active[w] = na;
                        any |= na != 0;
                    }
                    pc = if any { pc + 1 } else { exit as usize };
                }
                Instr::LoopJump { top } => pc = top as usize,
                Instr::Jump { target } => pc = target as usize,
                Instr::BranchUniform { pred, if_false } => {
                    let first = self.eval_pred(pred, 0, true);
                    for lane in 1..n {
                        if self.eval_pred(pred, lane, false) != first {
                            return Err(ExecError::BarrierDivergence(
                                "guard enclosing a barrier diverges".into(),
                            ));
                        }
                    }
                    pc = if first { pc + 1 } else { if_false as usize };
                }
                Instr::IfSplit { pred, on_empty } => {
                    let (mut saved, mut predm) = self.stack_entry();
                    saved.clear();
                    saved.extend_from_slice(self.active);
                    predm.clear();
                    predm.resize(self.words, 0);
                    for lane in 0..n {
                        if self.eval_pred(pred, lane, lane == 0) {
                            predm[lane / 64] |= 1 << (lane % 64);
                        }
                    }
                    for w in 0..self.words {
                        self.active[w] = saved[w] & predm[w];
                    }
                    self.stack[self.sp] = (saved, predm);
                    self.sp += 1;
                    pc = if self.any_active() {
                        pc + 1
                    } else {
                        on_empty as usize
                    };
                }
                Instr::IfElse { done } => {
                    let (saved, predm) = &self.stack[self.sp - 1];
                    for w in 0..self.words {
                        self.active[w] = saved[w] & !predm[w];
                    }
                    pc = if self.any_active() {
                        pc + 1
                    } else {
                        done as usize
                    };
                }
                Instr::PopMask => {
                    self.sp -= 1;
                    self.active.copy_from_slice(&self.stack[self.sp].0);
                    pc += 1;
                }
                Instr::FConst { dst, v } => {
                    self.fregs[dst as usize * n..(dst as usize + 1) * n].fill(v);
                    pc += 1;
                }
                Instr::FParamPanic { name } => {
                    // Reached only with at least one active lane (empty
                    // regions are jumped over), matching the oracle.
                    panic!("unbound scalar parameter {}", bc.params[name as usize]);
                }
                Instr::FLoad {
                    dst,
                    arr,
                    row,
                    col,
                    addr,
                } => {
                    match addr {
                        AddrClass::Affine { lr: 0, lc: 0 } => {
                            self.fload_uniform(dst, arr, row, col);
                        }
                        AddrClass::Affine { lr, lc } => {
                            self.fload_affine(dst, arr, row, col, lr, lc);
                        }
                        AddrClass::Generic => {
                            if self.mask_full() {
                                self.fload_dense(dst, arr, row, col);
                            } else {
                                for_active!(self, lane => {
                                    let r = self.aop(row, lane);
                                    let c = self.aop(col, lane);
                                    self.fregs[dst as usize * n + lane] =
                                        self.read_elem(arr, r, c, lane);
                                });
                            }
                        }
                    }
                    pc += 1;
                }
                Instr::FBin { op, dst, a, b } => {
                    bin_lanes(self.fregs, n, op, dst, a, b);
                    pc += 1;
                }
                Instr::FFma {
                    op,
                    dst,
                    a,
                    b,
                    c,
                    mul_first,
                } => {
                    fma_lanes(self.fregs, n, op, dst, [a, b, c], mul_first);
                    pc += 1;
                }
                Instr::FStore {
                    src,
                    arr,
                    row,
                    col,
                    op,
                    addr,
                } => {
                    // Uniform-address register-tile store: each lane owns
                    // its own register file, so the whole store is one
                    // contiguous vector op (the hot accumulator update in
                    // register-tiled kernels).
                    if addr == AddrClass::UNIFORM && self.mask_full() {
                        if let ArrRef::Reg(x) = arr {
                            let r = self.aop(row, 0);
                            let c = self.aop(col, 0);
                            let base = self.reg_ix(x, r, c, 0);
                            let s = src as usize * n;
                            let lanes = self.regs[base..base + n]
                                .iter_mut()
                                .zip(&self.fregs[s..s + n]);
                            match op {
                                AssignOp::Assign => lanes.for_each(|(d, v)| *d = *v),
                                AssignOp::AddAssign => lanes.for_each(|(d, v)| *d += v),
                                AssignOp::SubAssign => lanes.for_each(|(d, v)| *d -= v),
                            }
                            pc += 1;
                            continue;
                        }
                    }
                    for_active!(self, lane => {
                        let r = self.aop(row, lane);
                        let c = self.aop(col, lane);
                        let v = self.fregs[src as usize * n + lane];
                        let new = match op {
                            AssignOp::Assign => v,
                            AssignOp::AddAssign => self.read_elem(arr, r, c, lane) + v,
                            AssignOp::SubAssign => self.read_elem(arr, r, c, lane) - v,
                        };
                        self.write_elem(arr, r, c, new, lane);
                    });
                    pc += 1;
                }
                Instr::Stage { ix } => {
                    self.stage(ix);
                    pc += 1;
                }
                Instr::Move { ix } => {
                    self.reg_move(ix);
                    pc += 1;
                }
                Instr::RegZero { reg } => {
                    let x = reg as usize;
                    let d = &self.bc.regs[x];
                    let len = (d.rows * d.cols) as usize;
                    let off = self.bc.reg_off[x];
                    if self.mask_full() {
                        self.regs[off * n..(off + len) * n].fill(0.0);
                    } else {
                        for_active!(self, lane => {
                            for e in 0..len {
                                self.regs[(off + e) * n + lane] = 0.0;
                            }
                        });
                    }
                    pc += 1;
                }
            }
        }
        Ok(())
    }

    /// Cooperative staging: one whole-tile copy per block, evaluated on
    /// lane 0's frame with `thread0 = true`, exactly like the oracle.
    /// Always runs in a uniform (all-lanes) context.
    fn stage(&mut self, ix: u32) {
        let st = self.bc.stages[ix as usize];
        let n = self.n;
        let r0 = self.aop(st.row0, 0);
        let c0 = self.aop(st.col0, 0);
        let sr = SR_SLOT * n;
        let sc = SC_SLOT * n;
        for c in 0..st.cols {
            for r in 0..st.rows {
                // Symmetry mode reads blank-side elements from their global
                // mirror, exactly as the oracle does.
                let (gsr, gsc) = stage_src_coords(st.mode, st.src_fill, r0 + r, c0 + c);
                self.frames[sr] = gsr;
                self.frames[sc] = gsc;
                let v = if self.eval_pred(st.guard, 0, true) {
                    self.gread(st.src, gsr, gsc)
                } else {
                    0.0
                };
                match st.mode {
                    AllocMode::NoChange | AllocMode::Symmetry => {
                        let ix = self.smem_ix(st.dst, r, c);
                        self.smem[ix] = v;
                    }
                    AllocMode::Transpose => {
                        let ix = self.smem_ix(st.dst, c, r);
                        self.smem[ix] = v;
                    }
                }
            }
        }
    }

    /// Register-tile load/store nest for every active lane: in bulk when
    /// the move has a [`MovePlan`] and its guard cuts each lane's tile to
    /// a box, else per element, mirroring the oracle's per-thread
    /// register-tile statement (including the `__gr`/`__gc` specials the
    /// guard may consult).  The native tier counts which path ran.
    fn reg_move(&mut self, ix: u32) {
        let bc = self.bc;
        let outcome = match &bc.move_plans[ix as usize] {
            Ok(plan) => self.bulk_move(bc.moves[ix as usize], plan),
            Err(why) => Err(*why),
        };
        if let Some(nat) = self.native {
            nat.count_move(outcome);
        }
        if outcome.is_err() {
            self.element_move(ix);
        }
    }

    fn element_move(&mut self, ix: u32) {
        let mv = self.bc.moves[ix as usize];
        let n = self.n;
        let grn = GR_SLOT * n;
        let gcn = GC_SLOT * n;
        for_active!(self, lane => {
            let r0 = self.aop(mv.row0, lane);
            let c0 = self.aop(mv.col0, lane);
            for c in 0..mv.cols {
                for r in 0..mv.rows {
                    let gr = r0 + r * mv.row_stride;
                    let gc = c0 + c * mv.col_stride;
                    self.frames[grn + lane] = gr;
                    self.frames[gcn + lane] = gc;
                    if !self.eval_pred(mv.guard, lane, lane == 0) {
                        continue;
                    }
                    let rix = self.reg_ix(mv.reg, r, c, lane);
                    if mv.load {
                        self.regs[rix] = self.gread(mv.global, gr, gc);
                    } else {
                        self.gwrite(mv.global, gr, gc, self.regs[rix]);
                    }
                }
            }
        });
    }

    /// The bulk move.  The tile origin is lane-affine, so lane 0's
    /// gives every lane's, and each guard condition is affine in the lane
    /// and the tile element: its extremes over the block and the tile
    /// sit at corners.  When they prove the guard for every lane and
    /// element (the common interior block), each tile element is copied
    /// as one run per lane row; when they refute it, nothing is.  Else
    /// each lane's guard is cut to a box over its tile (`r` on the box's
    /// x axis, `c` on its y axis) — a monotone condition varying along
    /// one tile axis cuts it exactly — and the runs are the consecutive
    /// in-box lanes of a row.  A run's global addresses advance by the
    /// origin's per-`tx` step: one slice copy for a column run.  Loads
    /// read the snapshot shadowed by the window's written bits; stores
    /// cover the footprint once and write runs with their bits.  Returns
    /// the fallback reason, with nothing mutated, when the mask diverges
    /// or a guard is not a box.
    fn bulk_move(&mut self, mv: MoveOp, plan: &MovePlan) -> Result<(), MoveFallback> {
        if !self.mask_full() {
            return Err(MoveFallback::DivergentMask);
        }
        let n = self.n;
        let (bxd, byd) = self.bc.block;
        // A tile axis of extent 1 only ever takes coordinate 0.
        let (sr, sc) = (
            if mv.rows > 1 { mv.row_stride } else { 0 },
            if mv.cols > 1 { mv.col_stride } else { 0 },
        );
        let (r00, c00) = (self.aop(mv.row0, 0), self.aop(mv.col0, 0));
        let origin = |tx: i64, ty: i64| {
            (
                r00 + plan.row.0 * tx + plan.row.1 * ty,
                c00 + plan.col.0 * tx + plan.col.1 * ty,
            )
        };
        let pred = &self.bc.preds[mv.guard as usize];
        let blank_ok = pred
            .blank_flag
            .is_none_or(|ix| self.blank_flags[ix] != pred.blank_negated);
        let mut verdict = Some(blank_ok);
        for cond in &plan.conds {
            if verdict != Some(true) {
                break;
            }
            verdict = cond.lanes.and_then(|(la, lb)| {
                let w = self.eval_expr(&cond.rest, 0) + cond.kr * r00 + cond.kc * c00;
                let (lo, hi) = range(
                    w,
                    &[
                        (la, bxd),
                        (lb, byd),
                        (cond.kr * sr, mv.rows),
                        (cond.kc * sc, mv.cols),
                    ],
                );
                range_verdict(cond.op, lo, hi)
            });
        }
        let mut lanes = std::mem::take(self.mlanes);
        lanes.clear();
        if verdict.is_none() {
            let tile = LBox {
                txl: 0,
                txh: mv.rows,
                tyl: 0,
                tyh: mv.cols,
            };
            for lane in 0..n {
                let (r0, c0) = (self.aop(mv.row0, lane), self.aop(mv.col0, lane));
                let mut b = tile;
                for cond in &plan.conds {
                    let w = self.eval_expr(&cond.rest, lane) + cond.kr * r0 + cond.kc * c0;
                    match apply_cut(b, w, cond.kr * sr, cond.kc * sc, cond.op) {
                        Some(cut) => b = cut,
                        None => {
                            *self.mlanes = lanes;
                            return Err(MoveFallback::GuardCut);
                        }
                    }
                }
                lanes.push(b);
            }
        }
        // The per-element walk leaves each lane's last element in the
        // `__gr`/`__gc` slots.
        let (lr, lc) = ((mv.rows - 1) * mv.row_stride, (mv.cols - 1) * mv.col_stride);
        for ty in 0..byd {
            for tx in 0..bxd {
                let lane = (tx + ty * bxd) as usize;
                let (r0, c0) = origin(tx, ty);
                self.frames[GR_SLOT * n + lane] = r0 + lr;
                self.frames[GC_SLOT * n + lane] = c0 + lc;
            }
        }
        if verdict == Some(false) {
            *self.mlanes = lanes;
            return Ok(());
        }
        let g = mv.global;
        if !mv.load {
            // The footprint: over every lane and element when the guard
            // holds everywhere, else over each lane's box.
            let span = |b: LBox, r0: i64, c0: i64| {
                let (ra, rb) = range(
                    r0 + mv.row_stride * b.txl,
                    &[(mv.row_stride, b.txh - b.txl)],
                );
                let (ca, cb) = range(
                    c0 + mv.col_stride * b.tyl,
                    &[(mv.col_stride, b.tyh - b.tyl)],
                );
                [ra, rb, ca, cb]
            };
            let fp = if lanes.is_empty() {
                let (rl, rh) = range(
                    r00,
                    &[
                        (plan.row.0, bxd),
                        (plan.row.1, byd),
                        (mv.row_stride, mv.rows),
                    ],
                );
                let (cl, ch) = range(
                    c00,
                    &[
                        (plan.col.0, bxd),
                        (plan.col.1, byd),
                        (mv.col_stride, mv.cols),
                    ],
                );
                Some([rl, rh, cl, ch])
            } else {
                let mut fp: Option<[i64; 4]> = None;
                for (lane, &b) in lanes.iter().enumerate() {
                    if b.is_empty() {
                        continue;
                    }
                    let (r0, c0) = origin(lane as i64 % bxd, lane as i64 / bxd);
                    let [ra, rb, ca, cb] = span(b, r0, c0);
                    fp = Some(match fp {
                        None => [ra, rb, ca, cb],
                        Some([rl, rh, cl, ch]) => [rl.min(ra), rh.max(rb), cl.min(ca), ch.max(cb)],
                    });
                }
                fp
            };
            if let Some([rl, rh, cl, ch]) = fp {
                self.windows[g].cover(rl, rh, cl, ch);
            }
        }
        let d = &self.bc.regs[mv.reg];
        let step = (plan.row.0, plan.col.0);
        let win = self.bc.globals[g].written;
        for c in 0..mv.cols {
            for r in 0..mv.rows {
                let e = (self.bc.reg_off[mv.reg] + (r + c * d.rows) as usize) * n;
                for ty in 0..byd {
                    let row = (ty * bxd) as usize;
                    let inside = |t: i64| {
                        lanes.is_empty() || {
                            let b = lanes[row + t as usize];
                            b.txl <= r && r < b.txh && b.tyl <= c && c < b.tyh
                        }
                    };
                    let mut tx = 0;
                    while tx < bxd {
                        if !inside(tx) {
                            tx += 1;
                            continue;
                        }
                        let t0 = tx;
                        while tx < bxd && inside(tx) {
                            tx += 1;
                        }
                        let l0 = row + t0 as usize;
                        let len = (tx - t0) as usize;
                        let (r0, c0) = origin(t0, ty);
                        let (gr, gc) = (r0 + r * mv.row_stride, c0 + c * mv.col_stride);
                        let regs = &mut self.regs[e + l0..e + l0 + len];
                        if mv.load {
                            let w = win.then(|| &self.windows[g]);
                            read_run(w, self.base[g], gr, gc, step, regs);
                        } else {
                            self.windows[g].write_run(gr, gc, step, regs);
                        }
                    }
                }
            }
        }
        *self.mlanes = lanes;
        Ok(())
    }
}

/// `frames[dst] = e` over all `n` lanes of slot-major frames, one term
/// column at a time.  The destination's own terms go first, as
/// `d = c_dst·d + constant`, so a unit that reads its destination sees
/// each lane's old value before any other term is added.
fn eval_columns(frames: &mut [i64], n: usize, dst: usize, e: &SlotExpr) {
    let c_dst: i64 = e
        .terms
        .iter()
        .filter(|&&(s, _)| s == dst)
        .map(|&(_, c)| c)
        .sum();
    for d in &mut frames[dst * n..][..n] {
        *d = c_dst * *d + e.constant;
    }
    for &(s, c) in e.terms.iter().filter(|&&(s, _)| s != dst) {
        let (d, src) = if s < dst {
            let (lo, hi) = frames.split_at_mut(dst * n);
            (&mut hi[..n], &lo[s * n..][..n])
        } else {
            let (lo, hi) = frames.split_at_mut(s * n);
            (&mut lo[dst * n..][..n], &hi[..n])
        };
        for (d, v) in d.iter_mut().zip(src) {
            *d += c * v;
        }
    }
}

/// `fregs[dst] = fregs[a] op fregs[b]` over all `n` lanes.  Registers
/// are statement-local and allocated operands-first, so `dst > a, b` and
/// the split is safe.
pub(crate) fn bin_lanes(fregs: &mut [f32], n: usize, op: BinOp, dst: u32, a: u32, b: u32) {
    let (src, d) = fregs.split_at_mut(dst as usize * n);
    let lanes = d[..n]
        .iter_mut()
        .zip(&src[a as usize * n..][..n])
        .zip(&src[b as usize * n..][..n]);
    match op {
        BinOp::Add => lanes.for_each(|((d, a), b)| *d = a + b),
        BinOp::Sub => lanes.for_each(|((d, a), b)| *d = a - b),
        BinOp::Mul => lanes.for_each(|((d, a), b)| *d = a * b),
        BinOp::Div => lanes.for_each(|((d, a), b)| *d = a / b),
    }
}

/// The fused multiply-add `a·b ± c` (or `c ± a·b`) over all `n` lanes:
/// two separately rounded operations, never a fused `mul_add`, so it is
/// bit-identical to the oracle's tree walk.
pub(crate) fn fma_lanes(
    fregs: &mut [f32],
    n: usize,
    op: BinOp,
    dst: u32,
    [a, b, c]: [u32; 3],
    mul_first: bool,
) {
    let (src, d) = fregs.split_at_mut(dst as usize * n);
    let lanes = d[..n]
        .iter_mut()
        .zip(&src[a as usize * n..][..n])
        .zip(&src[b as usize * n..][..n])
        .zip(&src[c as usize * n..][..n]);
    match (op, mul_first) {
        (BinOp::Add, true) => lanes.for_each(|(((d, a), b), c)| *d = a * b + c),
        (BinOp::Add, false) => lanes.for_each(|(((d, a), b), c)| *d = c + a * b),
        (BinOp::Sub, true) => lanes.for_each(|(((d, a), b), c)| *d = a * b - c),
        (BinOp::Sub, false) => lanes.for_each(|(((d, a), b), c)| *d = c - a * b),
        _ => unreachable!("FFma is only built for Add/Sub"),
    }
}

/// The smallest and largest of `v0 + Σ kᵢ·xᵢ` over `xᵢ ∈ [0, extentᵢ)`
/// for `(kᵢ, extentᵢ)` in `terms`.
fn range(v0: i64, terms: &[(i64, i64)]) -> (i64, i64) {
    terms.iter().fold((v0, v0), |(lo, hi), &(k, extent)| {
        let d = k * (extent - 1);
        (lo + d.min(0), hi + d.max(0))
    })
}

/// Why a register-tile move ran per element instead of in bulk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MoveFallback {
    /// The guard holds for thread 0 only.
    ThreadZero,
    /// The tile origin is not lane-affine.
    NonAffineOrigin,
    /// A store whose lanes may write the same element: the interpreter's
    /// lane order would then decide the value.
    SharedElements,
    /// The move ran under a divergent mask.
    DivergentMask,
    /// A lane's guard does not cut its tile to a box.
    GuardCut,
}

impl MoveFallback {
    /// Every reason, in counter order.
    pub(crate) const ALL: [MoveFallback; 5] = [
        MoveFallback::ThreadZero,
        MoveFallback::NonAffineOrigin,
        MoveFallback::SharedElements,
        MoveFallback::DivergentMask,
        MoveFallback::GuardCut,
    ];

    /// Stable short name, for histograms.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MoveFallback::ThreadZero => "move-thread0-guard",
            MoveFallback::NonAffineOrigin => "move-non-affine-origin",
            MoveFallback::SharedElements => "move-shared-elements",
            MoveFallback::DivergentMask => "move-divergent-mask",
            MoveFallback::GuardCut => "move-guard-cut",
        }
    }
}

/// A register-tile move's bulk form, proved at compile time.
#[derive(Clone, Debug)]
pub(crate) struct MovePlan {
    /// Lane-affine classes `(a, b)` of the tile origin's row and column.
    pub(crate) row: (i64, i64),
    pub(crate) col: (i64, i64),
    /// The guard's conditions.
    conds: Vec<MoveCond>,
}

/// One guard condition `lhs − rhs op 0` of a bulk move: `rest + kr·__gr +
/// kc·__gc op 0`.
#[derive(Clone, Debug)]
struct MoveCond {
    rest: SlotExpr,
    kr: i64,
    kc: i64,
    op: CmpOp,
    /// The lane-affine class of `rest`, when it has one.
    lanes: Option<(i64, i64)>,
}

/// The bulk form of `mv`, or why it has none.  Stores also need every
/// `(lane, tile element)` pair to address its own global element.
pub(crate) fn plan_move(bc: &ByteCode, mv: &MoveOp) -> Result<MovePlan, MoveFallback> {
    let pred = &bc.preds[mv.guard as usize];
    if pred.thread0_only {
        return Err(MoveFallback::ThreadZero);
    }
    let origin = |a| bc.aop_lane(a).ok_or(MoveFallback::NonAffineOrigin);
    let (row, col) = (origin(mv.row0)?, origin(mv.col0)?);
    let conds = pred
        .conds
        .iter()
        .map(|c| {
            let mut rest = SlotExpr::cst(c.lhs.constant - c.rhs.constant);
            let (mut kr, mut kc) = (0, 0);
            let terms = c.lhs.terms.iter().copied();
            for (s, k) in terms.chain(c.rhs.terms.iter().map(|&(s, k)| (s, -k))) {
                match s {
                    GR_SLOT => kr += k,
                    GC_SLOT => kc += k,
                    _ => rest.terms.push((s, k)),
                }
            }
            let lanes = bc
                .expr_lane(&rest)
                .map(|(a, b)| (a + kr * row.0 + kc * col.0, b + kr * row.1 + kc * col.1));
            MoveCond {
                rest,
                kr,
                kc,
                op: c.op,
                lanes,
            }
        })
        .collect();
    let (bx, by) = bc.block;
    let axes = [
        (bx, row.0, col.0),
        (by, row.1, col.1),
        (mv.rows, mv.row_stride, 0),
        (mv.cols, 0, mv.col_stride),
    ];
    if !mv.load && !injective(&axes) {
        return Err(MoveFallback::SharedElements);
    }
    Ok(MovePlan { row, col, conds })
}

/// Whether `Σ kᵢ·(drᵢ, dcᵢ)` over `kᵢ ∈ [0, extentᵢ)` takes distinct
/// values for distinct `k`, by a sufficient test: every axis that varies
/// moves one coordinate only, and on each coordinate the axes, by
/// increasing stride, form a mixed radix — each stride exceeds the
/// largest offset the smaller ones reach.
pub(crate) fn injective(axes: &[(i64, i64, i64)]) -> bool {
    let mut dims: [Vec<(i64, i64)>; 2] = Default::default();
    for &(extent, dr, dc) in axes {
        if extent <= 1 {
            continue;
        }
        match (dr != 0, dc != 0) {
            (true, false) => dims[0].push((dr.abs(), extent)),
            (false, true) => dims[1].push((dc.abs(), extent)),
            _ => return false,
        }
    }
    dims.iter_mut().all(|d| {
        d.sort_unstable();
        let mut reach = 0;
        d.iter().all(|&(k, extent)| {
            let fits = k > reach;
            reach += k * (extent - 1);
            fits
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::exec_program;
    use oa_loopir::builder::{gemm_nn_like, trmm_ll_like};
    use oa_loopir::interp::{alloc_buffers, Bindings};
    use oa_loopir::transform::{loop_tiling, reg_alloc, sm_alloc, thread_grouping, TileParams};
    use oa_loopir::Program;

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

    /// Bit-exact comparison of `run` vs the oracle on fresh buffers.
    fn assert_matches_oracle(p: &Program, n: i64, seed: u64, run: impl FnOnce(&mut Buffers)) {
        let b = Bindings::square(n);
        let mut oracle = alloc_buffers(p, &b, seed);
        exec_program(p, &b, &mut oracle).expect("oracle exec");
        let mut fast = alloc_buffers(p, &b, seed);
        run(&mut fast);
        for (name, m) in &oracle {
            let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(m), bits(&fast[name]), "buffer {name} differs");
        }
    }

    /// Bit-exact comparison of bytecode vs oracle on fresh buffers.
    fn assert_bit_identical(p: &Program, n: i64, seed: u64) {
        let bc = ByteCode::compile(p, &Bindings::square(n)).expect("bytecode compile");
        assert_matches_oracle(p, n, seed, |bufs| bc.execute(bufs).expect("bytecode exec"));
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
        let bc = ByteCode::compile(&p, &b).unwrap();
        let mut first = alloc_buffers(&p, &b, 1);
        bc.execute(&mut first).unwrap();
        let mut second = alloc_buffers(&p, &b, 1);
        bc.execute(&mut second).unwrap();
        assert_eq!(first["C"].data, second["C"].data);
    }

    /// Grouping only: every thread accumulates straight into global `C`,
    /// so all of `C` goes through the write windows.
    fn global_store_gemm() -> Program {
        let mut p = gemm_nn_like("g");
        thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
        p
    }

    /// Bytecode and native against the oracle.
    fn assert_engines_bit_identical(p: &Program, n: i64, seed: u64) {
        assert_bit_identical(p, n, seed);
        let np = crate::NativeProgram::compile(p, &Bindings::square(n)).expect("native compile");
        assert_matches_oracle(p, n, seed, |bufs| np.execute(bufs).expect("native exec"));
    }

    /// Bytecode against the oracle with every block's first box hinted
    /// to `rows × cols` at `(dr, dc)` from its first write.
    fn assert_hinted_bit_identical(p: &Program, n: i64, seed: u64, hint: [i64; 4]) {
        let bc = ByteCode::compile(p, &Bindings::square(n)).expect("bytecode compile");
        assert!(bc.total_blocks() > 1, "needs several blocks");
        let [dr, dc, rows, cols] = hint;
        bc.hints.seed(bc.globals.len(), dr, dc, rows, cols);
        assert_matches_oracle(p, n, seed, |bufs| bc.execute(bufs).expect("bytecode exec"));
    }

    #[test]
    fn overlapping_boxes_merge_written_elements_only() {
        // Hint every block's first box to the whole matrix (the box is
        // cut to it): each block's box then holds every other block's
        // elements, unwritten.  Merging unmasked elements would overwrite
        // the earlier blocks' C with the later blocks' blanks.
        assert_hinted_bit_identical(&global_store_gemm(), 16, 3, [-32, -32, 64, 64]);
    }

    #[test]
    fn read_your_write_after_sub_assign() {
        // C[i][j] -= A[i][k]·B[k][j] over k, then C[i][j] = C[i][j]·A[i][j]:
        // each SubAssign reads the previous one's write, and the final
        // load reads the last, all from the block's window.
        use oa_loopir::scalar::{Access, ScalarExpr};
        use oa_loopir::stmt::{AssignStmt, Stmt};
        let mut p = gemm_nn_like("g");
        p.rewrite_loop("Lk", &mut |mut lk| {
            if let Stmt::Assign(a) = &mut lk.body[0] {
                a.op = AssignOp::SubAssign;
            }
            let scale = Stmt::Assign(AssignStmt::new(
                Access::idx("C", "i", "j"),
                AssignOp::Assign,
                ScalarExpr::mul(
                    ScalarExpr::load(Access::idx("C", "i", "j")),
                    ScalarExpr::load(Access::idx("A", "i", "j")),
                ),
            ));
            vec![Stmt::Loop(Box::new(lk)), scale]
        });
        thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
        assert_engines_bit_identical(&p, 16, 41);
        assert_engines_bit_identical(&p, 19, 43);
    }

    #[test]
    fn add_assign_on_an_unwritten_element_reads_the_snapshot() {
        // The first k iteration's `C += …` reads C's incoming value,
        // which only the snapshot holds.
        let p = global_store_gemm();
        let bufs = alloc_buffers(&p, &Bindings::square(16), 5);
        assert!(
            bufs["C"].data.iter().all(|&v| v != 0.0),
            "C must start non-zero for the snapshot read to show"
        );
        assert_engines_bit_identical(&p, 16, 5);
    }

    /// The full scheme at tile parameters `t`.
    fn register_tiled_gemm(t: TileParams) -> Program {
        let mut p = gemm_nn_like("g");
        thread_grouping(&mut p, "Li", "Lj", t).unwrap();
        loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
        sm_alloc(&mut p, "B", oa_loopir::AllocMode::Transpose).unwrap();
        reg_alloc(&mut p, "C").unwrap();
        p
    }

    /// Both engines against the oracle, with every register-tile move
    /// run in bulk (the native tier counts them).
    fn assert_moves_bulk_and_bit_identical(p: &Program, n: i64, seed: u64) {
        assert_engines_bit_identical(p, n, seed);
        let b = Bindings::square(n);
        let np = crate::NativeProgram::compile(p, &b).expect("native compile");
        np.execute(&mut alloc_buffers(p, &b, seed))
            .expect("native exec");
        let cov = np.coverage();
        assert!(
            cov.bulk_moves > 0 && cov.element_moves == 0,
            "n = {n}: {cov:?}"
        );
    }

    #[test]
    fn bulk_moves_cut_ragged_tiles() {
        // n = 120 cuts the 32 × 16 block tile of the serving shape (one
        // 1 × 16 register tile per lane) in both axes, n = 19 the 8 × 8
        // tile of 2 × 2 strided register tiles: edge lanes copy part of
        // their tile, or none of it.
        let serving = TileParams {
            ty: 32,
            tx: 16,
            thr_i: 32,
            thr_j: 1,
            kb: 16,
            unroll: 0,
        };
        assert_moves_bulk_and_bit_identical(&register_tiled_gemm(serving), 120, 31);
        assert_moves_bulk_and_bit_identical(&register_tiled_gemm(params()), 19, 23);
    }

    #[test]
    fn bulk_load_after_store_reads_the_window() {
        // Store the register tile, load it back and store it again, as
        // the TRSM solver loop reloads its tile: the reload must see the
        // block's own writes in the window, not the snapshot's C.
        fn reload(body: &mut Vec<Stmt>) {
            let mut i = 0;
            while i < body.len() {
                match &mut body[i] {
                    Stmt::RegStore(rt) => {
                        let rt = rt.clone();
                        body.insert(i + 1, Stmt::RegLoad(rt.clone()));
                        body.insert(i + 2, Stmt::RegStore(rt));
                        i += 3;
                        continue;
                    }
                    Stmt::Loop(l) => reload(&mut l.body),
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        reload(then_body);
                        reload(else_body);
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        use oa_loopir::stmt::Stmt;
        let mut p = register_tiled_gemm(params());
        reload(&mut p.body);
        assert_moves_bulk_and_bit_identical(&p, 16, 37);
        assert_moves_bulk_and_bit_identical(&p, 19, 41);
    }

    #[test]
    fn store_plans_need_lanes_to_own_their_elements() {
        // (extent, row step, col step) per axis: 4 lanes one row apart
        // with 2-row tiles 4 rows apart tile 8 rows exactly once …
        assert!(injective(&[(4, 1, 0), (2, 4, 0), (3, 0, 1)]));
        // … but 2 rows apart they overlap, and a lane axis that moves
        // neither coordinate, or both, is refused.
        assert!(!injective(&[(4, 1, 0), (2, 2, 0)]));
        assert!(!injective(&[(4, 0, 0)]));
        assert!(!injective(&[(4, 1, 1)]));
        assert!(injective(&[(1, 0, 0), (16, 0, -1)]));
    }

    #[test]
    fn column_eval_reading_its_destination_matches_lane_eval() {
        // frames[3] = 2·frames[3] − frames[1] + 5 reads its destination;
        // frames[2] = frames[0] + 3·frames[4] does not.  Both must equal
        // the per-lane dot product over the frame before the write.
        let n = 70;
        let frames: Vec<i64> = (0..5 * n as i64).map(|i| (i * 37) % 101 - 50).collect();
        for (dst, e) in [
            (
                3,
                SlotExpr {
                    terms: vec![(3, 2), (1, -1)],
                    constant: 5,
                },
            ),
            (
                2,
                SlotExpr {
                    terms: vec![(0, 1), (4, 3)],
                    constant: 0,
                },
            ),
        ] {
            let mut got = frames.clone();
            eval_columns(&mut got, n, dst, &e);
            for lane in 0..n {
                let want = e
                    .terms
                    .iter()
                    .fold(e.constant, |a, &(s, c)| a + c * frames[s * n + lane]);
                assert_eq!(got[dst * n + lane], want, "dst {dst} lane {lane}");
            }
            for s in (0..5).filter(|&s| s != dst) {
                assert_eq!(got[s * n..][..n], frames[s * n..][..n], "slot {s} moved");
            }
        }
    }

    #[test]
    fn interleaved_programs_on_one_worker_rekey_the_frame() {
        // A, B, A on one thread: each block of B must not start from A's
        // kept frame, nor A's second run from B's.  Every run matches the
        // oracle.
        let a = register_tiled_gemm(params());
        let b = global_store_gemm();
        let mut t = trmm_ll_like("t");
        thread_grouping(&mut t, "Li", "Lj", params()).unwrap();
        loop_tiling(&mut t, "Lii", "Ljj", "Lk").unwrap();
        let bind = Bindings::square(19);
        let compiled: Vec<ByteCode> = [&a, &b, &t]
            .iter()
            .map(|p| ByteCode::compile(p, &bind).expect("compile"))
            .collect();
        assert!(compiled[0].id != compiled[1].id && compiled[1].id != compiled[2].id);
        rayon::in_place(|| {
            for (p, bc) in [(&a, 0), (&b, 1), (&a, 0), (&t, 2), (&a, 0)] {
                assert_matches_oracle(p, 19, 7, |bufs| compiled[bc].execute(bufs).expect("exec"));
            }
        });
    }

    #[test]
    fn slots_read_before_written_are_zeroed() {
        // A hand-made stream over the compiled frame: slot s0 is written
        // before every read, s1 is stepped (read) before any write, and s2
        // is written on one branch only before the join reads it.
        let mut bc = ByteCode::compile(&global_store_gemm(), &Bindings::square(16)).unwrap();
        let first = bc.n_slots as u32;
        bc.n_slots += 3;
        let (s0, s1, s2) = (first, first + 1, first + 2);
        let k = bc.units.len() as u32;
        let (four, u, u2) = (k, k + 1, k + 2);
        bc.units.push(SlotExpr::cst(4));
        bc.units.push(SlotExpr {
            terms: vec![(s0 as usize, 1)],
            constant: 0,
        });
        bc.units.push(SlotExpr {
            terms: vec![(s2 as usize, 1)],
            constant: 0,
        });
        bc.code = vec![
            Instr::Eval {
                dst: s0,
                unit: four,
            },
            Instr::Eval { dst: s0, unit: u },
            Instr::StepAdd { dst: s1, imm: 1 },
            Instr::LoopInit {
                var: s2,
                hi: s0,
                lo: AOp::Const(0),
                hi_src: AOp::Slot(s0),
                uniform: true,
                label: 0,
            },
            Instr::LoopTest {
                var: s2,
                hi: s0,
                exit: 7,
                uniform: true,
            },
            Instr::StepAdd { dst: s2, imm: 1 },
            Instr::LoopJump { top: 4 },
            Instr::PopMask,
        ];
        // With the loop's init jumped over, s2 would be read unwritten:
        // here it is written first, so only s1 is zeroed.
        assert_eq!(frame_zeroes(&bc), Some(vec![s1]));
        bc.code[3] = Instr::IfSplit {
            pred: 0,
            on_empty: 5,
        };
        bc.code[4] = Instr::Eval { dst: s2, unit: u };
        bc.code[5] = Instr::PopMask;
        bc.code[6] = Instr::Eval { dst: s0, unit: u2 };
        bc.code.truncate(7);
        let z = frame_zeroes(&bc).expect("no builtin written");
        assert!(
            z.contains(&s1) && z.contains(&s2) && !z.contains(&s0),
            "{z:?}"
        );
    }

    #[test]
    fn writes_outside_the_first_box_grow_it() {
        // A 1×1 first box: every further write of the block lands outside
        // it, so the box grows (`window::tests` pins the sizes).
        let p = global_store_gemm();
        assert_hinted_bit_identical(&p, 16, 9, [0, 0, 1, 1]);
        assert_hinted_bit_identical(&p, 19, 29, [0, 0, 1, 1]);
    }
}
