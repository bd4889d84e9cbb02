//! Functional (barrier-stepped) kernel executor.
//!
//! Executes a lowered program with real CUDA-like semantics: blocks are
//! independent; threads within a block run in lockstep *segments* delimited
//! by `__syncthreads()`.  Statement subtrees containing no barrier execute
//! per-thread to completion; loops or guards enclosing a barrier advance
//! all threads together (guards must then be uniform — divergent barriers
//! are reported as errors, as on real hardware they deadlock).
//!
//! This is the correctness oracle for *final* kernels, including the
//! cross-thread `binding_triangular` solve that the sequential `oa-loopir`
//! interpreter cannot express.

use oa_loopir::arrays::{AllocMode, MemSpace};
use oa_loopir::expr::{AffineExpr, Predicate};
use oa_loopir::interp::{blank_is_zero, run_map_kernel, Bindings, Buffers, Matrix};
use oa_loopir::scalar::{Access, ScalarExpr};
use oa_loopir::stmt::{stage_src_coords, AssignOp, SharedStage, Stmt};
use oa_loopir::Program;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::launch::{extract_launch, LaunchError};

/// Execution errors.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// Launch extraction failed.
    Launch(LaunchError),
    /// Threads of one block diverged at a barrier-enclosing guard.
    BarrierDivergence(String),
    /// A referenced buffer is missing.
    MissingBuffer(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Launch(e) => write!(f, "launch: {e}"),
            ExecError::BarrierDivergence(m) => write!(f, "barrier divergence: {m}"),
            ExecError::MissingBuffer(m) => write!(f, "missing buffer: {m}"),
        }
    }
}

impl ExecError {
    /// A short stable class label mirroring
    /// [`EvalError::class`](crate::perf::EvalError::class): two engines
    /// that reject a case must reject it with the *same class* for the
    /// differential tests (and the fuzzer) to call the rejection
    /// identical.
    pub fn class(&self) -> &'static str {
        match self {
            ExecError::Launch(LaunchError::NotMapped) => "launch/not-mapped",
            ExecError::Launch(LaunchError::Malformed(_)) => "launch/malformed",
            ExecError::Launch(LaunchError::SizeConstraint { .. }) => "launch/size",
            ExecError::BarrierDivergence(_) => "barrier-divergence",
            ExecError::MissingBuffer(_) => "missing-buffer",
        }
    }
}

impl std::error::Error for ExecError {}

impl From<LaunchError> for ExecError {
    fn from(e: LaunchError) -> Self {
        ExecError::Launch(e)
    }
}

/// Does this subtree contain a barrier or cooperative stage?
pub(crate) fn has_barrier(s: &Stmt) -> bool {
    match s {
        Stmt::Sync | Stmt::Stage(_) => true,
        Stmt::Loop(l) => l.body.iter().any(has_barrier),
        Stmt::If {
            then_body,
            else_body,
            ..
        } => then_body.iter().any(has_barrier) || else_body.iter().any(has_barrier),
        _ => false,
    }
}

/// FxHash-style byte hasher for the oracle's name-keyed maps: every
/// affine term and array access looks a short name up, and SipHash
/// dominated the oracle's run time.
#[derive(Default)]
struct NameHasher(u64);

impl Hasher for NameHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }
}

type NameMap<V> = HashMap<String, V, BuildHasherDefault<NameHasher>>;

/// One thread's variable environment: loop variables, mapped builtins and
/// the `__tx`/`__ty`/`__sr`/`__sc`/`__gr`/`__gc` specials.
type Env = NameMap<i64>;

/// Bind `name` to `v`, allocating the key only on first insertion.
fn set_var(env: &mut Env, name: &str, v: i64) {
    match env.get_mut(name) {
        Some(slot) => *slot = v,
        None => {
            env.insert(name.to_string(), v);
        }
    }
}

/// Run a lowered program on the given buffers with GPU semantics:
/// prologue `GM_map` kernels, blank-zero checks, then the main kernel.
pub fn exec_program(p: &Program, bindings: &Bindings, bufs: &mut Buffers) -> Result<(), ExecError> {
    let resolve = |n: &str| p.resolve(n, bindings);
    for mk in &p.prologues {
        run_map_kernel(mk, bufs, &resolve);
    }
    let mut blank_flags = NameMap::default();
    for chk in &p.blank_checks {
        let decl = p
            .array(&chk.array)
            .ok_or_else(|| ExecError::MissingBuffer(chk.array.clone()))?;
        let m = bufs
            .get(&chk.array)
            .ok_or_else(|| ExecError::MissingBuffer(chk.array.clone()))?;
        blank_flags.insert(chk.array.clone(), blank_is_zero(m, decl.fill));
    }

    let launch = extract_launch(p, bindings)?;
    // Every size parameter `Program::resolve` can answer without
    // panicking, derived ones first (they shadow sizes there too).
    let mut params = NameMap::default();
    for d in &p.derived {
        if let Some(&base) = bindings.sizes.get(&d.base) {
            params
                .entry(d.name.clone())
                .or_insert((base + d.div - 1) / d.div);
        }
    }
    for (name, &v) in &bindings.sizes {
        params.entry(name.clone()).or_insert(v);
    }
    let mut spaces = NameMap::default();
    for a in &p.arrays {
        // First declaration wins, as in `Program::array`.
        spaces.entry(a.name.clone()).or_insert(a.space);
    }
    let mut engine = Engine {
        program: p,
        bindings,
        blank_flags,
        params,
        spaces,
        smem: NameMap::default(),
        regs: NameMap::default(),
    };
    for by in 0..launch.grid.1 {
        for bx in 0..launch.grid.0 {
            engine.reset_block_state(bufs);
            let threads: Vec<ThreadEnv> = (0..launch.block.1)
                .flat_map(|ty| (0..launch.block.0).map(move |tx| (tx, ty)))
                .map(|(tx, ty)| {
                    let mut env: Env = launch.bind_env(bx, by, tx, ty).into_iter().collect();
                    env.insert("__tx".into(), tx);
                    env.insert("__ty".into(), ty);
                    ThreadEnv {
                        vars: env,
                        tid: tx + ty * launch.block.0,
                    }
                })
                .collect();
            engine.lockstep(&launch.inner, &threads, bufs)?;
        }
    }
    Ok(())
}

#[derive(Clone)]
struct ThreadEnv {
    vars: Env,
    tid: i64,
}

struct Engine<'a> {
    program: &'a Program,
    bindings: &'a Bindings,
    blank_flags: NameMap<bool>,
    /// Resolved size parameters (the fallback for names no thread binds).
    params: NameMap<i64>,
    /// Memory space of each declared array (undeclared names are global).
    spaces: NameMap<MemSpace>,
    /// Per-block shared tiles (reset at block start).
    smem: NameMap<Matrix>,
    /// Per-thread register tiles: array name → tile per thread id.
    regs: NameMap<Vec<Option<Matrix>>>,
}

impl<'a> Engine<'a> {
    fn reset_block_state(&mut self, _bufs: &Buffers) {
        self.smem.clear();
        self.regs.clear();
        for a in &self.program.arrays {
            if a.space == MemSpace::Shared {
                let rows = a.rows.as_const().expect("shared dims are constant");
                let cols = a.cols.as_const().expect("shared dims are constant");
                self.smem
                    .insert(a.name.clone(), Matrix::zeros_padded(rows, cols, a.pad));
            }
        }
    }

    fn reg_tile(&mut self, name: &str, tid: i64) -> &mut Matrix {
        if !self.regs.contains_key(name) {
            self.regs.insert(name.to_string(), Vec::new());
        }
        let program = self.program;
        let tiles = self.regs.get_mut(name).expect("inserted above");
        let tid = tid as usize;
        if tiles.len() <= tid {
            tiles.resize_with(tid + 1, || None);
        }
        tiles[tid].get_or_insert_with(|| {
            let decl = program.array(name).expect("register array declared");
            let rows = decl.rows.as_const().expect("reg dims constant");
            let cols = decl.cols.as_const().expect("reg dims constant");
            Matrix::zeros(rows, cols)
        })
    }

    fn lookup(&self, env: &Env, name: &str) -> i64 {
        match env.get(name).or_else(|| self.params.get(name)) {
            Some(&v) => v,
            None => self.program.resolve(name, self.bindings), // panics: unbound
        }
    }

    fn eval(&self, e: &AffineExpr, env: &Env) -> i64 {
        e.eval(&|n| self.lookup(env, n))
    }

    fn eval_pred(&self, pred: &Predicate, env: &Env) -> bool {
        let thread0 = env.get("__tx") == Some(&0) && env.get("__ty") == Some(&0);
        let blank = pred
            .blank_zero
            .as_ref()
            .map(|a| *self.blank_flags.get(a).unwrap_or(&false))
            .unwrap_or(false);
        pred.eval(&|n| self.lookup(env, n), thread0, blank)
    }

    /// Lockstep execution of a statement list by all threads of a block.
    fn lockstep(
        &mut self,
        stmts: &[Stmt],
        threads: &[ThreadEnv],
        bufs: &mut Buffers,
    ) -> Result<(), ExecError> {
        for s in stmts {
            if !has_barrier(s) {
                for t in threads {
                    let mut env = t.vars.clone();
                    self.exec_thread(s, &mut env, t.tid, bufs)?;
                }
                continue;
            }
            match s {
                Stmt::Sync => {} // all threads are here by construction
                Stmt::Stage(st) => self.exec_stage(st, &threads[0].vars, bufs)?,
                Stmt::Loop(l) => {
                    // Barrier-enclosing loop: bounds must be uniform.
                    let lo = self.eval(&l.lower, &threads[0].vars);
                    let hi = self.eval(&l.upper, &threads[0].vars);
                    for t in threads {
                        if self.eval(&l.lower, &t.vars) != lo || self.eval(&l.upper, &t.vars) != hi
                        {
                            return Err(ExecError::BarrierDivergence(format!(
                                "loop {} bounds differ across threads",
                                l.label
                            )));
                        }
                    }
                    let mut iter_threads = threads.to_vec();
                    for v in lo..hi {
                        for t in &mut iter_threads {
                            t.vars.insert(l.var.clone(), v);
                        }
                        self.lockstep(&l.body, &iter_threads, bufs)?;
                    }
                }
                Stmt::If {
                    pred,
                    then_body,
                    else_body,
                } => {
                    let first = self.eval_pred(pred, &threads[0].vars);
                    for t in threads {
                        if self.eval_pred(pred, &t.vars) != first {
                            return Err(ExecError::BarrierDivergence(
                                "guard enclosing a barrier diverges".into(),
                            ));
                        }
                    }
                    let body = if first { then_body } else { else_body };
                    self.lockstep(body, threads, bufs)?;
                }
                _ => unreachable!("has_barrier only flags Sync/Stage/Loop/If"),
            }
        }
        Ok(())
    }

    /// Cooperative staging: semantically a single whole-tile copy per block.
    fn exec_stage(
        &mut self,
        st: &SharedStage,
        block_env: &Env,
        bufs: &Buffers,
    ) -> Result<(), ExecError> {
        let r0 = self.eval(&st.src_row0, block_env);
        let c0 = self.eval(&st.src_col0, block_env);
        let src = bufs
            .get(&st.src)
            .ok_or_else(|| ExecError::MissingBuffer(st.src.clone()))?;
        let mut env = block_env.clone();
        for c in 0..st.cols {
            for r in 0..st.rows {
                // Symmetry mode reads blank-side elements from their global
                // mirror (the logical value of a packed symmetric source).
                let (sr, sc) = stage_src_coords(st.mode, st.src_fill, r0 + r, c0 + c);
                set_var(&mut env, "__sr", sr);
                set_var(&mut env, "__sc", sc);
                let v = if self.eval_pred(&st.guard, &env) {
                    src.get(sr, sc)
                } else {
                    0.0
                };
                let dst = self
                    .smem
                    .get_mut(&st.dst)
                    .ok_or_else(|| ExecError::MissingBuffer(st.dst.clone()))?;
                match st.mode {
                    AllocMode::NoChange | AllocMode::Symmetry => dst.set(r, c, v),
                    AllocMode::Transpose => dst.set(c, r, v),
                }
            }
        }
        Ok(())
    }

    /// Fully sequential execution of a barrier-free subtree by one thread.
    fn exec_thread(
        &mut self,
        s: &Stmt,
        env: &mut Env,
        tid: i64,
        bufs: &mut Buffers,
    ) -> Result<(), ExecError> {
        match s {
            Stmt::Loop(l) => {
                let lo = self.eval(&l.lower, env);
                let hi = self.eval(&l.upper, env);
                for v in lo..hi {
                    set_var(env, &l.var, v);
                    for inner in &l.body {
                        self.exec_thread(inner, env, tid, bufs)?;
                    }
                }
                env.remove(&l.var);
            }
            Stmt::Assign(a) => {
                let v = self.eval_scalar(&a.rhs, env, tid, bufs)?;
                let r = self.eval(&a.lhs.row, env);
                let c = self.eval(&a.lhs.col, env);
                let old = self.read_elem(&a.lhs.array, r, c, tid, bufs)?;
                let new = match a.op {
                    AssignOp::Assign => v,
                    AssignOp::AddAssign => old + v,
                    AssignOp::SubAssign => old - v,
                };
                self.write_elem(&a.lhs.array, r, c, new, tid, bufs)?;
            }
            Stmt::If {
                pred,
                then_body,
                else_body,
            } => {
                let body = if self.eval_pred(pred, env) {
                    then_body
                } else {
                    else_body
                };
                for inner in body {
                    self.exec_thread(inner, env, tid, bufs)?;
                }
            }
            Stmt::RegLoad(rt) | Stmt::RegStore(rt) => {
                let load = matches!(s, Stmt::RegLoad(_));
                let r0 = self.eval(&rt.row0, env);
                let c0 = self.eval(&rt.col0, env);
                for c in 0..rt.cols {
                    for r in 0..rt.rows {
                        let gr = r0 + r * rt.row_stride;
                        let gc = c0 + c * rt.col_stride;
                        set_var(env, "__gr", gr);
                        set_var(env, "__gc", gc);
                        if !self.eval_pred(&rt.guard, env) {
                            continue;
                        }
                        if load {
                            let v = bufs
                                .get(&rt.global)
                                .ok_or_else(|| ExecError::MissingBuffer(rt.global.clone()))?
                                .get(gr, gc);
                            self.reg_tile(&rt.reg, tid).set(r, c, v);
                        } else {
                            let v = self.reg_tile(&rt.reg, tid).get(r, c);
                            bufs.get_mut(&rt.global)
                                .ok_or_else(|| ExecError::MissingBuffer(rt.global.clone()))?
                                .set(gr, gc, v);
                        }
                    }
                }
                // The coordinates are visible to the guard only.
                env.remove("__gr");
                env.remove("__gc");
            }
            Stmt::RegZero(rt) => {
                self.reg_tile(&rt.reg, tid).data.fill(0.0);
            }
            Stmt::Sync | Stmt::Stage(_) => {
                unreachable!("barrier statements handled in lockstep")
            }
        }
        Ok(())
    }

    fn space_of(&self, name: &str) -> MemSpace {
        self.spaces.get(name).copied().unwrap_or(MemSpace::Global)
    }

    fn read_elem(
        &mut self,
        name: &str,
        r: i64,
        c: i64,
        tid: i64,
        bufs: &Buffers,
    ) -> Result<f32, ExecError> {
        Ok(match self.space_of(name) {
            MemSpace::Global => bufs
                .get(name)
                .ok_or_else(|| ExecError::MissingBuffer(name.to_string()))?
                .get(r, c),
            MemSpace::Shared => self
                .smem
                .get(name)
                .ok_or_else(|| ExecError::MissingBuffer(name.to_string()))?
                .get(r, c),
            MemSpace::Reg => self.reg_tile(name, tid).get(r, c),
        })
    }

    fn write_elem(
        &mut self,
        name: &str,
        r: i64,
        c: i64,
        v: f32,
        tid: i64,
        bufs: &mut Buffers,
    ) -> Result<(), ExecError> {
        match self.space_of(name) {
            MemSpace::Global => bufs
                .get_mut(name)
                .ok_or_else(|| ExecError::MissingBuffer(name.to_string()))?
                .set(r, c, v),
            MemSpace::Shared => self
                .smem
                .get_mut(name)
                .ok_or_else(|| ExecError::MissingBuffer(name.to_string()))?
                .set(r, c, v),
            MemSpace::Reg => self.reg_tile(name, tid).set(r, c, v),
        }
        Ok(())
    }

    fn eval_scalar(
        &mut self,
        e: &ScalarExpr,
        env: &Env,
        tid: i64,
        bufs: &Buffers,
    ) -> Result<f32, ExecError> {
        Ok(match e {
            ScalarExpr::Load(acc) => self.read_access(acc, env, tid, bufs)?,
            ScalarExpr::Lit(v) => *v,
            ScalarExpr::Param(p) => *self
                .bindings
                .scalars
                .get(p)
                .unwrap_or_else(|| panic!("unbound scalar parameter {p}")),
            ScalarExpr::Bin(op, l, r) => {
                let a = self.eval_scalar(l, env, tid, bufs)?;
                let b = self.eval_scalar(r, env, tid, bufs)?;
                op.apply(a, b)
            }
        })
    }

    fn read_access(
        &mut self,
        acc: &Access,
        env: &Env,
        tid: i64,
        bufs: &Buffers,
    ) -> Result<f32, ExecError> {
        let r = self.eval(&acc.row, env);
        let c = self.eval(&acc.col, env);
        self.read_elem(&acc.array, r, c, tid, bufs)
    }
}

/// Run a program on freshly allocated buffers (pseudo-random global data)
/// and return them — the GPU-side analogue of `interp::run_fresh`.
///
/// Uses the fast path ([`crate::engine::exec_program_fast`] —
/// `OA_EXEC_ENGINE`-selectable, native by default); results are
/// bit-identical to the tree-walking oracle, which remains available as
/// [`run_fresh_gpu_ref`].
pub fn run_fresh_gpu(p: &Program, bindings: &Bindings, seed: u64) -> Result<Buffers, ExecError> {
    let mut bufs = oa_loopir::interp::alloc_buffers(p, bindings, seed);
    crate::engine::exec_program_fast(p, bindings, &mut bufs)?;
    Ok(bufs)
}

/// [`run_fresh_gpu`] on the tree-walking reference engine — the oracle
/// side of the differential tests.
pub fn run_fresh_gpu_ref(
    p: &Program,
    bindings: &Bindings,
    seed: u64,
) -> Result<Buffers, ExecError> {
    let mut bufs = oa_loopir::interp::alloc_buffers(p, bindings, seed);
    exec_program(p, bindings, &mut bufs)?;
    Ok(bufs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_loopir::builder::{gemm_nn_like, trmm_ll_like};
    use oa_loopir::interp::run_fresh;
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

    /// Compare GPU execution of a transformed program against the
    /// sequential interpretation of its reference.
    fn assert_gpu_matches(reference: &Program, transformed: &Program, n: i64, seed: u64, tol: f32) {
        let b = Bindings::square(n);
        let ref_out = run_fresh(reference, &b, seed);
        let gpu_out = run_fresh_gpu(transformed, &b, seed).expect("exec");
        for a in reference.assignments() {
            let name = &a.lhs.array;
            if reference
                .array(name)
                .map(|d| d.space == MemSpace::Global)
                .unwrap_or(false)
            {
                let d = ref_out[name].max_abs_diff(&gpu_out[name]);
                assert!(d <= tol, "array {name} differs by {d}");
            }
        }
    }

    #[test]
    fn gemm_full_scheme_on_gpu() {
        let reference = gemm_nn_like("g");
        let mut p = reference.clone();
        thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
        loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
        sm_alloc(&mut p, "B", oa_loopir::AllocMode::Transpose).unwrap();
        reg_alloc(&mut p, "C").unwrap();
        assert_gpu_matches(&reference, &p, 16, 3, 1e-4);
        assert_gpu_matches(&reference, &p, 32, 7, 1e-4);
    }

    #[test]
    fn trmm_scheme_on_gpu() {
        let reference = trmm_ll_like("t");
        let mut p = reference.clone();
        thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
        loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
        oa_loopir::transform::peel_triangular(&mut p, "A").unwrap();
        assert_gpu_matches(&reference, &p, 16, 5, 1e-4);
    }

    #[test]
    fn trsm_with_binding_on_gpu() {
        use oa_loopir::scalar::{Access, BinOp, ScalarExpr};
        use oa_loopir::stmt::{AssignOp, AssignStmt, Loop};
        // Build the TRSM-like solver program.
        let mut reference = gemm_nn_like("trsm");
        reference.rewrite_loop("Lk", &mut |mut lk: Loop| {
            lk.upper = AffineExpr::var("i");
            lk.body = vec![Stmt::Assign(AssignStmt::new(
                Access::idx("B", "i", "j"),
                AssignOp::SubAssign,
                ScalarExpr::mul(
                    ScalarExpr::load(Access::idx("A", "i", "k")),
                    ScalarExpr::load(Access::idx("B", "k", "j")),
                ),
            ))];
            vec![
                Stmt::Loop(Box::new(lk)),
                Stmt::Assign(AssignStmt::new(
                    Access::idx("B", "i", "j"),
                    AssignOp::Assign,
                    ScalarExpr::Bin(
                        BinOp::Div,
                        Box::new(ScalarExpr::load(Access::idx("B", "i", "j"))),
                        Box::new(ScalarExpr::load(Access::idx("A", "i", "i"))),
                    ),
                )),
            ]
        });
        let mut p = reference.clone();
        // Solver distribution: one column per thread (TX == thr_j).
        let sp = TileParams {
            ty: 8,
            tx: 4,
            thr_i: 4,
            thr_j: 4,
            kb: 4,
            unroll: 0,
        };
        thread_grouping(&mut p, "Li", "Lj", sp).unwrap();
        loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
        oa_loopir::transform::binding_triangular(&mut p, "A", 0).unwrap();
        // The bound version communicates across threads: only the GPU
        // executor gets this right.
        assert_gpu_matches(&reference, &p, 16, 11, 2e-3);
        assert_gpu_matches(&reference, &p, 32, 13, 2e-3);
    }

    #[test]
    fn grouping_only_runs_on_gpu() {
        let reference = gemm_nn_like("g");
        let mut p = reference.clone();
        thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
        assert_gpu_matches(&reference, &p, 19, 23, 1e-4);
    }

    #[test]
    fn unmapped_program_fails_launch() {
        let p = gemm_nn_like("g");
        let err = run_fresh_gpu(&p, &Bindings::square(8), 1).unwrap_err();
        assert!(matches!(err, ExecError::Launch(_)));
    }
}
