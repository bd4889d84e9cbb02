//! The performance model: sampled warp-level event counting plus a
//! calibrated throughput/latency model.
//!
//! The model walks the per-thread body of a lowered kernel for a
//! *stratified sample* of thread blocks and warps, evaluating every memory
//! access's real address stream.  Coalescing, bank conflicts and dynamic
//! instruction counts therefore *emerge* from the generated code — the
//! mechanism behind the paper's Tables I–III — rather than being asserted.
//! Sampled counts are scaled to the full grid; long sequential loops are
//! sampled stratified as well (iteration behaviour in the BLAS3 kernels is
//! either uniform or piecewise-linear in the loop counter, so stratified
//! means are accurate).
//!
//! Time model:
//! ```text
//! T_kernel = max(T_compute, T_memory) / occupancy_efficiency
//! T_compute = warp_instructions × cycles_per_warp_instr / (active_SMs × clock)
//! T_memory  = bytes / (bandwidth × efficiency)
//! ```
//! plus launch overheads and the analytic cost of `GM_map` prologues and
//! `check_blank_zero` passes.

use oa_loopir::arrays::{AllocMode, MemSpace};
use oa_loopir::expr::{AffineExpr, CmpOp, Predicate};
use oa_loopir::interp::Bindings;
use oa_loopir::scalar::ScalarExpr;
use oa_loopir::stmt::{AssignOp, SharedStage, Stmt};
use oa_loopir::Program;
use std::collections::{HashMap, VecDeque};

use crate::device::{DeviceSpec, WARP};
use crate::events::{apply_gmem, classify_gmem, record_gmem, smem_replays, GmemEvent};
use crate::launch::{
    estimate_regs_per_thread, extract_launch, smem_bytes_per_block, Builtin, Launch, LaunchError,
};
use crate::profile::ProfileCounters;

/// Result of a performance evaluation.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Device name.
    pub device: String,
    /// Main-kernel time, seconds.
    pub kernel_time_s: f64,
    /// Prologue (`GM_map`, blank checks) time, seconds.
    pub prologue_time_s: f64,
    /// End-to-end time.
    pub total_time_s: f64,
    /// Useful GFLOPS (caller-supplied flop count over total time).
    pub gflops: f64,
    /// Occupancy of the main kernel.
    pub occupancy: f64,
    /// Compute-side time bound.
    pub t_compute: f64,
    /// Memory-side time bound.
    pub t_memory: f64,
    /// Scaled hardware counters.
    pub counters: ProfileCounters,
    /// Registers/thread estimate used for occupancy.
    pub regs_per_thread: u32,
    /// Shared memory per block, bytes.
    pub smem_bytes: u32,
}

/// Why a performance evaluation failed — one class per distinguishable
/// cause, so the tuner's failure table can bucket candidates precisely.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// The program does not lower to a launchable kernel.
    Launch(LaunchError),
    /// The model produced a non-finite or non-positive time/GFLOPS figure
    /// (a modelling bug surfaced by a degenerate candidate; never silently
    /// ranked).
    NonFinite(&'static str),
}

impl EvalError {
    /// A short stable class label (`launch/not-mapped`,
    /// `launch/malformed`, `launch/size`, `non-finite`) for failure-table
    /// bucketing.
    pub fn class(&self) -> &'static str {
        match self {
            EvalError::Launch(LaunchError::NotMapped) => "launch/not-mapped",
            EvalError::Launch(LaunchError::Malformed(_)) => "launch/malformed",
            EvalError::Launch(LaunchError::SizeConstraint { .. }) => "launch/size",
            EvalError::NonFinite(_) => "non-finite",
        }
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Launch(e) => write!(f, "launch: {e}"),
            EvalError::NonFinite(what) => write!(f, "non-finite model output ({what})"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<LaunchError> for EvalError {
    fn from(e: LaunchError) -> Self {
        EvalError::Launch(e)
    }
}

/// Evaluate a lowered program on a device.
///
/// `useful_flops` is the routine's nominal flop count (e.g. `2·M·N·K` for
/// GEMM); it defines the GFLOPS denominator exactly as the paper's figures
/// do.  `blank_zero` supplies the runtime `check_blank_zero` outcome for
/// multi-versioned kernels.
pub fn evaluate(
    p: &Program,
    bindings: &Bindings,
    device: &DeviceSpec,
    useful_flops: f64,
    blank_zero: bool,
) -> Result<PerfReport, EvalError> {
    let launch = extract_launch(p, bindings)?;
    let compiled = Compiler::new(p, bindings, &launch, blank_zero, device).compile(&launch.inner);

    let threads = launch.threads_per_block();
    let nwarps = ((threads + WARP as i64 - 1) / WARP as i64).max(1);

    // Stratified block sample (≤ 4 strata per grid dimension; the BLAS3
    // per-block workloads are constant or piecewise linear in the block
    // index, for which stratified midpoints are near-exact).
    let sample_x = strata(launch.grid.0, 4);
    let sample_y = strata(launch.grid.1, 4);

    // Warp sample: warp 0 exactly once (it owns thread (0,0), which can
    // carry bound serial work), plus one representative for the rest.
    let warp_samples: Vec<(i64, f64)> = if nwarps == 1 {
        vec![(0, 1.0)]
    } else {
        vec![(0, 1.0), (nwarps - 1, (nwarps - 1) as f64)]
    };

    let mut counters = ProfileCounters::default();
    for &(by, wy) in &sample_y {
        for &(bx, wx) in &sample_x {
            for &(warp, ww) in &warp_samples {
                let mut walker = Walker::new(device, &compiled, &launch, bx, by, warp);
                walker.weight = wx * wy * ww;
                walker.walk(&compiled.body);
                counters += walker.counters;
            }
        }
    }

    // Resources and occupancy.
    let regs = estimate_regs_per_thread(p);
    let smem = smem_bytes_per_block(p);
    let occ = device.occupancy(threads as u32, regs, smem);
    // Below ~25% occupancy the SM cannot hide latency; the penalty is a
    // simple linear derating with a floor.
    let occ_eff = (occ / 0.25).clamp(0.20, 1.0);

    let active_sms = device.sms.min(launch.total_blocks() as u32).max(1) as f64;
    let clock_hz = device.clock_ghz * 1.0e9;
    let t_compute = counters.instructions * device.cycles_per_warp_instr()
        / (active_sms * clock_hz * device.issue_efficiency);
    let t_memory = counters.gmem_bytes / (device.mem_bw_gbs * 1.0e9 * device.mem_efficiency);
    let kernel_time = t_compute.max(t_memory) / occ_eff + device.launch_overhead_s;

    let prologue_time = prologue_cost(p, bindings, device);
    let total = kernel_time + prologue_time;
    if !total.is_finite() || total <= 0.0 {
        return Err(EvalError::NonFinite("total time"));
    }

    Ok(PerfReport {
        device: device.name.to_string(),
        kernel_time_s: kernel_time,
        prologue_time_s: prologue_time,
        total_time_s: total,
        gflops: useful_flops / total / 1.0e9,
        occupancy: occ,
        t_compute,
        t_memory,
        counters,
        regs_per_thread: regs,
        smem_bytes: smem,
    })
}

/// Stratified sample of `[0, n)`: up to `max_strata` (midpoint, weight)
/// pairs whose weights sum to `n`.
fn strata(n: i64, max_strata: usize) -> Vec<(i64, f64)> {
    let n = n.max(1);
    let s = (max_strata as i64).min(n);
    (0..s)
        .map(|k| {
            let lo = k * n / s;
            let hi = (k + 1) * n / s;
            ((lo + hi - 1) / 2, (hi - lo) as f64)
        })
        .collect()
}

/// Analytic cost of the `GM_map` prologues and blank-zero checks: simple
/// streaming passes, bandwidth-bound with a small instruction overhead.
fn prologue_cost(p: &Program, bindings: &Bindings, device: &DeviceSpec) -> f64 {
    let resolve = |n: &str| p.resolve(n, bindings);
    let bw = device.mem_bw_gbs * 1.0e9 * device.mem_efficiency;
    let clock_hz = device.clock_ghz * 1.0e9;
    let mut t = 0.0;
    for mk in &p.prologues {
        let elems = (mk.rows.eval(&resolve) * mk.cols.eval(&resolve)) as f64;
        let bytes = elems * 8.0; // read + write
        let instr = elems * 6.0 / WARP as f64;
        let t_c = instr * device.cycles_per_warp_instr() / (device.sms as f64 * clock_hz);
        t += (bytes / bw).max(t_c) + device.launch_overhead_s;
    }
    for chk in &p.blank_checks {
        if let Some(decl) = p.array(&chk.array) {
            let elems = (decl.rows.eval(&resolve) * decl.cols.eval(&resolve)) as f64 / 2.0;
            t += elems * 4.0 / bw + device.launch_overhead_s;
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Compiled form: affine expressions flattened onto an indexed environment so
// the inner sampling loops avoid string lookups entirely.
// ---------------------------------------------------------------------------

/// An affine expression split by how it varies across a warp.  Only the
/// thread indices differ between the lanes of one walked warp (loop
/// variables are warp-uniform and the block indices are fixed per walk), so
/// every expression is a uniform part over the walker's environment plus a
/// lane part `lane.0·tx + lane.1·ty`.
#[derive(Clone, Debug, Default)]
struct CExpr {
    /// Warp-uniform variable terms (environment index, coefficient).
    terms: Vec<(usize, i64)>,
    cst: i64,
    /// Coefficients of the lane's thread indices `(tx, ty)`.
    lane: (i64, i64),
}

impl CExpr {
    /// The warp-uniform part.
    #[inline]
    fn uniform(&self, env: &[i64]) -> i64 {
        let mut acc = self.cst;
        for &(v, c) in &self.terms {
            acc += c * env[v];
        }
        acc
    }

    /// The lane part at thread indices `(tx, ty)`.
    #[inline]
    fn lane_offset(&self, (tx, ty): (i64, i64)) -> i64 {
        self.lane.0 * tx + self.lane.1 * ty
    }

    fn is_uniform(&self) -> bool {
        self.lane == (0, 0)
    }

    /// `self + other·k`, merging terms.
    fn add_scaled(mut self, other: &CExpr, k: i64) -> CExpr {
        self.cst += other.cst * k;
        self.lane.0 += other.lane.0 * k;
        self.lane.1 += other.lane.1 * k;
        for &(v, c) in &other.terms {
            if let Some(t) = self.terms.iter_mut().find(|(tv, _)| *tv == v) {
                t.1 += c * k;
            } else {
                self.terms.push((v, c * k));
            }
        }
        self
    }
}

#[derive(Clone, Debug)]
struct CCond {
    lhs: CExpr,
    op: CmpOp,
    rhs: CExpr,
}

#[derive(Clone, Debug, Default)]
struct CPred {
    conds: Vec<CCond>,
    thread0: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CSpace {
    Global,
    Shared,
}

#[derive(Clone, Debug)]
struct CAccess {
    space: CSpace,
    is_store: bool,
    word: CExpr,
    /// Unique access-site id, used by the walker's register-reuse memo.
    site: usize,
}

#[derive(Clone, Debug)]
struct CStage {
    rows: i64,
    cols: i64,
    src_row0: CExpr,
    src_col0: CExpr,
    src_base: i64,
    src_ld: i64,
    src_rows: i64,
    src_cols: i64,
    dst_base: i64,
    dst_ld: i64,
    mode: AllocMode,
    strided: bool,
    /// Unique staging-site id, used by the walker's stage memo.
    site: usize,
}

#[derive(Clone, Debug)]
enum CStmt {
    Loop {
        var: usize,
        lower: CExpr,
        upper: CExpr,
        overhead: f64,
        body: Vec<CStmt>,
    },
    Assign {
        accesses: Vec<CAccess>,
        instr: f64,
        flops: f64,
    },
    If {
        pred: CPred,
        then_b: Vec<CStmt>,
        else_b: Vec<CStmt>,
    },
    Stage(CStage),
    /// Register tile load/store: per-element (guard, global word address).
    RegXfer {
        elems: Vec<(CPred, CExpr)>,
        is_store: bool,
    },
    Nop,
}

#[derive(Debug)]
struct Compiled {
    body: Vec<CStmt>,
    nvars: usize,
    nsites: usize,
    /// Staging sites.
    nstages: usize,
    smem_load_cost: f64,
    /// Block-index bind variables: (env index, `true` for `BlockY`).
    block_binds: Vec<(usize, bool)>,
}

struct Compiler<'a> {
    program: &'a Program,
    bindings: &'a Bindings,
    blank_zero: bool,
    /// Instruction cost of a shared-memory load: on CC 1.x one MAD operand
    /// may come straight from shared memory, so the load is nearly free;
    /// Fermi's load/store architecture needs a real LDS instruction.
    smem_load_cost: f64,
    scope: Vec<String>,
    vars: Vec<String>,
    var_map: HashMap<String, usize>,
    /// Word base offset of each global array.
    gbase: HashMap<String, i64>,
    /// Word base offset of each shared array (separate space).
    sbase: HashMap<String, i64>,
    block_binds: Vec<(usize, bool)>,
    /// Variables holding a thread index: (env index, `true` for `ty`).
    lane_vars: Vec<(usize, bool)>,
    sites: usize,
    stages: usize,
    /// Known inclusive value ranges of in-scope iteration variables, used
    /// for guard specialization (nvcc-style "fulltile" kernels: guards
    /// provably true over the whole iteration box are dropped).
    ranges: HashMap<usize, (i64, i64)>,
}

impl<'a> Compiler<'a> {
    fn new(
        p: &'a Program,
        bindings: &'a Bindings,
        launch: &Launch,
        blank_zero: bool,
        device: &DeviceSpec,
    ) -> Self {
        let mut c = Compiler {
            program: p,
            bindings,
            blank_zero,
            smem_load_cost: match device.cc {
                crate::device::ComputeCapability::Cc2_0 => 1.0,
                _ => 0.3,
            },
            scope: Vec::new(),
            vars: Vec::new(),
            var_map: HashMap::new(),
            gbase: HashMap::new(),
            sbase: HashMap::new(),
            block_binds: Vec::new(),
            lane_vars: Vec::new(),
            sites: 0,
            stages: 0,
            ranges: HashMap::new(),
        };
        // Assign base offsets (words), 32-word aligned so arrays never
        // share a cache line.
        let mut goff = 0i64;
        let mut soff = 0i64;
        let resolve = |n: &str| p.resolve(n, bindings);
        for a in &p.arrays {
            match a.space {
                MemSpace::Global => {
                    c.gbase.insert(a.name.clone(), goff);
                    let len = (a.rows.eval(&resolve) + a.pad) * a.cols.eval(&resolve);
                    goff += (len + 31) / 32 * 32 + 32;
                }
                MemSpace::Shared => {
                    c.sbase.insert(a.name.clone(), soff);
                    let len = (a.rows.eval(&resolve) + a.pad) * a.cols.eval(&resolve);
                    soff += len;
                }
                MemSpace::Reg => {}
            }
        }
        let tx_var = c.var_idx("__tx");
        let ty_var = c.var_idx("__ty");
        c.ranges.insert(tx_var, (0, launch.block.0 - 1));
        c.ranges.insert(ty_var, (0, launch.block.1 - 1));
        c.lane_vars = vec![(tx_var, false), (ty_var, true)];
        for (v, b) in &launch.binds {
            c.scope.push(v.clone());
            let idx = c.var_idx(v);
            let hi = match b {
                Builtin::BlockX => {
                    c.block_binds.push((idx, false));
                    launch.grid.0
                }
                Builtin::BlockY => {
                    c.block_binds.push((idx, true));
                    launch.grid.1
                }
                Builtin::ThreadX => {
                    c.lane_vars.push((idx, false));
                    launch.block.0
                }
                Builtin::ThreadY => {
                    c.lane_vars.push((idx, true));
                    launch.block.1
                }
            };
            c.ranges.insert(idx, (0, hi - 1));
        }
        c.scope.push("__tx".into());
        c.scope.push("__ty".into());
        c
    }

    fn var_idx(&mut self, name: &str) -> usize {
        if let Some(i) = self.var_map.get(name) {
            return *i;
        }
        let i = self.vars.len();
        self.vars.push(name.to_string());
        self.var_map.insert(name.to_string(), i);
        i
    }

    fn compile(mut self, stmts: &[Stmt]) -> Compiled {
        let body = self.compile_stmts(stmts);
        Compiled {
            body,
            nvars: self.vars.len(),
            nsites: self.sites,
            nstages: self.stages,
            smem_load_cost: self.smem_load_cost,
            block_binds: self.block_binds,
        }
    }

    /// Inclusive interval of an affine expression over the known ranges of
    /// in-scope variables; `None` when any variable's range is unknown.
    fn expr_range(&mut self, e: &AffineExpr) -> Option<(i64, i64)> {
        let mut lo = e.constant();
        let mut hi = e.constant();
        // Collect first to appease the borrow checker.
        let terms: Vec<(String, i64)> = e.terms().map(|(v, c)| (v.to_string(), c)).collect();
        for (v, c) in terms {
            if self.scope.iter().any(|s| s == &v) {
                let idx = self.var_idx(&v);
                let (vlo, vhi) = *self.ranges.get(&idx)?;
                if c >= 0 {
                    lo += c * vlo;
                    hi += c * vhi;
                } else {
                    lo += c * vhi;
                    hi += c * vlo;
                }
            } else {
                let k = c * self.program.resolve(&v, self.bindings);
                lo += k;
                hi += k;
            }
        }
        Some((lo, hi))
    }

    /// Is a comparison provably true / provably false over the iteration
    /// box?  `None` means genuinely dynamic.
    fn cond_verdict(&mut self, c: &oa_loopir::AffineCond) -> Option<bool> {
        let (llo, lhi) = self.expr_range(&c.lhs)?;
        let (rlo, rhi) = self.expr_range(&c.rhs)?;
        let always = match c.op {
            CmpOp::Lt => lhi < rlo,
            CmpOp::Le => lhi <= rlo,
            CmpOp::Gt => llo > rhi,
            CmpOp::Ge => llo >= rhi,
            CmpOp::Eq => llo == lhi && rlo == rhi && llo == rlo,
            CmpOp::Ne => lhi < rlo || llo > rhi,
        };
        if always {
            return Some(true);
        }
        let never = match c.op {
            CmpOp::Lt => llo >= rhi,
            CmpOp::Le => llo > rhi,
            CmpOp::Gt => lhi <= rlo,
            CmpOp::Ge => lhi < rlo,
            CmpOp::Eq => lhi < rlo || llo > rhi,
            CmpOp::Ne => llo == lhi && rlo == rhi && llo == rlo,
        };
        if never {
            return Some(false);
        }
        None
    }

    fn cexpr(&mut self, e: &AffineExpr) -> CExpr {
        let mut out = CExpr {
            cst: e.constant(),
            ..CExpr::default()
        };
        for (v, coeff) in e.terms() {
            if self.scope.iter().any(|s| s == v) {
                let idx = self.var_idx(v);
                match self.lane_vars.iter().find(|(i, _)| *i == idx) {
                    Some((_, false)) => out.lane.0 += coeff,
                    Some((_, true)) => out.lane.1 += coeff,
                    None => out.terms.push((idx, coeff)),
                }
            } else {
                out.cst += coeff * self.program.resolve(v, self.bindings);
            }
        }
        out
    }

    /// Compile a predicate; returns `None` when the predicate is statically
    /// false under the blank-zero assumption (branch pruned).
    fn cpred(&mut self, pred: &Predicate) -> Option<CPred> {
        if let Some(_arr) = &pred.blank_zero {
            let want = !pred.blank_zero_negated;
            if self.blank_zero != want {
                return None;
            }
        }
        let mut conds = Vec::new();
        for c in &pred.conds {
            match self.cond_verdict(c) {
                Some(true) => continue, // specialized away (full tile)
                Some(false) => return None,
                None => conds.push(CCond {
                    lhs: self.cexpr(&c.lhs),
                    op: c.op,
                    rhs: self.cexpr(&c.rhs),
                }),
            }
        }
        Some(CPred {
            conds,
            thread0: pred.thread0_only,
        })
    }

    fn ld_of(&self, name: &str) -> i64 {
        let resolve = |n: &str| self.program.resolve(n, self.bindings);
        self.program
            .array(name)
            .map(|a| a.rows.eval(&resolve) + a.pad)
            .unwrap_or(1)
    }

    /// Column-major word address `base + row + col·ld` of an element of
    /// `array`.
    fn word(&mut self, base: i64, array: &str, row: &AffineExpr, col: &AffineExpr) -> CExpr {
        let ld = self.ld_of(array);
        let mut word = self.cexpr(row);
        word.cst += base;
        let col = self.cexpr(col);
        word.add_scaled(&col, ld)
    }

    fn access_word(&mut self, acc: &oa_loopir::Access) -> Option<CAccess> {
        let space = self
            .program
            .array(&acc.array)
            .map(|a| a.space)
            .unwrap_or(MemSpace::Global);
        let (cspace, base) = match space {
            MemSpace::Global => (CSpace::Global, *self.gbase.get(&acc.array).unwrap_or(&0)),
            MemSpace::Shared => (CSpace::Shared, *self.sbase.get(&acc.array).unwrap_or(&0)),
            MemSpace::Reg => return None,
        };
        let word = self.word(base, &acc.array, &acc.row, &acc.col);
        let site = self.sites;
        self.sites += 1;
        Some(CAccess {
            space: cspace,
            is_store: false,
            word,
            site,
        })
    }

    fn compile_stmts(&mut self, stmts: &[Stmt]) -> Vec<CStmt> {
        stmts.iter().map(|s| self.compile_stmt(s)).collect()
    }

    fn compile_stmt(&mut self, s: &Stmt) -> CStmt {
        match s {
            Stmt::Loop(l) => {
                let bound_range = (self.expr_range(&l.lower), self.expr_range(&l.upper));
                let lower = self.cexpr(&l.lower);
                let upper = self.cexpr(&l.upper);
                self.scope.push(l.var.clone());
                let var = self.var_idx(&l.var);
                if let (Some((llo, _)), Some((_, uhi))) = bound_range {
                    self.ranges.insert(var, (llo, (uhi - 1).max(llo)));
                }
                let body = self.compile_stmts(&l.body);
                self.scope.pop();
                self.ranges.remove(&var);
                let const_trip = match (l.lower.as_const(), l.upper.as_const()) {
                    (Some(a), Some(b)) => Some(b - a),
                    _ => None,
                };
                let overhead = match l.unroll {
                    0 => 0.0,
                    // nvcc -O2 fully unrolls tiny constant-trip loops.
                    1 if const_trip.map(|t| t <= 8).unwrap_or(false) => 0.0,
                    1 => 2.0,
                    f => 2.0 / f as f64,
                };
                CStmt::Loop {
                    var,
                    lower,
                    upper,
                    overhead,
                    body,
                }
            }
            Stmt::Assign(a) => {
                let mut accesses = Vec::new();
                let mut instr = 0.0;
                for acc in a.rhs.accesses() {
                    if let Some(ca) = self.access_word(acc) {
                        instr += match ca.space {
                            CSpace::Shared => self.smem_load_cost,
                            CSpace::Global => 1.0,
                        };
                        accesses.push(ca);
                    }
                }
                // Arithmetic: a multiply feeding an accumulate fuses to MAD.
                let (arith, flops) = arith_cost(&a.rhs, a.op);
                instr += arith;
                if let Some(mut store) = self.access_word(&a.lhs) {
                    store.is_store = true;
                    // Read-modify-write of a global/shared accumulator also
                    // loads the old value.
                    if a.op != AssignOp::Assign {
                        let mut rd = store.clone();
                        rd.is_store = false;
                        accesses.push(rd);
                        instr += 1.0;
                    }
                    instr += 1.0;
                    accesses.push(store);
                }
                CStmt::Assign {
                    accesses,
                    instr,
                    flops,
                }
            }
            Stmt::If {
                pred,
                then_body,
                else_body,
            } => match self.cpred(pred) {
                Some(cp) => CStmt::If {
                    pred: cp,
                    then_b: self.compile_stmts(then_body),
                    else_b: self.compile_stmts(else_body),
                },
                None => {
                    // Statically false (blank-zero mismatch): only the else
                    // branch survives.
                    let else_b = self.compile_stmts(else_body);
                    CStmt::If {
                        pred: CPred::default(),
                        then_b: else_b,
                        else_b: Vec::new(),
                    }
                }
            },
            Stmt::Stage(st) => self.compile_stage(st),
            Stmt::RegLoad(rt) | Stmt::RegStore(rt) => {
                let is_store = matches!(s, Stmt::RegStore(_));
                let base = *self.gbase.get(&rt.global).unwrap_or(&0);
                let mut elems = Vec::new();
                for c in 0..rt.cols {
                    for r in 0..rt.rows {
                        let row = rt.row0.add_const(r * rt.row_stride);
                        let col = rt.col0.add_const(c * rt.col_stride);
                        let guard = rt.guard.subst("__gr", &row).subst("__gc", &col);
                        let cg = self.cpred(&guard).unwrap_or_default();
                        elems.push((cg, self.word(base, &rt.global, &row, &col)));
                    }
                }
                CStmt::RegXfer { elems, is_store }
            }
            Stmt::RegZero(_) => CStmt::Nop,
            Stmt::Sync => CStmt::Nop,
        }
    }

    fn compile_stage(&mut self, st: &SharedStage) -> CStmt {
        let resolve = |n: &str| self.program.resolve(n, self.bindings);
        let src_decl = self.program.array(&st.src);
        let (src_rows, src_cols) = src_decl
            .map(|a| (a.rows.eval(&resolve), a.cols.eval(&resolve)))
            .unwrap_or((i64::MAX, i64::MAX));
        CStmt::Stage(CStage {
            rows: st.rows,
            cols: st.cols,
            src_row0: self.cexpr(&st.src_row0),
            src_col0: self.cexpr(&st.src_col0),
            src_base: *self.gbase.get(&st.src).unwrap_or(&0),
            src_ld: self.ld_of(&st.src),
            src_rows,
            src_cols,
            dst_base: *self.sbase.get(&st.dst).unwrap_or(&0),
            dst_ld: self.ld_of(&st.dst),
            mode: st.mode,
            strided: st.strided_copy,
            site: {
                self.stages += 1;
                self.stages - 1
            },
        })
    }
}

/// (instruction cost, flops) of the arithmetic in an update statement.
fn arith_cost(rhs: &ScalarExpr, op: AssignOp) -> (f64, f64) {
    fn op_weight(e: &ScalarExpr) -> (f64, f64) {
        match e {
            ScalarExpr::Bin(b, l, r) => {
                let (li, lf) = op_weight(l);
                let (ri, rf) = op_weight(r);
                let (wi, wf) = match b {
                    oa_loopir::BinOp::Div => (8.0, 1.0),
                    _ => (1.0, 1.0),
                };
                (li + ri + wi, lf + rf + wf)
            }
            _ => (0.0, 0.0),
        }
    }
    let accum = op != AssignOp::Assign;
    // `acc ±= a * b` fuses into one MAD.
    if accum {
        if let ScalarExpr::Bin(oa_loopir::BinOp::Mul, l, r) = rhs {
            let (li, lf) = op_weight(l);
            let (ri, rf) = op_weight(r);
            return (li + ri + 1.0, lf + rf + 2.0);
        }
    }
    let (i, f) = op_weight(rhs);
    (
        i + if accum { 1.0 } else { 0.0 },
        f + if accum { 1.0 } else { 0.0 },
    )
}

// ---------------------------------------------------------------------------
// The sampled warp walker.
// ---------------------------------------------------------------------------

const ITER_SAMPLE_THRESHOLD: i64 = 16;
const ITER_SAMPLES: i64 = 8;
/// Staging iterations sampled per visit (they are identical in shape).
const STAGE_SAMPLES: i64 = 4;

/// One bit per lane of the walked warp.
type LaneMask = u32;

/// One access site's event memo: `(mask, uniform part mod 32, count)`.
type EventMemo<T> = Vec<(LaneMask, i64, T)>;

/// The lanes set in `mask`, lowest first.
fn lanes_of(mut mask: LaneMask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// The word addresses of `e` on the lanes of `mask`, given its uniform
/// part `u`.
fn lane_addrs(
    lanes: &[(i64, i64); WARP],
    e: &CExpr,
    u: i64,
    mask: LaneMask,
) -> [Option<i64>; WARP] {
    let mut out = [None; WARP];
    for lane in lanes_of(mask) {
        out[lane] = Some(u + e.lane_offset(lanes[lane]));
    }
    out
}

/// Look `(mask, u mod 32)` up in `memo`, computing and recording it on a
/// miss.
fn memoized<T: Copy>(
    memo: &mut EventMemo<T>,
    mask: LaneMask,
    u: i64,
    compute: impl FnOnce() -> T,
) -> T {
    let r = u.rem_euclid(WARP as i64);
    if let Some(&(_, _, t)) = memo.iter().find(|(m, k, _)| *m == mask && *k == r) {
        return t;
    }
    let t = compute();
    memo.push((mask, r, t));
    t
}

/// One staging iteration of one warp: each lane's tile element, fixed
/// for the walker, and the copy's global event and shared-store replays
/// keyed like the access memos.  The guard keeps the lanes whose source
/// element is in bounds, so `(mask, uniform part mod 32)` fixes both
/// address vectors up to a shift of the global one by a multiple of 32
/// words.
#[derive(Clone)]
struct StageMemo {
    tile: [Option<(i64, i64)>; WARP],
    events: EventMemo<(GmemEvent, u64)>,
}

/// Walks one warp of one block.  An expression's uniform part is computed
/// once per visit; only its lane part (fixed per walker) varies by lane.
struct Walker<'a> {
    device: &'a DeviceSpec,
    compiled: &'a Compiled,
    counters: ProfileCounters,
    /// Register-reuse memo: the last few `(active mask, uniform part)`
    /// keys seen at each load site.  A site's lane offsets are fixed within
    /// one walker, so a repeated key is a repeated lane-address vector: the
    /// value is kept in a register by the compiler (LICM / unroll-and-jam
    /// reuse), so neither an instruction nor a memory transaction is
    /// charged.
    reuse: Vec<VecDeque<(LaneMask, i64)>>,
    /// Per-site coalescing and bank-conflict memos keyed by `(mask,
    /// uniform part mod 32)`: shifting every lane by a multiple of 32 words
    /// changes neither the count of 16- or 32-word segments touched nor the
    /// conflicts over 16 or 32 banks.
    gmem_memo: Vec<EventMemo<GmemEvent>>,
    smem_memo: Vec<EventMemo<u64>>,
    /// Per-staging-site, per-sampled-iteration memos (see [`StageMemo`]).
    stage_memo: Vec<Option<StageMemo>>,
    /// The warp-uniform environment, `nvars` values.
    env: Vec<i64>,
    /// Thread indices `(tx, ty)` of each lane.
    lanes: [(i64, i64); WARP],
    active: LaneMask,
    /// The lane owning thread (0, 0), if any (`thread0_only` guards).
    thread0: LaneMask,
    weight: f64,
    threads_per_block: i64,
    warp_index: i64,
}

impl<'a> Walker<'a> {
    fn new(
        device: &'a DeviceSpec,
        compiled: &'a Compiled,
        launch: &Launch,
        bx: i64,
        by: i64,
        warp: i64,
    ) -> Self {
        // The event memos' `mod 32` key needs the bank count to divide 32.
        debug_assert_eq!(WARP as u32 % device.smem_banks, 0);
        let threads = launch.threads_per_block();
        let mut env = vec![0i64; compiled.nvars];
        for &(idx, is_y) in &compiled.block_binds {
            env[idx] = if is_y { by } else { bx };
        }
        let mut lanes = [(0, 0); WARP];
        let (mut active, mut thread0) = (0, 0);
        for (lane, slot) in lanes.iter_mut().enumerate() {
            let tid = warp * WARP as i64 + lane as i64;
            if tid >= threads {
                continue;
            }
            active |= 1 << lane;
            *slot = (tid % launch.block.0, tid / launch.block.0);
            if *slot == (0, 0) {
                thread0 |= 1 << lane;
            }
        }
        Walker {
            device,
            compiled,
            counters: ProfileCounters::default(),
            reuse: vec![VecDeque::new(); compiled.nsites],
            gmem_memo: vec![Vec::new(); compiled.nsites],
            smem_memo: vec![Vec::new(); compiled.nsites],
            stage_memo: vec![None; compiled.nstages * STAGE_SAMPLES as usize],
            env,
            lanes,
            active,
            thread0,
            weight: 1.0,
            threads_per_block: threads,
            warp_index: warp,
        }
    }

    /// `e` on one lane.
    fn at_lane(&self, e: &CExpr, lane: usize) -> i64 {
        e.uniform(&self.env) + e.lane_offset(self.lanes[lane])
    }

    /// The lowest active lane (loop bounds and staging origins are uniform
    /// across active lanes in the generated kernels).
    fn lane0(&self) -> usize {
        self.active.trailing_zeros() as usize
    }

    /// The lanes of `mask` on which `pred` holds.  A condition's uniform
    /// sides are computed once; a condition with no lane terms decides the
    /// whole warp at once.
    fn pred_mask(&self, pred: &CPred, mask: LaneMask) -> LaneMask {
        let mut m = mask;
        if pred.thread0 {
            m &= self.thread0;
        }
        for c in &pred.conds {
            if m == 0 {
                break;
            }
            let (l, r) = (c.lhs.uniform(&self.env), c.rhs.uniform(&self.env));
            if c.lhs.is_uniform() && c.rhs.is_uniform() {
                if !c.op.eval(l, r) {
                    m = 0;
                }
                continue;
            }
            for lane in lanes_of(m) {
                let t = self.lanes[lane];
                if !c
                    .op
                    .eval(l + c.lhs.lane_offset(t), r + c.rhs.lane_offset(t))
                {
                    m &= !(1 << lane);
                }
            }
        }
        m
    }

    fn walk(&mut self, stmts: &[CStmt]) {
        for s in stmts {
            if self.active == 0 {
                return;
            }
            match s {
                CStmt::Nop => {}
                CStmt::Loop {
                    var,
                    lower,
                    upper,
                    overhead,
                    body,
                } => self.walk_loop(*var, lower, upper, *overhead, body),
                CStmt::Assign {
                    accesses,
                    instr,
                    flops,
                } => self.walk_assign(accesses, *instr, *flops),
                CStmt::If {
                    pred,
                    then_b,
                    else_b,
                } => self.walk_if(pred, then_b, else_b),
                CStmt::Stage(st) => self.walk_stage(st),
                CStmt::RegXfer { elems, is_store } => self.walk_regxfer(elems, *is_store),
            }
        }
    }

    fn walk_loop(
        &mut self,
        var: usize,
        lower: &CExpr,
        upper: &CExpr,
        overhead: f64,
        body: &[CStmt],
    ) {
        let lane0 = self.lane0();
        let lo = self.at_lane(lower, lane0);
        let hi = self.at_lane(upper, lane0);
        let trip = (hi - lo).max(0);
        if trip == 0 {
            return;
        }
        self.counters.instructions += overhead * trip as f64 * self.weight;
        if trip <= ITER_SAMPLE_THRESHOLD {
            for v in lo..hi {
                self.env[var] = v;
                self.walk(body);
            }
        } else {
            // Stratified iteration sampling with weight scaling.
            let saved = self.weight;
            self.weight = saved * trip as f64 / ITER_SAMPLES as f64;
            for k in 0..ITER_SAMPLES {
                let a = lo + k * trip / ITER_SAMPLES;
                let b = lo + (k + 1) * trip / ITER_SAMPLES;
                self.env[var] = (a + b - 1) / 2;
                self.walk(body);
            }
            self.weight = saved;
        }
    }

    fn walk_if(&mut self, pred: &CPred, then_b: &[CStmt], else_b: &[CStmt]) {
        let saved = self.active;
        let then_mask = self.pred_mask(pred, saved);
        let else_mask = saved & !then_mask;
        if !pred.conds.is_empty() || pred.thread0 {
            self.counters.instructions += self.weight;
        }
        if then_mask != 0 {
            self.active = then_mask;
            self.walk(then_b);
        }
        if else_mask != 0 && !else_b.is_empty() {
            self.active = else_mask;
            self.walk(else_b);
        }
        self.active = saved;
    }

    fn walk_assign(&mut self, accesses: &[CAccess], instr: f64, flops: f64) {
        let mask = self.active;
        let mut instr = instr;
        self.counters.flops += flops * mask.count_ones() as f64 * self.weight;
        for acc in accesses {
            let u = acc.word.uniform(&self.env);
            // Register reuse: a load whose address vector was recently seen
            // at this site stays in registers.
            if !acc.is_store {
                let slot = &mut self.reuse[acc.site];
                if slot.contains(&(mask, u)) {
                    instr -= match acc.space {
                        CSpace::Shared => self.compiled.smem_load_cost,
                        CSpace::Global => 1.0,
                    };
                    continue;
                }
                if slot.len() == 8 {
                    slot.pop_front();
                }
                slot.push_back((mask, u));
            }
            let lanes = &self.lanes;
            match acc.space {
                CSpace::Global => {
                    let cc = self.device.cc;
                    let ev = memoized(&mut self.gmem_memo[acc.site], mask, u, || {
                        classify_gmem(cc, &lane_addrs(lanes, &acc.word, u, mask))
                    });
                    apply_gmem(&mut self.counters, cc, ev, acc.is_store, self.weight);
                }
                CSpace::Shared => {
                    if acc.is_store {
                        self.counters.smem_store += self.weight;
                    } else {
                        self.counters.smem_load += self.weight;
                    }
                    let banks = self.device.smem_banks;
                    let rep = memoized(&mut self.smem_memo[acc.site], mask, u, || {
                        smem_replays(banks, &lane_addrs(lanes, &acc.word, u, mask))
                    }) as f64;
                    self.counters.smem_replays += rep * self.weight;
                    self.counters.instructions += rep * self.weight;
                }
            }
        }
        self.counters.instructions += instr * self.weight;
    }

    /// Cooperative staging: this warp's share of the block-wide copy.
    fn walk_stage(&mut self, st: &CStage) {
        let lane0 = self.lane0();
        let r0 = self.at_lane(&st.src_row0, lane0);
        let c0 = self.at_lane(&st.src_col0, lane0);
        let elems = st.rows * st.cols;
        let iters = (elems + self.threads_per_block - 1) / self.threads_per_block;
        let sample = iters.min(STAGE_SAMPLES);
        let iter_weight = iters as f64 / sample as f64;
        for s in 0..sample {
            let iter = s * iters / sample;
            let (warp, threads) = (self.warp_index, self.threads_per_block);
            let memo = self.stage_memo[st.site * STAGE_SAMPLES as usize + s as usize]
                .get_or_insert_with(|| StageMemo {
                    tile: std::array::from_fn(|lane| {
                        let tid = warp * WARP as i64 + lane as i64;
                        let e = tid + iter * threads;
                        // Column-major traversal coalesces on the
                        // column-major source; the strided variant walks
                        // rows first.
                        (tid < threads && e < elems).then(|| {
                            if st.strided {
                                (e / st.cols, e % st.cols)
                            } else {
                                (e % st.rows, e / st.rows)
                            }
                        })
                    }),
                    events: Vec::new(),
                });
            let mut tile = memo.tile;
            let mut mask: LaneMask = 0;
            for (lane, t) in tile.iter_mut().enumerate() {
                match *t {
                    // Guarded off (edge tile).
                    Some((r, c)) if r0 + r >= st.src_rows || c0 + c >= st.src_cols => *t = None,
                    Some(_) => mask |= 1 << lane,
                    None => {}
                }
            }
            let u = st.src_base + r0 + c0 * st.src_ld;
            let (cc, banks) = (self.device.cc, self.device.smem_banks);
            let (ev, rep) = memoized(&mut memo.events, mask, u, || {
                let gl = tile.map(|t| t.map(|(r, c)| u + r + c * st.src_ld));
                let sm = tile.map(|t| {
                    t.map(|(r, c)| {
                        let (dr, dc) = match st.mode {
                            AllocMode::Transpose => (c, r),
                            _ => (r, c),
                        };
                        st.dst_base + dr + dc * st.dst_ld
                    })
                });
                (classify_gmem(cc, &gl), smem_replays(banks, &sm))
            });
            let w = self.weight * iter_weight;
            apply_gmem(&mut self.counters, cc, ev, false, w);
            self.counters.smem_store += w;
            self.counters.smem_replays += rep as f64 * w;
            // ~4 instructions per copied element per thread: index math,
            // load, store, loop bookkeeping.
            self.counters.instructions += 4.0 * w;
        }
    }

    fn walk_regxfer(&mut self, elems: &[(CPred, CExpr)], is_store: bool) {
        for (guard, word) in elems {
            let mask = self.pred_mask(guard, self.active);
            if mask == 0 {
                continue;
            }
            let u = word.uniform(&self.env);
            record_gmem(
                &mut self.counters,
                self.device.cc,
                &lane_addrs(&self.lanes, word, u, mask),
                is_store,
                self.weight,
            );
            self.counters.instructions += 2.0 * self.weight;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_loopir::builder::gemm_nn_like;
    use oa_loopir::transform::{
        loop_tiling, loop_unroll, reg_alloc, sm_alloc, thread_grouping, TileParams,
    };

    fn tuned_gemm(n: i64) -> (Program, Bindings) {
        let mut p = gemm_nn_like("GEMM-NN");
        // Volkov-like shape: 64 threads own exclusive rows; B staged in
        // shared memory; 16 C columns per thread in registers.
        let params = TileParams {
            ty: 64,
            tx: 16,
            thr_i: 64,
            thr_j: 1,
            kb: 16,
            unroll: 0,
        };
        thread_grouping(&mut p, "Li", "Lj", params).unwrap();
        loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
        loop_unroll(&mut p, &["Ljjj", "Lkkk"], 0).unwrap();
        sm_alloc(&mut p, "B", oa_loopir::AllocMode::Transpose).unwrap();
        reg_alloc(&mut p, "C").unwrap();
        (p, Bindings::square(n))
    }

    #[test]
    fn gemm_perf_is_compute_bound_and_reasonable() {
        let (p, b) = tuned_gemm(1024);
        let dev = DeviceSpec::gtx285();
        let flops = 2.0 * 1024f64.powi(3);
        let rep = evaluate(&p, &b, &dev, flops, true).unwrap();
        assert!(
            rep.t_compute > rep.t_memory,
            "a staged, register-tiled GEMM must be compute bound: {rep:?}"
        );
        // Between 25% and 95% of the 709 GFLOPS peak.
        assert!(rep.gflops > 0.25 * 709.0, "gflops too low: {}", rep.gflops);
        assert!(
            rep.gflops < 0.95 * 709.0,
            "gflops above peak share: {}",
            rep.gflops
        );
        // Stores/loads are coalesced in this layout.
        assert_eq!(rep.counters.gld_incoherent, 0.0);
        assert_eq!(rep.counters.gst_incoherent, 0.0);
    }

    #[test]
    fn naive_kernel_is_slower_than_tuned() {
        // Thread grouping only, no tiling/staging: every B access goes to
        // global memory.
        let mut naive = gemm_nn_like("GEMM-NN");
        let params = TileParams {
            ty: 32,
            tx: 32,
            thr_i: 16,
            thr_j: 16,
            kb: 16,
            unroll: 0,
        };
        thread_grouping(&mut naive, "Li", "Lj", params).unwrap();
        let b = Bindings::square(1024);
        let dev = DeviceSpec::gtx285();
        let flops = 2.0 * 1024f64.powi(3);
        let naive_rep = evaluate(&naive, &b, &dev, flops, true).unwrap();
        let (tuned, _) = tuned_gemm(1024);
        let tuned_rep = evaluate(&tuned, &b, &dev, flops, true).unwrap();
        assert!(
            tuned_rep.gflops > 2.0 * naive_rep.gflops,
            "tuned {} vs naive {}",
            tuned_rep.gflops,
            naive_rep.gflops
        );
    }

    #[test]
    fn flop_sampling_is_accurate() {
        // The sampled+scaled flop counter must land within a few percent of
        // the analytic 2*M*N*K.
        let (p, b) = tuned_gemm(512);
        let dev = DeviceSpec::gtx285();
        let rep = evaluate(&p, &b, &dev, 1.0, true).unwrap();
        let expect = 2.0 * 512f64.powi(3);
        let ratio = rep.counters.flops / expect;
        assert!((0.9..1.1).contains(&ratio), "flops ratio {ratio}");
    }

    #[test]
    fn scaling_with_problem_size() {
        let dev = DeviceSpec::gtx285();
        let (p1, b1) = tuned_gemm(512);
        let (p2, b2) = tuned_gemm(1024);
        let r1 = evaluate(&p1, &b1, &dev, 2.0 * 512f64.powi(3), true).unwrap();
        let r2 = evaluate(&p2, &b2, &dev, 2.0 * 1024f64.powi(3), true).unwrap();
        // 8x the flops: time should grow roughly 8x (within 2x slack).
        let ratio = r2.kernel_time_s / r1.kernel_time_s;
        assert!((4.0..16.0).contains(&ratio), "time ratio {ratio}");
    }

    #[test]
    fn triangular_flop_sampling_is_accurate() {
        // TRMM's per-block work is triangular (linear in the block row);
        // the stratified block/iteration sampling must still integrate the
        // total flops to within ~15% of the analytic n^2(n+1).
        use oa_loopir::builder::trmm_ll_like;
        let mut p = trmm_ll_like("TRMM");
        let params = TileParams {
            ty: 32,
            tx: 32,
            thr_i: 16,
            thr_j: 16,
            kb: 16,
            unroll: 0,
        };
        thread_grouping(&mut p, "Li", "Lj", params).unwrap();
        loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
        let n = 512i64;
        let rep = evaluate(&p, &Bindings::square(n), &DeviceSpec::gtx285(), 1.0, true).unwrap();
        let expect = (n * n) as f64 * (n + 1) as f64; // 2 flops x n^2(n+1)/2
        let ratio = rep.counters.flops / expect;
        assert!(
            (0.85..1.15).contains(&ratio),
            "triangular flops ratio {ratio}"
        );
    }

    #[test]
    fn strata_cover_weights() {
        let s = strata(64, 5);
        assert_eq!(s.iter().map(|(_, w)| *w).sum::<f64>(), 64.0);
        let s1 = strata(3, 5);
        assert_eq!(s1.len(), 3);
        assert_eq!(strata(1, 5), vec![(0, 1.0)]);
    }

    #[test]
    fn occupancy_penalty_applies() {
        // A 16-thread block cannot hide latency; occupancy derating must
        // make it slower per flop than a 256-thread block.
        let mut small = gemm_nn_like("g");
        let params = TileParams {
            ty: 8,
            tx: 8,
            thr_i: 4,
            thr_j: 4,
            kb: 8,
            unroll: 0,
        };
        thread_grouping(&mut small, "Li", "Lj", params).unwrap();
        let b = Bindings::square(256);
        let dev = DeviceSpec::gtx285();
        let rep = evaluate(&small, &b, &dev, 2.0 * 256f64.powi(3), true).unwrap();
        assert!(rep.occupancy <= 0.25);
    }
}
