//! Kernel-launch extraction — the "lowering" stage standing in for nvcc.
//!
//! A transformed [`Program`] has a prefix chain of mapped loops
//! (`BlockY`/`BlockX` outermost, then `ThreadX`/`ThreadY`).  This module
//! derives the CUDA launch configuration from that chain: grid and block
//! dimensions, the binding of each mapped loop variable to a builtin index,
//! and the per-thread body.

use oa_loopir::interp::Bindings;
use oa_loopir::stmt::{LoopMapping, Stmt};
use oa_loopir::transform::GroupingStyle;
use oa_loopir::Program;
use std::fmt;

use crate::exec::has_barrier;

/// Which CUDA builtin a mapped loop variable binds to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Builtin {
    /// `blockIdx.x`
    BlockX,
    /// `blockIdx.y`
    BlockY,
    /// `threadIdx.x`
    ThreadX,
    /// `threadIdx.y`
    ThreadY,
}

/// An extracted launch configuration.
#[derive(Clone, Debug)]
pub struct Launch {
    /// Grid dimensions `(gx, gy)`.
    pub grid: (i64, i64),
    /// Block dimensions `(bx, by)` in threads.
    pub block: (i64, i64),
    /// Mapped loop variables and their builtins, outermost first.
    pub binds: Vec<(String, Builtin)>,
    /// The per-thread body (the innermost mapped loop's body).
    pub inner: Vec<Stmt>,
}

/// Lowering errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaunchError {
    /// The program has no mapped loops (thread_grouping never ran).
    NotMapped,
    /// Mapped loops are malformed (non-zero lower bound, duplicated axis,
    /// non-constant thread extent, interleaved unmapped loops…).
    Malformed(String),
    /// A problem dimension violates a launch-time divisibility constraint
    /// of the kernel shape (e.g. the solver schemes' column tile: every
    /// thread of a block must reach the cooperative barriers, so the tile
    /// must divide the dimension exactly).
    SizeConstraint {
        /// The offending size parameter (`N`, `M`…).
        param: String,
        /// Its bound value.
        size: i64,
        /// The required divisor (the column-tile width).
        multiple: i64,
    },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::NotMapped => write!(f, "program has no block/thread-mapped loops"),
            LaunchError::Malformed(m) => write!(f, "malformed mapping: {m}"),
            LaunchError::SizeConstraint {
                param,
                size,
                multiple,
            } => write!(
                f,
                "size constraint: dimension {param} = {size} must be a multiple of \
                 the {multiple}-wide column tile (barrier-synchronized solver block)"
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Extract the launch configuration of a transformed program under
/// concrete size bindings.
///
/// Besides deriving grid/block shapes this is where launch-time *size
/// constraints* are enforced: a `Solver1D` kernel whose per-thread body
/// contains a barrier guards the whole body behind `j < N`, so the last
/// block's guard is non-uniform — and the barrier diverges — whenever the
/// column tile does not divide `N`.  That case is rejected here, by every
/// engine identically, as [`LaunchError::SizeConstraint`] naming the
/// offending dimension, instead of surfacing later as a generic runtime
/// failure.
pub fn extract_launch(p: &Program, bindings: &Bindings) -> Result<Launch, LaunchError> {
    let mut grid = (1i64, 1i64);
    let mut block = (1i64, 1i64);
    let mut binds = Vec::new();
    let mut cursor: &[Stmt] = &p.body;
    let mut block_tile: Option<(String, i64)> = None;

    loop {
        // The chain must be a single mapped loop at each level.
        let lp = match cursor {
            [Stmt::Loop(l)] if l.mapping != LoopMapping::Seq => l,
            _ => break,
        };
        if lp.lower.as_const() != Some(0) {
            return Err(LaunchError::Malformed(format!(
                "mapped loop {} must be zero-based",
                lp.label
            )));
        }
        let extent = lp
            .upper
            .vars()
            .next()
            .map(|_| {
                // Symbolic: resolve via derived params / bindings.
                lp.upper.eval(&|n| p.resolve(n, bindings))
            })
            .or(lp.upper.as_const())
            .ok_or_else(|| LaunchError::Malformed(format!("loop {} extent", lp.label)))?;
        if extent <= 0 {
            return Err(LaunchError::Malformed(format!(
                "loop {} has non-positive extent {extent}",
                lp.label
            )));
        }
        let builtin = match lp.mapping {
            LoopMapping::BlockX => {
                grid.0 = extent;
                // Remember which size parameter this block loop tiles
                // (its upper bound is a derived ceil-div parameter).
                if let Some(v) = lp.upper.vars().next() {
                    block_tile = p
                        .derived
                        .iter()
                        .find(|d| d.name == v)
                        .map(|d| (d.base.clone(), d.div));
                }
                Builtin::BlockX
            }
            LoopMapping::BlockY => {
                grid.1 = extent;
                Builtin::BlockY
            }
            LoopMapping::ThreadX => {
                block.0 = extent;
                Builtin::ThreadX
            }
            LoopMapping::ThreadY => {
                block.1 = extent;
                Builtin::ThreadY
            }
            LoopMapping::Seq => unreachable!(),
        };
        if binds.iter().any(|(_, b)| *b == builtin) {
            return Err(LaunchError::Malformed(format!(
                "axis {builtin:?} mapped twice (loop {})",
                lp.label
            )));
        }
        binds.push((lp.var.clone(), builtin));
        cursor = &lp.body;
    }

    if binds.is_empty() {
        return Err(LaunchError::NotMapped);
    }
    // Solver kernels hide their row-of-threads guard (`j < N`) *around*
    // the whole per-thread body; if that body barriers, the guard must be
    // block-uniform, i.e. the column tile must divide the dimension.
    if p.tiling
        .as_ref()
        .is_some_and(|t| t.style == GroupingStyle::Solver1D)
        && cursor.iter().any(has_barrier)
    {
        if let Some((param, multiple)) = &block_tile {
            let size = bindings.size(param);
            if size % multiple != 0 {
                return Err(LaunchError::SizeConstraint {
                    param: param.clone(),
                    size,
                    multiple: *multiple,
                });
            }
        }
    }
    Ok(Launch {
        grid,
        block,
        binds,
        inner: cursor.to_vec(),
    })
}

impl Launch {
    /// Threads per block.
    pub fn threads_per_block(&self) -> i64 {
        self.block.0 * self.block.1
    }

    /// Total blocks in the grid.
    pub fn total_blocks(&self) -> i64 {
        self.grid.0 * self.grid.1
    }

    /// The value each mapped variable takes for a given (block, thread).
    pub fn bind_env(&self, bx: i64, by: i64, tx: i64, ty: i64) -> Vec<(String, i64)> {
        self.binds
            .iter()
            .map(|(var, b)| {
                let v = match b {
                    Builtin::BlockX => bx,
                    Builtin::BlockY => by,
                    Builtin::ThreadX => tx,
                    Builtin::ThreadY => ty,
                };
                (var.clone(), v)
            })
            .collect()
    }
}

/// Estimate the per-thread register footprint of a program: a fixed base
/// for addresses/indices plus the register tiles `Reg_alloc` introduced and
/// temporaries proportional to the unrolled accumulator width.
pub fn estimate_regs_per_thread(p: &Program) -> u32 {
    let mut regs = 14u32;
    for a in &p.arrays {
        if a.space == oa_loopir::MemSpace::Reg {
            let rows = a.rows.as_const().unwrap_or(1) as u32;
            let cols = a.cols.as_const().unwrap_or(1) as u32;
            regs += rows * cols + rows.max(cols); // tile + operand staging
        }
    }
    regs
}

/// Shared-memory bytes per block: the padded footprint of every shared
/// array (f32 elements).
pub fn smem_bytes_per_block(p: &Program) -> u32 {
    let mut bytes = 0u32;
    for a in &p.arrays {
        if a.space == oa_loopir::MemSpace::Shared {
            let ld = a.rows.as_const().unwrap_or(0) + a.pad;
            let cols = a.cols.as_const().unwrap_or(0);
            bytes += (ld * cols) as u32 * 4;
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_loopir::builder::gemm_nn_like;
    use oa_loopir::transform::{loop_tiling, thread_grouping, TileParams};

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

    #[test]
    fn gemm_launch_shape() {
        let mut p = gemm_nn_like("g");
        thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
        loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
        let launch = extract_launch(&p, &Bindings::square(32)).unwrap();
        // 32/8 = 4 blocks each way; threads 4x4.
        assert_eq!(launch.grid, (4, 4));
        assert_eq!(launch.block, (4, 4));
        assert_eq!(launch.threads_per_block(), 16);
        assert_eq!(launch.total_blocks(), 16);
        // Binds: ib->BlockY, jb->BlockX, it->ThreadX, jt->ThreadY.
        assert_eq!(launch.binds.len(), 4);
        let env = launch.bind_env(1, 2, 3, 0);
        assert!(env.contains(&("ib".to_string(), 2)));
        assert!(env.contains(&("jb".to_string(), 1)));
        assert!(env.contains(&("it".to_string(), 3)));
        assert!(env.contains(&("jt".to_string(), 0)));
    }

    #[test]
    fn unmapped_program_rejected() {
        let p = gemm_nn_like("g");
        assert_eq!(
            extract_launch(&p, &Bindings::square(8)).unwrap_err(),
            LaunchError::NotMapped
        );
    }

    #[test]
    fn ragged_sizes_round_up() {
        let mut p = gemm_nn_like("g");
        thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
        let launch = extract_launch(&p, &Bindings::square(13)).unwrap();
        assert_eq!(launch.grid, (2, 2)); // ceil(13/8)
    }

    #[test]
    fn solver_size_constraint_is_classified_and_names_the_dimension() {
        use oa_loopir::expr::AffineExpr;
        use oa_loopir::scalar::{Access, ScalarExpr};
        use oa_loopir::stmt::{AssignOp, AssignStmt, Loop};

        // A TRSM-like dependent nest: Lk's bound depends on i, so
        // thread_grouping picks the Solver1D distribution.
        let mut p = gemm_nn_like("trsm-like");
        p.rewrite_loop("Lk", &mut |mut lk: Loop| {
            lk.upper = AffineExpr::var("i");
            lk.body = vec![Stmt::Assign(AssignStmt::new(
                Access::idx("B", "i", "j"),
                AssignOp::SubAssign,
                ScalarExpr::mul(
                    ScalarExpr::load(Access::idx("A", "i", "k")),
                    ScalarExpr::load(Access::idx("B", "k", "j")),
                ),
            ))];
            vec![Stmt::Loop(Box::new(lk))]
        });
        let solver_params = TileParams {
            ty: 8,
            tx: 8,
            thr_i: 4,
            thr_j: 8,
            kb: 4,
            unroll: 0,
        };
        thread_grouping(&mut p, "Li", "Lj", solver_params).unwrap();
        // Give the per-thread body a cooperative barrier (as
        // binding_triangular / SM_alloc would).
        p.rewrite_loop("Ljj", &mut |mut l: Loop| {
            l.body.push(Stmt::Sync);
            vec![Stmt::Loop(Box::new(l))]
        });

        // Tile-multiple size: launches fine.
        assert!(extract_launch(&p, &Bindings::square(32)).is_ok());

        // Ragged size: a *classified* rejection naming the dimension.
        let err = extract_launch(&p, &Bindings::square(29)).unwrap_err();
        assert_eq!(
            err,
            LaunchError::SizeConstraint {
                param: "N".into(),
                size: 29,
                multiple: 8,
            }
        );
        assert_eq!(
            err.to_string(),
            "size constraint: dimension N = 29 must be a multiple of the 8-wide \
             column tile (barrier-synchronized solver block)"
        );
        // And the perf model buckets it under its own failure class.
        assert_eq!(crate::perf::EvalError::Launch(err).class(), "launch/size");
    }

    #[test]
    fn barrier_free_solver_body_keeps_ragged_sizes() {
        use oa_loopir::expr::AffineExpr;
        use oa_loopir::scalar::{Access, ScalarExpr};
        use oa_loopir::stmt::{AssignOp, AssignStmt, Loop};

        let mut p = gemm_nn_like("trsm-like");
        p.rewrite_loop("Lk", &mut |mut lk: Loop| {
            lk.upper = AffineExpr::var("i");
            lk.body = vec![Stmt::Assign(AssignStmt::new(
                Access::idx("B", "i", "j"),
                AssignOp::SubAssign,
                ScalarExpr::mul(
                    ScalarExpr::load(Access::idx("A", "i", "k")),
                    ScalarExpr::load(Access::idx("B", "k", "j")),
                ),
            ))];
            vec![Stmt::Loop(Box::new(lk))]
        });
        let solver_params = TileParams {
            ty: 8,
            tx: 8,
            thr_i: 4,
            thr_j: 8,
            kb: 4,
            unroll: 0,
        };
        thread_grouping(&mut p, "Li", "Lj", solver_params).unwrap();
        // No barrier in the body: the row guard handles ragged sizes.
        let launch = extract_launch(&p, &Bindings::square(29)).unwrap();
        assert_eq!(launch.grid.0, 4); // ceil(29/8)
    }

    #[test]
    fn resource_estimates() {
        let mut p = gemm_nn_like("g");
        thread_grouping(&mut p, "Li", "Lj", params()).unwrap();
        loop_tiling(&mut p, "Lii", "Ljj", "Lk").unwrap();
        oa_loopir::transform::sm_alloc(&mut p, "B", oa_loopir::AllocMode::Transpose).unwrap();
        oa_loopir::transform::reg_alloc(&mut p, "C").unwrap();
        // sB is 8x4 unpadded -> 128 bytes.
        assert_eq!(smem_bytes_per_block(&p), 8 * 4 * 4);
        // rC is 2x2 -> 14 + 4 + 2 = 20.
        assert_eq!(estimate_regs_per_thread(&p), 20);
    }
}
