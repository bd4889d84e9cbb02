//! # oa-bench — harnesses regenerating every table and figure of the paper
//!
//! One binary per artifact (see DESIGN.md §3):
//!
//! | binary | artifact |
//! |--------|----------|
//! | `fig10` | Fig. 10 — 24 variants on GeForce 9800 |
//! | `fig11` | Fig. 11 — GTX 285 (+ MAGMA bars) |
//! | `fig12` | Fig. 12 — Fermi Tesla C2050 |
//! | `fig13` | Fig. 13 — OA GFLOPS vs problem size |
//! | `fig14` | Fig. 14 — best-performing EPOD scripts |
//! | `tables` | Tables I–III — SYMM profile counters |
//! | `summary` | Sec. I / V.A headline numbers |
//!
//! All binaries accept `--quick` (smaller problem size, used as smoke
//! tests) and share a JSON tuning cache (`tuning_cache.json`, overridable
//! via `OA_CACHE`).

use oa_core::{OaFramework, RoutineId, TuneCache};
use oa_gpusim::DeviceSpec;
use std::path::PathBuf;

/// One bar-group of Figures 10–12.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Routine name.
    pub routine: String,
    /// OA tuned GFLOPS.
    pub oa: f64,
    /// CUBLAS-3.2-like baseline GFLOPS.
    pub cublas: f64,
    /// MAGMA-v0.2-like baseline GFLOPS (Fig. 11 only).
    pub magma: Option<f64>,
}

impl FigureRow {
    /// OA / CUBLAS speedup.
    pub fn speedup(&self) -> f64 {
        self.oa / self.cublas
    }
}

/// The problem size the paper fixes for Figures 10–12.
pub const PAPER_N: i64 = 4096;
/// The `--quick` smoke-test size.
pub const QUICK_N: i64 = 512;

/// Resolve the tuning-cache path (`OA_CACHE` env or `tuning_cache.json`).
pub fn cache_path() -> PathBuf {
    std::env::var("OA_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("tuning_cache.json"))
}

/// The checkout's `git rev-parse --short HEAD`, suffixed `-dirty` when
/// tracked files have uncommitted changes; `"unknown"` outside a git
/// checkout.  Bench artifacts record it as provenance.
pub fn git_revision() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{rev}-dirty")
            } else {
                rev
            }
        }
        _ => "unknown".to_string(),
    }
}

/// `--quick` flag from argv.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Problem size selected by the flag.
pub fn problem_size() -> i64 {
    if quick_flag() {
        QUICK_N
    } else {
        PAPER_N
    }
}

/// Generate the data of one of Figures 10–12: all 24 variants, OA vs
/// CUBLAS-like (vs MAGMA-like when `with_magma`).
pub fn figure_data(
    device: &DeviceSpec,
    n: i64,
    with_magma: bool,
    cache: &mut TuneCache,
) -> Vec<FigureRow> {
    let oa = OaFramework::new(device.clone());
    let mut rows = Vec::new();
    for r in RoutineId::all24() {
        let rec = cache
            .tune_cached(r, device, n)
            .unwrap_or_else(|e| panic!("tuning {} failed: {e}", r.name()));
        // Re-evaluate the cached script so the report reflects this run.
        let oa_rep = oa
            .evaluate_record(&rec, r, n)
            .unwrap_or_else(|e| panic!("evaluating {} failed: {e}", r.name()));
        let cublas = oa.cublas_baseline(r, n);
        let magma = if with_magma {
            oa.magma_baseline(r, n).map(|m| m.gflops)
        } else {
            None
        };
        rows.push(FigureRow {
            routine: r.name(),
            oa: oa_rep.gflops,
            cublas: cublas.gflops,
            magma,
        });
    }
    rows
}

/// Print a figure as an aligned text table.
pub fn print_figure(title: &str, device: &DeviceSpec, n: i64, rows: &[FigureRow]) {
    println!("== {title} ==");
    println!(
        "device: {} (peak {:.0} GFLOPS), problem size {n}",
        device.name,
        device.peak_gflops()
    );
    let magma_col = rows.iter().any(|r| r.magma.is_some());
    print!("{:<12} {:>10} {:>12}", "routine", "OA", "CUBLAS-like");
    if magma_col {
        print!(" {:>11}", "MAGMA-like");
    }
    println!(" {:>8}", "speedup");
    for row in rows {
        print!("{:<12} {:>10.1} {:>12.1}", row.routine, row.oa, row.cublas);
        if magma_col {
            match row.magma {
                Some(m) => print!(" {:>11.1}", m),
                None => print!(" {:>11}", "-"),
            }
        }
        println!(" {:>7.2}x", row.speedup());
    }
    let max = rows.iter().map(FigureRow::speedup).fold(0.0f64, f64::max);
    let min_oa = rows.iter().map(|r| r.oa).fold(f64::INFINITY, f64::min);
    let max_oa = rows.iter().map(|r| r.oa).fold(0.0f64, f64::max);
    println!("max speedup over CUBLAS-like: {max:.2}x");
    println!(
        "OA performance band: {min_oa:.0}..{max_oa:.0} GFLOPS (gap {:.2}x; the paper's point: OA stays near GEMM-NN)",
        max_oa / min_oa
    );
    println!();
}

/// Load the cache, run a closure with it, persist it back.
///
/// Load issues (stale or corrupted records) are reported on stderr, and
/// the write-back merges under the cache's lock file, so concurrent bench
/// binaries sharing one path cannot lose each other's records.
pub fn with_cache<T>(f: impl FnOnce(&mut TuneCache) -> T) -> T {
    let path = cache_path();
    let (mut cache, issues) = TuneCache::load_reporting(&path);
    for issue in issues {
        eprintln!("tuning cache: {issue}");
    }
    let out = f(&mut cache);
    match cache.merge_save(&path) {
        Ok(issues) => {
            for issue in issues {
                eprintln!("tuning cache: {issue}");
            }
        }
        Err(e) => eprintln!("warning: could not save tuning cache: {e}"),
    }
    out
}

/// The representative routines Fig. 13 plots across problem sizes.
pub fn fig13_routines() -> Vec<RoutineId> {
    use oa_core::{Side, Trans, Uplo};
    vec![
        RoutineId::Gemm(Trans::N, Trans::N),
        RoutineId::Symm(Side::Left, Uplo::Lower),
        RoutineId::Trmm(Side::Left, Uplo::Lower, Trans::N),
        RoutineId::Trsm(Side::Left, Uplo::Lower, Trans::N),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_row_math() {
        let r = FigureRow {
            routine: "GEMM-NN".into(),
            oa: 400.0,
            cublas: 200.0,
            magma: None,
        };
        assert_eq!(r.speedup(), 2.0);
    }

    #[test]
    fn defaults() {
        assert_eq!(PAPER_N, 4096);
        assert!(cache_path().to_string_lossy().contains("tuning_cache"));
        assert_eq!(fig13_routines().len(), 4);
    }
}
