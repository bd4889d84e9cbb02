//! Cold-sweep cost of the learned tuner model: exact sweep vs
//! `rank+exit`.
//!
//! Trains the cost model on exact-sweep traces at the training classes,
//! then tunes every test routine at a *held-out* class twice — once as
//! the exact sweep and once ranked by the model with early exit — and
//! reports, per routine, how many sweep points each mode paid and
//! whether the winner moved (it must not: the model is order-only by
//! contract).
//!
//! Prints the table and writes `BENCH_model.json`, with its mode, the
//! host's `nproc`, the git revision and the wall time of each sweep.
//! Full mode enforces the acceptance bar: total candidate evaluations
//! reduced ≥ 3x with every winner bit-identical.  `--quick` (alias
//! `--smoke`) trains on one class and tests a 6-routine family-spanning
//! subset, with the winner check still enforced but no reduction floor.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use oa_bench::git_revision;
use oa_core::autotune::json::Json;
use oa_core::autotune::{
    sweep_samples, tune_fresh_modeled, CostModel, ModelCtx, ModelMode, TuneEvent, TunedKernel,
};
use oa_core::gpusim::{DeviceSpec, ExecEngine};
use oa_core::RoutineId;

/// One tuned side of the comparison: the winner plus sweep accounting.
struct SweepRun {
    kernel: TunedKernel,
    /// Points that actually ran translate/evaluate (points − skipped).
    attempted: usize,
    points: usize,
    /// Wall time of the whole tune, milliseconds.
    ms: f64,
}

fn run_sweep(r: RoutineId, device: &DeviceSpec, n: i64, ctx: &ModelCtx) -> SweepRun {
    let mut attempted = 0usize;
    let mut points = 0usize;
    let t0 = Instant::now();
    let kernel = tune_fresh_modeled(ExecEngine::Oracle, r, device, n, ctx, &mut |e| {
        if let TuneEvent::Summary {
            points: p, skipped, ..
        } = e
        {
            points = p;
            attempted = p - skipped;
        }
    })
    .unwrap_or_else(|e| panic!("{} n={n}: tune failed: {e}", r.name()));
    SweepRun {
        kernel,
        attempted,
        points,
        ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--smoke");
    let device = DeviceSpec::gtx285();
    let train_classes: &[i64] = if quick { &[64] } else { &[64, 256] };
    let test_class = 128i64;
    let test_routines: Vec<RoutineId> = if quick {
        [
            "GEMM-NN",
            "GEMM-TT",
            "SYMM-LL",
            "SYMM-RU",
            "TRMM-LL-N",
            "TRSM-LL-N",
        ]
        .iter()
        .map(|s| RoutineId::parse(s).expect("static routine parses"))
        .collect()
    } else {
        RoutineId::all24().to_vec()
    };

    // Training set: exact sweeps at the training classes — the same
    // traces `oa model train` would consume, built in-process.
    let mut samples = Vec::new();
    for r in RoutineId::all24() {
        for &n in train_classes {
            samples.extend(
                sweep_samples(ExecEngine::Oracle, r, &device, n)
                    .unwrap_or_else(|e| panic!("{} n={n}: training sweep failed: {e}", r.name())),
            );
        }
    }
    let model = CostModel::train(&samples, 5);
    assert!(
        model.can_rank(),
        "training sweeps must produce a rankable model: {:?}",
        model.refused
    );
    let model = Arc::new(model);

    println!(
        "model-ranked sweep vs exact sweep at held-out class n={test_class} \
         (trained on {} samples at classes {train_classes:?}, safety margin {:.2})",
        samples.len(),
        model.safety
    );
    println!(
        "  {:<12} {:>8} {:>12} {:>12} {:>9}  winner",
        "routine", "points", "exact-evals", "ranked-evals", "reduction"
    );

    let mut rows = Vec::new();
    let mut total_exact = 0usize;
    let mut total_ranked = 0usize;
    let mut winners_moved = 0usize;
    let (mut exact_ms, mut ranked_ms) = (0.0, 0.0);
    for &r in &test_routines {
        let exact = run_sweep(r, &device, test_class, &ModelCtx::off());
        let ranked = run_sweep(
            r,
            &device,
            test_class,
            &ModelCtx::with_model(ModelMode::RankExit, model.clone()),
        );
        let same = exact.kernel.script.to_string() == ranked.kernel.script.to_string()
            && exact.kernel.params == ranked.kernel.params
            && exact.kernel.report.gflops.to_bits() == ranked.kernel.report.gflops.to_bits();
        if !same {
            winners_moved += 1;
        }
        let reduction = exact.attempted as f64 / ranked.attempted.max(1) as f64;
        println!(
            "  {:<12} {:>8} {:>12} {:>12} {:>8.1}x  {}",
            r.name(),
            exact.points,
            exact.attempted,
            ranked.attempted,
            reduction,
            if same { "unchanged" } else { "MOVED" }
        );
        total_exact += exact.attempted;
        total_ranked += ranked.attempted;
        exact_ms += exact.ms;
        ranked_ms += ranked.ms;
        rows.push(Json::Obj(BTreeMap::from([
            ("routine".to_string(), Json::Str(r.name())),
            ("points".to_string(), Json::Int(exact.points as i64)),
            ("exact_evals".to_string(), Json::Int(exact.attempted as i64)),
            (
                "ranked_evals".to_string(),
                Json::Int(ranked.attempted as i64),
            ),
            ("reduction".to_string(), Json::Num(reduction)),
            ("gflops".to_string(), Json::Num(ranked.kernel.report.gflops)),
            ("exact_ms".to_string(), Json::Num(exact.ms)),
            ("ranked_ms".to_string(), Json::Num(ranked.ms)),
            ("winner_unchanged".to_string(), Json::Bool(same)),
        ])));
    }

    let reduction = total_exact as f64 / total_ranked.max(1) as f64;
    println!(
        "  total: {total_exact} exact evals vs {total_ranked} ranked evals — \
         {reduction:.1}x fewer, {winners_moved} winner(s) moved; \
         sweeps took {exact_ms:.0} ms exact vs {ranked_ms:.0} ms ranked"
    );

    let doc = Json::Obj(BTreeMap::from([
        (
            "note".to_string(),
            Json::Str(
                "cold-sweep cost with the learned cost model: every test routine tuned at a \
                 held-out size class by the exact sweep and by the model-ranked rank+exit sweep; \
                 winners must be bit-identical (the model is order-only), only the evaluation \
                 count may drop"
                    .to_string(),
            ),
        ),
        (
            "train_classes".to_string(),
            Json::Arr(train_classes.iter().map(|&n| Json::Int(n)).collect()),
        ),
        (
            "mode".to_string(),
            Json::Str(if quick { "smoke" } else { "full" }.to_string()),
        ),
        (
            "nproc".to_string(),
            Json::Int(std::thread::available_parallelism().map_or(1, |p| p.get()) as i64),
        ),
        ("git_rev".to_string(), Json::Str(git_revision())),
        ("exact_ms".to_string(), Json::Num(exact_ms)),
        ("ranked_ms".to_string(), Json::Num(ranked_ms)),
        ("test_class".to_string(), Json::Int(test_class)),
        ("train_samples".to_string(), Json::Int(samples.len() as i64)),
        ("safety".to_string(), Json::Num(model.safety)),
        ("routines".to_string(), Json::Arr(rows)),
        ("exact_evals".to_string(), Json::Int(total_exact as i64)),
        ("ranked_evals".to_string(), Json::Int(total_ranked as i64)),
        ("eval_reduction".to_string(), Json::Num(reduction)),
        (
            "winners_unchanged".to_string(),
            Json::Bool(winners_moved == 0),
        ),
    ]));
    std::fs::write("BENCH_model.json", doc.pretty() + "\n").expect("write BENCH_model.json");
    println!("\nwrote BENCH_model.json");

    // Winner invariance is the contract — enforced in every mode.
    assert_eq!(winners_moved, 0, "model-ranked sweep changed a winner");
    // The eval-reduction floor is the full-mode acceptance bar.
    if !quick {
        assert!(
            reduction >= 3.0,
            "ranked sweep saved only {reduction:.2}x evaluations (need >= 3x)"
        );
    }
}
