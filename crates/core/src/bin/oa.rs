//! `oa` — the command-line face of the framework.
//!
//! ```text
//! oa list                                  # routines and devices
//! oa tune SYMM-LL --device gtx285 --n 1024 # full pipeline for one routine
//! oa tune GEMM-NN --trace json             # + JSONL trace stream on stderr
//! oa compare TRSM-LL-N                     # OA vs CUBLAS-like vs MAGMA-like
//! oa variants TRMM-LL-N                    # the composer's generated scripts
//! oa cuda GEMM-NN --n 1024                 # emit the tuned kernel's CUDA source
//! oa trace-check trace.jsonl               # validate a captured trace stream
//! oa serve requests.jsonl --threads 8      # one-shot serve: JSONL in, JSONL out
//! oa fuzz --seed 5 --iters 200             # differential fuzz: 3 engines + reference
//! oa explain --native TRSM-LL-N --n 256    # served kernel's native region map + rejects
//! oa model train trace.jsonl               # fit the tuner's learned cost model
//! oa model eval trace.jsonl --min-hit 0.9  # held-out top-5 hit rate gate
//! oa model explain                         # artifact summary + importances
//! ```
//!
//! `--trace` overrides the `OA_TRACE` environment variable; the trace
//! stream goes to stderr so stdout stays clean.
//!
//! `serve` reads one JSON request per line from a file (or stdin when
//! the path is `-`), executes each as soon as it arrives through the
//! routine registry, and streams one JSON result per line to stdout in
//! submission order (flushed per line — a slow producer sees results
//! flow, not silence until EOF).  It exits 1 if any line was answered
//! with an error.
//! `--threads`/`--capacity` fall back to `OA_DISPATCH_THREADS` /
//! `OA_DISPATCH_CAPACITY` (capacity 0 = unbounded program store), and
//! `OA_TUNE_CACHE` names a persistent tuning-cache file.
//!
//! `serve --listen ADDR` instead starts the **persistent multi-tenant
//! server** on the same scheduler: the same JSONL protocol over TCP
//! (`host:port`) or a Unix socket (`unix:/path`), with a bounded
//! admission queue, per-tenant fairness, and `{"op": "metrics"}` /
//! `{"op": "health"}` / `{"op": "shutdown"}` introspection ops.
//! `--queue-cap` and `--tenant-quota` tune it (env fallbacks
//! `OA_SERVE_QUEUE_CAP` / `OA_SERVE_TENANT_QUOTA`).

use oa_core::dispatch::Registry;
use oa_core::trace::{check_stream, stderr_observer, TraceMode};
use oa_core::{DeviceSpec, OaFramework, RoutineId, TuneError};

fn device_by_name(name: &str) -> Option<DeviceSpec> {
    match name.to_ascii_lowercase().as_str() {
        "9800" | "geforce9800" | "geforce-9800" => Some(DeviceSpec::geforce_9800()),
        "gtx285" | "285" => Some(DeviceSpec::gtx285()),
        "fermi" | "c2050" | "fermi-c2050" => Some(DeviceSpec::fermi_c2050()),
        _ => None,
    }
}

struct Args {
    cmd: String,
    routine: Option<String>,
    /// Third positional (e.g. `oa model train <trace.jsonl>`).
    extra: Option<String>,
    /// `--model` — cost-model artifact path (defaults to
    /// `OA_TUNE_MODEL_PATH`, else `tune_model.json` next to
    /// `OA_TUNE_CACHE`, else `tune_model.json`).
    model_path: Option<String>,
    /// `--min-hit` — `oa model eval`'s top-5 hit-rate floor.
    min_hit: f64,
    device: DeviceSpec,
    n: i64,
    trace: TraceMode,
    threads: Option<usize>,
    capacity: Option<usize>,
    seed: u64,
    iters: usize,
    corpus: Option<String>,
    native: bool,
    listen: Option<String>,
    queue_cap: Option<usize>,
    tenant_quota: Option<usize>,
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut routine = None;
    let mut extra = None;
    let mut model_path = None;
    let mut min_hit = 0.9f64;
    let mut device = DeviceSpec::gtx285();
    let mut n = 1024i64;
    let mut trace = TraceMode::from_env();
    let mut threads = env_usize("OA_DISPATCH_THREADS");
    let mut capacity = env_usize("OA_DISPATCH_CAPACITY");
    let mut seed = 0u64;
    let mut iters = env_usize("OA_FUZZ_ITERS").unwrap_or(200);
    let mut corpus = None;
    let mut native = false;
    let mut listen = None;
    let mut queue_cap = None;
    let mut tenant_quota = None;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--device" => {
                let v = it.next().ok_or("--device needs a value")?;
                device = device_by_name(&v).ok_or(format!("unknown device `{v}`"))?;
            }
            "--n" => {
                let v = it.next().ok_or("--n needs a value")?;
                n = v.parse().map_err(|_| format!("bad size `{v}`"))?;
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a value (json|pretty|off)")?;
                trace = TraceMode::parse(&v).ok_or(format!("unknown trace mode `{v}`"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                threads = Some(v.parse().map_err(|_| format!("bad thread count `{v}`"))?);
            }
            "--capacity" => {
                let v = it
                    .next()
                    .ok_or("--capacity needs a value (0 = unbounded)")?;
                capacity = Some(v.parse().map_err(|_| format!("bad capacity `{v}`"))?);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--iters" => {
                let v = it.next().ok_or("--iters needs a value")?;
                iters = v
                    .parse()
                    .map_err(|_| format!("bad iteration count `{v}`"))?;
            }
            "--corpus" => {
                corpus = Some(it.next().ok_or("--corpus needs a directory")?);
            }
            "--model" => {
                model_path = Some(it.next().ok_or("--model needs a file path")?);
            }
            "--min-hit" => {
                let v = it.next().ok_or("--min-hit needs a value in [0, 1]")?;
                min_hit = v.parse().map_err(|_| format!("bad hit rate `{v}`"))?;
            }
            "--native" => native = true,
            "--listen" => {
                listen = Some(
                    it.next()
                        .ok_or("--listen needs an address (host:port or unix:/path)")?,
                );
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a value")?;
                queue_cap = Some(v.parse().map_err(|_| format!("bad queue cap `{v}`"))?);
            }
            "--tenant-quota" => {
                let v = it.next().ok_or("--tenant-quota needs a value")?;
                tenant_quota = Some(v.parse().map_err(|_| format!("bad tenant quota `{v}`"))?);
            }
            other if cmd.is_none() => cmd = Some(other.to_string()),
            other if routine.is_none() => routine = Some(other.to_string()),
            other if extra.is_none() => extra = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Args {
        cmd: cmd.unwrap_or_else(|| "help".into()),
        routine,
        extra,
        model_path,
        min_hit,
        device,
        n,
        trace,
        threads,
        capacity,
        seed,
        iters,
        corpus,
        native,
        listen,
        queue_cap,
        tenant_quota,
    })
}

/// One replayed tune from a `--trace json` stream: routine, size, and
/// every sweep-point candidate line with a measured label.
struct TracedTune {
    routine: RoutineId,
    n: i64,
    /// `(script index, params, gflops, won)` per point, trace order.
    points: Vec<(usize, oa_core::loopir::transform::TileParams, f64, bool)>,
}

/// Parse the tunes out of a captured JSONL trace.  Lines that are not
/// tune candidates (spans, cache, batch, serve, …) are skipped; `skipped`
/// candidates carry no measured label and are excluded from training.
fn parse_trace_tunes(text: &str) -> Result<Vec<TracedTune>, String> {
    use oa_core::autotune::json::{parse, Json};
    use oa_core::loopir::transform::TileParams;
    let mut tunes: Vec<TracedTune> = Vec::new();
    let mut cur: Option<TracedTune> = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: &str| format!("line {}: {msg}", lineno + 1);
        let doc = parse(line).ok_or_else(|| at("not valid JSON"))?;
        match doc.get("event").and_then(Json::as_str) {
            Some("begin") => {
                let name = doc
                    .get("routine")
                    .and_then(Json::as_str)
                    .ok_or_else(|| at("begin without `routine`"))?;
                let routine = RoutineId::parse(name)
                    .ok_or_else(|| at(&format!("unknown routine `{name}`")))?;
                let n = doc
                    .get("n")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| at("begin without `n`"))?;
                cur = Some(TracedTune {
                    routine,
                    n,
                    points: Vec::new(),
                });
            }
            Some("candidate") => {
                let Some(t) = cur.as_mut() else { continue };
                let outcome = doc.get("outcome").and_then(Json::as_str).unwrap_or("");
                if outcome == "skipped" || outcome == "degenerated" {
                    continue;
                }
                let (Some(si), Some(arr)) = (
                    doc.get("script").and_then(Json::as_i64),
                    doc.get("params").and_then(Json::as_arr),
                ) else {
                    continue;
                };
                let v: Vec<i64> = arr.iter().filter_map(Json::as_i64).collect();
                if v.len() != 6 || si < 0 {
                    return Err(at("malformed candidate `params`"));
                }
                let params = TileParams {
                    ty: v[0],
                    tx: v[1],
                    thr_i: v[2],
                    thr_j: v[3],
                    kb: v[4],
                    unroll: v[5] as usize,
                };
                let gflops = doc.get("gflops").and_then(Json::as_f64).unwrap_or(0.0);
                t.points
                    .push((si as usize, params, gflops, outcome == "won"));
            }
            Some("summary") => {
                if let Some(t) = cur.take() {
                    tunes.push(t);
                }
            }
            _ => {}
        }
    }
    Ok(tunes)
}

/// Resolve the model-artifact path: `--model`, else `OA_TUNE_MODEL_PATH`
/// / sibling of `OA_TUNE_CACHE`, else `tune_model.json` in the cwd.
fn resolve_model_path(args: &Args) -> std::path::PathBuf {
    args.model_path
        .as_ref()
        .map(std::path::PathBuf::from)
        .or_else(oa_core::autotune::model_path_from_env)
        .unwrap_or_else(|| oa_core::autotune::MODEL_FILE.into())
}

/// Rebuild training/eval samples from a trace file (recomposing each
/// routine's script variants to recover features).
fn trace_samples(path: &str) -> Result<Vec<oa_core::autotune::Sample>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let tunes = parse_trace_tunes(&text)?;
    if tunes.is_empty() {
        return Ok(Vec::new());
    }
    let engine = oa_core::gpusim::select_engine();
    let mut samples = Vec::new();
    for t in &tunes {
        samples.extend(
            oa_core::autotune::samples_from_trace(engine, t.routine, t.n, &t.points)
                .map_err(|e| e.to_string())?,
        );
    }
    Ok(samples)
}

/// Per-(routine, n) top-5 hit accounting for `oa model eval`.
fn eval_hit_rate(
    model: &oa_core::autotune::CostModel,
    samples: &[oa_core::autotune::Sample],
) -> (usize, usize, Vec<String>) {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(String, i64), Vec<&oa_core::autotune::Sample>> = BTreeMap::new();
    for s in samples {
        groups.entry((s.routine.clone(), s.n)).or_default().push(s);
    }
    let mut hits = 0;
    let mut total = 0;
    let mut lines = Vec::new();
    for ((routine, n), group) in &groups {
        if !group.iter().any(|s| s.won) {
            continue; // no measured winner to find
        }
        total += 1;
        let mut ranked: Vec<(usize, f64)> = group
            .iter()
            .enumerate()
            .map(|(i, s)| (i, model.predict(&s.features)))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let hit = ranked.iter().take(5).any(|&(i, _)| group[i].won);
        if hit {
            hits += 1;
        }
        lines.push(format!(
            "  {routine:<10} n={n:<5} {} ({} candidates)",
            if hit { "top-5 hit " } else { "MISS      " },
            group.len()
        ));
    }
    (hits, total, lines)
}

fn need_routine(a: &Args) -> Result<RoutineId, String> {
    let name = a
        .routine
        .as_deref()
        .ok_or("missing routine name (try `oa list`)")?;
    RoutineId::parse(name).ok_or(format!("unknown routine `{name}` (try `oa list`)"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let oa = OaFramework::new(args.device.clone());
    match args.cmd.as_str() {
        "list" => {
            println!("devices: geforce9800, gtx285, fermi");
            println!("routines:");
            for r in RoutineId::all24() {
                println!("  {}", r.name());
            }
            Ok(())
        }
        "tune" => {
            let r = need_routine(args)?;
            let mut obs = stderr_observer(args.trace);
            let t = oa.tune_observed(r, args.n, &mut obs).map_err(|e| {
                // The failure taxonomy: print the per-class table, not a
                // bare error string, when the search came up empty.
                if let TuneError::NothingEvaluated { routine, failures } = &e {
                    eprintln!("no evaluable candidate for {routine}; failures by class:");
                    eprint!("{failures}");
                }
                e.to_string()
            })?;
            println!(
                "{} on {} (n = {}, {} candidates evaluated)",
                r.name(),
                args.device.name,
                args.n,
                t.evaluated
            );
            println!("\nbest EPOD script:\n{}", t.script);
            println!("parameters: {:?}", t.params);
            println!(
                "model: {:.1} GFLOPS | occupancy {:.0}% | regs/thread {} | smem {} B",
                t.report.gflops,
                t.report.occupancy * 100.0,
                t.report.regs_per_thread,
                t.report.smem_bytes
            );
            let err = oa.verify(&t, 64, 7)?;
            println!("verified vs CPU reference at n = 64: max |err| = {err:.2e}");
            Ok(())
        }
        "compare" => {
            let r = need_routine(args)?;
            let c = oa.compare(r, args.n).map_err(|e| e.to_string())?;
            println!("{} on {} (n = {})", r.name(), args.device.name, args.n);
            println!("  OA          {:>8.1} GFLOPS", c.oa.gflops);
            println!(
                "  CUBLAS-like {:>8.1} GFLOPS  ({:.2}x speedup)",
                c.cublas.gflops,
                c.speedup()
            );
            match &c.magma {
                Some(m) => println!("  MAGMA-like  {:>8.1} GFLOPS", m.gflops),
                None => println!("  MAGMA-like  (routine absent in MAGMA v0.2)"),
            }
            Ok(())
        }
        "variants" => {
            let r = need_routine(args)?;
            let scheme = oa_core::blas3::schemes::oa_scheme(r);
            let src = oa_core::blas3::routines::source(r);
            for (bi, base) in scheme.bases.iter().enumerate() {
                let variants = oa_core::composer::compose(
                    &src,
                    base,
                    &scheme.apps,
                    oa_core::autotune::default_params(scheme.solver),
                )
                .map_err(|e| e.to_string())?;
                for (i, v) in variants.iter().enumerate() {
                    println!(
                        "---- base {bi}, variant {i} (rules {:?}) ----",
                        v.rule_choice
                    );
                    println!("{}", v.script);
                }
            }
            Ok(())
        }
        "cuda" => {
            let r = need_routine(args)?;
            let t = oa.tune(r, args.n).map_err(|e| e.to_string())?;
            let src = oa_core::gpusim::to_cuda_source(
                &t.program,
                &oa_core::loopir::interp::Bindings::square(args.n),
            )
            .map_err(|e| e.to_string())?;
            println!("{src}");
            Ok(())
        }
        "serve" => {
            let mut registry = Registry::new(args.device.clone());
            if let Some(cap) = args.capacity {
                registry = registry.with_capacity(if cap == 0 { None } else { Some(cap) });
            }
            if let Ok(cache) = std::env::var("OA_TUNE_CACHE") {
                registry = registry.with_tune_cache(cache.into());
            }
            let threads = args
                .threads
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |p| p.get()));

            let stats = if let Some(addr) = &args.listen {
                // Persistent multi-tenant server mode.
                let mut cfg = oa_core::ServeConfig::from_env();
                cfg.threads = threads;
                if let Some(v) = args.queue_cap {
                    cfg.queue_cap = v.max(1);
                }
                if let Some(v) = args.tenant_quota {
                    cfg.tenant_quota = v.max(1);
                }
                let listener =
                    oa_core::Listener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
                let server =
                    oa_core::spawn_server(std::sync::Arc::new(registry), listener, cfg, args.trace);
                // On stdout (and flushed): stderr must stay a clean
                // JSONL stream in `--trace json` mode, and launch
                // scripts wait for this line to learn the bound port.
                println!("oa serve: listening on {}", server.addr());
                use std::io::Write;
                let _ = std::io::stdout().flush();
                // Runs until a client sends {"op": "shutdown"}.
                server.join()
            } else {
                // One-shot mode: the routine slot is the request file
                // (`-` = stdin), streamed line by line with incremental
                // output — no slurping the whole input first.
                let path = args
                    .routine
                    .as_deref()
                    .ok_or("serve needs a JSONL request file (or `-` for stdin), or --listen")?;
                // `Stdout` (not the non-`Send` lock): each line is
                // written and flushed whole, so interleaving is moot.
                let mut out = std::io::stdout();
                if path == "-" {
                    let mut input = std::io::stdin().lock();
                    oa_core::serve_stream(&registry, &mut input, &mut out, threads, args.trace)?
                } else {
                    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
                    let mut input = std::io::BufReader::new(f);
                    oa_core::serve_stream(&registry, &mut input, &mut out, threads, args.trace)?
                }
            };
            // In json trace mode stderr is a machine-readable stream and
            // the `serve` event already carries these numbers — keep it
            // clean for `oa trace-check`.
            if args.trace != TraceMode::Json {
                eprintln!(
                    "oa serve: drained — {} admitted, {} ok, {} failed, {} rejected \
                     on {} thread(s), p50 {:.2} ms, p99 {:.2} ms, {:.1} ms up",
                    stats.admitted,
                    stats.ok,
                    stats.failed,
                    stats.rejected,
                    threads,
                    stats.p50_ms,
                    stats.p99_ms,
                    stats.wall_ms
                );
            }
            let errors = stats.failed + stats.rejected;
            if args.listen.is_none() && errors > 0 {
                return Err(format!("{errors} request(s) answered with an error"));
            }
            Ok(())
        }
        "fuzz" => {
            let mut cfg = oa_core::fuzz::FuzzConfig::new(args.seed, args.iters);
            cfg.corpus_dir = args.corpus.as_ref().map(std::path::PathBuf::from);
            // The CLI runs the full battery: engine cross-checks plus the
            // tuner model stripe (exact vs rank+exit winner invariance)
            // and the DAG stripe (fused vs sequenced plans, bit for bit).
            cfg.model_stripe = true;
            cfg.dag_stripe = true;
            let report = oa_core::fuzz::run_fuzz(&cfg);
            println!(
                "fuzz: seed {} | {} iterations | {} coverage features | fingerprint {:#018x}",
                args.seed,
                args.iters,
                report.coverage.len(),
                report.fingerprint()
            );
            for (kind, count) in &report.verdicts {
                println!("  {kind:<12} {count}");
            }
            for d in &report.divergences {
                eprintln!("divergence at iteration {}: {}", d.iter, d.detail);
                eprintln!("  original: {}", d.original.id_line());
                eprintln!("  minimal:  {}", d.minimal.id_line());
                if let Some(p) = &d.repro_path {
                    eprintln!("  repro written to {}", p.display());
                }
            }
            for d in &report.dag_divergences {
                eprintln!("dag divergence at iteration {}: {}", d.iter, d.detail);
                eprintln!("  original: {}", d.original.id_line());
                eprintln!("  minimal:  {}", d.minimal.id_line());
                if let Some(p) = &d.repro_path {
                    eprintln!("  repro written to {}", p.display());
                }
            }
            let found = report.divergences.len() + report.dag_divergences.len();
            if found == 0 {
                Ok(())
            } else {
                Err(format!("{found} divergence(s) found"))
            }
        }
        "explain" => {
            // Matcher-tuning dump: region map, annotated disassembly and
            // the deduplicated reject table for the kernel `oa serve`
            // runs at --n (the registry's winner: a tuning-cache replay
            // under OA_TUNE_CACHE, else a fresh tune), with runtime
            // counters from one execution on the serving inputs.
            let r = need_routine(args)?;
            if !args.native {
                return Err("explain currently supports only `--native`".into());
            }
            let mut registry = Registry::new(args.device.clone());
            if let Ok(cache) = std::env::var("OA_TUNE_CACHE") {
                registry = registry.with_tune_cache(cache.into());
            }
            let entry = registry.resolve(r, args.n)?;
            let p = oa_core::epod::translator::apply_lenient(
                &oa_core::blas3::routines::source(r),
                &entry.script,
                entry.params,
            )
            .map_err(|e| e.to_string())?
            .program;
            let b = oa_core::loopir::interp::Bindings::square(args.n);
            let np = oa_core::gpusim::NativeProgram::compile(&p, &b).map_err(|e| e.to_string())?;
            let req = oa_core::Request::new(r, args.n);
            let mut bufs =
                oa_core::blas3::verify::prepare_buffers(&p, args.n, req.seed, req.zero_blanks);
            np.execute(&mut bufs).map_err(|e| e.to_string())?;
            let t = entry.params;
            println!("{} on {} (n = {})", r.name(), args.device.name, args.n);
            println!(
                "params: ty={} tx={} thr_i={} thr_j={} kb={} unroll={}",
                t.ty, t.tx, t.thr_i, t.thr_j, t.kb, t.unroll
            );
            println!("script:\n{}", entry.script);
            println!("{}", np.explain());
            Ok(())
        }
        "model" => {
            // Subcommand rides in the routine slot: train | eval | explain.
            let sub = args
                .routine
                .as_deref()
                .ok_or("model needs a subcommand: train | eval | explain")?;
            let path = resolve_model_path(args);
            match sub {
                "train" => {
                    let trace = args
                        .extra
                        .as_deref()
                        .ok_or("model train needs a trace file (JSONL from `--trace json`)")?;
                    let samples = trace_samples(trace)?;
                    let mut model = oa_core::autotune::CostModel::train(&samples, args.seed);
                    model.engine_hints = oa_core::autotune::measure_engine_hints();
                    let issues = model
                        .save(&path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    for issue in issues {
                        eprintln!("model: {issue}");
                    }
                    match &model.refused {
                        Some(reason) => println!(
                            "model: refuses to rank ({reason}); artifact written to {} — \
                             sweeps stay exact",
                            path.display()
                        ),
                        None => println!(
                            "model: trained on {} sample(s) across {} sweep(s) \
                             (safety x{:.2}); artifact written to {}",
                            model.samples,
                            model.groups,
                            model.safety,
                            path.display()
                        ),
                    }
                    Ok(())
                }
                "eval" => {
                    let trace = args
                        .extra
                        .as_deref()
                        .ok_or("model eval needs a trace file (JSONL from `--trace json`)")?;
                    let (model, issues) = oa_core::autotune::CostModel::load_reporting(&path);
                    for issue in &issues {
                        eprintln!("model: {issue}");
                    }
                    let model = model
                        .ok_or_else(|| format!("no usable model artifact at {}", path.display()))?;
                    if let Some(reason) = &model.refused {
                        return Err(format!("model refuses to rank: {reason}"));
                    }
                    let samples = trace_samples(trace)?;
                    let (hits, total, lines) = eval_hit_rate(&model, &samples);
                    for l in &lines {
                        println!("{l}");
                    }
                    if total == 0 {
                        return Err("trace holds no completed sweep with a winner".into());
                    }
                    let rate = hits as f64 / total as f64;
                    println!("top-5 hit rate: {hits}/{total} = {:.0}%", rate * 100.0);
                    if rate < args.min_hit {
                        return Err(format!(
                            "hit rate {rate:.2} below --min-hit {:.2}",
                            args.min_hit
                        ));
                    }
                    Ok(())
                }
                "explain" => {
                    let (model, issues) = oa_core::autotune::CostModel::load_reporting(&path);
                    for issue in &issues {
                        eprintln!("model: {issue}");
                    }
                    let model = model
                        .ok_or_else(|| format!("no usable model artifact at {}", path.display()))?;
                    println!("cost model at {}", path.display());
                    match &model.refused {
                        Some(reason) => println!("  refuses to rank: {reason}"),
                        None => {
                            println!(
                                "  trained on {} sample(s) across {} sweep(s); safety x{:.2}",
                                model.samples, model.groups, model.safety
                            );
                            println!("  top feature importances:");
                            for (name, w) in model.importances().into_iter().take(12) {
                                println!("    {name:<22} {w:.3}");
                            }
                        }
                    }
                    if !model.engine_hints.is_empty() {
                        println!("  engine hints (fastest composer engine per family):");
                        for (fam, e) in &model.engine_hints {
                            println!("    {fam:<6} {e}");
                        }
                    }
                    Ok(())
                }
                other => Err(format!(
                    "unknown model subcommand `{other}` (train | eval | explain)"
                )),
            }
        }
        "trace-check" => {
            // The routine slot doubles as the file path for this command.
            let path = args
                .routine
                .as_deref()
                .ok_or("trace-check needs a trace file (JSONL on stderr of `--trace json`)")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let report = check_stream(&text)?;
            println!("{report}");
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!(
                "usage: oa <list|tune|compare|variants|cuda|explain|trace-check|serve|fuzz|model> \
                 [ROUTINE|FILE] [--device D] [--n N] [--trace json|pretty|off] \
                 [--threads T] [--capacity C] \
                 [--listen ADDR] [--queue-cap Q] [--tenant-quota K] \
                 [--batch-max B] [--batch-window-ms W] \
                 [--seed S] [--iters I] [--corpus DIR] [--native] \
                 [--model FILE] [--min-hit R]\n\
                 \n\
                 oa model train TRACE.jsonl   # fit the tuner's cost model from a trace\n\
                 oa model eval TRACE.jsonl    # held-out top-5 hit rate (fails < --min-hit)\n\
                 oa model explain             # artifact summary + feature importances"
            );
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `oa help`)")),
    }
}
