//! One benchmark run: generate the library, restart the server, measure,
//! check every output, and report.

use crate::check::{self, Checker};
use crate::library::Report;
use crate::server::{closed_loop, pipeline, vmhwm_kb, Answer, ServerProc};
use crate::spec::{workload, Workload, CONNECTIONS};
use crate::stats::{median, tail, Pctl};
use crate::stream::{warmup_units, Rng, Stream, Unit};
use oa_core::autotune::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Unmeasured lead-in of each window slice, so the slice sees the closed
/// loop's steady state rather than its first refill.
const RAMP: Duration = Duration::from_millis(500);
/// Bare restarts (spawn → listening → shutdown) a traced run times, so
/// `serve.listen_ms`, a few milliseconds each, is a median over many.
const LISTEN_PROBES: usize = 20;
/// The tail percentile reported for every workload (p99 would need 1000
/// samples, more than `serve_large` completes in its window).
pub const TAIL_P: f64 = 90.0;

/// The arguments of one run.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// The `oa` binary.
    pub oa: PathBuf,
    /// Where run state lives (a directory inside the checkout).
    pub state: PathBuf,
    /// Source revision for the provenance record.
    pub rev: String,
}

/// A finished run.
pub struct Outcome {
    /// Every measured value by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted.
    pub attempted: usize,
    /// Failure lines (each one failed operation).
    pub failures: Vec<String>,
    /// Provenance and sample counts.
    pub provenance: BTreeMap<String, Json>,
    /// Per-layer `(spans, total ms, self ms)` of the traced run.
    pub table: BTreeMap<String, (usize, f64, f64)>,
}

/// Run a child of this benchmark binary (`lib` or `probe` mode) with the
/// run's cache in `OA_TUNE_CACHE`, and parse its report.
fn child(mode: &str, w: &Workload, cache: &Path, extra: &[String]) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = Command::new(exe)
        .arg(mode)
        .args(["--workload", w.name, "--cache"])
        .arg(cache)
        .args(extra)
        .env("OA_TUNE_CACHE", cache)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {mode}: {e}"))?;
    let out = child.wait_with_output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{mode} child failed ({})", out.status));
    }
    let last = text.lines().last().unwrap_or("");
    Report::from_json(last).ok_or_else(|| format!("{mode} child printed no report"))
}

/// Timings of one server spawn.
struct Spawned {
    /// Spawn → every single kind answered once.
    setup_s: f64,
    /// Spawn → listening.
    listen_s: f64,
    /// The DAG kinds' warm-up pass, after set-up (0 without DAG kinds).
    dag_warmup_s: f64,
}

/// Spawn a server and send the warm-up pass: every single kind once
/// (timed as set-up), then, `with_dags`, every DAG kind once.  The server
/// plans fused DAGs by tuning them in memory, so the DAG pass is kept out
/// of `setup_s` and timed on its own.
fn spawn_warm(
    a: &Args,
    w: &Workload,
    cache: &Path,
    checker: &mut Checker,
    with_dags: bool,
) -> Result<(ServerProc, Spawned, Vec<Answer>), String> {
    let server = ServerProc::spawn(&a.oa, cache)?;
    let (dag_units, single_units): (Vec<Unit>, Vec<Unit>) = warmup_units(w, a.seed)
        .into_iter()
        .filter(|u| with_dags || !w.kinds[u.kind].is_dag())
        .partition(|u| w.kinds[u.kind].is_dag());
    let mut answers = pipeline(&server.addr, w, &single_units)?;
    let last = answers
        .iter()
        .map(|x| x.done)
        .max()
        .unwrap_or(server.spawned);
    let setup_s = (last - server.spawned).as_secs_f64();
    let mut dag_warmup_s = 0.0;
    if !dag_units.is_empty() {
        let dag_start = Instant::now();
        answers.extend(pipeline(&server.addr, w, &dag_units)?);
        dag_warmup_s = dag_start.elapsed().as_secs_f64();
    }
    for x in &answers {
        checker.observe(&x.unit, &x.resp);
    }
    let timing = Spawned {
        setup_s,
        listen_s: server.listening.as_secs_f64(),
        dag_warmup_s,
    };
    Ok((server, timing, answers))
}

/// Milliseconds a fixed single-thread integer loop takes, median of five:
/// a host-speed reading recorded with every result, so a drift of the
/// host between runs can be told from a change of the program.
fn host_loop_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|i| {
            let t = Instant::now();
            let mut rng = Rng::new(i);
            let mut acc = 0u64;
            for _ in 0..16_000_000 {
                acc ^= rng.next_u64();
            }
            std::hint::black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// Execute one run.
pub fn run(a: &Args) -> Result<Outcome, String> {
    let w = workload(&a.workload).ok_or_else(|| format!("unknown workload `{}`", a.workload))?;
    let dir = a.state.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = run_in(a, &w, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(a: &Args, w: &Workload, dir: &Path) -> Result<Outcome, String> {
    let cache = dir.join("tune_cache.json");
    let host_before = host_loop_ms();
    let t0 = Instant::now();
    let progress =
        |phase: &str| eprintln!("perfbench: {phase} at {:.1} s", t0.elapsed().as_secs_f64());
    let mut failures = Vec::new();
    let mut attempted = 0usize;
    if let Err(e) = check::self_test(w) {
        failures.push(format!("output-check self-test: {e}"));
    }

    // Library phase: generate from an empty cache, no model artifact.
    let spans_file = |part: &str| a.state.join(format!("spans-{}-{part}.jsonl", w.name));
    let mut lib_args = vec![
        "--trace".to_string(),
        if a.trace { "1" } else { "0" }.to_string(),
    ];
    if a.trace {
        lib_args.push("--spans".into());
        lib_args.push(spans_file("library").display().to_string());
    }
    let lib = child("lib", w, &cache, &lib_args)?;
    progress("library generated");
    attempted += lib.attempted;
    failures.extend(lib.failures.iter().map(|f| format!("library: {f}")));
    let value = |r: &Report, k: &str| r.values.get(k).copied().unwrap_or(0.0);

    // Set-up and the measured window.
    let mut checker = Checker::new(w);
    let mut setups = Vec::new();
    let mut dag_warmups = Vec::new();
    let mut listens = Vec::new();
    for _ in 0..if a.trace { LISTEN_PROBES } else { 0 } {
        let s = ServerProc::spawn(&a.oa, &cache)?;
        listens.push(s.listening.as_secs_f64());
        s.shutdown()?;
    }
    let mut measured: Vec<Answer> = Vec::new();
    let mut admin: Option<Json> = None;
    // Set-up and measurement alternate: each spawn is timed to the
    // end of its warm-up pass, then serves one slice of the
    // measured window, so the window is spread over the run.
    let spawns = if a.trace { 1 } else { w.spawns };
    let slice = Duration::from_secs_f64(a.seconds / spawns as f64);
    let mut streams: Vec<Stream> = (0..CONNECTIONS)
        .map(|c| Stream::new(w, a.seed, c))
        .collect();
    let mut measured_s = 0.0;
    let mut peak_kb = 0;
    for i in 0..spawns {
        // Set-up-only spawns, between the serving ones: more samples for
        // the set-up median, spread over the run like the window.
        for _ in 0..if a.trace { 0 } else { w.setup_probes } {
            let (server, timing, answers) = spawn_warm(a, w, &cache, &mut checker, false)?;
            attempted += answers.len();
            setups.push(timing.setup_s);
            listens.push(timing.listen_s);
            peak_kb = peak_kb.max(vmhwm_kb(&server.pid().to_string()).unwrap_or(0));
            server.shutdown()?;
        }
        let (server, timing, answers) = spawn_warm(a, w, &cache, &mut checker, true)?;
        progress("serving server warm");
        attempted += answers.len();
        setups.push(timing.setup_s);
        dag_warmups.push(timing.dag_warmup_s);
        listens.push(timing.listen_s);
        let start = Instant::now() + RAMP;
        let end = start + slice;
        let addr = server.addr.clone();
        let per_conn: Vec<Result<Vec<Answer>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter_mut()
                .map(|stream| {
                    let addr = &addr;
                    s.spawn(move || closed_loop(addr, w, stream, end))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        for answers in per_conn {
            for x in answers? {
                attempted += 1;
                checker.observe(&x.unit, &x.resp);
                if x.done >= start && x.done <= end {
                    measured.push(x);
                }
            }
        }
        measured_s += slice.as_secs_f64();
        if a.trace && i + 1 == spawns {
            admin = Some(server.op("metrics")?);
        }
        peak_kb = peak_kb.max(vmhwm_kb(&server.pid().to_string()).unwrap_or(0));
        server.shutdown()?;
        progress("window slice served");
    }

    // The output check.
    attempted += checker.verify(&cache);
    progress("outputs checked");
    failures.extend(checker.failures.iter().cloned());

    let sojourn: Vec<f64> = measured.iter().map(Answer::sojourn_ms).collect();
    let p50 = median(&sojourn).ok_or("no request completed in the measured phase")?;
    let tail_p = tail(&sojourn, TAIL_P);
    let mut prov = BTreeMap::new();
    let mut samples = BTreeMap::from([
        ("setup_s".to_string(), Json::Int(setups.len() as i64)),
        (
            "latency_p50_ms".to_string(),
            Json::Int(sojourn.len() as i64),
        ),
    ]);
    if let Some(p) = tail_p {
        samples.insert("latency_p90_ms".into(), pctl_json(&p));
    }

    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let mut table = BTreeMap::new();
    if !a.trace {
        let p90 = tail_p.ok_or_else(|| {
            format!(
                "only {} requests completed in the measured phase: p{TAIL_P} needs 10 beyond it",
                sojourn.len()
            )
        })?;
        for (name, v) in [
            ("setup_s", median(&setups).unwrap_or(0.0)),
            ("library_s", value(&lib, "library_ms") / 1e3),
            ("library_gflops_geomean", value(&lib, "gflops_geomean")),
            ("throughput_rps", measured.len() as f64 / measured_s),
            ("latency_p50_ms", p50),
            ("latency_p90_ms", p90.value),
            ("peak_rss_mb", peak_kb as f64 / 1024.0),
        ] {
            metrics.insert(name.to_string(), v);
        }
    } else {
        let probe = child(
            "probe",
            w,
            &cache,
            &[
                "--seed".into(),
                a.seed.to_string(),
                "--spans".into(),
                spans_file("probe").display().to_string(),
            ],
        )?;
        attempted += probe.attempted;
        failures.extend(probe.failures.iter().map(|f| format!("probe: {f}")));
        let wait: Vec<f64> = measured
            .iter()
            .filter_map(|x| x.registry_ms().map(|ms| x.sojourn_ms() - ms))
            .collect();
        let registry: Vec<f64> = measured.iter().filter_map(Answer::registry_ms).collect();
        let dag: Vec<f64> = measured
            .iter()
            .filter(|x| w.kinds[x.unit.kind].is_dag())
            .map(Answer::sojourn_ms)
            .collect();
        samples.insert("serve.wait_ms_p50".into(), Json::Int(wait.len() as i64));
        samples.insert("serve.listen_ms".into(), Json::Int(listens.len() as i64));
        samples.insert("dag.latency_p50_ms".into(), Json::Int(dag.len() as i64));
        let op = |k: &str| {
            admin
                .as_ref()
                .and_then(|m| m.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let lookups = op("lru_hits") + op("lru_misses");
        metrics.extend(lib.values.iter().map(|(k, v)| (k.clone(), *v)));
        metrics.extend(probe.values.iter().map(|(k, v)| (k.clone(), *v)));
        for (name, v) in [
            ("serve.wait_ms_p50", median(&wait).unwrap_or(0.0)),
            ("serve.listen_ms", median(&listens).unwrap_or(0.0) * 1e3),
            ("serve.mean_batch", op("mean_batch")),
            ("serve.rejected", op("rejected")),
            ("dispatch.registry_ms_p50", median(&registry).unwrap_or(0.0)),
            (
                "dispatch.lru_hit_ratio",
                if lookups > 0.0 {
                    op("lru_hits") / lookups
                } else {
                    0.0
                },
            ),
            ("dispatch.lru_lookups", lookups),
            ("dag.latency_p50_ms", median(&dag).unwrap_or(0.0)),
            ("dag.warmup_ms", median(&dag_warmups).unwrap_or(0.0) * 1e3),
        ] {
            metrics.insert(name.to_string(), v);
        }
        table.extend(lib.table.iter().map(|(k, v)| (k.clone(), *v)));
        for (k, v) in &probe.table {
            let e = table.entry(k.clone()).or_insert((0, 0.0, 0.0));
            e.0 += v.0;
            e.1 += v.1;
            e.2 += v.2;
        }
    }

    prov.insert("rev".into(), Json::Str(a.rev.clone()));
    prov.insert(
        "nproc".into(),
        Json::Int(std::thread::available_parallelism().map_or(1, |p| p.get()) as i64),
    );
    prov.insert(
        "engine".into(),
        Json::Str(match std::env::var("OA_EXEC_ENGINE") {
            Ok(v) => format!(
                "{} (OA_EXEC_ENGINE={v})",
                oa_core::gpusim::select_engine().name()
            ),
            Err(_) => format!("{} (default)", oa_core::gpusim::select_engine().name()),
        }),
    );
    prov.insert("workload".into(), Json::Str(w.name.into()));
    prov.insert("seed".into(), Json::Int(a.seed as i64));
    prov.insert("seconds".into(), Json::Num(a.seconds));
    prov.insert("trace".into(), Json::Bool(a.trace));
    prov.insert("connections".into(), Json::Int(CONNECTIONS as i64));
    prov.insert("window_per_connection".into(), Json::Int(w.window as i64));
    prov.insert("measured_s".into(), Json::Num(measured_s));
    prov.insert("samples".into(), Json::Obj(samples));
    prov.insert(
        "host_loop_ms".into(),
        Json::Arr(vec![Json::Num(host_before), Json::Num(host_loop_ms())]),
    );
    prov.insert(
        "setup_samples_s".into(),
        Json::Arr(setups.iter().map(|&v| Json::Num(v)).collect()),
    );
    Ok(Outcome {
        metrics,
        attempted,
        failures,
        provenance: prov,
        table,
    })
}

fn pctl_json(p: &Pctl) -> Json {
    Json::Obj(BTreeMap::from([
        ("samples".to_string(), Json::Int(p.samples as i64)),
        ("beyond".to_string(), Json::Int(p.beyond as i64)),
    ]))
}
