//! The in-process work: library generation and the traced layer probe.
//!
//! Both run in a child process of the benchmark with `OA_TUNE_CACHE`
//! naming the run's cache, because the DAG runner's single-node tunes
//! find the cache through that variable.  The child reports one JSON
//! object on its last stdout line.

use crate::spans::{layer_table, to_jsonl, Tracer};
use crate::spec::{routine_id, Kind, Workload, DAG_SHAPES};
use crate::stats::{geomean, median};
use crate::stream::seed_base;
use oa_core::autotune::json::{self, Json};
use oa_core::autotune::report::Stage;
use oa_core::autotune::{plan_dag, tune_at_observed, TuneCache, TuneEvent};
use oa_core::blas3::verify::prepare_buffers;
use oa_core::dispatch::{digest_buffers, Registry};
use oa_core::gpusim::dispatch::CompiledProgram;
use oa_core::gpusim::DeviceSpec;
use oa_core::loopir::interp::Bindings;
use oa_core::{DagRequest, DagStatus};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Counts and stage times gathered from the tuner's observer events.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Fresh sweeps begun.
    pub sweeps: usize,
    /// Cache records replayed instead of swept.
    pub replays: usize,
    /// Sweep points (variants × parameter candidates).
    pub points: usize,
    /// Candidates evaluated by the performance model.
    pub evaluated: usize,
    /// Candidates pruned as unlaunchable.
    pub pruned: usize,
    /// Cumulative stage time, ms, by stage name.
    pub stage_ms: BTreeMap<&'static str, f64>,
}

impl Tally {
    /// Account one event.
    pub fn observe(&mut self, e: &TuneEvent) {
        match e {
            TuneEvent::Begin { .. } => self.sweeps += 1,
            TuneEvent::Replayed { .. } => self.replays += 1,
            TuneEvent::Span { stage, ms, .. } => {
                *self.stage_ms.entry(stage.name()).or_default() += ms
            }
            TuneEvent::Summary {
                points,
                evaluated,
                pruned,
                ..
            } => {
                self.points += points;
                self.evaluated += evaluated;
                self.pruned += pruned;
            }
            _ => {}
        }
    }

    fn stage(&self, s: Stage) -> f64 {
        self.stage_ms.get(s.name()).copied().unwrap_or(0.0)
    }
}

/// The DAG request for `kind` (which must be a DAG kind) on `seed`.
pub fn dag_request(kind: &Kind, seed: u64) -> DagRequest {
    let Kind::Dag { shape, n } = kind else {
        panic!("{} is not a DAG kind", kind.label());
    };
    let line = format!(
        r#"{{"dag":{},"n":{n},"seed":{seed}}}"#,
        DAG_SHAPES[*shape].1
    );
    let doc = json::parse(&line).expect("DAG shapes are valid JSON");
    DagRequest::from_json(&doc).expect("DAG shapes are valid requests")
}

/// A child's report: named numbers plus failure lines.
#[derive(Debug, Default)]
pub struct Report {
    /// Named values (`library_ms`, layer metrics, ...).
    pub values: BTreeMap<String, f64>,
    /// Operations attempted.
    pub attempted: usize,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Per-layer `(spans, total ms, self ms)`.
    pub table: BTreeMap<String, (usize, f64, f64)>,
}

impl Report {
    /// The report as one JSON line.
    pub fn to_json(&self) -> String {
        let values = Json::Obj(
            self.values
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let table = Json::Obj(
            self.table
                .iter()
                .map(|(k, (n, total, own))| {
                    (
                        k.clone(),
                        Json::Arr(vec![
                            Json::Int(*n as i64),
                            Json::Num(*total),
                            Json::Num(*own),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(BTreeMap::from([
            ("values".to_string(), values),
            ("attempted".to_string(), Json::Int(self.attempted as i64)),
            (
                "failures".to_string(),
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("table".to_string(), table),
        ]))
        .compact()
    }

    /// Parse a child's report line.
    pub fn from_json(line: &str) -> Option<Report> {
        let doc = json::parse(line)?;
        let mut r = Report::default();
        if let Some(Json::Obj(vals)) = doc.get("values") {
            for (k, v) in vals {
                r.values.insert(k.clone(), v.as_f64()?);
            }
        }
        r.attempted = doc.get("attempted")?.as_i64()? as usize;
        for f in doc.get("failures")?.as_arr()? {
            r.failures.push(f.as_str()?.to_string());
        }
        if let Some(Json::Obj(t)) = doc.get("table") {
            for (k, v) in t {
                let a = v.as_arr()?;
                r.table.insert(
                    k.clone(),
                    (
                        a.first()?.as_i64()? as usize,
                        a.get(1)?.as_f64()?,
                        a.get(2)?.as_f64()?,
                    ),
                );
            }
        }
        Some(r)
    }

    fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    fn absorb_spans(&mut self, tracer: &Tracer, spans_out: Option<&Path>) {
        for (name, row) in layer_table(tracer.spans()) {
            self.table.insert(name.to_string(), row);
        }
        if let Some(path) = spans_out {
            if let Err(e) = std::fs::write(path, to_jsonl(tracer.spans())) {
                self.failures
                    .push(format!("write spans {}: {e}", path.display()));
            }
        }
    }
}

/// Generate `w`'s library into the empty cache at `cache`.
pub fn generate(w: &Workload, cache: &Path, traced: bool, spans_out: Option<&Path>) -> Report {
    let device = DeviceSpec::gtx285();
    let mut t = Tracer::new(traced);
    let mut tally = Tally::default();
    let mut rep = Report::default();
    let mut obs = |e: TuneEvent| tally.observe(&e);
    let t0 = Instant::now();
    t.span("library", 0, |t| {
        let registry = Registry::new(device.clone()).with_tune_cache(cache.to_path_buf());
        for (i, &(r, n)) in w.library.registry.iter().enumerate() {
            rep.attempted += 1;
            if let Err(e) = t.span("tune", i as u64, |_| {
                registry.resolve_observed(routine_id(r), n, &mut obs)
            }) {
                rep.failures.push(format!("tune {r}@{n}: {e}"));
            }
        }
        for (i, &(r, n)) in w.library.exact.iter().enumerate() {
            rep.attempted += 1;
            let req = (w.library.registry.len() + i) as u64;
            if let Err(e) = t.span("tune", req, |_| {
                tune_at_observed(routine_id(r), &device, n, cache, &mut obs)
            }) {
                rep.failures.push(format!("tune {r}@{n}: {e}"));
            }
        }
        for (i, kind) in w.library.dags.iter().enumerate() {
            rep.attempted += 1;
            let req = dag_request(kind, 1);
            let out = t.span("dag.run", i as u64, |_| {
                registry.run_dag_observed(&req, &mut obs)
            });
            if let DagStatus::Failed { class, reason } = out.status {
                rep.failures
                    .push(format!("{}: {class}: {reason}", kind.label()));
            }
        }
    });
    rep.set("library_ms", t0.elapsed().as_secs_f64() * 1e3);
    rep.set(
        "library.rss_mb",
        crate::server::vmhwm_kb("self").unwrap_or(0) as f64 / 1024.0,
    );

    // The library's quality: modeled GFLOPS of every tuned winner.
    let lib = TuneCache::load(cache);
    let winners: Vec<f64> = w
        .library
        .registry
        .iter()
        .map(|&(r, n)| (r, oa_core::dispatch::size_class(n)))
        .chain(w.library.exact.iter().copied())
        .filter_map(|(r, n)| lib.get(routine_id(r), &device, n).map(|rec| rec.gflops))
        .collect();
    match geomean(&winners) {
        Some(g) if winners.len() == w.library.registry.len() + w.library.exact.len() => {
            rep.set("gflops_geomean", g)
        }
        _ => rep.failures.push(format!(
            "the cache holds {} of {} tuned winners",
            winners.len(),
            w.library.registry.len() + w.library.exact.len()
        )),
    }

    if traced {
        let copy = cache.with_extension("copy.json");
        t.span("cache.save", 0, |_| lib.save(&copy))
            .unwrap_or_else(|e| rep.failures.push(format!("cache save: {e}")));
        let _ = std::fs::remove_file(&copy);
        let ms = |name: &str| median(&t.durations_ms(name)).unwrap_or(0.0);
        rep.set("tune.ms", ms("tune"));
        rep.set("cache.save_ms", ms("cache.save"));
        rep.set("tune.evaluated", tally.evaluated as f64);
        rep.set("tune.points", tally.points as f64);
        rep.set("tune.pruned", tally.pruned as f64);
        rep.set("tune.sweeps", tally.sweeps as f64);
        rep.set("compose.ms", tally.stage(Stage::Compose));
        rep.set("filter.ms", tally.stage(Stage::Filter));
        rep.set("tune.translate_ms", tally.stage(Stage::Translate));
        rep.set("tune.eval_ms", tally.stage(Stage::Evaluate));
        rep.absorb_spans(&t, spans_out);
    }
    rep
}

/// Executions per single kind in the probe.
const PROBE_REPS: u64 = 3;

/// The traced layer probe: resolve, compile and execute every kind of
/// `w` (and its library's DAGs) through the layers' public functions
/// against the generated cache, one span per call.
pub fn probe(w: &Workload, cache: &Path, run_seed: u64, spans_out: Option<&Path>) -> Report {
    let device = DeviceSpec::gtx285();
    let mut t = Tracer::new(true);
    let mut rep = Report::default();
    let mut tally = Tally::default();
    let base = seed_base(run_seed);

    t.span("cache.load", 0, |_| TuneCache::load_reporting(cache));
    let registry = Registry::new(device.clone()).with_tune_cache(cache.to_path_buf());
    let engine = registry.engine();

    // Singles: resolve → translate / lower / evaluate → execute.
    let mut compiled = Vec::new();
    let mut resolved = std::collections::BTreeSet::new();
    let (mut flops, mut exec_s) = (0.0f64, 0.0f64);
    let (mut entries, mut fallbacks) = (0u64, 0u64);
    for (k, kind) in w.kinds.iter().enumerate() {
        let Kind::Single { routine, n } = kind else {
            continue;
        };
        let (r, n) = (routine_id(routine), *n);
        let id = k as u64;
        rep.attempted += 1;
        // Only a key's first resolve replays the cache; later ones are
        // memo hits and are not timed.
        let first = resolved.insert((r.name(), oa_core::dispatch::size_class(n)));
        let resolve = |t: &mut Tracer, tally: &mut Tally| {
            let mut obs = |e: TuneEvent| tally.observe(&e);
            match first {
                true => t.span("resolve", id, |_| registry.resolve_observed(r, n, &mut obs)),
                false => registry.resolve_observed(r, n, &mut obs),
            }
        };
        let entry = match resolve(&mut t, &mut tally) {
            Ok(e) => e,
            Err(e) => {
                rep.failures.push(format!("resolve {}: {e}", kind.label()));
                continue;
            }
        };
        let bindings = Bindings::square(n);
        let built = t.span("compile", id, |t| {
            let src = oa_core::blas3::routines::source(r);
            let program = t
                .span("translate", id, |_| {
                    oa_core::epod::translator::apply_lenient(&src, &entry.script, entry.params)
                })
                .map_err(|e| format!("translate: {e}"))?
                .program;
            let prog = t
                .span("lower", id, |_| {
                    CompiledProgram::compile(engine, &program, &bindings)
                })
                .map_err(|e| format!("lower: {e}"))?;
            t.span("perf.evaluate", id, |_| {
                oa_core::gpusim::perf::evaluate(&program, &bindings, &device, r.flops(n), true)
            })
            .map_err(|e| format!("evaluate: {e}"))?;
            Ok::<_, String>((program, prog))
        });
        let (program, prog) = match built {
            Ok(b) => b,
            Err(e) => {
                rep.failures.push(format!("{}: {e}", kind.label()));
                continue;
            }
        };
        for s in 0..PROBE_REPS {
            rep.attempted += 1;
            let ran = t.span("request", id, |t| {
                let mut bufs = t.span("prepare", id, |_| {
                    prepare_buffers(&program, n, base + s, true)
                });
                let e0 = Instant::now();
                t.span("execute", id, |_| prog.execute(&mut bufs))?;
                exec_s += e0.elapsed().as_secs_f64();
                t.span("digest", id, |_| digest_buffers(&bufs));
                Ok::<_, oa_core::gpusim::ExecError>(())
            });
            match ran {
                Ok(()) => flops += r.flops(n),
                Err(e) => rep.failures.push(format!("execute {}: {e}", kind.label())),
            }
        }
        if let CompiledProgram::Native(np) = &prog {
            let (e, f) = np.runtime_stats();
            entries += e;
            fallbacks += f;
        }
        compiled.push((r, n, program, prog));
    }

    // DAGs: plan, then run through the registry (the first run of a shape
    // plans and tunes its fused pairs; the rest are warm).
    let dag_kinds: Vec<&Kind> = w
        .kinds
        .iter()
        .chain(&w.library.dags)
        .filter(|k| k.is_dag())
        .collect();
    let (mut fused_edges, mut units, mut gmem) = (0usize, 0usize, 0.0f64);
    for (k, kind) in dag_kinds.iter().enumerate() {
        let id = 10_000 + k as u64;
        let req = dag_request(kind, base);
        t.span("fuse.plan", id, |_| plan_dag(&req.nodes, true));
        for s in 0..PROBE_REPS {
            rep.attempted += 1;
            let mut req = req.clone();
            req.seed = base + s;
            let out = t.span("dag.run", id, |_| registry.run_dag(&req));
            match out.status {
                DagStatus::Ok(ok) if s == 0 => {
                    fused_edges += ok.fused.len();
                    units += ok.units;
                    gmem += ok.gmem_bytes.unwrap_or(0.0);
                }
                DagStatus::Ok(_) => {}
                DagStatus::Failed { class, reason } => rep
                    .failures
                    .push(format!("{}: {class}: {reason}", kind.label())),
            }
        }
    }

    // Tracing overhead: the execute path replayed untraced and traced in
    // turn, three times each; the medians are compared.
    let replay = |t: &mut Tracer| {
        let t0 = Instant::now();
        for (i, (_, n, program, prog)) in compiled.iter().enumerate() {
            let id = 20_000 + i as u64;
            t.span("request", id, |t| {
                let mut bufs = t.span("prepare", id, |_| prepare_buffers(program, *n, base, true));
                let _ = t.span("execute", id, |_| prog.execute(&mut bufs));
                t.span("digest", id, |_| digest_buffers(&bufs));
            });
        }
        t0.elapsed().as_secs_f64() * 1e3
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        untraced.push(replay(&mut Tracer::new(false)));
        traced.push(replay(&mut t));
    }

    let ms = |name: &str| median(&t.durations_ms(name)).unwrap_or(0.0);
    for (metric, span) in [
        ("resolve.ms", "resolve"),
        ("translate.ms", "translate"),
        ("lower.ms", "lower"),
        ("perf.eval_ms", "perf.evaluate"),
        ("prepare.ms", "prepare"),
        ("execute.ms", "execute"),
        ("digest.ms", "digest"),
        ("cache.load_ms", "cache.load"),
        ("fuse.plan_ms", "fuse.plan"),
        ("dag.run_ms", "dag.run"),
    ] {
        rep.set(metric, ms(span));
    }
    rep.set("resolve.replays", tally.replays as f64);
    rep.set("resolve.sweeps", tally.sweeps as f64);
    rep.set(
        "execute.gflops",
        if exec_s > 0.0 {
            flops / exec_s / 1e9
        } else {
            0.0
        },
    );
    rep.set("native.entries", entries as f64);
    rep.set("native.fallbacks", fallbacks as f64);
    rep.set("dag.fused_edges", fused_edges as f64);
    rep.set("dag.units", units as f64);
    rep.set("dag.gmem_bytes", gmem);
    rep.set(
        "trace.overhead_ms",
        median(&traced).unwrap_or(0.0) - median(&untraced).unwrap_or(0.0),
    );
    rep.set("trace.spans", t.spans().len() as f64);
    rep.absorb_spans(&t, spans_out);
    rep
}
