//! The `OA_TRACE` rendering sink for the tuner's structured events.
//!
//! The tuner emits [`TuneEvent`]s through an observer callback (the event
//! types live in `oa_autotune::report`, below this crate in the
//! dependency graph); this module turns them into a human-readable
//! (`pretty`) or machine-readable (`json`, one object per line) stream on
//! **stderr** — stdout stays reserved for the command's own output, so
//! `oa tune ... --trace json 2> trace.jsonl` captures a clean JSONL file.
//!
//! Every JSON line carries an `"event"` discriminator; candidate lines
//! carry a terminal `"outcome"` label (`won`, `lost`, `pruned`,
//! `skipped`, `degenerated`, `errored`).  [`check_stream`] validates a
//! captured stream: well-formed lines, one span per pipeline stage, a
//! terminal outcome on every candidate, at most one `model` line per tune
//! with consistent predicted-vs-actual accounting, and summary counts
//! that add up — the invariant CI asserts.

use oa_autotune::json::{parse, Json};
use oa_autotune::report::{CandidateFate, CandidateOutcome, Stage, TuneEvent};
use std::collections::BTreeMap;
use std::io::Write;

/// How trace events are rendered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// No trace output.
    #[default]
    Off,
    /// One JSON object per event, one per line, on stderr.
    Json,
    /// Aligned human-readable lines on stderr.
    Pretty,
}

impl TraceMode {
    /// Parse a mode name (`off`, `json`, `pretty`).
    pub fn parse(name: &str) -> Option<TraceMode> {
        match name.to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(TraceMode::Off),
            "json" => Some(TraceMode::Json),
            "pretty" | "1" => Some(TraceMode::Pretty),
            _ => None,
        }
    }

    /// The mode selected by the `OA_TRACE` environment variable
    /// (unset or unrecognized = off).
    pub fn from_env() -> TraceMode {
        std::env::var("OA_TRACE")
            .ok()
            .and_then(|v| TraceMode::parse(&v))
            .unwrap_or(TraceMode::Off)
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// A `(reason, count)` histogram as one JSON object.
pub fn histogram(h: &[(String, u64)]) -> Json {
    Json::Obj(
        h.iter()
            .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
            .collect(),
    )
}

fn opt_num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

fn candidate_json(o: &CandidateOutcome) -> Json {
    let mut fields = vec![
        ("event", Json::Str("candidate".into())),
        ("outcome", Json::Str(o.fate.label().into())),
        (
            "script",
            o.script.map_or(Json::Null, |s| Json::Int(s as i64)),
        ),
        (
            "params",
            o.params.map_or(Json::Null, |p| {
                Json::Arr(
                    [p.ty, p.tx, p.thr_i, p.thr_j, p.kb, p.unroll as i64]
                        .iter()
                        .map(|&v| Json::Int(v))
                        .collect(),
                )
            }),
        ),
        ("gflops", opt_num(o.gflops)),
    ];
    match &o.fate {
        CandidateFate::Pruned { reason } => {
            fields.push(("reason", Json::Str(reason.clone())));
        }
        CandidateFate::Skipped { predicted } => {
            fields.push(("predicted", Json::Num(*predicted)));
        }
        CandidateFate::Degenerated { component, reason } => {
            fields.push(("component", Json::Str(component.clone())));
            fields.push(("reason", Json::Str(reason.clone())));
        }
        CandidateFate::Errored {
            stage,
            class,
            reason,
        } => {
            fields.push(("stage", Json::Str(stage.name().into())));
            fields.push(("class", Json::Str(class.clone())));
            fields.push(("reason", Json::Str(reason.clone())));
        }
        CandidateFate::Won | CandidateFate::Lost => {}
    }
    obj(fields)
}

/// One event as the JSON object written in `json` mode.
pub fn event_json(e: &TuneEvent) -> Json {
    match e {
        TuneEvent::Begin {
            routine,
            device,
            n,
            engine,
        } => obj(vec![
            ("event", Json::Str("begin".into())),
            ("routine", Json::Str(routine.clone())),
            ("device", Json::Str(device.clone())),
            ("n", Json::Int(*n)),
            ("engine", Json::Str((*engine).into())),
        ]),
        TuneEvent::Span { stage, ms, items } => obj(vec![
            ("event", Json::Str("span".into())),
            ("stage", Json::Str(stage.name().into())),
            ("ms", Json::Num(*ms)),
            ("items", Json::Int(*items as i64)),
        ]),
        TuneEvent::Candidate(o) => candidate_json(o),
        TuneEvent::Cache(issue) => obj(vec![
            ("event", Json::Str("cache".into())),
            ("issue", Json::Str(issue.to_string())),
        ]),
        TuneEvent::Replayed { routine, gflops } => obj(vec![
            ("event", Json::Str("replayed".into())),
            ("routine", Json::Str(routine.clone())),
            ("gflops", Json::Num(*gflops)),
        ]),
        TuneEvent::Model(m) => obj(vec![
            ("event", Json::Str("model".into())),
            ("mode", Json::Str(m.mode.into())),
            ("considered", Json::Int(m.considered as i64)),
            ("evaluated", Json::Int(m.evaluated as i64)),
            ("skipped", Json::Int(m.skipped as i64)),
            ("transfer", Json::Bool(m.transfer)),
            (
                "predicted_winner_gflops",
                opt_num(m.predicted_winner_gflops),
            ),
            ("actual_winner_gflops", opt_num(m.actual_winner_gflops)),
        ]),
        TuneEvent::Summary {
            variants,
            points,
            evaluated,
            pruned,
            degenerated,
            errored,
            skipped,
            winner_gflops,
        } => obj(vec![
            ("event", Json::Str("summary".into())),
            ("variants", Json::Int(*variants as i64)),
            ("points", Json::Int(*points as i64)),
            ("evaluated", Json::Int(*evaluated as i64)),
            ("pruned", Json::Int(*pruned as i64)),
            ("degenerated", Json::Int(*degenerated as i64)),
            ("errored", Json::Int(*errored as i64)),
            ("skipped", Json::Int(*skipped as i64)),
            ("winner_gflops", opt_num(*winner_gflops)),
        ]),
        TuneEvent::Serve(s) => obj(vec![
            ("event", Json::Str("serve".into())),
            ("admitted", Json::Int(s.admitted as i64)),
            ("completed", Json::Int(s.completed as i64)),
            ("ok", Json::Int(s.ok as i64)),
            ("failed", Json::Int(s.failed as i64)),
            ("rejected", Json::Int(s.rejected as i64)),
            ("clamped", Json::Int(s.clamped as i64)),
            ("p50_ms", Json::Num(s.p50_ms)),
            ("p99_ms", Json::Num(s.p99_ms)),
            ("hits", Json::Int(s.hits as i64)),
            ("misses", Json::Int(s.misses as i64)),
            ("tenants", Json::Int(s.tenants as i64)),
            ("wall_ms", Json::Num(s.wall_ms)),
        ]),
        TuneEvent::NativeCoverage(c) => obj(vec![
            ("event", Json::Str("native_coverage".into())),
            ("routine", Json::Str(c.routine.clone())),
            ("regions", Json::Int(c.regions as i64)),
            ("entries", Json::Int(c.entries as i64)),
            ("fallbacks", Json::Int(c.fallbacks as i64)),
            ("loop_records", Json::Int(c.loop_records as i64)),
            ("instances", Json::Int(c.instances as i64)),
            ("two_level_records", Json::Int(c.two_level_records as i64)),
            ("triangular_records", Json::Int(c.triangular_records as i64)),
            ("bulk_moves", Json::Int(c.bulk_moves as i64)),
            ("element_moves", Json::Int(c.element_moves as i64)),
            ("fallback_reasons", histogram(&c.fallback_reasons)),
            ("rejects", histogram(&c.rejects)),
        ]),
        TuneEvent::Fuse(f) => {
            let edges = |es: &[(String, String, String)]| {
                Json::Arr(
                    es.iter()
                        .map(|(p, c, k)| {
                            obj(vec![
                                ("producer", Json::Str(p.clone())),
                                ("consumer", Json::Str(c.clone())),
                                ("kind", Json::Str(k.clone())),
                            ])
                        })
                        .collect(),
                )
            };
            obj(vec![
                ("event", Json::Str("fuse".into())),
                ("shape", Json::Str(f.shape.clone())),
                ("n", Json::Int(f.n)),
                ("nodes", Json::Int(f.nodes as i64)),
                ("units", Json::Int(f.units as i64)),
                ("fused", edges(&f.fused)),
                ("rejected", edges(&f.rejected)),
            ])
        }
    }
}

/// One event as the aligned line written in `pretty` mode.
pub fn event_pretty(e: &TuneEvent) -> String {
    match e {
        TuneEvent::Begin {
            routine,
            device,
            n,
            engine,
        } => format!("tune  {routine} on {device} (n = {n}, engine {engine})"),
        TuneEvent::Span { stage, ms, items } => {
            format!("span  {:<9} {items:>5} items  {ms:>8.1} ms", stage.name())
        }
        TuneEvent::Candidate(o) => {
            let place = match (o.script, &o.params) {
                (Some(s), Some(p)) => format!(
                    "script {s} ({},{},{},{},{},{})",
                    p.ty, p.tx, p.thr_i, p.thr_j, p.kb, p.unroll
                ),
                _ => "compose".to_string(),
            };
            let detail = match &o.fate {
                CandidateFate::Won | CandidateFate::Lost => {
                    o.gflops.map_or(String::new(), |g| format!("{g:.1} GFLOPS"))
                }
                CandidateFate::Pruned { reason } => reason.clone(),
                CandidateFate::Skipped { predicted } => {
                    format!("predicted {predicted:.1} GFLOPS (early exit)")
                }
                CandidateFate::Degenerated { component, reason } => {
                    format!("{component}: {reason}")
                }
                CandidateFate::Errored { class, reason, .. } => format!("{class}: {reason}"),
            };
            format!("cand  {:<11} {place}  {detail}", o.fate.label())
        }
        TuneEvent::Cache(issue) => format!("cache {issue}"),
        TuneEvent::Replayed { routine, gflops } => {
            format!("tune  {routine} replayed from cache ({gflops:.1} GFLOPS)")
        }
        TuneEvent::Model(m) => format!(
            "model {} ranked {} points: {} evaluated, {} skipped{}{}",
            m.mode,
            m.considered,
            m.evaluated,
            m.skipped,
            if m.transfer { " (transfer-seeded)" } else { "" },
            match (m.predicted_winner_gflops, m.actual_winner_gflops) {
                (Some(p), Some(a)) => format!(" — winner predicted {p:.1}, actual {a:.1} GFLOPS"),
                _ => String::new(),
            }
        ),
        TuneEvent::Summary {
            variants,
            points,
            evaluated,
            pruned,
            degenerated,
            errored,
            skipped,
            winner_gflops,
        } => format!(
            "done  {variants} variants, {points} points: {evaluated} evaluated, \
             {pruned} pruned, {degenerated} degenerated, {errored} errored, \
             {skipped} skipped{}",
            winner_gflops.map_or(String::new(), |g| format!(" — winner {g:.1} GFLOPS"))
        ),
        TuneEvent::Serve(s) => format!(
            "serve {} admitted ({} ok, {} failed, {} rejected, {} clamped): \
             p50 {:.2} ms, p99 {:.2} ms, {} hits, {} misses, {} tenant(s), {:.1} ms up",
            s.admitted,
            s.ok,
            s.failed,
            s.rejected,
            s.clamped,
            s.p50_ms,
            s.p99_ms,
            s.hits,
            s.misses,
            s.tenants,
            s.wall_ms
        ),
        TuneEvent::NativeCoverage(c) => {
            let rejects = if c.rejects.is_empty() {
                "none".to_string()
            } else {
                c.rejects
                    .iter()
                    .map(|(k, v)| format!("{k}×{v}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            format!(
                "nativ {} {} region(s): {} entries, {} fallbacks, {} loop records \
                 ({} two-level, {} triangular), {} instances, {} bulk / {} element moves, \
                 rejects {rejects}",
                c.routine,
                c.regions,
                c.entries,
                c.fallbacks,
                c.loop_records,
                c.two_level_records,
                c.triangular_records,
                c.instances,
                c.bulk_moves,
                c.element_moves
            )
        }
        TuneEvent::Fuse(f) => {
            let list = |es: &[(String, String, String)]| {
                es.iter()
                    .map(|(p, c, k)| format!("{p}->{c} ({k})"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            format!(
                "fuse  {} (n = {}): {} node(s) in {} unit(s), fused [{}], rejected [{}]",
                f.shape,
                f.n,
                f.nodes,
                f.units,
                list(&f.fused),
                list(&f.rejected)
            )
        }
    }
}

/// Write one event to `out` in the given mode (no-op when `Off`).
pub fn emit(mode: TraceMode, e: &TuneEvent, out: &mut dyn Write) {
    let line = match mode {
        TraceMode::Off => return,
        TraceMode::Json => event_json(e).compact(),
        TraceMode::Pretty => event_pretty(e),
    };
    let _ = writeln!(out, "{line}");
}

/// An observer callback rendering every event to **stderr** in `mode` —
/// the argument `oa tune --trace ...` hands to the tuner.
pub fn stderr_observer(mode: TraceMode) -> impl FnMut(TuneEvent) {
    move |e| emit(mode, &e, &mut std::io::stderr().lock())
}

/// Validate a captured `json`-mode trace stream (the CI check).
///
/// Checks, per tune (`begin` ... `summary`):
/// * every non-empty line parses as a JSON object with an `"event"` field;
/// * a fresh tune has exactly one span per pipeline stage;
/// * every candidate line has a terminal outcome label and, for errors, a
///   failure class;
/// * at most one `model` line per tune, inside the tune, with a known
///   mode and `evaluated + skipped = considered`;
/// * the summary's buckets add up:
///   `evaluated + pruned + errored + skipped = points` (a stream without
///   a `skipped` field — pre-model traces — counts it as zero),
///   `evaluated` = the won + lost candidate lines, skipped candidates
///   only appear when a `model` line announced the ranking, and exactly
///   one candidate won when anything was evaluated;
/// * `serve` lines (the end-of-life record of either `oa serve` mode)
///   sit between tunes, `ok + failed = completed = admitted` (the event
///   is emitted after the graceful drain), latency percentiles are
///   ordered (`p50 <= p99`), and `hits + misses` never exceeds
///   `completed` (each resolved request performs exactly one
///   program-store lookup);
/// * `native_coverage` lines (the bench harness's native-tier
///   accounting) name a routine and cannot count entries without a
///   lowered region.
///
/// Returns a short human-readable report, or the first violation.
pub fn check_stream(text: &str) -> Result<String, String> {
    const OUTCOMES: [&str; 6] = ["won", "lost", "pruned", "skipped", "degenerated", "errored"];
    let mut tunes = 0usize;
    let mut replays = 0usize;
    let mut serves = 0usize;
    let mut models = 0usize;
    let mut fuses = 0usize;
    // Per-tune accounting, reset at `begin`.
    let mut spans: Vec<String> = Vec::new();
    let mut won = 0usize;
    let mut ranked = 0usize; // won + lost
    let mut sweep_candidates = 0usize; // outcomes tied to a sweep point
    let mut degenerated_seen = 0usize;
    let mut skipped_seen = 0usize;
    let mut model_seen = false;
    let mut in_tune = false;

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        let doc = parse(line).ok_or_else(|| at(format!("not valid JSON: {line}")))?;
        let event = doc
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing `event` field".to_string()))?;
        match event {
            "begin" => {
                if in_tune {
                    return Err(at("`begin` before previous tune's `summary`".into()));
                }
                in_tune = true;
                tunes += 1;
                spans.clear();
                won = 0;
                ranked = 0;
                sweep_candidates = 0;
                degenerated_seen = 0;
                skipped_seen = 0;
                model_seen = false;
            }
            "span" => {
                let stage = doc
                    .get("stage")
                    .and_then(Json::as_str)
                    .ok_or_else(|| at("span without `stage`".into()))?;
                spans.push(stage.to_string());
            }
            "candidate" => {
                let outcome = doc
                    .get("outcome")
                    .and_then(Json::as_str)
                    .ok_or_else(|| at("candidate without `outcome`".into()))?;
                if !OUTCOMES.contains(&outcome) {
                    return Err(at(format!("unknown outcome `{outcome}`")));
                }
                if outcome == "errored" && doc.get("class").and_then(Json::as_str).is_none() {
                    return Err(at("errored candidate without `class`".into()));
                }
                match outcome {
                    "won" => {
                        won += 1;
                        ranked += 1;
                        sweep_candidates += 1;
                    }
                    "lost" => {
                        ranked += 1;
                        sweep_candidates += 1;
                    }
                    "degenerated" => degenerated_seen += 1,
                    "skipped" => {
                        skipped_seen += 1;
                        sweep_candidates += 1;
                    }
                    _ => sweep_candidates += 1,
                }
            }
            "model" => {
                if !in_tune {
                    return Err(at("`model` outside a tune".into()));
                }
                if model_seen {
                    return Err(at("more than one `model` line in a tune".into()));
                }
                model_seen = true;
                models += 1;
                let mode = doc
                    .get("mode")
                    .and_then(Json::as_str)
                    .ok_or_else(|| at("model without `mode`".into()))?;
                if !["rank", "rank+exit"].contains(&mode) {
                    return Err(at(format!("unknown model mode `{mode}`")));
                }
                let field = |k: &str| {
                    doc.get(k)
                        .and_then(Json::as_i64)
                        .ok_or_else(|| at(format!("model missing `{k}`")))
                };
                let considered = field("considered")?;
                let evaluated = field("evaluated")?;
                let skipped = field("skipped")?;
                if evaluated + skipped != considered {
                    return Err(at(format!(
                        "model buckets don't add up: {evaluated} + {skipped} != {considered}"
                    )));
                }
                if mode == "rank" && skipped != 0 {
                    return Err(at(format!(
                        "rank mode (no early exit) skipped {skipped} point(s)"
                    )));
                }
            }
            "summary" => {
                if !in_tune {
                    return Err(at("`summary` without `begin`".into()));
                }
                in_tune = false;
                for stage in Stage::ALL {
                    let count = spans.iter().filter(|s| *s == stage.name()).count();
                    if count != 1 {
                        return Err(at(format!(
                            "expected exactly one `{}` span, saw {count}",
                            stage.name()
                        )));
                    }
                }
                let field = |k: &str| {
                    doc.get(k)
                        .and_then(Json::as_i64)
                        .map(|v| v as usize)
                        .ok_or_else(|| at(format!("summary missing `{k}`")))
                };
                let points = field("points")?;
                let evaluated = field("evaluated")?;
                let pruned = field("pruned")?;
                let errored = field("errored")?;
                let degenerated = field("degenerated")?;
                // Pre-model traces have no `skipped` field: count zero.
                let skipped = doc
                    .get("skipped")
                    .and_then(Json::as_i64)
                    .map_or(0, |v| v as usize);
                if evaluated + pruned + errored + skipped != points {
                    return Err(at(format!(
                        "summary buckets don't add up: \
                         {evaluated} + {pruned} + {errored} + {skipped} != {points}"
                    )));
                }
                if evaluated != ranked {
                    return Err(at(format!(
                        "summary says {evaluated} evaluated but stream ranked {ranked}"
                    )));
                }
                if sweep_candidates != points {
                    return Err(at(format!(
                        "{points} sweep points but {sweep_candidates} candidate outcomes"
                    )));
                }
                if degenerated != degenerated_seen {
                    return Err(at(format!(
                        "summary says {degenerated} degenerated but stream has {degenerated_seen}"
                    )));
                }
                if skipped != skipped_seen {
                    return Err(at(format!(
                        "summary says {skipped} skipped but stream has {skipped_seen}"
                    )));
                }
                if skipped_seen > 0 && !model_seen {
                    return Err(at(format!(
                        "{skipped_seen} skipped candidate(s) with no `model` line"
                    )));
                }
                if evaluated > 0 && won != 1 {
                    return Err(at(format!("expected exactly one winner, saw {won}")));
                }
            }
            "replayed" => replays += 1,
            "cache" => {}
            "fuse" => {
                fuses += 1;
                doc.get("shape")
                    .and_then(Json::as_str)
                    .ok_or_else(|| at("fuse without `shape`".into()))?;
                let field = |k: &str| {
                    doc.get(k)
                        .and_then(Json::as_i64)
                        .ok_or_else(|| at(format!("fuse missing `{k}`")))
                };
                let nodes = field("nodes")?;
                let units = field("units")?;
                let edges = |k: &str| -> Result<i64, String> {
                    let arr = doc
                        .get(k)
                        .and_then(Json::as_arr)
                        .ok_or_else(|| at(format!("fuse missing `{k}` array")))?;
                    for e in arr {
                        for f in ["producer", "consumer"] {
                            e.get(f)
                                .and_then(Json::as_str)
                                .ok_or_else(|| at(format!("fuse `{k}` edge without `{f}`")))?;
                        }
                    }
                    Ok(arr.len() as i64)
                };
                let fused = edges("fused")?;
                edges("rejected")?;
                // Every fused edge collapses two nodes into one unit;
                // everything else runs as a single.
                if units + fused != nodes {
                    return Err(at(format!(
                        "fuse accounting broken: {units} units + {fused} fused edges != {nodes} nodes"
                    )));
                }
                if units == 0 || nodes == 0 {
                    return Err(at("fuse event for an empty DAG".into()));
                }
            }
            "native_coverage" => {
                doc.get("routine")
                    .and_then(Json::as_str)
                    .ok_or_else(|| at("native_coverage without `routine`".into()))?;
                let field = |k: &str| {
                    doc.get(k)
                        .and_then(Json::as_i64)
                        .ok_or_else(|| at(format!("native_coverage missing `{k}`")))
                };
                let regions = field("regions")?;
                let entries = field("entries")?;
                if regions == 0 && entries > 0 {
                    return Err(at(format!(
                        "native_coverage counts {entries} entries with no lowered region"
                    )));
                }
                let loop_records = field("loop_records")?;
                let instances = field("instances")?;
                if loop_records > instances {
                    return Err(at(format!(
                        "native_coverage counts {loop_records} loop records but only \
                         {instances} instances"
                    )));
                }
            }
            "serve" => {
                if in_tune {
                    return Err(at("`serve` inside a tune (before its `summary`)".into()));
                }
                serves += 1;
                let field = |k: &str| {
                    doc.get(k)
                        .and_then(Json::as_i64)
                        .ok_or_else(|| at(format!("serve missing `{k}`")))
                };
                let admitted = field("admitted")?;
                let completed = field("completed")?;
                let ok = field("ok")?;
                let failed = field("failed")?;
                let hits = field("hits")?;
                let misses = field("misses")?;
                if ok + failed != completed {
                    return Err(at(format!(
                        "serve buckets don't add up: {ok} + {failed} != {completed}"
                    )));
                }
                if admitted != completed {
                    return Err(at(format!(
                        "serve emitted before drain: {admitted} admitted, {completed} completed"
                    )));
                }
                if hits + misses > completed {
                    return Err(at(format!(
                        "serve counts {hits} hits + {misses} misses for {completed} completed"
                    )));
                }
                let num = |k: &str| {
                    doc.get(k)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| at(format!("serve missing `{k}`")))
                };
                let p50 = num("p50_ms")?;
                let p99 = num("p99_ms")?;
                if p50 > p99 {
                    return Err(at(format!(
                        "serve latency percentiles out of order: p50 {p50} > p99 {p99}"
                    )));
                }
            }
            other => return Err(at(format!("unknown event `{other}`"))),
        }
    }
    if in_tune {
        return Err("stream ends inside a tune (no terminal `summary`)".to_string());
    }
    if tunes == 0 && replays == 0 && serves == 0 {
        return Err("stream contains no `begin`, `replayed` or `serve` event".to_string());
    }
    Ok(format!(
        "trace ok: {tunes} tune(s), {replays} replay(s), {serves} serve(s), \
         {models} model ranking(s), {fuses} fuse plan(s), \
         every candidate terminal"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_autotune::tune_fresh_observed;
    use oa_blas3::types::{RoutineId, Trans};
    use oa_gpusim::DeviceSpec;

    #[test]
    fn mode_parsing() {
        assert_eq!(TraceMode::parse("json"), Some(TraceMode::Json));
        assert_eq!(TraceMode::parse("PRETTY"), Some(TraceMode::Pretty));
        assert_eq!(TraceMode::parse("off"), Some(TraceMode::Off));
        assert_eq!(TraceMode::parse("bogus"), None);
    }

    /// A real tune's JSON stream is well-formed end to end: every line
    /// parses, every stage has a span, every candidate is terminal —
    /// exactly what the CI step asserts on the shipped binary.
    #[test]
    fn real_tune_stream_passes_check() {
        let dev = DeviceSpec::gtx285();
        let mut buf: Vec<u8> = Vec::new();
        tune_fresh_observed(RoutineId::Gemm(Trans::N, Trans::N), &dev, 512, &mut |e| {
            emit(TraceMode::Json, &e, &mut buf)
        })
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().count() > 5);
        let report = check_stream(&text).unwrap();
        assert!(report.contains("trace ok"), "{report}");
    }

    #[test]
    fn check_rejects_malformed_streams() {
        assert!(check_stream("not json\n").is_err());
        assert!(check_stream("{\"event\":\"nope\"}\n").is_err());
        // A tune with no summary.
        let begin =
            r#"{"event":"begin","routine":"GEMM-NN","device":"d","n":512,"engine":"bytecode"}"#;
        assert!(check_stream(&format!("{begin}\n")).is_err());
        // Missing spans.
        let summary = r#"{"event":"summary","variants":1,"points":0,"evaluated":0,"pruned":0,"degenerated":0,"errored":0,"winner_gflops":null}"#;
        assert!(check_stream(&format!("{begin}\n{summary}\n"))
            .unwrap_err()
            .contains("span"));
        // Empty stream.
        assert!(check_stream("").is_err());
    }

    /// A ranked tune's stream — with a `model` line and `skipped`
    /// candidates — renders and validates; broken model accounting is
    /// rejected.
    #[test]
    fn model_events_render_and_validate() {
        use oa_autotune::model::{CostModel, ModelMode};
        use oa_autotune::tuner::{sweep_samples, tune_fresh_modeled, ModelCtx};
        use std::sync::Arc;

        let dev = DeviceSpec::gtx285();
        let r = RoutineId::Gemm(Trans::N, Trans::N);
        let engine = oa_gpusim::select_engine();
        let samples = sweep_samples(engine, r, &dev, 512).unwrap();
        let model = Arc::new(CostModel::train(&samples, 3));
        let ctx = ModelCtx::with_model(ModelMode::RankExit, model);
        let mut buf: Vec<u8> = Vec::new();
        tune_fresh_modeled(engine, r, &dev, 512, &ctx, &mut |e| {
            emit(TraceMode::Json, &e, &mut buf)
        })
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"event\":\"model\""));
        assert!(text.contains("\"mode\":\"rank+exit\""));
        let report = check_stream(&text).unwrap();
        assert!(report.contains("1 model ranking(s)"), "{report}");

        // Tearing the model's accounting must be caught...
        let model_line = text
            .lines()
            .find(|l| l.contains("\"event\":\"model\""))
            .unwrap();
        let considered: i64 = oa_autotune::json::parse(model_line)
            .unwrap()
            .get("considered")
            .and_then(Json::as_i64)
            .unwrap();
        let bad = text.replace(
            &format!("\"considered\":{considered}"),
            &format!("\"considered\":{}", considered + 1),
        );
        assert!(check_stream(&bad).unwrap_err().contains("add up"));
        // ...a duplicated model line too...
        let bad = text.replace(
            &format!("{model_line}\n"),
            &format!("{model_line}\n{model_line}\n"),
        );
        assert!(check_stream(&bad)
            .unwrap_err()
            .contains("more than one `model`"));
        // ...and `rank` mode (no early exit) may not report skips.
        if text.contains("\"outcome\":\"skipped\"") {
            let bad = text.replace("\"mode\":\"rank+exit\"", "\"mode\":\"rank\"");
            assert!(check_stream(&bad).unwrap_err().contains("rank mode"));
        }
    }

    #[test]
    fn serve_events_render_and_validate() {
        use oa_autotune::report::ServeStats;
        let stats = ServeStats {
            admitted: 32,
            completed: 32,
            ok: 30,
            failed: 2,
            rejected: 4,
            clamped: 6,
            p50_ms: 1.2,
            p99_ms: 9.5,
            hits: 28,
            misses: 4,
            tenants: 3,
            wall_ms: 250.0,
        };
        let e = TuneEvent::Serve(stats);
        let line = event_json(&e).compact();
        assert!(line.contains("\"event\":\"serve\""));
        assert!(line.contains("\"admitted\":32"));
        assert!(line.contains("\"rejected\":4"));
        let pretty = event_pretty(&e);
        assert!(pretty.contains("32 admitted"));
        assert!(pretty.contains("4 rejected"));

        // A serve-only stream is a valid trace (the server smoke path).
        let report = check_stream(&format!("{line}\n")).unwrap();
        assert!(report.contains("1 serve(s)"), "{report}");

        // ok + failed must equal completed...
        let bad = line.replace("\"ok\":30", "\"ok\":31");
        assert!(check_stream(&bad).unwrap_err().contains("add up"));
        // ...the event is post-drain, so admitted == completed...
        let bad = line.replace("\"admitted\":32", "\"admitted\":33");
        assert!(check_stream(&bad).unwrap_err().contains("drain"));
        // ...percentiles are ordered...
        let bad = line.replace("\"p50_ms\":1.2", "\"p50_ms\":99.0");
        assert!(check_stream(&bad).unwrap_err().contains("percentiles"));
        // ...and lookups never exceed completed requests.
        let bad = line.replace("\"hits\":28", "\"hits\":280");
        assert!(check_stream(&bad).unwrap_err().contains("hits"));

        // A one-shot run whose every line was refused (parse errors never
        // reach admission) is a valid record too.
        let refused = ServeStats {
            rejected: 3,
            ..ServeStats::default()
        };
        let refused = event_json(&TuneEvent::Serve(refused)).compact();
        assert!(check_stream(&format!("{refused}\n")).is_ok());
        // The retired per-run `batch` record is no longer a known event.
        let batch = r#"{"event":"batch","requests":1,"ok":1,"failed":0,"hits":1,"misses":0}"#;
        assert!(check_stream(batch).unwrap_err().contains("unknown event"));

        // A serve line inside an open tune is malformed.
        let begin =
            r#"{"event":"begin","routine":"GEMM-NN","device":"d","n":512,"engine":"bytecode"}"#;
        assert!(check_stream(&format!("{begin}\n{line}\n"))
            .unwrap_err()
            .contains("inside a tune"));
    }

    #[test]
    fn native_coverage_events_render_and_validate() {
        let e = TuneEvent::NativeCoverage(oa_autotune::report::NativeCoverageStats {
            routine: "TRMM-LL-N".into(),
            regions: 1,
            entries: 4,
            fallbacks: 0,
            loop_records: 3,
            instances: 48,
            two_level_records: 2,
            triangular_records: 1,
            bulk_moves: 5,
            element_moves: 1,
            fallback_reasons: vec![("move-guard-cut".into(), 1)],
            rejects: vec![("store-shape".into(), 2)],
        });
        let line = event_json(&e).compact();
        assert!(line.contains("\"event\":\"native_coverage\""));
        assert!(line.contains("\"entries\":4"));
        assert!(line.contains("\"loop_records\":3"));
        assert!(line.contains("\"two_level_records\":2"));
        assert!(line.contains("\"triangular_records\":1"));
        assert!(line.contains("\"bulk_moves\":5"));
        assert!(line.contains("\"element_moves\":1"));
        assert!(line.contains("\"fallback_reasons\":{\"move-guard-cut\":1}"));
        assert!(event_pretty(&e).contains(
            "3 loop records (2 two-level, 1 triangular), 48 instances, 5 bulk / 1 element moves"
        ));
        assert!(line.contains("\"store-shape\":2"));
        assert!(event_pretty(&e).contains("store-shape×2"));

        // Standalone coverage lines pass alongside a serve event …
        let serve = event_json(&TuneEvent::Serve(Default::default())).compact();
        assert!(check_stream(&format!("{serve}\n{line}\n")).is_ok());
        // … but entries without any lowered region are a violation.
        let bad = line.replace("\"regions\":1", "\"regions\":0");
        assert!(check_stream(&format!("{serve}\n{bad}\n"))
            .unwrap_err()
            .contains("no lowered region"));
        // A loop record replays at least one instance.
        let bad = line.replace("\"instances\":48", "\"instances\":2");
        assert!(check_stream(&format!("{serve}\n{bad}\n"))
            .unwrap_err()
            .contains("loop records"));
    }

    #[test]
    fn pretty_lines_name_the_outcome() {
        let e = TuneEvent::Candidate(oa_autotune::report::CandidateOutcome {
            script: Some(2),
            params: None,
            fate: oa_autotune::report::CandidateFate::Errored {
                stage: Stage::Translate,
                class: "translate/component:peel".into(),
                reason: "no k tiling".into(),
            },
            gflops: None,
        });
        let line = event_pretty(&e);
        assert!(line.contains("errored"));
        assert!(line.contains("translate/component:peel"));
        let json = event_json(&e).compact();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"outcome\":\"errored\""));
    }
}
