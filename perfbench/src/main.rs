//! `perfbench` — the repository benchmark of OA, end to end and layer by
//! layer.  `perfbench/run.py` builds it with the `oa` program and runs it;
//! see `perfbench/README.md`.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --oa PATH --state DIR --manifest PATH [--rev REV]
//! perfbench lib   --workload W --cache PATH --trace 0|1 [--spans PATH]   (library generation child)
//! perfbench probe --workload W --cache PATH --seed N [--spans PATH]      (traced layer probe child)
//! ```

mod check;
mod library;
mod manifest;
mod run;
mod server;
mod spans;
mod spec;
mod stats;
mod stream;

use oa_core::autotune::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// `--flag value` pairs after the mode word.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{k}`"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        out.insert(key.to_string(), v.clone());
    }
    Ok(out)
}

fn need<'a>(f: &'a BTreeMap<String, String>, k: &str) -> Result<&'a str, String> {
    f.get(k)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{k}"))
}

fn workload_arg(f: &BTreeMap<String, String>) -> Result<spec::Workload, String> {
    let name = need(f, "workload")?;
    spec::workload(name)
        .ok_or_else(|| format!("unknown workload `{name}` (one of {:?})", spec::WORKLOADS))
}

fn parse_u64(f: &BTreeMap<String, String>, k: &str) -> Result<u64, String> {
    need(f, k)?
        .parse()
        .map_err(|_| format!("--{k} must be a whole number"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("run") => flags(&argv[1..]).and_then(|f| cmd_run(&f)),
        Some("lib") => flags(&argv[1..]).and_then(|f| {
            let w = workload_arg(&f)?;
            let rep = library::generate(
                &w,
                &PathBuf::from(need(&f, "cache")?),
                need(&f, "trace")? == "1",
                f.get("spans").map(PathBuf::from).as_deref(),
            );
            println!("{}", rep.to_json());
            Ok(0)
        }),
        Some("probe") => flags(&argv[1..]).and_then(|f| {
            let w = workload_arg(&f)?;
            let rep = library::probe(
                &w,
                &PathBuf::from(need(&f, "cache")?),
                parse_u64(&f, "seed")?,
                f.get("spans").map(PathBuf::from).as_deref(),
            );
            println!("{}", rep.to_json());
            Ok(0)
        }),
        _ => {
            Err("usage: perfbench run|lib|probe --flag value ... (see perfbench/README.md)".into())
        }
    };
    match code {
        Ok(c) => std::process::exit(c),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// One benchmark run: print the report, then the result object as the
/// last stdout line.  A run that cannot measure exits non-zero without a
/// result.
fn cmd_run(f: &BTreeMap<String, String>) -> Result<i32, String> {
    let a = run::Args {
        workload: workload_arg(f)?.name.to_string(),
        seed: parse_u64(f, "seed")?,
        seconds: parse_u64(f, "seconds")? as f64,
        trace: match need(f, "trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        oa: PathBuf::from(need(f, "oa")?),
        state: PathBuf::from(need(f, "state")?),
        rev: f.get("rev").cloned().unwrap_or_else(|| "unknown".into()),
    };
    let manifest = manifest::load(&PathBuf::from(need(f, "manifest")?))?;
    std::fs::create_dir_all(&a.state).map_err(|e| format!("{}: {e}", a.state.display()))?;
    let out = run::run(&a)?;

    let declared = if a.trace {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    let mut metrics = BTreeMap::new();
    for m in declared {
        let v = *out
            .metrics
            .get(&m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        metrics.insert(
            m.name.clone(),
            Json::Obj(BTreeMap::from([
                ("value".to_string(), Json::Num(v)),
                ("unit".to_string(), Json::Str(m.unit.clone())),
            ])),
        );
        println!("{:<28} {:>16.6} {}", m.name, v, m.unit);
    }
    if a.trace {
        println!("per-layer self time ({}, seed {}):", a.workload, a.seed);
        println!(
            "{:<16} {:>7} {:>12} {:>12}",
            "layer", "spans", "total ms", "self ms"
        );
        let mut rows: Vec<_> = out.table.iter().collect();
        rows.sort_by(|x, y| y.1 .2.total_cmp(&x.1 .2));
        for (name, (n, total, own)) in rows {
            println!("{name:<16} {n:>7} {total:>12.3} {own:>12.3}");
        }
    }
    for fail in &out.failures {
        println!("FAILED: {fail}");
    }
    println!("provenance {}", Json::Obj(out.provenance).compact());
    let result = Json::Obj(BTreeMap::from([
        ("correct".to_string(), Json::Bool(out.failures.is_empty())),
        ("attempted".to_string(), Json::Int(out.attempted as i64)),
        ("failed".to_string(), Json::Int(out.failures.len() as i64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]));
    println!("{}", result.compact());
    Ok(0)
}
