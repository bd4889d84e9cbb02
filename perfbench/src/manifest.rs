//! Reading `BENCHMARK.json`, the single list of the benchmark's workloads,
//! metrics, units and bounds.

use oa_core::autotune::json::{self, Json};
use std::path::Path;

/// One declared metric: its name and unit.
pub struct Metric {
    /// Metric name as printed.
    pub name: String,
    /// Unit.
    pub unit: String,
}

/// The parsed manifest.
pub struct Manifest {
    /// Metrics an untraced run reports.
    pub end_to_end: Vec<Metric>,
    /// Metrics a traced run reports.
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a `{key}` metric has no `{f}`"))
            };
            Ok(Metric {
                name: field("name")?,
                unit: field("unit")?,
            })
        })
        .collect()
}

/// Parse the manifest text.
pub fn parse(text: &str) -> Result<Manifest, String> {
    let doc = json::parse(text).ok_or("BENCHMARK.json is not valid JSON")?;
    Ok(Manifest {
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

/// Read and parse the manifest at `path`.
pub fn load(path: &Path) -> Result<Manifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    const COMMITTED: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn the_committed_manifest_keeps_the_contract_limits() {
        assert!(COMMITTED.len() < 64 * 1024);
        let doc = json::parse(COMMITTED).expect("valid JSON");
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
        let m = parse(COMMITTED).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for x in m.end_to_end.iter().chain(&m.per_layer) {
            assert!(seen.insert(x.name.clone()), "{} declared twice", x.name);
            assert!(x.name.len() <= 64 && x.unit.len() <= 16);
        }
        let bounds: Vec<(String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                let name = e.get("name").and_then(Json::as_str).unwrap().to_string();
                (name, e.get("bound").and_then(Json::as_f64).unwrap())
            })
            .collect();
        let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap().1;
        for (name, b) in &bounds {
            assert!(*b > 0.0 && *b <= 0.25 && *b <= setup, "{name}: bound {b}");
        }
    }
}
