//! The two workloads: what each one generates, sends and measures.
//!
//! Every workload runs the same pipeline — generate its library from an
//! empty tuning cache, spawn `oa serve` against the persisted cache and
//! time its warm-up, serve a closed-loop window — and differs in its mix:
//!
//! * `serve_small` — all 24 routines at n ∈ {16, 32, 48} (TRSM at its
//!   64-wide solver tile) from four tenants.  Warm requests execute in
//!   well under a millisecond, so admission, coalescing, JSONL and the
//!   socket dominate.  Its library is the cold library: the 24 routines
//!   at class 64 and the three DAG shapes at n = 64.
//! * `serve_large` — eight routines at n = 128, one unit in four a DAG
//!   (GEMM-NN→ADD, SYMM-LL→ADD, SYRK→TRSM-LL-N at n = 64 and 128).
//!   Execution dominates.

use oa_core::RoutineId;

/// Every routine the registry serves, in catalog order.
pub const ROUTINES: [&str; 24] = [
    "GEMM-NN",
    "GEMM-NT",
    "GEMM-TN",
    "GEMM-TT",
    "SYMM-LL",
    "SYMM-LU",
    "SYMM-RL",
    "SYMM-RU",
    "TRMM-LL-N",
    "TRMM-LL-T",
    "TRMM-LU-N",
    "TRMM-LU-T",
    "TRMM-RL-N",
    "TRMM-RL-T",
    "TRMM-RU-N",
    "TRMM-RU-T",
    "TRSM-LL-N",
    "TRSM-LL-T",
    "TRSM-LU-N",
    "TRSM-LU-T",
    "TRSM-RL-N",
    "TRSM-RL-T",
    "TRSM-RU-N",
    "TRSM-RU-T",
];

/// The routines `serve_large` sends at n = 128.
const LARGE_ROUTINES: [&str; 8] = [
    "GEMM-NN",
    "GEMM-TN",
    "SYMM-LL",
    "SYMM-RU",
    "TRMM-LL-N",
    "TRMM-RU-T",
    "TRSM-LL-N",
    "TRSM-RU-T",
];

/// The three DAG shapes, as the JSON `dag` arrays `oa serve` accepts.
pub const DAG_SHAPES: [(&str, &str); 3] = [
    (
        "GEMM-NN>ADD",
        r#"[{"id":"mm","routine":"GEMM-NN","a":"A","b":"B","c":"C"},{"id":"sum","routine":"ADD","a":"@mm","b":"E"}]"#,
    ),
    (
        "SYMM-LL>ADD",
        r#"[{"id":"sy","routine":"SYMM-LL","a":"A","b":"B","c":"C"},{"id":"sum","routine":"ADD","a":"@sy","b":"E"}]"#,
    ),
    (
        "SYRK>TRSM-LL-N",
        r#"[{"id":"rk","routine":"SYRK","a":"F","c":"S"},{"id":"tri","routine":"TRSM-LL-N","a":"L","b":"@rk"}]"#,
    ),
];

/// The routines the DAG shapes' nodes resolve to (SYRK is GEMM-NT with
/// `b = a`); their exact-size tuning records serve the DAG singles.
pub const DAG_NODE_ROUTINES: [&str; 5] = ["GEMM-NN", "ADD", "SYMM-LL", "GEMM-NT", "TRSM-LL-N"];

/// One kind of unit a workload sends: a routine call or a DAG, at a size.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// A single routine request.
    Single {
        /// Routine name (`RoutineId::parse` syntax).
        routine: &'static str,
        /// Problem size.
        n: i64,
    },
    /// An expression-DAG request.
    Dag {
        /// Index into [`DAG_SHAPES`].
        shape: usize,
        /// Problem size.
        n: i64,
    },
}

impl Kind {
    /// A stable label, e.g. `GEMM-NN@32` or `dag:SYRK>TRSM-LL-N@64`.
    pub fn label(&self) -> String {
        match self {
            Kind::Single { routine, n } => format!("{routine}@{n}"),
            Kind::Dag { shape, n } => format!("dag:{}@{n}", DAG_SHAPES[*shape].0),
        }
    }

    /// Whether this is a DAG unit.
    pub fn is_dag(&self) -> bool {
        matches!(self, Kind::Dag { .. })
    }
}

/// What the library phase generates from an empty cache.
#[derive(Clone, Debug)]
pub struct Library {
    /// Routines resolved through the registry, with the size each is
    /// resolved at (the registry tunes per size class).
    pub registry: Vec<(&'static str, i64)>,
    /// `(routine, n)` tuned at their exact size with the tuner's cached
    /// entry point — the DAG runner's single-node resolutions.
    pub exact: Vec<(&'static str, i64)>,
    /// DAG kinds run through `Registry::run_dag` (fusion plans included).
    pub dags: Vec<Kind>,
}

/// A named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name (the `--workload` argument).
    pub name: &'static str,
    /// Every unit kind of the serving mix (the warm-up pass sends each once).
    pub kinds: Vec<Kind>,
    /// Single kinds per stream round (the rest of a round are DAG kinds).
    pub singles_per_round: usize,
    /// DAG kinds per stream round.
    pub dags_per_round: usize,
    /// Requests each connection keeps in flight.
    pub window: usize,
    /// Serving spawns: each is timed to the end of its single kinds'
    /// warm-up, warms its DAG kinds, then serves an equal slice of the
    /// measured window.
    pub spawns: usize,
    /// Set-up-only spawns (warm-up of the single kinds, then shutdown)
    /// before each serving spawn, for more set-up samples.
    pub setup_probes: usize,
    /// The library the generator builds from an empty cache.
    pub library: Library,
}

/// Client connections (and client threads): the host's two CPUs.
pub const CONNECTIONS: usize = 2;
/// Tenants the stream bills its units to.
pub const TENANTS: usize = 4;
/// Distinct input seeds per unit kind in one run, so repeats occur and the
/// output check re-runs few distinct DAG requests.
pub const SEED_POOL: u64 = 4;

fn singles(routines: &[&'static str], sizes: &[i64]) -> Vec<Kind> {
    let mut out = Vec::new();
    for &routine in routines {
        let is_trsm = routine.starts_with("TRSM");
        for &n in sizes {
            // The solvers serialize along a 64-wide column tile and
            // reject other sizes at admission.
            if is_trsm && n % 64 != 0 {
                continue;
            }
            out.push(Kind::Single { routine, n });
        }
        if is_trsm && sizes.iter().all(|n| n % 64 != 0) {
            out.push(Kind::Single { routine, n: 64 });
        }
    }
    out
}

fn dags(sizes: &[i64]) -> Vec<Kind> {
    let mut out = Vec::new();
    for shape in 0..DAG_SHAPES.len() {
        for &n in sizes {
            out.push(Kind::Dag { shape, n });
        }
    }
    out
}

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    match name {
        "serve_small" => {
            let kinds = singles(&ROUTINES, &[16, 32, 48]);
            Some(Workload {
                name: "serve_small",
                singles_per_round: kinds.len(),
                dags_per_round: 0,
                kinds,
                window: 16,
                spawns: 6,
                setup_probes: 1,
                library: Library {
                    registry: ROUTINES.iter().map(|&r| (r, 64)).collect(),
                    exact: Vec::new(),
                    dags: dags(&[64]),
                },
            })
        }
        "serve_large" => {
            let mut kinds = singles(&LARGE_ROUTINES, &[128]);
            kinds.extend(dags(&[64, 128]));
            let mut exact = Vec::new();
            for n in [64, 128] {
                for &r in &DAG_NODE_ROUTINES {
                    exact.push((r, n));
                }
            }
            Some(Workload {
                name: "serve_large",
                kinds,
                // One unit in four is a DAG.
                singles_per_round: 6,
                dags_per_round: 2,
                window: 6,
                spawns: 2,
                setup_probes: 5,
                library: Library {
                    registry: LARGE_ROUTINES.iter().map(|&r| (r, 128)).collect(),
                    exact,
                    dags: Vec::new(),
                },
            })
        }
        _ => None,
    }
}

/// Every workload name.
pub const WORKLOADS: [&str; 2] = ["serve_small", "serve_large"];

/// Parse a routine name the catalog is known to contain.
pub fn routine_id(name: &str) -> RoutineId {
    RoutineId::parse(name).unwrap_or_else(|| panic!("routine `{name}` is not in the catalog"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_resolves_and_names_known_routines() {
        for name in WORKLOADS {
            let w = workload(name).expect("known workload");
            assert_eq!(w.name, name);
            assert!(!w.kinds.is_empty());
            for k in &w.kinds {
                if let Kind::Single { routine, n } = k {
                    routine_id(routine);
                    if routine.starts_with("TRSM") {
                        assert_eq!(n % 64, 0, "{}", k.label());
                    }
                }
            }
            for (r, _) in w.library.registry.iter().chain(&w.library.exact) {
                routine_id(r);
            }
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn serve_small_covers_all_routines_and_large_is_one_dag_in_four() {
        let small = workload("serve_small").unwrap();
        // 16 non-solvers at three sizes plus 8 solvers at 64.
        assert_eq!(small.kinds.len(), 16 * 3 + 8);
        let large = workload("serve_large").unwrap();
        assert_eq!(large.kinds.iter().filter(|k| k.is_dag()).count(), 6);
        assert_eq!(
            large.dags_per_round * 4,
            large.singles_per_round + large.dags_per_round
        );
    }
}
