//! The closed-loop request stream: a deterministic function of the run
//! seed and the connection index.
//!
//! The stream is built from rounds.  A round holds a workload's single
//! kinds and DAG kinds in fixed proportion, shuffled by the seed, so the
//! mix over any window is the same for every seed and only the order and
//! the input seeds change.  Each slot of a round is one request.  Input
//! seeds come from a small per-run pool, so a `(kind, seed)` pair repeats
//! within a run (the digest-identity check needs repeats) and the number
//! of distinct DAG requests the output check re-runs unfused stays small.

use crate::spec::{Kind, Workload, CONNECTIONS, DAG_SHAPES, SEED_POOL, TENANTS};

/// SplitMix64: small, fast, and owned by the benchmark, so the stream
/// never changes when the program's own generators do.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// One request: a unit kind (index into the workload's kinds), its input
/// seed and its tenant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unit {
    /// Index into `Workload::kinds`.
    pub kind: usize,
    /// Input-generation seed.
    pub seed: u64,
    /// Tenant index (`t0`..`t3`).
    pub tenant: usize,
}

/// The first input seed of a run: every unit's seed is this plus a value
/// below [`SEED_POOL`].
pub fn seed_base(run_seed: u64) -> u64 {
    // Keep it well inside a non-negative JSON integer.
    (Rng::new(run_seed ^ 0x5EED_BA5E).next_u64() >> 24) * SEED_POOL
}

/// A cycle over a set of kind indices, reshuffled each time it wraps.
#[derive(Clone, Debug)]
struct Cycle {
    order: Vec<usize>,
    pos: usize,
}

impl Cycle {
    fn new(kinds: Vec<usize>) -> Cycle {
        let pos = kinds.len();
        Cycle { order: kinds, pos }
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.pos == self.order.len() {
            rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// One connection's infinite request stream.
#[derive(Clone, Debug)]
pub struct Stream {
    rng: Rng,
    singles: Cycle,
    dags: Cycle,
    /// The current round's slots (`true` = a DAG slot), consumed from the back.
    slots: Vec<bool>,
    singles_per_round: usize,
    dags_per_round: usize,
    base: u64,
    conn: usize,
    drawn: usize,
}

impl Stream {
    /// Connection `conn`'s stream for workload `w` under `run_seed`.
    pub fn new(w: &Workload, run_seed: u64, conn: usize) -> Stream {
        let (dag_kinds, single_kinds): (Vec<usize>, Vec<usize>) =
            (0..w.kinds.len()).partition(|&i| w.kinds[i].is_dag());
        Stream {
            rng: Rng::new(run_seed.wrapping_mul(0x100_0000_01B3) ^ (conn as u64 + 1)),
            singles: Cycle::new(single_kinds),
            dags: Cycle::new(dag_kinds),
            slots: Vec::new(),
            singles_per_round: w.singles_per_round,
            dags_per_round: w.dags_per_round,
            base: seed_base(run_seed),
            conn,
            drawn: 0,
        }
    }

    /// The next request.
    pub fn next_unit(&mut self) -> Unit {
        if self.slots.is_empty() {
            self.slots = std::iter::repeat_n(false, self.singles_per_round)
                .chain(std::iter::repeat_n(true, self.dags_per_round))
                .collect();
            self.rng.shuffle(&mut self.slots);
        }
        let is_dag = self.slots.pop().expect("a round has at least one slot");
        let kind = if is_dag {
            self.dags.next(&mut self.rng)
        } else {
            self.singles.next(&mut self.rng)
        };
        let tenant = (self.drawn * CONNECTIONS + self.conn) % TENANTS;
        self.drawn += 1;
        Unit {
            kind,
            seed: self.base + self.rng.below(SEED_POOL as usize) as u64,
            tenant,
        }
    }
}

/// The warm-up pass: every kind once, in catalog order, on the first seed.
pub fn warmup_units(w: &Workload, run_seed: u64) -> Vec<Unit> {
    let base = seed_base(run_seed);
    (0..w.kinds.len())
        .map(|kind| Unit {
            kind,
            seed: base,
            tenant: kind % TENANTS,
        })
        .collect()
}

/// The JSONL request line `oa serve` reads for `unit`.
pub fn request_line(w: &Workload, unit: &Unit) -> String {
    let tenant = unit.tenant;
    match &w.kinds[unit.kind] {
        Kind::Single { routine, n } => format!(
            r#"{{"routine":"{routine}","n":{n},"seed":{},"tenant":"t{tenant}"}}"#,
            unit.seed
        ),
        Kind::Dag { shape, n } => format!(
            r#"{{"dag":{},"n":{n},"seed":{},"tenant":"t{tenant}"}}"#,
            DAG_SHAPES[*shape].1, unit.seed
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    fn lines(name: &str, seed: u64, conn: usize, count: usize) -> Vec<String> {
        let w = workload(name).unwrap();
        let mut s = Stream::new(&w, seed, conn);
        (0..count)
            .map(|_| request_line(&w, &s.next_unit()))
            .collect()
    }

    #[test]
    fn the_stream_is_a_function_of_the_seed() {
        for name in ["serve_small", "serve_large"] {
            assert_eq!(lines(name, 7, 0, 500), lines(name, 7, 0, 500));
            assert_ne!(lines(name, 7, 0, 500), lines(name, 8, 0, 500));
            assert_ne!(lines(name, 7, 0, 500), lines(name, 7, 1, 500));
        }
    }

    #[test]
    fn every_line_is_a_request_the_server_parses() {
        let w = workload("serve_large").unwrap();
        for line in lines("serve_large", 3, 1, 40) {
            let doc = oa_core::autotune::json::parse(&line).expect("valid JSON");
            if doc.get("dag").is_some() {
                oa_core::DagRequest::from_json(&doc).expect("valid DAG");
            } else {
                oa_core::Request::from_json(&doc).expect("valid request");
            }
        }
        assert_eq!(warmup_units(&w, 3).len(), w.kinds.len());
    }

    #[test]
    fn the_mix_is_the_same_for_every_seed() {
        // Each round of serve_small sends every kind exactly once.
        let w = workload("serve_small").unwrap();
        for seed in [1, 2, 99] {
            let mut s = Stream::new(&w, seed, 0);
            let mut seen = vec![0usize; w.kinds.len()];
            for _ in 0..w.kinds.len() {
                seen[s.next_unit().kind] += 1;
            }
            assert!(seen.iter().all(|&c| c == 1), "seed {seed}: {seen:?}");
        }
        // serve_large: exactly one unit in four is a DAG.
        let w = workload("serve_large").unwrap();
        let mut s = Stream::new(&w, 5, 0);
        let dags = (0..400)
            .filter(|_| w.kinds[s.next_unit().kind].is_dag())
            .count();
        assert_eq!(dags, 100);
    }

    #[test]
    fn seeds_repeat_within_a_run() {
        let w = workload("serve_small").unwrap();
        let mut s = Stream::new(&w, 11, 0);
        let base = seed_base(11);
        let units: Vec<Unit> = (0..300).map(|_| s.next_unit()).collect();
        assert!(units
            .iter()
            .all(|u| (base..base + SEED_POOL).contains(&u.seed)));
        let mut pairs: Vec<(usize, u64)> = units.iter().map(|u| (u.kind, u.seed)).collect();
        let total = pairs.len();
        pairs.sort();
        pairs.dedup();
        assert!(pairs.len() < total, "no (kind, seed) pair repeated");
    }
}
