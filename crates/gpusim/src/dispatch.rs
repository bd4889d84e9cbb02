//! Execution-level building blocks of the routine-dispatch layer.
//!
//! The paper's endgame (Sec. V) is a *library*: routines tuned once per
//! device and then called many times.  The registry and request types live
//! in `oa_core::dispatch` (they need the tuner and the BLAS3 routine
//! table, which sit above this crate); what belongs down here is
//! everything that touches compiled kernels:
//!
//! * [`CompiledProgram`] — one program lowered **once** through the
//!   selected [`ExecEngine`] into its ready-to-run form (tree oracle,
//!   linear bytecode, or bytecode with native regions), executable any
//!   number of times from any thread;
//! * [`Lru`] — a bounded least-recently-used store with hit/miss/eviction
//!   counters, the precompiled-program cache of the registry.
//!
//! Determinism contract: a compiled program's result depends only on
//! its inputs (never on which thread runs it or what ran before), which
//! is what makes served results bit-identical to one-at-a-time
//! execution.  The dispatch test battery (`tests/dispatch_*.rs`)
//! enforces this across engines, thread counts and LRU capacities.

use oa_loopir::interp::{Bindings, Buffers};
use oa_loopir::Program;
use std::collections::HashMap;
use std::hash::Hash;

use crate::engine::ExecEngine;
use crate::exec::ExecError;
use crate::native::NativeProgram;
use crate::ByteCode;

/// A program lowered once through one engine, ready for repeated
/// execution.  The oracle variant keeps the program tree (its "compile"
/// is free); the bytecode and native variants hold their fully resolved
/// forms, so every subsequent launch skips lowering entirely.
///
/// Variant sizes are allowed to differ: compiled programs are built
/// once, parked behind an `Arc` in the registry's LRU, and never moved
/// by value after that, so inline size is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CompiledProgram {
    /// Tree-walking oracle: interpretation happens at execute time.
    /// Boxed so the enum stays the size of its compiled siblings.
    Oracle {
        /// The program tree.
        program: Box<Program>,
        /// The bindings the program was specialized for.
        bindings: Bindings,
    },
    /// Optimized linear bytecode for the lane-vectorized interpreter.
    Bytecode(ByteCode),
    /// Bytecode annotated with native microkernel regions.
    Native(NativeProgram),
}

impl CompiledProgram {
    /// Lower `p` under `bindings` through `engine`.  Unlaunchable
    /// programs fail here for the compiled engines and at
    /// [`CompiledProgram::execute`] for the oracle — the same split the
    /// raw engines have.
    pub fn compile(
        engine: ExecEngine,
        p: &Program,
        bindings: &Bindings,
    ) -> Result<CompiledProgram, ExecError> {
        match engine {
            ExecEngine::Oracle => Ok(CompiledProgram::Oracle {
                program: Box::new(p.clone()),
                bindings: bindings.clone(),
            }),
            ExecEngine::Bytecode => ByteCode::compile(p, bindings).map(CompiledProgram::Bytecode),
            ExecEngine::Native => NativeProgram::compile(p, bindings).map(CompiledProgram::Native),
        }
    }

    /// Execute on `bufs`.  Results are bit-identical across engines for
    /// every kernel this framework generates (the engine differential
    /// invariant).
    pub fn execute(&self, bufs: &mut Buffers) -> Result<(), ExecError> {
        match self {
            CompiledProgram::Oracle { program, bindings } => {
                crate::exec::exec_program(program, bindings, bufs)
            }
            CompiledProgram::Bytecode(b) => b.execute(bufs),
            CompiledProgram::Native(np) => np.execute(bufs),
        }
    }

    /// Which engine this program was lowered for.
    pub fn engine(&self) -> ExecEngine {
        match self {
            CompiledProgram::Oracle { .. } => ExecEngine::Oracle,
            CompiledProgram::Bytecode(_) => ExecEngine::Bytecode,
            CompiledProgram::Native(_) => ExecEngine::Native,
        }
    }
}

/// Cumulative counters of one [`Lru`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl LruStats {
    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &LruStats) -> LruStats {
        LruStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

/// A bounded least-recently-used map with hit/miss/eviction accounting.
///
/// Recency is a monotone tick bumped on every hit and insert; eviction
/// scans for the stalest entry (linear in the live set — capacities here
/// are small, the values are `Arc`-shared compiled programs).  Capacity
/// `None` means unbounded.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: Option<usize>,
    tick: u64,
    entries: HashMap<K, (u64, V)>,
    stats: LruStats,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty store; `capacity` of `None` never evicts, `Some(c)`
    /// keeps at most `max(c, 1)` entries.
    pub fn new(capacity: Option<usize>) -> Self {
        Lru {
            capacity: capacity.map(|c| c.max(1)),
            tick: 0,
            entries: HashMap::new(),
            stats: LruStats::default(),
        }
    }

    /// Look up `k`, refreshing its recency; counts a hit or a miss.
    pub fn get(&mut self, k: &K) -> Option<&V> {
        match self.entries.get_mut(k) {
            Some((tick, v)) => {
                self.tick += 1;
                *tick = self.tick;
                self.stats.hits += 1;
                Some(v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) `k`, evicting the least-recently-used entry
    /// when over capacity.
    pub fn insert(&mut self, k: K, v: V) {
        self.tick += 1;
        self.entries.insert(k, (self.tick, v));
        if let Some(cap) = self.capacity {
            while self.entries.len() > cap {
                let stalest = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (tick, _))| *tick)
                    .map(|(k, _)| k.clone())
                    .expect("non-empty over-capacity LRU");
                self.entries.remove(&stalest);
                self.stats.evictions += 1;
            }
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> LruStats {
        self.stats
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry (counters survive — they are cumulative).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_counts_hits_misses_evictions() {
        let mut lru: Lru<i32, &'static str> = Lru::new(Some(2));
        assert!(lru.get(&1).is_none());
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert_eq!(lru.get(&1), Some(&"a")); // 1 is now most recent
        lru.insert(3, "c"); // evicts 2
        assert!(lru.get(&2).is_none());
        assert_eq!(lru.get(&1), Some(&"a"));
        assert_eq!(lru.get(&3), Some(&"c"));
        let s = lru.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (3, 2, 1));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_unbounded_never_evicts_and_capacity_floors_at_one() {
        let mut unbounded: Lru<u32, u32> = Lru::new(None);
        for i in 0..100 {
            unbounded.insert(i, i);
        }
        assert_eq!(unbounded.len(), 100);
        assert_eq!(unbounded.stats().evictions, 0);

        let mut tiny: Lru<u32, u32> = Lru::new(Some(0));
        tiny.insert(1, 1);
        tiny.insert(2, 2);
        assert_eq!(tiny.len(), 1, "capacity 0 behaves as 1");
    }

    #[test]
    fn lru_capacity_zero_still_serves_the_one_entry() {
        // `Some(0)` floors to one slot: every insert evicts the previous
        // entry, but the surviving entry is still retrievable and the
        // counters account for every displacement.
        let mut lru: Lru<u32, &'static str> = Lru::new(Some(0));
        lru.insert(1, "a");
        assert_eq!(lru.get(&1), Some(&"a"));
        lru.insert(2, "b");
        assert!(lru.get(&1).is_none(), "old entry displaced");
        assert_eq!(lru.get(&2), Some(&"b"));
        let s = lru.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 1, 1));
    }

    #[test]
    fn lru_repeated_same_key_insert_refreshes_not_grows() {
        let mut lru: Lru<u32, u32> = Lru::new(Some(2));
        lru.insert(1, 10);
        lru.insert(2, 20);
        // Re-inserting key 1 must replace its value in place: no growth,
        // no eviction, and key 1 becomes the most recent.
        lru.insert(1, 11);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.stats().evictions, 0);
        assert_eq!(lru.get(&1), Some(&11));
        // 2 is now the stalest: the next insert evicts it, not 1.
        lru.insert(3, 30);
        assert!(lru.get(&2).is_none());
        assert_eq!(lru.get(&1), Some(&11));
    }

    #[test]
    fn lru_eviction_order_breaks_ties_by_recency_not_key() {
        // Insert in descending key order so that, were eviction keyed on
        // the map key rather than the recency tick, the victim would
        // differ.  Recency must win: the *first-inserted* (stalest) key
        // goes first regardless of its numeric value.
        let mut lru: Lru<u32, u32> = Lru::new(Some(3));
        lru.insert(30, 0);
        lru.insert(20, 0);
        lru.insert(10, 0);
        lru.insert(40, 0); // evicts 30 (stalest), not 10 (smallest)
        assert!(lru.get(&30).is_none());
        assert_eq!(lru.get(&10), Some(&0));
        assert_eq!(lru.get(&20), Some(&0));

        // A get() refreshes recency, so the eviction victim follows use
        // order, not insertion order.
        lru.insert(50, 0); // evicts 40: 10 and 20 were just refreshed
        assert!(lru.get(&40).is_none());
        assert_eq!(lru.get(&10), Some(&0));
    }

    #[test]
    fn lru_stats_since_returns_exact_deltas() {
        let mut lru: Lru<u32, u32> = Lru::new(Some(1));
        lru.insert(1, 1);
        let _ = lru.get(&1); // hit
        let _ = lru.get(&9); // miss
        let before = lru.stats();
        assert_eq!((before.hits, before.misses, before.evictions), (1, 1, 0));

        lru.insert(2, 2); // evicts 1
        let _ = lru.get(&2); // hit
        let _ = lru.get(&1); // miss (evicted)
        let _ = lru.get(&3); // miss
        let delta = lru.stats().since(&before);
        assert_eq!((delta.hits, delta.misses, delta.evictions), (1, 2, 1));

        // since(self) is the zero delta, and clear() keeps the cumulative
        // counters (they outlive the entries).
        let now = lru.stats();
        assert_eq!(now.since(&now), LruStats::default());
        lru.clear();
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.stats(), now);
    }
}
