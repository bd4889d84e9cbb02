//! Execution-level building blocks of the batched routine-dispatch layer.
//!
//! The paper's endgame (Sec. V) is a *library*: routines tuned once per
//! device and then called many times.  The registry and request types live
//! in `oa_core::dispatch` (they need the tuner and the BLAS3 routine
//! table, which sit above this crate); what belongs down here is
//! everything that touches compiled kernels and threads:
//!
//! * [`CompiledProgram`] — one program lowered **once** through the
//!   selected [`ExecEngine`] into its ready-to-run form (tree oracle,
//!   linear bytecode, or bytecode with native regions), executable any
//!   number of times from any thread;
//! * [`Lru`] — a bounded least-recently-used store with hit/miss/eviction
//!   counters, the precompiled-program cache of the registry;
//! * [`run_jobs`] — a caller-sized worker pool draining a shared queue:
//!   idle workers pull the next unclaimed job (the degenerate form of
//!   work-stealing where every worker steals from a single injector
//!   queue), results land in submission order, and each worker runs its
//!   jobs under [`rayon::in_place`] so the engines' internal
//!   block-parallel regions stay inline instead of oversubscribing the
//!   machine — batch-level parallelism replaces grid-level parallelism.
//!
//! Determinism contract: a job's result may depend only on the job itself
//! (never on claim order or worker identity), which is what makes batched
//! results bit-identical to one-at-a-time execution.  The dispatch test
//! battery (`tests/dispatch_*.rs`) enforces this across engines, thread
//! counts and LRU capacities.

use oa_loopir::interp::{Bindings, Buffers};
use oa_loopir::Program;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

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

/// Run `f` over every job on a pool of `threads` workers and return the
/// results in submission order.
///
/// Scheduling is a single shared injector queue: each idle worker claims
/// the next unclaimed index with one atomic increment, so a slow job
/// never blocks the queue behind it and the load balances like a
/// work-stealing pool whose victims all share one deque.  Workers wrap
/// `f` in [`rayon::in_place`], keeping the engines' internal
/// block-parallel regions inline — the pool owns the machine's
/// parallelism.  With `threads <= 1` (or one job) everything runs on the
/// calling thread, *without* `in_place`, so a sequential caller keeps
/// grid-level parallelism for latency.
///
/// `f` receives `(submission index, &job)`; results land in slot
/// `submission index`, so the output order never depends on claim order.
pub fn run_jobs<T, R, F>(threads: usize, jobs: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(jobs.len().max(1));
    if threads == 1 {
        return jobs.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let r = rayon::in_place(|| f(i, &jobs[i]));
                *slots[i].lock().expect("unpoisoned result slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("unpoisoned result slot")
                .expect("every job index claimed exactly once")
        })
        .collect()
}

type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// A persistent worker pool: threads spawned once and reused across
/// batches, the long-lived sibling of [`run_jobs`]'s per-batch scope.
///
/// `oa serve --listen` keeps one `Pool` alive for the whole server
/// lifetime — every dynamic batch is one [`Pool::spawn`]ed job, so the
/// steady state pays a channel send per batch instead of a
/// `thread::spawn`/join per batch.  Workers wrap jobs in
/// [`rayon::in_place`] for the same reason `run_jobs` does: batch-level
/// parallelism owns the machine; the engines' internal block-parallel
/// regions stay inline.
///
/// Dropping the pool closes the queue and joins every worker after it
/// finishes its current job — queued jobs still run (drop is a drain,
/// not an abort).
pub struct Pool {
    tx: Option<mpsc::Sender<PoolJob>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawn `threads.max(1)` workers sharing one job queue.
    pub fn new(threads: usize) -> Pool {
        let (tx, rx) = mpsc::channel::<PoolJob>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    // Hold the receiver lock only for the dequeue, never
                    // across a job.
                    let job = match rx.lock().expect("unpoisoned pool queue").recv() {
                        Ok(j) => j,
                        Err(_) => break, // queue closed: pool dropped
                    };
                    rayon::in_place(job);
                })
            })
            .collect();
        Pool {
            tx: Some(tx),
            workers,
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueue one job; an idle worker picks it up in FIFO order.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool queue open")
            .send(Box::new(job))
            .expect("pool workers alive");
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.tx.take(); // close the queue; workers drain and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The dynamic batch former: groups items by key within a size/time
/// window so same-program requests run as **one warm batch** against the
/// compiled-program LRU.
///
/// An item joins the open group of its key.  A group becomes *ready*
/// when it reaches `max_batch` items or when its oldest item has waited
/// `window` — so an isolated request pays at most `window` of added
/// latency while a burst of identical requests coalesces into a single
/// resolve/compile/lookup.  [`Coalescer::pop_ready`] returns ready
/// groups oldest-first (arrival order of each group's first item), which
/// keeps group dispatch FIFO-fair across keys.
#[derive(Debug)]
pub struct Coalescer<K, T> {
    max_batch: usize,
    window: Duration,
    seq: u64,
    groups: HashMap<K, CoalesceGroup<T>>,
    len: usize,
}

#[derive(Debug)]
struct CoalesceGroup<T> {
    first_seq: u64,
    oldest: Instant,
    items: Vec<T>,
}

impl<K: Eq + Hash + Clone, T> Coalescer<K, T> {
    /// An empty former; `max_batch` floors at 1 (a window of zero makes
    /// every item immediately ready — batching off).
    pub fn new(max_batch: usize, window: Duration) -> Self {
        Coalescer {
            max_batch: max_batch.max(1),
            window,
            seq: 0,
            groups: HashMap::new(),
            len: 0,
        }
    }

    /// Add one item to its key's open group.
    pub fn push(&mut self, key: K, item: T, now: Instant) {
        self.seq += 1;
        let seq = self.seq;
        let g = self.groups.entry(key).or_insert_with(|| CoalesceGroup {
            first_seq: seq,
            oldest: now,
            items: Vec::new(),
        });
        g.items.push(item);
        self.len += 1;
    }

    /// Queued items across all open groups.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No queued items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn ready(&self, g: &CoalesceGroup<T>, now: Instant) -> bool {
        g.items.len() >= self.max_batch || now.duration_since(g.oldest) >= self.window
    }

    fn take(&mut self, key: K) -> (K, Vec<T>) {
        // `max_batch` is a hard cap, not just a readiness threshold: a
        // group that out-grew it between polls (a burst landing faster
        // than the scheduler drains) is split, and the remainder re-opens
        // at the back of the queue so other keys get a turn in between.
        let g = self.groups.get_mut(&key).expect("group present");
        if g.items.len() > self.max_batch {
            let rest = g.items.split_off(self.max_batch);
            let out = std::mem::replace(&mut g.items, rest);
            self.len -= out.len();
            self.seq += 1;
            g.first_seq = self.seq;
            return (key, out);
        }
        let g = self.groups.remove(&key).expect("group present");
        self.len -= g.items.len();
        (key, g.items)
    }

    /// Remove and return the oldest *ready* group, if any.
    pub fn pop_ready(&mut self, now: Instant) -> Option<(K, Vec<T>)> {
        let key = self
            .groups
            .iter()
            .filter(|(_, g)| self.ready(g, now))
            .min_by_key(|(_, g)| g.first_seq)
            .map(|(k, _)| k.clone())?;
        Some(self.take(key))
    }

    /// Remove and return the oldest group regardless of readiness — the
    /// shutdown drain path.
    pub fn pop_oldest(&mut self) -> Option<(K, Vec<T>)> {
        let key = self
            .groups
            .iter()
            .min_by_key(|(_, g)| g.first_seq)
            .map(|(k, _)| k.clone())?;
        Some(self.take(key))
    }

    /// When the earliest open group becomes ready by timeout (`None`
    /// when empty).  A scheduler sleeps until this instant, pops ready
    /// groups, and repeats.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.groups.values().map(|g| g.oldest + self.window).min()
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

    #[test]
    fn run_jobs_preserves_submission_order_across_thread_counts() {
        let jobs: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = jobs.iter().map(|j| j * 3).collect();
        for threads in [1, 2, 8] {
            let got = run_jobs(threads, &jobs, |i, j| {
                assert_eq!(i, *j, "index/job alignment");
                j * 3
            });
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn run_jobs_handles_empty_and_oversized_pools() {
        let none: Vec<u8> = run_jobs(8, &[] as &[u8], |_, j| *j);
        assert!(none.is_empty());
        let one = run_jobs(64, &[7u8], |_, j| *j + 1);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn pool_runs_every_spawned_job_and_drains_on_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = Pool::new(3);
        assert_eq!(pool.threads(), 3);
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Drop drains the queue: every queued job runs before join.
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 50);

        let zero = Pool::new(0);
        assert_eq!(zero.threads(), 1, "thread count floors at one");
    }

    #[test]
    fn coalescer_batches_by_size_and_window() {
        let t0 = Instant::now();
        let mut c: Coalescer<&str, u32> = Coalescer::new(3, Duration::from_millis(10));
        c.push("a", 1, t0);
        c.push("a", 2, t0);
        assert_eq!(c.len(), 2);
        // Under max_batch and inside the window: nothing ready.
        assert!(c.pop_ready(t0).is_none());
        // Third item fills the group: ready immediately.
        c.push("a", 3, t0);
        let (k, items) = c.pop_ready(t0).expect("full group ready");
        assert_eq!((k, items), ("a", vec![1, 2, 3]));
        assert!(c.is_empty());

        // A lone item becomes ready only once its window expires.
        c.push("b", 9, t0);
        assert!(c.pop_ready(t0 + Duration::from_millis(5)).is_none());
        assert_eq!(c.next_deadline(), Some(t0 + Duration::from_millis(10)));
        let (k, items) = c.pop_ready(t0 + Duration::from_millis(10)).unwrap();
        assert_eq!((k, items), ("b", vec![9]));
    }

    #[test]
    fn coalescer_pops_ready_groups_in_arrival_order() {
        let t0 = Instant::now();
        let mut c: Coalescer<u8, u8> = Coalescer::new(2, Duration::from_millis(5));
        c.push(1, 10, t0); // group 1 opens first...
        c.push(2, 20, t0);
        c.push(2, 21, t0); // ...but group 2 fills first
        let late = t0 + Duration::from_millis(5);
        // At the deadline both are ready: arrival order wins, not fill order.
        assert_eq!(c.pop_ready(late), Some((1, vec![10])));
        assert_eq!(c.pop_ready(late), Some((2, vec![20, 21])));

        // pop_oldest drains regardless of readiness (shutdown path).
        c.push(3, 30, t0);
        assert_eq!(c.pop_oldest(), Some((3, vec![30])));
        assert_eq!(c.pop_oldest(), None);
    }

    #[test]
    fn coalescer_caps_oversized_groups_and_rotates_keys() {
        let t0 = Instant::now();
        let mut c: Coalescer<&str, u32> = Coalescer::new(2, Duration::from_millis(5));
        // A burst lands 5 items on one key before the scheduler polls,
        // plus one item on a second key.
        for i in 0..5 {
            c.push("burst", i, t0);
        }
        c.push("other", 99, t0);
        let late = t0 + Duration::from_millis(5);
        // The oversized group pops capped at max_batch, and its remainder
        // goes to the back: the other (older-seq now) key gets a turn.
        assert_eq!(c.pop_ready(late), Some(("burst", vec![0, 1])));
        assert_eq!(c.pop_ready(late), Some(("other", vec![99])));
        assert_eq!(c.pop_ready(late), Some(("burst", vec![2, 3])));
        assert_eq!(c.pop_ready(late), Some(("burst", vec![4])));
        assert!(c.is_empty());

        // pop_oldest (the drain path) honours the cap too.
        for i in 0..3 {
            c.push("drain", i, t0);
        }
        assert_eq!(c.pop_oldest(), Some(("drain", vec![0, 1])));
        assert_eq!(c.pop_oldest(), Some(("drain", vec![2])));
        assert_eq!(c.pop_oldest(), None);
    }
}
