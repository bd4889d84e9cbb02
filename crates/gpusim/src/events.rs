//! Per-warp memory event classification: global-memory coalescing by
//! compute capability and shared-memory bank-conflict analysis.
//!
//! Addresses are in 4-byte *words*.  A lane's entry is `None` when the
//! thread is inactive (guarded off / divergent).

use crate::device::{ComputeCapability, HALF_WARP, WARP};
use crate::profile::ProfileCounters;

/// Outcome of one warp-wide global access.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GmemEvent {
    /// Transactions issued.
    pub transactions: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Whether any part was classified non-coalesced (CC 1.0 only).
    pub incoherent: u64,
    /// Coalesced transaction count.
    pub coherent: u64,
}

/// Classify a warp's global access (32 lanes of optional word addresses).
pub fn classify_gmem(cc: ComputeCapability, lanes: &[Option<i64>; WARP]) -> GmemEvent {
    match cc {
        ComputeCapability::Cc1_0 => {
            // Per half-warp: threads must hit one 64-byte segment in
            // thread order, else one 32-byte transaction per thread.
            let mut ev = GmemEvent::default();
            for half in 0..2 {
                let slice = &lanes[half * HALF_WARP..(half + 1) * HALF_WARP];
                let active = || {
                    slice
                        .iter()
                        .enumerate()
                        .filter_map(|(i, a)| a.map(|w| (i, w)))
                };
                let Some((i0, w0)) = active().next() else {
                    continue;
                };
                let base = w0 - i0 as i64;
                let perfect =
                    base % HALF_WARP as i64 == 0 && active().all(|(i, w)| w == base + i as i64);
                if perfect {
                    ev.transactions += 1;
                    ev.bytes += 64;
                    ev.coherent += 1;
                } else {
                    let count = active().count() as u64;
                    ev.transactions += count;
                    ev.bytes += count * 32;
                    ev.incoherent += count;
                }
            }
            ev
        }
        ComputeCapability::Cc1_3 => {
            // Per half-warp: the hardware issues one transaction per
            // distinct 64-byte segment actually touched.
            let mut ev = GmemEvent::default();
            for half in 0..2 {
                let slice = &lanes[half * HALF_WARP..(half + 1) * HALF_WARP];
                let segs = distinct(slice, HALF_WARP as i64);
                ev.transactions += segs;
                ev.bytes += segs * 64;
                ev.coherent += segs;
            }
            ev
        }
        ComputeCapability::Cc2_0 => {
            // Per warp: one transaction per distinct 128-byte cache line.
            let lines = distinct(lanes, 32);
            GmemEvent {
                transactions: lines,
                bytes: lines * 128,
                incoherent: 0,
                coherent: lines,
            }
        }
    }
}

/// Number of distinct `size`-word segments the active lanes touch.
fn distinct(lanes: &[Option<i64>], size: i64) -> u64 {
    let mut segs = [0i64; WARP];
    let mut n = 0;
    for &w in lanes.iter().flatten() {
        segs[n] = w.div_euclid(size);
        n += 1;
    }
    let segs = &mut segs[..n];
    segs.sort_unstable();
    segs.windows(2).filter(|p| p[0] != p[1]).count() as u64 + u64::from(n > 0)
}

/// Shared-memory bank-conflict replay count for one warp access: the
/// serialization degree minus one, maximized over banks.  Identical
/// addresses broadcast without conflict.
pub fn smem_replays(banks: u32, lanes: &[Option<i64>; WARP]) -> u64 {
    // CC 1.x resolves conflicts per half-warp; CC 2.0 per warp with 32
    // banks.  Using the bank count to choose the group size models both.
    let group = if banks <= 16 { HALF_WARP } else { WARP };
    let mut worst_total = 0u64;
    for chunk in lanes.chunks(group) {
        // (bank, address) of every active lane, sorted: each bank's
        // distinct addresses form one run.
        let mut hits = [(0i64, 0i64); WARP];
        let mut n = 0;
        for &w in chunk.iter().flatten() {
            hits[n] = (w.rem_euclid(banks as i64), w);
            n += 1;
        }
        if n == 0 {
            continue;
        }
        let hits = &mut hits[..n];
        hits.sort_unstable();
        let (mut worst, mut run) = (1u64, 1u64);
        for pair in hits.windows(2) {
            if pair[1] == pair[0] {
                continue; // same address: broadcast
            }
            run = if pair[1].0 == pair[0].0 { run + 1 } else { 1 };
            worst = worst.max(run);
        }
        worst_total += worst - 1;
    }
    worst_total
}

/// Accumulate a global access into counters, with the CC-appropriate
/// counter names.
pub fn record_gmem(
    counters: &mut ProfileCounters,
    cc: ComputeCapability,
    lanes: &[Option<i64>; WARP],
    is_store: bool,
    weight: f64,
) {
    apply_gmem(counters, cc, classify_gmem(cc, lanes), is_store, weight);
}

/// Accumulate an already classified global access into counters (the
/// second half of [`record_gmem`]).
pub fn apply_gmem(
    counters: &mut ProfileCounters,
    cc: ComputeCapability,
    ev: GmemEvent,
    is_store: bool,
    weight: f64,
) {
    if ev.transactions == 0 {
        return;
    }
    counters.gmem_bytes += ev.bytes as f64 * weight;
    match cc {
        ComputeCapability::Cc1_0 | ComputeCapability::Cc1_3 => {
            if is_store {
                counters.gst_coherent += ev.coherent as f64 * weight;
                counters.gst_incoherent += ev.incoherent as f64 * weight;
            } else {
                counters.gld_coherent += ev.coherent as f64 * weight;
                counters.gld_incoherent += ev.incoherent as f64 * weight;
            }
        }
        ComputeCapability::Cc2_0 => {
            if is_store {
                counters.gst_request += weight;
            } else {
                counters.gld_request += weight;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_lanes(base: i64) -> [Option<i64>; WARP] {
        std::array::from_fn(|i| Some(base + i as i64))
    }

    fn strided_lanes(base: i64, stride: i64) -> [Option<i64>; WARP] {
        std::array::from_fn(|i| Some(base + i as i64 * stride))
    }

    fn broadcast_lanes(addr: i64) -> [Option<i64>; WARP] {
        [Some(addr); WARP]
    }

    #[test]
    fn cc10_sequential_coalesces() {
        let ev = classify_gmem(ComputeCapability::Cc1_0, &seq_lanes(64));
        assert_eq!(ev.transactions, 2); // one per half-warp
        assert_eq!(ev.incoherent, 0);
        assert_eq!(ev.bytes, 128);
    }

    #[test]
    fn cc10_strided_serializes() {
        let ev = classify_gmem(ComputeCapability::Cc1_0, &strided_lanes(0, 4096));
        assert_eq!(ev.transactions, 32);
        assert_eq!(ev.incoherent, 32);
        assert_eq!(ev.bytes, 32 * 32);
    }

    #[test]
    fn cc10_misaligned_serializes() {
        // Sequential but starting mid-segment: G80 cannot coalesce.
        let ev = classify_gmem(ComputeCapability::Cc1_0, &seq_lanes(3));
        assert!(ev.incoherent > 0);
    }

    #[test]
    fn cc10_broadcast_serializes() {
        // Same-address global reads serialize on G80 (no broadcast path).
        let ev = classify_gmem(ComputeCapability::Cc1_0, &broadcast_lanes(128));
        assert_eq!(ev.incoherent, 32);
    }

    #[test]
    fn cc13_misaligned_costs_extra_segment_only() {
        let ev = classify_gmem(ComputeCapability::Cc1_3, &seq_lanes(3));
        // Each half-warp spans two 64B segments.
        assert_eq!(ev.transactions, 4);
        assert_eq!(ev.incoherent, 0);
    }

    #[test]
    fn cc13_broadcast_is_one_segment_per_half() {
        let ev = classify_gmem(ComputeCapability::Cc1_3, &broadcast_lanes(128));
        assert_eq!(ev.transactions, 2);
    }

    #[test]
    fn cc20_sequential_is_one_line() {
        let ev = classify_gmem(ComputeCapability::Cc2_0, &seq_lanes(0));
        assert_eq!(ev.transactions, 1);
        assert_eq!(ev.bytes, 128);
    }

    #[test]
    fn cc20_strided_touches_many_lines() {
        let ev = classify_gmem(ComputeCapability::Cc2_0, &strided_lanes(0, 1024));
        assert_eq!(ev.transactions, 32);
    }

    #[test]
    fn inactive_lanes_ignored() {
        let mut lanes = seq_lanes(0);
        for l in lanes.iter_mut().skip(16) {
            *l = None;
        }
        let ev = classify_gmem(ComputeCapability::Cc1_0, &lanes);
        assert_eq!(ev.transactions, 1);
    }

    #[test]
    fn bank_conflicts_16_banks() {
        // Stride-16 word accesses: every lane in a half-warp hits bank 0.
        assert_eq!(smem_replays(16, &strided_lanes(0, 16)), (16 - 1) * 2);
        // Stride-17 (padded tile): conflict-free.
        assert_eq!(smem_replays(16, &strided_lanes(0, 17)), 0);
        // Broadcast: conflict-free.
        assert_eq!(smem_replays(16, &broadcast_lanes(5)), 0);
        // Sequential: conflict-free.
        assert_eq!(smem_replays(16, &seq_lanes(0)), 0);
    }

    #[test]
    fn bank_conflicts_32_banks() {
        assert_eq!(smem_replays(32, &strided_lanes(0, 32)), 31);
        assert_eq!(smem_replays(32, &strided_lanes(0, 33)), 0);
    }

    /// The performance model memoizes both classifications per access
    /// site by the address modulo 32 words: shifting every active lane by
    /// `32·k` words must change neither (segments are 16 or 32 words, and
    /// there are 16 or 32 banks).
    #[test]
    fn events_invariant_under_32_word_shifts() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let ccs = [
            ComputeCapability::Cc1_0,
            ComputeCapability::Cc1_3,
            ComputeCapability::Cc2_0,
        ];
        for _ in 0..20_000 {
            // Mostly strided patterns (coalesced, padded, conflicting,
            // broadcast), some scattered, over random masks.
            let base = (next() % 4096) as i64 - 2048;
            let stride = [0, 1, 2, 15, 16, 17, 31, 32, 33, 64][(next() % 10) as usize];
            let scattered = next() % 4 == 0;
            let mask = match next() % 3 {
                0 => u32::MAX,
                1 => u32::MAX >> (next() % 32),
                _ => next() as u32,
            };
            let lanes: [Option<i64>; WARP] = std::array::from_fn(|i| {
                let jitter = if scattered { (next() % 96) as i64 } else { 0 };
                (mask >> i & 1 == 1).then_some(base + i as i64 * stride + jitter)
            });
            let k = (next() % 200) as i64 - 100;
            let shifted = lanes.map(|w| w.map(|w| w + 32 * k));
            for cc in ccs {
                assert_eq!(
                    classify_gmem(cc, &lanes),
                    classify_gmem(cc, &shifted),
                    "{cc:?} {lanes:?} shifted by 32·{k}"
                );
            }
            for banks in [16, 32] {
                assert_eq!(
                    smem_replays(banks, &lanes),
                    smem_replays(banks, &shifted),
                    "{banks} banks {lanes:?} shifted by 32·{k}"
                );
            }
        }
    }

    #[test]
    fn record_counters_by_cc() {
        let mut c = ProfileCounters::default();
        record_gmem(
            &mut c,
            ComputeCapability::Cc1_0,
            &strided_lanes(0, 100),
            false,
            1.0,
        );
        assert!(c.gld_incoherent > 0.0);
        let mut f = ProfileCounters::default();
        record_gmem(&mut f, ComputeCapability::Cc2_0, &seq_lanes(0), true, 2.0);
        assert_eq!(f.gst_request, 2.0);
        assert_eq!(f.gmem_bytes, 256.0);
    }
}
