//! Concurrency stress test for request dispatch through `oa serve`.
//!
//! One mixed-routine request stream is served repeatedly through the
//! one-shot path — different worker counts, different submission orders,
//! bounded and unbounded program stores — and every run must agree *per
//! request*: identical status, identical digest, identical output buffer.
//! Scheduling, claim order, LRU races (two workers compiling the same
//! key) and evictions must never leak into results; only throughput and
//! hit rates may move.

use oa_core::autotune::json::Json;
use oa_core::dispatch::{Registry, Request};
use oa_core::testutil::{mixed_requests, serve_requests, shared_tune_cache_path, Lcg};
use oa_core::DeviceSpec;
use std::collections::HashMap;

/// The request an answer line belongs to.
fn request_key(r: &Request) -> String {
    format!("{} n={} seed={}", r.routine.name(), r.n, r.seed)
}

/// The comparable part of an answer line: the request it answers, and
/// its status class, digest and output — everything except timing and
/// cache provenance (those legitimately vary run to run).
fn fingerprint(answer: &Json) -> (String, String) {
    let s = |k: &str| answer.get(k).and_then(Json::as_str).unwrap_or_default();
    let i = |k: &str| answer.get(k).and_then(Json::as_i64).unwrap_or(-1);
    let request = format!("{} n={} seed={}", s("routine"), i("n"), i("seed"));
    let status = match s("status") {
        "ok" => format!("ok {} {}", s("output"), s("digest")),
        _ => format!("failed {}: {}", s("class"), s("reason")),
    };
    (request, status)
}

/// A deterministic in-place shuffle (Fisher–Yates on the shared LCG).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut g = Lcg::new(seed);
    for i in (1..items.len()).rev() {
        let j = g.range(0, i as i64 + 1) as usize;
        items.swap(i, j);
    }
}

#[test]
fn batches_are_deterministic_across_threads_orders_and_capacities() {
    let device = DeviceSpec::gtx285();
    let base = mixed_requests(48, 0xC0FFEE);

    // Reference: fully sequential, unbounded store.
    let reference = Registry::new(device.clone()).with_tune_cache(shared_tune_cache_path());
    let expected: HashMap<String, String> = serve_requests(&reference, &base, 1)
        .0
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(expected.len(), base.len(), "requests must be distinct");

    for (threads, order_seed, capacity) in [
        (8usize, 0u64, None), // 8 workers, submission order
        (8, 0x5EED, None),    // 8 workers, shuffled
        (3, 0x5EED, Some(4)), // odd worker count + tiny LRU (evicts constantly)
        (2, 0xABCD, Some(1)), // degenerate LRU: every request a miss
    ] {
        let mut reqs = base.clone();
        shuffle(&mut reqs, order_seed);
        let registry = Registry::new(device.clone())
            .with_capacity(capacity)
            .with_tune_cache(shared_tune_cache_path());
        let (answers, stats) = serve_requests(&registry, &reqs, threads);
        let ctx = format!("threads={threads} order={order_seed:#x} capacity={capacity:?}");

        assert_eq!(answers.len(), reqs.len(), "{ctx}");
        assert_eq!(stats.failed + stats.rejected, 0, "{ctx}: requests failed");
        // Answer line i belongs to submitted request i...
        for (req, answer) in reqs.iter().zip(&answers) {
            let (request, status) = fingerprint(answer);
            assert_eq!(request_key(req), request, "{ctx}: answer order");
            // ...and its result matches the sequential reference exactly.
            assert_eq!(
                expected.get(&request),
                Some(&status),
                "{ctx}: {} n={} diverged from sequential reference",
                req.routine.name(),
                req.n
            );
        }
    }
}

/// Two identical stressed runs (same threads, same shuffled order) agree
/// with each other answer-for-answer — the repeated-run flake check.
#[test]
fn repeated_stressed_runs_are_identical() {
    let device = DeviceSpec::gtx285();
    let mut reqs = mixed_requests(32, 0xFEED);
    shuffle(&mut reqs, 0x1234);

    let run = || {
        let registry = Registry::new(device.clone())
            .with_capacity(Some(6))
            .with_tune_cache(shared_tune_cache_path());
        serve_requests(&registry, &reqs, 8)
            .0
            .iter()
            .map(fingerprint)
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
