//! Property tests for the dispatch layer's caching, served through the
//! one-shot `oa serve` path.
//!
//! Two invariants, checked over randomized request streams:
//!
//! 1. **Eviction is invisible.**  The same requests served through a
//!    capacity-1 LRU and an unbounded one yield identical per-request
//!    outcomes — the program store is a pure memoization, never a
//!    semantic dependency.
//! 2. **The accounting adds up.**  Every successfully resolved request
//!    performs exactly one program-store lookup, so a run's
//!    `hits + misses` equals its request count, the LRU never exceeds
//!    its capacity, and an unbounded store never evicts.

use oa_core::autotune::json::{self, Json};
use oa_core::dispatch::{Registry, Request};
use oa_core::testutil::{mixed_requests, serve_requests, shared_tune_cache_path, Lcg};
use oa_core::DeviceSpec;

fn digests(registry: &Registry, reqs: &[Request]) -> Vec<String> {
    serve_requests(registry, reqs, 1)
        .0
        .iter()
        .map(|a| {
            let s = |k: &str| a.get(k).and_then(Json::as_str).unwrap_or_default();
            match s("status") {
                "ok" => s("digest").to_string(),
                _ => format!("failed {}: {}", s("class"), s("reason")),
            }
        })
        .collect()
}

#[test]
fn capacity_one_and_unbounded_stores_agree_on_every_output() {
    let device = DeviceSpec::gtx285();
    let mut g = Lcg::new(0xCAB);
    for round in 0..3u64 {
        let reqs = mixed_requests(16, g.next());
        let tiny = Registry::new(device.clone())
            .with_capacity(Some(1))
            .with_tune_cache(shared_tune_cache_path());
        let unbounded = Registry::new(device.clone()).with_tune_cache(shared_tune_cache_path());
        assert_eq!(
            digests(&tiny, &reqs),
            digests(&unbounded, &reqs),
            "round {round}: eviction changed results"
        );
        assert!(
            tiny.programs_len() <= 1,
            "round {round}: capacity-1 store holds {}",
            tiny.programs_len()
        );
        assert_eq!(
            unbounded.program_stats().evictions,
            0,
            "round {round}: unbounded store evicted"
        );
    }
}

#[test]
fn hits_and_misses_sum_to_the_request_count() {
    let device = DeviceSpec::gtx285();
    let mut g = Lcg::new(0xACC);
    for round in 0..3u64 {
        let reqs = mixed_requests(24, g.next());
        for capacity in [Some(1), Some(5), None] {
            let registry = Registry::new(device.clone())
                .with_capacity(capacity)
                .with_tune_cache(shared_tune_cache_path());
            let (_, stats) = serve_requests(&registry, &reqs, 1);
            let ctx = format!("round {round} capacity {capacity:?}");
            assert_eq!(stats.failed + stats.rejected, 0, "{ctx}: requests failed");
            assert_eq!(
                stats.hits + stats.misses,
                reqs.len() as u64,
                "{ctx}: every request does exactly one lookup"
            );
            // A second pass over the same requests through the same
            // registry is all hits when nothing was evicted.
            if capacity.is_none() {
                let (_, again) = serve_requests(&registry, &reqs, 1);
                assert_eq!(again.misses, 0, "{ctx}: warm re-run missed");
                assert_eq!(again.hits, reqs.len() as u64, "{ctx}");
            }
        }
    }
}

/// The terminal `serve` record one-shot `oa serve --trace json` emits
/// agrees with the answers it returned, and the trace validates.
#[test]
fn emitted_batch_event_matches_the_returned_stats() {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let reqs = mixed_requests(8, 0xE7E7);
    let input: String = reqs.iter().map(|r| r.to_json().compact() + "\n").collect();
    let mut child = Command::new(env!("CARGO_BIN_EXE_oa"))
        .args(["serve", "-", "--threads", "2", "--trace", "json"])
        .env("OA_TUNE_CACHE", shared_tune_cache_path())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn oa serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("oa serve runs");
    assert!(out.status.success(), "oa serve failed: {out:?}");
    let answers: Vec<Json> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| json::parse(l).expect("JSON answer"))
        .collect();
    let trace = String::from_utf8(out.stderr).unwrap();
    oa_core::trace::check_stream(&trace).expect("the one-shot trace validates");
    let record = trace
        .lines()
        .rev()
        .filter_map(json::parse)
        .find(|e| e.get("event").and_then(Json::as_str) == Some("serve"))
        .expect("one-shot serve ends on a `serve` record");
    let count = |k: &str| record.get(k).and_then(Json::as_i64).expect(k) as usize;
    let answered = |k: &str, v: &str| {
        answers
            .iter()
            .filter(|a| a.get(k).and_then(Json::as_str) == Some(v))
            .count()
    };
    assert_eq!(answers.len(), reqs.len());
    assert_eq!(count("admitted"), reqs.len());
    assert_eq!(count("completed"), reqs.len());
    assert_eq!(count("ok"), answered("status", "ok"));
    assert_eq!(count("failed"), answered("status", "error"));
    assert_eq!(count("hits"), answered("cache", "hit"));
    assert_eq!(count("misses"), answered("cache", "miss"));
}
