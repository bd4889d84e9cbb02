//! Differential test for the routine registry: dispatch must be a
//! *transparent* layer.
//!
//! For every one of the 24 BLAS3 routine variants and every execution
//! engine, a request served through [`oa_core::dispatch::Registry`]
//! (tuning cache → script replay → precompiled-program LRU → batched
//! executor) must produce buffers **bit-identical** to executing the very
//! same script/params directly through `exec_program_on` — no tolerance,
//! inputs included.  Anything the dispatch layer adds (memoized tuned
//! entries, program reuse across requests, the warm-up phase) must be
//! invisible in the results.

use oa_core::blas3::verify::prepare_buffers;
use oa_core::dispatch::{digest_buffers, Registry, Request, RequestStatus};
use oa_core::epod::translator::apply_lenient;
use oa_core::gpusim::{exec_program_on, ExecEngine};
use oa_core::loopir::interp::{Bindings, Buffers};
use oa_core::testutil::shared_tune_cache_path;
use oa_core::{DeviceSpec, RoutineId};

/// Bit-pattern comparison of every buffer (inputs included: dispatch
/// must not even touch anything differently).
fn assert_buffers_bit_identical(a: &Buffers, b: &Buffers, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: buffer sets differ");
    for (name, m) in a {
        let other = b
            .get(name)
            .unwrap_or_else(|| panic!("{ctx}: buffer {name} missing"));
        assert_eq!(m.rows, other.rows, "{ctx}: {name} shape");
        assert_eq!(m.cols, other.cols, "{ctx}: {name} shape");
        for (i, (x, y)) in m.data.iter().zip(other.data.iter()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{ctx}: {name}[{i}] differs: {x:?} ({:#010x}) vs {y:?} ({:#010x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }
}

#[test]
fn registry_requests_match_direct_engine_execution_on_all_24_routines() {
    let device = DeviceSpec::gtx285();
    for engine in ExecEngine::ALL {
        let registry = Registry::new(device.clone())
            .with_engine(engine)
            .with_tune_cache(shared_tune_cache_path());
        for r in RoutineId::all24() {
            // Two sizes per routine: the second exercises a program
            // distinct from the first (and, for the non-solvers, reuses
            // the first's tuned entry across one size class).  The TRSM
            // kernels serialize along a 64-wide column tile, so the
            // solvers only get tile-multiple sizes.
            let second: (i64, u64) = if matches!(r, RoutineId::Trsm(..)) {
                (128, 0xD00D)
            } else {
                (48, 0xD00D)
            };
            for (n, seed) in [(64i64, 0xFACEu64), second] {
                let ctx = format!("{} n={n} engine={}", r.name(), engine.name());
                let req = Request {
                    routine: r,
                    n,
                    seed,
                    zero_blanks: true,
                    tenant: None,
                };
                let (outcome, dispatched) = registry.run_one_buffers(&req);
                let ok = match &outcome.status {
                    RequestStatus::Ok(ok) => ok.clone(),
                    RequestStatus::Failed { class, reason } => {
                        panic!("{ctx}: dispatch failed ({class}): {reason}")
                    }
                };
                let dispatched = dispatched.expect("ok outcome carries buffers");

                // Re-derive the same execution by hand from the tuned
                // entry the registry resolved: same script, same params,
                // same inputs, direct engine call.
                let entry = registry.resolve(r, n).unwrap();
                let src = oa_core::blas3::routines::source(r);
                let lowered = apply_lenient(&src, &entry.script, entry.params)
                    .unwrap_or_else(|e| panic!("{ctx}: translate failed: {e}"));
                let mut direct = prepare_buffers(&lowered.program, n, seed, true);
                exec_program_on(engine, &lowered.program, &Bindings::square(n), &mut direct)
                    .unwrap_or_else(|e| panic!("{ctx}: direct execution failed: {e}"));

                assert_buffers_bit_identical(&direct, &dispatched, &ctx);
                assert_eq!(
                    ok.digest,
                    digest_buffers(&direct),
                    "{ctx}: reported digest is not the buffers' digest"
                );
            }
        }
    }
}

/// The registry's reported digest is also engine-invariant: serving the
/// same request through all three engines yields one digest (the
/// engine-differential invariant, observed through the dispatch layer).
#[test]
fn dispatch_digests_are_engine_invariant() {
    let device = DeviceSpec::gtx285();
    let req = Request {
        routine: RoutineId::parse("SYMM-RL").expect("catalog routine"),
        n: 64,
        seed: 0xBEEF,
        zero_blanks: true,
        tenant: None,
    };
    let digests: Vec<u64> = ExecEngine::ALL
        .iter()
        .map(|&engine| {
            let registry = Registry::new(device.clone())
                .with_engine(engine)
                .with_tune_cache(shared_tune_cache_path());
            match registry.run_one(&req).status {
                RequestStatus::Ok(ok) => ok.digest,
                RequestStatus::Failed { class, reason } => {
                    panic!("{}: dispatch failed ({class}): {reason}", engine.name())
                }
            }
        })
        .collect();
    assert_eq!(digests[0], digests[1], "oracle vs bytecode");
    assert_eq!(digests[0], digests[2], "oracle vs native");
}
